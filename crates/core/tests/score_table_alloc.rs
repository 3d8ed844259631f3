//! The memory claim of the score table, pinned by counting allocations
//! rather than by reading the resident set: streaming a `.ddm` into a
//! [`ScoreTable`] allocates fewer bytes in total than the file's embedding
//! block, while loading the whole model allocates more; and scoring the
//! heads as well allocates at most [`PER_HEAD`] bytes per distinct head
//! beyond the rows-only load, so no per-row or per-`dim` head state can
//! come back unnoticed. The allocator counts for the whole process, so this
//! binary holds this one test.

use std::io::Cursor;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_telemetry::alloc::{alloc_totals, enable_profiling, CountingAlloc};
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel, ScoreTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes a fold-in load may allocate per distinct head beyond a rows-only
/// load: the heads (4), their scores and sums (8), their counts (4), the
/// head buckets (4) and the buckets the heads are first gathered in, one
/// per id up to the largest head (4 per head for dense ids), 24 in all.
const PER_HEAD: u64 = 32;

/// Bytes allocated while `f` runs.
fn allocated(f: impl FnOnce()) -> u64 {
    let (_, before) = alloc_totals();
    f();
    let (_, after) = alloc_totals();
    after - before
}

#[test]
fn table_load_allocates_less_than_the_embedding_block_and_model_load_more() {
    let mut rng = StdRng::seed_from_u64(5);
    let net =
        social_network(&SocialNetConfig { n_nodes: 3_000, ..Default::default() }, &mut rng).network;
    // The block's size is what matters, not the fit's quality.
    let cfg = DeepDirectConfig {
        dim: 64,
        threads: 1,
        max_iterations: Some(1_000),
        dstep_epochs: 0,
        ..DeepDirectConfig::default()
    };
    let model = DeepDirect::new(cfg).fit(&net);
    let mut ddm = Vec::new();
    model.save_binary(&mut ddm).unwrap();
    let block = (model.n_ties() * model.dim() * 4) as u64;
    assert!(block >= 4 << 20, "the embedding block is only {block} bytes");

    enable_profiling();
    let table = allocated(|| {
        let table = ScoreTable::load(Cursor::new(&ddm), true).expect("the table loads");
        assert_eq!(table.fingerprint(), model.fingerprint());
    });
    let whole = allocated(|| {
        let loaded = DirectionalityModel::load(ddm.as_slice()).expect("the model loads");
        assert_eq!(loaded.fingerprint(), model.fingerprint());
    });
    let rows_only = allocated(|| {
        let table = ScoreTable::load(Cursor::new(&ddm), false).expect("the table loads");
        assert_eq!(table.fingerprint(), model.fingerprint());
    });
    let mut heads: Vec<u32> = model.ties().iter().map(|&(_, v)| v).collect();
    heads.sort_unstable();
    heads.dedup();
    let (rows, heads) = (model.n_ties() as u64, heads.len() as u64);
    assert!(4 * rows > PER_HEAD * heads, "a u32 per row ({rows}) would fit the allowance");
    assert!(
        table <= rows_only + PER_HEAD * heads,
        "the fold-in load allocated {table} bytes, the rows-only load {rows_only}, \
         for {heads} heads"
    );
    assert!(table < block, "the table load allocated {table} bytes, the block is {block}");
    assert!(whole > block, "the model load allocated {whole} bytes, the block is {block}");
}
