//! The score table a shard serves holds the same values as the model it
//! comes from: every row score bit-identical to `score_row`, every head
//! score bit-identical to its definition (the sigmoid of the mean
//! embedding-half logit of the head's in-rows, summed in key order), and
//! the same fingerprint, whether the table is taken from a model in memory
//! or streamed from its `.ddm`. Checked on the serial fits
//! `serial_fit_golden.rs` pins, with and without `context_features`. The
//! head scores stay within 1e-6 of `FoldInScorer`'s mean-embedding fold-in,
//! the definition they replaced.

use std::collections::BTreeMap;
use std::io::Cursor;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_graph::NodeId;
use dd_linalg::kernels::dot8_f64;
use dd_linalg::sigmoid64;
use deepdirect::{
    DeepDirect, DeepDirectConfig, DirectionalityHead, DirectionalityModel, FoldInScorer, ScoreTable,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pinned serial fit of `serial_fit_golden.rs`.
fn serial_fit(cfg: DeepDirectConfig) -> DirectionalityModel {
    let mut rng = StdRng::seed_from_u64(2024);
    let net =
        social_network(&SocialNetConfig { n_nodes: 140, ..Default::default() }, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let cfg = DeepDirectConfig {
        dim: 16,
        threads: 1,
        max_iterations: Some(40_000),
        dstep_epochs: 8,
        seed: 77,
        ..cfg
    };
    DeepDirect::new(cfg).fit(&hidden)
}

/// Each head's fold-in score by its definition: the sigmoid of the mean
/// embedding-half logit of its in-rows plus the bias, the logits summed in
/// f64 in `(src, dst, row)` order.
fn head_means(model: &DirectionalityModel) -> BTreeMap<u32, f64> {
    let DirectionalityHead::Logistic(lr) = model.head();
    let mut rows: Vec<usize> = (0..model.n_ties()).collect();
    rows.sort_by_key(|&row| (model.ties()[row], row));
    let mut sums = BTreeMap::new();
    for row in rows {
        let (sum, n) = sums.entry(model.ties()[row].1).or_insert((0.0, 0u32));
        *sum += dot8_f64(&lr.w[..model.dim()], model.embedding_row(row));
        *n += 1;
    }
    let b = f64::from(lr.b);
    sums.into_iter().map(|(v, (sum, n))| (v, sigmoid64(sum / f64::from(n) + b))).collect()
}

/// Every row, every head id up to one past the largest node, and an id far
/// outside the network, against the model and its head means.
fn assert_matches_model(table: &ScoreTable, model: &DirectionalityModel, what: &str) {
    assert_eq!(table.fingerprint(), model.fingerprint(), "{what}: fingerprint");
    assert_eq!(table.n_ties(), model.n_ties(), "{what}: ties");
    for (row, &(u, v)) in model.ties().iter().enumerate() {
        assert_eq!(
            table.row_score(row).to_bits(),
            model.score_row(row).to_bits(),
            "{what}: row {row}"
        );
        let (u, v) = (NodeId(u), NodeId(v));
        assert_eq!(table.tie_row(u, v), model.tie_row(u, v), "{what}: lookup of row {row}");
        assert_eq!(table.score(u, v).map(f64::to_bits), model.score(u, v).map(f64::to_bits));
    }
    let means = head_means(model);
    let max_node = model.ties().iter().map(|&(u, v)| u.max(v)).max().unwrap();
    for v in (0..=max_node + 1).chain([u32::MAX - 1, u32::MAX]) {
        let want = means.get(&v).copied();
        let got = table.head_score(NodeId(v));
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{what}: head {v}");
    }
    assert!(means.len() > 100, "{what}: only {} heads have in-ties", means.len());
}

fn check(cfg: DeepDirectConfig, what: &str) {
    let model = serial_fit(cfg);
    assert_matches_model(&ScoreTable::of(&model), &model, &format!("{what}, of"));

    let mut ddm = Vec::new();
    model.save_binary(&mut ddm).unwrap();
    let streamed = ScoreTable::load(Cursor::new(&ddm), true).expect("the table loads");
    assert_matches_model(&streamed, &model, &format!("{what}, load"));

    // Without fold-in the rows are the same and no head is scored.
    let rows_only = ScoreTable::load(Cursor::new(&ddm), false).unwrap();
    assert!(!rows_only.has_head_scores());
    assert_eq!(rows_only.fingerprint(), model.fingerprint());
    for &v in head_means(&model).keys() {
        assert_eq!(rows_only.head_score(NodeId(v)), None, "{what}: head {v} without fold-in");
    }
    for row in 0..model.n_ties() {
        assert_eq!(rows_only.row_score(row).to_bits(), streamed.row_score(row).to_bits());
    }
}

#[test]
fn table_matches_the_serial_logistic_fit() {
    check(DeepDirectConfig::default(), "logistic");
}

#[test]
fn table_matches_the_serial_context_fit() {
    check(DeepDirectConfig { context_features: true, ..DeepDirectConfig::default() }, "context");
}

#[test]
fn load_from_path_names_the_path() {
    let model = serial_fit(DeepDirectConfig::default());
    let path = std::env::temp_dir().join(format!("dd_score_table_{}.ddm", std::process::id()));
    model.save_binary_to_path(&path).unwrap();
    let table = ScoreTable::load_from_path(&path, true);
    let _ = std::fs::remove_file(&path);
    assert_matches_model(&table.unwrap(), &model, "load_from_path");
    let err = ScoreTable::load_from_path("/nonexistent/model.ddm", false).unwrap_err();
    assert!(err.contains("opening model '/nonexistent/model.ddm'"), "{err}");
}

/// The mean-logit head score moves the old mean-embedding fold-in
/// (`FoldInScorer`, the f32 mean of the in-rows through the head) only in
/// its last bits: within 1e-6 on every head, with and without
/// `context_features`. An untrained pair from an id that starts no tie
/// excludes no row, as a stream's dynamic tie does not.
#[test]
fn head_scores_stay_within_1e_6_of_the_mean_embedding_fold_in() {
    for (cfg, what) in [
        (DeepDirectConfig::default(), "logistic"),
        (DeepDirectConfig { context_features: true, ..DeepDirectConfig::default() }, "context"),
    ] {
        let model = serial_fit(cfg);
        let mut ddm = Vec::new();
        model.save_binary(&mut ddm).unwrap();
        let table = ScoreTable::load(Cursor::new(&ddm), true).expect("the table loads");
        let scorer = FoldInScorer::new(&model);
        let outsider = NodeId(u32::MAX);
        let heads = head_means(&model);
        for &v in heads.keys() {
            let old = scorer.score(outsider, NodeId(v));
            let new = table.head_score(NodeId(v)).expect("a head with in-ties scores");
            let shift = (new - old).abs();
            assert!(shift <= 1e-6, "{what}: head {v} moved {shift:e} ({old} -> {new})");
        }
        assert!(heads.len() > 100, "{what}: only {} heads", heads.len());
    }
}
