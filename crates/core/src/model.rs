//! Public model API: fit a [`DeepDirect`] on a mixed social network, get a
//! [`DirectionalityModel`] that scores ordered ties.

use std::io::{Cursor, Read, Write};
use std::path::Path;

use dd_graph::{MixedSocialNetwork, NodeId};
use dd_linalg::bytes::Xxh64;
use dd_linalg::kernels::dot8_f64;
use dd_linalg::matrix::DenseMatrix;
use dd_linalg::rng::Pcg32;
use dd_linalg::sigmoid64;

use crate::binfmt;
use crate::config::DeepDirectConfig;
use crate::dstep::{self, DirectionalityHead};
use crate::estep;
use crate::pairs::PairIndex;
use crate::store::TieStore;
use crate::universe::TieUniverse;

/// The DeepDirect learner (Sec. 4). Construct with a config, call
/// [`DeepDirect::fit`].
///
/// ```
/// use dd_graph::{NetworkBuilder, NodeId};
/// use deepdirect::{DeepDirect, DeepDirectConfig};
///
/// let mut b = NetworkBuilder::new(4);
/// b.add_directed(NodeId(0), NodeId(1)).unwrap();
/// b.add_directed(NodeId(1), NodeId(2)).unwrap();
/// b.add_directed(NodeId(2), NodeId(3)).unwrap();
/// b.add_undirected(NodeId(3), NodeId(0)).unwrap();
/// let g = b.build().unwrap();
///
/// let mut cfg = DeepDirectConfig::fast();
/// cfg.dim = 8;
/// cfg.max_iterations = Some(2_000);
/// let model = DeepDirect::new(cfg).fit(&g);
/// let d = model.score(NodeId(3), NodeId(0)).unwrap();
/// assert!((0.0..=1.0).contains(&d));
/// ```
#[derive(Debug, Clone)]
pub struct DeepDirect {
    cfg: DeepDirectConfig,
}

impl DeepDirect {
    /// Creates a learner with the given configuration.
    pub fn new(cfg: DeepDirectConfig) -> Self {
        cfg.validate().expect("invalid DeepDirect configuration");
        DeepDirect { cfg }
    }

    /// Creates a learner with the paper's default hyper-parameters.
    pub fn with_defaults() -> Self {
        Self::new(DeepDirectConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &DeepDirectConfig {
        &self.cfg
    }

    /// Runs preprocessing, the E-Step, and the D-Step (Algorithm 1).
    ///
    /// The whole fit runs under a `model.fit` root span whose trace ID is
    /// derived from [`DeepDirectConfig::seed`], with each phase
    /// (`universe.build`, `estep.train`, `dstep.train`) a child span and the
    /// universe build's and the D-Step's pool calls and chunks grandchildren
    /// — so a re-run of the same config reproduces the same trace tree. All
    /// reporting goes through [`DeepDirectConfig::observer`]; the E-Step
    /// additionally reports periodic progress samples and the D-Step its
    /// epoch losses. Tracing is observational only: results are
    /// bit-identical with the observer on or off (DESIGN.md §7.12).
    pub fn fit(&self, g: &MixedSocialNetwork) -> DirectionalityModel {
        let obs = &self.cfg.observer;
        let mut rng = Pcg32::seed_from_u64(self.cfg.seed ^ 0x9e37);
        let threads = dd_runtime::Threads::new(self.cfg.threads)
            .expect("DeepDirectConfig.threads is zero; call validate() first");
        let root = obs.trace_root("model.fit", self.cfg.seed);
        let universe = {
            let span = root.child_named("universe.build");
            let u = TieUniverse::build_traced(g, self.cfg.gamma, &mut rng, threads, Some(&span));
            span.finish();
            u
        };
        let estep::EStep { mut params, elapsed_seconds, iters_per_sec, .. } = {
            let _span = root.child_named("estep.train");
            estep::train(&universe, &self.cfg)
        };
        // Free each matrix as soon as the model no longer needs it: N before
        // the D-Step unless `context_features` reads it, so the gathered
        // features do not stack on top of it, and the universe before the
        // copy into the store.
        if !self.cfg.context_features {
            params.n = DenseMatrix::zeros(0, 0);
        }
        let head = {
            let span = root.child_named("dstep.train");
            let head = dstep::train_traced(&universe, &params, &self.cfg, Some(&span));
            span.finish();
            head
        };
        root.finish();
        obs.flush();
        let estep::EStepParams { m, n, iterations: estep_iterations, .. } = params;
        let contexts = self.cfg.context_features.then_some(n);
        let ties: Vec<(u32, u32)> = universe.ties().iter().map(|t| (t.src.0, t.dst.0)).collect();
        drop(universe);
        let store = TieStore::from_parts(
            m.cols(),
            m.rows(),
            m.as_slice(),
            contexts.as_ref().map(|c| c.as_slice()),
        )
        .expect("fit produced consistent embedding shapes");
        drop((m, contexts));
        let pair_index = PairIndex::new(ties.iter().copied());
        let fingerprint = fingerprint_of(&store, &ties, &head);
        DirectionalityModel {
            cfg: self.cfg.clone(),
            ties,
            pair_index,
            store,
            fingerprint,
            head,
            estep_iterations,
            estep_seconds: elapsed_seconds,
            estep_iters_per_sec: iters_per_sec,
        }
    }
}

/// Model schema version stamped into every `.ddm` header and meta section;
/// bump when the meaning of stored values changes. [`DirectionalityModel::load`]
/// refuses files with a different version instead of failing with a
/// field-level serde error deep inside the meta section.
pub const MODEL_SCHEMA_VERSION: u32 = 1;

/// A learned directionality function `d : E → [0, 1]` with the tie
/// embeddings that produced it.
///
/// The model is frozen after `fit`/`load`: every accessor, including
/// [`Self::score`], takes `&self` and touches no interior mutability, so an
/// `Arc<DirectionalityModel>` can be shared across any number of threads
/// (e.g. the `dd-serve` worker pool) and concurrent scores are bit-identical
/// to single-threaded ones.
#[derive(Debug, Clone)]
pub struct DirectionalityModel {
    pub(crate) cfg: DeepDirectConfig,
    /// Ordered universe ties as raw id pairs, row-aligned with the store.
    pub(crate) ties: Vec<(u32, u32)>,
    /// Row of each tie: its `(src, dst)` key found by binary search within
    /// its source's bucket (`PairIndex`), 12 bytes per tie. A repeated pair
    /// answers with its last row. [`ScoreTable::of`](crate::ScoreTable::of)
    /// clones it.
    pub(crate) pair_index: PairIndex,
    /// Structure-of-arrays embedding storage: the embedding block (and the
    /// optional connection block under the `context_features` extension) as
    /// contiguous cache-aligned rows the scoring kernels stream directly.
    pub(crate) store: TieStore,
    /// Content fingerprint over shapes, ties, blocks and head parameters —
    /// stable across `.ddm` save/load round-trips within one
    /// build/architecture. Namespaces the serve-side score cache.
    pub(crate) fingerprint: u64,
    pub(crate) head: DirectionalityHead,
    pub(crate) estep_iterations: u64,
    pub(crate) estep_seconds: f64,
    pub(crate) estep_iters_per_sec: f64,
}

/// XXH64 fingerprint over everything that affects scores, in a fixed field
/// order: shapes, ties (each pair as one little-endian u64, `src` low), the
/// embedding and context blocks, the head's JSON. Recomputed from the bytes
/// on every fit and every load, never read from a file. Per-process
/// identity (native-endian block bytes), not a portable digest — the binary
/// format's CRC-32 sections cover on-disk integrity.
///
/// Fed in pieces, in that order, so a loader can hash a block as it
/// streams past: streamed XXH64 does not depend on how its input is split.
pub(crate) struct Fingerprint(Xxh64);

impl Fingerprint {
    /// Starts a fingerprint with the shapes.
    pub(crate) fn new(dim: usize, rows: usize) -> Self {
        let mut h = Xxh64::new(0);
        h.update(&(dim as u64).to_le_bytes());
        h.update(&(rows as u64).to_le_bytes());
        Fingerprint(h)
    }

    /// Feeds the ties in row order, 4 KiB at a time: the bytes of one
    /// 8-byte update per tie, without a call per tie.
    pub(crate) fn ties(&mut self, ties: impl Iterator<Item = (u32, u32)>) {
        let mut block = [0u8; 4096];
        let mut filled = 0;
        for (u, v) in ties {
            block[filled..filled + 8]
                .copy_from_slice(&(u64::from(u) | u64::from(v) << 32).to_le_bytes());
            filled += 8;
            if filled == block.len() {
                self.0.update(&block);
                filled = 0;
            }
        }
        self.0.update(&block[..filled]);
    }

    /// Feeds native-endian block bytes: the embedding block, then the
    /// context block, in any number of pieces.
    pub(crate) fn update(&mut self, block: &[u8]) {
        self.0.update(block);
    }

    /// Feeds the head's JSON and returns the digest.
    pub(crate) fn finish(mut self, head: &DirectionalityHead) -> u64 {
        if let Ok(js) = serde_json::to_string(head) {
            self.0.update(js.as_bytes());
        }
        self.0.finish()
    }
}

/// The [`Fingerprint`] of a whole model.
fn fingerprint_of(store: &TieStore, ties: &[(u32, u32)], head: &DirectionalityHead) -> u64 {
    let mut fp = Fingerprint::new(store.dim(), store.rows());
    fp.ties(ties.iter().copied());
    fp.update(store.embedding_bytes());
    if let Some(c) = store.context_bytes() {
        fp.update(c);
    }
    fp.finish(head)
}

impl DirectionalityModel {
    /// The configuration the model was trained with.
    pub fn config(&self) -> &DeepDirectConfig {
        &self.cfg
    }

    /// Number of embedded ordered ties.
    pub fn n_ties(&self) -> usize {
        self.ties.len()
    }

    /// E-Step iterations that were run.
    pub fn estep_iterations(&self) -> u64 {
        self.estep_iterations
    }

    /// Wall-clock seconds the E-Step ran. Training-run diagnostics only:
    /// reported as `0.0` on a model loaded from disk.
    pub fn estep_seconds(&self) -> f64 {
        self.estep_seconds
    }

    /// Effective E-Step throughput (iterations per wall-clock second across
    /// all workers). `0.0` on a model loaded from disk.
    pub fn estep_iters_per_sec(&self) -> f64 {
        self.estep_iters_per_sec
    }

    /// One-line human-readable training summary, available even when no
    /// observer was attached.
    pub fn fit_summary(&self) -> String {
        format!(
            "fit: {} ties, dim {} | estep {} iters in {:.2}s ({:.0} it/s, {} thread{}) | head: logistic",
            self.n_ties(),
            self.cfg.dim,
            self.estep_iterations,
            self.estep_seconds,
            self.estep_iters_per_sec,
            self.cfg.threads,
            if self.cfg.threads == 1 { "" } else { "s" },
        )
    }

    /// Row index for the ordered tie `(u, v)`, if embedded.
    pub fn tie_row(&self, u: NodeId, v: NodeId) -> Option<usize> {
        self.pair_index.get(u.0, v.0).map(|row| row as usize)
    }

    /// Embedding vector `m_{uv}`, if the ordered tie was embedded.
    pub fn embedding(&self, u: NodeId, v: NodeId) -> Option<&[f32]> {
        self.tie_row(u, v).map(|i| self.store.embedding_row(i))
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.store.dim()
    }

    /// Embedding row `m_e` by universe row index (rows align with
    /// [`Self::ties`]).
    pub fn embedding_row(&self, row: usize) -> &[f32] {
        self.store.embedding_row(row)
    }

    /// Content fingerprint (XXH64) over shapes, ties, embedding blocks and
    /// head parameters, computed from the bytes on every fit and load. Two
    /// models with the same fingerprint score identically; `dd-serve` uses
    /// it to namespace its score cache and report identity in `/healthz`.
    /// Not portable across architectures or builds: the same `.ddm` may
    /// fingerprint differently under another build.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The embedded ordered ties, row-aligned with the embedding matrix.
    pub fn ties(&self) -> &[(u32, u32)] {
        &self.ties
    }

    /// The trained directionality head (used by fold-in inference).
    pub fn head(&self) -> &DirectionalityHead {
        &self.head
    }

    /// Directionality value `d(u, v)`; `None` when `(u, v)` was not part of
    /// the trained universe.
    pub fn score(&self, u: NodeId, v: NodeId) -> Option<f64> {
        self.tie_row(u, v).map(|i| self.score_row(i))
    }

    /// Directionality value by embedding row.
    ///
    /// The logistic hot path is allocation-free: the weight vector is split
    /// at `dim` and each half dotted against its cache-aligned block with
    /// [`dd_linalg::kernels::dot8_f64`]. Accumulation order is fixed
    /// (kernel lanes, then `emb + ctx + b` left to right), so scores are
    /// bit-identical regardless of load path or thread count.
    pub fn score_row(&self, row: usize) -> f64 {
        let DirectionalityHead::Logistic(lr) = &self.head;
        let (w_emb, w_ctx) = lr.w.split_at(self.store.dim().min(lr.w.len()));
        let mut z = dot8_f64(w_emb, self.store.embedding_row(row));
        if let Some(ctx) = self.store.context_row(row) {
            z += dot8_f64(w_ctx, ctx);
        }
        sigmoid64(z + f64::from(lr.b))
    }

    /// Serializes the model as a `.ddm` container (DESIGN.md §7.13):
    /// little-endian, checksummed sections, 64-byte-aligned blocks.
    pub fn save_binary<W: Write>(&self, w: W) -> Result<(), String> {
        binfmt::encode(w, &self.cfg, &self.head, self.estep_iterations, &self.ties, &self.store)
    }

    /// Saves the model to a `.ddm` file.
    pub fn save_binary_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), String> {
        // No `BufWriter`: the encoder hands over a few large `write_all`s
        // (header and table, meta, each block), and a dropped `BufWriter`
        // would swallow a failed flush.
        let f = std::fs::File::create(path).map_err(|e| e.to_string())?;
        self.save_binary(f)
    }

    /// Deserializes a model saved with [`Self::save_binary`]. Any other
    /// input, an old JSON model included, fails with a typed
    /// [`binfmt::BinaryFormatError`] naming the offending section or region.
    pub fn load<R: Read>(mut r: R) -> Result<Self, String> {
        let mut raw = Vec::new();
        r.read_to_end(&mut raw).map_err(|e| format!("reading model: {e}"))?;
        binfmt::decode_model(&mut Cursor::new(raw)).map_err(|e| e.to_string())
    }

    /// Loads a `.ddm` model from a file, through the reader
    /// [`ScoreTable::load_from_path`](crate::ScoreTable::load_from_path)
    /// uses: the header, table, meta and ties are read and checked, then
    /// each float block streams in pieces straight into the model's
    /// [`TieStore`], checksummed, scanned and fingerprinted as it lands.
    /// Errors name the offending path.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, String> {
        let path = path.as_ref();
        let mut f = std::fs::File::open(path)
            .map_err(|e| format!("opening model '{}': {e}", path.display()))?;
        binfmt::decode_model(&mut f).map_err(|e| format!("loading model '{}': {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fit_small(seed: u64) -> (MixedSocialNetwork, DirectionalityModel) {
        let gen_cfg = SocialNetConfig { n_nodes: 100, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(seed);
        let net = social_network(&gen_cfg, &mut grng).network;
        let hidden = hide_directions(&net, 0.5, &mut grng).network;
        let cfg = DeepDirectConfig {
            dim: 16,
            max_iterations: Some(30_000),
            ..DeepDirectConfig::default()
        };
        let model = DeepDirect::new(cfg).fit(&hidden);
        (hidden, model)
    }

    #[test]
    fn scores_cover_all_ordered_ties() {
        let (g, model) = fit_small(1);
        for (_, t) in g.iter_ties() {
            let d = model.score(t.src, t.dst).expect("every ordered tie is embedded");
            assert!((0.0..=1.0).contains(&d));
        }
        // Mirrors of directed ties are scored too.
        let (_, u, v) = g.directed_ties().next().unwrap();
        assert!(model.score(v, u).is_some());
        // Absent pairs are None.
        assert_eq!(model.score(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn embeddings_have_configured_dim() {
        let (g, model) = fit_small(2);
        let (_, u, v) = g.directed_ties().next().unwrap();
        assert_eq!(model.embedding(u, v).unwrap().len(), 16);
        assert_eq!(model.dim(), 16);
        assert_eq!(model.n_ties(), model.ties().len());
        assert!(model.estep_iterations() > 0);
    }

    #[test]
    fn save_load_roundtrip_preserves_scores() {
        let (g, model) = fit_small(3);
        let path = std::env::temp_dir().join(format!("dd_model_rt_{}.ddm", std::process::id()));
        model.save_binary_to_path(&path).unwrap();
        let loaded = DirectionalityModel::load_from_path(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.config().dim, model.config().dim);
        for (_, t) in g.iter_ties().take(50) {
            assert_eq!(model.score(t.src, t.dst), loaded.score(t.src, t.dst));
        }
    }

    #[test]
    fn binary_roundtrip_is_bit_identical_and_sniffed() {
        let (g, model) = fit_small(6);
        let mut bin = Vec::new();
        model.save_binary(&mut bin).unwrap();
        // The loader knows the file by its magic bytes, and only by them.
        assert!(bin.starts_with(&binfmt::MAGIC));
        let loaded = DirectionalityModel::load(bin.as_slice()).unwrap();
        assert_eq!(loaded.n_ties(), model.n_ties());
        assert_eq!(loaded.dim(), model.dim());
        assert_eq!(loaded.fingerprint(), model.fingerprint());
        for (_, t) in g.iter_ties() {
            let a = model.score(t.src, t.dst).unwrap();
            let b = loaded.score(t.src, t.dst).unwrap();
            assert_eq!(a.to_bits(), b.to_bits(), "binary-loaded score diverged");
        }
    }

    /// A small context model, and one whose embedding and context blocks
    /// each load in several pieces, the last of them partial.
    #[test]
    fn binary_roundtrip_preserves_context_blocks() {
        let mut ends_on_a_partial_piece = false;
        for (n_nodes, seed, dim, iterations, dstep_epochs) in
            [(60, 13, 12, 10_000, 30), (3_000, 5, 64, 1_000, 0)]
        {
            let gen_cfg = SocialNetConfig { n_nodes, ..Default::default() };
            let mut grng = StdRng::seed_from_u64(seed);
            let net = social_network(&gen_cfg, &mut grng).network;
            let cfg = DeepDirectConfig {
                dim,
                threads: 1,
                max_iterations: Some(iterations),
                dstep_epochs,
                context_features: true,
                ..DeepDirectConfig::default()
            };
            let model = DeepDirect::new(cfg).fit(&net);
            let block = model.n_ties() * dim * 4;
            let piece = binfmt::piece_len(dim, block);
            ends_on_a_partial_piece |= block > 2 * piece && !block.is_multiple_of(piece);
            let mut bin = Vec::new();
            model.save_binary(&mut bin).unwrap();
            let loaded = DirectionalityModel::load(bin.as_slice()).unwrap();
            let table = crate::ScoreTable::load(Cursor::new(&bin), false).unwrap();
            assert!(loaded.config().context_features);
            assert_eq!(loaded.store.embedding_bytes(), model.store.embedding_bytes());
            assert_eq!(loaded.store.context_bytes(), model.store.context_bytes());
            assert_eq!(loaded.fingerprint(), model.fingerprint(), "{n_nodes} nodes");
            assert_eq!(table.fingerprint(), model.fingerprint(), "{n_nodes} nodes");
            for row in 0..model.n_ties() {
                let score = model.score_row(row).to_bits();
                assert_eq!(loaded.score_row(row).to_bits(), score, "{n_nodes} nodes, row {row}");
                assert_eq!(table.row_score(row).to_bits(), score, "{n_nodes} nodes, row {row}");
            }
        }
        assert!(ends_on_a_partial_piece, "no block spans several pieces");
    }

    #[test]
    fn fingerprint_moves_with_every_field_and_survives_the_file() {
        let gen_cfg = SocialNetConfig { n_nodes: 60, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(17);
        let net = social_network(&gen_cfg, &mut grng).network;
        let cfg = DeepDirectConfig {
            dim: 12,
            max_iterations: Some(5_000),
            context_features: true,
            ..DeepDirectConfig::default()
        };
        let model = DeepDirect::new(cfg).fit(&net);
        let (dim, rows) = (model.dim(), model.n_ties());
        let emb = model.store.embeddings().to_vec();
        let ctx = model.store.contexts().expect("context model").to_vec();
        let fp = |emb: &[f32], ctx: &[f32], ties: &[(u32, u32)], head: &DirectionalityHead| {
            let store = TieStore::from_parts(dim, rows, emb, Some(ctx)).unwrap();
            fingerprint_of(&store, ties, head)
        };
        let base = fp(&emb, &ctx, &model.ties, &model.head);
        assert_eq!(base, model.fingerprint());

        // One mantissa bit at seeded positions of either block (mantissa
        // bits keep the value finite).
        let mut rng = Pcg32::seed_from_u64(3);
        for _ in 0..16 {
            let at = rng.next_u32() as usize % emb.len();
            let bit = 1 << (rng.next_u32() % 23);
            let mut e = emb.clone();
            e[at] = f32::from_bits(e[at].to_bits() ^ bit);
            assert_ne!(fp(&e, &ctx, &model.ties, &model.head), base, "embedding {at} bit {bit:#x}");
            let mut c = ctx.clone();
            c[at] = f32::from_bits(c[at].to_bits() ^ bit);
            assert_ne!(fp(&emb, &c, &model.ties, &model.head), base, "context {at} bit {bit:#x}");
        }
        let mut ties = model.ties.clone();
        ties[rows / 2].1 += 1;
        assert_ne!(fp(&emb, &ctx, &ties, &model.head), base, "one tie");
        let mut head = model.head.clone();
        let DirectionalityHead::Logistic(lr) = &mut head;
        lr.b = f32::from_bits(lr.b.to_bits() ^ 1);
        assert_ne!(fp(&emb, &ctx, &model.ties, &head), base, "head bias");

        // The same content reached through the file fingerprints the same.
        let path = std::env::temp_dir().join(format!("dd_model_fp_{}.ddm", std::process::id()));
        model.save_binary_to_path(&path).unwrap();
        let loaded = DirectionalityModel::load_from_path(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(loaded.fingerprint(), base);
    }

    #[test]
    fn binary_load_rejects_each_corruption_class_with_named_sections() {
        use crate::binfmt::{BinaryFormatError as E, ENTRY_LEN, HEADER_LEN};
        let (_, model) = fit_small(7);
        let mut valid = Vec::new();
        model.save_binary(&mut valid).unwrap();

        let decode = |bytes: &[u8]| {
            DirectionalityModel::load(bytes).map_err(|e| {
                assert!(e.contains("invalid binary model"), "{e}");
                e
            })
        };
        // Truncated header.
        let err = decode(&valid[..10]).unwrap_err();
        assert!(err.contains("truncated header"), "{err}");
        // Wrong magic.
        let mut bad = valid.clone();
        bad[0] = b'X';
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("bad magic"), "{err}");
        // Future container version.
        let mut bad = valid.clone();
        bad[8..12].copy_from_slice(&9u32.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("container format version 9"), "{err}");
        // Schema mismatch.
        let mut bad = valid.clone();
        bad[12..16].copy_from_slice(&77u32.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("model schema version 77"), "{err}");
        // Corrupted section table (checksum named).
        let mut bad = valid.clone();
        bad[HEADER_LEN + 8] ^= 0x01;
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("section table checksum"), "{err}");
        // Misaligned block: patch the embeddings offset *and* re-checksum the
        // table so only the alignment check can fire.
        let mut bad = valid.clone();
        let n_sections = u32::from_le_bytes(bad[16..20].try_into().unwrap()) as usize;
        let table = HEADER_LEN..HEADER_LEN + n_sections * ENTRY_LEN;
        let emb_entry = (0..n_sections)
            .map(|i| HEADER_LEN + i * ENTRY_LEN)
            .find(|&e| u32::from_le_bytes(bad[e..e + 4].try_into().unwrap()) == 4)
            .unwrap();
        let off = u64::from_le_bytes(bad[emb_entry + 8..emb_entry + 16].try_into().unwrap());
        let len = u64::from_le_bytes(bad[emb_entry + 16..emb_entry + 24].try_into().unwrap());
        bad[emb_entry + 8..emb_entry + 16].copy_from_slice(&(off + 4).to_le_bytes());
        bad[emb_entry + 16..emb_entry + 24].copy_from_slice(&(len - 4).to_le_bytes());
        let crc = dd_linalg::bytes::crc32(&bad[table.clone()]);
        bad[20..24].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("'embeddings'") && err.contains("aligned"), "{err}");
        // NaN payload with a fixed-up section checksum: only the finiteness
        // scan can reject it, naming the section and element.
        let mut bad = valid.clone();
        let off =
            u64::from_le_bytes(bad[emb_entry + 8..emb_entry + 16].try_into().unwrap()) as usize;
        let len =
            u64::from_le_bytes(bad[emb_entry + 16..emb_entry + 24].try_into().unwrap()) as usize;
        bad[off..off + 4].copy_from_slice(&f32::NAN.to_le_bytes());
        let crc = dd_linalg::bytes::crc32(&bad[off..off + len]);
        bad[emb_entry + 4..emb_entry + 8].copy_from_slice(&crc.to_le_bytes());
        let crc = dd_linalg::bytes::crc32(&bad[table.clone()]);
        bad[20..24].copy_from_slice(&crc.to_le_bytes());
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("'embeddings'") && err.contains("non-finite"), "{err}");
        // Flipped payload byte without checksum fix-up.
        let mut bad = valid.clone();
        bad[off + 1] ^= 0xFF;
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("'embeddings'") && err.contains("checksum"), "{err}");
        // Trailing garbage.
        let mut bad = valid.clone();
        bad.extend_from_slice(b"junk");
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("trailing bytes"), "{err}");
        // The typed error enum is reachable directly for programmatic use.
        assert_eq!(E::MissingSection("meta").to_string(), "missing required section 'meta'");
        // And the pristine file still loads.
        assert!(decode(&valid).is_ok());
    }

    #[test]
    fn finiteness_scan_names_the_exact_section_and_element() {
        use crate::binfmt::{
            self, section, BinaryFormatError as E, StreamError, ENTRY_LEN, HEADER_LEN,
        };
        use dd_linalg::bytes::crc32;
        let gen_cfg = SocialNetConfig { n_nodes: 60, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(20);
        let net = social_network(&gen_cfg, &mut grng).network;
        let cfg = DeepDirectConfig {
            dim: 12,
            max_iterations: Some(5_000),
            context_features: true,
            ..DeepDirectConfig::default()
        };
        let model = DeepDirect::new(cfg).fit(&net);
        let mut valid = Vec::new();
        model.save_binary(&mut valid).unwrap();
        let read_u64 = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let n_sections = u32::from_le_bytes(valid[16..20].try_into().unwrap()) as usize;
        let table = HEADER_LEN..HEADER_LEN + n_sections * ENTRY_LEN;
        // Writes `value` at float `index` of section `kind` and fixes up the
        // section and table checksums, so only the finiteness scan can fire.
        let poison = |kind: u32, index: usize, value: f32| {
            let mut bad = valid.clone();
            let entry = table
                .clone()
                .step_by(ENTRY_LEN)
                .find(|&e| u32::from_le_bytes(bad[e..e + 4].try_into().unwrap()) == kind)
                .unwrap();
            let off = read_u64(&bad, entry + 8) as usize;
            let len = read_u64(&bad, entry + 16) as usize;
            bad[off + 4 * index..off + 4 * index + 4].copy_from_slice(&value.to_le_bytes());
            let crc = crc32(&bad[off..off + len]);
            bad[entry + 4..entry + 8].copy_from_slice(&crc.to_le_bytes());
            let crc = crc32(&bad[table.clone()]);
            bad[20..24].copy_from_slice(&crc.to_le_bytes());
            match binfmt::decode_model(&mut Cursor::new(bad)) {
                Ok(_) => None,
                Err(StreamError::Format(e)) => Some(e),
                Err(e) => panic!("{e}"),
            }
        };
        let last = model.n_ties() * model.dim() - 1;
        assert_ne!((last + 1) % 64, 0, "the last chunk should be a partial one");
        for value in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            for index in [0, 63, 64, 65, last] {
                let want = E::NonFinite { name: "embeddings", index };
                assert_eq!(poison(section::EMB, index, value), Some(want), "{value} at {index}");
            }
            let want = E::NonFinite { name: "contexts", index: 65 };
            assert_eq!(poison(section::CTX, 65, value), Some(want), "{value} in contexts");
        }
        // The extreme finite values pass.
        for value in [f32::MAX, f32::MIN, f32::MIN_POSITIVE, -0.0] {
            assert_eq!(poison(section::EMB, 64, value), None, "{value}");
        }
    }

    #[test]
    fn load_rejects_corrupt_and_mismatched_schema_files() {
        // JSON documents, the model format of earlier builds among them, are
        // not `.ddm` containers: each fails on the magic, whatever its shape.
        for doc in ["{not json", r#"{"cfg":{}}"#, r#"{"schema":"v1"}"#, r#"{"schema":1,"ties":[]}"#]
        {
            let err = DirectionalityModel::load(doc.as_bytes()).unwrap_err();
            assert!(err.contains("bad magic"), "{doc}: {err}");
        }
        // A container from a future schema is refused by version.
        let (_, model) = fit_small(8);
        let mut bad = Vec::new();
        model.save_binary(&mut bad).unwrap();
        bad[12..16].copy_from_slice(&99u32.to_le_bytes());
        let err = DirectionalityModel::load(bad.as_slice()).unwrap_err();
        assert!(err.contains("unsupported model schema version 99"), "{err}");
    }

    #[test]
    fn load_from_path_errors_name_the_path() {
        let err = DirectionalityModel::load_from_path("/nonexistent/model.ddm").unwrap_err();
        assert!(err.contains("/nonexistent/model.ddm"), "{err}");
        let dir = std::env::temp_dir().join("dd_model_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("old_model.json");
        std::fs::write(&path, r#"{"schema":1,"ties":[]}"#).unwrap();
        let err = DirectionalityModel::load_from_path(&path).unwrap_err();
        assert!(err.contains("old_model.json"), "{err}");
        assert!(err.contains("bad magic"), "{err}");
    }

    #[test]
    fn saved_models_carry_the_current_schema_version() {
        let (_, model) = fit_small(5);
        let mut buf = Vec::new();
        model.save_binary(&mut buf).unwrap();
        assert_eq!(buf[12..16], MODEL_SCHEMA_VERSION.to_le_bytes(), "header schema");
        // The meta section (kind 1) repeats it.
        let meta = binfmt::HEADER_LEN..binfmt::HEADER_LEN + binfmt::ENTRY_LEN;
        let entry = &buf[meta];
        assert_eq!(u32::from_le_bytes(entry[..4].try_into().unwrap()), binfmt::section::META);
        let off = u64::from_le_bytes(entry[8..16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(entry[16..24].try_into().unwrap()) as usize;
        let value: serde_json::Value =
            serde_json::from_str(std::str::from_utf8(&buf[off..off + len]).unwrap())
                .expect("meta is valid JSON");
        assert_eq!(
            value.get("schema").and_then(|v| v.as_u64()),
            Some(u64::from(MODEL_SCHEMA_VERSION))
        );
    }

    /// `save_binary_to_path` reports a write that fails. The container is
    /// under 8 KiB, so a `BufWriter` would hold all of it and lose the
    /// error of the flush in its `Drop`.
    #[cfg(target_os = "linux")]
    #[test]
    fn save_binary_to_path_reports_a_full_disk() {
        let gen_cfg = SocialNetConfig { n_nodes: 12, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(21);
        let net = social_network(&gen_cfg, &mut grng).network;
        let cfg =
            DeepDirectConfig { dim: 2, max_iterations: Some(200), ..DeepDirectConfig::default() };
        let model = DeepDirect::new(cfg).fit(&net);
        let mut bytes = Vec::new();
        model.save_binary(&mut bytes).unwrap();
        assert!(bytes.len() < 8 * 1024, "container is {} bytes", bytes.len());
        let err = model.save_binary_to_path("/dev/full").unwrap_err();
        assert!(!err.is_empty());
    }

    #[test]
    fn fit_emits_phase_spans_and_summary() {
        #[derive(Default)]
        struct Capture(std::sync::Mutex<Vec<dd_telemetry::Event>>);
        impl dd_telemetry::TrainObserver for Capture {
            fn on_event(&self, e: &dd_telemetry::Event) {
                self.0.lock().unwrap().push(e.clone());
            }
        }
        let gen_cfg = SocialNetConfig { n_nodes: 80, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(11);
        let net = social_network(&gen_cfg, &mut grng).network;
        let cap = std::sync::Arc::new(Capture::default());
        let cfg = DeepDirectConfig {
            dim: 8,
            max_iterations: Some(5_000),
            observer: dd_telemetry::ObserverHandle::new(cap.clone()),
            ..DeepDirectConfig::default()
        };
        let model = DeepDirect::new(cfg).fit(&net);
        let events = cap.0.lock().unwrap();
        let spans: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == dd_telemetry::kind::SPAN)
            .filter_map(|e| e.name.as_deref())
            .collect();
        for expected in ["universe.build", "estep.train", "dstep.train"] {
            assert!(spans.contains(&expected), "missing span {expected}: {spans:?}");
        }
        assert!(events.iter().any(|e| e.kind == dd_telemetry::kind::ESTEP_PROGRESS));
        assert!(events.iter().any(|e| e.kind == dd_telemetry::kind::DSTEP_EPOCH));
        // The whole fit shares one trace: the root span's ID is derived from
        // the config seed, and every phase span parents to it.
        let root = events
            .iter()
            .find(|e| e.name.as_deref() == Some("model.fit"))
            .expect("fit emits a root span");
        let expect_trace =
            dd_telemetry::trace::hex16(dd_telemetry::trace::derive_trace_id(0xdeed, "model.fit"));
        assert_eq!(root.trace_id.as_deref(), Some(expect_trace.as_str()), "default seed 0xdeed");
        for phase in ["universe.build", "estep.train", "dstep.train"] {
            let e = events.iter().find(|e| e.name.as_deref() == Some(phase)).unwrap();
            assert_eq!(e.trace_id, root.trace_id, "{phase} shares the fit trace");
            assert_eq!(e.parent_span_id, root.span_id, "{phase} parents to model.fit");
        }
        // The universe build's and the D-Step's pool calls appear as
        // grandchildren, under their phases.
        for (pool, phase) in
            [("pool.universe.build", "universe.build"), ("pool.dstep", "dstep.train")]
        {
            let pool_call = events
                .iter()
                .find(|e| e.name.as_deref() == Some(pool))
                .unwrap_or_else(|| panic!("{pool} is traced"));
            let stage = events.iter().find(|e| e.name.as_deref() == Some(phase)).unwrap();
            assert_eq!(pool_call.trace_id, root.trace_id, "{pool} shares the fit trace");
            assert_eq!(pool_call.parent_span_id, stage.span_id, "{pool} parents to {phase}");
        }
        let summary = model.fit_summary();
        assert!(summary.contains("estep 5000 iters"), "{summary}");
        assert!(model.estep_seconds() > 0.0);
        assert!(model.estep_iters_per_sec() > 0.0);
    }

    #[test]
    fn tracing_and_profiling_do_not_perturb_training() {
        // The acceptance bar for DESIGN.md §7.12: a fully-traced, profiled
        // fit must be bit-identical to a silent one. Tracing only *observes*
        // (span IDs from logical inputs, allocation counting that never
        // changes allocation behaviour), so every embedding bit must match.
        let gen_cfg = SocialNetConfig { n_nodes: 90, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(7);
        let net = social_network(&gen_cfg, &mut grng).network;
        // Serial threads: the Hogwild E-Step is the one documented
        // determinism exemption (§7.9), so run-to-run comparison needs one
        // worker. Tracing still exercises the universe pool's span path.
        let base = DeepDirectConfig {
            dim: 8,
            max_iterations: Some(4_000),
            threads: 1,
            ..DeepDirectConfig::default()
        };

        let silent = DeepDirect::new(base.clone()).fit(&net);

        dd_telemetry::alloc::enable_profiling();
        let sink = dd_telemetry::JsonlSink::from_writer(Box::new(std::io::sink()));
        let traced_cfg = DeepDirectConfig {
            observer: dd_telemetry::ObserverHandle::new(std::sync::Arc::new(sink)),
            ..base
        };
        let traced = DeepDirect::new(traced_cfg).fit(&net);

        assert_eq!(silent.n_ties(), traced.n_ties());
        assert_eq!(silent.dim(), traced.dim());
        for r in 0..silent.n_ties() {
            for (x, y) in silent.embedding_row(r).iter().zip(traced.embedding_row(r)) {
                assert_eq!(x.to_bits(), y.to_bits(), "embedding row {r} diverged under tracing");
            }
        }
        assert_eq!(silent.fingerprint(), traced.fingerprint(), "fingerprints diverged");
        for (i, _) in silent.ties().iter().enumerate() {
            assert_eq!(
                silent.score_row(i).to_bits(),
                traced.score_row(i).to_bits(),
                "score for tie row {i} diverged under tracing"
            );
        }
    }

    #[test]
    fn directed_ties_score_above_mirrors_on_average() {
        let (g, model) = fit_small(4);
        let mut wins = 0usize;
        let mut total = 0usize;
        for (_, u, v) in g.directed_ties() {
            let fwd = model.score(u, v).unwrap();
            let rev = model.score(v, u).unwrap();
            if fwd > rev {
                wins += 1;
            }
            total += 1;
        }
        let frac = wins as f64 / total as f64;
        assert!(frac > 0.8, "training ties correctly oriented: {frac}");
    }
}
