//! The E-Step: learning the embedding matrix `M` (Sec. 4.2–4.5.1).
//!
//! Implements the sampled SGD of Algorithm 1, lines 11–18. Each iteration
//! draws a connected tie pair `(e, e')` — `e ~ P_c ∝ deg_tie`, `e'` uniform
//! from `c(e)` — plus `λ` negatives from `P_n ∝ deg_tie^{3/4}`, and applies
//! the closed-form gradients of Eqs. 21–25 for the combined per-pair loss
//! `L'` (Eq. 20):
//!
//! * topology: skip-gram with negative sampling over `M` and the connection
//!   matrix `N` (Eq. 10),
//! * labels: the joint logistic regression `(w', b')` on directed ties and
//!   mirrors, weighted by `α` (Eq. 13),
//! * patterns: the same regression against the pseudo-labels `y^d` (Eq. 14,
//!   thresholded by `T`) and `y^t` (Eq. 15, recomputed on the fly from the
//!   current predictions on the sampled common-neighbor ties), weighted by
//!   `β` (Eq. 16).
//!
//! With `threads > 1` the loop runs Hogwild-style: workers share `M`, `N`,
//! `w'`, `b'` without locks. Updates may race; on sparse graphs collisions
//! are rare and SGD tolerates the noise (Niu et al., 2011). All shared
//! access goes through raw-pointer reads/writes so no aliased `&mut`
//! references are ever formed.
//!
//! ## Staged draws
//!
//! Each iteration gathers ~8 random rows (`M[e]`, `N[e']`, `λ` negatives'
//! `N` rows, plus two `M` rows per triad sample on undirected ties), so the
//! loop is bound by memory latency, not arithmetic. An iteration is
//! therefore split into stages. `Draw::draw` (stage 1) does all of its RNG
//! consumption in the original order (`e`, `e'`'s slot, then the
//! negatives), reading only the alias entries and `e`'s draw record, and
//! prefetches what the draw names. `Draw::resolve` (stage 2) reads `e'` and
//! `e`'s tie and prefetches `N[e']` and the triad list. `apply` is the
//! update arithmetic. One worker loop, `run_worker`, keeps a ring of
//! `DRAW_AHEAD` draws: at step `it` it prefetches the triad rows of draw
//! `it + TRIAD_AHEAD`, resolves draw `it + RESOLVE_AHEAD`, draws iteration
//! `it + DRAW_AHEAD` and applies draw `it`. Before each stage-1 draw a
//! speculative look-ahead jumps copies of the RNG whole iterations ahead to
//! prefetch the alias entries and the record later draws will read first.
//! Only `draw` moves the worker's RNG, `apply` consumes no randomness, and
//! a prefetch moves cache lines, not values, so a sequential fit is
//! bit-identical to one that draws and applies in turn (DESIGN.md §7.9,
//! "Latency-hidden SGD").
//!
//! ## Progress telemetry
//!
//! When [`DeepDirectConfig::observer`] is attached, the loop periodically
//! reports [`EStepProgress`] samples: the sampled objective (via the same
//! Monte-Carlo estimator as [`estimate_loss`]), its α/β components,
//! throughput, and per-worker iteration counts. Estimation is strictly
//! read-only and uses its own RNG stream, so it never perturbs the SGD
//! trajectory; in Hogwild mode the monitor thread's reads race with worker
//! writes — the same accepted approximation as the updates themselves.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dd_linalg::activations::sigmoid;
use dd_linalg::alias::AliasTable;
use dd_linalg::kernels::prefetch;
use dd_linalg::matrix::DenseMatrix;
use dd_linalg::rng::{Jump, Pcg32};
use dd_runtime::{split_streams, Latch};
use dd_telemetry::EStepProgress;

use crate::config::DeepDirectConfig;
use crate::universe::{TieUniverse, UniverseKind};

/// Salt for the progress-loss RNG stream, kept away from `cfg.seed` itself
/// so loss sampling never replays the training stream.
const PROGRESS_RNG_SALT: u64 = 0x7e1e_3e7a_11ce_0001;

/// Learned E-Step parameters.
#[derive(Debug, Clone)]
pub struct EStepParams {
    /// Embedding matrix `M` (one row per universe tie).
    pub m: DenseMatrix,
    /// Connection matrix `N` (one row per universe tie).
    pub n: DenseMatrix,
    /// Joint classifier weights `w'`.
    pub w: Vec<f32>,
    /// Joint classifier bias `b'`.
    pub b: f32,
    /// Number of SGD iterations actually run.
    pub iterations: u64,
}

/// Raw shared view of the trainable parameters for (possibly) lock-free
/// concurrent SGD.
#[derive(Clone, Copy)]
struct RawParams {
    m: *mut f32,
    n: *mut f32,
    w: *mut f32,
    b: *mut f32,
    dim: usize,
}

// SAFETY: used only under the Hogwild protocol — concurrent unsynchronized
// updates are an accepted approximation; see module docs.
unsafe impl Send for RawParams {}
unsafe impl Sync for RawParams {}

#[inline]
unsafe fn dot_raw(a: *const f32, b: *const f32, dim: usize) -> f32 {
    let mut acc = 0.0f32;
    for i in 0..dim {
        acc += *a.add(i) * *b.add(i);
    }
    acc
}

#[inline]
unsafe fn axpy_raw(alpha: f32, x: *const f32, y: *mut f32, dim: usize) {
    for i in 0..dim {
        *y.add(i) += alpha * *x.add(i);
    }
}

impl RawParams {
    /// Address of row `e` of `M`. Computing it is safe; dereferencing it is
    /// the caller's (Hogwild) business.
    #[inline]
    fn m_row(&self, e: usize) -> *mut f32 {
        self.m.wrapping_add(e * self.dim)
    }

    /// Address of row `e` of `N`; see [`RawParams::m_row`].
    #[inline]
    fn n_row(&self, e: usize) -> *mut f32 {
        self.n.wrapping_add(e * self.dim)
    }

    /// Current joint-classifier probability for universe tie `e`:
    /// `σ(w' · m_e + b')` (Eq. 11).
    #[inline]
    unsafe fn predict(&self, e: usize) -> f32 {
        sigmoid(dot_raw(self.m_row(e), self.w, self.dim) + *self.b)
    }
}

/// How many iterations ahead of the update a worker takes its random
/// numbers (stage 1, [`Draw::draw`]). Deep enough that the rows, out-tie
/// slot and tie it names land before stage 2 and the update read them. It
/// is a constant because the RNG stream does not depend on it, so no value
/// would change with it.
const DRAW_AHEAD: usize = 8;

/// How many iterations ahead of the update stage 2 ([`Draw::resolve`])
/// reads `e' = out_ties[slot]` and `e`'s tie, both prefetched by stage 1.
const RESOLVE_AHEAD: usize = 4;

/// How many iterations ahead of the update a worker prefetches the
/// triad-sample rows `M[uw]`, `M[vw]`. Half of [`RESOLVE_AHEAD`]: their
/// indices come from the triad list stage 2 prefetched, which has to land
/// first.
const TRIAD_AHEAD: usize = 2;

/// How many iterations past the one it draws a worker guesses the `P_c`
/// and `P_n` columns of, to prefetch their alias entries.
const FAR_AHEAD: u64 = 10;

/// How many iterations past the one it draws a worker guesses the tie
/// `e ~ P_c` of, from the alias entry [`FAR_AHEAD`] fetched, to prefetch
/// that tie's draw record.
const NEAR_AHEAD: u64 = 4;

/// What a worker's draws read: the universe, both sampling tables, the
/// configuration, and the RNG jumps of the speculative look-ahead.
///
/// An iteration whose `e'` is accepted at once uses `5 + 3λ` RNG words: 3
/// for `e ~ P_c` (`gen_range`, then `next_f32`), 2 for `e'`, 3 per
/// negative. A copy of the worker's RNG jumped by whole iterations of that
/// length therefore predicts the later iterations' draws unless a rejection
/// happens in between. A wrong guess costs a wasted prefetch, never a value:
/// the copies are thrown away and the worker's own RNG never moves.
struct Sampler<'u> {
    universe: &'u TieUniverse,
    pc: &'u AliasTable,
    pn: &'u AliasTable,
    cfg: &'u DeepDirectConfig,
    /// The jump to the `P_c` draw of iteration `+FAR_AHEAD`.
    far_pc: Jump,
    /// The jumps to that iteration's `P_n` draws, one per negative.
    far_pn: Vec<Jump>,
    /// The jump to the `P_c` draw of iteration `+NEAR_AHEAD`.
    near_pc: Jump,
}

impl<'u> Sampler<'u> {
    fn new(
        universe: &'u TieUniverse,
        pc: &'u AliasTable,
        pn: &'u AliasTable,
        cfg: &'u DeepDirectConfig,
        rng: &Pcg32,
    ) -> Self {
        let words = 5 + 3 * cfg.negatives as u64;
        let far = FAR_AHEAD * words;
        Sampler {
            universe,
            pc,
            pn,
            cfg,
            far_pc: rng.jump(far),
            far_pn: (0..cfg.negatives as u64).map(|k| rng.jump(far + 5 + 3 * k)).collect(),
            near_pc: rng.jump(NEAR_AHEAD * words),
        }
    }

    /// Prefetches what the draws [`FAR_AHEAD`] and [`NEAR_AHEAD`]
    /// iterations after the one `rng` is about to draw will read first,
    /// guessing that no rejection happens in between: the far iteration's
    /// `P_c` and `P_n` alias entries, and the near iteration's tie record
    /// (its `P_c` entry was fetched as a far guess). Reads only the alias
    /// tables; `rng` does not move.
    fn look_ahead(&self, rng: &Pcg32) {
        self.pc.prefetch_column(self.pc.column(&mut rng.jumped(&self.far_pc)));
        for j in &self.far_pn {
            self.pn.prefetch_column(self.pn.column(&mut rng.jumped(j)));
        }
        let mut near = rng.jumped(&self.near_pc);
        let i = self.pc.column(&mut near);
        self.universe.prefetch_record(self.pc.resolve(i, near.next_f32()));
    }
}

/// The samples of one SGD iteration (Algorithm 1, line 13): `e ~ P_c`, its
/// connected tie `e'` and the `λ` negatives from `P_n`.
struct Draw<'u> {
    e: usize,
    /// Where `e'` sits in the out-tie CSR; `None` when `deg_tie(e) = 0`
    /// (zero `P_c` mass; defensive only): the iteration is then a no-op and
    /// draws no negatives.
    slot: Option<usize>,
    /// `e'`, read from `slot` by [`Draw::resolve`].
    ep: Option<usize>,
    /// Every drawn negative, including any equal to `e'` (skipped when
    /// applied, as drawing the positive as noise would cancel it).
    negatives: Vec<usize>,
    /// `e`'s triad samples when the pattern term will read them (unlabeled
    /// undirected tie, `β > 0`), else empty. Set by [`Draw::resolve`].
    triads: &'u [(u32, u32)],
}

impl<'u> Draw<'u> {
    fn with_capacity(negatives: usize) -> Self {
        Draw { e: 0, slot: None, ep: None, negatives: Vec::with_capacity(negatives), triads: &[] }
    }

    /// Stage 1: draws the next iteration's samples into `self`, consuming
    /// `rng` exactly as the iteration always has: `e`, then `e'`'s slot,
    /// then (only when `e'` exists) the `λ` negatives. Of memory it reads
    /// only the alias entries and `e`'s record, which the look-ahead
    /// fetched; it prefetches `out_ties[slot]`, the tie `e`, `M[e]` and the
    /// negatives' `N` rows. Reads no parameter value.
    fn draw(&mut self, raw: &RawParams, s: &Sampler<'u>, rng: &mut Pcg32) {
        s.look_ahead(rng);
        let dim = raw.dim;
        self.e = s.pc.sample(rng);
        self.slot = s.universe.sample_slot(self.e, rng);
        self.ep = None;
        self.negatives.clear();
        self.triads = &[];
        let Some(slot) = self.slot else { return };
        s.universe.prefetch_slot(slot);
        s.universe.prefetch_tie(self.e);
        prefetch(raw.m_row(self.e), dim);
        for _ in 0..s.cfg.negatives {
            let ei = s.pn.sample(rng);
            prefetch(raw.n_row(ei), dim);
            self.negatives.push(ei);
        }
    }

    /// Stage 2: reads `e'` off its slot and prefetches `N[e']`; reads `e`'s
    /// tie and, when the pattern term applies, takes and prefetches its
    /// triad list. Consumes no randomness.
    fn resolve(&mut self, raw: &RawParams, s: &Sampler<'u>) {
        let Some(slot) = self.slot else { return };
        let ep = s.universe.out_tie_at(slot);
        prefetch(raw.n_row(ep), raw.dim);
        self.ep = Some(ep);
        let tie = s.universe.tie(self.e);
        if tie.label.is_none() && tie.kind == UniverseKind::Undirected && s.cfg.beta > 0.0 {
            self.triads = s.universe.triad_samples(self.e);
            prefetch(self.triads.as_ptr().cast(), 2 * self.triads.len());
        }
    }

    /// Prefetches the rows `M[uw]`, `M[vw]` the pattern term will read.
    fn prefetch_triad_rows(&self, raw: &RawParams) {
        for &(uw, vw) in self.triads {
            prefetch(raw.m_row(uw as usize), raw.dim);
            prefetch(raw.m_row(vw as usize), raw.dim);
        }
    }
}

/// Applies one drawn SGD iteration of Algorithm 1 (lines 14–17).
///
/// # Safety
/// `raw` must point to buffers of `universe.len() × dim` (matrices) and
/// `dim` (weights) floats that stay alive for the call. Concurrent callers
/// race benignly per the Hogwild protocol.
unsafe fn apply(
    raw: &RawParams,
    universe: &TieUniverse,
    cfg: &DeepDirectConfig,
    lr: f32,
    draw: &Draw<'_>,
    grad: &mut [f32],
) {
    let dim = raw.dim;
    debug_assert_eq!(grad.len(), dim);

    let e = draw.e;
    let Some(ep) = draw.ep else {
        return; // deg_tie(e) = 0 has zero P_c mass; defensive only
    };
    let me = raw.m_row(e);
    for g in grad.iter_mut() {
        *g = 0.0;
    }
    let gptr = grad.as_mut_ptr();

    // --- Topology: positive pair (Eqs. 23–24) ---
    let nep = raw.n_row(ep);
    let g_pos = sigmoid(dot_raw(me, nep, dim)) - 1.0;
    axpy_raw(g_pos, nep, gptr, dim);
    axpy_raw(-lr * g_pos, me, nep, dim);

    // --- Topology: λ negatives (Eqs. 23, 25) ---
    for &ei in &draw.negatives {
        if ei == ep {
            continue; // drawing the positive as noise would cancel it
        }
        let nei = raw.n_row(ei);
        let g_neg = sigmoid(dot_raw(me, nei, dim));
        axpy_raw(g_neg, nei, gptr, dim);
        axpy_raw(-lr * g_neg, me, nei, dim);
    }

    // --- Label / pattern terms (Eqs. 21–22 feeding Eq. 23) ---
    let tie = universe.tie(e);
    let mut g_coef = 0.0f32; // ∂L'/∂b'
    if let Some(y) = tie.label {
        if cfg.alpha > 0.0 {
            g_coef += cfg.alpha * (raw.predict(e) - y);
        }
    } else if tie.kind == UniverseKind::Undirected && cfg.beta > 0.0 {
        let p = raw.predict(e);
        // Triad Status pseudo-label y^t (Eq. 15), from current predictions.
        let samples = draw.triads;
        if !samples.is_empty() {
            let mut yt = 0.0f32;
            for &(uw, vw) in samples {
                let puw = raw.predict(uw as usize);
                let pvw = raw.predict(vw as usize);
                yt += puw / (puw + pvw).max(1e-12);
            }
            yt /= samples.len() as f32;
            g_coef += cfg.beta * (p - yt);
        }
        // Degree Consistency pseudo-label y^d (Eq. 14), gated by T (Eq. 16).
        if let Some(yd) = tie.pseudo_degree {
            if yd as f64 > cfg.degree_threshold {
                g_coef += cfg.beta * (p - yd);
            }
        }
    }
    if !dd_linalg::is_zero32(g_coef) {
        // ∂L'/∂m_e gains g_coef · w' (Eq. 23) — read w' before updating it.
        axpy_raw(g_coef, raw.w, gptr, dim);
        // w' ← w' − lr · g_coef · m_e (Eq. 22); b' ← b' − lr · g_coef (Eq. 21).
        axpy_raw(-lr * g_coef, me, raw.w, dim);
        *raw.b -= lr * g_coef;
    }

    // Apply the accumulated gradient to m_e (Eq. 23).
    axpy_raw(-lr, gptr, me, dim);
}

/// One worker's SGD loop: `budget` iterations of Algorithm 1 at a rate
/// decayed linearly over the budget, in stages (module docs): it draws
/// [`DRAW_AHEAD`] iterations ahead of the update, resolves `e'`
/// [`RESOLVE_AHEAD`] ahead and prefetches triad rows [`TRIAD_AHEAD`] ahead.
/// After each iteration it calls `after(done)` with the number of
/// iterations applied so far. Both the sequential and the Hogwild path run
/// this loop.
///
/// # Safety
/// As for [`apply`]: `raw` names live buffers, and concurrent callers race
/// benignly per the Hogwild protocol. `after` may read the buffers (it runs
/// between iterations).
#[allow(clippy::too_many_arguments)]
unsafe fn run_worker(
    raw: &RawParams,
    universe: &TieUniverse,
    pc: &AliasTable,
    pn: &AliasTable,
    cfg: &DeepDirectConfig,
    budget: u64,
    rng: &mut Pcg32,
    mut after: impl FnMut(u64),
) {
    let sampler = Sampler::new(universe, pc, pn, cfg, rng);
    let mut grad = vec![0.0f32; raw.dim];
    let mut current = Draw::with_capacity(cfg.negatives);
    // `ring[it % DRAW_AHEAD]` holds the draw for iteration `it` until it is
    // taken, then the draw for `it + DRAW_AHEAD`.
    let mut ring: [Draw<'_>; DRAW_AHEAD] =
        std::array::from_fn(|_| Draw::with_capacity(cfg.negatives));
    let primed = budget.min(DRAW_AHEAD as u64) as usize;
    for slot in ring.iter_mut().take(primed) {
        slot.draw(raw, &sampler, rng);
    }
    for slot in ring.iter_mut().take(primed.min(RESOLVE_AHEAD)) {
        slot.resolve(raw, &sampler);
    }
    for it in 0..budget {
        let slot = it as usize % DRAW_AHEAD;
        ring[(slot + TRIAD_AHEAD) % DRAW_AHEAD].prefetch_triad_rows(raw);
        if it + (RESOLVE_AHEAD as u64) < budget {
            ring[(slot + RESOLVE_AHEAD) % DRAW_AHEAD].resolve(raw, &sampler);
        }
        std::mem::swap(&mut current, &mut ring[slot]);
        if it + (DRAW_AHEAD as u64) < budget {
            ring[slot].draw(raw, &sampler, rng);
        }
        let lr = cfg.lr * (1.0 - it as f32 / budget as f32).max(1e-4);
        apply(raw, universe, cfg, lr, &current, &mut grad);
        after(it + 1);
    }
}

/// Output of [`train`] plus the sampling tables (reused by diagnostics).
pub struct EStep {
    /// Learned parameters.
    pub params: EStepParams,
    /// `P_c ∝ deg_tie` over universe ties.
    pub pc: AliasTable,
    /// `P_n ∝ deg_tie^{3/4}` over universe ties.
    pub pn: AliasTable,
    /// Wall-clock seconds the SGD loop ran.
    pub elapsed_seconds: f64,
    /// Effective throughput: iterations executed (across all workers) per
    /// wall-clock second.
    pub iters_per_sec: f64,
    /// Iterations executed by each worker (one entry in sequential mode;
    /// empty for a degenerate zero-iteration run).
    pub per_worker_iterations: Vec<u64>,
}

/// Samples the current loss and reports one progress (or summary) event
/// through `cfg.observer`.
///
/// # Safety
/// Reads the parameter buffers behind `raw` without synchronization and
/// never writes. Callers must either hold exclusive access (sequential path,
/// between iterations) or accept the Hogwild-class benign race (monitor
/// thread); see module docs.
#[allow(clippy::too_many_arguments)]
unsafe fn report_progress(
    universe: &TieUniverse,
    raw: &RawParams,
    pc: &AliasTable,
    pn: &AliasTable,
    cfg: &DeepDirectConfig,
    total: u64,
    start: Instant,
    iteration: u64,
    per_worker: Vec<u64>,
    summary: bool,
    rng: &mut Pcg32,
) {
    let comp = estimate_components_raw(universe, raw, pc, pn, cfg, cfg.progress_samples, rng);
    let elapsed = start.elapsed().as_secs_f64();
    let p = EStepProgress {
        iteration,
        total_iterations: total,
        sampled_loss: comp.total,
        loss_topology: comp.topology,
        loss_label: comp.label,
        loss_pattern: comp.pattern,
        iters_per_sec: if elapsed > 0.0 { iteration as f64 / elapsed } else { 0.0 },
        per_worker_iterations: per_worker,
        elapsed_seconds: elapsed,
    };
    if summary {
        cfg.observer.on_estep_summary(&p);
    } else {
        cfg.observer.on_estep_progress(&p);
    }
}

/// Runs the E-Step on a prepared tie universe.
///
/// Returns initialized-but-untrained parameters when the universe has no
/// connected tie pairs (a degenerate graph with no length-2 paths).
pub fn train(universe: &TieUniverse, cfg: &DeepDirectConfig) -> EStep {
    cfg.validate().expect("invalid DeepDirect configuration");
    let mut rng = Pcg32::seed_from_u64(cfg.seed);
    let dim = cfg.dim;
    let rows = universe.len();
    let mut m = DenseMatrix::uniform_init(rows, dim, &mut rng);
    let mut n = DenseMatrix::zeros(rows, dim); // word2vec zero-inits contexts
    let mut w = vec![0.0f32; dim];
    let mut b = 0.0f32;

    // The f64 tie-degree weights live only while the tables are built, not
    // through the SGD loop.
    let (pc, pn) = {
        let weights = universe.tie_degree_weights();
        let context_table = |pc_weights: &[f64]| {
            if pc_weights.iter().any(|&x| x > 0.0) {
                AliasTable::new(pc_weights)
            } else {
                AliasTable::new(&vec![1.0; rows.max(1)])
            }
        };
        let pc = if cfg.uniform_context_sampling {
            // Ablation: uniform over ties with at least one connected tie.
            context_table(
                &weights.iter().map(|&w| if w > 0.0 { 1.0 } else { 0.0 }).collect::<Vec<_>>(),
            )
        } else {
            context_table(&weights)
        };
        (pc, AliasTable::unigram_pow(&weights, cfg.noise_exponent))
    };

    let planned = (cfg.tau * universe.n_connected_pairs() as f64).round() as u64;
    let total = cfg.max_iterations.map_or(planned, |cap| cap.min(planned));
    if total == 0 || universe.n_connected_pairs() == 0 {
        return EStep {
            params: EStepParams { m, n, w, b, iterations: 0 },
            pc,
            pn,
            elapsed_seconds: 0.0,
            iters_per_sec: 0.0,
            per_worker_iterations: Vec::new(),
        };
    }

    let raw = RawParams {
        m: m.as_mut_slice().as_mut_ptr(),
        n: n.as_mut_slice().as_mut_ptr(),
        w: w.as_mut_ptr(),
        b: &mut b as *mut f32,
        dim,
    };

    let observing = cfg.observer.is_enabled();
    // Iterations between progress reports. `u64::MAX` disables reporting at
    // the cost of one decrement-and-branch per iteration.
    let interval =
        if observing { cfg.progress_interval.unwrap_or((total / 20).max(1)) } else { u64::MAX };
    // dd-lint: allow(determinism) — progress-report pacing only; the clock
    // feeds telemetry timestamps, never the training arithmetic or the
    // iteration schedule (see DESIGN.md §7.11 exemptions)
    let start = Instant::now();
    let mut last_reported = 0u64;
    let per_worker_counts: Vec<u64>;

    if cfg.threads <= 1 {
        let mut loss_rng = Pcg32::seed_from_u64(cfg.seed ^ PROGRESS_RNG_SALT);
        let mut until_report = interval;
        // SAFETY: exclusive access — `m`, `n`, `w`, `b` outlive the loop and
        // no other reference touches them.
        unsafe {
            run_worker(&raw, universe, &pc, &pn, cfg, total, &mut rng, |done| {
                until_report -= 1;
                if until_report == 0 {
                    until_report = interval;
                    last_reported = done;
                    // SAFETY: single-threaded — estimation reads the buffers
                    // the loop writes, between iterations.
                    report_progress(
                        universe,
                        &raw,
                        &pc,
                        &pn,
                        cfg,
                        total,
                        start,
                        done,
                        vec![done],
                        false,
                        &mut loss_rng,
                    );
                }
            });
        }
        per_worker_counts = vec![total];
    } else {
        let threads = cfg.threads as u64;
        let mut seeds = split_streams(&mut rng, cfg.threads);
        let counters: Vec<AtomicU64> = (0..cfg.threads).map(|_| AtomicU64::new(0)).collect();
        // Workers arrive on the latch as they finish (via a drop guard, so
        // even a panicking worker arrives); the monitor parks on it instead
        // of sleep-polling a counter.
        let done = Latch::new(cfg.threads);
        let reported = AtomicU64::new(0);
        dd_runtime::scope(|s| {
            for (widx, mut wrng) in seeds.drain(..).enumerate() {
                // The budget splits exactly: the first `total % threads`
                // workers run one extra iteration.
                let budget = total / threads + u64::from((widx as u64) < total % threads);
                let pc = &pc;
                let pn = &pn;
                let counter = &counters[widx];
                let done = &done;
                s.spawn(move || {
                    let _arrival = done.guard();
                    // SAFETY: Hogwild protocol; see module docs.
                    unsafe {
                        run_worker(&raw, universe, pc, pn, cfg, budget, &mut wrng, |done| {
                            // Publish progress sparsely; one store per 4096
                            // iterations is invisible next to the SGD work.
                            if done & 0xFFF == 0 {
                                counter.store(done, Ordering::Relaxed);
                            }
                        });
                    }
                    counter.store(budget, Ordering::Relaxed);
                });
            }
            if observing {
                let pc = &pc;
                let pn = &pn;
                let counters = &counters;
                let done = &done;
                let reported = &reported;
                let mut loss_rng = Pcg32::seed_from_u64(cfg.seed ^ PROGRESS_RNG_SALT);
                s.spawn(move || {
                    let mut next = interval;
                    loop {
                        // Parks until either all workers arrived (wakes
                        // immediately, no poll latency) or the sampling
                        // interval elapsed and progress may be due.
                        let finished = done.wait_timeout(std::time::Duration::from_millis(20));
                        let snapshot: Vec<u64> =
                            counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                        let iters: u64 = snapshot.iter().sum();
                        if finished {
                            break; // the final sample is reported post-join
                        }
                        if iters >= next {
                            reported.store(iters, Ordering::Relaxed);
                            // SAFETY: racy reads of live parameters — the
                            // Hogwild-class approximation; see module docs.
                            unsafe {
                                report_progress(
                                    universe,
                                    &raw,
                                    pc,
                                    pn,
                                    cfg,
                                    total,
                                    start,
                                    iters,
                                    snapshot,
                                    false,
                                    &mut loss_rng,
                                );
                            }
                            while next <= iters {
                                next += interval;
                            }
                        }
                    }
                });
            }
        });
        last_reported = reported.load(Ordering::Relaxed);
        per_worker_counts = counters.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    }

    let elapsed = start.elapsed().as_secs_f64();
    let executed: u64 = per_worker_counts.iter().sum();
    let iters_per_sec = if elapsed > 0.0 { executed as f64 / elapsed } else { 0.0 };
    if observing {
        let mut loss_rng = Pcg32::seed_from_u64((cfg.seed ^ PROGRESS_RNG_SALT).wrapping_add(1));
        // SAFETY: workers have been joined; exclusive read-only access.
        unsafe {
            // Short runs may never hit the interval — guarantee at least one
            // progress sample before the end-of-E-Step summary.
            if last_reported < executed {
                report_progress(
                    universe,
                    &raw,
                    &pc,
                    &pn,
                    cfg,
                    total,
                    start,
                    executed,
                    per_worker_counts.clone(),
                    false,
                    &mut loss_rng,
                );
            }
            report_progress(
                universe,
                &raw,
                &pc,
                &pn,
                cfg,
                total,
                start,
                executed,
                per_worker_counts.clone(),
                true,
                &mut loss_rng,
            );
        }
    }

    EStep {
        params: EStepParams { m, n, w, b, iterations: executed },
        pc,
        pn,
        elapsed_seconds: elapsed,
        iters_per_sec,
        per_worker_iterations: per_worker_counts,
    }
}

/// Component breakdown of the Monte-Carlo objective estimate (Eq. 20):
/// `total = topology + label + pattern`, each averaged per sampled pair and
/// already carrying its α/β weight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LossComponents {
    /// Combined per-pair objective `L'`.
    pub total: f64,
    /// Skip-gram topology term.
    pub topology: f64,
    /// α-weighted labeled-tie cross-entropy.
    pub label: f64,
    /// β-weighted pseudo-label cross-entropy.
    pub pattern: f64,
}

/// Core Monte-Carlo estimator over a raw parameter view.
///
/// # Safety
/// `raw` must point to live buffers of `universe.len() × dim` (matrices) and
/// `dim` (weights) floats. The function only reads; in Hogwild mode those
/// reads race benignly with worker writes (see module docs).
unsafe fn estimate_components_raw(
    universe: &TieUniverse,
    raw: &RawParams,
    pc: &AliasTable,
    pn: &AliasTable,
    cfg: &DeepDirectConfig,
    samples: usize,
    rng: &mut Pcg32,
) -> LossComponents {
    use dd_linalg::activations::{cross_entropy, log_sigmoid};
    let dim = raw.dim;
    let mut topology = 0.0f64;
    let mut label = 0.0f64;
    let mut pattern = 0.0f64;
    let mut count = 0usize;
    for _ in 0..samples {
        let e = pc.sample(rng);
        let Some(ep) = universe.sample_connected(e, rng) else { continue };
        let me = raw.m_row(e) as *const f32;
        topology -= log_sigmoid(dot_raw(me, raw.n_row(ep), dim)) as f64;
        for _ in 0..cfg.negatives {
            let ei = pn.sample(rng);
            if ei == ep {
                continue;
            }
            topology -= log_sigmoid(-dot_raw(me, raw.n_row(ei), dim)) as f64;
        }
        let p = raw.predict(e) as f64;
        let tie = universe.tie(e);
        if let Some(y) = tie.label {
            label += cfg.alpha as f64 * cross_entropy(y as f64, p);
        } else if tie.kind == UniverseKind::Undirected {
            let samples_t = universe.triad_samples(e);
            if !samples_t.is_empty() {
                let mut yt = 0.0f64;
                for &(uw, vw) in samples_t {
                    let puw = raw.predict(uw as usize) as f64;
                    let pvw = raw.predict(vw as usize) as f64;
                    yt += puw / (puw + pvw).max(1e-12);
                }
                yt /= samples_t.len() as f64;
                pattern += cfg.beta as f64 * cross_entropy(yt, p);
            }
            if let Some(yd) = tie.pseudo_degree {
                if yd as f64 > cfg.degree_threshold {
                    pattern += cfg.beta as f64 * cross_entropy(yd as f64, p);
                }
            }
        }
        count += 1;
    }
    if count == 0 {
        return LossComponents { total: 0.0, topology: 0.0, label: 0.0, pattern: 0.0 };
    }
    let n = count as f64;
    let (topology, label, pattern) = (topology / n, label / n, pattern / n);
    LossComponents { total: topology + label + pattern, topology, label, pattern }
}

/// Monte-Carlo estimate of the per-pair loss `L'` (Eq. 20) under frozen
/// parameters, broken into its topology / label / pattern components.
pub fn estimate_loss_components(
    universe: &TieUniverse,
    params: &EStepParams,
    pc: &AliasTable,
    pn: &AliasTable,
    cfg: &DeepDirectConfig,
    samples: usize,
    rng: &mut Pcg32,
) -> LossComponents {
    let raw = RawParams {
        // Estimation is strictly read-only; the `*mut` casts exist only to
        // reuse the RawParams accessors and are never written through.
        m: params.m.as_slice().as_ptr() as *mut f32,
        n: params.n.as_slice().as_ptr() as *mut f32,
        w: params.w.as_ptr() as *mut f32,
        b: &params.b as *const f32 as *mut f32,
        dim: params.m.cols(),
    };
    // SAFETY: buffers live for the call; access is read-only.
    unsafe { estimate_components_raw(universe, &raw, pc, pn, cfg, samples, rng) }
}

/// Monte-Carlo estimate of the per-pair loss `L'` (Eq. 20) under the current
/// parameters — used to verify that training decreases the objective.
pub fn estimate_loss(
    universe: &TieUniverse,
    params: &EStepParams,
    pc: &AliasTable,
    pn: &AliasTable,
    cfg: &DeepDirectConfig,
    samples: usize,
    rng: &mut Pcg32,
) -> f64 {
    estimate_loss_components(universe, params, pc, pn, cfg, samples, rng).total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::UniverseTie;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
    use dd_graph::{MixedSocialNetwork, NetworkBuilder, NodeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_universe(seed: u64) -> TieUniverse {
        let gen_cfg = SocialNetConfig { n_nodes: 150, m_per_node: 4, ..Default::default() };
        let mut grng = StdRng::seed_from_u64(seed);
        let net = social_network(&gen_cfg, &mut grng).network;
        let hidden = hide_directions(&net, 0.5, &mut grng);
        let mut rng = Pcg32::seed_from_u64(seed);
        TieUniverse::build(&hidden.network, 10, &mut rng)
    }

    fn small_cfg() -> DeepDirectConfig {
        DeepDirectConfig { dim: 16, max_iterations: Some(60_000), ..DeepDirectConfig::default() }
    }

    #[test]
    fn training_decreases_loss() {
        let u = test_universe(1);
        let cfg = small_cfg();
        let trained = train(&u, &cfg);
        // Untrained baseline: zero iterations.
        let cfg0 = DeepDirectConfig { max_iterations: Some(0), ..cfg.clone() };
        let init = train(&u, &cfg0);
        let mut rng = Pcg32::seed_from_u64(99);
        let l_init = estimate_loss(&u, &init.params, &init.pc, &init.pn, &cfg, 3000, &mut rng);
        let mut rng = Pcg32::seed_from_u64(99);
        let l_trained =
            estimate_loss(&u, &trained.params, &trained.pc, &trained.pn, &cfg, 3000, &mut rng);
        assert!(l_trained < l_init * 0.9, "loss should drop: init {l_init} → trained {l_trained}");
    }

    #[test]
    fn joint_classifier_learns_labels() {
        let u = test_universe(2);
        let cfg = small_cfg();
        let trained = train(&u, &cfg);
        // Accuracy of σ(w'·m_e + b') on the labeled ties.
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, tie) in u.labeled_ties() {
            let p = sigmoid(
                dd_linalg::vecops::dot(trained.params.m.row(i), &trained.params.w)
                    + trained.params.b,
            );
            if (p >= 0.5) == (tie.label.unwrap() >= 0.5) {
                correct += 1;
            }
            total += 1;
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.8, "joint classifier train accuracy {acc}");
    }

    #[test]
    fn deterministic_given_seed() {
        let u = test_universe(3);
        let cfg = DeepDirectConfig { max_iterations: Some(5_000), ..small_cfg() };
        let a = train(&u, &cfg);
        let b = train(&u, &cfg);
        assert_eq!(a.params.m.as_slice(), b.params.m.as_slice());
        assert_eq!(a.params.w, b.params.w);
        assert_eq!(a.params.b, b.params.b);
    }

    #[test]
    fn zero_iterations_returns_init() {
        let u = test_universe(4);
        let cfg = DeepDirectConfig { max_iterations: Some(0), ..small_cfg() };
        let out = train(&u, &cfg);
        assert_eq!(out.params.iterations, 0);
        assert_eq!(out.params.w, vec![0.0; cfg.dim]);
        assert_eq!(out.params.b, 0.0);
    }

    #[test]
    fn parallel_training_also_learns() {
        let u = test_universe(5);
        let cfg = DeepDirectConfig { threads: 3, ..small_cfg() };
        let trained = train(&u, &cfg);
        let cfg0 = DeepDirectConfig { max_iterations: Some(0), ..cfg.clone() };
        let init = train(&u, &cfg0);
        let mut rng = Pcg32::seed_from_u64(42);
        let l_init = estimate_loss(&u, &init.params, &init.pc, &init.pn, &cfg, 2000, &mut rng);
        let mut rng = Pcg32::seed_from_u64(42);
        let l_trained =
            estimate_loss(&u, &trained.params, &trained.pc, &trained.pn, &cfg, 2000, &mut rng);
        assert!(l_trained < l_init * 0.9, "parallel loss should drop: {l_init} → {l_trained}");
    }

    #[derive(Default)]
    struct Capture(std::sync::Mutex<Vec<dd_telemetry::Event>>);

    impl dd_telemetry::TrainObserver for Capture {
        fn on_event(&self, e: &dd_telemetry::Event) {
            self.0.lock().unwrap().push(e.clone());
        }
    }

    fn observed_cfg(cap: &std::sync::Arc<Capture>, base: DeepDirectConfig) -> DeepDirectConfig {
        DeepDirectConfig { observer: dd_telemetry::ObserverHandle::new(cap.clone()), ..base }
    }

    #[test]
    fn progress_events_are_monotonic_and_finite() {
        let u = test_universe(7);
        let cap = std::sync::Arc::new(Capture::default());
        let cfg = observed_cfg(
            &cap,
            DeepDirectConfig {
                max_iterations: Some(10_000),
                progress_interval: Some(2_000),
                progress_samples: 200,
                ..small_cfg()
            },
        );
        train(&u, &cfg);
        let events = cap.0.lock().unwrap();
        let progress: Vec<_> =
            events.iter().filter(|e| e.kind == dd_telemetry::kind::ESTEP_PROGRESS).collect();
        assert!(progress.len() >= 3, "expected several progress samples, got {}", progress.len());
        let mut prev = 0u64;
        for p in &progress {
            let it = p.iteration.unwrap();
            assert!(it > prev, "iterations must strictly increase: {prev} then {it}");
            prev = it;
            let loss = p.sampled_loss.unwrap();
            assert!(loss.is_finite() && loss > 0.0, "sampled loss {loss}");
            // Components sum to the total.
            let sum = p.loss_topology.unwrap() + p.loss_label.unwrap() + p.loss_pattern.unwrap();
            assert!((sum - loss).abs() < 1e-9, "components {sum} vs total {loss}");
        }
        let summaries: Vec<_> =
            events.iter().filter(|e| e.kind == dd_telemetry::kind::ESTEP_SUMMARY).collect();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].iteration, Some(10_000));
    }

    #[test]
    fn observer_does_not_perturb_training() {
        let u = test_universe(8);
        let cfg = DeepDirectConfig { max_iterations: Some(5_000), ..small_cfg() };
        let plain = train(&u, &cfg);
        let cap = std::sync::Arc::new(Capture::default());
        let observed =
            observed_cfg(&cap, DeepDirectConfig { progress_interval: Some(500), ..cfg.clone() });
        let watched = train(&u, &observed);
        // Loss sampling is read-only on a separate RNG stream, so the
        // learned parameters must be bit-identical.
        assert_eq!(plain.params.m.as_slice(), watched.params.m.as_slice());
        assert_eq!(plain.params.w, watched.params.w);
        assert_eq!(plain.params.b, watched.params.b);
        assert!(!cap.0.lock().unwrap().is_empty());
    }

    #[test]
    fn parallel_training_reports_progress_and_throughput() {
        let u = test_universe(9);
        let cap = std::sync::Arc::new(Capture::default());
        let cfg = observed_cfg(
            &cap,
            DeepDirectConfig {
                threads: 3,
                max_iterations: Some(30_000),
                progress_samples: 100,
                ..small_cfg()
            },
        );
        let out = train(&u, &cfg);
        assert!(out.elapsed_seconds > 0.0);
        assert!(out.iters_per_sec > 0.0);
        assert_eq!(out.per_worker_iterations.len(), 3);
        let executed: u64 = out.per_worker_iterations.iter().sum();
        assert_eq!(executed, 30_000, "workers must run exactly the budget");
        assert_eq!(out.params.iterations, executed);
        let events = cap.0.lock().unwrap();
        assert!(
            events.iter().any(|e| e.kind == dd_telemetry::kind::ESTEP_PROGRESS),
            "at least one progress event is guaranteed"
        );
        assert!(events.iter().any(|e| e.kind == dd_telemetry::kind::ESTEP_SUMMARY));
        // Every progress event names one count per worker.
        for e in events.iter().filter(|e| e.kind == dd_telemetry::kind::ESTEP_PROGRESS) {
            assert_eq!(e.per_worker_iterations.as_ref().unwrap().len(), 3);
        }
    }

    /// A tiny mixed network for the gradient checks: the undirected tie
    /// `0–1` has common neighbors 2 and 3 (two triad samples), and
    /// `deg(0) = 4`, `deg(1) = 5`, so its two orders fall on either side of
    /// the Degree Consistency threshold 0.5.
    fn gradient_check_universe() -> (MixedSocialNetwork, TieUniverse) {
        let mut b = NetworkBuilder::new(7);
        b.add_undirected(NodeId(0), NodeId(1)).unwrap();
        for (u, v) in [(2, 0), (2, 1), (0, 3), (3, 1), (4, 5), (6, 0), (1, 5)] {
            b.add_directed(NodeId(u), NodeId(v)).unwrap();
        }
        b.add_bidirectional(NodeId(1), NodeId(4)).unwrap();
        b.add_undirected(NodeId(5), NodeId(6)).unwrap();
        let g = b.build().unwrap();
        let u = TieUniverse::build(&g, 10, &mut Pcg32::seed_from_u64(1));
        (g, u)
    }

    /// `L'` (Eq. 20) of one draw in f64 over `θ = [m_e, n_e', n_neg.., w',
    /// b']`, with the pseudo-labels `y^t` and `y^d` held as targets, as the
    /// E-Step's gradient treats them.
    fn draw_loss(
        theta: &[f64],
        dim: usize,
        k: usize,
        tie: &UniverseTie,
        yt: Option<f64>,
        cfg: &DeepDirectConfig,
    ) -> f64 {
        use dd_linalg::activations::{cross_entropy, sigmoid64};
        let row = |r: usize| &theta[r * dim..(r + 1) * dim];
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let m = row(0);
        let mut loss = -sigmoid64(dot(m, row(1))).ln();
        for r in 2..2 + k {
            loss -= sigmoid64(-dot(m, row(r))).ln();
        }
        let p = sigmoid64(dot(row(2 + k), m) + theta[(3 + k) * dim]);
        if let Some(y) = tie.label {
            loss += f64::from(cfg.alpha) * cross_entropy(f64::from(y), p);
        } else if tie.kind == UniverseKind::Undirected {
            if let Some(yt) = yt {
                loss += f64::from(cfg.beta) * cross_entropy(yt, p);
            }
            let yd = f64::from(tie.pseudo_degree.unwrap());
            if yd > cfg.degree_threshold {
                loss += f64::from(cfg.beta) * cross_entropy(yd, p);
            }
        }
        loss
    }

    /// Runs one `apply` of the draw `(e, e', negatives)` from 20 random
    /// starting points and checks that `(θ − θ') / lr` matches a central
    /// difference of [`draw_loss`] for every parameter the step touches,
    /// and that no other value moved.
    ///
    /// Tolerance: `1e-4·(1 + |fd|)`, as for the D-Step's check in
    /// `logreg.rs`. The step runs in f32 and the power-of-two `lr` makes the
    /// division exact, so the recovered gradient is off by a few f32 ulps of
    /// `θ` over `lr` plus the f32 rounding of `y^t` (the largest error seen
    /// is 1.2e-7 of `1 + |fd|`); the f64 difference with `h = 1e-6` is good
    /// to ≈ 1e-9. A dropped `α` or `β`, a flipped sign on the `y^d` term or
    /// on a negative's update each fails it.
    fn check_apply_gradient(
        u: &TieUniverse,
        cfg: &DeepDirectConfig,
        e: usize,
        ep: usize,
        negatives: &[usize],
    ) {
        let dim = cfg.dim;
        let k = negatives.len();
        let lr = 0.25f32;
        let h = 1e-6f64;
        let tie = *u.tie(e);
        let pattern = tie.label.is_none() && tie.kind == UniverseKind::Undirected && cfg.beta > 0.0;
        let triads = if pattern { u.triad_samples(e) } else { &[] };
        let draw = Draw { e, slot: None, ep: Some(ep), negatives: negatives.to_vec(), triads };
        for seed in 0..20u64 {
            let mut rng = Pcg32::seed_from_u64(seed);
            let m = DenseMatrix::uniform_init(u.len(), dim, &mut rng);
            let mut n = DenseMatrix::zeros(u.len(), dim);
            let mut unit = || rng.next_f32() - 0.5;
            n.as_mut_slice().iter_mut().for_each(|x| *x = unit());
            let w: Vec<f32> = (0..dim).map(|_| unit()).collect();
            let b = unit();
            let (mut m1, mut n1, mut w1, mut b1) = (m.clone(), n.clone(), w.clone(), b);
            let raw = RawParams {
                m: m1.as_mut_slice().as_mut_ptr(),
                n: n1.as_mut_slice().as_mut_ptr(),
                w: w1.as_mut_ptr(),
                b: &mut b1 as *mut f32,
                dim,
            };
            let mut grad = vec![0.0f32; dim];
            // SAFETY: the buffers outlive the call and nothing else reads them.
            unsafe { apply(&raw, u, cfg, lr, &draw, &mut grad) };

            // y^t from the starting point, in f64, held fixed.
            let predict = |r: usize| {
                let z: f64 =
                    m.row(r).iter().zip(&w).map(|(&a, &c)| f64::from(a) * f64::from(c)).sum();
                dd_linalg::activations::sigmoid64(z + f64::from(b))
            };
            let yt = (!triads.is_empty()).then(|| {
                triads
                    .iter()
                    .map(|&(uw, vw)| {
                        predict(uw as usize) / (predict(uw as usize) + predict(vw as usize))
                    })
                    .sum::<f64>()
                    / triads.len() as f64
            });
            let before: Vec<f32> = m
                .row(e)
                .iter()
                .chain(n.row(ep))
                .chain(negatives.iter().flat_map(|&r| n.row(r)))
                .chain(&w)
                .copied()
                .chain([b])
                .collect();
            let after: Vec<f32> = m1
                .row(e)
                .iter()
                .chain(n1.row(ep))
                .chain(negatives.iter().flat_map(|&r| n1.row(r)))
                .chain(&w1)
                .copied()
                .chain([b1])
                .collect();
            let theta: Vec<f64> = before.iter().map(|&x| f64::from(x)).collect();
            for (i, (&x0, &x1)) in before.iter().zip(&after).enumerate() {
                let (mut plus, mut minus) = (theta.clone(), theta.clone());
                plus[i] += h;
                minus[i] -= h;
                let fd = (draw_loss(&plus, dim, k, &tie, yt, cfg)
                    - draw_loss(&minus, dim, k, &tie, yt, cfg))
                    / (2.0 * h);
                let analytic = f64::from((x0 - x1) / lr);
                assert!(
                    (analytic - fd).abs() <= 1e-4 * (1.0 + fd.abs()),
                    "tie {e}, seed {seed}, θ[{i}]: update {analytic} vs finite difference {fd}"
                );
            }
            // Every other value, the triad rows included, is untouched.
            for r in 0..u.len() {
                if r != e {
                    assert_eq!(m.row(r), m1.row(r), "M[{r}] moved");
                }
                if r != ep && !negatives.contains(&r) {
                    assert_eq!(n.row(r), n1.row(r), "N[{r}] moved");
                }
            }
        }
    }

    /// `k` distinct negatives, none equal to `ep`.
    fn distinct_negatives(u: &TieUniverse, ep: usize, k: usize, rng: &mut Pcg32) -> Vec<usize> {
        let mut out = Vec::new();
        while out.len() < k {
            let r = rng.gen_range(u.len());
            if r != ep && !out.contains(&r) {
                out.push(r);
            }
        }
        out
    }

    #[test]
    fn topology_step_is_the_gradient_of_l_topo() {
        let (_, u) = gradient_check_universe();
        let cfg = DeepDirectConfig { dim: 8, alpha: 0.0, beta: 0.0, ..DeepDirectConfig::default() };
        let mut rng = Pcg32::seed_from_u64(11);
        for e in 0..u.len() {
            let Some(ep) = u.sample_connected(e, &mut rng) else { continue };
            let negatives = distinct_negatives(&u, ep, cfg.negatives, &mut rng);
            check_apply_gradient(&u, &cfg, e, ep, &negatives);
        }
    }

    #[test]
    fn label_step_is_the_gradient_of_l_topo_plus_alpha_l_label() {
        let (_, u) = gradient_check_universe();
        let cfg = DeepDirectConfig { dim: 8, alpha: 2.5, beta: 0.7, ..DeepDirectConfig::default() };
        let mut rng = Pcg32::seed_from_u64(12);
        let mut checked = [0usize; 2];
        for (e, tie) in u.labeled_ties() {
            let Some(ep) = u.sample_connected(e, &mut rng) else { continue };
            let negatives = distinct_negatives(&u, ep, 3, &mut rng);
            check_apply_gradient(&u, &cfg, e, ep, &negatives);
            checked[tie.label.unwrap() as usize] += 1;
        }
        assert!(checked[0] > 0 && checked[1] > 0, "mirrors and directed ties both checked");
    }

    #[test]
    fn pattern_step_is_the_gradient_of_l_topo_plus_beta_l_pattern() {
        let (g, u) = gradient_check_universe();
        let cfg = DeepDirectConfig {
            dim: 8,
            beta: 0.7,
            degree_threshold: 0.5,
            ..DeepDirectConfig::default()
        };
        let mut rng = Pcg32::seed_from_u64(13);
        for (a, c) in [(0, 1), (1, 0)] {
            let e = u.find(NodeId(a), NodeId(c)).unwrap();
            assert_eq!(u.triad_samples(e).len(), 2);
            // Eq. 14 in its pattern-consistent form (DESIGN.md §7 note 1):
            // y^d(u, v) = deg(v) / (deg(u) + deg(v)), so 5/9 for (0, 1),
            // above T, and 4/9 for (1, 0), below it.
            let (du, dv) = (g.social_degree(NodeId(a)) as f32, g.social_degree(NodeId(c)) as f32);
            assert_eq!(u.tie(e).pseudo_degree, Some(dv / (du + dv)));
            let ep = u.sample_connected(e, &mut rng).unwrap();
            let negatives = distinct_negatives(&u, ep, 4, &mut rng);
            check_apply_gradient(&u, &cfg, e, ep, &negatives);
        }
        // (5, 6) has no common neighbor and y^d = 2/5, gated out by T: the
        // pattern term vanishes.
        let e = u.find(NodeId(5), NodeId(6)).unwrap();
        assert_eq!(u.tie(e).pseudo_degree, Some(0.4));
        assert!(u.triad_samples(e).is_empty());
        let ep = u.sample_connected(e, &mut rng).unwrap();
        check_apply_gradient(&u, &cfg, e, ep, &distinct_negatives(&u, ep, 2, &mut rng));
    }

    #[test]
    fn alpha_zero_keeps_classifier_at_init() {
        let u = test_universe(6);
        let cfg = DeepDirectConfig { alpha: 0.0, beta: 0.0, ..small_cfg() };
        let out = train(&u, &cfg);
        // With both supervised losses off, w' and b' receive no gradient.
        assert_eq!(out.params.w, vec![0.0; cfg.dim]);
        assert_eq!(out.params.b, 0.0);
        // But the embeddings still moved (topology loss).
        assert!(out.params.iterations > 0);
    }
}
