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
//! ## Draw-ahead
//!
//! Each iteration gathers ~8 random rows (`M[e]`, `N[e']`, `λ` negatives'
//! `N` rows, plus two `M` rows per triad sample on undirected ties), so the
//! loop is bound by memory latency, not arithmetic. An iteration is
//! therefore split in two. `Draw::draw` does all of its RNG consumption in
//! the original order (`e`, `e'`, then the negatives) and prefetches the
//! rows and the triad list it names. `apply` is the update arithmetic. One
//! worker loop, `run_worker`, keeps a ring of `DRAW_AHEAD` draws: at step
//! `it` it prefetches the triad rows of draw `it + TRIAD_AHEAD`, draws
//! iteration `it + DRAW_AHEAD` and applies draw `it`. `apply` consumes no
//! randomness and a prefetch moves cache lines, not values, so a
//! sequential fit is bit-identical to one that draws and applies in turn
//! (DESIGN.md §7.9, "Latency-hidden SGD").
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
use dd_linalg::rng::Pcg32;
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

/// How many iterations ahead of the update a worker draws its samples
/// (see the module docs): four iterations of arithmetic cover one DRAM
/// round trip for the ~8 rows a draw names. It is a constant because the
/// RNG stream does not depend on it, so no value would change with it.
const DRAW_AHEAD: usize = 4;

/// How many iterations ahead of the update a worker prefetches the
/// triad-sample rows `M[uw]`, `M[vw]`. Half of [`DRAW_AHEAD`]: their indices
/// come from the triad list the draw prefetched, which has to land first.
const TRIAD_AHEAD: usize = 2;

/// The samples of one SGD iteration (Algorithm 1, line 13): `e ~ P_c`, its
/// connected tie `e'` and the `λ` negatives from `P_n`.
struct Draw<'u> {
    e: usize,
    /// `None` when `deg_tie(e) = 0` (zero `P_c` mass; defensive only): the
    /// iteration is then a no-op and draws no negatives.
    ep: Option<usize>,
    /// Every drawn negative, including any equal to `e'` (skipped when
    /// applied, as drawing the positive as noise would cancel it).
    negatives: Vec<usize>,
    /// `e`'s triad samples when the pattern term will read them (unlabeled
    /// undirected tie, `β > 0`), else empty.
    triads: &'u [(u32, u32)],
}

impl<'u> Draw<'u> {
    fn with_capacity(negatives: usize) -> Self {
        Draw { e: 0, ep: None, negatives: Vec::with_capacity(negatives), triads: &[] }
    }

    /// Draws the next iteration's samples into `self`, consuming `rng`
    /// exactly as the iteration always has: `e`, then `e'`, then (only when
    /// `e'` exists) the `λ` negatives. Prefetches every row the update will
    /// read and `e`'s triad list; reads no parameter value.
    fn draw(
        &mut self,
        raw: &RawParams,
        universe: &'u TieUniverse,
        pc: &AliasTable,
        pn: &AliasTable,
        cfg: &DeepDirectConfig,
        rng: &mut Pcg32,
    ) {
        let dim = raw.dim;
        self.e = pc.sample(rng);
        self.ep = universe.sample_connected(self.e, rng);
        self.negatives.clear();
        self.triads = &[];
        let Some(ep) = self.ep else { return };
        prefetch(raw.m_row(self.e), dim);
        prefetch(raw.n_row(ep), dim);
        for _ in 0..cfg.negatives {
            let ei = pn.sample(rng);
            prefetch(raw.n_row(ei), dim);
            self.negatives.push(ei);
        }
        let tie = universe.tie(self.e);
        if tie.label.is_none() && tie.kind == UniverseKind::Undirected && cfg.beta > 0.0 {
            self.triads = universe.triad_samples(self.e);
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
/// decayed linearly over the budget, drawing [`DRAW_AHEAD`] iterations
/// ahead of the update and prefetching triad rows [`TRIAD_AHEAD`] ahead
/// (module docs). After each iteration it calls `after(done)` with the
/// number of iterations applied so far. Both the sequential and the
/// Hogwild path run this loop.
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
    let mut grad = vec![0.0f32; raw.dim];
    let mut current = Draw::with_capacity(cfg.negatives);
    // `ring[it % DRAW_AHEAD]` holds the draw for iteration `it` until it is
    // taken, then the draw for `it + DRAW_AHEAD`.
    let mut ring: [Draw<'_>; DRAW_AHEAD] =
        std::array::from_fn(|_| Draw::with_capacity(cfg.negatives));
    for slot in ring.iter_mut().take(budget.min(DRAW_AHEAD as u64) as usize) {
        slot.draw(raw, universe, pc, pn, cfg, rng);
    }
    for it in 0..budget {
        let slot = it as usize % DRAW_AHEAD;
        ring[(slot + TRIAD_AHEAD) % DRAW_AHEAD].prefetch_triad_rows(raw);
        std::mem::swap(&mut current, &mut ring[slot]);
        if it + (DRAW_AHEAD as u64) < budget {
            ring[slot].draw(raw, universe, pc, pn, cfg, rng);
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

    let weights = universe.tie_degree_weights();
    let pc_weights: Vec<f64> = if cfg.uniform_context_sampling {
        // Ablation: uniform over ties with at least one connected tie.
        weights.iter().map(|&w| if w > 0.0 { 1.0 } else { 0.0 }).collect()
    } else {
        weights.clone()
    };
    let pc = AliasTable::new(&if pc_weights.iter().any(|&x| x > 0.0) {
        pc_weights
    } else {
        vec![1.0; rows.max(1)]
    });
    let pn = AliasTable::unigram_pow(&weights, cfg.noise_exponent);

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
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
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
