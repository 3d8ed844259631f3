//! The training path, end to end (loaded graph → `DeepDirect::fit` →
//! `.ddm` written → `.ddm` reloaded) and layer by layer.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dd_graph::sampling::bfs_subnetwork;
use dd_linalg::stats::{linear_fit, r_squared};
use dd_linalg::Pcg32;
use dd_runtime::Threads;
use deepdirect::apps::discovery::{discover_directions, discovery_accuracy};
use deepdirect::{dstep, estep, DeepDirect, DeepDirectConfig, DirectionalityModel, TieUniverse};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::inputs::Dataset;
use crate::stats::median;

/// Embedding dimension of every model the benchmark trains.
pub const DIM: usize = 32;

/// Training work per fit.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub estep_iterations: u64,
    pub dstep_epochs: usize,
}

/// The paper-scale run: 4M E-step iterations and the default 30 D-step
/// epochs.
pub const PAPER: Budget = Budget { estep_iterations: 4_000_000, dstep_epochs: 30 };
/// A model of the same shape for serving, trained briefly: serving cost
/// depends on the model's shape, not its accuracy.
pub const SERVING: Budget = Budget { estep_iterations: 200_000, dstep_epochs: 2 };

pub fn config(budget: Budget, seed: u64, threads: usize) -> DeepDirectConfig {
    DeepDirectConfig {
        dim: DIM,
        threads,
        seed,
        max_iterations: Some(budget.estep_iterations),
        dstep_epochs: budget.dstep_epochs,
        ..DeepDirectConfig::default()
    }
}

/// Outcome of one end-to-end training run.
pub struct Trained {
    /// The model as reloaded from the `.ddm` (what the fleet serves).
    pub model: Arc<DirectionalityModel>,
    pub train_s: f64,
    pub fit_s: f64,
    pub save_s: f64,
    pub load_s: f64,
    pub direction_acc: f64,
    /// The reloaded model scores every row bit-identically to the
    /// in-memory one.
    pub roundtrip_ok: bool,
}

/// Fits, writes the `.ddm`, reloads it, and checks the round trip.
pub fn train(ds: &Dataset, cfg: &DeepDirectConfig, ddm: &Path) -> Result<Trained, String> {
    let t0 = Instant::now();
    let fitted = DeepDirect::new(cfg.clone()).fit(&ds.graph);
    let fit_s = t0.elapsed().as_secs_f64();
    fitted.save_binary_to_path(ddm)?;
    let saved = t0.elapsed().as_secs_f64();
    let loaded = DirectionalityModel::load_from_path(ddm)?;
    let train_s = t0.elapsed().as_secs_f64();
    let roundtrip_ok = loaded.fingerprint() == fitted.fingerprint()
        && loaded.n_ties() == fitted.n_ties()
        && (0..fitted.n_ties())
            .all(|r| loaded.score_row(r).to_bits() == fitted.score_row(r).to_bits());
    let predictions = discover_directions(&ds.graph, |u, v| loaded.score(u, v).unwrap_or(0.5));
    Ok(Trained {
        model: Arc::new(loaded),
        train_s,
        fit_s,
        save_s: saved - fit_s,
        load_s: train_s - saved,
        direction_acc: discovery_accuracy(&predictions, &ds.truth),
        roundtrip_ok,
    })
}

/// Wall time of each training layer, called one by one the way `fit`
/// calls them.
pub struct Layers {
    pub universe_build_s: f64,
    pub estep_train_s: f64,
    pub estep_iters_per_s: f64,
    pub dstep_train_s: f64,
}

pub fn layers(ds: &Dataset, cfg: &DeepDirectConfig) -> Layers {
    let threads = Threads::new(cfg.threads).expect("at least one thread");
    let mut rng = Pcg32::seed_from_u64(cfg.seed ^ 0x9e37);
    let t = Instant::now();
    let universe = TieUniverse::build_with_threads(&ds.graph, cfg.gamma, &mut rng, threads);
    let universe_build_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let e = estep::train(&universe, cfg);
    let estep_train_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let _head = dstep::train(&universe, &e.params, cfg);
    Layers {
        universe_build_s,
        estep_train_s,
        estep_iters_per_s: e.iters_per_sec,
        dstep_train_s: t.elapsed().as_secs_f64(),
    }
}

/// Median wall time of `reps` `.ddm` saves and loads of `model`.
pub fn binfmt_times(model: &DirectionalityModel, ddm: &Path, reps: usize) -> (f64, f64) {
    let mut save = Vec::new();
    let mut load = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        model.save_binary_to_path(ddm).expect("writing the .ddm");
        save.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let m = DirectionalityModel::load_from_path(ddm).expect("reading the .ddm");
        load.push(t.elapsed().as_secs_f64());
        drop(m);
    }
    (median(&save), median(&load))
}

/// E-step iterations per tie in the Fig. 9 sweep, so work grows with |E|.
pub const FIG9_ITERS_PER_TIE: u64 = 4;

/// One Fig. 9 point.
pub struct Fig9Point {
    pub fraction: f64,
    pub ties: usize,
    pub iterations: u64,
    pub seconds: f64,
}

/// Fig. 9 at paper scale: E-step time on BFS sub-samples at ¼, ½ and all
/// of the network, with the least-squares line `seconds = a·|E| + b` and
/// its R².
pub fn fig9(ds: &Dataset, cfg: &DeepDirectConfig) -> (Vec<Fig9Point>, f64, f64, f64) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0xf19);
    let threads = Threads::new(cfg.threads).expect("at least one thread");
    let mut points = Vec::new();
    for fraction in [0.25, 0.5, 1.0] {
        let sub;
        let g = if fraction < 1.0 {
            let target = (ds.nodes as f64 * fraction) as usize;
            sub = bfs_subnetwork(&ds.graph, target, &mut rng).0;
            &sub
        } else {
            &ds.graph
        };
        let ties = g.counts().total();
        let iterations = FIG9_ITERS_PER_TIE * ties as u64;
        let cfg = DeepDirectConfig { max_iterations: Some(iterations), ..cfg.clone() };
        let mut prng = Pcg32::seed_from_u64(cfg.seed ^ 0x9e37);
        let universe = TieUniverse::build_with_threads(g, cfg.gamma, &mut prng, threads);
        let e = estep::train(&universe, &cfg);
        points.push(Fig9Point {
            fraction,
            ties,
            iterations: e.params.iterations,
            seconds: e.elapsed_seconds,
        });
    }
    let xs: Vec<f64> = points.iter().map(|p| p.ties as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.seconds).collect();
    let (a, b) = linear_fit(&xs, &ys);
    let r2 = r_squared(&xs, &ys);
    (points, a, b, r2)
}
