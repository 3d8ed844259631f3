//! Regenerates **Fig. 9** — scalability: DeepDirect wall-clock time as a
//! function of the number of social ties, on BFS sub-samples of the Tencent
//! analog.
//!
//! ```text
//! cargo run --release -p dd-bench --bin fig9_scalability
//! ```
//!
//! Expected shape (paper / Sec. 4.6 analysis): runtime linear in `|E|`.
//! The binary reports the least-squares fit and its `R²`. Every fit is
//! timed under a `fig9.fit` span appended to the unified
//! `<out_dir>/telemetry.jsonl` event log.

use dd_bench::BenchEnv;
use dd_datasets::tencent;
use dd_eval::runner::{ExperimentRow, ResultSink};
use dd_graph::sampling::bfs_subnetwork;
use dd_linalg::stats::{linear_fit, r_squared};
use deepdirect::{DeepDirect, DeepDirectConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let env = BenchEnv::from_env();
    let obs = env.observer();
    // Full Tencent analog at the environment scale; sub-sample by BFS.
    let (full, _) = obs
        .time("fig9.dataset.generate", || tencent().generate(env.scale.min(40), env.seed).network);
    println!("base network: {} nodes, {} ties", full.n_nodes(), full.counts().total());
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut rng = StdRng::seed_from_u64(env.seed ^ 0xf19);
    let mut sink = ResultSink::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &f in &fractions {
        let target = ((full.n_nodes() as f64) * f) as usize;
        let g = if f >= 1.0 { full.clone() } else { bfs_subnetwork(&full, target, &mut rng).0 };
        let ties = g.counts().total();
        // Fixed τ so that work scales with |C(G)| ∝ |E| (Sec. 4.6). The
        // E-Step dominates; single-threaded for a clean scaling read, and
        // no observer inside the config so progress sampling cannot skew
        // the measured fit time — only the enclosing span is recorded.
        let cfg = DeepDirectConfig {
            dim: 64,
            tau: 2.0,
            threads: 1,
            seed: env.seed,
            ..Default::default()
        };
        let (model, secs) =
            obs.time(&format!("fig9.fit.ties_{ties}"), || DeepDirect::new(cfg).fit(&g));
        println!(
            "|E| = {ties:>8}  ->  {secs:>7.2}s  ({} E-Step iterations, {} threads)",
            model.estep_iterations(),
            1
        );
        xs.push(ties as f64);
        ys.push(secs);
        sink.push(ExperimentRow {
            experiment: "fig9".into(),
            dataset: "Tencent".into(),
            method: "DeepDirect".into(),
            x_name: "ties".into(),
            x: ties as f64,
            value: secs,
            seed: env.seed,
        });
    }
    let (a, b) = linear_fit(&xs, &ys);
    let r2 = r_squared(&xs, &ys);
    println!("\nlinear fit: time = {a:.3e} * |E| + {b:.3}  (R² = {r2:.4})");
    println!("(every fit ran on 1 thread, so the times do not depend on the host's core count)");
    sink.write_jsonl(&env.out_path("fig9.jsonl")).expect("write fig9.jsonl");
    println!("wrote {}", env.out_path("fig9.jsonl"));
    obs.flush();
}
