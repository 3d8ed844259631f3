//! Ablations of DeepDirect design choices (DESIGN.md §5) that the paper
//! motivates but does not isolate:
//!
//! * tie-degree weighting of labeled ties (Eq. 13) vs uniform sampling,
//! * the degree-pattern threshold `T` (Eq. 16) on vs off,
//! * the `P_n ∝ deg^{3/4}` noise exponent vs uniform negatives,
//! * γ (common-neighbor cap of Eq. 15).
//!
//! ```text
//! cargo run --release -p dd-bench --bin ablation_study
//! ```

use dd_bench::{bench_deepdirect_config, BenchEnv};
use dd_datasets::{epinions, tencent};
use dd_eval::runner::{direction_discovery_accuracy, ExperimentRow, Method, ResultSink};
use deepdirect::DeepDirectConfig;

fn main() {
    let env = BenchEnv::from_env();
    let pct = 0.1; // low-label regime where the design choices matter most
    let mut sink = ResultSink::new();
    for spec in [tencent(), epinions()] {
        for s in 0..env.n_seeds {
            let seed = env.seed + s;
            let hidden = env.hidden_split(&spec, pct, seed);
            let base = bench_deepdirect_config(64, seed);
            let variants: Vec<(&str, DeepDirectConfig)> = vec![
                ("baseline", base.clone()),
                ("threshold_off", DeepDirectConfig { degree_threshold: 0.0, ..base.clone() }),
                ("threshold_strict", DeepDirectConfig { degree_threshold: 0.8, ..base.clone() }),
                ("gamma_1", DeepDirectConfig { gamma: 1, ..base.clone() }),
                ("gamma_30", DeepDirectConfig { gamma: 30, ..base.clone() }),
                ("beta_off", DeepDirectConfig { beta: 0.0, ..base.clone() }),
                ("alpha_off", DeepDirectConfig { alpha: 0.0, ..base.clone() }),
                ("uniform_negatives", DeepDirectConfig { noise_exponent: 0.0, ..base.clone() }),
                (
                    "uniform_context",
                    DeepDirectConfig { uniform_context_sampling: true, ..base.clone() },
                ),
            ];
            for (name, cfg) in variants {
                let acc = direction_discovery_accuracy(&Method::DeepDirect(cfg), &hidden);
                sink.push(ExperimentRow {
                    experiment: "ablation".into(),
                    dataset: spec.name.into(),
                    method: name.into(),
                    x_name: "percent_directed".into(),
                    x: pct,
                    value: acc,
                    seed,
                });
            }
        }
    }
    println!("\n{}", sink.pivot_table("ablation", pct));
    sink.write_jsonl(&env.out_path("ablation.jsonl")).expect("write ablation.jsonl");
    println!("wrote {}", env.out_path("ablation.jsonl"));
}
