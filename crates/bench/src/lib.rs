//! # dd-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (Sec. 6):
//!
//! | target | regenerates |
//! |---|---|
//! | `table2_datasets` | Table 2 — dataset statistics |
//! | `fig3_direction_discovery` | Fig. 3 — accuracy of all five methods |
//! | `fig4_label_effect` | Fig. 4 — effect of `α` (labeled data) |
//! | `fig5_pattern_effect` | Fig. 5 — effect of `β` (patterns) |
//! | `fig6a_dimensions` | Fig. 6(a) — sensitivity to `l` |
//! | `fig6b_negatives` | Fig. 6(b) — sensitivity to `λ` |
//! | `fig7_visualization` | Fig. 7 — t-SNE of DeepDirect vs LINE |
//! | `fig8_link_prediction` | Fig. 8 — link-prediction AUC |
//! | `fig9_scalability` | Fig. 9 — runtime vs `\|E\|` |
//! | `ablation_study` | extra — design-choice ablations (DESIGN.md §5) |
//!
//! Environment knobs shared by every binary:
//!
//! * `DD_SCALE` — dataset scale divisor (default 150; `1` = paper scale),
//! * `DD_SEED` — base RNG seed (default 7),
//! * `DD_SEEDS` — number of seeds to average (default 1),
//! * `DD_OUT` — results directory (default `results/`).
//!
//! Performance at paper scale (end to end and per layer, including the
//! Fig. 9 linear-in-`|E|` fit) is measured by the separate `perfbench/`
//! package; see `perfbench/README.md`.

use dd_datasets::DatasetSpec;
use dd_eval::runner::Method;
use dd_graph::sampling::{hide_directions, HiddenDirections};
use dd_telemetry::{JsonlSink, ObserverHandle};
use deepdirect::DeepDirectConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// Shared experiment environment read from `DD_*` variables.
#[derive(Debug, Clone)]
pub struct BenchEnv {
    /// Dataset scale divisor.
    pub scale: usize,
    /// Base seed.
    pub seed: u64,
    /// Seeds averaged per measurement.
    pub n_seeds: u64,
    /// Output directory for JSONL rows and CSVs.
    pub out_dir: String,
}

impl BenchEnv {
    /// Reads the environment (with defaults).
    pub fn from_env() -> Self {
        let get = |k: &str| std::env::var(k).ok();
        BenchEnv {
            scale: get("DD_SCALE").and_then(|v| v.parse().ok()).unwrap_or(150),
            seed: get("DD_SEED").and_then(|v| v.parse().ok()).unwrap_or(7),
            n_seeds: get("DD_SEEDS").and_then(|v| v.parse().ok()).unwrap_or(1),
            out_dir: get("DD_OUT").unwrap_or_else(|| "results".to_string()),
        }
    }

    /// Output path inside the results directory.
    pub fn out_path(&self, file: &str) -> String {
        format!("{}/{}", self.out_dir, file)
    }

    /// Telemetry handle shared by the figure binaries: appends
    /// schema-versioned events to `<out_dir>/telemetry.jsonl`, so every
    /// binary (and `run_all` driving them as subprocesses) contributes to
    /// one unified event log. Returns a disabled handle if the sink cannot
    /// be opened (e.g. a read-only results directory).
    pub fn observer(&self) -> ObserverHandle {
        match JsonlSink::append(self.out_path("telemetry.jsonl")) {
            Ok(sink) => ObserverHandle::new(Arc::new(sink)),
            Err(e) => {
                eprintln!("telemetry disabled: {e}");
                ObserverHandle::none()
            }
        }
    }

    /// Hidden-direction split of a dataset at this environment's scale.
    pub fn hidden_split(
        &self,
        spec: &DatasetSpec,
        keep_directed: f64,
        seed: u64,
    ) -> HiddenDirections {
        self.hidden_split_observed(spec, keep_directed, seed, &ObserverHandle::none())
    }

    /// [`BenchEnv::hidden_split`] with the dataset generation timed under a
    /// `dataset.generate.<name>` span.
    pub fn hidden_split_observed(
        &self,
        spec: &DatasetSpec,
        keep_directed: f64,
        seed: u64,
        obs: &ObserverHandle,
    ) -> HiddenDirections {
        let (g, _) = obs.time(&format!("dataset.generate.{}", spec.name), || {
            spec.generate(self.scale, seed).network
        });
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5011d);
        hide_directions(&g, keep_directed, &mut rng)
    }
}

/// DeepDirect configuration used across the figure binaries: paper
/// hyper-parameters with a wall-clock-bounding iteration cap (it only binds
/// on the densest datasets; `DD_SCALE=1` users should raise it), on one
/// thread. A serial fit is a pure function of its seed, so the
/// EXPERIMENTS.md figures do not depend on the host's core count; the
/// Hogwild E-Step is the one stage that would (DESIGN.md §7.9).
pub fn bench_deepdirect_config(dim: usize, seed: u64) -> DeepDirectConfig {
    DeepDirectConfig {
        dim,
        seed,
        max_iterations: Some(4_000_000),
        threads: 1,
        ..Default::default()
    }
}

/// The five-method suite at bench-friendly sizes.
pub fn bench_suite(seed: u64) -> Vec<Method> {
    use dd_baselines::{HfConfig, LineConfig, RedirectNConfig, RedirectTConfig};
    vec![
        Method::DeepDirect(bench_deepdirect_config(64, seed)),
        Method::Hf(HfConfig::default()),
        Method::Line(LineConfig {
            dim: 32,
            seed,
            max_iterations: Some(2_000_000),
            ..Default::default()
        }),
        Method::RedirectN(RedirectNConfig { seed, ..Default::default() }),
        Method::RedirectT(RedirectTConfig::default()),
    ]
}

/// Writes a simple CSV file (creating parent directories).
pub fn write_csv(path: &str, header: &str, rows: &[String]) -> std::io::Result<()> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut out = String::with_capacity(rows.len() * 32 + header.len() + 1);
    out.push_str(header);
    out.push('\n');
    for r in rows {
        out.push_str(r);
        out.push('\n');
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_datasets::twitter;

    #[test]
    fn env_defaults() {
        let env = BenchEnv::from_env();
        assert!(env.scale >= 1);
        assert!(env.n_seeds >= 1);
        assert!(env.out_path("x.csv").ends_with("/x.csv"));
    }

    #[test]
    fn hidden_split_respects_keep() {
        let env = BenchEnv { scale: 400, seed: 1, n_seeds: 1, out_dir: "/tmp".into() };
        let h = env.hidden_split(&twitter(), 0.3, 1);
        let d = h.network.counts().directed as f64;
        let u = h.network.counts().undirected as f64;
        let frac = d / (d + u);
        assert!((frac - 0.3).abs() < 0.05, "kept fraction {frac}");
    }

    #[test]
    fn observer_appends_to_unified_log() {
        let dir = std::env::temp_dir().join("dd_bench_obs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out_dir = dir.to_string_lossy().to_string();
        let path = format!("{out_dir}/telemetry.jsonl");
        std::fs::remove_file(&path).ok();
        let env = BenchEnv { scale: 400, seed: 1, n_seeds: 1, out_dir };
        {
            let obs = env.observer();
            assert!(obs.is_enabled());
            let h = env.hidden_split_observed(&twitter(), 0.5, 1, &obs);
            assert!(h.network.n_nodes() > 0);
            obs.flush();
        }
        {
            // A second handle (another figure binary) appends to the same log.
            let obs = env.observer();
            obs.on_span("phase.two", None, 0.1);
            obs.flush();
        }
        let events = dd_telemetry::read_jsonl(&path).unwrap();
        let names: Vec<_> = events.iter().filter_map(|e| e.name.as_deref()).collect();
        assert!(names.contains(&"dataset.generate.Twitter"), "names: {names:?}");
        assert!(names.contains(&"phase.two"), "append must unify streams");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn suite_and_config_are_sane() {
        let suite = bench_suite(1);
        assert_eq!(suite.len(), 5);
        let cfg = bench_deepdirect_config(64, 1);
        assert!(cfg.validate().is_ok());
    }

    /// Figure fits are serial on every host: two fits of one config agree
    /// bit for bit, which a Hogwild E-Step on a host with spare cores
    /// would not.
    #[test]
    fn figure_fits_are_reproducible() {
        let env = BenchEnv { scale: 400, seed: 1, n_seeds: 1, out_dir: "/tmp".into() };
        let h = env.hidden_split(&twitter(), 0.5, 3);
        let cfg =
            DeepDirectConfig { max_iterations: Some(40_000), ..bench_deepdirect_config(16, 3) };
        let fit = || deepdirect::DeepDirect::new(cfg.clone()).fit(&h.network).fingerprint();
        assert_eq!(fit(), fit());
    }
}
