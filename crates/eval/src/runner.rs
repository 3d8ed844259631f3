//! Experiment harness shared by every figure/table binary: a method
//! registry, the direction-discovery protocol, and JSON result rows.

use dd_baselines::traits::{DirectionalityLearner, TieScorer};
use dd_baselines::{
    HfConfig, HfLearner, LineConfig, LineLearner, RedirectNConfig, RedirectNLearner,
    RedirectTConfig, RedirectTLearner,
};
use dd_graph::sampling::HiddenDirections;
use dd_graph::{MixedSocialNetwork, NodeId};
use dd_runtime::{Pool, Threads};
use dd_telemetry::ObserverHandle;
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel};
use serde::{Deserialize, Serialize};

/// A directionality-learning method under evaluation.
#[derive(Debug, Clone)]
pub enum Method {
    /// DeepDirect (Sec. 4).
    DeepDirect(DeepDirectConfig),
    /// Handcrafted features + logistic regression (Sec. 3).
    Hf(HfConfig),
    /// LINE node embedding + endpoint concatenation.
    Line(LineConfig),
    /// ReDirect-N/sm.
    RedirectN(RedirectNConfig),
    /// ReDirect-T/sm.
    RedirectT(RedirectTConfig),
}

/// Scorer wrapper for a fitted [`DirectionalityModel`].
pub struct DeepDirectScorer(pub DirectionalityModel);

impl TieScorer for DeepDirectScorer {
    fn score(&self, u: NodeId, v: NodeId) -> f64 {
        self.0.score(u, v).unwrap_or(0.5)
    }
}

impl Method {
    /// Method name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Method::DeepDirect(_) => "DeepDirect",
            Method::Hf(_) => "HF",
            Method::Line(_) => "LINE",
            Method::RedirectN(_) => "ReDirect-N/sm",
            Method::RedirectT(_) => "ReDirect-T/sm",
        }
    }

    /// Fits the method on `g` and returns a directionality scorer.
    pub fn fit(&self, g: &MixedSocialNetwork) -> Box<dyn TieScorer> {
        self.fit_observed(g, &ObserverHandle::none())
    }

    /// [`Method::fit`] with telemetry: the whole fit runs under a
    /// `fit.<method>` span, and DeepDirect additionally gets `obs` injected
    /// into its config so E-Step progress and D-Step epochs land in the same
    /// sink as the harness spans.
    pub fn fit_observed(&self, g: &MixedSocialNetwork, obs: &ObserverHandle) -> Box<dyn TieScorer> {
        let span = obs.span(&format!("fit.{}", self.name()));
        let scorer: Box<dyn TieScorer> = match self {
            Method::DeepDirect(cfg) => {
                let mut cfg = cfg.clone();
                cfg.observer = obs.clone();
                let model = DeepDirect::new(cfg).fit(g);
                Box::new(DeepDirectScorer(model))
            }
            Method::Hf(cfg) => HfLearner::new(cfg.clone()).fit(g),
            Method::Line(cfg) => LineLearner::new(cfg.clone()).fit(g),
            Method::RedirectN(cfg) => RedirectNLearner::new(cfg.clone()).fit(g),
            Method::RedirectT(cfg) => RedirectTLearner::new(cfg.clone()).fit(g),
        };
        span.finish();
        scorer
    }

    /// The full five-method suite of the paper's comparison at
    /// bench-friendly parameters (dimensions scaled down from the paper's
    /// 128 to keep the full evaluation matrix tractable; the ratio between
    /// methods follows Sec. 6.1 — LINE gets half DeepDirect's dimension,
    /// ReDirect-N gets `Z = 40`).
    pub fn suite(dim: usize, seed: u64) -> Vec<Method> {
        vec![
            Method::DeepDirect(DeepDirectConfig { dim, seed, ..Default::default() }),
            Method::Hf(HfConfig::default()),
            Method::Line(LineConfig { dim: dim / 2, seed, ..Default::default() }),
            Method::RedirectN(RedirectNConfig { seed, ..Default::default() }),
            Method::RedirectT(RedirectTConfig::default()),
        ]
    }
}

/// Runs the direction-discovery protocol (Sec. 6.2): fit on the hidden
/// network, predict every undirected tie per Eq. 28, return accuracy.
pub fn direction_discovery_accuracy(method: &Method, hidden: &HiddenDirections) -> f64 {
    direction_discovery_accuracy_observed(method, hidden, &ObserverHandle::none())
}

/// [`direction_discovery_accuracy`] with fit and prediction phases timed
/// through `obs` (spans `fit.<method>` and `eval.discovery`).
pub fn direction_discovery_accuracy_observed(
    method: &Method,
    hidden: &HiddenDirections,
    obs: &ObserverHandle,
) -> f64 {
    let scorer = method.fit_observed(&hidden.network, obs);
    let (acc, _) = obs.time("eval.discovery", || scorer_accuracy(scorer.as_ref(), hidden));
    acc
}

/// Runs the direction-discovery protocol for several methods concurrently
/// on `threads` workers, returning `(name, accuracy)` in input order.
///
/// Each method's fit is independent (fits share only the read-only hidden
/// network), so the result is identical at any thread count as long as each
/// individual fit is deterministic (keep per-method `threads == 1` configs
/// when comparing runs; see DESIGN.md §7.9 for the Hogwild exemption).
pub fn evaluate_methods(
    methods: &[Method],
    hidden: &HiddenDirections,
    threads: Threads,
    obs: &ObserverHandle,
) -> Vec<(&'static str, f64)> {
    let pool = Pool::new("eval.methods", threads);
    pool.par_map(methods.len(), |i| {
        (methods[i].name(), direction_discovery_accuracy_observed(&methods[i], hidden, obs))
    })
}

/// Accuracy of an already-fitted scorer under the protocol of Sec. 6.2.
pub fn scorer_accuracy(scorer: &dyn TieScorer, hidden: &HiddenDirections) -> f64 {
    use deepdirect::apps::discovery::{discover_directions, discovery_accuracy};
    let preds = discover_directions(&hidden.network, |u, v| scorer.score(u, v));
    discovery_accuracy(&preds, &hidden.truth)
}

/// One experiment result row, serialized as JSON lines so EXPERIMENTS.md can
/// quote exact values.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRow {
    /// Experiment id, e.g. `"fig3"`.
    pub experiment: String,
    /// Dataset name.
    pub dataset: String,
    /// Method name.
    pub method: String,
    /// X-axis parameter name (e.g. `"percent_directed"`).
    pub x_name: String,
    /// X-axis value.
    pub x: f64,
    /// Measured value (accuracy, AUC, seconds, …).
    pub value: f64,
    /// Random seed used.
    pub seed: u64,
}

/// Collects rows and renders/persists them.
#[derive(Debug, Default)]
pub struct ResultSink {
    rows: Vec<ExperimentRow>,
}

impl ResultSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a row (also echoed to stdout as a progress line).
    pub fn push(&mut self, row: ExperimentRow) {
        println!(
            "  {} | {} | {} | {}={:.3} -> {:.4}",
            row.experiment, row.dataset, row.method, row.x_name, row.x, row.value
        );
        self.rows.push(row);
    }

    /// All collected rows.
    pub fn rows(&self) -> &[ExperimentRow] {
        &self.rows
    }

    /// Writes rows as JSON lines to `path` (creating parent directories).
    pub fn write_jsonl(&self, path: &str) -> std::io::Result<()> {
        if let Some(parent) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut out = String::new();
        for row in &self.rows {
            out.push_str(&serde_json::to_string(row).expect("rows serialize"));
            out.push('\n');
        }
        std::fs::write(path, out)
    }

    /// Renders a `dataset × method` pivot for one x value as an ASCII table.
    /// A cell is the mean over every matching row, so over all seeds run.
    pub fn pivot_table(&self, experiment: &str, x: f64) -> String {
        let rows: Vec<&ExperimentRow> = self
            .rows
            .iter()
            .filter(|r| r.experiment == experiment && (r.x - x).abs() < 1e-9)
            .collect();
        let mut datasets: Vec<&str> = Vec::new();
        let mut methods: Vec<&str> = Vec::new();
        for r in &rows {
            if !datasets.contains(&r.dataset.as_str()) {
                datasets.push(&r.dataset);
            }
            if !methods.contains(&r.method.as_str()) {
                methods.push(&r.method);
            }
        }
        // Each cell is the mean over its seeds, or "-" when empty.
        let cells: Vec<Vec<String>> = datasets
            .iter()
            .map(|d| {
                methods
                    .iter()
                    .map(|m| {
                        let cell: Vec<f64> = rows
                            .iter()
                            .filter(|r| r.dataset == *d && r.method == *m)
                            .map(|r| r.value)
                            .collect();
                        if cell.is_empty() {
                            "-".to_string()
                        } else {
                            format!("{:.4}", cell.iter().sum::<f64>() / cell.len() as f64)
                        }
                    })
                    .collect()
            })
            .collect();
        // Every column is one space wider than its longest entry, so
        // neighbouring names never run together.
        let label =
            datasets.iter().map(|d| d.len()).chain(["dataset".len()]).max().unwrap_or(0) + 1;
        let width = methods
            .iter()
            .map(|m| m.len())
            .chain(cells.iter().flatten().map(String::len))
            .max()
            .unwrap_or(0)
            + 1;
        let mut s = format!("{experiment} @ x={x}\n{:<label$}", "dataset");
        for m in &methods {
            s.push_str(&format!("{m:>width$}"));
        }
        s.push('\n');
        for (d, row) in datasets.iter().zip(&cells) {
            s.push_str(&format!("{d:<label$}"));
            for cell in row {
                s.push_str(&format!("{cell:>width$}"));
            }
            s.push('\n');
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::sampling::hide_directions;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn suite_has_five_methods() {
        let suite = Method::suite(32, 1);
        assert_eq!(suite.len(), 5);
        let names: Vec<&str> = suite.iter().map(|m| m.name()).collect();
        assert_eq!(names, vec!["DeepDirect", "HF", "LINE", "ReDirect-N/sm", "ReDirect-T/sm"]);
    }

    #[test]
    fn discovery_protocol_runs_for_fast_methods() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = social_network(&SocialNetConfig { n_nodes: 120, ..Default::default() }, &mut rng)
            .network;
        let hidden = hide_directions(&g, 0.5, &mut rng);
        let m = Method::Hf(HfConfig::default());
        let acc = direction_discovery_accuracy(&m, &hidden);
        assert!((0.0..=1.0).contains(&acc));
        assert!(acc > 0.5, "HF beats chance: {acc}");
    }

    #[test]
    fn evaluate_methods_parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = social_network(&SocialNetConfig { n_nodes: 100, ..Default::default() }, &mut rng)
            .network;
        let hidden = hide_directions(&g, 0.5, &mut rng);
        let methods = vec![
            Method::Hf(HfConfig::default()),
            Method::RedirectN(RedirectNConfig::default()),
            Method::RedirectT(RedirectTConfig::default()),
        ];
        let obs = ObserverHandle::none();
        let serial = evaluate_methods(&methods, &hidden, Threads::serial(), &obs);
        let parallel = evaluate_methods(&methods, &hidden, Threads::new(4).unwrap(), &obs);
        assert_eq!(serial.len(), 3);
        for ((n1, a1), (n2, a2)) in serial.iter().zip(&parallel) {
            assert_eq!(n1, n2);
            assert_eq!(a1.to_bits(), a2.to_bits(), "{n1}");
        }
    }

    #[test]
    fn observed_fit_emits_method_span_and_forwards_observer() {
        use dd_telemetry::{Event, TrainObserver};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Capture(Mutex<Vec<Event>>);
        impl TrainObserver for Capture {
            fn on_event(&self, e: &Event) {
                self.0.lock().unwrap().push(e.clone());
            }
        }

        let mut rng = StdRng::seed_from_u64(9);
        let g = social_network(&SocialNetConfig { n_nodes: 80, ..Default::default() }, &mut rng)
            .network;
        let hidden = hide_directions(&g, 0.5, &mut rng);
        let cap = Arc::new(Capture::default());
        let obs = ObserverHandle::new(cap.clone());

        let mut cfg = DeepDirectConfig::fast();
        cfg.dim = 8;
        cfg.max_iterations = Some(3_000);
        let acc = direction_discovery_accuracy_observed(&Method::DeepDirect(cfg), &hidden, &obs);
        assert!((0.0..=1.0).contains(&acc));

        let events = cap.0.lock().unwrap();
        let spans: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == dd_telemetry::kind::SPAN)
            .filter_map(|e| e.name.as_deref())
            .collect();
        assert!(spans.contains(&"fit.DeepDirect"), "method span missing: {spans:?}");
        assert!(spans.contains(&"estep.train"), "observer not forwarded into config");
        assert!(spans.contains(&"eval.discovery"), "eval span missing: {spans:?}");
        assert!(
            events.iter().any(|e| e.kind == dd_telemetry::kind::ESTEP_SUMMARY),
            "E-Step summary should flow to the harness sink"
        );
    }

    #[test]
    fn sink_round_trips_and_pivots() {
        let mut sink = ResultSink::new();
        for (d, m, v, seed) in
            [("A", "HF", 0.7, 1), ("A", "LINE", 0.6, 1), ("B", "HF", 0.8, 1), ("A", "LINE", 0.5, 2)]
        {
            sink.push(ExperimentRow {
                experiment: "fig3".into(),
                dataset: d.into(),
                method: m.into(),
                x_name: "pct".into(),
                x: 0.5,
                value: v,
                seed,
            });
        }
        assert_eq!(sink.rows().len(), 4);
        let table = sink.pivot_table("fig3", 0.5);
        assert!(table.contains("HF"));
        assert!(table.contains("0.7000"));
        assert!(table.contains("0.5500"), "a cell is the mean over its seeds:\n{table}");
        assert!(!table.contains("0.6000"), "not the first seed's value:\n{table}");
        assert!(table.contains('-'), "missing cell renders as dash");
        // Names longer than the old fixed 16-column cells stay apart, and
        // every value ends under the end of its method's name.
        sink.push(ExperimentRow {
            experiment: "fig3".into(),
            dataset: "A".into(),
            method: "threshold_off_strict".into(),
            x_name: "pct".into(),
            x: 0.5,
            value: 0.25,
            seed: 1,
        });
        let table = sink.pivot_table("fig3", 0.5);
        let lines: Vec<&str> = table.lines().collect();
        let header: Vec<&str> = lines[1].split_whitespace().collect();
        assert_eq!(header, ["dataset", "HF", "LINE", "threshold_off_strict"], "{table}");
        let name_end = lines[1].len();
        assert_eq!(lines[2].len(), name_end, "row A's last value is misaligned:\n{table}");
        assert!(lines[2].ends_with(" 0.2500"), "{table}");
        assert_eq!(lines[3].len(), name_end, "row B's dash is misaligned:\n{table}");
        assert!(lines[3].ends_with(" -"), "{table}");
        sink.rows.pop();
        let dir = std::env::temp_dir().join("dd_eval_sink_test");
        let path = dir.join("rows.jsonl").to_string_lossy().to_string();
        sink.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 4);
        let row: ExperimentRow = serde_json::from_str(text.lines().next().unwrap()).unwrap();
        assert_eq!(row.method, "HF");
        std::fs::remove_file(&path).ok();
    }
}
