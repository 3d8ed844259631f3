//! End-to-end pipeline test: generate a dataset analog, hide directions,
//! fit DeepDirect, and verify the full TDL loop recovers directions far
//! better than chance — spanning dd-graph, dd-datasets, deepdirect and
//! dd-eval.

use dd_bench::BenchEnv;
use dd_datasets::tencent;
use dd_eval::runner::{direction_discovery_accuracy, Method};
use deepdirect::apps::discovery::{discover_directions, discovery_accuracy};
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel};

fn fast_cfg(seed: u64) -> DeepDirectConfig {
    DeepDirectConfig {
        dim: 32,
        max_iterations: Some(800_000),
        threads: 2,
        seed,
        ..Default::default()
    }
}

#[test]
fn deepdirect_recovers_directions_end_to_end() {
    let env = BenchEnv { scale: 250, seed: 7, n_seeds: 1, out_dir: "/tmp".into() };
    let hidden = env.hidden_split(&tencent(), 0.5, 7);
    let acc = direction_discovery_accuracy(&Method::DeepDirect(fast_cfg(7)), &hidden);
    assert!(acc > 0.62, "end-to-end accuracy {acc} too low");
}

#[test]
fn model_scores_agree_with_discovery_protocol() {
    let env = BenchEnv { scale: 300, seed: 8, n_seeds: 1, out_dir: "/tmp".into() };
    let hidden = env.hidden_split(&tencent(), 0.5, 8);
    let model = DeepDirect::new(fast_cfg(8)).fit(&hidden.network);
    let preds = discover_directions(&hidden.network, |u, v| model.score(u, v).unwrap_or(0.5));
    assert_eq!(preds.len(), hidden.network.counts().undirected);
    let acc = discovery_accuracy(&preds, &hidden.truth);
    // Every prediction respects Eq. 28: the reported orientation is the
    // higher-scoring one.
    for p in &preds {
        assert!(p.forward >= p.backward);
    }
    assert!(acc > 0.55, "accuracy {acc}");
}

#[test]
fn persisted_model_reproduces_predictions() {
    let env = BenchEnv { scale: 400, seed: 9, n_seeds: 1, out_dir: "/tmp".into() };
    let hidden = env.hidden_split(&tencent(), 0.5, 9);
    let model = DeepDirect::new(fast_cfg(9)).fit(&hidden.network);
    let mut buf = Vec::new();
    model.save_binary(&mut buf).unwrap();
    let loaded = DirectionalityModel::load(buf.as_slice()).unwrap();
    for (_, t) in hidden.network.iter_ties().take(100) {
        assert_eq!(model.score(t.src, t.dst), loaded.score(t.src, t.dst));
    }
}

#[test]
fn alpha_supervision_does_not_hurt_and_labels_help_dstep() {
    // With identical topology, the supervised model (α = 5) must stay in
    // the same accuracy band as the unsupervised E-Step followed by the
    // supervised D-Step; both must beat chance decisively.
    let env = BenchEnv { scale: 300, seed: 10, n_seeds: 1, out_dir: "/tmp".into() };
    let hidden = env.hidden_split(&tencent(), 0.3, 10);
    let sup = direction_discovery_accuracy(&Method::DeepDirect(fast_cfg(10)), &hidden);
    let mut unsup_cfg = fast_cfg(10);
    unsup_cfg.alpha = 0.0;
    unsup_cfg.beta = 0.0;
    let unsup = direction_discovery_accuracy(&Method::DeepDirect(unsup_cfg), &hidden);
    assert!(sup > 0.55 && unsup > 0.55, "sup {sup}, unsup {unsup}");
    assert!(sup + 0.08 > unsup, "supervision should not collapse accuracy: {sup} vs {unsup}");
}
