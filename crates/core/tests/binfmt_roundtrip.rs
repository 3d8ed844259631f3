//! Cross-format bit-compatibility acceptance: the same model exported to
//! JSON and to the binary container must produce **bit-identical** scores
//! for every tie — single-threaded and from 8 concurrent threads. This is
//! the contract that lets `dd serve` swap a JSON artifact for a `.ddm`
//! without any score drifting (`dd-cli`'s `serve_e2e` asserts the same
//! thing end-to-end over HTTP).

use std::sync::Arc;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fit_model(context_features: bool) -> DirectionalityModel {
    let gen_cfg = SocialNetConfig { n_nodes: 110, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(90);
    let net = social_network(&gen_cfg, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let cfg = DeepDirectConfig {
        dim: 20,
        max_iterations: Some(25_000),
        context_features,
        ..DeepDirectConfig::default()
    };
    DeepDirect::new(cfg).fit(&hidden)
}

/// Round-trips `model` through both formats and returns the two loaded
/// copies.
fn export_both(model: &DirectionalityModel) -> (DirectionalityModel, DirectionalityModel) {
    let mut json = Vec::new();
    model.save(&mut json).unwrap();
    let mut bin = Vec::new();
    model.save_binary(&mut bin).unwrap();
    let from_json = DirectionalityModel::load(json.as_slice()).unwrap();
    let from_bin = DirectionalityModel::load(bin.as_slice()).unwrap();
    (from_json, from_bin)
}

#[test]
fn json_and_binary_loads_score_bit_identically() {
    for context_features in [false, true] {
        let model = fit_model(context_features);
        let (from_json, from_bin) = export_both(&model);
        assert_eq!(from_json.n_ties(), from_bin.n_ties());
        assert_eq!(from_json.ties(), from_bin.ties());
        assert_eq!(
            from_json.fingerprint(),
            from_bin.fingerprint(),
            "fingerprints must agree across formats (context={context_features})"
        );
        for row in 0..from_json.n_ties() {
            assert_eq!(
                from_json.score_row(row).to_bits(),
                from_bin.score_row(row).to_bits(),
                "score diverged between JSON and binary at row {row} \
                 (context={context_features})"
            );
        }
    }
}

#[test]
fn cross_format_scores_are_bit_identical_across_8_threads() {
    let model = fit_model(false);
    let (from_json, from_bin) = export_both(&model);
    let n = from_json.n_ties();

    // Reference: single-threaded scores from the JSON-loaded copy.
    let expected: Vec<u64> = (0..n).map(|r| from_json.score_row(r).to_bits()).collect();

    // 8 threads score the *binary-loaded* copy concurrently, each with a
    // staggered iteration order; every bit must match the reference.
    let from_bin = Arc::new(from_bin);
    const N_THREADS: usize = 8;
    let results: Vec<Vec<u64>> = dd_runtime::scope(|s| {
        let handles: Vec<_> = (0..N_THREADS)
            .map(|t| {
                let m = Arc::clone(&from_bin);
                s.spawn(move || {
                    (0..n).map(|i| m.score_row((i + t * 31) % n).to_bits()).collect::<Vec<u64>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("scoring thread panicked")).collect()
    });
    for (t, bits) in results.iter().enumerate() {
        for (i, &b) in bits.iter().enumerate() {
            let row = (i + t * 31) % n;
            assert_eq!(b, expected[row], "thread {t} diverged from JSON reference at row {row}");
        }
    }
}
