//! Golden fingerprints of serial fits: a `threads: 1` fit is a pure
//! function of its seed, so the model fingerprint (shapes, ties, embedding
//! and context bytes, head parameters) is pinned bit for bit. A change to
//! the E-Step or D-Step loops that alters any RNG draw or any float
//! operation in either stage moves these values.

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use deepdirect::{DStepHead, DeepDirect, DeepDirectConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn serial_fingerprint(cfg: DeepDirectConfig) -> u64 {
    let mut rng = StdRng::seed_from_u64(2024);
    let net =
        social_network(&SocialNetConfig { n_nodes: 140, ..Default::default() }, &mut rng).network;
    let hidden = hide_directions(&net, 0.5, &mut rng).network;
    let cfg = DeepDirectConfig {
        dim: 16,
        threads: 1,
        max_iterations: Some(40_000),
        dstep_epochs: 8,
        seed: 77,
        ..cfg
    };
    DeepDirect::new(cfg).fit(&hidden).fingerprint()
}

#[test]
fn serial_logistic_fit_fingerprint_is_pinned() {
    let fp = serial_fingerprint(DeepDirectConfig::default());
    assert_eq!(fp, 0x9c44_fb4a_252f_7fee, "serial logistic fit fingerprint moved: {fp:#018x}");
}

#[test]
fn serial_context_mlp_fit_fingerprint_is_pinned() {
    let fp = serial_fingerprint(DeepDirectConfig {
        context_features: true,
        head: DStepHead::Mlp,
        mlp_hidden: 8,
        ..DeepDirectConfig::default()
    });
    assert_eq!(fp, 0xab4e_0fb5_2c77_29c2, "serial context+MLP fit fingerprint moved: {fp:#018x}");
}
