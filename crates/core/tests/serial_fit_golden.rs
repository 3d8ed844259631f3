//! Golden pins of serial fits: a `threads: 1` fit is a pure function of its
//! seed, so two independent views of the fitted model are pinned bit for
//! bit. The `.ddm` bytes (length and CRC-32 of `save_binary`) pin the fit
//! and the encoder without depending on the fingerprint hash; the model
//! fingerprint (shapes, ties, embedding and context bytes, head parameters)
//! pins the fingerprint over the same content. A change to the E-Step or
//! D-Step loops that alters any RNG draw or any float operation in either
//! stage moves both.

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_linalg::bytes::crc32;
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn serial_fit(cfg: DeepDirectConfig) -> DirectionalityModel {
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
    DeepDirect::new(cfg).fit(&hidden)
}

/// The `context_features` extension: the D-Step reads `[m_e ‖ n_e]`.
fn context() -> DeepDirectConfig {
    DeepDirectConfig { context_features: true, ..DeepDirectConfig::default() }
}

/// Byte length and CRC-32 of the model's `.ddm` encoding.
fn ddm_pin(model: &DirectionalityModel) -> (usize, u32) {
    let mut bytes = Vec::new();
    model.save_binary(&mut bytes).expect("encoding to a Vec cannot fail");
    (bytes.len(), crc32(&bytes))
}

#[test]
fn serial_logistic_fit_fingerprint_is_pinned() {
    let fp = serial_fit(DeepDirectConfig::default()).fingerprint();
    assert_eq!(fp, 0x2854_9807_a439_a267, "serial logistic fit fingerprint moved: {fp:#018x}");
}

#[test]
fn serial_context_logistic_fit_fingerprint_is_pinned() {
    let fp = serial_fit(context()).fingerprint();
    assert_eq!(
        fp, 0xfe4b_997d_d32a_17f8,
        "serial context+logistic fit fingerprint moved: {fp:#018x}"
    );
}

#[test]
fn serial_logistic_fit_ddm_bytes_are_pinned() {
    let (len, crc) = ddm_pin(&serial_fit(DeepDirectConfig::default()));
    assert_eq!(
        (len, crc),
        (99_584, 0x3345_c1f9),
        "serial logistic .ddm moved: ({len}, {crc:#010x})"
    );
}

#[test]
fn serial_context_logistic_fit_ddm_bytes_are_pinned() {
    let (len, crc) = ddm_pin(&serial_fit(context()));
    assert_eq!(
        (len, crc),
        (187_712, 0x9e1e_1b21),
        "serial context+logistic .ddm moved: ({len}, {crc:#010x})"
    );
}
