//! Save/load bit-compatibility acceptance: a fitted model and the same model
//! loaded back from its `.ddm` must produce **bit-identical** scores for
//! every tie — single-threaded and from 8 concurrent threads. This is the
//! contract that lets `dd train` hand its artifact to `dd serve` without any
//! score drifting (`dd-cli`'s `serve_e2e` asserts the same thing end-to-end
//! over HTTP).

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

/// Round-trips `model` through its `.ddm` bytes.
fn reload(model: &DirectionalityModel) -> DirectionalityModel {
    let mut bin = Vec::new();
    model.save_binary(&mut bin).unwrap();
    DirectionalityModel::load(bin.as_slice()).unwrap()
}

#[test]
fn fitted_and_ddm_loaded_models_score_bit_identically() {
    for context_features in [false, true] {
        let fitted = fit_model(context_features);
        let loaded = reload(&fitted);
        assert_eq!(fitted.n_ties(), loaded.n_ties());
        assert_eq!(fitted.ties(), loaded.ties());
        assert_eq!(
            fitted.fingerprint(),
            loaded.fingerprint(),
            "fingerprints must survive the round trip (context={context_features})"
        );
        for row in 0..fitted.n_ties() {
            assert_eq!(
                fitted.score_row(row).to_bits(),
                loaded.score_row(row).to_bits(),
                "score diverged between fitted and .ddm-loaded at row {row} \
                 (context={context_features})"
            );
        }
    }
}

#[test]
fn ddm_loaded_scores_are_bit_identical_across_8_threads() {
    let fitted = fit_model(false);
    let loaded = reload(&fitted);
    let n = fitted.n_ties();

    // Reference: single-threaded scores from the fitted model.
    let expected: Vec<u64> = (0..n).map(|r| fitted.score_row(r).to_bits()).collect();

    // 8 threads score the *loaded* copy concurrently, each with a staggered
    // iteration order; every bit must match the reference.
    let loaded = Arc::new(loaded);
    const N_THREADS: usize = 8;
    let results: Vec<Vec<u64>> = dd_runtime::scope(|s| {
        let handles: Vec<_> = (0..N_THREADS)
            .map(|t| {
                let m = Arc::clone(&loaded);
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
            assert_eq!(b, expected[row], "thread {t} diverged from the fitted model at row {row}");
        }
    }
}

/// A writer that takes `room` bytes, then fails every write, like a disk
/// that fills up mid-file.
struct FailAfter {
    room: usize,
}

impl std::io::Write for FailAfter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.room == 0 {
            return Err(std::io::Error::other("no space left"));
        }
        let n = buf.len().min(self.room);
        self.room -= n;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn save_binary_reports_a_writer_that_fails_at_any_section_boundary() {
    use deepdirect::binfmt::{ENTRY_LEN, HEADER_LEN};
    let model = fit_model(true);
    let mut bin = Vec::new();
    model.save_binary(&mut bin).unwrap();
    let n_sections = u32::from_le_bytes(bin[16..20].try_into().unwrap()) as usize;
    assert_eq!(n_sections, 5, "a context model writes every section kind");
    let mut boundaries = vec![0, HEADER_LEN, HEADER_LEN + n_sections * ENTRY_LEN, bin.len()];
    for i in 0..n_sections {
        let e = HEADER_LEN + i * ENTRY_LEN;
        let off = u64::from_le_bytes(bin[e + 8..e + 16].try_into().unwrap()) as usize;
        let len = u64::from_le_bytes(bin[e + 16..e + 24].try_into().unwrap()) as usize;
        boundaries.extend([off, off + len]);
    }
    for k in boundaries.iter().flat_map(|&b| [b.saturating_sub(1), b, b + 1]) {
        let result = model.save_binary(FailAfter { room: k });
        if k < bin.len() {
            assert!(result.is_err(), "a write failing after {k} of {} bytes", bin.len());
        } else {
            assert!(result.is_ok(), "{k} bytes of room hold the {}-byte file", bin.len());
        }
    }
}
