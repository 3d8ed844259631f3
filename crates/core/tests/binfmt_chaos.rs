//! Fuzz-style hostile-input sweeps for the `.ddm` model loader.
//!
//! 2000 seeded corruptions of a valid `.ddm` go through the loader. The
//! contract: every buffer that still differs from the pristine file must
//! produce a typed `Err` naming the offending section or structural region
//! — and nothing may panic. (A few strategies can no-op — e.g. a byte flip
//! writing the byte already there — those must load and score identically.)
//!
//! A second sweep corrupts only the JSON of the `meta` section, the one
//! JSON document the loader parses, and rebuilds a container whose
//! checksums and offsets are all valid, so only the meta parse and the
//! shape checks stand between the corruption and a loaded model.
//!
//! Every input also goes through the streaming loader a shard uses,
//! `ScoreTable::load`. It must give the same verdict: the same error, or
//! the same fingerprint with every row score bit-identical to the loaded
//! model's and every head score bit-identical to its definition over the
//! loaded model.

use std::collections::BTreeMap;
use std::io::Cursor;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::NodeId;
use dd_linalg::bytes::{crc32, BLOCK_ALIGN};
use dd_linalg::kernels::dot8_f64;
use dd_linalg::{sigmoid64, Pcg32};
use dd_testkit::gen::{corrupt_binary, corrupt_json};
use deepdirect::binfmt::{section, ENTRY_LEN, HEADER_LEN};
use deepdirect::{
    DeepDirect, DeepDirectConfig, DirectionalityHead, DirectionalityModel, ScoreTable,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every region/section name the loader's errors are allowed to cite. An
/// error naming none of these is a vague error and fails the sweep.
const KNOWN_REGIONS: &[&str] = &[
    "header",
    "section table",
    "section count",
    "magic",
    "format version",
    "schema version",
    "'meta'",
    "'tie.src'",
    "'tie.dst'",
    "'embeddings'",
    "'contexts'",
    "unknown section",
    "trailing bytes",
    "reading model",
];

/// Each head's fold-in score by its definition: the sigmoid of the mean
/// embedding-half logit of its in-rows plus the bias, the logits summed in
/// f64 in `(src, dst, row)` order.
fn head_means(model: &DirectionalityModel) -> BTreeMap<u32, f64> {
    let DirectionalityHead::Logistic(lr) = model.head();
    let mut rows: Vec<usize> = (0..model.n_ties()).collect();
    rows.sort_by_key(|&row| (model.ties()[row], row));
    let mut sums = BTreeMap::new();
    for row in rows {
        let (sum, n) = sums.entry(model.ties()[row].1).or_insert((0.0, 0u32));
        *sum += dot8_f64(&lr.w[..model.dim()], model.embedding_row(row));
        *n += 1;
    }
    let b = f64::from(lr.b);
    sums.into_iter().map(|(v, (sum, n))| (v, sigmoid64(sum / f64::from(n) + b))).collect()
}

/// Loads `bytes` both ways, as a whole model and as the score table a
/// shard streams, and checks that the two loaders agree.
fn load_both(bytes: &[u8], what: &str) -> Result<DirectionalityModel, String> {
    let model = DirectionalityModel::load(bytes);
    match (&model, ScoreTable::load(Cursor::new(bytes), true)) {
        (Err(whole), Err(streamed)) => assert_eq!(whole, &streamed, "{what}: the errors differ"),
        (Ok(model), Ok(table)) => {
            assert_eq!(table.fingerprint(), model.fingerprint(), "{what}: fingerprint");
            assert_eq!(table.n_ties(), model.n_ties(), "{what}: ties");
            for row in 0..model.n_ties() {
                let (got, want) = (table.row_score(row), model.score_row(row));
                assert_eq!(got.to_bits(), want.to_bits(), "{what}: row {row}");
            }
            for (v, want) in head_means(model) {
                let got = table.head_score(NodeId(v));
                assert_eq!(got.map(f64::to_bits), Some(want.to_bits()), "{what}: head {v}");
            }
        }
        (Ok(_), Err(e)) => panic!("{what}: the model loads, the table fails: {e}"),
        (Err(e), Ok(_)) => panic!("{what}: the table loads, the model fails: {e}"),
    }
    model
}

fn valid_container() -> (DirectionalityModel, Vec<u8>) {
    let gen_cfg = SocialNetConfig { n_nodes: 70, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(501);
    let net = social_network(&gen_cfg, &mut rng).network;
    let cfg =
        DeepDirectConfig { dim: 12, max_iterations: Some(8_000), ..DeepDirectConfig::default() };
    let model = DeepDirect::new(cfg).fit(&net);
    let mut bytes = Vec::new();
    model.save_binary(&mut bytes).unwrap();
    (model, bytes)
}

#[test]
fn loader_survives_2000_corrupt_binaries_with_typed_errors() {
    let (model, valid) = valid_container();
    assert!(load_both(&valid, "pristine").is_ok(), "pristine file must load");

    let mut n_err = 0usize;
    let mut n_noop = 0usize;
    for seed in 0..2000u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mangled = corrupt_binary(&mut rng, &valid);
        if mangled == valid {
            n_noop += 1;
            continue;
        }
        match load_both(&mangled, &format!("seed {seed}")) {
            Err(e) => {
                n_err += 1;
                assert!(
                    KNOWN_REGIONS.iter().any(|r| e.contains(r)),
                    "seed {seed}: error does not name a known region/section: {e}"
                );
            }
            Ok(loaded) => {
                // Corruption survived validation — only acceptable if it was
                // semantically invisible (e.g. a flip restoring a byte):
                // every score must be bit-identical to the original.
                assert_eq!(loaded.n_ties(), model.n_ties(), "seed {seed}: ties changed");
                for row in 0..model.n_ties() {
                    assert_eq!(
                        loaded.score_row(row).to_bits(),
                        model.score_row(row).to_bits(),
                        "seed {seed}: corrupted-but-accepted file scores differently at row {row}"
                    );
                }
            }
        }
    }
    // The sweep is only meaningful if corruption overwhelmingly produced
    // typed rejections.
    assert!(n_err >= 1800, "expected ≥1800 rejections out of 2000, got {n_err} ({n_noop} no-ops)");
}

#[test]
fn loader_rejects_short_and_empty_buffers() {
    for bytes in [&b""[..], &b"\x89"[..], &b"\x89DDMDL\r\n"[..]] {
        let err = load_both(bytes, "short buffer").unwrap_err();
        assert!(
            KNOWN_REGIONS.iter().any(|r| err.contains(r)),
            "short buffer error is vague: {err}"
        );
    }
}

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap())
}

fn read_u64(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
}

/// The sections of a valid container as `(kind, payload)`, in table order.
fn sections(valid: &[u8]) -> Vec<(u32, Vec<u8>)> {
    (0..read_u32(valid, 16) as usize)
        .map(|i| {
            let e = HEADER_LEN + i * ENTRY_LEN;
            let (off, len) = (read_u64(valid, e + 8) as usize, read_u64(valid, e + 16) as usize);
            (read_u32(valid, e), valid[off..off + len].to_vec())
        })
        .collect()
}

/// Lays `sections` out as a container the way the encoder does (DESIGN.md
/// §7.13): meta right after the table, numeric sections on 64-byte
/// boundaries, every section CRC and the table CRC recomputed.
fn assemble(valid: &[u8], sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let table_end = HEADER_LEN + sections.len() * ENTRY_LEN;
    let mut cursor = table_end;
    let mut table = Vec::new();
    let mut offsets = Vec::new();
    for (kind, payload) in sections {
        if *kind != section::META {
            cursor = cursor.div_ceil(BLOCK_ALIGN) * BLOCK_ALIGN;
        }
        offsets.push(cursor);
        table.extend_from_slice(&kind.to_le_bytes());
        table.extend_from_slice(&crc32(payload).to_le_bytes());
        table.extend_from_slice(&(cursor as u64).to_le_bytes());
        table.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        cursor += payload.len();
    }
    let mut out = valid[..20].to_vec();
    out.extend_from_slice(&crc32(&table).to_le_bytes());
    out.extend_from_slice(&table);
    for ((_, payload), off) in sections.iter().zip(offsets) {
        out.resize(off, 0);
        out.extend_from_slice(payload);
    }
    out
}

#[test]
fn loader_survives_2000_corrupt_meta_sections_with_typed_errors() {
    let (model, valid) = valid_container();
    let parts = sections(&valid);
    assert_eq!(assemble(&valid, &parts), valid, "reassembly must be the identity");
    let meta_at = parts.iter().position(|(k, _)| *k == section::META).expect("a meta section");
    let meta = String::from_utf8(parts[meta_at].1.clone()).expect("meta is UTF-8 JSON");

    // Only the meta parse and the shape checks may reject these files, so
    // every error must name one of them.
    const META_OR_SHAPE: &[&str] =
        &["'meta'", "'tie.src'", "'tie.dst'", "'embeddings'", "'contexts'", "schema version"];
    let mut n_err = 0usize;
    for seed in 0..2000u64 {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut mangled = parts.clone();
        mangled[meta_at].1 = corrupt_json(&mut rng, &meta);
        match load_both(&assemble(&valid, &mangled), &format!("meta seed {seed}")) {
            Err(e) => {
                n_err += 1;
                assert!(
                    META_OR_SHAPE.iter().any(|r| e.contains(r)),
                    "seed {seed}: error names neither meta nor a shape check: {e}"
                );
            }
            Ok(loaded) => {
                // A corruption the parser accepts (e.g. whitespace, or a
                // changed training counter) still yields a usable model.
                assert_eq!(loaded.n_ties(), model.n_ties(), "seed {seed}");
                for row in 0..loaded.n_ties() {
                    let d = loaded.score_row(row);
                    assert!((0.0..=1.0).contains(&d), "seed {seed}: row {row} scores {d}");
                }
            }
        }
    }
    assert!(n_err >= 1800, "expected ≥1800 rejections out of 2000, got {n_err}");
}

/// Meta JSON that parses but describes other blocks, or a head this build
/// does not read, is a typed error, not a model whose scoring or fold-in
/// would later slice out of bounds.
#[test]
fn loader_rejects_meta_that_disagrees_with_the_blocks() {
    let (_, valid) = valid_container();
    let parts = sections(&valid);
    let meta_at = parts.iter().position(|(k, _)| *k == section::META).unwrap();
    let meta = String::from_utf8(parts[meta_at].1.clone()).unwrap();
    // The config block repeats the top-level `"dim":12`; the second one is
    // the config's.
    let cfg_dim = meta.match_indices("\"dim\":12").nth(1).expect("a config dim").0;
    // The one-hidden-layer MLP head that older builds could write, sized for
    // these 12-dim blocks; its weights must not be echoed back.
    let w1 = ["0.8125"; 12].join(",");
    let mlp = format!(
        r#""head":{{"Mlp":{{"w1":{{"rows":1,"cols":12,"data":[{w1}]}},"b1":[0.0],"w2":[0.8125],"b2":0.0}}}},"#
    );
    let head_at = meta.find("\"head\":{\"Logistic\"").expect("a logistic head");
    let head_end = meta.find("\"estep_iterations\"").expect("the counter after the head");
    let edits = [
        (
            "config dim",
            format!("{}\"dim\":13{}", &meta[..cfg_dim], &meta[cfg_dim + 8..]),
            "disagree",
        ),
        (
            "context flag",
            meta.replace("\"context_features\":false", "\"context_features\":true"),
            "disagree",
        ),
        ("head width", meta.replacen("\"w\":[", "\"w\":[0.5,", 1), "disagree"),
        ("MLP head", format!("{}{mlp}{}", &meta[..head_at], &meta[head_end..]), "MLP"),
    ];
    for (what, edited, names) in edits {
        assert_ne!(edited, meta, "{what}: the edit must change the meta");
        let mut mangled = parts.clone();
        mangled[meta_at].1 = edited.into_bytes();
        let err = load_both(&assemble(&valid, &mangled), what)
            .err()
            .unwrap_or_else(|| panic!("{what}: a mismatched meta loaded"));
        assert!(err.contains("'meta'") && err.contains(names), "{what}: {err}");
        assert!(!err.contains("0.8125"), "{what}: the error echoes head weights: {err}");
    }
}

/// A head under a tag this build does not know fails naming the tag alone,
/// not the head's weights.
#[test]
fn loader_names_an_unknown_head_tag_without_its_weights() {
    let (_, valid) = valid_container();
    let mut parts = sections(&valid);
    let meta_at = parts.iter().position(|(k, _)| *k == section::META).unwrap();
    let meta = String::from_utf8(parts[meta_at].1.clone()).unwrap();
    let weights_at = meta.find("{\"Logistic\":{\"w\":[").expect("a logistic head") + 18;
    let weights_end = weights_at + meta[weights_at..].find(']').unwrap();
    let weights: Vec<&str> = meta[weights_at..weights_end].split(',').collect();
    assert_eq!(weights.len(), 12, "the head's weights: {weights:?}");
    parts[meta_at].1 = meta.replacen("{\"Logistic\":", "{\"Logistix\":", 1).into_bytes();
    let err = load_both(&assemble(&valid, &parts), "unknown head tag")
        .err()
        .unwrap_or_else(|| panic!("an unknown head tag loaded"));
    assert!(err.contains("'meta'") && err.contains("Logistix"), "{err}");
    for w in weights {
        assert!(!err.contains(w), "the error echoes head weight {w}: {err}");
    }
}

/// Earlier builds wrote the config with a `head` selector and an MLP width.
/// Those fields are ignored on load: the same model, fingerprint and scores.
#[test]
fn loader_reads_meta_written_before_the_single_head() {
    let (model, valid) = valid_container();
    let mut parts = sections(&valid);
    let meta_at = parts.iter().position(|(k, _)| *k == section::META).unwrap();
    let meta = String::from_utf8(parts[meta_at].1.clone()).unwrap();
    let at = meta.find("\"dstep_epochs\"").expect("a config dstep_epochs");
    let old = format!("{}\"head\":\"Logistic\",\"mlp_hidden\":32,{}", &meta[..at], &meta[at..]);
    parts[meta_at].1 = old.into_bytes();
    let loaded = load_both(&assemble(&valid, &parts), "earlier meta")
        .expect("an earlier build's meta loads");
    assert_eq!(loaded.fingerprint(), model.fingerprint());
    assert_eq!(loaded.n_ties(), model.n_ties());
    for row in 0..model.n_ties() {
        assert_eq!(loaded.score_row(row).to_bits(), model.score_row(row).to_bits(), "row {row}");
    }
}

/// A non-finite value is reported only once its block's checksum has
/// matched, by both loaders: a NaN written over a block whose CRC still
/// describes the old bytes is a checksum failure, and the same NaN under a
/// fixed-up CRC is a non-finite failure naming the element.
#[test]
fn a_non_finite_value_in_a_corrupt_block_fails_on_the_checksum() {
    let (_, valid) = valid_container();
    let mut parts = sections(&valid);
    let emb_at = parts.iter().position(|(k, _)| *k == section::EMB).unwrap();
    let emb_offset = (0..parts.len())
        .map(|i| HEADER_LEN + i * ENTRY_LEN)
        .find(|&e| read_u32(&valid, e) == section::EMB)
        .map(|e| read_u64(&valid, e + 8) as usize)
        .unwrap();
    let at = 4 * 70;
    let mut stale_crc = valid.clone();
    stale_crc[emb_offset + at..emb_offset + at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    let err = load_both(&stale_crc, "stale CRC").expect_err("a NaN under a stale CRC loads");
    assert!(err.contains("'embeddings' checksum mismatch"), "{err}");

    parts[emb_at].1[at..at + 4].copy_from_slice(&f32::NAN.to_le_bytes());
    let err = load_both(&assemble(&valid, &parts), "fixed CRC").expect_err("a NaN loads");
    assert!(err.contains("'embeddings' contains a non-finite value at element 70"), "{err}");
}

/// Every node id of a valid container moved far apart near `u32::MAX` by
/// an injective map, the tie payloads rewritten and the container rebuilt:
/// both loaders accept it with the same fingerprint and agree on every
/// row and head score ([`load_both`]), every remapped pair finds its
/// original row and scores it bit for bit, each remapped head keeps its
/// fold-in score up to the order its logits are summed in (the map reverses
/// the order of sources), and a non-tie finds nothing. Nothing is sized by
/// the largest id, so this file costs what the original does.
#[test]
fn loaders_accept_sparse_ids_near_u32_max() {
    let (model, valid) = valid_container();
    let remap = |id: u32| u32::MAX - 7919 * id;
    let mut parts = sections(&valid);
    for (kind, payload) in &mut parts {
        if *kind == section::TIE_SRC || *kind == section::TIE_DST {
            for word in payload.chunks_exact_mut(4) {
                let id = u32::from_le_bytes(word.try_into().unwrap());
                word.copy_from_slice(&remap(id).to_le_bytes());
            }
        }
    }
    let sparse = assemble(&valid, &parts);
    let loaded = load_both(&sparse, "sparse ids").expect("the model loads");
    let table = ScoreTable::load(Cursor::new(&sparse), true).expect("the table loads");
    let dense = ScoreTable::load(Cursor::new(&valid), true).expect("the original table loads");
    assert_eq!((loaded.n_ties(), table.n_ties()), (model.n_ties(), model.n_ties()));
    for (row, &(u, v)) in model.ties().iter().enumerate() {
        let (su, sv) = (NodeId(remap(u)), NodeId(remap(v)));
        let want = model.score_row(row).to_bits();
        assert_eq!(loaded.tie_row(su, sv), Some(row), "model row of ({u}, {v})");
        assert_eq!(table.tie_row(su, sv), Some(row), "table row of ({u}, {v})");
        assert_eq!(loaded.score(su, sv).map(f64::to_bits), Some(want), "model score {row}");
        assert_eq!(table.score(su, sv).map(f64::to_bits), Some(want), "table score {row}");
        let (head, dense_head) = (table.head_score(sv).unwrap(), dense.head_score(NodeId(v)));
        assert!((head - dense_head.unwrap()).abs() <= 1e-12, "head {v}: {head} {dense_head:?}");
        // A self-loop is never a tie, nor is a pair under the original ids.
        for (a, b) in [(su, su), (NodeId(u), NodeId(v))] {
            assert_eq!(loaded.tie_row(a, b), None, "model: ({}, {}) is no tie", a.0, b.0);
            assert_eq!(table.tie_row(a, b), None, "table: ({}, {}) is no tie", a.0, b.0);
        }
    }
}
