//! The score table a shard serves holds the same values as the model it
//! comes from: every row score bit-identical to `score_row`, every head
//! score bit-identical to `FoldInIndex`'s fold-in of an untrained pair into
//! that head, and the same fingerprint, whether the table is taken from a
//! model in memory or streamed from its `.ddm`. Checked on the serial fits
//! `serial_fit_golden.rs` pins, with and without `context_features`.

use std::io::Cursor;

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use dd_graph::NodeId;
use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityModel, FoldInIndex, ScoreTable};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The pinned serial fit of `serial_fit_golden.rs`.
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

/// Every row, every head id up to one past the largest node, and an id far
/// outside the network, against the model and its fold-in index.
fn assert_matches_model(table: &ScoreTable, model: &DirectionalityModel, what: &str) {
    assert_eq!(table.fingerprint(), model.fingerprint(), "{what}: fingerprint");
    assert_eq!(table.n_ties(), model.n_ties(), "{what}: ties");
    for (row, &(u, v)) in model.ties().iter().enumerate() {
        assert_eq!(
            table.row_score(row).to_bits(),
            model.score_row(row).to_bits(),
            "{what}: row {row}"
        );
        let (u, v) = (NodeId(u), NodeId(v));
        assert_eq!(table.tie_row(u, v), model.tie_row(u, v), "{what}: lookup of row {row}");
        assert_eq!(table.score(u, v).map(f64::to_bits), model.score(u, v).map(f64::to_bits));
    }
    let index = FoldInIndex::build(model);
    let mut scratch = Vec::new();
    // No trained tie starts at this id, so its fold-in excludes no row:
    // the untrained pairs a stream makes live.
    let outsider = NodeId(u32::MAX);
    let max_node = model.ties().iter().map(|&(u, v)| u.max(v)).max().unwrap();
    let mut folded = 0;
    for v in (0..=max_node + 1).chain([u32::MAX - 1]) {
        let want = index.foldin_score_into(model, outsider, NodeId(v), &mut scratch);
        let got = table.head_score(NodeId(v));
        assert_eq!(got.map(f64::to_bits), want.map(f64::to_bits), "{what}: head {v}");
        folded += usize::from(want.is_some());
    }
    assert!(folded > 100, "{what}: only {folded} heads have in-ties");
}

fn check(cfg: DeepDirectConfig, what: &str) {
    let model = serial_fit(cfg);
    assert_matches_model(&ScoreTable::of(&model), &model, &format!("{what}, of"));

    let mut ddm = Vec::new();
    model.save_binary(&mut ddm).unwrap();
    let streamed = ScoreTable::load(Cursor::new(&ddm), true).expect("the table loads");
    assert_matches_model(&streamed, &model, &format!("{what}, load"));

    // Without fold-in the rows are the same and no head is scored.
    let rows_only = ScoreTable::load(Cursor::new(&ddm), false).unwrap();
    assert!(!rows_only.has_head_scores());
    assert_eq!(rows_only.fingerprint(), model.fingerprint());
    assert_eq!(rows_only.head_score(NodeId(model.ties()[0].1)), None);
    for row in 0..model.n_ties() {
        assert_eq!(rows_only.row_score(row).to_bits(), streamed.row_score(row).to_bits());
    }
}

#[test]
fn table_matches_the_serial_logistic_fit() {
    check(DeepDirectConfig::default(), "logistic");
}

#[test]
fn table_matches_the_serial_context_fit() {
    check(DeepDirectConfig { context_features: true, ..DeepDirectConfig::default() }, "context");
}

#[test]
fn load_from_path_names_the_path() {
    let model = serial_fit(DeepDirectConfig::default());
    let path = std::env::temp_dir().join(format!("dd_score_table_{}.ddm", std::process::id()));
    model.save_binary_to_path(&path).unwrap();
    let table = ScoreTable::load_from_path(&path, true);
    let _ = std::fs::remove_file(&path);
    assert_matches_model(&table.unwrap(), &model, "load_from_path");
    let err = ScoreTable::load_from_path("/nonexistent/model.ddm", false).unwrap_err();
    assert!(err.contains("opening model '/nonexistent/model.ddm'"), "{err}");
}
