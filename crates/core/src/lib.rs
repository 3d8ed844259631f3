//! # deepdirect — edge-based network embedding for tie direction learning
//!
//! A from-scratch Rust implementation of *DeepDirect: Learning Directions of
//! Social Ties with Edge-based Network Embedding* (Wang et al., TKDE 2018 /
//! ICDE 2019).
//!
//! DeepDirect solves the **tie direction learning (TDL)** problem: given a
//! mixed social network `G = (V, E_d ∪ E_b ∪ E_u)`, learn the
//! *directionality function* `d : E → [0, 1]` from the directed ties `E_d`.
//! It embeds *ordered ties* (not nodes) into `R^l` (the E-Step), minimizing
//!
//! ```text
//! L = L_topo + α · L_label + β · L_pattern
//! ```
//!
//! — skip-gram topology preservation over connected tie pairs, supervised
//! cross-entropy on labeled ties, and pattern-based pseudo-labels on
//! undirected ties — then fits a logistic regression head on the embeddings
//! (the D-Step).
//!
//! ## Crate map
//!
//! * [`config`] — hyper-parameters ([`DeepDirectConfig`]).
//! * [`universe`] — preprocessing: the augmented ordered-tie universe with
//!   mirrors, labels and pseudo-labels (Algorithm 1, lines 1–9).
//! * [`estep`] — sampled SGD over Eqs. 20–25, sequential or Hogwild.
//! * [`dstep`] — the directionality head, the paper's logistic regression.
//! * [`model`] — the public [`DeepDirect`] / [`DirectionalityModel`] API.
//! * [`binfmt`] — the checksummed little-endian binary model container
//!   (one streamed reader for models and score tables; DESIGN.md §7.13).
//! * [`store`] — structure-of-arrays embedding storage behind the scoring
//!   hot path.
//! * [`apps`] — the two applications of Sec. 5 plus the bidirectionality
//!   future-work extension: direction discovery, direction quantification
//!   (directionality adjacency matrix), bidirectionality scoring.
//! * [`foldin`] — extension: scoring ordered pairs unseen at training time
//!   via head-cluster fold-in.
//! * [`scores`] — the per-row and per-head score table a serving shard
//!   holds in place of the embeddings, computed while a `.ddm` streams in.
//!
//! ## Quickstart
//!
//! ```
//! use dd_graph::generators::{social_network, SocialNetConfig};
//! use dd_graph::sampling::hide_directions;
//! use deepdirect::apps::discovery::{discover_directions, discovery_accuracy};
//! use deepdirect::{DeepDirect, DeepDirectConfig};
//! use rand::SeedableRng;
//!
//! // A synthetic social network with status-driven directions.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let gen = SocialNetConfig { n_nodes: 120, ..Default::default() };
//! let net = social_network(&gen, &mut rng).network;
//!
//! // Hide half of the directions, keep the truth for scoring.
//! let hidden = hide_directions(&net, 0.5, &mut rng);
//!
//! // Fit DeepDirect and discover the hidden directions.
//! let mut cfg = DeepDirectConfig::fast();
//! cfg.dim = 16;
//! cfg.max_iterations = Some(30_000);
//! let model = DeepDirect::new(cfg).fit(&hidden.network);
//! let preds = discover_directions(&hidden.network, |u, v| {
//!     model.score(u, v).unwrap_or(0.5)
//! });
//! let acc = discovery_accuracy(&preds, &hidden.truth);
//! assert!(acc > 0.5, "better than coin-flipping: {acc}");
//! ```

#![warn(missing_docs)]

pub mod apps;
pub mod binfmt;
pub mod config;
pub mod dstep;
pub mod estep;
pub mod foldin;
pub mod model;
mod pairs;
pub mod scores;
pub mod store;
pub mod universe;

pub use binfmt::BinaryFormatError;
pub use config::DeepDirectConfig;
/// Re-export of the telemetry crate, so downstream users can build sinks
/// ([`telemetry::JsonlSink`], [`telemetry::ProgressSink`]) without a direct
/// dependency.
pub use dd_telemetry as telemetry;
pub use dstep::DirectionalityHead;
pub use foldin::{FoldInIndex, FoldInScorer};
pub use model::{DeepDirect, DirectionalityModel, MODEL_SCHEMA_VERSION};
pub use scores::ScoreTable;
pub use universe::{TieUniverse, UniverseKind, UniverseTie};
