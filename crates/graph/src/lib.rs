//! # dd-graph — mixed social network substrate for DeepDirect
//!
//! This crate implements the graph model of *DeepDirect: Learning Directions
//! of Social Ties with Edge-based Network Embedding* (TKDE 2018 / ICDE 2019):
//! the **mixed social network** `G = (V, E_d ∪ E_b ∪ E_u)` with directed,
//! bidirectional and undirected ties (Definition 1), along with every graph
//! primitive the paper's methods consume:
//!
//! * mixed in/out degrees with half-weight undirected ties (Eqs. 1–2)
//!   — [`degrees`],
//! * connected ties, tie degrees and `C(G)` (Definition 4, Eq. 6) — [`ties`],
//! * closeness and betweenness centrality (Eqs. 3–4) — [`centrality`],
//! * the 16 directed triad count features (Sec. 3.1) — [`triads`],
//! * BFS sub-network sampling and the hide-direction evaluation protocol
//!   (Sec. 6.1–6.2) — [`sampling`],
//! * synthetic social network generators with status-driven tie directions,
//!   standing in for the paper's five proprietary crawls — [`generators`],
//! * clustering / reciprocity / directionality-pattern prevalence
//!   measurements — [`analysis`].
//!
//! ## Quick example
//!
//! ```
//! use dd_graph::{NetworkBuilder, NodeId};
//!
//! let mut b = NetworkBuilder::new(3);
//! b.add_directed(NodeId(0), NodeId(1)).unwrap();
//! b.add_undirected(NodeId(1), NodeId(2)).unwrap();
//! let g = b.build().unwrap();
//! assert_eq!(g.counts().directed, 1);
//! assert_eq!(g.n_ordered_ties(), 3); // undirected ties materialize twice
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod centrality;
pub mod degrees;
pub mod error;
pub mod generators;
pub mod hash;
pub mod ids;
pub mod io;
pub mod network;
pub mod sampling;
pub mod tie;
pub mod ties;
pub mod traversal;
pub mod triads;

#[cfg(test)]
pub(crate) mod testutil;

pub use error::GraphError;
pub use ids::{NodeId, TieId};
pub use network::{MixedSocialNetwork, NetworkBuilder, TieCounts};
pub use tie::{OrderedTie, TieKind};
