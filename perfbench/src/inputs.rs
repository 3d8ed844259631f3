//! Every input the benchmark feeds the system, made from the run's seed:
//! the dataset with its hidden directions, the request keys, and the tie
//! event stream. The system under test only ever sees these.

use dd_graph::sampling::hide_directions;
use dd_graph::{MixedSocialNetwork, NodeId};
use dd_stream::TieEvent;
use deepdirect::DirectionalityModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The paper's Twitter crawl analog.
pub const DATASET: &str = "Twitter";
/// `scale = 1`: the paper's node count (65,044 nodes, ~0.5M ties).
pub const SCALE: usize = 1;
/// Share of directed ties whose direction stays visible to training; the
/// rest are hidden and scored by direction discovery.
pub const KEEP_DIRECTED: f64 = 0.8;
/// Zipf exponent of the request-key popularity over trained ties.
pub const ZIPF_S: f64 = 1.0;
/// Share of read keys that are untrained pairs (the 404 path).
pub const UNTRAINED_SHARE: f64 = 0.03;

/// The generated network with part of its directions hidden.
pub struct Dataset {
    pub graph: MixedSocialNetwork,
    /// True orientation of every hidden tie.
    pub truth: Vec<(NodeId, NodeId)>,
    pub nodes: usize,
    pub ties: usize,
}

pub fn dataset(seed: u64) -> Dataset {
    let generated = dd_datasets::twitter().generate(SCALE, seed);
    let ties = generated.network.counts().total();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x41de);
    let hidden = hide_directions(&generated.network, KEEP_DIRECTED, &mut rng);
    Dataset { nodes: hidden.network.n_nodes(), ties, graph: hidden.network, truth: hidden.truth }
}

/// Request keys: Zipf-skewed over the model's trained ties (so the score
/// cache both hits and misses) plus a small share of untrained pairs.
pub struct Keys {
    ranked: Vec<(u32, u32)>,
    cdf: Vec<f64>,
    n_nodes: u32,
    rng: StdRng,
}

impl Keys {
    pub fn new(model: &DirectionalityModel, seed: u64) -> Keys {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x6b65);
        let mut ranked = model.ties().to_vec();
        ranked.shuffle(&mut rng);
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=ranked.len())
            .map(|r| {
                acc += (r as f64).powf(-ZIPF_S);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        let n_nodes = model.ties().iter().map(|&(u, v)| u.max(v)).max().map_or(1, |m| m + 1);
        Keys { ranked, cdf, n_nodes, rng }
    }

    /// A trained tie, drawn by popularity.
    pub fn trained(&mut self) -> (u32, u32) {
        let x: f64 = self.rng.gen();
        let i = self.cdf.partition_point(|&c| c < x).min(self.ranked.len() - 1);
        self.ranked[i]
    }

    /// A pair of known nodes that is not a trained tie.
    pub fn untrained(&mut self, model: &DirectionalityModel) -> (u32, u32) {
        loop {
            let u = self.rng.gen_range(0..self.n_nodes);
            let v = self.rng.gen_range(0..self.n_nodes);
            if u != v && model.tie_row(NodeId(u), NodeId(v)).is_none() {
                return (u, v);
            }
        }
    }

    /// The next read key of the mix.
    pub fn next(&mut self, model: &DirectionalityModel) -> (u32, u32) {
        if self.rng.gen_bool(UNTRAINED_SHARE) {
            self.untrained(model)
        } else {
            self.trained()
        }
    }

    /// Uniform draw in `[0, 1)` from the key stream's generator.
    pub fn unit(&mut self) -> f64 {
        self.rng.gen()
    }

    /// Uniform index below `n`.
    pub fn index(&mut self, n: usize) -> usize {
        self.rng.gen_range(0..n)
    }
}

/// The tie event stream that `POST /ingest` receives: bursty follows on
/// hot heads, churn (unfollows) and reciprocation.
pub fn events(graph: &MixedSocialNetwork, seed: u64, count: usize) -> Vec<TieEvent> {
    let cfg = dd_datasets::EventStreamConfig {
        count,
        seed: seed ^ 0xe7e7,
        ..dd_datasets::EventStreamConfig::default()
    };
    dd_datasets::temporal_event_stream(graph, &cfg)
}
