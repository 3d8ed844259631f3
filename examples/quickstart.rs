//! Quickstart: build a small mixed social network, learn its directionality
//! function with DeepDirect, and discover the directions of its undirected
//! ties.
//!
//! ```text
//! cargo run --release -p deepdirect --example quickstart
//! ```

use dd_graph::generators::{social_network, SocialNetConfig};
use dd_graph::sampling::hide_directions;
use deepdirect::apps::discovery::{discover_directions, discovery_accuracy};
use deepdirect::{DeepDirect, DeepDirectConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A synthetic social network whose tie directions follow a latent
    //    status hierarchy (standing in for a real crawl).
    let mut rng = StdRng::seed_from_u64(42);
    let gen_cfg = SocialNetConfig { n_nodes: 400, ..Default::default() };
    let generated = social_network(&gen_cfg, &mut rng);
    let network = generated.network;
    println!(
        "network: {} nodes, {} directed ties, {} bidirectional ties",
        network.n_nodes(),
        network.counts().directed,
        network.counts().bidirectional,
    );

    // 2. Hide 60% of the directions — these become the undirected ties
    //    whose orientation we must recover (the TDL problem).
    let hidden = hide_directions(&network, 0.4, &mut rng);
    println!(
        "hidden {} tie directions; {} remain directed (labeled data)",
        hidden.truth.len(),
        hidden.network.counts().directed,
    );

    // 3. Fit DeepDirect: E-Step learns edge embeddings from topology,
    //    labels and directionality patterns; D-Step fits the directionality
    //    function d : E -> [0, 1].
    let cfg = DeepDirectConfig {
        dim: 64,
        max_iterations: Some(2_000_000),
        seed: 42,
        ..Default::default()
    };
    let model = DeepDirect::new(cfg).fit(&hidden.network);
    println!(
        "trained: {} tie embeddings, {} E-Step iterations",
        model.n_ties(),
        model.estep_iterations()
    );

    // 4. Discover directions of the undirected ties (Eq. 28) and score
    //    against the ground truth.
    let predictions = discover_directions(&hidden.network, |u, v| model.score(u, v).unwrap_or(0.5));
    let accuracy = discovery_accuracy(&predictions, &hidden.truth);
    println!("direction discovery accuracy: {accuracy:.3}");

    // 5. Inspect a few predictions with their confidence margins.
    let mut sorted = predictions.clone();
    sorted.sort_by(|a, b| b.margin().partial_cmp(&a.margin()).unwrap());
    println!("\nmost confident predictions:");
    for p in sorted.iter().take(5) {
        println!("  {} -> {}  (d = {:.3} vs {:.3})", p.src, p.dst, p.forward, p.backward);
    }

    // 6. Persist the model; reload and verify scores survive.
    let path = std::env::temp_dir().join("deepdirect_quickstart.ddm");
    model.save_binary_to_path(&path).expect("save model");
    let loaded = deepdirect::DirectionalityModel::load_from_path(&path).expect("load model");
    let p = sorted[0];
    assert_eq!(model.score(p.src, p.dst), loaded.score(p.src, p.dst));
    println!("\nmodel round-tripped through {}", path.display());
}
