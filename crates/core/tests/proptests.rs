//! Property-based tests for DeepDirect's preprocessing invariants (the tie
//! universe of Algorithm 1, lines 1–9).

use dd_graph::{NetworkBuilder, NodeId, TieKind};
use dd_linalg::rng::Pcg32;
use deepdirect::{TieUniverse, UniverseKind};
use proptest::prelude::*;

fn arb_network() -> impl Strategy<Value = dd_graph::MixedSocialNetwork> {
    (4usize..25, proptest::collection::vec((0u8..3, 0u32..25, 0u32..25), 1..80)).prop_map(
        |(n, proposals)| {
            let mut b = NetworkBuilder::new(n);
            let _ = b.add_directed(NodeId(0), NodeId(1));
            for (kind, u, v) in proposals {
                let (u, v) = (NodeId(u % n as u32), NodeId(v % n as u32));
                let _ = match kind {
                    0 => b.add_directed(u, v),
                    1 => b.add_bidirectional(u, v),
                    _ => b.add_undirected(u, v),
                };
            }
            b.build().expect("seeded directed tie")
        },
    )
}

/// `arb_network` plus a pendant directed tie `0 → n` into a fresh node, so
/// the universe always holds a tie with `deg_tie = 0`: `(0, n)`, whose head
/// has only the mirror `(n, 0)` leaving it.
fn arb_network_with_pendant() -> impl Strategy<Value = dd_graph::MixedSocialNetwork> {
    arb_network().prop_map(|g| {
        let n = g.n_nodes();
        let mut b = NetworkBuilder::new(n + 1);
        for t in g.ties() {
            // Symmetric ties come as two instances; re-add each once.
            let _ = match t.kind {
                TieKind::Directed => b.add_directed(t.src, t.dst).map(drop),
                TieKind::Bidirectional if t.src < t.dst => {
                    b.add_bidirectional(t.src, t.dst).map(drop)
                }
                TieKind::Undirected if t.src < t.dst => b.add_undirected(t.src, t.dst).map(drop),
                _ => Ok(()),
            };
        }
        b.add_directed(NodeId(0), NodeId(n as u32)).expect("fresh node");
        b.build().expect("seeded directed tie")
    })
}

/// The connected-tie sampler as it was before draw records: draw a
/// candidate from the head's out-ties until it does not double back.
fn sample_connected_reference(u: &TieUniverse, e: usize, rng: &mut Pcg32) -> Option<usize> {
    let t = *u.tie(e);
    let outs = u.out_ties(t.dst);
    if outs.len() == 1 {
        return None;
    }
    loop {
        let cand = outs[rng.gen_range(outs.len())] as usize;
        if u.tie(cand).dst != t.src {
            return Some(cand);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn record_sampler_matches_the_rejection_loop(
        g in arb_network_with_pendant(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&g, 5, &mut rng);
        let pendant = u.find(NodeId(0), NodeId(g.n_nodes() as u32 - 1)).unwrap();
        prop_assert_eq!(u.tie_degree(pendant), 0);
        let mut reference = rng.clone();
        for i in 0..u.len() {
            for _ in 0..8 {
                let got = u.sample_connected(i, &mut rng);
                prop_assert_eq!(got, sample_connected_reference(&u, i, &mut reference), "tie {}", i);
                prop_assert_eq!(&rng, &reference, "RNG state after tie {}", i);
            }
        }
    }

    #[test]
    fn universe_counts_add_up(g in arb_network(), gamma in 1usize..12, seed in 0u64..100) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&g, gamma, &mut rng);
        let c = g.counts();
        prop_assert_eq!(u.len(), g.n_ordered_ties() + c.directed);
        let mirrors = u.ties().iter().filter(|t| t.kind == UniverseKind::Mirror).count();
        prop_assert_eq!(mirrors, c.directed);
        prop_assert_eq!(u.labeled_ties().count(), 2 * c.directed);
    }

    #[test]
    fn every_universe_tie_has_its_reverse(g in arb_network(), seed in 0u64..100) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&g, 5, &mut rng);
        for i in 0..u.len() {
            let t = u.tie(i);
            let rev = u.find(t.dst, t.src);
            prop_assert!(rev.is_some(), "missing reverse of ({}, {})", t.src, t.dst);
            // deg_tie = outdeg(head) − 1 (the back tie is excluded).
            prop_assert_eq!(u.tie_degree(i) as usize, u.out_ties(t.dst).len() - 1);
        }
    }

    #[test]
    fn labels_are_antisymmetric(g in arb_network(), seed in 0u64..100) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&g, 5, &mut rng);
        for (i, t) in u.labeled_ties() {
            let rev = u.find(t.dst, t.src).unwrap();
            let y = t.label.unwrap();
            let y_rev = u.tie(rev).label.unwrap();
            prop_assert!((y + y_rev - 1.0).abs() < 1e-6, "labels of {i} and reverse");
        }
    }

    #[test]
    fn pseudo_labels_are_complementary_probabilities(g in arb_network(), seed in 0u64..100) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&g, 5, &mut rng);
        for t in u.ties() {
            match t.kind {
                UniverseKind::Undirected => {
                    let yd = t.pseudo_degree.expect("undirected ties carry y^d");
                    prop_assert!((0.0..=1.0).contains(&yd));
                    let rev = u.find(t.dst, t.src).unwrap();
                    let yd_rev = u.tie(rev).pseudo_degree.unwrap();
                    prop_assert!((yd + yd_rev - 1.0).abs() < 1e-5);
                }
                _ => prop_assert!(t.pseudo_degree.is_none()),
            }
        }
    }

    #[test]
    fn triad_samples_respect_gamma_and_structure(g in arb_network(), gamma in 1usize..6, seed in 0u64..100) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&g, gamma, &mut rng);
        for i in 0..u.len() {
            let t = u.tie(i);
            let samples = u.triad_samples(i);
            if t.kind != UniverseKind::Undirected {
                prop_assert!(samples.is_empty());
                continue;
            }
            prop_assert!(samples.len() <= gamma);
            for &(uw, vw) in samples {
                let tuw = u.tie(uw as usize);
                let tvw = u.tie(vw as usize);
                prop_assert_eq!(tuw.src, t.src);
                prop_assert_eq!(tvw.src, t.dst);
                prop_assert_eq!(tuw.dst, tvw.dst, "shared common neighbor");
            }
        }
    }

    #[test]
    fn connected_sampling_never_doubles_back(g in arb_network(), seed in 0u64..100) {
        let mut rng = Pcg32::seed_from_u64(seed);
        let u = TieUniverse::build(&g, 5, &mut rng);
        for i in 0..u.len() {
            if u.tie_degree(i) == 0 {
                prop_assert_eq!(u.sample_connected(i, &mut rng), None);
                continue;
            }
            let t = *u.tie(i);
            for _ in 0..5 {
                let c = u.sample_connected(i, &mut rng).unwrap();
                let ct = u.tie(c);
                prop_assert_eq!(ct.src, t.dst);
                prop_assert_ne!(ct.dst, t.src);
            }
        }
    }
}
