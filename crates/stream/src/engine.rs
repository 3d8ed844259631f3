//! The streaming engine: an overlay of live tie deltas over a frozen model.
//!
//! [`StreamEngine`] owns an `Arc`'d [`ScoreTable`] and folds
//! follow/unfollow/reciprocation events into the frozen embedding space
//! without retraining: a dynamic tie's score is its head's fold-in score
//! (DESIGN.md §6), an unfollowed trained tie stops scoring, and everything
//! untouched keeps its exact trained score. A dynamic tie is untrained, so
//! its fold-in mean excludes no row and depends on the head alone: the
//! table's precomputed [`ScoreTable::head_score`], the sigmoid of the mean
//! embedding-half logit of the head's in-rows.
//!
//! # Determinism and replay (DESIGN.md §7.15)
//!
//! The engine is a pure fold over its append-only event log: state is
//! normalized against the *trained* tie set only (never against arrival
//! order), fold-in means are computed over trained rows only, and the
//! overlay lives in a `BTreeMap`. Replaying the same log against the same
//! model therefore reproduces bit-identical state and scores regardless of
//! how the log was batched — pinned by [`state_digest`](StreamEngine::state_digest)
//! tests here and end to end against the `dd` binary in
//! `crates/cli/tests/serve_e2e.rs`.

use std::collections::BTreeMap;
use std::sync::Arc;

use dd_graph::NodeId;
use dd_linalg::bytes::{fnv1a64, FNV64_SEED};
use deepdirect::{DirectionalityModel, ScoreTable};

use crate::event::{EventOp, TieEvent};

/// Overlay verdict for one ordered pair, relative to the trained tie set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Overlay {
    /// Untrained pair made live by a follow/reciprocate event.
    Added,
    /// Trained pair tombstoned by an unfollow event.
    Removed,
}

/// Summary of one applied event batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApplyReport {
    /// Events applied (the whole batch — application is atomic).
    pub applied: usize,
    /// Deduplicated, sorted ordered pairs whose scores may have changed;
    /// the serving layer invalidates exactly these cache keys.
    pub touched: Vec<(u32, u32)>,
}

/// Incremental fold-in state over a frozen embedding space.
///
/// See the [module docs](self) for semantics. The engine is `Sync`-friendly
/// by design: scoring takes `&self`, so a server can wrap one engine in an
/// `RwLock` and score under read locks.
pub struct StreamEngine {
    table: Arc<ScoreTable>,
    overlay: BTreeMap<(u32, u32), Overlay>,
    log: Vec<TieEvent>,
    /// `Added` entries in `overlay`, kept by `apply_follow`/`apply_unfollow`.
    live_dynamic: usize,
    /// `Removed` entries in `overlay`, kept the same way.
    removed_trained: usize,
}

impl StreamEngine {
    /// An engine with an empty event log over `model`'s scores.
    pub fn new(model: Arc<DirectionalityModel>) -> Self {
        Self::over(Arc::new(ScoreTable::of(&model)))
    }

    /// An engine with an empty event log over `table`.
    ///
    /// # Panics
    /// Panics if `table` holds no head scores (it was loaded without
    /// fold-in), since dynamic ties could not be scored.
    pub fn over(table: Arc<ScoreTable>) -> Self {
        assert!(table.has_head_scores(), "a stream engine needs a table with head scores");
        StreamEngine {
            table,
            overlay: BTreeMap::new(),
            log: Vec::new(),
            live_dynamic: 0,
            removed_trained: 0,
        }
    }

    /// An engine with `events` already applied — the replay constructor.
    pub fn replay(model: Arc<DirectionalityModel>, events: &[TieEvent]) -> Self {
        let mut engine = Self::new(model);
        engine.apply_all(events);
        engine
    }

    /// The bound score table.
    pub fn table(&self) -> &Arc<ScoreTable> {
        &self.table
    }

    /// The bound model's content fingerprint (the cache generation all of
    /// this engine's scores belong to).
    pub fn fingerprint(&self) -> u64 {
        self.table.fingerprint()
    }

    /// The append-only event log (everything ever applied, in order).
    pub fn log(&self) -> &[TieEvent] {
        &self.log
    }

    /// Events applied so far.
    pub fn events_applied(&self) -> usize {
        self.log.len()
    }

    /// Live dynamic ties (untrained pairs currently followed).
    pub fn live_dynamic(&self) -> usize {
        self.live_dynamic
    }

    /// Trained ties currently tombstoned by an unfollow.
    pub fn removed_trained(&self) -> usize {
        self.removed_trained
    }

    fn trained(&self, u: u32, v: u32) -> bool {
        self.table.tie_row(NodeId(u), NodeId(v)).is_some()
    }

    /// Makes `(u, v)` live, returning whether the pair's score changed.
    fn apply_follow(&mut self, u: u32, v: u32) -> bool {
        if self.trained(u, v) {
            // A trained pair is live unless tombstoned; a follow clears the
            // tombstone (back to the exact trained score).
            let changed = self.overlay.remove(&(u, v)) == Some(Overlay::Removed);
            self.removed_trained -= usize::from(changed);
            changed
        } else {
            let changed = self.overlay.insert((u, v), Overlay::Added) != Some(Overlay::Added);
            self.live_dynamic += usize::from(changed);
            changed
        }
    }

    /// Makes `(u, v)` dead, returning whether the pair's score changed.
    fn apply_unfollow(&mut self, u: u32, v: u32) -> bool {
        if self.trained(u, v) {
            let changed = self.overlay.insert((u, v), Overlay::Removed) != Some(Overlay::Removed);
            self.removed_trained += usize::from(changed);
            changed
        } else {
            let changed = self.overlay.remove(&(u, v)) == Some(Overlay::Added);
            self.live_dynamic -= usize::from(changed);
            changed
        }
    }

    /// Applies one event's op to the overlay — the single dispatch point
    /// shared by [`apply`](Self::apply) (live ingestion) and
    /// [`rebind`](Self::rebind) (replay after a reload), so the two paths
    /// cannot drift semantically. Returns the ordered pairs the op touched
    /// (changed or not — invalidating an unchanged pair is cheap and
    /// always safe). Does not log the event.
    fn apply_op(&mut self, ev: TieEvent) -> Vec<(u32, u32)> {
        match ev.op {
            EventOp::Follow => {
                self.apply_follow(ev.src, ev.dst);
                vec![(ev.src, ev.dst)]
            }
            EventOp::Unfollow => {
                self.apply_unfollow(ev.src, ev.dst);
                vec![(ev.src, ev.dst)]
            }
            EventOp::Reciprocate => {
                self.apply_follow(ev.src, ev.dst);
                self.apply_follow(ev.dst, ev.src);
                vec![(ev.src, ev.dst), (ev.dst, ev.src)]
            }
        }
    }

    /// Applies one event; returns the ordered pairs it touched (changed or
    /// not — invalidating an unchanged pair is cheap and always safe).
    pub fn apply(&mut self, ev: TieEvent) -> Vec<(u32, u32)> {
        let touched = self.apply_op(ev);
        self.log.push(ev);
        touched
    }

    /// Applies a whole batch; the report's `touched` list is deduplicated
    /// and sorted (deterministic invalidation order).
    pub fn apply_all(&mut self, events: &[TieEvent]) -> ApplyReport {
        let mut touched = std::collections::BTreeSet::new();
        for &ev in events {
            for pair in self.apply(ev) {
                touched.insert(pair);
            }
        }
        ApplyReport { applied: events.len(), touched: touched.into_iter().collect() }
    }

    /// Whether the ordered pair currently exists (trained and not
    /// tombstoned, or dynamically added).
    pub fn is_live(&self, u: NodeId, v: NodeId) -> bool {
        match self.overlay.get(&(u.0, v.0)) {
            Some(Overlay::Added) => true,
            Some(Overlay::Removed) => false,
            None => self.trained(u.0, v.0),
        }
    }

    /// Directionality score for `(u, v)` under the current overlay:
    /// `None` when the pair does not exist, the exact trained score for
    /// untouched trained pairs, and the head's fold-in score (neutral `0.5`
    /// when the head has no in-ties) for dynamic pairs. Two table reads at
    /// most; nothing is allocated, and `_scratch` is no longer used.
    pub fn score(&self, u: NodeId, v: NodeId, _scratch: &mut Vec<f32>) -> Option<f64> {
        match self.overlay.get(&(u.0, v.0)) {
            Some(Overlay::Removed) => None,
            Some(Overlay::Added) => Some(self.table.head_score(v).unwrap_or(0.5)),
            None => self.table.score(u, v),
        }
    }

    /// Rebinds the engine to a new model's scores (hot reload); see
    /// [`Self::rebind_table`].
    pub fn rebind(&mut self, model: Arc<DirectionalityModel>) {
        self.rebind_table(Arc::new(ScoreTable::of(&model)));
    }

    /// Rebinds the engine to a new score table (hot reload) and
    /// re-normalizes the retained event log against its trained tie set.
    /// Equivalent to `StreamEngine::over(table)` replaying the log — the
    /// log, not the old overlay, is the source of truth.
    ///
    /// # Panics
    /// Panics if `table` holds no head scores, as [`Self::over`] does.
    pub fn rebind_table(&mut self, table: Arc<ScoreTable>) {
        assert!(table.has_head_scores(), "a stream engine needs a table with head scores");
        self.table = table;
        self.overlay.clear();
        self.live_dynamic = 0;
        self.removed_trained = 0;
        let log = std::mem::take(&mut self.log);
        for &ev in &log {
            self.apply_op(ev);
        }
        self.log = log;
    }

    /// FNV-1a digest of the engine state: model fingerprint, log length,
    /// and every overlay entry in sorted order. Two engines with the same
    /// digest serve bit-identical scores for every pair; replay tests pin
    /// batch-size and thread-count invariance on it.
    pub fn state_digest(&self) -> u64 {
        let fold = |h: u64, x: u64| fnv1a64(&x.to_le_bytes(), h);
        let mut h = fold(FNV64_SEED, self.table.fingerprint());
        h = fold(h, self.log.len() as u64);
        for (&(u, v), &state) in &self.overlay {
            h = fold(h, u64::from(u));
            h = fold(h, u64::from(v));
            h = fold(
                h,
                match state {
                    Overlay::Added => 1,
                    Overlay::Removed => 2,
                },
            );
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dd_graph::generators::{social_network, SocialNetConfig};
    use dd_graph::MixedSocialNetwork;
    use dd_linalg::kernels::dot8_f64;
    use dd_linalg::sigmoid64;
    use deepdirect::{DeepDirect, DeepDirectConfig, DirectionalityHead};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trained_model(seed: u64) -> (MixedSocialNetwork, Arc<DirectionalityModel>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = social_network(&SocialNetConfig { n_nodes: 80, ..Default::default() }, &mut rng)
            .network;
        let cfg =
            DeepDirectConfig { dim: 8, max_iterations: Some(150_000), seed, ..Default::default() };
        (g.clone(), Arc::new(DeepDirect::new(cfg).fit(&g)))
    }

    /// An untrained ordered pair whose head has in-ties (so fold-in works).
    fn unseen_pair(g: &MixedSocialNetwork, model: &DirectionalityModel) -> (u32, u32) {
        for u in g.nodes() {
            for v in g.nodes() {
                if u != v
                    && model.tie_row(u, v).is_none()
                    && model.tie_row(v, u).is_none()
                    && !g.in_ties(v).is_empty()
                {
                    return (u.0, v.0);
                }
            }
        }
        panic!("no unseen pair in the generated network");
    }

    /// Head `v`'s fold-in score by its definition: the sigmoid of the mean
    /// embedding-half logit of its in-rows plus the bias, the logits summed
    /// in f64 in `(src, row)` order.
    fn head_mean(model: &DirectionalityModel, v: u32) -> f64 {
        let DirectionalityHead::Logistic(lr) = model.head();
        let mut rows: Vec<usize> =
            (0..model.n_ties()).filter(|&r| model.ties()[r].1 == v).collect();
        rows.sort_by_key(|&row| (model.ties()[row], row));
        let logit = |row: usize| dot8_f64(&lr.w[..model.dim()], model.embedding_row(row));
        let sum = rows.iter().fold(0.0, |sum, &row| sum + logit(row));
        sigmoid64(sum / rows.len() as f64 + f64::from(lr.b))
    }

    #[test]
    fn followed_unseen_tie_scores_via_its_heads_mean_logit() {
        let (g, model) = trained_model(41);
        let (u, v) = unseen_pair(&g, &model);
        let mut engine = StreamEngine::new(Arc::clone(&model));
        let mut scratch = Vec::new();
        assert_eq!(engine.score(NodeId(u), NodeId(v), &mut scratch), None, "unseen pair is 404");

        engine.apply(TieEvent::new(EventOp::Follow, u, v));
        let got = engine.score(NodeId(u), NodeId(v), &mut scratch).expect("live after follow");
        let want = head_mean(&model, v);
        assert_eq!(got.to_bits(), want.to_bits(), "engine fold-in must be the head's mean logit");
        assert_eq!(engine.live_dynamic(), 1);
    }

    #[test]
    fn unfollow_tombstones_trained_ties_and_refollow_restores_them() {
        let (g, model) = trained_model(42);
        let (_, t) = g.iter_ties().next().expect("a trained tie");
        let (u, v) = (t.src, t.dst);
        let exact = model.score(u, v).expect("trained pair scores");
        let mut engine = StreamEngine::new(Arc::clone(&model));
        let mut scratch = Vec::new();

        engine.apply(TieEvent::new(EventOp::Unfollow, u.0, v.0));
        assert_eq!(engine.score(u, v, &mut scratch), None, "tombstoned");
        assert!(!engine.is_live(u, v));
        assert_eq!(engine.removed_trained(), 1);

        engine.apply(TieEvent::new(EventOp::Follow, u.0, v.0));
        assert_eq!(
            engine.score(u, v, &mut scratch).unwrap().to_bits(),
            exact.to_bits(),
            "re-follow restores the exact trained score"
        );
        assert_eq!(engine.removed_trained(), 0);
    }

    #[test]
    fn reciprocate_adds_both_orders_and_reports_both_pairs() {
        let (g, model) = trained_model(43);
        let (u, v) = unseen_pair(&g, &model);
        let mut engine = StreamEngine::new(Arc::clone(&model));
        let touched = engine.apply(TieEvent::new(EventOp::Reciprocate, u, v));
        assert_eq!(touched, vec![(u, v), (v, u)]);
        let mut scratch = Vec::new();
        assert!(engine.score(NodeId(u), NodeId(v), &mut scratch).is_some());
        assert!(engine.score(NodeId(v), NodeId(u), &mut scratch).is_some());
    }

    #[test]
    fn unfollow_of_never_followed_pair_is_a_noop() {
        let (g, model) = trained_model(44);
        let (u, v) = unseen_pair(&g, &model);
        let mut engine = StreamEngine::new(Arc::clone(&model));
        let before = engine.state_digest();
        engine.apply(TieEvent::new(EventOp::Unfollow, u, v));
        let mut scratch = Vec::new();
        assert_eq!(engine.score(NodeId(u), NodeId(v), &mut scratch), None);
        // The log grew (digests differ) but the overlay stayed empty.
        assert_ne!(engine.state_digest(), before, "digest covers the log");
        assert_eq!(engine.live_dynamic() + engine.removed_trained(), 0);
    }

    /// A deterministic synthetic log exercising all three ops, including
    /// churn (follow-then-unfollow) on both trained and untrained pairs.
    fn synthetic_log(g: &MixedSocialNetwork, model: &DirectionalityModel) -> Vec<TieEvent> {
        let mut events = Vec::new();
        let trained: Vec<(u32, u32)> =
            g.iter_ties().take(6).map(|(_, t)| (t.src.0, t.dst.0)).collect();
        let (u, v) = unseen_pair(g, model);
        events.push(TieEvent::new(EventOp::Follow, u, v));
        for &(a, b) in trained.iter().take(3) {
            events.push(TieEvent::new(EventOp::Unfollow, a, b));
        }
        events.push(TieEvent::new(EventOp::Reciprocate, u, v));
        for &(a, b) in trained.iter().skip(3) {
            events.push(TieEvent::new(EventOp::Unfollow, a, b));
            events.push(TieEvent::new(EventOp::Follow, a, b));
        }
        events.push(TieEvent::new(EventOp::Unfollow, u, v));
        events.push(TieEvent::new(EventOp::Follow, u, v));
        events
    }

    #[test]
    fn replay_is_batch_size_invariant_bit_for_bit() {
        let (g, model) = trained_model(45);
        let log = synthetic_log(&g, &model);
        let mut digests = Vec::new();
        let mut score_bits: Vec<Vec<Option<u64>>> = Vec::new();
        for batch in [1usize, 7, log.len()] {
            let mut engine = StreamEngine::new(Arc::clone(&model));
            for chunk in log.chunks(batch) {
                engine.apply_all(chunk);
            }
            digests.push(engine.state_digest());
            let mut scratch = Vec::new();
            let probes: Vec<Option<u64>> = g
                .nodes()
                .flat_map(|u| g.nodes().map(move |v| (u, v)))
                .take(500)
                .map(|(u, v)| engine.score(u, v, &mut scratch).map(f64::to_bits))
                .collect();
            score_bits.push(probes);
        }
        assert_eq!(digests[0], digests[1], "batch 1 vs 7");
        assert_eq!(digests[0], digests[2], "batch 1 vs all-at-once");
        assert_eq!(score_bits[0], score_bits[1], "served bits, batch 1 vs 7");
        assert_eq!(score_bits[0], score_bits[2], "served bits, batch 1 vs all");
    }

    /// The digest's value, not only its equalities: replicas and restarts
    /// compare it across processes, so a change to the hash chain or to
    /// what it covers must show up here.
    #[test]
    fn state_digest_of_the_synthetic_replay_is_pinned() {
        let (g, model) = trained_model(45);
        let engine = StreamEngine::replay(Arc::clone(&model), &synthetic_log(&g, &model));
        assert_eq!(engine.state_digest(), 0xf27a_44bc_1fef_8283);
    }

    #[test]
    fn replay_constructor_matches_incremental_application() {
        let (g, model) = trained_model(46);
        let log = synthetic_log(&g, &model);
        let mut incremental = StreamEngine::new(Arc::clone(&model));
        for &ev in &log {
            incremental.apply(ev);
        }
        let replayed = StreamEngine::replay(Arc::clone(&model), &log);
        assert_eq!(incremental.state_digest(), replayed.state_digest());
    }

    #[test]
    fn rebind_refolds_the_log_against_the_new_model() {
        let (g, model) = trained_model(47);
        let log = synthetic_log(&g, &model);
        let mut engine = StreamEngine::replay(Arc::clone(&model), &log);

        // Rebinding to the same model is a no-op on the digest.
        let before = engine.state_digest();
        engine.rebind(Arc::clone(&model));
        assert_eq!(engine.state_digest(), before);

        // Rebinding to a different model re-normalizes: digest equals a
        // fresh replay against that model.
        let (_, other) = trained_model(48);
        engine.rebind(Arc::clone(&other));
        let fresh = StreamEngine::replay(other, &log);
        assert_eq!(engine.state_digest(), fresh.state_digest());
    }

    /// The two counts recomputed from scratch over the overlay.
    fn recount(engine: &StreamEngine) -> (usize, usize) {
        let count = |state| engine.overlay.values().filter(|&&s| s == state).count();
        (count(Overlay::Added), count(Overlay::Removed))
    }

    fn counts(engine: &StreamEngine) -> (usize, usize) {
        (engine.live_dynamic(), engine.removed_trained())
    }

    /// Two models over one network, trained once for every proptest case.
    fn shared_models() -> &'static (MixedSocialNetwork, [Arc<DirectionalityModel>; 2]) {
        static MODELS: std::sync::OnceLock<(MixedSocialNetwork, [Arc<DirectionalityModel>; 2])> =
            std::sync::OnceLock::new();
        MODELS.get_or_init(|| {
            let (g, a) = trained_model(49);
            let cfg = DeepDirectConfig {
                dim: 8,
                max_iterations: Some(20_000),
                seed: 50,
                ..Default::default()
            };
            let b = Arc::new(DeepDirect::new(cfg).fit(&g));
            (g, [a, b])
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The O(1) counts kept by apply/rebind equal a recount over the
        /// overlay after any event sequence, and after every rebind.
        #[test]
        fn kept_counts_match_a_recount_over_the_overlay(
            raw in proptest::collection::vec((0u8..3, 0usize..16, 0u32..4, 0u32..4), 0..60),
        ) {
            let (g, models) = shared_models();
            let trained: Vec<(u32, u32)> =
                g.iter_ties().take(8).map(|(_, t)| (t.src.0, t.dst.0)).collect();
            let mut engine = StreamEngine::new(Arc::clone(&models[0]));
            for (op, pick, a, b) in raw {
                // Half the picks name a trained tie, half one of 16 pairs
                // past the network's node range (never trained), so
                // tombstones, refollows, dynamic follows and unfollows of
                // the same pairs all recur.
                let (u, v) = trained.get(pick).copied().unwrap_or((1000 + a, 1004 + b));
                let op = [EventOp::Follow, EventOp::Unfollow, EventOp::Reciprocate][op as usize];
                engine.apply(TieEvent::new(op, u, v));
                proptest::prop_assert_eq!(counts(&engine), recount(&engine));
            }
            for model in [&models[1], &models[0]] {
                engine.rebind(Arc::clone(model));
                proptest::prop_assert_eq!(counts(&engine), recount(&engine));
            }
        }
    }
}
