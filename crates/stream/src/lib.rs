//! `dd-stream` — streaming tie ingestion with incremental fold-in.
//!
//! A live social network emits follow/unfollow/reciprocation events; this
//! crate makes direction queries reflect them seconds later **without
//! retraining**. Events arrive as JSONL (over stdin via `dd ingest`, or
//! `POST /ingest` on dd-serve) and fold into the frozen embedding space of
//! a trained [`DirectionalityModel`](deepdirect::DirectionalityModel):
//!
//! - a **follow** of an untrained pair becomes a *dynamic tie* scored by
//!   the head-cluster fold-in (DESIGN.md §6), which for an untrained pair
//!   depends on the head alone and is read from the
//!   [`ScoreTable`](deepdirect::ScoreTable)'s per-head scores, each the
//!   sigmoid of the head's mean in-row logit;
//! - an **unfollow** of a trained tie tombstones it (the pair stops
//!   scoring, exactly like an unknown tie);
//! - a **reciprocation** is a follow of both orders.
//!
//! The whole layer lives under the repo's determinism contract
//! (DESIGN.md §7.9/§7.15): the engine is a pure fold over an append-only
//! event log, so the log plus the training seed replays to bit-identical
//! state and served scores — regardless of batch sizes, thread counts, or
//! process restarts. Batches are atomic: a torn or malformed batch is
//! rejected whole, never half-applied.
//!
//! | Item | Role |
//! |---|---|
//! | [`TieEvent`] / [`EventOp`] | the JSONL wire format |
//! | [`parse_events`] / [`to_jsonl`] | atomic batch parse / render |
//! | [`StreamEngine`] | overlay + fold-in scoring + replay/rebind |
//! | [`ApplyReport`] | what a batch touched (drives cache invalidation) |

#![warn(missing_docs)]

pub mod engine;
pub mod event;

pub use engine::{ApplyReport, StreamEngine};
pub use event::{parse_events, read_events, to_jsonl, EventOp, TieEvent};
