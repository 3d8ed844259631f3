//! dd-testkit: deterministic fault injection and adversarial input
//! generation for the DeepDirect test suites.
//!
//! The serving stack claims to survive hostile or unlucky I/O — short
//! reads, torn writes, timeouts, mid-message disconnects, malformed
//! byte streams. This crate is how the test suites *prove* it, without
//! flakiness: every fault and every adversarial input is drawn from a
//! seeded [`Pcg32`](dd_linalg::Pcg32) schedule, so a failing seed
//! reproduces exactly and CI can replay thousands of schedules
//! deterministically.
//!
//! Two halves:
//!
//! - [`chaos`] — [`ChaosStream`], a `Read + Write` wrapper that injects
//!   faults from a seeded [`FaultPlan`] between a caller and any inner
//!   stream (an in-memory cursor, a real `TcpStream`), plus
//!   [`KillSchedule`], a seeded shard-kill schedule for fleet failover
//!   tests.
//! - [`gen`] — seeded generators for malformed/adversarial HTTP request
//!   bytes, corrupt JSON documents (the `.ddm` meta section) and `.ddm`
//!   containers, and degenerate edge lists / weight vectors / feature rows.
//!
//! dd-testkit is a **dev-dependency only**: nothing in the production
//! build depends on it, and it deliberately never catches unwinds — a
//! panic in code under test must fail the test (CI greps that
//! unwind-catching stays confined to `crates/serve` and
//! `crates/runtime`). Like the rest of the workspace it is std-only.

#![warn(missing_docs)]

pub mod chaos;
pub mod gen;

pub use chaos::{shuffled, ChaosStream, Fault, FaultPlan, KillSchedule};
