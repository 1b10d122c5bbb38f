//! # ea-chaos — deterministic fault injection for the profiling stack
//!
//! Real profilers read dirty inputs: kernel counters reset, stall, or jump
//! backward; binder transactions fail; wakelock releases get lost; clocks
//! skew. This crate is the single source of *when* those things happen. A
//! [`FaultPlan`] is derived from the run seed, so every injected failure is
//! byte-reproducible: the same seed and the same plan produce the same
//! glitches, in the same order, at any parallelism.
//!
//! The crate deliberately sits *below* the framework and accounting layers
//! (it depends only on `ea-sim`): each layer pulls an injector from the plan
//! and consults it at its own hook points —
//!
//! * [`PowerFaults`] corrupts the cumulative per-component energy counters
//!   the profiler reads (reset, backward jump, stuck value, overflow spike);
//! * [`FrameworkFaults`] decides binder transaction failures, delayed death
//!   notifications, dropped/duplicated intents, lost wakelock releases, and
//!   the sim-level faults (clock skew, event reordering, scheduler hiccups)
//!   that the framework owns the state for;
//! * [`FaultPlan::device_panic_session`] and friends drive the fleet-level
//!   faults (shard panics, slow devices, poisoned corpus entries).
//!
//! Every injector keeps a [`FaultLog`] so the pipeline can report faults
//! *injected* vs. *detected* vs. *masked* honestly.
//!
//! A zero-rate plan is a strict no-op: injectors consult their private RNG
//! but never corrupt anything, so attaching `FaultPlan::zero(seed)` leaves
//! every observable byte of a run unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md §11).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod fault_log;
mod framework;
mod plan;
mod power;

pub use fault_log::FaultLog;
pub use framework::{FrameworkFaults, FrameworkPerturbation, IntentFate};
pub use plan::{FaultPlan, FaultRates};
pub use power::{CounterReading, Glitch, PowerFaults};
