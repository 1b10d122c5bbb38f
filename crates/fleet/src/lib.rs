#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Fallible paths must return errors, not panic: unwrap/expect are
// banned outside tests (DESIGN.md §11). Carve-outs need an explicit
// `#[allow]` with a proof of infallibility.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

//! # ea-fleet
//!
//! A sharded, deterministic fleet simulator: runs `N` independent seeded
//! device simulations — each a full [`ea_framework`] Android system with
//! a [`ea_core`] collateral monitor and profiler, an app mix sampled from
//! the synthetic Play corpus, and a scripted day-in-the-life workload —
//! across a std-only worker pool, then folds the per-device results into
//! a population-scale [`FleetReport`]: attack-kind prevalence, top
//! collateral drivers and victims, battery-drain percentiles, per-attack
//! collateral-energy totals, and a cross-check against `ea-lint`'s static
//! predictions.
//!
//! The engine's contract is simple: for a given `(seed, fleet_size)` the
//! report is **byte-identical** at any worker count, and a panicking
//! device becomes a [`DeviceFailure`] entry instead of aborting the run.
//!
//! ```
//! use ea_fleet::{run_fleet, FleetConfig};
//!
//! let config = FleetConfig { jobs: 2, ..FleetConfig::smoke(4, 7) };
//! let (report, stats) = run_fleet(&config);
//! assert_eq!(report.devices_completed, 4);
//! assert_eq!(stats.jobs, 2);
//!
//! // Same seed, different worker count: same bytes.
//! let solo = FleetConfig { jobs: 1, ..config };
//! let (again, _) = run_fleet(&solo);
//! assert_eq!(ea_fleet::render::to_json(&report), ea_fleet::render::to_json(&again));
//! ```

mod aggregate;
mod arena;
mod config;
mod device;
mod engine;
pub mod merge;
pub mod render;
pub mod replay;
pub mod supervise;

pub use aggregate::{
    aggregate, DeviceFailure, DeviceRow, DrainPercentiles, FleetHealth, FleetReport,
    KindPrevalence, LintCrossCheck, RankedEntity,
};
pub use arena::{SlotArena, SlotSpawn};
pub use config::{device_seed, FleetConfig, Retired};
pub use device::{
    simulate_device, simulate_device_attempt, simulate_device_forensic, simulate_device_observed,
    DeviceCheckpoint, DeviceReport, CHAOS_PANIC_PREFIX,
};
pub use engine::{run_fleet, run_fleet_observed, run_fleet_traced, FleetRunStats};
pub use merge::ReportFold;
pub use replay::{
    replay_failure, replay_healthy, replay_report, FailureReplay, HealthyReplay, ReplayReport,
};
pub use supervise::{SuperviseHooks, Supervision};
