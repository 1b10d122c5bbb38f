//! Abstract interpretation over app resource states.
//!
//! ea-lint v2's core: instead of pattern-matching manifests, each app is
//! lowered to a three-phase lifecycle graph whose nodes carry elements
//! of a finite-height resource-state lattice ([`ResourceState`]). A
//! worklist solver ([`AbsintSolution::solve`]) runs monotone transfer
//! functions ([`transfer`]) to fixpoint, generalizes the old two-hop
//! intent pass into k-hop interprocedural reachability, and prices every
//! abstract envelope through the real device calibration
//! ([`ea_power::PowerCoefficients`]) into a joules-per-day upper bound
//! ([`PricedEnvelope`]) — the number every diagnostic now carries and is
//! ranked by.
//!
//! Soundness contract (checked by `tests/lint_soundness.rs` and the
//! proptest harness): for every diagnostic, the static
//! `predicted_joules` bound dominates any collateral energy the dynamic
//! [`ea_core::CollateralMonitor`] ever attributes to that app for the
//! predicted attack kinds.

mod lattice;
mod price;
mod solver;
pub mod transfer;

pub use lattice::{Reason, Resource, ResourceState};
pub use price::{PricedEnvelope, Pricer, COMPONENTS, SECONDS_PER_DAY};
pub use solver::{AbsintSolution, ReachInfo, SolverStats};
pub use transfer::Phase;
