//! Statistics and experiment harness for the `sparsegossip` simulator.
//!
//! The paper's claims are asymptotic shapes (`T_B = Θ̃(n/√k)`,
//! thresholds at `r_c ≈ √(n/k)`, …); this crate turns Monte-Carlo runs
//! into those shapes:
//!
//! * [`Summary`] — replication summaries (mean, CI, quantiles);
//! * [`power_law_fit`] — log–log regression recovering scaling
//!   exponents with standard errors;
//! * [`Runner`] — multi-seed parallel execution of one simulation
//!   configuration (the ensemble companion of the `Process` API);
//! * [`Sweep`] — parameter sweeps with per-point replication, run
//!   across threads with deterministic per-replicate seeds
//!   ([`derive_seed`]);
//! * [`ScenarioSweep`] — multi-axis sweeps of a declarative
//!   `ScenarioSpec` over {side, k, r} and the config keys of
//!   [`AXIS_KEYS`], with a phase-transition detector
//!   cross-checked against `sparsegossip_core::theory`, an adaptive
//!   knee-refinement mode ([`AdaptiveConfig`]) and checkpoint/resume
//!   through a [`ResultStore`];
//! * [`ResultStore`] — an append-only, integrity-checked binary log
//!   of completed simulations, keyed by (spec content hash, seed);
//! * [`Table`] — aligned text/CSV rendering of experiment outputs.
//!
//! # Examples
//!
//! Recover a known exponent from synthetic data:
//!
//! ```
//! use sparsegossip_analysis::power_law_fit;
//!
//! let xs = [4.0f64, 16.0, 64.0, 256.0];
//! let ys: Vec<f64> = xs.iter().map(|x| 3.0 * x.powf(-0.5)).collect();
//! let fit = power_law_fit(&xs, &ys).unwrap();
//! assert!((fit.exponent - (-0.5)).abs() < 1e-9);
//! assert!((fit.r_squared - 1.0).abs() < 1e-9);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod histogram;
mod parallel;
mod regression;
mod runner;
mod scenario_sweep;
mod stats;
mod store;
mod sweep;
mod table;

pub use histogram::Histogram;
pub use parallel::{parallel_map, parallel_map_with};
pub use regression::{linear_fit, power_law_fit, Fit};
pub use runner::{Runner, RunnerReport};
pub use scenario_sweep::{
    AdaptiveConfig, AdaptiveSummary, AxisKey, AxisLabels, Family, RadiusAxis, ScenarioCell,
    ScenarioSweep, ScenarioSweepReport, SweepCell, SweepError, TransitionEstimate, AXIS_KEYS,
};
pub use store::{ResultStore, StoreError, StoreRecord};
// Seed derivation moved down-stack to `sparsegossip_walks` so the
// protocol twin can share it; re-exported here for API stability.
pub use sparsegossip_walks::{derive_seed, SeedSequence};
pub use stats::Summary;
pub use sweep::{Sweep, SweepPoint};
pub use table::Table;
