//! Shared plumbing for the experiment binaries that regenerate every
//! claim of Pettarin et al. (PODC 2011).
//!
//! Each binary (`exp_*`) prints a header, a result table, and — where a
//! scaling exponent or threshold is claimed — a fit with the paper's
//! expected value. See `EXPERIMENTS.md` at the workspace root for the
//! full index and recorded results.
//!
//! # Scale control
//!
//! Binaries honor the `SG_SCALE` environment variable:
//!
//! * `quick` (default) — minute-scale total runtime, sizes large
//!   enough for the shapes to be visible;
//! * `full` — larger grids / more replicates for tighter exponents.
//!
//! `SG_SEED` overrides the master seed (default 2011, the venue year).
//! `SG_THREADS` overrides the worker-thread count.

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_core::{Mobility, SimConfig, Simulation};

/// Experiment scale selected via `SG_SCALE`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minute-scale defaults.
    Quick,
    /// Publication-scale runs.
    Full,
}

/// Runtime context shared by all experiment binaries.
#[derive(Clone, Copy, Debug)]
pub struct ExpCtx {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed for the sweep harness.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl ExpCtx {
    /// Reads `SG_SCALE`, `SG_SEED` and `SG_THREADS` from the
    /// environment, prints the standard experiment header, and returns
    /// the context.
    #[must_use]
    pub fn init(id: &str, title: &str, claim: &str) -> Self {
        let scale = match std::env::var("SG_SCALE").as_deref() {
            Ok("full") => Scale::Full,
            _ => Scale::Quick,
        };
        let seed = std::env::var("SG_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(2011);
        let threads = std::env::var("SG_THREADS")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, usize::from));
        println!("=== {id}: {title} ===");
        println!("paper claim: {claim}");
        println!("scale: {scale:?}, seed: {seed}, threads: {threads}");
        println!();
        Self {
            scale,
            seed,
            threads,
        }
    }

    /// Picks `quick` or `full` depending on the scale.
    #[must_use]
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self.scale {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Runs one broadcast and returns `T_B` as `f64` (the step cap if the
/// run did not finish — callers should size caps so this is rare).
#[must_use]
pub fn measure_broadcast(side: u32, k: usize, r: u32, seed: u64) -> f64 {
    let config = SimConfig::builder(side, k)
        .radius(r)
        .build()
        .expect("valid experiment config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible sim");
    let out = sim.run(&mut rng);
    out.broadcast_time.unwrap_or(config.max_steps()) as f64
}

/// Runs one Frog-model broadcast and returns `T_B` as `f64`.
#[must_use]
pub fn measure_frog(side: u32, k: usize, r: u32, seed: u64) -> f64 {
    let config = SimConfig::builder(side, k)
        .radius(r)
        .mobility(Mobility::InformedOnly)
        .build()
        .expect("valid experiment config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::frog(&config, &mut rng).expect("constructible sim");
    let out = sim.run(&mut rng);
    out.broadcast_time.unwrap_or(config.max_steps()) as f64
}

/// Runs one gossip and returns `T_G` as `f64`.
#[must_use]
pub fn measure_gossip(side: u32, k: usize, r: u32, seed: u64) -> f64 {
    let config = SimConfig::builder(side, k)
        .radius(r)
        .build()
        .expect("valid experiment config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::gossip(&config, &mut rng).expect("constructible sim");
    let out = sim.run(&mut rng);
    out.gossip_time.unwrap_or(config.max_steps()) as f64
}

/// Formats a fitted exponent with its standard error.
#[must_use]
pub fn fmt_exponent(fit: &sparsegossip_analysis::Fit) -> String {
    format!(
        "{:.3} ± {:.3} (R² = {:.4})",
        fit.exponent, fit.slope_std_err, fit.r_squared
    )
}

/// Prints the standard closing verdict line and returns the exit code
/// for `main`: success when the paper's shape was reproduced, failure on
/// a MISMATCH, so scripts and CI see the claim fail.
#[must_use = "return the exit code from `main` so a mismatch fails the run"]
pub fn verdict(ok: bool, detail: &str) -> ExitCode {
    if ok {
        println!("VERDICT: shape reproduced — {detail}");
        ExitCode::SUCCESS
    } else {
        println!("VERDICT: MISMATCH — {detail}");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_maps_mismatch_to_failure() {
        assert_eq!(verdict(true, "shape"), ExitCode::SUCCESS);
        assert_eq!(verdict(false, "no shape"), ExitCode::FAILURE);
    }

    #[test]
    fn pick_respects_scale() {
        let ctx = ExpCtx {
            scale: Scale::Quick,
            seed: 1,
            threads: 1,
        };
        assert_eq!(ctx.pick(1, 2), 1);
        let ctx = ExpCtx {
            scale: Scale::Full,
            seed: 1,
            threads: 1,
        };
        assert_eq!(ctx.pick(1, 2), 2);
    }

    #[test]
    fn measures_return_finite_positive_times() {
        assert!(measure_broadcast(16, 8, 0, 1) > 0.0);
        assert!(measure_frog(12, 8, 0, 2) > 0.0);
        assert!(measure_gossip(12, 6, 0, 3) > 0.0);
    }

    #[test]
    fn identical_seeds_reproduce() {
        let a = measure_broadcast(16, 8, 1, 42);
        let b = measure_broadcast(16, 8, 1, 42);
        assert_eq!(a, b);
    }
}
