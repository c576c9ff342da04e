//! Plumbing shared by the claims: the run context, the spec-path time
//! measurement, and the fit and verdict lines every claim prints.

use sparsegossip_analysis::Fit;
use sparsegossip_core::ScenarioSpecBuilder;

/// Experiment scale, from `SG_SCALE` or `--quick`/`--full`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Minute-scale defaults.
    Quick,
    /// Publication-scale runs.
    Full,
}

/// Runtime context shared by all claims.
pub struct ExpCtx {
    /// Selected scale.
    pub scale: Scale,
    /// Master seed for the sweep harness.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
    /// The claim's own flags that were given.
    pub flags: Vec<&'static str>,
}

impl ExpCtx {
    /// Picks `quick` or `full` depending on the scale.
    #[must_use]
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        match self.scale {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Builds `spec` and runs it once through the spec path, returning its
/// completion time (`T_B`, or `T_G` for gossip) as `f64`: the step cap
/// if the run did not finish, so callers size caps to make that rare.
#[must_use]
pub fn completion_time(spec: ScenarioSpecBuilder, seed: u64) -> f64 {
    spec.build().expect("valid experiment spec").run_seed(seed)
}

/// Formats a fitted exponent with its standard error.
#[must_use]
pub fn fmt_exponent(fit: &Fit) -> String {
    format!(
        "{:.3} ± {:.3} (R² = {:.4})",
        fit.exponent, fit.slope_std_err, fit.r_squared
    )
}

/// Prints the standard closing verdict line and returns `ok`: true when
/// the paper's shape was reproduced, false on a MISMATCH.
#[must_use = "a MISMATCH must fail the run"]
pub fn verdict(ok: bool, detail: &str) -> bool {
    if ok {
        println!("VERDICT: shape reproduced — {detail}");
    } else {
        println!("VERDICT: MISMATCH — {detail}");
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_maps_mismatch_to_failure() {
        assert!(verdict(true, "shape"));
        assert!(!verdict(false, "no shape"));
    }

    #[test]
    fn pick_respects_scale() {
        let mut ctx = ExpCtx {
            scale: Scale::Quick,
            seed: 1,
            threads: 1,
            flags: Vec::new(),
        };
        assert_eq!(ctx.pick(1, 2), 1);
        ctx.scale = Scale::Full;
        assert_eq!(ctx.pick(1, 2), 2);
    }
}
