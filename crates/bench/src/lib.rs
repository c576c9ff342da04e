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
//! Binaries honor the `SG_SCALE` environment variable, or the
//! `--quick`/`--full` arguments, which take precedence:
//!
//! * `quick` (default) — minute-scale total runtime, sizes large
//!   enough for the shapes to be visible;
//! * `full` — larger grids / more replicates for tighter exponents.
//!
//! `SG_SEED` overrides the master seed (default 2011, the venue year).
//! `SG_THREADS` overrides the worker-thread count. An unknown argument
//! or a malformed value is named on stderr and exits with status 2.

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
    /// Reads the scale (`--quick`/`--full` over `SG_SCALE`), the seed
    /// (`SG_SEED`) and the thread count (`SG_THREADS`), prints the
    /// standard experiment header, and returns the context. An unknown
    /// argument or a malformed value is named on stderr and exits with
    /// status 2.
    #[must_use]
    pub fn init(id: &str, title: &str, claim: &str) -> Self {
        Self::init_with_flags(id, title, claim, &[]).0
    }

    /// [`ExpCtx::init`] for a binary that also takes its own `flags`;
    /// returns the context and the flags given.
    #[must_use]
    pub fn init_with_flags<'f>(
        id: &str,
        title: &str,
        claim: &str,
        flags: &[&'f str],
    ) -> (Self, Vec<&'f str>) {
        let args: Vec<String> = std::env::args_os()
            .skip(1)
            .map(|a| a.to_string_lossy().into_owned())
            .collect();
        let env = |key: &str| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
        let (ctx, given) = Self::parse(&args, env, flags).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        });
        println!("=== {id}: {title} ===");
        println!("paper claim: {claim}");
        println!(
            "scale: {:?}, seed: {}, threads: {}",
            ctx.scale, ctx.seed, ctx.threads
        );
        println!();
        (ctx, given)
    }

    /// The one parse of an experiment binary's arguments and `SG_*`
    /// values (`env` looks a variable up). `--quick`/`--full` override
    /// `SG_SCALE`; any of `flags` is returned as given. An unknown
    /// argument or a malformed value is an error naming it. An unset
    /// `SG_THREADS` means the machine's available parallelism.
    fn parse<'f>(
        args: &[String],
        env: impl Fn(&str) -> Option<String>,
        flags: &[&'f str],
    ) -> Result<(Self, Vec<&'f str>), String> {
        let mut scale = match env("SG_SCALE").as_deref() {
            None | Some("quick") => Scale::Quick,
            Some("full") => Scale::Full,
            Some(other) => return Err(format!("SG_SCALE={other:?} is neither quick nor full")),
        };
        let seed = match env("SG_SEED") {
            None => 2011,
            Some(s) => s
                .parse()
                .map_err(|_| format!("SG_SEED={s:?} is not an unsigned 64-bit integer"))?,
        };
        let threads = match env("SG_THREADS") {
            None => std::thread::available_parallelism().map_or(4, usize::from),
            Some(s) => s
                .parse()
                .ok()
                .filter(|&t: &usize| t > 0)
                .ok_or_else(|| format!("SG_THREADS={s:?} is not a positive integer"))?,
        };
        let mut given = Vec::new();
        for arg in args {
            match arg.as_str() {
                "--quick" => scale = Scale::Quick,
                "--full" => scale = Scale::Full,
                other => match flags.iter().find(|&&f| f == other) {
                    Some(&flag) => given.push(flag),
                    None => {
                        let mut accepted = vec!["--quick", "--full"];
                        accepted.extend(flags.iter().copied());
                        return Err(format!(
                            "unknown argument {other:?} (accepted: {})",
                            accepted.join(", ")
                        ));
                    }
                },
            }
        }
        let ctx = Self {
            scale,
            seed,
            threads,
        };
        Ok((ctx, given))
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

    fn parse(args: &[&str], env: &[(&str, &str)]) -> Result<(ExpCtx, Vec<&'static str>), String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        let lookup = |key: &str| {
            env.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| (*v).to_string())
        };
        ExpCtx::parse(&args, lookup, &["--no-recovery"])
    }

    #[test]
    fn parse_reads_arguments_over_the_environment() {
        let (ctx, flags) = parse(&[], &[("SG_SEED", "7"), ("SG_THREADS", "3")]).unwrap();
        assert_eq!((ctx.scale, ctx.seed, ctx.threads), (Scale::Quick, 7, 3));
        assert!(flags.is_empty());
        let (ctx, _) = parse(&[], &[("SG_SCALE", "full")]).unwrap();
        assert_eq!((ctx.scale, ctx.seed), (Scale::Full, 2011));
        let (ctx, _) = parse(&["--quick"], &[("SG_SCALE", "full")]).unwrap();
        assert_eq!(ctx.scale, Scale::Quick);
        let (ctx, flags) = parse(&["--no-recovery", "--full"], &[]).unwrap();
        assert_eq!((ctx.scale, flags), (Scale::Full, vec!["--no-recovery"]));
    }

    #[test]
    fn parse_names_unknown_arguments_and_malformed_values() {
        let names = |args: &[&str], env: &[(&str, &str)], input: &str| {
            let err = parse(args, env).unwrap_err();
            assert!(err.contains(input), "{args:?} {env:?}: {err}");
        };
        names(&["--ful"], &[], "\"--ful\"");
        names(&["--quick", "-q"], &[], "\"-q\"");
        names(&[], &[("SG_SCALE", "Full")], "SG_SCALE=\"Full\"");
        names(&[], &[("SG_SEED", "x1")], "SG_SEED=\"x1\"");
        names(&[], &[("SG_SEED", "-1")], "SG_SEED=\"-1\"");
        names(&[], &[("SG_THREADS", "0")], "SG_THREADS=\"0\"");
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
