//! E10 — coverage time vs broadcast time (§4).
//!
//! Claim: `T_C ≈ T_B = Õ(n/√k)` in the dynamic model — the time for
//! informed agents to touch every grid node scales like the broadcast
//! time (coverage completes within a polylog factor of broadcast).

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_bench::{fmt_exponent, verdict, ExpCtx};
use sparsegossip_core::{SimConfig, Simulation};

fn coverage_pair(side: u32, k: usize, seed: u64) -> (f64, f64) {
    let config = SimConfig::builder(side, k)
        .radius(0)
        .max_steps(SimConfig::default_step_cap(side, k) * 4)
        .build()
        .expect("valid config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let out = Simulation::coverage(&config, &mut rng)
        .expect("constructible sim")
        .run(&mut rng);
    (
        out.broadcast_time.unwrap_or(config.max_steps()) as f64,
        out.coverage_time.unwrap_or(config.max_steps()) as f64,
    )
}

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E10",
        "coverage time T_C vs broadcast time T_B (Section 4)",
        "T_C ~ T_B = O~(n/sqrt(k)): bounded T_C/T_B, same k-exponent",
    );
    let side: u32 = ctx.pick(48, 96);
    let ks: Vec<usize> = ctx.pick(vec![8, 16, 32, 64], vec![8, 16, 32, 64, 128]);
    let reps = ctx.pick(8, 16);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let tb = sweep.run(&ks, |&k, seed| coverage_pair(side, k, seed).0);
    let tc = sweep.run(&ks, |&k, seed| coverage_pair(side, k, seed).1);

    let mut table = Table::new(vec![
        "k".into(),
        "T_B".into(),
        "T_C".into(),
        "T_C/T_B".into(),
    ]);
    let mut ratios = Vec::new();
    for (b, c) in tb.iter().zip(&tc) {
        let r = c.summary.mean() / b.summary.mean();
        ratios.push(r);
        table.push_row(vec![
            b.param.to_string(),
            format!("{:.1}", b.summary.mean()),
            format!("{:.1}", c.summary.mean()),
            format!("{r:.2}"),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = tc.iter().map(|p| p.param as f64).collect();
    let ys: Vec<f64> = tc.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points");
    println!("coverage exponent of T_C ~ k^e: e = {}", fmt_exponent(&fit));
    let max_ratio = ratios.iter().cloned().fold(f64::MIN, f64::max);
    let min_ratio = ratios.iter().cloned().fold(f64::MAX, f64::min);
    // T_C ≈ T_B up to polylog: the ratio stays within a small band, and
    // the exponent sits between the broadcast-dominated (-1/2) and
    // cover-dominated (-1) regimes (both are Õ(n/√k) at these sizes).
    verdict(
        (-1.1..=-0.4).contains(&fit.exponent) && max_ratio < 10.0 && min_ratio > 0.3,
        &format!(
            "e = {:.3} in [-1.1, -0.4]; T_C/T_B in [{min_ratio:.2}, {max_ratio:.2}] (bounded)",
            fit.exponent
        ),
    )
}
