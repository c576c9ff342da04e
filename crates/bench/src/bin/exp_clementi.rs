//! E14 — the dense-MANET baseline of Clementi et al. (§1.1, refs \[7,8\]).
//!
//! Their model: `k = Θ(n)` agents, jumps of radius ρ, one-hop exchange
//! within radius `R` per step; result `T_B = Θ(√n / R)` w.h.p. for
//! `ρ = O(R)`. Expect a log–log slope of ≈ −1 in `R`.

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_bench::{fmt_exponent, verdict, ExpCtx};
use sparsegossip_core::baseline::{ClementiConfig, ClementiSim};

fn clementi_tb(side: u32, k: usize, big_r: u32, rho: u32, seed: u64) -> f64 {
    let config = ClementiConfig {
        side,
        k,
        exchange_radius: big_r,
        jump_radius: rho,
        max_steps: 1_000_000,
    };
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = ClementiSim::new(&config, &mut rng).expect("constructible sim");
    sim.run(&mut rng).broadcast_time.unwrap_or(config.max_steps) as f64
}

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E14",
        "dense-MANET baseline (Clementi et al.): T_B vs exchange radius R",
        "for k = Theta(n), rho = O(R): T_B = Theta(sqrt(n)/R) => slope -1 in R",
    );
    let side: u32 = ctx.pick(48, 96);
    let k = (u64::from(side) * u64::from(side) / 2) as usize; // dense: k = n/2
    let rs: Vec<u32> = ctx.pick(vec![2, 3, 4, 6, 8, 12], vec![2, 3, 4, 6, 8, 12, 16, 24]);
    let reps = ctx.pick(8, 16);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&rs, |&big_r, seed| {
        clementi_tb(side, k, big_r, big_r.min(2), seed)
    });

    let sqrt_n = f64::from(side);
    let mut table = Table::new(vec![
        "R".into(),
        "mean T_B".into(),
        "ci95".into(),
        "sqrt(n)/R".into(),
        "measured/shape".into(),
    ]);
    for p in &points {
        let shape = sqrt_n / f64::from(p.param);
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.1}", p.summary.mean()),
            format!("{:.1}", p.summary.ci95_half_width()),
            format!("{shape:.1}"),
            format!("{:.3}", p.summary.mean() / shape),
        ]);
    }
    println!("{table}");
    println!(
        "k = {k} agents on n = {} nodes (dense regime)",
        u64::from(side) * u64::from(side)
    );

    let xs: Vec<f64> = points.iter().map(|p| f64::from(p.param)).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points");
    println!("fitted exponent of T_B ~ R^e: e = {}", fmt_exponent(&fit));
    println!("Clementi et al.: e = -1");
    verdict(
        (fit.exponent + 1.0).abs() < 0.3,
        &format!("measured e = {:.3} vs -1.0", fit.exponent),
    )
}
