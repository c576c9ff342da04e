//! E9 — gossip time (Corollary 2).
//!
//! Claim: with every agent holding a distinct rumor, the time for all
//! agents to learn all rumors is also `Õ(n/√k)` — i.e. the same
//! scaling as broadcast, with a bounded `T_G/T_B` ratio.

use std::process::ExitCode;

use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_bench::{fmt_exponent, measure_broadcast, measure_gossip, verdict, ExpCtx};

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E9",
        "gossip time vs k (all k rumors to all agents)",
        "T_G = O~(n/sqrt(k)); T_G/T_B bounded by a polylog factor",
    );
    let side: u32 = ctx.pick(64, 128);
    let ks: Vec<usize> = ctx.pick(vec![8, 16, 32, 64], vec![8, 16, 32, 64, 128, 256]);
    let reps = ctx.pick(8, 20);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let gossip = sweep.run(&ks, |&k, seed| measure_gossip(side, k, 0, seed));
    let broadcast = sweep.run(&ks, |&k, seed| measure_broadcast(side, k, 0, seed));

    let mut table = Table::new(vec![
        "k".into(),
        "T_G".into(),
        "T_B".into(),
        "T_G/T_B".into(),
    ]);
    let mut ratios = Vec::new();
    for (g, b) in gossip.iter().zip(&broadcast) {
        let ratio = g.summary.mean() / b.summary.mean();
        ratios.push(ratio);
        table.push_row(vec![
            g.param.to_string(),
            format!("{:.1}", g.summary.mean()),
            format!("{:.1}", b.summary.mean()),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = gossip.iter().map(|p| p.param as f64).collect();
    let ys: Vec<f64> = gossip.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points");
    println!("gossip exponent of T_G ~ k^e: e = {}", fmt_exponent(&fit));
    let max_ratio = ratios.iter().cloned().fold(f64::MIN, f64::max);
    println!("max T_G/T_B ratio: {max_ratio:.2}");
    verdict(
        (fit.exponent + 0.5).abs() < 0.25 && max_ratio < 6.0,
        &format!(
            "e = {:.3} vs -0.5; ratio <= {max_ratio:.2} (bounded)",
            fit.exponent
        ),
    )
}
