//! E2 — broadcast time vs. number of agents (Theorem 1 / Corollary 1).
//!
//! Claim: `T_B = Θ̃(n/√k)`, so at fixed `n` the log–log slope of `T_B`
//! against `k` is ≈ −1/2 (slightly steeper/shallower within the polylog
//! slack).

use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

use crate::common::{completion_time, fmt_exponent, verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(128, 256);
    let ks: Vec<usize> = ctx.pick(
        vec![8, 16, 32, 64, 128, 256],
        vec![8, 16, 32, 64, 128, 256, 512, 1024],
    );
    let reps = ctx.pick(10, 24);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&ks, |&k, seed| {
        completion_time(ScenarioSpec::builder(ProcessKind::Broadcast, side, k), seed)
    });

    let n = f64::from(side) * f64::from(side);
    let mut table = Table::new(vec![
        "k".into(),
        "mean T_B".into(),
        "ci95".into(),
        "median".into(),
        "n/sqrt(k)".into(),
        "T_B/(n/sqrt(k))".into(),
    ]);
    for p in &points {
        let shape = n / (p.param as f64).sqrt();
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.1}", p.summary.mean()),
            format!("{:.1}", p.summary.ci95_half_width()),
            format!("{:.1}", p.summary.median()),
            format!("{shape:.1}"),
            format!("{:.3}", p.summary.mean() / shape),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = points.iter().map(|p| p.param as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points to fit");
    println!("fitted exponent of T_B ~ k^e: e = {}", fmt_exponent(&fit));
    println!("paper: e = -0.5 (up to polylog factors)");
    verdict(
        (fit.exponent + 0.5).abs() < 0.2,
        &format!("measured e = {:.3} vs -0.5", fit.exponent),
    )
}
