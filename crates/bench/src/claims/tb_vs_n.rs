//! E1 — broadcast time vs. grid size (Theorem 1).
//!
//! Claim: `T_B = Θ̃(n/√k)`, so at fixed `k` the log–log slope of `T_B`
//! against `n` is ≈ 1 (up to polylog).

use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

use crate::common::{completion_time, fmt_exponent, verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let k: usize = 32;
    let sides: Vec<u32> = ctx.pick(
        vec![32, 48, 64, 96, 128],
        vec![32, 48, 64, 96, 128, 192, 256],
    );
    let reps = ctx.pick(10, 24);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&sides, |&side, seed| {
        completion_time(ScenarioSpec::builder(ProcessKind::Broadcast, side, k), seed)
    });

    let mut table = Table::new(vec![
        "side".into(),
        "n".into(),
        "mean T_B".into(),
        "ci95".into(),
        "T_B/(n/sqrt(k))".into(),
    ]);
    for p in &points {
        let n = f64::from(p.param) * f64::from(p.param);
        let shape = n / (k as f64).sqrt();
        table.push_row(vec![
            p.param.to_string(),
            format!("{n:.0}"),
            format!("{:.1}", p.summary.mean()),
            format!("{:.1}", p.summary.ci95_half_width()),
            format!("{:.3}", p.summary.mean() / shape),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = points
        .iter()
        .map(|p| f64::from(p.param) * f64::from(p.param))
        .collect();
    let ys: Vec<f64> = points.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points to fit");
    println!("fitted exponent of T_B ~ n^e: e = {}", fmt_exponent(&fit));
    println!("paper: e = 1 (up to polylog factors)");
    verdict(
        (fit.exponent - 1.0).abs() < 0.25,
        &format!("measured e = {:.3} vs 1.0", fit.exponent),
    )
}
