//! E18 — above the percolation point (the Peres et al. complement).
//!
//! Peres, Sinclair, Sousi & Stauffer (SODA 2011) show that **above**
//! the percolation density the broadcast time is polylogarithmic in k.
//! The paper positions its `Θ̃(n/√k)` as the sub-critical complement.
//! We run the same simulator at `r = 2 r_c` and at `r = r_c/2` and
//! contrast the k-scaling: polynomial below, near-flat (polylog) above.

use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

use crate::common::{completion_time, fmt_exponent, verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(128, 192);
    let n = f64::from(side) * f64::from(side);
    let ks: Vec<usize> = ctx.pick(vec![16, 32, 64, 128, 256], vec![16, 32, 64, 128, 256, 512]);
    let reps = ctx.pick(10, 20);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    // Radii scale with k so each point sits at the same r/r_c.
    let below = sweep.run(&ks, |&k, seed| {
        let rc = (n / k as f64).sqrt();
        let spec = ScenarioSpec::builder(ProcessKind::Broadcast, side, k);
        completion_time(spec.radius((0.5 * rc) as u32), seed)
    });
    let above = sweep.run(&ks, |&k, seed| {
        let rc = (n / k as f64).sqrt();
        let spec = ScenarioSpec::builder(ProcessKind::Broadcast, side, k);
        completion_time(spec.radius((2.0 * rc).ceil() as u32), seed)
    });

    let mut table = Table::new(vec![
        "k".into(),
        "T_B at r_c/2".into(),
        "T_B at 2 r_c".into(),
        "ratio".into(),
    ]);
    for (b, a) in below.iter().zip(&above) {
        table.push_row(vec![
            b.param.to_string(),
            format!("{:.1}", b.summary.mean()),
            format!("{:.2}", a.summary.mean()),
            format!("{:.0}", b.summary.mean() / a.summary.mean().max(0.5)),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = ks.iter().map(|&k| k as f64).collect();
    let yb: Vec<f64> = below.iter().map(|p| p.summary.mean()).collect();
    // Above-percolation times can be 0 (connected at placement); shift
    // by +1 so the log-log fit is defined.
    let ya: Vec<f64> = above.iter().map(|p| p.summary.mean() + 1.0).collect();
    let fit_below = power_law_fit(&xs, &yb).expect("fit");
    let fit_above = power_law_fit(&xs, &ya).expect("fit");
    println!("below r_c exponent: {}", fmt_exponent(&fit_below));
    println!(
        "above r_c exponent (on T_B + 1): {}",
        fmt_exponent(&fit_above)
    );
    verdict(
        fit_below.exponent < -0.3 && fit_above.exponent.abs() < 0.35,
        &format!(
            "polynomial decay below ({:.3}) vs near-flat above ({:.3})",
            fit_below.exponent, fit_above.exponent
        ),
    )
}
