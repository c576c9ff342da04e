//! E3 — broadcast time vs. transmission radius (the headline result).
//!
//! Claim: below the percolation radius `r_c ≈ √(n/k)` the broadcast
//! time does **not** depend on `r` (Theorems 1 + 2); above `r_c` it
//! collapses to polylogarithmic growth (Peres et al., the paper's
//! complement). Expect a flat profile for `r < r_c` and a sharp drop
//! past `r_c`.

use sparsegossip_analysis::{Sweep, Table};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

use crate::common::{completion_time, verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(128, 192);
    let k: usize = 64;
    let n = f64::from(side) * f64::from(side);
    let rc = (n / k as f64).sqrt(); // 16 at side=128
    let radii: Vec<u32> = [0.0, 0.06, 0.12, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|frac| (frac * rc).round() as u32)
        .collect();
    let reps = ctx.pick(10, 24);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&radii, |&r, seed| {
        completion_time(ScenarioSpec::builder(ProcessKind::Broadcast, side, k).radius(r), seed)
    });

    let mut table = Table::new(vec![
        "r".into(),
        "r/r_c".into(),
        "mean T_B".into(),
        "ci95".into(),
        "median".into(),
    ]);
    for p in &points {
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.2}", f64::from(p.param) / rc),
            format!("{:.1}", p.summary.mean()),
            format!("{:.1}", p.summary.ci95_half_width()),
            format!("{:.1}", p.summary.median()),
        ]);
    }
    println!("{table}");
    println!("r_c = sqrt(n/k) = {rc:.1}");

    // The Θ̃-independence below r_c allows polylog variation; the sharp
    // statements are (a) every sub-critical T_B sits above the Theorem 2
    // floor n/(√k·ln²n), and (b) crossing r_c collapses T_B by far more
    // than the whole sub-critical spread.
    let floor = {
        let l = n.ln();
        n / ((k as f64).sqrt() * l * l)
    };
    let below: Vec<f64> = points
        .iter()
        .filter(|p| f64::from(p.param) <= 0.75 * rc)
        .map(|p| p.summary.mean())
        .collect();
    let above: Vec<f64> = points
        .iter()
        .filter(|p| f64::from(p.param) >= 2.0 * rc)
        .map(|p| p.summary.mean())
        .collect();
    let below_min = below.iter().cloned().fold(f64::MAX, f64::min);
    let flat_ratio = below.iter().cloned().fold(f64::MIN, f64::max) / below_min;
    let above_mean = above.iter().sum::<f64>() / above.len() as f64;
    let collapse = below_min / above_mean.max(0.5); // 0.5 guards div-by-0 at T_B = 0
    println!("Theorem 2 floor n/(sqrt(k) ln^2 n) = {floor:.1}");
    println!("sub-critical spread (max/min over r <= 0.75 r_c): {flat_ratio:.2} (polylog allowed; ln^2 n = {:.0})", n.ln().powi(2));
    println!("collapse across r_c (min sub-critical / mean at >= 2 r_c): {collapse:.1}x");
    verdict(
        below_min >= floor && collapse > flat_ratio && collapse > 5.0,
        &format!(
            "all sub-critical T_B >= floor {floor:.0}; collapse {collapse:.1}x dwarfs sub-critical spread {flat_ratio:.2}x"
        ),
    )
}
