//! E11 — predator–prey extinction time (§4 by-product).
//!
//! Claim: `k = Ω(log n)` predators catch all moving preys within
//! `O(n log²n / k)` steps w.h.p. — note the `1/k` (not `1/√k`) decay,
//! distinguishing this from the broadcast bound.

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_bench::{fmt_exponent, verdict, ExpCtx};
use sparsegossip_core::theory::extinction_time_shape;
use sparsegossip_core::{PredatorPrey, Simulation};
use sparsegossip_grid::Grid;

fn extinction(side: u32, k: usize, m: usize, seed: u64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let cap = 500u64 * u64::from(side) * u64::from(side);
    let grid = Grid::new(side).expect("valid side");
    let process = PredatorPrey::uniform(&grid, m, 0, true, &mut rng).expect("valid process");
    let mut sim = Simulation::new(grid, k, 0, cap, process, &mut rng).expect("constructible sim");
    sim.run(&mut rng).extinction_time.unwrap_or(cap) as f64
}

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E11",
        "predator-prey extinction time vs number of predators (Section 4)",
        "T_ext = O(n log^2 n / k): ~1/k decay (contrast broadcast's 1/sqrt(k))",
    );
    let side: u32 = ctx.pick(48, 64);
    let n = f64::from(side) * f64::from(side);
    let m: usize = 16;
    let ks: Vec<usize> = ctx.pick(vec![4, 8, 16, 32, 64], vec![4, 8, 16, 32, 64, 128]);
    let reps = ctx.pick(8, 20);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&ks, |&k, seed| extinction(side, k, m, seed));

    let mut table = Table::new(vec![
        "k predators".into(),
        "mean T_ext".into(),
        "ci95".into(),
        "n ln^2 n / k".into(),
        "measured/shape".into(),
    ]);
    for p in &points {
        let shape = extinction_time_shape(n, p.param as f64);
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.0}", p.summary.mean()),
            format!("{:.0}", p.summary.ci95_half_width()),
            format!("{shape:.0}"),
            format!("{:.3}", p.summary.mean() / shape),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = points.iter().map(|p| p.param as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points");
    println!(
        "extinction exponent of T_ext ~ k^e: e = {}",
        fmt_exponent(&fit)
    );
    println!("paper: e = -1 (up to logs; catching the last prey adds slack)");
    verdict(
        fit.exponent < -0.55,
        &format!(
            "measured e = {:.3}, decisively steeper than broadcast's -0.5",
            fit.exponent
        ),
    )
}
