//! E20 — diffusive scaling of the lazy walk.
//!
//! Every horizon in the paper (`d²` steps in Lemmas 1 and 3, `ℓ²`-sized
//! intervals in Theorem 1, `γ²/144 log n` windows in Lemma 7) rests on
//! the walk being diffusive: mean squared displacement `MSD(t) ≈ 0.8·t`
//! in the interior (move probability 4/5), saturating at the boundary
//! scale. We verify the slope and the saturation.

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{linear_fit, Table};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_walks::{msd_curve, LAZY_WALK_MSD_SLOPE};

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E20",
        "mean squared displacement of the lazy walk",
        "MSD(t) = (4/5) t in the interior; saturation at the boundary scale",
    );
    let side: u32 = ctx.pick(512, 1024);
    let trials: u32 = ctx.pick(800, 3000);
    let checkpoints: Vec<u64> = vec![25, 50, 100, 200, 400, 800];

    let grid = Grid::new(side).expect("valid side");
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mid = Point::new(side / 2, side / 2);
    let curve = msd_curve(&grid, mid, &checkpoints, trials, &mut rng);

    let mut table = Table::new(vec!["t".into(), "MSD".into(), "MSD/t".into()]);
    for (t, msd) in checkpoints.iter().zip(&curve) {
        table.push_row(vec![
            t.to_string(),
            format!("{msd:.1}"),
            format!("{:.3}", msd / *t as f64),
        ]);
    }
    println!("{table}");

    let ts: Vec<f64> = checkpoints.iter().map(|&t| t as f64).collect();
    let fit = linear_fit(&ts, &curve).expect("fit");
    println!(
        "fitted MSD slope: {:.3} ± {:.3} (theory: {LAZY_WALK_MSD_SLOPE})",
        fit.slope, fit.slope_std_err
    );

    // Saturation on a small grid: MSD at long times is capped near the
    // squared grid scale instead of growing linearly.
    let small = Grid::new(16).expect("valid side");
    let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0xD1F);
    let sat = msd_curve(
        &small,
        Point::new(8, 8),
        &[100, 1000, 10_000],
        trials,
        &mut rng,
    );
    println!(
        "saturation on a 16-grid: MSD(100) = {:.1}, MSD(1000) = {:.1}, MSD(10000) = {:.1}",
        sat[0], sat[1], sat[2]
    );
    let saturated = sat[2] / sat[1];
    verdict(
        (fit.slope - LAZY_WALK_MSD_SLOPE).abs() < 0.05 && saturated < 1.3,
        &format!(
            "interior slope {:.3} ≈ 0.8; boundary saturation ratio {saturated:.2} ≈ 1",
            fit.slope
        ),
    )
}
