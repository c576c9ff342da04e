//! E6 — random-walk range and displacement (Lemma 2).
//!
//! Claims: (2.2) after `ℓ` steps a walk has visited `Ω(ℓ/log ℓ)`
//! distinct nodes with probability > 1/2; (2.1) the deviation from the
//! start exceeds `λ√ℓ` with probability at most `~e^{−λ²/2}`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_walks::{azuma_deviation_bound, lazy_step, DisplacementTracker, RangeTracker};

use crate::common::{fmt_exponent, verdict, ExpCtx};

fn walk_stats(side: u32, ell: u64, seed: u64) -> (f64, f64) {
    let grid = Grid::new(side).expect("valid side");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mid = side / 2;
    let mut p = Point::new(mid, mid);
    let mut range = RangeTracker::new(&grid);
    let mut disp = DisplacementTracker::new(p);
    range.record(&grid, p);
    for _ in 0..ell {
        p = lazy_step(&grid, p, &mut rng);
        range.record(&grid, p);
    }
    disp.record(p);
    (range.distinct() as f64, f64::from(disp.last_deviation()))
}

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(1024, 2048);
    let ells: Vec<u64> = ctx.pick(
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16],
        vec![1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18],
    );
    let reps = ctx.pick(20, 50);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&ells, |&ell, seed| walk_stats(side, ell, seed).0);

    let mut table = Table::new(vec![
        "ell".into(),
        "mean range".into(),
        "range/(ell/ln ell)".into(),
    ]);
    for p in &points {
        let shape = p.param as f64 / (p.param as f64).ln();
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.0}", p.summary.mean()),
            format!("{:.3}", p.summary.mean() / shape),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = points.iter().map(|p| p.param as f64).collect();
    let ys: Vec<f64> = points.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points");
    println!(
        "fitted exponent of R_ell ~ ell^e: e = {}",
        fmt_exponent(&fit)
    );
    println!("paper: e = 1 up to the 1/log factor (so slightly below 1)");

    // Displacement tail at lambda = 3.
    let ell = *ells.last().expect("nonempty");
    let lambda = 3.0f64;
    let threshold = lambda * (ell as f64).sqrt();
    let tail_reps: u32 = ctx.pick(400, 1000);
    let tail_sweep = Sweep::new(ctx.seed ^ 0xD15C)
        .replicates(tail_reps)
        .threads(ctx.threads);
    let tail = tail_sweep.run(&[ell], |&l, seed| {
        let (_, dev) = walk_stats(side, l, seed);
        f64::from(u8::from(dev >= threshold))
    });
    let rate = tail[0].summary.mean();
    let bound = azuma_deviation_bound(lambda);
    println!("displacement tail at lambda={lambda}: empirical {rate:.4} vs Azuma bound {bound:.4}");
    verdict(
        (fit.exponent - 1.0).abs() < 0.15 && rate <= bound + 0.01,
        &format!(
            "range exponent {:.3} ~ 1; tail {rate:.4} <= {bound:.4}",
            fit.exponent
        ),
    )
}
