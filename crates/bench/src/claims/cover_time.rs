//! E7 — cover time of k independent walks (§4 by-product).
//!
//! Claim: the time for `k` uniformly-placed walks to touch every node
//! is `O(n log²n / k + n log n)` w.h.p. — near-linear speedup in `k`
//! until the additive `n log n` term takes over.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_core::theory::cover_time_shape;
use sparsegossip_grid::Grid;
use sparsegossip_walks::multi_cover;

use crate::common::{fmt_exponent, verdict, ExpCtx};

fn cover(side: u32, k: usize, seed: u64) -> f64 {
    let grid = Grid::new(side).expect("valid side");
    let mut rng = SmallRng::seed_from_u64(seed);
    let cap = 200u64 * u64::from(side) * u64::from(side); // ≫ single-walk cover time
    let run = multi_cover(grid, k, cap, &mut rng).expect("agents");
    run.cover_time.unwrap_or(cap) as f64
}

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(64, 96);
    let n = f64::from(side) * f64::from(side);
    let ks: Vec<usize> = ctx.pick(
        vec![2, 4, 8, 16, 32, 64],
        vec![2, 4, 8, 16, 32, 64, 128, 256],
    );
    let reps = ctx.pick(8, 20);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&ks, |&k, seed| cover(side, k, seed));

    let mut table = Table::new(vec![
        "k".into(),
        "mean cover time".into(),
        "ci95".into(),
        "bound shape".into(),
        "measured/shape".into(),
    ]);
    for p in &points {
        let shape = cover_time_shape(n, p.param as f64);
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.0}", p.summary.mean()),
            format!("{:.0}", p.summary.ci95_half_width()),
            format!("{shape:.0}"),
            format!("{:.3}", p.summary.mean() / shape),
        ]);
    }
    println!("{table}");

    // Fit only the small-k regime, where the n log²n/k term dominates.
    let small: Vec<&sparsegossip_analysis::SweepPoint<usize>> =
        points.iter().filter(|p| p.param <= 16).collect();
    let xs: Vec<f64> = small.iter().map(|p| p.param as f64).collect();
    let ys: Vec<f64> = small.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points");
    println!(
        "small-k exponent of T_cover ~ k^e: e = {}",
        fmt_exponent(&fit)
    );
    println!("paper: e = -1 in the k-dominated regime (flattening later)");

    // The claim is an upper bound: measured cover times must never
    // exceed the bound shape (constant 1 already suffices empirically),
    // and the k-dominated regime must show the ~1/k decay. The additive
    // n·log n flattening lies far above feasible simulation sizes (its
    // hidden constant is small), so it is reported but not gated on.
    let max_ratio = points
        .iter()
        .map(|p| p.summary.mean() / cover_time_shape(n, p.param as f64))
        .fold(f64::MIN, f64::max);
    println!("max measured/bound ratio: {max_ratio:.3} (must stay <= 1: the bound holds)");
    verdict(
        (-1.3..=-0.75).contains(&fit.exponent) && max_ratio <= 1.0,
        &format!(
            "small-k exponent {:.3} ≈ -1; bound respected uniformly (max ratio {max_ratio:.2})",
            fit.exponent
        ),
    )
}
