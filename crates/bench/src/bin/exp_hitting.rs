//! E16 — single-walk hitting probability (Lemma 1).
//!
//! Claim: a walk started at `v₀` visits a node `v` at distance `d`
//! within `d²` steps with probability at least `c₁ / max{1, log d}`.
//! As in E5, we check `P(d) · ln d` is bounded below and roughly flat.

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Sweep, Table};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_walks::hitting_probability;

fn hit_rate(side: u32, d: u32, trials: u32, seed: u64) -> f64 {
    let grid = Grid::new(side).expect("valid side");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mid = side / 2;
    let from = Point::new(mid - d / 2, mid);
    let target = Point::new(mid - d / 2 + d, mid);
    hitting_probability(&grid, from, target, trials, &mut rng)
}

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E16",
        "P(walk visits node at distance d within d^2 steps) (Lemma 1)",
        "P >= c1 / log d: P(d) * ln d bounded below by a constant",
    );
    let side: u32 = ctx.pick(512, 1024);
    let trials: u32 = ctx.pick(600, 2000);
    let reps = ctx.pick(5, 10);
    let ds: Vec<u32> = ctx.pick(vec![2, 4, 8, 16, 32, 64], vec![2, 4, 8, 16, 32, 64, 128]);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&ds, |&d, seed| hit_rate(side, d, trials, seed));

    let mut table = Table::new(vec![
        "d".into(),
        "P(hit by d^2)".into(),
        "ci95".into(),
        "P * ln d".into(),
    ]);
    let mut scaled = Vec::new();
    for p in &points {
        let ln_d = f64::from(p.param).ln().max(1.0);
        scaled.push(p.summary.mean() * ln_d);
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.4}", p.summary.mean()),
            format!("{:.4}", p.summary.ci95_half_width()),
            format!("{:.3}", p.summary.mean() * ln_d),
        ]);
    }
    println!("{table}");

    let min_scaled = scaled.iter().cloned().fold(f64::MAX, f64::min);
    let max_scaled = scaled.iter().cloned().fold(f64::MIN, f64::max);
    println!("P(d) * ln d range: [{min_scaled:.3}, {max_scaled:.3}] (estimates c1 up to flatness)");
    verdict(
        min_scaled > 0.03 && max_scaled / min_scaled < 8.0,
        &format!(
            "lower envelope {min_scaled:.3} > 0.03 and spread {:.1}x < 8x",
            max_scaled / min_scaled
        ),
    )
}
