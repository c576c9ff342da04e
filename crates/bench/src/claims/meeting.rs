//! E5 — two-walk meeting probability near the start (Lemma 3).
//!
//! Claim: two walks started at distance `d` meet within `d²` steps, at
//! a node within distance `d` of both starts, with probability at
//! least `c₃ / log d`. We measure the probability over `d` and check
//! that `P(d) · ln d` stays bounded below (no faster-than-1/log decay).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Sweep, Table};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_walks::meeting_within;

use crate::common::{verdict, ExpCtx};

fn meet_rate(side: u32, d: u32, trials: u32, seed: u64) -> f64 {
    let grid = Grid::new(side).expect("valid side");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mid = side / 2;
    let a = Point::new(mid - d / 2, mid);
    let b = Point::new(mid - d / 2 + d, mid);
    let horizon = u64::from(d) * u64::from(d);
    let mut hits = 0u32;
    for _ in 0..trials {
        let t = meeting_within(&grid, a, b, horizon, &mut rng);
        if t.met_in_d {
            hits += 1;
        }
    }
    f64::from(hits) / f64::from(trials)
}

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(512, 1024);
    let trials: u32 = ctx.pick(400, 1500);
    let reps = ctx.pick(5, 10);
    let ds: Vec<u32> = ctx.pick(vec![2, 4, 8, 16, 32, 64], vec![2, 4, 8, 16, 32, 64, 128]);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&ds, |&d, seed| meet_rate(side, d, trials, seed));

    let mut table = Table::new(vec![
        "d".into(),
        "P(meet in D by d^2)".into(),
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
    println!("P(d) * ln d range: [{min_scaled:.3}, {max_scaled:.3}] (estimates c3 up to flatness)");
    verdict(
        min_scaled > 0.05 && max_scaled / min_scaled < 6.0,
        &format!(
            "lower envelope {min_scaled:.3} > 0.05 and spread {:.1}x < 6x",
            max_scaled / min_scaled
        ),
    )
}
