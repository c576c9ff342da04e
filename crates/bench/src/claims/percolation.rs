//! E13 — the percolation threshold of `G_t(r)` (§1, §2).
//!
//! Claim: the visibility graph develops a giant component at
//! `r_c ≈ √(n/k)`. We profile the giant-component fraction against
//! `r/r_c` at several `(n, k)` and check the curves cross 1/2 at a
//! common multiple of `r_c` (the hidden constant).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::Table;
use sparsegossip_conngraph::{critical_radius, estimate_threshold, percolation_profile};
use sparsegossip_grid::{Grid, Topology};

use crate::common::{verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let samples: u32 = ctx.pick(30, 100);
    let configs: Vec<(u32, usize)> = ctx.pick(
        vec![(64, 64), (128, 64), (128, 256)],
        vec![(64, 64), (128, 64), (128, 256), (256, 256)],
    );
    let fracs = [0.25f64, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0];

    let mut table = Table::new(vec![
        "side".into(),
        "k".into(),
        "r/r_c".into(),
        "r".into(),
        "giant fraction".into(),
    ]);
    let mut rng = SmallRng::seed_from_u64(ctx.seed);
    let mut threshold_ratios = Vec::new();
    for &(side, k) in &configs {
        let grid = Grid::new(side).expect("valid side");
        let rc = critical_radius(grid.num_nodes() as f64, k as f64);
        let radii: Vec<u32> = fracs
            .iter()
            .map(|f| (f * rc).round().max(1.0) as u32)
            .collect();
        let profile = percolation_profile(&grid, k, &radii, samples, &mut rng);
        for (f, p) in fracs.iter().zip(&profile) {
            table.push_row(vec![
                side.to_string(),
                k.to_string(),
                format!("{f:.2}"),
                p.r.to_string(),
                format!("{:.3}", p.mean_giant_fraction),
            ]);
        }
        let est = estimate_threshold(&grid, k, 0.5, samples, &mut rng);
        let ratio = f64::from(est) / rc;
        println!(
            "side={side}, k={k}: estimated half-giant threshold r* = {est} = {ratio:.2} r_c (r_c = {rc:.1})"
        );
        threshold_ratios.push(ratio);
    }
    println!("\n{table}");

    let min = threshold_ratios.iter().cloned().fold(f64::MAX, f64::min);
    let max = threshold_ratios.iter().cloned().fold(f64::MIN, f64::max);
    println!("threshold location across configs: [{min:.2}, {max:.2}] x r_c");
    verdict(
        max / min < 1.8 && min > 0.3 && max < 3.0,
        &format!(
            "thresholds collapse to a common multiple of sqrt(n/k) (spread {:.2}x)",
            max / min
        ),
    )
}
