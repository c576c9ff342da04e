//! E17 — cell-by-cell exploration (the Theorem 1 proof machinery).
//!
//! Theorem 1's upper bound works by tessellating the grid into `ℓ×ℓ`
//! cells and showing (i) every cell is reached by an informed agent by
//! time `T* = (2√n/ℓ)(T₁+T₂)`, and (ii) broadcast completes shortly
//! after. Empirically: the all-cells-reached time `T_cells` should be
//! of the same order as `T_B` (neither vanishing nor dominating), and
//! cell reach times should grow with distance from the source cell
//! (the spreading front).

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{linear_fit, Summary, Table};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{CellReachTimes, SimConfig, Simulation};
use sparsegossip_grid::Tessellation;

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E17",
        "cell-by-cell exploration of the tessellation (Theorem 1 machinery)",
        "all cells reached within O~(T_B); reach time grows with distance from source",
    );
    let side: u32 = ctx.pick(96, 160);
    let k: usize = 48;
    let cell_side: u32 = ctx.pick(12, 20);
    let reps: u64 = ctx.pick(8, 16);

    let mut cells_over_tb = Vec::new();
    let mut distance_slopes = Vec::new();
    for i in 0..reps {
        let config = SimConfig::builder(side, k)
            .radius(0)
            .build()
            .expect("valid");
        let mut rng = SmallRng::seed_from_u64(ctx.seed ^ (0xCE11 + i));
        let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible");
        let source_pos = sim.positions()[config.source()];
        let tess = Tessellation::new(side, cell_side).expect("valid tessellation");
        let source_cell = tess.cell_of(source_pos);
        let mut reach = CellReachTimes::new(tess);
        let out = sim.run_with(&mut rng, &mut reach);
        let tb = out.broadcast_time.expect("completes") as f64;
        let t_cells = reach.all_reached_at().map_or(f64::NAN, |t| t as f64);
        if t_cells.is_finite() && tb > 0.0 {
            cells_over_tb.push(t_cells / tb);
        }
        // Reach time vs cell distance from the source cell.
        let tess = *reach.tessellation();
        let (xs, ys): (Vec<f64>, Vec<f64>) = reach
            .first_reach()
            .iter()
            .enumerate()
            .filter_map(|(c, t)| {
                t.map(|t| {
                    let center = tess.cell_center(sparsegossip_grid::CellId::new(c as u32));
                    let src_center = tess.cell_center(source_cell);
                    (f64::from(center.manhattan(src_center)), t as f64)
                })
            })
            .unzip();
        if let Some(fit) = linear_fit(&xs, &ys) {
            distance_slopes.push(fit.slope);
        }
    }
    let ratio = Summary::from_slice(&cells_over_tb);
    let slope = Summary::from_slice(&distance_slopes);

    let mut table = Table::new(vec!["quantity".into(), "mean".into(), "range".into()]);
    table.push_row(vec![
        "T_cells / T_B".into(),
        format!("{:.3}", ratio.mean()),
        format!("[{:.3}, {:.3}]", ratio.min(), ratio.max()),
    ]);
    table.push_row(vec![
        "reach-time slope vs distance (steps/node)".into(),
        format!("{:.1}", slope.mean()),
        format!("[{:.1}, {:.1}]", slope.min(), slope.max()),
    ]);
    println!("{table}");
    println!("(cells of side {cell_side} on a {side}-grid, k = {k}, r = 0, {reps} runs)");

    verdict(
        ratio.mean() > 0.05 && ratio.mean() <= 1.05 && slope.mean() > 0.0,
        &format!(
            "cells all reached at {:.2} T_B (same order); front advances at {:.1} steps/node",
            ratio.mean(),
            slope.mean()
        ),
    )
}
