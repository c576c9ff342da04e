//! E24 — adaptive knee refinement: the bisection sweep locates every
//! phase-transition knee at a fraction of the dense grid's cost.
//!
//! Where E21 (`sweep`) measures a fixed {side} × {k} × {r/r_c}
//! grid, this claim runs the *adaptive* mode: a coarse 5-point radius
//! axis per (side, k) curve, then per-curve bisection of the knee
//! bracket down to `max(1 grid step, 1% · r_c)`, then a
//! confidence-aware replicate top-up where the CI is widest. Gates:
//!
//! 1. **accuracy** — every curve reports a knee inside the theory band
//!    `[r_c/4, 4·r_c]`, with a final bracket no wider than one grid
//!    step or 1% of `r_c` (the integer radius axis caps precision at
//!    one step once `r_c < 100`);
//! 2. **economy** — the adaptive sweep evaluates at most 40% of the
//!    cells a dense 30-point-per-curve grid would.
//!
//! Worker-count invariance and kill-and-resume byte identity of the
//! adaptive mode are pinned by `scenario_sweep_regression.rs` and
//! `adaptive_sweep_proptests.rs`, not here.
//!
//! Results are printed as a table and written to `BENCH_adaptive.json`
//! (uploaded by CI next to `BENCH_sweep.json`).

use sparsegossip_analysis::{AdaptiveConfig, ScenarioSweep};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

use crate::common::{verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let base = ScenarioSpec::builder(ProcessKind::Broadcast, 64, 32)
        .build()
        .expect("valid base spec");
    let sides = ctx.pick(vec![32, 48], vec![64, 96]);
    let ks = ctx.pick(vec![16, 32], vec![32, 64]);
    let curves = sides.len() * ks.len();
    let coarse = vec![0.25, 0.5, 1.0, 2.0, 3.0];
    let report = ScenarioSweep::new(base, ctx.seed)
        .sides(sides.clone())
        .ks(ks.clone())
        .r_factors(coarse)
        .replicates(ctx.pick(3, 8))
        .threads(ctx.threads)
        .adaptive(AdaptiveConfig {
            replicate_budget: ctx.pick(6, 24),
            ..AdaptiveConfig::default()
        })
        .run()
        .expect("every cell validates");
    println!("{}", report.table());
    let spent = report.adaptive.expect("adaptive mode ran");
    println!(
        "adaptive: {} coarse + {} refined cells, {} top-up replicates",
        spent.coarse_cells, spent.refined_cells, spent.topup_replicates
    );

    // Gate 1: every curve knees inside the theory band, bracket at
    // most one grid step or 1% of r_c wide.
    let transitions = report.transitions();
    let mut located = 0usize;
    for t in &transitions {
        let width = f64::from(t.r_above - t.r_below);
        let tight = width <= (0.01 * t.predicted_rc).max(1.0) + 1e-9;
        let ok = t.within_band() && tight;
        located += usize::from(ok);
        println!(
            "side={:>4} k={:>4}: knee r = {:>6.1} (r={} -> r={}, width {:.0}), \
             drop {:>6.1}x, r_c = {:>5.1} -> {}",
            t.side,
            t.k,
            t.r_knee,
            t.r_below,
            t.r_above,
            width,
            t.drop_ratio,
            t.predicted_rc,
            if ok { "LOCATED" } else { "MISSED" }
        );
    }
    let accuracy_ok = transitions.len() == curves && located == transitions.len();

    // Gate 2: cost against the dense comparator — the 30-point
    // grid the adaptive mode replaces. Counting its cells needs no
    // simulation.
    let dense_factors: Vec<f64> = (1..=30).map(|i| f64::from(i) * 0.1).collect();
    let dense_cells = ScenarioSweep::new(base, ctx.seed)
        .sides(sides)
        .ks(ks)
        .r_factors(dense_factors)
        .cells()
        .expect("dense grid validates")
        .len();
    let evaluated = spent.total_cells();
    let economy_ok = (evaluated as f64) <= 0.40 * dense_cells as f64;
    println!(
        "cost: {evaluated} adaptive cells vs {dense_cells} dense cells \
         ({:.0}%, gate <= 40%)",
        100.0 * evaluated as f64 / dense_cells as f64
    );

    let mut json_out = report.to_json();
    let gates = format!(
        "  \"gates\": {{\"accuracy\": {accuracy_ok}, \"economy\": {economy_ok}, \
         \"dense_cells\": {dense_cells}, \"adaptive_cells\": {evaluated}}},\n"
    );
    let insert_at = json_out
        .find("  \"cells\": [")
        .expect("report JSON has a cells array");
    json_out.insert_str(insert_at, &gates);
    std::fs::write("BENCH_adaptive.json", &json_out).expect("writable BENCH_adaptive.json");
    println!(
        "wrote BENCH_adaptive.json ({} cells, {} transitions)",
        report.cells.len(),
        transitions.len()
    );

    let ok = accuracy_ok && economy_ok;
    verdict(
        ok,
        &format!("accuracy {accuracy_ok}, economy {economy_ok} ({evaluated}/{dense_cells} cells)"),
    )
}
