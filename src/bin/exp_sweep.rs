//! E21 — the headline phase transition, driven by the declarative
//! scenario subsystem end to end.
//!
//! Where E3 (`exp_tb_vs_r`) hand-codes one time-vs-radius curve, this
//! binary *declares* the experiment: one base [`ScenarioSpec`] expanded
//! by [`ScenarioSweep`] over a {side} × {k} × {r/r_c} grid of cells,
//! every cell replicated with deterministic per-cell seeds and executed
//! with per-worker scratch recycling. The report's transition detector
//! then locates the knee of every (side, k) radius curve and
//! cross-checks it against the `core::theory` prediction
//! `r_c = √(n/k)` (accepted band `[r_c/4, 4·r_c]`, the factor-4 window
//! the `Θ̃`-notation's constant may occupy).
//!
//! Results are printed as a table and written to `BENCH_sweep.json`
//! (uploaded by CI next to `BENCH_hotpath.json`).
//!
//! Scale via `SG_SCALE` (`quick`/`full`) or the `--quick`/`--full`
//! arguments; seed via `SG_SEED`, threads via `SG_THREADS`, like every
//! other `exp_*` binary.

use std::process::ExitCode;

use sparsegossip_analysis::ScenarioSweep;
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

fn main() -> ExitCode {
    // `--quick`/`--full` are argument aliases for SG_SCALE, letting
    // `cargo run --bin exp_sweep -- --quick` work without env plumbing.
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => std::env::set_var("SG_SCALE", "quick"),
            "--full" => std::env::set_var("SG_SCALE", "full"),
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let ctx = ExpCtx::init(
        "E21",
        "declarative multi-axis sweep across the percolation threshold",
        "mean T_B collapses as r crosses r_c = sqrt(n/k); the knee sits in [r_c/4, 4 r_c]",
    );

    let base = ScenarioSpec::builder(ProcessKind::Broadcast, 64, 32)
        .build()
        .expect("valid base spec");
    let sides = ctx.pick(vec![32, 48, 64], vec![64, 96, 128]);
    let ks = ctx.pick(vec![16, 32, 64], vec![32, 64, 128]);
    // One knee expected per (side, k) radius curve.
    let expected_knees = sides.len() * ks.len();
    let sweep = ScenarioSweep::new(base, ctx.seed)
        .sides(sides)
        .ks(ks)
        .r_factors(ctx.pick(
            vec![0.25, 0.5, 1.0, 2.0, 3.0],
            vec![0.12, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
        ))
        .replicates(ctx.pick(5, 16))
        .threads(ctx.threads);

    let report = sweep.run().expect("every cell validates");
    println!("{}", report.table());

    let transitions = report.transitions();
    let mut within = 0usize;
    for t in &transitions {
        let (lo, hi) = t.band();
        let ok = t.within_band();
        within += usize::from(ok);
        println!(
            "side={:>4} k={:>4}: knee r = {:>6.1} (r={} -> r={}), drop {:>6.1}x, \
             r_c = {:>5.1}, band [{:.1}, {:.1}] -> {}",
            t.side,
            t.k,
            t.r_knee,
            t.r_below,
            t.r_above,
            t.drop_ratio,
            t.predicted_rc,
            lo,
            hi,
            if ok { "WITHIN" } else { "OUTSIDE" }
        );
    }
    println!();

    let json = report.to_json();
    std::fs::write("BENCH_sweep.json", &json).expect("writable BENCH_sweep.json");
    println!(
        "wrote BENCH_sweep.json ({} cells, {} transitions)",
        report.cells.len(),
        transitions.len()
    );

    let ok = transitions.len() == expected_knees && within == transitions.len();
    // A MISMATCH must fail the caller (this binary is a CI gate for
    // the transition detector), not just print.
    verdict(
        ok,
        &format!(
            "{within}/{} knees inside the predicted band over {} cells",
            transitions.len(),
            report.cells.len()
        ),
    )
}
