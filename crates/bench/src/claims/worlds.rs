//! E23 — heterogeneous, obstructed, churning worlds.
//!
//! Where E21 (`sweep`) sweeps the clean model of the paper, this
//! claim exercises the world axes the scenario subsystem layers on
//! top of it — city-block barriers, seeded agent churn, mixed contact
//! radii, fast-mover speed classes and multi-source (including
//! adversarial corner) placements — and gates the claim the axes must
//! not break:
//!
//! **Baseline fidelity** — with every axis off, the {side} × {k} ×
//! {r/r_c} sweep must reproduce all nine knees inside the factor-4
//! band around `r_c = √(n/k)`, exactly as E21 does. New axes may not
//! perturb the trivial world.
//!
//! The invariants of the world axes are pinned by the test suite, not
//! here: allocation-free steps and seed replay in
//! `tests/scratch_reuse.rs`, worker-count invariance in
//! `scenario_sweep_regression.rs`.
//!
//! On top of the gate it measures how each world axis shifts the
//! percolation knee (barrier density and churn rate mini-sweeps at one
//! (side, k)), and writes everything to `BENCH_worlds.json`.

use sparsegossip_analysis::{Family, ScenarioSweep, ScenarioSweepReport};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

use crate::common::{verdict, ExpCtx};

/// Prints a report's knees, tagged with their world-axis label.
fn print_transitions(report: &ScenarioSweepReport) {
    for t in &report.transitions() {
        let world = t.labels[Family::World as usize]
            .map_or_else(String::new, |(key, value)| format!(" {key}={value}"));
        let (lo, hi) = t.band();
        println!(
            "  side={:>3} k={:>3}{world}: knee r = {:>5.1}, drop {:>6.1}x, \
             r_c = {:>5.1}, band [{:.1}, {:.1}] -> {}",
            t.side,
            t.k,
            t.r_knee,
            t.drop_ratio,
            t.predicted_rc,
            lo,
            hi,
            if t.within_band() { "WITHIN" } else { "OUTSIDE" }
        );
    }
}

pub fn run(ctx: &ExpCtx) -> bool {
    // The gate: the all-axes-off baseline reproduces E21's nine knees.
    let base = ScenarioSpec::builder(ProcessKind::Broadcast, 64, 32)
        .build()
        .expect("valid base spec");
    let sides = ctx.pick(vec![32, 48, 64], vec![64, 96, 128]);
    let ks = ctx.pick(vec![16, 32, 64], vec![32, 64, 128]);
    let expected_knees = sides.len() * ks.len();
    let r_factors = ctx.pick(
        vec![0.25, 0.5, 1.0, 2.0, 3.0],
        vec![0.12, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
    );
    let baseline = ScenarioSweep::new(base, ctx.seed)
        .sides(sides)
        .ks(ks)
        .r_factors(r_factors.clone())
        .replicates(ctx.pick(5, 16))
        .threads(ctx.threads)
        .run()
        .expect("every baseline cell validates");
    let baseline_transitions = baseline.transitions();
    let baseline_within = baseline_transitions
        .iter()
        .filter(|t| t.within_band())
        .count();
    println!(
        "baseline (all axes off): {}/{} knees within the factor-4 band",
        baseline_within, expected_knees
    );
    print_transitions(&baseline);
    let baseline_ok =
        baseline_transitions.len() == expected_knees && baseline_within == expected_knees;

    // Knee-shift mini-sweeps: one (side, k), one world axis each.
    let (mini_side, mini_k) = ctx.pick((48, 24), (96, 48));
    let mini = ScenarioSpec::builder(ProcessKind::Broadcast, mini_side, mini_k)
        .build()
        .expect("valid mini spec");
    let mini_reps = ctx.pick(3, 8);
    let axis_sweeps: Vec<(&str, ScenarioSweep)> = vec![
        (
            "barrier_density",
            ScenarioSweep::new(mini, ctx.seed)
                .r_factors(r_factors.clone())
                .axis(
                    "barrier_densities",
                    ctx.pick(vec![0.0, 0.2, 0.4], vec![0.0, 0.1, 0.2, 0.3, 0.4]),
                )
                .expect("valid densities"),
        ),
        (
            "churn_rate",
            ScenarioSweep::new(mini, ctx.seed)
                .r_factors(r_factors.clone())
                .axis(
                    "churn_rates",
                    ctx.pick(vec![0.0, 0.02, 0.1], vec![0.0, 0.01, 0.02, 0.05, 0.1]),
                )
                .expect("valid churn rates"),
        ),
        (
            "radius_mix",
            ScenarioSweep::new(
                ScenarioSpec::builder(ProcessKind::Broadcast, mini_side, mini_k)
                    .hetero_factor(2.0)
                    .build()
                    .expect("valid mix spec"),
                ctx.seed,
            )
            .r_factors(r_factors.clone())
            .axis(
                "radius_mixes",
                ctx.pick(vec![0.0, 0.5], vec![0.0, 0.25, 0.5, 0.75]),
            )
            .expect("valid radius mixes"),
        ),
    ];
    let mut axis_reports: Vec<(&str, ScenarioSweepReport)> = Vec::new();
    for (axis, sweep) in axis_sweeps {
        let report = sweep
            .replicates(mini_reps)
            .threads(ctx.threads)
            .run()
            .expect("every axis cell validates");
        println!("\naxis {axis} (side {mini_side}, k {mini_k}):");
        print_transitions(&report);
        axis_reports.push((axis, report));
    }

    // BENCH_worlds.json: the baseline and per-axis sweep reports plus
    // the gate result, for CI artifact upload.
    let mut json = String::from("{\n  \"experiment\": \"E23_worlds\",\n");
    json.push_str(&format!(
        "  \"baseline_knees_within\": {baseline_within},\n  \"baseline_knees_expected\": {expected_knees},\n"
    ));
    json.push_str(&format!("  \"baseline\": {},\n", baseline.to_json()));
    json.push_str("  \"axes\": {\n");
    for (i, (axis, report)) in axis_reports.iter().enumerate() {
        json.push_str(&format!(
            "  \"{axis}\": {}{}\n",
            report.to_json(),
            if i + 1 == axis_reports.len() { "" } else { "," }
        ));
    }
    json.push_str("  }\n}\n");
    std::fs::write("BENCH_worlds.json", &json).expect("writable BENCH_worlds.json");
    println!(
        "wrote BENCH_worlds.json ({} baseline cells, {} axis sweeps)",
        baseline.cells.len(),
        axis_reports.len()
    );

    verdict(
        baseline_ok,
        &format!("baseline {baseline_within}/{expected_knees} knees"),
    )
}
