//! E22 — the message-passing protocol twin validated against the
//! simulator's broadcast curves, side by side.
//!
//! The claim under test is the twin's central contract: because
//! `ProtocolBroadcast` consumes the driver RNG draw-for-draw like the
//! analytic broadcast (same placement, same lazy-walk steps, no
//! component labelling), an ideal-network twin run completes on
//! *exactly* the simulator's `T_B` for every seed — so the twin's
//! radius curves must reproduce the `r_c = √(n/k)` knee, and the
//! per-cell twin/simulator completion-time ratio must be exactly 1.
//!
//! Three passes, two of them gates:
//!
//! 1. a declarative [`ScenarioSweep`] of the twin across the
//!    {side} × {k} × {r/r_c} grid — every (side, k) curve must show its
//!    knee inside the factor-4 band around `r_c` (as E21);
//! 2. the *same* sweep with the analytic broadcast on the same master
//!    seed — per-cell mean ratios must all be exactly 1.0;
//! 3. an ungated lossy showcase sweeping the `drop_probs` network axis,
//!    recorded so the fault-injection surface shows up in the artifact.
//!
//! Rerun identity of lossy runs is pinned by
//! `event_log_golden.rs` and `fault_model.rs`, not here.
//!
//! Results are printed as tables and written to `BENCH_protocol.json`
//! (uploaded by CI next to `BENCH_sweep.json`).

use sparsegossip_analysis::{Family, ScenarioSweep};
use sparsegossip_core::{ProcessKind, ScenarioSpec};

use crate::common::{verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let sides = ctx.pick(vec![32, 48, 64], vec![64, 96, 128]);
    let ks = ctx.pick(vec![16, 32, 64], vec![32, 64, 128]);
    let r_factors = ctx.pick(
        vec![0.25, 0.5, 1.0, 2.0, 3.0],
        vec![0.12, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0],
    );
    let replicates = ctx.pick(4, 12);
    // One knee expected per (side, k) twin radius curve.
    let expected_knees = sides.len() * ks.len();
    let sweep_for = |kind: ProcessKind| {
        let base = ScenarioSpec::builder(kind, 64, 32)
            .build()
            .expect("valid base spec");
        ScenarioSweep::new(base, ctx.seed)
            .sides(sides.clone())
            .ks(ks.clone())
            .r_factors(r_factors.clone())
            .replicates(replicates)
            .threads(ctx.threads)
            .run()
            .expect("every cell validates")
    };

    println!("--- pass 1: twin sweep across the percolation threshold ---");
    let twin = sweep_for(ProcessKind::ProtocolBroadcast);
    println!("{}", twin.table());
    let transitions = twin.transitions();
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
    let knees_ok = transitions.len() == expected_knees && within == transitions.len();
    println!();

    println!("--- pass 2: simulator reference on the same master seed ---");
    let sim = sweep_for(ProcessKind::Broadcast);
    assert_eq!(
        sim.cells.len(),
        twin.cells.len(),
        "both sweeps expand the same cell grid"
    );
    let mut exact = 0usize;
    let mut cell_lines = Vec::with_capacity(twin.cells.len());
    for (t, s) in twin.cells.iter().zip(&sim.cells) {
        assert!(
            t.side == s.side && t.k == s.k && t.radius == s.radius,
            "cell grids must align"
        );
        let (twin_mean, sim_mean) = (t.summary.mean(), s.summary.mean());
        // Both sides are positive at these scales; keep 0/0 well-defined
        // anyway so a degenerate cell reads as agreement, not NaN.
        let ratio = if twin_mean == sim_mean {
            1.0
        } else {
            twin_mean / sim_mean
        };
        exact += usize::from(ratio == 1.0);
        cell_lines.push(format!(
            "{{\"side\": {}, \"k\": {}, \"r\": {}, \"r_c\": {}, \
             \"sim_mean\": {}, \"twin_mean\": {}, \"ratio\": {}}}",
            t.side, t.k, t.radius, t.critical_radius, sim_mean, twin_mean, ratio
        ));
    }
    let ratios_ok = exact == twin.cells.len();
    println!(
        "twin/simulator mean completion-time ratio: exactly 1.0 in {exact}/{} cells",
        twin.cells.len()
    );
    println!();

    println!("--- pass 3: lossy showcase (drop_probs network axis, ungated) ---");
    let lossy_base = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 32, 16)
        .build()
        .expect("valid lossy base spec");
    let lossy = ScenarioSweep::new(lossy_base, ctx.seed)
        .r_factors(vec![1.0, 2.0])
        .drop_probs(vec![0.0, 0.25, 0.5])
        .replicates(ctx.pick(4, 8))
        .threads(ctx.threads)
        .run()
        .expect("every lossy cell validates");
    println!("{}", lossy.table());

    // Compose the machine-readable artifact by hand, like the report's
    // own `to_json`: plain `{}` float formatting is valid JSON.
    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"protocol_twin\",\n");
    json.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    json.push_str(&format!("  \"replicates\": {replicates},\n"));
    json.push_str("  \"cells\": [\n");
    json.push_str(&format!("    {}\n", cell_lines.join(",\n    ")));
    json.push_str("  ],\n  \"transitions\": [\n");
    let transition_lines: Vec<String> = transitions
        .iter()
        .map(|t| {
            format!(
                "{{\"side\": {}, \"k\": {}, \"r_knee\": {}, \"predicted_rc\": {}, \
                 \"within_band\": {}}}",
                t.side,
                t.k,
                t.r_knee,
                t.predicted_rc,
                t.within_band()
            )
        })
        .collect();
    json.push_str(&format!("    {}\n", transition_lines.join(",\n    ")));
    json.push_str("  ],\n  \"lossy_cells\": [\n");
    let lossy_lines: Vec<String> = lossy
        .cells
        .iter()
        .map(|c| {
            let (key, value) =
                c.labels[Family::Net as usize].expect("lossy sweep has a network axis");
            format!(
                "{{\"side\": {}, \"k\": {}, \"r\": {}, \"{key}\": {value}, \"mean\": {}}}",
                c.side,
                c.k,
                c.radius,
                c.summary.mean()
            )
        })
        .collect();
    json.push_str(&format!("    {}\n", lossy_lines.join(",\n    ")));
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gates\": {{\"knees_expected\": {expected_knees}, \"knees_found\": {}, \
         \"knees_within_band\": {within}, \"exact_ratio_cells\": {exact}, \
         \"cells\": {}}}\n}}\n",
        transitions.len(),
        twin.cells.len()
    ));
    std::fs::write("BENCH_protocol.json", &json).expect("writable BENCH_protocol.json");
    println!(
        "wrote BENCH_protocol.json ({} ratio cells, {} transitions, {} lossy cells)",
        twin.cells.len(),
        transitions.len(),
        lossy.cells.len()
    );

    verdict(
        knees_ok && ratios_ok,
        &format!(
            "{within}/{} knees in band, {exact}/{} cells at ratio 1.0",
            transitions.len(),
            twin.cells.len()
        ),
    )
}
