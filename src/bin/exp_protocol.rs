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
//! Four passes, three of them gates:
//!
//! 1. a declarative [`ScenarioSweep`] of the twin across the
//!    {side} × {k} × {r/r_c} grid — every (side, k) curve must show its
//!    knee inside the factor-4 band around `r_c` (as E21);
//! 2. the *same* sweep with the analytic broadcast on the same master
//!    seed — per-cell mean ratios must all be exactly 1.0;
//! 3. a determinism audit: one lossy, delayed, capped run repeated
//!    across worker-thread counts 1/2/8 and reruns must give identical
//!    completion ticks and event-log hashes;
//! 4. an ungated lossy showcase sweeping the `drop_probs` network axis,
//!    recorded so the fault-injection surface shows up in the artifact.
//!
//! Results are printed as tables and written to `BENCH_protocol.json`
//! (uploaded by CI next to `BENCH_sweep.json`).

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Family, ScenarioSweep};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{
    NetworkConfig, ProcessKind, ProtocolBroadcast, ScenarioSpec, SimConfig, Simulation,
};
use sparsegossip_grid::Grid;

/// One determinism probe: a lossy, delayed, send-capped twin run at the
/// given worker count, returning (completion tick, event-log hash).
fn determinism_run(workers: usize, seed: u64) -> (Option<u64>, u64) {
    let config = SimConfig::builder(32, 16)
        .radius(4)
        .max_steps(20_000)
        .build()
        .expect("valid determinism config");
    let net = NetworkConfig::new(0.2, 1, 2, 2).expect("valid lossy network");
    let mut rng = SmallRng::seed_from_u64(seed);
    let process = ProtocolBroadcast::from_config(&config, net, seed)
        .expect("valid twin process")
        .workers(workers);
    let mut sim = Simulation::new(
        Grid::new(config.side()).expect("valid grid"),
        config.k(),
        config.radius(),
        config.max_steps(),
        process,
        &mut rng,
    )
    .expect("constructible twin");
    let out = sim.run(&mut rng);
    (out.completion_time, out.log_hash)
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => std::env::set_var("SG_SCALE", "quick"),
            "--full" => std::env::set_var("SG_SCALE", "full"),
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let ctx = ExpCtx::init(
        "E22",
        "message-passing protocol twin vs the simulator's broadcast curves",
        "ideal-network twin reproduces T_B draw-for-draw (ratio exactly 1) and the r_c knee",
    );

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

    println!("--- pass 3: determinism across worker counts and reruns ---");
    let reference = determinism_run(1, ctx.seed);
    let mut deterministic = true;
    for workers in [1usize, 2, 8] {
        for rerun in 0..2 {
            let got = determinism_run(workers, ctx.seed);
            let same = got == reference;
            deterministic &= same;
            if !same {
                println!(
                    "workers={workers} rerun={rerun}: tick {:?} hash {:016x} \
                     != reference tick {:?} hash {:016x}",
                    got.0, got.1, reference.0, reference.1
                );
            }
        }
    }
    println!(
        "lossy run (drop 0.2, delay 1, cap 2, interval 2): tick {:?}, \
         log hash {:016x}, identical across workers 1/2/8 and reruns: {deterministic}",
        reference.0, reference.1
    );
    println!();

    println!("--- pass 4: lossy showcase (drop_probs network axis, ungated) ---");
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
        "  \"determinism\": {{\"workers\": [1, 2, 8], \"reruns\": 2, \
         \"completion_time\": {}, \"log_hash\": \"{:016x}\", \"identical\": {deterministic}}},\n",
        reference
            .0
            .map_or_else(|| "null".to_string(), |t| t.to_string()),
        reference.1
    ));
    json.push_str(&format!(
        "  \"gates\": {{\"knees_expected\": {expected_knees}, \"knees_found\": {}, \
         \"knees_within_band\": {within}, \"exact_ratio_cells\": {exact}, \
         \"cells\": {}, \"deterministic\": {deterministic}}}\n}}\n",
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

    let ok = knees_ok && ratios_ok && deterministic;
    // All three gates must fail the caller: this binary is the CI smoke
    // for the protocol twin.
    verdict(
        ok,
        &format!(
            "{within}/{} knees in band, {exact}/{} cells at ratio 1.0, deterministic: {deterministic}",
            transitions.len(),
            twin.cells.len()
        ),
    )
}
