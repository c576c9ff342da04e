//! E25 — the fault-tolerant protocol twin: node crashes, network
//! partitions, and the recovery layer (ack-driven retransmission,
//! periodic anti-entropy digests) that keeps broadcast completing under
//! them, with bounded-degradation gates.
//!
//! Two passes, both gated:
//!
//! 1. **Bounded degradation** — under `drop = 0.3` plus a nonzero
//!    per-tick crash probability, recovery (retransmit + anti-entropy)
//!    must complete every run of the seed ensemble with a median
//!    completion tick at most 3x the ideal-network median. `--no-recovery`
//!    disables the recovery layer so CI can assert this gate *fails*
//!    without it.
//! 2. **Partition heal** — with gossip timers too sparse to help
//!    (interval 64), a full-visibility ensemble partitioned over
//!    `[0, 40)` must reach full coverage within two anti-entropy
//!    rounds of the heal; the recovery-off contrast (completion at the
//!    tick-64 timer) is recorded alongside.
//!
//! The twin's invariants are pinned by the test suite, not here: the
//! fault-free goldens (`golden_json.rs`, `event_log_golden.rs`), rerun
//! identity under a fault storm (`fault_model.rs`) and the
//! faulty tick's allocation count (`tests/scratch_reuse.rs`).
//!
//! Results are printed as tables and written to `BENCH_faults.json`
//! (uploaded by CI next to `BENCH_protocol.json`).

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_core::{
    FaultConfig, NetworkConfig, ProtocolOutcome, SimConfig, SimScratch, Simulation,
};

use crate::common::{verdict, ExpCtx};

/// One twin run with the given network and fault axes.
fn run_twin(
    side: u32,
    k: usize,
    radius: u32,
    cap: u64,
    net: NetworkConfig,
    faults: &FaultConfig,
    seed: u64,
) -> ProtocolOutcome {
    let config = SimConfig::builder(side, k)
        .radius(radius)
        .max_steps(cap)
        .build()
        .expect("valid twin configuration");
    let mut rng = SmallRng::seed_from_u64(seed);
    Simulation::protocol_broadcast_with_faults_with_scratch(
        &config,
        net,
        faults,
        seed,
        &mut rng,
        SimScratch::new(),
    )
    .expect("constructible twin")
    .run(&mut rng)
}

/// Completion tick, with capped (incomplete) runs counted as `cap`.
fn completion_or_cap(out: &ProtocolOutcome, cap: u64) -> u64 {
    out.completion_time.unwrap_or(cap)
}

fn median(ticks: &mut [u64]) -> u64 {
    ticks.sort_unstable();
    ticks[ticks.len() / 2]
}

pub fn run(ctx: &ExpCtx) -> bool {
    let no_recovery = ctx.flags.contains(&"--no-recovery");
    if no_recovery {
        println!("(--no-recovery: retransmission and anti-entropy disabled; gate 1 should FAIL)\n");
    }

    println!("--- pass 1: bounded degradation under drop 0.3 + crashes ---");
    let seeds: Vec<u64> = (1..=ctx.pick(9u64, 15u64)).collect();
    let (side, k, radius, cap) = (16u32, 8usize, 6u32, 5_000u64);
    let lossy = NetworkConfig::new(0.3, 0, 0, 2).expect("valid lossy network");
    let crashed = FaultConfig {
        crash_prob: 0.02,
        restart_delay: 2,
        retransmit: !no_recovery,
        anti_entropy_interval: u64::from(!no_recovery),
        ..FaultConfig::DEFAULT
    };
    let mut ideal_ticks = Vec::with_capacity(seeds.len());
    let mut faulty_ticks = Vec::with_capacity(seeds.len());
    let mut all_complete = true;
    let mut degradation_lines = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let ideal = run_twin(
            side,
            k,
            radius,
            cap,
            NetworkConfig::IDEAL,
            &FaultConfig::DEFAULT,
            seed,
        );
        let hit = run_twin(side, k, radius, cap, lossy, &crashed, seed);
        all_complete &= hit.completion_time.is_some();
        ideal_ticks.push(completion_or_cap(&ideal, cap));
        faulty_ticks.push(completion_or_cap(&hit, cap));
        println!(
            "seed {seed:>2}: ideal {:>4?} -> faulty {:>4?} ({} crashes, {} restarts, \
             {} retransmits, {} digests)",
            ideal.completion_time,
            hit.completion_time,
            hit.stats.crashes,
            hit.stats.restarts,
            hit.stats.retransmits,
            hit.stats.digests
        );
        degradation_lines.push(format!(
            "{{\"seed\": {seed}, \"ideal\": {}, \"faulty\": {}, \"crashes\": {}, \
             \"retransmits\": {}, \"digests\": {}}}",
            json_tick(ideal.completion_time),
            json_tick(hit.completion_time),
            hit.stats.crashes,
            hit.stats.retransmits,
            hit.stats.digests
        ));
    }
    let ideal_median = median(&mut ideal_ticks).max(1);
    let faulty_median = median(&mut faulty_ticks);
    let bound = 3 * ideal_median;
    let degradation_ok = all_complete && faulty_median <= bound;
    println!(
        "median: ideal {ideal_median}, faulty {faulty_median} (bound 3x = {bound}); \
         all complete: {all_complete} -> {}",
        if degradation_ok {
            "BOUNDED"
        } else {
            "UNBOUNDED"
        }
    );
    println!();

    println!("--- pass 2: partition heal within bounded anti-entropy rounds ---");
    // Full visibility, gossip timers every 64 ticks: after the heal at
    // tick 40 only anti-entropy (every 4 ticks) can re-teach the
    // lagging side before the tick-64 timer; recovery-off shows the
    // timer-only baseline.
    let (heal, ae) = (40u64, 4u64);
    let sparse_timers = NetworkConfig::new(0.0, 0, 0, 64).expect("valid sparse-timer network");
    let partitioned = FaultConfig {
        partition_start: 0,
        partition_len: heal,
        retransmit: true,
        anti_entropy_interval: ae,
        ..FaultConfig::DEFAULT
    };
    let timer_only = FaultConfig {
        retransmit: false,
        anti_entropy_interval: 0,
        ..partitioned
    };
    let heal_bound = heal + 2 * ae;
    let mut heal_ok = true;
    let mut any_lagged = false;
    let mut heal_lines = Vec::with_capacity(seeds.len());
    for &seed in &seeds {
        let ae_run = run_twin(12, 8, 24, 2_000, sparse_timers, &partitioned, seed);
        let bare = run_twin(12, 8, 24, 2_000, sparse_timers, &timer_only, seed);
        let t = completion_or_cap(&ae_run, 2_000);
        heal_ok &= ae_run.completion_time.is_some() && t <= heal_bound;
        any_lagged |= t >= heal;
        println!(
            "seed {seed:>2}: anti-entropy completes at {:>4?} (bound {heal_bound}), \
             timer-only at {:>4?}",
            ae_run.completion_time, bare.completion_time
        );
        heal_lines.push(format!(
            "{{\"seed\": {seed}, \"anti_entropy\": {}, \"timer_only\": {}}}",
            json_tick(ae_run.completion_time),
            json_tick(bare.completion_time)
        ));
    }
    heal_ok &= any_lagged;
    println!(
        "partition [0, {heal}) healed within {heal_bound} ticks on every seed \
         (some side lagged: {any_lagged}): {heal_ok}"
    );
    println!();

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"protocol_faults\",\n");
    json.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    json.push_str(&format!("  \"recovery\": {},\n", !no_recovery));
    json.push_str("  \"degradation\": {\n");
    json.push_str(&format!(
        "    \"drop_prob\": 0.3, \"crash_prob\": 0.02, \"ideal_median\": {ideal_median}, \
         \"faulty_median\": {faulty_median}, \"bound\": {bound}, \
         \"all_complete\": {all_complete},\n    \"runs\": [\n      {}\n    ]\n  }},\n",
        degradation_lines.join(",\n      ")
    ));
    json.push_str("  \"partition_heal\": {\n");
    json.push_str(&format!(
        "    \"window\": [0, {heal}], \"anti_entropy_interval\": {ae}, \
         \"bound\": {heal_bound},\n    \"runs\": [\n      {}\n    ]\n  }},\n",
        heal_lines.join(",\n      ")
    ));
    json.push_str(&format!(
        "  \"gates\": {{\"degradation_bounded\": {degradation_ok}, \
         \"partition_heal\": {heal_ok}}}\n}}\n"
    ));
    std::fs::write("BENCH_faults.json", &json).expect("writable BENCH_faults.json");
    println!(
        "wrote BENCH_faults.json ({} degradation runs, {} heal runs)",
        seeds.len(),
        seeds.len()
    );

    verdict(
        degradation_ok && heal_ok,
        &format!("degradation median {faulty_median} <= {bound}: {degradation_ok}, heal {heal_ok}"),
    )
}

/// Renders an optional completion tick as JSON (`null` when capped).
fn json_tick(t: Option<u64>) -> String {
    t.map_or_else(|| "null".to_string(), |t| t.to_string())
}
