//! E25 — the fault-tolerant protocol twin: node crashes, network
//! partitions, and the recovery layer (ack-driven retransmission,
//! periodic anti-entropy digests) that keeps broadcast completing under
//! them, with bounded-degradation gates.
//!
//! Four passes, all gated:
//!
//! 1. **Fidelity** — with the trivial `FaultConfig` and recovery off,
//!    the twin must reproduce the pre-fault event-log hashes *exactly*
//!    (the same goldens the CLI pins in `golden_json.rs`): the fault
//!    layer is strictly opt-in, byte for byte.
//! 2. **Bounded degradation** — under `drop = 0.3` plus a nonzero
//!    per-tick crash probability, recovery (retransmit + anti-entropy)
//!    must complete every run of the seed ensemble with a median
//!    completion tick at most 3x the ideal-network median. `--no-recovery`
//!    disables the recovery layer so CI can assert this gate *fails*
//!    without it.
//! 3. **Partition heal** — with gossip timers too sparse to help
//!    (interval 64), a full-visibility ensemble partitioned over
//!    `[0, 40)` must reach full coverage within two anti-entropy
//!    rounds of the heal; the recovery-off contrast (completion at the
//!    tick-64 timer) is recorded alongside.
//! 4. **Determinism and allocations** — one crashing, partitioned,
//!    lossy, recovering run must produce identical completion ticks
//!    and event-log hashes across worker counts 1/2/4 and reruns, and
//!    a warmed-up steady-state tick (crash draws, retry queue,
//!    anti-entropy digests all active) must allocate nothing,
//!    machine-checked with a counting allocator.
//!
//! Results are printed as tables and written to `BENCH_faults.json`
//! (uploaded by CI next to `BENCH_protocol.json`).
//!
//! Scale via `SG_SCALE` (`quick`/`full`) or `--quick`/`--full`; seed
//! via `SG_SEED`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{
    FaultConfig, NetworkConfig, ProtocolBroadcast, ProtocolOutcome, SimConfig, Simulation,
};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_protocol::{FaultPlan, NodeRuntime, PartitionSchedule, RecoveryConfig};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's heap allocations, so the steady-state gate can
/// assert a warmed-up faulty tick never touches the heap.
struct ThreadCountingAlloc;

unsafe impl GlobalAlloc for ThreadCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: ThreadCountingAlloc = ThreadCountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// One twin run with the given network, fault axes and worker count.
#[allow(clippy::too_many_arguments)]
fn run_twin(
    side: u32,
    k: usize,
    radius: u32,
    cap: u64,
    net: NetworkConfig,
    faults: &FaultConfig,
    seed: u64,
    workers: usize,
) -> ProtocolOutcome {
    let config = SimConfig::builder(side, k)
        .radius(radius)
        .max_steps(cap)
        .build()
        .expect("valid twin configuration");
    let mut rng = SmallRng::seed_from_u64(seed);
    let process = ProtocolBroadcast::from_config(&config, net, seed)
        .expect("valid twin process")
        .workers(workers)
        .faults(faults.to_plan())
        .recovery(faults.to_recovery());
    let mut sim = Simulation::new(
        Grid::new(side).expect("valid grid"),
        config.k(),
        config.radius(),
        config.max_steps(),
        process,
        &mut rng,
    )
    .expect("constructible twin");
    sim.run(&mut rng)
}

/// Completion tick, with capped (incomplete) runs counted as `cap`.
fn completion_or_cap(out: &ProtocolOutcome, cap: u64) -> u64 {
    out.completion_time.unwrap_or(cap)
}

fn median(ticks: &mut [u64]) -> u64 {
    ticks.sort_unstable();
    ticks[ticks.len() / 2]
}

/// Steady-state allocations per tick of a warmed-up faulty runtime:
/// two clusters that never meet keep the run incomplete forever, so
/// crash draws, restarts, the retransmission queue and the periodic
/// anti-entropy digests all stay active while we count heap traffic.
fn steady_state_allocs() -> u64 {
    const SIDE: u32 = 16;
    const RADIUS: u32 = 2;
    let positions = vec![
        Point::new(0, 0),
        Point::new(1, 0),
        Point::new(0, 1),
        Point::new(1, 1),
        Point::new(10, 10),
        Point::new(11, 10),
        Point::new(10, 11),
        Point::new(11, 11),
    ];
    let net = NetworkConfig::new(0.3, 1, 2, 4).expect("valid lossy network");
    let mut runtime = NodeRuntime::new(positions.len(), 0, net, 99, 1);
    runtime.set_recording(false);
    runtime.set_fault_plan(FaultPlan::new(0.2, 3, PartitionSchedule::EMPTY).expect("valid plan"));
    runtime.set_recovery(RecoveryConfig::new(true, 2));
    for t in 0..64 {
        runtime
            .tick(t, &positions, RADIUS, SIDE)
            .expect("warm-up tick runs");
    }
    let ticks = 128u64;
    let before = thread_allocs();
    for t in 64..64 + ticks {
        runtime
            .tick(t, &positions, RADIUS, SIDE)
            .expect("steady-state tick runs");
    }
    assert!(
        !runtime.is_complete(),
        "disconnected clusters must keep the steady-state run incomplete"
    );
    (thread_allocs() - before) / ticks
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let mut no_recovery = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => std::env::set_var("SG_SCALE", "quick"),
            "--full" => std::env::set_var("SG_SCALE", "full"),
            "--no-recovery" => no_recovery = true,
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let ctx = ExpCtx::init(
        "E25",
        "fault-tolerant protocol twin: crashes, partitions, retransmission, anti-entropy",
        "recovery bounds degradation: all faulty runs complete with median <= 3x ideal T_B",
    );
    if no_recovery {
        println!("(--no-recovery: retransmission and anti-entropy disabled; gate 2 should FAIL)\n");
    }

    println!("--- pass 1: fault-free fidelity against the pre-fault goldens ---");
    // The exact runs the CLI pins in `golden_json.rs`: the trivial
    // FaultConfig with recovery off must reproduce them bit for bit.
    let golden_cap = SimConfig::default_step_cap(12, 6);
    let fidelity: [(&str, NetworkConfig, u64); 2] = [
        ("ideal", NetworkConfig::IDEAL, 0xe50f_f533_5a1b_1ed4),
        (
            "drop 0.5",
            NetworkConfig::new(0.5, 0, 0, 1).expect("valid lossy network"),
            0x1c8d_037c_d923_332b,
        ),
    ];
    let mut fidelity_ok = true;
    for (label, net, want_hash) in &fidelity {
        let out = run_twin(12, 6, 2, golden_cap, *net, &FaultConfig::DEFAULT, 1, 1);
        let ok = out.completion_time == Some(50) && out.log_hash == *want_hash;
        fidelity_ok &= ok;
        println!(
            "{label:>10}: tick {:?}, log hash {:016x} (want 50, {want_hash:016x}) -> {}",
            out.completion_time,
            out.log_hash,
            if ok { "MATCH" } else { "MISMATCH" }
        );
    }
    println!();

    println!("--- pass 2: bounded degradation under drop 0.3 + crashes ---");
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
            1,
        );
        let hit = run_twin(side, k, radius, cap, lossy, &crashed, seed, 1);
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

    println!("--- pass 3: partition heal within bounded anti-entropy rounds ---");
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
        let ae_run = run_twin(12, 8, 24, 2_000, sparse_timers, &partitioned, seed, 1);
        let bare = run_twin(12, 8, 24, 2_000, sparse_timers, &timer_only, seed, 1);
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

    println!("--- pass 4: determinism across workers + zero-alloc steady state ---");
    let storm_net = NetworkConfig::new(0.3, 1, 2, 2).expect("valid lossy network");
    let storm = FaultConfig {
        crash_prob: 0.05,
        restart_delay: 2,
        partition_start: 5,
        partition_len: 15,
        retransmit: true,
        anti_entropy_interval: 2,
    };
    let reference = run_twin(16, 8, 6, 5_000, storm_net, &storm, ctx.seed, 1);
    let mut deterministic = true;
    for workers in [1usize, 2, 4] {
        for _rerun in 0..2 {
            let got = run_twin(16, 8, 6, 5_000, storm_net, &storm, ctx.seed, workers);
            deterministic &= got.completion_time == reference.completion_time
                && got.log_hash == reference.log_hash;
        }
    }
    println!(
        "fault storm (drop 0.3, crash 0.05, partition [5, 20), full recovery): \
         tick {:?}, log hash {:016x}, identical across workers 1/2/4 and reruns: {deterministic}",
        reference.completion_time, reference.log_hash
    );
    let allocs_per_tick = steady_state_allocs();
    let allocs_ok = allocs_per_tick == 0;
    println!("steady-state allocations per faulty tick: {allocs_per_tick} (want 0)");
    println!();

    let mut json = String::new();
    json.push_str("{\n  \"experiment\": \"protocol_faults\",\n");
    json.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    json.push_str(&format!("  \"recovery\": {},\n", !no_recovery));
    json.push_str(&format!(
        "  \"fidelity\": {{\"ideal_hash\": \"e50ff5335a1b1ed4\", \
         \"lossy_hash\": \"1c8d037cd923332b\", \"reproduced\": {fidelity_ok}}},\n"
    ));
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
        "  \"determinism\": {{\"workers\": [1, 2, 4], \"reruns\": 2, \
         \"completion_time\": {}, \"log_hash\": \"{:016x}\", \"identical\": {deterministic}}},\n",
        json_tick(reference.completion_time),
        reference.log_hash
    ));
    json.push_str(&format!(
        "  \"gates\": {{\"fidelity\": {fidelity_ok}, \"degradation_bounded\": {degradation_ok}, \
         \"partition_heal\": {heal_ok}, \"deterministic\": {deterministic}, \
         \"allocs_per_tick\": {allocs_per_tick}}}\n}}\n"
    ));
    std::fs::write("BENCH_faults.json", &json).expect("writable BENCH_faults.json");
    println!(
        "wrote BENCH_faults.json ({} degradation runs, {} heal runs)",
        seeds.len(),
        seeds.len()
    );

    let ok = fidelity_ok && degradation_ok && heal_ok && deterministic && allocs_ok;
    verdict(
        ok,
        &format!(
            "fidelity {fidelity_ok}, degradation median {faulty_median} <= {bound}: \
             {degradation_ok}, heal {heal_ok}, deterministic {deterministic}, \
             {allocs_per_tick} allocs/tick"
        ),
    )
}

/// Renders an optional completion tick as JSON (`null` when capped).
fn json_tick(t: Option<u64>) -> String {
    t.map_or_else(|| "null".to_string(), |t| t.to_string())
}
