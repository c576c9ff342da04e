//! P1: steady-state hot-path throughput and allocation census.
//!
//! The paper's regime of interest (`T_B ≈ n/√k` steps per run) executes
//! the mobility → spatial-hash → labelling → exchange pipeline hundreds
//! of thousands of times per experiment, so the per-step constant factor
//! *is* the experiment runtime. This binary measures that constant
//! directly, for a matrix of processes × grid sides × agent counts, and
//! for **both** labelling strategies of the driver:
//!
//! * **full** — the classic path: hash rebuild + union–find over all
//!   `k` agents (forced by an observer that wants the full partition);
//! * **frontier** — the default `run()` path: for processes with a
//!   `Seeded` components scope (broadcast, infection, the frog model),
//!   the spatial hash is maintained incrementally from the engine's
//!   move log and only the components containing an informed agent are
//!   labelled. For gossip (`Contacts` scope) the hash is rebuilt every
//!   step and only the components of two or more agents are labelled.
//!
//! Reported per scenario: **ns/step** and **steps/sec** for both paths
//! over a timed window of steady-state steps (after a warm-up that
//! fills the scratch buffers), the full/frontier **speedup**, and
//! **allocs/step** / **bytes/step** via a counting global allocator —
//! the PR-3 invariant, now extended to the frontier path, is that a
//! steady-state step performs **zero** heap allocations on either.
//!
//! Results are printed as a table and written to `BENCH_hotpath.json`
//! (the repo's perf-trajectory artifact; CI uploads it per commit).
//! This binary is a CI gate: it exits nonzero if any scenario allocates
//! in the steady state, if the frontier and full paths disagree on any
//! cross-checked outcome, or if the recycled-simulation ensemble
//! diverges from fresh constructions.
//!
//! Scale via `SG_SCALE` (`quick`/`full`), seed via `SG_SEED`, ensemble
//! threads via `SG_THREADS`, like every other `exp_*` binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::Runner;
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{
    Broadcast, Mobility, NullObserver, Observer, Process, SimConfig, Simulation, StepContext,
};
use sparsegossip_grid::{Grid, Topology};

/// A pass-through allocator that counts allocations — the measurement
/// instrument behind the allocs/step column. Deallocations are not
/// counted: the claim under test is "the steady state allocates
/// nothing", and any alloc shows up here.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocs_now() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// A do-nothing observer that still demands the full visibility
/// partition, forcing the driver onto the classic rebuild-everything
/// path — the "before" side of every full-vs-frontier comparison.
struct FullPathProbe;

impl Observer for FullPathProbe {
    fn on_step(&mut self, _ctx: StepContext<'_>) {}
}

/// One measured scenario row.
struct Row {
    process: &'static str,
    side: u32,
    k: usize,
    r: u32,
    steps: u64,
    /// Classic path: full hash rebuild + whole-partition labelling.
    ns_per_step_full: f64,
    /// Default `run()` path: frontier-sparse for `Seeded`-scope
    /// processes, identical to `ns_per_step_full` machinery otherwise.
    ns_per_step: f64,
    steps_per_sec: f64,
    /// Steady-state allocations on the full path (must be 0).
    allocs_full: f64,
    /// Steady-state allocations on the default path (must be 0).
    allocs_per_step: f64,
    bytes_per_step: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.ns_per_step_full / self.ns_per_step
    }

    fn allocation_free(&self) -> bool {
        self.allocs_full == 0.0 && self.allocs_per_step == 0.0
    }
}

/// One timed strategy measurement: steps `sim` for `warmup + steps`
/// steps under `observer`, timing and alloc-counting the last `steps`.
/// Completion does not stop the pipeline: a completed process keeps
/// exchanging over the live components, which is exactly the
/// steady-state workload under test.
fn measure_steps<P: Process, T: Topology, O: Observer>(
    sim: &mut Simulation<P, T>,
    rng: &mut SmallRng,
    observer: &mut O,
    warmup: u64,
    steps: u64,
) -> (f64, f64, f64) {
    for _ in 0..warmup {
        let _ = sim.step(rng, observer);
    }
    let (a0, b0) = allocs_now();
    let t0 = Instant::now();
    for _ in 0..steps {
        let _ = sim.step(rng, observer);
    }
    let elapsed = t0.elapsed();
    let (a1, b1) = allocs_now();
    (
        elapsed.as_nanos() as f64 / steps as f64,
        (a1 - a0) as f64 / steps as f64,
        (b1 - b0) as f64 / steps as f64,
    )
}

/// Sub-critical radius `√(n/k)/2`, the paper's regime of interest.
fn subcritical_radius(side: u32, k: usize) -> u32 {
    (((side as f64).powi(2) / k as f64).sqrt() / 2.0) as u32
}

fn config_for(process: &'static str, side: u32, k: usize) -> (SimConfig, u32) {
    let r = match process {
        "infection" => 0, // contact-only by definition
        _ => subcritical_radius(side, k),
    };
    let mut builder = SimConfig::builder(side, k).radius(r);
    if process == "frog" {
        builder = builder.mobility(Mobility::InformedOnly);
    }
    (builder.build().expect("valid scenario config"), r)
}

/// Measures one scenario on both strategies, from identical RNG states
/// (fresh simulation per strategy; an observer draws nothing, so the
/// step sequences are draw-for-draw the same workload).
fn scenario(process: &'static str, side: u32, k: usize, seed: u64, warmup: u64, steps: u64) -> Row {
    let (config, r) = config_for(process, side, k);
    fn both<P: Process, T: Topology>(
        mut make: impl FnMut(&mut SmallRng) -> Simulation<P, T>,
        seed: u64,
        warmup: u64,
        steps: u64,
    ) -> (f64, f64, f64, f64, f64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = make(&mut rng);
        let (ns_full, allocs_full, _) =
            measure_steps(&mut sim, &mut rng, &mut FullPathProbe, warmup, steps);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = make(&mut rng);
        let (ns_frontier, a, b) =
            measure_steps(&mut sim, &mut rng, &mut NullObserver, warmup, steps);
        (ns_full, ns_frontier, allocs_full, a, b)
    }
    let (ns_per_step_full, ns_per_step, allocs_full, allocs_per_step, bytes_per_step) =
        match process {
            "broadcast" => both(
                |rng| Simulation::broadcast(&config, rng).expect("constructible"),
                seed,
                warmup,
                steps,
            ),
            "frog" => both(
                |rng| Simulation::frog(&config, rng).expect("constructible"),
                seed,
                warmup,
                steps,
            ),
            "gossip" => both(
                |rng| Simulation::gossip(&config, rng).expect("constructible"),
                seed,
                warmup,
                steps,
            ),
            "infection" => both(
                |rng| Simulation::infection(&config, rng).expect("constructible"),
                seed,
                warmup,
                steps,
            ),
            other => unreachable!("unknown process {other}"),
        };
    Row {
        process,
        side,
        k,
        r,
        steps,
        ns_per_step_full,
        ns_per_step,
        steps_per_sec: 1e9 / ns_per_step,
        allocs_full,
        allocs_per_step,
        bytes_per_step,
    }
}

/// Renders the rows as the JSON perf artifact.
fn to_json(ctx: &ExpCtx, rows: &[Row]) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"experiment\": \"exp_perf\",\n");
    out.push_str(&format!("  \"scale\": \"{:?}\",\n", ctx.scale));
    out.push_str(&format!("  \"seed\": {},\n", ctx.seed));
    out.push_str(
        "  \"unit\": {\"ns_per_step\": \"nanoseconds (default run path: frontier-sparse where \
         the process allows)\", \"ns_per_step_full\": \"nanoseconds (full-partition path)\", \
         \"allocs_per_step\": \"heap allocations (default path; allocs_full: full path)\"},\n",
    );
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"process\": \"{}\", \"side\": {}, \"k\": {}, \"r\": {}, \"steps\": {}, \
             \"ns_per_step_full\": {:.1}, \"ns_per_step\": {:.1}, \"speedup\": {:.2}, \
             \"steps_per_sec\": {:.0}, \"allocs_full\": {}, \"allocs_per_step\": {}, \
             \"bytes_per_step\": {}}}{}\n",
            row.process,
            row.side,
            row.k,
            row.r,
            row.steps,
            row.ns_per_step_full,
            row.ns_per_step,
            row.speedup(),
            row.steps_per_sec,
            row.allocs_full,
            row.allocs_per_step,
            row.bytes_per_step,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Runs matched seeds to completion on both strategies and compares the
/// outcomes — the frontier engine must be draw-for-draw invisible.
fn frontier_determinism_check(reps: u64) -> bool {
    let mut ok = true;
    for seed in 0..reps {
        let (config, _) = config_for("broadcast", 64, 32);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible");
        let sparse = sim.run(&mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible");
        ok &= sparse == sim.run_with(&mut rng, &mut FullPathProbe);

        let (config, _) = config_for("frog", 64, 32);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::frog(&config, &mut rng).expect("constructible");
        let sparse = sim.run(&mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::frog(&config, &mut rng).expect("constructible");
        ok &= sparse == sim.run_with(&mut rng, &mut FullPathProbe);

        let (config, _) = config_for("gossip", 64, 32);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::gossip(&config, &mut rng).expect("constructible");
        let sparse = sim.run(&mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::gossip(&config, &mut rng).expect("constructible");
        ok &= sparse == sim.run_with(&mut rng, &mut FullPathProbe);
    }
    println!(
        "frontier determinism: {reps} broadcast + {reps} frog + {reps} gossip seeds, \
         default vs full path: {}",
        if ok { "IDENTICAL" } else { "DIVERGE" }
    );
    ok
}

/// Drives a broadcast ensemble through `Runner::run_with_state`: each
/// worker holds one simulation for its whole seed batch, recycled via
/// `Simulation::reset`, and the outcomes must equal per-seed fresh
/// constructions.
fn ensemble_check(ctx: &ExpCtx, side: u32, k: usize, reps: u32) -> bool {
    let config = SimConfig::builder(side, k)
        .radius(subcritical_radius(side, k))
        .build()
        .expect("valid ensemble config");
    let runner = Runner::new(ctx.seed).repetitions(reps).threads(ctx.threads);
    let t0 = Instant::now();
    let reused = runner.run_with_state(
        || None::<Simulation<Broadcast, Grid>>,
        |slot, seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let sim = match slot {
                // First seed on this worker: construct (warms the scratch).
                None => {
                    slot.insert(Simulation::broadcast(&config, &mut rng).expect("constructible"))
                }
                // Later seeds: reuse engine buffer + scratch wholesale.
                Some(sim) => {
                    sim.reset(
                        Broadcast::from_config(&config).expect("valid process"),
                        &mut rng,
                    )
                    .expect("matching agent count");
                    sim
                }
            };
            sim.run(&mut rng).broadcast_time
        },
    );
    let reused_elapsed = t0.elapsed();
    let fresh = runner.run(|seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible");
        sim.run(&mut rng).broadcast_time
    });
    let identical = reused == fresh;
    println!(
        "ensemble: {reps} broadcast seeds (side {side}, k {k}) on {} threads, \
         one recycled sim per worker: {:.2}s; outcomes {} fresh construction",
        ctx.threads,
        reused_elapsed.as_secs_f64(),
        if identical {
            "IDENTICAL to"
        } else {
            "DIVERGE from"
        },
    );
    identical
}

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "P1",
        "steady-state hot-path throughput and allocation census",
        "a steady-state step allocates nothing, and frontier-sparse stepping beats the full \
         rebuild in the sparse-informed and masked-mobility regimes",
    );
    let (warmup, steps) = ctx.pick((100u64, 2_000u64), (200, 20_000));
    let sides: &[u32] = ctx.pick(&[128, 512][..], &[128, 512, 1024][..]);

    let mut rows = Vec::new();
    for &side in sides {
        for &process in &["broadcast", "gossip", "infection"] {
            // k = side keeps the density at the paper's sparse regime
            // (k/n = 1/side); k = side/4 samples a sparser point.
            for k in [side as usize / 4, side as usize] {
                rows.push(scenario(process, side, k, ctx.seed, warmup, steps));
            }
        }
    }
    // Frontier-regime scenarios at side 512: masked mobility (the frog
    // model, where most agents never move) and low-informed-fraction
    // broadcast (T_B ≈ n/√k ≫ the measured window, so the informed set
    // stays a small fraction of k throughout). These are the regimes
    // the frontier-sparse engine exists for.
    let frontier_side = 512;
    for k in [frontier_side as usize / 4, frontier_side as usize] {
        rows.push(scenario("frog", frontier_side, k, ctx.seed, warmup, steps));
    }
    rows.push(scenario(
        "broadcast",
        frontier_side,
        4 * frontier_side as usize,
        ctx.seed,
        warmup,
        steps,
    ));

    println!(
        "{:<10} {:>5} {:>6} {:>4} {:>7} {:>12} {:>12} {:>8} {:>12} {:>11} {:>12} {:>11}",
        "process",
        "side",
        "k",
        "r",
        "steps",
        "ns/step full",
        "ns/step",
        "speedup",
        "steps/sec",
        "allocs full",
        "allocs/step",
        "bytes/step"
    );
    for row in &rows {
        println!(
            "{:<10} {:>5} {:>6} {:>4} {:>7} {:>12.1} {:>12.1} {:>7.2}x {:>12.0} {:>11} {:>12} {:>11}",
            row.process,
            row.side,
            row.k,
            row.r,
            row.steps,
            row.ns_per_step_full,
            row.ns_per_step,
            row.speedup(),
            row.steps_per_sec,
            row.allocs_full,
            row.allocs_per_step,
            row.bytes_per_step,
        );
    }
    println!();

    let determinism_ok = frontier_determinism_check(ctx.pick(8, 32));
    let ensemble_ok = ensemble_check(&ctx, 64, 32, ctx.pick(16, 64));
    println!();

    let json = to_json(&ctx, &rows);
    std::fs::write("BENCH_hotpath.json", &json).expect("writable BENCH_hotpath.json");
    println!("wrote BENCH_hotpath.json ({} rows)", rows.len());

    // The acceptance gates: zero steady-state allocs/step everywhere
    // (both paths), frontier/full and recycled/fresh determinism, and a
    // ≥ 2× frontier win in at least one side-512 frontier scenario
    // (frog masks sit near 10–30×, so the 2× floor has a wide margin
    // against machine noise).
    let clean = rows.iter().all(Row::allocation_free);
    let best_frontier = rows
        .iter()
        .filter(|r| r.side == 512 && (r.process == "frog" || r.process == "broadcast"))
        .map(Row::speedup)
        .fold(0.0f64, f64::max);
    let ok = clean && ensemble_ok && determinism_ok && best_frontier >= 2.0;
    // A MISMATCH must fail the caller (this binary is the CI gate for
    // the zero-allocation and frontier-equivalence invariants).
    verdict(
        ok,
        &format!(
            "all {} scenarios allocation-free: {clean}; frontier vs full paths identical: \
             {determinism_ok}; ensemble determinism: {ensemble_ok}; best side-512 frontier \
             speedup: {best_frontier:.2}x",
            rows.len(),
        ),
    )
}
