//! E24 — adaptive knee refinement: the bisection sweep locates every
//! phase-transition knee at a fraction of the dense grid's cost.
//!
//! Where E21 (`exp_sweep`) measures a fixed {side} × {k} × {r/r_c}
//! grid, this binary runs the *adaptive* mode: a coarse 5-point radius
//! axis per (side, k) curve, then per-curve bisection of the knee
//! bracket down to `max(1 grid step, 1% · r_c)`, then a
//! confidence-aware replicate top-up where the CI is widest. Gates:
//!
//! 1. **accuracy** — every curve reports a knee inside the theory band
//!    `[r_c/4, 4·r_c]`, with a final bracket no wider than one grid
//!    step or 1% of `r_c` (the integer radius axis caps precision at
//!    one step once `r_c < 100`);
//! 2. **economy** — the adaptive sweep evaluates at most 40% of the
//!    cells a dense 30-point-per-curve grid would;
//! 3. **determinism** — the report is byte-identical across 1/2/4
//!    worker threads, and a store-backed run killed mid-stream and
//!    resumed converges on byte-identical report and store;
//! 4. **zero-alloc** — the warmed-up simulation step under the sweep
//!    never touches the heap (thread-counting global allocator).
//!
//! Results are printed as a table and written to `BENCH_adaptive.json`
//! (uploaded by CI next to `BENCH_sweep.json`).
//!
//! Scale via `SG_SCALE` (`quick`/`full`) or the `--quick`/`--full`
//! arguments; seed via `SG_SEED`, threads via `SG_THREADS`, like every
//! other `exp_*` binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{AdaptiveConfig, ResultStore, ScenarioSweep};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{NullObserver, ProcessKind, ScenarioSpec, WorldSim};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's heap allocations, so the steady-state gate
/// can assert a warmed-up sweep step never touches the heap.
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

/// Steps a warmed-up simulation of `spec` and returns the allocations
/// per 100 steps observed in steady state (must be zero).
fn steady_state_allocs(spec: &ScenarioSpec, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = WorldSim::from_spec(spec, &mut rng).expect("constructible world");
    for _ in 0..50 {
        if sim.step(&mut rng, &mut NullObserver) == ControlFlow::Break(()) {
            break;
        }
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut NullObserver);
    }
    thread_allocs() - before
}

fn main() -> ExitCode {
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => std::env::set_var("SG_SCALE", "quick"),
            "--full" => std::env::set_var("SG_SCALE", "full"),
            other => eprintln!("ignoring unknown argument {other:?}"),
        }
    }
    let ctx = ExpCtx::init(
        "E24",
        "adaptive knee refinement against the dense-grid comparator",
        "bisection finds every knee in [r_c/4, 4 r_c] to one-step/1% precision \
         at <= 40% of the dense grid's cells, deterministically",
    );

    let base = ScenarioSpec::builder(ProcessKind::Broadcast, 64, 32)
        .build()
        .expect("valid base spec");
    let sides = ctx.pick(vec![32, 48], vec![64, 96]);
    let ks = ctx.pick(vec![16, 32], vec![32, 64]);
    let curves = sides.len() * ks.len();
    let coarse = vec![0.25, 0.5, 1.0, 2.0, 3.0];
    let sweep = ScenarioSweep::new(base, ctx.seed)
        .sides(sides.clone())
        .ks(ks.clone())
        .r_factors(coarse)
        .replicates(ctx.pick(3, 8))
        .threads(ctx.threads)
        .adaptive(AdaptiveConfig {
            replicate_budget: ctx.pick(6, 24),
            ..AdaptiveConfig::default()
        });

    let report = sweep.run().expect("every cell validates");
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

    // Gate 3a: byte-identical across 1/2/4 workers.
    let json = report.to_json();
    let mut threads_ok = true;
    for workers in [1usize, 2, 4] {
        let other = sweep
            .clone()
            .threads(workers)
            .run()
            .expect("every cell validates")
            .to_json();
        let same = other == json;
        threads_ok &= same;
        println!(
            "workers={workers}: {}",
            if same { "identical" } else { "DRIFTED" }
        );
    }

    // Gate 3b: kill mid-stream, resume, converge byte-identically.
    let dir = std::env::temp_dir();
    let full_path = dir.join(format!("exp_adaptive_full_{}.bin", std::process::id()));
    let mut store = ResultStore::create(&full_path).expect("writable store");
    let stored = sweep
        .run_with_store(Some(&mut store))
        .expect("store-backed run")
        .to_json();
    drop(store);
    let full_bytes = std::fs::read(&full_path).expect("readable store");
    std::fs::remove_file(&full_path).expect("removable store");
    const HEADER_LEN: usize = 16;
    const RECORD_LEN: usize = 32;
    const TRAILER_LEN: usize = 24;
    let records = (full_bytes.len() - HEADER_LEN - TRAILER_LEN) / RECORD_LEN;
    let killed_path = dir.join(format!("exp_adaptive_killed_{}.bin", std::process::id()));
    // Kill after half the records plus a torn 13-byte tail.
    let upto = HEADER_LEN + (records / 2) * RECORD_LEN + 13;
    std::fs::write(&killed_path, &full_bytes[..upto]).expect("writable kill prefix");
    let mut store = ResultStore::open_resume(&killed_path).expect("resumable store");
    let resumed = sweep
        .run_with_store(Some(&mut store))
        .expect("resumed run")
        .to_json();
    drop(store);
    let resumed_bytes = std::fs::read(&killed_path).expect("readable store");
    std::fs::remove_file(&killed_path).expect("removable store");
    let resume_ok = stored == json && resumed == json && resumed_bytes == full_bytes;
    println!(
        "resume: killed after {}/{records} records (+13 torn bytes) -> {}",
        records / 2,
        if resume_ok { "identical" } else { "DRIFTED" }
    );

    // Gate 4: the steady-state step under the sweep is allocation-free.
    let probe = base.with_axes(32, 16, 4).expect("valid probe cell");
    let allocs = steady_state_allocs(&probe, ctx.seed);
    let allocs_ok = allocs == 0;
    println!("allocs/step (warmed): {allocs}");

    let mut json_out = json;
    let gates = format!(
        "  \"gates\": {{\"accuracy\": {accuracy_ok}, \"economy\": {economy_ok}, \
         \"threads\": {threads_ok}, \"resume\": {resume_ok}, \
         \"zero_alloc\": {allocs_ok}, \"dense_cells\": {dense_cells}, \
         \"adaptive_cells\": {evaluated}}},\n"
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

    let ok = accuracy_ok && economy_ok && threads_ok && resume_ok && allocs_ok;
    // A MISMATCH must fail the caller (this binary is a CI gate for
    // the adaptive mode), not just print.
    verdict(
        ok,
        &format!(
            "accuracy {accuracy_ok}, economy {economy_ok} ({evaluated}/{dense_cells} cells), \
             thread-invariant {threads_ok}, resumable {resume_ok}, allocs-free {allocs_ok}"
        ),
    )
}
