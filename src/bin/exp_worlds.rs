//! E23 — heterogeneous, obstructed, churning worlds.
//!
//! Where E21 (`exp_sweep`) sweeps the clean model of the paper, this
//! binary exercises the world axes the scenario subsystem layers on
//! top of it — city-block barriers, seeded agent churn, mixed contact
//! radii, fast-mover speed classes and multi-source (including
//! adversarial corner) placements — and gates the claims the axes must
//! not break:
//!
//! 1. **Baseline fidelity** — with every axis off, the {side} × {k} ×
//!    {r/r_c} sweep must reproduce all nine knees inside the factor-4
//!    band around `r_c = √(n/k)`, exactly as E21 does. New axes may
//!    not perturb the trivial world.
//! 2. **Zero allocations** — after warm-up, a step in *every* world
//!    (walled, churning, heterogeneous, speed-classed, multi-source)
//!    allocates nothing, machine-checked with a counting allocator.
//! 3. **Determinism** — a churn sweep produces byte-identical JSON at
//!    1, 2 and 4 worker threads, and a walled heterogeneous run
//!    repeats draw-for-draw under one seed.
//!
//! On top of the gates it measures how each world axis shifts the
//! percolation knee (barrier density and churn rate mini-sweeps at one
//! (side, k)), and writes everything to `BENCH_worlds.json`.
//!
//! Scale via `SG_SCALE` (`quick`/`full`) or `--quick`/`--full`; seed
//! via `SG_SEED`, threads via `SG_THREADS`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::ops::ControlFlow;
use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Family, ScenarioSweep, ScenarioSweepReport};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{NullObserver, ProcessKind, ScenarioSpec, WorldSim};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's heap allocations, so the steady-state gate
/// can assert a warmed-up world step never touches the heap.
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

/// One non-trivial world per axis, exercised by the allocation and
/// determinism gates.
fn axis_worlds(side: u32, k: usize) -> Vec<(&'static str, ScenarioSpec)> {
    let base = || ScenarioSpec::builder(ProcessKind::Broadcast, side, k).radius(2);
    vec![
        (
            "barriers",
            base().barrier_density(0.3).build().expect("valid spec"),
        ),
        (
            "churn",
            base().churn_rate(0.05).build().expect("valid spec"),
        ),
        (
            "hetero_radii",
            base()
                .hetero_fraction(0.5)
                .hetero_factor(2.0)
                .build()
                .expect("valid spec"),
        ),
        (
            "speed_classes",
            base()
                .speed_fraction(0.5)
                .speed_factor(3)
                .build()
                .expect("valid spec"),
        ),
        (
            "adversarial_sources",
            base()
                .num_sources(3)
                .adversarial_sources(true)
                .build()
                .expect("valid spec"),
        ),
        (
            "combined",
            base()
                .barrier_density(0.2)
                .churn_rate(0.02)
                .hetero_fraction(0.25)
                .hetero_factor(2.0)
                .build()
                .expect("valid spec"),
        ),
    ]
}

/// Steps a warmed-up world and returns the allocations per step
/// observed in steady state (must be zero for every axis).
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
        "E23",
        "heterogeneous, obstructed, churning worlds",
        "world axes leave the trivial-world phase transition intact, keep the \
         hot path allocation-free, and shift the knee monotonically",
    );

    // Gate 1: the all-axes-off baseline reproduces E21's nine knees.
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

    // Gate 2: steady-state steps allocate nothing in any world.
    println!();
    let mut allocs_ok = true;
    let mut alloc_lines: Vec<String> = Vec::new();
    for (name, spec) in axis_worlds(40, 20) {
        let allocs = steady_state_allocs(&spec, ctx.seed);
        println!("allocs/step [{name}]: {allocs}");
        alloc_lines.push(format!(
            "    {{\"world\": \"{name}\", \"allocs\": {allocs}}}"
        ));
        allocs_ok &= allocs == 0;
    }

    // Gate 3: worker counts never change results, and one seed always
    // replays the same world run.
    let det_sweep = |threads: usize| {
        ScenarioSweep::new(mini, ctx.seed)
            .r_factors(vec![0.5, 2.0])
            .axis("churn_rates", vec![0.0, 0.05])
            .expect("valid churn rates")
            .replicates(2)
            .threads(threads)
            .run()
            .expect("every determinism cell validates")
            .to_json()
    };
    let single = det_sweep(1);
    let threads_ok = det_sweep(2) == single && det_sweep(4) == single;
    println!("thread invariance (1 vs 2 vs 4 workers): {threads_ok}");
    let replay = |seed: u64| {
        let spec = &axis_worlds(40, 20)[5].1;
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = WorldSim::from_spec(spec, &mut rng).expect("constructible world");
        sim.run(&mut rng)
    };
    let replay_ok = replay(ctx.seed) == replay(ctx.seed);
    println!("seed replay (combined world): {replay_ok}");

    // BENCH_worlds.json: the baseline and per-axis sweep reports plus
    // the gate results, for CI artifact upload.
    let mut json = String::from("{\n  \"experiment\": \"E23_worlds\",\n");
    json.push_str(&format!(
        "  \"baseline_knees_within\": {baseline_within},\n  \"baseline_knees_expected\": {expected_knees},\n"
    ));
    json.push_str(&format!(
        "  \"threads_invariant\": {threads_ok},\n  \"seed_replay\": {replay_ok},\n"
    ));
    json.push_str("  \"allocs_per_step\": [\n");
    json.push_str(&alloc_lines.join(",\n"));
    json.push_str("\n  ],\n");
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

    let ok = baseline_ok && allocs_ok && threads_ok && replay_ok;
    verdict(
        ok,
        &format!(
            "baseline {baseline_within}/{expected_knees} knees, \
             allocs-free {allocs_ok}, thread-invariant {threads_ok}, replayable {replay_ok}"
        ),
    )
}
