//! Regression suite for the zero-allocation hot-path rework: recycled
//! scratch buffers and in-place `Simulation::reset` must be
//! observationally invisible — every run is draw-for-draw identical to
//! a fresh construction, whether driven in one `run` call or step by
//! step — and the allocation-freedom claims are machine-checked here
//! with a counting allocator (per-thread, so the parallel test harness
//! does not pollute the counts).

use core::ops::ControlFlow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip::core::{ScenarioOutcome, SimScratch};
use sparsegossip::grid::Point;
use sparsegossip::prelude::*;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts this thread's heap allocations; `try_with` so allocations
/// during thread teardown (after TLS destruction) stay safe.
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

/// A do-nothing observer that still demands the full visibility
/// partition, forcing the driver onto the classic rebuild path.
struct FullView;

impl sparsegossip::core::Observer for FullView {
    fn on_step(&mut self, _ctx: sparsegossip::core::StepContext<'_>) {}
}

fn config(side: u32, k: usize, r: u32) -> SimConfig {
    SimConfig::builder(side, k).radius(r).build().unwrap()
}

#[test]
fn recycled_scratch_reproduces_fresh_outcomes_across_seeds() {
    // One scratch threaded through a whole seed batch, against fresh
    // constructions: outcomes must match seed for seed.
    let cfg = config(24, 12, 1);
    let mut scratch = SimScratch::new();
    for seed in 0..16u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast_with_scratch(&cfg, &mut rng, scratch).unwrap();
        let reused = sim.run(&mut rng);
        scratch = sim.into_scratch();

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fresh = Simulation::broadcast(&cfg, &mut rng).unwrap();
        assert_eq!(reused, fresh.run(&mut rng), "seed={seed}");
    }
}

#[test]
fn scratch_recycles_across_process_types() {
    // The same buffers serve broadcast, then gossip, then infection —
    // sizes and shapes differ, results must not.
    let scratch = SimScratch::new();

    let cfg = config(20, 10, 2);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut sim = Simulation::broadcast_with_scratch(&cfg, &mut rng, scratch).unwrap();
    let out = sim.run(&mut rng);
    let mut rng = SmallRng::seed_from_u64(7);
    let mut fresh = Simulation::broadcast(&cfg, &mut rng).unwrap();
    assert_eq!(out, fresh.run(&mut rng));
    let scratch = sim.into_scratch();

    let cfg = config(16, 6, 0);
    let mut rng = SmallRng::seed_from_u64(8);
    let mut sim = Simulation::gossip_with_scratch(&cfg, &mut rng, scratch).unwrap();
    let out = sim.run(&mut rng);
    let mut rng = SmallRng::seed_from_u64(8);
    let mut fresh = Simulation::gossip(&cfg, &mut rng).unwrap();
    assert_eq!(out, fresh.run(&mut rng));
    let scratch = sim.into_scratch();

    let mut scratch = scratch;
    let spec = ScenarioSpec::builder(ProcessKind::Infection, 16, 6)
        .build()
        .unwrap();
    let out = spec.run_outcome_with_scratch(&mut scratch, 9);
    let mut rng = SmallRng::seed_from_u64(9);
    let mut fresh = Simulation::infection(spec.config(), &mut rng).unwrap();
    assert_eq!(out, ScenarioOutcome::Infection(fresh.run(&mut rng)));
}

#[test]
fn long_run_then_reset_then_stepwise_share_one_scratch() {
    // The satellite regression: a long `run` and a step-by-step drive
    // share one simulation (hence one scratch) across a `reset`, and
    // both halves must be draw-for-draw identical to fresh sims.
    let cfg = config(24, 12, 1);

    // Leg 1: long run on seed 41.
    let mut rng = SmallRng::seed_from_u64(41);
    let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
    let long_out = sim.run(&mut rng);

    // Leg 2: reset in place to seed 42, drive step by step.
    let mut rng = SmallRng::seed_from_u64(42);
    sim.reset(Broadcast::from_config(&cfg).unwrap(), &mut rng)
        .unwrap();
    assert_eq!(sim.time(), 0, "reset rewinds time");
    let mut steps = 0u64;
    while !sim.is_complete() && sim.time() < cfg.max_steps() {
        let flow = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
        steps += 1;
        if flow == ControlFlow::Break(()) {
            break;
        }
    }
    let stepwise_out = sim.outcome();
    assert_eq!(steps, sim.time());

    // Both legs equal their fresh-simulation counterparts.
    let mut rng = SmallRng::seed_from_u64(41);
    let mut fresh = Simulation::broadcast(&cfg, &mut rng).unwrap();
    assert_eq!(long_out, fresh.run(&mut rng), "long-run leg diverged");
    let mut rng = SmallRng::seed_from_u64(42);
    let mut fresh = Simulation::broadcast(&cfg, &mut rng).unwrap();
    assert_eq!(stepwise_out, fresh.run(&mut rng), "stepwise leg diverged");
}

#[test]
fn reset_rejects_mismatched_process_size() {
    let cfg = config(16, 8, 0);
    let mut rng = SmallRng::seed_from_u64(1);
    let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
    let wrong = Broadcast::new(5, 0).unwrap();
    assert_eq!(
        sim.reset(wrong, &mut rng).unwrap_err(),
        SimError::AgentCountMismatch { process: 5, k: 8 }
    );
}

#[test]
fn runner_with_state_matches_stateless_runner() {
    // The analysis-layer thread: each worker recycles one simulation
    // via reset; outcomes must equal the stateless per-seed path, for
    // any thread count.
    let cfg = config(20, 10, 1);
    let run_fresh = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        sim.run(&mut rng).broadcast_time
    };
    let stateless = Runner::new(3).repetitions(24).threads(1).run(run_fresh);
    for threads in [1usize, 4] {
        let reused = Runner::new(3)
            .repetitions(24)
            .threads(threads)
            .run_with_state(
                || None,
                |slot: &mut Option<Simulation<Broadcast, Grid>>, seed| {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let sim = match slot {
                        None => slot.insert(Simulation::broadcast(&cfg, &mut rng).unwrap()),
                        Some(sim) => {
                            sim.reset(Broadcast::from_config(&cfg).unwrap(), &mut rng)
                                .unwrap();
                            sim
                        }
                    };
                    sim.run(&mut rng).broadcast_time
                },
            );
        assert_eq!(reused, stateless, "threads={threads}");
    }
}

#[test]
fn warm_construction_is_allocation_free() {
    // With a warmed-up scratch, a caller-provided position buffer and a
    // pre-built process, `from_positions_with_scratch` must not touch
    // the heap at all — in particular, the driver's empty-partition
    // placeholder is a shared const, not a per-construction allocation.
    let pts: Vec<Point> = (0..12)
        .map(|i| Point::new((i * 5) % 20, (i * 3) % 20))
        .collect();
    let grid = Grid::new(20).unwrap();
    // Warm-up at identical positions, so every buffer reaches its final
    // shape: Broadcast warms the seeded placement path, Gossip the
    // contact-only path, sharing one scratch.
    let warm =
        Simulation::from_positions(grid, pts.clone(), 2, 1_000, Broadcast::new(12, 0).unwrap())
            .unwrap();
    let warm = Simulation::from_positions_with_scratch(
        grid,
        pts.clone(),
        2,
        1_000,
        Gossip::distinct(12).unwrap(),
        warm.into_scratch(),
    )
    .unwrap();
    let mut scratch = warm.into_scratch();

    for _ in 0..2 {
        let process = Broadcast::new(12, 0).unwrap();
        let pts2 = pts.clone();
        let before = thread_allocs();
        let sim = Simulation::from_positions_with_scratch(grid, pts2, 2, 1_000, process, scratch)
            .unwrap();
        assert_eq!(
            thread_allocs() - before,
            0,
            "broadcast construction allocated"
        );

        let process = Gossip::distinct(12).unwrap();
        let pts2 = pts.clone();
        let before = thread_allocs();
        let sim = Simulation::from_positions_with_scratch(
            grid,
            pts2,
            2,
            1_000,
            process,
            sim.into_scratch(),
        )
        .unwrap();
        assert_eq!(thread_allocs() - before, 0, "gossip construction allocated");
        scratch = sim.into_scratch();
    }
}

#[test]
fn steady_state_steps_are_allocation_free() {
    // The PR-3 invariant, machine-enforced in `cargo test`: after
    // warm-up, a step allocates nothing — on the frontier-sparse path
    // (broadcast under NullObserver), on the full-partition path (an
    // observer that wants complete components), under a Frog mobility
    // mask, and on the contact-only path (gossip under NullObserver).
    let cfg = config(48, 24, 2);
    let mut rng = SmallRng::seed_from_u64(11);
    let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
    let mut full = FullView;
    for _ in 0..60 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
        let _ = sim.step(&mut rng, &mut full);
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "frontier-sparse step allocated"
    );
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut full);
    }
    assert_eq!(thread_allocs() - before, 0, "full-partition step allocated");

    let mut rng = SmallRng::seed_from_u64(12);
    let mut sim = Simulation::frog(&cfg, &mut rng).unwrap();
    for _ in 0..60 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "masked-mobility step allocated"
    );

    let mut rng = SmallRng::seed_from_u64(13);
    let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
    for _ in 0..60 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    assert_eq!(thread_allocs() - before, 0, "contact-only step allocated");
}

#[test]
fn frontier_sparse_path_matches_full_path_outcomes() {
    // Running the same seeds under NullObserver (frontier-sparse
    // labelling + incremental hash) and under a full-components
    // observer (classic rebuild path) must produce identical outcomes —
    // the engine switch is draw-for-draw invisible.
    for seed in 0..8u64 {
        let cfg = config(28, 14, 1);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        let sparse = sim.run(&mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        let full = sim.run_with(&mut rng, &mut FullView);
        assert_eq!(sparse, full, "broadcast seed={seed}");

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::frog(&cfg, &mut rng).unwrap();
        let sparse = sim.run(&mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::frog(&cfg, &mut rng).unwrap();
        let full = sim.run_with(&mut rng, &mut FullView);
        assert_eq!(sparse, full, "frog seed={seed}");

        // The one-hop ablation declares ComponentsScope::None, so the
        // plain run skips labelling entirely; a full-components
        // observer must still see identical outcomes.
        let one_hop = SimConfig::builder(28, 14)
            .radius(1)
            .exchange_rule(ExchangeRule::OneHop)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&one_hop, &mut rng).unwrap();
        let skipped = sim.run(&mut rng);
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&one_hop, &mut rng).unwrap();
        let full = sim.run_with(&mut rng, &mut FullView);
        assert_eq!(skipped, full, "one-hop seed={seed}");

        // Alternating observers mid-run (hash invalidation and rebuild
        // on every switch) must also stay on the golden trajectory.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        let mut flip = 0u32;
        while !sim.is_complete() && sim.time() < cfg.max_steps() {
            let flow = if flip.is_multiple_of(2) {
                sim.step(&mut rng, &mut sparsegossip::core::NullObserver)
            } else {
                sim.step(&mut rng, &mut FullView)
            };
            flip += 1;
            if flow == ControlFlow::Break(()) {
                break;
            }
        }
        assert_eq!(
            sim.outcome(),
            full_outcome_for(seed, &cfg),
            "alternating seed={seed}"
        );
    }
}

fn full_outcome_for(seed: u64, cfg: &SimConfig) -> BroadcastOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::broadcast(cfg, &mut rng).unwrap();
    sim.run(&mut rng)
}

/// A churning, heterogeneous, walled world spec for the golden
/// regression below — every world axis that touches the step loop's
/// draw order is on at once.
fn churn_spec(radius: u32) -> ScenarioSpec {
    // Churn keeps resetting informed agents, so sub-critical radii ride
    // the step cap; the determinism legs use a near-critical radius so
    // runs complete quickly with seed-varied times, while the
    // allocation leg uses r = 1 so every measured step does real work.
    ScenarioSpec::builder(ProcessKind::Broadcast, 24, 12)
        .radius(radius)
        .max_steps(1_500)
        .barrier_density(0.2)
        .churn_rate(0.05)
        .hetero_fraction(0.5)
        .hetero_factor(2.0)
        .build()
        .unwrap()
}

#[test]
fn churn_runs_are_identical_across_scratch_reuse() {
    // Golden fixed-seed churn regression, leg 1: one scratch recycled
    // through a whole seed batch of churning-world runs must be
    // draw-for-draw identical to fresh constructions.
    let spec = churn_spec(5);
    let mut scratch = SimScratch::new();
    for seed in 0..8u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = WorldSim::from_spec_with_scratch(&spec, &mut rng, scratch).unwrap();
        let reused = sim.run(&mut rng);
        scratch = sim.into_scratch();

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut fresh = WorldSim::from_spec(&spec, &mut rng).unwrap();
        assert_eq!(reused, fresh.run(&mut rng), "seed={seed}");
    }
}

#[test]
fn churn_runs_are_identical_across_runner_thread_counts() {
    // Golden fixed-seed churn regression, leg 2: the Runner's worker
    // count must never change a churning world's samples — each seed's
    // run owns its RNG, so 1, 2 and 8 threads see identical draws.
    let spec = churn_spec(5);
    let golden = Runner::new(5)
        .repetitions(16)
        .threads(1)
        .measure(|s| spec.run_seed(s));
    for threads in [2usize, 8] {
        let multi = Runner::new(5)
            .repetitions(16)
            .threads(threads)
            .measure(|s| spec.run_seed(s));
        assert_eq!(multi.samples, golden.samples, "threads={threads}");
    }
}

#[test]
fn churn_world_steps_are_allocation_free_after_warmup() {
    // The churn compaction and teleport path shares the walk-move log;
    // once the move buffer has grown to its high-water mark, a churning
    // step must not touch the heap.
    let spec = churn_spec(1);
    let mut rng = SmallRng::seed_from_u64(13);
    let mut sim = WorldSim::from_spec(&spec, &mut rng).unwrap();
    for _ in 0..60 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    assert_eq!(thread_allocs() - before, 0, "churning-world step allocated");
}

#[test]
fn gossip_and_predator_prey_survive_repeated_stepping_with_scratch() {
    // Processes with their own internal scratch (rumor unions, one-hop
    // spatial hash, predator hash) keep working when stepped past
    // completion — the perf harness drives them that way.
    let cfg = config(12, 6, 1);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
    for _ in 0..2_000 {
        let _ = sim.step(&mut rng, &mut sparsegossip::core::NullObserver);
    }
    assert!(sim.process().is_complete());

    let grid = Grid::new(12).unwrap();
    let mut rng = SmallRng::seed_from_u64(6);
    let process = PredatorPrey::uniform(&grid, 4, 1, true, &mut rng).unwrap();
    let mut sim = Simulation::new(grid, 6, 1, 2_000_000, process, &mut rng).unwrap();
    let out = sim.run(&mut rng);
    assert_eq!(out.survivors, 0);
}
