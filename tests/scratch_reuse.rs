//! Regression suite for the zero-allocation hot-path rework: recycled
//! scratch buffers and in-place `Simulation::reset` must be
//! observationally invisible — every run is draw-for-draw identical to
//! a fresh construction, whether driven in one `run` call or step by
//! step — and the allocation-freedom claims are machine-checked here
//! with a counting allocator (per-thread, so the parallel test harness
//! does not pollute the counts). This is the workspace's one allocation
//! census: every process on both labelling paths, every world axis, and
//! the fault-injected protocol twin.

use core::ops::ControlFlow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip::core::{ScenarioOutcome, SimScratch};
use sparsegossip::grid::Point;
use sparsegossip::prelude::*;
use sparsegossip::protocol::{FaultPlan, NetworkConfig, PartitionSchedule, RecoveryConfig};

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

/// Asserts that warmed steps allocate nothing. First the default path
/// alone (`NullObserver`, which takes the process's own components
/// scope), warmed and measured the way a production run executes; then
/// the full-partition path (`FullView`); then both paths alternating,
/// once each has reached its steady shape.
fn assert_steps_allocation_free<P: Process>(
    mut sim: Simulation<P, Grid>,
    mut rng: SmallRng,
    what: &str,
) {
    let mut null = sparsegossip::core::NullObserver;
    let mut full = FullView;
    for _ in 0..60 {
        let _ = sim.step(&mut rng, &mut null);
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut null);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "{what}: default-path step allocated"
    );
    for _ in 0..60 {
        let _ = sim.step(&mut rng, &mut full);
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut full);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "{what}: full-partition step allocated"
    );
    let before = thread_allocs();
    for _ in 0..50 {
        let _ = sim.step(&mut rng, &mut null);
        let _ = sim.step(&mut rng, &mut full);
    }
    assert_eq!(
        thread_allocs() - before,
        0,
        "{what}: alternating-path step allocated"
    );
}

#[test]
fn steady_state_steps_are_allocation_free() {
    // After warm-up, a step allocates nothing on either labelling path:
    // broadcast's frontier-sparse path, the Frog mobility mask, gossip's
    // contact-only path and infection's contact-radius path, each next
    // to the full-partition path an observer can demand.
    let cfg = config(48, 24, 2);
    let mut rng = SmallRng::seed_from_u64(11);
    let sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
    assert_steps_allocation_free(sim, rng, "broadcast");

    let mut rng = SmallRng::seed_from_u64(12);
    let sim = Simulation::frog(&cfg, &mut rng).unwrap();
    assert_steps_allocation_free(sim, rng, "frog");

    let mut rng = SmallRng::seed_from_u64(13);
    let sim = Simulation::gossip(&cfg, &mut rng).unwrap();
    assert_steps_allocation_free(sim, rng, "gossip");

    let mut rng = SmallRng::seed_from_u64(14);
    let sim = Simulation::infection(&cfg, &mut rng).unwrap();
    assert_steps_allocation_free(sim, rng, "infection");
}

#[test]
fn frontier_sparse_path_matches_full_path_outcomes() {
    // Running the same seeds under NullObserver (frontier-sparse
    // labelling) and under a full-components observer (full partition)
    // must produce identical outcomes — the labelling switch is
    // draw-for-draw invisible.
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
    // allocation census uses r = 1 so every measured step does real
    // work.
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
fn world_steps_are_allocation_free_after_warmup() {
    // One world per axis, every axis at once, the trivial world a sweep
    // cell builds, and the churning walled world above: once the buffers
    // reach their high-water marks, a world step must not touch the heap,
    // on the process's own labelling path (`NullObserver`) and on the
    // full-partition path an observer can demand (`FullView`).
    let base = || ScenarioSpec::builder(ProcessKind::Broadcast, 40, 20).radius(2);
    let trivial = ScenarioSpec::builder(ProcessKind::Broadcast, 64, 32)
        .build()
        .unwrap()
        .with_axes(32, 16, 4)
        .unwrap();
    let worlds = [
        ("barriers", base().barrier_density(0.3).build().unwrap()),
        ("churn", base().churn_rate(0.05).build().unwrap()),
        (
            "hetero_radii",
            base()
                .hetero_fraction(0.5)
                .hetero_factor(2.0)
                .build()
                .unwrap(),
        ),
        (
            "speed_classes",
            base().speed_fraction(0.5).speed_factor(3).build().unwrap(),
        ),
        (
            "adversarial_sources",
            base()
                .num_sources(3)
                .adversarial_sources(true)
                .build()
                .unwrap(),
        ),
        (
            "combined",
            base()
                .barrier_density(0.2)
                .churn_rate(0.02)
                .hetero_fraction(0.25)
                .hetero_factor(2.0)
                .build()
                .unwrap(),
        ),
        ("trivial", trivial),
        ("churning_walled_hetero", churn_spec(1)),
    ];
    for (name, spec) in &worlds {
        for seed in [13u64, 2011] {
            let default_path = world_step_allocs(spec, seed, sparsegossip::core::NullObserver);
            assert_eq!(
                default_path, 0,
                "{name} seed={seed}: default-path world steps allocated"
            );
            let full_path = world_step_allocs(spec, seed, FullView);
            assert_eq!(
                full_path, 0,
                "{name} seed={seed}: full-partition world steps allocated"
            );
        }
    }
}

/// Heap allocations of world steps 60..160 of `spec` at `seed`, every
/// step observed by `observer`.
fn world_step_allocs<O: sparsegossip::core::Observer>(
    spec: &ScenarioSpec,
    seed: u64,
    mut observer: O,
) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = WorldSim::from_spec(spec, &mut rng).unwrap();
    for _ in 0..60 {
        let _ = sim.step(&mut rng, &mut observer);
    }
    let before = thread_allocs();
    for _ in 0..100 {
        let _ = sim.step(&mut rng, &mut observer);
    }
    thread_allocs() - before
}

#[test]
fn faulty_twin_ticks_allocate_only_for_queue_growth() {
    // Two clusters that never meet keep the run incomplete, so crash
    // draws, restarts, the retransmission queue and the anti-entropy
    // digests stay active while the heap is watched. The raw count over
    // the whole window is asserted: a per-tick average would round a
    // rare allocation down to zero.
    //
    // Known defect, pinned rather than hidden: the in-flight message
    // queues have no reserved bound and grow whenever they reach a new
    // high-water mark, here once each at ticks 148 and 149. Any other
    // allocation fails here; bounding the queues turns the count into 0.
    const SIDE: u32 = 16;
    const RADIUS: u32 = 2;
    let positions = [
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
        (10, 10),
        (11, 10),
        (10, 11),
        (11, 11),
    ]
    .map(|(x, y)| Point::new(x, y));
    let net = NetworkConfig::new(0.3, 1, 2, 4).unwrap();
    let mut runtime = NodeRuntime::new(positions.len(), 0, net, 99, 1);
    runtime.set_recording(false);
    runtime.set_fault_plan(FaultPlan::new(0.2, 3, PartitionSchedule::EMPTY).unwrap());
    runtime.set_recovery(RecoveryConfig::new(true, 2));
    for t in 0..64 {
        runtime.tick(t, &positions, RADIUS, SIDE).unwrap();
    }
    let before = thread_allocs();
    for t in 64..192 {
        runtime.tick(t, &positions, RADIUS, SIDE).unwrap();
    }
    assert_eq!(
        thread_allocs() - before,
        2,
        "faulty ticks 64..192 allocated"
    );
    assert!(
        !runtime.is_complete(),
        "disconnected clusters must keep the run incomplete"
    );
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
