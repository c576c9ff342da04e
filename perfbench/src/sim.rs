//! The broadcast and gossip workloads: their generated cases, and the
//! untraced and traced drivers of one simulation run.

use std::mem;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_conngraph::{
    components_from_seeds_on_by, components_on_by, ComponentsScratch, SeededScratch, SpatialHash,
};
use sparsegossip_core::{
    Broadcast, ExchangeCtx, Gossip, NullObserver, Process, SimConfig, SimScratch, Simulation,
    WorldContact,
};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_walks::WalkEngine;

use crate::layers::{LayerCounts, LayerTimes};
use crate::stats::{now, ns_between, Latencies};

/// The process a simulation case runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    /// Single-rumor broadcast: the driver takes the frontier-sparse
    /// path.
    Broadcast,
    /// All-to-all gossip with distinct rumors: the driver takes the
    /// full-partition path.
    Gossip,
}

/// One generated simulation input: a process and its validated
/// configuration (default step cap).
#[derive(Clone, Copy, Debug)]
pub struct SimCase {
    /// The process.
    pub kind: SimKind,
    /// Its configuration.
    pub config: SimConfig,
}

impl SimCase {
    /// The case of `kind` at the given sizes.
    ///
    /// # Panics
    ///
    /// Panics if the sizes are invalid; the workloads use fixed valid
    /// sizes.
    #[must_use]
    pub fn new(kind: SimKind, side: u32, k: usize, radius: u32) -> Self {
        let config = SimConfig::builder(side, k)
            .radius(radius)
            .build()
            .expect("workload sizes are valid");
        Self { kind, config }
    }
}

/// The cases of `broadcast_sparse`: side 512, k 512, r = 0 and
/// r = 11 = ⌊r_c/2⌋, so the pair shows `T_B`'s independence from r.
#[must_use]
pub fn broadcast_sparse_cases() -> Vec<SimCase> {
    vec![
        SimCase::new(SimKind::Broadcast, 512, 512, 0),
        SimCase::new(SimKind::Broadcast, 512, 512, 11),
    ]
}

/// The cases of `gossip_full`: side 256, k 256, r = 1 (hash rebuild
/// dominates) and r = 8 (labelling dominates).
#[must_use]
pub fn gossip_full_cases() -> Vec<SimCase> {
    vec![
        SimCase::new(SimKind::Gossip, 256, 256, 1),
        SimCase::new(SimKind::Gossip, 256, 256, 8),
    ]
}

/// What one run produced, as the checks and the digest need it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunOutcome {
    /// Walk steps taken.
    pub steps: u64,
    /// The completion time (`T_B`, `T_G` or the twin's completion
    /// tick), or `None` if the run hit its step cap: a censored run.
    pub completion: Option<u64>,
}

/// Builds `case`'s simulation on a fresh scratch and takes one step:
/// the set-up a run pays before its steady state. Returns the time.
#[must_use]
pub fn set_up(case: &SimCase, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    match case.kind {
        SimKind::Broadcast => {
            let mut sim = Simulation::broadcast(&case.config, &mut rng).expect("validated config");
            let _ = sim.step(&mut rng, &mut NullObserver);
            sim.time()
        }
        SimKind::Gossip => {
            let mut sim = Simulation::gossip(&case.config, &mut rng).expect("validated config");
            let _ = sim.step(&mut rng, &mut NullObserver);
            sim.time()
        }
    }
}

/// Runs `case` with RNG seed `seed` to completion or its cap through
/// `Simulation::step`, as `Simulation::run` does, appending the latency
/// of every step call (ns) to `latencies`. `scratch` is recycled across
/// runs, as the sweep engine recycles it.
pub fn run_untraced(
    case: &SimCase,
    seed: u64,
    scratch: &mut SimScratch,
    latencies: &mut Latencies,
) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    match case.kind {
        SimKind::Broadcast => {
            let mut sim =
                Simulation::broadcast_with_scratch(&case.config, &mut rng, mem::take(scratch))
                    .expect("validated config");
            step_timed(&mut sim, &mut rng, latencies);
            let out = RunOutcome {
                steps: sim.time(),
                completion: sim.outcome().broadcast_time,
            };
            *scratch = sim.into_scratch();
            out
        }
        SimKind::Gossip => {
            let mut sim =
                Simulation::gossip_with_scratch(&case.config, &mut rng, mem::take(scratch))
                    .expect("validated config");
            step_timed(&mut sim, &mut rng, latencies);
            let out = RunOutcome {
                steps: sim.time(),
                completion: sim.outcome().gossip_time,
            };
            *scratch = sim.into_scratch();
            out
        }
    }
}

/// Steps `sim` to completion or its cap, timing each `step` call.
pub fn step_timed<P: Process>(
    sim: &mut Simulation<P, Grid>,
    rng: &mut SmallRng,
    latencies: &mut Latencies,
) {
    while !sim.is_complete() && sim.time() < sim.max_steps() {
        let t = now();
        let _ = sim.step(rng, &mut NullObserver);
        latencies.record(ns_between(t, now()));
    }
}

/// Reusable buffers of the traced replay, recycled across runs like a
/// `SimScratch`.
#[derive(Debug, Default)]
pub struct TraceScratch {
    hash: SpatialHash,
    seeded: SeededScratch,
    comps: ComponentsScratch,
    moves: Vec<(u32, Point, Point)>,
    before: Vec<Point>,
}

/// Replays the run of [`run_untraced`] layer by layer, adding each
/// layer's busy time to `times` and its work to `counts`. The outcome
/// is identical to the untraced run's.
pub fn run_traced(
    case: &SimCase,
    seed: u64,
    ts: &mut TraceScratch,
    times: &mut LayerTimes,
    counts: &mut LayerCounts,
) -> RunOutcome {
    match case.kind {
        SimKind::Broadcast => trace_broadcast(&case.config, seed, ts, times, counts),
        SimKind::Gossip => trace_gossip(&case.config, seed, ts, times, counts),
    }
}

/// `Simulation::step` on the frontier-sparse path: logged walk step,
/// incremental hash maintenance, labelling from the informed agents.
fn trace_broadcast(
    config: &SimConfig,
    seed: u64,
    ts: &mut TraceScratch,
    times: &mut LayerTimes,
    counts: &mut LayerCounts,
) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let grid = Grid::new(config.side()).expect("validated config");
    let mut process = Broadcast::from_config(config).expect("validated config");
    let mut engine = WalkEngine::uniform(grid, config.k(), &mut rng).expect("validated config");
    let (side, radius) = (config.side(), config.radius());
    let contact = WorldContact::new(radius, None, None);

    // Step 0: the placement exchange labels over a freshly built hash,
    // which the later steps then maintain.
    let start = now();
    ts.hash.rebuild(engine.positions(), radius, side);
    let t1 = now();
    let comps = components_from_seeds_on_by(
        &ts.hash,
        &mut ts.seeded,
        engine.positions(),
        process.informed_set(),
        &contact,
    );
    let t2 = now();
    let ctx = ExchangeCtx {
        time: 0,
        side,
        radius,
        positions: engine.positions(),
        components: comps,
    };
    let mut done = process.on_placement(ctx).is_break();
    let t3 = now();
    times.hash += ns_between(start, t1);
    times.label += ns_between(t1, t2);
    times.exchange += ns_between(t2, t3);
    times.total += ns_between(start, t3);
    counts.add_components(comps);

    while !done && engine.time() < config.max_steps() {
        let t0 = now();
        engine.step_all_into(&mut rng, &mut ts.moves);
        let t1 = now();
        ts.hash.apply_moves(&ts.moves);
        let t2 = now();
        let comps = components_from_seeds_on_by(
            &ts.hash,
            &mut ts.seeded,
            engine.positions(),
            process.informed_set(),
            &contact,
        );
        let t3 = now();
        let ctx = ExchangeCtx {
            time: engine.time(),
            side,
            radius,
            positions: engine.positions(),
            components: comps,
        };
        done = process.exchange(ctx).is_break();
        let t4 = now();
        times.walk += ns_between(t0, t1);
        times.hash += ns_between(t1, t2);
        times.label += ns_between(t2, t3);
        times.exchange += ns_between(t3, t4);
        times.total += ns_between(t0, t4);
        counts.add_components(comps);
        counts.moved += ts.moves.len() as u64;
        let hash = &ts.hash;
        counts.crossings += ts
            .moves
            .iter()
            .filter(|(_, from, to)| hash.bucket_of(*from) != hash.bucket_of(*to))
            .count() as u64;
    }
    counts.add_run(config.k(), engine.time());
    counts.add_hash(&ts.hash, config.k(), engine.time() > 0);
    RunOutcome {
        steps: engine.time(),
        completion: process.outcome(engine.time()).broadcast_time,
    }
}

/// `Simulation::step` on the full-partition path: plain walk step, hash
/// rebuild, union–find labelling of every agent.
fn trace_gossip(
    config: &SimConfig,
    seed: u64,
    ts: &mut TraceScratch,
    times: &mut LayerTimes,
    counts: &mut LayerCounts,
) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let grid = Grid::new(config.side()).expect("validated config");
    let mut process = Gossip::distinct(config.k()).expect("validated config");
    let mut engine = WalkEngine::uniform(grid, config.k(), &mut rng).expect("validated config");
    let (side, radius) = (config.side(), config.radius());
    let contact = WorldContact::new(radius, None, None);

    // `components_into_by` is exactly `rebuild` + `components_on_by`;
    // calling the two separately splits its time between the layers.
    let start = now();
    ts.hash.rebuild(engine.positions(), radius, side);
    let t1 = now();
    let comps = components_on_by(&ts.hash, &mut ts.comps, engine.positions(), &contact);
    let t2 = now();
    let ctx = ExchangeCtx {
        time: 0,
        side,
        radius,
        positions: engine.positions(),
        components: comps,
    };
    let mut done = process.on_placement(ctx).is_break();
    let t3 = now();
    times.hash += ns_between(start, t1);
    times.label += ns_between(t1, t2);
    times.exchange += ns_between(t2, t3);
    times.total += ns_between(start, t3);
    counts.add_components(comps);

    while !done && engine.time() < config.max_steps() {
        ts.before.clear();
        ts.before.extend_from_slice(engine.positions());
        let t0 = now();
        engine.step_all(&mut rng);
        let t1 = now();
        ts.hash.rebuild(engine.positions(), radius, side);
        let t2 = now();
        let comps = components_on_by(&ts.hash, &mut ts.comps, engine.positions(), &contact);
        let t3 = now();
        let ctx = ExchangeCtx {
            time: engine.time(),
            side,
            radius,
            positions: engine.positions(),
            components: comps,
        };
        done = process.exchange(ctx).is_break();
        let t4 = now();
        times.walk += ns_between(t0, t1);
        times.hash += ns_between(t1, t2);
        times.label += ns_between(t2, t3);
        times.exchange += ns_between(t3, t4);
        times.total += ns_between(t0, t4);
        counts.add_components(comps);
        let hash = &ts.hash;
        for (from, to) in ts.before.iter().zip(engine.positions()) {
            if from != to {
                counts.moved += 1;
                counts.crossings += u64::from(hash.bucket_of(*from) != hash.bucket_of(*to));
            }
        }
    }
    counts.add_run(config.k(), engine.time());
    counts.add_hash(&ts.hash, config.k(), false);
    RunOutcome {
        steps: engine.time(),
        completion: process.outcome(engine.time()).gossip_time,
    }
}
