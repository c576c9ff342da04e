//! Smaller-side frontier seeding: `Broadcast` labels from the informed
//! agents while they are at most half of `k`, and from the uninformed
//! agents after that.
//!
//! The frontier path (`NullObserver`, seed-restricted labelling over a
//! hash rebuilt each step) must stay step-for-step identical to the full path
//! (an observer that demands the whole partition) for `Broadcast`,
//! `Infection` and the Frog configuration, across multi-source starts,
//! churn and speed classes, and for `Broadcast` and Frog also across
//! city-block walls and heterogeneous radii. The seed-pure work counts
//! pin how many agents the frontier path labels, for broadcast to `T_B`
//! and over a window of a sub-critical Frog run.

use core::ops::ControlFlow;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_conngraph::{components_from_seeds_on_by, SeededScratch, SpatialHash};
use sparsegossip_conngraph::{Components, UniformContact};
use sparsegossip_core::{
    Broadcast, ComponentsScope, Infection, Mobility, NullObserver, Observer, Process, SimConfig,
    SimScratch, Simulation, StepContext, WorldConfig, WorldGrid,
};
use sparsegossip_walks::BitSet;

/// Step cap of the lockstep runs; churned runs may never complete.
const MAX_STEPS: u64 = 120;

/// Demands the full partition, forcing the driver's full path.
struct FullView;

impl Observer for FullView {
    fn on_step(&mut self, _ctx: StepContext<'_>) {}
}

#[derive(Clone, Copy, Debug)]
enum Kind {
    Broadcast,
    Infection,
    Frog,
}

/// One world: grid, agents, radius, multi-source prefix, churn, speeds,
/// walls and heterogeneous radii.
#[derive(Clone, Copy, Debug)]
struct Case {
    kind: Kind,
    side: u32,
    k: usize,
    radius: u32,
    sources: usize,
    churn_rate: f64,
    speed_fraction: f64,
    speed_factor: u32,
    barrier_density: f64,
    hetero_fraction: f64,
    hetero_factor: f64,
    seed: u64,
}

impl Case {
    fn world(&self) -> WorldConfig {
        WorldConfig {
            churn_rate: self.churn_rate,
            speed_fraction: self.speed_fraction,
            speed_factor: self.speed_factor,
            barrier_density: self.barrier_density,
            hetero_fraction: self.hetero_fraction,
            hetero_factor: self.hetero_factor,
            num_sources: self.sources,
            ..WorldConfig::DEFAULT
        }
    }

    fn sim<P: Process>(&self, process: P, max_steps: u64) -> (Simulation<P, WorldGrid>, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(self.seed);
        let sim = Simulation::new_in_world_with_scratch(
            self.side,
            self.k,
            self.radius,
            max_steps,
            process,
            &self.world(),
            &mut rng,
            SimScratch::new(),
        )
        .unwrap();
        (sim, rng)
    }
}

/// How often the informed count crossed `k/2`, upwards and downwards.
#[derive(Clone, Copy, Debug, Default)]
struct Crossings {
    up: u32,
    down: u32,
}

/// Asserts that `scope` seeds from exactly the smaller side of the
/// informed split of `informed`.
fn assert_smaller_side(scope: ComponentsScope<'_>, informed: &BitSet) {
    let ComponentsScope::Seeded(seeds) = scope else {
        panic!("component broadcast must declare a seeded scope, got {scope:?}");
    };
    let k = informed.len();
    let count = informed.count_ones();
    let from_uninformed = 2 * count > k;
    for i in 0..k {
        assert_eq!(
            seeds.contains(i),
            informed.contains(i) != from_uninformed,
            "agent {i}: seeds are not the smaller side ({count}/{k} informed)"
        );
    }
}

/// Steps the frontier path and the full path in lockstep, comparing
/// flow, positions and informed sets after every step (and per-agent
/// infection times through `extra`), then the outcomes.
fn lockstep<P>(
    case: &Case,
    make: impl Fn() -> P,
    informed: impl Fn(&P) -> &BitSet,
    extra: impl Fn(&P, &P),
) -> Crossings
where
    P: Process,
    P::Outcome: PartialEq + core::fmt::Debug,
{
    let (mut sparse, mut rng_s) = case.sim(make(), MAX_STEPS);
    let (mut full, mut rng_f) = case.sim(make(), MAX_STEPS);
    let mut crossings = Crossings::default();
    let mut above = 2 * informed(sparse.process()).count_ones() > case.k;
    assert_smaller_side(
        sparse.process().components_scope(),
        informed(sparse.process()),
    );
    while !sparse.is_complete() && sparse.time() < MAX_STEPS {
        let a = sparse.step(&mut rng_s, &mut NullObserver);
        let b = full.step(&mut rng_f, &mut FullView);
        assert_eq!(a, b, "{case:?}: flow at t={}", sparse.time());
        assert_eq!(sparse.positions(), full.positions(), "{case:?}");
        let (si, fi) = (informed(sparse.process()), informed(full.process()));
        assert_eq!(si, fi, "{case:?}: informed set at t={}", sparse.time());
        extra(sparse.process(), full.process());
        assert_smaller_side(sparse.process().components_scope(), si);
        let now_above = 2 * si.count_ones() > case.k;
        match (above, now_above) {
            (false, true) => crossings.up += 1,
            (true, false) => crossings.down += 1,
            _ => {}
        }
        above = now_above;
        if a == ControlFlow::Break(()) {
            break;
        }
    }
    assert_eq!(sparse.outcome(), full.outcome(), "{case:?}");
    crossings
}

fn run_case(case: &Case) -> Crossings {
    match case.kind {
        Kind::Broadcast => lockstep(
            case,
            || Broadcast::with_sources(case.k, case.sources).unwrap(),
            Broadcast::informed_set,
            |_, _| {},
        ),
        Kind::Frog => lockstep(
            case,
            || {
                Broadcast::with_sources(case.k, case.sources)
                    .unwrap()
                    .mobility(Mobility::InformedOnly)
            },
            Broadcast::informed_set,
            |_, _| {},
        ),
        Kind::Infection => lockstep(
            case,
            || Infection::with_sources(case.k, case.sources).unwrap(),
            infected,
            |s, f| assert_eq!(s.times(), f.times(), "{case:?}: infection times"),
        ),
    }
}

fn infected(p: &Infection) -> &BitSet {
    p.informed().expect("infection has an informed set")
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        (0usize..3, 0usize..3, 0usize..3),
        (0usize..3, 0usize..3),
        (6u32..20, 2usize..40, 0u32..4),
        (any::<u16>(), any::<bool>()),
        any::<u64>(),
    )
        .prop_map(
            |(
                (kind, churn, speeds),
                (walls, hetero),
                (side, k, radius),
                (pick, majority),
                seed,
            )| {
                let kind = [Kind::Broadcast, Kind::Infection, Kind::Frog][kind];
                let churn_rate = [0.0, 0.05, 0.3][churn];
                let speeds = [(0.0, 1), (0.5, 2), (0.25, 3)][speeds];
                // Walls and mixed radii are broadcast axes: infection
                // is contact-only in an open world.
                let (walls, hetero) = match kind {
                    Kind::Infection => (0, 0),
                    Kind::Broadcast | Kind::Frog => (walls, hetero),
                };
                let barrier_density = [0.0, 0.3, 0.9][walls];
                let hetero = [(0.0, 1.0), (0.5, 2.0), (0.25, 0.0)][hetero];
                // Half the cases start with more than k/2 sources, so
                // placement already labels from the uninformed side.
                let sources = if majority {
                    k / 2 + 1 + usize::from(pick) % (k - k / 2)
                } else {
                    1 + usize::from(pick) % k
                };
                Case {
                    kind,
                    side,
                    k,
                    radius,
                    sources: sources.min(k),
                    churn_rate,
                    speed_fraction: speeds.0,
                    speed_factor: speeds.1,
                    barrier_density,
                    hetero_fraction: hetero.0,
                    hetero_factor: hetero.1,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn frontier_path_matches_full_path_across_the_split(case in arb_case()) {
        let _ = run_case(&case);
    }
}

#[test]
fn churn_crosses_the_split_both_ways_and_stays_identical() {
    // Churn balances spreading here: the informed count oscillates
    // around k/2 (nine or more times each way at this seed), so the
    // seed side switches in both directions and `reset_agent` must keep
    // the complement in step.
    for kind in [Kind::Broadcast, Kind::Infection, Kind::Frog] {
        let case = Case {
            kind,
            side: 10,
            k: 24,
            radius: 1,
            sources: 1,
            churn_rate: 0.3,
            speed_fraction: 0.5,
            speed_factor: 2,
            barrier_density: 0.0,
            hetero_fraction: 0.0,
            hetero_factor: 1.0,
            seed: 7,
        };
        let crossings = run_case(&case);
        assert!(
            crossings.up >= 2 && crossings.down >= 2,
            "{kind:?}: crossings {crossings:?}"
        );
    }
}

/// Sums the agents covered by the labelling each step hands out; the
/// full partition only when `full` asks for it.
#[derive(Default)]
struct CoveredAgents {
    agents: u64,
    full: bool,
}

impl Observer for CoveredAgents {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        self.agents += covered(ctx.components);
    }

    fn wants_full_components(&self) -> bool {
        self.full
    }
}

fn covered(comps: &Components) -> u64 {
    (0..comps.count()).map(|c| comps.size(c) as u64).sum()
}

/// Runs one fixed-seed broadcast to `T_B` and returns the agents the
/// frontier path labelled over steps 1..=T_B, next to the agents an
/// informed-seeded labelling of the same steps covers.
fn work_counts(side: u32, k: usize, radius: u32, seed: u64) -> (u64, u64) {
    let config = SimConfig::builder(side, k).radius(radius).build().unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::broadcast(&config, &mut rng).unwrap();
    let mut observed = CoveredAgents::default();
    let mut replayed = 0;
    let mut hash = SpatialHash::default();
    let mut scratch = SeededScratch::new();
    let mut before = sim.process().informed_set().clone();
    while !sim.is_complete() {
        let flow = sim.step(&mut rng, &mut observed);
        // Without churn only the exchange writes the informed set, so
        // the pre-step snapshot is what the labelling would have seeded.
        hash.rebuild(sim.positions(), radius, side);
        let comps = components_from_seeds_on_by(
            &hash,
            &mut scratch,
            sim.positions(),
            &before,
            &UniformContact(radius),
        );
        replayed += covered(comps);
        before.copy_from(sim.process().informed_set());
        if flow == ControlFlow::Break(()) {
            break;
        }
    }
    assert!(sim.is_complete(), "side {side}, r {radius}: run was capped");
    (observed.agents, replayed)
}

#[test]
fn smaller_side_seeding_labels_fewer_agents() {
    // Seed-pure: the totals depend only on the seed, so they are pinned
    // exactly. A change to the work must update them on purpose.
    for (radius, pinned, pinned_informed_seeded) in [(0, 1_056, 2_495), (4, 17_069, 40_324)] {
        let (frontier, informed_seeded) = work_counts(128, 128, radius, 11);
        assert_eq!(frontier, pinned, "r {radius}: covered agents");
        assert_eq!(
            informed_seeded, pinned_informed_seeded,
            "r {radius}: replay"
        );
        assert!(
            frontier < informed_seeded,
            "r {radius}: {frontier} ≥ informed-seeded {informed_seeded}"
        );
    }
}

#[test]
fn frog_frontier_path_labels_at_most_half_the_full_path() {
    // The work behind the frontier path's speed: over a fixed window of
    // a sub-critical Frog run (only informed agents move), the frontier
    // path labels at most half the agents the full path labels. Both
    // paths follow one trajectory, so the totals are seed-pure and
    // pinned exactly; wall-clock speed is perfbench's to measure.
    const WINDOW: u64 = 300;
    let config = SimConfig::builder(128, 64).radius(8).build().unwrap();
    let labelled = |full: bool| {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sim = Simulation::frog(&config, &mut rng).unwrap();
        let mut observer = CoveredAgents { agents: 0, full };
        for _ in 0..WINDOW {
            let _ = sim.step(&mut rng, &mut observer);
        }
        assert!(!sim.is_complete(), "the window must stay sub-complete");
        observer.agents
    };
    let (frontier, full) = (labelled(false), labelled(true));
    assert_eq!((frontier, full), (639, 19_200), "covered agents");
    assert!(
        2 * frontier <= full,
        "frontier {frontier} > full {full} / 2"
    );
}
