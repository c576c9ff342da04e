//! Contact-only labelling for `Gossip`: under `NullObserver` the driver
//! labels only the components of two or more agents, which must stay
//! step-for-step identical to the full path (an observer that demands
//! the whole partition) — every agent's rumor count, the completion
//! flag and the outcome — for full and partial rumor populations across
//! radii below and above the percolation point. The maintained
//! completion count, and the step's `Break`, must equal a brute-force
//! scan after every exchange. The same lockstep runs on worlds with
//! city-block walls and mixed contact radii, where the full path's
//! partition must also equal the brute-force referee at every step.

use core::ops::ControlFlow;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_conngraph::components_brute_by;
use sparsegossip_core::{
    Gossip, Observer, RumorSets, SimScratch, Simulation, StepContext, WorldConfig, WorldContact,
    WorldGrid,
};
use sparsegossip_grid::{Grid, Topology};

const SIDE: u32 = 32;
const K: usize = 16;
const MAX_STEPS: u64 = 4_000;
const RADII: [u32; 4] = [0, 1, 3, 8];

/// Demands the full partition, forcing the driver's full path.
struct FullView;

impl Observer for FullView {
    fn on_step(&mut self, _ctx: StepContext<'_>) {}
}

/// Demands the full partition, like [`FullView`], and checks it each
/// step against the brute-force referee under the world's radius, mixed
/// radii and walls.
struct RefereeView {
    radius: u32,
    radii: Option<Vec<u32>>,
    topology: WorldGrid,
}

impl Observer for RefereeView {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        let contact = WorldContact::new(
            self.radius,
            self.radii.as_deref(),
            self.topology.radio_walls(),
        );
        assert_eq!(
            ctx.components,
            &components_brute_by(ctx.positions, &contact, ctx.side),
            "full partition differs from brute force at t={}",
            ctx.time
        );
    }
}

/// Accepts a restricted partition, so gossip takes the contact-only
/// path; records whether a lone agent was ever labelled.
#[derive(Default)]
struct ContactView {
    saw_singleton: bool,
}

impl Observer for ContactView {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        self.saw_singleton |= ctx.components.iter().any(|m| m.len() < 2);
    }

    fn wants_full_components(&self) -> bool {
        false
    }
}

/// A named constructor of the gossip process under test.
type MakeGossip = (&'static str, fn() -> Gossip);

fn rumor_processes() -> [MakeGossip; 2] {
    [
        ("distinct", || Gossip::distinct(K).unwrap()),
        ("with_rumors", || Gossip::with_rumors(K, 5).unwrap()),
    ]
}

fn sim(process: Gossip, radius: u32, seed: u64) -> (Simulation<Gossip, Grid>, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sim = Simulation::new(
        Grid::new(SIDE).unwrap(),
        K,
        radius,
        MAX_STEPS,
        process,
        &mut rng,
    )
    .unwrap();
    (sim, rng)
}

fn world_sim(
    process: Gossip,
    radius: u32,
    world: &WorldConfig,
    seed: u64,
) -> (Simulation<Gossip, WorldGrid>, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let sim = Simulation::new_in_world_with_scratch(
        SIDE,
        K,
        radius,
        MAX_STEPS,
        process,
        world,
        &mut rng,
        SimScratch::new(),
    )
    .unwrap();
    (sim, rng)
}

fn counts(sets: &RumorSets) -> Vec<usize> {
    (0..sets.k()).map(|a| sets.count(a)).collect()
}

fn scanned_complete(sets: &RumorSets) -> bool {
    (0..sets.k()).all(|a| sets.count(a) == sets.num_rumors())
}

/// Steps the contact path (`contact`, under a [`ContactView`]) and the
/// full path (`full`, under `view`) in lockstep, comparing rumor counts,
/// completion and outcome before every step, and flow and positions
/// after it.
fn lockstep<T: Topology>(
    case: &str,
    (mut contact, mut rng_c): (Simulation<Gossip, T>, SmallRng),
    (mut full, mut rng_f): (Simulation<Gossip, T>, SmallRng),
    view: &mut impl Observer,
) {
    let mut contact_view = ContactView::default();
    loop {
        let (c, f) = (contact.process(), full.process());
        let (cs, fs) = (c.rumor_sets(), f.rumor_sets());
        assert_eq!(counts(cs), counts(fs), "{case} t={}", contact.time());
        assert_eq!(cs.all_complete(), fs.all_complete());
        assert_eq!(cs.all_complete(), scanned_complete(cs));
        assert_eq!(fs.all_complete(), scanned_complete(fs));
        assert_eq!(contact.outcome(), full.outcome());
        if contact.is_complete() || contact.time() >= MAX_STEPS {
            break;
        }
        let flow_c = contact.step(&mut rng_c, &mut contact_view);
        let flow_f = full.step(&mut rng_f, view);
        assert_eq!(flow_c, flow_f, "{case} t={}", contact.time());
        assert_eq!(
            flow_c == ControlFlow::Break(()),
            scanned_complete(contact.process().rumor_sets())
        );
        assert_eq!(contact.positions(), full.positions());
    }
    assert_eq!(contact.is_complete(), full.is_complete());
    assert!(
        !contact_view.saw_singleton,
        "{case}: a lone agent was labelled"
    );
}

#[test]
fn contact_path_matches_full_path_at_every_step() {
    for (name, make) in rumor_processes() {
        for r in RADII {
            let seed = 40 + u64::from(r);
            let case = format!("{name} r={r}");
            lockstep(
                &case,
                sim(make(), r, seed),
                sim(make(), r, seed),
                &mut FullView,
            );
        }
    }
}

#[test]
fn contact_path_matches_full_path_on_walled_and_mixed_radius_worlds() {
    // Churn stays out: `Gossip` cannot reset an agent.
    for barrier_density in [0.0, 0.3] {
        for (hetero_fraction, hetero_factor) in [(0.0, 1.0), (0.5, 2.0)] {
            let world = WorldConfig {
                barrier_density,
                hetero_fraction,
                hetero_factor,
                ..WorldConfig::DEFAULT
            };
            for (name, make) in rumor_processes() {
                for r in RADII {
                    let seed = 60 + u64::from(r);
                    let full = world_sim(make(), r, &world, seed);
                    let mut view = RefereeView {
                        radius: r,
                        radii: world.radii(K, r),
                        topology: full.0.topology().clone(),
                    };
                    let case =
                        format!("{name} r={r} walls {barrier_density} hetero {hetero_fraction}");
                    lockstep(&case, world_sim(make(), r, &world, seed), full, &mut view);
                }
            }
        }
    }
}

#[test]
fn run_matches_run_with_a_full_partition_observer() {
    for (name, make) in rumor_processes() {
        for r in RADII {
            for seed in 0..3u64 {
                let (mut plain, mut rng_p) = sim(make(), r, seed);
                let (mut full, mut rng_f) = sim(make(), r, seed);
                let out = plain.run(&mut rng_p);
                assert_eq!(
                    out,
                    full.run_with(&mut rng_f, &mut FullView),
                    "{name} r={r} seed={seed}"
                );
                assert_eq!(
                    out.completed(),
                    scanned_complete(plain.process().rumor_sets())
                );
                assert_eq!(
                    counts(plain.process().rumor_sets()),
                    counts(full.process().rumor_sets())
                );
            }
        }
    }
}
