//! A trivial world reproduces the plain constructors draw for draw.
//!
//! `ScenarioSpec::run_outcome` runs every kind but the protocol twin
//! through the world-aware constructor on a `WorldGrid`, trivial world
//! or not. That is only sound if a trivial world (the default, or
//! one whose declared axes change nothing) gives the same outcome as
//! `Simulation::broadcast`, `Simulation::frog`, `Simulation::gossip`,
//! `Simulation::infection` and `Simulation::coverage` for every seed;
//! this suite pins it, for the world constructors and for the spec run.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_core::{
    ExchangeRule, Infection, Mobility, ProcessKind, ScenarioOutcome, ScenarioSpec, SimConfig,
    SimScratch, Simulation, WorldConfig,
};

/// `(side, k, radius)`: dense and sparse, below and above `r_c`.
const GEOMETRIES: [(u32, usize, u32); 4] = [(12, 6, 0), (16, 8, 1), (20, 10, 2), (24, 4, 3)];

const SEEDS: u64 = 20;

/// The default world and two declared-but-inactive ones.
fn trivial_worlds() -> [WorldConfig; 3] {
    [
        WorldConfig::DEFAULT,
        WorldConfig {
            hetero_fraction: 0.5,
            ..WorldConfig::DEFAULT
        },
        WorldConfig {
            speed_fraction: 0.5,
            ..WorldConfig::DEFAULT
        },
    ]
}

#[test]
fn trivial_world_broadcast_matches_the_plain_constructors() {
    for (side, k, radius) in GEOMETRIES {
        for world in trivial_worlds() {
            for (mobility, exchange) in [
                (Mobility::All, ExchangeRule::Component),
                (Mobility::InformedOnly, ExchangeRule::Component),
                (Mobility::All, ExchangeRule::OneHop),
            ] {
                let spec = ScenarioSpec::builder(ProcessKind::Broadcast, side, k)
                    .radius(radius)
                    .mobility(mobility)
                    .exchange_rule(exchange)
                    .world(world)
                    .build()
                    .unwrap();
                assert!(spec.world().is_trivial());
                for seed in 0..SEEDS {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let world_out = Simulation::from_spec(&spec, &mut rng)
                        .unwrap()
                        .run(&mut rng);
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let plain_out = match mobility {
                        Mobility::All => Simulation::broadcast(spec.config(), &mut rng),
                        Mobility::InformedOnly => Simulation::frog(spec.config(), &mut rng),
                    }
                    .unwrap()
                    .run(&mut rng);
                    assert_eq!(
                        world_out, plain_out,
                        "side={side} k={k} r={radius} {mobility:?} {exchange:?} \
                         {world:?} seed={seed}"
                    );
                    assert_eq!(
                        spec.run_outcome(seed),
                        ScenarioOutcome::Broadcast(plain_out)
                    );
                }
            }
        }
    }
}

#[test]
fn trivial_world_infection_matches_the_plain_constructor() {
    for (side, k, _) in GEOMETRIES {
        for mobility in [Mobility::All, Mobility::InformedOnly] {
            let config = SimConfig::builder(side, k)
                .mobility(mobility)
                .build()
                .unwrap();
            for world in trivial_worlds() {
                let spec = ScenarioSpec::builder(ProcessKind::Infection, side, k)
                    .mobility(mobility)
                    .world(world)
                    .build()
                    .unwrap();
                for seed in 0..SEEDS {
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let world_out = Simulation::new_in_world_with_scratch(
                        side,
                        k,
                        0,
                        config.max_steps(),
                        Infection::new(k, 0).unwrap().mobility(mobility),
                        &world,
                        &mut rng,
                        SimScratch::new(),
                    )
                    .unwrap()
                    .run(&mut rng);
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let plain_out = Simulation::infection(&config, &mut rng)
                        .unwrap()
                        .run(&mut rng);
                    assert_eq!(
                        world_out, plain_out,
                        "side={side} k={k} {mobility:?} {world:?} seed={seed}"
                    );
                    assert_eq!(
                        spec.run_outcome(seed),
                        ScenarioOutcome::Infection(plain_out)
                    );
                }
            }
        }
    }
}

#[test]
fn gossip_and_coverage_specs_match_the_plain_constructors() {
    for (side, k, radius) in GEOMETRIES {
        let config = SimConfig::builder(side, k).radius(radius).build().unwrap();
        let spec = |kind| {
            ScenarioSpec::builder(kind, side, k)
                .radius(radius)
                .build()
                .unwrap()
        };
        let (gossip, coverage) = (spec(ProcessKind::Gossip), spec(ProcessKind::Coverage));
        for seed in 0..SEEDS {
            let mut rng = SmallRng::seed_from_u64(seed);
            let plain = Simulation::gossip(&config, &mut rng).unwrap().run(&mut rng);
            assert_eq!(
                gossip.run_outcome(seed),
                ScenarioOutcome::Gossip(plain),
                "gossip side={side} k={k} r={radius} seed={seed}"
            );
            let mut rng = SmallRng::seed_from_u64(seed);
            let plain = Simulation::coverage(&config, &mut rng)
                .unwrap()
                .run(&mut rng);
            assert_eq!(
                coverage.run_outcome(seed),
                ScenarioOutcome::Coverage(plain),
                "coverage side={side} k={k} r={radius} seed={seed}"
            );
        }
    }
}
