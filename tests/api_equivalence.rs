//! Seed-for-seed equivalence of the `Process`/`Simulation` driver
//! with the per-process structs it replaced.
//!
//! The golden values below were captured by running the pre-redesign
//! implementations (`BroadcastSim`, `GossipSim`, `InfectionSim::run`,
//! `broadcast_with_coverage`, `PredatorPreySim` as of commit c41cceb)
//! with the exact seeds and configurations listed. Those structs are
//! gone; the driver must still reproduce every outcome byte for byte:
//! same RNG draw order, same exchange semantics, same completion
//! bookkeeping.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip::core::MinRumorsCurve;
use sparsegossip::prelude::*;

/// Golden broadcast times from the pre-redesign `BroadcastSim`:
/// `(side, k, r, seed, T_B)`.
const GOLDEN_BROADCAST: &[(u32, usize, u32, u64, u64)] = &[
    (24, 12, 0, 1, 868),
    (24, 12, 0, 2, 914),
    (24, 12, 0, 3, 558),
    (24, 12, 2, 1, 199),
    (24, 12, 2, 2, 323),
    (24, 12, 2, 3, 366),
    (32, 16, 5, 1, 274),
    (32, 16, 5, 2, 266),
    (32, 16, 5, 3, 337),
];

#[test]
fn simulation_broadcast_reproduces_pre_redesign_outcomes() {
    for &(side, k, r, seed, tb) in GOLDEN_BROADCAST {
        let cfg = SimConfig::builder(side, k).radius(r).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert_eq!(
            out.broadcast_time,
            Some(tb),
            "side={side} k={k} r={r} seed={seed}"
        );
        assert_eq!(out.informed, k);
    }
}

#[test]
fn one_hop_exchange_reproduces_pre_redesign_outcomes() {
    // Pre-redesign `BroadcastSim` with `ExchangeRule::OneHop`, side 24,
    // k 12, r 1: seeds 1 and 2 gave 741 and 388.
    for (seed, tb) in [(1u64, 741u64), (2, 388)] {
        let cfg = SimConfig::builder(24, 12)
            .radius(1)
            .exchange_rule(ExchangeRule::OneHop)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        assert_eq!(sim.run(&mut rng).broadcast_time, Some(tb), "seed={seed}");
    }
}

#[test]
fn frog_model_reproduces_pre_redesign_outcomes() {
    // Pre-redesign `FrogSim`, side 16, k 8, r 0.
    for (seed, tb) in [(1u64, 892u64), (2, 506)] {
        let cfg = SimConfig::builder(16, 8).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::frog(&cfg, &mut rng).unwrap();
        assert_eq!(sim.run(&mut rng).broadcast_time, Some(tb), "seed={seed}");
    }
}

#[test]
fn from_positions_reproduces_pre_redesign_outcome() {
    // Pre-redesign `BroadcastSim::from_positions` on a 32-grid cross
    // layout, cap 100_000, seed 9: T_B = 1644.
    let g = Grid::new(32).unwrap();
    let positions = vec![
        Point::new(0, 16),
        Point::new(31, 16),
        Point::new(16, 0),
        Point::new(16, 31),
    ];
    let process = Broadcast::new(positions.len(), 0).unwrap();
    let mut sim = Simulation::from_positions(g, positions, 0, 100_000, process).unwrap();
    let mut rng = SmallRng::seed_from_u64(9);
    assert_eq!(sim.run(&mut rng).broadcast_time, Some(1644));
}

#[test]
fn simulation_gossip_reproduces_pre_redesign_outcomes() {
    // Pre-redesign `GossipSim`, side 16, k 6, r 0.
    for (seed, tg) in [(1u64, 459u64), (2, 326)] {
        let cfg = SimConfig::builder(16, 6).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert_eq!(out.gossip_time, Some(tg), "seed={seed}");
        assert_eq!(out.min_rumors, 6);
    }
    // Partial rumors: `GossipSim::with_rumors(grid12, 6, 2, 0, …)`.
    for (seed, tg) in [(5u64, 162u64), (6, 197)] {
        let g = Grid::new(12).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let process = Gossip::with_rumors(6, 2).unwrap();
        let mut sim = Simulation::new(g, 6, 0, 1_000_000, process, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert_eq!(out.gossip_time, Some(tg), "seed={seed}");
        assert_eq!(out.num_rumors, 2);
    }
}

#[test]
fn infection_reproduces_pre_redesign_outcomes() {
    // Pre-redesign static `InfectionSim::run`, side 16, k 6: total
    // time, mean and the per-agent sum must all match.
    for (seed, t, sum) in [(1u64, 459u64, 1210u64), (2, 326, 947)] {
        let cfg = SimConfig::builder(16, 6).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::infection(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert_eq!(out.infection_time, Some(t), "seed={seed}");
        let got: u64 = out.per_agent.iter().map(|x| x.unwrap()).sum();
        assert_eq!(got, sum, "per-agent sum diverged at seed={seed}");
        assert!((out.mean_time.unwrap() - sum as f64 / 6.0).abs() < 1e-12);
    }
}

#[test]
fn coverage_reproduces_pre_redesign_outcomes() {
    // Pre-redesign `broadcast_with_coverage`, side 12, k 8, r 0.
    for (seed, tb, tc) in [(1u64, 171u64, 355u64), (2, 158, 359)] {
        let cfg = SimConfig::builder(12, 8).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let out = Simulation::coverage(&cfg, &mut rng).unwrap().run(&mut rng);
        assert_eq!(out.broadcast_time, Some(tb), "seed={seed}");
        assert_eq!(out.coverage_time, Some(tc), "seed={seed}");
        assert_eq!(out.covered, 144);
    }
}

#[test]
fn predator_prey_reproduces_pre_redesign_outcomes() {
    // Pre-redesign `PredatorPreySim::on_grid(12, 6, 4, 1, mobile, …)`.
    for (mobile, seed, ext) in [(true, 1u64, 28u64), (true, 2, 18), (false, 3, 32)] {
        let grid = Grid::new(12).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let process = PredatorPrey::uniform(&grid, 4, 1, mobile, &mut rng).unwrap();
        let mut sim = Simulation::new(grid, 6, 1, 2_000_000, process, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert_eq!(
            out.extinction_time,
            Some(ext),
            "mobile={mobile} seed={seed}"
        );
        assert_eq!(out.survivors, 0);
    }
}

#[test]
fn config_constructors_agree_pathwise_with_the_generic_driver() {
    // `Simulation::{broadcast, gossip}` only unpack a `SimConfig` into
    // `Simulation::new`: same draws, same outcomes, any seed.
    for seed in 100..108u64 {
        let cfg = SimConfig::builder(20, 10)
            .radius(1)
            .source(3)
            .build()
            .unwrap();
        let grid = || Grid::new(cfg.side()).unwrap();

        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut named = Simulation::broadcast(&cfg, &mut rng_a).unwrap();
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let process = Broadcast::new(cfg.k(), cfg.source()).unwrap();
        let mut generic = Simulation::new(
            grid(),
            cfg.k(),
            cfg.radius(),
            cfg.max_steps(),
            process,
            &mut rng_b,
        )
        .unwrap();
        assert_eq!(named.run(&mut rng_a), generic.run(&mut rng_b), "broadcast");

        let mut rng_a = SmallRng::seed_from_u64(seed);
        let mut named = Simulation::gossip(&cfg, &mut rng_a).unwrap();
        let mut rng_b = SmallRng::seed_from_u64(seed);
        let process = Gossip::distinct(cfg.k()).unwrap();
        let mut generic = Simulation::new(
            grid(),
            cfg.k(),
            cfg.radius(),
            cfg.max_steps(),
            process,
            &mut rng_b,
        )
        .unwrap();
        assert_eq!(named.run(&mut rng_a), generic.run(&mut rng_b), "gossip");
    }
}

#[test]
fn gossip_observer_runs_do_not_perturb_outcomes() {
    // Observer hooks are read-only: a run with the min-rumors recorder
    // must equal the unobserved run draw for draw.
    let cfg = SimConfig::builder(16, 6).radius(0).build().unwrap();
    let mut rng_a = SmallRng::seed_from_u64(77);
    let mut plain = Simulation::gossip(&cfg, &mut rng_a).unwrap();
    let out_plain = plain.run(&mut rng_a);
    let mut rng_b = SmallRng::seed_from_u64(77);
    let mut observed = Simulation::gossip(&cfg, &mut rng_b).unwrap();
    let mut curve = MinRumorsCurve::new();
    let out_observed = observed.run_with(&mut rng_b, &mut curve);
    assert_eq!(out_plain, out_observed);
    assert_eq!(
        curve.counts().len() as u64,
        out_observed.gossip_time.unwrap()
    );
}

#[test]
fn runner_executes_a_32_seed_broadcast_sweep_deterministically() {
    // Acceptance: a ≥32-seed broadcast ensemble through the parallel
    // path with deterministic aggregate output.
    let cfg = SimConfig::builder(20, 10).radius(0).build().unwrap();
    let measure = |seed: u64| {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).expect("valid config");
        sim.run(&mut rng).broadcast_time.expect("completes") as f64
    };
    let parallel = Runner::new(2011)
        .repetitions(32)
        .threads(8)
        .measure(measure);
    let serial = Runner::new(2011)
        .repetitions(32)
        .threads(1)
        .measure(measure);
    assert_eq!(parallel.samples.len(), 32);
    assert_eq!(parallel.samples, serial.samples);
    assert_eq!(parallel.summary, serial.summary);
    assert!(parallel.summary.mean() > 0.0);
    // The aggregate renders into the existing table type.
    let table = parallel.table("T_B");
    assert_eq!(table.len(), 32);
}
