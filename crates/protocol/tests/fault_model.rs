//! Fault-model properties: injected faults must degrade the protocol in
//! the physically sensible direction, deterministically.
//!
//! * partition length is *pointwise* monotone: on an uncapped ideal
//!   network the run is a pure function of the trajectory and the
//!   blocked edge set, and a longer window (same start, same hash side
//!   assignment) blocks a superset of deliveries — completion can only
//!   move later;
//! * crash probability is monotone *in the median* over a fixed seed
//!   ensemble (per-seed coupling breaks down because crash draws and
//!   message draws share the node streams and diverge after the first
//!   differing crash);
//! * the fault layer's zero-cost contract at the outcome level: a
//!   trivial `FaultConfig` reproduces the fault-free twin's event-log
//!   hash exactly (the byte-level golden lives in `event_log_golden`).
//! * a fault storm (loss, delay, crashes, a partition and full
//!   recovery at once) completes on the same tick with the same
//!   event-log hash on every rerun.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_core::{
    FaultConfig, NetworkConfig, ProtocolBroadcast, ProtocolOutcome, SimConfig, Simulation,
};
use sparsegossip_grid::Grid;

/// Runs the twin once with the given fault axes and returns the
/// outcome; `cap` bounds the run.
fn run_faulty(
    side: u32,
    k: usize,
    radius: u32,
    faults: &FaultConfig,
    seed: u64,
    cap: u64,
) -> ProtocolOutcome {
    let config = SimConfig::builder(side, k)
        .radius(radius)
        .max_steps(cap)
        .build()
        .expect("valid test configuration");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::protocol_broadcast_with_faults_with_scratch(
        &config,
        NetworkConfig::IDEAL,
        faults,
        seed,
        &mut rng,
        sparsegossip_core::SimScratch::new(),
    )
    .expect("valid faulty twin");
    sim.run(&mut rng)
}

/// Completion tick, with capped (incomplete) runs counted as `cap`.
fn completion_or_cap(out: &ProtocolOutcome, cap: u64) -> u64 {
    out.completion_time.unwrap_or(cap)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Pointwise partition monotonicity: with every other axis ideal
    /// the run is deterministic given the trajectory, and a longer
    /// window with the same start blocks a superset of cross-side
    /// deliveries, so completion is monotone non-decreasing in the
    /// window length — seed for seed, not just on average.
    #[test]
    fn completion_is_pointwise_monotone_in_partition_length(
        side in 6u32..=16,
        k in 3usize..=8,
        radius in 1u32..=4,
        seed in any::<u64>(),
        start in 0u64..=4,
        len_a in 0u64..=12,
        extra in 1u64..=12,
    ) {
        let cap = 600;
        let window = |len: u64| FaultConfig {
            partition_start: start,
            partition_len: len,
            ..FaultConfig::DEFAULT
        };
        let short = run_faulty(side, k, radius, &window(len_a), seed, cap);
        let long = run_faulty(side, k, radius, &window(len_a + extra), seed, cap);
        prop_assert!(
            completion_or_cap(&short, cap) <= completion_or_cap(&long, cap),
            "side={} k={} r={} seed={} window=[{}+{}] vs [{}+{}]: {:?} then {:?}",
            side, k, radius, seed, start, len_a, start, len_a + extra,
            short.completion_time, long.completion_time
        );
    }

    /// Median crash monotonicity: across a fixed seed ensemble the
    /// median completion tick must not *decrease* as the crash
    /// probability rises (recovery on, so heavily crashed runs still
    /// finish instead of saturating at the cap).
    #[test]
    fn median_completion_is_monotone_in_crash_probability(base in 0u64..1024) {
        let cap = 2500;
        let seeds: Vec<u64> = (0..9).map(|i| base * 1000 + i).collect();
        let median_for = |crash: f64| -> u64 {
            let faults = FaultConfig {
                crash_prob: crash,
                restart_delay: 2,
                retransmit: true,
                anti_entropy_interval: 1,
                ..FaultConfig::DEFAULT
            };
            let mut ticks: Vec<u64> = seeds
                .iter()
                .map(|&s| completion_or_cap(&run_faulty(12, 6, 5, &faults, s, cap), cap))
                .collect();
            ticks.sort_unstable();
            ticks[ticks.len() / 2]
        };
        let medians: Vec<u64> = [0.0, 0.1, 0.35].map(median_for).to_vec();
        for pair in medians.windows(2) {
            prop_assert!(
                pair[0] <= pair[1],
                "base={}: median completion sped up with more crashes: {:?}",
                base, medians
            );
        }
    }
}

#[test]
fn trivial_fault_config_is_outcome_identical_to_the_plain_twin() {
    let config = SimConfig::builder(12, 6)
        .radius(3)
        .max_steps(500)
        .build()
        .expect("valid test configuration");
    for seed in [1u64, 7, 2011] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let plain = Simulation::protocol_broadcast(&config, NetworkConfig::IDEAL, seed, &mut rng)
            .expect("valid twin")
            .run(&mut rng);
        let trivial = run_faulty(12, 6, 3, &FaultConfig::DEFAULT, seed, 500);
        assert_eq!(
            trivial, plain,
            "seed {seed}: trivial faults changed the run"
        );
        assert_eq!(
            trivial.log_hash, plain.log_hash,
            "seed {seed}: trivial faults changed the event-log hash"
        );
    }
}

#[test]
fn heavy_crashes_slow_but_recovery_still_completes() {
    // One deterministic anchor alongside the proptests: a hard crash
    // regime with full recovery completes, and strictly later than the
    // crash-free run on at least one seed of the ensemble.
    let cap = 2500;
    let crashed = FaultConfig {
        crash_prob: 0.3,
        restart_delay: 2,
        retransmit: true,
        anti_entropy_interval: 1,
        ..FaultConfig::DEFAULT
    };
    let mut any_slower = false;
    let mut total_crashes = 0;
    for seed in 1u64..=9 {
        let ideal = run_faulty(12, 6, 5, &FaultConfig::DEFAULT, seed, cap);
        let hit = run_faulty(12, 6, 5, &crashed, seed, cap);
        assert!(
            hit.completion_time.is_some(),
            "seed {seed}: recovery failed to complete under crashes"
        );
        total_crashes += hit.stats.crashes;
        any_slower |= completion_or_cap(&hit, cap) > completion_or_cap(&ideal, cap);
    }
    // A run finishing at tick 0 can legitimately see zero crashes
    // (placement already connects everyone); the ensemble cannot.
    assert!(
        total_crashes > 0,
        "no crash was injected across the ensemble"
    );
    assert!(any_slower, "a 30% crash rate never slowed any run");
}

#[test]
fn fault_storm_is_identical_across_reruns() {
    // Drop 0.3, delay 1-2, interval 2, crash 0.05 with restart after 2,
    // a partition over [5, 20), retransmission and anti-entropy every 2
    // ticks. The pinned tick and hash are those of the seed-2011 run.
    let config = SimConfig::builder(16, 8)
        .radius(6)
        .max_steps(5_000)
        .build()
        .expect("valid storm configuration");
    let net = NetworkConfig::new(0.3, 1, 2, 2).expect("valid lossy network");
    let storm = FaultConfig {
        crash_prob: 0.05,
        restart_delay: 2,
        partition_start: 5,
        partition_len: 15,
        retransmit: true,
        anti_entropy_interval: 2,
    };
    let seed = 2011;
    for rerun in 0..2 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let process = ProtocolBroadcast::from_config(&config, net, seed)
            .expect("valid twin process")
            .faults(storm.to_plan())
            .recovery(storm.to_recovery());
        let out = Simulation::new(
            Grid::new(config.side()).expect("valid grid"),
            config.k(),
            config.radius(),
            config.max_steps(),
            process,
            &mut rng,
        )
        .expect("constructible twin")
        .run(&mut rng);
        assert_eq!(
            (out.completion_time, out.log_hash),
            (Some(20), 0xb005_5bfe_c96f_d4ed),
            "rerun={rerun}"
        );
    }
}
