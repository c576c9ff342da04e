//! Replay equivalence at tiny sizes: the traced drivers must reproduce
//! `Simulation::run` (broadcast on the frontier-sparse path, gossip on
//! the full-partition path) and the sweep's `run_seed` values (the
//! protocol twin) outcome for outcome, and their work counts must be
//! seed-pure. If `Simulation::step` changes, these fail before the
//! per-layer numbers drift.

use std::path::PathBuf;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::ScenarioSweep;
use sparsegossip_core::{ProcessKind, ScenarioSpec, SimScratch, Simulation};
use sparsegossip_perfbench::layers::{LayerCounts, LayerTimes};
use sparsegossip_perfbench::sim::{self, RunOutcome, SimCase, SimKind, TraceScratch};
use sparsegossip_perfbench::stats::Latencies;
use sparsegossip_perfbench::twin;

/// One traced run on a shared scratch, with its own counts.
fn traced(case: &SimCase, seed: u64, ts: &mut TraceScratch) -> (RunOutcome, LayerCounts) {
    let mut counts = LayerCounts::default();
    let out = sim::run_traced(case, seed, ts, &mut LayerTimes::default(), &mut counts);
    (out, counts)
}

/// `Simulation::run` of `case` from `seed`: completion time and steps.
fn reference(case: &SimCase, seed: u64) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    match case.kind {
        SimKind::Broadcast => {
            let mut sim = Simulation::broadcast(&case.config, &mut rng).unwrap();
            let completion = sim.run(&mut rng).broadcast_time;
            RunOutcome {
                steps: sim.time(),
                completion,
            }
        }
        SimKind::Gossip => {
            let mut sim = Simulation::gossip(&case.config, &mut rng).unwrap();
            let completion = sim.run(&mut rng).gossip_time;
            RunOutcome {
                steps: sim.time(),
                completion,
            }
        }
    }
}

fn check_sim_replay(cases: &[SimCase]) {
    // One scratch of each kind across every run, as the benchmark
    // recycles them: scratch reuse must not change outcomes.
    let mut ts = TraceScratch::default();
    let mut scratch = SimScratch::new();
    for case in cases {
        for seed in 0..6 {
            let expected = reference(case, seed);
            assert!(
                expected.completion.is_some(),
                "{case:?} seed {seed} censored"
            );
            let (got, counts) = traced(case, seed, &mut ts);
            assert_eq!(got, expected, "traced {case:?} seed {seed}");
            let (again, counts_again) = traced(case, seed, &mut ts);
            assert_eq!(again, expected);
            assert_eq!(counts, counts_again, "counts of {case:?} seed {seed}");
            assert_eq!(counts.steps, expected.steps);
            let mut latencies = Latencies::new();
            let untraced = sim::run_untraced(case, seed, &mut scratch, &mut latencies);
            assert_eq!(untraced, expected, "untraced {case:?} seed {seed}");
            assert_eq!(latencies.len(), expected.steps);
        }
    }
}

#[test]
fn broadcast_replay_matches_simulation_run() {
    check_sim_replay(&[
        SimCase::new(SimKind::Broadcast, 32, 16, 0),
        SimCase::new(SimKind::Broadcast, 32, 16, 2),
    ]);
}

#[test]
fn gossip_replay_matches_simulation_run() {
    check_sim_replay(&[
        SimCase::new(SimKind::Gossip, 24, 12, 0),
        SimCase::new(SimKind::Gossip, 24, 12, 3),
    ]);
}

#[test]
fn broadcast_counts_describe_the_frontier_path() {
    let case = SimCase::new(SimKind::Broadcast, 32, 16, 2);
    let (out, counts) = traced(&case, 3, &mut TraceScratch::default());
    assert_eq!(counts.runs, 1);
    assert_eq!(counts.agent_steps, 16 * out.steps);
    assert!(counts.crossings <= counts.moved && counts.moved <= counts.agent_steps);
    // Seed-restricted labelling covers at most every agent per call.
    assert!(counts.labelled <= 16 * (out.steps + 1));
    assert_eq!(counts.buckets, 16 * 16, "side-2 buckets on a side-32 grid");
}

#[test]
fn twin_replay_matches_the_sweep() {
    let base = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 8)
        .retransmit(true)
        .anti_entropy_interval(4)
        .build()
        .unwrap();
    let sweep = ScenarioSweep::new(base, 7)
        .radii(vec![1, 3])
        .drop_probs(vec![0.0, 0.3])
        .replicates(3)
        .threads(2);
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join(format!("perfbench-replay-{}.bin", std::process::id()));
    let round = twin::run_round(&sweep, &path).unwrap();
    std::fs::remove_file(&path).unwrap();
    assert!(round.resume_identical);
    assert_eq!(round.records, 12);
    assert_eq!(round.runs.len(), 12);

    let mut scratch = SimScratch::new();
    let mut before = Vec::new();
    for run in &round.runs {
        assert_eq!(run.spec.run_seed(run.seed).to_bits(), run.value.to_bits());
        assert!(run.completion().is_some(), "{run:?} censored");
        let mut counts = LayerCounts::default();
        let traced = twin::run_traced(
            &run.spec,
            run.seed,
            &mut before,
            &mut LayerTimes::default(),
            &mut counts,
        );
        assert_eq!(traced.completion, run.completion(), "traced {run:?}");
        assert_eq!(traced.steps, run.value as u64);
        assert_eq!(
            counts.ticks,
            traced.steps + 1,
            "placement tick plus one per step"
        );
        let mut again = LayerCounts::default();
        let _ = twin::run_traced(
            &run.spec,
            run.seed,
            &mut before,
            &mut LayerTimes::default(),
            &mut again,
        );
        assert_eq!(counts, again, "counts of {run:?}");
        let mut latencies = Latencies::new();
        let untraced = twin::run_untraced(&run.spec, run.seed, &mut scratch, &mut latencies);
        assert_eq!(untraced, traced, "untraced {run:?}");
    }
}
