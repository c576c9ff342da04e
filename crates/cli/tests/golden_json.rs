//! Golden-output tests for the CLI's `--json` mode: the exact bytes of
//! every run command's JSON line and of the `sweep` command's JSON
//! report are pinned here (with the text form of the spec-built run
//! commands), so downstream tooling can rely on the
//! schema (field names, ordering, null encoding) *and* on the seeded
//! draws staying draw-for-draw stable.
//!
//! If a change legitimately alters the simulation draws or the schema,
//! update these snapshots deliberately — that is the point of the test.

use std::process::Command;

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_sparsegossip"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.success(),
    )
}

fn assert_golden(args: &str, expected_stdout: &str) {
    let argv: Vec<&str> = args.split_whitespace().collect();
    let (stdout, stderr, ok) = run(&argv);
    assert!(ok, "`{args}` failed: {stderr}");
    assert_eq!(
        stdout, expected_stdout,
        "`{args}` drifted from its golden output"
    );
}

#[test]
fn broadcast_json_golden() {
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --json",
        "{\"process\":\"broadcast\",\"broadcast_time\":164,\"informed\":6,\"k\":6}\n",
    );
}

#[test]
fn broadcast_ensemble_json_golden() {
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --reps 3 --threads 2 --json",
        "{\"process\":\"broadcast\",\"reps\":3,\"mean\":303,\"median\":245,\"min\":142,\
         \"max\":522,\"samples\":[142,522,245]}\n",
    );
}

#[test]
fn broadcast_world_json_goldens() {
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --churn-rate 0.05 --json",
        "{\"process\":\"broadcast\",\"broadcast_time\":13453,\"informed\":6,\"k\":6}\n",
    );
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --churn-rate 0.05 --reps 3 --threads 2 --json",
        "{\"process\":\"broadcast\",\"reps\":3,\"mean\":22204,\"median\":21888,\
         \"min\":15577,\"max\":29147,\"samples\":[21888,29147,15577]}\n",
    );
}

#[test]
fn broadcast_frog_and_one_hop_json_goldens() {
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --frog --json",
        "{\"process\":\"broadcast\",\"broadcast_time\":654,\"informed\":6,\"k\":6}\n",
    );
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --one-hop --radius 1 --json",
        "{\"process\":\"broadcast\",\"broadcast_time\":52,\"informed\":6,\"k\":6}\n",
    );
}

/// The human-readable forms: the run header carries a `world: …`
/// suffix only when a world axis is active.
#[test]
fn run_command_text_goldens() {
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1",
        "n = 144, k = 6, r = 0 (r_c = 4.9), seed = 1\nT_B = 164 (6/6 informed)\n",
    );
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --churn-rate 0.05",
        "n = 144, k = 6, r = 0 (r_c = 4.9), seed = 1, world: churn 0.050\n\
         T_B = 13453 (6/6 informed)\n",
    );
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --reps 3 --threads 2",
        "n = 144, k = 6, r = 0 (r_c = 4.9), master seed = 1, 3 seeds\n\
         T_B: mean 303.0, median 245.0, min 142, max 522\n",
    );
    assert_golden(
        "broadcast --side 12 --k 6 --seed 1 --churn-rate 0.05 --reps 3 --threads 2",
        "n = 144, k = 6, r = 0 (r_c = 4.9), master seed = 1, 3 seeds, world: churn 0.050\n\
         T_B: mean 22204.0, median 21888.0, min 15577, max 29147\n",
    );
    assert_golden(
        "infection --side 12 --k 4 --seed 1",
        "T_I = 218 (mean 114.8)\n",
    );
    assert_golden(
        "coverage --side 10 --k 6 --seed 1",
        "T_B = 305\nT_C = 349 (100/100 nodes)\nT_C/T_B = 1.14\n",
    );
    assert_golden(
        "protocol --side 12 --k 6 --radius 2 --seed 1",
        "n = 144, k = 6, r = 2 (r_c = 4.9), seed = 1, drop = 0, delay <= 0, cap = 0, interval = 1\n\
         protocol broadcast completed at tick 50\n\
         messages: 14 sent, 14 delivered, 0 dropped; 175 timer firings; log hash e50ff5335a1b1ed4\n",
    );
    assert_golden(
        "protocol --side 12 --k 6 --radius 2 --seed 1 --drop 0.3 --crash 0.05 --restart-delay 2 \
         --retransmit --anti-entropy 2",
        "n = 144, k = 6, r = 2 (r_c = 4.9), seed = 1, drop = 0.3, delay <= 0, cap = 0, interval = 1\n\
         protocol broadcast completed at tick 226\n\
         messages: 323 sent, 202 delivered, 121 dropped; 453 timer firings; log hash af5a5ac374b54b86\n\
         faults: 45 crashes, 45 restarts; recovery: 8 retransmits, 239 digests\n",
    );
}

#[test]
fn gossip_json_golden() {
    assert_golden(
        "gossip --side 12 --k 4 --seed 1 --json",
        "{\"process\":\"gossip\",\"gossip_time\":532,\"min_rumors\":4,\"num_rumors\":4}\n",
    );
}

/// Gossip above radius 0, where components of two or more agents form
/// and merge: full rumor sets, a partial rumor population, and the
/// text form.
#[test]
fn gossip_radius_goldens() {
    assert_golden(
        "gossip --side 24 --k 12 --radius 2 --seed 3 --json",
        "{\"process\":\"gossip\",\"gossip_time\":427,\"min_rumors\":12,\"num_rumors\":12}\n",
    );
    assert_golden(
        "gossip --side 24 --k 12 --radius 2 --seed 3 --rumors 3 --json",
        "{\"process\":\"gossip\",\"gossip_time\":427,\"min_rumors\":3,\"num_rumors\":3}\n",
    );
    assert_golden(
        "gossip --side 24 --k 12 --radius 2 --seed 3",
        "T_G = 427 (12 rumors to 12 agents)\n",
    );
}

/// `--max-steps` caps gossip and coverage: at the golden completion
/// step the output is unchanged, one step earlier the run is censored.
#[test]
fn max_steps_caps_gossip_and_coverage() {
    assert_golden(
        "gossip --side 12 --k 4 --seed 1 --max-steps 532 --json",
        "{\"process\":\"gossip\",\"gossip_time\":532,\"min_rumors\":4,\"num_rumors\":4}\n",
    );
    assert_golden(
        "gossip --side 12 --k 4 --seed 1 --max-steps 531 --json",
        "{\"process\":\"gossip\",\"gossip_time\":null,\"min_rumors\":3,\"num_rumors\":4}\n",
    );
    assert_golden(
        "gossip --side 12 --k 4 --seed 1 --max-steps 531",
        "not finished after 531 steps (min 3/4 rumors per agent)\n",
    );
    assert_golden(
        "coverage --side 10 --k 6 --seed 1 --max-steps 349 --json",
        "{\"process\":\"coverage\",\"broadcast_time\":305,\"coverage_time\":349,\
         \"covered\":100,\"num_nodes\":100}\n",
    );
    assert_golden(
        "coverage --side 10 --k 6 --seed 1 --max-steps 348 --json",
        "{\"process\":\"coverage\",\"broadcast_time\":305,\"coverage_time\":null,\
         \"covered\":99,\"num_nodes\":100}\n",
    );
}

#[test]
fn infection_json_golden() {
    assert_golden(
        "infection --side 12 --k 4 --seed 1 --json",
        "{\"process\":\"infection\",\"infection_time\":218,\"mean_time\":114.75,\
         \"per_agent\":[0,67,174,218]}\n",
    );
}

#[test]
fn infection_sources_json_golden() {
    assert_golden(
        "infection --side 12 --k 4 --seed 1 --sources 2 --adversarial --json",
        "{\"process\":\"infection\",\"infection_time\":218,\"mean_time\":92.5,\
         \"per_agent\":[0,0,152,218]}\n",
    );
}

#[test]
fn coverage_json_golden() {
    assert_golden(
        "coverage --side 10 --k 6 --seed 1 --json",
        "{\"process\":\"coverage\",\"broadcast_time\":305,\"coverage_time\":349,\
         \"covered\":100,\"num_nodes\":100}\n",
    );
}

#[test]
fn predator_json_golden() {
    assert_golden(
        "predator --side 10 --predators 4 --preys 3 --seed 1 --json",
        "{\"process\":\"predator_prey\",\"extinction_time\":116,\"survivors\":0,\
         \"num_preys\":3}\n",
    );
}

#[test]
fn protocol_json_golden() {
    // Ideal network: the twin's completion tick equals the analytic
    // broadcast's T_B for the same seed (see `broadcast --side 12 --k 6
    // --seed 1` completing at 164 with radius 0; radius 2 here).
    assert_golden(
        "protocol --side 12 --k 6 --radius 2 --seed 1 --json",
        "{\"process\":\"protocol\",\"completion_time\":50,\"informed\":6,\"k\":6,\
         \"sent\":14,\"delivered\":14,\"dropped\":0,\"timers\":175,\
         \"log_hash\":\"e50ff5335a1b1ed4\"}\n",
    );
    // Lossy network: same trajectory, protocol-level drops change the
    // message counters and the event-log hash but stay deterministic.
    assert_golden(
        "protocol --side 12 --k 6 --radius 2 --seed 1 --drop 0.5 --json",
        "{\"process\":\"protocol\",\"completion_time\":50,\"informed\":6,\"k\":6,\
         \"sent\":43,\"delivered\":16,\"dropped\":27,\"timers\":130,\
         \"log_hash\":\"1c8d037cd923332b\"}\n",
    );
}

#[test]
fn protocol_twin_matches_broadcast_golden() {
    // The twin and the analytic broadcast share the seeded trajectory:
    // identical completion time at identical (side, k, r, seed).
    assert_golden(
        "broadcast --side 12 --k 6 --radius 2 --seed 1 --json",
        "{\"process\":\"broadcast\",\"broadcast_time\":50,\"informed\":6,\"k\":6}\n",
    );
}

const SWEEP_SPEC: &str = "[scenario]\n\
process = \"broadcast\"\n\
side = 10\n\
k = 5\n\
max_steps = 500\n\
\n\
[sweep]\n\
radii = [0, 1, 3]\n\
replicates = 2\n\
seed = 7\n";

// Regenerated for the content-addressed per-cell seeds
// (`cell_seed(master, side, k, r, replicate)` replaced the old
// grid-index derivation) and the Student-t small-sample CI widths
// (t(df=1) = 12.706 at n = 2 replicates).
const SWEEP_GOLDEN: &str = r#"{
  "experiment": "scenario_sweep",
  "process": "broadcast",
  "metric": "time",
  "seed": 7,
  "replicates": 2,
  "cells": [
    {"side": 10, "k": 5, "r": 0, "r_c": 4.47213595499958, "mean": 167, "ci95": 571.77, "median": 167, "min": 122, "max": 212, "samples": [122,212]},
    {"side": 10, "k": 5, "r": 1, "r_c": 4.47213595499958, "mean": 121, "ci95": 444.71, "median": 121, "min": 86, "max": 156, "samples": [156,86]},
    {"side": 10, "k": 5, "r": 3, "r_c": 4.47213595499958, "mean": 28, "ci95": 152.47199999999998, "median": 28, "min": 16, "max": 40, "samples": [16,40]}
  ],
  "transitions": [
    {"side": 10, "k": 5, "r_below": 1, "r_above": 3, "r_knee": 1.7320508075688772, "drop_ratio": 4.321428571428571, "predicted_rc": 4.47213595499958, "band": [1.118033988749895, 17.88854381999832], "within_band": true}
  ]
}
"#;

#[test]
fn sweep_json_golden() {
    let path = std::env::temp_dir().join("sparsegossip_golden_sweep.toml");
    std::fs::write(&path, SWEEP_SPEC).unwrap();
    let path = path.to_str().unwrap();
    let (stdout, stderr, ok) = run(&["sweep", "--spec", path, "--json"]);
    assert!(ok, "sweep failed: {stderr}");
    assert_eq!(stdout, SWEEP_GOLDEN, "sweep JSON drifted from its golden");
}

/// Schema-level assertions on top of the byte-exact goldens: the keys
/// downstream tooling greps for, and `null` for capped runs.
#[test]
fn json_schema_contract() {
    let (stdout, _, ok) = run(&[
        "broadcast",
        "--side",
        "64",
        "--k",
        "2",
        "--seed",
        "1",
        "--max-steps",
        "1",
        "--json",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("\"broadcast_time\":null"),
        "capped runs must encode time as null: {stdout}"
    );
    for (args, keys) in [
        (
            vec![
                "broadcast",
                "--side",
                "12",
                "--k",
                "6",
                "--seed",
                "1",
                "--json",
            ],
            vec!["\"process\"", "\"broadcast_time\"", "\"informed\"", "\"k\""],
        ),
        (
            vec![
                "gossip", "--side", "12", "--k", "4", "--seed", "1", "--json",
            ],
            vec!["\"gossip_time\"", "\"min_rumors\"", "\"num_rumors\""],
        ),
        (
            vec![
                "infection",
                "--side",
                "12",
                "--k",
                "4",
                "--seed",
                "1",
                "--json",
            ],
            vec!["\"infection_time\"", "\"mean_time\"", "\"per_agent\""],
        ),
        (
            vec![
                "coverage", "--side", "10", "--k", "6", "--seed", "1", "--json",
            ],
            vec![
                "\"broadcast_time\"",
                "\"coverage_time\"",
                "\"covered\"",
                "\"num_nodes\"",
            ],
        ),
        (
            vec![
                "predator",
                "--side",
                "10",
                "--predators",
                "4",
                "--preys",
                "3",
                "--seed",
                "1",
                "--json",
            ],
            vec!["\"extinction_time\"", "\"survivors\"", "\"num_preys\""],
        ),
    ] {
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "{args:?} failed: {stderr}");
        for key in keys {
            assert!(
                stdout.contains(key),
                "{args:?} output missing {key}: {stdout}"
            );
        }
        assert_eq!(stdout.lines().count(), 1, "run commands emit one JSON line");
    }
}
