//! The binary refuses options a command does not take, and option
//! values its process rejects: it exits nonzero with an error on stderr
//! and prints no run output.

use std::process::Command;

fn run(line: &str) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_sparsegossip"))
        .args(line.split_whitespace())
        .output()
        .expect("binary runs");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.success(),
    )
}

#[test]
fn unknown_options_fail_before_the_run() {
    for (line, key) in [
        ("broadcast --side 8 --k 4 --radus 5", "--radus"),
        ("broadcast --side 8 --k 4 --source 9", "--source"),
        ("broadcast --side 8 --k 4 --json 1", "--json"),
    ] {
        let (stdout, stderr, ok) = run(line);
        assert!(!ok, "`{line}` succeeded");
        assert!(stdout.is_empty(), "`{line}` ran: {stdout}");
        assert!(
            stderr.contains(&format!("unknown option {key}")),
            "`{line}`: {stderr}"
        );
    }
}

#[test]
fn repeated_options_fail_before_the_run() {
    let line = "broadcast --side 12 --k 6 --seed 1 --side 200";
    let (stdout, stderr, ok) = run(line);
    assert!(!ok, "`{line}` succeeded");
    assert!(stdout.is_empty(), "`{line}` ran: {stdout}");
    assert_eq!(stderr, "error: option --side is given more than once\n");
}

#[test]
fn out_of_range_rumor_counts_are_named_as_rumor_counts() {
    for (line, expected) in [
        (
            "gossip --side 16 --k 4 --rumors 0",
            "error: rumor count 0 must be in 1..=4\n",
        ),
        (
            "gossip --side 16 --k 4 --rumors 5",
            "error: rumor count 5 must be in 1..=4\n",
        ),
    ] {
        let (stdout, stderr, ok) = run(line);
        assert!(!ok, "`{line}` succeeded");
        assert!(stdout.is_empty(), "`{line}` ran: {stdout}");
        assert_eq!(stderr, expected, "`{line}`");
    }
}

#[test]
fn infection_still_takes_radius_with_a_note() {
    let (stdout, stderr, ok) = run("infection --side 12 --k 4 --radius 3 --seed 1");
    assert!(ok, "{stderr}");
    assert!(stdout.starts_with("T_I = "), "{stdout}");
    assert!(stderr.contains("--radius is ignored"), "{stderr}");
}

#[test]
fn coverage_prints_plain_times() {
    let (stdout, stderr, ok) = run("coverage --side 10 --k 6 --seed 1");
    assert!(ok, "{stderr}");
    assert!(!stdout.contains("Some("), "{stdout}");
    assert!(stdout.starts_with("T_B = "), "{stdout}");
}

#[test]
fn protocol_network_values_outside_their_range_name_the_option() {
    for (line, expected) in [
        (
            "protocol --side 12 --k 6 --drop 1.5",
            "error: option --drop has invalid value \"1.5\"\n",
        ),
        (
            "protocol --side 12 --k 6 --interval 0",
            "error: option --interval has invalid value \"0\"\n",
        ),
    ] {
        let (stdout, stderr, ok) = run(line);
        assert!(!ok, "`{line}` succeeded");
        assert!(stdout.is_empty(), "`{line}` ran: {stdout}");
        assert_eq!(stderr, expected, "`{line}`");
    }
}
