//! `sweep --axis KEY=A,B` runs the same sweep as that axis written in
//! the spec's `[sweep]` section, byte for byte; it is the one axis
//! option, and a malformed axis or thread count is a bad value.

use std::process::Command;

const TWIN: &str = "[scenario]\nprocess = \"protocol-broadcast\"\nside = 10\nk = 5\n\n\
                    [sweep]\nradii = [0, 2]\nreplicates = 2\nseed = 7\n";

/// Runs `sweep` on `spec` (written to a file named after `name`) with
/// `extra` options: stdout, stderr and whether it succeeded.
fn sweep(spec: &str, name: &str, extra: &[&str]) -> (String, String, bool) {
    let path = std::env::temp_dir().join(format!(
        "sparsegossip_sweep_axis_{name}_{}.toml",
        std::process::id()
    ));
    std::fs::write(&path, spec).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_sparsegossip"))
        .args(["sweep", "--spec", path.to_str().unwrap()])
        .args(extra)
        .output()
        .expect("binary runs");
    std::fs::remove_file(&path).unwrap();
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.success(),
    )
}

#[test]
fn axis_option_matches_the_spec_files_axis() {
    for format in [&[][..], &["--json"][..]] {
        let spec = format!("{TWIN}drop_probs = [0, 0.3]\n");
        let (in_spec, stderr, ok) = sweep(&spec, "in_spec", format);
        assert!(ok, "{stderr}");
        let extra = [&["--axis", "drop_probs=0,0.3"][..], format].concat();
        let (option, stderr, ok) = sweep(TWIN, "option", &extra);
        assert!(ok, "{stderr}");
        assert!(in_spec.contains("drop_prob"), "{in_spec}");
        assert_eq!(option, in_spec, "{format:?}");
    }
}

#[test]
fn malformed_axes_and_zero_threads_are_bad_values() {
    for (option, value) in [
        // Not a `[sweep]` axis key.
        ("axis", "bogus=1"),
        ("axis", "radii=0,1"),
        // Outside the key's range.
        ("axis", "drop_probs=1.5"),
        ("axis", "gossip_intervals=0"),
        // No `=`, and an empty list.
        ("axis", "drop_probs"),
        ("axis", "drop_probs="),
        ("threads", "0"),
    ] {
        let (stdout, stderr, ok) = sweep(TWIN, "bad", &[&format!("--{option}"), value]);
        assert!(!ok && stdout.is_empty(), "--{option} {value} ran: {stdout}");
        assert_eq!(
            stderr,
            format!("error: option --{option} has invalid value {value:?}\n")
        );
    }
    let (_, stderr, ok) = sweep(&format!("{TWIN}threads = 0\n"), "zero_threads", &[]);
    assert!(!ok);
    assert!(stderr.contains("\"threads\" in [sweep]"), "{stderr}");
}

#[test]
fn the_per_key_axis_options_are_gone() {
    for option in [
        "--barrier-densities",
        "--churn-rates",
        "--radius-mixes",
        "--crash-probs",
        "--partition-lens",
    ] {
        let (stdout, stderr, ok) = sweep(TWIN, "gone", &[option, "0.1"]);
        assert!(!ok && stdout.is_empty(), "{option} ran: {stdout}");
        assert!(
            stderr.contains(&format!("unknown option {option} ")),
            "{option}: {stderr}"
        );
    }
}
