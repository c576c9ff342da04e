//! Integration tests: the fixture trees exercise every lint class end
//! to end (library API and binary), the golden JSON snapshot pins the
//! report format, and the self-scan pins the real workspace to its
//! committed baseline — including the hot markers the zero-alloc
//! contract depends on.

use std::path::{Path, PathBuf};
use std::process::Command;

use detlint::{render_json, scan_workspace, Config, LintId};

fn crate_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn fixture(name: &str) -> PathBuf {
    crate_dir().join("tests/fixtures").join(name)
}

fn scan(root: &Path) -> detlint::ScanResult {
    scan_workspace(root, &Config::fallback()).expect("fixture tree scans")
}

#[test]
fn violations_fixture_hits_every_lint_class() {
    let result = scan(&fixture("violations"));
    for lint in [
        LintId::NondetMap,
        LintId::WallClock,
        LintId::UnseededRng,
        LintId::HotAlloc,
        LintId::Panic,
        LintId::Annotation,
    ] {
        assert!(
            result.findings.iter().any(|f| f.lint == lint),
            "no {} finding in the violations fixture",
            lint.as_str()
        );
    }
    assert_eq!(result.findings.len(), 10);
    assert_eq!(result.new_findings().len(), 10);
}

#[test]
fn violations_fixture_respects_path_scopes() {
    let result = scan(&fixture("violations"));
    let cli: Vec<_> = result
        .findings
        .iter()
        .filter(|f| f.file == "crates/cli/src/main.rs")
        .collect();
    // The CLI file contains Instant::now and .unwrap() too, but only
    // unseeded-rng applies in that tier.
    assert_eq!(cli.len(), 1, "{cli:?}");
    assert_eq!(cli[0].lint, LintId::UnseededRng);
}

#[test]
fn clean_fixture_is_finding_free() {
    let result = scan(&fixture("clean"));
    assert!(
        result.findings.is_empty(),
        "clean fixture produced: {:?}",
        result.findings
    );
    assert_eq!(result.hot_regions_in("crates/core/src/good.rs"), 1);
}

#[test]
fn golden_json_snapshot_is_stable() {
    let result = scan(&fixture("violations"));
    let want = std::fs::read_to_string(crate_dir().join("tests/golden/violations.json"))
        .expect("golden snapshot exists");
    assert_eq!(
        render_json(&result),
        want,
        "JSON report drifted from tests/golden/violations.json; \
         regenerate with: cargo run -p detlint -- \
         --root crates/detlint/tests/fixtures/violations --json \
         --out crates/detlint/tests/golden/violations.json"
    );
}

#[test]
fn binary_exit_codes_match_the_contract() {
    let bin = env!("CARGO_BIN_EXE_detlint");
    let run = |args: &[&str]| Command::new(bin).args(args).output().expect("binary runs");
    let violations = fixture("violations");
    let clean = fixture("clean");
    assert_eq!(
        run(&["--root", violations.to_str().expect("utf8 path")])
            .status
            .code(),
        Some(1),
        "new findings must exit 1"
    );
    assert_eq!(
        run(&["--root", clean.to_str().expect("utf8 path")])
            .status
            .code(),
        Some(0),
        "clean tree must exit 0"
    );
    assert_eq!(
        run(&["--bogus-flag"]).status.code(),
        Some(2),
        "usage errors must exit 2"
    );
}

/// The self-scan: detlint run on its own workspace, with the committed
/// `detlint.toml`, must be green — and must stay *exactly* at the
/// baseline. Both directions fail: a new finding means a contract
/// violation landed; a vanished finding means the baseline is stale and
/// must be tightened.
#[test]
fn workspace_self_scan_matches_committed_baseline() {
    let root = crate_dir().join("../..");
    let config = Config::load(&root.join("detlint.toml")).expect("committed config parses");
    assert!(
        config.baseline.is_empty(),
        "the workspace panic surface is clean; new findings must be fixed, \
         not baselined"
    );
    let result = scan_workspace(&root, &config).expect("workspace scans");
    assert!(
        result.new_findings().is_empty(),
        "findings beyond the committed baseline:\n{}",
        detlint::render_table(&result)
    );
    assert!(
        result.stale.is_empty(),
        "stale baseline entries (tighten detlint.toml): {:?}",
        result.stale
    );
    let total: usize = config.baseline.iter().map(|b| b.count).sum();
    assert_eq!(
        result.findings.len(),
        total,
        "workspace findings must equal the baseline exactly"
    );
}

/// The zero-alloc contract is only as good as its markers: the hot
/// paths named in the determinism contract must actually carry
/// `// detlint: hot`, else the hot-alloc lint silently checks nothing.
#[test]
fn workspace_hot_paths_carry_their_markers() {
    let root = crate_dir().join("../..");
    let config = Config::load(&root.join("detlint.toml")).expect("committed config parses");
    let result = scan_workspace(&root, &config).expect("workspace scans");
    for (file, min) in [
        ("crates/core/src/process.rs", 1),            // Simulation::step
        ("crates/conngraph/src/seeded.rs", 2),        // seeded + contact builds
        ("crates/conngraph/src/spatial.rs", 4),       // rebuild, apply_moves, both scans
        ("crates/conngraph/src/visibility.rs", 2),    // union_visible_by + components_on_by
        ("crates/walks/src/engine.rs", 3),            // step_all{,_into}, step_with
        ("crates/core/src/broadcast.rs", 2),          // exchange_one_hop + exchange_components
        ("crates/core/src/gossip.rs", 1),             // exchange
        ("crates/core/src/rumor.rs", 1),              // RumorSets::exchange
        ("crates/core/src/infection.rs", 1),          // exchange
        ("crates/analysis/src/scenario_sweep.rs", 2), // refine wave scan + top_up scan
        ("crates/protocol/src/runtime.rs", 4),        // faults, retries, anti-entropy, adjacency
        ("crates/protocol/src/message.rs", 1),        // EventLog::push
    ] {
        assert!(
            result.hot_regions_in(file) >= min,
            "{file}: expected at least {min} `// detlint: hot` region(s), \
             found {}",
            result.hot_regions_in(file)
        );
    }
}
