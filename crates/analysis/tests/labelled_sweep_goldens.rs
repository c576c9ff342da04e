//! Golden outputs of sweeps that carry config-axis labels: the exact
//! `to_json()`, `table()` and `to_toml()` bytes of a protocol-twin sweep
//! over two axis families at once (network `drop_probs` and fault
//! `crash_probs`, pinning their nesting order) and of a broadcast sweep
//! over the world axis `churn_rates`.
//!
//! The sweeps are read from `[sweep]` text, so the goldens hold for any
//! builder API that parses the same spec file.

use sparsegossip_analysis::ScenarioSweep;

fn assert_golden(spec: &str, json: &str, table: &str, toml: &str) {
    let sweep = ScenarioSweep::from_toml_str(spec).unwrap();
    assert_eq!(sweep.to_toml(), toml, "to_toml drifted");
    let report = sweep.run().unwrap();
    assert_eq!(format!("{}", report.table()), table, "table drifted");
    assert_eq!(report.to_json(), json, "to_json drifted");
}

#[test]
fn twin_sweep_over_network_and_fault_axes() {
    assert_golden(
        include_str!("golden/twin_drop_crash.spec.toml"),
        include_str!("golden/twin_drop_crash.json"),
        include_str!("golden/twin_drop_crash.table.txt"),
        include_str!("golden/twin_drop_crash.toml"),
    );
}

#[test]
fn broadcast_sweep_over_churn_rates() {
    assert_golden(
        include_str!("golden/broadcast_churn.spec.toml"),
        include_str!("golden/broadcast_churn.json"),
        include_str!("golden/broadcast_churn.table.txt"),
        include_str!("golden/broadcast_churn.toml"),
    );
}
