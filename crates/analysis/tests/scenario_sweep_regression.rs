//! Regression suite for the scenario sweep engine's determinism
//! contract: results are a pure function of the sweep (thread-count
//! independent, rerun-stable, resume-stable), and a TOML-loaded sweep
//! is indistinguishable from its builder-built twin — including the
//! committed `examples/phase_transition.toml`.

use sparsegossip_analysis::{
    AdaptiveConfig, ResultStore, ScenarioSweep, ScenarioSweepReport, SweepCell,
};
use sparsegossip_core::{cell_seed, theory, Metric, ProcessKind, ScenarioSpec, SimScratch};
use sparsegossip_walks::derive_seed;

fn small_sweep() -> ScenarioSweep {
    // An explicit cap keeps the worst replicate bounded in debug test
    // runs; capped cells are as deterministic as completed ones.
    let base = ScenarioSpec::builder(ProcessKind::Broadcast, 10, 4)
        .max_steps(2_000)
        .build()
        .unwrap();
    ScenarioSweep::new(base, 2011)
        .sides(vec![8, 10])
        .ks(vec![4, 6])
        .radii(vec![0, 1, 3])
        .replicates(3)
}

fn assert_reports_identical(a: &ScenarioSweepReport, b: &ScenarioSweepReport, what: &str) {
    assert_eq!(a.cells.len(), b.cells.len(), "{what}: cell count differs");
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(
            (ca.side, ca.k, ca.radius),
            (cb.side, cb.k, cb.radius),
            "{what}: cell order differs"
        );
        assert_eq!(
            ca.samples, cb.samples,
            "{what}: samples differ at side={} k={} r={}",
            ca.side, ca.k, ca.radius
        );
    }
}

#[test]
fn results_are_identical_for_1_2_and_8_threads() {
    // The clean grid, and the grid crossed with a churn axis (churn
    // draws teleports from the step loop's own stream).
    let churned = small_sweep().axis("churn_rates", vec![0.0, 0.05]).unwrap();
    for (what, sweep) in [("clean", small_sweep()), ("churn", churned)] {
        let serial = sweep.clone().threads(1).run().unwrap();
        for threads in [2, 8] {
            let parallel = sweep.clone().threads(threads).run().unwrap();
            assert_reports_identical(&serial, &parallel, &format!("{what} {threads} threads"));
            assert_eq!(
                serial.to_json(),
                parallel.to_json(),
                "{what}: JSON must be byte-identical across thread counts"
            );
        }
    }
}

#[test]
fn adaptive_results_are_identical_for_1_2_and_8_threads() {
    let adaptive = || {
        small_sweep().adaptive(AdaptiveConfig {
            replicate_budget: 4,
            ..AdaptiveConfig::default()
        })
    };
    let serial = adaptive().threads(1).run().unwrap();
    assert!(
        serial.adaptive.is_some(),
        "adaptive summary must be carried"
    );
    for threads in [2, 8] {
        let parallel = adaptive().threads(threads).run().unwrap();
        assert_reports_identical(&serial, &parallel, &format!("adaptive {threads} threads"));
        assert_eq!(
            serial.to_json(),
            parallel.to_json(),
            "adaptive JSON must be byte-identical across thread counts"
        );
    }
}

#[test]
fn killed_and_resumed_sweep_converges_to_uninterrupted_bytes() {
    let tmp = |name: &str| {
        std::env::temp_dir().join(format!(
            "sparsegossip_regress_{name}_{}.bin",
            std::process::id()
        ))
    };
    let sweep = small_sweep().threads(2).adaptive(AdaptiveConfig::default());

    // The uninterrupted reference: one store-backed run to completion.
    let full_path = tmp("full");
    let mut store = ResultStore::create(&full_path).unwrap();
    let reference = sweep.run_with_store(Some(&mut store)).unwrap().to_json();
    drop(store);
    let full_bytes = std::fs::read(&full_path).unwrap();

    // Kill after a prefix of the record stream (including torn tails),
    // resume, and demand byte-identical convergence. Records stream in
    // deterministic job order, so a truncated prefix of the reference
    // store is exactly what a killed run leaves behind.
    const HEADER_LEN: usize = 16;
    const RECORD_LEN: usize = 32;
    const TRAILER_LEN: usize = 24;
    let body = full_bytes.len() - HEADER_LEN - TRAILER_LEN;
    let records = body / RECORD_LEN;
    for cut in [0, 1, records / 2, records.saturating_sub(1)] {
        for torn in [0usize, 13] {
            let killed_path = tmp(&format!("killed_{cut}_{torn}"));
            let upto = HEADER_LEN + cut * RECORD_LEN + torn;
            std::fs::write(&killed_path, &full_bytes[..upto]).unwrap();
            let mut store = ResultStore::open_resume(&killed_path).unwrap();
            let resumed = sweep.run_with_store(Some(&mut store)).unwrap().to_json();
            drop(store);
            assert_eq!(
                resumed, reference,
                "resume after {cut} cells (+{torn} torn bytes) changed the report"
            );
            assert_eq!(
                std::fs::read(&killed_path).unwrap(),
                full_bytes,
                "resume after {cut} cells (+{torn} torn bytes) changed the store"
            );
            std::fs::remove_file(&killed_path).unwrap();
        }
    }
    std::fs::remove_file(&full_path).unwrap();
}

/// The seed-derivation migration golden: the old grid-index seeds
/// (`derive_seed(master, i·R + j)`) and the new content-addressed
/// ones (`cell_seed(master, side, k, r, j)`) measure different
/// replicates, but both must locate the same phase transition with
/// the same within-band verdict on every curve — the physics is
/// seed-independent even though individual samples are not.
#[test]
fn seed_migration_preserves_knee_verdicts() {
    let sweep = small_sweep();
    let cells = sweep.cells().unwrap();
    let reps = 3u32;
    let mut scratch = SimScratch::new();
    let build = |seed_of: &dyn Fn(usize, u32, &sparsegossip_analysis::ScenarioCell) -> u64,
                 scratch: &mut SimScratch| {
        let swept: Vec<SweepCell> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| {
                let samples: Vec<f64> = (0..reps)
                    .map(|j| {
                        cell.spec
                            .run_seed_with_scratch(scratch, seed_of(i, j, cell))
                    })
                    .collect();
                let n = f64::from(cell.side) * f64::from(cell.side);
                SweepCell {
                    side: cell.side,
                    k: cell.k,
                    radius: cell.radius,
                    labels: cell.labels,
                    critical_radius: theory::critical_radius(n, cell.k as f64),
                    summary: sparsegossip_analysis::Summary::from_slice(&samples),
                    samples,
                }
            })
            .collect();
        ScenarioSweepReport {
            process: ProcessKind::Broadcast,
            metric: Metric::Time,
            master_seed: 2011,
            replicates: reps,
            adaptive: None,
            cells: swept,
        }
    };
    let old = build(
        &|i, j, _| derive_seed(2011, i as u64 * u64::from(reps) + u64::from(j)),
        &mut scratch,
    );
    let new = build(
        &|_, j, c| cell_seed(2011, c.side, c.k, c.radius, j),
        &mut scratch,
    );
    // The engine itself must agree with the locally-computed new-seed
    // report sample for sample.
    let engine = sweep.run().unwrap();
    assert_reports_identical(&engine, &new, "engine vs local cell_seed");

    // Golden verdict tables: (side, k, r_below, r_above, within_band)
    // per detected transition, under each derivation. Pinned so a
    // future seeding change cannot silently alter what the suite
    // considers the knee. At this debug-friendly scale (3 replicates,
    // 3 radii) individual curves may disagree between derivations —
    // that disagreement is itself part of the golden.
    let verdicts = |r: &ScenarioSweepReport| -> Vec<(u32, usize, u32, u32, bool)> {
        r.transitions()
            .iter()
            .map(|t| (t.side, t.k, t.r_below, t.r_above, t.within_band()))
            .collect()
    };
    let old_golden = vec![
        (8u32, 4usize, 0u32, 1u32, false),
        (8, 6, 1, 3, true),
        (10, 4, 1, 3, true),
        (10, 6, 1, 3, true),
    ];
    let new_golden = vec![
        (8u32, 4usize, 1u32, 3u32, true),
        (8, 6, 1, 3, true),
        (10, 4, 1, 3, true),
        (10, 6, 0, 1, false),
    ];
    assert_eq!(verdicts(&old), old_golden, "old-seed verdicts drifted");
    assert_eq!(verdicts(&new), new_golden, "new-seed verdicts drifted");
}

#[test]
fn rerunning_the_same_sweep_reproduces_samples_exactly() {
    let a = small_sweep().threads(4).run().unwrap();
    let b = small_sweep().threads(4).run().unwrap();
    assert_reports_identical(&a, &b, "rerun");
}

#[test]
fn toml_loaded_sweep_equals_builder_built_sweep() {
    let built = small_sweep().threads(2);
    let loaded = ScenarioSweep::from_toml_str(&built.to_toml()).unwrap();
    assert_eq!(built, loaded, "serialization round trip changed the sweep");
    let a = built.run().unwrap();
    let b = loaded.run().unwrap();
    assert_reports_identical(&a, &b, "toml vs builder");
}

#[test]
fn fraction_metric_sweeps_are_thread_independent_too() {
    let base = ScenarioSpec::builder(ProcessKind::Gossip, 10, 4)
        .max_steps(300)
        .metric(Metric::Fraction)
        .build()
        .unwrap();
    let sweep = |threads| {
        ScenarioSweep::new(base, 7)
            .radii(vec![0, 2, 4])
            .replicates(4)
            .threads(threads)
            .run()
            .unwrap()
    };
    let serial = sweep(1);
    assert_reports_identical(&serial, &sweep(8), "fraction metric");
    for cell in &serial.cells {
        for s in &cell.samples {
            assert!((0.0..=1.0).contains(s), "fraction {s} out of range");
        }
    }
}

/// The committed example spec is the acceptance artifact: parsing it
/// must equal the builder-built twin, and running a trimmed version of
/// both must produce identical outcomes.
#[test]
fn committed_example_spec_round_trips_against_builder() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/phase_transition.toml"
    );
    let text = std::fs::read_to_string(path).expect("examples/phase_transition.toml exists");
    let loaded = ScenarioSweep::from_toml_str(&text).expect("example spec parses");

    // The builder-built twin of the committed file, field for field.
    let base = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
        .radius(0)
        .source(0)
        .metric(Metric::Time)
        .build()
        .unwrap();
    let built = ScenarioSweep::new(base, 2011)
        .sides(vec![24, 32, 48])
        .ks(vec![8, 16, 32])
        .r_factors(vec![0.25, 0.5, 1.0, 2.0, 3.0])
        .replicates(4)
        .threads(4);
    assert_eq!(
        built, loaded,
        "committed spec drifted from its builder twin"
    );

    // Run a trimmed slice of both (debug-friendly) and compare
    // outcomes cell by cell: parse → run ≡ build → run.
    let trim = |s: ScenarioSweep| s.sides(vec![24]).ks(vec![8, 16]).replicates(2).threads(2);
    let a = trim(built).run().unwrap();
    let b = trim(loaded).run().unwrap();
    assert_reports_identical(&a, &b, "trimmed example spec");
    assert_eq!(a.cells.len(), 2 * 5, "trim keeps the full radius axis");
}
