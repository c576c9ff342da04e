//! The `twin_sweep` workload: a `ScenarioSweep` of the protocol twin,
//! checkpointed to a fresh `ResultStore` and resumed from it, plus the
//! untraced and traced drivers of one twin run.

use std::fs;
use std::mem;
use std::path::Path;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{
    ResultStore, ScenarioSweep, ScenarioSweepReport, StoreError, SweepError,
};
use sparsegossip_conngraph::Components;
use sparsegossip_core::{
    cell_seed, ExchangeCtx, NullObserver, Process, ProcessKind, ProtocolBroadcast, ScenarioSpec,
    SimError, SimScratch, Simulation,
};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_walks::WalkEngine;

use crate::layers::{LayerCounts, LayerTimes};
use crate::sim::{step_timed, RunOutcome};
use crate::stats::{now, ns_between, secs_since, Latencies};

/// Worker threads of the sweep: the benchmark's budget of two.
pub const SWEEP_THREADS: usize = 2;

/// The sweep rooted at `master`: sides {64, 96} × ks {32, 64} ×
/// r_factors {0.25, 0.5, 1, 2} × drop_probs {0, 0.3}, with
/// retransmission and anti-entropy every 4 ticks, 8 replicates. A crash
/// axis is left out: crash_prob 0.01 at the default caps runs for
/// minutes.
///
/// # Panics
///
/// Never: the base spec is valid.
#[must_use]
pub fn twin_sweep(master: u64) -> ScenarioSweep {
    let base = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 64, 32)
        .retransmit(true)
        .anti_entropy_interval(4)
        .build()
        .expect("valid base spec");
    ScenarioSweep::new(base, master)
        .sides(vec![64, 96])
        .ks(vec![32, 64])
        .r_factors(vec![0.25, 0.5, 1.0, 2.0])
        .drop_probs(vec![0.0, 0.3])
        .replicates(8)
        .threads(SWEEP_THREADS)
}

/// One simulation of a sweep: its cell's spec, its replicate and seed,
/// and the value the sweep recorded.
#[derive(Clone, Copy, Debug)]
pub struct SweepRun {
    /// The cell's spec.
    pub spec: ScenarioSpec,
    /// The replicate index within the cell.
    pub replicate: u32,
    /// The replicate's content-addressed seed.
    pub seed: u64,
    /// The recorded completion tick, or the step cap for a censored run.
    pub value: f64,
}

impl SweepRun {
    /// The completion tick, or `None` if the run hit its cap.
    #[must_use]
    pub fn completion(&self) -> Option<u64> {
        let cap = self.spec.config().max_steps();
        (self.value < cap as f64).then_some(self.value as u64)
    }

    /// Σ k · steps of the run: a twin run stops on its completion tick
    /// or at its cap, whichever `value` records.
    #[must_use]
    pub fn agent_steps(&self) -> u64 {
        self.spec.config().k() as u64 * self.value as u64
    }
}

/// The runs of a plain sweep's report, in cell and replicate order.
///
/// # Errors
///
/// As [`ScenarioSweep::cells`].
fn sweep_runs(
    sweep: &ScenarioSweep,
    report: &ScenarioSweepReport,
) -> Result<Vec<SweepRun>, SimError> {
    let cells = sweep.cells()?;
    let mut runs = Vec::new();
    for (cell, result) in cells.iter().zip(&report.cells) {
        for (replicate, &value) in (0u32..).zip(&result.samples) {
            runs.push(SweepRun {
                spec: cell.spec,
                replicate,
                seed: cell_seed(
                    sweep.master_seed(),
                    cell.side,
                    cell.k,
                    cell.radius,
                    replicate,
                ),
                value,
            });
        }
    }
    Ok(runs)
}

/// The results and timings of one checkpointed sweep round.
#[derive(Clone, Debug)]
pub struct SweepRound {
    /// The sweep's master seed.
    pub master_seed: u64,
    /// Every run of the fresh sweep.
    pub runs: Vec<SweepRun>,
    /// `ResultStore::create` plus the fresh `run_with_store`, seconds.
    pub sweep_s: f64,
    /// `ResultStore::open_resume`, seconds.
    pub resume_s: f64,
    /// The resumed `run_with_store` (all cache hits), seconds.
    pub resumed_sweep_s: f64,
    /// `to_json` of the fresh and the resumed report, seconds.
    pub report_s: f64,
    /// Records in the store after the resumed sweep.
    pub records: u64,
    /// Size of the store file after the resumed sweep.
    pub store_bytes: u64,
    /// Whether the resumed report's JSON is byte-identical to the
    /// fresh one's.
    pub resume_identical: bool,
}

impl SweepRound {
    /// The round's wall time: sweep, resume, resumed sweep and reports.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.sweep_s + self.resume_s + self.resumed_sweep_s + self.report_s
    }
}

/// Runs `sweep` into a fresh store at `path`, reopens the store,
/// resumes the sweep from it and compares the two reports.
///
/// # Errors
///
/// A cell failing validation, or the store failing.
pub fn run_round(sweep: &ScenarioSweep, path: &Path) -> Result<SweepRound, SweepError> {
    let t0 = now();
    let mut store = ResultStore::create(path)?;
    let fresh = sweep.run_with_store(Some(&mut store))?;
    drop(store);
    let sweep_s = secs_since(t0);
    let t1 = now();
    let mut store = ResultStore::open_resume(path)?;
    let resume_s = secs_since(t1);
    let t2 = now();
    let resumed = sweep.run_with_store(Some(&mut store))?;
    let resumed_sweep_s = secs_since(t2);
    let t3 = now();
    let resume_identical = fresh.to_json() == resumed.to_json();
    let report_s = secs_since(t3);
    let records = store.len();
    drop(store);
    let store_bytes = fs::metadata(path)
        .map_err(|e| StoreError::Io {
            path: path.to_path_buf(),
            error: e.to_string(),
        })?
        .len();
    Ok(SweepRound {
        master_seed: sweep.master_seed(),
        runs: sweep_runs(sweep, &fresh)?,
        sweep_s,
        resume_s,
        resumed_sweep_s,
        report_s,
        records,
        store_bytes,
        resume_identical,
    })
}

/// Builds a twin simulation of `spec` on a fresh scratch and takes one
/// step: the set-up a run pays before its steady state. Returns the
/// time.
#[must_use]
pub fn set_up(spec: &ScenarioSpec, seed: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = twin_simulation(spec, seed, &mut rng, SimScratch::new());
    let _ = sim.step(&mut rng, &mut NullObserver);
    sim.time()
}

/// The twin simulation `ScenarioSpec::run_seed_with_scratch` builds for
/// `spec` and `seed`.
fn twin_simulation(
    spec: &ScenarioSpec,
    seed: u64,
    rng: &mut SmallRng,
    scratch: SimScratch,
) -> Simulation<ProtocolBroadcast, Grid> {
    Simulation::protocol_broadcast_with_faults_with_scratch(
        spec.config(),
        *spec.network(),
        spec.faults(),
        seed,
        rng,
        scratch,
    )
    .expect("validated spec")
}

/// Runs the twin run `(spec, seed)` of a sweep through
/// `Simulation::step`, appending the latency of every step call (ns)
/// to `latencies`.
pub fn run_untraced(
    spec: &ScenarioSpec,
    seed: u64,
    scratch: &mut SimScratch,
    latencies: &mut Latencies,
) -> RunOutcome {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = twin_simulation(spec, seed, &mut rng, mem::take(scratch));
    step_timed(&mut sim, &mut rng, latencies);
    let out = sim.outcome();
    let outcome = RunOutcome {
        steps: sim.time(),
        completion: out.completion_time.filter(|_| out.error.is_none()),
    };
    *scratch = sim.into_scratch();
    outcome
}

/// Replays the twin run `(spec, seed)` layer by layer — walk step, then
/// `Process::exchange`, which is one `NodeRuntime::tick` — adding each
/// layer's busy time to `times` and its work to `counts`. `before`
/// holds the pre-step positions for the move count.
pub fn run_traced(
    spec: &ScenarioSpec,
    seed: u64,
    before: &mut Vec<Point>,
    times: &mut LayerTimes,
    counts: &mut LayerCounts,
) -> RunOutcome {
    let config = spec.config();
    let faults = spec.faults();
    let mut rng = SmallRng::seed_from_u64(seed);
    let grid = Grid::new(config.side()).expect("validated spec");
    let mut process = ProtocolBroadcast::from_config(config, *spec.network(), seed)
        .expect("validated spec")
        .faults(faults.to_plan())
        .recovery(faults.to_recovery());
    let mut engine = WalkEngine::uniform(grid, config.k(), &mut rng).expect("validated spec");
    let (side, radius) = (config.side(), config.radius());

    let start = now();
    let ctx = ExchangeCtx {
        time: 0,
        side,
        radius,
        positions: engine.positions(),
        components: Components::EMPTY,
    };
    let mut done = process.on_placement(ctx).is_break();
    let placed = now();
    times.tick += ns_between(start, placed);
    times.total += ns_between(start, placed);
    let mut ticks = 1;
    while !done && engine.time() < config.max_steps() {
        before.clear();
        before.extend_from_slice(engine.positions());
        let t0 = now();
        engine.step_all(&mut rng);
        let t1 = now();
        let ctx = ExchangeCtx {
            time: engine.time(),
            side,
            radius,
            positions: engine.positions(),
            components: Components::EMPTY,
        };
        done = process.exchange(ctx).is_break();
        let t2 = now();
        times.walk += ns_between(t0, t1);
        times.tick += ns_between(t1, t2);
        times.total += ns_between(t0, t2);
        ticks += 1;
        counts.moved += before
            .iter()
            .zip(engine.positions())
            .filter(|(a, b)| a != b)
            .count() as u64;
    }
    let out = process.outcome(engine.time());
    counts.add_run(config.k(), engine.time());
    counts.add_twin(config.k(), ticks, &out.stats);
    RunOutcome {
        steps: engine.time(),
        completion: out.completion_time.filter(|_| out.error.is_none()),
    }
}
