//! `sgperf`: runs one benchmark workload and prints its metrics.
//!
//! ```text
//! sgperf --workload <broadcast_sparse|gossip_full|twin_sweep> --seed <n>
//!        --seconds <s> --trace <0|1> [--work-dir <dir>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds` seconds.
//! `--trace 1` runs the workload's first round untraced, replays it
//! twice with every layer timed, checks that both replays reproduce the
//! untraced outcomes and each other's work counts, and prints the
//! per-layer metrics. Informational lines start with `#`; the last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. The exit code is nonzero on any
//! censored run or failed check. Result stores are written under
//! `--work-dir` and removed on exit.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::{env, fs};

use sparsegossip_analysis::ResultStore;
use sparsegossip_core::SimScratch;
use sparsegossip_perfbench::layers::{
    per_layer_metrics, AnalysisTimes, LayerCounts, LayerTimes, Metric,
};
use sparsegossip_perfbench::sim::{self, RunOutcome, SimCase, TraceScratch};
use sparsegossip_perfbench::stats::{median, now, peak_rss_mb, secs_since, Latencies};
use sparsegossip_perfbench::twin::{self, SweepRound, SweepRun, SWEEP_THREADS};
use sparsegossip_perfbench::{outcome_digest, Workload};

/// Set-ups per run, at least; `setup_s` is their median. They are
/// spread over the run, a few before each measured run or round, so
/// the median sees the same machine conditions as the measurement.
const SETUP_REPS: usize = 31;
/// Set-ups before each measured run or round.
const SETUPS_PER_RUN: usize = 3;
/// RNG seed of the set-up measurement, whose cost does not depend on it.
const SETUP_SEED: u64 = 0x5E7;

const USAGE: &str = "usage: sgperf --workload <broadcast_sparse|gossip_full|twin_sweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut work_dir = PathBuf::from(".bench_build/perfbench-work");
    let mut it = env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value:?}: {e}"))?,
                );
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
            }
            "--work-dir" => work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        work_dir,
    })
}

/// What one invocation prints: notes, failed checks, metrics and the
/// JSON result line.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    errors: Vec<String>,
    metrics: Vec<Metric>,
}

impl Report {
    fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    fn print(&self) -> ExitCode {
        for line in &self.notes {
            println!("# {line}");
        }
        for line in &self.errors {
            println!("# CHECK FAILED: {line}");
        }
        for (name, value, unit) in &self.metrics {
            println!("# {name} = {value} {unit}");
        }
        let finite = self.metrics.iter().all(|m| m.1.is_finite());
        let correct = self.errors.is_empty() && self.failed == 0 && finite && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() {
                    value.to_string()
                } else {
                    "null".to_string()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("sgperf: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let dir = args
        .work_dir
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("sgperf: cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {} seconds {} trace {} cpus {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    ));
    let result = match (args.workload, args.trace) {
        (Workload::TwinSweep, false) => twin_end_to_end(&args, &dir, &mut report),
        (Workload::TwinSweep, true) => twin_traced(&args, &dir, &mut report),
        (w, false) => {
            sim_end_to_end(w, &args, &mut report);
            Ok(())
        }
        (w, true) => {
            sim_traced(w, &args, &mut report);
            Ok(())
        }
    };
    let _ = fs::remove_dir_all(&dir);
    match result {
        Ok(()) => report.print(),
        Err(e) => {
            eprintln!("sgperf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The cases of a simulation workload, in run order.
fn sim_cases(w: Workload) -> Vec<SimCase> {
    match w {
        Workload::BroadcastSparse => sim::broadcast_sparse_cases(),
        Workload::GossipFull => sim::gossip_full_cases(),
        Workload::TwinSweep => Vec::new(),
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order. `step_ns` holds
/// the step latencies of each of the workload's cases; the step
/// percentiles are the mean over the cases of each case's percentile,
/// so cases of different step cost weigh equally however many samples
/// each seed gives them.
fn end_to_end_metrics(setup_s: f64, agent_steps_per_s: f64, step_ns: &[Latencies]) -> Vec<Metric> {
    let cases = step_ns.len() as f64;
    let p50 = step_ns.iter().map(|l| l.quantile(0.5)).sum::<f64>() / cases / 1e3;
    let p99 = step_ns.iter().map(|l| l.quantile(0.99)).sum::<f64>() / cases / 1e3;
    vec![
        ("setup_s", setup_s, "s"),
        ("agent_steps_per_s", agent_steps_per_s, "1/s"),
        ("step_us_p50", p50, "us"),
        ("step_us_p99", p99, "us"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ]
}

/// A simulation workload untraced: runs alternate over the cases, one
/// fresh seed per round, until the time budget is spent.
///
/// The cases differ in cost per step, and how many runs of each fit the
/// budget depends on the seed, so each case is measured on its own and
/// the cases are weighted equally: `agent_steps_per_s` is the inverse
/// of the mean cost of an agent-step over the cases.
fn sim_end_to_end(w: Workload, args: &Args, report: &mut Report) {
    let set_up = || {
        let t = now();
        for case in sim_cases(w) {
            black_box(sim::set_up(&case, SETUP_SEED));
        }
        secs_since(t)
    };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let cases = sim_cases(w);
    let n = cases.len();
    let mut scratch = SimScratch::new();
    let mut latencies = vec![Latencies::new(); n];
    let mut agent_steps = vec![0u64; n];
    let mut wall_s = vec![0.0f64; n];
    let mut outcomes: Vec<RunOutcome> = Vec::new();
    let start = now();
    for i in 0usize.. {
        let (case, round) = (i % n, i / n);
        // Every case runs once; after that a run starts only if its
        // case's mean run time still fits the budget.
        if round > 0 && secs_since(start) + wall_s[case] / round as f64 > args.seconds {
            break;
        }
        setups.extend((0..SETUPS_PER_RUN).map(|_| set_up()));
        let t = now();
        let out = sim::run_untraced(
            &cases[case],
            w.round_seed(args.seed, round as u64),
            &mut scratch,
            &mut latencies[case],
        );
        wall_s[case] += secs_since(t);
        agent_steps[case] += cases[case].config.k() as u64 * out.steps;
        outcomes.push(out);
    }
    while setups.len() < SETUP_REPS {
        setups.push(set_up());
    }
    let censored = outcomes.iter().filter(|o| o.completion.is_none()).count() as u64;
    report.attempted = outcomes.len() as u64;
    report.failed = censored;
    report.note(format!(
        "runs_attempted {} runs_censored {censored}",
        outcomes.len()
    ));
    report.note(format!(
        "outcome_digest {:016x} (first round, {n} runs)",
        outcome_digest(outcomes[..n].iter().map(|o| o.completion))
    ));
    report.note(format!(
        "outcome_digest_all {:016x} ({} runs)",
        outcome_digest(outcomes.iter().map(|o| o.completion)),
        outcomes.len()
    ));
    let mut secs_per_agent_step = 0.0;
    for (c, case) in cases.iter().enumerate() {
        secs_per_agent_step += wall_s[c] / agent_steps[c] as f64 / n as f64;
        report.note(format!(
            "case r={} agent_steps {} wall_s {:.3} step_samples {}",
            case.config.radius(),
            agent_steps[c],
            wall_s[c],
            latencies[c].len()
        ));
    }
    report.metrics = end_to_end_metrics(median(&setups), 1.0 / secs_per_agent_step, &latencies);
}

/// One traced pass: its outcomes, layer times, work counts and wall.
type Pass = (Vec<RunOutcome>, LayerTimes, LayerCounts, f64);

/// Checks every traced pass against the untraced outcomes and the
/// passes' work counts against each other, and records the run counts.
fn check_replay(report: &mut Report, untraced: &[RunOutcome], passes: &[Pass]) {
    let censored = untraced.iter().filter(|o| o.completion.is_none()).count() as u64;
    let mismatched: u64 = passes
        .iter()
        .map(|p| p.0.iter().zip(untraced).filter(|(a, b)| a != b).count() as u64)
        .sum();
    report.attempted = (untraced.len() * (1 + passes.len())) as u64;
    report.failed = censored + mismatched;
    let digest = outcome_digest(untraced.iter().map(|o| o.completion));
    report.note(format!(
        "outcome_digest {digest:016x} (untraced, {} runs, {censored} censored)",
        untraced.len()
    ));
    for (i, pass) in passes.iter().enumerate() {
        let traced = outcome_digest(pass.0.iter().map(|o| o.completion));
        report.note(format!(
            "outcome_digest {traced:016x} (traced pass {})",
            i + 1
        ));
        report.check(traced == digest, || {
            format!(
                "traced pass {} does not reproduce the untraced outcomes",
                i + 1
            )
        });
    }
    report.check(passes.windows(2).all(|w| w[0].2 == w[1].2), || {
        "work counts differ between two traced passes of one seed".to_string()
    });
    report.note(format!("counts {:?}", passes[0].2));
}

/// A simulation workload traced: its first round (one run per case)
/// untraced, then twice through the layer-timed replay.
fn sim_traced(w: Workload, args: &Args, report: &mut Report) {
    let cases = sim_cases(w);
    let seed = w.round_seed(args.seed, 0);
    let mut scratch = SimScratch::new();
    let mut latencies = Latencies::new();
    let t = now();
    let untraced: Vec<RunOutcome> = cases
        .iter()
        .map(|c| sim::run_untraced(c, seed, &mut scratch, &mut latencies))
        .collect();
    let untraced_s = secs_since(t);
    let passes: Vec<Pass> = (0..2)
        .map(|_| {
            let mut ts = TraceScratch::default();
            let (mut times, mut counts) = (LayerTimes::default(), LayerCounts::default());
            let t = now();
            let outs = cases
                .iter()
                .map(|c| sim::run_traced(c, seed, &mut ts, &mut times, &mut counts))
                .collect();
            (outs, times, counts, secs_since(t))
        })
        .collect();
    check_replay(report, &untraced, &passes);
    let (_, times, counts, traced_s) = &passes[0];
    report.metrics = per_layer_metrics(
        times,
        counts,
        &AnalysisTimes::default(),
        traced_s / untraced_s - 1.0,
    );
}

/// Checks a sweep round: the resumed report is byte-identical to the
/// fresh one, and the store holds one record per run.
fn check_round(report: &mut Report, round: &SweepRound) {
    let master = round.master_seed;
    report.check(round.resume_identical, || {
        format!("sweep {master}: the resumed report differs from the fresh one")
    });
    report.check(round.records == round.runs.len() as u64, || {
        format!("sweep {master}: the store holds {} records", round.records)
    });
}

/// The twin sweep untraced: checkpointed and resumed sweep rounds, one
/// fresh master seed per round, until the time budget is spent. After
/// each round, replicate 0 of every cell runs again through
/// `Simulation::step` for the step latencies, checked against the
/// sweep's value.
fn twin_end_to_end(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let set_up = || -> Result<f64, String> {
        let t = now();
        let sweep = twin::twin_sweep(SETUP_SEED);
        let cells = sweep.cells().map_err(|e| e.to_string())?;
        let store = ResultStore::create(&dir.join("setup.bin")).map_err(|e| e.to_string())?;
        for cell in &cells {
            black_box(twin::set_up(&cell.spec, SETUP_SEED));
        }
        drop(store);
        Ok(secs_since(t))
    };
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let store_path = dir.join("store.bin");
    let mut scratch = SimScratch::new();
    // Step latencies per sweep cell (replicate 0 of each).
    let mut latencies: Vec<Latencies> = Vec::new();
    let (mut wall_s, mut agent_steps) = (0.0, 0u64);
    let mut completions = Vec::new();
    let mut first_round = 0;
    let mut rounds = 0u64;
    let mut resampled = 0u64;
    let mut mismatched = 0u64;
    let start = now();
    for round in 0u64.. {
        // A round starts only if the mean round time still fits.
        if round > 0 && secs_since(start) * (round + 1) as f64 / round as f64 > args.seconds {
            break;
        }
        for _ in 0..SETUPS_PER_RUN {
            setups.push(set_up()?);
        }
        let sweep = twin::twin_sweep(Workload::TwinSweep.round_seed(args.seed, round));
        let result = twin::run_round(&sweep, &store_path).map_err(|e| e.to_string())?;
        check_round(report, &result);
        wall_s += result.wall_s();
        agent_steps += result.runs.iter().map(SweepRun::agent_steps).sum::<u64>();
        completions.extend(result.runs.iter().map(SweepRun::completion));
        if round == 0 {
            first_round = completions.len();
        }
        let firsts = result.runs.iter().filter(|r| r.replicate == 0);
        latencies.resize_with(firsts.clone().count(), Latencies::new);
        for (run, lat) in firsts.zip(&mut latencies) {
            let out = twin::run_untraced(&run.spec, run.seed, &mut scratch, lat);
            resampled += 1;
            mismatched += u64::from(out.completion != run.completion());
        }
        rounds += 1;
    }
    while setups.len() < SETUP_REPS {
        setups.push(set_up()?);
    }
    report.check(mismatched == 0, || {
        format!("{mismatched} step-timed twin runs differ from the sweep's values")
    });
    let censored = completions.iter().filter(|c| c.is_none()).count() as u64;
    report.attempted = completions.len() as u64 + resampled;
    report.failed = censored + mismatched;
    report.note(format!(
        "rounds {rounds} runs_attempted {} runs_censored {censored} step_timed_runs {resampled} step_samples {}",
        completions.len(),
        latencies.iter().map(Latencies::len).sum::<u64>()
    ));
    report.note(format!(
        "outcome_digest {:016x} (first round, {first_round} runs)",
        outcome_digest(completions[..first_round].iter().copied())
    ));
    report.note(format!(
        "outcome_digest_all {:016x} ({} runs)",
        outcome_digest(completions.iter().copied()),
        completions.len()
    ));
    report.metrics = end_to_end_metrics(median(&setups), agent_steps as f64 / wall_s, &latencies);
    Ok(())
}

/// The twin sweep traced: one checkpointed and resumed round with the
/// analysis layer timed, every run once more single-threaded through
/// `ScenarioSpec::run_seed_with_scratch`, then twice through the
/// layer-timed replay.
fn twin_traced(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let sweep = twin::twin_sweep(Workload::TwinSweep.round_seed(args.seed, 0));
    let round = twin::run_round(&sweep, &dir.join("store.bin")).map_err(|e| e.to_string())?;
    let mut scratch = SimScratch::new();
    let t = now();
    let rerun_mismatched = round
        .runs
        .iter()
        .filter(|r| {
            r.spec.run_seed_with_scratch(&mut scratch, r.seed).to_bits() != r.value.to_bits()
        })
        .count() as u64;
    let run_s_sum = secs_since(t);
    let untraced: Vec<RunOutcome> = round
        .runs
        .iter()
        .map(|r| RunOutcome {
            steps: r.value as u64,
            completion: r.completion(),
        })
        .collect();
    let passes: Vec<Pass> = (0..2)
        .map(|_| {
            let mut before = Vec::new();
            let (mut times, mut counts) = (LayerTimes::default(), LayerCounts::default());
            let t = now();
            let outs = round
                .runs
                .iter()
                .map(|r| twin::run_traced(&r.spec, r.seed, &mut before, &mut times, &mut counts))
                .collect();
            (outs, times, counts, secs_since(t))
        })
        .collect();
    check_replay(report, &untraced, &passes);
    report.attempted += round.runs.len() as u64;
    report.failed += rerun_mismatched;
    check_round(report, &round);
    report.check(rerun_mismatched == 0, || {
        format!("{rerun_mismatched} single-thread reruns differ from the sweep's values")
    });
    let analysis = AnalysisTimes {
        run_s_sum,
        parallel_efficiency: run_s_sum / (SWEEP_THREADS as f64 * round.sweep_s),
        records: round.records,
        store_bytes: round.store_bytes,
        resume_s: round.resume_s,
        report_s: round.report_s,
    };
    let (_, times, counts, traced_s) = &passes[0];
    report.metrics = per_layer_metrics(times, counts, &analysis, traced_s / run_s_sum - 1.0);
    Ok(())
}
