//! Subcommand implementations.
//!
//! `broadcast`, `infection`, `coverage` and `protocol` build a
//! [`ScenarioSpec`] from their options and run it through
//! [`ScenarioSpec::run_outcome`], the path sweeps take; `gossip`, whose
//! `--rumors` has no spec key, builds its [`Simulation`] directly.
//! Every option that sets a spec key is that key's CLI spelling in
//! [`SPEC_KEYS`], read by [`run_spec`].
//! `--reps`/`--threads` route multi-seed ensembles through the
//! [`Runner`], and `--json` emits machine-readable outcome lines so
//! results are scriptable.

use core::fmt;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{
    ResultStore, Runner, ScenarioSweep, StoreError, SweepError, Table, AXIS_KEYS,
};
use sparsegossip_conngraph::{critical_radius, percolation_profile};
use sparsegossip_core::spec_key::{
    KeyFamily, KeyValue, SpecKey, EXCHANGE, K, MAX_STEPS, MOBILITY, RADIUS, SIDE, SPEC_KEYS,
};
use sparsegossip_core::{
    BroadcastOutcome, CoverageOutcome, ExtinctionOutcome, FaultConfig, Gossip, GossipOutcome,
    InfectionOutcome, PredatorPrey, ProcessKind, ProtocolOutcome, ScenarioOutcome, ScenarioSpec,
    SimConfig, Simulation, SpecError,
};
use sparsegossip_grid::{Grid, Topology};
use sparsegossip_walks::multi_cover;

use crate::args::{ArgError, ParsedArgs};

/// Usage text for `help`.
pub const USAGE: &str = "\
sparsegossip — information dissemination in sparse mobile networks
(reproduction of Pettarin et al., PODC 2011)

USAGE:
  sparsegossip <command> [--option value]... [--flag]...

COMMANDS:
  broadcast    one rumor to all agents
               --side N --k K --radius R --seed S --max-steps M
               --frog (only informed agents move)
               --one-hop (one hop per step instead of component flooding)
               --reps R --threads T (multi-seed ensemble via the Runner)
               --barrier-density P --churn-rate P (walled / churning worlds)
               --hetero-fraction P --hetero-factor F (mixed contact radii)
               --speed-fraction P --speed-factor S (fast-mover class)
               --sources N --adversarial (multi-source placement)
  gossip       all rumors to all agents
               --side N --k K --radius R --seed S --rumors M
               --max-steps M
  infection    contact infection (r = 0) with per-agent infection times
               --side N --k K --seed S --max-steps M
               --sources N --adversarial (multi-source placement)
  coverage     broadcast + informed-agent coverage times
               --side N --k K --radius R --seed S --max-steps M
  protocol     message-passing protocol twin of broadcast
               --side N --k K --radius R --seed S --max-steps M
               --drop P --delay D --cap C --interval I (network faults)
               --crash P --restart-delay D (per-tick node crashes)
               --partition-start T --partition-len L (network partition)
               --retransmit --anti-entropy I (recovery layer)
  percolation  giant-component fraction around r_c = sqrt(n/k)
               --side N --k K --samples S --seed S
  cover        cover time of k independent walks
               --side N --k K --cap C --seed S
  predator     predator-prey extinction time
               --side N --predators K --preys M --radius R
               --static-preys --seed S
  sweep        scenario sweep from a TOML spec over {side, k, r} and at
               most one network, world and fault axis each, with
               phase-transition detection against r_c = sqrt(n/k)
               --spec file.toml [--replicates R --threads T --seed S]
               --barrier-densities A,B | --churn-rates A,B |
               --radius-mixes A,B (world axis; at most one, replaces
               the spec's)
               --crash-probs A,B | --partition-lens A,B
               (fault axis; at most one, replaces the spec's)
               --adaptive [--budget N --replicate-budget N]
               (knee refinement: bisect each curve's knee bracket to
               1% of r_c under the cell budget, then top up replicates
               where the CI is widest)
               --store file.bin [--resume] (checkpoint every completed
               run; --resume replays a prior store as cache hits)
  help         this text

Every command but percolation and cover accepts --json for
machine-readable outcome output. An option a command does not take is
an error.
Defaults: --side 64, --k 32, --radius 0, --seed 2011.
";

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Argument parsing or validation failed.
    Args(ArgError),
    /// The simulation could not be configured.
    Sim(sparsegossip_core::SimError),
    /// A required option was not given.
    MissingOption(&'static str),
    /// A spec file could not be read.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying error text.
        error: String,
    },
    /// A spec file could not be parsed or validated.
    Spec(SpecError),
    /// The sweep result store failed (I/O, corruption, version).
    Store(StoreError),
    /// Unknown subcommand.
    UnknownCommand(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Args(e) => write!(f, "{e}"),
            Self::Sim(e) => write!(f, "{e}"),
            Self::MissingOption(name) => write!(f, "missing required option --{name}"),
            Self::Io { path, error } => write!(f, "cannot read {path:?}: {error}"),
            Self::Spec(e) => write!(f, "{e}"),
            Self::Store(e) => write!(f, "{e}"),
            Self::UnknownCommand(c) => {
                write!(f, "unknown command {c:?}; try `sparsegossip help`")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl From<StoreError> for CliError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        Self::Args(e)
    }
}

impl From<sparsegossip_core::SimError> for CliError {
    fn from(e: sparsegossip_core::SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<SpecError> for CliError {
    fn from(e: SpecError) -> Self {
        Self::Spec(e)
    }
}

impl From<sparsegossip_grid::GridError> for CliError {
    fn from(e: sparsegossip_grid::GridError) -> Self {
        Self::Sim(sparsegossip_core::SimError::Grid(e))
    }
}

impl From<sparsegossip_walks::WalkError> for CliError {
    fn from(e: sparsegossip_walks::WalkError) -> Self {
        Self::Sim(sparsegossip_core::SimError::Walk(e))
    }
}

/// A command's implementation, the spec keys it takes as options (the
/// listed keys and every key of the listed families), and the groups of
/// other `--key value` options and the bare `--flag`s it takes.
type Command = (
    fn(&ParsedArgs) -> Result<(), CliError>,
    &'static [SpecKey],
    &'static [KeyFamily],
    &'static [&'static [&'static str]],
    &'static [&'static str],
);

/// The spec keys every run command takes.
const RUN: &[SpecKey] = &[SIDE, K, RADIUS, MAX_STEPS];

/// Routes a parsed command line to its implementation, after rejecting
/// any option or flag the command does not read.
pub fn dispatch(args: &ParsedArgs) -> Result<(), CliError> {
    use KeyFamily::{Fault, Network, World};
    let (run, keys, families, values, flags): Command = match args.command.as_str() {
        "broadcast" => (
            broadcast,
            &[SIDE, K, RADIUS, MAX_STEPS, MOBILITY, EXCHANGE],
            &[World],
            &[&["seed", "reps", "threads"]],
            &["json"],
        ),
        "gossip" => (gossip, RUN, &[], &[&["seed", "rumors"]], &["json"]),
        // `--radius` is read only to note that it is ignored; the world
        // options are read so the spec builder rejects every axis but
        // the sources with its own error.
        "infection" => (infection, RUN, &[World], &[&["seed"]], &["json"]),
        "coverage" => (coverage, RUN, &[], &[&["seed"]], &["json"]),
        "protocol" => (protocol, RUN, &[Network, Fault], &[&["seed"]], &["json"]),
        "percolation" => (
            percolation,
            &[SIDE, K, RADIUS],
            &[],
            &[&["seed", "samples"]],
            &[],
        ),
        "cover" => (cover, &[SIDE, K], &[], &[&["seed", "cap"]], &[]),
        "predator" => (
            predator,
            &[SIDE, RADIUS],
            &[],
            &[&["seed", "predators", "preys"]],
            &["json", "static-preys"],
        ),
        "sweep" => (
            sweep,
            &[],
            &[],
            &[
                &["spec", "replicates", "threads", "seed", "budget"],
                &["barrier-densities", "churn-rates", "radius-mixes"],
                &["crash-probs", "partition-lens", "replicate-budget", "store"],
            ],
            &["json", "adaptive", "resume"],
        ),
        other => return Err(CliError::UnknownCommand(other.to_string())),
    };
    let (mut values, mut flags) = (values.concat(), flags.to_vec());
    let family_keys = SPEC_KEYS.iter().filter(|k| families.contains(&k.family));
    for key in keys.iter().chain(family_keys) {
        match key.cli {
            Some(cli) if key.range.is_flag() => flags.push(cli),
            Some(cli) => values.push(cli),
            None => {}
        }
    }
    args.expect_only(&values, &flags)?;
    run(args)
}

/// The command-line spelling of `key`.
fn option(key: SpecKey) -> &'static str {
    key.cli.unwrap_or_default()
}

struct Common {
    side: u32,
    k: usize,
    radius: u32,
    seed: u64,
    json: bool,
}

fn common(args: &ParsedArgs) -> Result<Common, CliError> {
    Ok(Common {
        side: args.get(option(SIDE), 64u32)?,
        k: args.get(option(K), 32usize)?,
        radius: args.get(option(RADIUS), 0u32)?,
        seed: args.get("seed", 2011u64)?,
        json: args.flag("json"),
    })
}

fn bad(key: &str, value: impl ToString) -> CliError {
    CliError::Args(ArgError::BadValue {
        key: key.to_string(),
        value: value.to_string(),
    })
}

/// Renders `Option<u64>` as JSON (`null` when absent).
fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".to_string(), |t| t.to_string())
}

fn broadcast_json(out: &BroadcastOutcome) -> String {
    format!(
        "{{\"process\":\"broadcast\",\"broadcast_time\":{},\"informed\":{},\"k\":{}}}",
        json_opt(out.broadcast_time),
        out.informed,
        out.k
    )
}

fn gossip_json(out: &GossipOutcome) -> String {
    format!(
        "{{\"process\":\"gossip\",\"gossip_time\":{},\"min_rumors\":{},\"num_rumors\":{}}}",
        json_opt(out.gossip_time),
        out.min_rumors,
        out.num_rumors
    )
}

fn infection_json(out: &InfectionOutcome) -> String {
    let per_agent: Vec<String> = out.per_agent.iter().map(|t| json_opt(*t)).collect();
    let mean = out
        .mean_time
        .map_or_else(|| "null".to_string(), |m| format!("{m}"));
    format!(
        "{{\"process\":\"infection\",\"infection_time\":{},\"mean_time\":{mean},\"per_agent\":[{}]}}",
        json_opt(out.infection_time),
        per_agent.join(",")
    )
}

fn coverage_json(out: &CoverageOutcome) -> String {
    format!(
        "{{\"process\":\"coverage\",\"broadcast_time\":{},\"coverage_time\":{},\"covered\":{},\"num_nodes\":{}}}",
        json_opt(out.broadcast_time),
        json_opt(out.coverage_time),
        out.covered,
        out.num_nodes
    )
}

fn extinction_json(out: &ExtinctionOutcome) -> String {
    format!(
        "{{\"process\":\"predator_prey\",\"extinction_time\":{},\"survivors\":{},\"num_preys\":{}}}",
        json_opt(out.extinction_time),
        out.survivors,
        out.num_preys
    )
}

/// Builds the [`ScenarioSpec`] a run command's options describe, validated
/// exactly like a spec file: the [`Common`] geometry, the step cap
/// `default_cap`, and every spec key whose option the command line gives
/// (a flag sets a boolean key or picks a name key's second name).
/// Options a command does not take were rejected by [`dispatch`], so
/// they are absent here.
fn run_spec(
    args: &ParsedArgs,
    kind: ProcessKind,
    c: &Common,
    default_cap: u64,
) -> Result<ScenarioSpec, CliError> {
    let mut builder = ScenarioSpec::builder(kind, c.side, c.k).max_steps(default_cap);
    for key in &SPEC_KEYS {
        let Some(cli) = key.cli else { continue };
        if key.range.is_flag() {
            if args.flag(cli) {
                key.set(&mut builder, KeyValue::Int(1))?;
            }
        } else if let Some(raw) = args.get_opt::<String>(cli)? {
            key.parse(&raw)
                .and_then(|value| key.set(&mut builder, value).ok())
                .ok_or_else(|| bad(cli, raw))?;
        }
    }
    // The common radius last: infection reads `--radius` only to note
    // that it ignores it.
    Ok(builder.radius(c.radius).build()?)
}

/// The broadcast run header: the geometry, `seeds` (which seed or seeds
/// ran) and the active world axes, which a trivial world has none of.
fn run_header(spec: &ScenarioSpec, seeds: &str) -> String {
    let cfg = spec.config();
    let mut header = format!(
        "n = {}, k = {}, r = {} (r_c = {:.1}), {seeds}",
        cfg.n(),
        cfg.k(),
        cfg.radius(),
        cfg.critical_radius(),
    );
    let w = spec.world();
    let mut parts = Vec::new();
    if w.has_barriers() {
        parts.push(format!("barriers {:.2}", w.barrier_density));
    }
    if w.has_churn() {
        parts.push(format!("churn {:.3}", w.churn_rate));
    }
    if w.has_hetero_radii() {
        parts.push(format!(
            "radii {:.2} at {:.1}x",
            w.hetero_fraction, w.hetero_factor
        ));
    }
    if w.has_speed_classes() {
        parts.push(format!(
            "speeds {:.2} at {}x",
            w.speed_fraction, w.speed_factor
        ));
    }
    if w.num_sources > 1 {
        parts.push(format!("{} sources", w.num_sources));
    }
    if w.adversarial_sources {
        parts.push("adversarial".to_string());
    }
    if !parts.is_empty() {
        header.push_str(&format!(", world: {}", parts.join(", ")));
    }
    header
}

/// Prints the outcome of one run of `spec` at `seed`: its JSON line, or
/// its text form (a broadcast leads with its run header, a protocol run
/// with its network settings and ends with its message counters).
fn print_outcome(spec: &ScenarioSpec, seed: u64, out: &ScenarioOutcome, json: bool) {
    if json {
        let line = match out {
            ScenarioOutcome::Broadcast(o) => broadcast_json(o),
            ScenarioOutcome::Gossip(o) => gossip_json(o),
            ScenarioOutcome::Infection(o) => infection_json(o),
            ScenarioOutcome::Coverage(o) => coverage_json(o),
            ScenarioOutcome::ProtocolBroadcast(o) => protocol_json(o, spec.faults()),
        };
        println!("{line}");
        return;
    }
    match out {
        ScenarioOutcome::Broadcast(o) => {
            println!("{}", run_header(spec, &format!("seed = {seed}")));
            println!("{o}");
        }
        ScenarioOutcome::Coverage(o) => {
            println!("{}", reached("T_B", o.broadcast_time));
            println!(
                "{} ({}/{} nodes)",
                reached("T_C", o.coverage_time),
                o.covered,
                o.num_nodes
            );
            if let Some(r) = o.ratio() {
                println!("T_C/T_B = {r:.2}");
            }
        }
        ScenarioOutcome::Gossip(o) => println!("{o}"),
        ScenarioOutcome::Infection(o) => println!("{o}"),
        ScenarioOutcome::ProtocolBroadcast(o) => {
            let (cfg, net) = (spec.config(), spec.network());
            println!(
                "n = {}, k = {}, r = {} (r_c = {:.1}), seed = {seed}, drop = {}, \
                 delay <= {}, cap = {}, interval = {}",
                cfg.n(),
                cfg.k(),
                cfg.radius(),
                cfg.critical_radius(),
                net.drop_prob(),
                net.delay_max(),
                net.send_cap(),
                net.gossip_interval()
            );
            println!("{o}");
            let st = &o.stats;
            println!(
                "messages: {} sent, {} delivered, {} dropped; {} timer firings; log hash {:016x}",
                st.sent, st.delivered, st.dropped, st.timers, o.log_hash
            );
            if !spec.faults().is_trivial() {
                println!(
                    "faults: {} crashes, {} restarts; recovery: {} retransmits, {} digests",
                    st.crashes, st.restarts, st.retransmits, st.digests
                );
            }
        }
    }
}

/// One broadcast, or with `--reps R` an ensemble of `R` seeds through
/// the [`Runner`], each seed measured by [`ScenarioSpec::run_seed`] —
/// the entry the sweep engine uses.
fn broadcast(args: &ParsedArgs) -> Result<(), CliError> {
    let c = common(args)?;
    let reps: u32 = args.get("reps", 1u32)?;
    if reps == 0 {
        return Err(bad("reps", 0));
    }
    let threads: usize = args.get("threads", 1usize)?;
    let default_cap = SimConfig::default_step_cap(c.side, c.k);
    let spec = run_spec(args, ProcessKind::Broadcast, &c, default_cap)?;
    if reps == 1 {
        print_outcome(&spec, c.seed, &spec.run_outcome(c.seed), c.json);
        return Ok(());
    }
    let runner = Runner::new(c.seed).repetitions(reps).threads(threads);
    let report = runner.measure(|s| spec.run_seed(s));
    if c.json {
        let samples: Vec<String> = report.samples.iter().map(|s| format!("{s}")).collect();
        println!(
            "{{\"process\":\"broadcast\",\"reps\":{reps},\"mean\":{},\"median\":{},\"min\":{},\"max\":{},\"samples\":[{}]}}",
            report.summary.mean(),
            report.summary.median(),
            report.summary.min(),
            report.summary.max(),
            samples.join(",")
        );
        return Ok(());
    }
    let seeds = format!("master seed = {}, {reps} seeds", c.seed);
    println!("{}", run_header(&spec, &seeds));
    println!(
        "T_B: mean {:.1}, median {:.1}, min {:.0}, max {:.0}",
        report.summary.mean(),
        report.summary.median(),
        report.summary.min(),
        report.summary.max()
    );
    Ok(())
}

fn gossip(args: &ParsedArgs) -> Result<(), CliError> {
    let c = common(args)?;
    let rumors: usize = args.get("rumors", c.k)?;
    let grid = Grid::new(c.side)?;
    let cap = args.get(option(MAX_STEPS), SimConfig::default_step_cap(c.side, c.k))?;
    let mut rng = SmallRng::seed_from_u64(c.seed);
    let process = Gossip::with_rumors(c.k, rumors)?;
    let mut sim = Simulation::new(grid, c.k, c.radius, cap, process, &mut rng)?;
    let out = sim.run(&mut rng);
    if c.json {
        println!("{}", gossip_json(&out));
        return Ok(());
    }
    match out.gossip_time {
        Some(t) => println!("T_G = {t} ({} rumors to {} agents)", out.num_rumors, c.k),
        None => println!(
            "not finished after {cap} steps (min {}/{} rumors per agent)",
            out.min_rumors, out.num_rumors
        ),
    }
    Ok(())
}

fn infection(args: &ParsedArgs) -> Result<(), CliError> {
    let c = Common {
        radius: 0,
        ..common(args)?
    };
    if args.has_option(option(RADIUS)) {
        eprintln!("note: --radius is ignored; infection is contact-only (r = 0)");
    }
    let default_cap = SimConfig::default_step_cap(c.side, c.k);
    let spec = run_spec(args, ProcessKind::Infection, &c, default_cap)?;
    print_outcome(&spec, c.seed, &spec.run_outcome(c.seed), c.json);
    Ok(())
}

fn coverage(args: &ParsedArgs) -> Result<(), CliError> {
    let c = common(args)?;
    // Coverage runs past T_B, so it gets four times the default cap.
    let default_cap = SimConfig::default_step_cap(c.side, c.k) * 4;
    let spec = run_spec(args, ProcessKind::Coverage, &c, default_cap)?;
    print_outcome(&spec, c.seed, &spec.run_outcome(c.seed), c.json);
    Ok(())
}

/// `"T_B = 87"`, or `"T_B not reached"` for a time the run never hit.
fn reached(label: &str, time: Option<u64>) -> String {
    time.map_or_else(
        || format!("{label} not reached"),
        |t| format!("{label} = {t}"),
    )
}

fn protocol_json(out: &ProtocolOutcome, faults: &FaultConfig) -> String {
    // The log hash is a full u64; rendered as hex text so JSON
    // consumers never round it through a double. The fault counters
    // only appear when the fault layer is active, so the fault-free
    // output stays byte-identical to the pre-fault twin.
    let fault_fields = if faults.is_trivial() {
        String::new()
    } else {
        format!(
            ",\"crashes\":{},\"restarts\":{},\"retransmits\":{},\"digests\":{}",
            out.stats.crashes, out.stats.restarts, out.stats.retransmits, out.stats.digests
        )
    };
    format!(
        "{{\"process\":\"protocol\",\"completion_time\":{},\"informed\":{},\"k\":{},\
         \"sent\":{},\"delivered\":{},\"dropped\":{},\"timers\":{}{},\"log_hash\":\"{:016x}\"}}",
        json_opt(out.completion_time),
        out.informed,
        out.k,
        out.stats.sent,
        out.stats.delivered,
        out.stats.dropped,
        out.stats.timers,
        fault_fields,
        out.log_hash
    )
}

/// Runs the message-passing protocol twin over the same seeded
/// trajectory the `broadcast` command would use.
fn protocol(args: &ParsedArgs) -> Result<(), CliError> {
    let c = common(args)?;
    let default_cap = SimConfig::default_step_cap(c.side, c.k);
    let spec = run_spec(args, ProcessKind::ProtocolBroadcast, &c, default_cap)?;
    print_outcome(&spec, c.seed, &spec.run_outcome(c.seed), c.json);
    Ok(())
}

fn percolation(args: &ParsedArgs) -> Result<(), CliError> {
    let c = common(args)?;
    if args.has_option(option(RADIUS)) {
        eprintln!("note: --radius is ignored; percolation sweeps radii around r_c");
    }
    if c.k == 0 {
        return Err(bad("k", 0));
    }
    let samples: u32 = args.get("samples", 30u32)?;
    if samples == 0 {
        return Err(bad("samples", 0));
    }
    let grid = Grid::new(c.side)?;
    let rc = critical_radius(grid.num_nodes() as f64, c.k as f64);
    let radii: Vec<u32> = [0.25f64, 0.5, 0.75, 1.0, 1.5, 2.0, 3.0]
        .iter()
        .map(|f| (f * rc).round().max(1.0) as u32)
        .collect();
    let mut rng = SmallRng::seed_from_u64(c.seed);
    let profile = percolation_profile(&grid, c.k, &radii, samples, &mut rng);
    let mut table = Table::new(vec!["r".into(), "r/r_c".into(), "giant fraction".into()]);
    for p in &profile {
        table.push_row(vec![
            p.r.to_string(),
            format!("{:.2}", f64::from(p.r) / rc),
            format!("{:.3}", p.mean_giant_fraction),
        ]);
    }
    println!("r_c = sqrt(n/k) = {rc:.1}");
    println!("{table}");
    Ok(())
}

fn cover(args: &ParsedArgs) -> Result<(), CliError> {
    let c = common(args)?;
    let cap: u64 = args.get("cap", 200 * u64::from(c.side) * u64::from(c.side))?;
    if cap == 0 {
        return Err(bad("cap", 0));
    }
    let grid = Grid::new(c.side)?;
    let mut rng = SmallRng::seed_from_u64(c.seed);
    let run = multi_cover(grid, c.k, cap, &mut rng)?;
    match run.cover_time {
        Some(t) => println!("cover time = {t} ({} walks, {} nodes)", c.k, run.num_nodes),
        None => println!(
            "not covered after {cap} steps ({:.1}% done)",
            100.0 * run.coverage_fraction()
        ),
    }
    Ok(())
}

fn predator(args: &ParsedArgs) -> Result<(), CliError> {
    let c = common(args)?;
    let predators: usize = args.get("predators", 16usize)?;
    let preys: usize = args.get("preys", 8usize)?;
    let cap = 500 * u64::from(c.side) * u64::from(c.side);
    if predators == 0 {
        return Err(bad("predators", 0));
    }
    if preys == 0 {
        return Err(bad("preys", 0));
    }
    let grid = Grid::new(c.side)?;
    let mut rng = SmallRng::seed_from_u64(c.seed);
    let process =
        PredatorPrey::uniform(&grid, preys, c.radius, !args.flag("static-preys"), &mut rng)?;
    let mut sim = Simulation::new(grid, predators, c.radius, cap, process, &mut rng)?;
    let out = sim.run(&mut rng);
    if c.json {
        println!("{}", extinction_json(&out));
        return Ok(());
    }
    match out.extinction_time {
        Some(t) => println!("extinction time = {t} ({predators} predators, {preys} preys)"),
        None => println!("{} preys survived after {cap} steps", out.survivors),
    }
    Ok(())
}

/// Runs a multi-axis scenario sweep loaded from a TOML spec file and
/// reports per-cell summaries plus the detected phase transitions.
fn sweep(args: &ParsedArgs) -> Result<(), CliError> {
    let path: String = args.get("spec", String::new())?;
    if path.is_empty() {
        return Err(CliError::MissingOption("spec"));
    }
    let text = std::fs::read_to_string(&path).map_err(|e| CliError::Io {
        path: path.clone(),
        error: e.to_string(),
    })?;
    let mut sweep = ScenarioSweep::from_toml_str(&text)?;
    if let Some(reps) = args.get_opt::<u32>("replicates")? {
        if reps == 0 {
            return Err(bad("replicates", 0));
        }
        sweep = sweep.replicates(reps);
    }
    if let Some(threads) = args.get_opt("threads")? {
        sweep = sweep.threads(threads);
    }
    if let Some(seed) = args.get_opt("seed")? {
        sweep = sweep.seed(seed);
    }
    // Axis overrides replace the spec file's axis of the same family;
    // two overrides of one family are an error.
    let mut families = Vec::new();
    for option in [
        "barrier-densities",
        "churn-rates",
        "radius-mixes",
        "crash-probs",
        "partition-lens",
    ] {
        let Some(raw) = args.get_opt::<String>(option)? else {
            continue;
        };
        let key = option.replace('-', "_");
        let family = AXIS_KEYS
            .iter()
            .find(|row| row.sweep == key)
            .map(|row| row.family);
        if families.contains(&family) {
            return Err(bad(option, "at most one axis override per family"));
        }
        families.push(family);
        let values = raw
            .split(',')
            .map(|part| part.trim().parse())
            .collect::<Result<Vec<f64>, _>>()
            .map_err(|_| bad(option, &raw))?;
        sweep = sweep.axis(&key, values).map_err(|_| bad(option, &raw))?;
    }
    // Adaptive-mode overrides: --adaptive switches the mode on (the
    // spec's own `[sweep] adaptive` keys, if any, supply defaults);
    // the budget flags require it.
    let adaptive_on = args.flag("adaptive") || sweep.adaptive_config().is_some();
    let budget = args.get_opt("budget")?;
    let replicate_budget = args.get_opt("replicate-budget")?;
    if !adaptive_on && (budget.is_some() || replicate_budget.is_some()) {
        return Err(bad(
            "budget",
            "--budget/--replicate-budget require --adaptive",
        ));
    }
    if adaptive_on {
        let mut cfg = sweep.adaptive_config().unwrap_or_default();
        if let Some(budget) = budget {
            cfg.cell_budget = budget;
        }
        if let Some(replicate_budget) = replicate_budget {
            cfg.replicate_budget = replicate_budget;
        }
        sweep = sweep.adaptive(cfg);
    }
    // Checkpoint/resume: --store streams completed runs to a result
    // store; --resume reopens one and replays it as cache hits.
    let store_path: String = args.get("store", String::new())?;
    let resume = args.flag("resume");
    if resume && store_path.is_empty() {
        return Err(CliError::MissingOption("store"));
    }
    let report = if store_path.is_empty() {
        sweep.run()?
    } else {
        let path = std::path::Path::new(&store_path);
        let mut store = if resume {
            let store = ResultStore::open_resume(path)?;
            if let Some(note) = store.salvage_note() {
                eprintln!("warning: result store {store_path:?}: {note}");
            }
            store
        } else {
            ResultStore::create(path)?
        };
        sweep
            .run_with_store(Some(&mut store))
            .map_err(|e| match e {
                SweepError::Sim(e) => CliError::Sim(e),
                SweepError::Store(e) => CliError::Store(e),
            })?
    };
    if args.flag("json") {
        print!("{}", report.to_json());
        return Ok(());
    }
    println!(
        "{} sweep: {} cells × {} replicates (metric {}, master seed {})",
        report.process,
        report.cells.len(),
        report.replicates,
        report.metric,
        report.master_seed
    );
    if let Some(a) = &report.adaptive {
        println!(
            "adaptive: {} coarse + {} refined cells, {} top-up replicates",
            a.coarse_cells, a.refined_cells, a.topup_replicates
        );
    }
    println!("{}", report.table());
    let transitions = report.transitions();
    if transitions.is_empty() {
        println!(
            "no transition detected (needs >= 3 distinct radii per (side, k) \
             and a >= {:.0}x drop in the mean)",
            sparsegossip_analysis::ScenarioSweepReport::MIN_DROP_RATIO
        );
    }
    for t in &transitions {
        let (lo, hi) = t.band();
        println!(
            "transition side={} k={}: knee r = {:.1} (between r={} and r={}), \
             drop {:.1}x, predicted r_c = {:.1}, band [{:.1}, {:.1}] -> {}",
            t.side,
            t.k,
            t.r_knee,
            t.r_below,
            t.r_above,
            t.drop_ratio,
            t.predicted_rc,
            lo,
            hi,
            if t.within_band() { "WITHIN" } else { "OUTSIDE" }
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed(s: &str) -> ParsedArgs {
        ParsedArgs::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn dispatch_runs_each_command_on_tiny_inputs() {
        for cmd in [
            "broadcast --side 12 --k 6 --seed 1",
            "broadcast --side 12 --k 6 --frog --seed 1",
            "broadcast --side 12 --k 6 --one-hop --radius 1 --seed 1",
            "broadcast --side 12 --k 6 --seed 1 --reps 4 --threads 2",
            "broadcast --side 12 --k 6 --seed 1 --json",
            "broadcast --side 12 --k 6 --radius 2 --barrier-density 0.2 --seed 1",
            "broadcast --side 12 --k 6 --churn-rate 0.05 --seed 1",
            "broadcast --side 12 --k 6 --radius 2 --hetero-fraction 0.5 --hetero-factor 2 \
             --seed 1",
            "broadcast --side 12 --k 6 --speed-fraction 0.5 --speed-factor 3 --seed 1",
            "broadcast --side 12 --k 6 --sources 3 --adversarial --seed 1",
            "broadcast --side 12 --k 6 --churn-rate 0.05 --seed 1 --json",
            "broadcast --side 12 --k 6 --churn-rate 0.05 --seed 1 --reps 3 --threads 2",
            "broadcast --side 12 --k 6 --speed-fraction 0.5 --speed-factor 2 --one-hop \
             --radius 1 --seed 1",
            "gossip --side 12 --k 4 --seed 1",
            "gossip --side 12 --k 4 --rumors 2 --seed 1",
            "gossip --side 12 --k 4 --seed 1 --json",
            "infection --side 12 --k 4 --seed 1",
            "infection --side 12 --k 4 --seed 1 --json",
            "infection --side 12 --k 4 --sources 2 --seed 1",
            "infection --side 12 --k 4 --sources 2 --adversarial --seed 1 --json",
            "coverage --side 10 --k 6 --seed 1",
            "coverage --side 10 --k 6 --seed 1 --json",
            "protocol --side 12 --k 6 --radius 2 --seed 1",
            "protocol --side 12 --k 6 --radius 2 --seed 1 --json",
            "protocol --side 12 --k 6 --radius 2 --drop 0.3 --delay 1 --cap 2 --interval 2 \
             --seed 1",
            "protocol --side 12 --k 6 --radius 2 --crash 0.05 --restart-delay 2 --seed 1",
            "protocol --side 12 --k 6 --radius 2 --partition-start 3 --partition-len 5 \
             --anti-entropy 4 --seed 1",
            "protocol --side 12 --k 6 --radius 2 --drop 0.3 --crash 0.02 --retransmit \
             --anti-entropy 2 --seed 1 --json",
            "percolation --side 16 --k 8 --samples 3 --seed 1",
            "cover --side 8 --k 4 --seed 1",
            "predator --side 10 --predators 4 --preys 3 --seed 1",
            "predator --side 10 --predators 4 --preys 3 --static-preys --seed 1",
            "predator --side 10 --predators 4 --preys 3 --seed 1 --json",
        ] {
            dispatch(&parsed(cmd)).unwrap_or_else(|e| panic!("{cmd}: {e}"));
        }
    }

    #[test]
    fn sweep_runs_from_a_spec_file() {
        let path = std::env::temp_dir().join("sparsegossip_cli_sweep_unit.toml");
        std::fs::write(
            &path,
            "[scenario]\nprocess = \"broadcast\"\nside = 10\nk = 5\n\n\
             [sweep]\nsides = [8, 10]\nradii = [0, 1, 3]\nreplicates = 2\nseed = 7\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();
        dispatch(&parsed(&format!("sweep --spec {path}"))).unwrap();
        dispatch(&parsed(&format!("sweep --spec {path} --json"))).unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {path} --replicates 1 --threads 2 --seed 3"
        )))
        .unwrap();
    }

    #[test]
    fn sweep_reports_missing_and_bad_specs() {
        assert!(matches!(
            dispatch(&parsed("sweep")),
            Err(CliError::MissingOption("spec"))
        ));
        assert!(matches!(
            dispatch(&parsed("sweep --spec /nonexistent/no.toml")),
            Err(CliError::Io { .. })
        ));
        let path = std::env::temp_dir().join("sparsegossip_cli_sweep_bad.toml");
        std::fs::write(&path, "[scenario]\nprocess = \"warp\"\nside = 8\nk = 4\n").unwrap();
        let spec = path.to_str().unwrap();
        assert!(matches!(
            dispatch(&parsed(&format!("sweep --spec {spec}"))),
            Err(CliError::Spec(_))
        ));
        let good = std::env::temp_dir().join("sparsegossip_cli_sweep_reps.toml");
        std::fs::write(
            &good,
            "[scenario]\nprocess = \"broadcast\"\nside = 8\nk = 4\n",
        )
        .unwrap();
        let good = good.to_str().unwrap();
        assert!(matches!(
            dispatch(&parsed(&format!("sweep --spec {good} --replicates 0"))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn sweep_adaptive_and_store_flags() {
        let path = std::env::temp_dir().join("sparsegossip_cli_sweep_adaptive.toml");
        std::fs::write(
            &path,
            "[scenario]\nprocess = \"broadcast\"\nside = 10\nk = 5\n\n\
             [sweep]\nradii = [0, 1, 4]\nreplicates = 2\nseed = 7\n",
        )
        .unwrap();
        let spec = path.to_str().unwrap();
        dispatch(&parsed(&format!("sweep --spec {spec} --adaptive"))).unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {spec} --adaptive --budget 8 --replicate-budget 2 --json"
        )))
        .unwrap();
        // Budget flags without the mode are argument errors.
        assert!(matches!(
            dispatch(&parsed(&format!("sweep --spec {spec} --budget 8"))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        // --resume needs --store.
        assert!(matches!(
            dispatch(&parsed(&format!("sweep --spec {spec} --resume"))),
            Err(CliError::MissingOption("store"))
        ));
        // Value options given bare are typed errors, not ignored.
        for key in [
            "replicates",
            "threads",
            "seed",
            "budget",
            "replicate-budget",
        ] {
            let e = dispatch(&parsed(&format!("sweep --spec {spec} --adaptive --{key}")));
            assert!(
                matches!(&e, Err(CliError::Args(ArgError::MissingValue { key: k })) if k == key),
                "--{key}: {e:?}"
            );
        }
        // A store-backed run checkpoints, then resumes as cache hits.
        let store = std::env::temp_dir().join(format!(
            "sparsegossip_cli_sweep_store_{}.bin",
            std::process::id()
        ));
        let store_arg = store.to_str().unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {spec} --adaptive --store {store_arg}"
        )))
        .unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {spec} --adaptive --store {store_arg} --resume"
        )))
        .unwrap();
        // Resuming a missing store is a store error, not a panic.
        assert!(matches!(
            dispatch(&parsed(&format!(
                "sweep --spec {spec} --store /nonexistent/no.bin --resume"
            ))),
            Err(CliError::Store(_))
        ));
        std::fs::remove_file(&store).unwrap();
    }

    #[test]
    fn radius_without_value_is_an_error() {
        for cmd in [
            "broadcast --side 64 --radius",
            "broadcast --side 64 --radius --k 3",
            "infection --side 12 --k 4 --radius",
            "percolation --side 16 --k 8 --radius --samples 3",
        ] {
            let e = dispatch(&parsed(cmd));
            assert!(
                matches!(&e, Err(CliError::Args(ArgError::MissingValue { key })) if key == "radius"),
                "{cmd}: {e:?}"
            );
        }
    }

    #[test]
    fn world_options_reject_invalid_combinations() {
        // Out-of-range axis values surface as spec validation errors.
        let e = dispatch(&parsed("broadcast --side 12 --k 6 --barrier-density 1.5")).unwrap_err();
        assert!(e.to_string().contains("barrier_density"), "{e}");
        // One-hop exchange is build-gated against the world axes.
        let e = dispatch(&parsed(
            "broadcast --side 12 --k 6 --churn-rate 0.1 --one-hop --radius 1",
        ))
        .unwrap_err();
        assert!(matches!(e, CliError::Sim(_)), "{e}");
        // Infection takes only the source axes.
        let e = dispatch(&parsed("infection --side 12 --k 4 --churn-rate 0.1")).unwrap_err();
        assert!(matches!(e, CliError::Sim(_)), "{e}");
        // More sources than agents.
        let e = dispatch(&parsed("broadcast --side 12 --k 4 --sources 9")).unwrap_err();
        assert!(matches!(e, CliError::Sim(_)), "{e}");
        // Out-of-range values that leave the world trivial are rejected
        // too, as the same keys are in a spec file.
        for cmd in [
            "broadcast --side 12 --k 6 --barrier-density -0.5",
            "broadcast --side 12 --k 6 --churn-rate NaN",
            "broadcast --side 12 --k 6 --sources 0",
            "broadcast --side 12 --k 6 --speed-factor 0",
            "broadcast --side 12 --k 6 --hetero-factor -1",
            "infection --side 12 --k 4 --sources 0",
            "infection --side 12 --k 4 --churn-rate -1",
        ] {
            let e = dispatch(&parsed(cmd)).unwrap_err();
            assert!(matches!(e, CliError::Sim(_)), "{cmd}: {e}");
        }
    }

    #[test]
    fn zero_counts_are_bad_values() {
        for (cmd, key) in [
            ("percolation --side 16 --k 8 --samples 0", "samples"),
            ("percolation --side 16 --k 0", "k"),
            ("broadcast --side 12 --k 6 --reps 0", "reps"),
            ("cover --side 8 --k 2 --cap 0", "cap"),
            ("predator --side 8 --predators 4 --preys 0", "preys"),
            ("predator --side 8 --predators 0 --preys 2", "predators"),
        ] {
            let e = dispatch(&parsed(cmd)).unwrap_err();
            assert!(
                matches!(&e, CliError::Args(ArgError::BadValue { key: k, .. }) if k == key),
                "{cmd}: {e:?}"
            );
        }
    }

    #[test]
    fn sweep_world_axis_overrides() {
        let path = std::env::temp_dir().join("sparsegossip_cli_sweep_world.toml");
        std::fs::write(
            &path,
            "[scenario]\nprocess = \"broadcast\"\nside = 10\nk = 5\n\n\
             [sweep]\nradii = [0, 2]\nreplicates = 1\nseed = 7\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {path} --churn-rates 0.0,0.1"
        )))
        .unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {path} --barrier-densities 0.0,0.2 --json"
        )))
        .unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {path} --radius-mixes 0.0,0.5"
        )))
        .unwrap();
        // At most one world axis per invocation.
        assert!(matches!(
            dispatch(&parsed(&format!(
                "sweep --spec {path} --churn-rates 0.1 --radius-mixes 0.5"
            ))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        // Malformed or out-of-range lists are argument errors, not
        // panics.
        assert!(matches!(
            dispatch(&parsed(&format!(
                "sweep --spec {path} --churn-rates 0.1,zap"
            ))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        assert!(matches!(
            dispatch(&parsed(&format!(
                "sweep --spec {path} --barrier-densities 1.5"
            ))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn sweep_fault_axis_overrides() {
        // The fault axes only exist on the protocol twin; any other
        // kind rejects them at cell validation.
        let path = std::env::temp_dir().join("sparsegossip_cli_sweep_fault.toml");
        std::fs::write(
            &path,
            "[scenario]\nprocess = \"protocol-broadcast\"\nside = 10\nk = 5\n\n\
             [sweep]\nradii = [0, 2]\nreplicates = 1\nseed = 7\n",
        )
        .unwrap();
        let path = path.to_str().unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {path} --crash-probs 0.0,0.05"
        )))
        .unwrap();
        dispatch(&parsed(&format!(
            "sweep --spec {path} --partition-lens 0,6 --json"
        )))
        .unwrap();
        // At most one fault axis per invocation.
        assert!(matches!(
            dispatch(&parsed(&format!(
                "sweep --spec {path} --crash-probs 0.1 --partition-lens 4"
            ))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        // Malformed lists are argument errors, not panics.
        assert!(matches!(
            dispatch(&parsed(&format!(
                "sweep --spec {path} --partition-lens 4,zap"
            ))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
        assert!(matches!(
            dispatch(&parsed(&format!("sweep --spec {path} --crash-probs 1.5"))),
            Err(CliError::Args(ArgError::BadValue { .. }))
        ));
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(matches!(
            dispatch(&parsed("frobnicate")),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn invalid_config_is_reported_not_panicked() {
        let e = dispatch(&parsed("broadcast --side 0 --k 4")).unwrap_err();
        assert!(e.to_string().contains("grid"));
        let e = dispatch(&parsed("broadcast --side 8 --k 1")).unwrap_err();
        assert!(e.to_string().contains("agents"));
        let e = dispatch(&parsed("protocol --side 8 --k 4 --drop 1.5")).unwrap_err();
        assert!(matches!(e, CliError::Args(ArgError::BadValue { .. })));
        let e = dispatch(&parsed("protocol --side 8 --k 4 --interval 0")).unwrap_err();
        assert!(matches!(e, CliError::Args(ArgError::BadValue { .. })));
        // Fault settings validate through the shared FaultConfig path.
        let e = dispatch(&parsed("protocol --side 8 --k 4 --crash 1.5")).unwrap_err();
        assert!(matches!(e, CliError::Sim(_)), "{e}");
        let e = dispatch(&parsed("protocol --side 8 --k 4 --restart-delay 0")).unwrap_err();
        assert!(matches!(e, CliError::Sim(_)), "{e}");
    }

    #[test]
    fn json_outputs_are_well_formed() {
        let done = BroadcastOutcome {
            broadcast_time: Some(10),
            informed: 4,
            k: 4,
        };
        assert_eq!(
            broadcast_json(&done),
            "{\"process\":\"broadcast\",\"broadcast_time\":10,\"informed\":4,\"k\":4}"
        );
        let capped = BroadcastOutcome {
            broadcast_time: None,
            informed: 2,
            k: 4,
        };
        assert!(broadcast_json(&capped).contains("\"broadcast_time\":null"));
        let inf = InfectionOutcome {
            infection_time: Some(3),
            per_agent: vec![Some(0), None, Some(3)],
            mean_time: Some(1.5),
        };
        assert_eq!(
            infection_json(&inf),
            "{\"process\":\"infection\",\"infection_time\":3,\"mean_time\":1.5,\"per_agent\":[0,null,3]}"
        );
        let cov = CoverageOutcome {
            broadcast_time: Some(1),
            coverage_time: None,
            covered: 9,
            num_nodes: 16,
        };
        assert!(coverage_json(&cov).contains("\"coverage_time\":null"));
        let ext = ExtinctionOutcome {
            extinction_time: Some(5),
            survivors: 0,
            num_preys: 3,
        };
        assert!(extinction_json(&ext).contains("\"extinction_time\":5"));
        let g = GossipOutcome {
            gossip_time: None,
            min_rumors: 1,
            num_rumors: 4,
        };
        assert!(gossip_json(&g).contains("\"gossip_time\":null"));
        let p = ProtocolOutcome {
            completion_time: Some(7),
            informed: 4,
            k: 4,
            stats: sparsegossip_core::RuntimeStats {
                sent: 10,
                delivered: 8,
                dropped: 2,
                timers: 5,
                crashes: 1,
                restarts: 1,
                retransmits: 3,
                digests: 2,
            },
            log_hash: 0xAB,
            error: None,
        };
        // Trivial faults: the counters stay hidden so the output is
        // byte-identical to the pre-fault twin.
        assert_eq!(
            protocol_json(&p, &FaultConfig::DEFAULT),
            "{\"process\":\"protocol\",\"completion_time\":7,\"informed\":4,\"k\":4,\
             \"sent\":10,\"delivered\":8,\"dropped\":2,\"timers\":5,\
             \"log_hash\":\"00000000000000ab\"}"
        );
        let faulty = FaultConfig {
            crash_prob: 0.1,
            retransmit: true,
            ..FaultConfig::DEFAULT
        };
        assert_eq!(
            protocol_json(&p, &faulty),
            "{\"process\":\"protocol\",\"completion_time\":7,\"informed\":4,\"k\":4,\
             \"sent\":10,\"delivered\":8,\"dropped\":2,\"timers\":5,\
             \"crashes\":1,\"restarts\":1,\"retransmits\":3,\"digests\":2,\
             \"log_hash\":\"00000000000000ab\"}"
        );
    }

    #[test]
    fn coverage_text_prints_times_not_options() {
        assert_eq!(reached("T_B", Some(87)), "T_B = 87");
        assert_eq!(reached("T_C", None), "T_C not reached");
    }

    #[test]
    fn undeclared_options_are_rejected_before_the_run() {
        let unknown = |key: &str| ArgError::UnknownOption {
            key: key.to_string(),
        };
        for (cmd, key) in [
            // A misspelt option used to run at the default radius.
            ("broadcast --side 8 --k 4 --radus 5", "radus"),
            // `broadcast` has no `--source`.
            ("broadcast --side 8 --k 4 --source 9", "source"),
            // A value given to a flag used to turn the flag off.
            ("broadcast --side 8 --k 4 --json 1", "json"),
            ("predator --side 8 --k 4", "k"),
            ("cover --side 8 --k 4 --radius 2", "radius"),
            ("sweep --spec x.toml --frog", "frog"),
        ] {
            match dispatch(&parsed(cmd)) {
                Err(CliError::Args(e)) => assert_eq!(e, unknown(key), "{cmd}"),
                other => panic!("{cmd}: {other:?}"),
            }
        }
        // Infection still takes `--radius`, with its "ignored" note.
        dispatch(&parsed("infection --side 12 --k 4 --radius 3 --seed 1")).unwrap();
        // Every run command takes `--max-steps`.
        for cmd in ["broadcast", "gossip", "infection", "coverage", "protocol"] {
            dispatch(&parsed(&format!("{cmd} --side 8 --k 4 --max-steps 3"))).unwrap();
        }
    }

    #[test]
    fn usage_mentions_every_command() {
        for cmd in [
            "broadcast",
            "gossip",
            "infection",
            "coverage",
            "protocol",
            "percolation",
            "cover",
            "predator",
            "sweep",
            "--json",
        ] {
            assert!(USAGE.contains(cmd), "usage missing {cmd}");
        }
    }
}
