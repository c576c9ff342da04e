//! Declarative scenario specifications: an experiment as *data*.
//!
//! A [`ScenarioSpec`] names one dissemination experiment — which
//! [`Process`](crate::Process) to run, on what grid, with how many
//! agents, at what radius, under which mobility/exchange rules, and
//! what scalar [`Metric`] to report — and can instantiate it into the
//! generic [`Simulation`] driver for any seed. Specs validate at build
//! time with **exactly** the rules the `Simulation` constructors
//! enforce (a buildable spec can always be run), plus one stricter
//! check: a setting the chosen kind would silently ignore (e.g. gossip
//! with a mobility rule) is rejected, so a spec always describes the
//! run that actually happens. Specs round-trip through the
//! TOML subset of [`crate::toml`], and are the unit the
//! `sparsegossip_analysis::ScenarioSweep` engine fans out over the
//! {side, k, r} axes ([`ScenarioSpec::with_axes`]) and over config keys
//! ([`ScenarioSpec::with_key`]).
//!
//! # Examples
//!
//! ```
//! use sparsegossip_core::{Metric, ProcessKind, ScenarioSpec};
//!
//! let spec = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
//!     .radius(2)
//!     .metric(Metric::Time)
//!     .build()?;
//! let t = spec.run_seed(2011);
//! assert!(t >= 0.0 && t <= spec.config().max_steps() as f64);
//!
//! // Specs are data: they serialize to the TOML subset and back.
//! let round_tripped = ScenarioSpec::from_toml_str(&spec.to_toml())?;
//! assert_eq!(spec, round_tripped);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::fmt;
use core::mem;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_grid::{Grid, Point};

use crate::toml::{format_toml_f64, TomlDoc, TomlError, MAX_EXACT_INT};
use crate::world::build_world_sim;
use crate::{
    BroadcastOutcome, Coverage, CoverageOutcome, ExchangeRule, FaultConfig, GossipOutcome,
    Infection, InfectionOutcome, Mobility, NetworkConfig, NetworkError, ProtocolOutcome, SimConfig,
    SimError, SimScratch, Simulation, WorldConfig, WorldSim,
};

/// Which dissemination [`Process`](crate::Process) a scenario runs.
///
/// The Frog model is not a separate kind: it is
/// [`Broadcast`](ProcessKind::Broadcast) with
/// [`Mobility::InformedOnly`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ProcessKind {
    /// Single-rumor broadcast (Theorems 1 and 2).
    #[default]
    Broadcast,
    /// All-to-all gossip with one distinct rumor per agent
    /// (Corollary 2). Implements neither mobility rules nor one-hop
    /// exchange; declaring them is a build error.
    Gossip,
    /// Contact infection with per-agent infection times. The process is
    /// contact-only by definition ([`Simulation::infection`] always
    /// runs at `r = 0`), so a nonzero radius — like one-hop exchange —
    /// is a build error rather than a silently ignored setting.
    Infection,
    /// Joint broadcast + informed-agent coverage (§4).
    Coverage,
    /// The protocol twin: broadcast run as real message passing
    /// ([`ProtocolBroadcast`](crate::ProtocolBroadcast)) over the same
    /// seeded trajectory, with
    /// [`NetworkConfig`](crate::NetworkConfig) fault injection. The
    /// twin defines its own network semantics, so mobility rules and
    /// one-hop exchange are build errors.
    ProtocolBroadcast,
}

impl ProcessKind {
    /// The spec-file name of this kind.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Broadcast => "broadcast",
            Self::Gossip => "gossip",
            Self::Infection => "infection",
            Self::Coverage => "coverage",
            Self::ProtocolBroadcast => "protocol-broadcast",
        }
    }

    /// All kinds, in spec-file order.
    pub const ALL: [Self; 5] = [
        Self::Broadcast,
        Self::Gossip,
        Self::Infection,
        Self::Coverage,
        Self::ProtocolBroadcast,
    ];
}

impl fmt::Display for ProcessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The scalar a scenario run reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Metric {
    /// The process's completion time in steps ( `T_B`, `T_G`, `T_I` or
    /// `T_C` depending on the kind), or the step cap if the run did not
    /// finish — the paper's phase-transition observable.
    #[default]
    Time,
    /// The fraction of the process's goal reached when the run ended,
    /// in `[0, 1]`: informed agents (broadcast), minimum rumor fraction
    /// (gossip), infected agents (infection) or covered nodes
    /// (coverage).
    Fraction,
}

impl Metric {
    /// The spec-file name of this metric.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Time => "time",
            Self::Fraction => "fraction",
        }
    }
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The typed outcome of one scenario run: the outcome type of the
/// process the spec's [`ProcessKind`] names.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub enum ScenarioOutcome {
    /// A [`ProcessKind::Broadcast`] run.
    Broadcast(BroadcastOutcome),
    /// A [`ProcessKind::Gossip`] run.
    Gossip(GossipOutcome),
    /// A [`ProcessKind::Infection`] run.
    Infection(InfectionOutcome),
    /// A [`ProcessKind::Coverage`] run.
    Coverage(CoverageOutcome),
    /// A [`ProcessKind::ProtocolBroadcast`] run.
    ProtocolBroadcast(ProtocolOutcome),
}

impl ScenarioOutcome {
    /// The completion time [`Metric::Time`] reports (`T_B`, `T_G`,
    /// `T_I`, `T_C` or the twin's completion tick), or `None` when the
    /// run hit the step cap.
    #[must_use]
    pub fn time(&self) -> Option<u64> {
        match self {
            Self::Broadcast(o) => o.broadcast_time,
            Self::Gossip(o) => o.gossip_time,
            Self::Infection(o) => o.infection_time,
            Self::Coverage(o) => o.coverage_time,
            Self::ProtocolBroadcast(o) => o.completion_time,
        }
    }

    /// The goal fraction [`Metric::Fraction`] reports, in `[0, 1]`.
    #[must_use]
    pub fn fraction(&self) -> f64 {
        match self {
            Self::Broadcast(o) => o.informed_fraction(),
            Self::Gossip(o) => o.min_rumors as f64 / o.num_rumors as f64,
            Self::Infection(o) => {
                let infected = o.per_agent.iter().filter(|t| t.is_some()).count();
                infected as f64 / o.per_agent.len() as f64
            }
            Self::Coverage(o) => o.covered as f64 / o.num_nodes as f64,
            Self::ProtocolBroadcast(o) => o.informed_fraction(),
        }
    }
}

/// Errors from reading a scenario or sweep spec file.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// The file is not valid spec TOML.
    Toml(TomlError),
    /// The spec parsed but describes an invalid simulation.
    Sim(SimError),
    /// A key is not part of the section's schema (typo guard).
    UnknownKey {
        /// The section name.
        section: String,
        /// The unrecognized key.
        key: String,
    },
    /// An enum-valued key holds an unrecognized name.
    UnknownName {
        /// The offending key.
        key: String,
        /// The unrecognized value.
        value: String,
        /// The accepted names.
        allowed: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Toml(e) => write!(f, "{e}"),
            Self::Sim(e) => write!(f, "{e}"),
            Self::UnknownKey { section, key } => {
                write!(f, "spec section [{section}] has unknown key {key:?}")
            }
            Self::UnknownName {
                key,
                value,
                allowed,
            } => write!(
                f,
                "spec key {key:?} has unknown value {value:?} (one of: {allowed})"
            ),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Toml(e) => Some(e),
            Self::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TomlError> for SpecError {
    fn from(e: TomlError) -> Self {
        Self::Toml(e)
    }
}

impl From<SimError> for SpecError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

/// A validated, runnable scenario: process kind + simulation
/// configuration + reported metric.
///
/// Built with [`ScenarioSpec::builder`] or parsed with
/// [`ScenarioSpec::from_toml_str`]; validation happens once at build
/// time (mirroring the [`Simulation`] constructors exactly), so every
/// spec value can instantiate and run a simulation for any seed.
///
/// # Examples
///
/// A gossip scenario, run for two seeds with one recycled scratch:
///
/// ```
/// use sparsegossip_core::{ProcessKind, ScenarioSpec, SimScratch};
///
/// let spec = ScenarioSpec::builder(ProcessKind::Gossip, 24, 8).radius(1).build()?;
/// let mut scratch = SimScratch::new();
/// let a = spec.run_seed_with_scratch(&mut scratch, 1);
/// let b = spec.run_seed_with_scratch(&mut scratch, 2);
/// // Scratch reuse never changes outcomes.
/// assert_eq!(a, spec.run_seed(1));
/// assert_eq!(b, spec.run_seed(2));
/// # Ok::<(), sparsegossip_core::SimError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpec {
    kind: ProcessKind,
    config: SimConfig,
    metric: Metric,
    /// Network fault axes, honored by the protocol twin (other kinds
    /// require the default ideal network).
    network: NetworkConfig,
    /// World-model axes (barriers, churn, heterogeneity, sources);
    /// the default reproduces the paper's world exactly.
    world: WorldConfig,
    /// Fault-injection and recovery axes, honored by the protocol twin
    /// (other kinds require the trivial default).
    faults: FaultConfig,
    /// Whether the step cap was given explicitly (kept so
    /// [`with_axes`](Self::with_axes) re-derives the default cap for
    /// resized cells instead of freezing the base spec's).
    explicit_max_steps: bool,
}

impl ScenarioSpec {
    /// Starts building a scenario of `kind` with `k` agents on a
    /// `side × side` grid.
    #[must_use]
    pub fn builder(kind: ProcessKind, side: u32, k: usize) -> ScenarioSpecBuilder {
        ScenarioSpecBuilder {
            kind,
            side,
            k,
            radius: 0,
            source: 0,
            max_steps: None,
            mobility: Mobility::All,
            exchange_rule: ExchangeRule::Component,
            metric: Metric::Time,
            network: NetworkConfig::IDEAL,
            world: WorldConfig::DEFAULT,
            faults: FaultConfig::DEFAULT,
        }
    }

    /// The process kind.
    #[inline]
    #[must_use]
    pub fn kind(&self) -> ProcessKind {
        self.kind
    }

    /// The reported metric.
    #[inline]
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The validated simulation configuration.
    #[inline]
    #[must_use]
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The network fault configuration (the ideal network unless the
    /// spec set any of the `drop_prob`/`delay_max`/`send_cap`/
    /// `gossip_interval` axes).
    #[inline]
    #[must_use]
    pub fn network(&self) -> &NetworkConfig {
        &self.network
    }

    /// The world-model axes ([`WorldConfig::DEFAULT`] unless the spec
    /// set any barrier/churn/heterogeneity/source key).
    #[inline]
    #[must_use]
    pub fn world(&self) -> &WorldConfig {
        &self.world
    }

    /// The fault-injection and recovery axes ([`FaultConfig::DEFAULT`]
    /// unless the spec set any crash/partition/recovery key).
    #[inline]
    #[must_use]
    pub fn faults(&self) -> &FaultConfig {
        &self.faults
    }

    /// Re-derives this spec with one `[scenario]` key set to `value`,
    /// re-validating: the sweep engine's way of expanding a config
    /// axis. Takes the keys the sweep axes vary: `drop_prob`,
    /// `gossip_interval`, `send_cap`, `barrier_density`, `churn_rate`,
    /// `hetero_fraction`, `crash_prob` and `partition_len`. Integer
    /// keys take integral values up to [`MAX_EXACT_INT`]
    /// (`u32::MAX` for `send_cap`).
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] for any other key, [`SpecError::Toml`]
    /// for a value the key cannot hold, and [`SpecError::Sim`] as
    /// [`ScenarioSpecBuilder::build`] (e.g. kinds other than the
    /// protocol twin reject a non-ideal network).
    pub fn with_key(&self, key: &str, value: f64) -> Result<Self, SpecError> {
        let bad = |expected| {
            SpecError::Toml(TomlError::BadValue {
                section: "scenario".to_string(),
                key: key.to_string(),
                expected,
            })
        };
        let int = || {
            if value >= 0.0 && value.fract() == 0.0 && value <= MAX_EXACT_INT as f64 {
                Ok(value as u64)
            } else {
                Err(bad("non-negative integer"))
            }
        };
        let mut b = self.to_builder();
        let net = b.network;
        let (mut drop, mut cap, mut interval) =
            (net.drop_prob(), net.send_cap(), net.gossip_interval());
        match key {
            "drop_prob" => drop = value,
            "gossip_interval" => interval = int()?,
            "send_cap" => {
                cap = u32::try_from(int()?).map_err(|_| bad("non-negative integer fitting u32"))?;
            }
            "barrier_density" => b.world.barrier_density = value,
            "churn_rate" => b.world.churn_rate = value,
            "hetero_fraction" => b.world.hetero_fraction = value,
            "crash_prob" => b.faults.crash_prob = value,
            "partition_len" => b.faults.partition_len = int()?,
            _ => {
                return Err(SpecError::UnknownKey {
                    section: "scenario".to_string(),
                    key: key.to_string(),
                })
            }
        }
        b.network =
            NetworkConfig::new(drop, net.delay_max(), cap, interval).map_err(bad_network_value)?;
        Ok(b.build()?)
    }

    /// Re-derives this spec at different axis values (grid side, agent
    /// count, radius), re-validating: the sweep engine's way of turning
    /// one base spec into a grid of cells. A spec built without an
    /// explicit step cap gets the cell's own default cap; an explicit
    /// cap is kept verbatim.
    ///
    /// # Errors
    ///
    /// As [`ScenarioSpecBuilder::build`] (e.g. the base source index
    /// can be out of range for a smaller `k`).
    pub fn with_axes(&self, side: u32, k: usize, radius: u32) -> Result<Self, SimError> {
        ScenarioSpecBuilder {
            side,
            k,
            radius,
            ..self.to_builder()
        }
        .build()
    }

    /// The builder holding every setting of this spec, the step cap
    /// only when it was explicit.
    fn to_builder(self) -> ScenarioSpecBuilder {
        let c = &self.config;
        ScenarioSpecBuilder {
            kind: self.kind,
            side: c.side(),
            k: c.k(),
            radius: c.radius(),
            source: c.source(),
            max_steps: self.explicit_max_steps.then(|| c.max_steps()),
            mobility: c.mobility(),
            exchange_rule: c.exchange_rule(),
            metric: self.metric,
            network: self.network,
            world: self.world,
            faults: self.faults,
        }
    }

    /// Runs the scenario once with a fresh RNG seeded from `seed` and
    /// returns the configured metric. Deterministic: the result is a
    /// pure function of the spec and the seed.
    #[must_use]
    pub fn run_seed(&self, seed: u64) -> f64 {
        let mut scratch = SimScratch::new();
        self.run_seed_with_scratch(&mut scratch, seed)
    }

    /// As [`run_seed`](Self::run_seed), recycling the caller's
    /// [`SimScratch`] across runs (one scratch per worker thread in
    /// sweeps). Scratch contents never influence the result.
    #[must_use]
    pub fn run_seed_with_scratch(&self, scratch: &mut SimScratch, seed: u64) -> f64 {
        let out = self.run_outcome_with_scratch(scratch, seed);
        let cfg = &self.config;
        match self.metric {
            Metric::Time => out.time().unwrap_or(cfg.max_steps()) as f64,
            Metric::Fraction => out.fraction(),
        }
    }

    /// Runs the scenario once with a fresh RNG seeded from `seed` and
    /// returns the full typed outcome of the spec's process.
    /// [`run_seed`](Self::run_seed) reduces this same run to the
    /// configured metric.
    pub fn run_outcome(&self, seed: u64) -> ScenarioOutcome {
        self.run_outcome_with_scratch(&mut SimScratch::new(), seed)
    }

    /// As [`run_outcome`](Self::run_outcome), recycling the caller's
    /// [`SimScratch`]. Scratch contents never influence the result.
    pub fn run_outcome_with_scratch(&self, scratch: &mut SimScratch, seed: u64) -> ScenarioOutcome {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = &self.config;
        // The spec was validated with the same rules the constructors
        // apply, so construction cannot fail here.
        match self.kind {
            ProcessKind::Broadcast => {
                // A trivial world reproduces `Simulation::broadcast`
                // draw for draw (pinned by `tests/trivial_world.rs`).
                let mut sim = WorldSim::from_spec_with_scratch(self, &mut rng, mem::take(scratch))
                    .expect("validated spec"); // detlint: allow(panic, spec was validated with the constructor's own rules)
                let out = sim.run(&mut rng);
                *scratch = sim.into_scratch();
                ScenarioOutcome::Broadcast(out)
            }
            ProcessKind::Gossip => {
                let mut sim = Simulation::gossip_with_scratch(cfg, &mut rng, mem::take(scratch))
                    .expect("validated spec"); // detlint: allow(panic, spec was validated with the constructor's own rules)
                let out = sim.run(&mut rng);
                *scratch = sim.into_scratch();
                ScenarioOutcome::Gossip(out)
            }
            ProcessKind::Infection => {
                // Infection honors only the source axes (the build gate
                // rejects every other world axis for it) and is
                // contact-only, so it always walks the open grid.
                let w = &self.world;
                let process = if w.num_sources > 1 {
                    Infection::with_sources(cfg.k(), w.num_sources)
                } else {
                    Infection::new(cfg.k(), cfg.source())
                }
                .expect("validated spec") // detlint: allow(panic, spec validation mirrors the Infection constructors)
                .mobility(cfg.mobility());
                let grid = Grid::new(cfg.side()).expect("validated spec"); // detlint: allow(panic, spec validation checked side >= 1)
                let anchor = Point::new(0, 0);
                let mut sim =
                    build_world_sim(grid, cfg, w, process, anchor, &mut rng, mem::take(scratch))
                        .expect("validated spec"); // detlint: allow(panic, spec was validated with the constructor's own rules)
                let out = sim.run(&mut rng);
                *scratch = sim.into_scratch();
                ScenarioOutcome::Infection(out)
            }
            ProcessKind::ProtocolBroadcast => {
                let mut sim = Simulation::protocol_broadcast_with_faults_with_scratch(
                    cfg,
                    self.network,
                    &self.faults,
                    seed,
                    &mut rng,
                    mem::take(scratch),
                )
                .expect("validated spec"); // detlint: allow(panic, spec was validated with the constructor's own rules)
                let out = sim.run(&mut rng);
                *scratch = sim.into_scratch();
                ScenarioOutcome::ProtocolBroadcast(out)
            }
            ProcessKind::Coverage => {
                let grid = Grid::new(cfg.side()).expect("validated spec"); // detlint: allow(panic, spec validation checked side >= 1)
                let process = Coverage::from_config(grid, cfg).expect("validated spec"); // detlint: allow(panic, spec validation mirrors Coverage::from_config)
                let mut sim = Simulation::new_with_scratch(
                    grid,
                    cfg.k(),
                    cfg.radius(),
                    cfg.max_steps(),
                    process,
                    &mut rng,
                    mem::take(scratch),
                )
                .expect("validated spec"); // detlint: allow(panic, spec was validated with the constructor's own rules)
                let out = sim.run(&mut rng);
                *scratch = sim.into_scratch();
                ScenarioOutcome::Coverage(out)
            }
        }
    }

    /// FNV-1a 64 hash of the spec's canonical TOML rendering
    /// ([`to_toml`](Self::to_toml)): two specs hash equal exactly when
    /// they are equal, so the hash is a stable content address for
    /// result caches (the analysis result store keys records by
    /// `(content_hash, seed)`).
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        crate::cellkey::fnv1a(self.to_toml().as_bytes())
    }

    /// Renders the spec as a `[scenario]` section in the TOML subset of
    /// [`crate::toml`]. [`from_toml_str`](Self::from_toml_str) parses
    /// it back to an equal spec.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = String::new();
        out.push_str("[scenario]\n");
        out.push_str(&format!("process = \"{}\"\n", self.kind));
        out.push_str(&format!("side = {}\n", self.config.side()));
        out.push_str(&format!("k = {}\n", self.config.k()));
        out.push_str(&format!("radius = {}\n", self.config.radius()));
        out.push_str(&format!("source = {}\n", self.config.source()));
        let mobility = match self.config.mobility() {
            Mobility::All => "all",
            Mobility::InformedOnly => "informed-only",
        };
        out.push_str(&format!("mobility = \"{mobility}\"\n"));
        let exchange = match self.config.exchange_rule() {
            ExchangeRule::Component => "component",
            ExchangeRule::OneHop => "one-hop",
        };
        out.push_str(&format!("exchange = \"{exchange}\"\n"));
        if self.explicit_max_steps {
            out.push_str(&format!("max_steps = {}\n", self.config.max_steps()));
        }
        if self.network.drop_prob() != 0.0 {
            out.push_str(&format!(
                "drop_prob = {}\n",
                format_toml_f64(self.network.drop_prob())
            ));
        }
        if self.network.delay_max() != 0 {
            out.push_str(&format!("delay_max = {}\n", self.network.delay_max()));
        }
        if self.network.send_cap() != 0 {
            out.push_str(&format!("send_cap = {}\n", self.network.send_cap()));
        }
        if self.network.gossip_interval() != 1 {
            out.push_str(&format!(
                "gossip_interval = {}\n",
                self.network.gossip_interval()
            ));
        }
        // World axes, non-default values only, so pre-world spec files
        // stay byte-identical.
        let w = &self.world;
        if w.barrier_density != 0.0 {
            out.push_str(&format!(
                "barrier_density = {}\n",
                format_toml_f64(w.barrier_density)
            ));
        }
        if w.churn_rate != 0.0 {
            out.push_str(&format!("churn_rate = {}\n", format_toml_f64(w.churn_rate)));
        }
        if w.hetero_fraction != 0.0 {
            out.push_str(&format!(
                "hetero_fraction = {}\n",
                format_toml_f64(w.hetero_fraction)
            ));
        }
        if w.hetero_factor != 1.0 {
            out.push_str(&format!(
                "hetero_factor = {}\n",
                format_toml_f64(w.hetero_factor)
            ));
        }
        if w.speed_fraction != 0.0 {
            out.push_str(&format!(
                "speed_fraction = {}\n",
                format_toml_f64(w.speed_fraction)
            ));
        }
        if w.speed_factor != 1 {
            out.push_str(&format!("speed_factor = {}\n", w.speed_factor));
        }
        if w.num_sources != 1 {
            out.push_str(&format!("num_sources = {}\n", w.num_sources));
        }
        if w.adversarial_sources {
            out.push_str("adversarial_sources = true\n");
        }
        // Fault axes, non-default values only, so pre-fault spec files
        // stay byte-identical (and so do their content hashes).
        let fc = &self.faults;
        if fc.crash_prob != 0.0 {
            out.push_str(&format!(
                "crash_prob = {}\n",
                format_toml_f64(fc.crash_prob)
            ));
        }
        if fc.restart_delay != 1 {
            out.push_str(&format!("restart_delay = {}\n", fc.restart_delay));
        }
        if fc.partition_start != 0 {
            out.push_str(&format!("partition_start = {}\n", fc.partition_start));
        }
        if fc.partition_len != 0 {
            out.push_str(&format!("partition_len = {}\n", fc.partition_len));
        }
        if fc.retransmit {
            out.push_str("retransmit = true\n");
        }
        if fc.anti_entropy_interval != 0 {
            out.push_str(&format!(
                "anti_entropy_interval = {}\n",
                fc.anti_entropy_interval
            ));
        }
        out.push_str(&format!("metric = \"{}\"\n", self.metric));
        out
    }

    /// Parses a spec from text holding a `[scenario]` section.
    ///
    /// # Errors
    ///
    /// [`SpecError::Toml`] on malformed text or a missing section,
    /// [`SpecError::UnknownKey`]/[`SpecError::UnknownName`] on schema
    /// violations, and [`SpecError::Sim`] when the described simulation
    /// is invalid (same rules as [`ScenarioSpecBuilder::build`]).
    pub fn from_toml_str(text: &str) -> Result<Self, SpecError> {
        Self::from_toml_doc(&TomlDoc::parse(text)?)
    }

    /// As [`from_toml_str`](Self::from_toml_str), reading the
    /// `[scenario]` section of an already-parsed document (so sweep
    /// files can carry both `[scenario]` and `[sweep]`).
    ///
    /// # Errors
    ///
    /// As [`from_toml_str`](Self::from_toml_str).
    pub fn from_toml_doc(doc: &TomlDoc) -> Result<Self, SpecError> {
        let table = doc.section("scenario")?;
        const KNOWN: [&str; 27] = [
            "process",
            "side",
            "k",
            "radius",
            "source",
            "mobility",
            "exchange",
            "max_steps",
            "drop_prob",
            "delay_max",
            "send_cap",
            "gossip_interval",
            "barrier_density",
            "churn_rate",
            "hetero_fraction",
            "hetero_factor",
            "speed_fraction",
            "speed_factor",
            "num_sources",
            "adversarial_sources",
            "crash_prob",
            "restart_delay",
            "partition_start",
            "partition_len",
            "retransmit",
            "anti_entropy_interval",
            "metric",
        ];
        for key in table.keys() {
            if !KNOWN.contains(&key) {
                return Err(SpecError::UnknownKey {
                    section: "scenario".to_string(),
                    key: key.to_string(),
                });
            }
        }
        let kind_name = table.need_str("process")?;
        let kind = ProcessKind::ALL
            .into_iter()
            .find(|k| k.as_str() == kind_name)
            .ok_or_else(|| SpecError::UnknownName {
                key: "process".to_string(),
                value: kind_name.to_string(),
                allowed: "broadcast, gossip, infection, coverage, protocol-broadcast",
            })?;
        let mut builder =
            ScenarioSpec::builder(kind, table.need_u32("side")?, table.need_usize("k")?)
                .radius(table.opt_u32("radius")?.unwrap_or(0))
                .source(table.opt_usize("source")?.unwrap_or(0));
        if let Some(cap) = table.opt_u64("max_steps")? {
            builder = builder.max_steps(cap);
        }
        let network = NetworkConfig::new(
            table.opt_f64("drop_prob")?.unwrap_or(0.0),
            table.opt_u64("delay_max")?.unwrap_or(0),
            table.opt_u32("send_cap")?.unwrap_or(0),
            table.opt_u64("gossip_interval")?.unwrap_or(1),
        )
        .map_err(bad_network_value)?;
        builder = builder.network(network);
        let world = WorldConfig {
            barrier_density: table.opt_f64("barrier_density")?.unwrap_or(0.0),
            churn_rate: table.opt_f64("churn_rate")?.unwrap_or(0.0),
            hetero_fraction: table.opt_f64("hetero_fraction")?.unwrap_or(0.0),
            hetero_factor: table.opt_f64("hetero_factor")?.unwrap_or(1.0),
            speed_fraction: table.opt_f64("speed_fraction")?.unwrap_or(0.0),
            speed_factor: table.opt_u32("speed_factor")?.unwrap_or(1),
            num_sources: table.opt_usize("num_sources")?.unwrap_or(1),
            adversarial_sources: table.opt_bool("adversarial_sources")?.unwrap_or(false),
        };
        builder = builder.world(world);
        let faults = FaultConfig {
            crash_prob: table.opt_f64("crash_prob")?.unwrap_or(0.0),
            restart_delay: table.opt_u64("restart_delay")?.unwrap_or(1),
            partition_start: table.opt_u64("partition_start")?.unwrap_or(0),
            partition_len: table.opt_u64("partition_len")?.unwrap_or(0),
            retransmit: table.opt_bool("retransmit")?.unwrap_or(false),
            anti_entropy_interval: table.opt_u64("anti_entropy_interval")?.unwrap_or(0),
        };
        builder = builder.faults(faults);
        if let Some(name) = table.opt_str("mobility")? {
            builder = builder.mobility(match name {
                "all" => Mobility::All,
                "informed-only" => Mobility::InformedOnly,
                other => {
                    return Err(SpecError::UnknownName {
                        key: "mobility".to_string(),
                        value: other.to_string(),
                        allowed: "all, informed-only",
                    })
                }
            });
        }
        if let Some(name) = table.opt_str("exchange")? {
            builder = builder.exchange_rule(match name {
                "component" => ExchangeRule::Component,
                "one-hop" => ExchangeRule::OneHop,
                other => {
                    return Err(SpecError::UnknownName {
                        key: "exchange".to_string(),
                        value: other.to_string(),
                        allowed: "component, one-hop",
                    })
                }
            });
        }
        if let Some(name) = table.opt_str("metric")? {
            builder = builder.metric(match name {
                "time" => Metric::Time,
                "fraction" => Metric::Fraction,
                other => {
                    return Err(SpecError::UnknownName {
                        key: "metric".to_string(),
                        value: other.to_string(),
                        allowed: "time, fraction",
                    })
                }
            });
        }
        Ok(builder.build()?)
    }
}

/// Maps a [`NetworkError`] from spec parsing onto the TOML error for
/// the offending key, so the report points at the right line of the
/// schema rather than inventing a new error variant.
fn bad_network_value(e: NetworkError) -> SpecError {
    let (key, expected) = match e {
        NetworkError::DropProbOutOfRange => ("drop_prob", "finite number in [0, 1]"),
        NetworkError::ZeroGossipInterval => ("gossip_interval", "integer >= 1"),
    };
    SpecError::Toml(TomlError::BadValue {
        section: "scenario".to_string(),
        key: key.to_string(),
        expected,
    })
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} side={} k={} r={} metric={}",
            self.kind,
            self.config.side(),
            self.config.k(),
            self.config.radius(),
            self.metric
        )
    }
}

/// Builder for [`ScenarioSpec`]; validation happens at
/// [`build`](ScenarioSpecBuilder::build).
#[derive(Clone, Copy, Debug)]
pub struct ScenarioSpecBuilder {
    kind: ProcessKind,
    side: u32,
    k: usize,
    radius: u32,
    source: usize,
    max_steps: Option<u64>,
    mobility: Mobility,
    exchange_rule: ExchangeRule,
    metric: Metric,
    network: NetworkConfig,
    world: WorldConfig,
    faults: FaultConfig,
}

impl ScenarioSpecBuilder {
    /// Sets the transmission radius `r` (default 0).
    #[must_use]
    pub fn radius(mut self, r: u32) -> Self {
        self.radius = r;
        self
    }

    /// Sets the initially informed agent (default 0).
    #[must_use]
    pub fn source(mut self, source: usize) -> Self {
        self.source = source;
        self
    }

    /// Sets an explicit step cap (default
    /// [`SimConfig::default_step_cap`], re-derived per cell by
    /// [`ScenarioSpec::with_axes`]).
    #[must_use]
    pub fn max_steps(mut self, cap: u64) -> Self {
        self.max_steps = Some(cap);
        self
    }

    /// Sets the mobility rule (default [`Mobility::All`]; with
    /// [`ProcessKind::Broadcast`], [`Mobility::InformedOnly`] is the
    /// Frog model).
    #[must_use]
    pub fn mobility(mut self, mobility: Mobility) -> Self {
        self.mobility = mobility;
        self
    }

    /// Sets the exchange rule (default [`ExchangeRule::Component`];
    /// honored by broadcast-family processes).
    #[must_use]
    pub fn exchange_rule(mut self, rule: ExchangeRule) -> Self {
        self.exchange_rule = rule;
        self
    }

    /// Sets the reported metric (default [`Metric::Time`]).
    #[must_use]
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Sets the network fault configuration (default
    /// [`NetworkConfig::IDEAL`]; honored only by
    /// [`ProcessKind::ProtocolBroadcast`] — any other kind rejects a
    /// non-ideal network at build time).
    #[must_use]
    pub fn network(mut self, network: NetworkConfig) -> Self {
        self.network = network;
        self
    }

    /// Sets every world-model axis at once (default
    /// [`WorldConfig::DEFAULT`]).
    #[must_use]
    pub fn world(mut self, world: WorldConfig) -> Self {
        self.world = world;
        self
    }

    /// Sets every fault-injection/recovery axis at once (default
    /// [`FaultConfig::DEFAULT`]; honored only by
    /// [`ProcessKind::ProtocolBroadcast`] — any other kind rejects a
    /// non-trivial config at build time).
    #[must_use]
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the per-node per-tick crash probability (default 0;
    /// protocol twin only).
    #[must_use]
    pub fn crash_prob(mut self, prob: f64) -> Self {
        self.faults.crash_prob = prob;
        self
    }

    /// Sets how many ticks a crashed node stays down (default 1;
    /// protocol twin only).
    #[must_use]
    pub fn restart_delay(mut self, delay: u64) -> Self {
        self.faults.restart_delay = delay;
        self
    }

    /// Declares a partition window of `len` ticks starting at `start`
    /// (default none; protocol twin only).
    #[must_use]
    pub fn partition(mut self, start: u64, len: u64) -> Self {
        self.faults.partition_start = start;
        self.faults.partition_len = len;
        self
    }

    /// Enables ack-driven retransmission with exponential backoff
    /// (default off; protocol twin only).
    #[must_use]
    pub fn retransmit(mut self, on: bool) -> Self {
        self.faults.retransmit = on;
        self
    }

    /// Sets the anti-entropy digest interval in ticks (default 0, off;
    /// protocol twin only).
    #[must_use]
    pub fn anti_entropy_interval(mut self, interval: u64) -> Self {
        self.faults.anti_entropy_interval = interval;
        self
    }

    /// Sets the city-block wall density (default 0, the open grid;
    /// broadcast only).
    #[must_use]
    pub fn barrier_density(mut self, density: f64) -> Self {
        self.world.barrier_density = density;
        self
    }

    /// Sets the per-agent per-step replacement probability (default 0,
    /// no churn; broadcast only).
    #[must_use]
    pub fn churn_rate(mut self, rate: f64) -> Self {
        self.world.churn_rate = rate;
        self
    }

    /// Sets the fraction of agents in the scaled-radius class
    /// (default 0; broadcast only).
    #[must_use]
    pub fn hetero_fraction(mut self, fraction: f64) -> Self {
        self.world.hetero_fraction = fraction;
        self
    }

    /// Sets the radius multiplier of the heterogeneous class
    /// (default 1; broadcast only).
    #[must_use]
    pub fn hetero_factor(mut self, factor: f64) -> Self {
        self.world.hetero_factor = factor;
        self
    }

    /// Sets the fraction of agents in the fast class (default 0).
    #[must_use]
    pub fn speed_fraction(mut self, fraction: f64) -> Self {
        self.world.speed_fraction = fraction;
        self
    }

    /// Sets the lazy sub-steps per step of the fast class (default 1).
    #[must_use]
    pub fn speed_factor(mut self, factor: u32) -> Self {
        self.world.speed_factor = factor;
        self
    }

    /// Sets the number of initially informed agents — the prefix
    /// `0..num_sources` (default 1; broadcast and infection).
    #[must_use]
    pub fn num_sources(mut self, sources: usize) -> Self {
        self.world.num_sources = sources;
        self
    }

    /// Anchors every source at the worst-case corner node instead of a
    /// uniform draw (default false; broadcast and infection).
    #[must_use]
    pub fn adversarial_sources(mut self, adversarial: bool) -> Self {
        self.world.adversarial_sources = adversarial;
        self
    }

    /// Validates and produces the spec.
    ///
    /// The core rules are exactly [`SimConfigBuilder::build`]'s — i.e.
    /// exactly what the [`Simulation`] constructors reject — so a spec
    /// that builds can always instantiate its simulation (pinned by the
    /// `scenario_proptests` suite). On top of those, a declared setting
    /// the chosen kind would silently ignore is rejected: gossip
    /// implements neither mobility rules nor one-hop exchange, and
    /// infection (contact-only by definition) implements neither
    /// one-hop exchange nor a nonzero radius — a spec must describe
    /// the run that actually happens.
    ///
    /// [`SimConfigBuilder::build`]: crate::SimConfigBuilder::build
    ///
    /// # Errors
    ///
    /// As [`SimConfigBuilder::build`] ([`SimError::Grid`],
    /// [`SimError::TooFewAgents`], [`SimError::SourceOutOfRange`],
    /// [`SimError::ZeroStepCap`]), plus
    /// [`SimError::UnsupportedSetting`] for kind/setting combinations
    /// the processes do not implement,
    /// [`SimError::InvalidWorldSetting`] for out-of-range world axes,
    /// and [`SimError::Grid`] when a declared barrier density cannot
    /// produce a connected map on this grid.
    pub fn build(self) -> Result<ScenarioSpec, SimError> {
        // Constructor-equivalent validation first, so the error for an
        // invalid configuration is identical to the Simulation path;
        // the stricter kind/setting checks apply only to otherwise
        // valid specs.
        let mut cb = SimConfig::builder(self.side, self.k)
            .radius(self.radius)
            .source(self.source)
            .mobility(self.mobility)
            .exchange_rule(self.exchange_rule);
        if let Some(cap) = self.max_steps {
            cb = cb.max_steps(cap);
        }
        let config = cb.build()?;
        let unsupported = |setting| SimError::UnsupportedSetting {
            kind: self.kind.as_str(),
            setting,
        };
        match self.kind {
            ProcessKind::Gossip => {
                if self.mobility != Mobility::All {
                    return Err(unsupported("mobility = \"informed-only\""));
                }
                if self.exchange_rule != ExchangeRule::Component {
                    return Err(unsupported("exchange = \"one-hop\""));
                }
            }
            ProcessKind::Infection => {
                if self.exchange_rule != ExchangeRule::Component {
                    return Err(unsupported("exchange = \"one-hop\""));
                }
                if self.radius != 0 {
                    return Err(unsupported("radius > 0 (infection is contact-only)"));
                }
            }
            ProcessKind::ProtocolBroadcast => {
                if self.mobility != Mobility::All {
                    return Err(unsupported("mobility = \"informed-only\""));
                }
                if self.exchange_rule != ExchangeRule::Component {
                    return Err(unsupported("exchange = \"one-hop\""));
                }
            }
            ProcessKind::Broadcast | ProcessKind::Coverage => {}
        }
        // Only the protocol twin implements network faults; any other
        // kind would silently ignore them.
        if self.kind != ProcessKind::ProtocolBroadcast && !self.network.is_ideal() {
            return Err(unsupported(
                "network settings (drop_prob / delay_max / send_cap / gossip_interval)",
            ));
        }
        // Same for node/partition faults and recovery: range checks
        // mirror the protocol constructors, then the combination check.
        self.faults.validate()?;
        if self.kind != ProcessKind::ProtocolBroadcast && !self.faults.is_trivial() {
            return Err(unsupported(
                "fault settings (crash_prob / restart_delay / partition_* / retransmit / anti_entropy_interval)",
            ));
        }
        // World axes: range checks mirror the world-aware constructors
        // exactly, then combination checks reject every axis the chosen
        // kind (or exchange rule) would silently ignore or mishandle.
        let w = &self.world;
        w.validate()?;
        let world_axes_active =
            w.has_barriers() || w.has_churn() || w.has_hetero_radii() || w.has_speed_classes();
        if world_axes_active && self.kind != ProcessKind::Broadcast {
            return Err(unsupported(
                "world axes (barrier_density / churn_rate / hetero_* / speed_*)",
            ));
        }
        if (w.num_sources > 1 || w.adversarial_sources)
            && !matches!(self.kind, ProcessKind::Broadcast | ProcessKind::Infection)
        {
            return Err(unsupported(
                "source axes (num_sources / adversarial_sources)",
            ));
        }
        // The one-hop exchange scans positions with a uniform radius
        // through its own unobstructed hash and never resets agents, so
        // it cannot honor walls, per-agent radii or churn.
        if self.exchange_rule == ExchangeRule::OneHop
            && (w.has_barriers() || w.has_churn() || w.has_hetero_radii())
        {
            return Err(unsupported(
                "exchange = \"one-hop\" with barrier/churn/hetero world axes",
            ));
        }
        // Sources live on the agent prefix: a non-zero source index
        // would either churn out (losing immortality) or contradict
        // the multi-source prefix.
        if self.source != 0 && (w.has_churn() || w.num_sources > 1) {
            return Err(unsupported(
                "source != 0 with churn_rate > 0 or num_sources > 1",
            ));
        }
        // Constructor-equivalent with Broadcast::with_sources.
        if w.num_sources > self.k {
            return Err(SimError::SourceOutOfRange {
                source: w.num_sources - 1,
                k: self.k,
            });
        }
        // The wall layout is part of validity: a density that closes
        // every door (or a grid too small for blocks) must fail at
        // build time, with the same GridError the constructors raise.
        w.build_barriers(self.side)?;
        Ok(ScenarioSpec {
            kind: self.kind,
            config,
            metric: self.metric,
            network: self.network,
            world: self.world,
            faults: self.faults,
            explicit_max_steps: self.max_steps.is_some(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_applies_defaults_and_validates() {
        let spec = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 8)
            .build()
            .unwrap();
        assert_eq!(spec.kind(), ProcessKind::Broadcast);
        assert_eq!(spec.metric(), Metric::Time);
        assert_eq!(spec.config().radius(), 0);
        assert_eq!(
            spec.config().max_steps(),
            SimConfig::default_step_cap(32, 8)
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::Gossip, 8, 1)
                .build()
                .unwrap_err(),
            SimError::TooFewAgents { k: 1 }
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::Coverage, 8, 4)
                .source(4)
                .build()
                .unwrap_err(),
            SimError::SourceOutOfRange { source: 4, k: 4 }
        );
    }

    #[test]
    fn settings_a_kind_cannot_honor_are_rejected() {
        // Gossip implements neither mobility rules nor one-hop
        // exchange; infection implements no one-hop exchange. The run
        // would silently ignore the setting, so the build must fail.
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::Gossip, 12, 6)
                .mobility(Mobility::InformedOnly)
                .build()
                .unwrap_err(),
            SimError::UnsupportedSetting {
                kind: "gossip",
                setting: "mobility = \"informed-only\"",
            }
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::Gossip, 12, 6)
                .exchange_rule(ExchangeRule::OneHop)
                .build()
                .unwrap_err(),
            SimError::UnsupportedSetting {
                kind: "gossip",
                setting: "exchange = \"one-hop\"",
            }
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::Infection, 12, 6)
                .exchange_rule(ExchangeRule::OneHop)
                .build()
                .unwrap_err(),
            SimError::UnsupportedSetting {
                kind: "infection",
                setting: "exchange = \"one-hop\"",
            }
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::Infection, 12, 6)
                .radius(1)
                .build()
                .unwrap_err(),
            SimError::UnsupportedSetting {
                kind: "infection",
                setting: "radius > 0 (infection is contact-only)",
            }
        );
        // Constructor-equivalent errors take precedence over the
        // stricter kind checks.
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::Infection, 0, 6)
                .radius(1)
                .build()
                .unwrap_err(),
            SimError::Grid(sparsegossip_grid::GridError::ZeroSide)
        );
        // Broadcast and coverage honor both settings.
        for kind in [ProcessKind::Broadcast, ProcessKind::Coverage] {
            assert!(ScenarioSpec::builder(kind, 12, 6)
                .mobility(Mobility::InformedOnly)
                .exchange_rule(ExchangeRule::OneHop)
                .build()
                .is_ok());
        }
        // Infection still honors the mobility rule (it delegates to
        // the driver's mobility mask).
        assert!(ScenarioSpec::builder(ProcessKind::Infection, 12, 6)
            .mobility(Mobility::InformedOnly)
            .build()
            .is_ok());
    }

    /// The largest radius `kind` accepts on test grids (infection is
    /// contact-only).
    fn test_radius(kind: ProcessKind) -> u32 {
        match kind {
            ProcessKind::Infection => 0,
            _ => 1,
        }
    }

    #[test]
    fn every_kind_runs_deterministically() {
        for kind in ProcessKind::ALL {
            let spec = ScenarioSpec::builder(kind, 12, 6)
                .radius(test_radius(kind))
                .build()
                .unwrap();
            let a = spec.run_seed(7);
            let b = spec.run_seed(7);
            assert_eq!(a, b, "{kind}: same seed must reproduce");
            assert!(a >= 0.0, "{kind}: metric must be non-negative");
        }
    }

    #[test]
    fn fraction_metric_is_in_unit_interval() {
        for kind in ProcessKind::ALL {
            let spec = ScenarioSpec::builder(kind, 12, 6)
                .radius(test_radius(kind))
                .max_steps(3)
                .metric(Metric::Fraction)
                .build()
                .unwrap();
            let f = spec.run_seed(3);
            assert!(
                (0.0..=1.0).contains(&f),
                "{kind}: fraction {f} out of range"
            );
        }
    }

    #[test]
    fn time_metric_is_capped_by_max_steps() {
        // Two agents, huge grid, 5-step cap: cannot finish, so Time
        // reports the cap.
        let spec = ScenarioSpec::builder(ProcessKind::Broadcast, 256, 2)
            .max_steps(5)
            .build()
            .unwrap();
        assert_eq!(spec.run_seed(1), 5.0);
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs_across_kinds() {
        let mut scratch = SimScratch::new();
        for kind in ProcessKind::ALL {
            let spec = ScenarioSpec::builder(kind, 14, 7)
                .radius(test_radius(kind))
                .build()
                .unwrap();
            for seed in [1u64, 2, 3] {
                assert_eq!(
                    spec.run_seed_with_scratch(&mut scratch, seed),
                    spec.run_seed(seed),
                    "{kind} seed {seed}: recycled scratch changed the outcome"
                );
            }
        }
    }

    #[test]
    fn with_axes_rederives_default_cap_but_keeps_explicit() {
        let auto = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 8)
            .build()
            .unwrap();
        let resized = auto.with_axes(64, 16, 3).unwrap();
        assert_eq!(
            resized.config().max_steps(),
            SimConfig::default_step_cap(64, 16)
        );
        assert_eq!(resized.config().radius(), 3);
        let pinned = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 8)
            .max_steps(777)
            .build()
            .unwrap();
        assert_eq!(
            pinned.with_axes(64, 16, 3).unwrap().config().max_steps(),
            777
        );
        // Axis values re-validate: k below the base source fails.
        let sourced = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 8)
            .source(5)
            .build()
            .unwrap();
        assert_eq!(
            sourced.with_axes(32, 4, 0).unwrap_err(),
            SimError::SourceOutOfRange { source: 5, k: 4 }
        );
    }

    #[test]
    fn protocol_twin_validates_like_its_process() {
        // The twin defines its own network semantics: mobility rules
        // and one-hop exchange are build errors, as for gossip.
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 12, 6)
                .mobility(Mobility::InformedOnly)
                .build()
                .unwrap_err(),
            SimError::UnsupportedSetting {
                kind: "protocol-broadcast",
                setting: "mobility = \"informed-only\"",
            }
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 12, 6)
                .exchange_rule(ExchangeRule::OneHop)
                .build()
                .unwrap_err(),
            SimError::UnsupportedSetting {
                kind: "protocol-broadcast",
                setting: "exchange = \"one-hop\"",
            }
        );
        // Network faults are the twin's alone: every other kind would
        // silently ignore them, so declaring them is a build error.
        let lossy = NetworkConfig::new(0.5, 0, 0, 1).unwrap();
        for kind in [
            ProcessKind::Broadcast,
            ProcessKind::Gossip,
            ProcessKind::Infection,
            ProcessKind::Coverage,
        ] {
            assert!(
                matches!(
                    ScenarioSpec::builder(kind, 12, 6)
                        .network(lossy)
                        .build()
                        .unwrap_err(),
                    SimError::UnsupportedSetting { .. }
                ),
                "{kind} accepted a non-ideal network"
            );
        }
        let spec = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 12, 6)
            .radius(1)
            .network(lossy)
            .build()
            .unwrap();
        assert_eq!(spec.network(), &lossy);
    }

    #[test]
    fn protocol_twin_time_matches_analytic_broadcast_per_seed() {
        // On the ideal network the spec-level twin reproduces the
        // analytic broadcast's T_B seed for seed.
        let twin = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 6)
            .radius(2)
            .build()
            .unwrap();
        let sim = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 6)
            .radius(2)
            .build()
            .unwrap();
        for seed in [2u64, 4, 8] {
            assert_eq!(twin.run_seed(seed), sim.run_seed(seed), "seed {seed}");
        }
    }

    #[test]
    fn with_key_rederives_and_revalidates() {
        let base = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 6)
            .radius(1)
            .build()
            .unwrap();
        let derived = base
            .with_key("drop_prob", 0.25)
            .and_then(|s| s.with_key("send_cap", 2.0))
            .and_then(|s| s.with_key("gossip_interval", 3.0))
            .and_then(|s| s.with_key("crash_prob", 0.1))
            .and_then(|s| s.with_key("partition_len", 5e9))
            .unwrap();
        assert_eq!(
            derived.network(),
            &NetworkConfig::new(0.25, 0, 2, 3).unwrap()
        );
        assert_eq!(derived.faults().crash_prob, 0.1);
        assert_eq!(derived.faults().partition_len, 5_000_000_000);
        assert_eq!(derived.config(), base.config());
        let analytic = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 6)
            .radius(1)
            .build()
            .unwrap();
        let world = analytic
            .with_key("barrier_density", 0.2)
            .and_then(|s| s.with_key("churn_rate", 0.05))
            .and_then(|s| s.with_key("hetero_fraction", 0.5))
            .unwrap();
        assert_eq!(
            (world.world().barrier_density, world.world().churn_rate),
            (0.2, 0.05)
        );
        assert_eq!(world.world().hetero_fraction, 0.5);
        assert!(matches!(
            analytic.with_key("drop_prob", 0.25).unwrap_err(),
            SpecError::Sim(SimError::UnsupportedSetting { .. })
        ));
        assert!(matches!(
            analytic.with_key("radius", 2.0).unwrap_err(),
            SpecError::UnknownKey { .. }
        ));
        for (key, value) in [
            ("drop_prob", 1.5),
            ("gossip_interval", 0.0),
            ("gossip_interval", 2.5),
            ("send_cap", 5e9),
            ("partition_len", -1.0),
            ("partition_len", 2f64.powi(53)),
        ] {
            assert!(
                matches!(base.with_key(key, value), Err(SpecError::Toml(_))),
                "{key} = {value} accepted"
            );
        }
    }

    #[test]
    fn network_keys_round_trip_and_stay_out_of_default_toml() {
        let ideal = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 6)
            .radius(1)
            .build()
            .unwrap();
        // Default network values never appear in the rendering, so
        // pre-network spec files stay byte-identical.
        let text = ideal.to_toml();
        for key in ["drop_prob", "delay_max", "send_cap", "gossip_interval"] {
            assert!(!text.contains(key), "ideal spec rendered {key}:\n{text}");
        }
        let lossy = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 6)
            .radius(1)
            .network(NetworkConfig::new(0.25, 2, 3, 4).unwrap())
            .build()
            .unwrap();
        let text = lossy.to_toml();
        assert!(text.contains("drop_prob = 0.25\n"), "{text}");
        assert!(text.contains("delay_max = 2\n"), "{text}");
        assert!(text.contains("send_cap = 3\n"), "{text}");
        assert!(text.contains("gossip_interval = 4\n"), "{text}");
        assert_eq!(ScenarioSpec::from_toml_str(&text).unwrap(), lossy);
    }

    #[test]
    fn fault_keys_round_trip_and_stay_out_of_default_toml() {
        let plain = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 6)
            .radius(1)
            .build()
            .unwrap();
        let text = plain.to_toml();
        for key in [
            "crash_prob",
            "restart_delay",
            "partition_start",
            "partition_len",
            "retransmit",
            "anti_entropy_interval",
        ] {
            assert!(
                !text.contains(key),
                "trivial faults rendered {key}:\n{text}"
            );
        }
        let faulty = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 16, 6)
            .radius(1)
            .crash_prob(0.05)
            .restart_delay(3)
            .partition(10, 5)
            .retransmit(true)
            .anti_entropy_interval(4)
            .build()
            .unwrap();
        let text = faulty.to_toml();
        assert!(text.contains("crash_prob = 0.05\n"), "{text}");
        assert!(text.contains("restart_delay = 3\n"), "{text}");
        assert!(text.contains("partition_start = 10\n"), "{text}");
        assert!(text.contains("partition_len = 5\n"), "{text}");
        assert!(text.contains("retransmit = true\n"), "{text}");
        assert!(text.contains("anti_entropy_interval = 4\n"), "{text}");
        assert_eq!(ScenarioSpec::from_toml_str(&text).unwrap(), faulty);
        assert_ne!(plain.content_hash(), faulty.content_hash());
    }

    #[test]
    fn fault_settings_are_the_twins_alone() {
        for kind in [
            ProcessKind::Broadcast,
            ProcessKind::Gossip,
            ProcessKind::Infection,
            ProcessKind::Coverage,
        ] {
            assert!(
                matches!(
                    ScenarioSpec::builder(kind, 12, 6)
                        .crash_prob(0.1)
                        .build()
                        .unwrap_err(),
                    SimError::UnsupportedSetting { .. }
                ),
                "{kind} accepted a fault config"
            );
            assert!(
                matches!(
                    ScenarioSpec::builder(kind, 12, 6)
                        .retransmit(true)
                        .build()
                        .unwrap_err(),
                    SimError::UnsupportedSetting { .. }
                ),
                "{kind} accepted a recovery config"
            );
        }
        // Out-of-range axes fail with the constructor-pinned error even
        // on the twin itself.
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 12, 6)
                .crash_prob(1.5)
                .build()
                .unwrap_err(),
            SimError::InvalidFaultSetting {
                key: "crash_prob",
                expected: "finite number in [0, 1]",
            }
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 12, 6)
                .restart_delay(0)
                .build()
                .unwrap_err(),
            SimError::InvalidFaultSetting {
                key: "restart_delay",
                expected: "integer >= 1",
            }
        );
    }

    #[test]
    fn faulty_twin_runs_and_with_key_rederives() {
        let base = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 12, 6)
            .radius(2)
            .retransmit(true)
            .anti_entropy_interval(2)
            .build()
            .unwrap();
        let faulty = base.with_key("crash_prob", 0.02).unwrap();
        assert_eq!(
            faulty.faults(),
            &FaultConfig {
                crash_prob: 0.02,
                ..*base.faults()
            }
        );
        assert_eq!(faulty.config(), base.config());
        let a = faulty.run_seed(5);
        assert_eq!(a, faulty.run_seed(5), "faulty runs must reproduce");
        // A zero crash probability leaves the spec untouched.
        assert_eq!(faulty.with_key("crash_prob", 0.0).unwrap(), base);
        // Non-twin kinds reject the axis at re-derivation.
        let analytic = ScenarioSpec::builder(ProcessKind::Broadcast, 12, 6)
            .build()
            .unwrap();
        assert!(matches!(
            analytic.with_key("crash_prob", 0.02).unwrap_err(),
            SpecError::Sim(SimError::UnsupportedSetting { .. })
        ));
    }

    #[test]
    fn parse_rejects_bad_network_values() {
        let base = "[scenario]\nprocess = \"protocol-broadcast\"\nside = 8\nk = 4\n";
        assert!(matches!(
            ScenarioSpec::from_toml_str(&format!("{base}drop_prob = 1.5\n")),
            Err(SpecError::Toml(TomlError::BadValue { ref key, .. })) if key == "drop_prob"
        ));
        assert!(matches!(
            ScenarioSpec::from_toml_str(&format!("{base}gossip_interval = 0\n")),
            Err(SpecError::Toml(TomlError::BadValue { ref key, .. })) if key == "gossip_interval"
        ));
    }

    #[test]
    fn toml_round_trip_is_identity() {
        let specs = [
            ScenarioSpec::builder(ProcessKind::Broadcast, 48, 24)
                .radius(3)
                .source(2)
                .mobility(Mobility::InformedOnly)
                .exchange_rule(ExchangeRule::OneHop)
                .max_steps(123_456)
                .metric(Metric::Fraction)
                .build()
                .unwrap(),
            ScenarioSpec::builder(ProcessKind::Infection, 20, 5)
                .build()
                .unwrap(),
        ];
        for spec in specs {
            let text = spec.to_toml();
            let parsed = ScenarioSpec::from_toml_str(&text).unwrap();
            assert_eq!(spec, parsed, "round trip changed the spec:\n{text}");
        }
    }

    #[test]
    fn toml_round_trip_preserves_every_world_key() {
        // Each world axis alone, then all eight keys at once: the
        // emitted TOML must parse back to the identical spec.
        let specs = [
            ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
                .barrier_density(0.25)
                .build()
                .unwrap(),
            ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
                .churn_rate(0.05)
                .build()
                .unwrap(),
            ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
                .hetero_fraction(0.5)
                .hetero_factor(2.0)
                .build()
                .unwrap(),
            ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
                .speed_fraction(0.25)
                .speed_factor(3)
                .build()
                .unwrap(),
            ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
                .num_sources(4)
                .adversarial_sources(true)
                .build()
                .unwrap(),
            ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
                .radius(2)
                .barrier_density(0.1)
                .churn_rate(0.02)
                .hetero_fraction(0.5)
                .hetero_factor(1.5)
                .speed_fraction(0.3)
                .speed_factor(2)
                .num_sources(2)
                .adversarial_sources(true)
                .build()
                .unwrap(),
            ScenarioSpec::builder(ProcessKind::Infection, 20, 5)
                .num_sources(3)
                .build()
                .unwrap(),
        ];
        for spec in specs {
            let text = spec.to_toml();
            let parsed = ScenarioSpec::from_toml_str(&text).unwrap();
            assert_eq!(spec, parsed, "round trip changed the spec:\n{text}");
        }
    }

    #[test]
    fn default_world_emits_no_world_keys() {
        // A trivial world must keep the emitted TOML byte-identical to
        // the pre-world format: none of the eight keys appear.
        let spec = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16)
            .radius(2)
            .build()
            .unwrap();
        let text = spec.to_toml();
        for key in [
            "barrier_density",
            "churn_rate",
            "hetero_fraction",
            "hetero_factor",
            "speed_fraction",
            "speed_factor",
            "num_sources",
            "adversarial_sources",
        ] {
            assert!(!text.contains(key), "default world leaked {key}:\n{text}");
        }
    }

    #[test]
    fn parse_rejects_schema_violations() {
        assert!(matches!(
            ScenarioSpec::from_toml_str("[scenario]\nprocess = \"warp\"\nside = 8\nk = 4\n"),
            Err(SpecError::UnknownName { .. })
        ));
        assert!(matches!(
            ScenarioSpec::from_toml_str(
                "[scenario]\nprocess = \"broadcast\"\nside = 8\nk = 4\ntypo = 1\n"
            ),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            ScenarioSpec::from_toml_str("[scenario]\nprocess = \"broadcast\"\nside = 8\nk = 1\n"),
            Err(SpecError::Sim(SimError::TooFewAgents { k: 1 }))
        ));
        assert!(matches!(
            ScenarioSpec::from_toml_str("[other]\nx = 1\n"),
            Err(SpecError::Toml(TomlError::MissingSection(_)))
        ));
        assert!(matches!(
            ScenarioSpec::from_toml_str(
                "[scenario]\nprocess = \"broadcast\"\nside = 8\nk = 4\nmetric = \"pace\"\n"
            ),
            Err(SpecError::UnknownName { .. })
        ));
        assert!(matches!(
            ScenarioSpec::from_toml_str(
                "[scenario]\nprocess = \"broadcast\"\nside = 8\nk = 4\nmobility = \"jets\"\n"
            ),
            Err(SpecError::UnknownName { .. })
        ));
        assert!(matches!(
            ScenarioSpec::from_toml_str(
                "[scenario]\nprocess = \"broadcast\"\nside = 8\nk = 4\nexchange = \"warp\"\n"
            ),
            Err(SpecError::UnknownName { .. })
        ));
    }

    #[test]
    fn content_hash_tracks_spec_equality() {
        let a = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 8)
            .build()
            .unwrap();
        let b = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 8)
            .build()
            .unwrap();
        assert_eq!(a.content_hash(), b.content_hash(), "equal specs hash equal");
        let c = a.with_axes(16, 8, 2).unwrap();
        assert_ne!(a.content_hash(), c.content_hash(), "radius is content");
        let d = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 8)
            .metric(Metric::Fraction)
            .build()
            .unwrap();
        assert_ne!(a.content_hash(), d.content_hash(), "metric is content");
    }

    #[test]
    fn spec_error_display_and_source() {
        use std::error::Error;
        let e = SpecError::from(SimError::ZeroStepCap);
        assert!(e.to_string().contains("positive"));
        assert!(e.source().is_some());
        let e = SpecError::UnknownKey {
            section: "scenario".into(),
            key: "oops".into(),
        };
        assert!(e.to_string().contains("oops"));
        assert!(e.source().is_none());
    }
}
