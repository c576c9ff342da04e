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
use sparsegossip_grid::{Grid, Topology};

use crate::spec_key::{self, Field, KeyDefault, SPEC_KEYS};
use crate::toml::{TomlDoc, TomlError};
use crate::world::build_world_sim;
use crate::{
    BroadcastOutcome, Coverage, CoverageOutcome, ExchangeRule, FaultConfig, Gossip, GossipOutcome,
    Infection, InfectionOutcome, Mobility, NetworkConfig, Process, ProtocolOutcome, SimConfig,
    SimError, SimScratch, Simulation, WorldConfig, WorldGrid,
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
    /// All-to-all gossip (Corollary 2): one distinct rumor per agent,
    /// or the `rumors` key's count held by the first agents. Implements
    /// neither mobility rules nor one-hop exchange; declaring them is a
    /// build error.
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
        spec_key::PROCESS.name_of(self.to_value())
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
        spec_key::METRIC.name_of(self.to_value())
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
    /// Every setting, validated; the step cap only when it was given
    /// explicitly, so [`with_axes`](Self::with_axes) re-derives the
    /// default cap for resized cells instead of freezing the base
    /// spec's.
    settings: ScenarioSpecBuilder,
    /// The simulation configuration the settings describe.
    config: SimConfig,
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
            rumors: None,
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
        self.settings.kind
    }

    /// The reported metric.
    #[inline]
    #[must_use]
    pub fn metric(&self) -> Metric {
        self.settings.metric
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
        &self.settings.network
    }

    /// The world-model axes ([`WorldConfig::DEFAULT`] unless the spec
    /// set any barrier/churn/heterogeneity/source key).
    #[inline]
    #[must_use]
    pub fn world(&self) -> &WorldConfig {
        &self.settings.world
    }

    /// The fault-injection and recovery axes ([`FaultConfig::DEFAULT`]
    /// unless the spec set any crash/partition/recovery key).
    #[inline]
    #[must_use]
    pub fn faults(&self) -> &FaultConfig {
        &self.settings.faults
    }

    /// Re-derives this spec with one `[scenario]` key set to `value`,
    /// re-validating: the sweep engine's way of expanding a config
    /// axis. Takes the keys whose
    /// [`SpecKey::with_key`](crate::spec_key::SpecKey::with_key) is set.
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] for any other key, [`SpecError::Toml`]
    /// for a value outside the key's range
    /// ([`SpecKey::value_of`](crate::spec_key::SpecKey::value_of)), and
    /// [`SpecError::Sim`] as [`ScenarioSpecBuilder::build`] (e.g. kinds
    /// other than the protocol twin reject a non-ideal network).
    pub fn with_key(&self, key: &str, value: f64) -> Result<Self, SpecError> {
        let Some(row) = SPEC_KEYS.iter().find(|row| row.with_key && row.name == key) else {
            return Err(SpecError::UnknownKey {
                section: "scenario".to_string(),
                key: key.to_string(),
            });
        };
        let value = row
            .value_of(value)
            .ok_or_else(|| row.bad(row.range.expected()))?;
        let mut b = self.settings;
        row.set(&mut b, value)?;
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
            ..self.settings
        }
        .build()
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
        match self.settings.metric {
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
        #[expect(
            clippy::expect_used,
            reason = "spec was validated with the constructors' own rules"
        )]
        let outcome = self.try_run(scratch, seed).expect("validated spec");
        outcome
    }

    /// The run behind [`run_outcome_with_scratch`](Self::run_outcome_with_scratch),
    /// with each constructor's error propagated. The spec was validated
    /// with the same rules the constructors apply, so none is returned.
    fn try_run(&self, scratch: &mut SimScratch, seed: u64) -> Result<ScenarioOutcome, SimError> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let cfg = &self.config;
        let taken = mem::take(scratch);
        Ok(match self.settings.kind {
            // Every kind but the twin runs on the spec's world; a trivial
            // world reproduces the plain constructors draw for draw
            // (pinned by `tests/trivial_world.rs`).
            ProcessKind::Broadcast => {
                let sim = Simulation::from_spec_with_scratch(self, &mut rng, taken)?;
                ScenarioOutcome::Broadcast(finish(sim, &mut rng, scratch))
            }
            ProcessKind::Infection => {
                // Infection honors only the source axes (the build gate
                // rejects every other world axis for it), so it always
                // walks the open grid.
                let w = &self.settings.world;
                let process = if w.num_sources > 1 {
                    Infection::with_sources(cfg.k(), w.num_sources)?
                } else {
                    Infection::new(cfg.k(), cfg.source())?
                }
                .mobility(cfg.mobility());
                let sim = build_world_sim(self, process, &mut rng, taken)?;
                ScenarioOutcome::Infection(finish(sim, &mut rng, scratch))
            }
            ProcessKind::Gossip => {
                let rumors = self.settings.rumors.unwrap_or(cfg.k());
                let process = Gossip::with_rumors(cfg.k(), rumors)?;
                let sim = build_world_sim(self, process, &mut rng, taken)?;
                ScenarioOutcome::Gossip(finish(sim, &mut rng, scratch))
            }
            ProcessKind::ProtocolBroadcast => {
                let sim = Simulation::protocol_broadcast_with_faults_with_scratch(
                    cfg,
                    self.settings.network,
                    &self.settings.faults,
                    seed,
                    &mut rng,
                    taken,
                )?;
                ScenarioOutcome::ProtocolBroadcast(finish(sim, &mut rng, scratch))
            }
            ProcessKind::Coverage => {
                let process = Coverage::from_config(Grid::new(cfg.side())?, cfg)?;
                let sim = build_world_sim(self, process, &mut rng, taken)?;
                ScenarioOutcome::Coverage(finish(sim, &mut rng, scratch))
            }
        })
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
        let mut out = String::from("[scenario]\n");
        for key in &SPEC_KEYS {
            out.extend(key.render(key.get(&self.settings)));
        }
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
        if let Some(key) = table
            .keys()
            .find(|key| SPEC_KEYS.iter().all(|row| row.name != *key))
        {
            return Err(SpecError::UnknownKey {
                section: "scenario".to_string(),
                key: key.to_string(),
            });
        }
        let mut b = ScenarioSpec::builder(ProcessKind::Broadcast, 0, 0);
        for key in &SPEC_KEYS {
            match key.read(table)? {
                Some(value) => key.set(&mut b, value)?,
                None if key.default == KeyDefault::Required => {
                    return Err(SpecError::Toml(TomlError::MissingKey {
                        section: "scenario".to_string(),
                        key: key.name.to_string(),
                    }))
                }
                None => {}
            }
        }
        Ok(b.build()?)
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} side={} k={} r={} metric={}",
            self.settings.kind,
            self.config.side(),
            self.config.k(),
            self.config.radius(),
            self.settings.metric
        )
    }
}

/// Builder for [`ScenarioSpec`]; validation happens at
/// [`build`](ScenarioSpecBuilder::build).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioSpecBuilder {
    pub(crate) kind: ProcessKind,
    pub(crate) side: u32,
    pub(crate) k: usize,
    pub(crate) radius: u32,
    pub(crate) source: usize,
    pub(crate) max_steps: Option<u64>,
    pub(crate) rumors: Option<usize>,
    pub(crate) mobility: Mobility,
    pub(crate) exchange_rule: ExchangeRule,
    pub(crate) metric: Metric,
    pub(crate) network: NetworkConfig,
    pub(crate) world: WorldConfig,
    pub(crate) faults: FaultConfig,
}

/// Builder setters that assign their argument to one field.
macro_rules! setters {
    ($($(#[$doc:meta])* $name:ident($ty:ty) => $($field:ident).+;)+) => {$(
        $(#[$doc])*
        #[must_use]
        pub fn $name(mut self, value: $ty) -> Self {
            self.$($field).+ = value;
            self
        }
    )+};
}

impl ScenarioSpecBuilder {
    setters! {
        /// Sets the transmission radius `r` (default 0).
        radius(u32) => radius;
        /// Sets the initially informed agent (default 0).
        source(usize) => source;
        /// Sets the mobility rule (default [`Mobility::All`]; with
        /// [`ProcessKind::Broadcast`], [`Mobility::InformedOnly`] is the
        /// Frog model).
        mobility(Mobility) => mobility;
        /// Sets the exchange rule (default [`ExchangeRule::Component`];
        /// honored by broadcast-family processes).
        exchange_rule(ExchangeRule) => exchange_rule;
        /// Sets the reported metric (default [`Metric::Time`]).
        metric(Metric) => metric;
        /// Sets the network fault configuration (default
        /// [`NetworkConfig::IDEAL`]; honored only by
        /// [`ProcessKind::ProtocolBroadcast`] — any other kind rejects a
        /// non-ideal network at build time).
        network(NetworkConfig) => network;
        /// Sets every world-model axis at once (default
        /// [`WorldConfig::DEFAULT`]).
        world(WorldConfig) => world;
        /// Sets every fault-injection/recovery axis at once (default
        /// [`FaultConfig::DEFAULT`]; honored only by
        /// [`ProcessKind::ProtocolBroadcast`] — any other kind rejects a
        /// non-trivial config at build time).
        faults(FaultConfig) => faults;
        /// Sets the per-node per-tick crash probability (default 0;
        /// protocol twin only).
        crash_prob(f64) => faults.crash_prob;
        /// Sets how many ticks a crashed node stays down (default 1;
        /// protocol twin only).
        restart_delay(u64) => faults.restart_delay;
        /// Enables ack-driven retransmission with exponential backoff
        /// (default off; protocol twin only).
        retransmit(bool) => faults.retransmit;
        /// Sets the anti-entropy digest interval in ticks (default 0, off;
        /// protocol twin only).
        anti_entropy_interval(u64) => faults.anti_entropy_interval;
        /// Sets the city-block wall density (default 0, the open grid;
        /// broadcast only).
        barrier_density(f64) => world.barrier_density;
        /// Sets the per-agent per-step replacement probability (default 0,
        /// no churn; broadcast only).
        churn_rate(f64) => world.churn_rate;
        /// Sets the fraction of agents in the scaled-radius class
        /// (default 0; broadcast only).
        hetero_fraction(f64) => world.hetero_fraction;
        /// Sets the radius multiplier of the heterogeneous class
        /// (default 1; broadcast only).
        hetero_factor(f64) => world.hetero_factor;
        /// Sets the fraction of agents in the fast class (default 0).
        speed_fraction(f64) => world.speed_fraction;
        /// Sets the lazy sub-steps per step of the fast class (default 1).
        speed_factor(u32) => world.speed_factor;
        /// Sets the number of initially informed agents — the prefix
        /// `0..num_sources` (default 1; broadcast and infection).
        num_sources(usize) => world.num_sources;
        /// Anchors every source at the worst-case corner node instead of a
        /// uniform draw (default false; broadcast and infection).
        adversarial_sources(bool) => world.adversarial_sources;
    }

    /// Sets an explicit step cap (default
    /// [`SimConfig::default_step_cap`], re-derived per cell by
    /// [`ScenarioSpec::with_axes`]).
    #[must_use]
    pub fn max_steps(mut self, cap: u64) -> Self {
        self.max_steps = Some(cap);
        self
    }

    /// Sets the number of rumors, held by the first `rumors` agents
    /// (default one per agent; gossip only).
    #[must_use]
    pub fn rumors(mut self, rumors: usize) -> Self {
        self.rumors = Some(rumors);
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

    /// Validates and produces the spec.
    ///
    /// The core rules are exactly [`SimConfigBuilder::build`]'s — i.e.
    /// exactly what the [`Simulation`] constructors reject — so a spec
    /// that builds can always instantiate its simulation (pinned by the
    /// `scenario_proptests` suite). On top of those, a declared setting
    /// the chosen kind would silently ignore is rejected: gossip
    /// implements neither mobility rules nor one-hop exchange, and
    /// infection (contact-only by definition) implements neither
    /// one-hop exchange nor a nonzero radius, and only gossip takes a
    /// rumor count — a spec must describe the run that actually happens.
    ///
    /// [`SimConfigBuilder::build`]: crate::SimConfigBuilder::build
    ///
    /// # Errors
    ///
    /// As [`SimConfigBuilder::build`] ([`SimError::Grid`],
    /// [`SimError::TooFewAgents`], [`SimError::SourceOutOfRange`],
    /// [`SimError::ZeroStepCap`]), [`SimError::RumorCountOutOfRange`]
    /// as [`Gossip::with_rumors`], plus
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
                if let Some(num_rumors) = self.rumors.filter(|&n| n == 0 || n > self.k) {
                    return Err(SimError::RumorCountOutOfRange {
                        num_rumors,
                        k: self.k,
                    });
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
        if self.kind != ProcessKind::Gossip && self.rumors.is_some() {
            return Err(unsupported("rumors"));
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
        // build time, through the constructor's own topology build.
        WorldGrid::new(self.side, w)?;
        Ok(ScenarioSpec {
            settings: self,
            config,
        })
    }
}

/// Runs `sim` to completion or its step cap and hands its warmed-up
/// buffers back to `scratch`.
fn finish<P: Process, T: Topology>(
    mut sim: Simulation<P, T>,
    rng: &mut SmallRng,
    scratch: &mut SimScratch,
) -> P::Outcome {
    let out = sim.run(rng);
    *scratch = sim.into_scratch();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec_key::{KeyRange, KeyValue};

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
                expected: "a finite number in [0, 1]",
            }
        );
        assert_eq!(
            ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 12, 6)
                .restart_delay(0)
                .build()
                .unwrap_err(),
            SimError::InvalidFaultSetting {
                key: "restart_delay",
                expected: "an integer >= 1",
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
        // Every row of the key table alone at a non-default value, on
        // the first kind that takes it, is rendered and parses back.
        for key in &SPEC_KEYS {
            let name = key.name;
            let value = match key.range {
                KeyRange::Unit => KeyValue::Real(0.25),
                KeyRange::NonNegative => KeyValue::Real(2.5),
                KeyRange::Int { min, .. } => {
                    assert!(min <= 1, "{name}: `expected` names mins 0 and 1 only");
                    KeyValue::Int(min + 3)
                }
                KeyRange::Bool | KeyRange::Names(_) => KeyValue::Int(1),
            };
            let default = ScenarioSpec::builder(ProcessKind::Broadcast, 32, 16);
            if let KeyDefault::Omitted(omitted) = key.default {
                assert_eq!(key.get(&default), omitted, "{name}: builder default");
            }
            assert_ne!(key.get(&default), value, "{name}");
            let spec = ProcessKind::ALL
                .into_iter()
                .find_map(|kind| {
                    let mut b = ScenarioSpec::builder(kind, 32, 16);
                    key.set(&mut b, value).unwrap();
                    b.build().ok()
                })
                .unwrap_or_else(|| panic!("no kind takes {name} = {value:?}"));
            assert_eq!(key.get(&spec.settings), value, "{name}");
            let text = spec.to_toml();
            assert!(text.contains(&format!("\n{name} = ")), "{name}:\n{text}");
            let parsed = ScenarioSpec::from_toml_str(&text).unwrap();
            assert_eq!(spec, parsed, "round trip changed {name}:\n{text}");
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
