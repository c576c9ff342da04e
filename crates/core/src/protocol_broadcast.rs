//! The protocol twin as a pluggable [`Process`]: real message passing
//! over the simulator's own seeded trajectory.
//!
//! [`ProtocolBroadcast`] wraps `sparsegossip_protocol`'s
//! [`NodeRuntime`] so the generic [`Simulation`] driver supplies
//! exactly what it supplies the analytic broadcast — the same uniform
//! placement draws and the same per-step lazy-walk draws — while the
//! rumor spreads by explicit `Gossip`/`GossipAck` messages instead of
//! component flooding. Because the process opts out of component
//! labelling (`NEEDS_COMPONENTS = false` and no mobility mask), the
//! driver's RNG consumption is identical draw-for-draw to
//! [`Simulation::broadcast`]'s, so simulator and twin literally share a
//! trajectory when given the same seed; all protocol-level randomness
//! (loss, delay) lives in the runtime's private per-node streams.

use core::fmt;
use core::ops::ControlFlow;

use rand::RngExt;
use sparsegossip_grid::Grid;
use sparsegossip_protocol::{
    FaultPlan, NetworkConfig, NodeRuntime, RecoveryConfig, RuntimeError, RuntimeStats,
};
use sparsegossip_walks::BitSet;

use crate::process::{ComponentsScope, ExchangeCtx, Process, SimScratch, Simulation};
use crate::{SimConfig, SimError};

/// Message-passing broadcast: each agent is a protocol node.
///
/// Construction mirrors [`Broadcast`](crate::Broadcast) — same agent
/// count and source validation — plus a [`NetworkConfig`] for fault
/// injection and a `protocol_seed` rooting the nodes' private RNG
/// streams (conventionally the run's master seed; the streams are
/// salted so they never collide with the mobility stream).
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{NetworkConfig, ProtocolBroadcast, SimConfig, Simulation};
///
/// let config = SimConfig::builder(16, 4).radius(2).build()?;
/// let mut rng = SmallRng::seed_from_u64(11);
/// let mut sim = Simulation::protocol_broadcast(&config, NetworkConfig::IDEAL, 11, &mut rng)?;
/// let out = sim.run(&mut rng);
/// assert_eq!(out.k, 4);
/// # Ok::<(), sparsegossip_core::SimError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ProtocolBroadcast {
    runtime: NodeRuntime,
    k: usize,
    error: Option<RuntimeError>,
}

impl ProtocolBroadcast {
    /// Creates the process for `k` nodes with one informed `source`.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooFewAgents`] if `k < 2`;
    /// * [`SimError::SourceOutOfRange`] if `source ≥ k`.
    pub fn new(
        k: usize,
        source: usize,
        net: NetworkConfig,
        protocol_seed: u64,
    ) -> Result<Self, SimError> {
        if k < 2 {
            return Err(SimError::TooFewAgents { k });
        }
        if source >= k {
            return Err(SimError::SourceOutOfRange { source, k });
        }
        Ok(Self {
            runtime: NodeRuntime::new(k, source, net, protocol_seed, 1),
            k,
            error: None,
        })
    }

    /// Creates the process described by `config` (agent count, source).
    ///
    /// # Errors
    ///
    /// As [`ProtocolBroadcast::new`].
    pub fn from_config(
        config: &SimConfig,
        net: NetworkConfig,
        protocol_seed: u64,
    ) -> Result<Self, SimError> {
        Self::new(config.k(), config.source(), net, protocol_seed)
    }

    /// Sets the scheduler worker-thread count (`≥ 1`). Purely a
    /// wall-clock knob: results are identical for every value.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.runtime.set_workers(workers);
        self
    }

    /// Enables full event-record keeping (the log hash is always on).
    #[must_use]
    pub fn record_events(mut self, on: bool) -> Self {
        self.runtime.set_recording(on);
        self
    }

    /// Installs a fault plan (seeded crashes/restarts and scheduled
    /// partitions). The default, [`FaultPlan::NONE`], injects nothing
    /// and leaves the event log byte-identical to the fault-free twin.
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.runtime.set_fault_plan(plan);
        self
    }

    /// Installs a recovery configuration (retransmission with backoff,
    /// periodic anti-entropy digests). The default is
    /// [`RecoveryConfig::OFF`].
    #[must_use]
    pub fn recovery(mut self, recovery: RecoveryConfig) -> Self {
        self.runtime.set_recovery(recovery);
        self
    }

    /// The underlying node runtime (event log, stats, per-node state).
    #[must_use]
    pub fn runtime(&self) -> &NodeRuntime {
        &self.runtime
    }
}

impl Process for ProtocolBroadcast {
    type Outcome = ProtocolOutcome;

    /// The runtime finds neighbors itself (through the same
    /// `SpatialHash`), so the driver never labels components — which
    /// also keeps its RNG draws identical to the analytic broadcast's.
    const NEEDS_COMPONENTS: bool = false;

    fn agent_count(&self) -> Option<usize> {
        Some(self.k)
    }

    fn components_scope(&self) -> ComponentsScope<'_> {
        ComponentsScope::None
    }

    fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        match self
            .runtime
            .tick(ctx.time, ctx.positions, ctx.radius, ctx.side)
        {
            Ok(true) => ControlFlow::Break(()),
            Ok(false) => ControlFlow::Continue(()),
            Err(e) => {
                // The runtime is unusable; end the run and surface the
                // failure on the outcome instead of panicking the
                // driver.
                self.error = Some(e);
                ControlFlow::Break(())
            }
        }
    }

    fn informed(&self) -> Option<&BitSet> {
        Some(self.runtime.informed())
    }

    fn outcome(&self, _time: u64) -> ProtocolOutcome {
        ProtocolOutcome {
            completion_time: self.runtime.completed_at(),
            informed: self.runtime.informed_count(),
            k: self.k,
            stats: *self.runtime.stats(),
            log_hash: self.runtime.log().hash(),
            error: self.error,
        }
    }
}

/// The result of a protocol-twin broadcast run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolOutcome {
    /// The tick on which the last node learned the rumor (`T_B`), or
    /// `None` if the run hit its step cap first.
    pub completion_time: Option<u64>,
    /// Number of informed nodes when the run ended.
    pub informed: usize,
    /// Total number of nodes.
    pub k: usize,
    /// Message counters (sends, deliveries, drops, timer firings).
    pub stats: RuntimeStats,
    /// Rolling hash of the full event log — byte-reproducibility in
    /// one comparable word.
    pub log_hash: u64,
    /// A runtime failure that aborted the run (worker panic), if any.
    pub error: Option<RuntimeError>,
}

impl ProtocolOutcome {
    /// Whether every node was informed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.completion_time.is_some()
    }

    /// Informed nodes as a fraction of all nodes.
    #[must_use]
    pub fn informed_fraction(&self) -> f64 {
        self.informed as f64 / self.k as f64
    }
}

impl fmt::Display for ProtocolOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.completion_time {
            Some(t) => write!(f, "protocol broadcast completed at tick {t}"),
            None => write!(
                f,
                "protocol broadcast incomplete ({}/{} informed)",
                self.informed, self.k
            ),
        }
    }
}

impl Simulation<ProtocolBroadcast, Grid> {
    /// Builds a protocol-twin broadcast on the bounded grid described
    /// by `config`, with agents placed uniformly at random.
    ///
    /// `rng` drives placement and mobility exactly as in
    /// [`Simulation::broadcast`]; `protocol_seed` roots the nodes'
    /// private message-level streams.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors ([`SimError::Grid`],
    /// [`SimError::Walk`], [`SimError::TooFewAgents`],
    /// [`SimError::SourceOutOfRange`], [`SimError::ZeroStepCap`]).
    pub fn protocol_broadcast<R: RngExt>(
        config: &SimConfig,
        net: NetworkConfig,
        protocol_seed: u64,
        rng: &mut R,
    ) -> Result<Self, SimError> {
        Self::protocol_broadcast_with_faults_with_scratch(
            config,
            net,
            &crate::FaultConfig::DEFAULT,
            protocol_seed,
            rng,
            SimScratch::new(),
        )
    }

    /// As [`Simulation::protocol_broadcast`], reusing a recycled
    /// [`SimScratch`] so repeated runs share hot-path buffers, and
    /// additionally installing the fault-injection and recovery axes of
    /// `faults` (validated by the caller; a trivial config is exactly
    /// the fault-free twin, byte for byte).
    ///
    /// # Errors
    ///
    /// As [`Simulation::protocol_broadcast`], plus
    /// [`SimError::InvalidFaultSetting`] for out-of-range fault axes.
    pub fn protocol_broadcast_with_faults_with_scratch<R: RngExt>(
        config: &SimConfig,
        net: NetworkConfig,
        faults: &crate::FaultConfig,
        protocol_seed: u64,
        rng: &mut R,
        scratch: SimScratch,
    ) -> Result<Self, SimError> {
        faults.validate()?;
        let grid = Grid::new(config.side())?;
        Simulation::new_with_scratch(
            grid,
            config.k(),
            config.radius(),
            config.max_steps(),
            ProtocolBroadcast::from_config(config, net, protocol_seed)?
                .faults(faults.to_plan())
                .recovery(faults.to_recovery()),
            rng,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validates_like_broadcast() {
        assert_eq!(
            ProtocolBroadcast::new(1, 0, NetworkConfig::IDEAL, 1).unwrap_err(),
            SimError::TooFewAgents { k: 1 }
        );
        assert_eq!(
            ProtocolBroadcast::new(4, 4, NetworkConfig::IDEAL, 1).unwrap_err(),
            SimError::SourceOutOfRange { source: 4, k: 4 }
        );
        assert!(ProtocolBroadcast::new(4, 3, NetworkConfig::IDEAL, 1).is_ok());
    }

    #[test]
    fn twin_matches_simulator_broadcast_time_on_ideal_network() {
        let config = SimConfig::builder(24, 8).radius(3).build().unwrap();
        for seed in [1u64, 5, 9] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let sim_time = Simulation::broadcast(&config, &mut rng)
                .unwrap()
                .run(&mut rng)
                .broadcast_time;
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut twin =
                Simulation::protocol_broadcast(&config, NetworkConfig::IDEAL, seed, &mut rng)
                    .unwrap();
            let out = twin.run(&mut rng);
            assert_eq!(out.completion_time, sim_time, "seed {seed}");
            assert!(out.completed());
            assert_eq!(out.informed_fraction(), 1.0);
        }
    }

    #[test]
    fn runs_reproduce_and_ignore_worker_count() {
        let config = SimConfig::builder(20, 6).radius(2).build().unwrap();
        let run = |workers: usize| {
            let mut rng = SmallRng::seed_from_u64(3);
            let process = ProtocolBroadcast::from_config(&config, NetworkConfig::IDEAL, 3)
                .unwrap()
                .workers(workers);
            let mut sim = Simulation::new(
                Grid::new(config.side()).unwrap(),
                config.k(),
                config.radius(),
                config.max_steps(),
                process,
                &mut rng,
            )
            .unwrap();
            sim.run(&mut rng)
        };
        let reference = run(1);
        for workers in [1usize, 2, 8] {
            assert_eq!(run(workers), reference, "workers = {workers}");
        }
    }

    #[test]
    fn outcome_display_covers_both_arms() {
        let done = ProtocolOutcome {
            completion_time: Some(9),
            informed: 4,
            k: 4,
            stats: RuntimeStats::default(),
            log_hash: 0,
            error: None,
        };
        assert!(done.to_string().contains("tick 9"));
        let capped = ProtocolOutcome {
            completion_time: None,
            informed: 2,
            k: 4,
            stats: RuntimeStats::default(),
            log_hash: 0,
            error: None,
        };
        assert!(capped.to_string().contains("2/4"));
        assert_eq!(capped.informed_fraction(), 0.5);
    }
}
