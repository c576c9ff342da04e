//! Information-dissemination processes of Pettarin, Pietracaprina,
//! Pucci and Upfal, *"Tight Bounds on Information Dissemination in
//! Sparse Mobile Networks"* (PODC 2011).
//!
//! The model (§2 of the paper): `k` agents perform independent lazy
//! random walks on an `n`-node square grid, starting from a uniform
//! placement. At each step the **visibility graph** `G_t(r)` connects
//! agents within Manhattan distance `r`, and — because radio
//! transmission is much faster than motion — every rumor floods its
//! whole connected component before the graph changes. The paper proves
//! that below the percolation radius `r_c ≈ √(n/k)` the broadcast time
//! is `Θ̃(n/√k)`, *independently of `r`*.
//!
//! Every process is one [`Process`] implementation run by the generic
//! [`Simulation`] driver, which owns the shared per-step pipeline
//! (mobility rule → walk step → visibility components → exchange →
//! observer):
//!
//! * [`Broadcast`] — single-rumor broadcast, the object of Theorems 1
//!   and 2 (with [`Mobility::InformedOnly`], the Frog model of §4);
//! * [`Gossip`] — all-to-all gossip (Corollary 2);
//! * [`Coverage`] — joint broadcast/coverage runs (`T_C ≈ T_B`, §4);
//! * [`PredatorPrey`] — the predator–prey extinction process (§4);
//! * [`Infection`] — the `r = 0` infection-time framing
//!   (Dimitriou et al.) with per-agent infection times;
//! * [`ProtocolBroadcast`] — the *protocol twin*: the same broadcast
//!   run as real `Gossip`/`GossipAck` message passing over the same
//!   seeded trajectory (the `sparsegossip_protocol` node runtime),
//!   with [`NetworkConfig`] fault injection — loss, delay, send caps,
//!   gossip intervals;
//! * [`baseline`] — the dense-MANET comparison model of Clementi et
//!   al. and the (refuted) analytic bound of Wang et al.;
//! * [`theory`] — closed-form reference curves for every bound;
//! * [`ScenarioSpec`] — declarative scenario specifications (process
//!   kind + grid + agents + radius + metric as *data*, with TOML
//!   round-tripping via [`toml`]) that instantiate any of the above
//!   into the driver — the unit the `sparsegossip_analysis`
//!   `ScenarioSweep` engine fans out over {side, k, r} axes.
//!
//! Every process runs only through the driver; the workspace test
//! `tests/api_equivalence.rs` pins [`Simulation`] to the outcomes of
//! the pre-redesign per-process structs, seed for seed.
//!
//! # Examples
//!
//! Measure one broadcast time below the percolation point:
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use sparsegossip_core::{SimConfig, Simulation};
//!
//! let config = SimConfig::builder(64, 32).radius(0).build()?;
//! let mut rng = SmallRng::seed_from_u64(1);
//! let mut sim = Simulation::broadcast(&config, &mut rng)?;
//! let outcome = sim.run(&mut rng);
//! assert!(outcome.completed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub mod baseline;
mod broadcast;
pub mod cellkey;
mod config;
pub mod coverage;
mod error;
mod fault_config;
mod gossip;
mod infection;
mod observer;
mod predator_prey;
mod process;
mod protocol_broadcast;
mod rumor;
mod scenario;
pub mod spec_key;
pub mod theory;
pub mod toml;
mod world;

pub use broadcast::{Broadcast, BroadcastOutcome};
pub use cellkey::{cell_seed, fnv1a};
pub use config::{ExchangeRule, Mobility, SimConfig, SimConfigBuilder};
pub use coverage::{Coverage, CoverageOutcome};
pub use error::SimError;
pub use fault_config::FaultConfig;
pub use gossip::{Gossip, GossipOutcome};
pub use infection::{Infection, InfectionOutcome};
pub use observer::{
    CellReachTimes, ComponentSizeCurve, FrontierTracker, InfectionTimes, InformedCurve,
    MinRumorsCurve, NullObserver, Observer, StepContext,
};
pub use predator_prey::{ExtinctionOutcome, PredatorPrey};
pub use process::{ComponentsScope, ExchangeCtx, Process, SimScratch, Simulation};
pub use protocol_broadcast::{ProtocolBroadcast, ProtocolOutcome};
pub use rumor::RumorSets;
// Re-exported so spec-level consumers need not depend on the protocol
// crate directly.
pub use scenario::{
    Metric, ProcessKind, ScenarioOutcome, ScenarioSpec, ScenarioSpecBuilder, SpecError,
};
pub use sparsegossip_protocol::{
    FaultError, FaultPlan, NetworkConfig, NetworkError, PartitionSchedule, PartitionWindow,
    RecoveryConfig, RuntimeError, RuntimeStats,
};
pub use world::{WorldConfig, WorldContact, WorldGrid};
