//! # sparsegossip
//!
//! A simulator for **information dissemination in sparse mobile
//! networks**, reproducing Pettarin, Pietracaprina, Pucci and Upfal,
//! *"Tight Bounds on Information Dissemination in Sparse Mobile
//! Networks"* (PODC 2011, arXiv:1101.4609).
//!
//! The model: `k` agents perform independent lazy random walks on an
//! `n`-node square grid; at every step a rumor floods each connected
//! component of the visibility graph `G_t(r)` (agents within Manhattan
//! distance `r`). The paper's headline result is that below the
//! percolation radius `r_c ≈ √(n/k)` the broadcast time is
//! `Θ̃(n/√k)`, *independent of `r`* — and this workspace regenerates
//! that claim (and every lemma feeding it) experimentally.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! | crate | contents |
//! |---|---|
//! | [`grid`] | grid geometry, topologies, tessellation |
//! | [`walks`] | lazy-walk engine and walk statistics |
//! | [`conngraph`] | visibility graph, islands, percolation |
//! | [`protocol`] | deterministic message-passing node runtime (the protocol twin) |
//! | [`core`] | broadcast/gossip/frog/predator-prey processes, the protocol twin, scenario specs |
//! | [`analysis`] | statistics, regression, sweeps, the scenario sweep engine |
//!
//! # Quick start
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use sparsegossip::prelude::*;
//!
//! // 64×64 grid, 32 agents, contact-only transmission (r = 0).
//! let config = SimConfig::builder(64, 32).radius(0).build()?;
//! let mut rng = SmallRng::seed_from_u64(2011);
//! let mut sim = Simulation::broadcast(&config, &mut rng)?;
//! let outcome = sim.run(&mut rng);
//! println!("{outcome}");
//! assert!(outcome.completed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Multi-seed ensembles go through the [`analysis::Runner`]:
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use sparsegossip::prelude::*;
//!
//! let config = SimConfig::builder(32, 16).build()?;
//! let report = Runner::new(2011).repetitions(8).threads(4).measure(|seed| {
//!     let mut rng = SmallRng::seed_from_u64(seed);
//!     let mut sim = Simulation::broadcast(&config, &mut rng).expect("valid");
//!     sim.run(&mut rng).broadcast_time.expect("completes") as f64
//! });
//! assert_eq!(report.summary.n(), 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! Whole experiments are declarable as data and swept across the
//! phase transition with the scenario layer:
//!
//! ```
//! use sparsegossip::prelude::*;
//!
//! let base = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 8).build()?;
//! let report = ScenarioSweep::new(base, 2011)
//!     .r_factors(vec![0.5, 1.0, 2.0]) // radii as fractions of r_c
//!     .replicates(2)
//!     .run()?;
//! assert_eq!(report.cells.len(), 3);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! And the [`protocol`] twin replays the same seeded trajectory with
//! real `Gossip`/`GossipAck` messages instead of component flooding —
//! on an ideal network it completes on exactly the simulator's `T_B`:
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use sparsegossip::prelude::*;
//!
//! let config = SimConfig::builder(16, 4).radius(2).build()?;
//! let mut rng = SmallRng::seed_from_u64(2011);
//! let mut twin = Simulation::protocol_broadcast(&config, NetworkConfig::IDEAL, 2011, &mut rng)?;
//! let outcome = twin.run(&mut rng);
//! assert!(outcome.completed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

pub use sparsegossip_analysis as analysis;
pub use sparsegossip_conngraph as conngraph;
pub use sparsegossip_core as core;
pub use sparsegossip_grid as grid;
pub use sparsegossip_protocol as protocol;
pub use sparsegossip_walks as walks;

/// The most commonly used items, importable in one line.
pub mod prelude {
    pub use sparsegossip_analysis::{
        power_law_fit, Runner, ScenarioSweep, ScenarioSweepReport, Summary, Sweep, Table,
        TransitionEstimate,
    };
    pub use sparsegossip_conngraph::{
        components, components_from_seeds, critical_radius, giant_fraction,
    };
    pub use sparsegossip_core::{
        Broadcast, BroadcastOutcome, ComponentsScope, Coverage, ExchangeRule, FaultConfig, Gossip,
        GossipOutcome, Infection, Metric, Mobility, NetworkConfig, Observer, PredatorPrey, Process,
        ProcessKind, ProtocolBroadcast, ProtocolOutcome, ScenarioSpec, SimConfig, SimError,
        SimScratch, Simulation, WorldConfig, WorldGrid,
    };
    pub use sparsegossip_grid::{BarrierGrid, Grid, Point, Tessellation, Topology, Torus};
    pub use sparsegossip_protocol::NodeRuntime;
    pub use sparsegossip_walks::{hit_within, lazy_step, multi_cover, BitSet, Walk, WalkEngine};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_items_are_usable() {
        use crate::prelude::*;
        let g = Grid::new(4).unwrap();
        assert_eq!(g.num_nodes(), 16);
        let cfg = SimConfig::builder(8, 4).build().unwrap();
        assert_eq!(cfg.k(), 4);
    }
}
