//! The repository benchmark of `sparsegossip`: seeded workloads over
//! the simulator's public API, an untraced driver for the end-to-end
//! metrics, and a traced replay that times each layer entry point.
//!
//! The traced replay drives the `Simulation::step` pipeline from
//! outside — `WalkEngine` step, `SpatialHash` maintenance or rebuild,
//! component labelling, `Process::exchange` — in the driver's order and
//! with the driver's RNG, so it reproduces the untraced outcomes draw
//! for draw (`tests/replay.rs` pins this at tiny sizes). The clock
//! lives in this package only: the library crates never read one.

pub mod layers;
pub mod sim;
pub mod stats;
pub mod twin;

use sparsegossip_core::fnv1a;
use sparsegossip_walks::derive_seed;

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// `Broadcast` to `T_B` at side 512, k 512, r ∈ {0, 11}: the
    /// frontier-sparse path (move log, maintained hash, seed-restricted
    /// labelling).
    BroadcastSparse,
    /// `Gossip::distinct` to `T_G` at side 256, k 256, r ∈ {1, 8}: the
    /// full-partition path (hash rebuild, union–find labelling).
    GossipFull,
    /// A checkpointed `ScenarioSweep` of the protocol twin on two
    /// workers, resumed from its own `ResultStore`.
    TwinSweep,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Self; 3] = [Self::BroadcastSparse, Self::GossipFull, Self::TwinSweep];

    /// The workload's name on the command line.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::BroadcastSparse => "broadcast_sparse",
            Self::GossipFull => "gossip_full",
            Self::TwinSweep => "twin_sweep",
        }
    }

    /// The workload named `name`, if any.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The seed of round `round` of this workload under benchmark seed
    /// `seed`. Each workload salts the seed with its own name, so one
    /// benchmark seed gives the workloads unrelated streams.
    #[must_use]
    pub fn round_seed(self, seed: u64, round: u64) -> u64 {
        derive_seed(seed ^ fnv1a(self.name().as_bytes()), round)
    }
}

/// FNV-1a over the completion times of a sequence of runs, in run
/// order; a censored run contributes `u64::MAX`. Two builds that
/// produce the same draws produce the same digest.
pub fn outcome_digest(completions: impl IntoIterator<Item = Option<u64>>) -> u64 {
    let mut bytes = Vec::new();
    for c in completions {
        bytes.extend_from_slice(&c.unwrap_or(u64::MAX).to_le_bytes());
    }
    fnv1a(&bytes)
}
