//! Random-walk engine and walk statistics for the `sparsegossip`
//! simulator.
//!
//! Implements the mobility model of Pettarin et al. (PODC 2011, §2): each
//! of `k` agents performs an independent **lazy random walk** on a grid
//! topology, moving to each existing neighbor with probability `1/5` and
//! holding with probability `1 − n_v/5` (where `n_v` is the degree of the
//! current node). Under this law the uniform distribution over nodes is
//! stationary, so agents placed uniformly at random remain uniformly
//! distributed at every step — a fact the paper's analysis (and several
//! tests in this crate) rely on.
//!
//! Besides the engine, the crate provides trackers for the quantities the
//! paper's lemmas are about:
//!
//! * [`RangeTracker`] — distinct nodes visited (Lemma 2.2);
//! * [`DisplacementTracker`] — maximum deviation from the start
//!   (Lemma 2.1, the Azuma–Hoeffding tail);
//! * [`meeting_within`] — two-walk meetings near the starting positions
//!   (Lemma 3);
//! * [`hit_within`] — single-walk hitting times (Lemma 1);
//! * [`multi_cover`] — cover time of `k` independent walks (§4);
//! * [`msd_curve`] — mean-squared-displacement curves, the diffusive
//!   time scale behind every `d²` horizon in the paper.
//!
//! It also hosts [`derive_seed`]/[`SeedSequence`], the SplitMix64 child
//! seed derivation every deterministic consumer (the analysis sweep
//! harness, the protocol twin's per-node RNG streams) shares.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use sparsegossip_grid::Grid;
//! use sparsegossip_walks::WalkEngine;
//!
//! let grid = Grid::new(64)?;
//! let mut rng = SmallRng::seed_from_u64(1);
//! let mut engine = WalkEngine::uniform(grid, 32, &mut rng)?;
//! for _ in 0..100 {
//!     engine.step_all(&mut rng);
//! }
//! assert_eq!(engine.len(), 32);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod bitset;
mod cover;
mod diffusion;
mod displacement;
mod engine;
mod error;
mod hitting;
mod lazy;
mod meeting;
mod range;
mod seeds;

pub use bitset::{BitSet, Ones};
pub use cover::{multi_cover, CoverRun, CoverTracker};
pub use diffusion::{mean_squared_displacement, msd_curve, LAZY_WALK_MSD_SLOPE};
pub use displacement::{azuma_deviation_bound, DisplacementTracker};
pub use engine::WalkEngine;
pub use error::WalkError;
pub use hitting::{hit_within, hitting_probability};
pub use lazy::{lazy_step, Walk, HOLD_DENOMINATOR};
pub use meeting::{first_meeting_time, meeting_within, MeetingTrial};
pub use range::RangeTracker;
pub use seeds::{derive_seed, SeedSequence};
