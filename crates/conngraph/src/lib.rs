//! Dynamic visibility-graph machinery for the `sparsegossip` simulator.
//!
//! At every step `t` the communication structure of the system is the
//! **visibility graph** `G_t(r)`: vertices are the `k` agents, and two
//! agents are adjacent iff their Manhattan distance is at most the
//! transmission radius `r` (Pettarin et al., PODC 2011, §2). This crate
//! computes the connected components of `G_t(r)` in near-linear time via
//! spatial hashing, and provides the island statistics (Lemma 6) and
//! percolation diagnostics (`r_c ≈ √(n/k)`) the paper's analysis builds
//! on.
//!
//! # Examples
//!
//! ```
//! use sparsegossip_conngraph::components;
//! use sparsegossip_grid::Point;
//!
//! let positions = [
//!     Point::new(0, 0),
//!     Point::new(0, 1), // adjacent to the first at r ≥ 1
//!     Point::new(9, 9), // isolated
//! ];
//! let comps = components(&positions, 1, 10);
//! assert_eq!(comps.count(), 2);
//! assert_eq!(comps.size_of_agent(0), 2);
//! assert_eq!(comps.size_of_agent(2), 1);
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod contact;
mod islands;
mod percolation;
mod seeded;
mod spatial;
mod stats;
mod union_find;
mod visibility;

pub use contact::{Contact, RadiiContact, UniformContact};
pub use islands::{IslandSampler, IslandStats};
pub use percolation::{
    critical_radius, estimate_threshold, giant_fraction, percolation_profile, PercolationPoint,
};
pub use seeded::{
    components_from_seeds, components_from_seeds_on, components_from_seeds_on_by,
    contact_components_on_by, SeededScratch,
};
pub use spatial::SpatialHash;
pub use stats::DegreeStats;
pub use union_find::UnionFind;
pub use visibility::{
    components, components_brute, components_brute_by, components_into, components_into_by,
    components_on_by, Components, ComponentsScratch,
};
