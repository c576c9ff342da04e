//! 2-D grid substrate for the `sparsegossip` simulator.
//!
//! This crate models the *domain* of Pettarin et al. (PODC 2011): an
//! `n`-node two-dimensional square grid `G_n` on which mobile agents
//! perform independent lazy random walks. It provides:
//!
//! * [`Point`] / [`NodeId`] — grid coordinates and row-major node indices;
//! * [`Grid`] — the bounded square grid with reflecting boundary;
//! * [`Torus`] — a wrap-around variant used for boundary-sensitivity
//!   ablations;
//! * [`BarrierGrid`] — a bounded grid with rectangular mobility
//!   barriers (the §4 future-work domain);
//! * [`Topology`] — the trait unifying both for the walk engine;
//! * [`L1Ball`] — iteration over the nodes within a given Manhattan
//!   (transmission) radius;
//! * [`Tessellation`] — the partition of the grid into `ℓ × ℓ` cells that
//!   mirrors the proof machinery of Theorem 1 of the paper.
//!
//! Distances are Manhattan (L1) throughout, matching the paper's convention
//! (footnote 2 of the paper).
//!
//! # Examples
//!
//! ```
//! use sparsegossip_grid::{Grid, Point, Topology};
//!
//! let grid = Grid::new(16)?;
//! assert_eq!(grid.num_nodes(), 256);
//! let p = Point::new(3, 5);
//! assert_eq!(grid.degree(p), 4);
//! // Corners have degree 2.
//! assert_eq!(grid.degree(Point::new(0, 0)), 2);
//! # Ok::<(), sparsegossip_grid::GridError>(())
//! ```

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]

mod ball;
mod barrier;
mod direction;
mod error;
mod grid;
mod node;
mod point;
mod tessellation;
mod topology;
mod torus;

pub use ball::{l1_ball_size, L1Ball};
pub use barrier::BarrierGrid;
pub use direction::Direction;
pub use error::GridError;
pub use grid::Grid;
pub use node::NodeId;
pub use point::Point;
pub use tessellation::{CellId, Tessellation};
pub use topology::{Neighbors, PointsIter, Topology};
pub use torus::Torus;
