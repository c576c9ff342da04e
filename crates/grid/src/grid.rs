use crate::{Direction, GridError, Point, Topology};

/// The bounded `side × side` square grid `G_n` of the paper.
///
/// Boundary nodes simply lack the out-of-range neighbors, so corner nodes
/// have degree 2, edge nodes degree 3, and interior nodes degree 4 —
/// exactly the `n_v ∈ {2, 3, 4}` of the paper's walk model (§2).
///
/// The maximum supported side is `65535` so that `n = side² < 2³²` and
/// node indices fit in a `u32`.
///
/// # Examples
///
/// ```
/// use sparsegossip_grid::{Direction, Grid, Point, Topology};
///
/// let g = Grid::new(100)?;
/// assert_eq!(g.num_nodes(), 10_000);
/// assert_eq!(g.neighbor(Point::new(0, 0), Direction::West), None);
/// assert_eq!(
///     g.neighbor(Point::new(0, 0), Direction::East),
///     Some(Point::new(1, 0)),
/// );
/// # Ok::<(), sparsegossip_grid::GridError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Grid {
    side: u32,
}

impl Grid {
    /// Maximum supported side length.
    pub const MAX_SIDE: u32 = u16::MAX as u32;

    /// Creates a bounded grid with the given side length.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::ZeroSide`] if `side == 0` and
    /// [`GridError::SideTooLarge`] if `side > 65535`.
    pub fn new(side: u32) -> Result<Self, GridError> {
        if side == 0 {
            return Err(GridError::ZeroSide);
        }
        if side > Self::MAX_SIDE {
            return Err(GridError::SideTooLarge { side });
        }
        Ok(Self { side })
    }

    /// Creates the largest grid with at most `n` nodes, i.e. side
    /// `⌊√n⌋`.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::ZeroSide`] if `n == 0` and
    /// [`GridError::SideTooLarge`] if `⌊√n⌋ > 65535`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sparsegossip_grid::{Grid, Topology};
    /// let g = Grid::with_at_most_nodes(1000)?;
    /// assert_eq!(g.side(), 31);
    /// # Ok::<(), sparsegossip_grid::GridError>(())
    /// ```
    pub fn with_at_most_nodes(n: u64) -> Result<Self, GridError> {
        let side = (n as f64).sqrt().floor() as u64;
        // Guard against floating-point overshoot near perfect squares.
        let side = if side * side > n { side - 1 } else { side };
        if side > u64::from(Self::MAX_SIDE) {
            return Err(GridError::SideTooLarge {
                side: Self::MAX_SIDE + 1,
            });
        }
        Self::new(side as u32)
    }
}

/// Lazy-step offsets at an interior node, indexed by the draw `u`: the
/// canonical `N, E, S, W` neighbors, then the hold.
const LAZY_DX: [i32; 5] = [0, 1, 0, -1, 0];
const LAZY_DY: [i32; 5] = [1, 0, -1, 0, 0];

impl Topology for Grid {
    #[inline]
    fn side(&self) -> u32 {
        self.side
    }

    #[inline]
    fn neighbor(&self, p: Point, dir: Direction) -> Option<Point> {
        match dir {
            Direction::North => (p.y + 1 < self.side).then(|| Point::new(p.x, p.y + 1)),
            Direction::East => (p.x + 1 < self.side).then(|| Point::new(p.x + 1, p.y)),
            Direction::South => (p.y > 0).then(|| Point::new(p.x, p.y - 1)),
            Direction::West => (p.x > 0).then(|| Point::new(p.x - 1, p.y)),
        }
    }

    /// An interior node has all four neighbors, so the draw indexes the
    /// offset tables directly instead of compacting a neighbor list;
    /// boundary nodes take the general path.
    #[inline]
    fn lazy_target(&self, p: Point, u: usize) -> Point {
        let interior = p.x >= 1 && p.y >= 1 && p.x + 2 <= self.side && p.y + 2 <= self.side;
        if interior && u < LAZY_DX.len() {
            Point::new(
                p.x.wrapping_add_signed(LAZY_DX[u]),
                p.y.wrapping_add_signed(LAZY_DY[u]),
            )
        } else {
            self.neighbors(p).get(u).unwrap_or(p)
        }
    }

    #[inline]
    fn open_grid(&self) -> Option<Grid> {
        Some(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_degenerate_sides() {
        assert_eq!(Grid::new(0), Err(GridError::ZeroSide));
        assert_eq!(
            Grid::new(70_000),
            Err(GridError::SideTooLarge { side: 70_000 })
        );
        assert!(Grid::new(Grid::MAX_SIDE).is_ok());
    }

    #[test]
    fn with_at_most_nodes_floors() {
        assert_eq!(Grid::with_at_most_nodes(16).unwrap().side(), 4);
        assert_eq!(Grid::with_at_most_nodes(17).unwrap().side(), 4);
        assert_eq!(Grid::with_at_most_nodes(15).unwrap().side(), 3);
        assert!(Grid::with_at_most_nodes(0).is_err());
    }

    #[test]
    fn degree_census_matches_geometry() {
        // side s: 4 corners of degree 2, 4(s-2) edges of degree 3, rest 4.
        let g = Grid::new(6).unwrap();
        let mut census = [0u32; 5];
        for p in g.points() {
            census[g.degree(p) as usize] += 1;
        }
        assert_eq!(census[2], 4);
        assert_eq!(census[3], 16);
        assert_eq!(census[4], 16);
        assert_eq!(census[0] + census[1], 0);
    }

    #[test]
    fn neighbors_are_mutual() {
        let g = Grid::new(7).unwrap();
        for p in g.points() {
            for dir in Direction::ALL {
                if let Some(q) = g.neighbor(p, dir) {
                    assert_eq!(g.neighbor(q, dir.opposite()), Some(p));
                }
            }
        }
    }

    #[test]
    fn lazy_target_fast_path_matches_the_default() {
        // Sides 1 and 2 have no interior; 3–6 mix interior, edge and
        // corner nodes.
        for side in 1..=6 {
            let g = Grid::new(side).unwrap();
            for p in g.points() {
                for u in 0..5 {
                    assert_eq!(
                        g.lazy_target(p, u),
                        g.neighbors(p).get(u).unwrap_or(p),
                        "side {side}, p {p}, u {u}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_node_grid_has_no_neighbors() {
        let g = Grid::new(1).unwrap();
        assert_eq!(g.degree(Point::new(0, 0)), 0);
        assert_eq!(g.num_nodes(), 1);
    }

    #[test]
    fn neighbors_are_at_manhattan_distance_one() {
        let g = Grid::new(9).unwrap();
        for p in g.points() {
            for q in g.neighbors(p) {
                assert_eq!(p.manhattan(q), 1);
                assert!(g.contains(q));
            }
        }
    }
}
