use rand::RngExt;

use crate::{Direction, GridError, Point, Topology};

/// A bounded grid with **mobility barriers**: rectangular regions of
/// blocked nodes that agents can neither occupy nor traverse.
///
/// This implements the extension sketched in §4 of the paper ("more
/// complex planar domains that include both communication and mobility
/// barriers"). Barriers always block *movement*; by default the
/// visibility graph still uses plain Manhattan distance (radio
/// propagates over walls). Communication barriers are an opt-in
/// composition: the scenario layer's world contact model pairs the
/// Manhattan test with [`BarrierGrid::l_path_open`], so walls also
/// shadow radio when a spec asks for it.
///
/// Walks on a `BarrierGrid` remain lazy walks: a step into a blocked
/// node simply does not exist, so the holding probability grows exactly
/// as at the outer boundary, and the uniform distribution over *open*
/// nodes stays stationary.
///
/// # Examples
///
/// ```
/// use sparsegossip_grid::{BarrierGrid, Point, Topology};
///
/// // A 10×10 grid with a 1×4 wall.
/// let g = BarrierGrid::with_barriers(
///     10,
///     &[(Point::new(4, 3), Point::new(4, 6))],
/// )?;
/// assert_eq!(g.num_nodes(), 96);
/// assert!(!g.is_open(Point::new(4, 4)));
/// // The wall blocks eastward movement at (3, 4).
/// use sparsegossip_grid::Direction;
/// assert_eq!(g.neighbor(Point::new(3, 4), Direction::East), None);
/// # Ok::<(), sparsegossip_grid::GridError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierGrid {
    side: u32,
    /// Bitset over node ids; a set bit means the node is open.
    open: Vec<u64>,
    open_count: u64,
}

impl BarrierGrid {
    /// Creates a barrier grid with all nodes open.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::ZeroSide`] / [`GridError::SideTooLarge`] as
    /// [`Grid::new`](crate::Grid::new).
    pub fn new(side: u32) -> Result<Self, GridError> {
        if side == 0 {
            return Err(GridError::ZeroSide);
        }
        if side > crate::Grid::MAX_SIDE {
            return Err(GridError::SideTooLarge { side });
        }
        let n = u64::from(side) * u64::from(side);
        let mut open = vec![!0u64; (n as usize).div_ceil(64)];
        let tail = (n % 64) as u32;
        if tail != 0 {
            if let Some(last) = open.last_mut() {
                *last = (1u64 << tail) - 1;
            }
        }
        Ok(Self {
            side,
            open,
            open_count: n,
        })
    }

    /// Creates a barrier grid with the given inclusive rectangles
    /// blocked. Each rectangle is `(min, max)` in grid coordinates.
    ///
    /// # Errors
    ///
    /// As [`BarrierGrid::new`], plus [`GridError::BarrierOutOfBounds`]
    /// if a rectangle leaves the grid or is inverted, and
    /// [`GridError::NoOpenNodes`] if the barriers block everything.
    pub fn with_barriers(side: u32, rects: &[(Point, Point)]) -> Result<Self, GridError> {
        let mut g = Self::new(side)?;
        for &(min, max) in rects {
            if min.x > max.x || min.y > max.y || max.x >= side || max.y >= side {
                return Err(GridError::BarrierOutOfBounds { min, max, side });
            }
            for y in min.y..=max.y {
                for x in min.x..=max.x {
                    g.block(Point::new(x, y));
                }
            }
        }
        if g.open_count == 0 {
            return Err(GridError::NoOpenNodes);
        }
        Ok(g)
    }

    /// Creates a deterministic **city-block** layout: a lattice of
    /// straight walls every `block` steps (`block = max(2, side / 4)`)
    /// with door bands whose width shrinks as `density` grows, so the
    /// same `(side, density)` pair always yields the same map and a
    /// sweepable `barrier_densities` axis stays a pure function of the
    /// spec.
    ///
    /// `density` is clamped to `[0, 1]`; `0` yields a fully open grid,
    /// values toward `1` narrow every door to a single node. The open
    /// region is verified connected.
    ///
    /// # Errors
    ///
    /// As [`BarrierGrid::new`], plus [`GridError::DisconnectedBarriers`]
    /// if the layout disconnects the open region (only reachable for
    /// degenerate sides).
    pub fn city_blocks(side: u32, density: f64) -> Result<Self, GridError> {
        let mut g = Self::new(side)?;
        let density = density.clamp(0.0, 1.0);
        if density == 0.0 || side < 4 {
            return Ok(g);
        }
        let block = (side / 4).max(2);
        // Door band width in nodes: wide doors at low density, a single
        // node as density -> 1. Doors sit at offsets 1..=door within
        // each block, so wall intersections stay closed and every door
        // opens into the interior of the two cells it joins.
        let door = (((1.0 - density) * f64::from(block - 1)).round() as u32).clamp(1, block - 1);
        let in_door = |offset: u32| (1..=door).contains(&offset);
        for wall in (block..side).step_by(block as usize) {
            for t in 0..side {
                if !in_door(t % block) {
                    // Vertical wall column `wall`, horizontal wall row
                    // `wall`.
                    g.block(Point::new(wall, t));
                    g.block(Point::new(t, wall));
                }
            }
        }
        if g.open_count == 0 {
            return Err(GridError::NoOpenNodes);
        }
        if !g.is_connected() {
            return Err(GridError::DisconnectedBarriers);
        }
        Ok(g)
    }

    /// Whether some axis-aligned L-shaped path from `a` to `b` (via
    /// either corner) runs entirely through open nodes. The world
    /// contact model uses this as its line-of-sight test: radio that
    /// must round at most one corner, never pass through a wall.
    ///
    /// Points outside the open region never have an open path.
    #[must_use]
    pub fn l_path_open(&self, a: Point, b: Point) -> bool {
        if !self.is_open(a) || !self.is_open(b) {
            return false;
        }
        let corner1 = Point::new(b.x, a.y);
        let corner2 = Point::new(a.x, b.y);
        (self.span_open_x(a.y, a.x, b.x)
            && self.span_open_y(b.x, a.y, b.y)
            && self.is_open(corner1))
            || (self.span_open_y(a.x, a.y, b.y)
                && self.span_open_x(b.y, a.x, b.x)
                && self.is_open(corner2))
    }

    /// Whether every node of the horizontal span `[x0, x1] × {y}` is
    /// open.
    fn span_open_x(&self, y: u32, x0: u32, x1: u32) -> bool {
        let (lo, hi) = if x0 <= x1 { (x0, x1) } else { (x1, x0) };
        (lo..=hi).all(|x| self.is_open(Point::new(x, y)))
    }

    /// Whether every node of the vertical span `{x} × [y0, y1]` is
    /// open.
    fn span_open_y(&self, x: u32, y0: u32, y1: u32) -> bool {
        let (lo, hi) = if y0 <= y1 { (y0, y1) } else { (y1, y0) };
        (lo..=hi).all(|y| self.is_open(Point::new(x, y)))
    }

    /// Blocks a single node (idempotent).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the bounding square.
    pub fn block(&mut self, p: Point) {
        assert!(
            p.x < self.side && p.y < self.side,
            "point {p} outside the grid"
        );
        let id = (u64::from(p.y) * u64::from(self.side) + u64::from(p.x)) as usize;
        let mask = 1u64 << (id % 64);
        if self.open[id / 64] & mask != 0 {
            self.open[id / 64] &= !mask;
            self.open_count -= 1;
        }
    }

    /// Whether `p` is inside the bounding square and not blocked.
    #[inline]
    #[must_use]
    pub fn is_open(&self, p: Point) -> bool {
        if p.x >= self.side || p.y >= self.side {
            return false;
        }
        let id = (u64::from(p.y) * u64::from(self.side) + u64::from(p.x)) as usize;
        self.open[id / 64] >> (id % 64) & 1 == 1
    }

    /// The number of open (walkable) nodes.
    #[inline]
    #[must_use]
    pub fn open_count(&self) -> u64 {
        self.open_count
    }

    /// Whether the open region is connected (BFS from an arbitrary open
    /// node). Dissemination experiments should require this, since a
    /// rumor cannot jump across a disconnected mobility domain at
    /// `r = 0`.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        let Some(start) = self.points().find(|&p| self.is_open(p)) else {
            return true;
        };
        // A bitset like `open`: n bits, not n bytes, so the check fits
        // wherever the map itself does.
        let mut seen = vec![0u64; self.open.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut visit = |p: Point| {
            let id = (u64::from(p.y) * u64::from(self.side) + u64::from(p.x)) as usize;
            let fresh = seen[id / 64] >> (id % 64) & 1 == 0;
            seen[id / 64] |= 1 << (id % 64);
            fresh
        };
        visit(start);
        queue.push_back(start);
        let mut reached = 1u64;
        while let Some(p) = queue.pop_front() {
            for dir in Direction::ALL {
                if let Some(q) = self.neighbor(p, dir) {
                    if visit(q) {
                        reached += 1;
                        queue.push_back(q);
                    }
                }
            }
        }
        reached == self.open_count
    }
}

impl Topology for BarrierGrid {
    #[inline]
    fn side(&self) -> u32 {
        self.side
    }

    /// The number of *open* nodes (the walkable domain).
    #[inline]
    fn num_nodes(&self) -> u64 {
        self.open_count
    }

    #[inline]
    fn contains(&self, p: Point) -> bool {
        self.is_open(p)
    }

    #[inline]
    fn neighbor(&self, p: Point, dir: Direction) -> Option<Point> {
        let q = match dir {
            Direction::North => (p.y + 1 < self.side).then(|| Point::new(p.x, p.y + 1)),
            Direction::East => (p.x + 1 < self.side).then(|| Point::new(p.x + 1, p.y)),
            Direction::South => (p.y > 0).then(|| Point::new(p.x, p.y - 1)),
            Direction::West => (p.x > 0).then(|| Point::new(p.x - 1, p.y)),
        }?;
        self.is_open(q).then_some(q)
    }

    /// Samples an *open* node uniformly at random (rejection sampling;
    /// cheap as long as a constant fraction of the grid is open).
    fn random_point<R: RngExt>(&self, rng: &mut R) -> Point
    where
        Self: Sized,
    {
        assert!(self.open_count > 0, "no open nodes to sample");
        loop {
            let p = Point::new(
                rng.random_range(0..self.side),
                rng.random_range(0..self.side),
            );
            if self.is_open(p) {
                return p;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_barrier_grid_matches_plain_grid() {
        let g = BarrierGrid::new(6).unwrap();
        assert_eq!(g.num_nodes(), 36);
        assert!(g.is_connected());
        for y in 0..6 {
            for x in 0..6 {
                assert!(g.is_open(Point::new(x, y)));
            }
        }
    }

    #[test]
    fn wall_blocks_movement_and_reduces_node_count() {
        let g = BarrierGrid::with_barriers(8, &[(Point::new(3, 0), Point::new(3, 6))]).unwrap();
        assert_eq!(g.num_nodes(), 64 - 7);
        assert_eq!(g.neighbor(Point::new(2, 3), Direction::East), None);
        assert_eq!(g.neighbor(Point::new(4, 3), Direction::West), None);
        // The gap at (3, 7) keeps the domain connected.
        assert!(g.is_connected());
        assert_eq!(g.degree(Point::new(2, 3)), 3);
    }

    #[test]
    fn full_wall_disconnects() {
        let g = BarrierGrid::with_barriers(8, &[(Point::new(3, 0), Point::new(3, 7))]).unwrap();
        assert!(!g.is_connected());
    }

    #[test]
    fn rejects_bad_rectangles() {
        assert_eq!(
            BarrierGrid::with_barriers(8, &[(Point::new(5, 0), Point::new(4, 0))]),
            Err(GridError::BarrierOutOfBounds {
                min: Point::new(5, 0),
                max: Point::new(4, 0),
                side: 8
            })
        );
        assert!(BarrierGrid::with_barriers(8, &[(Point::new(0, 0), Point::new(8, 0))]).is_err());
    }

    #[test]
    fn rejects_fully_blocked_grid() {
        assert_eq!(
            BarrierGrid::with_barriers(4, &[(Point::new(0, 0), Point::new(3, 3))]),
            Err(GridError::NoOpenNodes)
        );
    }

    #[test]
    fn random_point_avoids_barriers() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let g = BarrierGrid::with_barriers(8, &[(Point::new(0, 0), Point::new(6, 6))]).unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..500 {
            assert!(g.is_open(g.random_point(&mut rng)));
        }
    }

    #[test]
    fn walk_never_enters_barrier() {
        use crate::Topology;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let g = BarrierGrid::with_barriers(12, &[(Point::new(4, 4), Point::new(7, 7))]).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        // Simulate the lazy step law inline (walks crate depends on us,
        // not vice versa).
        let mut p = Point::new(0, 0);
        for _ in 0..5000 {
            let u = rng.random_range(0..5u32) as usize;
            p = g.neighbors(p).get(u).unwrap_or(p);
            assert!(g.is_open(p), "walk entered barrier at {p}");
        }
    }

    #[test]
    fn block_is_idempotent() {
        let mut g = BarrierGrid::new(4).unwrap();
        g.block(Point::new(1, 1));
        g.block(Point::new(1, 1));
        assert_eq!(g.num_nodes(), 15);
    }

    #[test]
    fn city_blocks_zero_density_is_fully_open() {
        let g = BarrierGrid::city_blocks(16, 0.0).unwrap();
        assert_eq!(g.num_nodes(), 256);
        assert!(g.is_connected());
    }

    #[test]
    fn city_blocks_is_deterministic_blocked_and_connected() {
        for side in [8u32, 12, 16, 31, 64] {
            for density in [0.1, 0.3, 0.5, 0.7, 0.9, 1.0] {
                let g = BarrierGrid::city_blocks(side, density).unwrap();
                let again = BarrierGrid::city_blocks(side, density).unwrap();
                assert_eq!(g, again, "side {side} density {density} not deterministic");
                assert!(
                    g.open_count() < u64::from(side) * u64::from(side),
                    "side {side} density {density} blocked nothing"
                );
                assert!(
                    g.is_connected(),
                    "side {side} density {density} disconnected"
                );
            }
        }
    }

    #[test]
    fn city_blocks_density_monotonically_closes_nodes() {
        let side = 32;
        let mut last = u64::MAX;
        for density in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let open = BarrierGrid::city_blocks(side, density)
                .unwrap()
                .open_count();
            assert!(
                open <= last,
                "density {density} opened nodes ({open} > {last})"
            );
            last = open;
        }
    }

    #[test]
    fn l_path_respects_walls() {
        // One vertical wall with a gap at the top.
        let g = BarrierGrid::with_barriers(8, &[(Point::new(3, 0), Point::new(3, 6))]).unwrap();
        // Straight shot through the wall: blocked both ways.
        assert!(!g.l_path_open(Point::new(1, 2), Point::new(6, 2)));
        // Around the top gap: an L through (1, 7) -> (6, 7) is open
        // only when an endpoint shares the gap row.
        assert!(g.l_path_open(Point::new(1, 7), Point::new(6, 2)));
        assert!(g.l_path_open(Point::new(1, 2), Point::new(6, 7)));
        // Same side of the wall: trivially open.
        assert!(g.l_path_open(Point::new(0, 0), Point::new(2, 5)));
        // Endpoints on a wall are never connected.
        assert!(!g.l_path_open(Point::new(3, 2), Point::new(1, 2)));
        // Degenerate single-point path.
        assert!(g.l_path_open(Point::new(5, 5), Point::new(5, 5)));
    }

    #[test]
    fn connectivity_search_starts_past_a_blocked_prefix() {
        // The first open node (8) lies past `open_count` (6), and the
        // wall at x = 1 cuts (0, 2)–(0, 3) off from the rest.
        let g = BarrierGrid::with_barriers(
            4,
            &[
                (Point::new(0, 0), Point::new(3, 1)),
                (Point::new(1, 2), Point::new(1, 3)),
            ],
        )
        .unwrap();
        assert_eq!(g.open_count(), 6);
        assert_eq!(g.points().count(), 16);
        assert!(!g.is_connected());
    }

    #[test]
    fn contains_means_open() {
        let g = BarrierGrid::with_barriers(6, &[(Point::new(2, 2), Point::new(2, 2))]).unwrap();
        assert!(!g.contains(Point::new(2, 2)));
        assert!(g.contains(Point::new(2, 3)));
        assert!(!g.contains(Point::new(6, 0)));
    }
}
