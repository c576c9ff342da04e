use rand::RngExt;

use crate::{BarrierGrid, Direction, Grid, NodeId, Point};

/// A walkable 2-D square domain of `side × side` nodes.
///
/// Implemented by [`Grid`](crate::Grid) (bounded, reflecting boundary —
/// the paper's `G_n`) and [`Torus`](crate::Torus) (wrap-around, used for
/// boundary-sensitivity ablations). The trait is object-safe except for
/// [`Topology::random_point`], which is excluded from trait objects.
///
/// # Examples
///
/// ```
/// use sparsegossip_grid::{Grid, Point, Topology, Torus};
///
/// fn mean_degree<T: Topology>(t: &T) -> f64 {
///     let total: u64 = t.points().map(|p| t.degree(p) as u64).sum();
///     total as f64 / t.num_nodes() as f64
/// }
///
/// assert_eq!(mean_degree(&Torus::new(8)?), 4.0);
/// assert!(mean_degree(&Grid::new(8)?) < 4.0); // boundary nodes lose edges
/// # Ok::<(), sparsegossip_grid::GridError>(())
/// ```
pub trait Topology {
    /// The side length `s` of the square domain.
    fn side(&self) -> u32;

    /// The neighbor of `p` in direction `dir`, or `None` if the step
    /// leaves the domain (never `None` on a torus).
    fn neighbor(&self, p: Point, dir: Direction) -> Option<Point>;

    /// The number of nodes `n = side²`.
    #[inline]
    fn num_nodes(&self) -> u64 {
        let s = self.side() as u64;
        s * s
    }

    /// Whether `p` lies inside the domain.
    #[inline]
    fn contains(&self, p: Point) -> bool {
        p.x < self.side() && p.y < self.side()
    }

    /// The degree of node `p` (number of distinct neighbors).
    #[inline]
    fn degree(&self, p: Point) -> u8 {
        let mut deg = 0;
        for dir in Direction::ALL {
            if self.neighbor(p, dir).is_some() {
                deg += 1;
            }
        }
        deg
    }

    /// The neighbors of `p` in canonical direction order.
    #[inline]
    fn neighbors(&self, p: Point) -> Neighbors {
        let mut items = [Point::new(0, 0); 4];
        let mut len = 0usize;
        for dir in Direction::ALL {
            if let Some(q) = self.neighbor(p, dir) {
                items[len] = q;
                len += 1;
            }
        }
        Neighbors {
            items,
            len,
            next: 0,
        }
    }

    /// The target of one lazy step from `p` on draw `u ∈ {0, …, 4}`:
    /// the `u`-th neighbor in canonical `N, E, S, W` order, or `p`
    /// itself when `u` indexes no neighbor (the hold).
    ///
    /// Implementations may override this with a cheaper equivalent
    /// (see [`Grid`](crate::Grid)'s interior fast path); the result must
    /// equal this default for every `p` and `u`.
    #[inline]
    fn lazy_target(&self, p: Point, u: usize) -> Point {
        self.neighbors(p).get(u).unwrap_or(p)
    }

    /// The wall map that blocks radio contact as well as motion, if
    /// any. Defaults to `None`: radio propagates over the walls of a
    /// plain [`BarrierGrid`], which block motion only. A topology that
    /// also shadows radio returns its own map here, so the contact test
    /// and the walk read the same walls.
    #[inline]
    fn radio_walls(&self) -> Option<&BarrierGrid> {
        None
    }

    /// This topology as the plain open [`Grid`] it walks exactly like
    /// (the same neighbors at every node), or `None` (the default). The
    /// walk engine then steps all agents on that grid's own kernel, so a
    /// topology that wraps a grid pays one dispatch per step instead of
    /// one per agent.
    #[inline]
    fn open_grid(&self) -> Option<Grid> {
        None
    }

    /// The row-major node index of `p`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `p` is outside the domain.
    #[inline]
    fn node_id(&self, p: Point) -> NodeId {
        debug_assert!(
            self.contains(p),
            "point {p} outside side-{} domain",
            self.side()
        );
        NodeId::new(p.y * self.side() + p.x)
    }

    /// The point with row-major index `id`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `id` is out of range.
    #[inline]
    fn point_of(&self, id: NodeId) -> Point {
        debug_assert!((id.index() as u64) < self.num_nodes());
        Point::new(id.index() % self.side(), id.index() / self.side())
    }

    /// Iterates over all points of the `side × side` square in
    /// row-major order, blocked nodes of a [`BarrierGrid`] included
    /// (its [`num_nodes`](Topology::num_nodes) counts only open ones).
    #[inline]
    fn points(&self) -> PointsIter {
        let s = u64::from(self.side());
        PointsIter {
            side: self.side(),
            next: 0,
            end: s * s,
        }
    }

    /// Samples a node uniformly at random.
    ///
    /// Uniform placement is both the paper's initial condition and the
    /// stationary distribution of the lazy walk on either topology.
    #[inline]
    fn random_point<R: RngExt>(&self, rng: &mut R) -> Point
    where
        Self: Sized,
    {
        Point::new(
            rng.random_range(0..self.side()),
            rng.random_range(0..self.side()),
        )
    }

    /// The graph diameter in Manhattan steps.
    #[inline]
    fn diameter(&self) -> u32 {
        let s = self.side();
        if s <= 1 {
            0
        } else if self.neighbor(Point::new(0, 0), Direction::West).is_some() {
            // Wrap-around: farthest point is half the side in each axis.
            2 * (s / 2)
        } else {
            2 * (s - 1)
        }
    }
}

/// Iterator over the (at most four) neighbors of a node.
///
/// Produced by [`Topology::neighbors`].
#[derive(Clone, Debug)]
pub struct Neighbors {
    items: [Point; 4],
    len: usize,
    next: usize,
}

impl Neighbors {
    /// The number of neighbors not yet yielded.
    #[inline]
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.len - self.next
    }

    /// Random access into the neighbor list (0-based, over all items).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Point> {
        (i < self.len).then(|| self.items[i])
    }
}

impl Iterator for Neighbors {
    type Item = Point;

    #[inline]
    fn next(&mut self) -> Option<Point> {
        if self.next < self.len {
            let p = self.items[self.next];
            self.next += 1;
            Some(p)
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining();
        (r, Some(r))
    }
}

impl ExactSizeIterator for Neighbors {}

/// Iterator over all grid points in row-major order.
///
/// Produced by [`Topology::points`].
#[derive(Clone, Debug)]
pub struct PointsIter {
    side: u32,
    next: u64,
    end: u64,
}

impl Iterator for PointsIter {
    type Item = Point;

    #[inline]
    fn next(&mut self) -> Option<Point> {
        if self.next < self.end {
            let i = self.next;
            self.next += 1;
            Some(Point::new(
                (i % self.side as u64) as u32,
                (i / self.side as u64) as u32,
            ))
        } else {
            None
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = (self.end - self.next) as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for PointsIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Grid, Torus};

    #[test]
    fn node_id_round_trip_on_grid() {
        let g = Grid::new(5).unwrap();
        for p in g.points() {
            assert_eq!(g.point_of(g.node_id(p)), p);
        }
    }

    #[test]
    fn points_iterator_is_exhaustive_and_ordered() {
        let g = Grid::new(4).unwrap();
        let pts: Vec<_> = g.points().collect();
        assert_eq!(pts.len(), 16);
        assert_eq!(pts[0], Point::new(0, 0));
        assert_eq!(pts[15], Point::new(3, 3));
        for (i, p) in pts.iter().enumerate() {
            assert_eq!(g.node_id(*p).as_usize(), i);
        }
    }

    #[test]
    fn neighbors_iterator_reports_exact_size() {
        let g = Grid::new(4).unwrap();
        let ns = g.neighbors(Point::new(0, 0));
        assert_eq!(ns.len(), 2);
        assert_eq!(ns.count(), 2);
    }

    #[test]
    fn diameters() {
        assert_eq!(Grid::new(8).unwrap().diameter(), 14);
        assert_eq!(Torus::new(8).unwrap().diameter(), 8);
        assert_eq!(Grid::new(1).unwrap().diameter(), 0);
    }

    #[test]
    fn random_point_is_in_domain() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let g = Grid::new(9).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(g.contains(g.random_point(&mut rng)));
        }
    }
}
