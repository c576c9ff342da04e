use rand::RngExt;
use sparsegossip_grid::{Point, Topology};

/// Denominator of the paper's step law: each neighbor is chosen with
/// probability `1/5`, so a degree-`n_v` node holds with probability
/// `1 − n_v/5`.
pub const HOLD_DENOMINATOR: u32 = 5;

/// Performs one step of the paper's lazy random walk from `p`.
///
/// Draws `u` uniformly from `{0, …, 4}`; if `u` indexes an existing
/// neighbor (in canonical `N, E, S, W` order) the walk moves there,
/// otherwise it holds. This gives each neighbor probability exactly
/// `1/5` and makes the uniform distribution over nodes stationary on any
/// [`Topology`] (the degree-biased holding exactly compensates missing
/// boundary edges).
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_grid::{Grid, Point};
/// use sparsegossip_walks::lazy_step;
///
/// let grid = Grid::new(8)?;
/// let mut rng = SmallRng::seed_from_u64(3);
/// let p = Point::new(4, 4);
/// let q = lazy_step(&grid, p, &mut rng);
/// assert!(p.manhattan(q) <= 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[inline]
pub fn lazy_step<T: Topology, R: RngExt>(topo: &T, p: Point, rng: &mut R) -> Point {
    let u = rng.random_range(0..HOLD_DENOMINATOR) as usize;
    topo.lazy_target(p, u)
}

/// A single lazy random walk with step accounting.
///
/// Thin convenience wrapper over [`lazy_step`] for single-walk
/// experiments (range, displacement, hitting times). Multi-agent
/// simulations should use [`WalkEngine`](crate::WalkEngine) instead.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_grid::{Grid, Point};
/// use sparsegossip_walks::Walk;
///
/// let grid = Grid::new(32)?;
/// let mut rng = SmallRng::seed_from_u64(11);
/// let mut walk = Walk::new(grid, Point::new(16, 16));
/// for _ in 0..50 {
///     walk.step(&mut rng);
/// }
/// assert_eq!(walk.steps(), 50);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Walk<T> {
    topo: T,
    position: Point,
    origin: Point,
    steps: u64,
}

impl<T: Topology> Walk<T> {
    /// Creates a walk at `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` lies outside the topology.
    #[must_use]
    pub fn new(topo: T, start: Point) -> Self {
        assert!(
            topo.contains(start),
            "start {start} outside side-{} domain",
            topo.side()
        );
        Self {
            topo,
            position: start,
            origin: start,
            steps: 0,
        }
    }

    /// Advances the walk by one lazy step.
    #[inline]
    pub fn step<R: RngExt>(&mut self, rng: &mut R) -> Point {
        self.position = lazy_step(&self.topo, self.position, rng);
        self.steps += 1;
        self.position
    }

    /// The current position.
    #[inline]
    #[must_use]
    pub fn position(&self) -> Point {
        self.position
    }

    /// The starting position.
    #[inline]
    #[must_use]
    pub fn origin(&self) -> Point {
        self.origin
    }

    /// The number of steps taken so far.
    #[inline]
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// The underlying topology.
    #[inline]
    #[must_use]
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// Manhattan displacement from the origin.
    #[inline]
    #[must_use]
    pub fn displacement(&self) -> u32 {
        self.origin.manhattan(self.position)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sparsegossip_grid::{Grid, Torus};

    #[test]
    fn steps_move_at_most_one() {
        let g = Grid::new(16).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut p = Point::new(0, 0);
        for _ in 0..10_000 {
            let q = lazy_step(&g, p, &mut rng);
            assert!(p.manhattan(q) <= 1);
            assert!(g.contains(q));
            p = q;
        }
    }

    #[test]
    fn neighbor_frequencies_are_one_fifth() {
        // From an interior node, each neighbor should be hit w.p. 1/5 and
        // the hold probability should be 1/5 as well (degree 4).
        let g = Grid::new(9).unwrap();
        let c = Point::new(4, 4);
        let mut rng = SmallRng::seed_from_u64(99);
        let trials = 200_000u32;
        let mut held = 0u32;
        let mut moved = 0u32;
        for _ in 0..trials {
            let q = lazy_step(&g, c, &mut rng);
            if q == c {
                held += 1;
            } else {
                moved += 1;
            }
        }
        let hold_rate = f64::from(held) / f64::from(trials);
        assert!((hold_rate - 0.2).abs() < 0.01, "hold rate {hold_rate}");
        assert_eq!(held + moved, trials);
    }

    #[test]
    fn corner_holds_with_probability_three_fifths() {
        let g = Grid::new(9).unwrap();
        let corner = Point::new(0, 0);
        let mut rng = SmallRng::seed_from_u64(7);
        let trials = 200_000u32;
        let held = (0..trials)
            .filter(|_| lazy_step(&g, corner, &mut rng) == corner)
            .count();
        let hold_rate = held as f64 / f64::from(trials);
        assert!((hold_rate - 0.6).abs() < 0.01, "hold rate {hold_rate}");
    }

    #[test]
    fn uniform_distribution_is_stationary() {
        // Start walks at every node; after one synchronized step the
        // expected occupancy of each node is 1. Check empirically that the
        // occupancy stays near-uniform after many steps.
        let g = Grid::new(6).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let reps = 2000usize;
        let mut counts = vec![0u64; 36];
        for _ in 0..reps {
            // One walker per node, 8 steps, then record all positions.
            let mut positions: Vec<Point> = g.points().collect();
            for _ in 0..8 {
                for p in &mut positions {
                    *p = lazy_step(&g, *p, &mut rng);
                }
            }
            for p in &positions {
                counts[g.node_id(*p).as_usize()] += 1;
            }
        }
        let expected = reps as f64;
        for (i, &c) in counts.iter().enumerate() {
            let ratio = c as f64 / expected;
            assert!(
                (ratio - 1.0).abs() < 0.15,
                "node {i} occupancy ratio {ratio}"
            );
        }
    }

    #[test]
    fn torus_walk_stays_in_domain() {
        let t = Torus::new(4).unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let mut walk = Walk::new(t, Point::new(0, 0));
        for _ in 0..1000 {
            let p = walk.step(&mut rng);
            assert!(t.contains(p));
        }
        assert_eq!(walk.steps(), 1000);
        assert_eq!(walk.origin(), Point::new(0, 0));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn walk_rejects_out_of_domain_start() {
        let g = Grid::new(4).unwrap();
        let _ = Walk::new(g, Point::new(4, 0));
    }
}
