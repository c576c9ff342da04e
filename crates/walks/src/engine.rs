use rand::RngExt;
use sparsegossip_grid::{Point, Topology};

use crate::{lazy_step, BitSet, WalkError};

/// A set of `k` independent lazy random walks advanced in lockstep.
///
/// This is the mobility substrate of every dissemination process: time is
/// discrete, moves are synchronized, and each agent independently follows
/// the paper's lazy step law (see [`lazy_step`]).
///
/// Positions are stored densely (`Vec<Point>`) and exposed as a slice so
/// the visibility-graph builder can consume them without copying.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_grid::{Grid, Topology};
/// use sparsegossip_walks::WalkEngine;
///
/// let grid = Grid::new(128)?;
/// let mut rng = SmallRng::seed_from_u64(42);
/// let mut engine = WalkEngine::uniform(grid, 100, &mut rng)?;
/// engine.step_all(&mut rng);
/// assert!(engine.positions().iter().all(|p| grid.contains(*p)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct WalkEngine<T> {
    topo: T,
    positions: Vec<Point>,
    time: u64,
}

impl<T: Topology> WalkEngine<T> {
    /// Creates `k` walks placed uniformly and independently at random —
    /// the paper's initial condition.
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::NoAgents`] if `k == 0`.
    pub fn uniform<R: RngExt>(topo: T, k: usize, rng: &mut R) -> Result<Self, WalkError> {
        if k == 0 {
            return Err(WalkError::NoAgents);
        }
        let positions = (0..k).map(|_| topo.random_point(rng)).collect();
        Ok(Self {
            topo,
            positions,
            time: 0,
        })
    }

    /// Creates walks at explicit starting positions.
    ///
    /// # Errors
    ///
    /// Returns [`WalkError::NoAgents`] if `positions` is empty and
    /// [`WalkError::PositionOutOfBounds`] if any position lies outside
    /// the topology.
    pub fn from_positions(topo: T, positions: Vec<Point>) -> Result<Self, WalkError> {
        if positions.is_empty() {
            return Err(WalkError::NoAgents);
        }
        for (agent, &position) in positions.iter().enumerate() {
            if !topo.contains(position) {
                return Err(WalkError::PositionOutOfBounds { agent, position });
            }
        }
        Ok(Self {
            topo,
            positions,
            time: 0,
        })
    }

    /// The number of agents `k`.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the engine has no agents (never true after construction).
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The current positions, indexed by agent.
    #[inline]
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// The position of agent `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn position(&self, i: usize) -> Point {
        self.positions[i]
    }

    /// The underlying topology.
    #[inline]
    #[must_use]
    pub fn topology(&self) -> &T {
        &self.topo
    }

    /// The number of synchronized steps taken so far.
    #[inline]
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// Re-places every agent uniformly and independently at random and
    /// rewinds time to 0, reusing the position buffer.
    ///
    /// Draw-for-draw identical to constructing a fresh engine with
    /// [`WalkEngine::uniform`] from the same RNG state: one
    /// `random_point` per agent, in agent order. This is the engine half
    /// of scratch reuse — a `Simulation` recycled across seeds keeps one
    /// allocation for its whole batch.
    pub fn reset_uniform<R: RngExt>(&mut self, rng: &mut R) {
        for p in &mut self.positions {
            *p = self.topo.random_point(rng);
        }
        self.time = 0;
    }

    /// Advances every agent by one lazy step.
    // detlint: hot
    pub fn step_all<R: RngExt>(&mut self, rng: &mut R) {
        self.step_with(None, &[], rng);
    }

    /// As [`step_all`](WalkEngine::step_all), additionally recording
    /// every agent that changed position as an `(agent, from, to)`
    /// triple in `moves` (cleared first). Lazy holds are not reported.
    ///
    /// Draw-for-draw identical to [`step_all`](WalkEngine::step_all).
    /// Benchmark-replay API: the simulator rebuilds its spatial hash
    /// from positions every step; only the benchmark replay and the
    /// `components` micro-benchmark feed this log to
    /// `SpatialHash::apply_moves`.
    // detlint: hot
    pub fn step_all_into<R: RngExt>(&mut self, rng: &mut R, moves: &mut Vec<(u32, Point, Point)>) {
        moves.clear();
        // At most k entries; a one-time reservation keeps every later
        // step allocation-free however many agents happen to move.
        moves.reserve(self.positions.len());
        for (i, p) in self.positions.iter_mut().enumerate() {
            let from = *p;
            *p = lazy_step(&self.topo, from, rng);
            if *p != from {
                moves.push((i as u32, from, *p));
            }
        }
        self.time += 1;
    }

    /// The one mobility kernel of the simulator: advances the agents
    /// whose bit is set in `mask` (every agent when `None`; the Frog
    /// model moves only informed agents), agent `i` by `speeds[i]`
    /// consecutive lazy steps (its *speed class*; one step each when
    /// `speeds` is empty). Time advances by one either way.
    ///
    /// Draws come in increasing agent order, `speeds[i]` per moving
    /// agent, so a speed-0 agent draws nothing and an unmasked
    /// unit-speed step is draw-for-draw [`step_all`](WalkEngine::step_all).
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != self.len()`, or if `speeds` is neither
    /// empty nor of length `self.len()`.
    // detlint: hot
    pub fn step_with<R: RngExt>(&mut self, mask: Option<&BitSet>, speeds: &[u32], rng: &mut R) {
        // One instance per (agent iterator, speeds in use): the unmasked
        // unit-speed instance is the plain one-draw-per-agent loop.
        #[inline(always)]
        fn walk<T: Topology, R: RngExt, I: Iterator<Item = usize>, const SPEEDS: bool>(
            topo: &T,
            positions: &mut [Point],
            agents: I,
            speeds: &[u32],
            rng: &mut R,
        ) {
            for i in agents {
                let sub_steps = if SPEEDS { speeds[i] } else { 1 };
                let mut p = positions[i];
                for _ in 0..sub_steps {
                    p = lazy_step(topo, p, rng);
                }
                positions[i] = p;
            }
        }
        let k = self.positions.len();
        assert!(
            speeds.is_empty() || speeds.len() == k,
            "speeds length mismatch"
        );
        if let Some(mask) = mask {
            assert_eq!(mask.len(), k, "mask capacity mismatch");
        }
        let (topo, positions) = (&self.topo, self.positions.as_mut_slice());
        match (mask, speeds.is_empty()) {
            (None, true) => walk::<_, _, _, false>(topo, positions, 0..k, speeds, rng),
            (None, false) => walk::<_, _, _, true>(topo, positions, 0..k, speeds, rng),
            (Some(m), true) => walk::<_, _, _, false>(topo, positions, m.iter_ones(), speeds, rng),
            (Some(m), false) => walk::<_, _, _, true>(topo, positions, m.iter_ones(), speeds, rng),
        }
        self.time += 1;
    }

    /// Teleports agent `i` to `p` (used by baseline models with jumps).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `p` is outside the topology.
    pub fn set_position(&mut self, i: usize, p: Point) {
        assert!(self.topo.contains(p), "position {p} outside the topology");
        self.positions[i] = p;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sparsegossip_grid::Grid;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_engine_has_k_agents_in_domain() {
        let g = Grid::new(32).unwrap();
        let mut r = rng(1);
        let e = WalkEngine::uniform(g, 50, &mut r).unwrap();
        assert_eq!(e.len(), 50);
        assert!(!e.is_empty());
        assert!(e.positions().iter().all(|p| g.contains(*p)));
        assert_eq!(e.time(), 0);
    }

    #[test]
    fn zero_agents_is_an_error() {
        let g = Grid::new(8).unwrap();
        let mut r = rng(2);
        assert_eq!(
            WalkEngine::uniform(g, 0, &mut r).unwrap_err(),
            WalkError::NoAgents
        );
        assert_eq!(
            WalkEngine::from_positions(g, vec![]).unwrap_err(),
            WalkError::NoAgents
        );
    }

    #[test]
    fn out_of_bounds_start_is_an_error() {
        let g = Grid::new(8).unwrap();
        let err = WalkEngine::from_positions(g, vec![Point::new(8, 0)]).unwrap_err();
        assert_eq!(
            err,
            WalkError::PositionOutOfBounds {
                agent: 0,
                position: Point::new(8, 0)
            }
        );
    }

    #[test]
    fn step_all_moves_each_agent_at_most_one() {
        let g = Grid::new(16).unwrap();
        let mut r = rng(3);
        let mut e = WalkEngine::uniform(g, 20, &mut r).unwrap();
        for _ in 0..200 {
            let before = e.positions().to_vec();
            e.step_all(&mut r);
            for (b, a) in before.iter().zip(e.positions()) {
                assert!(b.manhattan(*a) <= 1);
            }
        }
        assert_eq!(e.time(), 200);
    }

    #[test]
    fn step_all_into_matches_step_all_and_logs_moves() {
        let g = Grid::new(16).unwrap();
        let mut r1 = rng(21);
        let mut plain = WalkEngine::uniform(g, 25, &mut r1).unwrap();
        let mut r2 = rng(21);
        let mut tracked = WalkEngine::uniform(g, 25, &mut r2).unwrap();
        let mut moves = Vec::new();
        for _ in 0..100 {
            let before = tracked.positions().to_vec();
            plain.step_all(&mut r1);
            tracked.step_all_into(&mut r2, &mut moves);
            assert_eq!(plain.positions(), tracked.positions());
            // The log holds exactly the agents whose position changed.
            for (i, (b, a)) in before.iter().zip(tracked.positions()).enumerate() {
                let logged = moves.iter().find(|m| m.0 as usize == i);
                if b == a {
                    assert!(logged.is_none(), "held agent {i} logged");
                } else {
                    assert_eq!(logged, Some(&(i as u32, *b, *a)));
                }
            }
        }
        assert_eq!(plain.time(), tracked.time());
    }

    #[test]
    fn step_with_matches_a_per_agent_lazy_step_reference() {
        // Every (mask, speeds) shape of the kernel against an independent
        // per-agent `lazy_step` loop fed the same RNG stream: masked
        // agents in increasing order, `speeds[i]` draws each (none at
        // speed 0), unmasked agents frozen.
        const K: usize = 12;
        let g = Grid::new(16).unwrap();
        let mut full = BitSet::new(K);
        for i in 0..K {
            full.insert(i);
        }
        let mut sparse = BitSet::new(K);
        for i in [2, 4, 9] {
            sparse.insert(i);
        }
        let unit = [1u32; K];
        let mixed: Vec<u32> = (0..K).map(|i| (i % 4) as u32).collect();
        let masks = [
            ("none", None),
            ("full", Some(&full)),
            ("sparse", Some(&sparse)),
        ];
        let speed_rows: [(&str, &[u32]); 3] = [("empty", &[]), ("all-1", &unit), ("mixed", &mixed)];
        for (mask_name, mask) in masks {
            for (speeds_name, speeds) in speed_rows {
                let mut r1 = rng(41);
                let mut e = WalkEngine::uniform(g, K, &mut r1).unwrap();
                let mut r2 = rng(41);
                let mut reference = WalkEngine::uniform(g, K, &mut r2)
                    .unwrap()
                    .positions()
                    .to_vec();
                for t in 1..=50u64 {
                    e.step_with(mask, speeds, &mut r1);
                    for (i, p) in reference.iter_mut().enumerate() {
                        if mask.is_some_and(|m| !m.contains(i)) {
                            continue;
                        }
                        for _ in 0..speeds.get(i).copied().unwrap_or(1) {
                            *p = lazy_step(&g, *p, &mut r2);
                        }
                    }
                    let case = format!("mask {mask_name}, speeds {speeds_name}, step {t}");
                    assert_eq!(e.positions(), &reference[..], "{case}");
                    assert_eq!(e.time(), t, "{case}");
                }
                assert_eq!(
                    r1.random_range(0..u64::MAX),
                    r2.random_range(0..u64::MAX),
                    "mask {mask_name}, speeds {speeds_name}: RNG streams diverged"
                );
            }
        }
    }

    #[test]
    fn speed_classes_bound_displacement_and_freeze_speed_zero() {
        let g = Grid::new(32).unwrap();
        let mut r = rng(32);
        let mut e = WalkEngine::uniform(g, 12, &mut r).unwrap();
        let speeds: Vec<u32> = (0..12).map(|i| (i % 4) as u32).collect();
        for _ in 0..100 {
            let before = e.positions().to_vec();
            e.step_with(None, &speeds, &mut r);
            for (i, (b, a)) in before.iter().zip(e.positions()).enumerate() {
                assert!(
                    b.manhattan(*a) <= speeds[i],
                    "agent {i} jumped {} > speed {}",
                    b.manhattan(*a),
                    speeds[i]
                );
                if speeds[i] == 0 {
                    assert_eq!(b, a, "speed-0 agent {i} moved");
                }
            }
        }
    }

    #[test]
    fn reset_uniform_replays_construction_draws() {
        let g = Grid::new(16).unwrap();
        // A fresh engine and a reset engine fed the same RNG state must
        // land on identical positions (the draw-order contract).
        let mut r1 = rng(11);
        let fresh = WalkEngine::uniform(g, 12, &mut r1).unwrap();
        let mut r2 = rng(99);
        let mut reused = WalkEngine::uniform(g, 12, &mut r2).unwrap();
        for _ in 0..37 {
            reused.step_all(&mut r2);
        }
        let mut r3 = rng(11);
        reused.reset_uniform(&mut r3);
        assert_eq!(reused.positions(), fresh.positions());
        assert_eq!(reused.time(), 0);
    }

    #[test]
    fn set_position_teleports() {
        let g = Grid::new(8).unwrap();
        let mut e = WalkEngine::from_positions(g, vec![Point::new(0, 0)]).unwrap();
        e.set_position(0, Point::new(7, 7));
        assert_eq!(e.position(0), Point::new(7, 7));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn set_position_rejects_out_of_domain() {
        let g = Grid::new(8).unwrap();
        let mut e = WalkEngine::from_positions(g, vec![Point::new(0, 0)]).unwrap();
        e.set_position(0, Point::new(8, 8));
    }
}
