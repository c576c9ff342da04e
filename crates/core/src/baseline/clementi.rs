//! The dense-MANET information-spreading model of Clementi et al.
//! (IPDPS 2009 / ICALP 2009), the paper's main prior-work baseline.
//!
//! Differences from the Pettarin et al. model:
//!
//! * **density**: results apply only for `k = Θ(n)` agents;
//! * **motion**: at each step an agent *jumps* to a uniformly random
//!   node within L1 distance `ρ` of its position (not a nearest-
//!   neighbor walk);
//! * **exchange**: information travels **one hop per step** along the
//!   distance-`R` graph (no instantaneous in-component flooding).
//!
//! Their bounds: `T_B = Θ(√n / R)` w.h.p. when `ρ = O(R)`,
//! `R = Ω(√log n)`; and `T_B = O(√n/ρ + log n)` when
//! `ρ = Ω(max{R, √log n})`. Experiment E14 reproduces the `√n/R` shape.

use rand::RngExt;
use sparsegossip_conngraph::SpatialHash;
use sparsegossip_grid::{Grid, Point, Topology};
use sparsegossip_walks::BitSet;

use crate::SimError;

/// Parameters of a Clementi-model run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClementiConfig {
    /// Grid side (`n = side²` nodes).
    pub side: u32,
    /// Number of agents (the model's guarantees need `k = Θ(n)`).
    pub k: usize,
    /// Transmission radius `R` (one-hop exchange per step).
    pub exchange_radius: u32,
    /// Jump radius `ρ` (uniform jump within L1 distance ρ).
    pub jump_radius: u32,
    /// Step cap.
    pub max_steps: u64,
}

/// Outcome of a Clementi-model run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClementiOutcome {
    /// First step at which everyone was informed, if any.
    pub broadcast_time: Option<u64>,
    /// Informed count at the end.
    pub informed: usize,
    /// Agent count.
    pub k: usize,
}

impl ClementiOutcome {
    /// Whether the broadcast completed within the cap.
    #[inline]
    #[must_use]
    pub fn completed(&self) -> bool {
        self.broadcast_time.is_some()
    }
}

/// Simulator for the Clementi et al. dense-MANET model.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::baseline::{ClementiConfig, ClementiSim};
///
/// let config = ClementiConfig {
///     side: 32,
///     k: 512,                 // dense: k = n/2
///     exchange_radius: 4,
///     jump_radius: 2,
///     max_steps: 100_000,
/// };
/// let mut rng = SmallRng::seed_from_u64(8);
/// let mut sim = ClementiSim::new(&config, &mut rng)?;
/// let out = sim.run(&mut rng);
/// assert!(out.completed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct ClementiSim {
    grid: Grid,
    positions: Vec<Point>,
    informed: BitSet,
    informed_count: usize,
    config: ClementiConfig,
    time: u64,
}

impl ClementiSim {
    /// Creates a simulation with agents placed uniformly at random and
    /// agent 0 informed. A step-0 one-hop exchange is applied.
    ///
    /// # Errors
    ///
    /// * [`SimError::Grid`] on a bad side;
    /// * [`SimError::TooFewAgents`] if `k < 2`;
    /// * [`SimError::ZeroStepCap`] if `max_steps == 0`.
    pub fn new<R: RngExt>(config: &ClementiConfig, rng: &mut R) -> Result<Self, SimError> {
        let grid = Grid::new(config.side)?;
        if config.k < 2 {
            return Err(SimError::TooFewAgents { k: config.k });
        }
        if config.max_steps == 0 {
            return Err(SimError::ZeroStepCap);
        }
        let positions = (0..config.k).map(|_| grid.random_point(rng)).collect();
        let mut informed = BitSet::new(config.k);
        informed.insert(0);
        let mut sim = Self {
            grid,
            positions,
            informed,
            informed_count: 1,
            config: *config,
            time: 0,
        };
        sim.exchange_one_hop();
        Ok(sim)
    }

    /// Steps taken so far.
    #[inline]
    #[must_use]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// The number of informed agents.
    #[inline]
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed_count
    }

    /// Whether everyone is informed.
    #[inline]
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.informed_count == self.config.k
    }

    /// Advances one step: jump, then one-hop exchange.
    pub fn step<R: RngExt>(&mut self, rng: &mut R) {
        self.jump_all(rng);
        self.time += 1;
        self.exchange_one_hop();
    }

    /// Runs until completion or the step cap.
    pub fn run<R: RngExt>(&mut self, rng: &mut R) -> ClementiOutcome {
        while !self.is_complete() && self.time < self.config.max_steps {
            self.step(rng);
        }
        ClementiOutcome {
            broadcast_time: self.is_complete().then_some(self.time),
            informed: self.informed_count,
            k: self.config.k,
        }
    }

    /// Jumps every agent to a uniform node within L1 distance ρ
    /// (rejection-sampled; the boundary simply truncates the ball).
    fn jump_all<R: RngExt>(&mut self, rng: &mut R) {
        let rho = i64::from(self.config.jump_radius);
        let side = i64::from(self.grid.side());
        for p in &mut self.positions {
            loop {
                let dx = rng.random_range(-rho..=rho);
                let dy = rng.random_range(-rho..=rho);
                if dx.abs() + dy.abs() > rho {
                    continue;
                }
                let nx = i64::from(p.x) + dx;
                let ny = i64::from(p.y) + dy;
                if nx >= 0 && ny >= 0 && nx < side && ny < side {
                    *p = Point::new(nx as u32, ny as u32);
                    break;
                }
            }
        }
    }

    /// One synchronous hop: every agent within `R` of a currently
    /// informed agent becomes informed.
    fn exchange_one_hop(&mut self) {
        let r = self.config.exchange_radius;
        let hash = SpatialHash::build(&self.positions, r, self.grid.side());
        let snapshot = self.informed.clone();
        let (positions, informed) = (&self.positions, &mut self.informed);
        for i in snapshot.iter_ones() {
            let p = positions[i];
            hash.for_each_candidate(p, |j| {
                let j = j as usize;
                if positions[j].manhattan(p) <= r && informed.insert(j) {
                    self.informed_count += 1;
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cfg(side: u32, k: usize, big_r: u32, rho: u32) -> ClementiConfig {
        ClementiConfig {
            side,
            k,
            exchange_radius: big_r,
            jump_radius: rho,
            max_steps: 1_000_000,
        }
    }

    #[test]
    fn dense_run_completes() {
        let mut rng = SmallRng::seed_from_u64(61);
        let mut sim = ClementiSim::new(&cfg(16, 128, 3, 2), &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.completed());
        assert_eq!(out.informed, 128);
    }

    #[test]
    fn one_hop_is_slower_than_flooding_radius() {
        // With R as large as the grid everyone is within one hop:
        // completion at step 0.
        let mut rng = SmallRng::seed_from_u64(62);
        let sim = ClementiSim::new(&cfg(8, 16, 16, 1), &mut rng).unwrap();
        assert!(sim.is_complete());
    }

    #[test]
    fn jumps_stay_within_rho_and_grid() {
        let mut rng = SmallRng::seed_from_u64(63);
        let mut sim = ClementiSim::new(&cfg(32, 64, 1, 5), &mut rng).unwrap();
        for _ in 0..50 {
            let before = sim.positions.clone();
            sim.jump_all(&mut rng);
            for (b, a) in before.iter().zip(&sim.positions) {
                assert!(b.manhattan(*a) <= 5);
                assert!(a.x < 32 && a.y < 32);
            }
        }
    }

    #[test]
    fn informed_count_is_monotone() {
        let mut rng = SmallRng::seed_from_u64(64);
        let mut sim = ClementiSim::new(&cfg(24, 64, 2, 2), &mut rng).unwrap();
        let mut prev = sim.informed_count();
        for _ in 0..500 {
            sim.step(&mut rng);
            assert!(sim.informed_count() >= prev);
            prev = sim.informed_count();
            if sim.is_complete() {
                break;
            }
        }
    }

    #[test]
    fn larger_exchange_radius_is_faster_on_average() {
        let mean = |big_r: u32, seed: u64| {
            let reps = 6;
            let mut total = 0u64;
            for i in 0..reps {
                let mut rng = SmallRng::seed_from_u64(seed + i);
                let mut sim = ClementiSim::new(&cfg(24, 288, big_r, 1), &mut rng).unwrap();
                total += sim.run(&mut rng).broadcast_time.unwrap();
            }
            total as f64 / 6.0
        };
        let slow = mean(1, 70);
        let fast = mean(6, 80);
        assert!(fast < slow, "R=6 mean {fast} not below R=1 mean {slow}");
    }

    #[test]
    fn constructor_validation() {
        let mut rng = SmallRng::seed_from_u64(65);
        assert!(ClementiSim::new(&cfg(0, 8, 1, 1), &mut rng).is_err());
        assert!(ClementiSim::new(&cfg(8, 1, 1, 1), &mut rng).is_err());
        let mut c = cfg(8, 8, 1, 1);
        c.max_steps = 0;
        assert!(ClementiSim::new(&c, &mut rng).is_err());
    }
}
