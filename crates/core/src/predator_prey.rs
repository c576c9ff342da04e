use core::fmt;
use core::ops::ControlFlow;

use rand::RngExt;
use sparsegossip_conngraph::SpatialHash;
use sparsegossip_grid::{Point, Topology};
use sparsegossip_walks::{lazy_step, BitSet};

use crate::{ExchangeCtx, Process, SimError};

/// Outcome of a predator–prey run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct ExtinctionOutcome {
    /// First step at which no prey survived, or `None` at the cap.
    pub extinction_time: Option<u64>,
    /// Surviving preys when the run ended.
    pub survivors: usize,
    /// Initial prey count.
    pub num_preys: usize,
}

impl ExtinctionOutcome {
    /// Whether all preys were caught within the cap.
    #[inline]
    #[must_use]
    pub fn completed(&self) -> bool {
        self.extinction_time.is_some()
    }
}

impl fmt::Display for ExtinctionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.extinction_time {
            Some(t) => write!(f, "extinct at {t} ({} preys)", self.num_preys),
            None => write!(
                f,
                "incomplete ({}/{} preys surviving)",
                self.survivors, self.num_preys
            ),
        }
    }
}

/// The random predator–prey system of §4 as a [`Process`]: the driven
/// agents are `k` predators performing independent lazy walks; a prey
/// is caught when a predator comes within the catch radius. The paper's
/// techniques give an `O(n log²n / k)` high-probability bound on the
/// extinction time for `k = Ω(log n)` predators.
///
/// Preys may be mobile (walking like the predators, via
/// [`Process::post_move`]) or static. Catch resolution does not use the
/// visibility components, so the process opts out of the rebuild
/// ([`Process::NEEDS_COMPONENTS`] is `false`).
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{PredatorPrey, Simulation};
/// use sparsegossip_grid::Grid;
///
/// let grid = Grid::new(16)?;
/// let mut rng = SmallRng::seed_from_u64(2);
/// // Preys are placed first, then the 8 predators.
/// let process = PredatorPrey::uniform(&grid, 4, 0, true, &mut rng)?;
/// let mut sim = Simulation::new(grid, 8, 0, 1_000_000, process, &mut rng)?;
/// let out = sim.run(&mut rng);
/// assert!(out.completed());
/// assert_eq!(out.survivors, 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct PredatorPrey {
    prey_positions: Vec<Point>,
    prey_alive: BitSet,
    alive_count: usize,
    catch_radius: u32,
    preys_mobile: bool,
    num_preys: usize,
    /// Reused buffers for the per-step predator hash, so catch
    /// resolution never allocates.
    spatial: SpatialHash,
}

impl PredatorPrey {
    /// Creates `m` preys placed uniformly at random on `topo`.
    ///
    /// # Errors
    ///
    /// [`SimError::TooFewAgents`] if `m == 0`.
    pub fn uniform<T: Topology, R: RngExt>(
        topo: &T,
        m: usize,
        catch_radius: u32,
        preys_mobile: bool,
        rng: &mut R,
    ) -> Result<Self, SimError> {
        if m == 0 {
            return Err(SimError::TooFewAgents { k: m });
        }
        let prey_positions = (0..m).map(|_| topo.random_point(rng)).collect();
        Ok(Self::from_prey_positions(
            prey_positions,
            catch_radius,
            preys_mobile,
        ))
    }

    /// Creates the process from explicit prey positions.
    #[must_use]
    pub fn from_prey_positions(
        prey_positions: Vec<Point>,
        catch_radius: u32,
        preys_mobile: bool,
    ) -> Self {
        let m = prey_positions.len();
        let mut prey_alive = BitSet::new(m);
        prey_alive.set_all();
        Self {
            prey_positions,
            prey_alive,
            alive_count: m,
            catch_radius,
            preys_mobile,
            num_preys: m,
            spatial: SpatialHash::default(),
        }
    }

    /// The number of surviving preys.
    #[inline]
    #[must_use]
    pub fn survivors(&self) -> usize {
        self.alive_count
    }

    /// Whether every prey has been caught.
    #[inline]
    #[must_use]
    pub fn is_extinct(&self) -> bool {
        self.alive_count == 0
    }

    /// Current prey positions (dead preys stay where they were caught).
    #[inline]
    #[must_use]
    pub fn prey_positions(&self) -> &[Point] {
        &self.prey_positions
    }

    /// Kills every living prey within the catch radius of a predator;
    /// returns the kill count. Allocation-free: the predator hash
    /// refills a persistent scratch and preys are scanned by index.
    fn catch_preys(&mut self, predators: &[Point], side: u32) -> usize {
        self.spatial.rebuild(predators, self.catch_radius, side);
        let hash = &self.spatial;
        let mut caught = 0;
        for i in 0..self.prey_positions.len() {
            if !self.prey_alive.contains(i) {
                continue;
            }
            let p = self.prey_positions[i];
            let mut dead = false;
            hash.for_each_candidate(p, |pred| {
                dead |= predators[pred as usize].manhattan(p) <= self.catch_radius;
            });
            if dead {
                self.prey_alive.remove(i);
                self.alive_count -= 1;
                caught += 1;
            }
        }
        caught
    }
}

impl Process for PredatorPrey {
    type Outcome = ExtinctionOutcome;

    /// Catches are resolved against prey positions directly; no
    /// predator-to-predator visibility graph is needed.
    const NEEDS_COMPONENTS: bool = false;

    fn post_move<T: Topology, R: RngExt>(&mut self, topo: &T, rng: &mut R) {
        if self.preys_mobile {
            // Walk only the living preys; carcasses stay put. The index
            // scan visits living preys in the same increasing order as
            // the old snapshot-clone did, so RNG draws are unchanged —
            // just without the per-step allocation.
            for i in 0..self.prey_positions.len() {
                if self.prey_alive.contains(i) {
                    self.prey_positions[i] = lazy_step(topo, self.prey_positions[i], rng);
                }
            }
        }
    }

    fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        self.catch_preys(ctx.positions, ctx.side);
        if self.is_extinct() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn outcome(&self, time: u64) -> ExtinctionOutcome {
        ExtinctionOutcome {
            extinction_time: self.is_extinct().then_some(time),
            survivors: self.alive_count,
            num_preys: self.num_preys,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NullObserver, Simulation};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sparsegossip_grid::Grid;

    /// `k` predators and `m` preys on a `side`-grid, preys placed
    /// first, as every predator–prey run draws them.
    fn on_grid(
        side: u32,
        k: usize,
        m: usize,
        catch_radius: u32,
        preys_mobile: bool,
        max_steps: u64,
        rng: &mut SmallRng,
    ) -> Result<Simulation<PredatorPrey, Grid>, SimError> {
        let grid = Grid::new(side)?;
        let process = PredatorPrey::uniform(&grid, m, catch_radius, preys_mobile, rng)?;
        Simulation::new(grid, k, catch_radius, max_steps, process, rng)
    }

    #[test]
    fn extinction_on_small_grid() {
        let mut rng = SmallRng::seed_from_u64(41);
        let mut sim = on_grid(12, 6, 4, 0, true, 2_000_000, &mut rng).unwrap();
        assert_eq!(sim.k(), 6);
        let out = sim.run(&mut rng);
        assert!(out.completed());
        assert_eq!(out.survivors, 0);
        assert_eq!(out.num_preys, 4);
    }

    #[test]
    fn survivor_count_is_monotone_nonincreasing() {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut sim = on_grid(24, 4, 8, 1, false, 10_000, &mut rng).unwrap();
        let mut prev = sim.process().survivors();
        for _ in 0..200 {
            let _ = sim.step(&mut rng, &mut NullObserver);
            assert!(sim.process().survivors() <= prev, "a prey resurrected");
            prev = sim.process().survivors();
            if sim.is_complete() {
                break;
            }
        }
    }

    #[test]
    fn large_catch_radius_is_instant_extinction() {
        let mut rng = SmallRng::seed_from_u64(43);
        let sim = on_grid(8, 2, 4, 16, true, 100, &mut rng).unwrap();
        assert!(
            sim.process().is_extinct(),
            "radius covering the grid must catch at placement"
        );
        assert_eq!(sim.outcome().extinction_time, Some(0));
    }

    #[test]
    fn static_preys_match_frog_style_dynamics() {
        let mut rng = SmallRng::seed_from_u64(44);
        let mut sim = on_grid(10, 4, 3, 0, false, 1_000_000, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(
            out.completed(),
            "static preys on a tiny grid must be caught"
        );
    }

    #[test]
    fn constructor_validation() {
        let mut rng = SmallRng::seed_from_u64(45);
        assert!(on_grid(8, 0, 4, 0, true, 10, &mut rng).is_err());
        assert!(on_grid(8, 4, 0, 0, true, 10, &mut rng).is_err());
        assert!(on_grid(8, 4, 4, 0, true, 0, &mut rng).is_err());
    }

    #[test]
    fn more_predators_kill_faster_on_average() {
        let mean = |k: usize, seed: u64| {
            let reps = 8;
            let mut total = 0u64;
            for i in 0..reps {
                let mut rng = SmallRng::seed_from_u64(seed + i);
                let mut sim = on_grid(16, k, 4, 0, true, 5_000_000, &mut rng).unwrap();
                total += sim.run(&mut rng).extinction_time.unwrap();
            }
            total as f64 / 8.0
        };
        let few = mean(2, 777);
        let many = mean(16, 888);
        assert!(many < few, "k=16 mean {many} not below k=2 mean {few}");
    }

    #[test]
    fn outcome_display_reports_both_states() {
        let done = ExtinctionOutcome {
            extinction_time: Some(7),
            survivors: 0,
            num_preys: 4,
        };
        assert_eq!(done.to_string(), "extinct at 7 (4 preys)");
        let capped = ExtinctionOutcome {
            extinction_time: None,
            survivors: 2,
            num_preys: 4,
        };
        assert_eq!(capped.to_string(), "incomplete (2/4 preys surviving)");
    }
}
