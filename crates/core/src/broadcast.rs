use core::fmt;
use core::ops::ControlFlow;

use rand::RngExt;
use sparsegossip_conngraph::{Components, SpatialHash};
use sparsegossip_grid::{Grid, Point};
use sparsegossip_walks::BitSet;

use crate::{ExchangeCtx, ExchangeRule, Mobility, Process, SimConfig, SimError, Simulation};

/// Outcome of a broadcast run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct BroadcastOutcome {
    /// The broadcast time `T_B`: first step at which every agent knew
    /// the rumor, or `None` if the step cap was reached first.
    pub broadcast_time: Option<u64>,
    /// Number of informed agents when the run ended.
    pub informed: usize,
    /// Total number of agents.
    pub k: usize,
}

impl BroadcastOutcome {
    /// Whether every agent was informed within the cap.
    #[inline]
    #[must_use]
    pub fn completed(&self) -> bool {
        self.broadcast_time.is_some()
    }

    /// Fraction of agents informed when the run ended.
    #[must_use]
    pub fn informed_fraction(&self) -> f64 {
        self.informed as f64 / self.k as f64
    }
}

impl fmt::Display for BroadcastOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.broadcast_time {
            Some(t) => write!(f, "T_B = {t} ({}/{} informed)", self.informed, self.k),
            None => write!(f, "incomplete ({}/{} informed)", self.informed, self.k),
        }
    }
}

/// Single-rumor broadcast among mobile agents — the [`Process`] of
/// Theorems 1 and 2.
///
/// Dynamics per step (run by [`Simulation`]): (1) agents move according
/// to the mobility rule; (2) the visibility graph `G_t(r)` is rebuilt;
/// (3) the rumor floods every component containing an informed agent
/// (the paper's instantaneous in-component spreading). An initial
/// exchange happens at placement time (step 0), since `G_0(r)` already
/// exists.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{SimConfig, Simulation};
///
/// let config = SimConfig::builder(48, 24).radius(1).build()?;
/// let mut rng = SmallRng::seed_from_u64(7);
/// let mut sim = Simulation::broadcast(&config, &mut rng)?;
/// let outcome = sim.run(&mut rng);
/// assert!(outcome.completed());
/// assert_eq!(outcome.informed, 24);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Broadcast {
    mobility: Mobility,
    exchange_rule: ExchangeRule,
    informed: BitSet,
    /// The complement of `informed`, updated by every write to it, so
    /// the smaller side of the split can seed the frontier labelling.
    uninformed: BitSet,
    informed_count: usize,
    /// Reused buffers for the one-hop exchange rule (the spatial hash
    /// over agents and the start-of-step informed snapshot), so the
    /// ablation path is as allocation-free as the component path.
    one_hop_spatial: SpatialHash,
    one_hop_snapshot: BitSet,
}

impl Broadcast {
    /// Creates the process state for `k` agents with one informed
    /// `source`.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooFewAgents`] if `k < 2`;
    /// * [`SimError::SourceOutOfRange`] if `source ≥ k`.
    pub fn new(k: usize, source: usize) -> Result<Self, SimError> {
        if k < 2 {
            return Err(SimError::TooFewAgents { k });
        }
        if source >= k {
            return Err(SimError::SourceOutOfRange { source, k });
        }
        let mut informed = BitSet::new(k);
        informed.insert(source);
        Ok(Self::with_informed(informed))
    }

    /// Creates the process state for `k` agents with the first
    /// `sources` agents informed (multi-source broadcast).
    ///
    /// # Errors
    ///
    /// * [`SimError::TooFewAgents`] if `k < 2`;
    /// * [`SimError::SourceOutOfRange`] if `sources == 0` or
    ///   `sources > k`.
    pub fn with_sources(k: usize, sources: usize) -> Result<Self, SimError> {
        if k < 2 {
            return Err(SimError::TooFewAgents { k });
        }
        if sources == 0 || sources > k {
            return Err(SimError::SourceOutOfRange {
                source: sources.saturating_sub(1),
                k,
            });
        }
        let mut informed = BitSet::new(k);
        for s in 0..sources {
            informed.insert(s);
        }
        Ok(Self::with_informed(informed))
    }

    fn with_informed(informed: BitSet) -> Self {
        let k = informed.len();
        let informed_count = informed.count_ones();
        let mut uninformed = BitSet::new(k);
        uninformed.set_all();
        for i in informed.iter_ones() {
            uninformed.remove(i);
        }
        Self {
            mobility: Mobility::All,
            exchange_rule: ExchangeRule::Component,
            informed,
            uninformed,
            informed_count,
            one_hop_spatial: SpatialHash::default(),
            one_hop_snapshot: BitSet::new(k),
        }
    }

    /// Creates the process described by `config` (mobility, exchange
    /// rule, source).
    ///
    /// # Errors
    ///
    /// As [`Broadcast::new`].
    pub fn from_config(config: &SimConfig) -> Result<Self, SimError> {
        Ok(Self::new(config.k(), config.source())?
            .mobility(config.mobility())
            .exchange_rule(config.exchange_rule()))
    }

    /// Sets the mobility rule (default [`Mobility::All`]).
    #[must_use]
    pub fn mobility(mut self, mobility: Mobility) -> Self {
        self.mobility = mobility;
        self
    }

    /// Sets the exchange rule (default [`ExchangeRule::Component`]).
    #[must_use]
    pub fn exchange_rule(mut self, rule: ExchangeRule) -> Self {
        self.exchange_rule = rule;
        self
    }

    /// The informed-agent set.
    #[inline]
    #[must_use]
    pub fn informed_set(&self) -> &BitSet {
        &self.informed
    }

    /// The number of informed agents.
    #[inline]
    #[must_use]
    pub fn informed_count(&self) -> usize {
        self.informed_count
    }

    /// Whether every agent is informed.
    #[inline]
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.informed_count == self.informed.len()
    }

    /// One-hop exchange: every agent within `r` of a currently informed
    /// agent becomes informed; returns the number of newly informed.
    ///
    /// Both the spatial hash and the start-of-step snapshot refill
    /// persistent buffers, so the step allocates nothing.
    // hot: census row `steady_state_steps_are_allocation_free`
    fn exchange_one_hop(&mut self, positions: &[Point], radius: u32, side: u32) -> usize {
        self.one_hop_spatial.rebuild(positions, radius, side);
        let hash = &self.one_hop_spatial;
        self.one_hop_snapshot.copy_from(&self.informed);
        let mut fresh = 0;
        let informed = &mut self.informed;
        let uninformed = &mut self.uninformed;
        for i in self.one_hop_snapshot.iter_ones() {
            let p = positions[i];
            hash.for_each_candidate(p, |j| {
                let j = j as usize;
                if positions[j].manhattan(p) <= radius && informed.insert(j) {
                    uninformed.remove(j);
                    fresh += 1;
                }
            });
        }
        self.informed_count += fresh;
        fresh
    }

    /// Floods every component containing an informed agent; returns the
    /// number of newly informed agents.
    // hot: census row `steady_state_steps_are_allocation_free`
    fn exchange_components(&mut self, comps: &Components) -> usize {
        let mut fresh = 0;
        for c in 0..comps.count() {
            let members = comps.members(c);
            // Only the `Full` scope hands out lone agents; the seeded
            // build never labels one.
            if members.len() == 1 {
                continue;
            }
            if members.iter().any(|&m| self.informed.contains(m as usize)) {
                for &m in members {
                    if self.informed.insert(m as usize) {
                        self.uninformed.remove(m as usize);
                        fresh += 1;
                    }
                }
            }
        }
        self.informed_count += fresh;
        fresh
    }
}

impl Process for Broadcast {
    type Outcome = BroadcastOutcome;

    fn agent_count(&self) -> Option<usize> {
        Some(self.informed.len())
    }

    fn mobility_mask(&self) -> Option<&BitSet> {
        match self.mobility {
            Mobility::All => None,
            Mobility::InformedOnly => Some(&self.informed),
        }
    }

    /// A churned-out agent is replaced by a fresh arrival that has not
    /// heard the rumor: its informed bit is dropped.
    fn reset_agent(&mut self, i: usize) {
        if self.informed.remove(i) {
            self.uninformed.insert(i);
            self.informed_count -= 1;
        }
    }

    /// Only components holding both an informed and an uninformed agent
    /// can change the informed set: a component without an informed
    /// agent floods nothing, and one without an uninformed agent has
    /// nobody left to inform. So either side of the split is a valid
    /// seed set, and the driver labels from the smaller one — the
    /// informed agents early in a run, the uninformed ones once more
    /// than half of `k` know the rumor. This covers the Frog
    /// configuration too — [`Mobility::InformedOnly`] is the same
    /// process with a mask. The one-hop ablation rule never reads
    /// components at all (its exchange scans positions through its own
    /// hash), so it lets the driver skip labelling outright.
    fn components_scope(&self) -> crate::ComponentsScope<'_> {
        match self.exchange_rule {
            ExchangeRule::Component if 2 * self.informed_count > self.informed.len() => {
                crate::ComponentsScope::Seeded(&self.uninformed)
            }
            ExchangeRule::Component => crate::ComponentsScope::Seeded(&self.informed),
            ExchangeRule::OneHop => crate::ComponentsScope::None,
        }
    }

    fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        match self.exchange_rule {
            ExchangeRule::Component => self.exchange_components(ctx.components),
            ExchangeRule::OneHop => self.exchange_one_hop(ctx.positions, ctx.radius, ctx.side),
        };
        if self.is_complete() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn informed(&self) -> Option<&BitSet> {
        Some(&self.informed)
    }

    fn outcome(&self, time: u64) -> BroadcastOutcome {
        BroadcastOutcome {
            broadcast_time: self.is_complete().then_some(time),
            informed: self.informed_count,
            k: self.informed.len(),
        }
    }
}

impl Simulation<Broadcast, Grid> {
    /// Builds a broadcast simulation on the bounded grid described by
    /// `config`, with agents placed uniformly at random.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors ([`SimError::Grid`],
    /// [`SimError::Walk`], [`SimError::TooFewAgents`],
    /// [`SimError::SourceOutOfRange`], [`SimError::ZeroStepCap`]).
    pub fn broadcast<R: RngExt>(config: &SimConfig, rng: &mut R) -> Result<Self, SimError> {
        Self::broadcast_with_scratch(config, rng, crate::SimScratch::new())
    }

    /// As [`Simulation::broadcast`], reusing a recycled
    /// [`SimScratch`](crate::SimScratch) (see
    /// [`Simulation::into_scratch`]) so repeated runs share one set of
    /// hot-path buffers.
    ///
    /// # Errors
    ///
    /// As [`Simulation::broadcast`].
    pub fn broadcast_with_scratch<R: RngExt>(
        config: &SimConfig,
        rng: &mut R,
        scratch: crate::SimScratch,
    ) -> Result<Self, SimError> {
        let grid = Grid::new(config.side())?;
        Simulation::new_with_scratch(
            grid,
            config.k(),
            config.radius(),
            config.max_steps(),
            Broadcast::from_config(config)?,
            rng,
            scratch,
        )
    }

    /// Builds a broadcast in the Frog model of §4: only informed agents
    /// walk; uninformed agents sit at their initial positions until an
    /// informed agent comes within the transmission radius, at which
    /// point they activate. The paper shows the same `Θ̃(n/√k)` bounds
    /// hold here (with Lemma 3 replaced by Lemma 1 in the upper-bound
    /// argument).
    ///
    /// The Frog model is [`Broadcast`] with [`Mobility::InformedOnly`]:
    /// the `config`'s mobility rule is overridden, and its
    /// [`exchange_rule`](SimConfig::exchange_rule) is honored.
    ///
    /// # Errors
    ///
    /// As [`Simulation::broadcast`].
    ///
    /// # Examples
    ///
    /// ```
    /// use rand::rngs::SmallRng;
    /// use rand::SeedableRng;
    /// use sparsegossip_core::{SimConfig, Simulation};
    ///
    /// let config = SimConfig::builder(24, 12).radius(0).build()?;
    /// let mut rng = SmallRng::seed_from_u64(5);
    /// let mut sim = Simulation::frog(&config, &mut rng)?;
    /// let outcome = sim.run(&mut rng);
    /// assert!(outcome.completed());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn frog<R: RngExt>(config: &SimConfig, rng: &mut R) -> Result<Self, SimError> {
        let grid = Grid::new(config.side())?;
        Simulation::new(
            grid,
            config.k(),
            config.radius(),
            config.max_steps(),
            Broadcast::from_config(config)?.mobility(Mobility::InformedOnly),
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NullObserver;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn config(side: u32, k: usize, r: u32) -> SimConfig {
        SimConfig::builder(side, k).radius(r).build().unwrap()
    }

    #[test]
    fn completes_on_small_grid() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sim = Simulation::broadcast(&config(16, 8, 0), &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.completed(), "informed only {}", out.informed);
        assert_eq!(out.informed, 8);
        assert!((out.informed_fraction() - 1.0).abs() < 1e-12);
        assert!(sim.is_complete());
    }

    #[test]
    fn informed_set_is_monotone() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sim = Simulation::broadcast(&config(32, 16, 1), &mut rng).unwrap();
        let mut prev = sim.process().informed_set().clone();
        for _ in 0..500 {
            let _ = sim.step(&mut rng, &mut NullObserver);
            let informed = sim.process().informed_set();
            assert!(prev.is_subset(informed), "an agent forgot the rumor");
            prev = informed.clone();
            if sim.is_complete() {
                break;
            }
        }
    }

    #[test]
    fn step_cap_yields_incomplete_outcome() {
        let mut rng = SmallRng::seed_from_u64(3);
        let cfg = SimConfig::builder(64, 4).max_steps(1).build().unwrap();
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        // With k=4 on a 64-grid, one step almost surely does not finish.
        assert!(!out.completed());
        assert!(out.informed >= 1);
        assert!(out.informed_fraction() <= 1.0);
    }

    #[test]
    fn radius_as_large_as_grid_finishes_at_step_zero() {
        let mut rng = SmallRng::seed_from_u64(4);
        let cfg = SimConfig::builder(16, 8).radius(32).build().unwrap();
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        assert!(
            sim.is_complete(),
            "radius ≥ diameter must flood at placement"
        );
        let out = sim.run(&mut rng);
        assert_eq!(out.broadcast_time, Some(0));
    }

    #[test]
    fn source_choice_is_respected() {
        let mut rng = SmallRng::seed_from_u64(5);
        let cfg = SimConfig::builder(32, 8)
            .source(5)
            .max_steps(1)
            .build()
            .unwrap();
        let sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        assert!(sim.process().informed_set().contains(5));
    }

    #[test]
    fn from_positions_lower_bound_layout() {
        // Source far left, receiver far right, contact-only: cannot
        // finish in a handful of steps (distance ≫ steps).
        let g = Grid::new(64).unwrap();
        let positions = vec![Point::new(0, 32), Point::new(63, 32)];
        let process = Broadcast::new(positions.len(), 0).unwrap();
        let mut sim = Simulation::from_positions(g, positions, 0, 20, process).unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let out = sim.run(&mut rng);
        assert!(!out.completed(), "agents 63 apart cannot meet in 20 steps");
    }

    #[test]
    fn constructor_validation() {
        let g = Grid::new(8).unwrap();
        let mut rng = SmallRng::seed_from_u64(7);
        assert!(matches!(
            Broadcast::new(1, 0),
            Err(SimError::TooFewAgents { k: 1 })
        ));
        assert!(matches!(
            Broadcast::new(4, 9),
            Err(SimError::SourceOutOfRange { source: 9, k: 4 })
        ));
        let process = Broadcast::new(4, 0).unwrap();
        assert!(matches!(
            Simulation::new(g, 4, 0, 0, process, &mut rng),
            Err(SimError::ZeroStepCap)
        ));
    }

    #[test]
    fn larger_radius_is_never_slower_in_distribution() {
        // Corollary 1 direction: mean T_B at r=4 ≤ mean T_B at r=0 on
        // matched sizes (generous replication to damp noise).
        let reps = 12u64;
        let mean_tb = |r: u32, seed: u64| {
            let mut total = 0u64;
            for i in 0..reps {
                let mut rng = SmallRng::seed_from_u64(seed + i);
                let mut sim = Simulation::broadcast(&config(24, 12, r), &mut rng).unwrap();
                total += sim.run(&mut rng).broadcast_time.expect("must finish");
            }
            total as f64 / reps as f64
        };
        let slow = mean_tb(0, 100);
        let fast = mean_tb(4, 200);
        assert!(fast <= slow * 1.2, "r=4 mean {fast} ≫ r=0 mean {slow}");
    }

    #[test]
    fn outcome_display_reports_both_states() {
        let done = BroadcastOutcome {
            broadcast_time: Some(42),
            informed: 8,
            k: 8,
        };
        assert_eq!(done.to_string(), "T_B = 42 (8/8 informed)");
        let capped = BroadcastOutcome {
            broadcast_time: None,
            informed: 3,
            k: 8,
        };
        assert_eq!(capped.to_string(), "incomplete (3/8 informed)");
    }

    #[test]
    fn frog_completes_on_small_grid() {
        let cfg = SimConfig::builder(12, 8).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(31);
        let mut sim = Simulation::frog(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.completed(), "informed only {}", out.informed);
    }

    #[test]
    fn frog_constructor_matches_generic_driver() {
        let cfg = SimConfig::builder(16, 8).radius(0).build().unwrap();
        let mut rng_a = SmallRng::seed_from_u64(35);
        let mut rng_b = SmallRng::seed_from_u64(35);
        let process = Broadcast::new(8, 0)
            .unwrap()
            .mobility(Mobility::InformedOnly);
        let grid = Grid::new(16).unwrap();
        let mut generic =
            Simulation::new(grid, 8, 0, cfg.max_steps(), process, &mut rng_a).unwrap();
        let mut frog = Simulation::frog(&cfg, &mut rng_b).unwrap();
        assert_eq!(generic.run(&mut rng_a), frog.run(&mut rng_b));
    }

    #[test]
    fn uninformed_agents_do_not_move() {
        let cfg = SimConfig::builder(32, 10)
            .radius(0)
            .max_steps(50)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(32);
        let mut sim = Simulation::frog(&cfg, &mut rng).unwrap();
        let initial: Vec<Point> = sim.positions().to_vec();
        for _ in 0..20 {
            let _ = sim.step(&mut rng, &mut NullObserver);
        }
        for (i, start) in initial.iter().enumerate() {
            // Agents informed at some point may have moved; only
            // dormant ones are constrained.
            if !sim.process().informed_set().contains(i) {
                assert_eq!(sim.positions()[i], *start, "dormant frog {i} moved");
            }
        }
    }

    #[test]
    fn frog_is_slower_than_free_mobility_on_average() {
        // With fewer walkers active, meetings are rarer; the Frog model
        // should not beat the fully mobile model by a large margin. We
        // check only the direction on averages (noise-tolerant).
        let reps = 10;
        let mean = |frog: bool| {
            let mut total = 0u64;
            for i in 0..reps {
                let cfg = SimConfig::builder(16, 8).radius(0).build().unwrap();
                let mut rng = SmallRng::seed_from_u64(5000 + i);
                let mut sim = if frog {
                    Simulation::frog(&cfg, &mut rng).unwrap()
                } else {
                    Simulation::broadcast(&cfg, &mut rng).unwrap()
                };
                total += sim.run(&mut rng).broadcast_time.unwrap();
            }
            total as f64 / reps as f64
        };
        let frog = mean(true);
        let free = mean(false);
        assert!(
            frog >= free * 0.8,
            "frog mean {frog} suspiciously below free {free}"
        );
    }
}
