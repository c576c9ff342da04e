//! Joint broadcast/coverage runs: the coverage time `T_C` is the first
//! time every grid node has been visited by an *informed* agent. §4 of
//! the paper argues `T_C ≈ T_B = Õ(n/√k)` in the dynamic model.

use core::fmt;
use core::ops::ControlFlow;

use rand::RngExt;
use sparsegossip_grid::{Grid, Topology};
use sparsegossip_walks::{BitSet, CoverTracker};

use crate::{Broadcast, ExchangeCtx, Process, SimConfig, SimError, Simulation};

/// Outcome of a joint broadcast + coverage run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct CoverageOutcome {
    /// Broadcast time `T_B` (first step all agents informed).
    pub broadcast_time: Option<u64>,
    /// Coverage time `T_C` (first step all nodes visited by informed
    /// agents).
    pub coverage_time: Option<u64>,
    /// Nodes covered when the run ended.
    pub covered: u64,
    /// Total nodes.
    pub num_nodes: u64,
}

impl CoverageOutcome {
    /// Whether both broadcast and coverage completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.broadcast_time.is_some() && self.coverage_time.is_some()
    }

    /// The ratio `T_C / T_B` when both completed.
    #[must_use]
    pub fn ratio(&self) -> Option<f64> {
        match (self.coverage_time, self.broadcast_time) {
            (Some(tc), Some(tb)) if tb > 0 => Some(tc as f64 / tb as f64),
            (Some(_), Some(_)) => None, // degenerate T_B = 0
            _ => None,
        }
    }
}

impl fmt::Display for CoverageOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.broadcast_time, self.coverage_time) {
            (Some(tb), Some(tc)) => write!(f, "T_B = {tb}, T_C = {tc}"),
            _ => write!(
                f,
                "incomplete (T_B = {:?}, T_C = {:?}, {}/{} nodes covered)",
                self.broadcast_time, self.coverage_time, self.covered, self.num_nodes
            ),
        }
    }
}

/// Joint broadcast + informed-coverage — the [`Process`] behind §4's
/// `T_C ≈ T_B` claim: a [`Broadcast`] that keeps walking past `T_B`
/// until informed agents have visited every node.
#[derive(Clone, Debug)]
pub struct Coverage {
    inner: Broadcast,
    grid: Grid,
    tracker: CoverTracker,
    broadcast_time: Option<u64>,
    coverage_time: Option<u64>,
}

impl Coverage {
    /// Creates the process state for `k` agents on `grid` with one
    /// informed `source`.
    ///
    /// # Errors
    ///
    /// As [`Broadcast::new`].
    pub fn new(grid: Grid, k: usize, source: usize) -> Result<Self, SimError> {
        Broadcast::new(k, source).map(|inner| Self::around(grid, inner))
    }

    /// Creates the process described by `config` (mobility, exchange
    /// rule, source) on `grid`.
    ///
    /// # Errors
    ///
    /// As [`Broadcast::new`].
    pub fn from_config(grid: Grid, config: &SimConfig) -> Result<Self, SimError> {
        Broadcast::from_config(config).map(|inner| Self::around(grid, inner))
    }

    fn around(grid: Grid, inner: Broadcast) -> Self {
        Self {
            inner,
            grid,
            tracker: CoverTracker::new(&grid),
            broadcast_time: None,
            coverage_time: None,
        }
    }

    /// Marks the nodes currently occupied by informed agents; records
    /// the coverage time when the last node is reached.
    fn record(&mut self, ctx: ExchangeCtx<'_>) {
        if self.coverage_time.is_some() {
            return;
        }
        for i in self.inner.informed_set().iter_ones() {
            self.tracker.record(&self.grid, ctx.positions[i]);
        }
        if self.tracker.is_complete() {
            self.coverage_time = Some(ctx.time);
        }
    }

    fn flow(&self) -> ControlFlow<()> {
        if self.broadcast_time.is_some() && self.coverage_time.is_some() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

impl Process for Coverage {
    type Outcome = CoverageOutcome;

    fn agent_count(&self) -> Option<usize> {
        self.inner.agent_count()
    }

    fn on_placement(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        if self.inner.on_placement(ctx).is_break() {
            self.broadcast_time = Some(ctx.time);
        }
        self.record(ctx);
        self.flow()
    }

    fn mobility_mask(&self) -> Option<&BitSet> {
        self.inner.mobility_mask()
    }

    fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        if self.inner.exchange(ctx).is_break() && self.broadcast_time.is_none() {
            self.broadcast_time = Some(ctx.time);
        }
        self.record(ctx);
        self.flow()
    }

    fn informed(&self) -> Option<&BitSet> {
        self.inner.informed()
    }

    fn outcome(&self, _time: u64) -> CoverageOutcome {
        CoverageOutcome {
            broadcast_time: self.broadcast_time,
            coverage_time: self.coverage_time,
            covered: self.tracker.covered(),
            num_nodes: self.grid.num_nodes(),
        }
    }
}

impl Simulation<Coverage, Grid> {
    /// Builds a joint broadcast + coverage simulation per `config`.
    /// Its run continues past `T_B` until coverage completes or the
    /// cap is hit.
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
    /// let config = SimConfig::builder(16, 8).build()?;
    /// let mut rng = SmallRng::seed_from_u64(3);
    /// let out = Simulation::coverage(&config, &mut rng)?.run(&mut rng);
    /// assert!(out.completed());
    /// // Informed agents must physically visit every node.
    /// assert!(out.covered == out.num_nodes);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn coverage<R: RngExt>(config: &SimConfig, rng: &mut R) -> Result<Self, SimError> {
        let grid = Grid::new(config.side())?;
        Simulation::new(
            grid,
            config.k(),
            config.radius(),
            config.max_steps(),
            Coverage::from_config(grid, config)?,
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

    #[test]
    fn coverage_completes_and_dominates_broadcast() {
        let cfg = SimConfig::builder(12, 8).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let out = Simulation::coverage(&cfg, &mut rng).unwrap().run(&mut rng);
        assert!(out.completed());
        let tb = out.broadcast_time.unwrap();
        let tc = out.coverage_time.unwrap();
        // T_C counts *informed* visits: full coverage requires at least
        // as much time as informing everyone on this small grid is not
        // strictly guaranteed, but coverage can never beat the time the
        // last *node* is reached, which is ≥ the time the source's own
        // component formed; sanity: both are positive and finite.
        assert!(tc > 0);
        assert!(tb <= cfg.max_steps());
        assert_eq!(out.covered, 144);
    }

    #[test]
    fn tiny_cap_reports_partial_coverage() {
        let cfg = SimConfig::builder(32, 4).max_steps(2).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(22);
        let out = Simulation::coverage(&cfg, &mut rng).unwrap().run(&mut rng);
        assert!(!out.completed());
        assert!(out.covered < out.num_nodes);
        assert!(out.ratio().is_none());
    }

    #[test]
    fn ratio_requires_both_times() {
        let o = CoverageOutcome {
            broadcast_time: Some(10),
            coverage_time: Some(25),
            covered: 100,
            num_nodes: 100,
        };
        assert_eq!(o.ratio(), Some(2.5));
        assert_eq!(o.to_string(), "T_B = 10, T_C = 25");
        let o = CoverageOutcome {
            broadcast_time: None,
            coverage_time: None,
            covered: 7,
            num_nodes: 100,
        };
        assert_eq!(o.ratio(), None);
        assert_eq!(
            o.to_string(),
            "incomplete (T_B = None, T_C = None, 7/100 nodes covered)"
        );
    }

    #[test]
    fn broadcast_on_the_coverage_config_completes() {
        let cfg = SimConfig::builder(16, 8).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(23);
        let out = Simulation::broadcast(&cfg, &mut rng).unwrap().run(&mut rng);
        assert!(out.completed());
    }

    #[test]
    fn coverage_honors_frog_mobility_from_config() {
        use sparsegossip_grid::Point;
        let cfg = SimConfig::builder(32, 10)
            .mobility(crate::Mobility::InformedOnly)
            .max_steps(40)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(25);
        let mut sim = Simulation::coverage(&cfg, &mut rng).unwrap();
        let initial: Vec<Point> = sim.positions().to_vec();
        for _ in 0..40 {
            let _ = sim.step(&mut rng, &mut crate::NullObserver);
        }
        let informed = sim.process().informed().unwrap();
        for (i, start) in initial.iter().enumerate() {
            if !informed.contains(i) {
                assert_eq!(sim.positions()[i], *start, "dormant agent {i} moved");
            }
        }
    }

    #[test]
    fn coverage_runs_stepwise_through_the_driver() {
        let cfg = SimConfig::builder(10, 6).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(24);
        let mut sim = Simulation::coverage(&cfg, &mut rng).unwrap();
        let mut steps = 0u64;
        while !sim.is_complete() && sim.time() < cfg.max_steps() {
            let _ = sim.step(&mut rng, &mut NullObserver);
            steps += 1;
        }
        let out = sim.outcome();
        assert!(out.completed());
        assert_eq!(steps, sim.time());
    }
}
