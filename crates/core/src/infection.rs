use core::fmt;
use core::ops::ControlFlow;

use rand::RngExt;
use sparsegossip_grid::Grid;
use sparsegossip_walks::BitSet;

use crate::{Broadcast, ExchangeCtx, Process, SimConfig, SimError, Simulation};

/// Outcome of an infection run: broadcast at `r = 0` with per-agent
/// infection times, the quantity studied by Dimitriou, Nikoletseas and
/// Spirakis (general bound `O(t* log k)`) and mis-estimated by Wang et
/// al. as `Θ((n log n log k)/k)` — the bound the paper refutes.
#[derive(Clone, Debug, PartialEq)]
#[must_use]
pub struct InfectionOutcome {
    /// First step at which every agent was infected, if reached.
    pub infection_time: Option<u64>,
    /// Per-agent first-infection steps (`None` if never infected;
    /// entry `source` is `Some(0)`).
    pub per_agent: Vec<Option<u64>>,
    /// Mean infection time over infected agents.
    pub mean_time: Option<f64>,
}

impl InfectionOutcome {
    /// Whether every agent was infected within the cap.
    #[inline]
    #[must_use]
    pub fn completed(&self) -> bool {
        self.infection_time.is_some()
    }
}

impl fmt::Display for InfectionOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let infected = self.per_agent.iter().filter(|t| t.is_some()).count();
        match (self.infection_time, self.mean_time) {
            (Some(t), Some(mean)) => write!(f, "T_I = {t} (mean {mean:.1})"),
            _ => write!(
                f,
                "incomplete ({infected}/{} infected)",
                self.per_agent.len()
            ),
        }
    }
}

/// The infection-time [`Process`]: broadcast with transmission on
/// contact (`r = 0` — agents meeting at a node), recording the step at
/// which each agent was first infected.
///
/// This is exactly [`Broadcast`] plus per-agent bookkeeping; the
/// wrapper exists because the infection literature reports *per-agent*
/// and *mean* infection times rather than just the completion time.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{SimConfig, Simulation};
///
/// let config = SimConfig::builder(24, 8).build()?;
/// let mut rng = SmallRng::seed_from_u64(4);
/// let mut sim = Simulation::infection(&config, &mut rng)?;
/// let out = sim.run(&mut rng);
/// assert!(out.completed());
/// assert_eq!(out.per_agent.len(), 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Infection {
    inner: Broadcast,
    times: Vec<Option<u64>>,
}

impl Infection {
    /// Creates the process state for `k` agents with infected `source`.
    ///
    /// # Errors
    ///
    /// As [`Broadcast::new`].
    pub fn new(k: usize, source: usize) -> Result<Self, SimError> {
        Ok(Self {
            inner: Broadcast::new(k, source)?,
            times: vec![None; k],
        })
    }

    /// Creates the process state for `k` agents with the first
    /// `sources` agents infected.
    ///
    /// # Errors
    ///
    /// As [`Broadcast::with_sources`](crate::Broadcast::with_sources).
    pub fn with_sources(k: usize, sources: usize) -> Result<Self, SimError> {
        Ok(Self {
            inner: Broadcast::with_sources(k, sources)?,
            times: vec![None; k],
        })
    }

    /// Sets the mobility rule of the underlying broadcast (default
    /// [`Mobility`](crate::Mobility)`::All`; `InformedOnly` gives
    /// Frog-style infection where only carriers walk).
    #[must_use]
    pub fn mobility(mut self, mobility: crate::Mobility) -> Self {
        self.inner = self.inner.mobility(mobility);
        self
    }

    /// Per-agent first-infection steps recorded so far.
    #[inline]
    #[must_use]
    pub fn times(&self) -> &[Option<u64>] {
        &self.times
    }

    fn record(&mut self, time: u64) {
        for i in self.inner.informed_set().iter_ones() {
            if self.times[i].is_none() {
                self.times[i] = Some(time);
            }
        }
    }
}

impl Process for Infection {
    type Outcome = InfectionOutcome;

    fn agent_count(&self) -> Option<usize> {
        Some(self.times.len())
    }

    fn on_placement(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        let flow = self.inner.on_placement(ctx);
        self.record(ctx.time);
        flow
    }

    fn mobility_mask(&self) -> Option<&BitSet> {
        self.inner.mobility_mask()
    }

    /// The replacement arrival is uninfected and carries no recorded
    /// infection time.
    fn reset_agent(&mut self, i: usize) {
        self.inner.reset_agent(i);
        self.times[i] = None;
    }

    /// Infection is broadcast plus bookkeeping over the informed set,
    /// so the same frontier scope applies (the per-agent time recorder
    /// reads only the informed bits, never the components).
    fn components_scope(&self) -> crate::ComponentsScope<'_> {
        self.inner.components_scope()
    }

    // hot: census row `steady_state_steps_are_allocation_free`
    fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        let flow = self.inner.exchange(ctx);
        self.record(ctx.time);
        flow
    }

    fn informed(&self) -> Option<&BitSet> {
        self.inner.informed()
    }

    fn outcome(&self, time: u64) -> InfectionOutcome {
        let infected: Vec<u64> = self.times.iter().flatten().copied().collect();
        let mean_time = if infected.is_empty() {
            None
        } else {
            Some(infected.iter().sum::<u64>() as f64 / infected.len() as f64)
        };
        InfectionOutcome {
            infection_time: self.inner.is_complete().then_some(time),
            per_agent: self.times.clone(),
            mean_time,
        }
    }
}

impl Simulation<Infection, Grid> {
    /// Builds an infection simulation per `config`. The transmission
    /// radius is forced to 0 — infection is contact-only by definition.
    ///
    /// # Errors
    ///
    /// As [`Simulation::broadcast`].
    pub fn infection<R: RngExt>(config: &SimConfig, rng: &mut R) -> Result<Self, SimError> {
        let grid = Grid::new(config.side())?;
        Simulation::new(
            grid,
            config.k(),
            0,
            config.max_steps(),
            Infection::new(config.k(), config.source())?.mobility(config.mobility()),
            rng,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn per_agent_times_are_recorded_and_bounded() {
        let cfg = SimConfig::builder(16, 6).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(51);
        let mut sim = Simulation::infection(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.completed());
        let t_total = out.infection_time.unwrap();
        for (i, t) in out.per_agent.iter().enumerate() {
            let t = t.unwrap_or_else(|| panic!("agent {i} never infected"));
            assert!(t <= t_total);
        }
        assert_eq!(out.per_agent[cfg.source()], Some(0));
        assert!(out.mean_time.unwrap() <= t_total as f64);
    }

    #[test]
    fn radius_in_config_is_ignored() {
        // Infection is contact-only by definition; a huge configured
        // radius must not make it instantaneous.
        let cfg = SimConfig::builder(32, 4)
            .radius(64)
            .max_steps(3)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(52);
        let mut sim = Simulation::infection(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(!out.completed(), "r must be forced to 0");
    }

    #[test]
    fn mean_is_none_only_if_nobody_infected() {
        // The source is always infected at step 0, so mean is Some.
        let cfg = SimConfig::builder(32, 4).max_steps(1).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(53);
        let mut sim = Simulation::infection(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.mean_time.is_some());
    }

    #[test]
    fn informed_only_mobility_freezes_uninfected_agents() {
        use sparsegossip_grid::Point;
        let cfg = SimConfig::builder(32, 10)
            .mobility(crate::Mobility::InformedOnly)
            .max_steps(40)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(55);
        let mut sim = Simulation::infection(&cfg, &mut rng).unwrap();
        let initial: Vec<Point> = sim.positions().to_vec();
        for _ in 0..40 {
            let _ = sim.step(&mut rng, &mut crate::NullObserver);
        }
        for (i, start) in initial.iter().enumerate() {
            if sim.process().times()[i].is_none() {
                assert_eq!(sim.positions()[i], *start, "uninfected agent {i} moved");
            }
        }
    }

    #[test]
    fn outcome_display_reports_both_states() {
        let done = InfectionOutcome {
            infection_time: Some(10),
            per_agent: vec![Some(0), Some(10)],
            mean_time: Some(5.0),
        };
        assert_eq!(done.to_string(), "T_I = 10 (mean 5.0)");
        let capped = InfectionOutcome {
            infection_time: None,
            per_agent: vec![Some(0), None],
            mean_time: Some(0.0),
        };
        assert_eq!(capped.to_string(), "incomplete (1/2 infected)");
    }
}
