use core::fmt;
use core::ops::ControlFlow;

use rand::RngExt;
use sparsegossip_grid::Grid;

use crate::{ComponentsScope, ExchangeCtx, Process, RumorSets, SimConfig, SimError, Simulation};

/// Outcome of a gossip run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use]
pub struct GossipOutcome {
    /// The gossip time `T_G`: first step at which every agent knew
    /// every rumor, or `None` if the cap was reached first.
    pub gossip_time: Option<u64>,
    /// Minimum per-agent rumor count when the run ended.
    pub min_rumors: usize,
    /// Number of rumors in the system.
    pub num_rumors: usize,
}

impl GossipOutcome {
    /// Whether gossip completed within the cap.
    #[inline]
    #[must_use]
    pub fn completed(&self) -> bool {
        self.gossip_time.is_some()
    }
}

impl fmt::Display for GossipOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.gossip_time {
            Some(t) => write!(f, "T_G = {t} ({} rumors everywhere)", self.num_rumors),
            None => write!(
                f,
                "incomplete (min {}/{} rumors per agent)",
                self.min_rumors, self.num_rumors
            ),
        }
    }
}

/// All-to-all gossip — the [`Process`] of Corollary 2: every agent
/// must learn every rumor (`T_G = Õ(n/√k)` w.h.p.).
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{SimConfig, Simulation};
///
/// let config = SimConfig::builder(32, 8).radius(1).build()?;
/// let mut rng = SmallRng::seed_from_u64(9);
/// let mut sim = Simulation::gossip(&config, &mut rng)?;
/// let outcome = sim.run(&mut rng);
/// assert!(outcome.completed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Gossip {
    rumors: RumorSets,
}

impl Gossip {
    /// One distinct rumor per agent (the Corollary 2 initial
    /// condition).
    ///
    /// # Errors
    ///
    /// [`SimError::TooFewAgents`] if `k < 2`.
    pub fn distinct(k: usize) -> Result<Self, SimError> {
        if k < 2 {
            return Err(SimError::TooFewAgents { k });
        }
        Ok(Self {
            rumors: RumorSets::distinct(k),
        })
    }

    /// `num_rumors` rumors held by the first `num_rumors` agents — the
    /// paper's general setting where the number of rumors is at most
    /// the number of agents.
    ///
    /// # Errors
    ///
    /// * [`SimError::TooFewAgents`] if `k < 2`;
    /// * [`SimError::RumorCountOutOfRange`] if `num_rumors` is zero or
    ///   exceeds `k`.
    pub fn with_rumors(k: usize, num_rumors: usize) -> Result<Self, SimError> {
        if k < 2 {
            return Err(SimError::TooFewAgents { k });
        }
        if num_rumors == 0 || num_rumors > k {
            return Err(SimError::RumorCountOutOfRange { num_rumors, k });
        }
        Ok(Self {
            rumors: RumorSets::with_rumors(k, num_rumors),
        })
    }

    /// The per-agent rumor sets.
    #[inline]
    #[must_use]
    pub fn rumor_sets(&self) -> &RumorSets {
        &self.rumors
    }

    /// Whether every agent knows every rumor.
    #[inline]
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.rumors.all_complete()
    }
}

impl Process for Gossip {
    type Outcome = GossipOutcome;

    fn agent_count(&self) -> Option<usize> {
        Some(self.rumors.k())
    }

    /// A lone agent's exchange is a no-op, so only components of two
    /// or more agents need labelling.
    fn components_scope(&self) -> ComponentsScope<'_> {
        ComponentsScope::Contacts
    }

    // hot: census row `steady_state_steps_are_allocation_free`
    fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        self.rumors.exchange(ctx.components);
        if self.rumors.all_complete() {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }

    fn rumors(&self) -> Option<&RumorSets> {
        Some(&self.rumors)
    }

    fn outcome(&self, time: u64) -> GossipOutcome {
        GossipOutcome {
            gossip_time: self.rumors.all_complete().then_some(time),
            min_rumors: self.rumors.min_count(),
            num_rumors: self.rumors.num_rumors(),
        }
    }
}

impl Simulation<Gossip, Grid> {
    /// Builds an all-to-all gossip simulation per `config` (one rumor
    /// per agent, uniform placement). The configured source is ignored
    /// — gossip is symmetric.
    ///
    /// # Errors
    ///
    /// Propagates configuration errors, as [`Simulation::broadcast`].
    pub fn gossip<R: RngExt>(config: &SimConfig, rng: &mut R) -> Result<Self, SimError> {
        Self::gossip_with_scratch(config, rng, crate::SimScratch::new())
    }

    /// As [`Simulation::gossip`], reusing a recycled
    /// [`SimScratch`](crate::SimScratch) so repeated runs share one set
    /// of hot-path buffers.
    ///
    /// # Errors
    ///
    /// As [`Simulation::gossip`].
    pub fn gossip_with_scratch<R: RngExt>(
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
            Gossip::distinct(config.k())?,
            rng,
            scratch,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MinRumorsCurve, NullObserver};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn gossip_completes_on_small_grid() {
        let cfg = SimConfig::builder(16, 6).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.completed());
        assert_eq!(out.min_rumors, 6);
        assert_eq!(out.num_rumors, 6);
    }

    #[test]
    fn gossip_dominates_broadcast_time_in_law() {
        // T_G ≥ T_B for the rumor of any fixed agent, pathwise under a
        // shared seed is not guaranteed (different sims), so check in
        // expectation with matched configs.
        let reps = 8;
        let mut tb = 0u64;
        let mut tg = 0u64;
        for i in 0..reps {
            let cfg = SimConfig::builder(20, 8).radius(0).build().unwrap();
            let mut rng = SmallRng::seed_from_u64(1000 + i);
            let mut b = Simulation::broadcast(&cfg, &mut rng).unwrap();
            tb += b.run(&mut rng).broadcast_time.unwrap();
            let mut rng = SmallRng::seed_from_u64(1000 + i);
            let mut g = Simulation::gossip(&cfg, &mut rng).unwrap();
            tg += g.run(&mut rng).gossip_time.unwrap();
        }
        assert!(tg >= tb, "mean T_G {tg} below mean T_B {tb}");
    }

    #[test]
    fn min_rumors_is_monotone() {
        let cfg = SimConfig::builder(24, 8).radius(1).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(12);
        let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
        let mut prev = sim.process().rumor_sets().min_count();
        for _ in 0..300 {
            let _ = sim.step(&mut rng, &mut NullObserver);
            let cur = sim.process().rumor_sets().min_count();
            assert!(cur >= prev, "an agent forgot rumors");
            prev = cur;
            if sim.is_complete() {
                break;
            }
        }
    }

    #[test]
    fn observer_sees_min_rumors_curve() {
        let cfg = SimConfig::builder(16, 6).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
        let mut curve = MinRumorsCurve::new();
        let out = sim.run_with(&mut rng, &mut curve);
        assert!(out.completed());
        assert!(!curve.counts().is_empty());
        assert!(curve.counts().windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*curve.counts().last().unwrap() as usize, out.num_rumors);
        assert!(curve.time_to_reach(6).is_some());
    }

    #[test]
    fn cap_reports_partial_progress() {
        let cfg = SimConfig::builder(64, 4).max_steps(1).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(!out.completed());
        assert!(out.min_rumors >= 1);
    }

    #[test]
    fn partial_rumor_gossip_completes_and_validates() {
        let g = Grid::new(12).unwrap();
        let mut rng = SmallRng::seed_from_u64(15);
        let process = Gossip::with_rumors(6, 2).unwrap();
        let mut sim = Simulation::new(g, 6, 0, 1_000_000, process, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.completed());
        assert_eq!(out.num_rumors, 2);
        assert_eq!(out.min_rumors, 2);
        // Validation errors.
        assert_eq!(
            Gossip::with_rumors(6, 0).unwrap_err(),
            SimError::RumorCountOutOfRange {
                num_rumors: 0,
                k: 6
            }
        );
        assert_eq!(
            Gossip::with_rumors(6, 7).unwrap_err(),
            SimError::RumorCountOutOfRange {
                num_rumors: 7,
                k: 6
            }
        );
    }

    #[test]
    fn whole_grid_radius_completes_at_zero() {
        let cfg = SimConfig::builder(8, 4).radius(16).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(14);
        let mut sim = Simulation::gossip(&cfg, &mut rng).unwrap();
        assert!(sim.is_complete());
        assert_eq!(sim.run(&mut rng).gossip_time, Some(0));
    }

    #[test]
    fn outcome_display_reports_both_states() {
        let done = GossipOutcome {
            gossip_time: Some(9),
            min_rumors: 4,
            num_rumors: 4,
        };
        assert_eq!(done.to_string(), "T_G = 9 (4 rumors everywhere)");
        let capped = GossipOutcome {
            gossip_time: None,
            min_rumors: 1,
            num_rumors: 4,
        };
        assert_eq!(capped.to_string(), "incomplete (min 1/4 rumors per agent)");
    }
}
