//! Richer world models beyond the paper's homogeneous open grid:
//! obstructed (city-block) maps, heterogeneous radio and speed classes,
//! agent churn, and multi-source / adversarial source placement.
//!
//! A [`WorldConfig`] declares the axes; a [`ScenarioSpec`] carries one
//! and gates invalid combinations at build time; [`WorldGrid`] is the
//! one topology of every world, open or walled; and
//! [`Simulation::new_in_world_with_scratch`] builds that topology from
//! `(side, world)` and installs the derived per-agent state, so one
//! `Simulation<P, WorldGrid>` serves every world and callers never
//! branch on the topology type.
//!
//! The axes deform the model of Pettarin, Pietracaprina, Pucci and
//! Upfal in ways the theory does not cover — the point is to measure
//! how far the `r_c = √(n/k)` phase transition survives:
//!
//! * **Barriers** ([`barrier_density`](WorldConfig::barrier_density)):
//!   agents walk a [`BarrierGrid::city_blocks`] map and two agents hear
//!   each other only if some axis-aligned L-path between them is fully
//!   open (walls block radio as well as motion; the contact test reads
//!   the walls from the topology, so the map is built once).
//! * **Heterogeneous radii**
//!   ([`hetero_fraction`](WorldConfig::hetero_fraction) /
//!   [`hetero_factor`](WorldConfig::hetero_factor)): a leading class of
//!   agents has its radius scaled; contact follows the symmetric
//!   `min(r_i, r_j)` rule of [`WorldContact`].
//! * **Speed classes** ([`speed_fraction`](WorldConfig::speed_fraction)
//!   / [`speed_factor`](WorldConfig::speed_factor)): fast agents take
//!   several lazy sub-steps per time step.
//! * **Churn** ([`churn_rate`](WorldConfig::churn_rate)): each
//!   non-source agent is replaced by a fresh uninformed arrival at a
//!   uniform position with this per-step probability.
//! * **Sources** ([`num_sources`](WorldConfig::num_sources) /
//!   [`adversarial_sources`](WorldConfig::adversarial_sources)): the
//!   rumor starts on the agent prefix `0..num_sources`, optionally all
//!   anchored at the worst-case corner node.
//!
//! # Examples
//!
//! ```
//! use sparsegossip_core::{ProcessKind, ScenarioSpec, Simulation, WorldGrid};
//! use sparsegossip_grid::Topology;
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//!
//! let spec = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 8)
//!     .radius(1)
//!     .barrier_density(0.5)
//!     .churn_rate(0.02)
//!     .build()?;
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut sim = Simulation::from_spec(&spec, &mut rng)?;
//! // The walls the agents walk are the walls that block their radio.
//! assert!(matches!(sim.topology(), WorldGrid::Walled(_)));
//! assert!(sim.topology().radio_walls().is_some());
//! let out = sim.run(&mut rng);
//! assert_eq!(out.k, 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use rand::RngExt;
use sparsegossip_conngraph::Contact;
use sparsegossip_grid::{BarrierGrid, Direction, Grid, Point, Topology};

use crate::{Broadcast, Process, ProcessKind, ScenarioSpec, SimError, SimScratch, Simulation};

/// Declarative world-model axes of a scenario; all defaults reproduce
/// the paper's homogeneous open-grid model exactly.
///
/// `Copy` on purpose: a world rides inside every [`ScenarioSpec`] and
/// sweep cell. Multi-source broadcast is therefore a *count* (the
/// sources are the agent prefix `0..num_sources`), not a position list.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorldConfig {
    /// Fraction of each city-block wall that is closed, in `[0, 1]`
    /// (0 = fully open grid; see [`BarrierGrid::city_blocks`]). Walls
    /// obstruct both mobility and radio contact.
    pub barrier_density: f64,
    /// Per-agent, per-step probability of being replaced by a fresh
    /// uninformed arrival at a uniform position, in `[0, 1]`. Sources
    /// (`0..num_sources`) are immortal so the rumor cannot die out.
    pub churn_rate: f64,
    /// Fraction of agents (the leading `⌈f·k⌉`) whose radius is scaled
    /// by [`hetero_factor`](Self::hetero_factor), in `[0, 1]`.
    pub hetero_fraction: f64,
    /// Radius multiplier for the heterogeneous class (`0` makes them
    /// contact-only; must be finite and non-negative).
    pub hetero_factor: f64,
    /// Fraction of agents (the leading `⌈f·k⌉`) taking
    /// [`speed_factor`](Self::speed_factor) lazy sub-steps per step,
    /// in `[0, 1]`.
    pub speed_fraction: f64,
    /// Lazy sub-steps per time step for the fast class (≥ 1).
    pub speed_factor: u32,
    /// Number of initially informed agents — the prefix
    /// `0..num_sources` (≥ 1).
    pub num_sources: usize,
    /// Place every source at the worst-case anchor (the first open node
    /// in row-major order) instead of uniformly at random.
    pub adversarial_sources: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl WorldConfig {
    /// The paper's world: open grid, homogeneous radii, unit speeds, no
    /// churn, one uniformly placed source.
    pub const DEFAULT: Self = Self {
        barrier_density: 0.0,
        churn_rate: 0.0,
        hetero_fraction: 0.0,
        hetero_factor: 1.0,
        speed_fraction: 0.0,
        speed_factor: 1,
        num_sources: 1,
        adversarial_sources: false,
    };

    /// Whether this world is field-for-field the paper's default.
    #[must_use]
    pub fn is_default(&self) -> bool {
        *self == Self::DEFAULT
    }

    /// Whether every axis is semantically inactive (e.g. a declared
    /// hetero class with factor 1 changes nothing): a run in such a
    /// world reproduces the plain homogeneous constructors draw for
    /// draw.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        !(self.has_barriers()
            || self.has_churn()
            || self.has_hetero_radii()
            || self.has_speed_classes()
            || self.num_sources > 1
            || self.adversarial_sources)
    }

    /// Whether the barrier axis is active.
    #[must_use]
    pub fn has_barriers(&self) -> bool {
        self.barrier_density > 0.0
    }

    /// Whether the churn axis is active.
    #[must_use]
    pub fn has_churn(&self) -> bool {
        self.churn_rate > 0.0
    }

    /// Whether the heterogeneous-radius axis changes any radius.
    #[must_use]
    pub fn has_hetero_radii(&self) -> bool {
        self.hetero_fraction > 0.0 && self.hetero_factor != 1.0
    }

    /// Whether the speed axis changes any agent's stepping.
    #[must_use]
    pub fn has_speed_classes(&self) -> bool {
        self.speed_fraction > 0.0 && self.speed_factor > 1
    }

    /// Range-checks every axis.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidWorldSetting`] naming the offending key.
    pub fn validate(&self) -> Result<(), SimError> {
        let unit = |key, x: f64| {
            if x.is_finite() && (0.0..=1.0).contains(&x) {
                Ok(())
            } else {
                Err(SimError::InvalidWorldSetting {
                    key,
                    expected: "a finite number in [0, 1]",
                })
            }
        };
        unit("barrier_density", self.barrier_density)?;
        unit("churn_rate", self.churn_rate)?;
        unit("hetero_fraction", self.hetero_fraction)?;
        unit("speed_fraction", self.speed_fraction)?;
        if !(self.hetero_factor.is_finite() && self.hetero_factor >= 0.0) {
            return Err(SimError::InvalidWorldSetting {
                key: "hetero_factor",
                expected: "a finite non-negative number",
            });
        }
        if self.speed_factor < 1 {
            return Err(SimError::InvalidWorldSetting {
                key: "speed_factor",
                expected: "an integer >= 1",
            });
        }
        if self.num_sources < 1 {
            return Err(SimError::InvalidWorldSetting {
                key: "num_sources",
                expected: "an integer >= 1",
            });
        }
        Ok(())
    }

    /// The size of the leading class selected by fraction `f` among `k`
    /// agents: `⌈f·k⌉`, clamped to `k`.
    #[must_use]
    pub fn class_size(f: f64, k: usize) -> usize {
        ((f * k as f64).ceil() as usize).min(k)
    }

    /// The per-agent radii under the heterogeneous axis, or `None` when
    /// the axis is inactive. The leading `⌈hetero_fraction·k⌉` agents
    /// get `round(hetero_factor · radius)`, the rest keep `radius`.
    #[must_use]
    pub fn radii(&self, k: usize, radius: u32) -> Option<Vec<u32>> {
        if !self.has_hetero_radii() {
            return None;
        }
        let m = Self::class_size(self.hetero_fraction, k);
        let scaled = (self.hetero_factor * f64::from(radius)).round() as u32;
        let mut radii = vec![radius; k];
        radii[..m].fill(scaled);
        Some(radii)
    }

    /// The per-agent sub-step counts under the speed axis, or `None`
    /// when the axis is inactive.
    #[must_use]
    pub fn speeds(&self, k: usize) -> Option<Vec<u32>> {
        if !self.has_speed_classes() {
            return None;
        }
        let m = Self::class_size(self.speed_fraction, k);
        let mut speeds = vec![1u32; k];
        speeds[..m].fill(self.speed_factor);
        Some(speeds)
    }
}

/// The world-aware contact model: the symmetric `min(r_i, r_j)` rule
/// over optional per-agent radii, with optional wall-aware
/// line-of-sight (an axis-aligned L-path must be fully open, see
/// [`BarrierGrid::l_path_open`]).
///
/// With neither radii nor walls this is exactly the paper's uniform
/// Manhattan-ball contact, so the driver uses it unconditionally. Build
/// the spatial hash with the **maximum** per-agent radius so the
/// reach-aware candidate scan stays a superset of every acceptable pair.
#[derive(Clone, Copy, Debug)]
pub struct WorldContact<'a> {
    radius: u32,
    radii: Option<&'a [u32]>,
    walls: Option<&'a BarrierGrid>,
}

impl<'a> WorldContact<'a> {
    /// A contact model with global `radius`, overridden per agent by
    /// `radii` when present, obstructed by `walls` when present.
    #[must_use]
    pub fn new(radius: u32, radii: Option<&'a [u32]>, walls: Option<&'a BarrierGrid>) -> Self {
        Self {
            radius,
            radii,
            walls,
        }
    }
}

impl Contact for WorldContact<'_> {
    // hot: census row `world_steps_are_allocation_free_after_warmup`
    #[inline]
    fn in_contact(&self, a: usize, b: usize, pa: Point, pb: Point) -> bool {
        let r = match self.radii {
            Some(radii) => radii[a].min(radii[b]),
            None => self.radius,
        };
        if pa.manhattan(pb) > r {
            return false;
        }
        match self.walls {
            Some(walls) => walls.l_path_open(pa, pb),
            None => true,
        }
    }
}

/// The topology of a declared world: the open [`Grid`], or the
/// city-block [`BarrierGrid`] its barrier axis asks for.
///
/// Built from `(side, world)` by [`WorldGrid::new`], which both the
/// world-aware [`Simulation`] constructor and spec validation call, so
/// a buildable spec always builds its topology. The walled variant is
/// the one map of the run: agents walk it, and the contact test reads
/// it through [`Topology::radio_walls`], so walls block radio as well
/// as motion. Each [`Topology`] method runs its variant's own, and
/// [`Topology::open_grid`] hands the walk engine the plain grid of an
/// open world, so that world steps on [`Grid`]'s own kernel and draws
/// exactly as a plain [`Grid`] does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WorldGrid {
    /// The world has no barriers: agents walk the open grid.
    Open(Grid),
    /// The world has city-block walls obstructing motion and contact.
    Walled(BarrierGrid),
}

impl WorldGrid {
    /// The `side × side` topology of `world`: a
    /// [`BarrierGrid::city_blocks`] map when its barrier axis is
    /// active, the open [`Grid`] otherwise.
    ///
    /// # Errors
    ///
    /// [`SimError::Grid`] as [`Grid::new`] or
    /// [`BarrierGrid::city_blocks`].
    pub fn new(side: u32, world: &WorldConfig) -> Result<Self, SimError> {
        Ok(if world.has_barriers() {
            Self::Walled(BarrierGrid::city_blocks(side, world.barrier_density)?)
        } else {
            Self::Open(Grid::new(side)?)
        })
    }
}

impl Topology for WorldGrid {
    #[inline]
    fn side(&self) -> u32 {
        match self {
            Self::Open(g) => g.side(),
            Self::Walled(g) => g.side(),
        }
    }

    #[inline]
    fn neighbor(&self, p: Point, dir: Direction) -> Option<Point> {
        match self {
            Self::Open(g) => g.neighbor(p, dir),
            Self::Walled(g) => g.neighbor(p, dir),
        }
    }

    #[inline]
    fn num_nodes(&self) -> u64 {
        match self {
            Self::Open(g) => g.num_nodes(),
            Self::Walled(g) => g.num_nodes(),
        }
    }

    #[inline]
    fn contains(&self, p: Point) -> bool {
        match self {
            Self::Open(g) => g.contains(p),
            Self::Walled(g) => g.contains(p),
        }
    }

    #[inline]
    fn lazy_target(&self, p: Point, u: usize) -> Point {
        match self {
            Self::Open(g) => g.lazy_target(p, u),
            Self::Walled(g) => g.lazy_target(p, u),
        }
    }

    #[inline]
    fn random_point<R: RngExt>(&self, rng: &mut R) -> Point {
        match self {
            Self::Open(g) => g.random_point(rng),
            Self::Walled(g) => g.random_point(rng),
        }
    }

    #[inline]
    fn radio_walls(&self) -> Option<&BarrierGrid> {
        match self {
            Self::Open(_) => None,
            Self::Walled(g) => Some(g),
        }
    }

    #[inline]
    fn open_grid(&self) -> Option<Grid> {
        match self {
            Self::Open(g) => Some(*g),
            Self::Walled(_) => None,
        }
    }
}

impl Simulation<Broadcast, WorldGrid> {
    /// As [`Simulation::from_spec_with_scratch`], with a fresh scratch.
    ///
    /// # Errors
    ///
    /// As [`Simulation::from_spec_with_scratch`].
    pub fn from_spec<R: RngExt>(spec: &ScenarioSpec, rng: &mut R) -> Result<Self, SimError> {
        Self::from_spec_with_scratch(spec, rng, SimScratch::new())
    }

    /// Instantiates the broadcast run a spec describes — topology,
    /// placement, process and world axes — for one seed. Every spec
    /// broadcast ([`ScenarioSpec::run_outcome`], hence the sweep engine
    /// and the CLI) runs through it, trivial world or not.
    ///
    /// # Errors
    ///
    /// [`SimError::UnsupportedSetting`] if the spec's kind is not
    /// [`ProcessKind::Broadcast`]; otherwise as
    /// [`Simulation::new_in_world_with_scratch`] (a validated spec
    /// cannot fail it).
    pub fn from_spec_with_scratch<R: RngExt>(
        spec: &ScenarioSpec,
        rng: &mut R,
        scratch: SimScratch,
    ) -> Result<Self, SimError> {
        if spec.kind() != ProcessKind::Broadcast {
            return Err(SimError::UnsupportedSetting {
                kind: spec.kind().as_str(),
                setting: "a broadcast world simulation",
            });
        }
        let (cfg, world) = (spec.config(), spec.world());
        let process = if world.num_sources > 1 {
            Broadcast::with_sources(cfg.k(), world.num_sources)?
        } else {
            Broadcast::new(cfg.k(), cfg.source())?
        }
        .mobility(cfg.mobility())
        .exchange_rule(cfg.exchange_rule());
        build_world_sim(spec, process, rng, scratch)
    }
}

/// The process-generic world build of every spec run but the protocol
/// twin's: the spec's grid, agents, radius, step cap and world axes,
/// around the spec's `process`.
pub(crate) fn build_world_sim<P: Process, R: RngExt>(
    spec: &ScenarioSpec,
    process: P,
    rng: &mut R,
    scratch: SimScratch,
) -> Result<Simulation<P, WorldGrid>, SimError> {
    let cfg = spec.config();
    Simulation::new_in_world_with_scratch(
        cfg.side(),
        cfg.k(),
        cfg.radius(),
        cfg.max_steps(),
        process,
        spec.world(),
        rng,
        scratch,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_world_is_trivial_and_valid() {
        let w = WorldConfig::DEFAULT;
        assert!(w.is_default());
        assert!(w.is_trivial());
        w.validate().unwrap();
        assert_eq!(w.radii(8, 3), None);
        assert_eq!(w.speeds(8), None);
        assert_eq!(
            WorldGrid::new(16, &w).unwrap(),
            WorldGrid::Open(Grid::new(16).unwrap())
        );
    }

    #[test]
    fn inactive_axes_stay_trivial_but_not_default() {
        // A declared hetero class with factor 1 changes no radius.
        let w = WorldConfig {
            hetero_fraction: 0.5,
            ..WorldConfig::DEFAULT
        };
        assert!(!w.is_default());
        assert!(w.is_trivial());
        assert_eq!(w.radii(8, 3), None);
        let w = WorldConfig {
            speed_fraction: 0.5,
            ..WorldConfig::DEFAULT
        };
        assert!(w.is_trivial());
        assert_eq!(w.speeds(8), None);
    }

    #[test]
    fn validation_rejects_out_of_range_axes() {
        let cases = [
            (
                WorldConfig {
                    barrier_density: 1.5,
                    ..WorldConfig::DEFAULT
                },
                "barrier_density",
            ),
            (
                WorldConfig {
                    churn_rate: -0.1,
                    ..WorldConfig::DEFAULT
                },
                "churn_rate",
            ),
            (
                WorldConfig {
                    hetero_fraction: f64::NAN,
                    ..WorldConfig::DEFAULT
                },
                "hetero_fraction",
            ),
            (
                WorldConfig {
                    hetero_factor: f64::INFINITY,
                    ..WorldConfig::DEFAULT
                },
                "hetero_factor",
            ),
            (
                WorldConfig {
                    speed_fraction: 2.0,
                    ..WorldConfig::DEFAULT
                },
                "speed_fraction",
            ),
            (
                WorldConfig {
                    speed_factor: 0,
                    ..WorldConfig::DEFAULT
                },
                "speed_factor",
            ),
            (
                WorldConfig {
                    num_sources: 0,
                    ..WorldConfig::DEFAULT
                },
                "num_sources",
            ),
        ];
        for (w, key) in cases {
            match w.validate().unwrap_err() {
                SimError::InvalidWorldSetting { key: k, .. } => assert_eq!(k, key),
                other => panic!("expected InvalidWorldSetting, got {other:?}"),
            }
        }
    }

    #[test]
    fn derived_classes_cover_the_leading_prefix() {
        let w = WorldConfig {
            hetero_fraction: 0.5,
            hetero_factor: 2.0,
            speed_fraction: 0.25,
            speed_factor: 3,
            ..WorldConfig::DEFAULT
        };
        assert_eq!(w.radii(4, 3), Some(vec![6, 6, 3, 3]));
        assert_eq!(w.speeds(4), Some(vec![3, 1, 1, 1]));
        // Ceiling: a fraction just above zero still selects one agent.
        let w = WorldConfig {
            hetero_fraction: 0.01,
            hetero_factor: 0.0,
            ..WorldConfig::DEFAULT
        };
        assert_eq!(w.radii(3, 5), Some(vec![0, 5, 5]));
    }

    #[test]
    fn world_contact_reduces_to_uniform_and_respects_walls() {
        let c = WorldContact::new(2, None, None);
        assert!(c.in_contact(0, 1, Point::new(0, 0), Point::new(1, 1)));
        assert!(!c.in_contact(0, 1, Point::new(0, 0), Point::new(2, 1)));
        let radii = [3u32, 0];
        let c = WorldContact::new(2, Some(&radii), None);
        assert!(!c.in_contact(0, 1, Point::new(0, 0), Point::new(0, 1)));
        let walls = BarrierGrid::city_blocks(16, 1.0).unwrap();
        let c = WorldContact::new(16, None, Some(&walls));
        // Find a closed wall node; its open neighbors on either side
        // cannot hear each other through it unless an L-path opens.
        let blocked = Point::new(4, 3); // wall column at x = 4, door at offset 1
        assert!(!walls.is_open(blocked));
        assert!(!c.in_contact(0, 1, Point::new(3, 3), blocked));
        // The door row (offset 1 within each block) stays open.
        assert!(c.in_contact(0, 1, Point::new(3, 1), Point::new(5, 1)));
    }

    #[test]
    fn world_grid_walks_exactly_like_its_variant() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        use sparsegossip_walks::WalkEngine;
        fn walk<T: Topology>(topo: T) -> Vec<Point> {
            let mut rng = SmallRng::seed_from_u64(3);
            let mut engine = WalkEngine::uniform(topo, 16, &mut rng).unwrap();
            for _ in 0..200 {
                engine.step_with(None, &[], &mut rng);
            }
            engine.positions().to_vec()
        }
        let open = WorldConfig::DEFAULT;
        let walled = WorldConfig {
            barrier_density: 0.6,
            ..WorldConfig::DEFAULT
        };
        let walls = BarrierGrid::city_blocks(24, 0.6).unwrap();
        assert_eq!(
            walk(WorldGrid::new(24, &open).unwrap()),
            walk(Grid::new(24).unwrap())
        );
        assert_eq!(
            walk(WorldGrid::new(24, &walled).unwrap()),
            walk(walls.clone())
        );
        assert_eq!(
            WorldGrid::new(24, &walled).unwrap().radio_walls(),
            Some(&walls)
        );
        assert_eq!(walls.radio_walls(), None);
    }

    #[test]
    fn adversarial_placement_pins_the_configured_source() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let spec = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 6)
            .source(3)
            .adversarial_sources(true)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let sim = Simulation::from_spec(&spec, &mut rng).unwrap();
        assert_eq!(sim.positions()[3], Point::new(0, 0));
        assert_ne!(sim.positions()[0], Point::new(0, 0));
        // Infection shares the placement and starts from the same agent.
        let spec = ScenarioSpec::builder(ProcessKind::Infection, 16, 6)
            .source(3)
            .adversarial_sources(true)
            .build()
            .unwrap();
        match spec.run_outcome(1) {
            crate::ScenarioOutcome::Infection(out) => assert_eq!(out.per_agent[3], Some(0)),
            other => panic!("expected an infection outcome, got {other:?}"),
        }
    }

    #[test]
    fn world_sim_rejects_non_broadcast_kinds() {
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let spec = ScenarioSpec::builder(ProcessKind::Gossip, 12, 6)
            .build()
            .unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(matches!(
            Simulation::from_spec(&spec, &mut rng),
            Err(SimError::UnsupportedSetting { .. })
        ));
    }
}
