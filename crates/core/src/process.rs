//! The unified process API: every dissemination dynamic of the paper —
//! broadcast, gossip, the Frog model, infection, coverage,
//! predator–prey — is one [`Process`] run by one generic [`Simulation`]
//! driver.
//!
//! The shared dynamic (paper §2): agents move one lazy step, the
//! visibility graph `G_t(r)` is rebuilt, and state is exchanged across
//! its components. A [`Process`] supplies only the parts that differ —
//! which agents move, what state is exchanged, and when the run is
//! over — while [`Simulation`] owns the per-step pipeline
//! (mobility → [`WalkEngine::step_with`] → [`components`] → exchange →
//! [`Observer`]). Every process therefore gets observers, explicit
//! stepping, arbitrary [`Topology`] support and deterministic seeding
//! for free.
//!
//! # Examples
//!
//! ```
//! use rand::rngs::SmallRng;
//! use rand::SeedableRng;
//! use sparsegossip_core::{Broadcast, SimConfig, Simulation};
//!
//! let config = SimConfig::builder(32, 16).radius(1).build()?;
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut sim = Simulation::broadcast(&config, &mut rng)?;
//! let outcome = sim.run(&mut rng);
//! assert!(outcome.completed());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use core::ops::ControlFlow;

use rand::RngExt;
use sparsegossip_conngraph::{
    components, components_brute_by, components_from_seeds_on_by, components_into_by,
    contact_components_on_by, Components, ComponentsScratch, SeededScratch, SpatialHash,
};
use sparsegossip_grid::{GridError, Point, Topology};
use sparsegossip_walks::{BitSet, WalkEngine};

use crate::{Observer, RumorSets, SimError, StepContext, WorldConfig, WorldContact, WorldGrid};

/// Reusable hot-path buffers for a [`Simulation`]: the spatial hash,
/// union–find and component arrays behind the per-step visibility
/// rebuild.
///
/// Every simulation owns one (construction creates it implicitly), so
/// after the first few steps warm the buffers a steady-state step
/// performs **zero heap allocations**. To amortize the warm-up across
/// many runs — one scratch per worker thread for a whole seed batch —
/// recycle it explicitly:
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{SimConfig, SimScratch, Simulation};
///
/// let config = SimConfig::builder(24, 12).radius(1).build()?;
/// let mut scratch = SimScratch::new();
/// for seed in 0..4u64 {
///     let mut rng = SmallRng::seed_from_u64(seed);
///     let mut sim = Simulation::broadcast_with_scratch(&config, &mut rng, scratch)?;
///     let outcome = sim.run(&mut rng);
///     assert!(outcome.completed());
///     scratch = sim.into_scratch();
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// Scratch contents never influence results: a recycled scratch is
/// draw-for-draw identical to a fresh one (the `tests/scratch_reuse.rs`
/// regression suite and the conngraph property tests pin this).
#[derive(Clone, Debug, Default)]
pub struct SimScratch {
    /// Full-partition labelling buffers (spatial hash, union–find,
    /// grouped components).
    comps: ComponentsScratch,
    /// Restricted labelling buffers (the frontier-sparse and
    /// contact-only paths). Deliberately separate from `comps` (whose
    /// internals are private to `conngraph`): the full and restricted
    /// paths warm disjoint buffers, which the scratch-reuse allocation
    /// tests rely on.
    seeded: SeededScratch,
    /// The spatial hash of the restricted paths, rebuilt from the
    /// positions on every labelling.
    hash: SpatialHash,
}

impl SimScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Labels `G_t(r)` at `positions` as far as `scope` asks, into these
    /// buffers. The restricted scopes first rebuild `hash` from the
    /// positions (an O(k) relink), so no labelling depends on the state
    /// a previous step left behind.
    // hot: census row `steady_state_steps_are_allocation_free`
    fn label<'s>(
        &'s mut self,
        scope: ComponentsScope<'_>,
        positions: &[Point],
        contact: &WorldContact<'_>,
        bucket_radius: u32,
        side: u32,
    ) -> &'s Components {
        match scope {
            ComponentsScope::None => Components::EMPTY,
            ComponentsScope::Full => {
                components_into_by(&mut self.comps, positions, contact, bucket_radius, side)
            }
            ComponentsScope::Seeded(seeds) => {
                self.hash.rebuild(positions, bucket_radius, side);
                components_from_seeds_on_by(&self.hash, &mut self.seeded, positions, seeds, contact)
            }
            ComponentsScope::Contacts => {
                self.hash.rebuild(positions, bucket_radius, side);
                contact_components_on_by(&self.hash, &mut self.seeded, positions, contact)
            }
        }
    }
}

/// How much of the visibility partition a [`Process::exchange`]
/// actually consumes — the declaration that lets [`Simulation::step`]
/// pick a work-proportional labelling strategy.
///
/// Declaring anything but `Full` is a promise: the exchange (and
/// [`on_placement`](Process::on_placement)) outcome must depend only on
/// the components of two or more agents of `G_t(r)` that contain a set
/// bit of the `Seeded` seed set, only on the components of two or more
/// agents for `Contacts`, or on no components at all for `None`. Both
/// restricted scopes share one rule, "no lone agents": a lone agent's
/// exchange changes nothing, so neither labels it. For
/// broadcast-style processes only components holding both an informed
/// and an uninformed agent can change the informed set, so either side
/// of that split keeps the `Seeded` promise.
/// [`Broadcast`](crate::Broadcast) and [`Infection`](crate::Infection)
/// (and therefore the Frog configuration) declare `Seeded` over the
/// smaller side — the informed agents while they are at most half of
/// `k`, the uninformed agents after that — under the component exchange
/// rule, and `None` under the one-hop ablation rule (whose exchange
/// scans the positions directly). [`Gossip`](crate::Gossip) declares
/// `Contacts`: every rumor set matters, but a lone agent's exchange is
/// a no-op. [`Coverage`](crate::Coverage) and
/// [`PredatorPrey`](crate::PredatorPrey) keep `Full`.
///
/// The scope is consulted only when the observer does not demand the
/// full partition ([`Observer::wants_full_components`]); an observer
/// that reads [`StepContext::components`](crate::StepContext) always
/// sees the complete labelling.
#[derive(Clone, Copy, Debug)]
pub enum ComponentsScope<'a> {
    /// The exchange consumes the entire partition.
    Full,
    /// The exchange only reads components of two or more agents
    /// containing a set bit of the given seed set; a lone seed is left
    /// at [`Components::NO_LABEL`]. The set is the process's choice and
    /// may change from step to step: broadcast passes whichever side of
    /// its informed/uninformed split is smaller.
    Seeded(&'a BitSet),
    /// The exchange reads only components of two or more agents: the
    /// driver rebuilds the spatial hash and labels just the agents that
    /// have a contact, leaving lone agents at
    /// [`Components::NO_LABEL`].
    Contacts,
    /// The exchange reads no components at all in its current
    /// configuration (e.g. the one-hop rule); the driver may skip
    /// labelling entirely and hand out [`Components::EMPTY`].
    None,
}

/// The per-step snapshot handed to [`Process::exchange`].
///
/// Unlike [`StepContext`] (the observer view, which includes the
/// process's own informed/rumor state), this carries only the driver's
/// state: the step index, the domain, the post-move positions, and the
/// visibility components — everything the process does *not* own.
#[derive(Clone, Copy, Debug)]
pub struct ExchangeCtx<'a> {
    /// The step that just completed (0 at placement time).
    pub time: u64,
    /// The domain side, for node indexing.
    pub side: u32,
    /// The visibility radius `r` the components were built with.
    pub radius: u32,
    /// Agent positions after the move.
    pub positions: &'a [Point],
    /// Connected components of `G_t(r)` at these positions. Empty when
    /// the process opts out via [`Process::NEEDS_COMPONENTS`] or
    /// declares [`ComponentsScope::None`]; restricted to the
    /// seed-containing components of two or more agents under an active
    /// [`ComponentsScope::Seeded`] scope, and to all components of two
    /// or more agents under an active [`ComponentsScope::Contacts`]
    /// scope.
    pub components: &'a Components,
}

/// One dissemination dynamic, pluggable into [`Simulation`].
///
/// Implementations hold the process-specific state (informed set, rumor
/// sets, surviving preys, …) and answer four questions: who moves
/// ([`mobility_mask`](Process::mobility_mask)), what happens after the
/// move but before the exchange ([`post_move`](Process::post_move)),
/// how state spreads ([`exchange`](Process::exchange)), and what the
/// result is ([`outcome`](Process::outcome)).
///
/// # Examples
///
/// A complete custom process: "first contact" — the run ends the first
/// time any two agents can see each other (share a non-singleton
/// component). Only `exchange` and `outcome` are mandatory; mobility,
/// placement and observer wiring come from the driver:
///
/// ```
/// use core::ops::ControlFlow;
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{ExchangeCtx, Process, Simulation};
/// use sparsegossip_grid::Grid;
///
/// struct FirstContact {
///     met: bool,
/// }
///
/// impl Process for FirstContact {
///     /// The step at which the first meeting happened, if any.
///     type Outcome = Option<u64>;
///
///     fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
///         // `ctx` carries the post-move positions and the components
///         // of G_t(r); a non-singleton component is a meeting.
///         self.met = ctx.components.max_size() >= 2;
///         if self.met {
///             ControlFlow::Break(())
///         } else {
///             ControlFlow::Continue(())
///         }
///     }
///
///     fn outcome(&self, time: u64) -> Option<u64> {
///         self.met.then_some(time)
///     }
/// }
///
/// let grid = Grid::new(16)?;
/// let mut rng = SmallRng::seed_from_u64(3);
/// let process = FirstContact { met: false };
/// let mut sim = Simulation::new(grid, 4, 1, 1_000_000, process, &mut rng)?;
/// let meeting_time = sim.run(&mut rng);
/// assert!(meeting_time.is_some());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub trait Process {
    /// The result type of a completed (or capped) run.
    type Outcome;

    /// Whether the driver must rebuild the visibility components each
    /// step. Processes that resolve interactions themselves (e.g.
    /// predator–prey catches) opt out and receive empty components.
    const NEEDS_COMPONENTS: bool = true;

    /// The number of walking agents this process was sized for, if it
    /// has a fixed size; [`Simulation::new`] verifies it against the
    /// engine. `None` disables the check.
    fn agent_count(&self) -> Option<usize> {
        None
    }

    /// Called once at placement time (step 0) with the initial
    /// components; returns [`ControlFlow::Break`] if the run is already
    /// complete. Defaults to a plain [`exchange`](Process::exchange) —
    /// `G_0(r)` already exists, so the paper's step-0 exchange applies.
    fn on_placement(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()> {
        self.exchange(ctx)
    }

    /// Which agents walk this step: `None` means all of them (the
    /// paper's main model), `Some(mask)` restricts movement to the set
    /// bits (the Frog model).
    fn mobility_mask(&self) -> Option<&BitSet> {
        None
    }

    /// How much of the visibility partition
    /// [`exchange`](Process::exchange) consumes (see
    /// [`ComponentsScope`]). Defaults to [`ComponentsScope::Full`] —
    /// always correct. Processes whose exchange provably ignores
    /// components without a seed declare
    /// [`Seeded`](ComponentsScope::Seeded) and get frontier-
    /// proportional per-step labelling, and processes whose exchange
    /// ignores lone agents declare [`Contacts`](ComponentsScope::Contacts)
    /// and get contact-only labelling, whenever the observer does not
    /// demand the full partition
    /// ([`Observer::wants_full_components`]).
    fn components_scope(&self) -> ComponentsScope<'_> {
        ComponentsScope::Full
    }

    /// Hook between the engine step and the component rebuild, for
    /// auxiliary random state (e.g. mobile preys walking). Draws must
    /// come from `rng` so runs stay seed-reproducible.
    fn post_move<T: Topology, R: RngExt>(&mut self, _topo: &T, _rng: &mut R) {}

    /// Called when agent `i` churns out of the system and is replaced
    /// by a fresh arrival at a new position: the process must clear any
    /// state the departed agent carried (informed bit, rumor set, …).
    /// The default keeps state — correct only for processes never
    /// driven with churn.
    fn reset_agent(&mut self, _i: usize) {}

    /// Exchanges state across the visibility graph; returns
    /// [`ControlFlow::Break`] once the process has reached its
    /// completion condition.
    fn exchange(&mut self, ctx: ExchangeCtx<'_>) -> ControlFlow<()>;

    /// The informed-agent set, if the process has one (shown to
    /// observers via [`StepContext::informed`]).
    fn informed(&self) -> Option<&BitSet> {
        None
    }

    /// The per-agent rumor sets, if the process has them (shown to
    /// observers via [`StepContext::rumors`]).
    fn rumors(&self) -> Option<&RumorSets> {
        None
    }

    /// The outcome at the current state; `time` is the number of steps
    /// taken so far.
    fn outcome(&self, time: u64) -> Self::Outcome;
}

/// The generic driver: owns the walk engine, the step cap and the
/// shared per-step pipeline, and runs any [`Process`] on any
/// [`Topology`].
///
/// # Examples
///
/// Run gossip on a torus — a combination the old per-process structs
/// never exposed:
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{Gossip, Simulation};
/// use sparsegossip_grid::Torus;
///
/// let torus = Torus::new(16)?;
/// let mut rng = SmallRng::seed_from_u64(3);
/// let mut sim = Simulation::new(torus, 6, 0, 1_000_000, Gossip::distinct(6)?, &mut rng)?;
/// assert!(sim.run(&mut rng).completed());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Simulation<P: Process, T> {
    engine: WalkEngine<T>,
    radius: u32,
    max_steps: u64,
    process: P,
    complete: bool,
    /// Persistent hot-path buffers: the per-step component rebuild
    /// clears and refills these instead of allocating.
    scratch: SimScratch,
    /// Reused empty informed set for processes without one, so
    /// `StepContext` can always hand out references (a zero-capacity
    /// bitset holds no heap allocation).
    empty_informed: BitSet,
    /// World-model state (per-agent radii/speeds, churn); trivial for
    /// every plain constructor. Walls come from the topology
    /// ([`Topology::radio_walls`]).
    world: WorldState,
}

/// Derived per-simulation world state, resolved once at construction
/// from a [`WorldConfig`] so the step loop never re-derives anything.
#[derive(Clone, Debug, Default)]
struct WorldState {
    /// Per-agent radii under the `min(r_i, r_j)` contact rule; empty
    /// means homogeneous (use the global radius).
    radii: Vec<u32>,
    /// Per-agent lazy sub-steps per time step; empty means unit speeds.
    speeds: Vec<u32>,
    /// Spatial-hash bucket radius: the maximum effective radius, so the
    /// reach-aware candidate scan covers every acceptable pair.
    bucket_radius: u32,
    /// Per-agent, per-step replacement probability (0 disables churn).
    churn_rate: f64,
    /// Agents `0..immortal` never churn (the rumor sources).
    immortal: usize,
}

impl WorldState {
    /// Resolves a validated [`WorldConfig`] into per-agent state; the
    /// default world gives the homogeneous, unit-speed, churn-free
    /// driver.
    fn resolve(world: &WorldConfig, k: usize, radius: u32) -> Self {
        let radii = world.radii(k, radius).unwrap_or_default();
        let bucket_radius = radii.iter().copied().max().unwrap_or(radius);
        Self {
            radii,
            speeds: world.speeds(k).unwrap_or_default(),
            bucket_radius,
            churn_rate: world.churn_rate,
            immortal: world.num_sources,
        }
    }

    /// The per-agent radius slice, if heterogeneous.
    #[inline]
    fn radii_opt(&self) -> Option<&[u32]> {
        (!self.radii.is_empty()).then_some(self.radii.as_slice())
    }
}

impl<P: Process, T: Topology> Simulation<P, T> {
    /// Places `k` agents uniformly at random on `topo` and runs the
    /// step-0 exchange.
    ///
    /// # Errors
    ///
    /// * [`SimError::ZeroStepCap`] if `max_steps == 0`;
    /// * [`SimError::AgentCountMismatch`] if the process was sized for
    ///   a different `k`;
    /// * [`SimError::Walk`] if the engine rejects the placement.
    pub fn new<R: RngExt>(
        topo: T,
        k: usize,
        radius: u32,
        max_steps: u64,
        process: P,
        rng: &mut R,
    ) -> Result<Self, SimError> {
        Self::new_with_scratch(topo, k, radius, max_steps, process, rng, SimScratch::new())
    }

    /// As [`Simulation::new`], but reusing the hot-path buffers of a
    /// previous simulation (see [`SimScratch`]) so even the placement
    /// exchange avoids allocating. Results are identical to a fresh
    /// construction.
    ///
    /// # Errors
    ///
    /// As [`Simulation::new`].
    pub fn new_with_scratch<R: RngExt>(
        topo: T,
        k: usize,
        radius: u32,
        max_steps: u64,
        process: P,
        rng: &mut R,
        scratch: SimScratch,
    ) -> Result<Self, SimError> {
        Self::validate(&process, k, max_steps)?;
        let engine = WalkEngine::uniform(topo, k, rng)?;
        Ok(Self::on_engine(engine, radius, max_steps, process, scratch))
    }

    /// Builds a simulation from explicit starting positions (worst-case
    /// placements for lower-bound experiments).
    ///
    /// # Errors
    ///
    /// As [`Simulation::new`], plus [`SimError::Walk`] if any position
    /// lies outside the topology.
    pub fn from_positions(
        topo: T,
        positions: Vec<Point>,
        radius: u32,
        max_steps: u64,
        process: P,
    ) -> Result<Self, SimError> {
        Self::from_positions_with_scratch(
            topo,
            positions,
            radius,
            max_steps,
            process,
            SimScratch::new(),
        )
    }

    /// As [`Simulation::from_positions`], reusing the hot-path buffers
    /// of a previous simulation. With a warmed-up scratch (and the
    /// caller-provided position buffer and process state), construction
    /// performs **no heap allocation at all** — the property the
    /// scratch-reuse regression suite pins with a counting allocator.
    ///
    /// # Errors
    ///
    /// As [`Simulation::from_positions`].
    pub fn from_positions_with_scratch(
        topo: T,
        positions: Vec<Point>,
        radius: u32,
        max_steps: u64,
        process: P,
        scratch: SimScratch,
    ) -> Result<Self, SimError> {
        Self::validate(&process, positions.len(), max_steps)?;
        let engine = WalkEngine::from_positions(topo, positions)?;
        Ok(Self::on_engine(engine, radius, max_steps, process, scratch))
    }

    fn validate(process: &P, k: usize, max_steps: u64) -> Result<(), SimError> {
        if max_steps == 0 {
            return Err(SimError::ZeroStepCap);
        }
        if let Some(expected) = process.agent_count() {
            if expected != k {
                return Err(SimError::AgentCountMismatch {
                    process: expected,
                    k,
                });
            }
        }
        Ok(())
    }

    fn on_engine(
        engine: WalkEngine<T>,
        radius: u32,
        max_steps: u64,
        process: P,
        scratch: SimScratch,
    ) -> Self {
        let world = WorldState::resolve(&WorldConfig::DEFAULT, engine.len(), radius);
        Self::on_engine_world(engine, radius, max_steps, process, scratch, world)
    }

    fn on_engine_world(
        engine: WalkEngine<T>,
        radius: u32,
        max_steps: u64,
        process: P,
        scratch: SimScratch,
        world: WorldState,
    ) -> Self {
        let mut sim = Self {
            engine,
            radius,
            max_steps,
            process,
            complete: false,
            scratch,
            empty_informed: BitSet::new(0),
            world,
        };
        sim.placement_exchange();
        sim
    }

    /// Runs the paper's step-0 exchange on `G_0(r)` — the placement
    /// already forms a visibility graph — and records completion.
    ///
    /// The labelling follows the process's [`ComponentsScope`], as in
    /// [`step`](Simulation::step) under an observer content without the
    /// full partition.
    fn placement_exchange(&mut self) {
        let side = self.engine.topology().side();
        let contact = WorldContact::new(
            self.radius,
            self.world.radii_opt(),
            self.engine.topology().radio_walls(),
        );
        let scope = if P::NEEDS_COMPONENTS {
            self.process.components_scope()
        } else {
            ComponentsScope::None
        };
        let comps = self.scratch.label(
            scope,
            self.engine.positions(),
            &contact,
            self.world.bucket_radius,
            side,
        );
        let flow = self.process.on_placement(ExchangeCtx {
            time: 0,
            side,
            radius: self.radius,
            positions: self.engine.positions(),
            components: comps,
        });
        self.complete = flow.is_break();
    }

    /// The number of walking agents.
    #[inline]
    #[must_use]
    pub fn k(&self) -> usize {
        self.engine.len()
    }

    /// The visibility radius `r`.
    #[inline]
    #[must_use]
    pub fn radius(&self) -> u32 {
        self.radius
    }

    /// The step cap.
    #[inline]
    #[must_use]
    pub fn max_steps(&self) -> u64 {
        self.max_steps
    }

    /// Steps taken so far.
    #[inline]
    #[must_use]
    pub fn time(&self) -> u64 {
        self.engine.time()
    }

    /// Current agent positions.
    #[inline]
    #[must_use]
    pub fn positions(&self) -> &[Point] {
        self.engine.positions()
    }

    /// The underlying topology.
    #[inline]
    #[must_use]
    pub fn topology(&self) -> &T {
        self.engine.topology()
    }

    /// The process state (informed sets, rumor sets, …).
    #[inline]
    #[must_use]
    pub fn process(&self) -> &P {
        &self.process
    }

    /// Mutable access to the process state (e.g. to switch the exchange
    /// rule mid-run in ablations).
    #[inline]
    pub fn process_mut(&mut self) -> &mut P {
        &mut self.process
    }

    /// Whether the process has reached its completion condition.
    #[inline]
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.complete
    }

    /// Consumes the simulation, yielding its warmed-up hot-path buffers
    /// for reuse by the next one (via
    /// [`new_with_scratch`](Simulation::new_with_scratch) or a
    /// `*_with_scratch` convenience constructor).
    #[must_use]
    pub fn into_scratch(self) -> SimScratch {
        self.scratch
    }

    /// Restarts the simulation in place for a fresh run: re-places the
    /// agents uniformly at random (reusing the engine's position
    /// buffer), installs `process` as the new process state, rewinds
    /// time to 0 and re-runs the step-0 placement exchange — all while
    /// keeping the warmed-up scratch.
    ///
    /// Draw-for-draw identical to constructing a new simulation with
    /// [`Simulation::new`] from the same RNG state, but allocation-free:
    /// one simulation per worker thread serves a whole seed batch.
    ///
    /// ```
    /// use rand::rngs::SmallRng;
    /// use rand::SeedableRng;
    /// use sparsegossip_core::{Broadcast, SimConfig, Simulation};
    ///
    /// let config = SimConfig::builder(20, 10).radius(1).build()?;
    /// let mut rng = SmallRng::seed_from_u64(1);
    /// let mut sim = Simulation::broadcast(&config, &mut rng)?;
    /// let first = sim.run(&mut rng);
    ///
    /// // Second seed: same simulation object, fresh process state.
    /// let mut rng = SmallRng::seed_from_u64(2);
    /// sim.reset(Broadcast::from_config(&config)?, &mut rng)?;
    /// let second = sim.run(&mut rng);
    /// assert!(first.completed() && second.completed());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    ///
    /// # Errors
    ///
    /// [`SimError::AgentCountMismatch`] if `process` was sized for a
    /// different number of agents than the engine holds.
    pub fn reset<R: RngExt>(&mut self, process: P, rng: &mut R) -> Result<(), SimError> {
        Self::validate(&process, self.engine.len(), self.max_steps)?;
        self.engine.reset_uniform(rng);
        self.process = process;
        self.placement_exchange();
        Ok(())
    }

    /// The visibility-graph components at the current positions, under
    /// the world's contact model (heterogeneous radii and walls
    /// included). A diagnostic accessor — it allocates.
    #[must_use]
    pub fn current_components(&self) -> Components {
        let topo = self.engine.topology();
        let side = topo.side();
        if self.world.radii.is_empty() && topo.radio_walls().is_none() {
            components(self.engine.positions(), self.radius, side)
        } else {
            let contact =
                WorldContact::new(self.radius, self.world.radii_opt(), topo.radio_walls());
            components_brute_by(self.engine.positions(), &contact, side)
        }
    }

    /// Advances one step of the shared pipeline: mobility rule →
    /// engine step → [`Process::post_move`] → component labelling (into
    /// the owned [`SimScratch`], allocation-free at steady state) →
    /// [`Process::exchange`] → observer. Returns
    /// [`ControlFlow::Break`] once the process completes.
    ///
    /// The labelling strategy is picked from the process's
    /// [`ComponentsScope`], when the observer is content without the
    /// full partition ([`Observer::wants_full_components`]). Under a
    /// [`Seeded`](ComponentsScope::Seeded) or
    /// [`Contacts`](ComponentsScope::Contacts) scope the spatial hash is
    /// rebuilt from the positions and only the components containing a
    /// seed, or of two or more agents, are labelled. Every path rebuilds
    /// its hash every step, and outcomes are draw-for-draw identical on
    /// all of them; per-step labelling cost beyond the O(k) relink
    /// scales with the seeds' components, or with the meetings, instead
    /// of `k`.
    ///
    /// # Examples
    ///
    /// Step-level driving with an observer — here recording the largest
    /// visibility component over the first 50 steps:
    ///
    /// ```
    /// use core::ops::ControlFlow;
    /// use rand::rngs::SmallRng;
    /// use rand::SeedableRng;
    /// use sparsegossip_core::{Observer, SimConfig, Simulation, StepContext};
    ///
    /// #[derive(Default)]
    /// struct MaxIsland(usize);
    /// impl Observer for MaxIsland {
    ///     fn on_step(&mut self, ctx: StepContext<'_>) {
    ///         self.0 = self.0.max(ctx.components.max_size());
    ///     }
    /// }
    ///
    /// let config = SimConfig::builder(24, 12).radius(1).build()?;
    /// let mut rng = SmallRng::seed_from_u64(5);
    /// let mut sim = Simulation::broadcast(&config, &mut rng)?;
    /// let mut obs = MaxIsland::default();
    /// for _ in 0..50 {
    ///     if sim.step(&mut rng, &mut obs) == ControlFlow::Break(()) {
    ///         break;
    ///     }
    /// }
    /// assert!(obs.0 >= 1);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    // hot: census row `steady_state_steps_are_allocation_free`
    pub fn step<R: RngExt, O: Observer>(
        &mut self,
        rng: &mut R,
        observer: &mut O,
    ) -> ControlFlow<()> {
        self.engine
            .step_with(self.process.mobility_mask(), &self.world.speeds, rng);
        self.process.post_move(self.engine.topology(), rng);
        if self.world.churn_rate > 0.0 {
            self.churn_agents(rng);
        }
        let side = self.engine.topology().side();
        let contact = WorldContact::new(
            self.radius,
            self.world.radii_opt(),
            self.engine.topology().radio_walls(),
        );
        // The observer gate: a scope below Full applies only when the
        // observer does not demand the complete partition.
        let scope = if !P::NEEDS_COMPONENTS {
            ComponentsScope::None
        } else if observer.wants_full_components() {
            ComponentsScope::Full
        } else {
            self.process.components_scope()
        };
        let comps = self.scratch.label(
            scope,
            self.engine.positions(),
            &contact,
            self.world.bucket_radius,
            side,
        );
        let flow = self.process.exchange(ExchangeCtx {
            time: self.engine.time(),
            side,
            radius: self.radius,
            positions: self.engine.positions(),
            components: comps,
        });
        if flow.is_break() {
            self.complete = true;
        }
        observer.on_step(StepContext {
            time: self.engine.time(),
            side,
            positions: self.engine.positions(),
            components: comps,
            informed: self.process.informed().unwrap_or(&self.empty_informed),
            rumors: self.process.rumors(),
        });
        flow
    }

    /// The churn phase: each agent independently departs with
    /// probability `churn_rate` and is replaced by a fresh uninformed
    /// arrival at a uniform node, keeping the population at `k`. The
    /// first [`WorldState::immortal`] agents (the sources) draw but
    /// never depart, so the per-step draw layout is one Bernoulli per
    /// agent regardless of the source count.
    // hot: census row `world_steps_are_allocation_free_after_warmup`
    fn churn_agents<R: RngExt>(&mut self, rng: &mut R) {
        let rate = self.world.churn_rate;
        for i in 0..self.engine.len() {
            let hit = rng.random_bool(rate);
            if !hit || i < self.world.immortal {
                continue;
            }
            let to = self.engine.topology().random_point(rng);
            self.engine.set_position(i, to);
            self.process.reset_agent(i);
        }
    }

    /// Runs to completion or the step cap; equivalent to
    /// [`run_with`](Self::run_with) with a
    /// [`NullObserver`](crate::NullObserver).
    pub fn run<R: RngExt>(&mut self, rng: &mut R) -> P::Outcome {
        self.run_with(rng, &mut crate::NullObserver)
    }

    /// Runs to completion or the step cap, invoking `observer` after
    /// every exchange.
    pub fn run_with<R: RngExt, O: Observer>(
        &mut self,
        rng: &mut R,
        observer: &mut O,
    ) -> P::Outcome {
        while !self.complete && self.engine.time() < self.max_steps {
            let _ = self.step(rng, observer);
        }
        self.outcome()
    }

    /// The outcome at the current state.
    #[must_use]
    pub fn outcome(&self) -> P::Outcome {
        self.process.outcome(self.engine.time())
    }
}

impl<P: Process> Simulation<P, WorldGrid> {
    /// As [`Simulation::new_with_scratch`] on the [`WorldGrid`] that
    /// `world` declares for a `side × side` grid, installing its axes:
    /// city-block walls that block motion and radio contact alike,
    /// per-agent heterogeneous radii and speed classes, and churn. With
    /// [`adversarial_sources`](WorldConfig::adversarial_sources), the
    /// agents `process` starts informed are then pinned to the first
    /// open node in row-major order; every other agent keeps its
    /// uniform draw.
    ///
    /// The topology is built here, from the same `(side, world)` the
    /// contact model reads, so motion and radio always see one map. A
    /// [trivial](WorldConfig::is_trivial) world reproduces the plain
    /// constructor draw for draw.
    ///
    /// # Errors
    ///
    /// As [`Simulation::new_with_scratch`], plus
    /// [`SimError::InvalidWorldSetting`] for out-of-range axes and
    /// [`SimError::Grid`] if the side or the barrier layout is invalid.
    #[expect(
        clippy::too_many_arguments,
        reason = "the full constructor axis set; Simulation::from_spec is the ergonomic front door"
    )]
    pub fn new_in_world_with_scratch<R: RngExt>(
        side: u32,
        k: usize,
        radius: u32,
        max_steps: u64,
        process: P,
        world: &WorldConfig,
        rng: &mut R,
        scratch: SimScratch,
    ) -> Result<Self, SimError> {
        world.validate()?;
        Self::validate(&process, k, max_steps)?;
        let mut engine = WalkEngine::uniform(WorldGrid::new(side, world)?, k, rng)?;
        if world.adversarial_sources {
            let topo = engine.topology();
            let anchor = topo
                .points()
                .find(|&p| topo.contains(p))
                .ok_or(GridError::NoOpenNodes)?;
            for i in process.informed().into_iter().flat_map(BitSet::iter_ones) {
                engine.set_position(i, anchor);
            }
        }
        let world = WorldState::resolve(world, k, radius);
        Ok(Self::on_engine_world(
            engine, radius, max_steps, process, scratch, world,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Broadcast, Gossip, NullObserver, SimConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sparsegossip_grid::{Grid, Torus};

    #[test]
    fn generic_driver_runs_broadcast_to_completion() {
        let cfg = SimConfig::builder(16, 8).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(1);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        let out = sim.run(&mut rng);
        assert!(out.completed());
        assert!(sim.is_complete());
        assert_eq!(out.informed, 8);
    }

    #[test]
    fn step_reports_break_exactly_at_completion() {
        let cfg = SimConfig::builder(12, 6).radius(0).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let mut sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        let mut broke = false;
        for _ in 0..cfg.max_steps() {
            if sim.step(&mut rng, &mut NullObserver).is_break() {
                broke = true;
                break;
            }
        }
        assert!(broke, "tiny grid must complete");
        assert!(sim.is_complete());
    }

    #[test]
    fn any_process_runs_on_any_topology() {
        let torus = Torus::new(12).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let mut sim = Simulation::new(
            torus,
            6,
            0,
            1_000_000,
            Gossip::distinct(6).unwrap(),
            &mut rng,
        )
        .unwrap();
        assert!(sim.run(&mut rng).completed());
    }

    #[test]
    fn agent_count_mismatch_is_rejected() {
        let g = Grid::new(8).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let err =
            Simulation::new(g, 5, 0, 10, Broadcast::new(4, 0).unwrap(), &mut rng).unwrap_err();
        assert_eq!(err, SimError::AgentCountMismatch { process: 4, k: 5 });
    }

    #[test]
    fn zero_cap_is_rejected() {
        let g = Grid::new(8).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        assert_eq!(
            Simulation::new(g, 4, 0, 0, Broadcast::new(4, 0).unwrap(), &mut rng).unwrap_err(),
            SimError::ZeroStepCap
        );
    }

    #[test]
    fn accessors_expose_driver_state() {
        let cfg = SimConfig::builder(16, 8).radius(2).build().unwrap();
        let mut rng = SmallRng::seed_from_u64(6);
        let sim = Simulation::broadcast(&cfg, &mut rng).unwrap();
        assert_eq!(sim.k(), 8);
        assert_eq!(sim.radius(), 2);
        assert_eq!(sim.max_steps(), cfg.max_steps());
        assert_eq!(sim.time(), 0);
        assert_eq!(sim.positions().len(), 8);
        assert_eq!(sim.topology().side(), 16);
        assert!(sim.process().informed_count() >= 1);
        let comps = sim.current_components();
        assert_eq!(comps.num_agents(), 8);
    }
}
