use sparsegossip_conngraph::Components;
use sparsegossip_grid::Point;
use sparsegossip_walks::BitSet;

use crate::RumorSets;

/// The per-step snapshot handed to [`Observer`] implementations.
///
/// All references are valid only for the duration of the callback.
#[derive(Clone, Copy, Debug)]
pub struct StepContext<'a> {
    /// The step that just completed (1-based; step 0 is the initial
    /// exchange at placement time).
    pub time: u64,
    /// The grid side, for node indexing.
    pub side: u32,
    /// Agent positions after the move.
    pub positions: &'a [Point],
    /// Connected components of the visibility graph at this step.
    ///
    /// The full partition, unless the observer declared that it does
    /// not need one ([`Observer::wants_full_components`] is `false`)
    /// *and* the process runs under a restricted scope. Under a
    /// [`Seeded`](crate::ComponentsScope::Seeded) scope only the
    /// seed-containing components are labelled; under a
    /// [`Contacts`](crate::ComponentsScope::Contacts) scope (gossip)
    /// only the components of two or more agents are. Either way the
    /// labelled components are identical to the full build's. The
    /// seeds are whatever the process declared for that step;
    /// broadcast declares the smaller side of its informed/uninformed
    /// split, so which components appear can switch mid-run.
    pub components: &'a Components,
    /// Informed-agent set after the exchange (empty for processes
    /// without a single-rumor informed notion, e.g. gossip).
    pub informed: &'a BitSet,
    /// Per-agent rumor sets after the exchange, for multi-rumor
    /// processes (`None` elsewhere).
    pub rumors: Option<&'a RumorSets>,
}

/// Hook invoked after every exchange of a broadcast-style simulation.
///
/// Observers compose with tuples: `(&mut a, &mut b)` is itself an
/// observer that invokes both.
pub trait Observer {
    /// Called once per completed step, after movement and exchange.
    fn on_step(&mut self, ctx: StepContext<'_>);

    /// Whether this observer reads [`StepContext::components`] and
    /// needs it to cover the *full* partition.
    ///
    /// Defaults to `true`: every observer sees the complete visibility
    /// partition, exactly as before the frontier-sparse engine existed.
    /// Observers that never look at the components (notably
    /// [`NullObserver`], i.e. every plain `run`) return `false`, which
    /// lets the driver use seed-restricted labelling for processes that
    /// declare a [`Seeded`](crate::ComponentsScope::Seeded) scope, and
    /// contact-only labelling for processes that declare
    /// [`Contacts`](crate::ComponentsScope::Contacts) — outcome-identical,
    /// but with per-step labelling cost proportional to the seeds'
    /// components, or to the meetings, instead of `k`.
    #[inline]
    fn wants_full_components(&self) -> bool {
        true
    }
}

/// The no-op observer.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullObserver;

impl Observer for NullObserver {
    #[inline]
    fn on_step(&mut self, _ctx: StepContext<'_>) {}

    /// Reads nothing, so the driver may label restricted components only.
    #[inline]
    fn wants_full_components(&self) -> bool {
        false
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn on_step(&mut self, ctx: StepContext<'_>) {
        (**self).on_step(ctx);
    }

    #[inline]
    fn wants_full_components(&self) -> bool {
        (**self).wants_full_components()
    }
}

impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline]
    fn on_step(&mut self, ctx: StepContext<'_>) {
        self.0.on_step(ctx);
        self.1.on_step(ctx);
    }

    #[inline]
    fn wants_full_components(&self) -> bool {
        self.0.wants_full_components() || self.1.wants_full_components()
    }
}

/// Records the number of informed agents after every step — the
/// "epidemic curve" of a run.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{InformedCurve, SimConfig, Simulation};
///
/// let config = SimConfig::builder(32, 16).build()?;
/// let mut rng = SmallRng::seed_from_u64(2);
/// let mut sim = Simulation::broadcast(&config, &mut rng)?;
/// let mut curve = InformedCurve::new();
/// sim.run_with(&mut rng, &mut curve);
/// // The curve is non-decreasing.
/// assert!(curve.counts().windows(2).all(|w| w[0] <= w[1]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct InformedCurve {
    counts: Vec<u32>,
}

impl InformedCurve {
    /// Creates an empty curve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The informed count after each observed step.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The first observed step index at which at least `threshold`
    /// agents were informed.
    #[must_use]
    pub fn time_to_reach(&self, threshold: u32) -> Option<usize> {
        self.counts.iter().position(|&c| c >= threshold)
    }
}

impl Observer for InformedCurve {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        self.counts.push(ctx.informed.count_ones() as u32);
    }

    /// Reads only the informed set, so frontier-sparse labelling stays
    /// available.
    fn wants_full_components(&self) -> bool {
        false
    }
}

/// Records the minimum per-agent rumor count after every step — the
/// gossip analogue of the epidemic curve, so multi-rumor runs are as
/// inspectable as broadcast runs.
///
/// Steps whose context carries no rumor sets (single-rumor processes)
/// are ignored.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use sparsegossip_core::{MinRumorsCurve, SimConfig, Simulation};
///
/// let config = SimConfig::builder(16, 6).build()?;
/// let mut rng = SmallRng::seed_from_u64(3);
/// let mut sim = Simulation::gossip(&config, &mut rng)?;
/// let mut curve = MinRumorsCurve::new();
/// sim.run_with(&mut rng, &mut curve);
/// // The curve is non-decreasing and ends at the full rumor count.
/// assert!(curve.counts().windows(2).all(|w| w[0] <= w[1]));
/// assert_eq!(*curve.counts().last().unwrap(), 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct MinRumorsCurve {
    counts: Vec<u32>,
}

impl MinRumorsCurve {
    /// Creates an empty curve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The minimum per-agent rumor count after each observed step.
    #[must_use]
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The first observed step index at which every agent knew at least
    /// `threshold` rumors.
    #[must_use]
    pub fn time_to_reach(&self, threshold: u32) -> Option<usize> {
        self.counts.iter().position(|&c| c >= threshold)
    }
}

impl Observer for MinRumorsCurve {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        if let Some(rumors) = ctx.rumors {
            self.counts.push(rumors.min_count() as u32);
        }
    }

    /// Reads only the rumor sets, so frontier-sparse labelling stays
    /// available.
    fn wants_full_components(&self) -> bool {
        false
    }
}

/// Tracks the rightmost x-coordinate ever touched by an informed agent —
/// the frontier of the *informed area* `I(t)` whose advance rate
/// Theorem 2's lower-bound argument controls (≲ `γ log n / 2` per
/// `γ²/(144 log n)` steps).
#[derive(Clone, Debug, Default)]
pub struct FrontierTracker {
    frontier: Vec<u32>,
    rightmost: u32,
}

impl FrontierTracker {
    /// Creates a tracker with an empty history.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The frontier x-coordinate after each observed step.
    #[must_use]
    pub fn frontier(&self) -> &[u32] {
        &self.frontier
    }

    /// The rightmost x-coordinate touched by any informed agent so far.
    #[must_use]
    pub fn rightmost(&self) -> u32 {
        self.rightmost
    }
}

impl Observer for FrontierTracker {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        for i in ctx.informed.iter_ones() {
            self.rightmost = self.rightmost.max(ctx.positions[i].x);
        }
        self.frontier.push(self.rightmost);
    }

    /// Reads only the informed set and positions, so frontier-sparse
    /// labelling stays available.
    fn wants_full_components(&self) -> bool {
        false
    }
}

/// Records the size of the largest visibility-graph component after
/// every step (the island-size series of Lemma 6, seen from inside a
/// dissemination run).
#[derive(Clone, Debug, Default)]
pub struct ComponentSizeCurve {
    max_sizes: Vec<u32>,
}

impl ComponentSizeCurve {
    /// Creates an empty curve.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The largest component size at each observed step.
    #[must_use]
    pub fn max_sizes(&self) -> &[u32] {
        &self.max_sizes
    }

    /// The largest component ever observed.
    #[must_use]
    pub fn peak(&self) -> u32 {
        self.max_sizes.iter().copied().max().unwrap_or(0)
    }
}

impl Observer for ComponentSizeCurve {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        self.max_sizes.push(ctx.components.max_size() as u32);
    }
}

/// Records the step at which each agent first became informed.
///
/// Entry `i` is `None` until agent `i` is informed. The source is
/// recorded at step 0.
#[derive(Clone, Debug)]
pub struct InfectionTimes {
    times: Vec<Option<u64>>,
}

impl InfectionTimes {
    /// Creates a tracker for `k` agents.
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self {
            times: vec![None; k],
        }
    }

    /// Per-agent infection times.
    #[must_use]
    pub fn times(&self) -> &[Option<u64>] {
        &self.times
    }

    /// Mean infection time over the agents infected so far.
    #[must_use]
    pub fn mean(&self) -> Option<f64> {
        let infected: Vec<u64> = self.times.iter().flatten().copied().collect();
        if infected.is_empty() {
            None
        } else {
            Some(infected.iter().sum::<u64>() as f64 / infected.len() as f64)
        }
    }
}

impl Observer for InfectionTimes {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        for i in ctx.informed.iter_ones() {
            if self.times[i].is_none() {
                self.times[i] = Some(ctx.time);
            }
        }
    }

    /// Reads only the informed set, so frontier-sparse labelling stays
    /// available.
    fn wants_full_components(&self) -> bool {
        false
    }
}

/// Records, per tessellation cell, the first step at which an informed
/// agent stood in the cell — the "cell reached at time `t_Q`" events
/// that drive the Theorem 1 upper-bound argument.
#[derive(Clone, Debug)]
pub struct CellReachTimes {
    tess: sparsegossip_grid::Tessellation,
    first_reach: Vec<Option<u64>>,
    unreached: usize,
    all_reached_at: Option<u64>,
}

impl CellReachTimes {
    /// Creates a tracker over the given tessellation.
    #[must_use]
    pub fn new(tess: sparsegossip_grid::Tessellation) -> Self {
        let cells = tess.num_cells() as usize;
        Self {
            tess,
            first_reach: vec![None; cells],
            unreached: cells,
            all_reached_at: None,
        }
    }

    /// Per-cell first-reach steps (row-major cell order).
    #[must_use]
    pub fn first_reach(&self) -> &[Option<u64>] {
        &self.first_reach
    }

    /// The first step at which every cell had been reached, if it
    /// happened.
    #[must_use]
    pub fn all_reached_at(&self) -> Option<u64> {
        self.all_reached_at
    }

    /// The number of cells not yet reached.
    #[must_use]
    pub fn unreached(&self) -> usize {
        self.unreached
    }

    /// The tessellation being tracked.
    #[must_use]
    pub fn tessellation(&self) -> &sparsegossip_grid::Tessellation {
        &self.tess
    }
}

impl Observer for CellReachTimes {
    fn on_step(&mut self, ctx: StepContext<'_>) {
        if self.unreached == 0 {
            return;
        }
        for i in ctx.informed.iter_ones() {
            let c = self.tess.cell_of(ctx.positions[i]).as_usize();
            if self.first_reach[c].is_none() {
                self.first_reach[c] = Some(ctx.time);
                self.unreached -= 1;
            }
        }
        if self.unreached == 0 {
            self.all_reached_at = Some(ctx.time);
        }
    }

    /// Reads only the informed set and positions, so frontier-sparse
    /// labelling stays available.
    fn wants_full_components(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegossip_conngraph::components;

    fn ctx_at<'a>(
        time: u64,
        positions: &'a [Point],
        comps: &'a Components,
        informed: &'a BitSet,
    ) -> StepContext<'a> {
        StepContext {
            time,
            side: 16,
            positions,
            components: comps,
            informed,
            rumors: None,
        }
    }

    #[test]
    fn informed_curve_records_counts() {
        let positions = [Point::new(0, 0), Point::new(5, 5)];
        let comps = components(&positions, 0, 16);
        let mut informed = BitSet::new(2);
        informed.insert(0);
        let mut curve = InformedCurve::new();
        curve.on_step(ctx_at(0, &positions, &comps, &informed));
        informed.insert(1);
        curve.on_step(ctx_at(1, &positions, &comps, &informed));
        assert_eq!(curve.counts(), &[1, 2]);
        assert_eq!(curve.time_to_reach(2), Some(1));
        assert_eq!(curve.time_to_reach(3), None);
    }

    #[test]
    fn frontier_tracks_informed_only() {
        let positions = [Point::new(2, 0), Point::new(9, 0)];
        let comps = components(&positions, 0, 16);
        let mut informed = BitSet::new(2);
        informed.insert(0);
        let mut f = FrontierTracker::new();
        f.on_step(ctx_at(0, &positions, &comps, &informed));
        assert_eq!(f.rightmost(), 2, "uninformed agent at x=9 must not count");
        informed.insert(1);
        f.on_step(ctx_at(1, &positions, &comps, &informed));
        assert_eq!(f.frontier(), &[2, 9]);
    }

    #[test]
    fn infection_times_record_first_step_only() {
        let positions = [Point::new(0, 0), Point::new(1, 1)];
        let comps = components(&positions, 0, 16);
        let mut informed = BitSet::new(2);
        informed.insert(0);
        let mut t = InfectionTimes::new(2);
        t.on_step(ctx_at(0, &positions, &comps, &informed));
        t.on_step(ctx_at(5, &positions, &comps, &informed));
        informed.insert(1);
        t.on_step(ctx_at(9, &positions, &comps, &informed));
        assert_eq!(t.times(), &[Some(0), Some(9)]);
        assert_eq!(t.mean(), Some(4.5));
    }

    #[test]
    fn component_curve_and_tuple_composition() {
        let positions = [Point::new(0, 0), Point::new(0, 1), Point::new(9, 9)];
        let comps = components(&positions, 1, 16);
        let informed = BitSet::new(3);
        let mut c = ComponentSizeCurve::new();
        let mut n = NullObserver;
        let mut pair = (&mut c, &mut n);
        pair.on_step(ctx_at(0, &positions, &comps, &informed));
        assert_eq!(c.max_sizes(), &[2]);
        assert_eq!(c.peak(), 2);
    }

    #[test]
    fn min_rumors_curve_reads_rumor_contexts_only() {
        let positions = [Point::new(0, 0), Point::new(1, 1)];
        let comps = components(&positions, 0, 16);
        let informed = BitSet::new(2);
        let mut curve = MinRumorsCurve::new();
        // A context without rumor sets is ignored.
        curve.on_step(ctx_at(0, &positions, &comps, &informed));
        assert!(curve.counts().is_empty());
        let rumors = crate::RumorSets::distinct(2);
        curve.on_step(StepContext {
            time: 1,
            side: 16,
            positions: &positions,
            components: &comps,
            informed: &informed,
            rumors: Some(&rumors),
        });
        assert_eq!(curve.counts(), &[1]);
        assert_eq!(curve.time_to_reach(1), Some(0));
        assert_eq!(curve.time_to_reach(2), None);
    }

    #[test]
    fn empty_infection_mean_is_none() {
        let t = InfectionTimes::new(3);
        assert_eq!(t.mean(), None);
    }

    #[test]
    fn cell_reach_records_informed_cells_only() {
        use sparsegossip_grid::Tessellation;
        let tess = Tessellation::new(16, 8).unwrap(); // 2×2 cells
        let mut cr = CellReachTimes::new(tess);
        assert_eq!(cr.unreached(), 4);
        let positions = [Point::new(1, 1), Point::new(9, 9)];
        let comps = components(&positions, 0, 16);
        let mut informed = BitSet::new(2);
        informed.insert(0); // only the agent in cell (0,0)
        cr.on_step(ctx_at(3, &positions, &comps, &informed));
        assert_eq!(cr.first_reach()[0], Some(3));
        assert_eq!(cr.first_reach()[3], None);
        assert_eq!(cr.unreached(), 3);
        assert_eq!(cr.all_reached_at(), None);
        // Inform the second agent; move agents through remaining cells.
        informed.insert(1);
        let positions = [Point::new(9, 1), Point::new(1, 9)];
        let comps = components(&positions, 0, 16);
        cr.on_step(ctx_at(7, &positions, &comps, &informed));
        let positions = [Point::new(9, 9), Point::new(1, 9)];
        let comps = components(&positions, 0, 16);
        cr.on_step(ctx_at(9, &positions, &comps, &informed));
        assert_eq!(cr.all_reached_at(), Some(9));
        assert_eq!(cr.unreached(), 0);
        assert_eq!(cr.tessellation().num_cells(), 4);
    }

    #[test]
    fn cell_reach_first_time_is_sticky() {
        use sparsegossip_grid::Tessellation;
        let tess = Tessellation::new(8, 8).unwrap(); // single cell
        let mut cr = CellReachTimes::new(tess);
        let positions = [Point::new(0, 0)];
        let comps = components(&positions, 0, 8);
        let mut informed = BitSet::new(1);
        informed.insert(0);
        cr.on_step(ctx_at(2, &positions, &comps, &informed));
        cr.on_step(ctx_at(5, &positions, &comps, &informed));
        assert_eq!(cr.first_reach()[0], Some(2));
        assert_eq!(cr.all_reached_at(), Some(2));
    }
}
