//! Multi-axis scenario sweeps: the engine that drives a
//! [`ScenarioSpec`] across the cartesian product of {grid side, agent
//! count, radius} axes and up to three config axes, and locates the
//! paper's phase transition.
//!
//! A config axis varies one key of [`AXIS_KEYS`] — a network, world or
//! fault knob — with at most one axis per [`Family`]. Cells nest
//! network, then world, then fault, then side, k and radius.
//!
//! One base spec plus axis lists expand into a grid of *cells* (each a
//! re-validated spec); every cell is replicated with deterministic,
//! decorrelated **content-addressed** seeds
//! ([`cell_seed`]`(master, side, k, radius, replicate)`), so the whole
//! sweep is a pure function of the spec and the master seed —
//! independent of thread count, scheduling, grid shape and replicate
//! count. Workers recycle one [`SimScratch`] each across their whole
//! share of the sweep, so the steady-state step stays allocation-free.
//!
//! Two execution modes sit on top of the grid:
//!
//! * **adaptive refinement** ([`ScenarioSweep::adaptive`]): after the
//!   coarse pass, each (side, k) curve's knee bracket is bisected
//!   until it is ≤ [`AdaptiveConfig::tolerance`]`·r_c` wide (or one
//!   grid step, or the cell budget runs out), then a confidence-aware
//!   top-up spends extra replicates where the relative CI95 is widest;
//! * **checkpoint/resume** ([`ScenarioSweep::run_with_store`]): every
//!   completed simulation streams to a [`crate::ResultStore`] in
//!   deterministic task order, and a resumed sweep replays the store
//!   prefix as cache hits, converging on byte-identical output.
//!
//! The [`ScenarioSweepReport`] carries per-cell summaries and a
//! **transition detector** ([`ScenarioSweepReport::transitions`]):
//! for each (side, k) it finds the knee in the metric-vs-radius curve
//! and cross-checks it against the percolation radius
//! `r_c = √(n/k)` predicted by `sparsegossip_core::theory`.
//!
//! # Examples
//!
//! ```
//! use sparsegossip_analysis::ScenarioSweep;
//! use sparsegossip_core::{ProcessKind, ScenarioSpec};
//!
//! let base = ScenarioSpec::builder(ProcessKind::Broadcast, 16, 8).build()?;
//! let report = ScenarioSweep::new(base, 2011)
//!     .sides(vec![12, 16])
//!     .ks(vec![6, 8])
//!     .r_factors(vec![0.5, 1.0, 2.0]) // radii as fractions of r_c
//!     .replicates(2)
//!     .threads(2)
//!     .run()?;
//! assert_eq!(report.cells.len(), 2 * 2 * 3);
//! assert_eq!(report.transitions().len(), 4); // one knee per (side, k)
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use sparsegossip_core::spec_key::{self, KeyRange, SpecKey};
use sparsegossip_core::theory;
use sparsegossip_core::toml::{format_toml_f64, TomlDoc, TomlError};
use sparsegossip_core::{
    cell_seed, Metric, ProcessKind, ScenarioSpec, SimError, SimScratch, SpecError,
};

use crate::store::{ResultStore, StoreError};
use crate::{parallel_map_with, Summary, Table};

/// The radius axis of a sweep: absolute grid-step radii, or fractions
/// of the cell's own percolation radius `r_c = √(n/k)` (so the axis
/// tracks the transition across differently-sized cells).
#[derive(Clone, Debug, PartialEq)]
pub enum RadiusAxis {
    /// Radii in grid steps, used verbatim for every (side, k).
    Absolute(Vec<u32>),
    /// Radii as multiples of each cell's `r_c`, rounded to grid steps.
    CriticalFractions(Vec<f64>),
}

impl RadiusAxis {
    /// The concrete radii this axis yields for a `side × side` grid
    /// with `k` agents, first occurrence order, duplicates removed —
    /// distinct fractions of a small `r_c` can round to the same grid
    /// radius, and a repeated radius would only re-measure the same
    /// cell under another name.
    #[must_use]
    pub fn resolve(&self, side: u32, k: usize) -> Vec<u32> {
        let raw: Vec<u32> = match self {
            Self::Absolute(radii) => radii.clone(),
            Self::CriticalFractions(factors) => {
                let n = f64::from(side) * f64::from(side);
                let rc = theory::critical_radius(n, k as f64);
                factors.iter().map(|f| (f * rc).round() as u32).collect()
            }
        };
        let mut radii = Vec::with_capacity(raw.len());
        for r in raw {
            if !radii.contains(&r) {
                radii.push(r);
            }
        }
        radii
    }

    /// Number of axis points.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Absolute(v) => v.len(),
            Self::CriticalFractions(v) => v.len(),
        }
    }

    /// Whether the axis has no points.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The config a sweep axis varies. The family fixes the axis's
/// JSON/table label prefix and its nesting order: network axes expand
/// outermost, fault axes innermost. A sweep holds at most one axis per
/// family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// [`NetworkConfig`](sparsegossip_core::NetworkConfig) knobs
    /// (protocol-twin sweeps only).
    Net,
    /// [`WorldConfig`](sparsegossip_core::WorldConfig) knobs (broadcast
    /// sweeps only).
    World,
    /// [`FaultConfig`](sparsegossip_core::FaultConfig) knobs
    /// (protocol-twin sweeps only).
    Fault,
}

impl Family {
    /// The JSON key prefix and table column of this family's labels.
    const NAMES: [&'static str; 3] = ["net", "world", "fault"];
}

/// One sweepable config key: a row of [`AXIS_KEYS`].
#[derive(Clone, Copy, Debug)]
pub struct AxisKey {
    /// The `[sweep]` spelling, e.g. `radius_mixes`.
    pub sweep: &'static str,
    /// The `[scenario]` key the axis sets through
    /// [`ScenarioSpec::with_key`], e.g. `hetero_fraction`; its name keys
    /// the axis's report labels and its range bounds the axis values.
    pub spec: SpecKey,
    /// The config the key belongs to.
    pub family: Family,
}

const fn axis(sweep: &'static str, spec: SpecKey, family: Family) -> AxisKey {
    AxisKey {
        sweep,
        spec,
        family,
    }
}

/// The sweepable config keys, in `[sweep]` rendering order within each
/// family. Only [`ProcessKind::ProtocolBroadcast`] specs accept network
/// and fault settings, and only [`ProcessKind::Broadcast`] specs accept
/// world settings, so an axis on any other kind fails cell validation
/// with [`SimError::UnsupportedSetting`]. The base spec pins every
/// knob an axis does not vary (e.g. `hetero_factor` for `radius_mixes`,
/// `partition_start` for `partition_lens`, the recovery switches for
/// `crash_probs`).
pub const AXIS_KEYS: [AxisKey; 8] = [
    axis("drop_probs", spec_key::DROP_PROB, Family::Net),
    axis("gossip_intervals", spec_key::GOSSIP_INTERVAL, Family::Net),
    axis("send_caps", spec_key::SEND_CAP, Family::Net),
    axis(
        "barrier_densities",
        spec_key::BARRIER_DENSITY,
        Family::World,
    ),
    axis("churn_rates", spec_key::CHURN_RATE, Family::World),
    axis("radius_mixes", spec_key::HETERO_FRACTION, Family::World),
    axis("crash_probs", spec_key::CRASH_PROB, Family::Fault),
    axis("partition_lens", spec_key::PARTITION_LEN, Family::Fault),
];

/// A config axis of a sweep: the index of its [`AXIS_KEYS`] row and its
/// values.
#[derive(Clone, Debug, PartialEq)]
struct Axis {
    row: usize,
    values: Vec<f64>,
}

/// The config-axis point of a cell, indexed by [`Family`] (network,
/// world, fault): a `(spec key, value)` label, or `None` where the
/// sweep has no axis of that family.
pub type AxisLabels = [Option<(&'static str, f64)>; 3];

/// One cell of the expanded sweep grid: its axis coordinates and the
/// re-validated spec that runs there.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioCell {
    /// Grid side of this cell.
    pub side: u32,
    /// Agent count of this cell.
    pub k: usize,
    /// Transmission radius of this cell (resolved from the axis).
    pub radius: u32,
    /// The config-axis point of this cell.
    pub labels: AxisLabels,
    /// The runnable spec for this cell.
    pub spec: ScenarioSpec,
}

/// Configuration of the adaptive refinement mode: how far each
/// curve's knee bracket is narrowed and how much extra work the
/// confidence-aware replicate top-up may spend.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdaptiveConfig {
    /// Maximum total cells per sweep (coarse grid + refinements);
    /// `0` means unlimited. Refinement stops adding cells once the
    /// budget is reached — the coarse grid itself always runs.
    pub cell_budget: usize,
    /// Total extra replicate runs the confidence-aware top-up may
    /// spend across the whole sweep (`0` disables the top-up). Each
    /// round tops up the cell whose relative CI95 half-width is
    /// currently widest.
    pub replicate_budget: u32,
    /// Target bracket width as a fraction of the curve's own `r_c`
    /// (default `0.01`); integer radii additionally stop at a width of
    /// one grid step.
    pub tolerance: f64,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        Self {
            cell_budget: 0,
            replicate_budget: 0,
            tolerance: 0.01,
        }
    }
}

/// Errors of a store-backed sweep run: either a cell failed
/// validation, or the result store failed.
#[derive(Debug)]
pub enum SweepError {
    /// A cell's spec failed validation.
    Sim(SimError),
    /// The result store failed (I/O, corruption, version).
    Store(StoreError),
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Sim(e) => write!(f, "{e}"),
            Self::Store(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SweepError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Sim(e) => Some(e),
            Self::Store(e) => Some(e),
        }
    }
}

impl From<SimError> for SweepError {
    fn from(e: SimError) -> Self {
        Self::Sim(e)
    }
}

impl From<StoreError> for SweepError {
    fn from(e: StoreError) -> Self {
        Self::Store(e)
    }
}

/// A multi-axis sweep of one [`ScenarioSpec`] over {side, k, r} and at
/// most one config axis per [`Family`] (network, world, fault).
///
/// Cells are ordered by the network axis (when one is set), then the
/// world axis, then the fault axis, then side, then k, then radius;
/// the seed of replicate `j` of a cell is
/// [`cell_seed`]`(master, side, k, radius, j)` — content-addressed by
/// the cell's own coordinates, so results never depend on the thread
/// count, the grid shape or the replicate count (pinned by the
/// `scenario_sweep_regression` suite).
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioSweep {
    base: ScenarioSpec,
    master_seed: u64,
    sides: Vec<u32>,
    ks: Vec<usize>,
    radii: RadiusAxis,
    /// The config axes, indexed by [`Family`].
    axes: [Option<Axis>; 3],
    replicates: u32,
    threads: usize,
    adaptive: Option<AdaptiveConfig>,
}

impl ScenarioSweep {
    /// Creates a sweep of `base` rooted at `master_seed`; every axis
    /// defaults to the base spec's own value (a 1×1×1 grid), with 8
    /// replicates and single-threaded execution.
    #[must_use]
    pub fn new(base: ScenarioSpec, master_seed: u64) -> Self {
        Self {
            master_seed,
            sides: vec![base.config().side()],
            ks: vec![base.config().k()],
            radii: RadiusAxis::Absolute(vec![base.config().radius()]),
            axes: [None, None, None],
            replicates: 8,
            threads: 1,
            adaptive: None,
            base,
        }
    }

    /// Sets the grid-side axis.
    ///
    /// # Panics
    ///
    /// Panics if `sides` is empty.
    #[must_use]
    pub fn sides(mut self, sides: Vec<u32>) -> Self {
        assert!(!sides.is_empty(), "at least one side required");
        self.sides = sides;
        self
    }

    /// Sets the agent-count axis.
    ///
    /// # Panics
    ///
    /// Panics if `ks` is empty.
    #[must_use]
    pub fn ks(mut self, ks: Vec<usize>) -> Self {
        assert!(!ks.is_empty(), "at least one k required");
        self.ks = ks;
        self
    }

    /// Sets the radius axis to absolute radii.
    ///
    /// # Panics
    ///
    /// Panics if `radii` is empty.
    #[must_use]
    pub fn radii(mut self, radii: Vec<u32>) -> Self {
        assert!(!radii.is_empty(), "at least one radius required");
        self.radii = RadiusAxis::Absolute(radii);
        self
    }

    /// Sets the radius axis to fractions of each cell's `r_c` (e.g.
    /// `[0.25, 0.5, 1.0, 2.0]` brackets the transition everywhere).
    ///
    /// # Panics
    ///
    /// Panics if `factors` is empty or contains a negative or
    /// non-finite factor.
    #[must_use]
    pub fn r_factors(mut self, factors: Vec<f64>) -> Self {
        assert!(!factors.is_empty(), "at least one radius factor required");
        assert!(
            factors.iter().all(|f| f.is_finite() && *f >= 0.0),
            "radius factors must be finite and non-negative"
        );
        self.radii = RadiusAxis::CriticalFractions(factors);
        self
    }

    /// Sets the config axis `key` (a `[sweep]` key of [`AXIS_KEYS`],
    /// e.g. `"churn_rates"`) to `values`, replacing any axis of the same
    /// [`Family`]. A kind that does not take the key fails at
    /// [`cells`](Self::cells) with [`SimError::UnsupportedSetting`].
    ///
    /// # Errors
    ///
    /// [`SpecError::UnknownKey`] if `key` is not in [`AXIS_KEYS`];
    /// [`SpecError::Toml`] if `values` is empty or holds a value outside
    /// the spec key's range ([`SpecKey::value_of`]).
    pub fn axis(mut self, key: &str, values: Vec<f64>) -> Result<Self, SpecError> {
        let Some((index, row)) = AXIS_KEYS
            .iter()
            .enumerate()
            .find(|(_, row)| row.sweep == key)
        else {
            return Err(SpecError::UnknownKey {
                section: "sweep".to_string(),
                key: key.to_string(),
            });
        };
        let expected = if values.is_empty() {
            "a non-empty array"
        } else {
            row.spec.range.expected()
        };
        if values.is_empty() || !values.iter().all(|&x| row.spec.value_of(x).is_some()) {
            return Err(SpecError::Toml(TomlError::BadValue {
                section: "sweep".to_string(),
                key: key.to_string(),
                expected,
            }));
        }
        self.axes[row.family as usize] = Some(Axis { row: index, values });
        Ok(self)
    }

    /// Sets the network axis to per-message drop probabilities: as
    /// [`axis`](Self::axis)`("drop_probs", probs)`.
    ///
    /// # Panics
    ///
    /// Panics if `probs` is empty or contains a non-finite value or
    /// one outside `[0, 1]`.
    #[must_use]
    pub fn drop_probs(self, probs: Vec<f64>) -> Self {
        #[expect(
            clippy::expect_used,
            reason = "the setter's documented panic, as `sides` asserts"
        )]
        let sweep = self
            .axis("drop_probs", probs)
            .expect("drop probabilities must be finite and within [0, 1]");
        sweep
    }

    /// Sets the number of replicates per cell.
    ///
    /// # Panics
    ///
    /// Panics if `replicates == 0`.
    #[must_use]
    pub fn replicates(mut self, replicates: u32) -> Self {
        assert!(replicates > 0, "at least one replicate required");
        self.replicates = replicates;
        self
    }

    /// Sets the number of worker threads (values below 1 are clamped);
    /// never affects results, only wall-clock time.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the master seed the per-cell seeds derive from.
    #[must_use]
    pub fn seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Enables the adaptive refinement mode: after the coarse pass,
    /// bisect every curve's knee bracket to `tolerance · r_c` (or one
    /// grid step) under the cell budget, then top up replicates where
    /// the relative CI95 is widest under the replicate budget.
    ///
    /// # Panics
    ///
    /// Panics if `config.tolerance` is not finite and positive.
    #[must_use]
    pub fn adaptive(mut self, config: AdaptiveConfig) -> Self {
        assert!(
            config.tolerance.is_finite() && config.tolerance > 0.0,
            "adaptive tolerance must be finite and positive"
        );
        self.adaptive = Some(config);
        self
    }

    /// The adaptive configuration, if the mode is enabled.
    #[inline]
    #[must_use]
    pub fn adaptive_config(&self) -> Option<AdaptiveConfig> {
        self.adaptive
    }

    /// The base spec the axes expand.
    #[inline]
    #[must_use]
    pub fn base(&self) -> &ScenarioSpec {
        &self.base
    }

    /// The master seed.
    #[inline]
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The replicates per cell.
    #[inline]
    #[must_use]
    pub fn num_replicates(&self) -> u32 {
        self.replicates
    }

    /// Expands the axes into the ordered cell grid, re-validating the
    /// spec at every coordinate.
    ///
    /// # Errors
    ///
    /// The first [`SimError`] any cell's validation produces (e.g. the
    /// base source index is out of range for a smaller `k`).
    pub fn cells(&self) -> Result<Vec<ScenarioCell>, SimError> {
        // One labelled base spec per config-axis point, each family
        // nesting inside the previous one; no config axis, no extra
        // cells, so plain sweeps keep their exact cell grid and seeds.
        let mut bases: Vec<(AxisLabels, ScenarioSpec)> = vec![([None; 3], self.base)];
        for axis in self.axes.iter().flatten() {
            let row = &AXIS_KEYS[axis.row];
            let mut next = Vec::with_capacity(bases.len() * axis.values.len());
            for (labels, base) in &bases {
                for &value in &axis.values {
                    let mut labels = *labels;
                    labels[row.family as usize] = Some((row.spec.name, value));
                    let spec = base.with_key(row.spec.name, value).map_err(|e| match e {
                        SpecError::Sim(e) => e,
                        // `axis` checked the key and every value.
                        e => unreachable!("axis value outside its domain: {e}"),
                    })?;
                    next.push((labels, spec));
                }
            }
            bases = next;
        }
        let mut cells =
            Vec::with_capacity(bases.len() * self.sides.len() * self.ks.len() * self.radii.len());
        for (labels, base) in &bases {
            for &side in &self.sides {
                for &k in &self.ks {
                    for radius in self.radii.resolve(side, k) {
                        cells.push(ScenarioCell {
                            side,
                            k,
                            radius,
                            labels: *labels,
                            spec: base.with_axes(side, k, radius)?,
                        });
                    }
                }
            }
        }
        Ok(cells)
    }

    /// Runs every replicate of every cell across the worker threads and
    /// aggregates per cell (plus the adaptive refinement and top-up
    /// phases when [`adaptive`](Self::adaptive) is enabled).
    ///
    /// # Errors
    ///
    /// As [`cells`](Self::cells).
    pub fn run(&self) -> Result<ScenarioSweepReport, SimError> {
        match self.run_with_store(None) {
            Ok(report) => Ok(report),
            Err(SweepError::Sim(e)) => Err(e),
            // A storeless run has no store to fail.
            Err(SweepError::Store(_)) => unreachable!("storeless run cannot fail on the store"),
        }
    }

    /// As [`run`](Self::run), streaming every completed simulation to
    /// `store` in deterministic task order and replaying records
    /// already in the store as cache hits — the checkpoint/resume
    /// path. The store's integrity trailer is written on completion;
    /// a killed run leaves a truncatable prefix that
    /// [`ResultStore::open_resume`] recovers, and a resumed sweep
    /// converges on a byte-identical store and report.
    ///
    /// # Errors
    ///
    /// [`SweepError::Sim`] as [`cells`](Self::cells);
    /// [`SweepError::Store`] when the store fails.
    pub fn run_with_store(
        &self,
        mut store: Option<&mut ResultStore>,
    ) -> Result<ScenarioSweepReport, SweepError> {
        let cells = self.cells()?;
        // Curves in first-appearance order; every evaluated cell knows
        // its curve so refined cells sort back into their curve.
        let mut curves: Vec<CurveKey> = Vec::new();
        let mut evals: Vec<Eval> = Vec::with_capacity(cells.len());
        for cell in cells {
            let key = (cell.side, cell.k, cell.labels);
            let curve = match curves.iter().position(|c| *c == key) {
                Some(i) => i,
                None => {
                    curves.push(key);
                    curves.len() - 1
                }
            };
            evals.push(Eval {
                spec_hash: cell.spec.content_hash(),
                cell,
                curve,
                samples: Vec::with_capacity(self.replicates as usize),
            });
        }
        let coarse_cells = evals.len();
        // Coarse pass: every replicate of every grid cell.
        let jobs: Vec<(usize, u32)> = (0..evals.len())
            .flat_map(|i| (0..self.replicates).map(move |j| (i, j)))
            .collect();
        self.run_jobs(&mut evals, &jobs, &mut store)?;

        let adaptive = match self.adaptive {
            Some(cfg) => {
                let refined = self.refine(&mut evals, curves.len(), cfg, &mut store)?;
                let topped_up = self.top_up(&mut evals, cfg, &mut store)?;
                Some(AdaptiveSummary {
                    coarse_cells,
                    refined_cells: refined,
                    topup_replicates: topped_up,
                })
            }
            None => None,
        };
        if let Some(store) = store.as_mut() {
            store.finish()?;
        }
        // Adaptive runs interleave refined cells back into their
        // curves in radius order; plain runs keep the grid's own cell
        // order verbatim (pinned byte-for-byte by the CLI goldens).
        if adaptive.is_some() {
            evals.sort_by_key(|e| (e.curve, e.cell.radius));
        }
        // A fresh buffer, not an in-place collect: reusing `evals`'
        // buffer would shrink it with a `realloc` whose presence depends
        // on the two element sizes, so the allocation census would move
        // with struct layout.
        let mut cells = Vec::with_capacity(evals.len());
        cells.extend(evals.into_iter().map(|e| {
            let n = f64::from(e.cell.side) * f64::from(e.cell.side);
            SweepCell {
                side: e.cell.side,
                k: e.cell.k,
                radius: e.cell.radius,
                labels: e.cell.labels,
                critical_radius: theory::critical_radius(n, e.cell.k as f64),
                summary: Summary::from_slice(&e.samples),
                samples: e.samples,
            }
        }));
        Ok(ScenarioSweepReport {
            process: self.base.kind(),
            metric: self.base.metric(),
            master_seed: self.master_seed,
            replicates: self.replicates,
            adaptive,
            cells,
        })
    }

    /// Executes a batch of `(eval index, replicate)` jobs: store hits
    /// are replayed, misses run in parallel (per-worker scratch) and
    /// are appended to the store in job order, and every value is
    /// pushed onto its eval's samples in job order.
    fn run_jobs(
        &self,
        evals: &mut [Eval],
        jobs: &[(usize, u32)],
        store: &mut Option<&mut ResultStore>,
    ) -> Result<(), SweepError> {
        // (job slot, eval, replicate, seed) of every cache miss.
        let mut to_run: Vec<(usize, usize, u32, u64)> = Vec::with_capacity(jobs.len());
        let mut values: Vec<Option<f64>> = vec![None; jobs.len()];
        for (slot, &(e, rep)) in jobs.iter().enumerate() {
            let c = &evals[e].cell;
            let seed = cell_seed(self.master_seed, c.side, c.k, c.radius, rep);
            match store
                .as_deref()
                .and_then(|s| s.get(evals[e].spec_hash, seed))
            {
                Some(v) => values[slot] = Some(v),
                None => to_run.push((slot, e, rep, seed)),
            }
        }
        let shared: &[Eval] = evals;
        let outs = parallel_map_with(
            &to_run,
            self.threads,
            SimScratch::new,
            |scratch, &(_, e, _, seed)| shared[e].cell.spec.run_seed_with_scratch(scratch, seed),
        );
        for (&(slot, e, rep, seed), &v) in to_run.iter().zip(&outs) {
            values[slot] = Some(v);
            if let Some(store) = store.as_deref_mut() {
                store.append(evals[e].spec_hash, seed, rep, v)?;
            }
        }
        for (slot, &(e, _)) in jobs.iter().enumerate() {
            if let Some(v) = values[slot] {
                evals[e].samples.push(v);
            }
        }
        Ok(())
    }

    /// The bisection phase: narrows every curve's knee bracket by
    /// evaluating midpoint cells in parallel waves until each bracket
    /// is at most `tolerance · r_c` (or one grid step) wide or the
    /// cell budget is exhausted. Returns the number of refined cells
    /// added.
    fn refine(
        &self,
        evals: &mut Vec<Eval>,
        num_curves: usize,
        cfg: AdaptiveConfig,
        store: &mut Option<&mut ResultStore>,
    ) -> Result<usize, SweepError> {
        // Detector-driven waves: each round re-runs the knee detector
        // over every curve's *current* points and bisects the pair it
        // flags, so refinement converges on exactly the bracket the
        // final report will cite. (Classifying midpoints against a
        // fixed initial bracket can converge while the detector still
        // flags a wide coarse pair elsewhere on the curve — splitting
        // a steep interval splits its drop ratio across the pieces.)
        let mut active: Vec<bool> = vec![true; num_curves];
        let mut refined = 0usize;
        loop {
            // Plan one wave: the flagged pair's midpoint for every
            // still-active curve, in curve order, respecting the cell
            // budget. A curve retires when its flagged pair is narrow
            // enough (one grid step or `tolerance · r_c`), bisection
            // degenerates, or the detector stops finding a knee.
            // One wave entry per curve: (curve, mid radius, lo eval).
            let mut wave: Vec<(usize, u32, usize)> = Vec::new();
            // hot: census row `adaptive_sweep_allocations_are_pinned`
            for (curve, live) in active.iter_mut().enumerate() {
                if !*live {
                    continue;
                }
                let Some((lo, hi)) = knee_bracket(evals, curve) else {
                    *live = false;
                    continue;
                };
                let r_lo = evals[lo].cell.radius;
                let r_hi = evals[hi].cell.radius;
                let rc = critical_radius_of(&evals[lo].cell);
                let width = f64::from(r_hi - r_lo);
                if width <= 1.0 || width <= cfg.tolerance * rc {
                    *live = false;
                    continue;
                }
                let mid = bracket_midpoint(r_lo, r_hi);
                if mid <= r_lo || mid >= r_hi {
                    *live = false;
                    continue;
                }
                if cfg.cell_budget > 0 && evals.len() + wave.len() >= cfg.cell_budget {
                    *live = false;
                    continue;
                }
                wave.push((curve, mid, lo));
            }
            if wave.is_empty() {
                return Ok(refined);
            }
            // Materialize the wave's cells and run all their
            // replicates as one parallel batch.
            let first_new = evals.len();
            let mut jobs: Vec<(usize, u32)> =
                Vec::with_capacity(wave.len() * self.replicates as usize);
            for (w, &(curve, mid, lo)) in wave.iter().enumerate() {
                let parent = evals[lo].cell.clone();
                let spec = parent.spec.with_axes(parent.side, parent.k, mid)?;
                evals.push(Eval {
                    spec_hash: spec.content_hash(),
                    cell: ScenarioCell {
                        radius: mid,
                        spec,
                        ..parent
                    },
                    curve,
                    samples: Vec::with_capacity(self.replicates as usize),
                });
                jobs.extend((0..self.replicates).map(|j| (first_new + w, j)));
            }
            refined += wave.len();
            self.run_jobs(evals, &jobs, store)?;
        }
    }

    /// The confidence-aware top-up phase: while replicate budget
    /// remains, find the evaluated cell with the widest *relative*
    /// CI95 half-width (half-width over `max(|mean|, 1)` — time
    /// scales differ wildly across cells) and give it up to one more
    /// round of replicates. Returns the replicates actually spent.
    fn top_up(
        &self,
        evals: &mut [Eval],
        cfg: AdaptiveConfig,
        store: &mut Option<&mut ResultStore>,
    ) -> Result<u32, SweepError> {
        let mut remaining = cfg.replicate_budget;
        let mut spent = 0u32;
        while remaining > 0 {
            let mut widest: Option<(usize, f64)> = None;
            // hot: census row `adaptive_sweep_allocations_are_pinned`
            for (i, e) in evals.iter().enumerate() {
                let width = relative_ci95(&e.samples);
                if widest.is_none_or(|(_, w)| width > w) {
                    widest = Some((i, width));
                }
            }
            let Some((target, width)) = widest else { break };
            if width <= 0.0 {
                // Every cell's interval is tight (or degenerate):
                // nothing left for the budget to buy.
                break;
            }
            let add = self.replicates.min(remaining);
            let start = evals[target].samples.len() as u32;
            let jobs: Vec<(usize, u32)> = (0..add).map(|j| (target, start + j)).collect();
            self.run_jobs(evals, &jobs, store)?;
            remaining -= add;
            spent += add;
        }
        Ok(spent)
    }

    /// Parses a sweep from text holding a `[scenario]` section and an
    /// optional `[sweep]` section with keys `sides`, `ks`, `radii` *or*
    /// `r_factors`, the config-axis keys of [`AXIS_KEYS`] (at most one
    /// per [`Family`]), `replicates`, `seed`, `threads` and the
    /// adaptive-mode keys `adaptive`, `cell_budget`,
    /// `replicate_budget`, `tolerance` (axes default to the scenario's
    /// own values; the budget/tolerance keys require
    /// `adaptive = true`).
    ///
    /// # Errors
    ///
    /// As [`ScenarioSpec::from_toml_str`], plus [`SpecError::Toml`] /
    /// [`SpecError::UnknownKey`] on malformed `[sweep]` entries.
    pub fn from_toml_str(text: &str) -> Result<Self, SpecError> {
        let doc = TomlDoc::parse(text)?;
        let base = ScenarioSpec::from_toml_doc(&doc)?;
        let mut sweep = Self::new(base, 2011);
        let Some(table) = doc.opt_section("sweep") else {
            return Ok(sweep);
        };
        const KNOWN: [&str; 11] = [
            "sides",
            "ks",
            "radii",
            "r_factors",
            "replicates",
            "seed",
            "threads",
            "adaptive",
            "cell_budget",
            "replicate_budget",
            "tolerance",
        ];
        for key in table.keys() {
            if !KNOWN.contains(&key) && !AXIS_KEYS.iter().any(|row| row.sweep == key) {
                return Err(SpecError::UnknownKey {
                    section: "sweep".to_string(),
                    key: key.to_string(),
                });
            }
        }
        let bad = |key, expected| {
            SpecError::Toml(TomlError::BadValue {
                section: "sweep".to_string(),
                key,
                expected,
            })
        };
        if let Some(sides) = table.opt_u32_array("sides")? {
            if sides.is_empty() {
                return Err(bad("sides".to_string(), "a non-empty array"));
            }
            sweep = sweep.sides(sides);
        }
        if let Some(ks) = table.opt_usize_array("ks")? {
            if ks.is_empty() {
                return Err(bad("ks".to_string(), "a non-empty array"));
            }
            sweep = sweep.ks(ks);
        }
        let radii = table.opt_u32_array("radii")?;
        let factors = table.opt_f64_array("r_factors")?;
        match (radii, factors) {
            (Some(_), Some(_)) => {
                return Err(bad(
                    "radii".to_string(),
                    "a single radius axis (either `radii` or `r_factors`, not both)",
                ))
            }
            (Some(radii), None) => {
                if radii.is_empty() {
                    return Err(bad("radii".to_string(), "a non-empty array"));
                }
                sweep = sweep.radii(radii);
            }
            (None, Some(factors)) => {
                if factors.is_empty() || factors.iter().any(|f| !f.is_finite() || *f < 0.0) {
                    return Err(bad(
                        "r_factors".to_string(),
                        "a non-empty array of finite non-negative numbers",
                    ));
                }
                sweep = sweep.r_factors(factors);
            }
            (None, None) => {}
        }
        for row in &AXIS_KEYS {
            // Integer keys stay TOML integers. The conversion is exact up
            // to `MAX_EXACT_INT`, and anything larger converts above it,
            // so `axis` rejects it.
            let values = match row.spec.range {
                KeyRange::Int { .. } => table
                    .opt_usize_array(row.sweep)?
                    .map(|v| v.into_iter().map(|x| x as f64).collect()),
                _ => table.opt_f64_array(row.sweep)?,
            };
            let Some(values) = values else { continue };
            if sweep.axes[row.family as usize].is_some() {
                return Err(bad(
                    row.sweep.to_string(),
                    "a single axis per family (network, world, fault)",
                ));
            }
            sweep = sweep.axis(row.sweep, values)?;
        }
        if let Some(reps) = table.opt_u32("replicates")? {
            if reps == 0 {
                return Err(bad("replicates".to_string(), "a positive integer"));
            }
            sweep = sweep.replicates(reps);
        }
        if let Some(seed) = table.opt_u64("seed")? {
            sweep.master_seed = seed;
        }
        if let Some(threads) = table.opt_usize("threads")? {
            if threads == 0 {
                return Err(bad("threads".to_string(), "a positive integer"));
            }
            sweep = sweep.threads(threads);
        }
        let adaptive_on = matches!(table.opt_bool("adaptive")?, Some(true));
        let cell_budget = table.opt_usize("cell_budget")?;
        let replicate_budget = table.opt_u32("replicate_budget")?;
        let tolerance = table.opt_f64("tolerance")?;
        if !adaptive_on
            && (cell_budget.is_some() || replicate_budget.is_some() || tolerance.is_some())
        {
            return Err(bad(
                "adaptive".to_string(),
                "adaptive = true alongside cell_budget / replicate_budget / tolerance",
            ));
        }
        if adaptive_on {
            let mut cfg = AdaptiveConfig::default();
            if let Some(budget) = cell_budget {
                cfg.cell_budget = budget;
            }
            if let Some(budget) = replicate_budget {
                cfg.replicate_budget = budget;
            }
            if let Some(tol) = tolerance {
                if !tol.is_finite() || tol <= 0.0 {
                    return Err(bad("tolerance".to_string(), "a finite positive number"));
                }
                cfg.tolerance = tol;
            }
            sweep = sweep.adaptive(cfg);
        }
        Ok(sweep)
    }

    /// Renders the sweep (scenario + axes) in the TOML subset;
    /// [`from_toml_str`](Self::from_toml_str) parses it back to an
    /// equal sweep.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut out = self.base.to_toml();
        out.push_str("\n[sweep]\n");
        out.push_str(&format!(
            "sides = [{}]\n",
            join_with(self.sides.iter(), ", ")
        ));
        out.push_str(&format!("ks = [{}]\n", join_with(self.ks.iter(), ", ")));
        match &self.radii {
            RadiusAxis::Absolute(radii) => {
                out.push_str(&format!("radii = [{}]\n", join_with(radii.iter(), ", ")));
            }
            RadiusAxis::CriticalFractions(factors) => {
                let rendered: Vec<String> = factors.iter().map(|f| format_toml_f64(*f)).collect();
                out.push_str(&format!("r_factors = [{}]\n", rendered.join(", ")));
            }
        }
        for axis in self.axes.iter().flatten() {
            let row = &AXIS_KEYS[axis.row];
            let rendered: Vec<String> = axis
                .values
                .iter()
                .map(|&x| match row.spec.range {
                    KeyRange::Int { .. } => x.to_string(),
                    _ => format_toml_f64(x),
                })
                .collect();
            out.push_str(&format!("{} = [{}]\n", row.sweep, rendered.join(", ")));
        }
        out.push_str(&format!("replicates = {}\n", self.replicates));
        out.push_str(&format!("seed = {}\n", self.master_seed));
        out.push_str(&format!("threads = {}\n", self.threads));
        if let Some(cfg) = &self.adaptive {
            out.push_str("adaptive = true\n");
            out.push_str(&format!("cell_budget = {}\n", cfg.cell_budget));
            out.push_str(&format!("replicate_budget = {}\n", cfg.replicate_budget));
            out.push_str(&format!("tolerance = {}\n", format_toml_f64(cfg.tolerance)));
        }
        out
    }
}

fn join_with<T: ToString>(items: impl Iterator<Item = T>, sep: &str) -> String {
    items.map(|x| x.to_string()).collect::<Vec<_>>().join(sep)
}

/// The identity of a radius curve: every axis coordinate except the
/// radius itself.
type CurveKey = (u32, usize, AxisLabels);

/// One evaluated cell during a run: the cell, the curve it belongs
/// to, its spec's content hash (the store key, shared by every
/// replicate) and its accumulated samples in replicate order.
struct Eval {
    cell: ScenarioCell,
    curve: usize,
    spec_hash: u64,
    samples: Vec<f64>,
}

/// Mean of a sample (`0` for an empty one, which never occurs after
/// the coarse pass — every eval holds at least one replicate).
fn mean_of(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The relative CI95 half-width the top-up phase ranks cells by:
/// half-width over `max(|mean|, 1)`, so slow sub-critical cells
/// (means in the hundreds) and fast super-critical ones (means near
/// 1) compete on equal footing.
fn relative_ci95(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let summary = Summary::from_slice(samples);
    summary.ci95_half_width() / summary.mean().abs().max(1.0)
}

/// `r_c = √(n/k)` at a cell's own axes.
fn critical_radius_of(cell: &ScenarioCell) -> f64 {
    let n = f64::from(cell.side) * f64::from(cell.side);
    theory::critical_radius(n, cell.k as f64)
}

/// Bisection midpoint on the integer radius axis: arithmetic when the
/// bracket touches radius 0 (the geometric mean `√(0·r)` degenerates
/// to 0 and would pin the bracket), geometric otherwise — the same
/// midpoint rule the knee detector reports.
fn bracket_midpoint(r_lo: u32, r_hi: u32) -> u32 {
    if r_lo == 0 {
        (r_lo + r_hi) / 2
    } else {
        (f64::from(r_lo) * f64::from(r_hi)).sqrt().round() as u32
    }
}

/// The coarse knee bracket of one curve, as eval indices: the
/// adjacent radius pair with the largest mean-metric drop, under the
/// knee detector's own symmetric one-step floor and
/// [`ScenarioSweepReport::MIN_DROP_RATIO`] gate. Curves with fewer
/// than three distinct radii or no qualifying drop yield no bracket
/// and are not refined.
fn knee_bracket(evals: &[Eval], curve: usize) -> Option<(usize, usize)> {
    let mut points: Vec<(u32, usize)> = evals
        .iter()
        .enumerate()
        .filter(|(_, e)| e.curve == curve)
        .map(|(i, e)| (e.cell.radius, i))
        .collect();
    points.sort_by_key(|&(r, _)| r);
    if points.len() < 3 {
        return None;
    }
    let mut best: Option<((usize, usize), f64)> = None;
    for pair in points.windows(2) {
        let (lo, hi) = (pair[0].1, pair[1].1);
        let ratio = mean_of(&evals[lo].samples).max(1.0) / mean_of(&evals[hi].samples).max(1.0);
        if best.is_none_or(|(_, b)| ratio > b) {
            best = Some(((lo, hi), ratio));
        }
    }
    best.and_then(|(pair, ratio)| (ratio >= ScenarioSweepReport::MIN_DROP_RATIO).then_some(pair))
}

/// One completed cell of a sweep: coordinates, theory prediction and
/// replicate summary.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Grid side.
    pub side: u32,
    /// Agent count.
    pub k: usize,
    /// Transmission radius.
    pub radius: u32,
    /// The config-axis point of this cell.
    pub labels: AxisLabels,
    /// The predicted percolation radius `r_c = √(n/k)` at these axes.
    pub critical_radius: f64,
    /// Summary over replicates.
    pub summary: Summary,
    /// Raw per-replicate measurements (replicate order).
    pub samples: Vec<f64>,
}

/// A located phase transition on one (side, k) radius curve: the knee
/// between the last sub-critical and first super-critical axis point,
/// cross-checked against the theory prediction.
#[derive(Clone, Copy, Debug)]
pub struct TransitionEstimate {
    /// Grid side of the curve.
    pub side: u32,
    /// Agent count of the curve.
    pub k: usize,
    /// The config-axis point of the curve.
    pub labels: AxisLabels,
    /// Radius on the slow side of the knee.
    pub r_below: u32,
    /// Radius on the fast side of the knee.
    pub r_above: u32,
    /// The knee location (geometric midpoint of the bracketing radii).
    pub r_knee: f64,
    /// Mean-metric drop across the knee (slow mean / fast mean).
    pub drop_ratio: f64,
    /// `r_c = √(n/k)` from `sparsegossip_core::theory`.
    pub predicted_rc: f64,
}

impl TransitionEstimate {
    /// The predicted band for the measured knee: `[r_c/4, 4·r_c]`, the
    /// factor-4 window around the asymptotic `r_c = √(n/k)` that the
    /// `Θ̃`-notation's model-dependent constant is allowed to occupy
    /// (the same window the percolation threshold tests use).
    #[must_use]
    pub fn band(&self) -> (f64, f64) {
        (self.predicted_rc / 4.0, self.predicted_rc * 4.0)
    }

    /// Whether the knee lies inside [`band`](Self::band).
    #[must_use]
    pub fn within_band(&self) -> bool {
        let (lo, hi) = self.band();
        self.r_knee >= lo && self.r_knee <= hi
    }
}

/// What the adaptive mode spent on top of the coarse grid, carried on
/// the report (and into its JSON) when the mode was enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptiveSummary {
    /// Cells in the coarse grid.
    pub coarse_cells: usize,
    /// Midpoint cells added by the bisection phase.
    pub refined_cells: usize,
    /// Extra replicates spent by the confidence-aware top-up.
    pub topup_replicates: u32,
}

impl AdaptiveSummary {
    /// Total cells evaluated (coarse grid + refinements).
    #[must_use]
    pub fn total_cells(&self) -> usize {
        self.coarse_cells + self.refined_cells
    }
}

/// Aggregated result of a [`ScenarioSweep::run`]: per-cell summaries in
/// cell order, renderable as a [`Table`] or machine-readable JSON.
#[derive(Clone, Debug)]
#[must_use]
pub struct ScenarioSweepReport {
    /// The swept process kind.
    pub process: ProcessKind,
    /// The reported metric.
    pub metric: Metric,
    /// The master seed the cell seeds derive from.
    pub master_seed: u64,
    /// Replicates per cell.
    pub replicates: u32,
    /// What the adaptive mode spent, when it was enabled (plain grid
    /// runs carry `None` and render exactly as before).
    pub adaptive: Option<AdaptiveSummary>,
    /// Per-cell results in [`ScenarioSweep::cells`] order (adaptive
    /// runs interleave refined radii into their curves in radius
    /// order).
    pub cells: Vec<SweepCell>,
}

impl ScenarioSweepReport {
    /// The smallest mean-metric drop an adjacent radius pair must show
    /// for [`transitions`](Self::transitions) to call it a knee: well
    /// below the order-of-magnitude collapse the paper predicts across
    /// `r_c`, comfortably above replicate noise on a flat curve.
    pub const MIN_DROP_RATIO: f64 = 2.0;

    /// Locates the knee of every (side, k, config-axis point) radius curve
    /// with at least three distinct radii: the adjacent radius pair
    /// with the largest drop in mean metric (at least
    /// [`MIN_DROP_RATIO`](Self::MIN_DROP_RATIO) — a flat curve reports
    /// no transition), its knee at their geometric midpoint.
    ///
    /// Meaningful for [`Metric::Time`], where crossing `r_c` collapses
    /// the completion time; with [`Metric::Fraction`] the drop ratios
    /// are typically below 1, so no transition is reported.
    #[must_use]
    pub fn transitions(&self) -> Vec<TransitionEstimate> {
        let mut out = Vec::new();
        let mut groups: Vec<CurveKey> = Vec::new();
        for cell in &self.cells {
            if !groups.contains(&(cell.side, cell.k, cell.labels)) {
                groups.push((cell.side, cell.k, cell.labels));
            }
        }
        for (side, k, labels) in groups {
            let mut curve: Vec<(u32, f64, f64)> = self
                .cells
                .iter()
                .filter(|c| c.side == side && c.k == k && c.labels == labels)
                .map(|c| (c.radius, c.summary.mean(), c.critical_radius))
                .collect();
            curve.sort_by_key(|&(r, _, _)| r);
            curve.dedup_by_key(|&mut (r, _, _)| r);
            if curve.len() < 3 {
                continue;
            }
            let mut best: Option<(usize, f64)> = None;
            for i in 0..curve.len() - 1 {
                let (_, mean_lo, _) = curve[i];
                let (_, mean_hi, _) = curve[i + 1];
                // Both means floored at one step: the fast side must
                // not divide by ~0, and a sub-step mean on the *slow*
                // side (every agent informed at step 0) must not
                // manufacture a drop out of a flat all-informed curve.
                let ratio = mean_lo.max(1.0) / mean_hi.max(1.0);
                if best.is_none_or(|(_, b)| ratio > b) {
                    best = Some((i, ratio));
                }
            }
            let Some((i, drop_ratio)) = best else {
                continue;
            };
            // A flat curve (all-subcritical or all-supercritical axis,
            // or seed noise) has no knee: only a drop that clears the
            // threshold is a transition.
            if drop_ratio < Self::MIN_DROP_RATIO {
                continue;
            }
            let (r_below, _, predicted_rc) = curve[i];
            let (r_above, _, _) = curve[i + 1];
            let r_knee = if r_below == 0 {
                f64::from(r_below + r_above) / 2.0
            } else {
                (f64::from(r_below) * f64::from(r_above)).sqrt()
            };
            out.push(TransitionEstimate {
                side,
                k,
                labels,
                r_below,
                r_above,
                r_knee,
                drop_ratio,
                predicted_rc,
            });
        }
        out
    }

    /// Renders the per-cell summaries as an aligned table, with a
    /// `net`, `world` or `fault` column only for a family the sweep has
    /// an axis of.
    #[must_use]
    pub fn table(&self) -> Table {
        let families: Vec<usize> = (0..Family::NAMES.len())
            .filter(|&f| self.cells.iter().any(|c| c.labels[f].is_some()))
            .collect();
        let mut header = vec![
            spec_key::SIDE.name.to_string(),
            spec_key::K.name.into(),
            "r".into(),
        ];
        header.extend(families.iter().map(|&f| Family::NAMES[f].to_string()));
        header.extend([
            "r/r_c".to_string(),
            format!("mean {}", self.metric),
            "ci95".into(),
            "median".into(),
        ]);
        let mut t = Table::new(header);
        for c in &self.cells {
            let mut row = vec![c.side.to_string(), c.k.to_string(), c.radius.to_string()];
            row.extend(families.iter().map(|&f| match c.labels[f] {
                Some((key, value)) => format!("{key}={value}"),
                None => "-".to_string(),
            }));
            row.extend([
                format!("{:.2}", f64::from(c.radius) / c.critical_radius),
                format!("{:.1}", c.summary.mean()),
                format!("{:.1}", c.summary.ci95_half_width()),
                format!("{:.1}", c.summary.median()),
            ]);
            t.push_row(row);
        }
        t
    }

    /// Renders the report (cells + transitions) as a self-describing
    /// JSON document — the schema behind `BENCH_sweep.json` and the
    /// CLI's `sweep --json`, pinned by the CLI golden tests.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str("  \"experiment\": \"scenario_sweep\",\n");
        out.push_str(&format!("  \"process\": \"{}\",\n", self.process));
        out.push_str(&format!("  \"metric\": \"{}\",\n", self.metric));
        out.push_str(&format!("  \"seed\": {},\n", self.master_seed));
        out.push_str(&format!("  \"replicates\": {},\n", self.replicates));
        // The adaptive block appears only when the mode ran, so plain
        // grid reports stay byte-identical to the pinned goldens.
        if let Some(a) = &self.adaptive {
            out.push_str(&format!(
                "  \"adaptive\": {{\"coarse_cells\": {}, \"refined_cells\": {}, \
                 \"topup_replicates\": {}}},\n",
                a.coarse_cells, a.refined_cells, a.topup_replicates
            ));
        }
        out.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let samples: Vec<String> = c.samples.iter().map(|s| format!("{s}")).collect();
            let labels = labels_json(&c.labels);
            out.push_str(&format!(
                "    {{\"side\": {}, \"k\": {}, \"r\": {}, {}\"r_c\": {}, \"mean\": {}, \
                 \"ci95\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"samples\": [{}]}}{}\n",
                c.side,
                c.k,
                c.radius,
                labels,
                c.critical_radius,
                c.summary.mean(),
                c.summary.ci95_half_width(),
                c.summary.median(),
                c.summary.min(),
                c.summary.max(),
                samples.join(","),
                if i + 1 == self.cells.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"transitions\": [\n");
        let transitions = self.transitions();
        for (i, t) in transitions.iter().enumerate() {
            let (lo, hi) = t.band();
            let labels = labels_json(&t.labels);
            out.push_str(&format!(
                "    {{\"side\": {}, \"k\": {}, {}\"r_below\": {}, \"r_above\": {}, \
                 \"r_knee\": {}, \"drop_ratio\": {}, \"predicted_rc\": {}, \
                 \"band\": [{}, {}], \"within_band\": {}}}{}\n",
                t.side,
                t.k,
                labels,
                t.r_below,
                t.r_above,
                t.r_knee,
                t.drop_ratio,
                t.predicted_rc,
                lo,
                hi,
                t.within_band(),
                if i + 1 == transitions.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The JSON fields of a cell's or curve's config-axis labels, each
/// family as `"<family>_key": "<key>", "<family>_value": <value>, `;
/// empty without config axes, so plain sweeps keep their schema.
fn labels_json(labels: &AxisLabels) -> String {
    let mut out = String::new();
    for (name, label) in Family::NAMES.iter().zip(labels) {
        if let Some((key, value)) = label {
            out.push_str(&format!(
                "\"{name}_key\": \"{key}\", \"{name}_value\": {value}, "
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegossip_core::toml::MAX_EXACT_INT;

    fn tiny_base() -> ScenarioSpec {
        ScenarioSpec::builder(ProcessKind::Broadcast, 12, 6)
            .build()
            .unwrap()
    }

    #[test]
    fn cells_expand_side_major_then_k_then_r() {
        let sweep = ScenarioSweep::new(tiny_base(), 1)
            .sides(vec![8, 12])
            .ks(vec![4, 6])
            .radii(vec![0, 2]);
        let cells = sweep.cells().unwrap();
        assert_eq!(cells.len(), 8);
        let coords: Vec<(u32, usize, u32)> =
            cells.iter().map(|c| (c.side, c.k, c.radius)).collect();
        assert_eq!(
            coords,
            vec![
                (8, 4, 0),
                (8, 4, 2),
                (8, 6, 0),
                (8, 6, 2),
                (12, 4, 0),
                (12, 4, 2),
                (12, 6, 0),
                (12, 6, 2)
            ]
        );
        // Default caps re-derive per cell.
        assert_eq!(
            cells[0].spec.config().max_steps(),
            sparsegossip_core::SimConfig::default_step_cap(8, 4)
        );
    }

    #[test]
    fn critical_fraction_axis_tracks_rc() {
        let axis = RadiusAxis::CriticalFractions(vec![0.5, 1.0, 2.0]);
        // side 16, k 16: r_c = 4.
        assert_eq!(axis.resolve(16, 16), vec![2, 4, 8]);
        // side 32, k 16: r_c = 8.
        assert_eq!(axis.resolve(32, 16), vec![4, 8, 16]);
        assert_eq!(axis.len(), 3);
        assert!(!axis.is_empty());
    }

    #[test]
    fn invalid_cell_is_reported_not_panicked() {
        let base = ScenarioSpec::builder(ProcessKind::Broadcast, 12, 8)
            .source(5)
            .build()
            .unwrap();
        let err = ScenarioSweep::new(base, 1).ks(vec![4]).run().unwrap_err();
        assert_eq!(err, SimError::SourceOutOfRange { source: 5, k: 4 });
    }

    #[test]
    fn run_aggregates_every_cell() {
        let report = ScenarioSweep::new(tiny_base(), 3)
            .sides(vec![10, 12])
            .radii(vec![0, 1, 2])
            .replicates(3)
            .run()
            .unwrap();
        assert_eq!(report.cells.len(), 6);
        for cell in &report.cells {
            assert_eq!(cell.samples.len(), 3);
            assert_eq!(cell.summary.n(), 3);
            assert!(cell.critical_radius > 0.0);
        }
        assert_eq!(report.replicates, 3);
        assert_eq!(report.process, ProcessKind::Broadcast);
    }

    #[test]
    fn transitions_locate_a_synthetic_knee() {
        // Hand-build a report with a sharp drop between r=4 and r=8 on
        // a side-32, k-16 curve (r_c = 8).
        let cell = |radius: u32, mean: f64| SweepCell {
            side: 32,
            k: 16,
            radius,
            labels: [None; 3],
            critical_radius: 8.0,
            summary: Summary::from_slice(&[mean]),
            samples: vec![mean],
        };
        let report = ScenarioSweepReport {
            process: ProcessKind::Broadcast,
            metric: Metric::Time,
            master_seed: 0,
            replicates: 1,
            adaptive: None,
            cells: vec![cell(2, 900.0), cell(4, 880.0), cell(8, 40.0), cell(16, 5.0)],
        };
        let ts = report.transitions();
        assert_eq!(ts.len(), 1);
        let t = &ts[0];
        assert_eq!((t.r_below, t.r_above), (4, 8));
        assert!((t.r_knee - 32f64.sqrt()).abs() < 1e-9);
        assert!(t.drop_ratio > 20.0);
        assert!(t.within_band(), "knee {} outside {:?}", t.r_knee, t.band());
    }

    #[test]
    fn transitions_need_three_distinct_radii() {
        let cell = |radius: u32, mean: f64| SweepCell {
            side: 16,
            k: 8,
            radius,
            labels: [None; 3],
            critical_radius: 5.65,
            summary: Summary::from_slice(&[mean]),
            samples: vec![mean],
        };
        let report = ScenarioSweepReport {
            process: ProcessKind::Broadcast,
            metric: Metric::Time,
            master_seed: 0,
            replicates: 1,
            adaptive: None,
            // Two distinct radii only (the duplicate dedups away).
            cells: vec![cell(2, 100.0), cell(2, 90.0), cell(8, 10.0)],
        };
        assert!(report.transitions().is_empty());
    }

    #[test]
    fn flat_curves_report_no_transition() {
        // An all-supercritical axis: tiny near-constant means whose
        // largest adjacent ratio is seed noise, far below the drop
        // threshold — no knee must be reported.
        let cell = |radius: u32, mean: f64| SweepCell {
            side: 32,
            k: 16,
            radius,
            labels: [None; 3],
            critical_radius: 8.0,
            summary: Summary::from_slice(&[mean]),
            samples: vec![mean],
        };
        let report = ScenarioSweepReport {
            process: ProcessKind::Broadcast,
            metric: Metric::Time,
            master_seed: 0,
            replicates: 1,
            adaptive: None,
            cells: vec![cell(12, 3.0), cell(16, 2.0), cell(24, 2.0), cell(32, 1.5)],
        };
        assert!(
            report.transitions().is_empty(),
            "noise ratio {:.2} must not register as a knee",
            3.0 / 2.0
        );
    }

    #[test]
    fn duplicate_rounded_radii_collapse_to_one_cell() {
        // side 64, k 128: r_c ≈ 5.66, so factors 0.12 and 0.25 both
        // round to r = 1 — the axis must yield each radius once.
        let axis = RadiusAxis::CriticalFractions(vec![0.12, 0.25, 0.5, 1.0]);
        assert_eq!(axis.resolve(64, 128), vec![1, 3, 6]);
        let base = ScenarioSpec::builder(ProcessKind::Broadcast, 64, 128)
            .build()
            .unwrap();
        let cells = ScenarioSweep::new(base, 1)
            .r_factors(vec![0.12, 0.25, 0.5, 1.0])
            .cells()
            .unwrap();
        let radii: Vec<u32> = cells.iter().map(|c| c.radius).collect();
        assert_eq!(radii, vec![1, 3, 6], "no duplicate cells after rounding");
    }

    #[test]
    fn zero_radius_knee_uses_arithmetic_midpoint() {
        let cell = |radius: u32, mean: f64| SweepCell {
            side: 16,
            k: 8,
            radius,
            labels: [None; 3],
            critical_radius: 5.65,
            summary: Summary::from_slice(&[mean]),
            samples: vec![mean],
        };
        let report = ScenarioSweepReport {
            process: ProcessKind::Broadcast,
            metric: Metric::Time,
            master_seed: 0,
            replicates: 1,
            adaptive: None,
            cells: vec![cell(0, 500.0), cell(4, 20.0), cell(8, 10.0)],
        };
        let ts = report.transitions();
        assert_eq!(ts.len(), 1);
        assert_eq!((ts[0].r_below, ts[0].r_above), (0, 4));
        assert_eq!(ts[0].r_knee, 2.0);
    }

    #[test]
    fn toml_round_trip_is_identity() {
        let sweep = ScenarioSweep::new(tiny_base(), 99)
            .sides(vec![12, 16])
            .ks(vec![4, 6])
            .r_factors(vec![0.25, 1.0, 2.0])
            .replicates(5)
            .threads(3);
        let text = sweep.to_toml();
        let parsed = ScenarioSweep::from_toml_str(&text).unwrap();
        assert_eq!(sweep, parsed, "round trip changed the sweep:\n{text}");

        let absolute = ScenarioSweep::new(tiny_base(), 7).radii(vec![0, 3, 6]);
        let parsed = ScenarioSweep::from_toml_str(&absolute.to_toml()).unwrap();
        assert_eq!(absolute, parsed);
    }

    #[test]
    fn toml_sweep_section_is_optional_and_validated() {
        let spec_only = "[scenario]\nprocess = \"broadcast\"\nside = 12\nk = 6\n";
        let sweep = ScenarioSweep::from_toml_str(spec_only).unwrap();
        assert_eq!(sweep.cells().unwrap().len(), 1);

        let with = |extra: &str| format!("{spec_only}\n[sweep]\n{extra}");
        assert!(matches!(
            ScenarioSweep::from_toml_str(&with("typo = 1\n")),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(ScenarioSweep::from_toml_str(&with("sides = []\n")).is_err());
        assert!(ScenarioSweep::from_toml_str(&with("ks = []\n")).is_err());
        assert!(ScenarioSweep::from_toml_str(&with("radii = []\n")).is_err());
        assert!(ScenarioSweep::from_toml_str(&with("r_factors = [-1.0]\n")).is_err());
        assert!(ScenarioSweep::from_toml_str(&with("replicates = 0\n")).is_err());
        assert_eq!(
            ScenarioSweep::from_toml_str(&with("threads = 0\n")).unwrap_err(),
            SpecError::Toml(TomlError::BadValue {
                section: "sweep".to_string(),
                key: "threads".to_string(),
                expected: "a positive integer",
            })
        );
        assert!(
            ScenarioSweep::from_toml_str(&with("radii = [1]\nr_factors = [1.0]\n")).is_err(),
            "both radius axes at once must be rejected"
        );
    }

    type ReadKnob = fn(&ScenarioSpec) -> f64;

    /// Every row of [`AXIS_KEYS`], in table order: two runnable axis
    /// values and how to read the knob back from a cell's spec.
    fn axis_cases() -> [(&'static str, [f64; 2], ReadKnob); 8] {
        [
            ("drop_probs", [0.0, 0.5], |s| s.network().drop_prob()),
            ("gossip_intervals", [1.0, 4.0], |s| {
                s.network().gossip_interval() as f64
            }),
            ("send_caps", [0.0, 2.0], |s| {
                f64::from(s.network().send_cap())
            }),
            ("barrier_densities", [0.0, 0.2], |s| {
                s.world().barrier_density
            }),
            ("churn_rates", [0.0, 0.05], |s| s.world().churn_rate),
            ("radius_mixes", [0.0, 0.5], |s| s.world().hetero_fraction),
            ("crash_probs", [0.0, 0.2], |s| s.faults().crash_prob),
            ("partition_lens", [0.0, 8.0], |s| {
                s.faults().partition_len as f64
            }),
        ]
    }

    /// A base spec that takes axes of `family`, and one of a kind that
    /// rejects them. Both pin knobs the axes leave alone
    /// (`hetero_factor`, `partition_start`, the recovery switches).
    fn family_bases(family: Family) -> (ScenarioSpec, ScenarioSpec) {
        let kind = |kind| {
            ScenarioSpec::builder(kind, 12, 6)
                .radius(u32::from(kind != ProcessKind::Gossip))
                .max_steps(2_000)
        };
        match family {
            Family::Net | Family::Fault => (
                kind(ProcessKind::ProtocolBroadcast)
                    .partition(3, 0)
                    .retransmit(true)
                    .anti_entropy_interval(1)
                    .build()
                    .unwrap(),
                tiny_base(),
            ),
            Family::World => (
                kind(ProcessKind::Broadcast)
                    .hetero_factor(2.0)
                    .build()
                    .unwrap(),
                kind(ProcessKind::Gossip)
                    .hetero_factor(2.0)
                    .build()
                    .unwrap(),
            ),
        }
    }

    #[test]
    fn every_config_axis_expands_validates_round_trips_and_labels() {
        let cases = axis_cases();
        assert_eq!(cases.map(|c| c.0), AXIS_KEYS.map(|row| row.sweep));
        for ((key, values, read), row) in cases.into_iter().zip(&AXIS_KEYS) {
            let f = row.family as usize;
            let (base, wrong) = family_bases(row.family);
            let label = |x| {
                let mut labels: AxisLabels = [None; 3];
                labels[f] = Some((row.spec.name, x));
                labels
            };

            // Axis-major expansion: the swept knob changes, no other.
            let sweep = ScenarioSweep::new(base, 1)
                .radii(vec![0, 2])
                .axis(key, values.to_vec())
                .unwrap();
            let cells = sweep.cells().unwrap();
            let coords: Vec<(AxisLabels, u32)> =
                cells.iter().map(|c| (c.labels, c.radius)).collect();
            assert_eq!(
                coords,
                vec![
                    (label(values[0]), 0),
                    (label(values[0]), 2),
                    (label(values[1]), 0),
                    (label(values[1]), 2),
                ],
                "{key}"
            );
            assert_eq!(read(&cells[2].spec), values[1], "{key}");
            assert_eq!(
                cells[2].spec.with_key(row.spec.name, read(&base)).unwrap(),
                base.with_axes(12, 6, 0).unwrap(),
                "{key} changed a knob it does not sweep"
            );

            // A kind that does not take the key fails at cells().
            let err = ScenarioSweep::new(wrong, 1)
                .axis(key, vec![values[1]])
                .unwrap()
                .cells()
                .unwrap_err();
            assert!(
                matches!(err, SimError::UnsupportedSetting { .. }),
                "{key}: {err}"
            );

            // TOML round trip, including the integer range's bounds
            // (capped where `f64` stops being exact).
            let mut round_trips = vec![sweep.clone()];
            if let KeyRange::Int { min, max } = row.spec.range {
                let max = max.min(MAX_EXACT_INT);
                round_trips.push(
                    sweep
                        .clone()
                        .axis(key, vec![min as f64, max as f64])
                        .unwrap(),
                );
            }
            for sweep in round_trips {
                let text = sweep.to_toml();
                let parsed = ScenarioSweep::from_toml_str(&text).unwrap();
                assert_eq!(sweep, parsed, "round trip changed the sweep:\n{text}");
            }

            // Bad values and a second axis of the family are rejected.
            let spec = base.to_toml();
            let with = |extra: String| format!("{spec}\n[sweep]\n{extra}\n");
            let mut bad: Vec<String> = vec!["[]".into()];
            match row.spec.range {
                KeyRange::Unit => bad.extend(["[1.5]".into(), "[-0.1]".into()]),
                KeyRange::Int { min, max } => {
                    let max = max.min(MAX_EXACT_INT);
                    bad.extend([format!("[{}]", max + 1), format!("[{min}.5]")]);
                    if min > 0 {
                        bad.push(format!("[{}]", min - 1));
                    }
                }
                other => panic!("{key}: no axis takes a {other:?} key"),
            }
            for list in bad {
                assert!(
                    ScenarioSweep::from_toml_str(&with(format!("{key} = {list}"))).is_err(),
                    "{key} = {list} accepted"
                );
            }
            assert!(sweep.clone().axis(key, vec![f64::NAN]).is_err(), "{key}");
            let sibling = AXIS_KEYS
                .iter()
                .find(|other| other.family == row.family && other.sweep != key)
                .unwrap();
            let two = with(format!("{key} = [{}]\n{} = [1]", values[1], sibling.sweep));
            assert!(
                ScenarioSweep::from_toml_str(&two).is_err(),
                "{key} and {} in one sweep accepted",
                sibling.sweep
            );

            // Report labels: every cell and knee carries the point.
            let report = ScenarioSweep::new(base, 9)
                .radii(vec![0, 1, 2])
                .axis(key, values.to_vec())
                .unwrap()
                .replicates(2)
                .run()
                .unwrap();
            assert_eq!(report.cells.len(), 6);
            for c in &report.cells {
                assert!(c.labels == label(values[0]) || c.labels == label(values[1]));
            }
            for t in report.transitions() {
                assert!(t.labels == label(values[0]) || t.labels == label(values[1]));
            }
            let name = Family::NAMES[f];
            let table = format!("{}", report.table());
            assert!(table.contains(name), "{table}");
            assert!(
                table.contains(&format!("{}={}", row.spec.name, values[1])),
                "{table}"
            );
            let json = report.to_json();
            assert!(
                json.contains(&format!("\"{name}_key\": \"{}\"", row.spec.name)),
                "{json}"
            );
            assert!(
                json.contains(&format!("\"{name}_value\": {}", values[1])),
                "{json}"
            );
        }
    }

    #[test]
    fn unknown_axis_keys_are_rejected() {
        let sweep = ScenarioSweep::new(tiny_base(), 1);
        assert!(matches!(
            sweep.clone().axis("drop_prob", vec![0.5]),
            Err(SpecError::UnknownKey { .. })
        ));
        assert!(matches!(
            sweep.axis("sides", vec![8.0]),
            Err(SpecError::UnknownKey { .. })
        ));
    }

    #[test]
    fn wide_integer_axes_round_trip_through_toml() {
        let spec = "[scenario]\nprocess = \"protocol-broadcast\"\nside = 12\nk = 6\n";
        for axis in [
            "partition_lens = [0, 5000000000]",
            "gossip_intervals = [1, 8589934592]",
        ] {
            let sweep =
                ScenarioSweep::from_toml_str(&format!("{spec}\n[sweep]\n{axis}\n")).unwrap();
            let text = sweep.to_toml();
            assert!(text.contains(&format!("{axis}\n")), "{text}");
            assert_eq!(ScenarioSweep::from_toml_str(&text).unwrap(), sweep);
        }
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = ScenarioSweep::new(tiny_base(), 5)
            .radii(vec![0, 2, 4])
            .replicates(2)
            .run()
            .unwrap();
        let json = report.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.contains("\"experiment\": \"scenario_sweep\""));
        assert!(json.contains("\"process\": \"broadcast\""));
        assert!(json.contains("\"cells\": ["));
        assert!(json.contains("\"transitions\": ["));
        assert_eq!(
            json.matches("\"side\":").count(),
            3 + report.transitions().len()
        );
        // No trailing commas before closing brackets.
        assert!(!json.contains(",\n  ]"));
        // Plain grid runs carry no adaptive block.
        assert!(report.adaptive.is_none());
        assert!(!json.contains("\"adaptive\""));
    }

    #[test]
    fn all_informed_flat_curve_with_trailing_drop_reports_none() {
        // An all-informed curve (every agent within r of the source at
        // step 0) measures ~1 everywhere; a final cell completing at
        // step 0 used to trip the old asymmetric 0.5 floor
        // (1.0 / max(0.0, 0.5) = 2.0 ≥ MIN_DROP_RATIO) and
        // manufacture a knee out of a flat curve.
        let cell = |radius: u32, mean: f64| SweepCell {
            side: 8,
            k: 16,
            radius,
            labels: [None; 3],
            critical_radius: 2.0,
            summary: Summary::from_slice(&[mean]),
            samples: vec![mean],
        };
        let report = ScenarioSweepReport {
            process: ProcessKind::Broadcast,
            metric: Metric::Time,
            master_seed: 0,
            replicates: 1,
            adaptive: None,
            cells: vec![cell(4, 1.0), cell(6, 1.0), cell(8, 1.0), cell(16, 0.0)],
        };
        assert!(
            report.transitions().is_empty(),
            "a sub-step tail on a flat curve must not register as a knee"
        );
    }

    #[test]
    fn knee_always_lies_within_its_bracketing_pair() {
        // Whatever the curve, the reported knee must sit between
        // r_below and r_above (geometric and arithmetic midpoints
        // both satisfy this; pin it against regressions).
        let cell = |radius: u32, mean: f64| SweepCell {
            side: 32,
            k: 16,
            radius,
            labels: [None; 3],
            critical_radius: 8.0,
            summary: Summary::from_slice(&[mean]),
            samples: vec![mean],
        };
        for cells in [
            vec![cell(0, 700.0), cell(5, 600.0), cell(9, 30.0), cell(20, 4.0)],
            vec![cell(0, 700.0), cell(1, 80.0), cell(3, 40.0)],
            vec![cell(2, 900.0), cell(4, 880.0), cell(8, 40.0)],
        ] {
            let report = ScenarioSweepReport {
                process: ProcessKind::Broadcast,
                metric: Metric::Time,
                master_seed: 0,
                replicates: 1,
                adaptive: None,
                cells,
            };
            for t in report.transitions() {
                assert!(
                    f64::from(t.r_below) <= t.r_knee && t.r_knee <= f64::from(t.r_above),
                    "knee {} outside bracket [{}, {}]",
                    t.r_knee,
                    t.r_below,
                    t.r_above
                );
            }
        }
    }

    #[test]
    fn bracket_midpoint_bisects_without_degenerating() {
        // Zero lower edge: arithmetic, so the midpoint moves.
        assert_eq!(bracket_midpoint(0, 8), 4);
        // Width 1: rounds to an endpoint, so the caller stops.
        assert_eq!(bracket_midpoint(0, 1), 0);
        // Positive edges: geometric, matching the knee report.
        assert_eq!(bracket_midpoint(4, 16), 8);
        assert_eq!(bracket_midpoint(2, 3), 2); // rounds to an endpoint
    }

    #[test]
    fn adaptive_run_refines_toward_the_knee() {
        let report = ScenarioSweep::new(tiny_base(), 7)
            .radii(vec![0, 2, 10])
            .replicates(2)
            .adaptive(AdaptiveConfig::default())
            .run()
            .unwrap();
        let summary = report.adaptive.expect("adaptive summary present");
        assert_eq!(summary.coarse_cells, 3);
        assert!(summary.refined_cells >= 1, "the knee bracket must bisect");
        assert_eq!(summary.total_cells(), report.cells.len());
        assert_eq!(summary.topup_replicates, 0, "no replicate budget given");
        // Refined cells interleave in radius order and stay inside
        // the coarse axis range.
        let radii: Vec<u32> = report.cells.iter().map(|c| c.radius).collect();
        let mut sorted = radii.clone();
        sorted.sort_unstable();
        assert_eq!(radii, sorted, "cells must come out in radius order");
        assert!(radii.iter().all(|&r| r <= 10));
        // Every cell still carries its full replicate set.
        assert!(report.cells.iter().all(|c| c.samples.len() == 2));
        let json = report.to_json();
        assert!(
            json.contains("\"adaptive\": {\"coarse_cells\": 3"),
            "{json}"
        );
    }

    #[test]
    fn adaptive_cell_budget_caps_refinement() {
        let base = AdaptiveConfig {
            cell_budget: 4,
            ..AdaptiveConfig::default()
        };
        let report = ScenarioSweep::new(tiny_base(), 7)
            .radii(vec![0, 2, 10])
            .replicates(2)
            .adaptive(base)
            .run()
            .unwrap();
        assert!(
            report.cells.len() <= 4,
            "cell budget must cap the sweep at 4 cells, got {}",
            report.cells.len()
        );
    }

    #[test]
    fn adaptive_topup_spends_the_replicate_budget() {
        let cfg = AdaptiveConfig {
            replicate_budget: 3,
            ..AdaptiveConfig::default()
        };
        let report = ScenarioSweep::new(tiny_base(), 7)
            .radii(vec![0, 2, 10])
            .replicates(2)
            .adaptive(cfg)
            .run()
            .unwrap();
        let summary = report.adaptive.expect("adaptive summary present");
        assert!(summary.topup_replicates <= 3);
        let extra: usize = report
            .cells
            .iter()
            .map(|c| c.samples.len().saturating_sub(2))
            .sum();
        assert_eq!(extra, summary.topup_replicates as usize);
    }

    #[test]
    fn adaptive_reports_match_across_thread_counts() {
        let run = |threads: usize| {
            ScenarioSweep::new(tiny_base(), 7)
                .radii(vec![0, 2, 10])
                .replicates(2)
                .threads(threads)
                .adaptive(AdaptiveConfig {
                    replicate_budget: 2,
                    ..AdaptiveConfig::default()
                })
                .run()
                .unwrap()
                .to_json()
        };
        let single = run(1);
        assert_eq!(single, run(3), "thread count must not leak into results");
    }

    #[test]
    fn store_backed_run_replays_as_cache_hits() {
        let mut path = std::env::temp_dir();
        path.push(format!("sparsegossip_sweep_store_{}", std::process::id()));
        let sweep = ScenarioSweep::new(tiny_base(), 7)
            .radii(vec![0, 2, 10])
            .replicates(2)
            .adaptive(AdaptiveConfig::default());
        let mut store = ResultStore::create(&path).unwrap();
        let first = sweep.run_with_store(Some(&mut store)).unwrap().to_json();
        drop(store);

        // Second run against the finished store: everything replays.
        let before = std::fs::read(&path).unwrap();
        let mut store = ResultStore::open_resume(&path).unwrap();
        let second = sweep.run_with_store(Some(&mut store)).unwrap().to_json();
        drop(store);
        let after = std::fs::read(&path).unwrap();

        assert_eq!(first, second, "replayed run must reproduce the report");
        assert_eq!(before, after, "replayed run must not grow the store");
        // And both match the storeless run.
        assert_eq!(first, sweep.run().unwrap().to_json());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn adaptive_toml_round_trip_and_validation() {
        let sweep = ScenarioSweep::new(tiny_base(), 99)
            .radii(vec![0, 2, 10])
            .replicates(3)
            .adaptive(AdaptiveConfig {
                cell_budget: 20,
                replicate_budget: 8,
                tolerance: 0.05,
            });
        let text = sweep.to_toml();
        let parsed = ScenarioSweep::from_toml_str(&text).unwrap();
        assert_eq!(sweep, parsed, "round trip changed the sweep:\n{text}");

        let spec_only = "[scenario]\nprocess = \"broadcast\"\nside = 12\nk = 6\n";
        let with = |extra: &str| format!("{spec_only}\n[sweep]\n{extra}");
        assert!(
            ScenarioSweep::from_toml_str(&with("cell_budget = 5\n")).is_err(),
            "budget keys without adaptive = true must be rejected"
        );
        assert!(
            ScenarioSweep::from_toml_str(&with("adaptive = true\ntolerance = 0.0\n")).is_err(),
            "non-positive tolerance must be rejected"
        );
        assert!(ScenarioSweep::from_toml_str(&with("adaptive = false\n")).is_ok());
        let parsed = ScenarioSweep::from_toml_str(&with("adaptive = true\n")).unwrap();
        assert_eq!(parsed.adaptive_config(), Some(AdaptiveConfig::default()));
    }
}
