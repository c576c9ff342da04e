use crate::{derive_seed, parallel_map, parallel_map_with, Summary, Table};

/// Executes one measurement per seed across worker threads — the
/// multi-seed companion of the `Process`/`Simulation` API: any process
/// run becomes a deterministic Monte-Carlo ensemble.
///
/// Seeds come from the builder (repetitions derived from a master seed
/// via [`derive_seed`], an explicit seed range, or a verbatim list),
/// work is distributed by [`parallel_map`], and results are returned in
/// seed order — so the output is a pure function of the seed list,
/// independent of thread count or scheduling.
///
/// # Examples
///
/// A multi-seed ensemble with [`measure`](Runner::measure): any
/// `Fn(u64) -> f64` plugs in — with the simulator, the closure is
/// `|seed| { let mut rng = SmallRng::seed_from_u64(seed); let mut sim =
/// Simulation::broadcast(&cfg, &mut rng)?; sim.run(&mut rng)
/// .broadcast_time }` (see the `sparsegossip` facade docs for the full
/// version, and [`run_with_state`](Runner::run_with_state) for the
/// scratch-reusing variant):
///
/// ```
/// use sparsegossip_analysis::Runner;
///
/// let runner = Runner::new(2011).repetitions(16).threads(4);
/// let report = runner.measure(|seed| (seed % 7) as f64);
/// assert_eq!(report.summary.n(), 16);
/// assert_eq!(report.samples.len(), 16);
/// println!("{}", report.table("T_B").to_csv());
///
/// // Outcomes are a pure function of the seed list: thread count and
/// // scheduling never change the aggregate.
/// let serial = Runner::new(2011).repetitions(16).threads(1).measure(|seed| (seed % 7) as f64);
/// assert_eq!(report.samples, serial.samples);
/// ```
#[derive(Clone, Debug)]
pub struct Runner {
    master_seed: u64,
    seeds: Vec<u64>,
    threads: usize,
}

impl Runner {
    /// Creates a runner with 8 repetitions derived from `master_seed`
    /// and single-threaded execution.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            seeds: (0..8).map(|i| derive_seed(master_seed, i)).collect(),
            threads: 1,
        }
    }

    /// Uses `n` repetitions with decorrelated seeds
    /// `derive_seed(master, 0..n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn repetitions(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one repetition required");
        self.seeds = (0..u64::from(n))
            .map(|i| derive_seed(self.master_seed, i))
            .collect();
        self
    }

    /// Uses the explicit seeds of `range` (e.g. `0..32`), verbatim —
    /// handy for regenerating a published table from its stated seeds.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[must_use]
    pub fn seed_range(mut self, range: core::ops::Range<u64>) -> Self {
        assert!(!range.is_empty(), "at least one seed required");
        self.seeds = range.collect();
        self
    }

    /// Uses an explicit seed list, verbatim.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    #[must_use]
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "at least one seed required");
        self.seeds = seeds;
        self
    }

    /// Sets the number of worker threads (values below 1 are clamped).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The master seed.
    #[inline]
    #[must_use]
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// The seed list runs will use, in execution order.
    #[inline]
    #[must_use]
    pub fn seed_list(&self) -> &[u64] {
        &self.seeds
    }

    /// Runs `run_one(seed)` for every seed in parallel; outcomes are
    /// returned in seed order regardless of scheduling.
    pub fn run<O, F>(&self, run_one: F) -> Vec<O>
    where
        O: Send,
        F: Fn(u64) -> O + Sync,
    {
        parallel_map(&self.seeds, self.threads, |&seed| run_one(seed))
    }

    /// As [`Runner::run`], but every worker thread builds one private
    /// state with `init` and reuses it for its whole seed batch — the
    /// scratch-reuse path: a worker warms up simulation buffers once
    /// and then runs every one of its seeds allocation-free.
    ///
    /// Per-seed determinism must come from the seed alone (the state is
    /// shared across a scheduling-dependent subset of seeds), exactly
    /// as with [`run`](Runner::run); outcomes come back in seed order.
    ///
    /// # Examples
    ///
    /// Reusing one scratch buffer per worker (with a `Simulation`, the
    /// state would be a recycled `SimScratch` or a whole resettable
    /// simulation — see `tests/scratch_reuse.rs` at the workspace root):
    ///
    /// ```
    /// use sparsegossip_analysis::Runner;
    ///
    /// let runner = Runner::new(2011).repetitions(16).threads(4);
    /// let with_state = runner.run_with_state(Vec::new, |buf: &mut Vec<u64>, seed| {
    ///     buf.clear(); // reused allocation, per-seed content
    ///     buf.extend([seed % 1000, seed % 7]);
    ///     buf.iter().sum::<u64>()
    /// });
    /// let stateless = runner.run(|seed| seed % 1000 + seed % 7);
    /// assert_eq!(with_state, stateless, "state reuse never changes results");
    /// ```
    pub fn run_with_state<S, O, I, F>(&self, init: I, run_one: F) -> Vec<O>
    where
        O: Send,
        I: Fn() -> S + Sync,
        F: Fn(&mut S, u64) -> O + Sync,
    {
        parallel_map_with(&self.seeds, self.threads, init, |state, &seed| {
            run_one(state, seed)
        })
    }

    /// Runs `measure(seed)` for every seed and aggregates the samples
    /// into a [`RunnerReport`] (summary statistics + per-seed samples).
    pub fn measure<F>(&self, measure: F) -> RunnerReport
    where
        F: Fn(u64) -> f64 + Sync,
    {
        let samples = self.run(measure);
        RunnerReport {
            summary: Summary::from_slice(&samples),
            seeds: self.seeds.clone(),
            samples,
        }
    }
}

/// Aggregated result of a [`Runner::measure`] sweep: per-seed samples
/// plus their [`Summary`], renderable as a [`Table`].
#[derive(Clone, Debug)]
#[must_use]
pub struct RunnerReport {
    /// Summary statistics over all seeds.
    pub summary: Summary,
    /// The seeds, in execution order.
    pub seeds: Vec<u64>,
    /// The per-seed measurements, aligned with `seeds`.
    pub samples: Vec<f64>,
}

impl RunnerReport {
    /// Renders the per-seed samples as a two-column table.
    pub fn table(&self, metric: &str) -> Table {
        let mut t = Table::new(vec!["seed".into(), metric.into()]);
        for (seed, sample) in self.seeds.iter().zip(&self.samples) {
            t.push_row(vec![seed.to_string(), format!("{sample}")]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcomes_are_in_seed_order_and_thread_independent() {
        let f = |seed: u64| seed.wrapping_mul(2654435761) % 1000;
        let serial = Runner::new(7).repetitions(32).threads(1).run(f);
        let threaded = Runner::new(7).repetitions(32).threads(8).run(f);
        assert_eq!(serial.len(), 32);
        assert_eq!(serial, threaded);
    }

    #[test]
    fn seed_range_uses_raw_seeds() {
        let r = Runner::new(0).seed_range(10..14);
        assert_eq!(r.seed_list(), &[10, 11, 12, 13]);
        let out = r.run(|s| s);
        assert_eq!(out, vec![10, 11, 12, 13]);
    }

    #[test]
    fn repetitions_derive_distinct_seeds() {
        use std::collections::BTreeSet;
        let r = Runner::new(42).repetitions(100);
        let distinct: BTreeSet<u64> = r.seed_list().iter().copied().collect();
        assert_eq!(distinct.len(), 100);
        assert_eq!(r.master_seed(), 42);
    }

    #[test]
    fn explicit_seed_list_is_used_verbatim() {
        let r = Runner::new(0).seeds(vec![5, 5, 9]);
        assert_eq!(r.run(|s| s), vec![5, 5, 9]);
    }

    #[test]
    fn measure_aggregates_into_summary_and_table() {
        let report = Runner::new(3).seed_range(0..4).measure(|s| s as f64);
        assert_eq!(report.summary.n(), 4);
        assert_eq!(report.summary.mean(), 1.5);
        let table = report.table("value");
        assert_eq!(table.len(), 4);
        assert!(table.to_csv().starts_with("seed,value\n0,0\n"));
    }

    #[test]
    #[should_panic(expected = "at least one repetition")]
    fn zero_repetitions_panics() {
        let _ = Runner::new(1).repetitions(0);
    }

    #[test]
    #[should_panic(expected = "at least one seed")]
    fn empty_seed_range_panics() {
        let _ = Runner::new(1).seed_range(5..5);
    }
}
