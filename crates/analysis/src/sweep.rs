use crate::{derive_seed, parallel_map, Summary};

/// One point of a completed sweep: the parameter value and the summary
/// of its replicated measurements.
#[derive(Clone, Debug)]
pub struct SweepPoint<P> {
    /// The parameter value of this point.
    pub param: P,
    /// Summary over replicates.
    pub summary: Summary,
    /// The raw per-replicate measurements (replicate order).
    pub samples: Vec<f64>,
}

/// A replicated parameter sweep: for each parameter value, `replicates`
/// measurements are taken with decorrelated deterministic seeds, in
/// parallel across points and replicates.
///
/// # Examples
///
/// ```
/// use sparsegossip_analysis::Sweep;
///
/// // "Measure" a deterministic function of the parameter and seed.
/// let sweep = Sweep::new(42).replicates(4).threads(2);
/// let points = sweep.run(&[1.0f64, 2.0, 4.0], |&p, _seed| p * 10.0);
/// assert_eq!(points.len(), 3);
/// assert_eq!(points[1].summary.mean(), 20.0);
/// assert_eq!(points[1].samples.len(), 4);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Sweep {
    master_seed: u64,
    replicates: u32,
    threads: usize,
}

impl Sweep {
    /// Creates a sweep with the given master seed, 8 replicates, and
    /// single-threaded execution.
    #[must_use]
    pub fn new(master_seed: u64) -> Self {
        Self {
            master_seed,
            replicates: 8,
            threads: 1,
        }
    }

    /// Sets the number of replicates per point.
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

    /// Sets the number of worker threads.
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

    /// Runs `measure(param, seed)` for every `(point, replicate)` pair
    /// and summarizes per point.
    ///
    /// The seed for replicate `j` of point `i` is
    /// `derive_seed(master, i · replicates + j)`, so results are
    /// reproducible and independent of the thread count.
    pub fn run<P, F>(&self, params: &[P], measure: F) -> Vec<SweepPoint<P>>
    where
        P: Clone + Sync,
        F: Fn(&P, u64) -> f64 + Sync,
    {
        let reps = self.replicates as u64;
        // Flatten (point, replicate) into one task list for balancing.
        let tasks: Vec<(usize, u64)> = (0..params.len())
            .flat_map(|i| (0..reps).map(move |j| (i, j)))
            .collect();
        let values = parallel_map(&tasks, self.threads, |&(i, j)| {
            let seed = derive_seed(self.master_seed, i as u64 * reps + j);
            measure(&params[i], seed)
        });
        params
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let samples: Vec<f64> = (0..reps as usize)
                    .map(|j| values[i * reps as usize + j])
                    .collect();
                SweepPoint {
                    param: p.clone(),
                    summary: Summary::from_slice(&samples),
                    samples,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_thread_counts() {
        let params = [1u32, 2, 3];
        let measure = |p: &u32, seed: u64| (u64::from(*p) * 1000 + seed % 97) as f64;
        let serial = Sweep::new(5).replicates(6).threads(1).run(&params, measure);
        let parallel = Sweep::new(5).replicates(6).threads(4).run(&params, measure);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.samples, b.samples);
        }
    }

    #[test]
    fn distinct_seeds_across_points_and_replicates() {
        use std::collections::BTreeSet;
        use std::sync::Mutex;
        let seen = Mutex::new(BTreeSet::new());
        let _ = Sweep::new(1).replicates(5).run(&[0u8, 1, 2], |_, seed| {
            assert!(seen.lock().unwrap().insert(seed), "seed {seed} repeated");
            0.0
        });
        assert_eq!(seen.lock().unwrap().len(), 15);
    }

    #[test]
    fn summaries_cover_all_replicates() {
        let pts = Sweep::new(3).replicates(10).run(&[7.0f64], |p, _| *p);
        assert_eq!(pts[0].summary.n(), 10);
        assert_eq!(pts[0].summary.mean(), 7.0);
    }

    #[test]
    #[should_panic(expected = "at least one replicate")]
    fn zero_replicates_panics() {
        let _ = Sweep::new(1).replicates(0);
    }
}
