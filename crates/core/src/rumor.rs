use sparsegossip_conngraph::Components;

/// Per-agent rumor sets for multi-rumor (gossip) runs.
///
/// Agent `a`'s set `M_a(t)` holds the rumor ids `0..num_rumors` that
/// `a` knows. The exchange rule of the paper (§2) is
/// `M_a(t) = ⋃_{a' ∈ C} M_{a'}(t − 1)` over `a`'s component `C`;
/// [`RumorSets::exchange`] applies it for all components at once.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::components;
/// use sparsegossip_grid::Point;
/// use sparsegossip_core::RumorSets;
///
/// // Three agents, each with its own rumor; agents 0 and 1 meet.
/// let mut sets = RumorSets::distinct(3);
/// let positions = [Point::new(4, 4), Point::new(4, 4), Point::new(0, 0)];
/// let comps = components(&positions, 0, 8);
/// sets.exchange(&comps);
/// assert_eq!(sets.count(0), 2);
/// assert_eq!(sets.count(2), 1);
/// assert!(!sets.all_complete());
/// ```
#[derive(Clone, Debug)]
pub struct RumorSets {
    /// One row of `words` bit words per agent, rows back to back: bit
    /// `m` of row `a` is set iff agent `a` knows rumor `m`. Bits at and
    /// above `num_rumors` stay clear.
    rows: Vec<u64>,
    /// Words per row, `⌈num_rumors / 64⌉`.
    words: usize,
    k: usize,
    num_rumors: usize,
    /// The number of agents that know every rumor, kept current by
    /// [`RumorSets::exchange`] so the completion test is O(1).
    complete: usize,
    /// Reused union accumulator (one row) for [`RumorSets::exchange`],
    /// so the per-step exchange never allocates.
    union_scratch: Vec<u64>,
}

impl RumorSets {
    /// `k` agents over `num_rumors` rumors, agent `i < holders` starting
    /// with rumor `i` and every other agent with none.
    fn with_holders(k: usize, num_rumors: usize, holders: usize) -> Self {
        let words = num_rumors.div_ceil(64);
        let mut rows = vec![0u64; k * words];
        for i in 0..holders {
            rows[i * words + i / 64] |= 1 << (i % 64);
        }
        let mut sets = Self {
            rows,
            words,
            k,
            num_rumors,
            complete: 0,
            union_scratch: vec![0; words],
        };
        sets.complete = (0..k).filter(|&a| sets.count(a) == num_rumors).count();
        sets
    }

    /// One distinct rumor per agent: agent `i` starts knowing rumor `i`
    /// (the gossip initial condition of Corollary 2).
    #[must_use]
    pub fn distinct(k: usize) -> Self {
        Self::with_holders(k, k, k)
    }

    /// `num_rumors` rumors held by the first `num_rumors` agents
    /// (agent `i < num_rumors` starts with rumor `i`; the paper allows
    /// any number of rumors up to `k`).
    ///
    /// # Panics
    ///
    /// Panics if `num_rumors > k` or `num_rumors == 0`.
    #[must_use]
    pub fn with_rumors(k: usize, num_rumors: usize) -> Self {
        assert!(num_rumors > 0 && num_rumors <= k, "need 1..=k rumors");
        Self::with_holders(k, num_rumors, num_rumors)
    }

    /// Agent `a`'s row of bit words.
    #[inline]
    fn row(&self, a: usize) -> &[u64] {
        &self.rows[a * self.words..(a + 1) * self.words]
    }

    /// The number of agents.
    #[inline]
    #[must_use]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The number of rumors in the system.
    #[inline]
    #[must_use]
    pub fn num_rumors(&self) -> usize {
        self.num_rumors
    }

    /// The number of rumors agent `a` knows.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range.
    #[inline]
    #[must_use]
    pub fn count(&self, a: usize) -> usize {
        popcount(self.row(a))
    }

    /// Whether agent `a` knows rumor `m`.
    ///
    /// # Panics
    ///
    /// Panics if `a` is out of range, and in debug builds if `m` is.
    #[inline]
    #[must_use]
    pub fn knows(&self, a: usize, m: usize) -> bool {
        debug_assert!(
            m < self.num_rumors,
            "rumor {m} out of range {}",
            self.num_rumors
        );
        (self.row(a)[m / 64] >> (m % 64)) & 1 == 1
    }

    /// Whether every agent knows every rumor (the gossip completion
    /// condition). O(1): the count of complete agents is maintained by
    /// [`RumorSets::exchange`].
    #[inline]
    #[must_use]
    pub fn all_complete(&self) -> bool {
        self.complete == self.k()
    }

    /// The minimum rumor count over agents (progress metric).
    #[must_use]
    pub fn min_count(&self) -> usize {
        (0..self.k()).map(|a| self.count(a)).min().unwrap_or(0)
    }

    /// Applies one synchronous exchange: within each component, every
    /// agent's set becomes the union of the members' sets.
    ///
    /// Only components of two or more agents do any work, so a
    /// partition that labels just those (the contact-only build) gives
    /// the same result as the full one. Allocation-free: the union
    /// accumulator is a persistent scratch and member rows are
    /// overwritten in place.
    // hot: census row `steady_state_steps_are_allocation_free`
    pub fn exchange(&mut self, comps: &Components) {
        let words = self.words;
        let union = &mut self.union_scratch;
        for members in comps.iter() {
            if members.len() == 1 {
                continue;
            }
            union.fill(0);
            for &m in members {
                let start = m as usize * words;
                for (u, w) in union.iter_mut().zip(&self.rows[start..start + words]) {
                    *u |= w;
                }
            }
            // A member can only become complete through a complete
            // union, so the count is touched only then.
            let union_complete = popcount(union) == self.num_rumors;
            for &m in members {
                let row = &mut self.rows[m as usize * words..(m as usize + 1) * words];
                if union_complete && popcount(row) != self.num_rumors {
                    self.complete += 1;
                }
                row.copy_from_slice(union);
            }
        }
    }
}

/// The number of set bits in a row.
#[inline]
fn popcount(row: &[u64]) -> usize {
    row.iter().map(|w| w.count_ones() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparsegossip_conngraph::components;
    use sparsegossip_grid::Point;

    #[test]
    fn distinct_initial_condition() {
        let s = RumorSets::distinct(4);
        assert_eq!(s.k(), 4);
        assert_eq!(s.num_rumors(), 4);
        for i in 0..4 {
            assert_eq!(s.count(i), 1);
            assert!(s.knows(i, i));
        }
        assert!(!s.all_complete());
        assert_eq!(s.min_count(), 1);
    }

    #[test]
    fn exchange_unions_components() {
        let mut s = RumorSets::distinct(3);
        // All three at one node.
        let positions = [Point::new(1, 1); 3];
        let comps = components(&positions, 0, 4);
        s.exchange(&comps);
        assert!(s.all_complete());
        assert_eq!(s.min_count(), 3);
    }

    #[test]
    fn exchange_is_idempotent_on_fixed_components() {
        let mut s = RumorSets::distinct(3);
        let positions = [Point::new(0, 0), Point::new(0, 0), Point::new(3, 3)];
        let comps = components(&positions, 0, 4);
        s.exchange(&comps);
        let counts: Vec<usize> = (0..3).map(|i| s.count(i)).collect();
        s.exchange(&comps);
        assert_eq!(counts, (0..3).map(|i| s.count(i)).collect::<Vec<_>>());
    }

    #[test]
    fn partial_rumor_population() {
        let s = RumorSets::with_rumors(5, 2);
        assert_eq!(s.num_rumors(), 2);
        assert_eq!(s.count(0), 1);
        assert_eq!(s.count(4), 0);
        assert_eq!(s.min_count(), 0);
    }

    #[test]
    fn maintained_completion_matches_a_scan() {
        // 70 rumors span two words per row; agents meet in growing
        // groups until all know everything.
        let k = 70;
        let mut s = RumorSets::distinct(k);
        let scan = |s: &RumorSets| (0..s.k()).all(|a| s.count(a) == s.num_rumors());
        // The last width repeats: an exchange among agents that are
        // already complete must not count them again.
        for width in [1u32, 2, 4, 8, 16, 32, 64, 70, 70] {
            let positions: Vec<Point> = (0..k as u32).map(|i| Point::new(i / width, 0)).collect();
            s.exchange(&components(&positions, 0, 70));
            assert_eq!(s.all_complete(), scan(&s), "width {width}");
        }
        assert!(s.all_complete());
        assert!((0..k).all(|a| s.knows(a, 69)));
    }

    #[test]
    #[should_panic(expected = "need 1..=k rumors")]
    fn rejects_too_many_rumors() {
        let _ = RumorSets::with_rumors(2, 3);
    }
}
