use sparsegossip_grid::Point;

/// A bucket grid for radius-limited proximity queries among agents.
///
/// Buckets have side `max(r, 1)`, so any two points at Manhattan
/// distance ≤ `r` fall in the same or in 8-adjacent buckets, and the
/// component builder only needs to examine a constant number of buckets
/// per agent — only its own bucket at `r = 0`, where contacts are
/// co-located, and the 3×3 block around it otherwise.
///
/// Each bucket holds a linked list of its agents in increasing agent
/// order: a list head per bucket, a next link per agent and each
/// agent's bucket index — 4·(#buckets + 2k) bytes in all. The first
/// [`rebuild`](SpatialHash::rebuild) at a geometry fills every head,
/// O(#buckets + k); later rebuilds at the same geometry clear only the
/// heads the previous agents used, O(k), and
/// [`apply_moves`](SpatialHash::apply_moves) costs only the bucket
/// crossings. Neither allocates once the buffers are warm.
///
/// The simulator rebuilds its hash from the positions every step, on
/// every labelling path. `apply_moves` (fed by the move log of
/// `WalkEngine::step_all_into`) is kept for the benchmark replay and
/// the `components` micro-benchmark only.
///
/// # Examples
///
/// ```
/// use sparsegossip_grid::Point;
/// use sparsegossip_conngraph::SpatialHash;
///
/// let pts = [Point::new(0, 0), Point::new(3, 3), Point::new(0, 1)];
/// let hash = SpatialHash::build(&pts, 2, 8);
/// // Buckets have side 2, so bucket (0,0) covers x,y ∈ {0,1} and holds
/// // agents 0 and 2; (3,3) falls in bucket (1,1).
/// assert!(hash.bucket_agents_iter(0, 0).eq([0, 2]));
/// assert!(hash.bucket_agents_iter(1, 1).eq([1]));
/// ```
#[derive(Clone, Debug)]
pub struct SpatialHash {
    /// Bucket side length (`max(r, 1)`).
    bucket_side: u32,
    /// `u64::MAX / bucket_side`, for division-free indexing ([`div_by`]).
    recip: u64,
    /// Build radius 0: contacts are co-located, in one bucket.
    own_bucket_only: bool,
    /// Number of buckets along each axis.
    buckets_per_side: u32,
    /// The grid side the hash was built for.
    side: u32,
    /// First agent of each bucket (`NO_AGENT` when empty); length
    /// `buckets²`.
    head: Vec<u32>,
    /// Next agent in the same bucket, in increasing agent order
    /// (`NO_AGENT` at the end); length `k`.
    next: Vec<u32>,
    /// Bucket index (`by * buckets_per_side + bx`) of each agent; length
    /// `k`. Lists the only heads a same-geometry rebuild must clear.
    bucket: Vec<u32>,
}

/// List terminator / empty-bucket marker.
const NO_AGENT: u32 = u32::MAX;

impl Default for SpatialHash {
    /// An empty hash over zero agents (side-1 buckets, zero buckets per
    /// axis): the starting state of a hash that is then
    /// [`rebuild`](SpatialHash::rebuild)-ed in place every step.
    fn default() -> Self {
        Self {
            bucket_side: 1,
            recip: u64::MAX,
            own_bucket_only: false,
            buckets_per_side: 0,
            side: 0,
            head: Vec::new(),
            next: Vec::new(),
            bucket: Vec::new(),
        }
    }
}

impl SpatialHash {
    /// Builds the hash for `positions` on a grid of the given side, with
    /// proximity radius `r`.
    ///
    /// # Panics
    ///
    /// Panics if `side == 0`, if any position lies outside the grid, or
    /// if there are more than `u32::MAX` agents.
    #[must_use]
    pub fn build(positions: &[Point], r: u32, side: u32) -> Self {
        let mut hash = Self::default();
        hash.rebuild(positions, r, side);
        hash
    }

    /// Rebuilds `self` in place for `positions`, reusing every buffer.
    /// Content-identical to [`SpatialHash::build`]. When the bucket
    /// geometry is unchanged this costs O(k): only the heads the
    /// previous agents occupied are cleared. A new geometry refills
    /// every head once, O(#buckets). After warm-up at the working size
    /// it performs no heap allocation.
    ///
    /// # Panics
    ///
    /// As [`SpatialHash::build`].
    // detlint: hot
    pub fn rebuild(&mut self, positions: &[Point], r: u32, side: u32) {
        assert!(side > 0, "grid side must be positive");
        assert!(positions.len() <= u32::MAX as usize, "too many agents");
        let bucket_side = r.max(1).min(side);
        let buckets_per_side = side.div_ceil(bucket_side);
        let num_buckets = (buckets_per_side as usize).pow(2);
        // Bucket indices are stored as u32; checked before any
        // allocation. The hash takes 4·(#buckets + 2k) bytes, so at
        // r = 0 the grid dominates: side 65 535 needs about 17 GB.
        assert!(num_buckets <= u32::MAX as usize, "too many buckets");

        if (bucket_side, buckets_per_side) == (self.bucket_side, self.buckets_per_side) {
            // Only the heads of the previous agents' buckets can be set.
            for &b in &self.bucket {
                self.head[b as usize] = NO_AGENT;
            }
        } else {
            self.bucket_side = bucket_side;
            self.recip = u64::MAX / u64::from(bucket_side);
            self.buckets_per_side = buckets_per_side;
            self.head.clear();
            self.head.resize(num_buckets, NO_AGENT);
        }
        self.own_bucket_only = r == 0;
        self.side = side;
        self.bucket.clear();
        for &p in positions {
            assert!(
                p.x < side && p.y < side,
                "position {p} outside side-{side} grid"
            );
            self.bucket.push(self.self_bucket(p) as u32);
        }
        self.next.clear();
        self.next.resize(positions.len(), NO_AGENT);
        // Prepending in decreasing agent order leaves every list
        // increasing.
        for a in (0..positions.len()).rev() {
            let b = self.bucket[a] as usize;
            self.next[a] = self.head[b];
            self.head[b] = a as u32;
        }
    }

    /// Relocates the agents listed in `moves` — `(agent, from, to)`
    /// triples as reported by the move-tracking walk steps — touching
    /// only the buckets that actually changed. A move within one bucket
    /// costs O(1); a bucket crossing costs O(bucket size) to keep each
    /// per-bucket list in increasing agent order, so the maintained
    /// hash iterates identically
    /// ([`bucket_agents_iter`](SpatialHash::bucket_agents_iter)) to a
    /// fresh [`build`](SpatialHash::build) of the new positions.
    ///
    /// At bucket side `r` an agent crosses a bucket boundary on roughly
    /// `1/r` of its steps, and under masked mobility most agents do not
    /// move at all — this is what makes per-step hash maintenance
    /// proportional to the *moved* set instead of `k`. It never
    /// allocates (every array has fixed size). Benchmark-replay API:
    /// the simulator itself rebuilds its hash every step.
    ///
    /// # Panics
    ///
    /// Panics if a bucket-crossing `from` position is not in the bucket
    /// where the hash last saw that agent, or if a `to` position lies
    /// outside the grid — either means the move log does not match the
    /// maintained state.
    // detlint: hot
    pub fn apply_moves(&mut self, moves: &[(u32, Point, Point)]) {
        for &(agent, from, to) in moves {
            assert!(
                to.x < self.side && to.y < self.side,
                "moved position {to} outside side-{} grid",
                self.side
            );
            let fb = self.self_bucket(from);
            let tb = self.self_bucket(to);
            if fb == tb {
                continue;
            }
            assert!(
                self.bucket[agent as usize] as usize == fb,
                "agent {agent} not present in bucket {fb}"
            );
            self.bucket[agent as usize] = tb as u32;
            // Unlink from the old bucket.
            let mut cur = self.head[fb];
            if cur == agent {
                self.head[fb] = self.next[agent as usize];
            } else {
                loop {
                    let after = self.next[cur as usize];
                    if after == agent {
                        self.next[cur as usize] = self.next[agent as usize];
                        break;
                    }
                    cur = after;
                }
            }
            // Link into the new bucket, keeping increasing agent order.
            let mut cur = self.head[tb];
            if cur == NO_AGENT || cur > agent {
                self.next[agent as usize] = cur;
                self.head[tb] = agent;
            } else {
                loop {
                    let after = self.next[cur as usize];
                    if after == NO_AGENT || after > agent {
                        self.next[cur as usize] = agent;
                        self.next[agent as usize] = after;
                        break;
                    }
                    cur = after;
                }
            }
        }
    }

    /// The bucket side length used.
    #[inline]
    #[must_use]
    pub fn bucket_side(&self) -> u32 {
        self.bucket_side
    }

    /// The number of buckets along each axis.
    #[inline]
    #[must_use]
    pub fn buckets_per_side(&self) -> u32 {
        self.buckets_per_side
    }

    /// The number of agents stored.
    #[inline]
    #[must_use]
    pub fn num_agents(&self) -> usize {
        self.next.len()
    }

    /// The bucket coordinates of a point.
    #[inline]
    #[must_use]
    pub fn bucket_of(&self, p: Point) -> (u32, u32) {
        (div_by(p.x, self.recip), div_by(p.y, self.recip))
    }

    /// The flat index (`by * buckets_per_side + bx`) of `p`'s bucket.
    #[inline]
    fn self_bucket(&self, p: Point) -> usize {
        let (bx, by) = self.bucket_of(p);
        (by * self.buckets_per_side + bx) as usize
    }

    /// Iterates over the agents of bucket `(bx, by)` in increasing
    /// order.
    ///
    /// # Panics
    ///
    /// Panics if the bucket coordinates are out of range.
    pub fn bucket_agents_iter(&self, bx: u32, by: u32) -> BucketAgents<'_> {
        assert!(bx < self.buckets_per_side && by < self.buckets_per_side);
        self.list_from(self.head[(by * self.buckets_per_side + bx) as usize])
    }

    /// The list walk starting at agent `cur`.
    #[inline]
    fn list_from(&self, cur: u32) -> BucketAgents<'_> {
        BucketAgents {
            next: &self.next,
            cur,
        }
    }

    /// Calls `f` with every agent of the buckets that can hold a contact
    /// of `p` — a superset of every agent within the build radius of `p`
    /// (callers still apply the exact test): `p`'s own bucket at radius
    /// 0, else the 3×3 block around it, read as three row slices of the
    /// bucket heads. Does nothing on a hash with no buckets.
    ///
    /// # Panics
    ///
    /// Panics if `p` lies outside the grid the hash was built for.
    // detlint: hot
    pub fn for_each_candidate(&self, p: Point, mut f: impl FnMut(u32)) {
        let bps = self.buckets_per_side as usize;
        if bps == 0 {
            return;
        }
        assert!(
            p.x < self.side && p.y < self.side,
            "position {p} outside side-{} grid",
            self.side
        );
        let (bx, by) = self.bucket_of(p);
        let (bx, by) = (bx as usize, by as usize);
        let mut walk = |head: u32| self.list_from(head).for_each(&mut f);
        if self.own_bucket_only {
            walk(self.head[by * bps + bx]);
            return;
        }
        let (x0, x1) = (bx.saturating_sub(1), (bx + 1).min(bps - 1));
        for y in by.saturating_sub(1)..=(by + 1).min(bps - 1) {
            for &head in &self.head[y * bps + x0..=y * bps + x1] {
                walk(head);
            }
        }
    }

    /// Calls `f(a, b)` once for every unordered pair of distinct agents
    /// that [`for_each_candidate`](SpatialHash::for_each_candidate) pairs
    /// up — a superset of every pair within the build radius.
    ///
    /// The scan runs per agent: each agent `a` pairs with the agents
    /// after it in its own bucket, then (at a nonzero build radius) with
    /// every agent of the E, N, NE and NW buckets, so each adjacent
    /// bucket pair is seen from one side only. The cost is O(k + #pairs)
    /// however many buckets the grid has — decisive at `r = 0`, where
    /// there are `n ≫ k`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sparsegossip_grid::Point;
    /// use sparsegossip_conngraph::SpatialHash;
    ///
    /// let pts = [Point::new(0, 0), Point::new(1, 1), Point::new(6, 6)];
    /// let hash = SpatialHash::build(&pts, 1, 8);
    /// let mut pairs = Vec::new();
    /// hash.for_each_candidate_pair(|a, b| pairs.push((a, b)));
    /// // Agents 0 and 1 sit in diagonal buckets, so they are a candidate
    /// // pair although their distance 2 exceeds the radius: the exact
    /// // test is the caller's. Agent 2 has no candidates.
    /// assert_eq!(pairs, [(0, 1)]);
    /// ```
    // detlint: hot
    pub fn for_each_candidate_pair(&self, mut f: impl FnMut(u32, u32)) {
        let bps = self.buckets_per_side;
        for (a, &b) in self.bucket.iter().enumerate() {
            let a = a as u32;
            for c in self.list_from(self.next[a as usize]) {
                f(a, c);
            }
            if self.own_bucket_only {
                continue;
            }
            let (east, west, north) = (b % bps + 1 < bps, b % bps > 0, b / bps + 1 < bps);
            let mut scan = |nb: u32| {
                for c in self.list_from(self.head[nb as usize]) {
                    f(a, c);
                }
            };
            if east {
                scan(b + 1);
            }
            if north {
                scan(b + bps);
                if east {
                    scan(b + bps + 1);
                }
                if west {
                    scan(b + bps - 1);
                }
            }
        }
    }
}

/// Iterator over one bucket's agents, produced by
/// [`SpatialHash::bucket_agents_iter`]: a walk along the bucket's linked
/// list, yielding increasing agent indices.
#[derive(Clone, Debug)]
pub struct BucketAgents<'a> {
    /// The shared next-agent array.
    next: &'a [u32],
    /// The agent to yield next (`NO_AGENT` when exhausted).
    cur: u32,
}

impl Iterator for BucketAgents<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.cur == NO_AGENT {
            None
        } else {
            let agent = self.cur;
            self.cur = self.next[agent as usize];
            Some(agent)
        }
    }
}

/// `x / d` for `recip = u64::MAX / d`: the high word of `x · ⌈2⁶⁴/d⌉`,
/// exact for every `u32` (Lemire et al., *Faster remainder by direct
/// computation*, 2019). Adding `x` rather than storing `recip + 1` keeps
/// `d = 1` (reciprocal 2⁶⁴) the identity.
#[inline]
fn div_by(x: u32, recip: u64) -> u32 {
    let x = u128::from(x);
    ((u128::from(recip) * x + x) >> 64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bucket-for-bucket equality: dimensions and every bucket's agent
    /// sequence.
    fn assert_hash_equal(a: &SpatialHash, b: &SpatialHash) {
        assert_eq!(a.bucket_side(), b.bucket_side());
        assert_eq!(a.buckets_per_side(), b.buckets_per_side());
        assert_eq!(a.num_agents(), b.num_agents());
        for by in 0..a.buckets_per_side() {
            for bx in 0..a.buckets_per_side() {
                let left: Vec<u32> = a.bucket_agents_iter(bx, by).collect();
                let right: Vec<u32> = b.bucket_agents_iter(bx, by).collect();
                assert_eq!(left, right, "({bx},{by})");
            }
        }
    }

    #[test]
    fn groups_agents_by_bucket() {
        let pts = [
            Point::new(0, 0),
            Point::new(1, 1),
            Point::new(5, 5),
            Point::new(0, 1),
        ];
        let h = SpatialHash::build(&pts, 2, 8);
        assert_eq!(h.bucket_side(), 2);
        assert_eq!(h.buckets_per_side(), 4);
        assert_eq!(h.num_agents(), 4);
        assert!(h.bucket_agents_iter(0, 0).eq([0, 1, 3]));
        assert!(h.bucket_agents_iter(2, 2).eq([2]));
        assert_eq!(h.bucket_agents_iter(1, 0).count(), 0);
    }

    #[test]
    fn radius_zero_buckets_are_single_nodes() {
        let pts = [Point::new(3, 3), Point::new(3, 3), Point::new(3, 4)];
        let h = SpatialHash::build(&pts, 0, 8);
        assert_eq!(h.bucket_side(), 1);
        assert!(h.bucket_agents_iter(3, 3).eq([0, 1]));
        assert!(h.bucket_agents_iter(3, 4).eq([2]));
    }

    #[test]
    fn bucket_side_is_clamped_to_grid() {
        let pts = [Point::new(0, 0)];
        let h = SpatialHash::build(&pts, 100, 8);
        assert_eq!(h.bucket_side(), 8);
        assert_eq!(h.buckets_per_side(), 1);
        assert!(h.bucket_agents_iter(0, 0).eq([0]));
    }

    #[test]
    fn every_agent_is_stored_exactly_once() {
        let pts: Vec<Point> = (0..100).map(|i| Point::new(i % 10, (i * 7) % 10)).collect();
        let h = SpatialHash::build(&pts, 3, 10);
        let mut seen = [false; 100];
        for by in 0..h.buckets_per_side() {
            for bx in 0..h.buckets_per_side() {
                for a in h.bucket_agents_iter(bx, by) {
                    assert!(!seen[a as usize], "agent {a} stored twice");
                    seen[a as usize] = true;
                    let (px, py) = h.bucket_of(pts[a as usize]);
                    assert_eq!((px, py), (bx, by));
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_out_of_grid_positions() {
        let _ = SpatialHash::build(&[Point::new(8, 0)], 1, 8);
    }

    #[test]
    #[should_panic(expected = "too many buckets")]
    fn rejects_grids_with_more_buckets_than_u32() {
        // 70 000² buckets > u32::MAX; must panic before allocating.
        let _ = SpatialHash::build(&[], 0, 70_000);
    }

    #[test]
    fn rebuild_reuse_matches_fresh_build() {
        let mut reused = SpatialHash::default();
        // Alternate sizes and radii so stale buffer contents would show.
        let layouts: [(&[Point], u32, u32); 3] = [
            (
                &[Point::new(0, 0), Point::new(5, 5), Point::new(0, 1)],
                2,
                8,
            ),
            (&[Point::new(9, 9)], 0, 10),
            (
                &[
                    Point::new(1, 1),
                    Point::new(2, 2),
                    Point::new(3, 3),
                    Point::new(15, 0),
                ],
                4,
                16,
            ),
        ];
        for &(pts, r, side) in &layouts {
            reused.rebuild(pts, r, side);
            let fresh = SpatialHash::build(pts, r, side);
            assert_hash_equal(&reused, &fresh);
        }
    }

    #[test]
    fn apply_moves_relocates_across_buckets() {
        let mut pts = vec![
            Point::new(0, 0),
            Point::new(0, 1),
            Point::new(5, 5),
            Point::new(2, 2),
        ];
        let mut h = SpatialHash::build(&pts, 2, 8);
        // Agent 1 leaves bucket (0,0) for bucket (1,1); agent 2 moves
        // within its bucket; agent 3 vacates bucket (1,1)'s neighbor.
        let moves = [
            (1u32, Point::new(0, 1), Point::new(3, 3)),
            (2u32, Point::new(5, 5), Point::new(5, 4)),
            (3u32, Point::new(2, 2), Point::new(0, 1)),
        ];
        for &(a, _, to) in &moves {
            pts[a as usize] = to;
        }
        h.apply_moves(&moves);
        assert_hash_equal(&h, &SpatialHash::build(&pts, 2, 8));
        // The relocations kept per-bucket order increasing.
        let b00: Vec<u32> = h.bucket_agents_iter(0, 0).collect();
        assert_eq!(b00, vec![0, 3]);
        let b11: Vec<u32> = h.bucket_agents_iter(1, 1).collect();
        assert_eq!(b11, vec![1]);
    }

    #[test]
    fn apply_moves_handles_emptied_and_reoccupied_buckets() {
        let mut pts = vec![Point::new(0, 0), Point::new(7, 7)];
        let mut h = SpatialHash::build(&pts, 0, 8);
        // Empty (0,0), re-occupy it from the other side, then bounce
        // back — exercising unlink/relink of heads at r = 0.
        let trips = [
            [(0u32, Point::new(0, 0), Point::new(1, 0))],
            [(1u32, Point::new(7, 7), Point::new(0, 0))],
            [(1u32, Point::new(0, 0), Point::new(7, 7))],
            [(0u32, Point::new(1, 0), Point::new(0, 0))],
        ];
        for step in &trips {
            for &(a, _, to) in step {
                pts[a as usize] = to;
            }
            h.apply_moves(step);
            assert_hash_equal(&h, &SpatialHash::build(&pts, 0, 8));
        }
    }

    #[test]
    fn rebuild_after_maintenance_matches_fresh_build() {
        let mut pts = vec![Point::new(0, 0), Point::new(4, 4)];
        let mut h = SpatialHash::build(&pts, 1, 8);
        h.apply_moves(&[(0, Point::new(0, 0), Point::new(0, 1))]);
        pts[0] = Point::new(0, 1);
        h.rebuild(&pts, 1, 8);
        assert_hash_equal(&h, &SpatialHash::build(&pts, 1, 8));
        assert!(h.bucket_agents_iter(0, 1).eq([0]));
    }

    #[test]
    fn candidate_pairs_cover_each_adjacent_pair_once() {
        // At r = 0 only same-bucket pairs qualify; otherwise 8-adjacent
        // buckets too.
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i * 7) % 12, (i * 5) % 12))
            .collect();
        for r in [0u32, 1, 2] {
            let h = SpatialHash::build(&pts, r, 12);
            let reach = u32::from(r > 0);
            let mut seen = Vec::new();
            h.for_each_candidate_pair(|a, b| seen.push((a.min(b), a.max(b))));
            let mut expected = Vec::new();
            for a in 0..pts.len() {
                for b in a + 1..pts.len() {
                    let (ax, ay) = h.bucket_of(pts[a]);
                    let (bx, by) = h.bucket_of(pts[b]);
                    if ax.abs_diff(bx) <= reach && ay.abs_diff(by) <= reach {
                        expected.push((a as u32, b as u32));
                    }
                }
            }
            seen.sort_unstable();
            assert_eq!(seen, expected, "r={r}");
        }
    }

    #[test]
    fn div_by_matches_division_at_the_extremes() {
        for d in [1u32, 2, 3, 7, 64, 65_535, 65_536, u32::MAX - 1, u32::MAX] {
            let recip = u64::MAX / u64::from(d);
            for x in [0, 1, d - 1, d, 65_534, u32::MAX - 1, u32::MAX] {
                assert_eq!(div_by(x, recip), x / d, "{x} / {d}");
            }
        }
    }

    #[test]
    fn candidate_scan_is_reach_aware_and_clips_at_the_grid_edge() {
        let scan = |h: &SpatialHash, p: Point| {
            let mut seen = Vec::new();
            h.for_each_candidate(p, |a| seen.push(a));
            seen
        };
        // r = 0: only the own bucket; r = 1: the 3×3 block, row by row.
        let pts = [Point::new(2, 2), Point::new(2, 2), Point::new(2, 3)];
        assert_eq!(scan(&SpatialHash::build(&pts, 0, 8), pts[0]), [0, 1]);
        assert_eq!(scan(&SpatialHash::build(&pts, 1, 8), pts[0]), [0, 1, 2]);
        let pts = [Point::new(0, 0), Point::new(7, 7), Point::new(1, 1)];
        let h = SpatialHash::build(&pts, 1, 8);
        assert_eq!(scan(&h, Point::new(0, 0)), [0, 2]);
        assert_eq!(scan(&h, Point::new(7, 6)), [1]);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn candidate_scan_rejects_out_of_grid_positions() {
        SpatialHash::build(&[], 0, 8).for_each_candidate(Point::new(9, 0), |_| {});
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn apply_moves_rejects_stale_from_position() {
        let mut h = SpatialHash::build(&[Point::new(0, 0)], 1, 8);
        h.apply_moves(&[(0, Point::new(5, 5), Point::new(6, 6))]);
    }
}
