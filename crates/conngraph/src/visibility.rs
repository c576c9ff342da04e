use sparsegossip_grid::Point;

use crate::{Contact, SpatialHash, UniformContact, UnionFind};

/// The connected components of a visibility graph `G_t(r)`.
///
/// Agents are labelled with dense component ids `0..count`, and the
/// member lists are stored grouped so per-component iteration (the rumor
/// exchange step) is a contiguous slice walk.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::components;
/// use sparsegossip_grid::Point;
///
/// let pts = [Point::new(0, 0), Point::new(2, 0), Point::new(4, 0)];
/// // r = 2: a chain 0—1—2 is a single component.
/// let comps = components(&pts, 2, 16);
/// assert_eq!(comps.count(), 1);
/// assert_eq!(comps.members(0), &[0, 1, 2]);
/// // r = 1: all isolated.
/// assert_eq!(components(&pts, 1, 16).count(), 3);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Components {
    /// Dense component id per agent ([`Components::NO_LABEL`] for
    /// agents a seed-restricted build did not cover).
    pub(crate) labels: Vec<u32>,
    /// Component sizes, indexed by component id.
    pub(crate) sizes: Vec<u32>,
    /// Agent indices grouped by component id.
    pub(crate) members: Vec<u32>,
    /// Start offset of each component in `members`; length `count + 1`.
    pub(crate) offsets: Vec<u32>,
}

impl Default for Components {
    /// An empty partition over zero agents.
    fn default() -> Self {
        Self::EMPTY.clone()
    }
}

impl Components {
    /// The label of agents not covered by a seed-restricted build (see
    /// [`components_from_seeds`](crate::components_from_seeds)): their
    /// component was not labelled because it contains no seed or is a
    /// lone agent.
    pub const NO_LABEL: u32 = u32::MAX;

    /// A shared empty partition over zero agents — the placeholder for
    /// processes that opt out of component building. Being a `const`
    /// reference, handing it out costs no heap allocation.
    pub const EMPTY: &'static Components = &Components {
        labels: Vec::new(),
        sizes: Vec::new(),
        members: Vec::new(),
        offsets: Vec::new(),
    };

    /// Rebuilds `out` in place from `uf`, reusing every buffer
    /// (including the caller-provided `root_label` / `cursor` scratch).
    fn rebuild(
        out: &mut Components,
        uf: &mut UnionFind,
        root_label: &mut Vec<u32>,
        cursor: &mut Vec<u32>,
    ) {
        let k = uf.len();
        out.labels.clear();
        out.labels.resize(k, u32::MAX);
        root_label.clear();
        root_label.resize(k, u32::MAX);
        out.sizes.clear();
        // There are at most k components; a one-time reservation keeps
        // later rebuilds allocation-free even when the component count
        // drifts to new maxima mid-run (frozen Frog-model agents
        // splitting off walkers do exactly that).
        out.sizes.reserve(k);
        for (i, label) in out.labels.iter_mut().enumerate() {
            let r = uf.find(i);
            if root_label[r] == u32::MAX {
                root_label[r] = out.sizes.len() as u32;
                out.sizes.push(0);
            }
            let lab = root_label[r];
            *label = lab;
            out.sizes[lab as usize] += 1;
        }
        out.group_members(cursor, 0..k);
    }

    /// Groups the labelled `agents`, given in increasing order, into
    /// `members` by a counting sort over `sizes` — member lists come out
    /// in increasing agent order — and fills `offsets`. Both offset
    /// arrays reserve room for `k` components, so a component count
    /// that drifts upward mid-run never reallocates.
    pub(crate) fn group_members(
        &mut self,
        cursor: &mut Vec<u32>,
        agents: impl Iterator<Item = usize>,
    ) {
        let k = self.labels.len();
        self.offsets.clear();
        self.offsets.reserve(k + 1);
        self.offsets.push(0);
        let mut end = 0;
        for &size in &self.sizes {
            end += size;
            self.offsets.push(end);
        }
        cursor.clear();
        cursor.reserve(k + 1);
        cursor.extend_from_slice(&self.offsets);
        self.members.clear();
        self.members.resize(end as usize, 0);
        for a in agents {
            let lab = self.labels[a] as usize;
            self.members[cursor[lab] as usize] = a as u32;
            cursor[lab] += 1;
        }
    }

    /// The number of components.
    #[inline]
    #[must_use]
    pub fn count(&self) -> usize {
        self.sizes.len()
    }

    /// The number of agents.
    #[inline]
    #[must_use]
    pub fn num_agents(&self) -> usize {
        self.labels.len()
    }

    /// The component id of agent `i` — [`Components::NO_LABEL`] if a
    /// seed-restricted build left the agent uncovered.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn label_of(&self, i: usize) -> u32 {
        self.labels[i]
    }

    /// Whether agent `i` belongs to a labelled component. Always true
    /// for a full build; false for agents whose component a
    /// seed-restricted build skipped.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn is_covered(&self, i: usize) -> bool {
        self.labels[i] != Self::NO_LABEL
    }

    /// The size of agent `i`'s component.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    #[must_use]
    pub fn size_of_agent(&self, i: usize) -> usize {
        self.sizes[self.labels[i] as usize] as usize
    }

    /// The size of component `c`.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    #[must_use]
    pub fn size(&self, c: usize) -> usize {
        self.sizes[c] as usize
    }

    /// The agents of component `c`, in increasing agent order.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    #[inline]
    #[must_use]
    pub fn members(&self, c: usize) -> &[u32] {
        let start = self.offsets[c] as usize;
        let end = self.offsets[c + 1] as usize;
        &self.members[start..end]
    }

    /// The size of the largest component (0 for an empty agent set).
    #[must_use]
    pub fn max_size(&self) -> usize {
        self.sizes.iter().copied().max().unwrap_or(0) as usize
    }

    /// Iterates over component member-slices, in component-id order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> {
        self.offsets
            .windows(2)
            .map(move |w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// Histogram of component sizes: entry `s` counts components of
    /// size `s` (index 0 is always 0).
    #[must_use]
    pub fn size_histogram(&self) -> Vec<u32> {
        let mut h = vec![0u32; self.max_size() + 1];
        for &s in &self.sizes {
            h[s as usize] += 1;
        }
        h
    }
}

/// Reusable buffers for [`components_into`]: the spatial hash,
/// the union–find forest, the grouped [`Components`] under construction
/// and the counting-sort cursors.
///
/// One scratch per simulation (or per worker thread) turns the per-step
/// component rebuild — the hot path of every dissemination run — into a
/// clear-and-refill with zero steady-state heap allocation.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::{components, components_into, ComponentsScratch};
/// use sparsegossip_grid::Point;
///
/// let mut scratch = ComponentsScratch::new();
/// let pts = [Point::new(0, 0), Point::new(0, 1), Point::new(9, 9)];
/// for r in [0, 1, 2] {
///     let reused = components_into(&mut scratch, &pts, r, 10);
///     assert_eq!(reused, &components(&pts, r, 10));
/// }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ComponentsScratch {
    pub(crate) spatial: SpatialHash,
    uf: UnionFind,
    root_label: Vec<u32>,
    cursor: Vec<u32>,
    comps: Components,
    /// Buffers for the seed-restricted labelling entry point
    /// ([`components_from_seeds_into`](crate::components_from_seeds_into)).
    pub(crate) seeded: crate::SeededScratch,
}

impl ComponentsScratch {
    /// Creates an empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the scratch, yielding the most recently built partition.
    #[must_use]
    pub fn into_components(self) -> Components {
        self.comps
    }
}

/// Unions every pair of agents the contact model accepts, scanning per
/// agent through the hash's candidate pairs
/// ([`SpatialHash::for_each_candidate_pair`]) — O(k) bucket work even
/// when the grid has `n ≫ k` buckets (the `r = 0` contact-only regime),
/// where a full-grid sweep would cost O(n).
///
/// The hash's bucket radius must bound the contact model's reach (see
/// the [`Contact`] contract); the homogeneous path monomorphizes to
/// the plain Manhattan test via [`UniformContact`].
///
/// The scan order differs from a row-major sweep, but the union–find
/// partition — and therefore the canonical [`Components`] labelling
/// (dense ids in first-agent order) — is order-independent.
// hot: census row `steady_state_steps_are_allocation_free`
fn union_visible_by<C: Contact>(
    hash: &SpatialHash,
    positions: &[Point],
    contact: &C,
    uf: &mut UnionFind,
) {
    hash.for_each_candidate_pair(|a, b| {
        let (a, b) = (a as usize, b as usize);
        if contact.in_contact(a, b, positions[a], positions[b]) {
            uf.union(a, b);
        }
    });
}

/// Computes the connected components of `G_t(r)` over `positions` on a
/// grid of the given side, via spatial hashing (O(k) expected in sparse
/// regimes).
///
/// Two agents are adjacent iff their Manhattan distance is ≤ `r`. With
/// `r = 0` agents are adjacent only when co-located, matching the
/// paper's most restricted case.
///
/// Allocates a fresh partition per call; the per-step hot path uses
/// [`components_into`] with a persistent [`ComponentsScratch`] instead.
///
/// # Panics
///
/// Panics if `side == 0` or any position lies outside the grid.
pub fn components(positions: &[Point], r: u32, side: u32) -> Components {
    let mut scratch = ComponentsScratch::new();
    components_into(&mut scratch, positions, r, side);
    scratch.into_components()
}

/// Computes the connected components of `G_t(r)` inside `scratch`,
/// clearing and refilling its buffers (spatial hash, union–find, the
/// grouped partition) instead of allocating, and returns a view of the
/// result.
///
/// Produces a partition identical to [`components`] — same labels, same
/// member order — so a reused scratch is observationally equivalent to
/// a fresh build (the property tests in `tests/proptests.rs` pin this).
/// After warm-up at the working size the rebuild performs zero heap
/// allocations.
///
/// # Panics
///
/// As [`components`].
pub fn components_into<'a>(
    scratch: &'a mut ComponentsScratch,
    positions: &[Point],
    r: u32,
    side: u32,
) -> &'a Components {
    components_into_by(scratch, positions, &UniformContact(r), r, side)
}

/// Computes the connected components of the contact graph inside
/// `scratch`, under an arbitrary [`Contact`] model — the heterogeneous
/// counterpart of [`components_into`].
///
/// `bucket_radius` sizes the spatial-hash buckets and must bound the
/// contact model's reach (the maximum per-agent radius under the
/// `min(r_i, r_j)` rule); `contact` then filters the reach-aware
/// candidate superset pair by pair. With `UniformContact(r)` and
/// `bucket_radius = r` this is exactly [`components_into`].
///
/// # Panics
///
/// As [`components`].
pub fn components_into_by<'a, C: Contact>(
    scratch: &'a mut ComponentsScratch,
    positions: &[Point],
    contact: &C,
    bucket_radius: u32,
    side: u32,
) -> &'a Components {
    let ComponentsScratch {
        spatial,
        uf,
        root_label,
        cursor,
        comps,
        seeded: _,
    } = scratch;
    spatial.rebuild(positions, bucket_radius, side);
    uf.reset_to(positions.len());
    union_visible_by(spatial, positions, contact, uf);
    Components::rebuild(comps, uf, root_label, cursor);
    &*comps
}

/// Computes the connected components over an already-built (or
/// incrementally maintained) `hash` under an arbitrary [`Contact`]
/// model — the full-partition counterpart of
/// [`components_from_seeds_on_by`](crate::components_from_seeds_on_by).
///
/// The `hash` must describe exactly `positions` and its bucket radius
/// must bound the contact model's reach.
///
/// # Panics
///
/// Panics if the hash holds a different number of agents than
/// `positions`.
// hot: census row `replay_steps_are_allocation_free`
pub fn components_on_by<'a, C: Contact>(
    hash: &SpatialHash,
    scratch: &'a mut ComponentsScratch,
    positions: &[Point],
    contact: &C,
) -> &'a Components {
    assert_eq!(
        hash.num_agents(),
        positions.len(),
        "hash agent count mismatch"
    );
    let ComponentsScratch {
        spatial: _,
        uf,
        root_label,
        cursor,
        comps,
        seeded: _,
    } = scratch;
    uf.reset_to(positions.len());
    union_visible_by(hash, positions, contact, uf);
    Components::rebuild(comps, uf, root_label, cursor);
    &*comps
}

/// Reference implementation of [`components`] by O(k²) pairwise checks.
///
/// Used by tests and available for debugging; produces an identical
/// partition (component ids may be assigned in a different order, but
/// this function normalizes identically by first-agent order).
///
/// # Panics
///
/// Panics if any position lies outside the grid.
pub fn components_brute(positions: &[Point], r: u32, side: u32) -> Components {
    components_brute_by(positions, &UniformContact(r), side)
}

/// Reference implementation of the contact-graph partition by O(k²)
/// pairwise checks under an arbitrary [`Contact`] model — the
/// heterogeneous counterpart of [`components_brute`].
///
/// # Panics
///
/// Panics if any position lies outside the grid.
pub fn components_brute_by<C: Contact>(positions: &[Point], contact: &C, side: u32) -> Components {
    for p in positions {
        assert!(
            p.x < side && p.y < side,
            "position {p} outside side-{side} grid"
        );
    }
    let mut uf = UnionFind::new(positions.len());
    for i in 0..positions.len() {
        for j in i + 1..positions.len() {
            if contact.in_contact(i, j, positions[i], positions[j]) {
                uf.union(i, j);
            }
        }
    }
    let mut out = Components::default();
    Components::rebuild(&mut out, &mut uf, &mut Vec::new(), &mut Vec::new());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_agent_set_has_no_components() {
        let c = components(&[], 1, 8);
        assert_eq!(c.count(), 0);
        assert_eq!(c.num_agents(), 0);
        assert_eq!(c.max_size(), 0);
    }

    #[test]
    fn chain_connectivity_depends_on_radius() {
        let pts = [Point::new(0, 0), Point::new(3, 0), Point::new(6, 0)];
        assert_eq!(components(&pts, 3, 16).count(), 1);
        assert_eq!(components(&pts, 2, 16).count(), 3);
    }

    #[test]
    fn colocated_agents_connect_at_radius_zero() {
        let pts = [Point::new(5, 5), Point::new(5, 5), Point::new(5, 6)];
        let c = components(&pts, 0, 8);
        assert_eq!(c.count(), 2);
        assert_eq!(c.size_of_agent(0), 2);
        assert_eq!(c.label_of(0), c.label_of(1));
        assert_ne!(c.label_of(0), c.label_of(2));
    }

    #[test]
    fn labels_are_dense_and_consistent_with_members() {
        let pts: Vec<Point> = (0..20).map(|i| Point::new(i % 7, i / 7)).collect();
        let c = components(&pts, 1, 8);
        let mut total = 0;
        for comp in 0..c.count() {
            for &m in c.members(comp) {
                assert_eq!(c.label_of(m as usize) as usize, comp);
            }
            assert_eq!(c.members(comp).len(), c.size(comp));
            total += c.size(comp);
        }
        assert_eq!(total, 20);
    }

    #[test]
    fn histogram_counts_components() {
        let pts = [Point::new(0, 0), Point::new(0, 1), Point::new(9, 9)];
        let c = components(&pts, 1, 16);
        let h = c.size_histogram();
        assert_eq!(h[1], 1);
        assert_eq!(h[2], 1);
        assert_eq!(c.iter().count(), 2);
    }

    #[test]
    fn matches_brute_force_on_fixed_layouts() {
        let pts: Vec<Point> = (0..50)
            .map(|i| Point::new((i * 13) % 20, (i * 7) % 20))
            .collect();
        for r in [0u32, 1, 2, 3, 5, 10, 40] {
            let fast = components(&pts, r, 20);
            let brute = components_brute(&pts, r, 20);
            assert_eq!(fast, brute, "partition mismatch at r={r}");
        }
    }

    #[test]
    fn reused_scratch_is_identical_to_fresh_build() {
        let mut scratch = ComponentsScratch::new();
        // Shrinking and growing agent counts between calls exercises the
        // buffer-resizing paths; equality is content-exact (labels,
        // sizes, members, offsets).
        let layouts: [Vec<Point>; 4] = [
            (0..50)
                .map(|i| Point::new((i * 13) % 20, (i * 7) % 20))
                .collect(),
            vec![Point::new(3, 3)],
            (0..200)
                .map(|i| Point::new(i % 20, (i / 20) % 20))
                .collect(),
            Vec::new(),
        ];
        for pts in &layouts {
            for r in [0u32, 1, 3, 10] {
                let fresh = components(pts, r, 20);
                let reused = components_into(&mut scratch, pts, r, 20);
                assert_eq!(reused, &fresh, "k={} r={r}", pts.len());
            }
        }
    }

    #[test]
    fn diagonal_pairs_respect_manhattan_not_chebyshev() {
        // (0,0) and (1,1): Manhattan 2, Chebyshev 1. They must NOT be
        // adjacent at r=1 even though they share a 3×3 bucket patch.
        let pts = [Point::new(0, 0), Point::new(1, 1)];
        assert_eq!(components(&pts, 1, 8).count(), 2);
        assert_eq!(components(&pts, 2, 8).count(), 1);
    }
}
