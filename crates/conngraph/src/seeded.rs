//! Seed-restricted component labelling: flood-fill `G_t(r)` starting
//! only from a given seed set, labelling exactly the components of two
//! or more agents that contain a seed.
//!
//! This is the frontier-sparse half of the connectivity engine. A
//! broadcast-style process only ever changes components that hold both
//! an informed and an uninformed agent, so either side of that split is
//! a complete seed set. Seeding from the smaller side (the informed
//! agents early in a run, the uninformed ones once most agents know the
//! rumor) costs work proportional to that side's neighborhood instead
//! of a full O(k) partition. Which set to pass is the caller's choice;
//! this module labels from any seed set. A lone seed is left out: no
//! exchange can change it, and below the percolation point almost every
//! seed is alone, so one candidate scan per seed is all it costs.
//!
//! On the components it covers, the seeded labelling is *identical* to
//! the full [`components`](crate::components) build: same member lists
//! in the same order, with dense component ids assigned in first-agent
//! order among the covered components (the property tests in
//! `tests/proptests.rs` pin this against arbitrary layouts, radii and
//! seed sets). Lone agents and agents in unseeded components keep the
//! sentinel label [`Components::NO_LABEL`] and appear in no member list.
//!
//! The contact-only build ([`contact_components_on_by`]) follows the
//! same "no lone agents" rule with a wider cover: every component of two
//! or more agents, found by one union pass over the candidate pairs. It
//! serves processes such as gossip whose exchange is a no-op on a lone
//! agent. With every agent seeded, the two builds agree exactly.

use sparsegossip_grid::Point;
use sparsegossip_walks::BitSet;

use crate::{Components, Contact, SpatialHash, UniformContact, UnionFind};

/// Reusable buffers for restricted labelling: the BFS queue, the
/// union–find forest of the contact-only build, the covered-agent
/// bitset, the label remap table, the counting-sort cursor and the
/// [`Components`] under construction.
///
/// One scratch amortizes every per-step restricted labelling of a
/// simulation, and may serve seeded and contact-only calls in any
/// order: after warm-up, a call performs no heap allocation. A seeded
/// call costs one candidate scan per seed, the covered components (of
/// two or more agents) and k/64 bitset words (previously covered labels
/// are un-set one by one rather than by an O(k) sweep); a contact-only
/// call adds one O(k) candidate-pair pass.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::{components_from_seeds_on, SeededScratch, SpatialHash};
/// use sparsegossip_grid::Point;
/// use sparsegossip_walks::BitSet;
///
/// let pts = [Point::new(0, 0), Point::new(0, 1), Point::new(9, 9)];
/// let hash = SpatialHash::build(&pts, 1, 10);
/// let mut seeds = BitSet::new(3);
/// seeds.insert(0);
/// let mut scratch = SeededScratch::new();
/// let comps = components_from_seeds_on(&hash, &mut scratch, &pts, &seeds, 1);
/// // Only the component {0, 1} contains a seed; agent 2 is uncovered.
/// assert_eq!(comps.count(), 1);
/// assert_eq!(comps.members(0), &[0, 1]);
/// assert!(!comps.is_covered(2));
/// ```
#[derive(Clone, Debug, Default)]
pub struct SeededScratch {
    /// BFS work stack of agents whose neighborhoods are unscanned.
    queue: Vec<u32>,
    /// Union–find forest of the contact-only build.
    uf: UnionFind,
    /// Every covered agent (reached from a seed, or in contact with
    /// another agent), read back in increasing order by the canonical
    /// rebuild. Clear between calls.
    covered: BitSet,
    /// Provisional label (BFS discovery id or union–find root) →
    /// canonical dense label.
    remap: Vec<u32>,
    /// Counting-sort cursor over component offsets.
    cursor: Vec<u32>,
    /// The partition under construction. Invariant between calls:
    /// exactly the agents in `comps.members` carry a non-sentinel
    /// label, so clearing costs O(covered), not O(k).
    comps: Components,
}

impl SeededScratch {
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

    /// Readies the scratch for a build over `k` agents: un-sets the
    /// labels the previous call covered (O(covered), not O(k)) and, on
    /// a change of working size, resizes every buffer once.
    fn begin(&mut self, k: usize) {
        let comps = &mut self.comps;
        if comps.labels.len() == k {
            for &m in &comps.members {
                comps.labels[m as usize] = Components::NO_LABEL;
            }
        } else {
            comps.labels.clear();
            comps.labels.resize(k, Components::NO_LABEL);
            self.covered = BitSet::new(k);
            // One-time pre-reservation at the new working size: coverage
            // can only grow toward k, and reserving everything now keeps
            // every later call allocation-free no matter how the covered
            // set grows between calls.
            self.queue.reserve(k);
            self.remap.reserve(k);
            comps.sizes.reserve(k);
            comps.members.reserve(k);
        }
        comps.sizes.clear();
    }

    /// The canonical tail of both builds. Every agent in `covered`
    /// carries a provisional label below `provisional` (a BFS discovery
    /// id or a union–find root); walking them in increasing agent order
    /// (a word scan, O(k/64 + covered)) assigns dense ids at first
    /// encounter — exactly the full build's labelling rule, restricted
    /// to the covered components — then groups the members and clears
    /// `covered` for the next call.
    fn canonicalize(&mut self, provisional: usize) -> &Components {
        let comps = &mut self.comps;
        self.remap.clear();
        self.remap.resize(provisional, Components::NO_LABEL);
        for a in self.covered.iter_ones() {
            let tmp = comps.labels[a] as usize;
            if self.remap[tmp] == Components::NO_LABEL {
                self.remap[tmp] = comps.sizes.len() as u32;
                comps.sizes.push(0);
            }
            let lab = self.remap[tmp];
            comps.labels[a] = lab;
            comps.sizes[lab as usize] += 1;
        }
        comps.group_members(&mut self.cursor, self.covered.iter_ones());
        self.covered.clear();
        comps
    }
}

/// Computes the components of `G_t(r)` of two or more agents that
/// contain at least one seed, flood-filling over the buckets of an
/// already-built (or incrementally maintained) `hash`. The simulator
/// rebuilds that hash from the positions every step; a maintained one
/// serves the benchmark replay.
///
/// The `hash` must describe exactly `positions` — the pairing produced
/// by [`SpatialHash::build`]/[`rebuild`](SpatialHash::rebuild) on these
/// positions, possibly relocated through
/// [`apply_moves`](SpatialHash::apply_moves) as the positions changed.
/// `r` must be at most the hash's build radius (equal, in the intended
/// per-step use).
///
/// On the covered components the result is identical to the full
/// [`components`](crate::components) partition: the same member slices
/// in the same order, with dense ids in first-agent order among covered
/// components. A seed without a contact is not covered. Uncovered
/// agents keep [`Components::NO_LABEL`] and the partition's
/// [`count`](Components::count)/[`iter`](Components::iter) span only the
/// covered components.
///
/// # Panics
///
/// Panics if `seeds.len() != positions.len()` or if the hash holds a
/// different number of agents than `positions`.
// hot: census row `replay_steps_are_allocation_free`
pub fn components_from_seeds_on<'a>(
    hash: &SpatialHash,
    scratch: &'a mut SeededScratch,
    positions: &[Point],
    seeds: &BitSet,
    r: u32,
) -> &'a Components {
    components_from_seeds_on_by(hash, scratch, positions, seeds, &UniformContact(r))
}

/// Computes the seed-containing components of two or more agents of the
/// contact graph over an already-built `hash`, under an arbitrary
/// [`Contact`] model — the heterogeneous counterpart of
/// [`components_from_seeds_on`] (which is this function at
/// [`UniformContact`]).
///
/// The hash's bucket radius must bound the contact model's reach, so
/// the reach-aware candidate scan
/// ([`SpatialHash::for_each_candidate`]) remains a superset of every
/// accepted pair. `Simulation::step` calls this over a hash it rebuilds
/// from the positions every step; only the benchmark replay feeds it a
/// hash maintained through [`SpatialHash::apply_moves`].
/// The equivalence contract is unchanged: on covered components the
/// result matches the full partition under the same contact model
/// (e.g. [`components_brute_by`](crate::components_brute_by)).
///
/// Each unlabelled seed is labelled tentatively and its candidates are
/// scanned once; a seed without a contact goes back to
/// [`Components::NO_LABEL`] and costs no discovery id. Only a seed with
/// a contact starts a flood fill. With every agent seeded, the result
/// equals [`contact_components_on_by`].
///
/// # Panics
///
/// As [`components_from_seeds_on`].
// hot: census row `steady_state_steps_are_allocation_free`
pub fn components_from_seeds_on_by<'a, C: Contact>(
    hash: &SpatialHash,
    scratch: &'a mut SeededScratch,
    positions: &[Point],
    seeds: &BitSet,
    contact: &C,
) -> &'a Components {
    let k = positions.len();
    assert_eq!(seeds.len(), k, "seed set capacity mismatch");
    assert_eq!(hash.num_agents(), k, "hash agent count mismatch");
    scratch.begin(k);
    let comps = &mut scratch.comps;
    let covered = &mut scratch.covered;

    // Flood fill from the seeds, assigning discovery-order labels.
    // Visit order does not matter: the canonical tail renumbers.
    let mut discovered = 0u32;
    for s in seeds.iter_ones() {
        if comps.labels[s] != Components::NO_LABEL {
            continue;
        }
        // Label the seed tentatively and scan its candidates once; the
        // same loop then floods from whatever that scan queued.
        let tmp = discovered;
        comps.labels[s] = tmp;
        let mut a = s as u32;
        loop {
            let pa = positions[a as usize];
            hash.for_each_candidate(pa, |b| {
                let b = b as usize;
                if comps.labels[b] == Components::NO_LABEL
                    && contact.in_contact(a as usize, b, pa, positions[b])
                {
                    comps.labels[b] = tmp;
                    covered.insert(b);
                    scratch.queue.push(b as u32);
                }
            });
            if a as usize == s {
                // A seed whose scan found no contact is a lone agent:
                // it goes back unlabelled, with no discovery id and no
                // covered bit. Contact is symmetric, so a contact that an
                // earlier flood labelled would have labelled `s` too: an
                // unlabelled seed never has a labelled contact, and no
                // later flood can reach it.
                if scratch.queue.is_empty() {
                    comps.labels[s] = Components::NO_LABEL;
                    break;
                }
                discovered += 1;
                covered.insert(s);
            }
            match scratch.queue.pop() {
                Some(next) => a = next,
                None => break,
            }
        }
    }
    scratch.canonicalize(discovered as usize)
}

/// Computes the components of the contact graph that hold two or more
/// agents, over an already-built `hash`, under an arbitrary
/// [`Contact`] model.
///
/// One pass over the hash's candidate pairs
/// ([`SpatialHash::for_each_candidate_pair`]) unions every accepted
/// pair and marks both agents covered; the covered agents are then
/// labelled canonically. The contract is the seeded build's
/// ([`components_from_seeds_on_by`]): on the components it covers, the
/// result is identical to the full partition under the same contact
/// model — the same member slices in the same order, with dense ids in
/// first-agent order among covered components. Agents without a contact
/// keep [`Components::NO_LABEL`], so below the percolation point, where
/// most agents are alone, the labelling and grouping cost follows the
/// meetings rather than `k`. After warm-up the call allocates nothing.
///
/// The `hash` must describe exactly `positions`, and its bucket radius
/// must bound the contact model's reach.
///
/// # Examples
///
/// ```
/// use sparsegossip_conngraph::{
///     contact_components_on_by, SeededScratch, SpatialHash, UniformContact,
/// };
/// use sparsegossip_grid::Point;
///
/// let pts = [Point::new(0, 0), Point::new(5, 5), Point::new(0, 1)];
/// let hash = SpatialHash::build(&pts, 1, 10);
/// let mut scratch = SeededScratch::new();
/// let comps = contact_components_on_by(&hash, &mut scratch, &pts, &UniformContact(1));
/// // Only {0, 2} has a contact; the lone agent 1 is uncovered.
/// assert_eq!(comps.count(), 1);
/// assert_eq!(comps.members(0), &[0, 2]);
/// assert!(!comps.is_covered(1));
/// ```
///
/// # Panics
///
/// Panics if the hash holds a different number of agents than
/// `positions`.
// hot: census row `steady_state_steps_are_allocation_free`
pub fn contact_components_on_by<'a, C: Contact>(
    hash: &SpatialHash,
    scratch: &'a mut SeededScratch,
    positions: &[Point],
    contact: &C,
) -> &'a Components {
    let k = positions.len();
    assert_eq!(hash.num_agents(), k, "hash agent count mismatch");
    scratch.begin(k);
    scratch.uf.reset_to(k);
    let (uf, covered) = (&mut scratch.uf, &mut scratch.covered);
    hash.for_each_candidate_pair(|a, b| {
        let (a, b) = (a as usize, b as usize);
        if contact.in_contact(a, b, positions[a], positions[b]) {
            uf.union(a, b);
            covered.insert(a);
            covered.insert(b);
        }
    });
    // The union–find root is the provisional label; roots are agent
    // indices, so they stay below k.
    for a in scratch.covered.iter_ones() {
        scratch.comps.labels[a] = scratch.uf.find(a) as u32;
    }
    scratch.canonicalize(k)
}

/// Computes the seed-containing components of two or more agents of
/// `G_t(r)`, allocating a fresh partition — the seed-restricted
/// counterpart of [`components`](crate::components).
///
/// # Panics
///
/// Panics if `side == 0`, if any position lies outside the grid, or if
/// `seeds.len() != positions.len()`.
#[must_use]
pub fn components_from_seeds(positions: &[Point], seeds: &BitSet, r: u32, side: u32) -> Components {
    let hash = SpatialHash::build(positions, r, side);
    let mut scratch = SeededScratch::new();
    components_from_seeds_on(&hash, &mut scratch, positions, seeds, r);
    scratch.into_components()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::components;

    fn seeds_of(k: usize, on: &[usize]) -> BitSet {
        let mut s = BitSet::new(k);
        for &i in on {
            s.insert(i);
        }
        s
    }

    #[test]
    fn covers_exactly_seed_components() {
        // Three components at r = 1: {0,1}, {2}, {3,4}.
        let pts = [
            Point::new(0, 0),
            Point::new(0, 1),
            Point::new(5, 5),
            Point::new(9, 9),
            Point::new(9, 8),
        ];
        let c = components_from_seeds(&pts, &seeds_of(5, &[4]), 1, 10);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members(0), &[3, 4]);
        assert_eq!(c.num_agents(), 5);
        for i in 0..3 {
            assert!(!c.is_covered(i));
            assert_eq!(c.label_of(i), Components::NO_LABEL);
        }
        assert_eq!(c.size_of_agent(3), 2);
    }

    #[test]
    fn component_ids_are_first_agent_ordered() {
        // Seeds in reverse order must not change the canonical ids.
        let pts = [
            Point::new(0, 0),
            Point::new(4, 4),
            Point::new(8, 8),
            Point::new(0, 1),
            Point::new(8, 9),
        ];
        let c = components_from_seeds(&pts, &seeds_of(5, &[2, 3]), 1, 10);
        assert_eq!(c.count(), 2);
        // Component of agent 0 (members {0, 3}) comes first.
        assert_eq!(c.members(0), &[0, 3]);
        assert_eq!(c.members(1), &[2, 4]);
        assert!(!c.is_covered(1));
    }

    #[test]
    fn lone_seed_stays_uncovered() {
        // Agent 1 is seeded but alone; agent 0's component {0, 2} is
        // covered, agent 1 gets no label and no component id.
        let pts = [Point::new(0, 0), Point::new(5, 5), Point::new(1, 0)];
        let c = components_from_seeds(&pts, &seeds_of(3, &[0, 1]), 1, 10);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members(0), &[0, 2]);
        assert!(!c.is_covered(1));
        assert_eq!(c.label_of(1), Components::NO_LABEL);
        // A seed set of lone agents only covers nothing.
        let c = components_from_seeds(&pts, &seeds_of(3, &[1]), 1, 10);
        assert_eq!(c.count(), 0);
        assert!((0..3).all(|i| !c.is_covered(i)));
    }

    #[test]
    fn seed_whose_only_contact_is_a_seed_forms_one_component() {
        // Agents 1 and 2 are both seeded and touch only each other; the
        // first one's scan finds the second, so the pair is one
        // component and the second seed starts nothing new.
        let pts = [Point::new(0, 0), Point::new(6, 6), Point::new(6, 7)];
        let c = components_from_seeds(&pts, &seeds_of(3, &[1, 2]), 1, 10);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members(0), &[1, 2]);
        assert_eq!(c.label_of(1), c.label_of(2));
        assert!(!c.is_covered(0));
    }

    #[test]
    fn all_seeds_reproduces_the_full_partition() {
        let pts: Vec<Point> = (0..40)
            .map(|i| Point::new((i * 13) % 16, (i * 7) % 16))
            .collect();
        let mut all = BitSet::new(40);
        all.set_all();
        for r in [0u32, 1, 2, 5] {
            let seeded = components_from_seeds(&pts, &all, r, 16);
            let full = components(&pts, r, 16);
            assert_eq!(seeded, full, "r={r}");
        }
    }

    #[test]
    fn empty_seed_set_covers_nothing() {
        let pts = [Point::new(0, 0), Point::new(0, 1)];
        let c = components_from_seeds(&pts, &BitSet::new(2), 1, 4);
        assert_eq!(c.count(), 0);
        assert_eq!(c.num_agents(), 2);
        assert!(!c.is_covered(0));
    }

    #[test]
    fn scratch_reuse_never_leaks_previous_coverage() {
        // A big covered set followed by a tiny one: stale labels or
        // member lists from the first call must not survive.
        let pts: Vec<Point> = (0..30).map(|i| Point::new(i % 6, i / 6)).collect();
        let hash = SpatialHash::build(&pts, 2, 8);
        let mut all = BitSet::new(30);
        all.set_all();
        let mut scratch = SeededScratch::new();
        components_from_seeds_on(&hash, &mut scratch, &pts, &all, 2);
        let far = [Point::new(0, 0), Point::new(7, 7), Point::new(7, 7)];
        let far_hash = SpatialHash::build(&far, 0, 8);
        let c = components_from_seeds_on(&far_hash, &mut scratch, &far, &seeds_of(3, &[1]), 0);
        assert_eq!(c.count(), 1);
        assert_eq!(c.members(0), &[1, 2]);
        assert!(!c.is_covered(0));
    }

    #[test]
    fn works_over_an_incrementally_maintained_hash() {
        let mut pts = vec![Point::new(0, 0), Point::new(3, 0), Point::new(7, 7)];
        let mut hash = SpatialHash::build(&pts, 1, 8);
        let mut scratch = SeededScratch::new();
        // Initially agent 1 is isolated from agent 0, so the lone seed
        // covers nothing.
        let c = components_from_seeds_on(&hash, &mut scratch, &pts, &seeds_of(3, &[0]), 1);
        assert_eq!(c.count(), 0);
        assert!(!c.is_covered(0));
        // Agent 1 walks next to agent 0; the maintained hash must see it.
        let moves = [(1u32, Point::new(3, 0), Point::new(1, 0))];
        pts[1] = Point::new(1, 0);
        hash.apply_moves(&moves);
        let c = components_from_seeds_on(&hash, &mut scratch, &pts, &seeds_of(3, &[0]), 1);
        assert_eq!(c.members(0), &[0, 1]);
        assert!(!c.is_covered(2));
    }

    #[test]
    #[should_panic(expected = "seed set capacity mismatch")]
    fn rejects_mismatched_seed_capacity() {
        let pts = [Point::new(0, 0)];
        let _ = components_from_seeds(&pts, &BitSet::new(2), 1, 4);
    }
}
