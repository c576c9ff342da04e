//! Property-based tests: the spatially-hashed component builder must
//! agree exactly with the O(k²) brute-force reference on arbitrary
//! agent layouts and radii, including r = 0 grids large enough for
//! coarsened buckets; the seed-restricted builder must agree with the
//! reference on every seed-containing component, and the contact-only
//! builder on every component of two or more agents, with
//! one scratch serving both in any order; a hash
//! maintained move by move, or rebuilt warm at old and new geometries,
//! must equal a fresh build; the reach-aware candidate scan must cover
//! every brute-force contact, with a division-free bucket index equal
//! to `/`; and the degree statistics must match a pairwise count.

use proptest::prelude::*;
use sparsegossip_conngraph::{
    components, components_brute, components_from_seeds, components_from_seeds_on, components_into,
    contact_components_on_by, giant_fraction, Components, ComponentsScratch, DegreeStats,
    IslandStats, SeededScratch, SpatialHash, UniformContact,
};
use sparsegossip_grid::Point;
use sparsegossip_walks::BitSet;

fn arb_layout() -> impl Strategy<Value = (Vec<Point>, u32, u32)> {
    (1u32..40).prop_flat_map(|side| {
        (
            proptest::collection::vec((0..side, 0..side), 0..60)
                .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect()),
            0u32..50,
            Just(side),
        )
    })
}

/// An r = 0 layout on a side-65..=400 grid, past the 4096 nodes at
/// which the hash coarsens its r = 0 buckets; the agents sit within 3
/// nodes of 5 sites, so co-located agents and bucket-sharing strangers
/// both occur.
fn arb_coarse_layout() -> impl Strategy<Value = (Vec<Point>, u32, u32)> {
    (65u32..=400).prop_flat_map(|side| {
        (
            proptest::collection::vec((0..side - 3, 0..side - 3), 5..6),
            proptest::collection::vec((0usize..5, 0u32..4, 0u32..4), 0..60),
            Just(side),
        )
            .prop_map(|(sites, offsets, side)| {
                let positions = offsets
                    .into_iter()
                    .map(|(s, dx, dy)| Point::new(sites[s].0 + dx, sites[s].1 + dy))
                    .collect();
                (positions, 0, side)
            })
    })
}

/// [`arb_layout`] two times in three, else [`arb_coarse_layout`].
fn arb_any_layout() -> impl Strategy<Value = (Vec<Point>, u32, u32)> {
    (0u8..3, arb_layout(), arb_coarse_layout())
        .prop_map(|(pick, small, coarse)| if pick == 0 { coarse } else { small })
}

/// A layout plus a random seed mask over the agents and a random walk
/// trajectory: per step, each agent draws a u8 — values 0–3 are a
/// clamped unit move N/E/S/W, anything else holds, so an arbitrary
/// subset of the agents moves each step.
fn arb_layout_with_seeds_and_walk(
) -> impl Strategy<Value = (Vec<Point>, u32, u32, Vec<bool>, Vec<Vec<u8>>)> {
    arb_any_layout().prop_flat_map(|(positions, r, side)| {
        let k = positions.len();
        (
            Just(positions),
            Just(r),
            Just(side),
            proptest::collection::vec(any::<bool>(), k..k + 1),
            proptest::collection::vec(proptest::collection::vec(0u8..10, k..k + 1), 0..8),
        )
    })
}

fn seeds_from_mask(mask: &[bool], k: usize) -> BitSet {
    let mut seeds = BitSet::new(k);
    for (i, &on) in mask.iter().enumerate().take(k) {
        if on {
            seeds.insert(i);
        }
    }
    seeds
}

/// One clamped unit move: direction 0–3 is N/E/S/W, anything else holds.
fn step_point(p: Point, dir: u8, side: u32) -> Point {
    match dir {
        0 if p.y + 1 < side => Point::new(p.x, p.y + 1),
        1 if p.x + 1 < side => Point::new(p.x + 1, p.y),
        2 if p.y > 0 => Point::new(p.x, p.y - 1),
        3 if p.x > 0 => Point::new(p.x - 1, p.y),
        _ => p,
    }
}

/// Bucket-for-bucket hash equality: dimensions plus every bucket's agent
/// sequence (which also pins the occupied set and the per-bucket
/// increasing order).
fn hashes_equal(a: &SpatialHash, b: &SpatialHash) -> bool {
    if a.bucket_side() != b.bucket_side()
        || a.buckets_per_side() != b.buckets_per_side()
        || a.num_agents() != b.num_agents()
    {
        return false;
    }
    (0..a.buckets_per_side()).all(|by| {
        (0..a.buckets_per_side()).all(|bx| {
            a.bucket_agents_iter(bx, by)
                .eq(b.bucket_agents_iter(bx, by))
        })
    })
}

/// One operation on a warm hash.
#[derive(Clone, Debug)]
enum HashOp {
    /// Rebuild over `coords` (reduced modulo the grid side, so the agent
    /// count shrinks or grows freely), at a new `(r, side)` if given and
    /// at the current geometry otherwise.
    Rebuild {
        coords: Vec<(u32, u32)>,
        geometry: Option<(u32, u32)>,
    },
    /// One clamped unit move per agent, as in [`step_point`].
    Moves(Vec<u8>),
}

fn arb_hash_op() -> impl Strategy<Value = HashOp> {
    (
        0u8..3,
        proptest::collection::vec((0u32..64, 0u32..64), 0..60),
        (0u32..12, 1u32..40),
        proptest::collection::vec(0u8..10, 60..61),
    )
        .prop_map(|(kind, coords, geometry, dirs)| match kind {
            0 => HashOp::Rebuild {
                coords,
                geometry: None,
            },
            1 => HashOp::Rebuild {
                coords,
                geometry: Some(geometry),
            },
            _ => HashOp::Moves(dirs),
        })
}

/// A layout whose radius is 0 a third of the time and whose agents are,
/// half the time, packed into a 3×3 patch so most of them collide.
fn arb_degree_layout() -> impl Strategy<Value = (Vec<Point>, u32, u32)> {
    let radius = (0u8..3, 1u32..50).prop_map(|(zero, r)| if zero == 0 { 0 } else { r });
    (1u32..40, radius, any::<bool>()).prop_flat_map(|(side, r, clustered)| {
        let spread = if clustered { side.min(3) } else { side };
        (
            proptest::collection::vec((0..spread, 0..spread), 0..60),
            0..=side - spread,
        )
            .prop_map(move |(coords, base)| {
                let positions = coords
                    .into_iter()
                    .map(|(x, y)| Point::new(base + x, base + y))
                    .collect();
                (positions, r, side)
            })
    })
}

proptest! {
    #[test]
    fn hashed_equals_brute_force((positions, r, side) in arb_any_layout()) {
        let fast = components(&positions, r, side);
        let brute = components_brute(&positions, r, side);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn scratch_reuse_equals_fresh_build(
        (positions_a, r_a, side_a) in arb_layout(),
        (positions_b, r_b, side_b) in arb_layout(),
    ) {
        // One scratch, two arbitrary consecutive builds (different
        // sizes, radii, grids): each must equal the fresh build exactly
        // — stale buffer contents never leak into the partition.
        let mut scratch = ComponentsScratch::new();
        let first = components_into(&mut scratch, &positions_a, r_a, side_a).clone();
        prop_assert_eq!(first, components(&positions_a, r_a, side_a));
        let second = components_into(&mut scratch, &positions_b, r_b, side_b).clone();
        prop_assert_eq!(second, components(&positions_b, r_b, side_b));
    }

    #[test]
    fn partition_is_valid((positions, r, side) in arb_layout()) {
        let c = components(&positions, r, side);
        // Sizes sum to k; every member slice is consistent with labels.
        let total: usize = (0..c.count()).map(|i| c.size(i)).sum();
        prop_assert_eq!(total, positions.len());
        for comp in 0..c.count() {
            prop_assert!(c.size(comp) >= 1);
            for &m in c.members(comp) {
                prop_assert_eq!(c.label_of(m as usize) as usize, comp);
            }
        }
    }

    #[test]
    fn adjacency_implies_same_component((positions, r, side) in arb_layout()) {
        let c = components(&positions, r, side);
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                if positions[i].manhattan(positions[j]) <= r {
                    prop_assert_eq!(c.label_of(i), c.label_of(j));
                }
            }
        }
    }

    #[test]
    fn radius_growth_only_merges((positions, r, side) in arb_layout()) {
        // Components at radius r refine components at radius r+1.
        let fine = components(&positions, r, side);
        let coarse = components(&positions, r.saturating_add(1), side);
        prop_assert!(coarse.count() <= fine.count());
        for comp in 0..fine.count() {
            let ms = fine.members(comp);
            let first = coarse.label_of(ms[0] as usize);
            for &m in ms {
                prop_assert_eq!(coarse.label_of(m as usize), first);
            }
        }
        prop_assert!(giant_fraction(&coarse) >= giant_fraction(&fine) - 1e-12);
    }

    #[test]
    fn seeded_labelling_matches_full_on_seed_components(
        (positions, r, side, mask, _walk) in arb_layout_with_seeds_and_walk(),
    ) {
        let k = positions.len();
        let seeds = seeds_from_mask(&mask, k);
        let full = components_brute(&positions, r, side);
        let seeded = components_from_seeds(&positions, &seeds, r, side);
        prop_assert_eq!(seeded.num_agents(), k);

        // Which full components contain a seed?
        let mut full_has_seed = vec![false; full.count()];
        for s in seeds.iter_ones() {
            full_has_seed[full.label_of(s) as usize] = true;
        }
        // The seeded view has exactly one component per seed-containing
        // full component, with an identical member slice, and covers
        // nothing else.
        let covered: Vec<usize> = (0..full.count()).filter(|&c| full_has_seed[c]).collect();
        prop_assert_eq!(seeded.count(), covered.len());
        for (sc, &fc) in covered.iter().enumerate() {
            // Both sides label dense ids in first-agent order, so the
            // c-th seed-containing full component IS the c-th seeded one.
            prop_assert_eq!(seeded.members(sc), full.members(fc));
            prop_assert_eq!(seeded.size(sc), full.size(fc));
            for &m in seeded.members(sc) {
                prop_assert_eq!(seeded.label_of(m as usize) as usize, sc);
            }
        }
        // Uncovered agents carry the sentinel label.
        for i in 0..k {
            let in_seeded = full_has_seed[full.label_of(i) as usize];
            prop_assert_eq!(seeded.is_covered(i), in_seeded);
            if !in_seeded {
                prop_assert_eq!(seeded.label_of(i), Components::NO_LABEL);
            }
        }
    }

    #[test]
    fn contact_labelling_matches_full_on_multi_agent_components(
        (positions, r, side) in arb_any_layout(),
    ) {
        let k = positions.len();
        let full = components_brute(&positions, r, side);
        let hash = SpatialHash::build(&positions, r, side);
        let mut scratch = SeededScratch::new();
        let contact = contact_components_on_by(&hash, &mut scratch, &positions, &UniformContact(r));
        prop_assert_eq!(contact.num_agents(), k);

        // The contact view has exactly the full components of two or
        // more agents, in the same order with identical member slices,
        // and covers no lone agent.
        let multi: Vec<usize> = (0..full.count()).filter(|&c| full.size(c) >= 2).collect();
        prop_assert_eq!(contact.count(), multi.len());
        for (cc, &fc) in multi.iter().enumerate() {
            prop_assert_eq!(contact.members(cc), full.members(fc));
            prop_assert_eq!(contact.size(cc), full.size(fc));
            for &m in contact.members(cc) {
                prop_assert_eq!(contact.label_of(m as usize) as usize, cc);
            }
        }
        for i in 0..k {
            let lone = full.size_of_agent(i) == 1;
            prop_assert_eq!(contact.is_covered(i), !lone);
            if lone {
                prop_assert_eq!(contact.label_of(i), Components::NO_LABEL);
            }
        }
    }

    #[test]
    fn one_scratch_alternates_seeded_and_contact_calls(
        (positions, r, side, mask, walk) in arb_layout_with_seeds_and_walk(),
    ) {
        // Seeded and contact-only calls share one scratch along a walk;
        // each result must equal the same call on a fresh scratch, so
        // neither build leaks labels or members into the other.
        let k = positions.len();
        let seeds = seeds_from_mask(&mask, k);
        let mut positions = positions;
        let mut shared = SeededScratch::new();
        for step in std::iter::once(&vec![]).chain(&walk) {
            for (i, &dir) in step.iter().enumerate().take(k) {
                positions[i] = step_point(positions[i], dir, side);
            }
            let hash = SpatialHash::build(&positions, r, side);
            let fresh_seeded =
                components_from_seeds_on(&hash, &mut SeededScratch::new(), &positions, &seeds, r)
                    .clone();
            let fresh_contact = contact_components_on_by(
                &hash,
                &mut SeededScratch::new(),
                &positions,
                &UniformContact(r),
            )
            .clone();
            prop_assert_eq!(
                components_from_seeds_on(&hash, &mut shared, &positions, &seeds, r),
                &fresh_seeded
            );
            prop_assert_eq!(
                contact_components_on_by(&hash, &mut shared, &positions, &UniformContact(r)),
                &fresh_contact
            );
        }
    }

    #[test]
    fn incrementally_maintained_hash_equals_fresh_build(
        (positions, r, side, _mask, walk) in arb_layout_with_seeds_and_walk(),
    ) {
        // Maintain the hash move by move along a random trajectory in
        // which an arbitrary subset of the agents moves each step; the
        // result must equal a fresh build at every step — any moved
        // subset, any r including 0.
        let mut positions = positions;
        let mut hash = SpatialHash::build(&positions, r, side);
        for step in &walk {
            let mut moves = Vec::new();
            for (i, &dir) in step.iter().enumerate().take(positions.len()) {
                let from = positions[i];
                let to = step_point(from, dir, side);
                if to != from {
                    positions[i] = to;
                    moves.push((i as u32, from, to));
                }
            }
            hash.apply_moves(&moves);
            prop_assert!(
                hashes_equal(&hash, &SpatialHash::build(&positions, r, side)),
                "maintained hash diverged after {} moves", moves.len()
            );
        }
    }

    #[test]
    fn warm_rebuilt_hash_equals_fresh_build(
        (positions, r, side) in arb_layout(),
        ops in proptest::collection::vec(arb_hash_op(), 1..12),
    ) {
        // One hash through rebuilds at the same geometry, at new radii
        // and sides, with k shrinking and growing, and moves in between:
        // clearing only the previously used heads must never leave a
        // stale list behind.
        let (mut positions, mut r, mut side) = (positions, r, side);
        let mut hash = SpatialHash::build(&positions, r, side);
        for op in &ops {
            match op {
                HashOp::Rebuild { coords, geometry } => {
                    if let Some(g) = *geometry {
                        (r, side) = g;
                    }
                    positions = coords
                        .iter()
                        .map(|&(x, y)| Point::new(x % side, y % side))
                        .collect();
                    hash.rebuild(&positions, r, side);
                }
                HashOp::Moves(dirs) => {
                    let mut moves = Vec::new();
                    for (i, &dir) in dirs.iter().enumerate().take(positions.len()) {
                        let from = positions[i];
                        let to = step_point(from, dir, side);
                        if to != from {
                            positions[i] = to;
                            moves.push((i as u32, from, to));
                        }
                    }
                    hash.apply_moves(&moves);
                }
            }
            prop_assert!(
                hashes_equal(&hash, &SpatialHash::build(&positions, r, side)),
                "warm hash diverged after {:?}", op
            );
        }
    }

    #[test]
    fn degree_stats_match_pairwise_count((positions, r, side) in arb_degree_layout()) {
        let k = positions.len();
        let mut degree = vec![0u32; k];
        let mut edges = 0u64;
        for i in 0..k {
            for j in i + 1..k {
                if positions[i].manhattan(positions[j]) <= r {
                    degree[i] += 1;
                    degree[j] += 1;
                    edges += 1;
                }
            }
        }
        let s = DegreeStats::compute(&positions, r, side);
        prop_assert_eq!(s.edges, edges);
        prop_assert_eq!(s.max_degree, degree.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(s.isolated, degree.iter().filter(|&&d| d == 0).count());
    }

    #[test]
    fn island_stats_are_consistent((positions, r, side) in arb_layout()) {
        let c = components(&positions, r, side);
        let s = IslandStats::from_components(&c);
        prop_assert_eq!(s.count, c.count());
        prop_assert!(s.max_size <= positions.len());
        prop_assert!(s.singletons <= s.count);
        if s.count > 0 {
            prop_assert!(s.mean_size >= 1.0 - 1e-12);
            prop_assert!(s.mean_size <= s.max_size as f64 + 1e-12);
        }
    }

    #[test]
    fn candidate_scan_covers_every_contact(
        (positions, r, side) in arb_degree_layout(),
    ) {
        // A superset of the brute-force contacts, each agent once, at
        // every reach — and at reach 0 exactly the co-located agents.
        let hash = SpatialHash::build(&positions, r, side);
        for &p in &positions {
            let mut seen = Vec::new();
            hash.for_each_candidate(p, |a| seen.push(a as usize));
            let listed = seen.len();
            seen.sort_unstable();
            seen.dedup();
            prop_assert_eq!(seen.len(), listed, "an agent listed twice");
            let contacts: Vec<usize> = (0..positions.len())
                .filter(|&j| positions[j].manhattan(p) <= r)
                .collect();
            if r == 0 {
                prop_assert_eq!(&seen, &contacts);
            } else {
                prop_assert!(contacts.iter().all(|j| seen.binary_search(j).is_ok()));
            }
        }
    }

    #[test]
    fn reciprocal_bucket_index_equals_division(d in 1u32..=u32::MAX, x in any::<u32>(), y in any::<u32>()) {
        // A single bucket of side d: `bucket_of` is then the bare index
        // arithmetic, for coordinates anywhere in u32.
        let hash = SpatialHash::build(&[], d, d);
        prop_assert_eq!(hash.bucket_of(Point::new(x, y)), (x / d, y / d));
    }
}

#[test]
fn reciprocal_bucket_index_equals_division_for_every_side() {
    let mut hash = SpatialHash::default();
    for d in 1..=65_535u32 {
        hash.rebuild(&[], d, d);
        assert_eq!(hash.bucket_side(), d);
        for x in [0, 1, d - 1, d, 65_534, 65_535, u32::MAX] {
            assert_eq!(hash.bucket_of(Point::new(x, 65_534)), (x / d, 65_534 / d));
        }
    }
}

#[test]
fn candidate_scan_is_empty_on_empty_hashes() {
    let mut calls = 0;
    SpatialHash::default().for_each_candidate(Point::new(3, 3), |_| calls += 1);
    for r in [0, 1, 5] {
        SpatialHash::build(&[], r, 8).for_each_candidate(Point::new(3, 3), |_| calls += 1);
    }
    assert_eq!(calls, 0);
}
