//! Property tests for the heterogeneous-radius contact model: the
//! spatial-hash candidate filtering (bucket size = max radius, pairs
//! accepted by the symmetric `min(r_i, r_j)` rule) must agree exactly
//! with the O(k²) brute-force reference on arbitrary configurations —
//! including `r = 0` agents — on the full partition, the
//! frontier-sparse seeded path and the contact-only path, over a fresh,
//! a reach-0 or an incrementally maintained hash.

use proptest::prelude::*;
use sparsegossip_conngraph::{
    components_brute_by, components_from_seeds_on_by, components_into_by, contact_components_on_by,
    Components, ComponentsScratch, Contact, RadiiContact, SeededScratch, SpatialHash,
    UniformContact,
};
use sparsegossip_grid::Point;
use sparsegossip_walks::BitSet;

/// Arbitrary side, agent layout, per-agent radii (zeros included) and
/// seed mask.
fn arb_hetero_layout() -> impl Strategy<Value = (Vec<Point>, Vec<u32>, u32, Vec<bool>)> {
    (1u32..40).prop_flat_map(|side| {
        proptest::collection::vec((0..side, 0..side), 0..60).prop_flat_map(move |coords| {
            let k = coords.len();
            let positions: Vec<Point> = coords.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            (
                Just(positions),
                proptest::collection::vec(0u32..12, k..k + 1),
                Just(side),
                proptest::collection::vec(any::<bool>(), k..k + 1),
            )
        })
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

fn max_radius(radii: &[u32]) -> u32 {
    radii.iter().copied().max().unwrap_or(0)
}

/// Seeded labelling over `hash` equals the brute-force partition on
/// every seed-containing component and covers nothing else.
fn assert_seeded_matches_brute<C: Contact>(
    hash: &SpatialHash,
    positions: &[Point],
    seeds: &BitSet,
    contact: &C,
    side: u32,
) {
    let k = positions.len();
    let full = components_brute_by(positions, contact, side);
    let mut scratch = SeededScratch::new();
    let seeded = components_from_seeds_on_by(hash, &mut scratch, positions, seeds, contact);
    assert_eq!(seeded.num_agents(), k);

    let mut full_has_seed = vec![false; full.count()];
    for s in seeds.iter_ones() {
        full_has_seed[full.label_of(s) as usize] = true;
    }
    let covered: Vec<usize> = (0..full.count()).filter(|&c| full_has_seed[c]).collect();
    assert_eq!(seeded.count(), covered.len());
    for (sc, &fc) in covered.iter().enumerate() {
        assert_eq!(seeded.members(sc), full.members(fc));
    }
    for i in 0..k {
        let in_seeded = full_has_seed[full.label_of(i) as usize];
        assert_eq!(seeded.is_covered(i), in_seeded);
        if !in_seeded {
            assert_eq!(seeded.label_of(i), Components::NO_LABEL);
        }
    }
}

proptest! {
    #[test]
    fn hetero_hashed_equals_brute_force(
        (positions, radii, side, _mask) in arb_hetero_layout(),
    ) {
        let contact = RadiiContact(&radii);
        let mut scratch = ComponentsScratch::new();
        let fast =
            components_into_by(&mut scratch, &positions, &contact, max_radius(&radii), side)
                .clone();
        let brute = components_brute_by(&positions, &contact, side);
        prop_assert_eq!(fast, brute);
    }

    #[test]
    fn hetero_contact_is_symmetric_and_min_ruled(
        (positions, radii, side, _mask) in arb_hetero_layout(),
    ) {
        let contact = RadiiContact(&radii);
        let c = components_brute_by(&positions, &contact, side);
        for i in 0..positions.len() {
            for j in i + 1..positions.len() {
                let fwd = contact.in_contact(i, j, positions[i], positions[j]);
                let bwd = contact.in_contact(j, i, positions[j], positions[i]);
                prop_assert_eq!(fwd, bwd, "asymmetric contact for ({}, {})", i, j);
                let d = positions[i].manhattan(positions[j]);
                prop_assert_eq!(fwd, d <= radii[i].min(radii[j]));
                if fwd {
                    prop_assert_eq!(c.label_of(i), c.label_of(j));
                }
            }
        }
    }

    #[test]
    fn zero_radius_agents_connect_only_colocated(
        (positions, mut radii, side, _mask) in arb_hetero_layout(),
    ) {
        // Force a zero-radius agent into every non-empty configuration.
        if let Some(first) = radii.first_mut() {
            *first = 0;
        }
        let contact = RadiiContact(&radii);
        let c = components_brute_by(&positions, &contact, side);
        for j in 1..positions.len() {
            if positions[0].manhattan(positions[j]) > 0 {
                // Agent 0 reaches j only through other agents, never
                // directly; at distance > 0 a direct edge is impossible.
                prop_assert!(!contact.in_contact(0, j, positions[0], positions[j]));
            } else {
                prop_assert_eq!(c.label_of(0), c.label_of(j));
            }
        }
    }

    #[test]
    fn hetero_seeded_matches_full_on_seed_components(
        (positions, radii, side, mask) in arb_hetero_layout(),
    ) {
        let contact = RadiiContact(&radii);
        let seeds = seeds_from_mask(&mask, positions.len());
        let hash = SpatialHash::build(&positions, max_radius(&radii), side);
        assert_seeded_matches_brute(&hash, &positions, &seeds, &contact, side);
    }

    #[test]
    fn hetero_contact_labelling_matches_full_on_multi_agent_components(
        (positions, radii, side, _mask) in arb_hetero_layout(),
    ) {
        // RadiiContact: an agent whose radius reaches nobody under the
        // min rule stays uncovered even inside another agent's reach.
        let contact = RadiiContact(&radii);
        let hash = SpatialHash::build(&positions, max_radius(&radii), side);
        let full = components_brute_by(&positions, &contact, side);
        let mut scratch = SeededScratch::new();
        let multi = contact_components_on_by(&hash, &mut scratch, &positions, &contact);
        let expected: Vec<usize> = (0..full.count()).filter(|&c| full.size(c) >= 2).collect();
        prop_assert_eq!(multi.count(), expected.len());
        for (mc, &fc) in expected.iter().enumerate() {
            prop_assert_eq!(multi.members(mc), full.members(fc));
        }
        for i in 0..positions.len() {
            prop_assert_eq!(multi.is_covered(i), full.size_of_agent(i) >= 2);
        }
    }

    #[test]
    fn zero_radii_seeded_on_a_reach_zero_hash_matches_brute_force(
        (positions, _radii, side, mask) in arb_hetero_layout(),
    ) {
        // The contact-only world: bucket radius 0, so the candidate scan
        // reads each agent's own bucket only.
        let radii = vec![0; positions.len()];
        let seeds = seeds_from_mask(&mask, positions.len());
        let hash = SpatialHash::build(&positions, 0, side);
        assert_seeded_matches_brute(&hash, &positions, &seeds, &RadiiContact(&radii), side);
    }

    #[test]
    fn hetero_seeded_survives_incremental_hash_maintenance(
        (positions, radii, side, mask) in arb_hetero_layout(),
        walk in proptest::collection::vec(proptest::collection::vec(0u8..10, 0..60), 0..6),
    ) {
        // The benchmark replay's path: a hash maintained move by move
        // (bucket radius = max agent radius) driving the seeded
        // labelling must equal the brute-force partition every step.
        let k = positions.len();
        let contact = RadiiContact(&radii);
        let seeds = seeds_from_mask(&mask, k);
        let r_max = max_radius(&radii);
        let mut positions = positions;
        let mut hash = SpatialHash::build(&positions, r_max, side);
        let mut scratch = SeededScratch::new();
        let mut moves = Vec::new();
        for step in &walk {
            moves.clear();
            for (i, &dir) in step.iter().enumerate().take(k) {
                let from = positions[i];
                let to = match dir {
                    0 if from.y + 1 < side => Point::new(from.x, from.y + 1),
                    1 if from.x + 1 < side => Point::new(from.x + 1, from.y),
                    2 if from.y > 0 => Point::new(from.x, from.y - 1),
                    3 if from.x > 0 => Point::new(from.x - 1, from.y),
                    _ => from,
                };
                if to != from {
                    positions[i] = to;
                    moves.push((i as u32, from, to));
                }
            }
            hash.apply_moves(&moves);
            let seeded =
                components_from_seeds_on_by(&hash, &mut scratch, &positions, &seeds, &contact);
            let full = components_brute_by(&positions, &contact, side);
            for s in seeds.iter_ones() {
                prop_assert_eq!(
                    seeded.members(seeded.label_of(s) as usize),
                    full.members(full.label_of(s) as usize),
                    "seed {} component diverged", s
                );
            }
        }
    }

    #[test]
    fn equal_radii_reduce_to_the_uniform_model(
        (positions, _radii, side, _mask) in arb_hetero_layout(),
        r in 0u32..12,
    ) {
        let radii = vec![r; positions.len()];
        let hetero = components_brute_by(&positions, &RadiiContact(&radii), side);
        let uniform = components_brute_by(&positions, &UniformContact(r), side);
        prop_assert_eq!(hetero, uniform);
    }
}
