//! The reach-0 referee on the walled world axis: seed-restricted
//! labelling over a bucket-radius-0 spatial hash, under the world
//! contact model with city-block walls, must equal the O(k²)
//! brute-force partition on every seed-containing component of two or
//! more agents.

use proptest::prelude::*;
use sparsegossip_conngraph::{
    components_brute_by, components_from_seeds_on_by, Components, Contact, SeededScratch,
    SpatialHash,
};
use sparsegossip_core::WorldContact;
use sparsegossip_grid::{BarrierGrid, Point};
use sparsegossip_walks::BitSet;

/// A small grid (so agents collide), a wall density, agent positions on
/// open and wall nodes alike, and a seed mask.
fn arb_walled_layout() -> impl Strategy<Value = (u32, u32, Vec<Point>, Vec<bool>)> {
    (4u32..20, 0u32..=4).prop_flat_map(|(side, density)| {
        proptest::collection::vec((0..side, 0..side), 0..80).prop_flat_map(move |coords| {
            let k = coords.len();
            let positions: Vec<Point> = coords.into_iter().map(|(x, y)| Point::new(x, y)).collect();
            (
                Just(side),
                Just(density),
                Just(positions),
                proptest::collection::vec(any::<bool>(), k..k + 1),
            )
        })
    })
}

fn assert_seeded_matches_brute<C: Contact>(
    positions: &[Point],
    seeds: &BitSet,
    contact: &C,
    side: u32,
) {
    let hash = SpatialHash::build(positions, 0, side);
    let mut scratch = SeededScratch::new();
    let seeded = components_from_seeds_on_by(&hash, &mut scratch, positions, seeds, contact);
    let full = components_brute_by(positions, contact, side);
    let mut full_has_seed = vec![false; full.count()];
    for s in seeds.iter_ones() {
        full_has_seed[full.label_of(s) as usize] = true;
    }
    // The cover is every seed-containing component of two or more
    // agents; a lone seed stays uncovered.
    let is_cover = |c: usize| full_has_seed[c] && full.size(c) >= 2;
    let covered: Vec<usize> = (0..full.count()).filter(|&c| is_cover(c)).collect();
    assert_eq!(seeded.count(), covered.len());
    for (sc, &fc) in covered.iter().enumerate() {
        assert_eq!(seeded.members(sc), full.members(fc));
    }
    for (i, p) in positions.iter().enumerate() {
        let in_seeded = is_cover(full.label_of(i) as usize);
        assert_eq!(seeded.is_covered(i), in_seeded, "agent {i} at {p}");
        if !in_seeded {
            assert_eq!(seeded.label_of(i), Components::NO_LABEL);
        }
    }
}

proptest! {
    #[test]
    fn walled_reach_zero_seeded_matches_brute_force(
        (side, density, positions, mask) in arb_walled_layout(),
    ) {
        let walls = BarrierGrid::city_blocks(side, f64::from(density) / 4.0).unwrap();
        let mut seeds = BitSet::new(positions.len());
        for (i, _) in mask.iter().enumerate().filter(|(_, &on)| on) {
            seeds.insert(i);
        }
        // Global radius 0, and a global radius overridden by all-zero
        // per-agent radii (the bucket radius is their maximum, 0).
        let radii = vec![0; positions.len()];
        for contact in [
            WorldContact::new(0, None, Some(&walls)),
            WorldContact::new(5, Some(&radii), Some(&walls)),
        ] {
            assert_seeded_matches_brute(&positions, &seeds, &contact, side);
        }
    }
}
