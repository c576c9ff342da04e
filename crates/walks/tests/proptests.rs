//! Property-based tests for the walk engine and trackers.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_grid::{BarrierGrid, Grid, Point, Topology, Torus};
use sparsegossip_walks::{
    lazy_step, meeting_within, multi_cover, BitSet, RangeTracker, WalkEngine,
};

proptest! {
    #[test]
    fn lazy_step_stays_adjacent_and_in_domain(
        side in 1u32..64, x in 0u32..64, y in 0u32..64, seed in any::<u64>(),
    ) {
        let g = Grid::new(side).unwrap();
        let p = Point::new(x % side, y % side);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..20 {
            let q = lazy_step(&g, p, &mut rng);
            prop_assert!(p.manhattan(q) <= 1);
            prop_assert!(g.contains(q));
        }
    }

    #[test]
    fn lazy_step_on_torus_wraps_legally(
        side in 2u32..32, x in 0u32..32, y in 0u32..32, seed in any::<u64>(),
    ) {
        let t = Torus::new(side).unwrap();
        let mut p = Point::new(x % side, y % side);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..50 {
            let q = lazy_step(&t, p, &mut rng);
            prop_assert!(t.manhattan(p, q) <= 1);
            prop_assert!(t.contains(q));
            p = q;
        }
    }

    #[test]
    fn lazy_step_respects_barriers(
        seed in any::<u64>(), bx in 1u32..10, by in 1u32..10,
    ) {
        let g = BarrierGrid::with_barriers(
            12,
            &[(Point::new(bx, by), Point::new(bx + 1, by + 1))],
        ).unwrap();
        let mut p = Point::new(0, 0);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            p = lazy_step(&g, p, &mut rng);
            prop_assert!(g.is_open(p), "walk entered blocked node {p}");
        }
    }

    #[test]
    fn engine_preserves_agent_count_and_time(
        side in 2u32..32, k in 1usize..32, steps in 0u64..40, seed in any::<u64>(),
    ) {
        let g = Grid::new(side).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut e = WalkEngine::uniform(g, k, &mut rng).unwrap();
        for _ in 0..steps {
            e.step_all(&mut rng);
        }
        prop_assert_eq!(e.len(), k);
        prop_assert_eq!(e.time(), steps);
        prop_assert!(e.positions().iter().all(|p| g.contains(*p)));
    }

    #[test]
    fn masked_step_is_identity_on_unmasked(
        side in 2u32..32, k in 2usize..16, seed in any::<u64>(),
    ) {
        let g = Grid::new(side).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut e = WalkEngine::uniform(g, k, &mut rng).unwrap();
        let mask = BitSet::new(k); // nobody moves
        let before = e.positions().to_vec();
        e.step_with(Some(&mask), &[], &mut rng);
        prop_assert_eq!(e.positions(), &before[..]);
        prop_assert_eq!(e.time(), 1);
    }

    #[test]
    fn range_never_exceeds_steps_plus_one(
        side in 4u32..64, steps in 0u64..500, seed in any::<u64>(),
    ) {
        let g = Grid::new(side).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut p = Point::new(side / 2, side / 2);
        let mut tracker = RangeTracker::new(&g);
        tracker.record(&g, p);
        for _ in 0..steps {
            p = lazy_step(&g, p, &mut rng);
            tracker.record(&g, p);
        }
        prop_assert!(tracker.distinct() <= steps + 1);
        prop_assert!(tracker.distinct() >= 1);
        prop_assert!(tracker.distinct() <= g.num_nodes());
    }

    #[test]
    fn meeting_time_respects_horizon(
        side in 4u32..32,
        ax in 0u32..32, ay in 0u32..32, bx in 0u32..32, by in 0u32..32,
        horizon in 0u64..200, seed in any::<u64>(),
    ) {
        let g = Grid::new(side).unwrap();
        let a = Point::new(ax % side, ay % side);
        let b = Point::new(bx % side, by % side);
        let mut rng = SmallRng::seed_from_u64(seed);
        let trial = meeting_within(&g, a, b, horizon, &mut rng);
        if let Some(t) = trial.meeting_time {
            prop_assert!(t <= horizon || (t == 0 && a == b));
        }
        if a == b {
            prop_assert_eq!(trial.meeting_time, Some(0));
        }
    }

    #[test]
    fn cover_run_counts_are_consistent(
        side in 2u32..12, k in 1usize..8, cap in 0u64..300, seed in any::<u64>(),
    ) {
        let g = Grid::new(side).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        let run = multi_cover(g, k, cap, &mut rng).unwrap();
        prop_assert!(run.covered <= run.num_nodes);
        prop_assert_eq!(run.cover_time.is_some(), run.covered == run.num_nodes);
        if let Some(t) = run.cover_time {
            prop_assert!(t <= cap || t == 0);
        }
        prop_assert!((0.0..=1.0).contains(&run.coverage_fraction()));
    }

    #[test]
    fn bitset_union_is_commutative_and_idempotent(
        xs in proptest::collection::vec(0usize..256, 0..40),
        ys in proptest::collection::vec(0usize..256, 0..40),
    ) {
        let mut a = BitSet::new(256);
        let mut b = BitSet::new(256);
        a.extend(xs.iter().copied());
        b.extend(ys.iter().copied());
        let mut ab = a.clone();
        ab.union_with(&b);
        let mut ba = b.clone();
        ba.union_with(&a);
        prop_assert_eq!(&ab, &ba);
        let mut abb = ab.clone();
        abb.union_with(&b);
        prop_assert_eq!(&abb, &ab);
        prop_assert!(a.is_subset(&ab));
        prop_assert!(b.is_subset(&ab));
        prop_assert_eq!(
            ab.iter_ones().count(),
            xs.iter().chain(&ys).collect::<std::collections::HashSet<_>>().len()
        );
    }
}
