//! Micro-benchmarks of visibility-graph component construction: the
//! spatial-hash path against the O(k²) brute force, across densities,
//! the fresh-allocation path against the scratch-reuse path
//! (`components_into`) that the simulation hot loop uses, and the
//! restricted labellings (seeded, contact-only) against the full one.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use sparsegossip_conngraph::{
    components, components_brute, components_from_seeds_into, components_from_seeds_on,
    components_into, components_on_by, contact_components_on_by, ComponentsScratch, SeededScratch,
    SpatialHash, UniformContact,
};
use sparsegossip_grid::Point;
use sparsegossip_walks::BitSet;
use std::hint::black_box;

fn positions(k: usize, side: u32, seed: u64) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k)
        .map(|_| Point::new(rng.random_range(0..side), rng.random_range(0..side)))
        .collect()
}

fn bench_components(c: &mut Criterion) {
    let side = 512;
    let mut group = c.benchmark_group("visibility_components");
    for &k in &[256usize, 2048, 16384] {
        let pts = positions(k, side, 7);
        // Sub-critical radius: r = sqrt(n/k)/2.
        let r = (((side as f64).powi(2) / k as f64).sqrt() / 2.0) as u32;
        group.bench_with_input(BenchmarkId::new("spatial_hash", k), &k, |b, _| {
            b.iter(|| black_box(components(&pts, r, side)));
        });
        if k <= 2048 {
            group.bench_with_input(BenchmarkId::new("brute_force", k), &k, |b, _| {
                b.iter(|| black_box(components_brute(&pts, r, side)));
            });
        }
    }
    group.finish();
}

/// Fresh `components` (allocating four Vecs plus the spatial hash per
/// call) vs `components_into` with a persistent scratch — the before/
/// after of the zero-allocation hot-path rework, at the sub-critical
/// radius and at the contact-only `r = 0` regime.
fn bench_scratch_reuse(c: &mut Criterion) {
    let side = 512;
    let mut group = c.benchmark_group("components_scratch_reuse");
    for &k in &[256usize, 2048, 16384] {
        let pts = positions(k, side, 7);
        let r = (((side as f64).powi(2) / k as f64).sqrt() / 2.0) as u32;
        group.bench_with_input(BenchmarkId::new("fresh", k), &k, |b, _| {
            b.iter(|| black_box(components(&pts, r, side)));
        });
        group.bench_with_input(BenchmarkId::new("scratch", k), &k, |b, _| {
            let mut scratch = ComponentsScratch::new();
            b.iter(|| {
                black_box(components_into(&mut scratch, &pts, r, side));
            });
        });
        group.bench_with_input(BenchmarkId::new("fresh_r0", k), &k, |b, _| {
            b.iter(|| black_box(components(&pts, 0, side)));
        });
        group.bench_with_input(BenchmarkId::new("scratch_r0", k), &k, |b, _| {
            let mut scratch = ComponentsScratch::new();
            b.iter(|| {
                black_box(components_into(&mut scratch, &pts, 0, side));
            });
        });
    }
    group.finish();
}

/// The frontier-sparse connectivity engine, strategy by strategy: a
/// fresh full build, the scratch-reuse full build, seed-restricted
/// labelling (a small informed set, as in most of a sparse broadcast's
/// lifetime), and seeded labelling over an incrementally maintained
/// hash (`apply_moves` with a lazy-walk-sized move log — the per-step
/// work of the `Simulation` frontier path).
fn bench_components_seeded(c: &mut Criterion) {
    let side = 512;
    let mut group = c.benchmark_group("components_seeded");
    for &k in &[256usize, 2048, 16384] {
        let pts = positions(k, side, 7);
        let r = (((side as f64).powi(2) / k as f64).sqrt() / 2.0) as u32;
        // A 1/64 informed fraction (≥ 1), the sparse-informed regime.
        let mut seeds = BitSet::new(k);
        for s in 0..(k / 64).max(1) {
            seeds.insert(s * 64 % k);
        }
        group.bench_with_input(BenchmarkId::new("fresh", k), &k, |b, _| {
            b.iter(|| black_box(components(&pts, r, side)));
        });
        group.bench_with_input(BenchmarkId::new("scratch", k), &k, |b, _| {
            let mut scratch = ComponentsScratch::new();
            b.iter(|| {
                black_box(components_into(&mut scratch, &pts, r, side));
            });
        });
        group.bench_with_input(BenchmarkId::new("seeded", k), &k, |b, _| {
            let mut scratch = ComponentsScratch::new();
            b.iter(|| {
                black_box(components_from_seeds_into(
                    &mut scratch,
                    &pts,
                    &seeds,
                    r,
                    side,
                ));
            });
        });
        group.bench_with_input(BenchmarkId::new("incremental_hash", k), &k, |b, _| {
            // One lazy step's worth of moves (~4/5 of the agents move
            // one cell), applied forward then backward so the hash
            // returns to `pts` every iteration.
            let mut rng = SmallRng::seed_from_u64(13);
            let mut fwd = Vec::new();
            for (i, &p) in pts.iter().enumerate() {
                let to = match rng.random_range(0u32..5) {
                    0 if p.y + 1 < side => Point::new(p.x, p.y + 1),
                    1 if p.x + 1 < side => Point::new(p.x + 1, p.y),
                    2 if p.y > 0 => Point::new(p.x, p.y - 1),
                    3 if p.x > 0 => Point::new(p.x - 1, p.y),
                    _ => p,
                };
                if to != p {
                    fwd.push((i as u32, p, to));
                }
            }
            let rev: Vec<(u32, Point, Point)> =
                fwd.iter().map(|&(i, from, to)| (i, to, from)).collect();
            let moved: Vec<Point> = {
                let mut v = pts.clone();
                for &(i, _, to) in &fwd {
                    v[i as usize] = to;
                }
                v
            };
            let mut hash = SpatialHash::build(&pts, r, side);
            let mut scratch = SeededScratch::new();
            b.iter(|| {
                hash.apply_moves(&fwd);
                black_box(components_from_seeds_on(
                    &hash,
                    &mut scratch,
                    &moved,
                    &seeds,
                    r,
                ));
                hash.apply_moves(&rev);
                black_box(components_from_seeds_on(
                    &hash,
                    &mut scratch,
                    &pts,
                    &seeds,
                    r,
                ));
            });
        });
    }
    group.finish();
}

/// Contact-only labelling against the full partition over the same
/// prebuilt hash, at the gossip geometry (side 256, k 256): r = 1,
/// where a typical step has a handful of agents in contact, and r = 8,
/// where about 110 are. The hash build is outside the timed loop, so
/// the difference is the labelling alone.
fn bench_components_contact(c: &mut Criterion) {
    let (side, k) = (256, 256usize);
    let pts = positions(k, side, 7);
    let mut group = c.benchmark_group("components_contact");
    for &r in &[1u32, 8] {
        let hash = SpatialHash::build(&pts, r, side);
        group.bench_with_input(BenchmarkId::new("full_on", r), &r, |b, &r| {
            let mut scratch = ComponentsScratch::new();
            b.iter(|| {
                black_box(components_on_by(
                    &hash,
                    &mut scratch,
                    &pts,
                    &UniformContact(r),
                ));
            });
        });
        group.bench_with_input(BenchmarkId::new("contact_on", r), &r, |b, &r| {
            let mut scratch = SeededScratch::new();
            b.iter(|| {
                black_box(contact_components_on_by(
                    &hash,
                    &mut scratch,
                    &pts,
                    &UniformContact(r),
                ));
            });
        });
    }
    group.finish();
}

fn bench_radius_sweep(c: &mut Criterion) {
    let side = 512;
    let k = 4096usize;
    let pts = positions(k, side, 11);
    let mut group = c.benchmark_group("components_by_radius");
    for &r in &[0u32, 4, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(r), &r, |b, &r| {
            b.iter(|| black_box(components(&pts, r, side)));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_components, bench_scratch_reuse, bench_components_seeded,
        bench_components_contact, bench_radius_sweep
}
criterion_main!(benches);
