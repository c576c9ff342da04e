//! E4 — island sizes below the percolation parameter (Lemma 6).
//!
//! Claim: with `γ = √(n/(4e⁶k))` no island of `G_t(γ)` exceeds `log n`
//! agents over `8n log²n` steps, w.h.p. The proof constant `4e⁶` is far
//! from tight, so we sweep γ as a fraction of `√(n/k)` and check that
//! sub-critical maxima stay `O(log n)` while super-critical ones grow
//! to `Θ(k)`.

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Sweep, Table};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_conngraph::IslandSampler;
use sparsegossip_grid::Grid;
use sparsegossip_walks::WalkEngine;

fn max_island_over_time(side: u32, k: usize, gamma: u32, steps: u64, seed: u64) -> f64 {
    let grid = Grid::new(side).expect("valid side");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut engine = WalkEngine::uniform(grid, k, &mut rng).expect("agents");
    let mut sampler = IslandSampler::new(gamma, side);
    sampler.observe(engine.positions());
    for _ in 0..steps {
        engine.step_all(&mut rng);
        sampler.observe(engine.positions());
    }
    sampler.max_island_ever() as f64
}

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E4",
        "maximum island size vs island parameter gamma (Lemma 6)",
        "below ~sqrt(n/k): max island O(log n); above: giant Theta(k) islands",
    );
    let side: u32 = ctx.pick(128, 192);
    let k: usize = ctx.pick(256, 512);
    let steps: u64 = ctx.pick(300, 1500);
    let reps = ctx.pick(6, 16);
    let n = f64::from(side) * f64::from(side);
    let log_n = n.ln();
    let rc = (n / k as f64).sqrt();
    let fracs = [0.1f64, 0.25, 0.5, 0.75, 1.0, 1.5, 2.0];
    let gammas: Vec<u32> = fracs
        .iter()
        .map(|f| (f * rc).round().max(0.0) as u32)
        .collect();

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&gammas, |&g, seed| {
        max_island_over_time(side, k, g, steps, seed)
    });

    let mut table = Table::new(vec![
        "gamma".into(),
        "gamma/sqrt(n/k)".into(),
        "max island (mean)".into(),
        "max island / ln n".into(),
        "max island / k".into(),
    ]);
    for p in &points {
        table.push_row(vec![
            p.param.to_string(),
            format!("{:.2}", f64::from(p.param) / rc),
            format!("{:.1}", p.summary.mean()),
            format!("{:.2}", p.summary.mean() / log_n),
            format!("{:.3}", p.summary.mean() / k as f64),
        ]);
    }
    println!("{table}");
    println!("n = {n:.0}, ln n = {log_n:.1}, k = {k}, sqrt(n/k) = {rc:.1}, {steps} steps/run");

    // Island-size distribution snapshot at the critical scale.
    {
        use rand::RngExt;
        use sparsegossip_analysis::Histogram;
        use sparsegossip_conngraph::{components, DegreeStats};
        use sparsegossip_grid::Point;
        let gamma = rc.round() as u32;
        let mut rng = SmallRng::seed_from_u64(ctx.seed ^ 0x15);
        let mut hist = Histogram::new(0.0, 32.0, 8).expect("valid histogram");
        let mut deg_total = 0.0;
        let snapshots = 50;
        for _ in 0..snapshots {
            let pts: Vec<Point> = (0..k)
                .map(|_| Point::new(rng.random_range(0..side), rng.random_range(0..side)))
                .collect();
            let c = components(&pts, gamma, side);
            for comp in 0..c.count() {
                hist.record(c.size(comp) as f64);
            }
            deg_total += DegreeStats::compute(&pts, gamma, side).mean_degree;
        }
        println!(
            "\nisland-size distribution at gamma = sqrt(n/k) = {gamma} ({snapshots} snapshots):"
        );
        print!("{}", hist.render(40));
        println!(
            "mean visibility degree at gamma: {:.2} (interior expectation {:.2})",
            deg_total / f64::from(snapshots),
            DegreeStats::expected_mean_degree(gamma, k, n as u64),
        );
    }

    // Sub-critical (≤ 0.25·rc) maxima should be a small multiple of
    // ln n; super-critical (≥ 1.5·rc) should engulf a constant fraction
    // of all agents.
    let sub = points
        .iter()
        .filter(|p| f64::from(p.param) <= 0.25 * rc)
        .map(|p| p.summary.mean())
        .fold(f64::MIN, f64::max);
    let sup = points
        .iter()
        .filter(|p| f64::from(p.param) >= 1.5 * rc)
        .map(|p| p.summary.mean())
        .fold(f64::MIN, f64::max);
    verdict(
        sub <= 4.0 * log_n && sup >= 0.5 * k as f64,
        &format!(
            "sub-critical max {:.1} <= 4 ln n = {:.1}; super-critical max {:.1} >= k/2 = {}",
            sub,
            4.0 * log_n,
            sup,
            k / 2
        ),
    )
}
