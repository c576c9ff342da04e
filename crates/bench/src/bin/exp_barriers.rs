//! E19 — mobility barriers (the paper's §4 future-work direction).
//!
//! "We are working now on extending our modeling and analysis
//! techniques to handle more complex planar domains that include both
//! communication and mobility barriers." We quantify the effect: a
//! wall with a narrow gap forces all rumor traffic through a
//! bottleneck, inflating `T_B` relative to the open grid — and the
//! inflation grows as the gap narrows.

use std::process::ExitCode;

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Sweep, Table};
use sparsegossip_bench::{verdict, ExpCtx};
use sparsegossip_core::{Broadcast, SimConfig, Simulation};
use sparsegossip_grid::{BarrierGrid, Point};

/// Broadcast time on a grid with a vertical wall at x = side/2 with a
/// centered gap of the given height (`gap == side` means no wall).
fn tb_with_gap(side: u32, k: usize, gap: u32, seed: u64) -> f64 {
    let cap = SimConfig::default_step_cap(side, k) * 8;
    let mut rng = SmallRng::seed_from_u64(seed);
    let topo = if gap >= side {
        BarrierGrid::new(side).expect("valid side")
    } else {
        let x = side / 2;
        let gap_lo = (side - gap) / 2;
        let gap_hi = gap_lo + gap - 1;
        let mut rects = Vec::new();
        if gap_lo > 0 {
            rects.push((Point::new(x, 0), Point::new(x, gap_lo - 1)));
        }
        if gap_hi + 1 < side {
            rects.push((Point::new(x, gap_hi + 1), Point::new(x, side - 1)));
        }
        let g = BarrierGrid::with_barriers(side, &rects).expect("valid barriers");
        assert!(g.is_connected(), "gap must keep the domain connected");
        g
    };
    let process = Broadcast::new(k, 0).expect("valid process");
    let mut sim = Simulation::new(topo, k, 0, cap, process, &mut rng).expect("constructible");
    sim.run(&mut rng).broadcast_time.unwrap_or(cap) as f64
}

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E19",
        "mobility barriers: broadcast through a wall with a gap (future work, Section 4)",
        "narrower gaps inflate T_B monotonically over the open grid",
    );
    let side: u32 = ctx.pick(64, 96);
    let k: usize = 32;
    let gaps: Vec<u32> = vec![side, side / 2, side / 8, 2];
    let reps = ctx.pick(8, 16);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let points = sweep.run(&gaps, |&gap, seed| tb_with_gap(side, k, gap, seed));

    let open = points[0].summary.mean();
    let mut table = Table::new(vec![
        "gap".into(),
        "mean T_B".into(),
        "ci95".into(),
        "vs open grid".into(),
    ]);
    for p in &points {
        table.push_row(vec![
            if p.param >= side {
                "none".into()
            } else {
                p.param.to_string()
            },
            format!("{:.1}", p.summary.mean()),
            format!("{:.1}", p.summary.ci95_half_width()),
            format!("{:.2}x", p.summary.mean() / open),
        ]);
    }
    println!("{table}");
    println!(
        "(vertical wall at x = {}, centered gap, k = {k}, r = 0)",
        side / 2
    );

    let means: Vec<f64> = points.iter().map(|p| p.summary.mean()).collect();
    let monotone = means.windows(2).all(|w| w[1] >= w[0] * 0.9);
    let worst = means.last().expect("nonempty") / open;
    verdict(
        monotone && worst > 1.5,
        &format!("narrowest gap inflates T_B {worst:.2}x; inflation is monotone in 1/gap"),
    )
}
