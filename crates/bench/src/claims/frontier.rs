//! E15 — frontier advance of the informed area (Theorem 2 machinery).
//!
//! The lower-bound proof shows the rightmost informed x-coordinate
//! advances at most `(γ log n)/2` per `γ²/(144 log n)` steps below the
//! percolation point (γ ≈ √(n/k)-scale), i.e. the frontier speed is
//! `Õ(√k/√n · polylog)` per step. We track the frontier of actual runs
//! and check its average speed is far below the naive ballistic rate
//! and consistent with `T_B = Ω̃(n/√k)`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Summary, Table};
use sparsegossip_core::theory::broadcast_lower_bound_shape;
use sparsegossip_core::{FrontierTracker, SimConfig, Simulation};

use crate::common::{verdict, ExpCtx};

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(128, 192);
    let k: usize = 64;
    let n = f64::from(side) * f64::from(side);
    let reps: u64 = ctx.pick(8, 16);

    let mut speeds = Vec::new();
    let mut tbs = Vec::new();
    for i in 0..reps {
        let config = SimConfig::builder(side, k)
            .radius(0)
            .build()
            .expect("valid");
        let mut rng = SmallRng::seed_from_u64(ctx.seed ^ (0xF0 + i));
        let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible");
        let mut tracker = FrontierTracker::new();
        let out = sim.run_with(&mut rng, &mut tracker);
        let tb = out.broadcast_time.unwrap_or(config.max_steps());
        let f = tracker.frontier();
        if let (Some(&first), Some(&last)) = (f.first(), f.last()) {
            let advance = f64::from(last.saturating_sub(first));
            speeds.push(advance / f.len() as f64);
        }
        tbs.push(tb as f64);
    }
    let speed = Summary::from_slice(&speeds);
    let tb = Summary::from_slice(&tbs);

    let mut table = Table::new(vec!["quantity".into(), "value".into()]);
    table.push_row(vec![
        "mean frontier speed (nodes/step)".into(),
        format!("{:.5}", speed.mean()),
    ]);
    table.push_row(vec!["ballistic walk speed bound".into(), "0.8".into()]);
    table.push_row(vec![
        "theory speed scale sqrt(k)/sqrt(n)".into(),
        format!("{:.5}", (k as f64).sqrt() / n.sqrt()),
    ]);
    table.push_row(vec!["mean T_B".into(), format!("{:.0}", tb.mean())]);
    table.push_row(vec![
        "Theorem 2 floor n/(sqrt(k) ln^2 n)".into(),
        format!("{:.0}", broadcast_lower_bound_shape(n, k as f64)),
    ]);
    println!("{table}");

    // Two checks: frontier is much slower than ballistic, and measured
    // T_B respects the Theorem 2 lower bound.
    let floor = broadcast_lower_bound_shape(n, k as f64);
    let subballistic = speed.mean() < 0.1;
    let above_floor = tb.mean() >= floor;
    verdict(
        subballistic && above_floor,
        &format!(
            "frontier speed {:.5} << 0.8; mean T_B {:.0} >= lower-bound shape {:.0}",
            speed.mean(),
            tb.mean(),
            floor
        ),
    )
}
