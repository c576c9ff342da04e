//! A2 — ablation: bounded grid vs torus (boundary sensitivity).
//!
//! The paper's analysis works on the bounded grid via the reflection
//! principle; constants (not shapes) absorb the boundary. Running the
//! identical broadcast on a torus should preserve the `k`-exponent.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_core::{Broadcast, ProcessKind, ScenarioSpec, SimConfig, Simulation};
use sparsegossip_grid::Torus;

use crate::common::{completion_time, fmt_exponent, verdict, ExpCtx};

fn torus_tb(side: u32, k: usize, seed: u64) -> f64 {
    let torus = Torus::new(side).expect("valid side");
    let cap = SimConfig::default_step_cap(side, k);
    let mut rng = SmallRng::seed_from_u64(seed);
    let process = Broadcast::new(k, 0).expect("valid process");
    let mut sim = Simulation::new(torus, k, 0, cap, process, &mut rng).expect("constructible");
    sim.run(&mut rng).broadcast_time.unwrap_or(cap) as f64
}

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(64, 128);
    let ks: Vec<usize> = ctx.pick(vec![8, 16, 32, 64, 128], vec![8, 16, 32, 64, 128, 256]);
    let reps = ctx.pick(8, 16);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let grid = sweep.run(&ks, |&k, seed| {
        completion_time(ScenarioSpec::builder(ProcessKind::Broadcast, side, k), seed)
    });
    let torus = sweep.run(&ks, |&k, seed| torus_tb(side, k, seed));

    let mut table = Table::new(vec![
        "k".into(),
        "grid T_B".into(),
        "torus T_B".into(),
        "torus/grid".into(),
    ]);
    for (g, t) in grid.iter().zip(&torus) {
        table.push_row(vec![
            g.param.to_string(),
            format!("{:.1}", g.summary.mean()),
            format!("{:.1}", t.summary.mean()),
            format!("{:.2}", t.summary.mean() / g.summary.mean()),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = torus.iter().map(|p| p.param as f64).collect();
    let tg: Vec<f64> = grid.iter().map(|p| p.summary.mean()).collect();
    let tt: Vec<f64> = torus.iter().map(|p| p.summary.mean()).collect();
    let fit_g = power_law_fit(&xs, &tg).expect("enough points");
    let fit_t = power_law_fit(&xs, &tt).expect("enough points");
    println!("grid exponent:  {}", fmt_exponent(&fit_g));
    println!("torus exponent: {}", fmt_exponent(&fit_t));
    verdict(
        (fit_g.exponent - fit_t.exponent).abs() < 0.15,
        &format!(
            "exponents agree: grid {:.3} vs torus {:.3}",
            fit_g.exponent, fit_t.exponent
        ),
    )
}
