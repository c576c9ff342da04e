//! A1 — ablation: instantaneous component flooding vs one-hop spread.
//!
//! The paper assumes a rumor floods its whole component of `G_t(r)`
//! within a step (radio ≫ motion). Below the percolation point the
//! components are `O(log)`-sized islands (Lemma 6), so restricting the
//! rumor to a single hop per step should barely change `T_B`. Above
//! the percolation point the assumption matters enormously.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_analysis::{Sweep, Table};
use sparsegossip_core::{ExchangeRule, SimConfig, Simulation};

use crate::common::{verdict, ExpCtx};

fn tb_with_rule(side: u32, k: usize, r: u32, rule: ExchangeRule, seed: u64) -> f64 {
    let config = SimConfig::builder(side, k)
        .radius(r)
        .exchange_rule(rule)
        .build()
        .expect("valid config");
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sim = Simulation::broadcast(&config, &mut rng).expect("constructible");
    sim.run(&mut rng)
        .broadcast_time
        .unwrap_or(config.max_steps()) as f64
}

pub fn run(ctx: &ExpCtx) -> bool {
    let side: u32 = ctx.pick(96, 128);
    let k: usize = 64;
    let n = f64::from(side) * f64::from(side);
    let rc = (n / k as f64).sqrt();
    let radii: Vec<u32> = [0.0f64, 0.25, 0.5, 2.0, 3.0]
        .iter()
        .map(|f| (f * rc).round() as u32)
        .collect();
    let reps = ctx.pick(8, 16);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let flood = sweep.run(&radii, |&r, seed| {
        tb_with_rule(side, k, r, ExchangeRule::Component, seed)
    });
    let onehop = sweep.run(&radii, |&r, seed| {
        tb_with_rule(side, k, r, ExchangeRule::OneHop, seed)
    });

    let mut table = Table::new(vec![
        "r".into(),
        "r/r_c".into(),
        "T_B flood".into(),
        "T_B one-hop".into(),
        "one-hop/flood".into(),
    ]);
    let mut sub_ratio: f64 = 1.0;
    let mut super_ratio: f64 = 1.0;
    for (f, o) in flood.iter().zip(&onehop) {
        let ratio = o.summary.mean() / f.summary.mean();
        let frac = f64::from(f.param) / rc;
        if frac <= 0.5 {
            sub_ratio = sub_ratio.max(ratio);
        }
        if frac >= 2.0 {
            super_ratio = super_ratio.max(ratio);
        }
        table.push_row(vec![
            f.param.to_string(),
            format!("{frac:.2}"),
            format!("{:.1}", f.summary.mean()),
            format!("{:.1}", o.summary.mean()),
            format!("{ratio:.2}"),
        ]);
    }
    println!("{table}");
    println!(
        "sub-critical worst ratio: {sub_ratio:.2}; super-critical worst ratio: {super_ratio:.2}"
    );
    verdict(
        sub_ratio < 2.0 && super_ratio > sub_ratio,
        &format!(
            "below r_c one-hop costs {sub_ratio:.2}x (small); above r_c it costs {super_ratio:.2}x"
        ),
    )
}
