//! E8 — Frog-model broadcast time (§4 extension).
//!
//! Claim: with only informed agents moving, the broadcast time obeys
//! the same `Θ̃(n/√k)` bounds (Lemma 3 replaced by Lemma 1 in the
//! argument). Expect a `k`-exponent near −1/2 again, with a larger
//! constant than the fully mobile model.

use std::process::ExitCode;

use sparsegossip_analysis::{power_law_fit, Sweep, Table};
use sparsegossip_bench::{fmt_exponent, measure_broadcast, measure_frog, verdict, ExpCtx};

fn main() -> ExitCode {
    let ctx = ExpCtx::init(
        "E8",
        "Frog model: broadcast time vs k (only informed agents move)",
        "same Theta~(n/sqrt(k)) scaling as the fully mobile model",
    );
    let side: u32 = ctx.pick(64, 128);
    let ks: Vec<usize> = ctx.pick(vec![8, 16, 32, 64, 128], vec![8, 16, 32, 64, 128, 256]);
    let reps = ctx.pick(8, 20);

    let sweep = Sweep::new(ctx.seed).replicates(reps).threads(ctx.threads);
    let frog = sweep.run(&ks, |&k, seed| measure_frog(side, k, 0, seed));
    let free = sweep.run(&ks, |&k, seed| measure_broadcast(side, k, 0, seed));

    let mut table = Table::new(vec![
        "k".into(),
        "frog T_B".into(),
        "mobile T_B".into(),
        "frog/mobile".into(),
    ]);
    for (f, m) in frog.iter().zip(&free) {
        table.push_row(vec![
            f.param.to_string(),
            format!("{:.1}", f.summary.mean()),
            format!("{:.1}", m.summary.mean()),
            format!("{:.2}", f.summary.mean() / m.summary.mean()),
        ]);
    }
    println!("{table}");

    let xs: Vec<f64> = frog.iter().map(|p| p.param as f64).collect();
    let ys: Vec<f64> = frog.iter().map(|p| p.summary.mean()).collect();
    let fit = power_law_fit(&xs, &ys).expect("enough points");
    println!("frog exponent of T_B ~ k^e: e = {}", fmt_exponent(&fit));
    println!("paper: e = -0.5 (up to polylog factors)");
    verdict(
        (fit.exponent + 0.5).abs() < 0.25,
        &format!("measured e = {:.3} vs -0.5", fit.exponent),
    )
}
