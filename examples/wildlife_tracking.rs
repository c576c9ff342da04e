//! Wildlife-tracking scenario (ZebraNet-style, paper §1): collared
//! animals exchange logged data opportunistically when they come close;
//! rangers want every collar to eventually carry every log (gossip) and
//! the informed herd to sweep the whole reserve (coverage).
//!
//! Run with `cargo run --release --example wildlife_tracking`.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let side = 64u32; // reserve discretized to a 64×64 grid
    let k = 24usize; // two dozen collared zebras
    let r = 2u32; // short-range radio
    let config = SimConfig::builder(side, k).radius(r).build()?;
    println!(
        "reserve {side}x{side}, {k} collars, radio range {r} (r_c = {:.1})\n",
        config.critical_radius()
    );

    // 1. Gossip: all logs to all collars, with the min-rumors curve
    // recording how the slowest collar catches up.
    let mut rng = SmallRng::seed_from_u64(1337);
    let mut gossip = Simulation::gossip(&config, &mut rng)?;
    let mut curve = sparsegossip::core::MinRumorsCurve::new();
    let g = gossip.run_with(&mut rng, &mut curve);
    match g.gossip_time {
        Some(t) => println!("all {} logs on all collars after {t} steps", g.num_rumors),
        None => println!(
            "gossip incomplete (min {} of {} logs)",
            g.min_rumors, g.num_rumors
        ),
    }
    if let Some(i) = curve.time_to_reach(config.k() as u32 / 2) {
        // Observation i is simulation step i + 1 (placement is step 0).
        println!("slowest collar had half the logs by step {}", i + 1);
    }

    // 2. Coverage: how long until data-carrying animals have swept every
    // cell of the reserve (e.g. for sensing completeness).
    let mut rng = SmallRng::seed_from_u64(1338);
    let cov = Simulation::coverage(&config, &mut rng)?.run(&mut rng);
    println!(
        "broadcast T_B = {:?}, informed-coverage T_C = {:?} ({}/{} cells)",
        cov.broadcast_time, cov.coverage_time, cov.covered, cov.num_nodes
    );
    if let Some(ratio) = cov.ratio() {
        println!("T_C/T_B = {ratio:.2} — Section 4 predicts a small polylog factor");
    }

    // 3. What if only data-carrying animals keep moving? (Frog model —
    // e.g. collars wake animals' trackers only after first contact.)
    let mut rng = SmallRng::seed_from_u64(1339);
    let mut frog = Simulation::frog(&config, &mut rng)?;
    let f = frog.run(&mut rng);
    println!("frog-model broadcast: T_B = {:?}", f.broadcast_time);
    Ok(())
}
