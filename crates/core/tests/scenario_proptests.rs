//! Property tests pinning the scenario layer's central contract: a
//! [`ScenarioSpec`] validates with **exactly** the rules the
//! [`Simulation`] constructors enforce — no spec can build an invalid
//! simulation, and no input the constructors accept is rejected by the
//! spec builder.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sparsegossip_core::{
    Broadcast, ExchangeRule, Infection, Metric, NetworkConfig, ProcessKind, ScenarioSpec,
    SimConfig, SimError, Simulation, WorldConfig, WorldGrid,
};

fn arb_kind() -> impl Strategy<Value = ProcessKind> {
    (0usize..ProcessKind::ALL.len()).prop_map(|i| ProcessKind::ALL[i])
}

/// An optional explicit step cap; 0 encodes "builder default" and the
/// rest shift down so the invalid cap 0 stays reachable.
fn arb_cap() -> impl Strategy<Value = Option<u64>> {
    (0u64..42).prop_map(|x| if x == 0 { None } else { Some(x - 1) })
}

/// Raw, possibly-invalid scenario parameters: sides and agent counts
/// straddle the invalid boundary (0, 1) and sources often exceed `k`.
fn arb_params() -> impl Strategy<Value = (u32, usize, u32, usize)> {
    (0u32..24, 0usize..10, 0u32..60, 0usize..12)
}

/// Raw, possibly-invalid world settings: every numeric axis straddles
/// its valid range (unit intervals overshoot both ends, factors go
/// negative, counts reach 0) so invalid combinations are common.
fn arb_world() -> impl Strategy<Value = WorldConfig> {
    (
        0u32..21,
        0u32..21,
        0u32..21,
        0u32..26,
        0u32..21,
        0u32..4,
        0usize..8,
        any::<bool>(),
    )
        .prop_map(
            |(bd, cr, hf, hx, sf, speed_factor, num_sources, adversarial_sources)| {
                WorldConfig {
                    // Tenth-steps spanning [-0.5, 1.5]: both sides of the
                    // unit interval, hitting 0.0 and 1.0 exactly.
                    barrier_density: f64::from(bd).mul_add(0.1, -0.5),
                    churn_rate: f64::from(cr).mul_add(0.1, -0.5),
                    hetero_fraction: f64::from(hf).mul_add(0.1, -0.5),
                    // Fifth-steps spanning [-1.0, 4.0].
                    hetero_factor: f64::from(hx).mul_add(0.2, -1.0),
                    speed_fraction: f64::from(sf).mul_add(0.1, -0.5),
                    speed_factor,
                    num_sources,
                    adversarial_sources,
                }
            },
        )
}

proptest! {
    /// Pinned both directions, like the axis test below: every world
    /// spec the builder accepts must instantiate through the
    /// constructors, and every rejection must be either the
    /// constructor's own error verbatim or one of the documented
    /// spec-stricter combination gates.
    #[test]
    fn world_spec_validation_equals_constructor_validation(
        kind in arb_kind(),
        side in 4u32..24,
        k in 2usize..10,
        world in arb_world(),
        one_hop in any::<bool>(),
    ) {
        let mut builder = ScenarioSpec::builder(kind, side, k).world(world);
        let one_hop = one_hop && matches!(kind, ProcessKind::Broadcast | ProcessKind::Coverage);
        if one_hop {
            builder = builder.exchange_rule(ExchangeRule::OneHop);
        }
        let axes_active = world.has_barriers()
            || world.has_churn()
            || world.has_hetero_radii()
            || world.has_speed_classes();
        match builder.build() {
            Ok(spec) => {
                // Accepted -> the constructor path accepts it too.
                let mut rng = SmallRng::seed_from_u64(1);
                match kind {
                    ProcessKind::Broadcast => {
                        let built = Simulation::from_spec(&spec, &mut rng).map(|_| ());
                        prop_assert!(
                            built.is_ok(),
                            "buildable world spec rejected by Simulation::from_spec: {:?}",
                            built.unwrap_err()
                        );
                    }
                    ProcessKind::Infection => {
                        prop_assert!(Infection::with_sources(k, world.num_sources).is_ok());
                        prop_assert!(!axes_active, "infection spec accepted world axes");
                    }
                    // Every other kind supports only the trivial world.
                    _ => prop_assert!(spec.world().is_trivial()),
                }
            }
            Err(e) => {
                if let Err(range) = world.validate() {
                    // Range violations are constructor-equivalent:
                    // identical to WorldConfig::validate's own error.
                    prop_assert_eq!(e, range);
                } else {
                    match &e {
                    SimError::SourceOutOfRange { .. } => {
                        // Constructor-equivalent with with_sources.
                        let ctor = match kind {
                            ProcessKind::Broadcast => {
                                Broadcast::with_sources(k, world.num_sources).map(|_| ())
                            }
                            ProcessKind::Infection => {
                                Infection::with_sources(k, world.num_sources).map(|_| ())
                            }
                            other => panic!("source error leaked past {other}'s gate"),
                        };
                        prop_assert_eq!(&e, &ctor.unwrap_err());
                    }
                    SimError::UnsupportedSetting { setting, .. } => {
                        // The documented stricter gates, each reachable
                        // only from its own precondition.
                        // The one-hop gate's message mentions world
                        // axes too — match it first.
                        if setting.contains("one-hop") {
                            prop_assert!(one_hop && kind == ProcessKind::Broadcast);
                            prop_assert!(
                                world.has_barriers()
                                    || world.has_churn()
                                    || world.has_hetero_radii()
                            );
                        } else if setting.contains("world axes") {
                            prop_assert!(kind != ProcessKind::Broadcast && axes_active);
                        } else if setting.contains("source axes") {
                            prop_assert!(!matches!(
                                kind,
                                ProcessKind::Broadcast | ProcessKind::Infection
                            ));
                            prop_assert!(world.num_sources > 1 || world.adversarial_sources);
                        } else {
                            panic!("unexpected unsupported-setting rejection: {e}");
                        }
                    }
                    // A wall density that closes the map: identical to
                    // the constructor's own barrier error.
                    SimError::Grid(_) => {
                        prop_assert_eq!(
                            &e,
                            &WorldGrid::new(side, &world).map(|_| ()).unwrap_err()
                        );
                    }
                    other => panic!("unexpected world rejection: {other}"),
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn spec_validation_equals_simulation_validation(
        kind in arb_kind(),
        (side, k, radius, source) in arb_params(),
        cap in arb_cap(),
    ) {
        let mut spec_builder = ScenarioSpec::builder(kind, side, k)
            .radius(radius)
            .source(source);
        let mut config_builder = SimConfig::builder(side, k).radius(radius).source(source);
        if let Some(cap) = cap {
            spec_builder = spec_builder.max_steps(cap);
            config_builder = config_builder.max_steps(cap);
        }
        let spec = spec_builder.build();
        let config = config_builder.build();
        match (&spec, &config) {
            // Spec and config reject the same inputs with the same
            // error.
            (Err(se), Err(ce)) => prop_assert_eq!(se, ce),
            // The one documented stricter rule reachable from this
            // test's parameter space: infection is contact-only, so
            // the driver would silently force a declared r > 0 to 0 —
            // the spec rejects it instead.
            (Err(SimError::UnsupportedSetting { kind: k_name, .. }), Ok(_)) => {
                prop_assert_eq!(*k_name, "infection");
                prop_assert_eq!(kind, ProcessKind::Infection);
                prop_assert!(radius > 0);
            }
            (Ok(spec), Ok(config)) => {
                prop_assert_eq!(spec.config(), config);
                // A buildable spec always instantiates its simulation:
                // every constructor the spec can route to accepts it.
                let mut rng = SmallRng::seed_from_u64(1);
                let constructed = match kind {
                    ProcessKind::Broadcast => {
                        Simulation::broadcast(config, &mut rng).map(|_| ())
                    }
                    ProcessKind::Gossip => Simulation::gossip(config, &mut rng).map(|_| ()),
                    ProcessKind::Infection => {
                        Simulation::infection(config, &mut rng).map(|_| ())
                    }
                    ProcessKind::Coverage => Simulation::coverage(config, &mut rng).map(|_| ()),
                    ProcessKind::ProtocolBroadcast => {
                        Simulation::protocol_broadcast(config, NetworkConfig::IDEAL, 1, &mut rng)
                            .map(|_| ())
                    }
                };
                prop_assert!(
                    constructed.is_ok(),
                    "{kind}: buildable spec rejected by the constructor: {:?}",
                    constructed.unwrap_err()
                );
            }
            (Ok(_), Err(e)) => panic!("spec accepted input the simulation rejects: {e}"),
            (Err(e), Ok(_)) => panic!("spec rejected input the simulation accepts: {e}"),
        }
    }

    #[test]
    fn with_axes_revalidates_like_a_fresh_build(
        kind in arb_kind(),
        (side, k, radius, source) in arb_params(),
        cap in arb_cap(),
        (side2, k2, radius2) in (1u32..24, 1usize..10, 0u32..60),
    ) {
        let mut builder = ScenarioSpec::builder(kind, side, k).radius(radius).source(source);
        if let Some(cap) = cap {
            builder = builder.max_steps(cap);
        }
        // Only buildable specs can be re-derived.
        if let Ok(spec) = builder.build() {
            let mut fresh =
                ScenarioSpec::builder(kind, side2, k2).radius(radius2).source(source);
            if let Some(cap) = cap {
                fresh = fresh.max_steps(cap);
            }
            match (spec.with_axes(side2, k2, radius2), fresh.build()) {
                (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "with_axes differs from a fresh build"),
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (a, b) => panic!("with_axes {a:?} disagrees with fresh build {b:?}"),
            }
        }
    }

    #[test]
    fn toml_round_trip_preserves_arbitrary_valid_specs(
        kind in arb_kind(),
        side in 1u32..24,
        k in 2usize..10,
        radius in 0u32..60,
        cap in arb_cap(),
        fraction_metric in any::<bool>(),
        frog in any::<bool>(),
        one_hop in any::<bool>(),
        lossy in any::<bool>(),
    ) {
        // Infection is contact-only: nonzero radii are build errors.
        let radius = if kind == ProcessKind::Infection { 0 } else { radius };
        let mut builder = ScenarioSpec::builder(kind, side, k)
            .radius(radius)
            .source(k - 1)
            .metric(if fraction_metric { Metric::Fraction } else { Metric::Time });
        // Only declare settings the kind implements: gossip and the
        // protocol twin support neither, infection has no one-hop
        // exchange, and only the twin takes network faults.
        if frog && !matches!(kind, ProcessKind::Gossip | ProcessKind::ProtocolBroadcast) {
            builder = builder.mobility(sparsegossip_core::Mobility::InformedOnly);
        }
        if lossy && kind == ProcessKind::ProtocolBroadcast {
            builder = builder.network(NetworkConfig::new(0.25, 2, 3, 4).expect("valid network"));
        }
        if one_hop && matches!(kind, ProcessKind::Broadcast | ProcessKind::Coverage) {
            builder = builder.exchange_rule(sparsegossip_core::ExchangeRule::OneHop);
        }
        // Shift the cap away from the invalid 0: this test only wants
        // valid specs.
        if let Some(cap) = cap {
            builder = builder.max_steps(cap + 1);
        }
        let spec = builder.build().expect("parameters are valid by construction");
        let parsed = ScenarioSpec::from_toml_str(&spec.to_toml()).expect("own output parses");
        prop_assert_eq!(spec, parsed);
    }
}
