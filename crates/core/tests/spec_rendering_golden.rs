//! Golden `to_toml()` text and `content_hash()` of one spec per process
//! kind at its defaults, of broadcast specs that set every world key and
//! every run setting away from its default, and of a protocol-twin spec
//! that sets every network and fault key away from its default.
//!
//! `ResultStore` records are keyed by `content_hash`, which hashes the
//! rendering, so a byte of drift here orphans every stored result.

use sparsegossip_core::{ExchangeRule, Metric, Mobility, NetworkConfig, ProcessKind, ScenarioSpec};

fn specs() -> Vec<(String, ScenarioSpec)> {
    let mut specs: Vec<(String, ScenarioSpec)> = ProcessKind::ALL
        .into_iter()
        .map(|kind| {
            let spec = ScenarioSpec::builder(kind, 16, 8).build().unwrap();
            (format!("default {kind}"), spec)
        })
        .collect();
    // One-hop exchange rejects walls, churn and mixed radii, and a
    // nonzero source rejects several sources, so the world keys and the
    // run settings take two specs.
    let world = ScenarioSpec::builder(ProcessKind::Broadcast, 48, 24)
        .radius(2)
        .max_steps(12_345)
        .mobility(Mobility::InformedOnly)
        .barrier_density(0.125)
        .churn_rate(0.01)
        .hetero_fraction(0.25)
        .hetero_factor(2.5)
        .speed_fraction(0.5)
        .speed_factor(3)
        .num_sources(4)
        .adversarial_sources(true)
        .build()
        .unwrap();
    specs.push(("broadcast, every world key".to_string(), world));
    let run = ScenarioSpec::builder(ProcessKind::Broadcast, 40, 20)
        .radius(1)
        .source(7)
        .max_steps(999)
        .mobility(Mobility::InformedOnly)
        .exchange_rule(ExchangeRule::OneHop)
        .speed_fraction(0.75)
        .speed_factor(2)
        .adversarial_sources(true)
        .metric(Metric::Fraction)
        .build()
        .unwrap();
    specs.push(("broadcast, every run setting".to_string(), run));
    let twin = ScenarioSpec::builder(ProcessKind::ProtocolBroadcast, 24, 12)
        .radius(3)
        .network(NetworkConfig::new(0.375, 2, 5, 3).unwrap())
        .crash_prob(0.0625)
        .restart_delay(4)
        .partition(10, 6)
        .retransmit(true)
        .anti_entropy_interval(7)
        .build()
        .unwrap();
    specs.push((
        "protocol-broadcast, every network and fault key".to_string(),
        twin,
    ));
    specs
}

#[test]
fn spec_rendering_and_content_hashes_are_pinned() {
    let mut rendered = String::new();
    for (label, spec) in specs() {
        rendered.push_str(&format!(
            "# {label}: content_hash {:016x}\n{}\n",
            spec.content_hash(),
            spec.to_toml()
        ));
        assert_eq!(
            ScenarioSpec::from_toml_str(&spec.to_toml()).unwrap(),
            spec,
            "{label}: the rendering does not parse back"
        );
    }
    assert_eq!(rendered, include_str!("golden/spec_rendering.txt"));
}
