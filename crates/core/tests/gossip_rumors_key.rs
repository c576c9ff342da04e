//! The gossip-only `rumors` key: left out, it means one rumor per agent
//! and is not rendered; set, it renders, parses back and runs the
//! paper's general setting of at most k rumors.

use sparsegossip_core::{ProcessKind, ScenarioOutcome, ScenarioSpec, SimError, SpecError};

const GOSSIP: &str = "[scenario]\nprocess = \"gossip\"\nside = 24\nk = 12\nradius = 2\n";

#[test]
fn rumors_render_only_when_set_and_parse_back() {
    let unset = ScenarioSpec::builder(ProcessKind::Gossip, 24, 12)
        .radius(2)
        .build()
        .unwrap();
    assert!(!unset.to_toml().contains("rumors"), "{}", unset.to_toml());
    let set = ScenarioSpec::builder(ProcessKind::Gossip, 24, 12)
        .radius(2)
        .rumors(3)
        .build()
        .unwrap();
    let text = set.to_toml();
    assert!(text.contains("\nrumors = 3\n"), "{text}");
    assert_eq!(ScenarioSpec::from_toml_str(&text).unwrap(), set);
    assert_eq!(
        ScenarioSpec::from_toml_str(&format!("{GOSSIP}rumors = 3\n")).unwrap(),
        set
    );
    assert_ne!(unset.content_hash(), set.content_hash());
}

#[test]
fn rumors_on_another_kind_is_unsupported() {
    for kind in ProcessKind::ALL {
        if kind == ProcessKind::Gossip {
            continue;
        }
        assert_eq!(
            ScenarioSpec::builder(kind, 24, 12)
                .rumors(3)
                .build()
                .unwrap_err(),
            SimError::UnsupportedSetting {
                kind: kind.as_str(),
                setting: "rumors",
            },
            "{kind}"
        );
    }
    let text = "[scenario]\nprocess = \"broadcast\"\nside = 24\nk = 12\nrumors = 3\n";
    assert!(matches!(
        ScenarioSpec::from_toml_str(text),
        Err(SpecError::Sim(SimError::UnsupportedSetting {
            setting: "rumors",
            ..
        }))
    ));
}

#[test]
fn rumor_counts_outside_one_to_k_fail_at_build() {
    for (rumors, message) in [
        (0, "rumor count 0 must be in 1..=4"),
        (5, "rumor count 5 must be in 1..=4"),
    ] {
        let e = ScenarioSpec::builder(ProcessKind::Gossip, 16, 4)
            .rumors(rumors)
            .build()
            .unwrap_err();
        assert_eq!(
            e,
            SimError::RumorCountOutOfRange {
                num_rumors: rumors,
                k: 4
            }
        );
        assert_eq!(e.to_string(), message);
    }
    // Too few agents is the constructor's error, as without the key.
    assert_eq!(
        ScenarioSpec::builder(ProcessKind::Gossip, 16, 1)
            .rumors(1)
            .build()
            .unwrap_err(),
        SimError::TooFewAgents { k: 1 }
    );
}

/// `gossip --side 24 --k 12 --radius 2 --seed 3 --rumors 3` completes at
/// T_G 427 with 3 rumors (the CLI golden).
#[test]
fn rumors_spec_reproduces_the_cli_golden() {
    let spec = ScenarioSpec::from_toml_str(&format!("{GOSSIP}rumors = 3\n")).unwrap();
    let ScenarioOutcome::Gossip(out) = spec.run_outcome(3) else {
        panic!("gossip spec ran another process");
    };
    assert_eq!(
        (out.gossip_time, out.min_rumors, out.num_rumors),
        (Some(427), 3, 3)
    );
}
