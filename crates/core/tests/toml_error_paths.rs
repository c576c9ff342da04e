//! Error-path coverage for the TOML subset parser: unknown sections,
//! type mismatches and malformed arrays must fail with errors that
//! point at the offending section/key — and, for syntax errors, at the
//! exact 1-based line number — so a broken spec file is debuggable
//! from the message alone.

use sparsegossip_core::toml::{TomlDoc, TomlError};
use sparsegossip_core::{ScenarioSpec, SpecError};

#[test]
fn requesting_an_absent_section_reports_it_by_name() {
    let doc = TomlDoc::parse("[other]\nx = 1\n").unwrap();
    let err = doc.section("scenario").unwrap_err();
    assert_eq!(err, TomlError::MissingSection("scenario".to_string()));
    assert_eq!(err.to_string(), "spec is missing the [scenario] section");
    assert!(doc.opt_section("scenario").is_none());
    assert!(doc.opt_section("other").is_some());
}

#[test]
fn type_mismatches_report_section_key_and_expectation() {
    let doc =
        TomlDoc::parse("[scenario]\nside = \"eight\"\nk = 4.5\nname = 7\nflag = 3\nprobs = 1.0\n")
            .unwrap();
    let table = doc.section("scenario").unwrap();
    let cases: [(TomlError, &str); 5] = [
        (
            table.need_u32("side").unwrap_err(),
            "spec key \"side\" in [scenario] must be a non-negative integer fitting u32",
        ),
        (
            table.need_usize("k").unwrap_err(),
            "spec key \"k\" in [scenario] must be a non-negative integer",
        ),
        (
            table.need_str("name").unwrap_err(),
            "spec key \"name\" in [scenario] must be a string",
        ),
        (
            table.opt_bool("flag").unwrap_err(),
            "spec key \"flag\" in [scenario] must be a boolean",
        ),
        (
            table.opt_f64_array("probs").unwrap_err(),
            "spec key \"probs\" in [scenario] must be an array of numbers",
        ),
    ];
    for (err, display) in cases {
        assert!(
            matches!(err, TomlError::BadValue { .. }),
            "expected BadValue, got {err:?}"
        );
        assert_eq!(err.to_string(), display);
    }
    // Negative integers never fit unsigned accessors.
    let doc = TomlDoc::parse("[scenario]\nside = -3\n").unwrap();
    let table = doc.section("scenario").unwrap();
    assert!(matches!(
        table.opt_u32("side"),
        Err(TomlError::BadValue { .. })
    ));
}

#[test]
fn mixed_element_arrays_are_type_mismatches() {
    let doc = TomlDoc::parse("[sweep]\nsides = [1, \"two\", 3]\nprobs = [0.5, true]\n").unwrap();
    let table = doc.section("sweep").unwrap();
    assert!(matches!(
        table.opt_u32_array("sides"),
        Err(TomlError::BadValue { .. })
    ));
    assert!(matches!(
        table.opt_f64_array("probs"),
        Err(TomlError::BadValue { .. })
    ));
}

/// Malformed text must report the exact 1-based line it broke on.
#[test]
fn syntax_errors_carry_the_offending_line_number() {
    let cases = [
        // (spec text, expected failing line)
        ("[scenario]\nside = 8\nradii = [1, 2\n", 3),
        ("[scenario]\nk =\n", 2),
        ("side = 8\n", 1),
        ("[scenario]\nside = 8\n[scenario]\nk = 4\n", 3),
        ("[scenario]\nside = 8\nside = 9\n", 3),
        ("[scenario\nside = 8\n", 1),
        ("[scenario]\n\n\nvalue = \"unterminated\n", 4),
    ];
    for (text, expected_line) in cases {
        match TomlDoc::parse(text) {
            Err(TomlError::Syntax { line, message }) => {
                assert_eq!(
                    line, expected_line,
                    "{text:?} should fail on line {expected_line}, failed on {line}: {message}"
                );
                let rendered = TomlError::Syntax {
                    line,
                    message: message.clone(),
                }
                .to_string();
                assert!(
                    rendered.starts_with(&format!("spec line {expected_line}: ")),
                    "display must lead with the line number: {rendered}"
                );
            }
            other => panic!("{text:?} should be a syntax error, got {other:?}"),
        }
    }
}

/// Every world key rejects type mismatches by key name, out-of-range
/// values through spec validation, and malformed lines with the exact
/// 1-based line number.
#[test]
fn world_keys_report_bad_values_ranges_and_line_numbers() {
    let spec = |tail: &str| format!("[scenario]\nprocess = \"broadcast\"\nside = 8\nk = 4\n{tail}");
    // Type mismatches name the offending world key.
    for key in [
        "barrier_density",
        "churn_rate",
        "hetero_fraction",
        "hetero_factor",
        "speed_fraction",
    ] {
        let err = ScenarioSpec::from_toml_str(&spec(&format!("{key} = \"lots\"\n"))).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Toml(TomlError::BadValue { key: ref k, .. }) if k == key
            ),
            "{key}: {err:?}"
        );
    }
    for (key, bad) in [
        ("speed_factor", "2.5"),
        ("num_sources", "-1"),
        ("adversarial_sources", "1"),
    ] {
        let err = ScenarioSpec::from_toml_str(&spec(&format!("{key} = {bad}\n"))).unwrap_err();
        assert!(
            matches!(
                err,
                SpecError::Toml(TomlError::BadValue { key: ref k, .. }) if k == key
            ),
            "{key}: {err:?}"
        );
    }
    // Out-of-range values surface as validation errors naming the key.
    for (tail, key) in [
        ("barrier_density = 1.5\n", "barrier_density"),
        ("churn_rate = -0.1\n", "churn_rate"),
        ("hetero_fraction = 2.0\n", "hetero_fraction"),
        ("hetero_factor = -1.0\n", "hetero_factor"),
        ("speed_factor = 0\n", "speed_factor"),
        ("num_sources = 0\n", "num_sources"),
    ] {
        let err = ScenarioSpec::from_toml_str(&spec(tail)).unwrap_err();
        assert!(err.to_string().contains(key), "{tail}: {err}");
    }
    // A sweep-only axis key in [scenario] is an unknown key.
    let err = ScenarioSpec::from_toml_str(&spec("churn_rates = [0.1]\n")).unwrap_err();
    assert!(
        matches!(err, SpecError::UnknownKey { ref key, .. } if key == "churn_rates"),
        "{err:?}"
    );
    // Malformed barrier/churn lines keep the 1-based line number.
    for (tail, line) in [
        ("barrier_density = [0.1,\n", 5),
        ("churn_rate =\n", 5),
        ("barrier_density = 0.1\nchurn_rate = \"unterminated\n", 6),
    ] {
        match ScenarioSpec::from_toml_str(&spec(tail)) {
            Err(SpecError::Toml(TomlError::Syntax { line: got, .. })) => {
                assert_eq!(got, line, "{tail:?}");
            }
            other => panic!("{tail:?} should be a syntax error, got {other:?}"),
        }
    }
}

/// The scenario layer surfaces parser errors verbatim, so the line
/// number survives up to the user-facing message.
#[test]
fn scenario_parsing_preserves_line_numbers_and_bad_values() {
    let err = ScenarioSpec::from_toml_str("[scenario]\nprocess = \"broadcast\"\nside = [8]\n")
        .unwrap_err();
    assert!(
        matches!(
            err,
            SpecError::Toml(TomlError::BadValue { ref key, .. }) if key == "side"
        ),
        "got {err:?}"
    );
    let err =
        ScenarioSpec::from_toml_str("[scenario]\nprocess = \"broadcast\"\nside 8\n").unwrap_err();
    match err {
        SpecError::Toml(TomlError::Syntax { line, .. }) => assert_eq!(line, 3),
        other => panic!("expected a line-numbered syntax error, got {other:?}"),
    }
    assert!(err.to_string().contains("line 3"));
}

/// A "must be" message reads as a sentence: each expectation carries
/// its own article, in TOML and in `SimError` setting messages alike.
#[test]
fn bad_value_messages_carry_their_article() {
    for (spec, message) in [
        (
            "process = \"protocol-broadcast\"\ngossip_interval = 0\n",
            "spec key \"gossip_interval\" in [scenario] must be an integer >= 1",
        ),
        (
            "process = \"broadcast\"\nspeed_factor = 0\n",
            "world setting \"speed_factor\" must be an integer >= 1",
        ),
    ] {
        let text = format!("[scenario]\nside = 8\nk = 4\n{spec}");
        let err = ScenarioSpec::from_toml_str(&text).unwrap_err();
        assert_eq!(err.to_string(), message);
    }
}
