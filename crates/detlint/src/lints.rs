//! The lint catalog: project invariants as typed, path-scoped token
//! patterns.
//!
//! Every lint guards a contract the runtime test suites enforce only by
//! sampling (one seed, one code path at a time):
//!
//! * [`LintId::NondetMap`] — byte-reproducible runs and the FNV-1a
//!   event-log hash assume deterministic iteration everywhere; std's
//!   hashed collections randomize theirs.
//! * [`LintId::WallClock`] — outcomes must be pure functions of
//!   (spec, seed); wall-clock reads belong to the bench/CLI tier only.
//! * [`LintId::UnseededRng`] — every RNG stream must descend from an
//!   explicit seed; OS-entropy constructors break replay.
//! * [`LintId::HotAlloc`] — regions marked `// detlint: hot` are the
//!   0-allocs/step paths pinned by the counting allocator; allocating
//!   constructs there defeat the scratch-buffer design.
//! * [`LintId::Panic`] — library code surfaces failures as
//!   `SimError`; panics are for provably unreachable states, and each
//!   one must name its invariant in an allow annotation.
//! * [`LintId::Annotation`] — the escape hatch polices itself:
//!   malformed, reason-less or unused `detlint:` annotations are
//!   findings too.

use crate::lexer::Tok;

/// A lint class (stable string ids appear in findings, annotations and
/// baselines).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum LintId {
    /// D1: `HashMap`/`HashSet` in deterministic crates.
    NondetMap,
    /// D2: `Instant::now`/`SystemTime` outside bench/cli.
    WallClock,
    /// D3: `thread_rng`/`from_entropy`/`rand::random` anywhere.
    UnseededRng,
    /// A1: allocating constructs inside `// detlint: hot` regions.
    HotAlloc,
    /// P1: `unwrap`/`expect`/`panic!` in library code outside tests.
    Panic,
    /// Meta: malformed, reason-less or unused `detlint:` annotations.
    Annotation,
}

impl LintId {
    /// All lints, in reporting order.
    pub const ALL: [LintId; 6] = [
        LintId::NondetMap,
        LintId::WallClock,
        LintId::UnseededRng,
        LintId::HotAlloc,
        LintId::Panic,
        LintId::Annotation,
    ];

    /// The stable id used in annotations, baselines and reports.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            LintId::NondetMap => "nondet-map",
            LintId::WallClock => "wall-clock",
            LintId::UnseededRng => "unseeded-rng",
            LintId::HotAlloc => "hot-alloc",
            LintId::Panic => "panic",
            LintId::Annotation => "annotation",
        }
    }

    /// Parses a stable id (as written in `allow(...)` annotations).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|l| l.as_str() == s)
    }

    /// One-line contract statement shown in reports.
    #[must_use]
    pub fn contract(self) -> &'static str {
        match self {
            LintId::NondetMap => {
                "std::collections::Hash{Map,Set} iterate in a randomized order; \
                 deterministic crates must use Vec/BTreeMap or justify the use"
            }
            LintId::WallClock => {
                "wall-clock reads are forbidden outside bench/cli: outcomes must be \
                 pure functions of (spec, seed)"
            }
            LintId::UnseededRng => {
                "every RNG stream must descend from an explicit seed; \
                 OS-entropy constructors break byte-reproducible replay"
            }
            LintId::HotAlloc => {
                "allocating construct inside a `// detlint: hot` region — the \
                 0-allocs/step paths must go through persistent scratch buffers"
            }
            LintId::Panic => {
                "library code surfaces failures as SimError; a panic is only for a \
                 provably unreachable state and must name its invariant in an allow"
            }
            LintId::Annotation => "detlint annotation is malformed, reason-less or unused",
        }
    }

    /// Whether the lint applies to the workspace-relative `path`
    /// (forward-slash form). Region conditions (hot, `#[cfg(test)]`)
    /// are applied separately by the scanner.
    #[must_use]
    pub fn in_scope(self, path: &str) -> bool {
        /// Crates whose `src/` trees carry the determinism and
        /// panic-surface contracts (the simulation pipeline proper).
        const DET_SRC: [&str; 5] = [
            "crates/walks/src/",
            "crates/conngraph/src/",
            "crates/core/src/",
            "crates/protocol/src/",
            "crates/analysis/src/",
        ];
        let in_det_src = DET_SRC.iter().any(|p| path.starts_with(p));
        match self {
            LintId::NondetMap => in_det_src,
            LintId::WallClock => {
                !path.starts_with("crates/bench/") && !path.starts_with("crates/cli/")
            }
            LintId::UnseededRng | LintId::HotAlloc | LintId::Annotation => true,
            LintId::Panic => {
                in_det_src || path.starts_with("crates/grid/src/") || path == "src/lib.rs"
            }
        }
    }
}

/// One element of a token pattern.
enum Pat {
    /// An exact identifier.
    I(&'static str),
    /// An exact punctuation byte.
    P(char),
}

/// A forbidden construct: the lint it violates, the pattern that
/// detects it, and the display form reported in findings.
pub struct Rule {
    /// The violated lint.
    pub lint: LintId,
    /// Rendered form of the construct (`Instant::now`, `.unwrap()`, …).
    pub what: &'static str,
    pat: &'static [Pat],
}

/// The rule table. Matching is purely token-sequence based — `::`
/// lexes as two `:` tokens, method calls as `.` + identifier — so
/// formatting, turbofish and spacing cannot hide a hit.
pub const RULES: &[Rule] = &[
    Rule {
        lint: LintId::NondetMap,
        what: "HashMap",
        pat: &[Pat::I("HashMap")],
    },
    Rule {
        lint: LintId::NondetMap,
        what: "HashSet",
        pat: &[Pat::I("HashSet")],
    },
    Rule {
        lint: LintId::WallClock,
        what: "Instant::now",
        pat: &[Pat::I("Instant"), Pat::P(':'), Pat::P(':'), Pat::I("now")],
    },
    Rule {
        lint: LintId::WallClock,
        what: "SystemTime",
        pat: &[Pat::I("SystemTime")],
    },
    Rule {
        lint: LintId::UnseededRng,
        what: "thread_rng",
        pat: &[Pat::I("thread_rng")],
    },
    Rule {
        lint: LintId::UnseededRng,
        what: "from_entropy",
        pat: &[Pat::I("from_entropy")],
    },
    Rule {
        lint: LintId::UnseededRng,
        what: "rand::random",
        pat: &[Pat::I("rand"), Pat::P(':'), Pat::P(':'), Pat::I("random")],
    },
    Rule {
        lint: LintId::HotAlloc,
        what: "Vec::new",
        pat: &[Pat::I("Vec"), Pat::P(':'), Pat::P(':'), Pat::I("new")],
    },
    Rule {
        lint: LintId::HotAlloc,
        what: "vec![",
        pat: &[Pat::I("vec"), Pat::P('!')],
    },
    Rule {
        lint: LintId::HotAlloc,
        what: ".collect()",
        pat: &[Pat::P('.'), Pat::I("collect")],
    },
    Rule {
        lint: LintId::HotAlloc,
        what: "Box::new",
        pat: &[Pat::I("Box"), Pat::P(':'), Pat::P(':'), Pat::I("new")],
    },
    Rule {
        lint: LintId::HotAlloc,
        what: "format!",
        pat: &[Pat::I("format"), Pat::P('!')],
    },
    Rule {
        lint: LintId::HotAlloc,
        what: ".to_vec()",
        pat: &[Pat::P('.'), Pat::I("to_vec")],
    },
    Rule {
        lint: LintId::Panic,
        what: ".unwrap()",
        pat: &[Pat::P('.'), Pat::I("unwrap"), Pat::P('(')],
    },
    Rule {
        lint: LintId::Panic,
        what: ".expect()",
        pat: &[Pat::P('.'), Pat::I("expect"), Pat::P('(')],
    },
    Rule {
        lint: LintId::Panic,
        what: "panic!",
        pat: &[Pat::I("panic"), Pat::P('!')],
    },
];

/// Token offsets (within a line) at which `rule` matches.
pub fn matches_at(rule: &Rule, toks: &[Tok]) -> Vec<usize> {
    let mut hits = Vec::new();
    if toks.len() < rule.pat.len() {
        return hits;
    }
    'outer: for start in 0..=(toks.len() - rule.pat.len()) {
        for (off, p) in rule.pat.iter().enumerate() {
            let ok = match (p, &toks[start + off]) {
                (Pat::I(want), Tok::Ident(have)) => want == have,
                (Pat::P(want), Tok::Punct(have)) => want == have,
                _ => false,
            };
            if !ok {
                continue 'outer;
            }
        }
        hits.push(start);
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn hits(rule_what: &str, src: &str) -> usize {
        let rule = RULES.iter().find(|r| r.what == rule_what).unwrap();
        lex(src)
            .iter()
            .map(|l| matches_at(rule, &l.toks).len())
            .sum()
    }

    #[test]
    fn method_rules_do_not_match_lookalike_idents() {
        assert_eq!(hits(".unwrap()", "x.unwrap_or(0); y.unwrap_or_else(f);"), 0);
        assert_eq!(hits(".unwrap()", "x.unwrap()"), 1);
        assert_eq!(hits(".expect()", "x.expect_err(\"e\")"), 0);
        assert_eq!(hits(".collect()", "xs.collect::<Vec<_>>()"), 1);
        assert_eq!(hits(".to_vec()", "positions.to_vec()"), 1);
    }

    #[test]
    fn path_rules_span_token_gaps() {
        assert_eq!(
            hits("Instant::now", "let t = std::time::Instant::now();"),
            1
        );
        assert_eq!(hits("Instant::now", "use std::time::Instant;"), 0);
        assert_eq!(hits("rand::random", "let x: u8 = rand::random();"), 1);
        assert_eq!(
            hits("rand::random", "let x = rand::rngs::SmallRng::f();"),
            0
        );
    }

    #[test]
    fn macro_rules_match_bang_forms() {
        assert_eq!(hits("panic!", "core::panic!(\"boom\")"), 1);
        assert_eq!(hits("panic!", "assert!(cond)"), 0);
        assert_eq!(hits("vec![", "let v = vec![1, 2];"), 1);
        assert_eq!(hits("format!", "let s = format!(\"x\");"), 1);
    }

    #[test]
    fn scopes_match_the_contract_tiers() {
        assert!(LintId::NondetMap.in_scope("crates/core/src/lib.rs"));
        assert!(!LintId::NondetMap.in_scope("crates/grid/src/grid.rs"));
        assert!(!LintId::NondetMap.in_scope("crates/walks/tests/proptests.rs"));
        assert!(!LintId::WallClock.in_scope("crates/bench/src/bin/exp_tb_vs_n.rs"));
        assert!(!LintId::WallClock.in_scope("crates/cli/src/main.rs"));
        assert!(LintId::WallClock.in_scope("crates/core/src/process.rs"));
        assert!(LintId::UnseededRng.in_scope("examples/demo.rs"));
        assert!(LintId::Panic.in_scope("crates/grid/src/grid.rs"));
        assert!(LintId::Panic.in_scope("src/lib.rs"));
        assert!(!LintId::Panic.in_scope("src/bin/exp_sweep.rs"));
        assert!(!LintId::Panic.in_scope("crates/cli/src/commands.rs"));
        assert!(!LintId::Panic.in_scope("crates/detlint/src/main.rs"));
    }

    #[test]
    fn lint_ids_round_trip() {
        for l in LintId::ALL {
            assert_eq!(LintId::parse(l.as_str()), Some(l));
        }
        assert_eq!(LintId::parse("bogus"), None);
    }
}
