//! Minimal `--key value` argument parsing for the CLI.
//!
//! Kept dependency-free on purpose: the workspace's only external
//! dependencies are the ones justified in `DESIGN.md`.

use core::fmt;
use std::collections::BTreeMap;

/// A parsed command line: a subcommand name plus `--key value` options
/// and bare `--flag`s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors from argument parsing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand was given.
    MissingCommand,
    /// A value could not be parsed.
    BadValue {
        /// Option name.
        key: String,
        /// Raw value.
        value: String,
    },
    /// A positional argument appeared where options were expected.
    UnexpectedPositional(String),
    /// A value option was given without its value (`--radius` last, or
    /// followed by another option).
    MissingValue {
        /// Option name.
        key: String,
    },
    /// The command does not accept this option, or a value was given
    /// to one of its bare flags (`--json 1`).
    UnknownOption {
        /// Option name.
        key: String,
    },
    /// An option or flag was given more than once.
    Repeated {
        /// Option name.
        key: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingCommand => write!(f, "missing subcommand; try `sparsegossip help`"),
            Self::BadValue { key, value } => {
                write!(f, "option --{key} has invalid value {value:?}")
            }
            Self::UnexpectedPositional(a) => write!(f, "unexpected argument {a:?}"),
            Self::MissingValue { key } => write!(f, "option --{key} needs a value"),
            Self::UnknownOption { key } => write!(
                f,
                "unknown option --{key} (or a value given to a flag); try `sparsegossip help`"
            ),
            Self::Repeated { key } => write!(f, "option --{key} is given more than once"),
        }
    }
}

impl std::error::Error for ArgError {}

impl ParsedArgs {
    /// Parses `args` (without the program name).
    ///
    /// A token starting with `--` is an option; if the next token exists
    /// and does not start with `--`, it is the value, otherwise the
    /// token is a bare flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::MissingCommand`] if no subcommand was given,
    /// [`ArgError::UnexpectedPositional`] on stray positionals and
    /// [`ArgError::Repeated`] for an option or flag given twice.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgError> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::MissingCommand);
        }
        let mut parsed = Self {
            command,
            options: BTreeMap::new(),
            flags: Vec::new(),
        };
        while let Some(tok) = iter.next() {
            let Some(key) = tok.strip_prefix("--") else {
                return Err(ArgError::UnexpectedPositional(tok));
            };
            if parsed.has_option(key) || parsed.flag(key) {
                return Err(ArgError::Repeated {
                    key: key.to_string(),
                });
            }
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    let value = iter.next().expect("peeked");
                    parsed.options.insert(key.to_string(), value);
                }
                _ => parsed.flags.push(key.to_string()),
            }
        }
        Ok(parsed)
    }

    /// Checks that every `--key value` option is one of `values` and
    /// every bare `--flag` is one of `flags` or `values` (a bare value
    /// option is left to [`ParsedArgs::get_opt`]'s
    /// [`ArgError::MissingValue`]).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::UnknownOption`] for the first option or flag
    /// outside those lists, including a flag that was given a value.
    pub fn expect_only(&self, values: &[&str], flags: &[&str]) -> Result<(), ArgError> {
        let unknown_option = self.options.keys().find(|k| !values.contains(&k.as_str()));
        let unknown_flag = self
            .flags
            .iter()
            .find(|f| !flags.contains(&f.as_str()) && !values.contains(&f.as_str()));
        match unknown_option.or(unknown_flag) {
            Some(key) => Err(ArgError::UnknownOption { key: key.clone() }),
            None => Ok(()),
        }
    }

    /// Whether the bare flag `--name` was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Whether `--name` was given a value.
    #[must_use]
    pub fn has_option(&self, name: &str) -> bool {
        self.options.contains_key(name)
    }

    /// Parses `--name` as `T`, with a default when absent.
    ///
    /// # Errors
    ///
    /// As [`ParsedArgs::get_opt`].
    pub fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    /// Parses `--name` as `T`, or `None` when absent.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] if present but unparsable, and
    /// [`ArgError::MissingValue`] if `--name` was given without a value.
    pub fn get_opt<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.options.get(name) {
            None if self.flag(name) => Err(ArgError::MissingValue {
                key: name.to_string(),
            }),
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| ArgError::BadValue {
                key: name.to_string(),
                value: v.clone(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_command_options_and_flags() {
        let p = ParsedArgs::parse(to_args("broadcast --side 64 --k 32 --frog")).unwrap();
        assert_eq!(p.command, "broadcast");
        assert_eq!(p.get::<u32>("side", 0).unwrap(), 64);
        assert_eq!(p.get::<usize>("k", 0).unwrap(), 32);
        assert!(p.flag("frog"));
        assert!(!p.flag("one-hop"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let p = ParsedArgs::parse(to_args("gossip")).unwrap();
        assert_eq!(p.get::<u32>("side", 48).unwrap(), 48);
        assert!(!p.has_option("side"));
    }

    #[test]
    fn rejects_missing_command_and_bad_values() {
        assert_eq!(
            ParsedArgs::parse(Vec::<String>::new()).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(
            ParsedArgs::parse(to_args("--side 4")).unwrap_err(),
            ArgError::MissingCommand
        );
        let p = ParsedArgs::parse(to_args("broadcast --side four")).unwrap();
        assert!(matches!(
            p.get::<u32>("side", 0),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn rejects_stray_positionals() {
        assert_eq!(
            ParsedArgs::parse(to_args("broadcast stray")).unwrap_err(),
            ArgError::UnexpectedPositional("stray".to_string())
        );
    }

    #[test]
    fn option_followed_by_option_is_a_flag() {
        let p = ParsedArgs::parse(to_args("x --a --b 3")).unwrap();
        assert!(p.flag("a"));
        assert_eq!(p.get::<u32>("b", 0).unwrap(), 3);
    }

    #[test]
    fn value_option_without_value_is_missing_value() {
        let missing = ArgError::MissingValue {
            key: "radius".into(),
        };
        for line in ["broadcast --side 64 --radius", "broadcast --radius --k 3"] {
            let p = ParsedArgs::parse(to_args(line)).unwrap();
            assert_eq!(p.get::<u32>("radius", 0), Err(missing.clone()), "{line}");
            assert_eq!(p.get_opt::<u32>("radius"), Err(missing.clone()), "{line}");
        }
        let p = ParsedArgs::parse(to_args("broadcast --radius --k 3")).unwrap();
        assert_eq!(p.get::<usize>("k", 0).unwrap(), 3);
    }

    #[test]
    fn expect_only_rejects_undeclared_options_and_valued_flags() {
        let values = ["side", "radius"];
        let flags = ["json"];
        let unknown = |key: &str| {
            Err(ArgError::UnknownOption {
                key: key.to_string(),
            })
        };
        let check = |line: &str| {
            ParsedArgs::parse(to_args(line))
                .unwrap()
                .expect_only(&values, &flags)
        };
        assert_eq!(check("broadcast --side 8 --radius 2 --json"), Ok(()));
        assert_eq!(check("broadcast --side 8 --radus 5"), unknown("radus"));
        assert_eq!(check("broadcast --side 8 --frog"), unknown("frog"));
        assert_eq!(check("broadcast --side 8 --json 1"), unknown("json"));
        // A bare value option is not unknown; reading it reports
        // `MissingValue`.
        assert_eq!(check("broadcast --side 8 --radius"), Ok(()));
    }

    #[test]
    fn repeated_options_and_flags_are_rejected() {
        let repeated = |key: &str| {
            Err(ArgError::Repeated {
                key: key.to_string(),
            })
        };
        for (line, key) in [
            ("broadcast --side 12 --k 6 --seed 1 --side 200", "side"),
            ("broadcast --side 12 --side 12", "side"),
            ("broadcast --frog --k 6 --frog", "frog"),
            ("broadcast --radius --radius 2", "radius"),
            ("broadcast --radius 2 --radius", "radius"),
        ] {
            assert_eq!(ParsedArgs::parse(to_args(line)), repeated(key), "{line}");
        }
        assert_eq!(
            repeated("side").unwrap_err().to_string(),
            "option --side is given more than once"
        );
    }

    #[test]
    fn error_messages_are_lowercase() {
        for e in [
            ArgError::MissingCommand,
            ArgError::BadValue {
                key: "k".into(),
                value: "x".into(),
            },
            ArgError::UnexpectedPositional("y".into()),
            ArgError::MissingValue { key: "z".into() },
            ArgError::UnknownOption { key: "w".into() },
            ArgError::Repeated { key: "v".into() },
        ] {
            assert!(e.to_string().chars().next().unwrap().is_lowercase());
        }
    }
}
