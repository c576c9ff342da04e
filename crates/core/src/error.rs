use core::fmt;

use sparsegossip_grid::GridError;
use sparsegossip_walks::WalkError;

/// Errors arising when configuring or constructing simulations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The underlying grid could not be built.
    Grid(GridError),
    /// The walk engine could not be built.
    Walk(WalkError),
    /// Fewer than two agents were requested — dissemination needs a
    /// source and at least one receiver.
    TooFewAgents {
        /// The requested agent count.
        k: usize,
    },
    /// The rumor source index is not a valid agent index.
    SourceOutOfRange {
        /// The requested source.
        source: usize,
        /// The number of agents.
        k: usize,
    },
    /// A gossip rumor count outside `1..=k` was requested.
    RumorCountOutOfRange {
        /// The requested number of rumors.
        num_rumors: usize,
        /// The number of agents.
        k: usize,
    },
    /// A step cap of zero was requested.
    ZeroStepCap,
    /// A process sized for one agent count was driven with another.
    AgentCountMismatch {
        /// The agent count the process was built for.
        process: usize,
        /// The agent count handed to the driver.
        k: usize,
    },
    /// A scenario declared a setting its process kind does not
    /// implement (e.g. gossip with a mobility rule): running it would
    /// silently ignore the setting, so the spec is rejected instead.
    UnsupportedSetting {
        /// The process kind's spec-file name.
        kind: &'static str,
        /// The unsupported setting, in spec-file syntax.
        setting: &'static str,
    },
    /// A world-model setting ([`WorldConfig`](crate::WorldConfig))
    /// holds an out-of-range value, e.g. a churn rate above 1.
    InvalidWorldSetting {
        /// The offending setting, in spec-file syntax.
        key: &'static str,
        /// What the setting accepts, with its article.
        expected: &'static str,
    },
    /// A fault-model setting ([`FaultConfig`](crate::FaultConfig))
    /// holds an out-of-range value, e.g. a crash probability above 1.
    InvalidFaultSetting {
        /// The offending setting, in spec-file syntax.
        key: &'static str,
        /// What the setting accepts, with its article.
        expected: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Grid(e) => write!(f, "grid construction failed: {e}"),
            Self::Walk(e) => write!(f, "walk engine construction failed: {e}"),
            Self::TooFewAgents { k } => {
                write!(f, "dissemination requires at least 2 agents, got {k}")
            }
            Self::SourceOutOfRange { source, k } => {
                write!(f, "source agent {source} out of range for {k} agents")
            }
            Self::RumorCountOutOfRange { num_rumors, k } => {
                write!(f, "rumor count {num_rumors} must be in 1..={k}")
            }
            Self::ZeroStepCap => write!(f, "step cap must be positive"),
            Self::AgentCountMismatch { process, k } => {
                write!(f, "process sized for {process} agents driven with {k}")
            }
            Self::UnsupportedSetting { kind, setting } => {
                write!(f, "process {kind:?} does not support {setting}")
            }
            Self::InvalidWorldSetting { key, expected } => {
                write!(f, "world setting {key:?} must be {expected}")
            }
            Self::InvalidFaultSetting { key, expected } => {
                write!(f, "fault setting {key:?} must be {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Grid(e) => Some(e),
            Self::Walk(e) => Some(e),
            _ => None,
        }
    }
}

impl From<GridError> for SimError {
    fn from(e: GridError) -> Self {
        Self::Grid(e)
    }
}

impl From<WalkError> for SimError {
    fn from(e: WalkError) -> Self {
        Self::Walk(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        use std::error::Error;
        let e = SimError::from(GridError::ZeroSide);
        assert!(e.to_string().contains("grid"));
        assert!(e.source().is_some());
        let e = SimError::TooFewAgents { k: 1 };
        assert!(e.to_string().contains("at least 2"));
        assert!(e.source().is_none());
        assert!(SimError::ZeroStepCap.to_string().contains("positive"));
        let e = SimError::RumorCountOutOfRange {
            num_rumors: 5,
            k: 4,
        };
        assert_eq!(e.to_string(), "rumor count 5 must be in 1..=4");
        let e = SimError::UnsupportedSetting {
            kind: "gossip",
            setting: "exchange = \"one-hop\"",
        };
        assert!(e.to_string().contains("gossip"));
        assert!(e.to_string().contains("one-hop"));
        let e = SimError::InvalidWorldSetting {
            key: "churn_rate",
            expected: "a finite number in [0, 1]",
        };
        assert!(e.to_string().contains("churn_rate"));
        assert!(e.to_string().contains("[0, 1]"));
        assert!(e.source().is_none());
        let e = SimError::InvalidFaultSetting {
            key: "crash_prob",
            expected: "a finite number in [0, 1]",
        };
        assert!(e.to_string().contains("crash_prob"));
        assert!(e.to_string().contains("[0, 1]"));
        assert!(e.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<E: std::error::Error + Send + Sync + 'static>() {}
        assert_bounds::<SimError>();
    }
}
