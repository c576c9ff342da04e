//! Scalar fault/recovery axes for scenario specs.
//!
//! [`FaultConfig`] is the spec-level face of the protocol crate's
//! [`FaultPlan`]/[`RecoveryConfig`]: plain `Copy` scalars (so
//! [`ScenarioSpec`](crate::ScenarioSpec) stays `Copy`) that validate
//! with the same rules the protocol constructors enforce and lower into
//! the real plan at run time. A default config is *trivial*: it builds
//! [`FaultPlan::NONE`] + [`RecoveryConfig::OFF`], which the runtime
//! guarantees is event-log-hash-identical to the fault-free twin.

use sparsegossip_protocol::{FaultPlan, PartitionSchedule, PartitionWindow, RecoveryConfig};

use crate::SimError;

/// Fault-injection and recovery axes of a protocol-twin scenario.
///
/// The partition axis is a single `[partition_start,
/// partition_start + partition_len)` window — the sweepable shape; the
/// protocol layer accepts arbitrary window lists for programmatic use.
///
/// # Examples
///
/// ```
/// use sparsegossip_core::FaultConfig;
///
/// let faults = FaultConfig {
///     crash_prob: 0.01,
///     retransmit: true,
///     anti_entropy_interval: 4,
///     ..FaultConfig::DEFAULT
/// };
/// faults.validate()?;
/// assert!(!faults.is_trivial());
/// # Ok::<(), sparsegossip_core::SimError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultConfig {
    /// Per-node, per-tick crash probability (state loss; the source is
    /// exempt). Default 0: no crashes.
    pub crash_prob: f64,
    /// Ticks a crashed node stays down before restarting (≥ 1).
    pub restart_delay: u64,
    /// First tick of the partition window (inclusive).
    pub partition_start: u64,
    /// Length of the partition window in ticks. Default 0: no
    /// partition.
    pub partition_len: u64,
    /// Whether unacked offers are retransmitted with exponential
    /// backoff.
    pub retransmit: bool,
    /// Ticks between anti-entropy digest rounds. Default 0: no
    /// anti-entropy.
    pub anti_entropy_interval: u64,
}

impl FaultConfig {
    /// The trivial config: no faults, no recovery — the twin behaves
    /// exactly as before the fault layer existed.
    pub const DEFAULT: Self = Self {
        crash_prob: 0.0,
        restart_delay: 1,
        partition_start: 0,
        partition_len: 0,
        retransmit: false,
        anti_entropy_interval: 0,
    };

    /// Whether every axis holds its default: nothing injected, nothing
    /// recovered, event log byte-identical to the fault-free twin.
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        *self == Self::DEFAULT
    }

    /// Checks every axis against the protocol constructors' rules.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidFaultSetting`] naming the offending key.
    pub fn validate(&self) -> Result<(), SimError> {
        if !(self.crash_prob.is_finite() && (0.0..=1.0).contains(&self.crash_prob)) {
            return Err(SimError::InvalidFaultSetting {
                key: "crash_prob",
                expected: "a finite number in [0, 1]",
            });
        }
        if self.restart_delay == 0 {
            return Err(SimError::InvalidFaultSetting {
                key: "restart_delay",
                expected: "an integer >= 1",
            });
        }
        Ok(())
    }

    /// Lowers the injection axes into a protocol [`FaultPlan`].
    ///
    /// Call [`validate`](Self::validate) first (spec building always
    /// does); the lowering itself cannot fail on a validated config.
    #[must_use]
    pub fn to_plan(&self) -> FaultPlan {
        #[expect(
            clippy::expect_used,
            reason = "len > 0 makes start < end by construction"
        )]
        let partitions = if self.partition_len == 0 {
            PartitionSchedule::EMPTY
        } else {
            PartitionSchedule::new(vec![PartitionWindow {
                start: self.partition_start,
                end: self.partition_start.saturating_add(self.partition_len),
            }])
            .expect("nonzero-length window is valid")
        };
        #[expect(
            clippy::expect_used,
            reason = "validate() mirrors FaultPlan::new's rules"
        )]
        let plan = FaultPlan::new(self.crash_prob, self.restart_delay, partitions)
            .expect("validated fault config");
        plan
    }

    /// Lowers the recovery axes into a protocol [`RecoveryConfig`].
    #[must_use]
    pub fn to_recovery(&self) -> RecoveryConfig {
        RecoveryConfig::new(self.retransmit, self.anti_entropy_interval)
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_trivial_and_lowers_to_none() {
        let f = FaultConfig::default();
        assert!(f.is_trivial());
        f.validate().unwrap();
        assert!(f.to_plan().is_none());
        assert!(f.to_recovery().is_off());
    }

    #[test]
    fn validation_pins_the_constructor_rules() {
        let f = FaultConfig {
            crash_prob: 1.5,
            ..FaultConfig::DEFAULT
        };
        assert_eq!(
            f.validate().unwrap_err(),
            SimError::InvalidFaultSetting {
                key: "crash_prob",
                expected: "a finite number in [0, 1]",
            }
        );
        let f = FaultConfig {
            crash_prob: f64::NAN,
            ..FaultConfig::DEFAULT
        };
        assert!(f.validate().is_err());
        let f = FaultConfig {
            restart_delay: 0,
            ..FaultConfig::DEFAULT
        };
        assert_eq!(
            f.validate().unwrap_err(),
            SimError::InvalidFaultSetting {
                key: "restart_delay",
                expected: "an integer >= 1",
            }
        );
    }

    #[test]
    fn lowering_builds_the_declared_window() {
        let f = FaultConfig {
            crash_prob: 0.25,
            restart_delay: 3,
            partition_start: 10,
            partition_len: 5,
            ..FaultConfig::DEFAULT
        };
        f.validate().unwrap();
        let plan = f.to_plan();
        assert_eq!(plan.crash_prob(), 0.25);
        assert_eq!(plan.restart_delay(), 3);
        let windows = plan.partitions().windows();
        assert_eq!(windows.len(), 1);
        assert_eq!((windows[0].start, windows[0].end), (10, 15));
        assert!(!f.is_trivial());
    }

    #[test]
    fn recovery_axes_lower_independently() {
        let f = FaultConfig {
            retransmit: true,
            anti_entropy_interval: 8,
            ..FaultConfig::DEFAULT
        };
        let rec = f.to_recovery();
        assert!(rec.retransmit());
        assert_eq!(rec.anti_entropy_interval(), 8);
        assert!(!rec.is_off());
        assert!(!f.is_trivial());
    }
}
