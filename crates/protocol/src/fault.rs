use core::fmt;

use sparsegossip_walks::derive_seed;

/// Salt XORed with a partition window's start tick before deriving a
/// node's side, so distinct windows split the population differently
/// and the assignment is decorrelated from the node RNG streams (which
/// salt with [`crate::NODE_STREAM_SALT`]). The constant is ASCII
/// `"partitio"`.
pub const PARTITION_SALT: u64 = 0x7061_7274_6974_696F;

/// One network-partition window: for ticks in `[start, end)` the node
/// population is split into two sides and cross-side delivery is
/// blocked.
///
/// Side membership is a pure hash of `(start, node)` — no RNG stream is
/// consumed, so enabling a partition never perturbs any other draw.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PartitionWindow {
    /// First tick of the window (inclusive).
    pub start: u64,
    /// First tick after the window (exclusive) — the heal tick.
    pub end: u64,
}

impl PartitionWindow {
    /// Whether `tick` falls inside this window.
    #[must_use]
    pub fn active(&self, tick: u64) -> bool {
        self.start <= tick && tick < self.end
    }

    /// The side (`0` or `1`) `node` belongs to while this window is
    /// active: the low bit of a SplitMix64 hash of the window start and
    /// the node index.
    #[must_use]
    pub fn side_of(&self, node: u32) -> u8 {
        (derive_seed(PARTITION_SALT ^ self.start, u64::from(node)) & 1) as u8
    }
}

/// A validated sequence of [`PartitionWindow`]s.
///
/// # Examples
///
/// ```
/// use sparsegossip_protocol::{PartitionSchedule, PartitionWindow};
///
/// let sched = PartitionSchedule::new(vec![PartitionWindow { start: 10, end: 20 }])?;
/// assert!(sched.active(10));
/// assert!(!sched.active(20));
/// # Ok::<(), sparsegossip_protocol::FaultError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PartitionSchedule {
    windows: Vec<PartitionWindow>,
}

impl PartitionSchedule {
    /// The schedule with no windows: nothing is ever blocked.
    pub const EMPTY: Self = Self {
        windows: Vec::new(),
    };

    /// Builds a validated schedule.
    ///
    /// # Errors
    ///
    /// [`FaultError::EmptyPartitionWindow`] if any window has
    /// `start >= end` (it would never block anything — almost
    /// certainly a configuration mistake).
    pub fn new(windows: Vec<PartitionWindow>) -> Result<Self, FaultError> {
        if windows.iter().any(|w| w.start >= w.end) {
            return Err(FaultError::EmptyPartitionWindow);
        }
        Ok(Self { windows })
    }

    /// The windows, in the order given.
    #[must_use]
    pub fn windows(&self) -> &[PartitionWindow] {
        &self.windows
    }

    /// Whether the schedule has no windows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Whether any window is active at `tick`.
    #[must_use]
    pub fn active(&self, tick: u64) -> bool {
        self.windows.iter().any(|w| w.active(tick))
    }

    /// Whether delivery from `a` to `b` is blocked at `tick`: some
    /// active window places the two nodes on different sides.
    #[must_use]
    pub fn blocks(&self, tick: u64, a: u32, b: u32) -> bool {
        self.windows
            .iter()
            .any(|w| w.active(tick) && w.side_of(a) != w.side_of(b))
    }
}

/// The seeded fault-injection plan for a run: per-tick node crashes
/// with full state loss and delayed restart, plus a partition schedule.
///
/// Crash draws come from the existing per-node RNG streams (one draw
/// per node per tick whenever `crash_prob > 0`, regardless of the
/// node's up/down state), so crash realizations are identical across
/// recovery configurations. With
/// [`FaultPlan::NONE`] no fault draw is ever made and the runtime is
/// event-log-hash-identical to the fault-free build.
///
/// # Examples
///
/// ```
/// use sparsegossip_protocol::{FaultPlan, PartitionSchedule};
///
/// let plan = FaultPlan::new(0.01, 5, PartitionSchedule::EMPTY)?;
/// assert_eq!(plan.crash_prob(), 0.01);
/// assert!(!plan.is_none());
/// assert!(FaultPlan::NONE.is_none());
/// # Ok::<(), sparsegossip_protocol::FaultError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct FaultPlan {
    crash_prob: f64,
    restart_delay: u64,
    partitions: PartitionSchedule,
}

impl FaultPlan {
    /// The plan that injects nothing: no crashes, no partitions.
    pub const NONE: Self = Self {
        crash_prob: 0.0,
        restart_delay: 1,
        partitions: PartitionSchedule::EMPTY,
    };

    /// Builds a validated plan.
    ///
    /// # Errors
    ///
    /// [`FaultError::CrashProbOutOfRange`] unless `crash_prob` is
    /// finite and within `[0, 1]`;
    /// [`FaultError::ZeroRestartDelay`] if `restart_delay == 0` (a
    /// crash must keep its node down for at least one tick).
    pub fn new(
        crash_prob: f64,
        restart_delay: u64,
        partitions: PartitionSchedule,
    ) -> Result<Self, FaultError> {
        if !crash_prob.is_finite() || !(0.0..=1.0).contains(&crash_prob) {
            return Err(FaultError::CrashProbOutOfRange);
        }
        if restart_delay == 0 {
            return Err(FaultError::ZeroRestartDelay);
        }
        Ok(Self {
            crash_prob,
            restart_delay,
            partitions,
        })
    }

    /// Per-node per-tick crash probability.
    #[must_use]
    pub fn crash_prob(&self) -> f64 {
        self.crash_prob
    }

    /// Ticks a crashed node stays down before restarting (`≥ 1`).
    #[must_use]
    pub fn restart_delay(&self) -> u64 {
        self.restart_delay
    }

    /// The partition schedule.
    #[must_use]
    pub fn partitions(&self) -> &PartitionSchedule {
        &self.partitions
    }

    /// Whether this plan injects nothing (crash draws are skipped
    /// entirely and no delivery is ever partition-blocked).
    #[must_use]
    pub fn is_none(&self) -> bool {
        self.crash_prob == 0.0 && self.partitions.is_empty()
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::NONE
    }
}

/// Protocol-side recovery knobs: ack-driven retransmission with
/// exponential backoff over a capped retry queue, and a periodic
/// anti-entropy digest exchange that lets restarted (state-lost) nodes
/// re-learn the rumor.
///
/// Both mechanisms are strictly opt-in: with [`RecoveryConfig::OFF`]
/// no retry entry is ever created and no anti-entropy draw is ever
/// made, preserving event-log-hash identity with the recovery-free
/// build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryConfig {
    retransmit: bool,
    anti_entropy_interval: u64,
}

impl RecoveryConfig {
    /// Retry-queue capacity per node: unacked offers beyond it are not
    /// remembered.
    pub const DEFAULT_RETRY_CAP: u32 = 64;
    /// Retransmissions per retry entry before the node gives up.
    pub const DEFAULT_MAX_RETRIES: u32 = 5;

    /// No retransmission, no anti-entropy.
    pub const OFF: Self = Self {
        retransmit: false,
        anti_entropy_interval: 0,
    };

    /// A config with the fixed retry limits ([`Self::DEFAULT_RETRY_CAP`],
    /// [`Self::DEFAULT_MAX_RETRIES`]). `anti_entropy_interval` is the
    /// digest-timer period in ticks (`0` disables anti-entropy).
    #[must_use]
    pub fn new(retransmit: bool, anti_entropy_interval: u64) -> Self {
        Self {
            retransmit,
            anti_entropy_interval,
        }
    }

    /// Whether ack-driven retransmission is enabled.
    #[must_use]
    pub fn retransmit(&self) -> bool {
        self.retransmit
    }

    /// The anti-entropy digest period in ticks (`0` = disabled).
    #[must_use]
    pub fn anti_entropy_interval(&self) -> u64 {
        self.anti_entropy_interval
    }

    /// Whether both mechanisms are disabled.
    #[must_use]
    pub fn is_off(&self) -> bool {
        !self.retransmit && self.anti_entropy_interval == 0
    }
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self::OFF
    }
}

/// Why a [`FaultPlan`] or [`PartitionSchedule`] could not be built.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultError {
    /// `crash_prob` was NaN, infinite, or outside `[0, 1]`.
    CrashProbOutOfRange,
    /// `restart_delay` was zero (a crash would be invisible).
    ZeroRestartDelay,
    /// A partition window had `start >= end` (it could never block).
    EmptyPartitionWindow,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CrashProbOutOfRange => {
                write!(f, "crash probability must be a finite number in [0, 1]")
            }
            Self::ZeroRestartDelay => write!(f, "restart delay must be at least 1 tick"),
            Self::EmptyPartitionWindow => {
                write!(f, "partition windows must satisfy start < end")
            }
        }
    }
}

impl std::error::Error for FaultError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_is_none_and_default() {
        assert!(FaultPlan::NONE.is_none());
        assert_eq!(FaultPlan::default(), FaultPlan::NONE);
        assert!(RecoveryConfig::OFF.is_off());
        assert_eq!(RecoveryConfig::default(), RecoveryConfig::OFF);
        let rec = RecoveryConfig::new(true, 4);
        assert!(rec.retransmit() && !rec.is_off());
        assert_eq!(rec.anti_entropy_interval(), 4);
    }

    #[test]
    fn plan_validation_rejects_bad_fields() {
        assert_eq!(
            FaultPlan::new(-0.1, 1, PartitionSchedule::EMPTY),
            Err(FaultError::CrashProbOutOfRange)
        );
        assert_eq!(
            FaultPlan::new(f64::NAN, 1, PartitionSchedule::EMPTY),
            Err(FaultError::CrashProbOutOfRange)
        );
        assert_eq!(
            FaultPlan::new(0.5, 0, PartitionSchedule::EMPTY),
            Err(FaultError::ZeroRestartDelay)
        );
        assert!(FaultPlan::new(1.0, 1, PartitionSchedule::EMPTY).is_ok());
    }

    #[test]
    fn schedule_rejects_empty_windows() {
        assert_eq!(
            PartitionSchedule::new(vec![PartitionWindow { start: 5, end: 5 }]),
            Err(FaultError::EmptyPartitionWindow)
        );
        assert_eq!(
            PartitionSchedule::new(vec![PartitionWindow { start: 9, end: 3 }]),
            Err(FaultError::EmptyPartitionWindow)
        );
    }

    #[test]
    fn windows_are_half_open() {
        let w = PartitionWindow { start: 4, end: 8 };
        assert!(!w.active(3));
        assert!(w.active(4));
        assert!(w.active(7));
        assert!(!w.active(8));
    }

    #[test]
    fn sides_split_the_population_and_blocking_is_symmetric() {
        let sched = PartitionSchedule::new(vec![PartitionWindow { start: 0, end: 100 }]).unwrap();
        let w = sched.windows()[0];
        let sides: Vec<u8> = (0..64).map(|n| w.side_of(n)).collect();
        let ones = sides.iter().filter(|&&s| s == 1).count();
        // The hash split is near-balanced on any reasonable population.
        assert!((16..=48).contains(&ones), "lopsided split: {ones}/64");
        for a in 0..8 {
            for b in 0..8 {
                assert_eq!(sched.blocks(50, a, b), sched.blocks(50, b, a));
                assert_eq!(sched.blocks(50, a, b), w.side_of(a) != w.side_of(b));
                // Outside the window nothing is blocked.
                assert!(!sched.blocks(100, a, b));
            }
        }
        // Same-node traffic is never blocked.
        assert!(!sched.blocks(50, 3, 3));
    }

    #[test]
    fn distinct_windows_split_differently() {
        let a = PartitionWindow { start: 0, end: 10 };
        let b = PartitionWindow { start: 20, end: 30 };
        let same = (0..256).all(|n| a.side_of(n) == b.side_of(n));
        assert!(!same, "window starts must decorrelate the splits");
    }

    #[test]
    fn errors_display() {
        assert!(FaultError::CrashProbOutOfRange
            .to_string()
            .contains("[0, 1]"));
        assert!(FaultError::ZeroRestartDelay.to_string().contains("1 tick"));
        assert!(FaultError::EmptyPartitionWindow
            .to_string()
            .contains("start < end"));
    }
}
