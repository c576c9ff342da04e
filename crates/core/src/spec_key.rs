//! Every `[scenario]` key of a [`ScenarioSpec`](crate::ScenarioSpec),
//! declared once in [`SPEC_KEYS`]. The TOML rendering and parse,
//! [`ScenarioSpec::with_key`](crate::ScenarioSpec::with_key), the sweep
//! axes of `sparsegossip_analysis` and the CLI's run options all read
//! these rows, so a key added here reaches all of them.
//!
//! A TOML file or CLI option is read as a value of its key's type. A
//! network key is range-checked as it is set, because a [`NetworkConfig`]
//! is valid by construction; [`ScenarioSpecBuilder::build`] checks every
//! other range and how the keys combine. A sweep axis checks its values
//! against the whole range ([`SpecKey::value_of`]).

use crate::toml::{format_toml_f64, TomlError, TomlTable, MAX_EXACT_INT};
use crate::{
    ExchangeRule, Metric, Mobility, NetworkConfig, NetworkError, ProcessKind, ScenarioSpecBuilder,
    SpecError,
};

/// The values a spec key accepts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyRange {
    /// Finite numbers in `[0, 1]`.
    Unit,
    /// Finite non-negative numbers.
    NonNegative,
    /// Integers in `[min, max]`, `min` 0 or 1; `max` is the width of the
    /// key's type (`u32::MAX` keys read as `u32`).
    Int { min: u64, max: u64 },
    /// `true` or `false`; on the command line, a flag that sets `true`.
    Bool,
    /// One of these comma-separated names; on the command line, a flag
    /// that picks the second.
    Names(&'static str),
}

impl KeyRange {
    /// What the range accepts, with its article, as error messages quote it.
    #[must_use]
    pub fn expected(self) -> &'static str {
        match self {
            Self::Unit => "a finite number in [0, 1]",
            Self::NonNegative => "a finite non-negative number",
            Self::Int { min: 0, max } if max == u64::from(u32::MAX) => {
                "a non-negative integer fitting u32"
            }
            Self::Int { min: 0, .. } => "a non-negative integer",
            Self::Int { .. } => "an integer >= 1",
            Self::Bool => "a boolean",
            Self::Names(_) => "a string",
        }
    }

    /// Whether `value` lies in the range.
    #[must_use]
    pub fn admits(self, value: KeyValue) -> bool {
        match (self, value) {
            (Self::Unit, KeyValue::Real(x)) => x.is_finite() && (0.0..=1.0).contains(&x),
            (Self::NonNegative, KeyValue::Real(x)) => x.is_finite() && x >= 0.0,
            (Self::Int { min, max }, KeyValue::Int(n)) => (min..=max).contains(&n),
            (Self::Bool, KeyValue::Int(n)) => n <= 1,
            (Self::Names(names), KeyValue::Int(i)) => (i as usize) < names.split(", ").count(),
            _ => false,
        }
    }

    /// Whether the key is a bare flag on the command line.
    #[must_use]
    pub fn is_flag(self) -> bool {
        matches!(self, Self::Bool | Self::Names(_))
    }
}

/// A spec key's value: numbers as [`Real`](Self::Real); integers,
/// booleans (0 or 1) and names (the index into
/// [`KeyRange::Names`]) as [`Int`](Self::Int).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyValue {
    /// A number.
    Real(f64),
    /// An integer, boolean or name index.
    Int(u64),
}

impl KeyValue {
    /// The value as a number.
    #[must_use]
    pub fn real(self) -> f64 {
        match self {
            Self::Real(x) => x,
            Self::Int(n) => n as f64,
        }
    }

    /// The value as an integer (numbers truncate).
    #[must_use]
    pub fn int(self) -> u64 {
        match self {
            Self::Real(x) => x as u64,
            Self::Int(n) => n,
        }
    }
}

/// What an absent key means, and when the key is rendered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum KeyDefault {
    /// A spec file must set the key; always rendered.
    Required,
    /// The builder's default; always rendered.
    Always,
    /// This value, which the rendering leaves out.
    Omitted(KeyValue),
}

/// The config a key sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KeyFamily {
    /// The process, geometry, rules, step cap, rumor count and metric.
    Run,
    /// The protocol twin's [`NetworkConfig`].
    Network,
    /// The [`WorldConfig`](crate::WorldConfig) axes.
    World,
    /// The protocol twin's [`FaultConfig`](crate::FaultConfig).
    Fault,
}

/// One `[scenario]` key: a row of [`SPEC_KEYS`].
#[derive(Clone, Copy, Debug)]
pub struct SpecKey {
    /// The `[scenario]` spelling, e.g. `churn_rate`.
    pub name: &'static str,
    /// The values the key accepts.
    pub range: KeyRange,
    /// What an absent key means, and when the key is rendered.
    pub default: KeyDefault,
    /// The command-line option (without `--`), if the run commands take
    /// the key.
    pub cli: Option<&'static str>,
    /// The config the key sets.
    pub family: KeyFamily,
    /// Whether [`ScenarioSpec::with_key`](crate::ScenarioSpec::with_key)
    /// accepts the key.
    pub with_key: bool,
    get: fn(&ScenarioSpecBuilder) -> KeyValue,
    set: fn(&mut ScenarioSpecBuilder, KeyValue) -> Result<(), NetworkError>,
}

impl SpecKey {
    /// The key's value in `builder`. An unset step cap or rumor count
    /// reads 0.
    #[must_use]
    pub fn get(&self, builder: &ScenarioSpecBuilder) -> KeyValue {
        (self.get)(builder)
    }

    /// Sets the key in `builder`.
    ///
    /// # Errors
    ///
    /// [`SpecError::Toml`] naming the key when it is a network key and
    /// `value` is outside its range.
    pub fn set(&self, builder: &mut ScenarioSpecBuilder, value: KeyValue) -> Result<(), SpecError> {
        (self.set)(builder, value).map_err(|_| self.bad(self.range.expected()))
    }

    /// The value `x` sets, as a sweep axis point or through
    /// [`ScenarioSpec::with_key`](crate::ScenarioSpec::with_key): `None`
    /// unless `x` is in the range (an integer at most [`MAX_EXACT_INT`],
    /// where `f64` stops being exact, for an integer key).
    #[must_use]
    pub fn value_of(&self, x: f64) -> Option<KeyValue> {
        let value = match self.range {
            KeyRange::Int { .. }
                if x.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&x) =>
            {
                KeyValue::Int(x as u64)
            }
            KeyRange::Unit | KeyRange::NonNegative => KeyValue::Real(x),
            _ => return None,
        };
        self.range.admits(value).then_some(value)
    }

    /// Parses a command-line value as a value of the key's type, `None`
    /// when it is not one.
    #[must_use]
    pub fn parse(&self, raw: &str) -> Option<KeyValue> {
        match self.range {
            KeyRange::Int { max, .. } => raw.parse().ok().filter(|&n| n <= max).map(KeyValue::Int),
            _ => raw.parse().ok().map(KeyValue::Real),
        }
    }

    /// Reads the key from a `[scenario]` table, `None` when absent.
    ///
    /// # Errors
    ///
    /// [`SpecError::Toml`] for a value of the wrong type or outside an
    /// integer key's width, [`SpecError::UnknownName`] for a name not in
    /// the key's list.
    pub fn read(&self, table: &TomlTable) -> Result<Option<KeyValue>, SpecError> {
        let key = self.name;
        Ok(match self.range {
            KeyRange::Unit | KeyRange::NonNegative => table.opt_f64(key)?.map(KeyValue::Real),
            KeyRange::Int { max, .. } if max <= u64::from(u32::MAX) => {
                table.opt_u32(key)?.map(|n| KeyValue::Int(n.into()))
            }
            KeyRange::Int { .. } => table.opt_u64(key)?.map(KeyValue::Int),
            KeyRange::Bool => table.opt_bool(key)?.map(|b| KeyValue::Int(b.into())),
            KeyRange::Names(names) => table
                .opt_str(key)?
                .map(|name| match names.split(", ").position(|n| n == name) {
                    Some(i) => Ok(KeyValue::Int(i as u64)),
                    None => Err(SpecError::UnknownName {
                        key: key.to_string(),
                        value: name.to_string(),
                        allowed: names,
                    }),
                })
                .transpose()?,
        })
    }

    /// The `name = value` line of `value`, or `None` when the rendering
    /// leaves it out.
    #[must_use]
    pub fn render(&self, value: KeyValue) -> Option<String> {
        if self.default == KeyDefault::Omitted(value) {
            return None;
        }
        let text = match self.range {
            KeyRange::Unit | KeyRange::NonNegative => format_toml_f64(value.real()),
            KeyRange::Int { .. } => value.int().to_string(),
            KeyRange::Bool => (value.int() != 0).to_string(),
            KeyRange::Names(_) => format!("\"{}\"", self.name_of(value)),
        };
        Some(format!("{} = {text}\n", self.name))
    }

    /// The spec-file name of a name key's value (empty for other keys).
    pub(crate) fn name_of(&self, value: KeyValue) -> &'static str {
        match self.range {
            KeyRange::Names(names) => names.split(", ").nth(value.int() as usize),
            _ => None,
        }
        .unwrap_or_default()
    }

    /// The [`SpecError::Toml`] of a bad value for this key.
    pub(crate) fn bad(&self, expected: &'static str) -> SpecError {
        SpecError::Toml(TomlError::BadValue {
            section: "scenario".to_string(),
            key: self.name.to_string(),
            expected,
        })
    }
}

/// A builder field's conversion to and from [`KeyValue`].
pub(crate) trait Field: Copy {
    fn to_value(self) -> KeyValue;
    fn from_value(value: KeyValue) -> Self;
}

macro_rules! fields {
    ($($ty:ty: $to:expr, $from:expr;)+) => {$(
        impl Field for $ty {
            fn to_value(self) -> KeyValue {
                $to(self)
            }
            fn from_value(value: KeyValue) -> Self {
                $from(value)
            }
        }
    )+};
}

fields! {
    f64: KeyValue::Real, KeyValue::real;
    u64: KeyValue::Int, KeyValue::int;
    u32: |n: u32| KeyValue::Int(n.into()), |v: KeyValue| v.int() as u32;
    usize: |n: usize| KeyValue::Int(n as u64), |v: KeyValue| v.int() as usize;
    bool: |b: bool| KeyValue::Int(b.into()), |v: KeyValue| v.int() != 0;
}

/// Enums whose variants are a [`KeyRange::Names`] list, in its order.
macro_rules! name_fields {
    ($($ty:ident [$($variant:ident),+];)+) => {$(
        impl Field for $ty {
            fn to_value(self) -> KeyValue {
                let i = [$($ty::$variant),+].iter().position(|v| *v == self);
                KeyValue::Int(i.unwrap_or_default() as u64)
            }
            fn from_value(value: KeyValue) -> Self {
                let all = [$($ty::$variant),+];
                all.get(value.int() as usize).copied().unwrap_or_default()
            }
        }
    )+};
}

name_fields! {
    ProcessKind [Broadcast, Gossip, Infection, Coverage, ProtocolBroadcast];
    Mobility [All, InformedOnly];
    ExchangeRule [Component, OneHop];
    Metric [Time, Fraction];
}

/// Changes the builder's network through [`NetworkConfig::new`], which
/// checks exactly the drop and interval keys' ranges.
fn set_network(
    b: &mut ScenarioSpecBuilder,
    change: impl FnOnce(&mut (f64, u64, u32, u64)),
) -> Result<(), NetworkError> {
    let n = b.network;
    let mut raw = (
        n.drop_prob(),
        n.delay_max(),
        n.send_cap(),
        n.gossip_interval(),
    );
    change(&mut raw);
    b.network = NetworkConfig::new(raw.0, raw.1, raw.2, raw.3)?;
    Ok(())
}

/// The getter (`get`) or setter (`set`) of a builder field path;
/// `network.<i> <getter>` is field `i` of [`set_network`]'s tuple, and
/// `?field` is an `Option` field that reads 0 when unset.
macro_rules! access {
    (get network.$i:tt $get:ident) => { |b| b.network.$get().to_value() };
    (set network.$i:tt $get:ident) => { |b, v| set_network(b, |n| n.$i = Field::from_value(v)) };
    (get ?$field:ident) => { |b| b.$field.unwrap_or_default().to_value() };
    (set ?$field:ident) => { |b, v| { b.$field = Some(Field::from_value(v)); Ok(()) } };
    (get $($field:ident).+) => { |b| b.$($field).+.to_value() };
    (set $($field:ident).+) => { |b, v| { b.$($field).+ = Field::from_value(v); Ok(()) } };
}

macro_rules! spec_keys {
    ($($id:ident $name:literal $range:expr, $default:expr, $cli:literal, $family:ident, $with_key:literal,
        ($($field:tt)+);)+) => {
        $(
            #[doc = concat!("The `", $name, "` key.")]
            pub const $id: SpecKey = SpecKey {
                name: $name,
                range: $range,
                default: $default,
                cli: if $cli.is_empty() { None } else { Some($cli) },
                family: KeyFamily::$family,
                with_key: $with_key,
                get: access!(get $($field)+),
                set: access!(set $($field)+),
            };
        )+
        /// Every `[scenario]` key, in rendering order.
        pub const SPEC_KEYS: [SpecKey; 28] = [$($id),+];
    };
}

use KeyDefault::{Always, Omitted, Required};
use KeyRange::{Bool, Names, NonNegative, Unit};
use KeyValue::{Int, Real};

const fn int(min: u64, max: u64) -> KeyRange {
    KeyRange::Int { min, max }
}

const U32: KeyRange = int(0, u32::MAX as u64);
const U32_POS: KeyRange = int(1, u32::MAX as u64);
const U64: KeyRange = int(0, u64::MAX);
const U64_POS: KeyRange = int(1, u64::MAX);
const USIZE: KeyRange = int(0, usize::MAX as u64);
const USIZE_POS: KeyRange = int(1, usize::MAX as u64);

// Columns: name, range, default, CLI option ("" for none), family,
// whether `with_key` takes it, builder field.
spec_keys! {
    PROCESS "process" Names("broadcast, gossip, infection, coverage, protocol-broadcast"),
        Required, "", Run, false, (kind);
    SIDE "side" U32, Required, "side", Run, false, (side);
    K "k" USIZE, Required, "k", Run, false, (k);
    RADIUS "radius" U32, Always, "radius", Run, false, (radius);
    SOURCE "source" USIZE, Always, "", Run, false, (source);
    MOBILITY "mobility" Names("all, informed-only"), Always, "frog", Run, false, (mobility);
    EXCHANGE "exchange" Names("component, one-hop"), Always, "one-hop", Run, false, (exchange_rule);
    MAX_STEPS "max_steps" U64, Omitted(Int(0)), "max-steps", Run, false, (?max_steps);
    RUMORS "rumors" USIZE_POS, Omitted(Int(0)), "rumors", Run, false, (?rumors);
    DROP_PROB "drop_prob" Unit, Omitted(Real(0.0)), "drop", Network, true, (network.0 drop_prob);
    DELAY_MAX "delay_max" U64, Omitted(Int(0)), "delay", Network, false, (network.1 delay_max);
    SEND_CAP "send_cap" U32, Omitted(Int(0)), "cap", Network, true, (network.2 send_cap);
    GOSSIP_INTERVAL "gossip_interval" U64_POS, Omitted(Int(1)), "interval", Network, true,
        (network.3 gossip_interval);
    BARRIER_DENSITY "barrier_density" Unit, Omitted(Real(0.0)), "barrier-density", World, true,
        (world.barrier_density);
    CHURN_RATE "churn_rate" Unit, Omitted(Real(0.0)), "churn-rate", World, true,
        (world.churn_rate);
    HETERO_FRACTION "hetero_fraction" Unit, Omitted(Real(0.0)), "hetero-fraction", World, true,
        (world.hetero_fraction);
    HETERO_FACTOR "hetero_factor" NonNegative, Omitted(Real(1.0)), "hetero-factor", World, false,
        (world.hetero_factor);
    SPEED_FRACTION "speed_fraction" Unit, Omitted(Real(0.0)), "speed-fraction", World, false,
        (world.speed_fraction);
    SPEED_FACTOR "speed_factor" U32_POS, Omitted(Int(1)), "speed-factor", World, false,
        (world.speed_factor);
    NUM_SOURCES "num_sources" USIZE_POS, Omitted(Int(1)), "sources", World, false,
        (world.num_sources);
    ADVERSARIAL_SOURCES "adversarial_sources" Bool, Omitted(Int(0)), "adversarial", World, false,
        (world.adversarial_sources);
    CRASH_PROB "crash_prob" Unit, Omitted(Real(0.0)), "crash", Fault, true, (faults.crash_prob);
    RESTART_DELAY "restart_delay" U64_POS, Omitted(Int(1)), "restart-delay", Fault, false,
        (faults.restart_delay);
    PARTITION_START "partition_start" U64, Omitted(Int(0)), "partition-start", Fault, false,
        (faults.partition_start);
    PARTITION_LEN "partition_len" U64, Omitted(Int(0)), "partition-len", Fault, true,
        (faults.partition_len);
    RETRANSMIT "retransmit" Bool, Omitted(Int(0)), "retransmit", Fault, false,
        (faults.retransmit);
    ANTI_ENTROPY_INTERVAL "anti_entropy_interval" U64, Omitted(Int(0)), "anti-entropy", Fault,
        false, (faults.anti_entropy_interval);
    METRIC "metric" Names("time, fraction"), Always, "", Run, false, (metric);
}
