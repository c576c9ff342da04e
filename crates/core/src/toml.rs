//! Self-contained parser for the TOML subset used by scenario and
//! sweep specification files.
//!
//! The workspace's only external dependencies are the vendored crates,
//! so spec files are read with this minimal parser instead of a real
//! TOML implementation. The supported subset is exactly what the spec
//! formats need:
//!
//! * `[section]` headers;
//! * `key = value` pairs, where a value is an integer, a float, a
//!   boolean, a double-quoted string, or a single-line array of those
//!   scalars;
//! * `#` comments (whole-line or trailing) and blank lines.
//!
//! Nested tables, multi-line arrays, datetimes and string escapes other
//! than `\"` and `\\` are out of scope and rejected with a line-numbered
//! error.
//!
//! # Examples
//!
//! ```
//! use sparsegossip_core::toml::TomlDoc;
//!
//! let doc = TomlDoc::parse(
//!     "[scenario]\nprocess = \"broadcast\"\nside = 64\n\n[sweep]\nr_factors = [0.5, 1.0, 2.0]\n",
//! )?;
//! let scenario = doc.section("scenario")?;
//! assert_eq!(scenario.need_str("process")?, "broadcast");
//! assert_eq!(scenario.need_u32("side")?, 64);
//! let sweep = doc.section("sweep")?;
//! assert_eq!(sweep.opt_f64_array("r_factors")?, Some(vec![0.5, 1.0, 2.0]));
//! # Ok::<(), sparsegossip_core::toml::TomlError>(())
//! ```

use core::fmt;
use std::collections::BTreeMap;

/// The largest integer a spec value carried as `f64` may hold: every
/// integer up to `2^53 - 1` is exact, and any larger one converts to at
/// least `2^53`, so a range check on the converted value cannot admit a
/// rounded neighbour.
pub const MAX_EXACT_INT: u64 = (1 << 53) - 1;

/// Renders an `f64` so the subset parser reads it back as a float
/// (integral values keep a trailing `.0`).
#[must_use]
pub fn format_toml_f64(x: f64) -> String {
    if x == x.trunc() && x.is_finite() {
        format!("{x:.1}")
    } else {
        format!("{x}")
    }
}

/// A scalar or array value of the supported TOML subset.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlValue {
    /// An integer literal (`42`, `-3`).
    Integer(i64),
    /// A float literal (`0.5`, `1e3`).
    Float(f64),
    /// A boolean literal (`true`, `false`).
    Bool(bool),
    /// A double-quoted string.
    Str(String),
    /// A single-line array of scalars.
    Array(Vec<TomlValue>),
}

impl TomlValue {
    /// The subset's name for this value's type, used in error messages.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Self::Integer(_) => "integer",
            Self::Float(_) => "float",
            Self::Bool(_) => "boolean",
            Self::Str(_) => "string",
            Self::Array(_) => "array",
        }
    }
}

/// Errors from parsing or interrogating a spec document.
#[derive(Clone, Debug, PartialEq)]
pub enum TomlError {
    /// A line could not be parsed.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A required `[section]` is absent.
    MissingSection(String),
    /// A required key is absent from its section.
    MissingKey {
        /// The section name.
        section: String,
        /// The missing key.
        key: String,
    },
    /// A key exists but holds a value of the wrong type or range.
    BadValue {
        /// The section name.
        section: String,
        /// The offending key.
        key: String,
        /// What the caller expected, with its article (e.g. `"a string"`).
        expected: &'static str,
    },
}

impl fmt::Display for TomlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Syntax { line, message } => write!(f, "spec line {line}: {message}"),
            Self::MissingSection(s) => write!(f, "spec is missing the [{s}] section"),
            Self::MissingKey { section, key } => {
                write!(f, "spec section [{section}] is missing key {key:?}")
            }
            Self::BadValue {
                section,
                key,
                expected,
            } => write!(f, "spec key {key:?} in [{section}] must be {expected}"),
        }
    }
}

impl std::error::Error for TomlError {}

/// One `[section]` of a parsed document: a named map of keys to values
/// with typed accessors.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TomlTable {
    name: String,
    entries: BTreeMap<String, TomlValue>,
}

macro_rules! opt_scalar {
    ($(#[$doc:meta])* $fn_name:ident, $ty:ty, $expected:literal) => {
        $(#[$doc])*
        ///
        /// # Errors
        ///
        /// [`TomlError::BadValue`] if present but of the wrong type or
        /// out of range.
        pub fn $fn_name(&self, key: &str) -> Result<Option<$ty>, TomlError> {
            self.entries
                .get(key)
                .map(|v| {
                    Self::integer_of(v)
                        .and_then(|i| <$ty>::try_from(i).ok())
                        .ok_or_else(|| self.bad(key, $expected))
                })
                .transpose()
        }
    };
}

impl TomlTable {
    /// The section name (the text inside the brackets).
    #[inline]
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The raw value of `key`, if present.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&TomlValue> {
        self.entries.get(key)
    }

    /// The keys present in this section, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    fn bad(&self, key: &str, expected: &'static str) -> TomlError {
        TomlError::BadValue {
            section: self.name.clone(),
            key: key.to_string(),
            expected,
        }
    }

    fn missing(&self, key: &str) -> TomlError {
        TomlError::MissingKey {
            section: self.name.clone(),
            key: key.to_string(),
        }
    }

    fn integer_of(v: &TomlValue) -> Option<i64> {
        match v {
            TomlValue::Integer(i) => Some(*i),
            _ => None,
        }
    }

    opt_scalar!(
        /// Reads `key` as a `u32`, if present.
        opt_u32,
        u32,
        "a non-negative integer fitting u32"
    );
    opt_scalar!(
        /// Reads `key` as a `u64`, if present.
        opt_u64,
        u64,
        "a non-negative integer"
    );
    opt_scalar!(
        /// Reads `key` as a `usize`, if present.
        opt_usize,
        usize,
        "a non-negative integer"
    );

    /// Reads `key` as an `f64`, if present (integers widen).
    ///
    /// # Errors
    ///
    /// [`TomlError::BadValue`] if present but not numeric.
    pub fn opt_f64(&self, key: &str) -> Result<Option<f64>, TomlError> {
        self.entries
            .get(key)
            .map(|v| match v {
                TomlValue::Float(x) => Ok(*x),
                TomlValue::Integer(i) => Ok(*i as f64),
                _ => Err(self.bad(key, "a number")),
            })
            .transpose()
    }

    /// Reads `key` as a string slice, if present.
    ///
    /// # Errors
    ///
    /// [`TomlError::BadValue`] if present but not a string.
    pub fn opt_str(&self, key: &str) -> Result<Option<&str>, TomlError> {
        self.entries
            .get(key)
            .map(|v| match v {
                TomlValue::Str(s) => Ok(s.as_str()),
                _ => Err(self.bad(key, "a string")),
            })
            .transpose()
    }

    /// Reads `key` as a boolean, if present.
    ///
    /// # Errors
    ///
    /// [`TomlError::BadValue`] if present but not a boolean.
    pub fn opt_bool(&self, key: &str) -> Result<Option<bool>, TomlError> {
        self.entries
            .get(key)
            .map(|v| match v {
                TomlValue::Bool(b) => Ok(*b),
                _ => Err(self.bad(key, "a boolean")),
            })
            .transpose()
    }

    /// Reads `key` as an array of `f64` (integers widen), if present.
    ///
    /// # Errors
    ///
    /// [`TomlError::BadValue`] if present but not a numeric array.
    pub fn opt_f64_array(&self, key: &str) -> Result<Option<Vec<f64>>, TomlError> {
        self.entries
            .get(key)
            .map(|v| match v {
                TomlValue::Array(items) => items
                    .iter()
                    .map(|item| match item {
                        TomlValue::Float(x) => Ok(*x),
                        TomlValue::Integer(i) => Ok(*i as f64),
                        _ => Err(self.bad(key, "an array of numbers")),
                    })
                    .collect(),
                _ => Err(self.bad(key, "an array of numbers")),
            })
            .transpose()
    }

    /// Reads `key` as an array of `u32`, if present.
    ///
    /// # Errors
    ///
    /// [`TomlError::BadValue`] if present but not an array of
    /// non-negative integers fitting `u32`.
    pub fn opt_u32_array(&self, key: &str) -> Result<Option<Vec<u32>>, TomlError> {
        self.typed_int_array(key, "an array of non-negative integers fitting u32")
    }

    /// Reads `key` as an array of `usize`, if present.
    ///
    /// # Errors
    ///
    /// [`TomlError::BadValue`] if present but not an array of
    /// non-negative integers.
    pub fn opt_usize_array(&self, key: &str) -> Result<Option<Vec<usize>>, TomlError> {
        self.typed_int_array(key, "an array of non-negative integers")
    }

    fn typed_int_array<T: TryFrom<i64>>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<Vec<T>>, TomlError> {
        self.entries
            .get(key)
            .map(|v| match v {
                TomlValue::Array(items) => items
                    .iter()
                    .map(|item| {
                        Self::integer_of(item)
                            .and_then(|i| T::try_from(i).ok())
                            .ok_or_else(|| self.bad(key, expected))
                    })
                    .collect(),
                _ => Err(self.bad(key, expected)),
            })
            .transpose()
    }

    /// As [`opt_u32`](Self::opt_u32), but the key must be present.
    ///
    /// # Errors
    ///
    /// [`TomlError::MissingKey`] when absent; [`TomlError::BadValue`] on
    /// type mismatch.
    pub fn need_u32(&self, key: &str) -> Result<u32, TomlError> {
        self.opt_u32(key)?.ok_or_else(|| self.missing(key))
    }

    /// As [`opt_usize`](Self::opt_usize), but the key must be present.
    ///
    /// # Errors
    ///
    /// As [`need_u32`](Self::need_u32).
    pub fn need_usize(&self, key: &str) -> Result<usize, TomlError> {
        self.opt_usize(key)?.ok_or_else(|| self.missing(key))
    }

    /// As [`opt_str`](Self::opt_str), but the key must be present.
    ///
    /// # Errors
    ///
    /// As [`need_u32`](Self::need_u32).
    pub fn need_str(&self, key: &str) -> Result<&str, TomlError> {
        self.opt_str(key)?.ok_or_else(|| self.missing(key))
    }
}

/// A parsed spec document: `[section]`s in file order, each a
/// [`TomlTable`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TomlDoc {
    sections: Vec<TomlTable>,
}

impl TomlDoc {
    /// Parses `text` into sections.
    ///
    /// # Errors
    ///
    /// [`TomlError::Syntax`] (with a 1-based line number) on anything
    /// outside the supported subset, including keys before the first
    /// section header and duplicate sections or keys.
    pub fn parse(text: &str) -> Result<Self, TomlError> {
        let mut doc = Self::default();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw, line_no)?;
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('[') {
                let name = header
                    .strip_suffix(']')
                    .ok_or_else(|| syntax(line_no, "unterminated section header"))?
                    .trim();
                if name.is_empty() || !name.chars().all(is_key_char) {
                    return Err(syntax(line_no, "invalid section name"));
                }
                if doc.sections.iter().any(|s| s.name == name) {
                    return Err(syntax(line_no, &format!("duplicate section [{name}]")));
                }
                doc.sections.push(TomlTable {
                    name: name.to_string(),
                    entries: BTreeMap::new(),
                });
                continue;
            }
            let (key, value_text) = line
                .split_once('=')
                .ok_or_else(|| syntax(line_no, "expected `key = value` or `[section]`"))?;
            let key = key.trim();
            if key.is_empty() || !key.chars().all(is_key_char) {
                return Err(syntax(line_no, &format!("invalid key {key:?}")));
            }
            let value = parse_value(value_text.trim(), line_no)?;
            let section = doc
                .sections
                .last_mut()
                .ok_or_else(|| syntax(line_no, "key before any [section] header"))?;
            if section.entries.insert(key.to_string(), value).is_some() {
                return Err(syntax(line_no, &format!("duplicate key {key:?}")));
            }
        }
        Ok(doc)
    }

    /// The named section.
    ///
    /// # Errors
    ///
    /// [`TomlError::MissingSection`] when absent.
    pub fn section(&self, name: &str) -> Result<&TomlTable, TomlError> {
        self.opt_section(name)
            .ok_or_else(|| TomlError::MissingSection(name.to_string()))
    }

    /// The named section, if present.
    #[must_use]
    pub fn opt_section(&self, name: &str) -> Option<&TomlTable> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// The sections in file order.
    pub fn sections(&self) -> impl Iterator<Item = &TomlTable> {
        self.sections.iter()
    }
}

fn syntax(line: usize, message: &str) -> TomlError {
    TomlError::Syntax {
        line,
        message: message.to_string(),
    }
}

fn is_key_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_' || c == '-'
}

/// Removes a trailing `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str, line_no: usize) -> Result<&str, TomlError> {
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in line.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '#' if !in_string => return Ok(&line[..i]),
            _ => {}
        }
    }
    if in_string {
        return Err(syntax(line_no, "unterminated string"));
    }
    Ok(line)
}

fn parse_value(text: &str, line_no: usize) -> Result<TomlValue, TomlError> {
    if text.is_empty() {
        return Err(syntax(line_no, "missing value after `=`"));
    }
    if let Some(body) = text.strip_prefix('[') {
        let body = body
            .strip_suffix(']')
            .ok_or_else(|| syntax(line_no, "unterminated array (arrays are single-line)"))?;
        let mut items = Vec::new();
        for part in split_array_items(body, line_no)? {
            if part.starts_with('[') {
                return Err(syntax(line_no, "nested arrays are not supported"));
            }
            items.push(parse_scalar(&part, line_no)?);
        }
        return Ok(TomlValue::Array(items));
    }
    parse_scalar(text, line_no)
}

/// Splits an array body on top-level commas, respecting strings; a
/// trailing comma is allowed.
fn split_array_items(body: &str, line_no: usize) -> Result<Vec<String>, TomlError> {
    let mut items = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    let mut escaped = false;
    for c in body.chars() {
        match c {
            _ if escaped => {
                escaped = false;
                current.push(c);
            }
            '\\' if in_string => {
                escaped = true;
                current.push(c);
            }
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                items.push(core::mem::take(&mut current));
                continue;
            }
            _ => current.push(c),
        }
    }
    if in_string {
        return Err(syntax(line_no, "unterminated string in array"));
    }
    items.push(current);
    let mut trimmed: Vec<String> = items.into_iter().map(|s| s.trim().to_string()).collect();
    if trimmed.last().is_some_and(String::is_empty) {
        trimmed.pop();
    }
    if trimmed.iter().any(String::is_empty) {
        return Err(syntax(line_no, "empty array element"));
    }
    Ok(trimmed)
}

fn parse_scalar(text: &str, line_no: usize) -> Result<TomlValue, TomlError> {
    if let Some(body) = text.strip_prefix('"') {
        let body = body
            .strip_suffix('"')
            .ok_or_else(|| syntax(line_no, "unterminated string"))?;
        let mut out = String::with_capacity(body.len());
        let mut escaped = false;
        for c in body.chars() {
            match c {
                _ if escaped => {
                    if c != '"' && c != '\\' {
                        return Err(syntax(line_no, &format!("unsupported escape `\\{c}`")));
                    }
                    escaped = false;
                    out.push(c);
                }
                '\\' => escaped = true,
                '"' => return Err(syntax(line_no, "unescaped quote inside string")),
                _ => out.push(c),
            }
        }
        if escaped {
            return Err(syntax(line_no, "dangling escape at end of string"));
        }
        return Ok(TomlValue::Str(out));
    }
    match text {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if text.contains(['.', 'e', 'E']) {
        if let Ok(x) = text.parse::<f64>() {
            if x.is_finite() {
                return Ok(TomlValue::Float(x));
            }
        }
    } else if let Ok(i) = text.parse::<i64>() {
        return Ok(TomlValue::Integer(i));
    }
    Err(syntax(line_no, &format!("unparsable value {text:?}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_scalars_and_arrays() {
        let doc = TomlDoc::parse(
            "# file comment\n\
             [scenario]\n\
             process = \"broadcast\" # trailing comment\n\
             side = 64\n\
             frac = 0.5\n\
             flag = true\n\
             neg = -3\n\
             \n\
             [sweep]\n\
             sides = [32, 48, 64]\n\
             r_factors = [0.25, 1.0, 2.5,]\n\
             names = [\"a\", \"b\"]\n",
        )
        .unwrap();
        let s = doc.section("scenario").unwrap();
        assert_eq!(s.need_str("process").unwrap(), "broadcast");
        assert_eq!(s.need_u32("side").unwrap(), 64);
        assert_eq!(s.opt_f64("frac").unwrap(), Some(0.5));
        assert_eq!(s.opt_f64("side").unwrap(), Some(64.0), "integers widen");
        assert_eq!(s.opt_bool("flag").unwrap(), Some(true));
        assert_eq!(s.get("neg"), Some(&TomlValue::Integer(-3)));
        let w = doc.section("sweep").unwrap();
        assert_eq!(w.opt_u32_array("sides").unwrap(), Some(vec![32, 48, 64]));
        assert_eq!(
            w.opt_f64_array("r_factors").unwrap(),
            Some(vec![0.25, 1.0, 2.5])
        );
        assert_eq!(
            w.get("names"),
            Some(&TomlValue::Array(vec![
                TomlValue::Str("a".into()),
                TomlValue::Str("b".into())
            ]))
        );
        assert_eq!(doc.sections().count(), 2);
    }

    #[test]
    fn absent_keys_and_sections_are_reported() {
        let doc = TomlDoc::parse("[a]\nx = 1\n").unwrap();
        assert_eq!(
            doc.section("b").unwrap_err(),
            TomlError::MissingSection("b".into())
        );
        let a = doc.section("a").unwrap();
        assert_eq!(a.opt_u32("y").unwrap(), None);
        assert_eq!(
            a.need_u32("y").unwrap_err(),
            TomlError::MissingKey {
                section: "a".into(),
                key: "y".into()
            }
        );
    }

    #[test]
    fn type_and_range_mismatches_are_reported() {
        let doc = TomlDoc::parse("[a]\nx = \"hi\"\nneg = -1\nbig = 5000000000\n").unwrap();
        let a = doc.section("a").unwrap();
        assert!(matches!(
            a.opt_u32("x").unwrap_err(),
            TomlError::BadValue { .. }
        ));
        assert!(a.opt_u32("neg").is_err(), "negative rejected for u32");
        assert!(a.opt_u32("big").is_err(), "overflow rejected for u32");
        assert_eq!(a.opt_u64("big").unwrap(), Some(5_000_000_000));
        assert!(a.opt_f64("x").is_err());
        assert!(a.opt_bool("x").is_err());
        assert!(a.opt_f64_array("x").is_err());
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        for (text, line) in [
            ("[a]\nx 1\n", 2),
            ("x = 1\n", 1),
            ("[a\n", 1),
            ("[a]\n[a]\n", 2),
            ("[a]\nx = 1\nx = 2\n", 3),
            ("[a]\nx = \"unterminated\n", 2),
            ("[a]\nx = [1, 2\n", 2),
            ("[a]\nx = [[1]]\n", 2),
            ("[a]\nx = [1,,2]\n", 2),
            ("[a]\nx = zzz\n", 2),
            ("[a]\nx =\n", 2),
            ("[a]\nx = \"bad\\q\"\n", 2),
        ] {
            match TomlDoc::parse(text) {
                Err(TomlError::Syntax { line: l, .. }) => {
                    assert_eq!(l, line, "wrong line for {text:?}")
                }
                other => panic!("{text:?}: expected syntax error, got {other:?}"),
            }
        }
    }

    #[test]
    fn floats_reject_non_finite_and_ints_reject_float_syntax() {
        assert!(TomlDoc::parse("[a]\nx = inf\n").is_err());
        let doc = TomlDoc::parse("[a]\nx = 1e3\n").unwrap();
        let a = doc.section("a").unwrap();
        assert_eq!(a.opt_f64("x").unwrap(), Some(1000.0));
        assert!(a.opt_u32("x").is_err(), "float does not narrow to u32");
    }

    #[test]
    fn error_display_is_informative() {
        for e in [
            TomlError::Syntax {
                line: 3,
                message: "boom".into(),
            },
            TomlError::MissingSection("s".into()),
            TomlError::MissingKey {
                section: "s".into(),
                key: "k".into(),
            },
            TomlError::BadValue {
                section: "s".into(),
                key: "k".into(),
                expected: "a string",
            },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
