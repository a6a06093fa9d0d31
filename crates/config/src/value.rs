//! The [`Json`] value model and its text emitter.
//!
//! This is the single in-memory representation every config file and
//! report artifact in the workspace goes through. The emitter
//! ([`Json::render`]) and the parser ([`Json::parse`]) are exact
//! inverses on everything the tree can emit: rendering uses the
//! shortest-round-trip `f64` formatting (`{:?}`), parsing reads numbers
//! with `str::parse::<f64>` (correctly rounded), so
//! `parse(render(x)) == x` bit-for-bit.

use std::fmt::Write as _;

use crate::error::ParseError;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`, which keeps
    /// emitted files standard-compliant; the `f64` encoder normalizes
    /// non-finite inputs to [`Json::Null`] up front).
    Num(f64),
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// An integer above `i64::MAX`, rendered without a decimal point.
    /// The parser only produces this variant for literals that do not
    /// fit [`Json::Int`], so integer values have one canonical form.
    UInt(u64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Builds a numeric value, normalizing non-finite inputs to
    /// [`Json::Null`].
    ///
    /// The emitter already renders non-finite [`Json::Num`] as `null`;
    /// normalizing at construction makes the in-memory value agree with
    /// its rendering, so `parse(render(x)) == x` is total on everything
    /// built through this constructor.
    pub(crate) fn num(x: f64) -> Json {
        if x.is_finite() {
            Json::Num(x)
        } else {
            Json::Null
        }
    }

    /// Builds the externally-tagged encoding of an enum variant with a
    /// payload: `{"Name": payload}`.
    pub fn tagged(name: &str, payload: Json) -> Json {
        Json::Obj(vec![(name.to_string(), payload)])
    }

    /// Parses strict JSON text into a value.
    ///
    /// Strictness guarantees (each rejection carries the offending line
    /// and column):
    ///
    /// - duplicate object keys are rejected,
    /// - trailing non-whitespace after the top-level value is rejected,
    /// - nesting deeper than `Json::MAX_DEPTH` levels is rejected,
    /// - numbers follow the JSON grammar exactly (no leading zeros, no
    ///   bare `.5`, no `Infinity`/`NaN`), and literals that overflow
    ///   `f64` or `u64` are rejected rather than saturated,
    /// - strings must escape control characters and pair surrogates.
    ///
    /// Integer literals decode to [`Json::Int`] when they fit `i64`,
    /// to [`Json::UInt`] otherwise; literals with a fraction or
    /// exponent decode to [`Json::Num`] via `str::parse::<f64>`, which
    /// is correctly rounded — so the emitter's shortest-round-trip
    /// `f64` text parses back to identical bits.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseError`] with 1-based line/column positioning on
    /// any malformed input; this function never panics.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        crate::parse::parse(text)
    }

    /// Maximum nesting depth [`Json::parse`] accepts.
    pub(crate) const MAX_DEPTH: usize = 128;

    /// A short name for the value's kind, used in error messages.
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "a bool",
            Json::Num(_) | Json::Int(_) | Json::UInt(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        }
    }

    /// Renders the value as pretty-printed JSON (2-space indent) with a
    /// trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    // `{:?}` is the shortest representation that parses
                    // back to the same f64, and always carries a decimal
                    // point or exponent.
                    let _ = write!(out, "{x:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Str(s) => render_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (k, item) in items.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    item.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (k, (key, value)) in pairs.iter().enumerate() {
                    if k > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    push_indent(out, indent + 1);
                    render_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, indent + 1);
                }
                out.push('\n');
                push_indent(out, indent);
                out.push('}');
            }
        }
    }
}

fn push_indent(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::num(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Int(v as i64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::Int(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl From<Option<f64>> for Json {
    fn from(v: Option<f64>) -> Json {
        v.map_or(Json::Null, Json::num)
    }
}

impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Writes a rendered JSON value to `path`.
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_json(path: &str, value: &Json) -> std::io::Result<()> {
    std::fs::write(path, value.render())
}
