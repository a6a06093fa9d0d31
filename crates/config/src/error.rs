//! Error types: positioned text-level [`ParseError`] and path-carrying
//! value-level [`ConfigError`].

use crate::value::Json;

/// A text-level parse failure with 1-based line/column positioning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending character.
    pub line: usize,
    /// 1-based column (in characters) of the offending character.
    pub column: usize,
    /// What went wrong at that position.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}, column {}: {}",
            self.line, self.column, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// A value-level decode failure.
///
/// Decode helpers prefix errors with the path from the document root to
/// the offending value (e.g. `solvers[2].config.stages`), so a
/// misspelled field deep inside a campaign file is reported where it
/// sits. Unknown fields and variants name the offender and list the
/// known alternatives, mirroring the engine registry's `UnknownEngine`
/// style.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The text was not valid JSON.
    Parse(ParseError),
    /// A value had the wrong JSON kind.
    Type {
        /// Dotted path from the document root (empty at the root).
        path: String,
        /// What the decoder wanted, e.g. `an object (SolverConfig)`.
        expected: String,
        /// The kind actually found, e.g. `a string`.
        found: &'static str,
    },
    /// A required field was absent.
    Missing {
        /// Dotted path of the enclosing object.
        path: String,
        /// The Rust type being decoded.
        ty: &'static str,
        /// The missing field name.
        field: &'static str,
    },
    /// A field name the type does not have.
    UnknownField {
        /// Dotted path of the enclosing object.
        path: String,
        /// The Rust type being decoded.
        ty: &'static str,
        /// The unrecognized field name.
        field: String,
        /// Comma-separated field names the type does have.
        known: String,
    },
    /// An enum tag no variant matches.
    UnknownVariant {
        /// Dotted path of the enclosing value.
        path: String,
        /// The Rust enum being decoded.
        ty: &'static str,
        /// The unrecognized variant tag.
        variant: String,
        /// Comma-separated tags the enum does have.
        known: String,
    },
    /// A structurally valid value that fails domain validation (builder
    /// or registry rejection, out-of-range numbers, …).
    Invalid {
        /// Dotted path of the offending value.
        path: String,
        /// The validation failure.
        message: String,
    },
}

impl ConfigError {
    /// A kind-mismatch error at the current (empty) path.
    pub(crate) fn mismatch(expected: impl Into<String>, found: &Json) -> ConfigError {
        ConfigError::Type {
            path: String::new(),
            expected: expected.into(),
            found: found.kind(),
        }
    }

    /// A domain-validation error at the current (empty) path.
    pub fn invalid(message: impl Into<String>) -> ConfigError {
        ConfigError::Invalid {
            path: String::new(),
            message: message.into(),
        }
    }

    /// Returns the error with `segment.` prefixed onto its path, for
    /// decoders descending into named fields. Parse errors are
    /// positioned by line/column instead and pass through unchanged.
    #[must_use]
    pub fn at(mut self, segment: &str) -> ConfigError {
        if let Some(path) = self.path_mut() {
            *path = if path.is_empty() {
                segment.to_string()
            } else if path.starts_with('[') {
                format!("{segment}{path}")
            } else {
                format!("{segment}.{path}")
            };
        }
        self
    }

    /// Returns the error with `[index]` prefixed onto its path, for
    /// decoders descending into array elements.
    #[must_use]
    pub(crate) fn at_index(mut self, index: usize) -> ConfigError {
        if let Some(path) = self.path_mut() {
            *path = if path.is_empty() {
                format!("[{index}]")
            } else if path.starts_with('[') {
                format!("[{index}]{path}")
            } else {
                format!("[{index}].{path}")
            };
        }
        self
    }

    fn path_mut(&mut self) -> Option<&mut String> {
        match self {
            ConfigError::Parse(_) => None,
            ConfigError::Type { path, .. }
            | ConfigError::Missing { path, .. }
            | ConfigError::UnknownField { path, .. }
            | ConfigError::UnknownVariant { path, .. }
            | ConfigError::Invalid { path, .. } => Some(path),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let at = |path: &str| {
            if path.is_empty() {
                String::new()
            } else {
                format!(" at `{path}`")
            }
        };
        match self {
            ConfigError::Parse(e) => write!(f, "{e}"),
            ConfigError::Type {
                path,
                expected,
                found,
            } => {
                write!(f, "expected {expected}, found {found}{}", at(path))
            }
            ConfigError::Missing { path, ty, field } => {
                write!(f, "missing field `{field}` for {ty}{}", at(path))
            }
            ConfigError::UnknownField {
                path,
                ty,
                field,
                known,
            } => {
                write!(
                    f,
                    "unknown field `{field}` for {ty}{} (known: {known})",
                    at(path)
                )
            }
            ConfigError::UnknownVariant {
                path,
                ty,
                variant,
                known,
            } => {
                write!(
                    f,
                    "unknown {ty} variant `{variant}`{} (known: {known})",
                    at(path)
                )
            }
            ConfigError::Invalid { path, message } => {
                write!(f, "invalid value{}: {message}", at(path))
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ParseError> for ConfigError {
    fn from(e: ParseError) -> ConfigError {
        ConfigError::Parse(e)
    }
}
