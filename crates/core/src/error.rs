use std::fmt;

/// Error type for all fallible operations in `blockamc`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum BlockAmcError {
    /// Invalid solver/partition configuration.
    InvalidConfig {
        /// Explanation of what was wrong.
        message: String,
    },
    /// Input shapes disagree (matrix not square, `b` wrong length, …).
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Expected size.
        expected: usize,
        /// Provided size.
        got: usize,
    },
    /// An engine was handed an operand programmed by a different engine
    /// kind (e.g. a numeric operand passed to the circuit engine).
    OperandMismatch {
        /// The engine that rejected the operand.
        engine: &'static str,
    },
    /// A name was looked up in an [`crate::engine::EngineRegistry`]
    /// that has no backend registered under it.
    UnknownEngine {
        /// The unregistered name.
        name: String,
        /// Comma-separated names the registry does know.
        known: String,
    },
    /// An input holds a NaN or an infinity. Raised at the solver boundary
    /// (prepare, solve and the batch entry points) before any engine
    /// call, instead of a misleading "singular" or a silent all-NaN
    /// answer.
    NonFinite {
        /// Which input: `"A"` (the matrix) or `"b"` (the right-hand
        /// side).
        which: &'static str,
        /// Position of the first non-finite entry: row-major for `"A"`;
        /// for a batch of right-hand sides laid end to end, entry `i` of
        /// right-hand side `r` is `r·n + i`.
        index: usize,
    },
    /// The leading block `A1` of a partition has no LU factorisation, so
    /// the Schur complement at this split does not exist. The matrix
    /// being partitioned may still be nonsingular: a permutation or a
    /// saddle-point system can have a singular leading block.
    SingularLeadingBlock {
        /// Size of the partitioned block.
        n: usize,
        /// The split index: `A1` is `split×split`.
        split: usize,
        /// Pivot of `A1` at which the factorisation broke down.
        pivot: usize,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(amc_linalg::LinalgError),
    /// An underlying device-model operation failed.
    Device(amc_device::DeviceError),
    /// An underlying circuit-simulation operation failed.
    Circuit(amc_circuit::CircuitError),
}

impl BlockAmcError {
    /// Shorthand constructor for [`BlockAmcError::InvalidConfig`].
    pub(crate) fn config(message: impl Into<String>) -> Self {
        BlockAmcError::InvalidConfig {
            message: message.into(),
        }
    }

    /// Rejects `values` with [`BlockAmcError::NonFinite`] naming `which`
    /// and the position of the first NaN or infinity.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::NonFinite`] if any entry is not finite.
    pub(crate) fn check_finite<'a>(
        which: &'static str,
        values: impl IntoIterator<Item = &'a f64>,
    ) -> Result<(), Self> {
        match values.into_iter().position(|v| !v.is_finite()) {
            Some(index) => Err(BlockAmcError::NonFinite { which, index }),
            None => Ok(()),
        }
    }
}

impl fmt::Display for BlockAmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockAmcError::InvalidConfig { message } => {
                write!(f, "invalid solver configuration: {message}")
            }
            BlockAmcError::ShapeMismatch { op, expected, got } => {
                write!(f, "shape mismatch in {op}: expected {expected}, got {got}")
            }
            BlockAmcError::OperandMismatch { engine } => {
                write!(
                    f,
                    "operand was programmed by a different engine kind than {engine}"
                )
            }
            BlockAmcError::UnknownEngine { name, known } => {
                write!(
                    f,
                    "no engine backend registered under '{name}' (known: {known})"
                )
            }
            BlockAmcError::NonFinite { which, index } => {
                write!(f, "non-finite value in {which} at index {index}")
            }
            BlockAmcError::SingularLeadingBlock { n, split, pivot } => write!(
                f,
                "leading block A1 ({split}x{split}) of the {n}x{n} block split at \
                 {split} has no LU factorisation (zero pivot at index {pivot}); \
                 the Schur complement needs another split"
            ),
            BlockAmcError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            BlockAmcError::Device(e) => write!(f, "device error: {e}"),
            BlockAmcError::Circuit(e) => write!(f, "circuit error: {e}"),
        }
    }
}

impl std::error::Error for BlockAmcError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BlockAmcError::Linalg(e) => Some(e),
            BlockAmcError::Device(e) => Some(e),
            BlockAmcError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<amc_linalg::LinalgError> for BlockAmcError {
    fn from(e: amc_linalg::LinalgError) -> Self {
        BlockAmcError::Linalg(e)
    }
}

impl From<amc_device::DeviceError> for BlockAmcError {
    fn from(e: amc_device::DeviceError) -> Self {
        BlockAmcError::Device(e)
    }
}

impl From<amc_circuit::CircuitError> for BlockAmcError {
    fn from(e: amc_circuit::CircuitError) -> Self {
        BlockAmcError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(BlockAmcError::config("split too large")
            .to_string()
            .contains("split too large"));
        assert!(BlockAmcError::ShapeMismatch {
            op: "solve",
            expected: 8,
            got: 4
        }
        .to_string()
        .contains("solve"));
        assert!(BlockAmcError::OperandMismatch { engine: "numeric" }
            .to_string()
            .contains("numeric"));
        let err = BlockAmcError::NonFinite {
            which: "b",
            index: 3,
        };
        assert_eq!(err.to_string(), "non-finite value in b at index 3");
    }

    #[test]
    fn check_finite_names_the_first_bad_entry() {
        assert_eq!(BlockAmcError::check_finite("b", &[1.0, -0.0]), Ok(()));
        assert_eq!(
            BlockAmcError::check_finite("A", &[1.0, f64::INFINITY, f64::NAN]),
            Err(BlockAmcError::NonFinite {
                which: "A",
                index: 1
            })
        );
    }

    #[test]
    fn wraps_all_sources() {
        use std::error::Error;
        assert!(
            BlockAmcError::from(amc_linalg::LinalgError::Singular { pivot: 0 })
                .source()
                .is_some()
        );
        assert!(BlockAmcError::from(amc_device::DeviceError::config("x"))
            .source()
            .is_some());
        assert!(BlockAmcError::from(amc_circuit::CircuitError::config("y"))
            .source()
            .is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BlockAmcError>();
    }
}
