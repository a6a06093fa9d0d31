use std::fmt;

/// Error type for all fallible operations in `amc-circuit`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CircuitError {
    /// Invalid simulator or circuit configuration.
    InvalidConfig {
        /// Explanation of what was wrong.
        message: String,
    },
    /// Input vector shape does not match the circuit.
    ShapeMismatch {
        /// Human-readable description of the operation.
        op: &'static str,
        /// Expected length.
        expected: usize,
        /// Provided length.
        got: usize,
    },
    /// The circuit equilibrium does not exist or could not be computed
    /// (e.g. the effective matrix became singular under non-idealities —
    /// physically, the op-amp feedback loop has no stable operating point).
    NoOperatingPoint {
        /// Explanation of the breakdown.
        message: String,
    },
    /// An op-amp output exceeded its supply rails; the linear analysis is
    /// no longer valid.
    OutputSaturated {
        /// Index of the first saturated op-amp.
        index: usize,
        /// Voltage the linear solution demanded.
        voltage: f64,
        /// Supply limit.
        limit: f64,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(amc_linalg::LinalgError),
    /// An underlying device-model operation failed.
    Device(amc_device::DeviceError),
}

impl CircuitError {
    /// Shorthand constructor for [`CircuitError::InvalidConfig`].
    pub fn config(message: impl Into<String>) -> Self {
        CircuitError::InvalidConfig {
            message: message.into(),
        }
    }

    /// Shorthand constructor for [`CircuitError::NoOperatingPoint`].
    pub(crate) fn no_op_point(message: impl Into<String>) -> Self {
        CircuitError::NoOperatingPoint {
            message: message.into(),
        }
    }
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::InvalidConfig { message } => {
                write!(f, "invalid circuit configuration: {message}")
            }
            CircuitError::ShapeMismatch { op, expected, got } => {
                write!(f, "shape mismatch in {op}: expected {expected}, got {got}")
            }
            CircuitError::NoOperatingPoint { message } => {
                write!(f, "no circuit operating point: {message}")
            }
            CircuitError::OutputSaturated {
                index,
                voltage,
                limit,
            } => write!(
                f,
                "op-amp {index} saturated: linear solution needs {voltage:.3} V, \
                 supply limit is ±{limit:.3} V"
            ),
            CircuitError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            CircuitError::Device(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for CircuitError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CircuitError::Linalg(e) => Some(e),
            CircuitError::Device(e) => Some(e),
            _ => None,
        }
    }
}

impl From<amc_linalg::LinalgError> for CircuitError {
    fn from(e: amc_linalg::LinalgError) -> Self {
        CircuitError::Linalg(e)
    }
}

impl From<amc_device::DeviceError> for CircuitError {
    fn from(e: amc_device::DeviceError) -> Self {
        CircuitError::Device(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(CircuitError::config("bad gain")
            .to_string()
            .contains("bad gain"));
        assert!(CircuitError::ShapeMismatch {
            op: "mvm",
            expected: 4,
            got: 3
        }
        .to_string()
        .contains("mvm"));
        assert!(CircuitError::OutputSaturated {
            index: 2,
            voltage: 5.0,
            limit: 1.2
        }
        .to_string()
        .contains("saturated"));
    }

    #[test]
    fn wraps_sources() {
        use std::error::Error;
        let e = CircuitError::from(amc_linalg::LinalgError::Singular { pivot: 1 });
        assert!(e.source().is_some());
        let e = CircuitError::from(amc_device::DeviceError::config("x"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CircuitError>();
    }
}
