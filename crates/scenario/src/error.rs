use std::fmt;

/// Error type for all fallible operations in `amc-scenario`.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// A campaign or workload specification is malformed (empty axis,
    /// zero trials, size a family cannot realize, …).
    InvalidSpec {
        /// Explanation of what was wrong.
        message: String,
    },
    /// An underlying linear-algebra operation failed.
    Linalg(amc_linalg::LinalgError),
    /// An underlying circuit-model operation failed.
    Circuit(amc_circuit::CircuitError),
    /// An underlying solver operation failed.
    Solver(blockamc::BlockAmcError),
    /// An underlying architecture-model operation failed.
    Arch(amc_arch::ArchError),
}

impl ScenarioError {
    /// Shorthand constructor for [`ScenarioError::InvalidSpec`].
    pub(crate) fn spec(message: impl Into<String>) -> Self {
        ScenarioError::InvalidSpec {
            message: message.into(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::InvalidSpec { message } => {
                write!(f, "invalid scenario specification: {message}")
            }
            ScenarioError::Linalg(e) => write!(f, "linear algebra error: {e}"),
            ScenarioError::Circuit(e) => write!(f, "circuit error: {e}"),
            ScenarioError::Solver(e) => write!(f, "solver error: {e}"),
            ScenarioError::Arch(e) => write!(f, "architecture model error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Linalg(e) => Some(e),
            ScenarioError::Circuit(e) => Some(e),
            ScenarioError::Solver(e) => Some(e),
            ScenarioError::Arch(e) => Some(e),
            ScenarioError::InvalidSpec { .. } => None,
        }
    }
}

impl From<amc_linalg::LinalgError> for ScenarioError {
    fn from(e: amc_linalg::LinalgError) -> Self {
        ScenarioError::Linalg(e)
    }
}

impl From<amc_circuit::CircuitError> for ScenarioError {
    fn from(e: amc_circuit::CircuitError) -> Self {
        ScenarioError::Circuit(e)
    }
}

impl From<blockamc::BlockAmcError> for ScenarioError {
    fn from(e: blockamc::BlockAmcError) -> Self {
        ScenarioError::Solver(e)
    }
}

impl From<amc_arch::ArchError> for ScenarioError {
    fn from(e: amc_arch::ArchError) -> Self {
        ScenarioError::Arch(e)
    }
}
