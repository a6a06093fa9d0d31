use std::fmt;

/// Error type for `amc-arch` operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArchError {
    /// Invalid model parameters or problem size.
    InvalidConfig {
        /// Explanation of what was wrong.
        message: String,
    },
}

impl ArchError {
    /// Shorthand constructor for [`ArchError::InvalidConfig`].
    pub(crate) fn config(message: impl Into<String>) -> Self {
        ArchError::InvalidConfig {
            message: message.into(),
        }
    }
}

impl fmt::Display for ArchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchError::InvalidConfig { message } => {
                write!(f, "invalid architecture model configuration: {message}")
            }
        }
    }
}

impl std::error::Error for ArchError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_traits() {
        let e = ArchError::config("n must be >= 2");
        assert!(e.to_string().contains("n must be >= 2"));
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ArchError>();
    }
}
