//! Error type shared by the wire codec, transports, client, and server.

use std::fmt;
use std::io;

/// Convenience alias used throughout `amc-serve`.
pub type Result<T> = std::result::Result<T, ServeError>;

/// Everything that can go wrong between a client and the solver service.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// An underlying transport failed (socket error, broken pipe, …).
    Io(io::Error),
    /// A frame violated the wire protocol: bad version, unknown tag,
    /// truncated payload, or a field that fails validation on decode.
    Protocol(String),
    /// The server's pending queue is full; the request was rejected
    /// without queueing (the wire-level [`Busy`](crate::wire::Response::Busy)
    /// response). Back off and retry.
    Busy,
    /// A solve referenced a fingerprint that is not (or no longer) in
    /// the prepared-solver cache; send a `Prepare` or an inline matrix.
    NotPrepared {
        /// The matrix fingerprint the request referenced.
        fingerprint: u64,
    },
    /// The server reported a solver-side failure (engine build,
    /// preparation, or solve error), forwarded as text.
    Remote(String),
    /// The peer closed the connection, or the server is shutting down
    /// and will not process further work.
    Closed,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "transport I/O error: {e}"),
            ServeError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            ServeError::Busy => write!(f, "server busy: pending queue full"),
            ServeError::NotPrepared { fingerprint } => write!(
                f,
                "no prepared solver cached for matrix fingerprint {fingerprint:#018x}"
            ),
            ServeError::Remote(msg) => write!(f, "server-side solver error: {msg}"),
            ServeError::Closed => write!(f, "connection closed / server shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl ServeError {
    /// Shorthand for a [`ServeError::Protocol`] from anything printable.
    pub(crate) fn protocol(msg: impl Into<String>) -> Self {
        ServeError::Protocol(msg.into())
    }
}
