//! Blocking request/response client over any [`Transport`].

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use amc_linalg::Matrix;
use blockamc::solver::SolverConfig;

use crate::error::{Result, ServeError};
use crate::server::{Received, TcpTransport, Transport};
use crate::wire::{EngineRef, MatrixRef, Request, Response, ServerStats};

/// A synchronous client: one request in flight at a time, matching the
/// server's one-connection-one-stream model. Construct over TCP with
/// [`Client::connect`] or in-process with
/// [`Server::loopback`](crate::server::Server::loopback) +
/// [`Client::new`].
#[derive(Debug)]
pub struct Client<T: Transport> {
    transport: T,
}

impl Client<TcpTransport> {
    /// Connects to a TCP server.
    ///
    /// # Errors
    ///
    /// Socket connection/configuration failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Ok(Client::new(TcpTransport::new(stream)?))
    }
}

impl<T: Transport> Client<T> {
    /// Wraps a connected transport.
    pub fn new(transport: T) -> Self {
        Client { transport }
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Transport failures, [`ServeError::Closed`] if the connection
    /// drops before a response arrives, and [`ServeError::Protocol`]
    /// for an undecodable response.
    pub fn request(&mut self, request: &Request) -> Result<Response> {
        self.transport.send(&request.encode())?;
        loop {
            match self.transport.recv(Duration::from_millis(50))? {
                Received::Frame(payload) => return Response::decode(&payload),
                Received::Closed => return Err(ServeError::Closed),
                Received::Idle => continue,
            }
        }
    }

    /// Prepares `matrix` on the server, returning `(fingerprint,
    /// cache_hit)`.
    ///
    /// # Errors
    ///
    /// Transport failures and server-side preparation errors
    /// ([`ServeError::Remote`]).
    pub fn prepare(
        &mut self,
        matrix: &Matrix,
        config: &SolverConfig,
        engine: &EngineRef,
    ) -> Result<(u64, bool)> {
        match self.request(&Request::Prepare {
            matrix: matrix.clone(),
            config: config.clone(),
            engine: engine.clone(),
        })? {
            Response::Prepared { fingerprint, hit } => Ok((fingerprint, hit)),
            other => Err(unexpected(other)),
        }
    }

    /// Solves one right-hand side.
    ///
    /// # Errors
    ///
    /// [`ServeError::Busy`] when the queue is full,
    /// [`ServeError::NotPrepared`] for an unknown cached fingerprint,
    /// [`ServeError::Remote`] for solver-side failures, and transport
    /// failures.
    pub fn solve(
        &mut self,
        matrix: MatrixRef,
        config: &SolverConfig,
        engine: &EngineRef,
        rhs: &[f64],
    ) -> Result<Vec<f64>> {
        self.solve_accepting(matrix, config, engine, rhs, false)
            .map(|(x, _)| x)
    }

    /// [`Client::solve`] with an explicit stale-but-fast opt-in: when
    /// `accept_degraded` is set, an aging server serves a solver its
    /// health monitor has flagged as degraded rather than evicting and
    /// re-preparing it. Returns the solution plus whether it actually
    /// came from a degraded solver.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::solve`].
    pub fn solve_accepting(
        &mut self,
        matrix: MatrixRef,
        config: &SolverConfig,
        engine: &EngineRef,
        rhs: &[f64],
        accept_degraded: bool,
    ) -> Result<(Vec<f64>, bool)> {
        match self.request(&Request::Solve {
            matrix,
            config: config.clone(),
            engine: engine.clone(),
            rhs: rhs.to_vec(),
            accept_degraded,
        })? {
            Response::Solved { x, degraded } => Ok((x, degraded)),
            other => Err(unexpected(other)),
        }
    }

    /// Solves a batch of right-hand sides; solutions come back in input
    /// order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Client::solve`].
    pub fn solve_batch(
        &mut self,
        matrix: MatrixRef,
        config: &SolverConfig,
        engine: &EngineRef,
        batch: Vec<Vec<f64>>,
    ) -> Result<Vec<Vec<f64>>> {
        match self.request(&Request::SolveBatch {
            matrix,
            config: config.clone(),
            engine: engine.clone(),
            batch,
            accept_degraded: false,
        })? {
            Response::SolvedBatch { xs, .. } => Ok(xs),
            other => Err(unexpected(other)),
        }
    }

    /// Evicts the cached solver under the exact key; `true` if it was
    /// present.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn evict(
        &mut self,
        fingerprint: u64,
        config: &SolverConfig,
        engine: &EngineRef,
    ) -> Result<bool> {
        match self.request(&Request::Evict {
            fingerprint,
            config: config.clone(),
            engine: engine.clone(),
        })? {
            Response::Evicted { found } => Ok(found),
            other => Err(unexpected(other)),
        }
    }

    /// Reads the server's counters.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn stats(&mut self) -> Result<ServerStats> {
        match self.request(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected(other)),
        }
    }

    /// Asks the server to shut down.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn shutdown(&mut self) -> Result<()> {
        match self.request(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// Maps a response that doesn't match the request's happy path onto the
/// corresponding error.
fn unexpected(response: Response) -> ServeError {
    match response {
        Response::Busy => ServeError::Busy,
        Response::NotPrepared { fingerprint } => ServeError::NotPrepared { fingerprint },
        Response::ShuttingDown => ServeError::Closed,
        Response::Error { message } => ServeError::Remote(message),
        other => ServeError::protocol(format!("unexpected response variant: {other:?}")),
    }
}
