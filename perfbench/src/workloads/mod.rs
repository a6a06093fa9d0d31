//! The four workloads. Each builds its inputs from the seeds, sets up
//! [`SETUP_REPEATS`] times, measures for the window, and checks its
//! answers after the window closes.

use std::time::Instant;

use crate::measure::{Latencies, Window};

pub mod analog_mc;
pub mod prepare_churn;
pub mod rhs_stream;
pub mod serve_mix;

/// How often set-up runs; `setup_s` is the median.
const SETUP_REPEATS: usize = 5;

/// What the command line asked for.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Seeds the matrices.
    pub seed: u64,
    /// Seeds the request stream: right-hand sides, picks, trial draws.
    pub seed2: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    pub setup_s: Vec<f64>,
    /// Wall time of each top-level call, by the time slice it started in.
    pub latencies: Latencies,
    /// The percentile `latency_tail_ms` reports (see `README.md`).
    pub tail_percentile: f64,
    pub window: Window,
    pub attempted: u64,
    pub failed: u64,
    /// Eq. 6 errors behind `rel_error_median`.
    pub rel_errors: Vec<f64>,
    /// Layer metrics only this workload can read.
    pub layers: Vec<(&'static str, f64)>,
    /// Extra facts for the report line, as rendered JSON values.
    pub notes: Vec<(&'static str, String)>,
}

/// Runs `setup` [`SETUP_REPEATS`] times, dropping each result before the
/// next attempt, and returns the last result with every attempt's time.
fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, Vec<f64>), String> {
    let mut last = None;
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPEATS is positive"), times))
}

/// SplitMix64 of `seed` and `salt`: independent streams from one seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}
