//! Host speed, measured with a fixed reference load, so that the timed
//! metrics can be scaled to a host of nominal speed.
//!
//! The reference host is a 2-core VM shared with other tenants. Its
//! speed moves by 15–45 % over tens of minutes, and by 10–30 % from one
//! 20 s run to the next while a neighbour is busy, and every workload
//! slows with it. So two sets of runs of the same code taken at
//! different times disagree by more than any useful bound. The reference
//! load is an unpivoted LU of a fixed 96×96 diagonally dominant matrix:
//! cache-resident floating-point work like the solvers' kernels. It is
//! plain std code in this file, so no change to the repository's crates
//! can move it. The window pauses every [`EVERY`] at a tick, while no
//! other thread of the workload is busy (see `measure.rs`), and samples it
//! there, so the samples see the host as the workload saw it. The
//! slowdown is the median sample time over its nominal time, the median
//! on the reference host when it was quiet.
//!
//! A thread hand-off round trip makes a poor second reference for the
//! server workload: it gets faster, not slower, when another process
//! keeps the second core busy, because no idle core has to wake.

use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::measure::median;

/// Median µs of one sample on the quiet reference host.
const NOMINAL_US: f64 = 42.5;
/// How often the window pauses to sample the reference load.
pub const EVERY: Duration = Duration::from_secs(1);
/// Idle time at the start of a pause.
const SETTLE: Duration = Duration::from_millis(5);
/// Sampling time of a pause.
const BURST: Duration = Duration::from_millis(20);
/// Room for the samples of one pause: a sample takes about 40 µs on the
/// reference host, and this leaves room for a host twice as fast.
pub const SAMPLES_PER_PAUSE: usize = 1024;
const LU_N: usize = 96;

/// The reference load and its samples, in µs.
#[derive(Debug, Clone)]
pub struct HostSpeed {
    template: Vec<f64>,
    work: Vec<f64>,
    samples_us: Vec<f64>,
}

impl HostSpeed {
    /// Room for `capacity` samples, allocated up front so that sampling
    /// inside the window allocates nothing.
    pub fn with_capacity(capacity: usize) -> HostSpeed {
        let template = lu_input();
        HostSpeed {
            work: template.clone(),
            template,
            samples_us: Vec::with_capacity(capacity),
        }
    }

    /// Times the reference load once.
    pub fn sample(&mut self) {
        // The copy also brings both matrices back into cache.
        self.work.copy_from_slice(&self.template);
        let start = Instant::now();
        lu_in_place(black_box(&mut self.work));
        self.samples_us.push(start.elapsed().as_secs_f64() * 1e6);
        black_box(&self.work);
    }

    /// One pause of the window: lets the workload's aftermath settle
    /// (threads exiting, pages being freed), then samples for [`BURST`].
    pub fn pause(&mut self) {
        std::thread::sleep(SETTLE);
        let end = Instant::now() + BURST;
        while Instant::now() < end {
            self.sample();
        }
    }

    /// Median sample time over nominal: above 1 on a slow host.
    pub fn slowdown(&self) -> f64 {
        median(&self.samples_us) / NOMINAL_US
    }

    pub fn samples(&self) -> usize {
        self.samples_us.len()
    }
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed::with_capacity(0)
    }
}

/// A fixed diagonally dominant matrix, row-major.
fn lu_input() -> Vec<f64> {
    let mut a = vec![0.0; LU_N * LU_N];
    for i in 0..LU_N {
        for j in 0..LU_N {
            a[i * LU_N + j] = ((i * 7 + j * 13) % 17) as f64 / 17.0 - 0.5;
        }
        a[i * LU_N + i] += LU_N as f64;
    }
    a
}

/// Doolittle LU without pivoting, in place.
fn lu_in_place(a: &mut [f64]) {
    for k in 0..LU_N {
        let (done, rest) = a.split_at_mut((k + 1) * LU_N);
        let pivot_row = &done[k * LU_N..];
        for row in rest.chunks_exact_mut(LU_N) {
            let l = row[k] / pivot_row[k];
            row[k] = l;
            for (x, p) in row[k + 1..].iter_mut().zip(&pivot_row[k + 1..]) {
                *x -= l * p;
            }
        }
    }
}
