//! Golden pins of the INV settle-time model.
//!
//! `timing::min_eigenvalue_magnitude` runs up to 100 steps of inverse
//! iteration through `LuFactor::solve_into` and `Matrix::matvec_into`,
//! so its result depends on every bit those kernels return. The values
//! here were recorded before those kernels were given several
//! independent accumulators; the kernels promise an unchanged summation
//! order, and these pins hold them to it end to end.
//!
//! The matrices are normalised to a largest entry of 1, as the campaign
//! latency model does before asking for a settle time:
//!
//! - a seeded 128×128 Wishart, whose iteration runs into the 100-step
//!   cap, and its 32×32 leading block (the leaf of a depth-2 cascade),
//!   which does too;
//! - `poisson_2d(8, 16)`, whose iteration converges after 17 steps, and
//!   its 32×32 leading block, after 74.

use amc_circuit::opamp::OpAmpSpec;
use amc_circuit::timing::{self, DEFAULT_SETTLE_EPSILON};
use amc_linalg::{generate, Matrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// `m / max|m|`, the normalisation of the campaign latency model.
fn normalised(m: &Matrix) -> Matrix {
    m.scaled(1.0 / m.max_abs())
}

fn leading_block(m: &Matrix, n: usize) -> Matrix {
    normalised(&m.block(0, 0, n, n).unwrap())
}

/// `(label, matrix)` for every pinned case.
fn cases() -> Vec<(&'static str, Matrix)> {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let wishart = generate::wishart_default(128, &mut rng).unwrap();
    let poisson = generate::poisson_2d(8, 16).unwrap();
    vec![
        ("wishart128", normalised(&wishart)),
        ("wishart128[..32]", leading_block(&wishart, 32)),
        ("poisson2d(8,16)", normalised(&poisson)),
        ("poisson2d(8,16)[..32]", leading_block(&poisson, 32)),
    ]
}

/// Per case: `[|λ_min|, settle time under the 45 nm op-amp]`, as `f64`
/// bit patterns.
const PINS: [[u64; 2]; 4] = [
    [0x3fce1d126899e73a, 0x3e9f5c525a0e11a9],
    [0x3fe144323c2a691b, 0x3e8b58ec5a9c8ec6],
    [0x3fa3cc2de9712b86, 0x3ec7d9d52474e7dd],
    [0x3fd08b7bff80a8f4, 0x3e9c8a3ccae93596],
];

#[test]
fn settle_time_model_matches_golden_bits() {
    let mut drifted = Vec::new();
    for ((label, g_hat), want) in cases().into_iter().zip(PINS) {
        let lambda = timing::min_eigenvalue_magnitude(&g_hat).unwrap();
        let settle =
            timing::inv_settle_time(&g_hat, &OpAmpSpec::default_45nm(), DEFAULT_SETTLE_EPSILON)
                .unwrap();
        let got = [lambda.to_bits(), settle.to_bits()];
        if got != want {
            drifted.push(format!("{label}: got {got:x?}, pinned {want:x?}"));
        }
    }
    assert!(
        drifted.is_empty(),
        "settle-time model drifted:\n{}",
        drifted.join("\n")
    );
}
