//! Golden pins of the INV settle-time model.
//!
//! `timing::min_eigenvalue_magnitude` runs Lanczos on the inverse of the
//! symmetric part, through one `LuFactor` and `LuFactor::solve_into`
//! per step, with full reorthogonalisation through `vector::dot` and
//! `vector::axpy`. Its result depends on every bit those kernels return,
//! and on the estimator's stopping rule. The values here record that
//! estimator, which agrees with the Jacobi eigensolver to `1e-11`
//! relative on each case (`tests/spectral_oracle.rs` checks it to
//! `1e-9`); the kernels promise an unchanged summation order, and these
//! pins hold them to it end to end.
//!
//! The matrices are normalised to a largest entry of 1, as the campaign
//! latency model does before asking for a settle time:
//!
//! - a seeded 128×128 Wishart, whose estimate stops after 27 Lanczos
//!   steps, and its 32×32 leading block (the leaf of a depth-2 cascade),
//!   after 19;
//! - `poisson_2d(8, 16)`, after 8 steps, and its 32×32 leading block,
//!   after 12.

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
    [0x3fcddc59f5659404, 0x3e9fa04b05ed328a],
    [0x3fe1415440106750, 0x3e8b5d77a128c311],
    [0x3fa3cc2de971214f, 0x3ec7d9d52474f42b],
    [0x3fd08b7bff805392, 0x3e9c8a3ccae9c8e0],
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
