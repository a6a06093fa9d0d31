//! Non-ideal signal-path regression tests.
//!
//! The solver-equivalence properties (`tests/solver_equivalence.rs`)
//! run with an ideal `IoConfig`, under which the `Macro`, `Bus`, and
//! `Pure` signal-path policies of the unified cascade are
//! indistinguishable (DAC/ADC/S&H are identities). These tests pin the
//! *non-ideal* branches — quantized converters and S&H droop — against
//! exact reference outputs captured from the dedicated one- and
//! two-stage module APIs that `Stages::One` / `Stages::Two` replaced,
//! so a dropped or doubled hop in any policy branch changes a bit here
//! and fails.
//!
//! The workload is built from dyadic rationals (no transcendentals in
//! generation or solving), so the expected values are exact on every
//! IEEE-754 platform.

use amc_linalg::Matrix;
use blockamc::converter::{Converter, IoConfig};
use blockamc::engine::NumericEngine;
use blockamc::solver::{SolveReport, SolverConfig, Stages, StepId};

/// Diagonally dominant matrix and RHS with exactly-representable
/// entries, generated without any RNG or libm call.
fn dyadic_workload(n: usize) -> (Matrix, Vec<f64>) {
    let a = Matrix::from_fn(n, n, |i, j| {
        if i == j {
            4.0
        } else {
            ((i * 3 + j * 5) % 7) as f64 * 0.125 - 0.375
        }
    });
    let b: Vec<f64> = (0..n).map(|i| ((i * 7) % 5) as f64 * 0.25 - 0.5).collect();
    (a, b)
}

/// Asymmetric converters (8-bit DAC, 6-bit ADC) plus S&H droop, so a
/// swapped DAC/ADC or a missing hop is visible in the output grid.
fn nonideal_io() -> IoConfig {
    IoConfig {
        dac: Some(Converter::new(8, 1.0).unwrap()),
        adc: Some(Converter::new(6, 1.0).unwrap()),
        sh_droop: 0.0625,
    }
}

/// Prepared-facade solve of `stages` with `io` in the default plan.
fn solve(stages: Stages, io: IoConfig, a: &Matrix, b: &[f64]) -> SolveReport {
    let mut solver = SolverConfig::builder()
        .stages(stages)
        .io(io)
        .build(NumericEngine::new())
        .unwrap();
    let mut prepared = solver.prepare(a).unwrap();
    prepared.solve(b).unwrap()
}

#[test]
fn one_stage_macro_path_is_pinned() {
    let (a, b) = dyadic_workload(8);
    let sol = solve(Stages::One, nonideal_io(), &a, &b);
    let trace = sol.trace.unwrap();

    // Solution values land on the 6-bit ADC grid (multiples of 2/63).
    let expected = [
        -0.12698412698412698,
        -0.031746031746031744,
        0.12698412698412698,
        -0.06349206349206349,
        0.06349206349206349,
        -0.12698412698412698,
        0.0,
        0.12698412698412698,
    ];
    assert_eq!(sol.x, expected);

    // The recorded step-1 input is the DAC'd external f: on the 8-bit
    // grid (multiples of 2/255), proving the entry DAC ran exactly once.
    assert_eq!(
        trace[0].input,
        [
            -0.5019607843137255,
            0.0,
            0.5019607843137255,
            -0.25098039215686274
        ]
    );
    assert_eq!(
        trace.iter().map(|r| r.step).collect::<Vec<_>>(),
        [
            StepId::Inv1,
            StepId::Mvm2,
            StepId::Inv3,
            StepId::Mvm4,
            StepId::Inv5
        ]
    );
}

#[test]
fn two_stage_bus_path_is_pinned() {
    let (a, b) = dyadic_workload(8);
    let sol = solve(Stages::Two, nonideal_io(), &a, &b);

    // Differs from the one-stage result in exactly the entries where the
    // extra ADC→DAC bus hops re-quantize intermediates.
    let expected = [
        -0.12698412698412698,
        0.0,
        0.12698412698412698,
        -0.06349206349206349,
        0.06349206349206349,
        -0.12698412698412698,
        0.0,
        0.09523809523809523,
    ];
    assert_eq!(sol.x, expected);
    assert_eq!(
        sol.inner_traces
            .iter()
            .map(|t| t.0.as_str())
            .collect::<Vec<_>>(),
        ["A4s", "A1"]
    );
}

#[test]
fn droop_alone_attenuates_cascaded_steps_only() {
    // With droop but no converters, the entry/exit are transparent and
    // only the S&H hops between steps attenuate: the solve is close to,
    // but measurably off, the ideal solution.
    let (a, b) = dyadic_workload(8);
    let io = IoConfig {
        dac: None,
        adc: None,
        sh_droop: 0.0625,
    };
    let drooped = solve(Stages::One, io, &a, &b);
    let ideal = solve(Stages::One, IoConfig::ideal(), &a, &b);
    let err = amc_linalg::metrics::relative_error(&ideal.x, &drooped.x);
    assert!(err > 1e-3, "droop must perturb (err={err})");
    assert!(err < 0.5, "droop stays bounded (err={err})");
    // Step 1 sees no droop (first hop is after it): its input is raw f.
    assert_eq!(drooped.trace.unwrap()[0].input, b[..4].to_vec());
}
