//! Oracle for the Lanczos spectral estimator.
//!
//! `eigen::min_abs_eigenvalue` (behind the INV settle time,
//! `timing::min_eigenvalue_magnitude`) and `eigen::symmetric_part_condition`
//! (behind the `Searched` split score) stop on an a-posteriori bound.
//! Here both are checked against the full cyclic-Jacobi eigensolver,
//! `eigen::symmetric_eigen`, which shares none of their arithmetic, to `1e-9`
//! relative, on:
//!
//! - the four matrices `crates/circuit/tests/settle_golden.rs` pins;
//! - the leaves of perfbench's `analog_mc` study (Wishart and Poisson2d
//!   at n = 128: the whole matrix, and the four 32×32 leaves of the
//!   two-stage tree), as `AnalogSimulator::prepare_inv` sees them: the
//!   non-symmetric `Ĝ` of an array programmed with 5 % proportional
//!   variation;
//! - an indefinite diagonal, and `diag(1, 0.5, 0.2525, 0.25)`, whose two
//!   smallest eigenvalues lie 1 % apart;
//! - every candidate block (`A1` and `A4s` of every candidate split, one
//!   and two levels deep) of the `Searched` cells of
//!   `campaigns/split_rule.json`, whose winners must also be the ones the
//!   Jacobi spectrum picks.

use amc_circuit::timing;
use amc_circuit::CircuitError;
use amc_device::array::ProgrammedMatrix;
use amc_device::mapping::MappingConfig;
use amc_device::variation::VariationModel;
use amc_linalg::{eigen, generate, Matrix};
use amc_scenario::{CampaignFile, WorkloadFamily, WorkloadSpec};
use blockamc::partition::BlockPartition;
use blockamc::solver::SplitRule;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const RTOL: f64 = 1e-9;

/// `(|λ|_min, |λ|_max)` of the symmetric part of `a`, from Jacobi.
fn jacobi_extremes(a: &Matrix) -> (f64, f64) {
    let sym = a.add_matrix(&a.transpose()).unwrap().scaled(0.5);
    let values = eigen::symmetric_eigen(&sym).unwrap().values;
    let abs = values.iter().map(|v| v.abs());
    (
        abs.clone().fold(f64::INFINITY, f64::min),
        abs.fold(0.0, f64::max),
    )
}

fn assert_close(label: &str, what: &str, got: f64, want: f64) {
    let rel = (got - want).abs() / want.abs();
    assert!(
        rel <= RTOL,
        "{label}: {what} {got:e} vs Jacobi {want:e} (relative error {rel:e})"
    );
}

/// Checks the settle path's `|λ|_min` of `a`.
fn check_min(label: &str, a: &Matrix) {
    let (lo, _) = jacobi_extremes(a);
    let got = timing::min_eigenvalue_magnitude(a).unwrap();
    assert_close(label, "|λ|min", got, lo);
}

/// Checks the split score's condition of `a`.
fn check_condition(label: &str, a: &Matrix) -> f64 {
    let (lo, hi) = jacobi_extremes(a);
    let got = eigen::symmetric_part_condition(a).unwrap();
    assert_close(label, "condition", got, hi / lo);
    got
}

fn normalised(m: &Matrix) -> Matrix {
    m.scaled(1.0 / m.max_abs())
}

#[test]
fn settle_golden_cases_match_jacobi() {
    let mut rng = ChaCha8Rng::seed_from_u64(2024);
    let wishart = generate::wishart_default(128, &mut rng).unwrap();
    let poisson = generate::poisson_2d(8, 16).unwrap();
    for (label, m) in [("wishart128", &wishart), ("poisson2d(8,16)", &poisson)] {
        let whole = normalised(m);
        let leaf = normalised(&m.block(0, 0, 32, 32).unwrap());
        check_min(label, &whole);
        check_condition(label, &whole);
        check_min(&format!("{label}[..32]"), &leaf);
        check_condition(&format!("{label}[..32]"), &leaf);
    }
}

/// The four leaves of a depth-2 halves tree over `a`.
fn two_stage_leaves(a: &Matrix) -> Vec<Matrix> {
    let top = BlockPartition::halves(a).unwrap();
    let a4s = top.schur_complement().unwrap();
    [top.a1, a4s]
        .iter()
        .flat_map(|half| {
            let p = BlockPartition::halves(half).unwrap();
            let s = p.schur_complement().unwrap();
            [p.a1, s]
        })
        .collect()
}

#[test]
fn analog_mc_leaves_match_jacobi() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    for family in [WorkloadFamily::Wishart, WorkloadFamily::Poisson2d] {
        let a = WorkloadSpec::new("leaf", family, 128, 1)
            .instantiate(1)
            .unwrap()
            .matrix;
        let mut leaves = vec![a.clone()];
        leaves.extend(two_stage_leaves(&a));
        for (i, leaf) in leaves.iter().enumerate() {
            let label = format!("{family:?} leaf {i} (n = {})", leaf.rows());
            let ideal = normalised(leaf);
            check_min(&format!("{label}, ideal"), &ideal);
            check_condition(&format!("{label}, ideal"), &ideal);
            let g_hat = ProgrammedMatrix::program(
                leaf,
                &MappingConfig::paper_default(),
                &VariationModel::Proportional { sigma_rel: 0.05 },
                &mut rng,
            )
            .unwrap()
            .normalized_matrix();
            check_min(&format!("{label}, 5 % variation"), &g_hat);
            check_condition(&format!("{label}, 5 % variation"), &g_hat);
        }
    }
}

#[test]
fn indefinite_and_clustered_spectra_match_jacobi() {
    let indefinite = Matrix::from_diag(&[3.0, -5.0, 0.5, 2.0, -0.1, 4.0]);
    check_min("indefinite", &indefinite);
    assert_close(
        "indefinite",
        "condition",
        check_condition("indefinite", &indefinite),
        50.0,
    );
    // The two smallest eigenvalues 1 % apart: inverse iteration
    // converges at the rate 0.25/0.2525 per step.
    let clustered = Matrix::from_diag(&[1.0, 0.5, 0.2525, 0.25]);
    check_min("clustered", &clustered);
    assert_close(
        "clustered",
        "|λ|min",
        timing::min_eigenvalue_magnitude(&clustered).unwrap(),
        0.25,
    );
    check_condition("clustered", &clustered);
}

#[test]
fn singular_symmetric_parts_are_rejected() {
    let singular = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]).unwrap();
    // Non-symmetric, with the singular symmetric part above.
    let skewed = Matrix::from_rows(&[&[1.0, 2.0], &[0.0, 1.0]]).unwrap();
    for a in [&singular, &skewed] {
        assert!(matches!(
            timing::min_eigenvalue_magnitude(a),
            Err(CircuitError::NoOperatingPoint { .. })
        ));
        assert_eq!(eigen::symmetric_part_condition(a).unwrap(), f64::INFINITY);
    }
}

/// The split search's score of one candidate, from either spectrum.
fn score(n: usize, split: usize, weight: f64, cond_a1: f64, cond_a4s: f64) -> f64 {
    let imbalance = ((2 * split) as f64 - n as f64).abs() / n as f64;
    cond_a1.max(cond_a4s) * (1.0 + weight * imbalance)
}

/// Checks every candidate block of `a` and that the Lanczos and Jacobi
/// scores pick the same split; returns the candidate blocks.
fn check_candidates(label: &str, a: &Matrix, weight: f64) -> Vec<Matrix> {
    let n = a.rows();
    let mut candidates = vec![n / 4, n / 2, (3 * n) / 4];
    candidates.retain(|&s| s > 0 && s < n);
    candidates.dedup();
    let mut blocks = Vec::new();
    let (mut best_lanczos, mut best_jacobi) = ((f64::INFINITY, 0), (f64::INFINITY, 0));
    for split in candidates {
        let a1 = a.block(0, 0, split, split).unwrap();
        let a4s = {
            let lu = amc_linalg::lu::LuFactor::new(&a1).unwrap();
            let a2 = a.block(0, split, split, n - split).unwrap();
            let a3 = a.block(split, 0, n - split, split).unwrap();
            let mut a4s = a.block(split, split, n - split, n - split).unwrap();
            lu.schur_update_into(&a2, &a3, &mut a4s).unwrap();
            a4s
        };
        let here = format!("{label} split {split}");
        let c1 = check_condition(&format!("{here} A1"), &a1);
        let c4 = check_condition(&format!("{here} A4s"), &a4s);
        let (j1, j4) = (jacobi_extremes(&a1), jacobi_extremes(&a4s));
        let lanczos = score(n, split, weight, c1, c4);
        let jacobi = score(n, split, weight, j1.1 / j1.0, j4.1 / j4.0);
        // Strict `<`: ties keep the earlier candidate, as the stable
        // sort of the split search does.
        if lanczos < best_lanczos.0 {
            best_lanczos = (lanczos, split);
        }
        if jacobi < best_jacobi.0 {
            best_jacobi = (jacobi, split);
        }
        blocks.push(a1);
        blocks.push(a4s);
    }
    assert_eq!(
        best_lanczos.1, best_jacobi.1,
        "{label}: the Lanczos and Jacobi scores pick different splits"
    );
    blocks
}

#[test]
fn split_rule_candidate_blocks_match_jacobi() {
    let file = CampaignFile::load(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/campaigns/split_rule.json"
    ))
    .unwrap();
    let mut searched_cells = 0;
    for quick in [true, false] {
        let spec = file.select(quick);
        for solver in &spec.solvers {
            let SplitRule::Searched(opts) = solver.config.split_rule() else {
                continue;
            };
            searched_cells += 1;
            let depth = solver.config.stages().depth();
            for workload in &spec.workloads {
                let a = workload.instantiate(1).unwrap().matrix;
                let label = format!("{} n={} ({})", workload.name, a.rows(), solver.label);
                let blocks = check_candidates(&label, &a, opts.imbalance_weight);
                if depth >= 2 {
                    for (i, block) in blocks.iter().enumerate() {
                        if block.rows() >= 4 {
                            check_candidates(
                                &format!("{label} block {i}"),
                                block,
                                opts.imbalance_weight,
                            );
                        }
                    }
                }
            }
        }
    }
    assert_eq!(
        searched_cells, 4,
        "one- and two-stage Searched, quick and full"
    );
}
