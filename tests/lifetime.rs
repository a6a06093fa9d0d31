//! Lifetime-reliability integration tests.
//!
//! Two acceptance criteria from the reliability work ride here: digital
//! CG refinement started from a *drifted* analog answer must still beat
//! a cold start (the degraded solver remains a useful preconditioner),
//! and a streaming [`LifetimeCampaign`] must replay bit-identically at
//! any worker count (proptest-pinned over seeds).

use amc_device::drift::DriftModel;
use amc_device::faults::FaultModel;
use amc_linalg::generate;
use amc_scenario::lifetime::{LifetimeCampaign, RepairPolicy};
use amc_scenario::workload::{WorkloadFamily, WorkloadSpec};
use blockamc::aging::{AgedSolver, AgingModel};
use blockamc::engine::NumericEngine;
use blockamc::refine;
use blockamc::solver::{BlockAmcSolver, SolverConfig};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Aggressive power-law drift so a handful of ticks produces visible
/// degradation (same shape as the unit suites' accelerated model).
fn accelerated_model() -> AgingModel {
    AgingModel {
        drift: DriftModel {
            nu: 0.05,
            nu_sigma: 0.01,
            t0_s: 1.0,
        },
        tick_s: 100.0,
        ..AgingModel::typical_rram()
    }
}

#[test]
fn refining_a_drifted_solve_beats_a_cold_start() {
    // Large enough that CG's iteration count is governed by the
    // spectrum, not by dimension-n exact termination — otherwise warm
    // and cold both finish in exactly n steps and nothing is saved.
    let n = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(41);
    let a = generate::wishart_default(n, &mut rng).unwrap();
    let b = generate::random_vector(n, &mut rng);

    let model = AgingModel {
        drift: DriftModel {
            nu: 0.01,
            nu_sigma: 0.002,
            t0_s: 1.0,
        },
        tick_s: 100.0,
        ..AgingModel::typical_rram()
    };
    let config = SolverConfig::builder().finish().unwrap();
    let mut solver = BlockAmcSolver::from_config(NumericEngine::new(), config);
    let replica = solver.prepare(&a).unwrap().replicate(1).remove(0);
    let mut aged = AgedSolver::new(replica, a.clone(), model, 13).unwrap();

    // Age the arrays until the analog answer is visibly degraded…
    aged.advance(2).unwrap();
    let degraded = aged.solve(&b).unwrap().x;
    let degraded_residual = refine::seed_quality(&a, &b, &degraded).unwrap();
    assert!(
        degraded_residual > 1e-3,
        "drift should visibly degrade the analog answer, residual {degraded_residual}"
    );

    // …then hand it to digital CG as a warm start. The drifted answer
    // must still carry enough signal to save iterations over a cold
    // (zero-guess) start, and refinement must restore accuracy.
    let outcome = refine::refine_with_cg(&a, &b, &degraded, 1e-8, 20 * n + 100).unwrap();
    assert!(
        outcome.iterations_saved() > 0,
        "warm start saved no iterations: warm {} vs cold {}",
        outcome.iterations_with_seed,
        outcome.iterations_cold
    );
    assert!(
        outcome.residual <= 1e-8,
        "refinement left residual {}",
        outcome.residual
    );
}

/// A small two-workload, three-policy campaign with drift *and*
/// stuck-at faults, seeded from the proptest input.
fn campaign(seed: u64) -> LifetimeCampaign {
    let model = AgingModel {
        faults: FaultModel {
            p_stuck_on: 5e-4,
            p_stuck_off: 5e-4,
            g_on: 1.0,
            g_off: 0.0,
        },
        ..accelerated_model()
    };
    LifetimeCampaign::builder("replay")
        .workload(WorkloadSpec::new("wishart", WorkloadFamily::Wishart, 10, 1))
        .workload(WorkloadSpec::new(
            "poisson2d",
            WorkloadFamily::Poisson2d,
            12,
            2,
        ))
        .policy("never", RepairPolicy::Never)
        .policy(
            "threshold",
            RepairPolicy::ResidualThreshold {
                refine_above: 1e-6,
                reprogram_above: 0.4,
            },
        )
        .policy(
            "budgeted",
            RepairPolicy::Budgeted {
                energy_budget_j: 1e-9,
                reprogram_above: 1e-2,
                arrays_per_repair: 1,
            },
        )
        .model(model)
        .ticks(4)
        .rhs_per_tick(2)
        .seed(seed)
        .finish()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The replay determinism contract: the same seed must
    /// produce a bit-identical lifetime report at 1, 2, and 4 workers.
    /// `LifetimeReport` derives `PartialEq` over raw `f64`s, so `==`
    /// here is bitwise on every health probe, residual, and energy sum.
    #[test]
    fn lifetime_replay_is_bit_identical_at_any_worker_count(seed in any::<u64>()) {
        let campaign = campaign(seed);
        let serial = campaign.run_with_workers(1).unwrap();
        for workers in [2, 4] {
            let sharded = campaign.run_with_workers(workers).unwrap();
            prop_assert_eq!(
                &serial, &sharded,
                "report diverged at {} workers (seed {})", workers, seed
            );
        }
    }
}
