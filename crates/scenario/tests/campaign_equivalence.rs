//! The campaign determinism contract: sharding trials across workers
//! must be invisible in the report — bit-identical output at 1, 2, and
//! 4 workers, for the hand-built campaigns and the shipped ones alike.

use amc_scenario::campaign::{run_worker_sweep, Campaign, Nonideality};
use amc_scenario::workload::{WorkloadFamily, WorkloadSpec};
use blockamc::engine::CircuitEngineConfig;
use blockamc::solver::{SolverConfig, Stages};

fn small_campaign() -> Campaign {
    Campaign::builder("equivalence")
        .workload(WorkloadSpec::new("wishart", WorkloadFamily::Wishart, 12, 3))
        .workload(WorkloadSpec::new("pdn", WorkloadFamily::Pdn, 12, 4))
        .solver(
            "one",
            SolverConfig::builder()
                .stages(Stages::One)
                .capture_trace(false)
                .finish()
                .unwrap(),
        )
        .solver(
            "two",
            SolverConfig::builder()
                .stages(Stages::Two)
                .capture_trace(false)
                .finish()
                .unwrap(),
        )
        .nonideality(Nonideality::circuit(
            "variation",
            CircuitEngineConfig::paper_variation(),
        ))
        .trials(5)
        .rhs_per_trial(2)
        .seed(0xE9)
        .finish()
        .unwrap()
}

#[test]
fn campaign_reports_are_bit_identical_at_1_2_4_workers() {
    let campaign = small_campaign();
    let serial = campaign.run_with_workers(1).unwrap();
    assert_eq!(serial.cells.len(), 4);
    for cell in &serial.cells {
        assert_eq!(cell.completed, 5, "{}-{}", cell.workload, cell.solver);
        assert_eq!(cell.errors.count, 10, "5 trials x 2 RHS");
    }
    for workers in [2usize, 4] {
        let sharded = campaign.run_with_workers(workers).unwrap();
        assert_eq!(sharded, serial, "workers={workers}");
    }
}

#[test]
fn worker_sweep_confirms_identity_at_every_count() {
    let sweep = run_worker_sweep(&small_campaign(), &[1, 2, 4]).unwrap();
    assert!(sweep.bit_identical);
}

#[test]
fn shipped_campaigns_are_worker_invariant_in_quick_mode() {
    // The four in-repo campaigns uphold the same contract end to end —
    // including the engine ladder, whose cells mix digital and analog
    // backends built from EngineSpec data per trial.
    for campaign in [
        amc_scenario::campaigns::depth_sweep(true).unwrap(),
        amc_scenario::campaigns::split_rule_study(true).unwrap(),
        amc_scenario::campaigns::worker_scaling(true).unwrap(),
        amc_scenario::campaigns::engine_ladder(true).unwrap(),
    ] {
        let serial = campaign.run_with_workers(1).unwrap();
        let sharded = campaign.run_with_workers(3).unwrap();
        assert_eq!(serial, sharded, "{}", campaign.name());
    }
}
