//! The in-repo campaign definitions.
//!
//! Four studies expressed as data against the campaign engine; the
//! first two and the fourth are also committed as `campaigns/*.json`
//! files that `repro run` executes:
//!
//! 1. [`depth_sweep`] — how deep can the cascade go, and how many
//!    ADC/DAC bus hops does it tolerate? (the ROADMAP's "bus/converter
//!    studies at depth > 2")
//! 2. [`split_rule_study`] — does conditioning-driven split search beat
//!    midpoint splits on ill-conditioned workloads? (the ROADMAP's
//!    "adaptive splits in production paths")
//! 3. [`worker_scaling`] — the trial-sharding campaign used with
//!    [`run_worker_sweep`](crate::campaign::run_worker_sweep) to check
//!    bit-identical output at every worker count.
//! 4. [`engine_ladder`] — the backend axis: the same workloads and
//!    architecture solved by every shipped engine backend, selected
//!    purely as [`EngineSpec`] data (the ROADMAP's "multi-backend
//!    engines").

use blockamc::converter::IoConfig;
use blockamc::engine::{CircuitEngineConfig, EngineSpec};
use blockamc::solver::{SignalPlan, SolverConfig, SplitRule, SplitSearchOptions, Stages};

use crate::campaign::{Campaign, Nonideality};
use crate::workload::{WorkloadFamily, WorkloadSpec};
use crate::Result;

/// Campaign 1: depth `d = 1..4` with the paper's per-level signal plan
/// (bus hops above one macro level) against an all-bus plan, on a
/// well-conditioned (Wishart) and a structured (2-D Poisson) workload,
/// under an ideal-mapping and a 5 %-variation analog stack.
///
/// # Errors
///
/// Propagates configuration-building failures (none for the shipped
/// parameters).
pub fn depth_sweep(quick: bool) -> Result<Campaign> {
    let n = if quick { 32 } else { 64 };
    let trials = if quick { 3 } else { 10 };
    let io = IoConfig::default_8bit();
    let mut builder = Campaign::builder("depth-sweep")
        .workload(WorkloadSpec::new(
            "wishart",
            WorkloadFamily::Wishart,
            n,
            0xD1,
        ))
        .workload(WorkloadSpec::new(
            "poisson2d",
            WorkloadFamily::Poisson2d,
            n,
            0xD2,
        ))
        .trials(trials)
        .seed(0xDE_E9);
    for depth in 1..=4usize {
        builder = builder
            .solver(
                format!("d{depth}-paper-io"),
                SolverConfig::builder()
                    .stages(Stages::Multi(depth))
                    .signal_plan(SignalPlan::paper(depth, io))
                    .capture_trace(false)
                    .finish()?,
            )
            .solver(
                format!("d{depth}-all-bus"),
                SolverConfig::builder()
                    .stages(Stages::Multi(depth))
                    .signal_plan(SignalPlan::uniform_bus(depth, io))
                    .capture_trace(false)
                    .finish()?,
            );
    }
    builder
        .nonideality(Nonideality::circuit(
            "ideal-mapping",
            CircuitEngineConfig::ideal_mapping(),
        ))
        .nonideality(Nonideality::circuit(
            "variation",
            CircuitEngineConfig::paper_variation(),
        ))
        .finish()
}

/// Campaign 2: `SplitRule::Searched` vs `SplitRule::Halves` at depths 1
/// and 2 on the ill-conditioned families (guarded raw Toeplitz,
/// condition-targeted SPD, weakly grounded path Laplacian) under 5 %
/// variation — where split placement actually moves the error floor.
///
/// # Errors
///
/// Propagates configuration-building failures (none for the shipped
/// parameters).
pub fn split_rule_study(quick: bool) -> Result<Campaign> {
    let n = if quick { 16 } else { 48 };
    let trials = if quick { 3 } else { 10 };
    let mut builder = Campaign::builder("split-rule")
        .workload(WorkloadSpec::new(
            "toeplitz-raw",
            WorkloadFamily::ToeplitzRaw {
                max_cond: amc_linalg::generate::DEFAULT_TOEPLITZ_MAX_COND,
            },
            n,
            0x51,
        ))
        .workload(WorkloadSpec::new(
            "spd-cond-1e6",
            WorkloadFamily::SpdWithCondition { cond: 1e6 },
            n,
            0x52,
        ))
        .workload(WorkloadSpec::new(
            "path-weak-ground",
            WorkloadFamily::PathLaplacian { ground: 0.002 },
            n,
            0x53,
        ))
        .trials(trials)
        .seed(0x5917);
    for (stages, tag) in [(Stages::One, "one"), (Stages::Two, "two")] {
        builder = builder
            .solver(
                format!("{tag}-halves"),
                SolverConfig::builder()
                    .stages(stages)
                    .split_rule(SplitRule::Halves)
                    .capture_trace(false)
                    .finish()?,
            )
            .solver(
                format!("{tag}-searched"),
                SolverConfig::builder()
                    .stages(stages)
                    .split_rule(SplitRule::Searched(SplitSearchOptions::default()))
                    .capture_trace(false)
                    .finish()?,
            );
    }
    builder
        .nonideality(Nonideality::circuit(
            "variation",
            CircuitEngineConfig::paper_variation(),
        ))
        .finish()
}

/// Campaign 3: the sharding workload for the worker sweep — many trials
/// and multiple right-hand sides per part across a well-conditioned and
/// a circuit-shaped (PDN) workload on both paper architectures. Run it
/// through [`run_worker_sweep`](crate::campaign::run_worker_sweep) to
/// verify bit-identity across worker counts.
///
/// # Errors
///
/// Propagates configuration-building failures (none for the shipped
/// parameters).
pub fn worker_scaling(quick: bool) -> Result<Campaign> {
    let n = if quick { 24 } else { 48 };
    let trials = if quick { 6 } else { 16 };
    Campaign::builder("worker-scaling")
        .workload(WorkloadSpec::new(
            "wishart",
            WorkloadFamily::Wishart,
            n,
            0xA1,
        ))
        .workload(WorkloadSpec::new("pdn", WorkloadFamily::Pdn, n, 0xA2))
        .solver(
            "one",
            SolverConfig::builder()
                .stages(Stages::One)
                .capture_trace(false)
                .finish()?,
        )
        .solver(
            "two",
            SolverConfig::builder()
                .stages(Stages::Two)
                .capture_trace(false)
                .finish()?,
        )
        .nonideality(Nonideality::circuit(
            "variation",
            CircuitEngineConfig::paper_variation(),
        ))
        .trials(trials)
        .rhs_per_trial(4)
        .seed(0xAC_11)
        .finish()
}

/// Campaign 4: the engine ladder — every shipped backend (exact
/// numeric, 6- and 10-bit fixed point, full analog with 5 % variation)
/// on a well-conditioned, a structured, and an ill-conditioned
/// registry family, one- and two-stage. The rungs are pure data —
/// [`EngineSpec`]s or registry names: adding a backend to the
/// comparison is one more ladder entry, never a code path.
///
/// # Errors
///
/// Propagates configuration-building failures (none for the shipped
/// parameters).
pub fn engine_ladder(quick: bool) -> Result<Campaign> {
    let n = if quick { 24 } else { 48 };
    let trials = if quick { 3 } else { 8 };
    let mut builder = Campaign::builder("engine-ladder")
        .workload(WorkloadSpec::new(
            "wishart",
            WorkloadFamily::Wishart,
            n,
            0xE1,
        ))
        .workload(WorkloadSpec::new(
            "poisson2d",
            WorkloadFamily::Poisson2d,
            n,
            0xE2,
        ))
        .workload(WorkloadSpec::new(
            "spd-cond-1e4",
            WorkloadFamily::SpdWithCondition { cond: 1e4 },
            n,
            0xE3,
        ))
        .trials(trials)
        .rhs_per_trial(2)
        .seed(0xE9_61);
    for (stages, tag) in [(Stages::One, "one"), (Stages::Two, "two")] {
        builder = builder.solver(
            tag,
            SolverConfig::builder()
                .stages(stages)
                .capture_trace(false)
                .finish()?,
        );
    }
    builder
        .nonideality(Nonideality::spec("numeric", EngineSpec::Numeric))
        .nonideality(Nonideality::spec(
            "fixed-point-6b",
            EngineSpec::FixedPoint { bits: 6 },
        ))
        .nonideality(Nonideality::spec(
            "fixed-point-10b",
            EngineSpec::FixedPoint { bits: 10 },
        ))
        .nonideality(Nonideality::circuit(
            "circuit-variation",
            CircuitEngineConfig::paper_variation(),
        ))
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shipped_campaigns_build_in_both_modes() {
        for quick in [true, false] {
            let d = depth_sweep(quick).unwrap();
            assert_eq!(d.solvers().len(), 8, "4 depths x 2 io placements");
            assert_eq!(d.cell_count(), 2 * 8 * 2);
            let s = split_rule_study(quick).unwrap();
            assert_eq!(s.solvers().len(), 4);
            assert_eq!(s.cell_count(), 3 * 4);
            let w = worker_scaling(quick).unwrap();
            assert_eq!(w.cell_count(), 4);
            let e = engine_ladder(quick).unwrap();
            assert_eq!(e.ladder().len(), 4, "three backends + 2nd fp depth");
            assert_eq!(e.cell_count(), 3 * 2 * 4);
        }
    }

    #[test]
    fn quick_engine_ladder_orders_backends() {
        let report = engine_ladder(true).unwrap().run().unwrap();
        let cell = |engine: &str, nonideality: &str| {
            report
                .cells
                .iter()
                .find(|c| {
                    c.workload == "wishart" && c.solver == "one" && c.nonideality == nonideality
                })
                .filter(|c| c.engine == engine)
                .unwrap_or_else(|| panic!("missing cell {engine}/{nonideality}"))
        };
        let numeric = cell("numeric", "numeric");
        let fp6 = cell("fixed-point", "fixed-point-6b");
        let fp10 = cell("fixed-point", "fixed-point-10b");
        let circuit = cell("circuit", "circuit-variation");
        assert!(numeric.errors.max < 1e-9);
        // Quantization coarsens monotonically between the digital rungs.
        assert!(fp10.errors.mean < fp6.errors.mean);
        assert!(fp6.errors.mean > numeric.errors.max);
        // Only the analog rung accrues analog cost and a settle-model
        // latency.
        assert!(circuit.analog_time_per_solve_s > 0.0);
        assert!(circuit.model_latency_s.is_some());
        for digital in [numeric, fp6, fp10] {
            assert_eq!(digital.analog_time_per_solve_s, 0.0);
            assert!(digital.model_latency_s.is_none());
        }
    }

    #[test]
    fn quick_depth_sweep_runs_and_orders_costs() {
        let report = depth_sweep(true).unwrap().run().unwrap();
        assert_eq!(report.cells.len(), 32);
        // Hardware cost (arrays programmed) grows with depth for the
        // same workload and rung.
        let programs = |solver: &str| {
            report
                .cells
                .iter()
                .find(|c| {
                    c.workload == "wishart" && c.solver == solver && c.nonideality == "variation"
                })
                .map(|c| c.program_ops)
                .unwrap()
        };
        assert!(programs("d1-paper-io") < programs("d2-paper-io"));
        assert!(programs("d2-paper-io") < programs("d3-paper-io"));
    }
}
