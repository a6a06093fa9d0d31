//! `analog_mc`: the paper's Monte-Carlo accuracy study as `amc-scenario`
//! campaigns at two workers. Each call crosses Wishart and Poisson2d at
//! n = 128 with the original and two-stage solvers and two circuit rungs
//! (`paper_variation`, `paper_full`), two trials per cell and eight
//! right-hand sides per trial. Circuit simulation does all the work.

use std::time::Instant;

use amc_scenario::{Campaign, CampaignReport, Nonideality, WorkloadFamily, WorkloadSpec};
use blockamc::engine::CircuitEngineConfig;
use blockamc::solver::{SolverConfig, Stages};

use super::{err, mix, repeat_setup, Params, Run};
use crate::measure::{median, ratio, Segments};
use crate::probe;

/// The tail percentile reported (about 300 calls in 20 s: 30 beyond p90).
const TAIL_PERCENTILE: f64 = 90.0;
const N: usize = 128;
const WORKERS: usize = 2;
const TRIALS: usize = 2;
const RHS: usize = 8;
const CELLS: usize = 8;
/// Calls whose two-stage errors make up `rel_error_median`. A fixed
/// count, not "whatever fits the window", so that the timed and traced
/// runs at one seed report the same value.
const ACCURACY_CALLS: u64 = 32;
const TWO_STAGE: &str = "two-stage";

/// Campaign call `call`: fresh matrices from `seed`, fresh trial draws
/// from `seed2`. `probed` runs the rungs through the probed engines.
fn campaign(p: &Params, call: u64, probed: bool) -> Result<Campaign, String> {
    let solver = |stages| {
        SolverConfig::builder()
            .stages(stages)
            .capture_trace(false)
            .finish()
            .map_err(err)
    };
    let rungs = if probed {
        [
            Nonideality::registered("variation", probe::PROBED_VARIATION),
            Nonideality::registered("variation+wire", probe::PROBED_FULL),
        ]
    } else {
        [
            Nonideality::circuit("variation", CircuitEngineConfig::paper_variation()),
            Nonideality::circuit("variation+wire", CircuitEngineConfig::paper_full()),
        ]
    };
    Campaign::builder("analog_mc")
        .workload(WorkloadSpec::new(
            "wishart",
            WorkloadFamily::Wishart,
            N,
            mix(p.seed, call.wrapping_mul(2)),
        ))
        .workload(WorkloadSpec::new(
            "poisson2d",
            WorkloadFamily::Poisson2d,
            N,
            mix(p.seed, call.wrapping_mul(2).wrapping_add(1)),
        ))
        .solver("original", solver(Stages::Original)?)
        .solver(TWO_STAGE, solver(Stages::Two)?)
        .ladder(rungs)
        .trials(TRIALS)
        .rhs_per_trial(RHS)
        .workers(WORKERS)
        .seed(mix(p.seed2, call))
        .registry(probe::registry())
        .finish()
        .map_err(err)
}

pub fn run(p: &Params) -> Result<Run, String> {
    let (_, setup_s) = repeat_setup(|| {
        // Build and run one warm-up call, so allocator and caches are
        // settled before the window opens.
        campaign(p, u64::MAX, false)?
            .run_with_workers(WORKERS)
            .map_err(err)
    })?;

    let mut run = Run {
        setup_s,
        tail_percentile: TAIL_PERCENTILE,
        ..Run::default()
    };
    // Per two-stage cell (workload × rung): the cell median of each
    // accuracy call.
    let mut cell_medians: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<CampaignReport> = None;
    let mut traced_wall_s = 0.0;
    let mut traced_trials = 0usize;
    let mut window = Segments::new(p.seconds, p.trace, ACCURACY_CALLS * (CELLS * TRIALS) as u64);
    let clock = window.clock();
    let mut call = 0u64;
    while window.tick(call * (CELLS * TRIALS) as u64) {
        let traced = probe::tracing();
        let start = Instant::now();
        let report = campaign(p, call, traced)?
            .run_with_workers(WORKERS)
            .map_err(err)?;
        let wall = start.elapsed().as_secs_f64();
        run.latencies.record(clock.slice(start), wall);
        if traced {
            traced_wall_s += wall;
            traced_trials += CELLS * TRIALS;
        }
        run.failed += report
            .cells
            .iter()
            .map(|c| (c.trials - c.completed) as u64)
            .sum::<u64>();
        if call < ACCURACY_CALLS {
            let two_stage = report.cells.iter().filter(|c| c.solver == TWO_STAGE);
            for (i, cell) in two_stage.enumerate() {
                if cell_medians.len() <= i {
                    cell_medians.push(Vec::new());
                }
                cell_medians[i].push(cell.errors.median);
            }
        }
        if call == 0 {
            first = Some(report);
        }
        call += 1;
    }
    probe::set_tracing(false);
    run.window = window.finish();
    run.attempted = call * (CELLS * TRIALS) as u64;

    // The median of the per-cell medians; each cell's own median over
    // calls is stable, whereas pooling cells of different error levels
    // would put the median on a cluster boundary.
    let per_cell: Vec<f64> = cell_medians.iter().map(|m| median(m)).collect();
    run.rel_errors = vec![median(&per_cell)];

    // Oracle: call 0 again through the probed engines (instruments off)
    // must report bit-identical error statistics, so that the timed and
    // traced runs measure the same study.
    let again = campaign(p, 0, true)?
        .run_with_workers(WORKERS)
        .map_err(err)?;
    let identical = first.is_some_and(|first| {
        first.cells.len() == again.cells.len()
            && first.cells.iter().zip(&again.cells).all(|(a, b)| {
                a.completed == b.completed
                    && a.errors.median.to_bits() == b.errors.median.to_bits()
                    && a.errors.mean.to_bits() == b.errors.mean.to_bits()
                    && a.errors.max.to_bits() == b.errors.max.to_bits()
            })
    });
    run.failed += u64::from(!identical);
    run.notes
        .push(("two_stage_cell_medians", crate::json_list(&per_cell)));
    run.notes
        .push(("probed_path_identical", identical.to_string()));

    if p.trace {
        run.layers = vec![(
            "campaign.trial_ms",
            ratio(traced_wall_s * 1e3 * WORKERS as f64, traced_trials as f64),
        )];
    }
    Ok(run)
}
