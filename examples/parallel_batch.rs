//! Sharded batch solving: one Poisson system, 64 right-hand sides,
//! four macro replicas.
//!
//! ```text
//! cargo run --release --example parallel_batch
//! ```
//!
//! A discretized 1-D Poisson operator is prepared (programmed) once;
//! the batch API then solves 64 load vectors against it. The parallel
//! path prepares the same solver, replicates it, and shards the batch
//! over 4 workers on the `amc-par` work-stealing pool — output is
//! bit-identical to the serial path by construction. The macro-model timing shows the
//! architectural speedup of four independently-programmed macro
//! instances regardless of host; host wall-clock speed is measured by
//! perfbench's `rhs_stream` workload, not here.

use amc_circuit::opamp::OpAmpSpec;
use amc_linalg::generate;
use blockamc::batch::solve_batch;
use blockamc::engine::{CircuitEngine, CircuitEngineConfig};
use blockamc::solver::{SolverConfig, Stages};

const WORKERS: usize = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 64;
    let k = 64;
    let a = generate::poisson_1d(n)?;
    let h = 1.0 / (n as f64 + 1.0);
    // 64 load cases: point loads sweeping across the domain.
    let batch: Vec<Vec<f64>> = (0..k)
        .map(|load| {
            let mut b = vec![0.0; n];
            b[load % n] = h * h;
            b
        })
        .collect();

    println!("1-D Poisson, {n} interior points, {k} load cases, {WORKERS} workers\n");

    let config = CircuitEngineConfig::paper_variation();
    let build = || {
        SolverConfig::builder()
            .stages(Stages::One)
            .capture_trace(false)
            .build(CircuitEngine::new(config, 11))
    };

    let mut serial_solver = build()?;
    let serial = solve_batch(&mut serial_solver, &a, &batch, &OpAmpSpec::ideal(), 0.0)?;

    let mut parallel_solver = build()?;
    let parallel = parallel_solver
        .prepare(&a)?
        .replicate(1)
        .remove(0)
        .solve_batch_parallel(&batch, WORKERS)?;

    assert_eq!(
        serial.solutions, parallel,
        "sharding must be invisible in the output"
    );
    println!("outputs : bit-identical across {k} solutions\n");

    println!("macro-model analog time for this batch:");
    println!(
        "  1 pipelined macro : {:.3e} s",
        serial.batch_time_pipelined_s
    );
    println!(
        "  {WORKERS} sharded macros  : {:.3e} s ({:.2}x architectural speedup)",
        serial.batch_time_parallel_s(WORKERS),
        serial.batch_time_pipelined_s / serial.batch_time_parallel_s(WORKERS)
    );
    Ok(())
}
