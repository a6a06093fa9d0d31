//! `repro` — regenerates every table and figure of the BlockAMC paper.
//!
//! ```text
//! repro [--quick] [--trials N] [--seed N] [--addr HOST:PORT] <command>
//! ```
//!
//! Absolute numbers depend on the substituted simulation stack (see
//! DESIGN.md); the *shapes* — who wins, by how much, and how errors grow
//! with size — are the reproduction targets recorded in EXPERIMENTS.md.

use amc_bench::report::{Json, TextTable};
use amc_bench::{
    accuracy_sweep, make_workload, presets, render_sweep, report, step_trace_comparison,
    MatrixFamily, PAPER_SIZES, PAPER_TRIALS, QUICK_SIZES, RAW_TOEPLITZ_MAX_COND,
};
use amc_linalg::{lu, metrics};
use blockamc::engine::{CircuitEngine, CircuitEngineConfig, EngineRegistry};
use blockamc::solver::{BlockAmcSolver, Stages};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The one parse of the shared command-line flags. Every subcommand
/// reads scale decisions from here instead of re-deriving them from a
/// threaded-through `quick` bool (which each command used to duplicate).
struct RunOpts {
    quick: bool,
    sizes: Vec<usize>,
    trials: usize,
    /// The "showcase" size for Figs. 6 and 8 (256 in the paper).
    showcase_n: usize,
    /// Base seed of seed-taking commands (`lifetime`, `trace`).
    seed: u64,
    /// Listen address of `repro serve`.
    addr: String,
    /// `repro serve --metrics`: dump the full metrics registry on exit.
    metrics: bool,
    /// `repro run --workers N`: override the campaign file's worker
    /// count (reports are bit-identical at any value).
    workers: Option<usize>,
}

impl RunOpts {
    fn parse(args: &[String]) -> RunOpts {
        let quick = args.iter().any(|a| a == "--quick");
        let flag = |name: &str| {
            args.iter()
                .position(|a| a == name)
                .and_then(|i| args.get(i + 1))
        };
        RunOpts {
            quick,
            sizes: if quick {
                QUICK_SIZES.to_vec()
            } else {
                PAPER_SIZES.to_vec()
            },
            trials: flag("--trials")
                .and_then(|v| v.parse().ok())
                .unwrap_or(if quick { 10 } else { PAPER_TRIALS }),
            showcase_n: if quick { 64 } else { 256 },
            seed: flag("--seed").and_then(|v| v.parse().ok()).unwrap_or(7),
            addr: flag("--addr")
                .cloned()
                .unwrap_or_else(|| "127.0.0.1:7171".to_string()),
            metrics: args.iter().any(|a| a == "--metrics"),
            workers: flag("--workers").and_then(|v| v.parse().ok()),
        }
    }

    /// Quick-mode/full-mode scale selection, in one place.
    fn pick<T>(&self, quick: T, full: T) -> T {
        if self.quick {
            quick
        } else {
            full
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = RunOpts::parse(&args);
    // Flag values (e.g. the N of `--trials N`) are not commands.
    let flag_values: Vec<usize> = ["--trials", "--seed", "--addr", "--workers"]
        .iter()
        .filter_map(|f| args.iter().position(|a| a == *f).map(|i| i + 1))
        .collect();
    let cmds: Vec<&str> = args
        .iter()
        .enumerate()
        .filter(|(i, a)| !a.starts_with("--") && !flag_values.contains(i))
        .map(|(_, a)| a.as_str())
        .collect();
    let cmd = cmds.first().copied().unwrap_or("all");

    let run = |name: &str| cmd == "all" || cmd == name;
    let mut ran_any = false;
    if run("fig6") {
        fig6(&opts);
        ran_any = true;
    }
    if run("fig7") {
        fig7(&opts);
        ran_any = true;
    }
    if run("fig8") {
        fig8(&opts);
        ran_any = true;
    }
    if run("fig9") {
        fig9(&opts);
        ran_any = true;
    }
    if run("fig10") {
        fig10();
        ran_any = true;
    }
    if run("headline") {
        headline();
        ran_any = true;
    }
    if run("scaling") {
        scaling();
        ran_any = true;
    }
    if run("ablation") {
        ablation(&opts);
        ran_any = true;
    }
    if run("transient") {
        transient();
        ran_any = true;
    }
    if run("yield") {
        yield_report(&opts);
        ran_any = true;
    }
    if run("lifetime") {
        lifetime(&opts);
        ran_any = true;
    }
    if run("trace") {
        trace(&opts);
        ran_any = true;
    }
    // The server blocks until a wire Shutdown; it is not part of `all`.
    if cmd == "serve" {
        serve(&opts);
        ran_any = true;
    }
    // File-driven and tree-writing commands are explicit-only too.
    if cmd == "run" {
        run_file(&opts, cmds.get(1).copied());
        ran_any = true;
    }
    if cmd == "export-campaigns" {
        export_campaigns();
        ran_any = true;
    }
    if !ran_any {
        eprintln!(
            "unknown command '{cmd}'. usage: repro [--quick] [--trials N] [--seed N] \
             [--addr HOST:PORT] [--metrics] [--workers N] \
             <fig6|fig7|fig8|fig9|fig10|headline|scaling|ablation|transient|yield\
             |serve|lifetime|trace|run <campaign.json>|export-campaigns|all>"
        );
        std::process::exit(2);
    }
}

/// Runs a campaign loaded from a `CampaignFile` JSON spec (see
/// `amc_scenario::spec` and the committed `campaigns/*.json`).
/// `--quick` selects the file's quick variant and `--workers` overrides
/// its worker count; the report is bit-identical to the file's in-code
/// twin at any worker count.
fn run_file(opts: &RunOpts, path: Option<&str>) {
    use amc_scenario::CampaignFile;

    banner("Run — a campaign loaded from a file");
    let Some(path) = path else {
        eprintln!("usage: repro [--quick] [--workers N] run <campaign.json>");
        std::process::exit(2);
    };
    let file = match CampaignFile::load(path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let spec = file.select(opts.quick);
    let campaign = match spec.lower(EngineRegistry::builtin()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    let workers = opts.workers.unwrap_or(campaign.workers());
    println!(
        "[{}] {} cells x {} trial(s), {} worker(s) (from {path}, {} variant)",
        campaign.name(),
        campaign.cell_count(),
        campaign.trials(),
        workers,
        if opts.quick { "quick" } else { "full" }
    );
    match campaign.run_with_workers(workers) {
        Ok(report) => {
            print!("{}", render_campaign_cells(&report));
            let artifact = format!(
                "BENCH_campaign_{}.json",
                report
                    .name
                    .replace(|c: char| !c.is_ascii_alphanumeric(), "_")
            );
            match report::write_json(&artifact, &campaign_report_json(&report)) {
                Ok(()) => println!("\nwrote {artifact}"),
                Err(e) => println!("\ncould not write {artifact}: {e}"),
            }
        }
        Err(e) => {
            eprintln!("campaign '{}' failed: {e}", campaign.name());
            std::process::exit(1);
        }
    }
    println!(
        "-> the file lowers onto the same Campaign::builder path as the \
         in-code studies, so a committed spec is a reproducible study: \
         same seeds, same shards, bit-identical report."
    );
}

/// Regenerates the committed `campaigns/*.json` specs from the in-code
/// campaign constructors (both `--quick` and full variants per file).
/// CI re-runs this to guard against the files drifting from the code.
fn export_campaigns() {
    use amc_scenario::{campaigns, CampaignFile, CampaignSpec};

    banner("Export — the shipped campaigns as files");
    type Ctor = fn(bool) -> amc_scenario::Result<amc_scenario::Campaign>;
    let shipped: [(&str, Ctor); 3] = [
        ("depth_sweep", campaigns::depth_sweep),
        ("split_rule", campaigns::split_rule_study),
        ("engine_ladder", campaigns::engine_ladder),
    ];
    if let Err(e) = std::fs::create_dir_all("campaigns") {
        eprintln!("could not create campaigns/: {e}");
        std::process::exit(1);
    }
    for (name, ctor) in shipped {
        let capture = |quick: bool| ctor(quick).map(|c| CampaignSpec::from_campaign(&c));
        let file = match (capture(true), capture(false)) {
            (Ok(quick), Ok(full)) => CampaignFile { quick, full },
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("could not build campaign '{name}': {e}");
                std::process::exit(1);
            }
        };
        let path = format!("campaigns/{name}.json");
        match std::fs::write(&path, file.render()) {
            Ok(()) => println!("wrote {path}"),
            Err(e) => {
                eprintln!("could not write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Runs the solver service on a TCP listener until a client sends
/// `Shutdown`. Every backend of the builtin registry is addressable by
/// name over the wire.
fn serve(opts: &RunOpts) {
    use amc_serve::server::{Server, ServerConfig};

    banner("Serve — solver-as-a-service over TCP");
    let listener = match std::net::TcpListener::bind(&opts.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("could not bind {}: {e}", opts.addr);
            std::process::exit(1);
        }
    };
    let server = Server::new(ServerConfig::default(), EngineRegistry::builtin());
    println!(
        "listening on {} (send a Shutdown request to stop)",
        listener
            .local_addr()
            .map_or(opts.addr.clone(), |a| a.to_string())
    );
    if let Err(e) = server.serve_tcp(listener) {
        eprintln!("server error: {e}");
        std::process::exit(1);
    }
    let stats = server.stats();
    let fetches = (stats.hits + stats.misses).max(1);
    println!(
        "served {} request(s), {} RHS solved, hit-rate {:.1}%",
        stats.requests,
        stats.solved_rhs,
        stats.hits as f64 / fetches as f64 * 100.0
    );
    if opts.metrics {
        println!("\nmetrics registry at shutdown:");
        print!("{}", server.metrics().render());
    }
}

/// Writes `BENCH_obs_trace.json`, a Chrome trace-event file (load it in
/// Perfetto or `chrome://tracing`): one traced two-stage circuit
/// prepare, solve and 2-worker batch, then a short sequential run of
/// served solves on their own lanes. Prints the solve's flame tree.
/// Tracing never changes an output bit; `tests/obs_trace.rs` proves it.
fn trace(opts: &RunOpts) {
    use amc_obs::{Trace, TraceSession};
    use amc_serve::client::Client;
    use amc_serve::loadgen::{workload_matrix, workload_rhs};
    use amc_serve::server::{Server, ServerConfig};
    use amc_serve::wire::{EngineRef, MatrixRef};
    use blockamc::solver::SolverConfig;

    banner("Trace — a Chrome trace of the solve and serve paths");
    let n = opts.pick(64, 256);
    let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
    let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);
    let batch: Vec<Vec<f64>> = (0..8)
        .map(|i| b.iter().map(|v| v * (1.0 + i as f64 * 0.01)).collect())
        .collect();

    let session = TraceSession::new();
    {
        // Recorders flush their lanes on drop: the solver, the prepared
        // solver and the replica must all be gone before the drain.
        let mut solver = BlockAmcSolver::new(
            CircuitEngine::new(CircuitEngineConfig::paper_variation(), opts.seed),
            Stages::Two,
        );
        solver.set_recorder(session.recorder());
        let mut prepared = solver.prepare(&a).expect("prepare");
        prepared.solve(&b).expect("solve");
        let mut replica = prepared.replicate(1).remove(0);
        replica
            .solve_batch_parallel(&batch, 2)
            .expect("batch solve");
    }
    let solve_trace = session.drain();
    print!("{}", solve_trace.flame_tree());

    let serve_session = TraceSession::new();
    let server = Server::with_builtin_engines(ServerConfig {
        trace: Some(serve_session.clone()),
        ..ServerConfig::default()
    });
    {
        let config = SolverConfig::builder()
            .capture_trace(false)
            .finish()
            .expect("valid config");
        let engine = EngineRef::new("numeric", 0);
        let serve_n = 32;
        let mut client = Client::new(server.loopback());
        let fingerprints: Vec<u64> = (0..3)
            .map(|i| {
                let m = workload_matrix(serve_n, opts.seed + i);
                client
                    .prepare(&m, &config, &engine)
                    .expect("served prepare")
                    .0
            })
            .collect();
        for request in 0..opts.pick(32, 128) {
            let fp = fingerprints[request % fingerprints.len()];
            let rhs = workload_rhs(serve_n, opts.seed, request as u64);
            client
                .solve(MatrixRef::Cached(fp), &config, &engine, &rhs)
                .expect("served solve");
        }
        // Dropping the client closes the loopback, letting the
        // connection loop exit and flush its lane.
    }
    server.shutdown();
    server.join_connections();
    let serve_trace = serve_session.drain();
    println!(
        "\n{} solve span(s), {} serve span(s) recorded",
        solve_trace.events().len(),
        serve_trace.events().len()
    );

    // One file: the serve lanes follow the solve lanes.
    let lane_offset = solve_trace
        .events()
        .iter()
        .map(|e| e.worker)
        .max()
        .map_or(0, |w| w + 1);
    let mut events = solve_trace.events().to_vec();
    events.extend(serve_trace.events().iter().cloned().map(|mut e| {
        e.worker += lane_offset;
        e
    }));
    let combined = Trace::from_events(events);
    match std::fs::write("BENCH_obs_trace.json", combined.chrome_trace_json()) {
        Ok(()) => println!("wrote BENCH_obs_trace.json (open in Perfetto / chrome://tracing)"),
        Err(e) => println!("could not write BENCH_obs_trace.json: {e}"),
    }
}

/// Monte-Carlo yield: fraction of manufactured parts (variation draws)
/// meeting an accuracy spec, per architecture.
fn yield_report(opts: &RunOpts) {
    use blockamc::engine::EngineSpec;
    use blockamc::montecarlo::yield_analysis;
    use blockamc::solver::SolverConfig;

    banner("Yield — parts meeting an accuracy spec across variation draws");
    let n = 64;
    let trials = opts.trials.max(20);
    let mut rng = ChaCha8Rng::seed_from_u64(0x41E1D);
    let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);
    println!("{n}x{n} Wishart, {trials} variation draws per architecture\n");
    let mut table = TextTable::new(["spec", "Original AMC", "One-stage", "Two-stage"]);
    for spec in [0.05, 0.08, 0.12, 0.20] {
        let mut cols = vec![format!("{spec:.2}")];
        for stages in [Stages::Original, Stages::One, Stages::Two] {
            let solver = SolverConfig::builder()
                .stages(stages)
                .finish()
                .expect("valid architecture");
            match yield_analysis(
                &a,
                &b,
                &solver,
                &EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
                spec,
                trials,
                0x41E1D,
            ) {
                Ok(r) => cols.push(format!("{:.0}%", 100.0 * r.yield_fraction())),
                Err(e) => cols.push(format!("failed: {e}")),
            }
        }
        table.row(cols);
    }
    print!("{}", table.render());
    println!(
        "\n-> at a given spec, BlockAMC's lower error floor converts directly \
         into manufacturing yield."
    );
}

/// Scaling/feasibility table (extends Fig. 10 across problem sizes and
/// encodes the paper's 256-cell manufacturability ceiling).
fn scaling() {
    banner("Scaling — area/power/feasibility vs problem size");
    let params = amc_arch::params::ComponentParams::calibrated_45nm();
    match amc_arch::scaling::scaling_table(&[64, 128, 256, 512, 1024], &params) {
        Ok(t) => print!("{}", amc_arch::scaling::render_scaling_table(&t)),
        Err(e) => println!("scaling failed: {e}"),
    }
    println!(
        "\n(feasible = largest required array fits within the paper's \
         256x256 manufacturability ceiling)"
    );
}

/// Design-choice ablations: variation-model interpretation, conductance
/// quantization depth, and partitioning depth.
fn ablation(opts: &RunOpts) {
    use amc_device::mapping::MappingConfig;
    use amc_device::quant::Quantizer;
    use blockamc::engine::NumericEngine;

    banner("Ablation A — variation-model interpretation (n sweep, one-stage)");
    println!(
        "the paper says sigma = 0.05*G0; full-scale-additive reading vs \
         per-device-relative reading:"
    );
    for (label, config) in [
        (
            "relative 5% (reproduction)",
            CircuitEngineConfig::paper_variation(),
        ),
        (
            "additive 0.05*G0 (literal)",
            CircuitEngineConfig::absolute_variation(),
        ),
    ] {
        let solvers = presets::original_vs_one_stage(config);
        let sizes: Vec<usize> = opts.sizes.iter().copied().filter(|&n| n <= 128).collect();
        let points = accuracy_sweep(
            MatrixFamily::Wishart,
            &sizes,
            opts.trials.min(15),
            &solvers,
            0xAB1,
        );
        print!(
            "{}",
            render_sweep(&format!("  [{label}]"), &solvers, &points)
        );
    }
    println!(
        "-> the additive reading diverges with n (noise power ~ n * sigma^2 \
         overwhelms the spectrum), while the relative reading reproduces \
         the paper's 0.05-0.4 error range; see DESIGN.md."
    );

    banner("Ablation B — conductance quantization levels (one-stage, n = 64)");
    let n = 64;
    let mut rng = ChaCha8Rng::seed_from_u64(0xAB2);
    let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);
    let x_ref = lu::solve(&a, &b).expect("reference");
    for levels in [8u32, 16, 32, 64, 256, 1024] {
        let mut mapping = MappingConfig::paper_default();
        mapping.quantizer =
            Some(Quantizer::new(mapping.g_min, mapping.g0, levels).expect("valid quantizer"));
        let config = CircuitEngineConfig {
            mapping,
            variation: amc_device::variation::VariationModel::None,
            sim: amc_circuit::sim::SimConfig::ideal(),
        };
        let mut solver = BlockAmcSolver::new(CircuitEngine::new(config, 1), Stages::One);
        match solver.solve(&a, &b) {
            Ok(r) => println!(
                "  {levels:>5} levels: rel. error {:.3e}",
                metrics::relative_error(&x_ref, &r.x)
            ),
            Err(e) => println!("  {levels:>5} levels: failed ({e})"),
        }
    }
    println!("-> ~64 analog levels suffice to reach the variation-limited floor.");

    banner("Ablation C — partitioning depth (numeric engine, n = 64)");
    for depth in 0..=4usize {
        // Depth 0 is the single-array baseline (`Multi(0)` is rejected
        // by config validation).
        let stages = if depth == 0 {
            Stages::Original
        } else {
            Stages::Multi(depth)
        };
        let mut solver = BlockAmcSolver::new(NumericEngine::new(), stages);
        match solver.solve(&a, &b) {
            Ok(r) => println!(
                "  depth {depth}: rel. error {:.3e}, {:>3} arrays programmed, {} INV + {} MVM ops",
                metrics::relative_error(&x_ref, &r.x),
                r.stats_delta.program_ops,
                r.stats_delta.inv_ops,
                r.stats_delta.mvm_ops,
            ),
            Err(e) => println!("  depth {depth}: failed ({e})"),
        }
    }
    println!("-> the algorithm is exact at every depth; hardware cost grows with depth.");

    banner("Ablation D — raw-Toeplitz condition guard (the Toeplitz flake fix)");
    let n = 32;
    let trials = opts.trials.clamp(8, 25) as u64;
    // A deliberately tight guard so the resample mechanism visibly
    // bites at ablation trial counts; the harness production guard
    // (RAW_TOEPLITZ_MAX_COND) only trims the catastrophic tail.
    let demo_guard = 2e2;
    println!(
        "worst condition estimate and one-stage error over {trials} draws, \
         unguarded vs guarded (demo max_cond = {demo_guard:.0e}; the harness \
         uses {RAW_TOEPLITZ_MAX_COND:.0e}):"
    );
    for (label, guarded) in [("random_toeplitz_raw", false), ("guarded resample", true)] {
        let mut worst_cond = 0.0_f64;
        let mut worst_err = 0.0_f64;
        let mut failures = 0usize;
        for t in 0..trials {
            let mut rng = ChaCha8Rng::seed_from_u64(0xAB4_0000 + t);
            let a = if guarded {
                amc_linalg::generate::random_toeplitz_conditioned(n, demo_guard, &mut rng)
            } else {
                amc_linalg::generate::random_toeplitz_raw(n, &mut rng)
            }
            .expect("n > 0");
            let b = amc_linalg::generate::random_vector(n, &mut rng);
            let cond = match amc_linalg::lu::LuFactor::new(&a) {
                Ok(lu) => lu.cond_estimate(a.norm_one()),
                Err(_) => f64::INFINITY,
            };
            worst_cond = worst_cond.max(cond);
            let solve = || -> Option<f64> {
                let x_ref = lu::solve(&a, &b).ok()?;
                let mut solver = BlockAmcSolver::new(
                    CircuitEngine::new(CircuitEngineConfig::paper_variation(), 0xD + t),
                    Stages::One,
                );
                let r = solver.solve(&a, &b).ok()?;
                let e = metrics::relative_error(&x_ref, &r.x);
                e.is_finite().then_some(e)
            };
            match solve() {
                Some(e) => worst_err = worst_err.max(e),
                None => failures += 1,
            }
        }
        println!(
            "  {label:<22} worst cond {worst_cond:>9.2e}, worst rel. error \
             {worst_err:>9.2e}, {failures} failed solve(s)"
        );
    }
    println!(
        "-> the seeded resample guard bounds the tail: no more catastrophically \
         conditioned draws sinking a sweep, with the stream still deterministic."
    );
}

/// Transient settling validation: waveform-measured settle times vs the
/// eigenvalue-based estimates, original vs BlockAMC block sizes.
fn transient() {
    use amc_circuit::opamp::OpAmpSpec;
    use amc_circuit::timing;
    use amc_circuit::transient::{simulate_inv_settling, TransientOptions};

    banner("Transient — INV settling waveforms vs eigenvalue estimates");
    let spec = OpAmpSpec::ideal();
    for n in [8usize, 16, 32] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x7100 + n as u64);
        let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);
        let g_hat = a.scaled(1.0 / a.max_abs());
        let mut opts = TransientOptions::for_opamp(&spec);
        opts.duration_s *= 10.0;
        match (
            simulate_inv_settling(&g_hat, &b, &spec, &opts),
            timing::inv_settle_time(&g_hat, &spec, opts.epsilon),
        ) {
            (Ok(r), Ok(est)) => {
                let measured = r
                    .settle_time_s
                    .map(|t| format!("{:.1} ns", t * 1e9))
                    .unwrap_or_else(|| "did not settle".to_string());
                println!(
                    "  n={n:>3}: measured {measured:>12}, estimated {:.1} ns",
                    est * 1e9
                );
            }
            (Err(e), _) | (_, Err(e)) => println!("  n={n:>3}: failed ({e})"),
        }
    }
    println!(
        "-> settle time tracks 1/lambda_min: smaller, better-conditioned \
         BlockAMC blocks settle faster, partially offsetting the 5-step cascade."
    );
}

/// Fig. 6 — ideal mapping: per-step traces, final comparison at the
/// showcase size, and the relative-error-vs-size sweep.
fn fig6(opts: &RunOpts) {
    banner("Fig. 6 — ideal mapping (finite-gain op-amps, no variation)");
    let n = opts.showcase_n;
    let config = CircuitEngineConfig::ideal_mapping();
    let mut rng = ChaCha8Rng::seed_from_u64(0xF166);
    let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);

    // (a) per-step BlockAMC vs numerical.
    println!("(a) per-step relative error, {n}x{n} Wishart, BlockAMC vs numerical:");
    match step_trace_comparison(&a, &b, config, 1) {
        Ok(steps) => {
            for (name, err) in steps {
                println!("    {name:<22} rel. error {err:.3e}");
            }
        }
        Err(e) => println!("    trace failed: {e}"),
    }

    // (b) final solutions of the three solvers.
    println!("\n(b) final solution error vs numerical, {n}x{n} Wishart:");
    let x_ref = lu::solve(&a, &b).expect("reference solve");
    for (label, stages) in [
        ("Original AMC", Stages::Original),
        ("BlockAMC", Stages::One),
    ] {
        let mut solver = BlockAmcSolver::new(CircuitEngine::new(config, 2), stages);
        match solver.solve(&a, &b) {
            Ok(r) => println!(
                "    {label:<14} rel. error {:.3e}",
                metrics::relative_error(&x_ref, &r.x)
            ),
            Err(e) => println!("    {label:<14} failed: {e}"),
        }
    }

    // (c) error vs size sweep.
    let solvers = presets::original_vs_one_stage(config);
    let points = accuracy_sweep(
        MatrixFamily::Wishart,
        &opts.sizes,
        opts.trials,
        &solvers,
        0x66,
    );
    println!();
    print!(
        "{}",
        render_sweep(
            "(c) relative error vs Wishart size (ideal mapping)",
            &solvers,
            &points
        )
    );
    shape_check(&points, "fig6c");
}

/// Fig. 7 — device variation (σ = 0.05·G₀) sweeps for both families.
fn fig7(opts: &RunOpts) {
    banner("Fig. 7 — conductance variation σ = 0.05·G0");
    let config = CircuitEngineConfig::paper_variation();
    for (family, tag) in [
        (MatrixFamily::Wishart, "(a)"),
        (MatrixFamily::Toeplitz, "(b)"),
    ] {
        let solvers = presets::original_vs_one_stage(config);
        let points = accuracy_sweep(family, &opts.sizes, opts.trials, &solvers, 0x77);
        print!(
            "{}",
            render_sweep(
                &format!("{tag} relative error vs {} size, s = 0.05", family.label()),
                &solvers,
                &points
            )
        );
        shape_check(&points, &format!("fig7{}", family.label()));
        println!();
    }
}

/// Fig. 8 — the two-stage solver: inner INV traces at the showcase size
/// and the error-vs-size sweep against the original AMC.
fn fig8(opts: &RunOpts) {
    banner("Fig. 8 — two-stage BlockAMC, σ = 0.05·G0");
    let n = opts.showcase_n;
    let config = CircuitEngineConfig::paper_variation();
    let mut rng = ChaCha8Rng::seed_from_u64(0xF168);
    let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);
    let x_ref = lu::solve(&a, &b).expect("reference solve");

    println!("(a,b) inner second-stage INV traces, {n}x{n} Wishart:");
    let mut solver = BlockAmcSolver::new(CircuitEngine::new(config, 3), Stages::Two);
    match solver.solve(&a, &b) {
        Ok(r) => {
            for (block, trace) in &r.inner_traces {
                println!("    inner macro {block}: {} steps executed", trace.len());
            }
            println!(
                "\n(c) final two-stage solution rel. error: {:.3e}",
                metrics::relative_error(&x_ref, &r.x)
            );
        }
        Err(e) => println!("    two-stage solve failed: {e}"),
    }

    let solvers = presets::original_vs_two_stage(config);
    let points = accuracy_sweep(
        MatrixFamily::Wishart,
        &opts.sizes,
        opts.trials,
        &solvers,
        0x88,
    );
    println!();
    print!(
        "{}",
        render_sweep(
            "(d) relative error vs Wishart size, original vs two-stage",
            &solvers,
            &points
        )
    );
    shape_check(&points, "fig8d");
}

/// Fig. 9 — variation + interconnect resistance (1 Ω/segment).
fn fig9(opts: &RunOpts) {
    banner("Fig. 9 — variation σ = 0.05·G0 + interconnect 1 Ω/segment");
    let config = CircuitEngineConfig::paper_full();
    for (family, tag) in [
        (MatrixFamily::Wishart, "(a)"),
        (MatrixFamily::Toeplitz, "(b)"),
    ] {
        let solvers = presets::all_three(config);
        let points = accuracy_sweep(family, &opts.sizes, opts.trials, &solvers, 0x99);
        print!(
            "{}",
            render_sweep(
                &format!(
                    "{tag} relative error vs {} size, s = 0.05 + wire R",
                    family.label()
                ),
                &solvers,
                &points
            )
        );
        shape_check(&points, &format!("fig9{}", family.label()));
        println!();
    }
}

/// Fig. 10 — area and power breakdowns.
fn fig10() {
    banner("Fig. 10 — area and power of the three solvers (n = 512)");
    let params = amc_arch::params::ComponentParams::calibrated_45nm();
    match amc_arch::report::Fig10Report::compute(512, &params) {
        Ok(r) => print!("{}", r.render()),
        Err(e) => println!("fig10 failed: {e}"),
    }
}

/// The abstract's headline comparison.
fn headline() {
    banner("Headline (abstract)");
    let params = amc_arch::params::ComponentParams::calibrated_45nm();
    match amc_arch::report::headline(&params) {
        Ok(h) => println!("{h}"),
        Err(e) => println!("headline failed: {e}"),
    }
}

/// Lifetime reliability study: streaming drift/fault campaigns under
/// the repair-policy ladder, with worker-sweep bit-identity and the
/// policy frontier (accuracy × energy × availability) as the headline.
fn lifetime(opts: &RunOpts) {
    use amc_device::drift::DriftModel;
    use amc_device::faults::FaultModel;
    use amc_scenario::lifetime::{run_lifetime_worker_sweep, LifetimeCampaign, RepairPolicy};
    use amc_scenario::workload::{WorkloadFamily, WorkloadSpec};
    use blockamc::aging::AgingModel;

    banner("Lifetime — drift, faults, and the repair-policy frontier");

    // Accelerated aging so a short trace spans the interesting regime:
    // strong power-law drift plus a small stuck-at rate per tick.
    let model = AgingModel {
        drift: DriftModel {
            nu: 0.05,
            nu_sigma: 0.01,
            t0_s: 1.0,
        },
        faults: FaultModel {
            p_stuck_on: 1e-4,
            p_stuck_off: 1e-4,
            g_on: 1.0,
            g_off: 0.0,
        },
        tick_s: 100.0,
        ..AgingModel::typical_rram()
    };
    let ticks = opts.pick(8, 30);
    let campaign = LifetimeCampaign::builder("policy-frontier")
        .workload(WorkloadSpec::new(
            "wishart",
            WorkloadFamily::Wishart,
            opts.pick(12, 24),
            1,
        ))
        .workload(WorkloadSpec::new(
            "poisson2d",
            WorkloadFamily::Poisson2d,
            opts.pick(16, 36),
            2,
        ))
        .policy("never", RepairPolicy::Never)
        .policy("always", RepairPolicy::Always)
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
                energy_budget_j: opts.pick(3e-9, 1e-7),
                reprogram_above: 1e-2,
                arrays_per_repair: 2,
            },
        )
        .model(model)
        .ticks(ticks)
        .rhs_per_tick(opts.pick(1, 2))
        .seed(opts.seed)
        .finish();
    let campaign = match campaign {
        Ok(c) => c,
        Err(e) => {
            println!("lifetime campaign failed to build: {e}");
            return;
        }
    };

    println!(
        "[{}] {} workload(s) x {} policies, {} tick(s), {} host core(s)",
        campaign.name(),
        campaign.workloads().len(),
        campaign.policies().len(),
        campaign.ticks(),
        amc_par::available_workers()
    );
    let sweep = match run_lifetime_worker_sweep(&campaign, &[1, 2, 4]) {
        Ok(s) => s,
        Err(e) => {
            println!("lifetime campaign failed: {e}");
            return;
        }
    };
    let report = &sweep.report;

    let mut table = TextTable::new([
        "workload",
        "n",
        "policy",
        "mean res",
        "worst res",
        "energy J",
        "avail",
        "repairs",
        "refines",
        "stuck",
    ]);
    for c in &report.cells {
        table.row([
            c.workload.clone(),
            c.n.to_string(),
            c.policy.clone(),
            format!("{:.3e}", c.summary.mean_accuracy),
            format!("{:.3e}", c.summary.worst_accuracy),
            format!("{:.3e}", c.summary.total_energy_j),
            format!("{:.3}", c.summary.mean_availability),
            c.summary.total_repairs.to_string(),
            c.summary.refine_ticks.to_string(),
            c.stuck_cells.to_string(),
        ]);
    }
    print!("{}", table.render());

    let yn = |b: bool| if b { "yes" } else { "no" };
    println!(
        "  bit-identical across worker counts: {}",
        yn(sweep.bit_identical)
    );

    // The frontier claim, checked per workload: a reactive policy
    // (threshold or budgeted) must dominate Never on accuracy and
    // Always on energy.
    let mut frontier_holds = true;
    let policy_cell = |workload: &str, policy: &str| {
        report
            .cells
            .iter()
            .find(|c| c.workload == workload && c.policy == policy)
    };
    for w in campaign.workloads() {
        let (Some(never), Some(always), Some(threshold), Some(budgeted)) = (
            policy_cell(&w.name, "never"),
            policy_cell(&w.name, "always"),
            policy_cell(&w.name, "threshold"),
            policy_cell(&w.name, "budgeted"),
        ) else {
            continue;
        };
        // A reactive cell dominates when it is strictly more accurate
        // than Never AND strictly cheaper than Always.
        let dominates = |c: &amc_scenario::lifetime::LifetimeCellRecord| {
            c.summary.mean_accuracy < never.summary.mean_accuracy
                && c.summary.total_energy_j < always.summary.total_energy_j
        };
        let threshold_dominates = dominates(threshold);
        let budgeted_dominates = dominates(budgeted);
        frontier_holds &= threshold_dominates || budgeted_dominates;
        println!(
            "  [{}] dominates never+always — threshold: {}, budgeted: {} \
             (anchors: never {:.3e} res / always {:.3e} J)",
            w.name,
            yn(threshold_dominates),
            yn(budgeted_dominates),
            never.summary.mean_accuracy,
            always.summary.total_energy_j,
        );
    }

    let cells_json: Vec<Json> = report
        .cells
        .iter()
        .map(|c| {
            Json::obj([
                ("workload", c.workload.clone().into()),
                ("family", c.family.clone().into()),
                ("n", c.n.into()),
                ("policy", c.policy.clone().into()),
                ("arrays", c.arrays.into()),
                ("stuck_cells", c.stuck_cells.into()),
                ("mean_accuracy", c.summary.mean_accuracy.into()),
                ("worst_accuracy", c.summary.worst_accuracy.into()),
                ("total_energy_j", c.summary.total_energy_j.into()),
                ("mean_availability", c.summary.mean_availability.into()),
                ("total_repairs", Json::Int(c.summary.total_repairs as i64)),
                ("refine_ticks", Json::Int(c.summary.refine_ticks as i64)),
                ("iterations_saved", Json::Int(c.summary.iterations_saved)),
                (
                    "health_trace",
                    Json::Arr(c.ticks.iter().map(|t| t.health.into()).collect()),
                ),
                (
                    "actions",
                    Json::Arr(
                        c.ticks
                            .iter()
                            .map(|t| t.action.label().to_string().into())
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    let json = Json::obj([
        ("bench", "lifetime".into()),
        ("quick", opts.quick.into()),
        ("host_workers", amc_par::available_workers().into()),
        ("ticks", report.ticks.into()),
        ("rhs_per_tick", report.rhs_per_tick.into()),
        ("seed", Json::Int(opts.seed as i64)),
        ("bit_identical", sweep.bit_identical.into()),
        ("frontier_holds", frontier_holds.into()),
        ("cells", Json::Arr(cells_json)),
    ]);
    match report::write_json("BENCH_lifetime.json", &json) {
        Ok(()) => println!("\nwrote BENCH_lifetime.json"),
        Err(e) => println!("\ncould not write BENCH_lifetime.json: {e}"),
    }
    println!(
        "-> lifetime is a streaming campaign over aging solvers: drift and \
         stuck-at faults accumulate per tick, the repair scheduler chooses \
         serve/refine/reprogram, and the reactive policies sit on the \
         accuracy x energy frontier between Never and Always."
    );
}

fn banner(title: &str) {
    println!("\n=== {title} ===");
}

/// The per-cell text table of a campaign report, as `run` prints it.
fn render_campaign_cells(report: &amc_scenario::CampaignReport) -> String {
    let mut t = TextTable::new([
        "workload",
        "solver",
        "engine",
        "nonideality",
        "ok",
        "median err",
        "mean err",
        "arrays",
        "model lat",
    ]);
    for c in &report.cells {
        t.row([
            c.workload.clone(),
            c.solver.clone(),
            c.engine.to_string(),
            c.nonideality.to_string(),
            format!("{}/{}", c.completed, c.trials),
            format!("{:.3e}", c.errors.median),
            format!("{:.3e}", c.errors.mean),
            c.program_ops.to_string(),
            c.model_latency_s
                .map(|t| format!("{:.1} us", t * 1e6))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    t.render()
}

/// The machine-readable form of a campaign report: the whole body of
/// `repro run`'s `BENCH_campaign_*.json` artifact.
fn campaign_report_json(report: &amc_scenario::CampaignReport) -> Json {
    Json::obj([
        ("name", report.name.clone().into()),
        ("trials", report.trials.into()),
        ("rhs_per_trial", report.rhs_per_trial.into()),
        (
            "cells",
            Json::Arr(
                report
                    .cells
                    .iter()
                    .map(|c| {
                        Json::obj([
                            ("workload", c.workload.clone().into()),
                            ("family", c.family.into()),
                            ("n", c.n.into()),
                            ("solver", c.solver.clone().into()),
                            ("engine", c.engine.into()),
                            ("nonideality", c.nonideality.into()),
                            ("trials", c.trials.into()),
                            ("completed", c.completed.into()),
                            ("err_mean", c.errors.mean.into()),
                            ("err_median", c.errors.median.into()),
                            ("err_max", c.errors.max.into()),
                            ("program_ops", c.program_ops.into()),
                            ("inv_ops", c.inv_ops.into()),
                            ("mvm_ops", c.mvm_ops.into()),
                            ("analog_time_per_solve_s", c.analog_time_per_solve_s.into()),
                            (
                                "analog_energy_per_solve_j",
                                c.analog_energy_per_solve_j.into(),
                            ),
                            ("model_latency_s", c.model_latency_s.into()),
                            ("cond_estimate", c.meta.cond_estimate.into()),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Prints the qualitative claim check for a two-or-more-solver sweep:
/// the last solver column (a BlockAMC variant) should beat the first
/// (the original AMC) at the largest sizes.
fn shape_check(points: &[amc_bench::SweepPoint], tag: &str) {
    if let Some(last) = points.last() {
        if last.stats.len() >= 2 {
            let orig = last.stats.first().expect("nonempty").median;
            let block = last.stats.last().expect("nonempty").median;
            let verdict = if block <= orig { "OK" } else { "MISS" };
            println!(
                "[shape {tag}] at n={}: original {:.4} vs BlockAMC {:.4} -> {verdict}",
                last.n, orig, block
            );
        }
    }
}
