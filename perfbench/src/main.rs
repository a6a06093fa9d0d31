//! The BlockAMC benchmark: one workload per invocation, measured for a
//! fixed window, answers checked afterwards, metrics printed as JSON.
//!
//! ```text
//! perfbench --workload <prepare_churn|rhs_stream|serve_mix|analog_mc>
//!           --seed <n> --seconds <n> --trace <0|1> [--seed2 <n>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics with every instrument off;
//! `--trace 1` prints the per-layer metrics. The last line of standard
//! output is the result; the line before it is a report with the host
//! fingerprint, the seeds, the host's measured slowdown with the
//! unscaled timings, and the oracle results. See `README.md` for
//! what each metric means and which layer metric should move which
//! end-to-end metric.

use std::process::ExitCode;

mod host;
mod measure;
mod oracle;
mod probe;
mod speed;
mod workloads;

use measure::{median, ratio, Segment};
use probe::LayerReading;
use workloads::{Params, Run};

#[global_allocator]
static ALLOCATOR: probe::CountingAlloc = probe::CountingAlloc;

type Workload = fn(&Params) -> Result<Run, String>;

const WORKLOADS: [(&str, Workload); 4] = [
    ("prepare_churn", workloads::prepare_churn::run),
    ("rhs_stream", workloads::rhs_stream::run),
    ("serve_mix", workloads::serve_mix::run),
    ("analog_mc", workloads::analog_mc::run),
];

/// Per-layer metrics and their units, in print order. A workload that
/// never reaches a layer in its window reports 0 for it.
const LAYER_UNITS: [(&str, &str); 33] = [
    ("engine.program.calls", "calls/op"),
    ("engine.program.busy_ms", "ms/op"),
    ("engine.inv.calls", "calls/op"),
    ("engine.inv.busy_ms", "ms/op"),
    ("engine.mvm.calls", "calls/op"),
    ("engine.mvm.busy_ms", "ms/op"),
    ("linalg.lu.flops", "flop/op"),
    ("linalg.lu.gflops_s", "GFLOP/s"),
    ("linalg.solve.bytes", "B/op"),
    ("linalg.solve.gbytes_s", "GB/s"),
    ("prepare.busy_ms", "ms"),
    ("prepare.digital_ms", "ms"),
    ("solve.busy_us", "us"),
    ("solve.self_us", "us"),
    ("batch.busy_ms", "ms"),
    ("batch.self_ms", "ms"),
    ("batch.worker_util", "frac"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("wire.request_bytes", "B"),
    ("client.hit_rtt_us", "us"),
    ("client.miss_rtt_us", "us"),
    ("cache.hit_rate", "frac"),
    ("cache.evictions", "count/op"),
    ("serve.coalescing_factor", "req/batch"),
    ("serve.busy_rejections", "count/op"),
    ("serve.dispatch_us_mean", "us"),
    ("serve.wait_us_mean", "us"),
    ("campaign.trial_ms", "ms"),
    ("alloc.count_per_op", "count/op"),
    ("alloc.bytes_per_op", "B/op"),
    ("cpu_util", "frac"),
    ("trace.overhead_frac", "frac"),
];

fn usage() -> String {
    let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1> [--seed2 <n>]",
        names.join("|")
    )
}

fn parse_args() -> Result<(Workload, &'static str, Params), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seed2, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("flag {} has no value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|(name, _)| name == value)
                        .ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(number()?),
            "--seed2" => seed2 = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? == 1),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let (Some(&(name, run)), Some(seed), Some(seconds), Some(trace)) =
        (workload, seed, seconds, trace)
    else {
        return Err("--workload, --seed, --seconds and --trace are required".into());
    };
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let params = Params {
        seed,
        seed2: seed2.unwrap_or(seed),
        seconds: seconds as f64,
        trace,
    };
    Ok((run, name, params))
}

fn main() -> ExitCode {
    let (run, name, params) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let result = match run(&params) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics: Vec<(&str, f64, &str)> = if params.trace {
        per_layer(&result)
    } else {
        end_to_end(&result)
    };
    let tail = result.tail_percentile;
    let calls = result.latencies.count();
    let beyond = calls as f64 * (1.0 - tail / 100.0);
    let speed = &result.window.speed;
    let mut report = vec![
        ("workload", json_str(name)),
        ("seed", params.seed.to_string()),
        ("seed2", params.seed2.to_string()),
        ("seconds", num(params.seconds)),
        ("trace", params.trace.to_string()),
        (
            "fail_frac",
            num(ratio(result.failed as f64, result.attempted as f64)),
        ),
        ("latency_tail_percentile", num(tail)),
        ("latency_samples", calls.to_string()),
        ("latency_samples_beyond_tail", num(beyond.floor())),
        ("slice_rates", json_list(&result.window.slice_rates)),
        ("setup_samples_s", json_list(&result.setup_s)),
        (
            "segment_ops",
            json_list(
                &result
                    .window
                    .segments
                    .iter()
                    .map(|s| s.ops as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("host_slowdown", num(speed.slowdown())),
        ("host_speed_samples", speed.samples().to_string()),
        (
            "unscaled",
            json_object(
                &timed_metrics(&result, 1.0)
                    .iter()
                    .map(|(k, v, _)| (*k, num(*v)))
                    .collect::<Vec<_>>(),
            ),
        ),
    ];
    for (key, value) in host::fingerprint() {
        report.push((key, json_str(&value)));
    }
    report.extend(result.notes.iter().map(|(k, v)| (*k, v.clone())));
    println!("# report {}", json_object(&report));

    let correct = result.failed == 0 && result.attempted > 0;
    let rendered: Vec<(&str, String)> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            let body = json_object(&[("value", num(*value)), ("unit", json_str(unit))]);
            (*metric, body)
        })
        .collect();
    println!(
        "{}",
        json_object(&[
            ("correct", correct.to_string()),
            ("attempted", result.attempted.to_string()),
            ("failed", result.failed.to_string()),
            ("metrics", json_object(&rendered)),
        ])
    );
    ExitCode::SUCCESS
}

/// The timed end-to-end metrics, scaled to a host `slowdown` times
/// slower than nominal: times are divided by it, rates multiplied.
fn timed_metrics(run: &Run, slowdown: f64) -> [(&'static str, f64, &'static str); 4] {
    [
        ("setup_s", median(&run.setup_s) / slowdown, "s"),
        (
            "ops_per_s",
            median(&run.window.slice_rates) * slowdown,
            "1/s",
        ),
        (
            "latency_p50_ms",
            run.latencies.slice_median_ms() / slowdown,
            "ms",
        ),
        (
            "latency_tail_ms",
            run.latencies.percentile_ms(run.tail_percentile) / slowdown,
            "ms",
        ),
    ]
}

fn end_to_end(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let slowdown = run.window.speed.slowdown();
    let mut metrics = timed_metrics(run, slowdown).to_vec();
    metrics.push(("rel_error_median", median(&run.rel_errors), "ratio"));
    metrics.push(("peak_rss_mb", run.window.peak_rss_mb, "MiB"));
    metrics
}

fn per_layer(run: &Run) -> Vec<(&'static str, f64, &'static str)> {
    let traced: Vec<&Segment> = run.window.segments.iter().filter(|s| s.traced).collect();
    let ops: u64 = traced.iter().map(|s| s.ops).sum();
    let wall: f64 = traced.iter().map(|s| s.wall_s).sum();
    let cpu: f64 = traced.iter().map(|s| s.cpu_s).sum();
    let (program, inv, mvm) = (
        probe::ENGINE_PROGRAM.read(),
        probe::ENGINE_INV.read(),
        probe::ENGINE_MVM.read(),
    );
    let per_op = |v: f64| ratio(v, ops as f64);
    let ms = |r: &LayerReading| r.busy_ns as f64 * 1e-6;
    let lu_flops = probe::LU_FLOPS.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let bytes = probe::SOLVE_BYTES.load(std::sync::atomic::Ordering::Relaxed) as f64;
    let (allocs, alloc_bytes) = probe::allocations();
    let (prepare, solve) = (probe::PREPARE.read(), probe::SOLVE.read());
    let mut values = vec![
        ("engine.program.calls", per_op(program.calls as f64)),
        ("engine.program.busy_ms", per_op(ms(&program))),
        ("engine.inv.calls", per_op(inv.calls as f64)),
        ("engine.inv.busy_ms", per_op(ms(&inv))),
        ("engine.mvm.calls", per_op(mvm.calls as f64)),
        ("engine.mvm.busy_ms", per_op(ms(&mvm))),
        ("linalg.lu.flops", per_op(lu_flops)),
        // Work per busy nanosecond is work in units of 1e9 per second.
        ("linalg.lu.gflops_s", ratio(lu_flops, inv.busy_ns as f64)),
        ("linalg.solve.bytes", per_op(bytes)),
        (
            "linalg.solve.gbytes_s",
            ratio(bytes, (inv.busy_ns + mvm.busy_ns) as f64),
        ),
        ("prepare.busy_ms", prepare.busy_per_call(1e-3)),
        ("prepare.digital_ms", prepare.self_per_call(1e-3, 1.0)),
        ("solve.busy_us", solve.busy_per_call(1e-6)),
        ("solve.self_us", solve.self_per_call(1e-6, 1.0)),
        ("alloc.count_per_op", per_op(allocs as f64)),
        ("alloc.bytes_per_op", per_op(alloc_bytes as f64)),
        ("cpu_util", cpu / (wall * host::nproc() as f64)),
        ("trace.overhead_frac", overhead(&run.window.segments)),
    ];
    values.extend(run.layers.iter().copied());
    LAYER_UNITS
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            (name, value, unit)
        })
        .collect()
}

/// Median over neighbouring off/on segment pairs of how much slower the
/// traced segment ran: `rate_off / rate_on − 1`.
fn overhead(segments: &[Segment]) -> f64 {
    let ratios: Vec<f64> = segments
        .chunks(2)
        .filter_map(|pair| match pair {
            [off, on] if !off.traced && on.traced && on.ops > 0 && off.wall_s > 0.0 => {
                let rate = |s: &Segment| s.ops as f64 / s.wall_s;
                Some(rate(off) / rate(on) - 1.0)
            }
            _ => None,
        })
        .collect();
    median(&ratios)
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_list(values: &[f64]) -> String {
    let items: Vec<String> = values.iter().map(|v| num(*v)).collect();
    format!("[{}]", items.join(","))
}

/// An object from `(key, rendered JSON value)` pairs.
fn json_object(fields: &[(&str, String)]) -> String {
    let items: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), v))
        .collect();
    format!("{{{}}}", items.join(","))
}
