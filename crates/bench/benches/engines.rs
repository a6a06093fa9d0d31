//! Cost of the AMC primitives per engine (program / INV / MVM), isolating
//! where simulation time goes.

use amc_bench::{make_workload, MatrixFamily};
use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_primitives");
    group.sample_size(10);
    for &n in &[16usize, 64] {
        let mut rng = ChaCha8Rng::seed_from_u64(n as u64);
        let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);

        group.bench_with_input(BenchmarkId::new("numeric_inv", n), &n, |bencher, _| {
            let mut e = NumericEngine::new();
            let mut op = e.program(&a).expect("program");
            bencher.iter(|| std::hint::black_box(e.inv(&mut op, &b).expect("inv")));
        });
        // Programming + first INV (runs the LU), then the amortized
        // per-RHS path through the buffer-reusing `inv_into`.
        group.bench_with_input(
            BenchmarkId::new("numeric_factorize", n),
            &n,
            |bencher, _| {
                let mut e = NumericEngine::new();
                bencher.iter(|| {
                    let mut op = e.program(&a).expect("program");
                    std::hint::black_box(e.inv(&mut op, &b).expect("inv"))
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("numeric_inv_into", n), &n, |bencher, _| {
            let mut e = NumericEngine::new();
            let mut op = e.program(&a).expect("program");
            let mut out = Vec::new();
            e.inv_into(&mut op, &b, &mut out).expect("warm-up inv");
            bencher.iter(|| {
                e.inv_into(&mut op, &b, &mut out).expect("inv");
                std::hint::black_box(out.len())
            });
        });
        group.bench_with_input(BenchmarkId::new("circuit_program", n), &n, |bencher, _| {
            let mut e = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 1);
            bencher.iter(|| std::hint::black_box(e.program(&a).expect("program")));
        });
        group.bench_with_input(BenchmarkId::new("circuit_inv", n), &n, |bencher, _| {
            let mut e = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 1);
            let mut op = e.program(&a).expect("program");
            bencher.iter(|| std::hint::black_box(e.inv(&mut op, &b).expect("inv")));
        });
        group.bench_with_input(BenchmarkId::new("circuit_mvm", n), &n, |bencher, _| {
            let mut e = CircuitEngine::new(CircuitEngineConfig::paper_variation(), 1);
            let mut op = e.program(&a).expect("program");
            bencher.iter(|| std::hint::black_box(e.mvm(&mut op, &b).expect("mvm")));
        });
    }
    group.finish();
}

/// The large-`n` ladder: full factorize+solve and the amortized
/// per-RHS `inv_into` path of the exact digital engine at
/// n = 256 / 512 / 1024.
fn bench_large_n(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_large_n");
    group.sample_size(10);
    for &n in &[256usize, 512, 1024] {
        let mut rng = ChaCha8Rng::seed_from_u64(0x51D + n as u64);
        let (a, b) = make_workload(MatrixFamily::Wishart, n, &mut rng);

        group.bench_with_input(
            BenchmarkId::new("numeric_factorize", n),
            &n,
            |bencher, _| {
                let mut e = NumericEngine::new();
                let mut out = Vec::new();
                bencher.iter(|| {
                    let mut op = e.program(&a).expect("program");
                    e.inv_into(&mut op, &b, &mut out).expect("inv");
                    std::hint::black_box(out.len())
                });
            },
        );
        group.bench_with_input(BenchmarkId::new("numeric_inv_into", n), &n, |bencher, _| {
            let mut e = NumericEngine::new();
            let mut op = e.program(&a).expect("program");
            let mut out = Vec::new();
            e.inv_into(&mut op, &b, &mut out).expect("warm-up inv");
            bencher.iter(|| {
                e.inv_into(&mut op, &b, &mut out).expect("inv");
                std::hint::black_box(out.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_primitives, bench_large_n);
criterion_main!(benches);
