//! Golden pins of the one- and two-stage cascades.
//!
//! The digests below were recorded from the dedicated one-stage and
//! two-stage module APIs before those modules were folded into the
//! `SolverConfig` facade. `Stages::One` and `Stages::Two` (default
//! signal plans, trace capture on) must reproduce every bit of what they
//! returned:
//!
//! * `x` of the one-stage solve and its five `StepRecord`s (step id,
//!   input and output of every step);
//! * `x` of the two-stage solve and its labeled inner-macro traces.
//!
//! Each is pinned through an FNV-1a digest of the `f64` bit patterns
//! (lengths and step ids included), over `wishart_default` workloads at
//! n ∈ {4, 7, 8, 13, 16, 20} × seeds {1, 2, 3}, under the exact
//! `NumericEngine` and under `CircuitEngine::new(paper_variation(), seed)`.

use amc_linalg::{generate, Matrix};
use blockamc::engine::{AmcEngine, CircuitEngine, CircuitEngineConfig, NumericEngine};
use blockamc::solver::{SolverConfig, Stages, StepRecord};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn fnv1a(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Appends `v` as its length followed by its bit patterns.
fn push_vec(words: &mut Vec<u64>, v: &[f64]) {
    words.push(v.len() as u64);
    words.extend(v.iter().map(|x| x.to_bits()));
}

/// Appends a trace: its length, then per step the 1-based step number
/// (`Inv1` = 1 … `Inv5` = 5), the input and the output.
fn push_trace(words: &mut Vec<u64>, trace: &[StepRecord]) {
    words.push(trace.len() as u64);
    for r in trace {
        words.push(r.step as u64 + 1);
        push_vec(words, &r.input);
        push_vec(words, &r.output);
    }
}

fn digest(fill: impl FnOnce(&mut Vec<u64>)) -> u64 {
    let mut words = Vec::new();
    fill(&mut words);
    fnv1a(&words)
}

fn workload(n: usize, seed: u64) -> (Matrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::wishart_default(n, &mut rng).unwrap();
    let b = generate::random_vector(n, &mut rng);
    (a, b)
}

/// `[x one-stage, trace one-stage, x two-stage, inner traces two-stage]`,
/// each architecture on a freshly built engine.
fn fingerprint<E: AmcEngine>(engine: impl Fn() -> E, a: &Matrix, b: &[f64]) -> [u64; 4] {
    let solve = |stages| {
        let mut solver = SolverConfig::builder()
            .stages(stages)
            .capture_trace(true)
            .build(engine())
            .unwrap();
        let mut prepared = solver.prepare(a).unwrap();
        prepared.solve(b).unwrap()
    };
    let one = solve(Stages::One);
    let two = solve(Stages::Two);
    let trace = one.trace.expect("one-stage trace");
    [
        digest(|w| push_vec(w, &one.x)),
        digest(|w| push_trace(w, &trace)),
        digest(|w| push_vec(w, &two.x)),
        digest(|w| {
            w.push(two.inner_traces.len() as u64);
            for (label, trace) in &two.inner_traces {
                w.push(label.len() as u64);
                w.extend(label.bytes().map(u64::from));
                push_trace(w, trace);
            }
        }),
    ]
}

/// `(n, seed, fingerprint)`.
type Pin = (usize, u64, [u64; 4]);

fn check(label: &str, pins: &[Pin], run: impl Fn(&Matrix, &[f64], u64) -> [u64; 4]) {
    for &(n, seed, want) in pins {
        let (a, b) = workload(n, seed);
        let got = run(&a, &b, seed);
        assert_eq!(
            got, want,
            "{label} n={n} seed={seed}: drifted from the golden pin (got {got:#018x?})"
        );
    }
}

#[test]
fn numeric_engine_reproduces_the_module_path() {
    #[rustfmt::skip]
    let pins: [Pin; 18] = [
        (4, 1, [0x6fc852f508135dcf, 0x4f75333479df3ccb, 0x6fc852f508135dcf, 0xcb75bcbac07fc6f7]),
        (4, 2, [0xce786d75a3b86128, 0x530cfea17001b303, 0xce786d75a3b86128, 0x36c1305065d32da3]),
        (4, 3, [0x2a96fc4492803566, 0x7246133790300581, 0x2a96fc4492803566, 0x075905f1ab7c4003]),
        (7, 1, [0xd5cd4a78eac39f2e, 0xa6f4ebc2c606b5c1, 0x501ef5e26c35c899, 0xe517e613cf60a9d8]),
        (7, 2, [0x07a916a6bffd284a, 0xf76470f1d3dd4166, 0x2e1371b5ac0df434, 0xb926849ac4658ecb]),
        (7, 3, [0xfd2b6dced3c79837, 0x79bf2a0279a65930, 0xb56f8eb63ef27402, 0x9786417ba0a6175e]),
        (8, 1, [0x2a7cf04bee5b4ed6, 0xafa840679d40bb79, 0xe874b69941c17056, 0x46cc820676c5862f]),
        (8, 2, [0x7ef83a440e7f6703, 0xb0529df6df46c83b, 0x8dbfdafce1076ed9, 0x40a7de65f3129aff]),
        (8, 3, [0x919f47b103c61a9a, 0xe129bfdd5c50fad2, 0xd5e423ecb1bcd19c, 0xb35c7b4e87b7cd83]),
        (13, 1, [0x496422c78eb37f4a, 0x7b77bf4d538e68ce, 0xdb2cccef6b0d18e8, 0xf4e69874dd078be1]),
        (13, 2, [0x8e51c25ca018bab1, 0xb60cb6aff0f8e7b5, 0x0af40472abe15e70, 0x91fcb5f6e3869c34]),
        (13, 3, [0x72dcf05f3a4ef0d4, 0x4464771ab15cdcb0, 0x01452d8cde0a3992, 0x58bdda61399414c0]),
        (16, 1, [0x57e5d399db3a7cf2, 0x82b67d735ac88efc, 0x87e23d8c80326c75, 0x8a26ee6be0e2a97e]),
        (16, 2, [0x0d634c29de1db84d, 0x32aa0d3ad8b9c8ca, 0x7d6c6d1d27ab3be7, 0xb8671a78a82fa097]),
        (16, 3, [0xcbc1beddb18fa37d, 0xf9ffe3256b7d50d6, 0xf8db7ba25da27542, 0x11e4f77c500cc3d4]),
        (20, 1, [0x8f1cd4621ff6b866, 0xbea106624d618f26, 0x85efd43d5060e411, 0xef92456e2343b990]),
        (20, 2, [0xf6ff6d9f0cb38c6d, 0xc4b905c272e07613, 0xf013942fc6f5985a, 0x1fa25e35e39cce85]),
        (20, 3, [0x9483226b74235f5c, 0xa32cacd300119bc9, 0x3dc9ef4f02a321c0, 0x4de14ac920fb4e64]),
    ];
    check("numeric", &pins, |a, b, _| {
        fingerprint(NumericEngine::new, a, b)
    });
}

#[test]
fn circuit_engine_reproduces_the_module_path() {
    #[rustfmt::skip]
    let pins: [Pin; 18] = [
        (4, 1, [0xb03cf53c8f8e4de3, 0xf9327405103bc805, 0x448faccf599bcafd, 0x03a0769c8f0b2fa2]),
        (4, 2, [0x6f27704564bac8e0, 0xe9089099958ad717, 0xfa23b0f8a5cd56d1, 0x4c76850d5508a54f]),
        (4, 3, [0x9fbf2ac73feef7ed, 0xe1b01e26d8940865, 0x7cb92158f0507f61, 0xc9b11cb83cfe1c6a]),
        (7, 1, [0x01150cced8f073c2, 0x7ba7c9ddfef711ee, 0x3ce639201ea7092b, 0xe6f315973800534b]),
        (7, 2, [0xd53d7a953e0bb541, 0x580921852aa764b1, 0x272987691e8eb842, 0x545979bf5531a2c6]),
        (7, 3, [0x57cdef9133418ca7, 0x5b512f208c24592f, 0x2a1bc460f87995c7, 0xb988a201d0d4d627]),
        (8, 1, [0x4fcfa1973d5f4173, 0x78ac934febd955b5, 0x04eebddc9f965737, 0x3ca3789713871fef]),
        (8, 2, [0xfc0aa205ff721466, 0x2dc85a7dfd675466, 0x72bd747bea750a01, 0x8b3359f430ad6792]),
        (8, 3, [0xa1f5a219ae95e5b2, 0x46065489a48a5c8c, 0xf24189c4c7fcdaca, 0x565a605be0e173b2]),
        (13, 1, [0x89dcfcc0ef594f74, 0x3e3f9d0816b355c4, 0x0c44b8f046c980e9, 0xab4330ac8111a80e]),
        (13, 2, [0x1a4fe3743ab5eb6a, 0x48f4d668026e0a13, 0x847c45b9916f9cd2, 0x49bf73a2669a4949]),
        (13, 3, [0xdd81fe2da50da544, 0x0aaf8605812ef0e8, 0x9db0e439c66bde96, 0xde52c36ff0ceb1ea]),
        (16, 1, [0xca04d2559f9305a6, 0x290d0484ea87f522, 0x509f66afa67e70c6, 0xbe7745fbc01e8154]),
        (16, 2, [0x7617d203e8ffb0d1, 0xf9fb46e54abfa6f0, 0x48b1db9db4c44fb1, 0xd58fd955aa084c20]),
        (16, 3, [0x8606297b06347a2e, 0x5aa477aa5b489bdf, 0xc5ba7a6226cc2561, 0xa19cd2ec6b89e7b3]),
        (20, 1, [0xa1e8e64474e824ed, 0x026050f39392804d, 0xd6d99e4a1f94d0cd, 0xd2d62fbd850022bd]),
        (20, 2, [0x773c6d8472172baa, 0x0972c9d9ac32395e, 0x4d7b4db8b836e1e8, 0x8160f9fdfc4a8528]),
        (20, 3, [0x3f5ed876b1ace904, 0x1641476fff19d477, 0x47d56ed9ce9d3526, 0x1d422b0dd929aad3]),
    ];
    check("circuit", &pins, |a, b, seed| {
        fingerprint(
            || CircuitEngine::new(CircuitEngineConfig::paper_variation(), seed),
            a,
            b,
        )
    });
}
