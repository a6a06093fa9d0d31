//! Golden pins of the simulator's outputs.
//!
//! Every `f64` that `AnalogSimulator::inv` / `mvm` returns — `values`,
//! `volts`, `power_w`, `settle_time_s` — is pinned to the bit pattern
//! recorded from the one-shot simulator before INV/MVM state was cached
//! per programmed array; the INV `settle_time_s` words were re-recorded
//! when the settle model's λ_min estimate moved from inverse iteration
//! to Lanczos. The vectors are pinned through an FNV-1a digest
//! of their bit patterns; on a mismatch the assertion prints the bits
//! that were computed.
//!
//! The 16×16 cases cover the simulator configurations the circuit engine
//! runs: `SimConfig::ideal()` (also the `paper_variation` engine
//! configuration's simulator), `finite_gain_only()`, the `paper_full`
//! simulator (ideal op-amps, 1 Ω series interconnect) and
//! `paper_nonideal()`. A 4×4 array pins the exact resistive-grid model.

use amc_circuit::interconnect::InterconnectModel;
use amc_circuit::opamp::OpAmpSpec;
use amc_circuit::sim::{AnalogSimulator, CircuitOutput, SimConfig};
use amc_circuit::timing::DEFAULT_SETTLE_EPSILON;
use amc_device::array::ProgrammedMatrix;
use amc_device::mapping::MappingConfig;
use amc_device::variation::VariationModel;
use amc_linalg::generate;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// A seeded `n×n` diagonally dominant matrix programmed with 5 %
/// proportional variation, plus one input vector.
fn programmed_case(n: usize, seed: u64) -> (ProgrammedMatrix, Vec<f64>) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate::diagonally_dominant(n, 1.0, &mut rng).unwrap();
    let input = generate::random_vector(n, &mut rng);
    let p = ProgrammedMatrix::program(
        &a,
        &MappingConfig::paper_default(),
        &VariationModel::Proportional { sigma_rel: 0.05 },
        &mut rng,
    )
    .unwrap();
    (p, input)
}

fn fnv1a(words: impl Iterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Bit-level fingerprint of one output:
/// `[digest(values ++ volts), power_w, settle_time_s]`.
fn fingerprint(out: &CircuitOutput) -> [u64; 3] {
    let bits = out.values.iter().chain(&out.volts).map(|v| v.to_bits());
    [
        fnv1a(bits),
        out.power_w.to_bits(),
        out.settle_time_s.to_bits(),
    ]
}

fn assert_pinned(label: &str, out: &CircuitOutput, want: [u64; 3]) {
    let got = fingerprint(out);
    assert_eq!(
        got,
        want,
        "{label}: output drifted from the golden pin\n  values = {:x?}\n  volts = {:x?}",
        out.values.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        out.volts.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
}

/// `(label, config, inv pin, mvm pin)`.
type Case = (&'static str, SimConfig, [u64; 3], [u64; 3]);

fn cases_16() -> Vec<Case> {
    let paper_full = SimConfig {
        opamp: OpAmpSpec::ideal(),
        interconnect: InterconnectModel::paper_default(),
        check_saturation: false,
        settle_epsilon: DEFAULT_SETTLE_EPSILON,
    };
    vec![
        (
            "ideal",
            SimConfig::ideal(),
            [0x4c92b9036664ff78, 0x3f5c110f619345db, 0x3e8958eb422bec03],
            [0x6c278c6ee6011084, 0x3f54c0c05d2a65b9, 0x3e958ae4b8087d46],
        ),
        (
            "finite_gain_only",
            SimConfig::finite_gain_only(),
            [0xc5d0a79f56fd53b7, 0x3f5c10352bf0291f, 0x3e8958eb422bec03],
            [0x32b6fb719954b512, 0x3f54c0017a1f5d71, 0x3e958ae4b8087d46],
        ),
        (
            "paper_full",
            paper_full,
            [0x16b57c373c5dc616, 0x3f5c19067565174f, 0x3e896178b3b7710a],
            [0x2071268464b36471, 0x3f54bacfd9a3413d, 0x3e958783c60664f5],
        ),
        (
            "paper_nonideal",
            SimConfig::paper_nonideal(),
            [0x27763df9d9f9942b, 0x3f5c182ba7019147, 0x3e896178b3b7710a],
            [0x43e6f94a476bf690, 0x3f54ba1188dcc049, 0x3e958783c60664f5],
        ),
    ]
}

#[test]
fn simulator_outputs_match_golden_bits_16x16() {
    let (p, input) = programmed_case(16, 2024);
    for (label, config, inv_pin, mvm_pin) in cases_16() {
        let sim = AnalogSimulator::new(config);
        let inv = sim.inv(&p, &input).unwrap();
        let mvm = sim.mvm(&p, &input).unwrap();
        assert_pinned(&format!("{label} inv"), &inv, inv_pin);
        assert_pinned(&format!("{label} mvm"), &mvm, mvm_pin);
    }
}

#[test]
fn exact_grid_outputs_match_golden_bits_4x4() {
    let (p, input) = programmed_case(4, 7);
    let mut config = SimConfig::ideal();
    config.interconnect = InterconnectModel::ExactGrid { r_segment: 1.0 };
    let sim = AnalogSimulator::new(config);
    let inv = sim.inv(&p, &input).unwrap();
    let mvm = sim.mvm(&p, &input).unwrap();
    assert_pinned(
        "exact_grid inv",
        &inv,
        [0x8721f2bbf43f6522, 0x3f3f720d1dc204ea, 0x3e8c1c593e3dcb76],
    );
    assert_pinned(
        "exact_grid mvm",
        &mvm,
        [0x98c085b1a638017a, 0x3f2a4922a40b39fc, 0x3e93ffee85662c36],
    );
}
