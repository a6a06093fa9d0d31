//! The BlockAMC hardware macro: clock phases, reconfigurable topology,
//! and S&H pipelining (paper §III.B, Fig. 4).
//!
//! The macro holds four crossbar arrays (`A1`, `A2`, `A3`, `A4s`) and a
//! *single shared column of op-amps*. Transmission gates select one of
//! five circuit topologies per clock phase (`S0`–`S4`); each phase
//! executes one INV or MVM. Two sample-and-hold banks ping-pong between
//! "being written by this step" and "feeding the next step", which lets a
//! subsequent problem enter the macro while the previous one drains —
//! the pipelining the paper credits for the throughput improvement.

use crate::Result;

/// The five clock phases of the one-stage macro controller (Fig. 4(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ClockPhase {
    /// Phase 0 — step 1 of the algorithm.
    S0,
    /// Phase 1 — step 2.
    S1,
    /// Phase 2 — step 3.
    S2,
    /// Phase 3 — step 4.
    S3,
    /// Phase 4 — step 5.
    S4,
}

/// Which crossbar array a phase connects to the shared op-amps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArrayId {
    /// The `A1` block array.
    A1,
    /// The `A2` block array.
    A2,
    /// The `A3` block array.
    A3,
    /// The `A4s` (Schur complement) block array.
    A4s,
}

/// The operation a phase performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacroOp {
    /// Matrix inversion (feedback topology).
    Inv,
    /// Matrix-vector multiplication (TIA topology).
    Mvm,
}

/// Where a phase's input vector comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalSource {
    /// The DAC (external digital input).
    Dac,
    /// The sample-and-hold bank holding the previous step's result.
    SampleHold,
    /// Sum of DAC and S&H contributions (step 3 adds `−g` and `g_t` in
    /// the analog domain).
    DacPlusSampleHold,
}

/// Where a phase's output vector goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignalSink {
    /// The other sample-and-hold bank (analog cascade).
    SampleHold,
    /// The ADC (part of the solution leaves the macro).
    Adc,
    /// Both: the value is part of the solution *and* feeds the next step
    /// (step 3's `z`).
    AdcAndSampleHold,
}

/// One scheduled operation of the macro.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScheduledOp {
    /// The clock phase.
    pub phase: ClockPhase,
    /// INV or MVM.
    pub op: MacroOp,
    /// The array switched in by the transmission gates.
    pub array: ArrayId,
    /// Input routing.
    pub input: SignalSource,
    /// Output routing.
    pub output: SignalSink,
}

/// The one-stage macro schedule: the five topologies of Fig. 4(a) in
/// clock order.
pub fn one_stage_schedule() -> [ScheduledOp; 5] {
    [
        ScheduledOp {
            phase: ClockPhase::S0,
            op: MacroOp::Inv,
            array: ArrayId::A1,
            input: SignalSource::Dac,
            output: SignalSink::SampleHold,
        },
        ScheduledOp {
            phase: ClockPhase::S1,
            op: MacroOp::Mvm,
            array: ArrayId::A3,
            input: SignalSource::SampleHold,
            output: SignalSink::SampleHold,
        },
        ScheduledOp {
            phase: ClockPhase::S2,
            op: MacroOp::Inv,
            array: ArrayId::A4s,
            input: SignalSource::DacPlusSampleHold,
            output: SignalSink::AdcAndSampleHold,
        },
        ScheduledOp {
            phase: ClockPhase::S3,
            op: MacroOp::Mvm,
            array: ArrayId::A2,
            input: SignalSource::SampleHold,
            output: SignalSink::SampleHold,
        },
        ScheduledOp {
            phase: ClockPhase::S4,
            op: MacroOp::Inv,
            array: ArrayId::A1,
            input: SignalSource::DacPlusSampleHold,
            output: SignalSink::Adc,
        },
    ]
}

/// Timing of the macro given per-phase analog settle times and the
/// converter (DAC/ADC) conversion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MacroTiming {
    /// Clock period: the slowest phase sets it (all phases share one
    /// clock, Fig. 4(b)).
    pub cycle_s: f64,
    /// Latency of one solve (5 cycles).
    pub latency_s: f64,
    /// Throughput without S&H double-buffering: conversions serialize
    /// with the analog phases.
    pub throughput_unpipelined: f64,
    /// Throughput with the two S&H banks: conversion overlaps analog
    /// settling, so back-to-back problems are spaced by 5 analog cycles.
    pub throughput_pipelined: f64,
}

impl MacroTiming {
    /// Computes macro timing.
    ///
    /// `op_settle_s` are the five per-phase analog settle times;
    /// `conversion_s` is the DAC/ADC conversion time added on the phases
    /// that touch the digital boundary.
    ///
    /// # Errors
    ///
    /// Returns [`crate::BlockAmcError::InvalidConfig`] if any time is
    /// negative or not finite.
    pub fn from_phase_times(op_settle_s: [f64; 5], conversion_s: f64) -> Result<Self> {
        if op_settle_s
            .iter()
            .chain(std::iter::once(&conversion_s))
            .any(|t| !t.is_finite() || *t < 0.0)
        {
            return Err(crate::BlockAmcError::config(
                "phase times must be finite and non-negative",
            ));
        }
        let analog_cycle = op_settle_s.iter().copied().fold(0.0_f64, f64::max);
        let serial_cycle = analog_cycle + conversion_s;
        let cycle_s = analog_cycle;
        Ok(MacroTiming {
            cycle_s,
            latency_s: 5.0 * serial_cycle,
            throughput_unpipelined: if serial_cycle > 0.0 {
                1.0 / (5.0 * serial_cycle)
            } else {
                f64::INFINITY
            },
            throughput_pipelined: if analog_cycle > 0.0 {
                1.0 / (5.0 * analog_cycle)
            } else {
                f64::INFINITY
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_matches_algorithm_structure() {
        let s = one_stage_schedule();
        assert_eq!(s.len(), 5);
        // INV-MVM-INV-MVM-INV cadence.
        assert_eq!(s[0].op, MacroOp::Inv);
        assert_eq!(s[1].op, MacroOp::Mvm);
        assert_eq!(s[2].op, MacroOp::Inv);
        assert_eq!(s[3].op, MacroOp::Mvm);
        assert_eq!(s[4].op, MacroOp::Inv);
        // A1 used twice — first and last.
        assert_eq!(s[0].array, ArrayId::A1);
        assert_eq!(s[4].array, ArrayId::A1);
        // DAC feeds steps 1 and 3; ADC reads steps 3 and 5.
        assert_eq!(s[0].input, SignalSource::Dac);
        assert_eq!(s[2].input, SignalSource::DacPlusSampleHold);
        assert_eq!(s[2].output, SignalSink::AdcAndSampleHold);
        assert_eq!(s[4].output, SignalSink::Adc);
        // Phases are in order.
        let phases: Vec<ClockPhase> = s.iter().map(|o| o.phase).collect();
        use ClockPhase::*;
        assert_eq!(phases, vec![S0, S1, S2, S3, S4]);
    }

    #[test]
    fn each_phase_uses_one_array() {
        let s = one_stage_schedule();
        let arrays: Vec<ArrayId> = s.iter().map(|o| o.array).collect();
        assert_eq!(
            arrays,
            vec![
                ArrayId::A1,
                ArrayId::A3,
                ArrayId::A4s,
                ArrayId::A2,
                ArrayId::A1
            ]
        );
    }

    #[test]
    fn timing_cycle_is_slowest_phase() {
        let t = MacroTiming::from_phase_times([1e-6, 2e-6, 5e-6, 2e-6, 1e-6], 1e-6).unwrap();
        assert_eq!(t.cycle_s, 5e-6);
        assert!((t.latency_s - 5.0 * 6e-6).abs() < 1e-18);
    }

    #[test]
    fn pipelining_improves_throughput() {
        let t = MacroTiming::from_phase_times([1e-6; 5], 0.5e-6).unwrap();
        assert!(t.throughput_pipelined > t.throughput_unpipelined);
        // Pipelined: 1/(5·1µs) = 200k solves/s.
        assert!((t.throughput_pipelined - 2e5).abs() < 1.0);
    }

    #[test]
    fn invalid_times_rejected() {
        assert!(MacroTiming::from_phase_times([1e-6, -1.0, 0.0, 0.0, 0.0], 0.0).is_err());
        assert!(MacroTiming::from_phase_times([f64::NAN; 5], 0.0).is_err());
    }
}
