//! Campaigns-as-files integration tests: the committed `campaigns/*.json`
//! specs, the `amc-config` (de)serialization layer, and the wire codec
//! all have to agree.
//!
//! * Property tests: `EngineSpec`, `SolverConfig`, and `CampaignSpec`
//!   survive a JSON round trip exactly.
//! * The four committed campaign files lower to campaigns *equal* to
//!   their in-code twins (both `--quick` variants), re-render to the
//!   exact committed bytes (format stability), and — run end to end —
//!   produce bit-identical reports at any worker count.
//! * A `SolverConfig` decoded from JSON encodes to the same canonical
//!   `amc-serve` wire bytes as its in-code twin, so file-born configs
//!   hit the same server cache keys.

use amc_scenario::campaigns;
use amc_scenario::spec::{CampaignFile, CampaignSpec, EngineSelSpec, RungSpec, SolverSpec};
use amc_scenario::workload::{WorkloadFamily, WorkloadSpec};
use amc_scenario::Campaign;
use blockamc::converter::IoConfig;
use blockamc::engine::{EngineRegistry, EngineSpec};
use blockamc::solver::{SolverConfig, SplitRule, SplitSearchOptions, Stages};
use proptest::prelude::*;
use serde::{FromConfig, Json, ToConfig};

fn roundtrip<T>(value: &T)
where
    T: ToConfig + FromConfig + PartialEq + std::fmt::Debug,
{
    let text = value.to_json().render();
    let parsed = Json::parse(&text).unwrap_or_else(|e| panic!("reparse of {text}: {e}"));
    let back = T::from_json(&parsed).unwrap_or_else(|e| panic!("decode of {text}: {e}"));
    assert_eq!(&back, value, "round trip changed the value:\n{text}");
}

fn engine_spec_strategy() -> impl Strategy<Value = EngineSpec> {
    use blockamc::engine::CircuitEngineConfig;
    (0usize..5, 2u32..=24).prop_map(|(variant, bits)| match variant {
        0 => EngineSpec::Numeric,
        1 => EngineSpec::FixedPoint { bits },
        2 => EngineSpec::Circuit(CircuitEngineConfig::ideal_mapping()),
        3 => EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
        _ => EngineSpec::Circuit(CircuitEngineConfig::paper_full()),
    })
}

fn io_strategy() -> impl Strategy<Value = IoConfig> {
    (0usize..3, 0.0..0.05f64).prop_map(|(variant, sh_droop)| match variant {
        0 => IoConfig::ideal(),
        1 => IoConfig::default_8bit(),
        _ => IoConfig {
            sh_droop,
            ..IoConfig::ideal()
        },
    })
}

fn solver_config_strategy() -> impl Strategy<Value = SolverConfig> {
    (
        0usize..4,
        1usize..=4,
        io_strategy(),
        0.0..4.0f64,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(variant, depth, io, imbalance_weight, searched, trace)| {
            let stages = match variant {
                0 => Stages::Original,
                1 => Stages::One,
                2 => Stages::Two,
                _ => Stages::Multi(depth),
            };
            let split = if searched {
                SplitRule::Searched(SplitSearchOptions { imbalance_weight })
            } else {
                SplitRule::Halves
            };
            SolverConfig::builder()
                .stages(stages)
                .io(io)
                .split_rule(split)
                .capture_trace(trace)
                .finish()
                .expect("builder-constructed configs are valid")
        })
}

fn campaign_spec_strategy() -> impl Strategy<Value = CampaignSpec> {
    let workload = (any::<bool>(), 8usize..=32, any::<u64>()).prop_map(|(wishart, n, seed)| {
        if wishart {
            WorkloadSpec::new("wishart", WorkloadFamily::Wishart, n, seed)
        } else {
            WorkloadSpec::new("poisson", WorkloadFamily::Poisson2d, n, seed)
        }
    });
    let rung =
        (any::<bool>(), engine_spec_strategy(), 0usize..3).prop_map(|(inline, spec, name)| {
            if inline {
                EngineSelSpec::Spec(spec)
            } else {
                EngineSelSpec::Registered(["numeric", "fixed-point", "circuit"][name].to_string())
            }
        });
    (
        (0usize..1000, proptest::collection::vec(workload, 1..=2)),
        proptest::collection::vec(solver_config_strategy(), 1..=2),
        proptest::collection::vec(rung, 1..=2),
        (1usize..=4, 1usize..=2, 1usize..=4),
        any::<u64>(),
    )
        .prop_map(
            |((name, workloads), configs, rungs, (trials, rhs_per_trial, workers), seed)| {
                CampaignSpec {
                    name: format!("campaign-{name}"),
                    workloads,
                    solvers: configs
                        .into_iter()
                        .enumerate()
                        .map(|(k, config)| SolverSpec {
                            label: format!("solver-{k}"),
                            config,
                        })
                        .collect(),
                    ladder: rungs
                        .into_iter()
                        .enumerate()
                        .map(|(k, engine)| RungSpec {
                            label: format!("rung-{k}"),
                            engine,
                        })
                        .collect(),
                    trials,
                    rhs_per_trial,
                    workers,
                    seed,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_specs_round_trip(spec in engine_spec_strategy()) {
        roundtrip(&spec);
    }

    #[test]
    fn solver_configs_round_trip(config in solver_config_strategy()) {
        roundtrip(&config);
    }

    #[test]
    fn campaign_specs_round_trip(spec in campaign_spec_strategy()) {
        roundtrip(&spec);
    }

    #[test]
    fn json_decoded_solver_configs_hit_the_same_wire_bytes(
        config in solver_config_strategy()
    ) {
        // The serve cache keys on the canonical wire encoding; a config
        // that went to disk and back must key identically.
        let text = config.to_json().render();
        let decoded = SolverConfig::from_json(&Json::parse(&text).unwrap()).unwrap();
        prop_assert_eq!(
            amc_serve::wire::config_bytes(&decoded),
            amc_serve::wire::config_bytes(&config)
        );
    }

    #[test]
    fn campaign_specs_lower_losslessly(spec in campaign_spec_strategy()) {
        // lower() then from_campaign() must capture the identical spec
        // (the builder adds nothing and drops nothing).
        let campaign = spec.lower(EngineRegistry::builtin()).unwrap();
        prop_assert_eq!(CampaignSpec::from_campaign(&campaign), spec);
    }
}

#[test]
fn retired_blocked_engine_spec_is_an_unknown_variant() {
    // `Blocked` was bit-identical to `Numeric` and has been removed; a
    // file still naming it fails with the typed unknown-variant error.
    let err =
        EngineSpec::from_json(&Json::parse(r#"{"Blocked":{"block":32}}"#).unwrap()).unwrap_err();
    let serde::ConfigError::UnknownVariant {
        ty, variant, known, ..
    } = &err
    else {
        panic!("expected an unknown-variant error, got {err}");
    };
    assert_eq!((*ty, variant.as_str()), ("EngineSpec", "Blocked"));
    for tag in ["Numeric", "FixedPoint", "Circuit"] {
        assert!(known.contains(tag), "{tag} missing from {known}");
    }
}

/// An in-code campaign constructor taking the `quick` flag.
type CampaignCtor = fn(bool) -> amc_scenario::Result<Campaign>;

/// The three shipped campaign files paired with their in-code
/// constructors.
fn shipped() -> [(&'static str, CampaignCtor); 3] {
    [
        ("depth_sweep", campaigns::depth_sweep),
        ("split_rule", campaigns::split_rule_study),
        ("engine_ladder", campaigns::engine_ladder),
    ]
}

fn campaign_path(name: &str) -> String {
    format!("{}/campaigns/{name}.json", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn shipped_campaign_files_match_their_in_code_twins() {
    for (name, ctor) in shipped() {
        let file = CampaignFile::load(campaign_path(name)).expect(name);
        for quick in [true, false] {
            let from_file = file
                .select(quick)
                .lower(EngineRegistry::builtin())
                .expect(name);
            let in_code = ctor(quick).expect(name);
            assert_eq!(from_file, in_code, "{name} (quick: {quick})");
        }
    }
}

#[test]
fn shipped_campaign_files_rerender_byte_identically() {
    // Format stability: parse -> decode -> re-render reproduces the
    // committed bytes exactly, so `repro export-campaigns` is
    // idempotent and diffs stay meaningful.
    for (name, _) in shipped() {
        let committed = std::fs::read_to_string(campaign_path(name)).expect(name);
        let file = CampaignFile::from_json_str(&committed).expect(name);
        assert_eq!(file.render(), committed, "{name} drifted");
    }
}

#[test]
fn file_loaded_campaign_reports_are_bit_identical() {
    // End to end: the committed engine-ladder file, run at several
    // worker counts, reproduces the in-code campaign's report exactly.
    let in_code = campaigns::engine_ladder(true)
        .expect("in-code campaign")
        .run()
        .expect("in-code run");
    let file = CampaignFile::load(campaign_path("engine_ladder")).expect("load");
    let campaign = file
        .select(true)
        .lower(EngineRegistry::builtin())
        .expect("lower");
    for workers in [1usize, 3] {
        let report = campaign.run_with_workers(workers).expect("file-loaded run");
        assert_eq!(report, in_code, "diverged at {workers} worker(s)");
    }
}

#[test]
fn campaign_spec_format_is_pinned() {
    // The golden pin of the on-disk format: field names, enum tagging,
    // Option omission, and number forms. Changing any of these breaks
    // committed campaign files — this test is the tripwire.
    let spec = CampaignSpec {
        name: "pin".to_string(),
        workloads: vec![WorkloadSpec::new("wishart", WorkloadFamily::Wishart, 16, 3)],
        solvers: vec![SolverSpec {
            label: "searched".to_string(),
            config: SolverConfig::builder()
                .stages(Stages::Multi(2))
                .split_rule(SplitRule::Searched(SplitSearchOptions {
                    imbalance_weight: 0.25,
                }))
                .capture_trace(false)
                .finish()
                .unwrap(),
        }],
        ladder: vec![RungSpec {
            label: "fixed-8".to_string(),
            engine: EngineSelSpec::Spec(EngineSpec::FixedPoint { bits: 8 }),
        }],
        trials: 2,
        rhs_per_trial: 1,
        workers: 1,
        seed: 9,
    };
    let expected = r#"{
  "name": "pin",
  "workloads": [
    {
      "name": "wishart",
      "family": "Wishart",
      "n": 16,
      "seed": 3
    }
  ],
  "solvers": [
    {
      "label": "searched",
      "config": {
        "stages": {
          "Multi": 2
        },
        "signal_plan": {
          "levels": [
            {
              "Bus": {
                "sh_droop": 0.0
              }
            },
            {
              "Macro": {
                "sh_droop": 0.0
              }
            }
          ]
        },
        "split_rule": {
          "Searched": {
            "imbalance_weight": 0.25
          }
        },
        "capture_trace": false
      }
    }
  ],
  "ladder": [
    {
      "label": "fixed-8",
      "engine": {
        "Spec": {
          "FixedPoint": {
            "bits": 8
          }
        }
      }
    }
  ],
  "trials": 2,
  "rhs_per_trial": 1,
  "workers": 1,
  "seed": 9
}
"#;
    assert_eq!(spec.to_json().render(), expected);
    assert_eq!(
        CampaignSpec::from_json(&Json::parse(expected).unwrap()).unwrap(),
        spec
    );
}

#[test]
fn misspelled_fields_in_a_committed_file_are_reported_by_name() {
    let committed = std::fs::read_to_string(campaign_path("engine_ladder")).expect("read");
    let misspelled = committed.replacen("\"rhs_per_trial\"", "\"rhs_per_trail\"", 1);
    let err = CampaignFile::from_json_str(&misspelled).unwrap_err();
    let msg = err.to_string();
    assert!(
        msg.contains("rhs_per_trail") && msg.contains("rhs_per_trial"),
        "error should name the bad field and list the known ones: {msg}"
    );
}

#[test]
fn decode_rejects_what_the_builder_rejects() {
    // File-loaded SolverConfigs pass through SolverConfig::builder, so
    // a config no builder call could produce cannot enter through a
    // file either.
    let text = r#"{
  "stages": {
    "Multi": 0
  },
  "signal_plan": {
    "levels": []
  },
  "split_rule": "Halves",
  "capture_trace": false
}"#;
    let err = SolverConfig::from_json(&Json::parse(text).unwrap()).unwrap_err();
    assert!(err.to_string().contains("Multi(0)"), "{err}");
}
