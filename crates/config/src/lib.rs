//! The workspace (de)serialization subsystem: a JSON value model, a
//! strict parser, and the [`ToConfig`] / [`FromConfig`] traits that
//! campaign files, engine specs, and solver configs go through.
//!
//! This crate is std-only and dependency-free. The vendored `serde`
//! facade re-exports everything here and its derive macros emit impls
//! of these traits, so the workspace-wide
//! `#[cfg_attr(feature = "serde", derive(Serialize, Deserialize))]`
//! attribute surface is the way most types participate.
//!
//! # The on-disk format
//!
//! Config files are strict JSON, pretty-printed by [`Json::render`]
//! with 2-space indentation and a trailing newline. The mapping from
//! Rust types is:
//!
//! - **structs** → objects keyed by field name, fields in declaration
//!   order: `{"bits": 8, "v_range": 1.0}`;
//! - **enums** → externally tagged: a unit variant is its name as a
//!   string (`"Halves"`), a variant with a payload is a single-key
//!   object (`{"FixedPoint": {"bits": 8}}`,
//!   `{"Searched": {"imbalance_weight": 1.0}}`);
//! - **`Option<T>`** struct fields → omitted when `None` (an explicit
//!   `null` also decodes as `None`);
//! - **numbers** → integers render without a decimal point; `f64`s
//!   render in shortest-round-trip form (always carrying a `.` or an
//!   exponent), and parse back to identical bits. Non-finite floats
//!   render as `null`, and the `f64` encoder stores them as
//!   [`Json::Null`] up front so the in-memory value agrees.
//!
//! # Strictness
//!
//! [`Json::parse`] rejects duplicate keys, trailing garbage, nesting
//! past `Json::MAX_DEPTH`, malformed numbers and escapes — each with
//! the offending line/column ([`ParseError`]). Decoding rejects
//! unknown fields, missing fields, and unknown variant tags with
//! errors that name the offender, list the known alternatives, and
//! carry the path from the document root ([`ConfigError`]), so a
//! misspelled key deep inside a campaign file is reported where it
//! sits. Domain validation stays with the owning types: decoded specs
//! are re-validated through their builders (`SolverConfig::builder()`,
//! `EngineSpec::build`) before use.
//!
//! ```
//! use amc_config::{FromConfig, Json, ToConfig};
//!
//! let value = Json::parse("{\n  \"threshold\": 0.5,\n  \"retries\": 3\n}").unwrap();
//! assert_eq!(value.render(), "{\n  \"threshold\": 0.5,\n  \"retries\": 3\n}\n");
//! let retries = amc_config::decode::fields(&value, "Example", &["threshold", "retries"])
//!     .and_then(|f| f.required::<usize>("retries"))
//!     .unwrap();
//! assert_eq!(retries, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
mod error;
mod parse;
mod traits;
mod value;

pub use error::{ConfigError, ParseError};
pub use traits::{FromConfig, ToConfig};
pub use value::{write_json, Json};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip_through_text() {
        for (text, value) in [
            ("null\n", Json::Null),
            ("true\n", Json::Bool(true)),
            ("false\n", Json::Bool(false)),
            ("0\n", Json::Int(0)),
            ("-3\n", Json::Int(-3)),
            ("9223372036854775807\n", Json::Int(i64::MAX)),
            ("-9223372036854775808\n", Json::Int(i64::MIN)),
            (
                "9223372036854775808\n",
                Json::UInt(9_223_372_036_854_775_808),
            ),
            ("18446744073709551615\n", Json::UInt(u64::MAX)),
            ("0.5\n", Json::Num(0.5)),
            ("1e-9\n", Json::Num(1e-9)),
            ("\"hi\"\n", Json::Str("hi".to_string())),
        ] {
            let parsed = Json::parse(text).unwrap();
            assert_eq!(parsed, value, "{text:?}");
            assert_eq!(parsed.render(), text, "{text:?}");
        }
    }

    #[test]
    fn floats_parse_back_to_identical_bits() {
        for x in [
            0.1,
            1.0 / 3.0,
            6.02e23,
            -1.6e-19,
            f64::MIN_POSITIVE,
            f64::MAX,
            -f64::MAX,
            5e-324,
        ] {
            let rendered = Json::Num(x).render();
            let Json::Num(back) = Json::parse(&rendered).unwrap() else {
                panic!("{rendered:?} did not parse as Num");
            };
            assert_eq!(back.to_bits(), x.to_bits(), "{rendered:?}");
        }
    }

    #[test]
    fn nested_structures_round_trip() {
        let value = Json::obj([
            ("name", Json::from("depth sweep")),
            ("trials", Json::Int(10)),
            ("weights", Json::Arr(vec![Json::Num(0.25), Json::Num(1e-3)])),
            ("empty_arr", Json::Arr(vec![])),
            ("empty_obj", Json::Obj(vec![])),
            ("nested", Json::obj([("flag", Json::Bool(false))])),
            ("nothing", Json::Null),
        ]);
        let text = value.render();
        assert_eq!(Json::parse(&text).unwrap(), value);
        // Render→parse→render is a fixed point (format stability).
        assert_eq!(Json::parse(&text).unwrap().render(), text);
    }

    #[test]
    fn strings_with_escapes_round_trip() {
        for s in [
            "plain",
            "quote \" backslash \\ slash /",
            "newline\ntab\tcr\r",
            "control \u{1} \u{1f}",
            "unicode é ☃ 𝄞",
            "",
        ] {
            let value = Json::Str(s.to_string());
            assert_eq!(Json::parse(&value.render()).unwrap(), value, "{s:?}");
        }
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_decode() {
        assert_eq!(
            Json::parse("\"\\u0041\\u00e9\\u2603\"").unwrap(),
            Json::Str("Aé☃".to_string())
        );
        // 𝄞 (U+1D11E) as a surrogate pair.
        assert_eq!(
            Json::parse("\"\\ud834\\udd1e\"").unwrap(),
            Json::Str("𝄞".to_string())
        );
        assert!(Json::parse("\"\\ud834\"").is_err(), "lone high surrogate");
        assert!(Json::parse("\"\\udd1e\"").is_err(), "lone low surrogate");
        assert!(Json::parse("\"\\ud834\\u0041\"").is_err(), "bad pair");
    }

    #[test]
    fn json_num_normalizes_non_finite_to_null() {
        // Satellite pin: the emitter renders non-finite Num as null;
        // Json::num normalizes at construction so parse(render(x))
        // is total on everything built through it.
        assert_eq!(Json::num(f64::NAN), Json::Null);
        assert_eq!(Json::num(f64::INFINITY), Json::Null);
        assert_eq!(Json::num(f64::NEG_INFINITY), Json::Null);
        assert_eq!(Json::num(0.5), Json::Num(0.5));
        assert_eq!(Json::from(f64::NAN), Json::Null);
        assert_eq!(Json::from(Some(f64::NAN)), Json::Null);
        // The raw variant still renders null (legacy constructors), and
        // that rendering parses back to the normalized value.
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(
            Json::parse(&Json::Num(f64::NAN).render()).unwrap(),
            Json::num(f64::NAN)
        );
    }

    #[test]
    fn duplicate_keys_are_rejected_with_position() {
        let err = Json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}").unwrap_err();
        assert_eq!((err.line, err.column), (3, 3));
        assert!(err.message.contains("duplicate key"), "{err}");
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let err = Json::parse("{} x").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("null null").is_err());
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep_ok = format!("{}0{}", "[".repeat(127), "]".repeat(127));
        assert!(Json::parse(&deep_ok).is_ok());
        let too_deep = format!("{}0{}", "[".repeat(200), "]".repeat(200));
        let err = Json::parse(&too_deep).unwrap_err();
        assert!(err.message.contains("depth"), "{err}");
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for text in [
            "01",
            "-",
            "1.",
            ".5",
            "1e",
            "1e+",
            "+1",
            "NaN",
            "Infinity",
            "0x10",
            "1.2.3",
            "--1",
            "1e999",
            "18446744073709551616",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn malformed_structure_is_rejected() {
        for text in [
            "",
            " ",
            "{",
            "}",
            "[",
            "]",
            "[1,",
            "[1,]",
            "{\"a\"}",
            "{\"a\":}",
            "{\"a\":1,}",
            "{a: 1}",
            "{\"a\" 1}",
            "tru",
            "nul",
            "\"open",
            "\"bad \\q escape\"",
            "\"ctrl \u{1}\"",
            "\"\\u12\"",
            "[1 2]",
        ] {
            assert!(Json::parse(text).is_err(), "{text:?} should not parse");
        }
    }

    #[test]
    fn parse_errors_carry_line_and_column() {
        let err = Json::parse("{\n  \"a\": tru\n}").unwrap_err();
        assert_eq!((err.line, err.column), (2, 8));
        let rendered = err.to_string();
        assert!(rendered.contains("line 2"), "{rendered}");
        assert!(rendered.contains("column 8"), "{rendered}");
    }

    #[test]
    fn every_truncation_of_a_rendered_document_errors_cleanly() {
        // Mirror of the wire codec's truncation-fuzz suite: no prefix
        // of a valid document may parse, and none may panic.
        let value = Json::obj([
            ("name", Json::from("fuzz")),
            (
                "xs",
                Json::Arr(vec![Json::Num(0.5), Json::Int(-2), Json::Null]),
            ),
            ("nested", Json::obj([("s", Json::from("a\"b\\c\n𝄞"))])),
        ]);
        let text = value.render();
        let full = text.trim_end();
        for cut in 0..full.len() {
            if !full.is_char_boundary(cut) {
                continue;
            }
            assert!(
                Json::parse(&full[..cut]).is_err(),
                "prefix of length {cut} unexpectedly parsed"
            );
        }
        assert_eq!(Json::parse(full).unwrap(), value);
    }

    #[test]
    fn byte_noise_never_panics_the_parser() {
        // Deterministic xorshift noise over ASCII-ish documents.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let base = Json::obj([("k", Json::Arr(vec![Json::Int(1), Json::Num(2.5)]))]).render();
        for _ in 0..500 {
            let mut bytes = base.clone().into_bytes();
            let flips = (next() % 4) as usize + 1;
            for _ in 0..flips {
                let i = (next() as usize) % bytes.len();
                bytes[i] = (next() % 128) as u8;
            }
            if let Ok(text) = String::from_utf8(bytes) {
                let _ = Json::parse(&text);
            }
        }
    }

    #[test]
    fn primitive_decode_and_field_records() {
        let value = Json::parse("{\"count\": 3, \"scale\": 2.0, \"on\": true}").unwrap();
        let f = decode::fields(&value, "Demo", &["count", "scale", "on", "label"]).unwrap();
        assert_eq!(f.required::<usize>("count").unwrap(), 3);
        assert_eq!(f.required::<f64>("scale").unwrap(), 2.0);
        assert!(f.required::<bool>("on").unwrap());
        assert_eq!(f.optional::<String>("label").unwrap(), None);
        let missing = f.required::<String>("label").unwrap_err();
        assert!(missing.to_string().contains("label"), "{missing}");
    }

    #[test]
    fn unknown_fields_name_the_offender_and_list_known() {
        let value = Json::parse("{\"bitz\": 8}").unwrap();
        let err = decode::fields(&value, "Converter", &["bits", "v_range"]).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("bitz"), "{msg}");
        assert!(msg.contains("bits, v_range"), "{msg}");
        assert!(msg.contains("Converter"), "{msg}");
    }

    #[test]
    fn variant_dispatch_handles_all_shapes() {
        let unit = Json::parse("\"Halves\"").unwrap();
        assert_eq!(
            decode::variant(&unit, "SplitRule").unwrap(),
            ("Halves", None)
        );
        let tagged = Json::parse("{\"FixedPoint\": {\"bits\": 8}}").unwrap();
        let (tag, payload) = decode::variant(&tagged, "EngineSpec").unwrap();
        assert_eq!(tag, "FixedPoint");
        assert!(payload.is_some());
        let two_keys = Json::parse("{\"A\": 1, \"B\": 2}").unwrap();
        assert!(decode::variant(&two_keys, "E").is_err());
        assert!(decode::variant(&Json::Int(1), "E").is_err());
        assert!(decode::expect_unit(payload, "EngineSpec", "Numeric").is_err());
        assert!(decode::expect_payload(None, "EngineSpec", "FixedPoint").is_err());
        let unknown = decode::unknown_variant("EngineSpec", "Gpu", &["Numeric", "FixedPoint"]);
        let msg = unknown.to_string();
        assert!(
            msg.contains("Gpu") && msg.contains("Numeric, FixedPoint"),
            "{msg}"
        );
    }

    #[test]
    fn error_paths_compose_through_nesting() {
        let value =
            Json::parse("{\"solvers\": [{\"label\": \"d1\", \"weight\": \"heavy\"}]}").unwrap();
        let outer = decode::fields(&value, "Campaign", &["solvers"]).unwrap();
        let solvers = outer.get("solvers").unwrap();
        let Json::Arr(items) = solvers else { panic!() };
        let err = decode::fields(&items[0], "Solver", &["label", "weight"])
            .and_then(|f| f.required::<f64>("weight"))
            .map_err(|e| e.at_index(0).at("solvers"))
            .unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("solvers[0].weight"), "{msg}");
    }

    #[test]
    fn integer_range_checks_apply() {
        assert!(u32::from_json(&Json::Int(-1)).is_err());
        assert!(u8::from_json(&Json::Int(256)).is_err());
        assert_eq!(u64::from_json(&Json::UInt(u64::MAX)).unwrap(), u64::MAX);
        assert!(i64::from_json(&Json::UInt(u64::MAX)).is_err());
        assert!(usize::from_json(&Json::Num(1.5)).is_err());
        // Round-trip across the ToConfig/FromConfig pair.
        assert_eq!(u64::from_json(&u64::MAX.to_json()).unwrap(), u64::MAX);
        assert_eq!(i64::from_json(&(-7i64).to_json()).unwrap(), -7);
    }

    #[test]
    fn option_encodes_null_and_decodes_absent_or_null() {
        assert_eq!(None::<f64>.to_json(), Json::Null);
        assert_eq!(Some(0.5f64).to_json(), Json::Num(0.5));
        assert_eq!(Option::<f64>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(
            Option::<f64>::from_json(&Json::Num(0.5)).unwrap(),
            Some(0.5)
        );
    }
}
