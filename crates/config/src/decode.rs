//! Decode helpers shared by the derive macro and hand-written
//! [`FromConfig`] impls: strict field records and
//! externally-tagged enum dispatch.

use crate::error::ConfigError;
use crate::traits::FromConfig;
use crate::value::Json;

/// Validates that `value` is an object whose keys are a subset of
/// `known` (no duplicates), and returns a field accessor.
///
/// `ty` names the Rust type being decoded and appears in every error.
///
/// # Errors
///
/// [`ConfigError::Type`] when `value` is not an object;
/// [`ConfigError::UnknownField`] naming the offending key and listing
/// the known ones; [`ConfigError::Invalid`] on duplicate keys (the
/// strict parser already rejects those, but values can also be built
/// in memory).
pub fn fields<'a>(
    value: &'a Json,
    ty: &'static str,
    known: &'static [&'static str],
) -> Result<Fields<'a>, ConfigError> {
    let Json::Obj(pairs) = value else {
        return Err(ConfigError::mismatch(format!("an object ({ty})"), value));
    };
    for (i, (key, _)) in pairs.iter().enumerate() {
        if !known.contains(&key.as_str()) {
            return Err(ConfigError::UnknownField {
                path: String::new(),
                ty,
                field: key.clone(),
                known: known.join(", "),
            });
        }
        if pairs[..i].iter().any(|(k, _)| k == key) {
            return Err(ConfigError::invalid(format!(
                "duplicate field `{key}` for {ty}"
            )));
        }
    }
    Ok(Fields { ty, pairs })
}

/// A validated view of an object's fields (see [`fields`]).
#[derive(Debug)]
pub struct Fields<'a> {
    ty: &'static str,
    pairs: &'a [(String, Json)],
}

impl Fields<'_> {
    /// The raw value of field `name`, if present.
    pub(crate) fn get(&self, name: &str) -> Option<&Json> {
        self.pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }

    /// Decodes required field `name`.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Missing`] when absent; decode errors are prefixed
    /// with the field name.
    pub fn required<T: FromConfig>(&self, name: &'static str) -> Result<T, ConfigError> {
        match self.get(name) {
            Some(value) => T::from_json(value).map_err(|e| e.at(name)),
            None => Err(ConfigError::Missing {
                path: String::new(),
                ty: self.ty,
                field: name,
            }),
        }
    }

    /// Decodes optional field `name`: absent or `null` is `None`.
    ///
    /// # Errors
    ///
    /// Decode errors for a present non-null value, prefixed with the
    /// field name.
    pub fn optional<T: FromConfig>(&self, name: &'static str) -> Result<Option<T>, ConfigError> {
        match self.get(name) {
            None | Some(Json::Null) => Ok(None),
            Some(value) => T::from_json(value).map(Some).map_err(|e| e.at(name)),
        }
    }
}

/// Splits an externally-tagged enum value into `(tag, payload)`: a
/// string is a unit-variant tag with no payload; a single-key object is
/// a tag with a payload.
///
/// # Errors
///
/// [`ConfigError`] when `value` is neither form.
pub fn variant<'a>(
    value: &'a Json,
    ty: &'static str,
) -> Result<(&'a str, Option<&'a Json>), ConfigError> {
    match value {
        Json::Str(tag) => Ok((tag.as_str(), None)),
        Json::Obj(pairs) if pairs.len() == 1 => Ok((pairs[0].0.as_str(), Some(&pairs[0].1))),
        Json::Obj(_) => Err(ConfigError::invalid(format!(
            "a {ty} variant with a payload must be a single-key object"
        ))),
        other => Err(ConfigError::mismatch(
            format!("a string or single-key object ({ty} variant)"),
            other,
        )),
    }
}

/// Asserts that unit variant `ty::tag` came without a payload.
///
/// # Errors
///
/// [`ConfigError::Invalid`] when a payload is present.
pub fn expect_unit(
    payload: Option<&Json>,
    ty: &'static str,
    tag: &'static str,
) -> Result<(), ConfigError> {
    match payload {
        None => Ok(()),
        Some(_) => Err(ConfigError::invalid(format!(
            "{ty} variant `{tag}` takes no payload; write it as the string \"{tag}\""
        ))),
    }
}

/// Extracts the payload of non-unit variant `ty::tag`.
///
/// # Errors
///
/// [`ConfigError::Invalid`] when the variant was written as a bare
/// string.
pub fn expect_payload<'a>(
    payload: Option<&'a Json>,
    ty: &'static str,
    tag: &'static str,
) -> Result<&'a Json, ConfigError> {
    payload.ok_or_else(|| {
        ConfigError::invalid(format!(
            "{ty} variant `{tag}` requires a payload: {{\"{tag}\": …}}"
        ))
    })
}

/// An unknown-variant error listing the known tags, mirroring the
/// engine registry's `UnknownEngine` style.
pub fn unknown_variant(ty: &'static str, tag: &str, known: &'static [&'static str]) -> ConfigError {
    ConfigError::UnknownVariant {
        path: String::new(),
        ty,
        variant: tag.to_string(),
        known: known.join(", "),
    }
}
