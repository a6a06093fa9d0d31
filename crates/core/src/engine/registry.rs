//! Engine selection as data: [`EngineSpec`] and the name→constructor
//! [`EngineRegistry`].

use super::{AmcEngine, CircuitEngine, CircuitEngineConfig, FixedPointEngine, NumericEngine};
use crate::{BlockAmcError, Result};

/// A serializable description of an engine backend — the value a
/// campaign cell, a config file, or a service request carries instead
/// of a concrete engine type.
///
/// [`EngineSpec::build`] is the *seedable construction* path of the
/// open backend API: spec + seed → `Box<dyn AmcEngine>`. Digital
/// backends ignore the seed (they draw nothing); the circuit backend
/// seeds its variation/fault stream with it.
#[derive(Debug, Clone, Copy, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum EngineSpec {
    /// The exact digital reference ([`NumericEngine`]).
    Numeric,
    /// `bits`-bit quantized digital solves ([`FixedPointEngine`]) — the
    /// nonideality rung between exact and full analog.
    FixedPoint {
        /// Fixed-point word length.
        bits: u32,
    },
    /// The full analog device + circuit stack ([`CircuitEngine`]).
    Circuit(CircuitEngineConfig),
}

impl EngineSpec {
    /// The backend name this spec builds (the registry key and the
    /// [`AmcEngine::name`] of the constructed engine).
    pub fn name(&self) -> &'static str {
        match self {
            EngineSpec::Numeric => "numeric",
            EngineSpec::FixedPoint { .. } => "fixed-point",
            EngineSpec::Circuit(_) => "circuit",
        }
    }

    /// The analog stack configuration, when this spec describes the
    /// circuit backend (analog cost/latency models apply only there).
    pub fn circuit(&self) -> Option<&CircuitEngineConfig> {
        match self {
            EngineSpec::Circuit(config) => Some(config),
            _ => None,
        }
    }

    /// Constructs the backend. Digital backends ignore `seed`.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::InvalidConfig`] for invalid spec parameters
    /// (out-of-range word length).
    pub fn build(&self, seed: u64) -> Result<Box<dyn AmcEngine>> {
        Ok(match self {
            EngineSpec::Numeric => Box::new(NumericEngine::new()),
            EngineSpec::FixedPoint { bits } => Box::new(FixedPointEngine::new(*bits)?),
            EngineSpec::Circuit(config) => Box::new(CircuitEngine::new(*config, seed)),
        })
    }
}

/// A seed-taking engine constructor, as stored in the registry.
pub(crate) type EngineCtor = Box<dyn Fn(u64) -> Result<Box<dyn AmcEngine>> + Send + Sync>;

/// A name → constructor registry of engine backends.
///
/// The registry is the extension point the closed `Operand` enum used
/// to block: downstream code registers a backend under a name and every
/// name-driven surface (campaign ladders, campaign files, service
/// configuration) can select it without core ever learning the type.
///
/// # Example
///
/// ```
/// use blockamc::engine::{EngineRegistry, EngineSpec, NumericEngine};
///
/// # fn main() -> Result<(), blockamc::BlockAmcError> {
/// let mut registry = EngineRegistry::builtin();
/// // Re-register a name with custom parameters …
/// registry.register_spec("fixed-point", EngineSpec::FixedPoint { bits: 12 });
/// // … or register a brand-new constructor.
/// registry.register("my-backend", |_seed| Ok(Box::new(NumericEngine::new())));
/// let mut engine = registry.build("my-backend", 7)?;
/// assert_eq!(engine.name(), "numeric");
/// # Ok(())
/// # }
/// ```
pub struct EngineRegistry {
    entries: Vec<(String, EngineCtor)>,
}

impl std::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineRegistry")
            .field("names", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Default for EngineRegistry {
    fn default() -> Self {
        Self::builtin()
    }
}

impl EngineRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        EngineRegistry {
            entries: Vec::new(),
        }
    }

    /// The registry of shipped backends, each under its
    /// [`EngineSpec::name`] with default parameters: `numeric`,
    /// `fixed-point` (8 bits), and `circuit`
    /// ([`CircuitEngineConfig::paper_variation`]).
    pub fn builtin() -> Self {
        let mut registry = Self::empty();
        registry.register_spec("numeric", EngineSpec::Numeric);
        registry.register_spec("fixed-point", EngineSpec::FixedPoint { bits: 8 });
        registry.register_spec(
            "circuit",
            EngineSpec::Circuit(CircuitEngineConfig::paper_variation()),
        );
        registry
    }

    /// Registers (or replaces) a named constructor.
    pub fn register(
        &mut self,
        name: impl Into<String>,
        ctor: impl Fn(u64) -> Result<Box<dyn AmcEngine>> + Send + Sync + 'static,
    ) {
        let name = name.into();
        self.entries.retain(|(existing, _)| *existing != name);
        self.entries.push((name, Box::new(ctor)));
    }

    /// Registers (or replaces) a name building the given spec.
    pub fn register_spec(&mut self, name: impl Into<String>, spec: EngineSpec) {
        self.register(name, move |seed| spec.build(seed));
    }

    /// The registered names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(n, _)| n.as_str())
    }

    /// Builds the backend registered under `name` with the given seed.
    ///
    /// # Errors
    ///
    /// [`BlockAmcError::UnknownEngine`] for an unregistered name;
    /// constructor failures for invalid parameters.
    pub fn build(&self, name: &str, seed: u64) -> Result<Box<dyn AmcEngine>> {
        let Some((_, ctor)) = self.entries.iter().find(|(n, _)| n == name) else {
            return Err(BlockAmcError::UnknownEngine {
                name: name.to_string(),
                known: self.names().collect::<Vec<_>>().join(", "),
            });
        };
        ctor(seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amc_linalg::Matrix;

    #[test]
    fn builtin_registry_builds_every_backend() {
        let registry = EngineRegistry::builtin();
        let names: Vec<&str> = registry.names().collect();
        assert_eq!(names, ["numeric", "fixed-point", "circuit"]);
        let a = Matrix::from_rows(&[&[2.0, 0.5], &[0.5, 1.5]]).unwrap();
        for name in names {
            let mut engine = registry.build(name, 1).unwrap();
            assert_eq!(engine.name(), name);
            let mut op = engine.program(&a).unwrap();
            let x = engine.inv(&mut op, &[1.0, 0.5]).unwrap();
            assert_eq!(x.len(), 2);
            assert!(x.iter().all(|v| v.is_finite()), "{name}");
        }
    }

    #[test]
    fn unknown_names_fail_loudly() {
        let err = EngineRegistry::builtin().build("gpu", 0).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("gpu"), "{msg}");
        assert!(msg.contains("numeric"), "known backends listed: {msg}");
    }

    #[test]
    fn registration_replaces_and_extends() {
        let mut registry = EngineRegistry::builtin();
        assert!(!registry.names().any(|n| n == "fp12"));
        registry.register_spec("fp12", EngineSpec::FixedPoint { bits: 12 });
        assert!(registry.names().any(|n| n == "fp12"));
        // Replacing keeps a single entry per name.
        registry.register_spec("fp12", EngineSpec::FixedPoint { bits: 14 });
        assert_eq!(registry.names().filter(|n| *n == "fp12").count(), 1);
    }

    #[test]
    fn spec_names_and_circuit_accessor() {
        assert_eq!(EngineSpec::Numeric.name(), "numeric");
        assert_eq!(EngineSpec::FixedPoint { bits: 8 }.name(), "fixed-point");
        let circuit = EngineSpec::Circuit(CircuitEngineConfig::ideal());
        assert_eq!(circuit.name(), "circuit");
        assert!(circuit.circuit().is_some());
        assert!(EngineSpec::Numeric.circuit().is_none());
    }

    #[test]
    fn invalid_spec_parameters_surface_at_build() {
        assert!(EngineSpec::FixedPoint { bits: 1 }.build(0).is_err());
    }
}
