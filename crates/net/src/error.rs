//! Typed configuration errors.
//!
//! Topology constructors and the CLI used to abort on bad input via
//! `assert!`/`panic!`; they now return a [`ConfigError`] so callers can
//! print a message and exit cleanly.

use std::fmt;

/// A rejected configuration value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A ring spec with no levels (empty string or no numbers).
    EmptyRingSpec,
    /// A ring spec deeper than the simulator supports.
    TooManyRingLevels {
        /// Levels requested.
        levels: usize,
        /// Maximum supported depth.
        max: usize,
    },
    /// A ring level with zero arity.
    ZeroRingArity {
        /// Zero-based index of the offending level.
        level: usize,
    },
    /// A ring spec string that failed to parse.
    BadRingSpec {
        /// The offending spec text.
        spec: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A mesh with side length zero.
    ZeroMeshSide,
    /// A PM count that is not a perfect square (mesh networks are k×k).
    NonSquareMesh {
        /// The PM count requested.
        pms: u32,
    },
    /// A topology whose PM count overflows `u32` or exceeds the
    /// simulator-wide cap (`ringmesh_net::MAX_PMS`).
    TooManyPms {
        /// The cap that was exceeded.
        max: u32,
    },
    /// Any other invalid parameter.
    Invalid(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyRingSpec => write!(f, "ring spec must name at least one level"),
            ConfigError::TooManyRingLevels { levels, max } => {
                write!(f, "ring spec has {levels} levels; at most {max} supported")
            }
            ConfigError::ZeroRingArity { level } => {
                write!(f, "ring level {level} has zero arity")
            }
            ConfigError::BadRingSpec { spec, reason } => {
                write!(f, "bad ring spec {spec:?}: {reason}")
            }
            ConfigError::ZeroMeshSide => write!(f, "mesh side length must be positive"),
            ConfigError::NonSquareMesh { pms } => {
                write!(
                    f,
                    "{pms} PMs is not a perfect square; mesh networks are k x k"
                )
            }
            ConfigError::TooManyPms { max } => {
                write!(f, "topology has more than the supported {max} PMs")
            }
            ConfigError::Invalid(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<String> for ConfigError {
    fn from(msg: String) -> Self {
        ConfigError::Invalid(msg)
    }
}

impl From<&str> for ConfigError {
    fn from(msg: &str) -> Self {
        ConfigError::Invalid(msg.to_string())
    }
}

impl From<ConfigError> for String {
    fn from(e: ConfigError) -> Self {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let e = ConfigError::TooManyRingLevels { levels: 9, max: 8 };
        assert!(e.to_string().contains("9 levels"));
        let e = ConfigError::NonSquareMesh { pms: 24 };
        assert!(e.to_string().contains("24"));
    }

    #[test]
    fn string_conversions_round_trip() {
        let e: ConfigError = "bad knob".into();
        let s: String = e.into();
        assert_eq!(s, "bad knob");
    }
}
