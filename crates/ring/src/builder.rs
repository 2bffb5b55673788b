//! [`TopologyBuilder`] implementations for the two ring disciplines.
//!
//! The registry keeps construction knowledge next to the kernels it
//! builds: everything the rest of the simulator needs to know about a
//! ring network — PM count, labels, workload placement, packet format
//! — is answered here instead of in per-call-site `match` arms.

use ringmesh_net::{
    CacheLineSize, ConfigError, Interconnect, PacketFormat, Placement, TopologyBuilder,
};

use crate::{RingConfig, RingNetwork, RingSpec, SlottedRingNetwork};

/// Builds the paper's wormhole-switched hierarchical ring
/// ([`RingNetwork`]). Spec syntax: `ring:2:3:4`, or `ring2x:2:3:4`
/// for the §6 double-speed global ring.
#[derive(Debug, Clone)]
pub struct RingBuilder {
    /// Hierarchy spec (e.g. `"2:3:4".parse()`).
    pub spec: RingSpec,
    /// Global-ring clock multiplier (1 or 2).
    pub speedup: u32,
}

impl TopologyBuilder for RingBuilder {
    fn num_pms(&self) -> u32 {
        self.spec.num_pms()
    }

    fn label(&self) -> String {
        if self.speedup == 1 {
            format!("ring {}", self.spec)
        } else {
            format!("ring {} ({}x global)", self.spec, self.speedup)
        }
    }

    fn spec(&self) -> String {
        if self.speedup == 1 {
            format!("ring:{}", self.spec)
        } else {
            format!("ring{}x:{}", self.speedup, self.spec)
        }
    }

    fn placement(&self) -> Placement {
        Placement::Linear {
            pms: self.spec.num_pms(),
        }
    }

    fn format(&self) -> PacketFormat {
        PacketFormat::RING
    }

    fn build(&self, cache_line: CacheLineSize) -> Result<Box<dyn Interconnect>, ConfigError> {
        if !(1..=2).contains(&self.speedup) {
            return Err(ConfigError::Invalid(format!(
                "global ring speedup must be 1 or 2, got {}",
                self.speedup
            )));
        }
        let rc = RingConfig::new(cache_line).with_global_speedup(self.speedup);
        Ok(Box::new(RingNetwork::new(&self.spec, rc)))
    }
}

/// Builds the slotted-ring extension ([`SlottedRingNetwork`]). Spec
/// syntax: `slotted:2:3:4`.
#[derive(Debug, Clone)]
pub struct SlottedBuilder {
    /// Hierarchy spec.
    pub spec: RingSpec,
}

impl TopologyBuilder for SlottedBuilder {
    fn num_pms(&self) -> u32 {
        self.spec.num_pms()
    }

    fn label(&self) -> String {
        format!("slotted ring {}", self.spec)
    }

    fn spec(&self) -> String {
        format!("slotted:{}", self.spec)
    }

    fn placement(&self) -> Placement {
        Placement::Linear {
            pms: self.spec.num_pms(),
        }
    }

    fn format(&self) -> PacketFormat {
        PacketFormat::RING
    }

    fn build(&self, cache_line: CacheLineSize) -> Result<Box<dyn Interconnect>, ConfigError> {
        let rc = RingConfig::new(cache_line);
        Ok(Box::new(SlottedRingNetwork::new(&self.spec, rc)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_builder_identity() {
        let b = RingBuilder {
            spec: "2:3:4".parse().unwrap(),
            speedup: 1,
        };
        assert_eq!(b.num_pms(), 24);
        assert_eq!(b.label(), "ring 2:3:4");
        assert_eq!(b.spec(), "ring:2:3:4");
        assert_eq!(b.placement(), Placement::Linear { pms: 24 });
        let net = b.build(CacheLineSize::B64).unwrap();
        assert_eq!(net.num_pms(), 24);
    }

    #[test]
    fn double_speed_spec_string() {
        let b = RingBuilder {
            spec: "3:3:4".parse().unwrap(),
            speedup: 2,
        };
        assert_eq!(b.spec(), "ring2x:3:3:4");
        assert_eq!(b.label(), "ring 3:3:4 (2x global)");
    }

    #[test]
    fn bad_speedup_draws_typed_error() {
        let b = RingBuilder {
            spec: "4".parse().unwrap(),
            speedup: 3,
        };
        assert!(b.build(CacheLineSize::B32).is_err());
    }

    #[test]
    fn slotted_builder_identity() {
        let b = SlottedBuilder {
            spec: "2:3".parse().unwrap(),
        };
        assert_eq!(b.label(), "slotted ring 2:3");
        assert_eq!(b.spec(), "slotted:2:3");
        assert_eq!(b.build(CacheLineSize::B32).unwrap().num_pms(), 6);
    }
}
