//! The topology registry seam: one trait every network crate
//! implements so that construction, identity and workload-facing
//! geometry live in exactly one place per topology.
//!
//! Before this layer existed the simulator dispatched on a closed
//! `NetworkSpec` enum in every call site that needed a network — the
//! system builder, the sweep harnesses, the serve job parser and the
//! CLI each carried their own `match` with its own copy of the
//! placement/packet-format/PM-count rules. A [`TopologyBuilder`]
//! collapses all of that: the config layer parses a spec string into a
//! builder once, and everything downstream (workload placement, packet
//! sizing, canonical labels, the network itself) is asked of the
//! builder.
//!
//! Implementations live with their kernels (`ringmesh-ring`,
//! `ringmesh-mesh`, `ringmesh-hybrid`); this crate only defines the
//! contract so the dependency arrows keep pointing the right way.

use crate::{CacheLineSize, ConfigError, Interconnect, PacketFormat};

/// The largest system any topology may describe: 65 536 PMs (a
/// 256×256 mesh), sixteen times the largest size the benchmark times.
/// Every spec parser and network constructor rejects shapes beyond it
/// with [`ConfigError::TooManyPms`], so a PM count always fits `u32`,
/// a mesh coordinate always fits `u16`, and no input line can ask for
/// an allocation the host cannot serve.
pub const MAX_PMS: u32 = 65_536;

/// The PM count of a topology whose size is the product of `dims`
/// (mesh side twice, ring arities, ...).
///
/// # Errors
///
/// Returns [`ConfigError::TooManyPms`] when the product overflows or
/// exceeds [`MAX_PMS`].
pub fn checked_pms(dims: impl IntoIterator<Item = u32>) -> Result<u32, ConfigError> {
    dims.into_iter()
        .try_fold(1u32, |pms, d| {
            pms.checked_mul(d).filter(|&pms| pms <= MAX_PMS)
        })
        .ok_or(ConfigError::TooManyPms { max: MAX_PMS })
}

/// How PM "closeness" is measured when building workload access
/// regions (§2.4 of the paper). Lives here — rather than in the
/// workload crate — because each [`TopologyBuilder`] names its own
/// placement; the workload crate interprets it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// PMs in a linear (ring DFS) order of `pms` nodes, wrapping.
    Linear {
        /// Total number of PMs.
        pms: u32,
    },
    /// PMs on a `side × side` grid, closeness by Manhattan distance.
    Grid {
        /// Mesh side length.
        side: u32,
    },
    /// PMs grouped into `side × side` local rings of `local` stations
    /// each, one ring per mesh router: ring-mates are closest, then
    /// rings ordered by Manhattan distance between their routers.
    RingGrid {
        /// Global mesh side length.
        side: u32,
        /// Stations per local ring.
        local: u32,
    },
}

impl Placement {
    /// Total number of PMs under this placement.
    pub fn num_pms(&self) -> u32 {
        match *self {
            Placement::Linear { pms } => pms,
            Placement::Grid { side } => side * side,
            Placement::RingGrid { side, local } => side * side * local,
        }
    }
}

/// One buildable network topology: the single source of truth for its
/// size, identity strings, workload geometry and construction.
///
/// A builder is cheap to create (it holds only the parsed spec, not a
/// network) and answers every question the rest of the simulator used
/// to answer with per-call-site `match` arms:
///
/// * [`num_pms`](Self::num_pms) — how many processing modules;
/// * [`label`](Self::label) — the human description used in reports;
/// * [`spec`](Self::spec) — the canonical `--topology` string, which
///   must parse back to an equivalent builder (round-trip pinned by
///   tests in `ringmesh-core`);
/// * [`placement`](Self::placement) / [`format`](Self::format) — what
///   the M-MRP workload needs to size packets and build access
///   regions;
/// * [`build`](Self::build) — the network itself.
pub trait TopologyBuilder {
    /// Number of processing modules in the built network.
    fn num_pms(&self) -> u32;

    /// Human-readable description, e.g. `"ring 2:3:4"` or
    /// `"mesh 6x6 (4-flit buffers)"`.
    fn label(&self) -> String;

    /// The canonical spec string, e.g. `"ring:2:3:4"` or
    /// `"hybrid:4x4:4"`. Feeding this back through the spec parser
    /// yields an equivalent builder; it is also the `net=` field of
    /// the canonical config encoding, so it must be stable.
    fn spec(&self) -> String;

    /// How the workload should measure PM closeness on this topology.
    fn placement(&self) -> Placement;

    /// The packet format (channel width / header flits) PMs use when
    /// sizing packets for this network.
    fn format(&self) -> PacketFormat;

    // Inert: only the frozen `benchmark/` harness calls this.
    #[doc(hidden)]
    fn parallel_kernel(&self) -> bool {
        false
    }

    /// Builds the network.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for specs that name an unbuildable
    /// shape (callers normally pre-validate, so this is a backstop).
    fn build(&self, cache_line: CacheLineSize) -> Result<Box<dyn Interconnect>, ConfigError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pm_products_are_capped_not_wrapped() {
        assert_eq!(checked_pms([256, 256]), Ok(MAX_PMS));
        assert_eq!(checked_pms([4, 4, 4]), Ok(64));
        let too_many = Err(ConfigError::TooManyPms { max: MAX_PMS });
        assert_eq!(checked_pms([257, 257]), too_many);
        // 65536² wraps to 0 and 70000² to a plausible count in u32.
        assert_eq!(checked_pms([65_536, 65_536]), too_many);
        assert_eq!(checked_pms([70_000, 70_000, 4]), too_many);
        assert_eq!(checked_pms([u32::MAX, u32::MAX]), too_many);
    }

    #[test]
    fn placement_pm_counts() {
        assert_eq!(Placement::Linear { pms: 24 }.num_pms(), 24);
        assert_eq!(Placement::Grid { side: 5 }.num_pms(), 25);
        assert_eq!(Placement::RingGrid { side: 4, local: 4 }.num_pms(), 64);
    }
}
