//! What every topology shares, whatever its kernel: the size cap and
//! the PM-closeness descriptor the workload builds its access regions
//! from.
//!
//! A network's shape is described once, by `NetworkSpec` in
//! `ringmesh-core`. These two live below the kernel crates because the
//! kernels' constructors check sizes against [`MAX_PMS`], and the
//! workload crate interprets a [`Placement`] without knowing any kernel.

use crate::ConfigError;

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
/// regions (§2.4 of the paper). `NetworkSpec::placement` names it for
/// each topology, and the workload crate interprets it.
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
