//! Memory access regions for the M-MRP workload (§2.4 of the paper).
//!
//! Parameter `R ∈ (0, 1]` controls locality: each processor accesses its
//! own PM plus the `⌈R·(P−1)⌉` "closest" PMs. *Closest* is interpreted
//! per network: for rings the PMs are projected onto a line (their DFS
//! ring order) and the region is the `⌈R(P−1)/2⌉` PMs on either side
//! (wrapping); for meshes it is the nearest PMs by hop count. Within a
//! region, references are uniformly distributed and independent.
//!
//! # Order and tie-break
//!
//! A [`Region`] is an *ordered* list, because a reference draws an
//! index and the index must name the same PM in every build. It is
//! never stored: `Region` is a few words per processor and computes
//! [`nth`](Region::nth) on demand, so a system's set-up time and
//! memory stay linear in `P`. The order, for every placement, is: the
//! local PM first, then the others by ascending distance, ties broken
//! by ascending PM index. Distance is
//!
//! * [`Placement::Linear`] — steps along the line, the PM *after* the
//!   local one (`pm + i`, wrapping) ahead of the one *before* it
//!   (`pm − i`) at each step `i`; on an even-sized ring the antipode is
//!   both and appears once;
//! * [`Placement::Grid`] — Manhattan distance between routers, so one
//!   distance ring is walked in row-major order;
//! * [`Placement::RingGrid`] — Manhattan distance between the *owning*
//!   routers: ring-mates are at distance 0, and a whole local ring is
//!   listed, in PM order, before the next router's.

use ringmesh_net::NodeId;

// Placement itself lives in `ringmesh-net`, below the kernels, and
// `NetworkSpec::placement` names it for each topology; this module owns
// its workload-side interpretation.
pub use ringmesh_net::Placement;

/// The access region of one processor: an implicit, ordered list of
/// the PMs it references, local PM first (see the module docs for the
/// order). `Copy`, heap-free, and O(1) to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    shape: Shape,
    pm: u32,
    len: u32,
}

/// The two geometries behind the three placements: a plain mesh is a
/// grid of one-PM rings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    Line { pms: u32 },
    Grid { side: u32, local: u32 },
}

impl Region {
    /// The access region of processor `pm` with locality parameter `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is outside `(0, 1]` or `pm` is out of range.
    pub fn new(placement: Placement, pm: NodeId, r: f64) -> Self {
        assert!(r > 0.0 && r <= 1.0, "R = {r} outside (0, 1]");
        let p = placement.num_pms();
        assert!(pm.raw() < p, "{pm} out of range");
        let others = f64::from(p - 1);
        // Grids: the ⌈R(P−1)⌉ nearest PMs plus the local one.
        let nearest = ((r * others).ceil() as u32).min(p - 1) + 1;
        let (shape, len) = match placement {
            Placement::Linear { pms } => {
                // ⌈R(P−1)/2⌉ PMs on either side of the accessing PM;
                // the two arms meet (and stop) once they cover the ring.
                let k = (r * others / 2.0).ceil() as u32;
                let arms = k.saturating_mul(2).saturating_add(1);
                (Shape::Line { pms }, arms.min(p))
            }
            Placement::Grid { side } => (Shape::Grid { side, local: 1 }, nearest),
            Placement::RingGrid { side, local } => (Shape::Grid { side, local }, nearest),
        };
        Region {
            shape,
            pm: pm.raw(),
            len,
        }
    }

    /// Number of PMs in the region, the local one included.
    #[allow(clippy::len_without_is_empty)] // never empty: holds the local PM
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// The `k`-th PM of the region; `nth(0)` is the local PM.
    ///
    /// # Panics
    ///
    /// Panics if `k >= self.len()`.
    pub fn nth(&self, k: usize) -> NodeId {
        assert!(k < self.len(), "index {k} outside a region of {}", self.len);
        let (k, pm) = (k as u32, self.pm);
        NodeId::new(match self.shape {
            Shape::Line { pms } => {
                // pm, pm+1, pm−1, pm+2, pm−2, ...: odd indices step
                // forward, even ones back. `len ≤ pms` ends the list at
                // the antipode, before the arms would overlap.
                let step = k.div_ceil(2);
                let at = if k % 2 == 1 {
                    pm + step
                } else {
                    pm + pms - step
                };
                if at >= pms {
                    at - pms
                } else {
                    at
                }
            }
            Shape::Grid { .. } if k == 0 => pm,
            Shape::Grid { side, local } => {
                let home = pm / local;
                if k < local {
                    // Ring-mates in PM order, stepping over `pm` itself.
                    let mate = home * local + (k - 1);
                    mate + u32::from(mate >= pm)
                } else {
                    let beyond = k - local;
                    let router = GridView::of(side, home).nth(1 + beyond / local);
                    router * local + beyond % local
                }
            }
        })
    }

    /// The region in order; equal to `(0..len).map(nth)` but walks the
    /// grid once instead of searching it per element.
    pub fn iter(&self) -> Box<dyn Iterator<Item = NodeId> + '_> {
        match self.shape {
            Shape::Line { .. } => Box::new((0..self.len()).map(|k| self.nth(k))),
            Shape::Grid { side, local } => {
                let pm = self.pm;
                let others = GridView::of(side, pm / local)
                    .walk(0)
                    .flat_map(move |router| router * local..(router + 1) * local)
                    .filter(move |&n| n != pm);
                Box::new(
                    std::iter::once(pm)
                        .chain(others)
                        .take(self.len())
                        .map(NodeId::new),
                )
            }
        }
    }
}

/// A bounded `side × side` grid seen from the cell `(r, c)`: its cells
/// in (Manhattan distance, row-major index) order.
#[derive(Debug, Clone, Copy)]
struct GridView {
    side: u32,
    r: u32,
    c: u32,
}

impl GridView {
    fn of(side: u32, cell: u32) -> Self {
        GridView {
            side,
            r: cell / side,
            c: cell % side,
        }
    }

    /// Number of cells within `d` hops of the centre, in closed form:
    /// the unbounded diamond (`2d² + 2d + 1` cells), minus the triangle
    /// that overshoots each of the four edges (`t²` cells when the
    /// diamond reaches `t` rows or columns past it), plus the corner
    /// each pair of adjacent overshoots removed twice.
    fn within(&self, d: u32) -> u64 {
        let d = i64::from(d);
        let rows = [self.r, self.side - 1 - self.r].map(i64::from);
        let cols = [self.c, self.side - 1 - self.c].map(i64::from);
        let overshoot = |t: i64| t.max(0).pow(2);
        let corner = |s: i64| (s.max(-1) + 1) * (s.max(-1) + 2) / 2;
        let mut cells = 2 * d * (d + 1) + 1;
        for room in rows.into_iter().chain(cols) {
            cells -= overshoot(d - room);
        }
        for up in rows {
            for across in cols {
                cells += corner(d - up - across - 2);
            }
        }
        cells as u64
    }

    /// The cell of rank `rank` (the centre is rank 0): a search for the
    /// distance ring holding that rank, then a walk along the ring.
    fn nth(&self, rank: u32) -> u32 {
        let (mut lo, mut hi) = (0, 2 * (self.side - 1));
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.within(mid) > u64::from(rank) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let nearer = if lo == 0 { 0 } else { self.within(lo - 1) };
        self.walk(lo)
            .nth((u64::from(rank) - nearer) as usize)
            .expect("rank lies on the ring the search found")
    }

    /// The cells at distance `d`, then `d + 1`, ... in order.
    fn walk(self, d: u32) -> GridWalk {
        GridWalk {
            grid: self,
            d,
            row: self.r.saturating_sub(d),
            right: false,
        }
    }
}

/// Row-major walk of successive distance rings: each row of a ring
/// holds at most two of its cells, `rem = d − |row − r|` columns left
/// and right of the centre column.
#[derive(Debug, Clone)]
struct GridWalk {
    grid: GridView,
    d: u32,
    row: u32,
    /// Whether this row's left cell has been visited.
    right: bool,
}

impl Iterator for GridWalk {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let g = self.grid;
        loop {
            if self.row > (g.r + self.d).min(g.side - 1) {
                self.d += 1;
                if self.d > 2 * (g.side - 1) {
                    return None;
                }
                self.row = g.r.saturating_sub(self.d);
            }
            let row = self.row;
            let rem = self.d - row.abs_diff(g.r);
            let col = if self.right {
                self.right = false;
                self.row += 1;
                Some(g.c + rem).filter(|&col| rem > 0 && col < g.side)
            } else {
                self.right = true;
                g.c.checked_sub(rem)
            };
            if let Some(col) = col {
                return Some(row * g.side + col);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference the implicit order is checked against: build every
    /// candidate, sort by (distance, index), truncate. This is how
    /// regions were stored, one `Vec` per processor, before [`Region`].
    fn sorted_region(placement: Placement, pm: NodeId, r: f64) -> Vec<NodeId> {
        let p = placement.num_pms();
        let (side, local) = match placement {
            Placement::Linear { pms } => {
                let k = (r * f64::from(p - 1) / 2.0).ceil() as u32;
                let mut region = vec![pm];
                for i in 1..=k.min(p - 1) {
                    for n in [(pm.raw() + i) % pms, (pm.raw() + pms - i) % pms] {
                        if !region.contains(&NodeId::new(n)) {
                            region.push(NodeId::new(n));
                        }
                    }
                }
                return region;
            }
            Placement::Grid { side } => (side, 1),
            Placement::RingGrid { side, local } => (side, local),
        };
        let m = (r * f64::from(p - 1)).ceil() as u32;
        let coords = |n: u32| (n / local / side, n / local % side);
        let (pr, pc) = coords(pm.raw());
        let mut others: Vec<(u32, u32)> = (0..p)
            .filter(|&n| n != pm.raw())
            .map(|n| {
                let (nr, nc) = coords(n);
                (nr.abs_diff(pr) + nc.abs_diff(pc), n)
            })
            .collect();
        others.sort_unstable();
        let mut region = vec![pm];
        region.extend(others.iter().take(m as usize).map(|&(_, n)| NodeId::new(n)));
        region
    }

    fn region(placement: Placement, pm: u32, r: f64) -> Vec<NodeId> {
        Region::new(placement, NodeId::new(pm), r).iter().collect()
    }

    #[test]
    fn implicit_order_equals_the_sort_oracle() {
        let mut placements = Vec::new();
        placements.extend([1, 2, 3, 8, 9, 144].map(|pms| Placement::Linear { pms }));
        placements.extend((1..=9).chain([16]).map(|side| Placement::Grid { side }));
        placements.extend(
            [(1, 4), (3, 4), (4, 1), (5, 3)]
                .map(|(side, local)| Placement::RingGrid { side, local }),
        );
        for placement in placements {
            for r in [1.0, 0.5, 0.13, 1e-6] {
                for pm in (0..placement.num_pms()).map(NodeId::new) {
                    let want = sorted_region(placement, pm, r);
                    let got = Region::new(placement, pm, r);
                    let ctx = format!("{placement:?} pm {pm} R {r}");
                    assert_eq!(got.len(), want.len(), "{ctx}");
                    let by_index: Vec<NodeId> = (0..got.len()).map(|k| got.nth(k)).collect();
                    assert_eq!(by_index, want, "nth: {ctx}");
                    assert_eq!(got.iter().collect::<Vec<_>>(), want, "iter: {ctx}");
                    let mut ids: Vec<u32> = by_index.iter().map(|n| n.raw()).collect();
                    ids.sort_unstable();
                    ids.dedup();
                    assert_eq!(ids.len(), got.len(), "duplicates: {ctx}");
                }
            }
        }
    }

    #[test]
    fn closed_form_count_equals_brute_force() {
        for side in 1..=9u32 {
            for cell in 0..side * side {
                let g = GridView::of(side, cell);
                for d in 0..=2 * side {
                    let brute = (0..side * side)
                        .filter(|n| (n / side).abs_diff(g.r) + (n % side).abs_diff(g.c) <= d)
                        .count() as u64;
                    assert_eq!(g.within(d), brute, "side {side} cell {cell} d {d}");
                }
            }
        }
    }

    #[test]
    fn full_region_covers_all_pms() {
        for placement in [
            Placement::Linear { pms: 9 },
            Placement::Grid { side: 3 },
            Placement::RingGrid { side: 2, local: 2 },
        ] {
            let mut ids: Vec<u32> = region(placement, 3, 1.0).iter().map(|n| n.raw()).collect();
            ids.sort_unstable();
            assert_eq!(ids, (0..placement.num_pms()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn local_pm_always_first() {
        assert_eq!(
            region(Placement::Linear { pms: 12 }, 7, 0.2)[0],
            NodeId::new(7)
        );
    }

    #[test]
    fn linear_region_is_symmetric_and_wraps() {
        // P=10, R=0.2: k = ceil(0.2*9/2) = 1 on either side.
        let mut ids: Vec<u32> = region(Placement::Linear { pms: 10 }, 0, 0.2)
            .iter()
            .map(|n| n.raw())
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 9]);
    }

    #[test]
    fn linear_region_cardinality_matches_formula() {
        for p in [6u32, 13, 24, 54] {
            for r in [0.1, 0.2, 0.3, 0.5] {
                let len = Region::new(Placement::Linear { pms: p }, NodeId::new(2), r).len();
                let k = (r * f64::from(p - 1) / 2.0).ceil() as u32;
                assert_eq!(len as u32, (2 * k + 1).min(p), "p={p} r={r}");
            }
        }
    }

    #[test]
    fn grid_region_cardinality_matches_formula() {
        for side in [3u32, 5, 7] {
            let p = side * side;
            for r in [0.1, 0.3, 0.5] {
                let len = Region::new(Placement::Grid { side }, NodeId::new(0), r).len();
                let m = (r * f64::from(p - 1)).ceil() as u32;
                assert_eq!(len as u32, m + 1, "side={side} r={r}");
            }
        }
    }

    #[test]
    fn grid_region_prefers_nearby_pms() {
        // 5x5, centre node 12, R = 0.2: m = ceil(0.2*24) = 5 remote
        // PMs, all at distance <= 2.
        let side = 5u32;
        for n in &region(Placement::Grid { side }, 12, 0.2)[1..] {
            let d = (n.raw() / side).abs_diff(12 / side) + (n.raw() % side).abs_diff(12 % side);
            assert!(d <= 2, "{n} at distance {d}");
        }
    }

    #[test]
    #[should_panic(expected = "outside (0, 1]")]
    fn zero_r_rejected() {
        Region::new(Placement::Linear { pms: 4 }, NodeId::new(0), 0.0);
    }

    #[test]
    fn ring_grid_region_prefers_ring_mates() {
        // 2x2 mesh of 3-station rings; PM 4 lives on ring 1.
        // m = ceil(0.2 * 11) = 3: both ring-mates (distance 0) come
        // before any PM on another ring.
        let got = region(Placement::RingGrid { side: 2, local: 3 }, 4, 0.2);
        assert_eq!(got[..3], [4, 3, 5].map(NodeId::new));
    }
}
