//! 2-D mesh topology and e-cube routing.
//!
//! The paper studies square, 2-dimensional, bi-directional meshes with
//! no end-around connections, routed with the deterministic e-cube
//! (dimension-order) algorithm: a packet first corrects its column (X),
//! then its row (Y). Dimension-order routing on a mesh is deadlock-free
//! without virtual channels, which is why the paper picked it.

use std::fmt;

use ringmesh_net::{checked_pms, ConfigError, NodeId};

/// A link direction out of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Toward row 0.
    North,
    /// Toward larger columns.
    East,
    /// Toward larger rows.
    South,
    /// Toward column 0.
    West,
}

impl Direction {
    /// All four directions in port order (N, E, S, W).
    pub const ALL: [Direction; 4] = [
        Direction::North,
        Direction::East,
        Direction::South,
        Direction::West,
    ];

    /// The direction a flit sent this way arrives *from* at the
    /// neighbouring router.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::East => Direction::West,
            Direction::South => Direction::North,
            Direction::West => Direction::East,
        }
    }

    /// Port index (0..4) of this direction; port 4 is the local PM.
    pub fn port(self) -> usize {
        match self {
            Direction::North => 0,
            Direction::East => 1,
            Direction::South => 2,
            Direction::West => 3,
        }
    }

    /// The e-cube (X-then-Y) routing decision between `(row, col)`
    /// coordinates: the direction out of `at` toward `to`, or `None`
    /// on arrival.
    pub fn ecube((ar, ac): (u32, u32), (tr, tc): (u32, u32)) -> Option<Direction> {
        if ac < tc {
            Some(Direction::East)
        } else if ac > tc {
            Some(Direction::West)
        } else if ar < tr {
            Some(Direction::South)
        } else if ar > tr {
            Some(Direction::North)
        } else {
            None
        }
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::East => "E",
            Direction::South => "S",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A square `side × side` mesh with row-major PM numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshTopology {
    side: u32,
}

impl MeshTopology {
    /// Creates a `side × side` mesh.
    ///
    /// # Panics
    ///
    /// Panics if `side` is zero; use [`try_new`](Self::try_new) for
    /// fallible construction from external input.
    pub fn new(side: u32) -> Self {
        Self::try_new(side).expect("mesh side must be positive")
    }

    /// Creates a `side × side` mesh, rejecting a zero side and sides
    /// whose PM count exceeds [`ringmesh_net::MAX_PMS`] (so `side²`
    /// cannot wrap and coordinates fit `u16`).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ZeroMeshSide`] if `side` is zero and
    /// [`ConfigError::TooManyPms`] if it is too large.
    pub fn try_new(side: u32) -> Result<Self, ConfigError> {
        if side == 0 {
            return Err(ConfigError::ZeroMeshSide);
        }
        checked_pms([side, side])?;
        Ok(MeshTopology { side })
    }

    /// Creates the square mesh with `pms` processing modules.
    ///
    /// # Errors
    ///
    /// Returns an error if `pms` is not a perfect square or exceeds
    /// [`ringmesh_net::MAX_PMS`].
    pub fn from_pms(pms: u32) -> Result<Self, ConfigError> {
        checked_pms([pms])?;
        let side = (pms as f64).sqrt().round() as u32;
        if side * side != pms || pms == 0 {
            return Err(ConfigError::NonSquareMesh { pms });
        }
        Ok(MeshTopology { side })
    }

    /// Mesh side length.
    pub fn side(&self) -> u32 {
        self.side
    }

    /// Number of processing modules (`side²`).
    pub fn num_pms(&self) -> u32 {
        self.side * self.side
    }

    /// Number of directed inter-router links: `4·side·(side−1)`.
    pub fn num_links(&self) -> u32 {
        4 * self.side * (self.side - 1)
    }

    /// `(row, col)` of a node.
    pub fn coords(&self, node: NodeId) -> (u32, u32) {
        let i = node.raw();
        debug_assert!(i < self.num_pms());
        (i / self.side, i % self.side)
    }

    /// The node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn node_at(&self, row: u32, col: u32) -> NodeId {
        assert!(
            row < self.side && col < self.side,
            "({row},{col}) outside mesh"
        );
        NodeId::new(row * self.side + col)
    }

    /// The neighbour of `node` in `dir`, if any (no end-around links).
    pub fn neighbor(&self, node: NodeId, dir: Direction) -> Option<NodeId> {
        let (r, c) = self.coords(node);
        let (nr, nc) = match dir {
            Direction::North => (r.checked_sub(1)?, c),
            Direction::South => (r + 1, c),
            Direction::West => (r, c.checked_sub(1)?),
            Direction::East => (r, c + 1),
        };
        if nr < self.side && nc < self.side {
            Some(self.node_at(nr, nc))
        } else {
            None
        }
    }

    /// Manhattan (hop) distance between two nodes.
    pub fn manhattan(&self, a: NodeId, b: NodeId) -> u32 {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        ar.abs_diff(br) + ac.abs_diff(bc)
    }

    /// The e-cube (X-then-Y) routing decision at `cur` for a packet
    /// destined to `dst`: the output direction, or `None` when the
    /// packet has arrived and ejects to the local PM.
    pub fn ecube(&self, cur: NodeId, dst: NodeId) -> Option<Direction> {
        Direction::ecube(self.coords(cur), self.coords(dst))
    }

    /// The full e-cube path from `src` to `dst` (router-to-router hops).
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<NodeId> {
        let mut path = vec![src];
        let mut cur = src;
        while let Some(dir) = self.ecube(cur, dst) {
            cur = self
                .neighbor(cur, dir)
                .expect("e-cube never leaves the mesh");
            path.push(cur);
        }
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pms_accepts_squares_only() {
        assert_eq!(MeshTopology::from_pms(121).unwrap().side(), 11);
        assert_eq!(MeshTopology::from_pms(4).unwrap().side(), 2);
        assert!(MeshTopology::from_pms(12).is_err());
        assert!(MeshTopology::from_pms(0).is_err());
    }

    #[test]
    fn oversized_sides_draw_typed_errors() {
        use ringmesh_net::MAX_PMS;
        assert_eq!(MeshTopology::try_new(256).unwrap().num_pms(), MAX_PMS);
        let too_many = Err(ConfigError::TooManyPms { max: MAX_PMS });
        // 65536² wraps to 0 in u32; 70000² wraps to a plausible count.
        for side in [257, 65_536, 70_000, u32::MAX] {
            assert_eq!(MeshTopology::try_new(side), too_many, "side {side}");
        }
        assert_eq!(MeshTopology::from_pms(66_049), too_many);
    }

    #[test]
    fn coords_round_trip() {
        let m = MeshTopology::new(3);
        for i in 0..9 {
            let n = NodeId::new(i);
            let (r, c) = m.coords(n);
            assert_eq!(m.node_at(r, c), n);
        }
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = MeshTopology::new(3);
        // Corner 0 has no N/W neighbours.
        assert_eq!(m.neighbor(NodeId::new(0), Direction::North), None);
        assert_eq!(m.neighbor(NodeId::new(0), Direction::West), None);
        assert_eq!(
            m.neighbor(NodeId::new(0), Direction::East),
            Some(NodeId::new(1))
        );
        assert_eq!(
            m.neighbor(NodeId::new(0), Direction::South),
            Some(NodeId::new(3))
        );
        // Centre has all four.
        for d in Direction::ALL {
            assert!(m.neighbor(NodeId::new(4), d).is_some());
        }
    }

    #[test]
    fn opposite_is_involution() {
        for d in Direction::ALL {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn ecube_corrects_x_first() {
        let m = MeshTopology::new(4);
        // From (0,0) to (3,3): go East until column 3, then South.
        let path = m.path(NodeId::new(0), NodeId::new(15));
        let coords: Vec<(u32, u32)> = path.iter().map(|&n| m.coords(n)).collect();
        assert_eq!(
            coords,
            [(0, 0), (0, 1), (0, 2), (0, 3), (1, 3), (2, 3), (3, 3)]
        );
    }

    #[test]
    fn ecube_path_length_is_manhattan() {
        let m = MeshTopology::new(5);
        for a in 0..25u32 {
            for b in 0..25u32 {
                let (a, b) = (NodeId::new(a), NodeId::new(b));
                assert_eq!(m.path(a, b).len() as u32 - 1, m.manhattan(a, b), "{a}->{b}");
            }
        }
    }

    #[test]
    fn ecube_terminates_at_destination() {
        let m = MeshTopology::new(3);
        assert_eq!(m.ecube(NodeId::new(4), NodeId::new(4)), None);
    }

    #[test]
    fn link_count() {
        // 11x11: 4*11*10 = 440 directed links (the bisection argument in
        // DESIGN.md relies on this).
        assert_eq!(MeshTopology::new(11).num_links(), 440);
        assert_eq!(MeshTopology::new(2).num_links(), 8);
    }
}
