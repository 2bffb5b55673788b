//! Hierarchical ring topology: specification, construction and routing.
//!
//! A hierarchy is described by a [`RingSpec`] such as `2:3:4` — one
//! global ring connecting 2 intermediate rings, each connecting 3 local
//! rings of 4 PMs (the paper's Table 2 notation). [`RingTopology`]
//! expands the spec into a flat station graph: one NIC station per PM on
//! its local ring, and one inter-ring interface (IRI) station joining
//! each child ring to its parent. Every station has one output link per
//! ring it sits on; packets travel uni-directionally.

use std::fmt;
use std::str::FromStr;

use ringmesh_net::{checked_pms, ConfigError, LevelUtil, NodeId, UtilizationReport};

use crate::tier::StationMap;

/// Which way a packet leaves a station on a given ring side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RingAction {
    /// The packet has reached its destination NIC: deliver to the PM.
    Eject,
    /// Continue around the current ring.
    Forward,
    /// Cross from a child ring up to its parent ring (IRI only).
    Up,
    /// Descend from a parent ring into the child ring (IRI only).
    Down,
}

/// A hierarchical ring specification: `arities[0]` children of the
/// global ring, …, `arities.last()` PMs per local ring.
///
/// The paper's `2:3:4` reads root-first, exactly as stored here. A
/// one-element spec `[n]` is a single ring of `n` PMs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RingSpec {
    arities: Vec<u32>,
}

impl RingSpec {
    /// Creates a spec from root-first arities.
    ///
    /// # Errors
    ///
    /// Returns an error if `arities` is empty, has more than 8 levels,
    /// multiplies out to more than [`ringmesh_net::MAX_PMS`] PMs, or
    /// contains an arity < 1 (or < 2 for non-leaf levels, which would
    /// be a degenerate ring of one station plus the parent IRI — allowed
    /// in the paper's tables only at the leaf level... in fact `2:9`
    /// style specs need non-leaf arity >= 2; we also accept 1 to permit
    /// degenerate test topologies).
    pub fn new(arities: Vec<u32>) -> Result<Self, ConfigError> {
        if arities.is_empty() {
            return Err(ConfigError::EmptyRingSpec);
        }
        if arities.len() > 8 {
            return Err(ConfigError::TooManyRingLevels {
                levels: arities.len(),
                max: 8,
            });
        }
        if let Some(level) = arities.iter().position(|&a| a == 0) {
            return Err(ConfigError::ZeroRingArity { level });
        }
        checked_pms(arities.iter().copied())?;
        Ok(RingSpec { arities })
    }

    /// Convenience constructor for a single ring of `n` PMs.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn single(n: u32) -> Self {
        RingSpec::new(vec![n]).expect("positive ring size")
    }

    /// Number of hierarchy levels (1 = a single ring).
    pub fn levels(&self) -> usize {
        self.arities.len()
    }

    /// Root-first arities.
    pub fn arities(&self) -> &[u32] {
        &self.arities
    }

    /// Total number of processing modules: the product of all arities.
    pub fn num_pms(&self) -> u32 {
        self.arities.iter().product()
    }
}

impl fmt::Display for RingSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.arities.iter().map(|a| a.to_string()).collect();
        f.write_str(&parts.join(":"))
    }
}

impl FromStr for RingSpec {
    type Err = ConfigError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let arities: Result<Vec<u32>, _> = s
            .trim()
            .split(':')
            .map(|p| p.trim().parse::<u32>())
            .collect();
        RingSpec::new(arities.map_err(|e| ConfigError::BadRingSpec {
            spec: s.to_string(),
            reason: e.to_string(),
        })?)
    }
}

/// What a station is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StationKind {
    /// Network interface controller attaching one PM to its local ring.
    Nic {
        /// The attached processing module.
        pm: NodeId,
    },
    /// Inter-ring interface joining a child ring (side 0) to its parent
    /// ring (side 1).
    Iri {
        /// Half-open PM interval `[lo, hi)` of the child subtree.
        subtree: (u32, u32),
    },
}

/// Identifier of a station side: `(station index, side)`. NICs use side
/// 0 only; for IRIs side 0 faces the child (lower) ring and side 1 the
/// parent (upper) ring.
pub type SideRef = (u32, u8);

/// One ring in the hierarchy.
#[derive(Debug, Clone)]
pub struct RingInfo {
    /// Depth in the hierarchy: 0 = global/root ring.
    pub depth: u32,
    /// Member station sides in ring order.
    pub members: Vec<SideRef>,
}

/// A fully-elaborated hierarchical ring topology.
#[derive(Debug, Clone)]
pub struct RingTopology {
    spec: RingSpec,
    stations: Vec<StationKind>,
    rings: Vec<RingInfo>,
    /// Downstream neighbour per station side: `next[station][side]`.
    next: Vec<[Option<SideRef>; 2]>,
    /// Ring id per station side.
    ring_of: Vec<[Option<u32>; 2]>,
    /// NIC station of each PM.
    nic_of: Vec<u32>,
}

impl RingTopology {
    /// Expands a spec into a station graph.
    pub fn new(spec: &RingSpec) -> Self {
        let mut topo = RingTopology {
            spec: spec.clone(),
            stations: Vec::new(),
            rings: Vec::new(),
            next: Vec::new(),
            ring_of: Vec::new(),
            nic_of: vec![0; spec.num_pms() as usize],
        };
        let mut next_pm = 0u32;
        topo.build_ring(spec, 0, &mut next_pm);
        debug_assert_eq!(next_pm, spec.num_pms());
        topo.link_rings();
        topo
    }

    fn new_station(&mut self, kind: StationKind) -> u32 {
        self.stations.push(kind);
        self.next.push([None, None]);
        self.ring_of.push([None, None]);
        (self.stations.len() - 1) as u32
    }

    /// Recursively builds the ring at `depth`, returning `(ring id,
    /// subtree PM interval)`.
    fn build_ring(
        &mut self,
        spec: &RingSpec,
        depth: usize,
        next_pm: &mut u32,
    ) -> (u32, (u32, u32)) {
        let ring_id = self.rings.len() as u32;
        self.rings.push(RingInfo {
            depth: depth as u32,
            members: Vec::new(),
        });
        let lo = *next_pm;
        let leaf = depth + 1 == spec.levels();
        for _ in 0..spec.arities()[depth] {
            if leaf {
                let pm = NodeId::new(*next_pm);
                *next_pm += 1;
                let st = self.new_station(StationKind::Nic { pm });
                self.nic_of[pm.index()] = st;
                self.ring_of[st as usize][0] = Some(ring_id);
                self.rings[ring_id as usize].members.push((st, 0));
            } else {
                let (child_ring, child_iv) = self.build_ring(spec, depth + 1, next_pm);
                let st = self.new_station(StationKind::Iri { subtree: child_iv });
                self.ring_of[st as usize][0] = Some(child_ring);
                self.ring_of[st as usize][1] = Some(ring_id);
                // The IRI closes the child ring (placed after the
                // child's own members) and joins the parent ring.
                self.rings[child_ring as usize].members.push((st, 0));
                self.rings[ring_id as usize].members.push((st, 1));
            }
        }
        (ring_id, (lo, *next_pm))
    }

    /// Computes downstream neighbours around every ring.
    fn link_rings(&mut self) {
        for ring in &self.rings {
            let n = ring.members.len();
            for (i, &(st, side)) in ring.members.iter().enumerate() {
                let next = ring.members[(i + 1) % n];
                self.next[st as usize][side as usize] = Some(next);
            }
        }
    }

    /// The spec this topology was built from.
    pub fn spec(&self) -> &RingSpec {
        &self.spec
    }

    /// Number of processing modules.
    pub fn num_pms(&self) -> u32 {
        self.spec.num_pms()
    }

    /// Number of stations (NICs + IRIs).
    pub fn num_stations(&self) -> usize {
        self.stations.len()
    }

    /// Number of rings in the hierarchy.
    pub fn num_rings(&self) -> usize {
        self.rings.len()
    }

    /// Hierarchy depth (1 = single ring).
    pub fn levels(&self) -> usize {
        self.spec.levels()
    }

    /// The station attached to PM `pm`.
    ///
    /// # Panics
    ///
    /// Panics if `pm` is out of range.
    pub fn nic_of(&self, pm: NodeId) -> u32 {
        self.nic_of[pm.index()]
    }

    /// What station `st` is.
    pub fn station(&self, st: u32) -> StationKind {
        self.stations[st as usize]
    }

    /// Ring info by id; ring 0 is the global/root ring.
    pub fn ring(&self, ring: u32) -> &RingInfo {
        &self.rings[ring as usize]
    }

    /// Iterates over rings with their ids.
    pub fn rings(&self) -> impl Iterator<Item = (u32, &RingInfo)> {
        self.rings.iter().enumerate().map(|(i, r)| (i as u32, r))
    }

    /// The downstream neighbour of station `st`'s `side` output link.
    ///
    /// # Panics
    ///
    /// Panics if the station has no such side.
    pub fn next_of(&self, st: u32, side: u8) -> SideRef {
        self.try_next_of(st, side)
            .expect("station has no such ring side")
    }

    /// [`next_of`](Self::next_of), or `None` for a side on no ring.
    pub(crate) fn try_next_of(&self, st: u32, side: u8) -> Option<SideRef> {
        self.next[st as usize][side as usize]
    }

    /// The ring a station side sits on.
    ///
    /// # Panics
    ///
    /// Panics if the station has no such side.
    pub fn ring_of(&self, st: u32, side: u8) -> u32 {
        self.ring_of[st as usize][side as usize].expect("station has no such ring side")
    }

    /// The routing decision for a packet destined to `dst` observed at
    /// station `st` on ring side `side`.
    pub fn action(&self, st: u32, side: u8, dst: NodeId) -> RingAction {
        match self.stations[st as usize] {
            StationKind::Nic { pm } => {
                debug_assert_eq!(side, 0);
                if pm == dst {
                    RingAction::Eject
                } else {
                    RingAction::Forward
                }
            }
            StationKind::Iri { subtree: (lo, hi) } => {
                let inside = (lo..hi).contains(&dst.raw());
                match side {
                    0 => {
                        // On the child ring: leave the subtree upward,
                        // or keep circulating toward the local NIC / a
                        // deeper IRI.
                        if inside {
                            RingAction::Forward
                        } else {
                            RingAction::Up
                        }
                    }
                    _ => {
                        // On the parent ring: descend into the subtree
                        // or keep going around the parent ring.
                        if inside {
                            RingAction::Down
                        } else {
                            RingAction::Forward
                        }
                    }
                }
            }
        }
    }

    /// The unique route from `src` to `dst`: every station side a
    /// packet reaches after leaving `src`'s NIC, with what it does
    /// there, ending with `dst`'s NIC and [`RingAction::Eject`].
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local accesses do not enter the network)
    /// or, while iterating, if routing fails to terminate (a topology
    /// bug).
    pub fn route(
        &self,
        src: NodeId,
        dst: NodeId,
    ) -> impl Iterator<Item = (SideRef, RingAction)> + '_ {
        assert_ne!(src, dst, "local access does not use the network");
        let mut pos = Some(self.next_of(self.nic_of(src), 0));
        let mut steps = self.num_stations() * 2 + 4;
        std::iter::from_fn(move || {
            let (st, side) = pos?;
            steps = steps
                .checked_sub(1)
                .expect("routing walk did not terminate");
            let action = self.action(st, side, dst);
            pos = match action {
                RingAction::Eject => None,
                RingAction::Forward => Some(self.next_of(st, side)),
                RingAction::Up => Some(self.next_of(st, 1)),
                RingAction::Down => Some(self.next_of(st, 0)),
            };
            Some(((st, side), action))
        })
    }

    /// Number of link traversals a packet makes from `src`'s NIC output
    /// to ejection at `dst` (each traversal costs one cycle at normal
    /// ring speed). Zero-load one-way latency is `hops` plus queueing.
    ///
    /// # Panics
    ///
    /// Panics if `src == dst` (local accesses do not enter the network)
    /// or if routing fails to terminate (a topology bug).
    pub fn hops(&self, src: NodeId, dst: NodeId) -> u32 {
        self.route(src, dst).count() as u32
    }

    /// Number of ring changes (IRI up/down crossings) on the path from
    /// `src` to `dst`. Each crossing passes through two store-and-forward
    /// stages in the IRI (transit buffer, then up/down queue), so the
    /// zero-load one-way delivery latency of an `f`-flit packet is
    /// `hops + iri_crossings + f` cycles (the final `+1` of `f` being
    /// ejection at the destination NIC).
    ///
    /// # Panics
    ///
    /// As [`hops`](Self::hops).
    pub fn iri_crossings(&self, src: NodeId, dst: NodeId) -> u32 {
        let crossing =
            |&(_, a): &(SideRef, RingAction)| matches!(a, RingAction::Up | RingAction::Down);
        self.route(src, dst).filter(crossing).count() as u32
    }

    /// Link utilization by hierarchy depth, over `cycles` cycles in
    /// which ring `r` moved `ring_flits[r]` flits and the global ring
    /// (ring 0) was clocked `global_speed` times a cycle: busy
    /// link-cycles over available ones.
    pub(crate) fn utilization(
        &self,
        ring_flits: &[u64],
        cycles: u64,
        global_speed: u64,
    ) -> UtilizationReport {
        if cycles == 0 {
            return UtilizationReport::default();
        }
        let levels = self.levels();
        let mut busy = vec![0u64; levels];
        let mut cap = vec![0u64; levels];
        for (rid, ring) in self.rings() {
            let d = ring.depth as usize;
            let speed = if rid == 0 { global_speed } else { 1 };
            busy[d] += ring_flits[rid as usize];
            cap[d] += ring.members.len() as u64 * cycles * speed;
        }
        UtilizationReport {
            overall: busy.iter().sum::<u64>() as f64 / cap.iter().sum::<u64>().max(1) as f64,
            levels: (0..levels)
                .map(|d| LevelUtil {
                    label: self.depth_label(d as u32),
                    utilization: busy[d] as f64 / cap[d].max(1) as f64,
                })
                .collect(),
        }
    }

    /// Human-readable label for rings at `depth`, e.g. "global ring",
    /// "local rings".
    pub fn depth_label(&self, depth: u32) -> String {
        let levels = self.levels() as u32;
        if levels == 1 {
            return "ring".to_string();
        }
        if depth == 0 {
            "global ring".to_string()
        } else if depth + 1 == levels {
            "local rings".to_string()
        } else if levels == 3 {
            "intermediate rings".to_string()
        } else {
            format!("level-{depth} rings")
        }
    }
}

impl StationMap for RingTopology {
    fn num_stations(&self) -> usize {
        self.stations.len()
    }

    fn num_rings(&self) -> usize {
        self.rings.len()
    }

    fn station(&self, st: u32) -> StationKind {
        self.stations[st as usize]
    }

    fn link(&self, st: u32, side: u8) -> Option<(u32, SideRef)> {
        let (st, side) = (st as usize, side as usize);
        self.ring_of[st][side].zip(self.next[st][side])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(spec: &str) -> RingTopology {
        RingTopology::new(&spec.parse::<RingSpec>().unwrap())
    }

    #[test]
    fn spec_parse_and_display_round_trip() {
        for s in ["4", "3:6", "2:3:4", "2:3:3:6"] {
            let spec: RingSpec = s.parse().unwrap();
            assert_eq!(spec.to_string(), s);
        }
        assert!("".parse::<RingSpec>().is_err());
        assert!("2:0:4".parse::<RingSpec>().is_err());
        assert!("a:b".parse::<RingSpec>().is_err());
    }

    #[test]
    fn spec_pm_counts_match_table2() {
        // Table 2 row checks: 2:3:4 = 24, 3:3:12 = 108, 2:3:3:6 = 108.
        assert_eq!("2:3:4".parse::<RingSpec>().unwrap().num_pms(), 24);
        assert_eq!("3:3:12".parse::<RingSpec>().unwrap().num_pms(), 108);
        assert_eq!("2:3:3:6".parse::<RingSpec>().unwrap().num_pms(), 108);
    }

    #[test]
    fn single_ring_structure() {
        let t = topo("6");
        assert_eq!(t.num_pms(), 6);
        assert_eq!(t.num_rings(), 1);
        assert_eq!(t.num_stations(), 6); // NICs only, no IRIs
                                         // The ring closes on itself.
        let mut pos = (t.nic_of(NodeId::new(0)), 0u8);
        for _ in 0..6 {
            pos = t.next_of(pos.0, pos.1);
        }
        assert_eq!(pos.0, t.nic_of(NodeId::new(0)));
    }

    #[test]
    fn two_level_structure() {
        let t = topo("2:3"); // global ring with 2 local rings of 3 PMs
        assert_eq!(t.num_pms(), 6);
        assert_eq!(t.num_rings(), 3);
        // 6 NICs + 2 IRIs.
        assert_eq!(t.num_stations(), 8);
        // Local rings have 3 NICs + 1 IRI; global ring has 2 IRIs.
        assert_eq!(t.ring(0).members.len(), 2);
        assert_eq!(t.ring(0).depth, 0);
        assert_eq!(t.ring(1).members.len(), 4);
        assert_eq!(t.ring(1).depth, 1);
    }

    #[test]
    fn single_ring_hop_counts() {
        let t = topo("4");
        // Uni-directional: 0 -> 1 is 1 hop; 1 -> 0 wraps: 3 hops.
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(1)), 1);
        assert_eq!(t.hops(NodeId::new(0), NodeId::new(3)), 3);
        assert_eq!(t.hops(NodeId::new(1), NodeId::new(0)), 3);
        // Round trip around a P-node ring is always P hops.
        for a in 0..4u32 {
            for b in 0..4u32 {
                if a != b {
                    let rt = t.hops(NodeId::new(a), NodeId::new(b))
                        + t.hops(NodeId::new(b), NodeId::new(a));
                    assert_eq!(rt, 4, "{a}->{b}");
                }
            }
        }
    }

    #[test]
    fn hierarchical_routing_reaches_every_destination() {
        for spec in ["2:3", "2:3:4", "3:3:6", "2:3:3:6"] {
            let t = topo(spec);
            let p = t.num_pms();
            for a in 0..p {
                for b in 0..p {
                    if a != b {
                        // hops() panics internally if routing leaks.
                        let h = t.hops(NodeId::new(a), NodeId::new(b));
                        assert!(h >= 1);
                    }
                }
            }
        }
    }

    #[test]
    fn cross_ring_paths_are_longer() {
        let t = topo("2:3");
        // PMs 0..3 on local ring A, 3..6 on B. Same ring: short.
        let same = t.hops(NodeId::new(0), NodeId::new(1));
        // Cross-ring must traverse: local A -> IRI -> global -> IRI -> local B.
        let cross = t.hops(NodeId::new(0), NodeId::new(3));
        assert!(cross > same, "cross={cross} same={same}");
    }

    #[test]
    fn iri_subtree_intervals_partition_pms() {
        let t = topo("2:3:4");
        // Level-1 IRIs (on the global ring) have disjoint intervals covering all PMs.
        let mut intervals: Vec<(u32, u32)> = t
            .ring(0)
            .members
            .iter()
            .map(|&(st, _)| match t.station(st) {
                StationKind::Iri { subtree } => subtree,
                _ => panic!("global ring must consist of IRIs"),
            })
            .collect();
        intervals.sort();
        assert_eq!(intervals, vec![(0, 12), (12, 24)]);
    }

    #[test]
    fn actions_at_nic() {
        let t = topo("4");
        let st = t.nic_of(NodeId::new(2));
        assert_eq!(t.action(st, 0, NodeId::new(2)), RingAction::Eject);
        assert_eq!(t.action(st, 0, NodeId::new(3)), RingAction::Forward);
    }

    #[test]
    fn actions_at_iri() {
        let t = topo("2:3");
        // Find the IRI whose subtree is [0,3).
        let iri = (0..t.num_stations() as u32)
            .find(|&s| matches!(t.station(s), StationKind::Iri { subtree: (0, 3) }))
            .unwrap();
        // Child-ring side: stay inside subtree, leave otherwise.
        assert_eq!(t.action(iri, 0, NodeId::new(1)), RingAction::Forward);
        assert_eq!(t.action(iri, 0, NodeId::new(4)), RingAction::Up);
        // Parent-ring side: descend into subtree, else continue.
        assert_eq!(t.action(iri, 1, NodeId::new(1)), RingAction::Down);
        assert_eq!(t.action(iri, 1, NodeId::new(4)), RingAction::Forward);
    }

    #[test]
    fn depth_labels() {
        let t3 = topo("2:3:4");
        assert_eq!(t3.depth_label(0), "global ring");
        assert_eq!(t3.depth_label(1), "intermediate rings");
        assert_eq!(t3.depth_label(2), "local rings");
        let t1 = topo("8");
        assert_eq!(t1.depth_label(0), "ring");
    }

    #[test]
    fn station_count_formula() {
        // Stations = PMs + (number of non-root rings) since each
        // non-root ring contributes exactly one IRI.
        let t = topo("2:3:4");
        let non_root_rings = t.num_rings() - 1;
        assert_eq!(t.num_stations(), t.num_pms() as usize + non_root_rings);
    }
}
