//! The per-PM memory module.
//!
//! Each PM owns a contiguous slice of the flat global address space;
//! its memory module services read/write requests after a fixed access
//! latency (optionally rate-limited by an occupancy interval between
//! service starts) and sends the response packet back through the
//! network. Local accesses take the same memory timing but bypass the
//! network entirely (§2 of the paper).

use std::collections::VecDeque;

use ringmesh_net::{Interconnect, NodeId, Packet, QueueClass};
use ringmesh_snap::{Codec, Snap, SnapError};

use crate::{MemoryParams, PacketSizer};

/// One PM's memory module.
#[derive(Debug)]
pub struct MemoryModule {
    pm: NodeId,
    params: MemoryParams,
    sizer: PacketSizer,
    /// Responses waiting for their ready time / a free NIC queue slot,
    /// in ready-time order (service starts are monotonic).
    pending: VecDeque<(u64, Packet)>,
    /// Local-access completions: `(ready_at, issued_at)`.
    local: VecDeque<(u64, u64)>,
    last_start: Option<u64>,
    served: u64,
}

impl MemoryModule {
    /// Creates the memory module of `pm`.
    pub(crate) fn new(pm: NodeId, params: MemoryParams, sizer: PacketSizer) -> Self {
        MemoryModule {
            pm,
            params,
            sizer,
            pending: VecDeque::new(),
            local: VecDeque::new(),
            last_start: None,
            served: 0,
        }
    }

    /// Total requests accepted (remote + local).
    pub fn served(&self) -> u64 {
        self.served
    }

    fn next_start(&mut self, now: u64) -> u64 {
        let start = match self.last_start {
            Some(last) => now.max(last + u64::from(self.params.occupancy)),
            None => now,
        };
        self.last_start = Some(start);
        self.served += 1;
        start
    }

    /// Accepts a remote request delivered by the network at `now`; the
    /// response becomes ready after the access latency, at the cycle
    /// returned.
    pub(crate) fn accept(&mut self, req: &Packet, now: u64) -> u64 {
        debug_assert_eq!(req.dst, self.pm, "request delivered to wrong memory");
        debug_assert!(req.kind.is_request());
        let ready = self.next_start(now) + u64::from(self.params.latency);
        let kind = req.kind.response();
        let resp = Packet {
            txn: req.txn,
            kind,
            src: self.pm,
            dst: req.src,
            flits: self.sizer.flits(kind),
            // Propagate the original issue time so round-trip latency
            // can be computed at delivery without a side table.
            injected_at: req.injected_at,
        };
        self.pending.push_back((ready, resp));
        ready
    }

    /// Accepts a local access at `now` whose measured issue instant is
    /// `issued_at`; it completes after the access latency without
    /// touching the network, at the cycle returned.
    pub(crate) fn accept_local(&mut self, now: u64, issued_at: u64) -> u64 {
        let ready = self.next_start(now) + u64::from(self.params.latency);
        self.local.push_back((ready, issued_at));
        ready
    }

    /// The earliest ready time of a queued response or local access;
    /// `None` when both queues are empty.
    pub(crate) fn next_ready(&self) -> Option<u64> {
        let response = self.pending.front().map(|&(ready, _)| ready);
        match (response, self.next_local_ready()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// The earliest ready time of a local access; `None` when there
    /// is none.
    pub(crate) fn next_local_ready(&self) -> Option<u64> {
        self.local.front().map(|&(ready, _)| ready)
    }

    /// Injects ready responses into the network while the NIC response
    /// queue has room, and returns whether it stopped at a ready
    /// response the NIC refused.
    pub(crate) fn inject_ready(&mut self, net: &mut dyn Interconnect, now: u64) -> bool {
        while let Some(&(ready, _)) = self.pending.front() {
            if ready > now {
                return false;
            }
            if !net.can_inject(self.pm, QueueClass::Response) {
                return true;
            }
            // The response carries the request's issue instant; its own
            // network entry time is immaterial to the measurement.
            let (_, resp) = self.pending.pop_front().expect("front checked");
            net.inject(self.pm, resp);
        }
        false
    }

    /// Pops local accesses completing by `now`, returning their issue
    /// times.
    pub(crate) fn pop_local_ready(&mut self, now: u64, out: &mut Vec<u64>) {
        while let Some(&(ready, issued)) = self.local.front() {
            if ready <= now {
                self.local.pop_front();
                out.push(issued);
            } else {
                break;
            }
        }
    }
}

/// The census learns the PM of each transaction the module holds (a
/// queued response's requester, a local access's own PM) and when a
/// local access was issued.
impl Snap for MemoryModule {
    fn snap<C: Codec>(&mut self, c: &mut C) -> Result<(), SnapError> {
        c.exact(self.pm.raw(), "memory PM")?;
        self.pending.snap(c)?;
        self.local.snap(c)?;
        let responses = self.pending.iter().map(|(_, resp)| resp.dst.raw());
        let local = self.local.iter().map(|_| self.pm.raw());
        c.report(|census| {
            census.held.extend(responses.chain(local));
            census
                .stamps
                .extend(self.local.iter().map(|&(_, issued)| issued));
        });
        self.last_start.snap(c)?;
        self.served.snap(c)
    }
}

impl MemoryModule {
    /// Checks a restored module of a machine of `pms` PMs: every queued
    /// response leaves this PM for another PM of the machine and is as
    /// long as its kind, and both queues are in ready order, as service
    /// starts are.
    pub(crate) fn validate(&self, pms: usize) -> Result<(), SnapError> {
        let pm = self.pm;
        let corrupt = |what: String| Err(SnapError::Corrupt(format!("memory {pm}: {what}")));
        for (_, resp) in &self.pending {
            if resp.src != pm || resp.dst == pm || resp.dst.index() >= pms {
                return corrupt(format!("response {} -> {}", resp.src, resp.dst));
            }
            if resp.kind.is_request() {
                return corrupt(format!("queued response of kind {:?}", resp.kind));
            }
            if resp.flits != self.sizer.flits(resp.kind) {
                return corrupt(format!("{:?} of {} flits", resp.kind, resp.flits));
            }
        }
        if !self.pending.iter().map(|&(ready, _)| ready).is_sorted()
            || !self.local.iter().map(|&(ready, _)| ready).is_sorted()
        {
            return corrupt("ready times out of order".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ringmesh_net::{CacheLineSize, PacketFormat, PacketKind, TxnId};

    fn sizer() -> PacketSizer {
        PacketSizer {
            format: PacketFormat::RING,
            cache_line: CacheLineSize::B32,
        }
    }

    fn req(txn: u64, src: u32, dst: u32, kind: PacketKind) -> Packet {
        Packet {
            txn: TxnId::new(txn),
            kind,
            src: NodeId::new(src),
            dst: NodeId::new(dst),
            flits: 1,
            injected_at: 5,
        }
    }

    #[test]
    fn read_produces_data_response_after_latency() {
        let mut m = MemoryModule::new(
            NodeId::new(1),
            MemoryParams {
                latency: 10,
                occupancy: 1,
            },
            sizer(),
        );
        m.accept(&req(7, 0, 1, PacketKind::ReadReq), 100);
        let (ready, resp) = m.pending.front().copied().unwrap();
        assert_eq!(ready, 110);
        assert_eq!(resp.kind, PacketKind::ReadResp);
        assert_eq!(resp.src, NodeId::new(1));
        assert_eq!(resp.dst, NodeId::new(0));
        assert_eq!(resp.flits, 3); // 32B line on the ring
        assert_eq!(resp.injected_at, 5, "issue time propagated");
    }

    #[test]
    fn write_produces_header_only_ack() {
        let mut m = MemoryModule::new(NodeId::new(1), MemoryParams::default(), sizer());
        m.accept(&req(7, 0, 1, PacketKind::WriteReq), 0);
        let (_, resp) = m.pending.front().copied().unwrap();
        assert_eq!(resp.kind, PacketKind::WriteResp);
        assert_eq!(resp.flits, 1);
    }

    #[test]
    fn occupancy_serializes_service_starts() {
        let mut m = MemoryModule::new(
            NodeId::new(0),
            MemoryParams {
                latency: 10,
                occupancy: 4,
            },
            sizer(),
        );
        m.accept(&req(1, 1, 0, PacketKind::ReadReq), 0);
        m.accept(&req(2, 1, 0, PacketKind::ReadReq), 0);
        m.accept(&req(3, 1, 0, PacketKind::ReadReq), 0);
        let readies: Vec<u64> = m.pending.iter().map(|&(r, _)| r).collect();
        assert_eq!(readies, vec![10, 14, 18]);
    }

    #[test]
    fn local_accesses_complete_after_latency() {
        let mut m = MemoryModule::new(
            NodeId::new(0),
            MemoryParams {
                latency: 8,
                occupancy: 1,
            },
            sizer(),
        );
        m.accept_local(50, 50);
        let mut out = Vec::new();
        m.pop_local_ready(57, &mut out);
        assert!(out.is_empty());
        m.pop_local_ready(58, &mut out);
        assert_eq!(out, vec![50]);
    }

    #[test]
    fn a_queued_response_of_the_wrong_length_is_corrupt() {
        let mut m = MemoryModule::new(NodeId::new(1), MemoryParams::default(), sizer());
        m.accept(&req(7, 0, 1, PacketKind::ReadReq), 0);
        m.validate(2).expect("as accepted");
        m.pending[0].1.flits = 131;
        match m.validate(2) {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains("131 flits"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn served_counts_all_accesses() {
        let mut m = MemoryModule::new(NodeId::new(0), MemoryParams::default(), sizer());
        m.accept(&req(1, 1, 0, PacketKind::ReadReq), 0);
        m.accept_local(0, 0);
        assert_eq!(m.served(), 2);
    }
}
