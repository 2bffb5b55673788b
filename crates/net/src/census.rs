//! The census checker: the wormhole invariant stated once, and proved
//! against the packet store from what a snapshot walk reported.
//!
//! Every live packet is in exactly one place: queued whole, or split
//! into in-order worm pieces — its flits `0..flits` shared out, each
//! exactly once, among an assembler's received prefix (or a prefix a
//! sink or a store-and-forward pump consumed), the buffered flits and
//! a drain's unsent suffix. A restore runs the check on every read, so
//! a checkpoint that breaks the invariant is refused as corrupt before
//! a kernel steps over it; debug builds run it on every write too.

use ringmesh_snap::{Census, Codec, SnapError, SnapWriter};

use crate::netcore::Interconnect;
use crate::packet::{Packet, PacketStore};

/// Where the census found one live packet, apart from its buffered
/// flits.
#[derive(Debug, Clone, Copy, Default)]
struct Place {
    queued: u32,
    /// Flits its assembler received.
    prefix: Option<u32>,
    /// The next flit of its drain.
    drain: Option<u32>,
    /// A sink or pump consumed the flits ahead of its first one placed.
    consumed: bool,
}

fn corrupt<T>(what: String) -> Result<T, SnapError> {
    Err(SnapError::Corrupt(what))
}

/// The live packet in `slot`, which `what` names.
fn live<'a>(store: &'a PacketStore, slot: u32, what: &str) -> Result<&'a Packet, SnapError> {
    match store.at(slot) {
        Some(p) => Ok(p),
        None => corrupt(format!(
            "{what} names packet slot {slot}, which is not live"
        )),
    }
}

/// Proves the network share of `census` against `store`:
///
/// * every packet the census names is live, and every live packet is
///   placed;
/// * each is queued whole, or its flits `0..flits` are split exactly
///   among an assembler's prefix (or a consumed prefix), the buffered
///   flits and a drain's suffix;
/// * what a route or an assembler claims of its packet's destination
///   holds;
/// * a drain's total is its packet's length;
/// * only flit `flits − 1` of a packet carries the tail bit;
/// * each FIFO's run of flits is made of worm pieces, and a FIFO a
///   route steers holds the route's packet at its front.
///
/// # Errors
///
/// [`SnapError::Corrupt`] naming the first failure.
pub(crate) fn check_network(census: &Census, store: &PacketStore) -> Result<(), SnapError> {
    for &slot in &census.names {
        live(store, slot, "a reference")?;
    }
    for run in &census.runs {
        for pair in census.flits[run.clone()].windows(2) {
            let ((slot, seq, tail), (next, next_seq, _)) = (pair[0], pair[1]);
            let worm = if tail {
                next_seq == 0
            } else {
                next == slot && next_seq == seq + 1
            };
            if !worm {
                return corrupt(format!(
                    "flit {next_seq} of packet slot {next} after flit {seq} of slot {slot} \
                     breaks a worm"
                ));
            }
        }
    }
    for &(slot, seq, tail) in &census.flits {
        let flits = live(store, slot, "a buffered flit")?.flits;
        if seq >= flits || tail != (seq + 1 == flits) {
            let bit = if tail { "with" } else { "without" };
            return corrupt(format!(
                "packet slot {slot}: flit {seq} {bit} the tail bit, in a packet of {flits} flits"
            ));
        }
    }
    for &(run, held) in &census.routed {
        let front = census.runs[run].clone().next().map(|at| census.flits[at]);
        match (front, held) {
            (Some((slot, seq, _)), Some(held)) if slot != held => {
                return corrupt(format!(
                    "a route holds packet slot {held} for a FIFO whose front is flit {seq} of \
                     slot {slot}"
                ));
            }
            (Some((slot, seq, _)), None) if seq != 0 => {
                return corrupt(format!(
                    "a FIFO whose front is flit {seq} of packet slot {slot} holds no route"
                ));
            }
            _ => {}
        }
    }

    let mut places = vec![Place::default(); store.slot_count()];
    for &slot in &census.queued {
        live(store, slot, "a queue")?;
        places[slot as usize].queued += 1;
    }
    for &(slot, received) in &census.prefixes {
        let flits = live(store, slot, "an assembler")?.flits;
        let place = &mut places[slot as usize];
        if place.prefix.is_some() || received == 0 || received >= flits {
            return corrupt(format!(
                "packet slot {slot}: an assembler holds {received} of its {flits} flits"
            ));
        }
        place.prefix = Some(received);
    }
    for &(slot, next, total) in &census.drains {
        let flits = live(store, slot, "a drain")?.flits;
        let place = &mut places[slot as usize];
        if place.drain.is_some() || total != flits || next >= total {
            return corrupt(format!(
                "packet slot {slot}: a drain at flit {next} of {total}, of a {flits}-flit packet"
            ));
        }
        place.drain = Some(next);
    }
    for &slot in &census.consumed {
        live(store, slot, "a sink")?;
        places[slot as usize].consumed = true;
    }
    for (slot, pms, inside) in &census.claims {
        let dst = live(store, *slot, "a claim")?.dst;
        if pms.contains(&dst.raw()) != *inside {
            let not = if *inside { "" } else { "not " };
            return corrupt(format!(
                "packet slot {slot}: held as bound {not}for PMs {pms:?}, its destination is {dst}"
            ));
        }
    }

    // The buffered flits of each packet, in slot then sequence order.
    let mut buffered: Vec<(u32, u32)> = census.flits.iter().map(|&(s, q, _)| (s, q)).collect();
    buffered.sort_unstable();
    let mut rest = &buffered[..];
    for (r, p) in store.iter() {
        let slot = r.slot() as u32;
        let n = rest.iter().take_while(|&&(s, _)| s == slot).count();
        let (seqs, tail) = rest.split_at(n);
        rest = tail;
        let place = places[r.slot()];
        let fail = |what: &str| corrupt(format!("packet slot {slot} ({} flits): {what}", p.flits));
        if place.queued > 0 {
            if place.queued > 1 {
                return fail("queued twice");
            }
            if !seqs.is_empty() || place.prefix.is_some() || place.drain.is_some() || place.consumed
            {
                return fail("queued whole and in flight");
            }
            continue;
        }
        if seqs.is_empty() && place.prefix.is_none() && place.drain.is_none() {
            return fail("live but placed nowhere");
        }
        let hi = place.drain.unwrap_or(p.flits);
        let lo = match (place.prefix, place.consumed) {
            (Some(_), true) => return fail("both assembled and consumed"),
            (Some(received), false) => received,
            (None, true) => seqs.first().map_or(hi, |&(_, seq)| seq),
            (None, false) => 0,
        };
        if lo > hi || !seqs.iter().map(|&(_, seq)| seq).eq(lo..hi) {
            return fail(&format!(
                "flits {lo}..{hi} should be buffered, the buffers hold {:?}",
                seqs.iter().map(|&(_, seq)| seq).collect::<Vec<_>>()
            ));
        }
    }
    Ok(())
}

/// Proves the workload share of `census` against `store` for a
/// checkpoint taken before cycle `now`: no transaction was issued
/// after `now`, and each processor's outstanding count is the number
/// of its transactions found in flight (a request it sent, a response
/// to it) and held at the memories, unless the workload claims no
/// counts.
///
/// # Errors
///
/// [`SnapError::Corrupt`] naming the first stamp or processor that
/// disagrees.
pub fn check_workload(census: &Census, store: &PacketStore, now: u64) -> Result<(), SnapError> {
    if let Some(stamp) = census.stamps.iter().find(|&&stamp| stamp > now) {
        return corrupt(format!(
            "a transaction issued at cycle {stamp}, after {now}"
        ));
    }
    if census.outstanding.is_empty() {
        return Ok(());
    }
    let mut found = vec![0u64; census.outstanding.len()];
    let in_flight = store.iter().map(|(_, p)| {
        let pm = if p.kind.is_request() { p.src } else { p.dst };
        pm.raw()
    });
    for pm in in_flight.chain(census.held.iter().copied()) {
        match found.get_mut(pm as usize) {
            Some(n) => *n += 1,
            None => return corrupt(format!("a transaction of PM{pm}, beyond the processors")),
        }
    }
    for (pm, (&claimed, &found)) in census.outstanding.iter().zip(&found).enumerate() {
        if u64::from(claimed) != found {
            return corrupt(format!(
                "processor {pm}: {claimed} transactions outstanding, {found} in flight or at \
                 the memories"
            ));
        }
    }
    Ok(())
}

/// Takes `net`'s census through its snapshot walk and proves it as a
/// restore does (see the module docs): the entry point for a check
/// outside a checkpoint, such as the end of an oracle run. Unlike a
/// checkpoint it accepts a network with a fault injector installed.
///
/// # Errors
///
/// [`SnapError::Corrupt`] naming the first failure.
pub fn census(net: &mut dyn Interconnect) -> Result<(), SnapError> {
    let mut w = SnapWriter::with_census();
    w.object(net)?;
    let census = w.census().expect("a census was asked for");
    check_network(census, net.core().store())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{NodeId, PacketKind, TxnId};

    /// A store of packets of `flits` flits, slots 0.., each a response
    /// from PM 0 to PM 1 issued at cycle 5.
    fn store(flits: &[u32]) -> PacketStore {
        let mut store = PacketStore::new();
        for &flits in flits {
            store.insert(Packet {
                txn: TxnId::new(0),
                kind: PacketKind::ReadResp,
                src: NodeId::new(0),
                dst: NodeId::new(1),
                flits,
                injected_at: 5,
            });
        }
        store
    }

    /// The flits `seqs` of the packet in `slot`, as one FIFO's run.
    fn run(census: &mut Census, slot: u32, seqs: std::ops::Range<u32>, flits: u32) {
        let from = census.flits.len();
        census
            .flits
            .extend(seqs.map(|seq| (slot, seq, seq + 1 == flits)));
        census.runs.push(from..census.flits.len());
    }

    fn assert_corrupt(result: Result<(), SnapError>, what: &str) {
        match result {
            Err(SnapError::Corrupt(msg)) => assert!(msg.contains(what), "{what}: {msg}"),
            other => panic!("{what}: {other:?}"),
        }
    }

    /// A 5-flit packet split among an assembler (flit 0), two FIFOs
    /// (1, then 2–3) and a drain (4) is placed; so is one queued whole.
    #[test]
    fn a_worm_split_exactly_is_placed() {
        let store = store(&[5, 1]);
        let mut census = Census::default();
        census.prefixes.push((0, 1));
        run(&mut census, 0, 1..2, 5);
        run(&mut census, 0, 2..4, 5);
        census.drains.push((0, 4, 5));
        census.queued.push(1);
        assert_eq!(check_network(&census, &store), Ok(()));
    }

    #[test]
    fn a_flit_missing_twice_placed_or_overlapping_is_corrupt() {
        let store = store(&[5]);
        let split = |prefix, fifo: std::ops::Range<u32>, next| {
            let mut census = Census::default();
            census.prefixes.push((0, prefix));
            run(&mut census, 0, fifo, 5);
            census.drains.push((0, next, 5));
            check_network(&census, &store)
        };
        assert_eq!(split(1, 1..4, 4), Ok(()));
        assert_corrupt(split(1, 2..4, 4), "flits 1..4 should be buffered");
        assert_corrupt(split(1, 1..4, 3), "flits 1..3 should be buffered");
        // The assembler and the drain both claim flits 2 and 3.
        assert_corrupt(split(4, 4..4, 2), "flits 4..2");
        let mut census = Census::default();
        census.queued.extend([0, 0]);
        assert_corrupt(check_network(&census, &store), "queued twice");
        census.queued.pop();
        census.drains.push((0, 0, 5));
        assert_corrupt(check_network(&census, &store), "queued whole and in flight");
        assert_corrupt(
            check_network(&Census::default(), &store),
            "live but placed nowhere",
        );
    }

    /// A sink or a pump consumed the flits ahead of the first placed.
    #[test]
    fn a_consumed_prefix_is_placed() {
        let store = store(&[5]);
        let mut census = Census::default();
        census.consumed.push(0);
        run(&mut census, 0, 3..5, 5);
        assert_eq!(check_network(&census, &store), Ok(()));
        census.prefixes.push((0, 3));
        assert_corrupt(
            check_network(&census, &store),
            "both assembled and consumed",
        );
    }

    #[test]
    fn routes_and_assemblers_claim_their_packets_destination() {
        let store = store(&[1]);
        let mut census = Census::default();
        run(&mut census, 0, 0..1, 1);
        census.claims.push((0, 1..2, true));
        census.claims.push((0, 2..6, false));
        assert_eq!(check_network(&census, &store), Ok(()));
        census.claims.push((0, 0..1, true));
        assert_corrupt(
            check_network(&census, &store),
            "held as bound for PMs 0..1, its destination is PM1",
        );
    }

    #[test]
    fn a_route_steers_the_packet_at_its_fifos_front() {
        let store = store(&[2, 2]);
        let steered = |held| {
            let mut census = Census::default();
            census.prefixes.push((0, 1));
            run(&mut census, 0, 1..2, 2);
            run(&mut census, 1, 0..2, 2);
            census.routed.push((0, held));
            check_network(&census, &store)
        };
        assert_eq!(steered(Some(0)), Ok(()));
        assert_corrupt(steered(Some(1)), "a route holds packet slot 1");
        assert_corrupt(steered(None), "holds no route");
    }

    #[test]
    fn the_workload_share_counts_transactions_and_stamps() {
        // Two responses to PM 1 in flight, one queued at a memory.
        let store = store(&[1, 1]);
        let mut census = Census {
            outstanding: vec![0, 3],
            held: vec![1],
            stamps: vec![5, 5, 9],
            ..Census::default()
        };
        assert_eq!(check_workload(&census, &store, 9), Ok(()));
        assert_corrupt(
            check_workload(&census, &store, 8),
            "issued at cycle 9, after 8",
        );
        census.outstanding = vec![1, 2];
        assert_corrupt(
            check_workload(&census, &store, 9),
            "processor 0: 1 transactions outstanding, 0 in flight",
        );
        // A retry layer keeps its own counts.
        census.outstanding.clear();
        assert_eq!(check_workload(&census, &store, 9), Ok(()));
    }
}
