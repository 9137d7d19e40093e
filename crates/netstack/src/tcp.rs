//! TCP receive-side state: in-order enforcement with the kernel's
//! per-packet out-of-order queue, plus the sender's window accounting.
//!
//! This is the *stateful* stage that MFLOW must merge micro-flows before.
//! When packets arrive out of order (e.g. because a flow was split without
//! reassembly), every early packet pays an expensive `tcp_ooo_insert`,
//! which is exactly the overhead the paper's batch-based reassembly avoids.

use std::collections::BTreeMap;

use crate::skb::Skb;

/// Per-flow TCP receive state, factored out of [`TcpReceiver`] so it can
/// be *cloned per lane* under state-compute replication: every lane holds
/// its own replica and advances it idempotently over the segments that
/// lane happens to see, while the authoritative copy (the reconciler)
/// runs the same strict machine over the merged record stream.
///
/// All byte offsets are `u64` cumulative stream offsets, so streams that
/// start near `u32::MAX` (wire-level sequence wraparound) need no modular
/// arithmetic here — the unit tests below cross that boundary explicitly.
#[derive(Clone, Debug, Default)]
pub struct FlowState {
    /// Next expected payload byte offset.
    expected: u64,
    /// Out-of-order queue keyed by byte offset.
    ooo: BTreeMap<u64, Skb>,
    /// Total skbs that took the out-of-order path.
    ooo_inserts: u64,
    /// Largest wire sequence seen (for arrival-order inversion stats).
    max_wire_seq: Option<u64>,
    /// Count of arrival-order inversions observed at this stage.
    inversions: u64,
    /// Duplicate / overlapping segments discarded.
    dups: u64,
}

impl FlowState {
    /// Creates state expecting byte 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next expected byte offset.
    pub fn expected(&self) -> u64 {
        self.expected
    }

    /// Skbs that were inserted into the out-of-order queue.
    pub fn ooo_inserts(&self) -> u64 {
        self.ooo_inserts
    }

    /// Arrival-order inversions seen (wire_seq lower than a prior one).
    pub fn inversions(&self) -> u64 {
        self.inversions
    }

    /// Duplicates discarded.
    pub fn dups(&self) -> u64 {
        self.dups
    }

    /// Skbs currently parked in the out-of-order queue.
    pub fn ooo_len(&self) -> usize {
        self.ooo.len()
    }

    fn note_arrival(&mut self, wire_seq: u64) {
        if let Some(max) = self.max_wire_seq {
            if wire_seq < max {
                self.inversions += 1;
            }
        }
        self.max_wire_seq = Some(self.max_wire_seq.map_or(wire_seq, |m| m.max(wire_seq)));
    }

    /// Receives one skb. Returns `(deliverable, ooo_inserted)`: the skbs
    /// now deliverable in order (possibly including previously parked
    /// ones), and whether this skb took the out-of-order path.
    pub fn receive(&mut self, skb: Skb) -> (Vec<Skb>, bool) {
        self.note_arrival(skb.wire_seq);

        if skb.byte_end() <= self.expected {
            self.dups += 1;
            return (Vec::new(), false);
        }
        if skb.byte_seq != self.expected {
            // Hole: park it. (Overlap handling: keyed by start offset;
            // duplicates with identical offset are dropped.)
            let inserted = self.ooo.insert(skb.byte_seq, skb);
            if inserted.is_some() {
                self.dups += 1;
            }
            self.ooo_inserts += 1;
            return (Vec::new(), true);
        }
        let mut out = Vec::with_capacity(1 + self.ooo.len());
        self.expected = skb.byte_end();
        out.push(skb);
        // Drain any parked segments that are now contiguous.
        while let Some(entry) = self.ooo.first_entry() {
            if *entry.key() == self.expected {
                let s = entry.remove();
                self.expected = s.byte_end();
                out.push(s);
            } else if *entry.key() < self.expected {
                // Stale overlap.
                entry.remove();
                self.dups += 1;
            } else {
                break;
            }
        }
        (out, false)
    }

    /// State-compute-replication advance for a *lane replica*: identical
    /// bookkeeping to [`receive`](Self::receive), except segments are
    /// emitted as delivery records the moment this replica first sees
    /// them (a lane only holds its share of the flow, so holes are the
    /// normal case, not the exception — records go downstream and the
    /// reconciler restores order).
    ///
    /// Returns `Some(record)` exactly once per distinct segment; a second
    /// advance over the same segment is a no-op (`None`), which is what
    /// makes replicated transitions safe to replay after duplication or
    /// redispatch. The replica's `expected` watermark tracks the strict
    /// machine byte for byte, so a suppression here implies the
    /// reconciler already received records covering those bytes.
    pub fn advance_replicated(&mut self, skb: Skb) -> Option<Skb> {
        self.note_arrival(skb.wire_seq);

        if skb.byte_end() <= self.expected {
            self.dups += 1;
            return None;
        }
        if skb.byte_seq != self.expected {
            if self.ooo.contains_key(&skb.byte_seq) {
                // Already recorded this segment out of order.
                self.dups += 1;
                return None;
            }
            self.ooo.insert(skb.byte_seq, skb.clone());
            self.ooo_inserts += 1;
            return Some(skb);
        }
        self.expected = skb.byte_end();
        let record = skb;
        // Ride the watermark over parked segments whose records already
        // went out — same drain as `receive`, minus the re-emission.
        while let Some(entry) = self.ooo.first_entry() {
            if *entry.key() == self.expected {
                let s = entry.remove();
                self.expected = s.byte_end();
            } else if *entry.key() < self.expected {
                // Stale overlap.
                entry.remove();
                self.dups += 1;
            } else {
                break;
            }
        }
        Some(record)
    }

    /// A crash-consistent restore point: an independent deep copy of the
    /// watermark, the out-of-order queue and every counter. A restored
    /// copy fed the remaining segment stream delivers byte-identically to
    /// the uninterrupted machine — the same contract the runtime's
    /// merger-state checkpoints rely on for `MergeCounter`, extended
    /// here so the simulator's stateful stage is snapshot-capable too.
    pub fn snapshot(&self) -> Self {
        self.clone()
    }

    /// Estimated snapshot size in bytes (parked skbs dominate; map
    /// overhead approximated). For checkpoint telemetry, not a wire
    /// format.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        (size_of::<Self>() + self.ooo.len() * (size_of::<u64>() + size_of::<Skb>())) as u64
    }
}

/// Receive-side reordering state for one TCP flow: the authoritative
/// (strict, in-order-delivering) view over a [`FlowState`].
#[derive(Debug, Default)]
pub struct TcpReceiver {
    state: FlowState,
}

impl TcpReceiver {
    /// Creates state expecting byte 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next expected byte offset.
    pub fn expected(&self) -> u64 {
        self.state.expected()
    }

    /// Skbs that were inserted into the out-of-order queue.
    pub fn ooo_inserts(&self) -> u64 {
        self.state.ooo_inserts()
    }

    /// Arrival-order inversions seen (wire_seq lower than a prior one).
    pub fn inversions(&self) -> u64 {
        self.state.inversions()
    }

    /// Duplicates discarded.
    pub fn dups(&self) -> u64 {
        self.state.dups()
    }

    /// Skbs currently parked in the out-of-order queue.
    pub fn ooo_len(&self) -> usize {
        self.state.ooo_len()
    }

    /// Receives one skb. Returns `(deliverable, ooo_inserted)`: the skbs
    /// now deliverable in order (possibly including previously parked
    /// ones), and whether this skb took the out-of-order path.
    pub fn receive(&mut self, skb: Skb) -> (Vec<Skb>, bool) {
        self.state.receive(skb)
    }
}

/// One maximum segment size, for congestion-window arithmetic.
pub const MSS: u64 = 1448;

/// Sender-side window and congestion control for one TCP flow: classic
/// slow start + AIMD congestion avoidance, with timeout-driven recovery
/// (the stack retransmits from the cumulative ACK on RTO).
#[derive(Clone, Copy, Debug)]
pub struct TcpSender {
    /// Receive-window cap (the paper's ~2000 outstanding MTU packets
    /// corresponds to ~3 MB).
    pub window_bytes: u64,
    /// Congestion window.
    pub cwnd_bytes: u64,
    /// Slow-start threshold.
    pub ssthresh: u64,
    /// Currently unacknowledged payload bytes.
    pub inflight: u64,
    /// Total payload bytes handed to the wire (highest byte offset sent).
    pub sent_bytes: u64,
    /// Total payload bytes acknowledged (cumulative ACK point).
    pub acked_bytes: u64,
    /// Retransmissions triggered.
    pub retransmits: u64,
}

impl TcpSender {
    /// Creates a sender with the given receive-window cap, starting in
    /// slow start with the standard 10-MSS initial window.
    pub fn new(window_bytes: u64) -> Self {
        Self {
            window_bytes,
            cwnd_bytes: 10 * MSS,
            ssthresh: u64::MAX,
            inflight: 0,
            sent_bytes: 0,
            acked_bytes: 0,
            retransmits: 0,
        }
    }

    /// The effective window: min(receive window, congestion window).
    pub fn effective_window(&self) -> u64 {
        self.window_bytes.min(self.cwnd_bytes)
    }

    /// Bytes that may be sent right now.
    pub fn available_window(&self) -> u64 {
        self.effective_window().saturating_sub(self.inflight)
    }

    /// Records `bytes` handed to the wire.
    pub fn on_send(&mut self, bytes: u64) {
        self.inflight += bytes;
        self.sent_bytes += bytes;
    }

    /// Records an ACK covering `bytes` new bytes and grows the congestion
    /// window (exponentially in slow start, ~1 MSS per window in
    /// congestion avoidance).
    pub fn on_ack(&mut self, bytes: u64) {
        let b = bytes.min(self.inflight);
        self.inflight -= b;
        self.acked_bytes += b;
        if self.cwnd_bytes < self.ssthresh {
            self.cwnd_bytes = (self.cwnd_bytes + b).min(self.window_bytes.max(10 * MSS));
        } else {
            let grow = (MSS * b) / self.cwnd_bytes.max(1);
            self.cwnd_bytes =
                (self.cwnd_bytes + grow.max(1)).min(self.window_bytes.max(10 * MSS));
        }
    }

    /// Reacts to a retransmission timeout: halve into `ssthresh`, collapse
    /// the congestion window, and rewind the send point to the cumulative
    /// ACK so the hole is resent.
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.inflight / 2).max(2 * MSS);
        self.cwnd_bytes = 10 * MSS;
        self.inflight = 0;
        self.sent_bytes = self.acked_bytes;
        self.retransmits += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seg(wire_seq: u64, byte_seq: u64, len: u32) -> Skb {
        Skb::new(wire_seq, 0, len + 66, len, byte_seq, 0)
    }

    #[test]
    fn in_order_stream_passes_straight_through() {
        let mut rx = TcpReceiver::new();
        for i in 0..100u64 {
            let (out, ooo) = rx.receive(seg(i, i * 1448, 1448));
            assert!(!ooo);
            assert_eq!(out.len(), 1);
        }
        assert_eq!(rx.ooo_inserts(), 0);
        assert_eq!(rx.inversions(), 0);
        assert_eq!(rx.expected(), 100 * 1448);
    }

    #[test]
    fn hole_parks_until_filled() {
        let mut rx = TcpReceiver::new();
        let (out, ooo) = rx.receive(seg(1, 1448, 1448));
        assert!(ooo);
        assert!(out.is_empty());
        assert_eq!(rx.ooo_len(), 1);
        // The missing first segment releases both.
        let (out, ooo) = rx.receive(seg(0, 0, 1448));
        assert!(!ooo);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].byte_seq, 0);
        assert_eq!(out[1].byte_seq, 1448);
        assert_eq!(rx.ooo_len(), 0);
        assert_eq!(rx.expected(), 2896);
    }

    #[test]
    fn reversed_burst_counts_inversions_and_inserts() {
        let mut rx = TcpReceiver::new();
        let n = 10u64;
        for i in (0..n).rev() {
            rx.receive(seg(i, i * 100, 100));
        }
        // Every packet except the last-arriving (wire_seq 0..) is an
        // inversion relative to the max seen.
        assert_eq!(rx.inversions(), n - 1);
        assert_eq!(rx.ooo_inserts(), n - 1);
        assert_eq!(rx.expected(), n * 100);
    }

    #[test]
    fn duplicates_are_discarded() {
        let mut rx = TcpReceiver::new();
        rx.receive(seg(0, 0, 100));
        let (out, _) = rx.receive(seg(1, 0, 100));
        assert!(out.is_empty());
        assert_eq!(rx.dups(), 1);
        assert_eq!(rx.expected(), 100);
    }

    #[test]
    fn interleaved_two_streams_reassemble() {
        // Micro-flow-like pattern: batches of 4 from two "cores" landing
        // alternately, second batch first.
        let mut rx = TcpReceiver::new();
        let mut delivered = Vec::new();
        let batch_a: Vec<Skb> = (0..4).map(|i| seg(i, i * 10, 10)).collect();
        let batch_b: Vec<Skb> = (4..8).map(|i| seg(i, i * 10, 10)).collect();
        for s in batch_b.into_iter().chain(batch_a) {
            let (out, _) = rx.receive(s);
            delivered.extend(out.into_iter().map(|s| s.byte_seq));
        }
        assert_eq!(delivered, vec![0, 10, 20, 30, 40, 50, 60, 70]);
    }

    #[test]
    fn stream_crossing_u32_wrap_boundary_delivers_in_order() {
        // Cumulative byte offsets straddling u32::MAX: the wire-level
        // sequence number would wrap here, but the model's u64 stream
        // offsets must sail straight through.
        let wrap = u32::MAX as u64;
        let start = wrap - 2 * 1448;
        let mut rx = TcpReceiver::new();
        // Pre-wrap prefix delivers the receiver up to `start`.
        let (out, _) = rx.receive(seg(0, 0, start as u32));
        assert_eq!(out.len(), 1);
        assert_eq!(rx.expected(), start);
        // Segments 0..4 cross the boundary; deliver them out of order.
        let offs: Vec<u64> = (0..4).map(|i| start + i * 1448).collect();
        for (w, &o) in [3usize, 1, 0, 2].iter().zip([offs[3], offs[1], offs[0], offs[2]].iter()) {
            rx.receive(seg(1 + *w as u64, o, 1448));
        }
        assert_eq!(rx.expected(), start + 4 * 1448);
        assert!(rx.expected() > wrap, "stream must end past the wrap point");
        assert_eq!(rx.ooo_len(), 0);
    }

    #[test]
    fn replica_crossing_u32_wrap_matches_strict_watermark() {
        let wrap = u32::MAX as u64;
        let start = wrap - 1448;
        let mut strict = FlowState::new();
        let mut replica = FlowState::new();
        let segs = [seg(0, 0, start as u32), seg(1, start, 1448), seg(2, start + 1448, 1448)];
        for s in &segs {
            strict.receive(s.clone());
            assert!(replica.advance_replicated(s.clone()).is_some());
        }
        assert_eq!(replica.expected(), strict.expected());
        assert!(replica.expected() > wrap);
    }

    #[test]
    fn partial_overlap_straddling_expected_drops_the_stale_copy() {
        // Deliver [0,100); then a super-segment [0,300) arrives (a
        // retransmit that got re-grouped). Strict semantics: it parks at
        // offset 0 and is discarded as a stale overlap once the stream
        // advances — its tail is *not* spliced in; the closed loop must
        // retransmit [100,300) on its own boundaries.
        let mut rx = TcpReceiver::new();
        rx.receive(seg(0, 0, 100));
        let (out, ooo) = rx.receive(seg(1, 0, 300));
        assert!(out.is_empty());
        assert!(ooo);
        let (out, _) = rx.receive(seg(2, 100, 100));
        assert_eq!(out.len(), 1);
        assert_eq!(rx.expected(), 200);
        assert_eq!(rx.dups(), 1, "stale overlap discarded during drain");
    }

    #[test]
    fn replica_advance_is_idempotent() {
        let mut replica = FlowState::new();
        // First sighting of each segment emits a record...
        assert!(replica.advance_replicated(seg(0, 0, 100)).is_some());
        assert!(replica.advance_replicated(seg(2, 200, 100)).is_some());
        // ...replaying either (delivered or parked) is a no-op.
        assert!(replica.advance_replicated(seg(0, 0, 100)).is_none());
        assert!(replica.advance_replicated(seg(2, 200, 100)).is_none());
        assert_eq!(replica.dups(), 2);
        // Filling the hole advances the watermark over the parked record
        // without re-emitting it.
        assert!(replica.advance_replicated(seg(1, 100, 100)).is_some());
        assert_eq!(replica.expected(), 300);
        assert_eq!(replica.ooo_len(), 0);
        // And the whole prefix is now suppressed on replay.
        assert!(replica.advance_replicated(seg(1, 100, 100)).is_none());
    }

    #[test]
    fn lane_replicas_plus_reconciler_match_strict_delivery() {
        // Two lanes each replicate the flow state over their half of the
        // stream (with a retransmit duplicate thrown in); the surviving
        // records, reconciled by a strict receiver, must deliver the
        // same bytes in the same order as merge-before-tcp (one strict
        // receiver fed the original stream).
        let segs: Vec<Skb> = (0..8u64).map(|i| seg(i, i * 100, 100)).collect();
        let mut strict = FlowState::new();
        let mut reference = Vec::new();
        for s in &segs {
            let (out, _) = strict.receive(s.clone());
            reference.extend(out.into_iter().map(|s| s.byte_seq));
        }

        let mut lane_a = FlowState::new();
        let mut lane_b = FlowState::new();
        let mut records = Vec::new();
        for (i, s) in segs.iter().enumerate() {
            let lane = if i % 2 == 0 { &mut lane_a } else { &mut lane_b };
            if let Some(r) = lane.advance_replicated(s.clone()) {
                records.push(r);
            }
            // A duplicated transition (fault-injected copy) is suppressed
            // by the replica that already advanced over it.
            if i == 3 {
                assert!(lane_b.advance_replicated(s.clone()).is_none());
            }
        }
        assert_eq!(records.len(), segs.len(), "one record per distinct segment");

        let mut reconciler = FlowState::new();
        let mut delivered = Vec::new();
        for r in records {
            let (out, _) = reconciler.receive(r);
            delivered.extend(out.into_iter().map(|s| s.byte_seq));
        }
        assert_eq!(delivered, reference);
    }

    #[test]
    fn sender_window_accounting() {
        let mut tx = TcpSender::new(1000);
        // Tiny receive window binds before the initial cwnd.
        assert_eq!(tx.available_window(), 1000);
        tx.on_send(700);
        assert_eq!(tx.available_window(), 300);
        tx.on_ack(500);
        assert_eq!(tx.available_window(), 800);
        assert_eq!(tx.acked_bytes, 500);
        // ACKs never underflow.
        tx.on_ack(10_000);
        assert_eq!(tx.inflight, 0);
    }

    #[test]
    fn slow_start_doubles_per_window() {
        let mut tx = TcpSender::new(1 << 20);
        let start = tx.cwnd_bytes;
        assert_eq!(start, 10 * MSS);
        // ACK a full window: cwnd doubles in slow start.
        tx.on_send(start);
        tx.on_ack(start);
        assert_eq!(tx.cwnd_bytes, 2 * start);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut tx = TcpSender::new(1 << 20);
        tx.ssthresh = 10 * MSS; // already past slow start
        let before = tx.cwnd_bytes;
        tx.on_send(before);
        tx.on_ack(before);
        // ~1 MSS growth per window's worth of ACKs.
        let grown = tx.cwnd_bytes - before;
        assert!((MSS - 2..=MSS + 2).contains(&grown), "grew {grown}");
    }

    #[test]
    fn timeout_collapses_window_and_rewinds() {
        let mut tx = TcpSender::new(1 << 20);
        tx.on_send(200_000);
        tx.on_ack(50_000);
        tx.on_timeout();
        assert_eq!(tx.cwnd_bytes, 10 * MSS);
        assert_eq!(tx.ssthresh, 75_000); // half of 150k inflight
        assert_eq!(tx.sent_bytes, tx.acked_bytes);
        assert_eq!(tx.inflight, 0);
        assert_eq!(tx.retransmits, 1);
    }

    #[test]
    fn cwnd_never_exceeds_receive_window() {
        let mut tx = TcpSender::new(64 * 1024);
        for _ in 0..100 {
            let w = tx.available_window();
            if w > 0 {
                tx.on_send(w);
                tx.on_ack(w);
            }
        }
        assert!(tx.cwnd_bytes <= 64 * 1024);
    }

    #[test]
    fn flow_state_snapshot_resumes_identically() {
        // Scrambled arrival with a duplicate and an overlap: exercises
        // the ooo queue, dup counting and the contiguous drain.
        let stream: Vec<Skb> = vec![
            seg(1, 1000, 1000),
            seg(0, 0, 1000),
            seg(3, 3000, 1000),
            seg(3, 3000, 1000), // duplicate park
            seg(2, 2000, 1000),
            seg(5, 5000, 1000),
            seg(4, 4000, 1000),
        ];
        let mut whole = FlowState::new();
        let mut whole_out = Vec::new();
        for s in &stream {
            whole_out.extend(whole.receive(s.clone()).0);
        }
        for cut in 0..=stream.len() {
            let mut fs = FlowState::new();
            let mut out = Vec::new();
            for s in &stream[..cut] {
                out.extend(fs.receive(s.clone()).0);
            }
            let mut restored = fs.snapshot();
            drop(fs); // the original crashes here
            for s in &stream[cut..] {
                out.extend(restored.receive(s.clone()).0);
            }
            assert_eq!(
                out.iter().map(|s| s.byte_seq).collect::<Vec<_>>(),
                whole_out.iter().map(|s| s.byte_seq).collect::<Vec<_>>(),
                "delivery diverged at cut {cut}"
            );
            assert_eq!(restored.expected(), whole.expected());
            assert_eq!(restored.dups(), whole.dups());
            assert_eq!(restored.inversions(), whole.inversions());
            assert_eq!(restored.ooo_len(), whole.ooo_len());
        }
    }

    #[test]
    fn flow_state_approx_bytes_tracks_parked_segments() {
        let mut fs = FlowState::new();
        let empty = fs.approx_bytes();
        // Park 20 segments behind a missing head.
        for i in 1..=20u64 {
            fs.receive(seg(i, i * 1000, 900));
        }
        assert_eq!(fs.ooo_len(), 20);
        assert!(fs.approx_bytes() > empty + 20 * 8);
    }
}
