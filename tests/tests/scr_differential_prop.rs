//! Property-based differential proof at the netstack layer: a randomized
//! TCP segment stream — arbitrary arrival permutation, exact-copy
//! retransmits, out-of-window duplicates, and byte offsets straddling the
//! u32 wire-sequence wrap point — delivers the identical byte stream
//! through the strict receive machine (merge-before-tcp's stateful stage)
//! and through per-lane replicated [`FlowState`]s reconciled by the
//! [`ScrReconciler`] watermark.

use mflow::ScrReconciler;
use mflow_netstack::tcp::FlowState;
use mflow_netstack::Skb;
use proptest::prelude::*;

fn seg(wire: u64, byte_seq: u64, len: u32) -> Skb {
    Skb::new(wire, 0, len.saturating_add(66), len, byte_seq, 0)
}

/// Upper bounds used to size the shared priority pool: at most 60 random
/// cells + 1 wrap prefix + 12 duplicates.
const MAX_ARRIVALS: usize = 80;

proptest! {
    #[test]
    fn replicated_lanes_deliver_the_strict_machine_stream(
        lens in prop::collection::vec(1u32..1500, 4..60),
        wrap_start in any::<bool>(),
        dup_picks in prop::collection::vec(0usize..1000, 0..12),
        prios in prop::collection::vec(0u64..u64::MAX, MAX_ARRIVALS),
        n_lanes in 2usize..5,
    ) {
        // Base cells: a contiguous stream on fixed boundaries. With
        // `wrap_start` the first cell carries the stream to just below
        // u32::MAX so the rest straddles the wire-sequence wrap point.
        let mut cells = Vec::with_capacity(lens.len() + 1);
        let mut off = 0u64;
        if wrap_start {
            let prefix = u32::MAX - 2 * 1448;
            cells.push(seg(0, 0, prefix));
            off = prefix as u64;
        }
        for (i, &len) in lens.iter().enumerate() {
            cells.push(seg(1 + i as u64, off, len));
            off += len as u64;
        }
        let total = off;
        let n_cells = cells.len();

        // Arrival schedule: every cell exactly once, plus exact-copy
        // duplicates of random cells, the whole lot shuffled by the
        // priority pool. Late-scheduled duplicates of early cells become
        // out-of-window arrivals once the watermark has passed them.
        let mut arrivals = cells.clone();
        for &d in &dup_picks {
            arrivals.push(cells[d % n_cells].clone());
        }
        let mut order: Vec<usize> = (0..arrivals.len()).collect();
        order.sort_by_key(|&i| (prios[i], i));

        // Reference: the strict machine, as run serially after
        // merge-before-tcp reassembly (or on the raw arrival order — its
        // delivery is permutation-invariant).
        let mut strict = FlowState::new();
        let mut delivered_ref: Vec<(u64, u32)> = Vec::with_capacity(n_cells);
        for &i in &order {
            let (out, _) = strict.receive(arrivals[i].clone());
            delivered_ref.extend(out.iter().map(|s| (s.byte_seq, s.payload_bytes)));
        }

        // Replication: each arrival lands on one of `n_lanes` lane
        // replicas; first-sighting records flow to the reconciler, which
        // must reproduce the strict delivery byte for byte.
        let mut replicas: Vec<FlowState> = (0..n_lanes).map(|_| FlowState::new()).collect();
        let mut rc = ScrReconciler::new();
        let mut released: Vec<Skb> = Vec::with_capacity(n_cells);
        for &i in &order {
            let lane = ((prios[i] >> 32) as usize) % n_lanes;
            if let Some(rec) = replicas[lane].advance_replicated(arrivals[i].clone()) {
                let (start, end) = (rec.byte_seq, rec.byte_end());
                rc.offer(start, end, rec, &mut released);
            }
        }
        let delivered_scr: Vec<(u64, u32)> =
            released.iter().map(|s| (s.byte_seq, s.payload_bytes)).collect();

        prop_assert_eq!(&delivered_scr, &delivered_ref, "modes diverged");

        // Both delivered every byte exactly once, in order.
        let mut next = 0u64;
        for &(start, len) in &delivered_ref {
            prop_assert_eq!(start, next, "gap or overlap in delivery");
            next = start + len as u64;
        }
        prop_assert_eq!(next, total, "bytes lost");
        prop_assert_eq!(strict.expected(), total);

        // Reconciler invariants: every position released exactly once, no
        // residue, no forced skips on a lossless stream, and every
        // replicated duplicate accounted for.
        prop_assert_eq!(rc.released(), n_cells as u64);
        prop_assert_eq!(rc.watermark(), total);
        prop_assert_eq!(rc.parked_len(), 0, "records left parked");
        prop_assert!(rc.skipped_ranges().is_empty(), "lossless stream must not flush");
        prop_assert_eq!(rc.late_drops(), 0);
    }

    #[test]
    fn replica_watermarks_never_outrun_the_strict_machine(
        lens in prop::collection::vec(1u32..600, 3..40),
        prios in prop::collection::vec(0u64..u64::MAX, 40),
        n_lanes in 2usize..4,
    ) {
        // The safety argument for replication: a lane replica's `expected`
        // watermark advances only over bytes whose records already went
        // downstream, so no replica may believe more of the stream exists
        // than the strict machine fed the same arrivals would.
        let mut cells = Vec::with_capacity(lens.len());
        let mut off = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            cells.push(seg(i as u64, off, len));
            off += len as u64;
        }
        let mut order: Vec<usize> = (0..cells.len()).collect();
        order.sort_by_key(|&i| (prios[i], i));

        let mut strict = FlowState::new();
        let mut replicas: Vec<FlowState> = (0..n_lanes).map(|_| FlowState::new()).collect();
        for &i in &order {
            strict.receive(cells[i].clone());
            let lane = ((prios[i] >> 32) as usize) % n_lanes;
            replicas[lane].advance_replicated(cells[i].clone());
            for r in &replicas {
                prop_assert!(
                    r.expected() <= strict.expected(),
                    "replica watermark {} outran strict {}",
                    r.expected(),
                    strict.expected()
                );
            }
        }
    }
}
