//! Batch-based flow reassembly (§III-B, Figure 6c).
//!
//! Splitting a flow into micro-flows preserves order *within* each
//! micro-flow, so order only needs restoring *between* micro-flows. MFLOW
//! keeps one buffer queue per splitting core (lane) and a **merging
//! counter** holding the ID of the micro-flow currently allowed through:
//!
//! 1. locate the lane whose head packets carry `id == counter`;
//! 2. drain packets from that lane while their ID matches;
//! 3. when the micro-flow's final packet (`last_in_batch`) passes,
//!    increment the counter and repeat.
//!
//! This reorders per *batch* rather than per packet — with batch size 256
//! the counter advances once every 256 packets, which is why the paper
//! measures negligible reassembly overhead at that size. The buffer
//! queues hold batches too: a run of one micro-flow's items parks as one
//! `{id, last, len}` header over the lane's flat item queue and is
//! released with one bulk move ([`MergeCounter::offer_run`]).
//!
//! [`MergeCounter`] is the pure algorithm (reused verbatim by the
//! real-thread runtime in `mflow-runtime`, whose merger offers a run per
//! micro-flow); [`BatchMerger`] adapts it to the simulator's skbs, one
//! item at a time, passing never-split flows through untouched.

use std::collections::{vec_deque, BTreeMap, BTreeSet, VecDeque};

use mflow_netstack::{FlowMerger, Skb};

/// Micro-flow tag: position of the batch in the original flow, the lane
/// (splitting core) it was dispatched to, and whether this item closes the
/// batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MfTag {
    pub id: u64,
    pub lane: usize,
    pub last: bool,
}

/// The fate of one offered item.
///
/// Only [`Offer::Accepted`] items can ever be released; the other two are
/// dropped on the floor (and counted) so a lossy or duplicating transport
/// degrades the merger instead of wedging or corrupting it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Offer {
    /// Parked or released; will appear in the output.
    Accepted,
    /// The counter already passed this micro-flow (it was flushed or
    /// completed); the item is dropped and counted in
    /// [`MergeCounter::late_drops`].
    Late,
    /// A copy of a micro-flow that is already closed, or that is being
    /// collected on a different lane (the first-arriving copy wins); the
    /// item is dropped and counted in [`MergeCounter::dup_drops`].
    Duplicate,
}

/// Outcome tally of one merge point: every offered item was released in
/// order, is still parked (`residue`), or was rejected (`late_drops` /
/// `dup_drops`); every micro-flow the counter gave up on is in `flushed`.
///
/// Both execution engines report merge outcomes through this one block —
/// the runtime's merger thread snapshots its single [`MergeCounter`],
/// the simulator's [`BatchMerger`] folds one snapshot per flow with
/// [`MergeStats::absorb`] — so the accepted/late/dup/flushed bookkeeping
/// lives here instead of being re-derived by each engine.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Items released in original order.
    pub released: u64,
    /// Micro-flows the counter force-advanced past.
    pub flushed: u64,
    /// Items rejected because the counter had already passed them.
    pub late_drops: u64,
    /// Items rejected as duplicate copies.
    pub dup_drops: u64,
    /// Items still parked in lane buffers at snapshot time.
    pub residue: u64,
}

impl MergeStats {
    /// Folds another merge point's tally into this one (per-flow
    /// counters aggregating to a stack-wide total).
    pub fn absorb(&mut self, other: MergeStats) {
        self.released += other.released;
        self.flushed += other.flushed;
        self.late_drops += other.late_drops;
        self.dup_drops += other.dup_drops;
        self.residue += other.residue;
    }
}

/// What the merger knows about one in-flight micro-flow.
#[derive(Clone, Copy, Debug)]
struct MfEntry {
    /// Lane (buffer queue) collecting the micro-flow. Learned on first
    /// arrival; the real kernel reads it from the skb control block.
    lane: usize,
    /// Whether the `last` item has arrived (further copies are duplicates).
    closed: bool,
}

/// The header of one parked run: `len` consecutive items of micro-flow
/// `id` in a lane's queue, the final one closing the micro-flow when
/// `last`.
#[derive(Clone, Copy, Debug)]
struct ParkedRun {
    id: u64,
    last: bool,
    len: usize,
}

/// One lane's buffer queue: run headers over one flat queue of their
/// items, both in arrival order; nothing per item but the item.
#[derive(Clone, Debug)]
struct LaneQueue<T> {
    runs: VecDeque<ParkedRun>,
    items: VecDeque<T>,
}

impl<T> Default for LaneQueue<T> {
    fn default() -> Self {
        Self {
            runs: VecDeque::new(),
            items: VecDeque::new(),
        }
    }
}

impl<T> LaneQueue<T> {
    /// Takes the front run off the queue if `wanted`: its header, and its
    /// items as one bulk move.
    fn pop_run_if(
        &mut self,
        wanted: impl FnOnce(&ParkedRun) -> bool,
    ) -> Option<(ParkedRun, vec_deque::Drain<'_, T>)> {
        let run = *self.runs.front().filter(|run| wanted(run))?;
        self.runs.pop_front();
        Some((run, self.items.drain(..run.len)))
    }
}

/// The merging-counter reassembler for one flow, generic over the payload.
///
/// # Fault tolerance
///
/// The textbook algorithm deadlocks if a micro-flow never completes: the
/// counter waits forever and every later micro-flow stays parked. To
/// degrade gracefully instead, the merger keeps a *stall clock* counting
/// offers since it last released anything. When a flush deadline is set
/// (see [`MergeCounter::with_flush_deadline`]) and the clock reaches it,
/// the counter force-advances past the stuck micro-flow, releasing parked
/// successors; skipped IDs are recorded in [`MergeCounter::flushed_ids`].
/// Late and duplicate arrivals are rejected with a recoverable [`Offer`]
/// outcome rather than an assertion.
#[derive(Clone, Debug)]
pub struct MergeCounter<T> {
    lanes: BTreeMap<usize, LaneQueue<T>>,
    counter: u64,
    mf_lane: BTreeMap<u64, MfEntry>,
    buffered: usize,
    released: u64,
    /// Force-advance the counter after this many offers without a release.
    flush_after_offers: Option<u64>,
    offers_since_release: u64,
    flushed_ids: BTreeSet<u64>,
    late_drops: u64,
    dup_drops: u64,
}

impl<T> Default for MergeCounter<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> MergeCounter<T> {
    /// A reassembler whose counter starts at micro-flow 0 and never
    /// flushes (the textbook algorithm: waits forever on a lost
    /// micro-flow).
    pub fn new() -> Self {
        Self {
            lanes: BTreeMap::new(),
            counter: 0,
            mf_lane: BTreeMap::new(),
            buffered: 0,
            released: 0,
            flush_after_offers: None,
            offers_since_release: 0,
            flushed_ids: BTreeSet::new(),
            late_drops: 0,
            dup_drops: 0,
        }
    }

    /// A reassembler that force-advances past a stuck micro-flow once
    /// `deadline` consecutive offers release nothing.
    pub fn with_flush_deadline(deadline: u64) -> Self {
        let mut m = Self::new();
        m.flush_after_offers = Some(deadline.max(1));
        m
    }

    /// Sets or clears the flush deadline on an existing reassembler.
    pub fn set_flush_deadline(&mut self, deadline: Option<u64>) {
        self.flush_after_offers = deadline.map(|d| d.max(1));
    }

    /// Current merging-counter value.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Items parked in lane buffer queues.
    pub fn buffered(&self) -> usize {
        self.buffered
    }

    /// Total items released in order.
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Micro-flow IDs the counter was force-advanced past.
    pub fn flushed_ids(&self) -> &BTreeSet<u64> {
        &self.flushed_ids
    }

    /// Count of micro-flows the counter was force-advanced past.
    pub fn flushed(&self) -> u64 {
        self.flushed_ids.len() as u64
    }

    /// Items rejected because the counter had already passed them.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Items rejected as duplicate copies of a known micro-flow.
    pub fn dup_drops(&self) -> u64 {
        self.dup_drops
    }

    /// Snapshot of this counter's outcome tally — the one merge-point
    /// bookkeeping block both execution engines consume (directly in the
    /// runtime's merger thread, folded per-flow by [`BatchMerger`] in
    /// the simulator).
    pub fn stats(&self) -> MergeStats {
        MergeStats {
            released: self.released,
            flushed: self.flushed(),
            late_drops: self.late_drops,
            dup_drops: self.dup_drops,
            residue: self.buffered as u64,
        }
    }

    /// A crash-consistent restore point: an independent deep copy of the
    /// full mutable state (counter, per-lane buffers, micro-flow table,
    /// flush bookkeeping). Feeding a snapshot the same offer stream the
    /// original sees produces byte-identical releases and identical
    /// [`MergeCounter::stats`] — the invariant the runtime's merger
    /// failure domain checkpoints rely on, proven by the snapshot
    /// round-trip proptest in the integration suite.
    pub fn snapshot(&self) -> Self
    where
        T: Clone,
    {
        self.clone()
    }

    /// Estimated serialized size of a snapshot in bytes, for checkpoint
    /// telemetry. An estimate (map overheads are approximated), not an
    /// exact wire size — the runtime checkpoints by structural clone, so
    /// no byte-exact encoding exists to measure.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let fixed = size_of::<Self>();
        let buffered = self.buffered * size_of::<T>();
        // One queue per lane and one header per parked run, one
        // (id -> entry) record per known micro-flow, one u64 per flushed
        // id.
        let runs: usize = self.lanes.values().map(|q| q.runs.len()).sum();
        let lanes = self.lanes.len() * size_of::<LaneQueue<T>>() + runs * size_of::<ParkedRun>();
        let mf_table = self.mf_lane.len() * (size_of::<u64>() + size_of::<MfEntry>());
        let flushed = self.flushed_ids.len() * size_of::<u64>();
        (fixed + buffered + lanes + mf_table + flushed) as u64
    }

    /// Offers one tagged item; appends any now-in-order items to `out`
    /// and reports the item's fate. The one-item case of
    /// [`MergeCounter::offer_run`].
    pub fn offer(&mut self, tag: MfTag, item: T, out: &mut Vec<T>) -> Offer {
        self.offer_run(tag.id, tag.lane, tag.last, [item], out)
    }

    /// Offers one micro-flow's run of items at once: every item carries
    /// `id` on `lane`, and the final one closes the micro-flow when
    /// `closed`. Observably identical to offering the items one at a
    /// time — same `out`, [`stats`](Self::stats), counter and flushed
    /// ids — paid once per run: classified once (behind the counter, a
    /// copy of a known micro-flow, or accepted), straight through to
    /// `out` when in turn on an empty lane, parked as one header
    /// otherwise — or as more of the lane's back header, when that is
    /// the same still-open micro-flow.
    ///
    /// Every item that releases nothing ticks the stall clock, and a
    /// flush moves the counter under the rest of the run: a run is split
    /// where the flush deadline is reached, nowhere else, and what is
    /// left of it is classified afresh.
    ///
    /// Returns the fate of the run's final item (all items of a run share
    /// one fate unless a stall-clock flush fires mid-run). An empty run
    /// changes nothing and reports [`Offer::Accepted`].
    pub fn offer_run<I>(&mut self, id: u64, lane: usize, closed: bool, items: I, out: &mut Vec<T>) -> Offer
    where
        I: IntoIterator<Item = T>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut items = items.into_iter();
        let mut fate = Offer::Accepted;
        while items.len() > 0 {
            let n = items.len();
            let known = self.mf_lane.get(&id);
            let fresh = known.is_none();
            fate = if id < self.counter {
                Offer::Late
            } else if known.is_some_and(|entry| entry.closed || entry.lane != lane) {
                // Already complete, or being collected on another lane
                // (a redispatched copy): the first-arriving copy wins.
                Offer::Duplicate
            } else {
                Offer::Accepted
            };
            let accepted = fate == Offer::Accepted;
            // The clock only flushes while something is stuck.
            let armed = accepted || !self.mf_lane.is_empty();
            let take = match self.flush_after_offers {
                Some(deadline) if armed => {
                    let left = deadline.saturating_sub(self.offers_since_release).max(1);
                    (n as u64).min(left) as usize
                }
                _ => n,
            };
            if accepted {
                let q = self.lanes.entry(lane).or_default();
                if id == self.counter && q.runs.is_empty() {
                    // In turn on an empty lane: straight through.
                    out.extend(items);
                    self.released += n as u64;
                    self.offers_since_release = 0;
                    if closed {
                        self.mf_lane.remove(&id);
                        self.counter += 1;
                        self.drain(out);
                    } else if fresh {
                        self.mf_lane.insert(id, MfEntry { lane, closed });
                    }
                    return fate;
                }
                let last = closed && take == n;
                match q.runs.back_mut() {
                    Some(run) if run.id == id && !run.last => {
                        run.len += take;
                        run.last = last;
                    }
                    _ => q.runs.push_back(ParkedRun { id, last, len: take }),
                }
                q.items.extend(items.by_ref().take(take));
                self.buffered += take;
                if fresh || last {
                    self.mf_lane.insert(id, MfEntry { lane, closed: last });
                }
                let before = self.released;
                self.drain(out);
                if self.released != before {
                    self.offers_since_release = 0;
                    continue;
                }
            } else {
                items.by_ref().take(take).for_each(drop);
                match fate {
                    Offer::Late => self.late_drops += take as u64,
                    _ => self.dup_drops += take as u64,
                }
            }
            self.offers_since_release += take as u64;
            if armed && self.flush_after_offers.is_some_and(|d| self.offers_since_release >= d) {
                self.flush_one(out);
                self.offers_since_release = 0;
            }
        }
        fate
    }

    /// Force-advances the counter past the micro-flow it is stuck on,
    /// then releases whatever that unblocks. Returns `false` when there
    /// is nothing to flush.
    pub fn flush_one(&mut self, out: &mut Vec<T>) -> bool {
        if self.mf_lane.remove(&self.counter).is_some() {
            // The current micro-flow arrived partially but never closed:
            // its in-order prefix is already out, so just skip its ID.
            self.flushed_ids.insert(self.counter);
            self.counter += 1;
        } else {
            // Nothing of the current micro-flow (and possibly a run of
            // successors) ever arrived: jump to the first one we hold.
            let Some(&next) = self.mf_lane.keys().next() else {
                return false;
            };
            self.flushed_ids.extend(self.counter..next);
            self.counter = next;
        }
        self.drain(out);
        true
    }

    /// Flushes repeatedly until no items remain parked and no micro-flow
    /// is left open (end-of-stream recovery). Returns how many micro-flow
    /// IDs were skipped.
    pub fn flush_stalled(&mut self, out: &mut Vec<T>) -> u64 {
        let before = self.flushed_ids.len();
        while !self.mf_lane.is_empty() {
            if !self.flush_one(out) {
                break;
            }
        }
        // A per-lane FIFO violation upstream (e.g. a replaced-but-still-
        // unwinding worker incarnation re-emitting on its slot's lane)
        // can strand a run mid-queue behind a later micro-flow's: the
        // walk above removes its entry while the run is unreachable,
        // and no later counter value maps back to that lane. Everything
        // still parked here has been passed by the counter — purge it
        // exactly as the in-stream front purge would, so end-of-stream
        // recovery always leaves the merge point empty.
        for q in self.lanes.values_mut() {
            self.buffered -= q.items.len();
            self.late_drops += q.items.len() as u64;
            q.runs.clear();
            q.items.clear();
        }
        (self.flushed_ids.len() - before) as u64
    }

    /// Releases everything currently releasable, a whole run at a time.
    /// Runs to a fixpoint: draining again changes nothing.
    fn drain(&mut self, out: &mut Vec<T>) {
        // Step (1): locate the buffer queue holding the counter's
        // micro-flow. Unknown means its packets are still in flight.
        while let Some(&MfEntry { lane, .. }) = self.mf_lane.get(&self.counter) {
            let counter = self.counter;
            let Some(q) = self.lanes.get_mut(&lane) else {
                return;
            };
            // Defensive purge: a run the counter already passed can only
            // sit at the front if per-lane FIFO order was violated
            // upstream; dropping it beats wedging behind it.
            while let Some((run, stale)) = q.pop_run_if(|run| run.id < counter) {
                drop(stale);
                self.buffered -= run.len;
                self.late_drops += run.len as u64;
            }
            // Step (2): consume the next run of the current micro-flow.
            let Some((run, items)) = q.pop_run_if(|run| run.id == counter) else {
                // Only partially here; everything releasable has been
                // released.
                return;
            };
            out.extend(items);
            self.buffered -= run.len;
            self.released += run.len as u64;
            if run.last {
                // Step (3): the batch is complete — advance the counter.
                self.mf_lane.remove(&counter);
                self.counter += 1;
            }
        }
    }

    /// Removes and returns all parked items in lane order (end-of-run
    /// accounting; order across lanes is not meaningful here).
    pub fn drain_all(&mut self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.buffered);
        for (_, q) in std::mem::take(&mut self.lanes) {
            out.extend(q.items);
        }
        // Forget in-flight micro-flow state too: leaving `mf_lane`
        // populated made a drained merger treat fresh arrivals of those
        // IDs as resumptions of ghost micro-flows.
        self.mf_lane.clear();
        self.buffered = 0;
        out
    }
}

/// The state-compute-replication reconciler: a per-flow *seq watermark*
/// instead of a merging counter.
///
/// Under SCR the lanes have already advanced replicated flow state and
/// emitted idempotent delivery records, so the downstream job is no
/// longer restoring wire order batch-by-batch — it is emitting each
/// in-order range **exactly once** and discarding replicated duplicates.
/// The reconciler keeps one monotonic watermark (next byte/seq expected)
/// plus a parked map of early records, mirroring the strict
/// `FlowState::receive` semantics so its delivery stream is identical to
/// merge-before-tcp's:
///
/// * a record starting at the watermark is emitted and the watermark
///   advances over it and any contiguous parked successors;
/// * a record wholly behind the watermark is a replicated duplicate
///   (or a straggler of a flushed gap — classified [`Offer::Late`]);
/// * a record straddling the watermark is a stale overlap and is
///   dropped, exactly as the strict machine drops it during drain;
/// * a record ahead of the watermark parks once; further copies are
///   duplicates.
///
/// Fault recovery reuses the flush idea: [`ScrReconciler::flush_one`]
/// force-advances the watermark to the first parked record, recording
/// the skipped range so later stragglers are told apart from duplicates.
///
/// The threaded runtime does not use it: its lanes' results are ordered
/// by [`MergeCounter`] under both stateful modes.
#[derive(Clone, Debug)]
pub struct ScrReconciler<T> {
    watermark: u64,
    /// start → (end, record) for records ahead of the watermark.
    parked: BTreeMap<u64, (u64, T)>,
    emitted: u64,
    flushes: u64,
    late_drops: u64,
    dup_drops: u64,
    /// Coalesced `[start, end)` ranges the watermark was flushed over.
    skipped: BTreeMap<u64, u64>,
}

impl<T> Default for ScrReconciler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> ScrReconciler<T> {
    /// A reconciler whose watermark starts at 0.
    pub fn new() -> Self {
        Self {
            watermark: 0,
            parked: BTreeMap::new(),
            emitted: 0,
            flushes: 0,
            late_drops: 0,
            dup_drops: 0,
            skipped: BTreeMap::new(),
        }
    }

    /// Next expected position (byte offset or packet seq).
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Records parked ahead of the watermark.
    pub fn parked_len(&self) -> usize {
        self.parked.len()
    }

    /// Records emitted in order.
    pub fn released(&self) -> u64 {
        self.emitted
    }

    /// Watermark force-advances performed.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Stragglers of flushed gaps, rejected after the fact.
    pub fn late_drops(&self) -> u64 {
        self.late_drops
    }

    /// Replicated duplicates discarded.
    pub fn dup_drops(&self) -> u64 {
        self.dup_drops
    }

    /// The `[start, end)` ranges the watermark was flushed over, in order.
    pub fn skipped_ranges(&self) -> Vec<(u64, u64)> {
        self.skipped.iter().map(|(&s, &e)| (s, e)).collect()
    }

    /// Outcome tally in the shared merge-point block: `released` counts
    /// emitted records, `flushed` counts watermark force-advances.
    pub fn stats(&self) -> MergeStats {
        MergeStats {
            released: self.emitted,
            flushed: self.flushes,
            late_drops: self.late_drops,
            dup_drops: self.dup_drops,
            residue: self.parked.len() as u64,
        }
    }

    /// A crash-consistent restore point: an independent deep copy of the
    /// watermark, parked records, skipped ranges and drop counters. Same
    /// contract as [`MergeCounter::snapshot`]: a snapshot fed the
    /// remaining offer stream emits exactly what the original would.
    pub fn snapshot(&self) -> Self
    where
        T: Clone,
    {
        self.clone()
    }

    /// Estimated serialized size of a snapshot in bytes (see
    /// [`MergeCounter::approx_bytes`]). SCR state is deliberately tiny —
    /// the property "State-Compute Replication" leans on — so this is
    /// usually a few hundred bytes.
    pub fn approx_bytes(&self) -> u64 {
        use std::mem::size_of;
        let fixed = size_of::<Self>();
        let parked = self.parked.len() * (2 * size_of::<u64>() + size_of::<T>());
        let skipped = self.skipped.len() * 2 * size_of::<u64>();
        (fixed + parked + skipped) as u64
    }

    fn in_skipped(&self, pos: u64) -> bool {
        self.skipped
            .range(..=pos)
            .next_back()
            .is_some_and(|(_, &end)| end > pos)
    }

    /// Offers one delivery record covering `[start, end)`; appends any
    /// now-in-order records to `out` and reports the record's fate.
    pub fn offer(&mut self, start: u64, end: u64, item: T, out: &mut Vec<T>) -> Offer {
        if end <= start || end <= self.watermark {
            // Wholly behind (or empty): a replicated duplicate, unless the
            // watermark only passed it by flushing over the gap.
            if self.in_skipped(start) {
                self.late_drops += 1;
                return Offer::Late;
            }
            self.dup_drops += 1;
            return Offer::Duplicate;
        }
        if start < self.watermark {
            // Straddles the watermark: stale overlap; the strict machine
            // drops these during drain, so equivalence demands we do too.
            self.dup_drops += 1;
            return Offer::Duplicate;
        }
        if start == self.watermark {
            self.watermark = end;
            self.emitted += 1;
            out.push(item);
            self.drain(out);
            return Offer::Accepted;
        }
        if self.parked.contains_key(&start) {
            self.dup_drops += 1;
            return Offer::Duplicate;
        }
        self.parked.insert(start, (end, item));
        Offer::Accepted
    }

    /// Emits parked records made contiguous by a watermark advance,
    /// discarding stale overlaps along the way.
    fn drain(&mut self, out: &mut Vec<T>) {
        while let Some(entry) = self.parked.first_entry() {
            let k = *entry.key();
            if k == self.watermark {
                let (end, item) = entry.remove();
                self.watermark = end;
                self.emitted += 1;
                out.push(item);
            } else if k < self.watermark {
                entry.remove();
                self.dup_drops += 1;
            } else {
                break;
            }
        }
    }

    /// Force-advances the watermark to the first parked record, releasing
    /// it (and contiguous successors) and recording the skipped range.
    /// Returns `false` when nothing is parked.
    pub fn flush_one(&mut self, out: &mut Vec<T>) -> bool {
        let Some(&next) = self.parked.keys().next() else {
            return false;
        };
        // Coalesce with a preceding skipped range ending at the watermark.
        match self.skipped.range_mut(..self.watermark).next_back() {
            Some((_, end)) if *end == self.watermark => *end = next,
            _ => {
                self.skipped.insert(self.watermark, next);
            }
        }
        self.watermark = next;
        self.flushes += 1;
        self.drain(out);
        true
    }

    /// Flushes until nothing is parked (end-of-stream recovery). Returns
    /// the number of force-advances performed.
    pub fn flush_stalled(&mut self, out: &mut Vec<T>) -> u64 {
        let mut n = 0;
        while self.flush_one(out) {
            n += 1;
        }
        n
    }
}

/// [`FlowMerger`] adapter: one [`MergeCounter`] per flow; skbs without a
/// micro-flow tag (flows that were never split) pass straight through.
pub struct BatchMerger {
    flows: BTreeMap<usize, MergeCounter<Skb>>,
    merge_cost_per_batch_ns: u64,
    /// Flush deadline installed into every per-flow counter.
    flush_after_offers: Option<u64>,
}

impl BatchMerger {
    /// Creates a merger charging `merge_cost_per_batch_ns` per invocation.
    pub fn new(merge_cost_per_batch_ns: u64) -> Self {
        Self {
            flows: BTreeMap::new(),
            merge_cost_per_batch_ns,
            flush_after_offers: None,
        }
    }

    /// Installs a per-flow flush deadline (offers without a release before
    /// the counter force-advances past a stuck micro-flow).
    pub fn with_flush_deadline(mut self, deadline: Option<u64>) -> Self {
        self.flush_after_offers = deadline;
        self
    }

    fn flow_counter(&mut self, flow: usize) -> &mut MergeCounter<Skb> {
        let deadline = self.flush_after_offers;
        self.flows.entry(flow).or_insert_with(|| match deadline {
            Some(d) => MergeCounter::with_flush_deadline(d),
            None => MergeCounter::new(),
        })
    }

    /// Stack-wide outcome tally: one [`MergeStats`] snapshot per flow,
    /// folded. All the [`FlowMerger`] counter accessors read through
    /// this.
    pub fn stats(&self) -> MergeStats {
        self.flows
            .values()
            .fold(MergeStats::default(), |mut acc, m| {
                acc.absorb(m.stats());
                acc
            })
    }
}

impl FlowMerger for BatchMerger {
    fn offer(&mut self, skbs: Vec<Skb>) -> Vec<Skb> {
        let mut out = Vec::with_capacity(skbs.len());
        for skb in skbs {
            match skb.mf {
                None => out.push(skb),
                Some(mf) => {
                    let tag = MfTag {
                        id: mf.id,
                        lane: mf.core,
                        last: mf.last_in_batch,
                    };
                    let flow = skb.flow;
                    self.flow_counter(flow).offer(tag, skb, &mut out);
                }
            }
        }
        out
    }

    fn buffered(&self) -> usize {
        self.stats().residue as usize
    }

    fn merge_cost_ns(&self, _offered: u64, _released: u64) -> u64 {
        self.merge_cost_per_batch_ns
    }

    fn drain(&mut self) -> Vec<Skb> {
        let mut out = Vec::new();
        for m in self.flows.values_mut() {
            out.extend(m.drain_all());
        }
        out
    }

    fn flushed(&self) -> u64 {
        self.stats().flushed
    }

    fn late_drops(&self) -> u64 {
        self.stats().late_drops
    }

    fn dup_drops(&self) -> u64 {
        self.stats().dup_drops
    }

    fn flush_stalled(&mut self) -> Vec<Skb> {
        let mut out = Vec::new();
        for m in self.flows.values_mut() {
            m.flush_stalled(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tags `n` sequence numbers into micro-flows of `batch` over `lanes`.
    fn tag_stream(n: u64, batch: u64, lanes: usize) -> Vec<(MfTag, u64)> {
        (0..n)
            .map(|i| {
                let id = i / batch;
                (
                    MfTag {
                        id,
                        lane: (id as usize) % lanes,
                        last: i % batch == batch - 1 || i == n - 1,
                    },
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn in_order_offer_releases_immediately() {
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        for (tag, v) in tag_stream(1000, 4, 2) {
            m.offer(tag, v, &mut out);
        }
        assert_eq!(out, (0..1000).collect::<Vec<_>>());
        assert_eq!(m.buffered(), 0);
        assert_eq!(m.released(), 1000);
        assert_eq!(m.counter(), 250);
    }

    #[test]
    fn lane_skew_is_reordered() {
        // Lane 1's batches arrive far ahead of lane 0's: the merger must
        // buffer them and emit the original order.
        let stream = tag_stream(64, 8, 2);
        let (lane0, lane1): (Vec<_>, Vec<_>) = stream.into_iter().partition(|(t, _)| t.lane == 0);
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        for (tag, v) in lane1.into_iter().chain(lane0) {
            m.offer(tag, v, &mut out);
        }
        assert_eq!(out, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn partial_batches_release_incrementally() {
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        // First half of micro-flow 0 arrives: releases immediately.
        m.offer(MfTag { id: 0, lane: 0, last: false }, 'a', &mut out);
        m.offer(MfTag { id: 0, lane: 0, last: false }, 'b', &mut out);
        assert_eq!(out, vec!['a', 'b']);
        // Micro-flow 1 arrives early on lane 1: parked.
        m.offer(MfTag { id: 1, lane: 1, last: true }, 'd', &mut out);
        assert_eq!(out, vec!['a', 'b']);
        assert_eq!(m.buffered(), 1);
        // The close of micro-flow 0 releases both.
        m.offer(MfTag { id: 0, lane: 0, last: true }, 'c', &mut out);
        assert_eq!(out, vec!['a', 'b', 'c', 'd']);
        assert_eq!(m.counter(), 2);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn batch_size_one_is_per_packet_reordering() {
        // Degenerate case: every packet is its own micro-flow.
        let n = 100u64;
        let stream = tag_stream(n, 1, 4);
        // Deliver lanes round-robin shifted: worst-case interleave.
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        let mut shuffled = stream.clone();
        shuffled.sort_by_key(|(t, v)| (t.lane, *v));
        for (tag, v) in shuffled {
            m.offer(tag, v, &mut out);
        }
        assert_eq!(out, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn drain_all_returns_parked_items() {
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        m.offer(MfTag { id: 3, lane: 1, last: true }, 'x', &mut out);
        assert!(out.is_empty());
        let drained = m.drain_all();
        assert_eq!(drained, vec!['x']);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn batch_merger_passes_untagged_flows_through() {
        let mut bm = BatchMerger::new(100);
        let skbs: Vec<Skb> = (0..5).map(|i| Skb::new(i, 0, 1514, 1448, i * 1448, 0)).collect();
        let out = bm.offer(skbs);
        assert_eq!(out.len(), 5);
        assert_eq!(bm.buffered(), 0);
    }

    #[test]
    fn batch_merger_reorders_tagged_flows_independently() {
        use mflow_netstack::MicroflowTag;
        let mut bm = BatchMerger::new(100);
        let mk = |flow: usize, seq: u64, id: u64, core: usize, last: bool| {
            let mut s = Skb::new(seq, flow, 1514, 1448, seq * 1448, 0);
            s.mf = Some(MicroflowTag {
                id,
                core,
                last_in_batch: last,
            });
            s
        };
        // Flow 0: mf 1 (lane 3) arrives before mf 0 (lane 2).
        let out = bm.offer(vec![mk(0, 2, 1, 3, true)]);
        assert!(out.is_empty());
        // Flow 1 is independent and in order.
        let out = bm.offer(vec![mk(1, 0, 0, 2, true)]);
        assert_eq!(out.len(), 1);
        // Flow 0's mf 0 releases both of its micro-flows.
        let out = bm.offer(vec![mk(0, 0, 0, 2, false), mk(0, 1, 0, 2, true)]);
        assert_eq!(out.len(), 3);
        let seqs: Vec<u64> = out.iter().map(|s| s.wire_seq).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
        assert_eq!(bm.buffered(), 0);
    }

    #[test]
    fn merge_cost_is_constant_per_invocation() {
        let bm = BatchMerger::new(150);
        assert_eq!(bm.merge_cost_ns(1, 1), 150);
        assert_eq!(bm.merge_cost_ns(64, 0), 150);
    }

    #[test]
    fn drain_all_forgets_inflight_microflows() {
        // Regression: `drain_all` used to clear the lane queues but leave
        // `mf_lane` populated, so a re-arrival of a drained micro-flow was
        // treated as a resumption of a ghost entry — here mf 3 would stay
        // invisible to the counter's lane lookup and wedge at id 0 lookup
        // when the fresh copy lands on a different lane.
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        m.offer(MfTag { id: 3, lane: 1, last: true }, 'x', &mut out);
        let drained = m.drain_all();
        assert_eq!(drained, vec!['x']);
        // Fresh copy of mf 3 arrives on a different lane: must be a clean
        // first arrival, not a duplicate of the drained ghost.
        assert_eq!(
            m.offer(MfTag { id: 3, lane: 0, last: true }, 'y', &mut out),
            Offer::Accepted
        );
        assert_eq!(m.dup_drops(), 0);
        // Completing mfs 0..3 (on their own lane, keeping per-lane FIFO)
        // releases everything including the fresh copy.
        for id in 0..3 {
            m.offer(MfTag { id, lane: 2, last: true }, 'z', &mut out);
        }
        assert_eq!(out, vec!['z', 'z', 'z', 'y']);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn late_arrival_is_rejected_not_fatal() {
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        m.offer(MfTag { id: 0, lane: 0, last: true }, 'a', &mut out);
        assert_eq!(m.counter(), 1);
        // A straggler copy of mf 0 arrives after the counter passed it.
        assert_eq!(
            m.offer(MfTag { id: 0, lane: 1, last: true }, 'a', &mut out),
            Offer::Late
        );
        assert_eq!(m.late_drops(), 1);
        assert_eq!(out, vec!['a']);
    }

    #[test]
    fn duplicate_copies_are_rejected() {
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        // mf 1 parked (closed) on lane 1.
        m.offer(MfTag { id: 1, lane: 1, last: true }, 'b', &mut out);
        // A second copy on the same lane: mf already closed.
        assert_eq!(
            m.offer(MfTag { id: 1, lane: 1, last: true }, 'b', &mut out),
            Offer::Duplicate
        );
        // A copy on a different lane: first-arriving copy wins.
        assert_eq!(
            m.offer(MfTag { id: 1, lane: 2, last: false }, 'b', &mut out),
            Offer::Duplicate
        );
        assert_eq!(m.dup_drops(), 2);
        // The surviving copy is still released intact.
        m.offer(MfTag { id: 0, lane: 0, last: true }, 'a', &mut out);
        assert_eq!(out, vec!['a', 'b']);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn flush_deadline_skips_a_lost_microflow() {
        // mf 0 is lost entirely; mfs 1..4 park behind it. After `deadline`
        // offers with no release, the counter must skip mf 0 and release
        // the parked successors in order.
        let mut m = MergeCounter::with_flush_deadline(3);
        let mut out = Vec::new();
        for id in 1..=4u64 {
            m.offer(
                MfTag { id, lane: id as usize % 2, last: true },
                id,
                &mut out,
            );
        }
        assert_eq!(out, vec![1, 2, 3, 4], "flush must release parked successors");
        assert_eq!(m.flushed(), 1);
        assert!(m.flushed_ids().contains(&0));
        assert_eq!(m.counter(), 5);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn flush_deadline_skips_a_microflow_missing_its_last_packet() {
        // mf 0's closing packet is dropped: its prefix flows out, then the
        // merger stalls with the open entry. The deadline closes it.
        let mut m = MergeCounter::with_flush_deadline(2);
        let mut out = Vec::new();
        m.offer(MfTag { id: 0, lane: 0, last: false }, 'a', &mut out);
        assert_eq!(out, vec!['a']);
        // mf 1 parks; stall clock ticks to the deadline.
        m.offer(MfTag { id: 1, lane: 1, last: false }, 'b', &mut out);
        m.offer(MfTag { id: 1, lane: 1, last: true }, 'c', &mut out);
        assert_eq!(out, vec!['a', 'b', 'c']);
        assert_eq!(m.flushed(), 1);
        assert_eq!(m.counter(), 2);
    }

    #[test]
    fn without_deadline_the_textbook_algorithm_waits_forever() {
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        for id in 1..100u64 {
            m.offer(MfTag { id, lane: 0, last: true }, id, &mut out);
        }
        assert!(out.is_empty(), "no deadline: mf 0 blocks everything");
        assert_eq!(m.flushed(), 0);
    }

    #[test]
    fn flush_stalled_releases_everything_in_order() {
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        // mfs 2, 5, 7 parked (0,1,3,4,6 lost); 5 is missing its close.
        m.offer(MfTag { id: 2, lane: 0, last: true }, 2, &mut out);
        m.offer(MfTag { id: 5, lane: 1, last: false }, 5, &mut out);
        m.offer(MfTag { id: 7, lane: 0, last: true }, 7, &mut out);
        assert!(out.is_empty());
        let skipped = m.flush_stalled(&mut out);
        assert_eq!(out, vec![2, 5, 7], "order preserved across flushes");
        assert_eq!(skipped, 6, "ids 0,1,3,4,5,6 were skipped");
        assert_eq!(m.buffered(), 0);
        // Idempotent once drained.
        assert_eq!(m.flush_stalled(&mut out), 0);
    }

    #[test]
    fn flush_stalled_purges_items_stranded_by_fifo_violations() {
        // A replaced-but-still-unwinding worker incarnation can re-emit
        // on its slot's lane, landing an earlier micro-flow's packet
        // *behind* a later one's in the same queue. The flush walk then
        // removes the earlier mf's entry while its item is unreachable
        // mid-queue, and once the later mf is flushed too, no counter
        // value ever maps back to that lane: without the final purge the
        // item would survive as permanent residue.
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        m.offer(MfTag { id: 5, lane: 0, last: false }, 50, &mut out);
        m.offer(MfTag { id: 3, lane: 0, last: false }, 30, &mut out);
        assert!(out.is_empty());
        m.flush_stalled(&mut out);
        assert_eq!(out, vec![50], "only the reachable item is releasable");
        assert_eq!(m.buffered(), 0, "no residue survives end-of-stream");
        assert_eq!(m.stats().late_drops, 1, "the stranded item is accounted");
    }

    #[test]
    fn flush_stalled_purges_runs_stranded_by_fifo_violations() {
        // The same violation offered as the merger thread offers it, a
        // run at a time: a whole header is stranded and purged exactly
        // as its items were, one by one.
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        m.offer_run(5, 0, false, [50, 51, 52], &mut out);
        m.offer_run(3, 0, false, [30, 31], &mut out);
        assert!(out.is_empty());
        assert_eq!(m.buffered(), 5);
        m.flush_stalled(&mut out);
        assert_eq!(out, vec![50, 51, 52], "only the reachable run is releasable");
        assert_eq!(m.buffered(), 0, "no residue survives end-of-stream");
        assert_eq!(m.stats().late_drops, 2, "the stranded run is accounted");
    }

    #[test]
    fn a_stale_run_exposed_by_a_partial_release_is_purged_in_the_same_pass() {
        // Lane 0 holds mf 1 in two pieces around a run of mf 0 that the
        // counter is then flushed past. One drain releases the first
        // piece, purges the stale run it exposes and releases the second:
        // no arrival is needed to finish the job, and a flush in between
        // cannot give up on a micro-flow that is all here.
        let mut m = MergeCounter::new();
        let mut out = Vec::new();
        m.offer_run(1, 0, false, [10, 11], &mut out);
        m.offer_run(0, 0, false, [1], &mut out);
        m.offer_run(1, 0, true, [12, 13], &mut out);
        assert!(out.is_empty(), "mf 0 is stranded behind mf 1's first piece");
        assert!(m.flush_one(&mut out), "gives up on mf 0");
        assert_eq!(out, vec![10, 11, 12, 13]);
        assert_eq!((m.counter(), m.buffered(), m.late_drops()), (2, 0, 1));
        assert_eq!(m.flushed_ids().iter().copied().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn scr_reconciler_emits_each_range_exactly_once_in_order() {
        let mut r = ScrReconciler::new();
        let mut out = Vec::new();
        // Records arrive lane-interleaved: 0,2,1,4,3 (unit seq ranges).
        for seq in [0u64, 2, 1, 4, 3] {
            assert_eq!(r.offer(seq, seq + 1, seq, &mut out), Offer::Accepted);
        }
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(r.watermark(), 5);
        assert_eq!(r.parked_len(), 0);
        assert_eq!(r.stats().released, 5);
    }

    #[test]
    fn scr_reconciler_discards_replicated_duplicates() {
        let mut r = ScrReconciler::new();
        let mut out = Vec::new();
        r.offer(0, 1, 'a', &mut out);
        // Behind the watermark: a replicated transition already emitted.
        assert_eq!(r.offer(0, 1, 'a', &mut out), Offer::Duplicate);
        // Parked copy: second sighting of the same early record.
        r.offer(2, 3, 'c', &mut out);
        assert_eq!(r.offer(2, 3, 'c', &mut out), Offer::Duplicate);
        assert_eq!(r.dup_drops(), 2);
        r.offer(1, 2, 'b', &mut out);
        assert_eq!(out, vec!['a', 'b', 'c']);
    }

    #[test]
    fn scr_reconciler_drops_straddling_overlaps_like_the_strict_machine() {
        let mut r = ScrReconciler::new();
        let mut out = Vec::new();
        r.offer(0, 100, 1, &mut out);
        // [50,150) straddles watermark 100: stale overlap, tail not spliced.
        assert_eq!(r.offer(50, 150, 2, &mut out), Offer::Duplicate);
        assert_eq!(r.offer(100, 200, 3, &mut out), Offer::Accepted);
        assert_eq!(out, vec![1, 3]);
        assert_eq!(r.watermark(), 200);
    }

    #[test]
    fn scr_flush_skips_a_gap_and_classifies_stragglers_late() {
        let mut r = ScrReconciler::new();
        let mut out = Vec::new();
        // Seqs 1,2 parked behind lost seq 0.
        r.offer(1, 2, 'b', &mut out);
        r.offer(2, 3, 'c', &mut out);
        assert!(out.is_empty());
        assert!(r.flush_one(&mut out));
        assert_eq!(out, vec!['b', 'c']);
        assert_eq!(r.watermark(), 3);
        assert_eq!(r.flushes(), 1);
        assert_eq!(r.skipped_ranges(), vec![(0, 1)]);
        // The straggler of the flushed gap is Late, not Duplicate...
        assert_eq!(r.offer(0, 1, 'a', &mut out), Offer::Late);
        assert_eq!(r.late_drops(), 1);
        // ...while a replay of an emitted record stays Duplicate.
        assert_eq!(r.offer(1, 2, 'b', &mut out), Offer::Duplicate);
    }

    #[test]
    fn scr_flush_stalled_releases_everything_and_coalesces_gaps() {
        let mut r = ScrReconciler::new();
        let mut out = Vec::new();
        // Two separated parked runs: 2 and 5,6 (0,1,3,4 lost).
        r.offer(2, 3, 2, &mut out);
        r.offer(5, 6, 5, &mut out);
        r.offer(6, 7, 6, &mut out);
        assert_eq!(r.flush_stalled(&mut out), 2);
        assert_eq!(out, vec![2, 5, 6]);
        assert_eq!(r.skipped_ranges(), vec![(0, 2), (3, 5)]);
        assert_eq!(r.parked_len(), 0);
        // Idempotent once drained.
        assert_eq!(r.flush_stalled(&mut out), 0);
    }

    #[test]
    fn scr_reconciler_handles_byte_ranges_across_the_u32_wrap() {
        let wrap = u32::MAX as u64;
        let start = wrap - 1448;
        let mut r = ScrReconciler::new();
        let mut out = Vec::new();
        r.offer(0, start, 0u64, &mut out);
        // The segment crossing the boundary arrives after its successor.
        r.offer(start + 1448, start + 2896, 2, &mut out);
        r.offer(start, start + 1448, 1, &mut out);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(r.watermark(), start + 2896);
        assert!(r.watermark() > wrap);
    }

    #[test]
    fn scr_watermark_is_monotone_under_adversarial_offers() {
        let mut r = ScrReconciler::new();
        let mut out = Vec::new();
        let mut last = r.watermark();
        let offers = [(0u64, 3u64), (10, 12), (3, 10), (2, 5), (0, 3), (12, 13)];
        for (s, e) in offers {
            r.offer(s, e, (s, e), &mut out);
            assert!(r.watermark() >= last, "watermark regressed at ({s},{e})");
            last = r.watermark();
        }
        r.flush_stalled(&mut out);
        assert!(r.watermark() >= last);
        // Emitted ranges must be disjoint and ascending: exactly-once.
        let mut pos = 0;
        for (s, e) in out {
            assert!(s >= pos, "range ({s},{e}) overlaps an emitted one");
            pos = e;
        }
    }

    #[test]
    fn batch_merger_surfaces_degradation_counters() {
        use mflow_netstack::MicroflowTag;
        let mut bm = BatchMerger::new(100).with_flush_deadline(Some(2));
        let mk = |seq: u64, id: u64, core: usize, last: bool| {
            let mut s = Skb::new(seq, 0, 1514, 1448, seq * 1448, 0);
            s.mf = Some(MicroflowTag { id, core, last_in_batch: last });
            s
        };
        // mf 0 lost; mfs 1..3 arrive and eventually flush through.
        let out = bm.offer(vec![mk(1, 1, 0, true), mk(2, 2, 1, true), mk(3, 3, 0, true)]);
        assert_eq!(out.len(), 3);
        assert_eq!(bm.flushed(), 1);
        // A late copy of mf 0 now counts as a late drop.
        assert!(bm.offer(vec![mk(0, 0, 1, true)]).is_empty());
        assert_eq!(bm.late_drops(), 1);
        assert_eq!(bm.dup_drops(), 0);
        assert_eq!(bm.buffered(), 0);
        assert!(bm.flush_stalled().is_empty());
    }

    /// An adversarial interleaved offer stream for the snapshot tests:
    /// micro-flows 0..n, each offered out of lane order, with one late
    /// straggler and one duplicate mixed in.
    fn snapshot_stream(n: u64) -> Vec<(MfTag, u64)> {
        let mut stream = Vec::new();
        for id in (0..n).rev() {
            let lane = (id % 3) as usize;
            stream.push((MfTag { id, lane, last: false }, id * 10));
            stream.push((MfTag { id, lane, last: true }, id * 10 + 1));
        }
        // Duplicate of a released micro-flow and a stray copy.
        stream.push((MfTag { id: 0, lane: 0, last: true }, 1));
        stream
    }

    #[test]
    fn merge_counter_snapshot_resumes_identically() {
        let stream = snapshot_stream(12);
        // Uninterrupted reference run.
        let mut whole: MergeCounter<u64> = MergeCounter::with_flush_deadline(8);
        let mut whole_out = Vec::new();
        for &(tag, item) in &stream {
            whole.offer(tag, item, &mut whole_out);
        }
        // Snapshot at every prefix, restore, replay the remainder.
        for cut in 0..=stream.len() {
            let mut mc: MergeCounter<u64> = MergeCounter::with_flush_deadline(8);
            let mut out = Vec::new();
            for &(tag, item) in &stream[..cut] {
                mc.offer(tag, item, &mut out);
            }
            let mut restored = mc.snapshot();
            drop(mc); // the original crashes here
            for &(tag, item) in &stream[cut..] {
                restored.offer(tag, item, &mut out);
            }
            assert_eq!(out, whole_out, "delivery diverged at cut {cut}");
            assert_eq!(restored.stats(), whole.stats(), "stats diverged at cut {cut}");
            assert_eq!(restored.counter(), whole.counter());
        }
    }

    #[test]
    fn scr_reconciler_snapshot_resumes_identically() {
        // Positions arrive reversed pairwise with a duplicate: parked
        // state is non-trivial at most cuts.
        let stream: Vec<u64> = vec![1, 0, 3, 2, 5, 4, 4, 7, 6, 9, 8];
        let mut whole: ScrReconciler<u64> = ScrReconciler::new();
        let mut whole_out = Vec::new();
        for &p in &stream {
            whole.offer(p, p + 1, p, &mut whole_out);
        }
        for cut in 0..=stream.len() {
            let mut rc: ScrReconciler<u64> = ScrReconciler::new();
            let mut out = Vec::new();
            for &p in &stream[..cut] {
                rc.offer(p, p + 1, p, &mut out);
            }
            let mut restored = rc.snapshot();
            drop(rc);
            for &p in &stream[cut..] {
                restored.offer(p, p + 1, p, &mut out);
            }
            assert_eq!(out, whole_out, "delivery diverged at cut {cut}");
            assert_eq!(restored.stats(), whole.stats(), "stats diverged at cut {cut}");
            assert_eq!(restored.watermark(), whole.watermark());
        }
    }

    #[test]
    fn approx_bytes_tracks_buffered_state() {
        let mut mc: MergeCounter<u64> = MergeCounter::new();
        let empty = mc.approx_bytes();
        let mut out = Vec::new();
        // Park a deep backlog behind missing micro-flow 0.
        for id in 1..100 {
            mc.offer(MfTag { id, lane: 0, last: true }, id, &mut out);
        }
        assert!(out.is_empty());
        assert!(
            mc.approx_bytes() > empty + 99 * 8,
            "99 parked items must grow the estimate past the fixed cost"
        );

        let mut rc: ScrReconciler<u64> = ScrReconciler::new();
        let rc_empty = rc.approx_bytes();
        for p in 1..50 {
            rc.offer(p, p + 1, p, &mut out);
        }
        assert!(rc.approx_bytes() > rc_empty + 49 * 8);
    }
}
