//! The dispatch side: micro-flow descriptors, the steering-policy
//! instance, and the [`Dispatcher`] that sends descriptors to lanes under
//! backpressure and redispatches what a dead lane still held.
//!
//! The **dispatcher→lane** ring carries a 40-byte descriptor `{id,
//! tag, range, live}` ([`MfDesc`]) over the caller's frame slice.
//! Workers are scoped *jobs* on crew threads ([`crate::crew`]) and read
//! `frames[range]` in place, so the dispatcher clones no frame handle and
//! allocates nothing, and the retained window, a duplicate or a retag is
//! a copy of the descriptor.
//!
//! # Steering policies
//!
//! The dispatch loop groups micro-flows of `batch_size` consecutive
//! frames and asks the configured [`SteeringPolicy`]
//! ([`RuntimeConfig::policy`]) for a lane per micro-flow:
//!
//! * **mflow** (default) — micro-flows of an elephant flow round-robin
//!   across every lane, the paper's packet-level parallelism. The only
//!   policy that interleaves the stream, so the only one that *needs* the
//!   merge counter on a fault-free run.
//! * **rps** — whole-stream steering, the paper's comparator: the stream
//!   is pinned to one lane at first sight, so every run reaches the merge
//!   counter in turn and goes straight through (zero `ooo`, zero
//!   `flushed`). A call carries one stream under one global
//!   `seq`, so a NIC hash (`rss`) would pick that one lane by another
//!   rule and do nothing else; that name lives on in the simulator only,
//!   where traffic is multi-flow. So does FALCON, which pipelines the
//!   stages of a packet across cores instead of steering micro-flows
//!   ([`mflow_steering::Falcon`]).
//!
//! # Degradation under faults
//!
//! * **Worker death** — each send failure marks the lane dead; the
//!   descriptor that bounced plus a retained window of recently-sent
//!   ones are redispatched to surviving workers. A descriptor's `tag`
//!   names the copy: 0 for the primary send, a fresh number from
//!   [`Dispatcher::retag`] for every redispatched, duplicated, late or
//!   inline copy. The merger orders by micro-flow id alone and delivers
//!   the first copy of each to arrive, whichever worker (or the
//!   dispatcher) produced it; the other copies are rejected as
//!   duplicates or late. A dead lane's queue-depth counter is zeroed the
//!   moment the death is discovered (and again at join for deaths the
//!   dispatcher never observed), so occupancy signals never count
//!   micro-flows nobody will dequeue. A death nobody observed
//!   — dispatch had already ended, as it always has on a stream shorter
//!   than the lanes' queues — bounces no send; on a supervised run
//!   teardown runs such a lane's retained window on the dispatcher
//!   before the merger may see end of stream.
//! * **No live lane** — a micro-flow with none is lost, unless the run is
//!   supervised ([`RunPlan::supervised`]): then the dispatcher processes
//!   it inline. An unsupervised run that loses every worker returns
//!   [`MflowError::NoLiveWorkers`].
//! * **Planned drops** — decided, counted and logged once, by the
//!   dispatcher as it plans a micro-flow's range ([`plan_microflow`]);
//!   *replayed* wherever the range is read — lane worker, redispatch
//!   target, the dispatcher's own inline path — from the pure
//!   [`RuntimeFaults::drops_packet`], so every reader skips the same
//!   frames and no replay is counted again.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use mflow::{ElephantConfig, MflowLanes};
use mflow_error::MflowError;
use mflow_steering::{build_baseline, PolicyKind, SteeringPolicy};

use crate::config::{BackpressurePolicy, RuntimeConfig};
use crate::faults::{FaultEvent, RuntimeFaults};
use crate::merge::MergerShared;
use crate::packet::Frame;
use crate::ring::{RingProducer, RingSendError};
use crate::worker::RunPlan;

/// Instantiates the [`SteeringPolicy`] for a [`PolicyKind`]: baselines
/// come from `mflow-steering`, MFLOW itself from the `mflow` crate
/// (always-split elephant detection, as in the paper's single-flow
/// experiments).
pub(crate) fn build_policy(kind: PolicyKind) -> Result<Box<dyn SteeringPolicy>, MflowError> {
    match build_baseline(kind) {
        Some(p) => Ok(p),
        None => Ok(Box::new(MflowLanes::try_new(ElephantConfig::always())?)),
    }
}

/// One micro-flow as the dispatcher hands it to a lane: a descriptor over
/// the caller's frame slice, never a copy of it. Workers are scoped
/// jobs, so a worker reads `frames[start..end]` in place; the
/// dispatcher clones no frame handle and allocates nothing, and the
/// retained window, a duplicate, a late copy and a retag are all a copy
/// of these 40 bytes.
#[derive(Clone, Copy, Debug)]
pub(crate) struct MfDesc {
    pub(crate) id: u64,
    /// Which copy of the micro-flow this is, carried into its run: 0 for
    /// the primary send, a fresh number for every other copy.
    pub(crate) tag: usize,
    /// The range opens at the micro-flow's first surviving frame and ends
    /// with the frame that closes it (see [`plan_microflow`]).
    pub(crate) start: usize,
    pub(crate) end: usize,
    /// Frames of the range that survive the planned drops: the length of
    /// the range on every run without injected loss, which is how a
    /// reader knows there is nothing to replay.
    pub(crate) live: usize,
}

/// Dispatcher-side view of one worker queue.
pub(crate) struct Lane {
    pub(crate) tx: Option<RingProducer<MfDesc>>,
    /// The most recently sent descriptors (faulty and supervised runs
    /// only): the micro-flows that may still sit unprocessed in the queue
    /// when the worker dies, and must be redispatched. Capacity
    /// `queue_depth + 2` covers the full queue, the one in the worker's
    /// hands, and the one that bounced.
    pub(crate) recent: VecDeque<MfDesc>,
}

/// Everything the dispatcher tracks while the stream is in flight.
pub(crate) struct Dispatcher<'a> {
    pub(crate) lanes: Vec<Lane>,
    retain: usize,
    /// The tag [`Dispatcher::retag`] gives the next copy.
    next_tag: usize,
    /// Physical worker round-robin cursor for recovery sends.
    next_worker: usize,
    pub(crate) redispatched: u64,
    /// Packets the fault plan dropped at dispatch ([`plan_microflow`]).
    pub(crate) fault_drops: u64,
    /// Per-lane queue depth in micro-flows: incremented here on every
    /// successful send, decremented by the worker as it dequeues. The
    /// watermark signal backpressure decisions read.
    pub(crate) depths: &'a [AtomicUsize],
    policy: BackpressurePolicy,
    high_watermark: Option<usize>,
    inline_fallback: bool,
    /// Packets `DropTail` may still shed.
    shed_budget_left: u64,
    pub(crate) shed_packets: u64,
    pub(crate) sheds: Vec<(u64, usize)>,
    pub(crate) inline_batches: u64,
    pub(crate) inline_packets: u64,
    pub(crate) block_fallbacks: u64,
    pub(crate) backpressure_events: u64,
    /// [`RunPlan::supervised`]: micro-flows that lost their only
    /// reachable worker are handed back for inline processing instead of
    /// being dropped ("no live worker" does not mean the pipeline is
    /// dead — the dispatcher itself still is).
    orphan_inline: bool,
    orphans: Vec<MfDesc>,
    /// Sends still to be made, as `(lane, micro-flow)`: one entry on the
    /// normal path, a dead lane's whole window when a send bounces.
    /// Dispatcher state rather than a local, so a blocking send allocates
    /// nothing.
    pending: Vec<(usize, MfDesc)>,
    /// Watched while a blocking send waits ([`MergerShared::watch`]): the
    /// lane it waits on may be that of a merge-lock holder that wedged.
    merger: &'a MergerShared<'a>,
}

impl<'a> Dispatcher<'a> {
    pub(crate) fn new(
        lanes: Vec<Lane>,
        cfg: &RuntimeConfig,
        depths: &'a [AtomicUsize],
        plan: &RunPlan,
        merger: &'a MergerShared<'a>,
    ) -> Self {
        Self {
            lanes,
            retain: plan.retain,
            next_tag: 1,
            next_worker: 0,
            redispatched: 0,
            fault_drops: 0,
            depths,
            policy: cfg.backpressure,
            high_watermark: cfg.high_watermark,
            inline_fallback: cfg.inline_fallback,
            shed_budget_left: match cfg.backpressure {
                BackpressurePolicy::DropTail { budget } => budget,
                _ => 0,
            },
            shed_packets: 0,
            sheds: Vec::new(),
            inline_batches: 0,
            inline_packets: 0,
            block_fallbacks: 0,
            backpressure_events: 0,
            orphan_inline: plan.supervised,
            orphans: Vec::new(),
            pending: Vec::new(),
            merger,
        }
    }

    /// Micro-flows with no reachable worker, handed back for inline
    /// processing (empty unless `orphan_inline`).
    pub(crate) fn take_orphans(&mut self) -> Vec<MfDesc> {
        std::mem::take(&mut self.orphans)
    }

    /// Marks a lane dead and zeroes its depth counter: micro-flows still
    /// queued there will never be dequeued, so leaving the count in
    /// place would feed phantom load into every aggregate-occupancy
    /// signal (watermarks, engagement counters) for the rest of the run.
    fn mark_dead(&mut self, lane: usize) -> VecDeque<MfDesc> {
        self.lanes[lane].tx = None;
        self.depths[lane].store(0, Ordering::Relaxed);
        std::mem::take(&mut self.lanes[lane].recent)
    }

    /// Whether the lane currently has no live worker attached.
    pub(crate) fn lane_dead(&self, lane: usize) -> bool {
        self.lanes[lane].tx.is_none()
    }

    /// Fails a lane the watchdog declared stalled: marks it dead and
    /// redispatches its retained window, exactly as a bounced send
    /// would. The stalled worker may still be alive and drain its queue
    /// later — the merge counter rejects those re-deliveries as
    /// duplicates.
    pub(crate) fn fail_lane(&mut self, lane: usize) {
        for lost in self.mark_dead(lane) {
            self.reroute(lost);
        }
        self.pump();
    }

    /// Re-occupies a dead slot with a freshly spawned worker's lane:
    /// installs the new sender, clears the retained window (the old one
    /// was redispatched at death) and resets the depth counter.
    pub(crate) fn revive(&mut self, lane: usize, tx: RingProducer<MfDesc>) {
        self.lanes[lane].tx = Some(tx);
        self.lanes[lane].recent.clear();
        self.depths[lane].store(0, Ordering::Relaxed);
    }

    /// Sends `desc` to worker `lane`, redispatching on failure.
    fn send(&mut self, lane: usize, desc: MfDesc) {
        self.pending.push((lane, desc));
        self.pump();
    }

    /// Drains the pending send list iteratively: a redispatch target may
    /// itself be dead, bouncing the micro-flow again.
    fn pump(&mut self) {
        while let Some((lane, desc)) = self.pending.pop() {
            let Some(tx) = self.lanes[lane].tx.as_mut() else {
                // Known-dead lane: reroute to a live worker directly.
                self.reroute(desc);
                continue;
            };
            // Count the micro-flow as queued *before* publishing it:
            // worker decrements are saturating, so one observed before
            // its increment would be lost for good. (A bounced send
            // leaves the counter inflated only until `mark_dead` zeroes
            // it.)
            self.depths[lane].fetch_add(1, Ordering::Relaxed);
            let merger = self.merger;
            if tx.push_while(desc, || merger.watch()).is_err() {
                // The worker died: everything it still held is lost.
                // Redispatch its retained window plus this micro-flow.
                let window = self.mark_dead(lane);
                for lost in window.into_iter().chain(std::iter::once(desc)) {
                    self.reroute(lost);
                }
            }
        }
    }

    /// Sends a micro-flow, noting it in the lane's retained window first
    /// (faulty and supervised runs only).
    pub(crate) fn send_retained(&mut self, lane: usize, desc: MfDesc) {
        if !self.lane_dead(lane) {
            self.remember(lane, desc);
        }
        self.send(lane, desc);
    }

    fn remember(&mut self, lane: usize, desc: MfDesc) {
        if self.retain == 0 {
            return;
        }
        let recent = &mut self.lanes[lane].recent;
        if recent.len() == self.retain {
            recent.pop_front();
        }
        recent.push_back(desc);
    }

    /// Offers `desc` to worker `lane` under the backpressure policy.
    /// Returns it when the policy decided the *caller* must process the
    /// micro-flow inline on the dispatcher thread.
    pub(crate) fn offer(&mut self, lane: usize, desc: MfDesc) -> Option<MfDesc> {
        let over_watermark = !self.lane_dead(lane)
            && self
                .high_watermark
                .is_some_and(|w| self.depths[lane].load(Ordering::Relaxed) >= w);
        if !over_watermark && self.try_send_now(lane, desc) {
            return None;
        }
        self.backpressure_events += 1;
        self.apply_policy(lane, desc)
    }

    /// Non-blocking send with the same dead-lane recovery as [`send`];
    /// `false` when the queue was full and nothing was enqueued.
    ///
    /// [`send`]: Dispatcher::send
    fn try_send_now(&mut self, lane: usize, desc: MfDesc) -> bool {
        let Some(tx) = self.lanes[lane].tx.as_mut() else {
            // Known-dead lane: the blocking path already reroutes without
            // ever waiting.
            self.send(lane, desc);
            return true;
        };
        // Increment-before-send, as in `pump`: saturating worker-side
        // decrements must never race ahead of the increment.
        self.depths[lane].fetch_add(1, Ordering::Relaxed);
        match tx.try_push(desc) {
            Ok(()) => {
                self.remember(lane, desc);
                true
            }
            Err(RingSendError::Full(_)) => {
                // Nothing was enqueued; take the provisional count back.
                depth_dec(&self.depths[lane]);
                false
            }
            Err(RingSendError::Closed(_)) => {
                // Route through the blocking path: its send error handler
                // marks the lane dead and redispatches the retained
                // window plus this micro-flow.
                self.send(lane, desc);
                true
            }
        }
    }

    /// The policy decision for a saturated lane. `None` means the
    /// micro-flow was handled (sent, blocked-and-sent, or shed); `Some`
    /// hands it back for inline processing.
    fn apply_policy(&mut self, lane: usize, desc: MfDesc) -> Option<MfDesc> {
        match self.policy {
            BackpressurePolicy::Block => {
                self.send_retained(lane, desc);
                None
            }
            BackpressurePolicy::DropTail { .. } => {
                let n = desc.live as u64;
                if self.shed_budget_left >= n {
                    self.shed_budget_left -= n;
                    self.shed_packets += n;
                    self.sheds.push((desc.id, lane));
                    None
                } else if self.inline_fallback {
                    Some(desc)
                } else {
                    self.block_fallbacks += 1;
                    self.send_retained(lane, desc);
                    None
                }
            }
            BackpressurePolicy::Inline => Some(desc),
        }
    }

    /// Retags a lost micro-flow as a new copy and queues it for the next
    /// live worker. When no workers are left it is dropped — or, with
    /// `orphan_inline`, parked for inline processing.
    fn reroute(&mut self, desc: MfDesc) {
        let Some(target) = self.pick_live_worker() else {
            if self.orphan_inline {
                self.orphans.push(desc);
            }
            return;
        };
        let desc = self.retag(desc);
        self.redispatched += 1;
        self.pending.push((target, desc));
    }

    /// The same micro-flow as a new copy, under a tag no other copy has.
    pub(crate) fn retag(&mut self, desc: MfDesc) -> MfDesc {
        let tag = self.next_tag;
        self.next_tag += 1;
        MfDesc { tag, ..desc }
    }

    fn pick_live_worker(&mut self) -> Option<usize> {
        let n = self.lanes.len();
        for _ in 0..n {
            let w = self.next_worker % n;
            self.next_worker = (self.next_worker + 1) % n;
            if self.lanes[w].tx.is_some() {
                return Some(w);
            }
        }
        None
    }

    /// Sends a new copy of `desc` to the next live worker (parked for
    /// inline processing under `orphan_inline` when none is left).
    pub(crate) fn send_recovery(&mut self, desc: MfDesc) {
        let retagged = self.retag(desc);
        if let Some(target) = self.pick_live_worker() {
            self.send(target, retagged);
        } else if self.orphan_inline {
            self.orphans.push(retagged);
        }
    }
}

/// Saturating depth decrement: a replaced-but-still-draining incarnation
/// may decrement after the watchdog reset the counter to zero; clamping
/// keeps the occupancy signal from wrapping to a phantom huge backlog.
pub(crate) fn depth_dec(depth: &AtomicUsize) {
    let _ = depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

/// Plans the micro-flow `id` that opens at `frames[from]`: walks forward
/// to the frame that closes it — the `batch_size`-th survivor of the
/// planned drops, or the last frame of the stream — and returns
/// `(start, end, live)`: the range `frames[start..end]` with leading
/// drops trimmed off (so a live micro-flow's first frame is a survivor,
/// the one the dispatcher hashes) and the survivors in it. `next == end`
/// is where the following micro-flow opens; `live == 0` means every
/// frame was dropped and nothing is dispatched.
///
/// This is the one place a planned drop is counted and logged. Whoever
/// reads the range replays the decisions ([`MfDesc::complete`]) — possibly
/// more than once, after a redispatch — without counting them again.
pub(crate) fn plan_microflow(
    frames: &[Frame],
    from: usize,
    id: u64,
    batch_size: usize,
    faults: &RuntimeFaults,
    fault_drops: &mut u64,
) -> (usize, usize, usize) {
    if faults.drop_rate <= 0.0 && faults.drop_last_rate <= 0.0 {
        let end = (from + batch_size).min(frames.len());
        return (from, end, end - from);
    }
    let (mut start, mut live) = (from, 0);
    for (i, frame) in frames.iter().enumerate().skip(from) {
        let closes = live + 1 == batch_size || i + 1 == frames.len();
        if faults.drops_packet(id, frame.seq, closes) {
            faults.note(FaultEvent::Drop {
                mf_id: id,
                seq: frame.seq,
            });
            *fault_drops += 1;
            if live == 0 {
                start = i + 1;
            }
        } else {
            live += 1;
        }
        if closes {
            return (start, i + 1, live);
        }
    }
    unreachable!("the stream's last frame closes its micro-flow")
}
