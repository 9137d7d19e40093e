//! The worker side: the shape of a run ([`Topology`]), the decisions
//! resolved for it ([`RunPlan`]), and the one [`worker_loop`] that runs
//! at every position of the shape.
//!
//! Fan-out policies (mflow, rps) are `workers` x 1: every worker is both
//! head and tail of its lane and does all the per-packet work. FALCON is
//! 1 x min(stage groups, workers): the worker at stage *k* applies stage
//! group *k* of [`crate::work::STAGES`] and forwards. A stage whose next
//! hop has died finishes its micro-flows itself.
//!
//! The **stage→next stage** ring (chains only) carries one run of
//! [`StagedWork`] per micro-flow ([`StagedRun`]); the chain head is the
//! one place that still clones frame handles, because staged work
//! outlives the stage.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Duration;

use mflow::StatefulMode;

use crate::config::{BackpressurePolicy, RuntimeConfig};
use crate::crew;
use crate::dispatch::{depth_dec, MfDesc};
use crate::faults::{FaultEvent, RuntimeFaults};
use crate::merge::{MergedRun, Run};
use crate::packet::Frame;
use crate::ring::{RingConsumer, RingProducer};
use crate::supervise::HeartbeatBoard;
use crate::work::{
    complete_staged, process_batch, process_frames, stage_group_sizes, stateful_stage, StagedWork,
};

/// A micro-flow part-way through the staged pipeline, as forwarded
/// between FALCON chain workers.
pub(crate) type StagedRun = Run<StagedWork>;

/// The shape of a run (drawn in the docs of [`crate::run`]): `lanes`
/// entry lanes of `depth` stage workers each. Computed once per run;
/// nothing downstream asks which family a policy belongs to, only for
/// these numbers.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Topology {
    pub(crate) lanes: usize,
    pub(crate) depth: usize,
    /// `groups[stage]`: how many of [`crate::work::STAGES`] the worker at
    /// that stage applies; they sum to `STAGES`.
    pub(crate) groups: Vec<usize>,
}

impl Topology {
    pub(crate) fn new(stage_groups: usize, workers: usize) -> Self {
        let (lanes, depth) = if stage_groups >= 2 {
            (1, stage_groups.min(workers))
        } else {
            (workers, 1)
        };
        Self {
            lanes,
            depth,
            groups: stage_group_sizes(depth),
        }
    }

    /// Worker threads, and worker slots: `slot = lane * depth + stage`.
    pub(crate) fn threads(&self) -> usize {
        self.lanes * self.depth
    }

    /// Index of the [`Link`] from `(lane, stage)` to `(lane, stage + 1)`.
    pub(crate) fn link(&self, lane: usize, stage: usize) -> usize {
        lane * (self.depth - 1) + stage
    }
}

/// Every decision of a run that follows from what was *asked for* — the
/// configuration, the policy it names and the injected fault mix — and
/// not from anything that happens while the stream is in flight.
/// Resolved once per run, beside [`Topology`], and read everywhere else:
/// nothing outside [`RunPlan::new`] asks [`RuntimeConfig::supervised`],
/// [`RuntimeFaults::is_active`] or
/// [`RuntimeFaults::merger_faults_active`] in order to decide something.
/// (Per-micro-flow injection hooks such as [`RuntimeFaults::delays_mf`]
/// stay where they fire.)
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct RunPlan {
    /// The supervision layer is engaged: the stall watchdog, the respawn
    /// machinery, or both.
    pub(crate) supervised: bool,
    /// The merger's mid-stream flush deadline
    /// ([`RuntimeFaults::flush_timeout_ms`]), for the runs that can lose
    /// or re-route a micro-flow; `None` waits for every micro-flow.
    pub(crate) flush_timeout: Option<Duration>,
    /// The merger failure domain is armed — whenever the merger can
    /// actually die or wedge: supervision on, or merger faults injected.
    /// Offers are journaled and checkpointed and the watchdog methods of
    /// [`crate::merge::MergerWatch`] act. Off — a benign unsupervised run
    /// — every one of them is a no-op and the single merger incarnation
    /// runs to EOS exactly as the unsupervised pipeline always has.
    pub(crate) wal_on: bool,
    /// Stateful-stage placement, at most one nonzero: under SCR the lanes
    /// (and every path standing in for one — local completion past a dead
    /// next hop, inline processing) apply `lane_rounds`; under
    /// merge-before-tcp the merger applies `merger_rounds` to results as
    /// it emits them in order ([`crate::merge::MergerState`]).
    pub(crate) lane_rounds: u32,
    pub(crate) merger_rounds: u32,
    /// Descriptors each lane keeps in its retained window
    /// ([`crate::dispatch::Lane::recent`]): `queue_depth + 2` on faulty
    /// and on supervised runs — a stall-respawn needs the window to
    /// redispatch even when no fault injector is wired — else none.
    pub(crate) retain: usize,
    /// Micro-flows with no reachable worker go to the dispatcher for
    /// inline processing instead of being dropped: chain policies and
    /// supervised runs ([`crate::dispatch`], "Degradation under faults").
    /// Keyed on the policy, not on the shape.
    pub(crate) inline_orphans: bool,
}

impl RunPlan {
    pub(crate) fn new(cfg: &RuntimeConfig, faults: &RuntimeFaults) -> Self {
        let supervised = cfg.supervised();
        let faulty = faults.is_active();
        // The run can remove micro-flows from the stream or re-route them
        // without any fault injected. DropTail removes whole micro-flows,
        // which stalls the merge counter exactly like injected loss does,
        // and any policy that can go inline (Inline itself, DropTail's
        // inline fallback) hands micro-flows to the dispatcher, whose
        // copies may trail the lanes' runs indefinitely — so every policy
        // that sheds or processes inline counts, not just DropTail.
        // Supervision counts too: a stall-respawn redispatches the
        // retained window while the stalled worker may still drain its
        // copy, so redispatched copies and duplicates become possible.
        let can_shed_or_recover =
            !matches!(cfg.backpressure, BackpressurePolicy::Block) || supervised;
        let flush_timeout = if faulty || can_shed_or_recover {
            faults.flush_timeout_ms.map(Duration::from_millis)
        } else {
            None
        };
        let (lane_rounds, merger_rounds) = match cfg.stateful_mode {
            StatefulMode::StateComputeReplication => (cfg.stateful_work, 0),
            StatefulMode::MergeBeforeTcp => (0, cfg.stateful_work),
        };
        Self {
            supervised,
            flush_timeout,
            wal_on: supervised || faults.merger_faults_active(),
            lane_rounds,
            merger_rounds,
            retain: if faulty || supervised {
                cfg.queue_depth + 2
            } else {
                0
            },
            inline_orphans: cfg.policy.stage_groups() >= 2 || supervised,
        }
    }
}

/// Applies the injected per-worker faults for one received micro-flow;
/// panics for an injected death (caught and counted at join).
fn apply_worker_faults(
    faults: &RuntimeFaults,
    worker: usize,
    incarnation: u64,
    processed: u64,
    mf_id: u64,
) {
    if faults.kill_fires(worker, incarnation, processed) {
        faults.note(FaultEvent::Kill {
            worker,
            incarnation,
        });
        // The injected death: an abrupt panic that drops the queues.
        panic!("injected worker death");
    }
    if let Some(slow) = faults.slow_worker {
        if slow.worker == worker {
            // Sustained pressure: every batch pays.
            thread::sleep(Duration::from_micros(slow.per_batch_us));
        }
    }
    if faults.stalls_on(mf_id) {
        faults.note(FaultEvent::Stall { worker, mf_id });
        thread::sleep(Duration::from_millis(faults.stall_ms));
    }
}

/// What a stage worker dequeues: a descriptor over wire frames at a lane
/// head, a staged run at an interior stage. Either is advanced by one
/// stage group for the next hop, or taken through every remaining stage
/// (plus the replicated stateful stage when SCR is on) — what a tail
/// does with its input, what any stage does with a run whose next hop
/// died, and what the dispatcher does with a micro-flow it keeps inline.
pub(crate) trait StageInput: Send + Sized {
    fn mf_id(&self) -> u64;

    fn advance(self, ctx: &WorkerCtx<'_, '_>, group: usize) -> StagedRun;

    fn complete(self, ctx: &WorkerCtx<'_, '_>) -> MergedRun;
}

impl MfDesc {
    /// Runs `walk` over the micro-flow's surviving frames, in place in
    /// the caller's slice and in order — this thread is the first to
    /// touch their bytes, so `walk` is one of the loops of
    /// [`crate::work`] that prefetch ahead of themselves, given the whole
    /// range at once.
    ///
    /// Planned drops are replayed here, where the frames are read, from
    /// the pure [`RuntimeFaults::drops_packet`]: by construction of the
    /// range only its final frame can close the micro-flow, so every
    /// reader of one descriptor — the lane head, a redispatch target, the
    /// dispatcher's inline path — skips exactly the frames the dispatcher
    /// counted and logged, once, when it planned the range. A range with
    /// drops is walked one surviving frame at a time.
    fn run<R>(
        &self,
        ctx: &WorkerCtx<'_, '_>,
        mut walk: impl FnMut(&[Frame], &mut Vec<R>),
    ) -> Run<R> {
        let span = &ctx.frames[self.start..self.end];
        let mut items = Vec::with_capacity(self.live);
        // Whether the latest frame survived; after the walk, whether the
        // closing one did.
        let mut closed = true;
        if self.live == span.len() {
            walk(span, &mut items);
        } else {
            for (k, frame) in span.iter().enumerate() {
                closed = !ctx.faults.drops_packet(self.id, frame.seq, k + 1 == span.len());
                if closed {
                    walk(std::slice::from_ref(frame), &mut items);
                }
            }
        }
        Run {
            id: self.id,
            tag: self.tag,
            closed,
            items,
        }
    }
}

impl StageInput for MfDesc {
    fn mf_id(&self) -> u64 {
        self.id
    }

    /// The one place frame handles are still cloned: staged work outlives
    /// this stage, so it must own its buffer.
    fn advance(self, ctx: &WorkerCtx<'_, '_>, group: usize) -> StagedRun {
        let stage = |f: &Frame| StagedWork::Raw(f.clone()).advance_n(group);
        self.run(ctx, |span, out| process_batch(span, stage, out))
    }

    /// Not `advance(STAGES)`: a worker that owns every stage must pay
    /// what [`crate::work::process_frame`] costs, and building the enum
    /// on the stack per frame only to match it apart again measured 4.35
    /// against 4.78 Mframes/s on `elephant64`.
    fn complete(self, ctx: &WorkerCtx<'_, '_>) -> MergedRun {
        let stateful = |r| stateful_stage(r, ctx.lane_rounds);
        self.run(ctx, |span, out| process_frames(span, stateful, out))
    }
}

impl StageInput for StagedRun {
    fn mf_id(&self) -> u64 {
        self.id
    }

    fn advance(self, _: &WorkerCtx<'_, '_>, group: usize) -> StagedRun {
        self.with_items(|staged| staged.into_iter().map(|w| w.advance_n(group)).collect())
    }

    /// By reference, so that the run's digests go through the same
    /// lock-step kernel as a lane worker's; the staged items (and with
    /// them the frame handles) are dropped once every result is out.
    fn complete(self, ctx: &WorkerCtx<'_, '_>) -> MergedRun {
        self.with_items(|staged| {
            let mut results = Vec::new();
            complete_staged(&staged, |r| stateful_stage(r, ctx.lane_rounds), &mut results);
            results
        })
    }
}

/// The sender half of a [`Link`]. The generation counter invalidates
/// senders taken out before a re-wire.
pub(crate) struct LinkSlot {
    pub(crate) gen: u64,
    tx: Option<RingProducer<StagedRun>>,
}

/// One re-wireable link between consecutive stages of a lane. The sender
/// lives in a shared slot (instead of being owned by the upstream
/// worker) so the watchdog can swap in a fresh ring when the downstream
/// stage is respawned — re-homing the stage onto the new worker.
pub(crate) struct Link {
    slot: Mutex<LinkSlot>,
    /// Staged batches queued in the link: counted up by the upstream
    /// before it publishes, down by the downstream as it dequeues.
    pub(crate) depth: AtomicUsize,
    /// Generation at which the upstream observed the downstream dead
    /// (`u64::MAX` = no pending death signal). The watchdog only honors
    /// a signal matching the current generation, so stale discoveries of
    /// an already-replaced link are ignored.
    pub(crate) dead_gen: AtomicU64,
}

impl Link {
    pub(crate) fn new(tx: RingProducer<StagedRun>) -> Self {
        Self {
            slot: Mutex::new(LinkSlot {
                gen: 0,
                tx: Some(tx),
            }),
            depth: AtomicUsize::new(0),
            dead_gen: AtomicU64::new(u64::MAX),
        }
    }

    pub(crate) fn slot(&self) -> std::sync::MutexGuard<'_, LinkSlot> {
        self.slot.lock().expect("link slot lock")
    }

    /// Sends a staged run to the next stage. `Err` hands it back when
    /// the next hop is gone (cut, or its ring just bounced the send); a
    /// bounce also flags the death, keyed by generation, for the watchdog
    /// to respawn.
    fn forward(&self, staged: StagedRun) -> Result<(), StagedRun> {
        let (gen, tx) = {
            let mut s = self.slot();
            (s.gen, s.tx.take())
        };
        let Some(mut tx) = tx else {
            return Err(staged);
        };
        // Count the batch as queued before publishing it, so the
        // downstream decrement can never observe the counter early.
        self.depth.fetch_add(1, Ordering::Relaxed);
        match tx.push(staged) {
            Ok(()) => {
                let mut s = self.slot();
                if s.gen == gen {
                    s.tx = Some(tx);
                }
                // Generation moved: the watchdog re-wired this link while
                // the send was in flight; the taken-out sender fed the
                // replaced ring and is dropped here. The batch it carried
                // is lost with that ring and flushed by the merge counter.
                Ok(())
            }
            Err(bounced) => {
                depth_dec(&self.depth);
                self.dead_gen.store(gen, Ordering::Release);
                let mut s = self.slot();
                if s.gen == gen {
                    s.tx = None;
                }
                Err(bounced)
            }
        }
    }

    /// Cuts the link: the upstream completes batches locally from now
    /// on, and the downstream sees end-of-stream once its ring drains.
    /// The generation bump invalidates a sender still in flight upstream.
    pub(crate) fn cut(&self) {
        let mut s = self.slot();
        s.gen += 1;
        s.tx = None;
    }

    /// Re-homes the downstream stage onto a fresh ring.
    pub(crate) fn rewire(&self, tx: RingProducer<StagedRun>) {
        {
            let mut s = self.slot();
            s.gen += 1;
            s.tx = Some(tx);
        }
        self.depth.store(0, Ordering::Relaxed);
        self.dead_gen.store(u64::MAX, Ordering::Release);
    }
}

/// Everything a stage worker reads, bundled like its merger-side twin
/// [`crate::merge::MergerWatch`] so initial spawn and every respawn are
/// one call. `Copy`, so call sites borrow nothing.
#[derive(Clone, Copy)]
pub(crate) struct WorkerCtx<'scope, 'env> {
    pub(crate) s: &'scope crew::Scope<'scope, 'env>,
    pub(crate) topo: &'env Topology,
    /// The caller's frames, which every [`MfDesc`] indexes.
    pub(crate) frames: &'env [Frame],
    /// Per-lane dispatcher queue depths (a head's backlog).
    pub(crate) depths: &'env [AtomicUsize],
    /// Indexed by [`Topology::link`]; empty when `depth == 1`.
    pub(crate) links: &'env [Link],
    /// [`crate::merge::MergerShared::sent`].
    pub(crate) sent: &'env AtomicU64,
    pub(crate) faults: &'env RuntimeFaults,
    pub(crate) beats: &'env HeartbeatBoard,
    pub(crate) lane_rounds: u32,
}

impl<'scope> WorkerCtx<'scope, '_> {
    /// Starts incarnation `incarnation` of worker `slot` as a job of its
    /// own, draining `rx` and publishing results through `merge`.
    /// The handle comes back tagged with its slot, so join-time panics
    /// can be attributed per slot even after respawns reorder the list.
    pub(crate) fn spawn_worker<T: StageInput + 'scope>(
        self,
        slot: usize,
        incarnation: u64,
        rx: RingConsumer<T>,
        merge: RingProducer<MergedRun>,
    ) -> (usize, crew::JoinHandle<'scope>) {
        let s = self.s;
        let h = s.spawn(move || worker_loop(self, slot, incarnation, rx, merge));
        (slot, h)
    }
}

/// One stage-worker incarnation, at any position of any topology:
/// dequeue, heartbeat, injected faults, this stage's group of the
/// per-packet work, then hand on. A tail (every fan-out worker; the last
/// stage of a chain) completes into the merger; any other stage forwards
/// through its link, and finishes the micro-flow itself when the next hop
/// has died — the merger orders by micro-flow id, so it does not matter
/// which stage's merge ring a run comes through.
fn worker_loop<T: StageInput>(
    ctx: WorkerCtx<'_, '_>,
    slot: usize,
    incarnation: u64,
    mut rx: RingConsumer<T>,
    mut merge: RingProducer<MergedRun>,
) {
    let topo = ctx.topo;
    let (lane, stage) = (slot / topo.depth, slot % topo.depth);
    let group = topo.groups[stage];
    // The backlog counter of the ring this worker drains: the dispatcher
    // lane's at a head, the incoming link's at an interior stage.
    let backlog = match stage {
        0 => &ctx.depths[lane],
        _ => &ctx.links[topo.link(lane, stage - 1)].depth,
    };
    // A tail has no link at all, so it takes no lock per micro-flow.
    let next = (stage + 1 < topo.depth).then(|| &ctx.links[topo.link(lane, stage)]);
    let mut processed = 0u64;
    while let Some(input) = rx.pop() {
        depth_dec(backlog);
        ctx.beats.bump(slot);
        apply_worker_faults(ctx.faults, slot, incarnation, processed, input.mf_id());
        processed += 1;
        let run = match next {
            None => input.complete(&ctx),
            Some(link) => match link.forward(input.advance(&ctx, group)) {
                Ok(()) => continue,
                Err(bounced) => bounced.complete(&ctx),
            },
        };
        // One merge-side handoff per micro-flow: the run's results `Vec`
        // is the slot's payload. Counted before publishing, so the merger
        // watchdog's backlog signal (`sent - recvd`) can never
        // under-report queued micro-flows.
        ctx.sent.fetch_add(1, Ordering::Relaxed);
        if merge.push(run).is_err() {
            // Merger gone; nothing useful left to do.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{MergerKill, WorkerKill};
    use mflow_steering::PolicyKind;

    #[test]
    fn topology_of_every_policy_and_worker_count() {
        use PolicyKind::*;
        // Per policy, at workers 1..=4: (lanes, depth, stage groups).
        type Row = (usize, usize, &'static [usize]);
        let fan_out = |w: usize| -> Row { (w, 1, &[3]) };
        let table: [(PolicyKind, [Row; 4]); 4] = [
            (Mflow, [1, 2, 3, 4].map(fan_out)),
            (Rps, [1, 2, 3, 4].map(fan_out)),
            (
                FalconDev,
                [(1, 1, &[3]), (1, 2, &[2, 1]), (1, 2, &[2, 1]), (1, 2, &[2, 1])],
            ),
            (
                FalconFunc,
                [(1, 1, &[3]), (1, 2, &[2, 1]), (1, 3, &[1, 1, 1]), (1, 3, &[1, 1, 1])],
            ),
        ];
        assert_eq!(table.map(|(kind, _)| kind), PolicyKind::ALL);
        for (kind, rows) in table {
            for (workers, (lanes, depth, groups)) in (1..).zip(rows) {
                let topo = Topology::new(kind.stage_groups(), workers);
                let want = Topology {
                    lanes,
                    depth,
                    groups: groups.to_vec(),
                };
                assert_eq!(topo, want, "{kind} w={workers}");
                assert_eq!(topo.threads(), lanes * depth);
                assert_eq!(topo.threads(), kind.worker_slots(workers), "{kind}");
            }
        }
    }

    #[test]
    fn run_plan_of_every_cell() {
        const QUEUE_DEPTH: usize = 5;
        const WORK: u32 = 7;
        let (mut worker_faults, mut merger_faults) = (RuntimeFaults::none(), RuntimeFaults::none());
        worker_faults.kills.push(WorkerKill {
            worker: 0,
            after_batches: 1,
            incarnation: 0,
        });
        merger_faults.merger_kills.push(MergerKill {
            after_offers: 1,
            incarnation: 0,
        });
        let injected = [
            ("nothing", RuntimeFaults::none()),
            ("worker faults", worker_faults),
            ("merger faults", merger_faults),
        ];
        const NOTHING: usize = 0;
        const WORKER: usize = 1;
        const MERGER: usize = 2;
        // (supervised, injected, backpressure is Block) ->
        // (perturbed, wal_on, retains), where a perturbed run — one that
        // can lose or re-route a micro-flow — arms the flush deadline.
        type Row = ((bool, usize, bool), (bool, bool, bool));
        let table: [Row; 12] = [
            ((false, NOTHING, true), (false, false, false)),
            ((false, NOTHING, false), (true, false, false)),
            ((false, WORKER, true), (true, false, true)),
            ((false, WORKER, false), (true, false, true)),
            ((false, MERGER, true), (true, true, true)),
            ((false, MERGER, false), (true, true, true)),
            ((true, NOTHING, true), (true, true, true)),
            ((true, NOTHING, false), (true, true, true)),
            ((true, WORKER, true), (true, true, true)),
            ((true, WORKER, false), (true, true, true)),
            ((true, MERGER, true), (true, true, true)),
            ((true, MERGER, false), (true, true, true)),
        ];
        let backpressure = [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropTail { budget: 64 },
            BackpressurePolicy::Inline,
        ];
        let mut cells = 0;
        for ((supervised, which, blocking), outcome) in table {
            let (perturbed, wal_on, retains) = outcome;
            let (injected, faults) = &injected[which];
            for backpressure in backpressure
                .into_iter()
                .filter(|bp| (*bp == BackpressurePolicy::Block) == blocking)
            {
                for policy in PolicyKind::ALL {
                    for stateful_mode in StatefulMode::ALL {
                        let cfg = RuntimeConfig {
                            policy,
                            stateful_mode,
                            stateful_work: WORK,
                            backpressure,
                            queue_depth: QUEUE_DEPTH,
                            restart_budget: u32::from(supervised),
                            ..RuntimeConfig::default()
                        };
                        let scr = stateful_mode == StatefulMode::StateComputeReplication;
                        let chained =
                            matches!(policy, PolicyKind::FalconDev | PolicyKind::FalconFunc);
                        let want = RunPlan {
                            supervised,
                            flush_timeout: perturbed.then_some(Duration::from_millis(100)),
                            wal_on,
                            lane_rounds: if scr { WORK } else { 0 },
                            merger_rounds: if scr { 0 } else { WORK },
                            retain: if retains { QUEUE_DEPTH + 2 } else { 0 },
                            inline_orphans: chained || supervised,
                        };
                        assert_eq!(
                            RunPlan::new(&cfg, faults),
                            want,
                            "{policy}/{stateful_mode:?}/{backpressure:?} \
                             supervised={supervised}, {injected} injected"
                        );
                        cells += 1;
                    }
                }
            }
        }
        assert_eq!(cells, 4 * 2 * 3 * 2 * 3, "every cell exactly once");

        // The heartbeat alone supervises too, and a run can be told to
        // wait for every micro-flow whatever is injected.
        let heartbeat_only = RuntimeConfig {
            heartbeat_interval_ms: Some(25),
            ..RuntimeConfig::default()
        };
        let patient = RuntimeFaults {
            flush_timeout_ms: None,
            ..injected[WORKER].1.clone()
        };
        let plan = RunPlan::new(&heartbeat_only, &patient);
        assert!(plan.supervised && plan.wal_on && plan.inline_orphans);
        assert_eq!(plan.flush_timeout, None);
        let plan = RunPlan::new(&RuntimeConfig::default(), &patient);
        assert!(!plan.supervised && plan.flush_timeout.is_none());
    }
}
