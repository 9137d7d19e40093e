//! The worker side: the decisions resolved for a run ([`RunPlan`]) and
//! the one [`worker_loop`] every lane runs.
//!
//! Every policy runs `workers` lanes of one worker each. The worker of
//! lane *k* drains the dispatcher's ring *k*, does all of a micro-flow's
//! per-packet work and offers the finished run to the merge; *k* is also
//! its heartbeat and supervision slot. FALCON, which pipelines the
//! stages of one packet across cores, is a system of the simulator only
//! ([`mflow_steering::Falcon`]).

use std::sync::atomic::AtomicUsize;
use std::thread;
use std::time::Duration;

use mflow::StatefulMode;

use crate::config::{BackpressurePolicy, RuntimeConfig};
use crate::crew;
use crate::dispatch::{depth_dec, MfDesc};
use crate::faults::{FaultEvent, RuntimeFaults};
use crate::merge::{MergedRun, MergerShared};
use crate::packet::Frame;
use crate::ring::RingConsumer;
use crate::supervise::HeartbeatBoard;
use crate::work::{process_frames, stateful_stage, PacketResult};

/// Every decision of a run that follows from what was *asked for* — the
/// configuration and the injected fault mix — and not from anything that
/// happens while the stream is in flight. Resolved once per run and read
/// everywhere else: nothing outside [`RunPlan::new`] asks
/// [`RuntimeConfig::supervised`], [`RuntimeFaults::is_active`] or
/// [`RuntimeFaults::merger_faults_active`] in order to decide something.
/// (Per-micro-flow injection hooks such as [`RuntimeFaults::delays_mf`]
/// stay where they fire.)
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct RunPlan {
    /// The supervision layer is engaged: the stall watchdog, the respawn
    /// machinery, or both. Micro-flows with no reachable worker then go
    /// to the dispatcher for inline processing instead of being dropped
    /// ([`crate::dispatch`], "Degradation under faults").
    pub(crate) supervised: bool,
    /// The merger's mid-stream flush deadline
    /// ([`RuntimeFaults::flush_timeout_ms`]), for the runs that can lose
    /// or re-route a micro-flow; `None` waits for every micro-flow.
    pub(crate) flush_timeout: Option<Duration>,
    /// The merger failure domain is armed — whenever the merger can
    /// actually die or wedge: supervision on, or merger faults injected.
    /// Offers are journaled and checkpointed and the watchdog passes of
    /// [`crate::merge::MergerShared`] act. Off — a benign unsupervised run
    /// — every one of them is a no-op and incarnation 0 merges the whole
    /// stream.
    pub(crate) wal_on: bool,
    /// Stateful-stage placement, at most one nonzero: under SCR the lanes
    /// (and the dispatcher's inline path, which stands in for one) apply
    /// `lane_rounds`; under
    /// merge-before-tcp the merger applies `merger_rounds` to results as
    /// it emits them in order ([`crate::merge::MergerState`]).
    pub(crate) lane_rounds: u32,
    pub(crate) merger_rounds: u32,
    /// Descriptors each lane keeps in its retained window
    /// ([`crate::dispatch::Lane::recent`]): `queue_depth + 2` on faulty
    /// and on supervised runs — a stall-respawn needs the window to
    /// redispatch even when no fault injector is wired — else none.
    pub(crate) retain: usize,
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

impl MfDesc {
    /// Takes the micro-flow's surviving frames through every stage, plus
    /// the replicated stateful stage when SCR is on: what a lane's worker
    /// does with what it dequeues, and what the dispatcher does with a
    /// micro-flow it keeps inline. The frames are read in place in the
    /// caller's slice and in order; this thread is the first to touch
    /// their bytes, so [`process_frames`], which prefetches ahead of
    /// itself, is given the whole range at once. The results go into
    /// `results`, an emptied `Vec` the merge handed back, or a fresh one.
    ///
    /// Planned drops are replayed here, where the frames are read, from
    /// the pure [`RuntimeFaults::drops_packet`]: by construction of the
    /// range only its final frame can close the micro-flow, so every
    /// reader of one descriptor — the lane's worker, a redispatch target,
    /// the dispatcher's inline path — skips exactly the frames the
    /// dispatcher counted and logged, once, when it planned the range. A
    /// range with drops is walked one surviving frame at a time.
    pub(crate) fn complete(
        self,
        ctx: &WorkerCtx<'_, '_>,
        mut results: Vec<PacketResult>,
    ) -> MergedRun {
        let stateful = |r| stateful_stage(r, ctx.lane_rounds);
        let span = &ctx.frames[self.start..self.end];
        results.reserve(self.live);
        // Whether the latest frame survived; after the walk, whether the
        // closing one did.
        let mut closed = true;
        if self.live == span.len() {
            process_frames(span, stateful, &mut results);
        } else {
            for (k, frame) in span.iter().enumerate() {
                closed = !ctx
                    .faults
                    .drops_packet(self.id, frame.seq, k + 1 == span.len());
                if closed {
                    process_frames(std::slice::from_ref(frame), stateful, &mut results);
                }
            }
        }
        MergedRun {
            id: self.id,
            tag: self.tag,
            closed,
            items: results,
        }
    }
}

/// Everything a worker reads, bundled so initial spawn and every respawn
/// are one call. `Copy`, so call sites borrow nothing.
#[derive(Clone, Copy)]
pub(crate) struct WorkerCtx<'scope, 'env> {
    pub(crate) s: &'scope crew::Scope<'scope, 'env>,
    /// The caller's frames, which every [`MfDesc`] indexes.
    pub(crate) frames: &'env [Frame],
    /// Per-lane dispatcher queue depths (a lane's backlog).
    pub(crate) depths: &'env [AtomicUsize],
    /// Where a worker hands its finished runs.
    pub(crate) merger: &'env MergerShared<'env>,
    pub(crate) faults: &'env RuntimeFaults,
    pub(crate) beats: &'env HeartbeatBoard,
    pub(crate) lane_rounds: u32,
}

impl<'scope> WorkerCtx<'scope, '_> {
    /// Starts incarnation `incarnation` of lane `lane`'s worker as a job
    /// of its own, draining `rx`. The handle comes back tagged with its
    /// lane, so join-time panics can be attributed per lane even after
    /// respawns reorder the list.
    pub(crate) fn spawn_worker(
        self,
        lane: usize,
        incarnation: u64,
        rx: RingConsumer<MfDesc>,
    ) -> (usize, crew::JoinHandle<'scope>) {
        let s = self.s;
        let h = s.spawn(move || worker_loop(self, lane, incarnation, rx));
        (lane, h)
    }
}

/// One worker incarnation: dequeue, heartbeat, injected faults, all of
/// the micro-flow's per-packet work, then the hand-off to the merge.
fn worker_loop(
    ctx: WorkerCtx<'_, '_>,
    lane: usize,
    incarnation: u64,
    mut rx: RingConsumer<MfDesc>,
) {
    let backlog = &ctx.depths[lane];
    let mut processed = 0u64;
    let mut results = Vec::new();
    while let Some(desc) = rx.pop() {
        depth_dec(backlog);
        ctx.beats.bump(lane);
        apply_worker_faults(ctx.faults, lane, incarnation, processed, desc.id);
        processed += 1;
        let run = desc.complete(&ctx, std::mem::take(&mut results));
        // One hand-off per micro-flow, which never waits: merged here
        // when the merge lock is free, else by its holder.
        results = ctx.merger.offer(run, Some(lane)).unwrap_or_default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{MergerKill, WorkerKill};
    use mflow_steering::PolicyKind;

    #[test]
    fn topology_of_every_policy_and_worker_count() {
        // One shape for every policy: `workers` lanes of one worker each,
        // every one of which does all of a micro-flow's work.
        let frames = crate::generate_frames(300, 64);
        let serial = crate::process_serial(&frames);
        for policy in PolicyKind::ALL {
            for workers in 1..=4 {
                let cfg = RuntimeConfig {
                    workers,
                    batch_size: 16,
                    policy,
                    ..RuntimeConfig::default()
                };
                let out = crate::process_parallel(&frames, &cfg).unwrap();
                assert_eq!(
                    out.telemetry.lane_depths.len(),
                    workers,
                    "{policy} w={workers}"
                );
                assert_eq!(out.digests, serial.digests, "{policy} w={workers}");
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
                        let want = RunPlan {
                            supervised,
                            flush_timeout: perturbed.then_some(Duration::from_millis(100)),
                            wal_on,
                            lane_rounds: if scr { WORK } else { 0 },
                            merger_rounds: if scr { 0 } else { WORK },
                            retain: if retains { QUEUE_DEPTH + 2 } else { 0 },
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
        assert_eq!(cells, 2 * 2 * 3 * 2 * 3, "every cell exactly once");

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
        assert!(plan.supervised && plan.wal_on);
        assert_eq!(plan.flush_timeout, None);
        let plan = RunPlan::new(&RuntimeConfig::default(), &patient);
        assert!(!plan.supervised && plan.flush_timeout.is_none());
    }
}
