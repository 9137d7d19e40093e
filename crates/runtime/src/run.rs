//! The threaded split/merge pipeline, steered by a pluggable policy:
//! one call from frames in to ordered results out.
//!
//! Topology (Figure 6 of the paper on real cores): `workers` lanes of one
//! worker each, whose finished runs merge into one merging counter.
//!
//! ```text
//!             +-> worker 0 ---\
//! dispatcher -+-> worker 1 ----+-> merge -> ordered output
//!             +-> worker W-1 -/
//! ```
//!
//! Everything that follows from the request is one [`RunPlan`], computed
//! once per run ([`crate::worker`]); one `worker_loop` runs on every lane.
//! The calling thread is the dispatcher: it groups micro-flows of
//! `batch_size` consecutive frames and asks the configured steering
//! policy for a lane per micro-flow ([`crate::dispatch`]); the lane's
//! worker performs all of the per-packet work. The merge is not a stage
//! of its own: the paper's reassembly is a global merging counter
//! advanced by whichever core finishes a micro-flow, and here every
//! worker (and the dispatcher, for what it processes inline) merges its
//! own finished run under the merge lock, or leaves it to whoever holds
//! it ([`crate::merge`]). Workers run genuinely concurrently, so the
//! merge sees every interleaving a real kernel would.
//!
//! This module is the assembly: [`process_parallel_faulty`] builds the
//! rings, runs the dispatch loop with its two watchdog passes between
//! micro-flows, joins every worker, and assembles the output from the
//! merge block. It is guaranteed not to panic and not to wedge for any
//! [`RuntimeFaults`] mix; the output is always an ordered, duplicate-free
//! subsequence of the serial output, and what is missing is exactly
//! accounted for by the dispatcher's planned drops plus the flushed
//! micro-flows (each module's "Degradation under faults").
//!
//! # The transport
//!
//! Every dispatcher→lane ring is an in-tree lock-free SPSC ring of
//! [`crate::ring`], the userspace analogue of the paper's per-core
//! packet-request ring buffers: atomic head/tail, yield-then-park
//! waiting. The micro-flow is the unit of each (what it carries is
//! described with its sending side, [`crate::dispatch`]), and of the
//! hand-off into the merge; nothing outside
//! [`crate::work::process_frame`] is paid per packet. The pipeline uses
//! the ring types directly: close-on-drop in both directions is what the
//! fault-recovery machinery relies on. Order does not depend on them:
//! the merge orders runs by micro-flow id alone, so neither which worker
//! merges a run nor when can misorder the output.
//!
//! Of the persistent runtime (ROADMAP item 7) the *thread* half exists:
//! workers are jobs of one [`crew::scope`] per call — exactly `workers`
//! of them — run on parked threads that outlive the
//! call, so a call creates and destroys no OS thread. An unsupervised
//! teardown's join runs a worker job that no crew thread has started
//! yet on the calling thread itself, so a short call pays no context
//! switch for a kick that could not pay off; supervised joins wait for
//! the job's own thread, tending the merge meanwhile. Rings, merge block
//! and supervisor are still built per call. The *handle* half (`start` /
//! `submit` / `recv_ordered` / `shutdown`) is not built. It keeps this
//! shape: its workers are crew jobs that do not return between
//! submissions and cannot borrow a caller's slice, so a submission
//! becomes one `Arc<[Frame]>` and a descriptor carries one
//! reference-count bump per micro-flow — still nothing per packet.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use mflow::StatefulMode;
use mflow_error::MflowError;
use mflow_metrics::Telemetry;
use mflow_steering::SteeringPolicy;

use crate::config::{RunOutput, RuntimeConfig};
use crate::crew;
use crate::dispatch::{build_policy, plan_microflow, Dispatcher, Lane, MfDesc};
use crate::faults::{FaultEvent, RuntimeFaults};
use crate::merge::{Assembled, MergerShared};
use crate::packet::Frame;
use crate::pool::{BufPool, PoolStats};
use crate::ring;
use crate::supervise::{HeartbeatBoard, Supervisor};
use crate::worker::{RunPlan, WorkerCtx};

/// MFLOW pipeline: split into micro-flows, process on `workers` threads,
/// merge back in order. Equivalent to [`process_parallel_faulty`] with
/// [`RuntimeFaults::none`].
///
/// Returns [`MflowError::InvalidConfig`] for a malformed configuration,
/// [`MflowError::MergerPoisoned`] if the merge panics, and
/// [`MflowError::NoLiveWorkers`] when every worker of an unsupervised
/// run died with input still pending (a supervised run instead falls
/// back to inline processing on the dispatcher).
pub fn process_parallel(frames: &[Frame], cfg: &RuntimeConfig) -> Result<RunOutput, MflowError> {
    process_parallel_faulty(frames, cfg, &RuntimeFaults::none())
}

/// The pipeline under an injected fault mix. Guaranteed not to panic and
/// not to wedge for any fault combination; the degradation contract is
/// DESIGN.md §7 and, in the source, the "Degradation under faults" docs
/// of the `dispatch` and `merge` modules.
pub fn process_parallel_faulty(
    frames: &[Frame],
    cfg: &RuntimeConfig,
    faults: &RuntimeFaults,
) -> Result<RunOutput, MflowError> {
    cfg.validate()?;
    let mut policy = build_policy(cfg.policy)?;
    let start = Instant::now();
    let plan = &RunPlan::new(cfg, faults);
    // One dispatcher -> worker ring per lane (SPSC: one producer, one
    // consumer each): the sender side as the dispatcher's lanes, the
    // receiver side for the workers.
    let (lanes, lane_rx): (Vec<Lane>, Vec<_>) = (0..cfg.workers)
        .map(|_| {
            let (tx, rx) = ring::spsc::<MfDesc>(cfg.queue_depth);
            let lane = Lane {
                tx: Some(tx),
                recent: VecDeque::new(),
            };
            (lane, rx)
        })
        .unzip();
    // Per-lane queue depths, the watermark signal for backpressure.
    let depths: Vec<AtomicUsize> = (0..cfg.workers).map(|_| AtomicUsize::new(0)).collect();
    // Per-lane heartbeat epochs, the watchdog's liveness signal. The
    // extra slot past the workers is the merger's, which every holder of
    // the merge lock bumps.
    let merger_slot = cfg.workers;
    let beats = &HeartbeatBoard::new(cfg.workers + 1);
    let merger = &MergerShared::new(frames.len(), cfg, plan, faults, beats, merger_slot, start);
    // Buffer-pool telemetry: snapshot the frames' pool so the run can
    // report the recycle and heap-fallback deltas it caused.
    let frame_pool = frames.iter().find_map(|f| f.buf().pool());
    let pool_before = frame_pool.as_ref().map(|p| p.stats());

    let mut d = Dispatcher::new(lanes, cfg, &depths, plan, merger);
    // One supervision slot per worker plus the merger's; the respawn
    // budget is one shared pool across both failure domains, but the
    // restart and recovery-time counters split per domain.
    let mut sup = Supervisor::new(
        cfg.workers + 1,
        cfg.heartbeat_interval_ms.map(Duration::from_millis),
        cfg.restart_budget,
        Duration::from_millis(cfg.restart_backoff_ms),
        start,
    );
    sup.watch_merger(merger_slot);
    let mut dispatch_done = start;

    let deaths_by_lane = crew::scope(|s| {
        let workers = WorkerCtx {
            s,
            frames,
            depths: &depths,
            merger,
            faults,
            beats,
            lane_rounds: plan.lane_rounds,
        };
        let mut driver = Driver {
            cfg,
            workers,
            plan,
            d: &mut d,
            sup: &mut sup,
            handles: (lane_rx.into_iter().enumerate())
                .map(|(lane, rx)| workers.spawn_worker(lane, 0, rx))
                .collect(),
        };
        driver.dispatch(&mut *policy);
        dispatch_done = Instant::now();
        driver.teardown()
    });
    let merger_deaths = merger.deaths();
    if merger_deaths > 0 && !plan.wal_on {
        // An unarmed merge has no injected faults and no respawn path: a
        // panic there is a real bug, surfaced as an error instead of a
        // propagated abort.
        return Err(MflowError::MergerPoisoned);
    }
    let workers_died: usize = deaths_by_lane.iter().map(|&d| d as usize).sum();
    if !plan.supervised && workers_died == cfg.workers && !frames.is_empty() {
        // Nobody was left to deliver the remainder.
        return Err(MflowError::NoLiveWorkers);
    }
    let (workers_respawned, workers_abandoned) = sup.classify_deaths(&deaths_by_lane);
    // A death the dispatcher never observed (no send to that lane
    // afterwards) still leaves queued batches undequeued, so zero the
    // lane's depth too — a clean final incarnation drained its queue to
    // zero anyway, so this never masks a leak.
    for (depth, &deaths) in depths.iter().zip(&deaths_by_lane) {
        if deaths > 0 {
            depth.store(0, Ordering::Relaxed);
        }
    }

    let merged = merger.assemble();
    let pool = pool_delta(frame_pool, pool_before);
    let telemetry = telemetry(cfg, &*policy, pool, &merged, &d, &sup);
    Ok(RunOutput {
        digests: merged.digests,
        elapsed: start.elapsed(),
        stateful_serial_ns: merged.state.serial_ns,
        flushed_mfs: merged.state.engine.flushed_ids().to_vec(),
        workers_died,
        merger_deaths,
        checkpoints: merged.dur.checkpoints,
        workers_respawned,
        workers_abandoned,
        recovery: sup.rates(start, dispatch_done, frames.len() as u64),
        sheds: d.sheds,
        inline_batches: d.inline_batches,
        block_fallbacks: d.block_fallbacks,
        backpressure_events: d.backpressure_events,
        telemetry,
    })
}

/// Processes a micro-flow the policy handed back (or nobody else can
/// take) right here on the dispatcher thread, as a new copy, and merges
/// it: a worker may still deliver the one it was sent, and the merge
/// keeps whichever arrives first.
fn process_inline(workers: &WorkerCtx<'_, '_>, d: &mut Dispatcher<'_>, desc: MfDesc) {
    let run = d.retag(desc).complete(workers, Vec::new());
    d.inline_batches += 1;
    d.inline_packets += run.items.len() as u64;
    workers.merger.offer(run, None);
}

/// The calling thread's side of the open scope: the dispatcher, the
/// supervisor, and a handle on every job it started. This thread plays
/// the IRQ core's first half.
struct Driver<'a, 'd, 'scope, 'env> {
    cfg: &'env RuntimeConfig,
    workers: WorkerCtx<'scope, 'env>,
    plan: &'env RunPlan,
    d: &'a mut Dispatcher<'d>,
    sup: &'a mut Supervisor,
    /// Every worker incarnation started, tagged with its lane, in spawn
    /// order.
    handles: Vec<(usize, crew::JoinHandle<'scope>)>,
}

impl Driver<'_, '_, '_, '_> {
    /// The dispatch loop: plan a micro-flow, steer it, offer it to its
    /// lane under the backpressure policy, then run both watchdog passes.
    fn dispatch(&mut self, policy: &mut dyn SteeringPolicy) {
        let w = self.workers;
        let (frames, faults, lanes) = (w.frames, w.faults, self.cfg.workers);
        // The watchdog passes read the clock once per micro-flow, and only
        // on runs that can need them: the merger failure domain is armed
        // even unsupervised when merger faults are injected (`wal_on`
        // covers supervision), and a run that can lose a micro-flow
        // flushes past it on a deadline.
        let tended = self.plan.wal_on || self.plan.flush_timeout.is_some();
        let mut mf_id = 0u64;
        let mut next = 0usize;
        let mut depth_snap = vec![0usize; lanes];
        let mut delayed: Vec<(u64, MfDesc)> = Vec::new();
        while next < frames.len() {
            let (start, end, live) = plan_microflow(
                frames,
                next,
                mf_id,
                self.cfg.batch_size,
                faults,
                &mut self.d.fault_drops,
            );
            next = end;
            if live > 0 {
                // Ask the policy for the micro-flow's lane, with a fresh
                // view of per-lane occupancy. This one outer-header read
                // per micro-flow is all the dispatcher touches of the
                // frames' bytes; a frame it cannot hash steers as flow 0
                // and fails on the worker that parses it, the thread
                // whose death the run already accounts for.
                let hash = frames[start].try_flow_hash().unwrap_or(0);
                for (snap, depth) in depth_snap.iter_mut().zip(w.depths) {
                    *snap = depth.load(Ordering::Relaxed);
                }
                let lane = policy.steer(mf_id, hash, &depth_snap).min(lanes - 1);
                let desc = MfDesc {
                    id: mf_id,
                    tag: 0,
                    start,
                    end,
                    live,
                };
                if faults.delays_mf(mf_id) {
                    // Held back: will be redispatched as a new copy
                    // `late_by` micro-flows from now.
                    faults.note(FaultEvent::LateMf { mf_id });
                    delayed.push((mf_id + faults.late_by.max(1), desc));
                } else if faults.duplicates_mf(mf_id) {
                    faults.note(FaultEvent::DupMf { mf_id });
                    self.d.send_retained(lane, desc);
                    self.d.send_recovery(desc);
                } else if let Some(kept) = self.d.offer(lane, desc) {
                    process_inline(&w, self.d, kept);
                }
                // Completion feedback: the policy hears what it
                // placed (rate accounting for elephant detection).
                policy.observe(mf_id, hash, lane, live);
            }
            delayed.retain(|&(due, desc)| {
                if due <= mf_id {
                    self.d.send_recovery(desc);
                }
                due > mf_id
            });
            if tended {
                let (done, now) = ((end - 1) as u64, Instant::now());
                self.tend_workers(done, now);
                w.merger.tend(self.sup, done, now);
            }
            self.run_orphans();
            mf_id += 1;
        }
        // Anything still held back goes out now, late but present.
        for (_, desc) in delayed {
            self.d.send_recovery(desc);
        }
        self.run_orphans();
    }

    /// Micro-flows that lost their only reachable worker come back for
    /// inline processing instead of being dropped (supervised runs only,
    /// [`RunPlan::supervised`]).
    fn run_orphans(&mut self) {
        for desc in self.d.take_orphans() {
            process_inline(&self.workers, self.d, desc);
        }
    }

    /// One non-blocking pass over the lanes, the twin of
    /// [`MergerShared::tend`]: declare stalled workers dead, and respawn
    /// dead ones (budget and backoff permitting) onto fresh rings.
    fn tend_workers(&mut self, frames_done: u64, now: Instant) {
        if !self.plan.supervised {
            return;
        }
        let w = self.workers;
        let (d, sup) = (&mut *self.d, &mut *self.sup);
        for lane in 0..self.cfg.workers {
            // Stall detection: a stale heartbeat only counts while work
            // is queued — an idle worker's epoch is legitimately still —
            // and while the worker is not inside the merge, whose domain
            // watches it there.
            if !d.lane_dead(lane)
                && sup.stale(lane, w.beats.read(lane), now)
                && w.depths[lane].load(Ordering::Relaxed) > 0
                && !w.merger.holds(lane)
            {
                sup.heartbeat_misses += 1;
                d.fail_lane(lane);
            }
            if d.lane_dead(lane) {
                sup.note_death(lane, now, frames_done);
                if sup.allow_respawn(lane, now) {
                    let (tx, rx) = ring::spsc::<MfDesc>(self.cfg.queue_depth);
                    let inc = sup.on_respawn(lane, now, frames_done);
                    d.revive(lane, tx);
                    self.handles.push(w.spawn_worker(lane, inc, rx));
                }
            }
        }
    }

    /// Ends the stream and joins everything: every worker incarnation,
    /// then the orphan pass for deaths nobody observed, then the merge is
    /// supervised until every run is in. Returns the worker panics per
    /// lane, every incarnation: injected deaths surface at join and are
    /// counted, not propagated.
    fn teardown(self) -> Vec<u32> {
        let Driver {
            cfg,
            workers,
            plan,
            d,
            sup,
            handles,
        } = self;
        let (merger, n) = (workers.merger, workers.frames.len() as u64);
        // Dropping the lane senders lets the workers drain and exit; the
        // retained windows stay for the orphan pass below.
        for lane in &mut d.lanes {
            lane.tx = None;
        }
        // Lanes whose worker died holding micro-flows nobody
        // redispatched: a lane counts when its *last* incarnation died
        // (handles are joined in spawn order). An earlier death was
        // observed by the dispatcher, which is what respawned the lane,
        // and its window redispatched then.
        let mut deaths_by_lane = vec![0u32; cfg.workers];
        let mut orphaned = vec![false; cfg.workers];
        for (lane, h) in handles {
            let died = merger.join_tended(h, sup, n).is_err();
            deaths_by_lane[lane] += u32::from(died);
            orphaned[lane] = died;
        }
        // A death nobody observed: once dispatch has ended — always, for
        // a stream shorter than the lanes' queues — no send bounces off
        // the dead incarnation's ring, so what it still had queued was
        // never redispatched. The lane's retained window covers the end
        // of the stream; it is run here, and the merge engine rejects the
        // copies of whatever the lane did deliver. (A window the
        // dispatcher took when it did observe the death is empty.)
        for lane in (0..cfg.workers).filter(|&l| plan.supervised && orphaned[l]) {
            for desc in std::mem::take(&mut d.lanes[lane].recent) {
                process_inline(&workers, d, desc);
            }
        }
        // Every producer is gone; keep supervising until every run is
        // merged (a merger kill near the end of the stream is respawned
        // here) or left for final assembly.
        merger.drain(sup, n);
        deaths_by_lane
    }
}

/// `(recycled, misses)` of the frames' pool attributable to this run:
/// counters only grow, but saturate anyway so a shared pool raced by
/// another run cannot underflow the report.
fn pool_delta(pool: Option<BufPool>, before: Option<PoolStats>) -> (u64, u64) {
    match (pool, before) {
        (Some(pool), Some(before)) => {
            let now = pool.stats();
            (
                now.recycled.saturating_sub(before.recycled),
                now.misses.saturating_sub(before.misses),
            )
        }
        _ => (0, 0),
    }
}

/// The shared counter block of a finished run.
fn telemetry(
    cfg: &RuntimeConfig,
    policy: &dyn SteeringPolicy,
    (pool_recycled, pool_misses): (u64, u64),
    merged: &Assembled,
    d: &Dispatcher<'_>,
    sup: &Supervisor,
) -> Telemetry {
    let mstats = merged.state.engine.stats();
    // Under SCR every arrival at the merger is a transition a lane
    // computed, and every one the counter rejected a reconciled copy.
    let scr = cfg.stateful_mode == StatefulMode::StateComputeReplication;
    let (desplits, resplits) = policy.desplit_stats();
    Telemetry {
        policy: policy.name().to_string(),
        stateful_mode: cfg.stateful_mode.name().to_string(),
        pool_recycled,
        pool_misses,
        delivered: merged.digests.len() as u64,
        ooo: merged.state.ooo,
        flushed: mstats.flushed,
        late: mstats.late_drops,
        dup: mstats.dup_drops,
        shed: d.shed_packets,
        inline: d.inline_packets,
        desplits,
        resplits,
        redispatched: d.redispatched,
        fault_drops: d.fault_drops,
        residue: mstats.residue,
        restarts: sup.restarts,
        heartbeat_misses: sup.heartbeat_misses + merged.heartbeat_misses,
        recovery_ns: sup.recovery_ns,
        merger_restarts: sup.merger_restarts,
        merger_recovery_ns: sup.merger_recovery_ns,
        snapshot_bytes: merged.dur.snapshot_bytes,
        restore_replayed_offers: merged.dur.replayed,
        replicated_transitions: if scr { merged.state.offers } else { 0 },
        reconciled_dups: if scr {
            mstats.late_drops + mstats.dup_drops
        } else {
            0
        },
        lane_depths: d
            .depths
            .iter()
            .map(|d| d.load(Ordering::Relaxed) as u64)
            .collect(),
    }
}
