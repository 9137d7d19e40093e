//! The threaded split/merge pipeline, steered by a pluggable policy.
//!
//! Topology (Figure 6 of the paper on real cores, and FALCON's softirq
//! pipelining, its baseline, as the same machine with different wiring):
//! `lanes` dispatcher entry lanes, each a chain of `depth` stage workers,
//! all feeding one merger.
//!
//! ```text
//!             +-> stage 0 -> .. -> stage D-1 --\    lane 0
//! dispatcher -+-> stage 0 -> .. -> stage D-1 ---+-> merger -> ordered output
//!             +-> stage 0 -> .. -> stage D-1 --/     lane L-1
//! ```
//!
//! Fan-out policies (mflow, rps, rss, rfs) are `workers` x 1: every
//! worker is both head and tail of its lane and does all the per-packet
//! work. FALCON is 1 x min(stage groups, workers): the worker at stage
//! *k* applies stage group *k* of [`crate::work::STAGES`] and forwards.
//! The shape is one [`Topology`] value computed per run; one
//! [`worker_loop`] runs at every position of it.
//!
//! The dispatcher groups micro-flows of `batch_size` consecutive frames
//! and asks the configured [`SteeringPolicy`]
//! ([`RuntimeConfig::policy`]) for a lane per batch; the lane's workers
//! perform the per-packet work; the merger restores the original order
//! with the merging-counter algorithm. Workers run genuinely
//! concurrently, so the merger sees every interleaving a real kernel
//! would.
//!
//! # Steering policies
//!
//! * **mflow** (default) — micro-flows of an elephant flow round-robin
//!   across every lane, the paper's packet-level parallelism. The only
//!   policy that interleaves one flow, so the only one that *needs* the
//!   merge counter on a fault-free run.
//! * **rps / rss / rfs** — whole-flow steering: every batch of a flow
//!   lands on one pinned lane, so per-lane FIFO alone preserves order
//!   and the merger degenerates to passthrough (zero `ooo`, zero
//!   `flushed`).
//! * **falcon-dev / falcon-func** — one lane of depth 2 or 3 (fewer
//!   when `workers` is smaller). Order is FIFO along the lane.
//!
//! A stage whose next hop has died finishes its batches itself. A batch
//! with no reachable lane head is lost — unless the run hands orphans to
//! the dispatcher for inline processing ([`Topology::inline_orphans`]):
//! chain policies do (one entry lane, so a dead head is routine) and so
//! does every supervised run; an unsupervised run of any other policy
//! that loses every worker returns [`MflowError::NoLiveWorkers`]. The
//! rule follows the policy, not the shape — `falcon-func` and `mflow` at
//! one worker are both 1 x 1.
//!
//! The merge counter is engaged for reordering policies and whenever
//! faults, shedding or recovery lanes are possible; otherwise results
//! stream through unbuffered.
//!
//! # The transport
//!
//! Every ring — dispatcher→lane head, stage→next stage inside a lane,
//! and worker→merger — is an in-tree lock-free SPSC ring of
//! [`crate::ring`], the userspace analogue of the paper's per-core
//! packet-request ring buffers: atomic head/tail, spin-then-park
//! waiting. The micro-flow is the unit of all three; nothing outside
//! [`crate::work::process_frame`] is paid per packet:
//!
//! * **dispatcher→lane head** carries a 40-byte descriptor `{id, lane,
//!   range, live}` over the caller's frame slice. Workers are scoped
//!   *jobs* on crew threads ([`crate::crew`]) and read `frames[range]` in
//!   place, so the dispatcher clones no frame handle and allocates
//!   nothing, and the retained window, a duplicate or a retag is a copy
//!   of the descriptor.
//! * **stage→next stage** (chains only) carries one run of
//!   [`StagedWork`] per micro-flow; the chain head is the one place that
//!   still clones frame handles, because staged work outlives the stage.
//! * **worker→merger** carries one run per micro-flow `{id, lane,
//!   closed, results}`. The merge engines take it whole
//!   ([`MergeCounter::offer_run`], [`ScrReconciler::offer_run`]:
//!   observably the per-item loop, paid once), and so does the WAL. The
//!   results `Vec` is the run's one allocation.
//!
//! The merge path is one ring per producer (each worker plus the
//! dispatcher's inline lane) fanned into a round-robin [`RingMux`]; a
//! respawned worker gets a fresh ring through the
//! [`ring::MuxRegistrar`]. The pipeline uses the ring types directly:
//! per-lane FIFO and close-on-drop in both directions are the semantics
//! the fault-recovery machinery below relies on.
//!
//! Of the persistent runtime (ROADMAP item 2) the *thread* half exists:
//! workers and merger incarnations are jobs of one [`crew::scope`] per
//! call, run on parked threads that outlive the call, so a call creates
//! and destroys no OS thread; rings, merger state and supervisor are
//! still built per call. The *handle* half (`start` / `submit` /
//! `recv_ordered` / `shutdown`) is not built. It keeps this shape: its
//! workers are crew jobs that do not return between submissions and
//! cannot borrow a caller's slice, so a submission becomes one
//! `Arc<[Frame]>` and a descriptor carries one reference-count bump per
//! micro-flow — still nothing per packet.
//!
//! # Stateful modes
//!
//! The per-packet *stateful* stage ([`crate::work::stateful_stage`],
//! [`RuntimeConfig::stateful_work`] rounds) can run in two places
//! ([`RuntimeConfig::stateful_mode`]):
//!
//! * **merge-before-tcp** (default, the paper's design) — applied
//!   serially after reassembly, so it stays a single-core bottleneck
//!   exactly like the kernel's in-order TCP receive. Final assembly does
//!   it, on the calling thread, in one pass over the ordered output after
//!   every worker and merger has been joined — not the merger thread as
//!   it goes — so it overlaps no other stage however many cores there
//!   are.
//! * **scr** (state-compute replication) — every lane applies it to the
//!   packets it processes, and the merger becomes a *reconciler*
//!   ([`mflow::ScrReconciler`]): a per-stream seq watermark that emits
//!   each position exactly once, in order, discarding replicated or
//!   redispatched duplicates. Because the stage is a pure function of
//!   the packet, both modes deliver byte-identical streams — the
//!   differential suite in `tests/` proves it across every policy and
//!   fault mix.
//!
//! # Degradation under faults
//!
//! [`process_parallel_faulty`] runs the same pipeline with an injected
//! [`RuntimeFaults`] mix and never panics or wedges:
//!
//! * **Worker death** — each send failure marks the lane dead; the
//!   descriptor that bounced plus a retained window of recently-sent
//!   ones are redispatched to surviving workers. Redispatched copies ride
//!   fresh *recovery lanes* (`n_workers + k`) so the merger's per-lane
//!   FIFO assumption is never violated; copies of already-merged
//!   micro-flows are rejected as duplicates. A dead lane's queue-depth
//!   counter is zeroed the moment the death is discovered (and again at
//!   join for deaths the dispatcher never observed), so occupancy signals
//!   never count micro-flows nobody will dequeue. A death nobody observed
//!   — dispatch had already ended, as it always has on a stream shorter
//!   than the lanes' queues — bounces no send; when orphans go inline
//!   ([`Topology::inline_orphans`]) teardown runs such a lane's retained
//!   window on the dispatcher before the merger may see end of stream.
//! * **Planned drops** — decided, counted and logged once, by the
//!   dispatcher as it plans a micro-flow's range ([`plan_microflow`]);
//!   *replayed* wherever the range is read — lane head, redispatch
//!   target, the dispatcher's own inline path — from the pure
//!   [`RuntimeFaults::drops_packet`], so every reader skips the same
//!   frames and no replay is counted again.
//! * **Loss** — a micro-flow that never completes stalls the merging
//!   counter; the merger flushes past it after
//!   [`RuntimeFaults::flush_timeout_ms`] without arrivals, and again at
//!   end of stream, releasing every parked successor. Skipped IDs are
//!   reported in [`RunOutput::flushed_mfs`].
//! * **Duplication / late arrival** — rejected by the merge counter and
//!   reported in the [`Telemetry`] `dup` / `late` counters.
//!
//! The output is always an ordered, duplicate-free subsequence of the
//! serial output; what is missing is exactly accounted for by the
//! dispatcher's planned drops plus the flushed micro-flows.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use mflow::{ElephantConfig, MergeCounter, MergeStats, MflowLanes, ScrReconciler, StatefulMode};
use mflow_error::MflowError;
use mflow_metrics::Telemetry;
use mflow_steering::{build_baseline, PolicyKind, SteeringPolicy};

use crate::crew;
use crate::faults::{FaultEvent, RuntimeFaults};
use crate::packet::Frame;
use crate::ring::{self, MuxRecvError, RingConsumer, RingMux, RingProducer, RingSendError};
use crate::supervise::{HeartbeatBoard, Supervisor};
use crate::work::{
    complete_staged, process_batch, process_frames, stage_group_sizes, stateful_stage,
    PacketResult, StagedWork,
};

/// Inert name for the one transport, the lock-free SPSC request rings
/// of [`crate::ring`]. Nothing reads it: it survives only because the
/// frozen `benchmark/` crate spells `transport: Transport::Ring`, and
/// goes away together with [`RuntimeConfig::transport`] once that crate
/// stops naming it (see ROADMAP).
#[derive(Clone, Copy, Debug)]
pub enum Transport {
    /// The only transport.
    Ring,
}

/// What the dispatcher does when a lane is at its watermark (or its queue
/// is outright full).
///
/// `Block` reproduces the kernel's default: the dispatching core waits on
/// the splitting queue, which is safe but lets one slow lane stall the
/// whole stream. The other two bound dispatcher latency under overload:
/// `DropTail` sheds whole micro-flows (never a partial batch, so the
/// merge counter is only ever missing complete micro-flows it can flush
/// past), and `Inline` processes the batch on the dispatching core
/// itself, trading its cycles for zero loss and exact order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// Wait for the lane to drain (today's behavior).
    #[default]
    Block,
    /// Shed whole batches, up to `budget` packets for the run; once the
    /// budget is exhausted the dispatcher falls back to blocking (or to
    /// inline processing with [`RuntimeConfig::inline_fallback`]).
    DropTail {
        /// Maximum packets the run may shed.
        budget: u64,
    },
    /// Process the batch on the dispatcher thread. The batch rides a
    /// fresh recovery lane, so the merger's per-lane FIFO assumption
    /// holds and ordering is preserved via the merge counter.
    Inline,
}

/// Parallel-pipeline parameters.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker (splitting-core) count.
    pub workers: usize,
    /// Micro-flow batch size in packets.
    pub batch_size: usize,
    /// Bounded channel depth between dispatcher and each worker, in
    /// batches.
    pub queue_depth: usize,
    /// What to do when a lane is saturated.
    pub backpressure: BackpressurePolicy,
    /// Queue depth (in batches) at which the policy engages, before the
    /// channel is even full. `None` engages only when a `try_send`
    /// reports the queue full.
    pub high_watermark: Option<usize>,
    /// With `DropTail`: once the shed budget is exhausted, process
    /// overflow batches inline instead of blocking.
    pub inline_fallback: bool,
    /// Inert: every lane is a request ring (see [`Transport`]).
    pub transport: Transport,
    /// Worker→merger queue capacity in micro-flows: a ring slot holds one
    /// micro-flow's run of results, and each producer's merge ring has
    /// this many slots. The same unit as the merger watchdog's backlog
    /// (runs sent minus runs received), which starts pumping the transport
    /// into the WAL once a down merger's backlog exceeds half of this.
    /// Power of two (the ring masks indices with it).
    pub merger_depth: usize,
    /// Which steering policy drives dispatch (lane choice, chain
    /// topology, merger engagement).
    pub policy: PolicyKind,
    /// Missed-heartbeat deadline in milliseconds: a worker whose
    /// heartbeat epoch has not moved for this long *while it has work
    /// queued* is declared stalled and replaced. `None` disables the
    /// stall watchdog (deaths are then only observed through lane
    /// disconnects).
    pub heartbeat_interval_ms: Option<u64>,
    /// Total worker respawns the supervisor may perform across the run;
    /// 0 disables respawning (today's single-recovery behavior).
    pub restart_budget: u32,
    /// Base respawn backoff in milliseconds; doubles per respawn of the
    /// same slot.
    pub restart_backoff_ms: u64,
    /// Where the stateful stage runs: serially after reassembly
    /// (`MergeBeforeTcp`, the paper's design; one pass by final assembly
    /// on the calling thread once everything is joined) or replicated on
    /// every lane with the merger reduced to a seq-watermark reconciler
    /// (`StateComputeReplication`).
    pub stateful_mode: StatefulMode,
    /// Rounds of per-packet stateful work ([`crate::work::stateful_stage`]);
    /// 0 disables the stage (both modes then deliver the plain digests).
    pub stateful_work: u32,
    /// Merger checkpoint interval in accepted offers (packets): the
    /// micro-flow whose results take the offer count across a multiple of
    /// this folds the write-ahead delta log into a fresh [`MergerState`]
    /// snapshot, bounding crash-recovery replay to one inter-checkpoint
    /// window (rounded up to whole micro-flows). Only paid when the merger
    /// failure domain is armed (supervision on, or merger faults
    /// injected).
    pub checkpoint_every: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            batch_size: 256,
            queue_depth: 8,
            backpressure: BackpressurePolicy::Block,
            high_watermark: None,
            inline_fallback: false,
            transport: Transport::Ring,
            merger_depth: 4096,
            policy: PolicyKind::Mflow,
            heartbeat_interval_ms: None,
            restart_budget: 0,
            restart_backoff_ms: 8,
            stateful_mode: StatefulMode::MergeBeforeTcp,
            stateful_work: 0,
            checkpoint_every: 1024,
        }
    }
}

impl RuntimeConfig {
    /// Checks the structural invariants; every fallible pipeline entry
    /// point calls this instead of asserting.
    pub fn validate(&self) -> Result<(), MflowError> {
        if self.workers < 1 {
            return Err(MflowError::invalid("workers", "must be at least 1"));
        }
        if self.batch_size < 1 {
            return Err(MflowError::invalid("batch_size", "must be at least 1"));
        }
        if self.queue_depth < 1 {
            return Err(MflowError::invalid("queue_depth", "must be at least 1"));
        }
        if let Some(w) = self.high_watermark {
            if w < 1 || w > self.queue_depth {
                return Err(MflowError::invalid(
                    "high_watermark",
                    "must be between 1 and queue_depth",
                ));
            }
        }
        if self.merger_depth < 1 || !self.merger_depth.is_power_of_two() {
            return Err(MflowError::invalid(
                "merger_depth",
                "must be a nonzero power of two",
            ));
        }
        if self.heartbeat_interval_ms == Some(0) {
            return Err(MflowError::invalid(
                "heartbeat_interval_ms",
                "must be at least 1 (or None to disable)",
            ));
        }
        if self.checkpoint_every < 1 {
            return Err(MflowError::invalid(
                "checkpoint_every",
                "must be at least 1",
            ));
        }
        Ok(())
    }

    /// Whether the supervision layer is engaged: either the stall
    /// watchdog or the respawn machinery (or both) is on.
    pub fn supervised(&self) -> bool {
        self.restart_budget > 0 || self.heartbeat_interval_ms.is_some()
    }
}

/// Dispatch-side throughput windows around the fault interval, for
/// time-to-recovery assertions: how fast frames moved before the first
/// observed worker death, and again after the last supervisor respawn.
/// Zeroes when the window does not exist (no deaths, or no respawn).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryRates {
    /// Frames dispatched before the first observed death.
    pub prefault_frames: u64,
    /// Wall-clock nanoseconds of the pre-fault window.
    pub prefault_ns: u64,
    /// Frames dispatched after the last respawn.
    pub recovered_frames: u64,
    /// Wall-clock nanoseconds of the post-recovery window.
    pub recovered_ns: u64,
}

impl RecoveryRates {
    /// Pre-fault dispatch rate in frames per second (0 when unmeasured).
    pub fn prefault_rate(&self) -> f64 {
        if self.prefault_ns == 0 {
            0.0
        } else {
            self.prefault_frames as f64 * 1e9 / self.prefault_ns as f64
        }
    }

    /// Post-recovery dispatch rate in frames per second (0 when
    /// unmeasured).
    pub fn recovered_rate(&self) -> f64 {
        if self.recovered_ns == 0 {
            0.0
        } else {
            self.recovered_frames as f64 * 1e9 / self.recovered_ns as f64
        }
    }
}

/// The outcome of a pipeline run: the shared [`Telemetry`] counter block
/// plus the runtime engine's extension fields. All the cross-engine
/// counters (delivered, ooo, flushed, late, dup, shed, inline, desplits,
/// redispatched, fault drops, residue, lane depths) live in
/// [`RunOutput::telemetry`]; only runtime-specific detail stays here.
#[derive(Clone, Debug)]
pub struct RunOutput {
    /// Results in emission order.
    pub digests: Vec<PacketResult>,
    /// Wall-clock processing time.
    pub elapsed: Duration,
    /// Busy time of the serial stage: the merger's merge or reconcile
    /// bookkeeping, timed exactly around every per-micro-flow engine call,
    /// plus, under merge-before-tcp, final assembly's serial stateful pass
    /// on the calling thread. This is the quantity state-compute replication
    /// exists to shrink, and unlike wall-clock it reads the same no
    /// matter how many host cores the worker threads actually share.
    /// (Zero for serial runs, which have no merge stage.)
    pub stateful_serial_ns: u64,
    /// What the merger flushed past instead of waiting forever (the
    /// `flushed` counter is this list's length): micro-flow IDs under
    /// merge-before-tcp, skipped packet seqs under SCR (the reconciler
    /// tracks stream positions, not batch structure).
    pub flushed_mfs: Vec<u64>,
    /// Worker threads that panicked during the run (every incarnation).
    pub workers_died: usize,
    /// Merger incarnations that panicked during the run. Unlike worker
    /// deaths these never shrink the pool: the supervisor respawns the
    /// merger from its last checkpoint, or the dispatcher degrades to
    /// serial merging when the budget is spent.
    pub merger_deaths: usize,
    /// Checkpoints the merger's write-ahead layer folded during the run
    /// (0 when the failure domain was not armed).
    pub checkpoints: u64,
    /// Panicked workers whose slot received a supervisor replacement.
    pub workers_respawned: usize,
    /// Panicked workers whose slot stayed empty (no budget, or backoff
    /// never cleared before end of stream) — the pool shrank for good.
    pub workers_abandoned: usize,
    /// Dispatch throughput before the first death and after the last
    /// respawn (zeroes when supervision is off or nothing died).
    pub recovery: RecoveryRates,
    /// Each shed batch as `(micro-flow id, lane)` — the lane whose
    /// saturation caused the shed.
    pub sheds: Vec<(u64, usize)>,
    /// Batches processed inline on the dispatcher thread (the packet
    /// count is the telemetry `inline` counter).
    pub inline_batches: u64,
    /// Times a `DropTail` dispatcher exhausted its budget and fell back
    /// to blocking.
    pub block_fallbacks: u64,
    /// Times the backpressure policy engaged (watermark hit or queue
    /// full), regardless of what it then did.
    pub backpressure_events: u64,
    /// The shared counter block. `lane_depths` are end-of-run per-lane
    /// queue depths — all zero for every completed parallel run: live
    /// lanes drain to empty, dead lanes are zeroed when the death is
    /// discovered. (Empty for serial runs, which have no lanes.)
    pub telemetry: Telemetry,
}

impl RunOutput {
    fn new(digests: Vec<PacketResult>, elapsed: Duration, policy: &str) -> Self {
        let telemetry = Telemetry {
            delivered: digests.len() as u64,
            ..Telemetry::new(policy)
        };
        Self {
            digests,
            elapsed,
            stateful_serial_ns: 0,
            flushed_mfs: Vec::new(),
            workers_died: 0,
            merger_deaths: 0,
            checkpoints: 0,
            workers_respawned: 0,
            workers_abandoned: 0,
            recovery: RecoveryRates::default(),
            sheds: Vec::new(),
            inline_batches: 0,
            block_fallbacks: 0,
            backpressure_events: 0,
            telemetry,
        }
    }
}

/// Baseline: one thread processes every frame in order.
pub fn process_serial(frames: &[Frame]) -> RunOutput {
    process_serial_stateful(frames, 0)
}

/// Baseline with the stateful stage applied in order after the
/// per-packet work — the reference stream both
/// [`RuntimeConfig::stateful_mode`]s must reproduce exactly.
pub fn process_serial_stateful(frames: &[Frame], stateful_work: u32) -> RunOutput {
    let start = Instant::now();
    let mut digests = Vec::new();
    process_frames(frames, |r| stateful_stage(r, stateful_work), &mut digests);
    RunOutput::new(digests, start.elapsed(), "serial")
}

/// Instantiates the [`SteeringPolicy`] for a [`PolicyKind`]: baselines
/// come from `mflow-steering`, MFLOW itself from the `mflow` crate
/// (always-split elephant detection, as in the paper's single-flow
/// experiments).
fn build_policy(kind: PolicyKind) -> Result<Box<dyn SteeringPolicy>, MflowError> {
    match build_baseline(kind) {
        Some(p) => Ok(p),
        None => Ok(Box::new(MflowLanes::try_new(ElephantConfig::always())?)),
    }
}

/// One micro-flow as the dispatcher hands it to a lane head: a descriptor
/// over the caller's frame slice, never a copy of it. Workers are scoped
/// threads, so a head reads `frames[start..end]` in place; the
/// dispatcher clones no frame handle and allocates nothing, and the
/// retained window, a duplicate, a late copy and a retag are all a copy
/// of these 40 bytes.
#[derive(Clone, Copy, Debug)]
struct MfDesc {
    id: u64,
    /// Merge-counter lane id the micro-flow's run will carry.
    lane: usize,
    /// The range opens at the micro-flow's first surviving frame and ends
    /// with the frame that closes it (see [`plan_microflow`]).
    start: usize,
    end: usize,
    /// Frames of the range that survive the planned drops: the length of
    /// the range on every run without injected loss, which is how a
    /// reader knows there is nothing to replay.
    live: usize,
}

/// One micro-flow's items in flight between threads.
struct Run<T> {
    id: u64,
    lane: usize,
    /// The final item closes the micro-flow ([`mflow::MfTag::last`]). False only
    /// when the closing packet was a planned drop.
    closed: bool,
    items: Vec<T>,
}

impl<T> Run<T> {
    /// The same micro-flow, carrying what `f` makes of its items.
    fn with_items<U>(self, f: impl FnOnce(Vec<T>) -> Vec<U>) -> Run<U> {
        Run {
            id: self.id,
            lane: self.lane,
            closed: self.closed,
            items: f(self.items),
        }
    }
}

/// A micro-flow part-way through the staged pipeline, as forwarded
/// between FALCON chain workers.
type StagedRun = Run<StagedWork>;
/// A processed micro-flow, as sent to the merger: the unit of the merge
/// ring, of the merge engines' bookkeeping and of the WAL.
type MergedRun = Run<PacketResult>;

/// The merger's ordering engine. The variant is fixed for the whole run
/// (it is part of the policy/fault configuration, not of the mutable
/// state), but the bookkeeping inside is exactly what a crash must not
/// lose — so the engine lives inside [`MergerState`] and is cloned whole
/// into every checkpoint.
#[derive(Clone)]
enum MergeEngine {
    /// Per-lane FIFO already is global order (pinned-lane policies on
    /// benign runs): results stream through unbuffered.
    Passthrough,
    /// Merge-before-tcp: the paper's merging counter.
    Counter(MergeCounter<PacketResult>),
    /// State-compute replication: seq-watermark reconciler.
    Reconciler(ScrReconciler<PacketResult>),
}

/// Everything the merger mutates while the stream is in flight, as one
/// cloneable snapshot object: the engine (per-lane queues, counter,
/// flush/dedup windows, SCR watermark and parked set) plus the scalar
/// counters the merger owns. Restoring a [`MergerState`] and replaying
/// the delta log reproduces the dead incarnation's trajectory exactly.
#[derive(Clone)]
struct MergerState {
    engine: MergeEngine,
    /// Stateful mode is SCR (lanes did the stateful stage; arrivals are
    /// counted as replicated transitions).
    scr: bool,
    /// Highest packet seq seen so far, for the `ooo` arrival counter.
    max_seen: Option<u64>,
    /// Arrivals that carried a seq below `max_seen`.
    ooo: u64,
    /// Replicated stateful transitions observed (SCR only).
    replicated: u64,
    /// Busy nanoseconds of the serial merge/reconcile stage.
    serial_ns: u64,
    /// Offers applied so far — the WAL's logical clock: checkpoint
    /// boundaries and injected merger faults are expressed in it.
    offers: u64,
}

impl MergerState {
    fn new(use_counter: bool, scr: bool) -> Self {
        let engine = if !use_counter {
            MergeEngine::Passthrough
        } else if scr {
            MergeEngine::Reconciler(ScrReconciler::new())
        } else {
            MergeEngine::Counter(MergeCounter::new())
        };
        Self {
            engine,
            scr,
            max_seen: None,
            ooo: 0,
            replicated: 0,
            serial_ns: 0,
            offers: 0,
        }
    }

    /// Applies one received run: counters (all in packets), then the
    /// engine, once. Identical whether the run arrives live or replays
    /// from the delta log. The engine call is timed exactly — two clock
    /// reads per micro-flow — into `serial_ns`.
    fn apply(&mut self, run: &MergedRun, out: &mut Vec<PacketResult>) {
        let n = run.items.len() as u64;
        self.offers += n;
        if self.scr {
            self.replicated += n;
        }
        for r in &run.items {
            match self.max_seen {
                Some(max) if r.seq < max => self.ooo += 1,
                _ => self.max_seen = Some(r.seq),
            }
        }
        let items = run.items.iter().copied();
        let t = Instant::now();
        match &mut self.engine {
            // No serial stage to time: results stream through.
            MergeEngine::Passthrough => return out.extend(items),
            MergeEngine::Counter(mc) => {
                mc.offer_run(run.id, run.lane, run.closed, items, out);
            }
            MergeEngine::Reconciler(rc) => {
                rc.offer_run(items.map(|r| (r.seq, r.seq + 1, r)), out);
            }
        }
        self.serial_ns += t.elapsed().as_nanos() as u64;
    }

    /// Flushes the single most-stalled head (receive-timeout path).
    fn flush_one(&mut self, out: &mut Vec<PacketResult>) {
        let t = Instant::now();
        match &mut self.engine {
            MergeEngine::Passthrough => {}
            MergeEngine::Counter(mc) => {
                mc.flush_one(out);
            }
            MergeEngine::Reconciler(rc) => {
                rc.flush_one(out);
            }
        }
        self.serial_ns += t.elapsed().as_nanos() as u64;
    }

    /// End-of-stream flush of everything still parked.
    fn flush_stalled(&mut self, out: &mut Vec<PacketResult>) {
        let t = Instant::now();
        match &mut self.engine {
            MergeEngine::Passthrough => {}
            MergeEngine::Counter(mc) => {
                mc.flush_stalled(out);
            }
            MergeEngine::Reconciler(rc) => {
                rc.flush_stalled(out);
            }
        }
        self.serial_ns += t.elapsed().as_nanos() as u64;
    }

    fn stats(&self) -> MergeStats {
        match &self.engine {
            MergeEngine::Passthrough => MergeStats::default(),
            MergeEngine::Counter(mc) => mc.stats(),
            MergeEngine::Reconciler(rc) => rc.stats(),
        }
    }

    /// What the engine flushed past: micro-flow IDs (counter) or skipped
    /// packet seqs (reconciler).
    fn flushed_list(&self) -> Vec<u64> {
        match &self.engine {
            MergeEngine::Passthrough => Vec::new(),
            MergeEngine::Counter(mc) => mc.flushed_ids().iter().copied().collect(),
            MergeEngine::Reconciler(rc) => rc
                .skipped_ranges()
                .iter()
                .flat_map(|&(s, e)| s..e)
                .collect(),
        }
    }

    /// Approximate heap footprint of one snapshot, for the
    /// `snapshot_bytes` telemetry counter.
    fn approx_bytes(&self) -> u64 {
        let engine = match &self.engine {
            MergeEngine::Passthrough => 0,
            MergeEngine::Counter(mc) => mc.approx_bytes(),
            MergeEngine::Reconciler(rc) => rc.approx_bytes(),
        };
        std::mem::size_of::<Self>() as u64 + engine
    }
}

/// The crash-consistent half of the merger failure domain: the last
/// checkpoint (a [`MergerState`] snapshot plus the length of delivered
/// output it vouches for), the write-ahead delta log of runs accepted
/// since, and the delivered output itself — which exists exactly once,
/// here. The live incarnation appends to `out` in place; a successor —
/// or the dispatcher's final serial merge — truncates it back to
/// `out_mark`, clones the snapshot and replays the delta, so a crash
/// loses nothing: every received run is journaled *before* the (possibly
/// fatal) processing step.
struct MergerDurable {
    snapshot: MergerState,
    /// Delivered results. `out[..out_mark]` is what `snapshot` stands
    /// for; anything beyond is the live incarnation's work since, which
    /// `delta` reproduces.
    out: Vec<PacketResult>,
    out_mark: usize,
    /// Runs received since the last checkpoint, in arrival order.
    delta: Vec<MergedRun>,
    snapshot_bytes: u64,
    checkpoints: u64,
    restores: u64,
    /// Packets replayed from `delta` by restores.
    replayed: u64,
}

impl MergerDurable {
    /// Rebuilds the live state from the block: drops what a dead
    /// predecessor delivered past the mark, then replays the delta on a
    /// clone of the snapshot. Returns the state and the packets replayed.
    fn restore(&mut self) -> (MergerState, u64) {
        self.out.truncate(self.out_mark);
        let mut state = self.snapshot.clone();
        let mut replayed = 0;
        for run in &self.delta {
            replayed += run.items.len() as u64;
            state.apply(run, &mut self.out);
        }
        (state, replayed)
    }

    /// Makes `state` the snapshot and everything delivered so far the
    /// prefix it vouches for: a length is recorded, nothing is copied.
    /// Clears the WAL.
    fn fold(&mut self, state: MergerState) {
        self.snapshot = state;
        self.out_mark = self.out.len();
        self.delta.clear();
    }
}

/// Shared coordination block between merger incarnations, the
/// dispatcher's watchdog, and final assembly.
struct MergerShared {
    /// The single receiving end of the merge transport. It must survive
    /// merger deaths — dropping it would disconnect every producer for
    /// good — so incarnations *lease* it from this slot and a panic
    /// returns it on unwind. Possession of the lease is the exclusive
    /// right to append to the WAL, mutate durable state, or checkpoint.
    rx_slot: Mutex<Option<RingMux<MergedRun>>>,
    durable: Mutex<MergerDurable>,
    /// Incarnation generation: bumped by the watchdog to supersede a
    /// wedged incarnation, which then exits cleanly at its next check.
    gen: AtomicU64,
    /// A (non-superseded) incarnation died holding the lease; cleared
    /// when the supervisor respawns one.
    down: AtomicBool,
    /// The stream was fully consumed and folded into `durable`.
    eos: AtomicBool,
    /// Micro-flows (runs) producers have pushed toward the merge
    /// transport — the unit of a ring slot and of
    /// [`RuntimeConfig::merger_depth`].
    sent: AtomicU64,
    /// Micro-flows the merger side has popped from it.
    recvd: AtomicU64,
}

impl MergerShared {
    fn new(rx: RingMux<MergedRun>, use_counter: bool, scr: bool) -> Self {
        Self {
            rx_slot: Mutex::new(Some(rx)),
            durable: Mutex::new(MergerDurable {
                snapshot: MergerState::new(use_counter, scr),
                out: Vec::new(),
                out_mark: 0,
                delta: Vec::new(),
                snapshot_bytes: 0,
                checkpoints: 0,
                restores: 0,
                replayed: 0,
            }),
            gen: AtomicU64::new(0),
            down: AtomicBool::new(false),
            eos: AtomicBool::new(false),
            sent: AtomicU64::new(0),
            recvd: AtomicU64::new(0),
        }
    }

    /// Locks the durable block, recovering from a poisoned mutex: the
    /// WAL protocol keeps `durable` consistent at every instruction
    /// boundary (the injected kill panics while holding it), so the
    /// poison flag carries no information here. The lock is never
    /// contended — only the receiver-lease holder and final assembly
    /// touch the block — it is what lets the block outlive a panic.
    fn durable(&self) -> std::sync::MutexGuard<'_, MergerDurable> {
        self.durable.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// RAII lease on the merge receiver. Dropping the lease — normally or on
/// panic unwind — returns the receiver to the shared slot; unless the
/// holder marked the exit `clean` (end of stream, supersession, or a
/// dispatcher pump), the drop also reports the incarnation dead.
struct RxLease<'a> {
    shared: &'a MergerShared,
    rx: Option<RingMux<MergedRun>>,
    clean: bool,
}

impl<'a> RxLease<'a> {
    fn try_take(shared: &'a MergerShared) -> Option<Self> {
        let rx = shared
            .rx_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()?;
        Some(Self {
            shared,
            rx: Some(rx),
            clean: false,
        })
    }

    fn rx(&mut self) -> &mut RingMux<MergedRun> {
        self.rx.as_mut().expect("leased receiver present until drop")
    }
}

impl Drop for RxLease<'_> {
    fn drop(&mut self) {
        *self
            .shared
            .rx_slot
            .lock()
            .unwrap_or_else(|e| e.into_inner()) = self.rx.take();
        if !self.clean {
            self.shared.down.store(true, Ordering::Release);
        }
    }
}

/// The body of one merger incarnation. Waits for the receiver lease,
/// restores from the durable block (snapshot + delta replay), then runs
/// the receive loop, one micro-flow run per step under one lock of the
/// block: journal, fault checks, apply from the journal, checkpoint.
fn merger_loop(w: MergerWatch<'_, '_>, incarnation: u64, my_gen: u64) {
    let (shared, faults) = (w.shared, w.faults);
    let mut lease = loop {
        if shared.gen.load(Ordering::Acquire) != my_gen {
            return; // superseded before acquiring the lease
        }
        if let Some(lease) = RxLease::try_take(shared) {
            break lease;
        }
        // Predecessor still unwinding (or a pump holds the lease): stay
        // visibly alive while waiting.
        w.beats.bump(w.merger_slot);
        thread::sleep(Duration::from_micros(50));
    };
    // Restore strictly *after* taking the lease: only then is the delta
    // log guaranteed quiescent (a superseded-but-running predecessor may
    // journal one more run right up to releasing the receiver).
    let mut state = {
        let mut d = shared.durable();
        let (state, replayed) = d.restore();
        if incarnation > 0 {
            d.restores += 1;
            d.replayed += replayed;
            faults.note(FaultEvent::SnapshotRestore { incarnation });
        }
        state
    };
    loop {
        if shared.gen.load(Ordering::Acquire) != my_gen {
            lease.clean = true; // superseded: hand over, not a death
            return;
        }
        match lease.rx().recv_timeout(w.flush_timeout) {
            Ok(run) => {
                w.beats.bump(w.merger_slot);
                shared.recvd.fetch_add(1, Ordering::Relaxed);
                // The WAL's clock stays in packets: this run takes it
                // over the offer numbers `(before, before + n]`.
                let (before, n) = (state.offers, run.items.len() as u64);
                let mut guard = shared.durable();
                let d = &mut *guard;
                // Journal by move before any processing: once in the WAL
                // the run survives this incarnation's death — including
                // the injected one three lines down — and it is applied
                // from there, so it is never copied.
                let run = if w.wal_on {
                    d.delta.push(run);
                    d.delta.last().expect("journaled just above")
                } else {
                    &run
                };
                if faults.merger_kill_fires(incarnation, before + n) {
                    faults.note(FaultEvent::MergerDeath { incarnation });
                    panic!("injected merger death (incarnation {incarnation})");
                }
                if let Some(stall) = faults.merger_stall_fires(before, n) {
                    faults.note(FaultEvent::MergerStall {
                        offers: stall.after_offers,
                    });
                    // Wedged with the block locked, which costs nobody
                    // anything: only the lease holder ever locks it.
                    thread::sleep(Duration::from_millis(stall.ms));
                    if shared.gen.load(Ordering::Acquire) != my_gen {
                        // Superseded while wedged. The run is already
                        // journaled; the successor replays it.
                        lease.clean = true;
                        return;
                    }
                }
                state.apply(run, &mut d.out);
                // The run that crosses a multiple of the interval takes
                // the checkpoint.
                if w.wal_on && before / w.checkpoint_every != state.offers / w.checkpoint_every {
                    d.checkpoints += 1;
                    d.snapshot_bytes += state.approx_bytes();
                    d.fold(state.clone());
                }
            }
            Err(MuxRecvError::Timeout) => {
                // An expired recv deadline proves this incarnation is
                // alive and scheduled — keep the epoch fresh so an
                // increment-before-send discrepancy from a mid-send
                // worker death (sent > recvd with an empty transport)
                // cannot read as a wedge and supersede a healthy
                // merger once per heartbeat deadline until the shared
                // restart budget is gone.
                w.beats.bump(w.merger_slot);
                state.flush_one(&mut shared.durable().out);
            }
            Err(MuxRecvError::Disconnected) => break,
        }
    }
    // End of stream: fold everything into the durable block so final
    // assembly starts from a clean snapshot with an empty delta.
    shared.durable().fold(state);
    shared.eos.store(true, Ordering::Release);
    lease.clean = true;
}

/// Dispatcher-side non-blocking drain of the merge transport into the
/// WAL, for when no merger incarnation holds the lease (respawn backed
/// off, budget exhausted, or supervision disabled entirely): producers
/// keep moving, and whichever consumer comes next — a respawned merger
/// or final assembly's serial merge — replays the journaled backlog.
fn pump_merge_backlog(shared: &MergerShared) {
    let Some(mut lease) = RxLease::try_take(shared) else {
        return; // someone else is consuming; nothing to do
    };
    lease.clean = true; // a pump exit is never a merger death
    loop {
        match lease.rx().recv_deadline(Some(Instant::now())) {
            Ok(run) => {
                shared.recvd.fetch_add(1, Ordering::Relaxed);
                shared.durable().delta.push(run);
            }
            Err(MuxRecvError::Timeout) => break,
            Err(MuxRecvError::Disconnected) => {
                // Every producer is gone and the backlog is journaled:
                // the stream is fully consumed.
                shared.eos.store(true, Ordering::Release);
                break;
            }
        }
    }
}

/// How often a teardown wait runs a supervision pass ([`MergerWatch::tend`])
/// while the job it waits for is still running. The wait itself is on the
/// job ([`crew::JoinHandle::wait_finished`]), so it ends the moment the
/// job does.
const TEND_TICK: Duration = Duration::from_micros(50);

/// The read-only context of the merger failure domain: what an
/// incarnation runs on ([`merger_loop`]) and what the dispatch loop and
/// the teardown joins need to run supervision passes, bundled so neither
/// is a dozen-argument call. `Copy`, so call sites borrow nothing.
#[derive(Clone, Copy)]
struct MergerWatch<'scope, 'env> {
    s: &'scope crew::Scope<'scope, 'env>,
    shared: &'env MergerShared,
    faults: &'env RuntimeFaults,
    beats: &'env HeartbeatBoard,
    merger_slot: usize,
    flush_timeout: Option<Duration>,
    /// The merger failure domain is armed (supervision on, or merger
    /// faults injected): offers are journaled and checkpointed, and the
    /// watchdog methods act. Off — a benign unsupervised run — every
    /// method is a no-op and the single merger incarnation runs to EOS
    /// exactly as the unsupervised pipeline always has.
    wal_on: bool,
    checkpoint_every: u64,
    merger_depth: usize,
    supervised: bool,
}

impl<'scope, 'env> MergerWatch<'scope, 'env> {
    /// Starts one merger incarnation as a job of its own.
    fn spawn(self, incarnation: u64, my_gen: u64) -> crew::JoinHandle<'scope> {
        self.s.spawn(move || merger_loop(self, incarnation, my_gen))
    }

    /// One non-blocking pass: respawn a dead merger from its last
    /// checkpoint (budget and backoff permitting), degrade to WAL
    /// pumping when respawn is off the table, supersede a wedged
    /// incarnation. Called between micro-flows and while joining
    /// workers, so a merger death can never wedge the pipeline.
    fn tend(
        &self,
        sup: &mut Supervisor,
        merger_handles: &mut Vec<crew::JoinHandle<'scope>>,
        frames_done: u64,
    ) {
        if !self.wal_on || self.shared.eos.load(Ordering::Acquire) {
            return;
        }
        let shared = self.shared;
        let now = Instant::now();
        if shared.down.load(Ordering::Acquire) {
            sup.note_death(self.merger_slot, now, frames_done);
            if self.supervised && sup.allow_respawn(self.merger_slot, now) {
                let incarnation = sup.on_respawn(self.merger_slot, now, frames_done);
                self.faults.note(FaultEvent::MergerRespawn { incarnation });
                shared.down.store(false, Ordering::Release);
                let my_gen = shared.gen.load(Ordering::Acquire);
                merger_handles.push(self.spawn(incarnation, my_gen));
            } else if !self.supervised || sup.budget_exhausted() {
                // Terminal degradation: no respawn is coming. Journal
                // the backlog so producers never block on a
                // consumerless transport; final assembly performs the
                // serial merge from the WAL.
                pump_merge_backlog(shared);
            } else if shared
                .sent
                .load(Ordering::Relaxed)
                .saturating_sub(shared.recvd.load(Ordering::Relaxed))
                > (self.merger_depth / 2) as u64
            {
                // Respawn is backed off but the backlog — micro-flows on
                // both sides, like the ring slots `merger_depth` counts —
                // is approaching transport capacity: drain into the WAL
                // so producers keep moving. The respawned merger replays
                // the (larger) delta.
                pump_merge_backlog(shared);
            }
        } else if self.supervised
            && sup.stale(self.merger_slot, self.beats.read(self.merger_slot), now)
            && shared.sent.load(Ordering::Relaxed) > shared.recvd.load(Ordering::Relaxed)
        {
            // Wedge: results are queued but the merger's heartbeat has
            // not moved for a full deadline. Supersede the incarnation
            // (it exits cleanly at its next generation check — every
            // journaled offer is safe) and let the next pass respawn
            // from the checkpoint.
            sup.heartbeat_misses += 1;
            shared.gen.fetch_add(1, Ordering::AcqRel);
            shared.down.store(true, Ordering::Release);
        }
    }

    /// Joins one worker handle while keeping the merge stream consumed:
    /// a worker blocked on a full merge transport whose consumer just
    /// died would otherwise deadlock the join.
    fn join_tended(
        &self,
        h: crew::JoinHandle<'scope>,
        sup: &mut Supervisor,
        merger_handles: &mut Vec<crew::JoinHandle<'scope>>,
        frames_done: u64,
    ) -> thread::Result<()> {
        while self.wal_on && !h.is_finished() {
            self.tend(sup, merger_handles, frames_done);
            h.wait_finished(TEND_TICK);
        }
        h.join()
    }

    /// Runs supervision passes until the stream is fully consumed and
    /// folded into the durable block. Called after every producer has
    /// exited, so each pass makes progress: a live merger drains to
    /// Disconnected, a dead one is respawned or pumped, a wedged one is
    /// superseded — all of which terminate in `eos`.
    fn drain_to_eos(
        &self,
        sup: &mut Supervisor,
        merger_handles: &mut Vec<crew::JoinHandle<'scope>>,
        frames_done: u64,
    ) {
        while self.wal_on && !self.shared.eos.load(Ordering::Acquire) {
            self.tend(sup, merger_handles, frames_done);
            // A live incarnation ends at EOS or by dying, and either is
            // what this loop waits for; with none (respawn backing off)
            // only the clock can end the wait.
            match merger_handles.last() {
                Some(live) if !live.is_finished() => {
                    live.wait_finished(TEND_TICK);
                }
                _ => thread::sleep(TEND_TICK),
            }
        }
    }
}

/// Dispatcher-side view of one worker queue.
struct Lane {
    tx: Option<RingProducer<MfDesc>>,
    /// The most recently sent descriptors (faulty and supervised runs
    /// only): the micro-flows that may still sit unprocessed in the queue
    /// when the worker dies, and must be redispatched. Capacity
    /// `queue_depth + 2` covers the full queue, the one in the worker's
    /// hands, and the one that bounced.
    recent: VecDeque<MfDesc>,
    /// Merge-counter lane id stamped on micro-flows routed here.
    /// Initially the slot index; a supervisor respawn moves it to a fresh
    /// id so results a replaced (but still draining) incarnation emits
    /// can never interleave with the new incarnation's on one tag lane —
    /// the merger's per-lane FIFO assumption holds by construction.
    tag_lane: usize,
}

/// Everything the dispatcher tracks while the stream is in flight.
struct Dispatcher<'a> {
    lanes: Vec<Lane>,
    retain: usize,
    /// Next recovery lane ID (tag lanes above the worker count are unique
    /// per redispatched micro-flow).
    recovery_lane: usize,
    /// Physical worker round-robin cursor for recovery sends.
    next_worker: usize,
    redispatched: u64,
    /// Per-lane queue depth in micro-flows: incremented here on every
    /// successful send, decremented by the worker as it dequeues. The
    /// watermark signal backpressure decisions read.
    depths: &'a [AtomicUsize],
    policy: BackpressurePolicy,
    high_watermark: Option<usize>,
    inline_fallback: bool,
    /// Packets `DropTail` may still shed.
    shed_budget_left: u64,
    shed_packets: u64,
    sheds: Vec<(u64, usize)>,
    inline_batches: u64,
    inline_packets: u64,
    block_fallbacks: u64,
    backpressure_events: u64,
    /// [`Topology::inline_orphans`]: micro-flows that lost their only
    /// reachable worker are handed back for inline processing instead of
    /// being dropped ("no live worker" does not mean the pipeline is
    /// dead — the dispatcher itself still is).
    orphan_inline: bool,
    orphans: Vec<MfDesc>,
    /// Sends still to be made, as `(lane, micro-flow, on a recovery lane
    /// already)`: one entry on the normal path, a dead lane's whole
    /// window when a send bounces. Dispatcher state rather than a local,
    /// so a blocking send allocates nothing.
    pending: Vec<(usize, MfDesc, bool)>,
}

impl<'a> Dispatcher<'a> {
    fn new(
        lanes: Vec<Lane>,
        faults: &RuntimeFaults,
        cfg: &RuntimeConfig,
        depths: &'a [AtomicUsize],
        orphan_inline: bool,
    ) -> Self {
        let n = lanes.len();
        Self {
            lanes,
            // Supervised runs retain too: a stall-respawn needs the
            // window to redispatch even when no fault injector is wired.
            retain: if faults.is_active() || cfg.supervised() {
                cfg.queue_depth + 2
            } else {
                0
            },
            recovery_lane: n,
            next_worker: 0,
            redispatched: 0,
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
            orphan_inline,
            orphans: Vec::new(),
            pending: Vec::new(),
        }
    }

    /// Micro-flows with no reachable worker, handed back for inline
    /// processing (empty unless `orphan_inline`).
    fn take_orphans(&mut self) -> Vec<MfDesc> {
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
    fn lane_dead(&self, lane: usize) -> bool {
        self.lanes[lane].tx.is_none()
    }

    /// The merge-counter lane id for micro-flows routed to `lane`.
    fn tag_lane(&self, lane: usize) -> usize {
        self.lanes[lane].tag_lane
    }

    /// Fails a lane the watchdog declared stalled: marks it dead and
    /// redispatches its retained window, exactly as a bounced send
    /// would. The stalled worker may still be alive and drain its queue
    /// later — the merge counter rejects those re-deliveries as
    /// duplicates.
    fn fail_lane(&mut self, lane: usize) {
        for lost in self.mark_dead(lane) {
            self.reroute(lost, false);
        }
        self.pump();
    }

    /// Re-occupies a dead slot with a freshly spawned worker's lane:
    /// installs the new sender, clears the retained window (the old one
    /// was redispatched at death), resets the depth counter, and moves
    /// the tag lane to a fresh id (see [`Lane::tag_lane`]).
    fn revive(&mut self, lane: usize, tx: RingProducer<MfDesc>) {
        self.lanes[lane].tx = Some(tx);
        self.lanes[lane].recent.clear();
        self.lanes[lane].tag_lane = self.recovery_lane;
        self.recovery_lane += 1;
        self.depths[lane].store(0, Ordering::Relaxed);
    }

    /// Sends `desc` to worker `lane`, redispatching on failure.
    fn send(&mut self, lane: usize, desc: MfDesc) {
        self.pending.push((lane, desc, false));
        self.pump();
    }

    /// Drains the pending send list iteratively: a redispatch target may
    /// itself be dead, bouncing the micro-flow again.
    fn pump(&mut self) {
        while let Some((lane, desc, is_recovery)) = self.pending.pop() {
            let Some(tx) = self.lanes[lane].tx.as_mut() else {
                // Known-dead lane: reroute to a live worker directly.
                self.reroute(desc, is_recovery);
                continue;
            };
            // Count the micro-flow as queued *before* publishing it:
            // worker decrements are saturating, so one observed before
            // its increment would be lost for good. (A bounced send
            // leaves the counter inflated only until `mark_dead` zeroes
            // it.)
            self.depths[lane].fetch_add(1, Ordering::Relaxed);
            if tx.push(desc).is_err() {
                // The worker died: everything it still held is lost.
                // Redispatch its retained window plus this micro-flow.
                let window = self.mark_dead(lane);
                for lost in window.into_iter().chain(std::iter::once(desc)) {
                    self.reroute(lost, is_recovery);
                }
            }
        }
    }

    /// Sends a micro-flow, noting it in the lane's retained window first
    /// (faulty and supervised runs only).
    fn send_retained(&mut self, lane: usize, desc: MfDesc) {
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
    fn offer(&mut self, lane: usize, desc: MfDesc) -> Option<MfDesc> {
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

    /// Retags a lost micro-flow onto a fresh recovery lane and queues it
    /// for the next live worker. When no workers are left it is dropped —
    /// or, with `orphan_inline`, parked for inline processing.
    fn reroute(&mut self, desc: MfDesc, was_recovery: bool) {
        let Some(target) = self.pick_live_worker() else {
            if self.orphan_inline {
                self.orphans.push(desc);
            }
            return;
        };
        // One already on a unique recovery lane keeps its tag.
        let desc = if was_recovery { desc } else { self.retag(desc) };
        self.redispatched += 1;
        self.pending.push((target, desc, true));
    }

    /// Moves a micro-flow onto a fresh recovery lane.
    fn retag(&mut self, desc: MfDesc) -> MfDesc {
        let lane = self.recovery_lane;
        self.recovery_lane += 1;
        MfDesc { lane, ..desc }
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

    /// Sends a recovery-tagged copy of `desc` to the next live worker
    /// (parked for inline processing under `orphan_inline` when none is
    /// left).
    fn send_recovery(&mut self, desc: MfDesc) {
        let retagged = self.retag(desc);
        if let Some(target) = self.pick_live_worker() {
            self.send(target, retagged);
        } else if self.orphan_inline {
            self.orphans.push(retagged);
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
    if let Some(stall) = faults.lane_stall {
        if stall.worker == worker {
            // Sustained pressure: every batch pays.
            thread::sleep(Duration::from_millis(stall.ms));
        }
    }
    if let Some(slow) = faults.slow_worker {
        if slow.worker == worker {
            thread::sleep(Duration::from_micros(slow.per_batch_us));
        }
    }
    if faults.stalls_on(mf_id) {
        faults.note(FaultEvent::Stall { worker, mf_id });
        thread::sleep(Duration::from_millis(faults.stall_ms));
    }
}

/// Applies the lane-replicated stateful stage under SCR; identity under
/// merge-before-tcp (final assembly runs the stage there instead).
fn apply_scr(r: PacketResult, scr_work: Option<u32>) -> PacketResult {
    match scr_work {
        Some(units) => stateful_stage(r, units),
        None => r,
    }
}

/// What a stage worker dequeues: a descriptor over wire frames at a lane
/// head, a staged run at an interior stage. Either is advanced by one
/// stage group for the next hop, or taken through every remaining stage
/// (plus the replicated stateful stage when SCR is on) — what a tail
/// does with its input, what any stage does with a run whose next hop
/// died, and what the dispatcher does with a micro-flow it keeps inline.
trait StageInput: Send + Sized {
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
            lane: self.lane,
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
        let scr = |r| apply_scr(r, ctx.scr_work);
        self.run(ctx, |span, out| process_frames(span, scr, out))
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
            complete_staged(&staged, |r| apply_scr(r, ctx.scr_work), &mut results);
            results
        })
    }
}

/// Saturating depth decrement: a replaced-but-still-draining incarnation
/// may decrement after the watchdog reset the counter to zero; clamping
/// keeps the occupancy signal from wrapping to a phantom huge backlog.
fn depth_dec(depth: &AtomicUsize) {
    let _ = depth.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

/// The shape of a run (module docs, "Topology"): `lanes` entry lanes of
/// `depth` stage workers each. Computed once per run; nothing downstream
/// asks which family a policy belongs to, only for these numbers.
#[derive(Debug, PartialEq, Eq)]
struct Topology {
    lanes: usize,
    depth: usize,
    /// `groups[stage]`: how many of [`crate::work::STAGES`] the worker at
    /// that stage applies; they sum to `STAGES`.
    groups: Vec<usize>,
    /// Batches with no reachable worker go to the dispatcher for inline
    /// processing instead of being dropped: chain policies and
    /// supervised runs (module docs, "Steering policies").
    inline_orphans: bool,
}

impl Topology {
    fn new(stage_groups: usize, workers: usize, supervised: bool) -> Self {
        let chained = stage_groups >= 2;
        let (lanes, depth) = if chained {
            (1, stage_groups.min(workers))
        } else {
            (workers, 1)
        };
        Self {
            lanes,
            depth,
            groups: stage_group_sizes(depth),
            inline_orphans: chained || supervised,
        }
    }

    /// Worker threads, and worker slots: `slot = lane * depth + stage`.
    fn threads(&self) -> usize {
        self.lanes * self.depth
    }

    /// Index of the [`Link`] from `(lane, stage)` to `(lane, stage + 1)`.
    fn link(&self, lane: usize, stage: usize) -> usize {
        lane * (self.depth - 1) + stage
    }
}

/// The sender half of a [`Link`]. The generation counter invalidates
/// senders taken out before a re-wire.
struct LinkSlot {
    gen: u64,
    tx: Option<RingProducer<StagedRun>>,
}

/// One re-wireable link between consecutive stages of a lane. The sender
/// lives in a shared slot (instead of being owned by the upstream
/// worker) so the watchdog can swap in a fresh ring when the downstream
/// stage is respawned — re-homing the stage onto the new worker.
struct Link {
    slot: Mutex<LinkSlot>,
    /// Staged batches queued in the link: counted up by the upstream
    /// before it publishes, down by the downstream as it dequeues.
    depth: AtomicUsize,
    /// Generation at which the upstream observed the downstream dead
    /// (`u64::MAX` = no pending death signal). The watchdog only honors
    /// a signal matching the current generation, so stale discoveries of
    /// an already-replaced link are ignored.
    dead_gen: AtomicU64,
}

impl Link {
    fn new(tx: RingProducer<StagedRun>) -> Self {
        Self {
            slot: Mutex::new(LinkSlot {
                gen: 0,
                tx: Some(tx),
            }),
            depth: AtomicUsize::new(0),
            dead_gen: AtomicU64::new(u64::MAX),
        }
    }

    fn slot(&self) -> std::sync::MutexGuard<'_, LinkSlot> {
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
    fn cut(&self) {
        let mut s = self.slot();
        s.gen += 1;
        s.tx = None;
    }

    /// Re-homes the downstream stage onto a fresh ring.
    fn rewire(&self, tx: RingProducer<StagedRun>) {
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
/// [`MergerWatch`] so initial spawn and every respawn are one call.
/// `Copy`, so call sites borrow nothing.
#[derive(Clone, Copy)]
struct WorkerCtx<'scope, 'env> {
    s: &'scope crew::Scope<'scope, 'env>,
    topo: &'env Topology,
    /// The caller's frames, which every [`MfDesc`] indexes.
    frames: &'env [Frame],
    /// Per-lane dispatcher queue depths (a head's backlog).
    depths: &'env [AtomicUsize],
    /// Indexed by [`Topology::link`]; empty when `depth == 1`.
    links: &'env [Link],
    /// [`MergerShared::sent`].
    sent: &'env AtomicU64,
    faults: &'env RuntimeFaults,
    beats: &'env HeartbeatBoard,
    scr_work: Option<u32>,
}

impl<'scope> WorkerCtx<'scope, '_> {
    /// Starts incarnation `incarnation` of worker `slot` as a job of its
    /// own, draining `rx` and publishing results through `merge`.
    /// The handle comes back tagged with its slot, so join-time panics
    /// can be attributed per slot even after respawns reorder the list.
    fn spawn_worker<T: StageInput + 'scope>(
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
/// has died — this worker's merger sends stay FIFO, so order survives the
/// degradation.
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
/// reads the range replays the decisions ([`MfDesc::run`]) — possibly
/// more than once, after a redispatch — without counting them again.
fn plan_microflow(
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

/// MFLOW pipeline: split into micro-flows, process on `workers` threads,
/// merge back in order. Equivalent to [`process_parallel_faulty`] with
/// [`RuntimeFaults::none`].
///
/// Returns [`MflowError::InvalidConfig`] for a malformed configuration,
/// [`MflowError::MergerPoisoned`] if the merge stage panics, and
/// [`MflowError::NoLiveWorkers`] when every worker of an unsupervised
/// fan-out policy died with input still pending (chain policies and
/// supervised runs instead fall back to inline processing on the
/// dispatcher).
pub fn process_parallel(frames: &[Frame], cfg: &RuntimeConfig) -> Result<RunOutput, MflowError> {
    process_parallel_faulty(frames, cfg, &RuntimeFaults::none())
}

/// The pipeline under an injected fault mix. Guaranteed not to panic and
/// not to wedge for any fault combination; see the module docs for the
/// degradation contract.
pub fn process_parallel_faulty(
    frames: &[Frame],
    cfg: &RuntimeConfig,
    faults: &RuntimeFaults,
) -> Result<RunOutput, MflowError> {
    cfg.validate()?;
    let mut policy = build_policy(cfg.policy)?;
    let start = Instant::now();
    let supervised = cfg.supervised();
    let topo = &Topology::new(policy.stage_groups(), cfg.workers, supervised);
    // DropTail removes whole micro-flows from the stream, which stalls
    // the merge counter exactly like injected loss does, and any policy
    // that can go inline (Inline itself, DropTail's inline fallback)
    // retags batches onto recovery lanes whose arrivals may trail the
    // primary lanes indefinitely — so every policy that sheds or creates
    // recovery lanes gets the flush deadline even in otherwise faultless
    // runs, not just DropTail. Supervision counts too: a stall-respawn
    // redispatches the retained window while the stalled worker may still
    // drain its copy, so recovery lanes and duplicates become possible.
    let can_shed_or_recover =
        !matches!(cfg.backpressure, BackpressurePolicy::Block) || supervised;
    let flush_timeout = if faults.is_active() || can_shed_or_recover {
        faults.flush_timeout_ms.map(Duration::from_millis)
    } else {
        None
    };
    // The merge counter is only needed when arrivals can leave original
    // order: a policy that interleaves one flow across lanes, or any run
    // where faults / shedding / recovery lanes can perturb the stream.
    // Otherwise per-lane FIFO carries order end to end and the merger
    // streams results through unbuffered.
    let use_counter = policy.reorders() || faults.is_active() || can_shed_or_recover;
    // Stateful-stage placement: under SCR the lanes (and every degraded
    // path that stands in for a lane — local completion past a dead next
    // hop, inline processing) apply the stage; under merge-before-tcp
    // final assembly does, serially, after reassembly and every join.
    let scr = cfg.stateful_mode == StatefulMode::StateComputeReplication;
    let sw = cfg.stateful_work;
    let scr_work = if scr { Some(sw) } else { None };

    // Dispatcher -> lane-head rings (SPSC: one producer, one consumer
    // each).
    let mut lanes = Vec::with_capacity(topo.lanes);
    let mut lane_rx = Vec::with_capacity(topo.lanes);
    for i in 0..topo.lanes {
        let (tx, rx) = ring::spsc::<MfDesc>(cfg.queue_depth);
        lanes.push(Lane {
            tx: Some(tx),
            recent: VecDeque::new(),
            tag_lane: i,
        });
        lane_rx.push(rx);
    }
    // Stage -> next-stage links inside each lane (none at depth 1): the
    // worker at stage k applies stage group k and forwards through a
    // shared, re-wireable link; the last stage publishes to the merger.
    let mut link_rx = Vec::new();
    let links: Vec<Link> = (0..topo.lanes * (topo.depth - 1))
        .map(|_| {
            let (tx, rx) = ring::spsc::<StagedRun>(cfg.queue_depth);
            link_rx.push(rx);
            Link::new(tx)
        })
        .collect();
    // Workers (plus the dispatcher's inline lane) -> merger: one SPSC
    // ring per producer, one run per slot, fanned into a mux. The
    // registrar mints additional rings for respawned workers.
    let (mut worker_merge_tx, merge_rx, merge_registrar) =
        ring::ring_mux_with_registrar::<MergedRun>(topo.threads() + 1, cfg.merger_depth);
    let mut dispatch_tx = worker_merge_tx.pop().expect("threads + 1 rings");
    // Merger failure domain: armed whenever the merger can actually die
    // or wedge — supervision on, or merger faults injected. Both of
    // those force `use_counter`, so a passthrough merger never pays for
    // the write-ahead layer. The receiver itself moves into a shared
    // slot that incarnations lease; producer senders stay valid across
    // merger deaths, which is what makes re-attachment implicit.
    let wal_on = supervised || faults.merger_faults_active();
    let shared_store = MergerShared::new(merge_rx, use_counter, scr);
    let shared = &shared_store;
    // Per-lane queue depths, the watermark signal for backpressure.
    let depths: Vec<AtomicUsize> = (0..topo.lanes).map(|_| AtomicUsize::new(0)).collect();
    let depths = &depths;
    // Per-slot heartbeat epochs, the watchdog's liveness signal. The
    // extra slot past the workers is the merger's.
    let merger_slot = topo.threads();
    let beats = HeartbeatBoard::new(topo.threads() + 1);
    let beats = &beats;

    // Buffer-pool telemetry: snapshot the frames' pool so the run can
    // report the recycle and heap-fallback deltas it caused.
    let frame_pool = frames.iter().find_map(|f| f.buf().pool());
    let pool_before = frame_pool.as_ref().map(|p| p.stats());

    // Dispatcher: this thread plays the IRQ core's first half.
    let mut d = Dispatcher::new(lanes, faults, cfg, depths, topo.inline_orphans);
    // One supervision slot per worker plus the merger's; the respawn
    // budget is one shared pool across both failure domains, but the
    // restart and recovery-time counters split per domain.
    let mut sup = Supervisor::new(
        topo.threads() + 1,
        cfg.heartbeat_interval_ms.map(Duration::from_millis),
        cfg.restart_budget,
        Duration::from_millis(cfg.restart_backoff_ms),
        start,
    );
    sup.watch_merger(merger_slot);
    let n = frames.len();
    let mut fault_drops = 0u64;
    let mut dispatch_done = start;
    // Worker panics per slot, every incarnation; injected deaths surface
    // at join and are counted here, not propagated.
    let mut deaths_by_slot = vec![0u32; topo.threads()];
    let mut merger_deaths = 0usize;

    crew::scope(|s| {
        let workers = WorkerCtx {
            s,
            topo,
            frames,
            depths,
            links: &links,
            sent: &shared.sent,
            faults,
            beats,
            scr_work,
        };
        let mut handles = Vec::with_capacity(topo.threads());
        // Slot by slot: a head drains its lane's ring, every later stage
        // its incoming link (both lists are in slot order).
        let (mut lane_rx, mut link_rx) = (lane_rx.into_iter(), link_rx.into_iter());
        for (slot, merge) in worker_merge_tx.into_iter().enumerate() {
            handles.push(if slot % topo.depth == 0 {
                let rx = lane_rx.next().expect("ring per lane");
                workers.spawn_worker(slot, 0, rx, merge)
            } else {
                let rx = link_rx.next().expect("link per later stage");
                workers.spawn_worker(slot, 0, rx, merge)
            });
        }

        // Merger incarnation 0: merging-counter reassembly with flush
        // recovery, a seq-watermark reconciler under SCR, or plain
        // passthrough when order cannot be perturbed — all inside
        // [`MergerState`], behind the receiver lease. Every incarnation
        // restores from the shared durable block; the watchdog spawns
        // successors from the same block when one dies or wedges.
        let watch = MergerWatch {
            s,
            shared,
            faults,
            beats,
            merger_slot,
            flush_timeout,
            wal_on,
            checkpoint_every: cfg.checkpoint_every,
            merger_depth: cfg.merger_depth,
            supervised,
        };
        let mut merger_handles = vec![watch.spawn(0, 0)];

        // Micro-flows the policy handed back are processed right here on
        // the dispatcher thread, retagged onto fresh recovery lanes so the
        // merger's per-lane FIFO assumption holds (earlier micro-flows for
        // the original lane may still sit in the worker's queue).
        let process_inline = |d: &mut Dispatcher<'_>,
                              tx: &mut RingProducer<MergedRun>,
                              desc: MfDesc| {
            let run = d.retag(desc).complete(&workers);
            d.inline_batches += 1;
            d.inline_packets += run.items.len() as u64;
            shared.sent.fetch_add(1, Ordering::Relaxed);
            let _ = tx.push(run);
        };
        let mut mf_id = 0u64;
        let mut next = 0usize;
        let mut depth_snap = vec![0usize; topo.lanes];
        let mut delayed: Vec<(u64, MfDesc)> = Vec::new();
        while next < n {
            let (start, end, live) =
                plan_microflow(frames, next, mf_id, cfg.batch_size, faults, &mut fault_drops);
            next = end;
            if live > 0 {
                // Ask the policy for the micro-flow's lane, with a fresh
                // view of per-lane occupancy. The descriptor carries the
                // lane's merge-counter id, which diverges from the
                // physical slot after a respawn. This one outer-header
                // read per micro-flow is all the dispatcher touches of
                // the frames' bytes; a frame it cannot hash steers as
                // flow 0 and fails on the worker that parses it, the
                // thread whose death the run already accounts for.
                let hash = frames[start].try_flow_hash().unwrap_or(0);
                for (snap, depth) in depth_snap.iter_mut().zip(depths.iter()) {
                    *snap = depth.load(Ordering::Relaxed);
                }
                let lane = policy.steer(mf_id, hash, &depth_snap).min(topo.lanes - 1);
                let desc = MfDesc {
                    id: mf_id,
                    lane: d.tag_lane(lane),
                    start,
                    end,
                    live,
                };
                if faults.is_active() && faults.delays_mf(mf_id) {
                    // Held back: will be redispatched on a recovery
                    // lane `late_by` micro-flows from now.
                    faults.note(FaultEvent::LateMf { mf_id });
                    delayed.push((mf_id + faults.late_by.max(1), desc));
                } else if faults.is_active() && faults.duplicates_mf(mf_id) {
                    faults.note(FaultEvent::DupMf { mf_id });
                    d.send_retained(lane, desc);
                    d.send_recovery(desc);
                } else if let Some(kept) = d.offer(lane, desc) {
                    process_inline(&mut d, &mut dispatch_tx, kept);
                }
                // Completion feedback: the policy hears what it
                // placed (rate accounting for elephant detection).
                policy.observe(mf_id, hash, lane, live);
            }
            delayed.retain(|&(due, desc)| {
                if due <= mf_id {
                    d.send_recovery(desc);
                }
                due > mf_id
            });
            // The watchdog pass: once per dispatched micro-flow, between
            // micro-flows (never inside one, so a revived lane's fresh
            // tag id cannot split one micro-flow across ids).
            let done = (end - 1) as u64;
            if supervised {
                let now = Instant::now();
                for lane in 0..topo.lanes {
                    // A lane head is watched through the dispatcher
                    // lane. Stall detection: a stale heartbeat only
                    // counts while work is queued — an idle worker's
                    // epoch is legitimately still.
                    let head = lane * topo.depth;
                    if !d.lane_dead(lane)
                        && sup.stale(head, beats.read(head), now)
                        && depths[lane].load(Ordering::Relaxed) > 0
                    {
                        sup.heartbeat_misses += 1;
                        d.fail_lane(lane);
                    }
                    if d.lane_dead(lane) {
                        sup.note_death(head, now, done);
                        if sup.allow_respawn(head, now) {
                            let (tx, rx) = ring::spsc::<MfDesc>(cfg.queue_depth);
                            let inc = sup.on_respawn(head, now, done);
                            d.revive(lane, tx);
                            let merge = merge_registrar.add_producer();
                            handles.push(workers.spawn_worker(head, inc, rx, merge));
                        }
                    }
                    // Every later stage is watched through its
                    // incoming link. A death is either flagged by the
                    // upstream's bounced send (generation-matched) or
                    // declared here on a stale heartbeat.
                    for stage in 1..topo.depth {
                        let slot = head + stage;
                        let link = &links[topo.link(lane, stage - 1)];
                        let mut dead = link.dead_gen.load(Ordering::Acquire) == link.slot().gen;
                        if !dead
                            && sup.stale(slot, beats.read(slot), now)
                            && link.depth.load(Ordering::Relaxed) > 0
                        {
                            // Stalled: cut the link so the upstream
                            // completes micro-flows locally until the
                            // replacement is wired in.
                            sup.heartbeat_misses += 1;
                            link.cut();
                            dead = true;
                        }
                        if dead {
                            sup.note_death(slot, now, done);
                            if sup.allow_respawn(slot, now) {
                                // Re-home the stage: fresh link ring,
                                // fresh merger sender, new incarnation.
                                let (tx, rx) = ring::spsc::<StagedRun>(cfg.queue_depth);
                                link.rewire(tx);
                                let inc = sup.on_respawn(slot, now, done);
                                let merge = merge_registrar.add_producer();
                                handles.push(workers.spawn_worker(slot, inc, rx, merge));
                            }
                        }
                    }
                }
            }
            // The merger's own watchdog pass, on the same cadence:
            // armed even unsupervised when merger faults are
            // injected, so a merger death degrades to WAL pumping
            // instead of wedging the run.
            watch.tend(&mut sup, &mut merger_handles, done);
            // Micro-flows that lost their only reachable worker
            // ([`Topology::inline_orphans`]) come back for inline
            // processing instead of being dropped.
            for desc in d.take_orphans() {
                process_inline(&mut d, &mut dispatch_tx, desc);
            }
            mf_id += 1;
        }
        // Anything still held back goes out now, late but present.
        for (_, desc) in delayed {
            d.send_recovery(desc);
        }
        for desc in d.take_orphans() {
            process_inline(&mut d, &mut dispatch_tx, desc);
        }
        dispatch_done = Instant::now();
        // Dropping the lane senders lets the heads drain and exit; the
        // retained windows stay for the orphan pass below, and with them
        // the dispatcher's merger sender, so the merger cannot see end of
        // stream before that pass has run.
        for lane in &mut d.lanes {
            lane.tx = None;
        }
        drop(merge_registrar);

        // Join workers first (they feed the merger), stage by stage down
        // the lanes: only after every incarnation of a stage has exited
        // are that stage's outgoing links cut, so the next stage sees
        // end-of-stream strictly after its upstream finished producing.
        let mut remaining = handles;
        // Lanes on which a slot died holding micro-flows nobody
        // redispatched. A head counts when its *last* incarnation died
        // (handles are joined in spawn order, heads first): an earlier
        // death was observed by the dispatcher, which is what respawned
        // the slot, and its window redispatched then. A later stage counts
        // after any death: what sat in its incoming link is retained
        // nowhere.
        let mut orphaned = vec![false; topo.lanes];
        for stage in 0..topo.depth {
            let (mine, rest): (Vec<_>, Vec<_>) = remaining
                .into_iter()
                .partition(|(slot, _)| slot % topo.depth == stage);
            remaining = rest;
            for (slot, h) in mine {
                let died = watch
                    .join_tended(h, &mut sup, &mut merger_handles, n as u64)
                    .is_err();
                deaths_by_slot[slot] += u32::from(died);
                let lane = slot / topo.depth;
                orphaned[lane] = died || (stage > 0 && orphaned[lane]);
            }
            if stage + 1 < topo.depth {
                for lane in 0..topo.lanes {
                    links[topo.link(lane, stage)].cut();
                }
            }
        }
        // A death nobody observed: once dispatch has ended — always, for
        // a stream shorter than the lanes' queues — no send bounces off
        // the dead incarnation's ring, so what it still had queued was
        // never redispatched. The lane's retained window covers the end
        // of the stream; it is run here, and the merge engine rejects the
        // copies of whatever the lane did deliver. (A window the
        // dispatcher took when it did observe the death is empty; the
        // merger is tended first because it may be down too, and a push
        // must not wait on a ring nobody consumes.)
        for lane in (0..topo.lanes).filter(|&l| topo.inline_orphans && orphaned[l]) {
            for desc in std::mem::take(&mut d.lanes[lane].recent) {
                watch.tend(&mut sup, &mut merger_handles, n as u64);
                process_inline(&mut d, &mut dispatch_tx, desc);
            }
        }
        drop(dispatch_tx);
        // Every producer is gone; keep supervising until the stream is
        // fully consumed and folded into the durable block (a kill near
        // the end of the stream is respawned or pumped here), then join
        // every merger incarnation.
        watch.drain_to_eos(&mut sup, &mut merger_handles, n as u64);
        for h in merger_handles {
            if h.join().is_err() {
                merger_deaths += 1;
            }
        }
    });
    if merger_deaths > 0 && !wal_on {
        // An unarmed merger has no injected faults and no respawn path: a
        // panic there is a real bug, surfaced as an error instead of a
        // propagated abort.
        return Err(MflowError::MergerPoisoned);
    }
    let workers_died: usize = deaths_by_slot.iter().map(|&d| d as usize).sum();
    if !topo.inline_orphans && workers_died == topo.threads() && !frames.is_empty() {
        // Nobody was left to deliver the remainder.
        return Err(MflowError::NoLiveWorkers);
    }
    let (workers_respawned, workers_abandoned) = sup.classify_deaths(&deaths_by_slot);
    // A head death the dispatcher never observed (no send to that lane
    // afterwards) still leaves queued batches undequeued, so zero the
    // lane's depth too — a clean final incarnation drained its queue to
    // zero anyway, so this never masks a leak.
    for (lane, depth) in depths.iter().enumerate() {
        if deaths_by_slot[lane * topo.depth] > 0 {
            depth.store(0, Ordering::Relaxed);
        }
    }

    // Final assembly, on this thread, from the durable block: restore
    // the last snapshot, replay whatever the delta log still holds (the
    // serial-merge degradation path — empty after any clean merger EOS),
    // drain transport residue a non-blocking pump may have left (every
    // producer is gone, so this terminates), then flush and run the
    // serial stateful stage. The delivered buffer is taken, not copied.
    let MergerShared {
        rx_slot, durable, ..
    } = shared_store;
    let mut dur = durable.into_inner().unwrap_or_else(|e| e.into_inner());
    let (mut state, final_replay) = dur.restore();
    if final_replay > 0 {
        dur.restores += 1;
        dur.replayed += final_replay;
    }
    let mut out = std::mem::take(&mut dur.out);
    if let Some(mut rx) = rx_slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
        while let Ok(run) = rx.recv_deadline(None) {
            state.apply(&run, &mut out);
        }
    }
    // End of stream: flush whatever loss left stuck so nothing stays
    // parked forever.
    if flush_timeout.is_some() || faults.is_active() || supervised {
        state.flush_stalled(&mut out);
    }
    let flushed_mfs = state.flushed_list();
    // The serial stateful stage proper: merge-before-tcp pays it here,
    // after reassembly, packet by packet in order — timed into the same
    // serial_ns the incarnations accumulated, so the counter spans
    // merger respawns. (Under SCR the lanes already ran the stage.)
    if !scr {
        let t = Instant::now();
        for r in &mut out {
            *r = stateful_stage(*r, sw);
        }
        state.serial_ns += t.elapsed().as_nanos() as u64;
    }
    let mstats = state.stats();
    let digests = out;

    let (desplits, resplits) = policy.desplit_stats();
    // Buffer-pool deltas attributable to this run: counters only grow,
    // but saturate anyway so a shared pool raced by another run cannot
    // underflow the report.
    let (pool_recycled, pool_misses) = match (&frame_pool, pool_before) {
        (Some(p), Some(before)) => {
            let now = p.stats();
            (
                now.recycled.saturating_sub(before.recycled),
                now.misses.saturating_sub(before.misses),
            )
        }
        _ => (0, 0),
    };
    let telemetry = Telemetry {
        policy: policy.name().to_string(),
        stateful_mode: cfg.stateful_mode.name().to_string(),
        pool_recycled,
        pool_misses,
        delivered: digests.len() as u64,
        ooo: state.ooo,
        flushed: flushed_mfs.len() as u64,
        late: mstats.late_drops,
        dup: mstats.dup_drops,
        shed: d.shed_packets,
        inline: d.inline_packets,
        desplits,
        resplits,
        redispatched: d.redispatched,
        fault_drops,
        residue: mstats.residue,
        restarts: sup.restarts,
        heartbeat_misses: sup.heartbeat_misses,
        recovery_ns: sup.recovery_ns,
        merger_restarts: sup.merger_restarts,
        merger_recovery_ns: sup.merger_recovery_ns,
        snapshot_bytes: dur.snapshot_bytes,
        restore_replayed_offers: dur.replayed,
        replicated_transitions: state.replicated,
        reconciled_dups: if scr { mstats.dup_drops } else { 0 },
        lane_depths: depths
            .iter()
            .map(|d| d.load(Ordering::Relaxed) as u64)
            .collect(),
    };
    Ok(RunOutput {
        digests,
        elapsed: start.elapsed(),
        stateful_serial_ns: state.serial_ns,
        flushed_mfs,
        workers_died,
        merger_deaths,
        checkpoints: dur.checkpoints,
        workers_respawned,
        workers_abandoned,
        recovery: sup.rates(start, dispatch_done, n as u64),
        sheds: d.sheds,
        inline_batches: d.inline_batches,
        block_fallbacks: d.block_fallbacks,
        backpressure_events: d.backpressure_events,
        telemetry,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{MergerKill, MergerStall, WorkerKill};
    use crate::packet::generate_frames;

    fn run(n: usize, payload: usize, cfg: RuntimeConfig) {
        let frames = generate_frames(n, payload);
        let serial = process_serial(&frames);
        let parallel = process_parallel(&frames, &cfg).unwrap();
        assert_eq!(
            serial.digests, parallel.digests,
            "order or content diverged with {cfg:?}"
        );
        assert!(
            parallel.telemetry.lane_depths.iter().all(|&d| d == 0),
            "stale end-of-run depths {:?} with {cfg:?}",
            parallel.telemetry.lane_depths
        );
    }

    #[test]
    fn two_workers_preserve_order_and_content() {
        run(2_000, 128, RuntimeConfig::default());
    }

    #[test]
    fn many_workers_tiny_batches() {
        run(
            1_000,
            64,
            RuntimeConfig {
                workers: 8,
                batch_size: 1,
                queue_depth: 4,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn batch_larger_than_input() {
        run(
            10,
            32,
            RuntimeConfig {
                workers: 3,
                batch_size: 1_000,
                queue_depth: 2,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn single_worker_degenerates_to_serial() {
        run(
            500,
            16,
            RuntimeConfig {
                workers: 1,
                batch_size: 64,
                queue_depth: 2,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn empty_input() {
        let out = process_parallel(&[], &RuntimeConfig::default()).unwrap();
        assert!(out.digests.is_empty());
        assert_eq!(out.telemetry.ooo, 0);
    }

    #[test]
    fn exact_batch_multiple() {
        run(
            512,
            8,
            RuntimeConfig {
                workers: 2,
                batch_size: 256,
                queue_depth: 2,
                ..RuntimeConfig::default()
            },
        );
    }

    #[test]
    fn small_batches_cause_more_merge_input_disorder_than_large() {
        // The real-thread analogue of Figure 7: with more lanes than one
        // and tiny batches, the merger input interleaves heavily; with one
        // giant batch everything arrives in order. This is statistical on
        // real threads, so only the extreme ends are asserted.
        let frames = generate_frames(20_000, 64);
        let small = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 4,
                batch_size: 1,
                queue_depth: 64,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        let large = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 4,
                batch_size: 20_000,
                queue_depth: 64,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(large.telemetry.ooo, 0, "single batch cannot interleave");
        assert!(
            small.telemetry.ooo > 0,
            "1-packet batches over 4 threads should interleave at least once"
        );
    }

    #[test]
    fn stress_repeated_runs_stay_correct() {
        let frames = generate_frames(3_000, 32);
        let reference = process_serial(&frames);
        for workers in [2, 3, 5] {
            for batch in [7, 97, 1024] {
                let out = process_parallel(
                    &frames,
                    &RuntimeConfig {
                        workers,
                        batch_size: batch,
                        queue_depth: 3,
                        ..RuntimeConfig::default()
                    },
                )
                .unwrap();
                assert_eq!(out.digests, reference.digests, "w={workers} b={batch}");
            }
        }
    }

    #[test]
    fn faultless_fault_path_is_exact() {
        // The faulty entry point with an inert mix must behave like the
        // plain pipeline: exact digests, no degradation counters.
        let frames = generate_frames(1_500, 64);
        let serial = process_serial(&frames);
        let out =
            process_parallel_faulty(&frames, &RuntimeConfig::default(), &RuntimeFaults::none())
                .unwrap();
        assert_eq!(out.digests, serial.digests);
        assert!(out.flushed_mfs.is_empty());
        assert_eq!(out.telemetry.fault_drops, 0);
        assert_eq!(out.workers_died, 0);
        assert_eq!(out.telemetry.residue, 0);
        assert_eq!(out.telemetry.shed, 0);
        assert_eq!(out.backpressure_events, 0);
    }

    #[test]
    fn killed_worker_does_not_panic_or_wedge_the_run() {
        let frames = generate_frames(4_000, 32);
        let mut faults = RuntimeFaults::none();
        faults.kill = Some(WorkerKill {
            worker: 1,
            after_batches: 3,
            incarnation: 0,
        });
        faults.flush_timeout_ms = Some(50);
        let out = process_parallel_faulty(
            &frames,
            &RuntimeConfig {
                workers: 3,
                batch_size: 64,
                queue_depth: 4,
                ..RuntimeConfig::default()
            },
            &faults,
        )
        .unwrap();
        assert_eq!(out.workers_died, 1);
        assert!(!out.digests.is_empty());
        assert_eq!(out.telemetry.residue, 0, "end flush must empty the merger");
        // The dead lane's counter must not report phantom load.
        assert!(
            out.telemetry.lane_depths.iter().all(|&d| d == 0),
            "stale depth after worker death: {:?}",
            out.telemetry.lane_depths
        );
        // Output must be a strictly ordered, duplicate-free subsequence.
        for pair in out.digests.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn zero_workers_rejected() {
        let cfg = RuntimeConfig {
            workers: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("workers"));
    }

    #[test]
    fn zero_batch_size_rejected() {
        let cfg = RuntimeConfig {
            batch_size: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("batch_size"));
    }

    #[test]
    fn zero_queue_depth_rejected() {
        let cfg = RuntimeConfig {
            queue_depth: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("queue_depth"));
    }

    #[test]
    fn bad_merger_depth_rejected() {
        // Zero and non-power-of-two both fail validation.
        for depth in [0usize, 3, 1000, 4097] {
            let cfg = RuntimeConfig {
                merger_depth: depth,
                ..RuntimeConfig::default()
            };
            let err = process_parallel(&[], &cfg).unwrap_err();
            assert_eq!(err.field(), Some("merger_depth"), "depth {depth}");
        }
        for depth in [1usize, 2, 1024, 65_536] {
            let cfg = RuntimeConfig {
                merger_depth: depth,
                ..RuntimeConfig::default()
            };
            assert!(cfg.validate().is_ok(), "depth {depth}");
        }
    }

    #[test]
    fn tiny_merger_depth_still_completes() {
        // merger_depth 1 forces maximal producer-side waiting — the
        // deepest spin-then-park coverage the ring path can get.
        let frames = generate_frames(600, 32);
        let serial = process_serial(&frames);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 3,
                batch_size: 16,
                queue_depth: 2,
                merger_depth: 1,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.digests, serial.digests);
    }

    #[test]
    fn out_of_range_watermark_rejected() {
        for w in [0, 9] {
            let cfg = RuntimeConfig {
                queue_depth: 8,
                high_watermark: Some(w),
                ..RuntimeConfig::default()
            };
            let err = process_parallel(&[], &cfg).unwrap_err();
            assert_eq!(err.field(), Some("high_watermark"), "watermark {w}");
        }
        // In-range watermarks pass validation.
        let cfg = RuntimeConfig {
            queue_depth: 8,
            high_watermark: Some(8),
            ..RuntimeConfig::default()
        };
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn inline_policy_keeps_output_exact() {
        // A watermark of 1 engages the policy on nearly every send; with
        // `Inline` every engaged batch is processed on the dispatcher
        // thread and the output must still equal the serial run exactly.
        let frames = generate_frames(2_000, 64);
        let serial = process_serial(&frames);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 2,
                batch_size: 32,
                queue_depth: 2,
                backpressure: BackpressurePolicy::Inline,
                high_watermark: Some(1),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.digests, serial.digests);
        assert!(out.inline_batches > 0, "watermark 1 must engage inline");
        assert_eq!(out.telemetry.shed, 0);
    }

    #[test]
    fn drop_tail_with_zero_budget_blocks_instead() {
        // Budget 0 can never shed, so every engagement falls back to a
        // blocking send: output stays exact and fallbacks are counted.
        let frames = generate_frames(1_000, 64);
        let serial = process_serial(&frames);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 2,
                batch_size: 16,
                queue_depth: 1,
                backpressure: BackpressurePolicy::DropTail { budget: 0 },
                high_watermark: Some(1),
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.digests, serial.digests);
        assert!(out.block_fallbacks > 0);
        assert_eq!(out.telemetry.shed, 0);
    }

    #[test]
    fn every_policy_matches_serial_output() {
        // The tentpole invariant: whatever the steering policy, the
        // delivered stream on a benign run equals the serial run exactly,
        // and non-reordering policies see zero merge disturbance.
        let frames = generate_frames(2_000, 64);
        let serial = process_serial(&frames);
        for policy in PolicyKind::ALL {
            let out = process_parallel(
                &frames,
                &RuntimeConfig {
                    workers: 4,
                    batch_size: 32,
                    queue_depth: 4,
                    policy,
                    ..RuntimeConfig::default()
                },
            )
            .unwrap();
            assert_eq!(out.digests, serial.digests, "{policy} diverged");
            assert_eq!(out.telemetry.policy, policy.name());
            assert_eq!(out.telemetry.delivered, frames.len() as u64);
            if !policy.reorders() {
                assert_eq!(out.telemetry.ooo, 0, "{policy} must not reorder");
                assert!(out.flushed_mfs.is_empty(), "{policy} must not flush");
            }
        }
    }

    #[test]
    fn falcon_chain_survives_worker_death() {
        // Killing any link of the stage chain must degrade, not wedge:
        // upstream finishes locally (tail death) or the dispatcher goes
        // inline (head death). Order survives either way.
        let frames = generate_frames(3_000, 32);
        for dead_worker in 0..3 {
            let mut faults = RuntimeFaults::none();
            faults.kill = Some(WorkerKill {
                worker: dead_worker,
                after_batches: 2,
                incarnation: 0,
            });
            faults.flush_timeout_ms = Some(50);
            let out = process_parallel_faulty(
                &frames,
                &RuntimeConfig {
                    workers: 3,
                    batch_size: 64,
                    queue_depth: 4,
                    policy: PolicyKind::FalconFunc,
                    ..RuntimeConfig::default()
                },
                &faults,
            )
            .unwrap();
            assert_eq!(out.workers_died, 1, "worker {dead_worker}");
            assert!(!out.digests.is_empty());
            for pair in out.digests.windows(2) {
                assert!(
                    pair[0].seq < pair[1].seq,
                    "disorder after killing chain worker {dead_worker}"
                );
            }
        }
    }

    #[test]
    fn chain_mode_uses_one_entry_lane() {
        // FALCON runs report one dispatcher lane regardless of the
        // worker count — stages consume the cores instead.
        let frames = generate_frames(500, 32);
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 4,
                policy: PolicyKind::FalconDev,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.telemetry.lane_depths.len(), 1);
        let fanout = process_parallel(
            &frames,
            &RuntimeConfig {
                workers: 4,
                policy: PolicyKind::Rps,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(fanout.telemetry.lane_depths.len(), 4);
    }

    #[test]
    fn topology_of_every_policy_and_worker_count() {
        use PolicyKind::*;
        // Per policy, at workers 1..=4: (lanes, depth, stage groups).
        type Row = (usize, usize, &'static [usize]);
        let fan_out = |w: usize| -> Row { (w, 1, &[3]) };
        let table: [(PolicyKind, [Row; 4]); 6] = [
            (Mflow, [1, 2, 3, 4].map(fan_out)),
            (Rps, [1, 2, 3, 4].map(fan_out)),
            (Rss, [1, 2, 3, 4].map(fan_out)),
            (Rfs, [1, 2, 3, 4].map(fan_out)),
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
            let chained = matches!(kind, FalconDev | FalconFunc);
            for (workers, (lanes, depth, groups)) in (1..).zip(rows) {
                for supervised in [false, true] {
                    let topo = Topology::new(kind.stage_groups(), workers, supervised);
                    let want = Topology {
                        lanes,
                        depth,
                        groups: groups.to_vec(),
                        // Keyed on the policy, not the shape: both
                        // families are 1 x 1 at one worker.
                        inline_orphans: chained || supervised,
                    };
                    assert_eq!(topo, want, "{kind} w={workers} supervised={supervised}");
                    assert_eq!(topo.threads(), lanes * depth);
                    assert_eq!(topo.threads(), kind.worker_slots(workers), "{kind}");
                }
            }
        }
    }

    /// Supervision knobs shared by the merger failure-domain tests.
    fn merger_test_cfg() -> RuntimeConfig {
        RuntimeConfig {
            workers: 3,
            batch_size: 32,
            queue_depth: 4,
            heartbeat_interval_ms: Some(25),
            restart_budget: 8,
            restart_backoff_ms: 1,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn zero_checkpoint_interval_rejected() {
        let cfg = RuntimeConfig {
            checkpoint_every: 0,
            ..RuntimeConfig::default()
        };
        let err = process_parallel(&[], &cfg).unwrap_err();
        assert_eq!(err.field(), Some("checkpoint_every"));
    }

    #[test]
    fn benign_supervised_run_checkpoints_but_never_replays() {
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let cfg = RuntimeConfig {
            checkpoint_every: 256,
            ..merger_test_cfg()
        };
        let out = process_parallel(&frames, &cfg).unwrap();
        assert_eq!(out.digests, serial.digests);
        assert_eq!(out.merger_deaths, 0);
        assert_eq!(out.telemetry.merger_restarts, 0);
        assert_eq!(out.telemetry.restore_replayed_offers, 0);
        assert!(out.checkpoints > 0, "armed run must checkpoint");
        assert!(out.telemetry.snapshot_bytes > 0);
        // An interval the 32-packet runs never land on: the run that
        // crosses each multiple takes the checkpoint, at most once.
        let cfg = RuntimeConfig {
            checkpoint_every: 100,
            ..merger_test_cfg()
        };
        let out = process_parallel(&frames, &cfg).unwrap();
        assert_eq!(out.digests, serial.digests);
        assert!(
            0 < out.checkpoints && out.checkpoints <= frames.len() as u64 / 100,
            "{} checkpoints over {} offers",
            out.checkpoints,
            frames.len()
        );
        assert_eq!(out.telemetry.merger_restarts, 0);
        assert_eq!(out.telemetry.restore_replayed_offers, 0);
    }

    #[test]
    fn killed_merger_respawns_from_checkpoint_with_exact_output() {
        let frames = generate_frames(3_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kill = Some(MergerKill {
            after_offers: 100,
            incarnation: 0,
        });
        let out = process_parallel_faulty(&frames, &merger_test_cfg(), &faults).unwrap();
        assert_eq!(
            out.digests, serial.digests,
            "recovered stream must be byte-identical"
        );
        assert_eq!(out.merger_deaths, 1);
        assert!(out.telemetry.merger_restarts >= 1);
        // The fatal offer was journaled before the panic, so the
        // successor replays at least the whole first window.
        assert!(
            out.telemetry.restore_replayed_offers >= 100,
            "replayed only {}",
            out.telemetry.restore_replayed_offers
        );
        assert_eq!(out.telemetry.residue, 0);
    }

    #[test]
    fn merger_kills_on_successive_incarnations_all_heal() {
        let frames = generate_frames(3_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![
            MergerKill {
                after_offers: 64,
                incarnation: 0,
            },
            MergerKill {
                after_offers: 512,
                incarnation: 1,
            },
        ];
        let cfg = RuntimeConfig {
            checkpoint_every: 128,
            ..merger_test_cfg()
        };
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_eq!(out.digests, serial.digests);
        assert_eq!(out.merger_deaths, 2);
        assert_eq!(out.telemetry.residue, 0);
    }

    #[test]
    fn unsupervised_merger_kill_degrades_to_dispatcher_merge() {
        // No supervision at all: the injected fault still arms the WAL
        // and the watchdog, so the death degrades to the dispatcher
        // journaling the backlog and final assembly performing the
        // serial merge — never MergerPoisoned, never a wedge.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kill = Some(MergerKill {
            after_offers: 50,
            incarnation: 0,
        });
        let cfg = RuntimeConfig {
            workers: 3,
            batch_size: 32,
            queue_depth: 4,
            ..RuntimeConfig::default()
        };
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_eq!(out.digests, serial.digests);
        assert_eq!(out.merger_deaths, 1);
        assert_eq!(
            out.telemetry.merger_restarts, 0,
            "unsupervised runs must not respawn"
        );
        assert!(
            out.telemetry.restore_replayed_offers >= 50,
            "the journaled stream must be replayed serially"
        );
    }

    #[test]
    fn exhausted_budget_pumps_instead_of_respawning() {
        // Heartbeats on but zero respawn budget: the death is detected,
        // respawn is off the table, and the watchdog must degrade to
        // pumping the transport so producers never block forever.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kill = Some(MergerKill {
            after_offers: 50,
            incarnation: 0,
        });
        let cfg = RuntimeConfig {
            restart_budget: 0,
            ..merger_test_cfg()
        };
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_eq!(out.digests, serial.digests);
        assert_eq!(out.merger_deaths, 1);
        assert_eq!(out.telemetry.merger_restarts, 0);
    }

    #[test]
    fn stalled_merger_is_superseded_without_a_death() {
        // A wedge (no heartbeat movement with results queued) is healed
        // by generation supersession: the stuck incarnation exits
        // cleanly at its next gen check — the wedged offer is already
        // journaled — and the successor replays it. No panic anywhere.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_stall = Some(MergerStall {
            after_offers: 50,
            ms: 300,
        });
        let cfg = RuntimeConfig {
            heartbeat_interval_ms: Some(20),
            ..merger_test_cfg()
        };
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_eq!(out.digests, serial.digests);
        assert_eq!(out.merger_deaths, 0, "a supersede is not a death");
        assert!(
            out.telemetry.merger_restarts >= 1,
            "the wedge must be healed by a respawn"
        );
        assert!(out.telemetry.heartbeat_misses >= 1);
    }

    #[test]
    fn merger_failure_domain_covers_every_policy() {
        // The respawn path must preserve byte-identical delivery under
        // every steering topology, including the chains whose teardown
        // overlaps merger supervision.
        let frames = generate_frames(2_000, 32);
        let serial = process_serial(&frames);
        let mut faults = RuntimeFaults::none();
        faults.merger_kill = Some(MergerKill {
            after_offers: 80,
            incarnation: 0,
        });
        for policy in PolicyKind::ALL {
            let cfg = RuntimeConfig {
                policy,
                checkpoint_every: 64,
                ..merger_test_cfg()
            };
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            assert_eq!(out.digests, serial.digests, "{policy}");
            // Passthrough policies bypass the merge engine entirely
            // (no counter, no WAL), so the kill never fires there.
            if out.merger_deaths > 0 {
                assert!(out.telemetry.merger_restarts >= 1, "{policy}");
            }
            assert_eq!(out.telemetry.residue, 0, "{policy}");
        }
    }
}
