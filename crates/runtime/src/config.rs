//! What a run is asked for and what it reports: [`RuntimeConfig`] and
//! its validation, [`RunOutput`], and the serial baselines every parallel
//! run is compared with.
//!
//! # Stateful modes
//!
//! The per-packet *stateful* stage ([`crate::work::stateful_stage`],
//! [`RuntimeConfig::stateful_work`] rounds) can run in two places
//! ([`RuntimeConfig::stateful_mode`]):
//!
//! * **merge-before-tcp** (default, the paper's design) — the merger
//!   applies it to results as it emits them in order, like the paper's
//!   core 0 running TCP receive on what it merged: a single-core stage
//!   beside the lanes' stateless path.
//! * **scr** (state-compute replication) — every lane applies it to the
//!   packets it processes, and nothing is applied after the merge. The
//!   merger is the same merging counter either way: it orders runs by
//!   micro-flow id and rejects a redispatched copy whole, so each
//!   replicated transition is delivered exactly once. Because the stage
//!   is a pure function of the packet, both modes deliver byte-identical
//!   streams — the differential suite in `tests/` proves it across every
//!   policy and fault mix.

use std::time::{Duration, Instant};

use mflow::StatefulMode;
use mflow_error::MflowError;
use mflow_metrics::Telemetry;
use mflow_steering::PolicyKind;

use crate::packet::Frame;
use crate::work::{process_frames, stateful_stage, PacketResult};

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
    /// Process the batch on the dispatcher thread, as a copy with a tag
    /// of its own; the merge counter orders it by micro-flow id like any
    /// other run.
    Inline,
}

/// Parallel-pipeline parameters.
#[derive(Clone, Copy, Debug)]
pub struct RuntimeConfig {
    /// Worker (splitting-core) count.
    pub workers: usize,
    /// Micro-flow batch size in packets.
    pub batch_size: usize,
    /// Bounded ring depth between dispatcher and each worker (and between
    /// the stages of a chain), in micro-flows: a slot is one 40-byte
    /// descriptor. The default, 64, lets a dispatcher that shares its CPU
    /// with the workers fill a scheduling round's worth before it has to
    /// give the CPU away — on one CPU a call context-switches about
    /// frames ÷ (depth × batch × lanes) × 4 times — and at the benchmark's
    /// batch of 32 holds 2048 packets a lane, twice Linux's per-CPU
    /// `netdev_max_backlog`.
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
    /// Inert, like [`RuntimeConfig::transport`]: it sized the worker→merger
    /// rings, and there are none — tails merge their runs in place
    /// (`crate::merge`), so no merge queue can fill. Still validated (a
    /// nonzero power of two) because the frozen `benchmark/` crate reads
    /// it to size its ring-layer probes; it goes away with that crate's
    /// next change (see ROADMAP).
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
    /// Where the stateful stage runs: on the merger, serially, as it
    /// emits results in order (`MergeBeforeTcp`, the paper's design), or
    /// replicated on every lane, with nothing left for the merger to do
    /// but order the results (`StateComputeReplication`).
    pub stateful_mode: StatefulMode,
    /// Rounds of per-packet stateful work ([`crate::work::stateful_stage`]);
    /// 0 disables the stage (both modes then deliver the plain digests).
    pub stateful_work: u32,
    /// Merger checkpoint interval in accepted offers (packets): the
    /// micro-flow whose results take the offer count across a multiple of
    /// this folds the write-ahead delta log into a fresh `MergerState`
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
            queue_depth: 64,
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
    /// Busy time of the serial stage: the merge lock holders', timed once
    /// per merge pass (the runs one holder took at once) — heartbeat,
    /// journal, fault checks, the merging counter, checkpoints and, under
    /// merge-before-tcp, the stateful stage on what the pass emitted —
    /// plus flushes and replays. Untimed: the offer and the lock. So the
    /// benchmark's `pipeline.merger_serial_ns` (this per frame) counts the
    /// merge's bookkeeping round the engine as well as the engine, for
    /// two clock reads per pass rather than per run (EXPERIMENTS.md, "The
    /// merger pays for order"). This is the quantity state-compute
    /// replication exists to shrink, and unlike wall-clock it reads the
    /// same no matter how many host cores the worker threads actually
    /// share. (Zero for serial runs, which have no merge stage.)
    pub stateful_serial_ns: u64,
    /// The micro-flow IDs the merger flushed past instead of waiting
    /// forever, in both stateful modes (the `flushed` counter is this
    /// list's length) — mid-stream on the flush deadline, and at end of
    /// stream on every run: a packet that was computed is delivered or
    /// belongs to a micro-flow named here, never withheld.
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
