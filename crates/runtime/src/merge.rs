//! The merge side: the run a worker hands over, the ordering engine, the
//! crash-consistent merger state, and the merger failure domain.
//!
//! The merger is a **role, not a thread**: the paper's global merging
//! counter, advanced by whichever core finishes a micro-flow. A tail
//! worker, or the dispatcher's inline path, hands its finished run `{id,
//! tag, closed, results}` ([`MergedRun`]) to [`MergerShared::offer`],
//! which pushes it onto a short inbox and then *tries* the merge lock.
//! Whoever holds the lock takes every run the inbox holds, journals each
//! by move (when the write-ahead layer is armed) and applies it through
//! [`MergerState::apply`]: the one ordering engine ([`MergeCounter`]),
//! which orders every run — every policy, both stateful modes — by
//! micro-flow id alone, then the stateful stage on what the engine
//! emitted ([`RunPlan::merger_rounds`], 0 under SCR), then the
//! checkpoint. It releases the lock and looks at the inbox once more, so
//! no run is stranded; a run offered while the lock is held is merged by
//! the holder. No offer ever waits for the lock, so nothing upstream of
//! the merge can block on it. The emptied results `Vec`s come back to
//! the offerers for their next runs ([`MergeBlock::recycled`]).
//!
//! What the merge does about faults:
//!
//! * **Loss** — a micro-flow that never completes stalls the merging
//!   counter; the dispatcher's supervision pass ([`MergerShared::tend`])
//!   flushes past it once no run has been merged for
//!   [`RuntimeFaults::flush_timeout_ms`], and final assembly again at end
//!   of stream, releasing every parked successor. Skipped IDs are
//!   reported in [`crate::RunOutput::flushed_mfs`].
//! * **Duplication / late arrival** — every copy of a micro-flow carries
//!   a tag of its own ([`Run::tag`]); the first to arrive is delivered,
//!   the others are rejected and reported in the
//!   [`mflow_metrics::Telemetry`] `dup` / `late` counters.
//! * **Merger death or wedge** — the failure domain without a thread of
//!   its own. An *incarnation* is one generation of the live state
//!   ([`Live`]). A *death* is a panic inside the critical section, caught
//!   there, so the thread that held the lock survives; every run was
//!   journaled before it was processed ([`MergerDurable`]). A *respawn*
//!   is the next lock holder restoring from the last checkpoint plus the
//!   delta log, once the supervisor's merger slot allows it; until then
//!   holders park what they take in the block's backlog, to be merged as
//!   fresh runs by the successor or by final assembly. A *wedge* is a
//!   holder that has made no progress inside the critical section for a
//!   whole heartbeat deadline; it is superseded by generation, and
//!   drops its live state at its next check.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError, TryLockError};
use std::thread;
use std::time::{Duration, Instant};

use mflow::MergeCounter;

use crate::config::RuntimeConfig;
use crate::crew;
use crate::faults::{FaultEvent, RuntimeFaults};
use crate::supervise::{HeartbeatBoard, Supervisor};
use crate::work::{stateful_stage, PacketResult};
use crate::worker::RunPlan;

/// One micro-flow's items in flight between threads.
pub(crate) struct Run<T> {
    pub(crate) id: u64,
    /// Which copy of the micro-flow this is ([`mflow::MfTag::lane`]): 0
    /// for the primary send, a fresh number for every other copy.
    pub(crate) tag: usize,
    /// The final item closes the micro-flow ([`mflow::MfTag::last`]).
    /// False only when the closing packet was a planned drop.
    pub(crate) closed: bool,
    pub(crate) items: Vec<T>,
}

impl<T> Run<T> {
    /// The same micro-flow, carrying what `f` makes of its items.
    pub(crate) fn with_items<U>(self, f: impl FnOnce(Vec<T>) -> Vec<U>) -> Run<U> {
        Run {
            id: self.id,
            tag: self.tag,
            closed: self.closed,
            items: f(self.items),
        }
    }
}

/// A processed micro-flow, as handed to the merge: the unit of the merge
/// engines' bookkeeping and of the WAL.
pub(crate) type MergedRun = Run<PacketResult>;

/// Everything the merger mutates while the stream is in flight, as one
/// cloneable snapshot object: the merging counter (its reorder window of
/// parked runs, counter, flushed ids) plus the scalar counters the
/// merger owns. Restoring a [`MergerState`] and replaying the delta log
/// reproduces the dead incarnation's trajectory exactly, stateful stage
/// included: a replay re-emits, and stages, only what `restore` dropped.
pub(crate) struct MergerState {
    pub(crate) engine: MergeCounter<PacketResult>,
    /// [`RunPlan::merger_rounds`], applied to every result emitted.
    rounds: u32,
    /// Highest packet seq seen so far, for the `ooo` arrival counter.
    max_seen: Option<u64>,
    /// Arrivals that carried a seq below `max_seen`.
    pub(crate) ooo: u64,
    /// Busy nanoseconds of the serial merge stage, stateful stage included:
    /// every merge pass, flush, replay and final-assembly pass.
    pub(crate) serial_ns: u64,
    /// Offers applied so far — the WAL's logical clock: checkpoint
    /// boundaries and injected merger faults are expressed in it. Every
    /// arrival is one, so under SCR it is also the replicated
    /// transitions the lanes computed.
    pub(crate) offers: u64,
}

impl Clone for MergerState {
    fn clone(&self) -> Self {
        let mut copy = Self::new(self.rounds);
        copy.clone_from(self);
        copy
    }

    /// Into this state's own storage ([`MergeCounter`]'s `clone_from`):
    /// how a checkpoint refreshes the snapshot without allocating.
    fn clone_from(&mut self, source: &Self) {
        let engine = std::mem::take(&mut self.engine);
        *self = Self { engine, ..*source };
        self.engine.clone_from(&source.engine);
    }
}

impl MergerState {
    fn new(rounds: u32) -> Self {
        Self {
            engine: MergeCounter::new(),
            rounds,
            max_seen: None,
            ooo: 0,
            serial_ns: 0,
            offers: 0,
        }
    }

    /// Applies one received run: counters (all in packets), then the
    /// engine, once. Identical whether the run arrives live or replays
    /// from the delta log. Untimed: its callers time whole passes.
    pub(crate) fn apply(&mut self, run: &MergedRun, out: &mut Vec<PacketResult>) {
        let items = &run.items;
        debug_assert!(
            items.windows(2).all(|w| w[0].seq <= w[1].seq),
            "a run's seqs ascend"
        );
        self.offers += items.len() as u64;
        // A run ascends, so the items behind `max_seen` are a prefix, and
        // once one is not behind the run's last seq is the new maximum.
        let behind = self
            .max_seen
            .map_or(0, |max| items.partition_point(|r| r.seq < max));
        self.ooo += behind as u64;
        if behind < items.len() {
            self.max_seen = items.last().map(|r| r.seq);
        }
        let emitted = out.len();
        self.engine
            .offer_run(run.id, run.tag, run.closed, items.iter().copied(), out);
        self.stage(&mut out[emitted..]);
    }

    /// Flushes the single most-stalled head (the flush-deadline path).
    fn flush_one(&mut self, out: &mut Vec<PacketResult>) {
        let t = Instant::now();
        let emitted = out.len();
        self.engine.flush_one(out);
        self.stage(&mut out[emitted..]);
        self.serial_ns += t.elapsed().as_nanos() as u64;
    }

    /// End-of-stream flush of everything still parked.
    pub(crate) fn flush_stalled(&mut self, out: &mut Vec<PacketResult>) {
        let t = Instant::now();
        let emitted = out.len();
        self.engine.flush_stalled(out);
        self.stage(&mut out[emitted..]);
        self.serial_ns += t.elapsed().as_nanos() as u64;
    }

    /// The stateful stage over results the engine just emitted, in order.
    fn stage(&self, emitted: &mut [PacketResult]) {
        if self.rounds > 0 {
            for r in emitted {
                *r = stateful_stage(*r, self.rounds);
            }
        }
    }

    /// Approximate heap footprint of one snapshot, for the
    /// `snapshot_bytes` telemetry counter.
    fn approx_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64 + self.engine.approx_bytes()
    }
}

/// The crash-consistent half of the merger failure domain: the last
/// checkpoint (a [`MergerState`] snapshot plus the length of delivered
/// output it vouches for), the write-ahead delta log of runs accepted
/// since, and the delivered output itself — which exists exactly once,
/// here. The live incarnation appends to `out` in place; a successor —
/// or final assembly — truncates it back to `out_mark`, clones the
/// snapshot and replays the delta, so a crash loses nothing: every run
/// is journaled *before* the (possibly fatal) processing step.
pub(crate) struct MergerDurable {
    snapshot: MergerState,
    /// Delivered results. `out[..out_mark]` is what `snapshot` stands
    /// for; anything beyond is the live incarnation's work since, which
    /// `delta` reproduces.
    pub(crate) out: Vec<PacketResult>,
    out_mark: usize,
    /// Runs merged since the last checkpoint, in merge order.
    delta: Vec<MergedRun>,
    pub(crate) snapshot_bytes: u64,
    pub(crate) checkpoints: u64,
    pub(crate) restores: u64,
    /// Packets replayed from `delta` by restores.
    pub(crate) replayed: u64,
}

impl MergerDurable {
    /// Rebuilds the live state from the block: drops what a dead
    /// predecessor delivered past the mark, then replays the delta on a
    /// clone of the snapshot. Returns the state and the packets replayed.
    pub(crate) fn restore(&mut self) -> (MergerState, u64) {
        self.out.truncate(self.out_mark);
        let mut state = self.snapshot.clone();
        let mut replayed = 0;
        let t = Instant::now();
        for run in &self.delta {
            replayed += run.items.len() as u64;
            state.apply(run, &mut self.out);
        }
        state.serial_ns += t.elapsed().as_nanos() as u64;
        (state, replayed)
    }

    /// Makes `state` the snapshot, copied into the snapshot's own storage,
    /// and everything delivered so far the prefix it vouches for: a length
    /// is recorded, no output is copied. The delta's results `Vec`s go to
    /// `recycled`.
    fn fold(&mut self, state: &MergerState, recycled: &mut Vec<Vec<PacketResult>>) {
        self.snapshot.clone_from(state);
        self.out_mark = self.out.len();
        for run in self.delta.drain(..) {
            recycle(recycled, run.items);
        }
    }
}

/// How many emptied results `Vec`s the merge block keeps for offerers:
/// a checkpoint window's worth at the benchmark's batch (1024 offers of
/// 32), so a checkpoint's journal comes back whole.
const RECYCLED_CAP: usize = 32;

fn recycle(recycled: &mut Vec<Vec<PacketResult>>, mut items: Vec<PacketResult>) {
    if recycled.len() < RECYCLED_CAP && items.capacity() > 0 {
        items.clear();
        recycled.push(items);
    }
}

/// The live incarnation: one generation of the merger state.
struct Live {
    state: MergerState,
    /// Its number in the failure domain: 0, then one per respawn.
    incarnation: u64,
    /// [`MergerShared::gen`] when it was restored; a bump supersedes it.
    gen: u64,
}

/// Everything behind the merge lock.
pub(crate) struct MergeBlock {
    live: Option<Live>,
    dur: MergerDurable,
    /// Runs taken from the inbox and not merged yet: the pass in hand,
    /// and, while no incarnation is live, everything offered since.
    backlog: VecDeque<MergedRun>,
    /// Emptied results `Vec`s, handed back by [`MergerShared::offer`] for
    /// the offerer's next run: a merged run's once it is applied (or,
    /// journaled, once a checkpoint folds it).
    recycled: Vec<Vec<PacketResult>>,
}

/// The watchdog's view of the merger's heartbeat, kept by the dispatcher's
/// passes ([`MergerShared::tend`], [`MergerShared::watch`]).
struct Watch {
    /// The merger slot's epoch as last seen, and since when.
    epoch: u64,
    since: Instant,
    /// Wedges declared (folded into `Telemetry::heartbeat_misses`).
    misses: u64,
}

impl MergeBlock {
    fn new(frames: usize, rounds: u32) -> Self {
        Self {
            live: None,
            dur: MergerDurable {
                snapshot: MergerState::new(rounds),
                out: Vec::with_capacity(frames),
                out_mark: 0,
                delta: Vec::new(),
                snapshot_bytes: 0,
                checkpoints: 0,
                restores: 0,
                replayed: 0,
            },
            backlog: VecDeque::new(),
            recycled: Vec::new(),
        }
    }
}

/// The merge role's shared state, one per call: the inbox, the merge
/// lock and the failure domain's signals, plus the read-only context a
/// lock holder needs.
pub(crate) struct MergerShared<'a> {
    /// Runs offered while someone else held the merge lock.
    inbox: Mutex<Vec<MergedRun>>,
    block: Mutex<MergeBlock>,
    /// Who is inside the critical section: a worker's slot, the merger's
    /// own slot for the dispatcher, or [`FREE`]. The wedge verdict's
    /// witness that the merger heartbeat is stale *because* of a holder,
    /// and the worker watchdog's sign that a worker's stall is the merger
    /// domain's ([`Self::holds`]).
    holder: AtomicUsize,
    /// Incarnation generation: bumped by the watchdog to supersede a
    /// wedged incarnation, which drops its live state at its next check.
    gen: AtomicU64,
    /// No incarnation may be live: one died or was superseded, and the
    /// supervisor has not allowed its successor yet.
    down: AtomicBool,
    /// The number the next restored incarnation takes.
    incarnation: AtomicU64,
    /// Panics caught inside the critical section.
    deaths: AtomicUsize,
    watch: Mutex<Watch>,
    /// [`crate::RuntimeConfig::heartbeat_interval_ms`]: how long a holder
    /// may stay inside without progress before it counts as wedged.
    deadline: Option<Duration>,
    faults: &'a RuntimeFaults,
    beats: &'a HeartbeatBoard,
    /// The merger's heartbeat and supervision slot.
    slot: usize,
    /// `flush_timeout`, `wal_on`, `supervised` and `merger_rounds`.
    plan: &'a RunPlan,
    checkpoint_every: u64,
}

/// How often a teardown wait runs a supervision pass
/// ([`MergerShared::tend`]) while what it waits for is still running. A
/// wait on a job ([`crew::JoinHandle::wait_finished`]) ends the moment
/// the job does.
const TEND_TICK: Duration = Duration::from_micros(50);

/// [`MergerShared::holder`] while nobody is inside.
const FREE: usize = usize::MAX;

impl<'a> MergerShared<'a> {
    /// `frames` is the length of the call's input, which bounds what can be
    /// delivered: the delivered buffer is allocated once, here.
    pub(crate) fn new(
        frames: usize,
        cfg: &RuntimeConfig,
        plan: &'a RunPlan,
        faults: &'a RuntimeFaults,
        beats: &'a HeartbeatBoard,
        slot: usize,
        start: Instant,
    ) -> Self {
        Self {
            inbox: Mutex::new(Vec::new()),
            block: Mutex::new(MergeBlock::new(frames, plan.merger_rounds)),
            holder: AtomicUsize::new(FREE),
            gen: AtomicU64::new(0),
            down: AtomicBool::new(false),
            incarnation: AtomicU64::new(0),
            deaths: AtomicUsize::new(0),
            watch: Mutex::new(Watch {
                epoch: 0,
                since: start,
                misses: 0,
            }),
            deadline: cfg.heartbeat_interval_ms.map(Duration::from_millis),
            faults,
            beats,
            slot,
            plan,
            checkpoint_every: cfg.checkpoint_every,
        }
    }

    /// Panics caught inside the critical section so far.
    pub(crate) fn deaths(&self) -> usize {
        self.deaths.load(Ordering::Relaxed)
    }

    /// Whether worker `slot` is inside the merge's critical section right
    /// now. A holder can spend a while there on the merger domain's
    /// business — merging what others offered, a restore, the report of
    /// a caught death — with its own lane backing up, and none of that is
    /// a worker stall.
    pub(crate) fn holds(&self, slot: usize) -> bool {
        self.holder.load(Ordering::Acquire) == slot
    }

    /// Locks the inbox. Nothing that can panic runs under it, so poison
    /// carries no information.
    fn inbox(&self) -> MutexGuard<'_, Vec<MergedRun>> {
        self.inbox.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The merge lock, if nobody holds it. Panics inside the critical
    /// section are caught there, so poison carries no information.
    fn try_block(&self) -> Option<MutexGuard<'_, MergeBlock>> {
        match self.block.try_lock() {
            Ok(block) => Some(block),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Hands in one finished run from worker `worker` (`None`: the
    /// dispatcher) and never waits: merged here when the merge lock is
    /// free, else left in the inbox for the holder. Returns an emptied
    /// results `Vec` for the caller's next run, when this caller held the
    /// lock and the block had one.
    pub(crate) fn offer(&self, run: MergedRun, worker: Option<usize>) -> Option<Vec<PacketResult>> {
        if let Some(mut block) = self.try_block() {
            block.backlog.push_back(run);
            return self.hold(block, worker);
        }
        self.inbox().push(run);
        // The holder may have let go between the two looks.
        self.try_block().and_then(|block| self.hold(block, worker))
    }

    /// The lock holder's loop: merge the backlog, take what the inbox
    /// gathered meanwhile, and let go only with the inbox locked and
    /// empty — an offer that finds the block held has pushed its run
    /// before that check, or finds the block free after it.
    fn hold(
        &self,
        mut block: MutexGuard<'_, MergeBlock>,
        worker: Option<usize>,
    ) -> Option<Vec<PacketResult>> {
        let mut spare = None;
        loop {
            if !block.backlog.is_empty() {
                self.critical(&mut block, worker, |b| self.merge(b));
            }
            spare = spare.or_else(|| block.recycled.pop());
            let mut inbox = self.inbox();
            if inbox.is_empty() {
                drop(block);
                return spare;
            }
            block.backlog.extend(inbox.drain(..));
        }
    }

    /// Runs `f` as the critical section on behalf of `worker` (`None`:
    /// the dispatcher): heartbeat on entry, and a panic inside is a
    /// merger death — the live state goes, the durable block (consistent
    /// at every instruction boundary, the journal written before every
    /// step that can fail) and the thread stay.
    fn critical(
        &self,
        block: &mut MergeBlock,
        worker: Option<usize>,
        f: impl FnOnce(&mut MergeBlock),
    ) {
        // Heartbeat before `holder`, so a watchdog that sees a holder sees
        // this entry's epoch too.
        self.beats.bump(self.slot);
        self.holder
            .store(worker.unwrap_or(self.slot), Ordering::Release);
        if catch_unwind(AssertUnwindSafe(|| f(block))).is_err() {
            block.live = None;
            self.deaths.fetch_add(1, Ordering::Relaxed);
            self.down.store(true, Ordering::Release);
        }
        self.holder.store(FREE, Ordering::Release);
        if let Some(slot) = worker {
            // Back in its own domain: its lane's stall clock restarts.
            self.beats.bump(slot);
        }
    }

    /// Whether anyone is inside the critical section.
    fn held(&self) -> bool {
        self.holder.load(Ordering::Acquire) != FREE
    }

    /// The live incarnation, restored first when none is and the
    /// supervisor allows one (or this is incarnation 0); a superseded one
    /// is dropped on the way — a hand-over, not a death. `None` while the
    /// merger is down.
    fn live<'b>(
        &self,
        live: &'b mut Option<Live>,
        dur: &mut MergerDurable,
    ) -> Option<&'b mut Live> {
        // `gen` before `down`: the watchdog sets `down` before it bumps
        // `gen`, so a supersede seen here is seen as down.
        let gen = self.gen.load(Ordering::Acquire);
        if live.as_ref().is_some_and(|l| l.gen != gen) {
            *live = None;
        }
        if live.is_none() && !self.down.load(Ordering::Acquire) {
            let incarnation = self.incarnation.load(Ordering::Acquire);
            let (state, replayed) = dur.restore();
            if incarnation > 0 {
                dur.restores += 1;
                dur.replayed += replayed;
                self.faults
                    .note(FaultEvent::SnapshotRestore { incarnation });
            }
            *live = Some(Live {
                state,
                incarnation,
                gen,
            });
        }
        live.as_mut()
    }

    /// Merges the backlog, one clock pair into `serial_ns` per pass. Per
    /// run: heartbeat, journal, fault checks, apply from the journal,
    /// checkpoint. Stops, leaving the rest of the backlog, when no
    /// incarnation may be live.
    fn merge(&self, b: &mut MergeBlock) {
        let t = Instant::now();
        let MergeBlock {
            live,
            dur,
            backlog,
            recycled,
        } = b;
        while !backlog.is_empty() {
            let Some(live) = self.live(live, dur) else {
                return;
            };
            let run = backlog.pop_front().expect("checked non-empty");
            self.beats.bump(self.slot);
            // The WAL's clock stays in packets: this run takes it over the
            // offer numbers `(before, before + n]`.
            let (before, n) = (live.state.offers, run.items.len() as u64);
            // Journal by move before any processing: once in the WAL the
            // run survives this incarnation's death — including the
            // injected one just below — and it is applied from there, so
            // it is never copied.
            let mut unjournaled = None;
            let run: &MergedRun = if self.plan.wal_on {
                dur.delta.push(run);
                dur.delta.last().expect("journaled just above")
            } else {
                unjournaled.insert(run)
            };
            if self.faults.merger_kill_fires(live.incarnation, before + n) {
                let incarnation = live.incarnation;
                self.faults.note(FaultEvent::MergerDeath { incarnation });
                panic!("injected merger death (incarnation {incarnation})");
            }
            if let Some(stall) = self.faults.merger_stall_fires(before, n) {
                self.faults.note(FaultEvent::MergerStall {
                    offers: stall.after_offers,
                });
                // Wedged holding the merge lock: offers pile up in the
                // inbox, and nobody waits.
                thread::sleep(Duration::from_millis(stall.ms));
                if self.gen.load(Ordering::Acquire) != live.gen {
                    // Superseded while wedged. The run is journaled; the
                    // successor replays it.
                    continue;
                }
            }
            live.state.apply(run, &mut dur.out);
            let every = self.checkpoint_every;
            if self.plan.wal_on && before / every != live.state.offers / every {
                // The run that crosses a multiple of the interval takes
                // the checkpoint.
                dur.checkpoints += 1;
                dur.snapshot_bytes += live.state.approx_bytes();
                dur.fold(&live.state, recycled);
            }
            if let Some(run) = unjournaled {
                recycle(recycled, run.items);
            }
        }
        if let Some(live) = live {
            live.state.serial_ns += t.elapsed().as_nanos() as u64;
        }
    }

    /// How long the merger's heartbeat has stood still, as the watchdog's
    /// passes see it: an epoch that moved since the last look restarts
    /// the clock. The holder is read first, so with one the epoch is at
    /// least its entry bump.
    fn quiet(&self, now: Instant) -> (Duration, bool) {
        let held = self.held();
        let epoch = self.beats.read(self.slot);
        let mut w = self.watch.lock().unwrap_or_else(PoisonError::into_inner);
        if epoch != w.epoch {
            w.epoch = epoch;
            w.since = now;
        }
        (now.saturating_duration_since(w.since), held)
    }

    /// The wedge verdict, the one supervision step that needs no
    /// supervisor, so the dispatcher also runs it while it waits on a full
    /// lane — the lane, perhaps, of the wedged holder itself. Stale *and*
    /// held means one holder has made no progress inside the critical
    /// section for a whole deadline; a descheduled offerer outside it, or
    /// a merge with nothing to do, cannot look wedged. The incarnation is
    /// superseded: every journaled run is safe, the holder drops its live
    /// state at its next check, and the next supervision pass allows a
    /// successor.
    pub(crate) fn watch(&self) {
        if !self.plan.supervised || self.down.load(Ordering::Acquire) {
            return;
        }
        let Some(deadline) = self.deadline else {
            return;
        };
        let (quiet, held) = self.quiet(Instant::now());
        if held && quiet > deadline {
            self.watch
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .misses += 1;
            // `down` before `gen` (see `live`).
            self.down.store(true, Ordering::Release);
            self.gen.fetch_add(1, Ordering::AcqRel);
        }
    }

    /// One non-blocking supervision pass of the merger failure domain, run
    /// by the dispatcher between micro-flows and by the teardown waits:
    /// flush past a stalled micro-flow once nothing has been merged for
    /// the flush deadline; allow a successor to a dead or superseded
    /// incarnation (budget and backoff permitting) and have it merge what
    /// waited; supersede a wedged holder ([`MergerShared::watch`]).
    pub(crate) fn tend(&self, sup: &mut Supervisor, frames_done: u64, now: Instant) {
        let slot = self.slot;
        if let Some(deadline) = self.plan.flush_timeout {
            if self.quiet(now).0 > deadline {
                if let Some(mut block) = self.try_block() {
                    self.critical(&mut block, None, |b| {
                        if let Some(live) = self.live(&mut b.live, &mut b.dur) {
                            live.state.flush_one(&mut b.dur.out);
                        }
                    });
                    self.hold(block, None);
                }
            }
        }
        if !self.plan.wal_on {
            return;
        }
        if !self.down.load(Ordering::Acquire) {
            self.watch();
            return;
        }
        sup.note_death(slot, now, frames_done);
        // A successor waits until the holder that went down has left:
        // until then it could not take the lock anyway, and a superseded
        // holder may still be on its way to a death (a panic's report runs
        // inside the critical section), which must not be healed twice.
        // Without a respawn at all the backlog waits for final assembly's
        // serial merge.
        if self.held() {
            return;
        }
        if self.plan.supervised && sup.allow_respawn(slot, now) {
            let incarnation = sup.on_respawn(slot, now, frames_done);
            self.faults.note(FaultEvent::MergerRespawn { incarnation });
            self.incarnation.store(incarnation, Ordering::Relaxed);
            self.down.store(false, Ordering::Release);
            // The successor restores at the next lock holder: this pass,
            // unless a holder is inside already.
            if let Some(block) = self.try_block() {
                self.hold(block, None);
            }
        }
    }

    /// Joins one worker handle, running supervision passes while it runs:
    /// a merger that dies or wedges meanwhile is healed now, not after.
    pub(crate) fn join_tended(
        &self,
        h: crew::JoinHandle<'_>,
        sup: &mut Supervisor,
        frames_done: u64,
    ) -> thread::Result<()> {
        while self.plan.wal_on && !h.is_finished() {
            self.tend(sup, frames_done, Instant::now());
            h.wait_finished(TEND_TICK);
        }
        h.join()
    }

    /// Runs supervision passes until every run is merged by a live
    /// incarnation, or no successor is coming and final assembly merges
    /// what waits. Called after every producer has exited, so the inbox
    /// only empties; a successor the supervisor allows restores here even
    /// when nothing is left to merge.
    pub(crate) fn drain(&self, sup: &mut Supervisor, frames_done: u64) {
        let settled_down = !self.plan.wal_on || !self.plan.supervised;
        loop {
            self.tend(sup, frames_done, Instant::now());
            if let Some(mut block) = self.try_block() {
                block.backlog.extend(self.inbox().drain(..));
                self.critical(&mut block, None, |b| {
                    self.live(&mut b.live, &mut b.dur);
                    self.merge(b);
                });
                if block.live.is_some() || settled_down || sup.budget_exhausted() {
                    return;
                }
            }
            // A wedged holder, or a successor backing off.
            thread::sleep(TEND_TICK);
        }
    }

    /// Final assembly, on the calling thread once every producer is gone:
    /// the live incarnation's state as it stands or — with none live —
    /// the last snapshot with the delta replayed (the serial-merge
    /// degradation path); then the runs no incarnation took, and an
    /// end-of-stream flush of what is still parked, each through
    /// [`MergerState`], which stages what it emits. The delivered buffer
    /// is taken, not copied.
    pub(crate) fn assemble(&self) -> Assembled {
        let heartbeat_misses = self
            .watch
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .misses;
        let block = std::mem::replace(
            &mut *self.try_block().expect("every holder is gone"),
            MergeBlock::new(0, self.plan.merger_rounds),
        );
        let MergeBlock {
            live,
            mut dur,
            backlog,
            ..
        } = block;
        let gen = self.gen.load(Ordering::Acquire);
        let mut state = match live.filter(|l| l.gen == gen) {
            Some(live) => live.state,
            None => {
                let (state, replayed) = dur.restore();
                if replayed > 0 {
                    dur.restores += 1;
                    dur.replayed += replayed;
                }
                state
            }
        };
        let mut out = std::mem::take(&mut dur.out);
        let inbox = std::mem::take(&mut *self.inbox());
        let t = Instant::now();
        for run in backlog.iter().chain(&inbox) {
            state.apply(run, &mut out);
        }
        state.serial_ns += t.elapsed().as_nanos() as u64;
        // No arrival can release anything any more: whatever loss —
        // injected, shed, or a worker that really died — left parked goes
        // out now, and the micro-flows given up on are named.
        state.flush_stalled(&mut out);
        Assembled {
            digests: out,
            state,
            dur,
            heartbeat_misses,
        }
    }
}

/// What final assembly leaves: the delivered stream and the merger-side
/// state its counters are read from.
pub(crate) struct Assembled {
    pub(crate) digests: Vec<PacketResult>,
    pub(crate) state: MergerState,
    pub(crate) dur: MergerDurable,
    /// Wedges the watchdog declared.
    pub(crate) heartbeat_misses: u64,
}
