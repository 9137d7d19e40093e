//! The merge side: the run a worker hands over, the ordering engine, the
//! crash-consistent merger state, and the merger failure domain's
//! watchdog.
//!
//! The **worker→merger** ring carries one run per micro-flow `{id, tag,
//! closed, results}` ([`MergedRun`]), taken whole by the WAL and by the
//! one ordering engine, the paper's merging counter ([`MergeCounter`]),
//! which orders every run — every policy, both stateful modes — by
//! micro-flow id alone, whichever worker sent it. The results `Vec` is
//! the run's one allocation. The merger takes every run the transport
//! already holds as one batch ([`merge_batch`]) and applies the stateful
//! stage to what the engine emits ([`RunPlan::merger_rounds`], 0 under
//! SCR); whether the write-ahead layer is armed is decided in [`RunPlan`]
//! too. What the merger then does about faults:
//!
//! * **Loss** — a micro-flow that never completes stalls the merging
//!   counter; the merger flushes past it after
//!   [`RuntimeFaults::flush_timeout_ms`] without arrivals, and again at
//!   end of stream, releasing every parked successor. Skipped IDs are
//!   reported in [`crate::RunOutput::flushed_mfs`].
//! * **Duplication / late arrival** — every copy of a micro-flow carries
//!   a tag of its own ([`Run::tag`]); the first to arrive is delivered,
//!   the others are rejected and reported in the
//!   [`mflow_metrics::Telemetry`] `dup` / `late` counters.
//! * **Merger death or wedge** — every received run is journaled before
//!   it is processed ([`MergerDurable`]); [`MergerWatch::tend`] respawns
//!   a dead incarnation from the last checkpoint, supersedes a wedged
//!   one, or degrades to pumping the transport into the WAL for final
//!   assembly's serial merge.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use mflow::MergeCounter;

use crate::crew;
use crate::faults::{FaultEvent, RuntimeFaults};
use crate::ring::{MuxRecvError, RingMux};
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

/// A processed micro-flow, as sent to the merger: the unit of the merge
/// ring, of the merge engines' bookkeeping and of the WAL.
pub(crate) type MergedRun = Run<PacketResult>;

/// Everything the merger mutates while the stream is in flight, as one
/// cloneable snapshot object: the merging counter (its reorder window of
/// parked runs, counter, flushed ids) plus the scalar counters the
/// merger owns. Restoring a [`MergerState`] and replaying the delta log
/// reproduces the dead incarnation's trajectory exactly, stateful stage
/// included: a replay re-emits, and stages, only what `restore` dropped.
#[derive(Clone)]
pub(crate) struct MergerState {
    pub(crate) engine: MergeCounter<PacketResult>,
    /// [`RunPlan::merger_rounds`], applied to every result emitted.
    rounds: u32,
    /// Highest packet seq seen so far, for the `ooo` arrival counter.
    max_seen: Option<u64>,
    /// Arrivals that carried a seq below `max_seen`.
    pub(crate) ooo: u64,
    /// Busy nanoseconds of the serial merge stage, stateful stage included:
    /// every drained batch, flush, replay and final-assembly pass.
    pub(crate) serial_ns: u64,
    /// Offers applied so far — the WAL's logical clock: checkpoint
    /// boundaries and injected merger faults are expressed in it. Every
    /// arrival is one, so under SCR it is also the replicated
    /// transitions the lanes computed.
    pub(crate) offers: u64,
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
    /// from the delta log. Untimed: its callers time whole batches.
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

    /// Flushes the single most-stalled head (receive-timeout path).
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
/// or the dispatcher's final serial merge — truncates it back to
/// `out_mark`, clones the snapshot and replays the delta, so a crash
/// loses nothing: every received run is journaled *before* the (possibly
/// fatal) processing step.
pub(crate) struct MergerDurable {
    snapshot: MergerState,
    /// Delivered results. `out[..out_mark]` is what `snapshot` stands
    /// for; anything beyond is the live incarnation's work since, which
    /// `delta` reproduces.
    pub(crate) out: Vec<PacketResult>,
    out_mark: usize,
    /// Runs received since the last checkpoint, in arrival order.
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
pub(crate) struct MergerShared {
    /// The single receiving end of the merge transport. It must survive
    /// merger deaths — dropping it would disconnect every producer for
    /// good — so incarnations *lease* it from this slot and a panic
    /// returns it on unwind. Possession of the lease is the exclusive
    /// right to append to the WAL, mutate durable state, or checkpoint.
    pub(crate) rx_slot: Mutex<Option<RingMux<MergedRun>>>,
    pub(crate) durable: Mutex<MergerDurable>,
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
    /// [`crate::RuntimeConfig::merger_depth`].
    pub(crate) sent: AtomicU64,
    /// Micro-flows the merger side has popped from it.
    recvd: AtomicU64,
}

impl MergerShared {
    /// `frames` is the length of the call's input, which bounds what can be
    /// delivered: the delivered buffer is allocated once, here, instead of
    /// regrown on the merger thread as the stream arrives.
    pub(crate) fn new(rx: RingMux<MergedRun>, frames: usize, rounds: u32) -> Self {
        Self {
            rx_slot: Mutex::new(Some(rx)),
            durable: Mutex::new(MergerDurable {
                snapshot: MergerState::new(rounds),
                out: Vec::with_capacity(frames),
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
/// the receive loop: wait for a run, then merge it and everything queued
/// behind it as one batch ([`merge_batch`]).
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
        match lease.rx().recv_timeout(w.plan.flush_timeout) {
            Ok(run) => {
                if !merge_batch(&w, lease.rx(), &mut state, run, incarnation, my_gen) {
                    // Superseded while wedged. The batch is journaled up
                    // to the wedged run; the successor replays it.
                    lease.clean = true;
                    return;
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

/// Merges `first` and every run the transport already holds behind it as
/// one batch, under one lock of the durable block and one clock pair
/// into `serial_ns`. Per run: journal, fault checks, apply from the
/// journal, checkpoint. Returns `false` when the incarnation was
/// superseded while an injected stall wedged it.
fn merge_batch(
    w: &MergerWatch<'_, '_>,
    rx: &mut RingMux<MergedRun>,
    state: &mut MergerState,
    first: MergedRun,
    incarnation: u64,
    my_gen: u64,
) -> bool {
    let (shared, faults) = (w.shared, w.faults);
    let t = Instant::now();
    let mut guard = shared.durable();
    let d = &mut *guard;
    let mut next = Some(first);
    while let Some(run) = next.take().or_else(|| rx.try_recv()) {
        w.beats.bump(w.merger_slot);
        shared.recvd.fetch_add(1, Ordering::Relaxed);
        // The WAL's clock stays in packets: this run takes it over the
        // offer numbers `(before, before + n]`.
        let (before, n) = (state.offers, run.items.len() as u64);
        // Journal by move before any processing: once in the WAL the run
        // survives this incarnation's death — including the injected one
        // just below — and it is applied from there, so it is never
        // copied.
        let run = if w.plan.wal_on {
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
            // Wedged with the block locked, which costs nobody anything:
            // only the lease holder ever locks it.
            thread::sleep(Duration::from_millis(stall.ms));
            if shared.gen.load(Ordering::Acquire) != my_gen {
                return false;
            }
        }
        state.apply(run, &mut d.out);
        // The run that crosses a multiple of the interval takes the
        // checkpoint.
        let every = w.checkpoint_every;
        if w.plan.wal_on && before / every != state.offers / every {
            d.checkpoints += 1;
            d.snapshot_bytes += state.approx_bytes();
            d.fold(state.clone());
        }
    }
    drop(guard);
    state.serial_ns += t.elapsed().as_nanos() as u64;
    true
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
pub(crate) struct MergerWatch<'scope, 'env> {
    pub(crate) s: &'scope crew::Scope<'scope, 'env>,
    pub(crate) shared: &'env MergerShared,
    pub(crate) faults: &'env RuntimeFaults,
    pub(crate) beats: &'env HeartbeatBoard,
    pub(crate) merger_slot: usize,
    /// `flush_timeout`, `wal_on` and `supervised` are read from here.
    pub(crate) plan: &'env RunPlan,
    pub(crate) checkpoint_every: u64,
    pub(crate) merger_depth: usize,
}

impl<'scope, 'env> MergerWatch<'scope, 'env> {
    /// Starts one merger incarnation as a job of its own.
    pub(crate) fn spawn(self, incarnation: u64, my_gen: u64) -> crew::JoinHandle<'scope> {
        self.s.spawn(move || merger_loop(self, incarnation, my_gen))
    }

    /// One non-blocking pass: respawn a dead merger from its last
    /// checkpoint (budget and backoff permitting), degrade to WAL
    /// pumping when respawn is off the table, supersede a wedged
    /// incarnation. Called between micro-flows and while joining
    /// workers, so a merger death can never wedge the pipeline.
    pub(crate) fn tend(
        &self,
        sup: &mut Supervisor,
        merger_handles: &mut Vec<crew::JoinHandle<'scope>>,
        frames_done: u64,
        now: Instant,
    ) {
        if !self.plan.wal_on || self.shared.eos.load(Ordering::Acquire) {
            return;
        }
        let shared = self.shared;
        if shared.down.load(Ordering::Acquire) {
            sup.note_death(self.merger_slot, now, frames_done);
            if self.plan.supervised && sup.allow_respawn(self.merger_slot, now) {
                let incarnation = sup.on_respawn(self.merger_slot, now, frames_done);
                self.faults.note(FaultEvent::MergerRespawn { incarnation });
                shared.down.store(false, Ordering::Release);
                let my_gen = shared.gen.load(Ordering::Acquire);
                merger_handles.push(self.spawn(incarnation, my_gen));
            } else if !self.plan.supervised || sup.budget_exhausted() {
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
        } else if self.plan.supervised
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
    pub(crate) fn join_tended(
        &self,
        h: crew::JoinHandle<'scope>,
        sup: &mut Supervisor,
        merger_handles: &mut Vec<crew::JoinHandle<'scope>>,
        frames_done: u64,
    ) -> thread::Result<()> {
        while self.plan.wal_on && !h.is_finished() {
            self.tend(sup, merger_handles, frames_done, Instant::now());
            h.wait_finished(TEND_TICK);
        }
        h.join()
    }

    /// Runs supervision passes until the stream is fully consumed and
    /// folded into the durable block. Called after every producer has
    /// exited, so each pass makes progress: a live merger drains to
    /// Disconnected, a dead one is respawned or pumped, a wedged one is
    /// superseded — all of which terminate in `eos`.
    pub(crate) fn drain_to_eos(
        &self,
        sup: &mut Supervisor,
        merger_handles: &mut Vec<crew::JoinHandle<'scope>>,
        frames_done: u64,
    ) {
        while self.plan.wal_on && !self.shared.eos.load(Ordering::Acquire) {
            self.tend(sup, merger_handles, frames_done, Instant::now());
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
