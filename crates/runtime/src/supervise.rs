//! Worker supervision primitives: heartbeat publication and the
//! restart-budget bookkeeping behind the dispatcher's watchdog.
//!
//! The paper's packet-level parallelism assumes the splitting-core pool
//! stays healthy; this module is what keeps it that way. Every worker
//! slot owns one cache-line-padded atomic epoch counter in a
//! [`HeartbeatBoard`] and bumps it once per dequeued batch. The
//! dispatcher's watchdog (in `run`) reads the board between
//! micro-flows: an epoch that has not moved past the configured deadline
//! *while the slot has work queued* is a missed heartbeat, treated
//! exactly like a ring disconnect — the lane is failed, its retained
//! window redispatched, and a replacement thread spawned under the
//! [`Supervisor`]'s bounded restart budget with per-slot exponential
//! backoff. When the budget runs dry the engine degrades to
//! dispatcher-inline processing instead of wedging.
//!
//! The split of responsibilities: this module decides *whether* a slot
//! may be respawned and accounts for *when* things happened (deaths,
//! heals, worst-case time-to-recovery, the pre-fault and post-recovery
//! dispatch windows); the pipeline owns the actual thread spawning and
//! ring re-wiring, which need the scoped-thread context.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Pads each slot's epoch to its own cache line so heartbeat bumps from
/// different workers never false-share.
#[repr(align(64))]
struct PaddedEpoch(AtomicU64);

/// Per-worker heartbeat epochs, shared between the workers (writers) and
/// the dispatcher's watchdog (reader). One slot per worker thread slot;
/// respawned incarnations inherit their slot's counter.
pub struct HeartbeatBoard {
    slots: Vec<PaddedEpoch>,
}

impl HeartbeatBoard {
    /// A board of `n` slots, all at epoch zero.
    pub fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| PaddedEpoch(AtomicU64::new(0))).collect(),
        }
    }

    /// Publishes one unit of progress for `slot`. Called by the worker
    /// once per dequeued batch, *before* the (possibly faulty) batch work
    /// — a worker that dies or stalls mid-batch leaves a stale epoch with
    /// its queue depth still visible, which is the watchdog's signal.
    pub fn bump(&self, slot: usize) {
        self.slots[slot].0.fetch_add(1, Ordering::Relaxed);
    }

    /// The watchdog's view of a slot's epoch.
    pub fn read(&self, slot: usize) -> u64 {
        self.slots[slot].0.load(Ordering::Relaxed)
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the board has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Watchdog-side state for one worker slot.
struct SlotHealth {
    /// Last epoch observed by the watchdog.
    last_epoch: u64,
    /// When the epoch last changed (or the slot was last respawned).
    last_change: Instant,
    /// Incarnation currently occupying the slot (0 = original spawn).
    incarnation: u64,
    /// Respawns performed for this slot (drives the backoff exponent).
    respawns: u32,
    /// Earliest instant the next respawn of this slot is allowed.
    next_allowed: Instant,
    /// When the current death was first observed; `None` while the slot
    /// is believed live.
    died_at: Option<Instant>,
}

/// Restart-budget and recovery bookkeeping for all worker slots.
pub(crate) struct Supervisor {
    /// Missed-heartbeat deadline; `None` disables stall detection (death
    /// is then only observed through lane disconnects).
    interval: Option<Duration>,
    /// Respawns left for the whole run.
    budget_left: u32,
    /// Base backoff; doubles per respawn of the same slot.
    backoff: Duration,
    slots: Vec<SlotHealth>,
    /// Which slot (if any) is the merger rather than a worker. Deaths
    /// and respawns of this slot are accounted in the merger failure
    /// domain (`merger_restarts` / `merger_recovery_ns`) instead of the
    /// worker-domain counters, while sharing the same restart budget and
    /// backoff machinery.
    merger_slot: Option<usize>,
    /// Worker respawns performed (the `Telemetry::restarts` counter).
    pub restarts: u64,
    /// Stall declarations (the `Telemetry::heartbeat_misses` counter).
    pub heartbeat_misses: u64,
    /// Worst observed death-to-respawn gap in nanoseconds, worker domain.
    pub recovery_ns: u64,
    /// Merger respawns performed (the `Telemetry::merger_restarts`
    /// counter).
    pub merger_restarts: u64,
    /// Worst observed death-to-respawn gap in nanoseconds, merger domain.
    pub merger_recovery_ns: u64,
    /// First observed death: `(when, frames dispatched so far)`.
    first_death: Option<(Instant, u64)>,
    /// Most recent respawn: `(when, frames dispatched so far)`.
    last_heal: Option<(Instant, u64)>,
    /// Respawns per slot, for the died-vs-abandoned classification.
    respawns_by_slot: Vec<u32>,
}

/// Cap on the backoff doubling exponent (beyond this the wait is already
/// way past any realistic run length).
const BACKOFF_SHIFT_CAP: u32 = 16;

impl Supervisor {
    pub(crate) fn new(
        n_slots: usize,
        interval: Option<Duration>,
        budget: u32,
        backoff: Duration,
        now: Instant,
    ) -> Self {
        Self {
            interval,
            budget_left: budget,
            backoff,
            slots: (0..n_slots)
                .map(|_| SlotHealth {
                    last_epoch: 0,
                    last_change: now,
                    incarnation: 0,
                    respawns: 0,
                    next_allowed: now,
                    died_at: None,
                })
                .collect(),
            merger_slot: None,
            restarts: 0,
            heartbeat_misses: 0,
            recovery_ns: 0,
            merger_restarts: 0,
            merger_recovery_ns: 0,
            first_death: None,
            last_heal: None,
            respawns_by_slot: vec![0; n_slots],
        }
    }

    /// Marks `slot` as the merger failure domain (see
    /// [`Supervisor::merger_slot`]).
    pub(crate) fn watch_merger(&mut self, slot: usize) {
        self.merger_slot = Some(slot);
    }

    /// Whether the shared restart budget is spent. The pipeline's
    /// degradation ladder branches on this: a dead merger with budget
    /// left waits for a respawn; one without degrades to dispatcher-side
    /// serial merging.
    pub(crate) fn budget_exhausted(&self) -> bool {
        self.budget_left == 0
    }

    /// Heartbeat check: true when the slot's epoch has not moved for
    /// longer than the deadline. The caller gates this on the slot
    /// actually having queued work — an idle worker's epoch is
    /// legitimately still.
    pub(crate) fn stale(&mut self, slot: usize, epoch: u64, now: Instant) -> bool {
        let s = &mut self.slots[slot];
        if epoch != s.last_epoch {
            s.last_epoch = epoch;
            s.last_change = now;
            return false;
        }
        match self.interval {
            Some(deadline) => now.duration_since(s.last_change) > deadline,
            None => false,
        }
    }

    /// Records that the watchdog observed `slot` dead (idempotent until
    /// the slot is respawned). `frames_done` is the dispatch progress,
    /// for the pre-fault rate window.
    pub(crate) fn note_death(&mut self, slot: usize, now: Instant, frames_done: u64) {
        if self.slots[slot].died_at.is_none() {
            self.slots[slot].died_at = Some(now);
            if self.first_death.is_none() {
                self.first_death = Some((now, frames_done));
            }
        }
    }

    /// Whether a respawn of `slot` is currently permitted (budget left
    /// and past the slot's backoff deadline). Non-blocking: a denied
    /// respawn is simply retried on a later watchdog pass.
    pub(crate) fn allow_respawn(&self, slot: usize, now: Instant) -> bool {
        self.budget_left > 0 && now >= self.slots[slot].next_allowed
    }

    /// Commits a respawn of `slot`: spends budget, arms the exponential
    /// backoff, folds the death-to-respawn gap into `recovery_ns`, and
    /// returns the new incarnation number.
    pub(crate) fn on_respawn(&mut self, slot: usize, now: Instant, frames_done: u64) -> u64 {
        let merger = self.merger_slot == Some(slot);
        let s = &mut self.slots[slot];
        if let Some(died) = s.died_at.take() {
            let gap = now.duration_since(died).as_nanos() as u64;
            // Per-domain recovery split: the merger's healing latency is
            // tracked apart from the workers' so neither masks the other.
            if merger {
                self.merger_recovery_ns = self.merger_recovery_ns.max(gap);
            } else {
                self.recovery_ns = self.recovery_ns.max(gap);
            }
        }
        s.incarnation += 1;
        s.respawns += 1;
        s.last_change = now;
        let shift = (s.respawns - 1).min(BACKOFF_SHIFT_CAP);
        s.next_allowed = now + self.backoff * (1u32 << shift);
        self.budget_left -= 1;
        if merger {
            self.merger_restarts += 1;
        } else {
            self.restarts += 1;
        }
        self.respawns_by_slot[slot] += 1;
        self.last_heal = Some((now, frames_done));
        s.incarnation
    }

    /// Splits the join-time panic counts into respawned vs abandoned
    /// deaths: a panic whose slot got a replacement incarnation was
    /// healed; the rest degraded the pool for good.
    pub(crate) fn classify_deaths(&self, deaths_by_slot: &[u32]) -> (usize, usize) {
        let mut respawned = 0usize;
        let mut abandoned = 0usize;
        for (slot, &deaths) in deaths_by_slot.iter().enumerate() {
            let healed = deaths.min(self.respawns_by_slot[slot]);
            respawned += healed as usize;
            abandoned += (deaths - healed) as usize;
        }
        (respawned, abandoned)
    }

    /// The dispatch-side rate windows around the fault interval:
    /// everything before the first observed death, and everything after
    /// the last respawn. With no deaths the whole run is "pre-fault".
    pub(crate) fn rates(
        &self,
        start: Instant,
        dispatch_done: Instant,
        total_frames: u64,
    ) -> crate::RecoveryRates {
        match self.first_death {
            None => crate::RecoveryRates {
                prefault_frames: total_frames,
                prefault_ns: dispatch_done.duration_since(start).as_nanos() as u64,
                recovered_frames: 0,
                recovered_ns: 0,
            },
            Some((died, died_frames)) => {
                let (recovered_frames, recovered_ns) = match self.last_heal {
                    Some((healed, healed_frames)) => (
                        total_frames.saturating_sub(healed_frames),
                        dispatch_done.duration_since(healed).as_nanos() as u64,
                    ),
                    None => (0, 0),
                };
                crate::RecoveryRates {
                    prefault_frames: died_frames,
                    prefault_ns: died.duration_since(start).as_nanos() as u64,
                    recovered_frames,
                    recovered_ns,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heartbeat_board_counts_per_slot() {
        let board = HeartbeatBoard::new(3);
        assert_eq!(board.len(), 3);
        assert!(!board.is_empty());
        board.bump(1);
        board.bump(1);
        board.bump(2);
        assert_eq!(board.read(0), 0);
        assert_eq!(board.read(1), 2);
        assert_eq!(board.read(2), 1);
    }

    #[test]
    fn stale_requires_an_unmoved_epoch_past_the_deadline() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new(1, Some(Duration::from_millis(10)), 4, Duration::ZERO, t0);
        // Progress resets the clock.
        assert!(!sup.stale(0, 1, t0 + Duration::from_millis(50)));
        // Same epoch, inside the deadline: fine.
        assert!(!sup.stale(0, 1, t0 + Duration::from_millis(55)));
        // Same epoch, past the deadline: stalled.
        assert!(sup.stale(0, 1, t0 + Duration::from_millis(70)));
        // New epoch recovers.
        assert!(!sup.stale(0, 2, t0 + Duration::from_millis(200)));
    }

    #[test]
    fn no_interval_never_reports_stale() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new(1, None, 4, Duration::ZERO, t0);
        assert!(!sup.stale(0, 0, t0 + Duration::from_secs(3600)));
    }

    #[test]
    fn budget_and_backoff_gate_respawns() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new(2, None, 2, Duration::from_millis(100), t0);
        assert!(sup.allow_respawn(0, t0));
        sup.note_death(0, t0, 5);
        assert_eq!(sup.on_respawn(0, t0 + Duration::from_millis(1), 5), 1);
        // Backoff: the same slot must wait; another slot need not.
        assert!(!sup.allow_respawn(0, t0 + Duration::from_millis(50)));
        assert!(sup.allow_respawn(1, t0 + Duration::from_millis(50)));
        assert!(sup.allow_respawn(0, t0 + Duration::from_millis(150)));
        // Second respawn exhausts the budget of 2 for everyone.
        sup.on_respawn(0, t0 + Duration::from_millis(150), 9);
        assert!(!sup.allow_respawn(1, t0 + Duration::from_secs(10)));
        assert_eq!(sup.restarts, 2);
        // Backoff doubled: 100ms after the first respawn, 200ms after
        // the second.
        assert!(sup.slots[0].next_allowed >= t0 + Duration::from_millis(350));
    }

    #[test]
    fn recovery_gap_and_windows_are_tracked() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new(1, None, 8, Duration::ZERO, t0);
        let died = t0 + Duration::from_millis(10);
        let healed = t0 + Duration::from_millis(14);
        let done = t0 + Duration::from_millis(100);
        sup.note_death(0, died, 1000);
        // A second observation of the same death must not move the clock.
        sup.note_death(0, died + Duration::from_millis(2), 1200);
        sup.on_respawn(0, healed, 1100);
        assert_eq!(sup.recovery_ns, 4_000_000);
        let rates = sup.rates(t0, done, 10_000);
        assert_eq!(rates.prefault_frames, 1000);
        assert_eq!(rates.prefault_ns, 10_000_000);
        assert_eq!(rates.recovered_frames, 8900);
        assert_eq!(rates.recovered_ns, 86_000_000);
    }

    #[test]
    fn death_classification_splits_respawned_from_abandoned() {
        let t0 = Instant::now();
        let mut sup = Supervisor::new(3, None, 8, Duration::ZERO, t0);
        // Slot 0: died once, respawned once. Slot 1: died twice, respawned
        // once. Slot 2: never died but was stall-respawned (old worker
        // exited cleanly).
        sup.on_respawn(0, t0, 0);
        sup.on_respawn(1, t0, 0);
        sup.on_respawn(2, t0, 0);
        let (respawned, abandoned) = sup.classify_deaths(&[1, 2, 0]);
        assert_eq!(respawned, 2);
        assert_eq!(abandoned, 1);
    }

    #[test]
    fn merger_slot_splits_the_recovery_domains() {
        let t0 = Instant::now();
        // 2 worker slots + 1 merger slot, shared budget of 3.
        let mut sup = Supervisor::new(3, None, 3, Duration::ZERO, t0);
        sup.watch_merger(2);
        // A worker death heals into the worker domain.
        sup.note_death(0, t0 + Duration::from_millis(1), 10);
        sup.on_respawn(0, t0 + Duration::from_millis(3), 10);
        // A merger death heals into the merger domain, with a longer gap.
        sup.note_death(2, t0 + Duration::from_millis(5), 20);
        sup.on_respawn(2, t0 + Duration::from_millis(10), 20);
        assert_eq!(sup.restarts, 1);
        assert_eq!(sup.merger_restarts, 1);
        assert_eq!(sup.recovery_ns, 2_000_000);
        assert_eq!(sup.merger_recovery_ns, 5_000_000);
        // The budget is shared across domains.
        assert!(!sup.budget_exhausted());
        sup.on_respawn(2, t0 + Duration::from_millis(11), 21);
        assert!(sup.budget_exhausted());
        // classify_deaths only sees worker slots; the merger's respawns
        // never leak into the worker classification.
        let (respawned, abandoned) = sup.classify_deaths(&[1, 0]);
        assert_eq!((respawned, abandoned), (1, 0));
    }
}
