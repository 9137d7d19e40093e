//! Deterministic fault injection for the real-thread pipeline.
//!
//! The simulator's fault plan (`mflow_netstack::faults`) perturbs skbs in
//! virtual time; this is its counterpart for actual OS threads, where the
//! interesting failures are scheduling-shaped: a worker stalls mid-stream,
//! a worker dies outright, a micro-flow is redispatched twice or arrives
//! a few batches late. Packet-level loss is injected too, including the
//! targeted loss of batch-closing packets — the single packet the merging
//! counter cannot advance without.
//!
//! Per-micro-flow and per-packet decisions are pure hashes of
//! `(seed, micro-flow id, packet seq)`, so a given seed faults the same
//! micro-flows on every run regardless of thread interleaving — what the
//! scheduler *does* with the faults varies, which is exactly the space
//! the stress tests explore.

use std::sync::{Arc, Mutex};

/// Kill one worker thread mid-run.
#[derive(Clone, Copy, Debug)]
pub struct WorkerKill {
    /// Worker (lane) index to kill.
    pub worker: usize,
    /// The worker panics after processing this many batches.
    pub after_batches: u64,
    /// Which incarnation of the slot to kill: 0 is the originally spawned
    /// worker, 1 the first supervised respawn, and so on. Without a
    /// supervisor only incarnation 0 ever exists.
    pub incarnation: u64,
}

/// Kill one merger incarnation mid-run. The trigger counts *offers* —
/// results the merger has received — rather than wall-clock or batches:
/// every run delivers the same total offer count, so the schedule fires
/// identically from run to run even though arrival interleavings differ.
#[derive(Clone, Copy, Debug)]
pub struct MergerKill {
    /// The merger panics once it has received this many offers.
    pub after_offers: u64,
    /// Which merger incarnation to kill: 0 is the originally spawned
    /// merger, 1 the first supervised respawn, and so on.
    pub incarnation: u64,
}

/// Wedge (rather than kill) the merger: one long sleep when its offer
/// count crosses the trigger, modelling a merger thread pinned off-CPU.
/// The dispatch watchdog detects the stale merger heartbeat with results
/// outstanding, supersedes the wedged incarnation by generation, and
/// respawns from the latest checkpoint.
#[derive(Clone, Copy, Debug)]
pub struct MergerStall {
    /// The sleep fires when the merger's offer count reaches this value.
    pub after_offers: u64,
    /// Sleep duration in milliseconds.
    pub ms: u64,
}

/// One injected fault, as recorded by [`FaultLog`]. The variants carry
/// only schedule-determined data (micro-flow ids, packet seqs, slots) —
/// never timing — so two runs of the same seed produce the same multiset
/// of events regardless of thread interleaving.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultEvent {
    /// A packet was deleted at dispatch.
    Drop { mf_id: u64, seq: u64 },
    /// A whole micro-flow was dispatched twice.
    DupMf { mf_id: u64 },
    /// A whole micro-flow was held back and dispatched late.
    LateMf { mf_id: u64 },
    /// A worker stalled before a batch of this micro-flow.
    Stall { worker: usize, mf_id: u64 },
    /// A worker incarnation was killed.
    Kill { worker: usize, incarnation: u64 },
    /// A merger incarnation was killed (after WAL-logging the offer that
    /// triggered it, so the in-flight item is never lost).
    MergerDeath { incarnation: u64 },
    /// The supervisor respawned the merger; `incarnation` is the
    /// replacement's number.
    MergerRespawn { incarnation: u64 },
    /// A respawned merger incarnation restored state from the latest
    /// checkpoint and replayed the delta log.
    SnapshotRestore { incarnation: u64 },
    /// The merger wedged (injected stall) at this offer count.
    MergerStall { offers: u64 },
}

/// Shared log of injected fault events, filled in by the pipeline as the
/// schedule fires. Clone it, hand the clone to [`RuntimeFaults::log`],
/// and read it back after the run — the canonically sorted event list is
/// the run-to-run determinism witness the chaos tests compare across two
/// runs of one seed.
#[derive(Clone, Debug, Default)]
pub struct FaultLog(Arc<Mutex<Vec<FaultEvent>>>);

impl FaultLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one fired event.
    pub fn record(&self, event: FaultEvent) {
        self.0.lock().expect("fault log poisoned").push(event);
    }

    /// All recorded events, canonically sorted (schedule order, not
    /// arrival order) so logs from two runs of one seed compare equal.
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut events = self.0.lock().expect("fault log poisoned").clone();
        events.sort_unstable();
        events
    }
}

/// Slow worker: the worker sleeps before *every* batch, modelling a
/// splitting core pinned to an overcommitted CPU. Unlike the
/// probabilistic [`RuntimeFaults::stall_rate`], the pressure never lets
/// up: a few microseconds keep one queue consistently deeper than the
/// others (engaging watermark-based policies), a few milliseconds hold
/// the lane at its watermark for the whole run — the scenario
/// backpressure policies exist for.
#[derive(Clone, Copy, Debug)]
pub struct SlowWorker {
    /// Worker (lane) index to slow down.
    pub worker: usize,
    /// Extra processing time per batch, in microseconds.
    pub per_batch_us: u64,
}

/// Fault mix for [`process_parallel_faulty`].
///
/// [`process_parallel_faulty`]: crate::process_parallel_faulty
#[derive(Clone, Debug)]
pub struct RuntimeFaults {
    /// Seed for all hash-based decisions.
    pub seed: u64,
    /// Probability a packet is dropped at dispatch (never reaches any
    /// worker).
    pub drop_rate: f64,
    /// Probability the *closing* packet of a micro-flow is dropped —
    /// leaves the micro-flow permanently open at the merger.
    pub drop_last_rate: f64,
    /// Probability a whole micro-flow is dispatched twice (the second
    /// copy, under a tag of its own, goes to the next live worker).
    pub dup_mf_rate: f64,
    /// Probability a whole micro-flow is held back and dispatched
    /// [`RuntimeFaults::late_by`] batches later, as a new copy.
    pub late_mf_rate: f64,
    /// How many batches a late micro-flow is held for.
    pub late_by: u64,
    /// Probability a worker stalls before processing a batch.
    pub stall_rate: f64,
    /// Stall duration in milliseconds.
    pub stall_ms: u64,
    /// Worker kills — a chaos schedule can target every slot (and
    /// respawned incarnations) in one run.
    pub kills: Vec<WorkerKill>,
    /// Merger kills — a multi-kill schedule can take down successive
    /// incarnations (0, then 1, ...) in one run.
    pub merger_kills: Vec<MergerKill>,
    /// Wedge the merger with one long sleep at an offer count.
    pub merger_stall: Option<MergerStall>,
    /// Slow worker (a sleep before every batch).
    pub slow_worker: Option<SlowWorker>,
    /// Merger flush deadline: with no arrivals for this long, the merger
    /// force-advances past the micro-flow it is stuck on. `None` waits
    /// forever (only safe without loss faults).
    pub flush_timeout_ms: Option<u64>,
    /// Optional shared log of fired events (see [`FaultLog`]). `None`
    /// skips recording entirely.
    pub log: Option<FaultLog>,
}

impl RuntimeFaults {
    /// No faults; the pipeline behaves exactly like [`process_parallel`].
    ///
    /// [`process_parallel`]: crate::process_parallel
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            drop_last_rate: 0.0,
            dup_mf_rate: 0.0,
            late_mf_rate: 0.0,
            late_by: 2,
            stall_rate: 0.0,
            stall_ms: 1,
            kills: Vec::new(),
            merger_kills: Vec::new(),
            merger_stall: None,
            slow_worker: None,
            flush_timeout_ms: Some(100),
            log: None,
        }
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.drop_last_rate > 0.0
            || self.dup_mf_rate > 0.0
            || self.late_mf_rate > 0.0
            || self.stall_rate > 0.0
            || !self.kills.is_empty()
            || self.slow_worker.is_some()
            || self.merger_faults_active()
    }

    /// Whether any merger-domain fault is scheduled. Gates the merger's
    /// write-ahead logging on otherwise-unsupervised runs: a run that can
    /// lose its merger must journal offers even without a supervisor, so
    /// the degraded dispatcher-side merge can reconstruct the stream.
    pub fn merger_faults_active(&self) -> bool {
        !self.merger_kills.is_empty() || self.merger_stall.is_some()
    }

    /// Whether a kill is scheduled to fire for this `(worker, incarnation)`
    /// once it has processed `processed` batches.
    pub fn kill_fires(&self, worker: usize, incarnation: u64, processed: u64) -> bool {
        self.kills.iter().any(|k| {
            k.worker == worker && k.incarnation == incarnation && processed >= k.after_batches
        })
    }

    /// Whether a merger kill is scheduled to fire for `incarnation` once
    /// it has received `offers` results. Like [`RuntimeFaults::kill_fires`],
    /// the trigger is `>=`: a kill point that lands inside a window the
    /// incarnation replayed from the delta log (replay performs no fault
    /// checks) fires on its first fresh offer instead of being lost.
    pub fn merger_kill_fires(&self, incarnation: u64, offers: u64) -> bool {
        self.merger_kills
            .iter()
            .any(|k| k.incarnation == incarnation && offers >= k.after_offers)
    }

    /// The injected merger wedge, if its trigger lies among the offer
    /// numbers `(offers, offers + n]` — the span of a run of `n` results
    /// about to be applied on top of `offers` already applied. The
    /// merger's clock moves a whole run at a time, so the point is
    /// matched against the span rather than one offer number; it is
    /// inside exactly one fresh run's span (delta replay performs no
    /// fault checks), so the sleep happens once, and the recorded
    /// [`FaultEvent::MergerStall`] carries the scheduled
    /// [`MergerStall::after_offers`], not wherever the run happened to
    /// end — schedule-determined either way.
    pub fn merger_stall_fires(&self, offers: u64, n: u64) -> Option<MergerStall> {
        self.merger_stall
            .filter(|s| offers < s.after_offers && s.after_offers <= offers + n)
    }

    /// Records `event` into the attached [`FaultLog`], if any.
    pub(crate) fn note(&self, event: FaultEvent) {
        if let Some(log) = &self.log {
            log.record(event);
        }
    }

    /// True with probability `rate`, as a pure function of the key.
    pub(crate) fn decide(&self, salt: u64, mf_id: u64, seq: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mut x = self.seed ^ salt;
        for v in [mf_id, seq] {
            // SplitMix64 finalizer over the accumulated key.
            x = x.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
        }
        ((x >> 11) as f64) / ((1u64 << 53) as f64) < rate
    }

    /// Whether dispatch drops this packet (`drop_rate`, or
    /// `drop_last_rate` when it closes its micro-flow). Recomputable by
    /// tests to predict exactly which packets never entered the pipeline.
    pub fn drops_packet(&self, mf_id: u64, seq: u64, closes_batch: bool) -> bool {
        self.decide(0xD709, mf_id, seq, self.drop_rate)
            || (closes_batch && self.decide(0x1A57, mf_id, seq, self.drop_last_rate))
    }

    /// Whether this micro-flow is dispatched twice.
    pub fn duplicates_mf(&self, mf_id: u64) -> bool {
        self.decide(0xD0B1, mf_id, 0, self.dup_mf_rate)
    }

    /// Whether this micro-flow is held back and dispatched late.
    pub fn delays_mf(&self, mf_id: u64) -> bool {
        self.decide(0xDE1A, mf_id, 0, self.late_mf_rate)
    }

    /// Whether a worker stalls before processing this micro-flow's batch.
    pub fn stalls_on(&self, mf_id: u64) -> bool {
        self.decide(0x57A1, mf_id, 0, self.stall_rate)
    }
}

impl Default for RuntimeFaults {
    fn default() -> Self {
        Self::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_by_default() {
        assert!(!RuntimeFaults::none().is_active());
        assert!(!RuntimeFaults::none().drops_packet(3, 17, true));
    }

    #[test]
    fn kill_alone_makes_it_active() {
        let mut f = RuntimeFaults::none();
        f.kills.push(WorkerKill {
            worker: 0,
            after_batches: 5,
            incarnation: 0,
        });
        assert!(f.is_active());
        let mut f = RuntimeFaults::none();
        f.kills.push(WorkerKill {
            worker: 1,
            after_batches: 3,
            incarnation: 1,
        });
        assert!(f.is_active());
    }

    #[test]
    fn kill_fires_matches_slot_and_incarnation() {
        let mut f = RuntimeFaults::none();
        f.kills.push(WorkerKill {
            worker: 2,
            after_batches: 4,
            incarnation: 1,
        });
        assert!(!f.kill_fires(2, 1, 3), "not enough batches yet");
        assert!(f.kill_fires(2, 1, 4));
        assert!(!f.kill_fires(2, 0, 100), "wrong incarnation");
        assert!(!f.kill_fires(1, 1, 100), "wrong slot");
    }

    #[test]
    fn fault_log_sorts_canonically() {
        let log = FaultLog::new();
        log.record(FaultEvent::Kill {
            worker: 1,
            incarnation: 0,
        });
        log.record(FaultEvent::Drop { mf_id: 3, seq: 9 });
        log.record(FaultEvent::Drop { mf_id: 1, seq: 2 });
        let a = log.sorted();
        // A clone shares the same backing log.
        let b = log.clone().sorted();
        assert_eq!(a, b);
        assert_eq!(a[0], FaultEvent::Drop { mf_id: 1, seq: 2 });
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn merger_faults_make_it_active() {
        let mut f = RuntimeFaults::none();
        assert!(!f.merger_faults_active());
        f.merger_kills.push(MergerKill {
            after_offers: 10,
            incarnation: 0,
        });
        assert!(f.merger_faults_active());
        assert!(f.is_active());
        let mut f = RuntimeFaults::none();
        f.merger_stall = Some(MergerStall {
            after_offers: 5,
            ms: 1,
        });
        assert!(f.merger_faults_active());
        assert!(f.is_active());
    }

    #[test]
    fn merger_kill_fires_matches_incarnation_and_offer_count() {
        let mut f = RuntimeFaults::none();
        f.merger_kills.push(MergerKill {
            after_offers: 40,
            incarnation: 1,
        });
        assert!(!f.merger_kill_fires(1, 39), "not enough offers yet");
        assert!(f.merger_kill_fires(1, 40));
        assert!(f.merger_kill_fires(1, 1000), ">= trigger survives replay skips");
        assert!(!f.merger_kill_fires(0, 1000), "wrong incarnation");
    }

    #[test]
    fn merger_stall_fires_exactly_once_at_the_trigger() {
        let mut f = RuntimeFaults::none();
        f.merger_stall = Some(MergerStall {
            after_offers: 7,
            ms: 3,
        });
        // One-result runs: offer number k is the span (k - 1, k].
        let at = |offer_no: u64| f.merger_stall_fires(offer_no - 1, 1).map(|s| s.ms);
        assert_eq!(at(6), None);
        assert_eq!(at(7), Some(3));
        assert_eq!(at(8), None);
    }

    #[test]
    fn merger_fault_points_inside_a_run_fire_on_that_run() {
        // The merger's clock advances 32 offers per run: 0, 32, 64, ...
        let mut f = RuntimeFaults::none();
        f.merger_stall = Some(MergerStall {
            after_offers: 50,
            ms: 9,
        });
        f.merger_kills.push(MergerKill {
            after_offers: 70,
            incarnation: 0,
        });
        let fired: Vec<u64> = (0..5)
            .map(|run| run * 32)
            .filter(|&offers| f.merger_stall_fires(offers, 32).is_some())
            .collect();
        assert_eq!(fired, vec![32], "the run spanning (32, 64] holds offer 50, once");
        let stall = f.merger_stall_fires(32, 32).expect("inside the span");
        assert_eq!((stall.after_offers, stall.ms), (50, 9), "logged at the scheduled number");
        assert!(f.merger_stall_fires(50, 32).is_none(), "span is open below");
        assert!(f.merger_stall_fires(18, 32).is_some(), "and closed above");
        assert!(f.merger_stall_fires(40, 0).is_none(), "an empty run spans nothing");
        // The kill is asked with the count the run would reach.
        assert!(!f.merger_kill_fires(0, 32 + 32), "offers 33..=64 stop short of 70");
        assert!(f.merger_kill_fires(0, 64 + 32), "70 lies inside (64, 96]");
    }

    #[test]
    fn merger_events_sort_canonically_with_worker_events() {
        let log = FaultLog::new();
        log.record(FaultEvent::MergerRespawn { incarnation: 1 });
        log.record(FaultEvent::MergerDeath { incarnation: 0 });
        log.record(FaultEvent::SnapshotRestore { incarnation: 1 });
        log.record(FaultEvent::Kill {
            worker: 0,
            incarnation: 0,
        });
        let sorted = log.sorted();
        assert_eq!(sorted.len(), 4);
        assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn lane_stall_and_slow_worker_make_it_active() {
        // A lane stall is a slow worker at millisecond scale.
        let mut f = RuntimeFaults::none();
        f.slow_worker = Some(SlowWorker {
            worker: 0,
            per_batch_us: 2000,
        });
        assert!(f.is_active());
        let mut f = RuntimeFaults::none();
        f.slow_worker = Some(SlowWorker {
            worker: 1,
            per_batch_us: 50,
        });
        assert!(f.is_active());
    }

    #[test]
    fn decisions_depend_on_seed_and_key() {
        let mut f = RuntimeFaults::none();
        f.drop_rate = 0.5;
        let picks: Vec<bool> = (0..64).map(|s| f.drops_packet(0, s, false)).collect();
        assert_eq!(
            picks,
            (0..64).map(|s| f.drops_packet(0, s, false)).collect::<Vec<_>>(),
            "same seed, same picks"
        );
        assert!(picks.iter().any(|&b| b) && picks.iter().any(|&b| !b));
        f.seed = 1;
        assert_ne!(
            picks,
            (0..64).map(|s| f.drops_packet(0, s, false)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn drop_last_only_fires_on_closing_packets() {
        let mut f = RuntimeFaults::none();
        f.drop_last_rate = 1.0;
        assert!(f.drops_packet(2, 9, true));
        assert!(!f.drops_packet(2, 9, false));
    }
}
