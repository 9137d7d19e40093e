//! Recovery equivalence: the merger failure domain's correctness proof.
//!
//! The contract under test: a fixed-seed run whose merger is killed (and
//! killed again on its replacement) must deliver a stream byte-identical
//! to the benign run of the same configuration — across every steering
//! policy and both stateful modes — with every restore
//! replaying at most one inter-checkpoint window, conservation balanced
//! through every respawn, and the fault log recording the full
//! death/respawn/restore lifecycle.
//!
//! The strict replay bound only holds while the dispatcher's backlog
//! pump stays idle (an engaged pump legitimately journals an unbounded
//! burst while a respawn backs off), so every config here sizes
//! `merger_depth` far above the frame count: the in-flight window can
//! never cross the pump's high-water mark.

use integration_tests::{for_each_cell, Cell};
use mflow_runtime::{
    generate_frames, process_parallel_faulty, FaultEvent, FaultLog, MergerKill, RuntimeConfig,
    RuntimeFaults, WorkerKill,
};
use proptest::prelude::*;

/// Checkpoint interval small enough that the kill points land several
/// windows in, so a restore that replayed more than one window would be
/// caught with room to spare.
const CHECKPOINT_EVERY: u64 = 32;

/// Enough stateful rounds that a lost, duplicated or reordered
/// transition would corrupt a digest.
const WORK: u32 = 8;

/// Supervised config whose backlog pump provably never engages:
/// `merger_depth / 2 = 4096` exceeds any frame count used here, so
/// `sent - recvd` cannot reach the pump's threshold and every journaled
/// offer is attributable to a merger incarnation's write-ahead append.
fn pump_idle_cfg() -> RuntimeConfig {
    RuntimeConfig {
        workers: 4,
        batch_size: 16,
        queue_depth: 4,
        merger_depth: 8192,
        stateful_work: WORK,
        heartbeat_interval_ms: Some(25),
        restart_budget: 32,
        restart_backoff_ms: 1,
        checkpoint_every: CHECKPOINT_EVERY,
        ..RuntimeConfig::default()
    }
}

/// The two-generation kill schedule: the original merger dies
/// mid-stream, and so does its replacement.
fn double_kill() -> RuntimeFaults {
    let mut faults = RuntimeFaults::none();
    faults.merger_kills = vec![
        MergerKill {
            after_offers: 100,
            incarnation: 0,
        },
        MergerKill {
            after_offers: 300,
            incarnation: 1,
        },
    ];
    faults
}

#[test]
fn killed_runs_match_benign_runs_across_the_full_matrix() {
    // Every cell: byte-identical ordered delivery with and without the
    // merger kills (both are the serial stream), both deaths healed, and
    // every restore inside one checkpoint window.
    let frames = generate_frames(2_000, 64);
    for_each_cell(pump_idle_cfg(), |cell| {
        let ctx = &cell.label;
        let benign = cell.run_exact(&frames, &RuntimeFaults::none());
        let killed = cell.run_exact(&frames, &double_kill());
        assert_eq!(killed.merger_deaths, 2, "{ctx}");
        assert!(
            killed.telemetry.merger_restarts >= 2,
            "both deaths must be healed ({ctx})"
        );
        // The strict recovery bound: each restore replays at most
        // the one window journaled since the last checkpoint.
        let bound = CHECKPOINT_EVERY * (killed.telemetry.merger_restarts + 1);
        assert!(
            killed.telemetry.restore_replayed_offers <= bound,
            "replayed {} offers, bound {bound} ({ctx})",
            killed.telemetry.restore_replayed_offers
        );
        assert!(
            killed.telemetry.restore_replayed_offers >= 2,
            "each journaled fatal offer must be replayed ({ctx})"
        );
        assert!(killed.checkpoints > 0, "{ctx}");
        // Benign supervised runs pay checkpoints but never restore.
        assert_eq!(benign.telemetry.restore_replayed_offers, 0, "{ctx}");
        assert_eq!(benign.merger_deaths, 0, "{ctx}");
    });
}

#[test]
fn fault_log_records_the_merger_lifecycle() {
    let frames = generate_frames(2_000, 64);
    let cfg = pump_idle_cfg();
    let log = FaultLog::new();
    let mut faults = double_kill();
    faults.log = Some(log.clone());
    let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
    assert_eq!(out.merger_deaths, 2);
    let events = log.sorted();
    let deaths: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            FaultEvent::MergerDeath { incarnation } => Some(*incarnation),
            _ => None,
        })
        .collect();
    let respawns: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            FaultEvent::MergerRespawn { incarnation } => Some(*incarnation),
            _ => None,
        })
        .collect();
    let restores: Vec<u64> = events
        .iter()
        .filter_map(|e| match e {
            FaultEvent::SnapshotRestore { incarnation } => Some(*incarnation),
            _ => None,
        })
        .collect();
    assert_eq!(deaths, vec![0, 1], "both scheduled kills fire");
    assert!(
        respawns.len() >= 2,
        "each death must log a respawn ({respawns:?})"
    );
    // Every successor (incarnation > 0) that took the lease restored
    // from the checkpoint layer and said so.
    assert!(
        restores.len() >= 2,
        "each respawn must log its restore ({restores:?})"
    );
    assert!(
        restores.iter().all(|&i| i >= 1),
        "incarnation 0 must never claim a restore"
    );
}

#[test]
fn conservation_balances_through_simultaneous_worker_and_merger_deaths() {
    // Worker kills (which genuinely lose in-flight packets, bounded by
    // the death window) and merger kills (which must lose nothing) in
    // the same run: the ledger has to balance across both domains.
    let frames = generate_frames(3_000, 64);
    let mut faults = double_kill();
    for worker in [0usize, 2] {
        faults.kills.push(WorkerKill {
            worker,
            after_batches: 3,
            incarnation: 0,
        });
    }
    faults.flush_timeout_ms = Some(40);
    let out = Cell::new(pump_idle_cfg()).run(&frames, &faults);
    assert_eq!(out.merger_deaths, 2);
    assert_eq!(out.workers_died, 2);
}

#[test]
fn degraded_paths_still_deliver_the_benign_stream() {
    // No supervision at all, and supervision with a zero respawn budget:
    // both degradations (dispatcher-side WAL pumping, final-assembly
    // serial merge) must still deliver byte-identically — a merger death
    // never costs packets, only parallelism.
    let frames = generate_frames(2_000, 64);
    let mut one_kill = RuntimeFaults::none();
    one_kill.merger_kills.push(MergerKill {
        after_offers: 100,
        incarnation: 0,
    });
    let unsupervised = RuntimeConfig {
        heartbeat_interval_ms: None,
        restart_budget: 0,
        ..pump_idle_cfg()
    };
    let no_budget = RuntimeConfig {
        restart_budget: 0,
        ..pump_idle_cfg()
    };
    for degraded in [unsupervised, no_budget] {
        for_each_cell(degraded, |cell| {
            let out = cell.run_exact(&frames, &one_kill);
            assert_eq!(out.merger_deaths, 1, "{}", cell.label);
            assert_eq!(out.telemetry.merger_restarts, 0, "{}", cell.label);
        });
    }
}

// ---------------------------------------------------------------------
// Snapshot round-trip: the state-layer invariant the runtime's restore
// path is built on, proven over arbitrary offer streams.
// ---------------------------------------------------------------------

use mflow::reassembly::{MergeCounter, MfTag, ScrReconciler};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Checkpointing a [`MergeCounter`] at *every* prefix of an
    /// arbitrary offer stream and feeding the restored snapshot the
    /// remaining suffix must reproduce the uninterrupted run exactly:
    /// same releases in the same order, same outcome tally.
    #[test]
    fn merge_counter_snapshot_round_trips_at_every_prefix(
        offers in prop::collection::vec((0u64..12, 0usize..4, any::<bool>()), 1..40),
        deadline in 0u64..6,
    ) {
        // 0 means no flush deadline; otherwise the stall clock runs.
        let fresh = || match deadline {
            0 => MergeCounter::new(),
            d => MergeCounter::with_flush_deadline(d),
        };
        // The uninterrupted reference run.
        let mut reference = fresh();
        let mut ref_out = Vec::new();
        for (i, &(id, lane, last)) in offers.iter().enumerate() {
            reference.offer(MfTag { id, lane, last }, i as u64, &mut ref_out);
        }
        for split in 0..=offers.len() {
            let mut original = fresh();
            let mut out = Vec::new();
            for (i, &(id, lane, last)) in offers[..split].iter().enumerate() {
                original.offer(MfTag { id, lane, last }, i as u64, &mut out);
            }
            // Checkpoint, then continue on the restored copy only.
            let mut restored = original.snapshot();
            for (i, &(id, lane, last)) in offers[split..].iter().enumerate() {
                restored.offer(MfTag { id, lane, last }, (split + i) as u64, &mut out);
            }
            prop_assert_eq!(
                &out, &ref_out,
                "split at {} diverged the release stream", split
            );
            prop_assert_eq!(restored.stats(), reference.stats(), "split at {}", split);
        }
    }

    /// Same invariant for the SCR reconciler: watermark, parked records
    /// and drop counters all survive the checkpoint boundary.
    #[test]
    fn reconciler_snapshot_round_trips_at_every_prefix(
        seqs in prop::collection::vec(0u64..24, 1..40),
    ) {
        let mut reference = ScrReconciler::new();
        let mut ref_out = Vec::new();
        for &s in &seqs {
            reference.offer(s, s + 1, s, &mut ref_out);
        }
        for split in 0..=seqs.len() {
            let mut original = ScrReconciler::new();
            let mut out = Vec::new();
            for &s in &seqs[..split] {
                original.offer(s, s + 1, s, &mut out);
            }
            let mut restored = original.snapshot();
            for &s in &seqs[split..] {
                restored.offer(s, s + 1, s, &mut out);
            }
            prop_assert_eq!(&out, &ref_out, "split at {} diverged", split);
            prop_assert_eq!(restored.stats(), reference.stats(), "split at {}", split);
        }
    }
}
