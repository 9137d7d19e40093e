//! Supervised self-healing: heartbeat-driven death detection, respawn
//! with backoff, FALCON stage re-homing, graceful degradation to
//! dispatcher-inline processing when the restart budget is exhausted,
//! and the run-to-run determinism of the injected fault schedule.
//!
//! The healing contract under test: a supervised run survives every
//! scheduled worker death without wedging, the output stays a strictly
//! ordered duplicate-free subsequence of the serial output, every
//! missing packet is attributable, and the supervisor's accounting
//! (restarts, respawned vs abandoned) matches what actually happened.

use std::time::Duration;

use integration_tests::{cell, Cell, CELLS};
use mflow_runtime::{
    generate_frames, process_parallel_faulty, BackpressurePolicy, FaultLog, Frame, MergerKill,
    PolicyKind, RuntimeConfig, RuntimeFaults, WorkerKill,
};
use proptest::prelude::*;

/// A supervised baseline: heartbeats on, respawns allowed, short
/// backoff so recovery happens well inside a test-sized run.
fn supervised_cfg(policy: PolicyKind) -> RuntimeConfig {
    RuntimeConfig {
        workers: 4,
        batch_size: 16,
        queue_depth: 4,
        policy,
        heartbeat_interval_ms: Some(25),
        restart_budget: 16,
        restart_backoff_ms: 1,
        ..RuntimeConfig::default()
    }
}

/// Runs the supervised pipeline and checks the full degradation
/// contract ([`Cell::run`]), plus supervisor bookkeeping:
/// every death is classified as either respawned or abandoned, and the
/// restart counter equals the respawn count.
fn check_supervised(
    frames: &[Frame],
    cfg: &RuntimeConfig,
    faults: &RuntimeFaults,
) -> mflow_runtime::RunOutput {
    let out = Cell::new(*cfg).run(frames, faults);

    // Supervisor bookkeeping: every death has exactly one disposition,
    // and `restarts` counts the respawns.
    assert_eq!(
        out.workers_respawned + out.workers_abandoned,
        out.workers_died,
        "every death must be classified respawned or abandoned"
    );
    assert_eq!(
        out.telemetry.restarts, out.workers_respawned as u64,
        "restart counter must equal the respawn count"
    );
    out
}

#[test]
fn killed_fanout_worker_is_respawned_and_the_run_stays_whole() {
    let frames = generate_frames(2_000, 64);
    let cfg = supervised_cfg(PolicyKind::Mflow);
    let mut faults = RuntimeFaults::none();
    faults.kills.push(WorkerKill {
        worker: 0,
        after_batches: 3,
        incarnation: 0,
    });
    faults.flush_timeout_ms = Some(40);
    let out = check_supervised(&frames, &cfg, &faults);
    assert_eq!(out.workers_died, 1, "exactly one scheduled death");
    assert_eq!(out.workers_respawned, 1, "the supervisor must heal the slot");
    assert!(!out.digests.is_empty(), "run delivered nothing");
}

#[test]
fn falcon_chain_rehomes_a_killed_interior_stage() {
    // FALCON pipelines every batch through each stage, so an interior
    // stage death severs the chain; the supervisor must splice in a
    // replacement worker and re-link the stage, not just observe it.
    let frames = generate_frames(2_000, 64);
    for policy in [PolicyKind::FalconDev, PolicyKind::FalconFunc] {
        let cfg = supervised_cfg(policy);
        let mut faults = RuntimeFaults::none();
        faults.kills.push(WorkerKill {
            worker: 1, // interior stage for both chain shapes
            after_batches: 2,
            incarnation: 0,
        });
        faults.flush_timeout_ms = Some(40);
        let out = check_supervised(&frames, &cfg, &faults);
        assert_eq!(out.workers_died, 1, "{policy}: exactly one scheduled death");
        assert_eq!(
            out.workers_respawned, 1,
            "{policy}: the chain stage must be re-homed"
        );
        assert!(!out.digests.is_empty(), "{policy}: run delivered nothing");
    }
}

#[test]
fn respawned_incarnation_can_be_killed_again() {
    // A chaos schedule targeting incarnation 1 kills the *replacement*:
    // the supervisor must heal the slot twice, with the second respawn
    // backed off but still inside the budget.
    let frames = generate_frames(3_000, 64);
    let cfg = supervised_cfg(PolicyKind::Mflow);
    let mut faults = RuntimeFaults::none();
    for incarnation in [0, 1] {
        faults.kills.push(WorkerKill {
            worker: 0,
            after_batches: 2,
            incarnation,
        });
    }
    faults.flush_timeout_ms = Some(40);
    let out = check_supervised(&frames, &cfg, &faults);
    assert_eq!(out.workers_died, 2, "both incarnations die");
    assert!(
        out.workers_respawned >= 1,
        "at least the first death must be healed"
    );
}

#[test]
fn exhausted_budget_degrades_to_dispatcher_inline() {
    // Supervision on (heartbeats run) but the restart budget is zero:
    // when every worker dies the run must not abort with NoLiveWorkers —
    // the degradation ladder ends at dispatcher-inline processing, and
    // every death is accounted as abandoned.
    let frames = generate_frames(1_500, 64);
    let cfg = RuntimeConfig {
        workers: 2,
        batch_size: 16,
        queue_depth: 2,
        policy: PolicyKind::Mflow,
        heartbeat_interval_ms: Some(25),
        restart_budget: 0,
        restart_backoff_ms: 1,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    for worker in 0..cfg.workers {
        faults.kills.push(WorkerKill {
            worker,
            after_batches: 2,
            incarnation: 0,
        });
    }
    faults.flush_timeout_ms = Some(40);
    let out = check_supervised(&frames, &cfg, &faults);
    assert_eq!(out.workers_died, 2, "both workers die");
    assert_eq!(out.workers_respawned, 0, "no budget, no respawn");
    assert_eq!(out.workers_abandoned, 2, "both abandoned");
    assert!(!out.digests.is_empty(), "inline degradation must still deliver");
    // The tail of the stream has no workers left; it can only have
    // arrived via the dispatcher's inline path.
    assert!(out.telemetry.inline > 0, "tail frames must be processed inline");
}

#[test]
fn post_respawn_batches_merge_promptly_on_the_ring() {
    // A parked ring merger must observe a respawned producer without
    // waiting out its flush deadline. Single worker, per-batch stalls
    // pacing dispatch so the respawn happens mid-stream, and a flush
    // deadline far above the run's natural length: if the merger missed
    // the re-wired producer's wakeup it would sleep out the 2 s deadline
    // at least once, which the elapsed-time bound catches.
    let frames = generate_frames(800, 64);
    let cfg = RuntimeConfig {
        workers: 1,
        batch_size: 16,
        queue_depth: 2,
        policy: PolicyKind::Mflow,
        heartbeat_interval_ms: Some(25),
        restart_budget: 16,
        restart_backoff_ms: 1,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    faults.kills.push(WorkerKill {
        worker: 0,
        after_batches: 2,
        incarnation: 0,
    });
    faults.stall_rate = 1.0; // every batch sleeps, pacing the dispatcher
    faults.stall_ms = 3;
    faults.flush_timeout_ms = Some(2_000);
    let out = check_supervised(&frames, &cfg, &faults);
    assert!(
        out.workers_respawned >= 1,
        "the paced run must respawn mid-stream"
    );
    assert!(
        out.elapsed < Duration::from_millis(1_500),
        "post-respawn batches took {:?} — the merger slept out its flush \
         deadline instead of waking on the re-wired producer",
        out.elapsed
    );
}

#[test]
fn fault_schedule_is_deterministic_across_runs() {
    // Same seed, same schedule: the canonically sorted fault-event log
    // must be identical across two runs. Dispatch-time decisions
    // (drops, dups, lates) are checked under MFLOW steering; worker-side
    // stalls under RPS, whose single-flow pin makes the stalling worker
    // schedule-determined too.
    let frames = generate_frames(1_200, 64);
    let cases = [
        // (policy, drop, drop_last, dup, late, stall)
        (PolicyKind::Mflow, 0.05, 0.05, 0.1, 0.1, 0.0),
        (PolicyKind::Rps, 0.0, 0.0, 0.0, 0.0, 0.3),
    ];
    for (policy, drop_rate, drop_last_rate, dup_mf_rate, late_mf_rate, stall_rate) in cases {
        let mut logs = Vec::new();
        for _run in 0..2 {
            let cfg = supervised_cfg(policy);
            let log = FaultLog::new();
            let faults = RuntimeFaults {
                seed: 0xC0FFEE,
                drop_rate,
                drop_last_rate,
                dup_mf_rate,
                late_mf_rate,
                late_by: 2,
                stall_rate,
                stall_ms: 1,
                flush_timeout_ms: Some(40),
                log: Some(log.clone()),
                ..RuntimeFaults::none()
            };
            process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            logs.push(log.sorted());
        }
        assert!(
            !logs[0].is_empty(),
            "{policy}: the schedule must fire something for the comparison to mean anything"
        );
        assert_eq!(
            logs[0], logs[1],
            "{policy}: same seed produced different fault schedules across runs"
        );
    }
}

#[test]
fn merger_fault_schedule_is_deterministic_across_runs() {
    // Merger kills are keyed to absolute applied-offer counts, so the
    // full death/respawn/restore lifecycle — which incarnations died,
    // which replaced them, which restored — must come out identical
    // across two runs. Kills only: wedge (stall) healing is
    // wall-clock-driven and legitimately timing-dependent. The stall
    // watchdog stays off (budget-only supervision) so a loaded host
    // cannot inject spurious supersede events.
    let frames = generate_frames(1_200, 64);
    let mut logs = Vec::new();
    for _run in 0..2 {
        let cfg = RuntimeConfig {
            heartbeat_interval_ms: None,
            ..supervised_cfg(PolicyKind::Mflow)
        };
        let log = FaultLog::new();
        let mut faults = RuntimeFaults::none();
        faults.merger_kills = vec![
            MergerKill {
                after_offers: 150,
                incarnation: 0,
            },
            MergerKill {
                after_offers: 500,
                incarnation: 1,
            },
        ];
        faults.log = Some(log.clone());
        process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        logs.push(log.sorted());
    }
    assert!(
        logs[0].len() >= 6,
        "two kills must log two deaths, two respawns and two restores: {:?}",
        logs[0]
    );
    assert_eq!(logs[0], logs[1], "merger lifecycle diverged across runs");
}

#[test]
fn merger_kill_with_one_slot_queues_never_wedges() {
    // What once wedged a run: the merger dies first thing, behind lanes
    // of one slot, under every backpressure policy, supervised (a
    // successor restores) and not (final assembly merges). No offer
    // waits on the merge, so no worker, lane or dispatcher send can back
    // up behind a dead one: the call returns and owes the full contract.
    let frames = generate_frames(1_500, 64);
    let mut faults = RuntimeFaults::none();
    faults.merger_kills.push(MergerKill {
        after_offers: 1,
        incarnation: 0,
    });
    let backpressure = [
        BackpressurePolicy::Block,
        BackpressurePolicy::DropTail { budget: 64 },
        BackpressurePolicy::Inline,
    ];
    for backpressure in backpressure {
        for (restart_budget, heartbeat_interval_ms) in [(16, Some(25)), (0, None)] {
            let cfg = RuntimeConfig {
                queue_depth: 1,
                merger_depth: 1,
                backpressure,
                restart_budget,
                heartbeat_interval_ms,
                ..supervised_cfg(PolicyKind::Mflow)
            };
            let out = check_supervised(&frames, &cfg, &faults);
            assert_eq!(
                out.merger_deaths, 1,
                "{backpressure:?}, budget {restart_budget}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation and per-lane FIFO survive arbitrary restart
    /// schedules: any mix of kills across slots and incarnations, in
    /// any cell and restart budget (including zero — the
    /// budget-exhausted inline-degradation path).
    #[test]
    fn conservation_holds_under_random_restart_schedules(
        seed in any::<u64>(),
        cell_ix in 0usize..CELLS,
        workers in 2usize..=4,
        batch_size in 8usize..=24,
        budget_ix in 0usize..4,
        kill_points in prop::collection::vec((0usize..4, 2u64..8, 0u64..2), 1..5),
    ) {
        let budget = [0u32, 1, 2, 16][budget_ix];
        let cfg = cell(
            RuntimeConfig {
                workers,
                batch_size,
                queue_depth: 4,
                heartbeat_interval_ms: Some(25),
                restart_budget: budget,
                restart_backoff_ms: 1,
                ..RuntimeConfig::default()
            },
            cell_ix,
        )
        .cfg;
        let slots = cfg.policy.worker_slots(workers);
        let mut faults = RuntimeFaults::none();
        for (slot, after_batches, incarnation) in kill_points {
            faults.kills.push(WorkerKill {
                worker: slot % slots,
                after_batches,
                incarnation,
            });
        }
        faults.flush_timeout_ms = Some(40);
        let frames = generate_frames(600, 64);
        check_supervised(&frames, &cfg, &faults);
    }
}
