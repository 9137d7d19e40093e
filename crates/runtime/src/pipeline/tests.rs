//! Unit tests of the pipeline modules assembled: every one drives
//! `process_parallel*` end to end, so none belongs to `config`,
//! `dispatch`, `worker`, `merge` or `run` alone.

use crate::faults::{MergerKill, MergerStall, WorkerKill};
use crate::packet::generate_frames;
use crate::{
    process_parallel, process_parallel_faulty, process_serial, process_serial_stateful,
    BackpressurePolicy, PolicyKind, RuntimeConfig, RuntimeFaults,
};

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
    faults.kills.push(WorkerKill {
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
    // The smallest valid merger_depth, which no longer sizes anything
    // (the merge has no queue), on two-slot lanes: the dispatcher waits
    // on full lanes, yield then park, while tails merge in place.
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
        if policy != PolicyKind::Mflow {
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
        faults.kills.push(WorkerKill {
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
    faults.merger_kills.push(MergerKill {
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
    // serial merge — never MergerPoisoned, never a wedge. With a
    // stateful stage (merge-before-tcp) the replay must stage every
    // result exactly once.
    let frames = generate_frames(2_000, 32);
    let mut faults = RuntimeFaults::none();
    faults.merger_kills.push(MergerKill {
        after_offers: 50,
        incarnation: 0,
    });
    for stateful_work in [0, 24] {
        let serial = process_serial_stateful(&frames, stateful_work);
        let cfg = RuntimeConfig {
            workers: 3,
            batch_size: 32,
            queue_depth: 4,
            stateful_work,
            ..RuntimeConfig::default()
        };
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_eq!(out.digests, serial.digests, "stateful_work {stateful_work}");
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
}

#[test]
fn exhausted_budget_pumps_instead_of_respawning() {
    // Heartbeats on but zero respawn budget: the death is detected,
    // respawn is off the table, and the watchdog must degrade to
    // pumping the transport so producers never block forever.
    let frames = generate_frames(2_000, 32);
    let serial = process_serial(&frames);
    let mut faults = RuntimeFaults::none();
    faults.merger_kills.push(MergerKill {
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
    faults.merger_kills.push(MergerKill {
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
        assert!(out.merger_deaths >= 1, "{policy}: the kill must fire");
        assert!(out.telemetry.merger_restarts >= 1, "{policy}");
        assert_eq!(out.telemetry.residue, 0, "{policy}");
    }
}
