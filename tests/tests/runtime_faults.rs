//! Seed-driven stress tests for the threaded pipeline under injected
//! faults: packet loss (including targeted loss of batch-closing
//! packets), duplicated and late micro-flows, worker stalls and a mid-run
//! worker death.
//!
//! The degradation contract under test: every run terminates without
//! panicking or wedging, the output is a strictly ordered duplicate-free
//! subsequence of the serial output, and every missing packet is
//! attributable — it was deleted by the (replayable) dispatch-time fault
//! plan, belongs to a micro-flow the merger reports having flushed, or
//! sits in the bounded in-flight window a dead worker can take with it.

use std::collections::BTreeSet;

use integration_tests::{for_each_cell, replay_dispatch, Cell};
use mflow_runtime::{
    generate_frames, process_parallel_faulty, process_serial, BackpressurePolicy, FaultEvent,
    FaultLog, Frame, MflowError, PolicyKind, RuntimeConfig, RuntimeFaults, WorkerKill,
};

#[test]
fn stress_matrix_survives_loss_dups_lates_stalls_and_a_killed_worker() {
    let frames = generate_frames(2000, 64);
    let matrix = [(2usize, 8usize, 2usize), (3, 16, 4), (4, 32, 2), (2, 64, 8)];
    for (i, &(workers, batch_size, queue_depth)) in matrix.iter().enumerate() {
        let cfg = RuntimeConfig {
            workers,
            batch_size,
            queue_depth,
            ..RuntimeConfig::default()
        };
        let faults = RuntimeFaults {
            seed: 0xBEEF ^ i as u64,
            drop_rate: 0.01,
            drop_last_rate: 0.05,
            dup_mf_rate: 0.08,
            late_mf_rate: 0.08,
            late_by: 3,
            stall_rate: 0.1,
            stall_ms: 1,
            kills: vec![WorkerKill {
                worker: 0,
                after_batches: 4,
                incarnation: 0,
            }],
            flush_timeout_ms: Some(40),
            ..RuntimeFaults::none()
        };
        let out = Cell::new(cfg).run(&frames, &faults);
        assert!(
            out.workers_died <= 1,
            "config {:?}: only one worker was told to die",
            (workers, batch_size, queue_depth)
        );
        assert!(
            !out.digests.is_empty(),
            "config {:?}: run delivered nothing",
            (workers, batch_size, queue_depth)
        );
    }
}

#[test]
fn killed_worker_is_reported_and_its_queue_redispatched() {
    let frames = generate_frames(1200, 64);
    let cfg = RuntimeConfig {
        workers: 2,
        batch_size: 16,
        queue_depth: 2,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    faults.kills.push(WorkerKill {
        worker: 1,
        after_batches: 3,
        incarnation: 0,
    });
    faults.flush_timeout_ms = Some(40);
    let out = Cell::new(cfg).run(&frames, &faults);
    // With ~37 batches headed at the doomed lane the kill always
    // fires, and the dispatcher always hits the dead channel after.
    assert_eq!(out.workers_died, 1);
    assert!(out.telemetry.redispatched >= 1, "death must trigger redispatch");
}

#[test]
fn losing_every_batch_closer_flushes_every_microflow_exactly() {
    // drop_last_rate = 1.0 deletes precisely the packets the merging
    // counter cannot advance without: no micro-flow ever closes, and the
    // end-of-stream flush must release everything else, in order.
    let frames = generate_frames(640, 64);
    let cfg = RuntimeConfig {
        workers: 3,
        batch_size: 8,
        queue_depth: 4,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    faults.drop_last_rate = 1.0;
    // Long deadline: recovery comes from the end-of-stream flush
    // alone, keeping the run fully deterministic.
    faults.flush_timeout_ms = Some(2000);
    let (dropped, mf_of) = replay_dispatch(frames.len(), cfg.batch_size, &faults);
    let out = Cell::new(cfg).run(&frames, &faults);

    // Exactly the batch closers were deleted, nothing else missing.
    let expected: Vec<u64> = (0..frames.len() as u64)
        .filter(|s| !dropped.contains(s))
        .collect();
    let got: Vec<u64> = out.digests.iter().map(|r| r.seq).collect();
    assert_eq!(got, expected);
    assert_eq!(out.telemetry.fault_drops, dropped.len() as u64);

    // Every dispatched micro-flow was force-flushed and reported.
    let n_mfs = mf_of.values().copied().collect::<BTreeSet<_>>().len();
    assert_eq!(out.flushed_mfs.len(), n_mfs);
    assert_eq!(out.workers_died, 0);
}

#[test]
fn planned_drops_replayed_off_the_dispatcher_are_exact_and_counted_once() {
    // The dispatcher plans the drops but no longer applies them: whoever
    // reads a micro-flow's frames replays the decisions. Two cells make
    // someone other than the first lane head do the reading — a killed
    // worker's retained descriptors are redispatched and replayed on a
    // survivor, and an `Inline` dispatcher replays them itself. Either
    // way exactly the planned packets are missing, and each is counted
    // and logged once however often it was replayed.
    let frames = generate_frames(2000, 64);
    let kill = WorkerKill {
        worker: 1,
        after_batches: 3,
        incarnation: 0,
    };
    let cells = [
        (3usize, 4usize, BackpressurePolicy::Block, None, Some(kill)),
        (2, 2, BackpressurePolicy::Inline, Some(1usize), None),
    ];
    for (workers, queue_depth, backpressure, high_watermark, kill) in cells {
        let cfg = RuntimeConfig {
            workers,
            batch_size: 16,
            queue_depth,
            backpressure,
            high_watermark,
            ..RuntimeConfig::default()
        };
        let log = FaultLog::new();
        let faults = RuntimeFaults {
            seed: 0xD12095,
            drop_rate: 0.2,
            drop_last_rate: 0.3,
            kills: kill.into_iter().collect(),
            // Long deadline: only the end-of-stream flush releases the
            // micro-flows whose closer was dropped, so every surviving
            // packet is delivered and the comparison is exact.
            flush_timeout_ms: Some(2000),
            log: Some(log.clone()),
            ..RuntimeFaults::none()
        };
        let (dropped, _) = replay_dispatch(frames.len(), cfg.batch_size, &faults);
        assert!(dropped.len() > 300, "the plan must drop a real share");
        let out = Cell::new(cfg).run(&frames, &faults);

        let got: Vec<u64> = out.digests.iter().map(|r| r.seq).collect();
        let expected: Vec<u64> = (0..frames.len() as u64)
            .filter(|s| !dropped.contains(s))
            .collect();
        assert_eq!(got, expected, "{backpressure:?}: serial minus exactly the planned drops");

        assert_eq!(out.telemetry.fault_drops, dropped.len() as u64, "{backpressure:?}");
        let logged: Vec<u64> = log
            .sorted()
            .into_iter()
            .filter_map(|e| match e {
                FaultEvent::Drop { seq, .. } => Some(seq),
                _ => None,
            })
            .collect();
        assert_eq!(
            logged,
            dropped.iter().copied().collect::<Vec<_>>(),
            "{backpressure:?}: one Drop event per dropped packet, not one per replay"
        );
        match kill {
            Some(_) => {
                assert_eq!(out.workers_died, 1);
                assert!(out.telemetry.redispatched >= 1, "retained descriptors go to a survivor");
            }
            None => assert!(out.inline_batches > 0, "watermark 1 must engage inline"),
        }
    }
}

#[test]
fn duplicated_microflows_are_rejected_and_output_is_exact() {
    // Every micro-flow dispatched twice: whichever copy arrives first
    // wins, the other is rejected packet-for-packet, and the output is
    // bit-identical to the serial run.
    let frames = generate_frames(800, 64);
    let serial = process_serial(&frames);
    let cfg = RuntimeConfig {
        workers: 3,
        batch_size: 10,
        queue_depth: 4,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    faults.dup_mf_rate = 1.0;
    faults.flush_timeout_ms = Some(2000);
    let out = Cell::new(cfg).run(&frames, &faults);
    assert_eq!(out.digests, serial.digests);
    assert_eq!(
        out.telemetry.dup + out.telemetry.late,
        frames.len() as u64,
        "each packet's second copy must be rejected exactly once"
    );
    assert!(out.flushed_mfs.is_empty(), "no loss, nothing to flush");
}

#[test]
fn degradation_contract_holds_under_every_policy() {
    // Loss, duplication, late redispatch and a killed worker, in every
    // cell: whole-flow pinning concentrates everything on one lane and
    // MFLOW spreads it — the attribution contract must hold regardless.
    let frames = generate_frames(1_500, 64);
    let base = RuntimeConfig {
        workers: 3,
        batch_size: 16,
        queue_depth: 4,
        ..RuntimeConfig::default()
    };
    let faults = RuntimeFaults {
        seed: 0xF00D,
        drop_rate: 0.01,
        drop_last_rate: 0.03,
        dup_mf_rate: 0.05,
        late_mf_rate: 0.05,
        late_by: 2,
        kills: vec![WorkerKill {
            worker: 0,
            after_batches: 5,
            incarnation: 0,
        }],
        flush_timeout_ms: Some(40),
        ..RuntimeFaults::none()
    };
    for_each_cell(base, |cell| {
        let out = cell.run(&frames, &faults);
        assert!(out.workers_died <= 1, "{}: more deaths than injected", cell.label);
    });
}

#[test]
fn losing_every_worker_errs_on_fan_out_and_goes_inline_on_a_chain() {
    // Unsupervised, a run whose every worker died cannot deliver the
    // remainder. A supervised run's dispatcher takes over instead
    // (`supervision.rs`, `exhausted_budget_degrades_to_dispatcher_inline`).
    let frames = generate_frames(1200, 64);
    let cfg = RuntimeConfig {
        workers: 2,
        batch_size: 16,
        queue_depth: 2,
        policy: PolicyKind::Mflow,
        ..RuntimeConfig::default()
    };
    let faults = RuntimeFaults {
        kills: [0, 1]
            .map(|worker| WorkerKill {
                worker,
                after_batches: 2,
                incarnation: 0,
            })
            .to_vec(),
        flush_timeout_ms: Some(40),
        ..RuntimeFaults::none()
    };
    assert!(matches!(
        process_parallel_faulty(&frames, &cfg, &faults),
        Err(MflowError::NoLiveWorkers)
    ));
}

#[test]
fn unparseable_opening_frame_fails_on_its_worker_not_in_the_caller() {
    // A non-overlay record (ARP here) is ordinary outside input through
    // `frames_from_pcap`. The dispatcher reads one outer header per
    // micro-flow to steer; where the bad frame sits in its micro-flow
    // must not decide which thread pays for it. Frame 64 opens
    // micro-flow 2 at b=32, frame 65 is interior to it.
    let run = |poisoned: usize| {
        let mut frames = generate_frames(256, 64);
        let mut bytes = frames[poisoned].bytes().to_vec();
        bytes[12..14].copy_from_slice(&[0x08, 0x06]);
        frames[poisoned] = Frame::from_vec(poisoned as u64, bytes);
        let cfg = RuntimeConfig {
            batch_size: 32,
            ..RuntimeConfig::default()
        };
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_parallel_faulty(&frames, &cfg, &RuntimeFaults::none())
        }))
        .expect("an unhashable frame must not unwind into the caller")
        .expect("the surviving worker keeps the run Ok");
        // The survivor's results are delivered, not withheld behind the
        // dead lane's micro-flows: what is missing is exactly the
        // micro-flows the merger reports having given up on.
        assert_eq!(out.telemetry.residue, 0, "a finished run keeps nothing parked");
        let present: BTreeSet<u64> = out.digests.iter().map(|r| r.seq).collect();
        for seq in (0..frames.len() as u64).filter(|seq| !present.contains(seq)) {
            let mf = seq / cfg.batch_size as u64;
            assert!(out.flushed_mfs.contains(&mf), "seq {seq} missing, mf {mf} not flushed");
        }
        (out.digests.len(), out.workers_died, out.flushed_mfs)
    };
    let opening = run(64);
    assert_eq!(opening.1, 1, "the worker that parses the frame owns the failure");
    assert_eq!(opening, run(65), "opening vs interior position must not matter");
}
