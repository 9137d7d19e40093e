//! Differential proof that state-compute replication is observationally
//! equivalent to merge-before-tcp: the same seed, workload and fault
//! schedule must yield the same delivered stream under both stateful
//! modes, across every steering policy.
//!
//! The serial reference is [`process_serial_stateful`] — parse, checksum,
//! digest, then the stateful stage applied in flow order. Merge-before-tcp
//! runs that stage serially on the merger after reassembly; replication
//! runs it on whichever lane carries the packet and relies on the merging
//! counter to deduplicate and order the replicated transitions.
//! Equivalence of the two is the paper's correctness claim
//! for moving stateful work off the serial stage.

use integration_tests::{for_each_cell, replay_dispatch};
use mflow_runtime::{generate_frames, RuntimeConfig, RuntimeFaults, StatefulMode, WorkerKill};

/// Enough stateful rounds that a skipped, duplicated or reordered
/// transition would corrupt the digest, while keeping runs CI-fast.
const WORK: u32 = 24;

fn base_cfg() -> RuntimeConfig {
    RuntimeConfig {
        workers: 4,
        batch_size: 16,
        queue_depth: 4,
        stateful_work: WORK,
        ..RuntimeConfig::default()
    }
}

#[test]
fn both_modes_reproduce_the_serial_stateful_stream() {
    // The headline differential: same workload through every cell;
    // delivered streams must be byte-identical to the serial stateful
    // reference and therefore to each other.
    let frames = generate_frames(1536, 64);
    for stateful_work in [0u32, WORK] {
        let base = RuntimeConfig {
            stateful_work,
            ..base_cfg()
        };
        for_each_cell(base, |cell| {
            let out = cell.run_exact(&frames, &RuntimeFaults::none());
            let (ctx, mode) = (&cell.label, cell.cfg.stateful_mode);
            assert_eq!(
                out.telemetry.stateful_mode,
                mode.name(),
                "{ctx}: telemetry must report the active mode"
            );
            let replicated = match mode {
                // Every packet's transition replicates.
                StatefulMode::StateComputeReplication => frames.len() as u64,
                StatefulMode::MergeBeforeTcp => 0,
            };
            assert_eq!(out.telemetry.replicated_transitions, replicated, "{ctx}");
            assert_eq!(out.telemetry.reconciled_dups, 0, "{ctx}: benign run has no dups");
        });
    }
}

#[test]
fn duplicated_microflows_reconcile_to_the_exact_stream() {
    // Every micro-flow dispatched twice: under replication the stateful
    // transition itself is computed twice, and the reconciler must drop
    // the second copy of every position without disturbing the first.
    let frames = generate_frames(800, 64);
    let mut faults = RuntimeFaults::none();
    faults.dup_mf_rate = 1.0;
    faults.flush_timeout_ms = Some(2000);
    for_each_cell(base_cfg(), |cell| {
        let out = cell.run_exact(&frames, &faults);
        assert!(out.flushed_mfs.is_empty(), "{}: no loss, nothing to flush", cell.label);
        if cell.cfg.stateful_mode == StatefulMode::StateComputeReplication {
            assert_eq!(
                out.telemetry.replicated_transitions,
                2 * frames.len() as u64,
                "{}: both copies of every transition reach the reconciler",
                cell.label
            );
            assert_eq!(
                out.telemetry.reconciled_dups,
                frames.len() as u64,
                "{}: exactly the second copy of each position is dropped",
                cell.label
            );
        }
    });
}

#[test]
fn delayed_microflows_deliver_exactly_under_both_modes() {
    // Late redispatch reorders micro-flows without losing anything: the
    // reconciler parks replicated transitions and releases them in order.
    let frames = generate_frames(1000, 64);
    let mut faults = RuntimeFaults::none();
    faults.seed = 0x51ED;
    faults.late_mf_rate = 0.25;
    faults.late_by = 3;
    faults.flush_timeout_ms = Some(2000);
    for_each_cell(base_cfg(), |cell| {
        let out = cell.run_exact(&frames, &faults);
        if cell.cfg.stateful_mode == StatefulMode::StateComputeReplication {
            // General no-loss invariant: arrivals = deliveries + dups.
            assert_eq!(
                out.telemetry.replicated_transitions,
                frames.len() as u64 + out.telemetry.reconciled_dups,
                "{}: replicated arrivals must be accounted for",
                cell.label
            );
        }
    });
}

#[test]
fn dispatch_time_loss_degrades_both_modes_to_the_same_stream() {
    // drop_last_rate = 1.0 deletes exactly the batch closers; with only
    // the end-of-stream flush for recovery, both modes must deliver
    // exactly the surviving packets and report the same flushed
    // micro-flows: every one that was dispatched.
    let frames = generate_frames(640, 64);
    let mut faults = RuntimeFaults::none();
    faults.drop_last_rate = 1.0;
    faults.flush_timeout_ms = Some(2000);
    let base = RuntimeConfig {
        workers: 3,
        batch_size: 8,
        ..base_cfg()
    };
    let (dropped, mf_of) = replay_dispatch(frames.len(), base.batch_size, &faults);
    let expected: Vec<u64> = (0..frames.len() as u64)
        .filter(|s| !dropped.contains(s))
        .collect();
    // The merging counter reports whole flushed micro-flows.
    let mut dispatched: Vec<u64> = mf_of.values().copied().collect();
    dispatched.dedup();
    let mut streams = Vec::new();
    for_each_cell(base, |cell| {
        let ctx = &cell.label;
        let out = cell.run(&frames, &faults);
        let got: Vec<u64> = out.digests.iter().map(|r| r.seq).collect();
        assert_eq!(got, expected, "{ctx}: loss beyond the plan");
        assert_eq!(out.flushed_mfs, dispatched, "{ctx}: flushed micro-flow ids");
        streams.push(out.digests);
    });
    assert!(
        streams.windows(2).all(|pair| pair[0] == pair[1]),
        "cells diverged under identical loss"
    );
}

#[test]
fn worker_kill_degrades_each_mode_to_an_ordered_correct_subset() {
    // A mid-run worker death plus background loss/dup/delay: each cell
    // must deliver an ordered, duplicate-free, digest-correct subsequence
    // with every gap attributable to the plan, a flush, or the bounded
    // window the dead worker took with it.
    let frames = generate_frames(1500, 64);
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
    let base = RuntimeConfig {
        workers: 3,
        ..base_cfg()
    };
    for_each_cell(base, |cell| {
        let out = cell.run(&frames, &faults);
        assert!(out.workers_died <= 1, "{}: one injected death at most", cell.label);
    });
}

#[test]
fn simulator_replicates_transitions_on_every_lane() {
    // The netstack engine's side of the tentpole: under replication the
    // merge core reconciles per-lane TCP state advances instead of running
    // the full receive path, and the report says so.
    use integration_tests::quick;
    use mflow::{try_install, MflowConfig};
    use mflow_netstack::{FlowSpec, PathKind, StackConfig, StackSim};

    let mk = || quick(StackConfig::single_flow(PathKind::Overlay, FlowSpec::tcp(65536, 0)));

    let mut scr_cfg = MflowConfig::tcp_full_path();
    scr_cfg.stateful_mode = StatefulMode::StateComputeReplication;
    let (policy, merge) = try_install(scr_cfg).expect("stock config stays valid under scr");
    let scr = StackSim::try_run(mk(), policy, Some(merge)).expect("valid stack config");
    assert_eq!(scr.telemetry.stateful_mode, "scr");
    assert!(scr.telemetry.delivered > 0, "scr run must make progress");
    assert!(
        scr.telemetry.replicated_transitions > 0,
        "lanes must replicate state advances"
    );

    let (policy, merge) = try_install(MflowConfig::tcp_full_path()).expect("stock config");
    let mbt = StackSim::try_run(mk(), policy, Some(merge)).expect("valid stack config");
    assert_eq!(mbt.telemetry.stateful_mode, "merge-before-tcp");
    assert_eq!(mbt.telemetry.replicated_transitions, 0);
    // Hiding splitting from the TCP receiver is merge-before-tcp's
    // defining property; replication instead absorbs the disorder in the
    // per-lane replicas and the receive-side reconciliation.
    assert_eq!(mbt.tcp_ooo_inserts, 0, "reassembly must hide splitting from TCP");
    // Replication exists to relieve the serial stage; it must not wreck
    // goodput on the paper's stock single-flow configuration.
    assert!(
        scr.goodput_gbps > 0.5 * mbt.goodput_gbps,
        "scr goodput collapsed: {:.2} vs {:.2} Gbps",
        scr.goodput_gbps,
        mbt.goodput_gbps
    );
}
