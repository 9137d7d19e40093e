//! Differential proof that state-compute replication is observationally
//! equivalent to merge-before-tcp: the same seed, workload and fault
//! schedule must yield the same delivered stream under both stateful
//! modes, across every steering policy.
//!
//! The serial reference is [`process_serial_stateful`] — parse, checksum,
//! digest, then the stateful stage applied in flow order. Merge-before-tcp
//! runs that stage serially on the merger after reassembly; replication
//! runs it on whichever lane carries the packet and relies on the
//! seq-watermark reconciler to deduplicate and order the replicated
//! transitions. Equivalence of the two is the paper's correctness claim
//! for moving stateful work off the serial stage.

use std::collections::{BTreeMap, BTreeSet};

use integration_tests::assert_strictly_increasing;
use mflow_runtime::{
    generate_frames, process_parallel, process_parallel_faulty, process_serial_stateful, Frame,
    PolicyKind, RunOutput, RuntimeConfig, RuntimeFaults, StatefulMode, WorkerKill,
};

/// Enough stateful rounds that a skipped, duplicated or reordered
/// transition would corrupt the digest, while keeping runs CI-fast.
const WORK: u32 = 24;

fn cfg_for(policy: PolicyKind, mode: StatefulMode) -> RuntimeConfig {
    RuntimeConfig {
        workers: 4,
        batch_size: 16,
        queue_depth: 4,
        policy,
        stateful_mode: mode,
        stateful_work: WORK,
        ..RuntimeConfig::default()
    }
}

/// Replays the dispatcher's batching walk (mirrors
/// `tests/tests/runtime_faults.rs`): which packets the fault plan deletes
/// at dispatch, and which micro-flow each survivor is tagged into. The
/// walk is stateful-mode-blind — both modes see the identical plan.
fn replay_dispatch(
    n: usize,
    batch_size: usize,
    faults: &RuntimeFaults,
) -> (BTreeSet<u64>, BTreeMap<u64, u64>) {
    let mut dropped = BTreeSet::new();
    let mut mf_of = BTreeMap::new();
    let mut mf_id = 0u64;
    let mut len = 0usize;
    for i in 0..n {
        let seq = i as u64;
        let last = len + 1 == batch_size || i + 1 == n;
        if faults.drops_packet(mf_id, seq, last) {
            dropped.insert(seq);
        } else {
            len += 1;
            mf_of.insert(seq, mf_id);
        }
        if last {
            mf_id += 1;
            len = 0;
        }
    }
    (dropped, mf_of)
}

/// Core per-mode contract: strictly ordered, duplicate-free, and every
/// delivered digest equals the serial *stateful* reference at that seq.
fn assert_ordered_correct(out: &RunOutput, frames: &[Frame], label: &str) {
    let serial = process_serial_stateful(frames, WORK);
    let reference: BTreeMap<u64, u64> = serial.digests.iter().map(|r| (r.seq, r.digest)).collect();
    assert_strictly_increasing(&out.digests, label);
    for r in &out.digests {
        assert_eq!(
            reference.get(&r.seq),
            Some(&r.digest),
            "{label}: stateful digest mismatch at seq {}",
            r.seq
        );
    }
    assert_eq!(out.telemetry.residue, 0, "{label}: items left parked");
    assert!(
        out.telemetry.lane_depths.iter().all(|&d| d == 0),
        "{label}: stale end-of-run lane depths {:?}",
        out.telemetry.lane_depths
    );
}

/// Mode-aware attribution: every missing seq is a planned dispatch drop,
/// covered by the merger's flush report (micro-flow IDs under
/// merge-before-tcp, skipped seqs under replication), or inside the
/// bounded in-flight window a killed worker takes with it.
fn assert_attributed(
    out: &RunOutput,
    n: usize,
    cfg: &RuntimeConfig,
    dropped: &BTreeSet<u64>,
    mf_of: &BTreeMap<u64, u64>,
    label: &str,
) {
    let present: BTreeSet<u64> = out.digests.iter().map(|r| r.seq).collect();
    let flushed_raw: BTreeSet<u64> = out.flushed_mfs.iter().copied().collect();
    let scr = cfg.stateful_mode == StatefulMode::StateComputeReplication;
    let mut unattributed_mfs = BTreeSet::new();
    for seq in 0..n as u64 {
        if present.contains(&seq) || dropped.contains(&seq) {
            continue;
        }
        let covered = if scr {
            flushed_raw.contains(&seq)
        } else {
            flushed_raw.contains(mf_of.get(&seq).expect("survivor must have a tag"))
        };
        if !covered {
            unattributed_mfs.insert(*mf_of.get(&seq).expect("survivor must have a tag"));
        }
    }
    let window = if out.workers_died > 0 {
        (cfg.queue_depth + 2) * out.workers_died
    } else {
        0
    };
    assert!(
        unattributed_mfs.len() <= window,
        "{label}: {} micro-flows lost without attribution ({window}-batch death window): {:?}",
        unattributed_mfs.len(),
        unattributed_mfs
    );
}

#[test]
fn both_modes_reproduce_the_serial_stateful_stream() {
    // The headline differential: same workload through every policy and
    // mode; delivered streams must be byte-identical to the serial
    // stateful reference and therefore to each other.
    let frames = generate_frames(1536, 64);
    for work in [0u32, WORK] {
        let reference = process_serial_stateful(&frames, work);
        for policy in PolicyKind::ALL {
            for mode in StatefulMode::ALL {
                let mut cfg = cfg_for(policy, mode);
                cfg.stateful_work = work;
                let out = process_parallel(&frames, &cfg).unwrap();
                assert_eq!(
                    out.digests, reference.digests,
                    "{policy}/{mode:?}/work={work}: diverged from serial"
                );
                assert_eq!(
                    out.telemetry.stateful_mode,
                    mode.name(),
                    "telemetry must report the active mode"
                );
                match mode {
                    StatefulMode::StateComputeReplication => {
                        assert_eq!(
                            out.telemetry.replicated_transitions,
                            frames.len() as u64,
                            "{policy}: every packet's transition replicates"
                        );
                        assert_eq!(out.telemetry.reconciled_dups, 0, "benign run has no dups");
                    }
                    StatefulMode::MergeBeforeTcp => {
                        assert_eq!(out.telemetry.replicated_transitions, 0);
                        assert_eq!(out.telemetry.reconciled_dups, 0);
                    }
                }
            }
        }
    }
}

#[test]
fn duplicated_microflows_reconcile_to_the_exact_stream() {
    // Every micro-flow dispatched twice: under replication the stateful
    // transition itself is computed twice, and the reconciler must drop
    // the second copy of every position without disturbing the first.
    let frames = generate_frames(800, 64);
    let reference = process_serial_stateful(&frames, WORK);
    for mode in StatefulMode::ALL {
        let cfg = cfg_for(PolicyKind::Mflow, mode);
        let mut faults = RuntimeFaults::none();
        faults.dup_mf_rate = 1.0;
        faults.flush_timeout_ms = Some(2000);
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_eq!(
            out.digests, reference.digests,
            "{mode:?}: duplication leaked into the stream"
        );
        assert!(out.flushed_mfs.is_empty(), "no loss, nothing to flush");
        if mode == StatefulMode::StateComputeReplication {
            assert_eq!(
                out.telemetry.replicated_transitions,
                2 * frames.len() as u64,
                "both copies of every transition reach the reconciler"
            );
            assert_eq!(
                out.telemetry.reconciled_dups,
                frames.len() as u64,
                "exactly the second copy of each position is dropped"
            );
        }
    }
}

#[test]
fn delayed_microflows_deliver_exactly_under_both_modes() {
    // Late redispatch reorders micro-flows without losing anything: the
    // reconciler parks replicated transitions and releases them in order.
    let frames = generate_frames(1000, 64);
    let reference = process_serial_stateful(&frames, WORK);
    for mode in StatefulMode::ALL {
        let cfg = cfg_for(PolicyKind::Mflow, mode);
        let mut faults = RuntimeFaults::none();
        faults.seed = 0x51ED;
        faults.late_mf_rate = 0.25;
        faults.late_by = 3;
        faults.flush_timeout_ms = Some(2000);
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_eq!(
            out.digests, reference.digests,
            "{mode:?}: delay leaked into the stream"
        );
        if mode == StatefulMode::StateComputeReplication {
            // General no-loss invariant: arrivals = deliveries + dups.
            assert_eq!(
                out.telemetry.replicated_transitions,
                frames.len() as u64 + out.telemetry.reconciled_dups,
                "replicated arrivals must be accounted for"
            );
        }
    }
}

#[test]
fn dispatch_time_loss_degrades_both_modes_to_the_same_stream() {
    // drop_last_rate = 1.0 deletes exactly the batch closers; with only
    // the end-of-stream flush for recovery, both modes must deliver
    // exactly the surviving packets — and replication must additionally
    // report the dropped positions as its skipped seqs.
    let frames = generate_frames(640, 64);
    let mut streams = Vec::new();
    for mode in StatefulMode::ALL {
        let mut cfg = cfg_for(PolicyKind::Mflow, mode);
        cfg.workers = 3;
        cfg.batch_size = 8;
        let mut faults = RuntimeFaults::none();
        faults.drop_last_rate = 1.0;
        faults.flush_timeout_ms = Some(2000);
        let (dropped, mf_of) = replay_dispatch(frames.len(), cfg.batch_size, &faults);
        let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
        assert_ordered_correct(&out, &frames, &format!("{mode:?}"));

        let expected: Vec<u64> = (0..frames.len() as u64)
            .filter(|s| !dropped.contains(s))
            .collect();
        let got: Vec<u64> = out.digests.iter().map(|r| r.seq).collect();
        assert_eq!(got, expected, "{mode:?}: loss beyond the plan");

        match mode {
            StatefulMode::StateComputeReplication => {
                // The reconciler's flush report is the dropped seqs it
                // skipped over. A drop past the last delivered packet
                // is never skipped *over* — the stream simply ends —
                // so the report covers exactly the interior gaps.
                let flushed: BTreeSet<u64> = out.flushed_mfs.iter().copied().collect();
                let horizon = out.digests.last().map_or(0, |r| r.seq);
                let interior: BTreeSet<u64> =
                    dropped.iter().copied().filter(|&s| s < horizon).collect();
                assert_eq!(
                    flushed, interior,
                    "skipped seqs must be exactly the interior drops"
                );
            }
            StatefulMode::MergeBeforeTcp => {
                // The merging counter reports whole flushed micro-flows.
                let n_mfs = mf_of.values().copied().collect::<BTreeSet<_>>().len();
                assert_eq!(out.flushed_mfs.len(), n_mfs);
            }
        }
        streams.push(out.digests);
    }
    assert_eq!(streams[0], streams[1], "modes diverged under identical loss");
}

#[test]
fn worker_kill_degrades_each_mode_to_an_ordered_correct_subset() {
    // A mid-run worker death plus background loss/dup/delay: each mode
    // must deliver an ordered, duplicate-free, digest-correct subsequence
    // with every gap attributable to the plan, a flush, or the bounded
    // window the dead worker took with it.
    let frames = generate_frames(1500, 64);
    for policy in [PolicyKind::Mflow, PolicyKind::Rss, PolicyKind::FalconFunc] {
        for mode in StatefulMode::ALL {
            let mut cfg = cfg_for(policy, mode);
            cfg.workers = 3;
            let faults = RuntimeFaults {
                seed: 0xF00D,
                drop_rate: 0.01,
                drop_last_rate: 0.03,
                dup_mf_rate: 0.05,
                late_mf_rate: 0.05,
                late_by: 2,
                kill: Some(WorkerKill {
                    worker: 0,
                    after_batches: 5,
                    incarnation: 0,
                }),
                flush_timeout_ms: Some(40),
                ..RuntimeFaults::none()
            };
            let (dropped, mf_of) = replay_dispatch(frames.len(), cfg.batch_size, &faults);
            let out = process_parallel_faulty(&frames, &cfg, &faults).unwrap();
            let label = format!("{policy}/{mode:?}");
            assert_ordered_correct(&out, &frames, &label);
            assert_attributed(&out, frames.len(), &cfg, &dropped, &mf_of, &label);
            assert!(out.workers_died <= 1, "{label}: one injected death at most");
        }
    }
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
