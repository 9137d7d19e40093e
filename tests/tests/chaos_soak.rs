//! Fixed-seed chaos soak, test-harness edition: the same seed-derived
//! fault schedules the `mflow_cli --chaos-soak` harness runs, asserted
//! as a tier-1 test. The headline scenario is the issue's acceptance
//! criterion: a run that kills *every* worker completes with
//! conservation intact, `restarts >= n_workers`, and post-recovery
//! dispatch throughput within 20% of the pre-fault rate.

use std::collections::{BTreeMap, BTreeSet};

use integration_tests::assert_strictly_increasing;
use mflow_runtime::{
    generate_frames, process_parallel_faulty, process_serial, Frame, PolicyKind, RuntimeConfig,
    RuntimeFaults, WorkerKill,
};

/// SplitMix64, matching the CLI harness's per-cell seed derivation.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Replays the dispatcher's batching walk (mirrors
/// `tests/runtime_faults.rs`).
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

/// The conservation check: strictly ordered duplicate-free output,
/// digests matching the serial reference, every missing packet
/// attributable, no residue, no stale lane depths.
fn check_conservation(
    frames: &[Frame],
    cfg: &RuntimeConfig,
    faults: &RuntimeFaults,
) -> mflow_runtime::RunOutput {
    let serial = process_serial(frames);
    let reference: BTreeMap<u64, u64> = serial.digests.iter().map(|r| (r.seq, r.digest)).collect();
    let (dropped, mf_of) = replay_dispatch(frames.len(), cfg.batch_size, faults);
    let out = process_parallel_faulty(frames, cfg, faults).unwrap();

    assert_strictly_increasing(&out.digests, "check_conservation");
    for r in &out.digests {
        assert_eq!(reference.get(&r.seq), Some(&r.digest), "digest mismatch at seq {}", r.seq);
    }
    assert_eq!(out.telemetry.residue, 0, "items left parked in the merger");

    let present: BTreeSet<u64> = out.digests.iter().map(|r| r.seq).collect();
    let flushed: BTreeSet<u64> = out.flushed_mfs.iter().copied().collect();
    let mut unattributed = BTreeSet::new();
    for seq in 0..frames.len() as u64 {
        if present.contains(&seq) || dropped.contains(&seq) {
            continue;
        }
        let mf = *mf_of.get(&seq).expect("surviving packet must have a tag");
        if !flushed.contains(&mf) {
            unattributed.insert(mf);
        }
    }
    let window = (cfg.queue_depth + 2) * out.workers_died;
    assert!(
        unattributed.len() <= window,
        "{} micro-flows lost without attribution ({}-batch death window): {:?}",
        unattributed.len(),
        window,
        unattributed
    );
    assert!(
        out.telemetry.lane_depths.iter().all(|&d| d == 0),
        "stale end-of-run lane depths {:?}",
        out.telemetry.lane_depths
    );
    out
}

#[test]
fn killing_every_worker_heals_conserves_and_recovers_throughput() {
    // The acceptance scenario: every fan-out worker is killed, staggered
    // so a pre-fault dispatch window exists. The supervisor must heal
    // all of them, the conservation contract must hold, and the
    // post-respawn dispatch rate must land within 20% of pre-fault.
    //
    // Sizing note: both rate windows must measure *steady-state*
    // dispatch. The pre-fault window runs from start to the first
    // observed death, so it includes the startup burst where the
    // dispatcher fills every empty lane queue without blocking — pooled
    // zero-copy dispatch made that burst several times faster than the
    // Vec-per-frame datapath this test was first sized for, and with
    // kills at ~30 batches the burst dominated the window and inflated
    // the pre-fault rate past what any steady post-recovery rate could
    // match. Kills land late enough that steady-state dispatch
    // dominates the pre window, and the frame count keeps the
    // post-respawn window long enough to amortize respawn backoff.
    let workers = 4usize;
    let frames = generate_frames(60_000, 64);
    let cfg = RuntimeConfig {
        workers,
        batch_size: 32,
        queue_depth: 8,
        policy: PolicyKind::Mflow,
        heartbeat_interval_ms: Some(25),
        restart_budget: 16,
        restart_backoff_ms: 1,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    for slot in 0..workers {
        faults.kills.push(WorkerKill {
            worker: slot,
            after_batches: 100 + 50 * slot as u64,
            incarnation: 0,
        });
    }
    faults.flush_timeout_ms = Some(40);
    // Conservation, healing and window existence are strict on every
    // attempt. The 20% throughput bound is a wall-clock assertion:
    // under full-suite CPU contention either window can be deflated
    // by whatever else the scheduler interleaves, so it gets a small
    // retry budget — a real post-recovery bottleneck fails every
    // attempt, a scheduler artifact does not repeat.
    let mut rates = Vec::new();
    let recovered = (0..3).any(|_| {
        let out = check_conservation(&frames, &cfg, &faults);
        assert_eq!(out.workers_died, workers, "every scheduled kill must fire");
        assert!(
            out.telemetry.restarts >= workers as u64,
            "supervisor healed {} of {workers} deaths",
            out.telemetry.restarts
        );
        let pre = out.recovery.prefault_rate();
        let post = out.recovery.recovered_rate();
        assert!(
            pre > 0.0 && post > 0.0,
            "both rate windows must be measured (pre {pre}, post {post})"
        );
        rates.push((pre, post));
        post >= 0.8 * pre
    });
    assert!(
        recovered,
        "post-recovery dispatch rate fell more than 20% below \
         the pre-fault rate on every attempt: {rates:?}"
    );
}

#[test]
fn fixed_seed_soak_over_every_policy() {
    // The CLI harness's schedule, in miniature: one seed-derived kill
    // per materialised worker slot plus background drops, dups, lates
    // and stalls, over every policy.
    let soak_seed = 42u64;
    let frames = generate_frames(1_500, 64);
    for policy in PolicyKind::ALL {
        let cfg = RuntimeConfig {
            workers: 4,
            batch_size: 32,
            queue_depth: 8,
            policy,
            heartbeat_interval_ms: Some(25),
            restart_budget: 32,
            restart_backoff_ms: 1,
            ..RuntimeConfig::default()
        };
        let seed = splitmix(soak_seed ^ policy.name().len() as u64);
        let kills = (0..policy.worker_slots(cfg.workers))
            .map(|slot| WorkerKill {
                worker: slot,
                after_batches: 2 + splitmix(seed ^ slot as u64) % 6,
                incarnation: 0,
            })
            .collect();
        let faults = RuntimeFaults {
            seed,
            drop_rate: 0.01,
            drop_last_rate: 0.02,
            dup_mf_rate: 0.03,
            late_mf_rate: 0.03,
            late_by: 3,
            stall_rate: 0.01,
            stall_ms: 1,
            kills,
            flush_timeout_ms: Some(40),
            ..RuntimeFaults::none()
        };
        let out = check_conservation(&frames, &cfg, &faults);
        // Traffic-bearing slots must have died and been healed:
        // MFLOW spreads over every lane, FALCON chains pipe through
        // every stage, pinned policies concentrate on one lane.
        let expected = match policy {
            PolicyKind::Mflow => cfg.workers as u64,
            PolicyKind::FalconDev | PolicyKind::FalconFunc => {
                policy.worker_slots(cfg.workers) as u64
            }
            _ => 1,
        };
        assert!(
            out.telemetry.restarts >= expected,
            "{policy}: healed {} slots, expected at least {expected}",
            out.telemetry.restarts
        );
    }
}
