//! Short calls on reused threads.
//!
//! `process_parallel*` runs its workers as jobs on a crew of parked
//! threads that outlive the call (the merge runs on them too), so the
//! thread that served — or panicked in — call *k* serves call *k + 1*. The contract under test:
//! nothing of a call survives into the next. Back-to-back 64 KB messages
//! (46 x 1448 B at batch 8, the repo benchmark's `msg64k` shape) on one
//! pool deliver the serial stream in position on every call, whatever
//! happened to the threads in the call before, and the pool holds exactly
//! the caller's frames in between.
//!
//! A message this short is also the case where dispatch has always ended
//! before an injected worker death fires, so no send ever bounces off the
//! dead lane: the kill calls below are the regression test for the
//! teardown pass that runs such a lane's retained window inline.

use integration_tests::for_each_cell;
use mflow_runtime::{
    frame_wire_len, generate_frames_into, process_parallel, process_serial_stateful, BufPool,
    MergerKill, RuntimeConfig, RuntimeFaults, WorkerKill,
};

const FRAMES: usize = 46;
const PAYLOAD: usize = 1448;
const WORKERS: usize = 2;
/// Enough stateful rounds that a lost, duplicated or reordered
/// transition would corrupt a digest.
const WORK: u32 = 8;
const CALLS_PER_CELL: usize = 30;

/// What call `k` of a cell injects: nothing, one worker death, one
/// merger death, in rotation. The worker kill alternates between slots 0
/// and 1: a fan-out policy's two lane heads (a whole-flow policy leaves
/// one of them idle, where the kill cannot fire), a chain's head and its
/// later stage.
fn faults_of_call(k: usize) -> RuntimeFaults {
    let mut faults = RuntimeFaults::none();
    // Equality with the serial stream means the merger never flushes, so
    // the mid-stream flush deadline must be one that no slow unwind can
    // reach: a dying worker that prints a backtrace in a loaded debug
    // build takes longer than the default 100 ms to be joined. (End of
    // stream still flushes whatever is really missing, at once.)
    faults.flush_timeout_ms = Some(30_000);
    match k % 3 {
        1 => faults.kills.push(WorkerKill {
            worker: (k / 3) % WORKERS,
            after_batches: 1,
            incarnation: 0,
        }),
        2 => faults.merger_kills.push(MergerKill {
            after_offers: 16,
            incarnation: 0,
        }),
        _ => {}
    }
    faults
}

#[test]
fn every_cell_serves_back_to_back_calls_through_deaths() {
    let pool = BufPool::for_frames(FRAMES, frame_wire_len(PAYLOAD));
    let frames = generate_frames_into(&pool, FRAMES, PAYLOAD);
    assert_eq!(pool.in_flight(), FRAMES as u64);
    // Six micro-flows never fill a lane (`queue_depth` 8), so no overload
    // policy ever engages: the backpressure axis is walked because each
    // policy takes its own path through `Dispatcher::offer`, not to shed.
    let base = RuntimeConfig {
        workers: WORKERS,
        batch_size: 8,
        queue_depth: 8,
        stateful_work: WORK,
        // The benchmark's supervision settings: a deadline no
        // descheduled worker can miss by accident.
        heartbeat_interval_ms: Some(1000),
        restart_budget: 8,
        checkpoint_every: 16,
        ..RuntimeConfig::default()
    };
    for_each_cell(base, |cell| {
        let (mut worker_deaths, mut merger_deaths) = (0, 0);
        for k in 0..CALLS_PER_CELL {
            // In position on every call, and the pool holding exactly the
            // caller's frames after it: `run_exact` checks both.
            let out = cell.run_exact(&frames, &faults_of_call(k));
            worker_deaths += out.workers_died;
            merger_deaths += out.merger_deaths;
        }
        // The deaths did happen, so the calls after them ran on
        // threads that had just unwound a panic.
        let ctx = &cell.label;
        assert!(
            worker_deaths >= CALLS_PER_CELL / 6,
            "{ctx}: {worker_deaths} worker kills fired"
        );
        assert_eq!(merger_deaths, CALLS_PER_CELL / 3, "{ctx}");
    });
    assert_eq!(pool.in_flight(), FRAMES as u64);
}

#[test]
fn concurrent_callers_share_the_crew() {
    // Four callers at once: the crew must grow to all their jobs (two
    // per call in flight together) and never hand one call's job to a
    // thread another call is still waiting on.
    let pool = BufPool::for_frames(FRAMES, frame_wire_len(PAYLOAD));
    let frames = generate_frames_into(&pool, FRAMES, PAYLOAD);
    let serial = process_serial_stateful(&frames, 0).digests;
    let cfg = RuntimeConfig {
        workers: WORKERS,
        batch_size: 8,
        ..RuntimeConfig::default()
    };
    std::thread::scope(|s| {
        for caller in 0..4 {
            let (frames, serial, cfg) = (&frames, &serial, &cfg);
            s.spawn(move || {
                for k in 0..500 {
                    let out = process_parallel(frames, cfg).unwrap();
                    assert_eq!(&out.digests, serial, "caller {caller} call {k}");
                }
            });
        }
    });
    assert_eq!(pool.in_flight(), FRAMES as u64);
}
