//! Buffer-pool conservation: every slot handed out by the [`BufPool`]
//! must come back, no matter how the run ends. The pipeline clones
//! frame handles into batches, fault injection sends whole micro-flows
//! twice or late, killed workers drop their queues on the floor,
//! and backpressure shedding abandons batches mid-dispatch — after all
//! of that, once the run output and the source frames are dropped, the
//! pool must report zero buffers in flight and a completely free slab.
//!
//! Every scenario also checks its digests against the serial reference,
//! so ordering and content are proven under the exact conditions that
//! stress the pool.

use integration_tests::{for_each_cell, Cell};
use mflow_runtime::{
    frame_wire_len, generate_frames_into, process_parallel, process_serial, BackpressurePolicy,
    BufPool, MergerKill, RuntimeConfig, RuntimeFaults, WorkerKill,
};

const PAYLOAD: usize = 128;

/// Asserts the pool is fully drained: nothing in flight, every slot
/// back on the free list, and no leaked heap-fallback buffers.
fn assert_pool_drained(pool: &BufPool, ctx: &str) {
    let stats = pool.stats();
    assert_eq!(pool.in_flight(), 0, "{ctx}: buffers still in flight");
    assert_eq!(
        stats.free, stats.slots,
        "{ctx}: free list short ({} of {} slots)",
        stats.free, stats.slots
    );
    assert_eq!(stats.heap_live, 0, "{ctx}: heap-fallback buffers leaked");
}

#[test]
fn clean_runs_conserve_the_pool_and_match_serial() {
    let n = 4096;
    let base = RuntimeConfig {
        workers: 4,
        batch_size: 16,
        queue_depth: 8,
        ..RuntimeConfig::default()
    };
    for_each_cell(base, |cell| {
        let pool = BufPool::for_frames(n, frame_wire_len(PAYLOAD));
        let frames = generate_frames_into(&pool, n, PAYLOAD);
        // Equal to serial, with the frames still holding their slots and
        // nothing else held: `run_exact` checks all three.
        cell.run_exact(&frames, &RuntimeFaults::none());
        drop(frames);
        assert_pool_drained(&pool, &cell.label);
    });
}

#[test]
fn chaos_kills_conserve_the_pool() {
    // Kill every worker plus the merger mid-run. Killed threads drop
    // their queued batches (and the merger its parked results) on the
    // floor — each of those held cloned frame handles, and every one
    // must release its slot as the wreckage unwinds.
    //
    // `merger_depth` must cover the whole result stream when a merger
    // kill is injected (the "pump idle" sizing every merger-kill suite
    // uses): the merger watchdog runs from the dispatch loop, so if the
    // worker->merger queue fills while the merger is down, workers block
    // offering, lanes fill, and the dispatcher wedges inside a blocking
    // send before it can tend the watchdog. See ROADMAP.md (open item:
    // watchdog-aware blocking dispatch).
    let n = 12_000;
    let workers = 4usize;
    let ctx = "chaos kills";
    let pool = BufPool::for_frames(n, frame_wire_len(PAYLOAD));
    let frames = generate_frames_into(&pool, n, PAYLOAD);
    let cfg = RuntimeConfig {
        workers,
        batch_size: 32,
        queue_depth: 8,
        merger_depth: 16_384,
        heartbeat_interval_ms: Some(25),
        restart_budget: 16,
        restart_backoff_ms: 1,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    for slot in 0..workers {
        faults.kills.push(WorkerKill {
            worker: slot,
            after_batches: 20 + 10 * slot as u64,
            incarnation: 0,
        });
    }
    faults.merger_kills.push(MergerKill {
        after_offers: 40,
        incarnation: 0,
    });
    faults.flush_timeout_ms = Some(40);
    let out = Cell::new(cfg).run(&frames, &faults);
    assert_eq!(out.workers_died, workers, "{ctx}: every kill must fire");
    drop(frames);
    assert_pool_drained(&pool, ctx);
}

#[test]
fn every_backpressure_policy_conserves_the_pool() {
    // A starved lane exercises each overload reaction: blocking holds
    // handles in the queue, drop-tail abandons whole batches, inline
    // processes them on the dispatcher. All three must return every
    // slot. The tiny queue plus a low watermark forces engagement.
    let n = 8192;
    let base = RuntimeConfig {
        workers: 2,
        batch_size: 16,
        queue_depth: 2,
        high_watermark: Some(1),
        // The lattice's `DropTail` cell sheds up to this budget, then
        // goes inline.
        backpressure: BackpressurePolicy::DropTail { budget: 2048 },
        inline_fallback: true,
        ..RuntimeConfig::default()
    };
    for_each_cell(base, |cell| {
        let pool = BufPool::for_frames(n, frame_wire_len(PAYLOAD));
        let frames = generate_frames_into(&pool, n, PAYLOAD);
        let out = cell.run(&frames, &RuntimeFaults::none());
        if !matches!(cell.cfg.backpressure, BackpressurePolicy::DropTail { .. }) {
            assert_eq!(
                out.digests.len(),
                n,
                "{}: lossless policies must deliver every packet",
                cell.label
            );
        }
        drop(frames);
        assert_pool_drained(&pool, &cell.label);
    });
}

#[test]
fn duplicate_and_late_microflows_conserve_the_pool() {
    // Duplication sends whole micro-flows twice (extra refcounts on the
    // same slots); late release holds batches back in the dispatcher.
    // Both paths must unwind to a fully free slab.
    let n = 10_000;
    let ctx = "dup/late";
    let pool = BufPool::for_frames(n, frame_wire_len(PAYLOAD));
    let frames = generate_frames_into(&pool, n, PAYLOAD);
    let cfg = RuntimeConfig {
        workers: 4,
        batch_size: 32,
        queue_depth: 8,
        ..RuntimeConfig::default()
    };
    let faults = RuntimeFaults {
        seed: 0xD15EA5E,
        dup_mf_rate: 0.05,
        late_mf_rate: 0.05,
        late_by: 3,
        ..RuntimeFaults::none()
    };
    // Dup/late faults must not lose packets: the serial stream, exactly.
    Cell::new(cfg).run_exact(&frames, &faults);
    drop(frames);
    assert_pool_drained(&pool, ctx);
}

#[test]
fn output_matches_serial_at_every_worker_count() {
    // Descriptors on every lane, parse on the workers, merge-counter
    // reassembly at the tail: output must be byte-identical to serial at
    // every worker count.
    let n = 8192;
    let pool = BufPool::for_frames(n, frame_wire_len(PAYLOAD));
    let frames = generate_frames_into(&pool, n, PAYLOAD);
    let serial = process_serial(&frames);
    for workers in [1, 2, 4, 8] {
        let cfg = RuntimeConfig {
            workers,
            batch_size: 32,
            queue_depth: 8,
            ..RuntimeConfig::default()
        };
        let out = process_parallel(&frames, &cfg).unwrap();
        assert_eq!(
            out.digests, serial.digests,
            "w={workers}: parallel output diverged from serial"
        );
    }
    drop(frames);
    assert_pool_drained(&pool, "worker-count sweep");
}
