//! Overload-control acceptance tests: the dispatcher's backpressure
//! policies against a sustained lane stall.
//!
//! The contract under test (the robustness tentpole): with `DropTail`
//! the run terminates within the flush deadline without panicking and
//! every offered packet is accounted for — delivered, shed (attributed
//! to the saturated lane), or a member of a flushed micro-flow; with
//! `Inline` (and with `Block`) nothing is ever lost and the delivered
//! stream is bit-identical to the serial run.

use std::collections::BTreeSet;
use std::time::Duration;

use integration_tests::Cell;
use mflow_runtime::{
    generate_frames, BackpressurePolicy, Frame, RunOutput, RuntimeConfig, RuntimeFaults,
    SlowWorker,
};

/// A fault plan that stalls worker 0 before every batch — the sustained
/// slow consumer of the acceptance scenario — and nothing else.
fn stalled_lane(ms: u64) -> RuntimeFaults {
    let mut faults = RuntimeFaults::none();
    faults.slow_worker = Some(SlowWorker {
        worker: 0,
        per_batch_us: ms * 1000,
    });
    faults.flush_timeout_ms = Some(250);
    faults
}

/// Runs `cfg` under `faults` through the universal contract
/// ([`Cell::run`]: ordered, duplicate-free, digest-correct, every missing
/// packet attributed) and this suite's part of it: nothing but shedding
/// removes a packet, and whole batches only. Returns the output and the
/// micro-flow ids shed.
fn run_accounted(
    frames: &[Frame],
    cfg: RuntimeConfig,
    faults: &RuntimeFaults,
) -> (RunOutput, BTreeSet<u64>) {
    let out = Cell::new(cfg).run(frames, faults);
    assert_eq!(
        out.digests.len() as u64 + out.telemetry.shed,
        frames.len() as u64,
        "packets neither delivered nor shed"
    );
    // With no packet-level faults the dispatcher's batching is exact:
    // micro-flow of seq `s` is `s / batch_size`. A shed micro-flow
    // delivers nothing — never half-delivered.
    let shed_mfs: BTreeSet<u64> = out.sheds.iter().map(|&(id, _)| id).collect();
    for r in &out.digests {
        let mf = r.seq / cfg.batch_size as u64;
        assert!(!shed_mfs.contains(&mf), "micro-flow {mf} was shed yet partially delivered");
    }
    (out, shed_mfs)
}

#[test]
fn drop_tail_sheds_on_the_stalled_lane_and_accounts_every_packet() {
    let frames = generate_frames(3000, 64);
    let cfg = RuntimeConfig {
        workers: 3,
        batch_size: 30,
        queue_depth: 2,
        backpressure: BackpressurePolicy::DropTail { budget: u64::MAX },
        high_watermark: Some(1),
        inline_fallback: false,
        ..RuntimeConfig::default()
    };
    let (out, shed_mfs) = run_accounted(&frames, cfg, &stalled_lane(10));
    assert!(out.telemetry.shed > 0, "a 10 ms/batch stall never tripped the watermark");
    assert!(out.backpressure_events > 0);
    assert_eq!(out.block_fallbacks, 0, "unlimited budget must never fall back to blocking");
    assert!(
        out.sheds.iter().any(|&(_, lane)| lane == 0),
        "no shed attributed to the stalled lane: {:?}",
        out.sheds
    );
    for &(_, lane) in &out.sheds {
        assert!(lane < cfg.workers, "shed attributed to non-primary lane {lane}");
    }
    // Shedding decouples the run from the stalled worker: the whole
    // run must finish in a bounded handful of stall periods, not one
    // per batch routed at lane 0.
    assert!(
        out.elapsed < Duration::from_secs(5),
        "run serialized behind the stalled lane: {:?} for {} sheds",
        out.elapsed,
        shed_mfs.len()
    );
}

#[test]
fn inline_under_sustained_stall_is_exact_in_order_and_dupfree() {
    let frames = generate_frames(2000, 64);
    let cfg = RuntimeConfig {
        workers: 3,
        batch_size: 16,
        queue_depth: 2,
        backpressure: BackpressurePolicy::Inline,
        high_watermark: Some(1),
        inline_fallback: false,
        ..RuntimeConfig::default()
    };
    // Exactly the serial stream: inline lost, reordered, duplicated nothing.
    let out = Cell::new(cfg).run_exact(&frames, &stalled_lane(5));
    assert_eq!(out.telemetry.shed, 0);
    assert!(out.inline_batches > 0, "the stall never pushed a batch inline");
    assert!(out.telemetry.inline >= out.inline_batches, "inline batches must carry packets");
    assert!(out.flushed_mfs.is_empty(), "nothing was lost, nothing to flush");
}

#[test]
fn drop_tail_budget_exhaustion_falls_back_inline_when_asked() {
    let frames = generate_frames(3000, 64);
    let budget = 60; // exactly two 30-packet batches
    let cfg = RuntimeConfig {
        workers: 3,
        batch_size: 30,
        queue_depth: 2,
        backpressure: BackpressurePolicy::DropTail { budget },
        high_watermark: Some(1),
        inline_fallback: true,
        ..RuntimeConfig::default()
    };
    let (out, _) = run_accounted(&frames, cfg, &stalled_lane(10));
    assert!(out.telemetry.shed <= budget, "shed past the budget");
    assert!(
        out.inline_batches > 0,
        "budget exhausted under a sustained stall but nothing went inline"
    );
    assert_eq!(out.block_fallbacks, 0, "inline fallback was configured");
}

#[test]
fn drop_tail_without_fallback_blocks_after_budget_and_loses_nothing_more() {
    let frames = generate_frames(3000, 64);
    let budget = 60;
    let cfg = RuntimeConfig {
        workers: 3,
        batch_size: 30,
        queue_depth: 2,
        backpressure: BackpressurePolicy::DropTail { budget },
        high_watermark: Some(1),
        inline_fallback: false,
        ..RuntimeConfig::default()
    };
    let (out, _) = run_accounted(&frames, cfg, &stalled_lane(2));
    assert!(out.telemetry.shed <= budget);
    if out.telemetry.shed == budget {
        assert!(out.block_fallbacks > 0, "budget gone, pressure still on, never blocked");
    }
}

#[test]
fn slow_consumer_with_block_policy_stays_lossless() {
    use mflow_runtime::SlowWorker;
    let frames = generate_frames(4000, 64);
    let cfg = RuntimeConfig {
        workers: 4,
        batch_size: 32,
        queue_depth: 2,
        backpressure: BackpressurePolicy::Block,
        high_watermark: Some(2),
        inline_fallback: false,
        ..RuntimeConfig::default()
    };
    let mut faults = RuntimeFaults::none();
    faults.slow_worker = Some(SlowWorker { worker: 1, per_batch_us: 200 });
    faults.flush_timeout_ms = Some(250);
    let out = Cell::new(cfg).run_exact(&frames, &faults);
    assert_eq!(out.telemetry.shed, 0);
    assert_eq!(out.inline_batches, 0);
}
