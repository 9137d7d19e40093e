//! End-to-end ordering and integrity: the same MFLOW mechanisms exercised
//! through the byte-level runtime (real threads, real frames) and through
//! the simulator, asserting the paper's §III-B correctness claims.

use integration_tests::{for_each_cell, quick};
use mflow::{try_install, MflowConfig};
use mflow_netstack::{FlowSpec, PathKind, StackConfig, StackSim};
use mflow_net::frame::{build_overlay_frame_into, OverlayFrameSpec};
use mflow_runtime::{
    frame_wire_len, generate_frames, process_frame, process_parallel, process_serial,
    stateful_stage, BackpressurePolicy, BufPool, Frame, PacketResult, PolicyKind, RuntimeConfig,
    RuntimeFaults,
};

/// `n` frames whose payload sizes cycle through `sizes` and whose flow is
/// `flow_of(seq)`, numbered in order in one pool.
fn build_frames(n: usize, sizes: &[usize], flow_of: impl Fn(u64) -> u64) -> (BufPool, Vec<Frame>) {
    let max = sizes.iter().copied().max().unwrap_or(0);
    let pool = BufPool::for_frames(n, frame_wire_len(max));
    let mut scratch = Vec::new();
    let frames = (0..n as u64)
        .map(|seq| {
            let len = sizes[seq as usize % sizes.len()];
            let payload = (0..len as u64).map(|i| (seq * 31 + i * 7 + 3) as u8).collect();
            let spec = OverlayFrameSpec::example_tcp(flow_of(seq), seq as u32, payload);
            build_overlay_frame_into(&spec, &mut scratch);
            Frame::new(seq, pool.alloc(&scratch))
        })
        .collect();
    (pool, frames)
}

#[test]
fn real_threads_preserve_byte_exact_order() {
    let frames = generate_frames(8_192, 700);
    let serial = process_serial(&frames);
    for workers in [2, 4] {
        let out = process_parallel(
            &frames,
            &RuntimeConfig {
                workers,
                batch_size: 256,
                queue_depth: 8,
                ..RuntimeConfig::default()
            },
        )
        .unwrap();
        assert_eq!(out.digests, serial.digests, "{workers} workers diverged");
    }
}

#[test]
fn every_steering_policy_preserves_byte_exact_order() {
    // The policy-pluggable datapath contract: whatever steers the lanes
    // — whole-flow pinning or micro-flow splitting —
    // the delivered stream on a benign run is byte-identical to the
    // serial one, and policies that never interleave the stream must
    // show a merge path that never engaged.
    //
    // Two inputs. One flow, as every generator produces. And five flows
    // interleaved in 32-frame blocks under the one global `seq` — what a
    // capture replayed through `frames_from_pcap` looks like: a call is
    // one stream delivered in `seq` order whatever its frames hash to,
    // so a policy that re-steers on a changed hash while the previous
    // block still sits in the old lane's queue delivers out of order
    // ("Why Does Flow Director Cause Packet Reordering?", PAPERS.md).
    let one_flow = generate_frames(6_000, 256);
    let (_pool, five_flows) = build_frames(4_096, &[64], |seq| 1 + seq / 32 % 5);
    // Every worker count up to 4: one lane per worker.
    for (frames, batch_size) in [(&one_flow, 64), (&five_flows, 32)] {
        for workers in 1..=4 {
            let base = RuntimeConfig {
                workers,
                batch_size,
                queue_depth: 8,
                ..RuntimeConfig::default()
            };
            for_each_cell(base, |cell| {
                let ctx = format!("{} w={workers}", cell.label);
                let out = cell.run_exact(frames, &RuntimeFaults::none());
                assert_eq!(out.telemetry.policy, cell.cfg.policy.name());
                // One FIFO path end to end is the unperturbed case: a
                // policy that pins the stream, and blocking backpressure
                // (the other two retag micro-flows onto inline lanes).
                let blocking = cell.cfg.backpressure == BackpressurePolicy::Block;
                if cell.cfg.policy != PolicyKind::Mflow && blocking {
                    assert_eq!(out.telemetry.ooo, 0, "{ctx} must not reorder");
                    assert!(
                        out.flushed_mfs.is_empty(),
                        "{ctx} flushed micro-flows on a benign run"
                    );
                }
            });
        }
    }
}

#[test]
fn unequal_frames_are_delivered_as_the_one_frame_api_computes_them() {
    // Workers digest each micro-flow in groups of four frames whose
    // chains advance together over the group's common prefix. Every other
    // suite sends one payload size per stream, so this one cycles sizes —
    // empty, sub-word, around a word, around a cache line, MTU — so that
    // every group is unequal, and checks against the one-frame API rather
    // than `process_serial`, which shares the grouped walk with the
    // workers.
    const SIZES: [usize; 10] = [0, 1, 7, 8, 9, 63, 64, 65, 200, 1448];
    const WORK: u32 = 3;
    let n = 4_003;
    let (pool, frames) = build_frames(n, &SIZES, |_| 1);
    let expected: Vec<PacketResult> = frames
        .iter()
        .map(|f| stateful_stage(process_frame(f), WORK))
        .collect();
    for batch_size in [5, 32] {
        let base = RuntimeConfig {
            workers: 3,
            batch_size,
            queue_depth: 8,
            stateful_work: WORK,
            ..RuntimeConfig::default()
        };
        for_each_cell(base, |cell| {
            let out = cell.run_exact(&frames, &RuntimeFaults::none());
            assert_eq!(out.digests, expected, "{} batch {batch_size} diverged", cell.label);
        });
    }
    drop(frames);
    assert_eq!(pool.in_flight(), 0);
}

#[test]
fn runtime_disorder_grows_as_batches_shrink() {
    // The Figure 7 relationship on real threads: smaller batches produce
    // (statistically) more disorder at the merger input. Compare the
    // extremes, which are deterministic.
    let frames = generate_frames(30_000, 64);
    let one_batch = process_parallel(
        &frames,
        &RuntimeConfig {
            workers: 4,
            batch_size: frames.len(),
            queue_depth: 64,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    assert_eq!(one_batch.telemetry.ooo, 0);
    let tiny = process_parallel(
        &frames,
        &RuntimeConfig {
            workers: 4,
            batch_size: 1,
            queue_depth: 64,
            ..RuntimeConfig::default()
        },
    )
    .unwrap();
    assert!(tiny.telemetry.ooo > 0, "1-packet batches over 4 workers never interleaved");
}

#[test]
fn simulator_hides_all_disorder_from_tcp() {
    // Across batch sizes and lane counts, the merge hook must keep TCP's
    // out-of-order queue empty and leave nothing stuck in the merger.
    for batch in [1u32, 32, 256] {
        for lanes in [vec![2, 3], vec![2, 3, 4]] {
            let cfg = quick(StackConfig::single_flow(
                PathKind::Overlay,
                FlowSpec::tcp(65536, 0),
            ));
            let mut mcfg = MflowConfig::tcp_full_path();
            mcfg.batch_size = batch;
            mcfg.split_cores = lanes.clone();
            mcfg.branch_tails = None;
            let (policy, merge) = try_install(mcfg).expect("stock mflow config");
            let r = StackSim::try_run(cfg, policy, Some(merge)).expect("valid stack config");
            assert!(r.goodput_gbps > 1.0, "batch {batch} lanes {lanes:?} stalled");
            assert_eq!(
                r.tcp_ooo_inserts, 0,
                "batch {batch} lanes {lanes:?} leaked disorder into TCP"
            );
            assert_eq!(r.sock_push_fail_tcp, 0);
            // At the simulation deadline a few micro-flows are legitimately
            // still in flight; "residue" must be bounded by that in-flight
            // window, never an accumulating leak.
            let delivered_segs = r.delivered_bytes / 1448;
            assert!(
                (r.telemetry.residue as u64) < 512 + delivered_segs / 100,
                "batch {batch} lanes {lanes:?} leaked {} skbs in the merger",
                r.telemetry.residue
            );
        }
    }
}

#[test]
fn without_reassembly_tcp_pays_for_disorder() {
    // Counterfactual: install the splitter but disable the merge hook;
    // the kernel's per-packet out-of-order queue must light up. This is
    // the overhead the paper's batch reassembly exists to avoid.
    let cfg = quick(StackConfig::single_flow(
        PathKind::Overlay,
        FlowSpec::tcp(65536, 0),
    ));
    let mut mcfg = MflowConfig::tcp_full_path();
    mcfg.batch_size = 4; // tiny batches: heavy interleaving
    let (policy, _merge) = try_install(mcfg).expect("stock mflow config");
    let r = StackSim::try_run(cfg, policy, None).expect("valid stack config");
    assert!(
        r.tcp_ooo_inserts > 100,
        "expected significant TCP OOO work without the merger, saw {}",
        r.tcp_ooo_inserts
    );
    // TCP still reassembles correctly (slowly): nothing is lost.
    assert_eq!(r.sock_push_fail_tcp, 0);
    assert!(r.delivered_bytes > 0);
}

#[test]
fn udp_late_merge_orders_datagram_stream() {
    let mut cfg = quick(StackConfig::single_flow(
        PathKind::Overlay,
        FlowSpec::udp(65536, 0),
    ));
    cfg.flows = vec![FlowSpec::udp(65536, 0); 3];
    let (policy, merge) = try_install(MflowConfig::udp_device_scaling()).expect("stock mflow config");
    let r = StackSim::try_run(cfg, policy, Some(merge)).expect("valid stack config");
    assert!(r.goodput_gbps > 1.0);
    // Disorder happens between the lanes but is repaired before delivery.
    assert!(r.telemetry.ooo > 0, "lanes never raced — split inactive?");
    assert_eq!(r.ooo_transport, 0, "datagrams reached the app out of order");
}
