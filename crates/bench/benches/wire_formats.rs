//! Micro-benches of the wire-format substrate: building and fully
//! verifying VXLAN overlay frames, the checksum kernel under them, the
//! runtime's per-frame work over a batch of them, and the Toeplitz RSS
//! hash — the raw per-packet costs the simulator's cost model abstracts.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mflow_net::checksum::{lane_sum, ones_complement_sum};
use mflow_net::frame::{
    build_overlay_frame, build_overlay_frame_into, parse_overlay_frame, parse_overlay_frame_ref,
    walk_overlay_frame, OverlayFrameSpec,
};
use mflow_net::toeplitz::rss_hash_v4;
use mflow_runtime::work::{process_frame, process_frames};
use mflow_runtime::{frame_wire_len, generate_frames};

fn bench_frames(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay_frame");
    group.sample_size(30);
    for payload in [64usize, 1448] {
        let spec = OverlayFrameSpec::example_tcp(1, 42, vec![0xAB; payload]);
        let frame = build_overlay_frame(&spec);
        group.throughput(Throughput::Bytes(frame.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("build", payload),
            &spec,
            |b, spec| b.iter(|| build_overlay_frame(spec).len()),
        );
        // The builder alone, into a reused scratch as the frame
        // generators call it: the ID above also pays for the allocation.
        let mut scratch = Vec::with_capacity(frame.len());
        group.bench_with_input(
            BenchmarkId::new("build_overlay_frame_into", payload),
            &spec,
            |b, spec| {
                b.iter(|| {
                    build_overlay_frame_into(black_box(spec), &mut scratch);
                    scratch.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("parse_verify", payload),
            &frame,
            |b, frame| b.iter(|| parse_overlay_frame(frame).unwrap().payload.len()),
        );
        // The borrowed walk every worker runs per frame; the ID above
        // also pays for an owned copy of the payload.
        group.bench_with_input(
            BenchmarkId::new("parse_verify_ref", payload),
            &frame,
            |b, frame| b.iter(|| parse_overlay_frame_ref(black_box(frame)).unwrap().payload.len()),
        );
        // Its two halves: the header walk, then the payload's one sum
        // settling both checksums.
        group.bench_with_input(BenchmarkId::new("overlay_walk", payload), &frame, |b, frame| {
            b.iter(|| walk_overlay_frame(black_box(frame)).unwrap().0.payload.len())
        });
        let (view, lanes) = walk_overlay_frame(&frame).unwrap();
        group.bench_with_input(
            BenchmarkId::new("overlay_verify", payload),
            &view.payload,
            |b, payload| b.iter(|| lanes.verify(lane_sum(black_box(payload))).unwrap()),
        );
    }
    group.finish();
}

/// The checksum kernel alone, over a cache-resident payload: compute,
/// not memory. 20 bytes is a header — under one 32-byte block.
fn bench_checksum(c: &mut Criterion) {
    let mut group = c.benchmark_group("checksum");
    group.sample_size(30);
    for len in [20usize, 64, 1448] {
        let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::from_parameter(len), &payload, |b, payload| {
            b.iter(|| ones_complement_sum(payload, 0))
        });
    }
    group.finish();
}

/// Parse + verify + digest over one resident 32-frame
/// micro-flow: the walk every thread that owns all stages uses, which
/// steps the digests of four frames together, next to the one-frame API
/// called frame by frame over the same frames. Read it pinned
/// (`taskset -c 0`).
fn bench_process_frames(c: &mut Criterion) {
    const BATCH: usize = 32;
    let mut group = c.benchmark_group("process_frames");
    group.sample_size(30);
    for payload in [64usize, 1448] {
        let frames = generate_frames(BATCH, payload);
        let mut results = Vec::with_capacity(BATCH);
        group.throughput(Throughput::Bytes((BATCH * frame_wire_len(payload)) as u64));
        group.bench_with_input(BenchmarkId::new("walk", payload), &frames, |b, frames| {
            b.iter(|| {
                results.clear();
                process_frames(frames, |r| r, &mut results);
                results.len()
            })
        });
        group.bench_with_input(
            BenchmarkId::new("frame_by_frame", payload),
            &frames,
            |b, frames| {
                b.iter(|| {
                    results.clear();
                    results.extend(frames.iter().map(process_frame));
                    results.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_rss(c: &mut Criterion) {
    let mut group = c.benchmark_group("rss");
    group.sample_size(30);
    group.bench_function("toeplitz_rss_hash", |b| {
        let mut port = 0u16;
        b.iter(|| {
            port = port.wrapping_add(1);
            rss_hash_v4([10, 0, 0, 1], [10, 0, 0, 2], 40_000 + (port % 1000), 5201)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_frames,
    bench_checksum,
    bench_process_frames,
    bench_rss
);
criterion_main!(benches);
