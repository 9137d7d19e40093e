//! Real-silicon benches of the MFLOW split/merge pipeline: serial vs 2/4
//! worker threads over real VXLAN frames (the runtime analogue of Figure
//! 8a), and throughput vs micro-flow batch size (the analogue of Figure 7's
//! overhead story — tiny batches pay real merge/channel overhead), and the
//! fixed cost of one call on a stream too short to amortise it.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mflow_runtime::{generate_frames, process_parallel, process_serial, RuntimeConfig};

fn bench_workers(c: &mut Criterion) {
    let frames = generate_frames(4_096, 1_400);
    let bytes: u64 = frames.iter().map(|f| f.bytes().len() as u64).sum();
    let mut group = c.benchmark_group("runtime_scaling");
    group.throughput(Throughput::Bytes(bytes));
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| process_serial(&frames).digests.len())
    });
    for workers in [2usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("mflow", workers),
            &workers,
            |b, &workers| {
                let cfg = RuntimeConfig {
                    workers,
                    batch_size: 256,
                    queue_depth: 8,
                    ..RuntimeConfig::default()
                };
                b.iter(|| process_parallel(&frames, &cfg).unwrap().digests.len())
            },
        );
    }
    group.finish();
}

fn bench_batch_size(c: &mut Criterion) {
    let frames = generate_frames(4_096, 1_400);
    let bytes: u64 = frames.iter().map(|f| f.bytes().len() as u64).sum();
    let mut group = c.benchmark_group("runtime_batch_size");
    group.throughput(Throughput::Bytes(bytes));
    group.sample_size(10);
    for batch in [1usize, 16, 256, 1024] {
        group.bench_with_input(BenchmarkId::from_parameter(batch), &batch, |b, &batch| {
            let cfg = RuntimeConfig {
                workers: 2,
                batch_size: batch,
                queue_depth: 16,
                ..RuntimeConfig::default()
            };
            b.iter(|| process_parallel(&frames, &cfg).unwrap().digests.len())
        });
    }
    group.finish();
}

/// What one `process_parallel` call costs when the stream is a single
/// frame or one 64 KB message (46 x 1448 B, the repo benchmark's `msg64k`
/// shape and batch size), unsupervised and with both failure domains
/// armed the way `supervised64` arms them, against `process_serial` on the
/// same message as the floor.
fn bench_call(c: &mut Criterion) {
    let message = generate_frames(46, 1448);
    let mut group = c.benchmark_group("runtime_call");
    group.sample_size(10);
    group.bench_function("serial/46", |b| {
        b.iter(|| process_serial(&message).digests.len())
    });
    let unsupervised = RuntimeConfig {
        batch_size: 8,
        ..RuntimeConfig::default()
    };
    let supervised = RuntimeConfig {
        heartbeat_interval_ms: Some(1000),
        restart_budget: 8,
        ..unsupervised
    };
    for (name, cfg) in [("unsupervised", unsupervised), ("supervised", supervised)] {
        for frames in [1usize, 46] {
            group.bench_with_input(BenchmarkId::new(name, frames), &frames, |b, &n| {
                b.iter(|| process_parallel(&message[..n], &cfg).unwrap().digests.len())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_workers, bench_batch_size, bench_call);
criterion_main!(benches);
