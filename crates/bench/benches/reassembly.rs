//! Micro-benches of the merging-counter reassembler: per-item merge cost
//! as a function of batch size and lane count — the data structure whose
//! cheapness (vs the kernel's per-packet out-of-order queue) the paper's
//! §III-B argues for. `batch/*` and `lanes/*` offer one item at a time
//! (the simulator's call), `runs/*` one micro-flow at a time (the merger
//! thread's).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mflow::{MergeCounter, MfTag};

/// Builds a worst-case lane-skewed arrival order for `n` items split into
/// `batch`-sized micro-flows over `lanes` lanes: all of lane 1's batches
/// arrive before lane 0's, maximizing buffering.
fn skewed_stream(n: u64, batch: u64, lanes: usize) -> Vec<(MfTag, u64)> {
    let mut tagged: Vec<(MfTag, u64)> = (0..n)
        .map(|i| {
            let id = i / batch;
            (
                MfTag {
                    id,
                    lane: (id as usize) % lanes,
                    last: i % batch == batch - 1 || i == n - 1,
                },
                i,
            )
        })
        .collect();
    tagged.sort_by_key(|(t, v)| (std::cmp::Reverse(t.lane), *v));
    tagged
}

fn bench_merge(c: &mut Criterion) {
    let n = 100_000u64;
    let mut group = c.benchmark_group("merge_counter");
    group.throughput(Throughput::Elements(n));
    group.sample_size(20);
    for batch in [1u64, 64, 256, 1024] {
        let stream = skewed_stream(n, batch, 2);
        group.bench_with_input(
            BenchmarkId::new("batch", batch),
            &stream,
            |b, stream| {
                b.iter(|| {
                    let mut mc = MergeCounter::new();
                    let mut out = Vec::with_capacity(n as usize);
                    for (tag, v) in stream {
                        mc.offer(*tag, *v, &mut out);
                    }
                    assert_eq!(out.len(), n as usize);
                    out.len()
                })
            },
        );
    }
    for batch in [32u64, 256] {
        // The same order, one run per micro-flow: its closing tag, its items.
        let stream = skewed_stream(n, batch, 2);
        let runs: Vec<(MfTag, Vec<u64>)> = stream
            .chunk_by(|a, b| a.0.id == b.0.id)
            .map(|run| (run[run.len() - 1].0, run.iter().map(|&(_, v)| v).collect()))
            .collect();
        group.bench_with_input(BenchmarkId::new("runs", batch), &runs, |b, runs| {
            b.iter(|| {
                let mut mc = MergeCounter::new();
                let mut out = Vec::with_capacity(n as usize);
                for (tag, items) in runs {
                    mc.offer_run(tag.id, tag.lane, tag.last, items.iter().copied(), &mut out);
                }
                assert_eq!(out.len(), n as usize);
                out.len()
            })
        });
    }
    for lanes in [2usize, 4, 8] {
        let stream = skewed_stream(n, 256, lanes);
        group.bench_with_input(BenchmarkId::new("lanes", lanes), &stream, |b, stream| {
            b.iter(|| {
                let mut mc = MergeCounter::new();
                let mut out = Vec::with_capacity(n as usize);
                for (tag, v) in stream {
                    mc.offer(*tag, *v, &mut out);
                }
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge);
criterion_main!(benches);
