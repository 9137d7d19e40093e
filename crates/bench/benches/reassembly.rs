//! Micro-benches of the merging-counter reassembler: per-item merge cost
//! as a function of batch size and lane count — the data structure whose
//! cheapness (vs the kernel's per-packet out-of-order queue) the paper's
//! §III-B argues for. `batch/*` and `lanes/*` offer one item at a time
//! (the simulator's call), `runs/*` and `runs_bursts/*` one micro-flow at
//! a time (the merge-lock holder's): `runs/*` in the worst-case skewed order,
//! `runs_bursts/*` in the order the pinned pipeline delivers.

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

/// The arrival order of the pinned two-worker pipeline: the mux drains
/// one worker's ring while the other waits its turn, so the lanes
/// alternate bursts of `burst` micro-flows (lane 0's even ids, then lane
/// 1's odd ones) and about half the runs park.
fn burst_stream(n: u64, batch: u64, burst: u64) -> Vec<(MfTag, u64)> {
    let mfs = n.div_ceil(batch);
    (0..mfs)
        .step_by(2 * burst as usize)
        .flat_map(|base| {
            let end = (base + 2 * burst).min(mfs);
            (base..end).step_by(2).chain((base + 1..end).step_by(2))
        })
        .flat_map(|id| {
            let (first, end) = (id * batch, ((id + 1) * batch).min(n));
            (first..end).map(move |i| {
                let tag = MfTag {
                    id,
                    lane: (id % 2) as usize,
                    last: i + 1 == end,
                };
                (tag, i)
            })
        })
        .collect()
}

/// One run per micro-flow of `stream`: its closing tag, its items.
fn as_runs(stream: &[(MfTag, u64)]) -> Vec<(MfTag, Vec<u64>)> {
    stream
        .chunk_by(|a, b| a.0.id == b.0.id)
        .map(|run| (run[run.len() - 1].0, run.iter().map(|&(_, v)| v).collect()))
        .collect()
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
    let runs_cases = [
        ("runs", 32, as_runs(&skewed_stream(n, 32, 2))),
        ("runs", 256, as_runs(&skewed_stream(n, 256, 2))),
        ("runs_bursts", 32, as_runs(&burst_stream(n, 32, 32))),
    ];
    for (name, batch, runs) in &runs_cases {
        group.bench_with_input(BenchmarkId::new(*name, batch), runs, |b, runs| {
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
