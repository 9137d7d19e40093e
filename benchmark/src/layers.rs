//! The per-layer ledger, measured from outside: every layer's public
//! functions are called on the workload's own frames inside a span, and
//! the metric is the span's time per call. Then the one-line analytical
//! model built from those numbers.

use std::collections::VecDeque;
use std::hint::black_box;
use std::thread;

use mflow::{ElephantConfig, MergeCounter, MfTag, MflowLanes, ScrReconciler};
use mflow_net::checksum::ones_complement_sum;
use mflow_net::frame::{build_overlay_frame_into, parse_overlay_frame_ref};
use mflow_runtime::ring::{ring_mux, spsc};
use mflow_runtime::work::StagedWork;
use mflow_runtime::{
    frame_wire_len, process_frame, process_serial_stateful, stateful_stage, BufPool, PacketResult,
    RuntimeConfig,
};
use mflow_steering::SteeringPolicy;

use crate::measure::{checked_call, Counters, PipelineRun, Segment};
use crate::stats::{median, segment_median};
use crate::trace::Tracer;
use crate::workload::{FlowSpec, Workload, WORKERS};

/// Each layer loop is timed this many times; the metric is the median.
const PASSES: usize = 5;
/// A pass makes at least this many layer calls, cycling over the frames
/// when the workload has fewer, and at most `MAX_CALLS`.
const MIN_CALLS: usize = 20_000;
const MAX_CALLS: usize = 60_000;
/// Items pushed through a ring per pass.
const RING_ITEMS: usize = 200_000;
/// Calls on a 1-frame input that `pipeline.call_overhead_us` is the median of.
const OVERHEAD_CALLS: usize = 200;

/// What a worker hands the merger.
type Merged = (MfTag, PacketResult);

/// The per-layer values of one workload, by metric name, and the stage
/// the model names as the bottleneck.
pub struct Ledger {
    pub values: Vec<(&'static str, f64)>,
    pub bottleneck: &'static str,
    /// Frames attempted and failed by the ledger's own pipeline calls.
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

/// The timed loops of one ledger: every loop is a span named after the
/// metric it yields, and the metric is pushed as soon as it is measured.
struct Loops<'a> {
    tracer: &'a mut Tracer,
    values: Vec<(&'static str, f64)>,
}

impl Loops<'_> {
    /// Runs `pass` [`PASSES`] times on fresh state from `prepare`, each
    /// run inside a span of its own, and records the median nanoseconds
    /// per call. State is built before the span opens and results are
    /// dropped after it closes, so neither is charged to the layer.
    fn timed_with<S, R>(
        &mut self,
        name: &'static str,
        calls: usize,
        mut prepare: impl FnMut() -> S,
        mut pass: impl FnMut(S) -> R,
    ) {
        let per_call: Vec<f64> = (0..PASSES)
            .map(|_| {
                let state = prepare();
                let span = self.tracer.open(name);
                let result = black_box(pass(black_box(state)));
                let ns = self.tracer.close(span, calls as u64);
                drop(result);
                ns as f64 / calls as f64
            })
            .collect();
        self.values.push((name, median(&per_call)));
    }

    /// [`Self::timed_with`] for a loop that needs no state.
    fn timed(&mut self, name: &'static str, calls: usize, mut pass: impl FnMut()) {
        self.timed_with(name, calls, || (), |()| pass());
    }

    fn get(&self, name: &str) -> f64 {
        let found = self.values.iter().find(|(k, _)| *k == name);
        found.map_or(0.0, |&(_, v)| v)
    }
}

/// The tag the dispatcher would give item `i`: batches of `batch` items,
/// dealt round-robin over the lanes.
fn tag(i: usize, n: usize, batch: usize) -> MfTag {
    let id = i / batch;
    MfTag {
        id: id as u64,
        lane: id % WORKERS,
        last: (i + 1).is_multiple_of(batch) || i + 1 == n,
    }
}

/// Measures every layer on `run`'s input and assembles the ledger.
pub fn measure(
    w: &Workload,
    cfg: &RuntimeConfig,
    seed: u64,
    run: &PipelineRun,
    tracer: &mut Tracer,
) -> Ledger {
    let frames = &run.input.frames;
    let n = frames.len().clamp(MIN_CALLS, MAX_CALLS);
    let cycle = || frames.iter().cycle().take(n);
    let units = w.stateful_work;
    let layers = tracer.open("layers");
    let mut l = Loops {
        tracer,
        values: Vec::new(),
    };

    // net
    l.timed("net.parse_ns", n, || {
        for f in cycle() {
            let _ = black_box(parse_overlay_frame_ref(black_box(f.bytes())));
        }
    });
    let payload = {
        let bytes = frames[0].bytes();
        let parsed = parse_overlay_frame_ref(bytes).expect("the harness built this frame");
        let off = parsed.payload.as_ptr() as usize - bytes.as_ptr() as usize;
        off..off + parsed.payload.len()
    };
    l.timed("net.csum_ns", n, || {
        for f in cycle() {
            black_box(ones_complement_sum(
                black_box(&f.bytes()[payload.clone()]),
                0,
            ));
        }
    });
    let mut flow = FlowSpec::new(w, seed);
    flow.advance(0);
    let mut scratch = Vec::with_capacity(frame_wire_len(w.payload));
    l.timed("net.build_ns", n, || {
        for i in 0..n {
            flow.spec.tcp_seq = i as u32;
            build_overlay_frame_into(black_box(&flow.spec), &mut scratch);
            black_box(&scratch);
        }
    });

    // packet
    l.timed("packet.flow_hash_ns", n, || {
        for f in cycle() {
            let _ = black_box(black_box(f).try_flow_hash());
        }
    });
    l.timed("packet.frame_clone_drop_ns", n, || {
        for f in cycle() {
            drop(black_box(black_box(f).clone()));
        }
    });

    // pool: a side pool, so the workload's own occupancy is not disturbed.
    let side = BufPool::new(64, frame_wire_len(w.payload));
    l.timed("pool.alloc_free_ns", n, || {
        for f in cycle() {
            drop(black_box(side.alloc(black_box(f.bytes()))));
        }
    });
    let pool = &run.input.pool;
    let stats = pool.stats();
    let hit_rate = stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64;
    l.values.push(("pool.hit_rate", hit_rate));
    let leaked = pool.in_flight().abs_diff(frames.len() as u64);
    l.values.push(("pool.leaked_slots", leaked as f64));

    // work
    l.timed("work.process_frame_ns", n, || {
        for f in cycle() {
            black_box(process_frame(black_box(f)));
        }
    });
    let stages = [
        "work.stage_parse_ns",
        "work.stage_csum_ns",
        "work.stage_digest_ns",
    ];
    for (done, name) in stages.into_iter().enumerate() {
        let prepare = || {
            let staged: Vec<StagedWork> = cycle()
                .map(|f| StagedWork::Raw(f.clone()).advance_n(done))
                .collect();
            (staged, Vec::with_capacity(n))
        };
        l.timed_with(name, n, prepare, |(staged, mut next)| {
            for work in staged {
                next.push(black_box(work).advance());
            }
            next
        });
    }
    let plain: Vec<PacketResult> = cycle()
        .enumerate()
        .map(|(i, f)| PacketResult {
            seq: i as u64,
            ..process_frame(f)
        })
        .collect();
    l.timed("work.stateful_ns", n, || {
        for r in &plain {
            black_box(stateful_stage(black_box(*r), units));
        }
    });

    // reassembly: in dispatch order, and with adjacent batches swapped,
    // which is how two lanes racing each other reach the merger.
    let in_order: Vec<Merged> = plain
        .iter()
        .enumerate()
        .map(|(i, r)| (tag(i, n, w.batch), *r))
        .collect();
    let swapped: Vec<Merged> = {
        let mut batches: Vec<&[Merged]> = in_order.chunks(w.batch).collect();
        for pair in batches.chunks_exact_mut(2) {
            pair.swap(0, 1);
        }
        batches.concat()
    };
    for (name, items) in [
        ("reassembly.offer_inorder_ns", &in_order),
        ("reassembly.offer_swapped_ns", &swapped),
    ] {
        let prepare = || (MergeCounter::<PacketResult>::new(), Vec::with_capacity(n));
        l.timed_with(name, n, prepare, |(mut counter, mut out)| {
            for &(tag, r) in items {
                black_box(counter.offer(tag, r, &mut out));
            }
            (counter, out)
        });
    }
    let prepare = || (ScrReconciler::<PacketResult>::new(), Vec::with_capacity(n));
    l.timed_with(
        "reassembly.scr_offer_ns",
        n,
        prepare,
        |(mut reconciler, mut out)| {
            for &(_, r) in &swapped {
                black_box(reconciler.offer(r.seq, r.seq + 1, r, &mut out));
            }
            (reconciler, out)
        },
    );

    // steering: one steer + observe per batch, through the trait object
    // the dispatcher holds.
    let hash = frames[0].flow_hash();
    let depths = [0usize; WORKERS];
    let prepare = || -> Box<dyn SteeringPolicy> {
        Box::new(MflowLanes::try_new(ElephantConfig::always()).expect("always() is a valid config"))
    };
    l.timed_with("steering.steer_ns_per_batch", n, prepare, |mut policy| {
        for mf_id in 0..n as u64 {
            let lane = policy.steer(mf_id, hash, black_box(&depths));
            policy.observe(mf_id, hash, black_box(lane), w.batch);
        }
        policy
    });

    // ring: a producer thread per ring pushing batch-sized groups, this
    // thread consuming, as the workers and the merger do.
    let items: Vec<Merged> = in_order.iter().copied().cycle().take(RING_ITEMS).collect();
    l.timed("ring.spsc_ns_per_item", RING_ITEMS, || {
        let (mut tx, mut rx) = spsc::<Merged>(cfg.merger_depth);
        thread::scope(|s| {
            s.spawn(|| {
                for group in items.chunks(w.batch) {
                    tx.push_all(group.iter().copied())
                        .expect("the consumer outlives the producer");
                }
            });
            let mut popped = VecDeque::with_capacity(64);
            let mut received = 0;
            while received < RING_ITEMS {
                match rx.pop_batch(&mut popped, 64) {
                    0 => thread::yield_now(),
                    got => received += got,
                }
                black_box(&popped);
                popped.clear();
            }
        });
    });
    l.timed("ring.mux_ns_per_item", RING_ITEMS, || {
        let (txs, mut mux) = ring_mux::<Merged>(WORKERS, cfg.merger_depth);
        let shares = items.chunks(RING_ITEMS / WORKERS);
        thread::scope(|s| {
            for (mut tx, share) in txs.into_iter().zip(shares) {
                s.spawn(move || {
                    for group in share.chunks(w.batch) {
                        tx.push_all(group.iter().copied())
                            .expect("the mux outlives its producers");
                    }
                });
            }
            while let Ok(item) = mux.recv_deadline(None) {
                black_box(item);
            }
        });
    });

    // pipeline: the serial baseline, the fixed cost of a call, and what
    // the runtime counted during the traced segments.
    let sweeps = n.div_ceil(frames.len());
    l.timed("pipeline.serial_ns", sweeps * frames.len(), || {
        for _ in 0..sweeps {
            black_box(process_serial_stateful(black_box(frames), units));
        }
    });
    let (mut attempted, mut failed) = (0, 0);
    let overhead_us: Vec<f64> = (0..OVERHEAD_CALLS)
        .map(|_| {
            let span = l.tracer.open("pipeline.call_overhead_us");
            let in_flight = || pool.in_flight();
            let (ns, bad, _) = checked_call(in_flight, &frames[..1], &run.input.oracle[..1], cfg);
            l.tracer.close(span, 1);
            attempted += 1;
            failed += bad;
            ns as f64 / 1e3
        })
        .collect();
    l.tracer.close(layers, l.values.len() as u64);

    let measured_mpps = run.end_to_end.value("throughput_mpps").unwrap_or(0.0);
    let delivered: u64 = run.traced.iter().map(|s| s.attempted - s.failed).sum();
    let per_frame = |count: fn(&Counters) -> u64| {
        let total: u64 = run.traced.iter().map(|s| count(&s.counters)).sum();
        total as f64 / delivered.max(1) as f64
    };
    let cpu_over_wall = segment_median(&run.traced, |s| s.cpu_ns as f64 / s.wall_ns.max(1) as f64);
    let pipeline = [
        (
            "pipeline.speedup_over_serial",
            measured_mpps * l.get("pipeline.serial_ns") / 1e3,
        ),
        ("pipeline.call_overhead_us", median(&overhead_us)),
        (
            "pipeline.merger_serial_ns",
            per_frame(|c| c.merger_serial_ns),
        ),
        ("pipeline.ooo_ratio", per_frame(|c| c.ooo)),
        (
            "pipeline.backpressure_per_kframe",
            1e3 * per_frame(|c| c.backpressure_events),
        ),
        ("pipeline.allocs_per_frame", per_frame(|c| c.allocs)),
        ("pipeline.cpu_over_wall", cpu_over_wall),
        (
            "pipeline.checkpoints_per_kframe",
            1e3 * per_frame(|c| c.checkpoints),
        ),
        (
            "pipeline.snapshot_bytes_per_frame",
            per_frame(|c| c.snapshot_bytes),
        ),
        ("pipeline.replicated_per_frame", per_frame(|c| c.replicated)),
    ];

    // model: no stage can run faster than its own cost per frame, and all
    // of them together cannot use more CPU than the run's cores supply.
    // The dispatcher hashes once per batch (it reads the first frame of
    // each micro-flow), so the hash is a per-batch term.
    let per_batch = l.get("packet.flow_hash_ns")
        + l.get("steering.steer_ns_per_batch")
        + l.get("ring.spsc_ns_per_item");
    let dispatch_ns = l.get("packet.frame_clone_drop_ns") + per_batch / w.batch as f64;
    let stateful_ns = l.get("work.stateful_ns");
    let (lane_stateful, merger_stateful, offer_ns) = if w.scr {
        (stateful_ns, 0.0, l.get("reassembly.scr_offer_ns"))
    } else {
        let both = l.get("reassembly.offer_inorder_ns") + l.get("reassembly.offer_swapped_ns");
        (0.0, stateful_ns, both / 2.0)
    };
    let worker_ns = (l.get("work.process_frame_ns") + lane_stateful) / WORKERS as f64;
    let merger_ns = offer_ns + l.get("ring.mux_ns_per_item") + merger_stateful;
    let stages = [
        ("dispatcher", dispatch_ns),
        ("workers", worker_ns),
        ("merger", merger_ns),
    ];
    let (bottleneck, slowest_ns) = stages
        .into_iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("three stages");
    // The CPUs this process may run on: one, once `main` has pinned it.
    let cores = thread::available_parallelism().map_or(1, |p| p.get()) as f64;
    let cpu_ns = dispatch_ns + worker_ns * WORKERS as f64 + merger_ns;
    let ceiling_mpps = 1e3 / slowest_ns.max(cpu_ns / cores).max(f64::MIN_POSITIVE);
    let traced_mpps = segment_median(&run.traced, Segment::throughput_mpps);
    let model = [
        ("model.dispatch_ns", dispatch_ns),
        ("model.worker_ns", worker_ns),
        ("model.merger_ns", merger_ns),
        ("model.ceiling_mpps", ceiling_mpps),
        ("model.explained_ratio", measured_mpps / ceiling_mpps),
        (
            "trace_overhead_ratio",
            measured_mpps / traced_mpps.max(f64::MIN_POSITIVE),
        ),
    ];
    let mut values = l.values;
    values.extend(pipeline);
    values.extend(model);
    Ledger {
        values,
        bottleneck,
        attempted,
        failed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::run_pipeline;
    use crate::metrics::PER_LAYER;
    use crate::workload::{runtime_config, WORKLOADS};

    #[test]
    fn a_traced_run_measures_every_per_layer_metric() {
        // One workload per branch of the model: merge-before-tcp and SCR.
        for w in WORKLOADS
            .iter()
            .filter(|w| ["msg64k", "scr64"].contains(&w.name))
        {
            let w = Workload {
                frames: w.frames.min(500),
                ..*w
            };
            let cfg = runtime_config(&w);
            let mut tracer = Tracer::new();
            let run = run_pipeline(&w, &cfg, 9, 0.2, Some(&mut tracer)).unwrap();
            assert_eq!(run.traced.len(), crate::measure::SEGMENTS);
            let ledger = measure(&w, &cfg, 9, &run, &mut tracer);
            for m in &PER_LAYER {
                let v = ledger
                    .value(m.name)
                    .unwrap_or_else(|| panic!("{} lacks {}", w.name, m.name));
                assert!(v.is_finite() && v >= 0.0, "{} {} = {v}", w.name, m.name);
            }
            assert_eq!(
                ledger.values.len(),
                PER_LAYER.len(),
                "{}: a value no table names",
                w.name
            );
            assert_eq!((run.failed, ledger.failed), (0, 0), "{}", w.name);
            assert_eq!(ledger.value("pool.leaked_slots"), Some(0.0));
            assert!(["dispatcher", "workers", "merger"].contains(&ledger.bottleneck));
            // Every layer loop and every traced call left a span behind.
            let totals = tracer.totals();
            for name in [
                "setup",
                "segment",
                "process_parallel",
                "layers",
                "ring.mux_ns_per_item",
                "pipeline.call_overhead_us",
            ] {
                assert!(
                    totals.iter().any(|t| t.name == name),
                    "{}: no {name} span",
                    w.name
                );
            }
        }
    }
}
