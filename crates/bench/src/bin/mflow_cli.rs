//! `mflow-cli` — run any single scenario from the command line and print
//! the full report: throughput, latency distribution, drops, ordering
//! stats and the per-core CPU breakdown.
//!
//! ```text
//! cargo run -p mflow-bench --release --bin mflow_cli -- \
//!     --system mflow --transport tcp --msg 65536 --duration-ms 60 \
//!     [--flows N] [--batch 256] [--seed 42] [--no-noise] [--cpu]
//! ```

use mflow::MflowConfig;
use mflow_netstack::{
    FaultConfig, FlowSpec, NoiseConfig, StackConfig, StackSim, Transport,
};
use mflow_metrics::CountingAlloc;
use mflow_runtime::{
    frame_wire_len, frames_from_pcap, generate_frames, generate_frames_into, process_parallel,
    process_parallel_faulty, BackpressurePolicy, BufPool, MergerKill, MergerStall, PolicyKind,
    RuntimeConfig, RuntimeFaults, SlowWorker, StatefulMode,
};
use mflow_sim::MS;
use mflow_workloads::sockperf::UDP_CLIENTS;
use mflow_workloads::System;

/// Counting allocator, so the runtime sweep can report allocations
/// per frame — the zero-copy datapath's headline metric.
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

struct Args {
    system: System,
    transport: Transport,
    msg: u64,
    duration_ms: u64,
    flows: usize,
    batch: u32,
    seed: u64,
    noise: bool,
    cpu: bool,
    faults: FaultConfig,
    flush_after: Option<u64>,
    // Simulator de-split feedback (lane-occupancy watermarks).
    lane_high_watermark: Option<u64>,
    lane_low_watermark: Option<u64>,
    overload_windows: Option<u32>,
    // Threaded-runtime mode.
    runtime: bool,
    workers: usize,
    queue_depth: usize,
    frames: usize,
    backpressure: BackpressurePolicy,
    drop_budget: u64,
    inline_fallback: bool,
    high_watermark: Option<usize>,
    rt_faults: RuntimeFaults,
    merger_depth: usize,
    rt_policy: PolicyKind,
    // Buffer-pool sizing (0 = derived from the frame count / payload).
    pool_slots: usize,
    pool_slab: usize,
    // Replay a pcap capture instead of generating frames.
    pcap: Option<String>,
    // Supervision (runtime mode).
    restart_budget: u32,
    heartbeat_interval_ms: Option<u64>,
    restart_backoff_ms: u64,
    checkpoint_every: u64,
    // Stateful-stage placement (both engines).
    stateful_mode: StatefulMode,
    stateful_work: u32,
    // Runtime sweep bench mode ({workers, batch}).
    bench_transport: bool,
    // Policy-comparison bench mode.
    bench_policy: bool,
    bench_out: String,
    bench_enforce: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: mflow_cli [--system native|vanilla|rps|falcon-dev|falcon-fun|mflow]\n\
         \x20                [--transport tcp|udp] [--msg BYTES] [--duration-ms MS]\n\
         \x20                [--flows N] [--batch PKTS] [--seed N] [--no-noise] [--cpu]\n\
         \x20                [--fault-seed N] [--fault-drop RATE] [--fault-drop-last]\n\
         \x20                [--fault-dup RATE] [--fault-delay RATE]\n\
         \x20                [--fault-kill-mf FLOW:MF] [--flush-after OFFERS]\n\
         \x20                [--lane-high-watermark SEGS] [--lane-low-watermark SEGS]\n\
         \x20                [--overload-windows N]\n\
         \x20  runtime mode: --runtime [--workers N] [--queue-depth N] [--frames N]\n\
         \x20                [--backpressure block|drop-tail|inline] [--drop-budget PKTS]\n\
         \x20                [--inline-fallback] [--high-watermark DEPTH]\n\
         \x20                [--fault-slow-worker WORKER:US] [--flush-timeout-ms MS]\n\
         \x20                [--pool-slots N] [--pool-slab BYTES] [--pcap FILE]\n\
         \x20                [--merger-depth MFS] [--restart-budget N]\n\
         \x20                [--heartbeat-interval-ms MS] [--restart-backoff-ms MS]\n\
         \x20                [--checkpoint-every OFFERS]\n\
         \x20                [--fault-merger-kill OFFERS:INCARNATION]...\n\
         \x20                [--fault-merger-stall OFFERS:MS]\n\
         \x20                [--stateful-mode merge-before-tcp|scr] [--stateful-work ROUNDS]\n\
         \x20  bench mode:   --bench-transport | --bench-policy\n\
         \x20                [--frames N] [--bench-out PATH] [--bench-enforce]"
    );
    std::process::exit(2);
}

/// A `--policy` name, or exit 2 naming the valid ones.
fn parse_policy(name: &str) -> PolicyKind {
    PolicyKind::parse(name).unwrap_or_else(|| {
        let valid = PolicyKind::ALL.map(PolicyKind::name).join(", ");
        eprintln!("unknown steering policy '{name}' (valid: {valid})");
        usage()
    })
}

fn parse_args() -> Args {
    let mut args = Args {
        system: System::Mflow,
        transport: Transport::Tcp,
        msg: 65536,
        duration_ms: 60,
        flows: 0, // 0 = transport default
        batch: 256,
        seed: 42,
        noise: true,
        cpu: false,
        faults: FaultConfig::none(),
        flush_after: None,
        lane_high_watermark: None,
        lane_low_watermark: None,
        overload_windows: None,
        runtime: false,
        workers: 4,
        queue_depth: 8,
        frames: 50_000,
        backpressure: BackpressurePolicy::Block,
        drop_budget: 0,
        inline_fallback: false,
        high_watermark: None,
        rt_faults: RuntimeFaults::none(),
        merger_depth: RuntimeConfig::default().merger_depth,
        rt_policy: PolicyKind::Mflow,
        pool_slots: 0,
        pool_slab: 0,
        pcap: None,
        restart_budget: 0,
        heartbeat_interval_ms: None,
        restart_backoff_ms: RuntimeConfig::default().restart_backoff_ms,
        checkpoint_every: RuntimeConfig::default().checkpoint_every,
        stateful_mode: StatefulMode::MergeBeforeTcp,
        stateful_work: 0,
        bench_transport: false,
        bench_policy: false,
        bench_out: String::new(),
        bench_enforce: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--system" => {
                args.system = match value(&mut i).as_str() {
                    "native" => System::Native,
                    "vanilla" => System::Vanilla,
                    "rps" => System::Rps,
                    "falcon-dev" => System::FalconDev,
                    "falcon-fun" => System::FalconFun,
                    "mflow" => System::Mflow,
                    other => {
                        eprintln!("unknown system '{other}'");
                        usage()
                    }
                }
            }
            "--transport" => {
                args.transport = match value(&mut i).as_str() {
                    "tcp" => Transport::Tcp,
                    "udp" => Transport::Udp,
                    other => {
                        eprintln!("unknown transport '{other}'");
                        usage()
                    }
                }
            }
            "--msg" => args.msg = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--duration-ms" => {
                args.duration_ms = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--flows" => args.flows = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--batch" => args.batch = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--no-noise" => args.noise = false,
            "--cpu" => args.cpu = true,
            "--flush-after" => {
                args.flush_after = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--fault-seed" => {
                args.faults.seed = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fault-drop" => {
                args.faults.drop_rate = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fault-drop-last" => args.faults.drop_last_only = true,
            "--fault-dup" => {
                args.faults.dup_rate = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fault-delay" => {
                args.faults.delay_rate = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fault-kill-mf" => {
                let v = value(&mut i);
                let (flow, mf) = v.split_once(':').unwrap_or_else(|| usage());
                args.faults.kill_microflows.push((
                    flow.parse().unwrap_or_else(|_| usage()),
                    mf.parse().unwrap_or_else(|_| usage()),
                ));
            }
            "--lane-high-watermark" => {
                args.lane_high_watermark = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--lane-low-watermark" => {
                args.lane_low_watermark = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--overload-windows" => {
                args.overload_windows = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--runtime" => args.runtime = true,
            "--workers" => args.workers = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--queue-depth" => {
                args.queue_depth = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--frames" => args.frames = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--backpressure" => {
                args.backpressure = match value(&mut i).as_str() {
                    "block" => BackpressurePolicy::Block,
                    "drop-tail" => BackpressurePolicy::DropTail { budget: 0 },
                    "inline" => BackpressurePolicy::Inline,
                    other => {
                        eprintln!("unknown backpressure policy '{other}'");
                        usage()
                    }
                }
            }
            "--drop-budget" => {
                args.drop_budget = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--inline-fallback" => args.inline_fallback = true,
            "--high-watermark" => {
                args.high_watermark = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--fault-slow-worker" => {
                let v = value(&mut i);
                let (w, us) = v.split_once(':').unwrap_or_else(|| usage());
                args.rt_faults.slow_worker = Some(SlowWorker {
                    worker: w.parse().unwrap_or_else(|_| usage()),
                    per_batch_us: us.parse().unwrap_or_else(|_| usage()),
                });
            }
            "--flush-timeout-ms" => {
                args.rt_faults.flush_timeout_ms =
                    Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--merger-depth" => {
                args.merger_depth = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--pool-slots" => {
                args.pool_slots = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--pool-slab" => {
                args.pool_slab = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--pcap" => args.pcap = Some(value(&mut i)),
            "--policy" => {
                let v = value(&mut i);
                args.rt_policy = parse_policy(&v)
            }
            "--restart-budget" => {
                args.restart_budget = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--heartbeat-interval-ms" => {
                args.heartbeat_interval_ms =
                    Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--restart-backoff-ms" => {
                args.restart_backoff_ms = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--checkpoint-every" => {
                args.checkpoint_every = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--fault-merger-kill" => {
                let v = value(&mut i);
                let (offers, inc) = v.split_once(':').unwrap_or_else(|| usage());
                args.rt_faults.merger_kills.push(MergerKill {
                    after_offers: offers.parse().unwrap_or_else(|_| usage()),
                    incarnation: inc.parse().unwrap_or_else(|_| usage()),
                });
            }
            "--fault-merger-stall" => {
                let v = value(&mut i);
                let (offers, ms) = v.split_once(':').unwrap_or_else(|| usage());
                args.rt_faults.merger_stall = Some(MergerStall {
                    after_offers: offers.parse().unwrap_or_else(|_| usage()),
                    ms: ms.parse().unwrap_or_else(|_| usage()),
                });
            }
            "--stateful-mode" => {
                let v = value(&mut i);
                args.stateful_mode = StatefulMode::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown stateful mode '{v}'");
                    usage()
                })
            }
            "--stateful-work" => {
                args.stateful_work = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--bench-transport" => args.bench_transport = true,
            "--bench-policy" => args.bench_policy = true,
            "--bench-out" => args.bench_out = value(&mut i),
            "--bench-enforce" => args.bench_enforce = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag '{other}'");
                usage()
            }
        }
        i += 1;
    }
    args
}

/// Runs the byte-level threaded pipeline (`--runtime`) and prints its
/// delivery/overload accounting instead of the simulator report.
fn run_runtime(a: &Args) {
    let policy = match a.backpressure {
        BackpressurePolicy::DropTail { .. } => BackpressurePolicy::DropTail {
            budget: a.drop_budget,
        },
        p => p,
    };
    let cfg = RuntimeConfig {
        workers: a.workers,
        batch_size: a.batch as usize,
        queue_depth: a.queue_depth,
        backpressure: policy,
        high_watermark: a.high_watermark,
        inline_fallback: a.inline_fallback,
        merger_depth: a.merger_depth,
        policy: a.rt_policy,
        heartbeat_interval_ms: a.heartbeat_interval_ms,
        restart_budget: a.restart_budget,
        restart_backoff_ms: a.restart_backoff_ms,
        stateful_mode: a.stateful_mode,
        stateful_work: a.stateful_work,
        checkpoint_every: a.checkpoint_every,
        ..RuntimeConfig::default()
    };
    // Frames live in an explicit buffer pool: generated traffic sizes it
    // exactly, pcap replay sizes slots for the largest typical MTU frame
    // unless overridden with --pool-slots / --pool-slab.
    const PAYLOAD: usize = 1400;
    let slab = match (a.pool_slab, &a.pcap) {
        (0, Some(_)) => 2048,
        (0, None) => frame_wire_len(PAYLOAD),
        (slab, _) => slab,
    };
    let slots = if a.pool_slots > 0 { a.pool_slots } else { a.frames };
    let pool = BufPool::try_new(slots, slab).unwrap_or_else(|e| {
        eprintln!("a pool of {slots} slots x {slab} B cannot be built: {e}");
        usage()
    });
    let (frames, n_frames) = if let Some(path) = &a.pcap {
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("failed to read pcap '{path}': {e}");
                std::process::exit(2);
            }
        };
        let frames = match frames_from_pcap(&pool, &data) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("malformed pcap '{path}': {e:?}");
                std::process::exit(2);
            }
        };
        let n = frames.len();
        (frames, n)
    } else {
        (generate_frames_into(&pool, a.frames, PAYLOAD), a.frames)
    };
    let out = match process_parallel_faulty(&frames, &cfg, &a.rt_faults) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("runtime config rejected: {e}");
            std::process::exit(2);
        }
    };
    let bytes: u64 = frames.iter().map(|f| f.bytes().len() as u64).sum();
    let secs = out.elapsed.as_secs_f64();
    println!(
        "runtime: {} workers x {} batch (depth {}, policy {:?}) — {:.2} Gbps over {} frames in {:.1} ms",
        a.workers,
        a.batch,
        a.queue_depth,
        policy,
        bytes as f64 * 8.0 / secs / 1e9,
        n_frames,
        secs * 1e3,
    );
    let ps = pool.stats();
    println!(
        "pool: {} slots x {} B, {:.1}% hit rate ({} hits, {} misses), {} recycled, {} in flight",
        ps.slots,
        ps.slot_len,
        ps.hit_rate() * 100.0,
        ps.hits,
        ps.misses,
        ps.recycled,
        pool.in_flight(),
    );
    println!(
        "delivery: {} delivered, {} shed, {} flushed micro-flows, {} merge residue",
        out.digests.len(),
        out.telemetry.shed,
        out.flushed_mfs.len(),
        out.telemetry.residue
    );
    println!(
        "overload: {} backpressure events, {} inline batches ({} packets), {} block fallbacks",
        out.backpressure_events, out.inline_batches, out.telemetry.inline, out.block_fallbacks
    );
    if !out.sheds.is_empty() {
        let mut per_lane = std::collections::BTreeMap::new();
        for &(_, lane) in &out.sheds {
            *per_lane.entry(lane).or_insert(0u64) += 1;
        }
        println!("sheds by lane: {per_lane:?}");
    }
    println!(
        "ordering: {} raced at merge; faults: {} drops, {} redispatched, {} workers died",
        out.telemetry.ooo, out.telemetry.fault_drops, out.telemetry.redispatched, out.workers_died
    );
    if cfg.supervised() || out.merger_deaths > 0 {
        println!(
            "supervision: {} restarts, {} heartbeat misses, worst recovery {:.2} ms, {} respawned / {} abandoned",
            out.telemetry.restarts,
            out.telemetry.heartbeat_misses,
            out.telemetry.recovery_ns as f64 / 1e6,
            out.workers_respawned,
            out.workers_abandoned,
        );
        println!(
            "merger domain: {} deaths / {} respawns, worst recovery {:.2} ms, \
             {} checkpoints ({} snapshot bytes), {} offers replayed",
            out.merger_deaths,
            out.telemetry.merger_restarts,
            out.telemetry.merger_recovery_ns as f64 / 1e6,
            out.checkpoints,
            out.telemetry.snapshot_bytes,
            out.telemetry.restore_replayed_offers,
        );
        if out.recovery.recovered_ns > 0 {
            println!(
                "recovery rate: {:.2} Mfps pre-fault -> {:.2} Mfps post-respawn",
                out.recovery.prefault_rate() / 1e6,
                out.recovery.recovered_rate() / 1e6,
            );
        }
    }
    // The machine-readable line: the same schema both engines emit.
    println!(
        "telemetry: {}",
        out.telemetry.to_json_with(&[
            ("workers_died", out.workers_died.to_string()),
            ("backpressure_events", out.backpressure_events.to_string()),
            ("merger_deaths", out.merger_deaths.to_string()),
            ("checkpoints", out.checkpoints.to_string()),
        ])
    );
}

/// Host core count for the bench-file headers: a sweep point with more
/// threads than cores measures time-slicing, not scaling.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One measured point of the runtime sweep.
struct BenchPoint {
    workers: usize,
    batch: usize,
    best_ns: u128,
    mean_ns: u128,
    gbps: f64,
    mpps: f64,
    /// Allocator events per frame across the timed runs (pipeline only,
    /// generation excluded).
    allocs_per_frame: f64,
    /// Buffer-pool hit rate over this point's allocations.
    pool_hit_rate: f64,
}

/// `--bench-transport`: sweep {workers} x {batch} over the fault-free
/// pipeline and write the results as JSON
/// (hand-serialized — the workspace is dependency-free). Each point
/// reports best-of-K wall time; throughput derives from the best run,
/// the standard way to strip scheduler noise from a short benchmark.
/// Frames are regenerated into one shared [`BufPool`] before every run,
/// so each point also exercises and reports the slab recycle path
/// (`pool_hit_rate`) and the pipeline's allocator traffic
/// (`allocs_per_frame`, from the counting global allocator).
///
/// With `--bench-enforce` the process exits nonzero when the zero-copy
/// gate fails: throughput at the reference point {4 workers, batch 32}
/// fell under 2x the pre-pool baseline, or the pipeline allocates more
/// than two allocations per micro-flow there (the design is one: the
/// run's results `Vec`).
fn run_bench_transport(a: &Args) {
    const PAYLOAD: usize = 256;
    const WORKERS: [usize; 3] = [1, 2, 4];
    const BATCHES: [usize; 3] = [8, 32, 256];
    // Best-of-9: on a contended host the per-run variance at the
    // reference points is larger than the gate margins, and `best_ns`
    // estimates the noise floor — more samples only tighten it.
    const ITERS: usize = 9;
    // The reference point {4 workers, batch 32} measured just
    // before the pooled zero-copy datapath landed — the denominator of
    // the speedup gate.
    const BASELINE_W4_B32_RING_MPPS: f64 = 1.4015;
    const SPEEDUP_THRESHOLD: f64 = 2.0;
    // The pipeline's design is one allocation per micro-flow (the run's
    // results `Vec`); twice that leaves room for the per-call fixed cost
    // at bench-sized inputs. Per frame that is `2 / batch`.
    const ALLOC_BUDGET_PER_MICROFLOW: f64 = 2.0;

    let n_frames = a.frames;
    let pool = BufPool::for_frames(n_frames, frame_wire_len(PAYLOAD));
    let bytes = (frame_wire_len(PAYLOAD) * n_frames) as u64;
    let mut points: Vec<BenchPoint> = Vec::new();
    for workers in WORKERS {
        for batch in BATCHES {
            let cfg = RuntimeConfig {
                workers,
                batch_size: batch,
                queue_depth: 8,
                ..RuntimeConfig::default()
            };
            let pool_start = pool.stats();
            // One warmup run pages everything in and checks delivery,
            // then K timed runs. Frames are rebuilt into the shared pool
            // before every run and dropped after it, so the slab
            // recycles at every point.
            {
                let frames = generate_frames_into(&pool, n_frames, PAYLOAD);
                let out = process_parallel(&frames, &cfg).expect("bench config must be valid");
                assert_eq!(out.digests.len(), n_frames, "bench run lost packets");
            }
            let mut best_ns = u128::MAX;
            let mut total_ns = 0u128;
            let mut run_allocs = 0u64;
            for _ in 0..ITERS {
                let frames = generate_frames_into(&pool, n_frames, PAYLOAD);
                let allocs_at_start = ALLOC.allocations();
                let out = process_parallel(&frames, &cfg).expect("bench config must be valid");
                run_allocs += ALLOC.allocations() - allocs_at_start;
                let ns = out.elapsed.as_nanos();
                best_ns = best_ns.min(ns);
                total_ns += ns;
            }
            let pool_end = pool.stats();
            let d_hits = pool_end.hits - pool_start.hits;
            let d_misses = pool_end.misses - pool_start.misses;
            let pool_hit_rate = if d_hits + d_misses == 0 {
                1.0
            } else {
                d_hits as f64 / (d_hits + d_misses) as f64
            };
            let secs = best_ns as f64 / 1e9;
            let point = BenchPoint {
                workers,
                batch,
                best_ns,
                mean_ns: total_ns / ITERS as u128,
                gbps: bytes as f64 * 8.0 / secs / 1e9,
                mpps: n_frames as f64 / secs / 1e6,
                allocs_per_frame: run_allocs as f64 / (ITERS * n_frames) as f64,
                pool_hit_rate,
            };
            println!(
                "bench: w={} b={:<4} best {:>9} ns  mean {:>9} ns  {:.2} Gbps  {:.2} Mpps  {:.3} allocs/frame  pool {:.1}%",
                point.workers,
                point.batch,
                point.best_ns,
                point.mean_ns,
                point.gbps,
                point.mpps,
                point.allocs_per_frame,
                point.pool_hit_rate * 100.0,
            );
            points.push(point);
        }
    }

    // The zero-copy gate: (a) >= 2x the pre-pool throughput baseline at
    // the reference point, (b) allocator traffic under budget there.
    let gate = points
        .iter()
        .find(|p| p.workers == 4 && p.batch == 32)
        .expect("sweep covers the reference point");
    let speedup = gate.mpps / BASELINE_W4_B32_RING_MPPS;
    let speedup_pass = speedup >= SPEEDUP_THRESHOLD;
    let alloc_budget_per_frame = ALLOC_BUDGET_PER_MICROFLOW / gate.batch as f64;
    let alloc_pass = gate.allocs_per_frame <= alloc_budget_per_frame;
    let zerocopy_pass = speedup_pass && alloc_pass;
    println!(
        "zerocopy gate @ w=4 b=32: {:.2}x vs {BASELINE_W4_B32_RING_MPPS} Mpps baseline ({}; threshold {SPEEDUP_THRESHOLD}x), \
         allocs/frame {:.3} ({}; budget {alloc_budget_per_frame})",
        speedup,
        if speedup_pass { "pass" } else { "FAIL" },
        gate.allocs_per_frame,
        if alloc_pass { "pass" } else { "FAIL" },
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"runtime_parallel\",\n");
    json.push_str(&format!("  \"frames\": {n_frames},\n"));
    json.push_str(&format!("  \"payload_bytes\": {PAYLOAD},\n"));
    json.push_str(&format!("  \"bytes_per_run\": {bytes},\n"));
    json.push_str(&format!("  \"iters_per_point\": {ITERS},\n"));
    json.push_str(&format!("  \"nproc\": {},\n", nproc()));
    json.push_str(&format!(
        "  \"pool\": {{\"slots\": {n_frames}, \"slot_bytes\": {}}},\n",
        frame_wire_len(PAYLOAD)
    ));
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"batch\": {}, \"best_ns\": {}, \"mean_ns\": {}, \"gbps\": {:.4}, \"mpps\": {:.4}, \"allocs_per_frame\": {:.4}, \"pool_hit_rate\": {:.4}}}{}\n",
            p.workers,
            p.batch,
            p.best_ns,
            p.mean_ns,
            p.gbps,
            p.mpps,
            p.allocs_per_frame,
            p.pool_hit_rate,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"zerocopy_gate\": {{\"workers\": 4, \"batch\": 32, \"baseline_mpps\": {BASELINE_W4_B32_RING_MPPS}, \"mpps\": {:.4}, \"speedup\": {speedup:.4}, \"speedup_threshold\": {SPEEDUP_THRESHOLD}, \"allocs_per_frame\": {:.4}, \"alloc_budget_per_frame\": {alloc_budget_per_frame}, \"pass\": {zerocopy_pass}}}\n",
        gate.mpps, gate.allocs_per_frame,
    ));
    json.push_str("}\n");
    let out_path = if a.bench_out.is_empty() {
        "BENCH_runtime_parallel.json"
    } else {
        &a.bench_out
    };
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if a.bench_enforce && !zerocopy_pass {
        eprintln!(
            "zerocopy gate failed: speedup {speedup:.2}x (need {SPEEDUP_THRESHOLD}x), \
             allocs/frame {:.3} (budget {alloc_budget_per_frame})",
            gate.allocs_per_frame
        );
        std::process::exit(1);
    }
}

/// One measured point of the policy sweep.
struct PolicyPoint {
    policy: PolicyKind,
    best_ns: u128,
    mean_ns: u128,
    gbps: f64,
    mpps: f64,
    ooo: u64,
}

/// `--bench-policy`: race the steering policies over the same
/// elephant-flow workload (one heavy flow, the scenario MFLOW exists
/// for) at the reference point {4 workers, batch 32}. Writes
/// `BENCH_policy_compare.json`.
///
/// With `--bench-enforce` the process exits nonzero unless MFLOW's
/// packet-level parallelism beats RPS-style whole-flow pinning — the
/// paper's headline claim as a regression gate.
fn run_bench_policy(a: &Args) {
    const PAYLOAD: usize = 256;
    const ITERS: usize = 5;

    let n_frames = a.frames;
    // One elephant flow: every frame shares the flow hash, so whole-flow
    // policies collapse onto a single lane while MFLOW spreads batches.
    let frames = generate_frames(n_frames, PAYLOAD);
    let bytes: u64 = frames.iter().map(|f| f.bytes().len() as u64).sum();
    let mut points: Vec<PolicyPoint> = Vec::new();
    for policy in PolicyKind::ALL {
        let cfg = RuntimeConfig {
            workers: 4,
            batch_size: 32,
            queue_depth: 8,
            policy,
            ..RuntimeConfig::default()
        };
        let out = process_parallel(&frames, &cfg).expect("bench config must be valid");
        assert_eq!(out.digests.len(), n_frames, "bench run lost packets");
        let mut best_ns = u128::MAX;
        let mut total_ns = 0u128;
        let mut ooo = 0u64;
        for _ in 0..ITERS {
            let out = process_parallel(&frames, &cfg).expect("bench config must be valid");
            let ns = out.elapsed.as_nanos();
            if ns < best_ns {
                best_ns = ns;
                ooo = out.telemetry.ooo;
            }
            total_ns += ns;
        }
        let secs = best_ns as f64 / 1e9;
        let point = PolicyPoint {
            policy,
            best_ns,
            mean_ns: total_ns / ITERS as u128,
            gbps: bytes as f64 * 8.0 / secs / 1e9,
            mpps: n_frames as f64 / secs / 1e6,
            ooo,
        };
        println!(
            "bench: {:<12} best {:>9} ns  mean {:>9} ns  {:.2} Gbps  {:.2} Mpps  ooo {}",
            point.policy,
            point.best_ns,
            point.mean_ns,
            point.gbps,
            point.mpps,
            point.ooo,
        );
        points.push(point);
    }

    // The headline gate: micro-flow splitting must out-run whole-flow
    // pinning on the elephant workload.
    let best_of = |policy: PolicyKind| {
        points
            .iter()
            .find(|p| p.policy == policy)
            .map(|p| p.best_ns)
            .expect("sweep covers every policy")
    };
    let mflow_ns = best_of(PolicyKind::Mflow);
    let rps_ns = best_of(PolicyKind::Rps);
    let pass = mflow_ns < rps_ns;
    println!(
        "gate @ w=4 b=32: mflow/rps time ratio {:.3} ({})",
        mflow_ns as f64 / rps_ns as f64,
        if pass { "pass" } else { "FAIL" }
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"policy_compare\",\n");
    json.push_str(&format!("  \"frames\": {n_frames},\n"));
    json.push_str(&format!("  \"payload_bytes\": {PAYLOAD},\n"));
    json.push_str(&format!("  \"bytes_per_run\": {bytes},\n"));
    json.push_str(&format!("  \"iters_per_point\": {ITERS},\n"));
    json.push_str(&format!("  \"nproc\": {},\n", nproc()));
    json.push_str("  \"workers\": 4,\n  \"batch\": 32,\n");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"best_ns\": {}, \"mean_ns\": {}, \"gbps\": {:.4}, \"mpps\": {:.4}, \"ooo\": {}}}{}\n",
            p.policy,
            p.best_ns,
            p.mean_ns,
            p.gbps,
            p.mpps,
            p.ooo,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gate\": {{\"claim\": \"mflow beats rps on the elephant workload\", \"pass\": {pass}}}\n",
    ));
    json.push_str("}\n");
    let out_path = if a.bench_out.is_empty() {
        "BENCH_policy_compare.json"
    } else {
        &a.bench_out
    };
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if a.bench_enforce && !pass {
        eprintln!("bench gate failed: mflow did not beat rps on the elephant workload");
        std::process::exit(1);
    }
}

fn main() {
    let a = parse_args();
    if a.bench_transport {
        run_bench_transport(&a);
        return;
    }
    if a.bench_policy {
        run_bench_policy(&a);
        return;
    }
    if a.runtime {
        run_runtime(&a);
        return;
    }
    let flow = match a.transport {
        Transport::Tcp => FlowSpec::tcp(a.msg, 0),
        Transport::Udp => FlowSpec::udp(a.msg, 0),
    };
    let n_flows = if a.flows > 0 {
        a.flows
    } else if a.transport == Transport::Udp {
        UDP_CLIENTS
    } else {
        1
    };
    let mut cfg = StackConfig::single_flow(a.system.path(), flow.clone());
    cfg.flows = vec![flow; n_flows];
    cfg.duration_ns = a.duration_ms * MS;
    cfg.warmup_ns = cfg.duration_ns / 4;
    cfg.seed = a.seed;
    if !a.noise {
        cfg.noise = NoiseConfig::off();
    }
    let faults_on = a.faults.is_active();
    if faults_on {
        cfg.faults = Some(a.faults.clone());
    }
    let (policy, merge) = if a.system == System::Mflow {
        let mut mcfg = match a.transport {
            Transport::Tcp => MflowConfig::tcp_full_path(),
            Transport::Udp => MflowConfig::udp_device_scaling(),
        };
        mcfg.batch_size = a.batch;
        mcfg.stateful_mode = a.stateful_mode;
        if a.flush_after.is_some() {
            mcfg.flush_after_offers = a.flush_after;
        }
        if let Some(hi) = a.lane_high_watermark {
            mcfg.elephant.lane_high_watermark_segs = hi;
            mcfg.elephant.lane_low_watermark_segs = a.lane_low_watermark.unwrap_or(hi / 2);
        }
        if let Some(w) = a.overload_windows {
            mcfg.elephant.overload_windows = w;
        }
        match mflow::try_install(mcfg) {
            Ok((p, m)) => (p, Some(m)),
            Err(e) => {
                eprintln!("mflow config rejected: {e}");
                std::process::exit(2);
            }
        }
    } else {
        a.system.build_single_flow(a.transport)
    };

    let r = match StackSim::try_run(cfg, policy, merge) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("stack config rejected: {e}");
            std::process::exit(2);
        }
    };
    println!("{}", r.summary());
    println!(
        "telemetry: {}",
        r.telemetry.to_json_with(&[
            ("ring_drops", r.ring_drops.to_string()),
            ("sock_drops", r.sock_drops.to_string()),
        ])
    );
    println!(
        "delivered {:.1} MB in {} messages over {:.0} ms ({} events simulated)",
        r.delivered_bytes as f64 / 1e6,
        r.telemetry.delivered,
        r.measured_ns as f64 / 1e6,
        r.events
    );
    println!(
        "ordering: {} raced at merge, {} tcp ooo inserts, {} merge residue",
        r.telemetry.ooo, r.tcp_ooo_inserts, r.telemetry.residue
    );
    if r.telemetry.desplits > 0 || r.telemetry.resplits > 0 {
        println!(
            "overload: {} flows de-split under lane pressure, {} re-promoted",
            r.telemetry.desplits, r.telemetry.resplits
        );
    }
    if faults_on {
        println!(
            "faults: injected {} drops, {} dups, {} late skbs",
            r.telemetry.fault_drops, r.fault_dups, r.fault_delays
        );
        println!(
            "degradation: {} micro-flows flushed, {} late drops, {} dup drops",
            r.telemetry.flushed, r.telemetry.late, r.telemetry.dup
        );
    }
    println!(
        "latency: p50 {:.1}us  mean {:.1}us  p99 {:.1}us  max {:.1}us",
        r.latency.median() as f64 / 1e3,
        r.latency.mean() / 1e3,
        r.latency.p99() as f64 / 1e3,
        r.latency.max() as f64 / 1e3
    );
    if a.cpu {
        println!("\nper-core CPU:\n{}", r.cpu.render(r.duration_ns));
    }
}

