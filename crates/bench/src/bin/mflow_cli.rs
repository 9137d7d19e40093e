//! `mflow-cli` — run any single scenario from the command line and print
//! the full report: throughput, latency distribution, drops, ordering
//! stats and the per-core CPU breakdown.
//!
//! ```text
//! cargo run -p mflow-bench --release --bin mflow_cli -- \
//!     --system mflow --transport tcp --msg 65536 --duration-ms 60 \
//!     [--flows N] [--batch 256] [--seed 42] [--no-noise] [--cpu]
//! ```

use std::collections::{BTreeMap, BTreeSet};

use mflow::MflowConfig;
use mflow_netstack::{
    FaultConfig, FlowSpec, NoiseConfig, StackConfig, StackSim, Transport,
};
use mflow_metrics::CountingAlloc;
use mflow_runtime::{
    frame_wire_len, frames_from_pcap, generate_frames, generate_frames_into, process_parallel,
    process_parallel_faulty, process_serial, process_serial_stateful, BackpressurePolicy, BufPool,
    Frame, LaneStall, MergerKill, MergerStall, PolicyKind, RuntimeConfig,
    RuntimeFaults, SlowWorker, StatefulMode, WorkerKill,
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
    // Chaos-soak mode.
    chaos_soak: bool,
    chaos_seed: u64,
    chaos_frames: usize,
    chaos_policies: Vec<PolicyKind>,
    // Runtime sweep bench mode ({workers, batch}).
    bench_transport: bool,
    // Policy-comparison bench mode.
    bench_policy: bool,
    // Stateful-mode bench (merge-before-tcp vs state-compute replication).
    bench_stateful: bool,
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
         \x20                [--fault-lane-stall WORKER:MS] [--fault-slow-worker WORKER:US]\n\
         \x20                [--flush-timeout-ms MS]\n\
         \x20                [--pool-slots N] [--pool-slab BYTES] [--pcap FILE]\n\
         \x20                [--merger-depth MFS] [--restart-budget N]\n\
         \x20                [--heartbeat-interval-ms MS] [--restart-backoff-ms MS]\n\
         \x20                [--checkpoint-every OFFERS]\n\
         \x20                [--fault-merger-kill OFFERS:INCARNATION]...\n\
         \x20                [--fault-merger-stall OFFERS:MS]\n\
         \x20                [--stateful-mode merge-before-tcp|scr] [--stateful-work ROUNDS]\n\
         \x20  chaos mode:   --chaos-soak [--chaos-seed N] [--chaos-frames N]\n\
         \x20                [--chaos-policies p1,p2,..]\n\
         \x20  bench mode:   --bench-transport | --bench-policy | --bench-stateful\n\
         \x20                [--frames N] [--bench-out PATH] [--bench-enforce]"
    );
    std::process::exit(2);
}

/// A `--policy` / `--chaos-policies` name, or exit 2 naming the valid
/// ones.
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
        chaos_soak: false,
        chaos_seed: 42,
        chaos_frames: 4_000,
        chaos_policies: PolicyKind::ALL.to_vec(),
        bench_transport: false,
        bench_policy: false,
        bench_stateful: false,
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
            "--fault-lane-stall" => {
                let v = value(&mut i);
                let (w, ms) = v.split_once(':').unwrap_or_else(|| usage());
                args.rt_faults.lane_stall = Some(LaneStall {
                    worker: w.parse().unwrap_or_else(|_| usage()),
                    ms: ms.parse().unwrap_or_else(|_| usage()),
                });
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
            "--chaos-soak" => args.chaos_soak = true,
            "--chaos-seed" => {
                args.chaos_seed = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos-frames" => {
                args.chaos_frames = value(&mut i).parse().unwrap_or_else(|_| usage())
            }
            "--chaos-policies" => {
                args.chaos_policies = value(&mut i)
                    .split(',')
                    .map(parse_policy)
                    .collect()
            }
            "--bench-transport" => args.bench_transport = true,
            "--bench-policy" => args.bench_policy = true,
            "--bench-stateful" => args.bench_stateful = true,
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
    let (pool, frames, n_frames) = if let Some(path) = &a.pcap {
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) => {
                eprintln!("failed to read pcap '{path}': {e}");
                std::process::exit(2);
            }
        };
        let slab = if a.pool_slab > 0 { a.pool_slab } else { 2048 };
        let slots = if a.pool_slots > 0 { a.pool_slots } else { a.frames };
        let pool = BufPool::new(slots, slab);
        let frames = match frames_from_pcap(&pool, &data) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("malformed pcap '{path}': {e:?}");
                std::process::exit(2);
            }
        };
        let n = frames.len();
        (pool, frames, n)
    } else {
        let slab = if a.pool_slab > 0 {
            a.pool_slab
        } else {
            frame_wire_len(PAYLOAD)
        };
        let slots = if a.pool_slots > 0 { a.pool_slots } else { a.frames };
        let pool = BufPool::new(slots, slab);
        let frames = generate_frames_into(&pool, a.frames, PAYLOAD);
        (pool, frames, a.frames)
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

/// SplitMix64 — the same mixer the runtime fault plan uses. The CLI
/// needs it only to derive per-cell seeds and kill points; determinism
/// (same seed -> same schedule) is what makes a soak failure replayable.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a cell seed from the soak seed and the cell's policy *name*
/// (not its index): a replay run filtered to one policy folds the
/// identical string and reproduces the identical seed. The literal
/// `"ring"` is part of the derivation: CI's fixed seeds and every
/// recorded `REPLAY:` line name schedules computed with it, so dropping
/// it would silently change them all.
fn cell_seed(soak_seed: u64, policy: PolicyKind) -> u64 {
    let mut acc = splitmix(soak_seed);
    for b in policy.name().bytes().chain("ring".bytes()) {
        acc = splitmix(acc ^ b as u64);
    }
    acc
}

/// Replays the dispatcher's batching walk to predict, from the seed
/// alone, which packets the fault plan deletes at dispatch and which
/// micro-flow every surviving packet belongs to. Mirrors the dispatcher
/// exactly: drops shift batch boundaries because batches close on
/// retained length.
fn replay_dispatch(
    n: usize,
    batch_size: usize,
    faults: &RuntimeFaults,
) -> (BTreeSet<u64>, BTreeMap<u64, u64>) {
    let mut dropped = BTreeSet::new();
    let mut mf_of = BTreeMap::new();
    let mut mf_id = 0u64;
    let mut len = 0usize;
    for i in 0..n {
        let seq = i as u64;
        let last = len + 1 == batch_size || i + 1 == n;
        if faults.drops_packet(mf_id, seq, last) {
            dropped.insert(seq);
        } else {
            len += 1;
            mf_of.insert(seq, mf_id);
        }
        if last {
            mf_id += 1;
            len = 0;
        }
    }
    (dropped, mf_of)
}

/// One finished soak cell, for the summary line.
struct CellReport {
    delivered: usize,
    restarts: u64,
    heartbeat_misses: u64,
    workers_died: usize,
    merger_restarts: u64,
    replayed_offers: u64,
    flushed: usize,
    elapsed_ms: f64,
}

/// Runs one policy cell of the chaos soak and checks the
/// full degradation contract. Every fault decision is a pure function
/// of the cell seed, so a violation message is a complete reproduction
/// recipe.
fn run_chaos_cell(
    frames: &[Frame],
    reference: &BTreeMap<u64, u64>,
    policy: PolicyKind,
    seed: u64,
) -> Result<CellReport, String> {
    let cfg = RuntimeConfig {
        workers: 4,
        batch_size: 32,
        queue_depth: 8,
        backpressure: BackpressurePolicy::Block,
        policy,
        heartbeat_interval_ms: Some(25),
        restart_budget: 32,
        restart_backoff_ms: 1,
        // Small interval so every cell crosses several checkpoint
        // boundaries and both merger kills land mid-window.
        checkpoint_every: 256,
        ..RuntimeConfig::default()
    };
    // One scheduled death per worker slot the policy materialises: every
    // fan-out lane, or every FALCON chain stage. Kill points land after
    // 2..=7 processed batches so the pre-fault rate window exists.
    let kills: Vec<WorkerKill> = (0..policy.worker_slots(cfg.workers))
        .map(|slot| WorkerKill {
            worker: slot,
            after_batches: 2 + splitmix(seed ^ (slot as u64).wrapping_mul(0x9E37)) % 6,
            incarnation: 0,
        })
        .collect();
    // Two scheduled merger deaths: incarnation 0 early in the stream,
    // its successor another ~half-checkpoint-window later — so every
    // cell proves snapshot restore plus delta replay twice, back to
    // back, while the worker kill schedule runs concurrently.
    let first_merger_kill = 64 + splitmix(seed ^ 0xC0FFEE) % 256;
    let merger_kills = vec![
        MergerKill {
            after_offers: first_merger_kill,
            incarnation: 0,
        },
        MergerKill {
            after_offers: first_merger_kill + 512,
            incarnation: 1,
        },
    ];
    let faults = RuntimeFaults {
        seed,
        drop_rate: 0.01,
        drop_last_rate: 0.02,
        dup_mf_rate: 0.03,
        late_mf_rate: 0.03,
        late_by: 3,
        stall_rate: 0.01,
        stall_ms: 1,
        kills,
        merger_kills,
        flush_timeout_ms: Some(40),
        ..RuntimeFaults::none()
    };
    let (dropped, mf_of) = replay_dispatch(frames.len(), cfg.batch_size, &faults);

    let out = process_parallel_faulty(frames, &cfg, &faults)
        .map_err(|e| format!("run failed outright: {e}"))?;

    // Ordering: strictly increasing seqs (no inversion, no duplicate),
    // every digest bit-identical to the serial reference.
    for pair in out.digests.windows(2) {
        if pair[0].seq >= pair[1].seq {
            return Err(format!(
                "ordering violated at merge: seq {} -> {}",
                pair[0].seq, pair[1].seq
            ));
        }
    }
    for r in &out.digests {
        if reference.get(&r.seq) != Some(&r.digest) {
            return Err(format!("digest mismatch at seq {}", r.seq));
        }
    }
    if out.telemetry.residue != 0 {
        return Err(format!(
            "{} items left parked in the merger (delivered {}, flushed {}, late {}, dup {}, \
             {} worker deaths, {} merger deaths, {} replayed)",
            out.telemetry.residue,
            out.digests.len(),
            out.flushed_mfs.len(),
            out.telemetry.late,
            out.telemetry.dup,
            out.workers_died,
            out.merger_deaths,
            out.telemetry.restore_replayed_offers
        ));
    }

    // Conservation: every offered packet is delivered, a replayable
    // dispatch-time drop, in a flushed micro-flow, or inside the bounded
    // in-flight window each worker death can take with it.
    let present: BTreeSet<u64> = out.digests.iter().map(|r| r.seq).collect();
    let flushed: BTreeSet<u64> = out.flushed_mfs.iter().copied().collect();
    let mut unattributed = BTreeSet::new();
    for seq in 0..frames.len() as u64 {
        if present.contains(&seq) || dropped.contains(&seq) {
            continue;
        }
        let mf = mf_of[&seq];
        if !flushed.contains(&mf) {
            unattributed.insert(mf);
        }
    }
    let window = (cfg.queue_depth + 2) * out.workers_died;
    if unattributed.len() > window {
        return Err(format!(
            "conservation violated: {} micro-flows lost without attribution \
             ({window}-batch death window): {unattributed:?}",
            unattributed.len()
        ));
    }
    if out.telemetry.lane_depths.iter().any(|&d| d != 0) {
        return Err(format!(
            "stale end-of-run lane depths {:?}",
            out.telemetry.lane_depths
        ));
    }

    // Liveness: the scheduled deaths on traffic-bearing slots must have
    // fired and been healed. Whole-flow pinning routes the single test
    // flow to one lane, so only that lane's kill is guaranteed to fire;
    // MFLOW spreads batches over every lane and FALCON chains pipe every
    // batch through every stage.
    let expected_restarts = match policy {
        PolicyKind::Mflow => cfg.workers as u64,
        PolicyKind::FalconDev | PolicyKind::FalconFunc => policy.worker_slots(cfg.workers) as u64,
        _ => 1,
    };
    if out.telemetry.restarts < expected_restarts {
        return Err(format!(
            "supervisor healed {} workers, expected at least {expected_restarts}",
            out.telemetry.restarts
        ));
    }
    // Merger failure domain: both scheduled merger kills must have fired
    // and been healed from the checkpoint layer, and replay must stay
    // within one inter-checkpoint window per restore.
    if out.merger_deaths < 2 || out.telemetry.merger_restarts < 2 {
        return Err(format!(
            "merger domain: {} deaths / {} respawns, expected at least 2 / 2",
            out.merger_deaths, out.telemetry.merger_restarts
        ));
    }
    // Each injected death panics right after journaling the fatal offer,
    // so every restore must replay at least that offer. (The strict
    // one-window upper bound is asserted by the recovery-equivalence
    // suite, whose configs keep the dispatcher's backlog pump idle; here
    // the pump may legitimately journal a burst while respawn backs off.)
    if (out.telemetry.restore_replayed_offers as usize) < out.merger_deaths {
        return Err(format!(
            "merger replayed only {} offers across {} deaths",
            out.telemetry.restore_replayed_offers, out.merger_deaths
        ));
    }

    Ok(CellReport {
        delivered: out.digests.len(),
        restarts: out.telemetry.restarts,
        heartbeat_misses: out.telemetry.heartbeat_misses,
        workers_died: out.workers_died,
        merger_restarts: out.telemetry.merger_restarts,
        replayed_offers: out.telemetry.restore_replayed_offers,
        flushed: out.flushed_mfs.len(),
        elapsed_ms: out.elapsed.as_secs_f64() * 1e3,
    })
}

/// `--chaos-soak`: run a seed-derived randomized fault schedule (worker
/// deaths, stalls, packet drops, duplicate and late micro-flows) over
/// every requested policy cell and check the degradation
/// contract continuously. On any violation, prints a single replay
/// command that reproduces the failing cell byte-for-byte and exits
/// nonzero.
fn run_chaos_soak(a: &Args) {
    let frames = generate_frames(a.chaos_frames, 256);
    let serial = process_serial(&frames);
    let reference: BTreeMap<u64, u64> = serial.digests.iter().map(|r| (r.seq, r.digest)).collect();
    println!(
        "chaos soak: seed {} over {} frames, {} policies",
        a.chaos_seed,
        a.chaos_frames,
        a.chaos_policies.len()
    );
    let mut violations = 0usize;
    let mut total_restarts = 0u64;
    for &policy in &a.chaos_policies {
        let seed = cell_seed(a.chaos_seed, policy);
        match run_chaos_cell(&frames, &reference, policy, seed) {
            Ok(r) => {
                total_restarts += r.restarts;
                println!(
                    "chaos[{policy}]: OK — {} delivered, {} flushed mfs, \
                     {} died / {} restarts, {} merger respawns ({} offers replayed), \
                     {} heartbeat misses, {:.1} ms",
                    r.delivered,
                    r.flushed,
                    r.workers_died,
                    r.restarts,
                    r.merger_restarts,
                    r.replayed_offers,
                    r.heartbeat_misses,
                    r.elapsed_ms
                );
            }
            Err(msg) => {
                violations += 1;
                println!("chaos[{policy}]: VIOLATION — {msg}");
                println!(
                    "REPLAY: cargo run --release -p mflow-bench --bin mflow_cli -- \
                     --chaos-soak --chaos-seed {} --chaos-frames {} \
                     --chaos-policies {}",
                    a.chaos_seed,
                    a.chaos_frames,
                    policy.name()
                );
            }
        }
    }
    if violations > 0 {
        eprintln!("chaos soak FAILED: {violations} cell(s) violated the degradation contract");
        std::process::exit(1);
    }
    println!(
        "chaos soak passed: {} cells, {} restarts total, 0 violations",
        a.chaos_policies.len(),
        total_restarts
    );
    run_checkpoint_sweep();
}

/// Appended to the soak output: the cost of the merger's checkpointing
/// as a function of the interval at the {4 workers, batch 32} reference
/// point. The baseline each interval is judged against is a *supervised,
/// WAL-on run that never snapshots* (`checkpoint_every = u64::MAX` —
/// journal appends only), so the delta isolates exactly the periodic
/// snapshot folds the interval controls. Arming supervision itself has a
/// separate, pre-existing price (per-batch retention copies for
/// redispatch, DESIGN.md §11) — printed once as the unarmed reference so
/// the two costs are never conflated. Fault-free runs: no respawns, no
/// replay. Best-of-3 per point: the soak's fault frames are far too few
/// for a stable rate, so the sweep generates its own stream.
fn run_checkpoint_sweep() {
    const INTERVALS: [u64; 4] = [64, 256, 1024, 4096];
    const SWEEP_FRAMES: usize = 100_000;
    let frames = generate_frames(SWEEP_FRAMES, 256);
    let base_cfg = RuntimeConfig {
        workers: 4,
        batch_size: 32,
        queue_depth: 8,
        ..RuntimeConfig::default()
    };
    let best_of = |cfg: &RuntimeConfig| -> (f64, u64, u64) {
        let mut best = f64::MAX;
        let mut stats = (0, 0);
        for _ in 0..3 {
            let out = process_parallel(&frames, cfg).expect("sweep point must run");
            assert_eq!(
                out.digests.len(),
                frames.len(),
                "checkpoint sweep lost packets (interval {})",
                cfg.checkpoint_every
            );
            let secs = out.elapsed.as_secs_f64();
            if secs < best {
                best = secs;
                stats = (out.checkpoints, out.telemetry.snapshot_bytes);
            }
        }
        (frames.len() as f64 / best / 1e6, stats.0, stats.1)
    };
    let armed = |every: u64| RuntimeConfig {
        heartbeat_interval_ms: Some(100),
        restart_budget: 4,
        checkpoint_every: every,
        ..base_cfg
    };
    let (unarmed_mpps, _, _) = best_of(&base_cfg);
    let (base_mpps, _, _) = best_of(&armed(u64::MAX));
    println!(
        "checkpoint sweep [4w x 32b, {SWEEP_FRAMES} frames, best of 3]: \
         unarmed {unarmed_mpps:.2} Mpps, armed journal-only baseline {base_mpps:.2} Mpps \
         ({:+.1}% supervision price)",
        (base_mpps / unarmed_mpps - 1.0) * 100.0,
    );
    for every in INTERVALS {
        let (mpps, checkpoints, snapshot_bytes) = best_of(&armed(every));
        println!(
            "checkpoint sweep: every={every} -> {mpps:.2} Mpps ({:+.1}% vs journal-only), \
             {checkpoints} checkpoints, {snapshot_bytes} snapshot bytes",
            (mpps / base_mpps - 1.0) * 100.0,
        );
    }
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
    const POLICIES: [PolicyKind; 3] =
        [PolicyKind::Mflow, PolicyKind::Rps, PolicyKind::FalconFunc];
    const ITERS: usize = 5;

    let n_frames = a.frames;
    // One elephant flow: every frame shares the flow hash, so whole-flow
    // policies collapse onto a single lane while MFLOW spreads batches.
    let frames = generate_frames(n_frames, PAYLOAD);
    let bytes: u64 = frames.iter().map(|f| f.bytes().len() as u64).sum();
    let mut points: Vec<PolicyPoint> = Vec::new();
    for policy in POLICIES {
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

/// One measured point of the stateful-mode sweep.
struct StatefulPoint {
    work: u32,
    mode: StatefulMode,
    best_ns: u128,
    mean_ns: u128,
    /// Merger-thread busy time of the best run: the serial stage's cost.
    serial_ns: u64,
    mpps: f64,
    replicated: u64,
}

/// `--bench-stateful`: race the two stateful-stage placements over the
/// elephant workload at the reference point {4 workers, batch 32,
/// policy mflow} — the configuration where the merge counter is engaged
/// and merge-before-tcp therefore serializes the stateful stage on the
/// merger thread — sweeping the per-packet stateful cost. Every
/// measured run is also checked byte-identical to the in-order serial
/// reference, so the sweep doubles as a differential test. Writes
/// `BENCH_stateful.json`.
///
/// With `--bench-enforce` the process exits nonzero unless
/// state-compute replication beats merge-before-tcp at the heaviest
/// stateful point. The gated quantity is the
/// *serial-stage time* — the merger thread's busy time
/// ([`RunOutput::stateful_serial_ns`]) — because that is the cost the
/// paper's design moves off the critical serial stage, and it reads the
/// same whether the host gives the worker threads four real cores or
/// time-slices them onto one (wall-clock on a single-core runner cannot
/// distinguish the placements; both points are recorded regardless).
fn run_bench_stateful(a: &Args) {
    const PAYLOAD: usize = 256;
    const WORKS: [u32; 3] = [0, 64, 512];
    const MODES: [StatefulMode; 2] = StatefulMode::ALL;
    const ITERS: usize = 5;

    let n_frames = a.frames;
    let frames = generate_frames(n_frames, PAYLOAD);
    let mut points: Vec<StatefulPoint> = Vec::new();
    for work in WORKS {
        let reference = process_serial_stateful(&frames, work);
        for mode in MODES {
            let cfg = RuntimeConfig {
                workers: 4,
                batch_size: 32,
                queue_depth: 8,
                policy: PolicyKind::Mflow,
                stateful_mode: mode,
                stateful_work: work,
                ..RuntimeConfig::default()
            };
            // One warmup run doubles as the differential check: both
            // placements must deliver the serial stream exactly.
            let out = process_parallel(&frames, &cfg).expect("bench config must be valid");
            assert_eq!(
                reference.digests, out.digests,
                "stateful mode {mode:?} diverged from the serial reference"
            );
            let mut best_ns = u128::MAX;
            let mut total_ns = 0u128;
            let mut replicated = 0u64;
            let mut serial_ns = 0u64;
            for _ in 0..ITERS {
                let out = process_parallel(&frames, &cfg).expect("bench config must be valid");
                let ns = out.elapsed.as_nanos();
                if ns < best_ns {
                    best_ns = ns;
                    replicated = out.telemetry.replicated_transitions;
                    serial_ns = out.stateful_serial_ns;
                }
                total_ns += ns;
            }
            let secs = best_ns as f64 / 1e9;
            let point = StatefulPoint {
                work,
                mode,
                best_ns,
                mean_ns: total_ns / ITERS as u128,
                serial_ns,
                mpps: n_frames as f64 / secs / 1e6,
                replicated,
            };
            println!(
                "bench: work={:<4} {:<16} best {:>10} ns  mean {:>10} ns  serial {:>10} ns  {:.2} Mpps",
                point.work,
                point.mode.name(),
                point.best_ns,
                point.mean_ns,
                point.serial_ns,
                point.mpps,
            );
            points.push(point);
        }
    }

    // The gate: at the heaviest stateful point, replicating the state
    // computation across the lanes must beat serializing it after the
    // merge.
    let heavy = *WORKS.last().expect("non-empty sweep");
    let serial_of = |mode: StatefulMode| {
        points
            .iter()
            .find(|p| p.work == heavy && p.mode == mode)
            .map(|p| p.serial_ns)
            .expect("sweep covers the gate point")
    };
    let mbt_ns = serial_of(StatefulMode::MergeBeforeTcp);
    let scr_ns = serial_of(StatefulMode::StateComputeReplication);
    let ratio = scr_ns as f64 / mbt_ns as f64;
    let pass = ratio < 1.0;
    println!(
        "gate @ w=4 b=32 work={heavy}: scr/mbt serial-stage time ratio {:.3} ({})",
        ratio,
        if pass { "pass" } else { "FAIL" }
    );

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"stateful_modes\",\n");
    json.push_str(&format!("  \"frames\": {n_frames},\n"));
    json.push_str(&format!("  \"payload_bytes\": {PAYLOAD},\n"));
    json.push_str(&format!("  \"iters_per_point\": {ITERS},\n"));
    json.push_str(&format!("  \"nproc\": {},\n", nproc()));
    json.push_str("  \"workers\": 4,\n  \"batch\": 32,\n  \"policy\": \"mflow\",\n");
    json.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"stateful_work\": {}, \"mode\": \"{}\", \"best_ns\": {}, \"mean_ns\": {}, \"serial_stage_ns\": {}, \"mpps\": {:.4}, \"replicated_transitions\": {}}}{}\n",
            p.work,
            p.mode.name(),
            p.best_ns,
            p.mean_ns,
            p.serial_ns,
            p.mpps,
            p.replicated,
            if i + 1 == points.len() { "" } else { "," },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"gate\": {{\"stateful_work\": {heavy}, \"claim\": \"scr relieves the serial merge stage once stateful work dominates\", \"metric\": \"merger-thread busy time (serial-stage cost, host-core-count independent)\", \"mbt_serial_ns\": {mbt_ns}, \"scr_serial_ns\": {scr_ns}, \"scr_over_mbt_serial_time\": {ratio:.4}, \"threshold\": 1.0, \"pass\": {pass}}}\n"
    ));
    json.push_str("}\n");
    let out_path = if a.bench_out.is_empty() {
        "BENCH_stateful.json"
    } else {
        &a.bench_out
    };
    if let Err(e) = std::fs::write(out_path, &json) {
        eprintln!("failed to write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out_path}");
    if a.bench_enforce && !pass {
        eprintln!(
            "bench gate failed: state-compute replication did not relieve the serial \
             merge stage vs merge-before-tcp at stateful work {heavy}"
        );
        std::process::exit(1);
    }
}

fn main() {
    let a = parse_args();
    if a.chaos_soak {
        run_chaos_soak(&a);
        return;
    }
    if a.bench_transport {
        run_bench_transport(&a);
        return;
    }
    if a.bench_policy {
        run_bench_policy(&a);
        return;
    }
    if a.bench_stateful {
        run_bench_stateful(&a);
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
