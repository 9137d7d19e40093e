//! The end-to-end measurement: one closed-loop client calling
//! `process_parallel` back to back on the workload's frames, every
//! output checked against the serial oracle.

use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mflow_metrics::CountingAlloc;
use mflow_runtime::{process_parallel, Frame, PacketResult, RunOutput, RuntimeConfig};

use crate::host::process_cpu_ns;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::workload::{build_input, count_failed, Input, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// A timing metric is the median of this many equal segments' values:
/// one-second segments in the window `BENCHMARK.json` asks for. Short
/// segments keep a stream workload's `latency_p99_us`, the slowest of a
/// segment's few calls, from reaching far into the tail.
pub const SEGMENTS: usize = 15;
const WARMUP: Duration = Duration::from_secs(1);
/// Set-up is repeated at least this often, and for at least this long,
/// so that `setup_s` is a median of many even when one set-up is short.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_TIME: Duration = Duration::from_secs(1);

/// One `process_parallel` call, timed around the call and checked after
/// it. An `Err`, a panic, or a pool that does not return to its pre-call
/// occupancy fails every frame of the call; nothing aborts the run.
pub fn checked_call(
    pool_in_flight: impl Fn() -> u64,
    frames: &[Frame],
    oracle: &[PacketResult],
    cfg: &RuntimeConfig,
) -> (u64, u64, Option<RunOutput>) {
    let before = pool_in_flight();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| process_parallel(frames, cfg)));
    let elapsed_ns = start.elapsed().as_nanos() as u64;
    match result {
        Ok(Ok(out)) if pool_in_flight() == before => {
            let failed = count_failed(&out.digests, oracle);
            (elapsed_ns, failed, Some(out))
        }
        _ => (elapsed_ns, frames.len() as u64, None),
    }
}

/// What the runtime reported about the calls of a segment, summed.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub allocs: u64,
    pub merger_serial_ns: u64,
    pub ooo: u64,
    pub backpressure_events: u64,
    pub checkpoints: u64,
    pub snapshot_bytes: u64,
    pub replicated: u64,
}

impl Counters {
    fn add_call(&mut self, allocs: u64, out: &RunOutput) {
        self.allocs += allocs;
        self.merger_serial_ns += out.stateful_serial_ns;
        self.ooo += out.telemetry.ooo;
        self.backpressure_events += out.backpressure_events;
        self.checkpoints += out.checkpoints;
        self.snapshot_bytes += out.telemetry.snapshot_bytes;
        self.replicated += out.telemetry.replicated_transitions;
    }
}

/// One slice of the measured window.
#[derive(Clone, Debug, Default)]
pub struct Segment {
    pub wall_ns: u64,
    /// Process utime + stime over the segment, oracle checks included.
    pub cpu_ns: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Latency of every call, in nanoseconds.
    pub call_ns: Vec<f64>,
    pub counters: Counters,
}

impl Segment {
    fn frames_per_call(&self) -> f64 {
        self.attempted as f64 / self.call_ns.len().max(1) as f64
    }

    /// Median over the segment's calls of frames / elapsed.
    pub fn throughput_mpps(&self) -> f64 {
        let per_call: Vec<f64> = self
            .call_ns
            .iter()
            .map(|ns| self.frames_per_call() * 1e3 / ns.max(1.0))
            .collect();
        median(&per_call)
    }

    pub fn cpu_ns_per_frame(&self) -> f64 {
        self.cpu_ns as f64 / (self.attempted - self.failed).max(1) as f64
    }

    pub fn latency_us(&self, q: f64) -> f64 {
        percentile(&self.call_ns, q) / 1e3
    }
}

/// Calls back to back for `length`, then reports what happened.
pub fn run_segment(
    input: &Input,
    cfg: &RuntimeConfig,
    length: Duration,
    tracer: &mut Tracer,
) -> io::Result<Segment> {
    let mut seg = Segment::default();
    let span = tracer.open("segment");
    let cpu_start = process_cpu_ns()?;
    let start = Instant::now();
    while start.elapsed() < length {
        let allocs_before = ALLOC.allocations();
        let call = tracer.open("process_parallel");
        let (elapsed_ns, failed, out) =
            checked_call(|| input.pool.in_flight(), &input.frames, &input.oracle, cfg);
        tracer.close(call, input.frames.len() as u64);
        if let Some(out) = &out {
            seg.counters
                .add_call(ALLOC.allocations() - allocs_before, out);
        }
        seg.attempted += input.frames.len() as u64;
        seg.failed += failed;
        seg.call_ns.push(elapsed_ns as f64);
    }
    seg.wall_ns = start.elapsed().as_nanos() as u64;
    seg.cpu_ns = process_cpu_ns()? - cpu_start;
    tracer.close(span, seg.call_ns.len() as u64);
    Ok(seg)
}

/// Builds the input repeatedly and returns the last one with the median
/// build time in seconds. Only the kept build is traced.
pub fn timed_setup(w: &Workload, seed: u64, tracer: &mut Tracer) -> (Input, f64) {
    let mut times = Vec::new();
    let started = Instant::now();
    while times.len() + 1 < SETUP_MIN_REPS || started.elapsed() < SETUP_MIN_TIME {
        let t = Instant::now();
        let input = build_input(w, seed, &mut Tracer::off());
        times.push(t.elapsed().as_secs_f64());
        drop(input);
    }
    let t = Instant::now();
    let input = build_input(w, seed, tracer);
    times.push(t.elapsed().as_secs_f64());
    (input, median(&times))
}

/// The numbers a user of the runtime would see.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub setup_s: f64,
    /// Calls in the untraced window: the latency sample count.
    pub calls: u64,
    /// Each timing metric's value in every segment; the metric is their median.
    pub per_segment: [(&'static str, Vec<f64>); 4],
}

impl EndToEnd {
    pub fn from_segments(setup_s: f64, segments: &[Segment]) -> Self {
        let each = |value: fn(&Segment) -> f64| segments.iter().map(value).collect::<Vec<f64>>();
        Self {
            setup_s,
            calls: segments.iter().map(|s| s.call_ns.len() as u64).sum(),
            per_segment: [
                ("throughput_mpps", each(Segment::throughput_mpps)),
                ("cpu_ns_per_frame", each(Segment::cpu_ns_per_frame)),
                ("latency_p50_us", each(|s| s.latency_us(0.50))),
                ("latency_p99_us", each(|s| s.latency_us(0.99))),
            ],
        }
    }

    /// An end-to-end metric by the name `BENCHMARK.json` gives it.
    pub fn value(&self, name: &str) -> Option<f64> {
        if name == "setup_s" {
            return Some(self.setup_s);
        }
        let found = self.per_segment.iter().find(|(n, _)| *n == name);
        found.map(|(_, values)| median(values))
    }
}

/// Everything measured on the pipeline itself for one workload.
pub struct PipelineRun {
    pub input: Input,
    pub end_to_end: EndToEnd,
    /// The segments that ran with tracing on (empty in an untraced run).
    pub traced: Vec<Segment>,
    pub attempted: u64,
    pub failed: u64,
}

/// Set-up, warm-up, then the measured window. An untraced run cuts the
/// window into [`SEGMENTS`] segments. A traced run cuts it into twice as
/// many and alternates tracing off and on, so both halves see the same
/// weather; end-to-end numbers always come from the untraced half.
pub fn run_pipeline(
    w: &Workload,
    cfg: &RuntimeConfig,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> io::Result<PipelineRun> {
    let traced_run = tracer.is_some();
    let mut off = Tracer::off();
    let tracer = tracer.unwrap_or(&mut off);
    let (input, setup_s) = timed_setup(w, seed, tracer);
    let warmup = run_segment(&input, cfg, WARMUP, &mut Tracer::off())?;
    let (mut attempted, mut failed) = (warmup.attempted, warmup.failed);

    let slices = if traced_run { 2 * SEGMENTS } else { SEGMENTS };
    let length = Duration::from_secs_f64(seconds / slices as f64);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    for i in 0..slices {
        let trace_this = traced_run && i % 2 == 1;
        let mut off = Tracer::off();
        let seg = run_segment(
            &input,
            cfg,
            length,
            if trace_this { &mut *tracer } else { &mut off },
        )?;
        attempted += seg.attempted;
        failed += seg.failed;
        if trace_this {
            &mut traced
        } else {
            &mut untraced
        }
        .push(seg);
    }
    Ok(PipelineRun {
        input,
        end_to_end: EndToEnd::from_segments(setup_s, &untraced),
        traced,
        attempted,
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{runtime_config, WORKLOADS};

    fn segment(call_ns: &[f64], frames_per_call: u64, cpu_ns: u64, failed: u64) -> Segment {
        Segment {
            wall_ns: call_ns.iter().sum::<f64>() as u64,
            cpu_ns,
            attempted: frames_per_call * call_ns.len() as u64,
            failed,
            call_ns: call_ns.to_vec(),
            counters: Counters::default(),
        }
    }

    #[test]
    fn segment_values_follow_their_definitions() {
        // Three calls of 1000 frames taking 1, 2 and 4 ms.
        let s = segment(&[1e6, 4e6, 2e6], 1000, 9_000_000, 0);
        assert_eq!(s.throughput_mpps(), 0.5); // median call: 1000 frames in 2 ms
        assert_eq!(s.cpu_ns_per_frame(), 3000.0);
        assert_eq!(s.latency_us(0.5), 2000.0);
        assert_eq!(s.latency_us(0.99), 4000.0);
        // CPU is charged to the frames that were delivered.
        let s = segment(&[1e6, 4e6, 2e6], 1000, 9_000_000, 1000);
        assert_eq!(s.cpu_ns_per_frame(), 4500.0);
    }

    #[test]
    fn end_to_end_is_the_median_of_the_segment_values() {
        let fast = segment(&[1e6], 1000, 1_000_000, 0);
        let slow = segment(&[10e6], 1000, 10_000_000, 0);
        let segs = [fast.clone(), slow, fast.clone(), fast.clone(), fast];
        let e = EndToEnd::from_segments(0.25, &segs);
        assert_eq!(e.value("throughput_mpps"), Some(1.0));
        assert_eq!(e.value("latency_p50_us"), Some(1000.0));
        assert_eq!(e.value("cpu_ns_per_frame"), Some(1000.0));
        assert_eq!(e.calls, 5);
        assert_eq!(e.value("setup_s"), Some(0.25));
        assert_eq!(e.value("nope"), None);
    }

    #[test]
    fn a_failing_call_is_counted_not_raised() {
        let w = Workload {
            frames: 64,
            ..WORKLOADS[0]
        };
        let input = build_input(&w, 1, &mut Tracer::off());
        let cfg = runtime_config(&w);
        let in_flight = || input.pool.in_flight();

        let (_, failed, out) = checked_call(in_flight, &input.frames, &input.oracle, &cfg);
        assert_eq!((failed, out.is_some()), (0, true));

        // An `Err` from the runtime fails every frame of the call.
        let bad = RuntimeConfig { workers: 0, ..cfg };
        let (_, failed, out) = checked_call(in_flight, &input.frames, &input.oracle, &bad);
        assert_eq!((failed, out.is_none()), (64, true));

        // So does a pool whose occupancy moved across the call.
        let ticks = std::cell::Cell::new(0u64);
        let leaky = || {
            ticks.set(ticks.get() + 1);
            ticks.get()
        };
        let (_, failed, _) = checked_call(leaky, &input.frames, &input.oracle, &cfg);
        assert_eq!(failed, 64);

        // A wrong oracle is a per-frame failure.
        let mut wrong = input.oracle.clone();
        wrong[5].digest ^= 1;
        let (_, failed, _) = checked_call(in_flight, &input.frames, &wrong, &cfg);
        assert_eq!(failed, 1);
    }
}
