//! The six workloads: what each one feeds the runtime, under which
//! configuration, and how its output is checked against the serial
//! oracle. The program under test sees only the frames built here.

use mflow_net::frame::{build_overlay_frame_into, OverlayFrameSpec};
use mflow_runtime::{
    frame_wire_len, process_serial_stateful, BufPool, Frame, PacketResult, PolicyKind,
    RuntimeConfig, StatefulMode, Transport,
};

use crate::trace::Tracer;

/// The paper's "two splitting cores suffice".
pub const WORKERS: usize = 2;

pub struct Workload {
    pub name: &'static str,
    /// One line: which layer this workload makes the bottleneck.
    pub why: &'static str,
    /// Frames per `process_parallel` call.
    pub frames: usize,
    pub payload: usize,
    pub batch: usize,
    pub stateful_work: u32,
    /// Stateful stage replicated on the lanes instead of run by the merger.
    pub scr: bool,
    /// Both failure domains armed, no faults injected.
    pub supervised: bool,
}

const ELEPHANT64: Workload = Workload {
    name: "elephant64",
    why: "Smallest packet, one flow: per-packet overhead (dispatcher hash/steer/clone, rings, merge counter, pool) is nearly all the work.",
    frames: 200_000,
    payload: 64,
    batch: 32,
    stateful_work: 0,
    scr: false,
    supervised: false,
};

pub const WORKLOADS: [Workload; 6] = [
    ELEPHANT64,
    Workload {
        name: "elephant1448",
        why: "MTU packets: worker parse/checksum/digest byte work dominates, dispatcher and merger do little; kernel or SIMD work shows here.",
        frames: 60_000,
        payload: 1448,
        ..ELEPHANT64
    },
    Workload {
        name: "stateful64",
        why: "stateful_work=512 under merge-before-tcp: the merger's serial stage is the bottleneck, the paper's core-0 saturation (Fig. 8b).",
        stateful_work: 512,
        ..ELEPHANT64
    },
    Workload {
        name: "scr64",
        why: "The same stateful stage replicated on the lanes (state-compute replication), merger reduced to a reconciler.",
        stateful_work: 512,
        scr: true,
        ..ELEPHANT64
    },
    Workload {
        name: "supervised64",
        why: "elephant64 with both failure domains armed and no faults: the benign cost of WAL journal, checkpoints, retention clones, watchdog.",
        supervised: true,
        ..ELEPHANT64
    },
    Workload {
        name: "msg64k",
        why: "One 64 KB message (46 x 1448 B) per call, back to back: thread spawn, ring allocation, merger arm/drain; per-call latency.",
        frames: 46,
        payload: 1448,
        batch: 8,
        ..ELEPHANT64
    },
];

/// The one place that names `Transport`, `StatefulMode` and `PolicyKind`:
/// deleting an axis from the runtime edits this function only. Every
/// field not set here is `RuntimeConfig::default()`.
pub fn runtime_config(w: &Workload) -> RuntimeConfig {
    RuntimeConfig {
        workers: WORKERS,
        transport: Transport::Ring,
        policy: PolicyKind::Mflow,
        batch_size: w.batch,
        stateful_work: w.stateful_work,
        stateful_mode: if w.scr {
            StatefulMode::StateComputeReplication
        } else {
            StatefulMode::MergeBeforeTcp
        },
        // Long enough that a worker descheduled on a busy host is never
        // declared stalled: the watchdog pass still runs once per batch.
        heartbeat_interval_ms: w.supervised.then_some(1000),
        restart_budget: if w.supervised { 8 } else { 0 },
        ..RuntimeConfig::default()
    }
}

/// splitmix64: the seed's only consumer.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The frame template of a workload's single flow. The seed sets the
/// outer source port (so the flow hash), the initial TCP sequence number
/// and, through `advance`, every payload byte.
pub struct FlowSpec {
    rng: Rng,
    pub spec: OverlayFrameSpec,
    isn: u32,
}

impl FlowSpec {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let mut rng = Rng(seed);
        let mut spec = OverlayFrameSpec::example_tcp(1, 0, vec![0u8; w.payload]);
        spec.outer_src_port = 49152 + (rng.next() % 16384) as u16;
        let isn = rng.next() as u32;
        Self { rng, spec, isn }
    }

    /// Readies `spec` for frame number `i` of the flow.
    pub fn advance(&mut self, i: usize) {
        let len = self.spec.payload.len();
        self.spec.tcp_seq = self.isn.wrapping_add((i * len) as u32);
        for chunk in self.spec.payload.chunks_mut(8) {
            let word = self.rng.next().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

/// What one workload runs on: the pool, the frames in it, and the
/// serial oracle's result for every frame.
pub struct Input {
    pub pool: BufPool,
    pub frames: Vec<Frame>,
    pub oracle: Vec<PacketResult>,
}

/// Builds the workload's input from the seed, one span per phase.
pub fn build_input(w: &Workload, seed: u64, tracer: &mut Tracer) -> Input {
    let setup = tracer.open("setup");

    let span = tracer.open("setup.pool");
    let pool = BufPool::for_frames(w.frames, frame_wire_len(w.payload));
    tracer.close(span, 1);

    let span = tracer.open("setup.frames");
    let mut flow = FlowSpec::new(w, seed);
    let mut scratch = Vec::with_capacity(frame_wire_len(w.payload));
    let frames: Vec<Frame> = (0..w.frames)
        .map(|i| {
            flow.advance(i);
            build_overlay_frame_into(&flow.spec, &mut scratch);
            Frame::new(i as u64, pool.alloc(&scratch))
        })
        .collect();
    tracer.close(span, w.frames as u64);

    let span = tracer.open("setup.oracle");
    let oracle = process_serial_stateful(&frames, w.stateful_work).digests;
    tracer.close(span, w.frames as u64);

    tracer.close(setup, 1);
    Input {
        pool,
        frames,
        oracle,
    }
}

/// Frames not delivered bit-identically in position: every position of
/// the oracle whose delivered result is absent or different, plus every
/// result delivered beyond the oracle's length.
pub fn count_failed(delivered: &[PacketResult], oracle: &[PacketResult]) -> u64 {
    let wrong = oracle
        .iter()
        .enumerate()
        .filter(|&(i, want)| delivered.get(i) != Some(want))
        .count();
    (wrong + delivered.len().saturating_sub(oracle.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mflow_runtime::process_parallel;

    fn small(name: &str) -> Workload {
        let w = WORKLOADS.iter().find(|w| w.name == name).unwrap();
        Workload { frames: 300, ..*w }
    }

    #[test]
    fn oracle_check_counts_a_swapped_pair_a_missing_tail_and_a_corrupt_digest() {
        let input = build_input(&small("elephant64"), 1, &mut Tracer::off());
        let oracle = &input.oracle;
        assert_eq!(count_failed(oracle, oracle), 0);

        let mut swapped = oracle.clone();
        swapped.swap(10, 11);
        assert_eq!(count_failed(&swapped, oracle), 2);

        assert_eq!(count_failed(&oracle[..oracle.len() - 7], oracle), 7);

        let mut corrupt = oracle.clone();
        corrupt[42].digest ^= 1;
        assert_eq!(count_failed(&corrupt, oracle), 1);

        let mut extra = oracle.clone();
        extra.push(oracle[0]);
        assert_eq!(count_failed(&extra, oracle), 1);
    }

    #[test]
    fn same_seed_same_frames_and_another_seed_another_flow() {
        let w = small("msg64k");
        let a = build_input(&w, 7, &mut Tracer::off());
        let b = build_input(&w, 7, &mut Tracer::off());
        let c = build_input(&w, 8, &mut Tracer::off());
        assert!(a
            .frames
            .iter()
            .zip(&b.frames)
            .all(|(x, y)| x.bytes() == y.bytes()));
        assert_eq!(a.oracle, b.oracle);
        assert_ne!(a.oracle, c.oracle);
        let hash = a.frames[0].flow_hash();
        assert!(
            a.frames.iter().all(|f| f.flow_hash() == hash),
            "one flow per workload"
        );
        assert_ne!(hash, c.frames[0].flow_hash());
    }

    #[test]
    fn every_workload_config_is_valid_and_reproduces_the_oracle() {
        for w in &WORKLOADS {
            let w = Workload {
                frames: w.frames.min(300),
                ..*w
            };
            let cfg = runtime_config(&w);
            cfg.validate().unwrap();
            let input = build_input(&w, 3, &mut Tracer::off());
            let out = process_parallel(&input.frames, &cfg).unwrap();
            assert_eq!(count_failed(&out.digests, &input.oracle), 0, "{}", w.name);
            assert_eq!(input.pool.in_flight(), w.frames as u64, "{}", w.name);
        }
    }
}
