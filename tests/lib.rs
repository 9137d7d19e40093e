//! Shared helpers for the cross-crate integration tests.

use mflow_netstack::{NoiseConfig, StackConfig};
use mflow_runtime::PacketResult;
use mflow_sim::MS;

/// Shortens and de-noises a config for CI-speed integration runs.
pub fn quick(mut cfg: StackConfig) -> StackConfig {
    cfg.noise = NoiseConfig::off();
    cfg.duration_ns = 16 * MS;
    cfg.warmup_ns = 5 * MS;
    cfg
}

/// Relative comparison helper: `a` within `tol` (fractional) of `b`.
pub fn within(a: f64, b: f64, tol: f64) -> bool {
    if b == 0.0 {
        return a == 0.0;
    }
    (a / b - 1.0).abs() <= tol
}

/// Asserts a runtime output stream is strictly increasing in `seq`: in
/// order and duplicate-free. `ctx` names the scenario in the failure.
#[track_caller]
pub fn assert_strictly_increasing(digests: &[PacketResult], ctx: &str) {
    for pair in digests.windows(2) {
        assert!(
            pair[0].seq < pair[1].seq,
            "{ctx}: inversion or duplicate at seq {} -> {}",
            pair[0].seq,
            pair[1].seq
        );
    }
}

/// SplitMix64 over one key: deterministic, order-independent draws for
/// seed-driven test generators.
pub fn splitmix(seed: u64, k: u64) -> u64 {
    let mut x = seed
        .wrapping_add(k)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

// ---------------------------------------------------------------------
// The runtime lattice, stated once.
// ---------------------------------------------------------------------

use std::collections::{BTreeMap, BTreeSet};

use mflow_runtime::{
    process_parallel_faulty, process_serial_stateful, BackpressurePolicy, Frame, PolicyKind,
    RunOutput, RuntimeConfig, RuntimeFaults, StatefulMode,
};

/// Cells of the threaded runtime's lattice: every steering policy x both
/// stateful modes x the three backpressure policies.
pub const CELLS: usize = PolicyKind::ALL.len() * StatefulMode::ALL.len() * 3;

/// One cell of the lattice — or any single configuration
/// ([`Cell::new`]) — with the contract every run of it owes.
pub struct Cell {
    pub cfg: RuntimeConfig,
    /// `policy/mode/backpressure`: the prefix of every failure message.
    pub label: String,
}

/// Cell `ix` of [`CELLS`] over `base`, which supplies everything but the
/// three axes. One parameter of an axis value rides in the base: if
/// `base.backpressure` is `DropTail`, its budget is the `DropTail`
/// cell's. Otherwise that budget is 0 — every engagement falls back to
/// blocking — so a suite that compares with the oracle exactly loses
/// nothing to shedding.
pub fn cell(base: RuntimeConfig, ix: usize) -> Cell {
    assert!(ix < CELLS, "cell {ix} of {CELLS}");
    let budget = match base.backpressure {
        BackpressurePolicy::DropTail { budget } => budget,
        _ => 0,
    };
    let backpressure = [
        BackpressurePolicy::Block,
        BackpressurePolicy::DropTail { budget },
        BackpressurePolicy::Inline,
    ];
    let (rest, backpressure) = (ix / 3, backpressure[ix % 3]);
    let modes = StatefulMode::ALL.len();
    Cell::new(RuntimeConfig {
        policy: PolicyKind::ALL[rest / modes],
        stateful_mode: StatefulMode::ALL[rest % modes],
        backpressure,
        ..base
    })
}

/// Visits every cell of the lattice over `base` (see [`cell`]).
pub fn for_each_cell(base: RuntimeConfig, mut f: impl FnMut(&Cell)) {
    for ix in 0..CELLS {
        f(&cell(base, ix));
    }
}

/// Replays the dispatcher's batching walk to predict, from the seed
/// alone, which packets the fault plan deletes at dispatch and which
/// micro-flow every surviving packet is tagged into. Must mirror the
/// dispatcher exactly: drops shift batch boundaries because batches close
/// on *retained* length. The walk is blind to every axis of the lattice.
pub fn replay_dispatch(
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

impl Cell {
    pub fn new(cfg: RuntimeConfig) -> Self {
        let label = format!("{}/{}/{:?}", cfg.policy, cfg.stateful_mode.name(), cfg.backpressure);
        Self { cfg, label }
    }

    /// Runs the cell over `frames` (numbered `0..n` in order) under
    /// `faults` and checks the degradation contract against the serial
    /// oracle, [`process_serial_stateful`] at the cell's `stateful_work`:
    /// the run terminates `Ok`; the output is strictly ordered and
    /// duplicate-free; every delivered digest is the oracle's at that
    /// seq; nothing stays parked in the merger (`residue == 0`); every
    /// lane's depth counter reads zero; every missing packet is
    /// attributable — a planned drop, a shed micro-flow, a micro-flow in
    /// the merger's flush report, or inside the bounded window
    /// (`queue_depth + 2` micro-flows) each dead worker can take with it;
    /// and the frames' pool holds exactly what it held before the call.
    /// Returns the output for the suite's own assertions.
    #[track_caller]
    pub fn run(&self, frames: &[Frame], faults: &RuntimeFaults) -> RunOutput {
        self.run_against(frames, faults, &self.oracle(frames))
    }

    /// [`Cell::run`], and the output *is* the oracle's: nothing lost.
    #[track_caller]
    pub fn run_exact(&self, frames: &[Frame], faults: &RuntimeFaults) -> RunOutput {
        let oracle = self.oracle(frames);
        let out = self.run_against(frames, faults, &oracle);
        assert_eq!(out.digests, oracle.digests, "{}: diverged from serial", self.label);
        out
    }

    fn oracle(&self, frames: &[Frame]) -> RunOutput {
        process_serial_stateful(frames, self.cfg.stateful_work)
    }

    #[track_caller]
    fn run_against(
        &self,
        frames: &[Frame],
        faults: &RuntimeFaults,
        oracle: &RunOutput,
    ) -> RunOutput {
        let (cfg, label) = (&self.cfg, &self.label);
        let pool = frames.iter().find_map(|f| f.buf().pool());
        let held = pool.as_ref().map(|p| p.in_flight());
        let out = process_parallel_faulty(frames, cfg, faults)
            .unwrap_or_else(|e| panic!("{label}: run failed outright: {e}"));
        assert_eq!(
            pool.as_ref().map(|p| p.in_flight()),
            held,
            "{label}: pool not conserved"
        );

        assert_strictly_increasing(&out.digests, label);
        for r in &out.digests {
            assert_eq!(
                oracle.digests.get(r.seq as usize),
                Some(r),
                "{label}: digest mismatch at seq {}",
                r.seq
            );
        }
        assert_eq!(out.telemetry.residue, 0, "{label}: items left parked in the merger");
        assert!(
            out.telemetry.lane_depths.iter().all(|&d| d == 0),
            "{label}: stale end-of-run lane depths {:?}",
            out.telemetry.lane_depths
        );

        if out.digests.len() == frames.len() {
            return out; // ordered, duplicate-free and complete: nothing to attribute
        }
        let (dropped, mf_of) = replay_dispatch(frames.len(), cfg.batch_size, faults);
        let present: BTreeSet<u64> = out.digests.iter().map(|r| r.seq).collect();
        let flushed: BTreeSet<u64> = out.flushed_mfs.iter().copied().collect();
        let shed: BTreeSet<u64> = out.sheds.iter().map(|&(mf, _)| mf).collect();
        let mut unattributed = BTreeSet::new();
        for seq in 0..frames.len() as u64 {
            if present.contains(&seq) || dropped.contains(&seq) {
                continue;
            }
            let mf = *mf_of.get(&seq).expect("surviving packet must have a tag");
            if !shed.contains(&mf) && !flushed.contains(&mf) {
                unattributed.insert(mf);
            }
        }
        let window = (cfg.queue_depth + 2) * out.workers_died;
        assert!(
            unattributed.len() <= window,
            "{label}: {} micro-flows lost without attribution ({window}-batch death window): \
             {unattributed:?}",
            unattributed.len()
        );
        out
    }
}
