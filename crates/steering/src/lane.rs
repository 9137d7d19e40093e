//! The engine-agnostic steering seam: [`SteeringPolicy`] decides which
//! *lane* (worker queue) each micro-flow batch is dispatched to, and
//! [`PolicyKind`] names every policy both execution engines understand.
//!
//! The simulator steers skbs between modelled cores through
//! [`mflow_netstack::PacketSteering`]; the real-thread runtime steers
//! whole batches between OS-thread lanes. This trait is the runtime-facing
//! half of that split, deliberately small so a policy is just "pick a lane,
//! hear about what you placed":
//!
//! * **RPS** pins the stream to one lane, chosen by queue depth when the
//!   stream first appears (the `rps_cpus` mask is configured, not hashed)
//!   — the paper's whole-flow comparator. The threaded runtime takes one
//!   stream per call under one global `seq`, so RSS (the NIC hash picks
//!   the lane) and RFS (the consuming application's core does) would be
//!   this same behaviour under two more names; they are policies of the
//!   simulator only ([`crate::Rss`], [`crate::Rfs`]), where multi-flow
//!   traffic gives them something to differ on.
//! * **FALCON** does not fan out at all: every batch enters lane 0 and the
//!   *stages* of the packet function are pipelined across the workers
//!   ([`PolicyKind::stage_groups`] is the chain length).
//! * **MFLOW** (implemented in the `mflow` crate, which depends on this
//!   one) round-robins micro-flows of an elephant flow across all lanes —
//!   the only policy that interleaves one flow, and therefore the only one
//!   that *requires* the merging counter to restore order.
//!
//! Every policy but MFLOW delivers the stream through a single FIFO path,
//! so the merge point must observe zero out-of-order arrivals and zero
//! deadline flushes for them — a property the integration suite asserts
//! for every implementation here. The runtime derives its wiring from
//! [`PolicyKind`] before any policy is built.

/// Names every steering policy selectable on the runtime datapath
/// (`mflow_cli --runtime --policy ...`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// Micro-flow splitting with elephant detection (the paper's system).
    #[default]
    Mflow,
    /// Whole-flow steering, the paper's baseline: pin the stream to a
    /// lane chosen at first sight (least-loaded), like a configured
    /// `rps_cpus` mask.
    Rps,
    /// FALCON device-level pipelining: 2 stage groups chained across
    /// workers.
    FalconDev,
    /// FALCON function-level pipelining: 3 stage groups chained across
    /// workers.
    FalconFunc,
}

impl PolicyKind {
    /// Every selectable policy, in display order.
    pub const ALL: [PolicyKind; 4] = [
        PolicyKind::Mflow,
        PolicyKind::Rps,
        PolicyKind::FalconDev,
        PolicyKind::FalconFunc,
    ];

    /// The CLI / telemetry name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Mflow => "mflow",
            PolicyKind::Rps => "rps",
            PolicyKind::FalconDev => "falcon-dev",
            PolicyKind::FalconFunc => "falcon-func",
        }
    }

    /// Parses a CLI name (the inverse of [`PolicyKind::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }

    /// Number of pipelined stage groups; 0 means the policy fans batches
    /// out to lanes instead of chaining stages across them.
    pub fn stage_groups(self) -> usize {
        match self {
            PolicyKind::FalconDev => 2,
            PolicyKind::FalconFunc => 3,
            _ => 0,
        }
    }

    /// Number of worker thread slots the threaded runtime materialises
    /// for this policy with `workers` configured: FALCON chains one
    /// worker per stage group (capped by the worker count), every other
    /// policy fans one worker out per lane. Supervision and chaos
    /// tooling use this to build per-slot fault schedules (kills,
    /// expected restarts) that cover the whole pool — including
    /// respawned incarnations, which occupy the same slot indices.
    pub fn worker_slots(self, workers: usize) -> usize {
        let groups = self.stage_groups();
        if groups >= 2 {
            groups.min(workers)
        } else {
            workers
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A lane-steering policy driving a real-thread dispatcher.
///
/// The dispatcher calls [`steer`](SteeringPolicy::steer) once per
/// micro-flow (batch) as it opens, then
/// [`observe`](SteeringPolicy::observe) once the batch has been placed —
/// the completion-feedback hook adaptive policies (elephant detection)
/// use for rate accounting and lane-pressure tracking. Stateless
/// policies keep the default no-op.
pub trait SteeringPolicy: Send {
    /// The telemetry / CLI name of this policy.
    fn name(&self) -> &'static str;

    /// Picks the lane for micro-flow `mf_id` of flow `flow_hash`, given
    /// the current per-lane backlog in batches. Must return a value in
    /// `0..depths.len()`.
    fn steer(&mut self, mf_id: u64, flow_hash: u32, depths: &[usize]) -> usize;

    /// Completion feedback: batch `mf_id` of flow `flow_hash`, sized
    /// `packets`, was placed on `lane`. Called after every successful
    /// dispatch (including inline fallback).
    fn observe(&mut self, _mf_id: u64, _flow_hash: u32, _lane: usize, _packets: usize) {}

    /// Lifetime (desplits, resplits) from lane-pressure feedback; zero
    /// for policies without adaptive splitting.
    fn desplit_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// RPS on lanes: software steering pins *the stream* to the least-loaded
/// lane at first sight (the operator-configured `rps_cpus` choice), then
/// keeps it there whatever hash later micro-flows open with. A call's
/// frames are one stream under one global `seq`, delivered in that
/// order: re-picking a lane on a changed hash would re-steer the stream
/// while its earlier micro-flows still sit in the old lane's queue, the
/// reordering of "Why Does Flow Director Cause Packet Reordering?" —
/// never re-picking is what keeps an RPS stream on one FIFO path by
/// construction.
#[derive(Clone, Copy, Debug, Default)]
pub struct RpsLanes {
    pinned: Option<usize>,
}

impl SteeringPolicy for RpsLanes {
    fn name(&self) -> &'static str {
        "rps"
    }

    fn steer(&mut self, _mf_id: u64, _flow_hash: u32, depths: &[usize]) -> usize {
        *self.pinned.get_or_insert_with(|| {
            depths
                .iter()
                .enumerate()
                .min_by_key(|(_, d)| **d)
                .map_or(0, |(i, _)| i)
        })
    }
}

/// FALCON on lanes: batches always enter the head of the worker chain;
/// the packet-function stages are pipelined across workers instead of
/// fanning batches out (device level = 2 stage groups, function level
/// = 3).
#[derive(Clone, Copy, Debug)]
pub struct FalconLanes {
    name: &'static str,
}

impl FalconLanes {
    /// Device-level pipelining: [parse+checksum | digest].
    pub fn device() -> Self {
        Self {
            name: PolicyKind::FalconDev.name(),
        }
    }

    /// Function-level pipelining: [parse | checksum | digest].
    pub fn function() -> Self {
        Self {
            name: PolicyKind::FalconFunc.name(),
        }
    }
}

impl SteeringPolicy for FalconLanes {
    fn name(&self) -> &'static str {
        self.name
    }

    fn steer(&mut self, _mf_id: u64, _flow_hash: u32, _depths: &[usize]) -> usize {
        0
    }
}

/// Builds the baseline lane policy for `kind`; `None` for
/// [`PolicyKind::Mflow`], whose implementation lives in the `mflow`
/// crate (it wraps the elephant detector, which this crate cannot see).
pub fn build_baseline(kind: PolicyKind) -> Option<Box<dyn SteeringPolicy>> {
    match kind {
        PolicyKind::Mflow => None,
        PolicyKind::Rps => Some(Box::new(RpsLanes::default())),
        PolicyKind::FalconDev => Some(Box::new(FalconLanes::device())),
        PolicyKind::FalconFunc => Some(Box::new(FalconLanes::function())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.name()), Some(kind));
        }
        assert_eq!(PolicyKind::parse("bogus"), None);
    }

    #[test]
    fn worker_slots_counts_chain_stages_or_fanout_lanes() {
        assert_eq!(PolicyKind::Mflow.worker_slots(4), 4);
        assert_eq!(PolicyKind::Rps.worker_slots(7), 7);
        assert_eq!(PolicyKind::FalconDev.worker_slots(4), 2);
        assert_eq!(PolicyKind::FalconFunc.worker_slots(4), 3);
        // A chain never has more stages than workers.
        assert_eq!(PolicyKind::FalconFunc.worker_slots(2), 2);
    }

    #[test]
    fn baseline_names_match_kind() {
        for kind in PolicyKind::ALL {
            if let Some(p) = build_baseline(kind) {
                assert_eq!(p.name(), kind.name());
            } else {
                assert_eq!(kind, PolicyKind::Mflow);
            }
        }
    }

    #[test]
    fn non_reordering_policies_keep_a_flow_on_one_lane() {
        let depths = [3usize, 0, 1, 2];
        // Every baseline: mflow, the one policy that interleaves a flow
        // across lanes, is not built here.
        for mut p in PolicyKind::ALL.into_iter().filter_map(build_baseline) {
            let first = p.steer(0, 0xdead_beef, &depths);
            for mf in 1..64 {
                assert_eq!(
                    p.steer(mf, 0xdead_beef, &depths),
                    first,
                    "{} moved a pinned flow",
                    p.name()
                );
            }
            assert!(first < depths.len());
        }
    }

    #[test]
    fn rps_pins_least_loaded_at_first_sight() {
        let mut p = RpsLanes::default();
        assert_eq!(p.steer(0, 7, &[3, 0, 1]), 1);
        // Depths changed, stream stays pinned.
        assert_eq!(p.steer(1, 7, &[0, 9, 1]), 1);
        // Any hash sequence stays on the first lane: a changed hash is
        // the same stream, not a reason to re-steer it mid-queue.
        for (mf, hash) in (2..).zip([8, 7, 0, u32::MAX, 8, 1 << 16]) {
            assert_eq!(p.steer(mf, hash, &[0, 9, 1]), 1, "hash {hash:#x}");
        }
    }

    #[test]
    fn falcon_enters_the_chain_head() {
        let mut dev = FalconLanes::device();
        let mut func = FalconLanes::function();
        assert_eq!(dev.steer(0, 1, &[1, 2, 3]), 0);
        assert_eq!(func.steer(0, 1, &[1, 2, 3]), 0);
        assert_eq!(PolicyKind::FalconDev.stage_groups(), 2);
        assert_eq!(PolicyKind::FalconFunc.stage_groups(), 3);
    }
}
