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
//!   the lane) would be this same behaviour under another name; it is a
//!   policy of the simulator only ([`crate::Rss`]), where multi-flow
//!   traffic gives it something to differ on.
//! * **MFLOW** (implemented in the `mflow` crate, which depends on this
//!   one) round-robins micro-flows of an elephant flow across all lanes —
//!   the only policy that interleaves one flow, and therefore the only one
//!   that *requires* the merging counter to restore order.
//!
//! RPS delivers the stream through a single FIFO path, so the merge point
//! must observe zero out-of-order arrivals and zero deadline flushes for
//! it — a property the integration suite asserts. Every policy runs on
//! the same wiring, one worker per lane, each doing all of a micro-flow's
//! work. FALCON, which pipelines the *stages* of a packet across cores
//! instead of steering micro-flows, is a system of the simulator only
//! ([`crate::Falcon`]).

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
}

impl PolicyKind {
    /// Every selectable policy, in display order.
    pub const ALL: [PolicyKind; 2] = [PolicyKind::Mflow, PolicyKind::Rps];

    /// The CLI / telemetry name.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::Mflow => "mflow",
            PolicyKind::Rps => "rps",
        }
    }

    /// Parses a CLI name (the inverse of [`PolicyKind::name`]).
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == s)
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

/// Builds the baseline lane policy for `kind`; `None` for
/// [`PolicyKind::Mflow`], whose implementation lives in the `mflow`
/// crate (it wraps the elephant detector, which this crate cannot see).
pub fn build_baseline(kind: PolicyKind) -> Option<Box<dyn SteeringPolicy>> {
    match kind {
        PolicyKind::Mflow => None,
        PolicyKind::Rps => Some(Box::new(RpsLanes::default())),
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
        // FALCON is a system of the simulator, not a runtime policy.
        assert_eq!(PolicyKind::parse("falcon-dev"), None);
        assert_eq!(PolicyKind::parse("falcon-func"), None);
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
}
