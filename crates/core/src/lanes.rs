//! MFLOW as a runtime lane policy: the [`SteeringPolicy`] implementation
//! the real-thread engine dispatches through when `--policy mflow` is
//! selected.
//!
//! This is the same decision logic [`crate::splitter::MflowSteering`]
//! applies inside the simulated stack, re-expressed over integer lanes:
//! feed each batch observation to the [`ElephantDetector`], and while the
//! flow is classified an elephant (and its lanes are not overloaded),
//! round-robin its micro-flows across every lane — packet-level
//! parallelism for a single flow, which no baseline policy can do. A
//! mouse flow (or a de-split elephant) stays pinned to one lane, exactly
//! like RPS.
//!
//! The detector's rate windows are driven by a synthetic clock advanced
//! per observed segment, so classification depends only on the offered
//! load pattern — deterministic across runs and hosts.

use crate::elephant::{ElephantConfig, ElephantDetector};
use mflow_error::MflowError;
use mflow_steering::lane::SteeringPolicy;

/// Virtual nanoseconds charged per observed segment when advancing the
/// detector clock (a 1500-byte frame at ~12 Gbps).
const SYNTH_NS_PER_SEG: u64 = 1_000;

/// Micro-flow splitting over runtime lanes, gated by elephant detection.
#[derive(Debug)]
pub struct MflowLanes {
    detector: ElephantDetector,
    clock_ns: u64,
    next_lane: usize,
    pinned: usize,
}

impl MflowLanes {
    /// Creates the policy, rejecting an invalid [`ElephantConfig`].
    ///
    /// [`ElephantConfig::always`] reproduces the paper's single-elephant
    /// experiments: every flow splits from the first packet.
    pub fn try_new(elephant: ElephantConfig) -> Result<Self, MflowError> {
        Ok(Self {
            detector: ElephantDetector::try_new(elephant)?,
            clock_ns: 0,
            next_lane: 0,
            pinned: 0,
        })
    }
}

impl SteeringPolicy for MflowLanes {
    fn name(&self) -> &'static str {
        "mflow"
    }

    fn steer(&mut self, _mf_id: u64, flow_hash: u32, depths: &[usize]) -> usize {
        let lanes = depths.len().max(1);
        let flow = flow_hash as usize;
        let deepest = depths.iter().copied().max().unwrap_or(0) as u64;
        self.detector.lane_pressure(flow, deepest);
        if self.detector.should_split(flow) {
            let lane = self.next_lane % lanes;
            self.next_lane = (lane + 1) % lanes;
            lane
        } else {
            self.pinned % lanes
        }
    }

    fn observe(&mut self, _mf_id: u64, flow_hash: u32, _lane: usize, packets: usize) {
        self.clock_ns += packets as u64 * SYNTH_NS_PER_SEG;
        self.detector
            .observe(flow_hash as usize, packets as u64, self.clock_ns);
    }

    fn desplit_stats(&self) -> (u64, u64) {
        (self.detector.desplits(), self.detector.resplits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn always_split_round_robins_every_lane() {
        let mut p = MflowLanes::try_new(ElephantConfig::always()).unwrap();
        let depths = [0usize; 4];
        let lanes: Vec<usize> = (0..8).map(|mf| p.steer(mf, 1, &depths)).collect();
        assert_eq!(lanes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn mouse_flow_stays_pinned_until_promoted() {
        // High promote threshold: the flow is a mouse at first sight.
        let cfg = ElephantConfig {
            promote_segs_per_sec: 1e12,
            demote_segs_per_sec: 1e11,
            ..ElephantConfig::always()
        };
        let mut p = MflowLanes::try_new(cfg).unwrap();
        let depths = [0usize; 4];
        for mf in 0..8 {
            assert_eq!(p.steer(mf, 1, &depths), 0, "mouse must not split");
            p.observe(mf, 1, 0, 256);
        }
    }

    #[test]
    fn lane_pressure_desplits_an_elephant() {
        let cfg = ElephantConfig {
            lane_high_watermark_segs: 4,
            lane_low_watermark_segs: 2,
            overload_windows: 1,
            ..ElephantConfig::always()
        };
        let mut p = MflowLanes::try_new(cfg).unwrap();
        // Deep lanes: the first steer records the overload, subsequent
        // ones must pin instead of splitting.
        let deep = [8usize; 4];
        p.steer(0, 1, &deep);
        let pinned: Vec<usize> = (1..5).map(|mf| p.steer(mf, 1, &deep)).collect();
        assert!(pinned.iter().all(|&l| l == pinned[0]));
        assert_eq!(p.desplit_stats().0, 1);
        // Pressure clears: splitting resumes.
        let shallow = [0usize; 4];
        p.steer(5, 1, &shallow);
        let spread: std::collections::BTreeSet<usize> =
            (6..14).map(|mf| p.steer(mf, 1, &shallow)).collect();
        assert!(spread.len() > 1, "re-split flow must use several lanes");
        assert_eq!(p.desplit_stats().1, 1);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let cfg = ElephantConfig {
            window_ns: 0,
            ..ElephantConfig::always()
        };
        assert!(MflowLanes::try_new(cfg).is_err());
    }
}
