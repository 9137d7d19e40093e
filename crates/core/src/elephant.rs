//! Elephant-flow identification.
//!
//! MFLOW splits "any identified (elephant) flow" (§III-A): long-lived,
//! high-rate flows whose packet processing can saturate a core. Splitting
//! mice would only add steering overhead, so the splitter consults this
//! detector before tagging a flow.
//!
//! The detector keeps a per-flow exponentially-weighted rate estimate over
//! fixed windows, promotes a flow to elephant when its rate stays above
//! `promote_segs_per_sec` and demotes it when it falls below the (lower)
//! `demote_segs_per_sec` — hysteresis so borderline flows do not flap
//! between split and unsplit processing, which would churn micro-flow
//! state.

use std::collections::BTreeMap;

use mflow_error::MflowError;
use mflow_sim::Time;

/// Detector configuration.
#[derive(Clone, Copy, Debug)]
pub struct ElephantConfig {
    /// Rate above which a flow is promoted to elephant.
    pub promote_segs_per_sec: f64,
    /// Rate below which an elephant is demoted. Must not exceed the
    /// promotion threshold.
    pub demote_segs_per_sec: f64,
    /// Measurement window.
    pub window_ns: u64,
    /// EWMA weight of the newest window.
    pub alpha: f64,
    /// Lane backlog (in segments) at or above which a split flow's lanes
    /// count as overloaded. When the deepest of a flow's lanes stays at or
    /// above this for [`ElephantConfig::overload_windows`] consecutive
    /// observations the flow is de-split: splitting a flow into saturated
    /// lanes only adds steering and reorder cost. `u64::MAX` (the default)
    /// disables the feedback loop entirely.
    pub lane_high_watermark_segs: u64,
    /// Lane backlog at or below which pressure counts as cleared; must not
    /// exceed the high watermark. Between the two watermarks the overload
    /// state holds (hysteresis, mirroring promote/demote).
    pub lane_low_watermark_segs: u64,
    /// Consecutive observations beyond a watermark required to flip the
    /// overload state. Must be >= 1.
    pub overload_windows: u32,
}

impl Default for ElephantConfig {
    fn default() -> Self {
        Self {
            // ~145 Mbps of MTU segments: far above any mouse, far below
            // the multi-Gbps elephants the paper targets.
            promote_segs_per_sec: 12_500.0,
            demote_segs_per_sec: 5_000.0,
            window_ns: 1_000_000, // 1 ms
            alpha: 0.3,
            lane_high_watermark_segs: u64::MAX, // de-split feedback off
            lane_low_watermark_segs: 0,
            overload_windows: 8,
        }
    }
}

impl ElephantConfig {
    /// A detector that treats every flow as an elephant immediately (the
    /// single-flow experiments, where splitting is statically enabled).
    pub fn always() -> Self {
        Self {
            promote_segs_per_sec: 0.0,
            demote_segs_per_sec: 0.0,
            ..Self::default()
        }
    }

    /// Checks every invariant the doc comments promise.
    pub fn validate(&self) -> Result<(), MflowError> {
        if self.demote_segs_per_sec > self.promote_segs_per_sec {
            return Err(MflowError::invalid(
                "demote_segs_per_sec",
                "hysteresis thresholds inverted: demote must not exceed promote",
            ));
        }
        if self.window_ns == 0 {
            return Err(MflowError::invalid("window_ns", "window must be nonzero"));
        }
        if !(self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(MflowError::invalid("alpha", "must be in (0, 1]"));
        }
        if self.lane_low_watermark_segs > self.lane_high_watermark_segs {
            return Err(MflowError::invalid(
                "lane_low_watermark_segs",
                "low watermark must not exceed high watermark",
            ));
        }
        if self.overload_windows == 0 {
            return Err(MflowError::invalid(
                "overload_windows",
                "must be at least 1",
            ));
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct FlowRate {
    window_start: Time,
    window_segs: u64,
    ewma_segs_per_sec: f64,
    elephant: bool,
}

/// Per-flow lane-pressure state: streak counters over the occupancy
/// watermarks, with a dead band between them where the state holds.
#[derive(Clone, Copy, Debug, Default)]
struct Overload {
    overloaded: bool,
    over_streak: u32,
    under_streak: u32,
}

/// Per-flow rate tracking with hysteresis-based classification.
#[derive(Debug)]
pub struct ElephantDetector {
    cfg: ElephantConfig,
    flows: BTreeMap<usize, FlowRate>,
    pressure: BTreeMap<usize, Overload>,
    promotions: u64,
    demotions: u64,
    desplits: u64,
    resplits: u64,
}

impl ElephantDetector {
    /// Creates a detector, rejecting configs that violate the documented
    /// invariants (hysteresis ordering, nonzero window, alpha in (0, 1]).
    pub fn try_new(cfg: ElephantConfig) -> Result<Self, MflowError> {
        cfg.validate()?;
        Ok(Self {
            cfg,
            flows: BTreeMap::new(),
            pressure: BTreeMap::new(),
            promotions: 0,
            demotions: 0,
            desplits: 0,
            resplits: 0,
        })
    }

    /// Records `segs` observed for `flow` at `now`; returns whether the
    /// flow is currently classified as an elephant.
    pub fn observe(&mut self, flow: usize, segs: u64, now: Time) -> bool {
        if self.cfg.promote_segs_per_sec == 0.0 {
            return true; // always-split mode
        }
        let cfg = self.cfg;
        let st = self.flows.entry(flow).or_insert(FlowRate {
            window_start: now,
            ..FlowRate::default()
        });
        st.window_segs += segs;
        let elapsed = now.saturating_sub(st.window_start);
        if elapsed >= cfg.window_ns {
            let rate = st.window_segs as f64 * 1e9 / elapsed as f64;
            st.ewma_segs_per_sec =
                cfg.alpha * rate + (1.0 - cfg.alpha) * st.ewma_segs_per_sec;
            st.window_start = now;
            st.window_segs = 0;
            if !st.elephant && st.ewma_segs_per_sec >= cfg.promote_segs_per_sec {
                st.elephant = true;
                self.promotions += 1;
            } else if st.elephant && st.ewma_segs_per_sec < cfg.demote_segs_per_sec {
                st.elephant = false;
                self.demotions += 1;
            }
        }
        st.elephant
    }

    /// Current classification without recording an observation.
    pub fn is_elephant(&self, flow: usize) -> bool {
        self.cfg.promote_segs_per_sec == 0.0
            || self.flows.get(&flow).is_some_and(|s| s.elephant)
    }

    /// Number of tracked flows.
    pub fn tracked(&self) -> usize {
        self.flows.len()
    }

    /// Lifetime promotions to elephant.
    pub fn promotions(&self) -> u64 {
        self.promotions
    }

    /// Lifetime demotions.
    pub fn demotions(&self) -> u64 {
        self.demotions
    }

    /// Feeds one lane-occupancy observation for `flow` — the deepest
    /// backlog (in segments) among the lanes the flow is split over — and
    /// returns whether the flow's lanes are currently overloaded.
    ///
    /// Overload flips on after [`ElephantConfig::overload_windows`]
    /// consecutive observations at or above the high watermark, and off
    /// again after the same number at or below the low watermark; in the
    /// dead band between the watermarks both streaks reset and the state
    /// holds, mirroring the promote/demote rate hysteresis.
    pub fn lane_pressure(&mut self, flow: usize, deepest_backlog_segs: u64) -> bool {
        let cfg = self.cfg;
        if cfg.lane_high_watermark_segs == u64::MAX {
            return false; // feedback loop disabled
        }
        let st = self.pressure.entry(flow).or_default();
        if deepest_backlog_segs >= cfg.lane_high_watermark_segs {
            st.under_streak = 0;
            st.over_streak = st.over_streak.saturating_add(1);
            if !st.overloaded && st.over_streak >= cfg.overload_windows {
                st.overloaded = true;
                self.desplits += 1;
            }
        } else if deepest_backlog_segs <= cfg.lane_low_watermark_segs {
            st.over_streak = 0;
            st.under_streak = st.under_streak.saturating_add(1);
            if st.overloaded && st.under_streak >= cfg.overload_windows {
                st.overloaded = false;
                self.resplits += 1;
            }
        } else {
            st.over_streak = 0;
            st.under_streak = 0;
        }
        st.overloaded
    }

    /// Current lane-overload classification without recording an
    /// observation.
    pub fn overloaded(&self, flow: usize) -> bool {
        self.pressure.get(&flow).is_some_and(|s| s.overloaded)
    }

    /// Whether the splitter should split `flow` right now: classified an
    /// elephant by rate AND its lanes are not overloaded.
    pub fn should_split(&self, flow: usize) -> bool {
        self.is_elephant(flow) && !self.overloaded(flow)
    }

    /// Lifetime de-splits (elephants demoted to unsplit processing by
    /// lane pressure).
    pub fn desplits(&self) -> u64 {
        self.desplits
    }

    /// Lifetime re-splits (overloaded flows re-promoted after pressure
    /// cleared).
    pub fn resplits(&self) -> u64 {
        self.resplits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ElephantConfig {
        ElephantConfig {
            promote_segs_per_sec: 10_000.0,
            demote_segs_per_sec: 4_000.0,
            window_ns: 1_000_000,
            alpha: 0.5,
            ..ElephantConfig::default()
        }
    }

    /// Feeds a steady rate (segs per 1 ms window) for `windows` windows.
    fn feed(d: &mut ElephantDetector, flow: usize, per_window: u64, windows: u64, t0: u64) -> u64 {
        let mut now = t0;
        for _ in 0..windows {
            for k in 0..per_window {
                d.observe(flow, 1, now + k * (1_000_000 / per_window.max(1)));
            }
            now += 1_000_000;
            d.observe(flow, 0, now);
        }
        now
    }

    #[test]
    fn fast_flow_is_promoted() {
        let mut d = ElephantDetector::try_new(cfg()).expect("valid elephant config");
        // 50 segs/ms = 50k segs/s, well above the 10k threshold.
        feed(&mut d, 0, 50, 8, 0);
        assert!(d.is_elephant(0));
        assert_eq!(d.promotions(), 1);
    }

    #[test]
    fn slow_flow_stays_mouse() {
        let mut d = ElephantDetector::try_new(cfg()).expect("valid elephant config");
        // 2 segs/ms = 2k segs/s, below both thresholds.
        feed(&mut d, 0, 2, 20, 0);
        assert!(!d.is_elephant(0));
        assert_eq!(d.promotions(), 0);
    }

    #[test]
    fn hysteresis_requires_falling_below_demote_threshold() {
        let mut d = ElephantDetector::try_new(cfg()).expect("valid elephant config");
        let t = feed(&mut d, 0, 50, 8, 0);
        assert!(d.is_elephant(0));
        // Drop to 7 segs/ms = 7k/s: between demote (4k) and promote (10k):
        // stays an elephant.
        let t = feed(&mut d, 0, 7, 10, t);
        assert!(d.is_elephant(0), "must not demote inside the hysteresis band");
        // Drop to 1 seg/ms: demoted.
        feed(&mut d, 0, 1, 12, t);
        assert!(!d.is_elephant(0));
        assert_eq!(d.demotions(), 1);
    }

    #[test]
    fn flows_are_tracked_independently() {
        let mut d = ElephantDetector::try_new(cfg()).expect("valid elephant config");
        feed(&mut d, 0, 50, 8, 0);
        feed(&mut d, 1, 2, 8, 0);
        assert!(d.is_elephant(0));
        assert!(!d.is_elephant(1));
        assert_eq!(d.tracked(), 2);
    }

    #[test]
    fn always_mode_splits_everything() {
        let mut d = ElephantDetector::try_new(ElephantConfig::always()).expect("valid elephant config");
        assert!(d.observe(7, 1, 0));
        assert!(d.is_elephant(7));
    }

    #[test]
    fn inverted_thresholds_rejected() {
        let err = ElephantDetector::try_new(ElephantConfig {
            promote_segs_per_sec: 1.0,
            demote_segs_per_sec: 2.0,
            ..ElephantConfig::default()
        })
        .unwrap_err();
        assert_eq!(err.field(), Some("demote_segs_per_sec"));
    }

    #[test]
    fn invalid_fields_rejected_one_by_one() {
        let base = ElephantConfig::default();
        let cases: [(ElephantConfig, &str); 4] = [
            (ElephantConfig { window_ns: 0, ..base }, "window_ns"),
            (ElephantConfig { alpha: 0.0, ..base }, "alpha"),
            (ElephantConfig { alpha: 1.5, ..base }, "alpha"),
            (
                ElephantConfig {
                    lane_high_watermark_segs: 10,
                    lane_low_watermark_segs: 20,
                    ..base
                },
                "lane_low_watermark_segs",
            ),
        ];
        for (cfg, field) in cases {
            let err = ElephantDetector::try_new(cfg).unwrap_err();
            assert_eq!(err.field(), Some(field), "wrong field for {cfg:?}");
        }
        let err = ElephantDetector::try_new(ElephantConfig {
            overload_windows: 0,
            lane_high_watermark_segs: 100,
            lane_low_watermark_segs: 10,
            ..base
        })
        .unwrap_err();
        assert_eq!(err.field(), Some("overload_windows"));
    }

    #[test]
    fn rate_exactly_at_promote_threshold_promotes() {
        // alpha = 1.0 makes the EWMA equal the instantaneous window rate,
        // so a window at exactly the threshold must promote (>= semantics).
        let mut d = ElephantDetector::try_new(ElephantConfig {
            promote_segs_per_sec: 10_000.0,
            demote_segs_per_sec: 4_000.0,
            window_ns: 1_000_000,
            alpha: 1.0,
            ..ElephantConfig::default()
        }).expect("valid elephant config");
        // 10 segs over exactly 1 ms = 10_000 segs/s.
        d.observe(0, 10, 0);
        d.observe(0, 0, 1_000_000);
        assert!(d.is_elephant(0), "rate exactly at threshold must promote");
        assert_eq!(d.promotions(), 1);
    }

    fn pressure_cfg() -> ElephantConfig {
        ElephantConfig {
            lane_high_watermark_segs: 100,
            lane_low_watermark_segs: 20,
            overload_windows: 3,
            ..ElephantConfig::default()
        }
    }

    #[test]
    fn sustained_pressure_desplits_after_streak() {
        let mut d = ElephantDetector::try_new(pressure_cfg()).expect("valid elephant config");
        assert!(!d.lane_pressure(0, 150));
        assert!(!d.lane_pressure(0, 150));
        assert!(d.lane_pressure(0, 150), "third consecutive window flips");
        assert!(d.overloaded(0));
        assert_eq!(d.desplits(), 1);
        assert!(!d.should_split(0), "overloaded elephant must not split");
    }

    #[test]
    fn pressure_dead_band_holds_state_and_resets_streaks() {
        let mut d = ElephantDetector::try_new(pressure_cfg()).expect("valid elephant config");
        d.lane_pressure(0, 150);
        d.lane_pressure(0, 150);
        // Dead-band sample resets the over-streak: two more high samples
        // must not be enough on their own.
        d.lane_pressure(0, 50);
        d.lane_pressure(0, 150);
        assert!(!d.lane_pressure(0, 150), "streak was reset by dead band");
        assert!(d.lane_pressure(0, 150));
        // Once overloaded, dead-band samples hold the overload.
        assert!(d.lane_pressure(0, 50));
        assert!(d.overloaded(0));
    }

    #[test]
    fn pressure_clearing_resplits() {
        let mut d = ElephantDetector::try_new(pressure_cfg()).expect("valid elephant config");
        for _ in 0..3 {
            d.lane_pressure(0, 200);
        }
        assert!(d.overloaded(0));
        // Two low samples are not enough; the third clears it.
        assert!(d.lane_pressure(0, 5));
        assert!(d.lane_pressure(0, 5));
        assert!(!d.lane_pressure(0, 5), "third low sample clears");
        assert!(!d.overloaded(0), "pressure cleared after streak");
        assert_eq!(d.resplits(), 1);
    }

    #[test]
    fn pressure_disabled_by_default() {
        let mut d = ElephantDetector::try_new(ElephantConfig::default()).expect("valid elephant config");
        for _ in 0..100 {
            assert!(!d.lane_pressure(0, u64::MAX - 1));
        }
        assert!(!d.overloaded(0));
        assert_eq!(d.desplits(), 0);
    }
}
