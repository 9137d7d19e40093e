//! Deterministic fault injection at the merge point.
//!
//! MFLOW's merging counter assumes every micro-flow eventually arrives,
//! complete and exactly once. Real overlay networks violate all three:
//! packets are lost, retransmitted copies duplicate micro-flows, and
//! stalled splitting cores deliver batches arbitrarily late. This module
//! perturbs the skb stream *entering the merge hook* so tests can prove
//! the merger degrades gracefully (flush-deadline recovery, late/duplicate
//! rejection) instead of wedging.
//!
//! Every decision is a pure hash of `(seed, flow, micro-flow id, wire
//! sequence)` — not a draw from mutable RNG state — so the same
//! configuration faults the same packets regardless of event interleaving.
//! Runs are reproducible bit-for-bit from the seed alone.

use crate::skb::Skb;

/// What to inject, all disabled by default.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Seed for the per-packet fault decisions (independent of the
    /// simulation's noise seed so faults can be varied in isolation).
    pub seed: u64,
    /// Probability that a micro-flow-tagged skb is dropped at the merge
    /// input.
    pub drop_rate: f64,
    /// Restrict random drops to batch-closing (`last_in_batch`) skbs —
    /// the worst case for the merging counter, which cannot advance
    /// without them.
    pub drop_last_only: bool,
    /// Probability that a tagged skb is duplicated (the copy arrives in
    /// the same batch, immediately after the original).
    pub dup_rate: f64,
    /// Probability that a tagged skb is held back and re-offered
    /// [`FaultConfig::delay_invocations`] merge invocations later.
    pub delay_rate: f64,
    /// How many merge invocations a delayed skb is held for.
    pub delay_invocations: u64,
    /// Targeted kills: every skb of these `(flow, micro-flow id)` pairs
    /// is dropped, deterministically losing whole micro-flows.
    pub kill_microflows: Vec<(usize, u64)>,
}

impl FaultConfig {
    /// No faults (the plan becomes a no-op).
    pub fn none() -> Self {
        Self {
            seed: 0,
            drop_rate: 0.0,
            drop_last_only: false,
            dup_rate: 0.0,
            delay_rate: 0.0,
            delay_invocations: 4,
            kill_microflows: Vec::new(),
        }
    }

    /// Whether any fault can ever fire.
    pub fn is_active(&self) -> bool {
        self.drop_rate > 0.0
            || self.dup_rate > 0.0
            || self.delay_rate > 0.0
            || !self.kill_microflows.is_empty()
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self::none()
    }
}

/// Counters of what the plan actually injected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Skbs deleted (random drops + targeted kills + skbs still held
    /// back when the run ended).
    pub drops: u64,
    /// Duplicate copies injected.
    pub dups: u64,
    /// Skbs delivered late (held and re-offered).
    pub delays: u64,
}

/// The executable fault plan: [`FaultConfig`] plus held-back skbs.
#[derive(Debug)]
pub struct FaultPlan {
    cfg: FaultConfig,
    counts: FaultCounts,
    /// Skbs held for late delivery, with the invocation they reappear at.
    held: Vec<(u64, Skb)>,
    invocation: u64,
}

impl FaultPlan {
    /// Builds a plan; inert configurations cost one branch per batch.
    pub fn new(cfg: FaultConfig) -> Self {
        Self {
            cfg,
            counts: FaultCounts::default(),
            held: Vec::new(),
            invocation: 0,
        }
    }

    /// What was injected so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Perturbs one batch entering the merge point. Untagged skbs (flows
    /// that were never split) always pass through untouched — the fault
    /// model targets the micro-flow machinery, not the transport.
    pub fn apply(&mut self, skbs: Vec<Skb>) -> Vec<Skb> {
        self.invocation += 1;
        let mut out = Vec::with_capacity(skbs.len());
        // Release held skbs that have served their delay. They are
        // prepended so a delayed skb arrives *before* this batch, behind
        // later skbs of its own lane: out of lane order.
        let due = self.invocation;
        let mut still_held = Vec::with_capacity(self.held.len());
        for (at, skb) in self.held.drain(..) {
            if at <= due {
                self.counts.delays += 1;
                out.push(skb);
            } else {
                still_held.push((at, skb));
            }
        }
        self.held = still_held;
        for skb in skbs {
            let Some(mf) = skb.mf else {
                out.push(skb);
                continue;
            };
            if self.cfg.kill_microflows.contains(&(skb.flow, mf.id)) {
                self.counts.drops += 1;
                continue;
            }
            if self.decide(0xD709, skb.flow, mf.id, skb.wire_seq, self.cfg.drop_rate)
                && (!self.cfg.drop_last_only || mf.last_in_batch)
            {
                self.counts.drops += 1;
                continue;
            }
            if self.decide(0xDE1A, skb.flow, mf.id, skb.wire_seq, self.cfg.delay_rate) {
                self.held
                    .push((self.invocation + self.cfg.delay_invocations.max(1), skb));
                continue;
            }
            let dup = self.decide(0xD0B1, skb.flow, mf.id, skb.wire_seq, self.cfg.dup_rate);
            if dup {
                self.counts.dups += 1;
                out.push(skb.clone());
            }
            out.push(skb);
        }
        out
    }

    /// Ends the run: skbs still held back will never be delivered and are
    /// folded into the drop count. Returns how many there were.
    pub fn finish(&mut self) -> u64 {
        let lost = self.held.len() as u64;
        self.counts.drops += lost;
        self.held.clear();
        lost
    }

    /// Pure per-packet decision: true with probability `rate`.
    fn decide(&self, salt: u64, flow: usize, mf_id: u64, wire_seq: u64, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let mut x = self.cfg.seed ^ salt;
        for v in [flow as u64, mf_id, wire_seq] {
            // SplitMix64 finalizer over the accumulated key.
            x = x.wrapping_add(v).wrapping_add(0x9E37_79B9_7F4A_7C15);
            x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            x ^= x >> 31;
        }
        ((x >> 11) as f64) / ((1u64 << 53) as f64) < rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skb::MicroflowTag;

    fn tagged(flow: usize, seq: u64, id: u64, last: bool) -> Skb {
        let mut s = Skb::new(seq, flow, 1514, 1448, seq * 1448, 0);
        s.mf = Some(MicroflowTag {
            id,
            core: 2,
            last_in_batch: last,
        });
        s
    }

    fn stream(n: u64) -> Vec<Skb> {
        (0..n).map(|i| tagged(0, i, i / 4, i % 4 == 3)).collect()
    }

    #[test]
    fn inert_plan_is_identity() {
        let mut p = FaultPlan::new(FaultConfig::none());
        let out = p.apply(stream(32));
        assert_eq!(out.len(), 32);
        assert_eq!(p.counts(), FaultCounts::default());
        assert_eq!(p.finish(), 0);
    }

    #[test]
    fn untagged_skbs_are_never_faulted() {
        let mut cfg = FaultConfig::none();
        cfg.drop_rate = 1.0;
        cfg.dup_rate = 1.0;
        let mut p = FaultPlan::new(cfg);
        let plain: Vec<Skb> = (0..8).map(|i| Skb::new(i, 0, 1514, 1448, i * 1448, 0)).collect();
        assert_eq!(p.apply(plain).len(), 8);
        assert_eq!(p.counts().drops, 0);
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let mut cfg = FaultConfig::none();
        cfg.seed = 7;
        cfg.drop_rate = 0.3;
        let out_a: Vec<u64> = FaultPlan::new(cfg.clone())
            .apply(stream(256))
            .iter()
            .map(|s| s.wire_seq)
            .collect();
        let out_b: Vec<u64> = FaultPlan::new(cfg.clone())
            .apply(stream(256))
            .iter()
            .map(|s| s.wire_seq)
            .collect();
        assert_eq!(out_a, out_b, "same seed, same faults");
        cfg.seed = 8;
        let out_c: Vec<u64> = FaultPlan::new(cfg)
            .apply(stream(256))
            .iter()
            .map(|s| s.wire_seq)
            .collect();
        assert_ne!(out_a, out_c, "different seed, different faults");
    }

    #[test]
    fn drop_last_only_spares_mid_batch_skbs() {
        let mut cfg = FaultConfig::none();
        cfg.drop_rate = 1.0;
        cfg.drop_last_only = true;
        let mut p = FaultPlan::new(cfg);
        let out = p.apply(stream(16));
        // 16 skbs in micro-flows of 4: exactly the 4 closers die.
        assert_eq!(out.len(), 12);
        assert!(out.iter().all(|s| !s.mf.unwrap().last_in_batch));
        assert_eq!(p.counts().drops, 4);
    }

    #[test]
    fn targeted_kill_removes_the_whole_microflow() {
        let mut cfg = FaultConfig::none();
        cfg.kill_microflows = vec![(0, 1)];
        let mut p = FaultPlan::new(cfg);
        let out = p.apply(stream(16));
        assert_eq!(out.len(), 12);
        assert!(out.iter().all(|s| s.mf.unwrap().id != 1));
        assert_eq!(p.counts().drops, 4);
    }

    #[test]
    fn duplicates_double_the_chosen_skbs() {
        let mut cfg = FaultConfig::none();
        cfg.dup_rate = 1.0;
        let mut p = FaultPlan::new(cfg);
        let out = p.apply(stream(8));
        assert_eq!(out.len(), 16);
        assert_eq!(p.counts().dups, 8);
    }

    #[test]
    fn delayed_skbs_reappear_then_count_as_lost_at_finish() {
        let mut cfg = FaultConfig::none();
        cfg.delay_rate = 1.0;
        cfg.delay_invocations = 2;
        let mut p = FaultPlan::new(cfg);
        assert!(p.apply(stream(4)).is_empty(), "all held");
        assert!(p.apply(Vec::new()).is_empty(), "not due yet");
        let back = p.apply(Vec::new());
        assert_eq!(back.len(), 4, "released after the delay");
        assert_eq!(p.counts().delays, 4);
        // A second wave held at end-of-run becomes drops.
        assert!(p.apply(stream(4)).is_empty());
        assert_eq!(p.finish(), 4);
        assert_eq!(p.counts().drops, 4);
    }
}
