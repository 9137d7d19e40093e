//! Steering interfaces: how batches move between stages and cores.
//!
//! The netstack defines the *mechanism* interfaces; the `mflow-steering`
//! crate implements the baselines (vanilla, RSS, RPS, FALCON) and the
//! `mflow` crate implements the paper's contribution on top of them.

use mflow_sim::{CoreId, Time};

use crate::skb::Skb;
use crate::stage::Stage;

/// A read-only view of current per-core queue depths, offered to policies
/// at dispatch time (the kernel equivalent: a splitting function can read
/// the depth of each per-core splitting queue before enqueueing).
#[derive(Clone, Copy, Debug)]
pub struct LoadView<'a> {
    backlog_segs: &'a [u64],
}

impl<'a> LoadView<'a> {
    /// Wraps a per-core backlog-segment count slice.
    pub fn new(backlog_segs: &'a [u64]) -> Self {
        Self { backlog_segs }
    }

    /// Queued wire segments currently waiting on `core`.
    pub fn backlog_segs(&self, core: CoreId) -> u64 {
        self.backlog_segs.get(core).copied().unwrap_or(0)
    }
}

/// A steering policy decides, at every stage transition, which core each
/// skb (or sub-batch) continues on, and may split a batch across cores.
pub trait PacketSteering {
    /// Human-readable name used in reports.
    fn name(&self) -> &'static str;

    /// Core whose ring buffer / first softirq receives frames of the flow
    /// with this RSS hash (the NIC's RSS indirection). Takes `&mut self`
    /// so policies may assign flows to queues on first sight, the way a
    /// driver programs its indirection table.
    fn irq_core(&mut self, hash: u32) -> CoreId;

    /// Distributes a batch leaving `from` toward `to` into per-core
    /// sub-batches, preserving relative order within each sub-batch.
    ///
    /// `cur` is the core that executed `from`. The returned sub-batches are
    /// enqueued in the given order.
    fn dispatch(
        &mut self,
        now: Time,
        from: Stage,
        to: Stage,
        cur: CoreId,
        batch: Vec<Skb>,
        loads: LoadView<'_>,
    ) -> Vec<(CoreId, Vec<Skb>)>;

    /// Extra steering cost charged to the source core for dispatching
    /// `segs` segments from `from` toward `to` (MFLOW's splitting
    /// bookkeeping; zero for the baselines beyond what stage costs already
    /// include).
    fn dispatch_cost_ns(&self, _from: Stage, _to: Stage, _segs: u64) -> u64 {
        0
    }

    /// Tag under which dispatch cost is charged.
    fn dispatch_tag(&self) -> &'static str {
        "steering"
    }

    /// Lifetime (de-splits, re-splits): flows demoted to unsplit
    /// processing because their lanes stayed above the occupancy high
    /// watermark, and flows re-promoted after pressure cleared. Zero for
    /// policies without overload feedback.
    fn desplit_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// A flow merger enforces original flow order over micro-flow-tagged skbs
/// at a merge point (before `TcpRx` or before `UserCopy`).
pub trait FlowMerger {
    /// Offers skbs arriving at the merge point; returns the skbs that are
    /// now in order and may proceed. Skbs of flows that were never split
    /// must pass through unchanged.
    fn offer(&mut self, skbs: Vec<Skb>) -> Vec<Skb>;

    /// Number of skbs currently buffered waiting for their turn.
    fn buffered(&self) -> usize;

    /// Cost charged to the consuming core per merge invocation that
    /// released `released` skbs out of `offered` offered.
    fn merge_cost_ns(&self, offered: u64, released: u64) -> u64;

    /// Buffered skbs that will never be released (end-of-run accounting);
    /// draining them lets reports detect stuck merges.
    fn drain(&mut self) -> Vec<Skb>;

    /// Micro-flows the merger gave up waiting for and skipped past
    /// (flush-deadline recovery). Zero for mergers without a deadline.
    fn flushed(&self) -> u64 {
        0
    }

    /// Skbs dropped because they arrived after the merger had already
    /// passed their micro-flow.
    fn late_drops(&self) -> u64 {
        0
    }

    /// Skbs dropped as duplicate copies of a known micro-flow.
    fn dup_drops(&self) -> u64 {
        0
    }

    /// Force-releases parked skbs by skipping every stuck micro-flow
    /// (end-of-stream recovery). Returned skbs are in released order.
    /// Mergers without flush support release nothing.
    fn flush_stalled(&mut self) -> Vec<Skb> {
        Vec::new()
    }
}

/// The simplest steering: everything stays on the core it is already on —
/// i.e. the vanilla kernel behaviour of running a flow's entire receive
/// pipeline on the RSS-chosen core.
#[derive(Clone, Debug)]
pub struct StayLocal {
    irq: CoreId,
}

impl StayLocal {
    /// All flows IRQ onto `irq` and never migrate (the paper's single-flow
    /// vanilla configuration with pinned IRQ affinity).
    pub fn new(irq: CoreId) -> Self {
        Self { irq }
    }
}

impl PacketSteering for StayLocal {
    fn name(&self) -> &'static str {
        "stay-local"
    }

    fn irq_core(&mut self, _hash: u32) -> CoreId {
        self.irq
    }

    fn dispatch(
        &mut self,
        _now: Time,
        _from: Stage,
        _to: Stage,
        cur: CoreId,
        batch: Vec<Skb>,
        _loads: LoadView<'_>,
    ) -> Vec<(CoreId, Vec<Skb>)> {
        vec![(cur, batch)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skb(seq: u64) -> Skb {
        Skb::new(seq, 0, 1514, 1448, seq * 1448, 0)
    }

    #[test]
    fn stay_local_never_migrates() {
        let mut p = StayLocal::new(3);
        let h = 0xDEAD;
        assert_eq!(p.irq_core(h), 3);
        let loads = [0u64; 8];
        let out = p.dispatch(0, Stage::SkbAlloc, Stage::Gro, 5, vec![skb(0), skb(1)], LoadView::new(&loads));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 5);
        assert_eq!(out[0].1.len(), 2);
    }

    #[test]
    fn stay_local_has_no_dispatch_cost() {
        let p = StayLocal::new(0);
        assert_eq!(p.dispatch_cost_ns(Stage::DriverPoll, Stage::SkbAlloc, 64), 0);
    }
}
