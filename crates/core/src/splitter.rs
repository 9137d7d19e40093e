//! MFLOW's flow-splitting steering policy (§III-A).
//!
//! At the configured split transition, consecutive packets of each flow are
//! grouped into micro-flows of `batch_size` packets; each micro-flow is
//! dispatched round-robin onto the next splitting core (its *lane*) and
//! tagged so the reassembler can restore order. With `FullPath` scaling the
//! split happens at the `DriverPoll → SkbAlloc` transition, modelling the
//! IRQ-splitting function that dispatches raw packet *requests* before any
//! skb exists; with `Device` scaling it happens in front of the heavyweight
//! device (the flow-splitting function re-purposing `netif_rx`).

use std::collections::BTreeMap;

use mflow_netstack::{LoadView, MicroflowTag, PacketSteering, Skb, Stage};
use mflow_sim::CoreId;

use crate::config::{MflowConfig, ScalingMode};

struct FlowSplit {
    mf_id: u64,
    segs_in_batch: u32,
    lane_idx: usize,
    lanes: Vec<CoreId>,
    /// Whether the flow is currently being split. A flow demoted by lane
    /// pressure (or by rate) keeps its entry so micro-flow numbering and
    /// lane assignment survive a later re-promotion; transitions apply
    /// only at micro-flow boundaries so the merger never sees a half-open
    /// micro-flow.
    active: bool,
}

/// Running count of flows currently assigned to each splitting core, the
/// committed-rate signal lane selection balances on. Instantaneous queue
/// depth alone herds every flow onto whichever lane drained last.
#[derive(Default)]
struct LaneOccupancy {
    assigned: BTreeMap<CoreId, usize>,
}

impl LaneOccupancy {
    fn moved(&mut self, from: CoreId, to: CoreId) {
        if from != to {
            let f = self.assigned.entry(from).or_insert(0);
            *f = f.saturating_sub(1);
            *self.assigned.entry(to).or_insert(0) += 1;
        }
    }

    fn register(&mut self, lane: CoreId) {
        *self.assigned.entry(lane).or_insert(0) += 1;
    }

    fn count(&self, lane: CoreId) -> usize {
        self.assigned.get(&lane).copied().unwrap_or(0)
    }
}

/// The MFLOW steering policy.
pub struct MflowSteering {
    cfg: MflowConfig,
    split_into: Stage,
    flows: BTreeMap<usize, FlowSplit>,
    /// Multi-flow placement: on first sight each flow is assigned a
    /// dispatch core and `lanes_per_flow` splitting cores, picking the
    /// least-loaded pool entries. This even, load-aware distribution is
    /// what Figure 12 measures as MFLOW's balanced CPU usage.
    assignments: BTreeMap<u32, (CoreId, Vec<CoreId>)>,
    /// Number of roles (dispatch or lane) each pool core already serves.
    load: BTreeMap<CoreId, usize>,
    occupancy: LaneOccupancy,
    detector: crate::elephant::ElephantDetector,
}

impl MflowSteering {
    /// Creates the policy, rejecting configurations that violate
    /// [`MflowConfig::validate`].
    pub fn try_new(cfg: MflowConfig) -> Result<Self, mflow_error::MflowError> {
        cfg.validate()?;
        let split_into = cfg.split_into();
        let detector = crate::elephant::ElephantDetector::try_new(cfg.elephant)?;
        Ok(Self {
            cfg,
            split_into,
            flows: BTreeMap::new(),
            assignments: BTreeMap::new(),
            load: BTreeMap::new(),
            occupancy: LaneOccupancy::default(),
            detector,
        })
    }

    fn pool(&self) -> &[CoreId] {
        &self.cfg.split_cores
    }

    /// Assigns (or looks up) the flow's dispatch core and lanes,
    /// least-loaded-first over the pool.
    fn assign(&mut self, hash: u32) -> (CoreId, Vec<CoreId>) {
        if let Some(a) = self.assignments.get(&hash) {
            return a.clone();
        }
        let lanes_n = self.cfg.lanes_per_flow.min(self.pool().len().saturating_sub(1)).max(1);
        let mut picked: Vec<CoreId> = Vec::with_capacity(lanes_n + 1);
        for _ in 0..=lanes_n {
            let core = self
                .pool()
                .iter()
                .copied()
                .filter(|c| !picked.contains(c))
                .min_by_key(|c| self.load.get(c).copied().unwrap_or(0))
                .expect("pool larger than lanes");
            picked.push(core);
        }
        for &c in &picked {
            *self.load.entry(c).or_insert(0) += 1;
        }
        let dispatch = picked[0];
        let lanes = picked[1..].to_vec();
        self.assignments.insert(hash, (dispatch, lanes.clone()));
        (dispatch, lanes)
    }

    fn flow_dispatch_core(&mut self, hash: u32) -> CoreId {
        if self.cfg.spread_flows {
            self.assign(hash).0
        } else {
            self.cfg.dispatch_core
        }
    }

    fn flow_lanes(&mut self, hash: u32) -> Vec<CoreId> {
        if !self.cfg.spread_flows {
            return self.pool().to_vec();
        }
        self.assign(hash).1
    }

    fn tail_for_lane(&self, lane_core: CoreId) -> CoreId {
        match (&self.cfg.branch_tails, self.pool().iter().position(|&c| c == lane_core)) {
            (Some(tails), Some(idx)) if !tails.is_empty() => tails[idx % tails.len()],
            _ => lane_core,
        }
    }

    /// Tags one skb at the split point and returns its lane core. When a
    /// micro-flow closes, the next one goes to the currently least-loaded
    /// splitting queue — the even distribution §III-A calls for (with one
    /// busy flow this degenerates to round-robin, since the lane that just
    /// received a batch is the fuller one).
    fn split_one(&mut self, skb: &mut Skb, loads: LoadView<'_>) -> CoreId {
        let hash = skb.hash;
        let batch = self.cfg.batch_size;
        let lanes = self.flow_lanes(hash);
        let occupancy = &mut self.occupancy;
        let st = self.flows.entry(skb.flow).or_insert_with(|| {
            occupancy.register(lanes[0]);
            FlowSplit {
                mf_id: 0,
                segs_in_batch: 0,
                lane_idx: 0,
                lanes,
                active: true,
            }
        });
        st.active = true;
        let lane_core = st.lanes[st.lane_idx];
        let mut tag = MicroflowTag {
            id: st.mf_id,
            core: lane_core,
            last_in_batch: false,
        };
        st.segs_in_batch += skb.segs;
        if st.segs_in_batch >= batch {
            tag.last_in_batch = true;
            st.mf_id += 1;
            st.segs_in_batch = 0;
            // Choose the next lane by (flows committed there, then queue
            // depth): committed-rate balancing avoids the herd effect of
            // chasing the lane that drained most recently, while the
            // queue-depth tie-break still alternates a lone flow between
            // its lanes under saturation.
            let next = st
                .lanes
                .iter()
                .copied()
                .min_by_key(|&c| {
                    let self_penalty = usize::from(c == lane_core);
                    (
                        occupancy.count(c).saturating_sub(usize::from(c == lane_core)),
                        self_penalty,
                        loads.backlog_segs(c),
                    )
                })
                .unwrap();
            occupancy.moved(lane_core, next);
            st.lane_idx = st.lanes.iter().position(|&c| c == next).unwrap();
        }
        skb.mf = Some(tag);
        lane_core
    }

    /// Routes one skb at the split point: elephant classification by rate,
    /// lane-pressure feedback (adaptive de-splitting), and split-state
    /// transitions applied only at micro-flow boundaries.
    fn route_one(
        &mut self,
        skb: &mut Skb,
        now: mflow_sim::Time,
        cur: CoreId,
        loads: LoadView<'_>,
    ) -> CoreId {
        // Only identified elephant flows are split (§III-A); mice continue
        // on the current core untagged.
        let is_elephant = self.detector.observe(skb.flow, skb.segs as u64, now);
        if !is_elephant && !self.flows.contains_key(&skb.flow) {
            return cur;
        }
        // Feed the deepest backlog among the flow's lanes into the
        // detector: sustained occupancy above the high watermark demotes
        // the flow to unsplit processing (splitting into saturated lanes
        // only adds steering and reorder cost), clearing below the low
        // watermark re-promotes it.
        let deepest = match self.flows.get(&skb.flow) {
            Some(st) => st.lanes.iter().map(|&c| loads.backlog_segs(c)).max(),
            None => {
                let lanes = self.flow_lanes(skb.hash);
                lanes.iter().map(|&c| loads.backlog_segs(c)).max()
            }
        }
        .unwrap_or(0);
        let overloaded = self.detector.lane_pressure(skb.flow, deepest);
        let want_split = is_elephant && !overloaded;
        // A demotion requested mid-micro-flow applies only once the open
        // micro-flow closes, so every started batch reaches the merger
        // complete and the counter never wedges on a half batch.
        let mid_batch = self
            .flows
            .get(&skb.flow)
            .is_some_and(|st| st.active && st.segs_in_batch > 0);
        if want_split || mid_batch {
            let lane = self.split_one(skb, loads);
            if !want_split {
                if let Some(st) = self.flows.get_mut(&skb.flow) {
                    if st.segs_in_batch == 0 {
                        st.active = false; // boundary reached: demote now
                    }
                }
            }
            lane
        } else {
            if let Some(st) = self.flows.get_mut(&skb.flow) {
                st.active = false;
            }
            cur
        }
    }
}

impl PacketSteering for MflowSteering {
    fn name(&self) -> &'static str {
        match self.cfg.mode {
            ScalingMode::FullPath => "mflow",
            ScalingMode::Device { .. } => "mflow-dev",
        }
    }

    fn irq_core(&mut self, hash: u32) -> CoreId {
        self.flow_dispatch_core(hash)
    }

    fn dispatch(
        &mut self,
        now: mflow_sim::Time,
        from: Stage,
        to: Stage,
        cur: CoreId,
        batch: Vec<Skb>,
        loads: LoadView<'_>,
    ) -> Vec<(CoreId, Vec<Skb>)> {
        // 1. The split point: assign micro-flows and fan out (Figure 6a/6b).
        if to == self.split_into {
            let mut out: Vec<(CoreId, Vec<Skb>)> = Vec::new();
            for mut skb in batch {
                let target = self.route_one(&mut skb, now, cur, loads);
                match out.last_mut() {
                    Some((c, v)) if *c == target => v.push(skb),
                    _ => out.push((target, vec![skb])),
                }
            }
            return out;
        }
        // 2. Full-path scaling: after the split stage, pipeline each
        //    branch's remaining stages onto its tail core (Figure 8b kept
        //    only skb allocation on the splitting cores).
        if from == self.split_into && self.cfg.branch_tails.is_some() {
            let mut out: Vec<(CoreId, Vec<Skb>)> = Vec::new();
            for skb in batch {
                let lane = skb.mf.map_or(cur, |mf| mf.core);
                let tail = self.tail_for_lane(lane);
                match out.last_mut() {
                    Some((c, v)) if *c == tail => v.push(skb),
                    _ => out.push((tail, vec![skb])),
                }
            }
            return out;
        }
        // 3. The stateful stage runs on one core per flow so that merged
        //    order survives execution.
        if to == Stage::TcpRx && matches!(self.cfg.mode, ScalingMode::FullPath) {
            if self.cfg.spread_flows {
                let mut out: Vec<(CoreId, Vec<Skb>)> = Vec::new();
                for skb in batch {
                    let t = self.flow_dispatch_core(skb.hash);
                    match out.last_mut() {
                        Some((c, v)) if *c == t => v.push(skb),
                        _ => out.push((t, vec![skb])),
                    }
                }
                return out;
            }
            return vec![(self.cfg.merge_core, batch)];
        }
        // 4. Everything else continues on the current core (data locality:
        //    a micro-flow's packets stay where they were dispatched).
        vec![(cur, batch)]
    }

    fn dispatch_cost_ns(&self, _from: Stage, to: Stage, segs: u64) -> u64 {
        if to == self.split_into {
            (self.cfg.dispatch_cost_per_seg_ns * segs as f64).round() as u64
        } else {
            0
        }
    }

    fn dispatch_tag(&self) -> &'static str {
        "mflow.dispatch"
    }

    fn desplit_stats(&self) -> (u64, u64) {
        (self.detector.desplits(), self.detector.resplits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skb(flow: usize, seq: u64) -> Skb {
        let mut s = Skb::new(seq, flow, 1514, 1448, seq * 1448, 0);
        s.hash = 0x5555_0000 + flow as u32;
        s
    }

    fn no_load() -> [u64; 16] {
        [0; 16]
    }

    fn run_split(p: &mut MflowSteering, n: u64) -> Vec<(CoreId, Vec<Skb>)> {
        let batch: Vec<Skb> = (0..n).map(|i| skb(0, i)).collect();
        p.dispatch(0, Stage::DriverPoll, Stage::SkbAlloc, 1, batch, LoadView::new(&no_load()))
    }

    #[test]
    fn splits_into_batch_sized_microflows_round_robin() {
        let mut cfg = MflowConfig::tcp_full_path();
        cfg.batch_size = 4;
        let mut p = MflowSteering::try_new(cfg).expect("valid mflow config");
        let out = run_split(&mut p, 12);
        // 12 packets / batch 4 = 3 micro-flows over lanes 2,3,2.
        let cores: Vec<CoreId> = out.iter().map(|(c, _)| *c).collect();
        assert_eq!(cores, vec![2, 3, 2]);
        for (i, (_, v)) in out.iter().enumerate() {
            assert_eq!(v.len(), 4);
            for (j, s) in v.iter().enumerate() {
                let mf = s.mf.unwrap();
                assert_eq!(mf.id, i as u64);
                assert_eq!(mf.last_in_batch, j == 3);
            }
        }
    }

    #[test]
    fn split_state_persists_across_polls() {
        let mut cfg = MflowConfig::tcp_full_path();
        cfg.batch_size = 10;
        let mut p = MflowSteering::try_new(cfg).expect("valid mflow config");
        // Two polls of 6 packets: micro-flow 0 spans them.
        let a = run_split(&mut p, 6);
        assert_eq!(a.len(), 1);
        assert_eq!(a[0].0, 2);
        assert!(a[0].1.iter().all(|s| s.mf.unwrap().id == 0));
        assert!(!a[0].1.last().unwrap().mf.unwrap().last_in_batch);
        let batch: Vec<Skb> = (6..12).map(|i| skb(0, i)).collect();
        let b = p.dispatch(0, Stage::DriverPoll, Stage::SkbAlloc, 1, batch, LoadView::new(&no_load()));
        // Packets 6..10 close micro-flow 0 on lane 2; 10..12 start mf 1 on 3.
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].0, 2);
        assert_eq!(b[0].1.len(), 4);
        assert!(b[0].1.last().unwrap().mf.unwrap().last_in_batch);
        assert_eq!(b[1].0, 3);
        assert!(b[1].1.iter().all(|s| s.mf.unwrap().id == 1));
    }

    #[test]
    fn branch_tails_take_over_after_split_stage() {
        let mut p = MflowSteering::try_new(MflowConfig::tcp_full_path()).expect("valid mflow config");
        let mut s = skb(0, 0);
        s.mf = Some(MicroflowTag {
            id: 0,
            core: 3,
            last_in_batch: false,
        });
        let out = p.dispatch(0, Stage::SkbAlloc, Stage::Gro, 3, vec![s], LoadView::new(&no_load()));
        assert_eq!(out[0].0, 5); // lane 3 -> tail 5
    }

    #[test]
    fn tcp_rx_lands_on_the_merge_core() {
        let mut p = MflowSteering::try_new(MflowConfig::tcp_full_path()).expect("valid mflow config");
        let out = p.dispatch(0, Stage::InnerIp, Stage::TcpRx, 4, vec![skb(0, 0)], LoadView::new(&no_load()));
        assert_eq!(out[0].0, 0);
    }

    #[test]
    fn device_scaling_keeps_lane_through_the_device_chain() {
        let mut p = MflowSteering::try_new(MflowConfig::udp_device_scaling()).expect("valid mflow config");
        // Split happens into OuterIp.
        let batch: Vec<Skb> = (0..4).map(|i| skb(0, i)).collect();
        let out = p.dispatch(0, Stage::SkbAlloc, Stage::OuterIp, 1, batch, LoadView::new(&no_load()));
        assert!(out.iter().all(|(c, _)| *c == 2 || *c == 3));
        // After that, packets stay on their lane core.
        let keep = p.dispatch(0, Stage::VxlanDecap, Stage::Bridge, 2, vec![skb(0, 9)], LoadView::new(&no_load()));
        assert_eq!(keep[0].0, 2);
    }

    #[test]
    fn dispatch_cost_charged_only_at_split() {
        let p = MflowSteering::try_new(MflowConfig::tcp_full_path()).expect("valid mflow config");
        assert!(p.dispatch_cost_ns(Stage::DriverPoll, Stage::SkbAlloc, 64) > 0);
        assert_eq!(p.dispatch_cost_ns(Stage::Gro, Stage::OuterIp, 64), 0);
    }

    #[test]
    fn pressure_demotes_only_at_microflow_boundary() {
        use crate::elephant::ElephantConfig;
        let mut cfg = MflowConfig::tcp_full_path();
        cfg.batch_size = 4;
        cfg.elephant = ElephantConfig {
            lane_high_watermark_segs: 10,
            lane_low_watermark_segs: 2,
            overload_windows: 2,
            ..ElephantConfig::always()
        };
        let mut p = MflowSteering::try_new(cfg).expect("valid mflow config");
        // Saturated lanes: backlog far above the high watermark on the
        // split cores 2 and 3.
        let mut hot = no_load();
        hot[2] = 100;
        hot[3] = 100;
        // Six packets under pressure: overload flips on at the second
        // observation (mid-micro-flow), but the open micro-flow must be
        // completed — packets 0..4 stay tagged on lane 2, only 4..6 pass
        // through unsplit on the dispatch core.
        let batch: Vec<Skb> = (0..6).map(|i| skb(0, i)).collect();
        let out = p.dispatch(0, Stage::DriverPoll, Stage::SkbAlloc, 1, batch, LoadView::new(&hot));
        assert_eq!(out.len(), 2, "{out:?}");
        assert_eq!(out[0].0, 2);
        assert_eq!(out[0].1.len(), 4);
        assert!(out[0].1.last().unwrap().mf.unwrap().last_in_batch);
        assert_eq!(out[1].0, 1, "demoted packets continue on the current core");
        assert!(out[1].1.iter().all(|s| s.mf.is_none()));
        assert_eq!(p.desplit_stats().0, 1);

        // Pressure clears: after `overload_windows` low observations the
        // flow is re-promoted and micro-flow numbering resumes at 1.
        let batch: Vec<Skb> = (6..12).map(|i| skb(0, i)).collect();
        let out = p.dispatch(0, Stage::DriverPoll, Stage::SkbAlloc, 1, batch, LoadView::new(&no_load()));
        let tagged: Vec<&Skb> = out.iter().flat_map(|(_, v)| v).filter(|s| s.mf.is_some()).collect();
        assert!(!tagged.is_empty(), "flow re-promoted after pressure cleared");
        assert!(tagged.iter().all(|s| s.mf.unwrap().id >= 1));
        assert_eq!(p.desplit_stats(), (1, 1));
    }

    #[test]
    fn spread_flows_balance_roles_across_the_pool() {
        let cfg = MflowConfig::try_multi_flow(vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 2, 0).expect("valid multi-flow config");
        let mut p = MflowSteering::try_new(cfg).expect("valid mflow config");
        // Ten distinct flows, three roles each, over ten cores: every core
        // must end up with exactly three roles.
        let mut roles = std::collections::BTreeMap::new();
        for h in 0..10u32 {
            *roles.entry(p.irq_core(h)).or_insert(0) += 1;
            for l in p.flow_lanes(h) {
                *roles.entry(l).or_insert(0) += 1;
            }
        }
        assert_eq!(roles.len(), 10);
        assert!(roles.values().all(|&c| c == 3), "{roles:?}");
        // Assignment is sticky per flow.
        let lanes_a1 = p.flow_lanes(0);
        let lanes_a2 = p.flow_lanes(0);
        assert_eq!(lanes_a1, lanes_a2);
    }
}
