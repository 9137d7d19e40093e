//! The end-to-end simulation: clients, wire, NIC ring, softirq cores,
//! stages, sockets and user-copy threads, driven by `mflow-sim` events.
//!
//! One [`StackSim`] models the receiver host (and lightweight client
//! machines) for one scenario. Steering behaviour is injected through the
//! [`PacketSteering`] and [`FlowMerger`] traits, so the same stack runs
//! vanilla, RPS, FALCON and MFLOW unchanged — exactly the property the
//! paper claims for its in-kernel mechanisms.

use std::collections::{BTreeMap, VecDeque};

use mflow_error::MflowError;
use mflow_metrics::Telemetry;
use mflow_sim::time::wire_ns;
use mflow_sim::{CoreId, CoreSet, Ctx, Engine, Model, Rng, Time};

use crate::config::{LoadModel, StackConfig};
use crate::faults::FaultPlan;
use crate::policy::{FlowMerger, LoadView, PacketSteering};
use crate::report::RunReport;
use crate::ring::RxRing;
use crate::scr::StatefulMode;
use crate::skb::{FlowId, MsgEnd, Skb};
use crate::socket::{SockItem, Socket};
use crate::stage::{Stage, Transport};
use crate::tcp::{FlowState, TcpReceiver, TcpSender};

/// Simulation events.
#[derive(Debug)]
pub enum Event {
    /// A client tries to send its next message.
    ClientKick { client: usize },
    /// A frame finished arriving at the NIC.
    NicArrive { skb: Skb },
    /// A core's softirq loop looks for work.
    CorePoll { core: CoreId },
    /// A core finished executing a stage over a batch.
    StageDone {
        core: CoreId,
        stage: Stage,
        batch: Vec<Skb>,
    },
    /// The receiver's ACK reached the client.
    AckArrive { client: usize, bytes: u64 },
    /// A socket's application thread wakes to copy data.
    AppWake { sock: usize },
    /// The application finished copying a batch to user space.
    CopyDone { sock: usize, items: Vec<SockItem> },
    /// Background interference burst on a core.
    Interfere { core: CoreId },
    /// TCP retransmission-timer check for a closed-loop client.
    RtoCheck { client: usize, acked_snapshot: u64 },
}

struct ClientState {
    flow: FlowId,
    load: LoadModel,
    msg_bytes: u64,
    tx_cores: u32,
    next_msg_id: u64,
    sender: TcpSender,
    kick_pending: bool,
    next_send_at: Time,
    /// True while an `RtoCheck` event is outstanding.
    rto_armed: bool,
}

struct SimFlow {
    transport: Transport,
    sock: usize,
    hash: u32,
    client: usize,
    next_wire_seq: u64,
    sent_byte_seq: u64,
    rx: TcpReceiver,
    /// Bytes delivered in order at `TcpRx` but not yet ACKed to the client.
    unacked_delivered: u64,
    max_seen_merge: Option<u64>,
    max_seen_transport: Option<u64>,
    delivered_bytes: u64,
}

/// Counters accumulated during the run.
struct Stats {
    delivered_bytes: u64,
    messages: u64,
    latency: mflow_metrics::LatencyHistogram,
    stack_latency: mflow_metrics::LatencyHistogram,
    sock_wait: mflow_metrics::LatencyHistogram,
    ooo_merge_input: u64,
    ooo_transport: u64,
    ipis: u64,
    delivered_series: Option<mflow_metrics::WindowedRate>,
    merge_invocations: u64,
    sock_push_fail_tcp: u64,
}

/// Installed merge hook.
pub struct MergeSetup {
    /// Stage the merger guards (skbs are reordered before entering it).
    pub before: Stage,
    pub merger: Box<dyn FlowMerger>,
    /// How the stateful TCP stage runs relative to this merge point.
    /// Under [`StatefulMode::StateComputeReplication`] the merger is
    /// bypassed for the TCP path: lanes advance replicated flow state and
    /// the receive-side machine reconciles their delivery records.
    pub stateful: StatefulMode,
}

/// Per-lane replicated flow state and its counters (SCR mode only).
#[derive(Default)]
struct ScrState {
    /// (flow, lane core) → that lane's replica of the flow state.
    replicas: BTreeMap<(FlowId, CoreId), FlowState>,
    /// Delivery records emitted by lane replicas.
    records: u64,
    /// Transitions suppressed lane-locally as already replicated.
    lane_dups: u64,
}

/// The simulated host.
pub struct StackSim {
    cfg: StackConfig,
    policy: Box<dyn PacketSteering>,
    merge: Option<MergeSetup>,
    cores: CoreSet,
    client_cores: CoreSet,
    rings: Vec<Option<RxRing>>,
    backlogs: Vec<Vec<VecDeque<Skb>>>,
    /// Total wire segments queued per core (rings + stage backlogs), kept
    /// incrementally for the policies' [`LoadView`].
    backlog_segs: Vec<u64>,
    /// Deepest backlog observed per core.
    backlog_watermark: Vec<u64>,
    backlog_rr: Vec<usize>,
    core_scheduled: Vec<bool>,
    /// True when the pending poll is a coalesced (idle-delay) one that an
    /// over-threshold arrival may upgrade to fire immediately.
    poll_coalesced: Vec<bool>,
    clients: Vec<ClientState>,
    flows: Vec<SimFlow>,
    socks: Vec<Socket>,
    link_free_at: Time,
    rng: Rng,
    /// Active fault-injection plan (merge-point perturbation).
    faults: Option<FaultPlan>,
    scr: ScrState,
    stats: Stats,
}

impl Default for Stats {
    fn default() -> Self {
        Self {
            delivered_bytes: 0,
            messages: 0,
            latency: mflow_metrics::LatencyHistogram::new(),
            stack_latency: mflow_metrics::LatencyHistogram::new(),
            sock_wait: mflow_metrics::LatencyHistogram::new(),
            ooo_merge_input: 0,
            ooo_transport: 0,
            ipis: 0,
            delivered_series: Some(mflow_metrics::WindowedRate::new(1_000_000)),
            merge_invocations: 0,
            sock_push_fail_tcp: 0,
        }
    }
}

impl StackSim {
    /// Builds a simulation; `merge` installs MFLOW's reassembly hook.
    /// Panics on a malformed [`StackConfig`]; prefer
    /// [`StackSim::try_new`] in fallible contexts.
    pub fn new(
        cfg: StackConfig,
        policy: Box<dyn PacketSteering>,
        merge: Option<MergeSetup>,
    ) -> Self {
        Self::try_new(cfg, policy, merge).expect("invalid StackConfig")
    }

    /// Builds a simulation, rejecting configurations that violate
    /// [`StackConfig::validate`].
    pub fn try_new(
        cfg: StackConfig,
        policy: Box<dyn PacketSteering>,
        merge: Option<MergeSetup>,
    ) -> Result<Self, MflowError> {
        cfg.validate()?;
        let n_cores = cfg.n_cores();
        let mut rng = Rng::new(cfg.seed);
        let mut flows = Vec::with_capacity(cfg.flows.len());
        let mut clients = Vec::with_capacity(cfg.flows.len());
        for (i, f) in cfg.flows.iter().enumerate() {
            // Give every flow a realistic distinct 5-tuple for hashing.
            let key = mflow_net::FlowKey {
                src_ip: [172, 17, 0, 2 + (i / 200) as u8],
                dst_ip: [172, 17, 0, 1],
                src_port: 40_000 + (i % 20_000) as u16,
                dst_port: 5201,
                proto: match f.transport {
                    Transport::Tcp => mflow_net::flow::Proto::Tcp,
                    Transport::Udp => mflow_net::flow::Proto::Udp,
                },
            };
            flows.push(SimFlow {
                transport: f.transport,
                sock: f.sock,
                hash: key.rss_hash(),
                client: i,
                next_wire_seq: 0,
                sent_byte_seq: 0,
                rx: TcpReceiver::new(),
                unacked_delivered: 0,
                max_seen_merge: None,
                max_seen_transport: None,
                delivered_bytes: 0,
            });
            let window = match f.load {
                LoadModel::Closed { window_bytes } => window_bytes,
                _ => u64::MAX,
            };
            clients.push(ClientState {
                flow: i,
                load: f.load,
                msg_bytes: f.msg_bytes,
                tx_cores: f.tx_cores,
                next_msg_id: 0,
                sender: TcpSender::new(window),
                kick_pending: false,
                next_send_at: 0,
                rto_armed: false,
            });
        }
        let socks = (0..cfg.n_socks)
            .map(|i| {
                Socket::new(
                    cfg.app_cores[i % cfg.app_cores.len()],
                    cfg.sock_capacity_bytes,
                )
            })
            .collect();
        let mut rings: Vec<Option<RxRing>> = (0..n_cores).map(|_| None).collect();
        for c in &cfg.kernel_cores {
            rings[*c] = Some(RxRing::new(cfg.ring_capacity));
        }
        let _ = rng.next_u64();
        let faults = cfg
            .faults
            .clone()
            .filter(|f| f.is_active())
            .map(FaultPlan::new);
        let mut cores = CoreSet::new(n_cores);
        if cfg.trace {
            cores.enable_trace();
        }
        Ok(Self {
            cores,
            client_cores: CoreSet::new(cfg.flows.len()),
            backlogs: (0..n_cores)
                .map(|_| (0..Stage::COUNT).map(|_| VecDeque::new()).collect())
                .collect(),
            backlog_segs: vec![0; n_cores],
            backlog_watermark: vec![0; n_cores],
            backlog_rr: vec![0; n_cores],
            core_scheduled: vec![false; n_cores],
            poll_coalesced: vec![false; n_cores],
            clients,
            flows,
            socks,
            link_free_at: 0,
            rng,
            faults,
            scr: ScrState::default(),
            cfg,
            policy,
            merge,
            rings,
            stats: Stats::default(),
        })
    }

    /// Builds, seeds initial events and runs to completion; a malformed
    /// configuration is reported as [`MflowError::InvalidConfig`].
    pub fn try_run(
        cfg: StackConfig,
        policy: Box<dyn PacketSteering>,
        merge: Option<MergeSetup>,
    ) -> Result<RunReport, MflowError> {
        let duration = cfg.duration_ns;
        let mut engine = Engine::new();
        let mut sim = StackSim::try_new(cfg, policy, merge)?;
        for c in 0..sim.clients.len() {
            sim.clients[c].kick_pending = true;
            engine.schedule_at(0, Event::ClientKick { client: c });
        }
        if sim.cfg.noise.enabled {
            let cores: Vec<CoreId> = sim
                .cfg
                .kernel_cores
                .iter()
                .chain(sim.cfg.app_cores.iter())
                .copied()
                .collect();
            for core in cores {
                let at = sim.rng.exp(sim.cfg.noise.period_ns as f64) as u64;
                engine.schedule_at(at, Event::Interfere { core });
            }
        }
        engine.run_until(&mut sim, duration);
        let events = engine.events_processed();
        Ok(sim.into_report(duration, events))
    }

    fn in_window(&self, now: Time) -> bool {
        now >= self.cfg.warmup_ns
    }

    fn kick_core(&mut self, ctx: &mut Ctx<Event>, core: CoreId, delay: Time) {
        self.kick_core_coalesced(ctx, core, delay, false);
    }

    fn kick_core_coalesced(&mut self, ctx: &mut Ctx<Event>, core: CoreId, delay: Time, coalesced: bool) {
        if !self.core_scheduled[core] {
            self.core_scheduled[core] = true;
            self.poll_coalesced[core] = coalesced;
            ctx.schedule(delay, Event::CorePoll { core });
        } else if self.poll_coalesced[core] && delay == 0 {
            // Upgrade a coalesced (idle-delay) poll to fire now. The stale
            // delayed event is harmless: CorePoll with no work returns.
            self.poll_coalesced[core] = false;
            ctx.schedule(0, Event::CorePoll { core });
        }
    }

    /// True when the TCP merge point runs under state-compute replication.
    fn scr_active(&self) -> bool {
        self.merge.as_ref().is_some_and(|m| {
            m.stateful == StatefulMode::StateComputeReplication && m.before == Stage::TcpRx
        })
    }

    fn has_work(&self, core: CoreId) -> bool {
        if let Some(ring) = &self.rings[core] {
            if !ring.is_empty() {
                return true;
            }
        }
        self.backlogs[core].iter().any(|q| !q.is_empty())
    }

    // ---- client side -----------------------------------------------------

    fn client_kick(&mut self, ctx: &mut Ctx<Event>, client: usize) {
        self.clients[client].kick_pending = false;
        let now = ctx.now();
        let (msg_bytes, load) = {
            let c = &self.clients[client];
            (c.msg_bytes, c.load)
        };
        match load {
            LoadModel::Closed { .. } => {
                // Send whenever the window is not yet full (a message may
                // overshoot it slightly) — required for slow start, whose
                // initial congestion window is smaller than one large
                // message.
                if self.clients[client].sender.available_window() == 0 {
                    return; // the next ACK re-kicks us
                }
            }
            LoadModel::Paced { .. } => {
                let at = self.clients[client].next_send_at;
                if now < at {
                    self.clients[client].kick_pending = true;
                    ctx.schedule_at(at, Event::ClientKick { client });
                    return;
                }
            }
            LoadModel::Saturate => {}
        }
        let flow_id = self.clients[client].flow;
        let transport = self.flows[flow_id].transport;
        let msg_id = self.clients[client].next_msg_id;
        // After a retransmission timeout the generator resumes mid-message
        // at a segment boundary; normally this is a whole message.
        let msg_end_offset = (msg_id + 1) * msg_bytes;
        let payload_total = msg_end_offset - self.flows[flow_id].sent_byte_seq;
        let segs = payload_total.div_ceil(self.cfg.mtu_payload as u64).max(1);
        let tx_cores = self.clients[client].tx_cores;
        let cost = self
            .cfg
            .cost
            .sendmsg_cost_parallel_ns(transport, segs, payload_total, tx_cores);
        let (_, send_end) = self
            .client_cores
            .execute(client, now, cost, "sendmsg");
        let header = self.cfg.header_bytes(transport) as u64;
        self.clients[client].next_msg_id += 1;

        let mut t = self.link_free_at.max(send_end);
        let mut remaining = payload_total;
        for k in 0..segs {
            let payload = remaining.min(self.cfg.mtu_payload as u64).max(1);
            remaining = remaining.saturating_sub(payload);
            // 24 bytes of preamble + FCS + inter-frame gap per frame.
            t += wire_ns(payload + header + 24, self.cfg.cost.link_gbps);
            self.link_free_at = t;
            let arrival = t + self.cfg.cost.prop_delay_ns;
            let f = &mut self.flows[flow_id];
            let mut skb = Skb::new(
                f.next_wire_seq,
                flow_id,
                (payload + header) as u32,
                payload as u32,
                f.sent_byte_seq,
                arrival,
            );
            skb.hash = f.hash;
            f.next_wire_seq += 1;
            f.sent_byte_seq += payload;
            if k + 1 == segs {
                skb.msg_ends.push(MsgEnd {
                    msg_id,
                    send_ns: now,
                    msg_bytes,
                    msg_segs: segs as u32,
                });
            }
            ctx.schedule_at(arrival, Event::NicArrive { skb });
        }
        if let LoadModel::Closed { .. } = load {
            self.clients[client].sender.on_send(payload_total);
            if !self.clients[client].rto_armed {
                self.clients[client].rto_armed = true;
                let snapshot = self.clients[client].sender.acked_bytes;
                ctx.schedule(
                    self.cfg.tcp_rto_ns,
                    Event::RtoCheck {
                        client,
                        acked_snapshot: snapshot,
                    },
                );
            }
        }
        if let LoadModel::Paced { interval_ns } = load {
            // Real traffic generators never tick perfectly: +-10 % pacing
            // jitter keeps independently paced flows from phase-locking.
            let jittered = (interval_ns as f64
                * (0.9 + 0.2 * self.rng.f64()))
                .round() as u64;
            self.clients[client].next_send_at = self.clients[client]
                .next_send_at
                .max(now)
                .saturating_add(jittered.max(1));
        }
        // Schedule the next attempt.
        let next_at = match load {
            LoadModel::Closed { .. } => {
                if self.clients[client].sender.available_window() > 0 {
                    Some(send_end)
                } else {
                    None
                }
            }
            LoadModel::Paced { .. } => Some(send_end.max(self.clients[client].next_send_at)),
            LoadModel::Saturate => Some(send_end),
        };
        if let Some(at) = next_at {
            self.clients[client].kick_pending = true;
            ctx.schedule_at(at, Event::ClientKick { client });
        }
    }

    fn rto_check(&mut self, ctx: &mut Ctx<Event>, client: usize, acked_snapshot: u64) {
        let c = &mut self.clients[client];
        if c.sender.inflight == 0 {
            c.rto_armed = false;
            return;
        }
        if c.sender.acked_bytes == acked_snapshot {
            // No progress for a full RTO: collapse and resend from the
            // cumulative ACK (timeout recovery; the simulator models no
            // fast retransmit — holes only come from ring overruns).
            c.sender.on_timeout();
            let resume = c.sender.acked_bytes;
            c.next_msg_id = resume / c.msg_bytes;
            let flow = c.flow;
            self.flows[flow].sent_byte_seq = resume;
            if !self.clients[client].kick_pending {
                self.clients[client].kick_pending = true;
                ctx.schedule(0, Event::ClientKick { client });
            }
        }
        let snapshot = self.clients[client].sender.acked_bytes;
        ctx.schedule(
            self.cfg.tcp_rto_ns,
            Event::RtoCheck {
                client,
                acked_snapshot: snapshot,
            },
        );
    }

    fn ack_arrive(&mut self, ctx: &mut Ctx<Event>, client: usize, bytes: u64) {
        let now = ctx.now();
        self.client_cores
            .execute(client, now, self.cfg.cost.client_ack_rx as u64, "ack_rx");
        self.clients[client].sender.on_ack(bytes);
        if !self.clients[client].kick_pending {
            self.clients[client].kick_pending = true;
            ctx.schedule(0, Event::ClientKick { client });
        }
    }

    // ---- NIC / softirq side ----------------------------------------------

    fn nic_arrive(&mut self, ctx: &mut Ctx<Event>, skb: Skb) {
        let irq = self.policy.irq_core(skb.hash);
        let ring = self.rings[irq]
            .as_mut()
            .expect("policy steered to a core without a ring");
        let (accepted, depth) = {
            let accepted = ring.push(skb);
            (accepted, ring.len())
        };
        if accepted {
            self.backlog_segs[irq] += 1;
            self.backlog_watermark[irq] = self.backlog_watermark[irq].max(self.backlog_segs[irq]);
            // Interrupt coalescing: let shallow rings batch up so the poll
            // sees runs GRO can merge; deep rings (or busy cores, which
            // poll anyway) fire immediately.
            let busy = !self.cores.is_idle(irq, ctx.now());
            let deep = depth >= self.cfg.cost.irq_kick_threshold;
            if busy || deep {
                self.kick_core_coalesced(ctx, irq, 0, false);
            } else {
                let d = self.cfg.cost.irq_coalesce_ns;
                self.kick_core_coalesced(ctx, irq, d, true);
            }
        }
    }

    fn jitter_factor(&mut self) -> f64 {
        if self.cfg.noise.enabled && self.cfg.noise.cost_cv > 0.0 {
            self.rng.normal(1.0, self.cfg.noise.cost_cv).max(0.5)
        } else {
            1.0
        }
    }

    fn core_poll(&mut self, ctx: &mut Ctx<Event>, core: CoreId) {
        self.core_scheduled[core] = false;
        self.poll_coalesced[core] = false;
        let now = ctx.now();
        if !self.cores.is_idle(core, now) {
            let at = self.cores.free_at(core);
            self.kick_core(ctx, core, at - now);
            return;
        }
        // Round-robin over this core's NAPI instances (ring first when its
        // turn comes; index i means: i == DriverPoll slot reads the ring).
        let budget = self.cfg.cost.napi_budget;
        let start = self.backlog_rr[core];
        let mut chosen: Option<(Stage, Vec<Skb>)> = None;
        for off in 0..Stage::COUNT {
            let idx = (start + off) % Stage::COUNT;
            let stage = crate::stage::ALL_STAGES[idx];
            if stage == Stage::DriverPoll {
                if let Some(ring) = &mut self.rings[core] {
                    if !ring.is_empty() {
                        let batch = ring.poll(budget as usize);
                        self.backlog_segs[core] -=
                            batch.iter().map(|s| s.segs as u64).sum::<u64>();
                        self.backlog_rr[core] = (idx + 1) % Stage::COUNT;
                        chosen = Some((stage, batch));
                        break;
                    }
                }
                continue;
            }
            if !self.backlogs[core][idx].is_empty() {
                let mut batch = Vec::new();
                let mut segs = 0u64;
                while let Some(front) = self.backlogs[core][idx].front() {
                    if !batch.is_empty() && segs + front.segs as u64 > budget {
                        break;
                    }
                    let skb = self.backlogs[core][idx].pop_front().unwrap();
                    segs += skb.segs as u64;
                    batch.push(skb);
                }
                self.backlog_segs[core] -= segs;
                self.backlog_rr[core] = (idx + 1) % Stage::COUNT;
                chosen = Some((stage, batch));
                break;
            }
        }
        let Some((stage, batch)) = chosen else {
            return; // idle
        };
        let skbs = batch.len() as u64;
        let segs: u64 = batch.iter().map(|s| s.segs as u64).sum();
        let bytes: u64 = batch.iter().map(|s| s.payload_bytes as u64).sum();
        let migrated = batch
            .iter()
            .any(|s| s.last_core.is_some() && s.last_core != Some(core));
        let base = if stage == Stage::TcpRx && self.scr_active() {
            // Reconcile-only: the stateful work was already replicated on
            // the lane cores at the merge seam; what remains here is the
            // cheap watermark/dedup pass over the delivery records.
            (self.cfg.cost.scr_reconcile_per_skb * skbs as f64).round() as u64
        } else {
            self.cfg
                .cost
                .stage_cost_ns(stage, self.cfg.path, skbs, segs, bytes, migrated)
        };
        let cost = (base as f64 * self.jitter_factor()).round() as u64;
        let (_, end) = self.cores.execute(core, now, cost, stage.tag());
        self.core_scheduled[core] = true;
        ctx.schedule_at(end, Event::StageDone { core, stage, batch });
    }

    fn stage_done(&mut self, ctx: &mut Ctx<Event>, core: CoreId, stage: Stage, batch: Vec<Skb>) {
        let now = ctx.now();
        let batch = match stage {
            Stage::Gro => crate::gro::gro_merge(
                batch,
                self.cfg.cost.gro_max_segs,
                self.cfg.cost.gro_max_bytes,
            ),
            Stage::VxlanDecap => batch
                .into_iter()
                .map(|mut s| {
                    // Outer eth + ip + udp + vxlan stripped.
                    s.wire_bytes = s.wire_bytes.saturating_sub(50 * s.segs);
                    s
                })
                .collect(),
            Stage::TcpRx => {
                self.tcp_rx_done(ctx, core, batch);
                self.finish_core(ctx, core);
                return;
            }
            Stage::UdpRx => {
                self.udp_rx_done(ctx, core, batch);
                self.finish_core(ctx, core);
                return;
            }
            _ => batch,
        };
        // Group by next stage (flows of different transports can share a
        // backlog in multi-flow runs).
        let mut groups: Vec<(Stage, Vec<Skb>)> = Vec::with_capacity(1);
        for skb in batch {
            let transport = self.flows[skb.flow].transport;
            let next = stage
                .next(self.cfg.path, transport)
                .expect("terminal stages handled above");
            match groups.last_mut() {
                Some((s, v)) if *s == next => v.push(skb),
                _ => groups.push((next, vec![skb])),
            }
        }
        for (next, group) in groups {
            let segs: u64 = group.iter().map(|s| s.segs as u64).sum();
            let dcost = self.policy.dispatch_cost_ns(stage, next, segs);
            if dcost > 0 {
                self.cores
                    .execute(core, now, dcost, self.policy.dispatch_tag());
            }
            let loads = LoadView::new(&self.backlog_segs);
            let assignments = self.policy.dispatch(now, stage, next, core, group, loads);
            for (target, mut sub) in assignments {
                let mut replicate_here = false;
                if let Some(setup) = &mut self.merge {
                    if setup.before == next {
                        if let Some(plan) = &mut self.faults {
                            sub = plan.apply(sub);
                        }
                        // Out-of-order accounting at the merge input.
                        for skb in &sub {
                            let f = &mut self.flows[skb.flow];
                            if let Some(max) = f.max_seen_merge {
                                if skb.wire_seq < max {
                                    self.stats.ooo_merge_input += 1;
                                }
                            }
                            f.max_seen_merge = Some(
                                f.max_seen_merge
                                    .map_or(skb.wire_seq, |m| m.max(skb.wire_seq)),
                            );
                        }
                        if setup.stateful == StatefulMode::StateComputeReplication
                            && next == Stage::TcpRx
                        {
                            replicate_here = true;
                        } else {
                            let offered = sub.len() as u64;
                            sub = setup.merger.offer(sub);
                            let released = sub.len() as u64;
                            self.stats.merge_invocations += 1;
                            let mcost = setup.merger.merge_cost_ns(offered, released);
                            if mcost > 0 {
                                self.cores.execute(target, now, mcost, "mflow.merge");
                            }
                        }
                    }
                }
                if replicate_here {
                    // SCR: instead of buffering for wire order, this lane
                    // advances its replica of each flow's state and pays
                    // the stateful stage cost here, in parallel with the
                    // other lanes; only first-sighting records travel on
                    // to the reconciler at `target`.
                    let (skbs, segs, bytes) = sub.iter().fold((0u64, 0u64, 0u64), |a, s| {
                        (a.0 + 1, a.1 + s.segs as u64, a.2 + s.payload_bytes as u64)
                    });
                    let mut records = Vec::with_capacity(sub.len());
                    for skb in sub {
                        let rep = self.scr.replicas.entry((skb.flow, core)).or_default();
                        match rep.advance_replicated(skb) {
                            Some(r) => {
                                self.scr.records += 1;
                                records.push(r);
                            }
                            None => self.scr.lane_dups += 1,
                        }
                    }
                    let rcost = self
                        .cfg
                        .cost
                        .stage_cost_ns(Stage::TcpRx, self.cfg.path, skbs, segs, bytes, false);
                    if rcost > 0 {
                        self.cores.execute(core, now, rcost, "scr.replicate");
                    }
                    self.stats.merge_invocations += 1;
                    sub = records;
                }
                if sub.is_empty() {
                    continue;
                }
                for skb in &mut sub {
                    skb.last_core = Some(core);
                }
                self.backlog_segs[target] += sub.iter().map(|s| s.segs as u64).sum::<u64>();
                self.backlog_watermark[target] =
                    self.backlog_watermark[target].max(self.backlog_segs[target]);
                self.backlogs[target][next.index()].extend(sub);
                if target != core {
                    self.stats.ipis += 1;
                    self.cores
                        .execute(core, now, self.cfg.cost.ipi_send as u64, "ipi");
                    let latency = self.cfg.cost.ipi_latency as u64;
                    self.kick_core(ctx, target, latency);
                } else {
                    // Same-core continuation; the finish_core below re-kicks.
                }
            }
        }
        self.finish_core(ctx, core);
    }

    fn finish_core(&mut self, ctx: &mut Ctx<Event>, core: CoreId) {
        self.core_scheduled[core] = false;
        if self.has_work(core) {
            self.kick_core(ctx, core, 0);
        }
    }

    // ---- transport + application -----------------------------------------

    fn note_transport_order(&mut self, flow: FlowId, wire_seq: u64) {
        let f = &mut self.flows[flow];
        if let Some(max) = f.max_seen_transport {
            if wire_seq < max {
                self.stats.ooo_transport += 1;
            }
        }
        f.max_seen_transport = Some(f.max_seen_transport.map_or(wire_seq, |m| m.max(wire_seq)));
    }

    fn deliver_to_socket(&mut self, ctx: &mut Ctx<Event>, sock_idx: usize, item: SockItem) -> bool {
        let accepted = self.socks[sock_idx].push(item);
        if accepted && !self.socks[sock_idx].app_busy {
            self.socks[sock_idx].app_busy = true;
            let wake = self.cfg.cost.app_wake_ns;
            ctx.schedule(wake, Event::AppWake { sock: sock_idx });
        }
        accepted
    }

    fn tcp_rx_done(&mut self, ctx: &mut Ctx<Event>, core: CoreId, batch: Vec<Skb>) {
        let now = ctx.now();
        let scr = self.scr_active();
        for skb in batch {
            let flow_id = skb.flow;
            self.note_transport_order(flow_id, skb.wire_seq);
            let (deliverable, was_ooo) = self.flows[flow_id].rx.receive(skb);
            if was_ooo && !scr {
                // Under SCR the receive machine is the reconciler: parking
                // a record is its normal operation, already covered by the
                // per-record reconcile cost, not the kernel's expensive
                // ooo-queue insert.
                let c = self.cfg.cost.tcp_ooo_insert as u64;
                self.cores.execute(core, now, c, "tcp_rx.ooo");
            }
            for d in deliverable {
                let sock_idx = self.flows[flow_id].sock;
                let item = SockItem {
                    flow: flow_id,
                    payload_bytes: d.payload_bytes as u64,
                    segs: d.segs,
                    msg_ends: d.msg_ends,
                    enq_ns: now,
                };
                if !self.deliver_to_socket(ctx, sock_idx, item) {
                    // TCP data must never be dropped at the socket: the
                    // window bounds it below the buffer. Record loudly.
                    self.stats.sock_push_fail_tcp += 1;
                }
            }
        }
    }

    fn udp_rx_done(&mut self, ctx: &mut Ctx<Event>, _core: CoreId, mut batch: Vec<Skb>) {
        let now = ctx.now();
        // Late merge (device scaling): reorder before delivery to the app.
        if let Some(setup) = &mut self.merge {
            if setup.before == Stage::UserCopy {
                if let Some(plan) = &mut self.faults {
                    batch = plan.apply(batch);
                }
                for skb in &batch {
                    let f = &mut self.flows[skb.flow];
                    if let Some(max) = f.max_seen_merge {
                        if skb.wire_seq < max {
                            self.stats.ooo_merge_input += 1;
                        }
                    }
                    f.max_seen_merge =
                        Some(f.max_seen_merge.map_or(skb.wire_seq, |m| m.max(skb.wire_seq)));
                }
                let offered = batch.len() as u64;
                batch = setup.merger.offer(batch);
                let released = batch.len() as u64;
                self.stats.merge_invocations += 1;
                let mcost = setup.merger.merge_cost_ns(offered, released);
                if mcost > 0 {
                    // Charged to the consuming app core, as in udp_recvmsg.
                    let app = self.socks[0].app_core;
                    self.cores.execute(app, now, mcost, "mflow.merge");
                }
            }
        }
        for skb in batch {
            let flow_id = skb.flow;
            self.note_transport_order(flow_id, skb.wire_seq);
            let sock_idx = self.flows[flow_id].sock;
            let item = SockItem {
                flow: flow_id,
                payload_bytes: skb.payload_bytes as u64,
                segs: skb.segs,
                msg_ends: skb.msg_ends,
                enq_ns: now,
            };
            self.deliver_to_socket(ctx, sock_idx, item);
        }
    }

    fn app_wake(&mut self, ctx: &mut Ctx<Event>, sock: usize) {
        let now = ctx.now();
        let items = self.socks[sock].pop_batch(256 * 1024);
        if items.is_empty() {
            self.socks[sock].app_busy = false;
            return;
        }
        let skbs = items.len() as u64;
        let segs: u64 = items.iter().map(|i| i.segs as u64).sum();
        let bytes: u64 = items.iter().map(|i| i.payload_bytes).sum();
        let cost = self.cfg.cost.stage_cost_ns(
            Stage::UserCopy,
            self.cfg.path,
            skbs,
            segs,
            bytes,
            false,
        );
        let app_core = self.socks[sock].app_core;
        let (_, end) = self.cores.execute(app_core, now, cost, "user_copy");
        ctx.schedule_at(end, Event::CopyDone { sock, items });
    }

    fn copy_done(&mut self, ctx: &mut Ctx<Event>, sock: usize, items: Vec<SockItem>) {
        let now = ctx.now();
        let in_window = self.in_window(now);
        let app_core = self.socks[sock].app_core;
        // Per-flow ACK accumulation (TCP): ACK once per copy completion.
        for item in &items {
            let f = &mut self.flows[item.flow];
            f.delivered_bytes += item.payload_bytes;
            if let Some(series) = &mut self.stats.delivered_series {
                series.record(now, item.payload_bytes);
            }
            if in_window {
                self.stats.delivered_bytes += item.payload_bytes;
            }
            for end in &item.msg_ends {
                if in_window {
                    self.stats.messages += 1;
                    self.stats.latency.record(now.saturating_sub(end.send_ns));
                    self.stats
                        .stack_latency
                        .record(item.enq_ns.saturating_sub(end.send_ns));
                    self.stats.sock_wait.record(now.saturating_sub(item.enq_ns));
                }
            }
            if f.transport == Transport::Tcp {
                f.unacked_delivered += item.payload_bytes;
            }
        }
        // Send ACKs back (one per flow present in the batch).
        let mut acked: Vec<(usize, u64)> = Vec::new();
        for item in &items {
            let f = &mut self.flows[item.flow];
            if f.transport == Transport::Tcp && f.unacked_delivered > 0 {
                acked.push((f.client, f.unacked_delivered));
                f.unacked_delivered = 0;
            }
        }
        for (client, bytes) in acked {
            self.cores
                .execute(app_core, now, self.cfg.cost.tcp_ack_tx as u64, "tcp_ack");
            ctx.schedule(
                self.cfg.cost.prop_delay_ns,
                Event::AckArrive { client, bytes },
            );
        }
        if self.socks[sock].is_empty() {
            self.socks[sock].app_busy = false;
        } else {
            ctx.schedule(0, Event::AppWake { sock });
        }
    }

    fn interfere(&mut self, ctx: &mut Ctx<Event>, core: CoreId) {
        let now = ctx.now();
        let burst = self.rng.exp(self.cfg.noise.burst_ns as f64) as u64;
        self.cores.preempt(core, now, burst, "interference");
        let next = self.rng.exp(self.cfg.noise.period_ns as f64) as u64;
        ctx.schedule(burst + next.max(1), Event::Interfere { core });
        // The preemption may have pushed queued work; make sure the core
        // re-polls afterwards.
        if self.has_work(core) {
            self.kick_core(ctx, core, burst);
        }
    }

    /// Finalizes the run into a report.
    pub fn into_report(mut self, duration_ns: u64, events: u64) -> RunReport {
        let measured_ns = duration_ns.saturating_sub(self.cfg.warmup_ns).max(1);
        let ring_drops: u64 = self.rings.iter().flatten().map(|r| r.drops()).sum();
        let sock_drops: u64 = self.socks.iter().map(|s| s.drops()).sum();
        let tcp_ooo_inserts: u64 = self.flows.iter().map(|f| f.rx.ooo_inserts()).sum();
        let tcp_retransmits: u64 = self.clients.iter().map(|c| c.sender.retransmits).sum();
        let tcp_inversions: u64 = self.flows.iter().map(|f| f.rx.inversions()).sum();
        let fault_counts = self
            .faults
            .as_mut()
            .map(|p| {
                p.finish();
                p.counts()
            })
            .unwrap_or_default();
        let (merge_residue, merge_flushed, merge_late_drops, merge_dup_drops) = self
            .merge
            .as_mut()
            .map(|m| {
                let residue = m.merger.buffered();
                let _ = m.merger.drain();
                (
                    residue,
                    m.merger.flushed(),
                    m.merger.late_drops(),
                    m.merger.dup_drops(),
                )
            })
            .unwrap_or((0, 0, 0, 0));
        let (desplits, resplits) = self.policy.desplit_stats();
        let scr = self.scr_active();
        let stateful_mode = self
            .merge
            .as_ref()
            .map_or(StatefulMode::MergeBeforeTcp, |m| m.stateful);
        // Under SCR the receive machine doubles as the reconciler, so its
        // duplicate drops are reconciliation events, not wire anomalies.
        let scr_rx_dups: u64 = if scr {
            self.flows.iter().map(|f| f.rx.dups()).sum()
        } else {
            0
        };
        // The shared counter block every engine reports. The simulator
        // has no shedding, inline fallback or redispatch (those are
        // real-thread overload mechanisms), so those stay zero;
        // `lane_depths` carries the deepest per-core backlog watermark.
        let telemetry = Telemetry {
            policy: self.policy.name().to_string(),
            delivered: self.stats.messages,
            ooo: self.stats.ooo_merge_input,
            flushed: merge_flushed,
            late: merge_late_drops,
            dup: merge_dup_drops,
            shed: 0,
            inline: 0,
            desplits,
            resplits,
            redispatched: 0,
            fault_drops: fault_counts.drops,
            residue: merge_residue as u64,
            // The simulator has no thread supervision; the counters exist
            // only in the runtime engine.
            restarts: 0,
            heartbeat_misses: 0,
            recovery_ns: 0,
            merger_restarts: 0,
            merger_recovery_ns: 0,
            snapshot_bytes: 0,
            restore_replayed_offers: 0,
            stateful_mode: stateful_mode.name().to_string(),
            replicated_transitions: self.scr.records,
            reconciled_dups: self.scr.lane_dups + scr_rx_dups,
            // Packet memory is modelled, not pooled.
            pool_recycled: 0,
            pool_misses: 0,
            lane_depths: self.backlog_watermark.clone(),
        };
        RunReport {
            telemetry,
            duration_ns,
            measured_ns,
            delivered_bytes: self.stats.delivered_bytes,
            goodput_gbps: self.stats.delivered_bytes as f64 * 8.0 / measured_ns as f64,
            msgs_per_sec: self.stats.messages as f64 * 1e9 / measured_ns as f64,
            latency: self.stats.latency,
            stack_latency: self.stats.stack_latency,
            sock_wait: self.stats.sock_wait,
            cpu: self.cores.cpu().clone(),
            client_cpu: self.client_cores.cpu().clone(),
            ring_drops,
            sock_drops,
            sock_push_fail_tcp: self.stats.sock_push_fail_tcp,
            ooo_transport: self.stats.ooo_transport,
            tcp_ooo_inserts,
            tcp_retransmits,
            tcp_inversions,
            ipis: self.stats.ipis,
            merge_invocations: self.stats.merge_invocations,
            fault_dups: fault_counts.dups,
            fault_delays: fault_counts.delays,
            delivered_series: self.stats.delivered_series.take().expect("series present"),
            trace: self.cores.trace().cloned(),
            per_flow_delivered: self.flows.iter().map(|f| f.delivered_bytes).collect(),
            events,
        }
    }
}

impl Model for StackSim {
    type Event = Event;

    fn handle(&mut self, ev: Event, ctx: &mut Ctx<Event>) {
        match ev {
            Event::ClientKick { client } => self.client_kick(ctx, client),
            Event::NicArrive { skb } => self.nic_arrive(ctx, skb),
            Event::CorePoll { core } => self.core_poll(ctx, core),
            Event::StageDone { core, stage, batch } => self.stage_done(ctx, core, stage, batch),
            Event::AckArrive { client, bytes } => self.ack_arrive(ctx, client, bytes),
            Event::AppWake { sock } => self.app_wake(ctx, sock),
            Event::CopyDone { sock, items } => self.copy_done(ctx, sock, items),
            Event::Interfere { core } => self.interfere(ctx, core),
            Event::RtoCheck {
                client,
                acked_snapshot,
            } => self.rto_check(ctx, client, acked_snapshot),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FlowSpec, NoiseConfig, StackConfig};
    use crate::cost::CostModel;
    use crate::policy::StayLocal;
    use crate::stage::PathKind;
    use mflow_sim::MS;

    fn quiet(mut cfg: StackConfig) -> StackConfig {
        cfg.noise = NoiseConfig::off();
        cfg.duration_ns = 20 * MS;
        cfg.warmup_ns = 5 * MS;
        cfg
    }

    #[test]
    fn vanilla_overlay_tcp_delivers_in_order_with_no_loss() {
        let cfg = quiet(StackConfig::single_flow(
            PathKind::Overlay,
            FlowSpec::tcp(65536, 0),
        ));
        let irq = cfg.kernel_cores[0];
        let report = StackSim::try_run(cfg, Box::new(StayLocal::new(irq)), None).expect("valid stack config");
        assert!(report.goodput_gbps > 1.0, "no useful throughput: {report:?}");
        assert_eq!(report.ring_drops, 0);
        assert_eq!(report.sock_push_fail_tcp, 0);
        assert_eq!(report.tcp_ooo_inserts, 0, "single core must stay in order");
        assert!(report.telemetry.delivered > 100);
    }

    #[test]
    fn vanilla_native_tcp_beats_vanilla_overlay() {
        let overlay = quiet(StackConfig::single_flow(
            PathKind::Overlay,
            FlowSpec::tcp(65536, 0),
        ));
        let native = quiet(StackConfig::single_flow(
            PathKind::Native,
            FlowSpec::tcp(65536, 0),
        ));
        let irq = overlay.kernel_cores[0];
        let r_overlay = StackSim::try_run(overlay, Box::new(StayLocal::new(irq)), None).expect("valid stack config");
        let r_native = StackSim::try_run(native, Box::new(StayLocal::new(irq)), None).expect("valid stack config");
        assert!(
            r_native.goodput_gbps > r_overlay.goodput_gbps * 1.2,
            "native {:.1} vs overlay {:.1}",
            r_native.goodput_gbps,
            r_overlay.goodput_gbps
        );
    }

    #[test]
    fn udp_overlay_is_far_below_native() {
        let mk = |path| {
            let mut cfg = quiet(StackConfig::single_flow(path, FlowSpec::udp(65536, 0)));
            // Three clients as in the paper.
            cfg.flows = vec![
                FlowSpec::udp(65536, 0),
                FlowSpec::udp(65536, 0),
                FlowSpec::udp(65536, 0),
            ];
            cfg
        };
        let irq = 1;
        let r_native = StackSim::try_run(mk(PathKind::Native), Box::new(StayLocal::new(irq)), None).expect("valid stack config");
        let r_overlay = StackSim::try_run(mk(PathKind::Overlay), Box::new(StayLocal::new(irq)), None).expect("valid stack config");
        let ratio = r_overlay.goodput_gbps / r_native.goodput_gbps;
        assert!(
            ratio < 0.45,
            "overlay UDP should collapse: ratio {ratio:.2} (native {:.1}, overlay {:.1})",
            r_native.goodput_gbps,
            r_overlay.goodput_gbps
        );
    }

    #[test]
    fn message_latency_is_recorded() {
        let mut cfg = quiet(StackConfig::single_flow(
            PathKind::Overlay,
            FlowSpec::tcp(4096, 0),
        ));
        cfg.flows[0].load = LoadModel::Paced { interval_ns: 50_000 };
        let report = StackSim::try_run(cfg, Box::new(StayLocal::new(1)), None).expect("valid stack config");
        assert!(report.latency.count() > 50);
        assert!(report.latency.median() > 1_000, "sub-microsecond latency is implausible");
        assert!(report.latency.p99() >= report.latency.median());
    }

    #[test]
    fn run_is_deterministic() {
        let mk = || {
            quiet(StackConfig::single_flow(
                PathKind::Overlay,
                FlowSpec::tcp(65536, 0),
            ))
        };
        let a = StackSim::try_run(mk(), Box::new(StayLocal::new(1)), None).expect("valid stack config");
        let b = StackSim::try_run(mk(), Box::new(StayLocal::new(1)), None).expect("valid stack config");
        assert_eq!(a.delivered_bytes, b.delivered_bytes);
        assert_eq!(a.telemetry.delivered, b.telemetry.delivered);
        assert_eq!(a.events, b.events);
        assert_eq!(a.latency.median(), b.latency.median());
    }

    #[test]
    fn saturating_udp_sheds_at_the_ring_without_stalling() {
        let mut cfg = quiet(StackConfig::single_flow(
            PathKind::Overlay,
            FlowSpec::udp(65536, 0),
        ));
        cfg.flows = vec![
            FlowSpec::udp(65536, 0),
            FlowSpec::udp(65536, 0),
            FlowSpec::udp(65536, 0),
        ];
        let report = StackSim::try_run(cfg, Box::new(StayLocal::new(1)), None).expect("valid stack config");
        assert!(report.ring_drops > 0, "three saturating clients must overrun one core");
        assert!(report.goodput_gbps > 0.5);
    }

    #[test]
    fn noise_perturbs_but_does_not_break() {
        let mut cfg = StackConfig::single_flow(PathKind::Overlay, FlowSpec::tcp(65536, 0));
        cfg.duration_ns = 20 * MS;
        cfg.warmup_ns = 5 * MS;
        assert!(cfg.noise.enabled);
        let report = StackSim::try_run(cfg, Box::new(StayLocal::new(1)), None).expect("valid stack config");
        assert!(report.goodput_gbps > 1.0);
        assert_eq!(report.tcp_ooo_inserts, 0);
        // Interference must show up in the CPU ledger.
        assert!(report.cpu.tag_total_ns("interference") > 0);
    }

    #[test]
    fn cpu_breakdown_attributes_overlay_devices() {
        let cfg = quiet(StackConfig::single_flow(
            PathKind::Overlay,
            FlowSpec::tcp(65536, 0),
        ));
        let report = StackSim::try_run(cfg, Box::new(StayLocal::new(1)), None).expect("valid stack config");
        for tag in [
            "pnic.poll",
            "pnic.skb_alloc",
            "pnic.gro",
            "vxlan.decap",
            "veth.xmit",
            "tcp_rx",
            "user_copy",
        ] {
            assert!(report.cpu.tag_total_ns(tag) > 0, "missing CPU time for {tag}");
        }
        // Everything but user_copy ran on core 1.
        assert!(report.cpu.busy_ns(1) > report.cpu.busy_ns(2));
    }

    #[test]
    fn tracing_captures_stage_execution() {
        let mut cfg = quiet(StackConfig::single_flow(
            PathKind::Overlay,
            FlowSpec::tcp(65536, 0),
        ));
        cfg.trace = true;
        let report = StackSim::try_run(cfg, Box::new(StayLocal::new(1)), None).expect("valid stack config");
        let trace = report.trace.expect("trace requested");
        assert!(!trace.spans().is_empty());
        let tags: std::collections::BTreeSet<&str> =
            trace.spans().iter().map(|s| s.tag.as_str()).collect();
        assert!(tags.contains("vxlan.decap"), "tags: {tags:?}");
        assert!(tags.contains("user_copy"));
        // Spans on one core never overlap.
        let mut last_end = 0;
        for s in trace.spans().iter().filter(|s| s.core == 1) {
            assert!(s.start >= last_end, "overlap at {}", s.start);
            last_end = s.end;
        }
    }

    #[test]
    fn tx_core_scaling_raises_a_sender_bound_flow() {
        // 1 KB UDP: a single client is sender-bound; two TX cores push
        // more datagrams through.
        let mk = |tx: u32| {
            let mut flow = FlowSpec::udp(1024, 0);
            flow.tx_cores = tx;
            quiet(StackConfig::single_flow(PathKind::Native, flow))
        };
        let one = StackSim::try_run(mk(1), Box::new(StayLocal::new(1)), None).expect("valid stack config");
        let two = StackSim::try_run(mk(2), Box::new(StayLocal::new(1)), None).expect("valid stack config");
        assert!(
            two.goodput_gbps > one.goodput_gbps * 1.1,
            "tx=2 {:.2} vs tx=1 {:.2}",
            two.goodput_gbps,
            one.goodput_gbps
        );
    }

    #[test]
    fn interrupt_coalescing_batches_shallow_rings() {
        // A lightly paced flow arrives one segment at a time; coalescing
        // must hold the IRQ so polls see multi-segment batches (visible as
        // a per-message latency floor near the coalescing delay).
        let mut cfg = quiet(StackConfig::single_flow(
            PathKind::Native,
            FlowSpec::tcp(1024, 0),
        ));
        cfg.flows[0].load = LoadModel::Paced { interval_ns: 100_000 };
        let r = StackSim::try_run(cfg, Box::new(StayLocal::new(1)), None).expect("valid stack config");
        let coalesce = CostModel::calibrated().irq_coalesce_ns;
        assert!(
            r.latency.median() >= coalesce,
            "median {} below the coalescing delay {}",
            r.latency.median(),
            coalesce
        );
    }

    #[test]
    fn small_messages_are_client_bound() {
        // 16-byte TCP messages: the client core saturates long before the
        // receiver does — all systems look alike (paper Fig 8a, 16 B).
        let cfg = quiet(StackConfig::single_flow(
            PathKind::Overlay,
            FlowSpec::tcp(16, 0),
        ));
        let report = StackSim::try_run(cfg, Box::new(StayLocal::new(1)), None).expect("valid stack config");
        let client_busy = report.client_cpu.busy_ns(0);
        let kernel_busy = report.cpu.busy_ns(1);
        assert!(
            client_busy > kernel_busy,
            "client {client_busy} should out-busy kernel {kernel_busy}"
        );
    }
}
