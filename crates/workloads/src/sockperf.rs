//! sockperf-like single-flow runs: throughput mode (closed-loop TCP /
//! saturating multi-client UDP) and under-load latency mode (windowed TCP
//! at each system's own maximum rate; UDP paced at a common safe load),
//! as the paper's Figures 4, 8 and 9 use.

use mflow_netstack::{
    FlowSpec, LoadModel, NoiseConfig, RunReport, StackConfig, StackSim, Transport,
};
use mflow_sim::MS;

use crate::systems::System;

/// Message sizes the paper sweeps (16 B .. 64 KB).
pub const MSG_SIZES: [u64; 5] = [16, 1024, 4096, 16384, 65536];

/// Number of UDP clients used to stress the receiver (paper §V-A).
pub const UDP_CLIENTS: usize = 3;

/// Scenario knobs shared by throughput and latency runs.
#[derive(Clone, Copy, Debug)]
pub struct SockperfOpts {
    pub duration_ns: u64,
    pub warmup_ns: u64,
    pub seed: u64,
    /// Enable background noise (on for latency realism, off for clean
    /// capacity calibration).
    pub noise: bool,
}

impl Default for SockperfOpts {
    fn default() -> Self {
        Self {
            duration_ns: 60 * MS,
            warmup_ns: 15 * MS,
            seed: 42,
            noise: false,
        }
    }
}

fn base_config(system: System, transport: Transport, msg_bytes: u64, opts: &SockperfOpts) -> StackConfig {
    let flow = match transport {
        Transport::Tcp => FlowSpec::tcp(msg_bytes, 0),
        Transport::Udp => FlowSpec::udp(msg_bytes, 0),
    };
    let mut cfg = StackConfig::single_flow(system.path(), flow.clone());
    if transport == Transport::Udp {
        cfg.flows = vec![flow; UDP_CLIENTS];
    }
    cfg.noise = if opts.noise {
        NoiseConfig::default()
    } else {
        NoiseConfig::off()
    };
    cfg.duration_ns = opts.duration_ns;
    cfg.warmup_ns = opts.warmup_ns;
    cfg.seed = opts.seed;
    cfg
}

/// Runs sockperf throughput mode for one (system, transport, size) cell of
/// Figure 4a / 8a.
pub fn throughput(system: System, transport: Transport, msg_bytes: u64, opts: &SockperfOpts) -> RunReport {
    let cfg = base_config(system, transport, msg_bytes, opts);
    let (policy, merge) = system.build_single_flow(transport);
    StackSim::try_run(cfg, policy, merge).expect("valid stack config")
}

/// In-flight data for the TCP latency-under-load runs: sockperf's
/// under-load mode keeps a fixed amount of data outstanding while the
/// stack runs at its maximum rate, so measured latency is dominated by
/// how fast each system drains the standing queue.
pub const LATENCY_WINDOW_BYTES: u64 = 256 << 10;

/// Runs sockperf under-load latency mode (Figure 9).
///
/// TCP: closed loop with a fixed 256 KB in-flight window, driving each
/// system to its own maximum throughput (the paper's "maximum throughput
/// before drops") — per-message latency then directly reflects each
/// system's drain rate plus its path length.
///
/// UDP (open loop, no backpressure): all overlay systems are paced at
/// `load_fraction` of the *vanilla overlay's* capacity — the highest load
/// every compared system can carry without drops — and the native path at
/// `load_fraction` of its own.
pub fn latency(
    system: System,
    transport: Transport,
    msg_bytes: u64,
    load_fraction: f64,
    opts: &SockperfOpts,
) -> RunReport {
    assert!((0.0..1.0).contains(&load_fraction));
    let mut cfg = base_config(system, transport, msg_bytes, opts);
    match transport {
        Transport::Tcp => {
            for f in &mut cfg.flows {
                f.load = LoadModel::Closed {
                    window_bytes: LATENCY_WINDOW_BYTES,
                };
            }
        }
        Transport::Udp => {
            let reference = if system == System::Native {
                System::Native
            } else {
                System::Vanilla
            };
            let cap = throughput(
                reference,
                transport,
                msg_bytes,
                &SockperfOpts { noise: false, ..*opts },
            );
            let msgs_per_sec = cap.msgs_per_sec.max(1.0) * load_fraction;
            let n_clients = cfg.flows.len() as f64;
            let interval_ns = (1e9 * n_clients / msgs_per_sec).max(1.0) as u64;
            for f in &mut cfg.flows {
                f.load = LoadModel::Paced { interval_ns };
            }
        }
    }
    let (policy, merge) = system.build_single_flow(transport);
    StackSim::try_run(cfg, policy, merge).expect("valid stack config")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> SockperfOpts {
        SockperfOpts {
            duration_ns: 16 * MS,
            warmup_ns: 4 * MS,
            seed: 7,
            noise: false,
        }
    }

    #[test]
    fn headline_tcp_ordering_holds() {
        // The paper's Figure 8a TCP 64 KB ordering:
        // vanilla < rps < falcon-dev < falcon-fun < mflow, native < mflow.
        let o = quick();
        let g = |s| throughput(s, Transport::Tcp, 65536, &o).goodput_gbps;
        let native = g(System::Native);
        let vanilla = g(System::Vanilla);
        let rps = g(System::Rps);
        let fd = g(System::FalconDev);
        let ff = g(System::FalconFun);
        let mflow = g(System::Mflow);
        assert!(vanilla < rps && rps < fd && fd < ff, "{vanilla} {rps} {fd} {ff}");
        assert!(ff < mflow, "falcon-fun {ff} vs mflow {mflow}");
        assert!(mflow > native, "mflow {mflow} must beat native {native}");
        assert!(native > vanilla * 1.4);
    }

    #[test]
    fn headline_udp_gains_hold() {
        let o = quick();
        let g = |s| throughput(s, Transport::Udp, 65536, &o).goodput_gbps;
        let native = g(System::Native);
        let vanilla = g(System::Vanilla);
        let falcon = g(System::FalconDev);
        let mflow = g(System::Mflow);
        // Paper: +139 % for MFLOW, +80 % for FALCON, far below native.
        assert!(mflow / vanilla > 1.9, "mflow {mflow} vanilla {vanilla}");
        assert!(falcon / vanilla > 1.5);
        assert!(mflow > falcon * 1.05);
        assert!(mflow < native);
    }

    #[test]
    fn latency_mode_records_a_distribution() {
        let o = quick();
        let r = latency(System::Vanilla, Transport::Tcp, 4096, 0.7, &o);
        assert!(r.latency.count() > 100, "messages measured: {}", r.latency.count());
        assert!(r.latency.p99() >= r.latency.median());
        assert_eq!(r.ring_drops, 0, "windowed TCP must not drop");
    }

    #[test]
    fn udp_latency_mode_stays_below_drops() {
        let o = quick();
        let r = latency(System::Mflow, Transport::Udp, 4096, 0.8, &o);
        assert!(r.latency.count() > 100);
        assert_eq!(r.ring_drops, 0, "paced at 80% of vanilla must not drop anywhere");
    }

    #[test]
    fn tiny_messages_level_the_field() {
        // At 16 B the client is the bottleneck: paper Figure 8a shows all
        // TCP systems within noise of each other.
        let o = quick();
        let vanilla = throughput(System::Vanilla, Transport::Tcp, 16, &o).goodput_gbps;
        let mflow = throughput(System::Mflow, Transport::Tcp, 16, &o).goodput_gbps;
        let ratio = mflow / vanilla;
        assert!((0.8..1.25).contains(&ratio), "16B ratio {ratio}");
    }

    #[test]
    fn mflow_has_no_ooo_at_transport_and_no_residue() {
        let o = quick();
        let r = throughput(System::Mflow, Transport::Tcp, 65536, &o);
        assert_eq!(r.tcp_ooo_inserts, 0, "reassembly must prevent TCP OOO work");
        assert_eq!(r.telemetry.residue, 0);
        assert!(r.telemetry.ooo > 0, "parallel lanes must actually race");
    }
}
