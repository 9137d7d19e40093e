//! `mflow` — packet-level parallelism for container overlay networks.
//!
//! This crate implements the paper's contribution:
//!
//! * **Flow splitting** ([`splitter::MflowSteering`]): re-purposing the
//!   stage-transition point to divide the packets of one flow into
//!   *micro-flows* — consecutive batches of `batch_size` packets — each
//!   dispatched to a distinct splitting core (§III-A, Figure 6a).
//! * **IRQ splitting**: the same mechanism applied at the earliest point,
//!   the first softirq, so even per-packet skb allocation and GRO
//!   parallelize (§III-A, Figure 6b). In the simulator this is the
//!   `FullPath` scaling mode, which splits at the `DriverPoll →
//!   SkbAlloc` transition and dispatches lightweight *requests* rather
//!   than skbs.
//! * **Batch-based flow reassembly** ([`reassembly::MergeCounter`]): per
//!   splitting-core buffer queues plus a global merging counter restore
//!   the original order batch-at-a-time, instead of the kernel's
//!   per-packet out-of-order queue (§III-B, Figure 6c).
//!
//! The [`try_install`] helper wires a configuration into the simulated
//! stack:
//!
//! ```
//! use mflow::{try_install, MflowConfig};
//! use mflow_netstack::{FlowSpec, PathKind, StackConfig, StackSim};
//!
//! let cfg = StackConfig::single_flow(PathKind::Overlay, FlowSpec::tcp(65536, 0));
//! let (policy, merge) = try_install(MflowConfig::tcp_full_path()).unwrap();
//! let report = StackSim::try_run(cfg, policy, Some(merge)).unwrap();
//! assert!(report.goodput_gbps > 0.0);
//! ```

pub mod config;
pub mod elephant;
pub mod lanes;
pub mod reassembly;
pub mod splitter;

pub use config::{MflowConfig, ScalingMode};
pub use elephant::{ElephantConfig, ElephantDetector};
pub use lanes::MflowLanes;
pub use mflow_error::MflowError;
pub use mflow_netstack::StatefulMode;
pub use reassembly::{BatchMerger, MergeCounter, MergeStats, MfTag, Offer, ScrReconciler};
pub use splitter::MflowSteering;

use mflow_netstack::{MergeSetup, PacketSteering};

/// Builds the steering policy and merge hook for a configuration,
/// rejecting one that violates [`MflowConfig::validate`].
pub fn try_install(cfg: MflowConfig) -> Result<(Box<dyn PacketSteering>, MergeSetup), MflowError> {
    let merge_before = cfg.merge_before();
    let stateful = cfg.stateful_mode;
    let steering = MflowSteering::try_new(cfg.clone())?;
    Ok((
        Box::new(steering),
        MergeSetup {
            before: merge_before,
            merger: Box::new(
                BatchMerger::new(cfg.merge_cost_per_batch_ns)
                    .with_flush_deadline(cfg.flush_after_offers),
            ),
            stateful,
        },
    ))
}
