//! MFLOW configuration: batch size, splitting cores and scaling mode.

use mflow_error::MflowError;
use mflow_netstack::{Stage, StatefulMode};
use mflow_sim::CoreId;

use crate::elephant::ElephantConfig;

/// Where along the stateless path the flow is split (Figure 5).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScalingMode {
    /// Split right before one heavyweight device and merge before the app:
    /// the skbs of the flow are dispatched from the stage preceding
    /// `split_into` onto the splitting cores (flow-splitting function,
    /// Figure 6a). The paper's UDP configuration splits before the VXLAN
    /// device (`split_into = Stage::OuterIp`).
    Device { split_into: Stage },
    /// Split at the first stage via the IRQ-splitting function
    /// (Figure 6b): packet requests are dispatched before skb allocation,
    /// parallelizing the entire path. The paper's TCP configuration.
    FullPath,
}

/// Full MFLOW parameterization.
#[derive(Clone, Debug)]
pub struct MflowConfig {
    /// Micro-flow batch size in packets. 256 per the paper's Figure 7
    /// sweet spot.
    pub batch_size: u32,
    /// Core that runs the IRQ + the dispatching first half.
    pub dispatch_core: CoreId,
    /// Splitting cores, one micro-flow lane each.
    pub split_cores: Vec<CoreId>,
    /// Optional per-lane continuation cores: with `FullPath` scaling the
    /// paper keeps only skb allocation on each splitting core and pipelines
    /// the remaining stages onto a second core per branch (Figure 8b).
    pub branch_tails: Option<Vec<CoreId>>,
    /// Core that runs the stateful/merged stage (`TcpRx` for full path —
    /// the paper runs merge + TCP in `tcp_recvmsg` context next to the app).
    pub merge_core: CoreId,
    pub mode: ScalingMode,
    /// Number of splitting lanes each flow uses. For the single-flow
    /// configurations this equals `split_cores.len()`; multi-flow runs use
    /// a pool of cores with a few lanes per flow.
    pub lanes_per_flow: usize,
    /// Multi-flow: pick the dispatch core and lanes per flow by hash from
    /// the pool instead of pinning them.
    pub spread_flows: bool,
    /// Steering bookkeeping cost per dispatched segment, charged to the
    /// dispatch core (the +15 % CPU overhead of Figure 12 comes from here
    /// and the IPIs).
    pub dispatch_cost_per_seg_ns: f64,
    /// Reassembly cost per merge invocation, charged to the consumer.
    pub merge_cost_per_batch_ns: u64,
    /// Flush deadline: merge-point offers without a release before the
    /// merger force-advances past a stuck micro-flow (fault recovery).
    /// `None` reproduces the textbook algorithm, which waits forever.
    pub flush_after_offers: Option<u64>,
    /// Which flows get split. The single-flow configurations split
    /// unconditionally (the flow is the experiment); multi-flow setups
    /// identify elephants by rate with hysteresis.
    pub elephant: ElephantConfig,
    /// How the stateful TCP stage runs relative to the merge point:
    /// merge-before-tcp (the paper's design) or state-compute replication
    /// on every lane with a downstream reconciler.
    pub stateful_mode: StatefulMode,
}

impl MflowConfig {
    /// The paper's single-flow TCP configuration: full-path scaling, batch
    /// 256, dispatch on core 1, skb allocation split on cores 2/3, branch
    /// tails on cores 4/5, merge + TCP + copy on core 0.
    pub fn tcp_full_path() -> Self {
        Self {
            batch_size: 256,
            dispatch_core: 1,
            split_cores: vec![2, 3],
            branch_tails: Some(vec![4, 5]),
            merge_core: 0,
            mode: ScalingMode::FullPath,
            lanes_per_flow: 2,
            spread_flows: false,
            dispatch_cost_per_seg_ns: 25.0,
            merge_cost_per_batch_ns: 150,
            flush_after_offers: Some(4096),
            elephant: ElephantConfig::always(),
            stateful_mode: StatefulMode::MergeBeforeTcp,
        }
    }

    /// The paper's single-flow UDP configuration: device scaling of the
    /// VXLAN device, batch 256, split on cores 2/3, late merge before the
    /// application copy.
    pub fn udp_device_scaling() -> Self {
        Self {
            batch_size: 256,
            dispatch_core: 1,
            split_cores: vec![2, 3],
            branch_tails: None,
            merge_core: 0,
            mode: ScalingMode::Device {
                split_into: Stage::OuterIp,
            },
            lanes_per_flow: 2,
            spread_flows: false,
            dispatch_cost_per_seg_ns: 25.0,
            merge_cost_per_batch_ns: 150,
            flush_after_offers: Some(4096),
            elephant: ElephantConfig::always(),
            stateful_mode: StatefulMode::MergeBeforeTcp,
        }
    }

    /// A multi-flow configuration over a kernel core pool: per-flow
    /// dispatch core chosen by hash, each flow split across `lanes`
    /// neighbouring cores, no dedicated branch tails. Rejects an empty
    /// pool, zero lanes, or a pool too small to give every flow a
    /// dispatch core plus `lanes` distinct splitting cores.
    pub fn try_multi_flow(
        kernel_cores: Vec<CoreId>,
        lanes: usize,
        merge_core: CoreId,
    ) -> Result<Self, MflowError> {
        let cfg = Self {
            batch_size: 256,
            dispatch_core: kernel_cores.first().copied().unwrap_or(0),
            split_cores: kernel_cores,
            branch_tails: None,
            merge_core,
            mode: ScalingMode::FullPath,
            lanes_per_flow: lanes,
            spread_flows: true,
            dispatch_cost_per_seg_ns: 25.0,
            merge_cost_per_batch_ns: 150,
            flush_after_offers: Some(4096),
            elephant: ElephantConfig::always(),
            stateful_mode: StatefulMode::MergeBeforeTcp,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Checks the structural invariants of the configuration. Called by
    /// [`crate::try_install`] so a malformed config is reported instead of
    /// panicking deep inside the splitter.
    pub fn validate(&self) -> Result<(), MflowError> {
        if self.batch_size == 0 {
            return Err(MflowError::invalid("batch_size", "must be at least 1"));
        }
        if self.split_cores.is_empty() {
            return Err(MflowError::invalid("split_cores", "must not be empty"));
        }
        if self.lanes_per_flow == 0 {
            return Err(MflowError::invalid("lanes_per_flow", "must be at least 1"));
        }
        if self.spread_flows && self.split_cores.len() <= self.lanes_per_flow {
            return Err(MflowError::invalid(
                "split_cores",
                "spread_flows needs a pool larger than lanes_per_flow \
                 (one dispatch core plus lanes_per_flow distinct lanes)",
            ));
        }
        if self.flush_after_offers == Some(0) {
            return Err(MflowError::invalid(
                "flush_after_offers",
                "flush deadline of 0 offers would flush on every offer; use None to disable",
            ));
        }
        self.elephant.validate()
    }

    /// Stage whose input is order-restored by the merger.
    pub fn merge_before(&self) -> Stage {
        match self.mode {
            ScalingMode::FullPath => Stage::TcpRx,
            ScalingMode::Device { .. } => Stage::UserCopy,
        }
    }

    /// Stage whose input is split into micro-flows.
    pub fn split_into(&self) -> Stage {
        match self.mode {
            ScalingMode::FullPath => Stage::SkbAlloc,
            ScalingMode::Device { split_into } => split_into,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_full_path_matches_fig_8b() {
        let c = MflowConfig::tcp_full_path();
        assert_eq!(c.batch_size, 256);
        assert_eq!(c.dispatch_core, 1);
        assert_eq!(c.split_cores, vec![2, 3]);
        assert_eq!(c.branch_tails, Some(vec![4, 5]));
        assert_eq!(c.merge_core, 0);
        assert_eq!(c.split_into(), Stage::SkbAlloc);
        assert_eq!(c.merge_before(), Stage::TcpRx);
    }

    #[test]
    fn udp_device_scaling_splits_before_vxlan() {
        let c = MflowConfig::udp_device_scaling();
        assert_eq!(c.split_into(), Stage::OuterIp);
        assert_eq!(c.merge_before(), Stage::UserCopy);
    }

    #[test]
    fn stock_configs_validate() {
        MflowConfig::tcp_full_path().validate().unwrap();
        MflowConfig::udp_device_scaling().validate().unwrap();
        MflowConfig::try_multi_flow(vec![1, 2, 3], 2, 0).expect("valid multi-flow config").validate().unwrap();
    }

    #[test]
    fn invalid_configs_name_the_offending_field() {
        let mut c = MflowConfig::tcp_full_path();
        c.batch_size = 0;
        assert_eq!(c.validate().unwrap_err().field(), Some("batch_size"));

        let mut c = MflowConfig::tcp_full_path();
        c.split_cores.clear();
        assert_eq!(c.validate().unwrap_err().field(), Some("split_cores"));

        let mut c = MflowConfig::tcp_full_path();
        c.lanes_per_flow = 0;
        assert_eq!(c.validate().unwrap_err().field(), Some("lanes_per_flow"));

        let mut c = MflowConfig::tcp_full_path();
        c.flush_after_offers = Some(0);
        assert_eq!(c.validate().unwrap_err().field(), Some("flush_after_offers"));

        let mut c = MflowConfig::tcp_full_path();
        c.elephant.window_ns = 0;
        assert_eq!(c.validate().unwrap_err().field(), Some("window_ns"));
    }

    #[test]
    fn undersized_multi_flow_pool_rejected() {
        // Pool of 2 with 2 lanes leaves no dispatch core.
        let err = MflowConfig::try_multi_flow(vec![1, 2], 2, 0).unwrap_err();
        assert_eq!(err.field(), Some("split_cores"));
        let err = MflowConfig::try_multi_flow(vec![], 1, 0).unwrap_err();
        assert_eq!(err.field(), Some("split_cores"));
        let err = MflowConfig::try_multi_flow(vec![1, 2], 0, 0).unwrap_err();
        assert_eq!(err.field(), Some("lanes_per_flow"));
    }
}
