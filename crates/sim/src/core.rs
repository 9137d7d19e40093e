//! CPU cores as simulated resources: each core executes one context at a
//! time; busy time is attributed to a tag (softirq / device / thread name)
//! for the paper's CPU-utilization breakdowns.

use mflow_metrics::CpuAccounting;

use crate::time::Time;
use crate::trace::Trace;

/// Index of a simulated CPU core.
pub type CoreId = usize;

/// A set of cores with per-core availability, speed factors and a busy-time
/// ledger.
#[derive(Clone, Debug)]
pub struct CoreSet {
    free_at: Vec<Time>,
    speed: Vec<f64>,
    cpu: CpuAccounting,
    trace: Option<Trace>,
}

impl CoreSet {
    /// Creates `n` idle cores of nominal speed.
    pub fn new(n: usize) -> Self {
        Self {
            free_at: vec![0; n],
            speed: vec![1.0; n],
            cpu: CpuAccounting::new(n),
            trace: None,
        }
    }

    /// Turns on execution tracing (records every busy interval).
    pub fn enable_trace(&mut self) {
        self.trace = Some(Trace::default());
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// Number of cores.
    pub fn len(&self) -> usize {
        self.free_at.len()
    }

    /// True when the set has no cores.
    pub fn is_empty(&self) -> bool {
        self.free_at.is_empty()
    }

    /// Sets a static speed multiplier for a core (`2.0` = twice as fast).
    pub fn set_speed(&mut self, core: CoreId, speed: f64) {
        assert!(speed > 0.0, "core speed must be positive");
        self.speed[core] = speed;
    }

    /// Earliest time the core can start new work.
    pub fn free_at(&self, core: CoreId) -> Time {
        self.free_at[core]
    }

    /// True if the core is idle at `now`.
    pub fn is_idle(&self, core: CoreId, now: Time) -> bool {
        self.free_at[core] <= now
    }

    /// Runs `cost_ns` of nominal work on `core`, starting no earlier than
    /// `now`, attributing the busy time to `tag`. Returns `(start, end)`.
    pub fn execute(&mut self, core: CoreId, now: Time, cost_ns: u64, tag: &str) -> (Time, Time) {
        let start = self.free_at[core].max(now);
        let scaled = (cost_ns as f64 / self.speed[core]).round() as u64;
        let end = start + scaled;
        self.free_at[core] = end;
        self.cpu.charge(core, tag, scaled);
        if let Some(trace) = &mut self.trace {
            trace.push(core, start, end, tag);
        }
        (start, end)
    }

    /// Blocks the core with non-work time (e.g. background interference)
    /// charged to `tag`.
    pub fn preempt(&mut self, core: CoreId, now: Time, ns: u64, tag: &str) -> (Time, Time) {
        let start = self.free_at[core].max(now);
        let end = start + ns;
        self.free_at[core] = end;
        self.cpu.charge(core, tag, ns);
        if let Some(trace) = &mut self.trace {
            trace.push(core, start, end, tag);
        }
        (start, end)
    }

    /// Read-only view of the busy ledger.
    pub fn cpu(&self) -> &CpuAccounting {
        &self.cpu
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn execute_serializes_on_one_core() {
        let mut cores = CoreSet::new(2);
        let (s1, e1) = cores.execute(0, 100, 50, "a");
        assert_eq!((s1, e1), (100, 150));
        // Second job on the same core queues behind the first.
        let (s2, e2) = cores.execute(0, 100, 50, "a");
        assert_eq!((s2, e2), (150, 200));
        // A different core is independent.
        let (s3, e3) = cores.execute(1, 100, 50, "a");
        assert_eq!((s3, e3), (100, 150));
    }

    #[test]
    fn speed_scales_cost() {
        let mut cores = CoreSet::new(1);
        cores.set_speed(0, 2.0);
        let (_, end) = cores.execute(0, 0, 100, "x");
        assert_eq!(end, 50);
    }

    #[test]
    fn busy_time_is_attributed() {
        let mut cores = CoreSet::new(1);
        cores.execute(0, 0, 30, "vxlan");
        cores.execute(0, 0, 20, "bridge");
        assert_eq!(cores.cpu().busy_ns_tag(0, "vxlan"), 30);
        assert_eq!(cores.cpu().busy_ns_tag(0, "bridge"), 20);
        assert_eq!(cores.cpu().busy_ns(0), 50);
    }

    #[test]
    fn idleness_reflects_free_at() {
        let mut cores = CoreSet::new(1);
        assert!(cores.is_idle(0, 0));
        cores.execute(0, 0, 100, "x");
        assert!(!cores.is_idle(0, 50));
        assert!(cores.is_idle(0, 100));
    }

    #[test]
    fn trace_records_executions_when_enabled() {
        let mut cores = CoreSet::new(2);
        assert!(cores.trace().is_none());
        cores.enable_trace();
        cores.execute(0, 0, 10, "alloc");
        cores.execute(1, 5, 20, "vxlan");
        let spans = cores.trace().unwrap().spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].tag, "alloc");
        assert_eq!(spans[1].core, 1);
    }

    #[test]
    fn preempt_blocks_without_speed_scaling() {
        let mut cores = CoreSet::new(1);
        cores.set_speed(0, 2.0);
        let (_, end) = cores.preempt(0, 0, 100, "irq");
        assert_eq!(end, 100); // preemption time is wall time, not scaled
        assert_eq!(cores.cpu().busy_ns_tag(0, "irq"), 100);
    }
}
