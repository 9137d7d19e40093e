//! The unified datapath counter block shared by both execution engines.
//!
//! The discrete-event simulator (`mflow-netstack`) and the real-thread
//! pipeline (`mflow-runtime`) used to carry two drifted counter structs
//! (`RunReport` / `RunOutput`) with overlapping but differently-named
//! fields. [`Telemetry`] is the single source of truth for the counters
//! both engines share; each engine embeds one and keeps only its
//! engine-specific extensions (histograms, digests, CPU ledgers, ...)
//! alongside it.
//!
//! Serialization is hand-rolled like [`crate::series`] so the crate stays
//! dependency-free and builds offline. Every engine emits the same flat
//! JSON object — same keys, same order — so policy-vs-policy comparisons
//! are diffable across engines.

/// Core datapath counters common to the simulator and the runtime.
///
/// Semantics, engine by engine:
///
/// * `delivered` — packets handed to the consumer in final order
///   (runtime: digested frames; simulator: messages delivered to the
///   application socket).
/// * `ooo` — out-of-order arrivals observed at the merge point *input*
///   (before reassembly). Zero for policies that never interleave one
///   flow across lanes.
/// * `flushed` — micro-flows given up on by the flush deadline.
/// * `late` / `dup` — merge-point rejections: packets arriving after
///   their micro-flow was flushed / duplicates of already-released ones.
/// * `shed` — packets dropped at dispatch by backpressure (whole
///   micro-flows only; runtime engine).
/// * `inline` — packets processed on the dispatching core instead of a
///   worker lane (overload fallback; runtime engine).
/// * `desplits` / `resplits` — elephant flows demoted to unsplit
///   processing by lane pressure, and re-promoted after it cleared.
/// * `redispatched` — retained batches re-sent to surviving lanes after
///   a worker death (runtime engine).
/// * `fault_drops` — packets deleted by the deterministic fault
///   injector (so conservation checks can account for them).
/// * `residue` — packets still parked in reassembly buffers at the end
///   of the run (should be zero after a drain).
/// * `restarts` — worker threads respawned by the supervisor after a
///   death or stall was detected (runtime engine).
/// * `heartbeat_misses` — times the watchdog declared a worker stalled
///   because its heartbeat epoch went stale past the deadline while it
///   had work queued (runtime engine).
/// * `recovery_ns` — worst-case time-to-recovery in the *worker* failure
///   domain: the longest gap between a death being observed and the
///   replacement worker being live (runtime engine).
/// * `merger_restarts` — merger incarnations respawned from the latest
///   checkpoint after a merger death or wedge (runtime engine).
/// * `merger_recovery_ns` — worst-case time-to-recovery in the *merger*
///   failure domain, kept separate from `recovery_ns` so the two
///   domains' healing latencies are individually visible.
/// * `snapshot_bytes` — cumulative estimated size of every merger-state
///   checkpoint written to the write-ahead ring (runtime engine).
/// * `restore_replayed_offers` — delta-log entries replayed across all
///   merger restores; bounded by one inter-checkpoint window per crash
///   restore (runtime engine).
/// * `stateful_mode` — how the stateful stage ran relative to the merge
///   point: `merge-before-tcp` (serial, after the merge) or `scr`
///   (replicated on every lane, reconciled downstream).
/// * `replicated_transitions` — state transitions computed by lane
///   replicas under SCR (each packet's stateful work, counted once per
///   lane that performed it — duplicated dispatches replicate too).
/// * `reconciled_dups` — replicated transitions discarded at the merge
///   point as already emitted (exactly-once enforcement): the
///   simulator's reconciler's duplicate records, and on the runtime
///   every arrival the merging counter rejected under SCR, `late + dup`.
/// * `pool_recycled` — packet-buffer slots returned to the buffer pool's
///   free list during the run (runtime engine; zero without a pool).
/// * `pool_misses` — packet allocations that fell back to the heap
///   because the pool was exhausted or the frame oversized (runtime
///   engine; zero without a pool).
/// * `lane_depths` — end-of-run per-lane backlog (runtime: batches per
///   worker queue; simulator: segments per split lane).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Telemetry {
    /// Name of the steering policy that produced these counters.
    pub policy: String,
    pub delivered: u64,
    pub ooo: u64,
    pub flushed: u64,
    pub late: u64,
    pub dup: u64,
    pub shed: u64,
    pub inline: u64,
    pub desplits: u64,
    pub resplits: u64,
    pub redispatched: u64,
    pub fault_drops: u64,
    pub residue: u64,
    pub restarts: u64,
    pub heartbeat_misses: u64,
    pub recovery_ns: u64,
    pub merger_restarts: u64,
    pub merger_recovery_ns: u64,
    pub snapshot_bytes: u64,
    pub restore_replayed_offers: u64,
    /// Stateful-stage placement: `merge-before-tcp` or `scr`.
    pub stateful_mode: String,
    pub replicated_transitions: u64,
    pub reconciled_dups: u64,
    pub pool_recycled: u64,
    pub pool_misses: u64,
    pub lane_depths: Vec<u64>,
}

impl Telemetry {
    /// An all-zero block tagged with the given policy name.
    pub fn new(policy: impl Into<String>) -> Self {
        Self {
            policy: policy.into(),
            stateful_mode: "merge-before-tcp".into(),
            ..Self::default()
        }
    }

    /// The scalar counter keys, in serialization order. Exposed so tests
    /// and the bench harness can verify every engine emits the same
    /// schema without parsing JSON.
    pub const SCALAR_KEYS: [&'static str; 23] = [
        "delivered",
        "ooo",
        "flushed",
        "late",
        "dup",
        "shed",
        "inline",
        "desplits",
        "resplits",
        "redispatched",
        "fault_drops",
        "residue",
        "restarts",
        "heartbeat_misses",
        "recovery_ns",
        "merger_restarts",
        "merger_recovery_ns",
        "snapshot_bytes",
        "restore_replayed_offers",
        "replicated_transitions",
        "reconciled_dups",
        "pool_recycled",
        "pool_misses",
    ];

    fn scalars(&self) -> [u64; 23] {
        [
            self.delivered,
            self.ooo,
            self.flushed,
            self.late,
            self.dup,
            self.shed,
            self.inline,
            self.desplits,
            self.resplits,
            self.redispatched,
            self.fault_drops,
            self.residue,
            self.restarts,
            self.heartbeat_misses,
            self.recovery_ns,
            self.merger_restarts,
            self.merger_recovery_ns,
            self.snapshot_bytes,
            self.restore_replayed_offers,
            self.replicated_transitions,
            self.reconciled_dups,
            self.pool_recycled,
            self.pool_misses,
        ]
    }

    /// Serializes to a flat JSON object:
    /// `{"policy": "...", "delivered": N, ..., "lane_depths": [..]}`.
    pub fn to_json(&self) -> String {
        self.to_json_with(&[])
    }

    /// Like [`Telemetry::to_json`] but with engine-specific extension
    /// keys appended after the shared block, keeping the shared prefix
    /// identical across engines.
    pub fn to_json_with(&self, extras: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(256);
        out.push('{');
        out.push_str(&format!("\"policy\": \"{}\"", escape(&self.policy)));
        out.push_str(&format!(
            ", \"stateful_mode\": \"{}\"",
            escape(&self.stateful_mode)
        ));
        for (key, value) in Self::SCALAR_KEYS.iter().zip(self.scalars()) {
            out.push_str(&format!(", \"{key}\": {value}"));
        }
        out.push_str(", \"lane_depths\": [");
        for (i, d) in self.lane_depths.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&d.to_string());
        }
        out.push(']');
        for (key, value) in extras {
            out.push_str(&format!(", \"{}\": {value}", escape(key)));
        }
        out.push('}');
        out
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_contains_every_scalar_key_once() {
        let t = Telemetry::new("mflow");
        let json = t.to_json();
        for key in Telemetry::SCALAR_KEYS {
            assert_eq!(
                json.matches(&format!("\"{key}\"")).count(),
                1,
                "key {key} should appear exactly once in {json}"
            );
        }
        assert!(json.starts_with("{\"policy\": \"mflow\""));
        assert!(json.ends_with("\"lane_depths\": []}"));
    }

    #[test]
    fn values_round_trip_textually() {
        let t = Telemetry {
            policy: "rps".into(),
            delivered: 10,
            shed: 3,
            lane_depths: vec![1, 0, 2],
            ..Telemetry::default()
        };
        let json = t.to_json();
        assert!(json.contains("\"delivered\": 10"));
        assert!(json.contains("\"shed\": 3"));
        assert!(json.contains("\"lane_depths\": [1, 0, 2]"));
    }

    #[test]
    fn extras_append_after_shared_block() {
        let t = Telemetry::new("rss");
        let json = t.to_json_with(&[("elapsed_ns", "42".into())]);
        assert!(json.ends_with("\"elapsed_ns\": 42}"));
        let shared = t.to_json();
        // The shared prefix is byte-identical with or without extras.
        assert!(json.starts_with(shared.trim_end_matches('}')));
    }

    #[test]
    fn policy_name_is_escaped() {
        let t = Telemetry::new("a\"b");
        assert!(t.to_json().contains("\"policy\": \"a\\\"b\""));
    }
}
