//! The metric tables: what `BENCHMARK.json` declares, in the order the
//! harness prints it. A test regenerates `BENCHMARK.json` from these
//! tables and the workload list, so neither can drift from the other.

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the baseline's median by which the metric may worsen
    /// before it counts as a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// `failed_ratio`, the sixth end-to-end number, is not in this table
/// because it must be 0 and a bound is a share of the baseline: it is
/// reported as `failed` over `attempted`, and `correct` is `failed == 0`.
///
/// With every thread on one CPU, ten runs of one workload under ten seeds
/// spread (q3 - q1) / median by 0.5 to 6 % on the first four metrics and
/// by 2 to 13 % on `latency_p99_us`. The bounds are nevertheless the widest
/// the driver's contract allows: now and then the host itself slows for a
/// few minutes (single-threaded set-up by 20 %, the spawn-heavy `msg64k` by
/// 35 %), long enough to cover most of one workload's ten runs, and a bound
/// inside that would reject unchanged code.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("throughput_mpps", "Mframes/s", "higher", 0.25),
    e2e("cpu_ns_per_frame", "ns", "lower", 0.25),
    e2e("latency_p50_us", "us", "lower", 0.25),
    e2e("latency_p99_us", "us", "lower", 0.25),
];

/// Names are `module.metric`; the unit is ns per frame unless the name
/// says otherwise.
pub const PER_LAYER: [MetricDef; 36] = [
    layer("net.parse_ns", "ns", "lower"),
    layer("net.csum_ns", "ns", "lower"),
    layer("net.build_ns", "ns", "lower"),
    layer("packet.flow_hash_ns", "ns", "lower"),
    layer("packet.frame_clone_drop_ns", "ns", "lower"),
    layer("pool.alloc_free_ns", "ns", "lower"),
    layer("pool.hit_rate", "ratio", "higher"),
    layer("pool.leaked_slots", "count", "lower"),
    layer("ring.spsc_ns_per_item", "ns", "lower"),
    layer("ring.mux_ns_per_item", "ns", "lower"),
    layer("work.process_frame_ns", "ns", "lower"),
    layer("work.stage_parse_ns", "ns", "lower"),
    layer("work.stage_csum_ns", "ns", "lower"),
    layer("work.stage_digest_ns", "ns", "lower"),
    layer("work.stateful_ns", "ns", "lower"),
    layer("reassembly.offer_inorder_ns", "ns", "lower"),
    layer("reassembly.offer_swapped_ns", "ns", "lower"),
    layer("reassembly.scr_offer_ns", "ns", "lower"),
    layer("steering.steer_ns_per_batch", "ns", "lower"),
    layer("pipeline.serial_ns", "ns", "lower"),
    layer("pipeline.speedup_over_serial", "ratio", "higher"),
    layer("pipeline.call_overhead_us", "us", "lower"),
    layer("pipeline.merger_serial_ns", "ns", "lower"),
    layer("pipeline.ooo_ratio", "ratio", "lower"),
    layer("pipeline.backpressure_per_kframe", "count", "lower"),
    layer("pipeline.allocs_per_frame", "count", "lower"),
    layer("pipeline.cpu_over_wall", "ratio", "lower"),
    layer("pipeline.checkpoints_per_kframe", "count", "lower"),
    layer("pipeline.snapshot_bytes_per_frame", "count", "lower"),
    layer("pipeline.replicated_per_frame", "count", "lower"),
    layer("model.dispatch_ns", "ns", "lower"),
    layer("model.worker_ns", "ns", "lower"),
    layer("model.merger_ns", "ns", "lower"),
    layer("model.ceiling_mpps", "Mframes/s", "higher"),
    layer("model.explained_ratio", "ratio", "higher"),
    layer("trace_overhead_ratio", "ratio", "lower"),
];

/// The measured window `BENCHMARK.json` asks the driver for.
pub const RUN_SECONDS: u64 = 15;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    /// The text of `BENCHMARK.json`.
    fn benchmark_json() -> String {
        let join = |rows: Vec<String>| rows.join(",\n    ");
        let workloads = join(
            WORKLOADS
                .iter()
                .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
                .collect(),
        );
        let metric = |m: &MetricDef| {
            let bound = m
                .bound
                .map_or(String::new(), |b| format!(", \"bound\": {b}"));
            format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name, m.unit, m.better
            )
        };
        let end_to_end = join(END_TO_END.iter().map(metric).collect());
        let per_layer = join(PER_LAYER.iter().map(metric).collect());
        format!(
            "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
             \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n  \"paths\": [\"benchmark\"],\n  \
             \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n    {workloads}\n  ],\n  \
             \"end_to_end\": [\n    {end_to_end}\n  ],\n  \"per_layer\": [\n    {per_layer}\n  ]\n}}\n"
        )
    }

    #[test]
    fn benchmark_json_is_generated_from_these_tables() {
        let expected = benchmark_json();
        assert!(
            include_str!("../../BENCHMARK.json") == expected,
            "BENCHMARK.json and the harness tables differ; the tables say:\n{expected}"
        );
    }

    #[test]
    fn names_units_and_whys_fit_the_contract() {
        let name_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.as_bytes()[0].is_ascii_alphanumeric()
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            names.push(m.name);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used once");
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'),
                "{}",
                w.name
            );
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }
}
