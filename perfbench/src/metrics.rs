//! The declared metrics, in output order. `BENCHMARK.json` at the
//! repository root lists the same names, units and directions; a test
//! keeps the two in step.

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Only the test that keeps `BENCHMARK.json` in step reads it.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// Reported with `--trace 0`, by every workload.
pub const END_TO_END: [Metric; 11] = [
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("modeled_cycles_per_query", "cycles/query", "lower"),
    m("modeled_energy_per_query", "eu/query", "lower"),
    m("recall_mean", "fraction", "higher"),
    m("latency_p99_cycles", "cycles", "lower"),
    m("deadline_miss_frac", "fraction", "lower"),
    m("slo_capacity_tenants", "tenants", "higher"),
    m("modeled_speedup", "x", "higher"),
    m("modeled_energy_ratio", "ratio", "lower"),
];

/// Reported with `--trace 1`, by every workload.
pub const PER_LAYER: [Metric; 42] = [
    m("trace.overhead_s", "s", "lower"),
    // dse_slice
    m("core.render_s", "s", "lower"),
    m("pointcloud.oracle_s", "s", "lower"),
    m("accel.maintain_s", "s", "lower"),
    m("accel.maintain_calls", "count", "lower"),
    m("accel.stream_s", "s", "lower"),
    m("accel.stream_calls", "count", "lower"),
    m("accel.stream_ns_per_query", "ns", "lower"),
    m("accel.engine_s", "s", "lower"),
    m("accel.engine_calls", "count", "lower"),
    m("explorer.render_s", "s", "lower"),
    m("explorer.diff_s", "s", "lower"),
    m("explorer.other_s", "s", "lower"),
    m("explorer.search_key_ratio", "ratio", "higher"),
    m("memsim.elided_frac", "fraction", "higher"),
    m("kdtree.refit_fallback_frac", "fraction", "lower"),
    m("accel.compute_bound_frac", "fraction", "lower"),
    m("accel.agg_bound_frac", "fraction", "lower"),
    m("accel.dma_bound_frac", "fraction", "lower"),
    // serve_fleet
    m("serve.context_s", "s", "lower"),
    m("serve.run_s", "s", "lower"),
    m("serve.run_calls", "count", "lower"),
    m("accel.wavefront_s", "s", "lower"),
    m("accel.wavefront_calls", "count", "lower"),
    m("serve.render_s", "s", "lower"),
    m("serve.amortization", "ratio", "higher"),
    m("serve.utilization", "fraction", "higher"),
    m("serve.wavefronts", "count", "lower"),
    m("serve.rejected", "count", "lower"),
    m("serve.deadline_misses", "count", "lower"),
    // train_mixed
    m("pointcloud.dataset_s", "s", "lower"),
    m("models.forward_s", "s", "lower"),
    m("models.backward_s", "s", "lower"),
    m("nn.optim_s", "s", "lower"),
    m("models.search_s", "s", "lower"),
    m("kdtree.build_s", "s", "lower"),
    m("kdtree.build_calls", "count", "lower"),
    m("models.samples", "count", "higher"),
    // paper_figures
    m("bench.motivation_s", "s", "lower"),
    m("accel.pipeline_s", "s", "lower"),
    m("accel.pipeline_calls", "count", "lower"),
    m("bench.figures_other_s", "s", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    /// `(name, unit, better)` of every metric object in one section of
    /// `BENCHMARK.json`, in file order.
    fn declared(section: &str) -> Vec<(String, String, String)> {
        let field = |obj: &str, key: &str| -> String {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        section
            .split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit"), field(obj, "better")))
            .collect()
    }

    #[test]
    fn names_are_valid_unique_and_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
        let layer_at = text.find("\"per_layer\"").expect("per_layer section");
        let e2e = &text[e2e_at..layer_at];
        let layer = &text[layer_at..];
        let layer = &layer[..layer.find(']').expect("per_layer list closes")];
        let mut seen = HashSet::new();
        for (list, section) in [(&END_TO_END[..], e2e), (&PER_LAYER[..], layer)] {
            let json = declared(section);
            let ours: Vec<(String, String, String)> = list
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
                .collect();
            assert_eq!(json, ours, "BENCHMARK.json and metrics.rs must list the same metrics");
            for m in list {
                assert!(valid_name(m.name), "bad name {}", m.name);
                assert!(valid_unit(m.unit), "bad unit {}", m.unit);
                assert!(m.better == "lower" || m.better == "higher");
                assert!(seen.insert(m.name), "duplicate name {}", m.name);
            }
        }
        assert!(END_TO_END.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    }
}
