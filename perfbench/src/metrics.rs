//! The metric names the benchmark declares, with their units, and the
//! collector that checks a run reports exactly those names.
//!
//! `BENCHMARK.json` at the repository root declares the same names; a
//! test keeps the two in step. GLOSSARY.md beside this crate says what
//! each metric measures and which end-to-end metric it should move.

use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run: (name, unit).
pub const END_TO_END: &[(&str, &str)] = &[
    ("gpt_train_tokens_per_s", "1/s"),
    ("resnet_train_images_per_s", "1/s"),
    ("decode_f32_tokens_per_s", "1/s"),
    ("decode_bf16_tokens_per_s", "1/s"),
    ("decode_int8_tokens_per_s", "1/s"),
    ("sim_requests_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: (name, unit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("bench.nproc", "count"),
    ("bench.workers", "count"),
    ("bench.simd_avx2", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("data.token_batch_ms", "ms"),
    ("data.image_batch_ms", "ms"),
    ("models.gpt_forward_ms", "ms"),
    ("models.resnet_forward_ms", "ms"),
    ("tensor.gpt_backward_ms", "ms"),
    ("tensor.resnet_backward_ms", "ms"),
    ("tensor.gpt_optim_ms", "ms"),
    ("tensor.resnet_optim_ms", "ms"),
    ("models.gpt_step_ms_p50", "ms"),
    ("models.resnet_step_ms_p50", "ms"),
    ("models.gpt_step_ms_tail", "ms"),
    ("models.resnet_step_ms_tail", "ms"),
    ("models.gpt_steps", "count"),
    ("models.resnet_steps", "count"),
    ("models.gpt_unattributed_frac", "frac"),
    ("models.resnet_unattributed_frac", "frac"),
    ("tensor.gpt_workspace_allocs_per_step", "count"),
    ("tensor.resnet_workspace_allocs_per_step", "count"),
    ("tensor.gpt_workspace_reuse_frac", "frac"),
    ("tensor.resnet_workspace_reuse_frac", "frac"),
    ("rayon.fanout_us", "us"),
    ("rayon.gpt_parallel_speedup", "x"),
    ("rayon.resnet_parallel_speedup", "x"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.attention_gflops", "GFLOP/s"),
    ("tensor.conv_gflops", "GFLOP/s"),
    ("tensor.adam_gbps", "GB/s"),
    ("tensor.peak_gflops", "GFLOP/s"),
    ("tensor.stream_gbps", "GB/s"),
    ("models.infer_tokens", "count"),
    ("models.infer_f32_step_ms_tail", "ms"),
    ("models.infer_bf16_step_ms_tail", "ms"),
    ("models.infer_int8_step_ms_tail", "ms"),
    ("models.infer_f32_prefill_ms_per_token", "ms"),
    ("models.infer_bf16_prefill_ms_per_token", "ms"),
    ("models.infer_int8_prefill_ms_per_token", "ms"),
    ("models.infer_f32_weight_bytes", "B"),
    ("models.infer_bf16_weight_bytes", "B"),
    ("models.infer_int8_weight_bytes", "B"),
    ("models.infer_f32_kv_bytes", "B"),
    ("models.infer_bf16_kv_bytes", "B"),
    ("models.infer_int8_kv_bytes", "B"),
    ("models.infer_f32_weight_gbps", "GB/s"),
    ("models.infer_bf16_weight_gbps", "GB/s"),
    ("models.infer_int8_weight_gbps", "GB/s"),
    ("models.infer_bf16_token_match", "frac"),
    ("models.infer_int8_token_match", "frac"),
    ("tensor.linear_f32_gbps", "GB/s"),
    ("tensor.linear_bf16_gbps", "GB/s"),
    ("tensor.linear_int8_gbps", "GB/s"),
    ("tensor.linear_f32_roof_frac", "frac"),
    ("tensor.linear_bf16_roof_frac", "frac"),
    ("tensor.linear_int8_roof_frac", "frac"),
    ("serve.trace_ms", "ms"),
    ("serve.simulate_ms", "ms"),
    ("serve.ns_per_decode_step", "ns"),
    ("serve.decode_steps", "count"),
    ("serve.shed", "count"),
    ("fleet.trace_ms", "ms"),
    ("fleet.simulate_ms", "ms"),
    ("fleet.ns_per_decode_step", "ns"),
    ("fleet.decode_steps", "count"),
    ("fleet.shed", "count"),
    ("fleet.handoffs", "count"),
    ("fleet.scale_events", "count"),
    ("fleet.round_robin_simulate_ms", "ms"),
    ("fleet.least_kv_load_simulate_ms", "ms"),
    ("fleet.session_affinity_simulate_ms", "ms"),
    ("fleet.disagg_autoscale_simulate_ms", "ms"),
    ("engine.energy_ms", "ms"),
    ("engine.energy_share", "frac"),
    ("engine.phases", "count"),
    ("engine.ns_per_phase", "ns"),
];

/// Metric values gathered during a run, keyed by declared name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        let fresh = self.0.insert(name.clone(), value).is_none();
        assert!(fresh, "metric {name} set twice");
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The `metrics` object of the result line, in declared order.
    /// Errors name every declared metric that is missing, every
    /// undeclared one that was set, and every value that is not finite.
    pub fn render(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut problems = Vec::new();
        for name in self.0.keys() {
            if !declared.iter().any(|(d, _)| d == name) {
                problems.push(format!("undeclared metric {name}"));
            }
        }
        let mut fields = Vec::new();
        for (name, unit) in declared {
            match self.0.get(*name) {
                None => problems.push(format!("missing metric {name}")),
                Some(v) if !v.is_finite() => problems.push(format!("{name} is {v}")),
                // Debug formatting of a finite f64 prints every digit
                // and is valid JSON (`3.0`, `1e-7`).
                Some(v) => fields.push(format!(
                    "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
                )),
            }
        }
        if problems.is_empty() {
            Ok(format!("{{{}}}", fields.join(", ")))
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared_in_benchmark_json(key: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
        json[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                )
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        assert_eq!(declared_in_benchmark_json("end_to_end"), owned(END_TO_END));
        assert_eq!(declared_in_benchmark_json("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn render_rejects_missing_undeclared_and_non_finite() {
        let declared = &[("a", "ms"), ("b", "s")];
        let mut m = Metrics::default();
        m.set("a", 1.5);
        assert!(m.render(declared).unwrap_err().contains("missing metric b"));
        m.set("b", f64::NAN);
        assert!(m.render(declared).unwrap_err().contains("b is NaN"));
        let mut m = Metrics::default();
        m.set("a", 1.5);
        m.set("b", 2.0);
        m.set("c", 0.0);
        assert!(m
            .render(declared)
            .unwrap_err()
            .contains("undeclared metric c"));
    }

    #[test]
    fn rendered_metrics_parse_as_json() {
        let mut m = Metrics::default();
        m.set("a", 0.1 + 0.2);
        m.set("b", 3.0);
        let text = m.render(&[("a", "ms"), ("b", "count")]).expect("renders");
        let v = serde_json::parse(&text).expect("valid JSON");
        assert_eq!(v["a"]["value"].as_f64(), Some(0.1 + 0.2));
        assert_eq!(v["b"]["unit"].as_str(), Some("count"));
    }
}
