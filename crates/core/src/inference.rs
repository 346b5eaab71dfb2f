//! LLM inference benchmark — an implemented "future work" item.
//!
//! §VI: "We also aim to expand the suite by including additional AI
//! training and inference benchmarks." This module adds the natural LLM
//! inference counterpart to the training benchmark, exercising the part
//! of the roofline the training path never reaches: autoregressive
//! *decode* is memory-bandwidth-bound (every generated token re-reads all
//! weights plus the KV cache), while *prefill* is compute-bound like
//! training. Batching requests raises decode's arithmetic intensity until
//! it crosses the ridge point — the classic inference throughput/latency
//! trade-off.

use crate::engine::{self, Executed, MeterSpec, PhasePlan, PhaseSpec, RunContext};
use crate::fleet::ServeCost;
use caraml_accel::{AccelError, PhaseKind, Precision, SystemId};
use caraml_models::GptConfig;
use serde::{Deserialize, Serialize};

/// Figures of merit of one inference measurement point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceFom {
    pub system: String,
    /// Storage precision of weights and KV cache.
    pub precision: Precision,
    /// Concurrent requests served (batch size).
    pub batch: u32,
    /// Prompt length in tokens.
    pub prompt_tokens: u64,
    /// Tokens generated per request.
    pub generated_tokens: u64,
    /// Time to first token (prefill latency), seconds.
    pub ttft_s: f64,
    /// Aggregate decode throughput, tokens/s.
    pub decode_tokens_per_s: f64,
    /// Prefill throughput, tokens/s.
    pub prefill_tokens_per_s: f64,
    /// Whether decode was memory-bandwidth-bound.
    pub decode_memory_bound: bool,
    /// Energy per 1000 generated tokens, Wh.
    pub energy_wh_per_ktoken: f64,
}

/// A single-device LLM inference benchmark.
#[derive(Debug, Clone)]
pub struct InferenceBenchmark {
    pub system: SystemId,
    pub model: GptConfig,
    pub prompt_tokens: u64,
    pub generated_tokens: u64,
    /// Storage precision of weights and KV cache (default bf16 — the
    /// deployment the device models were calibrated against).
    pub precision: Precision,
}

impl InferenceBenchmark {
    /// Default setup: 800M GPT, 512-token prompts, 128 generated tokens.
    pub fn new(system: SystemId) -> Self {
        InferenceBenchmark {
            system,
            model: GptConfig::gpt_800m(),
            prompt_tokens: 512,
            generated_tokens: 128,
            precision: Precision::default(),
        }
    }

    /// Same benchmark at a different storage precision.
    pub fn with_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        self
    }

    /// Run with `batch` concurrent requests on one device.
    pub fn run(&self, batch: u32) -> Result<InferenceFom, AccelError> {
        engine::execute(&InferenceWorkload { bench: self, batch }).into_result()
    }
}

/// One batch point of [`InferenceBenchmark`] as an engine workload.
pub struct InferenceWorkload<'a> {
    pub bench: &'a InferenceBenchmark,
    pub batch: u32,
}

/// Cost-model state carried from planning to FOM extraction.
pub struct InferencePlanState {
    ttft: f64,
    decode_tokens_per_s: f64,
    prefill_tokens: u64,
    decode_memory_bound: bool,
    generated: f64,
}

impl engine::Workload for InferenceWorkload<'_> {
    type Plan = InferencePlanState;
    type Output = InferenceFom;

    fn system(&self) -> SystemId {
        self.bench.system
    }

    fn plan(&self, ctx: &RunContext) -> Result<(InferencePlanState, PhasePlan), AccelError> {
        let bench = self.bench;
        let batch = self.batch;
        if batch == 0 {
            return Err(AccelError::InvalidConfig("batch must be positive".into()));
        }
        if bench.system == SystemId::Gc200 {
            return Err(AccelError::InvalidConfig(
                "inference path models the GPU systems".into(),
            ));
        }
        let spec = ctx.device(0).spec();
        let cost = ServeCost::new(spec, &bench.model, bench.precision);

        // Weights + KV cache at the selected precision must fit.
        let weight_bytes = cost.weight_bytes;
        let kv_total = (cost.kv_bytes_per_token
            * (bench.prompt_tokens + bench.generated_tokens) as f64
            * f64::from(batch)) as u64;
        if weight_bytes + kv_total > spec.mem_bytes {
            return Err(AccelError::OutOfMemory {
                device: spec.name.clone(),
                requested: weight_bytes + kv_total,
                available: spec.mem_bytes,
                capacity: spec.mem_bytes,
            });
        }

        // --- prefill: all prompt tokens of all requests, compute-bound
        // like a training forward pass. ---
        let prefill_tokens = bench.prompt_tokens * u64::from(batch);
        let (ttft, u_prefill) = cost.prefill(prefill_tokens);

        // --- decode: one token per request per step; every step re-reads
        // all weights plus each request's KV cache. ---
        let steps = bench.generated_tokens;
        let kv_read_per_step = cost.kv_bytes_per_token
            * (bench.prompt_tokens + bench.generated_tokens / 2) as f64
            * f64::from(batch);
        let (step_s, u_decode, compute_bound) = cost.decode_step(batch, kv_read_per_step);
        let t_decode = step_s * steps as f64;
        let decode_tokens_per_s = (steps * u64::from(batch)) as f64 / t_decode;

        // --- the power phases jpwr will measure ---
        let total = ttft + t_decode;

        let phase_plan = PhasePlan {
            allocations: vec![],
            phases: vec![
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "prefill",
                    active: 1,
                    duration_s: ttft,
                    utilization: u_prefill,
                    sustained_w: spec.llm.sustained_w,
                },
                PhaseSpec {
                    kind: PhaseKind::Compute,
                    label: "autoregressive decode",
                    active: 1,
                    duration_s: t_decode,
                    utilization: u_decode,
                    sustained_w: spec.llm.sustained_w,
                },
            ],
            meter: MeterSpec {
                devices: 1,
                prefix: "dev",
                method: "pynvml",
                interval_s: (total / 500.0).max(1e-4),
                window: (0.0, total),
            },
            timeline_devices: 0,
        };
        Ok((
            InferencePlanState {
                ttft,
                decode_tokens_per_s,
                prefill_tokens,
                decode_memory_bound: !compute_bound,
                generated: (steps * u64::from(batch)) as f64,
            },
            phase_plan,
        ))
    }

    fn finish(&self, plan: InferencePlanState, exec: Executed, ctx: &RunContext) -> InferenceFom {
        let bench = self.bench;
        let energy_wh = exec.measurement.df.energy_wh(0);
        InferenceFom {
            system: ctx.config().platform.clone(),
            precision: bench.precision,
            batch: self.batch,
            prompt_tokens: bench.prompt_tokens,
            generated_tokens: bench.generated_tokens,
            ttft_s: plan.ttft,
            decode_tokens_per_s: plan.decode_tokens_per_s,
            prefill_tokens_per_s: plan.prefill_tokens as f64 / plan.ttft,
            decode_memory_bound: plan.decode_memory_bound,
            energy_wh_per_ktoken: energy_wh * 1000.0 / plan.generated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench(system: SystemId) -> InferenceBenchmark {
        InferenceBenchmark::new(system)
    }

    #[test]
    fn decode_is_memory_bound_at_batch_1() {
        for sys in [
            SystemId::A100,
            SystemId::H100Jrdc,
            SystemId::WaiH100,
            SystemId::Gh200Jrdc,
            SystemId::Mi250,
        ] {
            let fom = bench(sys).run(1).unwrap();
            assert!(
                fom.decode_memory_bound,
                "{sys:?}: single-stream decode must be bandwidth-bound"
            );
        }
    }

    #[test]
    fn prefill_is_compute_bound() {
        let fom = bench(SystemId::A100).run(1).unwrap();
        // Prefill throughput is orders of magnitude above decode.
        assert!(fom.prefill_tokens_per_s > 20.0 * fom.decode_tokens_per_s);
    }

    #[test]
    fn decode_throughput_tracks_memory_bandwidth() {
        // Single-stream decode ≈ bw / bytes-per-token, so the GH200/A100
        // ratio must approach their HBM bandwidth ratio (4000/1555).
        let gh = bench(SystemId::Gh200Jrdc).run(1).unwrap();
        let a100 = bench(SystemId::A100).run(1).unwrap();
        let ratio = gh.decode_tokens_per_s / a100.decode_tokens_per_s;
        let bw_ratio = 4000.0 / 1555.0;
        assert!(
            (ratio - bw_ratio).abs() / bw_ratio < 0.15,
            "decode ratio {ratio:.2} vs bandwidth ratio {bw_ratio:.2}"
        );
    }

    #[test]
    fn batching_raises_decode_throughput_sublinearly() {
        let b = bench(SystemId::H100Jrdc);
        let t1 = b.run(1).unwrap().decode_tokens_per_s;
        let t8 = b.run(8).unwrap().decode_tokens_per_s;
        let t64 = b.run(64).unwrap().decode_tokens_per_s;
        assert!(t8 > 4.0 * t1, "batching amortizes weight reads");
        assert!(t64 > t8);
        assert!(t64 < 64.0 * t1, "KV reads keep scaling with batch");
    }

    #[test]
    fn large_batches_cross_into_compute_bound() {
        let b = bench(SystemId::A100);
        // Somewhere before batch 512 the A100 decode becomes
        // compute-bound (or OOMs on KV cache — also acceptable evidence
        // of the crossover region).
        let mut crossed = false;
        for batch in [1u32, 8, 32, 128, 256, 512] {
            match b.run(batch) {
                Ok(fom) if !fom.decode_memory_bound => {
                    crossed = true;
                    break;
                }
                Err(e) if e.is_oom() => {
                    crossed = true;
                    break;
                }
                _ => {}
            }
        }
        assert!(crossed, "decode never left the bandwidth roof");
    }

    #[test]
    fn ttft_grows_with_prompt_length() {
        let mut b = bench(SystemId::A100);
        let short = b.run(4).unwrap().ttft_s;
        b.prompt_tokens = 2048;
        let long = b.run(4).unwrap().ttft_s;
        assert!(long > 2.0 * short);
    }

    #[test]
    fn kv_cache_oom_on_extreme_batch() {
        let mut b = bench(SystemId::A100);
        b.prompt_tokens = 2048;
        b.generated_tokens = 2048;
        // 800M KV cache: 2·2·16·2048 B/token ≈ 131 KB/token · 4096
        // tokens · batch — a batch of 16k blows 40 GB.
        let err = b.run(16384).unwrap_err();
        assert!(err.is_oom());
    }

    #[test]
    fn energy_per_token_improves_with_batching() {
        let b = bench(SystemId::Gh200Jrdc);
        let e1 = b.run(1).unwrap().energy_wh_per_ktoken;
        let e32 = b.run(32).unwrap().energy_wh_per_ktoken;
        assert!(e32 < e1, "batching must amortize idle+weight energy");
    }

    #[test]
    fn quantization_speeds_up_memory_bound_decode() {
        // Batch-1 decode streams weights+KV every step: halving the bytes
        // must raise throughput nearly proportionally and cut energy per
        // token.
        let b = bench(SystemId::A100);
        let f32_fom = b.clone().with_precision(Precision::F32).run(1).unwrap();
        let bf16_fom = b.clone().with_precision(Precision::Bf16).run(1).unwrap();
        let int8_fom = b.with_precision(Precision::Int8).run(1).unwrap();
        assert!(bf16_fom.decode_tokens_per_s > 1.5 * f32_fom.decode_tokens_per_s);
        assert!(int8_fom.decode_tokens_per_s > 1.5 * bf16_fom.decode_tokens_per_s);
        assert!(int8_fom.energy_wh_per_ktoken < bf16_fom.energy_wh_per_ktoken);
        assert_eq!(int8_fom.precision, Precision::Int8);
    }

    #[test]
    fn default_precision_preserves_fp16_calibration() {
        // The pre-existing calibrated numbers were computed with
        // 2 B/element weights: the default must reproduce them.
        let default_fom = bench(SystemId::A100).run(4).unwrap();
        let bf16_fom = bench(SystemId::A100)
            .with_precision(Precision::Bf16)
            .run(4)
            .unwrap();
        assert_eq!(
            default_fom.decode_tokens_per_s,
            bf16_fom.decode_tokens_per_s
        );
    }

    #[test]
    fn ipu_rejected_and_zero_batch_rejected() {
        assert!(bench(SystemId::Gc200).run(1).is_err());
        assert!(bench(SystemId::A100).run(0).is_err());
    }
}
