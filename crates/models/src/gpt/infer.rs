//! Quantized GPT inference: KV-cached autoregressive decode at a
//! selectable storage precision.
//!
//! The training model ([`super::GptModel`]) runs everything in f32 on the
//! autograd tape. Inference has a different cost structure: the decode
//! path processes one token at a time, so every step streams the full
//! weight set (and the growing KV cache) through GEMV-shaped matmuls —
//! bytes, not FLOPs, are the bottleneck. [`GptInfer`] therefore holds the
//! weights and the KV cache in one of the [`Precision`] tiers:
//!
//! * `F32` — the correctness reference (identical math to the trainer up
//!   to kernel-order rounding),
//! * `Bf16` — 2 B/element storage, widened to f32 as the GEMM reads it
//!   ([`caraml_tensor::matmul::gemm_bf16_nt`]),
//! * `Int8` — per-channel symmetric quantization with the fused dequant
//!   epilogue ([`caraml_tensor::quant::gemm_i8_nt`]); the KV cache is
//!   quantized per token as it is appended.
//!
//! Activations, LayerNorm parameters, biases, and the output logits stay
//! f32 at every precision — only the large streamed operands shrink.
//!
//! Every linear layer of a decode step is an m = 1 product, which the
//! kernels run on their GEMV path: each weight row is streamed once at
//! storage width, unpacked (see [`caraml_tensor::matmul`]).

use super::config::GptConfig;
use super::model::GptModel;
use caraml_accel::Precision;
use caraml_tensor::quant::{Bf16Tensor, QTensor};
use caraml_tensor::{kernels, matmul, quant, simd};

/// A weight matrix in `[out, in]` layout stored at one precision tier.
enum WeightMat {
    F32 {
        data: Vec<f32>,
        rows: usize,
        cols: usize,
    },
    Bf16(Bf16Tensor),
    Int8(QTensor),
}

impl WeightMat {
    fn from_f32(data: &[f32], rows: usize, cols: usize, precision: Precision) -> WeightMat {
        assert_eq!(data.len(), rows * cols, "WeightMat shape mismatch");
        match precision {
            Precision::F32 => WeightMat::F32 {
                data: data.to_vec(),
                rows,
                cols,
            },
            Precision::Bf16 => WeightMat::Bf16(Bf16Tensor::from_f32(data, rows, cols)),
            Precision::Int8 => WeightMat::Int8(QTensor::quantize(data, rows, cols)),
        }
    }

    /// `out[m, rows] = x[m, cols] · Wᵀ + bias` with f32 activations.
    fn linear(&self, x: &[f32], m: usize, bias: Option<&[f32]>, out: &mut [f32]) {
        match self {
            WeightMat::F32 { data, rows, cols } => {
                matmul::gemm_nt(x, data, out, m, *cols, *rows);
                if let Some(bias) = bias {
                    for row in out.chunks_mut(*rows) {
                        for (o, &b) in row.iter_mut().zip(bias) {
                            *o += b;
                        }
                    }
                }
            }
            WeightMat::Bf16(t) => quant::linear_bf16(x, m, t, bias, out),
            WeightMat::Int8(t) => quant::linear_i8(x, m, t, bias, out),
        }
    }

    /// One row widened to f32 (the embedding lookup).
    fn row_into(&self, r: usize, out: &mut [f32]) {
        match self {
            WeightMat::F32 { data, cols, .. } => {
                out.copy_from_slice(&data[r * cols..(r + 1) * cols])
            }
            WeightMat::Bf16(t) => {
                for (o, &b) in out
                    .iter_mut()
                    .zip(&t.bits()[r * t.cols()..(r + 1) * t.cols()])
                {
                    *o = quant::bf16_to_f32(b);
                }
            }
            WeightMat::Int8(t) => t.dequantize_row_into(r, out),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            WeightMat::F32 { data, .. } => 4 * data.len(),
            WeightMat::Bf16(t) => t.storage_bytes(),
            WeightMat::Int8(t) => t.storage_bytes(),
        }
    }
}

/// One layer's KV cache: rows are tokens, columns the full hidden width
/// (all heads concatenated). int8 rows carry one scale per token.
enum KvCache {
    F32 { data: Vec<f32>, cols: usize },
    Bf16(Bf16Tensor),
    Int8(QTensor),
}

impl KvCache {
    fn new(precision: Precision, cols: usize) -> KvCache {
        match precision {
            Precision::F32 => KvCache::F32 {
                data: Vec::new(),
                cols,
            },
            Precision::Bf16 => KvCache::Bf16(Bf16Tensor::new(cols)),
            Precision::Int8 => KvCache::Int8(QTensor::new(cols)),
        }
    }

    fn push(&mut self, row: &[f32]) {
        match self {
            KvCache::F32 { data, cols } => {
                debug_assert_eq!(row.len(), *cols);
                data.extend_from_slice(row);
            }
            KvCache::Bf16(t) => t.push_row(row),
            KvCache::Int8(t) => t.push_row(row),
        }
    }

    fn len(&self) -> usize {
        match self {
            KvCache::F32 { data, cols } => data.len() / *cols,
            KvCache::Bf16(t) => t.rows(),
            KvCache::Int8(t) => t.rows(),
        }
    }

    /// Widen the whole cache into `dst` (`len·cols` f32).
    fn dequantize_into(&self, dst: &mut [f32]) {
        match self {
            KvCache::F32 { data, .. } => dst.copy_from_slice(data),
            KvCache::Bf16(t) => t.to_f32_into(dst),
            KvCache::Int8(t) => t.dequantize_into(dst),
        }
    }

    fn storage_bytes(&self) -> usize {
        match self {
            KvCache::F32 { data, .. } => 4 * data.len(),
            KvCache::Bf16(t) => t.storage_bytes(),
            KvCache::Int8(t) => t.storage_bytes(),
        }
    }
}

struct InferBlock {
    ln1_g: Vec<f32>,
    ln1_b: Vec<f32>,
    wq: WeightMat,
    wk: WeightMat,
    wv: WeightMat,
    wo: WeightMat,
    ln2_g: Vec<f32>,
    ln2_b: Vec<f32>,
    w_fc1: WeightMat,
    b_fc1: Vec<f32>,
    w_fc2: WeightMat,
    b_fc2: Vec<f32>,
}

/// KV-cached autoregressive GPT decoder at a selectable precision.
pub struct GptInfer {
    config: GptConfig,
    precision: Precision,
    /// `[vocab, h]`, weight-tied: embedding lookup and logits projection.
    embedding: WeightMat,
    blocks: Vec<InferBlock>,
    lnf_g: Vec<f32>,
    lnf_b: Vec<f32>,
    /// Per layer: (K cache, V cache).
    kv: Vec<(KvCache, KvCache)>,
    pos: usize,
}

impl GptInfer {
    /// Snapshot a trained model's weights into the given precision tier.
    pub fn from_model(model: &GptModel, precision: Precision) -> GptInfer {
        let cfg = model.config().clone();
        let h = cfg.hidden;
        let vec_of = |v: &caraml_tensor::Var| v.value().data().to_vec();
        let mat_of = |v: &caraml_tensor::Var, rows: usize, cols: usize| {
            WeightMat::from_f32(v.value().data(), rows, cols, precision)
        };
        let blocks = model
            .blocks()
            .iter()
            .map(|b| InferBlock {
                ln1_g: vec_of(&b.ln1_g),
                ln1_b: vec_of(&b.ln1_b),
                wq: mat_of(&b.wq, h, h),
                wk: mat_of(&b.wk, h, h),
                wv: mat_of(&b.wv, h, h),
                wo: mat_of(&b.wo, h, h),
                ln2_g: vec_of(&b.ln2_g),
                ln2_b: vec_of(&b.ln2_b),
                w_fc1: mat_of(&b.w_fc1, 4 * h, h),
                b_fc1: vec_of(&b.b_fc1),
                w_fc2: mat_of(&b.w_fc2, h, 4 * h),
                b_fc2: vec_of(&b.b_fc2),
            })
            .collect();
        let embedding = mat_of(model.embedding_var(), cfg.vocab, h);
        let (lnf_g, lnf_b) = model.lnf();
        let (lnf_g, lnf_b) = (vec_of(lnf_g), vec_of(lnf_b));
        Self::assemble(cfg, precision, embedding, blocks, lnf_g, lnf_b)
    }

    /// Deterministic pseudo-random weights at GPT-2 initialization scale,
    /// without paying the trainer's ChaCha/Gaussian setup — the benchmark
    /// constructor for decode-throughput measurements.
    pub fn synthetic(config: GptConfig, seed: u64, precision: Precision) -> GptInfer {
        config.validate().expect("invalid GPT configuration");
        let h = config.hidden;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
        let mut fill = |n: usize, std: f32| -> Vec<f32> {
            (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    ((state >> 11) as f32 / (1u64 << 53) as f32).mul_add(2.0 * std, -std)
                })
                .collect()
        };
        let mut mat = |rows: usize, cols: usize| {
            let data = fill(rows * cols, 0.02);
            WeightMat::from_f32(&data, rows, cols, precision)
        };
        let blocks = (0..config.layers)
            .map(|_| InferBlock {
                ln1_g: vec![1.0; h],
                ln1_b: vec![0.0; h],
                wq: mat(h, h),
                wk: mat(h, h),
                wv: mat(h, h),
                wo: mat(h, h),
                ln2_g: vec![1.0; h],
                ln2_b: vec![0.0; h],
                w_fc1: mat(4 * h, h),
                b_fc1: vec![0.0; 4 * h],
                w_fc2: mat(h, 4 * h),
                b_fc2: vec![0.0; h],
            })
            .collect();
        let embedding = mat(config.vocab, h);
        let (lnf_g, lnf_b) = (vec![1.0; h], vec![0.0; h]);
        Self::assemble(config, precision, embedding, blocks, lnf_g, lnf_b)
    }

    fn assemble(
        config: GptConfig,
        precision: Precision,
        embedding: WeightMat,
        blocks: Vec<InferBlock>,
        lnf_g: Vec<f32>,
        lnf_b: Vec<f32>,
    ) -> GptInfer {
        let kv = (0..config.layers)
            .map(|_| {
                (
                    KvCache::new(precision, config.hidden),
                    KvCache::new(precision, config.hidden),
                )
            })
            .collect();
        GptInfer {
            config,
            precision,
            embedding,
            blocks,
            lnf_g,
            lnf_b,
            kv,
            pos: 0,
        }
    }

    pub fn config(&self) -> &GptConfig {
        &self.config
    }

    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Tokens currently held in the KV cache.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Drop the KV cache and restart from position 0.
    pub fn reset(&mut self) {
        let p = self.precision;
        let h = self.config.hidden;
        for (k, v) in &mut self.kv {
            *k = KvCache::new(p, h);
            *v = KvCache::new(p, h);
        }
        self.pos = 0;
    }

    /// Resident weight bytes at this precision tier.
    pub fn weight_bytes(&self) -> usize {
        self.embedding.storage_bytes()
            + self
                .blocks
                .iter()
                .map(|b| {
                    b.wq.storage_bytes()
                        + b.wk.storage_bytes()
                        + b.wv.storage_bytes()
                        + b.wo.storage_bytes()
                        + b.w_fc1.storage_bytes()
                        + b.w_fc2.storage_bytes()
                })
                .sum::<usize>()
    }

    /// Bytes the KV cache currently occupies.
    pub fn kv_bytes(&self) -> usize {
        self.kv
            .iter()
            .map(|(k, v)| k.storage_bytes() + v.storage_bytes())
            .sum()
    }

    /// Feed a prompt token by token; returns the logits after the last
    /// prompt token (the distribution over the first generated token).
    pub fn prefill(&mut self, tokens: &[u32]) -> Vec<f32> {
        assert!(!tokens.is_empty(), "prefill needs at least one token");
        let mut logits = Vec::new();
        for &t in tokens {
            logits = self.decode_step(t);
        }
        logits
    }

    /// One decode step: append `token` to the context and return the f32
    /// logits `[vocab]` for the next position.
    pub fn decode_step(&mut self, token: u32) -> Vec<f32> {
        let h = self.config.hidden;
        let heads = self.config.heads;
        let hd = self.config.head_dim();
        let vocab = self.config.vocab;
        assert!((token as usize) < vocab, "token id out of range");
        assert!(
            self.pos < self.config.seq_len,
            "context window exhausted ({} tokens)",
            self.config.seq_len
        );
        let scale = 1.0 / (hd as f32).sqrt();
        let fma = simd::fma_chains();

        let mut x = vec![0.0f32; h];
        self.embedding.row_into(token as usize, &mut x);

        // Row-sized scratch shared across layers.
        let mut xhat = vec![0.0f32; h];
        let mut inv_std = vec![0.0f32; 1];
        let mut a_in = vec![0.0f32; h];
        let mut q = vec![0.0f32; h];
        let mut k = vec![0.0f32; h];
        let mut v = vec![0.0f32; h];
        let mut attn = vec![0.0f32; h];
        let mut proj = vec![0.0f32; h];
        let mut pre = vec![0.0f32; 4 * h];
        let mut act = vec![0.0f32; 4 * h];

        for (block, (kc, vc)) in self.blocks.iter().zip(&mut self.kv) {
            // --- attention ---
            kernels::layernorm_rows(
                &x,
                &block.ln1_g,
                &block.ln1_b,
                1e-5,
                &mut a_in,
                &mut xhat,
                &mut inv_std,
            );
            block.wq.linear(&a_in, 1, None, &mut q);
            block.wk.linear(&a_in, 1, None, &mut k);
            block.wv.linear(&a_in, 1, None, &mut v);
            rope_inplace(&mut q, self.pos, heads, hd);
            rope_inplace(&mut k, self.pos, heads, hd);
            kc.push(&k);
            vc.push(&v);

            let len = kc.len();
            let mut kbuf = vec![0.0f32; len * h];
            let mut vbuf = vec![0.0f32; len * h];
            kc.dequantize_into(&mut kbuf);
            vc.dequantize_into(&mut vbuf);
            let mut scores = vec![0.0f32; len];
            let mut probs = vec![0.0f32; len];
            attn.fill(0.0);
            for t in 0..heads {
                let qh = &q[t * hd..(t + 1) * hd];
                for (j, s) in scores.iter_mut().enumerate() {
                    *s = scale * simd::dot8(qh, &kbuf[j * h + t * hd..j * h + (t + 1) * hd], fma);
                }
                kernels::softmax_rows(&scores, &mut probs, len);
                let out = &mut attn[t * hd..(t + 1) * hd];
                for (j, &p) in probs.iter().enumerate() {
                    let vj = &vbuf[j * h + t * hd..j * h + (t + 1) * hd];
                    for (o, &vv) in out.iter_mut().zip(vj) {
                        *o = simd::fmadd(p, vv, *o, fma);
                    }
                }
            }
            block.wo.linear(&attn, 1, None, &mut proj);
            for (xi, &pi) in x.iter_mut().zip(&proj) {
                *xi += pi;
            }

            // --- MLP ---
            kernels::layernorm_rows(
                &x,
                &block.ln2_g,
                &block.ln2_b,
                1e-5,
                &mut a_in,
                &mut xhat,
                &mut inv_std,
            );
            block.w_fc1.linear(&a_in, 1, Some(&block.b_fc1), &mut pre);
            kernels::gelu_into(&pre, &mut act);
            block.w_fc2.linear(&act, 1, Some(&block.b_fc2), &mut proj);
            for (xi, &fi) in x.iter_mut().zip(&proj) {
                *xi += fi;
            }
        }

        kernels::layernorm_rows(
            &x,
            &self.lnf_g,
            &self.lnf_b,
            1e-5,
            &mut a_in,
            &mut xhat,
            &mut inv_std,
        );
        let mut logits = vec![0.0f32; vocab];
        self.embedding.linear(&a_in, 1, None, &mut logits);
        self.pos += 1;
        logits
    }
}

/// Rotary embedding of one token's `[heads·hd]` vector at `pos` — the
/// same per-element expression as the training kernel's rope table
/// ([`caraml_tensor::kernels`]), applied to a single position.
fn rope_inplace(x: &mut [f32], pos: usize, heads: usize, hd: usize) {
    for t in 0..heads {
        let row = &mut x[t * hd..(t + 1) * hd];
        for i in 0..hd / 2 {
            let theta = (pos as f32) * 10000f32.powf(-2.0 * i as f32 / hd as f32);
            let (s, c) = theta.sin_cos();
            let a = row[2 * i];
            let b = row[2 * i + 1];
            row[2 * i] = a * c - b * s;
            row[2 * i + 1] = a * s + b * c;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg() -> GptConfig {
        GptConfig::tiny(50, 8)
    }

    fn rel_l2(a: &[f32], b: &[f32]) -> f32 {
        let num: f32 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
        let den: f32 = b.iter().map(|y| y * y).sum();
        (num / den.max(1e-12)).sqrt()
    }

    #[test]
    fn f32_decode_matches_training_forward() {
        let model = GptModel::new(tiny_cfg(), 3);
        let mut infer = GptInfer::from_model(&model, Precision::F32);
        let tokens: Vec<u32> = vec![5, 1, 47, 12, 30, 2, 8, 19];
        let full = model.forward(std::slice::from_ref(&tokens)).value();
        let v = 50;
        for (pos, &t) in tokens.iter().enumerate() {
            let logits = infer.decode_step(t);
            let reference = &full.data()[pos * v..(pos + 1) * v];
            let rel = rel_l2(&logits, reference);
            assert!(rel < 1e-3, "position {pos}: rel L2 {rel}");
        }
    }

    #[test]
    fn quantized_tiers_track_f32() {
        let model = GptModel::new(tiny_cfg(), 4);
        let tokens: Vec<u32> = vec![9, 3, 27, 44, 11, 6];
        let run = |precision| {
            let mut infer = GptInfer::from_model(&model, precision);
            infer.prefill(&tokens)
        };
        let f32_logits = run(Precision::F32);
        let bf16_logits = run(Precision::Bf16);
        let int8_logits = run(Precision::Int8);
        let bf16_rel = rel_l2(&bf16_logits, &f32_logits);
        let int8_rel = rel_l2(&int8_logits, &f32_logits);
        assert!(bf16_rel < 0.05, "bf16 rel L2 {bf16_rel}");
        assert!(int8_rel < 0.35, "int8 rel L2 {int8_rel}");
        // bf16 carries 8 mantissa bits, int8 7 levels-per-decade: the
        // coarser tier must actually be coarser, and neither is exact.
        assert!(bf16_rel > 0.0 && int8_rel > bf16_rel);
    }

    #[test]
    fn kv_and_weight_bytes_shrink_with_precision() {
        let cfg = tiny_cfg();
        let sizes: Vec<(usize, usize)> = Precision::ALL
            .iter()
            .map(|&p| {
                let mut infer = GptInfer::synthetic(cfg.clone(), 1, p);
                infer.prefill(&[1, 2, 3, 4]);
                (infer.weight_bytes(), infer.kv_bytes())
            })
            .collect();
        // Sweep order is widest-first: f32 > bf16 > int8 on both axes.
        assert!(
            sizes[0].0 > sizes[1].0 && sizes[1].0 > sizes[2].0,
            "{sizes:?}"
        );
        assert!(
            sizes[0].1 > sizes[1].1 && sizes[1].1 > sizes[2].1,
            "{sizes:?}"
        );
        // bf16 KV is exactly half of f32; int8 is 1 byte + scale share.
        assert_eq!(sizes[0].1, 2 * sizes[1].1);
    }

    #[test]
    fn reset_reproduces_logits() {
        let mut infer = GptInfer::synthetic(tiny_cfg(), 9, Precision::Int8);
        let first = infer.prefill(&[4, 8, 15]);
        assert_eq!(infer.pos(), 3);
        infer.reset();
        assert_eq!(infer.pos(), 0);
        assert_eq!(infer.kv_bytes(), 0);
        let second = infer.prefill(&[4, 8, 15]);
        assert_eq!(first, second);
    }

    #[test]
    fn synthetic_matches_cost_model_weight_bytes() {
        let cfg = tiny_cfg();
        let cost = super::super::cost::GptCost::new(cfg.clone());
        for &p in &Precision::ALL {
            let infer = GptInfer::synthetic(cfg.clone(), 2, p);
            let analytic = cost.weight_bytes(p) as f64;
            let real = infer.weight_bytes() as f64;
            // The analytic count includes LN/bias params this tier keeps
            // in f32, and int8 adds scale vectors: a few percent apart.
            let rel = (real - analytic).abs() / analytic;
            assert!(rel < 0.10, "{p}: analytic {analytic} vs real {real}");
        }
    }

    #[test]
    #[should_panic(expected = "context window exhausted")]
    fn context_window_is_enforced() {
        let mut infer = GptInfer::synthetic(GptConfig::tiny(16, 4), 0, Precision::F32);
        for t in 0..5 {
            infer.decode_step(t);
        }
    }
}
