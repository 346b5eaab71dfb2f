//! Kernel rates at the workloads' own shapes, the same-arm roofs to
//! compare them against, and the parallel runtime's costs. These run
//! only in the traced run, after both passes.
//!
//! FLOPs and bytes are computed from the shapes, not counted by hardware.

use crate::stats::median;
use crate::train;
use caraml_tensor::attention::fused_causal_attention;
use caraml_tensor::conv::{conv2d, Conv2dCfg};
use caraml_tensor::matmul::gemm_nt;
use caraml_tensor::quant::{self, Bf16Tensor, QTensor};
use caraml_tensor::{simd, Tensor};
use rayon::prelude::*;
use std::hint::black_box;
use std::time::Instant;

/// Median wall time of one call of `f`, seconds: `samples` samples of
/// `reps` calls each, after one warm-up call.
fn per_call_s(samples: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            t0.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&times)
}

/// Deterministic values in [-0.5, 0.5).
fn filled(n: usize, salt: u64) -> Vec<f32> {
    (0..n as u64)
        .map(|i| ((i.wrapping_add(salt).wrapping_mul(2_654_435_761) % 1009) as f32) / 1009.0 - 0.5)
        .collect()
}

/// GFLOP/s of `gemm_nt` on an m×k by (n×k)ᵀ problem.
pub fn gemm_gflops(m: usize, k: usize, n: usize, samples: usize, reps: usize) -> f64 {
    let a = filled(m * k, 1);
    let b = filled(n * k, 2);
    let mut c = vec![0.0; m * n];
    let s = per_call_s(samples, reps, || {
        gemm_nt(black_box(&a), black_box(&b), &mut c, m, k, n);
        black_box(&c);
    });
    2.0 * (m * k * n) as f64 / s / 1e9
}

/// GFLOP/s of fused causal attention on the GPT's per-head shape:
/// QKᵀ and PV over the causal triangle.
pub fn attention_gflops() -> f64 {
    let cfg = train::gpt_config(train::GPT_VOCAB);
    let (bh, s, d) = (train::GPT_BATCH * cfg.heads, cfg.seq_len, cfg.head_dim());
    let q = Tensor::from_vec(filled(bh * s * d, 3), [bh, s, d]);
    let k = Tensor::from_vec(filled(bh * s * d, 4), [bh, s, d]);
    let v = Tensor::from_vec(filled(bh * s * d, 5), [bh, s, d]);
    let scale = 1.0 / (d as f32).sqrt();
    let t = per_call_s(9, 50, || {
        black_box(fused_causal_attention(&q, &k, &v, scale));
    });
    let flops = 2.0 * 2.0 * (bh * d * s * (s + 1) / 2) as f64;
    flops / t / 1e9
}

/// GFLOP/s of the tiny ResNet's first-stage 3×3 convolution.
pub fn conv_gflops() -> f64 {
    let cfg = train::resnet_config();
    let (n, c, hw) = (train::RESNET_BATCH, cfg.base_channels, cfg.input_size);
    let x = Tensor::from_vec(filled(n * c * hw * hw, 6), [n, c, hw, hw]);
    let w = Tensor::from_vec(filled(c * c * 9, 7), [c, c, 3, 3]);
    let cfg = Conv2dCfg {
        stride: 1,
        padding: 1,
    };
    let t = per_call_s(9, 10, || {
        black_box(conv2d(&x, &w, cfg).expect("conv shapes match"));
    });
    2.0 * (n * c * hw * hw * c * 9) as f64 / t / 1e9
}

/// GB/s of a parallel streaming read of 256 MiB, far past the last-level
/// cache, on the same SIMD arm and workers as the kernels.
pub fn stream_gbps() -> f64 {
    let data = filled(64 << 20, 8);
    let chunk = data.len().div_ceil(rayon::current_num_threads());
    let t = per_call_s(5, 1, || {
        let sum: f32 = data.par_chunks(chunk).map(simd::sum8).sum();
        black_box(sum);
    });
    (data.len() * std::mem::size_of::<f32>()) as f64 / t / 1e9
}

/// GB/s of weight bytes streamed by the public linear kernels at m = 1
/// on the decode model's MLP weight shape, in f32, bf16 and int8.
pub fn linear_gbps(hidden: usize) -> [f64; 3] {
    let (rows, cols) = (4 * hidden, hidden);
    let x = filled(cols, 9);
    let mut out = vec![0.0; rows];
    let f32_gbps = weight_gbps(
        |i| filled(rows * cols, i),
        |w| w.len() * std::mem::size_of::<f32>(),
        |w| {
            gemm_nt(&x, w, &mut out, 1, cols, rows);
            black_box(&out);
        },
    );
    let bf16_gbps = weight_gbps(
        |i| Bf16Tensor::from_f32(&filled(rows * cols, i), rows, cols),
        Bf16Tensor::storage_bytes,
        |w| {
            quant::linear_bf16(&x, 1, w, None, &mut out);
            black_box(&out);
        },
    );
    let int8_gbps = weight_gbps(
        |i| QTensor::quantize(&filled(rows * cols, i), rows, cols),
        QTensor::storage_bytes,
        |w| {
            quant::linear_i8(&x, 1, w, None, &mut out);
            black_box(&out);
        },
    );
    [f32_gbps, bf16_gbps, int8_gbps]
}

/// GB/s of `call` over weight matrices made by `make`. Each call reads a
/// different matrix from a set of 128 MiB, so the weights come from
/// memory as they do in decode.
fn weight_gbps<W>(
    make: impl Fn(u64) -> W,
    bytes: impl Fn(&W) -> usize,
    mut call: impl FnMut(&W),
) -> f64 {
    let first = make(0);
    let per_matrix = bytes(&first);
    let set: Vec<W> = std::iter::once(first)
        .chain((1..(128 << 20) / per_matrix as u64).map(make))
        .collect();
    let mut i = 0;
    let s = per_call_s(5, set.len(), || {
        call(&set[i % set.len()]);
        i += 1;
    });
    per_matrix as f64 / s / 1e9
}

/// Median cost of one empty parallel call over `nproc` items, µs.
pub fn fanout_us() -> f64 {
    let n = rayon::current_num_threads();
    per_call_s(21, 10, || {
        (0..n).into_par_iter().for_each(|i| {
            black_box(i);
        })
    }) * 1e6
}

/// Median train step on the default pool relative to a one-worker pool,
/// for the GPT and the ResNet. Steps alternate between the two pools so
/// both see the same host noise.
pub fn parallel_speedup(seed: u64, steps: usize) -> (f64, f64) {
    let (mut state, _) = train::setup(seed);
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("a one-worker pool");
    let mut off = crate::trace::Tracer::new(false);
    // Step seconds per model (GPT, ResNet), per pool (default, one worker).
    let mut secs = [[Vec::new(), Vec::new()], [Vec::new(), Vec::new()]];
    for i in 0..2 * steps {
        let pool = i % 2;
        let time = |f: &mut dyn FnMut()| {
            let t0 = Instant::now();
            if pool == 0 {
                f();
            } else {
                one.install(&mut *f);
            }
            t0.elapsed().as_secs_f64()
        };
        let g = time(&mut || {
            train::gpt_step(&mut state, &mut off, 0);
        });
        let r = time(&mut || {
            train::resnet_step(&mut state, &mut off, 0);
        });
        secs[0][pool].push(g);
        secs[1][pool].push(r);
    }
    let speedup = |s: &[Vec<f64>; 2]| median(&s[1]) / median(&s[0]);
    (speedup(&secs[0]), speedup(&secs[1]))
}
