//! Kernel throughput probes: times the tensor stack's hot kernels (GEMM
//! variants, batched matmul, ResNet50-shaped convolutions, the fused
//! non-GEMM kernel layer, fused causal attention and the int8 quantized
//! tier) and prints one JSON report of the medians to stdout, with a
//! progress line per kernel on stderr (`just bench-json`).
//!
//! Compute-bound kernels report GFLOP/s; bandwidth-bound elementwise and
//! reduction kernels report GB/s against the bytes they actually move
//! (roofline-style: a fused kernel shows up as moving fewer bytes for
//! the same work).
//!
//! Every record carries the SIMD `arm` it ran on: the main sweep uses the
//! runtime-dispatched default, and the dual-arm kernels (GEMM, the fused
//! memory-bound layer, fused attention, the int8 kernels) are re-timed
//! with the dispatcher pinned to each arm, so the scalar-vs-AVX2 delta is
//! one run away. `--filter <substr>[,<substr>...]` times only the
//! matching kernel families (`just bench-quant`).
//!
//! These probes are diagnostics, not a gate: end-to-end throughput and
//! its regression bounds live in the `perfbench` benchmark.

use caraml_tensor::attention::{fused_causal_attention, fused_causal_attention_backward};
use caraml_tensor::conv::{conv2d, Conv2dCfg};
use caraml_tensor::matmul::{bmm, matmul, matmul_at, matmul_bt};
use caraml_tensor::simd::{avx2_available, with_arm, Arm};
use caraml_tensor::{kernels, nn, Tensor};
use serde::Serialize;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize)]
struct Record {
    kernel: String,
    shape: String,
    /// SIMD arm the record ran on: `default` (runtime dispatch) or a
    /// pinned `scalar` / `avx2` arm from the dual-arm comparison sweep.
    arm: String,
    /// Numeric precision of the kernel's storage tier (`f32` for the
    /// classic stack; `int8` for the quantized inference tier).
    precision: String,
    /// Floating-point ops per call (0 for bandwidth-bound kernels).
    flops: u64,
    /// Bytes moved per call (reads + writes).
    bytes: u64,
    median_ms: f64,
    gflops: f64,
    gbps: f64,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    samples_per_kernel: usize,
    records: Vec<Record>,
}

fn seeded(n: usize) -> Tensor {
    Tensor::from_vec(
        (0..n)
            .map(|i| ((i as u64 * 2654435761) % 97) as f32 / 97.0 - 0.5)
            .collect(),
        [n],
    )
}

/// Median wall time of `samples` timed runs after one warm-up.
fn time_median(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: populate workspace pool, fault pages
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).unwrap());
    times[times.len() / 2]
}

/// `--filter` substrings; empty = run everything.
static FILTER: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();

/// Whether a kernel name survives the `--filter` flag (substring match
/// against any comma-separated needle; no flag = everything runs).
fn kernel_selected(kernel: &str) -> bool {
    match FILTER.get() {
        None => true,
        Some(needles) => needles.iter().any(|n| kernel.contains(n.as_str())),
    }
}

#[allow(clippy::too_many_arguments)]
fn record_prec(
    records: &mut Vec<Record>,
    samples: usize,
    kernel: &str,
    shape: &str,
    arm: &str,
    precision: &str,
    flops: u64,
    bytes: u64,
    f: impl FnMut(),
) {
    if !kernel_selected(kernel) {
        return;
    }
    let median = time_median(samples, f);
    let gflops = flops as f64 / median / 1e9;
    let gbps = bytes as f64 / median / 1e9;
    let rate = if flops > 0 {
        format!("{gflops:>8.2} GFLOP/s")
    } else {
        format!("{gbps:>8.2} GB/s")
    };
    let tag = if arm == "default" {
        String::new()
    } else {
        format!(" [{arm}]")
    };
    eprintln!(
        "{:<16} {shape:<28} {:>9.3} ms  {rate}",
        format!("{kernel}{tag}"),
        median * 1e3
    );
    records.push(Record {
        kernel: kernel.to_string(),
        shape: shape.to_string(),
        arm: arm.to_string(),
        precision: precision.to_string(),
        flops,
        bytes,
        median_ms: median * 1e3,
        gflops,
        gbps,
    });
}

#[allow(clippy::too_many_arguments)]
fn record_arm(
    records: &mut Vec<Record>,
    samples: usize,
    kernel: &str,
    shape: &str,
    arm: &str,
    flops: u64,
    bytes: u64,
    f: impl FnMut(),
) {
    record_prec(records, samples, kernel, shape, arm, "f32", flops, bytes, f);
}

fn record(
    records: &mut Vec<Record>,
    samples: usize,
    kernel: &str,
    shape: &str,
    flops: u64,
    bytes: u64,
    f: impl FnMut(),
) {
    record_arm(records, samples, kernel, shape, "default", flops, bytes, f);
}

fn gemm_and_conv(records: &mut Vec<Record>, samples: usize) {
    // Square GEMM sweep, all three transpose variants.
    for &n in &[64usize, 128, 256, 512] {
        let a = seeded(n * n).reshape([n, n]).unwrap();
        let b = seeded(n * n).reshape([n, n]).unwrap();
        let flops = 2 * (n as u64).pow(3);
        let bytes = 3 * (n * n * 4) as u64;
        let shape = format!("{n}x{n}x{n}");
        record(records, samples, "matmul", &shape, flops, bytes, || {
            black_box(matmul(&a, &b).unwrap());
        });
        record(records, samples, "matmul_bt", &shape, flops, bytes, || {
            black_box(matmul_bt(&a, &b).unwrap());
        });
        record(records, samples, "matmul_at", &shape, flops, bytes, || {
            black_box(matmul_at(&a, &b).unwrap());
        });
    }

    // GPT-ish rectangular GEMM: [tokens, hidden] x [hidden, 4*hidden].
    let (m, k, n) = (256usize, 256usize, 1024usize);
    let a = seeded(m * k).reshape([m, k]).unwrap();
    let b = seeded(k * n).reshape([k, n]).unwrap();
    record(
        records,
        samples,
        "matmul",
        &format!("{m}x{k}x{n} (mlp)"),
        2 * (m * k * n) as u64,
        ((m * k + k * n + m * n) * 4) as u64,
        || {
            black_box(matmul(&a, &b).unwrap());
        },
    );

    // Attention-shaped batched matmul: 8 heads of 64x64.
    let a = seeded(8 * 64 * 64).reshape([8, 64, 64]).unwrap();
    let b = seeded(8 * 64 * 64).reshape([8, 64, 64]).unwrap();
    record(
        records,
        samples,
        "bmm",
        "8x64x64x64 (attention)",
        2 * 8 * 64u64.pow(3),
        3 * 8 * 64 * 64 * 4,
        || {
            black_box(bmm(&a, &b).unwrap());
        },
    );

    // ResNet50-realistic convolutions (batch 4): the stem, an early 3x3
    // bottleneck stage, a mid-network stage, and a 1x1 expansion.
    let conv_cases: &[(&str, [usize; 4], [usize; 4], Conv2dCfg)] = &[
        (
            "7x7s2 stem 3->64 @224",
            [4, 3, 224, 224],
            [64, 3, 7, 7],
            Conv2dCfg::new(2, 3),
        ),
        (
            "3x3 64->64 @56",
            [4, 64, 56, 56],
            [64, 64, 3, 3],
            Conv2dCfg::new(1, 1),
        ),
        (
            "3x3 128->128 @28",
            [4, 128, 28, 28],
            [128, 128, 3, 3],
            Conv2dCfg::new(1, 1),
        ),
        (
            "1x1 256->512 @28",
            [4, 256, 28, 28],
            [512, 256, 1, 1],
            Conv2dCfg::new(1, 0),
        ),
    ];
    for (label, xd, wd, cfg) in conv_cases {
        let x = seeded(xd.iter().product()).reshape(*xd).unwrap();
        let w = seeded(wd.iter().product()).reshape(*wd).unwrap();
        let oh = cfg.out_dim(xd[2], wd[2]);
        let ow = cfg.out_dim(xd[3], wd[3]);
        let flops = 2 * (xd[0] * wd[0] * wd[1] * wd[2] * wd[3] * oh * ow) as u64;
        let bytes = ((xd.iter().product::<usize>()
            + wd.iter().product::<usize>()
            + xd[0] * wd[0] * oh * ow)
            * 4) as u64;
        record(records, 7, "conv2d", label, flops, bytes, || {
            black_box(conv2d(&x, &w, *cfg).unwrap());
        });
    }
}

/// The fused non-GEMM kernel layer at a transformer-realistic shape
/// (128 rows of hidden size 1024). Bytes count the reads and writes the
/// kernel actually performs, so fused variants credit their saved
/// traffic as higher effective GB/s.
fn elementwise_kernels(records: &mut Vec<Record>, samples: usize) {
    let (rows, n) = (128usize, 1024usize);
    let numel = rows * n;
    let fsz = 4u64;
    let x = seeded(numel).reshape([rows, n]).unwrap();
    let x2 = seeded(numel).reshape([rows, n]).unwrap();
    let bias = seeded(n);
    let shape = format!("{rows}x{n}");

    record(
        records,
        samples,
        "softmax_last",
        &shape,
        0,
        2 * numel as u64 * fsz,
        || {
            black_box(nn::softmax_last(&x));
        },
    );
    let y = nn::softmax_last(&x);
    record(
        records,
        samples,
        "softmax_bwd",
        &shape,
        0,
        3 * numel as u64 * fsz,
        || {
            black_box(nn::softmax_last_backward(&y, &x2));
        },
    );
    let targets: Vec<usize> = (0..rows).map(|r| (r * 17) % n).collect();
    record(
        records,
        samples,
        "softmax_xent",
        &shape,
        0,
        2 * numel as u64 * fsz,
        || {
            black_box(nn::cross_entropy_logits(&x, &targets));
        },
    );
    let gamma = seeded(n);
    let beta = seeded(n);
    record(
        records,
        samples,
        "layernorm",
        &shape,
        0,
        3 * numel as u64 * fsz,
        || {
            black_box(nn::layernorm(&x, &gamma, &beta, 1e-5));
        },
    );
    let (_, cache) = nn::layernorm(&x, &gamma, &beta, 1e-5);
    record(
        records,
        samples,
        "layernorm_bwd",
        &shape,
        0,
        3 * numel as u64 * fsz,
        || {
            black_box(nn::layernorm_backward(&cache, &gamma, &x2));
        },
    );
    record(
        records,
        samples,
        "gelu",
        &shape,
        0,
        2 * numel as u64 * fsz,
        || {
            black_box(nn::gelu(&x));
        },
    );
    record(
        records,
        samples,
        "bias_gelu",
        &shape,
        0,
        3 * numel as u64 * fsz,
        || {
            black_box(nn::bias_gelu(&x, &bias));
        },
    );
    let (_, pre) = nn::bias_gelu(&x, &bias);
    record(
        records,
        samples,
        "bias_gelu_bwd",
        &shape,
        0,
        3 * numel as u64 * fsz,
        || {
            black_box(nn::bias_gelu_backward(&pre, &x2));
        },
    );
    record(
        records,
        samples,
        "add_relu",
        &shape,
        0,
        3 * numel as u64 * fsz,
        || {
            black_box(nn::add_relu(&x, &x2));
        },
    );
    record(
        records,
        samples,
        "bias_add",
        &format!("{shape}+{n}"),
        0,
        2 * numel as u64 * fsz,
        || {
            black_box(x.add(&bias).unwrap());
        },
    );
    record(
        records,
        samples,
        "sum_axis0",
        &shape,
        0,
        numel as u64 * fsz,
        || {
            black_box(x.sum_axis0());
        },
    );
    let r = seeded(8 * 128 * 64).reshape([8, 128, 64]).unwrap();
    record(
        records,
        samples,
        "rope",
        "8x128x64",
        0,
        2 * (8 * 128 * 64) as u64 * fsz,
        || {
            black_box(nn::rope(&r, false));
        },
    );

    // Fused single-pass Adam on a 1M-parameter slab: param/m/v are read
    // and written, the gradient is read — 7 slab traversals of traffic
    // in one pass.
    let len = 1 << 20;
    let grad = seeded(len).data().to_vec();
    let mut param = seeded(len).data().to_vec();
    let mut m = vec![0.0f32; len];
    let mut v = vec![0.0f32; len];
    record(
        records,
        samples,
        "adam_fused",
        "1M params",
        0,
        7 * len as u64 * fsz,
        || {
            kernels::adam_update(
                &mut param, &grad, &mut m, &mut v, 1e-4, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.001,
            );
            black_box(&param);
        },
    );
}

/// Fused causal attention (QKᵀ·scale → mask → softmax → ·V in one
/// streamed pass) at a transformer-realistic shape: 8 heads, sequence
/// 128, head dim 64. FLOPs count the two causal-prefix contractions
/// (scores and ·V) forward, five backward.
fn attention_records(records: &mut Vec<Record>, samples: usize, arm: &str) {
    let (bh, s, d) = (8usize, 128usize, 64usize);
    let q = seeded(bh * s * d).reshape([bh, s, d]).unwrap();
    let k = seeded(bh * s * d).reshape([bh, s, d]).unwrap();
    let v = seeded(bh * s * d).reshape([bh, s, d]).unwrap();
    let scale = 1.0 / (d as f32).sqrt();
    let tri = (s * (s + 1) / 2) as u64;
    let shape = format!("{bh}x{s}x{d}");
    record_arm(
        records,
        samples,
        "attention_fused",
        &shape,
        arm,
        4 * bh as u64 * tri * d as u64,
        0,
        || {
            black_box(fused_causal_attention(&q, &k, &v, scale));
        },
    );
    let (out, probs) = fused_causal_attention(&q, &k, &v, scale);
    record_arm(
        records,
        samples,
        "attention_fused_bwd",
        &shape,
        arm,
        10 * bh as u64 * tri * d as u64,
        0,
        || {
            black_box(fused_causal_attention_backward(
                &q, &k, &v, &probs, &out, scale,
            ));
        },
    );
}

/// The dual-arm comparison sweep: re-times the runtime-dispatched
/// kernels with the dispatcher pinned to the scalar and (when the host
/// has it) the AVX2 arm, so the SIMD speedup is a tracked quantity
/// rather than a one-off measurement.
fn per_arm_kernels(records: &mut Vec<Record>, samples: usize) {
    let arms: &[(Arm, &str)] = if avx2_available() {
        &[(Arm::Scalar, "scalar"), (Arm::Avx2, "avx2")]
    } else {
        &[(Arm::Scalar, "scalar")]
    };
    for &(arm, label) in arms {
        with_arm(arm, || {
            let n = 256usize;
            let a = seeded(n * n).reshape([n, n]).unwrap();
            let b = seeded(n * n).reshape([n, n]).unwrap();
            record_arm(
                records,
                samples,
                "matmul",
                "256x256x256",
                label,
                2 * (n as u64).pow(3),
                3 * (n * n * 4) as u64,
                || {
                    black_box(matmul(&a, &b).unwrap());
                },
            );

            let (rows, cols) = (128usize, 1024usize);
            let numel = rows * cols;
            let fsz = 4u64;
            let x = seeded(numel).reshape([rows, cols]).unwrap();
            let bias = seeded(cols);
            let shape = format!("{rows}x{cols}");
            record_arm(
                records,
                samples,
                "softmax_last",
                &shape,
                label,
                0,
                2 * numel as u64 * fsz,
                || {
                    black_box(nn::softmax_last(&x));
                },
            );
            let gamma = seeded(cols);
            let beta = seeded(cols);
            record_arm(
                records,
                samples,
                "layernorm",
                &shape,
                label,
                0,
                3 * numel as u64 * fsz,
                || {
                    black_box(nn::layernorm(&x, &gamma, &beta, 1e-5));
                },
            );
            record_arm(
                records,
                samples,
                "gelu",
                &shape,
                label,
                0,
                2 * numel as u64 * fsz,
                || {
                    black_box(nn::gelu(&x));
                },
            );
            record_arm(
                records,
                samples,
                "bias_gelu",
                &shape,
                label,
                0,
                3 * numel as u64 * fsz,
                || {
                    black_box(nn::bias_gelu(&x, &bias));
                },
            );
            record_arm(
                records,
                samples,
                "sum_axis0",
                &shape,
                label,
                0,
                numel as u64 * fsz,
                || {
                    black_box(x.sum_axis0());
                },
            );
            let r = seeded(8 * 128 * 64).reshape([8, 128, 64]).unwrap();
            record_arm(
                records,
                samples,
                "rope",
                "8x128x64",
                label,
                0,
                2 * (8 * 128 * 64) as u64 * fsz,
                || {
                    black_box(nn::rope(&r, false));
                },
            );
            let len = 1 << 20;
            let grad = seeded(len).data().to_vec();
            let mut param = seeded(len).data().to_vec();
            let mut m = vec![0.0f32; len];
            let mut v = vec![0.0f32; len];
            record_arm(
                records,
                samples,
                "adam_fused",
                "1M params",
                label,
                0,
                7 * len as u64 * fsz,
                || {
                    kernels::adam_update(
                        &mut param, &grad, &mut m, &mut v, 1e-4, 0.9, 0.999, 1e-8, 0.01, 0.1, 0.001,
                    );
                    black_box(&param);
                },
            );
            attention_records(records, samples, label);
        });
    }
}

/// The quantized tier's kernels: per-channel int8 quantize/dequantize at
/// a weight-matrix shape and the int8×int8→i32 packed-panel GEMM with
/// its fused dequant epilogue — on the runtime-dispatched default and
/// pinned to each SIMD arm, like the rest of the dual-arm sweep.
fn quant_kernels(records: &mut Vec<Record>, samples: usize) {
    use caraml_tensor::quant::{gemm_i8_nt, QTensor};
    let (rows, cols) = (1024usize, 1024usize);
    let numel = rows * cols;
    let src = seeded(numel).data().to_vec();
    let qt = QTensor::quantize(&src, rows, cols);
    let mut dq = vec![0.0f32; numel];
    let shape = format!("{rows}x{cols}");

    let n = 256usize;
    let qa = QTensor::quantize(seeded(n * n).data(), n, n);
    let qb = QTensor::quantize(seeded(n * n).data(), n, n);
    let bias = seeded(n).data().to_vec();
    let mut c = vec![0.0f32; n * n];

    let mut body = |records: &mut Vec<Record>, label: &str| {
        // quantize reads f32, writes i8 + one f32 scale per row.
        record_prec(
            records,
            samples,
            "quantize",
            &shape,
            label,
            "int8",
            0,
            (numel * 4 + numel + rows * 4) as u64,
            || {
                black_box(QTensor::quantize(&src, rows, cols));
            },
        );
        record_prec(
            records,
            samples,
            "dequantize",
            &shape,
            label,
            "int8",
            0,
            (numel + rows * 4 + numel * 4) as u64,
            || {
                qt.dequantize_into(&mut dq);
                black_box(&dq);
            },
        );
        record_prec(
            records,
            samples,
            "gemm_i8",
            &format!("{n}x{n}x{n}"),
            label,
            "int8",
            2 * (n as u64).pow(3),
            (2 * n * n + n * n * 4) as u64,
            || {
                gemm_i8_nt(&qa, &qb, Some(&bias), &mut c);
                black_box(&c);
            },
        );
    };
    body(records, "default");
    let arms: &[(Arm, &str)] = if avx2_available() {
        &[(Arm::Scalar, "scalar"), (Arm::Avx2, "avx2")]
    } else {
        &[(Arm::Scalar, "scalar")]
    };
    for &(arm, label) in arms {
        with_arm(arm, || body(records, label));
    }
}

fn run_all(samples: usize) -> Report {
    let mut records = Vec::new();
    gemm_and_conv(&mut records, samples);
    elementwise_kernels(&mut records, samples);
    attention_records(&mut records, samples, "default");
    quant_kernels(&mut records, samples);
    per_arm_kernels(&mut records, samples);
    Report {
        schema: "caraml-kernel-probes-v1",
        samples_per_kernel: samples,
        records,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [] => {}
        [flag, list] if flag == "--filter" && list.split(',').any(|n| !n.is_empty()) => {
            let needles = list
                .split(',')
                .filter(|n| !n.is_empty())
                .map(str::to_string)
                .collect();
            FILTER.set(needles).expect("filter set once");
        }
        _ => {
            eprintln!("usage: bench_json [--filter <substr>[,<substr>...]]");
            return ExitCode::from(2);
        }
    }
    let report = run_all(15);
    println!(
        "{}",
        serde_json::to_string_pretty(&report).expect("serialise report")
    );
    ExitCode::SUCCESS
}
