//! 2-D convolution (im2col + GEMM), pooling, and their gradients.
//!
//! These are the kernels behind the ResNet50 benchmark. The forward pass
//! lowers convolution onto the packed GEMM of [`crate::matmul`]; the
//! backward pass computes `dW = dy·colᵀ` and `dcol = Wᵀ·dy` through the
//! same engine's transpose entry points ([`crate::matmul::gemm_nt_ws`],
//! [`crate::matmul::gemm_tn_ws`]) — no operand is ever materialised
//! transposed — then scatters `dcol` back with the standard col2im.
//!
//! Scratch discipline: every intermediate (im2col column buffers, GEMM
//! packing panels, per-image gradient partials) is drawn from a
//! [`Workspace`] and returned to it, so a training loop stops allocating
//! after the first step ([`conv2d_with`] accepts the pool explicitly; the
//! plain entry points use the process-global one). Output tensors draw
//! from the global pool because their buffers are recycled by `Tensor`'s
//! drop, which returns storage there.
//!
//! Conventions: activations are NCHW, weights are `[out_c, in_c, kh, kw]`.

use crate::matmul::{gemm_nt_ws, gemm_tn_ws, gemm_ws};
use crate::tensor::Tensor;
use crate::workspace::{self, Workspace};
use crate::TensorError;
use rayon::prelude::*;

/// Convolution geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dCfg {
    pub stride: usize,
    pub padding: usize,
}

impl Default for Conv2dCfg {
    fn default() -> Self {
        Conv2dCfg {
            stride: 1,
            padding: 0,
        }
    }
}

impl Conv2dCfg {
    pub fn new(stride: usize, padding: usize) -> Self {
        assert!(stride > 0, "stride must be positive");
        Conv2dCfg { stride, padding }
    }

    /// Output spatial size for an input size and kernel size.
    pub fn out_dim(&self, input: usize, kernel: usize) -> usize {
        (input + 2 * self.padding - kernel) / self.stride + 1
    }
}

/// Lower `[c, h, w]` (single image) into a `[c·kh·kw, oh·ow]` column
/// buffer.
#[allow(clippy::too_many_arguments)] // geometry tuple is clearer inline
fn im2col_single(
    x: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dCfg,
    out: &mut [f32],
) {
    let oh = cfg.out_dim(h, kh);
    let ow = cfg.out_dim(w, kw);
    let cols = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oi in 0..oh {
                    let ii = (oi * cfg.stride + ki) as isize - cfg.padding as isize;
                    for oj in 0..ow {
                        let jj = (oj * cfg.stride + kj) as isize - cfg.padding as isize;
                        let v = if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                            x[ci * h * w + ii as usize * w + jj as usize]
                        } else {
                            0.0
                        };
                        out[row * cols + oi * ow + oj] = v;
                    }
                }
            }
        }
    }
}

/// Scatter a `[c·kh·kw, oh·ow]` column buffer back into `[c, h, w]`
/// (adds into `out`; the adjoint of im2col).
#[allow(clippy::too_many_arguments)]
fn col2im_single(
    cols_buf: &[f32],
    c: usize,
    h: usize,
    w: usize,
    kh: usize,
    kw: usize,
    cfg: Conv2dCfg,
    out: &mut [f32],
) {
    let oh = cfg.out_dim(h, kh);
    let ow = cfg.out_dim(w, kw);
    let cols = oh * ow;
    for ci in 0..c {
        for ki in 0..kh {
            for kj in 0..kw {
                let row = (ci * kh + ki) * kw + kj;
                for oi in 0..oh {
                    let ii = (oi * cfg.stride + ki) as isize - cfg.padding as isize;
                    if ii < 0 || ii >= h as isize {
                        continue;
                    }
                    for oj in 0..ow {
                        let jj = (oj * cfg.stride + kj) as isize - cfg.padding as isize;
                        if jj < 0 || jj >= w as isize {
                            continue;
                        }
                        out[ci * h * w + ii as usize * w + jj as usize] +=
                            cols_buf[row * cols + oi * ow + oj];
                    }
                }
            }
        }
    }
}

/// Forward convolution: `x [n, c, h, w] * w [oc, c, kh, kw] -> [n, oc, oh, ow]`.
///
/// Scratch comes from the process-global [`Workspace`]; see
/// [`conv2d_with`] to supply a private pool.
pub fn conv2d(x: &Tensor, weight: &Tensor, cfg: Conv2dCfg) -> Result<Tensor, TensorError> {
    conv2d_with(x, weight, cfg, workspace::global())
}

/// [`conv2d`] drawing all scratch (column buffers, packing panels) from
/// an explicit workspace. After one warm-up call with a given geometry,
/// subsequent calls perform no heap allocation in the per-image loop:
/// every buffer is a pool hit. The *output* buffer is the one exception —
/// it leaves the function inside the returned [`Tensor`] and is recycled
/// by tensor drop into the global pool, so it is drawn from there.
pub fn conv2d_with(
    x: &Tensor,
    weight: &Tensor,
    cfg: Conv2dCfg,
    ws: &Workspace,
) -> Result<Tensor, TensorError> {
    if x.rank() != 4 || weight.rank() != 4 || x.dims()[1] != weight.dims()[1] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d",
            lhs: x.dims().to_vec(),
            rhs: weight.dims().to_vec(),
        });
    }
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (oc, _, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    let oh = cfg.out_dim(h, kh);
    let ow = cfg.out_dim(w, kw);
    let col_rows = c * kh * kw;
    let cols = oh * ow;
    let x_data = x.data();
    let w_data = weight.data();
    let mut out = workspace::global().take_zeroed(n * oc * cols);
    out.par_chunks_mut(oc * cols)
        .enumerate()
        .for_each(|(ni, out_img)| {
            let mut col_buf = ws.take_zeroed(col_rows * cols);
            im2col_single(
                &x_data[ni * c * h * w..(ni + 1) * c * h * w],
                c,
                h,
                w,
                kh,
                kw,
                cfg,
                &mut col_buf,
            );
            // [oc, col_rows] · [col_rows, cols] -> [oc, cols]
            gemm_ws(w_data, &col_buf, out_img, oc, col_rows, cols, ws);
            ws.give(col_buf);
        });
    Ok(Tensor::from_vec(out, [n, oc, oh, ow]))
}

/// Gradients of [`conv2d`]: given `dy [n, oc, oh, ow]`, returns
/// `(dx [n, c, h, w], dw [oc, c, kh, kw])`.
pub fn conv2d_backward(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    cfg: Conv2dCfg,
) -> Result<(Tensor, Tensor), TensorError> {
    conv2d_backward_with(x, weight, dy, cfg, workspace::global())
}

/// [`conv2d_backward`] drawing all scratch from an explicit workspace.
/// Both gradient GEMMs run directly on slices through the packed engine's
/// transpose entry points; neither `dy` nor the weight matrix is copied.
pub fn conv2d_backward_with(
    x: &Tensor,
    weight: &Tensor,
    dy: &Tensor,
    cfg: Conv2dCfg,
    ws: &Workspace,
) -> Result<(Tensor, Tensor), TensorError> {
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let (oc, _, kh, kw) = (
        weight.dims()[0],
        weight.dims()[1],
        weight.dims()[2],
        weight.dims()[3],
    );
    let oh = cfg.out_dim(h, kh);
    let ow = cfg.out_dim(w, kw);
    if dy.dims() != [n, oc, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            op: "conv2d_backward",
            lhs: dy.dims().to_vec(),
            rhs: vec![n, oc, oh, ow],
        });
    }
    let col_rows = c * kh * kw;
    let cols = oh * ow;
    let x_data = x.data();
    let dy_data = dy.data();

    let w_data = weight.data();

    // Per-image partials computed in parallel, reduced afterwards. The
    // reduction order over images is fixed (ni ascending) so dw is
    // bit-identical regardless of how the parallel map is scheduled.
    let parts: Vec<(Vec<f32>, Vec<f32>)> = (0..n)
        .into_par_iter()
        .map(|ni| {
            let mut col_buf = ws.take_zeroed(col_rows * cols);
            im2col_single(
                &x_data[ni * c * h * w..(ni + 1) * c * h * w],
                c,
                h,
                w,
                kh,
                kw,
                cfg,
                &mut col_buf,
            );
            let dy_img = &dy_data[ni * oc * cols..(ni + 1) * oc * cols];
            // dW_i = dy_img · colᵀ : [oc, cols] · [col_rows, cols]ᵀ.
            let mut dw_i = ws.take_zeroed(oc * col_rows);
            gemm_nt_ws(dy_img, &col_buf, &mut dw_i, oc, cols, col_rows, ws);
            // dcol = Wᵀ · dy_img : [oc, col_rows]ᵀ · [oc, cols].
            let mut dcol = ws.take_zeroed(col_rows * cols);
            gemm_tn_ws(w_data, dy_img, &mut dcol, col_rows, oc, cols, ws);
            let mut dx_img = ws.take_zeroed(c * h * w);
            col2im_single(&dcol, c, h, w, kh, kw, cfg, &mut dx_img);
            ws.give(col_buf);
            ws.give(dcol);
            (dx_img, dw_i)
        })
        .collect();

    let mut dx = workspace::global().take_zeroed(n * c * h * w);
    let mut dw = workspace::global().take_zeroed(oc * col_rows);
    for (ni, (dx_img, dw_i)) in parts.into_iter().enumerate() {
        dx[ni * c * h * w..(ni + 1) * c * h * w].copy_from_slice(&dx_img);
        for (acc, &v) in dw.iter_mut().zip(dw_i.iter()) {
            *acc += v;
        }
        ws.give(dx_img);
        ws.give(dw_i);
    }
    Ok((
        Tensor::from_vec(dx, [n, c, h, w]),
        Tensor::from_vec(dw, [oc, c, kh, kw]),
    ))
}

/// Max pooling `[n, c, h, w] -> [n, c, oh, ow]`; also returns the argmax
/// indices for the backward pass.
pub fn maxpool2d(x: &Tensor, k: usize, stride: usize) -> (Tensor, Vec<usize>) {
    assert_eq!(x.rank(), 4);
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let oh = (h - k) / stride + 1;
    let ow = (w - k) / stride + 1;
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];
    let data = x.data();
    for ni in 0..n {
        for ci in 0..c {
            let base = (ni * c + ci) * h * w;
            for oi in 0..oh {
                for oj in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for ki in 0..k {
                        for kj in 0..k {
                            let idx = base + (oi * stride + ki) * w + (oj * stride + kj);
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let o = ((ni * c + ci) * oh + oi) * ow + oj;
                    out[o] = best;
                    arg[o] = best_idx;
                }
            }
        }
    }
    (Tensor::from_vec(out, [n, c, oh, ow]), arg)
}

/// Backward of max pooling: scatter `dy` to the recorded argmax positions.
pub fn maxpool2d_backward(dy: &Tensor, arg: &[usize], input_shape: &[usize]) -> Tensor {
    let mut dx = vec![0.0f32; input_shape.iter().product()];
    for (g, &idx) in dy.data().iter().zip(arg) {
        dx[idx] += g;
    }
    Tensor::from_vec(dx, input_shape.to_vec())
}

/// Global average pooling `[n, c, h, w] -> [n, c]`.
pub fn global_avgpool(x: &Tensor) -> Tensor {
    assert_eq!(x.rank(), 4);
    let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
    let hw = (h * w) as f32;
    let mut out = vec![0.0f32; n * c];
    for (i, chunk) in x.data().chunks(h * w).enumerate() {
        out[i] = chunk.iter().sum::<f32>() / hw;
    }
    Tensor::from_vec(out, [n, c])
}

/// Backward of global average pooling.
pub fn global_avgpool_backward(dy: &Tensor, input_shape: &[usize]) -> Tensor {
    let (h, w) = (input_shape[2], input_shape[3]);
    let hw = (h * w) as f32;
    let mut dx = vec![0.0f32; input_shape.iter().product()];
    for (i, chunk) in dx.chunks_mut(h * w).enumerate() {
        let g = dy.data()[i] / hw;
        for v in chunk {
            *v = g;
        }
    }
    Tensor::from_vec(dx, input_shape.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (nested-loop) convolution used as a test oracle (shared
    /// with the geometry proptests below).
    pub(crate) fn conv2d_reference(x: &Tensor, weight: &Tensor, cfg: Conv2dCfg) -> Tensor {
        let (n, c, h, w) = (x.dims()[0], x.dims()[1], x.dims()[2], x.dims()[3]);
        let (oc, _, kh, kw) = (
            weight.dims()[0],
            weight.dims()[1],
            weight.dims()[2],
            weight.dims()[3],
        );
        let oh = cfg.out_dim(h, kh);
        let ow = cfg.out_dim(w, kw);
        let mut out = vec![0.0f32; n * oc * oh * ow];
        for ni in 0..n {
            for oci in 0..oc {
                for oi in 0..oh {
                    for oj in 0..ow {
                        let mut s = 0.0;
                        for ci in 0..c {
                            for ki in 0..kh {
                                for kj in 0..kw {
                                    let ii = (oi * cfg.stride + ki) as isize - cfg.padding as isize;
                                    let jj = (oj * cfg.stride + kj) as isize - cfg.padding as isize;
                                    if ii >= 0 && ii < h as isize && jj >= 0 && jj < w as isize {
                                        s += x.at(&[ni, ci, ii as usize, jj as usize])
                                            * weight.at(&[oci, ci, ki, kj]);
                                    }
                                }
                            }
                        }
                        out[((ni * oc + oci) * oh + oi) * ow + oj] = s;
                    }
                }
            }
        }
        Tensor::from_vec(out, [n, oc, oh, ow])
    }

    fn seeded(n: usize, scale: f32) -> Vec<f32> {
        (0..n)
            .map(|i| (((i as u64 * 2654435761) % 97) as f32 / 97.0 - 0.5) * scale)
            .collect()
    }

    #[test]
    fn out_dim_formula() {
        let cfg = Conv2dCfg::new(2, 1);
        assert_eq!(cfg.out_dim(7, 3), 4);
        assert_eq!(Conv2dCfg::default().out_dim(5, 3), 3);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        // 1x1 kernel with weight 1 is identity.
        let x = Tensor::from_vec(seeded(2 * 4 * 4, 2.0), [1, 2, 4, 4]);
        let mut wdata = vec![0.0; 2 * 2];
        wdata[0] = 1.0; // out0 <- in0
        wdata[3] = 1.0; // out1 <- in1
        let w = Tensor::from_vec(wdata, [2, 2, 1, 1]);
        let y = conv2d(&x, &w, Conv2dCfg::default()).unwrap();
        assert!(y.allclose(&x, 1e-6));
    }

    #[test]
    fn conv_matches_reference() {
        for (stride, padding) in [(1, 0), (1, 1), (2, 1), (2, 3)] {
            let cfg = Conv2dCfg::new(stride, padding);
            let x = Tensor::from_vec(seeded(2 * 3 * 8 * 8, 2.0), [2, 3, 8, 8]);
            let w = Tensor::from_vec(seeded(4 * 3 * 3 * 3, 1.0), [4, 3, 3, 3]);
            let fast = conv2d(&x, &w, cfg).unwrap();
            let slow = conv2d_reference(&x, &w, cfg);
            assert!(
                fast.allclose(&slow, 1e-4),
                "mismatch at stride={stride} padding={padding}"
            );
        }
    }

    #[test]
    fn conv_channel_mismatch_rejected() {
        let x = Tensor::zeros([1, 3, 4, 4]);
        let w = Tensor::zeros([2, 4, 3, 3]);
        assert!(conv2d(&x, &w, Conv2dCfg::default()).is_err());
    }

    #[test]
    fn conv_backward_matches_numerical_gradient() {
        let cfg = Conv2dCfg::new(1, 1);
        let x = Tensor::from_vec(seeded(2 * 5 * 5, 1.0), [1, 2, 5, 5]);
        let w = Tensor::from_vec(seeded(3 * 2 * 3 * 3, 1.0), [3, 2, 3, 3]);
        // Loss = sum(conv(x, w)); dL/dy = 1.
        let y = conv2d(&x, &w, cfg).unwrap();
        let dy = Tensor::ones(y.dims().to_vec());
        let (dx, dw) = conv2d_backward(&x, &w, &dy, cfg).unwrap();

        let eps = 1e-2;
        // Check a sample of weight gradients numerically.
        for idx in [0usize, 7, 13, 29, 53] {
            let mut wp = w.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w.clone();
            wm.data_mut()[idx] -= eps;
            let num = (conv2d(&x, &wp, cfg).unwrap().sum() - conv2d(&x, &wm, cfg).unwrap().sum())
                / (2.0 * eps);
            let ana = dw.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dw[{idx}]: numerical {num} vs analytical {ana}"
            );
        }
        // And a sample of input gradients.
        for idx in [0usize, 11, 24, 37] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let num = (conv2d(&xp, &w, cfg).unwrap().sum() - conv2d(&xm, &w, cfg).unwrap().sum())
                / (2.0 * eps);
            let ana = dx.data()[idx];
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "dx[{idx}]: numerical {num} vs analytical {ana}"
            );
        }
    }

    #[test]
    fn conv_backward_shape_check() {
        let x = Tensor::zeros([1, 2, 5, 5]);
        let w = Tensor::zeros([3, 2, 3, 3]);
        let bad_dy = Tensor::zeros([1, 3, 9, 9]);
        assert!(conv2d_backward(&x, &w, &bad_dy, Conv2dCfg::default()).is_err());
    }

    #[test]
    fn maxpool_picks_maxima() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 3.0, //
                4.0, 0.0, 1.0, 2.0, //
                7.0, 1.0, 0.0, 0.0, //
                2.0, 3.0, 4.0, 9.0,
            ],
            [1, 1, 4, 4],
        );
        let (y, arg) = maxpool2d(&x, 2, 2);
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        assert_eq!(y.data(), &[4.0, 5.0, 7.0, 9.0]);
        // Backward routes gradient only to maxima.
        let dy = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [1, 1, 2, 2]);
        let dx = maxpool2d_backward(&dy, &arg, &[1, 1, 4, 4]);
        assert_eq!(dx.data()[4], 1.0); // the 4.0 at (1,0)
        assert_eq!(dx.data()[2], 2.0); // the 5.0 at (0,2)
        assert_eq!(dx.data()[8], 3.0); // the 7.0
        assert_eq!(dx.data()[15], 4.0); // the 9.0
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn global_avgpool_and_backward() {
        let x = Tensor::from_vec(seeded(2 * 3 * 4 * 4, 1.0), [2, 3, 4, 4]);
        let y = global_avgpool(&x);
        assert_eq!(y.dims(), &[2, 3]);
        assert!((y.data()[0] - x.data()[..16].iter().sum::<f32>() / 16.0).abs() < 1e-6);
        let dy = Tensor::ones([2, 3]);
        let dx = global_avgpool_backward(&dy, &[2, 3, 4, 4]);
        // Each input element receives 1/16.
        assert!((dx.data()[0] - 1.0 / 16.0).abs() < 1e-7);
        assert!((dx.sum() - 6.0).abs() < 1e-5);
    }

    #[test]
    fn strided_conv_downsamples() {
        let x = Tensor::ones([1, 1, 8, 8]);
        let w = Tensor::ones([1, 1, 3, 3]);
        let y = conv2d(&x, &w, Conv2dCfg::new(2, 1)).unwrap();
        assert_eq!(y.dims(), &[1, 1, 4, 4]);
        // Interior outputs see the full 3x3 window of ones.
        assert_eq!(y.at(&[0, 0, 1, 1]), 9.0);
        // Corner output is clipped by padding.
        assert_eq!(y.at(&[0, 0, 0, 0]), 4.0);
    }

    /// The scratch contract of a conv kernel whose `images` image tasks
    /// draw from one private workspace (isolated from other tests sharing
    /// the global pool). On one worker the schedule is fixed, so every
    /// call repeats the warm-up's takes and gives: after one warm-up call
    /// the kernel allocates nothing. On two workers, how many image tasks
    /// overlap depends on which thread runs which image, so the warm-up
    /// may leave fewer buffer sets than a later call needs. What the code
    /// guarantees there is one buffer set per image task in flight:
    /// allocations never exceed tasks in flight × takes per task.
    fn assert_steady_state_scratch(images: usize, call: impl Fn(&Workspace)) {
        for workers in [1usize, 2] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(workers)
                .build()
                .unwrap();
            pool.install(|| {
                let ws = Workspace::new();
                call(&ws);
                let warm = ws.stats();
                assert!(warm.allocations > 0, "warm-up should populate the pool");
                let takes_per_task = (warm.allocations + warm.reuses) / images as u64;
                for _ in 0..4 {
                    call(&ws);
                }
                let after = ws.stats();
                assert!(after.reuses > warm.reuses, "warm calls must hit the pool");
                if workers == 1 {
                    assert_eq!(
                        after.allocations, warm.allocations,
                        "steady-state calls on one worker must not allocate scratch"
                    );
                } else {
                    let bound = workers.min(images) as u64 * takes_per_task;
                    assert!(
                        after.allocations <= bound,
                        "{} allocations exceed one buffer set per task in flight ({bound})",
                        after.allocations
                    );
                }
            });
        }
    }

    #[test]
    fn conv_forward_scratch_is_bounded_after_warmup() {
        let cfg = Conv2dCfg::new(1, 1);
        let x = Tensor::from_vec(seeded(2 * 8 * 16 * 16, 1.0), [2, 8, 16, 16]);
        let w = Tensor::from_vec(seeded(16 * 8 * 3 * 3, 1.0), [16, 8, 3, 3]);
        let reference = conv2d(&x, &w, cfg).unwrap();
        assert_steady_state_scratch(2, |ws| {
            let y = conv2d_with(&x, &w, cfg, ws).unwrap();
            assert!(
                y.allclose(&reference, 0.0),
                "reused buffers must not change results"
            );
        });
    }

    #[test]
    fn conv_backward_scratch_is_bounded_after_warmup() {
        let cfg = Conv2dCfg::new(1, 1);
        let x = Tensor::from_vec(seeded(2 * 4 * 10 * 10, 1.0), [2, 4, 10, 10]);
        let w = Tensor::from_vec(seeded(8 * 4 * 3 * 3, 1.0), [8, 4, 3, 3]);
        let y = conv2d(&x, &w, cfg).unwrap();
        let dy = Tensor::ones(y.dims().to_vec());
        let (dx_ref, dw_ref) = conv2d_backward(&x, &w, &dy, cfg).unwrap();
        assert_steady_state_scratch(2, |ws| {
            let (dx, dw) = conv2d_backward_with(&x, &w, &dy, cfg, ws).unwrap();
            assert!(dx.allclose(&dx_ref, 0.0) && dw.allclose(&dw_ref, 0.0));
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Deterministic pseudo-random fill so proptest only drives geometry.
    fn fill(n: usize, seed: u64) -> Vec<f32> {
        (0..n)
            .map(|i| (((i as u64 + seed) * 2654435761) % 193) as f32 / 193.0 - 0.5)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// col2im is the exact adjoint of im2col:
        /// ⟨im2col(x), y⟩ = ⟨x, col2im(y)⟩ for every geometry. This is
        /// the identity conv2d_backward relies on when it scatters dcol
        /// back to input space.
        #[test]
        fn col2im_is_adjoint_of_im2col(
            c in 1usize..4,
            h in 3usize..9,
            w in 3usize..9,
            kh in 1usize..4,
            kw in 1usize..4,
            stride in 1usize..3,
            padding in 0usize..3,
            seed in 0u64..1000,
        ) {
            // h >= 3 and kh,kw <= 3, so the window always fits.
            let cfg = Conv2dCfg::new(stride, padding);
            let oh = cfg.out_dim(h, kh);
            let ow = cfg.out_dim(w, kw);
            let col_len = c * kh * kw * oh * ow;

            let x = fill(c * h * w, seed);
            let y = fill(col_len, seed.wrapping_add(17));

            let mut x_cols = vec![0.0f32; col_len];
            im2col_single(&x, c, h, w, kh, kw, cfg, &mut x_cols);
            let mut y_img = vec![0.0f32; c * h * w];
            col2im_single(&y, c, h, w, kh, kw, cfg, &mut y_img);

            let lhs: f32 = x_cols.iter().zip(&y).map(|(a, b)| a * b).sum();
            let rhs: f32 = x.iter().zip(&y_img).map(|(a, b)| a * b).sum();
            prop_assert!(
                (lhs - rhs).abs() <= 1e-3 * (1.0 + lhs.abs().max(rhs.abs())),
                "⟨im2col(x), y⟩ = {lhs} but ⟨x, col2im(y)⟩ = {rhs}"
            );
        }

        /// Forward conv through the packed engine agrees with the naive
        /// loop oracle for arbitrary geometry (exercises ragged edges of
        /// every microkernel dimension through the im2col GEMM).
        #[test]
        fn conv_matches_reference_for_random_geometry(
            n in 1usize..3,
            c in 1usize..4,
            hw in 4usize..10,
            oc in 1usize..5,
            k in 1usize..4,
            stride in 1usize..3,
            padding in 0usize..2,
            seed in 0u64..1000,
        ) {
            // hw >= 4 and k <= 3, so the window always fits.
            let cfg = Conv2dCfg::new(stride, padding);
            let x = Tensor::from_vec(fill(n * c * hw * hw, seed), [n, c, hw, hw]);
            let w = Tensor::from_vec(fill(oc * c * k * k, seed.wrapping_add(5)), [oc, c, k, k]);
            let fast = conv2d(&x, &w, cfg).unwrap();
            let slow = tests::conv2d_reference(&x, &w, cfg);
            prop_assert!(fast.allclose(&slow, 1e-3));
        }
    }
}
