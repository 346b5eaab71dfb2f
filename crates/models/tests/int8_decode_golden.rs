//! The bits of int8 decode, pinned.
//!
//! int8 linear layers accumulate exactly in i32 and round only in the
//! dequantizing epilogue, so their logits do not depend on how a kernel
//! orders the sum, which SIMD arm runs it, or how rayon splits it. This
//! test folds the logits of a run of int8 decode steps into one FNV-1a-64
//! constant over two shapes: a ragged one (hidden 200 and vocabulary 301
//! leave remainders after every 16-wide vector step and every block of
//! rows) and one whose MLP and logits weights are large enough to be
//! split across workers. It runs on a one-worker and a four-worker pool,
//! and `CARAML_SIMD=off` must reproduce it on the scalar arm.

use caraml_accel::Precision;
use caraml_models::{GptConfig, GptInfer};

/// FNV-1a-64 over little-endian `u32` words.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const STEPS: usize = 30;

fn shapes() -> [GptConfig; 2] {
    let ragged = GptConfig {
        name: "ragged".into(),
        layers: 2,
        hidden: 200,
        heads: 4,
        seq_len: STEPS,
        vocab: 301,
    };
    // fc1, fc2 and the logits projection each hold 4096·1024 int8
    // weights (4 MiB); the attention projections (1 MiB) stay small.
    let split = GptConfig {
        name: "split".into(),
        layers: 1,
        hidden: 1024,
        heads: 16,
        seq_len: STEPS,
        vocab: 4096,
    };
    [ragged, split]
}

/// Logit bits of `STEPS` decode steps over a fixed token stream.
fn fold_decode(h: &mut Fnv1a, cfg: &GptConfig) {
    let mut infer = GptInfer::synthetic(cfg.clone(), 5, Precision::Int8);
    for step in 0..STEPS {
        let token = ((step * 7919 + 11) % cfg.vocab) as u32;
        for v in infer.decode_step(token) {
            h.word(v.to_bits());
        }
    }
}

const GOLDEN: u64 = 0xf0e8_246a_a045_e976;

#[test]
fn int8_decode_logits_match_the_golden_checksum() {
    for threads in [1, 4] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("a pool of the requested size");
        let got = pool.install(|| {
            let mut h = Fnv1a::new();
            for cfg in shapes() {
                fold_decode(&mut h, &cfg);
            }
            h.0
        });
        assert_eq!(
            got, GOLDEN,
            "int8 decode bits moved on {threads} worker(s): got {got:#018x}"
        );
    }
}
