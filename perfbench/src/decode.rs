//! The decode part: greedy KV-cached decode through `GptInfer` at f32,
//! bf16 and int8.
//!
//! The shape is the repository's decode-step shape (4 layers, hidden
//! 1024, vocab 4096), so the weights stream from memory on every token
//! and the GEMMs run with m = 1. The three precisions decode the same
//! positions in turn: f32 decodes greedily from a seeded prompt, and
//! bf16 and int8 are teacher-forced on the f32 stream, so their picks
//! can be compared with f32's position by position.

use crate::check;
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use caraml_accel::Precision;
use caraml_models::{GptConfig, GptInfer};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

const PRECISIONS: [Precision; 3] = Precision::ALL;
const PROMPT_TOKENS: usize = 4;
/// Least share of positions where bf16 and int8 must pick f32's token.
/// Over 372 teacher-forced positions from 12 seeds, bf16 disagreed with
/// f32 at 3 and int8 at 12, up to 2 and 3 within one 31-token sequence;
/// the thresholds leave room for that in a short reference slice, while a
/// broken kernel agrees almost nowhere.
const MIN_MATCH: [f64; 2] = [0.8, 0.7];

pub fn config() -> GptConfig {
    GptConfig {
        name: "decode".into(),
        layers: 4,
        hidden: 1024,
        heads: 16,
        seq_len: 96,
        vocab: 4096,
    }
}

pub struct State {
    models: Vec<GptInfer>,
    prompts: ChaCha8Rng,
}

/// What the decode produced, per precision in `PRECISIONS` order.
///
/// A position is one prediction: the prompt, or one decode step. All
/// precisions are fed the same token at a position.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Decode-step wall times after the prompt, ms.
    pub step_ms: [Samples; 3],
    /// Prompt wall time per prompt token, ms, one entry per prompt.
    pub prefill_ms_per_token: [Vec<f64>; 3],
    /// Token fed at each position: the last prompt token where a
    /// sequence starts, else f32's pick at the previous position.
    pub fed: Vec<u32>,
    /// Token each precision picked at each position.
    pub picked: [Vec<u32>; 3],
    /// First position of each sequence.
    pub starts: Vec<usize>,
    /// Largest KV cache seen, bytes.
    pub kv_bytes: [usize; 3],
    pub weight_bytes: [usize; 3],
    /// Decode steps run (prompt tokens included) and those whose logits
    /// were not finite.
    pub attempted: u64,
    pub failed: u64,
}

impl Outcome {
    pub fn positions(&self) -> usize {
        self.fed.len()
    }

    /// One word per position: the fed token and each precision's pick,
    /// 16 bits each (the vocabulary has 4096 tokens).
    pub fn words(&self) -> Vec<u64> {
        (0..self.positions())
            .map(|i| {
                [
                    self.fed[i],
                    self.picked[0][i],
                    self.picked[1][i],
                    self.picked[2][i],
                ]
                .iter()
                .fold(0u64, |w, &t| (w << 16) | u64::from(t))
            })
            .collect()
    }

    pub fn match_rate(&self, p: usize) -> f64 {
        check::match_rate(&self.picked[0], &self.picked[p])
    }

    /// Every sequence's f32 stream is greedy, and the narrower
    /// precisions pick f32's token often enough.
    pub fn check(&self) -> Result<(), String> {
        let ends = self
            .starts
            .iter()
            .skip(1)
            .copied()
            .chain([self.positions()]);
        for (&s, e) in self.starts.iter().zip(ends) {
            check::greedy_consistent(&self.fed[s..e], &self.picked[0][s..e])?;
        }
        for (p, &min) in MIN_MATCH.iter().enumerate() {
            let rate = self.match_rate(p + 1);
            if rate < min {
                return Err(format!(
                    "{} picked f32's token at {rate:.3} of positions, below {min}",
                    PRECISIONS[p + 1].tag()
                ));
            }
        }
        Ok(())
    }
}

/// Build the three decoders' synthetic weights from the seed and warm
/// each one up with a single step.
pub fn setup(seed: u64) -> (State, Outcome) {
    let mut out = Outcome::default();
    let models = PRECISIONS
        .iter()
        .enumerate()
        .map(|(p, &precision)| {
            let mut m = GptInfer::synthetic(config(), seed, precision);
            m.decode_step(0);
            m.reset();
            out.weight_bytes[p] = m.weight_bytes();
            m
        })
        .collect();
    let state = State {
        models,
        prompts: ChaCha8Rng::seed_from_u64(seed),
    };
    (state, out)
}

/// Decode positions for `seconds` (at least one) as one round of the
/// window, continuing the sequence under way. A sequence starts from a
/// fresh seeded prompt and runs to the end of the context window.
pub fn run(state: &mut State, out: &mut Outcome, seconds: f64, tr: &mut Tracer) {
    let start = Instant::now();
    out.step_ms.iter_mut().for_each(Samples::new_round);
    loop {
        // Position 0 is a fresh decoder; a full context window ends the
        // sequence.
        let pos = state.models[0].pos();
        if pos == 0 || pos == config().seq_len {
            start_sequence(state, out, tr);
        } else {
            decode_position(state, out, tr);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Prefill a fresh seeded prompt on every precision.
fn start_sequence(state: &mut State, out: &mut Outcome, tr: &mut Tracer) {
    let vocab = config().vocab as u32;
    let prompt: Vec<u32> = (0..PROMPT_TOKENS)
        .map(|_| state.prompts.gen_range(0..vocab))
        .collect();
    let id = out.positions() as u64;
    out.starts.push(out.positions());
    out.fed.push(prompt[PROMPT_TOKENS - 1]);
    for (p, model) in state.models.iter_mut().enumerate() {
        model.reset();
        let t0 = Instant::now();
        let logits = tr.span(PREFILL_SPANS[p], id, || model.prefill(&prompt));
        out.prefill_ms_per_token[p].push(t0.elapsed().as_secs_f64() * 1e3 / PROMPT_TOKENS as f64);
        out.attempted += PROMPT_TOKENS as u64;
        record_pick(out, p, &logits);
    }
}

/// Feed f32's last pick to every precision.
fn decode_position(state: &mut State, out: &mut Outcome, tr: &mut Tracer) {
    let fed = *out.picked[0].last().expect("a sequence is under way");
    let id = out.positions() as u64;
    out.fed.push(fed);
    for (p, model) in state.models.iter_mut().enumerate() {
        let t0 = Instant::now();
        let logits = tr.span(STEP_SPANS[p], id, || model.decode_step(fed));
        out.step_ms[p].push(t0.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        out.kv_bytes[p] = out.kv_bytes[p].max(model.kv_bytes());
        record_pick(out, p, &logits);
    }
}

const PREFILL_SPANS: [&str; 3] = [
    "models.infer_f32_prefill",
    "models.infer_bf16_prefill",
    "models.infer_int8_prefill",
];
const STEP_SPANS: [&str; 3] = [
    "models.infer_f32_step",
    "models.infer_bf16_step",
    "models.infer_int8_step",
];

/// Record precision `p`'s pick from `logits`, counting non-finite
/// logits as a failed step.
fn record_pick(out: &mut Outcome, p: usize, logits: &[f32]) {
    if !logits.iter().all(|x| x.is_finite()) {
        out.failed += 1;
    }
    out.picked[p].push(check::argmax(logits));
}

/// Per-layer metrics of the traced pass. `linear_gbps` holds the m = 1
/// linear-kernel rates and `stream_gbps` the bandwidth roof.
pub fn per_layer(out: &Outcome, linear_gbps: [f64; 3], stream_gbps: f64, m: &mut Metrics) {
    m.set("models.infer_tokens", out.step_ms[0].all().len() as f64);
    for (p, precision) in PRECISIONS.iter().enumerate() {
        let tag = precision.tag();
        let steps = out.step_ms[p].all();
        m.set(
            format!("models.infer_{tag}_step_ms_tail"),
            stats::tail(steps).0,
        );
        m.set(
            format!("models.infer_{tag}_prefill_ms_per_token"),
            stats::median(&out.prefill_ms_per_token[p]),
        );
        let weight_bytes = out.weight_bytes[p] as f64;
        m.set(format!("models.infer_{tag}_weight_bytes"), weight_bytes);
        m.set(
            format!("models.infer_{tag}_kv_bytes"),
            out.kv_bytes[p] as f64,
        );
        m.set(
            format!("models.infer_{tag}_weight_gbps"),
            weight_bytes / (stats::median(steps) / 1e3) / 1e9,
        );
        if p > 0 {
            m.set(format!("models.infer_{tag}_token_match"), out.match_rate(p));
        }
        m.set(format!("tensor.linear_{tag}_gbps"), linear_gbps[p]);
        m.set(
            format!("tensor.linear_{tag}_roof_frac"),
            linear_gbps[p] / stream_gbps,
        );
    }
}
