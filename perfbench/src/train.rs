//! The training part: the paper's two models on the real CPU stack.
//!
//! A tiny GPT (the repository example's `GptConfig::tiny`, BPE vocab 512)
//! learns from a seeded synthetic corpus through `TokenBatcher`, and the
//! tiny ResNet learns seeded synthetic images through `ImageBatcher`.
//! Steps of the two models alternate, so both see the same host noise.
//! The GPT is bound by per-op overhead and thread fan-out, the ResNet by
//! its conv GEMMs, so kernel and overhead changes land on different
//! metrics.

use crate::check;
use crate::metrics::Metrics;
use crate::stats::{self, Samples};
use crate::trace::Tracer;
use caraml_data::{BpeTokenizer, ImageBatcher, SyntheticCorpus, SyntheticImages, TokenBatcher};
use caraml_models::{GptConfig, GptModel, ResnetConfig, ResnetModel};
use caraml_tensor::optim::{Adam, Optimizer, Sgd};
use caraml_tensor::{workspace, Var};
use std::time::Instant;

pub const GPT_SEQ: usize = 32;
pub const GPT_BATCH: usize = 4;
pub const GPT_VOCAB: usize = 512;
pub const RESNET_BATCH: usize = 8;
const RESNET_CLASSES: usize = 8;
const RESNET_IMAGE: usize = 32;
const RESNET_DATASET: u64 = 1024;

/// The tiny GPT's shape at a given vocabulary size.
pub fn gpt_config(vocab: usize) -> GptConfig {
    GptConfig::tiny(vocab, GPT_SEQ)
}

pub fn resnet_config() -> ResnetConfig {
    ResnetConfig::tiny(RESNET_CLASSES, RESNET_IMAGE)
}

/// Steps of each model taken before timing starts.
const WARMUP_STEPS: usize = 2;
/// Training must lower the mean of the last `LOSS_WINDOW` losses below
/// the mean of the first `LOSS_WINDOW` by `LOSS_MARGIN` of the first.
const LOSS_WINDOW: usize = 5;
const LOSS_MARGIN: f64 = 0.05;

pub struct State {
    gpt: GptModel,
    gpt_params: Vec<Var>,
    adam: Adam,
    tokens: TokenBatcher,
    resnet: ResnetModel,
    resnet_params: Vec<Var>,
    sgd: Sgd,
    images: ImageBatcher,
}

/// What one model's steps produced.
#[derive(Debug, Default)]
pub struct ModelRun {
    /// Wall time of every timed step, ms.
    pub step_ms: Samples,
    /// Loss of every step, warm-up included.
    pub losses: Vec<f32>,
    /// Steps whose loss was not finite.
    pub failed: u64,
    /// Workspace pool allocations and reuses over the timed steps.
    pub allocs: u64,
    pub reuses: u64,
}

impl ModelRun {
    pub fn steps(&self) -> usize {
        self.losses.len()
    }

    /// The bits of every loss, one word per step.
    pub fn words(&self) -> Vec<u64> {
        self.losses.iter().map(|l| u64::from(l.to_bits())).collect()
    }

    pub fn check(&self) -> Result<(), String> {
        check::loss_decreased(&self.losses, LOSS_WINDOW, LOSS_MARGIN)
    }
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub gpt: ModelRun,
    pub resnet: ModelRun,
}

/// Build the corpus, tokenizer, batchers, models and optimizers from the
/// seed, then warm up (pool buffers, page faults) with a few steps.
pub fn setup(seed: u64) -> (State, Outcome) {
    let corpus = SyntheticCorpus::new(seed, 120);
    let text = corpus.text(30, 220);
    let tokenizer = BpeTokenizer::train(&text, GPT_VOCAB);
    let tokens = TokenBatcher::new(tokenizer.encode(&text), GPT_SEQ, GPT_BATCH, seed);
    let gpt = GptModel::new(gpt_config(tokenizer.vocab_size()), seed);
    let resnet = ResnetModel::new(resnet_config(), seed);
    let source = SyntheticImages::new(seed, RESNET_CLASSES, 3, RESNET_IMAGE, RESNET_IMAGE);
    let mut state = State {
        gpt_params: gpt.parameters(),
        gpt,
        adam: Adam::new(2e-3),
        tokens,
        resnet_params: resnet.parameters(),
        resnet,
        sgd: Sgd::with_momentum(0.05, 0.9),
        images: ImageBatcher::new(source, RESNET_DATASET, RESNET_BATCH, seed),
    };
    let mut out = Outcome::default();
    let mut off = Tracer::new(false);
    for _ in 0..WARMUP_STEPS {
        let loss = gpt_step(&mut state, &mut off, 0);
        record_loss(&mut out.gpt, loss);
        let loss = resnet_step(&mut state, &mut off, 0);
        record_loss(&mut out.resnet, loss);
    }
    (state, out)
}

fn record_loss(run: &mut ModelRun, loss: f32) {
    if !check::loss_ok(loss) {
        run.failed += 1;
    }
    run.losses.push(loss);
}

/// Alternate GPT and ResNet steps for `seconds` (at least one of each)
/// as one round of the window, appending to the outcome of `setup`.
pub fn run(state: &mut State, out: &mut Outcome, seconds: f64, tr: &mut Tracer) {
    let start = Instant::now();
    out.gpt.step_ms.new_round();
    out.resnet.step_ms.new_round();
    loop {
        let id = out.gpt.steps() as u64;
        timed(&mut out.gpt, || gpt_step(state, tr, id));
        timed(&mut out.resnet, || resnet_step(state, tr, id));
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

fn timed(run: &mut ModelRun, step: impl FnOnce() -> f32) {
    let before = workspace::global().stats();
    let t0 = Instant::now();
    let loss = step();
    run.step_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let after = workspace::global().stats();
    run.allocs += after.allocations - before.allocations;
    run.reuses += after.reuses - before.reuses;
    record_loss(run, loss);
}

pub fn gpt_step(st: &mut State, tr: &mut Tracer, id: u64) -> f32 {
    let step = tr.begin("train.gpt_step", id);
    let (x, y) = tr.span("data.token_batch", id, || st.tokens.next_batch());
    let loss = tr.span("models.gpt_forward", id, || st.gpt.loss(&x, &y));
    let value = loss.value().item();
    tr.span("tensor.gpt_backward", id, || loss.backward());
    tr.span("tensor.gpt_optim", id, || st.adam.step(&st.gpt_params));
    tr.end(step);
    value
}

pub fn resnet_step(st: &mut State, tr: &mut Tracer, id: u64) -> f32 {
    let step = tr.begin("train.resnet_step", id);
    let (x, y) = tr.span("data.image_batch", id, || st.images.next_batch());
    let loss = tr.span("models.resnet_forward", id, || st.resnet.loss(&x, &y));
    let value = loss.value().item();
    tr.span("tensor.resnet_backward", id, || loss.backward());
    tr.span("tensor.resnet_optim", id, || st.sgd.step(&st.resnet_params));
    tr.end(step);
    value
}

/// Share of a train step that the data, forward, backward and optimizer
/// spans may leave uncovered.
pub const MAX_UNATTRIBUTED: f64 = 0.05;

/// Per-layer metrics of the traced pass; returns failed checks.
pub fn per_layer(state: &State, out: &Outcome, tr: &Tracer, m: &mut Metrics) -> Vec<String> {
    let span_ms = |name: String| stats::median(&tr.durations_ms(&name));
    let mut problems = Vec::new();
    m.set("data.token_batch_ms", span_ms("data.token_batch".into()));
    m.set("data.image_batch_ms", span_ms("data.image_batch".into()));
    for (model, run) in [("gpt", &out.gpt), ("resnet", &out.resnet)] {
        for (layer, span) in [
            ("models", "forward"),
            ("tensor", "backward"),
            ("tensor", "optim"),
        ] {
            m.set(
                format!("{layer}.{model}_{span}_ms"),
                span_ms(format!("{layer}.{model}_{span}")),
            );
        }
        let steps = run.step_ms.all();
        m.set(format!("models.{model}_step_ms_p50"), stats::median(steps));
        let (tail, n) = stats::tail(steps);
        m.set(format!("models.{model}_step_ms_tail"), tail);
        m.set(format!("models.{model}_steps"), n as f64);
        let (own, total) = tr.self_and_total_us(&format!("train.{model}_step"));
        let unattributed = own / total;
        m.set(format!("models.{model}_unattributed_frac"), unattributed);
        if unattributed > MAX_UNATTRIBUTED {
            problems.push(format!(
                "{model}: spans leave {:.1}% of the step unattributed, above {:.0}%",
                unattributed * 100.0,
                MAX_UNATTRIBUTED * 100.0
            ));
        }
        m.set(
            format!("tensor.{model}_workspace_allocs_per_step"),
            run.allocs as f64 / n.max(1) as f64,
        );
        let takes = run.allocs + run.reuses;
        let reuse = if takes == 0 {
            1.0
        } else {
            run.reuses as f64 / takes as f64
        };
        m.set(format!("tensor.{model}_workspace_reuse_frac"), reuse);
    }
    // The fused Adam update reads parameter, gradient and both moments and
    // writes parameter and moments: 28 bytes per parameter.
    let adam_bytes = (state.gpt.num_params() * 7 * std::mem::size_of::<f32>()) as f64;
    let optim_s = span_ms("tensor.gpt_optim".into()) / 1e3;
    m.set("tensor.adam_gbps", adam_bytes / optim_s / 1e9);
    problems
}
