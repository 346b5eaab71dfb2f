//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|decode|fleet_burst|serve_poisson> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four parts exercise the repository's two stacks: training and decode
//! on the real CPU tensor stack, and the fleet and single-node serving
//! simulators. A workload is a mix of parts: its own part gets half of
//! the measured window, and every end-to-end metric its own part does not
//! produce comes from a reference slice of the part that does, so every
//! run reports every end-to-end metric. GLOSSARY.md says why
//! each workload exists and what each metric should move.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the window
//! twice, untraced and then traced, checks that observing the run left
//! its output bits alone, times the kernels, and prints the per-layer
//! metrics; the spans are written as Chrome trace-event JSON under
//! `perfbench/out/`. The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod check;
mod decode;
mod metrics;
mod probes;
mod sim;
mod stats;
mod trace;
mod train;

use metrics::{Metrics, END_TO_END, PER_LAYER};
use stats::median;
use std::time::Instant;
use trace::Tracer;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Part {
    Train,
    Decode,
    Fleet,
    Serve,
}

struct Workload {
    name: &'static str,
    /// Parts and their shares of the measured window; the first is the
    /// workload's own part.
    mix: &'static [(Part, f64)],
}

/// The own part takes half the window. The reference slices cover the
/// end-to-end metrics the own part does not produce, sized so that each
/// gets enough samples to be steady; the two simulator workloads leave out
/// each other's simulator, which they do not need.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "train",
        mix: &[
            (Part::Train, 0.5),
            (Part::Decode, 0.3),
            (Part::Fleet, 0.1),
            (Part::Serve, 0.1),
        ],
    },
    Workload {
        name: "decode",
        mix: &[
            (Part::Decode, 0.5),
            (Part::Train, 0.3),
            (Part::Fleet, 0.1),
            (Part::Serve, 0.1),
        ],
    },
    Workload {
        name: "fleet_burst",
        mix: &[
            (Part::Fleet, 0.5),
            (Part::Train, 0.25),
            (Part::Decode, 0.25),
        ],
    },
    Workload {
        name: "serve_poisson",
        mix: &[
            (Part::Serve, 0.5),
            (Part::Train, 0.25),
            (Part::Decode, 0.25),
        ],
    },
];

/// Set-up runs this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Rounds the measured window is cut into; every part runs in each.
const ROUNDS: usize = 10;
/// Operations each digest covers, per stream, when the run has them.
const DIGEST_OPS: usize = 16;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name == value);
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                workload = Some(w.ok_or(format!(
                    "unknown workload {value}; expected one of {}",
                    names.join(", ")
                ))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {value} must be positive"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// State and outcome of every part in a workload's mix.
#[derive(Default)]
struct Parts {
    train: Option<(train::State, train::Outcome)>,
    decode: Option<(decode::State, decode::Outcome)>,
    fleet: Option<(sim::State, sim::Outcome)>,
    serve: Option<(sim::State, sim::Outcome)>,
}

impl Parts {
    fn setup(w: &Workload, seed: u64) -> Parts {
        let mut parts = Parts::default();
        for &(part, _) in w.mix {
            match part {
                Part::Train => parts.train = Some(train::setup(seed)),
                Part::Decode => parts.decode = Some(decode::setup(seed)),
                Part::Fleet => parts.fleet = Some(sim::setup(sim::Kind::Fleet, seed)),
                Part::Serve => parts.serve = Some(sim::setup(sim::Kind::Serve, seed)),
            }
        }
        parts
    }

    /// Run the mix for `seconds` in `ROUNDS` rounds, each part taking its
    /// share of every round, so every part samples the whole window's
    /// host noise.
    fn run(&mut self, w: &Workload, seconds: f64, tr: &mut Tracer) {
        for _ in 0..ROUNDS {
            for &(part, share) in w.mix {
                let s = seconds * share / ROUNDS as f64;
                match part {
                    Part::Train => with(&mut self.train, |(st, out)| train::run(st, out, s, tr)),
                    Part::Decode => with(&mut self.decode, |(st, out)| decode::run(st, out, s, tr)),
                    Part::Fleet => with(&mut self.fleet, |(st, out)| sim::run(st, out, s, tr)),
                    Part::Serve => with(&mut self.serve, |(st, out)| sim::run(st, out, s, tr)),
                }
            }
        }
    }

    fn train(&self) -> &train::Outcome {
        &self.train.as_ref().expect("every mix trains").1
    }

    fn decode(&self) -> &decode::Outcome {
        &self.decode.as_ref().expect("every mix decodes").1
    }

    fn sims(&self) -> impl Iterator<Item = &sim::Outcome> {
        [&self.fleet, &self.serve]
            .into_iter()
            .filter_map(|p| p.as_ref().map(|(_, out)| out))
    }

    /// Operations attempted and failed, and every failed run-level check.
    fn checks(&self) -> (u64, u64, Vec<String>) {
        let t = self.train();
        let d = self.decode();
        let mut attempted = (t.gpt.steps() + t.resnet.steps()) as u64 + d.attempted;
        let mut failed = t.gpt.failed + t.resnet.failed + d.failed;
        let mut problems = Vec::new();
        for (model, run) in [("gpt", &t.gpt), ("resnet", &t.resnet)] {
            if let Err(e) = run.check() {
                problems.push(format!("{model}: {e}"));
            }
        }
        if let Err(e) = d.check() {
            problems.push(format!("decode: {e}"));
        }
        for s in self.sims() {
            attempted += s.attempted;
            failed += s.failed;
            if let Some(e) = &s.error {
                problems.push(format!("{:?}: {e}", s.kind));
            }
        }
        (attempted, failed, problems)
    }

    /// Every output stream as one word per operation: loss bits per
    /// train step, tokens per decoded position, FOM digest per point.
    fn streams(&self) -> Vec<(&'static str, Vec<u64>)> {
        let t = self.train();
        let mut v = vec![
            ("gpt_loss", t.gpt.words()),
            ("resnet_loss", t.resnet.words()),
            ("decode_tokens", self.decode().words()),
        ];
        for s in self.sims() {
            let name = match s.kind {
                sim::Kind::Fleet => "fleet_fom",
                sim::Kind::Serve => "serve_fom",
            };
            v.push((name, s.digests.clone()));
        }
        v
    }

    fn end_to_end(&self, m: &mut Metrics) {
        let t = self.train();
        let per_s =
            |items: usize, ms: &stats::Samples| items as f64 / (ms.best_round_median() / 1e3);
        m.set(
            "gpt_train_tokens_per_s",
            per_s(train::GPT_BATCH * train::GPT_SEQ, &t.gpt.step_ms),
        );
        m.set(
            "resnet_train_images_per_s",
            per_s(train::RESNET_BATCH, &t.resnet.step_ms),
        );
        let d = self.decode();
        for (p, name) in [
            "decode_f32_tokens_per_s",
            "decode_bf16_tokens_per_s",
            "decode_int8_tokens_per_s",
        ]
        .into_iter()
        .enumerate()
        {
            m.set(name, per_s(1, &d.step_ms[p]));
        }
        let (requests, seconds) = self
            .sims()
            .map(sim::Outcome::pass)
            .fold((0.0, 0.0), |(r, s), (r2, s2)| (r + r2, s + s2));
        m.set("sim_requests_per_s", requests / seconds);
    }
}

fn with<T>(slot: &mut Option<T>, f: impl FnOnce(&mut T)) {
    f(slot.as_mut().expect("the part was set up"))
}

/// End-to-end metric names a workload's own part produces.
fn own_metrics(w: &Workload) -> &'static [&'static str] {
    match w.mix[0].0 {
        Part::Train => &["gpt_train_tokens_per_s", "resnet_train_images_per_s"],
        Part::Decode => &[
            "decode_f32_tokens_per_s",
            "decode_bf16_tokens_per_s",
            "decode_int8_tokens_per_s",
        ],
        Part::Fleet | Part::Serve => &["sim_requests_per_s"],
    }
}

/// Set up `SETUP_REPS` times and keep the last; returns the parts and the
/// median set-up time in seconds.
fn setup_timed(w: &Workload, seed: u64) -> (Parts, f64) {
    let mut times = Vec::new();
    let mut parts = None;
    for _ in 0..SETUP_REPS {
        drop(parts.take());
        let t0 = Instant::now();
        parts = Some(Parts::setup(w, seed));
        times.push(t0.elapsed().as_secs_f64());
    }
    (parts.expect("set up at least once"), median(&times))
}

/// Peak resident set size of this process, MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}

/// Per-layer metrics of the traced pass, the kernel probes and the
/// runtime labels; returns failed checks.
fn per_layer(seed: u64, parts: &Parts, tr: &Tracer, m: &mut Metrics) -> Vec<String> {
    m.set(
        "bench.nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
    );
    m.set("bench.workers", rayon::current_num_threads() as f64);
    let avx2 = caraml_tensor::simd::active_arm() == caraml_tensor::simd::Arm::Avx2;
    m.set("bench.simd_avx2", f64::from(u8::from(avx2)));

    let (state, out) = parts.train.as_ref().expect("every mix trains");
    let problems = train::per_layer(state, out, tr, m);

    m.set("rayon.fanout_us", probes::fanout_us());
    let (gpt_x, resnet_x) = probes::parallel_speedup(seed, 15);
    m.set("rayon.gpt_parallel_speedup", gpt_x);
    m.set("rayon.resnet_parallel_speedup", resnet_x);
    // The GPT's logits projection: every token against the vocabulary.
    let gpt = train::gpt_config(train::GPT_VOCAB);
    m.set(
        "tensor.gemm_gflops",
        probes::gemm_gflops(train::GPT_BATCH * gpt.seq_len, gpt.hidden, gpt.vocab, 9, 20),
    );
    m.set("tensor.attention_gflops", probes::attention_gflops());
    m.set("tensor.conv_gflops", probes::conv_gflops());
    m.set(
        "tensor.peak_gflops",
        probes::gemm_gflops(512, 512, 512, 7, 1),
    );
    let stream = probes::stream_gbps();
    m.set("tensor.stream_gbps", stream);
    let linear = probes::linear_gbps(decode::config().hidden);
    decode::per_layer(parts.decode(), linear, stream, m);

    let mut energy = sim::Energy::default();
    for (kind, slot) in [
        (sim::Kind::Serve, &parts.serve),
        (sim::Kind::Fleet, &parts.fleet),
    ] {
        let e = sim::per_layer(kind, slot.as_ref().map(|(_, out)| out), tr, m);
        energy.energy_ms += e.energy_ms;
        energy.run_ms += e.run_ms;
        energy.phases += e.phases;
    }
    m.set("engine.energy_ms", energy.energy_ms);
    m.set("engine.energy_share", energy.energy_ms / energy.run_ms);
    m.set("engine.phases", energy.phases as f64);
    m.set(
        "engine.ns_per_phase",
        energy.energy_ms * 1e6 / energy.phases as f64,
    );
    problems
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join("|")
            );
            std::process::exit(2);
        }
    };
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={} workers={} arm={:?}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        rayon::current_num_threads(),
        caraml_tensor::simd::active_arm(),
    );
    let (mut parts, setup_s) = setup_timed(w, args.seed);
    let mut m = Metrics::default();
    let (attempted, mut failed, mut problems);
    let declared = if args.trace {
        // Untraced pass, then a traced pass from fresh state over the
        // same inputs; the spans come from the second.
        parts.run(w, args.seconds / 2.0, &mut Tracer::new(false));
        let mut untraced = Metrics::default();
        parts.end_to_end(&mut untraced);
        let untraced_streams = parts.streams();
        drop(parts);
        parts = Parts::setup(w, args.seed);
        let mut tr = Tracer::new(true);
        parts.run(w, args.seconds / 2.0, &mut tr);
        (attempted, failed, problems) = parts.checks();
        for ((name, a), (_, b)) in untraced_streams.iter().zip(parts.streams()) {
            // Compare the operations both passes ran.
            if let Some(k) = a.iter().zip(&b).position(|(x, y)| x != y) {
                failed += 1;
                problems.push(format!("tracing changed {name} at operation {k}"));
            }
        }
        let mut traced = Metrics::default();
        parts.end_to_end(&mut traced);
        let own = own_metrics(w);
        let overhead = own
            .iter()
            .map(|n| untraced.get(n).expect("set") / traced.get(n).expect("set") - 1.0)
            .sum::<f64>()
            / own.len() as f64;
        m.set("bench.trace_overhead_frac", overhead);
        problems.extend(per_layer(args.seed, &parts, &tr, &mut m));
        write_trace(w.name, args.seed, &tr);
        PER_LAYER
    } else {
        parts.run(w, args.seconds, &mut Tracer::new(false));
        (attempted, failed, problems) = parts.checks();
        parts.end_to_end(&mut m);
        m.set("setup_s", setup_s);
        m.set("peak_rss_mb", peak_rss_mb());
        END_TO_END
    };
    let digests: Vec<String> = parts
        .streams()
        .iter()
        .map(|(name, words)| {
            let n = words.len().min(DIGEST_OPS);
            format!("{name}={:016x}/{n}", check::Digest::of(&words[..n]).value())
        })
        .collect();
    println!("digest {}", digests.join(" "));
    let rendered = m.render(declared).unwrap_or_else(|e| {
        problems.push(e);
        "{}".to_string()
    });
    for p in &problems {
        println!("check failed: {p}");
    }
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {rendered}}}"
    );
    std::process::exit(if correct { 0 } else { 1 });
}

fn write_trace(workload: &str, seed: u64, tr: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-seed{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tr.to_chrome_trace()));
    match written {
        Ok(()) => println!("trace {}", path.display()),
        Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
    }
}
