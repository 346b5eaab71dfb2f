//! The `caraml` command-line entry point — the Rust counterpart of the
//! paper's `jube run … --tag <SYSTEM> <MODEL>` / `jube result` commands.
//!
//! ```text
//! caraml systems                      # Table I
//! caraml run llm --tag GH200          # Fig. 2 sweep on one system
//! caraml run llm --tag MI250 GCD
//! caraml run llm --tag GC200          # Table II (IPU path)
//! caraml run resnet50 --tag A100      # Fig. 3 sweep (incl. OOM rows)
//! caraml heatmap WAIH100              # one Fig. 4 panel
//! caraml inference H100               # extension: inference sweep
//! caraml serve H100                   # extension: serving load sweep
//! caraml serve H100 --bursty          # heavy-tailed arrival trace
//! caraml fleet H100 --replicas 4 --policy all    # replica router sweep
//! caraml fleet H100 --disagg --autoscale --json  # fleet FOMs as JSON
//! caraml scenario examples/scenario.toml            # declarative sweep
//! caraml scenario examples/scenario.toml --check    # vs native twin
//! caraml scenario examples/scenario.toml --history results.jsonl
//! caraml trend --history results.jsonl [--json]     # trajectory report
//! caraml trend --history results.jsonl --gate       # regression gate
//! caraml devices [--json]            # device registry table
//! caraml devices --check docs/DEVICES.md
//! caraml calibrate trace.toml -o fitted.toml
//! ```

use caraml::continuous::{default_label, History, Verdict};
use caraml::fleet::{AutoscaleConfig, FleetBenchmark, RoutePolicy};
use caraml::inference::InferenceBenchmark;
use caraml::report::{
    render_device_table, render_fleet_table, render_heatmap, render_precision_table,
    render_scenario_outcome, render_serve_table, render_shard_table, render_trend_report,
};
use caraml::resnet::{ResnetBenchmark, FIG4_BATCHES};
use caraml::scenario::{check_against_native, Scenario};
use caraml::serve::{load_grid, ArrivalKind, ServeBenchmark};
use caraml::suite::{
    llm_benchmark_ipu, llm_benchmark_nvidia_amd, resnet50_benchmark, run_suite_sharded,
};
use caraml::sweep::{grid, ShardPlan};
use caraml::trend::{analyze, TrendConfig};
use caraml::SweepRunner;
use caraml_accel::{calibrate, DeviceKind, DeviceRegistry, NodeConfig, Precision, SystemId};
use caraml_tensor::simd;
use jube::SlurmSim;
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  caraml systems\n  caraml devices [--json | --check <golden-file>]\n  \
         caraml calibrate <trace.toml> [-o <out.toml>]\n  \
         caraml run <llm|resnet50> --tag <TAG...> [--shards N] [--nodes N]\n  \
         caraml suite <TAG> [--shards N] [--nodes N] [--precision <P|all|p0,p1,...>]\n  \
         caraml heatmap <TAG> [--shards N] [--nodes N] [--precision <P|all|p0,p1,...>]\n  \
         caraml inference <TAG>\n  \
         caraml serve <TAG> [--bursty] [--seed N] [--precision <P|all|p0,p1,...>]\n  \
         caraml fleet <TAG> [--replicas N] [--policy <P|all>] [--precision <P|all|p0,p1,...>]\n  \
         \x20            [--rate F] [--cap N] [--seed N] [--bursty] [--disagg] [--autoscale] [--json]\n  \
         caraml scenario <file.toml> [--check] [--json] [--history <path>] [--label <rev>]\n  \
         caraml trend [--history <path>] [--json] [--window N] [--gate [--tolerance F]]"
    );
    ExitCode::from(2)
}

/// The SIMD arm label stamped on history records.
fn arm_label() -> &'static str {
    match simd::active_arm() {
        simd::Arm::Scalar => "scalar",
        simd::Arm::Avx2 => "avx2",
    }
}

/// Resolve a CLI tag through the registry, printing the typed error
/// (which lists all valid tags) on failure.
fn resolve_tag(tag: &str) -> Result<SystemId, ExitCode> {
    SystemId::try_from_tag(tag).map_err(|e| {
        eprintln!("caraml: {e}");
        ExitCode::from(2)
    })
}

/// Whether a tag selects the IPU execution path — decided by the
/// accelerator kind in the registry, not by a hard-coded tag match.
fn tag_is_ipu(tag: &str) -> bool {
    SystemId::from_jube_tag(tag)
        .map(|sys| NodeConfig::shared(sys).device.kind == DeviceKind::Ipu)
        .unwrap_or(false)
}

/// Split `--tag` values out of an argument list. Tag collection stops at
/// the next `--`-prefixed token, so flags after the tag list (e.g.
/// `--shards 4`) are returned with the positional arguments instead of
/// being swallowed as tags.
fn split_tags(args: &[String]) -> (Vec<String>, Vec<String>) {
    match args.iter().position(|a| a == "--tag") {
        Some(i) => {
            let tag_end = args[i + 1..]
                .iter()
                .position(|a| a.starts_with("--"))
                .map_or(args.len(), |j| i + 1 + j);
            let mut rest = args[..i].to_vec();
            rest.extend_from_slice(&args[tag_end..]);
            (rest, args[i + 1..tag_end].to_vec())
        }
        None => (args.to_vec(), Vec::new()),
    }
}

/// Value of a `--flag <value>` pair: `None` when the flag is absent, an
/// error when it has no value (the next token is another `--flag`) or the
/// value does not parse.
fn flag_value<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1).filter(|v| !v.starts_with("--")) {
        None => Err(format!("{name} needs a value")),
        Some(v) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: invalid value `{v}`")),
    }
}

/// Parse `--precision <tag|all|t0,t1,...>`; `None` when the flag is
/// absent. For `serve`, `suite` and `heatmap` the tiers are the set to
/// sweep; for `fleet` they are the per-replica ladder (replica `i` runs
/// entry `i % len`). `all` is the full ladder. Unknown values are
/// rejected with the registry-style error listing every valid tag.
fn precision_options(args: &[String]) -> Result<Option<Vec<Precision>>, String> {
    match args.iter().position(|a| a == "--precision") {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            None => Err(
                "--precision needs a value (f32, bf16, int8, 'all', or a comma-separated list)"
                    .to_string(),
            ),
            Some("all") => Ok(Some(Precision::ALL.to_vec())),
            Some(list) => list
                .split(',')
                .map(|tag| {
                    Precision::try_from_tag(tag.trim())
                        .map_err(|e| format!("{e} (or 'all', or a comma-separated list)"))
                })
                .collect::<Result<Vec<_>, _>>()
                .map(Some),
        },
    }
}

/// Run one representative serving load point per precision tier and
/// render the energy-per-precision comparison table (Wh/ktoken per tier,
/// ratios against the widest precision).
fn render_precision_sweep(
    sys: SystemId,
    base: &ServeBenchmark,
    precisions: &[Precision],
) -> String {
    let point = load_grid(&[32.0], &[64])[0];
    let foms: Vec<_> = precisions
        .iter()
        .filter_map(|&p| {
            let mut bench = ServeBenchmark::new(sys).with_precision(p);
            bench.config.arrival = base.config.arrival;
            bench.config.seed = base.config.seed;
            bench.run(point).ok()
        })
        .collect();
    render_precision_table(
        &format!(
            "precision sweep on {} (rate {:.0}/s, cap {}, seed {})",
            NodeConfig::shared(sys).platform,
            point.rate_per_s,
            point.batch_cap,
            base.config.seed
        ),
        &foms,
    )
}

/// `--shards N [--nodes M]` dispatch options: M defaults to N, so each
/// shard gets one simulated host.
fn shard_options(args: &[String]) -> Result<Option<(usize, u32)>, String> {
    let shards: Option<usize> = flag_value(args, "--shards")?;
    let nodes: Option<u32> = flag_value(args, "--nodes")?;
    Ok(shards
        .map(|s| (s.max(1), nodes.unwrap_or(s as u32).max(1)))
        .or_else(|| nodes.map(|n| (n as usize, n.max(1)))))
}

/// Render the scheduler's per-job accounting for a sharded suite run.
fn render_job_accounting(title: &str, records: &[jube::JobRecord]) -> String {
    let mut table = jube::ResultTable::new(
        ["job", "name", "nodes", "state", "queue_s", "run_s"]
            .iter()
            .map(|s| s.to_string())
            .collect(),
    );
    for r in records {
        table.push_row(vec![
            r.id.to_string(),
            r.name.clone(),
            r.nodes.to_string(),
            format!("{:?}", r.state),
            format!("{:.4}", r.queue_s),
            format!("{:.4}", r.run_s),
        ]);
    }
    format!("{title}\n{}", table.to_ascii())
}

fn run_suite(which: &str, tags: &[String], shard_opts: Option<(usize, u32)>) -> ExitCode {
    let is_ipu = tags.iter().any(|t| tag_is_ipu(t));
    let (benchmark, columns): (jube::Benchmark, Vec<&str>) = match (which, is_ipu) {
        ("llm", false) => (
            llm_benchmark_nvidia_amd(),
            vec![
                "platform",
                "global_batch",
                "tokens_per_s_per_gpu",
                "energy_wh_per_gpu",
                "tokens_per_wh",
                "error",
            ],
        ),
        ("llm", true) => (
            llm_benchmark_ipu(),
            vec![
                "platform",
                "global_batch_tokens",
                "tokens_per_s",
                "energy_wh_per_ipu",
                "tokens_per_wh",
                "error",
            ],
        ),
        ("resnet50", _) => (
            resnet50_benchmark(),
            vec![
                "platform",
                "global_batch",
                "images_per_s",
                "energy_wh_per_epoch",
                "images_per_wh",
                "error",
            ],
        ),
        _ => return usage(),
    };
    println!("caraml run {which} --tag {}\n", tags.join(" "));
    let run = match shard_opts {
        Some((shards, nodes)) => {
            run_suite_sharded(&benchmark, tags, shards, nodes).map(|(result, records)| {
                (
                    result,
                    Some(render_job_accounting(
                        &format!("shard dispatch ({nodes}-node partition)"),
                        &records,
                    )),
                )
            })
        }
        None => benchmark.run(tags).map(|result| (result, None)),
    };
    match run {
        Ok((result, accounting)) => {
            let mut table = result.table(&columns);
            table.sort_by_column(columns[1]);
            println!("{}", table.to_ascii());
            if let Some(accounting) = accounting {
                println!("{accounting}");
            }
            if result.failures() > 0 {
                println!(
                    "{} workpackage(s) failed (see error column)",
                    result.failures()
                );
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("caraml: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `caraml suite <TAG>`: the full figure-generating sweep set for one
/// system (LLM training + ResNet50), dispatched sharded over a simulated
/// Slurm partition with per-shard accounting.
fn run_full_suite(
    tag: &str,
    shard_opts: Option<(usize, u32)>,
    precisions: Option<Vec<Precision>>,
) -> ExitCode {
    let sys = match resolve_tag(tag) {
        Ok(sys) => sys,
        Err(code) => return code,
    };
    let (shards, nodes) = shard_opts.unwrap_or((4, 4));
    let tags = vec![tag.to_string()];
    let is_ipu = NodeConfig::shared(sys).device.kind == DeviceKind::Ipu;
    let suites: Vec<(&str, jube::Benchmark, Vec<&str>)> = if is_ipu {
        vec![(
            "llm",
            llm_benchmark_ipu(),
            vec!["global_batch_tokens", "tokens_per_s", "tokens_per_wh"],
        )]
    } else {
        vec![
            (
                "llm",
                llm_benchmark_nvidia_amd(),
                vec![
                    "global_batch",
                    "tokens_per_s_per_gpu",
                    "tokens_per_wh",
                    "error",
                ],
            ),
            (
                "resnet50",
                resnet50_benchmark(),
                vec!["global_batch", "images_per_s", "images_per_wh", "error"],
            ),
        ]
    };
    for (name, benchmark, columns) in suites {
        match run_suite_sharded(&benchmark, &tags, shards, nodes) {
            Ok((result, records)) => {
                let mut table = result.table(&columns);
                table.sort_by_column(columns[0]);
                println!(
                    "caraml suite {tag} · {name} ({shards} shards)\n{}",
                    table.to_ascii()
                );
                println!(
                    "{}",
                    render_job_accounting(
                        &format!("shard dispatch ({nodes}-node partition)"),
                        &records
                    )
                );
            }
            Err(e) => {
                eprintln!("caraml: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Serving precision axis: `--precision all` (or one tier) appends the
    // energy-per-precision comparison to the figure set.
    if let Some(precisions) = precisions {
        if is_ipu {
            println!("caraml suite {tag}: precision sweep skipped (no IPU serving path)");
        } else {
            let base = ServeBenchmark::new(sys);
            println!("{}", render_precision_sweep(sys, &base, &precisions));
        }
    }
    ExitCode::SUCCESS
}

fn run_heatmap(
    tag: &str,
    shard_opts: Option<(usize, u32)>,
    precisions: Option<Vec<Precision>>,
) -> ExitCode {
    let sys = match resolve_tag(tag) {
        Ok(sys) => sys,
        Err(code) => return code,
    };
    let node = NodeConfig::shared(sys);
    let max_dev = (node.devices_per_node * node.max_nodes.min(2)).max(1);
    let mut devices = Vec::new();
    let mut d = 1u32;
    while d <= max_dev {
        devices.push(d);
        d *= 2;
    }
    let title = format!("ResNet50 images/s on {}", node.platform);
    let cells = match shard_opts {
        Some((shards, nodes)) => {
            // Multi-node dispatch: shard the Fig. 4 grid over a simulated
            // partition, node demand taken from each point's device count.
            let slurm = SlurmSim::new(nodes);
            let sharded = SweepRunner::parallel().map_sharded(
                &slurm,
                ShardPlan::new(shards),
                grid(sys, &devices, &FIG4_BATCHES),
                |p| ResnetBenchmark::heatmap_cell(p.system, p.devices, p.batch),
            );
            println!(
                "{}",
                render_shard_table(
                    &format!("shard dispatch ({nodes}-node partition)"),
                    &sharded.shards,
                    None
                )
            );
            sharded.results
        }
        None => SweepRunner::parallel().map(grid(sys, &devices, &FIG4_BATCHES), |p| {
            ResnetBenchmark::heatmap_cell(p.system, p.devices, p.batch)
        }),
    };
    let rows: Vec<Vec<_>> = cells
        .chunks(FIG4_BATCHES.len())
        .map(<[caraml::fom::HeatmapCell]>::to_vec)
        .collect();
    println!("{}", render_heatmap(&title, &devices, &FIG4_BATCHES, &rows));
    // Precision axis: a KV-admission heatmap per tier — peak concurrently
    // decoding sequences over a rate × cap grid, showing int8 KV raising
    // the servable batch at the same HBM budget.
    if let Some(precisions) = precisions {
        let rates = [8.0, 32.0, 128.0];
        let caps = [4u32, 16, 64];
        for precision in precisions {
            let bench = ServeBenchmark::new(sys).with_precision(precision);
            let mut table = jube::ResultTable::new(
                std::iter::once("rate \\ cap".to_string())
                    .chain(caps.iter().map(u32::to_string))
                    .collect(),
            );
            for &rate in &rates {
                let mut row = vec![format!("{rate:.0}")];
                for &cap in &caps {
                    let point = load_grid(&[rate], &[cap])[0];
                    row.push(match bench.simulate(point) {
                        Ok(report) => report.max_occupancy.to_string(),
                        Err(_) => "-".to_string(),
                    });
                }
                table.push_row(row);
            }
            println!(
                "peak concurrent sequences on {} ({} weights + KV)\n{}",
                NodeConfig::shared(sys).platform,
                precision.tag(),
                table.to_ascii()
            );
        }
    }
    ExitCode::SUCCESS
}

fn run_inference(tag: &str) -> ExitCode {
    let sys = match resolve_tag(tag) {
        Ok(sys) => sys,
        Err(code) => return code,
    };
    let bench = InferenceBenchmark::new(sys);
    println!(
        "LLM inference on {} (800M GPT):",
        NodeConfig::shared(sys).platform
    );
    let lines =
        SweepRunner::parallel().map(vec![1u32, 4, 16, 64], |batch| match bench.run(batch) {
            Ok(fom) => {
                format!(
                "  batch {batch:>3}: TTFT {:>7.1} ms | decode {:>8.0} tok/s ({}) | {:.4} Wh/ktoken",
                fom.ttft_s * 1e3,
                fom.decode_tokens_per_s,
                if fom.decode_memory_bound { "memory-bound" } else { "compute-bound" },
                fom.energy_wh_per_ktoken
            )
            }
            Err(e) => format!("  batch {batch:>3}: {e}"),
        });
    for line in lines {
        println!("{line}");
    }
    ExitCode::SUCCESS
}

fn run_serve(tag: &str, flags: &[String]) -> ExitCode {
    let sys = match resolve_tag(tag) {
        Ok(sys) => sys,
        Err(code) => return code,
    };
    let precisions = match precision_options(flags) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("caraml: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bench = ServeBenchmark::new(sys);
    if let Some(precisions) = &precisions {
        if precisions.len() == 1 {
            bench = bench.with_precision(precisions[0]);
        }
    }
    if flags.iter().any(|f| f == "--bursty") {
        bench.config.arrival = ArrivalKind::Bursty {
            burst_factor: 8.0,
            mean_burst: 6.0,
        };
    }
    if let Some(i) = flags.iter().position(|f| f == "--seed") {
        match flags.get(i + 1).and_then(|v| v.parse().ok()) {
            Some(seed) => bench.config.seed = seed,
            None => return usage(),
        }
    }
    let grid = load_grid(&[2.0, 8.0, 32.0, 128.0], &[4, 16, 64]);
    let outcomes = bench.sweep(SweepRunner::parallel(), grid);
    let arrival = match bench.config.arrival {
        ArrivalKind::Poisson => "Poisson".to_string(),
        ArrivalKind::Bursty { .. } => "bursty".to_string(),
    };
    println!(
        "{}",
        render_serve_table(
            &format!(
                "LLM serving on {} (800M GPT, {}, {} requests, {} arrivals, seed {})",
                NodeConfig::shared(sys).platform,
                bench.config.precision.tag(),
                bench.config.num_requests,
                arrival,
                bench.config.seed
            ),
            &outcomes
        )
    );
    if let Some(precisions) = precisions {
        if precisions.len() > 1 {
            println!("{}", render_precision_sweep(sys, &bench, &precisions));
        }
    }
    ExitCode::SUCCESS
}

/// Parse `--policy <tag|all>` into the routing policies to sweep.
/// Defaults to every policy when the flag is absent; unknown values are
/// rejected with the full list of valid tags.
fn policy_options(args: &[String]) -> Result<Vec<RoutePolicy>, String> {
    match args.iter().position(|a| a == "--policy") {
        None => Ok(RoutePolicy::ALL.to_vec()),
        Some(i) => match args.get(i + 1).map(String::as_str) {
            None => Err(
                "--policy needs a value (round-robin, least-kv-load, session-affinity or all)"
                    .to_string(),
            ),
            Some("all") => Ok(RoutePolicy::ALL.to_vec()),
            Some(tag) => RoutePolicy::try_from_tag(tag)
                .map(|p| vec![p])
                .map_err(|e| format!("{e} (or 'all' to sweep every policy)")),
        },
    }
}

fn run_fleet(tag: &str, flags: &[String]) -> ExitCode {
    let sys = match resolve_tag(tag) {
        Ok(sys) => sys,
        Err(code) => return code,
    };
    let (policies, precisions, replicas, rate, cap, seed) = match (
        policy_options(flags),
        precision_options(flags),
        flag_value::<u32>(flags, "--replicas"),
        flag_value::<f64>(flags, "--rate"),
        flag_value::<u32>(flags, "--cap"),
        flag_value::<u64>(flags, "--seed"),
    ) {
        (Ok(po), Ok(pr), Ok(re), Ok(ra), Ok(ca), Ok(se)) => (po, pr, re, ra, ca, se),
        (Err(e), ..)
        | (_, Err(e), ..)
        | (_, _, Err(e), ..)
        | (_, _, _, Err(e), ..)
        | (_, _, _, _, Err(e), _)
        | (.., Err(e)) => {
            eprintln!("caraml: {e}");
            return ExitCode::from(2);
        }
    };
    let replicas = replicas.unwrap_or(4);
    if replicas == 0 {
        eprintln!("caraml: --replicas needs at least one replica");
        return ExitCode::from(2);
    }
    let mut bench = FleetBenchmark::new(sys)
        .with_replicas(replicas)
        .disaggregated(flags.iter().any(|f| f == "--disagg"));
    if flags.iter().any(|f| f == "--autoscale") {
        bench = bench.with_autoscale(AutoscaleConfig {
            min_replicas: replicas.min(AutoscaleConfig::default().max_replicas),
            max_replicas: replicas.max(AutoscaleConfig::default().max_replicas),
            ..AutoscaleConfig::default()
        });
    }
    match precisions {
        Some(ps) if ps.len() == 1 => bench = bench.with_precision(ps[0]),
        Some(ps) => bench.config.replica_precisions = Some(ps),
        None => {}
    }
    if flags.iter().any(|f| f == "--bursty") {
        bench.config.serve.arrival = ArrivalKind::Bursty {
            burst_factor: 8.0,
            mean_burst: 6.0,
        };
    }
    if let Some(seed) = seed {
        bench.config.serve.seed = seed;
    }
    let point = load_grid(&[rate.unwrap_or(96.0)], &[cap.unwrap_or(16)])[0];
    let outcomes = bench.sweep_policies(SweepRunner::parallel(), point, policies);
    if flags.iter().any(|f| f == "--json") {
        let foms: Vec<_> = outcomes
            .iter()
            .filter_map(|o| o.as_completed().cloned())
            .collect();
        match serde_json::to_string_pretty(&foms) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("caraml: {e}");
                ExitCode::FAILURE
            }
        }
    } else {
        let arrival = match bench.config.serve.arrival {
            ArrivalKind::Poisson => "Poisson".to_string(),
            ArrivalKind::Bursty { .. } => "bursty".to_string(),
        };
        println!(
            "{}",
            render_fleet_table(
                &format!(
                    "LLM fleet serving on {} ({} replicas, rate {:.0}/s, cap {}, {} arrivals, seed {})",
                    NodeConfig::shared(sys).platform,
                    replicas,
                    point.rate_per_s,
                    point.batch_cap,
                    arrival,
                    bench.config.serve.seed
                ),
                &outcomes
            )
        );
        ExitCode::SUCCESS
    }
}

/// `caraml scenario <file.toml>`: run a declarative sweep, optionally
/// verify it against the native twin (`--check`), append the results to
/// the history store (`--history`), or dump JSON (`--json`).
fn run_scenario(args: &[String]) -> ExitCode {
    let Some(file) = args.first().filter(|a| !a.starts_with("--")) else {
        return usage();
    };
    let (history_path, label) = match (
        flag_value::<String>(args, "--history"),
        flag_value::<String>(args, "--label"),
    ) {
        (Ok(path), Ok(label)) => (path, label),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("caraml: {e}");
            return ExitCode::from(2);
        }
    };
    let scenario = match Scenario::load(Path::new(file)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("caraml: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match scenario.run(SweepRunner::parallel()) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("caraml: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--check") {
        // Spec half: the parsed file must equal the Rust-constructed
        // twin. Metric half: the twin's run (serial, to also witness
        // execution-order independence) must be bit-identical.
        let native = Scenario::example();
        if let Err(e) = check_against_native(&scenario, &native) {
            eprintln!("caraml: scenario check failed: {e}");
            return ExitCode::FAILURE;
        }
        let native_outcome = match native.run(SweepRunner::serial()) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("caraml: native twin failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if native_outcome.metrics.metrics != outcome.metrics.metrics
            || native_outcome.checksum != outcome.checksum
        {
            eprintln!(
                "caraml: scenario run diverges from the native twin \
                 (checksum {} vs {})",
                outcome.checksum, native_outcome.checksum
            );
            return ExitCode::FAILURE;
        }
        println!(
            "scenario `{}` verified against the native twin: {} metrics, checksum {}",
            outcome.name,
            outcome.metrics.metrics.len(),
            outcome.checksum
        );
    }
    if args.iter().any(|a| a == "--json") {
        match serde_json::to_string_pretty(&outcome) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("caraml: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if !args.iter().any(|a| a == "--check") {
        println!("{}", render_scenario_outcome(&outcome));
    }
    if let Some(path) = &history_path {
        let path = Path::new(path);
        let generation = match History::load_or_empty(path) {
            Ok(history) => history.next_generation(),
            Err(e) => {
                eprintln!("caraml: {e}");
                return ExitCode::FAILURE;
            }
        };
        let label = label.unwrap_or_else(default_label);
        let records = outcome.history_records(generation, &label, arm_label());
        match History::append_to(path, &records) {
            Ok(()) => println!(
                "appended {} records as generation {generation} (label {label}) to {}",
                records.len(),
                path.display()
            ),
            Err(e) => {
                eprintln!("caraml: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// `caraml trend`: analyse the history store — rolling-median/MAD
/// anomalies, step changes, sparklines — and render the report. With
/// `--gate`, also run the direction-aware latest-vs-previous generation
/// gate and exit nonzero on a regressed or missing metric. A missing
/// history renders as empty, but fails the gate: a mistyped path must
/// not pass.
fn run_trend(args: &[String]) -> ExitCode {
    let history_path = match flag_value::<String>(args, "--history") {
        Ok(path) => path.unwrap_or_else(|| "results.jsonl".to_string()),
        Err(e) => {
            eprintln!("caraml: {e}");
            return ExitCode::from(2);
        }
    };
    let gate = args.iter().any(|a| a == "--gate");
    let loaded = if gate {
        History::load(Path::new(&history_path))
    } else {
        History::load_or_empty(Path::new(&history_path))
    };
    let history = match loaded {
        Ok(h) => h,
        Err(e) => {
            eprintln!("caraml: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = TrendConfig::default();
    match flag_value::<usize>(args, "--window") {
        Ok(Some(w)) if w >= 2 => cfg.window = w,
        Ok(Some(_)) => {
            eprintln!("caraml: --window needs at least 2 points");
            return ExitCode::from(2);
        }
        Ok(None) => {}
        Err(e) => {
            eprintln!("caraml: {e}");
            return ExitCode::from(2);
        }
    }
    let report = analyze(&history, &cfg);
    if args.iter().any(|a| a == "--json") {
        match serde_json::to_string_pretty(&report) {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("caraml: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        print!("{}", render_trend_report(&report));
    }
    if gate {
        let tolerance = match flag_value::<f64>(args, "--tolerance") {
            Ok(None) => cfg.tolerance,
            Ok(Some(t)) if t.is_finite() && t >= 0.0 => t,
            Ok(Some(t)) => {
                eprintln!("caraml: --tolerance needs a finite value >= 0, got {t}");
                return ExitCode::from(2);
            }
            Err(e) => {
                eprintln!("caraml: {e}");
                return ExitCode::from(2);
            }
        };
        match history.gate(tolerance) {
            None => {
                // A gate over a fresh, emptied or truncated store checks
                // nothing, so it must not pass.
                println!("gate: fewer than two generations, nothing to compare");
                return ExitCode::FAILURE;
            }
            Some(gate) => {
                print!("{}", gate.summary());
                if gate.passed() {
                    println!("gate: PASS (tolerance ±{:.1}%)", tolerance * 100.0);
                } else {
                    let missing = gate
                        .findings
                        .iter()
                        .filter(|f| f.change == Verdict::Missing)
                        .count();
                    println!(
                        "gate: FAIL — {} regression(s), {missing} missing metric(s)",
                        gate.regressions().len()
                    );
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}

/// `caraml devices`: render the device registry as a table, dump it as
/// JSON, or diff the rendered table against a committed golden file
/// (`--check`, used by `just check-devices`).
fn run_devices(flags: &[String]) -> ExitCode {
    if flags.iter().any(|f| f == "--json") {
        match serde_json::to_string_pretty(DeviceRegistry::global().entries()) {
            Ok(json) => {
                println!("{json}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("caraml: {e}");
                ExitCode::FAILURE
            }
        }
    } else if let Some(i) = flags.iter().position(|f| f == "--check") {
        let Some(path) = flags.get(i + 1) else {
            return usage();
        };
        let golden = match std::fs::read_to_string(path) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("caraml: cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let rendered = render_device_table();
        if golden.trim() == rendered.trim() {
            println!(
                "devices table matches {path} ({} systems)",
                DeviceRegistry::global().len()
            );
            ExitCode::SUCCESS
        } else {
            eprintln!(
                "caraml: {path} is stale — regenerate with `caraml devices > {path}`\n\
                 expected:\n{rendered}"
            );
            ExitCode::FAILURE
        }
    } else {
        println!("{}", render_device_table());
        ExitCode::SUCCESS
    }
}

/// `caraml calibrate <trace.toml> [-o out.toml]`: fit roofline and power
/// parameters from the measured sample traces embedded in a device file
/// and emit a registry-loadable TOML with the fitted calibration.
fn run_calibrate(args: &[String]) -> ExitCode {
    let Some(input_path) = args.first() else {
        return usage();
    };
    let out_path = match (
        flag_value::<String>(args, "-o"),
        flag_value::<String>(args, "--output"),
    ) {
        (Ok(short), Ok(long)) => short.or(long),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("caraml: {e}");
            return ExitCode::from(2);
        }
    };
    let input = match std::fs::read_to_string(input_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("caraml: cannot read {input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match calibrate::calibrate_device_toml(&input) {
        Ok(toml) => match out_path {
            Some(path) => match std::fs::write(&path, &toml) {
                Ok(()) => {
                    println!("wrote calibrated device file to {path}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("caraml: cannot write {path}: {e}");
                    ExitCode::FAILURE
                }
            },
            None => {
                print!("{toml}");
                ExitCode::SUCCESS
            }
        },
        Err(e) => {
            eprintln!("caraml: calibration failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("systems") => {
            let mut table = jube::ResultTable::new(
                ["Platform", "Accelerator", "TDP/device (W)", "JUBE tag"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
            for node in NodeConfig::all() {
                table.push_row(vec![
                    node.platform.clone(),
                    format!("{}x {}", node.devices_per_node, node.device.name),
                    format!("{:.0}", node.tdp_per_device_w()),
                    node.id.jube_tag().to_string(),
                ]);
            }
            println!("{}", table.to_ascii());
            ExitCode::SUCCESS
        }
        Some("run") => {
            if args.len() < 2 {
                return usage();
            }
            let (rest, tags) = split_tags(&args[2..]);
            match shard_options(&rest) {
                Ok(opts) => run_suite(&args[1], &tags, opts),
                Err(e) => {
                    eprintln!("caraml: {e}");
                    usage()
                }
            }
        }
        Some("suite") if args.len() >= 2 => {
            match (shard_options(&args[2..]), precision_options(&args[2..])) {
                (Ok(opts), Ok(precisions)) => run_full_suite(&args[1], opts, precisions),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("caraml: {e}");
                    usage()
                }
            }
        }
        Some("heatmap") if args.len() >= 2 => {
            match (shard_options(&args[2..]), precision_options(&args[2..])) {
                (Ok(opts), Ok(precisions)) => run_heatmap(&args[1], opts, precisions),
                (Err(e), _) | (_, Err(e)) => {
                    eprintln!("caraml: {e}");
                    usage()
                }
            }
        }
        Some("devices") => run_devices(&args[1..]),
        Some("calibrate") if args.len() >= 2 => run_calibrate(&args[1..]),
        Some("inference") if args.len() >= 2 => run_inference(&args[1]),
        Some("serve") if args.len() >= 2 => run_serve(&args[1], &args[2..]),
        Some("fleet") if args.len() >= 2 => run_fleet(&args[1], &args[2..]),
        Some("scenario") if args.len() >= 2 => run_scenario(&args[1..]),
        Some("trend") => run_trend(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_tags_stops_at_next_flag() {
        // Regression: `--shards 4` after the tag list used to be
        // swallowed as two extra tags.
        let (rest, tags) = split_tags(&argv(&["--tag", "A100", "GCD", "--shards", "4"]));
        assert_eq!(tags, argv(&["A100", "GCD"]));
        assert_eq!(rest, argv(&["--shards", "4"]));
    }

    #[test]
    fn split_tags_without_trailing_flags_takes_all_tokens() {
        let (rest, tags) = split_tags(&argv(&["--tag", "MI250", "GCD"]));
        assert_eq!(tags, argv(&["MI250", "GCD"]));
        assert!(rest.is_empty());
    }

    #[test]
    fn split_tags_keeps_leading_positionals() {
        let (rest, tags) = split_tags(&argv(&["record", "out.json", "--tag", "GH200"]));
        assert_eq!(rest, argv(&["record", "out.json"]));
        assert_eq!(tags, argv(&["GH200"]));
        let (rest, tags) = split_tags(&argv(&["record", "out.json"]));
        assert_eq!(rest, argv(&["record", "out.json"]));
        assert!(tags.is_empty());
    }

    #[test]
    fn split_tags_empty_tag_list_before_flag() {
        let (rest, tags) = split_tags(&argv(&["--tag", "--shards", "2"]));
        assert!(tags.is_empty());
        assert_eq!(rest, argv(&["--shards", "2"]));
    }

    #[test]
    fn precision_options_parse_sweep_and_reject_unknown() {
        assert_eq!(precision_options(&argv(&[])).unwrap(), None);
        assert_eq!(
            precision_options(&argv(&["--precision", "int8"])).unwrap(),
            Some(vec![Precision::Int8])
        );
        assert_eq!(
            precision_options(&argv(&["--precision", "all"])).unwrap(),
            Some(Precision::ALL.to_vec())
        );
        assert_eq!(
            precision_options(&argv(&["--precision", "f32,int8, bf16"])).unwrap(),
            Some(vec![Precision::F32, Precision::Int8, Precision::Bf16])
        );
        // Unknown values are rejected with the full list of valid tags —
        // the same UX as unknown device tags.
        let err = precision_options(&argv(&["--precision", "fp8"])).unwrap_err();
        assert!(err.contains("fp8"), "{err}");
        for tag in ["f32", "bf16", "int8"] {
            assert!(err.contains(tag), "{err} missing {tag}");
        }
        assert!(precision_options(&argv(&["--precision"])).is_err());
    }

    #[test]
    fn policy_options_parse_sweep_and_reject_unknown() {
        assert_eq!(
            policy_options(&argv(&[])).unwrap(),
            RoutePolicy::ALL.to_vec()
        );
        assert_eq!(
            policy_options(&argv(&["--policy", "least-kv-load"])).unwrap(),
            vec![RoutePolicy::LeastKvLoad]
        );
        assert_eq!(
            policy_options(&argv(&["--policy", "all"])).unwrap(),
            RoutePolicy::ALL.to_vec()
        );
        // Unknown policies are rejected with the full valid list — same
        // UX as unknown device and precision tags.
        let err = policy_options(&argv(&["--policy", "random"])).unwrap_err();
        assert!(err.contains("random"), "{err}");
        for tag in ["round-robin", "least-kv-load", "session-affinity"] {
            assert!(err.contains(tag), "{err} missing {tag}");
        }
        assert!(policy_options(&argv(&["--policy"])).is_err());
    }

    #[test]
    fn shard_options_parse_and_default() {
        assert_eq!(shard_options(&argv(&[])).unwrap(), None);
        assert_eq!(
            shard_options(&argv(&["--shards", "4"])).unwrap(),
            Some((4, 4))
        );
        assert_eq!(
            shard_options(&argv(&["--shards", "2", "--nodes", "8"])).unwrap(),
            Some((2, 8))
        );
        assert_eq!(
            shard_options(&argv(&["--nodes", "3"])).unwrap(),
            Some((3, 3))
        );
        assert!(shard_options(&argv(&["--shards"])).is_err());
        assert!(shard_options(&argv(&["--shards", "abc"])).is_err());
    }
}
