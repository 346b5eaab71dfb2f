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
use caraml::fleet::RoutePolicy;
use caraml::fom::HeatmapCell;
use caraml::report::{
    render_device_table, render_fleet_table, render_heatmap, render_job_table,
    render_precision_table, render_scenario_outcome, render_serve_table, render_trend_report,
};
use caraml::resnet::{fig4_devices, grid, ResnetBenchmark, FIG4_BATCHES};
use caraml::scenario::{
    check_against_native, CellFom, Scenario, SweepSpec, WorkloadKind, BURSTY, DEFAULT_SEED,
};
use caraml::serve::{load_grid, ArrivalKind, ServeBenchmark};
use caraml::suite::{
    llm_benchmark_ipu, llm_benchmark_nvidia_amd, resnet50_benchmark, run_suite_sharded,
};
use caraml::trend::{analyze, TrendConfig};
use caraml::{FleetFom, RunOutcome, ServeFom};
use caraml_accel::{calibrate, DeviceKind, DeviceRegistry, NodeConfig, Precision, SystemId};
use caraml_tensor::simd;
use jube::SlurmSim;
use std::path::Path;
use std::process::ExitCode;

/// `caraml inference`'s device batches.
const INFERENCE_BATCHES: [u64; 4] = [1, 4, 16, 64];
/// `caraml serve`'s load grid: arrival rates (requests/s) × batch caps.
const SERVE_RATES: [f64; 4] = [2.0, 8.0, 32.0, 128.0];
const SERVE_CAPS: [u32; 3] = [4, 16, 64];
/// The one load point of the precision comparison table.
const PRECISION_RATE: f64 = 32.0;
const PRECISION_CAP: u32 = 64;
/// `caraml fleet` defaults: replicas, rate (requests/s) and batch cap.
const FLEET_REPLICAS: u32 = 4;
const FLEET_RATE: f64 = 96.0;
const FLEET_CAP: u32 = 16;

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

/// Check lowered sweeps with the scenario file's range rules and wrap
/// them into a scenario named after the command.
fn checked(command: &str, sweeps: Vec<SweepSpec>) -> Result<Scenario, String> {
    for spec in &sweeps {
        spec.check(command).map_err(|e| e.to_string())?;
    }
    Ok(Scenario {
        name: command.to_string(),
        seed: DEFAULT_SEED,
        sweeps,
    })
}

fn arrival_option(flags: &[String]) -> ArrivalKind {
    if flags.iter().any(|f| f == "--bursty") {
        BURSTY
    } else {
        ArrivalKind::Poisson
    }
}

fn arrival_label(arrival: ArrivalKind) -> &'static str {
    match arrival {
        ArrivalKind::Poisson => "Poisson",
        ArrivalKind::Bursty { .. } => "bursty",
    }
}

fn platform(sys: SystemId) -> String {
    NodeConfig::shared(sys).platform.clone()
}

/// The precision comparison: one serving load point per tier.
fn precision_sweep(
    sys: SystemId,
    precisions: Vec<Precision>,
    arrival: ArrivalKind,
    seed: Option<u64>,
) -> SweepSpec {
    SweepSpec {
        systems: vec![sys],
        precisions,
        rates: vec![PRECISION_RATE],
        caps: vec![PRECISION_CAP],
        arrival,
        seed,
        ..SweepSpec::new(WorkloadKind::Serve)
    }
}

/// `caraml inference <TAG>`: the batch axis at the default tier.
fn lower_inference(tag: &str) -> Result<Scenario, String> {
    let sys = SystemId::try_from_tag(tag).map_err(|e| e.to_string())?;
    checked(
        "inference",
        vec![SweepSpec {
            systems: vec![sys],
            batches: INFERENCE_BATCHES.to_vec(),
            ..SweepSpec::new(WorkloadKind::Inference)
        }],
    )
}

/// `caraml serve <TAG> [flags]`: the load grid at one tier; when
/// `--precision` names several tiers, the grid stays at the default tier
/// and a precision comparison sweep follows.
fn lower_serve(tag: &str, flags: &[String]) -> Result<Scenario, String> {
    let sys = SystemId::try_from_tag(tag).map_err(|e| e.to_string())?;
    let precisions = precision_options(flags)?.unwrap_or_default();
    let seed = flag_value(flags, "--seed")?;
    let arrival = arrival_option(flags);
    let grid = SweepSpec {
        systems: vec![sys],
        precisions: if precisions.len() == 1 {
            precisions.clone()
        } else {
            Vec::new()
        },
        rates: SERVE_RATES.to_vec(),
        caps: SERVE_CAPS.to_vec(),
        arrival,
        seed,
        ..SweepSpec::new(WorkloadKind::Serve)
    };
    let mut sweeps = vec![grid];
    if precisions.len() > 1 {
        sweeps.push(precision_sweep(sys, precisions, arrival, seed));
    }
    checked("serve", sweeps)
}

/// `caraml fleet <TAG> [flags]`: every routing policy (or the one
/// `--policy` names) at one load point. One `--precision` tier puts every
/// replica at it; several form the per-replica ladder.
fn lower_fleet(tag: &str, flags: &[String]) -> Result<Scenario, String> {
    let sys = SystemId::try_from_tag(tag).map_err(|e| e.to_string())?;
    let policies = policy_options(flags)?;
    let mut precisions = precision_options(flags)?.unwrap_or_default();
    let replica_precisions = if precisions.len() > 1 {
        std::mem::take(&mut precisions)
    } else {
        Vec::new()
    };
    let spec = SweepSpec {
        systems: vec![sys],
        precisions,
        replica_precisions,
        policies,
        replicas: flag_value(flags, "--replicas")?.unwrap_or(FLEET_REPLICAS),
        rates: vec![flag_value(flags, "--rate")?.unwrap_or(FLEET_RATE)],
        caps: vec![flag_value(flags, "--cap")?.unwrap_or(FLEET_CAP)],
        seed: flag_value(flags, "--seed")?,
        arrival: arrival_option(flags),
        disagg: flags.iter().any(|f| f == "--disagg"),
        autoscale: flags.iter().any(|f| f == "--autoscale"),
        ..SweepSpec::new(WorkloadKind::Fleet)
    };
    checked("fleet", vec![spec])
}

/// Run a lowered scenario: each sweep's typed cell outcomes.
fn cell_outcomes(scenario: &Scenario) -> Vec<Vec<RunOutcome<CellFom>>> {
    scenario
        .execute()
        .into_iter()
        .map(|cells| cells.into_iter().map(|(_, outcome)| outcome).collect())
        .collect()
}

/// Render a precision comparison sweep: Wh/ktoken per tier and ratios
/// against the widest; tiers whose cell failed are left out.
fn precision_table(spec: &SweepSpec, seed: u64, cells: Vec<RunOutcome<CellFom>>) -> String {
    let foms: Vec<ServeFom> = cells
        .into_iter()
        .filter_map(RunOutcome::completed)
        .map(CellFom::into_serve)
        .collect();
    render_precision_table(
        &format!(
            "precision sweep on {} (rate {:.0}/s, cap {}, seed {})",
            platform(spec.systems[0]),
            spec.rates[0],
            spec.caps[0],
            spec.seed.unwrap_or(seed)
        ),
        &foms,
    )
}

/// The flags each subcommand takes; `None` for an unknown subcommand.
fn flags_of(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "systems" | "inference" => &[],
        "devices" => &["--json", "--check"],
        "calibrate" => &["-o", "--output"],
        "run" => &["--tag", "--shards", "--nodes"],
        "suite" | "heatmap" => &["--shards", "--nodes", "--precision"],
        "serve" => &["--bursty", "--seed", "--precision"],
        "fleet" => &[
            "--replicas",
            "--policy",
            "--precision",
            "--rate",
            "--cap",
            "--seed",
            "--bursty",
            "--disagg",
            "--autoscale",
            "--json",
        ],
        "scenario" => &["--check", "--json", "--history", "--label"],
        "trend" => &["--history", "--json", "--window", "--gate", "--tolerance"],
        _ => return None,
    })
}

/// Reject the first flag `command` does not take, before any lowering.
/// A flag is a token that starts with `-` and is not a number, so a
/// negative value such as `--rate -5` still reaches its range check.
fn check_flags(command: &str, args: &[String]) -> Result<(), String> {
    let Some(allowed) = flags_of(command) else {
        return Ok(());
    };
    match args
        .iter()
        .find(|a| a.starts_with('-') && a.parse::<f64>().is_err() && !allowed.contains(&a.as_str()))
    {
        None => Ok(()),
        Some(flag) if allowed.is_empty() => Err(format!("{command} takes no flags, got `{flag}`")),
        Some(flag) => Err(format!(
            "{command} does not take `{flag}` (flags: {})",
            allowed.join(", ")
        )),
    }
}

/// Print a flag error and exit 2.
fn flag_error(e: String) -> ExitCode {
    eprintln!("caraml: {e}");
    ExitCode::from(2)
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
                    Some(render_job_table(
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
                    render_job_table(
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
            let sweep = precision_sweep(sys, precisions, ArrivalKind::Poisson, None);
            let scenario = match checked("suite", vec![sweep]) {
                Ok(scenario) => scenario,
                Err(e) => return flag_error(e),
            };
            let cells = cell_outcomes(&scenario).swap_remove(0);
            println!(
                "{}",
                precision_table(&scenario.sweeps[0], scenario.seed, cells)
            );
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
    let devices = fig4_devices(sys);
    let title = format!("ResNet50 images/s on {}", platform(sys));
    let rows = match shard_opts {
        Some((shards, nodes)) => {
            // Multi-node dispatch: shard the Fig. 4 grid over a simulated
            // partition, node demand taken from each point's device count.
            let slurm = SlurmSim::new(nodes);
            let cells = slurm.map_shards(
                "heatmap",
                grid(sys, &devices, &FIG4_BATCHES),
                shards,
                |p| NodeConfig::shared(p.system).nodes_for(p.devices),
                |p| ResnetBenchmark::heatmap_cell(p.system, p.devices, p.batch),
            );
            println!(
                "{}",
                render_job_table(
                    &format!("shard dispatch ({nodes}-node partition)"),
                    &slurm.wait_all()
                )
            );
            match cells {
                Ok(cells) => cells
                    .chunks(FIG4_BATCHES.len())
                    .map(<[HeatmapCell]>::to_vec)
                    .collect(),
                Err(e) => {
                    eprintln!("caraml: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        None => ResnetBenchmark::heatmap(sys, &devices, &FIG4_BATCHES),
    };
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

fn run_inference(scenario: &Scenario) -> ExitCode {
    let spec = &scenario.sweeps[0];
    println!("LLM inference on {} (800M GPT):", platform(spec.systems[0]));
    let cells = cell_outcomes(scenario).swap_remove(0);
    for (batch, outcome) in spec.batches.iter().zip(cells) {
        match outcome.into_result() {
            Ok(CellFom::Inference(fom)) => {
                println!(
                "  batch {batch:>3}: TTFT {:>7.1} ms | decode {:>8.0} tok/s ({}) | {:.4} Wh/ktoken",
                fom.ttft_s * 1e3,
                fom.decode_tokens_per_s,
                if fom.decode_memory_bound { "memory-bound" } else { "compute-bound" },
                fom.energy_wh_per_ktoken
            )
            }
            Ok(other) => unreachable!("an inference sweep yielded {other:?}"),
            Err(e) => println!("  batch {batch:>3}: {e}"),
        }
    }
    ExitCode::SUCCESS
}

fn run_serve(scenario: &Scenario) -> ExitCode {
    let grid = &scenario.sweeps[0];
    let sys = grid.systems[0];
    let bench = grid.serve_bench(sys, grid.precisions.first().copied(), scenario.seed);
    let mut sweeps = cell_outcomes(scenario).into_iter();
    let outcomes: Vec<RunOutcome<ServeFom>> = sweeps
        .next()
        .unwrap_or_default()
        .into_iter()
        .map(|outcome| outcome.map(CellFom::into_serve))
        .collect();
    println!(
        "{}",
        render_serve_table(
            &format!(
                "LLM serving on {} (800M GPT, {}, {} requests, {} arrivals, seed {})",
                platform(sys),
                bench.config.precision.tag(),
                bench.config.num_requests,
                arrival_label(bench.config.arrival),
                bench.config.seed
            ),
            &outcomes
        )
    );
    if let (Some(spec), Some(cells)) = (scenario.sweeps.get(1), sweeps.next()) {
        println!("{}", precision_table(spec, scenario.seed, cells));
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

fn run_fleet(scenario: &Scenario, json: bool) -> ExitCode {
    let spec = &scenario.sweeps[0];
    let outcomes: Vec<RunOutcome<FleetFom>> = cell_outcomes(scenario)
        .swap_remove(0)
        .into_iter()
        .map(|outcome| outcome.map(CellFom::into_fleet))
        .collect();
    if json {
        let foms: Vec<_> = outcomes.iter().filter_map(|o| o.as_completed()).collect();
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
        println!(
            "{}",
            render_fleet_table(
                &format!(
                    "LLM fleet serving on {} ({} replicas, rate {:.0}/s, cap {}, {} arrivals, seed {})",
                    platform(spec.systems[0]),
                    spec.replicas,
                    spec.rates[0],
                    spec.caps[0],
                    arrival_label(spec.arrival),
                    spec.seed.unwrap_or(scenario.seed)
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
    let (history_path, label) = match scenario_options(&args[1..]) {
        Ok(options) => options,
        Err(e) => return flag_error(e),
    };
    let scenario = match Scenario::load(Path::new(file)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("caraml: {file}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match scenario.run() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("caraml: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.iter().any(|a| a == "--check") {
        // Spec half: the parsed file must equal the Rust-constructed
        // twin. Metric half: the twin's run (on a one-worker pool, to
        // also witness execution-order independence) must be
        // bit-identical.
        let native = Scenario::example();
        if let Err(e) = check_against_native(&scenario, &native) {
            eprintln!("caraml: scenario check failed: {e}");
            return ExitCode::FAILURE;
        }
        let one_worker = match rayon::ThreadPoolBuilder::new().num_threads(1).build() {
            Ok(pool) => pool,
            Err(e) => {
                eprintln!("caraml: {e}");
                return ExitCode::FAILURE;
            }
        };
        let native_outcome = match one_worker.install(|| native.run()) {
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

/// `caraml scenario` flags: the `--history` store and its `--label`.
fn scenario_options(flags: &[String]) -> Result<(Option<String>, Option<String>), String> {
    Ok((
        flag_value(flags, "--history")?,
        flag_value(flags, "--label")?,
    ))
}

/// `caraml trend` flags, all checked before the history is read.
#[derive(Debug)]
struct TrendOptions {
    history: String,
    json: bool,
    gate: bool,
    window: usize,
    tolerance: f64,
}

fn trend_options(flags: &[String]) -> Result<TrendOptions, String> {
    let defaults = TrendConfig::default();
    let window = flag_value::<usize>(flags, "--window")?.unwrap_or(defaults.window);
    if window < 2 {
        return Err("--window needs at least 2 points".to_string());
    }
    let tolerance = flag_value::<f64>(flags, "--tolerance")?.unwrap_or(defaults.tolerance);
    if !(tolerance.is_finite() && tolerance >= 0.0) {
        return Err(format!(
            "--tolerance needs a finite value >= 0, got {tolerance}"
        ));
    }
    Ok(TrendOptions {
        history: flag_value(flags, "--history")?.unwrap_or_else(|| "results.jsonl".to_string()),
        json: flags.iter().any(|a| a == "--json"),
        gate: flags.iter().any(|a| a == "--gate"),
        window,
        tolerance,
    })
}

/// `caraml trend`: analyse the history store — rolling-median/MAD
/// anomalies, step changes, sparklines — and render the report. With
/// `--gate`, also run the direction-aware latest-vs-previous generation
/// gate and exit nonzero on a regressed or missing metric. A missing
/// history renders as empty, but fails the gate: a mistyped path must
/// not pass.
fn run_trend(args: &[String]) -> ExitCode {
    let options = match trend_options(args) {
        Ok(options) => options,
        Err(e) => return flag_error(e),
    };
    let path = Path::new(&options.history);
    let loaded = if options.gate {
        History::load(path)
    } else {
        History::load_or_empty(path)
    };
    let history = match loaded {
        Ok(h) => h,
        Err(e) => {
            eprintln!("caraml: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = TrendConfig {
        window: options.window,
        ..TrendConfig::default()
    };
    let report = analyze(&history, &cfg);
    if options.json {
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
    if options.gate {
        let tolerance = options.tolerance;
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

/// `caraml calibrate` flags: the `-o`/`--output` path, if any.
fn calibrate_output(args: &[String]) -> Result<Option<String>, String> {
    Ok(flag_value(args, "-o")?.or(flag_value(args, "--output")?))
}

/// `caraml calibrate <trace.toml> [-o out.toml]`: fit roofline and power
/// parameters from the measured sample traces embedded in a device file
/// and emit a registry-loadable TOML with the fitted calibration.
fn run_calibrate(args: &[String]) -> ExitCode {
    let Some(input_path) = args.first() else {
        return usage();
    };
    let out_path = match calibrate_output(args) {
        Ok(path) => path,
        Err(e) => return flag_error(e),
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
    if let Some(command) = args.first() {
        if let Err(e) = check_flags(command, &args[1..]) {
            return flag_error(e);
        }
    }
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
        Some("inference") if args.len() >= 2 => {
            lower_inference(&args[1]).map_or_else(flag_error, |s| run_inference(&s))
        }
        Some("serve") if args.len() >= 2 => {
            lower_serve(&args[1], &args[2..]).map_or_else(flag_error, |s| run_serve(&s))
        }
        Some("fleet") if args.len() >= 2 => {
            let json = args.iter().any(|a| a == "--json");
            lower_fleet(&args[1], &args[2..]).map_or_else(flag_error, |s| run_fleet(&s, json))
        }
        Some("scenario") if args.len() >= 2 => run_scenario(&args[1..]),
        Some("trend") => run_trend(&args[1..]),
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caraml::scenario::MAX_REPLICAS;
    use proptest::prelude::*;

    fn argv(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Real flags, a misspelled one (`--rates`), and values that are
    /// negative, zero, non-finite, past `u32::MAX`, empty, or another
    /// flag.
    const WORDS: &[&str] = &[
        "--rates",
        "--replicas",
        "--policy",
        "--precision",
        "--rate",
        "--cap",
        "--seed",
        "--bursty",
        "--disagg",
        "--autoscale",
        "--json",
        "--tag",
        "--shards",
        "--nodes",
        "--history",
        "--label",
        "--check",
        "--gate",
        "--window",
        "--tolerance",
        "-o",
        "--output",
        "-5",
        "0",
        "1",
        "2",
        "4097",
        "NaN",
        "inf",
        "-inf",
        "4294967295",
        "4294967296",
        "1e12",
        "",
        "--",
        "abc",
        "all",
        "int8",
        "f32,bf16",
        "fp8",
        "least-kv-load",
        "H100",
    ];
    const TAGS: &[&str] = &["H100", "GC200", "EDGERV", "NOPE", "", "--rate"];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2000))]

        /// Flag handling never panics and runs no cell: every call
        /// returns `Ok` or an error message, a scenario lowered `Ok`
        /// passes the scenario file's range rules, and no subcommand
        /// takes the misspelled flag.
        #[test]
        fn flag_handling_returns_ok_or_an_error_for_any_argument_list(
            tag in prop::sample::select(TAGS),
            words in prop::collection::vec(prop::sample::select(WORDS), 0..8),
        ) {
            let flags = argv(&words);
            for command in [
                "systems", "devices", "calibrate", "run", "suite", "heatmap", "inference",
                "serve", "fleet", "scenario", "trend",
            ] {
                match check_flags(command, &flags) {
                    Ok(()) => prop_assert!(!words.contains(&"--rates"), "{command} {words:?}"),
                    Err(e) => prop_assert!(!e.is_empty(), "{command} {words:?}"),
                }
            }
            for lowered in [
                lower_inference(tag),
                lower_serve(tag, &flags),
                lower_fleet(tag, &flags),
            ] {
                match lowered {
                    Ok(scenario) => prop_assert!(scenario.check().is_ok(), "{words:?}"),
                    Err(e) => prop_assert!(!e.is_empty(), "{words:?}"),
                }
            }
            if let Ok(options) = trend_options(&flags) {
                prop_assert!(options.window >= 2 && options.tolerance.is_finite());
            }
            let _ = (
                scenario_options(&flags),
                calibrate_output(&flags),
                shard_options(&flags),
                split_tags(&flags),
            );
        }
    }

    #[test]
    fn lowered_flags_equal_the_equivalent_scenario_file() {
        let cases = [
            (
                lower_serve("H100", &argv(&["--bursty", "--seed", "3"])),
                r#"
schema = 1
name = "serve"
[[sweep]]
workload = "serve"
systems = ["H100"]
rates = [2.0, 8.0, 32.0, 128.0]
caps = [4, 16, 64]
arrival = "bursty"
seed = 3
"#,
            ),
            (
                lower_serve("A100", &argv(&["--precision", "all"])),
                r#"
schema = 1
name = "serve"
[[sweep]]
workload = "serve"
systems = ["A100"]
rates = [2.0, 8.0, 32.0, 128.0]
caps = [4, 16, 64]
[[sweep]]
workload = "serve"
systems = ["A100"]
precisions = ["f32", "bf16", "int8"]
rates = [32.0]
caps = [64]
"#,
            ),
            (
                lower_fleet(
                    "H100",
                    &argv(&[
                        "--replicas",
                        "2",
                        "--policy",
                        "all",
                        "--disagg",
                        "--autoscale",
                    ]),
                ),
                r#"
schema = 1
name = "fleet"
[[sweep]]
workload = "fleet"
systems = ["H100"]
policies = ["round-robin", "least-kv-load", "session-affinity"]
replicas = 2
rates = [96.0]
caps = [16]
disagg = true
autoscale = true
"#,
            ),
            (
                lower_fleet(
                    "A100",
                    &argv(&[
                        "--precision",
                        "f32,bf16,int8,int8",
                        "--policy",
                        "least-kv-load",
                    ]),
                ),
                r#"
schema = 1
name = "fleet"
[[sweep]]
workload = "fleet"
systems = ["A100"]
replica_precisions = ["f32", "bf16", "int8", "int8"]
policies = ["least-kv-load"]
replicas = 4
rates = [96.0]
caps = [16]
"#,
            ),
            (
                lower_inference("GH200"),
                r#"
schema = 1
name = "inference"
[[sweep]]
workload = "inference"
systems = ["GH200"]
batches = [1, 4, 16, 64]
"#,
            ),
        ];
        for (lowered, toml) in cases {
            assert_eq!(lowered.unwrap(), Scenario::parse(toml).unwrap(), "{toml}");
        }
    }

    #[test]
    fn out_of_range_flag_values_are_rejected_by_the_shared_check() {
        let ceiling = MAX_REPLICAS.to_string();
        let past_ceiling = (MAX_REPLICAS + 1).to_string();
        assert!(lower_fleet("H100", &argv(&["--replicas", &ceiling])).is_ok());
        for flags in [
            &["--replicas", past_ceiling.as_str()][..],
            &["--replicas", "0"],
            &["--replicas", "4294967296"],
            &["--rate", "-5"],
            &["--rate", "NaN"],
            &["--rate", "inf"],
            &["--cap", "0"],
            &["--seed", "abc"],
            &["--replicas", "1", "--disagg"],
            &["--rate", "1e-8", "--autoscale"],
        ] {
            let err = lower_fleet("H100", &argv(flags)).unwrap_err();
            assert!(
                err.contains(flags[0].trim_start_matches('-')),
                "{flags:?}: {err}"
            );
        }
        let err = lower_serve("H100", &argv(&["--seed", "abc"])).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
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
