//! The `jpwr` command-line tool.
//!
//! Wraps another application and records power/energy while it runs,
//! mirroring the paper's usage:
//!
//! ```text
//! jpwr --methods rocm --df-out energy_meas --df-filetype csv \
//!      stress-ng --gpu 8 -t 5
//! ```
//!
//! In the reproduction, the hardware-facing methods exist inside the
//! simulator; the CLI offers the two that make sense for a real process:
//! `procstat` (CPU power estimated from /proc/stat utilization) and
//! `mock` (a constant source for tests). Results are written one
//! DataFrame per method, honouring `--df-out`, `--df-filetype` and
//! `--df-suffix` (with `%q{VAR}` expansion).

use jpwr::df::FileType;
use jpwr::measure::get_power;
use jpwr::method::{MockMethod, PowerMethod, ProcStatMethod};
use std::process::{Command, ExitCode};

struct Args {
    methods: Vec<String>,
    interval_ms: u64,
    df_out: Option<String>,
    df_filetype: FileType,
    df_suffix: String,
    command: Vec<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: jpwr [--methods m1,m2] [--interval MS] [--df-out DIR] \
         [--df-filetype csv|json] [--df-suffix SUF] -- <command> [args...]\n\
         methods: procstat (default), mock"
    );
    std::process::exit(2);
}

fn parse_args(mut argv: std::env::Args) -> Args {
    let _ = argv.next(); // program name
    let mut args = Args {
        methods: vec!["procstat".into()],
        interval_ms: 100,
        df_out: None,
        df_filetype: FileType::Csv,
        df_suffix: String::new(),
        command: Vec::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--methods" => {
                let v = argv.next().unwrap_or_else(|| usage());
                args.methods = v.split(',').map(str::to_string).collect();
            }
            "--interval" => {
                args.interval_ms = argv
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
                if args.interval_ms == 0 {
                    eprintln!("jpwr: --interval must be at least 1 ms");
                    std::process::exit(2);
                }
            }
            "--df-out" => args.df_out = Some(argv.next().unwrap_or_else(|| usage())),
            "--df-filetype" => {
                let v = argv.next().unwrap_or_else(|| usage());
                args.df_filetype = FileType::from_name(&v).unwrap_or_else(|| usage());
            }
            "--df-suffix" => args.df_suffix = argv.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            "--" => {
                args.command = argv.collect();
                break;
            }
            other => {
                args.command.push(other.to_string());
                args.command.extend(argv);
                break;
            }
        }
    }
    if args.command.is_empty() {
        usage();
    }
    args
}

fn build_method(name: &str) -> Option<Box<dyn PowerMethod>> {
    match name {
        "procstat" => Some(Box::new(ProcStatMethod::new(15.0, 120.0))),
        "mock" => Some(Box::new(MockMethod { watts: 100.0 })),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args = parse_args(std::env::args());
    let mut methods = Vec::new();
    for name in &args.methods {
        match build_method(name) {
            Some(m) => methods.push(m),
            None => {
                eprintln!("jpwr: unknown method '{name}' (available: procstat, mock)");
                return ExitCode::from(2);
            }
        }
    }

    let scope = get_power(methods, args.interval_ms);
    let status = Command::new(&args.command[0])
        .args(&args.command[1..])
        .status();
    let measurement = scope.finish();

    // Report energy per device on stderr (the wrapped command owns stdout).
    for (device, method, wh) in measurement.energy() {
        eprintln!(
            "jpwr: {method}/{device}: {wh:.6} Wh over {} samples",
            measurement.df.num_rows()
        );
    }

    if let Some(dir) = &args.df_out {
        let dir = std::path::Path::new(dir);
        match measurement
            .df
            .write(dir, "power", &args.df_suffix, args.df_filetype)
            .and_then(|p| {
                let e = measurement.energy_df().write(
                    dir,
                    "energy",
                    &args.df_suffix,
                    args.df_filetype,
                )?;
                Ok((p, e))
            }) {
            Ok((p, e)) => eprintln!("jpwr: wrote {} and {}", p.display(), e.display()),
            Err(err) => {
                eprintln!("jpwr: failed to write results: {err}");
                return ExitCode::from(1);
            }
        }
    }

    match status {
        Ok(s) => ExitCode::from(s.code().unwrap_or(1) as u8),
        Err(e) => {
            eprintln!("jpwr: failed to run {}: {e}", args.command[0]);
            ExitCode::from(127)
        }
    }
}
