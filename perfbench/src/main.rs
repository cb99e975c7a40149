//! Command-line entry point.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <online|fleet|link|offline> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable log (configuration, every metric with its
//! unit, timing distributions, correctness checks) and, as the last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Exits non-zero when a correctness check fails or the run cannot
//! complete.

use adaedge_perfbench::{run, Opts};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: adaedge-perfbench --workload <online|fleet|link|offline> --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        fault: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds >= 0.0 && opts.seconds.is_finite()) {
                    return Err("--seconds must be a finite number >= 0".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--work-dir" => opts.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&workload, &opts) {
        Ok(report) => {
            print!("{}", report.render(opts.trace));
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!("{workload}: a correctness check failed");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
