//! The hmdiv benchmark: four seeded workloads from in-process kernels to
//! the fleet router, end-to-end metrics from untraced runs and a
//! per-layer ledger from traced ones.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload evaluate_direct --seed 1 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- spread DIR
//! cargo run --release --manifest-path perfbench/Cargo.toml -- compare OLD_DIR NEW_DIR
//! ```
//!
//! A run prints a human-readable report on stderr, writes its full
//! result (environment, inputs, sample counts, ledger, spans) under
//! `.perfbench_out/`, and prints one JSON object as the last line of
//! stdout. It exits non-zero when any check failed. See `perfbench/README.md` for the metrics and the layer each
//! one should move.

mod compare;
mod gen;
mod layers;
mod offline;
mod run;
mod serving;
mod stats;
mod sys;
mod wire;

use std::process::ExitCode;

/// Parsed command line of a measuring run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out_dir: String,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut out_dir = ".perfbench_out".to_owned();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?,
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .map_err(|e| format!("bad --seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                };
            }
            "--out" => out_dir = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !run::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            run::WORKLOADS.join(", ")
        ));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must lie in (0, 120]".to_owned());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        out_dir,
    })
}

const USAGE: &str = "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]\n       perfbench spread DIR\n       perfbench compare OLD_DIR NEW_DIR";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    let report: Option<compare::Command> = match args.peek().map(String::as_str) {
        Some("spread") => Some(compare::spread_main),
        Some("compare") => Some(compare::main),
        _ => None,
    };
    if let Some(report) = report {
        let rest: Vec<String> = args.skip(1).collect();
        return match report(&rest) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    match run::run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark failed: a check did not pass");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::FAILURE
        }
    }
}
