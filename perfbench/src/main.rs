//! Command line of the fgcite benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <keyed|scan|listing|versioned|scatter|all> \
//!     --seed N --seconds S --trace <0|1> [--scale full|tiny]
//! ```
//!
//! A single workload prints its stamp and metrics as `#` lines, then
//! one JSON result object as the last line of standard output. The
//! exit code is 0 only when every checked output matched its
//! reference. `--workload all` runs each workload in a child process
//! of its own (so each peak resident set is its own) and prints every
//! workload's lines.

use fgc_perfbench::{run, Options, Scale, Workload};
use std::process::ExitCode;

const USAGE: &str = "usage: fgc-perfbench --workload <keyed|scan|listing|versioned|scatter|all> \
                     --seed N --seconds S --trace <0|1> [--scale full|tiny]";

fn parse_args(args: &[String]) -> Result<(String, Options), String> {
    let mut workload = None;
    let mut options = Options {
        workload: Workload::Keyed,
        seed: 1,
        seconds: 8.0,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => options.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                options.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            "--scale" => {
                options.scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err("--scale must be full or tiny".into()),
                }
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let workload = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if workload != "all" {
        options.workload = Workload::parse(&workload)
            .ok_or_else(|| format!("unknown workload {workload}\n{USAGE}"))?;
    }
    Ok((workload, options))
}

/// Run every workload in a child process and relay its lines.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for w in Workload::ALL {
        let mut child_args = args.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("--workload was given");
        child_args[at + 1] = w.name().into();
        let output = std::process::Command::new(&exe)
            .args(&child_args)
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("run {}: {e}", w.name()))?;
        print!("{}", String::from_utf8_lossy(&output.stdout));
        if !output.status.success() {
            eprintln!("workload {} failed ({})", w.name(), output.status);
            all_ok = false;
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, options) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    match run(&options) {
        Ok(outcome) => {
            for line in outcome.human_lines() {
                println!("{line}");
            }
            println!("{}", outcome.result_line());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "{}: {} of {} operations failed or differed from the reference",
                    options.workload.name(),
                    outcome.failed,
                    outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", options.workload.name());
            ExitCode::FAILURE
        }
    }
}
