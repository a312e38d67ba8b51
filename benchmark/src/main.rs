//! `perf-ledger --workload NAME --seed N --seconds S --trace 0|1
//! [--size full|tiny] [--corrupt]`
//!
//! Prints the human-readable ledger on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. Exits 0 when every check passed, 1 when one failed, 2 on
//! a usage error.

use perf_ledger::workload::{Size, Workload};
use perf_ledger::{execute, report, Config};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perf-ledger: {msg}");
    eprintln!(
        "usage: perf-ledger --workload compile|run-compute|run-sync --seed N --seconds S \
         --trace 0|1 [--size full|tiny] [--corrupt]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut corrupt = false;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = || it.next().unwrap_or_default();
        match a.as_str() {
            "--workload" => workload = Workload::parse(&value()),
            "--seed" => seed = value().parse::<u64>().ok(),
            "--seconds" => seconds = value().parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value().as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            "--size" => {
                size = match value().as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return usage(&format!("unknown size {other:?}")),
                }
            }
            "--corrupt" => corrupt = true,
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required and must be valid");
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        size,
        corrupt,
    };
    match execute(&cfg) {
        Ok(out) => {
            eprint!("{}", out.ledger);
            let correct = out.failed == 0;
            println!(
                "{}",
                report::json_line(correct, out.attempted, out.failed, &out.metrics)
            );
            if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perf-ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
