//! The exact-solve benchmark.
//!
//! ```text
//! solvebench --workload <exact-wide|exact-narrow|service-stream> --seed <n>
//!            --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! One process, one thread, one closed-loop client. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` replays the same workload with spans
//! around the public calls into each layer and reports the per-layer
//! metrics. The last line of stdout is the JSON result. See `README.md`.

mod calib;
mod common;
mod exact;
mod replay;
mod report;
mod stream;
mod trace;
mod workload;

use common::RunArgs;
use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, EXACT_NARROW, EXACT_WIDE, SERVICE_STREAM};

const USAGE: &str = "usage: solvebench --workload <exact-wide|exact-narrow|service-stream> \
                     --seed <n> --seconds <s> --trace <0|1> [--spans <path>]";

struct Args {
    workload: Workload,
    trace: bool,
    run: RunArgs,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--spans" => spans = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        trace: trace.ok_or("--trace is required")?,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            spans,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.run.seed,
        args.run.seconds,
        u8::from(args.trace)
    );
    let mut report = Report::default();
    match (args.workload, args.trace) {
        (Workload::ExactWide, false) => {
            exact::run(args.workload, &EXACT_WIDE, &args.run, &mut report)
        }
        (Workload::ExactWide, true) => {
            exact::run_traced(args.workload, &EXACT_WIDE, &args.run, &mut report)
        }
        (Workload::ExactNarrow, false) => {
            exact::run(args.workload, &EXACT_NARROW, &args.run, &mut report)
        }
        (Workload::ExactNarrow, true) => {
            exact::run_traced(args.workload, &EXACT_NARROW, &args.run, &mut report)
        }
        (Workload::ServiceStream, false) => stream::run(&SERVICE_STREAM, &args.run, &mut report),
        (Workload::ServiceStream, true) => {
            stream::run_traced(&SERVICE_STREAM, &args.run, &mut report)
        }
    }
    report.print();
    ExitCode::SUCCESS
}
