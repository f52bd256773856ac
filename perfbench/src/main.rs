//! The repository benchmark: end-to-end metrics with tracing off, per-layer
//! metrics from a separate traced run. See `README.md` beside this package
//! for the workloads, the metric map and the predictions.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload frozen-20x20 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.

mod calib;
mod check;
mod frozen;
mod layers;
mod replay;
mod requests;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

/// Where traced runs write their Chrome trace-event files.
const TRACE_DIR: &str = ".bench_out";

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a workload run hands back to `main`.
pub struct Report {
    pub metrics: Vec<Metric>,
    pub tally: check::Tally,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

/// The parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub run_for: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2012),
        run_for: Duration::from_secs_f64(seconds.unwrap_or(30.0)),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    #[repr(C)]
    struct Timeval {
        sec: std::os::raw::c_long,
        usec: std::os::raw::c_long,
    }
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        maxrss: std::os::raw::c_long,
        rest: [std::os::raw::c_long; 13],
    }
    extern "C" {
        fn getrusage(who: std::os::raw::c_int, usage: *mut Rusage) -> std::os::raw::c_int;
    }
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` laid out as the C
    // definition (two `timeval`s followed by 14 `long`s), and
    // `RUSAGE_SELF` (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc != 0 {
        return 0.0;
    }
    // Linux reports `ru_maxrss` in KiB.
    usage.maxrss as f64 / 1024.0
}

fn result_line(report: &Report) -> String {
    let mut out = String::new();
    write!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.tally.failed == 0,
        report.tally.attempted,
        report.tally.failed
    )
    .expect("writing to a String cannot fail");
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "frozen-20x20" => frozen::run(&frozen::SMALL, &args),
        "frozen-200x20" => frozen::run(&frozen::LARGE, &args),
        "requests-mixed" => requests::run(&args),
        other => Err(format!(
            "unknown workload {other} (frozen-20x20, frozen-200x20, requests-mixed)"
        )),
    };
    let report = match outcome {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    for reason in report.tally.reasons() {
        println!("# FAILED: {reason}");
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

/// The trace file of a traced run.
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::Path::new(TRACE_DIR).join(format!("trace-{}-{}.json", args.workload, args.seed))
}
