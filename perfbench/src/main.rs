//! End-to-end and per-layer benchmark of the tailored-macro-sizes flow
//! and service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compile-dense|serve-warm|serve-cold> --seed <n> \
//!     --seconds <s> --trace <0|1> [--rate <req/s>]
//! ```
//!
//! `--rate` overrides the `serve-warm` arrival rate; it exists for the
//! rate sweep that chose the default (see the README) and is not part of
//! the measured command.
//!
//! Each workload runs in its own process. The last line of stdout is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end catalogue untraced, the per-layer catalogue traced. The
//! process exits 1 if any output check fails. See `perfbench/README.md`.

mod compile;
mod loadgen;
mod report;
mod serve;
mod stats;
mod timing;

use std::path::PathBuf;
use std::time::Duration;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed part.
    pub run: Duration,
    /// Produce the per-layer table instead of the end-to-end metrics.
    pub trace: bool,
    /// `serve-warm` arrival rate override, requests per second.
    pub rate: Option<f64>,
}

const WORKLOADS: [&str; 3] = ["compile-dense", "serve-warm", "serve-cold"];

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut rate = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what} '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => seconds = value.parse().map_err(|_| bad("seconds"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--rate" => match value.parse() {
                Ok(r) if r > 0.0 => rate = Some(r),
                _ => return Err(bad("rate")),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload '{workload}' (one of {WORKLOADS:?})"
        ));
    }
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed,
        run: Duration::from_secs_f64(seconds),
        trace,
        rate,
    })
}

/// A fresh scratch directory for `name` under the current directory,
/// removed by the workload when it is done.
pub fn work_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(".perfbench_work").join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the benchmark work directory");
    dir
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = report::Report::default();
    match args.workload.as_str() {
        "compile-dense" => compile::run(&args, &mut report),
        "serve-warm" => serve::run_warm(&args, &mut report),
        _ => serve::run_cold(&args, &mut report),
    }
    match timing::peak_rss_mb() {
        Some(mb) => report.put("peak_rss_mb", mb, "VmHWM of this workload's process"),
        None => report.check(false, || "cannot read VmHWM from /proc/self/status".into()),
    }
    let _ = std::fs::remove_dir(".perfbench_work");
    // Every result here depends on threads; say how many cores there were.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("perfbench: {cpus} CPUs available to this process");
    if !report.print(&args.workload, args.trace) {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv(
            "--workload serve-warm --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-warm");
        assert_eq!(a.seed, 7);
        assert_eq!(a.run, Duration::from_secs(10));
        assert!(a.trace);
        assert_eq!(a.rate, None);
        let swept = parse(&argv("--workload serve-warm --rate 150")).unwrap();
        assert_eq!(swept.rate, Some(150.0));
        assert!(parse(&argv("--workload serve-warm --rate 0")).is_err());
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--seed 1")).is_err());
        assert!(parse(&argv("--workload serve-cold --trace 2")).is_err());
    }
}
