//! `bench_serve` — emit and gate the serving-layer loadgen snapshot.
//!
//! Runs the loadgen benchmark ([`tms_bench::servebench`]): an in-process
//! server driven by the seed-derived closed-loop request mix. Writes the
//! `BENCH_serve.json` report: per-endpoint request/error counts with
//! bucket-interpolated p50/p99/p999 latencies, plus the server's shed /
//! deadline / slowlog totals. With `--check <snapshot>` it exits non-zero
//! when a **machine-independent** metric (request totals, error counts,
//! slowlog retention) drifted beyond the tolerance — latency and
//! wall-clock are reported but never gated.
//!
//! ```text
//! bench_serve [--quick|--full] [--seed N] [--out PATH]
//!             [--check SNAPSHOT] [--tolerance F]
//! ```

use std::process::ExitCode;
use tms_bench::gate::run_bench;
use tms_bench::servebench::run_serve_bench;

fn main() -> ExitCode {
    run_bench("bench_serve", |args| {
        eprintln!("bench_serve: closed-loop mix (seed {})", args.seed);
        let report = run_serve_bench(args.seed, args.quick)?;
        eprintln!(
            "bench_serve: {} clients x {} requests, {} errors, {:.0}ms wall | slowlog retained {}/{} considered",
            report.clients,
            report.requests_per_client,
            report.errors_total,
            report.wall_ms,
            report.server.slowlog_retained,
            report.server.slowlog_considered,
        );
        for e in &report.endpoints {
            eprintln!(
                "bench_serve:   {:<9} {:>5} req {:>3} err | p50 {:>7}us p99 {:>7}us p999 {:>7}us",
                e.endpoint, e.requests, e.errors, e.p50_us, e.p99_us, e.p999_us,
            );
        }
        Ok(report)
    })
}
