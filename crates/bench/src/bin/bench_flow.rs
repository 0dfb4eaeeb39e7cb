//! `bench_flow` — emit and gate the canonical flow benchmark snapshot.
//!
//! Runs the minimal-CF benchmark ([`tms_bench::flowbench`]): the wide
//! labelling sweep over every unique cnvW1A1 module on the incremental
//! search engine, plus the end-to-end flow. Writes the `BENCH_flow.json`
//! report. With `--check <snapshot>` it exits non-zero when a
//! machine-independent metric (attempt counts, prescreen ratio, labelled
//! and implemented counts) regressed beyond the tolerance, or when the
//! snapshot fails to parse.
//!
//! ```text
//! bench_flow [--quick|--full] [--seed N] [--out PATH]
//!            [--check SNAPSHOT] [--tolerance F]
//! ```

use std::process::ExitCode;
use tms_bench::flowbench::{run_flow_bench, FlowBenchConfig};
use tms_bench::gate::run_bench;

fn main() -> ExitCode {
    run_bench("bench_flow", |args| {
        let cfg = if args.quick {
            FlowBenchConfig::quick(args.seed)
        } else {
            FlowBenchConfig::canonical(args.seed)
        };
        eprintln!(
            "bench_flow: wide minimal-CF sweep + end-to-end flow on cnvW1A1 (seed {}, {} rep{})",
            cfg.seed,
            cfg.reps,
            if cfg.reps == 1 { "" } else { "s" },
        );
        let report = run_flow_bench(&cfg);
        eprintln!(
            "bench_flow: sweep {:.1}ms | {} attempts, prescreened {} ({:.1}%) | labelled {}/{}",
            report.sweep_engine.wall_ms,
            report.sweep_engine.tool_runs + report.sweep_engine.wasted_runs,
            report.prescreened,
            report.prescreen_ratio * 100.0,
            report.sweep_engine.labelled,
            report.modules,
        );
        eprintln!(
            "bench_flow: flow {:.1}ms | implemented {}/{} | {} tool runs",
            report.flow_engine.wall_ms,
            report.flow_engine.implemented,
            report.modules,
            report.flow_engine.tool_runs,
        );
        Ok(report)
    })
}
