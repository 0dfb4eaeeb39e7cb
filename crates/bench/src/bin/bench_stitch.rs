//! `bench_stitch` — emit and gate the canonical stitch benchmark snapshot.
//!
//! Runs the portfolio-versus-single-run stitch benchmark
//! ([`tms_bench::stitchbench`]) on cnvW1A1 and writes the
//! `BENCH_stitch.json` report. With `--check <snapshot>` it exits non-zero
//! when a machine-independent metric (HPWL, placed counts, portfolio
//! moves) regressed beyond the tolerance, or when the snapshot fails to
//! parse. The wall-clock speedup is printed and recorded, never gated.
//!
//! ```text
//! bench_stitch [--quick|--full] [--seed N] [--out PATH]
//!              [--check SNAPSHOT] [--tolerance F]
//! ```

use std::process::ExitCode;
use tms_bench::gate::run_bench;
use tms_bench::stitchbench::{run_stitch_bench, StitchBenchConfig};

fn main() -> ExitCode {
    run_bench("bench_stitch", |args| {
        let cfg = if args.quick {
            StitchBenchConfig::quick(args.seed)
        } else {
            StitchBenchConfig::canonical(args.seed)
        };
        eprintln!(
            "bench_stitch: stitching cnvW1A1 (seed {}, {} rep{}), baseline {} moves vs portfolio {} lanes",
            cfg.seed,
            cfg.reps,
            if cfg.reps == 1 { "" } else { "s" },
            cfg.baseline.max_moves,
            cfg.portfolio.sa_lanes + cfg.portfolio.ea_lanes,
        );
        let report = run_stitch_bench(&cfg);
        eprintln!(
            "bench_stitch: baseline {:.0}ms hpwl {:.0} | portfolio {:.0}ms hpwl {:.0} {} moves | speedup {:.2}x ratio {:.3}",
            report.baseline.wall_ms,
            report.baseline.hpwl,
            report.portfolio.wall_ms,
            report.portfolio.hpwl,
            report.portfolio.moves,
            report.speedup,
            report.hpwl_ratio,
        );
        Ok(report)
    })
}
