//! `bench_verify` — emit and gate the integrity-verification snapshot.
//!
//! Runs the integrity benchmark ([`tms_bench::verifybench`]): the
//! verified-versus-unverified warm-read overhead on a cnvW1A1 cache, the
//! seeded-corruption detection rate, and the clean-read false-positive
//! count. Writes the `BENCH_verify.json` report. With `--check <snapshot>`
//! it exits non-zero when an integrity invariant breaks (any injected
//! corruption undetected, any false positive, any quarantined record not
//! healed by recompute) or the hot-path overhead exceeds the 2% budget
//! scaled by the tolerance; absolute wall-clock is recorded but never
//! gated.
//!
//! ```text
//! bench_verify [--quick|--full] [--seed N] [--out PATH]
//!              [--check SNAPSHOT] [--tolerance F]
//! ```

use std::process::ExitCode;
use tms_bench::gate::run_bench;
use tms_bench::verifybench::{run_verify_bench, VerifyBenchConfig, OVERHEAD_BUDGET};

fn main() -> ExitCode {
    run_bench("bench_verify", |args| {
        let cfg = if args.quick {
            VerifyBenchConfig::quick(args.seed)
        } else {
            VerifyBenchConfig::canonical(args.seed)
        };
        eprintln!(
            "bench_verify: integrity benchmark (seed {}, {} reps, {} corruptions)",
            cfg.seed, cfg.reps, cfg.corruptions,
        );
        let report = run_verify_bench(&cfg);
        eprintln!(
            "bench_verify: warm {} modules: unverified {:.1}ms, verified {:.1}ms \
             ({:.2}% overhead, budget {:.0}%)",
            report.modules,
            report.warm_unverified_ms,
            report.warm_verified_ms,
            report.overhead_frac * 100.0,
            OVERHEAD_BUDGET * 100.0,
        );
        eprintln!(
            "bench_verify: {} clean reads, {} false positives | {} corruptions injected, \
             {} detected, {} healed by recompute",
            report.clean_reads,
            report.false_positives,
            report.corruption_injected,
            report.corruption_detected,
            report.recomputed,
        );
        Ok(report)
    })
}
