//! `bench_pack` — emit and gate the memory-packing benchmark snapshot.
//!
//! Runs the packing benchmark ([`tms_bench::packbench`]): the
//! naive-versus-packed footprint sweep over cnvW1A1 and the zoo on both
//! device presets, plus the cnvW1A1/xc7z020 flow A/B (placement counts
//! and minimal-PBlock shrinkage). Writes the `BENCH_pack.json` report.
//! With `--check <snapshot>` it exits non-zero when a machine-independent
//! metric (BRAM36 savings, feasibility, placement counts, PBlock areas)
//! regressed beyond the tolerance; wall-clock fields are never gated.
//!
//! ```text
//! bench_pack [--quick|--full] [--seed N] [--out PATH]
//!            [--check SNAPSHOT] [--tolerance F]
//! ```

use std::process::ExitCode;
use tms_bench::gate::run_bench;
use tms_bench::packbench::{run_pack_bench, PackBenchConfig};

fn main() -> ExitCode {
    run_bench("bench_pack", |args| {
        let cfg = if args.quick {
            PackBenchConfig::quick(args.seed)
        } else {
            PackBenchConfig::canonical(args.seed)
        };
        eprintln!(
            "bench_pack: footprint sweep + flow A/B (seed {}, {} rounds x {} moves)",
            cfg.seed, cfg.rounds, cfg.moves_per_round,
        );
        let report = run_pack_bench(&cfg);
        for row in &report.rows {
            eprintln!(
                "bench_pack: {:<9} on {:<15} BRAM36 {:>4} -> {:>3} of {:>3} ({} saved, {} LUTRAM LUTs) in {:.1}ms",
                row.design,
                row.device,
                row.naive_bram36,
                row.packed_bram36,
                row.budget_bram36,
                row.bram36_saved,
                row.lutram_luts,
                row.wall_ms,
            );
        }
        eprintln!(
            "bench_pack: flow A/B on {}/{}: placed {} -> {} of {}, {} weights classes shrank \
             (area {} -> {})",
            report.flow_design,
            report.flow_device,
            report.flow.naive_placed,
            report.flow.packed_placed,
            report.flow.packed_placed + report.flow.packed_unplaced,
            report.flow.smaller_pblocks,
            report.flow.naive_weights_area,
            report.flow.packed_weights_area,
        );
        Ok(report)
    })
}
