//! # tms-bench — benchmark harness for the paper's tables and figures
//!
//! Each bench target regenerates one artefact of the paper's evaluation
//! (Tables I-II, Figures 3-13, the Section VI-C resolution study) through
//! the drivers in [`tms_core::flow::experiments`], at a reduced scale so a
//! full `cargo bench` pass stays affordable; the `primitives` target
//! measures the substrate hot paths (packing, detailed placement, PBlock
//! generation, CF search, SA stitching, forest training).
//!
//! To regenerate the artefacts at full paper scale, use the example binary
//! instead: `cargo run --release --example paper_experiments -- all paper`.
//!
//! The library also holds the committed-snapshot benchmarks behind the
//! `bench_*` binaries and their `BENCH_*.json` files — [`flowbench`],
//! [`packbench`], [`stitchbench`], [`verifybench`] and [`servebench`] —
//! and the one snapshot [`gate`] they share.

use tms_core::flow::experiments::common::Scale;

pub mod flowbench;
pub mod gate;
pub mod packbench;
pub mod servebench;
pub mod stitchbench;
pub mod verifybench;

/// The scale benchmarks run the experiment drivers at: small enough for a
/// Criterion sample loop, large enough to exercise every phase.
pub fn bench_scale() -> Scale {
    Scale {
        dataset_modules: 150,
        bin_cap: 10,
        full_models: false,
        sa_moves: 4_000,
        seed: 2024,
    }
}

/// Seed shared by the benches.
pub const BENCH_SEED: u64 = 2024;

/// Run `f` `reps` times (at least once); returns the last result and the
/// median wall-clock in milliseconds.
pub fn timed<T>(reps: u32, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let started = std::time::Instant::now();
        let r = f();
        walls.push(started.elapsed().as_secs_f64() * 1e3);
        last = Some(r);
    }
    (last.expect("reps >= 1"), median_ms(walls))
}

/// The median of non-empty wall-clock samples.
pub fn median_ms(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples[samples.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;
    use gate::{check, Snapshot};

    #[test]
    fn bench_scale_is_small() {
        let s = bench_scale();
        assert!(s.dataset_modules <= 200);
        assert!(!s.full_models);
    }

    #[test]
    fn timed_reports_the_median() {
        let mut calls = 0;
        let (last, ms) = timed(3, || {
            calls += 1;
            calls
        });
        assert_eq!((last, calls), (3, 3));
        assert!(ms >= 0.0);
        assert_eq!(median_ms(vec![5.0, 1.0, 3.0]), 3.0);
    }

    /// Every committed snapshot parses into its report type — keys a
    /// report no longer carries are ignored — and passes its own gate.
    #[test]
    fn committed_snapshots_load_and_pass_their_own_gate() {
        fn self_check<R: Snapshot>(json: &str) {
            let name = std::any::type_name::<R>();
            let snapshot: R = serde_json::from_str(json).unwrap_or_else(|e| panic!("{name}: {e}"));
            let violations = check(&snapshot, &snapshot, 0.2);
            assert!(violations.is_empty(), "{name}: {violations:?}");
        }
        self_check::<flowbench::FlowBenchReport>(include_str!("../../../BENCH_flow.json"));
        self_check::<packbench::PackBenchReport>(include_str!("../../../BENCH_pack.json"));
        self_check::<stitchbench::StitchBenchReport>(include_str!("../../../BENCH_stitch.json"));
        self_check::<verifybench::VerifyBenchReport>(include_str!("../../../BENCH_verify.json"));
        self_check::<tms_core::serve::ServeBenchReport>(include_str!("../../../BENCH_serve.json"));
    }
}
