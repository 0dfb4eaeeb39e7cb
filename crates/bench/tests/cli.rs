//! The `bench_*` binaries' shared command line.

use std::process::Command;

/// A NaN or infinite tolerance would make every gate comparison false and
/// pass any regression; a negative one would flag everything. Each binary
/// must refuse them before running its benchmark.
#[test]
fn every_binary_rejects_a_non_finite_or_negative_tolerance() {
    for bin in [
        env!("CARGO_BIN_EXE_bench_flow"),
        env!("CARGO_BIN_EXE_bench_pack"),
        env!("CARGO_BIN_EXE_bench_serve"),
        env!("CARGO_BIN_EXE_bench_stitch"),
        env!("CARGO_BIN_EXE_bench_verify"),
    ] {
        for bad in ["nan", "inf", "-0.5"] {
            let out = Command::new(bin)
                .args(["--quick", "--tolerance", bad])
                .output()
                .expect("run the bench binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{bin} --tolerance {bad}: {stderr}");
            assert!(stderr.contains("bad --tolerance"), "{bin}: {stderr}");
            assert!(out.stdout.is_empty(), "{bin} ran despite --tolerance {bad}");
        }
    }
}
