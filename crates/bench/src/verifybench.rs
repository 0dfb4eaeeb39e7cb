//! The integrity benchmark: what read verification costs and what it
//! catches.
//!
//! [`run_verify_bench`] measures three things on a warm cnvW1A1 cache:
//!
//! 1. **Hot-path overhead** — the warm cached flow with read verification
//!    (full digest + legality check on first materialization, memoized
//!    digest lookup on later hits — the production default of
//!    [`run_rw_flow_cached`]) against the unverified baseline
//!    ([`run_rw_flow_cached_unverified`]). The committed gate
//!    requires the median overhead to stay under
//!    [`OVERHEAD_BUDGET`] (2%).
//! 2. **Detection rate** — a [`FaultPlan`] arms the
//!    `cache.corrupt_macro` point to bit-flip served records; every
//!    injected corruption must be caught and quarantined, and the flow
//!    must still produce a correct result by recomputing the victims.
//!    The gate is exact: `corruption_detected == corruption_injected`.
//! 3. **False positives** — across all clean verified reads of the
//!    overhead measurement, the number of verification failures must be
//!    exactly zero.
//!
//! The [`VerifyBenchReport`] serialises to the committed
//! `BENCH_verify.json` snapshot; its [`Snapshot`] gate checks the
//! detection/false-positive invariants (exact) and the overhead fraction
//! (tolerance-scaled) — never absolute wall-clock.

use crate::gate::{Gate, Snapshot};
use crate::median_ms;
use std::sync::Arc;
use tms_core::cnn::cnvw1a1;
use tms_core::device::Device;
use tms_core::fault::{FaultPlan, FaultPoint};
use tms_core::flow::{
    run_rw_flow_cached, run_rw_flow_cached_unverified, CfPolicy, ImplementationCache, RwFlowConfig,
};
use tms_core::pblock::CfSearch;
use tms_core::place::PlacementModel;
use tms_core::stitch::StitchConfig;

/// The hot-path budget: verified warm reads may cost at most this
/// fraction over the unverified baseline.
pub const OVERHEAD_BUDGET: f64 = 0.02;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct VerifyBenchConfig {
    /// Seed for the design, the flow, and the fault plan.
    pub seed: u64,
    /// Timed warm repetitions per side; the median wall-clock is reported.
    pub reps: u32,
    /// Corruptions injected during the detection measurement.
    pub corruptions: u32,
}

impl VerifyBenchConfig {
    /// The canonical configuration behind the committed snapshot.
    pub fn canonical(seed: u64) -> Self {
        VerifyBenchConfig {
            seed,
            reps: 5,
            corruptions: 16,
        }
    }

    /// Reduced CI smoke mode; detection and false-positive metrics are
    /// deterministic and stay comparable against the snapshot gate.
    pub fn quick(seed: u64) -> Self {
        VerifyBenchConfig {
            seed,
            reps: 3,
            corruptions: 8,
        }
    }
}

/// The committed benchmark snapshot (`BENCH_verify.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct VerifyBenchReport {
    /// Snapshot schema version.
    pub schema: u32,
    /// Benchmarked design.
    pub design: String,
    /// Target device.
    pub device: String,
    /// Seed of the design, flow, and fault plan.
    pub seed: u64,
    /// Unique modules in the warm cache.
    pub modules: u64,
    /// Median warm flow wall-clock without read verification, ms.
    pub warm_unverified_ms: f64,
    /// Median warm flow wall-clock with read verification, ms.
    pub warm_verified_ms: f64,
    /// `(warm_verified_ms - warm_unverified_ms) / warm_unverified_ms`,
    /// clamped at zero (timing noise can make the verified side faster).
    pub overhead_frac: f64,
    /// Clean verified reads performed during the overhead measurement.
    pub clean_reads: u64,
    /// Verification failures among those clean reads (must be 0).
    pub false_positives: u64,
    /// Corruptions the fault plan injected into served records.
    pub corruption_injected: u64,
    /// Injected corruptions the verified read path caught and
    /// quarantined (must equal `corruption_injected`).
    pub corruption_detected: u64,
    /// Modules transparently recomputed after quarantine (healing).
    pub recomputed: u64,
}

fn bench_cfg(seed: u64) -> RwFlowConfig<'static> {
    RwFlowConfig {
        policy: CfPolicy::Minimal(CfSearch::wide()),
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch: StitchConfig::fast(seed),
        portfolio: None,
        mem_pack: tms_core::pack::MemPackConfig::off(),
        obs: tms_core::obs::noop(),
        seed,
    }
}

/// Run the three measurements and build the report.
pub fn run_verify_bench(cfg: &VerifyBenchConfig) -> VerifyBenchReport {
    let design = cnvw1a1(cfg.seed);
    let device = Device::xc7z045();
    let flow_cfg = bench_cfg(cfg.seed);
    let reps = cfg.reps.max(1);

    // Overhead + false positives: one warm cache, both read paths.
    let mut cache = ImplementationCache::new();
    let cold = run_rw_flow_cached(&design, &device, &flow_cfg, &mut cache);
    let modules = cold.fresh as u64;
    let mut unverified = Vec::new();
    let mut verified = Vec::new();
    for _ in 0..reps {
        let started = std::time::Instant::now();
        let r = run_rw_flow_cached_unverified(&design, &device, &flow_cfg, &mut cache);
        unverified.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.fresh, 0, "warm baseline must not recompute");
        let started = std::time::Instant::now();
        let r = run_rw_flow_cached(&design, &device, &flow_cfg, &mut cache);
        verified.push(started.elapsed().as_secs_f64() * 1e3);
        assert_eq!(r.fresh, 0, "clean verified reads must all pass");
    }
    let warm_unverified_ms = median_ms(unverified);
    let warm_verified_ms = median_ms(verified);
    let overhead_frac =
        ((warm_verified_ms - warm_unverified_ms) / warm_unverified_ms.max(1e-9)).max(0.0);
    let clean_reads = u64::from(reps) * modules;
    let false_positives = cache.verify_failures();

    // Detection: a separate fault-armed cache, warmed clean, then read
    // with `corruptions` scheduled bit-flips on the serve path.
    let plan = Arc::new(FaultPlan::seeded(cfg.seed));
    let mut chaos_cache = ImplementationCache::new().with_fault(Arc::clone(&plan) as _);
    run_rw_flow_cached(&design, &device, &flow_cfg, &mut chaos_cache);
    plan.fail_next(FaultPoint::CacheCorruptMacro, cfg.corruptions);
    let healed = run_rw_flow_cached(&design, &device, &flow_cfg, &mut chaos_cache);
    let corruption_injected = plan.injected(FaultPoint::CacheCorruptMacro);
    let corruption_detected = chaos_cache.quarantined();

    VerifyBenchReport {
        schema: 1,
        design: "cnvW1A1".to_string(),
        device: "xc7z045".to_string(),
        seed: cfg.seed,
        modules,
        warm_unverified_ms,
        warm_verified_ms,
        overhead_frac,
        clean_reads,
        false_positives,
        corruption_injected,
        corruption_detected,
        recomputed: healed.fresh as u64,
    }
}

/// The integrity invariants are exact — every injected corruption
/// detected, zero false positives, nothing recomputed beyond the victims
/// — and the hot-path overhead must stay under [`OVERHEAD_BUDGET`] scaled
/// by the tolerance (e.g. `0.2` = 20% headroom for machine noise).
/// Absolute wall-clock is recorded but never compared.
impl Snapshot for VerifyBenchReport {
    fn schema(&self) -> String {
        self.schema.to_string()
    }

    fn compare(&self, old: &Self, gate: &mut Gate) {
        gate.require(self.modules == old.modules, || {
            format!(
                "module count changed: {} vs snapshot {}",
                self.modules, old.modules
            )
        });
        gate.require(self.corruption_detected == self.corruption_injected, || {
            format!(
                "detection rate below 100%: {} of {} injected corruptions caught",
                self.corruption_detected, self.corruption_injected
            )
        });
        gate.require(self.corruption_injected != 0, || {
            "no corruption was injected — detection unproven".to_string()
        });
        gate.require(self.false_positives == 0, || {
            format!(
                "{} false positives across {} clean verified reads",
                self.false_positives, self.clean_reads
            )
        });
        gate.require(self.recomputed == self.corruption_detected, || {
            format!(
                "healing recomputed {} modules for {} quarantined records",
                self.recomputed, self.corruption_detected
            )
        });
        gate.no_higher(
            "verified-read overhead over its budget",
            self.overhead_frac,
            OVERHEAD_BUDGET,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    #[test]
    fn report_roundtrips_and_passes_its_own_gate() {
        let report = run_verify_bench(&VerifyBenchConfig {
            seed: 7,
            reps: 1,
            corruptions: 4,
        });
        assert_eq!(report.modules, 74);
        assert_eq!(report.false_positives, 0, "clean reads never flagged");
        assert_eq!(report.corruption_injected, 4);
        assert_eq!(
            report.corruption_detected, report.corruption_injected,
            "every injected corruption caught"
        );
        assert_eq!(report.recomputed, 4, "victims healed by recompute");
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: VerifyBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.corruption_detected, report.corruption_detected);
        // The gate ignores wall-clock (noisy in debug tests) but flags
        // every integrity violation.
        let mut calm = report.clone();
        calm.overhead_frac = 0.0;
        assert!(check(&report, &calm, 0.2).is_empty());
        let mut bad = calm.clone();
        bad.corruption_detected -= 1;
        bad.false_positives = 2;
        bad.recomputed = 0;
        let violations = check(&report, &bad, 0.2);
        assert_eq!(violations.len(), 3, "{violations:?}");
        let mut over = calm.clone();
        over.overhead_frac = 0.5;
        let violations = check(&report, &over, 0.2);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("overhead"));
    }
}
