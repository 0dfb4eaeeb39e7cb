//! Retrying the flow's tool runs under the cache's fault injector.
//!
//! Real CAD tool runs fail transiently — a licence hiccup, an OOM-killed
//! placer, a filesystem blip — and the paper's flow is built around
//! re-running placement with corrected parameters. The
//! [`ImplementationCache`] gives the reproduction the same posture: its
//! fault injector is consulted at `flow.place` (once per tool-run attempt)
//! and `flow.route` (before the stitch), and its [`Retry`] policy absorbs
//! injected transient faults, so only genuine, permanent errors surface.
//!
//! With an unarmed injector (the default) this compiles down to the plain
//! calls — one `armed()` check, no per-module overhead — so the production
//! path pays nothing for the instrumentation.
//!
//! [`Retry`]: tms_fault::Retry

use crate::cache::ImplementationCache;
use crate::rwflow::{implement_module, ImplementedModule, RwFlowConfig};
use tms_device::Device;
use tms_fault::FaultPoint;
use tms_netlist::Netlist;
use tms_obs::Recorder;

/// Marker prefix of errors produced by injected faults — the transient
/// class the retry loops are allowed to absorb; genuine flow errors are
/// permanent.
const INJECTED: &str = "injected fault";

impl ImplementationCache {
    /// [`implement_module`] under the cache's fault injector: each
    /// tool-run attempt first consults `flow.place`; an injected fault
    /// counts as a failed (transient) attempt and is retried under the
    /// cache's retry policy, while real implementation errors abort
    /// immediately. Exhausting the budget returns the final injected-fault
    /// error.
    pub fn implement(
        &self,
        name: &str,
        netlist: &Netlist,
        device: &Device,
        cfg: &RwFlowConfig<'_>,
    ) -> Result<ImplementedModule, String> {
        if !self.fault.armed() {
            return implement_module(name, netlist, device, cfg);
        }
        let out = self.retry.run(
            |e: &String| e.starts_with(INJECTED),
            |attempt| {
                if attempt > 1 {
                    cfg.obs.count("flow.place.retry", 1);
                }
                if self.fault.should_fail(FaultPoint::FlowPlace) {
                    cfg.obs.count("fault.flow.place", 1);
                    return Err(format!(
                        "{INJECTED}: flow.place ({name}, attempt {attempt})"
                    ));
                }
                implement_module(name, netlist, device, cfg)
            },
        );
        out.map_err(|failed| failed.last)
    }

    /// Consult `flow.route` before the stitch, absorbing transient faults
    /// under the retry budget. The stitch itself is deterministic
    /// in-process work; the injection models the external routing tool
    /// failing and being re-invoked.
    pub(crate) fn absorb_route_faults(&self, obs: &dyn Recorder) {
        if !self.fault.armed() {
            return;
        }
        let mut attempt = 0u32;
        while self.fault.should_fail(FaultPoint::FlowRoute) {
            obs.count("fault.flow.route", 1);
            attempt += 1;
            if attempt >= self.retry.max_attempts.max(1) {
                obs.count("fault.flow.route.exhausted", 1);
                break;
            }
            std::thread::sleep(self.retry.backoff_for(attempt));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rwflow::CfPolicy;
    use std::sync::Arc;
    use tms_cnn::cnvw1a1;
    use tms_fault::{FaultPlan, Retry};
    use tms_pblock::CfSearch;
    use tms_place::PlacementModel;
    use tms_stitch::StitchConfig;

    fn cfg(seed: u64) -> RwFlowConfig<'static> {
        RwFlowConfig {
            policy: CfPolicy::Minimal(CfSearch::wide()),
            use_shape_report: true,
            model: PlacementModel::default(),
            stitch: StitchConfig::fast(seed),
            portfolio: None,
            mem_pack: tms_pack::MemPackConfig::off(),
            obs: tms_obs::noop(),
            seed,
        }
    }

    /// A cache armed with `plan`, retrying `attempts` times with a short
    /// backoff.
    fn armed(plan: &Arc<FaultPlan>, attempts: u32) -> ImplementationCache {
        ImplementationCache::new()
            .with_fault(Arc::clone(plan) as _)
            .with_retry(Retry {
                base_backoff: std::time::Duration::from_micros(50),
                ..Retry::attempts(attempts)
            })
    }

    #[test]
    fn default_resilience_matches_the_plain_flow() {
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let m = &design.modules[0];
        let plain = implement_module(&m.name, &m.netlist, &dev, &cfg(3)).unwrap();
        let wrapped = ImplementationCache::new()
            .implement(&m.name, &m.netlist, &dev, &cfg(3))
            .unwrap();
        assert_eq!(plain.pblock.rect, wrapped.pblock.rect);
        assert_eq!(plain.cf, wrapped.cf);
        assert_eq!(plain.attempts, wrapped.attempts);
    }

    #[test]
    fn transient_place_faults_are_retried_to_success() {
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let m = &design.modules[0];
        // Two scheduled faults, three attempts: the third succeeds.
        let plan = Arc::new(FaultPlan::seeded(5).with_fail_next(FaultPoint::FlowPlace, 2));
        let out = armed(&plan, 3)
            .implement(&m.name, &m.netlist, &dev, &cfg(3))
            .expect("third attempt succeeds");
        let plain = implement_module(&m.name, &m.netlist, &dev, &cfg(3)).unwrap();
        assert_eq!(
            out.pblock.rect, plain.pblock.rect,
            "result unaffected by retries"
        );
        assert_eq!(plan.injected(FaultPoint::FlowPlace), 2);
    }

    #[test]
    fn exhausted_budget_surfaces_the_injected_fault() {
        let design = cnvw1a1(2);
        let dev = Device::xc7z020();
        let m = &design.modules[0];
        let plan = Arc::new(FaultPlan::seeded(5).with_rate(FaultPoint::FlowPlace, 1.0));
        let err = armed(&plan, 2)
            .implement(&m.name, &m.netlist, &dev, &cfg(3))
            .expect_err("every attempt is injected");
        assert!(err.starts_with(INJECTED), "{err}");
        assert_eq!(plan.injected(FaultPoint::FlowPlace), 2, "one per attempt");
    }

    #[test]
    fn resilient_cached_flow_recovers_from_scattered_faults() {
        let design = cnvw1a1(5);
        let dev = Device::xc7z045();
        // 20% of place attempts fail. Which hits land on which module
        // depends on rayon's interleaving, so the test budgets enough
        // attempts (10) that a module-level failure is ~0.2^10 — never.
        let plan = Arc::new(
            FaultPlan::seeded(11)
                .with_rate(FaultPoint::FlowPlace, 0.2)
                .with_fail_next(FaultPoint::FlowRoute, 1),
        );
        let mut cache = armed(&plan, 10);
        let faulty = crate::run_rw_flow_cached(&design, &dev, &cfg(5), &mut cache);
        assert_eq!(
            faulty.result.failed.len(),
            0,
            "retries absorbed every fault"
        );
        assert_eq!(faulty.fresh, 74);
        assert!(
            plan.injected(FaultPoint::FlowPlace) > 0,
            "faults really fired"
        );
        assert_eq!(plan.injected(FaultPoint::FlowRoute), 1);

        // Same design through a clean flow: identical stitched outcome.
        let mut clean_cache = ImplementationCache::new();
        let clean = crate::run_rw_flow_cached(&design, &dev, &cfg(5), &mut clean_cache);
        assert_eq!(
            faulty.result.stitch.placed_count,
            clean.result.stitch.placed_count
        );
    }
}
