//! Fault-injection overhead: the same module implementation run plain,
//! through an unarmed implementation cache, and through a cache armed with
//! a silent `FaultPlan` (every rate zero), plus microbenches of
//! the injector consult and backoff primitives. The acceptance bar is
//! that the disabled injector costs the flow nothing measurable (< 2%).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::sync::Arc;
use tms_core::cnn::cnvw1a1;
use tms_core::device::Device;
use tms_core::fault::{noop, FaultInjector, FaultPlan, FaultPoint, Retry};
use tms_core::flow::{implement_module, CfPolicy, ImplementationCache, RwFlowConfig};
use tms_core::pblock::CfSearch;
use tms_core::place::PlacementModel;
use tms_core::stitch::StitchConfig;

fn cfg() -> RwFlowConfig<'static> {
    RwFlowConfig {
        policy: CfPolicy::Minimal(CfSearch::wide()),
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch: StitchConfig::fast(3),
        portfolio: None,
        mem_pack: tms_core::pack::MemPackConfig::off(),
        seed: 3,
        obs: tms_core::obs::noop(),
    }
}

fn bench_flow_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_flow");
    group.sample_size(20);
    let design = cnvw1a1(3);
    let dev = Device::xc7z045();
    let m = &design.modules[0];
    group.bench_function("plain", |b| {
        b.iter(|| black_box(implement_module(&m.name, &m.netlist, &dev, &cfg())));
    });
    // Unarmed: one `armed()` check, then the plain call — the production
    // configuration, and the one the < 2% acceptance bar applies to.
    group.bench_function("resilient_noop", |b| {
        let cache = ImplementationCache::new();
        b.iter(|| black_box(cache.implement(&m.name, &m.netlist, &dev, &cfg())));
    });
    // Armed but silent: the retry loop and one seeded-hash consult per
    // attempt are live, yet no fault ever fires. Upper bound on what an
    // operator pays for leaving a zero-rate plan attached.
    group.bench_function("resilient_silent_plan", |b| {
        let cache = ImplementationCache::new()
            .with_fault(Arc::new(FaultPlan::seeded(7)))
            .with_retry(Retry::attempts(3));
        b.iter(|| black_box(cache.implement(&m.name, &m.netlist, &dev, &cfg())));
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("fault_primitives");
    group.bench_function("consult_noop", |b| {
        let inj = noop();
        b.iter(|| black_box(inj.should_fail(black_box(FaultPoint::FlowPlace))));
    });
    group.bench_function("consult_plan_zero_rate", |b| {
        let plan = FaultPlan::seeded(7);
        b.iter(|| black_box(plan.should_fail(black_box(FaultPoint::FlowPlace))));
    });
    group.bench_function("consult_plan_half_rate", |b| {
        let plan = FaultPlan::seeded(7).with_rate(FaultPoint::FlowPlace, 0.5);
        b.iter(|| black_box(plan.should_fail(black_box(FaultPoint::FlowPlace))));
    });
    group.bench_function("backoff_for", |b| {
        let retry = Retry::attempts(6);
        b.iter(|| black_box(retry.backoff_for(black_box(4))));
    });
    group.finish();
}

criterion_group!(benches, bench_flow_overhead, bench_primitives);
criterion_main!(benches);
