//! Integrity suite: the serving stack against silent corruption. Seeded
//! bit-flips fire at the `cache.corrupt_macro` point while real clients
//! drive a real server; the contract under test is the self-healing one —
//! every injected corruption is detected and quarantined, every reply is
//! still correct (the victim is recomputed, never served), clean records
//! are never flagged, and the background scrubber evicts semantically
//! illegal entries the byte-level checks cannot see.

mod common;

use common::tiny_estimator;
use std::sync::Arc;
use std::time::Duration;
use tms_cnn::ModuleRole;
use tms_device::Device;
use tms_estimator::FeatureSet;
use tms_fault::{FaultPlan, FaultPoint};
use tms_flow::{module_digest, MacroStore, ModuleFingerprint, SealedModule};
use tms_serve::{serve, Client, ModuleSpec, ServeConfig};
use tms_store::{Store, StoreConfig};

fn spec(role: ModuleRole, target: u32, name: &str) -> ModuleSpec {
    ModuleSpec {
        role,
        target_slices: target,
        name: name.to_string(),
        seed: 13,
    }
}

fn unique_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "tms_integrity_{tag}_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ))
}

/// Pull the value of a label-free Prometheus sample off a metrics page.
fn metric(page: &str, name: &str) -> f64 {
    page.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .unwrap_or_else(|| panic!("{name} missing from the metrics page"))
        .trim()
        .parse()
        .expect("sample parses")
}

/// Satellite: the quarantine→recompute round trip over the wire. A stored
/// entry is corrupted on its way out of the cache; the `flow` request that
/// reads it must answer correctly anyway (the victim recomputes), the
/// quarantine counter must move exactly once, and the re-persisted entry
/// must serve clean — including across a restart.
#[test]
fn corrupted_entry_heals_by_recompute_and_repersists_clean() {
    let dir = unique_dir("heal");
    std::fs::remove_dir_all(&dir).ok();
    let plan = Arc::new(FaultPlan::seeded(27));
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_store_dir(dir.clone())
    .with_fault(Arc::clone(&plan));
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Cold flow fills the library; a second run is fully reused.
    let cold = client.flow(5, "xc7z045", None).expect("cold flow");
    assert_eq!(cold.fresh, 74);
    let warm = client.flow(5, "xc7z045", None).expect("warm flow");
    assert_eq!(warm.reused, 74);
    assert_eq!(warm.fresh, 0);

    // One read gets bit-flipped. The reply must still be correct — the
    // victim is quarantined and recomputed, costing exactly one fresh
    // implementation.
    plan.fail_next(FaultPoint::CacheCorruptMacro, 1);
    let healed = client.flow(5, "xc7z045", None).expect("healed flow");
    assert_eq!(healed.implemented, 74, "the reply is correct regardless");
    assert_eq!(healed.fresh, 1, "exactly the victim recomputed");
    assert_eq!(healed.reused, 73);
    assert_eq!(plan.injected(FaultPoint::CacheCorruptMacro), 1);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.integrity.quarantined, 1, "{:?}", stats.integrity);
    assert_eq!(stats.integrity.verify_failures, 1);
    assert_eq!(stats.integrity.insert_rejected, 0);
    let page = client.metrics_text().expect("metrics");
    assert_eq!(metric(&page, "tms_quarantine_total"), 1.0);
    assert_eq!(metric(&page, "tms_verify_failures_total"), 1.0);

    // The recompute re-persisted a clean record: the next run reuses
    // everything and the quarantine counter does not move again.
    let clean = client.flow(5, "xc7z045", None).expect("clean flow");
    assert_eq!(clean.reused, 74);
    assert_eq!(clean.fresh, 0);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.integrity.quarantined, 1, "incremented exactly once");
    handle.stop();

    // The healed library survives a restart bit-clean.
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_store_dir(dir.clone());
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("rebind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let warm = client.flow(5, "xc7z045", None).expect("warm after restart");
    assert_eq!(warm.reused, 74);
    assert_eq!(warm.fresh, 0);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.integrity.quarantined, 0, "fresh process, clean reads");
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// Chaos: with every cache read corrupted (rate 1.0), the server still
/// answers every request correctly — detection is 100%, each corruption
/// is healed by recompute, and once the faults clear the cache serves
/// warm again with zero further quarantines and zero false positives.
#[test]
fn sustained_corruption_is_fully_detected_and_absorbed() {
    let plan = Arc::new(FaultPlan::seeded(41));
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_fault(Arc::clone(&plan));
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let s = spec(ModuleRole::Mvau, 40, "chaos_corrupt");
    assert!(
        !client
            .preimpl(&s, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached
    );

    // Every read is now corrupted: each request recomputes, none errors.
    plan.set_rate(FaultPoint::CacheCorruptMacro, 1.0);
    for i in 0..4 {
        let r = client
            .preimpl(&s, "xc7z020", Some(1.6))
            .expect("corrupted reads heal transparently");
        assert!(!r.cached, "request {i} recomputed its corrupted record");
        assert!(r.used_slices > 0);
    }
    plan.clear();

    let injected = plan.injected(FaultPoint::CacheCorruptMacro);
    assert!(injected >= 4, "rate 1.0 fired on every read: {injected}");
    let stats = client.stats().expect("stats");
    assert_eq!(
        stats.integrity.quarantined, injected,
        "100% detection: every injected corruption quarantined"
    );
    assert_eq!(stats.integrity.verify_failures, injected);

    // Faults cleared: the warm path is back, nothing new is flagged.
    assert!(
        client
            .preimpl(&s, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached
    );
    let after = client.stats().expect("stats");
    assert_eq!(
        after.integrity.quarantined, injected,
        "zero false positives on clean reads"
    );
    handle.stop();
}

/// The background scrubber: a forged record — digest-consistent but
/// semantically illegal, invisible to every byte-level check — is planted
/// in the library before the server starts. The scrubber's audit catches
/// it, quarantines it durably, and the next request for that module
/// recomputes and re-persists a legal implementation.
#[test]
fn scrubber_quarantines_forged_entries_and_requests_heal_them() {
    let dir = unique_dir("scrub");
    std::fs::remove_dir_all(&dir).ok();
    let device = Device::xc7z020();
    let s = spec(ModuleRole::Mvau, 40, "scrub_victim");
    let netlist = tms_cnn::synth_module(s.role, s.target_slices, &s.name, s.seed);
    let key = ModuleFingerprint::of(&netlist, &device);

    // Plant the forgery: implement the module legitimately, halve its
    // recorded utilization (making the placement illegal for its PBlock),
    // and re-seal so the digest check passes.
    {
        let cfg = tms_flow::RwFlowConfig {
            policy: tms_flow::CfPolicy::Constant(1.6),
            use_shape_report: true,
            model: tms_place::PlacementModel::default(),
            stitch: tms_stitch::StitchConfig::fast(13),
            portfolio: None,
            mem_pack: tms_flow::MemPackConfig::off(),
            obs: tms_obs::noop(),
            seed: 13,
        };
        let mut forged =
            tms_flow::implement_module(&s.name, &netlist, &device, &cfg).expect("implementable");
        forged.placement.utilization *= 0.5;
        let sealed = SealedModule {
            digest: module_digest(&forged),
            module: forged,
        };
        let store: MacroStore = Store::open(StoreConfig::at(&dir)).expect("open");
        store.put(key.clone(), sealed).expect("plant the forgery");
        store.checkpoint().expect("checkpoint");
    }

    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_store_dir(dir.clone())
    .with_scrub(Duration::from_millis(200), 0);
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Wait for a scrub pass to cover the library.
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let stats = client.stats().expect("stats");
        if stats.integrity.scrub_passes >= 1 {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "scrubber never completed a pass"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let last = stats.integrity.last_scrub.expect("a pass is recorded");
    assert_eq!(last.entries, 1, "the pass covered the planted entry");
    assert_eq!(last.quarantined, 1, "the forgery was caught");
    let store_stats = stats.store.expect("store mode");
    assert_eq!(store_stats.quarantined, 1);
    let page = client.metrics_text().expect("metrics");
    assert_eq!(metric(&page, "tms_scrub_last_quarantined"), 1.0);
    assert!(metric(&page, "tms_scrub_passes_total") >= 1.0);

    // Repair is recompute-on-next-request: the quarantined module is a
    // miss, the fresh implementation re-persists, and serves warm after.
    let r = client.preimpl(&s, "xc7z020", Some(1.6)).expect("preimpl");
    assert!(!r.cached, "the forged record is gone; this recomputed");
    let r = client.preimpl(&s, "xc7z020", Some(1.6)).expect("preimpl");
    assert!(r.cached, "the healed record serves warm");
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

/// A clean library scrubs clean: passes complete, nothing is quarantined,
/// and warm serving is undisturbed while the scrubber runs.
#[test]
fn clean_library_scrubs_with_zero_false_positives() {
    let dir = unique_dir("clean");
    std::fs::remove_dir_all(&dir).ok();
    let config = ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    }
    .with_store_dir(dir.clone())
    .with_scrub(Duration::from_millis(200), 0);
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let a = spec(ModuleRole::Mvau, 40, "clean_a");
    let b = spec(ModuleRole::Activation, 30, "clean_b");
    client.preimpl(&a, "xc7z020", Some(1.6)).expect("preimpl");
    client.preimpl(&b, "xc7z020", Some(1.6)).expect("preimpl");

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    let stats = loop {
        let stats = client.stats().expect("stats");
        if stats.integrity.scrub_passes >= 1 {
            break stats;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "scrubber never completed a pass"
        );
        std::thread::sleep(Duration::from_millis(100));
    };
    let last = stats.integrity.last_scrub.expect("a pass is recorded");
    assert_eq!(last.quarantined, 0, "no false positives");
    assert!(last.entries >= 2, "the pass covered the library");
    assert_eq!(stats.integrity.verify_failures, 0);
    assert_eq!(stats.integrity.quarantined, 0);

    // Warm serving was untouched.
    assert!(
        client
            .preimpl(&a, "xc7z020", Some(1.6))
            .expect("preimpl")
            .cached
    );
    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}
