//! Warm-start end-to-end test: a store-backed server is stopped and a new
//! one opened on the same directory — the second process answers its first
//! `flow` request entirely from the persistent library, with **zero**
//! place-and-route tool runs, and its `preimpl` replies carry the exact
//! bits the first process computed.

mod common;

use common::tiny_estimator;
use tms_cnn::ModuleRole;
use tms_estimator::FeatureSet;
use tms_serve::{serve, Client, ModuleSpec, ServeConfig};

fn store_server(dir: &std::path::Path) -> tms_serve::ServerHandle {
    let config = ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    }
    .with_store_dir(dir);
    serve(config, tiny_estimator(), FeatureSet::Additional).expect("bind ephemeral port")
}

#[test]
fn restarted_server_serves_the_flow_from_the_library() {
    let dir = std::env::temp_dir().join(format!("tms_warm_start_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let spec = ModuleSpec {
        role: ModuleRole::Mvau,
        target_slices: 36,
        name: "mvau_ws".to_string(),
        seed: 11,
    };

    // ── Server one: cold store, run a full flow + one preimpl, stop. ──
    let (cold_preimpl, first_generation) = {
        let handle = store_server(&dir);
        let mut client = Client::connect(handle.addr()).expect("connect");

        let flow = client.flow(5, "xc7z045", None).expect("cold flow");
        assert_eq!(flow.reused, 0, "empty store: nothing to reuse");
        assert_eq!(flow.fresh, 74, "cnvw1a1(5) has 74 unique modules");
        assert!(flow.tool_runs_spent > 0);

        let pre = client
            .preimpl(&spec, "xc7z020", Some(1.6))
            .expect("cold preimpl");
        assert!(!pre.cached);

        let stats = client.stats().expect("stats");
        let store = stats.store.expect("server runs in store mode");
        assert_eq!(store.entries, 75, "74 flow modules + 1 preimpl");
        assert!(store.appended >= 75);

        // `stop` drains the workers, flushes and checkpoints the library.
        handle.stop();
        (pre, store.generation)
    };

    // The checkpoint folded the WAL into a snapshot generation.
    let report = tms_store::verify(&dir).expect("verify");
    assert!(report.clean(), "{report}");
    assert!(report.generation.expect("snapshot exists") > first_generation);
    assert_eq!(report.wal_records, 0, "checkpoint left an empty WAL");

    // ── Server two: same directory, fresh process state. ──
    let handle = store_server(&dir);
    let mut client = Client::connect(handle.addr()).expect("connect");

    let stats = client.stats().expect("stats");
    let store = stats.store.expect("store mode");
    assert_eq!(store.entries, 75, "warm start loaded the whole library");
    assert_eq!(store.recovered, 75, "all 75 came from disk, not recompute");

    // The headline: the restarted server's first flow request does ZERO
    // place-and-route work.
    let flow = client.flow(5, "xc7z045", None).expect("warm flow");
    assert_eq!(flow.reused, 74, "every module served from the library");
    assert_eq!(flow.fresh, 0);
    assert_eq!(flow.tool_runs_spent, 0, "warm start spends no tool runs");
    assert_eq!(flow.implemented, 74);
    assert_eq!(flow.failed, 0);

    // And the preimpl comes back cached, bit-identical to what server one
    // computed (same CF, same PBlock, same placement occupancy).
    let pre = client
        .preimpl(&spec, "xc7z020", Some(1.6))
        .expect("warm preimpl");
    assert!(pre.cached, "served from the persistent library");
    assert_eq!(pre.cf.to_bits(), cold_preimpl.cf.to_bits());
    assert_eq!(pre.pblock_w, cold_preimpl.pblock_w);
    assert_eq!(pre.pblock_h, cold_preimpl.pblock_h);
    assert_eq!(pre.used_slices, cold_preimpl.used_slices);

    // The store metrics surfaced on the Prometheus page too.
    let page = client.metrics_text().expect("metrics");
    assert!(page.contains("tms_store_entries 75"), "page:\n{page}");
    assert!(page.contains("tms_store_recovered_total 75"));

    handle.stop();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn client_shutdown_checkpoints_before_the_server_exits() {
    let dir = std::env::temp_dir().join(format!("tms_warm_shutdown_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let handle = store_server(&dir);
    let mut client = Client::connect(handle.addr()).expect("connect");
    let spec = ModuleSpec {
        role: ModuleRole::Activation,
        target_slices: 28,
        name: "act_sd".to_string(),
        seed: 11,
    };
    client
        .preimpl(&spec, "xc7z020", Some(1.6))
        .expect("preimpl");

    // Remote graceful stop: the reply itself reports the store state and
    // arrives only after the WAL fsync.
    let ack = client.shutdown().expect("shutdown");
    assert!(ack.stopping);
    let snap = ack.store.expect("store mode");
    assert_eq!(snap.entries, 1);

    // serve_forever-style wait: the handle observes the flag and finishes
    // the graceful stop (join + checkpoint) — exactly what the CLI does.
    handle.serve_forever();

    let report = tms_store::verify(&dir).expect("verify");
    assert!(report.clean(), "{report}");
    assert_eq!(report.wal_records, 0, "checkpoint folded the WAL");
    assert_eq!(report.snapshot_records, 2, "meta record + 1 entry");
    std::fs::remove_dir_all(&dir).ok();
}
