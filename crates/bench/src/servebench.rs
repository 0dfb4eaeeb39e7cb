//! The serving-layer benchmark behind `bench_serve`: a seeded closed-loop
//! request mix against an in-process server.
//!
//! [`run_serve_bench`] boots a server (tiny deterministic estimator, no
//! store), drives it with the mix of [`tms_core::serve::loadgen`], and
//! returns the `BENCH_serve.json` report: per-endpoint request and error
//! counts with bucket-interpolated latency quantiles, plus the server's
//! shed / deadline / slowlog totals. Its [`Snapshot`] gate compares only
//! **machine-independent** metrics — request and error totals (overall and
//! per endpoint) and the server's shed / deadline / degraded / slowlog
//! counts. Latency and wall-clock figures are never compared.

use crate::gate::{Gate, Snapshot};
use std::time::Duration;
use tms_core::estimator::{CfEstimator, EstimatorKind, FeatureSet};
use tms_core::ml::Dataset;
use tms_core::serve::loadgen::{run_loadgen, LoadgenConfig};
use tms_core::serve::{serve, ServeBenchReport, ServeConfig};

/// A quickly-trained linear estimator — the loadgen cares that replies are
/// deterministic, not that the model is good.
fn tiny_estimator() -> CfEstimator {
    let mut state: u64 = 0x243F_6A88_85A3_08D3;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let xs: Vec<Vec<f64>> = (0..200).map(|_| (0..6).map(|_| next()).collect()).collect();
    let ys: Vec<f64> = xs.iter().map(|x| 0.9 + 0.5 * x[0] + 0.2 * x[3]).collect();
    let names = (0..6).map(|i| format!("f{i}")).collect();
    let ds = Dataset::new(names, xs, ys);
    CfEstimator::train_small(EstimatorKind::LinearRegression, &ds, 1)
}

/// Boot the in-process server, replay the mix — 4 clients × 25 requests
/// when `quick` (the committed snapshot), else 8 × 100 — and stop it.
pub fn run_serve_bench(seed: u64, quick: bool) -> Result<ServeBenchReport, String> {
    let (clients, requests_per_client, workers) = if quick { (4, 25, 8) } else { (8, 100, 12) };
    // A slow-threshold far beyond any request keeps slowlog retention a
    // pure function of request *outcomes* (errors), machine-independent.
    let config = ServeConfig {
        workers,
        slow_threshold: Duration::from_secs(3600),
        ..ServeConfig::default()
    };
    let handle = serve(config, tiny_estimator(), FeatureSet::Additional)
        .map_err(|e| format!("binding the in-process server: {e}"))?;
    let load = LoadgenConfig::closed(handle.addr(), clients, requests_per_client, seed);
    let report = run_loadgen(&load).map_err(|e| format!("loadgen failed: {e}"));
    handle.stop();
    report
}

impl Snapshot for ServeBenchReport {
    fn schema(&self) -> String {
        self.schema.clone()
    }

    fn compare(&self, old: &Self, gate: &mut Gate) {
        gate.near(
            "requests_total",
            self.requests_total as f64,
            old.requests_total as f64,
        );
        gate.near(
            "errors_total",
            self.errors_total as f64,
            old.errors_total as f64,
        );
        for o in &old.endpoints {
            let fresh = self.endpoints.iter().find(|e| e.endpoint == o.endpoint);
            gate.require(fresh.is_some(), || {
                format!(
                    "endpoint '{}' present in snapshot, missing from fresh run",
                    o.endpoint
                )
            });
            if let Some(n) = fresh {
                let at = &o.endpoint;
                gate.near(
                    &format!("{at}.requests"),
                    n.requests as f64,
                    o.requests as f64,
                );
                gate.near(&format!("{at}.errors"), n.errors as f64, o.errors as f64);
            }
        }
        let (n, o) = (&self.server, &old.server);
        gate.near("server.shed", n.shed as f64, o.shed as f64);
        gate.near(
            "server.deadline_expired",
            n.deadline_expired as f64,
            o.deadline_expired as f64,
        );
        gate.near(
            "server.slowlog_considered",
            n.slowlog_considered as f64,
            o.slowlog_considered as f64,
        );
        gate.near(
            "server.slowlog_retained",
            n.slowlog_retained as f64,
            o.slowlog_retained as f64,
        );
        gate.require(n.degraded == o.degraded, || {
            format!(
                "server.degraded: snapshot {} vs fresh {}",
                o.degraded, n.degraded
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    fn snapshot() -> ServeBenchReport {
        serde_json::from_str(include_str!("../../../BENCH_serve.json")).unwrap()
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = snapshot();
        assert!(check(&r, &r, 0.2).is_empty());
    }

    #[test]
    fn latency_differences_never_gate() {
        let old = snapshot();
        let mut new = snapshot();
        new.endpoints[0].p99_us = 1_000_000;
        new.wall_ms = 1e9;
        assert!(check(&old, &new, 0.2).is_empty());
    }

    #[test]
    fn count_regressions_are_caught() {
        let old = snapshot();
        let new = ServeBenchReport {
            errors_total: old.errors_total * 4,
            ..snapshot()
        };
        let violations = check(&old, &new, 0.2);
        assert!(
            violations.iter().any(|v| v.starts_with("errors_total")),
            "{violations:?}"
        );
        let missing = ServeBenchReport {
            endpoints: Vec::new(),
            ..snapshot()
        };
        assert!(check(&old, &missing, 0.2)
            .iter()
            .any(|v| v.contains("missing from fresh run")));
    }

    #[test]
    fn report_serde_round_trips() {
        let r = snapshot();
        let json = serde_json::to_string(&r).unwrap();
        let back: ServeBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
