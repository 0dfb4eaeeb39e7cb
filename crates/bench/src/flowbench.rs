//! The canonical flow benchmark: the incremental minimal-CF search engine
//! on cnvW1A1, with a machine-portable regression gate.
//!
//! [`run_flow_bench`] measures two things on cnvW1A1:
//!
//! 1. **The wide labelling sweep** — every unique module searched with
//!    [`CfSearch::wide`] through [`min_feasible_cf_observed`]. Module
//!    preparation (netlist stats, packing, shape report) is built outside
//!    the timed region, so the wall-clock isolates the search itself.
//! 2. **The end-to-end flow** — `run_rw_flow` under
//!    [`CfPolicy::Minimal`] with the fast stitch.
//!
//! The [`FlowBenchReport`] serialises to the committed `BENCH_flow.json`
//! snapshot. Its [`Snapshot`] gate compares the machine-independent
//! metrics — attempt counts, the prescreen ratio, labelled and
//! implemented counts — never wall-clock, which varies with hardware.
//! That the engine reproduces the pre-engine reference search bit for bit
//! is pinned by the equivalence tests of `tms-pblock`.

use crate::gate::{Gate, Snapshot};
use crate::timed;
use tms_core::cnn::cnvw1a1;
use tms_core::device::Device;
use tms_core::flow::{run_rw_flow, CfPolicy, RwFlowConfig};
use tms_core::obs::AggregatingSink;
use tms_core::pblock::{min_feasible_cf_observed, CfSearch, PBlockGenerator};
use tms_core::place::{detail::module_key, quick_place, PlacementModel};
use tms_core::stitch::StitchConfig;
use tms_core::synth::pack;

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct FlowBenchConfig {
    /// Seed for the design, module keys, and the flow.
    pub seed: u64,
    /// Timed repetitions per measurement; the median wall-clock is
    /// reported.
    pub reps: u32,
}

impl FlowBenchConfig {
    /// The canonical configuration behind the committed snapshot.
    pub fn canonical(seed: u64) -> Self {
        FlowBenchConfig { seed, reps: 3 }
    }

    /// Single-repetition CI smoke mode. The search is deterministic, so
    /// every metric except wall-clock is identical to [`Self::canonical`]
    /// and remains comparable against the snapshot.
    pub fn quick(seed: u64) -> Self {
        FlowBenchConfig { seed, reps: 1 }
    }
}

/// Wall-clock and accounting of the labelling sweep.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct SweepSide {
    /// Median wall-clock over the configured repetitions, in milliseconds.
    pub wall_ms: f64,
    /// Modules the sweep found a feasible CF for.
    pub labelled: u64,
    /// Successful-search attempts (`pblock.search.tool_runs`).
    pub tool_runs: u64,
    /// Attempts spent on infeasible modules (`pblock.search.wasted_runs`).
    pub wasted_runs: u64,
}

/// Wall-clock and accounting of the end-to-end flow.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlowSide {
    /// Median wall-clock over the configured repetitions, in milliseconds.
    pub wall_ms: f64,
    /// Modules implemented.
    pub implemented: u64,
    /// Modules with no feasible CF.
    pub failed: u64,
    /// Total place-and-route tool runs.
    pub tool_runs: u64,
}

/// The committed benchmark snapshot (`BENCH_flow.json`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct FlowBenchReport {
    /// Snapshot schema version.
    pub schema: u32,
    /// Benchmarked design.
    pub design: String,
    /// Labelling device.
    pub device: String,
    /// Seed of the design, module keys, and flow.
    pub seed: u64,
    /// Unique modules in the sweep.
    pub modules: u64,
    /// The labelling sweep.
    pub sweep_engine: SweepSide,
    /// Attempts the engine resolved without a full placement
    /// (`pblock.search.prescreened`).
    pub prescreened: u64,
    /// `prescreened / (tool_runs + wasted_runs)` — the fraction of all
    /// attempts the structural prescreen short-circuited.
    pub prescreen_ratio: f64,
    /// The end-to-end flow on [`CfPolicy::Minimal`].
    pub flow_engine: FlowSide,
}

/// Run the sweep and the flow and build the report.
pub fn run_flow_bench(cfg: &FlowBenchConfig) -> FlowBenchReport {
    let device = Device::xc7z020();
    let gen = PBlockGenerator::new(&device, true);
    let model = PlacementModel::default();
    let search = CfSearch::wide();
    let design = cnvw1a1(cfg.seed);
    let prepped: Vec<_> = design
        .modules
        .iter()
        .map(|m| {
            let stats = m.netlist.stats();
            let packing = pack(&stats);
            let shape = quick_place(&stats, &packing);
            (
                m.name.as_str(),
                module_key(&m.name, cfg.seed),
                stats,
                packing,
                shape,
            )
        })
        .collect();

    // The search is deterministic, so every repetition's sink holds the
    // same counters.
    let (sink, sweep_ms) = timed(cfg.reps, || {
        let sink = AggregatingSink::new();
        for (name, key, stats, packing, shape) in &prepped {
            min_feasible_cf_observed(
                &gen, stats, packing, shape, &model, &search, *key, &sink, name,
            );
        }
        sink
    });
    let sweep_engine = SweepSide {
        wall_ms: sweep_ms,
        labelled: sink.counter("pblock.search.feasible"),
        tool_runs: sink.counter("pblock.search.tool_runs"),
        wasted_runs: sink.counter("pblock.search.wasted_runs"),
    };
    let prescreened = sink.counter("pblock.search.prescreened");
    let total_attempts = sweep_engine.tool_runs + sweep_engine.wasted_runs;

    let flow_cfg = RwFlowConfig {
        policy: CfPolicy::Minimal(search),
        use_shape_report: true,
        model,
        stitch: StitchConfig::fast(cfg.seed),
        portfolio: None,
        mem_pack: tms_core::pack::MemPackConfig::off(),
        seed: cfg.seed,
        obs: tms_core::obs::noop(),
    };
    let (flow, flow_ms) = timed(cfg.reps, || run_rw_flow(&design, &device, &flow_cfg));

    FlowBenchReport {
        schema: 1,
        design: "cnvW1A1".to_string(),
        device: "xc7z020".to_string(),
        seed: cfg.seed,
        modules: prepped.len() as u64,
        sweep_engine,
        prescreened,
        prescreen_ratio: prescreened as f64 / (total_attempts as f64).max(1.0),
        flow_engine: FlowSide {
            wall_ms: flow_ms,
            implemented: flow.implemented.len() as u64,
            failed: flow.failed.len() as u64,
            tool_runs: u64::from(flow.total_tool_runs),
        },
    }
}

impl Snapshot for FlowBenchReport {
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
        gate.require(
            self.sweep_engine.labelled >= old.sweep_engine.labelled,
            || {
                format!(
                    "sweep labelled fewer modules: {} vs snapshot {}",
                    self.sweep_engine.labelled, old.sweep_engine.labelled
                )
            },
        );
        gate.no_higher(
            "sweep attempt count",
            self.sweep_engine.tool_runs as f64,
            old.sweep_engine.tool_runs as f64,
        );
        gate.no_lower("prescreen ratio", self.prescreen_ratio, old.prescreen_ratio);
        gate.require(
            self.flow_engine.implemented >= old.flow_engine.implemented,
            || {
                format!(
                    "flow implemented fewer modules: {} vs snapshot {}",
                    self.flow_engine.implemented, old.flow_engine.implemented
                )
            },
        );
        gate.no_higher(
            "flow tool-run count",
            self.flow_engine.tool_runs as f64,
            old.flow_engine.tool_runs as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    #[test]
    fn report_roundtrips_through_json_and_passes_its_own_gate() {
        let report = run_flow_bench(&FlowBenchConfig::quick(1));
        assert_eq!(report.modules, 74);
        assert!(report.sweep_engine.wall_ms > 0.0);
        assert!(report.prescreened > 0);
        assert!(report.prescreen_ratio > 0.0 && report.prescreen_ratio <= 1.0);
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: FlowBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.seed, report.seed);
        assert_eq!(back.sweep_engine.tool_runs, report.sweep_engine.tool_runs);
        assert!(check(&report, &report, 0.2).is_empty());

        // Regressions are flagged; wall-clock alone is never gated.
        let mut bad = report.clone();
        bad.sweep_engine.tool_runs = report.sweep_engine.tool_runs * 2;
        bad.prescreen_ratio = report.prescreen_ratio / 2.0;
        bad.flow_engine.implemented = report.flow_engine.implemented.saturating_sub(1);
        let violations = check(&report, &bad, 0.2);
        assert_eq!(violations.len(), 3, "{violations:?}");
        let mut slow = report.clone();
        slow.sweep_engine.wall_ms *= 10.0;
        slow.flow_engine.wall_ms *= 10.0;
        assert!(check(&report, &slow, 0.2).is_empty());

        // Schema bumps short-circuit.
        let mut newer = report.clone();
        newer.schema += 1;
        let violations = check(&report, &newer, 0.2);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("schema"));
    }
}
