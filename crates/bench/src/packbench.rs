//! `packbench` — the memory-packing benchmark behind `bench_pack`.
//!
//! Two layers, mirroring what the packing phase claims to deliver:
//!
//! 1. **Footprint sweep** — every bench design (cnvW1A1 plus the zoo) on
//!    both device presets, naive all-BRAM36 versus the packed portfolio:
//!    instance-weighted BRAM36 demand, LUTRAM spill, and feasibility
//!    against the device budget.
//! 2. **Flow A/B** — the full minimal-CF flow on cnvW1A1/xc7z020 with
//!    packing on and off: stitched placement counts and the number of
//!    weights classes whose minimal PBlock shrank strictly.
//!
//! Every count in the report is a pure function of the seed; wall-clock
//! fields are machine-dependent and never gated by the report's
//! [`Snapshot`] gate.

use crate::gate::{Gate, Snapshot};
use tms_core::cnn::{cnvw1a1, zoo_design, zoo_names, CnvDesign};
use tms_core::device::Device;
use tms_core::flow::{run_rw_flow, CfPolicy, RwFlowConfig, RwFlowResult};
use tms_core::obs::noop;
use tms_core::pack::{pack_design, MemPackConfig, MemPackPolicy};
use tms_core::pblock::CfSearch;
use tms_core::place::PlacementModel;
use tms_core::stitch::StitchConfig;

/// Schema version of [`PackBenchReport`]; bump on any layout change so a
/// stale committed snapshot fails loudly instead of mis-comparing.
pub const PACK_BENCH_SCHEMA: u32 = 1;

/// Configuration of the packing benchmark.
#[derive(Debug, Clone)]
pub struct PackBenchConfig {
    /// Seed of every design generator, packing search, and flow.
    pub seed: u64,
    /// Portfolio exchange rounds per packed run.
    pub rounds: u32,
    /// Per-lane moves per round.
    pub moves_per_round: u64,
}

impl PackBenchConfig {
    /// CI-scale budget — what the committed `BENCH_pack.json` is made of.
    pub fn quick(seed: u64) -> Self {
        PackBenchConfig {
            seed,
            rounds: 6,
            moves_per_round: 1_024,
        }
    }

    /// The library-default packing budget.
    pub fn canonical(seed: u64) -> Self {
        PackBenchConfig {
            seed,
            rounds: 12,
            moves_per_round: 2_048,
        }
    }

    fn pack_cfg(&self, policy: MemPackPolicy) -> MemPackConfig {
        MemPackConfig {
            rounds: self.rounds,
            moves_per_round: self.moves_per_round,
            threads: 1,
            ..MemPackConfig::new(policy, self.seed)
        }
    }
}

/// One design/device point of the footprint sweep.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PackBenchRow {
    /// Design name (`cnvw1a1` or a zoo member).
    pub design: String,
    /// Device preset name.
    pub device: String,
    /// Weights modules the packer assigned.
    pub modules: u64,
    /// Instance-weighted BRAM36 sites under the naive all-BRAM36 policy.
    pub naive_bram36: u64,
    /// Instance-weighted BRAM36 sites under the packed policy.
    pub packed_bram36: u64,
    /// `naive_bram36 - packed_bram36`.
    pub bram36_saved: u64,
    /// RAMB36 sites the device offers.
    pub budget_bram36: u32,
    /// LUTRAM LUTs the packed policy spilled to the fabric.
    pub lutram_luts: u64,
    /// Whether the packed assignment fits the device budget.
    pub feasible: bool,
    /// Packing wall-clock in milliseconds (machine-dependent; not gated).
    pub wall_ms: f64,
}

/// The cnvW1A1/xc7z020 flow A/B: packing on versus the naive baseline.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PackFlowAb {
    /// Block instances the naive-policy stitch placed.
    pub naive_placed: u64,
    /// Block instances the packed-policy stitch placed.
    pub packed_placed: u64,
    /// Unplaced block instances under the naive policy.
    pub naive_unplaced: u64,
    /// Unplaced block instances under the packed policy.
    pub packed_unplaced: u64,
    /// Weights classes whose minimal PBlock area shrank strictly.
    pub smaller_pblocks: u64,
    /// Summed minimal PBlock area of the weights classes, naive policy.
    pub naive_weights_area: u64,
    /// Summed minimal PBlock area of the weights classes, packed policy.
    pub packed_weights_area: u64,
    /// Naive flow wall-clock in milliseconds (machine-dependent).
    pub naive_wall_ms: f64,
    /// Packed flow wall-clock in milliseconds (machine-dependent).
    pub packed_wall_ms: f64,
}

/// The full `bench_pack` report — serialised as `BENCH_pack.json`.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PackBenchReport {
    /// Snapshot schema version ([`PACK_BENCH_SCHEMA`]).
    pub schema: u32,
    /// Seed every row and the flow A/B derive from.
    pub seed: u64,
    /// The footprint sweep, in design-major order.
    pub rows: Vec<PackBenchRow>,
    /// Design of the flow A/B.
    pub flow_design: String,
    /// Device of the flow A/B.
    pub flow_device: String,
    /// The flow A/B itself.
    pub flow: PackFlowAb,
}

fn bench_designs(seed: u64) -> Vec<(String, CnvDesign)> {
    let mut designs = vec![("cnvw1a1".to_string(), cnvw1a1(seed))];
    for name in zoo_names() {
        designs.push((
            name.to_string(),
            zoo_design(name, seed).expect("zoo member"),
        ));
    }
    designs
}

fn bench_devices() -> Vec<Device> {
    vec![Device::xc7z020(), Device::ultrascale_like()]
}

fn flow_cfg<'a>(mem_pack: MemPackConfig, seed: u64) -> RwFlowConfig<'a> {
    RwFlowConfig {
        policy: CfPolicy::Minimal(CfSearch::wide()),
        use_shape_report: true,
        model: PlacementModel::deterministic(),
        stitch: StitchConfig::fast(seed),
        portfolio: None,
        mem_pack,
        seed,
        obs: noop(),
    }
}

fn weights_area(r: &RwFlowResult) -> u64 {
    r.implemented
        .iter()
        .filter(|m| m.name.starts_with("weights"))
        .map(|m| u64::from(m.pblock.rect.w) * u64::from(m.pblock.rect.h))
        .sum()
}

/// Run the packing benchmark: the footprint sweep over every design on
/// both devices, then the cnvW1A1/xc7z020 flow A/B.
pub fn run_pack_bench(cfg: &PackBenchConfig) -> PackBenchReport {
    let mut rows = Vec::new();
    for (name, design) in bench_designs(cfg.seed) {
        for device in bench_devices() {
            let started = std::time::Instant::now();
            let (_, report) = pack_design(
                &design,
                &device,
                &cfg.pack_cfg(MemPackPolicy::Packed),
                noop(),
            )
            .expect("bench designs all carry weight memories");
            rows.push(PackBenchRow {
                design: name.clone(),
                device: device.name().to_string(),
                modules: report.modules.len() as u64,
                naive_bram36: report.naive_bram36,
                packed_bram36: report.bram36_total,
                bram36_saved: report.bram36_saved,
                budget_bram36: report.budget_bram36,
                lutram_luts: report.lutram_luts,
                feasible: report.feasible,
                wall_ms: started.elapsed().as_secs_f64() * 1e3,
            });
        }
    }

    let design = cnvw1a1(cfg.seed);
    let device = Device::xc7z020();
    let run = |policy: MemPackPolicy| {
        let started = std::time::Instant::now();
        let r = run_rw_flow(&design, &device, &flow_cfg(cfg.pack_cfg(policy), cfg.seed));
        (r, started.elapsed().as_secs_f64() * 1e3)
    };
    let (naive, naive_wall_ms) = run(MemPackPolicy::Naive);
    let (packed, packed_wall_ms) = run(MemPackPolicy::Packed);
    let smaller_pblocks = naive
        .implemented
        .iter()
        .filter(|m| m.name.starts_with("weights"))
        .filter_map(|m| packed.module(&m.name).map(|p| (m, p)))
        .filter(|(n, p)| p.pblock.rect.w * p.pblock.rect.h < n.pblock.rect.w * n.pblock.rect.h)
        .count() as u64;

    PackBenchReport {
        schema: PACK_BENCH_SCHEMA,
        seed: cfg.seed,
        rows,
        flow_design: "cnvw1a1".to_string(),
        flow_device: device.name().to_string(),
        flow: PackFlowAb {
            naive_placed: naive.stitch.placed_count as u64,
            packed_placed: packed.stitch.placed_count as u64,
            naive_unplaced: naive.stitch.unplaced_count as u64,
            packed_unplaced: packed.stitch.unplaced_count as u64,
            smaller_pblocks,
            naive_weights_area: weights_area(&naive),
            packed_weights_area: weights_area(&packed),
            naive_wall_ms,
            packed_wall_ms,
        },
    }
}

/// Only machine-independent metrics are gated: the sweep shape and demand
/// model exactly, savings and placement within the tolerance, and
/// feasibility must not flip off. Wall-clock fields are never compared.
impl Snapshot for PackBenchReport {
    fn schema(&self) -> String {
        self.schema.to_string()
    }

    fn compare(&self, old: &Self, gate: &mut Gate) {
        let same_shape = self.rows.len() == old.rows.len();
        gate.require(same_shape, || {
            format!(
                "sweep shape changed: {} rows vs snapshot {}",
                self.rows.len(),
                old.rows.len()
            )
        });
        if !same_shape {
            return;
        }
        for (o, n) in old.rows.iter().zip(&self.rows) {
            let at = format!("{}/{}", n.design, n.device);
            let same_point = n.design == o.design && n.device == o.device;
            gate.require(same_point, || {
                format!(
                    "sweep order changed at {at}: snapshot has {}/{}",
                    o.design, o.device
                )
            });
            if !same_point {
                continue;
            }
            gate.require(
                n.modules == o.modules && n.naive_bram36 == o.naive_bram36,
                || {
                    format!(
                        "{at}: demand model drifted (modules {} vs {}, naive BRAM36 {} vs {}) — \
                         regenerate the snapshot",
                        n.modules, o.modules, n.naive_bram36, o.naive_bram36
                    )
                },
            );
            gate.require(!o.feasible || n.feasible, || {
                format!("{at}: packed assignment no longer fits the device")
            });
            gate.no_higher(
                &format!("{at}: packed BRAM36 demand"),
                n.packed_bram36 as f64,
                o.packed_bram36 as f64,
            );
            gate.no_lower(
                &format!("{at}: BRAM36 savings"),
                n.bram36_saved as f64,
                o.bram36_saved as f64,
            );
        }
        gate.require(self.flow.packed_placed >= self.flow.naive_placed, || {
            format!(
                "packed flow places fewer blocks than naive: {} vs {}",
                self.flow.packed_placed, self.flow.naive_placed
            )
        });
        gate.no_lower(
            "packed flow placement",
            self.flow.packed_placed as f64,
            old.flow.packed_placed as f64,
        );
        gate.require(
            self.flow.smaller_pblocks >= old.flow.smaller_pblocks,
            || {
                format!(
                    "fewer weights classes shrank their minimal PBlock: {} vs snapshot {}",
                    self.flow.smaller_pblocks, old.flow.smaller_pblocks
                )
            },
        );
        gate.no_higher(
            "packed weights PBlock area",
            self.flow.packed_weights_area as f64,
            old.flow.packed_weights_area as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::check;

    #[test]
    fn quick_bench_is_deterministic_and_self_consistent() {
        let a = run_pack_bench(&PackBenchConfig::quick(1));
        assert_eq!(a.schema, PACK_BENCH_SCHEMA);
        // cnvW1A1 + 4 zoo members, each on both device presets.
        assert_eq!(a.rows.len(), 10);
        for row in &a.rows {
            assert!(row.feasible, "{}/{} over budget", row.design, row.device);
            assert_eq!(row.bram36_saved, row.naive_bram36 - row.packed_bram36);
            assert!(
                row.bram36_saved > 0,
                "{}/{} saved nothing",
                row.design,
                row.device
            );
        }
        assert!(a.flow.packed_placed > a.flow.naive_placed);
        assert!(a.flow.smaller_pblocks > 0);
        // Same seed, same counts — the regression gate relies on it.
        let b = run_pack_bench(&PackBenchConfig::quick(1));
        assert!(check(&a, &b, 0.0).is_empty());
    }

    #[test]
    fn regression_check_flags_real_regressions_only() {
        let base = run_pack_bench(&PackBenchConfig::quick(1));
        let mut worse = base.clone();
        worse.rows[0].packed_bram36 = base.rows[0].packed_bram36 * 2;
        worse.rows[0].bram36_saved = 0;
        worse.flow.packed_placed = base.flow.naive_placed.saturating_sub(1);
        worse.flow.smaller_pblocks = 0;
        let violations = check(&base, &worse, 0.2);
        assert!(violations.len() >= 4, "violations: {violations:?}");
        // Schema drift short-circuits with a regenerate hint.
        let mut drifted = base.clone();
        drifted.schema += 1;
        let v = check(&base, &drifted, 0.2);
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("regenerate"));
    }
}
