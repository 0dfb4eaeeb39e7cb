//! The packing phase: policy, portfolio search, netlist regeneration,
//! and telemetry.
//!
//! [`pack_design`] runs *before* PBlock sizing. Under
//! [`MemPackPolicy::Packed`] it searches bin assignments with the
//! `tms-search` portfolio and regenerates every weight-store netlist to
//! reflect its assignment: banks on BRAM become RAMB36 primitives (and the
//! module sheds its LUT-ROM fabric), banks in LUTRAM become distributed-RAM
//! LUTs. The downstream minimal-CF search then sees the shrunken memory
//! demand — a module packed entirely into LUTRAM no longer forces its
//! PBlock onto a BRAM column at RAMB36 row alignment.
//! [`MemPackPolicy::Naive`] is the all-BRAM36 baseline the A/B compares
//! against, and [`MemPackPolicy::Off`] leaves the seed design untouched.

use crate::problem::{module_lutram, module_sites36, MemBudget, PackProblem, PackSolution};
use tms_cnn::CnvDesign;
use tms_device::Device;
use tms_obs::{span, Phase, Recorder};
use tms_rtlgen::{Generator, MixedParams};
use tms_search::{run_portfolio, LaneKind, PortfolioConfig, PortfolioOutcome};

/// How the flow treats weight memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemPackPolicy {
    /// No packing: the seed netlists (LUT-ROM weight stores) are used as-is.
    #[default]
    Off,
    /// Every bank on full RAMB36 sites, aspect-optimised but with no half
    /// pairing and no LUTRAM — the baseline packing reports compare against.
    Naive,
    /// Portfolio-searched mix of BRAM36 / BRAM18-half / LUTRAM bins.
    Packed,
}

impl MemPackPolicy {
    /// Parse a policy name (`off` / `naive` / `packed`).
    pub fn parse(s: &str) -> Option<MemPackPolicy> {
        match s {
            "off" => Some(MemPackPolicy::Off),
            "naive" => Some(MemPackPolicy::Naive),
            "packed" => Some(MemPackPolicy::Packed),
            _ => None,
        }
    }

    /// The policy's canonical name.
    pub fn label(&self) -> &'static str {
        match self {
            MemPackPolicy::Off => "off",
            MemPackPolicy::Naive => "naive",
            MemPackPolicy::Packed => "packed",
        }
    }
}

/// Configuration of the packing phase.
#[derive(Debug, Clone, PartialEq)]
pub struct MemPackConfig {
    /// Policy: off (default), naive baseline, or portfolio-packed.
    pub policy: MemPackPolicy,
    /// Seed: drives both the portfolio lanes and netlist regeneration.
    pub seed: u64,
    /// Portfolio exchange rounds.
    pub rounds: u32,
    /// Per-lane move budget per round.
    pub moves_per_round: u64,
    /// Worker threads for the portfolio (`0` = one per core). Wall-clock
    /// only — results are bit-identical for every value.
    pub threads: usize,
}

impl MemPackConfig {
    /// Packing disabled (the seed flow).
    pub fn off() -> MemPackConfig {
        MemPackConfig::new(MemPackPolicy::Off, 0)
    }

    /// A policy with the default search budget. The packing space is
    /// small (tens of modules × 3 bin kinds), so the default is far
    /// lighter than the stitch portfolio: 12 rounds × 2048 moves/lane.
    pub fn new(policy: MemPackPolicy, seed: u64) -> MemPackConfig {
        MemPackConfig {
            policy,
            seed,
            rounds: 12,
            moves_per_round: 2_048,
            threads: 0,
        }
    }

    /// The portfolio configuration the packed policy searches with.
    pub fn portfolio(&self) -> PortfolioConfig {
        PortfolioConfig {
            rounds: self.rounds,
            moves_per_round: self.moves_per_round,
            threads: self.threads,
            ..PortfolioConfig::new(self.seed)
        }
    }
}

/// One module's final bin assignment.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ModuleAssignment {
    /// Module name.
    pub name: String,
    /// Instance count the physical quantities multiply by.
    pub instances: u32,
    /// The bank split the search chose.
    pub split: crate::problem::BankSplit,
    /// RAMB36 sites per instance under that split.
    pub sites36: u32,
    /// LUTRAM LUTs per instance under that split.
    pub lutram_luts: u32,
}

/// Portfolio accounting of a packed run.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PackSearchStats {
    /// Exchange rounds actually run.
    pub rounds: u32,
    /// Total moves across all lanes.
    pub moves: u64,
    /// Global-best adoptions across all lanes.
    pub adoptions: u64,
    /// Kind of the winning lane (`sa` / `ea`).
    pub winner: String,
    /// Rounds in which an SA lane held the global best.
    pub sa_wins: u32,
    /// Rounds in which the EA lane held the global best.
    pub ea_wins: u32,
    /// Cost of the best solution found.
    pub best_cost: f64,
    /// Search wall-clock in milliseconds (machine-dependent; never gated).
    pub wall_ms: f64,
}

/// Result of the packing phase.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct PackReport {
    /// The policy that produced the assignment (`naive` / `packed`).
    pub policy: String,
    /// Per-module assignments, in module order.
    pub modules: Vec<ModuleAssignment>,
    /// Instance-weighted RAMB36 sites under the all-BRAM36 baseline.
    pub naive_bram36: u64,
    /// Instance-weighted RAMB36 sites under the chosen assignment.
    pub bram36_total: u64,
    /// Sites saved against the baseline (`naive - chosen`).
    pub bram36_saved: u64,
    /// Instance-weighted LUTRAM LUTs under the chosen assignment.
    pub lutram_luts: u64,
    /// Instance-weighted banks on full RAMB36 sites.
    pub banks_bram36: u64,
    /// Instance-weighted banks on RAMB18 halves.
    pub banks_bram18: u64,
    /// Instance-weighted banks in LUTRAM.
    pub banks_lutram: u64,
    /// RAMB36 budget the device offered.
    pub budget_bram36: u32,
    /// Whether the assignment fits the device budget.
    pub feasible: bool,
    /// Model cost of the assignment.
    pub cost: f64,
    /// Portfolio stats (`None` under the naive policy).
    pub search: Option<PackSearchStats>,
}

/// Run the packing phase on `design` for `device`.
///
/// Returns `None` when the policy is [`MemPackPolicy::Off`] or the design
/// has no packable memories — the caller keeps the original design.
/// Otherwise returns the regenerated design plus the report, recording
/// `pack.*` telemetry and a `Pack`-phase `mempack` span through `obs`.
pub fn pack_design(
    design: &CnvDesign,
    device: &Device,
    cfg: &MemPackConfig,
    obs: &dyn Recorder,
) -> Option<(CnvDesign, PackReport)> {
    if cfg.policy == MemPackPolicy::Off {
        return None;
    }
    let problem = PackProblem::new(design, MemBudget::for_device(device));
    if problem.memories().is_empty() {
        return None;
    }
    let mut sp = span(obs, Phase::MemPack, "mempack");
    let naive = problem.naive_solution();
    let (solution, search) = match cfg.policy {
        MemPackPolicy::Off => unreachable!("handled above"),
        MemPackPolicy::Naive => (naive.clone(), None),
        MemPackPolicy::Packed => {
            let out = run_portfolio(&problem, &cfg.portfolio());
            let stats = search_stats(&out);
            // The lanes all start from one seeded scatter; if that run
            // somehow ends above the baseline, fall back to it so packed
            // is never worse than naive.
            if problem.cost(&naive) < out.best_score.cost {
                (naive.clone(), Some(stats))
            } else {
                (out.best, Some(stats))
            }
        }
    };
    let report = build_report(&problem, &naive, &solution, cfg.policy, search);
    observe_pack(&report, obs);
    sp.field("modules", report.modules.len() as f64);
    sp.field("bram36_saved", report.bram36_saved as f64);
    sp.field("cost", report.cost);
    let packed = apply_packing(design, &problem, &solution, cfg.seed);
    Some((packed, report))
}

fn search_stats<S>(out: &PortfolioOutcome<S>) -> PackSearchStats {
    let wins = |kind: LaneKind| -> u32 {
        out.lanes
            .iter()
            .filter(|l| l.kind == kind)
            .map(|l| l.wins)
            .sum()
    };
    PackSearchStats {
        rounds: out.rounds_run,
        moves: out.total_moves,
        adoptions: out.adoptions,
        winner: out.lanes[out.winner].kind.label().to_string(),
        sa_wins: wins(LaneKind::Sa),
        ea_wins: wins(LaneKind::Ea),
        best_cost: out.best_score.cost,
        wall_ms: out.wall.as_secs_f64() * 1e3,
    }
}

fn build_report(
    problem: &PackProblem,
    naive: &PackSolution,
    solution: &PackSolution,
    policy: MemPackPolicy,
    search: Option<PackSearchStats>,
) -> PackReport {
    let mut banks = [0u64; 3];
    let modules: Vec<ModuleAssignment> = problem
        .memories()
        .iter()
        .zip(&solution.splits)
        .map(|(m, split)| {
            let inst = u64::from(m.instances);
            banks[0] += inst * u64::from(split.full36);
            banks[1] += inst * u64::from(split.halves);
            banks[2] += inst * u64::from(split.lutram);
            ModuleAssignment {
                name: m.name.clone(),
                instances: m.instances,
                split: *split,
                sites36: module_sites36(m, split),
                lutram_luts: module_lutram(m, split),
            }
        })
        .collect();
    PackReport {
        policy: policy.label().to_string(),
        modules,
        naive_bram36: naive.bram36_total(),
        bram36_total: solution.bram36_total(),
        bram36_saved: naive.bram36_total().saturating_sub(solution.bram36_total()),
        lutram_luts: solution.lutram_total(),
        banks_bram36: banks[0],
        banks_bram18: banks[1],
        banks_lutram: banks[2],
        budget_bram36: problem.budget().bram36,
        feasible: problem.fits_budget(solution),
        cost: problem.cost(solution),
        search,
    }
}

/// Record a report's `pack.*` counters through `obs`. Called by
/// [`pack_design`]; exposed so cache-replay paths can re-book a stored
/// report against a fresh sink.
pub fn observe_pack(report: &PackReport, obs: &dyn Recorder) {
    obs.count("pack.runs", 1);
    obs.count("pack.modules", report.modules.len() as u64);
    obs.count("pack.bram36_saved", report.bram36_saved);
    obs.count("pack.bins.bram36", report.banks_bram36);
    obs.count("pack.bins.bram18_half", report.banks_bram18);
    obs.count("pack.bins.lutram", report.banks_lutram);
    if !report.feasible {
        obs.count("pack.infeasible", 1);
    }
    if let Some(s) = &report.search {
        obs.count("pack.search.rounds", u64::from(s.rounds));
        obs.count("pack.search.moves", s.moves);
        obs.count("pack.search.adoptions", s.adoptions);
        obs.count("pack.lane.wins.sa", u64::from(s.sa_wins));
        obs.count("pack.lane.wins.ea", u64::from(s.ea_wins));
        obs.count(
            if s.winner == "sa" {
                "pack.win.sa"
            } else {
                "pack.win.ea"
            },
            1,
        );
        obs.observe("pack.best_cost", s.best_cost);
    }
}

/// Regenerate the weight-store netlists of `design` to reflect
/// `solution`: BRAM banks become RAMB36 primitives, LUTRAM banks become
/// distributed-RAM LUTs, and the LUT-ROM fabric of the seed recipe is
/// replaced by a small addressing/control skeleton. Non-weight modules
/// are untouched. Deterministic in `seed`.
pub fn apply_packing(
    design: &CnvDesign,
    problem: &PackProblem,
    solution: &PackSolution,
    seed: u64,
) -> CnvDesign {
    let mut out = design.clone();
    for (m, split) in problem.memories().iter().zip(&solution.splits) {
        let params = MixedParams {
            // Address decode and bank-select control.
            luts: 8 + 4 * m.banks,
            // Double-buffered output registers per bank word.
            ffs: (m.width * m.banks * 2).max(16),
            control_sets: 1,
            carry_chains: (0, 0),
            lutrams: module_lutram(m, split),
            srls: 0,
            brams: module_sites36(m, split),
            dsps: 0,
            depth: 4,
        };
        let module = &mut out.modules[m.module_idx];
        module.netlist = params
            .generate(seed ^ ((m.module_idx as u64) << 8))
            .with_name(format!("{}_packed", m.name));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tms_cnn::{cnvw1a1, zoo, ModuleRole};
    use tms_obs::AggregatingSink;
    use tms_synth::pack as synth_pack;

    fn quick(policy: MemPackPolicy, seed: u64) -> MemPackConfig {
        MemPackConfig {
            rounds: 6,
            moves_per_round: 1_024,
            ..MemPackConfig::new(policy, seed)
        }
    }

    #[test]
    fn off_policy_packs_nothing() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        assert!(pack_design(&d, &dev, &MemPackConfig::off(), tms_obs::noop()).is_none());
    }

    #[test]
    fn packed_beats_naive_on_bram_demand() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (_, report) =
            pack_design(&d, &dev, &quick(MemPackPolicy::Packed, 1), tms_obs::noop()).unwrap();
        assert!(report.feasible, "packed must fit the budget");
        assert!(
            report.bram36_saved > 0,
            "packed {} vs naive {}",
            report.bram36_total,
            report.naive_bram36
        );
        // The win has to be substantial, not incidental: at least a third
        // of the naive demand comes back.
        assert!(
            report.bram36_saved * 3 >= report.naive_bram36,
            "saved only {} of {}",
            report.bram36_saved,
            report.naive_bram36
        );
        assert_eq!(
            report.banks_bram36 + report.banks_bram18 + report.banks_lutram,
            66 * 2,
            "every instance-weighted bank is assigned somewhere"
        );
    }

    #[test]
    fn naive_policy_reports_zero_savings() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (_, report) =
            pack_design(&d, &dev, &quick(MemPackPolicy::Naive, 1), tms_obs::noop()).unwrap();
        assert_eq!(report.bram36_saved, 0);
        assert_eq!(report.bram36_total, report.naive_bram36);
        assert_eq!(report.banks_bram18 + report.banks_lutram, 0);
        assert!(report.search.is_none());
    }

    #[test]
    fn regenerated_netlists_reflect_the_assignment() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (packed, report) =
            pack_design(&d, &dev, &quick(MemPackPolicy::Packed, 1), tms_obs::noop()).unwrap();
        // Non-weight modules are bit-identical to the input design.
        for (a, b) in d.modules.iter().zip(&packed.modules) {
            if a.role != ModuleRole::Weights {
                assert_eq!(a.netlist.stats(), b.netlist.stats(), "{}", a.name);
            }
        }
        // Weight modules carry exactly the assigned memory primitives.
        for assign in &report.modules {
            let m = packed.find_module(&assign.name).unwrap();
            let stats = m.netlist.stats();
            assert_eq!(stats.counts.bram36, assign.sites36, "{}", assign.name);
            assert_eq!(
                stats.counts.lutram_luts, assign.lutram_luts,
                "{}",
                assign.name
            );
        }
        // The flow-facing consequence: regenerated BRAM demand equals the
        // report's instance-weighted total.
        let demand: u64 = packed
            .modules
            .iter()
            .map(|m| {
                u64::from(synth_pack(&m.netlist.stats()).demand.bram36) * u64::from(m.instances)
            })
            .sum();
        assert_eq!(demand, report.bram36_total);
    }

    #[test]
    fn deep_stores_stay_in_bram() {
        // weights_14 (depth 5200) cannot go to LUTRAM; the search must
        // keep it on block RAM in some form.
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let (_, report) =
            pack_design(&d, &dev, &quick(MemPackPolicy::Packed, 1), tms_obs::noop()).unwrap();
        let w14 = report
            .modules
            .iter()
            .find(|m| m.name == "weights_14")
            .unwrap();
        assert_eq!(w14.split.lutram, 0);
        assert!(w14.sites36 > 0);
    }

    #[test]
    fn packing_is_deterministic_and_thread_invariant() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let run = |threads: usize| {
            let cfg = MemPackConfig {
                threads,
                ..quick(MemPackPolicy::Packed, 7)
            };
            pack_design(&d, &dev, &cfg, tms_obs::noop()).unwrap()
        };
        let (da, ra) = run(1);
        let (db, rb) = run(8);
        assert_eq!(ra.bram36_total, rb.bram36_total);
        assert_eq!(ra.cost, rb.cost);
        for (ma, mb) in ra.modules.iter().zip(&rb.modules) {
            assert_eq!(ma.split, mb.split, "{}", ma.name);
        }
        for (ma, mb) in da.modules.iter().zip(&db.modules) {
            assert_eq!(ma.netlist.stats(), mb.netlist.stats(), "{}", ma.name);
        }
    }

    #[test]
    fn telemetry_reconciles_with_the_report() {
        let d = cnvw1a1(1);
        let dev = Device::xc7z020();
        let sink = AggregatingSink::new();
        let (_, report) = pack_design(&d, &dev, &quick(MemPackPolicy::Packed, 1), &sink).unwrap();
        assert_eq!(sink.phase_spans(Phase::MemPack), 1);
        assert_eq!(
            sink.phase_spans(Phase::Pack),
            0,
            "slice packing is not this phase"
        );
        assert_eq!(sink.counter("pack.runs"), 1);
        assert_eq!(sink.counter("pack.bram36_saved"), report.bram36_saved);
        assert_eq!(sink.counter("pack.bins.bram36"), report.banks_bram36);
        assert_eq!(sink.counter("pack.bins.bram18_half"), report.banks_bram18);
        assert_eq!(sink.counter("pack.bins.lutram"), report.banks_lutram);
        let s = report.search.as_ref().unwrap();
        assert_eq!(sink.counter("pack.search.rounds"), u64::from(s.rounds));
        assert_eq!(sink.counter("pack.search.moves"), s.moves);
        assert_eq!(sink.counter("pack.win.sa") + sink.counter("pack.win.ea"), 1);
    }

    #[test]
    fn zoo_members_all_pack_feasibly() {
        let dev = Device::xc7z020();
        for (name, d) in zoo(1) {
            let (_, report) =
                pack_design(&d, &dev, &quick(MemPackPolicy::Packed, 1), tms_obs::noop()).unwrap();
            assert!(report.feasible, "{name} over budget");
            assert!(
                report.bram36_total <= report.naive_bram36,
                "{name}: packed worse than naive"
            );
        }
    }

    #[test]
    fn policy_parsing_roundtrips() {
        for p in [
            MemPackPolicy::Off,
            MemPackPolicy::Naive,
            MemPackPolicy::Packed,
        ] {
            assert_eq!(MemPackPolicy::parse(p.label()), Some(p));
        }
        assert_eq!(MemPackPolicy::parse("bogus"), None);
    }
}
