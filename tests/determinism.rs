//! Reproducibility: every stochastic stage is keyed by explicit seeds, so
//! identical inputs must give bit-identical results across runs — and
//! different seeds must actually change the stochastic choices.

use tailored_macro_sizes::cnn::cnvw1a1;
use tailored_macro_sizes::device::Device;
use tailored_macro_sizes::estimator::{build_dataset, LabelConfig};
use tailored_macro_sizes::flow::{run_rw_flow, CfPolicy, RwFlowConfig};
use tailored_macro_sizes::pblock::CfSearch;
use tailored_macro_sizes::place::PlacementModel;
use tailored_macro_sizes::rtlgen::{standard_sweep, SweepConfig};
use tailored_macro_sizes::stitch::StitchConfig;

fn run_flow(seed: u64) -> (Vec<Option<(u32, u32)>>, f64, u32) {
    let design = cnvw1a1(1);
    let dev = Device::xc7z045();
    let r = run_rw_flow(
        &design,
        &dev,
        &RwFlowConfig {
            policy: CfPolicy::Minimal(CfSearch::wide()),
            use_shape_report: true,
            model: PlacementModel::default(),
            stitch: StitchConfig::fast(seed),
            portfolio: None,
            mem_pack: tailored_macro_sizes::pack::MemPackConfig::off(),
            obs: tailored_macro_sizes::obs::noop(),
            seed,
        },
    );
    (r.stitch.positions, r.stitch.final_cost, r.total_tool_runs)
}

#[test]
fn whole_flow_is_bit_reproducible() {
    let a = run_flow(7);
    let b = run_flow(7);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
    assert_eq!(a.2, b.2);
}

#[test]
fn different_seeds_change_the_anneal() {
    let a = run_flow(7);
    let b = run_flow(8);
    assert_ne!(a.0, b.0, "different SA seeds should explore differently");
}

#[test]
fn labelling_is_reproducible_across_runs() {
    let dev = Device::xc7z020();
    let modules = standard_sweep(
        &SweepConfig {
            target_modules: 60,
            max_luts: 1_000,
            min_luts: 2,
        },
        5,
    );
    let a = build_dataset(&modules, &dev, &LabelConfig::default());
    let b = build_dataset(&modules, &dev, &LabelConfig::default());
    let cfs = |v: &[tailored_macro_sizes::estimator::LabelledModule]| -> Vec<f64> {
        v.iter().map(|m| m.min_cf).collect()
    };
    assert_eq!(cfs(&a), cfs(&b));
}

#[test]
fn design_generation_is_seed_stable() {
    let a = cnvw1a1(123);
    let b = cnvw1a1(123);
    for (ma, mb) in a.modules.iter().zip(&b.modules) {
        assert_eq!(ma.name, mb.name);
        assert_eq!(ma.netlist.stats(), mb.netlist.stats());
    }
    assert_eq!(a.nets.len(), b.nets.len());
}

/// FNV-1a digest of everything a stitch run decides: anchors, the final
/// cost bits, the move accounting and the unplaced list.
fn stitch_digest(r: &tailored_macro_sizes::stitch::StitchResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for p in &r.positions {
        match p {
            Some((x, y)) => eat((1 << 40) | (u64::from(*x) << 20) | u64::from(*y)),
            None => eat(0),
        }
    }
    eat(r.final_cost.to_bits());
    for v in [
        r.total_moves,
        r.illegal_moves,
        r.accepted_moves,
        r.rejected_moves,
    ] {
        eat(v);
    }
    for &u in &r.unplaced {
        eat(u64::from(u));
    }
    h
}

/// Golden digests of the stitchers on the cnvW1A1 benchmark problem
/// (seed 1), recorded before the occupancy grid became per-row bitsets:
/// any change to the grid, the insertion scan or its no-fit memo must
/// leave every decision bit-identical. On the xc7z020 the canonical
/// portfolio leaves most blocks unplaced, so the repair path runs.
#[test]
fn stitch_kernels_match_their_golden_digests() {
    use tailored_macro_sizes::stitch::{stitch, stitch_portfolio};
    use tms_bench::stitchbench::{bench_problem, StitchBenchConfig};

    let portfolio = StitchBenchConfig::canonical(1).portfolio;
    let mut got = Vec::new();
    for dev in [Device::xc7z020(), Device::xc7z045()] {
        let problem = bench_problem(&dev, 1);
        let (p, _) = stitch_portfolio(&dev, &problem, &portfolio);
        let s = stitch(&dev, &problem, &StitchConfig::standard(1));
        got.push((stitch_digest(&p), stitch_digest(&s)));
    }
    // (portfolio, single-run SA) per device, as `{:#018x}`.
    let want = [
        (0x14aa_1cc5_4127_8d29, 0x31a7_7f6d_0e59_1d28),
        (0x866c_e788_dd84_48a7, 0x6b5d_6a82_d3ba_78a4),
    ];
    assert_eq!(got, want, "a stitch decision changed (xc7z020, xc7z045)");
}
