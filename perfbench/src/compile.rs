//! `compile-dense`: library batch compilation on the dense xc7z020.
//!
//! Set-up trains the random-forest CF estimator on the labelling sweep, as
//! `tms compile` does. The timed part compiles a fixed design list —
//! cnvW1A1 at several design seeds plus the four zoo members — through the
//! guided CF policy, the default search-portfolio stitch and the router,
//! in whole passes until the run time is used up.

use crate::loadgen::SplitMix64;
use crate::report::{LayerRow, Report};
use crate::stats::{sorted, tail, Ratio};
use crate::timing::{median, ms, Busy};
use crate::Args;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_core::cnn::{cnvw1a1, zoo_design, zoo_names, CnvDesign};
use tms_core::device::Device;
use tms_core::flow::{
    implement_module, run_rw_flow, stitch_implemented, CfPolicy, MemPackConfig, RwFlowConfig,
};
use tms_core::obs::AggregatingSink;
use tms_core::place::{quick_place, PlacementModel};
use tms_core::route::{route_stitched, RouteReport, RouterConfig};
use tms_core::search::PortfolioConfig;
use tms_core::stitch::StitchConfig;
use tms_core::synth::pack;
use tms_core::{MacroSizingFlow, TrainedEstimator};

/// cnvW1A1 design seeds in the list (the zoo adds four designs). Odd, so
/// the p50 is one design's median rather than a boundary between two.
pub const CNV_SEEDS: usize = 5;
/// Latency limit of one cnvW1A1 compile (build → route): just above the
/// median design. On a 2-vCPU host the five designs' per-pass medians are
/// about 0.40, 0.70, 0.77, 1.40 and 1.52 s, so three of five meet it and
/// `slo_met_frac` drops once the middle design slows by about 15%.
pub const DESIGN_LIMIT_MS: f64 = 900.0;
/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 11;
/// Labelling sweep size: the `tms compile` default.
pub const DATASET: usize = 600;
/// Estimator training seed: the `tms` CLI default.
pub const TRAIN_SEED: u64 = 2024;

/// Note of a probe row: a separate call that re-times work
/// `implement_module` also does internally.
const PROBE: &str = "probe; implement_module repeats this inside";

/// One entry of the design list.
#[derive(Debug, Clone)]
struct Entry {
    label: String,
    zoo: Option<&'static str>,
    /// Design generator seed, also the flow seed (placer jitter and the
    /// stitch portfolio).
    seed: u64,
}

/// The fixed design list — cnvW1A1 at design seeds `1..=CNV_SEEDS` and
/// the zoo at design seed 1, each flowed with its design seed — in an
/// order shuffled by `seed`.
///
/// The designs and flow seeds are fixed on purpose: the portfolio stops
/// after three idle rounds, so one cnvW1A1 compile takes anywhere from
/// 0.33 to 1.8 s depending on its flow seed, and a seed-dependent list
/// would measure which seeds were drawn rather than the code.
fn design_list(seed: u64) -> Vec<Entry> {
    let cnv = (1..=CNV_SEEDS as u64).map(|s| (format!("cnvW1A1#{s}"), None, s));
    let zoo = zoo_names()
        .into_iter()
        .map(|name| (format!("{name}#1"), Some(name), 1));
    let mut list: Vec<Entry> = cnv
        .chain(zoo)
        .map(|(label, zoo, seed)| Entry { label, zoo, seed })
        .collect();
    let mut rng = SplitMix64::new(seed, 10);
    for i in (1..list.len()).rev() {
        list.swap(i, rng.below(i as u64 + 1) as usize);
    }
    list
}

fn build(e: &Entry) -> CnvDesign {
    match e.zoo {
        None => cnvw1a1(e.seed),
        Some(name) => zoo_design(name, e.seed).expect("zoo member exists"),
    }
}

/// One implemented module as the checks compare it: name, CF, PBlock
/// rectangle `(x, y, w, h)`, attempts and first-try flag.
type ModuleRow = (String, f64, (u32, u32, u32, u32), u32, bool);

/// Everything a compile produces that the checks compare.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    failed: usize,
    modules: Vec<ModuleRow>,
    positions: Vec<Option<(u32, u32)>>,
    final_cost: f64,
    placed: usize,
    instances: usize,
    tool_runs: u32,
    moves: u64,
    illegal: u64,
    fully_routed: bool,
    wirelength: u64,
    route_iterations: u32,
    overflow: usize,
}

fn outcome(r: &tms_core::flow::RwFlowResult, route: &RouteReport) -> Outcome {
    Outcome {
        failed: r.failed.len(),
        modules: r
            .implemented
            .iter()
            .map(|m| {
                let rc = &m.pblock.rect;
                (
                    m.name.clone(),
                    m.cf,
                    (rc.x, rc.y, rc.w, rc.h),
                    m.attempts,
                    m.first_try,
                )
            })
            .collect(),
        positions: r.stitch.positions.clone(),
        final_cost: r.stitch.final_cost,
        placed: r.stitch.placed_count,
        instances: r.problem.instances.len(),
        tool_runs: r.total_tool_runs,
        moves: r.stitch.total_moves,
        illegal: r.stitch.illegal_moves,
        fully_routed: route.fully_routed,
        wirelength: route.total_wirelength,
        route_iterations: route.iterations,
        overflow: route.overflowed_cells,
    }
}

fn flow_config<'a>(predict: &'a (dyn Fn(&str) -> f64 + Sync), seed: u64) -> RwFlowConfig<'a> {
    RwFlowConfig {
        policy: CfPolicy::Guided {
            predict,
            max_cf: 3.0,
        },
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch: StitchConfig::standard(seed),
        portfolio: Some(PortfolioConfig::new(seed)),
        mem_pack: MemPackConfig::off(),
        seed,
        obs: tms_core::obs::noop(),
    }
}

fn predictions(design: &CnvDesign, trained: &TrainedEstimator) -> HashMap<String, f64> {
    design
        .modules
        .iter()
        .map(|m| (m.name.clone(), trained.predict(&m.netlist)))
        .collect()
}

/// The untraced pipeline: build, predict, `run_rw_flow`, route.
fn compile(e: &Entry, dev: &Device, trained: &TrainedEstimator) -> Outcome {
    let design = build(e);
    let preds = predictions(&design, trained);
    let predict = move |name: &str| preds.get(name).copied().unwrap_or(1.0);
    let cfg = flow_config(&predict, e.seed);
    let r = run_rw_flow(&design, dev, &cfg);
    let route = route_stitched(dev, &r.problem, &r.stitch, &RouterConfig::default());
    outcome(&r, &route)
}

/// The same pipeline split into its public calls, each timed into `busy`.
/// Returns the outcome and the slowest module's implementation time.
fn compile_traced(
    e: &Entry,
    dev: &Device,
    trained: &TrainedEstimator,
    busy: &mut Busy,
) -> (Outcome, Duration) {
    let design = busy.time("cnn.build", || build(e));
    let mut preds = HashMap::new();
    for m in &design.modules {
        let cf = busy.time("estimator.predict", || trained.predict(&m.netlist));
        preds.insert(m.name.clone(), cf);
    }
    let predict = move |name: &str| preds.get(name).copied().unwrap_or(1.0);
    let cfg = flow_config(&predict, e.seed);
    let packed = busy.time("mempack", || {
        tms_core::pack::pack_design(&design, dev, &cfg.mem_pack, cfg.obs)
    });
    assert!(packed.is_none(), "weight packing is off in compile-dense");
    let mut per_module = Vec::with_capacity(design.modules.len());
    let mut slowest = Duration::ZERO;
    for (idx, m) in design.modules.iter().enumerate() {
        let stats = busy.time("netlist.stats", || m.netlist.stats());
        busy.time("synth.quick", || quick_place(&stats, &pack(&stats)));
        let start = Instant::now();
        let r = implement_module(&m.name, &m.netlist, dev, &cfg);
        let took = start.elapsed();
        busy.add("pblock", took);
        slowest = slowest.max(took);
        per_module.push((idx, r));
    }
    let r = busy.time("stitch", || {
        stitch_implemented(&design, dev, &cfg, per_module)
    });
    let route = busy.time("route", || {
        route_stitched(dev, &r.problem, &r.stitch, &RouterConfig::default())
    });
    (outcome(&r, &route), slowest)
}

fn train(dev: &Device) -> TrainedEstimator {
    MacroSizingFlow::new(dev.clone())
        .with_dataset_size(DATASET)
        .with_seed(TRAIN_SEED)
        .train()
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report) {
    let dev = Device::xc7z020();
    let mut setups = Vec::new();
    let mut trained = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        trained = Some(train(&dev));
        setups.push(start.elapsed().as_secs_f64());
    }
    let trained = trained.expect("at least one set-up");
    let setup_s = median(&setups);
    report.put("setup_s", setup_s, format!("median of {SETUPS} set-ups"));

    let list = design_list(args.seed);
    let mut first: Vec<Option<Outcome>> = vec![None; list.len()];
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); list.len()];
    let mut busy = Busy::default();
    let mut untraced_wall = Duration::ZERO;
    let mut traced_wall = Duration::ZERO;
    let mut slowest_sum = Duration::ZERO;
    let mut traced_designs = 0u64;
    let mut passes = 0;
    let mut pass_walls = Vec::new();
    let start = Instant::now();
    while passes == 0 || start.elapsed() < args.run {
        let pass_start = Instant::now();
        for (i, e) in list.iter().enumerate() {
            report.attempted += 1;
            let t = Instant::now();
            let out = compile(e, &dev, &trained);
            let took = t.elapsed();
            latencies[i].push(ms(took));
            untraced_wall += took;
            if out.failed > 0 || !out.fully_routed {
                report.failed += 1;
            }
            if args.trace {
                let t = Instant::now();
                let (traced, slowest) = compile_traced(e, &dev, &trained, &mut busy);
                traced_wall += t.elapsed();
                slowest_sum += slowest;
                traced_designs += 1;
                report.check(traced == out, || {
                    format!("{}: traced replay differs from run_rw_flow", e.label)
                });
            }
            match &first[i] {
                None => first[i] = Some(out),
                Some(f) => report.check(*f == out, || {
                    format!("{}: pass {passes} differs from pass 0", e.label)
                }),
            }
        }
        pass_walls.push(pass_start.elapsed().as_secs_f64());
        passes += 1;
    }
    let wall = start.elapsed();
    let outs: Vec<Outcome> = first.into_iter().flatten().collect();
    for (e, l) in list.iter().zip(&latencies) {
        let l: Vec<String> = l.iter().map(|v| format!("{v:.0}")).collect();
        eprintln!(
            "perfbench: {} compile ms per pass: {}",
            e.label,
            l.join(" ")
        );
    }

    if !args.trace {
        // The bit-identity check runs in every run, outside the timed part:
        // on one cnvW1A1 design and the zoo (the traced run checks all).
        let mut scratch = Busy::default();
        let checked = list
            .iter()
            .zip(&outs)
            .filter(|(e, _)| e.zoo.is_some() || e.seed == 1);
        for (e, out) in checked {
            let (traced, _) = compile_traced(e, &dev, &trained, &mut scratch);
            report.check(traced == *out, || {
                format!("{}: traced replay differs from run_rw_flow", e.label)
            });
        }
    }
    for (e, out) in list.iter().zip(&outs) {
        report.check(out.failed == 0, || {
            format!("{}: {} modules failed", e.label, out.failed)
        });
        report.check(out.fully_routed, || {
            format!("{}: not fully routed", e.label)
        });
    }

    let designs = report.attempted as f64;
    let sum = |f: &dyn Fn(&Outcome) -> f64| outs.iter().map(f).sum::<f64>();
    let n = outs.len() as f64;
    report.put(
        "designs_per_s",
        list.len() as f64 / median(&pass_walls),
        format!(
            "{} designs / median pass wall; {designs} designs in {:.2} s ({passes} passes)",
            list.len(),
            wall.as_secs_f64()
        ),
    );
    report.ratio(
        "placed_frac",
        Ratio {
            num: sum(&|o| o.placed as f64),
            den: sum(&|o| o.instances as f64),
        },
    );
    report.put(
        "tool_runs",
        sum(&|o| f64::from(o.tool_runs)) / n,
        format!(
            "per design; {} in total over {} designs",
            sum(&|o| f64::from(o.tool_runs)),
            n
        ),
    );
    // `flow.*` is the cnvW1A1 flow, as in the serve workloads. Every pass
    // repeats the same designs, so each design's latency is its median
    // over the passes; p50 and tail are taken over those per-design
    // medians (with fewer than 11 designs the tail is the slowest one).
    let lat = sorted(
        list.iter()
            .zip(&latencies)
            .filter(|(e, _)| e.zoo.is_none())
            .map(|(_, l)| median(l))
            .collect(),
    );
    report.p50("flow.p50_ms", &lat);
    report.tail("flow.tail_ms", tail(&lat));
    for m in report.metrics.iter_mut().rev().take(2) {
        m.note = format!("{} per-design medians over {passes} passes", m.note);
    }
    let cnv: Vec<f64> = list
        .iter()
        .zip(&latencies)
        .filter(|(e, _)| e.zoo.is_none())
        .flat_map(|(_, l)| l.iter().copied())
        .collect();
    report.ratio(
        "slo_met_frac",
        Ratio {
            num: cnv.iter().filter(|&&l| l <= DESIGN_LIMIT_MS).count() as f64,
            den: cnv.len() as f64,
        },
    );
    report.ratio(
        "failed_frac",
        Ratio {
            num: report.failed as f64,
            den: report.attempted as f64,
        },
    );
    report.put(
        "hpwl_per_placed",
        sum(&|o| o.final_cost) / sum(&|o| o.placed as f64),
        format!(
            "final stitch cost / placed, base {:.0}/{}",
            sum(&|o| o.final_cost),
            sum(&|o| o.placed as f64)
        ),
    );
    let modules: Vec<&ModuleRow> = outs.iter().flat_map(|o| &o.modules).collect();
    report.ratio(
        "first_try_rate",
        Ratio {
            num: modules.iter().filter(|m| m.4).count() as f64,
            den: modules.len() as f64,
        },
    );

    if args.trace {
        traced_layers(
            report,
            &dev,
            &busy,
            &outs,
            passes,
            traced_designs,
            traced_wall,
            untraced_wall,
            slowest_sum,
            &setups,
        );
    }
}

#[allow(clippy::too_many_arguments)]
fn traced_layers(
    report: &mut Report,
    dev: &Device,
    busy: &Busy,
    outs: &[Outcome],
    passes: usize,
    designs: u64,
    traced_wall: Duration,
    untraced_wall: Duration,
    slowest_sum: Duration,
    setups: &[f64],
) {
    let d = designs.max(1) as f64;
    // Per-pass sums of the deterministic outcome fields, scaled to the
    // number of traced designs.
    let per_design =
        |f: &dyn Fn(&Outcome) -> f64| outs.iter().map(f).sum::<f64>() / outs.len() as f64;
    let sink = Arc::new(AggregatingSink::new());
    let t = Instant::now();
    MacroSizingFlow::new(dev.clone())
        .with_dataset_size(DATASET)
        .with_seed(TRAIN_SEED)
        .with_recorder(sink.clone())
        .train();
    let recorded_train = t.elapsed();
    report.put(
        "estimator.train_ms",
        1e3 * median(setups),
        "median set-up training, untraced",
    );
    report.put(
        "estimator.label_tool_runs",
        sink.counter("pblock.search.tool_runs") as f64,
        format!(
            "labelling sweep of {DATASET} modules (recorded training took {:.0} ms)",
            ms(recorded_train)
        ),
    );
    report.put("cnn.build_ms", busy.ms("cnn.build") / d, "per design");
    report.put(
        "estimator.predict_us",
        1e3 * busy.ms("estimator.predict") / busy.calls("estimator.predict").max(1) as f64,
        format!("per call, n={}", busy.calls("estimator.predict")),
    );
    report.put(
        "mempack.ms",
        busy.ms("mempack") / d,
        "per design (packing off)",
    );
    report.put(
        "netlist.stats_ms",
        busy.ms("netlist.stats") / d,
        "per design, probe",
    );
    report.put(
        "synth.quick_ms",
        busy.ms("synth.quick") / d,
        "per design, probe",
    );
    report.put(
        "pblock.search_ms",
        busy.ms("pblock") / d,
        "per design, Σ implement_module busy",
    );
    report.put(
        "pblock.module_max_ms",
        ms(slowest_sum) / d,
        "per design, slowest module",
    );
    let attempts = per_design(&|o| f64::from(o.tool_runs));
    report.put("pblock.tool_runs", attempts, "per design");
    let modules = per_design(&|o| o.modules.len() as f64);
    report.ratio(
        "pblock.wasted_frac",
        Ratio {
            num: attempts - modules,
            den: attempts,
        },
    );
    let moves = per_design(&|o| o.moves as f64);
    report.put("stitch.ms", busy.ms("stitch") / d, "per design, portfolio");
    report.put("stitch.moves", moves, "per design");
    report.put(
        "stitch.us_per_move",
        1e3 * busy.ms("stitch") / (moves * d),
        "stitch busy / moves",
    );
    report.ratio(
        "stitch.illegal_frac",
        Ratio {
            num: per_design(&|o| o.illegal as f64),
            den: moves,
        },
    );
    report.put(
        "stitch.unplaced",
        per_design(&|o| (o.instances - o.placed) as f64),
        "per design",
    );
    report.put("route.ms", busy.ms("route") / d, "per design");
    report.put(
        "route.iterations",
        per_design(&|o| f64::from(o.route_iterations)),
        "per design",
    );
    report.put(
        "route.overflow",
        per_design(&|o| o.overflow as f64),
        "per design, overflowed cells",
    );
    let layers = [
        "cnn.build",
        "estimator.predict",
        "mempack",
        "netlist.stats",
        "synth.quick",
        "pblock",
        "stitch",
        "route",
    ];
    let attributed: f64 = layers.iter().map(|l| busy.ms(l)).sum();
    report.put(
        "unattributed_ms",
        (ms(traced_wall) - attributed) / d,
        "per design",
    );
    report.put(
        "trace.overhead_ms",
        (ms(traced_wall) - ms(untraced_wall)) / d,
        "per design, traced split minus run_rw_flow (module stage runs serially when traced)",
    );
    report.table_wall_ms = ms(traced_wall);
    report.table_wall_note = format!("traced compile wall, {designs} designs in {passes} passes");
    let row = |layer: &str, key: &str, note: String| LayerRow {
        layer: layer.to_string(),
        busy_ms: busy.ms(key),
        calls: busy.calls(key),
        note,
    };
    report.table = vec![
        row("tms-cnn build", "cnn.build", String::new()),
        row("tms-estimator predict", "estimator.predict", String::new()),
        row("tms-pack pack_design", "mempack", "packing off".into()),
        row("tms-netlist stats", "netlist.stats", PROBE.into()),
        row(
            "tms-synth/place pack + quick_place",
            "synth.quick",
            PROBE.into(),
        ),
        row(
            "tms-pblock/place/timing implement_module",
            "pblock",
            format!("{attempts:.0} tool runs/design"),
        ),
        row(
            "tms-stitch/search stitch_implemented",
            "stitch",
            format!("{moves:.0} moves/design"),
        ),
        row("tms-route route_stitched", "route", String::new()),
    ];
}
