//! `serve-warm` and `serve-cold`: an in-process `tms-serve` driven over
//! TCP by at most two client connections.

use crate::compile::{DATASET, SETUPS, TRAIN_SEED};
use crate::loadgen::{
    closed_loop, cold_op, open_loop, warm_pool, warm_stream, Op, Sample, COLD_PREIMPLS_PER_FLOW,
};
use crate::report::{LayerRow, Report};
use crate::stats::{sorted, tail, Ratio};
use crate::timing::{median, ms, process_cpu, Busy};
use crate::Args;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tms_core::cnn::{cnvw1a1, synth_module};
use tms_core::device::Device;
use tms_core::estimator::{CfEstimator, FeatureSet, ModuleFeatures};
use tms_core::flow::{
    implement_module, stitch_implemented, CfPolicy, ImplementationCache, MemPackConfig,
    MemPackPolicy, ModuleFingerprint, RwFlowConfig, VerifiedLookup,
};
use tms_core::netlist::NetlistStats;
use tms_core::obs::AggregatingSink;
use tms_core::pblock::CfSearch;
use tms_core::place::{quick_place, PlacementModel};
use tms_core::serve::{
    serve, Client, FlowResponse, PreimplResponse, ServeConfig, ServerHandle, StatsReport,
    StoreConfig,
};
use tms_core::stitch::StitchConfig;
use tms_core::synth::pack;
use tms_core::verify::Auditor;
use tms_core::{MacroSizingFlow, TrainedEstimator};

/// Client connections of the timed part (the container's `nproc`).
pub const CONNECTIONS: usize = 2;
/// Arrival rate of the `serve-warm` open loop, requests per second, from
/// the README's rate sweep: one eighth of the highest swept rate without a
/// growing backlog (800), and the highest swept rate whose seeded runs
/// kept a margin to the end-to-end bounds on a 2-vCPU host.
pub const WARM_RATE: f64 = 100.0;
/// Flows the traced runs replay through the library.
pub const REPLAY_FLOWS: usize = 24;

/// Latency limits in ms of the endpoints `serve-warm` sends. They are set
/// to bind on a 2-core host, unlike the service's `default_slos`.
pub const WARM_LIMITS_MS: &[(&str, f64)] = &[("flow", 15.0), ("preimpl", 2.0), ("estimate", 2.0)];
/// Latency limits in ms of the endpoints `serve-cold` sends.
pub const COLD_LIMITS_MS: &[(&str, f64)] = &[("flow", 60.0), ("preimpl", 5.0)];

fn limit_ms(endpoint: &str, warm: bool) -> f64 {
    let limits = if warm { WARM_LIMITS_MS } else { COLD_LIMITS_MS };
    limits
        .iter()
        .find(|(e, _)| *e == endpoint)
        .map(|&(_, l)| l)
        .expect("every endpoint a workload sends has a limit")
}

fn device(name: &str) -> Device {
    match name {
        "xc7z020" => Device::xc7z020(),
        _ => Device::xc7z045(),
    }
}

/// What one request returned.
#[derive(Debug, Clone)]
enum Reply {
    Flow(FlowResponse),
    Preimpl(PreimplResponse),
    Estimate { cf: f64, micros: u64 },
    Failed(String),
}

impl Reply {
    fn micros(&self) -> Option<u64> {
        match self {
            Reply::Flow(r) => Some(r.micros),
            Reply::Preimpl(r) => Some(r.micros),
            Reply::Estimate { micros, .. } => Some(*micros),
            Reply::Failed(_) => None,
        }
    }
}

fn send(client: &mut Client, op: &Op, estimate_stats: &[NetlistStats]) -> Reply {
    let out = match op {
        Op::Flow {
            design_seed,
            device,
            mem_pack,
        } => {
            let mem_pack = (*mem_pack != "off").then_some(*mem_pack);
            client
                .flow_packed(*design_seed, device, None, mem_pack)
                .map(Reply::Flow)
        }
        Op::Preimpl { spec, device } => client.preimpl(spec, device, None).map(Reply::Preimpl),
        Op::Estimate { index } => {
            client
                .estimate_stats(&estimate_stats[*index])
                .map(|r| Reply::Estimate {
                    cf: r.cf,
                    micros: r.micros,
                })
        }
    };
    out.unwrap_or_else(|e| Reply::Failed(e.to_string()))
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect(addr).expect("connect to the in-process server")
}

fn train() -> TrainedEstimator {
    // `tms serve` trains for its default device, the xc7z045.
    MacroSizingFlow::new(Device::xc7z045())
        .with_dataset_size(DATASET)
        .with_seed(TRAIN_SEED)
        .train()
}

/// Reload the estimator a set-up saved (bit-identical predictions).
fn load(model: &Path, set: FeatureSet) -> TrainedEstimator {
    let est = CfEstimator::load(model).expect("reload the saved estimator");
    TrainedEstimator::from_parts(est, set)
}

/// Start an in-process server on an ephemeral port, backed by a store in
/// `store` if given.
fn start(est: CfEstimator, set: FeatureSet, store: Option<&Path>) -> ServerHandle {
    let config = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        store: store.map(StoreConfig::at),
        ..ServeConfig::default()
    };
    serve(config, est, set).expect("start the in-process server")
}

/// The estimator's prediction from statistics, as the server computes it.
fn predict(trained: &TrainedEstimator, stats: &NetlistStats) -> f64 {
    let packing = pack(stats);
    let shape = quick_place(stats, &packing);
    let feats = ModuleFeatures::extract(stats, &packing, &shape);
    trained
        .estimator()
        .predict(&feats.select(trained.feature_set()))
        .max(0.5)
}

/// The server's flow configuration for a `flow` request without `cf`.
fn flow_config(seed: u64, mem_pack: &str) -> RwFlowConfig<'static> {
    RwFlowConfig {
        policy: CfPolicy::Minimal(CfSearch::wide()),
        use_shape_report: true,
        model: PlacementModel::default(),
        stitch: StitchConfig::fast(seed),
        portfolio: None,
        mem_pack: match mem_pack {
            "off" => MemPackConfig::off(),
            other => MemPackConfig::new(MemPackPolicy::parse(other).expect("policy"), seed),
        },
        seed,
        obs: tms_core::obs::noop(),
    }
}

/// Placed / unplaced / reused / fresh of a replayed flow.
type Counts = (usize, usize, usize, usize);

/// Replay one `flow` request through the library calls the server makes,
/// timing each layer into `busy`, against a local cache that has seen the
/// same requests.
fn replay_flow(
    op: &Op,
    cache: &mut ImplementationCache,
    busy: &mut Busy,
) -> (Counts, u32, Duration) {
    let Op::Flow {
        design_seed,
        device: name,
        mem_pack,
    } = op
    else {
        unreachable!("only flows are replayed")
    };
    let dev = device(name);
    let cfg = flow_config(*design_seed, mem_pack);
    let design = busy.time("cnn.build", || cnvw1a1(*design_seed));
    let packed = busy.time("mempack", || {
        tms_core::pack::pack_design(&design, &dev, &cfg.mem_pack, cfg.obs)
    });
    let design = packed.map_or(design, |(d, _)| d);
    let auditor = Auditor::new(&dev);
    let mut per_module = Vec::new();
    let mut missing = Vec::new();
    for (idx, m) in design.modules.iter().enumerate() {
        let stats = busy.time("netlist.stats", || m.netlist.stats());
        let key = busy.time("cache.fingerprint", || {
            ModuleFingerprint::of(&m.netlist, &dev)
        });
        match busy.time("cache.lookup", || cache.get_verified(&key, &auditor)) {
            VerifiedLookup::Hit(hit) => per_module.push((idx, Ok(hit))),
            _ => missing.push((idx, key, stats)),
        }
    }
    let reused = per_module.len();
    let mut attempts = 0;
    let mut slowest = Duration::ZERO;
    for (idx, key, stats) in missing.iter().cloned() {
        let m = &design.modules[idx];
        busy.time("synth.quick", || quick_place(&stats, &pack(&stats)));
        let t = Instant::now();
        let r = implement_module(&m.name, &m.netlist, &dev, &cfg);
        let took = t.elapsed();
        busy.add("pblock", took);
        slowest = slowest.max(took);
        match &r {
            Ok(done) => {
                attempts += done.attempts;
                let inserted = busy.time("cache.insert", || cache.try_insert(key, done.clone()));
                assert!(inserted.is_ok(), "local insert of {} failed", m.name);
            }
            Err(_) => attempts += 1,
        }
        per_module.push((idx, r));
    }
    per_module.sort_by_key(|(idx, _)| *idx);
    let r = busy.time("stitch", || {
        stitch_implemented(&design, &dev, &cfg, per_module)
    });
    busy.count("stitch.moves", r.stitch.total_moves);
    busy.count("stitch.illegal", r.stitch.illegal_moves);
    busy.count("stitch.unplaced", r.stitch.unplaced_count as u64);
    (
        (
            r.stitch.placed_count,
            r.stitch.unplaced_count,
            reused,
            missing.len(),
        ),
        attempts,
        slowest,
    )
}

/// What [`setups`] leaves behind.
struct Setup<T> {
    /// The last set-up's server, still running.
    handle: ServerHandle,
    /// The last pre-warm's result.
    warm: T,
    /// Set-up times in seconds.
    times: Vec<f64>,
    /// The last set-up's estimator, reloaded from `model`.
    trained: TrainedEstimator,
}

/// Set up `SETUPS` times (the last server stays up); `prewarm` runs after
/// each server start and belongs to set-up. The last set-up's estimator
/// is saved to `model`, outside the set-up time, so no later step has to
/// train again.
fn setups<T>(
    model: &Path,
    store_dir: impl Fn(usize) -> Option<PathBuf>,
    mut prewarm: impl FnMut(SocketAddr) -> T,
) -> Setup<T> {
    let mut times = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let last = i + 1 == SETUPS;
        let dir = store_dir(i);
        let t = Instant::now();
        let (est, set) = train().into_parts();
        let trained_in = t.elapsed();
        if last {
            est.save(model).expect("save the estimator");
        }
        let t = Instant::now();
        let handle = start(est, set, dir.as_deref());
        let warm = prewarm(handle.addr());
        times.push((trained_in + t.elapsed()).as_secs_f64());
        if last {
            live = Some((handle, warm, set));
        } else {
            handle.stop();
            if let Some(d) = dir {
                let _ = std::fs::remove_dir_all(d);
            }
        }
    }
    let (handle, warm, set) = live.expect("SETUPS > 0");
    Setup {
        handle,
        warm,
        times,
        trained: load(model, set),
    }
}

/// Request latencies in ms per endpoint, from successful replies only.
fn latencies<'a>(
    samples: impl Iterator<Item = (&'a Op, &'a Sample<Reply>)>,
) -> HashMap<&'static str, Vec<f64>> {
    let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for (op, s) in samples {
        if !matches!(s.result, Reply::Failed(_)) {
            out.entry(op.endpoint()).or_default().push(ms(s.latency));
        }
    }
    out.into_iter().map(|(k, v)| (k, sorted(v))).collect()
}

/// `stats` counter deltas of a timed part.
#[derive(Debug, Default, Clone, Copy)]
struct Deltas {
    hits: u64,
    misses: u64,
    shed: u64,
    deadline_expired: u64,
}

/// Checks of one server's replies: every reply OK, no failed modules,
/// `reused + fresh == implemented`, and hits + misses == lookups over the
/// `stats` deltas. Returns the deltas.
fn check_replies(
    report: &mut Report,
    ops: &[&Op],
    samples: &[Sample<Reply>],
    before: &StatsReport,
    after: &StatsReport,
) -> Deltas {
    let mut lookups = 0u64;
    for (op, s) in ops.iter().zip(samples) {
        report.attempted += 1;
        match &s.result {
            Reply::Failed(e) => {
                report.failed += 1;
                report.check(false, || format!("{} request failed: {e}", op.endpoint()));
            }
            Reply::Flow(r) => {
                lookups += (r.implemented + r.failed) as u64;
                report.check(r.failed == 0, || {
                    format!("{op:?}: {} modules failed", r.failed)
                });
                report.check(r.reused + r.fresh == r.implemented, || {
                    format!(
                        "{op:?}: reused {} + fresh {} != implemented {}",
                        r.reused, r.fresh, r.implemented
                    )
                });
            }
            Reply::Preimpl(_) => lookups += 1,
            Reply::Estimate { .. } => {}
        }
    }
    let d = Deltas {
        hits: after.cache.hits - before.cache.hits,
        misses: after.cache.misses - before.cache.misses,
        shed: after.robustness.shed - before.robustness.shed,
        deadline_expired: after.robustness.deadline_expired - before.robustness.deadline_expired,
    };
    report.check(d.hits + d.misses == lookups, || {
        format!(
            "cache hits {} + misses {} != lookups {lookups}",
            d.hits, d.misses
        )
    });
    d
}

/// Metrics shared by both serve workloads, over every timed request.
fn serve_metrics(
    report: &mut Report,
    ops: &[&Op],
    samples: &[Sample<Reply>],
    d: Deltas,
    warm: bool,
) {
    let flows: Vec<&FlowResponse> = samples
        .iter()
        .filter_map(|s| match &s.result {
            Reply::Flow(r) => Some(r),
            _ => None,
        })
        .collect();
    let within = ops
        .iter()
        .zip(samples)
        .filter(|(op, s)| {
            !matches!(s.result, Reply::Failed(_)) && ms(s.latency) <= limit_ms(op.endpoint(), warm)
        })
        .count();
    report.ratio(
        "placed_frac",
        Ratio {
            num: flows.iter().map(|f| f.placed_count as f64).sum(),
            den: flows
                .iter()
                .map(|f| (f.placed_count + f.unplaced_count) as f64)
                .sum(),
        },
    );
    let lat = latencies(ops.iter().copied().zip(samples));
    let empty = Vec::new();
    let series = |e: &str| lat.get(e).unwrap_or(&empty);
    if warm {
        report.p50("flow.p50_ms", series("flow"));
    }
    report.tail("flow.tail_ms", tail(series("flow")));
    report.ratio(
        "slo_met_frac",
        Ratio {
            num: within as f64,
            den: samples.len() as f64,
        },
    );
    report.ratio(
        "failed_frac",
        Ratio {
            num: report.failed as f64,
            den: report.attempted as f64,
        },
    );
    report.p50("preimpl.p50_ms", series("preimpl"));
    report.tail("preimpl.tail_ms", tail(series("preimpl")));
    report.tail("estimate.tail_ms", tail(series("estimate")));
    report.ratio(
        "cache.hit_ratio",
        Ratio {
            num: d.hits as f64,
            den: (d.hits + d.misses) as f64,
        },
    );
    let answered: Vec<&Sample<Reply>> = samples
        .iter()
        .filter(|s| s.result.micros().is_some())
        .collect();
    let handler: f64 = answered
        .iter()
        .map(|s| s.result.micros().unwrap_or(0) as f64 / 1e3)
        .sum();
    let client: f64 = answered.iter().map(|s| ms(s.latency)).sum();
    let n = answered.len().max(1) as f64;
    report.put(
        "serve.handler_ms",
        handler / n,
        format!("mean reply micros, n={}", answered.len()),
    );
    report.put(
        "serve.outside_ms",
        (client - handler) / n,
        format!("mean client latency minus micros, n={}", answered.len()),
    );
    report.put("serve.shed", d.shed as f64, "stats delta");
    report.put(
        "serve.deadline_expired",
        d.deadline_expired as f64,
        "stats delta",
    );
    report.put(
        "tool_runs",
        flows
            .iter()
            .map(|f| {
                f64::from(if warm {
                    f.total_tool_runs
                } else {
                    f.tool_runs_spent
                })
            })
            .sum::<f64>()
            / flows.len().max(1) as f64,
        if warm {
            "per flow, recorded cost of the served library (total_tool_runs)"
        } else {
            "per flow, spent (tool_runs_spent)"
        },
    );
}

/// Per-layer metrics of the replayed flows and the layer table.
#[allow(clippy::too_many_arguments)]
fn traced_layers(
    report: &mut Report,
    busy: &Busy,
    replayed: usize,
    attempts: u32,
    fresh: usize,
    slowest: Duration,
    ops: &[&Op],
    samples: &[Sample<Reply>],
    replay_wall: Duration,
) {
    let r = replayed.max(1) as f64;
    for (metric, layer) in [
        ("cnn.build_ms", "cnn.build"),
        ("netlist.stats_ms", "netlist.stats"),
        ("cache.fingerprint_ms", "cache.fingerprint"),
        ("cache.lookup_ms", "cache.lookup"),
        ("cache.insert_ms", "cache.insert"),
        ("mempack.ms", "mempack"),
        ("synth.quick_ms", "synth.quick"),
        ("pblock.search_ms", "pblock"),
        ("stitch.ms", "stitch"),
    ] {
        report.put(
            metric,
            busy.ms(layer) / r,
            format!("per flow, {replayed} flows replayed"),
        );
    }
    report.put(
        "pblock.module_max_ms",
        ms(slowest) / r,
        "per flow, slowest module",
    );
    report.put("pblock.tool_runs", f64::from(attempts) / r, "per flow");
    report.ratio(
        "pblock.wasted_frac",
        Ratio {
            num: f64::from(attempts) - fresh as f64,
            den: f64::from(attempts),
        },
    );
    let moves = busy.total("stitch.moves");
    let illegal = busy.total("stitch.illegal");
    report.put(
        "stitch.unplaced",
        busy.total("stitch.unplaced") / r,
        "per flow",
    );
    report.put(
        "stitch.moves",
        moves / r,
        "per flow, fast single-run anneal",
    );
    report.put(
        "stitch.us_per_move",
        if moves > 0.0 {
            1e3 * busy.ms("stitch") / moves
        } else {
            0.0
        },
        "stitch busy / moves",
    );
    report.ratio(
        "stitch.illegal_frac",
        Ratio {
            num: illegal,
            den: moves,
        },
    );

    // Layer table over request time: Σ client latency of every request.
    let mut by_endpoint: HashMap<&str, (f64, f64, u64)> = HashMap::new();
    for (op, s) in ops.iter().zip(samples) {
        let slot = by_endpoint.entry(op.endpoint()).or_default();
        slot.0 += ms(s.latency);
        slot.1 += s.result.micros().unwrap_or(0) as f64 / 1e3;
        slot.2 += 1;
    }
    let wall: f64 = by_endpoint.values().map(|v| v.0).sum();
    let outside: f64 = by_endpoint.values().map(|v| v.0 - v.1).sum();
    let (_, flow_handler, flows) = by_endpoint.get("flow").copied().unwrap_or_default();
    let scale = flows as f64 / r;
    let mut table = vec![LayerRow {
        layer: "queue (client + accept) + transport".into(),
        busy_ms: outside,
        calls: samples.len() as u64,
        note: "client latency minus reply micros".into(),
    }];
    // `netlist.stats` and `synth.quick` are probes of work the server
    // does inside the fingerprint and `implement_module`; they are
    // reported as metrics but not rows, so nothing is counted twice.
    let layers = [
        ("tms-cnn cnvw1a1", "cnn.build"),
        ("tms-pack pack_design", "mempack"),
        (
            "tms-flow ModuleFingerprint::of (+ stats)",
            "cache.fingerprint",
        ),
        ("tms-flow get_verified", "cache.lookup"),
        ("tms-pblock/place/timing implement_module", "pblock"),
        ("tms-flow try_insert (+ tms-verify audit)", "cache.insert"),
        ("tms-stitch stitch_implemented", "stitch"),
    ];
    let mut replayed_ms = 0.0;
    for (label, key) in layers {
        let scaled = busy.ms(key) * scale;
        replayed_ms += scaled;
        table.push(LayerRow {
            layer: format!("flow: {label}"),
            busy_ms: scaled,
            calls: flows,
            note: format!("replay of {replayed} flows, scaled to {flows}"),
        });
    }
    for endpoint in ["preimpl", "estimate"] {
        let (_, handler, n) = by_endpoint.get(endpoint).copied().unwrap_or_default();
        table.push(LayerRow {
            layer: format!("{endpoint} handler"),
            busy_ms: handler,
            calls: n,
            note: "reply micros".into(),
        });
    }
    let attributed: f64 = table.iter().map(|r| r.busy_ms).sum();
    report.put(
        "unattributed_ms",
        (wall - attributed) / flows.max(1) as f64,
        format!(
            "per flow; flow handler {:.1} ms vs replayed layers {:.1} ms",
            flow_handler, replayed_ms
        ),
    );
    report.put(
        "trace.overhead_ms",
        0.0,
        format!(
            "the load is identical traced or not; the replay ran after it ({:.0} ms)",
            ms(replay_wall)
        ),
    );
    report.table = table;
    report.table_wall_ms = wall;
    report.table_wall_note = format!(
        "request time (Σ client latency of {} requests)",
        samples.len()
    );
}

/// Estimator set-up metrics of a traced run: one extra training with a
/// recorder, outside the set-up timing.
fn estimator_layers(report: &mut Report) {
    let sink = Arc::new(AggregatingSink::new());
    let t = Instant::now();
    MacroSizingFlow::new(Device::xc7z045())
        .with_dataset_size(DATASET)
        .with_seed(TRAIN_SEED)
        .with_recorder(sink.clone())
        .train();
    report.put(
        "estimator.train_ms",
        ms(t.elapsed()),
        "one training with a recorder, after the timed part",
    );
    report.put(
        "estimator.label_tool_runs",
        sink.counter("pblock.search.tool_runs") as f64,
        format!("labelling sweep of {DATASET} modules"),
    );
}

/// `serve-warm`: open loop over a pre-warmed in-memory cache.
pub fn run_warm(args: &Args, report: &mut Report) {
    let pool = warm_pool(args.seed);
    let estimate_stats: Vec<NetlistStats> = pool
        .estimates
        .iter()
        .map(|s| synth_module(s.role, s.target_slices, &s.name, s.seed).stats())
        .collect();
    let prewarm = |addr: SocketAddr| {
        let mut c = connect(addr);
        let flows: HashMap<(u64, &str), FlowResponse> = pool
            .flows
            .iter()
            .map(|&(seed, dev)| ((seed, dev), c.flow(seed, dev, None).expect("pre-warm flow")))
            .collect();
        let pre: HashMap<String, PreimplResponse> = pool
            .preimpls
            .iter()
            .map(|(spec, dev)| {
                (
                    spec.name.clone(),
                    c.preimpl(spec, dev, None).expect("pre-warm preimpl"),
                )
            })
            .collect();
        (flows, pre)
    };
    let work = crate::work_dir("serve-warm");
    let Setup {
        handle,
        warm: (warm_flows, warm_pre),
        times: setup_times,
        trained: local,
    } = setups(&work.join("model.json"), |_| None, prewarm);
    let _ = std::fs::remove_dir_all(&work);
    report.put(
        "setup_s",
        median(&setup_times),
        format!("median of {SETUPS} set-ups"),
    );
    let addr = handle.addr();
    let mut stats_client = connect(addr);
    let before = stats_client.stats().expect("stats");

    let rate = args.rate.unwrap_or(WARM_RATE);
    let n = (rate * args.run.as_secs_f64()).round().max(1.0) as usize;
    let schedule = warm_stream(args.seed, &pool, rate, n);
    let dues: Vec<Duration> = schedule.iter().map(|(d, _)| *d).collect();
    let ops: Vec<&Op> = schedule.iter().map(|(_, op)| op).collect();
    let samples = open_loop(&dues, CONNECTIONS, |_| {
        let mut c = connect(addr);
        let ops = &ops;
        let estimate_stats = &estimate_stats;
        move |i: usize| send(&mut c, ops[i], estimate_stats)
    });
    let after = stats_client.stats().expect("stats");
    drop(stats_client);
    handle.stop();

    // Warm-path checks: every flow fully reused, every key answers the
    // same as during pre-warm, every estimate matches the local model.
    for (op, s) in ops.iter().zip(&samples) {
        match (op, &s.result) {
            (
                Op::Flow {
                    design_seed,
                    device,
                    ..
                },
                Reply::Flow(r),
            ) => {
                report.check(r.reused == r.implemented && r.tool_runs_spent == 0, || {
                    format!(
                        "warm flow {design_seed}/{device}: reused {}/{}, spent {}",
                        r.reused, r.implemented, r.tool_runs_spent
                    )
                });
                let w = &warm_flows[&(*design_seed, *device)];
                report.check(
                    (r.placed_count, r.unplaced_count) == (w.placed_count, w.unplaced_count),
                    || {
                        format!(
                            "flow {design_seed}/{device} placed {}/{} changed from {}/{}",
                            r.placed_count, r.unplaced_count, w.placed_count, w.unplaced_count
                        )
                    },
                );
            }
            (Op::Preimpl { spec, .. }, Reply::Preimpl(r)) => {
                let w = &warm_pre[&spec.name];
                report.check(r.cached, || {
                    format!("preimpl {} missed the warm cache", spec.name)
                });
                report.check(
                    (r.cf, r.pblock_w, r.pblock_h, r.used_slices)
                        == (w.cf, w.pblock_w, w.pblock_h, w.used_slices),
                    || format!("preimpl {} answered differently from pre-warm", spec.name),
                );
            }
            (Op::Estimate { index }, Reply::Estimate { cf, .. }) => {
                let expect = predict(&local, &estimate_stats[*index]);
                report.check(cf.to_bits() == expect.to_bits(), || {
                    format!("estimate {index}: server {cf} != local model {expect}")
                });
            }
            _ => {}
        }
    }
    report.check(after.cache.misses == before.cache.misses, || {
        format!(
            "{} cache misses in the warm run",
            after.cache.misses - before.cache.misses
        )
    });
    let deltas = check_replies(report, &ops, &samples, &before, &after);
    // The arrival rate fixes how many flows finish per second, so the
    // flow throughput is taken from the server's own handling time: the
    // flows per second one connection would complete back to back.
    let flow_ms: Vec<f64> = samples
        .iter()
        .filter_map(|s| match &s.result {
            Reply::Flow(r) => Some(r.micros as f64 / 1e3),
            _ => None,
        })
        .collect();
    report.put(
        "designs_per_s",
        1e3 / median(&flow_ms),
        format!("1 / p50 flow reply micros, n={}", flow_ms.len()),
    );
    serve_metrics(report, &ops, &samples, deltas, true);
    let lateness = sorted(samples.iter().map(|s| ms(s.lateness)).collect());
    report.tail("loadgen.lateness_ms", tail(&lateness));
    // A backlog that grows over the run shows as later requests waiting
    // longer than earlier ones.
    let quarter = (samples.len() / 4).max(1);
    let p50_of =
        |part: &[Sample<Reply>]| median(&part.iter().map(|s| ms(s.latency)).collect::<Vec<_>>());
    eprintln!(
        "perfbench: open loop at {rate} req/s: {} requests; p50 latency {:.3} ms in the first quarter, {:.3} ms in the last",
        samples.len(),
        p50_of(&samples[..quarter]),
        p50_of(&samples[samples.len() - quarter..])
    );
    report.put("store.appends", 0.0, "memory-only cache");

    if args.trace {
        estimator_layers(report);
        let t = Instant::now();
        let mut predict_busy = Busy::default();
        for stats in &estimate_stats {
            predict_busy.time("predict", || predict(&local, stats));
        }
        report.put(
            "estimator.predict_us",
            1e3 * predict_busy.ms("predict") / estimate_stats.len() as f64,
            format!("per call, n={}", estimate_stats.len()),
        );
        // Rebuild the server's warm library locally, then replay flows.
        let mut cache = ImplementationCache::new();
        let mut scratch = Busy::default();
        for &(seed, dev) in &pool.flows {
            let op = Op::Flow {
                design_seed: seed,
                device: dev,
                mem_pack: "off",
            };
            replay_flow(&op, &mut cache, &mut scratch);
        }
        let mut busy = Busy::default();
        let mut replayed = 0;
        for (op, s) in ops.iter().zip(&samples) {
            if let (Op::Flow { .. }, Reply::Flow(r)) = (op, &s.result) {
                let (counts, _, _) = replay_flow(op, &mut cache, &mut busy);
                report.check(
                    counts == (r.placed_count, r.unplaced_count, r.reused, r.fresh),
                    || format!("replay of {op:?} gave {counts:?}"),
                );
                replayed += 1;
                if replayed == REPLAY_FLOWS {
                    break;
                }
            }
        }
        traced_layers(
            report,
            &busy,
            replayed,
            0,
            0,
            Duration::ZERO,
            &ops,
            &samples,
            t.elapsed(),
        );
    }
}

/// Flows each client sends to one cold server before it is shut down.
pub const COLD_FLOWS_PER_CLIENT: u64 = 10;

/// `serve-cold`: closed loops of unseen designs against store-backed
/// servers that start empty. Each epoch runs one fresh server: 2 clients
/// send `COLD_FLOWS_PER_CLIENT` flows each (plus their `preimpl`s), then
/// `shutdown` flushes the store, which is then verified. Epochs repeat
/// until the time is up, so every epoch starts equally cold.
/// `designs_per_s` and `flow.p50_ms` are process CPU time, not wall time
/// (see the README).
pub fn run_cold(args: &Args, report: &mut Report) {
    let work = crate::work_dir("serve-cold");
    let setup_dir = |i: usize| work.join(format!("setup-{i}"));
    // Later epochs reload the set-up's model instead of retraining.
    let model = work.join("model.json");
    let Setup {
        handle,
        times: setup_times,
        trained,
        ..
    } = setups(&model, |i| Some(setup_dir(i)), |_| ());
    report.put(
        "setup_s",
        median(&setup_times),
        format!("median of {SETUPS} set-ups"),
    );
    let set = trained.feature_set();

    let seed = args.seed;
    let per_client = (COLD_FLOWS_PER_CLIENT * (1 + COLD_PREIMPLS_PER_FLOW)) as usize;
    let mut live = Some((handle, setup_dir(SETUPS - 1)));
    let mut ops_all: Vec<Op> = Vec::new();
    let mut samples_all: Vec<Sample<Reply>> = Vec::new();
    let mut first_epoch = 0..0;
    let mut deltas = Deltas::default();
    let (mut appends, mut flush_ms, mut wal_bytes) = (0u64, Vec::new(), 0u64);
    let (mut wall, mut cpu_total) = (Duration::ZERO, Duration::ZERO);
    // Wall and CPU flow rates of each epoch, and the process CPU time
    // while each flow was in flight.
    let (mut epoch_rates, mut epoch_cpu_rates, mut flow_cpu_ms) =
        (Vec::new(), Vec::new(), Vec::new());
    // Reused / implemented modules of the k-th flow an epoch finished: how
    // fast a fresh server warms up, the basis of the epoch length.
    let mut by_order = vec![(0usize, 0usize); 2 * COLD_FLOWS_PER_CLIENT as usize];
    let mut epochs = 0;
    let began = Instant::now();
    while epochs == 0 || began.elapsed() < args.run {
        let (handle, dir) = live.take().unwrap_or_else(|| {
            let dir = work.join(format!("epoch-{epochs}"));
            let (est, _) = load(&model, set).into_parts();
            (start(est, set, Some(&dir)), dir)
        });
        let addr = handle.addr();
        let mut stats_client = connect(addr);
        let before = stats_client.stats().expect("stats");
        let t = Instant::now();
        let cpu_at = process_cpu();
        // Each epoch continues the clients' request sequences, so no
        // design seed is ever sent twice in a run.
        let offset = (epochs * per_client) as u64;
        let timed = closed_loop(CONNECTIONS, per_client, |client| {
            let mut c = connect(addr);
            move |k: usize| {
                let cpu_at = process_cpu();
                let reply = send(
                    &mut c,
                    &cold_op(seed, client as u64, offset + k as u64),
                    &[],
                );
                (reply, process_cpu() - cpu_at)
            }
        });
        let after = stats_client.stats().expect("stats");
        let shutdown = stats_client.shutdown();
        let took = t.elapsed();
        let cpu = process_cpu() - cpu_at;
        wall += took;
        cpu_total += cpu;
        let flows_done = 2.0 * COLD_FLOWS_PER_CLIENT as f64;
        epoch_rates.push(flows_done / took.as_secs_f64());
        epoch_cpu_rates.push(flows_done / cpu.as_secs_f64());
        let mut samples = Vec::with_capacity(timed.len());
        for s in timed {
            let (result, cpu) = s.result;
            if matches!(result, Reply::Flow(_)) {
                flow_cpu_ms.push(ms(cpu));
            }
            samples.push(Sample {
                index: s.index,
                conn: s.conn,
                latency: s.latency,
                lateness: s.lateness,
                done: s.done,
                result,
            });
        }
        drop(stats_client);
        drop(handle);

        let ops: Vec<Op> = samples
            .iter()
            .map(|s| cold_op(seed, s.conn as u64, offset + s.index as u64))
            .collect();
        let mut finished: Vec<(Duration, usize, usize)> = samples
            .iter()
            .filter_map(|s| match &s.result {
                Reply::Flow(r) => Some((s.done, r.reused, r.implemented)),
                _ => None,
            })
            .collect();
        finished.sort_unstable();
        for (slot, (_, reused, implemented)) in by_order.iter_mut().zip(finished) {
            slot.0 += reused;
            slot.1 += implemented;
        }
        let op_refs: Vec<&Op> = ops.iter().collect();
        let d = check_replies(report, &op_refs, &samples, &before, &after);
        deltas.hits += d.hits;
        deltas.misses += d.misses;
        deltas.shed += d.shed;
        deltas.deadline_expired += d.deadline_expired;
        let inserted: usize = samples
            .iter()
            .map(|s| match &s.result {
                Reply::Flow(r) => r.fresh,
                Reply::Preimpl(r) => {
                    report.check(!r.cached, || {
                        format!("fresh preimpl {} was a cache hit", r.name)
                    });
                    1
                }
                _ => 0,
            })
            .sum();
        match (&before.store, &after.store) {
            (Some(b), Some(a)) => {
                let n = a.appended - b.appended;
                report.check(n == inserted as u64, || {
                    format!("store appended {n} records for {inserted} inserts")
                });
                appends += n;
                wal_bytes += a.wal_bytes;
            }
            _ => report.check(false, || "server runs without its store".to_string()),
        }
        match shutdown {
            Ok(r) => flush_ms.push(r.micros as f64 / 1e3),
            Err(e) => report.check(false, || format!("shutdown failed: {e}")),
        }
        match tms_core::store::verify(&dir) {
            Ok(v) => report.check(v.clean(), || format!("store verify after shutdown: {v:?}")),
            Err(e) => report.check(false, || format!("store verify failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
        if epochs == 0 {
            first_epoch = 0..samples.len();
        }
        ops_all.extend(ops);
        samples_all.extend(samples);
        epochs += 1;
    }
    let ops: Vec<&Op> = ops_all.iter().collect();
    let samples = samples_all;
    let rates: Vec<String> = sorted(epoch_rates.clone())
        .iter()
        .map(|r| format!("{r:.0}"))
        .collect();
    eprintln!("perfbench: flows/s per epoch, sorted: {}", rates.join(" "));
    let warming: Vec<String> = by_order
        .iter()
        .map(|&(reused, n)| format!("{:.2}", reused as f64 / n.max(1) as f64))
        .collect();
    eprintln!(
        "perfbench: hit ratio of an epoch's k-th flow over {epochs} epochs: {}",
        warming.join(" ")
    );
    serve_metrics(report, &ops, &samples, deltas, false);
    // Both clients keep both cores busy, so on a shared host the wall
    // figures measure how much of the host the run got. The gated figures
    // are CPU time; the wall ones stay in the notes.
    let wall_flow_ms = latencies(ops.iter().copied().zip(&samples))
        .remove("flow")
        .unwrap_or_default();
    report.put(
        "designs_per_s",
        median(&epoch_cpu_rates),
        format!(
            "median over {epochs} epochs of flows / epoch process CPU s (incl. shutdown), {:.2} CPU s in all; by wall: {:.2}/s over {:.2} s",
            cpu_total.as_secs_f64(),
            median(&epoch_rates),
            wall.as_secs_f64()
        ),
    );
    let flow_cpu_ms = sorted(flow_cpu_ms);
    report.put(
        "flow.p50_ms",
        crate::stats::percentile(&flow_cpu_ms, 50.0).unwrap_or(0.0),
        format!(
            "p50 of process CPU while a flow was in flight, n={}; wall latency p50 {:.3} ms",
            flow_cpu_ms.len(),
            crate::stats::percentile(&wall_flow_ms, 50.0).unwrap_or(0.0)
        ),
    );
    let flows = samples
        .iter()
        .filter(|s| matches!(s.result, Reply::Flow(_)))
        .count();
    report.put(
        "store.appends",
        appends as f64 / flows.max(1) as f64,
        format!("per flow, {appends} in total over {epochs} epochs"),
    );
    report.put(
        "store.wal_bytes",
        wal_bytes as f64 / flows.max(1) as f64,
        "per flow, WAL size before each shutdown",
    );
    report.put(
        "store.flush_ms",
        median(&flush_ms),
        format!("median shutdown reply micros of {epochs} epochs"),
    );
    report.put("loadgen.lateness_ms", 0.0, "closed loop");

    if args.trace {
        estimator_layers(report);
        let t = Instant::now();
        // Replay the first epoch's flows in the order the server finished
        // them (flows serialise on the cache write lock).
        let mut order: Vec<usize> = first_epoch
            .filter(|&i| matches!(samples[i].result, Reply::Flow(_)))
            .collect();
        order.sort_by_key(|&i| samples[i].done);
        let mut cache = ImplementationCache::new();
        let mut busy = Busy::default();
        let (mut attempts, mut fresh, mut slowest) = (0, 0, Duration::ZERO);
        let mut replayed = 0;
        for &i in order.iter().take(REPLAY_FLOWS) {
            let Reply::Flow(r) = &samples[i].result else {
                continue;
            };
            let (counts, a, s) = replay_flow(ops[i], &mut cache, &mut busy);
            report.check(
                counts == (r.placed_count, r.unplaced_count, r.reused, r.fresh),
                || {
                    format!(
                        "replay of {:?} gave {counts:?}, server {}/{}/{}/{}",
                        ops[i], r.placed_count, r.unplaced_count, r.reused, r.fresh
                    )
                },
            );
            attempts += a;
            fresh += counts.3;
            slowest += s;
            replayed += 1;
        }
        traced_layers(
            report,
            &busy,
            replayed,
            attempts,
            fresh,
            slowest,
            &ops,
            &samples,
            t.elapsed(),
        );
    }
    let _ = std::fs::remove_dir_all(&work);
}
