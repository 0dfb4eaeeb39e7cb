//! Request streams and the two load shapes: an open loop at a fixed
//! arrival rate, timed from each request's due time, and a closed loop of
//! clients that wait for their replies.
//!
//! Every stream is a pure function of the workload seed, so the same seed
//! sends the same requests in the same order.

use std::time::{Duration, Instant};
use tms_core::cnn::ModuleRole;
use tms_core::serve::ModuleSpec;

/// splitmix64: the seed-to-stream generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` (decorrelated by `stream`).
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// A device a serve workload targets.
pub const DEVICES: [&str; 2] = ["xc7z020", "xc7z045"];

/// One request of a serve workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Compile cnvW1A1 with this design seed on this device.
    Flow {
        /// Design (and flow) seed.
        design_seed: u64,
        /// Device name.
        device: &'static str,
        /// Weight-packing policy (`off` / `packed`).
        mem_pack: &'static str,
    },
    /// Pre-implement one module at the minimal feasible CF.
    Preimpl {
        /// The module.
        spec: ModuleSpec,
        /// Device name.
        device: &'static str,
    },
    /// Predict a CF for the statistics of `pool[index]`.
    Estimate {
        /// Index into the workload's estimate pool.
        index: usize,
    },
}

impl Op {
    /// Endpoint name.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Op::Flow { .. } => "flow",
            Op::Preimpl { .. } => "preimpl",
            Op::Estimate { .. } => "estimate",
        }
    }
}

const ROLES: [ModuleRole; 5] = [
    ModuleRole::Mvau,
    ModuleRole::SlidingWindow,
    ModuleRole::Activation,
    ModuleRole::MaxPool,
    ModuleRole::Weights,
];

fn spec(rng: &mut SplitMix64, name: String) -> ModuleSpec {
    ModuleSpec {
        role: ROLES[rng.below(ROLES.len() as u64) as usize],
        target_slices: 20 + rng.below(60) as u32,
        name,
        seed: 1 + rng.below(1 << 40),
    }
}

/// The fixed key pool of `serve-warm`: what set-up pre-warms and what the
/// timed part asks for again.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmPool {
    /// `(design seed, device)` flow keys.
    pub flows: Vec<(u64, &'static str)>,
    /// Pre-implemented module specs with their devices.
    pub preimpls: Vec<(ModuleSpec, &'static str)>,
    /// Module specs whose statistics `estimate` requests carry.
    pub estimates: Vec<ModuleSpec>,
}

/// cnvW1A1 design seeds (`1..=`) in the warm pool, each on both devices.
pub const WARM_DESIGN_SEEDS: usize = 3;
/// Modules in the warm pre-implementation and estimate pools.
pub const WARM_MODULES: usize = 12;

/// The warm pool for `seed`.
pub fn warm_pool(seed: u64) -> WarmPool {
    // The designs are fixed, as in compile-dense: a warm flow's cost
    // depends on its design, and the seed should move the schedule and
    // the module specs, not which designs get timed.
    let mut rng = SplitMix64::new(seed, 1);
    let flows = (1..=WARM_DESIGN_SEEDS as u64)
        .flat_map(|design_seed| DEVICES.map(|device| (design_seed, device)))
        .collect();
    let preimpls = (0..WARM_MODULES)
        .map(|i| {
            let s = spec(&mut rng, format!("warm_pre_{i}"));
            (s, DEVICES[i % DEVICES.len()])
        })
        .collect();
    let estimates = (0..WARM_MODULES)
        .map(|i| spec(&mut rng, format!("warm_est_{i}")))
        .collect();
    WarmPool {
        flows,
        preimpls,
        estimates,
    }
}

/// Percent of warm requests that are flows / pre-implementations; the
/// rest are estimates. The mix is the service's default loadgen mix
/// (`RequestMix::default()`: 6 estimate : 2 preimpl : 1 stats : 1
/// bad-device) with its bad-device slot, an error by design that the
/// every-reply-OK check forbids, given to a warm flow, and its stats slot,
/// a reply without handler time, given to an estimate: 7 : 2 : 1.
pub const WARM_FLOW_PCT: usize = 10;
/// See [`WARM_FLOW_PCT`].
pub const WARM_PREIMPL_PCT: usize = 20;

/// The open-loop schedule of `serve-warm`: `n` requests over the pool,
/// the `i`-th due at `i / rate` seconds. The mix is exact — the request
/// kinds and keys are dealt round-robin, then shuffled by the seed — so
/// every seed sends the same number of each kind.
pub fn warm_stream(seed: u64, pool: &WarmPool, rate: f64, n: usize) -> Vec<(Duration, Op)> {
    let flows = n * WARM_FLOW_PCT / 100;
    let preimpls = n * WARM_PREIMPL_PCT / 100;
    let mut ops: Vec<Op> = (0..n)
        .map(|i| {
            if i < flows {
                let (design_seed, device) = pool.flows[i % pool.flows.len()];
                Op::Flow {
                    design_seed,
                    device,
                    mem_pack: "off",
                }
            } else if i < flows + preimpls {
                let (spec, device) = &pool.preimpls[i % pool.preimpls.len()];
                Op::Preimpl {
                    spec: spec.clone(),
                    device,
                }
            } else {
                Op::Estimate {
                    index: i % pool.estimates.len(),
                }
            }
        })
        .collect();
    let mut rng = SplitMix64::new(seed, 2);
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.below(i as u64 + 1) as usize);
    }
    ops.into_iter()
        .enumerate()
        .map(|(i, op)| (Duration::from_secs_f64(i as f64 / rate), op))
        .collect()
}

/// Requests per cold flow: one flow, then this many fresh `preimpl`s —
/// the flow : preimpl ratio of the warm mix ([`WARM_FLOW_PCT`]), without
/// its estimates, which never touch the cache.
pub const COLD_PREIMPLS_PER_FLOW: u64 = 2;

/// The `k`-th request of closed-loop client `client` in `serve-cold`.
/// Every flow names a design seed no other request names; flows alternate
/// device and `mem_pack` so all four combinations recur.
pub fn cold_op(seed: u64, client: u64, k: u64) -> Op {
    let base = SplitMix64::new(seed, 3).next_u64() % (1 << 40);
    let round = k / (1 + COLD_PREIMPLS_PER_FLOW);
    let flow_index = 2 * round + client;
    if k.is_multiple_of(1 + COLD_PREIMPLS_PER_FLOW) {
        Op::Flow {
            design_seed: base + flow_index,
            device: DEVICES[(flow_index % 2) as usize],
            mem_pack: if (flow_index / 2).is_multiple_of(2) {
                "off"
            } else {
                "packed"
            },
        }
    } else {
        let mut rng = SplitMix64::new(seed ^ base, 4 + (client << 40) + k);
        Op::Preimpl {
            spec: spec(&mut rng, format!("cold_pre_{client}_{k}")),
            device: DEVICES[(k % 2) as usize],
        }
    }
}

/// One answered request of a load run.
#[derive(Debug, Clone)]
pub struct Sample<R> {
    /// Index of the request in the schedule (open loop) or the client's
    /// sequence (closed loop).
    pub index: usize,
    /// Connection or client that sent it.
    pub conn: usize,
    /// Open loop: reply time minus due time. Closed loop: reply time
    /// minus send time.
    pub latency: Duration,
    /// Open loop: how much later than `max(due, previous reply)` the
    /// generator sent the request. Zero for the closed loop.
    pub lateness: Duration,
    /// When the reply arrived, from the start of the run.
    pub done: Duration,
    /// What the sender returned.
    pub result: R,
}

/// Run an open loop: request `i` is due `dues[i]` after the start and goes
/// out on connection `i % conns`; each connection sends its requests in
/// order, one at a time. Latency runs from the due time, so a request
/// held back by a slow predecessor is charged for the wait.
pub fn open_loop<R, S>(
    dues: &[Duration],
    conns: usize,
    mut make_sender: impl FnMut(usize) -> S,
) -> Vec<Sample<R>>
where
    R: Send,
    S: FnMut(usize) -> R + Send,
{
    let senders: Vec<S> = (0..conns).map(&mut make_sender).collect();
    let start = Instant::now();
    let mut all: Vec<Sample<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(conn, mut send)| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut free_at = start;
                    for (index, due) in dues.iter().enumerate().skip(conn).step_by(conns) {
                        let due_at = start + *due;
                        let now = Instant::now();
                        if now < due_at {
                            std::thread::sleep(due_at - now);
                        }
                        let sent = Instant::now();
                        let lateness = sent.saturating_duration_since(due_at.max(free_at));
                        let result = send(index);
                        let done = Instant::now();
                        free_at = done;
                        out.push(Sample {
                            index,
                            conn,
                            latency: done.saturating_duration_since(due_at),
                            lateness,
                            done: done - start,
                            result,
                        });
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop sender panicked"))
            .collect()
    });
    all.sort_by_key(|s| s.index);
    all
}

/// Run a closed loop of `clients` clients: each sends its `k`-th
/// request, waits for the reply, and goes on until it has sent
/// `per_client` requests.
pub fn closed_loop<R, S>(
    clients: usize,
    per_client: usize,
    mut make_sender: impl FnMut(usize) -> S,
) -> Vec<Sample<R>>
where
    R: Send,
    S: FnMut(usize) -> R + Send,
{
    let senders: Vec<S> = (0..clients).map(&mut make_sender).collect();
    let start = Instant::now();
    std::thread::scope(|scope| {
        let handles: Vec<_> = senders
            .into_iter()
            .enumerate()
            .map(|(conn, mut send)| {
                scope.spawn(move || {
                    (0..per_client)
                        .map(|index| {
                            let sent = Instant::now();
                            let result = send(index);
                            let done = Instant::now();
                            Sample {
                                index,
                                conn,
                                latency: done - sent,
                                lateness: Duration::ZERO,
                                done: done - start,
                                result,
                            }
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("closed-loop client panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_requests_keep_the_warm_flow_to_preimpl_ratio() {
        assert_eq!(
            COLD_PREIMPLS_PER_FLOW as usize * WARM_FLOW_PCT,
            WARM_PREIMPL_PCT
        );
    }

    #[test]
    fn streams_are_a_pure_function_of_the_seed() {
        let pool = warm_pool(11);
        assert_eq!(pool, warm_pool(11));
        assert_ne!(pool, warm_pool(12));
        let a = warm_stream(11, &pool, 50.0, 300);
        assert_eq!(a, warm_stream(11, &pool, 50.0, 300));
        assert_ne!(a, warm_stream(12, &pool, 50.0, 300));
        let count = |e: &str| a.iter().filter(|(_, op)| op.endpoint() == e).count();
        assert_eq!(
            (count("flow"), count("preimpl"), count("estimate")),
            (30, 60, 210)
        );
        for k in 0..30 {
            assert_eq!(cold_op(5, 0, k), cold_op(5, 0, k));
            assert_eq!(cold_op(5, 1, k), cold_op(5, 1, k));
        }
        assert_ne!(cold_op(5, 0, 0), cold_op(6, 0, 0));
    }

    #[test]
    fn cold_flows_never_repeat_a_design_seed() {
        let mut seen = std::collections::HashSet::new();
        let mut combos = std::collections::HashSet::new();
        for client in 0..2 {
            for k in 0..300 {
                if let Op::Flow {
                    design_seed,
                    device,
                    mem_pack,
                } = cold_op(9, client, k)
                {
                    assert!(seen.insert(design_seed), "seed {design_seed} repeated");
                    combos.insert((device, mem_pack));
                }
            }
        }
        assert_eq!(seen.len(), 200);
        assert_eq!(combos.len(), 4);
    }

    #[test]
    fn open_loop_latency_runs_from_the_due_time_through_a_stall() {
        // One connection, requests due every 5 ms; the first stalls 40 ms.
        let ms = Duration::from_millis;
        let dues: Vec<Duration> = (0..4).map(|i| ms(5 * i)).collect();
        let samples = open_loop(&dues, 1, |_| {
            |i: usize| {
                if i == 0 {
                    std::thread::sleep(Duration::from_millis(40));
                }
            }
        });
        assert_eq!(samples.len(), 4);
        for s in &samples[1..] {
            // Sent only after the stalled request returned (≥ 40 ms), so
            // the wait behind it counts: latency ≥ 40 ms − due.
            let floor = ms(40) - dues[s.index];
            assert!(
                s.latency >= floor,
                "request {} latency {:?} < {floor:?}",
                s.index,
                s.latency
            );
        }
        // The generator was not late: the stalled connection, not the
        // scheduler, held the requests back.
        for s in &samples {
            assert!(s.lateness < ms(20), "lateness {:?}", s.lateness);
        }
    }

    #[test]
    fn closed_loop_sends_a_fixed_count_per_client() {
        let samples = closed_loop(2, 3, |conn| move |i: usize| (conn, i));
        let mut got: Vec<(usize, usize)> = samples.iter().map(|s| s.result).collect();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]);
    }

    #[test]
    fn open_loop_spreads_requests_over_connections_in_order() {
        let dues: Vec<Duration> = (0..6).map(|_| Duration::ZERO).collect();
        let samples = open_loop(&dues, 2, |conn| move |i: usize| (conn, i));
        let got: Vec<(usize, usize)> = samples.iter().map(|s| s.result).collect();
        assert_eq!(got, vec![(0, 0), (1, 1), (0, 2), (1, 3), (0, 4), (1, 5)]);
    }
}
