//! Correction-factor searches: dataset labelling and the estimator loop.
//!
//! Both searches run on an incremental engine that reuses everything
//! invariant across CF attempts — the device capacity prefix tables, a
//! [`PlaceContext`] holding the module's hoisted congestion constants, the
//! previous attempt's planned rectangle — and prescreens provably-doomed
//! attempts with exact structural checks instead of full placements. The
//! results (CF, attempt counts, per-reason `place.fail.*` counters) are
//! bit-identical to the pre-engine search, which the equivalence tests of
//! this module keep verbatim (test builds only) and diff against.

use crate::generator::{PBlock, PBlockGenerator, PlanResume};
use tms_device::Rect;
use tms_netlist::NetlistStats;
use tms_obs::{noop, span, Phase, Recorder};
use tms_place::{PlaceContext, Placement, PlacementModel};
use tms_synth::PackingReport;

/// Parameters of the linear minimal-CF search (Section VII: start 0.9,
/// resolution 0.02).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfSearch {
    /// First CF attempted.
    pub start: f64,
    /// Search resolution.
    pub step: f64,
    /// Give up beyond this CF.
    pub max: f64,
}

impl Default for CfSearch {
    fn default() -> Self {
        CfSearch {
            start: 0.9,
            step: 0.02,
            max: 3.0,
        }
    }
}

impl CfSearch {
    /// The wider search the cnvW1A1 analysis uses (Figure 4 shows minimal
    /// CFs below 0.7, so labelling starts lower than 0.9).
    pub fn wide() -> Self {
        CfSearch {
            start: 0.5,
            step: 0.02,
            max: 3.0,
        }
    }
}

/// A successful CF search outcome.
#[derive(Debug, Clone)]
pub struct CfResult {
    /// The minimal feasible correction factor found.
    pub cf: f64,
    /// The PBlock generated at that CF.
    pub pblock: PBlock,
    /// The detailed placement inside it.
    pub placement: Placement,
    /// Place-and-route attempts spent (tool runs).
    pub attempts: u32,
}

/// The incremental per-module search state: one per `(module, model,
/// seed)` tuple, shared by every CF attempt of a search.
struct Engine<'a, 'd> {
    gen: &'a PBlockGenerator<'d>,
    shape: &'a tms_place::ShapeReport,
    ctx: PlaceContext,
    /// The module's hard demand exceeds the whole device: every CF is
    /// provably un-generatable, so attempts are skipped wholesale.
    demand_impossible: bool,
    /// `(target, planned rect)` of the previous attempt. The plan depends
    /// on CF only through the slice target, so consecutive CF steps that
    /// round to the same target reuse the window search.
    last_plan: Option<(u32, Option<Rect>)>,
    /// Height-growth resumption hint for the next (no-smaller) target.
    resume: Option<PlanResume>,
}

impl<'a, 'd> Engine<'a, 'd> {
    fn new(
        gen: &'a PBlockGenerator<'d>,
        stats: &NetlistStats,
        packing: &PackingReport,
        shape: &'a tms_place::ShapeReport,
        model: &PlacementModel,
        seed: u64,
    ) -> Self {
        let full = gen.prefix().capacity_in(&gen.prefix().bounds());
        let demand = shape.demand;
        // Window capacities are monotone in height and width, so a demand
        // component the full device cannot cover is uncoverable by every
        // window the generator could try, at any CF: generation fails.
        // (The degenerate zero-demand unit PBlock is unreachable here
        // because an impossible demand is nonzero.)
        let demand_impossible = demand.m_slices > full.m_slices
            || demand.bram36 > full.bram36
            || demand.dsp48 > full.dsp48;
        Engine {
            gen,
            shape,
            ctx: PlaceContext::new(stats, packing, model, seed),
            demand_impossible,
            last_plan: None,
            resume: None,
        }
    }

    /// One place-and-route attempt at `cf`, with the same counter
    /// bookkeeping as the pre-engine path: a generation
    /// failure counts `pblock.generate.failed`, a placement failure counts
    /// its `place.fail.*` key. Attempts resolved by the structural
    /// prescreen — without running the congestion model or freezing a
    /// PBlock — additionally count `pblock.search.prescreened`.
    fn attempt(&mut self, cf: f64, obs: &dyn Recorder) -> Option<(PBlock, Placement)> {
        if self.demand_impossible {
            obs.count("pblock.generate.failed", 1);
            obs.count("pblock.search.prescreened", 1);
            return None;
        }
        let target = self.gen.slice_target(self.shape, cf);
        let rect = match self.last_plan {
            Some((t, r)) if t == target => r,
            _ => {
                let (r, h_init) =
                    self.gen
                        .plan_target_resumed(self.shape, target, self.resume.as_ref());
                self.resume = Some(PlanResume {
                    target,
                    h_init,
                    result: r,
                    need_clb: r.map_or(0, |rect| target.div_ceil(rect.h)),
                });
                self.last_plan = Some((target, r));
                r
            }
        };
        let Some(rect) = rect else {
            obs.count("pblock.generate.failed", 1);
            return None;
        };
        // Structural prescreen: bounds, coverage, and carry chains checked
        // in placement order against the planned rectangle. A failure here
        // is *exactly* the error the full placement would have returned,
        // so it is counted under the same key — only the wasted work
        // (freeze + congestion model) is skipped.
        if let Err(e) = self.ctx.screen(self.gen.prefix(), &rect) {
            obs.count(e.counter_key(), 1);
            obs.count("pblock.search.prescreened", 1);
            return None;
        }
        // Structurally sound: run the real attempt (the congestion model
        // still decides, so congestion-limited CFs are never skipped).
        let pblock = self.gen.freeze(rect, cf.max(0.0), target);
        match self.ctx.place(self.gen.prefix(), &pblock.rect) {
            Ok(placement) => Some((pblock, placement)),
            Err(e) => {
                obs.count(e.counter_key(), 1);
                None
            }
        }
    }
}

/// Find the minimal feasible CF by linear search (the labelling procedure
/// of Section VII). Returns `None` when no CF up to `search.max` places.
#[allow(clippy::too_many_arguments)]
pub fn min_feasible_cf(
    gen: &PBlockGenerator<'_>,
    stats: &NetlistStats,
    packing: &PackingReport,
    shape: &tms_place::ShapeReport,
    model: &PlacementModel,
    search: &CfSearch,
    seed: u64,
) -> Option<CfResult> {
    min_feasible_cf_observed(gen, stats, packing, shape, model, search, seed, noop(), "")
}

/// [`min_feasible_cf`] with telemetry: wraps the search in a `place`-phase
/// span named after the module, counts `pblock.search.tool_runs` (on
/// success only, so per-module attempt sums reconcile exactly),
/// `pblock.search.{feasible,infeasible,wasted_runs}`, per-attempt
/// `place.fail.*` reasons and `pblock.search.prescreened` skips, and
/// observes `flow.cf.placed`.
///
/// Runs on the incremental engine; the result and every non-prescreen
/// counter are bit-identical to the pre-engine search that the
/// equivalence tests keep.
#[allow(clippy::too_many_arguments)]
pub fn min_feasible_cf_observed(
    gen: &PBlockGenerator<'_>,
    stats: &NetlistStats,
    packing: &PackingReport,
    shape: &tms_place::ShapeReport,
    model: &PlacementModel,
    search: &CfSearch,
    seed: u64,
    obs: &dyn Recorder,
    name: &str,
) -> Option<CfResult> {
    let mut sp = span(obs, Phase::Place, name);
    let mut engine = Engine::new(gen, stats, packing, shape, model, seed);
    let steps = ((search.max - search.start) / search.step).round() as u32;
    for i in 0..=steps {
        let cf = search.start + f64::from(i) * search.step;
        if let Some((pblock, placement)) = engine.attempt(cf, obs) {
            let attempts = i + 1;
            sp.field("cf", cf);
            sp.field("attempts", f64::from(attempts));
            obs.count("pblock.search.tool_runs", u64::from(attempts));
            obs.count("pblock.search.feasible", 1);
            obs.observe("flow.cf.placed", cf);
            return Some(CfResult {
                cf,
                pblock,
                placement,
                attempts,
            });
        }
    }
    sp.field("attempts", f64::from(steps + 1));
    obs.count("pblock.search.infeasible", 1);
    obs.count("pblock.search.wasted_runs", u64::from(steps + 1));
    None
}

/// Outcome of the estimator-guided search of Section VIII.
#[derive(Debug, Clone)]
pub struct GuidedResult {
    /// The feasible CF settled on.
    pub cf: f64,
    /// The PBlock at that CF.
    pub pblock: PBlock,
    /// The placement inside it.
    pub placement: Placement,
    /// Tool runs spent in total.
    pub attempts: u32,
    /// Whether the predicted CF was feasible on the very first run.
    pub first_try: bool,
}

/// Snap a CF onto the 0.02 labelling grid. The guided search steps by
/// index from the predicted CF and snaps every step, so accumulated float
/// error cannot leak off-grid CFs (`1.7000000000000004`) into spans,
/// cache keys, or estimator labels.
fn snap_to_grid(cf: f64) -> f64 {
    (cf * 50.0).round() / 50.0
}

/// The Section VIII procedure: run the predicted CF; when it underestimates,
/// "increment the correction factor by 0.1 and when a feasible correction
/// factor is found, the last interval is searched with a resolution of
/// 0.02". Returns `None` when nothing up to `max_cf` places.
#[allow(clippy::too_many_arguments)]
pub fn guided_search(
    gen: &PBlockGenerator<'_>,
    stats: &NetlistStats,
    packing: &PackingReport,
    shape: &tms_place::ShapeReport,
    model: &PlacementModel,
    predicted_cf: f64,
    max_cf: f64,
    seed: u64,
) -> Option<GuidedResult> {
    guided_search_observed(
        gen,
        stats,
        packing,
        shape,
        model,
        predicted_cf,
        max_cf,
        seed,
        noop(),
        "",
    )
}

/// [`guided_search`] with telemetry: a `place`-phase span plus the same
/// counters as [`min_feasible_cf_observed`], `pblock.search.first_try`
/// when the predicted CF places directly, and the requested/placed CF
/// observation pair whose gap is the estimator's bias.
#[allow(clippy::too_many_arguments)]
pub fn guided_search_observed(
    gen: &PBlockGenerator<'_>,
    stats: &NetlistStats,
    packing: &PackingReport,
    shape: &tms_place::ShapeReport,
    model: &PlacementModel,
    predicted_cf: f64,
    max_cf: f64,
    seed: u64,
    obs: &dyn Recorder,
    name: &str,
) -> Option<GuidedResult> {
    const COARSE: f64 = 0.1;
    const FINE: f64 = 0.02;
    let mut sp = span(obs, Phase::Place, name);
    sp.field("cf_predicted", predicted_cf);
    obs.observe("flow.cf.requested", predicted_cf);
    let finish = |sp: &mut tms_obs::Span<'_>, r: &GuidedResult| {
        sp.field("cf", r.cf);
        sp.field("attempts", f64::from(r.attempts));
        sp.field("first_try", f64::from(u8::from(r.first_try)));
        obs.count("pblock.search.tool_runs", u64::from(r.attempts));
        obs.count("pblock.search.feasible", 1);
        if r.first_try {
            obs.count("pblock.search.first_try", 1);
        }
        obs.observe("flow.cf.placed", r.cf);
    };
    let mut engine = Engine::new(gen, stats, packing, shape, model, seed);
    let mut attempts = 1;
    if let Some((pblock, placement)) = engine.attempt(predicted_cf, obs) {
        let r = GuidedResult {
            cf: predicted_cf,
            pblock,
            placement,
            attempts,
            first_try: true,
        };
        finish(&mut sp, &r);
        return Some(r);
    }
    // Coarse ascent, stepped by index from the prediction and snapped to
    // the fine grid so the interval endpoints are exact grid values.
    let mut lo = predicted_cf;
    let mut found: Option<(f64, PBlock, Placement)> = None;
    for i in 1u32.. {
        let cf = snap_to_grid(predicted_cf + f64::from(i) * COARSE);
        if cf > max_cf + 1e-9 {
            break;
        }
        attempts += 1;
        if let Some((pblock, placement)) = engine.attempt(cf, obs) {
            found = Some((cf, pblock, placement));
            break;
        }
        lo = cf;
    }
    let Some((coarse_cf, mut best_pblock, mut best_placement)) = found else {
        sp.field("attempts", f64::from(attempts));
        obs.count("pblock.search.infeasible", 1);
        obs.count("pblock.search.wasted_runs", u64::from(attempts));
        return None;
    };
    // Fine search of the last interval (lo, coarse_cf), on the same grid.
    let mut best_cf = coarse_cf;
    for k in 1u32.. {
        let fine = snap_to_grid(lo + f64::from(k) * FINE);
        if fine >= coarse_cf - 1e-9 {
            break;
        }
        attempts += 1;
        if let Some((pblock, placement)) = engine.attempt(fine, obs) {
            best_cf = fine;
            best_pblock = pblock;
            best_placement = placement;
            break;
        }
    }
    let r = GuidedResult {
        cf: best_cf,
        pblock: best_pblock,
        placement: best_placement,
        attempts,
        first_try: false,
    };
    finish(&mut sp, &r);
    Some(r)
}

/// The pre-engine search, frozen verbatim for the equivalence tests below:
/// the engine must reproduce it bit for bit.
#[cfg(test)]
mod reference {
    use super::*;
    use tms_device::{SliceCapacity, DSP48_ROWS, RAMB36_ROWS};
    use tms_place::{place_in_region, PlaceError};

    /// The pre-engine PBlock generation path, frozen verbatim: the window sweep materialises a full capacity struct per
    /// candidate, with no full-width precheck, no threshold reduction, and no
    /// reuse across CF attempts. Identical output to
    /// [`PBlockGenerator::generate`] — the equivalence tests pin it.
    fn generate_reference(
        gen: &PBlockGenerator<'_>,
        shape: &tms_place::ShapeReport,
        cf: f64,
    ) -> Option<PBlock> {
        let cf = cf.max(0.0);
        let target = gen.slice_target(shape, cf);
        let demand = shape.demand;
        if target == 0 && demand == SliceCapacity::default() {
            return Some(gen.freeze(Rect::new(0, 0, 1, 1), cf, 0));
        }
        let rows = gen.device().rows();
        let mut h = ((f64::from(target) / shape.aspect).sqrt().ceil() as u32).max(1);
        if gen.use_shape_report {
            h = h.max(shape.min_height);
        }
        if demand.bram36 > 0 {
            h = h.max(RAMB36_ROWS);
        }
        if demand.dsp48 > 0 {
            h = h.max(DSP48_ROWS);
        }
        h = h.min(rows);
        loop {
            if let Some((x0, w)) = best_window_reference(gen, target, &demand, h) {
                return Some(gen.freeze(Rect::new(x0, 0, w, h), cf, target));
            }
            if h >= rows {
                return None;
            }
            h = (h + (h / 4).max(1)).min(rows);
        }
    }

    /// The pre-engine minimal-window sweep: per-candidate capacity queries.
    fn best_window_reference(
        gen: &PBlockGenerator<'_>,
        target: u32,
        demand: &SliceCapacity,
        h: u32,
    ) -> Option<(u32, u32)> {
        let width = gen.device().width();
        let ok = |x0: u32, w: u32| {
            let cap = gen.prefix().capacity_in(&Rect::new(x0, 0, w, h));
            cap.slices() >= target
                && cap.m_slices >= demand.m_slices
                && cap.bram36 >= demand.bram36
                && cap.dsp48 >= demand.dsp48
        };
        let mut best: Option<(u32, u32)> = None;
        let mut w = 1u32;
        for x0 in 0..width {
            if x0 + w > width {
                break;
            }
            while x0 + w <= width && !ok(x0, w) {
                w += 1;
            }
            if x0 + w > width {
                break;
            }
            match best {
                Some((_, bw)) if bw <= w => {}
                _ => best = Some((x0, w)),
            }
            if w > 1 {
                w -= 1;
            }
        }
        best
    }

    /// One place-and-route attempt at a given CF — the pre-engine reference
    /// path: regenerate the PBlock and re-run the full placement from scratch.
    /// A placement failure is counted under its `place.fail.*` key on `obs`
    /// (a PBlock-generation failure under `pblock.generate.failed`).
    #[allow(clippy::too_many_arguments)]
    fn attempt_reference(
        gen: &PBlockGenerator<'_>,
        stats: &NetlistStats,
        packing: &PackingReport,
        shape: &tms_place::ShapeReport,
        model: &PlacementModel,
        cf: f64,
        seed: u64,
        obs: &dyn Recorder,
    ) -> Result<(PBlock, Placement), Option<PlaceError>> {
        let Some(pblock) = generate_reference(gen, shape, cf) else {
            obs.count("pblock.generate.failed", 1);
            return Err(None);
        };
        match place_in_region(stats, packing, gen.device(), &pblock.rect, model, seed) {
            Ok(p) => Ok((pblock, p)),
            Err(e) => {
                obs.count(e.counter_key(), 1);
                Err(Some(e))
            }
        }
    }

    /// The pre-engine linear search, kept verbatim as the correctness baseline:
    /// every attempt regenerates its PBlock and runs the full placement.
    /// Identical results (and identical counters, minus
    /// `pblock.search.prescreened`) to [`min_feasible_cf_observed`].
    #[allow(clippy::too_many_arguments)]
    pub(super) fn min_feasible_cf_reference_observed(
        gen: &PBlockGenerator<'_>,
        stats: &NetlistStats,
        packing: &PackingReport,
        shape: &tms_place::ShapeReport,
        model: &PlacementModel,
        search: &CfSearch,
        seed: u64,
        obs: &dyn Recorder,
        name: &str,
    ) -> Option<CfResult> {
        let mut sp = span(obs, Phase::Place, name);
        let steps = ((search.max - search.start) / search.step).round() as u32;
        for i in 0..=steps {
            let cf = search.start + f64::from(i) * search.step;
            if let Ok((pblock, placement)) =
                attempt_reference(gen, stats, packing, shape, model, cf, seed, obs)
            {
                let attempts = i + 1;
                sp.field("cf", cf);
                sp.field("attempts", f64::from(attempts));
                obs.count("pblock.search.tool_runs", u64::from(attempts));
                obs.count("pblock.search.feasible", 1);
                obs.observe("flow.cf.placed", cf);
                return Some(CfResult {
                    cf,
                    pblock,
                    placement,
                    attempts,
                });
            }
        }
        sp.field("attempts", f64::from(steps + 1));
        obs.count("pblock.search.infeasible", 1);
        obs.count("pblock.search.wasted_runs", u64::from(steps + 1));
        None
    }
}

#[cfg(test)]
mod tests {
    use super::reference::min_feasible_cf_reference_observed;
    use super::*;
    use tms_device::Device;
    use tms_netlist::{ControlSet, NetlistBuilder};
    use tms_place::{place_in_region, quick_place};
    use tms_synth::pack;

    /// The counters the engine and the reference search must agree on:
    /// every failure reason plus the search totals. The engine's extra
    /// `pblock.search.prescreened` skip counter is the one permitted
    /// difference.
    const COUNTERS: [&str; 12] = [
        "place.fail.off-device",
        "place.fail.slices",
        "place.fail.m-slice",
        "place.fail.bram-column",
        "place.fail.dsp-column",
        "place.fail.carry-chain",
        "place.fail.congestion",
        "pblock.generate.failed",
        "pblock.search.tool_runs",
        "pblock.search.feasible",
        "pblock.search.infeasible",
        "pblock.search.wasted_runs",
    ];

    fn prepared(
        build: impl FnOnce(&mut NetlistBuilder),
    ) -> (NetlistStats, PackingReport, tms_place::ShapeReport) {
        let mut b = NetlistBuilder::new("s");
        build(&mut b);
        let stats = b.finish().stats();
        let packing = pack(&stats);
        let shape = quick_place(&stats, &packing);
        (stats, packing, shape)
    }

    #[test]
    fn min_cf_found_for_plain_logic() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            let cs = ControlSet::basic();
            for _ in 0..600 {
                b.lut(6);
            }
            for _ in 0..600 {
                b.ff(cs);
            }
        });
        let model = PlacementModel::deterministic();
        let r = min_feasible_cf(
            &gen,
            &stats,
            &packing,
            &shape,
            &model,
            &CfSearch::default(),
            1,
        )
        .expect("feasible");
        assert!((0.9..=2.0).contains(&r.cf), "cf = {}", r.cf);
        // One attempt per step up to the found CF.
        let expected = ((r.cf - 0.9) / 0.02).round() as u32 + 1;
        assert_eq!(r.attempts, expected);
    }

    #[test]
    fn min_cf_is_minimal() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            for i in 0..900u16 {
                b.ff(ControlSet::new(0, i % 24 + 1, 0));
            }
            for _ in 0..300 {
                b.lut(5);
            }
        });
        let model = PlacementModel::deterministic();
        let search = CfSearch::default();
        let r = min_feasible_cf(&gen, &stats, &packing, &shape, &model, &search, 1).unwrap();
        if r.cf > search.start + 1e-9 {
            // The step below the found CF must fail.
            let below = r.cf - search.step;
            let pb = gen.generate(&shape, below).unwrap();
            assert!(
                place_in_region(&stats, &packing, &dev, &pb.rect, &model, 1).is_err(),
                "cf {below} should be infeasible"
            );
        }
    }

    /// The engine search must reproduce the reference search bit-for-bit:
    /// same CF, same attempt count, same PBlock and placement, and the
    /// same per-reason failure counters — across modules that exercise
    /// every failure class, both models, and several seeds.
    #[test]
    fn engine_matches_reference_bit_for_bit() {
        use tms_obs::AggregatingSink;
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let modules = [
            prepared(|b| {
                let cs = ControlSet::basic();
                for _ in 0..600 {
                    b.lut(6);
                }
                for _ in 0..600 {
                    b.ff(cs);
                }
            }),
            prepared(|b| {
                for _ in 0..12 {
                    b.carry_chain(36);
                }
                for _ in 0..30 {
                    b.lutram(ControlSet::basic());
                }
                b.bram();
                b.dsp();
            }),
            prepared(|b| {
                for _ in 0..500 {
                    b.bram(); // hopeless: triggers the bulk prescreen
                }
            }),
            prepared(|_| {}),
        ];
        for model in [PlacementModel::default(), PlacementModel::deterministic()] {
            for seed in [1u64, 7] {
                for search in [CfSearch::default(), CfSearch::wide()] {
                    for (stats, packing, shape) in &modules {
                        let ref_sink = AggregatingSink::new();
                        let eng_sink = AggregatingSink::new();
                        let reference = min_feasible_cf_reference_observed(
                            &gen, stats, packing, shape, &model, &search, seed, &ref_sink, "m",
                        );
                        let engine = min_feasible_cf_observed(
                            &gen, stats, packing, shape, &model, &search, seed, &eng_sink, "m",
                        );
                        match (&reference, &engine) {
                            (Some(a), Some(b)) => {
                                assert_eq!(a.cf.to_bits(), b.cf.to_bits());
                                assert_eq!(a.attempts, b.attempts);
                                assert_eq!(a.pblock, b.pblock);
                                assert_eq!(a.placement, b.placement);
                            }
                            (None, None) => {}
                            _ => panic!("feasibility diverged: {reference:?} vs {engine:?}"),
                        }
                        for k in COUNTERS {
                            assert_eq!(
                                ref_sink.counter(k),
                                eng_sink.counter(k),
                                "counter {k} diverged (seed {seed})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// The prescreened engine sweep must reproduce the reference sweep's
    /// exact per-module `CfResult`s and per-reason failure counters on the
    /// full cnvW1A1 module set (the wide labelling sweep).
    #[test]
    fn engine_sweep_is_bit_identical_on_cnvw1a1() {
        use tms_obs::AggregatingSink;
        use tms_place::detail::module_key;
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let model = PlacementModel::default();
        let search = CfSearch::wide();
        let design = tms_cnn::cnvw1a1(1);
        assert_eq!(design.modules.len(), 74);
        let ref_sink = AggregatingSink::new();
        let eng_sink = AggregatingSink::new();
        for m in &design.modules {
            let stats = m.netlist.stats();
            let packing = pack(&stats);
            let shape = quick_place(&stats, &packing);
            let key = module_key(&m.name, 1);
            let name = &m.name;
            let reference = min_feasible_cf_reference_observed(
                &gen, &stats, &packing, &shape, &model, &search, key, &ref_sink, name,
            );
            let engine = min_feasible_cf_observed(
                &gen, &stats, &packing, &shape, &model, &search, key, &eng_sink, name,
            );
            match (&reference, &engine) {
                (Some(a), Some(b)) => {
                    assert_eq!(a.cf.to_bits(), b.cf.to_bits(), "{name}: cf diverged");
                    assert_eq!(a.attempts, b.attempts, "{name}: attempts diverged");
                    assert_eq!(a.pblock, b.pblock, "{name}: pblock diverged");
                    assert_eq!(a.placement, b.placement, "{name}: placement diverged");
                }
                (None, None) => {}
                _ => panic!("{name}: feasibility diverged"),
            }
        }
        for k in COUNTERS {
            assert_eq!(
                ref_sink.counter(k),
                eng_sink.counter(k),
                "counter {k} diverged"
            );
        }
        // The reference never prescreens; the engine does.
        assert_eq!(ref_sink.counter("pblock.search.prescreened"), 0);
        assert!(eng_sink.counter("pblock.search.prescreened") > 0);
    }

    #[test]
    fn guided_first_try_when_prediction_is_generous() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            for _ in 0..400 {
                b.lut(6);
            }
        });
        let model = PlacementModel::deterministic();
        let r = guided_search(&gen, &stats, &packing, &shape, &model, 2.0, 3.0, 1).unwrap();
        assert!(r.first_try);
        assert_eq!(r.attempts, 1);
        assert_eq!(r.cf, 2.0);
    }

    #[test]
    fn guided_recovers_from_underestimate() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            let cs = ControlSet::basic();
            for _ in 0..800 {
                b.lut(6);
            }
            for _ in 0..1200 {
                b.ff(cs);
            }
        });
        let model = PlacementModel::deterministic();
        let min = min_feasible_cf(
            &gen,
            &stats,
            &packing,
            &shape,
            &model,
            &CfSearch::default(),
            1,
        )
        .unwrap();
        // Predict clearly below the minimum.
        let predicted = (min.cf - 0.3).max(0.1);
        let r = guided_search(&gen, &stats, &packing, &shape, &model, predicted, 3.0, 1).unwrap();
        assert!(!r.first_try);
        assert!(
            r.cf >= min.cf - 0.021,
            "guided cf {} << min {}",
            r.cf,
            min.cf
        );
        assert!(
            r.cf <= min.cf + 0.1 + 1e-9,
            "guided cf {} too loose vs {}",
            r.cf,
            min.cf
        );
        assert!(r.attempts >= 2);
    }

    #[test]
    fn guided_steps_stay_on_the_cf_grid() {
        // The drift regression: with `cf += 0.1` accumulation, an on-grid
        // prediction like 0.5 visited CFs like 1.7000000000000004. Every
        // coarse and fine step past the prediction must now sit exactly on
        // the 0.02 grid.
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            for i in 0..2000u16 {
                b.ff(ControlSet::new(0, i % 40 + 1, 0));
            }
            for _ in 0..500 {
                b.lut(6);
            }
        });
        let model = PlacementModel::deterministic();
        let r = guided_search(&gen, &stats, &packing, &shape, &model, 0.5, 3.0, 1).unwrap();
        assert!(!r.first_try, "0.5 should underestimate this module");
        let on_grid = (r.cf * 50.0).round() / 50.0;
        assert_eq!(
            r.cf.to_bits(),
            on_grid.to_bits(),
            "settled cf {} is off the 0.02 grid",
            r.cf
        );
    }

    #[test]
    fn impossible_module_returns_none() {
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            for _ in 0..500 {
                b.bram();
            }
        });
        let model = PlacementModel::deterministic();
        assert!(min_feasible_cf(
            &gen,
            &stats,
            &packing,
            &shape,
            &model,
            &CfSearch::default(),
            1
        )
        .is_none());
        assert!(guided_search(&gen, &stats, &packing, &shape, &model, 1.0, 3.0, 1).is_none());
    }

    #[test]
    fn observed_search_reconciles_counters_with_the_result() {
        use tms_obs::AggregatingSink;
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            let cs = ControlSet::basic();
            for _ in 0..600 {
                b.lut(6);
            }
            for _ in 0..600 {
                b.ff(cs);
            }
        });
        let model = PlacementModel::deterministic();
        let sink = AggregatingSink::new();
        let r = min_feasible_cf_observed(
            &gen,
            &stats,
            &packing,
            &shape,
            &model,
            &CfSearch::default(),
            1,
            &sink,
            "m0",
        )
        .expect("feasible");
        assert_eq!(sink.phase_spans(tms_obs::Phase::Place), 1);
        assert_eq!(
            sink.counter("pblock.search.tool_runs"),
            u64::from(r.attempts)
        );
        assert_eq!(sink.counter("pblock.search.feasible"), 1);
        assert_eq!(sink.counter("pblock.search.infeasible"), 0);
        // Every failed attempt before the minimum left a classified reason.
        let fail_kinds = [
            "place.fail.off-device",
            "place.fail.slices",
            "place.fail.m-slice",
            "place.fail.bram-column",
            "place.fail.dsp-column",
            "place.fail.carry-chain",
            "place.fail.congestion",
            "pblock.generate.failed",
        ];
        let fails: u64 = fail_kinds.iter().map(|k| sink.counter(k)).sum();
        assert_eq!(fails, u64::from(r.attempts) - 1);
        // Prescreened attempts are a subset of the classified failures.
        assert!(sink.counter("pblock.search.prescreened") <= fails);
        let (n, sum) = sink.observation("flow.cf.placed").unwrap();
        assert_eq!(n, 1);
        assert!((sum - r.cf).abs() < 1e-9);
    }

    #[test]
    fn observed_guided_search_counts_first_try_and_cf_gap() {
        use tms_obs::AggregatingSink;
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            for _ in 0..400 {
                b.lut(6);
            }
        });
        let model = PlacementModel::deterministic();
        let sink = AggregatingSink::new();
        let r = guided_search_observed(
            &gen, &stats, &packing, &shape, &model, 2.0, 3.0, 1, &sink, "m1",
        )
        .unwrap();
        assert!(r.first_try);
        assert_eq!(sink.counter("pblock.search.first_try"), 1);
        assert_eq!(sink.counter("pblock.search.tool_runs"), 1);
        assert_eq!(sink.observation("flow.cf.requested"), Some((1, 2.0)));
        assert_eq!(sink.observation("flow.cf.placed"), Some((1, 2.0)));
    }

    #[test]
    fn observed_infeasible_search_counts_wasted_runs() {
        use tms_obs::AggregatingSink;
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            for _ in 0..500 {
                b.bram();
            }
        });
        let model = PlacementModel::deterministic();
        let sink = AggregatingSink::new();
        let search = CfSearch::default();
        assert!(min_feasible_cf_observed(
            &gen, &stats, &packing, &shape, &model, &search, 1, &sink, "hopeless",
        )
        .is_none());
        let steps = ((search.max - search.start) / search.step).round() as u64 + 1;
        assert_eq!(sink.counter("pblock.search.infeasible"), 1);
        assert_eq!(sink.counter("pblock.search.wasted_runs"), steps);
        assert_eq!(sink.counter("pblock.search.tool_runs"), 0);
        // Every wasted run left a classified reason: either the generator
        // could not produce a PBlock at that CF or placement failed.
        assert_eq!(
            sink.counter("place.fail.bram-column") + sink.counter("pblock.generate.failed"),
            steps
        );
        // This module's BRAM demand exceeds the whole device, so every
        // attempt was resolved by the bulk prescreen.
        assert_eq!(sink.counter("pblock.search.prescreened"), steps);
    }

    #[test]
    fn search_attempts_track_distance_from_start() {
        // A module needing a high CF costs proportionally more tool runs
        // when started from a constant low CF — the Section VIII effect.
        let dev = Device::xc7z020();
        let gen = PBlockGenerator::new(&dev, true);
        let (stats, packing, shape) = prepared(|b| {
            for i in 0..2000u16 {
                b.ff(ControlSet::new(0, i % 40 + 1, 0));
            }
            for _ in 0..500 {
                b.lut(6);
            }
        });
        let model = PlacementModel::deterministic();
        let from_low = min_feasible_cf(
            &gen,
            &stats,
            &packing,
            &shape,
            &model,
            &CfSearch {
                start: 0.9,
                step: 0.02,
                max: 3.0,
            },
            1,
        )
        .unwrap();
        let guided = guided_search(
            &gen,
            &stats,
            &packing,
            &shape,
            &model,
            from_low.cf - 0.05,
            3.0,
            1,
        )
        .unwrap();
        assert!(guided.attempts < from_low.attempts);
    }
}
