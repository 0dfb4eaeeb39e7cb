//! Property tests: invariants of the stitcher for arbitrary problems.

#![cfg(test)]

use crate::fabric::{Candidates, Grid};
use crate::problem::{MacroBlock, StitchProblem};
use crate::sa::{stitch, StitchConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tms_device::{Device, Rect};

/// Cell-by-cell occupancy model: owner tag per cell (0 = free, else
/// footprint index + 1), mirrored into a [`Grid`] as footprints land.
struct Oracle {
    w: u32,
    h: u32,
    owner: Vec<u32>,
    grid: Grid,
    /// Placed footprints as `(x, y, w, h)`.
    rects: Vec<(u32, u32, u32, u32)>,
}

impl Oracle {
    /// A `w × h` fabric with up to `tries` random footprints of up to
    /// 72×24 cells dropped on it (so they straddle and fill whole words).
    fn random(w: u32, h: u32, tries: u32, rng: &mut StdRng) -> Self {
        let mut o = Oracle {
            w,
            h,
            owner: vec![0; (w * h) as usize],
            grid: Grid::new(w, h),
            rects: Vec::new(),
        };
        for _ in 0..tries {
            let bw = if rng.gen_range(0..8u32) == 0 {
                72
            } else {
                rng.gen_range(1..41u32)
            }
            .min(w);
            let bh = rng.gen_range(1..25u32).min(h);
            let (x, y) = (rng.gen_range(0..=w - bw), rng.gen_range(0..=h - bh));
            if o.is_free(x, y, bw, bh, None) {
                o.rects.push((x, y, bw, bh));
                let tag = o.rects.len() as u32;
                for yy in y..y + bh {
                    for xx in x..x + bw {
                        o.owner[(yy * w + xx) as usize] = tag;
                    }
                }
                o.grid.fill(x, y, bw, bh);
            }
        }
        o
    }

    /// Free test by cell reads; `ignore` names a placed footprint index.
    fn is_free(&self, x: u32, y: u32, bw: u32, bh: u32, ignore: Option<usize>) -> bool {
        let own = ignore.map_or(0, |i| i as u32 + 1);
        (y..y + bh).all(|yy| {
            (x..x + bw).all(|xx| {
                let c = self.owner[(yy * self.w + xx) as usize];
                c == 0 || c == own
            })
        })
    }

    /// A random `bw × bh` query at or near placed footprint `i` (so it
    /// overlaps its own ignore rectangle), or anywhere.
    fn query(&self, rng: &mut StdRng, i: usize) -> (u32, u32) {
        let (ix, iy, bw, bh) = self.rects[i];
        let x = (ix + rng.gen_range(0..bw + 4))
            .saturating_sub(2)
            .min(self.w - bw);
        let y = (iy + rng.gen_range(0..bh + 4))
            .saturating_sub(2)
            .min(self.h - bh);
        if rng.gen_range(0..4u32) == 0 {
            (
                rng.gen_range(0..=self.w - bw),
                rng.gen_range(0..=self.h - bh),
            )
        } else {
            (x, y)
        }
    }
}

/// Fabric widths under test: within one word, just over one word, and
/// the xc7z045's width of over two words.
fn width_of(i: usize) -> u32 {
    [60, 89, Device::xc7z045().width()][i]
}

/// Arbitrary stitching problems on the xc7z020: up to 40 instances of up
/// to 4 unique block shapes, chain-connected.
fn arb_problem() -> impl Strategy<Value = StitchProblem> {
    (
        proptest::collection::vec((1u32..8, 2u32..30, 0u32..3), 1..4),
        1usize..40,
        any::<u64>(),
    )
        .prop_map(|(shapes, n_inst, seed)| {
            let dev = Device::xc7z020();
            let modules: Vec<MacroBlock> = shapes
                .iter()
                .enumerate()
                .map(|(i, &(w, h, x0))| MacroBlock {
                    name: format!("m{i}"),
                    signature: dev.signature(x0 * 7, w),
                    width: w,
                    height: h,
                    used_slices: w * h / 2,
                    irregularity: 0.3,
                })
                .collect();
            let n_mod = modules.len();
            let mut p = StitchProblem::new(modules);
            let ids: Vec<u32> = (0..n_inst)
                .map(|i| p.add_instance((i + seed as usize) % n_mod))
                .collect();
            for pair in ids.windows(2) {
                p.add_net(pair, 1.0 + (seed % 7) as f64);
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The word-wide free test agrees with a cell-by-cell read on random
    /// occupancy, with and without an `ignore` footprint overlapping the
    /// query, and fill/clear keep the grid equal to the cell model.
    #[test]
    fn grid_free_test_matches_cell_oracle(wi in 0usize..3, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut o = Oracle::random(width_of(wi), 60, 80, &mut rng);
        prop_assume!(!o.rects.is_empty());
        for _ in 0..400 {
            let i = rng.gen_range(0..o.rects.len());
            let (ix, iy, bw, bh) = o.rects[i];
            let (x, y) = o.query(&mut rng, i);
            let ignore = (rng.gen_range(0..2u32) == 0).then_some(i);
            let anchor = ignore.map(|_| (ix, iy));
            let want = o.is_free(x, y, bw, bh, ignore);
            prop_assert_eq!(o.grid.is_free(x, y, bw, bh, anchor), want);
            let row = o.grid.conflict_row(x, y, bw, bh, anchor);
            if let Some(r) = row {
                // The reported row is the highest one holding a conflict.
                prop_assert!(!o.is_free(x, r, bw, 1, ignore));
                prop_assert!(o.is_free(x, r + 1, bw, y + bh - r - 1, ignore));
            }
        }
        // Clearing a footprint and filling it back round-trips the grid.
        let before = o.grid.clone();
        for &(x, y, bw, bh) in &o.rects {
            o.grid.clear(x, y, bw, bh);
            prop_assert!(o.grid.is_free(x, y, bw, bh, None));
            o.grid.fill(x, y, bw, bh);
        }
        prop_assert!(o.grid == before);
    }

    /// The skip-ahead scan finds exactly the anchor a linear scan over
    /// every candidate finds, for every start index.
    #[test]
    fn first_free_matches_linear_scan(wi in 0usize..3, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = width_of(wi);
        let o = Oracle::random(w, 50, 40, &mut rng);
        prop_assume!(!o.rects.is_empty());
        let i = rng.gen_range(0..o.rects.len());
        let (ix, iy, bw, bh) = o.rects[i];
        let mut xs: Vec<u32> = (0..=w - bw).filter(|_| rng.gen_range(0..3u32) > 0).collect();
        xs.dedup();
        prop_assume!(!xs.is_empty());
        let cand = Candidates { xs, y_step: rng.gen_range(1..6u32), y_max: 50 - bh };
        let count = cand.count();
        for ignore in [None, Some(i)] {
            let anchor = ignore.map(|_| (ix, iy));
            for start in 0..count {
                let linear = (0..count)
                    .map(|k| cand.nth((start + k) % count))
                    .find(|&(x, y)| o.is_free(x, y, bw, bh, ignore));
                prop_assert_eq!(cand.first_free(&o.grid, start, bw, bh, anchor), linear);
            }
        }
    }

    /// Placed blocks never overlap and never leave the device, and every
    /// placed block sits on a legal anchor (matching column signature).
    #[test]
    fn placements_are_legal(problem in arb_problem(), seed in 0u64..500) {
        let dev = Device::xc7z020();
        let r = stitch(&dev, &problem, &StitchConfig::fast(seed));
        let mut rects: Vec<Rect> = Vec::new();
        for (i, pos) in r.positions.iter().enumerate() {
            let Some((x, y)) = pos else { continue };
            let b = problem.block_of(i as u32);
            let rect = Rect::new(*x, *y, b.width, b.height);
            prop_assert!(dev.bounds().contains(&rect), "block {i} off device");
            prop_assert_eq!(
                &dev.signature(*x, b.width),
                &b.signature,
                "block {} not on a legal anchor", i
            );
            prop_assert_eq!(*y % b.signature.y_alignment(), 0);
            for other in &rects {
                prop_assert!(!rect.overlaps(other), "overlap at block {}", i);
            }
            rects.push(rect);
        }
    }

    /// Bookkeeping is consistent: placed + unplaced = instances; late
    /// insertions are counted and kept; the final cost equals a
    /// from-scratch recomputation; SA never worsens the initial cost.
    #[test]
    fn accounting_is_consistent(problem in arb_problem(), seed in 0u64..500) {
        let dev = Device::xc7z020();
        let cfg = StitchConfig::fast(seed);
        let r = stitch(&dev, &problem, &cfg);
        prop_assert_eq!(r.placed_count + r.unplaced_count, problem.instances.len());
        prop_assert_eq!(r.unplaced.len(), r.unplaced_count);
        // Placed blocks never leave the fabric: the result keeps the
        // greedy placement plus every late insertion.
        let greedy = stitch(&dev, &problem, &StitchConfig { max_moves: 0, ..cfg });
        prop_assert_eq!(r.placed_count as u64, greedy.placed_count as u64 + r.late_insertions);
        if r.late_insertions == 0 {
            // Without late insertions the anneal can only improve the cost.
            prop_assert!(r.final_cost <= r.initial_cost + 1e-9);
        }
        prop_assert!(r.final_cost >= 0.0);
        prop_assert!(r.convergence_move <= r.total_moves);
        // Recompute the cost from scratch.
        let mut expected = 0.0;
        for (ends, weight) in problem.nets.iter().map(|n| (&n.endpoints, n.weight)) {
            let pts: Vec<(f64, f64)> = ends
                .iter()
                .filter_map(|&e| {
                    r.positions[e as usize].map(|(x, y)| {
                        let b = problem.block_of(e);
                        (
                            f64::from(x) + f64::from(b.width) / 2.0,
                            f64::from(y) + f64::from(b.height) / 2.0,
                        )
                    })
                })
                .collect();
            if pts.len() >= 2 {
                let x0 = pts.iter().map(|p| p.0).fold(f64::MAX, f64::min);
                let x1 = pts.iter().map(|p| p.0).fold(f64::MIN, f64::max);
                let y0 = pts.iter().map(|p| p.1).fold(f64::MAX, f64::min);
                let y1 = pts.iter().map(|p| p.1).fold(f64::MIN, f64::max);
                expected += weight * ((x1 - x0) + (y1 - y0));
            }
        }
        prop_assert!((r.final_cost - expected).abs() < 1e-6,
            "tracked {} vs recomputed {}", r.final_cost, expected);
    }
}
