//! Shared fabric machinery of the stitchers: legal-anchor candidate
//! tables with a skip-ahead free-anchor scan, the per-row bitset
//! occupancy grid, and incremental wirelength accounting.
//!
//! Both the single-run annealer ([`crate::sa`]) and the portfolio search
//! problem ([`crate::search`]) move macros over the same device model;
//! this module holds the pieces they share so the two stay in exact
//! agreement about legality and cost.

use crate::problem::StitchProblem;
use tms_device::{CapacityPrefix, Device};

/// Per-module candidate anchor positions: the x columns whose signature
/// matches, crossed with y rows at the module's vertical alignment.
pub(crate) struct Candidates {
    pub(crate) xs: Vec<u32>,
    pub(crate) y_step: u32,
    pub(crate) y_max: u32, // inclusive max anchor row
}

impl Candidates {
    pub(crate) fn count(&self) -> u64 {
        if self.xs.is_empty() {
            return 0;
        }
        self.xs.len() as u64 * u64::from(self.y_max / self.y_step + 1)
    }

    pub(crate) fn nth(&self, idx: u64) -> (u32, u32) {
        let ys = u64::from(self.y_max / self.y_step + 1);
        let x = self.xs[(idx / ys) as usize];
        let y = (idx % ys) as u32 * self.y_step;
        (x, y)
    }

    /// Candidate index closest to a position (for range-limited moves).
    pub(crate) fn index_near(&self, (x, y): (u32, u32)) -> u64 {
        let ys = u64::from(self.y_max / self.y_step + 1);
        let xi = self.xs.partition_point(|&c| c < x).min(self.xs.len() - 1) as u64;
        let yi = u64::from((y / self.y_step).min(self.y_max / self.y_step));
        xi * ys + yi
    }

    /// The first anchor, in the circular order `start, start + 1, …`,
    /// where a `w × h` footprint is free on `grid` (`ignore` as in
    /// [`Grid::is_free`]).
    ///
    /// Anchors of one column are consecutive in that order, so when a
    /// test fails at conflict row `r` the scan skips every later anchor
    /// of the column that still covers `r`: each would fail on the same
    /// cell. The result is the one a test of every anchor would find.
    pub(crate) fn first_free(
        &self,
        grid: &Grid,
        start: u64,
        w: u32,
        h: u32,
        ignore: Option<(u32, u32)>,
    ) -> Option<(u32, u32)> {
        let count = self.count();
        let ys = u64::from(self.y_max / self.y_step + 1);
        let mut k = 0;
        while k < count {
            let idx = (start + k) % count;
            let (x, y) = self.nth(idx);
            let Some(row) = grid.conflict_row(x, y, w, h, ignore) else {
                return Some((x, y));
            };
            // Rows y..=row of this column are blocked: resume at the first
            // anchor above `row`, or at the next column.
            let next = (u64::from(row / self.y_step) + 1).min(ys);
            k += next - idx % ys;
        }
        None
    }
}

/// Build the candidate table for every unique module of `problem`.
pub(crate) fn build_candidates(device: &Device, problem: &StitchProblem) -> Vec<Candidates> {
    let rows = device.rows();
    // One prefix build serves every module: the count-prefiltered anchor
    // search skips origins whose column-kind counts already mismatch.
    let prefix = CapacityPrefix::build(device);
    problem
        .modules
        .iter()
        .map(|m| {
            let xs = prefix.matching_anchors(device, &m.signature);
            let y_step = m.signature.y_alignment();
            let y_max = rows.saturating_sub(m.height);
            Candidates { xs, y_step, y_max }
        })
        .collect()
}

/// Instance → indices of the nets it terminates.
pub(crate) fn build_incident(problem: &StitchProblem) -> Vec<Vec<u32>> {
    let mut incident: Vec<Vec<u32>> = vec![Vec::new(); problem.instances.len()];
    for (ni, net) in problem.nets.iter().enumerate() {
        for &e in &net.endpoints {
            incident[e as usize].push(ni as u32);
        }
    }
    incident
}

/// Occupancy of the fabric as per-row `u64` bitsets: bit `x % 64` of
/// word `x / 64` in row `y` is set while a placed footprint covers cell
/// `(x, y)`.
///
/// A rectangle test reads `⌈w/64⌉ + 1` words per row at most instead of
/// `w` cells, and a clone (portfolio snapshots, EA populations) copies
/// one bit per cell. The grid records occupancy only, not owners: a
/// moving instance names its own current anchor as the `ignore`
/// footprint, and a same-module swap leaves the grid untouched.
#[derive(Clone, PartialEq)]
pub(crate) struct Grid {
    words: usize,
    bits: Vec<u64>,
}

/// The bits of columns `x..x + w` that fall in word `word` of a row.
fn span_mask(word: usize, x: u32, w: u32) -> u64 {
    let lo = word as u32 * 64;
    let (a, b) = (x.max(lo), (x + w).min(lo + 64));
    if a >= b {
        return 0;
    }
    (u64::MAX >> (64 - (b - a))) << (a - lo)
}

impl Grid {
    pub(crate) fn new(w: u32, h: u32) -> Self {
        let words = w.div_ceil(64) as usize;
        Grid {
            words,
            bits: vec![0; words * h as usize],
        }
    }

    /// Whether the `bw × bh` rectangle at `(x, y)` is free. `ignore` is
    /// the anchor of a `bw × bh` footprint whose cells count as free —
    /// the current position of the instance being moved.
    pub(crate) fn is_free(
        &self,
        x: u32,
        y: u32,
        bw: u32,
        bh: u32,
        ignore: Option<(u32, u32)>,
    ) -> bool {
        self.conflict_row(x, y, bw, bh, ignore).is_none()
    }

    /// The highest row of the rectangle holding an occupied cell outside
    /// `ignore` (see [`Grid::is_free`]), or `None` if the rectangle is free.
    pub(crate) fn conflict_row(
        &self,
        x: u32,
        y: u32,
        bw: u32,
        bh: u32,
        ignore: Option<(u32, u32)>,
    ) -> Option<u32> {
        if bw == 0 {
            return None;
        }
        // Word by word, each mask computed once; a later word only needs
        // the rows above the highest conflict found so far.
        let ignored_rows = ignore.map_or(0..0, |(_, iy)| iy..iy + bh);
        let mut highest = None;
        for wi in x as usize / 64..=(x + bw - 1) as usize / 64 {
            let mask = span_mask(wi, x, bw);
            let unmasked = mask & !ignore.map_or(0, |(ix, _)| span_mask(wi, ix, bw));
            let lo = highest.map_or(y, |r| r + 1);
            for yy in (lo..y + bh).rev() {
                let m = if ignored_rows.contains(&yy) {
                    unmasked
                } else {
                    mask
                };
                if self.bits[yy as usize * self.words + wi] & m != 0 {
                    highest = Some(yy);
                    break;
                }
            }
        }
        highest
    }

    /// Mark the `bw × bh` rectangle at `(x, y)` occupied.
    pub(crate) fn fill(&mut self, x: u32, y: u32, bw: u32, bh: u32) {
        self.update(x, y, bw, bh, |word, mask| *word |= mask);
    }

    /// Mark the `bw × bh` rectangle at `(x, y)` free.
    pub(crate) fn clear(&mut self, x: u32, y: u32, bw: u32, bh: u32) {
        self.update(x, y, bw, bh, |word, mask| *word &= !mask);
    }

    /// Whether some cell occupied here is free in `later`.
    #[cfg(test)]
    pub(crate) fn frees_any(&self, later: &Grid) -> bool {
        self.bits.iter().zip(&later.bits).any(|(a, b)| a & !b != 0)
    }

    fn update(&mut self, x: u32, y: u32, bw: u32, bh: u32, op: impl Fn(&mut u64, u64)) {
        if bw == 0 {
            return;
        }
        for wi in x as usize / 64..=(x + bw - 1) as usize / 64 {
            let mask = span_mask(wi, x, bw);
            for yy in y..y + bh {
                op(&mut self.bits[yy as usize * self.words + wi], mask);
            }
        }
    }
}

/// Centre of instance `inst` when placed at `pos`.
pub(crate) fn center(
    problem: &StitchProblem,
    inst: u32,
    pos: Option<(u32, u32)>,
) -> Option<(f64, f64)> {
    pos.map(|(x, y)| {
        let b = problem.block_of(inst);
        (
            f64::from(x) + f64::from(b.width) / 2.0,
            f64::from(y) + f64::from(b.height) / 2.0,
        )
    })
}

/// Half-perimeter wirelength of net `net_idx` under `positions`.
pub(crate) fn net_cost(
    problem: &StitchProblem,
    positions: &[Option<(u32, u32)>],
    net_idx: u32,
) -> f64 {
    let net = &problem.nets[net_idx as usize];
    let mut n = 0u32;
    let (mut x0, mut x1, mut y0, mut y1) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for &e in &net.endpoints {
        if let Some((cx, cy)) = center(problem, e, positions[e as usize]) {
            n += 1;
            x0 = x0.min(cx);
            x1 = x1.max(cx);
            y0 = y0.min(cy);
            y1 = y1.max(cy);
        }
    }
    if n < 2 {
        0.0
    } else {
        net.weight * ((x1 - x0) + (y1 - y0))
    }
}

/// Total wirelength under `positions`.
pub(crate) fn total_cost(problem: &StitchProblem, positions: &[Option<(u32, u32)>]) -> f64 {
    (0..problem.nets.len() as u32)
        .map(|i| net_cost(problem, positions, i))
        .sum()
}

/// Sum of the costs of the nets incident to `inst`.
pub(crate) fn incident_cost(
    problem: &StitchProblem,
    incident: &[Vec<u32>],
    positions: &[Option<(u32, u32)>],
    inst: u32,
) -> f64 {
    incident[inst as usize]
        .iter()
        .map(|&n| net_cost(problem, positions, n))
        .sum()
}
