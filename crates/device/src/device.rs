//! The device model: a named sequence of typed columns.

use crate::capacity::{SliceCapacity, CLOCK_REGION_ROWS, DSP48_ROWS, RAMB36_ROWS};
use crate::geom::Rect;
use crate::kinds::ColumnKind;
use core::fmt;

/// Device identifiers. The paper evaluates on the xc7z020 and xc7z045; the
/// rest of the Zynq-7000 family is modelled so design-space exploration can
/// move between parts (the Section III discussion of "switching between
/// FPGAs to match RW requirements").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DeviceName {
    /// Zynq-7000 xc7z010: the smallest dual-core part (≈4.4k slices).
    Xc7z010,
    /// Zynq-7000 xc7z020: the part the cnvW1A1 network fills to 99.98%.
    Xc7z020,
    /// Zynq-7000 xc7z030: a mid-range Kintex-fabric part (≈19.6k slices).
    Xc7z030,
    /// Zynq-7000 xc7z045: the part used for the estimator-impact experiment.
    Xc7z045,
    /// Zynq-7000 xc7z100: the largest part of the family (≈69k slices).
    Xc7z100,
    /// A synthetic UltraScale-like fabric: denser M-slice mix, more BRAM
    /// columns per slice column, a heavier DSP ratio.
    UltraScaleLike,
    /// A small synthetic fabric for unit tests.
    TestFabric,
}

impl fmt::Display for DeviceName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceName::Xc7z010 => "xc7z010",
            DeviceName::Xc7z020 => "xc7z020",
            DeviceName::Xc7z030 => "xc7z030",
            DeviceName::Xc7z045 => "xc7z045",
            DeviceName::Xc7z100 => "xc7z100",
            DeviceName::UltraScaleLike => "ultrascale-like",
            DeviceName::TestFabric => "test-fabric",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for DeviceName {
    type Err = String;

    /// The inverse of [`Display`](fmt::Display): `"xc7z020"` parses to
    /// [`DeviceName::Xc7z020`]; any other string is an
    /// `unknown device '<name>'` error.
    fn from_str(s: &str) -> Result<DeviceName, String> {
        [
            DeviceName::Xc7z010,
            DeviceName::Xc7z020,
            DeviceName::Xc7z030,
            DeviceName::Xc7z045,
            DeviceName::Xc7z100,
            DeviceName::UltraScaleLike,
            DeviceName::TestFabric,
        ]
        .into_iter()
        .find(|name| name.to_string() == s)
        .ok_or_else(|| format!("unknown device '{s}'"))
    }
}

/// One fabric column: a vertical stack of sites of a single kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Column {
    /// Resource type of every site in this column.
    pub kind: ColumnKind,
    /// Column index (x coordinate) on the device.
    pub x: u32,
}

/// The sequence of column kinds under a rectangular footprint.
///
/// Two footprints are mutually relocatable exactly when their signatures are
/// equal — the implementation of the paper's observation that *"PBlocks can
/// be relocated only on columns having the same resource type"*.
#[derive(Debug, Clone, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct ColumnSignature(pub Vec<ColumnKind>);

impl ColumnSignature {
    /// Width of the footprint in columns.
    pub fn width(&self) -> u32 {
        self.0.len() as u32
    }

    /// Whether the signature includes at least one column of `kind`.
    pub fn contains(&self, kind: ColumnKind) -> bool {
        self.0.contains(&kind)
    }

    /// The vertical alignment step required so that multi-row sites (BRAM,
    /// DSP) inside the footprint land on site boundaries after relocation.
    pub fn y_alignment(&self) -> u32 {
        let mut step = 1;
        if self.contains(ColumnKind::Dsp) {
            step = lcm(step, DSP48_ROWS);
        }
        if self.contains(ColumnKind::Bram) {
            step = lcm(step, RAMB36_ROWS);
        }
        step
    }
}

impl fmt::Display for ColumnSignature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for k in &self.0 {
            write!(f, "{}", k.mnemonic())?;
        }
        Ok(())
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u32, b: u32) -> u32 {
    a / gcd(a, b) * b
}

/// A modelled FPGA device: column sequence plus uniform row count.
#[derive(Debug, Clone)]
pub struct Device {
    name: DeviceName,
    columns: Vec<Column>,
    rows: u32,
}

impl Device {
    /// Build a device from an explicit pattern of column kinds.
    pub fn from_pattern(name: DeviceName, pattern: &[ColumnKind], rows: u32) -> Self {
        assert!(rows > 0, "device must have at least one row");
        assert!(!pattern.is_empty(), "device must have at least one column");
        let columns = pattern
            .iter()
            .enumerate()
            .map(|(x, &kind)| Column { kind, x: x as u32 })
            .collect();
        Device {
            name,
            columns,
            rows,
        }
    }

    /// Procedurally construct a columnar fabric: `slice_cols` CLB columns
    /// with every `m_period`-th column M-type, with `bram_cols` /
    /// `dsp_cols` / `clock_cols` special columns evenly interspersed.
    fn columnar(
        name: DeviceName,
        slice_cols: u32,
        rows: u32,
        m_period: u32,
        bram_cols: u32,
        dsp_cols: u32,
        clock_cols: u32,
    ) -> Self {
        let mut pattern: Vec<ColumnKind> = (0..slice_cols)
            .map(|i| {
                if i % m_period == m_period - 1 {
                    ColumnKind::ClbM
                } else {
                    ColumnKind::ClbL
                }
            })
            .collect();
        // Insert special columns at evenly spaced positions, right-to-left so
        // earlier insertions do not shift later target indices.
        let inserts = |count: u32, kind: ColumnKind, pattern: &mut Vec<ColumnKind>| {
            if count == 0 {
                return;
            }
            let len = pattern.len() as u32;
            let mut positions: Vec<u32> = (0..count).map(|i| (i + 1) * len / (count + 1)).collect();
            positions.sort_unstable_by(|a, b| b.cmp(a));
            for p in positions {
                pattern.insert(p as usize, kind);
            }
        };
        inserts(bram_cols, ColumnKind::Bram, &mut pattern);
        inserts(dsp_cols, ColumnKind::Dsp, &mut pattern);
        inserts(clock_cols, ColumnKind::Clock, &mut pattern);
        Device::from_pattern(name, &pattern, rows)
    }

    /// A Zynq-7000-style fabric: every third CLB column is M-type.
    fn zynq_like(
        name: DeviceName,
        slice_cols: u32,
        rows: u32,
        bram_cols: u32,
        dsp_cols: u32,
        clock_cols: u32,
    ) -> Self {
        Device::columnar(name, slice_cols, rows, 3, bram_cols, dsp_cols, clock_cols)
    }

    /// The xc7z010 model: ≈4.4k slices, 100 rows (2 clock regions).
    pub fn xc7z010() -> Self {
        Device::zynq_like(DeviceName::Xc7z010, 44, 100, 3, 2, 1)
    }

    /// The xc7z020 model: ≈13.3k slices, 150 rows (3 clock regions).
    pub fn xc7z020() -> Self {
        Device::zynq_like(DeviceName::Xc7z020, 89, 150, 5, 3, 2)
    }

    /// The xc7z030 model: ≈19.6k slices, 200 rows (4 clock regions).
    pub fn xc7z030() -> Self {
        Device::zynq_like(DeviceName::Xc7z030, 98, 200, 7, 4, 2)
    }

    /// The xc7z045 model: ≈54.6k slices, 350 rows (7 clock regions).
    pub fn xc7z045() -> Self {
        Device::zynq_like(DeviceName::Xc7z045, 156, 350, 8, 5, 3)
    }

    /// The xc7z100 model: ≈69k slices, 350 rows (7 clock regions).
    pub fn xc7z100() -> Self {
        Device::zynq_like(DeviceName::Xc7z100, 198, 350, 11, 12, 4)
    }

    /// An UltraScale-like fabric of the xc7z045 scale but a different
    /// column mix: every *second* CLB column is M-type (UltraScale spreads
    /// LUTRAM capability much more densely than 7-series), BRAM columns
    /// appear at a higher ratio per slice column, and DSP columns are
    /// heavier too. Deliberately *not* relocatable against the Zynq parts
    /// — its signatures differ — so it exercises device-sensitivity in the
    /// packing and sizing phases.
    pub fn ultrascale_like() -> Self {
        Device::columnar(DeviceName::UltraScaleLike, 110, 250, 2, 10, 10, 2)
    }

    /// Every modelled production part, smallest to largest — the ladder a
    /// design-space exploration can climb when a network stops fitting.
    pub fn zynq_family() -> Vec<Device> {
        vec![
            Device::xc7z010(),
            Device::xc7z020(),
            Device::xc7z030(),
            Device::xc7z045(),
            Device::xc7z100(),
        ]
    }

    /// A small fabric (≈1.2k slices) for fast unit tests.
    pub fn test_fabric() -> Self {
        Device::zynq_like(DeviceName::TestFabric, 24, 50, 2, 1, 1)
    }

    /// Reconstruct the device model a [`DeviceName`] identifies. Every
    /// constructor is deterministic, so the returned fabric is identical
    /// to the one an original caller built — what lets an independent
    /// auditor re-derive legality from a persisted record that only
    /// carries the device *name*.
    pub fn from_name(name: DeviceName) -> Device {
        match name {
            DeviceName::Xc7z010 => Device::xc7z010(),
            DeviceName::Xc7z020 => Device::xc7z020(),
            DeviceName::Xc7z030 => Device::xc7z030(),
            DeviceName::Xc7z045 => Device::xc7z045(),
            DeviceName::Xc7z100 => Device::xc7z100(),
            DeviceName::UltraScaleLike => Device::ultrascale_like(),
            DeviceName::TestFabric => Device::test_fabric(),
        }
    }

    /// Device identifier.
    pub fn name(&self) -> DeviceName {
        self.name
    }

    /// Number of columns.
    pub fn width(&self) -> u32 {
        self.columns.len() as u32
    }

    /// Number of slice rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// All columns, left to right.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The column at index `x`. Panics when out of range.
    pub fn column(&self, x: u32) -> Column {
        self.columns[x as usize]
    }

    /// The full-device bounding rectangle.
    pub fn bounds(&self) -> Rect {
        Rect::new(0, 0, self.width(), self.rows)
    }

    /// Total slices (L + M) on the device.
    pub fn slice_count(&self) -> u32 {
        self.full_capacity().slices()
    }

    /// Total M-type slices on the device.
    pub fn m_slice_count(&self) -> u32 {
        self.full_capacity().m_slices
    }

    /// Total RAMB36 sites on the device.
    pub fn bram_count(&self) -> u32 {
        self.full_capacity().bram36
    }

    /// Total DSP48 sites on the device.
    pub fn dsp_count(&self) -> u32 {
        self.full_capacity().dsp48
    }

    /// Capacity of the whole device.
    pub fn full_capacity(&self) -> SliceCapacity {
        self.capacity_in(&self.bounds())
    }

    /// Aggregate capacity inside `rect` (clipped to the device). Multi-row
    /// sites count only when a whole site (its full row span, aligned to the
    /// site grid) lies inside the rectangle.
    pub fn capacity_in(&self, rect: &Rect) -> SliceCapacity {
        let mut cap = SliceCapacity::default();
        let x_end = rect.right().min(self.width());
        let y0 = rect.y.min(self.rows);
        let y1 = rect.top().min(self.rows);
        let rows = y1.saturating_sub(y0);
        if rows == 0 {
            return cap;
        }
        for x in rect.x..x_end {
            match self.columns[x as usize].kind {
                ColumnKind::ClbL => cap.l_slices += rows,
                ColumnKind::ClbM => cap.m_slices += rows,
                ColumnKind::Bram => cap.bram36 += aligned_sites(y0, y1, RAMB36_ROWS),
                ColumnKind::Dsp => cap.dsp48 += aligned_sites(y0, y1, DSP48_ROWS),
                ColumnKind::Clock => cap.clock_columns += 1,
            }
        }
        cap
    }

    /// Column-kind sequence of the `w` columns starting at `x0` (clipped).
    pub fn signature(&self, x0: u32, w: u32) -> ColumnSignature {
        let end = (x0 + w).min(self.width());
        ColumnSignature(
            self.columns[x0 as usize..end as usize]
                .iter()
                .map(|c| c.kind)
                .collect(),
        )
    }

    /// All x-offsets where the device's column sequence equals `sig` —
    /// the legal horizontal anchor positions for a relocatable macro.
    pub fn matching_anchors(&self, sig: &ColumnSignature) -> Vec<u32> {
        let w = sig.0.len();
        if w == 0 || w > self.columns.len() {
            return Vec::new();
        }
        (0..=self.columns.len() - w)
            .filter(|&x| {
                self.columns[x..x + w]
                    .iter()
                    .zip(&sig.0)
                    .all(|(c, &k)| c.kind == k)
            })
            .map(|x| x as u32)
            .collect()
    }

    /// Clock region index containing row `y`.
    pub fn clock_region_of(&self, y: u32) -> u32 {
        y / CLOCK_REGION_ROWS
    }

    /// Number of clock-region boundaries crossed by a vertical span.
    pub fn regions_spanned(&self, y0: u32, h: u32) -> u32 {
        if h == 0 {
            return 0;
        }
        self.clock_region_of(y0 + h - 1) - self.clock_region_of(y0) + 1
    }

    /// Number of clock-distribution columns intersecting `rect`.
    pub fn clock_columns_in(&self, rect: &Rect) -> u32 {
        self.capacity_in(rect).clock_columns
    }
}

/// Count of whole `span`-row sites, aligned at multiples of `span`, whose
/// rows are fully inside `[y0, y1)`.
pub(crate) fn aligned_sites(y0: u32, y1: u32, span: u32) -> u32 {
    let first = y0.div_ceil(span);
    let last = y1 / span;
    last.saturating_sub(first)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_sites_counts_whole_sites() {
        // Sites at rows [0,5), [5,10), ...
        assert_eq!(aligned_sites(0, 10, 5), 2);
        assert_eq!(aligned_sites(1, 10, 5), 1); // first site clipped
        assert_eq!(aligned_sites(0, 9, 5), 1); // second site clipped
        assert_eq!(aligned_sites(3, 4, 5), 0);
        assert_eq!(aligned_sites(5, 5, 5), 0);
    }

    #[test]
    fn device_names_parse_from_their_display_form() {
        for d in Device::zynq_family()
            .into_iter()
            .chain([Device::ultrascale_like(), Device::test_fabric()])
        {
            assert_eq!(d.name().to_string().parse::<DeviceName>(), Ok(d.name()));
        }
        assert_eq!(
            "xc7z02o".parse::<DeviceName>(),
            Err("unknown device 'xc7z02o'".to_string())
        );
        assert!("XC7Z020".parse::<DeviceName>().is_err(), "names are exact");
    }

    #[test]
    fn from_name_round_trips_every_device() {
        for d in Device::zynq_family()
            .into_iter()
            .chain([Device::ultrascale_like(), Device::test_fabric()])
        {
            let rebuilt = Device::from_name(d.name());
            assert_eq!(rebuilt.name(), d.name());
            assert_eq!(rebuilt.width(), d.width());
            assert_eq!(rebuilt.rows(), d.rows());
            assert_eq!(
                rebuilt.signature(0, d.width()),
                d.signature(0, d.width()),
                "{}: column pattern diverged",
                d.name()
            );
        }
    }

    #[test]
    fn xc7z020_matches_paper_scale() {
        let d = Device::xc7z020();
        // Paper: the cnvW1A1 uses 99.98% of 13,300 slices on this part.
        let slices = d.slice_count();
        assert!((13_000..14_000).contains(&slices), "slices = {slices}");
        // LUTRAM capability ≈ 17,400 LUTs -> ≈ 4,350 M slices.
        let m = d.m_slice_count();
        assert!((4_000..5_000).contains(&m), "m slices = {m}");
        assert!(d.bram_count() >= 130, "bram = {}", d.bram_count());
        assert!(d.dsp_count() >= 200, "dsp = {}", d.dsp_count());
        assert_eq!(d.rows() % CLOCK_REGION_ROWS, 0);
    }

    #[test]
    fn zynq_family_is_ordered_by_size() {
        let family = Device::zynq_family();
        assert_eq!(family.len(), 5);
        for pair in family.windows(2) {
            assert!(
                pair[0].slice_count() < pair[1].slice_count(),
                "{} !< {}",
                pair[0].name(),
                pair[1].name()
            );
        }
        // Real-part scale checks (slices): z010 ≈ 4.4k, z030 ≈ 19.6k,
        // z100 ≈ 69k.
        assert!((4_000..5_000).contains(&family[0].slice_count()));
        assert!((18_500..21_000).contains(&family[2].slice_count()));
        assert!((65_000..72_000).contains(&family[4].slice_count()));
    }

    #[test]
    fn every_family_member_displays_its_part_number() {
        for d in Device::zynq_family() {
            let name = format!("{}", d.name());
            assert!(name.starts_with("xc7z"), "{name}");
        }
    }

    #[test]
    fn xc7z045_is_about_4x_larger() {
        let small = Device::xc7z020().slice_count() as f64;
        let big = Device::xc7z045().slice_count() as f64;
        let ratio = big / small;
        assert!((3.5..5.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn ultrascale_like_has_a_distinct_column_mix() {
        let us = Device::ultrascale_like();
        assert_eq!(format!("{}", us.name()), "ultrascale-like");
        // Half the CLB columns are M-type (vs a third on Zynq parts).
        let cap = us.full_capacity();
        assert_eq!(cap.m_slices, cap.l_slices, "M/L mix should be 1:1");
        let z45 = Device::xc7z045();
        let bram_ratio = |d: &Device| f64::from(d.bram_count()) / f64::from(d.slice_count());
        assert!(
            bram_ratio(&us) > 1.5 * bram_ratio(&z45),
            "BRAM per slice should be materially higher: {} vs {}",
            bram_ratio(&us),
            bram_ratio(&z45)
        );
        // Not relocatable against the Zynq family: a full-width signature
        // from the z045 never matches on the UltraScale-like fabric.
        let sig = z45.signature(0, 12);
        assert!(us.matching_anchors(&sig).is_empty());
        assert_eq!(us.rows() % CLOCK_REGION_ROWS, 0);
    }

    #[test]
    fn capacity_in_is_monotone_in_area() {
        let d = Device::test_fabric();
        let small = d.capacity_in(&Rect::new(0, 0, 5, 10));
        let big = d.capacity_in(&Rect::new(0, 0, 10, 20));
        assert!(big.slices() >= small.slices());
        assert!(big.bram36 >= small.bram36);
    }

    #[test]
    fn capacity_clips_to_device() {
        let d = Device::test_fabric();
        let all = d.full_capacity();
        let over = d.capacity_in(&Rect::new(0, 0, d.width() + 10, d.rows() + 10));
        assert_eq!(all, over);
        let empty = d.capacity_in(&Rect::new(0, d.rows(), 5, 5));
        assert_eq!(empty.slices(), 0);
    }

    #[test]
    fn signatures_relocate_only_on_matching_columns() {
        let d = Device::xc7z020();
        let sig = d.signature(0, 3);
        let anchors = d.matching_anchors(&sig);
        assert!(anchors.contains(&0));
        for &x in &anchors {
            assert_eq!(d.signature(x, 3), sig);
        }
        // A signature wider than the device has no anchors.
        let too_wide = ColumnSignature(vec![ColumnKind::ClbL; d.width() as usize + 1]);
        assert!(d.matching_anchors(&too_wide).is_empty());
    }

    #[test]
    fn signature_y_alignment() {
        let plain = ColumnSignature(vec![ColumnKind::ClbL, ColumnKind::ClbM]);
        assert_eq!(plain.y_alignment(), 1);
        let with_bram = ColumnSignature(vec![ColumnKind::ClbL, ColumnKind::Bram]);
        assert_eq!(with_bram.y_alignment(), RAMB36_ROWS);
        let with_both = ColumnSignature(vec![ColumnKind::Bram, ColumnKind::Dsp, ColumnKind::ClbL]);
        assert_eq!(with_both.y_alignment(), 10); // lcm(5, 2)
    }

    #[test]
    fn clock_regions() {
        let d = Device::xc7z020();
        assert_eq!(d.clock_region_of(0), 0);
        assert_eq!(d.clock_region_of(49), 0);
        assert_eq!(d.clock_region_of(50), 1);
        assert_eq!(d.regions_spanned(45, 10), 2);
        assert_eq!(d.regions_spanned(0, 50), 1);
        assert_eq!(d.regions_spanned(0, 0), 0);
    }

    #[test]
    fn signature_display_roundtrips_kinds() {
        let d = Device::test_fabric();
        let sig = d.signature(0, d.width());
        let text = format!("{sig}");
        let parsed: Vec<ColumnKind> = text
            .chars()
            .map(|c| ColumnKind::from_mnemonic(c).unwrap())
            .collect();
        assert_eq!(parsed, sig.0);
        // The test fabric must exercise every placeable column kind.
        for kind in [
            ColumnKind::ClbL,
            ColumnKind::ClbM,
            ColumnKind::Bram,
            ColumnKind::Dsp,
        ] {
            assert!(sig.contains(kind), "missing {kind}");
        }
    }
}
