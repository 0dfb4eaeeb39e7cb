//! # tms-pblock — PBlock construction and correction-factor search
//!
//! Implements the RapidWright PBlock algorithm of Figure 1 and the searches
//! built on top of it:
//!
//! * [`PBlockGenerator`] — turns a [`tms_place::ShapeReport`] plus a
//!   correction factor (CF) into a concrete rectangular area constraint on
//!   the device: `target = ⌈estimate · CF⌉` slices, height from the constant
//!   aspect ratio (floored by the tallest carry chain when the shape report
//!   is honoured), width grown column-by-column until the window covers the
//!   slice target *and* the hard M-slice / BRAM / DSP demand.
//! * [`min_feasible_cf`] — the paper's reference labelling procedure:
//!   starting from `CF = 0.9`, increase in steps of 0.02 until the detailed
//!   placement succeeds (Section VII). Produces the training label and the
//!   Figure 4 distribution.
//! * [`guided_search`] — the estimator-in-the-loop procedure of Section
//!   VIII: try the predicted CF; on failure increase by 0.1 until feasible,
//!   then re-search the last interval at 0.02 resolution. Tool runs are
//!   counted so the 1.8× run-count comparison against a constant-CF start
//!   can be reproduced.
//! * [`resolution_study`] — the Section VI-C analysis of the search step
//!   magnitude versus module size.
//!
//! ```
//! use tms_device::Device;
//! use tms_netlist::{NetlistBuilder, ControlSet};
//! use tms_place::{quick_place, PlacementModel};
//! use tms_pblock::{PBlockGenerator, min_feasible_cf, CfSearch};
//! use tms_synth::pack;
//!
//! let mut b = NetlistBuilder::new("demo");
//! for _ in 0..200 { b.lut(6); }
//! for _ in 0..200 { b.ff(ControlSet::basic()); }
//! let nl = b.finish();
//! let stats = nl.stats();
//! let packing = pack(&stats);
//! let shape = quick_place(&stats, &packing);
//!
//! let dev = Device::xc7z020();
//! let gen = PBlockGenerator::new(&dev, true);
//! let model = PlacementModel::deterministic();
//! let found = min_feasible_cf(&gen, &stats, &packing, &shape, &model,
//!                             &CfSearch::default(), 42).expect("feasible");
//! assert!(found.cf >= 0.9 && found.cf <= 2.0);
//! ```

#![warn(missing_docs)]

pub mod generator;
pub mod resolution;
pub mod search;

pub use generator::{PBlock, PBlockGenerator};
pub use resolution::{resolution_study, ResolutionPoint, STANDARD_STEPS};
pub use search::{
    guided_search, guided_search_observed, min_feasible_cf, min_feasible_cf_observed, CfResult,
    CfSearch, GuidedResult,
};
