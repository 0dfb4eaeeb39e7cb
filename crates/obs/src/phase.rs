//! The pipeline phases every span is labelled with.

/// One phase of the pre-implementation pipeline (plus the persistence
/// layer). Every [`crate::Span`]
/// carries exactly one phase label, so per-phase time/attempt breakdowns
/// (the `tms report` table, the serve `stats` response) never need to
/// parse free-form span names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Phase {
    /// Netlist synthesis / statistics extraction.
    Synth,
    /// Slice packing (control sets, carry shapes, M-type).
    Pack,
    /// Memory-aware weight packing (BRAM36 / BRAM18-half / LUTRAM bins),
    /// the `tms-pack` phase that runs before PBlock sizing.
    MemPack,
    /// PBlock generation + detailed placement (the CF search loop).
    Place,
    /// Global routing of the stitched design.
    Route,
    /// Simulated-annealing macro stitching.
    Stitch,
    /// Timing estimation and CF prediction.
    Estimate,
    /// Implementation-cache lookups and splices.
    Cache,
    /// Persistent macro-store appends, compactions and recovery.
    Store,
    /// Integrity verification: checksum checks, legality audits, scrubs.
    Verify,
}

impl Phase {
    /// Every phase, in pipeline order.
    pub const ALL: [Phase; 10] = [
        Phase::Synth,
        Phase::Pack,
        Phase::MemPack,
        Phase::Place,
        Phase::Route,
        Phase::Stitch,
        Phase::Estimate,
        Phase::Cache,
        Phase::Store,
        Phase::Verify,
    ];

    /// Stable lowercase label (`synth`, `pack`, ...), used in traces,
    /// Prometheus labels and report tables.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Synth => "synth",
            Phase::Pack => "pack",
            Phase::MemPack => "mempack",
            Phase::Place => "place",
            Phase::Route => "route",
            Phase::Stitch => "stitch",
            Phase::Estimate => "estimate",
            Phase::Cache => "cache",
            Phase::Store => "store",
            Phase::Verify => "verify",
        }
    }

    /// Inverse of [`Phase::label`].
    pub fn from_label(label: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.label() == label)
    }

    /// Dense index into [`Phase::ALL`] (for per-phase atomics).
    pub fn index(self) -> usize {
        Phase::ALL
            .iter()
            .position(|&p| p == self)
            .expect("every phase is in ALL")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in Phase::ALL {
            assert_eq!(Phase::from_label(p.label()), Some(p));
            assert_eq!(Phase::ALL[p.index()], p);
        }
        assert_eq!(Phase::from_label("nope"), None);
    }

    #[test]
    fn serde_round_trip() {
        for p in Phase::ALL {
            let json = serde_json::to_string(&p).unwrap();
            let back: Phase = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }
}
