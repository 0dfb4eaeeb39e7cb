//! The metric catalogue and the run report: a human-readable table for
//! reading, and one JSON line (the last line of stdout) for machines.

use crate::stats::{Ratio, Tail};

/// End-to-end metrics, printed by every untraced run of every workload:
/// `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("designs_per_s", "1/s"),
    ("placed_frac", "ratio"),
    ("tool_runs", "count"),
    ("flow.p50_ms", "ms"),
    ("slo_met_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload
/// (0 where the workload does not exercise the layer). Times and counts
/// are per flow (serve) or per design (compile-dense) unless the README
/// says otherwise.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cnn.build_ms", "ms"),
    ("netlist.stats_ms", "ms"),
    ("cache.fingerprint_ms", "ms"),
    ("cache.lookup_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.insert_ms", "ms"),
    ("mempack.ms", "ms"),
    ("synth.quick_ms", "ms"),
    ("pblock.search_ms", "ms"),
    ("pblock.module_max_ms", "ms"),
    ("pblock.tool_runs", "count"),
    ("pblock.wasted_frac", "ratio"),
    ("estimator.train_ms", "ms"),
    ("estimator.label_tool_runs", "count"),
    ("estimator.predict_us", "us"),
    ("stitch.ms", "ms"),
    ("stitch.moves", "count"),
    ("stitch.us_per_move", "us"),
    ("stitch.illegal_frac", "ratio"),
    ("stitch.unplaced", "count"),
    ("route.ms", "ms"),
    ("route.iterations", "count"),
    ("route.overflow", "count"),
    ("store.appends", "count"),
    ("store.wal_bytes", "bytes"),
    ("store.flush_ms", "ms"),
    ("serve.handler_ms", "ms"),
    ("serve.outside_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.deadline_expired", "count"),
    ("loadgen.lateness_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("failed_frac", "ratio"),
    ("hpwl_per_placed", "cost"),
    ("first_try_rate", "ratio"),
    ("flow.tail_ms", "ms"),
    ("preimpl.p50_ms", "ms"),
    ("preimpl.tail_ms", "ms"),
    ("estimate.tail_ms", "ms"),
];

/// One reported value with how it was derived (sample count, base).
#[derive(Debug, Clone)]
pub struct Metric {
    /// Catalogue name.
    pub name: &'static str,
    /// Value in the catalogue unit.
    pub value: f64,
    /// How to read it: sample count, percentile, ratio base.
    pub note: String,
}

/// One row of the traced layer table.
#[derive(Debug, Clone)]
pub struct LayerRow {
    /// Layer label.
    pub layer: String,
    /// Busy time over the whole traced run.
    pub busy_ms: f64,
    /// Timed calls or requests.
    pub calls: u64,
    /// Counts and remarks.
    pub note: String,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the timed part.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub failures: Vec<String>,
    /// Metrics by catalogue name (end-to-end and per-layer mixed).
    pub metrics: Vec<Metric>,
    /// Traced layer table (traced runs only).
    pub table: Vec<LayerRow>,
    /// Wall time the traced table attributes.
    pub table_wall_ms: f64,
    /// What `table_wall_ms` measures.
    pub table_wall_note: String,
}

impl Report {
    /// Record a plain value.
    pub fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        self.metrics.push(Metric {
            name,
            value,
            note: note.into(),
        });
    }

    /// Record a ratio, noting its base.
    pub fn ratio(&mut self, name: &'static str, r: Ratio) {
        self.put(name, r.value(), format!("base {}", r.base()));
    }

    /// Record a tail, noting its percentile and sample count.
    pub fn tail(&mut self, name: &'static str, t: Option<Tail>) {
        match t {
            Some(t) => self.put(
                name,
                t.value,
                format!("p{:.2} of n={} ({} beyond)", t.percentile, t.n, t.beyond),
            ),
            None => self.put(name, 0.0, "no samples"),
        }
    }

    /// Record a p50 with its sample count.
    pub fn p50(&mut self, name: &'static str, sorted: &[f64]) {
        let v = crate::stats::percentile(sorted, 50.0).unwrap_or(0.0);
        self.put(name, v, format!("p50 of n={}", sorted.len()));
    }

    /// Fail the run with `why` unless `ok`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(why());
        }
    }

    fn value(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().rev().find(|m| m.name == name)
    }

    /// Print the human-readable report, then the JSON result line with
    /// the catalogue selected by `traced`. Returns whether every check
    /// passed.
    pub fn print(&mut self, workload: &str, traced: bool) -> bool {
        for m in &self.metrics {
            if !crate::stats::valid_metric_name(m.name) {
                self.failures
                    .push(format!("metric name {:?} is malformed", m.name));
            }
            if !m.value.is_finite() {
                self.failures
                    .push(format!("metric {} is not finite ({})", m.name, m.value));
            }
        }
        println!(
            "== perfbench {workload} ({}) ==",
            if traced { "traced" } else { "untraced" }
        );
        let unit = |name: &str| {
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |(_, u)| *u)
        };
        println!("{:<28} {:>14} {:<6} note", "metric", "value", "unit");
        for m in &self.metrics {
            println!(
                "{:<28} {:>14.4} {:<6} {}",
                m.name,
                m.value,
                unit(m.name),
                m.note
            );
        }
        if traced {
            println!(
                "-- layer table: {:.1} ms of {} --",
                self.table_wall_ms, self.table_wall_note
            );
            println!(
                "{:<34} {:>12} {:>8} {:>7}  note",
                "layer", "busy_ms", "calls", "share"
            );
            let mut attributed = 0.0;
            for row in &self.table {
                attributed += row.busy_ms;
                let share = if self.table_wall_ms > 0.0 {
                    100.0 * row.busy_ms / self.table_wall_ms
                } else {
                    0.0
                };
                println!(
                    "{:<34} {:>12.3} {:>8} {:>6.1}%  {}",
                    row.layer, row.busy_ms, row.calls, share, row.note
                );
            }
            let rest = self.table_wall_ms - attributed;
            println!(
                "{:<34} {:>12.3} {:>8} {:>6.1}%",
                "unattributed",
                rest,
                "",
                if self.table_wall_ms > 0.0 {
                    100.0 * rest / self.table_wall_ms
                } else {
                    0.0
                }
            );
        }
        println!(
            "attempted {}, failed {} (failed_frac {})",
            self.attempted,
            self.failed,
            Ratio {
                num: self.failed as f64,
                den: self.attempted as f64
            }
            .base()
        );
        for f in &self.failures {
            println!("CHECK FAILED: {f}");
        }
        let correct = self.failures.is_empty() && self.failed == 0 && self.attempted > 0;
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let value = self
                .value(name)
                .map(|m| m.value)
                .filter(|v| v.is_finite())
                .unwrap_or(0.0);
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_metric_name;

    #[test]
    fn catalogue_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let names = |key: &str| -> Vec<(String, String)> {
            let section = &text[text.find(&format!("\"{key}\"")).expect(key)..];
            let section = &section[..section.find(']').unwrap()];
            section
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\"")).unwrap() + f.len() + 2;
                        let rest = &entry[at..];
                        let open = rest.find('"').unwrap() + 1;
                        let close = open + rest[open..].find('"').unwrap();
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), owned(END_TO_END));
        assert_eq!(names("per_layer"), owned(PER_LAYER));
    }
}
