//! The `tms report` renderer: a per-phase flame-style table (plus counter
//! and observation listings) from a JSONL trace.

use crate::metrics::{Histogram, FINE_LATENCY_BUCKETS_US};
use crate::record::TraceEvent;
use crate::sinks::{replay, AggregatingSink};
use crate::Phase;

const BAR_WIDTH: usize = 30;

fn fmt_us(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Length of the union of `(start, end)` intervals.
fn union_us(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let (mut covered, mut reach) = (0, 0);
    for (start, end) in intervals {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    covered
}

/// Render a parsed trace as a human-readable report: one row per phase
/// with span count, total time, two shares and a flame-style bar,
/// followed by the trace's counters and observations.
///
/// `wall%` is the wall-clock the phase was active — the union of its span
/// intervals — over the trace extent (first span start to last span end);
/// the flame bar follows it. `cpu%` is the phase's summed span time over
/// all span time, so concurrent spans (the parallel module stage) count
/// once per thread.
pub fn render(events: &[TraceEvent]) -> String {
    let sink = AggregatingSink::new();
    replay(events, &sink);
    let total_us = sink.total_us().max(1);

    // Per-phase duration histograms for interpolated quantiles, and
    // per-phase span intervals for the wall-clock share.
    let durations: Vec<Histogram<{ FINE_LATENCY_BUCKETS_US.len() }>> = Phase::ALL
        .iter()
        .map(|_| Histogram::new(FINE_LATENCY_BUCKETS_US))
        .collect();
    let mut intervals = vec![Vec::new(); Phase::ALL.len()];
    let (mut first, mut last) = (u64::MAX, 0);
    for event in events {
        if let TraceEvent::Span(s) = event {
            durations[s.phase.index()].observe(s.duration_us);
            let end = s.start_us + s.duration_us;
            intervals[s.phase.index()].push((s.start_us, end));
            first = first.min(s.start_us);
            last = last.max(end);
        }
    }
    let extent_us = last.saturating_sub(first).max(1);

    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} events ({} spans)\n\n",
        events.len(),
        events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Span(_)))
            .count()
    ));
    out.push_str(&format!(
        "{:<10} {:>8} {:>10} {:>7} {:>7} {:>9} {:>9} {:>9}  {}\n",
        "phase", "spans", "total", "wall%", "cpu%", "p50", "p99", "p999", "flame"
    ));
    for phase in Phase::ALL {
        let spans = sink.phase_spans(phase);
        if spans == 0 {
            continue;
        }
        let us = sink.phase_total_us(phase);
        let wall =
            union_us(std::mem::take(&mut intervals[phase.index()])) as f64 / extent_us as f64;
        let cpu = us as f64 / total_us as f64;
        let filled = ((wall * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
        let h = &durations[phase.index()];
        let q = |q: f64| fmt_us(h.quantile(q).unwrap_or(0));
        out.push_str(&format!(
            "{:<10} {:>8} {:>10} {:>6.1}% {:>6.1}% {:>9} {:>9} {:>9}  {}{}\n",
            phase.label(),
            spans,
            fmt_us(us),
            wall * 100.0,
            cpu * 100.0,
            q(0.50),
            q(0.99),
            q(0.999),
            "#".repeat(filled),
            ".".repeat(BAR_WIDTH - filled),
        ));
    }

    let snap = sink.snapshot();
    if !snap.counters.is_empty() {
        out.push_str("\ncounters\n");
        for (key, value) in &snap.counters {
            out.push_str(&format!("  {key:<32} {value}\n"));
        }
    }
    if !snap.observations.is_empty() {
        out.push_str("\nobservations (count / mean)\n");
        for obs in &snap.observations {
            let mean = obs.sum / obs.count.max(1) as f64;
            out.push_str(&format!(
                "  {:<32} {:>6} / {:.4}\n",
                obs.key, obs.count, mean
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SpanRecord;

    fn span_event(phase: Phase, us: u64) -> TraceEvent {
        span_at(phase, 0, us)
    }

    fn span_at(phase: Phase, start_us: u64, duration_us: u64) -> TraceEvent {
        TraceEvent::Span(SpanRecord {
            trace_id: 0,
            phase,
            name: "m".into(),
            start_us,
            duration_us,
            fields: Vec::new(),
        })
    }

    /// Concurrent spans count once toward the wall-clock share but once
    /// per span toward the CPU share.
    #[test]
    fn wall_share_unions_concurrent_spans() {
        let events = vec![
            span_at(Phase::Place, 0, 10_000),
            span_at(Phase::Place, 0, 10_000),
            span_at(Phase::Stitch, 10_000, 10_000),
        ];
        let report = render(&events);
        let row = |label: &str| {
            report
                .lines()
                .find(|l| l.starts_with(label))
                .unwrap_or_else(|| panic!("no {label} row:\n{report}"))
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let place = row("place");
        assert_eq!((place[3].as_str(), place[4].as_str()), ("50.0%", "66.7%"));
        let stitch = row("stitch");
        assert_eq!((stitch[3].as_str(), stitch[4].as_str()), ("50.0%", "33.3%"));
        // The flame bar follows the wall-clock share.
        assert!(place[8].starts_with(&"#".repeat(15)) && place[8].ends_with('.'));
    }

    #[test]
    fn interval_union_merges_overlaps_and_gaps() {
        assert_eq!(union_us(vec![]), 0);
        assert_eq!(union_us(vec![(5, 10), (0, 4), (3, 6), (20, 30)]), 20);
        assert_eq!(union_us(vec![(0, 10), (2, 3)]), 10);
    }

    #[test]
    fn report_lists_active_phases_counters_and_observations() {
        let events = vec![
            span_event(Phase::Place, 3_000_000),
            span_event(Phase::Place, 1_000_000),
            span_event(Phase::Stitch, 500),
            TraceEvent::Count {
                trace_id: 0,
                key: "cache.hit".into(),
                delta: 7,
            },
            TraceEvent::Observe {
                trace_id: 0,
                key: "flow.cf.placed".into(),
                value: 1.5,
            },
        ];
        let report = render(&events);
        assert!(report.contains("5 events (3 spans)"), "{report}");
        assert!(report.contains("place"), "{report}");
        assert!(report.contains("4.00s"), "{report}");
        assert!(report.contains("stitch"), "{report}");
        assert!(
            !report.contains("route"),
            "idle phases are omitted:\n{report}"
        );
        assert!(report.contains("cache.hit"), "{report}");
        assert!(report.contains('7'), "{report}");
        assert!(report.contains("flow.cf.placed"), "{report}");
        assert!(report.contains("1.5000"), "{report}");
    }

    #[test]
    fn empty_trace_renders_without_panicking() {
        let report = render(&[]);
        assert!(report.contains("0 events"));
    }

    #[test]
    fn time_units_scale() {
        assert_eq!(fmt_us(12), "12µs");
        assert_eq!(fmt_us(1_500), "1.50ms");
        assert_eq!(fmt_us(2_250_000), "2.25s");
    }
}
