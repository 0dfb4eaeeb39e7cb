//! The snapshot gate every `bench_*` binary shares.
//!
//! [`run_bench`] parses the shared flags, runs the benchmark, writes the
//! report as JSON (to `--out`, else stdout) and, with `--check`, compares
//! it against the committed `BENCH_*.json` snapshot; a binary only chooses
//! its configuration and prints its summary lines. A report type takes
//! part by implementing [`Snapshot`], whose [`compare`](Snapshot::compare)
//! gates its machine-independent metrics through a [`Gate`].

use serde::de::DeserializeOwned;
use serde::Serialize;
use std::process::ExitCode;

const USAGE: &str = "[--quick|--full] [--seed N] [--out PATH] [--check SNAPSHOT] [--tolerance F]";

/// The flags shared by every `bench_*` binary.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Run the reduced CI configuration instead of the canonical one.
    pub quick: bool,
    /// Seed of the benchmarked design and every search.
    pub seed: u64,
    /// Write the report here instead of to stdout.
    pub out: Option<String>,
    /// Gate the fresh report against this committed snapshot.
    pub check: Option<String>,
    /// Relative slack of the gate (`0.2` = 20%): finite, non-negative.
    pub tolerance: f64,
}

impl BenchArgs {
    /// Parse the flags (without the program name); `Ok(None)` asks for
    /// the usage line.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Option<BenchArgs>, String> {
        let mut parsed = BenchArgs {
            quick: false,
            seed: 1,
            out: None,
            check: None,
            tolerance: 0.2,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} expects a value"));
            match arg.as_str() {
                "--quick" => parsed.quick = true,
                "--full" => parsed.quick = false,
                "--seed" => {
                    parsed.seed = value("--seed")?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?;
                }
                "--out" => parsed.out = Some(value("--out")?),
                "--check" => parsed.check = Some(value("--check")?),
                "--tolerance" => {
                    let t: f64 = value("--tolerance")?
                        .parse()
                        .map_err(|e| format!("bad --tolerance: {e}"))?;
                    // NaN or infinity makes every comparison false and
                    // passes any regression; a negative slack flags all.
                    if !t.is_finite() || t < 0.0 {
                        return Err(format!(
                            "bad --tolerance: {t} is not a finite, non-negative fraction"
                        ));
                    }
                    parsed.tolerance = t;
                }
                "--help" | "-h" => return Ok(None),
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(Some(parsed))
    }
}

/// A benchmark report that is committed as a `BENCH_*.json` snapshot and
/// gated against it.
pub trait Snapshot: Serialize + DeserializeOwned {
    /// The report layout's version; a mismatch with the snapshot is the
    /// one violation and nothing else is compared.
    fn schema(&self) -> String;

    /// Gate `self`, a fresh run, against `snapshot`: machine-independent
    /// metrics only, never wall-clock.
    fn compare(&self, snapshot: &Self, gate: &mut Gate);
}

/// Gate `fresh` against `snapshot` with relative slack `tolerance`;
/// returns one message per violation.
pub fn check<R: Snapshot>(snapshot: &R, fresh: &R, tolerance: f64) -> Vec<String> {
    let (old, new) = (snapshot.schema(), fresh.schema());
    if old != new {
        return vec![format!(
            "schema changed: snapshot {old} vs current {new} — regenerate the snapshot"
        )];
    }
    let mut gate = Gate {
        tolerance,
        violations: Vec::new(),
    };
    fresh.compare(snapshot, &mut gate);
    gate.violations
}

/// The comparisons of a [`Snapshot::compare`]; each failed one records a
/// violation.
pub struct Gate {
    tolerance: f64,
    violations: Vec<String>,
}

impl Gate {
    /// `new` may exceed `limit` by at most the tolerance.
    pub fn no_higher(&mut self, what: &str, new: f64, limit: f64) {
        self.within(new <= limit * (1.0 + self.tolerance), what, new, limit);
    }

    /// `new` may fall below `limit` by at most the tolerance.
    pub fn no_lower(&mut self, what: &str, new: f64, limit: f64) {
        self.within(new >= limit / (1.0 + self.tolerance), what, new, limit);
    }

    fn within(&mut self, ok: bool, what: &str, new: f64, limit: f64) {
        // Counts print as integers, ratios with three decimals.
        let num = |x: f64| format!("{x:.*}", if x.fract() == 0.0 { 0 } else { 3 });
        let pct = self.tolerance * 100.0;
        self.require(ok, || {
            format!(
                "{what} regressed: {} vs {} (>{pct:.0}%)",
                num(new),
                num(limit)
            )
        });
    }

    /// `new` may drift from `old` either way by at most the tolerance of
    /// `old` (and of 1 when `old` is smaller).
    pub fn near(&mut self, what: &str, new: f64, old: f64) {
        let bound = old.abs().max(1.0) * self.tolerance;
        self.require((new - old).abs() <= bound, || {
            format!("{what}: snapshot {old} vs fresh {new} (±{bound:.2})")
        });
    }

    /// An exact invariant: no tolerance loosens it.
    pub fn require(&mut self, ok: bool, violation: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(violation());
        }
    }
}

/// The whole life of a `bench_*` binary named `name`: parse the shared
/// flags, let `run` run the benchmark and print its summary, write the
/// report, and gate it when `--check` is given. Exits non-zero on a bad
/// flag, a failed run, an unreadable or malformed snapshot, or any
/// violation.
pub fn run_bench<R: Snapshot>(
    name: &str,
    run: impl FnOnce(&BenchArgs) -> Result<R, String>,
) -> ExitCode {
    let outcome = BenchArgs::parse(std::env::args().skip(1)).and_then(|args| match args {
        Some(args) => drive(name, &args, run),
        None => {
            println!("{name} {USAGE}");
            Ok(())
        }
    });
    if let Err(e) = outcome {
        eprintln!("{name}: {e}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn drive<R: Snapshot>(
    name: &str,
    args: &BenchArgs,
    run: impl FnOnce(&BenchArgs) -> Result<R, String>,
) -> Result<(), String> {
    let report = run(args)?;
    let json = serde_json::to_string_pretty(&report)
        .map_err(|e| format!("serialising report failed: {e}"))?;
    match &args.out {
        Some(path) => {
            std::fs::write(path, format!("{json}\n"))
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("{name}: wrote {path}");
        }
        None => println!("{json}"),
    }
    let Some(path) = &args.check else {
        return Ok(());
    };
    let raw = std::fs::read_to_string(path).map_err(|e| format!("reading snapshot {path}: {e}"))?;
    let snapshot: R =
        serde_json::from_str(&raw).map_err(|e| format!("snapshot {path} is malformed: {e}"))?;
    let violations = check(&snapshot, &report, args.tolerance);
    for v in &violations {
        eprintln!("{name}: REGRESSION: {v}");
    }
    if !violations.is_empty() {
        return Err(format!("{} regression(s) against {path}", violations.len()));
    }
    let pct = args.tolerance * 100.0;
    eprintln!("{name}: no regression against {path} (tolerance {pct:.0}%)");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<BenchArgs>, String> {
        BenchArgs::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn flags_parse_with_defaults() {
        let defaults = parse(&[]).unwrap().unwrap();
        assert_eq!(
            (defaults.quick, defaults.seed, defaults.tolerance),
            (false, 1, 0.2)
        );
        let args = "--quick --seed 7 --out o.json --check s.json --tolerance 0";
        let args = parse(&args.split(' ').collect::<Vec<_>>())
            .unwrap()
            .unwrap();
        assert_eq!((args.quick, args.seed, args.tolerance), (true, 7, 0.0));
        assert_eq!(
            (args.out.as_deref(), args.check.as_deref()),
            (Some("o.json"), Some("s.json"))
        );
        assert_eq!(parse(&["--help"]).unwrap(), None);
        assert!(parse(&["--seed"]).is_err() && parse(&["--bogus"]).is_err());
    }

    #[test]
    fn tolerance_must_be_finite_and_non_negative() {
        for bad in ["nan", "NaN", "inf", "-inf", "-0.1"] {
            let err = parse(&["--tolerance", bad]).unwrap_err();
            assert!(err.contains("--tolerance"), "{bad}: {err}");
        }
    }

    #[test]
    fn comparisons_respect_the_tolerance() {
        let mut gate = Gate {
            tolerance: 0.2,
            violations: Vec::new(),
        };
        gate.no_higher("a", 120.0, 100.0);
        gate.no_lower("b", 100.0 / 1.2, 100.0);
        gate.near("c", 1.2, 1.0);
        gate.require(true, || unreachable!());
        assert!(gate.violations.is_empty(), "{:?}", gate.violations);
        gate.no_higher("a", 121.0, 100.0);
        gate.no_lower("b", 83.0, 100.0);
        gate.near("c", 10.0, 7.5);
        gate.require(false, || "d broke".to_string());
        assert_eq!(gate.violations.len(), 4, "{:?}", gate.violations);
        assert_eq!(gate.violations[0], "a regressed: 121 vs 100 (>20%)");
        assert_eq!(gate.violations[1], "b regressed: 83 vs 100 (>20%)");
        assert!(gate.violations[2].starts_with("c: snapshot 7.5 vs fresh 10"));
    }
}
