//! The declared metrics, their values from reps, and how they are printed.
//!
//! `BENCHMARK.json` at the repository root is the one declaration of every
//! metric's name, unit, direction and bound; it is compiled in, and a run
//! refuses to print a metric set that differs from it.

use serde::{Deserialize, Serialize, Value};

use crate::calib::Timing;
use crate::stats::{median, quartiles};
use crate::workloads::{RepOutcome, Workload};

/// One declared metric.
#[derive(Debug, Clone, Deserialize)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    #[serde(default)]
    pub bound: Option<f64>,
}

impl MetricSpec {
    #[must_use]
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// The metric declarations of `BENCHMARK.json`.
#[derive(Debug, Clone, Deserialize)]
pub struct Spec {
    pub run_seconds: u64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

/// The compiled-in `BENCHMARK.json`.
pub const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// Parses the compiled-in declarations.
///
/// # Panics
///
/// Panics if `BENCHMARK.json` does not parse (a build-time input).
#[must_use]
pub fn spec() -> Spec {
    serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json parses")
}

/// One rep's end-to-end samples, by metric name, with durations read from
/// its timings by `secs` (reference or wall seconds).
#[must_use]
pub fn e2e_samples(
    workload: Workload,
    rep: &RepOutcome,
    secs: impl Fn(&Timing) -> f64,
) -> Vec<(String, f64)> {
    let setup_s = secs(&rep.setup);
    let run_s = secs(&rep.run);
    // A grid's run already contains every cell's own set-up; a kernel
    // rep's simulation is its set-up plus its run.
    let simulation_s = match workload {
        Workload::FigureGrid => run_s,
        _ => setup_s + run_s,
    };
    vec![
        ("events_per_sec".into(), rep.events as f64 / run_s),
        ("cells_per_sec".into(), rep.units as f64 / simulation_s),
        ("setup_s".into(), setup_s),
        ("peak_rss_mb".into(), rep.peak_rss_kb as f64 / 1024.0),
    ]
}

/// Whether a metric in `unit` is a duration, reported in reference time.
fn is_time(unit: &str) -> bool {
    matches!(unit, "s" | "ms" | "ns")
}

/// Per-layer values measured in wall time, with every duration (by its
/// declared unit) divided by the host `slowdown` over the span measured.
#[must_use]
pub fn in_reference_time(values: Vec<(&str, f64)>, slowdown: f64) -> Vec<(String, f64)> {
    let declared = spec().per_layer;
    values
        .into_iter()
        .map(|(name, v)| {
            let time = declared.iter().any(|m| m.name == name && is_time(&m.unit));
            (name.to_owned(), if time { v / slowdown } else { v })
        })
        .collect()
}

/// A traced rep's per-layer values, completed with the tracing overhead
/// against the untraced reps where the rep could not measure it itself.
#[must_use]
pub fn layer_values(traced: &RepOutcome, untraced: &[RepOutcome]) -> Vec<(String, f64)> {
    let mut values = traced.layers.clone();
    if !values.iter().any(|(n, _)| n == "trace.overhead_frac") {
        let runs: Vec<f64> = untraced.iter().map(|r| r.run.ref_s).collect();
        let overhead = if runs.is_empty() {
            0.0
        } else {
            traced.run.ref_s / median(&runs) - 1.0
        };
        values.push(("trace.overhead_frac".into(), overhead));
    }
    values
}

/// Orders `values` as `declared` lists them.
///
/// # Errors
///
/// Names the metrics that are declared but missing, or produced but not
/// declared.
pub fn in_declared_order(
    declared: &[MetricSpec],
    values: &[(String, f64)],
) -> Result<Vec<(MetricSpec, f64)>, String> {
    let missing: Vec<&str> = declared
        .iter()
        .filter(|m| !values.iter().any(|(n, _)| *n == m.name))
        .map(|m| m.name.as_str())
        .collect();
    let extra: Vec<&str> = values
        .iter()
        .filter(|(n, _)| !declared.iter().any(|m| m.name == *n))
        .map(|(n, _)| n.as_str())
        .collect();
    if !missing.is_empty() || !extra.is_empty() {
        return Err(format!(
            "metrics drifted from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
        ));
    }
    Ok(declared
        .iter()
        .map(|m| {
            let value = values
                .iter()
                .find(|(n, _)| *n == m.name)
                .map(|&(_, v)| v)
                .expect("checked above");
            (m.clone(), value)
        })
        .collect())
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric as `{"value", "unit"}`.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricSpec, f64)],
) -> String {
    let metrics = metrics
        .iter()
        .map(|(m, v)| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::F64(*v)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted)),
        ("failed".into(), Value::U64(failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    serde_json::to_string(&line).expect("finite metric values")
}

/// Several samples of one metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    pub name: String,
    pub unit: String,
    pub values: Vec<f64>,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Series {
    #[must_use]
    pub fn of(spec: &MetricSpec, values: Vec<f64>) -> Self {
        let (q1, median, q3) = quartiles(&values);
        Series {
            name: spec.name.clone(),
            unit: spec.unit.clone(),
            values,
            q1,
            median,
            q3,
        }
    }

    /// Quartile distance over the median.
    #[must_use]
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// Prints one metric row: median, quartiles and sample count, then the
/// median of the same metric from raw wall-clock seconds.
pub fn print_series(s: &Series, wall: &Series) {
    eprintln!(
        "  {:<16} {:>12} [{:>12} .. {:<12}] n={:<3} {:<6} wall clock {:>12}",
        s.name,
        fmt(s.median),
        fmt(s.q1),
        fmt(s.q3),
        s.values.len(),
        s.unit,
        fmt(wall.median)
    );
}

/// A number with four significant digits, in plain or scientific form.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let magnitude = v.abs().log10().floor();
    if (-3.0..7.0).contains(&magnitude) {
        let digits = (3.0 - magnitude).max(0.0) as usize;
        format!("{v:.digits$}")
    } else {
        format!("{v:.3e}")
    }
}

/// A set of runs over every workload, as `benchmark all` writes it and
/// `benchmark diff` reads it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    pub runs: u64,
    pub seconds: u64,
    pub workloads: Vec<WorkloadRecord>,
}

/// One workload's runs within a [`Record`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadRecord {
    pub name: String,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// One sample per run: the run's median over its reps, in reference
    /// seconds.
    pub end_to_end: Vec<Series>,
    /// The same metrics from raw wall-clock seconds.
    pub wall: Vec<Series>,
    pub per_layer: Vec<(String, f64)>,
    /// What failed, by run.
    pub problems: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_parse_with_bounds_on_end_to_end_metrics() {
        let spec = spec();
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s declared");
        let largest = spec
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s has the largest bound");
    }

    #[test]
    fn drift_is_named() {
        let declared = spec().end_to_end;
        let err = in_declared_order(&declared, &[("nope".into(), 1.0)]).unwrap_err();
        assert!(err.contains("nope") && err.contains("events_per_sec"));
    }

    #[test]
    fn result_line_has_exactly_the_result_keys() {
        let m = spec().end_to_end[0].clone();
        let line = result_line(true, 3, 0, &[(m, 1.25)]);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"events_per_sec":{"value":1.25,"unit":"1/s"}}}"#
        );
    }

    #[test]
    fn numbers_print_with_four_significant_digits() {
        assert_eq!(fmt(12345.678), "12346");
        assert_eq!(fmt(0.0123456), "0.01235");
        assert_eq!(fmt(2.5e9), "2.500e9");
        assert_eq!(fmt(0.0), "0");
    }
}
