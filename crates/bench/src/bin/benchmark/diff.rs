//! `benchmark diff OLD.json NEW.json`: compares two sets written by
//! `benchmark all --out`, end-to-end metric by metric with a verdict, then
//! layer by layer, so a change can name the layer its gain came from.

use crate::report::{self, fmt, MetricSpec, Record, Series};

/// How a metric moved between two sets of runs.
#[must_use]
pub fn verdict(metric: &MetricSpec, old: &Series, new: &Series) -> &'static str {
    let delta = relative(old.median, new.median);
    if delta.abs() <= metric.bound.unwrap_or(0.0) {
        return "within bound";
    }
    if new.q1 <= old.q3 && old.q1 <= new.q3 {
        return "unresolved";
    }
    if (delta > 0.0) == metric.higher_is_better() {
        "better"
    } else {
        "worse"
    }
}

fn relative(old: f64, new: f64) -> f64 {
    if old == 0.0 {
        if new == 0.0 {
            0.0
        } else {
            f64::INFINITY.copysign(new)
        }
    } else {
        (new - old) / old.abs()
    }
}

fn read(path: &str) -> Result<Record, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path} is not a benchmark set: {e}"))
}

/// The `diff` command.
///
/// # Errors
///
/// On a usage error or an unreadable set.
pub fn command(args: &[String]) -> Result<(), String> {
    let [old_path, new_path] = args else {
        return Err("usage: benchmark diff OLD.json NEW.json".into());
    };
    let (old, new) = (read(old_path)?, read(new_path)?);
    let spec = report::spec();
    for nw in &new.workloads {
        let Some(ow) = old.workloads.iter().find(|w| w.name == nw.name) else {
            println!("{}: only in {new_path}", nw.name);
            continue;
        };
        println!(
            "{} ({} vs {} runs; correct {} -> {})",
            nw.name, old.runs, new.runs, ow.correct, nw.correct
        );
        for m in &spec.end_to_end {
            let find = |series: &[Series]| series.iter().find(|s| s.name == m.name).cloned();
            let (Some(o), Some(n)) = (find(&ow.end_to_end), find(&nw.end_to_end)) else {
                continue;
            };
            // The same move in raw wall-clock seconds, to show where the
            // host-speed calibration and the wall clock disagree.
            let wall = match (find(&ow.wall), find(&nw.wall)) {
                (Some(o), Some(n)) => format!("{:+.1}%", 100.0 * relative(o.median, n.median)),
                _ => "-".into(),
            };
            println!(
                "  {:<16} {:>11} [{} .. {}] -> {:>11} [{} .. {}]  {:>+7.1}%  bound {:>3.0}%  {:<12}  wall clock {wall}",
                m.name,
                fmt(o.median),
                fmt(o.q1),
                fmt(o.q3),
                fmt(n.median),
                fmt(n.q1),
                fmt(n.q3),
                100.0 * relative(o.median, n.median),
                100.0 * m.bound.unwrap_or(0.0),
                verdict(m, &o, &n)
            );
        }
        println!("  per layer (traced run):");
        for m in &spec.per_layer {
            let find = |w: &report::WorkloadRecord| {
                w.per_layer
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|&(_, v)| v)
            };
            let (Some(o), Some(n)) = (find(ow), find(nw)) else {
                continue;
            };
            println!(
                "    {:<32} {:>12} -> {:>12} {:<7} {:>+8.1}%",
                m.name,
                fmt(o),
                fmt(n),
                m.unit,
                100.0 * relative(o, n)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(q1: f64, median: f64, q3: f64) -> Series {
        Series {
            name: "events_per_sec".into(),
            unit: "1/s".into(),
            values: vec![q1, median, q3],
            q1,
            median,
            q3,
        }
    }

    #[test]
    fn verdicts() {
        let m = MetricSpec {
            name: "events_per_sec".into(),
            unit: "1/s".into(),
            better: "higher".into(),
            bound: Some(0.1),
        };
        let old = series(95.0, 100.0, 105.0);
        assert_eq!(
            verdict(&m, &old, &series(100.0, 105.0, 110.0)),
            "within bound"
        );
        assert_eq!(verdict(&m, &old, &series(110.0, 120.0, 130.0)), "better");
        assert_eq!(verdict(&m, &old, &series(70.0, 80.0, 90.0)), "worse");
        assert_eq!(verdict(&m, &old, &series(60.0, 80.0, 100.0)), "unresolved");
        let lower = MetricSpec {
            better: "lower".into(),
            ..m
        };
        assert_eq!(verdict(&lower, &old, &series(70.0, 80.0, 90.0)), "better");
    }
}
