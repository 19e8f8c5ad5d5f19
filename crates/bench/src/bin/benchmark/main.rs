//! The repository benchmark: four pinned workloads, end-to-end metrics
//! measured untraced, and a traced run that attributes time to each layer.
//! See README.md for the workloads, the metrics and how to run it.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds T] [--trace 0|1] [--smoke]
//! benchmark all [--runs N] [--seconds T] [--out FILE] [--smoke]
//! benchmark diff OLD.json NEW.json
//! ```
//!
//! One run repeats the workload in fresh child processes (one per rep)
//! until `--seconds` is spent, checks every rep's digest, and prints the
//! result as the last line of standard output; the human-readable report
//! goes to standard error.

mod calib;
mod diff;
mod layers;
mod micro;
mod report;
mod stats;
mod traced;
mod workloads;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use calib::Timing;
use report::{MetricSpec, Record, Series, WorkloadRecord};
use workloads::{RepOutcome, Scale, Workload, DEFAULT_SEED};

/// Fewest untraced reps in one run.
const MIN_REPS: usize = 3;

/// Most reps in one run.
const MAX_REPS: usize = 40;

/// Untraced reps a traced run takes as its baseline.
const TRACED_BASELINE_REPS: usize = 2;

/// Digests of every workload at [`DEFAULT_SEED`], full size.
const EXPECTED_JSON: &str = include_str!("expected.json");

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("rep") => rep_command(&args[1..]),
        Some("all") => all_command(&args[1..]),
        Some("diff") => diff::command(&args[1..]),
        _ => run_command(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Command-line options shared by the commands.
#[derive(Debug)]
struct Options {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    traced_rep: bool,
    scale: Scale,
    runs: usize,
    out: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: report::spec().run_seconds as f64,
        trace: false,
        traced_rep: false,
        scale: Scale::Full,
        runs: 10,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                o.workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {name}; one of {}", names.join(", "))
                })?);
            }
            "--seed" => o.seed = number(flag, &value()?)?,
            "--seconds" => {
                o.seconds = number(flag, &value()?)?;
                if o.seconds.is_nan() || o.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                o.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--traced" => o.traced_rep = true,
            "--smoke" => o.scale = Scale::Smoke,
            "--runs" => o.runs = number(flag, &value()?)?,
            "--out" => o.out = Some(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(o)
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{flag} takes a number, not {text}"))
}

/// The pinned digest of `workload`, if this run is at the pinned seed and
/// size.
fn pinned_digest(workload: Workload, seed: u64, scale: Scale) -> Option<String> {
    if seed != DEFAULT_SEED || scale != Scale::Full {
        return None;
    }
    let expected: BTreeMap<String, String> =
        serde_json::from_str(EXPECTED_JSON).expect("expected.json parses");
    expected.get(workload.name()).cloned()
}

/// `benchmark rep`: one rep in this process, its outcome as one JSON line.
fn rep_command(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let workload = o.workload.ok_or("rep needs --workload")?;
    let outcome = if o.traced_rep {
        traced::run_traced(workload, o.seed, o.scale)
    } else {
        workloads::run_rep(workload, o.seed, o.scale)
    };
    println!(
        "{}",
        serde_json::to_string(&outcome).expect("rep outcome serializes")
    );
    Ok(())
}

/// Runs one rep in a fresh child process and waits for it.
fn spawn_rep(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
) -> Result<RepOutcome, String> {
    let label = format!(
        "{} seed {seed}{}",
        workload.name(),
        if traced { " (traced)" } else { "" }
    );
    let mut cmd = Command::new(std::env::current_exe().map_err(|e| e.to_string())?);
    cmd.args([
        "rep",
        "--workload",
        workload.name(),
        "--seed",
        &seed.to_string(),
    ]);
    if traced {
        cmd.arg("--traced");
    }
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{label}: cannot start rep: {e}"))?;
    if !out.status.success() {
        return Err(format!("{label}: rep failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().unwrap_or_default();
    serde_json::from_str(line).map_err(|e| format!("{label}: unreadable rep output: {e}"))
}

/// What one run found.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(MetricSpec, f64)>,
    /// End-to-end samples per metric, one per rep (untraced runs), in
    /// reference seconds and in raw wall-clock seconds.
    series: Vec<Series>,
    wall: Vec<Series>,
    problems: Vec<String>,
    reps: usize,
    /// Median host slowdown over the untraced reps.
    slowdown: f64,
    digest: String,
    pinned: Option<String>,
}

/// The end-to-end series of `reps`, durations read by `secs` (reference or
/// wall seconds).
fn e2e_series(
    workload: Workload,
    reps: &[RepOutcome],
    secs: impl Fn(&Timing) -> f64 + Copy,
) -> Vec<Series> {
    let samples: Vec<Vec<(String, f64)>> = reps
        .iter()
        .map(|r| report::e2e_samples(workload, r, secs))
        .collect();
    report::spec()
        .end_to_end
        .iter()
        .map(|m| {
            let values = samples
                .iter()
                .flat_map(|s| s.iter().filter(|(n, _)| *n == m.name).map(|&(_, v)| v))
                .collect();
            Series::of(m, values)
        })
        .collect()
}

/// One run: untraced reps until `seconds` is spent (at least
/// [`MIN_REPS`]), or with `trace` a short untraced baseline and one traced
/// rep.
fn run_workload(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
) -> Result<RunResult, String> {
    let spec = report::spec();
    let started = Instant::now();
    let units = workload.units(scale);
    let mut reps = Vec::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut tried = 0usize;
    loop {
        tried += 1;
        attempted += units;
        match spawn_rep(workload, seed, scale, false) {
            Ok(rep) => reps.push(rep),
            Err(e) => {
                failed += units;
                problems.push(e);
            }
        }
        let elapsed = started.elapsed().as_secs_f64();
        let per_rep = elapsed / tried as f64;
        let enough = if trace {
            tried >= TRACED_BASELINE_REPS
        } else {
            tried >= MIN_REPS && elapsed + per_rep > seconds
        };
        if enough || tried >= MAX_REPS {
            break;
        }
    }
    if reps.is_empty() {
        return Err(format!(
            "{} seed {seed}: no rep completed: {}",
            workload.name(),
            problems.join("; ")
        ));
    }

    let pinned = pinned_digest(workload, seed, scale);
    let reference = pinned.clone().unwrap_or_else(|| reps[0].digest.clone());
    for rep in &reps {
        if rep.digest != reference {
            failed += units;
            problems.push(format!(
                "{} seed {seed}: digest {} differs from {reference}",
                workload.name(),
                rep.digest
            ));
        }
    }

    let series = e2e_series(workload, &reps, |t| t.ref_s);
    let wall = e2e_series(workload, &reps, |t| t.wall_s);
    let metrics = if trace {
        attempted += units;
        let values = match spawn_rep(workload, seed, scale, true) {
            Ok(traced) => {
                if traced.digest != reference {
                    failed += units;
                    problems.push(format!(
                        "{} seed {seed}: traced digest {} differs from {reference}",
                        workload.name(),
                        traced.digest
                    ));
                }
                if !traced.violations.is_empty() {
                    failed += units;
                    problems.extend(traced.violations.iter().cloned());
                }
                report::layer_values(&traced, &reps)
            }
            // Counted as failed; the layers read 0 so the result line
            // still names every declared metric.
            Err(e) => {
                failed += units;
                problems.push(e);
                spec.per_layer
                    .iter()
                    .map(|m| (m.name.clone(), 0.0))
                    .collect()
            }
        };
        report::in_declared_order(&spec.per_layer, &values)?
    } else {
        let medians: Vec<(String, f64)> =
            series.iter().map(|s| (s.name.clone(), s.median)).collect();
        report::in_declared_order(&spec.end_to_end, &medians)?
    };
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        series,
        wall,
        problems,
        reps: reps.len(),
        slowdown: stats::median(&reps.iter().map(|r| r.run.slowdown()).collect::<Vec<_>>()),
        digest: reps[0].digest.clone(),
        pinned,
    })
}

/// The default command: one run, report on stderr, result on stdout.
fn run_command(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    let workload = o.workload.ok_or("--workload is required (or: all, diff)")?;
    let started = Instant::now();
    let r = run_workload(workload, o.seed, o.seconds, o.trace, o.scale)?;
    eprintln!(
        "{} seed {} ({}): {} untraced rep(s){} in {:.1} s; the host ran {:.2}x slower than reference",
        workload.name(),
        o.seed,
        if o.scale == Scale::Smoke {
            "smoke"
        } else {
            "full"
        },
        r.reps,
        if o.trace { " + 1 traced" } else { "" },
        started.elapsed().as_secs_f64(),
        r.slowdown
    );
    if o.trace {
        for (m, v) in &r.metrics {
            eprintln!("  {:<32} {:>14} {}", m.name, report::fmt(*v), m.unit);
        }
    } else {
        for (s, w) in r.series.iter().zip(&r.wall) {
            report::print_series(s, w);
        }
    }
    match &r.pinned {
        Some(p) if *p == r.digest => eprintln!("  digest {} (matches the pinned value)", r.digest),
        Some(p) => eprintln!("  digest {} (pinned {p})", r.digest),
        None => eprintln!("  digest {} (consistent across reps)", r.digest),
    }
    for p in &r.problems {
        eprintln!("  FAILED: {p}");
    }
    println!(
        "{}",
        report::result_line(r.correct, r.attempted, r.failed, &r.metrics)
    );
    Ok(())
}

/// The medians of one metric over runs, one sample per run.
fn over_runs(runs: &[RunResult], pick: impl Fn(&RunResult) -> &[Series]) -> Vec<Series> {
    report::spec()
        .end_to_end
        .iter()
        .map(|m| {
            let values = runs
                .iter()
                .filter_map(|r| pick(r).iter().find(|s| s.name == m.name))
                .map(|s| s.median)
                .collect();
            Series::of(m, values)
        })
        .collect()
}

/// `benchmark all`: `--runs` untraced runs of every workload, round-robin
/// with seeds 101, 202, …, then one traced run each at the default seed;
/// prints each metric's median, quartiles and spread against its bound,
/// and writes the set to `--out` for `benchmark diff`. A run that fails is
/// recorded as failed and the set goes on.
fn all_command(args: &[String]) -> Result<(), String> {
    let o = parse_options(args)?;
    if o.runs == 0 {
        return Err("--runs must be at least 1".into());
    }
    let spec = report::spec();
    let mut records: Vec<WorkloadRecord> = Workload::ALL
        .iter()
        .map(|w| WorkloadRecord {
            name: w.name().into(),
            correct: true,
            attempted: 0,
            failed: 0,
            end_to_end: Vec::new(),
            wall: Vec::new(),
            per_layer: Vec::new(),
            problems: Vec::new(),
        })
        .collect();
    let mut untraced: Vec<Vec<RunResult>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    // Folds one run into its workload's record.
    let tally =
        |record: &mut WorkloadRecord, run: Result<&RunResult, String>, label: String| match run {
            Ok(r) => {
                record.correct &= r.correct;
                record.attempted += r.attempted;
                record.failed += r.failed;
                record.problems.extend(r.problems.iter().cloned());
                eprintln!("{label:<36} host {:.2}x  correct {}", r.slowdown, r.correct);
            }
            Err(e) => {
                record.correct = false;
                eprintln!("{label:<36} FAILED: {e}");
                record.problems.push(e);
            }
        };
    for i in 1..=o.runs as u64 {
        for (w, (record, runs)) in Workload::ALL
            .iter()
            .zip(records.iter_mut().zip(&mut untraced))
        {
            let label = format!("run {i}/{} {}", o.runs, w.name());
            let run = run_workload(*w, DEFAULT_SEED * i, o.seconds, false, o.scale);
            tally(record, run.as_ref().map_err(Clone::clone), label);
            runs.extend(run.ok());
        }
    }
    for (w, (record, runs)) in Workload::ALL.iter().zip(records.iter_mut().zip(&untraced)) {
        let label = format!("traced {}", w.name());
        let traced = run_workload(*w, DEFAULT_SEED, o.seconds, true, o.scale);
        tally(record, traced.as_ref().map_err(Clone::clone), label);
        if let Ok(t) = &traced {
            record.per_layer = t
                .metrics
                .iter()
                .map(|(m, v)| (m.name.clone(), *v))
                .collect();
        }
        if !runs.is_empty() {
            record.end_to_end = over_runs(runs, |r| &r.series);
            record.wall = over_runs(runs, |r| &r.wall);
        }
    }
    let record = Record {
        runs: o.runs as u64,
        seconds: o.seconds as u64,
        workloads: records,
    };
    for w in &record.workloads {
        eprintln!(
            "\n{} — {} run(s), correct {}, failed {}/{}",
            w.name, record.runs, w.correct, w.failed, w.attempted
        );
        for (s, m) in w.end_to_end.iter().zip(&spec.end_to_end) {
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if s.spread() <= bound / 3.0 {
                "steady"
            } else if s.spread() <= bound {
                "within bound"
            } else {
                "NOISIER THAN BOUND"
            };
            eprintln!(
                "  {:<14} median {:>12} [{} .. {}] spread {:>5.1}% (bound {:.0}%) {verdict}",
                s.name,
                report::fmt(s.median),
                report::fmt(s.q1),
                report::fmt(s.q3),
                100.0 * s.spread(),
                100.0 * bound
            );
        }
        for p in &w.problems {
            eprintln!("  FAILED: {p}");
        }
    }
    if let Some(path) = &o.out {
        let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("\nwrote {path}");
    }
    Ok(())
}
