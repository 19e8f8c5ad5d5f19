//! # dtn-bench
//!
//! The experiment harness: one binary per figure of the paper's evaluation
//! (Figs. 5.1–5.6), an ablation study, and an `all` driver. Each binary
//! prints the figure's series as an aligned table plus machine-readable
//! CSV, and writes the CSV under `results/`.
//!
//! ```text
//! cargo run --release -p dtn-bench --bin fig5_1            # reduced scale
//! cargo run --release -p dtn-bench --bin fig5_1 -- --full  # Table 5.1 scale
//! cargo run --release -p dtn-bench --bin fig5_1 -- --seeds 1
//! cargo run --release -p dtn-bench --bin all               # everything
//! ```
//!
//! Performance lives in two binaries: `benchmark`, the repository
//! benchmark and perf ledger (`src/bin/benchmark/`, pinned by
//! `BENCHMARK.json`), and `perf`, the scale gates no benchmark workload
//! covers.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use dtn_workloads::paper::Scale;
use dtn_workloads::scenario::Scenario;
use dtn_workloads::sweep;

pub mod figures;

/// Conventional location of the persistent run cache (`--sweep-cache`).
pub const SWEEP_CACHE_DIR: &str = "results/.sweep-cache";

/// Parsed command-line options shared by every figure binary.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment scale (reduced by default; `--full` for Table 5.1).
    pub scale: Scale,
    /// Seeds to average over (`--seeds N` truncates the scale's set).
    pub seeds: Vec<u64>,
    /// CI smoke mode (`--smoke`): simulated durations divided by 12 so
    /// the full figure suite finishes in CI time.
    pub smoke: bool,
    /// Fail if any cell missed the cache (`--expect-warm`): the CI
    /// warm-cache invariant for the second `all` invocation.
    pub expect_warm: bool,
}

impl Cli {
    /// Parses `std::env::args` and applies the sweep-executor flags
    /// (worker count, cache persistence) to the process-global executor
    /// configuration.
    ///
    /// Flags: `--full` (paper scale), `--seeds N` (use the first N
    /// seeds), `--sweep-workers N` (executor pool size; default = cores),
    /// `--sweep-cache` (persist the run cache under
    /// `results/.sweep-cache/`), `--smoke` (divide durations by 12),
    /// `--expect-warm` (fail on any cache miss).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags.
    #[must_use]
    pub fn parse() -> Self {
        Self::parse_from(std::env::args().skip(1).collect())
    }

    /// [`Cli::parse`] over an explicit argument vector (testable).
    ///
    /// # Panics
    ///
    /// Panics with a usage message on unknown flags.
    #[must_use]
    pub fn parse_from(args: Vec<String>) -> Self {
        let mut scale = Scale::Reduced;
        let mut seed_count: Option<usize> = None;
        let mut smoke = false;
        let mut expect_warm = false;
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--full" => scale = Scale::Full,
                "--seeds" => {
                    i += 1;
                    let n = args
                        .get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| panic!("--seeds needs a positive integer"));
                    assert!(n > 0, "--seeds needs a positive integer");
                    seed_count = Some(n);
                }
                "--sweep-workers" => {
                    i += 1;
                    let n = args
                        .get(i)
                        .and_then(|s| s.parse::<usize>().ok())
                        .unwrap_or_else(|| panic!("--sweep-workers needs a positive integer"));
                    assert!(n > 0, "--sweep-workers needs a positive integer");
                    sweep::set_workers(n);
                }
                "--sweep-cache" => sweep::set_cache_dir(Some(PathBuf::from(SWEEP_CACHE_DIR))),
                "--smoke" => smoke = true,
                "--expect-warm" => expect_warm = true,
                other => panic!(
                    "unknown flag {other}; use --full, --seeds N, --sweep-workers N, \
                     --sweep-cache, --smoke and/or --expect-warm"
                ),
            }
            i += 1;
        }
        let all = scale.seeds();
        let n = seed_count.unwrap_or(all.len()).min(all.len());
        Cli {
            scale,
            seeds: all[..n].to_vec(),
            smoke,
            expect_warm,
        }
    }

    /// Applies the smoke transform: under `--smoke` the simulated
    /// duration shrinks twelvefold (floored at ten minutes) so the full
    /// suite runs in CI time; otherwise the scenario passes through
    /// untouched. Every figure routes its sweep scenarios through here so
    /// cells built for prefetch and cells built for formatting hash to
    /// the same cache keys.
    #[must_use]
    pub fn prep(&self, mut scenario: Scenario) -> Scenario {
        if self.smoke {
            scenario.duration_secs = (scenario.duration_secs / 12.0).max(600.0);
            scenario.message_ttl_secs = scenario.message_ttl_secs.min(scenario.duration_secs);
        }
        scenario
    }

    /// Asserts the warm-cache invariant when `--expect-warm` was given:
    /// every cell of the invocation must have been a cache hit.
    ///
    /// # Panics
    ///
    /// Panics (failing the process) if any cell missed the cache.
    pub fn enforce_expect_warm(&self) {
        if !self.expect_warm {
            return;
        }
        let m = sweep::metrics();
        assert!(
            m.cache_misses == 0,
            "--expect-warm: expected a fully warm cache, but {} cell(s) missed \
             ({} hits, {} run)",
            m.cache_misses,
            m.cache_hits,
            m.cells_run
        );
        println!(
            "[sweep] warm cache verified: {} hits, 0 misses ({} from disk)",
            m.cache_hits, m.disk_hits
        );
    }
}

/// Prints a banner plus the scenario's Table 5.1 parameters, so every
/// figure's output documents the exact condition it ran under.
pub fn print_scenario_header(title: &str, scenario: &Scenario, seeds: &[u64]) {
    println!("==============================================================");
    println!("{title}");
    println!("==============================================================");
    println!(
        "participants {}   area {} km²   simulated {}h   seeds {:?}",
        scenario.nodes,
        scenario.area_km2,
        scenario.duration_secs / 3600.0,
        seeds
    );
    println!(
        "pool {} keywords   {} interests/node   msg {} B every {}s (TTL {}s)",
        scenario.keyword_pool,
        scenario.interests_per_node,
        scenario.message_size,
        scenario.message_interval_secs,
        scenario.message_ttl_secs
    );
    println!(
        "radio {} kB/s, {} m   buffer {} MB   tokens {}   relay threshold {}",
        scenario.radio.link_speed_bps / 1000.0,
        scenario.radio.range_m,
        scenario.buffer_bytes / 1_000_000,
        scenario.protocol.incentive.initial_tokens,
        scenario.protocol.incentive.relay_threshold
    );
    println!();
}

/// Writes CSV rows (with a header line) to `results/<name>.csv`, creating
/// the directory if needed, and echoes the path.
pub fn write_csv(name: &str, header: &str, rows: &[String]) {
    let dir = PathBuf::from("results");
    if let Err(e) = fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.csv"));
    match fs::File::create(&path) {
        Ok(mut f) => {
            let _ = writeln!(f, "{header}");
            for row in rows {
                let _ = writeln!(f, "{row}");
            }
            println!("\n[csv] {}", path.display());
        }
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Renders a time series as a compact ASCII chart (one row per series
/// value band, time flowing left to right), so figure binaries can show
/// the curve's shape directly in the terminal next to the numeric table.
///
/// Returns an empty string for series with fewer than two points.
#[must_use]
pub fn ascii_chart(series: &[(f64, f64)], height: usize, label: &str) -> String {
    if series.len() < 2 || height < 2 {
        return String::new();
    }
    let (min, max) = series
        .iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), &(_, v)| {
            (lo.min(v), hi.max(v))
        });
    let span = (max - min).max(1e-9);
    let width = series.len();
    let mut grid = vec![vec![' '; width]; height];
    for (x, &(_, v)) in series.iter().enumerate() {
        let row = ((max - v) / span * (height - 1) as f64).round() as usize;
        grid[row.min(height - 1)][x] = '*';
    }
    let mut out = String::new();
    for (i, row) in grid.iter().enumerate() {
        let edge = if i == 0 {
            format!("{max:8.2} ┤")
        } else if i == height - 1 {
            format!("{min:8.2} ┤")
        } else {
            "         │".to_owned()
        };
        out.push_str(&edge);
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("         └{} {label}\n", "─".repeat(width)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtn_workloads::paper::reduced_scenario;

    #[test]
    fn ascii_chart_renders_extremes() {
        let series = vec![(0.0, 5.0), (1.0, 3.0), (2.0, 1.0), (3.0, 1.0)];
        let chart = ascii_chart(&series, 4, "t");
        assert!(chart.contains("5.00"), "max labelled: {chart}");
        assert!(chart.contains("1.00"), "min labelled");
        assert_eq!(chart.matches('*').count(), 4, "one mark per point");
        let first_line = chart.lines().next().expect("nonempty");
        assert!(first_line.contains('*'), "the max sits on the top row");
    }

    #[test]
    fn ascii_chart_degenerate_inputs() {
        assert!(ascii_chart(&[], 4, "t").is_empty());
        assert!(ascii_chart(&[(0.0, 1.0)], 4, "t").is_empty());
        assert!(ascii_chart(&[(0.0, 1.0), (1.0, 2.0)], 1, "t").is_empty());
        // Flat series must not divide by zero.
        let flat = ascii_chart(&[(0.0, 2.0), (1.0, 2.0), (2.0, 2.0)], 3, "t");
        assert_eq!(flat.matches('*').count(), 3);
    }

    #[test]
    fn header_prints_without_panicking() {
        print_scenario_header("test", &reduced_scenario(), &[1, 2]);
    }

    #[test]
    fn csv_writes_into_results_dir() {
        let dir = tempdir();
        let _guard = Chdir::new(&dir);
        write_csv("unit-test", "a,b", &["1,2".into(), "3,4".into()]);
        let content = std::fs::read_to_string("results/unit-test.csv").expect("written");
        assert_eq!(content, "a,b\n1,2\n3,4\n");
    }

    fn tempdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dtn-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    /// Restores the working directory on drop so tests do not interfere.
    struct Chdir {
        original: std::path::PathBuf,
    }

    impl Chdir {
        fn new(to: &std::path::Path) -> Self {
            let original = std::env::current_dir().expect("cwd");
            std::env::set_current_dir(to).expect("chdir");
            Chdir { original }
        }
    }

    impl Drop for Chdir {
        fn drop(&mut self) {
            let _ = std::env::set_current_dir(&self.original);
        }
    }
}
