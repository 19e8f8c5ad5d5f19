//! Kernel performance baseline: runs pinned scenarios over fixed seeds
//! with the phase profiler enabled and writes `BENCH_kernel.json`.
//!
//! The scenarios are *pinned*: their parameters must not drift between
//! baseline captures, or wall-clock numbers stop being comparable across
//! commits. Change a scenario only together with a rename (bump the
//! `-v1` suffix) and a fresh committed baseline.
//!
//! ```text
//! cargo run --release -p dtn-bench --bin perf                 # full capture
//! cargo run --release -p dtn-bench --bin perf -- --seeds 1    # fewer seeds
//! cargo run --release -p dtn-bench --bin perf -- --quick \
//!     --check BENCH_kernel.json                               # CI gate
//! ```
//!
//! Schema of `BENCH_kernel.json`: a JSON array with one row per
//! (pinned scenario, thread count); totals are summed across that row's
//! seeds. `threads` is the kernel shard count the row ran at and `mode`
//! labels `--quick` rows, whose shortened runs are not comparable to
//! full captures. The last four columns are optional and written only
//! when they carry a value:
//!
//! ```json
//! [{"name": "...", "threads": n, "mode": "full|quick",
//!   "wall_secs": f, "sim_secs_per_sec": f, "events_per_sec": f,
//!   "steps": n, "contacts": n, "relays": n, "retried": n,
//!   "resumed": n,
//!   "cells": n, "cells_per_sec": f,
//!   "bytes_per_node": f,
//!   "note": "..."}, ...]
//! ```
//!
//! - `cells`, `cells_per_sec`: sweep rows only — cells in the suite plan
//!   and cells completed per wall second.
//! - `bytes_per_node`: kernel rows — interest plus reputation table bytes
//!   per node, from the `arena.interest_bytes` and
//!   `arena.reputation_bytes` gauges at the end of the run (seeds merge by
//!   max). Omitted when the gauges read 0.
//! - `note`: free text on a row the capture could not fully measure, e.g.
//!   `"scaling probe skipped: N cores"` on the sharded `perf-huge-v1` row.
//!
//! Rows: `perf-medium-v1` is the clean kernel, captured at threads 1, 2,
//! 4 and 8 so the baseline records the scaling curve; `chaos-recovery-v1`
//! runs the same world under transfer loss and link cuts with the default
//! recovery policy, tracking the retry/resume path; `perf-large-v1` is a
//! 1000-node world at the same density (threads 1 and 4);
//! `perf-huge-v1` is a 100k-node world at the same density (threads 1
//! and 4, one seed) — the scale the event-driven contact core targets;
//! `perf-huge-v2` is a 250k-node world (threads 1, one seed) held to an
//! absolute events/sec floor and a `bytes_per_node` ceiling;
//! `sweep-suite-v1` is a miniature figure grid pushed through the sweep
//! executor at 1 worker and at `min(8, cores)` workers with a cold memo,
//! plus a `sweep-suite-v1-warm` pass over the populated memo. For sweep
//! rows `threads` records the *worker-pool size* (each cell runs a
//! single-threaded kernel), `cells`/`cells_per_sec` record the suite
//! shape, and `events_per_sec` mirrors `cells_per_sec` so the committed
//! comparison below applies uniformly.
//!
//! ## Regression gate (`--check <baseline>`)
//!
//! With `--check`, the committed baseline is read *before* the capture,
//! and after writing the fresh numbers the run fails if any row's
//! `events_per_sec` fell more than `--tolerance` (default 0.25) below the
//! committed row with the same `(name, threads)`. Rows absent from the
//! baseline are reported but never fail the gate, so adding a scenario
//! does not require a flag-day (warm sweep rows are also exempt — memo
//! hits are too fast for wall-clock comparisons across machines). The
//! gate additionally enforces *relative* floors computed within the
//! fresh capture: `perf-medium-v1` at threads >= 4 must clear 1.5x the
//! pre-optimization single-thread baseline ([`SEED_MEDIUM_EV_PER_SEC`]),
//! `perf-large-v1` at threads = 1 must clear [`EVENT_CORE_FLOOR`]x the
//! time-stepped baseline ([`SEED_LARGE_EV_PER_SEC`]), `perf-huge-v1` at
//! threads = 4 must beat its own threads = 1 row whenever >= 4 cores are
//! available (skipped on smaller machines, with a `note` on the row),
//! and the sweep suite must show the pool and the cache actually paying
//! off — cold at >= 4 workers at least [`SWEEP_COLD_SPEEDUP`]x the cold
//! 1-worker rate, warm at least [`SWEEP_WARM_SPEEDUP`]x it. Two absolute
//! bounds hold too: `perf-huge-v2` at threads = 1 must clear
//! [`HUGE2_EV_FLOOR`] and keep `bytes_per_node` under
//! [`HUGE2_BYTES_PER_NODE_CEILING`].

use std::time::Instant;

use dtn_sim::faults::FaultPlan;
use dtn_sim::transfer::RecoveryPolicy;
use dtn_workloads::paper::{reduced_scenario, seeds_for};
use dtn_workloads::runner::{run_once_perf, PerfReport};
use dtn_workloads::scenario::{Arm, Scenario};
use dtn_workloads::sweep::{self, run_cells, Cell};
use serde::Deserialize;

/// `perf-medium-v1` events/sec of the single-threaded kernel as committed
/// before the parallel step loop landed. Pinned like the scenarios: the
/// `--check` floor asserts the sharded kernel stays >= 1.5x this number
/// at threads >= 4, whatever the current committed baseline says.
const SEED_MEDIUM_EV_PER_SEC: f64 = 6566.688;

/// Required speedup over [`SEED_MEDIUM_EV_PER_SEC`] at threads >= 4.
const PARALLEL_FLOOR: f64 = 1.5;

/// `perf-large-v1` events/sec of the single-threaded kernel as committed
/// before the event-driven contact core and the in-place exchange paths
/// landed. The `--check` floor asserts the current kernel stays >=
/// [`EVENT_CORE_FLOOR`]x this rate at threads = 1 — the event core's
/// speedup is algorithmic, so it must show without any sharding.
const SEED_LARGE_EV_PER_SEC: f64 = 9278.437;

/// Required speedup over [`SEED_LARGE_EV_PER_SEC`] at threads = 1.
const EVENT_CORE_FLOOR: f64 = 5.0;

/// Thread counts the medium scenario is captured at (the scaling curve).
const MEDIUM_SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Thread counts for the large scenario (one serial, one sharded point).
const LARGE_SWEEP: [usize; 2] = [1, 4];

/// Thread counts for the huge scenario. The pair doubles as the gate's
/// thread-scaling probe: with >= 4 cores available, the threads = 4 row
/// must beat the threads = 1 row outright.
const HUGE_SWEEP: [usize; 2] = [1, 4];

/// Absolute events/sec floor for `perf-huge-v2` at threads = 1. The row
/// is new with the settlement wheel, so the first gate is an absolute
/// floor (roughly half the capture rate on the reference machine) rather
/// than a committed-row comparison; later captures also get the standard
/// tolerance check against the committed row.
const HUGE2_EV_FLOOR: f64 = 8_000.0;

/// Ceiling on protocol state bytes per node for `perf-huge-v2`: interest
/// plus reputation table bytes (the arena gauges) divided by the node count.
/// The measured footprint is ~13.3 kB/node — reputation gossip
/// legitimately spreads opinion rows across a contact-diverse 250k-node
/// population, and that gossip reach (not the slimmed row structs) is
/// what dominates. The ceiling sits well above the measurement so the
/// gate catches a structural regression (a fatter row, a leaked scratch
/// buffer) without tripping on workload-driven gossip variance.
const HUGE2_BYTES_PER_NODE_CEILING: f64 = 24_576.0;

/// Required cold-cache sweep speedup at >= 4 workers over 1 worker.
const SWEEP_COLD_SPEEDUP: f64 = 2.0;

/// Required warm-cache sweep speedup over the cold 1-worker rate.
const SWEEP_WARM_SPEEDUP: f64 = 5.0;

/// The pinned clean baseline: the reduced-scale world under a stable
/// name so recorded baselines are tied to an exact configuration.
fn perf_scenario() -> Scenario {
    reduced_scenario().named("perf-medium-v1")
}

/// The pinned recovery baseline: the same world with enough transfer
/// loss and link churn to keep the retry queue and checkpoint store
/// busy, so regressions in the recovery path show up as wall-clock.
fn chaos_recovery_scenario() -> Scenario {
    let mut s = reduced_scenario().named("chaos-recovery-v1");
    s.chaos = Some(FaultPlan {
        transfer_loss_prob: 0.15,
        link_cut_per_hour: 4.0,
        link_cut_secs: 30.0,
        ..FaultPlan::default()
    });
    s.recovery = Some(RecoveryPolicy::default());
    s
}

/// The pinned large-world baseline: 1000 nodes at the reduced scenario's
/// density (10 km²) over 30 simulated minutes — big enough that contact
/// detection and the batched transfer pass dominate, short enough to run
/// on every capture.
fn perf_large_scenario() -> Scenario {
    let mut s = reduced_scenario().named("perf-large-v1");
    s.nodes = 1000;
    s.area_km2 = 10.0;
    s.duration_secs = 1800.0;
    s.message_ttl_secs = 900.0;
    s
}

/// The pinned huge-world baseline: 100k nodes at the same density
/// (1000 km²) over 10 simulated minutes — the scale the event-driven
/// contact core exists for. One seed, short horizon: the row costs about
/// a large-row capture per thread count and exercises region sharding at
/// a population where a full pairwise sweep would be hopeless.
fn perf_huge_scenario() -> Scenario {
    let mut s = reduced_scenario().named("perf-huge-v1");
    s.nodes = 100_000;
    s.area_km2 = 1000.0;
    s.duration_secs = 600.0;
    s.message_ttl_secs = 300.0;
    s
}

/// The quarter-million-node row: same density as `perf-huge-v1` over a
/// shorter horizon, pushing the settlement wheel and the per-node table
/// footprint toward the 1M-node target. Besides throughput, the row
/// records protocol state bytes per node (interest + reputation tables,
/// measured via the arena gauges) and the gate holds that footprint
/// under [`HUGE2_BYTES_PER_NODE_CEILING`].
fn perf_huge2_scenario() -> Scenario {
    let mut s = reduced_scenario().named("perf-huge-v2");
    s.nodes = 250_000;
    s.area_km2 = 2500.0;
    s.duration_secs = 300.0;
    s.message_ttl_secs = 150.0;
    s
}

/// The pinned sweep-executor baseline: a miniature figure grid (selfish
/// fractions × both arms × seeds) of single-threaded kernels, so the row
/// measures pool scaling and cache hits rather than intra-cell sharding.
/// Pinned like the other scenarios: reshaping the grid requires a rename.
fn sweep_suite_plan(quick: bool) -> Vec<Cell> {
    let seeds: Vec<u64> = if quick {
        vec![1, 2, 3]
    } else {
        vec![1, 2, 3, 4, 5]
    };
    let mut cells = Vec::new();
    for selfish in [0.0, 0.2, 0.4, 0.6] {
        let mut s = reduced_scenario().named("sweep-suite-v1");
        s.nodes = 20;
        s.area_km2 = 0.2;
        s.duration_secs = 1200.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 900.0;
        s.selfish_fraction = selfish;
        s.threads = Some(1);
        for arm in Arm::BOTH {
            for &seed in &seeds {
                cells.push(Cell::arm(s.clone(), arm, seed));
            }
        }
    }
    cells
}

/// One captured baseline row. `Deserialize` doubles as the committed-
/// baseline reader for `--check`; `threads`/`mode` are optional there so
/// pre-sweep baselines (which had neither field) still parse.
#[derive(Debug, Clone, Deserialize)]
struct BenchRow {
    name: String,
    #[serde(default)]
    threads: Option<u64>,
    #[serde(default)]
    mode: Option<String>,
    #[allow(dead_code)]
    #[serde(default)]
    wall_secs: f64,
    #[allow(dead_code)]
    #[serde(default)]
    sim_secs_per_sec: f64,
    events_per_sec: f64,
    #[serde(default)]
    steps: u64,
    #[serde(default)]
    contacts: u64,
    #[serde(default)]
    relays: u64,
    #[serde(default)]
    retried: u64,
    #[serde(default)]
    resumed: u64,
    /// Sweep rows only: cells in the suite plan (0 on kernel rows).
    #[serde(default)]
    cells: u64,
    /// Sweep rows only: cells completed per wall second.
    #[serde(default)]
    cells_per_sec: f64,
    /// Protocol state bytes per node (interest + reputation tables via
    /// the arena gauges); 0 when the gauges are absent.
    #[serde(default)]
    bytes_per_node: f64,
    /// Free-form annotation (e.g. why the scaling probe did not run).
    #[serde(default)]
    note: Option<String>,
}

impl BenchRow {
    fn threads(&self) -> u64 {
        self.threads.unwrap_or(1)
    }

    /// Hand-formatted to keep the committed file's row style stable. The
    /// sweep-only columns appear only on sweep rows so kernel rows keep
    /// their historical shape.
    fn to_json(&self) -> String {
        let mut sweep_cols = if self.cells > 0 {
            format!(
                ",\n    \"cells\": {},\n    \"cells_per_sec\": {:.3}",
                self.cells, self.cells_per_sec
            )
        } else {
            String::new()
        };
        if self.bytes_per_node > 0.0 {
            sweep_cols.push_str(&format!(
                ",\n    \"bytes_per_node\": {:.3}",
                self.bytes_per_node
            ));
        }
        if let Some(note) = &self.note {
            sweep_cols.push_str(&format!(
                ",\n    \"note\": {}",
                serde_json::to_string(note).expect("string encodes")
            ));
        }
        format!(
            "{{\n    \"name\": {},\n    \"threads\": {},\n    \"mode\": {},\n    \
             \"wall_secs\": {:.6},\n    \"sim_secs_per_sec\": {:.3},\n    \
             \"events_per_sec\": {:.3},\n    \"steps\": {},\n    \"contacts\": {},\n    \
             \"relays\": {},\n    \"retried\": {},\n    \"resumed\": {}{sweep_cols}\n  }}",
            serde_json::to_string(&self.name).expect("string encodes"),
            self.threads(),
            serde_json::to_string(self.mode.as_deref().unwrap_or("full")).expect("string encodes"),
            self.wall_secs,
            self.sim_secs_per_sec,
            self.events_per_sec,
            self.steps,
            self.contacts,
            self.relays,
            self.retried,
            self.resumed,
        )
    }
}

/// Run one pinned scenario at one thread count over `seeds`.
fn bench_row(scenario: &Scenario, threads: usize, seeds: &[u64], quick: bool) -> BenchRow {
    let mut scenario = scenario.clone();
    scenario.threads = Some(threads);
    if quick {
        // A sixth of the pinned duration: enough steps for a stable rate,
        // short enough for a per-commit CI gate. Quick rows are labeled
        // (`mode`) because their absolute numbers trend slightly below a
        // full capture's.
        scenario.duration_secs /= 6.0;
        scenario.message_ttl_secs = scenario.message_ttl_secs.min(scenario.duration_secs / 2.0);
    }
    let label = format!(
        "{} [threads={threads}{}]",
        scenario.name,
        if quick { ", quick" } else { "" }
    );
    dtn_bench::print_scenario_header("kernel performance baseline", &scenario, seeds);
    println!("row: {label}");

    // Sequential, one profiled run per seed: wall-clock must measure the
    // kernel, not scheduler contention between concurrent runs.
    let mut report: Option<PerfReport> = None;
    let mut relays = 0u64;
    let mut retried = 0u64;
    let mut resumed = 0u64;
    for &seed in seeds {
        let (run, perf) = run_once_perf(&scenario, Arm::Incentive, seed);
        relays += run.summary.relays_completed;
        retried += run.summary.transfers_retried;
        resumed += run.summary.transfers_resumed;
        println!(
            "seed {seed}: {:.2}s wall, {:.0} ev/s, {} relays",
            perf.wall_secs, perf.events_per_sec, run.summary.relays_completed
        );
        match &mut report {
            Some(r) => r.merge(&perf),
            None => report = Some(perf),
        }
    }
    let report = report.expect("at least one seed");
    let contacts = report.metrics.counter("kernel.contacts_up");
    // Per-node protocol table footprint from the arena gauges (end-of-run
    // values; seeds merge by max, so multi-seed rows report the widest).
    let table_bytes = report.metrics.gauge("arena.interest_bytes").unwrap_or(0.0)
        + report
            .metrics
            .gauge("arena.reputation_bytes")
            .unwrap_or(0.0);
    let bytes_per_node = table_bytes / scenario.nodes as f64;
    if bytes_per_node > 0.0 {
        println!("state: {bytes_per_node:.1} table bytes/node ({table_bytes:.0} total)");
    }

    println!("\n{}", report.render());
    assert!(
        report.events_per_sec > 0.0 && report.wall_secs > 0.0,
        "profiled run produced no throughput"
    );

    BenchRow {
        name: scenario.name.clone(),
        threads: Some(threads as u64),
        mode: Some(if quick { "quick" } else { "full" }.into()),
        wall_secs: report.wall_secs,
        sim_secs_per_sec: report.sim_secs_per_sec,
        events_per_sec: report.events_per_sec,
        steps: report.steps,
        contacts,
        relays,
        retried,
        resumed,
        cells: 0,
        cells_per_sec: 0.0,
        bytes_per_node,
        note: None,
    }
}

/// Run the pinned sweep suite once at the given worker count and time it.
/// The memo must be cleared by the caller for cold rows; leaving it
/// populated is what makes the warm row a pure cache measurement.
fn sweep_suite_row(name: &str, workers: usize, plan: &[Cell], quick: bool) -> BenchRow {
    sweep::set_workers(workers);
    sweep::reset_metrics();
    let started = Instant::now();
    let results = run_cells(plan);
    let wall = started.elapsed().as_secs_f64().max(1e-9);
    assert_eq!(results.len(), plan.len(), "executor returned the full plan");
    let m = sweep::metrics();
    let relays: u64 = results.iter().map(|r| r.summary.relays_completed).sum();
    let retried: u64 = results.iter().map(|r| r.summary.transfers_retried).sum();
    let resumed: u64 = results.iter().map(|r| r.summary.transfers_resumed).sum();
    let sim_secs: f64 = plan.iter().map(|c| c.scenario.duration_secs).sum();
    let cells_per_sec = plan.len() as f64 / wall;
    println!(
        "row: {name} [workers={workers}{}]: {} cells in {wall:.2}s \
         ({cells_per_sec:.1} cells/s, {} run, {} cache hits)",
        if quick { ", quick" } else { "" },
        plan.len(),
        m.cells_run,
        m.cache_hits,
    );
    BenchRow {
        name: name.into(),
        threads: Some(workers as u64),
        mode: Some(if quick { "quick" } else { "full" }.into()),
        wall_secs: wall,
        sim_secs_per_sec: sim_secs / wall,
        // Mirrors cells_per_sec so the committed comparison treats sweep
        // rows like any other row (see the module docs).
        events_per_sec: cells_per_sec,
        steps: 0,
        contacts: 0,
        relays,
        retried,
        resumed,
        cells: plan.len() as u64,
        cells_per_sec,
        bytes_per_node: 0.0,
        note: None,
    }
}

/// The sweep suite's relative floors, computed within one fresh capture:
/// the cold pool must beat the cold single worker, the warm memo must
/// beat them both. Returns failures (empty = floors clear or not
/// applicable on this machine).
fn check_sweep_floors(fresh: &[BenchRow]) -> Vec<String> {
    let rate = |name: &str, min_threads: u64| {
        fresh
            .iter()
            .find(|r| r.name == name && r.threads() >= min_threads)
            .map(|r| (r.threads(), r.cells_per_sec))
    };
    let Some((_, cold1)) = rate("sweep-suite-v1", 1).filter(|&(t, _)| t == 1) else {
        return vec!["sweep-suite-v1 [threads=1] row missing from the capture".into()];
    };
    let mut failures = Vec::new();
    match rate("sweep-suite-v1", 2) {
        Some((workers, cold_n)) if workers >= 4 => {
            let ratio = cold_n / cold1;
            if ratio < SWEEP_COLD_SPEEDUP {
                failures.push(format!(
                    "sweep-suite-v1 [workers={workers}]: cold speedup {ratio:.2}x \
                     below the {SWEEP_COLD_SPEEDUP}x floor ({cold_n:.1} vs {cold1:.1} cells/s)"
                ));
            } else {
                println!(
                    "[check] sweep-suite-v1 [workers={workers}]: cold speedup \
                     {ratio:.2}x clears the {SWEEP_COLD_SPEEDUP}x floor"
                );
            }
        }
        // Fewer than 4 cores: the pool cannot be expected to hit 2x.
        _ => println!("[check] sweep-suite-v1: < 4 workers available, cold floor skipped"),
    }
    match fresh.iter().find(|r| r.name == "sweep-suite-v1-warm") {
        Some(warm) => {
            let ratio = warm.cells_per_sec / cold1;
            if ratio < SWEEP_WARM_SPEEDUP {
                failures.push(format!(
                    "sweep-suite-v1-warm: warm speedup {ratio:.2}x below the \
                     {SWEEP_WARM_SPEEDUP}x floor ({:.1} vs {cold1:.1} cells/s)",
                    warm.cells_per_sec
                ));
            } else {
                println!(
                    "[check] sweep-suite-v1-warm: warm speedup {ratio:.2}x \
                     clears the {SWEEP_WARM_SPEEDUP}x floor"
                );
            }
        }
        None => failures.push("sweep-suite-v1-warm row missing from the capture".into()),
    }
    failures
}

/// The regression gate: every fresh row must stay within `tolerance` of
/// the committed row with the same `(name, threads)`, and the medium
/// scenario's sharded rows must clear the parallel-step floor. Returns
/// the list of failures (empty = gate passes).
fn check_rows(fresh: &[BenchRow], baseline: &[BenchRow], tolerance: f64) -> Vec<String> {
    let mut failures = Vec::new();
    for row in fresh {
        let label = format!("{} [threads={}]", row.name, row.threads());
        if row.name.ends_with("-warm") {
            // Memo hits complete in microseconds; their wall-clock rate is
            // machine noise. The warm row is gated by its relative floor
            // (check_sweep_floors), not by the committed baseline.
            println!("[check] {label}: warm row, committed comparison skipped");
            continue;
        }
        match baseline
            .iter()
            .find(|b| b.name == row.name && b.threads() == row.threads())
        {
            Some(b) => {
                let floor = (1.0 - tolerance) * b.events_per_sec;
                if row.events_per_sec < floor {
                    failures.push(format!(
                        "{label}: {:.1} ev/s fell below {:.1} \
                         (committed {:.1} ev/s - {:.0}% tolerance)",
                        row.events_per_sec,
                        floor,
                        b.events_per_sec,
                        tolerance * 100.0
                    ));
                } else {
                    println!(
                        "[check] {label}: {:.1} ev/s vs committed {:.1} — ok",
                        row.events_per_sec, b.events_per_sec
                    );
                }
            }
            None => println!("[check] {label}: no committed row, skipped"),
        }
        if row.name == "perf-medium-v1" && row.threads() >= 4 {
            let floor = PARALLEL_FLOOR * SEED_MEDIUM_EV_PER_SEC;
            if row.events_per_sec < floor {
                failures.push(format!(
                    "{label}: {:.1} ev/s misses the parallel-step floor {:.1} \
                     ({PARALLEL_FLOOR}x the pre-optimization baseline {SEED_MEDIUM_EV_PER_SEC})",
                    row.events_per_sec, floor
                ));
            } else {
                println!(
                    "[check] {label}: {:.1} ev/s clears the {PARALLEL_FLOOR}x floor {:.1}",
                    row.events_per_sec, floor
                );
            }
        }
        if row.name == "perf-large-v1" && row.threads() == 1 {
            let floor = EVENT_CORE_FLOOR * SEED_LARGE_EV_PER_SEC;
            if row.events_per_sec < floor {
                failures.push(format!(
                    "{label}: {:.1} ev/s misses the event-core floor {:.1} \
                     ({EVENT_CORE_FLOOR}x the time-stepped baseline {SEED_LARGE_EV_PER_SEC})",
                    row.events_per_sec, floor
                ));
            } else {
                println!(
                    "[check] {label}: {:.1} ev/s clears the {EVENT_CORE_FLOOR}x floor {:.1}",
                    row.events_per_sec, floor
                );
            }
        }
        if row.name == "perf-huge-v2" && row.threads() == 1 {
            if row.events_per_sec < HUGE2_EV_FLOOR {
                failures.push(format!(
                    "{label}: {:.1} ev/s misses the absolute floor {HUGE2_EV_FLOOR}",
                    row.events_per_sec
                ));
            } else {
                println!(
                    "[check] {label}: {:.1} ev/s clears the absolute floor {HUGE2_EV_FLOOR}",
                    row.events_per_sec
                );
            }
            if row.bytes_per_node <= 0.0 {
                failures.push(format!(
                    "{label}: bytes_per_node missing — the arena gauges did not export"
                ));
            } else if row.bytes_per_node > HUGE2_BYTES_PER_NODE_CEILING {
                failures.push(format!(
                    "{label}: {:.1} table bytes/node exceeds the \
                     {HUGE2_BYTES_PER_NODE_CEILING} ceiling",
                    row.bytes_per_node
                ));
            } else {
                println!(
                    "[check] {label}: {:.1} table bytes/node under the \
                     {HUGE2_BYTES_PER_NODE_CEILING} ceiling",
                    row.bytes_per_node
                );
            }
        }
    }
    failures
}

/// The huge row's thread-scaling probe, computed within one fresh
/// capture: with >= 4 cores available, threads = 4 must beat threads = 1
/// outright — region parallelism that loses to the serial path is a
/// regression even if both rates clear their committed floors. On
/// smaller machines (CI runners are often 1–2 cores) the probe is
/// skipped: the sharded row cannot be expected to win without cores.
fn check_thread_scaling(fresh: &[BenchRow]) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < 4 {
        println!("[check] perf-huge-v1 thread scaling: {cores} core(s) available, skipped");
        return Vec::new();
    }
    let rate = |threads: u64| {
        fresh
            .iter()
            .find(|r| r.name == "perf-huge-v1" && r.threads() == threads)
            .map(|r| r.events_per_sec)
    };
    let (Some(serial), Some(sharded)) = (rate(1), rate(4)) else {
        return vec!["perf-huge-v1 rows missing from the capture".into()];
    };
    if sharded <= serial {
        return vec![format!(
            "perf-huge-v1: threads=4 at {sharded:.1} ev/s does not beat \
             threads=1 at {serial:.1} ev/s ({cores} cores available)"
        )];
    }
    println!(
        "[check] perf-huge-v1: threads=4 beats threads=1 \
         ({sharded:.1} vs {serial:.1} ev/s, {:.2}x)",
        sharded / serial
    );
    Vec::new()
}

fn main() {
    let mut seed_count = 3usize;
    let mut quick = false;
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.25f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                seed_count = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| panic!("--seeds needs a positive integer"));
            }
            "--quick" => quick = true,
            "--check" => {
                i += 1;
                check_path = Some(
                    args.get(i)
                        .unwrap_or_else(|| panic!("--check needs a baseline path"))
                        .clone(),
                );
            }
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .filter(|t| (0.0..1.0).contains(t))
                    .unwrap_or_else(|| panic!("--tolerance needs a fraction in [0, 1)"));
            }
            other => panic!(
                "unknown flag {other}; usage: perf [--seeds N] [--quick] \
                 [--check BASELINE.json] [--tolerance F]"
            ),
        }
        i += 1;
    }

    // Read the committed baseline before the capture overwrites it.
    let baseline: Option<Vec<BenchRow>> = check_path.as_ref().map(|path| {
        let text =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        serde_json::from_str(&text).unwrap_or_else(|e| panic!("cannot parse {path}: {e:?}"))
    });

    let seeds = seeds_for(seed_count);
    let mut rows: Vec<BenchRow> = Vec::new();
    let medium = perf_scenario();
    for threads in MEDIUM_SWEEP {
        rows.push(bench_row(&medium, threads, &seeds, quick));
    }
    rows.push(bench_row(&chaos_recovery_scenario(), 1, &seeds, quick));
    let large = perf_large_scenario();
    // The large world is ~10x the medium per-step cost; one seed keeps
    // the capture per-commit affordable without moving the rate.
    let large_seeds = &seeds[..1];
    for threads in LARGE_SWEEP {
        rows.push(bench_row(&large, threads, large_seeds, quick));
    }
    let huge = perf_huge_scenario();
    for threads in HUGE_SWEEP {
        rows.push(bench_row(&huge, threads, large_seeds, quick));
    }
    // The quarter-million-node row runs serial only: it exists to bound
    // per-node state and single-core throughput at scale, and one thread
    // count keeps the capture affordable.
    rows.push(bench_row(&perf_huge2_scenario(), 1, large_seeds, quick));

    // Record the thread-scaling probe's applicability on the sharded huge
    // row even when `--check` is not running: a < 4-core machine cannot
    // run the probe, and the capture should say so in the JSON rather
    // than silently self-skip.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    if cores < 4 {
        if let Some(row) = rows
            .iter_mut()
            .find(|r| r.name == "perf-huge-v1" && r.threads() == 4)
        {
            row.note = Some(format!("scaling probe skipped: {cores} cores"));
        }
    }

    // The sweep-executor suite: cold at 1 worker, cold at min(8, cores)
    // workers, then warm over the memo the second pass populated. The
    // disk cache stays off here — this row measures the pool and the
    // in-process memo, not filesystem throughput.
    let plan = sweep_suite_plan(quick);
    let pool = std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1);
    sweep::set_cache_dir(None);
    sweep::clear_memo();
    rows.push(sweep_suite_row("sweep-suite-v1", 1, &plan, quick));
    if pool > 1 {
        sweep::clear_memo();
        rows.push(sweep_suite_row("sweep-suite-v1", pool, &plan, quick));
    }
    rows.push(sweep_suite_row("sweep-suite-v1-warm", pool, &plan, quick));
    sweep::set_workers(0);

    let body: Vec<String> = rows.iter().map(BenchRow::to_json).collect();
    let json = format!("[\n  {}\n]\n", body.join(",\n  "));
    let path = "BENCH_kernel.json";
    std::fs::write(path, &json).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("[json] {path}");

    if let Some(baseline) = baseline {
        let mut failures = check_rows(&rows, &baseline, tolerance);
        failures.extend(check_thread_scaling(&rows));
        failures.extend(check_sweep_floors(&rows));
        if !failures.is_empty() {
            eprintln!("\nperf regression gate FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
        println!("[check] gate passed ({} rows)", rows.len());
    }
}
