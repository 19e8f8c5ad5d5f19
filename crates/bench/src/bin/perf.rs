//! Scale gates that no workload of the repository benchmark covers.
//!
//! ```text
//! cargo run --release -p dtn-bench --bin perf
//! ```
//!
//! The repository benchmark (`BENCHMARK.json`, `crates/bench/src/bin/benchmark/`)
//! is the perf ledger: it times the paper world, the 10k-node world, the
//! chaos world and the figure grid under fixed regression bounds. This
//! binary keeps only what the benchmark cannot run: the 1,000-, 100k- and
//! 250k-node worlds, the sharded kernel, the thread-scaling probe and the
//! sweep pool's and cache's speedups. It takes no flags and reads and
//! writes no file. Each world runs once on the incentive arm at seed 101,
//! profiled, in its short shape: a sixth of the pinned duration, with the
//! TTL at most half of that. Every bound below was set against exactly
//! these shapes, so reshaping a world requires a rename (bump `-v1`) and
//! new bounds.
//!
//! Output is one line per gate: world, threads (on sweep lines, the
//! worker-pool size; each cell runs a single-threaded kernel), metric,
//! measured value, bound, and `pass`, `FAIL` or `-` (recorded, not
//! gated). The process exits 1 if any gate fails.

use std::fmt;
use std::time::Instant;

use dtn_workloads::paper::reduced_scenario;
use dtn_workloads::runner::{run, Instrument, RunSpec};
use dtn_workloads::scenario::{Arm, Scenario};
use dtn_workloads::sweep::{self, run_cells, Cell};

/// The seed every kernel run uses.
const SEED: u64 = 101;

/// `perf-medium-v1` events/sec of the single-threaded kernel before the
/// parallel step loop landed. The sharded kernel must stay at least
/// [`PARALLEL_FLOOR`] times this at threads = 4.
const SEED_MEDIUM_EV_PER_SEC: f64 = 6566.688;

/// Required speedup over [`SEED_MEDIUM_EV_PER_SEC`] at threads = 4.
const PARALLEL_FLOOR: f64 = 1.5;

/// `perf-large-v1` events/sec of the single-threaded time-stepped kernel
/// before the event-driven contact core landed. The event core's speedup
/// is algorithmic, so it must show at threads = 1.
const SEED_LARGE_EV_PER_SEC: f64 = 9278.437;

/// Required speedup over [`SEED_LARGE_EV_PER_SEC`] at threads = 1.
const EVENT_CORE_FLOOR: f64 = 5.0;

/// Share of its capture a huge world must keep.
const CAPTURE_TOLERANCE: f64 = 0.75;

/// `perf-huge-v1` events/sec at threads = 1: median of 3 runs at commit
/// `b5b414b` on a 2-core host (57,705.2–65,463.6).
const HUGE1_T1_CAPTURE: f64 = 64_933.8;

/// `perf-huge-v1` events/sec at threads = 4: median of 3 runs at commit
/// `b5b414b` on a 2-core host, where the kernel spawns 2 workers
/// (57,881.5–67,267.1).
const HUGE1_T4_CAPTURE: f64 = 64_512.5;

/// `perf-huge-v2` events/sec at threads = 1: median of 3 runs at commit
/// `b5b414b` on a 2-core host (89,855.2–96,698.4).
const HUGE2_CAPTURE: f64 = 92_163.3;

/// Absolute events/sec floor for `perf-huge-v2` at threads = 1.
const HUGE2_EV_FLOOR: f64 = 8_000.0;

/// Ceiling on `perf-huge-v2` protocol table bytes per node: interest plus
/// reputation tables (the `arena.*_bytes` gauges) over the node count.
/// The short shape reads 2,065.1 B/node, 1,969 B of it interest tables
/// (16-byte rows whose capacity follows each table's length; 4,557.5
/// with 24-byte rows and ratcheting capacities). The ceiling sits well
/// above it, so the gate catches a fatter row or a leaked scratch buffer
/// rather than gossip variance.
const HUGE2_BYTES_PER_NODE_CEILING: f64 = 24_576.0;

/// Required cold sweep speedup at `min(8, cores)` workers over 1 worker,
/// gated only when that is at least 4 workers.
const SWEEP_COLD_SPEEDUP: f64 = 2.0;

/// Required warm (memo-hit) sweep speedup over the cold 1-worker rate.
const SWEEP_WARM_SPEEDUP: f64 = 5.0;

/// What a gate requires of its measured value.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// Printed for the record; never fails.
    Unbounded,
    /// `value >= floor`.
    AtLeast(f64),
    /// `value > floor`.
    Above(f64),
    /// `0 < value <= ceiling`: a zero means the gauges did not export.
    PositiveAtMost(f64),
}

impl Bound {
    fn holds(self, value: f64) -> bool {
        match self {
            Bound::Unbounded => true,
            Bound::AtLeast(floor) => value >= floor,
            Bound::Above(floor) => value > floor,
            Bound::PositiveAtMost(ceiling) => value > 0.0 && value <= ceiling,
        }
    }
}

impl fmt::Display for Bound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Bound::Unbounded => write!(f, "no bound"),
            Bound::AtLeast(floor) => write!(f, ">= {floor:.1}"),
            Bound::Above(floor) => write!(f, "> {floor:.2}"),
            Bound::PositiveAtMost(ceiling) => write!(f, "in (0, {ceiling:.1}]"),
        }
    }
}

/// A reduced-scale world at `nodes` and `area_km2` over the pinned
/// `duration_secs` and `ttl_secs`.
fn world(name: &str, nodes: usize, area_km2: f64, duration_secs: f64, ttl_secs: f64) -> Scenario {
    let mut s = reduced_scenario().named(name);
    s.nodes = nodes;
    s.area_km2 = area_km2;
    s.duration_secs = duration_secs;
    s.message_ttl_secs = ttl_secs;
    s
}

/// Runs `scenario` in its short shape at `threads`, profiled, and returns
/// (events/sec, protocol table bytes per node).
fn measure(scenario: &Scenario, threads: usize) -> (f64, f64) {
    let mut s = scenario.clone();
    s.threads = Some(threads);
    s.duration_secs /= 6.0;
    s.message_ttl_secs = s.message_ttl_secs.min(s.duration_secs / 2.0);
    let profile = Instrument {
        profile: true,
        ..Instrument::default()
    };
    let (_, _, report) = run(&RunSpec::arm(&s, Arm::Incentive, SEED), &profile);
    let report = report.expect("profiling was enabled");
    let gauge = |name| report.metrics.gauge(name).unwrap_or(0.0);
    let table_bytes = gauge("arena.interest_bytes") + gauge("arena.reputation_bytes");
    (report.events_per_sec, table_bytes / s.nodes as f64)
}

/// A miniature figure grid of single-threaded kernels: selfish shares
/// 0–60% × both arms × seeds 1–3, so the sweep gates measure the pool and
/// the memo, not intra-cell sharding.
fn sweep_plan() -> Vec<Cell> {
    let mut cells = Vec::new();
    for selfish in [0.0, 0.2, 0.4, 0.6] {
        let mut s = world("sweep-suite-v1", 20, 0.2, 1200.0, 900.0);
        s.message_interval_secs = 30.0;
        s.selfish_fraction = selfish;
        s.threads = Some(1);
        for arm in Arm::BOTH {
            for seed in [1, 2, 3] {
                cells.push(Cell::arm(s.clone(), arm, seed));
            }
        }
    }
    cells
}

/// Cells per wall second for one pass of `plan` at `workers`.
fn sweep_rate(plan: &[Cell], workers: usize) -> f64 {
    sweep::set_workers(workers);
    let started = Instant::now();
    let results = run_cells(plan);
    assert_eq!(results.len(), plan.len(), "executor returned the full plan");
    plan.len() as f64 / started.elapsed().as_secs_f64().max(1e-9)
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("perf takes no arguments; usage: perf");
        std::process::exit(2);
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
    let mut failed = Vec::new();
    let mut gate = |name: &str, threads: usize, metric: &str, value: f64, bound: Bound| {
        let verdict = match bound {
            Bound::Unbounded => "-",
            _ if bound.holds(value) => "pass",
            _ => "FAIL",
        };
        let label = format!("{name} [threads={threads}] {metric}");
        let bound_text = bound.to_string();
        println!("{label:<52} {value:>11.2}  {bound_text:<20} {verdict}");
        if verdict == "FAIL" {
            failed.push(label);
        }
    };

    // The reduced paper world. Threads 1 carries no bound: it is printed
    // beside threads 4 so the cost of sharding stays visible.
    let medium = reduced_scenario().named("perf-medium-v1");
    let (rate, _) = measure(&medium, 1);
    gate(&medium.name, 1, "events/s", rate, Bound::Unbounded);
    let (rate, _) = measure(&medium, 4);
    let floor = PARALLEL_FLOOR * SEED_MEDIUM_EV_PER_SEC;
    gate(&medium.name, 4, "events/s", rate, Bound::AtLeast(floor));

    let large = world("perf-large-v1", 1000, 10.0, 1800.0, 900.0);
    let (rate, _) = measure(&large, 1);
    let floor = EVENT_CORE_FLOOR * SEED_LARGE_EV_PER_SEC;
    gate(&large.name, 1, "events/s", rate, Bound::AtLeast(floor));

    // 100k nodes at the same density: region sharding at a population
    // where a full pairwise sweep would be hopeless.
    let huge = world("perf-huge-v1", 100_000, 1000.0, 600.0, 300.0);
    let (serial, _) = measure(&huge, 1);
    let floor = CAPTURE_TOLERANCE * HUGE1_T1_CAPTURE;
    gate(&huge.name, 1, "events/s", serial, Bound::AtLeast(floor));
    let (sharded, _) = measure(&huge, 4);
    let floor = CAPTURE_TOLERANCE * HUGE1_T4_CAPTURE;
    gate(&huge.name, 4, "events/s", sharded, Bound::AtLeast(floor));
    if cores >= 4 {
        let speedup = sharded / serial;
        gate(
            &huge.name,
            4,
            "speedup over threads=1",
            speedup,
            Bound::Above(1.0),
        );
    } else {
        println!("{} scaling probe skipped: {cores} cores", huge.name);
    }

    // 250k nodes: single-core throughput and per-node state at scale.
    let huge2 = world("perf-huge-v2", 250_000, 2500.0, 300.0, 150.0);
    let (rate, bytes_per_node) = measure(&huge2, 1);
    let floor = HUGE2_EV_FLOOR.max(CAPTURE_TOLERANCE * HUGE2_CAPTURE);
    gate(&huge2.name, 1, "events/s", rate, Bound::AtLeast(floor));
    let ceiling = Bound::PositiveAtMost(HUGE2_BYTES_PER_NODE_CEILING);
    gate(&huge2.name, 1, "table bytes/node", bytes_per_node, ceiling);

    // The sweep executor with the disk cache off: cold at 1 worker, cold
    // at the pool size, then warm over the populated memo. The gates
    // compare rates within this run, so they hold on any host.
    let plan = sweep_plan();
    let name = "sweep-suite-v1";
    sweep::set_cache_dir(None);
    sweep::clear_memo();
    let cold1 = sweep_rate(&plan, 1);
    gate(name, 1, "cold cells/s", cold1, Bound::Unbounded);
    let pool = cores.min(8);
    if pool >= 4 {
        sweep::clear_memo();
        let speedup = sweep_rate(&plan, pool) / cold1;
        let floor = Bound::AtLeast(SWEEP_COLD_SPEEDUP);
        gate(name, pool, "cold speedup over 1 worker", speedup, floor);
    } else {
        println!("{name} pool gate skipped: {pool} workers");
    }
    let speedup = sweep_rate(&plan, pool) / cold1;
    let floor = Bound::AtLeast(SWEEP_WARM_SPEEDUP);
    gate(name, pool, "warm speedup over cold", speedup, floor);
    sweep::set_workers(0);

    if !failed.is_empty() {
        eprintln!("perf: {} gate(s) failed:", failed.len());
        for label in &failed {
            eprintln!("  - {label}");
        }
        std::process::exit(1);
    }
    println!("perf: every gate passed");
}
