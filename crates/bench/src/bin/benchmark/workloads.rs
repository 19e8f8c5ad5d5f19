//! The four pinned workloads and one untraced repetition of each.
//!
//! A repetition ("rep") builds the world from the seed and runs it to its
//! horizon exactly as a user would, through `dtn-workloads`' public entry
//! points. Pinned like `perf.rs`' rows: change a workload only together
//! with a rename, or runs stop being comparable across commits.

use dtn_sim::faults::FaultPlan;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_sim::transfer::RecoveryPolicy;
use dtn_workloads::paper::{reduced_scenario, table51_scenario};
use dtn_workloads::runner::build_simulation;
use dtn_workloads::scenario::{Arm, Scenario};
use dtn_workloads::sweep::{self, Cell, CellKind, CellResult};
use serde::{Deserialize, Serialize};

use crate::calib::{self, Stopwatch, Timing};
use crate::stats::{fnv64_hex, peak_rss_kb};

/// The seed whose digests are pinned in `expected.json`.
pub const DEFAULT_SEED: u64 = 101;

/// Worker threads of the figure grid's sweep pool.
pub const GRID_WORKERS: usize = 2;

/// One pinned workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table 5.1 (500 nodes, 5 km², 5 h TTL, 200 tokens), first 90 min.
    PaperT51,
    /// 10k nodes at the paper's density over 100 km² for 10 min, 2 threads.
    Sparse,
    /// The reduced world under chaos, recovery and four strategies.
    Adversarial,
    /// The sweep executor over a 32-cell figure grid, 2 workers.
    FigureGrid,
}

/// Full size, or about 1/50 of it for the schema smoke pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperT51,
        Workload::Sparse,
        Workload::Adversarial,
        Workload::FigureGrid,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperT51 => "paper-t51-90m",
            Workload::Sparse => "sparse-10k",
            Workload::Adversarial => "adversarial-chaos",
            Workload::FigureGrid => "figure-grid",
        }
    }

    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the traced run audits invariants every
    /// [`AUDIT_EVERY`](crate::traced::AUDIT_EVERY) steps.
    #[must_use]
    pub fn audits(self) -> bool {
        matches!(self, Workload::PaperT51 | Workload::Adversarial)
    }

    /// Simulations one rep completes: 1, or the grid's cells.
    #[must_use]
    pub fn units(self, scale: Scale) -> u64 {
        match self {
            Workload::FigureGrid => grid_plan(DEFAULT_SEED, scale).len() as u64,
            _ => 1,
        }
    }

    /// The world this workload simulates (for the figure grid: the cell
    /// scenario every grid point varies).
    #[must_use]
    pub fn scenario(self, scale: Scale) -> Scenario {
        let s = match self {
            Workload::PaperT51 => {
                let mut s = table51_scenario().named(self.name());
                s.duration_secs = 90.0 * 60.0;
                s
            }
            Workload::Sparse => {
                let mut s = reduced_scenario().named(self.name());
                s.nodes = 10_000;
                s.area_km2 = 100.0;
                s.duration_secs = 600.0;
                s.message_ttl_secs = 300.0;
                s.threads = Some(2);
                s
            }
            Workload::Adversarial => {
                let mut s = reduced_scenario().named(self.name());
                s.chaos = Some(FaultPlan {
                    transfer_loss_prob: 0.15,
                    link_cut_per_hour: 4.0,
                    link_cut_secs: 30.0,
                    ..FaultPlan::default()
                });
                s.recovery = Some(RecoveryPolicy::default());
                s.strategies = Some(
                    "free=0.2,white=0.1,minority=0.1,defense"
                        .parse()
                        .expect("pinned strategy spec parses"),
                );
                s
            }
            Workload::FigureGrid => {
                let mut s = reduced_scenario().named(self.name());
                s.duration_secs = 3600.0;
                s
            }
        };
        match scale {
            Scale::Full => s,
            Scale::Smoke => shrink(s),
        }
    }
}

/// About 1/50 of a world: a fiftieth of the nodes (at least 20) at the
/// same density, and at most 6 simulated minutes.
fn shrink(mut s: Scenario) -> Scenario {
    let nodes = (s.nodes / 50).max(20).min(s.nodes);
    s.area_km2 *= nodes as f64 / s.nodes as f64;
    s.nodes = nodes;
    s.duration_secs = s.duration_secs.min(360.0);
    s.message_ttl_secs = s.message_ttl_secs.min(240.0);
    s
}

/// The figure grid: selfish share {0, .2, .4, .6} × both arms × seeds
/// {S, S+101, S+202, S+303}, in plan order.
#[must_use]
pub fn grid_plan(seed: u64, scale: Scale) -> Vec<Cell> {
    let base = Workload::FigureGrid.scenario(scale);
    let mut cells = Vec::new();
    for selfish in [0.0, 0.2, 0.4, 0.6] {
        let mut s = base.clone();
        s.selfish_fraction = selfish;
        for arm in Arm::BOTH {
            for k in 0..4 {
                cells.push(Cell::arm(s.clone(), arm, seed + 101 * k));
            }
        }
    }
    cells
}

/// What one rep reports to the run that started it (one JSON line on
/// stdout).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RepOutcome {
    /// The correctness digest (see [`run_digest`], [`grid_digest`]).
    pub digest: String,
    /// Simulations completed.
    pub units: u64,
    /// Kernel events processed (figure grid: message-path events).
    pub events: u64,
    /// The set-up and the run, in wall and in reference seconds (see
    /// `calib`).
    pub setup: Timing,
    pub run: Timing,
    pub peak_rss_kb: u64,
    /// Per-layer metrics (traced reps only), durations in reference time.
    #[serde(default)]
    pub layers: Vec<(String, f64)>,
    /// Invariant breaches found by the traced run's audits.
    #[serde(default)]
    pub violations: Vec<String>,
}

/// Digest of one kernel run: `RunSummary` JSON, `ProtocolStats` JSON and
/// the kernel event count.
#[must_use]
pub fn run_digest(summary: &RunSummary, protocol: &impl Serialize, events: u64) -> String {
    let summary = serde_json::to_string(summary).expect("summary serializes");
    let protocol = serde_json::to_string(protocol).expect("protocol stats serialize");
    fnv64_hex(&[
        summary.as_bytes(),
        protocol.as_bytes(),
        events.to_string().as_bytes(),
    ])
}

/// Digest of a grid: every `CellResult` in plan order.
#[must_use]
pub fn grid_digest(results: &[CellResult]) -> String {
    let parts: Vec<String> = results
        .iter()
        .map(|r| serde_json::to_string(r).expect("cell result serializes"))
        .collect();
    let bytes: Vec<&[u8]> = parts.iter().map(String::as_bytes).collect();
    fnv64_hex(&bytes)
}

/// Message-path events of a finished cell: the kernel events a
/// `RunSummary` records (contact transitions are not among them).
#[must_use]
pub fn cell_events(s: &RunSummary) -> u64 {
    s.created
        + s.relays_completed
        + s.transfers_aborted
        + s.transfers_retried
        + s.transfers_resumed
        + s.transfers_abandoned
        + s.ttl_expiries
}

/// The arm a figure-grid cell runs.
#[must_use]
pub fn cell_arm(cell: &Cell) -> Arm {
    match cell.kind {
        CellKind::Arm(arm) => arm,
        ref other => unreachable!("the figure grid holds only arm cells, got {other:?}"),
    }
}

/// One untraced rep of `workload` under `seed`.
#[must_use]
pub fn run_rep(workload: Workload, seed: u64, scale: Scale) -> RepOutcome {
    match workload {
        Workload::FigureGrid => grid_rep(seed, scale),
        _ => kernel_rep(&workload.scenario(scale), seed),
    }
}

fn kernel_rep(scenario: &Scenario, seed: u64) -> RepOutcome {
    let (mut sim, setup) = calib::time(|| build_simulation(scenario, Arm::Incentive, seed));
    let end = SimTime::from_secs(scenario.duration_secs);
    let mut watch = Stopwatch::start();
    while sim.api().now() < end {
        sim.step_once();
        watch.lap_if_due();
    }
    let _ = sim.run_until(end);
    let run = watch.stop();
    let events = sim.api().counters().events();
    let (router, summary) = sim.finish();
    RepOutcome {
        digest: run_digest(&summary, &router.stats(), events),
        units: 1,
        events,
        setup,
        run,
        peak_rss_kb: peak_rss_kb(),
        layers: Vec::new(),
        violations: Vec::new(),
    }
}

/// Builds the plan and every cell's world: the set-up a grid pays before
/// its first cell runs, measured apart from the sweep.
pub fn grid_setup(seed: u64, scale: Scale) -> Vec<Cell> {
    let plan = grid_plan(seed, scale);
    for cell in &plan {
        drop(build_simulation(&cell.scenario, cell_arm(cell), cell.seed));
    }
    plan
}

/// Points the sweep executor at a cold, memory-only cache and the pinned
/// pool size.
pub fn cold_sweep() {
    sweep::set_cache_dir(None);
    sweep::set_workers(GRID_WORKERS);
    sweep::clear_memo();
}

fn grid_rep(seed: u64, scale: Scale) -> RepOutcome {
    cold_sweep();
    let (plan, setup) = calib::time(|| grid_setup(seed, scale));
    let (results, run) = calib::time_sampled(|| sweep::run_cells(&plan));
    RepOutcome {
        digest: grid_digest(&results),
        units: plan.len() as u64,
        events: results.iter().map(|r| cell_events(&r.summary)).sum(),
        setup,
        run,
        peak_rss_kb: peak_rss_kb(),
        layers: Vec::new(),
        violations: Vec::new(),
    }
}
