//! Work-stealing sweep executor with a memoized run cache.
//!
//! The paper's evaluation is a grid of independent simulation cells —
//! `(scenario, arm-or-backend, seed)` triples. This module executes such a
//! grid on a fixed worker pool pulling from one shared injector queue (no
//! chunk barriers: a finished worker immediately steals the next pending
//! cell) and aggregates results **in plan order**, so the output is
//! byte-identical regardless of worker count or completion order.
//!
//! On top of the executor sits a memoized run cache: each cell is keyed by
//! a content hash of its canonicalized scenario, its arm/backend tag, its
//! seed, and the crate version. Within a process the cache lives in
//! memory; with [`set_cache_dir`] it is additionally persisted as one file
//! per cell under `results/.sweep-cache/`, each a checksummed
//! [`dtn_sim::snapshot`] container, so corrupted or truncated files are
//! detected and re-run rather than trusted. Cache hits return the exact
//! `CellResult` the original run produced (bit-identical summaries;
//! golden-checked in the test suite).
//!
//! ## Queue design
//!
//! The classic work-stealing layout (per-worker deques plus a global
//! injector) earns its complexity when tasks are microseconds long and
//! queue contention is measurable. Here every task is a full simulation —
//! milliseconds at miniature scale, seconds to minutes at paper scale —
//! so the queue is popped a few hundred times per sweep at most. A single
//! contended `Mutex<VecDeque>` injector benches indistinguishably from a
//! deque-per-worker layout at that task granularity (the lock is held for
//! nanoseconds per multi-second task; see DESIGN.md §11 for the
//! measurement), so the simple shared injector is the implementation.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::io::ErrorKind;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;

use dtn_sim::metrics::MetricsRegistry;
use dtn_sim::snapshot::{self, Fnv128, SnapshotError};
use dtn_sim::stats::RunSummary;
use serde::{Deserialize, Serialize};

use dtn_routing::backend::{BackendKind, Overlay};

use crate::runner::{self, seed_parallelism, Instrument, RunSpec};
use crate::scenario::{Arm, Scenario};

/// What mechanism a cell runs: one of the paper's two arms or a (backend ×
/// overlay) grid point. Either way the cell runs through [`runner::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// The mechanism (or the ChitChat baseline).
    Arm(Arm),
    /// The incentive overlay, on or off, over a routing backend other than
    /// ChitChat. ChitChat-backend cells are canonicalized to
    /// [`CellKind::Arm`] by [`Cell::backend`], never constructed here.
    Backend {
        /// The routing substrate.
        backend: BackendKind,
        /// Whether the mechanism wraps it.
        overlay: Overlay,
    },
}

impl CellKind {
    /// Stable tag used in cache keys.
    #[must_use]
    pub fn tag(&self) -> String {
        match self {
            CellKind::Arm(Arm::Incentive) => "arm:incentive".into(),
            CellKind::Arm(Arm::ChitChat) => "arm:chitchat".into(),
            CellKind::Backend { backend, overlay } => {
                format!("backend:{}+overlay:{}", backend.tag(), overlay.tag())
            }
        }
    }
}

/// One unit of sweep work: a scenario under one mechanism and one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// The experimental condition.
    pub scenario: Scenario,
    /// Which mechanism runs it.
    pub kind: CellKind,
    /// The RNG seed.
    pub seed: u64,
}

impl Cell {
    /// A mechanism-arm cell.
    #[must_use]
    pub fn arm(scenario: Scenario, arm: Arm, seed: u64) -> Self {
        Cell {
            scenario,
            kind: CellKind::Arm(arm),
            seed,
        }
    }

    /// A (backend × overlay) grid cell.
    ///
    /// ChitChat-backend cells canonicalize to the corresponding paper arm —
    /// the grid's "Incentive over ChitChat" and "Plain ChitChat" rows *are*
    /// the paper's two arms, so they share cache entries (and goldens) with
    /// every pre-grid sweep instead of re-running under a new tag.
    #[must_use]
    pub fn backend(scenario: Scenario, backend: BackendKind, overlay: Overlay, seed: u64) -> Self {
        let kind = match (backend, overlay) {
            (BackendKind::ChitChat, Overlay::On) => CellKind::Arm(Arm::Incentive),
            (BackendKind::ChitChat, Overlay::Off) => CellKind::Arm(Arm::ChitChat),
            _ => CellKind::Backend { backend, overlay },
        };
        Cell {
            scenario,
            kind,
            seed,
        }
    }

    /// The cell's content-hash cache key.
    ///
    /// The scenario is canonicalized by clearing its cosmetic `name`
    /// before hashing: two sweeps that build the *same condition* under
    /// different labels (e.g. Fig. 5.3's ×1.0-endowment column and
    /// Fig. 5.1's incentive curve) share cache entries. Everything that
    /// changes the simulation — every Table 5.1 knob, chaos plan,
    /// recovery policy, the arm/backend tag, the seed — feeds the hash, as
    /// does the crate version so stale caches die on upgrade. Serde
    /// serializes struct fields in declaration order, so the JSON byte
    /// stream is deterministic.
    ///
    /// The wall-clock knobs `threads` and `kernel_mode` are cleared too:
    /// neither changes a result (the `parallelism` and `kernel_modes`
    /// suites check it byte for byte), so a grid rerun at another thread
    /// count or on the other core reuses the cache. The scenario's own
    /// `backend` plumbing field is removed before hashing: the cell's
    /// `kind` tag is the authoritative grid coordinate (the runner ignores
    /// the scenario field once a cell is built), and its absence keeps
    /// every pre-grid cache entry byte-compatible. Optional fields added
    /// later (`strategies`, `audit_every`, `kernel_mode`) are stripped
    /// while unset: a scenario that leaves them at their defaults hashes to
    /// the key it always had. Setting `strategies` forks the key because it
    /// changes the simulation; setting `audit_every` forks it because an
    /// audited result is a stronger claim than an unaudited one.
    ///
    /// # Panics
    ///
    /// Panics if the scenario cannot be serialized (non-finite floats).
    #[must_use]
    pub fn cache_key(&self) -> u128 {
        let canonical = Scenario {
            name: String::new(),
            threads: None,
            kernel_mode: None,
            ..self.scenario.clone()
        };
        let mut value = Serialize::to_value(&canonical);
        if let serde_json::Value::Map(entries) = &mut value {
            entries.retain(|(key, value)| {
                if key == "backend" {
                    return false;
                }
                let null_when_unset =
                    matches!(key.as_str(), "strategies" | "audit_every" | "kernel_mode");
                !(null_when_unset && matches!(value, serde_json::Value::Null))
            });
        }
        let scenario_json =
            serde_json::to_string(&RawJson(value)).expect("scenario serializes to JSON");
        let mut hash = Fnv128::default();
        hash.update(scenario_json.as_bytes());
        hash.update(b"\x00");
        hash.update(self.kind.tag().as_bytes());
        hash.update(b"\x00");
        hash.update(&self.seed.to_le_bytes());
        hash.update(b"\x00");
        hash.update(env!("CARGO_PKG_VERSION").as_bytes());
        hash.finish()
    }

    /// The run this cell stands for.
    fn spec(&self) -> RunSpec<'_> {
        match self.kind {
            CellKind::Arm(arm) => RunSpec::arm(&self.scenario, arm, self.seed),
            CellKind::Backend { backend, overlay } => {
                RunSpec::new(&self.scenario, backend, overlay, self.seed)
            }
        }
    }
}

/// The memoized outcome of one cell — the kernel summary plus the scalar
/// protocol counters the figure binaries consume (`ProtocolStats` itself
/// is not serializable; these are the fields the harness actually plots).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellResult {
    /// Kernel-level statistics.
    pub summary: RunSummary,
    /// Settled first deliveries (0 for overlay-off cells).
    pub settlements: u64,
    /// Tokens paid out in settlements (0.0 for overlay-off cells).
    pub tokens_awarded: f64,
    /// Nodes that ended the run with zero tokens.
    pub broke_nodes: u64,
    /// Tokens held by strategy-playing nodes at the end of the run (0.0
    /// for strategy-free cells). `serde(default)` so cache
    /// entries written before the adversary suite still deserialize.
    #[serde(default)]
    pub attacker_tokens: f64,
}

/// Carries a pre-built JSON value through the serde facade so the
/// canonicalized scenario (plumbing fields stripped) can be stringified.
struct RawJson(serde_json::Value);

impl Serialize for RawJson {
    fn to_value(&self) -> serde_json::Value {
        self.0.clone()
    }
}

// ---------------------------------------------------------------------------
// Process-global executor configuration and cache state.
// ---------------------------------------------------------------------------

/// Worker override; 0 means "use [`seed_parallelism`]".
static WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Cumulative executor counters (process lifetime; [`reset_metrics`] for
/// per-phase measurement).
static CACHE_HITS: AtomicU64 = AtomicU64::new(0);
static CACHE_MISSES: AtomicU64 = AtomicU64::new(0);
static CELLS_RUN: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_REJECTED: AtomicU64 = AtomicU64::new(0);

fn memo() -> &'static Mutex<HashMap<u128, CellResult>> {
    static MEMO: OnceLock<Mutex<HashMap<u128, CellResult>>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(HashMap::new()))
}

fn cache_dir_slot() -> &'static Mutex<Option<PathBuf>> {
    static DIR: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    DIR.get_or_init(|| Mutex::new(None))
}

/// Sets the worker-pool size for subsequent [`run_cells`] calls; `0`
/// restores the default ([`seed_parallelism`], the machine's cores).
pub fn set_workers(n: usize) {
    WORKERS.store(n, Ordering::SeqCst);
}

/// The effective worker-pool size.
#[must_use]
pub fn workers() -> usize {
    match WORKERS.load(Ordering::SeqCst) {
        0 => seed_parallelism(),
        n => n,
    }
}

/// Enables (`Some(dir)`) or disables (`None`) on-disk cache persistence.
/// The conventional location is `results/.sweep-cache/`; default off.
pub fn set_cache_dir(dir: Option<PathBuf>) {
    *cache_dir_slot().lock().expect("cache dir lock") = dir;
}

/// The configured on-disk cache directory, if any.
#[must_use]
pub fn cache_dir() -> Option<PathBuf> {
    cache_dir_slot().lock().expect("cache dir lock").clone()
}

/// Drops every in-memory cache entry (on-disk entries survive). Used by
/// cold-cache benchmarks and the cache-correctness tests.
pub fn clear_memo() {
    memo().lock().expect("memo lock").clear();
}

/// A point-in-time snapshot of the executor's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SweepMetrics {
    /// Cells answered from the in-memory or on-disk cache.
    pub cache_hits: u64,
    /// Cells that had to be simulated.
    pub cache_misses: u64,
    /// Cells actually executed (deduplicated misses; a plan that lists
    /// the same cell twice runs it once).
    pub cells_run: u64,
    /// Cache hits served from disk (subset of `cache_hits`).
    pub disk_hits: u64,
    /// On-disk entries rejected as corrupt/truncated and re-run.
    pub disk_rejected: u64,
}

/// Reads the cumulative executor counters.
#[must_use]
pub fn metrics() -> SweepMetrics {
    SweepMetrics {
        cache_hits: CACHE_HITS.load(Ordering::SeqCst),
        cache_misses: CACHE_MISSES.load(Ordering::SeqCst),
        cells_run: CELLS_RUN.load(Ordering::SeqCst),
        disk_hits: DISK_HITS.load(Ordering::SeqCst),
        disk_rejected: DISK_REJECTED.load(Ordering::SeqCst),
    }
}

/// Zeroes the executor counters (e.g. between a cold and a warm phase of
/// a benchmark).
pub fn reset_metrics() {
    CACHE_HITS.store(0, Ordering::SeqCst);
    CACHE_MISSES.store(0, Ordering::SeqCst);
    CELLS_RUN.store(0, Ordering::SeqCst);
    DISK_HITS.store(0, Ordering::SeqCst);
    DISK_REJECTED.store(0, Ordering::SeqCst);
}

/// Exports the executor configuration and counters into a metrics
/// registry (the `kernel.sweep_workers` gauge plus `sweep.*` counters).
pub fn export_metrics(registry: &mut MetricsRegistry) {
    let m = metrics();
    registry.set_gauge("kernel.sweep_workers", workers() as f64);
    registry.add("sweep.cache_hits", m.cache_hits);
    registry.add("sweep.cache_misses", m.cache_misses);
    registry.add("sweep.cells_run", m.cells_run);
    registry.add("sweep.disk_hits", m.disk_hits);
    registry.add("sweep.disk_rejected", m.disk_rejected);
}

// ---------------------------------------------------------------------------
// Disk persistence.
// ---------------------------------------------------------------------------

fn disk_path(dir: &Path, key: u128) -> PathBuf {
    dir.join(format!("{key:032x}.json"))
}

/// Loads a cell result from disk. An entry is a [`snapshot`] container
/// whose body is `[key, result]`, so truncation, bit rot and a renamed
/// file are all detected. A missing entry is a plain miss; any other
/// failure is discarded (and counted), and the cell re-runs instead of
/// trusting the bytes.
fn disk_load(dir: &Path, key: u128) -> Option<CellResult> {
    let path = disk_path(dir, key);
    let why = match snapshot::load::<(String, CellResult)>(&path) {
        Ok((stored, result)) if stored == format!("{key:032x}") => return Some(result),
        Ok(_) => "key mismatch".to_string(),
        Err(SnapshotError::Io { source, .. }) if source.kind() == ErrorKind::NotFound => {
            return None
        }
        Err(e) => e.to_string(),
    };
    DISK_REJECTED.fetch_add(1, Ordering::SeqCst);
    eprintln!(
        "sweep-cache: discarding {} ({why}); the cell will re-run",
        path.display()
    );
    None
}

/// Persists a cell result through the snapshot container's
/// tmp-then-rename write; failures are warnings, never errors (the cache
/// is an accelerator, not a dependency).
fn disk_store(dir: &Path, key: u128, result: &CellResult) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("sweep-cache: cannot create {}: {e}", dir.display());
        return;
    }
    if let Err(e) = snapshot::save(&(format!("{key:032x}"), result), &disk_path(dir, key)) {
        eprintln!("sweep-cache: {e}");
    }
}

// ---------------------------------------------------------------------------
// Cell execution.
// ---------------------------------------------------------------------------

/// Simulates one cell from scratch (no cache involvement).
#[must_use]
pub fn run_cell_uncached(cell: &Cell) -> CellResult {
    let (run, _, _) = runner::run(&cell.spec(), &Instrument::default());
    CellResult {
        summary: run.summary,
        settlements: run.protocol.settlements,
        tokens_awarded: run.protocol.tokens_awarded,
        broke_nodes: run.broke_nodes as u64,
        attacker_tokens: run.attacker_tokens,
    }
}

/// Executes a plan of cells and returns their results **in plan order**.
///
/// Cached cells (in-memory, then on-disk if persistence is enabled) are
/// answered without simulating. The remaining distinct cells are pushed
/// onto one shared injector queue and drained by a pool of
/// [`workers`] threads — no chunk barriers, so a finished worker
/// immediately picks up the next pending cell and the pool stays
/// saturated until the queue is empty. Duplicate cells within one plan
/// run once.
///
/// Determinism: each cell's simulation is deterministic and shares no
/// state with its neighbours; results land in per-cell slots and are read
/// back in plan order, so the returned vector (and everything aggregated
/// from it) is byte-identical at any worker count.
///
/// # Panics
///
/// Panics if a worker thread panics (a simulation invariant breach).
#[must_use]
pub fn run_cells(cells: &[Cell]) -> Vec<CellResult> {
    let keys: Vec<u128> = cells.iter().map(Cell::cache_key).collect();
    let dir = cache_dir();

    // Resolve what is already known. `pending` maps each distinct missing
    // key to the index of the first cell that needs it.
    let mut resolved: HashMap<u128, CellResult> = HashMap::new();
    let mut pending: Vec<(u128, usize)> = Vec::new();
    {
        let mut memo = memo().lock().expect("memo lock");
        for (i, &key) in keys.iter().enumerate() {
            if resolved.contains_key(&key) || pending.iter().any(|&(k, _)| k == key) {
                continue;
            }
            if let Some(hit) = memo.get(&key) {
                CACHE_HITS.fetch_add(1, Ordering::SeqCst);
                resolved.insert(key, hit.clone());
            } else if let Some(hit) = dir.as_deref().and_then(|d| disk_load(d, key)) {
                CACHE_HITS.fetch_add(1, Ordering::SeqCst);
                DISK_HITS.fetch_add(1, Ordering::SeqCst);
                // Promote to the memo so later plans in this process pay
                // the parse-and-verify cost once, not per figure.
                memo.insert(key, hit.clone());
                resolved.insert(key, hit);
            } else {
                CACHE_MISSES.fetch_add(1, Ordering::SeqCst);
                pending.push((key, i));
            }
        }
    }

    // Drain the misses through the worker pool.
    if !pending.is_empty() {
        CELLS_RUN.fetch_add(pending.len() as u64, Ordering::SeqCst);
        let injector: Mutex<VecDeque<usize>> = Mutex::new((0..pending.len()).collect());
        let slots: Vec<Mutex<Option<CellResult>>> =
            (0..pending.len()).map(|_| Mutex::new(None)).collect();
        let pool = workers().min(pending.len()).max(1);
        std::thread::scope(|scope| {
            for _ in 0..pool {
                scope.spawn(|| loop {
                    let next = injector.lock().expect("injector lock").pop_front();
                    let Some(slot) = next else { break };
                    let (_, cell_idx) = pending[slot];
                    let result = run_cell_uncached(&cells[cell_idx]);
                    *slots[slot].lock().expect("slot lock") = Some(result);
                });
            }
        });
        let mut memo = memo().lock().expect("memo lock");
        for (slot, &(key, _)) in pending.iter().enumerate() {
            let result = slots[slot]
                .lock()
                .expect("slot lock")
                .take()
                .expect("worker filled the slot");
            if let Some(d) = dir.as_deref() {
                disk_store(d, key, &result);
            }
            memo.insert(key, result.clone());
            resolved.insert(key, result);
        }
    }

    // Plan-order aggregation.
    keys.iter()
        .map(|key| resolved.get(key).expect("every key resolved").clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn tiny(name: &str) -> Scenario {
        let mut s = paper::reduced_scenario();
        s.nodes = 16;
        s.area_km2 = 0.2;
        s.duration_secs = 600.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 500.0;
        s.named(name)
    }

    #[test]
    fn cache_key_ignores_name_but_nothing_else() {
        let a = Cell::arm(tiny("alpha"), Arm::Incentive, 7);
        let b = Cell::arm(tiny("beta"), Arm::Incentive, 7);
        assert_eq!(a.cache_key(), b.cache_key(), "names are cosmetic");

        let other_seed = Cell::arm(tiny("alpha"), Arm::Incentive, 8);
        assert_ne!(a.cache_key(), other_seed.cache_key());
        let other_arm = Cell::arm(tiny("alpha"), Arm::ChitChat, 7);
        assert_ne!(a.cache_key(), other_arm.cache_key());
        let mut tweaked = tiny("alpha");
        tweaked.selfish_fraction = 0.35;
        assert_ne!(
            a.cache_key(),
            Cell::arm(tweaked, Arm::Incentive, 7).cache_key()
        );
        let backend = Cell::backend(tiny("alpha"), BackendKind::Epidemic, Overlay::On, 7);
        assert_ne!(a.cache_key(), backend.cache_key());
        let spray = |copies| {
            Cell::backend(
                tiny("x"),
                BackendKind::SprayAndWait(copies),
                Overlay::Off,
                7,
            )
            .cache_key()
        };
        assert_ne!(spray(4), spray(8), "the ticket budget is part of the key");
    }

    /// Recovery is never stripped from the key: turning it on, and each
    /// of its knobs, forks the cell.
    #[test]
    fn every_recovery_knob_forks_the_cache_key() {
        use dtn_sim::transfer::RecoveryPolicy;
        let key = |recovery: Option<RecoveryPolicy>| {
            let mut s = tiny("recovery");
            s.recovery = recovery;
            Cell::arm(s, Arm::Incentive, 7).cache_key()
        };
        let base = RecoveryPolicy::default();
        let variants = [
            RecoveryPolicy {
                resume: false,
                ..base
            },
            RecoveryPolicy {
                retry_max: 4,
                ..base
            },
            RecoveryPolicy {
                backoff_base_secs: 11.0,
                ..base
            },
            RecoveryPolicy {
                backoff_cap_secs: 301.0,
                ..base
            },
            RecoveryPolicy {
                redelivery_cap: 3,
                ..base
            },
            RecoveryPolicy {
                peer_budget: 65,
                ..base
            },
            RecoveryPolicy {
                checkpoint_capacity: 1025,
                ..base
            },
        ];
        let mut keys: Vec<u128> = vec![key(None), key(Some(base))];
        keys.extend(variants.into_iter().map(|v| key(Some(v))));
        let distinct: std::collections::HashSet<u128> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "{keys:x?}");
    }

    #[test]
    fn cache_keys_are_pinned_to_literal_values() {
        // Every other key test is relative (`a == b` / `a != b`); these
        // literals pin the absolute values, so a refactor that shifts the
        // key derivation cannot silently orphan every persisted cache
        // entry. A crate version bump changes them on purpose.
        let s = tiny("pinned");
        assert_eq!(
            Cell::arm(s.clone(), Arm::Incentive, 7).cache_key(),
            0x2580_30a4_2551_759c_9d9a_c593_ed68_9a08
        );
        assert_eq!(
            Cell::arm(s.clone(), Arm::ChitChat, 7).cache_key(),
            0xcfc1_74c4_e497_087e_5665_3ef6_c92f_4291
        );
        assert_eq!(
            Cell::backend(s.clone(), BackendKind::SprayAndWait(8), Overlay::Off, 7).cache_key(),
            0x59da_a01e_26ed_8d4a_c13b_3e8b_414a_3522
        );
        // A recovery cell: its policy document feeds the key too.
        let recovery = Scenario {
            recovery: Some(dtn_sim::transfer::RecoveryPolicy::default()),
            ..s
        };
        assert_eq!(
            Cell::arm(recovery, Arm::Incentive, 7).cache_key(),
            0x7e30_3b16_0ddd_4f10_70dd_91dd_1293_1e25
        );
    }

    #[test]
    fn executor_matches_direct_runs_at_any_worker_count() {
        let s = tiny("exec");
        let cells: Vec<Cell> = [
            (Arm::Incentive, 1u64),
            (Arm::ChitChat, 1),
            (Arm::Incentive, 2),
        ]
        .iter()
        .map(|&(arm, seed)| Cell::arm(s.clone(), arm, seed))
        .collect();
        let direct: Vec<CellResult> = cells.iter().map(run_cell_uncached).collect();

        let prior = workers();
        for n in [1usize, 4] {
            set_workers(n);
            clear_memo();
            let pooled = run_cells(&cells);
            assert_eq!(pooled, direct, "worker count {n} must not change results");
        }
        set_workers(prior);
    }

    #[test]
    fn duplicate_cells_run_once_and_agree() {
        let s = tiny("dup");
        clear_memo();
        let before = metrics();
        let cells = vec![
            Cell::arm(s.clone(), Arm::ChitChat, 3),
            Cell::arm(s.clone(), Arm::ChitChat, 3),
            Cell::arm(s.named("renamed"), Arm::ChitChat, 3),
        ];
        let results = run_cells(&cells);
        assert_eq!(results[0], results[1]);
        assert_eq!(results[0], results[2], "rename dedups via canonical key");
        let after = metrics();
        assert_eq!(after.cells_run - before.cells_run, 1, "one simulation");
    }

    #[test]
    fn memo_serves_second_call_without_running() {
        let s = tiny("memo");
        clear_memo();
        let cells = vec![Cell::arm(s, Arm::ChitChat, 5)];
        let cold = run_cells(&cells);
        let before = metrics();
        let warm = run_cells(&cells);
        let after = metrics();
        assert_eq!(cold, warm, "cache hit is bit-identical");
        assert_eq!(after.cells_run, before.cells_run, "nothing re-ran");
        assert_eq!(after.cache_hits, before.cache_hits + 1);
    }

    #[test]
    fn chitchat_backend_cells_canonicalize_to_the_paper_arms() {
        // The grid's ChitChat rows ARE the paper arms: same kind, same key,
        // so they share cache entries with every pre-grid sweep.
        let on = Cell::backend(tiny("grid"), BackendKind::ChitChat, Overlay::On, 7);
        assert_eq!(on.kind, CellKind::Arm(Arm::Incentive));
        assert_eq!(
            on.cache_key(),
            Cell::arm(tiny("grid"), Arm::Incentive, 7).cache_key()
        );
        let off = Cell::backend(tiny("grid"), BackendKind::ChitChat, Overlay::Off, 7);
        assert_eq!(off.kind, CellKind::Arm(Arm::ChitChat));

        // Non-ChitChat grid points get their own tag space, distinct from
        // the arms and from each other's overlay state.
        let grid = Cell::backend(tiny("grid"), BackendKind::Epidemic, Overlay::On, 7);
        assert_eq!(
            grid.kind,
            CellKind::Backend {
                backend: BackendKind::Epidemic,
                overlay: Overlay::On,
            }
        );
        assert_ne!(grid.cache_key(), on.cache_key());
        assert_ne!(
            grid.cache_key(),
            Cell::backend(tiny("grid"), BackendKind::Epidemic, Overlay::Off, 7).cache_key()
        );
    }

    #[test]
    fn scenario_plumbing_fields_do_not_fork_the_cache_key() {
        // `Scenario::backend` is a default consumed when the plan is built;
        // the cell's kind is authoritative, so setting it must not split
        // the cache (and its absence from the hash keeps pre-grid disk
        // entries valid).
        let bare = Cell::arm(tiny("plumb"), Arm::Incentive, 9);
        let mut annotated_scenario = tiny("plumb");
        annotated_scenario.backend = Some(BackendKind::Prophet);
        let annotated = Cell::arm(annotated_scenario, Arm::Incentive, 9);
        assert_eq!(bare.cache_key(), annotated.cache_key());
    }

    #[test]
    fn unset_strategy_fields_keep_pre_existing_cache_keys() {
        // Leaving the adversary-suite fields at their defaults must hash to
        // the same key the scenario had before the fields existed (so no
        // disk cache is invalidated); configuring any of them forks it.
        let bare = Cell::arm(tiny("strat"), Arm::Incentive, 9);
        let defaulted = {
            let mut s = tiny("strat");
            s.strategies = None;
            s.audit_every = None;
            Cell::arm(s, Arm::Incentive, 9)
        };
        assert_eq!(bare.cache_key(), defaulted.cache_key());

        let mut with_mix = tiny("strat");
        with_mix.strategies = Some("free=0.2".parse().unwrap());
        assert_ne!(
            bare.cache_key(),
            Cell::arm(with_mix.clone(), Arm::Incentive, 9).cache_key()
        );
        let mut defended = with_mix.clone();
        defended.strategies = Some("free=0.2,defense".parse().unwrap());
        assert_ne!(
            Cell::arm(with_mix, Arm::Incentive, 9).cache_key(),
            Cell::arm(defended, Arm::Incentive, 9).cache_key(),
            "the defense flag is part of the condition"
        );
        let mut audited = tiny("strat");
        audited.audit_every = Some(60);
        assert_ne!(
            bare.cache_key(),
            Cell::arm(audited, Arm::Incentive, 9).cache_key()
        );
    }

    #[test]
    fn wall_clock_knobs_do_not_fork_the_cache_key() {
        // Neither the thread count nor the kernel core changes a result
        // (the `parallelism` and `kernel_modes` suites check it byte for
        // byte), so every combination shares the unset scenario's key —
        // the key it had before either knob existed.
        let bare = Cell::arm(tiny("wall"), Arm::Incentive, 9).cache_key();
        let json = {
            let mut canonical = tiny("wall");
            canonical.name = String::new();
            serde_json::to_string(&Serialize::to_value(&canonical)).unwrap()
        };
        assert!(
            json.contains("\"threads\":null") && json.contains("\"kernel_mode\":null"),
            "the raw serialization carries the unset knobs: {json}"
        );
        for threads in [None, Some(1), Some(2), Some(8)] {
            for kernel_mode in [
                None,
                Some(dtn_sim::events::KernelMode::EventDriven),
                Some(dtn_sim::events::KernelMode::TimeStepped),
            ] {
                let s = Scenario {
                    threads,
                    kernel_mode,
                    ..tiny("wall")
                };
                assert_eq!(
                    Cell::arm(s, Arm::Incentive, 9).cache_key(),
                    bare,
                    "threads {threads:?}, kernel mode {kernel_mode:?}"
                );
            }
        }
    }

    #[test]
    fn backend_cells_execute_through_the_pool() {
        let s = tiny("backend-pool");
        clear_memo();
        let cells = vec![
            Cell::backend(s.clone(), BackendKind::Epidemic, Overlay::On, 2),
            Cell::backend(s.clone(), BackendKind::DirectDelivery, Overlay::On, 2),
        ];
        let results = run_cells(&cells);
        for r in &results {
            let ratio = r.summary.delivery_ratio;
            assert!((0.0..=1.0).contains(&ratio), "ratio {ratio} out of range");
        }
        assert!(
            results[0].summary.relays_completed > results[1].summary.relays_completed,
            "epidemic floods more than direct delivery under the overlay too"
        );
    }
}
