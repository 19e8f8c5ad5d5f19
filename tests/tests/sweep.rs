//! Sweep-executor suite: worker-count invariance, disk-cache round-trips,
//! and corruption detection in the cache and the snapshot container it
//! shares.
//!
//! The executor's contract is that its output is a pure function of the
//! plan — not of the worker count, not of completion order, and not of
//! whether a result came from a simulation, the in-process memo, or a
//! persisted disk entry. Every test here drives the real executor through
//! `dtn_workloads::sweep` and asserts bit-identical results across those
//! axes.
//!
//! The executor's configuration (worker count, cache directory, memo,
//! metrics) is process-global, so the tests in this file serialize on one
//! lock and always restore the default configuration before releasing it.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use dtn_sim::snapshot::SnapshotError;
use dtn_workloads::prelude::*;
use dtn_workloads::sweep;
use proptest::prelude::*;

/// Serializes access to the executor's process-global configuration.
static EXECUTOR_LOCK: Mutex<()> = Mutex::new(());

/// Takes the lock and resets the executor to a known state: default
/// worker count, no disk cache, empty memo, and remembers the metrics
/// baseline so tests can assert on deltas.
fn executor_guard() -> MutexGuard<'static, ()> {
    let guard = EXECUTOR_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    sweep::set_workers(0);
    sweep::set_cache_dir(None);
    sweep::clear_memo();
    guard
}

/// A per-test scratch directory for disk-cache entries, created fresh.
fn scratch_cache(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dtn-sweep-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Small but non-trivial world: enough traffic that summaries differ
/// across seeds and arms, small enough for a debug-mode test matrix.
fn tiny(selfish: f64) -> Scenario {
    let mut s = reduced_scenario();
    s.nodes = 12;
    s.area_km2 = 0.12;
    s.duration_secs = 600.0;
    s.message_interval_secs = 30.0;
    s.message_ttl_secs = 450.0;
    s.selfish_fraction = selfish;
    s.named(format!("sweep-it-{selfish}"))
}

fn small_plan() -> Vec<Cell> {
    let mut cells = Vec::new();
    for selfish in [0.0, 0.4] {
        for arm in Arm::BOTH {
            for seed in [1u64, 2] {
                cells.push(Cell::arm(tiny(selfish), arm, seed));
            }
        }
    }
    cells
}

/// Bit-level comparison via the serialized form — the same bytes the
/// disk cache persists, so equality here is equality everywhere.
fn as_bytes(results: &[CellResult]) -> String {
    serde_json::to_string(results).expect("results serialize")
}

#[test]
fn output_is_worker_count_invariant() {
    let _guard = executor_guard();
    let plan = small_plan();
    let lone = as_bytes(&sweep::run_cells(&plan));
    for workers in [2usize, 4, 8] {
        sweep::clear_memo();
        sweep::set_workers(workers);
        let pooled = as_bytes(&sweep::run_cells(&plan));
        assert_eq!(lone, pooled, "{workers} workers changed the output");
    }
    sweep::set_workers(0);
}

#[test]
fn warm_memo_serves_without_running() {
    let _guard = executor_guard();
    let plan = small_plan();
    let before = sweep::metrics();
    let cold = as_bytes(&sweep::run_cells(&plan));
    let warm = as_bytes(&sweep::run_cells(&plan));
    let after = sweep::metrics();
    assert_eq!(cold, warm);
    assert_eq!(after.cells_run - before.cells_run, plan.len() as u64);
    assert!(after.cache_hits - before.cache_hits >= plan.len() as u64);
}

#[test]
fn corrupted_and_truncated_disk_entries_are_rerun() {
    let _guard = executor_guard();
    let dir = scratch_cache("corrupt");
    sweep::set_cache_dir(Some(dir.clone()));
    let plan = vec![Cell::arm(tiny(0.2), Arm::Incentive, 7)];
    let pristine = as_bytes(&sweep::run_cells(&plan));
    let entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir listable")
        .map(|e| e.expect("entry").path())
        .collect();
    assert_eq!(entries.len(), 1, "one cell, one entry");

    // Payload tampering: valid JSON shape, wrong bytes under the hash.
    let original = std::fs::read_to_string(&entries[0]).expect("entry readable");
    let tampered = original.replace("delivery_ratio", "delivery_ratiX");
    assert_ne!(original, tampered, "the entry names the field it stores");
    for (label, content) in [
        ("tampered", tampered.as_str()),
        ("truncated", &original[..original.len() / 2]),
        ("garbage", "not json at all"),
    ] {
        std::fs::write(&entries[0], content).expect("tamper");
        sweep::clear_memo();
        let before = sweep::metrics();
        let rerun = as_bytes(&sweep::run_cells(&plan));
        let after = sweep::metrics();
        assert_eq!(pristine, rerun, "{label}: re-run reproduced the result");
        assert_eq!(
            after.disk_rejected - before.disk_rejected,
            1,
            "{label}: rejection counted"
        );
        assert_eq!(
            after.cells_run - before.cells_run,
            1,
            "{label}: cell re-ran instead of trusting the bad entry"
        );
    }

    // After the last re-run rewrote the entry, a cold process-equivalent
    // (cleared memo) must hit disk and run nothing.
    sweep::clear_memo();
    let before = sweep::metrics();
    let warm = as_bytes(&sweep::run_cells(&plan));
    let after = sweep::metrics();
    assert_eq!(pristine, warm);
    assert_eq!(after.disk_hits - before.disk_hits, 1);
    assert_eq!(after.cells_run - before.cells_run, 0);
    sweep::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hostile bytes: damaged copies of a real snapshot are typed errors.
/// A small world's snapshot is truncated at every header offset and at
/// 256 evenly spaced body offsets, and has one bit flipped at each of 256
/// evenly spaced offsets; `read_snapshot` must neither panic nor accept
/// any copy, nor report the damage as an I/O failure. The sweep cache
/// reads the same container, so a truncated and a bit-flipped copy of a
/// cell's entry each make the cell re-run.
#[test]
fn damaged_snapshots_are_typed_errors_and_damaged_entries_rerun() {
    let _guard = executor_guard();
    let dir = scratch_cache("hostile");

    let mut world = tiny(0.2);
    world.nodes = 20;
    world.area_km2 = 0.2;
    world.duration_secs = 300.0;
    let meta = RunMeta {
        scenario: world,
        arm: Arm::Incentive,
        seed: 7,
        trace_capacity: None,
        check_every: None,
    };
    let mut sim = meta.build(false);
    sim.run_until(dtn_sim::time::SimTime::from_secs(300.0));
    let path = dir.join("world.dtnsnap");
    write_snapshot(&sim, &meta, &path).expect("snapshot written");
    read_snapshot(&path).expect("the undamaged snapshot loads");
    let pristine = std::fs::read(&path).expect("snapshot readable");
    let body_start = 1 + pristine
        .iter()
        .position(|&b| b == b'\n')
        .expect("a header line");
    let body_len = pristine.len() - body_start;
    assert!(body_len > 256, "the body has 256 distinct cut points");

    let reject = |damage: String, bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write damaged copy");
        match read_snapshot(&path) {
            Ok(_) => panic!("{damage}: a damaged snapshot loaded"),
            Err(SnapshotError::Io { source, .. }) => panic!("{damage}: reported as I/O: {source}"),
            Err(_) => {}
        }
    };
    for cut in 0..=body_start {
        reject(format!("cut at {cut}"), &pristine[..cut]);
    }
    for i in 0..256 {
        let cut = body_start + 1 + i * (body_len - 1) / 256;
        reject(format!("cut at {cut}"), &pristine[..cut]);
    }
    for i in 0..256 {
        let at = i * pristine.len() / 256;
        let mut flipped = pristine.clone();
        flipped[at] ^= 1 << (i % 8);
        reject(format!("bit {} flipped at {at}", i % 8), &flipped);
    }

    sweep::set_cache_dir(Some(dir.clone()));
    let plan = vec![Cell::arm(tiny(0.2), Arm::Incentive, 7)];
    let fresh = as_bytes(&sweep::run_cells(&plan));
    let entry = dir.join(format!("{:032x}.json", plan[0].cache_key()));
    let stored = std::fs::read(&entry).expect("entry written under its key");
    let mut flipped = stored.clone();
    flipped[stored.len() / 3] ^= 0x04;
    for (damage, bytes) in [
        ("truncated", &stored[..stored.len() * 2 / 3]),
        ("bit-flipped", &flipped[..]),
    ] {
        std::fs::write(&entry, bytes).expect("damage the entry");
        sweep::clear_memo();
        let before = sweep::metrics();
        let rerun = as_bytes(&sweep::run_cells(&plan));
        let after = sweep::metrics();
        assert_eq!(fresh, rerun, "{damage}: re-run reproduced the result");
        assert_eq!(
            after.disk_rejected - before.disk_rejected,
            1,
            "{damage}: counted"
        );
        assert_eq!(
            after.cells_run - before.cells_run,
            1,
            "{damage}: the cell re-ran"
        );
    }
    sweep::set_cache_dir(None);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Warm-cache soundness over the condition space: for any (selfish
    /// fraction, arm, seed) cell, running cold with the disk cache on and
    /// then re-running with a cleared memo (disk only) yields bit-identical
    /// results without executing a single simulation.
    #[test]
    fn warm_disk_sweep_matches_cold_sweep(
        selfish_decile in 0u8..=10,
        arm_pick in prop::bool::ANY,
        seed in 1u64..50,
    ) {
        let _guard = executor_guard();
        let dir = scratch_cache("proptest");
        sweep::set_cache_dir(Some(dir.clone()));
        let arm = if arm_pick { Arm::Incentive } else { Arm::ChitChat };
        let plan = vec![Cell::arm(tiny(f64::from(selfish_decile) / 10.0), arm, seed)];

        let cold = as_bytes(&sweep::run_cells(&plan));
        sweep::clear_memo();
        let before = sweep::metrics();
        let warm = as_bytes(&sweep::run_cells(&plan));
        let after = sweep::metrics();

        prop_assert_eq!(cold, warm);
        prop_assert_eq!(after.cells_run - before.cells_run, 0);
        prop_assert_eq!(after.disk_hits - before.disk_hits, 1);
        sweep::set_cache_dir(None);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
