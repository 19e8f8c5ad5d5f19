//! Crash-resumable runs: whole-world snapshots with run identity attached.
//!
//! The kernel's [`WorldState`] captures every byte of dynamic state but
//! deliberately none of the configuration — a resumed run rebuilds the
//! world from the same scenario through the same build path and then
//! overwrites the dynamic state. This module pairs the two: a
//! [`SnapshotDoc`] embeds the full [`Scenario`] (plus arm, seed and
//! trace capacity) next to the world, so `--resume-from <file>` is
//! self-contained — no flag on the resuming command line can drift from
//! what the interrupted run was doing.
//!
//! Snapshots are written atomically (tmp-then-rename, see
//! [`dtn_sim::snapshot`]) under zero-padded sim-time names, so the
//! lexicographically greatest file in a snapshot directory is always the
//! latest consistent checkpoint — that is what crash-recovery tooling (and
//! the CI crash-resume job) picks up.

use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use dtn_core::protocol::DcimRouter;
use dtn_sim::kernel::{Simulation, WorldState};
use dtn_sim::snapshot::{self, SnapshotError};
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;

use crate::runner::{build_chitchat, Instrument, RunSpec};
use crate::scenario::{Arm, Scenario};

/// The identity of the run a snapshot belongs to: everything needed to
/// rebuild the *same* simulation (configuration), as opposed to the
/// [`WorldState`] (dynamic state) restored into it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// The full experimental condition, embedded verbatim, audit cadence
    /// included.
    pub scenario: Scenario,
    /// Which arm the run executes.
    pub arm: Arm,
    /// The run's seed.
    pub seed: u64,
    /// Bounded trace capacity, when the run records a kernel event trace.
    pub trace_capacity: Option<usize>,
}

impl RunMeta {
    /// Builds the world this identity names. A fresh run and a resumed one
    /// both build here, so restored state always lands in the identical
    /// configuration. `profile` turns on the wall-clock phase profiler; it
    /// is no part of the identity because it changes no result.
    ///
    /// # Panics
    ///
    /// Panics if the scenario fails validation.
    #[must_use]
    pub fn build(&self, profile: bool) -> Simulation<DcimRouter> {
        build_chitchat(
            &RunSpec::arm(&self.scenario, self.arm, self.seed),
            &Instrument {
                trace_capacity: self.trace_capacity,
                profile,
            },
        )
    }
}

/// One on-disk snapshot: run identity plus the whole-kernel state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotDoc {
    /// How to rebuild the simulation this state belongs to.
    pub meta: RunMeta,
    /// The kernel's dynamic state at the capture instant.
    pub world: WorldState,
}

/// Where (and how often) a run writes periodic snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotPolicy {
    /// Simulated seconds between snapshots. Checkpoints land at sim-time
    /// multiples of this cadence, so an interrupted-and-resumed run
    /// checkpoints at the same instants as an uninterrupted one.
    pub every_secs: f64,
    /// Directory the snapshot files are written into.
    pub dir: PathBuf,
}

/// The file name for a checkpoint taken at `now`, zero-padded so
/// lexicographic order is sim-time order.
#[must_use]
pub fn snapshot_path(dir: &Path, now: SimTime) -> PathBuf {
    dir.join(format!("snap-{:012}.dtnsnap", now.as_secs().round() as u64))
}

/// The latest (greatest sim-time) snapshot in `dir`, if any.
///
/// # Errors
///
/// Fails when the directory cannot be read.
pub fn latest_snapshot(dir: &Path) -> Result<Option<PathBuf>, SnapshotError> {
    let entries = std::fs::read_dir(dir).map_err(|source| SnapshotError::Io {
        path: dir.to_path_buf(),
        source,
    })?;
    let mut best: Option<PathBuf> = None;
    for entry in entries {
        let entry = entry.map_err(|source| SnapshotError::Io {
            path: dir.to_path_buf(),
            source,
        })?;
        let path = entry.path();
        let is_snap = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("snap-") && n.ends_with(".dtnsnap"));
        if is_snap && best.as_ref().is_none_or(|b| *b < path) {
            best = Some(path);
        }
    }
    Ok(best)
}

/// Captures `sim` into a [`SnapshotDoc`] and writes it atomically.
///
/// # Errors
///
/// Fails when serialization or the filesystem write fails.
pub fn write_snapshot(
    sim: &Simulation<DcimRouter>,
    meta: &RunMeta,
    path: &Path,
) -> Result<(), SnapshotError> {
    let doc = SnapshotDoc {
        meta: meta.clone(),
        world: sim.snapshot(),
    };
    snapshot::save(&doc, path)
}

/// Reads a snapshot back, verifying magic, version and checksum.
///
/// # Errors
///
/// Propagates the typed rejection: truncated, corrupt, version-mismatched
/// and malformed files each fail with their own [`SnapshotError`] variant.
pub fn read_snapshot(path: &Path) -> Result<SnapshotDoc, SnapshotError> {
    snapshot::load(path)
}

/// Rebuilds the simulation a snapshot belongs to and restores its state:
/// the run continues exactly where the capture left it, byte-identically
/// to never having stopped.
///
/// # Errors
///
/// Fails with [`SnapshotError::Mismatch`] when the embedded world state
/// does not fit the simulation the embedded metadata builds (a hand-edited
/// or cross-version document).
///
/// # Panics
///
/// Panics if the embedded scenario fails validation.
pub fn resume_simulation(doc: &SnapshotDoc) -> Result<Simulation<DcimRouter>, SnapshotError> {
    let mut sim = doc.meta.build(false);
    sim.restore(&doc.world)?;
    Ok(sim)
}

/// How a snapshot-aware run ended.
#[derive(Debug)]
pub enum RunProgress {
    /// The run reached its horizon; the summary is final.
    Finished(RunSummary),
    /// The interrupt flag fired mid-run. When a [`SnapshotPolicy`] was
    /// active, a final checkpoint was flushed at the interruption instant.
    Interrupted {
        /// Sim time at which the run stopped.
        at: SimTime,
        /// The final checkpoint, when one was written.
        snapshot: Option<PathBuf>,
    },
}

/// Steps `sim` to `until`, writing a checkpoint at every cadence multiple
/// and polling `interrupted` (with the current sim time) between steps.
///
/// Checkpoints land at sim-time multiples of the cadence (not offsets from
/// the start instant), so a resumed run checkpoints at the same instants
/// the uninterrupted run would have. On interruption a final checkpoint is
/// flushed at the current instant before returning.
///
/// # Errors
///
/// Fails when a checkpoint cannot be written; the simulation itself is
/// left intact at the failing instant.
pub fn run_with_snapshots(
    sim: &mut Simulation<DcimRouter>,
    meta: &RunMeta,
    until: SimTime,
    policy: Option<&SnapshotPolicy>,
    interrupted: &dyn Fn(SimTime) -> bool,
) -> Result<RunProgress, SnapshotError> {
    let mut next_snap = policy.map(|p| {
        let every = p.every_secs.max(1.0);
        ((sim.api().now().as_secs() / every).floor() + 1.0) * every
    });
    while sim.api().now() < until {
        if interrupted(sim.api().now()) {
            let snapshot = match policy {
                Some(p) => {
                    let path = snapshot_path(&p.dir, sim.api().now());
                    write_snapshot(sim, meta, &path)?;
                    Some(path)
                }
                None => None,
            };
            return Ok(RunProgress::Interrupted {
                at: sim.api().now(),
                snapshot,
            });
        }
        sim.step_once();
        if let (Some(p), Some(at)) = (policy, next_snap.as_mut()) {
            if sim.api().now().as_secs() >= *at {
                write_snapshot(sim, meta, &snapshot_path(&p.dir, sim.api().now()))?;
                let every = p.every_secs.max(1.0);
                *at = ((sim.api().now().as_secs() / every).floor() + 1.0) * every;
            }
        }
    }
    Ok(RunProgress::Finished(sim.run_until(until)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn scenario() -> Scenario {
        let mut s = paper::reduced_scenario();
        s.nodes = 20;
        s.area_km2 = 0.2;
        s.duration_secs = 1500.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 900.0;
        s.chaos = Some(
            "crash=4,crashdown=60,cut=12,cutdown=15,loss=0.1"
                .parse()
                .unwrap(),
        );
        s.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
        s.strategies = Some("free=0.2,white=0.1,defense".parse().expect("valid mix"));
        s.named("resume-test")
    }

    fn meta(s: &Scenario, seed: u64) -> RunMeta {
        RunMeta {
            scenario: Scenario {
                audit_every: Some(50),
                ..s.clone()
            },
            arm: Arm::Incentive,
            seed,
            trace_capacity: Some(100_000),
        }
    }

    #[test]
    fn kill_and_resume_is_byte_identical_across_seeds_and_threads() {
        let dir = std::env::temp_dir().join(format!("dtn-resume-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for threads in [1usize, 8] {
            for seed in [11u64, 12, 13] {
                let mut s = scenario();
                s.threads = Some(threads);
                let m = meta(&s, seed);
                let horizon = SimTime::from_secs(s.duration_secs);

                // The uninterrupted golden run.
                let mut golden = m.build(false);
                let golden_summary = golden.run_until(horizon);
                let golden_trace = golden.api().trace().render();

                // Kill mid-run, flushing a final checkpoint.
                let mut victim = m.build(false);
                let kill_at = SimTime::from_secs(500.0);
                let progress = run_with_snapshots(
                    &mut victim,
                    &m,
                    horizon,
                    Some(&SnapshotPolicy {
                        every_secs: 200.0,
                        dir: dir.clone(),
                    }),
                    &|now| now >= kill_at,
                )
                .unwrap();
                let RunProgress::Interrupted { snapshot, .. } = progress else {
                    panic!("the interrupt flag must stop the run");
                };
                let from = snapshot.expect("a policy was active");
                assert_eq!(latest_snapshot(&dir).unwrap().as_deref(), Some(&*from));

                // Resume from the on-disk checkpoint and finish.
                let doc = read_snapshot(&from).unwrap();
                assert_eq!(doc.meta, m, "run identity round-trips");
                let mut resumed = resume_simulation(&doc).unwrap();
                let resumed_summary = resumed.run_until(horizon);
                assert_eq!(
                    resumed_summary, golden_summary,
                    "summary diverged (seed {seed}, {threads} threads)"
                );
                assert_eq!(
                    resumed.api().trace().render(),
                    golden_trace,
                    "trace diverged (seed {seed}, {threads} threads)"
                );
                // Clean the per-iteration checkpoints so the next seed's
                // latest-snapshot assertion sees only its own files.
                for entry in std::fs::read_dir(&dir).unwrap() {
                    let _ = std::fs::remove_file(entry.unwrap().path());
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn periodic_checkpoints_land_on_cadence_multiples() {
        let dir = std::env::temp_dir().join(format!("dtn-cadence-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = scenario();
        let m = meta(&s, 3);
        let mut sim = m.build(false);
        let progress = run_with_snapshots(
            &mut sim,
            &m,
            SimTime::from_secs(650.0),
            Some(&SnapshotPolicy {
                every_secs: 200.0,
                dir: dir.clone(),
            }),
            &|_| false,
        )
        .unwrap();
        assert!(matches!(progress, RunProgress::Finished(_)));
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "snap-000000000200.dtnsnap",
                "snap-000000000400.dtnsnap",
                "snap-000000000600.dtnsnap"
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_corrupted_and_foreign_documents() {
        let dir = std::env::temp_dir().join(format!("dtn-reject-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = scenario();
        let m = meta(&s, 5);
        let mut sim = m.build(false);
        let _ = run_with_snapshots(&mut sim, &m, SimTime::from_secs(100.0), None, &|_| false);
        let path = dir.join("victim.dtnsnap");
        write_snapshot(&sim, &m, &path).unwrap();

        // Corrupt one body byte: checksum rejection, not a panic.
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 2;
        bytes[last] = bytes[last].wrapping_add(1);
        let corrupted = dir.join("corrupt.dtnsnap");
        std::fs::write(&corrupted, &bytes).unwrap();
        assert!(matches!(
            read_snapshot(&corrupted),
            Err(SnapshotError::Corrupt { .. })
        ));

        // A snapshot from a *different* world shape: reuse this doc's meta
        // but swap in a world from a smaller scenario — restore must fail
        // with a typed mismatch, not restore garbage.
        let mut small = scenario();
        small.nodes = 10;
        let small_meta = meta(&small, 5);
        let small_sim = small_meta.build(false);
        let mut doc = read_snapshot(&path).unwrap();
        doc.world = small_sim.snapshot();
        assert!(matches!(
            resume_simulation(&doc),
            Err(SnapshotError::Mismatch { .. })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `body` under a freshly computed header, so only the body's
    /// meaning can be wrong, never its checksum.
    fn write_checksummed(path: &Path, version: &str, body: &str) {
        let header = format!(
            "{} {version} {}\n",
            snapshot::MAGIC,
            snapshot::fnv128_hex(body.as_bytes())
        );
        std::fs::write(path, header + body).unwrap();
    }

    /// The value at `path` inside `v`, stepping into maps by key and into
    /// sequences by index.
    fn at<'a>(v: &'a mut serde::Value, path: &[&str]) -> &'a mut serde::Value {
        path.iter().fold(v, |v, key| match v {
            serde::Value::Map(entries) => match entries.iter_mut().find(|(k, _)| k == key) {
                Some((_, field)) => field,
                None => panic!("no key {key}"),
            },
            serde::Value::Seq(items) => &mut items[key.parse::<usize>().expect("an index")],
            other => panic!("cannot step into a {} at {key}", other.kind()),
        })
    }

    /// A checksum-valid body that names a node outside the world is
    /// refused at restore with a typed mismatch naming the field, at each
    /// site that would otherwise index past a per-node table later in the
    /// run. `v2`, `v3` and `v4` bodies are refused by version.
    #[test]
    fn restore_refuses_node_ids_outside_the_world() {
        let dir = std::env::temp_dir().join(format!("dtn-outside-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = scenario();
        let m = meta(&s, 5);
        let mut sim = m.build(false);
        let non_empty = |w: &WorldState, key: &str| {
            w.protocol
                .get(key)
                .and_then(serde::Value::as_seq)
                .is_some_and(|rows| !rows.is_empty())
        };
        // Run until every tampered site holds an entry.
        loop {
            let w = sim.snapshot();
            if sim.retry_queue_len() > 0
                && w.transfers.queues.iter().any(|q| !q.is_empty())
                && non_empty(&w, "meta")
                && non_empty(&w, "last_exchange")
            {
                break;
            }
            assert!(
                sim.api().now().as_secs() < s.duration_secs,
                "sites never filled"
            );
            sim.step_once();
        }
        let path = dir.join("faithful.dtnsnap");
        write_snapshot(&sim, &m, &path).unwrap();
        let doc = read_snapshot(&path).unwrap();
        resume_simulation(&doc).expect("a faithful snapshot restores");
        let queue = doc
            .world
            .transfers
            .queues
            .iter()
            .position(|q| !q.is_empty());
        let queue = queue.unwrap().to_string();
        let buffer = doc.world.buffers.iter().position(|b| !b.copies.is_empty());
        let buffer = buffer.unwrap().to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, body) = text.split_once('\n').unwrap();

        let cases: [(&str, Vec<&str>); 6] = [
            ("bodies.source", vec!["world", "bodies", "0", "source"]),
            (
                "buffers.copies",
                vec!["world", "buffers", &buffer, "copies", "0", "path", "0"],
            ),
            (
                "transfers.queues",
                vec!["world", "transfers", "queues", &queue, "0", "to"],
            ),
            (
                "retries.queue",
                vec!["world", "retries", "queue", "0", "to"],
            ),
            ("meta", vec!["world", "protocol", "meta", "0", "0"]),
            (
                "last_exchange",
                vec!["world", "protocol", "last_exchange", "0", "1"],
            ),
        ];
        for (field, path) in cases {
            let mut value: serde::Value = serde_json::from_str(body).unwrap();
            *at(&mut value, &path) = serde::Value::U64(9_999);
            let tampered = dir.join(format!("{field}.dtnsnap"));
            write_checksummed(
                &tampered,
                snapshot::FORMAT_VERSION,
                &serde_json::to_string(&value).unwrap(),
            );
            let doc = read_snapshot(&tampered).expect("the checksum holds");
            match resume_simulation(&doc) {
                Err(SnapshotError::Mismatch { detail }) => {
                    assert!(detail.contains(field), "{field}: {detail}");
                    assert!(
                        detail.contains("n9999, outside this world of 20"),
                        "{field}: {detail}"
                    );
                }
                Err(other) => panic!("{field}: expected a Mismatch, got {other}"),
                Ok(_) => panic!("{field}: node 9999 restored into a 20-node world"),
            }
        }

        for version in ["v2", "v3", "v4"] {
            let old = dir.join(format!("{version}.dtnsnap"));
            write_checksummed(&old, version, body);
            match read_snapshot(&old) {
                Err(SnapshotError::VersionMismatch { found, .. }) => assert_eq!(found, version),
                other => panic!("expected a VersionMismatch, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A checksum-valid body that places a node outside the world area is
    /// refused at restore with a typed mismatch naming `positions` and the
    /// node, whether the coordinate is infinite, finite but far off, or
    /// negative. The node has no open contact, so no other check sees it.
    #[test]
    fn restore_refuses_positions_outside_the_world() {
        let dir = std::env::temp_dir().join(format!("dtn-positions-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let s = scenario();
        let m = meta(&s, 7);
        let mut sim = m.build(false);
        while sim.api().now() < SimTime::from_secs(240.0) {
            sim.step_once();
        }
        let path = dir.join("faithful.dtnsnap");
        write_snapshot(&sim, &m, &path).unwrap();
        let contacts = read_snapshot(&path).unwrap().world.contacts;
        let alone = (0..s.nodes)
            .find(|&i| {
                !contacts
                    .iter()
                    .any(|&(a, b, _)| a.index() == i || b.index() == i)
            })
            .expect("some node has no open contact");
        let node = alone.to_string();
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, body) = text.split_once('\n').unwrap();
        for x in ["1e999", "1e300", "-5"] {
            let mut value: serde::Value = serde_json::from_str(body).unwrap();
            *at(&mut value, &["world", "positions", &node, "x"]) =
                serde::Value::Str("tampered-x".to_string());
            let edited = serde_json::to_string(&value).unwrap();
            let tampered = dir.join("tampered.dtnsnap");
            write_checksummed(
                &tampered,
                snapshot::FORMAT_VERSION,
                &edited.replacen("\"tampered-x\"", x, 1),
            );
            let doc = read_snapshot(&tampered).expect("the checksum holds");
            match resume_simulation(&doc) {
                Err(SnapshotError::Mismatch { detail }) => {
                    assert!(detail.contains("positions"), "x = {x}: {detail}");
                    assert!(
                        detail.contains(&format!("n{alone} at")),
                        "x = {x}: {detail}"
                    );
                }
                Err(other) => panic!("x = {x}: expected a Mismatch, got {other}"),
                Ok(_) => panic!("x = {x}: n{alone} restored outside the world"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The body of a faithful snapshot of the template world at 240 s
    /// (seed 7), written in `dir`.
    fn snapshot_at_240s(dir: &Path) -> String {
        std::fs::create_dir_all(dir).unwrap();
        let m = meta(&scenario(), 7);
        let mut sim = m.build(false);
        while sim.api().now() < SimTime::from_secs(240.0) {
            sim.step_once();
        }
        let path = dir.join("faithful.dtnsnap");
        write_snapshot(&sim, &m, &path).unwrap();
        resume_simulation(&read_snapshot(&path).unwrap()).expect("a faithful snapshot restores");
        let text = std::fs::read_to_string(&path).unwrap();
        let (_, body) = text.split_once('\n').unwrap();
        body.to_string()
    }

    /// Resumes `body` under a recomputed checksum and returns the typed
    /// mismatch's detail, failing on any other outcome.
    fn refusal(dir: &Path, body: &str) -> String {
        let tampered = dir.join("tampered.dtnsnap");
        write_checksummed(&tampered, snapshot::FORMAT_VERSION, body);
        let doc = read_snapshot(&tampered).expect("the checksum holds");
        match resume_simulation(&doc) {
            Err(SnapshotError::Mismatch { detail }) => detail,
            Err(other) => panic!("expected a Mismatch, got {other}"),
            Ok(_) => panic!("the tampered body restored"),
        }
    }

    /// A checksum-valid body whose interest table for n3 is out of keyword
    /// order, names a keyword outside the pool, or carries a weight or a
    /// time no run can reach is refused at restore with a typed mismatch
    /// naming the node, before any keyword bitmap is sized.
    #[test]
    fn restore_refuses_hostile_interest_tables() {
        let dir = std::env::temp_dir().join(format!("dtn-interests-{}", std::process::id()));
        let body = snapshot_at_240s(&dir);
        let entries = ["world", "protocol", "backend", "3", "entries"];
        let mut parsed: serde::Value = serde_json::from_str(&body).unwrap();
        let rows = at(&mut parsed, &entries)
            .as_seq()
            .map_or(0, <[serde::Value]>::len);
        assert!(rows >= 2, "n3 holds {rows} interests");
        let last = (rows - 1).to_string();
        let edit = |change: &dyn Fn(&mut serde::Value)| {
            let mut v = parsed.clone();
            change(&mut v);
            serde_json::to_string(&v).unwrap()
        };
        let cases = [
            (
                "at or above the keyword pool of 200",
                edit(&|v| {
                    *at(v, &[&entries[..], &[&last, "0"]].concat()) =
                        serde::Value::U64(4_000_000_000)
                }),
            ),
            (
                "not strictly ascending",
                edit(&|v| {
                    if let serde::Value::Seq(rows) = at(v, &entries) {
                        rows.reverse();
                    }
                }),
            ),
            (
                "weighs 7.0, outside [0, 1]",
                edit(&|v| {
                    *at(v, &[&entries[..], &["0", "1", "weight"]].concat()) = serde::Value::F64(7.0)
                }),
            ),
            (
                "not a finite non-negative time",
                edit(&|v| {
                    *at(v, &[&entries[..], &["0", "1", "last_shared"]].concat()) =
                        serde::Value::Str("tampered-t".to_string());
                })
                .replacen("\"tampered-t\"", "1e999", 1),
            ),
        ];
        for (reason, body) in cases {
            let detail = refusal(&dir, &body);
            assert!(
                detail.contains("interest table of n3"),
                "{reason}: {detail}"
            );
            assert!(detail.contains(reason), "{reason}: {detail}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `counters.contacts_down` is `contacts_up` less the open contacts; a
    /// checksum-valid body where the two disagree is refused with a typed
    /// mismatch naming the field.
    #[test]
    fn restore_refuses_contacts_down_that_disagrees_with_the_open_contacts() {
        let dir = std::env::temp_dir().join(format!("dtn-contacts-down-{}", std::process::id()));
        let body = snapshot_at_240s(&dir);
        let mut value: serde::Value = serde_json::from_str(&body).unwrap();
        let down = at(&mut value, &["world", "counters", "contacts_down"]);
        let serde::Value::U64(n) = *down else {
            panic!("contacts_down is a {}", down.kind());
        };
        assert!(n > 0, "no contact went down by 240 s");
        *down = serde::Value::U64(n - 1);
        let detail = refusal(&dir, &serde_json::to_string(&value).unwrap());
        assert!(detail.contains("counters.contacts_down"), "{detail}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `counters.transfers_aborted` is the sum of the per-reason abort
    /// counts; a checksum-valid body where the two disagree is refused
    /// with a typed mismatch naming the field.
    #[test]
    fn restore_refuses_an_abort_total_that_disagrees_with_its_reasons() {
        let dir = std::env::temp_dir().join(format!("dtn-aborted-{}", std::process::id()));
        let body = snapshot_at_240s(&dir);
        let mut value: serde::Value = serde_json::from_str(&body).unwrap();
        let total = at(&mut value, &["world", "counters", "transfers_aborted"]);
        let serde::Value::U64(n) = *total else {
            panic!("transfers_aborted is a {}", total.kind());
        };
        assert!(n > 0, "no transfer aborted by 240 s");
        *total = serde::Value::U64(n + 1);
        let detail = refusal(&dir, &serde_json::to_string(&value).unwrap());
        assert!(detail.contains("counters.transfers_aborted"), "{detail}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The no-double-pay audit compares two ledgers, the router's
    /// settlement count and the kernel's delivered pairs: a world whose
    /// ledgers disagree fails it.
    #[test]
    fn settlement_audit_compares_the_router_with_the_kernel() {
        let m = meta(&scenario(), 5);
        let mut sim = m.build(false);
        while sim.api().delivered_count() == 0 {
            sim.step_once();
        }
        assert_eq!(sim.check_invariants_now(), Vec::<String>::new());
        let mut world = sim.snapshot();
        world.stats.delivered_pairs.pop();
        let mut edited = m.build(false);
        edited
            .restore(&world)
            .expect("the ids are all in the world");
        let violations = edited.check_invariants_now();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("double-pay guard broken")),
            "{violations:?}"
        );
    }

    #[test]
    fn deeply_nested_checksummed_body_is_a_typed_rejection() {
        // The checksum only proves the body is what the writer wrote; a
        // hostile writer can still hand the JSON parser 100k nested arrays.
        // That must come back as a typed error, not a stack overflow.
        let dir = std::env::temp_dir().join(format!("dtn-nested-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let body = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let header = format!(
            "{} {} {}\n",
            snapshot::MAGIC,
            snapshot::FORMAT_VERSION,
            snapshot::fnv128_hex(body.as_bytes())
        );
        let path = dir.join("nested.dtnsnap");
        std::fs::write(&path, header + &body).unwrap();
        match read_snapshot(&path) {
            Err(SnapshotError::Malformed { detail, .. }) => {
                assert!(detail.contains("nesting deeper than 128"), "{detail}");
            }
            other => panic!("expected a Malformed rejection, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
