//! Kernel-mode conformance: the event-driven contact core against the
//! time-stepped sweep.
//!
//! The `kernel_mode` knob selects between two contact-detection cores
//! that must be *observably indistinguishable*: the predicted-crossing
//! event scheduler (the default) and the original per-step pair sweep it
//! replaced. These tests pit the two modes against each other at the
//! byte level — rendered trace, run summary, protocol state — across
//! seeds, thread counts, and a chaos + recovery + adversary-strategy
//! stack and a finite-battery world where radios die, then check that a
//! snapshot taken on one core refuses to restore into the other with a
//! typed error rather than undefined drift (the cores agree on
//! *observable* state but not on derived scheduler state, so a
//! cross-mode resume is an identity mismatch), while a resume on the same
//! core finishes byte-identically, from several points of a run.

use dtn_core::protocol::DcimRouter;
use dtn_integration_tests::fast_scenario;
use dtn_sim::events::KernelMode;
use dtn_sim::kernel::Simulation;
use dtn_sim::snapshot::SnapshotError;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_workloads::prelude::*;

const TRACE_CAPACITY: usize = 200_000;
const SEEDS: [u64; 3] = [101, 202, 303];
const THREAD_COUNTS: [usize; 2] = [1, 8];

/// Runs `scenario` under one kernel mode, returning every observable
/// surface: the rendered kernel trace plus the run summary and protocol
/// stats serialized to JSON (byte-level comparison, not approximate).
fn observable_output(
    scenario: &Scenario,
    arm: Arm,
    seed: u64,
    threads: usize,
    mode: KernelMode,
) -> (String, String) {
    let mut s = scenario.clone();
    s.threads = Some(threads);
    s.kernel_mode = Some(mode);
    s.audit_every = Some(60);
    let instrument = Instrument {
        trace_capacity: Some(TRACE_CAPACITY),
        profile: false,
    };
    let (outcome, trace, _) = run(&RunSpec::arm(&s, arm, seed), &instrument);
    let summary = serde_json::to_string(&outcome.summary).expect("summary serializes");
    let protocol = format!("{:?}", outcome.protocol);
    (trace.expect("trace attached"), summary + &protocol)
}

/// Asserts both modes produce byte-identical traces and summaries over
/// the seed × thread matrix for one scenario configuration.
fn assert_modes_agree(scenario: &Scenario, arm: Arm, label: &str) {
    for seed in SEEDS {
        for threads in THREAD_COUNTS {
            let (swept_trace, swept_rest) =
                observable_output(scenario, arm, seed, threads, KernelMode::TimeStepped);
            let (event_trace, event_rest) =
                observable_output(scenario, arm, seed, threads, KernelMode::EventDriven);
            assert_eq!(
                event_trace, swept_trace,
                "{label}: trace diverged between modes at seed={seed}, threads={threads}"
            );
            assert_eq!(
                event_rest, swept_rest,
                "{label}: summary/stats diverged between modes at seed={seed}, threads={threads}"
            );
        }
    }
}

/// Clean-world equivalence: the event core and the time-stepped sweep
/// are byte-identical across three seeds and threads ∈ {1, 8}.
#[test]
fn modes_do_not_change_a_single_byte() {
    assert_modes_agree(&fast_scenario(), Arm::Incentive, "clean");
}

/// The equivalence must survive the full hostile stack: faults vetoing
/// links mid-transfer, the recovery layer retrying aborts, and strategic
/// adversaries (with countermeasures armed) steering the economy — every
/// layer that reads contact state reads it through the same engine.
#[test]
fn modes_agree_under_chaos_recovery_and_strategies() {
    let mut scenario = fast_scenario();
    scenario.chaos = Some(
        "crash=3,crashdown=60,wipe,cut=6,cutdown=30,loss=0.05,corrupt=0.02"
            .parse()
            .expect("valid spec"),
    );
    scenario.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
    scenario.strategies = Some("free=0.2,white=0.1,defense".parse().expect("valid mix"));
    assert_modes_agree(&scenario, Arm::Incentive, "chaos+recovery+strategies");
}

/// A snapshot taken mid-run on one core must refuse to restore into a
/// world built on the other core: a typed [`SnapshotError::Mismatch`]
/// naming both modes, never a panic or a silent restore.
#[test]
fn cross_mode_resume_is_rejected() {
    let scenario = fast_scenario();
    for (taken_on, resumed_on) in [
        (KernelMode::EventDriven, KernelMode::TimeStepped),
        (KernelMode::TimeStepped, KernelMode::EventDriven),
    ] {
        let mut source = scenario.clone();
        source.kernel_mode = Some(taken_on);
        let mut sim = build_simulation(&source, Arm::Incentive, 101);
        sim.run_until(SimTime::from_secs(600.0));
        let snap = sim.snapshot();
        assert_eq!(snap.kernel_mode, taken_on, "snapshot records its core");

        let mut target = scenario.clone();
        target.kernel_mode = Some(resumed_on);
        let mut other = build_simulation(&target, Arm::Incentive, 101);
        match other.restore(&snap) {
            Err(SnapshotError::Mismatch { detail }) => {
                assert!(
                    detail.contains(&taken_on.to_string())
                        && detail.contains(&resumed_on.to_string()),
                    "mismatch detail should name both cores: {detail}"
                );
            }
            Err(other) => panic!("expected a kernel-mode Mismatch, got {other}"),
            Ok(()) => panic!("cross-mode restore ({taken_on} -> {resumed_on}) must be rejected"),
        }
    }
}

/// Same-mode restore stays accepted — the rejection above is about the
/// mode, not the snapshot — and on either core a world resumed from a
/// mid-run snapshot finishes with the uninterrupted run's rendered trace
/// and summary, byte for byte.
#[test]
fn same_mode_resume_still_works() {
    for mode in [KernelMode::EventDriven, KernelMode::TimeStepped] {
        let mut scenario = fast_scenario();
        scenario.kernel_mode = Some(mode);
        let horizon = SimTime::from_secs(scenario.duration_secs);
        let meta = RunMeta {
            scenario,
            arm: Arm::Incentive,
            seed: 101,
            trace_capacity: Some(TRACE_CAPACITY),
        };
        let mut uninterrupted = meta.build(false);
        let golden = uninterrupted.run_until(horizon);

        let mut killed = meta.build(false);
        while killed.api().now() < SimTime::from_secs(600.0) {
            killed.step_once();
        }
        let snap = killed.snapshot();
        let mut resumed = meta.build(false);
        resumed
            .restore(&snap)
            .expect("same-mode restore is accepted");
        let summary = resumed.run_until(horizon);
        assert_eq!(
            resumed.api().trace().render(),
            uninterrupted.api().trace().render(),
            "{mode}: resumed trace differs from the uninterrupted run"
        );
        assert_eq!(
            serde_json::to_string(&summary).expect("summary serializes"),
            serde_json::to_string(&golden).expect("summary serializes"),
            "{mode}: resumed summary differs from the uninterrupted run"
        );
    }
}

/// The battery regime of the chaos suite plus link cuts: spikes and
/// transfers drain 120 J batteries until radios die, crashes churn nodes,
/// and cuts block pairs. It exercises the event core's depletion event
/// and its fault filter on transitions.
fn battery_chaos_scenario() -> Scenario {
    let mut s = fast_scenario();
    s.battery_joules = Some(120.0);
    s.chaos = Some(
        "spike=30,spikej=40,crash=2,crashdown=60,cut=6,cutdown=30"
            .parse()
            .expect("valid spec"),
    );
    s
}

/// 10 J batteries that transfers alone drain: a radio dies during the
/// transfer phase while its contacts are still up, and they close at the
/// next step. In the spike regime above, radios die before contact
/// detection and close their contacts within the same step.
fn transfer_drained_scenario() -> Scenario {
    let mut s = fast_scenario();
    s.battery_joules = Some(10.0);
    s.chaos = Some(
        "crash=2,crashdown=60,cut=6,cutdown=30"
            .parse()
            .expect("valid spec"),
    );
    s
}

/// Both cores agree byte for byte on worlds whose radios die mid-run.
#[test]
fn modes_agree_on_finite_batteries_under_chaos() {
    for (label, scenario) in [
        ("battery+chaos", battery_chaos_scenario()),
        ("transfer-drained", transfer_drained_scenario()),
    ] {
        for seed in SEEDS {
            let (outcome, _, _) = run(
                &RunSpec::arm(&scenario, Arm::Incentive, seed),
                &Instrument::default(),
            );
            assert!(
                outcome.summary.depleted_nodes > 0,
                "{label}, seed {seed}: no radio died, so the depletion event went untested"
            );
        }
        assert_modes_agree(&scenario, Arm::Incentive, label);
    }
}

/// Runs `scenario` on `mode` to the horizon, and again from a snapshot
/// taken after every step at which `pick` names a resume point. Each
/// resumed run must finish with the uninterrupted run's rendered trace
/// and summary, byte for byte. Returns the points resumed from.
fn resume_at(
    scenario: &Scenario,
    mode: KernelMode,
    mut pick: impl FnMut(&Simulation<DcimRouter>) -> Option<&'static str>,
) -> Vec<&'static str> {
    let mut scenario = scenario.clone();
    scenario.kernel_mode = Some(mode);
    let horizon = SimTime::from_secs(scenario.duration_secs);
    let meta = RunMeta {
        scenario,
        arm: Arm::Incentive,
        seed: 101,
        trace_capacity: Some(TRACE_CAPACITY),
    };
    let mut uninterrupted = meta.build(false);
    let golden =
        serde_json::to_string(&uninterrupted.run_until(horizon)).expect("summary serializes");
    let golden_trace = uninterrupted.api().trace().render();

    let mut probe = meta.build(false);
    let mut points = Vec::new();
    while probe.api().now() < horizon {
        probe.step_once();
        let Some(point) = pick(&probe) else {
            continue;
        };
        let at = probe.api().now();
        let mut resumed = meta.build(false);
        resumed
            .restore(&probe.snapshot())
            .unwrap_or_else(|e| panic!("{mode}: restore after {point}: {e}"));
        let summary =
            serde_json::to_string(&resumed.run_until(horizon)).expect("summary serializes");
        assert_eq!(
            resumed.api().trace().render(),
            golden_trace,
            "{mode}: trace resumed after {point} (t={at}) differs from the uninterrupted run"
        );
        assert_eq!(
            summary, golden,
            "{mode}: summary resumed after {point} (t={at}) differs from the uninterrupted run"
        );
        points.push(point);
    }
    points
}

/// On either core, a finite-battery chaos world resumed from a snapshot
/// finishes byte-identically. Snapshots are taken just after the first
/// radio dies, while the first link cut still blocks its pair, mid-run,
/// and — in the transfer-drained world — while a dead radio still holds
/// contacts that the next step must close.
#[test]
fn battery_worlds_resume_from_several_points() {
    for mode in [KernelMode::EventDriven, KernelMode::TimeStepped] {
        let (mut depleted, mut cut, mut mid) = (false, false, false);
        let points = resume_at(&battery_chaos_scenario(), mode, |sim| {
            if !depleted && sim.api().depleted_count() > 0 {
                depleted = true;
                Some("the first depletion")
            } else if !cut && sim.fault_stats().is_some_and(|f| f.link_cuts > 0) {
                cut = true;
                // The cut lasts 30 s, so it still blocks its pair.
                assert!(sim
                    .snapshot()
                    .faults
                    .is_some_and(|f| !f.blocked_until.is_empty()));
                Some("the first link cut")
            } else if !mid && sim.api().now() >= SimTime::from_secs(900.0) {
                mid = true;
                Some("mid-run")
            } else {
                None
            }
        });
        assert_eq!(points.len(), 3, "{mode}: every resume point was reached");

        let mut pending = false;
        let points = resume_at(&transfer_drained_scenario(), mode, |sim| {
            let api = sim.api();
            let dead_but_linked = api
                .node_ids()
                .any(|n| api.is_depleted(n) && !api.peers_of_slice(n).is_empty());
            if pending || !dead_but_linked {
                return None;
            }
            pending = true;
            Some("a depletion with contacts still up")
        });
        assert_eq!(
            points.len(),
            1,
            "{mode}: a dead radio held contacts at a step's end"
        );
    }
}

/// Every observable surface of a finished world: the rendered trace, and
/// the run summary and protocol stats as JSON.
fn surfaces(sim: &Simulation<DcimRouter>, summary: &RunSummary) -> [String; 3] {
    [
        sim.api().trace().render(),
        serde_json::to_string(summary).expect("summary serializes"),
        serde_json::to_string(&sim.protocol().stats()).expect("stats serialize"),
    ]
}

/// Every mobility model steps through the one serial mobility path, and
/// each must agree byte for byte across both cores, threads 1 and 3, and
/// a kill at 600 s and resume on each core. The reference is the
/// time-stepped core at threads 1, run uninterrupted.
#[test]
fn every_mobility_model_agrees_across_cores_threads_and_resume() {
    for mobility in [
        Mobility::RandomWaypoint,
        Mobility::RandomWalk,
        Mobility::ManhattanGrid,
    ] {
        let mut scenario = fast_scenario();
        scenario.nodes = 60;
        scenario.area_km2 = 1.0;
        scenario.duration_secs = 1200.0;
        scenario.mobility = mobility;
        let horizon = SimTime::from_secs(scenario.duration_secs);
        let meta = |mode: KernelMode, threads: usize| {
            let mut s = scenario.clone();
            s.kernel_mode = Some(mode);
            s.threads = Some(threads);
            s.audit_every = Some(60);
            RunMeta {
                scenario: s,
                arm: Arm::Incentive,
                seed: 101,
                trace_capacity: Some(TRACE_CAPACITY),
            }
        };
        let uninterrupted = |mode, threads| {
            let mut sim = meta(mode, threads).build(false);
            let summary = sim.run_until(horizon);
            (surfaces(&sim, &summary), summary.relays_completed)
        };
        let (reference, relays) = uninterrupted(KernelMode::TimeStepped, 1);
        assert!(relays > 0, "{mobility:?}: the world should move messages");
        for mode in [KernelMode::EventDriven, KernelMode::TimeStepped] {
            for threads in [1, 3] {
                assert_eq!(
                    uninterrupted(mode, threads).0,
                    reference,
                    "{mobility:?}: {mode} at threads {threads} differs from the reference"
                );
            }
            let mut killed = meta(mode, 3).build(false);
            while killed.api().now() < SimTime::from_secs(600.0) {
                killed.step_once();
            }
            let mut resumed = meta(mode, 3).build(false);
            resumed
                .restore(&killed.snapshot())
                .expect("same-mode restore is accepted");
            let summary = resumed.run_until(horizon);
            assert_eq!(
                surfaces(&resumed, &summary),
                reference,
                "{mobility:?}: {mode} resumed at 600 s differs from the reference"
            );
        }
    }
}
