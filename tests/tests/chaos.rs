//! Chaos suite: the deterministic fault-injection layer exercised under
//! the always-on invariant checker.
//!
//! Every run here audits the cross-cutting invariants (token conservation,
//! rating bounds, buffer accounting, energy sanity) on a short cadence; a
//! breach panics with the seed and fault spec, so a plain green run is the
//! assertion that no fault regime can corrupt the mechanism's books.

use dtn_integration_tests::fast_scenario;
use dtn_sim::faults::FaultPlan;
use dtn_sim::message::MessageId;
use dtn_sim::time::{SimDuration, SimTime};
use dtn_sim::transfer::{RecoveryPolicy, TransferEngine};
use dtn_sim::world::NodeId;
use dtn_workloads::prelude::*;
use proptest::prelude::*;

/// Audit cadence for these tests: every 15 simulated steps. The rating
/// scan is O(nodes²), but at 24 nodes that is noise.
const AUDIT_EVERY: u64 = 15;

fn chaotic(spec: &str) -> Scenario {
    let mut s = fast_scenario();
    s.chaos = Some(spec.parse().expect("test specs are valid"));
    s.named(format!("chaos[{spec}]"))
}

fn run_audited(s: &Scenario, arm: Arm, seed: u64) -> ArmRun {
    let audited = Scenario {
        audit_every: Some(AUDIT_EVERY),
        ..s.clone()
    };
    run_once(&audited, arm, seed)
}

/// Named fault regimes covering every fault class the plan grammar can
/// express, alone and combined: crash/reboot churn (with and without
/// buffer wipes), long link outages, rapid contact flaps, battery-drain
/// spikes, and in-flight payload loss/corruption.
const REGIMES: [&str; 10] = [
    "crash=2,crashdown=120",
    "crash=6,crashdown=30,wipe",
    "cut=3,cutdown=120",
    "cut=20,cutdown=5", // contact flaps: frequent, short
    "spike=4,spikej=25",
    "loss=0.1",
    "corrupt=0.1",
    "loss=0.05,corrupt=0.05",
    "crash=3,crashdown=60,cut=6,cutdown=30,loss=0.03",
    "crash=1,crashdown=300,wipe,cut=2,cutdown=60,spike=2,spikej=10,loss=0.02,corrupt=0.02",
];

#[test]
fn every_fault_regime_passes_the_invariant_audit() {
    for spec in REGIMES {
        let s = chaotic(spec);
        let run = run_audited(&s, Arm::Incentive, 42);
        assert!(
            (0.0..=1.0).contains(&run.summary.delivery_ratio),
            "{spec}: ratio {}",
            run.summary.delivery_ratio
        );
        assert!(run.summary.created > 10, "{spec}: workload still generated");
    }
}

#[test]
fn the_baseline_arm_survives_chaos_too() {
    // The checker's kernel-level invariants (buffer accounting, energy
    // sanity) are protocol-agnostic; run the ChitChat arm through the two
    // harshest regimes as well.
    for spec in [REGIMES[1], REGIMES[9]] {
        let s = chaotic(spec);
        let run = run_audited(&s, Arm::ChitChat, 42);
        assert!((0.0..=1.0).contains(&run.summary.delivery_ratio));
    }
}

#[test]
fn chaos_with_finite_batteries_keeps_energy_sane() {
    // Battery spikes against a finite budget: the drain must deplete
    // nodes, never drive remaining charge negative (the audit checks the
    // bound every cadence).
    let mut s = chaotic("spike=30,spikej=40,crash=2,crashdown=60");
    s.battery_joules = Some(120.0);
    let run = run_audited(&s, Arm::Incentive, 7);
    assert!((0.0..=1.0).contains(&run.summary.delivery_ratio));
}

#[test]
fn identical_seed_and_plan_replay_byte_for_byte() {
    // The one-command-replay guarantee behind every breach report: the
    // same (scenario, seed, fault plan) triple reproduces the identical
    // run — kernel statistics AND mechanism counters.
    for spec in [REGIMES[8], REGIMES[3]] {
        let s = chaotic(spec);
        let a = run_audited(&s, Arm::Incentive, 101);
        let b = run_audited(&s, Arm::Incentive, 101);
        assert_eq!(a.summary, b.summary, "{spec}: kernel stats replay");
        assert_eq!(a.protocol, b.protocol, "{spec}: mechanism stats replay");
        assert_eq!(a.broke_nodes, b.broke_nodes);
    }
}

#[test]
fn the_checker_itself_never_perturbs_a_run() {
    // Auditing reads state but must not touch any RNG stream: a clean run
    // and an audited run of the same seed are identical, so leaving the
    // checker on costs time, never fidelity.
    let s = fast_scenario();
    let plain = run_once(&s, Arm::Incentive, 13);
    let every_step = Scenario {
        audit_every: Some(1),
        ..s.clone()
    };
    let audited = run_once(&every_step, Arm::Incentive, 13);
    assert_eq!(plain.summary, audited.summary);
    assert_eq!(plain.protocol, audited.protocol);
}

#[test]
fn injected_faults_actually_fire() {
    // Guard against a silently inert layer: the heavy regime must inject
    // a visible volume of every configured fault class.
    let mut s = chaotic("crash=4,crashdown=60,wipe,cut=10,cutdown=20,loss=0.1");
    s.audit_every = Some(AUDIT_EVERY);
    let mut sim = build_simulation(&s, Arm::Incentive, 3);
    let _ = sim.run_until(dtn_sim::time::SimTime::from_secs(s.duration_secs));
    let stats = sim.fault_stats().expect("chaos enabled");
    assert!(stats.crashes > 0, "crashes fired: {stats:?}");
    assert!(stats.reboots > 0, "reboots fired: {stats:?}");
    assert!(stats.link_cuts > 0, "cuts fired: {stats:?}");
    assert!(stats.transfers_lost > 0, "losses fired: {stats:?}");
    assert!(
        sim.invariant_checks_run().expect("checker enabled") > 0,
        "audits actually ran"
    );
}

/// The recovery e2e regression: under payload loss, kernel-driven retries
/// must recover deliveries the retry-less run lost — strictly more pairs
/// delivered on the same seed — and the recovered run must still pass the
/// full invariant audit (byte conservation, token conservation, no
/// double-pay).
#[test]
fn retries_recover_deliveries_lost_to_chaos() {
    let mut lossy = fast_scenario();
    lossy.chaos = Some("loss=0.3".parse().expect("valid spec"));
    let off = run_audited(&lossy.clone().named("retry-off"), Arm::Incentive, 101);
    let mut with_recovery = lossy.named("retry-on");
    with_recovery.recovery = Some(RecoveryPolicy {
        backoff_base_secs: 5.0,
        ..RecoveryPolicy::default()
    });
    let on = run_audited(&with_recovery, Arm::Incentive, 101);
    assert!(on.summary.transfers_retried > 0, "retries actually fired");
    assert!(
        on.summary.delivered_pairs > off.summary.delivered_pairs,
        "retries must recover lost deliveries: {} (on) vs {} (off)",
        on.summary.delivered_pairs,
        off.summary.delivered_pairs
    );
    // Settlement safety held throughout (the audit would have panicked on
    // a double-pay); the books still balance at the end too. Settlements
    // cover every fresh delivery: expected pairs plus bonus deliveries.
    assert_eq!(
        on.protocol.settlements,
        on.summary.delivered_pairs + on.summary.bonus_deliveries
    );
}

/// One operation against a [`TransferEngine`] in the byte-conservation
/// sweep below.
#[derive(Debug, Clone)]
enum EngineOp {
    Enqueue {
        from: u32,
        to: u32,
        msg: u64,
        bytes: u64,
    },
    Step {
        dt_secs: f64,
    },
    AbortBetween {
        a: u32,
        b: u32,
    },
}

fn arb_engine_op() -> impl Strategy<Value = EngineOp> {
    // (The vendored proptest stand-in has no `prop_oneof!`; a mapped
    // selector tuple covers the same three-way choice.)
    (
        0u8..3,
        0u32..4,
        0u32..4,
        0u64..6,
        1u64..200_000,
        0.1f64..5.0,
    )
        .prop_map(|(kind, from, to, msg, bytes, dt_secs)| match kind {
            0 => EngineOp::Enqueue {
                from,
                to,
                msg,
                bytes,
            },
            1 => EngineOp::Step { dt_secs },
            _ => EngineOp::AbortBetween { a: from, b: to },
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Transfer-engine byte conservation: across arbitrary interleavings
    /// of enqueue/step/abort — with and without checkpointing —
    /// every in-flight offset and every saved checkpoint stays within
    /// `[0, bytes_total]`, completions deliver exactly their payload, and
    /// disabling resume leaves no checkpoint behind.
    #[test]
    fn engine_conserves_bytes_under_arbitrary_interleavings(
        resume in prop::bool::ANY,
        ops in prop::collection::vec(arb_engine_op(), 1..60)
    ) {
        let mut engine = TransferEngine::new(4, 10_000.0);
        engine.set_resume(resume);
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                EngineOp::Enqueue { from, to, msg, bytes } => {
                    if from != to {
                        let _ = engine.enqueue(
                            NodeId(from), NodeId(to), MessageId(msg), bytes, now,
                        );
                    }
                }
                EngineOp::Step { dt_secs } => {
                    let dt = SimDuration::from_secs(dt_secs);
                    let (completed, aborted) = engine.step(
                        dt,
                        now,
                        // Senders deterministically lose some copies so the
                        // SourceGone path is part of the interleaving too.
                        |n, m| (u64::from(n.0) + m.0) % 7 != 0,
                        |_, _| 10.0,
                    );
                    for c in &completed {
                        prop_assert!(c.bytes > 0, "completions carry their payload");
                    }
                    for a in &aborted {
                        prop_assert!(
                            a.bytes_sent >= 0.0,
                            "aborts never report negative progress"
                        );
                    }
                    now += dt;
                }
                EngineOp::AbortBetween { a, b } => {
                    let _ = engine.abort_between(NodeId(a), NodeId(b), now);
                }
            }
            let violations = engine.audit_bytes();
            prop_assert!(violations.is_empty(), "byte audit breached: {violations:?}");
            if !resume {
                prop_assert_eq!(engine.checkpoint_count(), 0, "no checkpoints without resume");
            }
        }
    }
}

/// A proptest strategy over the whole fault-plan space, including the
/// corners (zero rates, certain loss, instant reboots).
fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0.0f64..12.0,  // crash_per_hour
        1.0f64..600.0, // crash_down_secs
        prop::bool::ANY,
        0.0f64..24.0,  // link_cut_per_hour
        1.0f64..300.0, // link_cut_secs
        0.0f64..12.0,  // battery_spike_per_hour
        0.1f64..50.0,  // battery_spike_joules
        0.0f64..=1.0,  // transfer_loss_prob
        0.0f64..=1.0,  // transfer_corrupt_prob
    )
        .prop_map(
            |(crash, down, wipe, cut, cutdown, spike, spikej, loss, corrupt)| FaultPlan {
                crash_per_hour: crash,
                crash_down_secs: down,
                crash_wipes_buffer: wipe,
                link_cut_per_hour: cut,
                link_cut_secs: cutdown,
                battery_spike_per_hour: spike,
                battery_spike_joules: spikej,
                transfer_loss_prob: loss,
                transfer_corrupt_prob: corrupt,
            },
        )
}

/// A smaller world for the randomized sweeps: same density regime,
/// sub-second per run.
fn tiny_scenario() -> Scenario {
    let mut s = fast_scenario();
    s.nodes = 14;
    s.area_km2 = 0.14;
    s.duration_secs = 900.0;
    s.message_ttl_secs = 600.0;
    s.named("chaos-tiny")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Randomly generated fault plans cannot break the invariants either:
    /// the audit stays green across the whole plan space.
    #[test]
    fn random_fault_plans_never_breach_invariants(
        seed in 0u64..10_000,
        plan in arb_plan()
    ) {
        let mut s = tiny_scenario();
        plan.validate().expect("generated plans are valid");
        s.chaos = Some(plan);
        let outcome = run_audited(&s, Arm::Incentive, seed);
        prop_assert!((0.0..=1.0).contains(&outcome.summary.delivery_ratio));
    }

    /// Replay determinism holds for arbitrary plans, not only the named
    /// regimes.
    #[test]
    fn random_fault_plans_replay_identically(
        seed in 0u64..10_000,
        plan in arb_plan()
    ) {
        let mut s = tiny_scenario();
        s.chaos = Some(plan);
        let a = run_audited(&s, Arm::Incentive, seed);
        let b = run_audited(&s, Arm::Incentive, seed);
        prop_assert_eq!(a.summary, b.summary);
        prop_assert_eq!(a.protocol, b.protocol);
    }

    /// The compact spec grammar is lossless: Display → FromStr is the
    /// identity over the whole plan space.
    #[test]
    fn plan_spec_round_trips(plan in arb_plan()) {
        let spec = plan.to_string();
        let back: FaultPlan = spec.parse().expect("rendered specs parse");
        prop_assert_eq!(plan, back, "spec was {}", spec);
    }
}

/// Checkpoint-store pressure: a capacity-1 store under contact flaps and
/// transfer loss evicts constantly, yet the evict → retry →
/// resume-from-zero path keeps the invariant audit green, replays
/// identically, and never double-settles (the audit's token-conservation
/// check would flag a double award).
#[test]
fn checkpoint_eviction_under_pressure_stays_settlement_safe() {
    let mut s = chaotic("cut=20,cutdown=5,loss=0.1");
    s.recovery = Some(RecoveryPolicy {
        resume: true,
        checkpoint_capacity: 1,
        ..RecoveryPolicy::default()
    });
    let s = s.named("chaos-evict");

    let audited = run_audited(&s, Arm::Incentive, 9);
    assert!(
        audited.summary.transfers_retried > 0,
        "the regime must exercise the retry queue"
    );

    // The profiled twin exposes the kernel counters; the observability
    // layer must not change results.
    let profile = Instrument {
        profile: true,
        ..Instrument::default()
    };
    let (profiled, _, perf) = run(&RunSpec::arm(&s, Arm::Incentive, 9), &profile);
    let perf = perf.expect("profiled");
    assert_eq!(audited.summary, profiled.summary, "observers are inert");
    assert!(
        perf.metrics.counter("kernel.checkpoints_evicted") > 0,
        "capacity 1 under flaps must evict"
    );

    // Deterministic replay, evictions included.
    let (replay, _, perf2) = run(&RunSpec::arm(&s, Arm::Incentive, 9), &profile);
    let perf2 = perf2.expect("profiled");
    assert_eq!(profiled.summary, replay.summary);
    assert_eq!(
        perf.metrics.counter("kernel.checkpoints_evicted"),
        perf2.metrics.counter("kernel.checkpoints_evicted")
    );

    // An unbounded store on the identical run is the control: no
    // evictions, and the books still balance.
    let mut unbounded = s.clone();
    unbounded.recovery = Some(RecoveryPolicy {
        resume: true,
        checkpoint_capacity: 0,
        ..RecoveryPolicy::default()
    });
    let perf3 = run(&RunSpec::arm(&unbounded, Arm::Incentive, 9), &profile)
        .2
        .expect("profiled");
    assert_eq!(perf3.metrics.counter("kernel.checkpoints_evicted"), 0);
}
