//! Determinism under parallelism.
//!
//! The kernel's `threads` knob bounds how many threads step the event
//! core's contact regions (mobility steps serially), and the transfer
//! engine steps an incrementally-maintained active-sender index instead
//! of scanning every queue. None of that may change a single byte of
//! output: these tests pit sharded runs against the serial path at the
//! trace level, and the batched index against a brute-force queue scan
//! under arbitrary op interleavings.

use dtn_integration_tests::fast_scenario;
use dtn_sim::message::MessageId;
use dtn_sim::time::{SimDuration, SimTime};
use dtn_sim::transfer::TransferEngine;
use dtn_sim::world::NodeId;
use dtn_workloads::prelude::*;
use proptest::prelude::*;

const TRACE_CAPACITY: usize = 200_000;
const SEEDS: [u64; 3] = [101, 202, 303];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Runs `scenario` at a given shard count, returning every observable
/// surface: the rendered kernel trace, the run summary and protocol stats
/// serialized to JSON (byte-level comparison, not approximate equality).
fn observable_output(scenario: &Scenario, arm: Arm, seed: u64, threads: usize) -> (String, String) {
    let mut s = scenario.clone();
    s.threads = Some(threads);
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

/// Golden-trace equivalence: traces and summaries are byte-identical at
/// `threads` ∈ {1, 2, 8} across three seeds and both arms.
#[test]
fn threads_do_not_change_a_single_byte() {
    let scenario = fast_scenario();
    for arm in [Arm::Incentive, Arm::ChitChat] {
        for seed in SEEDS {
            let (base_trace, base_rest) = observable_output(&scenario, arm, seed, 1);
            for threads in &THREAD_COUNTS[1..] {
                let (trace, rest) = observable_output(&scenario, arm, seed, *threads);
                assert_eq!(
                    trace, base_trace,
                    "trace diverged at threads={threads}, arm={arm:?}, seed={seed}"
                );
                assert_eq!(
                    rest, base_rest,
                    "summary/stats diverged at threads={threads}, arm={arm:?}, seed={seed}"
                );
            }
        }
    }
}

/// The equivalence must also hold with the fault layer vetoing links and
/// the recovery layer re-enqueueing aborts — both paths share the reused
/// in-range scratch buffer with the plain run.
#[test]
fn threads_do_not_change_chaotic_recovery_runs() {
    let mut scenario = fast_scenario();
    scenario.chaos = Some(
        "crash=3,crashdown=60,wipe,cut=6,cutdown=30,loss=0.05,corrupt=0.02"
            .parse()
            .expect("valid spec"),
    );
    scenario.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
    for seed in SEEDS {
        let (base_trace, base_rest) = observable_output(&scenario, Arm::Incentive, seed, 1);
        for threads in [2, 8] {
            let (trace, rest) = observable_output(&scenario, Arm::Incentive, seed, threads);
            assert_eq!(trace, base_trace, "chaotic trace diverged at {threads}");
            assert_eq!(rest, base_rest, "chaotic summary diverged at {threads}");
        }
    }
}

/// A thread count far above the node count, which leaves most event-core
/// regions empty, changes nothing.
#[test]
fn more_threads_than_work_is_fine() {
    let mut scenario = fast_scenario();
    scenario.nodes = 3;
    scenario.area_km2 = 0.03;
    scenario.duration_secs = 600.0;
    scenario.message_ttl_secs = 300.0;
    let (base_trace, base_rest) = observable_output(&scenario, Arm::Incentive, 101, 1);
    let (trace, rest) = observable_output(&scenario, Arm::Incentive, 101, 64);
    assert_eq!(trace, base_trace);
    assert_eq!(rest, base_rest);
}

/// One op against a [`TransferEngine`] (mirrors the chaos suite's
/// byte-conservation strategy; here the property under test is the
/// active-sender index).
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
    Cancel {
        from: u32,
        to: u32,
        msg: u64,
    },
}

fn arb_engine_op() -> impl Strategy<Value = EngineOp> {
    (
        0u8..4,
        0u32..5,
        0u32..5,
        0u64..6,
        1u64..150_000,
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
            2 => EngineOp::AbortBetween { a: from, b: to },
            _ => EngineOp::Cancel { from, to, msg },
        })
}

/// Brute-force reference: the set of senders with non-empty queues, read
/// straight off the queues the index is supposed to mirror.
fn scan_active(engine: &TransferEngine, nodes: u32) -> Vec<u32> {
    (0..nodes)
        .filter(|&n| engine.queue_len(NodeId(n)) > 0)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The batched active-sender index agrees with a brute-force scan of
    /// all queues after every op in an arbitrary interleaving of
    /// enqueue/step/abort/cancel, with and without checkpointing.
    #[test]
    fn active_index_matches_brute_force_scan(
        resume in prop::bool::ANY,
        ops in prop::collection::vec(arb_engine_op(), 1..60)
    ) {
        const NODES: u32 = 5;
        let mut engine = TransferEngine::new(NODES as usize, 10_000.0);
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
                    let _ = engine.step(
                        dt,
                        now,
                        // Some senders deterministically lose copies so the
                        // SourceGone drain path maintains the index too.
                        |n, m| (u64::from(n.0) + m.0) % 5 != 0,
                        |_, _| 10.0,
                    );
                    now += dt;
                }
                EngineOp::AbortBetween { a, b } => {
                    let _ = engine.abort_between(NodeId(a), NodeId(b), now);
                }
                EngineOp::Cancel { from, to, msg } => {
                    let _ = engine.cancel(NodeId(from), NodeId(to), MessageId(msg));
                }
            }
            let audit = engine.audit_active_index();
            prop_assert!(audit.is_ok(), "index audit failed: {:?}", audit);
            let scanned = scan_active(&engine, NODES);
            prop_assert_eq!(
                engine.active_senders(),
                scanned.len(),
                "index size diverged from scan {:?}",
                scanned
            );
        }
    }
}
