//! Golden-trace regression tests.
//!
//! A fully scripted two-node world (pinned waypoints, one scheduled
//! message, a minimal flooding protocol) renders its bounded [`TraceLog`]
//! to text; the exact sequence is pinned here as a golden string. Any
//! change to contact detection order, transfer timing, trace rendering —
//! or, in the chaotic variant, to the fault layer's RNG draw order —
//! shows up as a diff against these snapshots.

use dtn_sim::buffer::InsertOutcome;
use dtn_sim::geometry::{Area, Point};
use dtn_sim::kernel::{ScheduledMessage, SimApi, Simulation, SimulationBuilder};
use dtn_sim::message::{Keyword, MessageId, Priority, Quality};
use dtn_sim::mobility::ScriptedWaypoints;
use dtn_sim::protocol::{Protocol, Reception};
use dtn_sim::snapshot::fnv128_hex;
use dtn_sim::time::SimTime;
use dtn_sim::trace::TraceLog;
use dtn_sim::world::NodeId;
use dtn_workloads::prelude::*;

/// Minimal deterministic flooder: push anything the peer lacks, mark
/// arrivals at node 1 as delivered. No RNG, no internal state.
#[derive(Debug, Default)]
struct Flood;

impl Protocol for Flood {
    fn on_contact_up(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        for (from, to) in [(a, b), (b, a)] {
            for id in api.buffer(from).ids_sorted() {
                if !api.buffer(to).contains(id) {
                    api.send(from, to, id);
                }
            }
        }
    }

    fn on_transfer_complete(&mut self, api: &mut SimApi, r: &Reception<'_>) {
        if matches!(r.outcome, InsertOutcome::Stored { .. }) && r.transfer.to == NodeId(1) {
            api.mark_delivered(NodeId(1), r.transfer.message);
        }
    }
}

/// The scripted world: node 0 parked at (100, 100); node 1 walks in from
/// 300 m away, dwells in range, and walks back out. One 1 MB message
/// (4 s of airtime) is created before the contact.
fn scripted(chaos: Option<&str>) -> Simulation<Flood> {
    let mut builder = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
        .trace(TraceLog::bounded(256))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(
            100.0, 100.0,
        ))))
        .node(Box::new(ScriptedWaypoints::new(vec![
            (0.0, Point::new(400.0, 100.0)),
            (20.0, Point::new(400.0, 100.0)),
            (50.0, Point::new(150.0, 100.0)),
            (80.0, Point::new(150.0, 100.0)),
            (110.0, Point::new(400.0, 100.0)),
        ])))
        .message(ScheduledMessage {
            at: SimTime::from_secs(5.0),
            source: NodeId(0),
            size_bytes: 1_000_000,
            ttl_secs: 10_000.0,
            priority: Priority::High,
            quality: Quality::new(0.8),
            ground_truth: vec![Keyword(1)],
            source_tags: vec![Keyword(1)],
            expected_destinations: vec![NodeId(1)],
        });
    if let Some(spec) = chaos {
        builder = builder.faults(spec.parse().expect("valid spec"));
    }
    builder.check_invariants_every(10).build(Flood)
}

fn rendered(chaos: Option<&str>) -> String {
    let mut sim = scripted(chaos);
    let _ = sim.run_until(SimTime::from_secs(120.0));
    assert_eq!(sim.api().trace().dropped(), 0, "snapshot must be complete");
    sim.api().trace().render()
}

#[test]
fn clean_run_matches_the_golden_trace() {
    let golden = "\
00:00:05 created m0 @ n0
00:00:43 contact-up n0<->n1
00:00:46 transfer m0 n0->n1
00:00:46 delivered m0 -> n1
00:01:26 contact-down n0<->n1
";
    let actual = rendered(None);
    assert_eq!(rendered(None), actual, "stable across runs");
    assert_eq!(actual, golden, "actual:\n{actual}");
}

#[test]
fn chaotic_run_matches_the_golden_trace() {
    // A per-step link-cut probability of 1/6 flaps the contact while the
    // message is in flight: the snapshot pins the fault stream's draw
    // order alongside the kernel's event order.
    let spec = "cut=600,cutdown=10";
    let golden = "\
00:00:05 created m0 @ n0
00:00:43 contact-up n0<->n1
00:00:46 transfer m0 n0->n1
00:00:46 delivered m0 -> n1
00:00:48 link-cut n0<->n1
00:00:48 contact-down n0<->n1
00:00:58 contact-up n0<->n1
00:00:59 link-cut n0<->n1
00:00:59 contact-down n0<->n1
00:01:09 contact-up n0<->n1
00:01:10 link-cut n0<->n1
00:01:10 contact-down n0<->n1
00:01:20 contact-up n0<->n1
00:01:24 link-cut n0<->n1
00:01:24 contact-down n0<->n1
";
    let actual = rendered(Some(spec));
    assert_eq!(rendered(Some(spec)), actual, "stable across runs");
    assert_eq!(actual, golden, "actual:\n{actual}");
}

#[test]
fn history_of_extracts_the_message_slice() {
    let mut sim = scripted(None);
    let _ = sim.run_until(SimTime::from_secs(120.0));
    let history = sim.api().trace().history_of(MessageId(0));
    assert!(!history.is_empty());
    assert!(history
        .iter()
        .all(|e| !matches!(e.event, dtn_sim::trace::TraceEvent::ContactUp { .. })));
}

// ---------------------------------------------------------------------------
// Paper-arm golden equivalence.
//
// The two arms the paper evaluates (Incentive, ChitChat) are pinned as a
// fixture captured *before* the RouterBackend refactor: trace hash, full
// RunSummary, and the mechanism counters, across three seeds, clean and
// under chaos. Any refactor of the protocol hot path must reproduce these
// runs byte-for-byte, at any thread count. Re-bless deliberately with
//
//     DTN_BLESS=1 cargo test -p dtn-integration-tests --test golden_trace
// ---------------------------------------------------------------------------

const PAPER_GOLDEN_SEEDS: [u64; 3] = [101, 202, 303];
const PAPER_GOLDEN_CHAOS: &str = "cut=120,cutdown=15,loss=0.05";

/// A small world in the paper's economic regime, cheap enough to run
/// twelve times in a debug-mode test.
fn paper_golden_scenario(chaos: Option<&str>) -> Scenario {
    let mut s = reduced_scenario();
    s.nodes = 14;
    s.area_km2 = 0.14;
    s.duration_secs = 600.0;
    s.message_interval_secs = 30.0;
    s.message_ttl_secs = 450.0;
    s.selfish_fraction = 0.2;
    s.protocol.incentive.initial_tokens = 20.0;
    if let Some(spec) = chaos {
        s.chaos = Some(spec.parse().expect("valid chaos spec"));
    }
    let label = if chaos.is_some() { "chaos" } else { "clean" };
    s.named(format!("golden-paper-{label}"))
}

/// A [`serde_json::Value`] carried verbatim through the vendored serde
/// facade (which has no blanket `Serialize`/`Deserialize` for `Value`).
struct RawValue(serde_json::Value);

impl serde::Serialize for RawValue {
    fn to_value(&self) -> serde_json::Value {
        self.0.clone()
    }
}

impl serde::Deserialize for RawValue {
    fn from_value(v: &serde_json::Value) -> Result<Self, serde::Error> {
        Ok(RawValue(v.clone()))
    }
}

/// One golden record: everything the refactor must preserve about a run.
fn capture(scenario: &Scenario, arm: Arm, seed: u64) -> serde_json::Value {
    use serde::Serialize as _;
    let traced = Instrument {
        trace_capacity: Some(1_000_000),
        ..Instrument::default()
    };
    let (run, trace, _) = dtn_workloads::runner::run(&RunSpec::arm(scenario, arm, seed), &traced);
    let trace = trace.expect("trace requested");
    serde_json::Value::Map(vec![
        (
            "trace_fnv128".to_string(),
            serde_json::Value::Str(fnv128_hex(trace.as_bytes())),
        ),
        ("summary".to_string(), run.summary.to_value()),
        (
            "settlements".to_string(),
            run.protocol.settlements.to_value(),
        ),
        (
            "tokens_awarded".to_string(),
            run.protocol.tokens_awarded.to_value(),
        ),
        ("broke_nodes".to_string(), run.broke_nodes.to_value()),
    ])
}

fn golden_key(arm: Arm, chaos: Option<&str>, seed: u64) -> String {
    let regime = if chaos.is_some() { "chaos" } else { "clean" };
    format!("{}/{regime}/{seed}", arm.label())
}

fn golden_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("goldens/paper_arms.json")
}

fn load_goldens() -> serde_json::Value {
    let text = std::fs::read_to_string(golden_path())
        .expect("pinned fixture tests/goldens/paper_arms.json (bless with DTN_BLESS=1)");
    let raw: RawValue = serde_json::from_str(&text).expect("fixture parses");
    raw.0
}

#[test]
fn paper_arms_match_the_pre_refactor_goldens() {
    let mut actual: Vec<(String, serde_json::Value)> = Vec::new();
    for chaos in [None, Some(PAPER_GOLDEN_CHAOS)] {
        let scenario = paper_golden_scenario(chaos);
        for arm in Arm::BOTH {
            for seed in PAPER_GOLDEN_SEEDS {
                actual.push((golden_key(arm, chaos, seed), capture(&scenario, arm, seed)));
            }
        }
    }
    if std::env::var_os("DTN_BLESS").is_some() {
        let path = golden_path();
        std::fs::create_dir_all(path.parent().expect("goldens dir")).expect("mkdir");
        let text = serde_json::to_string_pretty(&RawValue(serde_json::Value::Map(actual)))
            .expect("fixture serializes");
        std::fs::write(&path, text).expect("fixture written");
        return;
    }
    let golden = load_goldens();
    let entries = golden.as_map().expect("fixture is an object");
    assert_eq!(
        actual.len(),
        entries.len(),
        "fixture covers exactly the captured grid"
    );
    for (key, value) in &actual {
        assert_eq!(
            Some(value),
            golden.get(key),
            "{key} diverged from the pre-refactor golden"
        );
    }
}

/// The kernel's determinism contract extends the fixture across thread
/// counts: a sharded run must still reproduce the single-threaded golden.
#[test]
fn paper_arm_goldens_hold_at_thread_count_two() {
    if std::env::var_os("DTN_BLESS").is_some() {
        return; // fixture being regenerated by the capture test
    }
    let golden = load_goldens();
    for arm in Arm::BOTH {
        let mut scenario = paper_golden_scenario(Some(PAPER_GOLDEN_CHAOS));
        scenario.threads = Some(2);
        let actual = capture(&scenario, arm, PAPER_GOLDEN_SEEDS[0]);
        let key = golden_key(arm, Some(PAPER_GOLDEN_CHAOS), PAPER_GOLDEN_SEEDS[0]);
        assert_eq!(
            Some(&actual),
            golden.get(&key),
            "{key} diverged at threads=2"
        );
    }
}
