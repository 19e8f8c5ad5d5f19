//! Integration tests for the kernel's protocol-facing API surface:
//! contact queries, energy accounting, sampling, and the less-travelled
//! SimApi paths.

use dtn_sim::buffer::InsertOutcome;
use dtn_sim::kernel::{ScheduledMessage, SimApi, SimulationBuilder};
use dtn_sim::prelude::*;

fn msg(at: f64, source: u32, size: u64) -> ScheduledMessage {
    ScheduledMessage {
        at: SimTime::from_secs(at),
        source: NodeId(source),
        size_bytes: size,
        ttl_secs: 100_000.0,
        priority: Priority::High,
        quality: Quality::new(0.8),
        ground_truth: vec![Keyword(1)],
        source_tags: vec![Keyword(1)],
        expected_destinations: vec![NodeId(1)],
    }
}

/// A protocol that records what it observes about contacts and energy.
#[derive(Debug, Default)]
struct Recorder {
    contact_seen: bool,
    up_since_checked: bool,
    energy_after_transfer: f64,
}

impl Protocol for Recorder {
    fn on_message_created(&mut self, api: &mut SimApi, node: NodeId, message: MessageId) {
        for peer in api.peers_of(node) {
            api.send(node, peer, message);
        }
    }

    fn on_contact_up(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        self.contact_seen = true;
        assert!(api.in_contact(a, b));
        assert!(api.contact_up_since(a, b).is_some());
        assert!(api.distance(a, b) <= api.radio().range_m);
        self.up_since_checked = true;
    }

    fn on_transfer_complete(&mut self, api: &mut SimApi, r: &Reception<'_>) {
        assert!(r.tx_joules > 0.0);
        assert!(r.rx_joules > 0.0);
        assert!(r.rx_joules < r.tx_joules, "path loss attenuates reception");
        self.energy_after_transfer = api.energy_usage(r.transfer.from).tx_joules;
        assert!(matches!(r.outcome, InsertOutcome::Stored { .. }));
    }
}

#[test]
fn contact_and_energy_queries_are_consistent() {
    let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 1)
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(80.0, 0.0))))
        .message(msg(1.0, 0, 1_000_000))
        .build(Recorder::default());
    let _ = sim.run_until(SimTime::from_secs(30.0));
    let recorder = sim.protocol();
    assert!(recorder.contact_seen);
    assert!(recorder.up_since_checked);
    assert!(recorder.energy_after_transfer > 0.0);
    // Kernel-side meter agrees with the reception report.
    assert!(sim.api().energy_usage(NodeId(1)).rx_joules > 0.0);
    assert_eq!(sim.api().energy_usage(NodeId(1)).tx_joules, 0.0);
}

/// Samples pushed by a protocol end up in the summary's named series.
#[derive(Debug, Default)]
struct Sampler;

impl Protocol for Sampler {
    fn on_tick(&mut self, api: &mut SimApi) {
        let t = api.now().as_secs();
        if (t as u64).is_multiple_of(10) {
            api.push_sample("tens", t);
        }
    }
}

#[test]
fn pushed_samples_appear_in_summary() {
    let mut sim = SimulationBuilder::new(Area::new(100.0, 100.0), 1)
        .node(Box::new(Stationary))
        .build(Sampler);
    let summary = sim.run_until(SimTime::from_secs(35.0));
    let series = &summary.series["tens"];
    assert_eq!(series.len(), 4, "t = 0, 10, 20, 30");
    assert!(series.windows(2).all(|w| w[1].0 - w[0].0 == 10.0));
}

#[test]
fn stillborn_message_counts_as_created_but_never_moves() {
    // A message bigger than the source's buffer is created (counted) but
    // cannot be stored, so it never transfers.
    let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 1)
        .buffer_capacity(1_000)
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(50.0, 0.0))))
        .message(msg(1.0, 0, 10_000))
        .build(NullProtocol);
    let summary = sim.run_until(SimTime::from_secs(30.0));
    assert_eq!(summary.created, 1);
    assert_eq!(summary.relays_completed, 0);
    assert!(sim.api().buffer(NodeId(0)).is_empty());
}

#[test]
fn node_ids_enumerate_the_world() {
    let sim = SimulationBuilder::new(Area::new(100.0, 100.0), 1)
        .nodes(5, || Box::new(Stationary))
        .build(NullProtocol);
    let ids: Vec<NodeId> = sim.api().node_ids().collect();
    assert_eq!(ids, (0..5).map(NodeId).collect::<Vec<_>>());
    assert_eq!(sim.api().node_count(), 5);
    assert_eq!(sim.api().area(), Area::new(100.0, 100.0));
}

#[test]
fn body_lookup_tracks_created_messages() {
    let mut sim = SimulationBuilder::new(Area::new(100.0, 100.0), 1)
        .node(Box::new(Stationary))
        .message(ScheduledMessage {
            expected_destinations: vec![],
            ..msg(3.0, 0, 500)
        })
        .build(NullProtocol);
    assert!(sim.api().body(MessageId(0)).is_none(), "not created yet");
    let _ = sim.run_until(SimTime::from_secs(10.0));
    let body = sim.api().body(MessageId(0)).expect("created");
    assert_eq!(body.source, NodeId(0));
    assert_eq!(body.size_bytes, 500);
    assert!(sim.api().body(MessageId(99)).is_none());
}

#[test]
fn mark_delivered_for_unknown_message_is_refused() {
    /// Tries to mark a never-created message as delivered.
    #[derive(Debug, Default)]
    struct Bogus {
        result: Option<bool>,
    }
    impl Protocol for Bogus {
        fn on_tick(&mut self, api: &mut SimApi) {
            if self.result.is_none() {
                self.result = Some(api.mark_delivered(NodeId(0), MessageId(77)));
            }
        }
    }
    let mut sim = SimulationBuilder::new(Area::new(100.0, 100.0), 1)
        .node(Box::new(Stationary))
        .build(Bogus::default());
    let summary = sim.run_until(SimTime::from_secs(5.0));
    assert_eq!(sim.protocol().result, Some(false));
    assert_eq!(summary.delivered_pairs, 0);
}

#[test]
fn send_queue_len_tracks_backlog() {
    /// Enqueues three big transfers at once and reads back the queue depth.
    #[derive(Debug, Default)]
    struct Backlogger {
        depth_seen: usize,
    }
    impl Protocol for Backlogger {
        fn on_message_created(&mut self, api: &mut SimApi, node: NodeId, message: MessageId) {
            for peer in api.peers_of(node) {
                api.send(node, peer, message);
            }
            self.depth_seen = self.depth_seen.max(api.send_queue_len(node));
        }
    }
    let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 5)
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(60.0, 0.0))))
        .messages((0..3u32).map(|k| msg(5.0, 0, 80_000_000 + u64::from(k)))) // same step
        .build(Backlogger::default());
    let _ = sim.run_until(SimTime::from_secs(20.0));
    assert!(
        sim.protocol().depth_seen >= 2,
        "transfers serialized behind one radio: {}",
        sim.protocol().depth_seen
    );
}

#[test]
fn trace_records_a_message_lifecycle() {
    let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 5)
        .trace(TraceLog::unbounded())
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(60.0, 0.0))))
        .message(ScheduledMessage {
            ttl_secs: 30.0,
            ..msg(5.0, 0, 1_000_000)
        })
        .build(Recorder::default());
    let _ = sim.run_until(SimTime::from_secs(200.0));
    let trace = sim.api().trace();
    assert!(trace.is_enabled());
    let history = trace.history_of(MessageId(0));
    let kinds: Vec<&str> = history
        .iter()
        .map(|e| match e.event {
            TraceEvent::Created { .. } => "created",
            TraceEvent::Transferred { .. } => "transferred",
            TraceEvent::Delivered { .. } => "delivered",
            TraceEvent::Expired { .. } => "expired",
            _ => "other",
        })
        .collect();
    // (Recorder never calls mark_delivered, so the lifecycle here is
    // create → transfer → TTL expiry on both copies.)
    assert!(kinds.starts_with(&["created", "transferred"]), "{kinds:?}");
    assert!(
        kinds.iter().filter(|k| **k == "expired").count() >= 1,
        "TTL purge traced"
    );
    // Contact events are present in the full log but not in per-message history.
    assert!(trace
        .entries()
        .iter()
        .any(|e| matches!(e.event, TraceEvent::ContactUp { .. })));
    assert!(!trace.render().is_empty());
}

#[test]
fn trace_disabled_by_default() {
    let mut sim = SimulationBuilder::new(Area::new(500.0, 500.0), 5)
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
        .node(Box::new(ScriptedWaypoints::pinned(Point::new(60.0, 0.0))))
        .message(msg(5.0, 0, 1_000_000))
        .build(Recorder::default());
    let _ = sim.run_until(SimTime::from_secs(60.0));
    assert!(!sim.api().trace().is_enabled());
    assert!(sim.api().trace().entries().is_empty());
}
