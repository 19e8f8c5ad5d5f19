//! The time-stepped simulation kernel.
//!
//! [`Simulation`] advances the world in fixed steps of [`STEP_SECS`] (1 s,
//! matching ONE's pedestrian scenarios): move nodes → detect contacts →
//! release scheduled messages → progress transfers → sweep TTLs → tick the
//! protocol.
//! All state a protocol may touch lives in [`SimApi`]; the protocol object
//! itself is a sibling field so Rust's split borrows let the two interact
//! without interior mutability.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::buffer::{Buffer, BufferState, DropPolicy, InsertOutcome};
use crate::contact::{ContactEvent, ContactKey, ContactTable};
use crate::energy::{EnergyMeter, EnergyMeterState, EnergyUse};
use crate::events::{ContactEngine, KernelMode};
use crate::faults::{
    FaultInjector, FaultInjectorState, FaultPlan, FaultStats, NodeFault, TransferFault,
};
use crate::geometry::{Area, Point};
use crate::invariants;
use crate::message::{Keyword, MessageBody, MessageCopy, MessageId, Priority, Quality};
use crate::metrics::{KernelCounters, MetricsRegistry, Phase, PhaseProfiler};
use crate::mobility::MobilityModel;
use crate::protocol::{Protocol, Reception};
use crate::radio::RadioConfig;
use crate::rng::{RngState, SimRng};
use crate::snapshot::SnapshotError;
use crate::stats::{RunSummary, StatsCollector, StatsState};
use crate::time::{SimDuration, SimTime};
use crate::trace::{TraceEvent, TraceLog, TraceLogState};
use crate::transfer::{
    AbortReason, AbortedTransfer, RecoveryPolicy, TransferEngine, TransferEngineState,
};
use crate::world::{cell_width, check_node_ids, NodeId, SpatialGrid};

/// Dedicated RNG stream for retry-backoff jitter ("RETRY" in ASCII), so
/// enabling recovery never perturbs the mobility/fault/protocol streams.
const RETRY_STREAM: u64 = 0x5245_5452_5900_0000;

/// The step length in seconds. Every world steps 1 s at a time, so the
/// clock is the step count in whole seconds.
pub const STEP_SECS: f64 = 1.0;

/// Steps between TTL sweeps: one sweep every 60 simulated seconds.
const TTL_SWEEP_STEPS: u64 = 60;

/// One aborted transfer waiting out its backoff in the retry queue.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PendingRetry {
    from: NodeId,
    to: NodeId,
    message: MessageId,
    /// Earliest release time (backoff expiry); release additionally waits
    /// for the pair to be back in contact.
    ready_at: SimTime,
}

/// Deterministic retry/backoff state for the recovery layer (see
/// [`RecoveryPolicy`]). All jitter comes from a dedicated [`SimRng`]
/// substream, so chaos runs with recovery enabled replay byte-for-byte.
#[derive(Debug)]
struct RetryScheduler {
    policy: RecoveryPolicy,
    rng: SimRng,
    /// Insertion-ordered queue: scan order is deterministic.
    queue: Vec<PendingRetry>,
    /// Retry attempts consumed per `(from, to, message)`.
    attempts: HashMap<(NodeId, NodeId, MessageId), u32>,
    /// Retransmissions consumed per `(from, to)` pair (budget guard).
    peer_spent: HashMap<(NodeId, NodeId), u32>,
    /// Corruption (`Injected`) redeliveries consumed per message.
    redeliveries: HashMap<MessageId, u32>,
}

impl RetryScheduler {
    fn new(policy: RecoveryPolicy, rng_root: &SimRng) -> Self {
        RetryScheduler {
            policy,
            rng: rng_root.stream(RETRY_STREAM),
            queue: Vec::new(),
            attempts: HashMap::new(),
            peer_spent: HashMap::new(),
            redeliveries: HashMap::new(),
        }
    }

    /// Decides whether `a` earns a retry and, if so, enqueues it with a
    /// jittered exponential backoff. Returns the attempt number scheduled.
    fn on_abort(&mut self, a: &AbortedTransfer, now: SimTime) -> Option<u32> {
        if self.policy.retry_max == 0 {
            return None;
        }
        match a.reason {
            // Source loss is final: there is nothing left to redeliver.
            AbortReason::SourceGone => return None,
            AbortReason::ContactDown => {}
            AbortReason::Injected => {
                if self
                    .redeliveries
                    .get(&a.message)
                    .is_some_and(|&n| n >= self.policy.redelivery_cap)
                {
                    return None;
                }
            }
        }
        let key = (a.from, a.to, a.message);
        if self
            .attempts
            .get(&key)
            .is_some_and(|&n| n >= self.policy.retry_max)
        {
            return None;
        }
        if self
            .peer_spent
            .get(&(a.from, a.to))
            .is_some_and(|&n| n >= self.policy.peer_budget)
        {
            return None;
        }
        if a.reason == AbortReason::Injected {
            *self.redeliveries.entry(a.message).or_insert(0) += 1;
        }
        *self.peer_spent.entry((a.from, a.to)).or_insert(0) += 1;
        let attempts = self.attempts.entry(key).or_insert(0);
        *attempts += 1;
        let attempt = *attempts;
        // base * 2^(attempt-1), jittered ±50%, capped. The exponent is
        // clamped so a huge retry_max cannot push the power to infinity.
        let exp = (attempt - 1).min(60);
        let raw = self.policy.backoff_base_secs * 2f64.powi(exp as i32);
        let delay = (raw * self.rng.uniform(0.5, 1.5)).min(self.policy.backoff_cap_secs);
        self.queue.push(PendingRetry {
            from: a.from,
            to: a.to,
            message: a.message,
            ready_at: now + SimDuration::from_secs(delay),
        });
        Some(attempt)
    }

    /// The scheduler's full dynamic state (policy excluded: it is build
    /// configuration). Maps are flattened into key-sorted vectors so the
    /// document is canonical for a given world.
    fn export_state(&self) -> RetrySchedulerState {
        let mut attempts: Vec<(NodeId, NodeId, MessageId, u32)> = self
            .attempts
            .iter()
            .map(|(&(from, to, msg), &n)| (from, to, msg, n))
            .collect();
        attempts.sort_unstable_by_key(|&(from, to, msg, _)| (from, to, msg));
        let mut peer_spent: Vec<(NodeId, NodeId, u32)> = self
            .peer_spent
            .iter()
            .map(|(&(from, to), &n)| (from, to, n))
            .collect();
        peer_spent.sort_unstable_by_key(|&(from, to, _)| (from, to));
        let mut redeliveries: Vec<(MessageId, u32)> =
            self.redeliveries.iter().map(|(&m, &n)| (m, n)).collect();
        redeliveries.sort_unstable_by_key(|&(m, _)| m);
        RetrySchedulerState {
            rng: self.rng.state(),
            queue: self.queue.clone(),
            attempts,
            peer_spent,
            redeliveries,
        }
    }

    /// Overwrites the scheduler's dynamic state from a snapshot. The policy
    /// is left as built — the restored run must be configured identically.
    fn import_state(&mut self, state: &RetrySchedulerState) {
        self.rng = SimRng::from_state(state.rng);
        self.queue = state.queue.clone();
        self.attempts = state
            .attempts
            .iter()
            .map(|&(from, to, msg, n)| ((from, to, msg), n))
            .collect();
        self.peer_spent = state
            .peer_spent
            .iter()
            .map(|&(from, to, n)| ((from, to), n))
            .collect();
        self.redeliveries = state.redeliveries.iter().copied().collect();
    }
}

/// Snapshot of the kernel retry scheduler's dynamic state: the retry
/// queue in insertion order, the budget counters as key-sorted vectors,
/// and the position of the retry RNG stream.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetrySchedulerState {
    rng: RngState,
    queue: Vec<PendingRetry>,
    attempts: Vec<(NodeId, NodeId, MessageId, u32)>,
    peer_spent: Vec<(NodeId, NodeId, u32)>,
    redeliveries: Vec<(MessageId, u32)>,
}

/// A message creation scheduled by the workload.
#[derive(Debug, Clone)]
pub struct ScheduledMessage {
    /// When the source creates it.
    pub at: SimTime,
    /// The creating node.
    pub source: NodeId,
    /// Payload size in bytes.
    pub size_bytes: u64,
    /// Time-to-live in seconds.
    pub ttl_secs: f64,
    /// Priority set by the source.
    pub priority: Priority,
    /// Intrinsic content quality.
    pub quality: Quality,
    /// Oracle content description (superset of honest tags).
    pub ground_truth: Vec<Keyword>,
    /// The tags the source annotates at creation.
    pub source_tags: Vec<Keyword>,
    /// The nodes the workload expects to be destinations (direct interest in
    /// a source tag at creation time); used for the delivery-ratio metric.
    pub expected_destinations: Vec<NodeId>,
}

/// All kernel-owned state a [`Protocol`] may interact with.
#[derive(Debug)]
pub struct SimApi {
    now: SimTime,
    area: Area,
    radio: RadioConfig,
    positions: Vec<Point>,
    buffers: Vec<Buffer>,
    bodies: HashMap<MessageId, Arc<MessageBody>>,
    contacts: ContactTable,
    transfers: TransferEngine,
    energy: EnergyMeter,
    stats: StatsCollector,
    trace: TraceLog,
    counters: KernelCounters,
    rng_root: SimRng,
}

impl SimApi {
    /// The current simulation time: `counters.steps × STEP_SECS`.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Sets the cached clock from the step count, the kernel's one clock.
    fn sync_clock(&mut self) {
        self.now = SimTime::from_secs(self.counters.steps as f64 * STEP_SECS);
    }

    /// Number of nodes in the world.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.positions.len() as u32).map(NodeId)
    }

    /// The world area.
    #[must_use]
    pub fn area(&self) -> Area {
        self.area
    }

    /// The shared radio configuration.
    #[must_use]
    pub fn radio(&self) -> RadioConfig {
        self.radio
    }

    /// Current position of `node`.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Point {
        self.positions[node.index()]
    }

    /// Distance in meters between two nodes right now.
    #[must_use]
    pub fn distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.positions[a.index()].distance_to(self.positions[b.index()])
    }

    /// Read access to `node`'s buffer.
    #[must_use]
    pub fn buffer(&self, node: NodeId) -> &Buffer {
        &self.buffers[node.index()]
    }

    /// Mutable access to `node`'s buffer (enrichment mutates copies in
    /// place; protocols may also drop copies they no longer want carried).
    #[must_use]
    pub fn buffer_mut(&mut self, node: NodeId) -> &mut Buffer {
        &mut self.buffers[node.index()]
    }

    /// The immutable body of `message`, if it was ever created.
    #[must_use]
    pub fn body(&self, message: MessageId) -> Option<&Arc<MessageBody>> {
        self.bodies.get(&message)
    }

    /// Peers currently in contact with `node`, sorted, as an owned list.
    ///
    /// Routers that mutate the world while walking the peer list (send,
    /// offer, …) need the owned copy; read-only callers should prefer
    /// [`SimApi::peers_of_slice`], which borrows straight from the
    /// adjacency index and never allocates.
    #[must_use]
    pub fn peers_of(&self, node: NodeId) -> Vec<NodeId> {
        self.contacts.peers_of_slice(node).to_vec()
    }

    /// Peers currently in contact with `node`, sorted, borrowed from the
    /// adjacency index. Zero-allocation: the hot path calls this on
    /// every route decision, so the per-call `Vec` of [`Self::peers_of`]
    /// was pure allocator churn.
    #[must_use]
    pub fn peers_of_slice(&self, node: NodeId) -> &[NodeId] {
        self.contacts.peers_of_slice(node)
    }

    /// Whether `a` and `b` are currently in contact.
    #[must_use]
    pub fn in_contact(&self, a: NodeId, b: NodeId) -> bool {
        self.contacts.is_up(a, b)
    }

    /// When the active contact between `a` and `b` came up.
    #[must_use]
    pub fn contact_up_since(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        self.contacts.up_since(a, b)
    }

    /// Queues a transfer of `message` from `from` to `to`.
    ///
    /// Returns `false` without queueing when the pair is not in contact,
    /// the sender does not hold the message, or an identical transfer is
    /// already pending.
    pub fn send(&mut self, from: NodeId, to: NodeId, message: MessageId) -> bool {
        if !self.contacts.is_up(from, to) {
            return false;
        }
        let Some(copy) = self.buffers[from.index()].get(message) else {
            return false;
        };
        // Expired copies awaiting the periodic sweep are already dead
        // letters — refuse to put them on the air.
        if copy.body.is_expired(self.now) {
            return false;
        }
        let bytes = copy.size_bytes();
        self.enqueue(from, to, message, bytes)
    }

    /// Queues `bytes` of `message` from `from` to `to` in the transfer
    /// engine, returning whether it was queued. An enqueue that picks up a
    /// saved checkpoint of the same size counts as one resumed transfer
    /// (checkpoints only exist under a recovery policy, so this path is
    /// inert otherwise).
    fn enqueue(&mut self, from: NodeId, to: NodeId, message: MessageId, bytes: u64) -> bool {
        let resumes = self
            .transfers
            .checkpoint_of(from, to, message)
            .is_some_and(|c| c.bytes_total == bytes);
        let queued = self.transfers.enqueue(from, to, message, bytes, self.now);
        if queued && resumes {
            self.counters.transfers_resumed += 1;
            self.trace
                .record(self.now, TraceEvent::TransferResumed { message, from, to });
        }
        queued
    }

    /// The run summary: the collector's delivery and traffic figures, plus
    /// the counts whose one ledger is elsewhere — creations and the kernel
    /// events in [`KernelCounters`], and the depleted nodes in the energy
    /// meter.
    fn summary(&self) -> RunSummary {
        let c = &self.counters;
        RunSummary {
            created: c.messages_created,
            transfers_aborted: c.transfers_aborted,
            transfers_retried: c.transfers_retried,
            transfers_resumed: c.transfers_resumed,
            transfers_abandoned: c.transfers_abandoned,
            ttl_expiries: c.ttl_expiries,
            depleted_nodes: self.depleted_count() as u64,
            ..self.stats.summarize()
        }
    }

    /// Whether a transfer of `message` from `from` to `to` is pending.
    #[must_use]
    pub fn is_sending(&self, from: NodeId, to: NodeId, message: MessageId) -> bool {
        self.transfers.is_pending(from, to, message)
    }

    /// Number of transfers queued at `from`.
    #[must_use]
    pub fn send_queue_len(&self, from: NodeId) -> usize {
        self.transfers.queue_len(from)
    }

    /// Byte-conservation audit of the transfer engine: every in-flight
    /// offset and saved checkpoint must lie within `[0, bytes_total]`.
    /// One line per violation; empty = healthy.
    #[must_use]
    pub fn transfer_byte_audit(&self) -> Vec<String> {
        self.transfers.audit_bytes()
    }

    /// Structural audit of the kernel's incremental indexes: contact
    /// adjacency lists vs the active contact set, and the transfer
    /// engine's active-sender index vs the queues themselves. One line
    /// per violation; empty = healthy.
    #[must_use]
    pub fn index_audit(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if let Err(e) = self.contacts.audit_adjacency() {
            violations.push(e);
        }
        if let Err(e) = self.transfers.audit_active_index() {
            violations.push(e);
        }
        violations
    }

    /// Number of live partial-transfer checkpoints (0 without resume).
    #[must_use]
    pub fn checkpoint_count(&self) -> usize {
        self.transfers.checkpoint_count()
    }

    /// Marks `message` as delivered to `node` (for the delivery-ratio
    /// metric). Only the first call per `(message, node)` counts; returns
    /// `true` when it did.
    pub fn mark_delivered(&mut self, node: NodeId, message: MessageId) -> bool {
        let Some(body) = self.bodies.get(&message) else {
            return false;
        };
        let created_at = body.created_at;
        let fresh = self
            .stats
            .record_delivered(message, node, created_at, self.now);
        if fresh {
            self.trace
                .record(self.now, TraceEvent::Delivered { message, to: node });
        }
        fresh
    }

    /// Whether `(message, node)` was already marked delivered.
    #[must_use]
    pub fn is_delivered(&self, node: NodeId, message: MessageId) -> bool {
        self.stats.is_delivered(message, node)
    }

    /// Number of `(message, node)` pairs marked delivered so far, expected
    /// and bonus alike: one per `true` returned by
    /// [`Self::mark_delivered`].
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.stats.delivered_count()
    }

    /// Appends a sample to a named time series in the run statistics.
    pub fn push_sample(&mut self, series: &str, value: f64) {
        let now = self.now;
        self.stats.push_sample(series, now, value);
    }

    /// Cumulative energy use of `node`.
    #[must_use]
    pub fn energy_usage(&self, node: NodeId) -> EnergyUse {
        self.energy.usage(node)
    }

    /// Joules left in `node`'s battery (`None` on ideal power).
    #[must_use]
    pub fn battery_remaining(&self, node: NodeId) -> Option<f64> {
        self.energy.remaining_joules(node)
    }

    /// The per-node battery budget (`None` on ideal power).
    #[must_use]
    pub fn battery_budget(&self) -> Option<f64> {
        self.energy.battery_joules()
    }

    /// Whether `node`'s battery is exhausted (always `false` on ideal
    /// power).
    #[must_use]
    pub fn is_depleted(&self, node: NodeId) -> bool {
        self.energy.is_depleted(node)
    }

    /// Number of battery-depleted nodes.
    #[must_use]
    pub fn depleted_count(&self) -> usize {
        self.energy.depleted_count()
    }

    /// The event trace (empty unless enabled at build time).
    #[must_use]
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Always-on kernel event tallies (see [`KernelCounters`]).
    #[must_use]
    pub fn counters(&self) -> &KernelCounters {
        &self.counters
    }
}

/// Builder for a [`Simulation`] ([C-BUILDER]).
///
/// ```
/// use dtn_sim::prelude::*;
///
/// let sim = SimulationBuilder::new(Area::new(500.0, 500.0), 42)
///     .node(Box::new(RandomWaypoint::pedestrian()))
///     .node(Box::new(RandomWaypoint::pedestrian()))
///     .build(NullProtocol);
/// assert_eq!(sim.api().node_count(), 2);
/// ```
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug)]
pub struct SimulationBuilder {
    area: Area,
    seed: u64,
    radio: RadioConfig,
    buffer_capacity: u64,
    drop_policy: DropPolicy,
    battery_joules: Option<f64>,
    trace: Option<TraceLog>,
    faults: Option<FaultPlan>,
    recovery: Option<RecoveryPolicy>,
    check_every: Option<u64>,
    profile: bool,
    threads: usize,
    kernel_mode: KernelMode,
    mobilities: Vec<Box<dyn MobilityModel>>,
    schedule: Vec<ScheduledMessage>,
}

impl SimulationBuilder {
    /// Starts a builder for a world covering `area`, seeded with `seed`.
    #[must_use]
    pub fn new(area: Area, seed: u64) -> Self {
        SimulationBuilder {
            area,
            seed,
            radio: RadioConfig::paper_default(),
            buffer_capacity: 250_000_000,
            drop_policy: DropPolicy::DropOldest,
            battery_joules: None,
            trace: None,
            faults: None,
            recovery: None,
            check_every: None,
            profile: false,
            threads: 1,
            kernel_mode: KernelMode::default(),
            mobilities: Vec::new(),
            schedule: Vec::new(),
        }
    }

    /// Selects the contact-detection core (default:
    /// [`KernelMode::EventDriven`], the predicted-crossing scheduler).
    /// Both modes produce byte-identical traces and summaries; the
    /// time-stepped sweep is the serial oracle the event core is checked
    /// against.
    #[must_use]
    pub fn kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }

    /// Sets how many OS threads may step the event core's contact
    /// regions. The core gets one region per worker, `min(n, host cores)`;
    /// mobility and the time-stepped sweep are serial. Default 1 = the
    /// serial path. Output is byte-identical at any value: the merged
    /// transitions are sorted, so the region count changes who tests each
    /// pair, never what is reported — see DESIGN.md §10 for the
    /// determinism argument.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    #[must_use]
    pub fn threads(mut self, n: usize) -> Self {
        assert!(n > 0, "threads must be at least 1");
        self.threads = n;
        self
    }

    /// Sets the radio configuration (default: Table 5.1).
    #[must_use]
    pub fn radio(mut self, radio: RadioConfig) -> Self {
        self.radio = radio;
        self
    }

    /// Sets per-node buffer capacity in bytes (default 250 MB, Table 5.1).
    #[must_use]
    pub fn buffer_capacity(mut self, bytes: u64) -> Self {
        self.buffer_capacity = bytes;
        self
    }

    /// Sets the buffer drop policy (default: drop oldest).
    #[must_use]
    pub fn drop_policy(mut self, policy: DropPolicy) -> Self {
        self.drop_policy = policy;
        self
    }

    /// Gives every node a finite battery of `joules` (default: ideal
    /// power). A depleted node's radio dies: its contacts drop and it
    /// neither sends nor receives for the rest of the run.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is not strictly positive.
    #[must_use]
    pub fn battery_joules(mut self, joules: f64) -> Self {
        assert!(joules > 0.0, "battery budget must be positive");
        self.battery_joules = Some(joules);
        self
    }

    /// Attaches an event trace (see [`crate::trace::TraceLog`]); disabled
    /// by default.
    #[must_use]
    pub fn trace(mut self, trace: TraceLog) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Attaches a deterministic fault-injection plan (see
    /// [`crate::faults`]); no faults by default. The plan draws from its
    /// own RNG substream, so the same `(scenario, seed, plan)` replays
    /// identically and a run without a plan is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FaultPlan::validate`].
    #[must_use]
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate() {
            panic!("invalid fault plan: {e}");
        }
        self.faults = Some(plan);
        self
    }

    /// Attaches a transfer-recovery policy (checkpoint/resume plus the
    /// deterministic retry queue, see [`RecoveryPolicy`]); disabled by
    /// default. An inert policy (no resume, no retries) is equivalent to
    /// not attaching one at all. Backoff jitter draws from its own RNG
    /// substream, so the same `(scenario, seed, policy)` replays
    /// identically and a run without a policy is untouched.
    ///
    /// # Panics
    ///
    /// Panics if the policy fails [`RecoveryPolicy::validate`].
    #[must_use]
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        if let Err(e) = policy.validate() {
            panic!("invalid recovery policy: {e}");
        }
        self.recovery = Some(policy);
        self
    }

    /// Audits kernel and protocol invariants at the end of every step whose
    /// count is a multiple of `steps` (and once at the end of the run),
    /// aborting with a replayable report on a breach (see
    /// [`crate::invariants`]); disabled by default.
    ///
    /// # Panics
    ///
    /// Panics if `steps` is zero.
    #[must_use]
    pub fn check_invariants_every(mut self, steps: u64) -> Self {
        assert!(steps > 0, "check cadence must be positive");
        self.check_every = Some(steps);
        self
    }

    /// Enables the wall-clock phase profiler (see
    /// [`crate::metrics::PhaseProfiler`]); disabled by default. Profiling
    /// never perturbs simulation state: a profiled run reproduces the
    /// unprofiled run's summary and trace byte for byte.
    #[must_use]
    pub fn profile(mut self, enabled: bool) -> Self {
        self.profile = enabled;
        self
    }

    /// Adds one node with the given mobility model, returning its id via
    /// the builder order (the first added node is `NodeId(0)`).
    #[must_use]
    pub fn node(mut self, mobility: Box<dyn MobilityModel>) -> Self {
        self.mobilities.push(mobility);
        self
    }

    /// Adds `n` nodes sharing a mobility-model factory.
    #[must_use]
    pub fn nodes(mut self, n: usize, mut factory: impl FnMut() -> Box<dyn MobilityModel>) -> Self {
        for _ in 0..n {
            self.mobilities.push(factory());
        }
        self
    }

    /// Schedules a message creation.
    #[must_use]
    pub fn message(mut self, message: ScheduledMessage) -> Self {
        self.schedule.push(message);
        self
    }

    /// Schedules many message creations.
    #[must_use]
    pub fn messages(mut self, messages: impl IntoIterator<Item = ScheduledMessage>) -> Self {
        self.schedule.extend(messages);
        self
    }

    /// Finishes the builder, wiring in the protocol.
    ///
    /// # Panics
    ///
    /// Panics if no nodes were added, or a scheduled message references a
    /// node outside the world.
    #[must_use]
    pub fn build<P: Protocol>(mut self, protocol: P) -> Simulation<P> {
        assert!(
            !self.mobilities.is_empty(),
            "a simulation needs at least one node"
        );
        let n = self.mobilities.len();
        for m in &self.schedule {
            assert!(
                m.source.index() < n,
                "scheduled message source {} outside world of {n} nodes",
                m.source
            );
        }
        // Deterministic order regardless of how the workload generated them.
        self.schedule.sort_by(|a, b| {
            a.at.partial_cmp(&b.at)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.source.cmp(&b.source))
        });
        let rng_root = SimRng::new(self.seed);
        let mut node_rngs: Vec<SimRng> = (0..n).map(|i| rng_root.node_stream(i)).collect();
        let positions: Vec<Point> = self
            .mobilities
            .iter_mut()
            .zip(node_rngs.iter_mut())
            .map(|(m, r)| m.initial_position(self.area, r))
            .collect();
        let core = match self.kernel_mode {
            KernelMode::EventDriven => {
                let vmax: Vec<f64> = self
                    .mobilities
                    .iter()
                    .map(|m| m.speed_cap_m_s().unwrap_or(f64::INFINITY))
                    .collect();
                // One region per worker: a region count above the host's
                // cores would only queue threads. Output does not depend
                // on it (the merged transitions are sorted).
                let workers = self
                    .threads
                    .min(std::thread::available_parallelism().map_or(1, usize::from));
                ContactCore::Events {
                    engine: Box::new(ContactEngine::new(
                        self.area,
                        self.radio.range_m,
                        STEP_SECS,
                        workers,
                        &positions,
                        vmax,
                    )),
                    downs: Vec::new(),
                    ups: Vec::new(),
                    freed: Vec::new(),
                }
            }
            KernelMode::TimeStepped => ContactCore::Sweep {
                grid: SpatialGrid::new(self.area, cell_width(self.area, self.radio.range_m, n)),
                in_range: Vec::new(),
            },
        };
        let faults = self
            .faults
            .map(|plan| FaultInjector::new(plan, &rng_root, n));
        let recovery = self.recovery.filter(|p| !p.is_inert());
        let retries = recovery.map(|p| RetryScheduler::new(p, &rng_root));
        let mut engine = TransferEngine::new(n, self.radio.link_speed_bps);
        if let Some(p) = &recovery {
            engine.set_resume(p.resume);
            engine.set_checkpoint_capacity(p.checkpoint_capacity);
        }
        Simulation {
            api: SimApi {
                now: SimTime::ZERO,
                area: self.area,
                radio: self.radio,
                positions,
                buffers: (0..n)
                    .map(|_| Buffer::new(self.buffer_capacity, self.drop_policy))
                    .collect(),
                bodies: HashMap::new(),
                contacts: ContactTable::new(),
                transfers: engine,
                energy: {
                    let mut meter = EnergyMeter::new(n, self.radio);
                    if let Some(j) = self.battery_joules {
                        meter.set_battery(j);
                    }
                    meter
                },
                stats: StatsCollector::new(),
                trace: self.trace.unwrap_or_default(),
                counters: KernelCounters::default(),
                rng_root,
            },
            protocol,
            mobilities: self.mobilities,
            node_rngs,
            threads: self.threads,
            core,
            schedule: self.schedule,
            finished: false,
            seed: self.seed,
            faults,
            retries,
            check_every: self.check_every,
            profiler: if self.profile {
                PhaseProfiler::enabled()
            } else {
                PhaseProfiler::disabled()
            },
        }
    }
}

/// Refuses a document that names a node outside a world of `n` nodes
/// anywhere the kernel keeps one.
fn check_world_node_ids(state: &WorldState, n: usize) -> Result<(), String> {
    let ids = state.bodies.iter().map(|b| b.source);
    check_node_ids("bodies.source", n, ids)?;
    for c in state.buffers.iter().flat_map(|b| &b.copies) {
        let ids = c
            .path
            .iter()
            .copied()
            .chain(c.annotations.iter().map(|a| a.annotator));
        check_node_ids("buffers.copies", n, ids)?;
    }
    let ids = state.contacts.iter().flat_map(|&(a, b, _)| [a, b]);
    check_node_ids("contacts", n, ids)?;
    let (t, st) = (&state.transfers, &state.stats);
    let ids = t.queues.iter().flatten().flat_map(|x| [x.from, x.to]);
    check_node_ids("transfers.queues", n, ids)?;
    let ids = t.checkpoints.iter().flat_map(|c| [c.from, c.to]);
    check_node_ids("transfers.checkpoints", n, ids)?;
    let ids = st.expected_dests.iter().flat_map(|(_, d)| d).copied();
    check_node_ids("stats.expected_dests", n, ids)?;
    let ids = st.delivered_pairs.iter().map(|&(_, d)| d);
    check_node_ids("stats.delivered_pairs", n, ids)?;
    if let Some(r) = &state.retries {
        let ids = r.queue.iter().flat_map(|p| [p.from, p.to]);
        check_node_ids("retries.queue", n, ids)?;
        let ids = r.attempts.iter().flat_map(|&(a, b, ..)| [a, b]);
        check_node_ids("retries.attempts", n, ids)?;
        let ids = r.peer_spent.iter().flat_map(|&(a, b, _)| [a, b]);
        check_node_ids("retries.peer_spent", n, ids)?;
    }
    if let Some(f) = &state.faults {
        let ids = f.blocked_until.iter().flat_map(|&(a, b, _)| [a, b]);
        check_node_ids("faults.blocked_until", n, ids)?;
    }
    Ok(())
}

/// Every mutable piece of a [`Simulation`], captured between steps.
///
/// This is the body of a snapshot file (see [`crate::snapshot`]). Static
/// configuration — the scenario, the radio, buffer capacities, the fault
/// *plan*, the recovery *policy*, thread count — is deliberately absent:
/// a restore rebuilds the world from the same scenario and then overwrites
/// only the dynamic state below, so the document stays small and a
/// configuration drift between save and restore surfaces as a
/// [`SnapshotError::Mismatch`] instead of silently steering the run.
///
/// Deliberately *not* captured, because it is derived or wall-clock-only:
/// the contact core's state (rebuilt from positions) and its region
/// count, scratch pair buffers, the phase profiler, the event core's
/// pair-check count, and every fact with an owner elsewhere in the
/// document. `counters.steps` is the kernel's one clock: the simulation
/// time is `steps × STEP_SECS`, and the TTL sweep and the invariant audit
/// fire on step-count multiples. The schedule cursor and next message id are
/// `counters.messages_created`, "started" is `counters.steps > 0`, and
/// the node count is `positions.len()`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldState {
    /// The scenario seed the world was built with (pairing check).
    pub seed: u64,
    /// The contact-detection core the capture ran on (pairing check).
    /// Both cores produce identical state, but a cross-mode resume would
    /// silently change the remainder's wall-clock profile, so it is
    /// rejected as a [`SnapshotError::Mismatch`] like any other
    /// configuration drift. Carried since format v2.
    pub kernel_mode: KernelMode,
    /// Whether [`Protocol::on_finish`] has fired.
    pub finished: bool,
    /// Node positions, in node order; one per node of the world.
    pub positions: Vec<Point>,
    /// The kernel's root RNG stream position.
    pub rng_root: RngState,
    /// Per-node mobility RNG stream positions, in node order.
    pub node_rngs: Vec<RngState>,
    /// Per-node mobility model state, in node order (opaque per model).
    pub mobility: Vec<serde::Value>,
    /// Per-node buffer contents, in node order.
    pub buffers: Vec<BufferState>,
    /// Every live message body, sorted by id. Buffered copies reference
    /// bodies by id, so each body is stored once however many copies exist.
    pub bodies: Vec<MessageBody>,
    /// Active contacts as `(smaller, larger, up_since)` triples, sorted.
    pub contacts: Vec<(NodeId, NodeId, SimTime)>,
    /// In-flight transfers and partial-byte checkpoints.
    pub transfers: TransferEngineState,
    /// Per-node energy spent and the depleted-node drain record.
    pub energy: EnergyMeterState,
    /// The metrics collector: expected sets, priorities, delivered pairs,
    /// traffic totals and series. Every delivery tally is derived from
    /// these, and every kernel event count lives in `counters`.
    pub stats: StatsState,
    /// The event trace ring.
    pub trace: TraceLogState,
    /// Kernel step counters: the one ledger of creations, contacts and
    /// transfer events, and the step count every clock derives from.
    pub counters: KernelCounters,
    /// Retry scheduler state; present iff recovery was configured.
    pub retries: Option<RetrySchedulerState>,
    /// Fault injector state; present iff a fault plan was attached.
    pub faults: Option<FaultInjectorState>,
    /// The protocol's own state document ([`Protocol::snapshot_state`]).
    pub protocol: serde::Value,
}

/// The contact-detection core of a world, the state it derives from node
/// positions, and its reusable pair buffers. Neither core's state is
/// serialized: the sweep rebuilds its grid every step, and a restore
/// rebuilds the engine from the restored positions.
#[derive(Debug)]
enum ContactCore {
    /// [`KernelMode::EventDriven`]: the predicted-crossing scheduler,
    /// which reports only the step's transitions.
    Events {
        engine: Box<ContactEngine>,
        /// This step's contacts going down, then sorted.
        downs: Vec<ContactKey>,
        /// This step's contacts coming up, then sorted.
        ups: Vec<ContactKey>,
        /// Pairs whose link cut expired this step.
        freed: Vec<ContactKey>,
    },
    /// [`KernelMode::TimeStepped`]: the serial grid sweep, rebuilt from
    /// positions every step, with its full in-range list — the oracle the
    /// event core is checked against.
    Sweep {
        grid: SpatialGrid,
        in_range: Vec<ContactKey>,
    },
}

impl ContactCore {
    fn mode(&self) -> KernelMode {
        match self {
            ContactCore::Events { .. } => KernelMode::EventDriven,
            ContactCore::Sweep { .. } => KernelMode::TimeStepped,
        }
    }
}

/// A running simulation: kernel state plus the protocol under test.
#[derive(Debug)]
pub struct Simulation<P> {
    api: SimApi,
    protocol: P,
    /// One mobility model per node, stepped serially in node order.
    mobilities: Vec<Box<dyn MobilityModel>>,
    node_rngs: Vec<SimRng>,
    /// Configured thread bound for the event core's region phase (≥ 1).
    threads: usize,
    /// The contact-detection core this world runs on, with its state.
    core: ContactCore,
    /// The workload, sorted by time. `counters.messages_created` is both
    /// the index of the next creation and the next message id.
    schedule: Vec<ScheduledMessage>,
    finished: bool,
    seed: u64,
    faults: Option<FaultInjector>,
    retries: Option<RetryScheduler>,
    /// Audit cadence in steps, when auditing is on.
    check_every: Option<u64>,
    profiler: PhaseProfiler,
}

impl<P: Protocol> Simulation<P> {
    /// Read access to the kernel state (positions, buffers, stats…).
    #[must_use]
    pub fn api(&self) -> &SimApi {
        &self.api
    }

    /// Read access to the protocol under test.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// The scenario seed this simulation was built with.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured thread bound for the event core's region phase, as
    /// passed to [`SimulationBuilder::threads`]. The core runs
    /// `min(threads, host cores)` regions.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Which contact-detection core this world runs on.
    #[must_use]
    pub fn kernel_mode(&self) -> KernelMode {
        self.core.mode()
    }

    /// The attached fault plan, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.faults.as_ref().map(FaultInjector::plan)
    }

    /// The attached (non-inert) recovery policy, if any.
    #[must_use]
    pub fn recovery_policy(&self) -> Option<&RecoveryPolicy> {
        self.retries.as_ref().map(|r| &r.policy)
    }

    /// Transfers currently waiting in the retry queue.
    #[must_use]
    pub fn retry_queue_len(&self) -> usize {
        self.retries.as_ref().map_or(0, |r| r.queue.len())
    }

    /// Counters of injected faults (`None` when no plan is attached).
    #[must_use]
    pub fn fault_stats(&self) -> Option<FaultStats> {
        self.faults.as_ref().map(FaultInjector::stats)
    }

    /// Number of cadenced invariant audits run so far, `steps / every`
    /// (`None` when checking is disabled).
    #[must_use]
    pub fn invariant_checks_run(&self) -> Option<u64> {
        self.check_every
            .map(|every| self.api.counters.steps / every)
    }

    /// The wall-clock phase profiler (disabled unless the builder's
    /// [`SimulationBuilder::profile`] was set).
    #[must_use]
    pub fn profiler(&self) -> &PhaseProfiler {
        &self.profiler
    }

    /// Exports kernel counters, peak buffer occupancy and — when profiling
    /// is on — phase timings and the per-step wall-clock histogram into a
    /// fresh [`MetricsRegistry`].
    ///
    /// On the event core, `kernel.pair_checks` counts the engine's exact
    /// pair distance tests (see [`ContactEngine::pair_checks`]). Like the
    /// phase timings it is not part of a snapshot: a restored world counts
    /// from zero.
    #[must_use]
    pub fn export_metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.api.counters.export(&mut registry);
        registry.add(
            "kernel.checkpoints_evicted",
            self.api.transfers.checkpoints_evicted(),
        );
        if let ContactCore::Events { engine, .. } = &self.core {
            registry.add("kernel.pair_checks", engine.pair_checks());
        }
        registry.set_gauge("kernel.threads", self.threads as f64);
        self.protocol.export_metrics(&mut registry);
        if self.profiler.is_enabled() {
            for t in self.profiler.timings() {
                registry.set_gauge(&format!("phase_secs.{}", t.phase), t.secs);
            }
            registry.set_gauge("profiler.total_secs", self.profiler.total_secs());
            registry.insert_histogram("step_wall_us", self.profiler.step_wall_us().clone());
        }
        registry
    }

    /// Runs the full invariant audit right now, regardless of cadence,
    /// returning the violations instead of panicking. Empty = healthy.
    #[must_use]
    pub fn check_invariants_now(&self) -> Vec<String> {
        let mut violations = invariants::kernel_invariants(&self.api);
        violations.extend(self.protocol.check_invariants(&self.api));
        violations
    }

    /// Captures every mutable piece of the world as a [`WorldState`].
    ///
    /// Snapshots are taken between steps (mid-step capture is impossible
    /// from outside: `step_once` borrows the world exclusively). A run
    /// restored from the captured state by [`Simulation::restore`] and
    /// stepped to the horizon produces the same trace and summary, byte
    /// for byte, as the uninterrupted run — at any thread count, because
    /// every piece of output-affecting state (including each RNG stream's
    /// exact position) is in the document.
    #[must_use]
    pub fn snapshot(&self) -> WorldState {
        let mut bodies: Vec<MessageBody> =
            self.api.bodies.values().map(|b| (**b).clone()).collect();
        bodies.sort_unstable_by_key(|b| b.id);
        WorldState {
            seed: self.seed,
            kernel_mode: self.kernel_mode(),
            finished: self.finished,
            positions: self.api.positions.clone(),
            rng_root: self.api.rng_root.state(),
            node_rngs: self.node_rngs.iter().map(SimRng::state).collect(),
            mobility: self.mobilities.iter().map(|m| m.snapshot_state()).collect(),
            buffers: self.api.buffers.iter().map(Buffer::export_state).collect(),
            bodies,
            contacts: self.api.contacts.export_state(),
            transfers: self.api.transfers.export_state(),
            energy: self.api.energy.export_state(),
            stats: self.api.stats.export_state(),
            trace: self.api.trace.export_state(),
            counters: self.api.counters,
            retries: self.retries.as_ref().map(RetryScheduler::export_state),
            faults: self.faults.as_ref().map(FaultInjector::export_state),
            protocol: self.protocol.snapshot_state(),
        }
    }

    /// Overwrites the world's dynamic state from a snapshot taken by
    /// [`Simulation::snapshot`] on an identically configured world (same
    /// scenario, same seed — rebuild through the same builder path first).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Mismatch`] when the document does not pair with
    /// this world: a different seed, node count or kernel mode, an
    /// optional subsystem (fault plan, recovery policy) present on only
    /// one side, a position outside the world area, a node id outside the
    /// world anywhere in the document (the error names the field), an
    /// open contact the restored world cannot explain (endpoints out of
    /// range at the restored positions, a crashed endpoint or a cut link),
    /// a `counters.contacts_down` other than `contacts_up` less the open
    /// contacts, a `counters.transfers_aborted` other than the sum of the
    /// per-reason abort counts, or per-module state that fails its own
    /// consistency checks.
    /// On error the world may be partially overwritten — rebuild it before
    /// using it again.
    pub fn restore(&mut self, state: &WorldState) -> Result<(), SnapshotError> {
        fn mismatch(detail: String) -> SnapshotError {
            SnapshotError::Mismatch { detail }
        }
        if state.seed != self.seed {
            return Err(mismatch(format!(
                "snapshot was taken under seed {}, this world is seeded {}",
                state.seed, self.seed
            )));
        }
        let nodes = self.api.positions.len();
        if state.kernel_mode != self.kernel_mode() {
            return Err(mismatch(format!(
                "snapshot was taken on the {} core, this world runs {}",
                state.kernel_mode,
                self.kernel_mode()
            )));
        }
        for (name, len) in [
            ("positions", state.positions.len()),
            ("node_rngs", state.node_rngs.len()),
            ("mobility", state.mobility.len()),
            ("buffers", state.buffers.len()),
        ] {
            if len != nodes {
                return Err(mismatch(format!(
                    "snapshot carries {len} {name} entries for {nodes} nodes"
                )));
            }
        }
        let area = self.api.area;
        if let Some(i) = state.positions.iter().position(|&p| !area.contains(p)) {
            let p = state.positions[i];
            return Err(mismatch(format!(
                "positions puts {} at ({:?}, {:?}), outside the world area",
                NodeId(i as u32),
                p.x,
                p.y
            )));
        }
        if state.counters.messages_created > self.schedule.len() as u64 {
            return Err(mismatch(format!(
                "snapshot consumed {} scheduled creations, this workload has {}",
                state.counters.messages_created,
                self.schedule.len()
            )));
        }
        for (name, in_snapshot, in_world) in [
            (
                "recovery policy",
                state.retries.is_some(),
                self.retries.is_some(),
            ),
            ("fault plan", state.faults.is_some(), self.faults.is_some()),
        ] {
            if in_snapshot != in_world {
                let (with, without) = if in_snapshot {
                    ("the snapshot", "this world")
                } else {
                    ("this world", "the snapshot")
                };
                return Err(mismatch(format!("{with} has a {name}, {without} does not")));
            }
        }
        check_world_node_ids(state, nodes).map_err(mismatch)?;
        // Every open contact must be one the restored world explains: a
        // pair of its nodes, in range at the restored positions (only the
        // mobility phase moves nodes, and it runs before contact
        // detection), with no crashed endpoint and no cut between them.
        // The event core closes contacts only through transitions, so it
        // would keep any other open forever.
        let range = self.api.radio.range_m;
        let faults = state.faults.as_ref();
        let cut: HashSet<(NodeId, NodeId)> = faults
            .map(|f| f.blocked_until.iter().map(|&(a, b, _)| (a, b)).collect())
            .unwrap_or_default();
        let crashed = |n: NodeId| {
            faults.is_some_and(|f| f.down_until.get(n.index()).is_some_and(Option::is_some))
        };
        for &(a, b, _) in &state.contacts {
            let pair = format!("open contact ({a}, {b})");
            let d_sq = state.positions[a.index()].distance_sq_to(state.positions[b.index()]);
            let in_range = d_sq <= range * range;
            if !in_range {
                return Err(mismatch(format!(
                    "{pair} is {:.3} m apart at the restored positions, beyond the {range} m range",
                    d_sq.sqrt()
                )));
            }
            if crashed(a) || crashed(b) {
                return Err(mismatch(format!("{pair} has a crashed endpoint")));
            }
            if cut.contains(&(a, b)) {
                return Err(mismatch(format!("{pair} is blocked by a link cut")));
            }
        }
        // Every contact that came up is either still open or went down, so
        // the down count is the up count less the open contacts.
        let (up, down, open) = (
            state.counters.contacts_up,
            state.counters.contacts_down,
            state.contacts.len() as u64,
        );
        if up.checked_sub(open) != Some(down) {
            return Err(mismatch(format!(
                "counters.contacts_down is {down}, but {up} contacts came up and {open} are open"
            )));
        }
        // The abort total is the sum of its per-reason counts.
        let c = &state.counters;
        let by_reason = [
            c.transfers_aborted_contact,
            c.transfers_aborted_source,
            c.transfers_aborted_injected,
        ]
        .into_iter()
        .try_fold(0u64, u64::checked_add);
        if by_reason != Some(c.transfers_aborted) {
            return Err(mismatch(format!(
                "counters.transfers_aborted is {}, but the per-reason aborts are {} contact, {} source and {} injected",
                c.transfers_aborted,
                c.transfers_aborted_contact,
                c.transfers_aborted_source,
                c.transfers_aborted_injected
            )));
        }
        let bodies: HashMap<MessageId, Arc<MessageBody>> = state
            .bodies
            .iter()
            .map(|b| (b.id, Arc::new(b.clone())))
            .collect();
        for (i, doc) in state.buffers.iter().enumerate() {
            self.api.buffers[i]
                .import_state(doc, &bodies)
                .map_err(|e| mismatch(format!("node {i} buffer: {e}")))?;
        }
        self.api.bodies = bodies;
        self.api
            .contacts
            .import_state(&state.contacts)
            .map_err(|e| mismatch(format!("contact table: {e}")))?;
        self.api
            .transfers
            .import_state(&state.transfers)
            .map_err(|e| mismatch(format!("transfer engine: {e}")))?;
        self.api
            .energy
            .import_state(&state.energy)
            .map_err(|e| mismatch(format!("energy meter: {e}")))?;
        self.api.stats.import_state(&state.stats);
        self.api
            .trace
            .import_state(&state.trace)
            .map_err(|e| mismatch(format!("trace log: {e}")))?;
        self.api.counters = state.counters;
        self.api.rng_root = SimRng::from_state(state.rng_root);
        for (rng, s) in self.node_rngs.iter_mut().zip(&state.node_rngs) {
            *rng = SimRng::from_state(*s);
        }
        for (i, (model, doc)) in self.mobilities.iter_mut().zip(&state.mobility).enumerate() {
            model
                .restore_state(doc)
                .map_err(|e| mismatch(format!("node {i} mobility: {e}")))?;
        }
        if let (Some(scheduler), Some(doc)) = (self.retries.as_mut(), state.retries.as_ref()) {
            scheduler.import_state(doc);
        }
        if let (Some(injector), Some(doc)) = (self.faults.as_mut(), state.faults.as_ref()) {
            injector
                .import_state(doc)
                .map_err(|e| mismatch(format!("fault injector: {e}")))?;
        }
        self.protocol
            .restore_state(&state.protocol)
            .map_err(|e| mismatch(format!("protocol: {e}")))?;
        self.api.positions.clone_from(&state.positions);
        self.api.sync_clock();
        self.finished = state.finished;
        // The predicted-crossing watch set is derived state: rebuilding a
        // fresh (superset) watch set from the restored positions yields
        // the same transitions as the uninterrupted engine.
        if let ContactCore::Events { engine, .. } = &mut self.core {
            engine.rebuild(&self.api.positions, state.counters.steps);
        }
        Ok(())
    }

    /// Panics with a replayable breach report if any invariant is violated.
    fn enforce_invariants(&self) {
        let violations = self.check_invariants_now();
        if violations.is_empty() {
            return;
        }
        let report = invariants::format_breach(
            self.seed,
            self.fault_plan(),
            self.api.now,
            &violations,
            &self.api.trace.render(),
        );
        panic!("{report}");
    }

    /// Advances the world by one step.
    pub fn step_once(&mut self) {
        // The protocol starts before the first step.
        if self.api.counters.steps == 0 {
            self.protocol.on_start(&mut self.api);
        }
        let dt = SimDuration::from_secs(STEP_SECS);
        let now = self.api.now;
        let step_scope = self.profiler.start();

        // 1. Movement, serial in node order. Each node's next position
        // depends only on its own mobility state and its own RNG stream
        // (`node_rngs[i]`).
        let scope = self.profiler.start();
        let area = self.api.area;
        for ((p, m), r) in self
            .api
            .positions
            .iter_mut()
            .zip(self.mobilities.iter_mut())
            .zip(self.node_rngs.iter_mut())
        {
            *p = m.step(*p, dt, area, r);
        }
        self.profiler.stop(Phase::Mobility, scope);

        // 1b. Node-level fault injection: crash/reboot churn and battery
        // spikes, in deterministic node order off the fault stream.
        let scope = self.profiler.start();
        let node_faults = self
            .faults
            .as_mut()
            .map(|inj| inj.step_nodes(now, dt))
            .unwrap_or_default();
        for &fault in &node_faults {
            match fault {
                NodeFault::Crashed { node, wipe } => {
                    self.api.trace.record(now, TraceEvent::NodeCrashed { node });
                    if wipe {
                        // Wiped buffers invalidate partial-transfer custody
                        // at both ends: a wiped receiver lost the partial
                        // bytes, a wiped sender has nothing left to resume.
                        self.api.transfers.clear_checkpoints_involving(node);
                        let ids = self.api.buffers[node.index()].ids_sorted();
                        for &id in &ids {
                            self.api.buffers[node.index()].remove(id);
                        }
                        if !ids.is_empty() {
                            if let Some(inj) = self.faults.as_mut() {
                                inj.note_wiped(ids.len());
                            }
                            self.protocol.on_evicted(&mut self.api, node, &ids);
                        }
                    }
                }
                NodeFault::Rebooted { node } => {
                    self.api
                        .trace
                        .record(now, TraceEvent::NodeRebooted { node });
                }
                NodeFault::BatterySpike { node, joules } => {
                    self.api.energy.drain(node, joules);
                    self.api
                        .trace
                        .record(now, TraceEvent::BatterySpike { node });
                }
            }
        }
        self.profiler.stop(Phase::FaultInjection, scope);

        // 2. Contact detection, link faults and the contact table update
        // (see `detect_contacts`).
        let scope = self.profiler.start();
        let events = self.detect_contacts(now, dt, &node_faults);
        self.profiler.stop(Phase::ContactDiff, scope);
        // 2c. Protocol exchange: contact transitions dispatch into the
        // protocol (directory/offer exchange, transfer aborts on teardown).
        let scope = self.profiler.start();
        for ev in events {
            match ev {
                ContactEvent::Down(key, _since) => {
                    self.api.counters.contacts_down += 1;
                    self.api
                        .trace
                        .record(now, TraceEvent::ContactDown { a: key.0, b: key.1 });
                    let aborted = self.api.transfers.abort_between(key.0, key.1, now);
                    for a in aborted {
                        self.api.counters.note_abort(a.reason);
                        self.api.trace.record(
                            now,
                            TraceEvent::Aborted {
                                message: a.message,
                                from: a.from,
                                to: a.to,
                            },
                        );
                        self.protocol.on_transfer_aborted(&mut self.api, &a);
                        self.schedule_retry(&a, now);
                    }
                    self.protocol.on_contact_down(&mut self.api, key.0, key.1);
                }
                ContactEvent::Up(key) => {
                    self.api.counters.contacts_up += 1;
                    self.api
                        .trace
                        .record(now, TraceEvent::ContactUp { a: key.0, b: key.1 });
                    self.protocol.on_contact_up(&mut self.api, key.0, key.1);
                }
            }
        }
        self.profiler.stop(Phase::ProtocolExchange, scope);

        // 3. Scheduled message creations due by `now`.
        let scope = self.profiler.start();
        while let Some(m) = self
            .schedule
            .get(self.api.counters.messages_created as usize)
            .filter(|m| m.at <= now)
        {
            self.create_message(m.clone());
        }
        self.profiler.stop(Phase::MessageCreation, scope);

        // 4. Transfers.
        let scope = self.profiler.start();
        // 4a. Recovery: release retries whose backoff expired back into the
        // engine (resuming from a checkpoint when one survives). Entries
        // whose pair is out of contact keep waiting; entries whose copy or
        // demand vanished are abandoned.
        self.release_due_retries(now);
        self.api.counters.transfer_batch_senders += self.api.transfers.active_senders() as u64;
        let (completed, aborted) = {
            let buffers = &self.api.buffers;
            let positions = &self.api.positions;
            self.api.transfers.step(
                dt,
                now,
                |from, msg| buffers[from.index()].contains(msg),
                |a, b| positions[a.index()].distance_to(positions[b.index()]),
            )
        };
        for a in aborted {
            self.api.counters.note_abort(a.reason);
            self.api.trace.record(
                now,
                TraceEvent::Aborted {
                    message: a.message,
                    from: a.from,
                    to: a.to,
                },
            );
            self.protocol.on_transfer_aborted(&mut self.api, &a);
        }
        for c in completed {
            self.api.counters.transfers_completed += 1;
            // 4b. Transfer-level fault injection: the payload of a
            // physically completed transfer may be lost or corrupted. The
            // airtime was genuinely spent, so both radios are still
            // charged, but nothing reaches the receiver's buffer and the
            // protocol sees an abort — a half-received copy must never be
            // paid for, rated, or counted as a relay.
            if let Some(kind) = self
                .faults
                .as_mut()
                .and_then(FaultInjector::roll_transfer_fault)
            {
                let _ = self
                    .api
                    .energy
                    .charge_transfer(c.from, c.to, c.airtime, c.distance_m);
                self.api.counters.note_abort(AbortReason::Injected);
                let event = match kind {
                    TransferFault::Loss => TraceEvent::TransferLost {
                        message: c.message,
                        from: c.from,
                        to: c.to,
                    },
                    TransferFault::Corruption => TraceEvent::TransferCorrupted {
                        message: c.message,
                        from: c.from,
                        to: c.to,
                    },
                };
                self.api.trace.record(now, event);
                let aborted = AbortedTransfer {
                    from: c.from,
                    to: c.to,
                    message: c.message,
                    bytes_sent: c.bytes as f64,
                    reason: AbortReason::Injected,
                };
                self.protocol.on_transfer_aborted(&mut self.api, &aborted);
                // A destroyed payload earns a redelivery (NACK semantics),
                // capped per message so a cursed link degrades gracefully.
                self.schedule_retry(&aborted, now);
                continue;
            }
            // Energy was genuinely spent either way; traffic counts only
            // transfers whose payload survived to completion.
            let (tx_j, rx_j) =
                self.api
                    .energy
                    .charge_transfer(c.from, c.to, c.airtime, c.distance_m);
            // Build the receiver's copy from the sender's current copy.
            let arriving = self.api.buffers[c.from.index()]
                .get(c.message)
                .map(|copy| copy.arrived_at(c.to, self.api.now));
            if arriving.is_some() {
                self.api.stats.record_relay(c.bytes);
            } else {
                // The sender lost the copy within this very step (an
                // incoming insert evicted it before this completion was
                // processed): the payload is unusable — an abort, not a
                // relay.
                self.api.counters.note_abort(AbortReason::SourceGone);
            }
            let outcome = match arriving {
                Some(copy) => self.api.buffers[c.to.index()].insert(copy),
                None => InsertOutcome::Rejected(crate::buffer::RejectReason::NoRoom),
            };
            let evicted_ids: Vec<MessageId> = match &outcome {
                InsertOutcome::Stored { evicted } => evicted.clone(),
                InsertOutcome::Rejected(_) => Vec::new(),
            };
            if !evicted_ids.is_empty() {
                self.api.stats.record_evictions(evicted_ids.len());
            }
            self.api.trace.record(
                now,
                TraceEvent::Transferred {
                    message: c.message,
                    from: c.from,
                    to: c.to,
                    stored: matches!(outcome, InsertOutcome::Stored { .. }),
                },
            );
            if !evicted_ids.is_empty() {
                self.protocol.on_evicted(&mut self.api, c.to, &evicted_ids);
            }
            let reception = Reception {
                transfer: &c,
                outcome: &outcome,
                tx_joules: tx_j,
                rx_joules: rx_j,
            };
            self.protocol
                .on_transfer_complete(&mut self.api, &reception);
        }
        self.profiler.stop(Phase::Transfers, scope);

        // 5. Periodic TTL sweep.
        let scope = self.profiler.start();
        let k = self.api.counters.steps;
        if k > 0 && k.is_multiple_of(TTL_SWEEP_STEPS) {
            for i in 0..self.api.buffers.len() {
                let expired = self.api.buffers[i].sweep_expired(now);
                if !expired.is_empty() {
                    self.api.counters.ttl_expiries += expired.len() as u64;
                    for &m in &expired {
                        self.api.trace.record(
                            now,
                            TraceEvent::Expired {
                                message: m,
                                at: NodeId(i as u32),
                            },
                        );
                    }
                    self.protocol
                        .on_expired(&mut self.api, NodeId(i as u32), &expired);
                }
            }
        }
        self.profiler.stop(Phase::TtlSweep, scope);

        // 6. Protocol housekeeping (settlement, rating decay, sampling),
        // then advance the clock.
        let scope = self.profiler.start();
        self.protocol.on_tick(&mut self.api);
        self.profiler.stop(Phase::SettlementTick, scope);

        // 7. Cadenced invariant audit, while the step's state is fresh: at
        // the end of every step that brings the count to a multiple of the
        // cadence.
        let scope = self.profiler.start();
        if self
            .check_every
            .is_some_and(|every| (k + 1).is_multiple_of(every))
        {
            self.enforce_invariants();
        }
        self.profiler.stop(Phase::InvariantCheck, scope);

        self.api.counters.steps += 1;
        if self.profiler.is_enabled() {
            // Peak buffer occupancy is an O(nodes) scan, so it is gated on
            // the profiler rather than charged to every unprofiled run.
            let used: u64 = self.api.buffers.iter().map(Buffer::used_bytes).sum();
            if used > self.api.counters.peak_buffer_bytes {
                self.api.counters.peak_buffer_bytes = used;
            }
        }
        self.profiler.stop_step(step_scope);
        self.api.sync_clock();
    }

    /// Stage 2 of a step: finds the step's contact transitions, filters
    /// them through dead radios and the fault plan, and applies them to the
    /// contact table. Returns the contact events: downs, then ups, each
    /// sorted by pair. Both cores return the same events and draw the same
    /// fault rolls (the kernel-mode suite checks this byte for byte).
    fn detect_contacts(
        &mut self,
        now: SimTime,
        dt: SimDuration,
        node_faults: &[NodeFault],
    ) -> Vec<ContactEvent> {
        let api = &mut self.api;
        let (events, cuts) = match &mut self.core {
            // The oracle: the full in-range list, minus depleted radios,
            // crashed nodes and cut links, diffed against the table.
            ContactCore::Sweep { grid, in_range } => {
                in_range.clear();
                grid.rebuild(&api.positions);
                let energy = &api.energy;
                grid.for_each_pair_within(&api.positions, api.radio.range_m, |a, b| {
                    // A depleted radio forms no links (finite-battery model).
                    if !energy.is_depleted(a) && !energy.is_depleted(b) {
                        in_range.push(ContactKey(a, b));
                    }
                });
                in_range.sort_unstable();
                let cuts = match self.faults.as_mut() {
                    Some(inj) => {
                        let contacts = &api.contacts;
                        inj.veto_links(in_range, |k| contacts.is_up(k.0, k.1), now, dt)
                    }
                    None => Vec::new(),
                };
                (api.contacts.diff(in_range, now), cuts)
            }
            // The event core: the engine's geometric transitions, plus the
            // transitions the dead-radio rule and the fault plan cause.
            ContactCore::Events {
                engine,
                downs,
                ups,
                freed,
            } => {
                let positions = &api.positions;
                let contacts = &api.contacts;
                let open_pairs = |node: NodeId| {
                    contacts
                        .peers_of_slice(node)
                        .iter()
                        .map(move |&peer| ContactKey::new(node, peer))
                };
                engine.collect(api.counters.steps, positions, downs, ups);
                // Leaving range closes only an open contact: a pair kept
                // apart by a dead radio, a crash or a cut has none.
                downs.retain(|k| contacts.is_up(k.0, k.1));
                // A radio dies once. Its open contacts close on the first
                // step it is seen depleted, and its ups are dropped below.
                let batteries = api.energy.battery_joules().is_some();
                if batteries {
                    for node in api.energy.take_depleted() {
                        downs.extend(open_pairs(node));
                    }
                }
                if let Some(inj) = self.faults.as_mut() {
                    // A crash closes the node's contacts. A reboot, or a
                    // cut that expires, lets pairs still in range come back.
                    for fault in node_faults {
                        match *fault {
                            NodeFault::Crashed { node, .. } => downs.extend(open_pairs(node)),
                            NodeFault::Rebooted { node } => {
                                engine.pairs_in_range(node, positions, ups);
                            }
                            NodeFault::BatterySpike { .. } => {}
                        }
                    }
                    freed.clear();
                    inj.expire_cuts(now, freed);
                    ups.extend(freed.iter().filter(|&&k| engine.in_range(k, positions)));
                    ups.retain(|&k| inj.admits(k));
                }
                if batteries {
                    let energy = &api.energy;
                    ups.retain(|k| !energy.is_depleted(k.0) && !energy.is_depleted(k.1));
                }
                downs.sort_unstable();
                downs.dedup();
                ups.sort_unstable();
                ups.dedup();
                // Every contact that stays up draws its cut roll, as in
                // `veto_links`.
                let cuts = match self.faults.as_mut() {
                    Some(inj) => inj.roll_cuts(contacts, downs, now, dt),
                    None => Vec::new(),
                };
                if !cuts.is_empty() {
                    downs.extend_from_slice(&cuts);
                    downs.sort_unstable();
                }
                (api.contacts.apply(downs, ups, now), cuts)
            }
        };
        for key in cuts {
            api.trace
                .record(now, TraceEvent::LinkCut { a: key.0, b: key.1 });
        }
        api.counters.contact_pairs += api.contacts.active_count() as u64;
        events
    }

    /// Offers an aborted transfer to the retry scheduler; records the trace
    /// event when a retry is actually scheduled. No-op without a policy.
    fn schedule_retry(&mut self, a: &AbortedTransfer, now: SimTime) {
        let Some(rs) = self.retries.as_mut() else {
            return;
        };
        if let Some(attempt) = rs.on_abort(a, now) {
            self.api.counters.transfers_retried += 1;
            self.api.trace.record(
                now,
                TraceEvent::RetryScheduled {
                    message: a.message,
                    from: a.from,
                    to: a.to,
                    attempt,
                },
            );
        }
    }

    /// Releases due retries back into the transfer engine (recovery phase
    /// 4a). A retry whose backoff expired waits further for its pair to be
    /// back in contact; it is abandoned once the sender's copy is gone or
    /// the receiver no longer needs the message.
    fn release_due_retries(&mut self, now: SimTime) {
        let Some(rs) = self.retries.as_mut() else {
            return;
        };
        let mut keep = Vec::with_capacity(rs.queue.len());
        for r in rs.queue.drain(..) {
            if r.ready_at > now {
                keep.push(r);
                continue;
            }
            let copy_alive = self.api.buffers[r.from.index()]
                .get(r.message)
                .is_some_and(|c| !c.body.is_expired(now));
            let demand_gone = self.api.buffers[r.to.index()].contains(r.message)
                || self.api.stats.is_delivered(r.message, r.to);
            if !copy_alive || demand_gone {
                self.api.counters.transfers_abandoned += 1;
                self.api.trace.record(
                    now,
                    TraceEvent::RetryAbandoned {
                        message: r.message,
                        from: r.from,
                        to: r.to,
                    },
                );
                continue;
            }
            if !self.api.contacts.is_up(r.from, r.to) {
                // Backoff expired but the pair is apart: the retry fires at
                // the next contact (DTN semantics), bounded by message TTL.
                keep.push(r);
                continue;
            }
            let bytes = self.api.buffers[r.from.index()]
                .get(r.message)
                .map_or(0, MessageCopy::size_bytes);
            self.api.enqueue(r.from, r.to, r.message, bytes);
        }
        rs.queue = keep;
    }

    fn create_message(&mut self, m: ScheduledMessage) {
        let id = MessageId(self.api.counters.messages_created);
        self.api.counters.messages_created += 1;
        let body = Arc::new(MessageBody {
            id,
            source: m.source,
            created_at: self.api.now,
            size_bytes: m.size_bytes,
            ttl_secs: m.ttl_secs,
            priority: m.priority,
            quality: m.quality,
            ground_truth: m.ground_truth,
        });
        self.api.bodies.insert(id, Arc::clone(&body));
        self.api
            .stats
            .record_created(id, m.priority, m.expected_destinations.iter().copied());
        self.api.trace.record(
            self.api.now,
            TraceEvent::Created {
                message: id,
                source: m.source,
            },
        );
        let copy = MessageCopy::original(body, m.source_tags, self.api.now);
        match self.api.buffers[m.source.index()].insert(copy) {
            InsertOutcome::Stored { evicted } => {
                if !evicted.is_empty() {
                    self.api.stats.record_evictions(evicted.len());
                    self.protocol.on_evicted(&mut self.api, m.source, &evicted);
                }
                self.protocol
                    .on_message_created(&mut self.api, m.source, id);
            }
            InsertOutcome::Rejected(_) => {
                // Source buffer full of fresher content; the message is
                // stillborn but still counts as created (it was produced).
            }
        }
    }

    /// Runs until `until`, then finalizes and returns the run summary.
    ///
    /// Finalization ([`Protocol::on_finish`]) runs at most once per
    /// simulation, however many times `run_until`/[`Simulation::finish`]
    /// are called afterwards — repeated finalization would duplicate
    /// final-sample side effects in the summary's series.
    pub fn run_until(&mut self, until: SimTime) -> RunSummary {
        while self.api.now < until {
            self.step_once();
        }
        if !self.finished {
            self.finished = true;
            self.protocol.on_finish(&mut self.api);
            if self.check_every.is_some() {
                self.enforce_invariants();
            }
        }
        self.api.summary()
    }

    /// Consumes the simulation, returning the protocol (for post-run
    /// inspection of ledgers, reputation tables, …) and the summary.
    pub fn finish(mut self) -> (P, RunSummary) {
        if !self.finished {
            self.protocol.on_finish(&mut self.api);
        }
        let summary = self.api.summary();
        (self.protocol, summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mobility::{ScriptedWaypoints, Stationary};
    use crate::protocol::NullProtocol;

    fn msg(at: f64, source: u32) -> ScheduledMessage {
        ScheduledMessage {
            at: SimTime::from_secs(at),
            source: NodeId(source),
            size_bytes: 1000,
            ttl_secs: 10_000.0,
            priority: Priority::High,
            quality: Quality::new(0.8),
            ground_truth: vec![Keyword(1)],
            source_tags: vec![Keyword(1)],
            expected_destinations: vec![NodeId(1)],
        }
    }

    /// An epidemic-ish protocol used to exercise the kernel end to end:
    /// on contact, push everything the peer does not have; mark everything
    /// received at node 1 as delivered.
    #[derive(Debug, Default)]
    struct PushAll;

    impl Protocol for PushAll {
        fn on_contact_up(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
            for (from, to) in [(a, b), (b, a)] {
                for id in api.buffer(from).ids_sorted() {
                    if !api.buffer(to).contains(id) {
                        api.send(from, to, id);
                    }
                }
            }
        }

        fn on_message_created(&mut self, api: &mut SimApi, node: NodeId, message: MessageId) {
            for peer in api.peers_of(node) {
                api.send(node, peer, message);
            }
        }

        fn on_transfer_complete(&mut self, api: &mut SimApi, r: &Reception<'_>) {
            if matches!(r.outcome, InsertOutcome::Stored { .. }) && r.transfer.to == NodeId(1) {
                api.mark_delivered(NodeId(1), r.transfer.message);
            }
            // Keep flooding: offer the fresh copy to the receiver's peers.
            let to = r.transfer.to;
            let msg = r.transfer.message;
            for peer in api.peers_of(to) {
                if !api.buffer(peer).contains(msg) {
                    api.send(to, peer, msg);
                }
            }
        }
    }

    /// A protocol that offers a message exactly once, at creation time.
    /// Recovery from a broken transfer must come from the kernel's retry
    /// queue — the protocol never re-offers on later contacts.
    #[derive(Debug, Default)]
    struct SendOnce;

    impl Protocol for SendOnce {
        fn on_message_created(&mut self, api: &mut SimApi, node: NodeId, message: MessageId) {
            for peer in api.peers_of(node) {
                api.send(node, peer, message);
            }
        }

        fn on_transfer_complete(&mut self, api: &mut SimApi, r: &Reception<'_>) {
            if matches!(r.outcome, InsertOutcome::Stored { .. }) && r.transfer.to == NodeId(1) {
                api.mark_delivered(NodeId(1), r.transfer.message);
            }
        }
    }

    /// Node 1 sits in range, walks away mid-transfer, and comes back.
    fn walkabout() -> ScriptedWaypoints {
        ScriptedWaypoints::new(vec![
            (0.0, Point::new(150.0, 100.0)),
            (10.0, Point::new(150.0, 100.0)),
            (30.0, Point::new(900.0, 900.0)),
            (50.0, Point::new(900.0, 900.0)),
            (70.0, Point::new(150.0, 100.0)),
            (300.0, Point::new(150.0, 100.0)),
        ])
    }

    fn walkabout_sim(recovery: Option<RecoveryPolicy>) -> Simulation<SendOnce> {
        let mut b = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                100.0, 100.0,
            ))))
            .node(Box::new(walkabout()))
            .message(ScheduledMessage {
                size_bytes: 6_000_000, // 24 s of airtime: cannot finish before the break
                ..msg(1.0, 0)
            })
            .trace(TraceLog::unbounded())
            .check_invariants_every(1);
        if let Some(p) = recovery {
            b = b.recovery(p);
        }
        b.build(SendOnce)
    }

    #[test]
    fn retry_resumes_checkpointed_transfer_after_contact_returns() {
        let policy = RecoveryPolicy {
            backoff_base_secs: 2.0,
            ..RecoveryPolicy::default()
        };
        let mut sim = walkabout_sim(Some(policy));
        let summary = sim.run_until(SimTime::from_secs(250.0));
        assert_eq!(
            summary.delivered_pairs, 1,
            "the retried transfer must finish once the pair reconnects"
        );
        let c = sim.api().counters();
        assert!(c.transfers_aborted_contact >= 1, "the break aborts");
        assert!(c.transfers_retried >= 1, "the abort earns a retry");
        assert!(c.transfers_resumed >= 1, "the retry resumes the checkpoint");
        assert_eq!(summary.transfers_retried, c.transfers_retried);
        assert_eq!(summary.transfers_resumed, c.transfers_resumed);
        assert_eq!(sim.retry_queue_len(), 0, "no retries left pending");
        let rendered = sim.api().trace().render();
        assert!(rendered.contains("retry #1"));
        assert!(rendered.contains("resume"));

        // Without recovery the one-shot offer is lost with the contact.
        let baseline = walkabout_sim(None).run_until(SimTime::from_secs(250.0));
        assert_eq!(baseline.delivered_pairs, 0);
        assert!(
            summary.delivered_pairs > baseline.delivered_pairs,
            "recovery must strictly improve delivery here"
        );
    }

    #[test]
    fn inert_recovery_policy_changes_nothing() {
        let run = |recovery: Option<RecoveryPolicy>| {
            let mut b = SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .trace(TraceLog::unbounded());
            if let Some(p) = recovery {
                b = b.recovery(p);
            }
            let mut sim = b.build(PushAll);
            let summary = sim.run_until(SimTime::from_secs(1800.0));
            (summary, sim.api().trace().render())
        };
        let plain = run(None);
        let inert = run(Some(RecoveryPolicy::disabled()));
        assert_eq!(plain, inert, "a disabled policy must not perturb the run");
    }

    #[test]
    fn chaotic_recovery_runs_replay_identically() {
        let plan: FaultPlan = "crash=6,crashdown=60,wipe,cut=20,cutdown=15,loss=0.2"
            .parse()
            .unwrap();
        let build = || {
            SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .faults(plan)
                .recovery(RecoveryPolicy::default())
                .check_invariants_every(1)
                .build(PushAll)
        };
        let mut sa = build();
        let a = sa.run_until(SimTime::from_secs(1800.0));
        let mut sb = build();
        let b = sb.run_until(SimTime::from_secs(1800.0));
        assert_eq!(a, b, "same (seed, plan, policy) must replay byte-for-byte");
        assert_eq!(sa.fault_stats(), sb.fault_stats());
        assert!(
            sa.api().counters().transfers_retried > 0,
            "loss chaos must exercise the retry path"
        );
        assert!(sa.invariant_checks_run().unwrap() > 0);
    }

    #[test]
    fn snapshot_restore_resumes_byte_identically() {
        let plan: FaultPlan = "crash=6,crashdown=60,wipe,cut=20,cutdown=15,loss=0.2"
            .parse()
            .unwrap();
        let build = || {
            SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .faults(plan)
                .recovery(RecoveryPolicy::default())
                .trace(TraceLog::unbounded())
                .check_invariants_every(7)
                .build(PushAll)
        };
        let mut uninterrupted = build();
        let golden = uninterrupted.run_until(SimTime::from_secs(1800.0));

        // "Crash" a second copy of the run mid-flight and capture the world.
        let mut killed = build();
        while killed.api().now() < SimTime::from_secs(600.0) {
            killed.step_once();
        }
        let world = killed.snapshot();
        drop(killed);

        // Push the document through the on-disk container so the test also
        // proves serde fidelity, not just in-memory cloning.
        let dir = std::env::temp_dir().join(format!("dtn-kernel-snap-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("world.snap");
        crate::snapshot::save(&world, &path).expect("save snapshot");
        let reloaded: WorldState = crate::snapshot::load(&path).expect("load snapshot");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(world, reloaded, "the container round-trips the world");

        let mut resumed = build();
        resumed
            .restore(&reloaded)
            .expect("restore into a fresh build");
        let summary = resumed.run_until(SimTime::from_secs(1800.0));
        assert_eq!(summary, golden, "resumed summary differs from golden");
        assert_eq!(
            resumed.api().trace().render(),
            uninterrupted.api().trace().render(),
            "resumed trace differs from golden"
        );
        assert_eq!(resumed.fault_stats(), uninterrupted.fault_stats());
    }

    #[test]
    fn restore_rejects_foreign_worlds_with_typed_errors() {
        let build = |seed: u64, nodes: usize| {
            SimulationBuilder::new(Area::new(1000.0, 1000.0), seed)
                .nodes(nodes, || Box::new(Stationary))
                .build(NullProtocol)
        };
        let mut donor = build(7, 3);
        donor.step_once();
        let world = donor.snapshot();

        let err = build(8, 3).restore(&world).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("seed"), "{err}");

        let err = build(7, 4).restore(&world).unwrap_err();
        assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
        assert!(err.to_string().contains("nodes"), "{err}");

        // A world with recovery configured cannot adopt a snapshot without.
        let mut with_recovery = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .nodes(3, || Box::new(Stationary))
            .recovery(RecoveryPolicy::default())
            .build(NullProtocol);
        let err = with_recovery.restore(&world).unwrap_err();
        assert!(err.to_string().contains("recovery policy"), "{err}");
    }

    /// Restore refuses a snapshot whose optional subsystems differ from
    /// the world's, naming which side holds the one the other lacks.
    #[test]
    fn restore_names_the_side_that_holds_an_optional_subsystem() {
        let build = |recovery: bool, faults: bool| {
            let mut b = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
                .nodes(3, || Box::new(Stationary));
            if recovery {
                b = b.recovery(RecoveryPolicy::default());
            }
            if faults {
                b = b.faults("cut=20,cutdown=15".parse().expect("plan"));
            }
            b.build(NullProtocol)
        };
        let snapshot = |recovery, faults| {
            let mut donor = build(recovery, faults);
            donor.step_once();
            donor.snapshot()
        };
        let detail = |world: &mut Simulation<NullProtocol>, state: &WorldState| match world
            .restore(state)
            .unwrap_err()
        {
            SnapshotError::Mismatch { detail } => detail,
            other => panic!("expected Mismatch, got {other}"),
        };
        assert_eq!(
            detail(&mut build(false, false), &snapshot(true, false)),
            "the snapshot has a recovery policy, this world does not"
        );
        assert_eq!(
            detail(&mut build(false, true), &snapshot(false, false)),
            "this world has a fault plan, the snapshot does not"
        );
        assert_eq!(
            detail(&mut build(true, false), &snapshot(true, true)),
            "the snapshot has a fault plan, this world does not"
        );
        assert_eq!(
            build(true, true).restore(&snapshot(true, true)).ok(),
            Some(())
        );
    }

    #[test]
    fn restore_refuses_a_snapshot_from_the_other_core() {
        let build = |mode: KernelMode| {
            SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
                .nodes(3, || Box::new(Stationary))
                .kernel_mode(mode)
                .build(NullProtocol)
        };
        let mut donor = build(KernelMode::TimeStepped);
        donor.step_once();
        let err = build(KernelMode::EventDriven)
            .restore(&donor.snapshot())
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "snapshot does not match this run: snapshot was taken on the time-stepped core, \
             this world runs event-driven"
        );
    }

    /// A snapshot that already created more messages than the restored
    /// workload schedules cannot belong to it.
    #[test]
    fn restore_refuses_more_creations_than_the_workload_schedules() {
        let build = |messages: usize| {
            SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
                .nodes(2, || Box::new(Stationary))
                .messages((0..messages).map(|i| msg(i as f64, 0)))
                .build(NullProtocol)
        };
        let mut donor = build(3);
        for _ in 0..5 {
            donor.step_once();
        }
        let world = donor.snapshot();
        assert_eq!(world.counters.messages_created, 3);
        let err = build(2).restore(&world).unwrap_err();
        assert!(
            err.to_string()
                .ends_with("snapshot consumed 3 scheduled creations, this workload has 2"),
            "{err}"
        );
        assert_eq!(build(3).restore(&world).ok(), Some(()));
    }

    /// A flooding world under link cuts and payload loss, with recovery
    /// on and messages that expire before the horizon: its run bumps
    /// every kernel event count the summary carries.
    fn eventful_sim() -> Simulation<PushAll> {
        SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
            .nodes(20, || {
                Box::new(crate::mobility::RandomWaypoint::pedestrian())
            })
            .messages((0..10).map(|i| ScheduledMessage {
                size_bytes: 5_000_000, // 20 s of airtime: contacts break mid-transfer
                ttl_secs: 600.0,
                expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                ..msg(i as f64 * 30.0, i as u32 % 20)
            }))
            .faults("cut=20,cutdown=15,loss=0.2".parse().unwrap())
            .recovery(RecoveryPolicy::default())
            .build(PushAll)
    }

    #[test]
    fn summary_event_counts_are_the_counters() {
        let mut sim = eventful_sim();
        let s = sim.run_until(SimTime::from_secs(1800.0));
        let c = sim.api().counters();
        let in_counters = [
            c.transfers_aborted,
            c.transfers_retried,
            c.transfers_resumed,
            c.transfers_abandoned,
            c.ttl_expiries,
        ];
        assert!(in_counters.iter().all(|&n| n > 0), "{in_counters:?}");
        let in_summary = [
            s.transfers_aborted,
            s.transfers_retried,
            s.transfers_resumed,
            s.transfers_abandoned,
            s.ttl_expiries,
        ];
        assert_eq!(in_summary, in_counters);
    }

    /// `DTNSNAP v5` bodies carry `KernelCounters` and `RetrySchedulerState`
    /// with these keys in this order: adding, dropping or moving one
    /// changes the wire shape and needs a `FORMAT_VERSION` bump.
    #[test]
    fn counters_and_retry_state_keys_are_pinned() {
        fn keys(doc: &impl Serialize) -> Vec<String> {
            let doc = Serialize::to_value(doc);
            let map = doc.as_map().expect("an object");
            map.iter().map(|(k, _)| k.clone()).collect()
        }
        assert_eq!(
            keys(&KernelCounters::default()),
            [
                "steps",
                "contacts_up",
                "contacts_down",
                "messages_created",
                "transfers_completed",
                "transfers_aborted",
                "transfers_aborted_contact",
                "transfers_aborted_source",
                "transfers_aborted_injected",
                "transfers_retried",
                "transfers_resumed",
                "transfers_abandoned",
                "ttl_expiries",
                "contact_pairs",
                "transfer_batch_senders",
                "peak_buffer_bytes",
            ]
        );
        let scheduler = RetryScheduler::new(RecoveryPolicy::default(), &SimRng::new(1));
        assert_eq!(
            keys(&scheduler.export_state()),
            ["rng", "queue", "attempts", "peer_spent", "redeliveries"]
        );
    }

    fn aborted(from: u32, to: u32, message: u64, reason: AbortReason) -> AbortedTransfer {
        AbortedTransfer {
            from: NodeId(from),
            to: NodeId(to),
            message: MessageId(message),
            bytes_sent: 0.0,
            reason,
        }
    }

    /// Attempt `k` waits `base * 2^(k-1)`, jittered to within ±50%, and
    /// never longer than the cap; `retry_max` attempts are granted.
    #[test]
    fn retry_backoff_doubles_from_the_base_within_jitter_and_cap() {
        let policy = RecoveryPolicy {
            retry_max: 8,
            backoff_base_secs: 4.0,
            backoff_cap_secs: 100.0,
            peer_budget: 100,
            ..RecoveryPolicy::default()
        };
        let mut retries = RetryScheduler::new(policy, &SimRng::new(5));
        let abort = aborted(0, 1, 7, AbortReason::ContactDown);
        let now = SimTime::from_secs(50.0);
        for attempt in 1..=8u32 {
            assert_eq!(retries.on_abort(&abort, now), Some(attempt));
            let delay = retries.queue.last().expect("queued").ready_at.as_secs() - 50.0;
            let raw = 4.0 * 2f64.powi(attempt as i32 - 1);
            let (low, high) = ((0.5 * raw).min(100.0), (1.5 * raw).min(100.0));
            assert!(
                (low - 1e-9..=high + 1e-9).contains(&delay),
                "attempt {attempt}: {delay} outside [{low}, {high}]"
            );
        }
        assert_eq!(retries.on_abort(&abort, now), None, "retry_max is spent");
        assert_eq!(retries.queue.len(), 8);
    }

    /// Each budget refuses on its own: retries off, source loss, the
    /// per-message redelivery cap for corruption, and the per-pair budget.
    #[test]
    fn retry_budgets_refuse_past_their_caps() {
        let now = SimTime::ZERO;
        let rng = SimRng::new(9);
        let mut off = RetryScheduler::new(RecoveryPolicy::disabled(), &rng);
        assert_eq!(
            off.on_abort(&aborted(0, 1, 0, AbortReason::ContactDown), now),
            None
        );

        let policy = RecoveryPolicy {
            retry_max: 5,
            redelivery_cap: 1,
            peer_budget: 2,
            ..RecoveryPolicy::default()
        };
        let mut retries = RetryScheduler::new(policy, &rng);
        assert_eq!(
            retries.on_abort(&aborted(0, 1, 0, AbortReason::SourceGone), now),
            None
        );
        // One corruption redelivery per message, whichever link it is on.
        assert_eq!(
            retries.on_abort(&aborted(2, 3, 9, AbortReason::Injected), now),
            Some(1)
        );
        assert_eq!(
            retries.on_abort(&aborted(4, 5, 9, AbortReason::Injected), now),
            None
        );
        assert_eq!(
            retries.on_abort(&aborted(4, 5, 9, AbortReason::ContactDown), now),
            Some(1)
        );
        // Two retransmissions per (sender, receiver) pair across messages.
        assert_eq!(
            retries.on_abort(&aborted(0, 1, 1, AbortReason::ContactDown), now),
            Some(1)
        );
        assert_eq!(
            retries.on_abort(&aborted(0, 1, 2, AbortReason::ContactDown), now),
            Some(1)
        );
        assert_eq!(
            retries.on_abort(&aborted(0, 1, 3, AbortReason::ContactDown), now),
            None
        );
        assert_eq!(
            retries.on_abort(&aborted(1, 0, 3, AbortReason::ContactDown), now),
            Some(1)
        );
        assert_eq!(retries.queue.len(), 5);
    }

    /// An imported state carries on exactly where the exported one was:
    /// the same budgets and the same jitter for the next retry.
    #[test]
    fn retry_state_round_trips_through_export_and_import() {
        let policy = RecoveryPolicy::default();
        let mut original = RetryScheduler::new(policy, &SimRng::new(3));
        for (from, message) in [(0, 1), (0, 2), (2, 1)] {
            original.on_abort(
                &aborted(from, 1, message, AbortReason::Injected),
                SimTime::ZERO,
            );
        }
        let state = original.export_state();
        let mut imported = RetryScheduler::new(policy, &SimRng::new(99));
        imported.import_state(&state);
        assert_eq!(imported.export_state(), state);
        let next = aborted(0, 1, 1, AbortReason::ContactDown);
        let now = SimTime::from_secs(7.0);
        assert_eq!(original.on_abort(&next, now), Some(2));
        assert_eq!(imported.on_abort(&next, now), Some(2));
        assert_eq!(original.queue.last(), imported.queue.last());
        assert_eq!(original.export_state(), imported.export_state());
    }

    /// The clock is the step count in whole seconds, exactly.
    #[test]
    fn clock_is_the_step_count_in_whole_seconds() {
        let mut sim = SimulationBuilder::new(Area::new(10.0, 10.0), 1)
            .node(Box::new(Stationary))
            .build(NullProtocol);
        assert_eq!(sim.api().now(), SimTime::ZERO);
        for step in 1..=2000u64 {
            sim.step_once();
            assert_eq!(sim.api().now(), SimTime::from_secs(step as f64 * STEP_SECS));
        }
        assert_eq!(sim.api().counters().steps, 2000);
    }

    /// Restore refuses an open contact the restored world cannot explain,
    /// with a typed error and no panic: a node outside the world,
    /// endpoints out of range at the restored positions, a crashed
    /// endpoint, or a cut between them. The event core would otherwise
    /// hold such a contact open forever.
    #[test]
    fn restore_rejects_open_contacts_the_world_cannot_explain() {
        let mut donor = eventful_sim();
        while donor.api().now() < SimTime::from_secs(900.0) {
            donor.step_once();
        }
        let world = donor.snapshot();
        let range = donor.api().radio().range_m;
        let rejects = |edit: &dyn Fn(&mut WorldState), needle: &str| {
            let mut edited = world.clone();
            edit(&mut edited);
            let err = eventful_sim().restore(&edited).unwrap_err();
            assert!(matches!(err, SnapshotError::Mismatch { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        };
        let now = donor.api().now();
        rejects(
            &|w| w.contacts.push((NodeId(3), NodeId(27), now)),
            "outside this world",
        );
        // An out-of-range pair whose second node has no open contact, so
        // moving that node below breaks no other contact.
        let lonely = |n: NodeId| !world.contacts.iter().any(|&(x, y, _)| n == x || n == y);
        let (a, b) = (0..20u32)
            .flat_map(|a| (a + 1..20).map(move |b| (NodeId(a), NodeId(b))))
            .find(|&(a, b)| {
                lonely(b)
                    && world.positions[a.index()].distance_to(world.positions[b.index()]) > range
            })
            .expect("some pair is out of range");
        rejects(&|w| w.contacts.push((a, b, now)), "beyond the 100 m range");
        // A pair moved into range is explained by geometry, but not while
        // an endpoint is crashed or a cut blocks it.
        let in_range = |w: &mut WorldState| {
            w.positions[b.index()] = w.positions[a.index()];
            w.contacts.push((a, b, now));
            w.counters.contacts_up += 1;
        };
        let mut explained = world.clone();
        in_range(&mut explained);
        explained.contacts.sort_by_key(|&(a, b, _)| (a, b));
        eventful_sim()
            .restore(&explained)
            .expect("an open pair in range is explained");
        rejects(
            &|w| {
                in_range(w);
                w.faults.as_mut().unwrap().down_until[a.index()] = Some(now);
            },
            "crashed endpoint",
        );
        rejects(
            &|w| {
                in_range(w);
                w.faults.as_mut().unwrap().blocked_until.push((a, b, now));
            },
            "blocked by a link cut",
        );
    }

    /// The event core's distance-test count is a function of the world
    /// alone: the same at one thread and at three.
    #[test]
    fn pair_checks_do_not_depend_on_threads() {
        let checks = |threads: usize| {
            let mut sim = SimulationBuilder::new(Area::new(600.0, 600.0), 5)
                .threads(threads)
                .nodes(60, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .build(NullProtocol);
            for _ in 0..300 {
                sim.step_once();
            }
            sim.export_metrics().counter("kernel.pair_checks")
        };
        let serial = checks(1);
        assert!(serial > 0, "the engine tests pairs");
        assert_eq!(checks(3), serial);
    }

    /// The event core holds one region per worker, not one per requested
    /// thread: a world asking for 4,096 threads builds at most one region
    /// per host core, and runs byte-identically to the serial world.
    #[test]
    fn region_count_is_bounded_by_the_host() {
        let run = |threads: usize| {
            let mut sim = SimulationBuilder::new(Area::new(200.0, 200.0), 9)
                .threads(threads)
                .nodes(
                    3,
                    || Box::new(crate::mobility::RandomWaypoint::pedestrian()),
                )
                .messages((0..6u32).map(|i| msg(f64::from(i) * 60.0, i % 3)))
                .trace(TraceLog::unbounded())
                .build(PushAll);
            let ContactCore::Events { engine, .. } = &sim.core else {
                panic!("the event core is the default");
            };
            let regions = engine.region_count();
            let summary = sim.run_until(SimTime::from_secs(900.0));
            (regions, sim.api().trace().render(), summary)
        };
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        let (regions, trace, summary) = run(4096);
        assert!(regions <= cores, "{regions} regions on {cores} cores");
        let (serial_regions, serial_trace, serial_summary) = run(1);
        assert_eq!(serial_regions, 1);
        assert!(summary.relays_completed > 0, "the world moves messages");
        assert_eq!(trace, serial_trace);
        assert_eq!(summary, serial_summary);
    }

    /// Both contact grids hold at most a fixed multiple of the node count
    /// in cells, however large the area, and keep range-wide cells at the
    /// paper's density of one node per 10⁴ m². A sparse world runs the
    /// same on both cores.
    #[test]
    fn grid_cells_are_bounded_by_the_node_count() {
        let build = |mode: KernelMode, side: f64, nodes: usize| {
            SimulationBuilder::new(Area::new(side, side), 4)
                .kernel_mode(mode)
                .nodes(nodes, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..6u32).map(|i| msg(f64::from(i) * 60.0, i % 3)))
                .trace(TraceLog::unbounded())
                .build(PushAll)
        };
        let cells = |sim: &Simulation<PushAll>| match &sim.core {
            ContactCore::Events { engine, .. } => engine.cell_count(),
            ContactCore::Sweep { grid, .. } => grid.cell_count(),
        };
        let paper_side = 5e6f64.sqrt();
        let range_wide = ((paper_side / 100.0).ceil() as usize).pow(2);
        let mut runs = Vec::new();
        for mode in [KernelMode::EventDriven, KernelMode::TimeStepped] {
            // 10 km × 10 km is 10⁴ range-wide cells for 20 nodes.
            let mut sparse = build(mode, 10_000.0, 20);
            let n = cells(&sparse);
            assert!(n <= 16 * 20, "{mode}: {n} cells for 20 nodes");
            assert_eq!(cells(&build(mode, paper_side, 500)), range_wide, "{mode}");
            let summary = sparse.run_until(SimTime::from_secs(600.0));
            runs.push((sparse.api().trace().render(), summary));
        }
        assert_eq!(runs[0], runs[1], "both cores agree on a sparse world");
    }

    #[test]
    fn two_stationary_nodes_in_range_deliver() {
        let sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                100.0, 100.0,
            ))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                150.0, 100.0,
            ))))
            .message(msg(5.0, 0));
        let mut sim = sim.build(PushAll);
        let summary = sim.run_until(SimTime::from_secs(60.0));
        assert_eq!(summary.created, 1);
        assert_eq!(summary.delivered_pairs, 1, "in-range pair must deliver");
        assert_eq!(summary.delivery_ratio, 1.0);
        assert_eq!(summary.relays_completed, 1);
        assert_eq!(summary.relay_bytes, 1000);
        // 1000 B at 250 kB/s finishes within the creation step, so latency
        // rounds to zero at 1 s resolution.
        assert!(summary.mean_latency_secs >= 0.0);
    }

    #[test]
    fn out_of_range_nodes_never_deliver() {
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                900.0, 900.0,
            ))))
            .message(msg(5.0, 0))
            .build(PushAll);
        let summary = sim.run_until(SimTime::from_secs(120.0));
        assert_eq!(summary.delivered_pairs, 0);
        assert_eq!(summary.relays_completed, 0);
    }

    #[test]
    fn contact_break_aborts_transfer() {
        // Node 1 walks out of range while a big message is in flight.
        let script = ScriptedWaypoints::new(vec![
            (0.0, Point::new(150.0, 100.0)),
            (10.0, Point::new(150.0, 100.0)),
            (30.0, Point::new(900.0, 900.0)),
        ]);
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                100.0, 100.0,
            ))))
            .node(Box::new(script))
            .message(ScheduledMessage {
                size_bytes: 100_000_000, // 400 s of airtime, cannot finish
                ..msg(1.0, 0)
            })
            .build(PushAll);
        let summary = sim.run_until(SimTime::from_secs(120.0));
        assert_eq!(summary.delivered_pairs, 0);
        assert_eq!(summary.transfers_aborted, 1);
    }

    #[test]
    fn ttl_sweep_purges_copies() {
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(Stationary))
            .message(ScheduledMessage {
                ttl_secs: 30.0,
                expected_destinations: vec![],
                ..msg(0.0, 0)
            })
            .build(NullProtocol);
        let summary = sim.run_until(SimTime::from_secs(200.0));
        assert_eq!(summary.ttl_expiries, 1);
        assert!(sim.api().buffer(NodeId(0)).is_empty());
    }

    #[test]
    fn profiling_never_perturbs_results() {
        let build = |profile: bool| {
            SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .trace(TraceLog::unbounded())
                .profile(profile)
                .build(PushAll)
        };
        let mut plain = build(false);
        let mut profiled = build(true);
        let a = plain.run_until(SimTime::from_secs(1800.0));
        let b = profiled.run_until(SimTime::from_secs(1800.0));
        assert_eq!(a, b, "profiling must not change the summary");
        assert_eq!(
            plain.api().trace().render(),
            profiled.api().trace().render(),
            "profiling must not change the event trace"
        );
        // The profiled run actually recorded wall-clock...
        assert!(profiled.profiler().is_enabled());
        assert!(profiled.profiler().total_secs() > 0.0);
        assert_eq!(profiled.profiler().step_wall_us().count(), 1800);
        assert!(profiled.api().counters().peak_buffer_bytes > 0);
        // ...while the plain run spent none.
        assert!(!plain.profiler().is_enabled());
        assert_eq!(plain.profiler().total_secs(), 0.0);
        assert_eq!(plain.api().counters().peak_buffer_bytes, 0);
        // Event counters are always on and identical across both runs.
        let (ca, cb) = (plain.api().counters(), profiled.api().counters());
        assert_eq!(
            KernelCounters {
                peak_buffer_bytes: 0,
                ..*cb
            },
            *ca
        );
        assert_eq!(ca.steps, 1800);
        assert_eq!(ca.messages_created, a.created);
        assert_eq!(ca.transfers_aborted, a.transfers_aborted);
        assert!(ca.contacts_up >= ca.contacts_down);
        assert!(ca.events() > 0);
    }

    #[test]
    fn export_metrics_carries_counters_and_phases() {
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                100.0, 100.0,
            ))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                150.0, 100.0,
            ))))
            .message(msg(5.0, 0))
            .profile(true)
            .build(PushAll);
        sim.run_until(SimTime::from_secs(60.0));
        let m = sim.export_metrics();
        assert_eq!(m.counter("kernel.steps"), 60);
        assert_eq!(m.counter("kernel.messages_created"), 1);
        assert_eq!(m.counter("kernel.transfers_completed"), 1);
        assert!(m.counter("kernel.events") >= 3);
        assert!(m.gauge("phase_secs.mobility").is_some());
        assert!(m.gauge("profiler.total_secs").unwrap() > 0.0);
        assert_eq!(m.histogram("step_wall_us").unwrap().count(), 60);
        // Unprofiled export stays counters-only.
        let mut plain = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(Stationary))
            .build(NullProtocol);
        plain.run_until(SimTime::from_secs(10.0));
        let m = plain.export_metrics();
        assert_eq!(m.counter("kernel.steps"), 10);
        assert!(m.gauge("profiler.total_secs").is_none());
        assert!(m.histogram("step_wall_us").is_none());
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let build = || {
            SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .build(PushAll)
        };
        let a = build().run_until(SimTime::from_secs(1800.0));
        let b = build().run_until(SimTime::from_secs(1800.0));
        assert_eq!(a, b, "same seed must reproduce identical summaries");
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            SimulationBuilder::new(Area::new(2000.0, 2000.0), seed)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .build(PushAll)
                .run_until(SimTime::from_secs(1800.0))
        };
        assert_ne!(run(1).relays_completed, run(2).relays_completed);
    }

    #[test]
    fn faulty_runs_replay_identically() {
        let plan: FaultPlan = "crash=6,crashdown=60,wipe,cut=20,cutdown=15,loss=0.1"
            .parse()
            .unwrap();
        let build = || {
            SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .faults(plan)
                .check_invariants_every(1)
                .build(PushAll)
        };
        let mut sa = build();
        let a = sa.run_until(SimTime::from_secs(1800.0));
        let mut sb = build();
        let b = sb.run_until(SimTime::from_secs(1800.0));
        assert_eq!(a, b, "same (seed, plan) must reproduce the summary");
        assert_eq!(sa.fault_stats(), sb.fault_stats());
        let stats = sa.fault_stats().expect("plan attached");
        assert!(stats.crashes > 0, "6/h over 20 node-hours must land");
        assert!(stats.link_cuts > 0);
        assert!(sa.invariant_checks_run().unwrap() > 0);
    }

    #[test]
    fn inert_plan_changes_nothing() {
        let build = |chaos: bool| {
            let mut b = SimulationBuilder::new(Area::new(2000.0, 2000.0), 99)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }));
            if chaos {
                b = b.faults(FaultPlan::default());
            }
            b.build(PushAll).run_until(SimTime::from_secs(1800.0))
        };
        assert_eq!(
            build(false),
            build(true),
            "an all-zero plan must not perturb the run"
        );
    }

    #[test]
    fn transfer_loss_keeps_payload_out_of_the_receiver() {
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                100.0, 100.0,
            ))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                150.0, 100.0,
            ))))
            .message(msg(5.0, 0))
            .faults("loss=1".parse().unwrap())
            .check_invariants_every(1)
            .build(PushAll);
        let summary = sim.run_until(SimTime::from_secs(120.0));
        assert_eq!(summary.relays_completed, 0, "every payload is lost");
        assert_eq!(summary.delivered_pairs, 0);
        assert!(summary.transfers_aborted > 0);
        assert!(sim.api().buffer(NodeId(1)).is_empty());
        assert!(sim.fault_stats().unwrap().transfers_lost > 0);
        // Energy was still spent on the doomed airtime.
        assert!(sim.api().energy_usage(NodeId(0)).tx_joules > 0.0);
    }

    #[test]
    fn crash_wipe_empties_the_buffer_and_reboot_restores_contacts() {
        // A certain per-step crash rate: both nodes crash at t=0, reboot at
        // t=5 and immediately crash again, wiping the copy created at t=1
        // while the source was down.
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                100.0, 100.0,
            ))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(
                150.0, 100.0,
            ))))
            .message(msg(1.0, 0))
            .faults("crash=3600,crashdown=5,wipe".parse().unwrap())
            .trace(TraceLog::unbounded())
            .check_invariants_every(1)
            .build(PushAll);
        sim.run_until(SimTime::from_secs(10.0));
        let stats = sim.fault_stats().unwrap();
        assert!(stats.crashes >= 2, "certain per-step crash hits both nodes");
        assert!(stats.reboots >= 1, "5 s downtime reboots within the run");
        assert!(stats.copies_wiped >= 1, "the re-crash wipes the copy");
        assert!(
            sim.api().buffer(NodeId(0)).is_empty(),
            "wipe destroyed the source copy"
        );
        assert!(
            sim.api().peers_of(NodeId(0)).is_empty(),
            "crashed nodes hold no contacts"
        );
        let rendered = sim.api().trace().render();
        assert!(rendered.contains("crash n0"));
    }

    #[test]
    #[should_panic(expected = "invariant breach")]
    fn invariant_breach_panics_with_replay_report() {
        /// A protocol that reports a violation unconditionally.
        #[derive(Debug)]
        struct AlwaysBroken;
        impl Protocol for AlwaysBroken {
            fn check_invariants(&self, _api: &SimApi) -> Vec<String> {
                vec!["ledger minted tokens out of thin air".to_string()]
            }
        }
        let mut sim = SimulationBuilder::new(Area::new(100.0, 100.0), 3)
            .node(Box::new(Stationary))
            .check_invariants_every(1)
            .build(AlwaysBroken);
        sim.step_once();
    }

    #[test]
    fn manual_invariant_audit_reports_instead_of_panicking() {
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(Stationary))
            .node(Box::new(Stationary))
            .message(msg(0.0, 0))
            .build(NullProtocol);
        sim.run_until(SimTime::from_secs(30.0));
        assert!(sim.check_invariants_now().is_empty(), "healthy run");
    }

    /// Records the number of the step each audit closes.
    #[derive(Debug, Default)]
    struct AuditLog(std::cell::RefCell<Vec<u64>>);

    impl Protocol for AuditLog {
        fn check_invariants(&self, api: &SimApi) -> Vec<String> {
            self.0.borrow_mut().push(api.counters().steps + 1);
            Vec::new()
        }
    }

    fn audited_sim(every: u64) -> Simulation<AuditLog> {
        SimulationBuilder::new(Area::new(100.0, 100.0), 3)
            .nodes(2, || Box::new(Stationary))
            .check_invariants_every(every)
            .build(AuditLog::default())
    }

    #[test]
    fn cadence_fires_every_n_steps() {
        for every in [1, 3, 7] {
            let mut sim = audited_sim(every);
            for _ in 0..50 {
                sim.step_once();
            }
            let expected: Vec<u64> = (1..=50).filter(|k| k % every == 0).collect();
            assert_eq!(*sim.protocol().0.borrow(), expected, "every {every}");
            assert_eq!(sim.invariant_checks_run(), Some(50 / every));
        }
        let unaudited = SimulationBuilder::new(Area::new(100.0, 100.0), 3)
            .node(Box::new(Stationary))
            .build(NullProtocol);
        assert_eq!(unaudited.invariant_checks_run(), None);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_cadence_rejected() {
        let _ = SimulationBuilder::new(Area::new(100.0, 100.0), 3).check_invariants_every(0);
    }

    /// The audit clock is the step count, so a world killed between two
    /// audits and restored audits at the steps the uninterrupted one does.
    #[test]
    fn resumed_world_audits_at_the_uninterrupted_steps() {
        let mut uninterrupted = audited_sim(7);
        for _ in 0..50 {
            uninterrupted.step_once();
        }
        let mut killed = audited_sim(7);
        for _ in 0..24 {
            killed.step_once();
        }
        let mut resumed = audited_sim(7);
        resumed.restore(&killed.snapshot()).expect("restores");
        assert_eq!(resumed.api().now(), killed.api().now());
        while resumed.api().counters().steps < 50 {
            resumed.step_once();
        }
        let mut audits = killed.protocol().0.take();
        audits.extend(resumed.protocol().0.take());
        assert_eq!(audits, *uninterrupted.protocol().0.borrow());
        assert_eq!(audits, vec![7, 14, 21, 28, 35, 42, 49]);
        assert_eq!(resumed.invariant_checks_run(), Some(7));
    }

    /// The TTL sweep runs every 60 simulated seconds: a copy that expired
    /// at 10 s is swept at 60 s.
    #[test]
    fn ttl_sweep_expires_a_copy_at_sixty_seconds() {
        let mut sim = SimulationBuilder::new(Area::new(100.0, 100.0), 3)
            .node(Box::new(Stationary))
            .message(ScheduledMessage {
                ttl_secs: 10.0,
                ..msg(0.0, 0)
            })
            .trace(TraceLog::unbounded())
            .build(NullProtocol);
        sim.run_until(SimTime::from_secs(100.0));
        let expired: Vec<SimTime> = sim
            .api()
            .trace()
            .entries()
            .iter()
            .filter(|e| matches!(e.event, TraceEvent::Expired { .. }))
            .map(|e| e.at)
            .collect();
        assert_eq!(expired, vec![SimTime::from_secs(60.0)]);
        assert_eq!(sim.api().counters().ttl_expiries, 1);
        assert!(sim.api().buffer(NodeId(0)).is_empty());
    }

    #[test]
    #[should_panic(expected = "outside world")]
    fn scheduling_for_unknown_node_panics() {
        let _ = SimulationBuilder::new(Area::new(10.0, 10.0), 1)
            .node(Box::new(Stationary))
            .message(msg(0.0, 5))
            .build(NullProtocol);
    }

    #[test]
    fn api_send_guards() {
        let mut sim = SimulationBuilder::new(Area::new(1000.0, 1000.0), 7)
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(0.0, 0.0))))
            .node(Box::new(ScriptedWaypoints::pinned(Point::new(500.0, 0.0))))
            .message(msg(0.0, 0))
            .build(NullProtocol);
        for _ in 0..5 {
            sim.step_once();
        }
        // Not in contact → send refused.
        assert!(!sim.api.send(NodeId(0), NodeId(1), MessageId(0)));
        // Unknown message → refused even if in contact.
        assert!(!sim.api.is_sending(NodeId(0), NodeId(1), MessageId(0)));
    }
}
