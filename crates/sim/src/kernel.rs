//! The time-stepped simulation kernel.
//!
//! [`Simulation`] advances the world in fixed steps (default 1 s, matching
//! ONE's pedestrian scenarios): move nodes → diff contacts → release
//! scheduled messages → progress transfers → sweep TTLs → tick the protocol.
//! All state a protocol may touch lives in [`SimApi`]; the protocol object
//! itself is a sibling field so Rust's split borrows let the two interact
//! without interior mutability.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::buffer::{Buffer, BufferState, DropPolicy, InsertOutcome};
use crate::contact::{ContactEvent, ContactKey, ContactTable, ContactTableState};
use crate::energy::{EnergyMeter, EnergyMeterState, EnergyUse};
use crate::events::{ContactEngine, KernelMode};
use crate::faults::{
    FaultInjector, FaultInjectorState, FaultPlan, FaultStats, NodeFault, TransferFault,
};
use crate::geometry::{Area, Point};
use crate::invariants::{self, InvariantChecker, InvariantCheckerState};
use crate::message::{Keyword, MessageBody, MessageCopy, MessageId, Priority, Quality};
use crate::metrics::{KernelCounters, MetricsRegistry, Phase, PhaseProfiler};
use crate::mobility::{MobilityModel, RandomWaypointFleet};
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
use crate::world::{NodeId, SpatialGrid};

/// Dedicated RNG stream for retry-backoff jitter ("RETRY" in ASCII), so
/// enabling recovery never perturbs the mobility/fault/protocol streams.
const RETRY_STREAM: u64 = 0x5245_5452_5900_0000;

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

/// Running mean of a pair's observed down→up gaps, for adaptive backoff
/// (see [`RecoveryPolicy::adaptive_backoff`]). Only maintained while the
/// flag is on, so a disabled run carries no tracker state at all.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
struct GapTracker {
    /// When the pair's contact last went down (`None` while up).
    last_down: Option<SimTime>,
    /// Complete down→up gaps observed.
    count: u32,
    /// Mean observed gap, seconds.
    mean_secs: f64,
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
    /// Observed inter-contact gaps per pair; empty unless
    /// [`RecoveryPolicy::adaptive_backoff`] is on.
    gaps: HashMap<ContactKey, GapTracker>,
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
            gaps: HashMap::new(),
        }
    }

    fn adaptive(&self) -> bool {
        self.policy.adaptive_backoff == Some(true)
    }

    /// Notes a contact teardown for gap observation. Draws no randomness
    /// and is a no-op unless adaptive backoff is on, so the disabled path
    /// stays byte-identical.
    fn note_contact_down(&mut self, key: ContactKey, now: SimTime) {
        if !self.adaptive() {
            return;
        }
        self.gaps.entry(key).or_default().last_down = Some(now);
    }

    /// Notes a contact establishment, folding the completed down→up gap
    /// into the pair's running mean. No-op unless adaptive backoff is on.
    fn note_contact_up(&mut self, key: ContactKey, now: SimTime) {
        if !self.adaptive() {
            return;
        }
        let tracker = self.gaps.entry(key).or_default();
        if let Some(down_at) = tracker.last_down.take() {
            let gap = now.duration_since(down_at).as_secs();
            tracker.count += 1;
            tracker.mean_secs += (gap - tracker.mean_secs) / f64::from(tracker.count);
        }
    }

    /// The backoff base for a retry between `from` and `to`: the pair's
    /// mean observed inter-contact gap once at least two complete gaps
    /// have been seen, the configured fixed base otherwise.
    fn backoff_base(&self, from: NodeId, to: NodeId) -> f64 {
        if self.adaptive() {
            if let Some(t) = self.gaps.get(&ContactKey::new(from, to)) {
                if t.count >= 2 {
                    // A pair that flaps sub-millisecond still gets a
                    // positive base, or the exponential schedule collapses.
                    return t.mean_secs.max(1e-3);
                }
            }
        }
        self.policy.backoff_base_secs
    }

    /// Decides whether `a` earns a retry and, if so, enqueues it with a
    /// jittered exponential backoff. Returns the attempt number scheduled.
    fn on_abort(&mut self, a: &AbortedTransfer, now: SimTime) -> Option<u32> {
        if self.policy.retry_max == 0 {
            return None;
        }
        match a.reason {
            // Deliberate cancellation and source loss are final: there is
            // nothing left to redeliver.
            AbortReason::Cancelled | AbortReason::SourceGone => return None,
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
        // The jitter draw happens in the same order either way, so the
        // adaptive flag cannot shift any other stream.
        let exp = (attempt - 1).min(60);
        let raw = self.backoff_base(a.from, a.to) * 2f64.powi(exp as i32);
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
        let mut gaps: Vec<(NodeId, NodeId, GapTracker)> = self
            .gaps
            .iter()
            .map(|(&ContactKey(a, b), &t)| (a, b, t))
            .collect();
        gaps.sort_unstable_by_key(|&(a, b, _)| (a, b));
        RetrySchedulerState {
            rng: self.rng.state(),
            queue: self.queue.clone(),
            attempts,
            peer_spent,
            redeliveries,
            gaps,
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
        self.gaps = state
            .gaps
            .iter()
            .map(|&(a, b, t)| (ContactKey(a, b), t))
            .collect();
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
    #[serde(default)]
    gaps: Vec<(NodeId, NodeId, GapTracker)>,
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
    step: SimDuration,
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
    /// The current simulation time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The step length.
    #[must_use]
    pub fn step_len(&self) -> SimDuration {
        self.step
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
        // With resume enabled, an enqueue that picks up a saved checkpoint
        // counts as a resumed transfer (checkpoints only exist under a
        // recovery policy, so this path is inert otherwise).
        let resumes = self
            .transfers
            .checkpoint_of(from, to, message)
            .is_some_and(|c| c.bytes_total == bytes);
        if self.transfers.enqueue(from, to, message, bytes, self.now) {
            if resumes {
                self.counters.transfers_resumed += 1;
                self.stats.record_resume();
                let now = self.now;
                self.trace
                    .record(now, TraceEvent::TransferResumed { message, from, to });
            }
            true
        } else {
            false
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

    /// Cancels a pending transfer. Returns `true` if one was cancelled.
    pub fn cancel_send(&mut self, from: NodeId, to: NodeId, message: MessageId) -> bool {
        if self.transfers.cancel(from, to, message).is_some() {
            self.counters.note_abort(AbortReason::Cancelled);
            self.stats.record_abort();
            true
        } else {
            false
        }
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

    /// A deterministic RNG substream for protocol component `label`.
    #[must_use]
    pub fn protocol_rng(&self, label: u64) -> SimRng {
        self.rng_root.stream(0x5052_4F54_0000_0000 | label)
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
///     .step(SimDuration::from_secs(1.0))
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
    step: SimDuration,
    radio: RadioConfig,
    buffer_capacity: u64,
    drop_policy: DropPolicy,
    ttl_sweep_every: SimDuration,
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
            step: SimDuration::from_secs(1.0),
            radio: RadioConfig::paper_default(),
            buffer_capacity: 250_000_000,
            drop_policy: DropPolicy::DropOldest,
            ttl_sweep_every: SimDuration::from_secs(60.0),
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
    /// time-stepped sweep remains selectable as the equivalence oracle.
    #[must_use]
    pub fn kernel_mode(mut self, mode: KernelMode) -> Self {
        self.kernel_mode = mode;
        self
    }

    /// Sets the shard count for the data-parallel step phases (mobility
    /// stepping and striped contact detection). Default 1 = the serial
    /// path. Output is byte-identical at any value: sharding changes who
    /// computes each node's step, never what is computed — see DESIGN.md
    /// §10 for the determinism argument.
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

    /// Sets the step length (default 1 s).
    #[must_use]
    pub fn step(mut self, step: SimDuration) -> Self {
        assert!(step.as_secs() > 0.0, "step must be positive");
        self.step = step;
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

    /// Sets how often expired copies are swept (default 60 s).
    #[must_use]
    pub fn ttl_sweep_every(mut self, interval: SimDuration) -> Self {
        assert!(interval.as_secs() > 0.0, "sweep interval must be positive");
        self.ttl_sweep_every = interval;
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

    /// Audits kernel and protocol invariants every `steps` steps (and once
    /// at the end of the run), aborting with a replayable report on a
    /// breach (see [`crate::invariants`]); disabled by default.
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
        let grid_cell = self.radio.range_m.max(1.0);
        // SoA fast path: a homogeneous Random Waypoint population (the
        // paper's only mobility model) packs into column vectors; mixed
        // populations keep the boxed models. Both layouts step nodes
        // byte-identically.
        let mobility = match RandomWaypointFleet::from_models(&self.mobilities) {
            Some(fleet) => MobilityStore::Fleet(fleet),
            None => MobilityStore::Boxed(self.mobilities),
        };
        let contact_engine = (self.kernel_mode == KernelMode::EventDriven).then(|| {
            let vmax: Vec<f64> = (0..n)
                .map(|i| mobility.speed_cap(i).unwrap_or(f64::INFINITY))
                .collect();
            ContactEngine::new(
                self.area,
                self.radio.range_m,
                self.step.as_secs(),
                self.threads,
                &positions,
                vmax,
            )
        });
        let grid = SpatialGrid::new(self.area, grid_cell);
        // Stripe count for the time-stepped sweep is a pure function of
        // the static grid geometry and the threads knob, so it is fixed
        // here instead of being re-derived (and buffer-resized) per step.
        let stripes = self.threads.min(grid.row_count()).max(1);
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
                step: self.step,
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
            mobility,
            node_rngs,
            grid,
            threads: self.threads,
            // OS threads actually spawned per phase: capped by the host's
            // core count. Purely a wall-clock decision — shard boundaries
            // and merge order depend only on `threads`, so a 8-thread run
            // on a 1-core box is byte-identical to the same run on 8 cores.
            workers: self
                .threads
                .min(std::thread::available_parallelism().map_or(1, usize::from)),
            kernel_mode: self.kernel_mode,
            contact_engine,
            scratch_in_range: Vec::new(),
            stripes,
            stripe_buffers: vec![Vec::new(); stripes],
            schedule: self.schedule,
            next_scheduled: 0,
            next_message_id: 0,
            ttl_sweep_every: self.ttl_sweep_every,
            last_sweep: SimTime::ZERO,
            started: false,
            finished: false,
            seed: self.seed,
            faults,
            retries,
            checker: self.check_every.map(InvariantChecker::every),
            profiler: if self.profile {
                PhaseProfiler::enabled()
            } else {
                PhaseProfiler::disabled()
            },
        }
    }
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
/// the spatial grid (rebuilt from positions every step), scratch pair
/// buffers, the worker count, and the phase profiler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorldState {
    /// The scenario seed the world was built with (pairing check).
    pub seed: u64,
    /// Number of nodes (pairing check).
    pub node_count: u64,
    /// The contact-detection core the capture ran on (pairing check).
    /// Both cores produce identical state, but a cross-mode resume would
    /// silently change the remainder's wall-clock profile, so it is
    /// rejected as a [`SnapshotError::Mismatch`] like any other
    /// configuration drift. Carried since format v2.
    pub kernel_mode: KernelMode,
    /// Simulation clock at capture.
    pub now: SimTime,
    /// When the last TTL sweep ran.
    pub last_sweep: SimTime,
    /// Whether [`Protocol::on_start`] has fired.
    pub started: bool,
    /// Whether [`Protocol::on_finish`] has fired.
    pub finished: bool,
    /// Index of the next workload creation not yet executed.
    pub next_scheduled: u64,
    /// The next kernel-assigned message id.
    pub next_message_id: u64,
    /// Node positions, in node order.
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
    /// Active contacts and the lifetime contact counter.
    pub contacts: ContactTableState,
    /// In-flight transfers and partial-byte checkpoints.
    pub transfers: TransferEngineState,
    /// Per-node energy spent and the depleted-node drain record.
    pub energy: EnergyMeterState,
    /// The metrics collector (delivery bookkeeping, counters, series).
    pub stats: StatsState,
    /// The event trace ring.
    pub trace: TraceLogState,
    /// Kernel step counters.
    pub counters: KernelCounters,
    /// Retry scheduler state; present iff recovery was configured.
    pub retries: Option<RetrySchedulerState>,
    /// Fault injector state; present iff a fault plan was attached.
    pub faults: Option<FaultInjectorState>,
    /// Invariant checker cadence state; present iff checking was enabled.
    pub checker: Option<InvariantCheckerState>,
    /// The protocol's own state document ([`Protocol::snapshot_state`]).
    pub protocol: serde::Value,
}

/// Per-node mobility state in one of two layouts: boxed trait objects
/// (heterogeneous populations) or the struct-of-arrays
/// [`RandomWaypointFleet`] (homogeneous Random Waypoint worlds — every
/// scenario in the paper). The layouts step nodes byte-identically and
/// write interchangeable snapshot documents; the fleet is purely a
/// cache-density and dispatch win on the mobility hot path.
#[derive(Debug)]
enum MobilityStore {
    Boxed(Vec<Box<dyn MobilityModel>>),
    Fleet(RandomWaypointFleet),
}

impl MobilityStore {
    fn len(&self) -> usize {
        match self {
            MobilityStore::Boxed(models) => models.len(),
            MobilityStore::Fleet(fleet) => fleet.len(),
        }
    }

    /// Node `i`'s displacement bound, m/s, if its model promises one.
    fn speed_cap(&self, i: usize) -> Option<f64> {
        match self {
            MobilityStore::Boxed(models) => models[i].speed_cap_m_s(),
            MobilityStore::Fleet(fleet) => Some(fleet.speed_cap(i)),
        }
    }

    fn snapshot_state(&self, i: usize) -> serde::Value {
        match self {
            MobilityStore::Boxed(models) => models[i].snapshot_state(),
            MobilityStore::Fleet(fleet) => fleet.snapshot_state(i),
        }
    }

    fn restore_state(&mut self, i: usize, doc: &serde::Value) -> Result<(), String> {
        match self {
            MobilityStore::Boxed(models) => models[i].restore_state(doc),
            MobilityStore::Fleet(fleet) => fleet.restore_state(i, doc),
        }
    }
}

/// A running simulation: kernel state plus the protocol under test.
#[derive(Debug)]
pub struct Simulation<P> {
    api: SimApi,
    protocol: P,
    mobility: MobilityStore,
    node_rngs: Vec<SimRng>,
    grid: SpatialGrid,
    /// Configured shard count for the data-parallel phases (≥ 1).
    threads: usize,
    /// OS threads actually used (`min(threads, host cores)`); wall-clock
    /// only, never affects output.
    workers: usize,
    /// Which contact-detection core this world runs on.
    kernel_mode: KernelMode,
    /// The predicted-crossing scheduler; present iff the mode is
    /// [`KernelMode::EventDriven`]. Derived state — rebuilt, not
    /// serialized, on snapshot restore.
    contact_engine: Option<ContactEngine>,
    /// In-range pair buffer reused across steps (was allocated per step).
    scratch_in_range: Vec<ContactKey>,
    /// Stripe count for the time-stepped sweep, fixed at build time from
    /// the static grid geometry (hoisted out of the per-step path).
    stripes: usize,
    /// Per-stripe pair buffers for sharded contact detection, reused
    /// across steps and merged in fixed stripe order.
    stripe_buffers: Vec<Vec<ContactKey>>,
    schedule: Vec<ScheduledMessage>,
    next_scheduled: usize,
    next_message_id: u64,
    ttl_sweep_every: SimDuration,
    last_sweep: SimTime,
    started: bool,
    finished: bool,
    seed: u64,
    faults: Option<FaultInjector>,
    retries: Option<RetryScheduler>,
    checker: Option<InvariantChecker>,
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

    /// The configured shard count for the data-parallel step phases.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Which contact-detection core this world runs on.
    #[must_use]
    pub fn kernel_mode(&self) -> KernelMode {
        self.kernel_mode
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

    /// Number of invariant audits run so far (`None` when checking is
    /// disabled).
    #[must_use]
    pub fn invariant_checks_run(&self) -> Option<u64> {
        self.checker.as_ref().map(InvariantChecker::checks_run)
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
    #[must_use]
    pub fn export_metrics(&self) -> MetricsRegistry {
        let mut registry = MetricsRegistry::new();
        self.api.counters.export(&mut registry);
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
            node_count: self.api.positions.len() as u64,
            kernel_mode: self.kernel_mode,
            now: self.api.now,
            last_sweep: self.last_sweep,
            started: self.started,
            finished: self.finished,
            next_scheduled: self.next_scheduled as u64,
            next_message_id: self.next_message_id,
            positions: self.api.positions.clone(),
            rng_root: self.api.rng_root.state(),
            node_rngs: self.node_rngs.iter().map(SimRng::state).collect(),
            mobility: (0..self.mobility.len())
                .map(|i| self.mobility.snapshot_state(i))
                .collect(),
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
            checker: self.checker.as_ref().map(InvariantChecker::export_state),
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
    /// this world: a different seed or node count, an optional subsystem
    /// (fault plan, recovery policy, invariant checker) present on only
    /// one side, or per-module state that fails its own consistency
    /// checks. On error the world may be partially overwritten — rebuild
    /// it before using it again.
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
        if state.node_count != nodes as u64 {
            return Err(mismatch(format!(
                "snapshot has {} nodes, this world has {nodes}",
                state.node_count
            )));
        }
        if state.kernel_mode != self.kernel_mode {
            return Err(mismatch(format!(
                "snapshot was taken on the {} core, this world runs {}",
                state.kernel_mode, self.kernel_mode
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
        if state.next_scheduled as usize > self.schedule.len() {
            return Err(mismatch(format!(
                "snapshot consumed {} scheduled creations, this workload has {}",
                state.next_scheduled,
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
            (
                "invariant checker",
                state.checker.is_some(),
                self.checker.is_some(),
            ),
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
        for (i, doc) in state.mobility.iter().enumerate() {
            self.mobility
                .restore_state(i, doc)
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
        if let (Some(checker), Some(doc)) = (self.checker.as_mut(), state.checker.as_ref()) {
            checker.import_state(doc);
        }
        self.protocol
            .restore_state(&state.protocol)
            .map_err(|e| mismatch(format!("protocol: {e}")))?;
        self.api.positions.clone_from(&state.positions);
        self.api.now = state.now;
        self.last_sweep = state.last_sweep;
        self.started = state.started;
        self.finished = state.finished;
        self.next_scheduled = state.next_scheduled as usize;
        self.next_message_id = state.next_message_id;
        // The predicted-crossing watch set is derived state: rebuilding a
        // fresh (superset) watch set from the restored positions yields
        // the same exact in-range list as the uninterrupted engine.
        if let Some(engine) = self.contact_engine.as_mut() {
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
        if !self.started {
            self.started = true;
            self.protocol.on_start(&mut self.api);
        }
        let dt = self.api.step;
        let now = self.api.now;
        let step_scope = self.profiler.start();

        // 1. Movement. Each node's next position depends only on its own
        // mobility state and its own RNG stream (`node_rngs[i]`), so the
        // node axis is data-parallel: any partition computes identical
        // positions and leaves every RNG in an identical state.
        let scope = self.profiler.start();
        let n = self.mobility.len();
        let mobility_chunk = if self.workers > 1 && n > 1 {
            n.div_ceil(self.workers)
        } else {
            n
        };
        match &mut self.mobility {
            MobilityStore::Fleet(fleet) => {
                fleet.step_all(
                    &mut self.api.positions,
                    &mut self.node_rngs,
                    dt,
                    self.api.area,
                    mobility_chunk,
                );
            }
            MobilityStore::Boxed(mobilities) => {
                if mobility_chunk < n {
                    let area = self.api.area;
                    std::thread::scope(|s| {
                        for ((positions, mobilities), rngs) in self
                            .api
                            .positions
                            .chunks_mut(mobility_chunk)
                            .zip(mobilities.chunks_mut(mobility_chunk))
                            .zip(self.node_rngs.chunks_mut(mobility_chunk))
                        {
                            s.spawn(move || {
                                for ((p, m), r) in positions.iter_mut().zip(mobilities).zip(rngs) {
                                    *p = m.step(*p, dt, area, r);
                                }
                            });
                        }
                    });
                } else {
                    for ((p, m), r) in self
                        .api
                        .positions
                        .iter_mut()
                        .zip(mobilities.iter_mut())
                        .zip(self.node_rngs.iter_mut())
                        .take(n)
                    {
                        *p = m.step(*p, dt, self.api.area, r);
                    }
                }
            }
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
        for fault in node_faults {
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

        // 2. Contact detection. Either core produces the same sorted
        // in-range pair list: the event engine tracks a conservative
        // superset of near pairs and distance-checks exactly the pairs
        // that could be in range this step; the time-stepped sweep
        // re-enumerates the whole grid. The sweep is sharded across row
        // stripes: each stripe enumerates the pairs whose home cell lies
        // in its rows into its own buffer, buffers are merged in
        // ascending stripe order, and the merged list is sorted — the
        // same unique pair set in the same final order as the serial
        // sweep, whatever the stripe count.
        let scope = self.profiler.start();
        self.scratch_in_range.clear();
        let energy = &self.api.energy;
        let positions = &self.api.positions;
        let range = self.api.radio.range_m;
        if let Some(engine) = self.contact_engine.as_mut() {
            engine.collect(
                self.api.counters.steps,
                positions,
                energy,
                self.workers,
                &mut self.scratch_in_range,
            );
        } else {
            self.grid.rebuild(positions);
            let rows = self.grid.row_count();
            let stripes = self.stripes;
            if stripes > 1 {
                let per = rows.div_ceil(stripes);
                let grid = &self.grid;
                let sweep_stripe = |si: usize, buf: &mut Vec<ContactKey>| {
                    buf.clear();
                    grid.for_each_pair_in_rows(
                        positions,
                        range,
                        si * per,
                        (si + 1) * per,
                        |a, b| {
                            // A depleted radio forms no links
                            // (finite-battery model).
                            if !energy.is_depleted(a) && !energy.is_depleted(b) {
                                buf.push(ContactKey(a, b));
                            }
                        },
                    );
                };
                let bufs = &mut self.stripe_buffers[..stripes];
                if self.workers > 1 {
                    let per_worker = stripes.div_ceil(self.workers);
                    std::thread::scope(|s| {
                        for (w, worker_bufs) in bufs.chunks_mut(per_worker).enumerate() {
                            let sweep_stripe = &sweep_stripe;
                            s.spawn(move || {
                                for (off, buf) in worker_bufs.iter_mut().enumerate() {
                                    sweep_stripe(w * per_worker + off, buf);
                                }
                            });
                        }
                    });
                } else {
                    for (si, buf) in bufs.iter_mut().enumerate() {
                        sweep_stripe(si, buf);
                    }
                }
                for buf in &self.stripe_buffers[..stripes] {
                    self.scratch_in_range.extend_from_slice(buf);
                }
            } else {
                let in_range = &mut self.scratch_in_range;
                self.grid.for_each_pair_within(positions, range, |a, b| {
                    // A depleted radio forms no links (finite-battery model).
                    if !energy.is_depleted(a) && !energy.is_depleted(b) {
                        in_range.push(ContactKey(a, b));
                    }
                });
            }
        }
        self.scratch_in_range.sort_unstable();
        // 2b. Link-level fault injection: crashed nodes form no links,
        // blocked (cut) pairs stay apart, and active links may be freshly
        // cut. Vetoed pairs fall out of `in_range`, so the ordinary
        // contact-down machinery (transfer aborts included) fires below.
        if let Some(inj) = self.faults.as_mut() {
            let contacts = &self.api.contacts;
            let cuts = inj.veto_links(
                &mut self.scratch_in_range,
                |k| contacts.is_up(k.0, k.1),
                now,
                dt,
            );
            for key in cuts {
                self.api
                    .trace
                    .record(now, TraceEvent::LinkCut { a: key.0, b: key.1 });
            }
        }
        self.api.counters.contact_pairs += self.scratch_in_range.len() as u64;
        let events = self.api.contacts.diff(&self.scratch_in_range, now);
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
                    if let Some(rs) = self.retries.as_mut() {
                        rs.note_contact_down(key, now);
                    }
                    let aborted = self.api.transfers.abort_between(key.0, key.1, now);
                    self.api.counters.checkpoints_evicted =
                        self.api.transfers.checkpoints_evicted();
                    for a in aborted {
                        self.api.counters.note_abort(a.reason);
                        self.api.stats.record_abort();
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
                    if let Some(rs) = self.retries.as_mut() {
                        rs.note_contact_up(key, now);
                    }
                    self.protocol.on_contact_up(&mut self.api, key.0, key.1);
                }
            }
        }
        self.profiler.stop(Phase::ProtocolExchange, scope);

        // 3. Scheduled message creations due by `now`.
        let scope = self.profiler.start();
        while self.next_scheduled < self.schedule.len()
            && self.schedule[self.next_scheduled].at <= now
        {
            let m = self.schedule[self.next_scheduled].clone();
            self.next_scheduled += 1;
            self.create_message(m);
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
            self.api.stats.record_abort();
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
                self.api.stats.record_abort();
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
                self.api.stats.record_abort();
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
        if now.duration_since(self.last_sweep).as_secs() >= self.ttl_sweep_every.as_secs() {
            self.last_sweep = now;
            for i in 0..self.api.buffers.len() {
                let expired = self.api.buffers[i].sweep_expired(now);
                if !expired.is_empty() {
                    self.api.counters.ttl_expiries += expired.len() as u64;
                    self.api.stats.record_expiries(expired.len());
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

        // 7. Cadenced invariant audit, while the step's state is fresh.
        let scope = self.profiler.start();
        let audit_due = self.checker.as_mut().is_some_and(InvariantChecker::due);
        if audit_due {
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
        self.api.now += dt;
    }

    /// Offers an aborted transfer to the retry scheduler; records the trace
    /// event when a retry is actually scheduled. No-op without a policy.
    fn schedule_retry(&mut self, a: &AbortedTransfer, now: SimTime) {
        let Some(rs) = self.retries.as_mut() else {
            return;
        };
        if let Some(attempt) = rs.on_abort(a, now) {
            self.api.counters.transfers_retried += 1;
            self.api.stats.record_retry();
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
                self.api.stats.record_abandon();
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
                .map_or(0, crate::message::MessageCopy::size_bytes);
            let resumes = self
                .api
                .transfers
                .checkpoint_of(r.from, r.to, r.message)
                .is_some_and(|c| c.bytes_total == bytes);
            if self
                .api
                .transfers
                .enqueue(r.from, r.to, r.message, bytes, now)
                && resumes
            {
                self.api.counters.transfers_resumed += 1;
                self.api.stats.record_resume();
                self.api.trace.record(
                    now,
                    TraceEvent::TransferResumed {
                        message: r.message,
                        from: r.from,
                        to: r.to,
                    },
                );
            }
        }
        rs.queue = keep;
    }

    fn create_message(&mut self, m: ScheduledMessage) {
        let id = MessageId(self.next_message_id);
        self.next_message_id += 1;
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
            if self.checker.is_some() {
                self.enforce_invariants();
            }
        }
        let mut summary = self.api.stats.summarize();
        summary.depleted_nodes = self.api.depleted_count() as u64;
        summary
    }

    /// Consumes the simulation, returning the protocol (for post-run
    /// inspection of ledgers, reputation tables, …) and the summary.
    pub fn finish(mut self) -> (P, RunSummary) {
        if !self.finished {
            self.protocol.on_finish(&mut self.api);
        }
        let mut summary = self.api.stats.summarize();
        summary.depleted_nodes = self.api.depleted_count() as u64;
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

    #[test]
    fn adaptive_backoff_flag_off_is_byte_identical() {
        let plan: FaultPlan = "cut=20,cutdown=15,loss=0.2".parse().unwrap();
        let run = |adaptive: Option<bool>| {
            let mut sim = SimulationBuilder::new(Area::new(2000.0, 2000.0), 41)
                .nodes(20, || {
                    Box::new(crate::mobility::RandomWaypoint::pedestrian())
                })
                .messages((0..10).map(|i| ScheduledMessage {
                    expected_destinations: vec![NodeId((i as u32 + 1) % 20)],
                    ..msg(i as f64 * 30.0, i as u32 % 20)
                }))
                .faults(plan)
                .recovery(RecoveryPolicy {
                    adaptive_backoff: adaptive,
                    ..RecoveryPolicy::default()
                })
                .trace(TraceLog::unbounded())
                .build(PushAll);
            let summary = sim.run_until(SimTime::from_secs(1800.0));
            (summary, sim.api().trace().render())
        };
        assert_eq!(
            run(None),
            run(Some(false)),
            "an explicit `false` must match an absent flag byte-for-byte"
        );
    }

    #[test]
    fn adaptive_backoff_bases_on_observed_gaps() {
        let policy = RecoveryPolicy {
            adaptive_backoff: Some(true),
            backoff_base_secs: 4.0,
            ..RecoveryPolicy::default()
        };
        let mut rs = RetryScheduler::new(policy, &SimRng::new(1));
        let key = ContactKey::new(NodeId(0), NodeId(1));
        // One complete gap is not enough evidence: still the fixed base.
        rs.note_contact_down(key, SimTime::from_secs(10.0));
        rs.note_contact_up(key, SimTime::from_secs(40.0));
        assert_eq!(rs.backoff_base(NodeId(0), NodeId(1)), 4.0);
        // Two gaps (30 s and 60 s) switch the pair to its observed mean.
        rs.note_contact_down(key, SimTime::from_secs(50.0));
        rs.note_contact_up(key, SimTime::from_secs(110.0));
        assert!((rs.backoff_base(NodeId(0), NodeId(1)) - 45.0).abs() < 1e-9);
        // Other pairs have no observations and keep the fixed base.
        assert_eq!(rs.backoff_base(NodeId(2), NodeId(3)), 4.0);

        // Disabled: observations are not even collected.
        let mut off = RetryScheduler::new(RecoveryPolicy::default(), &SimRng::new(1));
        off.note_contact_down(key, SimTime::from_secs(10.0));
        off.note_contact_up(key, SimTime::from_secs(40.0));
        off.note_contact_down(key, SimTime::from_secs(50.0));
        off.note_contact_up(key, SimTime::from_secs(110.0));
        assert!(off.gaps.is_empty());
        assert_eq!(
            off.backoff_base(NodeId(0), NodeId(1)),
            RecoveryPolicy::default().backoff_base_secs
        );
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
