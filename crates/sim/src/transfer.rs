//! Bandwidth-limited message transfers.
//!
//! Each node transmits at most one message at a time (a half-duplex serial
//! radio, as in ONE); queued transfers to any peer wait behind the current
//! one. A transfer progresses at the link speed while the contact stays up
//! and is aborted if the contact drops or the sender loses its buffered copy
//! mid-flight.
//!
//! With [`RecoveryPolicy::resume`] enabled the engine additionally keeps a
//! per-`(src, dst, message)` checkpoint of the bytes already on the air when
//! a `ContactDown` abort strikes, and a later enqueue of the same transfer
//! resumes from that offset instead of restarting from zero (reactive
//! fragmentation). Checkpoints are sender-side bookkeeping only — no payload
//! is stored — and are dropped on completion, source loss, or a buffer wipe
//! at either endpoint.

use std::collections::{BTreeSet, HashMap, VecDeque};

use serde::{Deserialize, Serialize};

use crate::message::MessageId;
use crate::time::{SimDuration, SimTime};
use crate::world::NodeId;

/// Recovery knobs for the transfer path: checkpoint/resume plus the
/// kernel's deterministic retry queue.
///
/// Absent (`recovery: None` in a scenario) the kernel behaves exactly as
/// before: aborted transfers lose all progress and are never retried. The
/// [`Default`] is a sensible *enabled* configuration — presence of the
/// policy is what turns recovery on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[serde(default)]
pub struct RecoveryPolicy {
    /// Checkpoint partial progress on `ContactDown` aborts and resume from
    /// the saved byte offset at the next enqueue of the same transfer.
    pub resume: bool,
    /// Maximum retry attempts per `(src, dst, message)` transfer; `0`
    /// disables the retry queue entirely.
    pub retry_max: u32,
    /// Base backoff in seconds: attempt `k` (0-based) waits
    /// `base * 2^k`, jittered ±50%, capped at `backoff_cap_secs`.
    pub backoff_base_secs: f64,
    /// Upper bound on any single backoff delay, in seconds.
    pub backoff_cap_secs: f64,
    /// Per-message cap on corruption (`Injected`) redeliveries: a payload
    /// destroyed more than this many times on one link is abandoned.
    pub redelivery_cap: u32,
    /// Per-`(sender, receiver)` budget of retransmissions across the whole
    /// run; exhausted pairs stop retrying (starvation guard against a
    /// pathologically lossy link eating the radio).
    pub peer_budget: u32,
    /// Upper bound on live checkpoints; `0` means unbounded. At capacity
    /// the least-recently-touched checkpoint (by sim time, ties broken by
    /// key) is evicted — its transfer restarts from byte zero if retried.
    pub checkpoint_capacity: usize,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            resume: true,
            retry_max: 3,
            backoff_base_secs: 10.0,
            backoff_cap_secs: 300.0,
            redelivery_cap: 2,
            peer_budget: 64,
            checkpoint_capacity: 1024,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that changes nothing: no resume, no retries.
    #[must_use]
    pub fn disabled() -> Self {
        RecoveryPolicy {
            resume: false,
            retry_max: 0,
            ..RecoveryPolicy::default()
        }
    }

    /// Whether this policy perturbs a run at all.
    #[must_use]
    pub fn is_inert(&self) -> bool {
        !self.resume && self.retry_max == 0
    }

    /// Validates the knobs, returning a description of the first problem.
    ///
    /// # Errors
    ///
    /// Returns `Err` if any delay is non-finite or negative, the cap is
    /// below the base, or retries are enabled with a zero base delay.
    pub fn validate(&self) -> Result<(), String> {
        if !self.backoff_base_secs.is_finite() || self.backoff_base_secs < 0.0 {
            return Err(format!(
                "backoff_base_secs must be finite and >= 0, got {}",
                self.backoff_base_secs
            ));
        }
        if !self.backoff_cap_secs.is_finite() || self.backoff_cap_secs < self.backoff_base_secs {
            return Err(format!(
                "backoff_cap_secs must be finite and >= backoff_base_secs, got {}",
                self.backoff_cap_secs
            ));
        }
        if self.retry_max > 0 && self.backoff_base_secs == 0.0 {
            return Err("retries enabled but backoff_base_secs is zero".into());
        }
        Ok(())
    }
}

/// A saved partial-transfer offset: how many bytes of a transfer of
/// `bytes_total` were already on the air when the contact dropped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Checkpoint {
    /// Bytes already transmitted.
    pub bytes_sent: f64,
    /// Total payload size the checkpoint was taken against; a resume only
    /// applies when the re-enqueued size matches.
    pub bytes_total: u64,
}

/// A stored checkpoint plus the LRU bookkeeping the capacity bound needs.
#[derive(Debug, Clone, Copy)]
struct CheckpointSlot {
    checkpoint: Checkpoint,
    /// Sim time of the last save or resume-read; the eviction victim is
    /// the minimum `(last_touch, key)` (the key tie-break keeps eviction
    /// order deterministic when several checkpoints share a timestamp).
    last_touch: SimTime,
}

/// A transfer that has been requested but not yet finished. Snapshots
/// carry it as is.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transfer {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The message being pushed.
    pub message: MessageId,
    /// Payload size in bytes.
    pub bytes_total: u64,
    /// Bytes already on the air.
    pub bytes_sent: f64,
    /// When transmission of this message actually began (None while queued).
    pub started_at: Option<SimTime>,
    /// When the transfer was requested.
    pub requested_at: SimTime,
}

/// A finished transfer, reported to the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedTransfer {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The message moved.
    pub message: MessageId,
    /// Payload size in bytes.
    pub bytes: u64,
    /// Time spent on the air.
    pub airtime: SimDuration,
    /// Distance between the endpoints at completion, in meters (feeds the
    /// Friis reception-power term of the hardware incentive).
    pub distance_m: f64,
    /// Completion time.
    pub finished_at: SimTime,
}

/// Why a transfer was aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The contact between the endpoints went down.
    ContactDown,
    /// The sender no longer holds the message (TTL expiry or eviction).
    SourceGone,
    /// The fault-injection layer destroyed the payload (loss or
    /// corruption): the transfer physically completed but nothing usable
    /// arrived.
    Injected,
}

/// An aborted transfer, reported to the protocol layer.
#[derive(Debug, Clone, PartialEq)]
pub struct AbortedTransfer {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The message that did not make it.
    pub message: MessageId,
    /// Bytes wasted on the air before the abort.
    pub bytes_sent: f64,
    /// Why it failed.
    pub reason: AbortReason,
}

/// Snapshot image of one saved checkpoint, key included.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointState {
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// The checkpointed message.
    pub message: MessageId,
    /// Bytes already transmitted when the checkpoint was taken.
    pub bytes_sent: f64,
    /// Payload size the checkpoint was taken against.
    pub bytes_total: u64,
    /// Sim time of the last save or resume-read (LRU bookkeeping).
    pub last_touch: SimTime,
}

/// The dynamic state of a [`TransferEngine`], detached from its
/// configuration (node count, link speed, resume flag, capacity — all of
/// which are rebuilt from the scenario on restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransferEngineState {
    /// Per-sender FIFOs, indexed by sender id; most are empty.
    pub queues: Vec<Vec<Transfer>>,
    /// Live checkpoints, sorted by `(from, to, message)` so the image is
    /// deterministic regardless of `HashMap` iteration order.
    pub checkpoints: Vec<CheckpointState>,
    /// Checkpoints dropped by the capacity bound so far.
    pub checkpoints_evicted: u64,
}

/// Per-sender transfer scheduling for the whole world.
#[derive(Debug)]
pub struct TransferEngine {
    /// One FIFO per sender; the head is the in-flight transfer.
    queues: Vec<VecDeque<Transfer>>,
    /// Senders with a non-empty queue, maintained incrementally by
    /// enqueue/abort/step. [`Self::step`] walks only this index in
    /// one batched pass instead of scanning every sender's (mostly empty)
    /// queue each step. A `BTreeSet` iterates in ascending sender id, which
    /// is exactly the order the full scan used — output is byte-identical.
    active: BTreeSet<NodeId>,
    /// Scratch for senders drained within one `step` call, reused across
    /// steps so the batched pass allocates nothing in steady state.
    scratch_drained: Vec<NodeId>,
    link_speed_bps: f64,
    /// Partial-progress offsets saved on `ContactDown`, keyed by
    /// `(from, to, message)`. Only populated when `resume` is on.
    checkpoints: HashMap<(NodeId, NodeId, MessageId), CheckpointSlot>,
    resume: bool,
    /// Max live checkpoints (`0` = unbounded); see
    /// [`RecoveryPolicy::checkpoint_capacity`].
    checkpoint_capacity: usize,
    /// Checkpoints dropped by the capacity bound (not by completion,
    /// source loss, or wipes).
    checkpoints_evicted: u64,
}

impl TransferEngine {
    /// Creates an engine for `node_count` nodes at `link_speed_bps`.
    ///
    /// # Panics
    ///
    /// Panics if the link speed is not strictly positive.
    #[must_use]
    pub fn new(node_count: usize, link_speed_bps: f64) -> Self {
        assert!(link_speed_bps > 0.0, "link speed must be positive");
        TransferEngine {
            queues: vec![VecDeque::new(); node_count],
            active: BTreeSet::new(),
            scratch_drained: Vec::new(),
            link_speed_bps,
            checkpoints: HashMap::new(),
            resume: false,
            checkpoint_capacity: 0,
            checkpoints_evicted: 0,
        }
    }

    /// Number of senders with at least one queued or in-flight transfer —
    /// the size of the batched step index.
    #[must_use]
    pub fn active_senders(&self) -> usize {
        self.active.len()
    }

    /// Audit: checks the active-sender index against the queues themselves,
    /// returning a description of the first mismatch. Used by tests and the
    /// invariant checker; not on the hot path.
    pub fn audit_active_index(&self) -> Result<(), String> {
        let reference: BTreeSet<NodeId> = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        if reference == self.active {
            Ok(())
        } else {
            Err(format!(
                "active-sender index drifted: indexed {:?}, queues say {:?}",
                self.active, reference
            ))
        }
    }

    /// Enables (or disables) checkpoint/resume. Off by default; with it
    /// off the engine is byte-identical to the pre-recovery engine.
    pub fn set_resume(&mut self, on: bool) {
        self.resume = on;
        if !on {
            self.checkpoints.clear();
        }
    }

    /// The saved checkpoint for `(from, to, message)`, if any.
    #[must_use]
    pub fn checkpoint_of(
        &self,
        from: NodeId,
        to: NodeId,
        message: MessageId,
    ) -> Option<Checkpoint> {
        self.checkpoints
            .get(&(from, to, message))
            .map(|s| s.checkpoint)
    }

    /// Number of live checkpoints.
    #[must_use]
    pub fn checkpoint_count(&self) -> usize {
        self.checkpoints.len()
    }

    /// Bounds the checkpoint store to `capacity` entries (`0` = unbounded),
    /// evicting least-recently-touched entries immediately if already over.
    pub fn set_checkpoint_capacity(&mut self, capacity: usize) {
        self.checkpoint_capacity = capacity;
        self.evict_to_capacity();
    }

    /// Checkpoints dropped so far by the capacity bound.
    #[must_use]
    pub fn checkpoints_evicted(&self) -> u64 {
        self.checkpoints_evicted
    }

    /// Evicts least-recently-touched checkpoints until the store fits the
    /// capacity bound. Victim order is the minimum `(last_touch, key)` —
    /// deterministic even though the store itself is a `HashMap`.
    fn evict_to_capacity(&mut self) {
        if self.checkpoint_capacity == 0 {
            return;
        }
        while self.checkpoints.len() > self.checkpoint_capacity {
            let victim = self
                .checkpoints
                .iter()
                .map(|(&k, s)| (s.last_touch.as_secs(), k))
                .min_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)))
                .map(|(_, k)| k)
                .expect("store over capacity is non-empty");
            self.checkpoints.remove(&victim);
            self.checkpoints_evicted += 1;
        }
    }

    /// Drops every checkpoint involving `node` as sender or receiver.
    /// Called when a crash wipes a buffer: partial bytes at a wiped
    /// receiver are gone, and a wiped sender has nothing left to resume.
    pub fn clear_checkpoints_involving(&mut self, node: NodeId) {
        self.checkpoints
            .retain(|&(from, to, _), _| from != node && to != node);
    }

    /// Captures the engine's dynamic state for a snapshot. Queues keep
    /// their FIFO order; checkpoints are emitted sorted by key.
    #[must_use]
    pub fn export_state(&self) -> TransferEngineState {
        let queues = self
            .queues
            .iter()
            .map(|q| q.iter().cloned().collect())
            .collect();
        let mut checkpoints: Vec<CheckpointState> = self
            .checkpoints
            .iter()
            .map(|(&(from, to, message), slot)| CheckpointState {
                from,
                to,
                message,
                bytes_sent: slot.checkpoint.bytes_sent,
                bytes_total: slot.checkpoint.bytes_total,
                last_touch: slot.last_touch,
            })
            .collect();
        checkpoints.sort_by_key(|c| (c.from, c.to, c.message));
        TransferEngineState {
            queues,
            checkpoints,
            checkpoints_evicted: self.checkpoints_evicted,
        }
    }

    /// Overwrites the engine's dynamic state from a snapshot, leaving the
    /// configuration (link speed, resume flag, checkpoint capacity) as
    /// built from the scenario. The active-sender index is rebuilt from
    /// the restored queues.
    ///
    /// # Errors
    ///
    /// Rejects a state whose queue count disagrees with this engine's node
    /// count, or that carries checkpoints while resume is off here.
    pub fn import_state(&mut self, state: &TransferEngineState) -> Result<(), String> {
        if state.queues.len() != self.queues.len() {
            return Err(format!(
                "snapshot has {} sender queues, world has {} nodes",
                state.queues.len(),
                self.queues.len()
            ));
        }
        if !self.resume && !state.checkpoints.is_empty() {
            return Err(format!(
                "snapshot carries {} checkpoints but resume is disabled in this scenario",
                state.checkpoints.len()
            ));
        }
        self.queues = state
            .queues
            .iter()
            .map(|q| q.iter().cloned().collect())
            .collect();
        self.active = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| !q.is_empty())
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        self.checkpoints = state
            .checkpoints
            .iter()
            .map(|c| {
                (
                    (c.from, c.to, c.message),
                    CheckpointSlot {
                        checkpoint: Checkpoint {
                            bytes_sent: c.bytes_sent,
                            bytes_total: c.bytes_total,
                        },
                        last_touch: c.last_touch,
                    },
                )
            })
            .collect();
        self.checkpoints_evicted = state.checkpoints_evicted;
        Ok(())
    }

    /// Byte-conservation audit: every queued transfer and every checkpoint
    /// must satisfy `0 <= bytes_sent <= bytes_total`. Violations are
    /// returned sorted (deterministic output for breach reports).
    #[must_use]
    pub fn audit_bytes(&self) -> Vec<String> {
        let mut out = Vec::new();
        for q in &self.queues {
            for t in q {
                if !(t.bytes_sent >= 0.0 && t.bytes_sent <= t.bytes_total as f64 + 1e-6) {
                    out.push(format!(
                        "transfer {}->{} msg {} has bytes_sent {} outside [0, {}]",
                        t.from.index(),
                        t.to.index(),
                        t.message.0,
                        t.bytes_sent,
                        t.bytes_total
                    ));
                }
            }
        }
        for (&(from, to, msg), slot) in &self.checkpoints {
            let c = slot.checkpoint;
            if !(c.bytes_sent > 0.0 && c.bytes_sent <= c.bytes_total as f64 + 1e-6) {
                out.push(format!(
                    "checkpoint {}->{} msg {} has bytes_sent {} outside (0, {}]",
                    from.index(),
                    to.index(),
                    msg.0,
                    c.bytes_sent,
                    c.bytes_total
                ));
            }
        }
        out.sort();
        out
    }

    /// Queues a transfer of `message` from `from` to `to`.
    ///
    /// Duplicate enqueues of the same `(from, to, message)` are ignored and
    /// return `false`. With resume enabled, a matching checkpoint (same
    /// payload size) seeds `bytes_sent` so transmission continues from the
    /// saved offset.
    pub fn enqueue(
        &mut self,
        from: NodeId,
        to: NodeId,
        message: MessageId,
        bytes: u64,
        now: SimTime,
    ) -> bool {
        let q = &mut self.queues[from.index()];
        if q.iter().any(|t| t.to == to && t.message == message) {
            return false;
        }
        let resumed_from = if self.resume {
            match self.checkpoints.get_mut(&(from, to, message)) {
                Some(slot) if slot.checkpoint.bytes_total == bytes => {
                    // A resume-read counts as a touch: a checkpoint that is
                    // actively being retried should outlive cold ones.
                    slot.last_touch = now;
                    slot.checkpoint.bytes_sent.min(bytes as f64)
                }
                _ => 0.0,
            }
        } else {
            0.0
        };
        q.push_back(Transfer {
            from,
            to,
            message,
            bytes_total: bytes,
            bytes_sent: resumed_from,
            started_at: None,
            requested_at: now,
        });
        self.active.insert(from);
        true
    }

    /// Number of queued + in-flight transfers for `from`.
    #[must_use]
    pub fn queue_len(&self, from: NodeId) -> usize {
        self.queues[from.index()].len()
    }

    /// Whether `(from, to, message)` is queued or in flight.
    #[must_use]
    pub fn is_pending(&self, from: NodeId, to: NodeId, message: MessageId) -> bool {
        self.queues[from.index()]
            .iter()
            .any(|t| t.to == to && t.message == message)
    }

    /// Total transfers pending across all senders.
    #[must_use]
    pub fn pending_total(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Aborts every pending transfer between `a` and `b` (both directions),
    /// returning the aborted records. Called on contact-down. With resume
    /// enabled, partial progress is checkpointed (touched at `now`) for a
    /// later re-enqueue.
    pub fn abort_between(&mut self, a: NodeId, b: NodeId, now: SimTime) -> Vec<AbortedTransfer> {
        let mut out = Vec::new();
        for (from, to) in [(a, b), (b, a)] {
            let q = &mut self.queues[from.index()];
            let mut keep = VecDeque::with_capacity(q.len());
            while let Some(t) = q.pop_front() {
                if t.to == to {
                    if self.resume && t.bytes_sent > 0.0 {
                        self.checkpoints.insert(
                            (t.from, t.to, t.message),
                            CheckpointSlot {
                                checkpoint: Checkpoint {
                                    bytes_sent: t.bytes_sent.min(t.bytes_total as f64),
                                    bytes_total: t.bytes_total,
                                },
                                last_touch: now,
                            },
                        );
                    }
                    out.push(AbortedTransfer {
                        from: t.from,
                        to: t.to,
                        message: t.message,
                        bytes_sent: t.bytes_sent,
                        reason: AbortReason::ContactDown,
                    });
                } else {
                    keep.push_back(t);
                }
            }
            *q = keep;
            if q.is_empty() {
                self.active.remove(&from);
            }
        }
        self.evict_to_capacity();
        out
    }

    /// Advances every sender's head transfer by `dt`.
    ///
    /// `sender_has_copy(from, message)` lets the engine abort transfers whose
    /// sender lost the buffered copy; `distance(a, b)` supplies the current
    /// distance for the completion record. Completions and aborts are
    /// returned sorted by sender id (deterministic).
    pub fn step(
        &mut self,
        dt: SimDuration,
        now: SimTime,
        mut sender_has_copy: impl FnMut(NodeId, MessageId) -> bool,
        mut distance: impl FnMut(NodeId, NodeId) -> f64,
    ) -> (Vec<CompletedTransfer>, Vec<AbortedTransfer>) {
        let mut completed = Vec::new();
        let mut aborted = Vec::new();
        // One batched pass over the active-sender index. The index iterates
        // in ascending sender id — identical to the full queue scan this
        // replaces (empty queues contributed nothing there), so the output
        // order is unchanged.
        self.scratch_drained.clear();
        for &from in &self.active {
            let q = &mut self.queues[from.index()];
            // Drop head transfers whose source copy vanished, then progress
            // the surviving head. Budget is per-sender airtime within dt.
            let mut budget = dt.as_secs();
            while budget > 0.0 {
                let Some(head) = q.front_mut() else { break };
                if !sender_has_copy(head.from, head.message) {
                    let t = q.pop_front().expect("head exists");
                    // The source copy is gone for good (TTL or eviction):
                    // nothing is left to resume from.
                    self.checkpoints.remove(&(t.from, t.to, t.message));
                    aborted.push(AbortedTransfer {
                        from: t.from,
                        to: t.to,
                        message: t.message,
                        bytes_sent: t.bytes_sent,
                        reason: AbortReason::SourceGone,
                    });
                    continue;
                }
                if head.started_at.is_none() {
                    head.started_at = Some(now);
                }
                let remaining_bytes = head.bytes_total as f64 - head.bytes_sent;
                let need_secs = remaining_bytes / self.link_speed_bps;
                if need_secs <= budget {
                    budget -= need_secs;
                    let t = q.pop_front().expect("head exists");
                    self.checkpoints.remove(&(t.from, t.to, t.message));
                    // Airtime is transmission time: the radio only pushes
                    // this transfer while it is the head, at link speed, so
                    // the on-air seconds are exactly bytes/speed. (Wall
                    // clock since `started_at` would double-count when two
                    // transfers finish within one step.)
                    let airtime =
                        SimDuration::from_secs(t.bytes_total as f64 / self.link_speed_bps);
                    completed.push(CompletedTransfer {
                        from: t.from,
                        to: t.to,
                        message: t.message,
                        bytes: t.bytes_total,
                        airtime,
                        distance_m: distance(t.from, t.to),
                        // Completion is processed within the step that
                        // starts at `now` (the receiver's copy records
                        // `received_at = now`), so the finish time matches.
                        finished_at: now,
                    });
                } else {
                    head.bytes_sent += budget * self.link_speed_bps;
                    budget = 0.0;
                }
            }
            if q.is_empty() {
                self.scratch_drained.push(from);
            }
        }
        for i in 0..self.scratch_drained.len() {
            let drained = self.scratch_drained[i];
            self.active.remove(&drained);
        }
        (completed, aborted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> TransferEngine {
        TransferEngine::new(4, 100.0) // 100 B/s for easy math
    }

    fn step_all(
        e: &mut TransferEngine,
        dt: f64,
        now: f64,
    ) -> (Vec<CompletedTransfer>, Vec<AbortedTransfer>) {
        e.step(
            SimDuration::from_secs(dt),
            SimTime::from_secs(now),
            |_, _| true,
            |_, _| 50.0,
        )
    }

    #[test]
    fn transfer_takes_size_over_speed_seconds() {
        let mut e = engine();
        assert!(e.enqueue(NodeId(0), NodeId(1), MessageId(1), 250, SimTime::ZERO));
        // 250 B at 100 B/s = 2.5 s: not done after 2 s...
        let (done, _) = step_all(&mut e, 1.0, 0.0);
        assert!(done.is_empty());
        let (done, _) = step_all(&mut e, 1.0, 1.0);
        assert!(done.is_empty());
        // ...done during the third second.
        let (done, _) = step_all(&mut e, 1.0, 2.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].message, MessageId(1));
        assert_eq!(done[0].bytes, 250);
        assert_eq!(done[0].distance_m, 50.0);
        assert_eq!(e.pending_total(), 0);
    }

    #[test]
    fn sender_serializes_transfers() {
        let mut e = engine();
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 100, SimTime::ZERO);
        e.enqueue(NodeId(0), NodeId(2), MessageId(2), 100, SimTime::ZERO);
        // Both fit in one 2 s step (1 s each) because the budget rolls over.
        let (done, _) = step_all(&mut e, 2.0, 0.0);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].message, MessageId(1));
        assert_eq!(done[1].message, MessageId(2));
    }

    #[test]
    fn duplicate_enqueue_ignored() {
        let mut e = engine();
        assert!(e.enqueue(NodeId(0), NodeId(1), MessageId(1), 100, SimTime::ZERO));
        assert!(!e.enqueue(NodeId(0), NodeId(1), MessageId(1), 100, SimTime::ZERO));
        assert_eq!(e.queue_len(NodeId(0)), 1);
        assert!(e.is_pending(NodeId(0), NodeId(1), MessageId(1)));
    }

    #[test]
    fn abort_between_clears_both_directions() {
        let mut e = engine();
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        e.enqueue(NodeId(1), NodeId(0), MessageId(2), 1000, SimTime::ZERO);
        e.enqueue(NodeId(0), NodeId(2), MessageId(3), 1000, SimTime::ZERO);
        let aborted = e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(aborted.len(), 2);
        assert!(aborted.iter().all(|a| a.reason == AbortReason::ContactDown));
        assert!(
            e.is_pending(NodeId(0), NodeId(2), MessageId(3)),
            "unrelated survives"
        );
    }

    #[test]
    fn source_gone_aborts_in_flight() {
        let mut e = engine();
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        let (done, aborted) = e.step(
            SimDuration::from_secs(1.0),
            SimTime::ZERO,
            |_, _| false,
            |_, _| 10.0,
        );
        assert!(done.is_empty());
        assert_eq!(aborted.len(), 1);
        assert_eq!(aborted[0].reason, AbortReason::SourceGone);
    }

    #[test]
    fn partial_progress_is_tracked() {
        let mut e = engine();
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        step_all(&mut e, 3.0, 0.0);
        let aborted = e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(aborted.len(), 1);
        assert!((aborted[0].bytes_sent - 300.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_transfer_completes_immediately() {
        let mut e = engine();
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 0, SimTime::ZERO);
        let (done, _) = step_all(&mut e, 1.0, 0.0);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn resume_restores_partial_progress() {
        let mut e = engine();
        e.set_resume(true);
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        step_all(&mut e, 3.0, 0.0); // 300 of 1000 bytes on the air
        let aborted = e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(aborted.len(), 1);
        let cp = e
            .checkpoint_of(NodeId(0), NodeId(1), MessageId(1))
            .expect("checkpointed");
        assert!((cp.bytes_sent - 300.0).abs() < 1e-9);
        assert_eq!(cp.bytes_total, 1000);

        // Re-enqueue: only the remaining 700 bytes are left, so the
        // transfer completes within 7 s instead of 10.
        assert!(e.enqueue(
            NodeId(0),
            NodeId(1),
            MessageId(1),
            1000,
            SimTime::from_secs(60.0)
        ));
        let (done, _) = step_all(&mut e, 7.0, 60.0);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].bytes, 1000);
        assert_eq!(e.checkpoint_count(), 0, "completion drops the checkpoint");
    }

    #[test]
    fn resume_off_restarts_from_zero() {
        let mut e = engine();
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        step_all(&mut e, 3.0, 0.0);
        e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(e.checkpoint_count(), 0, "no checkpoints without resume");
        e.enqueue(
            NodeId(0),
            NodeId(1),
            MessageId(1),
            1000,
            SimTime::from_secs(60.0),
        );
        let (done, _) = step_all(&mut e, 7.0, 60.0);
        assert!(done.is_empty(), "restart needs the full 10 s again");
    }

    #[test]
    fn checkpoint_ignored_when_size_differs() {
        let mut e = engine();
        e.set_resume(true);
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        step_all(&mut e, 3.0, 0.0);
        e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        // Same key, different payload size: must not resume from 300.
        e.enqueue(
            NodeId(0),
            NodeId(1),
            MessageId(1),
            500,
            SimTime::from_secs(60.0),
        );
        let (done, _) = step_all(&mut e, 3.0, 60.0);
        assert!(done.is_empty(), "500 B at 100 B/s needs 5 s from scratch");
        assert!(e.audit_bytes().is_empty());
    }

    #[test]
    fn source_gone_drops_checkpoints() {
        let mut e = engine();
        e.set_resume(true);
        // Source-gone mid-flight clears the checkpoint.
        e.enqueue(
            NodeId(0),
            NodeId(1),
            MessageId(2),
            1000,
            SimTime::from_secs(20.0),
        );
        step_all(&mut e, 3.0, 20.0);
        e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(e.checkpoint_count(), 1);
        e.enqueue(
            NodeId(0),
            NodeId(1),
            MessageId(2),
            1000,
            SimTime::from_secs(30.0),
        );
        let (_, aborted) = e.step(
            SimDuration::from_secs(1.0),
            SimTime::from_secs(30.0),
            |_, _| false,
            |_, _| 10.0,
        );
        assert_eq!(aborted[0].reason, AbortReason::SourceGone);
        assert_eq!(e.checkpoint_count(), 0);
    }

    #[test]
    fn wipe_clears_checkpoints_for_either_endpoint() {
        let mut e = engine();
        e.set_resume(true);
        for (msg, from, to) in [(1, 0, 1), (2, 2, 0), (3, 2, 3)] {
            e.enqueue(
                NodeId(from),
                NodeId(to),
                MessageId(msg),
                1000,
                SimTime::ZERO,
            );
            step_all(&mut e, 3.0, 0.0);
            e.abort_between(NodeId(from), NodeId(to), SimTime::ZERO);
        }
        assert_eq!(e.checkpoint_count(), 3);
        e.clear_checkpoints_involving(NodeId(0));
        assert_eq!(e.checkpoint_count(), 1, "only 2->3 survives a wipe of 0");
        assert!(e
            .checkpoint_of(NodeId(2), NodeId(3), MessageId(3))
            .is_some());
    }

    #[test]
    fn active_index_tracks_queue_population() {
        let mut e = engine();
        assert_eq!(e.active_senders(), 0);
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 100, SimTime::ZERO);
        e.enqueue(NodeId(2), NodeId(3), MessageId(2), 1000, SimTime::ZERO);
        assert_eq!(e.active_senders(), 2);
        e.audit_active_index().unwrap();

        // Node 0's 100 B finish in one 1 s step; node 2 stays in flight.
        let (done, _) = step_all(&mut e, 1.0, 0.0);
        assert_eq!(done.len(), 1);
        assert_eq!(e.active_senders(), 1);
        e.audit_active_index().unwrap();

        e.abort_between(NodeId(2), NodeId(3), SimTime::ZERO);
        assert_eq!(e.active_senders(), 0);
        e.audit_active_index().unwrap();

        e.enqueue(NodeId(1), NodeId(0), MessageId(3), 500, SimTime::ZERO);
        e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        assert_eq!(e.active_senders(), 0);
        e.audit_active_index().unwrap();
    }

    #[test]
    fn checkpoint_capacity_evicts_least_recently_touched() {
        let mut e = engine();
        e.set_resume(true);
        e.set_checkpoint_capacity(2);
        // Three partial transfers checkpointed at t=10, 20, 30.
        for (msg, at) in [(1u64, 10.0), (2, 20.0), (3, 30.0)] {
            e.enqueue(
                NodeId(0),
                NodeId(1),
                MessageId(msg),
                1000,
                SimTime::from_secs(at),
            );
            step_all(&mut e, 3.0, at);
            e.abort_between(NodeId(0), NodeId(1), SimTime::from_secs(at));
        }
        assert_eq!(e.checkpoint_count(), 2, "capacity bound holds");
        assert_eq!(e.checkpoints_evicted(), 1);
        assert!(
            e.checkpoint_of(NodeId(0), NodeId(1), MessageId(1))
                .is_none(),
            "oldest touch (t=10) evicted first"
        );
        assert!(e
            .checkpoint_of(NodeId(0), NodeId(1), MessageId(2))
            .is_some());

        // Touch msg 2 by resuming it at t=40, then checkpoint msg 4:
        // msg 3 (untouched since t=30) is now the LRU victim.
        e.enqueue(
            NodeId(0),
            NodeId(1),
            MessageId(2),
            1000,
            SimTime::from_secs(40.0),
        );
        e.abort_between(NodeId(0), NodeId(1), SimTime::from_secs(40.0));
        e.enqueue(
            NodeId(0),
            NodeId(1),
            MessageId(4),
            1000,
            SimTime::from_secs(50.0),
        );
        step_all(&mut e, 3.0, 50.0);
        e.abort_between(NodeId(0), NodeId(1), SimTime::from_secs(50.0));
        assert_eq!(e.checkpoints_evicted(), 2);
        assert!(
            e.checkpoint_of(NodeId(0), NodeId(1), MessageId(3))
                .is_none(),
            "LRU victim is the untouched checkpoint, not the resumed one"
        );
        assert!(e
            .checkpoint_of(NodeId(0), NodeId(1), MessageId(2))
            .is_some());
        assert!(e
            .checkpoint_of(NodeId(0), NodeId(1), MessageId(4))
            .is_some());
        assert!(e.audit_bytes().is_empty());
    }

    #[test]
    fn zero_capacity_means_unbounded() {
        let mut e = engine();
        e.set_resume(true);
        for msg in 1..=5u64 {
            e.enqueue(NodeId(0), NodeId(1), MessageId(msg), 1000, SimTime::ZERO);
            step_all(&mut e, 1.0, 0.0);
            e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        }
        assert_eq!(e.checkpoint_count(), 5);
        assert_eq!(e.checkpoints_evicted(), 0);
    }

    #[test]
    fn recovery_policy_validates_and_defaults() {
        assert!(RecoveryPolicy::default().validate().is_ok());
        assert!(!RecoveryPolicy::default().is_inert());
        assert!(RecoveryPolicy::disabled().is_inert());
        let bad = RecoveryPolicy {
            backoff_cap_secs: 1.0,
            backoff_base_secs: 10.0,
            ..RecoveryPolicy::default()
        };
        assert!(bad.validate().is_err());
        let zero_base = RecoveryPolicy {
            backoff_base_secs: 0.0,
            backoff_cap_secs: 0.0,
            ..RecoveryPolicy::default()
        };
        assert!(zero_base.validate().is_err());
    }

    /// A busy engine exported mid-run and imported into a fresh one
    /// finishes the same transfers at the same times.
    #[test]
    fn export_import_resumes_queues_and_checkpoints() {
        let mut e = engine();
        e.set_resume(true);
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        step_all(&mut e, 2.0, 0.0);
        e.abort_between(NodeId(0), NodeId(1), SimTime::from_secs(2.0));
        e.enqueue(NodeId(2), NodeId(3), MessageId(2), 450, SimTime::ZERO);
        e.enqueue(NodeId(2), NodeId(0), MessageId(3), 100, SimTime::ZERO);
        step_all(&mut e, 1.0, 2.0);
        let state = e.export_state();
        assert_eq!(state.queues[2].len(), 2, "FIFO order is kept");
        assert_eq!(state.checkpoints.len(), 1);

        let mut restored = engine();
        restored.set_resume(true);
        restored.import_state(&state).expect("imports");
        assert_eq!(restored.export_state(), state);
        assert_eq!(restored.active_senders(), 1);
        restored.audit_active_index().expect("index rebuilt");
        for now in 3..10 {
            let a = step_all(&mut e, 1.0, f64::from(now));
            let b = step_all(&mut restored, 1.0, f64::from(now));
            assert_eq!(a, b, "step at {now}");
        }
    }

    #[test]
    fn import_refuses_a_foreign_world_or_unexpected_checkpoints() {
        let mut e = engine();
        e.set_resume(true);
        e.enqueue(NodeId(0), NodeId(1), MessageId(1), 1000, SimTime::ZERO);
        step_all(&mut e, 2.0, 0.0);
        e.abort_between(NodeId(0), NodeId(1), SimTime::ZERO);
        let state = e.export_state();

        let mut wider = TransferEngine::new(5, 100.0);
        wider.set_resume(true);
        assert_eq!(
            wider.import_state(&state).unwrap_err(),
            "snapshot has 4 sender queues, world has 5 nodes"
        );
        let mut no_resume = engine();
        assert_eq!(
            no_resume.import_state(&state).unwrap_err(),
            "snapshot carries 1 checkpoints but resume is disabled in this scenario"
        );
        assert_eq!(no_resume.checkpoint_count(), 0);
    }

    #[test]
    fn byte_audit_names_impossible_progress() {
        let mut e = engine();
        e.set_resume(true);
        assert!(e.audit_bytes().is_empty());
        let mut state = e.export_state();
        state.queues[1].push(Transfer {
            from: NodeId(1),
            to: NodeId(2),
            message: MessageId(8),
            bytes_total: 100,
            bytes_sent: 150.0,
            started_at: Some(SimTime::ZERO),
            requested_at: SimTime::ZERO,
        });
        state.checkpoints.push(CheckpointState {
            from: NodeId(0),
            to: NodeId(3),
            message: MessageId(9),
            bytes_sent: 0.0,
            bytes_total: 100,
            last_touch: SimTime::ZERO,
        });
        e.import_state(&state).expect("imports");
        assert_eq!(
            e.audit_bytes(),
            vec![
                "checkpoint 0->3 msg 9 has bytes_sent 0 outside (0, 100]".to_string(),
                "transfer 1->2 msg 8 has bytes_sent 150 outside [0, 100]".to_string(),
            ]
        );
    }
}
