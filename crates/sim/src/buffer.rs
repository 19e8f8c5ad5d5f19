//! Per-node message buffers.
//!
//! Each node stores in-transit message copies in a byte-bounded buffer
//! (Table 5.1 default: 250 MB). When an incoming message does not fit, a
//! [`DropPolicy`] decides which existing copies to evict — ONE's default is
//! to drop the oldest-received copy, which we reproduce, with a priority-
//! aware alternative used by the priority-segmented experiment (Fig. 5.6).

use std::collections::HashMap;

use crate::fxhash::FxHashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::message::{Annotation, MessageBody, MessageCopy, MessageId, Priority};
use crate::time::SimTime;
use crate::world::NodeId;

/// What to evict when an arriving message does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropPolicy {
    /// Never evict; reject the newcomer instead.
    RejectNew,
    /// Evict the copy that has been buffered the longest (ONE's default).
    DropOldest,
    /// Evict lowest-priority first, oldest within a priority class.
    DropLowestPriority,
}

/// The outcome of attempting to insert a message into a buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The copy was stored; `evicted` lists any copies dropped to make room.
    Stored {
        /// Ids of evicted copies, in eviction order.
        evicted: Vec<MessageId>,
    },
    /// The copy was rejected (too large, duplicate, or policy refused).
    Rejected(RejectReason),
}

/// Why an insert was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// A copy of this message is already buffered (UUID dedup, §3.1).
    Duplicate,
    /// The message is larger than the whole buffer.
    TooLarge,
    /// The policy is [`DropPolicy::RejectNew`] and there was no room.
    NoRoom,
}

/// A byte-bounded store of message copies for one node.
#[derive(Debug)]
pub struct Buffer {
    capacity_bytes: u64,
    used_bytes: u64,
    policy: DropPolicy,
    copies: FxHashMap<MessageId, MessageCopy>,
    /// Lifetime count of successful inserts (the invariant checker
    /// reconciles `stored - removed` against the live copy count).
    lifetime_stored: u64,
    /// Lifetime count of removals (evictions, sweeps, explicit removes).
    lifetime_removed: u64,
    /// Bumped on every mutation (insert, remove, `get_mut`, restore) so
    /// routers can cache derived orderings keyed by this value. Not part
    /// of the snapshot wire format: caches start cold after a resume.
    generation: u64,
}

impl Buffer {
    /// Creates an empty buffer.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` is zero.
    #[must_use]
    pub fn new(capacity_bytes: u64, policy: DropPolicy) -> Self {
        assert!(capacity_bytes > 0, "buffer capacity must be positive");
        Buffer {
            capacity_bytes,
            used_bytes: 0,
            policy,
            copies: FxHashMap::default(),
            lifetime_stored: 0,
            lifetime_removed: 0,
            generation: 0,
        }
    }

    /// Monotonic mutation counter: two reads returning the same value
    /// guarantee the buffer contents (and copy annotations) are unchanged
    /// between them, so derived orderings may be reused.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The configured drop policy.
    #[must_use]
    pub fn policy(&self) -> DropPolicy {
        self.policy
    }

    /// Lifetime count of successful inserts.
    #[must_use]
    pub fn lifetime_stored(&self) -> u64 {
        self.lifetime_stored
    }

    /// Lifetime count of removals (evictions, TTL sweeps, explicit
    /// removes).
    #[must_use]
    pub fn lifetime_removed(&self) -> u64 {
        self.lifetime_removed
    }

    /// Bytes currently used.
    #[must_use]
    pub fn used_bytes(&self) -> u64 {
        self.used_bytes
    }

    /// Free space in bytes.
    #[must_use]
    pub fn free_bytes(&self) -> u64 {
        self.capacity_bytes - self.used_bytes
    }

    /// Number of buffered copies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.copies.len()
    }

    /// Whether the buffer holds no copies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// Whether a copy of `id` is buffered.
    #[must_use]
    pub fn contains(&self, id: MessageId) -> bool {
        self.copies.contains_key(&id)
    }

    /// The buffered copy of `id`, if any.
    #[must_use]
    pub fn get(&self, id: MessageId) -> Option<&MessageCopy> {
        self.copies.get(&id)
    }

    /// Mutable access to the buffered copy of `id` (used by enrichment).
    /// Conservatively bumps the generation: the caller may mutate fields
    /// (e.g. quality annotations) that derived orderings depend on.
    #[must_use]
    pub fn get_mut(&mut self, id: MessageId) -> Option<&mut MessageCopy> {
        self.generation += 1;
        self.copies.get_mut(&id)
    }

    /// Iterates over the buffered copies in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = &MessageCopy> {
        self.copies.values()
    }

    /// Ids of all buffered copies, sorted for deterministic iteration.
    #[must_use]
    pub fn ids_sorted(&self) -> Vec<MessageId> {
        let mut ids = Vec::new();
        self.ids_sorted_into(&mut ids);
        ids
    }

    /// [`Self::ids_sorted`] appended into a caller-owned buffer (cleared
    /// first) so hot routing passes can reuse one allocation.
    pub fn ids_sorted_into(&self, out: &mut Vec<MessageId>) {
        out.clear();
        out.extend(self.copies.keys().copied());
        out.sort_unstable();
    }

    /// Inserts a copy, evicting per policy if needed.
    pub fn insert(&mut self, copy: MessageCopy) -> InsertOutcome {
        let id = copy.id();
        let size = copy.size_bytes();
        if self.copies.contains_key(&id) {
            return InsertOutcome::Rejected(RejectReason::Duplicate);
        }
        if size > self.capacity_bytes {
            return InsertOutcome::Rejected(RejectReason::TooLarge);
        }
        let mut evicted = Vec::new();
        while self.used_bytes + size > self.capacity_bytes {
            match self.pick_victim() {
                Some(victim) => {
                    self.remove(victim);
                    evicted.push(victim);
                }
                None => return InsertOutcome::Rejected(RejectReason::NoRoom),
            }
        }
        self.used_bytes += size;
        self.copies.insert(id, copy);
        self.lifetime_stored += 1;
        self.generation += 1;
        InsertOutcome::Stored { evicted }
    }

    /// Removes the copy of `id`, returning it if present.
    pub fn remove(&mut self, id: MessageId) -> Option<MessageCopy> {
        let copy = self.copies.remove(&id)?;
        self.used_bytes -= copy.size_bytes();
        self.lifetime_removed += 1;
        self.generation += 1;
        Some(copy)
    }

    /// Removes all copies whose TTL has elapsed at `now`, returning their
    /// ids in ascending order (the backing map iterates in hash order,
    /// which differs between otherwise-identical runs).
    pub fn sweep_expired(&mut self, now: SimTime) -> Vec<MessageId> {
        let mut expired: Vec<MessageId> = self
            .copies
            .values()
            .filter(|c| c.body.is_expired(now))
            .map(MessageCopy::id)
            .collect();
        expired.sort_unstable();
        for id in &expired {
            self.remove(*id);
        }
        expired
    }

    /// Chooses an eviction victim per policy, or `None` to reject.
    fn pick_victim(&self) -> Option<MessageId> {
        match self.policy {
            DropPolicy::RejectNew => None,
            DropPolicy::DropOldest => self
                .copies
                .values()
                .min_by(|a, b| {
                    a.received_at
                        .partial_cmp(&b.received_at)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.id().cmp(&b.id()))
                })
                .map(MessageCopy::id),
            DropPolicy::DropLowestPriority => self
                .copies
                .values()
                .max_by(|a, b| {
                    // Priority::Low has the largest level(); evict it first,
                    // oldest first within a class (the oldest copy must be
                    // the max, so compare received_at in reverse).
                    priority_key(a.body.priority)
                        .cmp(&priority_key(b.body.priority))
                        .then(
                            b.received_at
                                .partial_cmp(&a.received_at)
                                .unwrap_or(std::cmp::Ordering::Equal),
                        )
                        .then(a.id().cmp(&b.id()))
                })
                .map(MessageCopy::id),
        }
    }
}

fn priority_key(p: Priority) -> u8 {
    p.level()
}

/// The snapshot of one buffered copy. The shared [`MessageBody`] is stored
/// once per message in the world snapshot, not per copy, so a copy records
/// only its id plus the per-copy divergent state (annotations, path,
/// arrival time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CopyState {
    /// The message this copy belongs to.
    pub id: MessageId,
    /// All tags on this copy, in add order.
    pub annotations: Vec<Annotation>,
    /// Every node this copy has visited.
    pub path: Vec<NodeId>,
    /// When the holding node received (or created) the copy.
    pub received_at: SimTime,
}

/// The dynamic state of one [`Buffer`] (capacity and policy are scenario
/// configuration and are rebuilt, not snapshotted; the bytes in use are
/// the sum of the copies' sizes, recomputed on restore).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferState {
    /// Buffered copies, sorted by message id.
    pub copies: Vec<CopyState>,
    /// Lifetime count of successful inserts.
    pub lifetime_stored: u64,
    /// Lifetime count of removals.
    pub lifetime_removed: u64,
}

impl Buffer {
    /// Captures the buffer's dynamic state for a snapshot, in sorted
    /// (deterministic) order.
    #[must_use]
    pub fn export_state(&self) -> BufferState {
        let mut copies: Vec<CopyState> = self
            .copies
            .values()
            .map(|c| CopyState {
                id: c.id(),
                annotations: c.annotations.clone(),
                path: c.path.clone(),
                received_at: c.received_at,
            })
            .collect();
        copies.sort_by_key(|c| c.id);
        BufferState {
            copies,
            lifetime_stored: self.lifetime_stored,
            lifetime_removed: self.lifetime_removed,
        }
    }

    /// Overwrites the buffer's dynamic state from a snapshot, resolving
    /// each copy's shared body from `bodies`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a copy whose body
    /// is absent from `bodies`, or copies that overflow the rebuilt
    /// capacity.
    pub fn import_state(
        &mut self,
        state: &BufferState,
        bodies: &HashMap<MessageId, Arc<MessageBody>>,
    ) -> Result<(), String> {
        let mut copies =
            FxHashMap::with_capacity_and_hasher(state.copies.len(), Default::default());
        let mut used_bytes: u64 = 0;
        for c in &state.copies {
            let body = bodies
                .get(&c.id)
                .ok_or_else(|| format!("buffered copy of {} has no body in the snapshot", c.id))?;
            used_bytes += body.size_bytes;
            copies.insert(
                c.id,
                MessageCopy {
                    body: Arc::clone(body),
                    annotations: c.annotations.clone(),
                    path: c.path.clone(),
                    received_at: c.received_at,
                },
            );
        }
        if used_bytes > self.capacity_bytes {
            return Err(format!(
                "snapshot holds {used_bytes} bytes but the rebuilt buffer capacity is {}",
                self.capacity_bytes
            ));
        }
        self.copies = copies;
        self.used_bytes = used_bytes;
        self.lifetime_stored = state.lifetime_stored;
        self.lifetime_removed = state.lifetime_removed;
        self.generation += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Keyword, MessageBody, Quality};
    use crate::world::NodeId;
    use std::sync::Arc;

    fn copy(id: u64, size: u64, prio: Priority, received: f64) -> MessageCopy {
        let body = Arc::new(MessageBody {
            id: MessageId(id),
            source: NodeId(0),
            created_at: SimTime::from_secs(received),
            size_bytes: size,
            ttl_secs: 1000.0,
            priority: prio,
            quality: Quality::new(0.5),
            ground_truth: vec![Keyword(0)],
        });
        MessageCopy::original(body, vec![Keyword(0)], SimTime::from_secs(received))
    }

    #[test]
    fn stores_until_full_then_evicts_oldest() {
        let mut b = Buffer::new(100, DropPolicy::DropOldest);
        assert!(matches!(
            b.insert(copy(1, 40, Priority::High, 1.0)),
            InsertOutcome::Stored { .. }
        ));
        assert!(matches!(
            b.insert(copy(2, 40, Priority::High, 2.0)),
            InsertOutcome::Stored { .. }
        ));
        // 80 used; inserting 40 must evict m1 (oldest).
        match b.insert(copy(3, 40, Priority::High, 3.0)) {
            InsertOutcome::Stored { evicted } => assert_eq!(evicted, vec![MessageId(1)]),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(!b.contains(MessageId(1)));
        assert!(b.contains(MessageId(2)) && b.contains(MessageId(3)));
        assert_eq!(b.used_bytes(), 80);
    }

    #[test]
    fn reject_new_policy_refuses_when_full() {
        let mut b = Buffer::new(100, DropPolicy::RejectNew);
        b.insert(copy(1, 80, Priority::High, 1.0));
        assert_eq!(
            b.insert(copy(2, 40, Priority::High, 2.0)),
            InsertOutcome::Rejected(RejectReason::NoRoom)
        );
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn duplicate_and_oversize_rejected() {
        let mut b = Buffer::new(100, DropPolicy::DropOldest);
        b.insert(copy(1, 10, Priority::High, 1.0));
        assert_eq!(
            b.insert(copy(1, 10, Priority::High, 2.0)),
            InsertOutcome::Rejected(RejectReason::Duplicate)
        );
        assert_eq!(
            b.insert(copy(2, 101, Priority::High, 2.0)),
            InsertOutcome::Rejected(RejectReason::TooLarge)
        );
    }

    #[test]
    fn low_priority_evicted_before_high() {
        let mut b = Buffer::new(100, DropPolicy::DropLowestPriority);
        b.insert(copy(1, 40, Priority::High, 1.0));
        b.insert(copy(2, 40, Priority::Low, 5.0));
        match b.insert(copy(3, 40, Priority::Medium, 9.0)) {
            InsertOutcome::Stored { evicted } => assert_eq!(evicted, vec![MessageId(2)]),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(b.contains(MessageId(1)), "high priority survives");
    }

    #[test]
    fn priority_tie_breaks_toward_oldest() {
        let mut b = Buffer::new(100, DropPolicy::DropLowestPriority);
        b.insert(copy(1, 40, Priority::Low, 1.0)); // older
        b.insert(copy(2, 40, Priority::Low, 5.0)); // newer
        match b.insert(copy(3, 40, Priority::High, 9.0)) {
            InsertOutcome::Stored { evicted } => {
                assert_eq!(
                    evicted,
                    vec![MessageId(1)],
                    "oldest of the low class goes first"
                );
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(b.contains(MessageId(2)));
    }

    #[test]
    fn big_insert_can_evict_multiple() {
        let mut b = Buffer::new(100, DropPolicy::DropOldest);
        b.insert(copy(1, 30, Priority::High, 1.0));
        b.insert(copy(2, 30, Priority::High, 2.0));
        b.insert(copy(3, 30, Priority::High, 3.0));
        match b.insert(copy(4, 90, Priority::High, 4.0)) {
            InsertOutcome::Stored { evicted } => {
                assert_eq!(evicted, vec![MessageId(1), MessageId(2), MessageId(3)]);
            }
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(b.used_bytes(), 90);
    }

    #[test]
    fn remove_frees_space() {
        let mut b = Buffer::new(100, DropPolicy::DropOldest);
        b.insert(copy(1, 60, Priority::High, 1.0));
        assert_eq!(b.free_bytes(), 40);
        let removed = b.remove(MessageId(1)).expect("present");
        assert_eq!(removed.id(), MessageId(1));
        assert_eq!(b.free_bytes(), 100);
        assert!(b.remove(MessageId(1)).is_none());
        assert!(b.is_empty());
    }

    #[test]
    fn ttl_sweep_removes_only_expired() {
        let mut b = Buffer::new(1000, DropPolicy::DropOldest);
        // copy() sets ttl 1000 s, created at `received`.
        b.insert(copy(1, 10, Priority::High, 0.0));
        b.insert(copy(2, 10, Priority::High, 500.0));
        let gone = b.sweep_expired(SimTime::from_secs(1200.0));
        assert_eq!(gone, vec![MessageId(1)]);
        assert!(b.contains(MessageId(2)));
        assert_eq!(b.used_bytes(), 10);
    }

    #[test]
    fn lifetime_counters_reconcile_with_live_count() {
        let mut b = Buffer::new(100, DropPolicy::DropOldest);
        assert_eq!(b.policy(), DropPolicy::DropOldest);
        b.insert(copy(1, 40, Priority::High, 1.0));
        b.insert(copy(2, 40, Priority::High, 2.0));
        b.insert(copy(3, 40, Priority::High, 3.0)); // evicts m1
        b.insert(copy(1, 40, Priority::High, 4.0)); // m1 re-stored, evicts m2
        b.remove(MessageId(3));
        b.sweep_expired(SimTime::from_secs(5000.0)); // everything expires
        assert!(b.is_empty());
        assert_eq!(
            b.lifetime_stored() - b.lifetime_removed(),
            b.len() as u64,
            "stored {} - removed {} must equal live count",
            b.lifetime_stored(),
            b.lifetime_removed()
        );
        assert_eq!(b.lifetime_stored(), 4);
    }

    #[test]
    fn sorted_ids_are_deterministic() {
        let mut b = Buffer::new(1000, DropPolicy::DropOldest);
        for id in [5u64, 1, 9, 3] {
            b.insert(copy(id, 10, Priority::High, id as f64));
        }
        assert_eq!(
            b.ids_sorted(),
            vec![MessageId(1), MessageId(3), MessageId(5), MessageId(9)]
        );
    }
}
