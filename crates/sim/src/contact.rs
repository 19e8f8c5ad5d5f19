//! Contact (link) tracking.
//!
//! A *contact* exists between two nodes while they are within radio range of
//! each other. Each step the kernel turns the table into that step's contact
//! set and receives the up/down events for the protocol layer, in one of two
//! ways. The event core ([`crate::events`]) hands over only the step's
//! transitions, through [`ContactTable::apply`]. The time-stepped oracle
//! hands over the full in-range list, and [`ContactTable::diff`] finds the
//! transitions itself. Both emit the same events in the same order: downs
//! sorted by pair, then ups sorted by pair.

use crate::fxhash::{FxHashMap, FxHashSet};

use crate::time::SimTime;
use crate::world::{ordered_pair, NodeId};

/// An unordered node pair, stored with the smaller id first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContactKey(pub NodeId, pub NodeId);

impl ContactKey {
    /// Creates a key, normalizing the order.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` (a node cannot contact itself).
    #[must_use]
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert!(a != b, "self-contact is not a contact");
        let (lo, hi) = ordered_pair(a, b);
        ContactKey(lo, hi)
    }

    /// The peer of `node` in this contact.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not an endpoint.
    #[must_use]
    pub fn peer_of(self, node: NodeId) -> NodeId {
        if self.0 == node {
            self.1
        } else if self.1 == node {
            self.0
        } else {
            panic!("{node} is not part of contact {self:?}")
        }
    }
}

/// A change in link state produced by one step's diff.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ContactEvent {
    /// The pair came into range.
    Up(ContactKey),
    /// The pair left range; carries the contact duration start time.
    Down(ContactKey, SimTime),
}

/// The set of currently-active contacts.
#[derive(Debug, Default)]
pub struct ContactTable {
    active: FxHashMap<ContactKey, SimTime>,
    /// Per-node sorted neighbour lists, maintained incrementally by
    /// [`Self::diff`] and [`Self::apply`] so [`Self::peers_of`] is
    /// O(degree) instead of a scan over every active contact (the protocol
    /// layer calls it per node per exchange, which made the scan quadratic
    /// in dense worlds).
    adjacency: FxHashMap<NodeId, Vec<NodeId>>,
    /// Scratch reused across [`Self::diff`] calls to avoid rebuilding a
    /// `HashSet` allocation every step.
    scratch_in_range: FxHashSet<ContactKey>,
    scratch_downs: Vec<ContactKey>,
}

fn adj_insert(adjacency: &mut FxHashMap<NodeId, Vec<NodeId>>, node: NodeId, peer: NodeId) {
    let peers = adjacency.entry(node).or_default();
    if let Err(pos) = peers.binary_search(&peer) {
        peers.insert(pos, peer);
    }
}

fn adj_remove(adjacency: &mut FxHashMap<NodeId, Vec<NodeId>>, node: NodeId, peer: NodeId) {
    if let Some(peers) = adjacency.get_mut(&node) {
        if let Ok(pos) = peers.binary_search(&peer) {
            peers.remove(pos);
        }
        if peers.is_empty() {
            adjacency.remove(&node);
        }
    }
}

impl ContactTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `a` and `b` are currently in contact.
    #[must_use]
    pub fn is_up(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.active.contains_key(&ContactKey::new(a, b))
    }

    /// When the contact between `a` and `b` came up, if active.
    #[must_use]
    pub fn up_since(&self, a: NodeId, b: NodeId) -> Option<SimTime> {
        if a == b {
            return None;
        }
        self.active.get(&ContactKey::new(a, b)).copied()
    }

    /// All peers currently in contact with `node`, sorted.
    ///
    /// Allocates a fresh `Vec`; hot paths should borrow via
    /// [`ContactTable::peers_of_slice`] instead.
    #[must_use]
    pub fn peers_of(&self, node: NodeId) -> Vec<NodeId> {
        self.peers_of_slice(node).to_vec()
    }

    /// All peers currently in contact with `node`, sorted, borrowed from
    /// the adjacency index — no allocation. Every router consults the
    /// neighbour list on every route decision, so the per-call `Vec` of
    /// [`ContactTable::peers_of`] showed up in whole-run profiles.
    #[must_use]
    pub fn peers_of_slice(&self, node: NodeId) -> &[NodeId] {
        self.adjacency.get(&node).map_or(&[], Vec::as_slice)
    }

    /// Audit: checks the incremental adjacency lists against a fresh scan of
    /// the active contact set, returning a description of the first mismatch.
    /// Used by tests and the invariant checker; not on the hot path.
    pub fn audit_adjacency(&self) -> Result<(), String> {
        let mut reference: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        for k in self.active.keys() {
            adj_insert(&mut reference, k.0, k.1);
            adj_insert(&mut reference, k.1, k.0);
        }
        if reference == self.adjacency {
            Ok(())
        } else {
            Err(format!(
                "adjacency drifted from active set: {} nodes indexed, {} expected",
                self.adjacency.len(),
                reference.len()
            ))
        }
    }

    /// Number of currently-active contacts.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The active contacts, sorted by pair.
    #[must_use]
    pub(crate) fn open_sorted(&self) -> Vec<ContactKey> {
        let mut open: Vec<ContactKey> = self.active.keys().copied().collect();
        open.sort_unstable();
        open
    }

    /// Diffs the active set against `now_in_range` (the pairs within range
    /// this step), returning the events in order: a down for every active
    /// contact missing from `now_in_range`, sorted by pair, then an up for
    /// every pair of `now_in_range` not yet active, in `now_in_range`'s
    /// order.
    ///
    /// `now_in_range` must contain normalized keys (smaller id first), which
    /// [`crate::world::SpatialGrid::for_each_pair_within`] guarantees; the
    /// kernel sorts it, so its ups are sorted too.
    pub fn diff(&mut self, now_in_range: &[ContactKey], now: SimTime) -> Vec<ContactEvent> {
        let mut events = Vec::new();
        // Downs: active contacts no longer in range. Indexed lookup — a
        // linear Vec::contains here makes the per-step diff quadratic in
        // the contact count, which dominates dense 500-node runs. The set
        // and the downs list are scratch buffers reused across steps so the
        // steady-state diff allocates nothing.
        self.scratch_in_range.clear();
        self.scratch_in_range.extend(now_in_range.iter().copied());
        self.scratch_downs.clear();
        for k in self.active.keys() {
            if !self.scratch_in_range.contains(k) {
                self.scratch_downs.push(*k);
            }
        }
        self.scratch_downs.sort_unstable();
        for i in 0..self.scratch_downs.len() {
            let k = self.scratch_downs[i];
            events.push(self.close(k));
        }
        // Ups: in-range pairs not yet active.
        for &k in now_in_range {
            if !self.active.contains_key(&k) {
                events.push(self.open(k, now));
            }
        }
        events
    }

    /// Applies one step's transitions and returns their events in the
    /// order [`Self::diff`] would: a down for each pair of `downs`, then an
    /// up for each pair of `ups`. Both lists must be sorted, every pair of
    /// `downs` must be active and no pair of `ups` may be.
    ///
    /// # Panics
    ///
    /// Panics if a pair of `downs` is not active or a pair of `ups` already
    /// is: the transitions do not describe this table.
    pub fn apply(
        &mut self,
        downs: &[ContactKey],
        ups: &[ContactKey],
        now: SimTime,
    ) -> Vec<ContactEvent> {
        let mut events = Vec::with_capacity(downs.len() + ups.len());
        for &k in downs {
            events.push(self.close(k));
        }
        for &k in ups {
            events.push(self.open(k, now));
        }
        events
    }

    /// Closes active contact `k`.
    fn close(&mut self, k: ContactKey) -> ContactEvent {
        let Some(since) = self.active.remove(&k) else {
            panic!("down for {k:?}, which is not up");
        };
        adj_remove(&mut self.adjacency, k.0, k.1);
        adj_remove(&mut self.adjacency, k.1, k.0);
        ContactEvent::Down(k, since)
    }

    /// Opens contact `k`, which is not active, at `now`.
    fn open(&mut self, k: ContactKey, now: SimTime) -> ContactEvent {
        assert!(
            self.active.insert(k, now).is_none(),
            "up for {k:?}, which is already up"
        );
        adj_insert(&mut self.adjacency, k.0, k.1);
        adj_insert(&mut self.adjacency, k.1, k.0);
        ContactEvent::Up(k)
    }

    /// Captures the table's dynamic state for a snapshot: the active
    /// contacts as sorted `(smaller, larger, up_since)` triples. The
    /// adjacency index is derived and rebuilt on restore; the lifetime
    /// contact count is the kernel's `contacts_up` counter.
    #[must_use]
    pub fn export_state(&self) -> Vec<(NodeId, NodeId, SimTime)> {
        let mut active: Vec<(NodeId, NodeId, SimTime)> = self
            .active
            .iter()
            .map(|(k, &since)| (k.0, k.1, since))
            .collect();
        active.sort_by_key(|&(a, b, _)| (a, b));
        active
    }

    /// Overwrites the table from a snapshot, rebuilding the adjacency
    /// index from the restored active set.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed entry (a self-contact
    /// or an unnormalized pair).
    pub fn import_state(&mut self, state: &[(NodeId, NodeId, SimTime)]) -> Result<(), String> {
        let mut active = FxHashMap::with_capacity_and_hasher(state.len(), Default::default());
        let mut adjacency: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        for &(a, b, since) in state {
            if a >= b {
                return Err(format!(
                    "snapshot contact ({a}, {b}) is not a normalized pair (need a < b)"
                ));
            }
            active.insert(ContactKey(a, b), since);
            adj_insert(&mut adjacency, a, b);
            adj_insert(&mut adjacency, b, a);
        }
        self.active = active;
        self.adjacency = adjacency;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(a: u32, b: u32) -> ContactKey {
        ContactKey::new(NodeId(a), NodeId(b))
    }

    #[test]
    fn key_normalizes_order() {
        assert_eq!(k(2, 1), k(1, 2));
        assert_eq!(k(1, 2).peer_of(NodeId(1)), NodeId(2));
        assert_eq!(k(1, 2).peer_of(NodeId(2)), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "self-contact")]
    fn self_contact_rejected() {
        let _ = k(3, 3);
    }

    #[test]
    fn diff_emits_downs_then_ups() {
        let mut t = ContactTable::new();
        let t0 = SimTime::from_secs(10.0);
        let ev = t.diff(&[k(0, 1), k(1, 2)], t0);
        assert_eq!(
            ev,
            vec![ContactEvent::Up(k(0, 1)), ContactEvent::Up(k(1, 2))]
        );
        assert!(t.is_up(NodeId(0), NodeId(1)));
        assert_eq!(t.up_since(NodeId(1), NodeId(2)), Some(t0));
        assert_eq!(t.active_count(), 2);

        let t1 = SimTime::from_secs(20.0);
        let ev = t.diff(&[k(1, 2), k(2, 3)], t1);
        assert_eq!(
            ev,
            vec![ContactEvent::Down(k(0, 1), t0), ContactEvent::Up(k(2, 3))]
        );
        assert!(!t.is_up(NodeId(0), NodeId(1)));
    }

    #[test]
    fn apply_emits_what_diff_emits() {
        let t0 = SimTime::from_secs(10.0);
        let t1 = SimTime::from_secs(20.0);
        let mut diffed = ContactTable::new();
        let mut applied = ContactTable::new();
        let ups = [k(0, 1), k(1, 2), k(2, 4)];
        assert_eq!(applied.apply(&[], &ups, t0), diffed.diff(&ups, t0));
        let ev = applied.apply(&[k(0, 1), k(2, 4)], &[k(2, 3)], t1);
        assert_eq!(ev, diffed.diff(&[k(1, 2), k(2, 3)], t1));
        assert_eq!(
            ev,
            vec![
                ContactEvent::Down(k(0, 1), t0),
                ContactEvent::Down(k(2, 4), t0),
                ContactEvent::Up(k(2, 3)),
            ]
        );
        assert_eq!(applied.export_state(), diffed.export_state());
        assert_eq!(applied.peers_of(NodeId(2)), vec![NodeId(1), NodeId(3)]);
        applied.audit_adjacency().unwrap();
    }

    #[test]
    #[should_panic(expected = "already up")]
    fn apply_rejects_an_up_for_an_open_contact() {
        let mut t = ContactTable::new();
        t.apply(&[], &[k(0, 1)], SimTime::ZERO);
        t.apply(&[], &[k(0, 1)], SimTime::ZERO);
    }

    #[test]
    fn peers_of_lists_sorted_neighbours() {
        let mut t = ContactTable::new();
        t.diff(&[k(5, 1), k(1, 3), k(2, 3)], SimTime::ZERO);
        assert_eq!(t.peers_of(NodeId(1)), vec![NodeId(3), NodeId(5)]);
        assert_eq!(t.peers_of(NodeId(4)), Vec::<NodeId>::new());
    }

    #[test]
    fn adjacency_tracks_ups_and_downs() {
        let mut t = ContactTable::new();
        t.diff(&[k(0, 1), k(0, 2), k(1, 2)], SimTime::ZERO);
        assert_eq!(t.peers_of(NodeId(0)), vec![NodeId(1), NodeId(2)]);
        t.audit_adjacency().unwrap();

        // Drop 0-1, keep the rest; 0 and 1 each lose exactly one peer.
        t.diff(&[k(0, 2), k(1, 2)], SimTime::from_secs(5.0));
        assert_eq!(t.peers_of(NodeId(0)), vec![NodeId(2)]);
        assert_eq!(t.peers_of(NodeId(1)), vec![NodeId(2)]);
        assert_eq!(t.peers_of(NodeId(2)), vec![NodeId(0), NodeId(1)]);
        t.audit_adjacency().unwrap();

        // Everything down: adjacency empties out.
        t.diff(&[], SimTime::from_secs(6.0));
        assert_eq!(t.peers_of(NodeId(2)), Vec::<NodeId>::new());
        t.audit_adjacency().unwrap();
    }

    #[test]
    fn adjacency_matches_scan_on_random_churn() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(99);
        let mut t = ContactTable::new();
        for step in 0..200u64 {
            let mut in_range: Vec<ContactKey> = (0..rng.gen_range(0..20))
                .map(|_| {
                    let a = rng.gen_range(0..10u32);
                    let mut b = rng.gen_range(0..10u32);
                    if b == a {
                        b = (b + 1) % 10;
                    }
                    k(a, b)
                })
                .collect();
            in_range.sort_unstable();
            in_range.dedup();
            t.diff(&in_range, SimTime::from_secs(step as f64));
            t.audit_adjacency().unwrap();
            for n in 0..10u32 {
                let node = NodeId(n);
                let mut scan: Vec<NodeId> = t
                    .peers_of(node)
                    .iter()
                    .copied()
                    .filter(|&p| t.is_up(node, p))
                    .collect();
                scan.sort_unstable();
                assert_eq!(t.peers_of(node), scan);
            }
        }
    }

    #[test]
    fn stable_contact_produces_no_events() {
        let mut t = ContactTable::new();
        t.diff(&[k(0, 1)], SimTime::ZERO);
        let ev = t.diff(&[k(0, 1)], SimTime::from_secs(1.0));
        assert!(ev.is_empty());
        assert_eq!(t.up_since(NodeId(0), NodeId(1)), Some(SimTime::ZERO));
    }
}
