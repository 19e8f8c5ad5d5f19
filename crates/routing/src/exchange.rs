//! Shared pairwise-exchange plumbing.
//!
//! Two rituals run on long-lived contacts: the RTSR weight exchange
//! (decay → swap → grow, Algorithms 1–2, driven by
//! [`crate::backend::ChitChatBackend`]) and a periodic "which pairs are due
//! again" schedule with exact once-per-span time crediting (the
//! [`ExchangeWheel`] the incentive overlay settles on, proven equivalent to
//! the [`due_pairs`] full scan). Both arms of every experiment run through
//! the same code, so the incentive arm always sees the *same* ChitChat
//! substrate as the baseline arm.

use std::collections::HashMap;

use dtn_sim::events::EventQueue;
use dtn_sim::fxhash::FxHashMap;
use dtn_sim::kernel::{whole_steps, STEP_SECS};
use dtn_sim::message::Keyword;
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;

use crate::interests::{ChitChatParams, InterestTable};

/// A set of keywords as a bitmap over the keyword id space.
///
/// Keyword ids are dense small integers drawn from the scenario's pool
/// (Table 5.1: 200), so membership — the only operation the exchange
/// ritual needs — is one bit test instead of a hash probe. Building the
/// union of several peers' tables touches a handful of words; the hashed
/// set this replaces dominated the settlement-tick profile.
#[derive(Debug, Clone, Default)]
pub struct KeywordSet {
    bits: Vec<u64>,
}

impl KeywordSet {
    /// Creates an empty set.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `keyword` to the set.
    pub fn insert(&mut self, keyword: Keyword) {
        let (word, bit) = (keyword.0 as usize / 64, keyword.0 % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        self.bits[word] |= 1 << bit;
    }

    /// Removes `keyword` from the set.
    pub fn remove(&mut self, keyword: Keyword) {
        let (word, bit) = (keyword.0 as usize / 64, keyword.0 % 64);
        if let Some(w) = self.bits.get_mut(word) {
            *w &= !(1 << bit);
        }
    }

    /// Whether `keyword` is in the set.
    #[must_use]
    pub fn contains(&self, keyword: Keyword) -> bool {
        let (word, bit) = (keyword.0 as usize / 64, keyword.0 % 64);
        self.bits.get(word).is_some_and(|w| w & (1 << bit) != 0)
    }

    /// Adds every keyword of `other` to this set (word-wise union).
    pub fn union_with(&mut self, other: &KeywordSet) {
        if other.bits.len() > self.bits.len() {
            self.bits.resize(other.bits.len(), 0);
        }
        for (dst, &src) in self.bits.iter_mut().zip(&other.bits) {
            *dst |= src;
        }
    }

    /// Number of keywords in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Empties the set, keeping the allocation (scratch reuse).
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Whether both sets hold exactly the same keywords. Trailing zero
    /// words are ignored, so sets that grew to different capacities still
    /// compare equal by content.
    #[must_use]
    pub fn same_keywords(&self, other: &KeywordSet) -> bool {
        let (short, long) = if self.bits.len() <= other.bits.len() {
            (&self.bits, &other.bits)
        } else {
            (&other.bits, &self.bits)
        };
        short.iter().zip(long.iter()).all(|(&a, &b)| a == b)
            && long[short.len()..].iter().all(|&w| w == 0)
    }

    /// Heap bytes held by the bitmap.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Keyword> + '_ {
        self.bits.iter().enumerate().flat_map(|(w, &word)| {
            let base = w as u32 * 64;
            SetBits(word).map(move |bit| Keyword(base + bit.trailing_zeros()))
        })
    }

    /// The number of members below `keyword`: the row index of a member,
    /// or the insertion point of a non-member, in a table whose rows are
    /// in keyword order. A popcount over the words below `keyword`'s.
    pub(crate) fn rank(&self, keyword: Keyword) -> usize {
        let (word, bit) = (keyword.0 as usize / 64, keyword.0 % 64);
        let below = self.bits.iter().take(word);
        let partial = self.word(word) & ((1 << bit) - 1);
        below.map(|w| w.count_ones() as usize).sum::<usize>() + partial.count_ones() as usize
    }

    /// The bitmap's words, lowest keywords first.
    pub(crate) fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Word `w` of the bitmap (zero past its end).
    pub(crate) fn word(&self, w: usize) -> u64 {
        self.bits.get(w).copied().unwrap_or(0)
    }

    /// Removes the members `bits` of word `w`.
    pub(crate) fn remove_word_bits(&mut self, w: usize, bits: u64) {
        if let Some(word) = self.bits.get_mut(w) {
            *word &= !bits;
        }
    }

    /// Appends the next 64 keywords' membership as one word.
    pub(crate) fn push_word(&mut self, word: u64) {
        self.bits.push(word);
    }

    /// Replaces the bitmap's words, keeping the allocation.
    pub(crate) fn set_words(&mut self, words: &[u64]) {
        self.bits.clear();
        self.bits.extend_from_slice(words);
    }
}

/// The set bits of a word, lowest first, each as a one-bit mask.
pub(crate) struct SetBits(pub(crate) u64);

impl Iterator for SetBits {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let bit = self.0 & self.0.wrapping_neg();
        self.0 ^= bit;
        (bit != 0).then_some(bit)
    }
}

/// Runs one RTSR weight exchange between connected `a` and `b`, crediting
/// `connected_secs` of contact time: decay both tables (an interest shared
/// by a currently-connected device is frozen, per the `shared_*` sets),
/// then grow each from the other's decayed table, both in one walk.
///
/// # Panics
///
/// Panics if `a` or `b` index outside `tables`.
#[allow(clippy::too_many_arguments)] // the Algorithm 1+2 parameter list
pub fn rtsr_exchange(
    tables: &mut [InterestTable],
    a: NodeId,
    b: NodeId,
    connected_secs: f64,
    params: &ChitChatParams,
    now: SimTime,
    shared_a: &KeywordSet,
    shared_b: &KeywordSet,
) {
    tables[a.index()].decay(now, params, shared_a);
    tables[b.index()].decay(now, params, shared_b);
    let (left, right) = tables.split_at_mut(a.index().max(b.index()));
    let (ta, tb) = if a < b {
        (&mut left[a.index()], &mut right[0])
    } else {
        (&mut right[0], &mut left[b.index()])
    };
    InterestTable::grow_mutual(ta, tb, connected_secs, params, now);
}

/// The union of keywords held by `peers`' tables — the "a connected device
/// shares this interest" test of Algorithm 1.
///
/// Each table maintains its own keyword bitmap, so the union is a handful
/// of word ORs per peer rather than a walk over every entry — this call
/// runs twice per due pair every settlement tick and used to dominate the
/// exchange profile at 1k nodes.
#[must_use]
pub fn shared_keywords(tables: &[InterestTable], peers: &[NodeId]) -> KeywordSet {
    let mut set = KeywordSet::new();
    shared_keywords_into(tables, peers, &mut set);
    set
}

/// [`shared_keywords`] into a caller-owned set (cleared first), so the
/// per-due-pair call sites stop allocating two bitmaps per settlement
/// service.
pub fn shared_keywords_into(tables: &[InterestTable], peers: &[NodeId], out: &mut KeywordSet) {
    out.clear();
    for &peer in peers {
        out.union_with(tables[peer.index()].keywords());
    }
}

/// Scans a `pair → last-serviced-at` map for pairs due another round:
/// returns `(pair, credited_secs)` sorted by pair, where `credited_secs`
/// is the exact span since the pair was last serviced (so repeated rounds
/// during one contact credit the contact time exactly once). The caller
/// updates the map after servicing.
#[must_use]
pub fn due_pairs<S: std::hash::BuildHasher>(
    last_serviced: &HashMap<(NodeId, NodeId), SimTime, S>,
    now: SimTime,
    interval_secs: f64,
) -> Vec<((NodeId, NodeId), f64)> {
    let mut due = Vec::new();
    due_pairs_into(last_serviced, now, interval_secs, &mut due);
    due
}

/// [`due_pairs`] writing into a caller-provided scratch vector, so call
/// sites that scan every settlement tick stop paying the allocator for a
/// fresh sorted vector each time. `out` is cleared first.
pub fn due_pairs_into<S: std::hash::BuildHasher>(
    last_serviced: &HashMap<(NodeId, NodeId), SimTime, S>,
    now: SimTime,
    interval_secs: f64,
    out: &mut Vec<((NodeId, NodeId), f64)>,
) {
    out.clear();
    out.extend(last_serviced.iter().filter_map(|(&pair, &t)| {
        let elapsed = now.duration_since(t).as_secs();
        (elapsed >= interval_secs).then_some((pair, elapsed))
    }));
    out.sort_unstable_by_key(|(pair, _)| *pair);
}

/// An incremental due-pair scheduler: each watched pair's step of last
/// service, and the kernel's [`EventQueue`] keyed by the step the pair is
/// next due, replacing the per-tick full scan of [`due_pairs`] with work
/// proportional to the pairs actually due.
///
/// The clock is a whole number of [`STEP_SECS`] steps, so the full scan's
/// predicate `(step − last) × STEP_SECS ≥ interval` first holds at
/// `last + interval_steps`, with `interval_steps = whole_steps(interval)`
/// (DESIGN.md §16). The wheel schedules each pair there, emits the due
/// pairs sorted by pair and credits each `(step − last) × STEP_SECS`, so
/// it emits what the full scan emits over an equal watched set. Entries
/// of closed or re-serviced pairs are dropped lazily: a popped entry is
/// live only if its pair is watched and due at the entry's step.
///
/// The queue is derived state: snapshots carry only the
/// `pair → last-serviced step` rows, and [`ExchangeWheel::restore`]
/// schedules each of them again.
#[derive(Debug)]
pub struct ExchangeWheel {
    /// Steps from a service to the pair's next due step.
    interval_steps: u64,
    /// Every watched pair's step of last service.
    last: FxHashMap<(NodeId, NodeId), u64>,
    /// `(due step, pair)` entries, stale ones included.
    queue: EventQueue<(NodeId, NodeId)>,
}

impl ExchangeWheel {
    /// Creates an empty wheel that services each pair every
    /// `interval_secs`, rounded up to whole steps.
    #[must_use]
    pub fn new(interval_secs: f64) -> Self {
        ExchangeWheel {
            interval_steps: whole_steps(interval_secs),
            last: FxHashMap::default(),
            queue: EventQueue::new(),
        }
    }

    /// Number of watched (open) pairs.
    #[must_use]
    pub fn watched_pairs(&self) -> usize {
        self.last.len()
    }

    /// Scheduled queue entries, including stale ones awaiting lazy
    /// deletion — the schedule's memory occupancy, exported as a gauge.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.queue.len()
    }

    /// Iterates `(pair, last-serviced step)` in arbitrary order (callers
    /// that serialize must sort).
    pub fn iter(&self) -> impl Iterator<Item = ((NodeId, NodeId), u64)> + '_ {
        self.last.iter().map(|(&p, &s)| (p, s))
    }

    /// Records that `pair` was serviced during `step` (the kernel step
    /// counter) and schedules its next service. Called on contact-up.
    pub fn note_serviced(&mut self, pair: (NodeId, NodeId), step: u64) {
        self.last.insert(pair, step);
        self.queue
            .push(step.saturating_add(self.interval_steps), pair);
    }

    /// Stops watching `pair` (contact closed). Its queue entry is dropped
    /// lazily when popped.
    pub fn remove(&mut self, pair: (NodeId, NodeId)) {
        self.last.remove(&pair);
    }

    /// Replaces the watched set with `pair → last-serviced step` rows
    /// from a snapshot and schedules each of them.
    pub fn restore(&mut self, rows: impl IntoIterator<Item = ((NodeId, NodeId), u64)>) {
        self.last.clear();
        self.queue = EventQueue::new();
        for (pair, step) in rows {
            self.note_serviced(pair, step);
        }
    }

    /// Pops every pair due at `step` into `out` (cleared first) as
    /// `(pair, credited_secs)` sorted by pair — the contract of
    /// [`due_pairs`] over an equal watched set — and records each as
    /// serviced at `step`.
    pub fn drain_due_into(&mut self, step: u64, out: &mut Vec<((NodeId, NodeId), f64)>) {
        out.clear();
        while let Some((due, pair)) = self.queue.pop_due(step) {
            let Some(last) = self.last.get_mut(&pair) else {
                continue; // closed: lazy delete
            };
            if last.saturating_add(self.interval_steps) != due {
                continue; // re-serviced since: lazy delete
            }
            out.push((pair, (step - *last) as f64 * STEP_SECS));
            *last = step;
            self.queue
                .push(step.saturating_add(self.interval_steps), pair);
        }
        out.sort_unstable_by_key(|(pair, _)| *pair);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn exchange_grows_both_sides_and_acquires_transients() {
        let params = ChitChatParams::paper_default();
        let mut tables = vec![InterestTable::new(), InterestTable::new()];
        tables[0].subscribe(Keyword(1), &params, t(0.0));
        tables[1].subscribe(Keyword(2), &params, t(0.0));
        let empty = KeywordSet::new();
        rtsr_exchange(
            &mut tables,
            NodeId(0),
            NodeId(1),
            60.0,
            &params,
            t(60.0),
            &empty,
            &empty,
        );
        assert!(tables[0].weight(Keyword(2)) > 0.0, "n0 acquired kw2");
        assert!(tables[1].weight(Keyword(1)) > 0.0, "n1 acquired kw1");
        assert!(!tables[0].is_direct(Keyword(2)));
    }

    #[test]
    fn shared_interests_are_frozen_during_exchange() {
        let params = ChitChatParams::paper_default();
        let mut tables = vec![InterestTable::new(), InterestTable::new()];
        tables[0].subscribe(Keyword(1), &params, t(0.0));
        // Grow n0's kw1 above baseline, then exchange much later with the
        // keyword marked shared: no decay may have pulled it down.
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(1), &params, t(0.0));
        tables[0].grow(&peer, 120.0, &params, t(0.0));
        let before = tables[0].weight(Keyword(1));
        let mut shared = KeywordSet::new();
        shared.insert(Keyword(1));
        let empty = KeywordSet::new();
        rtsr_exchange(
            &mut tables,
            NodeId(0),
            NodeId(1),
            1.0,
            &params,
            t(5_000.0),
            &shared,
            &empty,
        );
        assert!(
            tables[0].weight(Keyword(1)) >= before,
            "shared interest did not decay"
        );
    }

    #[test]
    fn shared_keywords_unions_peer_tables() {
        let params = ChitChatParams::paper_default();
        let mut tables = vec![
            InterestTable::new(),
            InterestTable::new(),
            InterestTable::new(),
        ];
        tables[1].subscribe(Keyword(1), &params, t(0.0));
        tables[2].subscribe(Keyword(2), &params, t(0.0));
        let set = shared_keywords(&tables, &[NodeId(1), NodeId(2)]);
        assert!(set.contains(Keyword(1)) && set.contains(Keyword(2)));
        assert_eq!(set.len(), 2);
        assert!(shared_keywords(&tables, &[]).is_empty());
    }

    #[test]
    fn due_pairs_credits_exact_elapsed_and_sorts() {
        let mut last = HashMap::new();
        last.insert((NodeId(3), NodeId(5)), t(10.0));
        last.insert((NodeId(0), NodeId(1)), t(40.0));
        last.insert((NodeId(2), NodeId(4)), t(95.0)); // not due at 100/30s
        let due = due_pairs(&last, t(100.0), 30.0);
        assert_eq!(
            due,
            vec![
                ((NodeId(0), NodeId(1)), 60.0),
                ((NodeId(3), NodeId(5)), 90.0)
            ]
        );
    }

    #[test]
    fn nothing_due_before_the_interval() {
        let mut last = HashMap::new();
        last.insert((NodeId(0), NodeId(1)), t(90.0));
        assert!(due_pairs(&last, t(100.0), 30.0).is_empty());
    }
}
