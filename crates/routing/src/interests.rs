//! ChitChat's Real-time Transient Social Relationship (RTSR) model.
//!
//! Each node keeps a table of interests — keywords with a weight in
//! `[0, 1]`. *Direct* interests are the user's own subscriptions, created at
//! weight 0.5; *transient* interests are acquired from encountered peers and
//! represent multi-hop social reach. On every exchange between connected
//! devices the weights are first decayed (Algorithm 1), the decayed tables
//! are swapped, and then grown from the peer's weights (Algorithm 2).
//!
//! The thesis leaves two things open, resolved here and in `DESIGN.md`:
//!
//! 1. The growth increment `Δ = w_v(I)·(T_c − T_v)/ψ` scales with raw
//!    connection seconds and would saturate every weight within one contact;
//!    a growth-rate constant [`ChitChatParams::growth_rate`] (γ) scales the
//!    increment, and repeated exchanges during one contact use the time
//!    since the previous exchange so growth is linear in contact time.
//! 2. The decay divisor `β·(T_c − T_l)` is clamped below by one exchange
//!    interval (avoiding division by ~0), and decay never *raises* a weight.

use serde::{Deserialize, Error, Serialize, Value};

use dtn_sim::message::Keyword;
use dtn_sim::time::SimTime;

use crate::exchange::KeywordSet;

/// Whether an interest was subscribed by the user or acquired from peers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum InterestKind {
    /// Subscribed by the user (the paper's "direct social interest").
    Direct,
    /// Acquired from encountered devices (a transient social relationship).
    Transient,
}

/// One interest entry in a node's table.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct InterestEntry {
    /// Current weight in `[0, 1]`.
    pub weight: f64,
    /// Direct (subscribed) or transient (acquired).
    pub kind: InterestKind,
    /// `T_l`: the last time a connected device shared this interest.
    pub last_shared: SimTime,
}

/// One stored row of an interest table: the keyword and its entry
/// flattened into a single 24-byte record. The natural
/// `(Keyword, InterestEntry)` tuple pads to 32 bytes (the `f64`s force
/// 8-byte alignment after the 4-byte keyword); every settlement tick
/// streams whole tables through decay and growth, so the flat layout
/// cuts that traffic by a quarter. The wire format and the public API
/// keep `(Keyword, InterestEntry)` — rows are an internal arena layout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterestRow {
    /// The keyword this row tracks.
    pub keyword: Keyword,
    /// Direct (subscribed) or transient (acquired).
    pub kind: InterestKind,
    /// Current weight in `[0, 1]`.
    pub weight: f64,
    /// `T_l`: the last time a connected device shared this interest.
    pub last_shared: SimTime,
}

impl InterestRow {
    /// The row's entry part, in the public `InterestEntry` shape.
    #[must_use]
    pub fn entry(&self) -> InterestEntry {
        InterestEntry {
            weight: self.weight,
            kind: self.kind,
            last_shared: self.last_shared,
        }
    }
}

/// Tunable constants of the RTSR model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChitChatParams {
    /// Decay constant β (the worked example in Algorithm 1 uses 2).
    pub beta: f64,
    /// Growth-rate constant γ applied to Algorithm 2's increment.
    pub growth_rate: f64,
    /// Seconds between weight exchanges while a contact stays up.
    pub exchange_interval_secs: f64,
    /// Transient interests whose weight falls below this are dropped.
    pub transient_floor: f64,
    /// Initial weight of a fresh direct interest (the paper fixes 0.5).
    pub initial_weight: f64,
}

impl ChitChatParams {
    /// Paper-faithful defaults.
    #[must_use]
    pub fn paper_default() -> Self {
        ChitChatParams {
            beta: 2.0,
            growth_rate: 0.02,
            exchange_interval_secs: 30.0,
            transient_floor: 0.005,
            initial_weight: 0.5,
        }
    }
}

impl Default for ChitChatParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// ψ for Algorithm 2: maps the (own kind, peer kind) case to `{1..6}`.
///
/// The thesis enumerates two of the six cases ("if both u and v have I as a
/// direct interest, ψ is 1; if u has a direct interest and v has a transient
/// interest, ψ is 2") — the remaining four follow the same direct-first
/// ordering: the stronger the provenance on both sides, the faster the
/// growth.
#[must_use]
pub fn psi(own: Option<InterestKind>, peer: InterestKind) -> u8 {
    use InterestKind::{Direct, Transient};
    match (own, peer) {
        (Some(Direct), Direct) => 1,
        (Some(Direct), Transient) => 2,
        (Some(Transient), Direct) => 3,
        (Some(Transient), Transient) => 4,
        (None, Direct) => 5,
        (None, Transient) => 6,
    }
}

/// A node's interest table (its social profile plus TSRs).
///
/// Stored as a `Vec` sorted by keyword: tables hold tens of entries, and
/// the exchange ritual (clone → decay → grow) runs for every due contact
/// pair every step — on that path a sorted vector beats a hash map on
/// every count (lookups stay cache-resident, cloning is one memcpy, and
/// `grow` consumes the peer's entries in keyword order without the sort
/// pass a hashed table would force for determinism).
#[derive(Debug, Clone, Default)]
pub struct InterestTable {
    entries: Vec<InterestRow>,
    /// Bitmap over the keywords present in `entries`, kept in sync by
    /// every mutation. [`crate::exchange::shared_keywords`] unions these
    /// instead of walking each peer's entries — the walk dominated the
    /// settlement-tick profile at 1k nodes.
    keywords: KeywordSet,
}

/// Two tables are equal iff their entries are — the bitmap is derived
/// state (and its trailing zero words may differ between an
/// incrementally-built and a freshly-rebuilt set).
impl PartialEq for InterestTable {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

/// The wire shape stays `{"entries": [...]}` — the bitmap is rebuilt on
/// load, so snapshots written before it existed restore byte-identically.
impl Serialize for InterestTable {
    fn to_value(&self) -> Value {
        let wire: Vec<(Keyword, InterestEntry)> = self
            .entries
            .iter()
            .map(|r| (r.keyword, r.entry()))
            .collect();
        Value::Map(vec![("entries".to_string(), wire.to_value())])
    }
}

impl Deserialize for InterestTable {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let wire: Vec<(Keyword, InterestEntry)> = match v.get("entries") {
            Some(e) => Deserialize::from_value(e)?,
            None => return Err(Error::missing_field("InterestTable", "entries")),
        };
        let mut keywords = KeywordSet::new();
        let entries = wire
            .into_iter()
            .map(|(keyword, e)| {
                keywords.insert(keyword);
                InterestRow {
                    keyword,
                    kind: e.kind,
                    weight: e.weight,
                    last_shared: e.last_shared,
                }
            })
            .collect();
        Ok(InterestTable { entries, keywords })
    }
}

impl InterestTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of `keyword` in the sorted entries, or its insertion point.
    fn position(&self, keyword: Keyword) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&keyword, |r| r.keyword)
    }

    /// Subscribes the user to `keyword` as a direct interest at the initial
    /// weight (0.5 per the paper). Re-subscribing an existing interest
    /// upgrades a transient entry to direct without losing its weight.
    pub fn subscribe(&mut self, keyword: Keyword, params: &ChitChatParams, now: SimTime) {
        match self.position(keyword) {
            Ok(i) => self.entries[i].kind = InterestKind::Direct,
            Err(i) => {
                self.entries.insert(
                    i,
                    InterestRow {
                        keyword,
                        kind: InterestKind::Direct,
                        weight: params.initial_weight,
                        last_shared: now,
                    },
                );
                self.keywords.insert(keyword);
            }
        }
    }

    /// The bitmap of keywords present in this table.
    #[must_use]
    pub fn keywords(&self) -> &KeywordSet {
        &self.keywords
    }

    /// Bytes of memory this table holds (struct plus heap capacity) —
    /// the per-node interest footprint, exported as a metrics gauge.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.entries.capacity() * std::mem::size_of::<InterestRow>()
            + self.keywords.state_bytes()
    }

    /// The entry for `keyword`, if present.
    #[must_use]
    pub fn get(&self, keyword: Keyword) -> Option<InterestEntry> {
        self.position(keyword).ok().map(|i| self.entries[i].entry())
    }

    /// Current weight of `keyword` (0 when absent).
    #[must_use]
    pub fn weight(&self, keyword: Keyword) -> f64 {
        self.get(keyword).map_or(0.0, |e| e.weight)
    }

    /// Whether `keyword` is a *direct* interest — the destination test.
    #[must_use]
    pub fn is_direct(&self, keyword: Keyword) -> bool {
        self.get(keyword)
            .is_some_and(|e| e.kind == InterestKind::Direct)
    }

    /// Whether the node has any direct interest among `keywords`.
    #[must_use]
    pub fn is_destination_for(&self, keywords: &[Keyword]) -> bool {
        keywords.iter().any(|&k| self.is_direct(k))
    }

    /// `S_u`: the sum of weights over a message's keywords (the routing
    /// comparison quantity — forward M from u to v iff `S_v > S_u`).
    #[must_use]
    pub fn sum_of_weights(&self, keywords: &[Keyword]) -> f64 {
        keywords.iter().map(|&k| self.weight(k)).sum()
    }

    /// Mean weight over a message's keywords (the relay-threshold test of
    /// the incentive mechanism uses the average, Table 5.1's 0.8).
    #[must_use]
    pub fn mean_weight(&self, keywords: &[Keyword]) -> f64 {
        if keywords.is_empty() {
            return 0.0;
        }
        self.sum_of_weights(keywords) / keywords.len() as f64
    }

    /// The keywords through which this table's node could take a copy
    /// from the holder of `from`, written into `out` (cleared first):
    /// every direct interest here (the destination test), plus every
    /// keyword whose weight here is not `<=` its weight in `from`. An
    /// absent keyword weighs 0, and a NaN weight fails the comparison, so
    /// it joins the set.
    ///
    /// A message with no keyword in the set is neither a destination here
    /// nor accepted as a relay by `S_v > S_u`: every term of this table's
    /// sum is `<=` the same term of `from`'s, both sums add their terms in
    /// the same order, and round-to-nearest addition is monotone, so
    /// `S_here <= S_from`. One merge walk over both sorted tables.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail `<=` and join
    pub fn offer_keywords_into(&self, from: &InterestTable, out: &mut KeywordSet) {
        out.clear();
        let from = &from.entries;
        let mut j = 0;
        for row in &self.entries {
            while j < from.len() && from[j].keyword < row.keyword {
                // Only a negative or NaN weight in `from` could let an
                // absent keyword here (weight 0) raise `S_here` above it.
                if !(0.0 <= from[j].weight) {
                    out.insert(from[j].keyword);
                }
                j += 1;
            }
            let w_from = if j < from.len() && from[j].keyword == row.keyword {
                j += 1;
                from[j - 1].weight
            } else {
                0.0
            };
            if row.kind == InterestKind::Direct || !(row.weight <= w_from) {
                out.insert(row.keyword);
            }
        }
        for r in &from[j..] {
            if !(0.0 <= r.weight) {
                out.insert(r.keyword);
            }
        }
    }

    /// Number of interests tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(keyword, entry)` pairs in ascending keyword order.
    pub fn iter(&self) -> impl Iterator<Item = (Keyword, InterestEntry)> + '_ {
        self.entries.iter().map(|r| (r.keyword, r.entry()))
    }

    /// Algorithm 1 — decays every interest not currently shared by a
    /// connected device.
    ///
    /// `shared_now(keyword)` reports whether some connected device has the
    /// interest. Direct interests decay toward the 0.5 baseline; transient
    /// interests decay toward 0 and are dropped at the floor.
    pub fn decay(
        &mut self,
        now: SimTime,
        params: &ChitChatParams,
        mut shared_now: impl FnMut(Keyword) -> bool,
    ) {
        let min_elapsed = params.exchange_interval_secs.max(1.0);
        let keywords = &mut self.keywords;
        self.entries.retain_mut(|e| {
            let keyword = e.keyword;
            if shared_now(keyword) {
                e.last_shared = now;
                return true;
            }
            let elapsed = now.duration_since(e.last_shared).as_secs();
            if elapsed <= 0.0 {
                return true;
            }
            let divisor = (params.beta * elapsed.max(min_elapsed)).max(1.0);
            let decayed = match e.kind {
                InterestKind::Direct => (e.weight - 0.5) / divisor + 0.5,
                InterestKind::Transient => e.weight / divisor,
            };
            // Decay never raises a weight (divisors < 1 are already clamped
            // away, but a direct weight below baseline must not spring back
            // above its previous value either).
            e.weight = decayed.min(e.weight).clamp(0.0, 1.0);
            let keep = e.kind == InterestKind::Direct || e.weight >= params.transient_floor;
            if !keep {
                keywords.remove(keyword);
            }
            keep
        });
    }

    /// Algorithm 2 — grows this table from a connected peer's (already
    /// decayed) table.
    ///
    /// `connected_secs` is the time credited for this exchange: the span
    /// since the previous exchange with this peer (so repeated exchanges
    /// during one contact credit the contact time exactly once). Unknown
    /// peer interests are acquired as transient entries.
    pub fn grow(
        &mut self,
        peer: &InterestTable,
        connected_secs: f64,
        params: &ChitChatParams,
        now: SimTime,
    ) {
        let mut out = Vec::new();
        if self.grow_into(&peer.entries, connected_secs, params, now, &mut out) {
            self.commit_entries(&mut out);
        }
    }

    /// The raw sorted entry slice (crate-internal: the exchange ritual
    /// reads a pre-growth table while its owner is mutably borrowed).
    pub(crate) fn entries_slice(&self) -> &[InterestRow] {
        &self.entries
    }

    /// Merge-walk core of [`Self::grow`]: writes the grown entry vector
    /// into `out` (cleared first) and records newly-acquired keywords in
    /// the bitmap, but leaves `self.entries` untouched so a caller can
    /// still read the pre-growth table — the RTSR swap ritual grows both
    /// sides from each other's *pre-growth* entries. Returns whether
    /// anything was computed; commit with [`Self::commit_entries`].
    ///
    /// Both tables are in keyword order, so one linear walk replaces the
    /// per-peer-entry binary search + mid-vector insert (quadratic while
    /// tables fill, and the second-hottest call in the 1k-node settlement
    /// profile). The per-entry arithmetic and its evaluation order are
    /// unchanged, so weights stay bit-identical.
    pub(crate) fn grow_into(
        &mut self,
        peer_entries: &[InterestRow],
        connected_secs: f64,
        params: &ChitChatParams,
        now: SimTime,
        out: &mut Vec<InterestRow>,
    ) -> bool {
        if connected_secs <= 0.0 {
            return false;
        }
        out.clear();
        out.reserve(self.entries.len() + peer_entries.len());
        let mut i = 0;
        for peer_entry in peer_entries {
            let keyword = peer_entry.keyword;
            if peer_entry.weight <= 0.0 {
                continue;
            }
            while i < self.entries.len() && self.entries[i].keyword < keyword {
                out.push(self.entries[i]);
                i += 1;
            }
            if i < self.entries.len() && self.entries[i].keyword == keyword {
                let mut e = self.entries[i];
                i += 1;
                let psi = f64::from(psi(Some(e.kind), peer_entry.kind));
                let delta = params.growth_rate * peer_entry.weight * connected_secs / psi;
                e.weight = (e.weight + delta).min(1.0);
                e.last_shared = now;
                out.push(e);
            } else {
                let psi = f64::from(psi(None, peer_entry.kind));
                let delta = params.growth_rate * peer_entry.weight * connected_secs / psi;
                let weight = delta.min(1.0);
                if weight >= params.transient_floor {
                    out.push(InterestRow {
                        keyword,
                        kind: InterestKind::Transient,
                        weight,
                        last_shared: now,
                    });
                    self.keywords.insert(keyword);
                }
            }
        }
        out.extend_from_slice(&self.entries[i..]);
        true
    }

    /// Installs a vector produced by [`Self::grow_into`], handing the old
    /// entry storage back through `out` for reuse.
    pub(crate) fn commit_entries(&mut self, out: &mut Vec<InterestRow>) {
        std::mem::swap(&mut self.entries, out);
    }

    /// Runs *both* directions of Algorithm 2 in place, for the steady
    /// state where neither side contributes a new keyword to the other:
    /// every unmatched peer keyword would arrive below the transient
    /// floor. Then growth only rewrites matched entries' weights, so no
    /// merge vector (and no pre-growth snapshot) is needed at all — one
    /// two-pointer pass reads both sides' pre-growth weights into locals
    /// and writes both updates. Returns `false` (both tables untouched)
    /// when either side would have to insert a transient entry — the
    /// caller falls back to the buffered merging path. The per-entry
    /// arithmetic is the same expression as `grow_into` applied to the
    /// same pre-growth inputs, so weights stay bit-identical whichever
    /// path runs.
    pub(crate) fn grow_mutual_in_place(
        a: &mut InterestTable,
        b: &mut InterestTable,
        connected_secs: f64,
        params: &ChitChatParams,
        now: SimTime,
    ) -> bool {
        if connected_secs <= 0.0 {
            return true;
        }
        // Read-only bail pass: any keyword one side holds (with positive
        // weight) that the other would acquire at or above the floor
        // forces the inserting merge path. Equal keyword bitmaps mean
        // there is no unmatched keyword on either side, so the pass is
        // vacuous — skip the walk entirely (the steady-state common case
        // once a contact cluster's tables have converged).
        let bitmaps_equal = a.keywords.same_keywords(&b.keywords);
        let (mut i, mut j) = (0usize, 0usize);
        while !bitmaps_equal && (i < a.entries.len() || j < b.entries.len()) {
            let ka = a.entries.get(i).map(|r| r.keyword);
            let kb = b.entries.get(j).map(|r| r.keyword);
            match (ka, kb) {
                (Some(ka), Some(kb)) if ka == kb => {
                    i += 1;
                    j += 1;
                }
                (Some(ka), kb) if kb.is_none() || ka < kb.expect("some") => {
                    let e = a.entries[i];
                    if e.weight > 0.0 {
                        let psi = f64::from(psi(None, e.kind));
                        let delta = params.growth_rate * e.weight * connected_secs / psi;
                        if delta.min(1.0) >= params.transient_floor {
                            return false;
                        }
                    }
                    i += 1;
                }
                _ => {
                    let e = b.entries[j];
                    if e.weight > 0.0 {
                        let psi = f64::from(psi(None, e.kind));
                        let delta = params.growth_rate * e.weight * connected_secs / psi;
                        if delta.min(1.0) >= params.transient_floor {
                            return false;
                        }
                    }
                    j += 1;
                }
            }
        }
        // Apply pass over the keyword intersection. Kinds never change
        // during growth, and each update reads only the other side's
        // pre-growth weight (captured before either write), so the two
        // directions cannot observe each other's updates.
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.entries.len() && j < b.entries.len() {
            let (ka, kb) = (a.entries[i].keyword, b.entries[j].keyword);
            if ka < kb {
                i += 1;
            } else if kb < ka {
                j += 1;
            } else {
                let (wa, kind_a) = (a.entries[i].weight, a.entries[i].kind);
                let (wb, kind_b) = (b.entries[j].weight, b.entries[j].kind);
                if wb > 0.0 {
                    let psi = f64::from(psi(Some(kind_a), kind_b));
                    let delta = params.growth_rate * wb * connected_secs / psi;
                    let e = &mut a.entries[i];
                    e.weight = (e.weight + delta).min(1.0);
                    e.last_shared = now;
                }
                if wa > 0.0 {
                    let psi = f64::from(psi(Some(kind_b), kind_a));
                    let delta = params.growth_rate * wa * connected_secs / psi;
                    let e = &mut b.entries[j];
                    e.weight = (e.weight + delta).min(1.0);
                    e.last_shared = now;
                }
                i += 1;
                j += 1;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn params() -> ChitChatParams {
        ChitChatParams::paper_default()
    }

    #[test]
    fn subscribe_sets_initial_weight_half() {
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &params(), t(0.0));
        let e = table.get(Keyword(1)).expect("present");
        assert_eq!(e.weight, 0.5);
        assert_eq!(e.kind, InterestKind::Direct);
        assert!(table.is_direct(Keyword(1)));
    }

    #[test]
    fn resubscribe_upgrades_transient() {
        let mut table = InterestTable::new();
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(1), &params(), t(0.0));
        table.grow(&peer, 100.0, &params(), t(100.0));
        assert!(!table.is_direct(Keyword(1)));
        let w = table.weight(Keyword(1));
        table.subscribe(Keyword(1), &params(), t(100.0));
        assert!(table.is_direct(Keyword(1)));
        assert_eq!(table.weight(Keyword(1)), w, "weight preserved on upgrade");
    }

    #[test]
    fn psi_cases_match_paper() {
        use InterestKind::{Direct, Transient};
        assert_eq!(psi(Some(Direct), Direct), 1, "both direct → 1 (paper)");
        assert_eq!(
            psi(Some(Direct), Transient),
            2,
            "direct/transient → 2 (paper)"
        );
        assert_eq!(psi(Some(Transient), Direct), 3);
        assert_eq!(psi(Some(Transient), Transient), 4);
        assert_eq!(psi(None, Direct), 5);
        assert_eq!(psi(None, Transient), 6);
    }

    #[test]
    fn decay_follows_algorithm_one() {
        // The thesis' worked example: W_p = 0.6, β = 2, elapsed = 5 s →
        // W_n = (0.6 − 0.5)/(2·5) + 0.5 = 0.51. (The thesis narration says
        // 0.55 but its own formula evaluates to 0.51; we implement the
        // formula.) The elapsed clamp uses min_elapsed = max(interval, 1);
        // with interval 5 the divisor is exactly 2·5.
        let mut p = params();
        p.exchange_interval_secs = 5.0;
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &p, t(0.0));
        if let Some(e) = table.entries.iter_mut().find(|r| r.keyword == Keyword(1)) {
            e.weight = 0.6;
        }
        table.decay(t(5.0), &p, |_| false);
        let w = table.weight(Keyword(1));
        assert!((w - 0.51).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn decay_skips_shared_interests() {
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &params(), t(0.0));
        if let Some(e) = table.entries.iter_mut().find(|r| r.keyword == Keyword(1)) {
            e.weight = 0.9;
        }
        table.decay(t(100.0), &params(), |_| true);
        assert_eq!(table.weight(Keyword(1)), 0.9, "shared interest frozen");
        // And T_l was refreshed, so a later decay measures from 100 s.
        table.decay(t(101.0), &params(), |_| false);
        assert!(table.weight(Keyword(1)) < 0.9);
    }

    #[test]
    fn direct_decays_toward_half_transient_toward_zero() {
        let p = params();
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &p, t(0.0));
        if let Some(e) = table.entries.iter_mut().find(|r| r.keyword == Keyword(1)) {
            e.weight = 1.0;
        }
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(2), &p, t(0.0));
        table.grow(&peer, 200.0, &p, t(0.0));
        let transient_before = table.weight(Keyword(2));
        assert!(transient_before > 0.0);

        for step in 1..=50 {
            table.decay(t(step as f64 * 60.0), &p, |_| false);
        }
        let direct = table.weight(Keyword(1));
        assert!(
            (direct - 0.5).abs() < 0.01,
            "direct converges to 0.5, got {direct}"
        );
        assert!(
            table.get(Keyword(2)).is_none(),
            "transient dropped at floor"
        );
    }

    #[test]
    fn decay_never_raises_weight() {
        let p = params();
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &p, t(0.0));
        // Direct weight *below* baseline must not spring back up.
        if let Some(e) = table.entries.iter_mut().find(|r| r.keyword == Keyword(1)) {
            e.weight = 0.2;
        }
        table.decay(t(10.0), &p, |_| false);
        assert!(table.weight(Keyword(1)) <= 0.2);
    }

    #[test]
    fn growth_is_faster_for_direct_pairs() {
        let p = params();
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(1), &p, t(0.0));
        peer.subscribe(Keyword(2), &p, t(0.0));

        // Table A holds kw1 direct; table B holds kw1 transient.
        let mut a = InterestTable::new();
        a.subscribe(Keyword(1), &p, t(0.0));
        let mut b = InterestTable::new();
        b.grow(&peer, 30.0, &p, t(30.0)); // acquires kw1 transient

        let a0 = a.weight(Keyword(1));
        let b0 = b.weight(Keyword(1));
        a.grow(&peer, 60.0, &p, t(90.0));
        b.grow(&peer, 60.0, &p, t(90.0));
        let da = a.weight(Keyword(1)) - a0;
        let db = b.weight(Keyword(1)) - b0;
        assert!(da > db, "ψ=1 grows faster than ψ=3: {da} vs {db}");
    }

    #[test]
    fn growth_caps_at_one() {
        let p = params();
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(1), &p, t(0.0));
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &p, t(0.0));
        table.grow(&peer, 1e9, &p, t(0.0));
        assert_eq!(table.weight(Keyword(1)), 1.0);
    }

    #[test]
    fn zero_connected_time_changes_nothing() {
        let p = params();
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(1), &p, t(0.0));
        let mut table = InterestTable::new();
        table.grow(&peer, 0.0, &p, t(0.0));
        assert!(table.is_empty());
    }

    #[test]
    fn sum_and_mean_weights() {
        let p = params();
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &p, t(0.0));
        table.subscribe(Keyword(2), &p, t(0.0));
        let kws = [Keyword(1), Keyword(2), Keyword(3)];
        assert_eq!(table.sum_of_weights(&kws), 1.0);
        assert!((table.mean_weight(&kws) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(table.mean_weight(&[]), 0.0);
        assert!(table.is_destination_for(&kws));
        assert!(!table.is_destination_for(&[Keyword(3)]));
    }
}
