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

use std::cell::RefCell;

use serde::{Deserialize, Error, Serialize, Value};

use dtn_sim::message::Keyword;
use dtn_sim::time::SimTime;

use crate::exchange::{KeywordSet, SetBits};

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

/// One stored row of an interest table: a keyword's weight and `T_l`,
/// 16 bytes. The keyword is the row's rank in the table's keyword bitmap
/// and the kind is a bit of its direct bitmap, so neither is stored.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Row {
    weight: f64,
    last_shared: SimTime,
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

    /// Validates the constants: a finite positive exchange interval,
    /// finite non-negative `beta` and `growth_rate`, and `initial_weight`
    /// and `transient_floor` in [0, 1] (every weight lies in [0, 1]).
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.exchange_interval_secs.is_finite() && self.exchange_interval_secs > 0.0) {
            return Err("exchange_interval_secs must be finite and positive".into());
        }
        if !(self.beta.is_finite() && self.beta >= 0.0) {
            return Err("beta must be finite and non-negative".into());
        }
        if !(self.growth_rate.is_finite() && self.growth_rate >= 0.0) {
            return Err("growth_rate must be finite and non-negative".into());
        }
        if !(0.0..=1.0).contains(&self.initial_weight) {
            return Err("initial_weight must lie in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.transient_floor) {
            return Err("transient_floor must lie in [0, 1]".into());
        }
        Ok(())
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
/// Three parts: the keyword bitmap, the bitmap of its direct members, and
/// one 16-byte `(weight, T_l)` row per member in keyword order — row `i`
/// belongs to the bitmap's `i`-th member. A lookup is a bit test plus a
/// popcount over the words below the keyword (four words at the paper's
/// pool of 200), and the exchange ritual walks both tables' bitmaps word
/// by word. Each table's row capacity follows its own length: a grow that
/// adds rows builds them in a per-thread scratch buffer and copies them
/// back.
#[derive(Debug, Clone, Default)]
pub struct InterestTable {
    /// The keywords present. [`crate::exchange::shared_keywords`] unions
    /// these instead of walking each peer's rows.
    keywords: KeywordSet,
    /// The direct (subscribed) members of `keywords`.
    direct: KeywordSet,
    /// One row per member of `keywords`, in keyword order.
    rows: Vec<Row>,
}

/// Two tables are equal iff they hold the same keywords, kinds and rows
/// (a bitmap's trailing zero words are no part of its content).
impl PartialEq for InterestTable {
    fn eq(&self, other: &Self) -> bool {
        self.keywords.same_keywords(&other.keywords)
            && self.direct.same_keywords(&other.direct)
            && self.rows == other.rows
    }
}

/// The wire shape is `{"entries": [[keyword, entry], ...]}` in keyword
/// order; [`InterestTable::from_wire`] reads it back.
impl Serialize for InterestTable {
    fn to_value(&self) -> Value {
        let wire: Vec<(Keyword, InterestEntry)> = self.iter().collect();
        Value::Map(vec![("entries".to_string(), wire.to_value())])
    }
}

/// The rows and keyword bitmap words one side of a merging grow builds.
#[derive(Debug)]
struct Grown {
    rows: Vec<Row>,
    keywords: Vec<u64>,
}

impl Grown {
    const fn new() -> Self {
        Grown {
            rows: Vec::new(),
            keywords: Vec::new(),
        }
    }
}

thread_local! {
    /// Both sides' build buffers for a grow that adds rows. Cleared on
    /// every use and copied out, never swapped in, so no table inherits
    /// another's capacity; invisible to determinism and snapshots.
    static MERGE_SCRATCH: RefCell<[Grown; 2]> = const { RefCell::new([Grown::new(), Grown::new()]) };
}

impl InterestTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds a table from its wire form (see the `Serialize` impl),
    /// refusing one whose keywords are not strictly ascending or not
    /// below `keyword_pool`, whose weights lie outside `[0, 1]`, or whose
    /// `T_l` is not a finite, non-negative time. Every check runs before
    /// a bitmap is sized, so a hostile keyword id cannot make one huge.
    ///
    /// # Errors
    ///
    /// Describes the first offending entry.
    pub fn from_wire(v: &Value, keyword_pool: u32) -> Result<Self, String> {
        let wire: Vec<(Keyword, InterestEntry)> = match v.get("entries") {
            Some(e) => Deserialize::from_value(e).map_err(|e| e.to_string())?,
            None => return Err(Error::missing_field("InterestTable", "entries").to_string()),
        };
        let mut previous: Option<Keyword> = None;
        for &(keyword, e) in &wire {
            if keyword.0 >= keyword_pool {
                return Err(format!(
                    "{keyword} is at or above the keyword pool of {keyword_pool}"
                ));
            }
            if !(0.0..=1.0).contains(&e.weight) {
                return Err(format!("{keyword} weighs {:?}, outside [0, 1]", e.weight));
            }
            let t = e.last_shared.as_secs();
            if !(t.is_finite() && t >= 0.0) {
                return Err(format!(
                    "{keyword} was last shared at {t:?}, not a finite non-negative time"
                ));
            }
            if let Some(p) = previous.filter(|&p| p >= keyword) {
                return Err(format!(
                    "keywords are not strictly ascending ({p} before {keyword})"
                ));
            }
            previous = Some(keyword);
        }
        let mut table = InterestTable::new();
        for (keyword, e) in wire {
            table.keywords.insert(keyword);
            if e.kind == InterestKind::Direct {
                table.direct.insert(keyword);
            }
            table.rows.push(Row {
                weight: e.weight,
                last_shared: e.last_shared,
            });
        }
        Ok(table)
    }

    /// Subscribes the user to `keyword` as a direct interest at the initial
    /// weight (0.5 per the paper). Re-subscribing an existing interest
    /// upgrades a transient entry to direct without losing its weight.
    pub fn subscribe(&mut self, keyword: Keyword, params: &ChitChatParams, now: SimTime) {
        if !self.keywords.contains(keyword) {
            let row = Row {
                weight: params.initial_weight,
                last_shared: now,
            };
            self.rows.insert(self.keywords.rank(keyword), row);
            self.keywords.insert(keyword);
        }
        self.direct.insert(keyword);
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
            + self.rows.capacity() * std::mem::size_of::<Row>()
            + self.keywords.state_bytes()
            + self.direct.state_bytes()
    }

    /// The row of `keyword`, found by rank, if present.
    fn row(&self, keyword: Keyword) -> Option<Row> {
        self.keywords
            .contains(keyword)
            .then(|| self.rows[self.keywords.rank(keyword)])
    }

    /// The kind of member `keyword`.
    fn kind(&self, keyword: Keyword) -> InterestKind {
        if self.direct.contains(keyword) {
            InterestKind::Direct
        } else {
            InterestKind::Transient
        }
    }

    /// The entry for `keyword`, if present.
    #[must_use]
    pub fn get(&self, keyword: Keyword) -> Option<InterestEntry> {
        self.row(keyword).map(|r| InterestEntry {
            weight: r.weight,
            kind: self.kind(keyword),
            last_shared: r.last_shared,
        })
    }

    /// Current weight of `keyword` (0 when absent).
    #[must_use]
    pub fn weight(&self, keyword: Keyword) -> f64 {
        self.row(keyword).map_or(0.0, |r| r.weight)
    }

    /// Whether `keyword` is a *direct* interest — the destination test.
    #[must_use]
    pub fn is_direct(&self, keyword: Keyword) -> bool {
        self.direct.contains(keyword)
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
    /// `S_here <= S_from`. One walk over the union of the two bitmaps.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail `<=` and join
    pub fn offer_keywords_into(&self, from: &InterestTable, out: &mut KeywordSet) {
        out.clear();
        let words = self.keywords.words().len().max(from.keywords.words().len());
        let (mut i, mut j) = (0, 0);
        for w in 0..words {
            let (here, there) = (self.keywords.word(w), from.keywords.word(w));
            let direct = self.direct.word(w);
            let mut offered = 0;
            for bit in SetBits(here | there) {
                let w_from = if there & bit != 0 {
                    j += 1;
                    from.rows[j - 1].weight
                } else {
                    0.0
                };
                let take = if here & bit != 0 {
                    i += 1;
                    // Only a negative or NaN weight in `from` could let an
                    // absent keyword here (weight 0) raise `S_here` above it.
                    direct & bit != 0 || !(self.rows[i - 1].weight <= w_from)
                } else {
                    !(0.0 <= w_from)
                };
                if take {
                    offered |= bit;
                }
            }
            out.push_word(offered);
        }
    }

    /// Number of interests tracked.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over `(keyword, entry)` pairs in ascending keyword order.
    pub fn iter(&self) -> impl Iterator<Item = (Keyword, InterestEntry)> + '_ {
        self.keywords.iter().zip(&self.rows).map(|(k, r)| {
            (
                k,
                InterestEntry {
                    weight: r.weight,
                    kind: self.kind(k),
                    last_shared: r.last_shared,
                },
            )
        })
    }

    /// Algorithm 1 — decays every interest not currently shared by a
    /// connected device.
    ///
    /// `shared_now` holds the keywords some connected device has; their
    /// interests are frozen and stamped shared at `now`. Direct interests
    /// decay toward the 0.5 baseline; transient interests decay toward 0
    /// and are dropped at the floor. One pass over the bitmap, a word at
    /// a time, compacting the rows in place.
    pub fn decay(&mut self, now: SimTime, params: &ChitChatParams, shared_now: &KeywordSet) {
        let min_elapsed = params.exchange_interval_secs.max(1.0);
        // Rows `start..end` belong to word `w`; rows before `write` are the
        // survivors so far (equal to `start` until a row drops).
        let (mut start, mut write) = (0, 0);
        for w in 0..self.keywords.words().len() {
            let members = self.keywords.word(w);
            let (shared, direct) = (shared_now.word(w), self.direct.word(w));
            let end = start + members.count_ones() as usize;
            let mut dropped = 0;
            for (bit, row) in SetBits(members).zip(&mut self.rows[start..end]) {
                if shared & bit != 0 {
                    row.last_shared = now;
                    continue;
                }
                let elapsed = now.duration_since(row.last_shared).as_secs();
                if elapsed <= 0.0 {
                    continue;
                }
                let divisor = (params.beta * elapsed.max(min_elapsed)).max(1.0);
                let is_direct = direct & bit != 0;
                let decayed = if is_direct {
                    (row.weight - 0.5) / divisor + 0.5
                } else {
                    row.weight / divisor
                };
                // Decay never raises a weight (divisors < 1 are already
                // clamped away, but a direct weight below baseline must not
                // spring back above its previous value either).
                row.weight = decayed.min(row.weight).clamp(0.0, 1.0);
                if !(is_direct || row.weight >= params.transient_floor) {
                    dropped |= bit;
                }
            }
            if dropped == 0 && write == start {
                write = end;
            } else {
                for (bit, i) in SetBits(members).zip(start..end) {
                    if dropped & bit == 0 {
                        self.rows[write] = self.rows[i];
                        write += 1;
                    }
                }
                self.keywords.remove_word_bits(w, dropped);
            }
            start = end;
        }
        self.rows.truncate(write);
    }

    /// Algorithm 2 — grows this table from a connected peer's (already
    /// decayed) table.
    ///
    /// `connected_secs` is the time credited for this exchange: the span
    /// since the previous exchange with this peer (so repeated exchanges
    /// during one contact credit the contact time exactly once). Unknown
    /// peer interests are acquired as transient entries. The one-sided
    /// form of [`crate::exchange::rtsr_exchange`]'s merge walk.
    pub fn grow(
        &mut self,
        peer: &InterestTable,
        connected_secs: f64,
        params: &ChitChatParams,
        now: SimTime,
    ) {
        if connected_secs <= 0.0 {
            return;
        }
        let credit = Credit::new(connected_secs, params, now);
        MERGE_SCRATCH.with(|scratch| {
            let grown = &mut *scratch.borrow_mut();
            merge_walk::<false>(self, peer, &credit, grown);
            self.commit(&grown[0]);
        });
    }

    /// Both directions of Algorithm 2 in one walk: each table grows from
    /// the other's *pre-growth* rows. When the two keyword bitmaps are
    /// equal no row is added, so a lockstep loop updates both in place;
    /// otherwise one union merge builds both sides in the per-thread
    /// scratch and copies them back.
    pub(crate) fn grow_mutual(
        a: &mut InterestTable,
        b: &mut InterestTable,
        connected_secs: f64,
        params: &ChitChatParams,
        now: SimTime,
    ) {
        if connected_secs <= 0.0 {
            return;
        }
        let credit = Credit::new(connected_secs, params, now);
        if a.keywords.same_keywords(&b.keywords) {
            let mut rows = a.rows.iter_mut().zip(b.rows.iter_mut());
            for (w, &members) in a.keywords.words().iter().enumerate() {
                let (da, db) = (a.direct.word(w), b.direct.word(w));
                for (bit, (ra, rb)) in SetBits(members).zip(rows.by_ref()) {
                    let (kind_a, kind_b) = (kind_of(da & bit), kind_of(db & bit));
                    // Both updates read the pre-growth rows.
                    (*ra, *rb) = (
                        credit.grow(*ra, kind_a, *rb, kind_b),
                        credit.grow(*rb, kind_b, *ra, kind_a),
                    );
                }
            }
            return;
        }
        MERGE_SCRATCH.with(|scratch| {
            let grown = &mut *scratch.borrow_mut();
            merge_walk::<true>(a, b, &credit, grown);
            a.commit(&grown[0]);
            b.commit(&grown[1]);
        });
    }

    /// Installs a merge walk's rows and bitmap by copy, so the capacity
    /// stays this table's own.
    fn commit(&mut self, grown: &Grown) {
        self.rows.clear();
        self.rows.extend_from_slice(&grown.rows);
        self.keywords.set_words(&grown.keywords);
    }
}

/// The kind a direct-bitmap bit (masked to one keyword) encodes.
fn kind_of(direct_bit: u64) -> InterestKind {
    if direct_bit != 0 {
        InterestKind::Direct
    } else {
        InterestKind::Transient
    }
}

/// One exchange's growth terms (Algorithm 2): the credited contact
/// seconds, the model constants and the time grown rows are stamped.
struct Credit<'p> {
    secs: f64,
    params: &'p ChitChatParams,
    now: SimTime,
}

impl<'p> Credit<'p> {
    fn new(secs: f64, params: &'p ChitChatParams, now: SimTime) -> Self {
        Credit { secs, params, now }
    }

    /// The increment `γ·w·secs/ψ` of a peer interest of weight `w`.
    fn delta(&self, w: f64, own: Option<InterestKind>, peer: InterestKind) -> f64 {
        let psi = f64::from(psi(own, peer));
        self.params.growth_rate * w * self.secs / psi
    }

    /// A keyword both tables hold: `own` grown by `peer` and stamped
    /// shared, or unchanged when the peer's weight is not positive.
    fn grow(&self, own: Row, own_kind: InterestKind, peer: Row, peer_kind: InterestKind) -> Row {
        if peer.weight > 0.0 {
            let delta = self.delta(peer.weight, Some(own_kind), peer_kind);
            Row {
                weight: (own.weight + delta).min(1.0),
                last_shared: self.now,
            }
        } else {
            own
        }
    }

    /// A keyword only the peer holds: the transient row it is acquired
    /// as, if the peer's weight is positive and the row reaches the floor.
    fn acquire(&self, peer: Row, peer_kind: InterestKind) -> Option<Row> {
        if peer.weight <= 0.0 {
            return None;
        }
        let weight = self.delta(peer.weight, None, peer_kind).min(1.0);
        (weight >= self.params.transient_floor).then_some(Row {
            weight,
            last_shared: self.now,
        })
    }
}

/// One walk over the union of `a`'s and `b`'s keyword bitmaps: writes the
/// rows and bitmap `a` grows to from `b`'s pre-growth rows into
/// `grown[0]`, and, when `MUTUAL`, those `b` grows to from `a`'s into
/// `grown[1]`.
fn merge_walk<const MUTUAL: bool>(
    a: &InterestTable,
    b: &InterestTable,
    credit: &Credit<'_>,
    [into_a, into_b]: &mut [Grown; 2],
) {
    for g in [&mut *into_a, &mut *into_b] {
        g.rows.clear();
        g.keywords.clear();
    }
    let words = a.keywords.words().len().max(b.keywords.words().len());
    let (mut i, mut j) = (0, 0);
    for w in 0..words {
        let (ka, kb) = (a.keywords.word(w), b.keywords.word(w));
        let (da, db) = (a.direct.word(w), b.direct.word(w));
        let (mut grown_a, mut grown_b) = (ka, kb);
        for bit in SetBits(ka | kb) {
            let (kind_a, kind_b) = (kind_of(da & bit), kind_of(db & bit));
            if ka & kb & bit != 0 {
                let (ra, rb) = (a.rows[i], b.rows[j]);
                (i, j) = (i + 1, j + 1);
                into_a.rows.push(credit.grow(ra, kind_a, rb, kind_b));
                if MUTUAL {
                    into_b.rows.push(credit.grow(rb, kind_b, ra, kind_a));
                }
            } else if ka & bit != 0 {
                let ra = a.rows[i];
                i += 1;
                into_a.rows.push(ra);
                if MUTUAL {
                    if let Some(row) = credit.acquire(ra, kind_a) {
                        into_b.rows.push(row);
                        grown_b |= bit;
                    }
                }
            } else {
                let rb = b.rows[j];
                j += 1;
                if let Some(row) = credit.acquire(rb, kind_b) {
                    into_a.rows.push(row);
                    grown_a |= bit;
                }
                if MUTUAL {
                    into_b.rows.push(rb);
                }
            }
        }
        into_a.keywords.push(grown_a);
        into_b.keywords.push(grown_b);
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

    fn set(keywords: &[u32]) -> KeywordSet {
        let mut set = KeywordSet::new();
        for &k in keywords {
            set.insert(Keyword(k));
        }
        set
    }

    fn none() -> KeywordSet {
        KeywordSet::new()
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
        table.rows[0].weight = 0.6;
        table.decay(t(5.0), &p, &none());
        let w = table.weight(Keyword(1));
        assert!((w - 0.51).abs() < 1e-12, "got {w}");
    }

    #[test]
    fn decay_skips_shared_interests() {
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &params(), t(0.0));
        table.rows[0].weight = 0.9;
        table.decay(t(100.0), &params(), &set(&[1]));
        assert_eq!(table.weight(Keyword(1)), 0.9, "shared interest frozen");
        // And T_l was refreshed, so a later decay measures from 100 s.
        table.decay(t(101.0), &params(), &none());
        assert!(table.weight(Keyword(1)) < 0.9);
    }

    #[test]
    fn direct_decays_toward_half_transient_toward_zero() {
        let p = params();
        let mut table = InterestTable::new();
        table.subscribe(Keyword(1), &p, t(0.0));
        table.rows[0].weight = 1.0;
        let mut peer = InterestTable::new();
        peer.subscribe(Keyword(2), &p, t(0.0));
        table.grow(&peer, 200.0, &p, t(0.0));
        let transient_before = table.weight(Keyword(2));
        assert!(transient_before > 0.0);

        for step in 1..=50 {
            table.decay(t(step as f64 * 60.0), &p, &none());
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
        table.rows[0].weight = 0.2;
        table.decay(t(10.0), &p, &none());
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

    /// A table's row capacity follows its own length: growing a small
    /// table right after two large ones merged on the same thread leaves
    /// it at most twice its row count (or the smallest allocation).
    #[test]
    fn capacity_follows_the_table_not_the_scratch() {
        use crate::exchange::rtsr_exchange;
        use dtn_sim::world::NodeId;
        let p = params();
        let exchange = |tables: &mut [InterestTable], round: u32| {
            let now = t(60.0 * f64::from(round));
            rtsr_exchange(
                tables,
                NodeId(0),
                NodeId(1),
                60.0,
                &p,
                now,
                &none(),
                &none(),
            );
        };
        let mut big = vec![InterestTable::new(), InterestTable::new()];
        for k in 0..150 {
            big[usize::from(k % 3 == 0)].subscribe(Keyword(k), &p, t(0.0));
        }
        exchange(&mut big, 1);
        assert_eq!(
            big[0].len(),
            150,
            "each big table acquired the other's keywords"
        );
        let mut small = vec![InterestTable::new(), InterestTable::new()];
        small[0].subscribe(Keyword(1), &p, t(0.0));
        small[1].subscribe(Keyword(2), &p, t(0.0));
        for round in 1..=50 {
            exchange(&mut small, round);
            let mut lone = InterestTable::new();
            lone.grow(&big[0], 60.0, &p, t(60.0));
            for table in small.iter().chain([&lone]) {
                let (len, cap) = (table.len(), table.rows.capacity());
                assert!(
                    cap <= (2 * len).max(4),
                    "round {round}: {cap} rows held for {len}"
                );
            }
        }
    }
}
