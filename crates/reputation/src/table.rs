//! Per-observer reputation tables and contact-time gossip.
//!
//! Every node keeps its own view of every other node's reputation. Two
//! update rules (Paper I, §3.3, "Rating of a node and incentive award"):
//!
//! * **Case 1** (first-hand): after rating messages from node `v`, the
//!   observer recomputes `r_{v,u} = Σ r_{m_v} / N` — the mean of all message
//!   ratings it has assigned to `v`'s contributions.
//! * **Case 2** (second-hand): receiving node `z`'s rating of `v`, the
//!   observer merges `r_{v,u} = (1−α)·r_{v,z} + α·r_{v,u}` with `α > 0.5`,
//!   so gossip nudges but never overrides first-hand experience.
//!
//! On contact, nodes exchange [`GossipDigest`]s of their current device
//! ratings; this is how a malicious node's bad reputation propagates
//! network-wide (Fig. 5.4 measures exactly this propagation speed).

use serde::{Deserialize, Serialize};

use dtn_sim::world::NodeId;

use crate::rating::RatingParams;

/// One observer's opinion record about one subject.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
struct Opinion {
    /// Sum of first-hand message ratings given to the subject.
    firsthand_sum: f64,
    /// Effective first-hand evidence weight. Each rating adds 1.0;
    /// [`ReputationTable::fade`] scales it by the fading factor together
    /// with `firsthand_sum`, so the running mean `sum / weight` stays
    /// within the rating scale no matter how sum and weight have decayed.
    /// (The old integer count was floored on fade while the sum was
    /// scaled, which let the recomputed mean exceed `max_rating`.)
    firsthand_weight: f64,
    /// The current device rating (case 1 and case 2 applied in arrival
    /// order).
    rating: f64,
    /// Whether `rating` holds any information (first- or second-hand).
    informed: bool,
}

/// A compact snapshot of an observer's device ratings, exchanged on contact.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GossipDigest {
    /// `(subject, rating)` pairs, sorted by subject for determinism.
    pub ratings: Vec<(NodeId, f64)>,
    /// Issuer-monotonic sequence number; `0` marks an unsequenced
    /// (legacy) digest that bypasses replay detection. Stamped by
    /// [`ReputationTable::issue_digest`] and checked by
    /// [`ReputationTable::absorb_digest_weighted`].
    #[serde(default)]
    pub sequence: u64,
}

/// One node's view of every other node's reputation.
///
/// Opinions live in a `Vec` sorted by subject: the gossip ritual
/// (digest and absorb, four table walks per exchange) then reads
/// subjects in order without a per-digest sort, and the lookup paths
/// stay cache-resident.
#[derive(Debug, Clone)]
pub struct ReputationTable {
    owner: NodeId,
    params: RatingParams,
    opinions: Vec<(NodeId, Opinion)>,
    /// Digests issued so far; the next [`Self::issue_digest`] stamps
    /// `issued + 1`.
    issued: u64,
    /// Highest digest sequence seen per reporter, sorted by reporter.
    last_seen_seq: Vec<(NodeId, u64)>,
}

thread_local! {
    /// Shared merge buffer for [`ReputationTable::absorb_digest_weighted`]:
    /// the merged opinions are built here and copied back into the table,
    /// so the per-absorb allocation disappears and each table's capacity
    /// follows its own length (a buffer swapped in would carry the largest
    /// merge this thread ever built into whichever table came next). One
    /// buffer per thread, not one per table. Scratch content never reaches
    /// an output (cleared before every use), so sharing cannot change
    /// behavior.
    static ABSORB_SCRATCH: std::cell::RefCell<Vec<(NodeId, Opinion)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl ReputationTable {
    /// Creates the table owned by `owner`.
    #[must_use]
    pub fn new(owner: NodeId, params: RatingParams) -> Self {
        ReputationTable {
            owner,
            params,
            opinions: Vec::new(),
            issued: 0,
            last_seen_seq: Vec::new(),
        }
    }

    /// The observing node.
    #[must_use]
    pub fn owner(&self) -> NodeId {
        self.owner
    }

    /// Bytes of memory this table holds (struct plus heap capacity) —
    /// the per-node reputation footprint, exported as a metrics gauge.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.opinions.capacity() * std::mem::size_of::<(NodeId, Opinion)>()
            + self.last_seen_seq.capacity() * std::mem::size_of::<(NodeId, u64)>()
    }

    /// Index of `subject` in the sorted opinions, or its insertion point.
    fn position(&self, subject: NodeId) -> Result<usize, usize> {
        self.opinions.binary_search_by_key(&subject, |&(n, _)| n)
    }

    /// The opinion about `subject`, creating a default entry if absent.
    fn opinion_mut(&mut self, subject: NodeId) -> &mut Opinion {
        let i = match self.position(subject) {
            Ok(i) => i,
            Err(i) => {
                self.opinions.insert(i, (subject, Opinion::default()));
                i
            }
        };
        &mut self.opinions[i].1
    }

    /// The observer's current device rating of `subject` (the neutral prior
    /// when it knows nothing about the subject).
    #[must_use]
    pub fn rating_of(&self, subject: NodeId) -> f64 {
        self.position(subject)
            .ok()
            .map(|i| &self.opinions[i].1)
            .filter(|o| o.informed)
            .map_or(self.params.neutral_rating, |o| o.rating)
    }

    /// Whether the observer holds any information about `subject`.
    #[must_use]
    pub fn knows(&self, subject: NodeId) -> bool {
        self.position(subject)
            .is_ok_and(|i| self.opinions[i].1.informed)
    }

    /// Number of first-hand message ratings recorded for `subject`
    /// (rounded effective evidence weight once fading has been applied).
    #[must_use]
    pub fn firsthand_count(&self, subject: NodeId) -> u32 {
        self.position(subject)
            .map_or(0.0, |i| self.opinions[i].1.firsthand_weight)
            .round() as u32
    }

    /// Case 1 — records a first-hand message rating for `subject` and
    /// recomputes the device rating as the (evidence-weighted) running
    /// mean of all first-hand message ratings, clamped to the rating
    /// scale. Returns the updated device rating.
    ///
    /// # Panics
    ///
    /// Panics if `subject` is the owner (nodes do not rate themselves).
    pub fn record_message_rating(&mut self, subject: NodeId, message_rating: f64) -> f64 {
        assert!(subject != self.owner, "a node does not rate itself");
        let max = self.params.max_rating;
        let r = message_rating.clamp(0.0, max);
        let o = self.opinion_mut(subject);
        o.firsthand_sum += r;
        o.firsthand_weight += 1.0;
        o.rating = (o.firsthand_sum / o.firsthand_weight).clamp(0.0, max);
        o.informed = true;
        o.rating
    }

    /// Case 2 — merges a second-hand rating of `subject` reported by
    /// another node: `r_{v,u} ← (1−α)·r_{v,z} + α·r_{v,u}`.
    ///
    /// When the observer has no prior information the neutral prior stands
    /// in for `r_{v,u}`. Self-reports (`subject == owner`) are ignored —
    /// reputations of oneself are not actionable. Returns the updated
    /// rating.
    pub fn merge_reported_rating(&mut self, subject: NodeId, reported: f64) -> f64 {
        self.merge_reported_rating_weighted(subject, reported, 1.0)
    }

    /// Case 2 with a credibility weight `w ∈ [0, 1]` on the reporter:
    /// `r_{v,u} ← r_{v,u} + w·(1−α)·(r_{v,z} − r_{v,u})`. At `w = 1` this
    /// is exactly [`Self::merge_reported_rating`]; at `w = 0` the report
    /// is discarded (EigenTrust-style discounting of low-reputation
    /// reporters, SNIPPETS.md ADR-0008). Returns the (possibly unchanged)
    /// rating of `subject`.
    pub fn merge_reported_rating_weighted(
        &mut self,
        subject: NodeId,
        reported: f64,
        weight: f64,
    ) -> f64 {
        if subject == self.owner {
            return self.params.neutral_rating;
        }
        let w = if weight.is_finite() {
            weight.clamp(0.0, 1.0)
        } else {
            0.0
        };
        let prior = self.rating_of(subject);
        if w <= 0.0 {
            return prior;
        }
        let reported = reported.clamp(0.0, self.params.max_rating);
        let alpha = self.params.merge_alpha;
        let merged = prior + w * (1.0 - alpha) * (reported - prior);
        let o = self.opinion_mut(subject);
        o.rating = merged;
        o.informed = true;
        merged
    }

    /// Builds the digest this observer shares on contact (unsequenced:
    /// `sequence = 0`, the legacy wire format).
    #[must_use]
    pub fn digest(&self) -> GossipDigest {
        let mut out = GossipDigest::default();
        self.digest_into(&mut out);
        out
    }

    /// [`Self::digest`] into a caller-owned scratch digest — the gossip
    /// hot path builds two ~`n`-entry digests per exchange, and reusing
    /// the allocation across exchanges keeps the settlement tick off the
    /// allocator.
    pub fn digest_into(&self, out: &mut GossipDigest) {
        out.ratings.clear();
        out.ratings.extend(
            self.opinions
                .iter()
                .filter(|(_, o)| o.informed)
                .map(|&(n, ref o)| (n, o.rating)),
        );
        out.sequence = 0;
    }

    /// Builds a *sequenced* digest: like [`Self::digest`] but stamped with
    /// the next issuer-monotonic sequence number, so receivers can reject
    /// replayed or re-forged copies via
    /// [`Self::absorb_digest_weighted`].
    pub fn issue_digest(&mut self) -> GossipDigest {
        let mut out = GossipDigest::default();
        self.issue_digest_into(&mut out);
        out
    }

    /// [`Self::issue_digest`] into a caller-owned scratch digest.
    pub fn issue_digest_into(&mut self, out: &mut GossipDigest) {
        self.issued += 1;
        self.digest_into(out);
        out.sequence = self.issued;
    }

    /// Absorbs a peer's digest via case-2 merges (skipping entries about
    /// the observer itself and about the reporting peer — a peer's opinion
    /// of itself is not credible testimony).
    pub fn absorb_digest(&mut self, reporter: NodeId, digest: &GossipDigest) {
        let _ = self.absorb_digest_weighted(reporter, digest, 1.0);
    }

    /// Runs *both* directions of the unsequenced gossip exchange in place
    /// — bit-identical to `a.absorb_digest(b, b.digest())` followed by
    /// `b.absorb_digest(a, a.digest())` (digests taken before either
    /// absorb), but with no digest materialized at all: one two-pointer
    /// pass over the two opinion vectors reads both sides' pre-merge
    /// ratings into locals and writes both updates. A subject one side
    /// is informed about and the other has no row for is inserted with
    /// the same neutral-prior arithmetic as the rebuilding merge of
    /// [`Self::absorb_digest_weighted`]; the per-subject update mirrors
    /// that function's sorted fast path at weight 1 (`1.0 * (1.0 - α)`
    /// equals `1.0 - α` exactly).
    pub fn absorb_mutual(a: &mut ReputationTable, b: &mut ReputationTable) {
        let scale_a = 1.0 - a.params.merge_alpha;
        let scale_b = 1.0 - b.params.merge_alpha;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.opinions.len() || j < b.opinions.len() {
            let sa = a.opinions.get(i).map(|&(s, _)| s);
            let sb = b.opinions.get(j).map(|&(s, _)| s);
            match (sa, sb) {
                (Some(sa), Some(sb)) if sa == sb => {
                    if sa != a.owner && sa != b.owner {
                        let (a_informed, a_rating) = {
                            let o = &a.opinions[i].1;
                            (o.informed, o.rating)
                        };
                        let (b_informed, b_rating) = {
                            let o = &b.opinions[j].1;
                            (o.informed, o.rating)
                        };
                        // Long-lived pairs converge: once both ratings
                        // agree, the merge reproduces the prior bit for
                        // bit (`prior + scale * 0`), so skipping the
                        // store keeps the cache line clean without
                        // changing a single output bit.
                        if b_informed {
                            let reported = b_rating.clamp(0.0, a.params.max_rating);
                            let prior = if a_informed {
                                a_rating
                            } else {
                                a.params.neutral_rating
                            };
                            let merged = prior + scale_a * (reported - prior);
                            if !a_informed || merged != a_rating {
                                let o = &mut a.opinions[i].1;
                                o.rating = merged;
                                o.informed = true;
                            }
                        }
                        if a_informed {
                            let reported = a_rating.clamp(0.0, b.params.max_rating);
                            let prior = if b_informed {
                                b_rating
                            } else {
                                b.params.neutral_rating
                            };
                            let merged = prior + scale_b * (reported - prior);
                            if !b_informed || merged != b_rating {
                                let o = &mut b.opinions[j].1;
                                o.rating = merged;
                                o.informed = true;
                            }
                        }
                    }
                    i += 1;
                    j += 1;
                }
                (Some(sa), sb) if sb.is_none() || sa < sb.expect("some") => {
                    // `a` alone holds a row: `b` acquires the subject at
                    // the neutral prior iff `a` is actually informed
                    // (uninformed rows never enter a digest).
                    let o = a.opinions[i].1;
                    if o.informed && sa != a.owner && sa != b.owner {
                        let reported = o.rating.clamp(0.0, b.params.max_rating);
                        let neutral = b.params.neutral_rating;
                        b.opinions.insert(
                            j,
                            (
                                sa,
                                Opinion {
                                    firsthand_sum: 0.0,
                                    firsthand_weight: 0.0,
                                    rating: neutral + scale_b * (reported - neutral),
                                    informed: true,
                                },
                            ),
                        );
                        j += 1;
                    }
                    i += 1;
                }
                _ => {
                    let (s, o) = b.opinions[j];
                    if o.informed && s != a.owner && s != b.owner {
                        let reported = o.rating.clamp(0.0, a.params.max_rating);
                        let neutral = a.params.neutral_rating;
                        a.opinions.insert(
                            i,
                            (
                                s,
                                Opinion {
                                    firsthand_sum: 0.0,
                                    firsthand_weight: 0.0,
                                    rating: neutral + scale_a * (reported - neutral),
                                    informed: true,
                                },
                            ),
                        );
                        i += 1;
                    }
                    j += 1;
                }
            }
        }
    }

    /// Absorbs a peer's digest with replay protection and credibility
    /// weighting. A sequenced digest (`sequence > 0`) is rejected — and
    /// `false` returned — unless its sequence strictly exceeds the highest
    /// sequence previously accepted from `reporter`; accepted entries are
    /// merged through [`Self::merge_reported_rating_weighted`] with
    /// `weight` (the observer's normalized trust in the reporter).
    /// Unsequenced digests always merge.
    pub fn absorb_digest_weighted(
        &mut self,
        reporter: NodeId,
        digest: &GossipDigest,
        weight: f64,
    ) -> bool {
        if digest.sequence != 0 {
            match self
                .last_seen_seq
                .binary_search_by_key(&reporter, |&(n, _)| n)
            {
                Ok(i) => {
                    if digest.sequence <= self.last_seen_seq[i].1 {
                        return false;
                    }
                    self.last_seen_seq[i].1 = digest.sequence;
                }
                Err(i) => self.last_seen_seq.insert(i, (reporter, digest.sequence)),
            }
        }
        let w = if weight.is_finite() {
            weight.clamp(0.0, 1.0)
        } else {
            0.0
        };
        if w <= 0.0 {
            // Per-entry merges at zero weight leave every opinion (and the
            // opinion vector itself) untouched.
            return true;
        }
        // Digests we build are subject-sorted, which admits a linear merge
        // walk over the (also sorted) opinion vector instead of a binary
        // search + mid-vector insert per entry — that pair of calls was
        // the third-hottest site in the 1k-node settlement profile. The
        // per-subject merge arithmetic matches
        // [`Self::merge_reported_rating_weighted`] exactly (same
        // expression, same evaluation order), so ratings stay
        // bit-identical. A hand-built unsorted digest falls back to the
        // per-entry path.
        let sorted = digest.ratings.windows(2).all(|p| p[0].0 < p[1].0);
        if !sorted {
            for &(subject, rating) in &digest.ratings {
                if subject == self.owner || subject == reporter {
                    continue;
                }
                self.merge_reported_rating_weighted(subject, rating, weight);
            }
            return true;
        }
        let max = self.params.max_rating;
        let neutral = self.params.neutral_rating;
        let scale = w * (1.0 - self.params.merge_alpha);
        // Fast path: once the network has warmed up every observer holds
        // an opinion row for every digest subject, so the merge can
        // update in place — no vector rebuild at all. One read-only
        // two-pointer pass decides; any missing subject falls through to
        // the rebuilding merge below.
        let mut i = 0;
        let mut all_present = true;
        for &(subject, _) in &digest.ratings {
            if subject == self.owner || subject == reporter {
                continue;
            }
            while i < self.opinions.len() && self.opinions[i].0 < subject {
                i += 1;
            }
            if i < self.opinions.len() && self.opinions[i].0 == subject {
                i += 1;
            } else {
                all_present = false;
                break;
            }
        }
        if all_present {
            let mut i = 0;
            for &(subject, reported) in &digest.ratings {
                if subject == self.owner || subject == reporter {
                    continue;
                }
                while self.opinions[i].0 < subject {
                    i += 1;
                }
                let o = &mut self.opinions[i].1;
                i += 1;
                let reported = reported.clamp(0.0, max);
                let prior = if o.informed { o.rating } else { neutral };
                o.rating = prior + scale * (reported - prior);
                o.informed = true;
            }
            return true;
        }
        let mut merged = ABSORB_SCRATCH.with(|s| std::mem::take(&mut *s.borrow_mut()));
        merged.clear();
        merged.reserve(self.opinions.len() + digest.ratings.len());
        let mut i = 0;
        for &(subject, reported) in &digest.ratings {
            if subject == self.owner || subject == reporter {
                continue;
            }
            while i < self.opinions.len() && self.opinions[i].0 < subject {
                merged.push(self.opinions[i]);
                i += 1;
            }
            let reported = reported.clamp(0.0, max);
            if i < self.opinions.len() && self.opinions[i].0 == subject {
                let mut o = self.opinions[i].1;
                i += 1;
                let prior = if o.informed { o.rating } else { neutral };
                o.rating = prior + scale * (reported - prior);
                o.informed = true;
                merged.push((subject, o));
            } else {
                merged.push((
                    subject,
                    Opinion {
                        firsthand_sum: 0.0,
                        firsthand_weight: 0.0,
                        rating: neutral + scale * (reported - neutral),
                        informed: true,
                    },
                ));
            }
        }
        merged.extend_from_slice(&self.opinions[i..]);
        self.opinions.clear();
        self.opinions.extend_from_slice(&merged);
        ABSORB_SCRATCH.with(|s| *s.borrow_mut() = merged);
        true
    }

    /// Erases everything known about `subject`: its opinion entry and its
    /// replay-protection watermark. Models the observer's view of an
    /// identity that has left the network — a whitewashing node re-joining
    /// under a fresh identity starts from the neutral prior (and from
    /// sequence zero).
    pub fn forget(&mut self, subject: NodeId) {
        if let Ok(i) = self.position(subject) {
            self.opinions.remove(i);
        }
        if let Ok(i) = self
            .last_seen_seq
            .binary_search_by_key(&subject, |&(n, _)| n)
        {
            self.last_seen_seq.remove(i);
        }
    }

    /// Number of subjects with information.
    #[must_use]
    pub fn known_count(&self) -> usize {
        self.opinions.iter().filter(|(_, o)| o.informed).count()
    }

    /// Ages every opinion toward the neutral prior by `factor ∈ [0, 1]`
    /// (the *fading parameter* of the related-work iterative trust scheme,
    /// thesis ref \[27\]): `r ← neutral + factor·(r − neutral)`, and the
    /// first-hand evidence weight shrinks alongside so stale history stops
    /// dominating fresh observations. `factor = 1` is a no-op; `0` forgets
    /// everything. Opinions that reach the prior with no residual evidence
    /// are dropped.
    ///
    /// The paper's own DRM never fades (its 24-hour runs don't need to);
    /// long-lived deployments call this periodically so a reformed node can
    /// eventually rejoin.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is outside `[0, 1]`.
    pub fn fade(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "fading factor must lie in [0, 1]"
        );
        let neutral = self.params.neutral_rating;
        self.opinions.retain_mut(|&mut (_, ref mut o)| {
            o.rating = neutral + factor * (o.rating - neutral);
            // Sum and weight fade by the same factor, so the running mean
            // they define is invariant under fading and stays in scale.
            o.firsthand_sum *= factor;
            o.firsthand_weight *= factor;
            if o.firsthand_weight <= 1e-9 {
                o.firsthand_weight = 0.0;
                o.firsthand_sum = 0.0;
            }
            // Drop fully-faded opinions: indistinguishable from ignorance.
            let informative = (o.rating - neutral).abs() > 1e-9 || o.firsthand_weight > 0.0;
            o.informed = informative;
            informative
        });
    }

    /// Captures the table's dynamic state for a whole-world snapshot
    /// (owner and rating parameters are build configuration).
    #[must_use]
    pub fn export_state(&self) -> ReputationTableState {
        ReputationTableState {
            opinions: self.opinions.clone(),
            issued: self.issued,
            last_seen_seq: self.last_seen_seq.clone(),
        }
    }

    /// Overwrites the table's dynamic state from a snapshot.
    pub fn import_state(&mut self, state: &ReputationTableState) {
        self.opinions.clone_from(&state.opinions);
        self.issued = state.issued;
        self.last_seen_seq.clone_from(&state.last_seen_seq);
    }
}

/// Serialized form of a [`ReputationTable`]'s dynamic state: the opinion
/// vector (already subject-sorted), the digest-issuance counter, and the
/// per-reporter replay watermarks.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReputationTableState {
    opinions: Vec<(NodeId, Opinion)>,
    issued: u64,
    last_seen_seq: Vec<(NodeId, u64)>,
}

/// The network-wide average rating of each node in `subjects` as seen by
/// `observers` — the quantity Fig. 5.4 plots over time for malicious nodes.
///
/// Observers are resolved by [`ReputationTable::owner`], not by indexing
/// `tables[obs.index()]` — observer ids need not be dense table indices
/// (indexing used to panic on sparse observer sets). Observers without a
/// table contribute nothing.
#[must_use]
pub fn average_rating_of(
    tables: &[ReputationTable],
    observers: &[NodeId],
    subjects: &[NodeId],
) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for &obs in observers {
        // Fast path: tables laid out with owner == index (the runner's
        // layout); fall back to an owner scan for sparse observer sets.
        let table = match tables.get(obs.index()).filter(|t| t.owner() == obs) {
            Some(t) => t,
            None => match tables.iter().find(|t| t.owner() == obs) {
                Some(t) => t,
                None => continue,
            },
        };
        for &subj in subjects {
            if subj == obs {
                continue;
            }
            sum += table.rating_of(subj);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(owner: u32) -> ReputationTable {
        ReputationTable::new(NodeId(owner), RatingParams::paper_default())
    }

    #[test]
    fn unknown_subjects_get_neutral_prior() {
        let t = table(0);
        assert_eq!(t.rating_of(NodeId(5)), 2.5);
        assert!(!t.knows(NodeId(5)));
        assert_eq!(t.known_count(), 0);
    }

    #[test]
    fn case1_is_running_mean() {
        let mut t = table(0);
        assert_eq!(t.record_message_rating(NodeId(1), 4.0), 4.0);
        assert_eq!(t.record_message_rating(NodeId(1), 2.0), 3.0);
        assert_eq!(t.record_message_rating(NodeId(1), 0.0), 2.0);
        assert_eq!(t.firsthand_count(NodeId(1)), 3);
        assert!(t.knows(NodeId(1)));
    }

    #[test]
    fn case2_merge_hand_computed() {
        // α = 0.6; prior 4.0; reported 1.0 → 0.4·1 + 0.6·4 = 2.8.
        let mut t = table(0);
        t.record_message_rating(NodeId(1), 4.0);
        let merged = t.merge_reported_rating(NodeId(1), 1.0);
        assert!((merged - 2.8).abs() < 1e-12);
    }

    #[test]
    fn case2_with_no_prior_uses_neutral() {
        // 0.4·1.0 + 0.6·2.5 = 1.9.
        let mut t = table(0);
        let merged = t.merge_reported_rating(NodeId(1), 1.0);
        assert!((merged - 1.9).abs() < 1e-12);
        assert!(t.knows(NodeId(1)));
    }

    #[test]
    fn own_opinion_dominates_gossip() {
        let mut t = table(0);
        t.record_message_rating(NodeId(1), 5.0);
        // A smear campaign of ten zero-ratings.
        for _ in 0..10 {
            t.merge_reported_rating(NodeId(1), 0.0);
        }
        // Rating decays geometrically by α per report: 5·0.6^10 ≈ 0.03,
        // strictly positive and reached only after *ten* reports.
        assert!(t.rating_of(NodeId(1)) > 0.0);
        let mut fresh = table(2);
        fresh.merge_reported_rating(NodeId(1), 0.0);
        assert!(
            t.rating_of(NodeId(1)) < fresh.rating_of(NodeId(1)) + 5.0,
            "sanity"
        );
    }

    #[test]
    fn self_reports_ignored() {
        let mut t = table(0);
        t.merge_reported_rating(NodeId(0), 5.0);
        assert!(!t.knows(NodeId(0)));

        let mut reporter_digest = GossipDigest::default();
        reporter_digest.ratings.push((NodeId(7), 5.0)); // peer praising itself
        reporter_digest.ratings.push((NodeId(1), 1.0));
        t.absorb_digest(NodeId(7), &reporter_digest);
        assert!(!t.knows(NodeId(7)), "peer's self-praise dropped");
        assert!(t.knows(NodeId(1)));
    }

    #[test]
    fn digest_round_trip_propagates_opinions() {
        let mut a = table(0);
        a.record_message_rating(NodeId(2), 0.5); // a caught 2 misbehaving
        let mut b = table(1);
        b.absorb_digest(NodeId(0), &a.digest());
        // b's view of 2 moved from neutral 2.5 toward 0.5: 0.4·0.5+0.6·2.5 = 1.7.
        assert!((b.rating_of(NodeId(2)) - 1.7).abs() < 1e-12);
    }

    #[test]
    fn digest_is_sorted_and_filtered() {
        let mut t = table(0);
        t.record_message_rating(NodeId(9), 1.0);
        t.record_message_rating(NodeId(3), 2.0);
        let d = t.digest();
        assert_eq!(d.ratings.len(), 2);
        assert!(d.ratings[0].0 < d.ratings[1].0);
    }

    #[test]
    fn ratings_clamped_to_scale() {
        let mut t = table(0);
        t.record_message_rating(NodeId(1), 99.0);
        assert_eq!(t.rating_of(NodeId(1)), 5.0);
        t.merge_reported_rating(NodeId(2), -3.0);
        assert!(t.rating_of(NodeId(2)) >= 0.0);
    }

    #[test]
    fn average_rating_over_observers() {
        let params = RatingParams::paper_default();
        let mut tables: Vec<ReputationTable> = (0..3)
            .map(|i| ReputationTable::new(NodeId(i), params))
            .collect();
        tables[0].record_message_rating(NodeId(2), 1.0);
        tables[1].record_message_rating(NodeId(2), 3.0);
        let avg = average_rating_of(&tables, &[NodeId(0), NodeId(1)], &[NodeId(2)]);
        assert_eq!(avg, 2.0);
        // Subject == observer pairs are skipped.
        let avg = average_rating_of(&tables, &[NodeId(2)], &[NodeId(2)]);
        assert_eq!(avg, 0.0);
    }

    #[test]
    #[should_panic(expected = "does not rate itself")]
    fn rating_self_firsthand_panics() {
        table(0).record_message_rating(NodeId(0), 3.0);
    }

    #[test]
    fn fading_pulls_ratings_toward_neutral() {
        let mut t = table(0);
        t.record_message_rating(NodeId(1), 0.0); // caught liar, rating 0
        t.record_message_rating(NodeId(2), 5.0); // trusted peer
        t.fade(0.5);
        // 2.5 + 0.5·(0 − 2.5) = 1.25; 2.5 + 0.5·(5 − 2.5) = 3.75.
        assert!((t.rating_of(NodeId(1)) - 1.25).abs() < 1e-9);
        assert!((t.rating_of(NodeId(2)) - 3.75).abs() < 1e-9);
        assert!(t.knows(NodeId(1)) && t.knows(NodeId(2)));
    }

    #[test]
    fn full_fade_forgets_everything() {
        let mut t = table(0);
        t.record_message_rating(NodeId(1), 0.0);
        t.merge_reported_rating(NodeId(2), 4.0);
        t.fade(0.0);
        assert_eq!(t.known_count(), 0);
        assert_eq!(t.rating_of(NodeId(1)), 2.5, "back to the prior");
        assert_eq!(t.firsthand_count(NodeId(1)), 0);
    }

    #[test]
    fn no_op_fade_changes_nothing() {
        let mut t = table(0);
        t.record_message_rating(NodeId(1), 4.0);
        t.record_message_rating(NodeId(1), 2.0);
        t.fade(1.0);
        assert_eq!(t.rating_of(NodeId(1)), 3.0);
        assert_eq!(t.firsthand_count(NodeId(1)), 2);
    }

    #[test]
    fn faded_evidence_lets_fresh_observations_dominate() {
        let mut t = table(0);
        for _ in 0..10 {
            t.record_message_rating(NodeId(1), 0.0);
        }
        // Years pass (repeated fading); the node reforms.
        for _ in 0..6 {
            t.fade(0.5);
        }
        let before = t.rating_of(NodeId(1));
        t.record_message_rating(NodeId(1), 5.0);
        assert!(
            t.rating_of(NodeId(1)) > 4.0,
            "fresh good behavior outweighs faded history: {} → {}",
            before,
            t.rating_of(NodeId(1))
        );
    }

    #[test]
    #[should_panic(expected = "fading factor")]
    fn fade_rejects_out_of_range() {
        table(0).fade(1.5);
    }

    /// Regression for the fade inconsistency: three 5.0 ratings then
    /// `fade(0.4)` left sum = 6.0 but floored the count to 1, so the next
    /// 5.0 recomputed the mean as (6.0 + 5.0)/2 = 5.5 > max_rating. With
    /// the fractional weight the mean is (6.0 + 5.0)/2.2 = 5.0 exactly.
    #[test]
    fn fade_then_record_stays_within_scale() {
        let mut t = table(0);
        for _ in 0..3 {
            t.record_message_rating(NodeId(1), 5.0);
        }
        t.fade(0.4);
        let r = t.record_message_rating(NodeId(1), 5.0);
        assert!(r <= 5.0, "mean exceeded max_rating after fade: {r}");
        assert!((r - 5.0).abs() < 1e-12, "all-5.0 evidence means 5.0: {r}");
        assert!(t.rating_of(NodeId(1)) <= 5.0);
    }

    #[test]
    fn average_rating_handles_sparse_observers() {
        let params = RatingParams::paper_default();
        // Tables owned by 5 and 9: observer ids far beyond the slice's
        // index range (the old index-based lookup panicked here).
        let mut tables = vec![
            ReputationTable::new(NodeId(5), params),
            ReputationTable::new(NodeId(9), params),
        ];
        tables[0].record_message_rating(NodeId(2), 1.0);
        tables[1].record_message_rating(NodeId(2), 3.0);
        let avg = average_rating_of(&tables, &[NodeId(5), NodeId(9)], &[NodeId(2)]);
        assert_eq!(avg, 2.0);
        // Observers without a table are skipped, not a panic.
        let avg = average_rating_of(&tables, &[NodeId(42)], &[NodeId(2)]);
        assert_eq!(avg, 0.0);
    }

    #[test]
    fn sequenced_digests_reject_replay_and_stale_copies() {
        let mut reporter = table(1);
        reporter.record_message_rating(NodeId(2), 0.5);
        let d1 = reporter.issue_digest();
        let d2 = reporter.issue_digest();
        assert_eq!((d1.sequence, d2.sequence), (1, 2));

        let mut t = table(0);
        assert!(t.absorb_digest_weighted(NodeId(1), &d1, 1.0));
        assert!(!t.absorb_digest_weighted(NodeId(1), &d1, 1.0), "replay");
        let after_first = t.rating_of(NodeId(2));
        assert!(t.absorb_digest_weighted(NodeId(1), &d2, 1.0));
        assert!(
            !t.absorb_digest_weighted(NodeId(1), &d1, 1.0),
            "stale out-of-order copy rejected"
        );
        assert!(t.rating_of(NodeId(2)) < after_first, "d2 merged once");
        // Sequences are per-issuer: another reporter's seq-1 still lands.
        assert!(t.absorb_digest_weighted(NodeId(3), &d1, 1.0));
        // Unsequenced digests bypass replay detection entirely.
        let legacy = reporter.digest();
        assert_eq!(legacy.sequence, 0);
        assert!(t.absorb_digest_weighted(NodeId(1), &legacy, 1.0));
    }

    #[test]
    fn weighted_merge_discounts_low_credibility_reporters() {
        // Full-weight merge ≡ the classic case-2 rule.
        let mut full = table(0);
        full.record_message_rating(NodeId(1), 4.0);
        let mut classic = full.clone();
        full.merge_reported_rating_weighted(NodeId(1), 1.0, 1.0);
        classic.merge_reported_rating(NodeId(1), 1.0);
        assert_eq!(full.rating_of(NodeId(1)), classic.rating_of(NodeId(1)));

        // Half weight moves half as far; zero weight not at all.
        let mut half = table(0);
        half.record_message_rating(NodeId(1), 4.0);
        half.merge_reported_rating_weighted(NodeId(1), 1.0, 0.5);
        let moved_full = 4.0 - full.rating_of(NodeId(1));
        let moved_half = 4.0 - half.rating_of(NodeId(1));
        assert!((moved_half - moved_full / 2.0).abs() < 1e-12);
        let mut zero = table(0);
        zero.record_message_rating(NodeId(1), 4.0);
        zero.merge_reported_rating_weighted(NodeId(1), 1.0, 0.0);
        assert_eq!(zero.rating_of(NodeId(1)), 4.0);
        assert_eq!(
            zero.merge_reported_rating_weighted(NodeId(1), 1.0, f64::NAN),
            4.0
        );
    }

    #[test]
    fn forget_erases_opinion_and_replay_watermark() {
        let mut t = table(0);
        t.record_message_rating(NodeId(1), 0.0);
        let mut reporter = table(1);
        reporter.record_message_rating(NodeId(2), 1.0);
        let d = reporter.issue_digest();
        assert!(t.absorb_digest_weighted(NodeId(1), &d, 1.0));
        t.forget(NodeId(1));
        assert!(!t.knows(NodeId(1)), "opinion gone");
        assert_eq!(t.rating_of(NodeId(1)), 2.5, "back to the prior");
        // The fresh identity restarts its sequence space.
        assert!(t.absorb_digest_weighted(NodeId(1), &d, 1.0), "seq reset");
    }

    /// A table's opinion capacity follows its own row count: after a
    /// large merge on the same thread, a small table absorbing one new
    /// subject at a time holds at most twice its rows (or the smallest
    /// allocation).
    #[test]
    fn capacity_follows_the_table_after_many_absorbs() {
        let mut big = table(0);
        for last in [2_000, 2_001] {
            let wide = GossipDigest {
                ratings: (1..last).map(|n| (NodeId(n), 3.0)).collect(),
                sequence: 0,
            };
            assert!(big.absorb_digest_weighted(NodeId(9_999), &wide, 1.0));
        }
        let mut small = table(0);
        for n in 1..=60 {
            let digest = GossipDigest {
                ratings: vec![(NodeId(n), 4.0)],
                sequence: 0,
            };
            assert!(small.absorb_digest_weighted(NodeId(9_999), &digest, 1.0));
            let (len, cap) = (small.opinions.len(), small.opinions.capacity());
            assert!(
                cap <= (2 * len).max(4),
                "absorb {n}: {cap} rows held for {len}"
            );
        }
    }
}
