//! Layer micro-timings on real end-of-run state.
//!
//! After a traced run, the interest and reputation tables of up to
//! [`PAIRS`] recently opened pairs are cloned and the three per-pair
//! exchange routines are timed on the clones, one call at a time. Cloning
//! happens outside the timed span and the clones are dropped afterwards,
//! so the run's own state is never touched.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

use dtn_reputation::table::{GossipDigest, ReputationTable};
use dtn_routing::backend::ChitChatBackend;
use dtn_routing::exchange::{rtsr_exchange, KeywordSet};
use dtn_routing::interests::ChitChatParams;
use dtn_sim::kernel::SimApi;
use dtn_sim::world::NodeId;

use crate::stats::median;

/// Pairs timed per routine.
pub const PAIRS: usize = 256;

/// Median nanoseconds per call of each per-pair routine.
#[derive(Debug, Clone, Copy, Default)]
pub struct MicroTimings {
    pub rtsr_exchange_ns: f64,
    pub absorb_mutual_ns: f64,
    pub absorb_weighted_ns: f64,
}

/// Up to [`PAIRS`] distinct pairs, most recently opened first, from the
/// contact-up history (oldest first).
#[must_use]
pub fn pick_pairs(
    history: impl DoubleEndedIterator<Item = (NodeId, NodeId)>,
) -> Vec<(NodeId, NodeId)> {
    let mut seen = BTreeSet::new();
    history
        .rev()
        .filter(|&pair| seen.insert(pair))
        .take(PAIRS)
        .collect()
}

/// Times the routines on clones of the tables of `pairs`.
#[must_use]
pub fn measure(
    api: &SimApi,
    backend: &ChitChatBackend,
    params: &ChitChatParams,
    reputation: impl Fn(NodeId) -> ReputationTable,
    max_rating: f64,
    pairs: &[(NodeId, NodeId)],
) -> MicroTimings {
    if pairs.is_empty() {
        return MicroTimings::default();
    }
    let shared = |node: NodeId| {
        let mut set = KeywordSet::new();
        for &peer in api.peers_of_slice(node) {
            set.union_with(backend.table(peer).keywords());
        }
        set
    };
    let now = api.now();
    let mut rtsr = Vec::with_capacity(pairs.len());
    let mut mutual = Vec::with_capacity(pairs.len());
    let mut weighted = Vec::with_capacity(pairs.len());
    let mut digest = GossipDigest::default();
    for &(a, b) in pairs {
        let (shared_a, shared_b) = (shared(a), shared(b));
        let mut tables = vec![backend.table(a).clone(), backend.table(b).clone()];
        let started = Instant::now();
        rtsr_exchange(
            &mut tables,
            NodeId(0),
            NodeId(1),
            params.exchange_interval_secs,
            params,
            now,
            &shared_a,
            &shared_b,
        );
        rtsr.push(started.elapsed().as_secs_f64() * 1e9);
        black_box(&tables);

        let (mut ra, mut rb) = (reputation(a), reputation(b));
        let started = Instant::now();
        ReputationTable::absorb_mutual(&mut ra, &mut rb);
        mutual.push(started.elapsed().as_secs_f64() * 1e9);
        black_box((&ra, &rb));

        let (mut ra, mut rb) = (reputation(a), reputation(b));
        let trust = ra.rating_of(b) / max_rating;
        let started = Instant::now();
        rb.issue_digest_into(&mut digest);
        black_box(ra.absorb_digest_weighted(b, &digest, trust));
        weighted.push(started.elapsed().as_secs_f64() * 1e9);
    }
    MicroTimings {
        rtsr_exchange_ns: median(&rtsr),
        absorb_mutual_ns: median(&mutual),
        absorb_weighted_ns: median(&weighted),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_are_distinct_and_most_recent_first() {
        let p = |a, b| (NodeId(a), NodeId(b));
        let history = vec![p(0, 1), p(1, 2), p(0, 1), p(2, 3)];
        assert_eq!(
            pick_pairs(history.into_iter()),
            vec![p(2, 3), p(0, 1), p(1, 2)]
        );
    }
}
