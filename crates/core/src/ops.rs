//! The operator functions of Paper I, §4.
//!
//! The paper specifies eleven user/system functions. Most map directly onto
//! methods of the component crates; this module provides the one that does
//! not (`Annotate`) and a cross-reference so the public API matches the
//! paper's operator list one-to-one. Functions 5–7 are the route pass
//! [`crate::protocol::DcimRouter`] runs on each contact and settlement
//! tick, which asks its [`RouterBackend`] about each buffered message:
//!
//! | Paper function | Implemented by |
//! |---|---|
//! | 1. `Annotate` | [`annotate`] (source tags from content) |
//! | 2. `Subscribe` | [`crate::protocol::DcimRouter::subscribe`] |
//! | 3. `DecayWeights` | [`dtn_routing::interests::InterestTable::decay`] |
//! | 4. `IncrementWeights` | [`dtn_routing::interests::InterestTable::grow`] |
//! | 5. `GetMessagesToForward` | the route pass, gated by [`RouterBackend::is_destination`] and [`RouterBackend::accepts_relay`] |
//! | 6. `DecideDestOrRelay` | [`RouterBackend::is_destination`] |
//! | 7. `DecideBestRelay` | [`RouterBackend::accepts_relay`] (ChitChat: `S_to > S_from`) |
//! | 8. `ComputeIncentive` | [`crate::protocol::DcimRouter`] promise quoting (see [`dtn_incentive::promise`]) |
//! | 9. `RateMessage` | [`crate::judge::judge_message`] + [`dtn_reputation::rating`] |
//! | 10. `RateNode` | [`dtn_reputation::table::ReputationTable::rating_of`] |
//! | 11. `Enrich` | [`crate::enrich::enrich_copy`] |
//!
//! [`RouterBackend`]: dtn_routing::backend::RouterBackend
//! [`RouterBackend::is_destination`]: dtn_routing::backend::RouterBackend::is_destination
//! [`RouterBackend::accepts_relay`]: dtn_routing::backend::RouterBackend::accepts_relay

use dtn_sim::message::Keyword;
use dtn_sim::rng::SimRng;

/// Operator function 1 — `Annotate`: produces the source's initial tags for
/// a message whose content is described by `ground_truth`.
///
/// The source "fetches labels from the cloud" and keeps the ones that suit
/// the image; we model that as keeping a fraction of the true content
/// keywords (at least one), leaving the remainder for en-route enrichment.
///
/// # Panics
///
/// Panics if `ground_truth` is empty or `keep_fraction` is outside `(0, 1]`.
#[must_use]
pub fn annotate(ground_truth: &[Keyword], keep_fraction: f64, rng: &mut SimRng) -> Vec<Keyword> {
    assert!(
        !ground_truth.is_empty(),
        "content must have at least one keyword"
    );
    assert!(
        keep_fraction > 0.0 && keep_fraction <= 1.0,
        "keep_fraction must lie in (0, 1]"
    );
    let keep =
        ((ground_truth.len() as f64 * keep_fraction).round() as usize).clamp(1, ground_truth.len());
    let mut picked = rng.choose_indices(ground_truth.len(), keep);
    picked.sort_unstable();
    picked.into_iter().map(|i| ground_truth[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotate_keeps_a_nonempty_truth_subset() {
        let truth: Vec<Keyword> = (0..6).map(Keyword).collect();
        let mut rng = SimRng::new(1);
        for frac in [0.2, 0.5, 1.0] {
            let tags = annotate(&truth, frac, &mut rng);
            assert!(!tags.is_empty());
            assert!(tags.len() <= truth.len());
            assert!(tags.iter().all(|t| truth.contains(t)));
            let mut sorted = tags.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), tags.len(), "no duplicates");
        }
        assert_eq!(annotate(&truth, 1.0, &mut rng).len(), 6);
    }

    #[test]
    #[should_panic(expected = "keep_fraction")]
    fn annotate_rejects_zero_fraction() {
        let _ = annotate(&[Keyword(1)], 0.0, &mut SimRng::new(1));
    }
}
