//! Delivery settlement: who gets paid, and how much.
//!
//! The mechanism avoids feedback messages entirely by paying **only the
//! first deliverer** of a message to each destination (Paper I, §1): a relay
//! knows at hand-off time that its promise is conditional on winning the
//! race. The kernel decides "first": `SimApi::mark_delivered` in `dtn-sim`
//! returns `true` once per `(message, destination)` pair, and the router
//! settles only then, so a redelivered copy settles nothing.
//!
//! The amount actually paid scales the promise by the deliverer's
//! reputation (Paper I, §3.3):
//!
//! ```text
//! I_v = ((1−α)·(Σ r_{m_v,x})/N + α·r_{v,u}/r_m) · (I + I_t),   α > 0.5
//! ```
//!
//! where the first term averages the ratings the message gathered along its
//! path and the second is the destination's own device rating for the
//! deliverer. Both terms are normalized by the maximum rating `r_m` so the
//! award is a *fraction* of the promise (the thesis writes the first term
//! unnormalized, which would let an award exceed its promise five-fold on a
//! 0–5 scale; see DESIGN.md interpretation note 5), and the fraction is
//! floored at [`crate::params::IncentiveParams::award_floor`] so poorly
//! rated deliverers still receive "a percentage of incentive".

use crate::ledger::Tokens;
use crate::params::IncentiveParams;

/// Inputs to the award computation for one delivery.
#[derive(Debug, Clone, PartialEq)]
pub struct AwardInputs {
    /// The promise `I` attached to the message for this deliverer.
    pub promise: Tokens,
    /// The tag reward `I_t` for enrichment tags the destination accepted.
    pub tag_reward: Tokens,
    /// Ratings `r_{m_v,x}` gathered by the message along its path (may be
    /// empty when no intermediate node rated it).
    pub path_ratings: Vec<f64>,
    /// `r_{v,u}`: the destination's device rating for the deliverer, on the
    /// `[0, r_m]` scale.
    pub deliverer_rating: f64,
}

/// Computes `I_v`, the tokens the destination owes the deliverer.
///
/// The award fraction is
/// `(1−α)·mean(path_ratings)/r_m + α·deliverer_rating/r_m`, clamped into
/// `[award_floor, 1]`. With no path ratings the deliverer's own rating
/// carries full weight (the destination has nothing else to go on).
#[must_use]
pub fn award(inputs: &AwardInputs, params: &IncentiveParams) -> Tokens {
    let r_m = params.max_rating;
    let own = (inputs.deliverer_rating / r_m).clamp(0.0, 1.0);
    let fraction = if inputs.path_ratings.is_empty() {
        own
    } else {
        let mean_path = inputs.path_ratings.iter().sum::<f64>() / inputs.path_ratings.len() as f64;
        let path = (mean_path / r_m).clamp(0.0, 1.0);
        (1.0 - params.award_alpha) * path + params.award_alpha * own
    };
    let fraction = fraction.clamp(params.award_floor, 1.0);
    (inputs.promise + inputs.tag_reward).scaled(fraction)
}

/// Computes the prepayment a receiving relay owes the sender when its mean
/// tag weight exceeds the relay threshold (Table 5.1: 0.8).
///
/// Returns `None` when the threshold is not met (the hand-off is free for
/// the receiver; it will recoup from the destination if it wins the race).
#[must_use]
pub fn relay_prepayment(
    receiver_mean_weight: f64,
    promise: Tokens,
    params: &IncentiveParams,
) -> Option<Tokens> {
    if receiver_mean_weight > params.relay_threshold {
        Some(promise.scaled(params.prepay_fraction))
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> IncentiveParams {
        IncentiveParams::paper_default()
    }

    #[test]
    fn award_hand_computed() {
        // α = 0.6, r_m = 5; path ratings mean 4.0 → 0.8; own rating 3.0 → 0.6.
        // fraction = 0.4·0.8 + 0.6·0.6 = 0.68; award = 0.68·(10+2) = 8.16.
        let inputs = AwardInputs {
            promise: Tokens::new(10.0),
            tag_reward: Tokens::new(2.0),
            path_ratings: vec![5.0, 3.0],
            deliverer_rating: 3.0,
        };
        let a = award(&inputs, &params());
        assert!((a.amount() - 8.16).abs() < 1e-12, "got {a}");
    }

    #[test]
    fn award_without_path_ratings_uses_own_rating() {
        let inputs = AwardInputs {
            promise: Tokens::new(10.0),
            tag_reward: Tokens::ZERO,
            path_ratings: vec![],
            deliverer_rating: 5.0,
        };
        assert_eq!(award(&inputs, &params()).amount(), 10.0);
    }

    #[test]
    fn award_floored_for_pariahs() {
        let inputs = AwardInputs {
            promise: Tokens::new(10.0),
            tag_reward: Tokens::ZERO,
            path_ratings: vec![0.0],
            deliverer_rating: 0.0,
        };
        // fraction clamps to the floor (0.2) → 2 tokens.
        assert_eq!(award(&inputs, &params()).amount(), 2.0);
    }

    #[test]
    fn award_never_exceeds_promise_plus_tags() {
        let inputs = AwardInputs {
            promise: Tokens::new(7.0),
            tag_reward: Tokens::new(3.0),
            path_ratings: vec![500.0], // hostile input, clamped
            deliverer_rating: 500.0,
        };
        assert_eq!(award(&inputs, &params()).amount(), 10.0);
    }

    #[test]
    fn better_reputation_earns_more() {
        let mk = |r| AwardInputs {
            promise: Tokens::new(10.0),
            tag_reward: Tokens::ZERO,
            path_ratings: vec![2.5],
            deliverer_rating: r,
        };
        assert!(award(&mk(4.5), &params()) > award(&mk(1.5), &params()));
    }

    #[test]
    fn relay_prepayment_threshold() {
        let p = params();
        let promise = Tokens::new(8.0);
        assert_eq!(
            relay_prepayment(0.8, promise, &p),
            None,
            "must strictly exceed"
        );
        let pre = relay_prepayment(0.81, promise, &p).expect("above threshold");
        assert_eq!(pre.amount(), 2.0, "25% of the promise");
        assert_eq!(relay_prepayment(0.2, promise, &p), None);
    }
}
