//! Property-based tests over the credit mechanism's invariants.

use proptest::prelude::*;

use dtn_incentive::ledger::{TokenLedger, Tokens};
use dtn_incentive::params::{IncentiveParams, Role};
use dtn_incentive::promise::{
    hardware_incentive, software_incentive, tag_incentive, total_promise, SoftwareFactors,
};
use dtn_incentive::settlement::{award, relay_prepayment, AwardInputs};
use dtn_sim::radio::RadioConfig;
use dtn_sim::world::NodeId;

fn arb_factors() -> impl Strategy<Value = SoftwareFactors> {
    (
        0.0f64..20.0, // receiver_interest_sum
        0.0f64..20.0, // max_connected_interest_sum
        0u64..5_000_000,
        1u64..5_000_000,
        0.0f64..1.0,
        0.01f64..1.0,
        1u8..5,
        1u8..5,
        1u8..4,
    )
        .prop_map(
            |(recv, max_conn, size, max_size, q, q_m, r_u, r_v, p_s)| SoftwareFactors {
                receiver_interest_sum: recv,
                max_connected_interest_sum: max_conn,
                size_bytes: size,
                max_size_bytes: max_size,
                quality: q,
                max_quality: q_m.max(q),
                sender_role: Role::new(r_u),
                receiver_role: Role::new(r_v),
                source_priority: p_s,
            },
        )
}

proptest! {
    /// Token transfers conserve the network total under any sequence of
    /// transfers and best-effort settlements.
    #[test]
    fn ledger_conserves_total(
        n in 2usize..12,
        initial in 0.0f64..500.0,
        ops in prop::collection::vec((0usize..12, 0usize..12, 0.0f64..100.0, prop::bool::ANY), 0..200)
    ) {
        let mut ledger = TokenLedger::new(n, Tokens::new(initial));
        let expected_total = initial * n as f64;
        for (from, to, amount, exact) in ops {
            let from = NodeId((from % n) as u32);
            let to = NodeId((to % n) as u32);
            if exact {
                let _ = ledger.transfer(from, to, Tokens::new(amount));
            } else {
                let _ = ledger.transfer_up_to(from, to, Tokens::new(amount));
            }
            prop_assert!(ledger.total().amount().is_finite());
            prop_assert!((ledger.total().amount() - expected_total).abs() < 1e-6);
            for i in 0..n {
                let balance = ledger.balance(NodeId(i as u32)).amount();
                prop_assert!(balance.is_finite());
                prop_assert!(balance >= -1e-9);
            }
        }
    }

    /// transfer_up_to never moves more than requested nor more than the
    /// payer holds.
    #[test]
    fn transfer_up_to_bounds(balance in 0.0f64..100.0, request in 0.0f64..200.0) {
        let mut ledger = TokenLedger::new(2, Tokens::new(balance));
        let moved = ledger.transfer_up_to(NodeId(0), NodeId(1), Tokens::new(request));
        prop_assert!(moved.amount() <= request + 1e-12);
        prop_assert!(moved.amount() <= balance + 1e-12);
        prop_assert!((ledger.balance(NodeId(0)).amount() - (balance - moved.amount())).abs() < 1e-9);
    }

    /// The software incentive is always within `[0, I_m]`.
    #[test]
    fn software_incentive_bounded(f in arb_factors()) {
        let params = IncentiveParams::paper_default();
        let i_s = software_incentive(&f, &params);
        prop_assert!(i_s.amount() >= 0.0);
        prop_assert!(i_s.amount() <= params.max_incentive + 1e-9);
    }

    /// Monotonicity: raising the receiver's interest sum (with the max
    /// fixed) never lowers the software incentive.
    #[test]
    fn software_incentive_monotone_in_interest(
        f in arb_factors(),
        bump in 0.0f64..5.0
    ) {
        let params = IncentiveParams::paper_default();
        // Pin the connected max above both values so P_v stays comparable.
        let mut lo = f;
        lo.max_connected_interest_sum = 40.0;
        let mut hi = lo;
        hi.receiver_interest_sum = lo.receiver_interest_sum + bump;
        prop_assert!(
            software_incentive(&hi, &params) >= software_incentive(&lo, &params)
        );
    }

    /// Total promise is capped at I_m and is at least each component's
    /// min with the cap.
    #[test]
    fn total_promise_cap(s in 0.0f64..30.0, h in 0.0f64..30.0) {
        let params = IncentiveParams::paper_default();
        let total = total_promise(Tokens::new(s), Tokens::new(h), &params);
        prop_assert!(total.amount() <= params.max_incentive + 1e-12);
        prop_assert!(total.amount() <= s + h + 1e-12);
        prop_assert!(total.amount() >= s.min(params.max_incentive) - 1e-12);
    }

    /// Hardware incentive: non-negative, linear in airtime, and the relay
    /// form is never below the source form.
    #[test]
    fn hardware_incentive_shape(airtime in 0.0f64..100.0, distance in 0.0f64..200.0) {
        let params = IncentiveParams::paper_default();
        let radio = RadioConfig::paper_default();
        let src = hardware_incentive(&radio, airtime, distance, true, &params);
        let relay = hardware_incentive(&radio, airtime, distance, false, &params);
        prop_assert!(src.amount() >= 0.0);
        prop_assert!(relay >= src);
        let double = hardware_incentive(&radio, airtime * 2.0, distance, true, &params);
        prop_assert!((double.amount() - 2.0 * src.amount()).abs() < 1e-9);
    }

    /// Tag incentive: monotone in the count, capped at I_c.
    #[test]
    fn tag_incentive_monotone_capped(a in 0usize..100, b in 0usize..100) {
        let params = IncentiveParams::paper_default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(tag_incentive(hi, &params) >= tag_incentive(lo, &params));
        prop_assert!(tag_incentive(hi, &params).amount() <= params.tag_cap + 1e-12);
    }

    /// The award never exceeds promise + tag reward, never falls below the
    /// floor fraction of it, and is monotone in the deliverer's rating.
    #[test]
    fn award_bounds_and_monotonicity(
        promise in 0.0f64..10.0,
        tags in 0.0f64..5.0,
        path in prop::collection::vec(0.0f64..5.0, 0..6),
        rating in 0.0f64..5.0,
        bump in 0.0f64..5.0
    ) {
        let params = IncentiveParams::paper_default();
        let base = AwardInputs {
            promise: Tokens::new(promise),
            tag_reward: Tokens::new(tags),
            path_ratings: path.clone(),
            deliverer_rating: rating,
        };
        let a = award(&base, &params);
        let ceiling = promise + tags;
        prop_assert!(a.amount() <= ceiling + 1e-9);
        prop_assert!(a.amount() >= params.award_floor * ceiling - 1e-9);
        let better = AwardInputs {
            deliverer_rating: (rating + bump).min(params.max_rating),
            ..base
        };
        prop_assert!(award(&better, &params) >= a);
    }

    /// Relay prepayment triggers iff strictly above the threshold, and is
    /// exactly the configured fraction.
    #[test]
    fn prepayment_threshold_exact(mean in 0.0f64..1.0, promise in 0.0f64..10.0) {
        let params = IncentiveParams::paper_default();
        match relay_prepayment(mean, Tokens::new(promise), &params) {
            Some(p) => {
                prop_assert!(mean > params.relay_threshold);
                prop_assert!((p.amount() - promise * params.prepay_fraction).abs() < 1e-12);
            }
            None => prop_assert!(mean <= params.relay_threshold),
        }
    }
}
