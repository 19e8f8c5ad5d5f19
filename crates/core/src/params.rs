//! All tunables of the integrated protocol, with the paper's defaults and
//! the component toggles used by the ablation benches.

use serde::{Deserialize, Serialize};

use dtn_incentive::params::IncentiveParams;
use dtn_reputation::rating::RatingParams;
use dtn_routing::interests::ChitChatParams;

/// Configuration of the full data-centric incentive protocol.
///
/// The toggles exist for two reasons: the paper's *ChitChat baseline* is
/// exactly this protocol with `incentive_enabled = false` (so the selfish-
/// behavior model applies identically to both arms of every figure), and
/// the ablation bench switches individual components off to attribute the
/// mechanism's effects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProtocolParams {
    /// The ChitChat RTSR constants.
    pub chitchat: ChitChatParams,
    /// The credit-mechanism constants.
    pub incentive: IncentiveParams,
    /// The DRM rating constants.
    pub rating: RatingParams,
    /// Master switch for the credit mechanism. Off → plain ChitChat
    /// (promises, payments and the zero-token reception bar all disabled).
    pub incentive_enabled: bool,
    /// Master switch for the distributed reputation model. Off → awards use
    /// the neutral rating and no gossip is exchanged.
    pub drm_enabled: bool,
    /// Master switch for content enrichment (honest *and* malicious
    /// annotation of in-transit messages).
    pub enrichment_enabled: bool,
    /// Whether the hardware (energy) factor contributes to promises.
    pub hardware_factor_enabled: bool,
    /// Size of the scenario's keyword pool (Table 5.1: 200). Malicious
    /// enrichers draw irrelevant tags from this pool.
    pub keyword_pool_size: u32,
    /// Probability that an honest relay enriches a carried message when it
    /// knows something the tags miss (per reception).
    pub honest_enrich_prob: f64,
    /// Irrelevant tags a malicious node adds per carried message.
    pub malicious_fake_tags: u32,
    /// Probability that a receiving user takes the time to rate a message
    /// (the DRM "requires human judgement"; not every reception is rated).
    pub rating_prob: f64,
    /// Nodes refuse any reception from a sender whose device rating has
    /// fallen below this value (on the 0–`max_rating` scale) — the DRM's
    /// "avoid receiving from malicious nodes" rule.
    pub avoid_rating_threshold: f64,
    /// Cadence of the Fig. 5.4 reputation sampling, seconds.
    pub sample_interval_secs: f64,
}

impl ProtocolParams {
    /// The paper's configuration: everything enabled, Table 5.1 constants.
    #[must_use]
    pub fn paper_default() -> Self {
        ProtocolParams {
            chitchat: ChitChatParams::paper_default(),
            incentive: IncentiveParams::paper_default(),
            rating: RatingParams::paper_default(),
            incentive_enabled: true,
            drm_enabled: true,
            enrichment_enabled: true,
            hardware_factor_enabled: true,
            keyword_pool_size: 200,
            // Enrichment is a deliberate human act ("the user can add this
            // name to the annotations"); per-reception it is rare. 0.02 per
            // hop still fully tags hot messages over their multi-hop life.
            honest_enrich_prob: 0.02,
            malicious_fake_tags: 2,
            rating_prob: 0.15,
            avoid_rating_threshold: 1.0,
            sample_interval_secs: 600.0,
        }
    }

    /// The ChitChat baseline: identical kinematics and behaviors, no
    /// credit, no DRM, no enrichment.
    #[must_use]
    pub fn chitchat_baseline() -> Self {
        ProtocolParams {
            incentive_enabled: false,
            drm_enabled: false,
            enrichment_enabled: false,
            ..Self::paper_default()
        }
    }

    /// Validates nested parameter invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        self.chitchat.validate()?;
        self.incentive.validate()?;
        self.rating.validate()?;
        if !(0.0..=1.0).contains(&self.honest_enrich_prob) {
            return Err("honest_enrich_prob must lie in [0, 1]".into());
        }
        if self.keyword_pool_size == 0 {
            return Err("keyword_pool_size must be positive".into());
        }
        if !(self.sample_interval_secs.is_finite() && self.sample_interval_secs > 0.0) {
            return Err("sample_interval_secs must be finite and positive".into());
        }
        if !(0.0..=1.0).contains(&self.rating_prob) {
            return Err("rating_prob must lie in [0, 1]".into());
        }
        if !(0.0..=self.rating.max_rating).contains(&self.avoid_rating_threshold) {
            return Err("avoid_rating_threshold must lie within the rating scale".into());
        }
        Ok(())
    }
}

impl Default for ProtocolParams {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        assert_eq!(ProtocolParams::paper_default().validate(), Ok(()));
    }

    #[test]
    fn chitchat_baseline_disables_mechanism() {
        let p = ProtocolParams::chitchat_baseline();
        assert!(!p.incentive_enabled);
        assert!(!p.drm_enabled);
        assert!(!p.enrichment_enabled);
        assert_eq!(p.chitchat, ChitChatParams::paper_default(), "same routing");
        assert_eq!(p.validate(), Ok(()));
    }

    #[test]
    fn invalid_nested_params_propagate() {
        let mut p = ProtocolParams::paper_default();
        p.honest_enrich_prob = 1.5;
        assert!(p.validate().is_err());
        let mut p = ProtocolParams::paper_default();
        p.keyword_pool_size = 0;
        assert!(p.validate().is_err());
        let mut p = ProtocolParams::paper_default();
        p.incentive.award_alpha = 0.1;
        assert!(p.validate().is_err());
    }
}
