//! The traffic model: message creation schedules.
//!
//! The thesis does not publish its ONE message-generation settings beyond
//! the 1 MB size; we use ONE's standard model — one message created
//! network-wide every `message_interval_secs`, from a uniformly drawn
//! source — and stop creating one TTL before the end of the run so late
//! messages are not structurally undeliverable.

use dtn_core::ops::annotate;
use dtn_sim::kernel::ScheduledMessage;
use dtn_sim::message::{Keyword, Quality};
use dtn_sim::rng::SimRng;
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;

use crate::population::Population;
use crate::scenario::Scenario;

/// Generates the full message schedule for one run.
///
/// Each message gets: a ground truth of `ground_truth_keywords` distinct
/// pool keywords, source tags covering `source_tag_fraction` of the truth
/// (the `Annotate` operator), quality/priority/size from the source's
/// class, and the expected destination set (nodes with a direct interest
/// in a source tag) for the delivery-ratio metric.
#[must_use]
pub fn generate_schedule(
    scenario: &Scenario,
    population: &Population,
    rng: &SimRng,
) -> Vec<ScheduledMessage> {
    let mut traffic_rng = rng.stream(10);
    let count = scenario.expected_message_count();
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let at = SimTime::from_secs((k as f64 + 1.0) * scenario.message_interval_secs);
        let source = NodeId(traffic_rng.index(scenario.nodes) as u32);
        let class = population.classes[source.index()];
        let ground_truth: Vec<Keyword> = traffic_rng
            .choose_indices(
                scenario.keyword_pool as usize,
                scenario.ground_truth_keywords,
            )
            .into_iter()
            .map(|i| Keyword(i as u32))
            .collect();
        let source_tags = annotate(
            &ground_truth,
            scenario.source_tag_fraction,
            &mut traffic_rng,
        );
        let (q_lo, q_hi) = class.quality_range();
        let quality = Quality::new(traffic_rng.uniform(q_lo, q_hi));
        let size_bytes = (scenario.message_size as f64 * class.size_multiplier()) as u64;
        let expected_destinations = population.destinations_for(&source_tags, source);
        out.push(ScheduledMessage {
            at,
            source,
            size_bytes,
            ttl_secs: scenario.message_ttl_secs,
            priority: class.priority(),
            quality,
            ground_truth,
            source_tags,
            expected_destinations,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;
    use crate::population::SourceClass;

    #[test]
    fn schedule_matches_scenario_shape() {
        let s = paper::reduced_scenario();
        let rng = SimRng::new(3);
        let pop = Population::synthesize(&s, &rng);
        let sched = generate_schedule(&s, &pop, &rng);
        assert_eq!(sched.len(), s.expected_message_count());
        for m in &sched {
            assert!(m.source.index() < s.nodes);
            assert_eq!(m.ground_truth.len(), s.ground_truth_keywords);
            assert!(!m.source_tags.is_empty());
            assert!(m.source_tags.iter().all(|t| m.ground_truth.contains(t)));
            assert!(m.size_bytes > 0);
            assert!(m.ttl_secs == s.message_ttl_secs);
            assert!(m.at.as_secs() <= s.duration_secs, "creation within the run");
            assert!(!m.expected_destinations.contains(&m.source));
        }
        // Creation times strictly increase.
        assert!(sched.windows(2).all(|w| w[0].at < w[1].at));
    }

    #[test]
    fn class_drives_message_properties() {
        let mut s = paper::reduced_scenario();
        s.class_mix.high = 1.0;
        s.class_mix.medium = 0.0;
        s.class_mix.low = 0.0;
        let rng = SimRng::new(4);
        let pop = Population::synthesize(&s, &rng);
        assert!(pop.classes.iter().all(|c| *c == SourceClass::High));
        let sched = generate_schedule(&s, &pop, &rng);
        for m in &sched {
            assert_eq!(m.priority, dtn_sim::message::Priority::High);
            assert!(m.quality.value() >= 0.8);
            assert_eq!(m.size_bytes, (s.message_size as f64 * 1.5) as u64);
        }
    }

    #[test]
    fn schedule_is_deterministic() {
        let s = paper::reduced_scenario();
        let rng = SimRng::new(5);
        let pop = Population::synthesize(&s, &rng);
        let a = generate_schedule(&s, &pop, &rng);
        let b = generate_schedule(&s, &pop, &rng);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.source, y.source);
            assert_eq!(x.ground_truth, y.ground_truth);
            assert_eq!(x.source_tags, y.source_tags);
        }
    }

    /// One message every interval from the first interval on, stopping
    /// one TTL (at most a quarter of the run) before the end.
    #[test]
    fn creation_is_periodic_and_stops_before_the_end() {
        let mut s = paper::reduced_scenario();
        s.duration_secs = 1000.0;
        s.message_interval_secs = 30.0;
        for (ttl, count) in [(100.0, 30), (600.0, 25)] {
            s.message_ttl_secs = ttl;
            let rng = SimRng::new(6);
            let pop = Population::synthesize(&s, &rng);
            let sched = generate_schedule(&s, &pop, &rng);
            assert_eq!(sched.len(), count, "ttl {ttl}");
            for (k, m) in sched.iter().enumerate() {
                assert_eq!(m.at, SimTime::from_secs((k as f64 + 1.0) * 30.0));
                assert_eq!(
                    m.expected_destinations,
                    pop.destinations_for(&m.source_tags, m.source)
                );
            }
        }
    }
}
