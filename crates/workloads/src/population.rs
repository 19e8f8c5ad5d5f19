//! Population synthesis: interests, behaviors, roles and source classes.

use std::collections::HashSet;

use dtn_core::behavior::NodeBehavior;
use dtn_core::strategy::StrategyKind;
use dtn_incentive::params::Role;
use dtn_sim::message::{Keyword, Priority};
use dtn_sim::rng::SimRng;
use dtn_sim::world::NodeId;

use crate::scenario::Scenario;

/// A node's quality/priority class (Fig. 5.6's 50/30/20 source mix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceClass {
    /// High quality, high priority, larger messages.
    High,
    /// Medium quality and priority.
    Medium,
    /// Low quality and priority, smaller messages.
    Low,
}

impl SourceClass {
    /// The priority this class assigns to its messages.
    #[must_use]
    pub fn priority(self) -> Priority {
        match self {
            SourceClass::High => Priority::High,
            SourceClass::Medium => Priority::Medium,
            SourceClass::Low => Priority::Low,
        }
    }

    /// The quality range this class draws from.
    #[must_use]
    pub fn quality_range(self) -> (f64, f64) {
        match self {
            SourceClass::High => (0.8, 1.0),
            SourceClass::Medium => (0.5, 0.8),
            SourceClass::Low => (0.2, 0.5),
        }
    }

    /// Size multiplier over the scenario's base message size ("the higher
    /// quality message has a larger size also", Fig. 5.6 discussion).
    #[must_use]
    pub fn size_multiplier(self) -> f64 {
        match self {
            SourceClass::High => 1.5,
            SourceClass::Medium => 1.0,
            SourceClass::Low => 0.7,
        }
    }
}

/// The synthesized population for one run.
#[derive(Debug, Clone)]
pub struct Population {
    /// Per-node direct-interest sets.
    pub interests: Vec<HashSet<Keyword>>,
    /// Per-node behavior.
    pub behaviors: Vec<NodeBehavior>,
    /// Per-node role.
    pub roles: Vec<Role>,
    /// Per-node source class.
    pub classes: Vec<SourceClass>,
    /// Per-node economic strategy (`None` everywhere unless the scenario
    /// configures a strategy mix).
    pub strategies: Vec<Option<StrategyKind>>,
}

impl Population {
    /// Synthesizes the population for `scenario` from the given RNG stream.
    ///
    /// Selfish and malicious nodes are disjoint subsets drawn uniformly;
    /// interests are `interests_per_node` distinct keywords per node;
    /// classes follow the scenario's 50/30/20 mix; a small fraction of
    /// nodes (one in ten) gets the top role, the rest the default.
    #[must_use]
    pub fn synthesize(scenario: &Scenario, rng: &SimRng) -> Self {
        let n = scenario.nodes;
        let mut interest_rng = rng.stream(1);
        let interests: Vec<HashSet<Keyword>> = (0..n)
            .map(|_| {
                interest_rng
                    .choose_indices(scenario.keyword_pool as usize, scenario.interests_per_node)
                    .into_iter()
                    .map(|i| Keyword(i as u32))
                    .collect()
            })
            .collect();

        let mut behavior_rng = rng.stream(2);
        let selfish_count = (scenario.selfish_fraction * n as f64).round() as usize;
        let malicious_count = (scenario.malicious_fraction * n as f64).round() as usize;
        let special = behavior_rng.choose_indices(n, (selfish_count + malicious_count).min(n));
        let mut behaviors = vec![NodeBehavior::Honest; n];
        let selfish = NodeBehavior::Selfish {
            duty_cycle: scenario.effective_selfish_duty_cycle(),
        };
        for (rank, &idx) in special.iter().enumerate() {
            behaviors[idx] = if rank < selfish_count {
                selfish
            } else {
                NodeBehavior::Malicious
            };
        }

        let mut class_rng = rng.stream(3);
        let classes: Vec<SourceClass> = (0..n)
            .map(|_| {
                let x: f64 = class_rng.uniform(0.0, 1.0);
                if x < scenario.class_mix.high {
                    SourceClass::High
                } else if x < scenario.class_mix.high + scenario.class_mix.medium {
                    SourceClass::Medium
                } else {
                    SourceClass::Low
                }
            })
            .collect();

        let mut role_rng = rng.stream(4);
        let roles: Vec<Role> = (0..n)
            .map(|_| {
                if role_rng.chance(0.1) {
                    Role::TOP
                } else {
                    Role::default()
                }
            })
            .collect();

        // Strategy assignment draws from its own stream, and *only* when
        // the scenario configures attackers: a strategy-free scenario must
        // consume exactly the draws it always consumed, so every existing
        // run (and golden) is byte-identical.
        let mut strategies = vec![None; n];
        if let Some(mix) = &scenario.strategies {
            let counts = mix.counts(n);
            let attackers: usize = counts.iter().sum();
            if attackers > 0 {
                let mut strategy_rng = rng.stream(5);
                let chosen = strategy_rng.choose_indices(n, attackers);
                for (rank, &idx) in chosen.iter().enumerate() {
                    strategies[idx] = mix.kind_for_rank(rank, counts);
                }
            }
        }

        Population {
            interests,
            behaviors,
            roles,
            classes,
            strategies,
        }
    }

    /// Count of strategy-playing (attacker) nodes.
    #[must_use]
    pub fn attacker_count(&self) -> usize {
        self.strategies.iter().filter(|s| s.is_some()).count()
    }

    /// Each node's direct interests, sorted — the canonical subscription
    /// order used everywhere a router is seeded from this population
    /// (deterministic across HashSet iteration orders).
    #[must_use]
    pub fn sorted_interests(&self, node: NodeId) -> Vec<Keyword> {
        let mut sorted: Vec<Keyword> = self.interests[node.index()].iter().copied().collect();
        sorted.sort_unstable();
        sorted
    }

    /// Nodes holding a direct interest in any of `keywords`, excluding
    /// `except`, sorted — the delivery criterion every node-centric routing
    /// backend resolves through its interest directory.
    #[must_use]
    pub fn destinations_for(&self, keywords: &[Keyword], except: NodeId) -> Vec<NodeId> {
        self.interests
            .iter()
            .enumerate()
            .filter(|(i, set)| {
                NodeId(*i as u32) != except && keywords.iter().any(|k| set.contains(k))
            })
            .map(|(i, _)| NodeId(i as u32))
            .collect()
    }

    /// Count of selfish nodes.
    #[must_use]
    pub fn selfish_count(&self) -> usize {
        self.behaviors.iter().filter(|b| b.is_selfish()).count()
    }

    /// Count of malicious nodes.
    #[must_use]
    pub fn malicious_count(&self) -> usize {
        self.behaviors.iter().filter(|b| b.is_malicious()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    fn pop(selfish: f64, malicious: f64) -> Population {
        let mut s = paper::reduced_scenario();
        s.selfish_fraction = selfish;
        s.malicious_fraction = malicious;
        Population::synthesize(&s, &SimRng::new(9))
    }

    #[test]
    fn interest_sets_have_requested_size() {
        let s = paper::reduced_scenario();
        let p = Population::synthesize(&s, &SimRng::new(1));
        assert_eq!(p.interests.len(), s.nodes);
        for set in &p.interests {
            assert_eq!(set.len(), s.interests_per_node);
            assert!(set.iter().all(|k| k.0 < s.keyword_pool));
        }
    }

    #[test]
    fn behavior_counts_match_fractions() {
        let p = pop(0.3, 0.1);
        let n = p.behaviors.len();
        assert_eq!(p.selfish_count(), (0.3 * n as f64).round() as usize);
        assert_eq!(p.malicious_count(), (0.1 * n as f64).round() as usize);
    }

    #[test]
    fn selfish_and_malicious_are_disjoint_by_construction() {
        let p = pop(0.5, 0.5);
        assert_eq!(p.selfish_count() + p.malicious_count(), p.behaviors.len());
    }

    #[test]
    fn class_mix_roughly_matches() {
        let mut s = paper::reduced_scenario();
        s.nodes = 1000;
        let p = Population::synthesize(&s, &SimRng::new(2));
        let high = p
            .classes
            .iter()
            .filter(|c| **c == SourceClass::High)
            .count();
        assert!((400..600).contains(&high), "≈50% high, got {high}");
    }

    #[test]
    fn destinations_respect_interests_and_exclusion() {
        let p = pop(0.0, 0.0);
        let kw: Keyword = *p.interests[3].iter().next().expect("nonempty");
        let dests = p.destinations_for(&[kw], NodeId(3));
        assert!(!dests.contains(&NodeId(3)), "source excluded");
        assert!(!dests.is_empty() || p.interests.iter().filter(|s| s.contains(&kw)).count() <= 1);
        for d in dests {
            assert!(p.interests[d.index()].contains(&kw));
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let s = paper::reduced_scenario();
        let a = Population::synthesize(&s, &SimRng::new(5));
        let b = Population::synthesize(&s, &SimRng::new(5));
        assert_eq!(a.interests, b.interests);
        assert_eq!(a.behaviors, b.behaviors);
        assert_eq!(a.classes, b.classes);
    }

    #[test]
    fn strategies_follow_the_mix_and_leave_other_streams_untouched() {
        let mut s = paper::reduced_scenario();
        s.strategies = Some("free=0.2,minority=0.1,farm=0.1,white=0.05".parse().unwrap());
        let p = Population::synthesize(&s, &SimRng::new(7));
        let mix = s.strategies.unwrap();
        assert_eq!(p.attacker_count(), mix.counts(s.nodes).iter().sum());
        let free = p
            .strategies
            .iter()
            .filter(|k| **k == Some(StrategyKind::FreeRider))
            .count();
        assert_eq!(free, 20);
        // The strategy stream is separate: interests/behaviors/classes/
        // roles are identical with and without strategies configured.
        let plain = Population::synthesize(&paper::reduced_scenario(), &SimRng::new(7));
        assert_eq!(p.interests, plain.interests);
        assert_eq!(p.behaviors, plain.behaviors);
        assert_eq!(p.classes, plain.classes);
        assert_eq!(p.roles, plain.roles);
        assert!(plain.strategies.iter().all(Option::is_none));
        // A defense-only mix assigns nobody and draws nothing.
        let mut d = paper::reduced_scenario();
        d.strategies = Some("defense".parse().unwrap());
        let defended = Population::synthesize(&d, &SimRng::new(7));
        assert_eq!(defended.attacker_count(), 0);
    }

    #[test]
    fn selfish_duty_cycle_override_reaches_behaviors() {
        let mut s = paper::reduced_scenario();
        s.selfish_fraction = 0.3;
        s.selfish_duty_cycle = Some(0.25);
        let p = Population::synthesize(&s, &SimRng::new(11));
        assert!(p
            .behaviors
            .iter()
            .filter(|b| b.is_selfish())
            .all(|b| *b == NodeBehavior::Selfish { duty_cycle: 0.25 }));
    }

    #[test]
    fn class_properties_are_ordered() {
        assert!(SourceClass::High.quality_range().0 > SourceClass::Medium.quality_range().0);
        assert!(SourceClass::Medium.quality_range().0 > SourceClass::Low.quality_range().0);
        assert!(SourceClass::High.size_multiplier() > SourceClass::Low.size_multiplier());
        assert_eq!(SourceClass::High.priority(), Priority::High);
        assert_eq!(SourceClass::Low.priority(), Priority::Low);
    }
}
