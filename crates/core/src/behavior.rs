//! Node behavior models (Paper I, §1.3 and §5).
//!
//! * **Honest** nodes cooperate fully and enrich messages with *relevant*
//!   tags when they "know more" about the content.
//! * **Selfish** nodes keep their communication medium off most of the
//!   time: in the paper's experiments "a selfish node has its communication
//!   medium open one out of ten times when it encounters another node".
//! * **Malicious** nodes add irrelevant tags to carried messages (and their
//!   sources produce low-quality content) in pursuit of incentive tokens.

use serde::{Deserialize, Serialize};

use dtn_sim::rng::SimRng;

/// How a node behaves in the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum NodeBehavior {
    /// A fully cooperative node.
    #[default]
    Honest,
    /// A node whose radio is on only with probability `duty_cycle` per
    /// encounter (the paper uses 0.1).
    Selfish {
        /// Probability that the medium is open for a given encounter.
        duty_cycle: f64,
    },
    /// A node that tags messages with irrelevant keywords to farm tokens.
    Malicious,
}

impl NodeBehavior {
    /// The paper's selfish node: medium open one encounter in ten.
    #[must_use]
    pub fn paper_selfish() -> Self {
        NodeBehavior::Selfish { duty_cycle: 0.1 }
    }

    /// Whether this node participates in a given encounter (selfish nodes
    /// draw their duty cycle; everyone else always participates).
    pub fn participates(&self, rng: &mut SimRng) -> bool {
        match *self {
            NodeBehavior::Selfish { duty_cycle } => rng.chance(duty_cycle),
            NodeBehavior::Honest | NodeBehavior::Malicious => true,
        }
    }

    /// Whether the node is selfish.
    #[must_use]
    pub fn is_selfish(&self) -> bool {
        matches!(self, NodeBehavior::Selfish { .. })
    }

    /// Whether the node is malicious.
    #[must_use]
    pub fn is_malicious(&self) -> bool {
        matches!(self, NodeBehavior::Malicious)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_and_malicious_always_participate() {
        let mut rng = SimRng::new(1);
        for _ in 0..100 {
            assert!(NodeBehavior::Honest.participates(&mut rng));
            assert!(NodeBehavior::Malicious.participates(&mut rng));
        }
    }

    #[test]
    fn paper_selfish_opens_roughly_one_encounter_in_ten() {
        let mut rng = SimRng::new(2);
        let b = NodeBehavior::paper_selfish();
        let open = (0..10_000).filter(|_| b.participates(&mut rng)).count();
        assert!((800..1200).contains(&open), "got {open} open encounters");
    }

    #[test]
    fn classification_helpers() {
        assert!(NodeBehavior::paper_selfish().is_selfish());
        assert!(!NodeBehavior::paper_selfish().is_malicious());
        assert!(NodeBehavior::Malicious.is_malicious());
        assert!(!NodeBehavior::Honest.is_selfish());
        assert_eq!(NodeBehavior::default(), NodeBehavior::Honest);
    }

    #[test]
    fn extreme_duty_cycles() {
        let mut rng = SimRng::new(3);
        let never = NodeBehavior::Selfish { duty_cycle: 0.0 };
        let always = NodeBehavior::Selfish { duty_cycle: 1.0 };
        for _ in 0..50 {
            assert!(!never.participates(&mut rng));
            assert!(always.participates(&mut rng));
        }
    }

    /// Behaviors are externally tagged and a selfish node carries its
    /// duty cycle, so a serialized behavior reads back exactly.
    #[test]
    fn behaviors_round_trip_through_json() {
        for (b, json) in [
            (NodeBehavior::Honest, r#""Honest""#),
            (
                NodeBehavior::paper_selfish(),
                r#"{"Selfish":{"duty_cycle":0.1}}"#,
            ),
            (NodeBehavior::Malicious, r#""Malicious""#),
        ] {
            assert_eq!(serde_json::to_string(&b).expect("serializes"), json);
            assert_eq!(
                serde_json::from_str::<NodeBehavior>(json).expect("parses"),
                b
            );
        }
    }

    /// Only a selfish node draws from the encounter stream, one draw per
    /// encounter, so adding honest or malicious nodes never shifts it.
    #[test]
    fn only_selfish_nodes_consume_draws() {
        let mut rng = SimRng::new(4);
        let before = rng.state();
        assert!(NodeBehavior::Honest.participates(&mut rng));
        assert!(NodeBehavior::Malicious.participates(&mut rng));
        assert_eq!(rng.state(), before);
        let mut one_draw = SimRng::new(4);
        let _ = one_draw.chance(0.1);
        let _ = NodeBehavior::paper_selfish().participates(&mut rng);
        assert_eq!(rng.state(), one_draw.state());
    }
}
