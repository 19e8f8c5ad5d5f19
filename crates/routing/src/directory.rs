//! A static interest directory for the node-centric backends.
//!
//! The classic backends (Epidemic, Direct Delivery, Spray-and-Wait,
//! Two-Hop, PRoPHET) do not model transient social relationships — they
//! only need to know whether a node is a destination. The directory stores
//! each node's *direct* interests, fixed for the run, so every backend is
//! measured against the same delivery criterion.

use std::collections::HashSet;

use dtn_sim::message::Keyword;
use dtn_sim::world::NodeId;

/// Fixed per-node direct-interest sets.
#[derive(Debug, Clone, Default)]
pub struct InterestDirectory {
    interests: Vec<HashSet<Keyword>>,
}

impl InterestDirectory {
    /// Creates an empty directory for `node_count` nodes.
    #[must_use]
    pub fn new(node_count: usize) -> Self {
        InterestDirectory {
            interests: vec![HashSet::new(); node_count],
        }
    }

    /// Subscribes `node` to `keywords`.
    pub fn subscribe(&mut self, node: NodeId, keywords: impl IntoIterator<Item = Keyword>) {
        self.interests[node.index()].extend(keywords);
    }

    /// Whether `node` holds a direct interest in any of `keywords`.
    #[must_use]
    pub fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        let set = &self.interests[node.index()];
        keywords.iter().any(|k| set.contains(k))
    }

    /// The interests of `node`.
    #[must_use]
    pub fn interests_of(&self, node: NodeId) -> &HashSet<Keyword> {
        &self.interests[node.index()]
    }

    /// Number of nodes covered.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.interests.len()
    }

    /// All nodes with a direct interest in any of `keywords`, excluding
    /// `except` (typically the source), sorted.
    #[must_use]
    pub fn destinations_for(&self, keywords: &[Keyword], except: NodeId) -> Vec<NodeId> {
        (0..self.interests.len() as u32)
            .map(NodeId)
            .filter(|&n| n != except && self.is_destination(n, keywords))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_and_query() {
        let mut d = InterestDirectory::new(3);
        d.subscribe(NodeId(1), [Keyword(1), Keyword(2)]);
        d.subscribe(NodeId(2), [Keyword(2)]);
        assert!(d.is_destination(NodeId(1), &[Keyword(1)]));
        assert!(!d.is_destination(NodeId(0), &[Keyword(1)]));
        assert!(!d.is_destination(NodeId(1), &[Keyword(9)]));
        assert_eq!(
            d.destinations_for(&[Keyword(2)], NodeId(2)),
            vec![NodeId(1)]
        );
        assert_eq!(d.interests_of(NodeId(2)).len(), 1);
        assert_eq!(d.node_count(), 3);
    }

    #[test]
    fn subscriptions_accumulate_without_repeats() {
        let mut d = InterestDirectory::new(2);
        d.subscribe(NodeId(0), [Keyword(3)]);
        d.subscribe(NodeId(0), [Keyword(3), Keyword(4)]);
        d.subscribe(NodeId(0), []);
        let mut held: Vec<Keyword> = d.interests_of(NodeId(0)).iter().copied().collect();
        held.sort_unstable();
        assert_eq!(held, vec![Keyword(3), Keyword(4)]);
        assert!(d.interests_of(NodeId(1)).is_empty());
        assert!(
            !d.is_destination(NodeId(0), &[]),
            "no keywords, no destination"
        );
    }

    #[test]
    fn destinations_are_sorted_and_exclude_only_the_given_node() {
        let mut d = InterestDirectory::new(6);
        for node in [5, 0, 3, 2] {
            d.subscribe(NodeId(node), [Keyword(node % 2), Keyword(7)]);
        }
        assert_eq!(
            d.destinations_for(&[Keyword(7)], NodeId(3)),
            vec![NodeId(0), NodeId(2), NodeId(5)]
        );
        assert_eq!(
            d.destinations_for(&[Keyword(1), Keyword(9)], NodeId(4)),
            vec![NodeId(3), NodeId(5)]
        );
        assert!(InterestDirectory::default()
            .destinations_for(&[Keyword(7)], NodeId(0))
            .is_empty());
    }
}
