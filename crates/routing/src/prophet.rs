//! PRoPHET — Probabilistic Routing Protocol using History of Encounters
//! and Transitivity (Lindgren, Doria, Schelén — MC2R 2003).
//!
//! The standard probabilistic DTN forwarding baseline (it ships with the
//! ONE simulator the paper evaluates on). Each node maintains delivery
//! predictabilities `P(a, b) ∈ [0, 1]`:
//!
//! * **encounter**:    `P(a,b) ← P(a,b) + (1 − P(a,b))·P_init`
//! * **aging**:        `P(a,b) ← P(a,b)·γ^k` for `k` elapsed time units
//! * **transitivity**: `P(a,c) ← P(a,c) + (1 − P(a,c))·P(a,b)·P(b,c)·β`
//!
//! Forwarding: `a` hands `b` a copy of a message destined for `d` iff
//! `P(b,d) > P(a,d)`. Destinations are interest-based like the other
//! node-centric backends: the message's destination set is every node with
//! a direct interest in one of its tags (resolved through an
//! [`InterestDirectory`](crate::directory::InterestDirectory)). The
//! forwarding rule and the per-contact update live in
//! [`ProphetBackend`](crate::backend::ProphetBackend); this module holds
//! the tables.

use std::collections::HashMap;

use dtn_sim::world::NodeId;

/// PRoPHET's tunables, defaulting to the RFC 6693 values.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProphetParams {
    /// `P_init`: the encounter bump (RFC default 0.75).
    pub p_init: f64,
    /// `γ`: the per-second aging base (RFC default 0.98 per time unit; we
    /// use one-minute units, see [`ProphetParams::age_unit_secs`]).
    pub gamma: f64,
    /// `β`: the transitivity damping (RFC default 0.25).
    pub beta: f64,
    /// Seconds per aging unit.
    pub age_unit_secs: f64,
}

impl Default for ProphetParams {
    fn default() -> Self {
        ProphetParams {
            p_init: 0.75,
            gamma: 0.98,
            beta: 0.25,
            age_unit_secs: 60.0,
        }
    }
}

/// One node's predictability table (the state of [`crate::backend`]'s
/// PRoPHET backend).
#[derive(Debug, Clone, Default)]
pub(crate) struct Predictability {
    p: HashMap<NodeId, f64>,
    last_aged: f64,
}

/// Serialized form of one [`Predictability`] table, peer-sorted.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub(crate) struct PredictabilityState {
    p: Vec<(NodeId, f64)>,
    last_aged: f64,
}

impl Predictability {
    pub(crate) fn export_state(&self) -> PredictabilityState {
        let mut p: Vec<(NodeId, f64)> = self.p.iter().map(|(&n, &v)| (n, v)).collect();
        p.sort_unstable_by_key(|&(n, _)| n);
        PredictabilityState {
            p,
            last_aged: self.last_aged,
        }
    }

    pub(crate) fn import_state(&mut self, state: &PredictabilityState) {
        self.p = state.p.iter().copied().collect();
        self.last_aged = state.last_aged;
    }
}

impl Predictability {
    pub(crate) fn age(&mut self, now: f64, params: &ProphetParams) {
        let units = (now - self.last_aged) / params.age_unit_secs;
        if units <= 0.0 {
            return;
        }
        let factor = params.gamma.powf(units);
        for v in self.p.values_mut() {
            *v *= factor;
        }
        self.p.retain(|_, v| *v > 1e-6);
        self.last_aged = now;
    }

    pub(crate) fn encounter(&mut self, peer: NodeId, params: &ProphetParams) {
        let e = self.p.entry(peer).or_insert(0.0);
        *e += (1.0 - *e) * params.p_init;
    }

    pub(crate) fn transit(
        &mut self,
        via: NodeId,
        peer_table: &HashMap<NodeId, f64>,
        params: &ProphetParams,
    ) {
        let p_ab = self.p.get(&via).copied().unwrap_or(0.0);
        for (&c, &p_bc) in peer_table {
            let e = self.p.entry(c).or_insert(0.0);
            *e += (1.0 - *e) * p_ab * p_bc * params.beta;
        }
    }

    pub(crate) fn get(&self, node: NodeId) -> f64 {
        self.p.get(&node).copied().unwrap_or(0.0)
    }

    /// A copy of the raw table, for the pre-transit snapshots the update
    /// rule needs.
    pub(crate) fn snapshot(&self) -> HashMap<NodeId, f64> {
        self.p.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encounter_raises_predictability() {
        let mut p = Predictability::default();
        let params = ProphetParams::default();
        p.encounter(NodeId(1), &params);
        assert_eq!(p.get(NodeId(1)), 0.75);
        p.encounter(NodeId(1), &params);
        assert!(
            (p.get(NodeId(1)) - 0.9375).abs() < 1e-12,
            "0.75 + 0.25·0.75"
        );
        assert!(p.get(NodeId(1)) < 1.0);
    }

    #[test]
    fn aging_decays_predictability() {
        let mut p = Predictability::default();
        let params = ProphetParams::default();
        p.encounter(NodeId(1), &params);
        p.age(600.0, &params); // 10 one-minute units
        let expected = 0.75 * 0.98f64.powf(10.0);
        assert!((p.get(NodeId(1)) - expected).abs() < 1e-9);
    }

    #[test]
    fn transitivity_bridges() {
        let params = ProphetParams::default();
        let mut a = Predictability::default();
        a.encounter(NodeId(1), &params); // P(a,b)=0.75
        let mut b_table = HashMap::new();
        b_table.insert(NodeId(2), 0.8); // P(b,c)=0.8
        a.transit(NodeId(1), &b_table, &params);
        let expected = 0.75 * 0.8 * 0.25;
        assert!((a.get(NodeId(2)) - expected).abs() < 1e-12);
    }
}
