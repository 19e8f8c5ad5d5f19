//! Per-node energy accounting.
//!
//! The incentive mechanism's hardware factor compensates nodes for the
//! battery they spend transmitting and receiving (Paper I, §3.2). The meter
//! integrates transmit power over airtime on the sending side and the
//! Friis-attenuated reception power over airtime on the receiving side.

use serde::{Deserialize, Serialize};

use crate::radio::RadioConfig;
use crate::time::SimDuration;
use crate::world::NodeId;

/// Cumulative energy use for one node, in joules.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyUse {
    /// Joules spent transmitting.
    pub tx_joules: f64,
    /// Joules spent receiving.
    pub rx_joules: f64,
}

impl EnergyUse {
    /// Total joules spent.
    #[must_use]
    pub fn total_joules(&self) -> f64 {
        self.tx_joules + self.rx_joules
    }
}

/// Tracks energy use for every node in the world, optionally against a
/// finite battery budget.
#[derive(Debug)]
pub struct EnergyMeter {
    radio: RadioConfig,
    per_node: Vec<EnergyUse>,
    /// Extra joules drained outside radio activity (fault-injected battery
    /// spikes); counts against the battery but not against radio-use stats.
    drained: Vec<f64>,
    /// Joules available per node; `None` models mains/ideal power.
    battery_joules: Option<f64>,
    /// Nodes whose battery ran out since the last
    /// [`Self::take_depleted`]. Derived from the totals on import.
    newly_depleted: Vec<NodeId>,
}

impl EnergyMeter {
    /// Creates a meter for `node_count` nodes using `radio` for power terms.
    #[must_use]
    pub fn new(node_count: usize, radio: RadioConfig) -> Self {
        EnergyMeter {
            radio,
            per_node: vec![EnergyUse::default(); node_count],
            drained: vec![0.0; node_count],
            battery_joules: None,
            newly_depleted: Vec::new(),
        }
    }

    /// Gives every node a finite battery of `joules`. A node whose total
    /// use reaches the budget is *depleted*: the kernel stops forming
    /// contacts for it (its radio is dead).
    ///
    /// # Panics
    ///
    /// Panics if `joules` is not strictly positive.
    pub fn set_battery(&mut self, joules: f64) {
        assert!(joules > 0.0, "battery budget must be positive");
        self.battery_joules = Some(joules);
        self.rescan_depleted();
    }

    /// The configured battery budget, if any.
    #[must_use]
    pub fn battery_joules(&self) -> Option<f64> {
        self.battery_joules
    }

    /// Joules left in `node`'s battery (`None` on ideal power).
    #[must_use]
    pub fn remaining_joules(&self, node: NodeId) -> Option<f64> {
        self.battery_joules.map(|b| {
            (b - self.per_node[node.index()].total_joules() - self.drained[node.index()]).max(0.0)
        })
    }

    /// Drains `joules` from `node` outside radio accounting (a battery
    /// spike). Only meaningful against a finite battery, but always
    /// recorded.
    ///
    /// # Panics
    ///
    /// Panics if `joules` is negative or not finite.
    pub fn drain(&mut self, node: NodeId, joules: f64) {
        assert!(
            joules.is_finite() && joules >= 0.0,
            "drain must be finite and non-negative"
        );
        let was_depleted = self.is_depleted(node);
        self.drained[node.index()] += joules;
        self.note_depletion(node, was_depleted);
    }

    /// Joules drained from `node` by battery spikes so far.
    #[must_use]
    pub fn drained_joules(&self, node: NodeId) -> f64 {
        self.drained[node.index()]
    }

    /// Whether `node`'s battery is exhausted. Batteries only drain, so a
    /// depleted node stays depleted.
    #[must_use]
    pub fn is_depleted(&self, node: NodeId) -> bool {
        self.remaining_joules(node).is_some_and(|r| r <= 0.0)
    }

    /// The nodes whose battery ran out since the last call, in the order
    /// they ran out. A node depletes once, so it is returned once — except
    /// that after [`Self::import_state`] or [`Self::set_battery`] every
    /// depleted node is returned again, because the world may not have
    /// closed its contacts yet. Always empty on ideal power.
    pub(crate) fn take_depleted(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.newly_depleted)
    }

    /// Reports every depleted node at the next [`Self::take_depleted`].
    fn rescan_depleted(&mut self) {
        self.newly_depleted = (0..self.per_node.len() as u32)
            .map(NodeId)
            .filter(|&n| self.is_depleted(n))
            .collect();
    }

    fn note_depletion(&mut self, node: NodeId, was_depleted: bool) {
        if !was_depleted && self.is_depleted(node) {
            self.newly_depleted.push(node);
        }
    }

    /// Number of depleted nodes.
    #[must_use]
    pub fn depleted_count(&self) -> usize {
        match self.battery_joules {
            None => 0,
            Some(b) => self
                .per_node
                .iter()
                .zip(&self.drained)
                .filter(|(u, d)| u.total_joules() + **d >= b)
                .count(),
        }
    }

    /// Charges both endpoints of a finished transfer.
    ///
    /// Returns `(tx_joules, rx_joules)` for this transfer so the protocol
    /// layer can convert the same quantities into incentive tokens.
    pub fn charge_transfer(
        &mut self,
        from: NodeId,
        to: NodeId,
        airtime: SimDuration,
        distance_m: f64,
    ) -> (f64, f64) {
        let secs = airtime.as_secs();
        let tx = self.radio.tx_power_w * secs;
        let rx = self.radio.rx_power(distance_m) * secs;
        let was_depleted = (self.is_depleted(from), self.is_depleted(to));
        self.per_node[from.index()].tx_joules += tx;
        self.per_node[to.index()].rx_joules += rx;
        self.note_depletion(from, was_depleted.0);
        self.note_depletion(to, was_depleted.1);
        (tx, rx)
    }

    /// Captures the meter's dynamic state (per-node use and spike drains)
    /// for a snapshot; the radio and battery configuration are rebuilt from
    /// the scenario on restore.
    #[must_use]
    pub fn export_state(&self) -> EnergyMeterState {
        EnergyMeterState {
            per_node: self.per_node.clone(),
            drained: self.drained.clone(),
        }
    }

    /// Overwrites the meter's dynamic state from a snapshot.
    ///
    /// # Errors
    ///
    /// Rejects a state sized for a different node count.
    pub fn import_state(&mut self, state: &EnergyMeterState) -> Result<(), String> {
        if state.per_node.len() != self.per_node.len() || state.drained.len() != self.drained.len()
        {
            return Err(format!(
                "snapshot energy state covers {} nodes, world has {}",
                state.per_node.len(),
                self.per_node.len()
            ));
        }
        self.per_node = state.per_node.clone();
        self.drained = state.drained.clone();
        self.rescan_depleted();
        Ok(())
    }

    /// The cumulative use of one node.
    #[must_use]
    pub fn usage(&self, node: NodeId) -> EnergyUse {
        self.per_node[node.index()]
    }

    /// Total joules across the whole network.
    #[must_use]
    pub fn network_total_joules(&self) -> f64 {
        self.per_node.iter().map(EnergyUse::total_joules).sum()
    }
}

/// The dynamic state of an [`EnergyMeter`]: cumulative radio use and
/// fault-injected drains, without the radio/battery configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyMeterState {
    /// Per-node cumulative radio energy use.
    pub per_node: Vec<EnergyUse>,
    /// Per-node joules drained by battery spikes.
    pub drained: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_endpoint() {
        let mut m = EnergyMeter::new(3, RadioConfig::paper_default());
        let (tx, rx) = m.charge_transfer(NodeId(0), NodeId(1), SimDuration::from_secs(4.0), 50.0);
        assert!((tx - 0.4).abs() < 1e-12, "0.1 W * 4 s = 0.4 J, got {tx}");
        assert!(
            rx > 0.0 && rx < tx,
            "reception power is path-loss attenuated"
        );
        assert_eq!(m.usage(NodeId(0)).tx_joules, tx);
        assert_eq!(m.usage(NodeId(1)).rx_joules, rx);
        assert_eq!(m.usage(NodeId(2)), EnergyUse::default());

        m.charge_transfer(NodeId(0), NodeId(2), SimDuration::from_secs(4.0), 50.0);
        assert!((m.usage(NodeId(0)).tx_joules - 2.0 * tx).abs() < 1e-12);
        assert!((m.network_total_joules() - (2.0 * tx + 2.0 * rx)).abs() < 1e-12);
    }

    #[test]
    fn battery_budget_depletes() {
        let mut m = EnergyMeter::new(2, RadioConfig::paper_default());
        assert!(
            m.remaining_joules(NodeId(0)).is_none(),
            "ideal power by default"
        );
        assert!(!m.is_depleted(NodeId(0)));
        m.set_battery(0.5);
        assert_eq!(m.remaining_joules(NodeId(0)), Some(0.5));
        // 0.1 W × 4 s = 0.4 J of transmission.
        m.charge_transfer(NodeId(0), NodeId(1), SimDuration::from_secs(4.0), 50.0);
        assert!(!m.is_depleted(NodeId(0)));
        m.charge_transfer(NodeId(0), NodeId(1), SimDuration::from_secs(4.0), 50.0);
        assert!(m.is_depleted(NodeId(0)), "0.8 J > 0.5 J budget");
        assert_eq!(m.remaining_joules(NodeId(0)), Some(0.0));
        assert!(!m.is_depleted(NodeId(1)), "receiver spent far less");
        assert_eq!(m.depleted_count(), 1);
    }

    #[test]
    fn spike_drain_counts_against_battery_not_radio_stats() {
        let mut m = EnergyMeter::new(2, RadioConfig::paper_default());
        m.set_battery(1.0);
        m.drain(NodeId(0), 0.6);
        assert_eq!(m.drained_joules(NodeId(0)), 0.6);
        assert_eq!(m.usage(NodeId(0)), EnergyUse::default(), "radio untouched");
        assert_eq!(m.remaining_joules(NodeId(0)), Some(0.4));
        assert!(!m.is_depleted(NodeId(0)));
        m.drain(NodeId(0), 0.5);
        assert!(m.is_depleted(NodeId(0)));
        assert_eq!(m.depleted_count(), 1);
        assert_eq!(m.remaining_joules(NodeId(1)), Some(1.0));
    }

    #[test]
    fn depletion_is_reported_once() {
        let mut m = EnergyMeter::new(3, RadioConfig::paper_default());
        m.drain(NodeId(0), 5.0);
        assert!(m.take_depleted().is_empty(), "ideal power never depletes");
        m.set_battery(1.0);
        m.drain(NodeId(2), 0.6);
        m.charge_transfer(NodeId(1), NodeId(0), SimDuration::from_secs(20.0), 50.0);
        m.drain(NodeId(2), 0.6);
        assert_eq!(m.take_depleted(), vec![NodeId(0), NodeId(1), NodeId(2)]);
        m.drain(NodeId(2), 1.0);
        m.charge_transfer(NodeId(0), NodeId(1), SimDuration::from_secs(1.0), 50.0);
        assert!(m.take_depleted().is_empty(), "each node is reported once");
        // A restored meter reports every depleted node again.
        let mut restored = EnergyMeter::new(3, RadioConfig::paper_default());
        restored.set_battery(1.0);
        restored.import_state(&m.export_state()).unwrap();
        assert_eq!(
            restored.take_depleted(),
            vec![NodeId(0), NodeId(1), NodeId(2)]
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_battery_rejected() {
        EnergyMeter::new(1, RadioConfig::paper_default()).set_battery(0.0);
    }

    #[test]
    fn closer_receivers_absorb_more_power() {
        let mut m = EnergyMeter::new(2, RadioConfig::paper_default());
        let (_, rx_near) =
            m.charge_transfer(NodeId(0), NodeId(1), SimDuration::from_secs(1.0), 5.0);
        let (_, rx_far) =
            m.charge_transfer(NodeId(0), NodeId(1), SimDuration::from_secs(1.0), 95.0);
        assert!(rx_near > rx_far);
    }
}
