//! Deterministic fault injection.
//!
//! A [`FaultPlan`] describes a chaos schedule — node crash/reboot churn,
//! cuts of active links (short cut durations model contact flaps), battery
//! drain spikes, and loss/corruption of completed transfers. The kernel
//! applies the plan through a [`FaultInjector`] that draws every roll from
//! its **own** RNG substream, so a given `(scenario, seed, plan)` triple
//! replays byte-for-byte: faults land at the same steps, on the same nodes,
//! in the same order, without perturbing mobility or protocol randomness.
//!
//! Rates are expressed per node-hour (or per link-hour) and converted to a
//! per-step Bernoulli probability, which keeps a plan meaningful across
//! different step lengths. Plans round-trip through a compact text spec
//! ([`FaultPlan::from_str`] / [`fmt::Display`]) so an invariant breach can
//! report a one-line string that reproduces the run from the CLI.

use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::contact::{ContactKey, ContactTable};
use crate::kernel::STEP_SECS;
use crate::rng::{RngState, SimRng};
use crate::time::{SimDuration, SimTime};
use crate::world::NodeId;

/// RNG substream label for the fault layer ("FAULT" in ASCII).
const FAULT_STREAM: u64 = 0x4641_554C_5400_0000;

/// A declarative chaos schedule. All rates default to zero (an inert plan).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Expected crashes per node-hour.
    pub crash_per_hour: f64,
    /// How long a crashed node stays down before rebooting, in seconds.
    pub crash_down_secs: f64,
    /// Whether a crash wipes the node's buffer (power loss vs. reboot of a
    /// node with persistent storage).
    pub crash_wipes_buffer: bool,
    /// Expected cuts per active-link-hour. Pair with a small
    /// [`FaultPlan::link_cut_secs`] to model contact flaps.
    pub link_cut_per_hour: f64,
    /// How long a cut link stays blocked, in seconds.
    pub link_cut_secs: f64,
    /// Expected battery drain spikes per node-hour.
    pub battery_spike_per_hour: f64,
    /// Joules drained by one spike.
    pub battery_spike_joules: f64,
    /// Probability that a completed transfer's payload is lost in flight.
    pub transfer_loss_prob: f64,
    /// Probability that a completed transfer's payload arrives corrupted.
    /// Rolled after loss; both destroy the copy before it is stored.
    pub transfer_corrupt_prob: f64,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            crash_per_hour: 0.0,
            crash_down_secs: 300.0,
            crash_wipes_buffer: false,
            link_cut_per_hour: 0.0,
            link_cut_secs: 60.0,
            battery_spike_per_hour: 0.0,
            battery_spike_joules: 10.0,
            transfer_loss_prob: 0.0,
            transfer_corrupt_prob: 0.0,
        }
    }
}

impl FaultPlan {
    /// Whether the plan injects nothing (all rates and probabilities zero).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.crash_per_hour == 0.0
            && self.link_cut_per_hour == 0.0
            && self.battery_spike_per_hour == 0.0
            && self.transfer_loss_prob == 0.0
            && self.transfer_corrupt_prob == 0.0
    }

    /// Checks the plan for nonsense values.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found: negative or
    /// non-finite rates, probabilities outside `[0, 1]`, or non-positive
    /// or non-finite durations/magnitudes on an active fault class.
    pub fn validate(&self) -> Result<(), String> {
        let rate = |name: &str, v: f64| {
            if v.is_finite() && v >= 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "{name} must be a finite non-negative rate, got {v}"
                ))
            }
        };
        rate("crash_per_hour", self.crash_per_hour)?;
        rate("link_cut_per_hour", self.link_cut_per_hour)?;
        rate("battery_spike_per_hour", self.battery_spike_per_hour)?;
        let prob = |name: &str, v: f64| {
            if v.is_finite() && (0.0..=1.0).contains(&v) {
                Ok(())
            } else {
                Err(format!("{name} must be a probability in [0, 1], got {v}"))
            }
        };
        prob("transfer_loss_prob", self.transfer_loss_prob)?;
        prob("transfer_corrupt_prob", self.transfer_corrupt_prob)?;
        let span = |name: &str, v: f64, class: &str| {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!(
                    "{name} must be finite and positive when {class} are enabled, got {v}"
                ))
            }
        };
        if self.crash_per_hour > 0.0 {
            span("crash_down_secs", self.crash_down_secs, "crashes")?;
        }
        if self.link_cut_per_hour > 0.0 {
            span("link_cut_secs", self.link_cut_secs, "link cuts")?;
        }
        if self.battery_spike_per_hour > 0.0 {
            span("battery_spike_joules", self.battery_spike_joules, "spikes")?;
        }
        Ok(())
    }
}

/// Renders the compact spec accepted by [`FaultPlan::from_str`]; the
/// round-trip is exact (`f64` `Display` is lossless).
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "crash={},crashdown={},wipe={},cut={},cutdown={},spike={},spikej={},loss={},corrupt={}",
            self.crash_per_hour,
            self.crash_down_secs,
            self.crash_wipes_buffer,
            self.link_cut_per_hour,
            self.link_cut_secs,
            self.battery_spike_per_hour,
            self.battery_spike_joules,
            self.transfer_loss_prob,
            self.transfer_corrupt_prob,
        )
    }
}

/// Parses the compact `key=value` spec, e.g.
/// `crash=2,crashdown=120,wipe,cut=4,cutdown=30,loss=0.02`.
///
/// Keys may appear in any order; missing keys keep their defaults. `wipe`
/// may be given bare (meaning `wipe=true`) or as `wipe=true|false`. Rates
/// (`crash`, `cut`, `spike`) are per hour; durations (`crashdown`,
/// `cutdown`) are seconds; `spikej` is joules; `loss`/`corrupt` are
/// probabilities.
impl FromStr for FaultPlan {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut plan = FaultPlan::default();
        for part in s.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = match part.split_once('=') {
                Some((k, v)) => (k.trim(), Some(v.trim())),
                None => (part, None),
            };
            let num = || -> Result<f64, String> {
                let v = value.ok_or_else(|| format!("chaos key `{key}` needs a value"))?;
                v.parse::<f64>()
                    .map_err(|_| format!("chaos key `{key}`: `{v}` is not a number"))
            };
            match key {
                "crash" => plan.crash_per_hour = num()?,
                "crashdown" => plan.crash_down_secs = num()?,
                "wipe" => {
                    plan.crash_wipes_buffer = match value {
                        None | Some("true") => true,
                        Some("false") => false,
                        Some(v) => return Err(format!("chaos key `wipe`: `{v}` is not a bool")),
                    };
                }
                "cut" => plan.link_cut_per_hour = num()?,
                "cutdown" => plan.link_cut_secs = num()?,
                "spike" => plan.battery_spike_per_hour = num()?,
                "spikej" => plan.battery_spike_joules = num()?,
                "loss" => plan.transfer_loss_prob = num()?,
                "corrupt" => plan.transfer_corrupt_prob = num()?,
                other => return Err(format!("unknown chaos key `{other}`")),
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Counters for every fault the injector actually landed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Nodes crashed.
    pub crashes: u64,
    /// Nodes rebooted after a crash.
    pub reboots: u64,
    /// Buffered copies destroyed by crash wipes.
    pub copies_wiped: u64,
    /// Active links cut.
    pub link_cuts: u64,
    /// Battery drain spikes applied.
    pub battery_spikes: u64,
    /// Completed transfers whose payload was lost.
    pub transfers_lost: u64,
    /// Completed transfers whose payload arrived corrupted.
    pub transfers_corrupted: u64,
}

/// A node-level fault the kernel must apply this step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeFault {
    /// The node crashed: its links drop and, if `wipe`, its buffer empties.
    Crashed {
        /// The crashed node.
        node: NodeId,
        /// Whether the buffer is wiped.
        wipe: bool,
    },
    /// The node finished its downtime and is back.
    Rebooted {
        /// The rebooted node.
        node: NodeId,
    },
    /// A battery drain spike.
    BatterySpike {
        /// The drained node.
        node: NodeId,
        /// Joules to drain.
        joules: f64,
    },
}

/// What happened to a completed transfer's payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransferFault {
    /// The payload never arrived.
    Loss,
    /// The payload arrived unusable.
    Corruption,
}

/// Applies a [`FaultPlan`] deterministically, step by step.
///
/// All randomness comes from one substream of the simulation's root RNG, so
/// the injector neither reads nor perturbs mobility/protocol streams.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: SimRng,
    /// Per node: when a crashed node reboots (`None` = node is up).
    down_until: Vec<Option<SimTime>>,
    /// Cut links and when they unblock.
    blocked_until: HashMap<ContactKey, SimTime>,
    stats: FaultStats,
}

impl FaultInjector {
    /// Creates an injector for `node_count` nodes, drawing from a dedicated
    /// substream of `root`.
    #[must_use]
    pub fn new(plan: FaultPlan, root: &SimRng, node_count: usize) -> Self {
        FaultInjector {
            plan,
            rng: root.stream(FAULT_STREAM),
            down_until: vec![None; node_count],
            blocked_until: HashMap::new(),
            stats: FaultStats::default(),
        }
    }

    /// The plan being applied.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counts of faults landed so far.
    #[must_use]
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `node` is currently crashed.
    #[must_use]
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down_until[node.index()].is_some()
    }

    /// Converts a per-hour rate into one step's Bernoulli probability.
    fn step_prob(rate_per_hour: f64) -> f64 {
        (rate_per_hour / 3600.0 * STEP_SECS).clamp(0.0, 1.0)
    }

    /// Advances the per-node crash/reboot machines and rolls battery
    /// spikes for one step. Returns the faults the kernel must apply, in
    /// deterministic node order.
    pub fn step_nodes(&mut self, now: SimTime) -> Vec<NodeFault> {
        let crash_p = Self::step_prob(self.plan.crash_per_hour);
        let spike_p = Self::step_prob(self.plan.battery_spike_per_hour);
        if crash_p == 0.0 && spike_p == 0.0 && self.down_until.iter().all(Option::is_none) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..self.down_until.len() {
            let node = NodeId(i as u32);
            match self.down_until[i] {
                Some(until) if until <= now => {
                    self.down_until[i] = None;
                    self.stats.reboots += 1;
                    out.push(NodeFault::Rebooted { node });
                }
                Some(_) => continue, // still down: no further faults apply
                None => {}
            }
            if crash_p > 0.0 && self.rng.chance(crash_p) {
                self.down_until[i] = Some(now + SimDuration::from_secs(self.plan.crash_down_secs));
                self.stats.crashes += 1;
                out.push(NodeFault::Crashed {
                    node,
                    wipe: self.plan.crash_wipes_buffer,
                });
                continue; // a node that just crashed takes no spike
            }
            if spike_p > 0.0 && self.rng.chance(spike_p) {
                self.stats.battery_spikes += 1;
                out.push(NodeFault::BatterySpike {
                    node,
                    joules: self.plan.battery_spike_joules,
                });
            }
        }
        out
    }

    /// Records buffer copies destroyed by a crash wipe.
    pub(crate) fn note_wiped(&mut self, copies: usize) {
        self.stats.copies_wiped += copies as u64;
    }

    /// Filters this step's in-range pairs: removes pairs touching a crashed
    /// node or a still-blocked cut link, then rolls fresh cuts on pairs
    /// whose contact is currently up. Returns the freshly cut links so the
    /// kernel can trace them. The time-stepped core's filter; the event
    /// core filters transitions through `expire_cuts`, `admits` and
    /// `roll_cuts`, with the same rolls.
    pub fn veto_links(
        &mut self,
        in_range: &mut Vec<ContactKey>,
        mut is_up: impl FnMut(ContactKey) -> bool,
        now: SimTime,
    ) -> Vec<ContactKey> {
        self.blocked_until.retain(|_, until| *until > now);
        let cut_p = Self::step_prob(self.plan.link_cut_per_hour);
        let mut cuts = Vec::new();
        in_range.retain(|&key| {
            if self.down_until[key.0.index()].is_some() || self.down_until[key.1.index()].is_some()
            {
                return false;
            }
            if self.blocked_until.contains_key(&key) {
                return false;
            }
            // Only an *active* link can be cut; pairs that merely came into
            // range this step have nothing to sever yet.
            if cut_p > 0.0 && is_up(key) && self.rng.chance(cut_p) {
                self.blocked_until
                    .insert(key, now + SimDuration::from_secs(self.plan.link_cut_secs));
                self.stats.link_cuts += 1;
                cuts.push(key);
                return false;
            }
            true
        });
        cuts
    }

    /// Lifts the link cuts that have expired by `now`, appending the freed
    /// pairs to `freed` in no particular order. The event core calls this
    /// once per step in place of the pruning [`Self::veto_links`] does: a
    /// freed pair still in range may come back up this step.
    pub(crate) fn expire_cuts(&mut self, now: SimTime, freed: &mut Vec<ContactKey>) {
        self.blocked_until.retain(|&key, until| {
            let blocked = *until > now;
            if !blocked {
                freed.push(key);
            }
            blocked
        });
    }

    /// Whether `key` may form a link: neither endpoint is crashed and no
    /// cut blocks the pair — the two vetoes [`Self::veto_links`] applies
    /// before rolling cuts.
    #[must_use]
    pub(crate) fn admits(&self, key: ContactKey) -> bool {
        !self.is_down(key.0) && !self.is_down(key.1) && !self.blocked_until.contains_key(&key)
    }

    /// Rolls fresh cuts on the contacts that stay up this step — the event
    /// core's half of [`Self::veto_links`]. `closing` lists, sorted, the
    /// active contacts that go down this step for another reason (out of
    /// range, a depleted radio, a crashed endpoint). Every other active
    /// contact of `contacts` draws one roll, in pair order, which is
    /// exactly the rolls `veto_links` draws on the in-range list. A hit
    /// blocks the pair. Returns the freshly cut pairs, sorted.
    pub(crate) fn roll_cuts(
        &mut self,
        contacts: &ContactTable,
        closing: &[ContactKey],
        now: SimTime,
    ) -> Vec<ContactKey> {
        let cut_p = Self::step_prob(self.plan.link_cut_per_hour);
        let mut cuts = Vec::new();
        if cut_p == 0.0 {
            return cuts;
        }
        let mut closing = closing.iter().peekable();
        for key in contacts.open_sorted() {
            while closing.next_if(|&&k| k < key).is_some() {}
            if closing.next_if_eq(&&key).is_some() {
                continue;
            }
            if self.rng.chance(cut_p) {
                self.blocked_until
                    .insert(key, now + SimDuration::from_secs(self.plan.link_cut_secs));
                self.stats.link_cuts += 1;
                cuts.push(key);
            }
        }
        cuts
    }

    /// Captures the injector's dynamic state (RNG position, crash/cut
    /// machines, landed-fault counters) for a snapshot. The plan itself is
    /// rebuilt from the scenario on restore.
    #[must_use]
    pub fn export_state(&self) -> FaultInjectorState {
        let mut blocked_until: Vec<(NodeId, NodeId, SimTime)> = self
            .blocked_until
            .iter()
            .map(|(k, &until)| (k.0, k.1, until))
            .collect();
        blocked_until.sort_by_key(|&(a, b, _)| (a, b));
        FaultInjectorState {
            rng: self.rng.state(),
            down_until: self.down_until.clone(),
            blocked_until,
            stats: self.stats,
        }
    }

    /// Overwrites the injector's dynamic state from a snapshot, keeping
    /// the configured plan.
    ///
    /// # Errors
    ///
    /// Rejects a state sized for a different node count, and a cut link
    /// that is not a normalized pair of this world's nodes.
    pub fn import_state(&mut self, state: &FaultInjectorState) -> Result<(), String> {
        let nodes = self.down_until.len();
        if state.down_until.len() != nodes {
            return Err(format!(
                "snapshot fault state covers {} nodes, world has {nodes}",
                state.down_until.len(),
            ));
        }
        if let Some(&(a, b, _)) = state
            .blocked_until
            .iter()
            .find(|&&(a, b, _)| a >= b || b.index() >= nodes)
        {
            return Err(format!(
                "snapshot cut link ({a}, {b}) is not a normalized pair of the world's {nodes} nodes"
            ));
        }
        self.rng = SimRng::from_state(state.rng);
        self.down_until = state.down_until.clone();
        self.blocked_until = state
            .blocked_until
            .iter()
            .map(|&(a, b, until)| (ContactKey(a, b), until))
            .collect();
        self.stats = state.stats;
        Ok(())
    }

    /// Rolls loss/corruption for one completed transfer (loss first).
    /// Returns `None` when the payload survives.
    pub fn roll_transfer_fault(&mut self) -> Option<TransferFault> {
        if self.plan.transfer_loss_prob > 0.0 && self.rng.chance(self.plan.transfer_loss_prob) {
            self.stats.transfers_lost += 1;
            return Some(TransferFault::Loss);
        }
        if self.plan.transfer_corrupt_prob > 0.0 && self.rng.chance(self.plan.transfer_corrupt_prob)
        {
            self.stats.transfers_corrupted += 1;
            return Some(TransferFault::Corruption);
        }
        None
    }
}

/// The dynamic state of a [`FaultInjector`]: its RNG position, the
/// crash/cut machines, and the landed-fault counters. The plan is not
/// included — it is rebuilt from the scenario on restore.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultInjectorState {
    /// Position of the fault substream RNG.
    pub rng: RngState,
    /// Per node: when a crashed node reboots (`None` = node is up).
    pub down_until: Vec<Option<SimTime>>,
    /// Cut links and when they unblock, sorted by endpoint pair.
    pub blocked_until: Vec<(NodeId, NodeId, SimTime)>,
    /// Faults landed so far.
    pub stats: FaultStats,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_plan_is_inert_and_valid() {
        let p = FaultPlan::default();
        assert!(p.is_inert());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn spec_round_trips() {
        let plan = FaultPlan {
            crash_per_hour: 2.5,
            crash_down_secs: 120.0,
            crash_wipes_buffer: true,
            link_cut_per_hour: 4.0,
            link_cut_secs: 30.0,
            battery_spike_per_hour: 1.0,
            battery_spike_joules: 55.5,
            transfer_loss_prob: 0.02,
            transfer_corrupt_prob: 0.01,
        };
        let rendered = plan.to_string();
        let parsed: FaultPlan = rendered.parse().expect("rendered spec parses");
        assert_eq!(parsed, plan);
    }

    #[test]
    fn spec_accepts_subsets_and_bare_wipe() {
        let plan: FaultPlan = "crash=1, wipe ,loss=0.5".parse().expect("parses");
        assert_eq!(plan.crash_per_hour, 1.0);
        assert!(plan.crash_wipes_buffer);
        assert_eq!(plan.transfer_loss_prob, 0.5);
        assert_eq!(plan.link_cut_per_hour, 0.0, "unset keys keep defaults");
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!("crash=fast".parse::<FaultPlan>().is_err());
        assert!("warp=9".parse::<FaultPlan>().is_err());
        assert!("loss=1.5".parse::<FaultPlan>().is_err(), "validated too");
        assert!("crash".parse::<FaultPlan>().is_err(), "rate needs a value");
    }

    #[test]
    fn validate_catches_bad_values() {
        let p = FaultPlan {
            crash_per_hour: -1.0,
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            transfer_corrupt_prob: f64::NAN,
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        let p = FaultPlan {
            crash_per_hour: 1.0,
            crash_down_secs: 0.0,
            ..FaultPlan::default()
        };
        assert!(p.validate().is_err());
        // Infinite spans and magnitudes on an active class: the kernel
        // panics on each, so the spec is refused up front.
        for (spec, field) in [
            ("crash=60,crashdown=inf", "crash_down_secs"),
            ("cut=60,cutdown=inf", "link_cut_secs"),
            ("spike=60,spikej=inf", "battery_spike_joules"),
        ] {
            let err = spec.parse::<FaultPlan>().expect_err(spec);
            assert!(err.contains(field), "{spec}: {err}");
        }
    }

    #[test]
    fn injector_is_deterministic() {
        let run = || {
            let root = SimRng::new(42);
            let plan: FaultPlan = "crash=50,crashdown=10,spike=80,spikej=1".parse().unwrap();
            let mut inj = FaultInjector::new(plan, &root, 8);
            let mut events = Vec::new();
            for s in 0..600 {
                let now = SimTime::from_secs(f64::from(s));
                events.extend(inj.step_nodes(now));
            }
            (events, inj.stats())
        };
        let (a, sa) = run();
        let (b, sb) = run();
        assert_eq!(a, b, "same seed+plan must inject identically");
        assert_eq!(sa, sb);
        assert!(sa.crashes > 0, "50/h over 8 node-hours-ish must land");
        assert!(sa.reboots > 0, "10 s downtime reboots within the run");
    }

    #[test]
    fn crashed_nodes_stay_down_for_the_configured_time() {
        let root = SimRng::new(7);
        let plan: FaultPlan = "crash=3600,crashdown=5".parse().unwrap(); // certain crash
        let mut inj = FaultInjector::new(plan, &root, 1);
        let f = inj.step_nodes(SimTime::from_secs(0.0));
        assert!(matches!(f[0], NodeFault::Crashed { .. }));
        for s in 1..5 {
            assert!(inj.is_down(NodeId(0)));
            assert!(inj.step_nodes(SimTime::from_secs(f64::from(s))).is_empty());
        }
        let f = inj.step_nodes(SimTime::from_secs(5.0));
        assert!(matches!(f[0], NodeFault::Rebooted { .. }), "back at t=5");
    }

    #[test]
    fn veto_drops_down_nodes_and_cuts_active_links() {
        let root = SimRng::new(7);
        let plan: FaultPlan = "crash=3600,crashdown=100,cut=3600,cutdown=10"
            .parse()
            .unwrap();
        let mut inj = FaultInjector::new(plan, &root, 3);
        inj.step_nodes(SimTime::ZERO); // everyone crashes (certain rate)
        let mut in_range = vec![
            ContactKey(NodeId(0), NodeId(1)),
            ContactKey(NodeId(1), NodeId(2)),
        ];
        let cuts = inj.veto_links(&mut in_range, |_| true, SimTime::ZERO);
        assert!(in_range.is_empty(), "crashed endpoints veto every pair");
        assert!(cuts.is_empty(), "nothing left to cut");

        // A fresh injector with only link cuts: certain cut on active links.
        let mut inj = FaultInjector::new("cut=3600,cutdown=10".parse().unwrap(), &root, 3);
        let mut in_range = vec![ContactKey(NodeId(0), NodeId(1))];
        let cuts = inj.veto_links(&mut in_range, |_| true, SimTime::ZERO);
        assert_eq!(cuts.len(), 1);
        assert!(in_range.is_empty());
        // Blocked for 10 s: still vetoed without re-rolling.
        let mut in_range = vec![ContactKey(NodeId(0), NodeId(1))];
        let cuts = inj.veto_links(&mut in_range, |_| false, SimTime::from_secs(5.0));
        assert!(cuts.is_empty());
        assert!(in_range.is_empty());
        // After expiry the pair may reconnect.
        let mut in_range = vec![ContactKey(NodeId(0), NodeId(1))];
        let _ = inj.veto_links(&mut in_range, |_| false, SimTime::from_secs(10.0));
        assert_eq!(in_range.len(), 1, "block expired; pair passes (not up yet)");
    }

    #[test]
    fn import_rejects_cuts_outside_the_world() {
        let root = SimRng::new(7);
        let mut inj = FaultInjector::new("cut=4".parse().unwrap(), &root, 3);
        let mut state = inj.export_state();
        state
            .blocked_until
            .push((NodeId(1), NodeId(3), SimTime::ZERO));
        let err = inj.import_state(&state).unwrap_err();
        assert!(err.contains("(n1, n3)"), "{err}");
        state.blocked_until = vec![(NodeId(2), NodeId(1), SimTime::ZERO)];
        assert!(inj.import_state(&state).is_err(), "unnormalized pair");
        state.blocked_until = vec![(NodeId(1), NodeId(2), SimTime::ZERO)];
        inj.import_state(&state)
            .expect("a pair of the world's nodes");
    }

    /// The event core's two halves of `veto_links` make its exact rolls:
    /// one per active contact that stays up, in pair order.
    #[test]
    fn rolled_cuts_match_the_veto() {
        let key = |a: u32, b: u32| ContactKey(NodeId(a), NodeId(b));
        let plan: FaultPlan = "cut=1800,cutdown=10".parse().unwrap();
        let mut table = ContactTable::new();
        let open = [key(0, 1), key(0, 2), key(1, 3), key(2, 3), key(3, 4)];
        table.diff(&open, SimTime::ZERO);
        // (1, 3) leaves range this step; (1, 4) comes into range.
        let in_range = vec![key(0, 1), key(0, 2), key(1, 4), key(2, 3), key(3, 4)];
        let root = SimRng::new(3);
        let mut veto = FaultInjector::new(plan, &root, 5);
        let mut kept = in_range.clone();
        let cut = veto.veto_links(&mut kept, |k| table.is_up(k.0, k.1), SimTime::ZERO);
        let mut events = FaultInjector::new(plan, &root, 5);
        let rolled = events.roll_cuts(&table, &[key(1, 3)], SimTime::ZERO);
        assert_eq!(rolled, cut);
        assert!(
            !cut.is_empty() && cut.len() < 4,
            "half the rolls should hit"
        );
        assert_eq!(events.export_state(), veto.export_state());
        for k in &cut {
            assert!(!events.admits(*k), "a fresh cut blocks its pair");
        }
        let mut freed = Vec::new();
        events.expire_cuts(SimTime::from_secs(10.0), &mut freed);
        freed.sort_unstable();
        assert_eq!(freed, cut, "cuts expire after cutdown");
    }

    #[test]
    fn transfer_faults_follow_probabilities() {
        let root = SimRng::new(9);
        let mut inj = FaultInjector::new("loss=1".parse().unwrap(), &root, 1);
        assert_eq!(inj.roll_transfer_fault(), Some(TransferFault::Loss));
        let mut inj = FaultInjector::new("corrupt=1".parse().unwrap(), &root, 1);
        assert_eq!(inj.roll_transfer_fault(), Some(TransferFault::Corruption));
        let mut inj = FaultInjector::new(FaultPlan::default(), &root, 1);
        assert_eq!(inj.roll_transfer_fault(), None);
    }
}
