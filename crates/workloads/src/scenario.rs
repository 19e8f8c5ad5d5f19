//! Scenario configuration.
//!
//! A [`Scenario`] captures every knob of one experimental condition —
//! Table 5.1's simulation parameters plus the population mix (selfish /
//! malicious fractions), the traffic model, and the protocol configuration.
//! Scenarios are plain data (serde round-trippable) so experiment sweeps
//! are just `Vec<Scenario>`.

use serde::{Deserialize, Serialize};

use dtn_core::params::ProtocolParams;
use dtn_sim::mobility::{MobilityModel, RandomWalk, RandomWaypoint};
use dtn_sim::mobility_map::ManhattanGrid;
use dtn_sim::radio::RadioConfig;

/// The protocol arm a scenario is run under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arm {
    /// The paper's full mechanism (credit + DRM + enrichment).
    Incentive,
    /// The ChitChat baseline (same behaviors, mechanism off).
    ChitChat,
}

impl Arm {
    /// Both arms, mechanism first.
    pub const BOTH: [Arm; 2] = [Arm::Incentive, Arm::ChitChat];

    /// Display label used in experiment tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Arm::Incentive => "Incentive",
            Arm::ChitChat => "ChitChat",
        }
    }
}

/// Which mobility model the population moves under.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Mobility {
    /// ONE's pedestrian Random Waypoint (the paper's model; the default).
    #[default]
    RandomWaypoint,
    /// Free-space random walk at pedestrian speed.
    RandomWalk,
    /// Manhattan street-grid movement (downtown profile).
    ManhattanGrid,
}

impl Mobility {
    /// Instantiates one node's mobility model.
    #[must_use]
    pub fn instantiate(self) -> Box<dyn MobilityModel> {
        match self {
            Mobility::RandomWaypoint => Box::new(RandomWaypoint::pedestrian()),
            Mobility::RandomWalk => Box::new(RandomWalk::new(1.2)),
            Mobility::ManhattanGrid => Box::new(ManhattanGrid::downtown()),
        }
    }
}

/// The three source classes of the Fig. 5.6 workload: "50% of the nodes
/// generated high quality larger size and high priority messages, 30%
/// created medium quality and the rest produced low quality."
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SourceClassMix {
    /// Fraction of nodes producing high-quality/high-priority messages.
    pub high: f64,
    /// Fraction producing medium-quality/medium-priority messages.
    pub medium: f64,
    /// Fraction producing low-quality/low-priority messages (the rest).
    pub low: f64,
}

impl SourceClassMix {
    /// The paper's 50/30/20 split.
    #[must_use]
    pub fn paper_default() -> Self {
        SourceClassMix {
            high: 0.5,
            medium: 0.3,
            low: 0.2,
        }
    }

    /// Validates that the fractions are a partition of 1.
    ///
    /// # Errors
    ///
    /// Returns a description when fractions are negative or do not sum
    /// to 1 (within 1e-9).
    pub fn validate(&self) -> Result<(), String> {
        if self.high < 0.0 || self.medium < 0.0 || self.low < 0.0 {
            return Err("class fractions must be non-negative".into());
        }
        let sum = self.high + self.medium + self.low;
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("class fractions must sum to 1, got {sum}"));
        }
        Ok(())
    }
}

impl Default for SourceClassMix {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// One experimental condition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable condition name (appears in experiment tables).
    pub name: String,
    /// Number of participants (Table 5.1: 500).
    pub nodes: usize,
    /// World surface in square kilometers (Table 5.1: 5).
    pub area_km2: f64,
    /// Simulated time in seconds (Table 5.1: 24 h).
    pub duration_secs: f64,
    /// Size of the social-interest keyword pool (Table 5.1: 200).
    pub keyword_pool: u32,
    /// Direct interests per node (Table 5.1: 20).
    pub interests_per_node: usize,
    /// Radio parameters (Table 5.1: 250 kB/s, 100 m).
    pub radio: RadioConfig,
    /// Buffer capacity in bytes (Table 5.1: 250 MB).
    pub buffer_bytes: u64,
    /// Base message size in bytes (Table 5.1: 1 MB).
    pub message_size: u64,
    /// Message TTL in seconds.
    pub message_ttl_secs: f64,
    /// Mean seconds between message creations network-wide.
    pub message_interval_secs: f64,
    /// Keywords in each message's hidden ground truth.
    pub ground_truth_keywords: usize,
    /// Fraction of the ground truth the source annotates (operator
    /// function `Annotate`); the rest is enrichment head-room.
    pub source_tag_fraction: f64,
    /// Fraction of nodes that are selfish (1-in-10 duty cycle).
    pub selfish_fraction: f64,
    /// Fraction of nodes that are malicious taggers.
    pub malicious_fraction: f64,
    /// Source quality/priority classes.
    pub class_mix: SourceClassMix,
    /// Optional finite battery per node, in joules (`None` = ideal power,
    /// as in the paper's evaluation). Used by the network-lifetime
    /// extension experiment.
    pub battery_joules: Option<f64>,
    /// The population's mobility model (default: the paper's Random
    /// Waypoint).
    #[serde(default)]
    pub mobility: Mobility,
    /// Protocol configuration for the Incentive arm (the ChitChat arm
    /// derives from it by disabling the mechanism).
    pub protocol: ProtocolParams,
    /// Optional deterministic fault-injection plan (crashes, link cuts,
    /// battery spikes, transfer loss/corruption; see
    /// [`dtn_sim::faults::FaultPlan`]). `None` = no chaos, as in every
    /// paper experiment.
    #[serde(default)]
    pub chaos: Option<dtn_sim::faults::FaultPlan>,
    /// Optional transfer-recovery policy (checkpointed resume plus
    /// deterministic retry/backoff; see
    /// [`dtn_sim::transfer::RecoveryPolicy`]). `None` = no recovery, as in
    /// every paper experiment — aborted transfers are simply lost.
    #[serde(default)]
    pub recovery: Option<dtn_sim::transfer::RecoveryPolicy>,
    /// How many OS threads may step the event core's contact regions,
    /// the kernel's only parallel phase; the core builds `min(threads,
    /// host cores)` regions, and mobility and the time-stepped sweep are
    /// serial. `None` = 1 = the serial kernel. Output is byte-identical at
    /// any value — this is a wall-clock knob only, so it is fair to sweep
    /// it on one scenario and compare against a serial baseline. Read
    /// through [`Scenario::effective_threads`].
    #[serde(default)]
    pub threads: Option<usize>,
    /// The routing backend the incentive overlay composes with (`None` =
    /// the paper's ChitChat substrate). Read through
    /// [`Scenario::effective_backend`].
    #[serde(default)]
    pub backend: Option<dtn_routing::backend::BackendKind>,
    /// Optional economic-adversary population
    /// ([`dtn_core::strategy::StrategyMix`]): free-riders, minority-game
    /// players, tag-farmer rings, whitewashers, and whether the
    /// countermeasures are armed. `None` = no strategies, as in every
    /// paper experiment.
    #[serde(default)]
    pub strategies: Option<dtn_core::strategy::StrategyMix>,
    /// Optional in-run invariant audit cadence in kernel steps: the kernel
    /// audits at the end of every step whose count is a multiple of it,
    /// and once at the end of the run. The run's only audit knob: the
    /// adversary experiments set it so every sweep cell is audited, and
    /// `dtn run --check-invariants` sets it to 60 when it is unset. `None`
    /// = no in-run audit. Auditing never changes a result.
    #[serde(default)]
    pub audit_every: Option<u64>,
    /// Which simulation core drives the run (`None` = the event-driven
    /// core, the default since snapshot format v2). Both cores are
    /// byte-identical — this is a wall-clock/conformance knob only. Read
    /// through [`Scenario::effective_kernel_mode`].
    #[serde(default)]
    pub kernel_mode: Option<dtn_sim::events::KernelMode>,
}

impl Scenario {
    /// Validates cross-field invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    #[allow(clippy::neg_cmp_op_on_partial_ord)] // NaN must fail `> 0.0`
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 {
            return Err("a scenario needs nodes".into());
        }
        // The world is a square of `area_km2 · 10⁶` m², which must be
        // finite too (area_km2 up to about 1.8e302).
        if !(self.area_km2 > 0.0 && (self.area_km2 * 1e6).is_finite()) {
            return Err(
                "area_km2 must be positive and at most 1.7e302 (a finite area in m²)".into(),
            );
        }
        if !(self.duration_secs.is_finite() && self.duration_secs > 0.0) {
            return Err("duration_secs must be finite and positive".into());
        }
        if self.buffer_bytes == 0 {
            return Err("buffer_bytes must be positive".into());
        }
        if !(self.radio.range_m > 0.0) {
            return Err("radio.range_m must be positive".into());
        }
        if !(self.radio.link_speed_bps > 0.0) {
            return Err("radio.link_speed_bps must be positive".into());
        }
        if !(self.message_ttl_secs > 0.0) {
            return Err("message_ttl_secs must be positive".into());
        }
        if self.interests_per_node as u32 > self.keyword_pool {
            return Err("cannot assign more interests than the pool holds".into());
        }
        if self.ground_truth_keywords == 0 || self.ground_truth_keywords as u32 > self.keyword_pool
        {
            return Err("ground-truth size must lie in [1, pool]".into());
        }
        if !(0.0..=1.0).contains(&self.source_tag_fraction) || self.source_tag_fraction == 0.0 {
            return Err("source_tag_fraction must lie in (0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.selfish_fraction) {
            return Err("selfish_fraction must lie in [0, 1]".into());
        }
        if !(0.0..=1.0).contains(&self.malicious_fraction) {
            return Err("malicious_fraction must lie in [0, 1]".into());
        }
        if self.selfish_fraction + self.malicious_fraction > 1.0 {
            return Err("selfish + malicious fractions exceed the population".into());
        }
        if self.message_interval_secs <= 0.0 {
            return Err("message interval must be positive".into());
        }
        if let Some(j) = self.battery_joules {
            if j <= 0.0 {
                return Err("battery_joules must be positive when set".into());
            }
        }
        self.class_mix.validate()?;
        self.protocol.validate()?;
        if let Some(chaos) = &self.chaos {
            chaos.validate()?;
        }
        if let Some(recovery) = &self.recovery {
            recovery.validate()?;
        }
        if self.threads == Some(0) {
            return Err("threads must be at least 1".into());
        }
        if self.backend == Some(dtn_routing::backend::BackendKind::SprayAndWait(0)) {
            return Err("spray-and-wait needs at least one ticket".into());
        }
        if let Some(mix) = &self.strategies {
            mix.validate()?;
        }
        if self.audit_every == Some(0) {
            return Err("audit_every must be at least 1 when set".into());
        }
        Ok(())
    }

    /// The routing backend this scenario asks for (default: ChitChat).
    #[must_use]
    pub fn effective_backend(&self) -> dtn_routing::backend::BackendKind {
        self.backend
            .unwrap_or(dtn_routing::backend::BackendKind::ChitChat)
    }

    /// The kernel thread bound this scenario asks for (`threads`, default 1).
    #[must_use]
    pub fn effective_threads(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// The simulation core this scenario asks for (default: event-driven).
    #[must_use]
    pub fn effective_kernel_mode(&self) -> dtn_sim::events::KernelMode {
        self.kernel_mode.unwrap_or_default()
    }

    /// Expected number of messages the traffic model will create.
    #[must_use]
    pub fn expected_message_count(&self) -> usize {
        // Creation stops one TTL before the end so every message has a
        // fighting chance to be delivered within the run.
        let window = (self.duration_secs - self.message_ttl_secs.min(self.duration_secs * 0.25))
            .max(self.message_interval_secs);
        (window / self.message_interval_secs).floor() as usize
    }

    /// A copy with a different condition name.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    #[test]
    fn class_mix_validation() {
        assert_eq!(SourceClassMix::paper_default().validate(), Ok(()));
        let bad = SourceClassMix {
            high: 0.9,
            medium: 0.3,
            low: 0.2,
        };
        assert!(bad.validate().is_err());
        let neg = SourceClassMix {
            high: -0.1,
            medium: 0.9,
            low: 0.2,
        };
        assert!(neg.validate().is_err());
    }

    #[test]
    fn arm_labels() {
        assert_eq!(Arm::Incentive.label(), "Incentive");
        assert_eq!(Arm::ChitChat.label(), "ChitChat");
        assert_eq!(Arm::BOTH.len(), 2);
    }

    #[test]
    fn scenario_validation_catches_bad_fields() {
        let base = paper::reduced_scenario();
        assert_eq!(base.validate(), Ok(()));

        let mut s = base.clone();
        s.nodes = 0;
        assert!(s.validate().is_err());

        let mut s = base.clone();
        s.interests_per_node = 500;
        assert!(s.validate().is_err());

        let mut s = base.clone();
        s.selfish_fraction = 0.7;
        s.malicious_fraction = 0.5;
        assert!(s.validate().is_err());

        let mut s = base.clone();
        s.source_tag_fraction = 0.0;
        assert!(s.validate().is_err());

        let mut s = base.clone();
        s.recovery = Some(dtn_sim::transfer::RecoveryPolicy {
            backoff_base_secs: -1.0,
            ..dtn_sim::transfer::RecoveryPolicy::default()
        });
        assert!(s.validate().is_err(), "invalid recovery policy rejected");
    }

    /// Asserts that `set` applied to a valid scenario fails validation
    /// with a message naming `field`, for each of `values`.
    fn rejects<T: Copy + std::fmt::Debug>(field: &str, values: &[T], set: fn(&mut Scenario, T)) {
        for &v in values {
            let mut s = paper::reduced_scenario();
            set(&mut s, v);
            let err = s
                .validate()
                .expect_err(&format!("{field} = {v:?} must be rejected"));
            assert!(err.contains(field), "{field} = {v:?}: {err}");
        }
    }

    #[test]
    fn non_finite_or_non_positive_area_is_rejected() {
        rejects(
            "area_km2",
            &[0.0, -1.0, f64::NAN, f64::INFINITY, f64::MAX, 1e303],
            |s, v| {
                s.area_km2 = v;
            },
        );
    }

    #[test]
    fn non_finite_or_non_positive_duration_is_rejected() {
        rejects(
            "duration_secs",
            &[0.0, -60.0, f64::NAN, f64::INFINITY],
            |s, v| s.duration_secs = v,
        );
    }

    #[test]
    fn infinite_chaos_spans_are_rejected() {
        use dtn_sim::faults::FaultPlan;
        rejects("crash_down_secs", &[f64::INFINITY, f64::NAN], |s, v| {
            s.chaos = Some(FaultPlan {
                crash_per_hour: 60.0,
                crash_down_secs: v,
                ..FaultPlan::default()
            });
        });
        rejects("link_cut_secs", &[f64::INFINITY, f64::NAN], |s, v| {
            s.chaos = Some(FaultPlan {
                link_cut_per_hour: 60.0,
                link_cut_secs: v,
                ..FaultPlan::default()
            });
        });
        rejects(
            "battery_spike_joules",
            &[f64::INFINITY, f64::NAN],
            |s, v| {
                s.chaos = Some(FaultPlan {
                    battery_spike_per_hour: 60.0,
                    battery_spike_joules: v,
                    ..FaultPlan::default()
                });
            },
        );
    }

    #[test]
    fn empty_buffer_is_rejected() {
        rejects("buffer_bytes", &[0u64], |s, v| s.buffer_bytes = v);
    }

    #[test]
    fn non_positive_radio_range_is_rejected() {
        rejects("radio.range_m", &[0.0, -100.0, f64::NAN], |s, v| {
            s.radio.range_m = v;
        });
    }

    #[test]
    fn non_positive_link_speed_is_rejected() {
        rejects("radio.link_speed_bps", &[0.0, -1.0, f64::NAN], |s, v| {
            s.radio.link_speed_bps = v;
        });
    }

    #[test]
    fn non_positive_message_ttl_is_rejected() {
        rejects("message_ttl_secs", &[0.0, -60.0, f64::NAN], |s, v| {
            s.message_ttl_secs = v;
        });
    }

    #[test]
    fn scenario_serde_round_trip() {
        let s = paper::reduced_scenario();
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(s, back);
    }

    #[test]
    fn mobility_variants_instantiate() {
        for m in [
            Mobility::RandomWaypoint,
            Mobility::RandomWalk,
            Mobility::ManhattanGrid,
        ] {
            let _boxed = m.instantiate();
        }
        assert_eq!(Mobility::default(), Mobility::RandomWaypoint);
    }

    #[test]
    fn mobility_survives_serde_and_defaults_when_absent() {
        let mut s = paper::reduced_scenario();
        s.mobility = Mobility::ManhattanGrid;
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.mobility, Mobility::ManhattanGrid);
        // Configs written before the field existed still parse.
        let stripped = json.replace("\"mobility\":\"ManhattanGrid\",", "");
        let legacy: Scenario = serde_json::from_str(&stripped).expect("legacy parses");
        assert_eq!(legacy.mobility, Mobility::RandomWaypoint);
    }

    #[test]
    fn recovery_survives_serde_and_defaults_when_absent() {
        let mut s = paper::reduced_scenario();
        s.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.recovery, s.recovery);
        assert_eq!(back, s);
        // Configs written before the recovery field existed still parse
        // (and mean what they always meant: no recovery).
        let plain = serde_json::to_string(&paper::reduced_scenario()).expect("serializable");
        let stripped = plain
            .replace(",\"recovery\":null", "")
            .replace("\"recovery\":null,", "");
        assert_ne!(stripped, plain, "the field was present to strip");
        let legacy: Scenario = serde_json::from_str(&stripped).expect("legacy parses");
        assert_eq!(legacy.recovery, None);
    }

    #[test]
    fn threads_survives_serde_and_defaults_when_absent() {
        let mut s = paper::reduced_scenario();
        s.threads = Some(8);
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.effective_threads(), 8);
        assert_eq!(back, s);
        // Configs written before the threads field existed still parse
        // (and mean what they always meant: the serial kernel).
        let plain = serde_json::to_string(&paper::reduced_scenario()).expect("serializable");
        let stripped = plain
            .replace(",\"threads\":null", "")
            .replace("\"threads\":null,", "");
        assert_ne!(stripped, plain, "the field was present to strip");
        let legacy: Scenario = serde_json::from_str(&stripped).expect("legacy parses");
        assert_eq!(legacy.threads, None);
        assert_eq!(legacy.effective_threads(), 1);

        s.threads = Some(0);
        assert!(s.validate().is_err(), "zero threads rejected");
    }

    #[test]
    fn backend_and_overlay_survive_serde_and_default_when_absent() {
        use dtn_routing::backend::BackendKind;
        let mut s = paper::reduced_scenario();
        s.backend = Some(BackendKind::Prophet);
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back.effective_backend(), BackendKind::Prophet);
        assert_eq!(back, s);
        // Configs written before the backend grid existed still parse (and
        // mean what they always meant: ChitChat).
        let plain = serde_json::to_string(&paper::reduced_scenario()).expect("serializable");
        let stripped = plain.replace(",\"backend\":null", "");
        assert_ne!(stripped, plain, "the field was present to strip");
        let legacy: Scenario = serde_json::from_str(&stripped).expect("legacy parses");
        assert_eq!(legacy.backend, None);
        assert_eq!(legacy.effective_backend(), BackendKind::ChitChat);
        // Documents written while the scenario still had an `overlay` knob
        // (scenario files and `DTNSNAP v2` bodies) carry it as `null` or a
        // value; the field is gone and unknown fields are skipped, so they
        // load and mean the same scenario.
        for overlay in ["null", "\"On\"", "\"Off\""] {
            let old = plain.replace(
                ",\"backend\":null",
                &format!(",\"backend\":null,\"overlay\":{overlay}"),
            );
            assert_ne!(old, plain, "the old key was spliced in");
            let loaded: Scenario = serde_json::from_str(&old).expect("old documents parse");
            assert_eq!(loaded, paper::reduced_scenario());
        }

        s.backend = Some(BackendKind::SprayAndWait(0));
        assert!(s.validate().is_err(), "zero spray tickets rejected");
    }

    #[test]
    fn strategy_fields_survive_serde_and_default_when_absent() {
        let mut s = paper::reduced_scenario();
        s.strategies = Some("free=0.2,defense".parse().expect("valid mix"));
        s.audit_every = Some(300);
        assert_eq!(s.validate(), Ok(()));
        let json = serde_json::to_string(&s).expect("serializable");
        let back: Scenario = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, s);
        // Configs written before the adversary suite existed still parse
        // (and mean what they always meant: no strategies, no standing
        // audit).
        let plain = serde_json::to_string(&paper::reduced_scenario()).expect("serializable");
        let stripped = plain
            .replace(",\"strategies\":null", "")
            .replace(",\"audit_every\":null", "");
        assert_ne!(stripped, plain, "the fields were present to strip");
        let legacy: Scenario = serde_json::from_str(&stripped).expect("legacy parses");
        assert_eq!(legacy.strategies, None);
        assert_eq!(legacy.audit_every, None);
    }

    #[test]
    fn strategy_fields_are_validated_at_build_time() {
        let mut s = paper::reduced_scenario();
        s.audit_every = Some(0);
        assert!(s.validate().is_err(), "zero audit cadence rejected");

        let mut s = paper::reduced_scenario();
        s.strategies = Some(dtn_core::strategy::StrategyMix {
            free_rider_fraction: 0.8,
            farmer_fraction: 0.8,
            ..Default::default()
        });
        assert!(s.validate().is_err(), "overfull strategy mix rejected");
    }

    #[test]
    fn expected_message_count_is_positive() {
        let s = paper::reduced_scenario();
        assert!(s.expected_message_count() > 0);
    }
}
