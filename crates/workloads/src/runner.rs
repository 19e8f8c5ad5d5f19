//! Building and running scenarios, one or many seeds at a time: [`run`]
//! executes one [`RunSpec`] under one [`Instrument`], and every other entry
//! point here goes through it.

use dtn_core::behavior::NodeBehavior;
use dtn_core::params::ProtocolParams;
use dtn_core::protocol::{DcimRouter, ProtocolStats};
use dtn_routing::backend::{BackendKind, ChitChatBackend, Overlay, RouterBackend};
use dtn_routing::interests::ChitChatParams;
use dtn_sim::geometry::Area;
use dtn_sim::kernel::{Simulation, SimulationBuilder};
use dtn_sim::metrics::{MetricsRegistry, PhaseTiming};
use dtn_sim::rng::SimRng;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;
use serde::{Deserialize, Serialize};

use crate::population::Population;
use crate::scenario::{Arm, Scenario};
use crate::sweep::{run_cells, Cell};
use crate::traffic::generate_schedule;

/// The protocol configuration for one arm of a scenario.
///
/// The scenario's keyword pool is the single source of truth: whatever the
/// protocol struct carried, the effective configuration draws malicious
/// tags from the same pool the workload assigns interests from.
#[must_use]
pub fn protocol_for(scenario: &Scenario, arm: Arm) -> ProtocolParams {
    let base = ProtocolParams {
        keyword_pool_size: scenario.keyword_pool,
        ..scenario.protocol
    };
    match arm {
        Arm::Incentive => base,
        Arm::ChitChat => ProtocolParams {
            incentive_enabled: false,
            drm_enabled: false,
            enrichment_enabled: false,
            ..base
        },
    }
}

/// What one run simulates: a scenario over a routing backend, with the
/// incentive overlay on or off, under one seed.
///
/// Every spec of the same `(scenario, seed)` sees the *identical*
/// workload: same mobility, same population (interests, behaviors,
/// classes, roles) and same message schedule — only the mechanism
/// differs. That is what makes the paper's pairwise comparisons
/// (Figs. 5.1–5.6) meaningful.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec<'a> {
    /// The experimental condition.
    pub scenario: &'a Scenario,
    /// The routing substrate.
    pub backend: BackendKind,
    /// Whether the incentive mechanism wraps it.
    pub overlay: Overlay,
    /// The RNG seed.
    pub seed: u64,
}

impl<'a> RunSpec<'a> {
    /// A spec from its four coordinates.
    #[must_use]
    pub fn new(scenario: &'a Scenario, backend: BackendKind, overlay: Overlay, seed: u64) -> Self {
        RunSpec {
            scenario,
            backend,
            overlay,
            seed,
        }
    }

    /// One of the paper's two arms: the mechanism over ChitChat
    /// ([`Arm::Incentive`]) or plain ChitChat ([`Arm::ChitChat`]).
    #[must_use]
    pub fn arm(scenario: &'a Scenario, arm: Arm, seed: u64) -> Self {
        let overlay = match arm {
            Arm::Incentive => Overlay::On,
            Arm::ChitChat => Overlay::Off,
        };
        RunSpec::new(scenario, BackendKind::ChitChat, overlay, seed)
    }
}

/// What a run records besides its results. [`Instrument::default`]
/// records nothing extra, and no setting ever changes a simulation
/// outcome. The in-run invariant audit is the scenario's
/// [`Scenario::audit_every`], not an instrument setting.
#[derive(Debug, Clone, Copy, Default)]
pub struct Instrument {
    /// Records up to this many kernel events (see
    /// [`dtn_sim::trace::TraceLog`]) and returns them rendered.
    pub trace_capacity: Option<usize>,
    /// Times each kernel phase and tracks the peak buffer occupancy, and
    /// returns the run's [`PerfReport`].
    pub profile: bool,
}

/// Builds a ready-to-run simulation of one paper arm.
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_simulation(scenario: &Scenario, arm: Arm, seed: u64) -> Simulation<DcimRouter> {
    build_chitchat(&RunSpec::arm(scenario, arm, seed), &Instrument::default())
}

/// [`build_world`] over the statically dispatched [`ChitChatBackend`], the
/// substrate of every paper arm. `spec.backend` must be ChitChat.
pub(crate) fn build_chitchat(spec: &RunSpec, instrument: &Instrument) -> Simulation<DcimRouter> {
    let nodes = spec.scenario.nodes;
    build_world(spec, instrument, |chitchat| {
        ChitChatBackend::new(nodes, *chitchat)
    })
}

/// The one world builder: validates the scenario, draws the population
/// and message schedule from the seed, wraps the routing backend that
/// `backend` builds (from the effective ChitChat parameters) in the
/// overlay configured by `spec`, seeds the router with the population, and
/// wires the kernel. The scenario's `chaos` plan, recovery policy and
/// audit cadence, if any, are always wired in.
///
/// `backend` stands in for `spec.backend`, so a caller can run the
/// identical world over a backend of its own (a wrapper that observes or
/// restricts another backend, say); [`run`] passes the spec's own. Generic
/// over the backend, so the paper arms stay statically dispatched over
/// [`ChitChatBackend`].
///
/// # Panics
///
/// Panics if the scenario fails validation.
#[must_use]
pub fn build_world<B: RouterBackend>(
    spec: &RunSpec,
    instrument: &Instrument,
    backend: impl FnOnce(&ChitChatParams) -> B,
) -> Simulation<DcimRouter<B>> {
    let scenario = spec.scenario;
    scenario.validate().expect("scenario must validate");
    let workload_rng = SimRng::new(spec.seed);
    let population = Population::synthesize(scenario, &workload_rng);
    let schedule = generate_schedule(scenario, &population, &workload_rng);

    // The overlay axis *is* the paper's arm split, generalized beyond
    // ChitChat.
    let arm = match spec.overlay {
        Overlay::On => Arm::Incentive,
        Overlay::Off => Arm::ChitChat,
    };
    let params = protocol_for(scenario, arm);
    // The mechanism evicts lowest-priority copies first under buffer
    // pressure; without it (plain routing, or an ablation with the credit
    // system off) ONE's drop-oldest default applies. Derived from the
    // effective params rather than the overlay so ablations behave
    // consistently.
    let drop_policy = if params.incentive_enabled {
        dtn_sim::buffer::DropPolicy::DropLowestPriority
    } else {
        dtn_sim::buffer::DropPolicy::DropOldest
    };
    let mut router = DcimRouter::with_backend(backend(&params.chitchat), params, spec.seed);
    for i in 0..population.interests.len() {
        let node = NodeId(i as u32);
        router.subscribe(node, population.sorted_interests(node));
    }
    for (i, &behavior) in population.behaviors.iter().enumerate() {
        if behavior != NodeBehavior::Honest {
            router.set_behavior(NodeId(i as u32), behavior);
        }
    }
    for (i, &role) in population.roles.iter().enumerate() {
        router.set_role(NodeId(i as u32), role);
    }
    apply_strategies(&mut router, scenario, &population);

    let mut builder = SimulationBuilder::new(Area::square_km(scenario.area_km2), spec.seed)
        .radio(scenario.radio)
        .buffer_capacity(scenario.buffer_bytes)
        .drop_policy(drop_policy)
        .threads(scenario.effective_threads())
        .kernel_mode(scenario.effective_kernel_mode())
        .nodes(scenario.nodes, || scenario.mobility.instantiate());
    if let Some(j) = scenario.battery_joules {
        builder = builder.battery_joules(j);
    }
    if let Some(capacity) = instrument.trace_capacity {
        builder = builder.trace(dtn_sim::trace::TraceLog::bounded(capacity));
    }
    if let Some(plan) = scenario.chaos {
        builder = builder.faults(plan);
    }
    if let Some(policy) = scenario.recovery {
        builder = builder.recovery(policy);
    }
    if let Some(every) = scenario.audit_every {
        builder = builder.check_invariants_every(every);
    }
    builder
        .profile(instrument.profile)
        .messages(schedule)
        .build(router)
}

/// Wires the population's strategy assignment (and the mix's defense flag)
/// into a router. A scenario without strategies touches nothing, so the
/// router stays on the byte-identical paper-default path.
fn apply_strategies<B: RouterBackend>(
    router: &mut DcimRouter<B>,
    scenario: &Scenario,
    population: &Population,
) {
    let Some(mix) = &scenario.strategies else {
        return;
    };
    for (i, &strategy) in population.strategies.iter().enumerate() {
        if strategy.is_some() {
            router.set_strategy(NodeId(i as u32), strategy);
        }
    }
    if mix.defense {
        router.set_strategy_defense(true);
    }
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct ArmRun {
    /// Kernel-level statistics.
    pub summary: RunSummary,
    /// Mechanism-level counters.
    pub protocol: ProtocolStats,
    /// Nodes that ended the run with zero tokens.
    pub broke_nodes: usize,
    /// Tokens held by strategy-playing nodes at the end of the run
    /// (`0.0` in every strategy-free scenario).
    pub attacker_tokens: f64,
}

/// Runs one spec to completion under `instrument`, returning the results,
/// the rendered trace (when `trace_capacity` is set) and the wall-clock
/// [`PerfReport`] (when `profile` is set).
///
/// ChitChat runs statically dispatched over [`ChitChatBackend`]; every
/// other backend runs as a `Box<dyn RouterBackend>`.
#[must_use]
pub fn run(
    spec: &RunSpec,
    instrument: &Instrument,
) -> (ArmRun, Option<String>, Option<PerfReport>) {
    match spec.backend {
        BackendKind::ChitChat => run_to_horizon(build_chitchat(spec, instrument), spec, instrument),
        kind => {
            let nodes = spec.scenario.nodes;
            let sim = build_world(spec, instrument, |chitchat| {
                kind.instantiate(nodes, chitchat)
            });
            run_to_horizon(sim, spec, instrument)
        }
    }
}

/// Runs one paper arm to completion, uninstrumented.
#[must_use]
pub fn run_once(scenario: &Scenario, arm: Arm, seed: u64) -> ArmRun {
    run(&RunSpec::arm(scenario, arm, seed), &Instrument::default()).0
}

/// Runs a world built by [`build_world`] from `spec` and `instrument` to
/// the scenario's horizon and collects the one [`ArmRun`] every run path
/// reports, plus the rendered trace and the [`PerfReport`] the instrument
/// asked for.
#[must_use]
pub fn run_to_horizon<B: RouterBackend>(
    mut sim: Simulation<DcimRouter<B>>,
    spec: &RunSpec,
    instrument: &Instrument,
) -> (ArmRun, Option<String>, Option<PerfReport>) {
    let t0 = std::time::Instant::now();
    let _ = sim.run_until(SimTime::from_secs(spec.scenario.duration_secs));
    let perf = instrument
        .profile
        .then(|| PerfReport::capture(&sim, t0.elapsed().as_secs_f64()));
    let rendered = instrument
        .trace_capacity
        .map(|_| sim.api().trace().render());
    let (router, summary) = sim.finish();
    (
        ArmRun {
            summary,
            broke_nodes: router.ledger().broke_nodes().len(),
            attacker_tokens: router.attacker_tokens(),
            protocol: router.stats(),
        },
        rendered,
        perf,
    )
}

/// Wall-clock performance report for one or more runs: the observability
/// record every later perf PR diffs against. Produced by [`run`] with
/// [`Instrument::profile`] set and by a profiled [`compare`], and
/// serialized by the CLI's `--metrics-out` and `dtn-bench`'s `perf`
/// binary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerfReport {
    /// Number of runs folded into this report.
    pub runs: u64,
    /// Total wall-clock seconds spent simulating.
    pub wall_secs: f64,
    /// Total simulated seconds.
    pub sim_secs: f64,
    /// Speedup over real time: simulated seconds per wall-clock second.
    pub sim_secs_per_sec: f64,
    /// Kernel steps executed.
    pub steps: u64,
    /// Kernel events processed (contacts, creations, transfers, expiries).
    pub events: u64,
    /// Kernel events per wall-clock second — the headline throughput.
    pub events_per_sec: f64,
    /// Peak total buffered bytes across all nodes (max over runs).
    pub peak_buffer_bytes: u64,
    /// Per-phase wall-clock totals in kernel execution order.
    pub phases: Vec<PhaseTiming>,
    /// The full metrics registry (counters, gauges, step-time histogram).
    pub metrics: MetricsRegistry,
}

impl PerfReport {
    /// Captures a finished simulation's counters and phase timings,
    /// attributing `wall_secs` of measured wall-clock to it.
    #[must_use]
    pub fn capture<P: dtn_sim::protocol::Protocol>(
        sim: &Simulation<P>,
        wall_secs: f64,
    ) -> PerfReport {
        let counters = *sim.api().counters();
        let sim_secs = sim.api().now().as_secs();
        let wall = wall_secs.max(1e-12);
        PerfReport {
            runs: 1,
            wall_secs,
            sim_secs,
            sim_secs_per_sec: sim_secs / wall,
            steps: counters.steps,
            events: counters.events(),
            events_per_sec: counters.events() as f64 / wall,
            peak_buffer_bytes: counters.peak_buffer_bytes,
            phases: sim.profiler().timings(),
            metrics: sim.export_metrics(),
        }
    }

    /// Folds another report into this one: wall-clock, steps and events
    /// sum; rates are re-derived; the buffer peak keeps the maximum;
    /// phases merge by label.
    pub fn merge(&mut self, other: &PerfReport) {
        self.runs += other.runs;
        self.wall_secs += other.wall_secs;
        self.sim_secs += other.sim_secs;
        self.steps += other.steps;
        self.events += other.events;
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(other.peak_buffer_bytes);
        let wall = self.wall_secs.max(1e-12);
        self.sim_secs_per_sec = self.sim_secs / wall;
        self.events_per_sec = self.events as f64 / wall;
        for theirs in &other.phases {
            if let Some(mine) = self.phases.iter_mut().find(|p| p.phase == theirs.phase) {
                mine.secs += theirs.secs;
                mine.calls += theirs.calls;
            } else {
                self.phases.push(theirs.clone());
            }
        }
        self.metrics.merge(&other.metrics);
    }

    /// A human-readable performance summary with the per-phase wall-clock
    /// table (the CLI's `--verbose` output).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf: {} run(s), {:.2} s wall · {:.0}× real time · {:.0} events/s · peak buffers {:.1} MB",
            self.runs,
            self.wall_secs,
            self.sim_secs_per_sec,
            self.events_per_sec,
            self.peak_buffer_bytes as f64 / 1e6
        );
        let c = |name: &str| self.metrics.counter(name);
        let _ = writeln!(
            out,
            "  transfers: {} completed · {} aborted (contact {} / source {} / injected {})",
            c("kernel.transfers_completed"),
            c("kernel.transfers_aborted"),
            c("kernel.transfers_aborted_contact"),
            c("kernel.transfers_aborted_source"),
            c("kernel.transfers_aborted_injected"),
        );
        let _ = writeln!(
            out,
            "  recovery: {} retried · {} resumed · {} abandoned",
            c("kernel.transfers_retried"),
            c("kernel.transfers_resumed"),
            c("kernel.transfers_abandoned"),
        );
        let total: f64 = self.phases.iter().map(|p| p.secs).sum();
        let total = total.max(1e-12);
        let _ = writeln!(out, "  phase              wall (s)    share");
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  {:<18} {:>8.3}   {:>5.1}%",
                p.phase,
                p.secs,
                100.0 * p.secs / total
            );
        }
        out
    }
}

/// The worker-thread cap for multi-seed runs: the machine's available
/// parallelism (at least 1). Unbounded one-thread-per-seed spawning
/// oversubscribes small machines at `--full` paper scale and skews every
/// wall-clock metric this module reports.
#[must_use]
pub fn seed_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Runs one paper arm over several seeds and returns the per-seed
/// summaries in `seeds` order.
///
/// Seeds execute on the [`crate::sweep`] executor's worker pool: one
/// shared queue, no chunk barriers, and memoized — a seed another figure
/// already simulated is answered from the run cache. Results are identical
/// to a sequential run of the same seeds (each seed's simulation is
/// deterministic and shares no state).
///
/// # Panics
///
/// Panics if a worker thread panics.
#[must_use]
pub fn run_seeds(scenario: &Scenario, arm: Arm, seeds: &[u64]) -> Vec<RunSummary> {
    let cells: Vec<Cell> = seeds
        .iter()
        .map(|&seed| Cell::arm(scenario.clone(), arm, seed))
        .collect();
    run_cells(&cells).into_iter().map(|r| r.summary).collect()
}

/// A paired comparison of the overlay-on and overlay-off runs of one
/// backend on the same scenario and seeds — over ChitChat, the paper's two
/// arms and the row format of every figure in the paper.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// The condition name.
    pub name: String,
    /// The overlay-on (Incentive) mean summary.
    pub incentive: RunSummary,
    /// The overlay-off (plain routing; ChitChat for the paper) mean
    /// summary.
    pub chitchat: RunSummary,
}

impl Comparison {
    /// Percentage of relayed traffic saved by the mechanism relative to
    /// plain routing (Fig. 5.2's y-axis).
    #[must_use]
    pub fn traffic_reduction_pct(&self) -> f64 {
        if self.chitchat.relays_completed == 0 {
            return 0.0;
        }
        100.0 * (self.chitchat.relays_completed as f64 - self.incentive.relays_completed as f64)
            / self.chitchat.relays_completed as f64
    }

    /// MDR difference (plain − Incentive); positive means the mechanism
    /// trades some delivery for the traffic savings, as the paper reports.
    #[must_use]
    pub fn mdr_gap(&self) -> f64 {
        self.chitchat.delivery_ratio - self.incentive.delivery_ratio
    }
}

/// Runs overlay-on and overlay-off over `seeds` for one backend and pairs
/// the averaged results. Over [`BackendKind::ChitChat`] this is the
/// paper's Incentive-vs-ChitChat comparison.
///
/// Unprofiled, every `(overlay, seed)` cell runs as one sweep plan on the
/// shared worker pool (ChitChat cells share the paper arms' cache
/// entries). With `profile`, the runs execute sequentially through [`run`]
/// so the merged [`PerfReport`]'s wall-clock measures the kernel, not
/// thread-scheduler contention; the comparison itself is identical.
///
/// # Panics
///
/// Panics if `seeds` is empty or a worker thread panics.
#[must_use]
pub fn compare(
    scenario: &Scenario,
    backend: BackendKind,
    seeds: &[u64],
    profile: bool,
) -> (Comparison, Option<PerfReport>) {
    assert!(!seeds.is_empty(), "need at least one seed");
    let specs = Overlay::BOTH.iter().flat_map(|&overlay| {
        seeds
            .iter()
            .map(move |&seed| RunSpec::new(scenario, backend, overlay, seed))
    });
    let mut perf: Option<PerfReport> = None;
    let summaries: Vec<RunSummary> = if profile {
        let instrument = Instrument {
            profile: true,
            ..Instrument::default()
        };
        specs
            .map(|spec| {
                let (outcome, _, report) = run(&spec, &instrument);
                let report = report.expect("profiling was enabled");
                match &mut perf {
                    Some(total) => total.merge(&report),
                    None => perf = Some(report),
                }
                outcome.summary
            })
            .collect()
    } else {
        let cells: Vec<Cell> = specs
            .map(|spec| Cell::backend(scenario.clone(), backend, spec.overlay, spec.seed))
            .collect();
        run_cells(&cells).into_iter().map(|r| r.summary).collect()
    };
    let (on, off) = summaries.split_at(seeds.len());
    let comparison = Comparison {
        name: scenario.name.clone(),
        incentive: RunSummary::mean_of(on),
        chitchat: RunSummary::mean_of(off),
    };
    (comparison, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper;

    /// A tiny scenario that runs in well under a second.
    fn tiny() -> Scenario {
        let mut s = paper::reduced_scenario();
        s.nodes = 20;
        s.area_km2 = 0.2;
        s.duration_secs = 1200.0;
        s.message_interval_secs = 30.0;
        s.message_ttl_secs = 900.0;
        s.named("tiny")
    }

    /// `s`, audited every `audit_every` steps.
    fn audited(s: &Scenario, audit_every: u64) -> Scenario {
        Scenario {
            audit_every: Some(audit_every),
            ..s.clone()
        }
    }

    /// The world over `spec.backend`, boxed, as `run` builds every
    /// non-ChitChat world.
    fn boxed_world(spec: &RunSpec) -> Simulation<DcimRouter<Box<dyn RouterBackend>>> {
        build_world(spec, &Instrument::default(), |chitchat| {
            spec.backend.instantiate(spec.scenario.nodes, chitchat)
        })
    }

    #[test]
    fn arms_differ_only_in_mechanism() {
        let s = tiny();
        let inc = protocol_for(&s, Arm::Incentive);
        let cc = protocol_for(&s, Arm::ChitChat);
        assert!(inc.incentive_enabled && !cc.incentive_enabled);
        assert!(!cc.drm_enabled && !cc.enrichment_enabled);
        assert_eq!(inc.chitchat, cc.chitchat, "identical routing constants");
    }

    #[test]
    fn run_once_produces_traffic_and_deliveries() {
        let run = run_once(&tiny(), Arm::ChitChat, 7);
        assert!(run.summary.created > 0);
        assert!(run.summary.relays_completed > 0, "some forwarding happened");
        assert!(run.summary.delivery_ratio > 0.0, "something was delivered");
        assert!(run.summary.delivery_ratio <= 1.0);
    }

    #[test]
    fn incentive_arm_settles_payments() {
        let run = run_once(&tiny(), Arm::Incentive, 7);
        assert!(run.protocol.settlements > 0, "deliveries were paid for");
        assert!(run.protocol.tokens_awarded > 0.0);
    }

    #[test]
    fn identical_seed_identical_result() {
        let s = tiny();
        let a = run_once(&s, Arm::Incentive, 3);
        let b = run_once(&s, Arm::Incentive, 3);
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.protocol, b.protocol);
    }

    #[test]
    fn every_instrument_combination_leaves_the_run_unchanged() {
        // Tracing, auditing and profiling observe a run; none may move a
        // byte of its results, on either dispatch path: ChitChat static,
        // PRoPHET boxed.
        let s = tiny();
        for backend in [BackendKind::ChitChat, BackendKind::Prophet] {
            let observed = |s: &Scenario, instrument: Instrument| {
                let spec = RunSpec::new(s, backend, Overlay::On, 7);
                let (outcome, trace, perf) = run(&spec, &instrument);
                assert_eq!(trace.is_some(), instrument.trace_capacity.is_some());
                assert_eq!(perf.is_some(), instrument.profile);
                let json = serde_json::to_string(&(&outcome.summary, &outcome.protocol))
                    .expect("results serialize");
                (json, outcome.broke_nodes, outcome.attacker_tokens)
            };
            let plain = observed(&s, Instrument::default());
            for trace_capacity in [None, Some(100_000)] {
                for audit_every in [None, Some(30)] {
                    let scenario = Scenario {
                        audit_every,
                        ..s.clone()
                    };
                    for profile in [false, true] {
                        let instrument = Instrument {
                            trace_capacity,
                            profile,
                        };
                        assert_eq!(
                            observed(&scenario, instrument),
                            plain,
                            "{} under {instrument:?}, audit {audit_every:?}",
                            backend.tag()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn token_exhaustion_gates_receptions() {
        // Fig. 5.2's traffic reduction comes from token exhaustion; the
        // statistically robust form of that claim at tiny scale is that
        // starved destinations exist and are refused receptions, pulling
        // the incentive arm's delivery count below ChitChat's. (The
        // network-level traffic totals at full load are checked by the
        // figure harness, where the effect dominates ordering noise.)
        let mut s = tiny();
        s.selfish_fraction = 0.4;
        s.protocol.incentive.initial_tokens = 5.0;
        s.protocol.enrichment_enabled = false;
        let inc = run_once(&s, Arm::Incentive, 1);
        let cc = run_once(&s, Arm::ChitChat, 1);
        assert!(inc.broke_nodes > 0, "some nodes ran out of tokens");
        assert!(
            inc.protocol.refused_broke_destination > 0,
            "broke destinations were refused receptions"
        );
        assert!(
            inc.summary.delivered_pairs < cc.summary.delivered_pairs,
            "starvation lowers deliveries: {} vs {}",
            inc.summary.delivered_pairs,
            cc.summary.delivered_pairs
        );
    }

    #[test]
    fn chaotic_scenario_replays_identically_under_audit() {
        let mut s = tiny();
        s.chaos = Some(
            "crash=4,crashdown=90,cut=10,cutdown=20,loss=0.05"
                .parse()
                .unwrap(),
        );
        let s = audited(&s, 30);
        let spec = RunSpec::arm(&s, Arm::Incentive, 5);
        let a = run(&spec, &Instrument::default()).0;
        let b = run(&spec, &Instrument::default()).0;
        assert_eq!(a.summary, b.summary);
        assert_eq!(a.protocol, b.protocol);
    }

    #[test]
    fn chaos_plan_actually_perturbs_the_run() {
        let s = tiny();
        let mut chaotic = tiny();
        chaotic.chaos = Some("crash=8,crashdown=120,wipe,loss=0.2".parse().unwrap());
        let clean = run_once(&s, Arm::Incentive, 7);
        let chaotic = audited(&chaotic, 60);
        let faulty = run_once(&chaotic, Arm::Incentive, 7);
        assert_ne!(
            clean.summary, faulty.summary,
            "a hot plan must change the outcome"
        );
        assert!(
            faulty.summary.delivery_ratio <= clean.summary.delivery_ratio,
            "chaos does not help delivery: {} vs {}",
            faulty.summary.delivery_ratio,
            clean.summary.delivery_ratio
        );
    }

    #[test]
    fn recovery_policy_is_wired_through_and_reported() {
        let mut s = tiny();
        s.chaos = Some("loss=0.3".parse().unwrap());
        s.recovery = Some(dtn_sim::transfer::RecoveryPolicy {
            backoff_base_secs: 5.0,
            ..dtn_sim::transfer::RecoveryPolicy::default()
        });
        let sim = build_simulation(&s, Arm::Incentive, 7);
        assert_eq!(sim.recovery_policy(), s.recovery.as_ref());
        let instrument = Instrument {
            profile: true,
            ..Instrument::default()
        };
        let s = audited(&s, 60);
        let (outcome, _, perf) = run(&RunSpec::arm(&s, Arm::Incentive, 7), &instrument);
        assert!(
            outcome.summary.transfers_retried > 0,
            "loss chaos forces retries"
        );
        let perf = perf.expect("profiled");
        let rendered = perf.render();
        assert!(rendered.contains("injected"), "abort breakdown rendered");
        assert!(rendered.contains("retried"), "recovery counters rendered");
        assert_eq!(
            perf.metrics.counter("kernel.transfers_retried"),
            outcome.summary.transfers_retried
        );
        // An inert policy builds to no recovery at all.
        let mut off = tiny();
        off.recovery = Some(dtn_sim::transfer::RecoveryPolicy::disabled());
        assert_eq!(
            build_simulation(&off, Arm::Incentive, 7).recovery_policy(),
            None
        );
    }

    #[test]
    fn overlay_off_builds_pin_drop_oldest_buffers() {
        use dtn_sim::buffer::DropPolicy;
        let s = tiny();
        let policy = |overlay| {
            let spec = RunSpec::new(&s, BackendKind::Epidemic, overlay, 3);
            boxed_world(&spec).api().buffer(NodeId(0)).policy()
        };
        assert_eq!(
            policy(Overlay::Off),
            DropPolicy::DropOldest,
            "ONE's default"
        );
        assert_eq!(policy(Overlay::On), DropPolicy::DropLowestPriority);
        assert_eq!(
            build_simulation(&s, Arm::ChitChat, 3)
                .api()
                .buffer(NodeId(0))
                .policy(),
            DropPolicy::DropOldest,
            "the chitchat arm keeps drop-oldest too"
        );
    }

    #[test]
    fn every_backend_resolves_the_population_destinations() {
        // The kernel counts deliveries against the population's expected
        // destinations; each backend decides who is a destination from the
        // subscriptions the world builder hands it. Both must name the
        // same nodes.
        use dtn_sim::message::Keyword;
        let s = tiny();
        let population = Population::synthesize(&s, &SimRng::new(3));
        for backend in BackendKind::ALL {
            let sim = boxed_world(&RunSpec::new(&s, backend, Overlay::Off, 3));
            let resolver = sim.protocol().backend();
            for keyword in (0..s.keyword_pool).map(Keyword) {
                let resolved: Vec<NodeId> = (1..s.nodes as u32)
                    .map(NodeId)
                    .filter(|&n| resolver.is_destination(n, &[keyword]))
                    .collect();
                assert_eq!(
                    resolved,
                    population.destinations_for(&[keyword], NodeId(0)),
                    "{} on keyword {}",
                    backend.tag(),
                    keyword.0
                );
            }
        }
    }

    #[test]
    fn mean_across_seeds_uses_all_runs() {
        let s = tiny();
        let one = RunSummary::mean_of(&run_seeds(&s, Arm::ChitChat, &[1]));
        let two = RunSummary::mean_of(&run_seeds(&s, Arm::ChitChat, &[1, 2]));
        // Averaging with a second seed must move some field unless the two
        // seeds coincidentally agree everywhere (they do not).
        assert!(one != two);
    }

    #[test]
    fn executor_run_seeds_matches_sequential_runs() {
        // More seeds than most CI machines have cores, so the executor's
        // queue actually backs up; the per-seed results must equal a
        // strictly sequential run, in order. (Seven seeds: the figure
        // binaries' largest seed family plus headroom.)
        let s = tiny();
        let seeds: Vec<u64> = (1..=7).collect();
        crate::sweep::clear_memo();
        let pooled = run_seeds(&s, Arm::ChitChat, &seeds);
        let sequential: Vec<_> = seeds
            .iter()
            .map(|&seed| run_once(&s, Arm::ChitChat, seed).summary)
            .collect();
        assert_eq!(pooled, sequential);
        assert!(seed_parallelism() >= 1);
    }

    #[test]
    fn compare_routes_both_arms_through_one_plan() {
        let s = tiny();
        crate::sweep::clear_memo();
        let (cmp, perf) = compare(&s, BackendKind::ChitChat, &[1, 2], false);
        assert!(perf.is_none(), "unprofiled");
        assert_eq!(cmp.name, s.name);
        assert_eq!(
            cmp.incentive,
            RunSummary::mean_of(&[
                run_once(&s, Arm::Incentive, 1).summary,
                run_once(&s, Arm::Incentive, 2).summary,
            ])
        );
        assert_eq!(
            cmp.chitchat,
            RunSummary::mean_of(&[
                run_once(&s, Arm::ChitChat, 1).summary,
                run_once(&s, Arm::ChitChat, 2).summary,
            ])
        );
    }

    #[test]
    fn perf_run_reproduces_unprofiled_results() {
        let s = tiny();
        let plain = run_once(&s, Arm::Incentive, 7);
        let profile = Instrument {
            profile: true,
            ..Instrument::default()
        };
        let (profiled, _, perf) = run(&RunSpec::arm(&s, Arm::Incentive, 7), &profile);
        let perf = perf.expect("profiled");
        assert_eq!(
            plain.summary, profiled.summary,
            "metrics collection must not perturb the simulation"
        );
        assert_eq!(plain.protocol, profiled.protocol);
        assert_eq!(perf.runs, 1);
        assert!(perf.wall_secs > 0.0);
        assert_eq!(perf.sim_secs, s.duration_secs);
        assert!(perf.sim_secs_per_sec > 0.0);
        assert_eq!(perf.steps, s.duration_secs as u64);
        assert!(perf.events > 0);
        assert!(perf.events_per_sec > 0.0);
        assert!(perf.peak_buffer_bytes > 0);
        assert!(!perf.phases.is_empty());
        assert!(
            perf.phases.iter().map(|p| p.secs).sum::<f64>() <= perf.wall_secs,
            "phase totals cannot exceed the measured wall-clock"
        );
        assert_eq!(perf.metrics.counter("kernel.steps"), perf.steps);
    }

    #[test]
    fn perf_reports_merge_additively() {
        let s = tiny();
        let profile = Instrument {
            profile: true,
            ..Instrument::default()
        };
        let perf_of = |seed| {
            run(&RunSpec::arm(&s, Arm::ChitChat, seed), &profile)
                .2
                .expect("profiled")
        };
        let (a, b) = (perf_of(1), perf_of(2));
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.runs, 2);
        assert_eq!(merged.steps, a.steps + b.steps);
        assert_eq!(merged.events, a.events + b.events);
        assert!((merged.wall_secs - (a.wall_secs + b.wall_secs)).abs() < 1e-9);
        assert_eq!(
            merged.peak_buffer_bytes,
            a.peak_buffer_bytes.max(b.peak_buffer_bytes)
        );
        let phase_sum: f64 = merged.phases.iter().map(|p| p.secs).sum();
        let parts: f64 = a.phases.iter().chain(&b.phases).map(|p| p.secs).sum();
        assert!((phase_sum - parts).abs() < 1e-9);
        // And a profiled comparison folds both arms into one report.
        let (cmp, perf) = compare(&s, BackendKind::ChitChat, &[1], true);
        assert_eq!(perf.expect("profiled").runs, 2, "one run per arm");
        assert!(cmp.incentive != cmp.chitchat);
    }

    /// The report reads its counters from the registry: the abort line
    /// names the three abort reasons and the phase shares sum to 100%.
    #[test]
    fn perf_render_lists_the_abort_reasons_and_phase_shares() {
        let mut metrics = MetricsRegistry::new();
        for (name, n) in [
            ("kernel.transfers_completed", 7),
            ("kernel.transfers_aborted", 6),
            ("kernel.transfers_aborted_contact", 3),
            ("kernel.transfers_aborted_source", 2),
            ("kernel.transfers_aborted_injected", 1),
            ("kernel.transfers_retried", 4),
        ] {
            metrics.add(name, n);
        }
        let phase = |phase: &str, secs| PhaseTiming {
            phase: phase.to_string(),
            secs,
            calls: 1,
        };
        let report = PerfReport {
            runs: 2,
            wall_secs: 1.5,
            sim_secs: 3000.0,
            sim_secs_per_sec: 2000.0,
            steps: 3000,
            events: 900,
            events_per_sec: 600.0,
            peak_buffer_bytes: 2_500_000,
            phases: vec![phase("mobility", 0.75), phase("transfers", 0.25)],
            metrics,
        };
        let lines: Vec<String> = report.render().lines().map(str::to_owned).collect();
        assert_eq!(
            lines,
            [
                "perf: 2 run(s), 1.50 s wall · 2000× real time · 600 events/s · peak buffers 2.5 MB",
                "  transfers: 7 completed · 6 aborted (contact 3 / source 2 / injected 1)",
                "  recovery: 4 retried · 0 resumed · 0 abandoned",
                "  phase              wall (s)    share",
                "  mobility              0.750    75.0%",
                "  transfers             0.250    25.0%",
            ]
        );
    }
}
