//! The traced run: the same world as an untraced rep, built step by step
//! the way `dtn_workloads::runner::build_simulation_opts` builds it, with
//! every layer timed from outside.
//!
//! The router is `TimedProtocol<DcimRouter<TimedBackend<ChitChatBackend>>>`
//! — exactly what `DcimRouter::new` builds, wrapped — and the kernel runs
//! with its phase profiler on. The benchmark drives `step_once` itself,
//! timing every step, auditing invariants every [`AUDIT_EVERY`] steps on
//! the workloads that ask for it, then calls `run_until` to finalize. The
//! traced digest must equal the untraced one: tracing may not change a
//! byte of the outcome.

use std::time::Instant;

use dtn_core::behavior::NodeBehavior;
use dtn_core::protocol::{DcimRouter, ProtocolStats};
use dtn_routing::backend::ChitChatBackend;
use dtn_sim::buffer::DropPolicy;
use dtn_sim::geometry::Area;
use dtn_sim::kernel::{Simulation, SimulationBuilder};
use dtn_sim::metrics::Phase;
use dtn_sim::rng::SimRng;
use dtn_sim::stats::RunSummary;
use dtn_sim::time::SimTime;
use dtn_sim::world::NodeId;
use dtn_workloads::population::Population;
use dtn_workloads::runner::protocol_for;
use dtn_workloads::scenario::{Arm, Scenario};
use dtn_workloads::sweep;
use dtn_workloads::traffic::generate_schedule;

use crate::calib::{self, Stopwatch, Timing};
use crate::layers::{self, TimedBackend, TimedProtocol};
use crate::micro;
use crate::report::in_reference_time;
use crate::stats::{peak_rss_kb, percentile};
use crate::workloads::{
    cell_arm, cell_events, cold_sweep, grid_digest, grid_setup, run_digest, RepOutcome, Scale,
    Workload, GRID_WORKERS,
};

/// Invariant-audit cadence of the traced run, in steps.
pub const AUDIT_EVERY: u64 = 600;

/// The figure-grid cell traced layer by layer: selfish 0.2, Incentive arm,
/// first seed.
const GRID_TRACED_CELL: usize = 8;

type TracedRouter = DcimRouter<TimedBackend<ChitChatBackend>>;
type TracedSim = Simulation<TimedProtocol<TracedRouter>>;

/// Wall seconds since `clock`, restarting it.
fn lap(clock: &mut Instant) -> f64 {
    let secs = clock.elapsed().as_secs_f64();
    *clock = Instant::now();
    secs
}

/// Wall seconds of the set-up steps.
#[derive(Debug, Default)]
struct SetupTimes {
    population_s: f64,
    schedule_s: f64,
    router_s: f64,
    build_s: f64,
}

/// Builds the traced world: `build_simulation_opts` step by step, with the
/// timing wrappers around the router and the profiler on.
fn build(s: &Scenario, arm: Arm, seed: u64) -> (TracedSim, SetupTimes) {
    let mut times = SetupTimes::default();
    let mut clock = Instant::now();
    s.validate().expect("scenario must validate");
    let workload_rng = SimRng::new(seed);
    let population = Population::synthesize(s, &workload_rng);
    times.population_s = lap(&mut clock);
    let schedule = generate_schedule(s, &population, &workload_rng);
    times.schedule_s = lap(&mut clock);

    let params = protocol_for(s, arm);
    let backend = TimedBackend {
        inner: ChitChatBackend::new(s.nodes, params.chitchat),
    };
    let mut router = DcimRouter::with_backend(backend, params, seed);
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
    if let Some(mix) = &s.strategies {
        for (i, &strategy) in population.strategies.iter().enumerate() {
            if strategy.is_some() {
                router.set_strategy(NodeId(i as u32), strategy);
            }
        }
        if mix.defense {
            router.set_strategy_defense(true);
        }
    }
    times.router_s = lap(&mut clock);

    let drop_policy = if params.incentive_enabled {
        DropPolicy::DropLowestPriority
    } else {
        DropPolicy::DropOldest
    };
    let mut builder = SimulationBuilder::new(Area::square_km(s.area_km2), seed)
        .radio(s.radio)
        .buffer_capacity(s.buffer_bytes)
        .drop_policy(drop_policy)
        .threads(s.effective_threads())
        .kernel_mode(s.effective_kernel_mode())
        .nodes(s.nodes, || s.mobility.instantiate());
    if let Some(j) = s.battery_joules {
        builder = builder.battery_joules(j);
    }
    if let Some(plan) = s.chaos {
        builder = builder.faults(plan);
    }
    if let Some(policy) = s.recovery {
        builder = builder.recovery(policy);
    }
    if let Some(every) = s.audit_every {
        builder = builder.check_invariants_every(every);
    }
    let sim = builder
        .profile(true)
        .messages(schedule)
        .build(TimedProtocol { inner: router });
    times.build_s = lap(&mut clock);
    (sim, times)
}

/// One traced kernel run and everything measured about it.
pub struct KernelTrace {
    pub outcome: RepOutcome,
    pub summary: RunSummary,
    pub protocol: ProtocolStats,
    /// Set-up plus stepping, in reference seconds.
    pub total_ref_s: f64,
}

/// Runs `s` under `arm` traced. With `audit`, invariants are checked from
/// outside every [`AUDIT_EVERY`] steps; audit time is not part of any
/// reported duration. Durations are converted to reference time with the
/// host slowdown measured over the whole traced run.
#[must_use]
pub fn run_kernel(s: &Scenario, arm: Arm, seed: u64, audit: bool) -> KernelTrace {
    layers::reset();
    let mut watch = Stopwatch::start();
    let mut clock = Instant::now();
    let (mut sim, setup) = build(s, arm, seed);
    let setup_s = lap(&mut clock);
    watch.lap();

    let end = SimTime::from_secs(s.duration_secs);
    let mut step_secs = Vec::with_capacity(s.duration_secs as usize + 1);
    let mut violations = Vec::new();
    while sim.api().now() < end {
        let started = Instant::now();
        sim.step_once();
        step_secs.push(started.elapsed().as_secs_f64());
        if audit && sim.api().counters().steps % AUDIT_EVERY == 0 {
            violations.extend(sim.check_invariants_now());
        }
        watch.lap_if_due();
    }
    let _ = sim.run_until(end);
    let stepped: f64 = step_secs.iter().sum();
    let stats = layers::take();

    let router = &sim.protocol().inner;
    let pairs = micro::pick_pairs(stats.recent_pairs.iter().copied());
    let timings = micro::measure(
        sim.api(),
        &router.backend().inner,
        &router.params().chitchat,
        |n| router.reputation(n).clone(),
        router.params().rating.max_rating,
        &pairs,
    );
    let slow = watch.stop().slowdown();

    let registry = sim.export_metrics();
    let gauge = |name: &str| registry.gauge(name).unwrap_or(0.0);
    let phase = |p: Phase| sim.profiler().phase_secs(p);
    let phase_total: f64 = Phase::ALL
        .iter()
        .filter(|&&p| p != Phase::InvariantCheck)
        .map(|&p| phase(p))
        .sum();
    let counters = *sim.api().counters();
    let nodes = s.nodes as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut layer_values = vec![
        ("workloads.population_s", setup.population_s),
        ("workloads.schedule_s", setup.schedule_s),
        // A single simulation is a one-cell sweep on one worker: busy for
        // all of it, never idle.
        ("workloads.sweep_busy_s", setup_s + stepped),
        ("workloads.sweep_idle_frac", 0.0),
        ("sim.build_s", setup.build_s),
        ("sim.mobility_s", phase(Phase::Mobility)),
        ("sim.contact_diff_s", phase(Phase::ContactDiff)),
        ("sim.fault_injection_s", phase(Phase::FaultInjection)),
        ("sim.message_creation_s", phase(Phase::MessageCreation)),
        ("sim.transfers_s", phase(Phase::Transfers)),
        ("sim.ttl_sweep_s", phase(Phase::TtlSweep)),
        ("sim.step_ms_p50", percentile(&mut step_secs, 0.5) * 1e3),
        ("sim.step_ms_p99", percentile(&mut step_secs, 0.99) * 1e3),
        ("sim.events", counters.events() as f64),
        ("sim.contacts_up", counters.contacts_up as f64),
        (
            "sim.transfers_completed",
            counters.transfers_completed as f64,
        ),
        ("sim.transfers_aborted", counters.transfers_aborted as f64),
        ("sim.transfers_retried", counters.transfers_retried as f64),
        ("sim.transfers_resumed", counters.transfers_resumed as f64),
        (
            "sim.transfer_success_ratio",
            ratio(
                counters.transfers_completed as f64,
                (counters.transfers_completed + counters.transfers_aborted) as f64,
            ),
        ),
        (
            "sim.peak_buffer_mb",
            counters.peak_buffer_bytes as f64 / 1e6,
        ),
        ("core.router_setup_s", setup.router_s),
        ("core.protocol_exchange_s", phase(Phase::ProtocolExchange)),
        ("core.settlement_tick_s", phase(Phase::SettlementTick)),
        (
            "core.settlement_self_s",
            stats.tick_secs - stats.tick_backend_secs,
        ),
        ("core.offers_evaluated", stats.offers_evaluated() as f64),
        ("core.sends_initiated", stats.sends_initiated as f64),
        (
            "core.offer_send_ratio",
            ratio(
                stats.sends_initiated as f64,
                stats.offers_evaluated() as f64,
            ),
        ),
        ("routing.exchange_s", stats.exchange.secs),
        ("routing.exchange_calls", stats.exchange.calls as f64),
        ("routing.rtsr_exchange_ns", timings.rtsr_exchange_ns),
        ("routing.query_s", stats.query.secs),
        ("routing.query_calls", stats.query.calls as f64),
        (
            "routing.relay_reject_ratio",
            ratio(stats.relay_rejects as f64, stats.relay_checks as f64),
        ),
        (
            "routing.bytes_per_node",
            gauge("arena.interest_bytes") / nodes,
        ),
        ("routing.watched_pairs", gauge("settlement.watched_pairs")),
        ("reputation.absorb_mutual_ns", timings.absorb_mutual_ns),
        ("reputation.absorb_weighted_ns", timings.absorb_weighted_ns),
        (
            "reputation.bytes_per_node",
            gauge("arena.reputation_bytes") / nodes,
        ),
        ("trace.coverage_frac", ratio(phase_total, stepped)),
        ("host.slowdown", slow),
    ];

    let events = counters.events();
    let (protocol, summary) = sim.finish();
    let protocol_stats = protocol.inner.stats();
    layer_values.extend([
        ("core.settlements", protocol_stats.settlements as f64),
        (
            "core.refused_broke",
            protocol_stats.refused_broke_destination as f64,
        ),
        (
            "core.refused_prepay",
            protocol_stats.refused_unaffordable_prepay as f64,
        ),
        (
            "core.refused_distrusted",
            protocol_stats.refused_distrusted_sender as f64,
        ),
        (
            "core.refused_dropper",
            protocol_stats.refused_suspected_dropper as f64,
        ),
    ]);
    KernelTrace {
        outcome: RepOutcome {
            digest: run_digest(&summary, &protocol_stats, events),
            units: 1,
            events,
            setup: Timing {
                wall_s: setup_s,
                ref_s: setup_s / slow,
            },
            run: Timing {
                wall_s: stepped,
                ref_s: stepped / slow,
            },
            peak_rss_kb: peak_rss_kb(),
            layers: in_reference_time(layer_values, slow),
            violations,
        },
        summary,
        protocol: protocol_stats,
        total_ref_s: (setup_s + stepped) / slow,
    }
}

/// One traced rep of `workload` under `seed`.
#[must_use]
pub fn run_traced(workload: Workload, seed: u64, scale: Scale) -> RepOutcome {
    match workload {
        Workload::FigureGrid => run_grid(seed, scale),
        _ => {
            let s = workload.scenario(scale);
            run_kernel(&s, Arm::Incentive, seed, workload.audits()).outcome
        }
    }
}

/// The traced figure grid: the pooled sweep as users run it, then every
/// cell again sequentially (each cell's busy time), then one cell traced
/// layer by layer for the kernel-side metrics.
fn run_grid(seed: u64, scale: Scale) -> RepOutcome {
    cold_sweep();
    let (plan, setup) = calib::time(|| grid_setup(seed, scale));
    let (pooled, pooled_timing) = calib::time_sampled(|| sweep::run_cells(&plan));

    let mut cell_timings = Vec::with_capacity(plan.len());
    let mut sequential = Vec::with_capacity(plan.len());
    for cell in &plan {
        let (result, timing) = calib::time(|| sweep::run_cell_uncached(cell));
        sequential.push(result);
        cell_timings.push(timing);
    }
    let busy_ref_s: f64 = cell_timings.iter().map(|t| t.ref_s).sum();
    // The idle share from wall seconds: the pool and the sequential pass
    // run back to back, under different host loads.
    let busy_wall_s: f64 = cell_timings.iter().map(|t| t.wall_s).sum();

    let mut violations = Vec::new();
    if sequential != pooled {
        violations.push("sequential cell results differ from the pooled sweep".to_owned());
    }
    let index = GRID_TRACED_CELL.min(plan.len() - 1);
    let cell = &plan[index];
    let trace = run_kernel(&cell.scenario, cell_arm(cell), cell.seed, false);
    if trace.summary != pooled[index].summary
        || trace.protocol.settlements != pooled[index].settlements
    {
        violations.push(format!(
            "traced cell {index} differs from its pooled result"
        ));
    }
    violations.extend(trace.outcome.violations);

    let mut layer_values = trace.outcome.layers;
    let set = |values: &mut Vec<(String, f64)>, name: &str, value: f64| {
        if let Some(slot) = values.iter_mut().find(|(n, _)| n == name) {
            slot.1 = value;
        } else {
            values.push((name.to_owned(), value));
        }
    };
    set(&mut layer_values, "workloads.sweep_busy_s", busy_ref_s);
    set(
        &mut layer_values,
        "workloads.sweep_idle_frac",
        1.0 - busy_wall_s / (GRID_WORKERS as f64 * pooled_timing.wall_s),
    );
    set(
        &mut layer_values,
        "trace.overhead_frac",
        trace.total_ref_s / cell_timings[index].ref_s - 1.0,
    );
    RepOutcome {
        digest: grid_digest(&pooled),
        units: plan.len() as u64,
        events: pooled.iter().map(|r| cell_events(&r.summary)).sum(),
        setup,
        run: pooled_timing,
        peak_rss_kb: peak_rss_kb(),
        layers: layer_values,
        violations,
    }
}
