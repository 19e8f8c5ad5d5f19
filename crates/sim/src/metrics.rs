//! Wall-clock observability: a metrics registry and a kernel phase profiler.
//!
//! Simulation results are deterministic under a seed, but *how fast* they
//! are produced is not — and the ROADMAP's scaling work needs wall-clock
//! visibility to prove any win. This module provides:
//!
//! * [`MetricsRegistry`] — a dependency-free store of monotonic counters,
//!   gauges and fixed-bucket [`Histogram`]s, serializable for `--metrics-out`
//!   dumps and `BENCH_*.json` baselines;
//! * [`Phase`] / [`PhaseProfiler`] — per-stage timers for the kernel step
//!   (mobility, contact diff, fault injection, protocol exchange, transfers,
//!   TTL sweep, settlement tick, invariant checks). When disabled the
//!   profiler never reads the clock: every probe is a branch on one `bool`;
//! * [`KernelCounters`] — always-on event tallies (plain `u64` increments)
//!   the kernel maintains in its hot path, from which events/sec throughput
//!   is derived.
//!
//! Nothing here feeds back into simulation state: a profiled run and an
//! unprofiled run of the same `(scenario, seed)` produce byte-identical
//! traces and summaries (asserted by tests).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use crate::transfer::AbortReason;

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`, with one implicit overflow bucket at the end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Creates a histogram with the given ascending bucket upper bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly ascending.
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Total observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation, or 0.0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The bucket upper bounds.
    #[must_use]
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Folds another histogram with identical bounds into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(
            self.bounds, other.bounds,
            "cannot merge histograms with different buckets"
        );
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.sum += other.sum;
        self.count += other.count;
    }
}

/// A store of named monotonic counters, gauges and fixed-bucket
/// histograms. No external deps, no interior mutability, no background
/// threads — callers own it and mutate it directly.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the named counter (created at zero on first use).
    pub fn add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_owned()).or_default() += delta;
    }

    /// Increments the named counter by one.
    pub fn inc(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 if never written).
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Raises a gauge to `value` if it exceeds the current reading —
    /// the idiom for peaks (e.g. peak buffer occupancy).
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let g = self.gauges.entry(name.to_owned()).or_insert(f64::MIN);
        if value > *g {
            *g = value;
        }
    }

    /// Reads a gauge.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records an observation into the named histogram, creating it with
    /// `bounds` on first use.
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_owned())
            .or_insert_with(|| Histogram::with_bounds(bounds))
            .observe(value);
    }

    /// Reads a histogram.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Stores a pre-built histogram under `name` (merging into an existing
    /// one with identical bounds, replacing otherwise).
    pub fn insert_histogram(&mut self, name: &str, hist: Histogram) {
        match self.histograms.get_mut(name) {
            Some(mine) if mine.bounds == hist.bounds => mine.merge(&hist),
            _ => {
                self.histograms.insert(name.to_owned(), hist);
            }
        }
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Folds `other` into this registry: counters sum, gauges keep the
    /// maximum, histograms with matching bounds merge (mismatched bounds
    /// are skipped rather than corrupting buckets).
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, &v) in &other.counters {
            *self.counters.entry(name.clone()).or_default() += v;
        }
        for (name, &v) in &other.gauges {
            self.gauge_max(name, v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) if mine.bounds == h.bounds => mine.merge(h),
                Some(_) => {}
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }
}

/// The stages of one kernel step, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Mobility-model updates (kernel stage 1).
    Mobility,
    /// Node-level fault injection: crashes, wipes, battery spikes (1b).
    FaultInjection,
    /// Contact detection (2): the event core's transitions, or the
    /// time-stepped sweep's in-range list and diff; the dead-radio and
    /// link-fault filters; the contact table update.
    ContactDiff,
    /// Contact up/down dispatch into the protocol (directory/offer
    /// exchange in the DCIM router).
    ProtocolExchange,
    /// Scheduled message creations due this step (3).
    MessageCreation,
    /// Transfer engine progress plus completion/abort handling (4).
    Transfers,
    /// Periodic TTL sweep (5).
    TtlSweep,
    /// Protocol housekeeping tick — settlement, rating decay, sampling (6).
    SettlementTick,
    /// Cadenced invariant audit (7).
    InvariantCheck,
}

impl Phase {
    /// All phases, in execution order.
    pub const ALL: [Phase; 9] = [
        Phase::Mobility,
        Phase::FaultInjection,
        Phase::ContactDiff,
        Phase::ProtocolExchange,
        Phase::MessageCreation,
        Phase::Transfers,
        Phase::TtlSweep,
        Phase::SettlementTick,
        Phase::InvariantCheck,
    ];

    /// Stable snake-case label used in reports and JSON dumps.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Mobility => "mobility",
            Phase::FaultInjection => "fault_injection",
            Phase::ContactDiff => "contact_diff",
            Phase::ProtocolExchange => "protocol_exchange",
            Phase::MessageCreation => "message_creation",
            Phase::Transfers => "transfers",
            Phase::TtlSweep => "ttl_sweep",
            Phase::SettlementTick => "settlement_tick",
            Phase::InvariantCheck => "invariant_check",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// One phase's accumulated wall-clock, for reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseTiming {
    /// The phase label (see [`Phase::label`]).
    pub phase: String,
    /// Total wall-clock seconds spent in this phase.
    pub secs: f64,
    /// Number of timed scopes.
    pub calls: u64,
}

/// Microsecond bucket bounds for the per-step wall-clock histogram.
pub const STEP_WALL_US_BOUNDS: [f64; 12] = [
    50.0, 100.0, 250.0, 500.0, 1_000.0, 2_500.0, 5_000.0, 10_000.0, 25_000.0, 50_000.0, 100_000.0,
    500_000.0,
];

/// Accumulates wall-clock per kernel phase, plus a per-step histogram.
///
/// Disabled is the default and costs one branch per probe: [`start`]
/// returns `None` without touching the clock, and [`stop`] on `None` is a
/// no-op. Timing never influences simulation state.
///
/// [`start`]: PhaseProfiler::start
/// [`stop`]: PhaseProfiler::stop
#[derive(Debug, Clone)]
pub struct PhaseProfiler {
    enabled: bool,
    totals: [Duration; Phase::ALL.len()],
    calls: [u64; Phase::ALL.len()],
    step_wall_us: Histogram,
}

impl Default for PhaseProfiler {
    fn default() -> Self {
        Self::disabled()
    }
}

impl PhaseProfiler {
    /// A profiler that records nothing (the kernel default).
    #[must_use]
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// A recording profiler.
    #[must_use]
    pub fn enabled() -> Self {
        Self::new(true)
    }

    fn new(enabled: bool) -> Self {
        PhaseProfiler {
            enabled,
            totals: [Duration::ZERO; Phase::ALL.len()],
            calls: [0; Phase::ALL.len()],
            step_wall_us: Histogram::with_bounds(&STEP_WALL_US_BOUNDS),
        }
    }

    /// Whether this profiler records.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a timing scope: `None` (no clock read) when disabled.
    #[inline]
    #[must_use]
    pub fn start(&self) -> Option<Instant> {
        if self.enabled {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Closes a timing scope opened by [`PhaseProfiler::start`],
    /// attributing the elapsed time to `phase`.
    #[inline]
    pub fn stop(&mut self, phase: Phase, started: Option<Instant>) {
        if let Some(t0) = started {
            self.totals[phase.index()] += t0.elapsed();
            self.calls[phase.index()] += 1;
        }
    }

    /// Closes a whole-step scope, feeding the per-step histogram.
    #[inline]
    pub fn stop_step(&mut self, started: Option<Instant>) {
        if let Some(t0) = started {
            let us = t0.elapsed().as_secs_f64() * 1e6;
            self.step_wall_us.observe(us);
        }
    }

    /// Accumulated wall-clock seconds for `phase`.
    #[must_use]
    pub fn phase_secs(&self, phase: Phase) -> f64 {
        self.totals[phase.index()].as_secs_f64()
    }

    /// Sum of all phase totals, seconds.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.totals.iter().map(Duration::as_secs_f64).sum()
    }

    /// The per-step wall-clock histogram (microseconds).
    #[must_use]
    pub fn step_wall_us(&self) -> &Histogram {
        &self.step_wall_us
    }

    /// All phase totals in execution order (including zero-time phases,
    /// so downstream schemas are stable).
    #[must_use]
    pub fn timings(&self) -> Vec<PhaseTiming> {
        Phase::ALL
            .iter()
            .map(|&p| PhaseTiming {
                phase: p.label().to_owned(),
                secs: self.totals[p.index()].as_secs_f64(),
                calls: self.calls[p.index()],
            })
            .collect()
    }
}

/// Always-on kernel event tallies, maintained as plain field increments in
/// the step loop (no map lookups on the hot path). "Events" is the
/// denominator-friendly sum of everything the kernel processed: contact
/// transitions, message creations, completed and aborted transfers, and
/// TTL expiries.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KernelCounters {
    /// Steps executed.
    pub steps: u64,
    /// Contacts that came up.
    pub contacts_up: u64,
    /// Contacts that went down.
    pub contacts_down: u64,
    /// Messages created by the schedule.
    pub messages_created: u64,
    /// Physically completed transfers (before fault rolls).
    pub transfers_completed: u64,
    /// Aborted transfers — lumped total across every reason (equals the
    /// sum of the three per-reason fields below).
    pub transfers_aborted: u64,
    /// Aborts caused by the contact dropping mid-transfer.
    pub transfers_aborted_contact: u64,
    /// Aborts caused by the sender losing its copy (TTL/eviction).
    pub transfers_aborted_source: u64,
    /// Aborts injected by the fault layer (payload loss/corruption).
    pub transfers_aborted_injected: u64,
    /// Retries scheduled by the recovery layer (0 without a policy).
    pub transfers_retried: u64,
    /// Enqueues that resumed from a saved checkpoint instead of byte zero.
    pub transfers_resumed: u64,
    /// Retries abandoned because the copy or the demand vanished.
    pub transfers_abandoned: u64,
    /// Copies purged by the TTL sweep.
    pub ttl_expiries: u64,
    /// Open contacts after contact detection, summed over all steps (so
    /// `contact_pairs / steps` is the mean number of open contacts). Not
    /// part of [`Self::events`]: it measures the contact table, not kernel
    /// events. The event core's detection work is the separate
    /// `kernel.pair_checks` metric of
    /// [`crate::kernel::Simulation::export_metrics`].
    pub contact_pairs: u64,
    /// Senders visited by the batched transfer pass, summed over all steps.
    /// Under the active-pair index this counts only populated queues; the
    /// pre-index engine would have scanned `steps * node_count`. Not part
    /// of [`Self::events`].
    pub transfer_batch_senders: u64,
    /// Peak total buffered bytes across all nodes. Only tracked while the
    /// phase profiler is enabled (the scan is O(nodes) per step); reads 0
    /// on unprofiled runs.
    pub peak_buffer_bytes: u64,
}

impl KernelCounters {
    /// Records one abort, bumping both the lumped total and the matching
    /// per-reason tally (so corruption is distinguishable from mobility
    /// churn in exports and the `--verbose` render).
    pub fn note_abort(&mut self, reason: AbortReason) {
        self.transfers_aborted += 1;
        match reason {
            AbortReason::ContactDown => self.transfers_aborted_contact += 1,
            AbortReason::SourceGone => self.transfers_aborted_source += 1,
            AbortReason::Injected => self.transfers_aborted_injected += 1,
        }
    }

    /// Total kernel events processed (throughput numerator). The
    /// per-reason abort fields are a breakdown of `transfers_aborted`, not
    /// additional events; retry-queue traffic does count.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.contacts_up
            + self.contacts_down
            + self.messages_created
            + self.transfers_completed
            + self.transfers_aborted
            + self.transfers_retried
            + self.transfers_resumed
            + self.transfers_abandoned
            + self.ttl_expiries
    }

    /// Exports the counters into `registry` under `kernel.*` names.
    pub fn export(&self, registry: &mut MetricsRegistry) {
        registry.add("kernel.steps", self.steps);
        registry.add("kernel.contacts_up", self.contacts_up);
        registry.add("kernel.contacts_down", self.contacts_down);
        registry.add("kernel.messages_created", self.messages_created);
        registry.add("kernel.transfers_completed", self.transfers_completed);
        registry.add("kernel.transfers_aborted", self.transfers_aborted);
        registry.add(
            "kernel.transfers_aborted_contact",
            self.transfers_aborted_contact,
        );
        registry.add(
            "kernel.transfers_aborted_source",
            self.transfers_aborted_source,
        );
        registry.add(
            "kernel.transfers_aborted_injected",
            self.transfers_aborted_injected,
        );
        registry.add("kernel.transfers_retried", self.transfers_retried);
        registry.add("kernel.transfers_resumed", self.transfers_resumed);
        registry.add("kernel.transfers_abandoned", self.transfers_abandoned);
        registry.add("kernel.ttl_expiries", self.ttl_expiries);
        registry.add("kernel.contact_pairs", self.contact_pairs);
        registry.add("kernel.transfer_batch_senders", self.transfer_batch_senders);
        registry.add("kernel.events", self.events());
        registry.gauge_max("kernel.peak_buffer_bytes", self.peak_buffer_bytes as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::with_bounds(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(1.0); // inclusive upper bound
        h.observe(5.0);
        h.observe(99.0); // overflow
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 105.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::with_bounds(&[10.0, 1.0]);
    }

    #[test]
    fn histogram_merge_sums_buckets() {
        let mut a = Histogram::with_bounds(&[1.0]);
        let mut b = Histogram::with_bounds(&[1.0]);
        a.observe(0.5);
        b.observe(2.0);
        a.merge(&b);
        assert_eq!(a.counts(), &[1, 1]);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn registry_counters_gauges_histograms() {
        let mut m = MetricsRegistry::new();
        m.inc("relays");
        m.add("relays", 4);
        assert_eq!(m.counter("relays"), 5);
        assert_eq!(m.counter("missing"), 0);
        m.set_gauge("occupancy", 10.0);
        m.gauge_max("occupancy", 7.0);
        assert_eq!(m.gauge("occupancy"), Some(10.0));
        m.gauge_max("occupancy", 12.0);
        assert_eq!(m.gauge("occupancy"), Some(12.0));
        m.observe("lat", &[1.0, 2.0], 1.5);
        assert_eq!(m.histogram("lat").unwrap().count(), 1);
    }

    #[test]
    fn registry_merge_sums_and_maxes() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.add("x", 2);
        b.add("x", 3);
        b.add("y", 1);
        a.set_gauge("peak", 5.0);
        b.set_gauge("peak", 9.0);
        a.observe("h", &[1.0], 0.5);
        b.observe("h", &[1.0], 2.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.gauge("peak"), Some(9.0));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
    }

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = PhaseProfiler::disabled();
        let t = p.start();
        assert!(t.is_none(), "disabled profiler must not read the clock");
        p.stop(Phase::Mobility, t);
        p.stop_step(t);
        assert_eq!(p.total_secs(), 0.0);
        assert_eq!(p.step_wall_us().count(), 0);
        assert!(p.timings().iter().all(|t| t.calls == 0));
    }

    #[test]
    fn enabled_profiler_attributes_time() {
        let mut p = PhaseProfiler::enabled();
        let t = p.start();
        assert!(t.is_some());
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.stop(Phase::Transfers, t);
        let step = p.start();
        p.stop_step(step);
        assert!(p.phase_secs(Phase::Transfers) > 0.0);
        assert_eq!(p.phase_secs(Phase::Mobility), 0.0);
        assert_eq!(p.step_wall_us().count(), 1);
        let timings = p.timings();
        assert_eq!(timings.len(), Phase::ALL.len());
        let t = timings.iter().find(|t| t.phase == "transfers").unwrap();
        assert_eq!(t.calls, 1);
        assert!(t.secs > 0.0);
    }

    #[test]
    fn kernel_counters_event_sum_and_export() {
        let c = KernelCounters {
            steps: 10,
            contacts_up: 3,
            contacts_down: 2,
            messages_created: 4,
            transfers_completed: 5,
            transfers_aborted: 1,
            transfers_aborted_contact: 1,
            transfers_aborted_source: 0,
            transfers_aborted_injected: 0,
            transfers_retried: 2,
            transfers_resumed: 1,
            transfers_abandoned: 1,
            ttl_expiries: 6,
            contact_pairs: 40,
            transfer_batch_senders: 7,
            peak_buffer_bytes: 1000,
        };
        // Workload gauges (pairs scanned, senders batched) are inputs, not
        // events: the throughput numerator must not change under them.
        assert_eq!(c.events(), 25);
        let mut m = MetricsRegistry::new();
        c.export(&mut m);
        assert_eq!(m.counter("kernel.events"), 25);
        assert_eq!(m.counter("kernel.contact_pairs"), 40);
        assert_eq!(m.counter("kernel.transfer_batch_senders"), 7);
        assert_eq!(m.counter("kernel.steps"), 10);
        assert_eq!(m.counter("kernel.transfers_aborted_contact"), 1);
        assert_eq!(m.counter("kernel.transfers_retried"), 2);
        assert_eq!(m.counter("kernel.transfers_resumed"), 1);
        assert_eq!(m.counter("kernel.transfers_abandoned"), 1);
        assert_eq!(m.gauge("kernel.peak_buffer_bytes"), Some(1000.0));
    }

    #[test]
    fn note_abort_splits_by_reason() {
        let mut c = KernelCounters::default();
        c.note_abort(AbortReason::ContactDown);
        c.note_abort(AbortReason::ContactDown);
        c.note_abort(AbortReason::SourceGone);
        c.note_abort(AbortReason::Injected);
        assert_eq!(c.transfers_aborted, 4);
        assert_eq!(
            c.transfers_aborted,
            c.transfers_aborted_contact + c.transfers_aborted_source + c.transfers_aborted_injected
        );
        assert_eq!(c.transfers_aborted_contact, 2);
        assert_eq!(c.transfers_aborted_injected, 1);
    }
}
