//! Run statistics.
//!
//! The collector tracks exactly the quantities the paper's evaluation
//! reports: message delivery ratio (overall and per priority class, Figs.
//! 5.1/5.3/5.5/5.6), relayed traffic (Fig. 5.2), plus auxiliary health
//! metrics (evictions, latency) and named time series pushed by the
//! protocol layer (Fig. 5.4's malicious-rating curve). Kernel event counts
//! (creations, aborts, retries, resumes, abandons, TTL expiries) are not
//! kept here: their one ledger is
//! [`KernelCounters`](crate::metrics::KernelCounters), and the kernel
//! copies them into the [`RunSummary`] at finalization.
//!
//! Delivery in a data-centric DTN is interest-based: a message has no named
//! destination, so the workload registers the *expected destination set* —
//! the nodes holding a direct interest in one of the source's tags at
//! creation time — and MDR is measured over `(message, destination)` pairs.
//! Every delivery tally is computed from those sets, the priorities and
//! the delivered pairs in [`StatsCollector::summarize`].

use std::collections::BTreeMap;

use crate::fxhash::{FxHashMap, FxHashSet};

use serde::{Deserialize, Serialize};

use crate::message::{MessageId, Priority};
use crate::time::SimTime;
use crate::world::NodeId;

/// Aggregated counters for one simulation run.
#[derive(Debug, Default)]
pub struct StatsCollector {
    expected_dests: FxHashMap<MessageId, FxHashSet<NodeId>>,
    priority_of: FxHashMap<MessageId, Priority>,
    /// Every `(message, node)` pair delivered so far, expected or not: the
    /// one record of which deliverer was first.
    delivered_pairs: FxHashSet<(MessageId, NodeId)>,
    latency_sum_secs: f64,
    relays_completed: u64,
    relay_bytes: u64,
    buffer_evictions: u64,
    series: BTreeMap<String, Vec<(f64, f64)>>,
}

/// A read-only summary of one run, suitable for aggregation across seeds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Messages created.
    pub created: u64,
    /// Expected `(message, destination)` pairs registered by the workload.
    pub expected_pairs: u64,
    /// Expected pairs actually delivered (each counted once).
    pub delivered_pairs: u64,
    /// Deliveries to nodes that were not in the expected set (interest
    /// acquired en route, or enrichment-created destinations).
    pub bonus_deliveries: u64,
    /// Messages delivered to at least one node.
    pub messages_with_delivery: u64,
    /// Pair-level delivery ratio `delivered_pairs / expected_pairs`.
    pub delivery_ratio: f64,
    /// Per-priority pair delivery ratio, keyed by `Priority::level()`.
    pub delivery_ratio_by_priority: BTreeMap<u8, f64>,
    /// Mean first-delivery latency, seconds.
    pub mean_latency_secs: f64,
    /// Number of expected deliveries behind `mean_latency_secs` — the
    /// weight a cross-seed average must give this run's latency (a seed
    /// with one delivery must not count as much as one with 500).
    pub latency_count: u64,
    /// Completed message transfers (the paper's "traffic").
    pub relays_completed: u64,
    /// Bytes moved by completed transfers.
    pub relay_bytes: u64,
    /// Transfers aborted (contact loss, source loss, injected faults).
    pub transfers_aborted: u64,
    /// Retries scheduled by the recovery layer (0 without a policy).
    #[serde(default)]
    pub transfers_retried: u64,
    /// Enqueues resumed from a checkpoint instead of byte zero.
    #[serde(default)]
    pub transfers_resumed: u64,
    /// Retries abandoned (copy expired/evicted, or demand already met).
    #[serde(default)]
    pub transfers_abandoned: u64,
    /// Copies evicted by buffer pressure.
    pub buffer_evictions: u64,
    /// Copies purged by TTL.
    pub ttl_expiries: u64,
    /// Nodes whose battery hit zero before the run ended (0 with an
    /// unlimited energy budget).
    #[serde(default)]
    pub depleted_nodes: u64,
    /// Named time series recorded during the run.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl StatsCollector {
    /// Creates an empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a message creation and its expected destination set.
    pub fn record_created(
        &mut self,
        id: MessageId,
        priority: Priority,
        expected: impl IntoIterator<Item = NodeId>,
    ) {
        self.priority_of.insert(id, priority);
        self.expected_dests
            .insert(id, expected.into_iter().collect());
    }

    /// Records a delivery of `id` to `node` at `now`, with the message's
    /// creation time for latency. Duplicate `(message, node)` deliveries are
    /// ignored (only the first deliverer counts, as in the incentive rule).
    ///
    /// Returns `true` if this was a fresh delivery.
    pub fn record_delivered(
        &mut self,
        id: MessageId,
        node: NodeId,
        created_at: SimTime,
        now: SimTime,
    ) -> bool {
        if !self.delivered_pairs.insert((id, node)) {
            return false;
        }
        if self.is_expected(id, node) {
            self.latency_sum_secs += now.duration_since(created_at).as_secs();
        }
        true
    }

    /// Whether `node` is in `id`'s expected destination set.
    fn is_expected(&self, id: MessageId, node: NodeId) -> bool {
        self.expected_dests
            .get(&id)
            .is_some_and(|set| set.contains(&node))
    }

    /// Whether `(id, node)` has already been delivered.
    #[must_use]
    pub fn is_delivered(&self, id: MessageId, node: NodeId) -> bool {
        self.delivered_pairs.contains(&(id, node))
    }

    /// Number of `(message, node)` pairs delivered, expected and bonus
    /// alike.
    #[must_use]
    pub fn delivered_count(&self) -> usize {
        self.delivered_pairs.len()
    }

    /// Records a completed relay transfer of `bytes`.
    pub fn record_relay(&mut self, bytes: u64) {
        self.relays_completed += 1;
        self.relay_bytes += bytes;
    }

    /// Records `n` buffer evictions.
    pub fn record_evictions(&mut self, n: usize) {
        self.buffer_evictions += n as u64;
    }

    /// Appends a sample to the named time series.
    pub fn push_sample(&mut self, series: &str, t: SimTime, value: f64) {
        self.series
            .entry(series.to_owned())
            .or_default()
            .push((t.as_secs(), value));
    }

    /// Captures the collector's full state for a snapshot. Hash-based sets
    /// and maps are emitted sorted so the image is deterministic.
    #[must_use]
    pub fn export_state(&self) -> StatsState {
        let mut expected_dests: Vec<(MessageId, Vec<NodeId>)> = self
            .expected_dests
            .iter()
            .map(|(&id, set)| {
                let mut dests: Vec<NodeId> = set.iter().copied().collect();
                dests.sort_unstable();
                (id, dests)
            })
            .collect();
        expected_dests.sort_unstable_by_key(|&(id, _)| id);
        let mut priority_of: Vec<(MessageId, Priority)> =
            self.priority_of.iter().map(|(&id, &p)| (id, p)).collect();
        priority_of.sort_unstable_by_key(|&(id, _)| id);
        let mut delivered_pairs: Vec<(MessageId, NodeId)> =
            self.delivered_pairs.iter().copied().collect();
        delivered_pairs.sort_unstable();
        StatsState {
            expected_dests,
            priority_of,
            delivered_pairs,
            latency_sum_secs: self.latency_sum_secs,
            relays_completed: self.relays_completed,
            relay_bytes: self.relay_bytes,
            buffer_evictions: self.buffer_evictions,
            series: self.series.clone(),
        }
    }

    /// Overwrites the collector's state from a snapshot.
    pub fn import_state(&mut self, state: &StatsState) {
        self.expected_dests = state
            .expected_dests
            .iter()
            .map(|(id, dests)| (*id, dests.iter().copied().collect()))
            .collect();
        self.priority_of = state.priority_of.iter().copied().collect();
        self.delivered_pairs = state.delivered_pairs.iter().copied().collect();
        self.latency_sum_secs = state.latency_sum_secs;
        self.relays_completed = state.relays_completed;
        self.relay_bytes = state.relay_bytes;
        self.buffer_evictions = state.buffer_evictions;
        self.series = state.series.clone();
    }

    /// Finalizes the run into a summary, computing every delivery tally
    /// from the expected sets, the priorities and the delivered pairs.
    /// `created`, the kernel event counts (`transfers_aborted`,
    /// `transfers_retried`, `transfers_resumed`, `transfers_abandoned`,
    /// `ttl_expiries`) and `depleted_nodes` are left zero: the collector
    /// does not keep them, and the kernel fills them in at finalization
    /// from its counters and energy meter.
    #[must_use]
    pub fn summarize(&self) -> RunSummary {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        // (expected, delivered) pairs per priority level, with a level for
        // every priority a message was created at.
        let mut per_level: BTreeMap<u8, (u64, u64)> = BTreeMap::new();
        for (id, p) in &self.priority_of {
            let expected = self.expected_dests.get(id).map_or(0, |set| set.len());
            per_level.entry(p.level()).or_default().0 += expected as u64;
        }
        let mut delivered_expected = 0;
        let mut messages_with_delivery = FxHashSet::default();
        for &(id, node) in &self.delivered_pairs {
            messages_with_delivery.insert(id);
            if self.is_expected(id, node) {
                delivered_expected += 1;
                if let Some(p) = self.priority_of.get(&id) {
                    per_level.entry(p.level()).or_default().1 += 1;
                }
            }
        }
        let expected_pairs = per_level.values().map(|&(expected, _)| expected).sum();
        RunSummary {
            created: 0,
            expected_pairs,
            delivered_pairs: delivered_expected,
            bonus_deliveries: self.delivered_pairs.len() as u64 - delivered_expected,
            messages_with_delivery: messages_with_delivery.len() as u64,
            delivery_ratio: ratio(delivered_expected, expected_pairs),
            delivery_ratio_by_priority: per_level
                .into_iter()
                .map(|(level, (expected, delivered))| (level, ratio(delivered, expected)))
                .collect(),
            mean_latency_secs: if delivered_expected == 0 {
                0.0
            } else {
                self.latency_sum_secs / delivered_expected as f64
            },
            latency_count: delivered_expected,
            relays_completed: self.relays_completed,
            relay_bytes: self.relay_bytes,
            transfers_aborted: 0,
            transfers_retried: 0,
            transfers_resumed: 0,
            transfers_abandoned: 0,
            buffer_evictions: self.buffer_evictions,
            ttl_expiries: 0,
            depleted_nodes: 0,
            series: self.series.clone(),
        }
    }
}

/// The full dynamic state of a [`StatsCollector`], with hash-based
/// containers flattened into sorted vectors for a deterministic image.
/// Each fact appears once: the delivery tallies of a [`RunSummary`] are
/// derived from these on demand, and the kernel event counts live in the
/// snapshot's [`KernelCounters`](crate::metrics::KernelCounters).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsState {
    /// Expected destination sets, sorted by message id (inner sorted).
    pub expected_dests: Vec<(MessageId, Vec<NodeId>)>,
    /// Message priorities, sorted by message id.
    pub priority_of: Vec<(MessageId, Priority)>,
    /// Delivered `(message, destination)` pairs, sorted.
    pub delivered_pairs: Vec<(MessageId, NodeId)>,
    /// Sum of first-delivery latencies of expected pairs, seconds, in
    /// delivery order.
    pub latency_sum_secs: f64,
    /// Completed relay transfers.
    pub relays_completed: u64,
    /// Bytes moved by completed transfers.
    pub relay_bytes: u64,
    /// Buffer evictions.
    pub buffer_evictions: u64,
    /// Named time series.
    pub series: BTreeMap<String, Vec<(f64, f64)>>,
}

impl RunSummary {
    /// Averages several run summaries (one per seed) field-wise.
    ///
    /// Three aggregation rules keep cross-seed means honest:
    ///
    /// * **Latency** is weighted by each run's delivery count
    ///   (`latency_count`); delivery-free runs carry no weight instead of
    ///   dragging the mean toward 0.0.
    /// * **Per-priority delivery ratios** average only over runs that
    ///   actually created messages at that priority — a level absent from
    ///   a run means "nothing to deliver", not "delivered none".
    /// * **Series** sampled on the same time grid are averaged point-wise.
    ///   Misaligned series are resampled (linear interpolation) onto the
    ///   common time grid and then averaged; if the runs share no
    ///   overlapping time range at all, the first run's series is kept but
    ///   renamed with a `:seed0` suffix so a plot can never pass off n=1
    ///   data as a cross-seed mean.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    #[must_use]
    pub fn mean_of(runs: &[RunSummary]) -> RunSummary {
        assert!(!runs.is_empty(), "cannot average zero runs");
        let n = runs.len() as f64;
        let mean_u = |f: fn(&RunSummary) -> u64| {
            (runs.iter().map(|r| f(r) as f64).sum::<f64>() / n).round() as u64
        };
        let mean_f = |f: fn(&RunSummary) -> f64| runs.iter().map(f).sum::<f64>() / n;

        // Delivery-count-weighted latency: a seed with one delivery must
        // not pull as hard as a seed with 500, and a zero-delivery seed
        // (latency 0.0 by convention) must not pull at all.
        let total_latency_count: u64 = runs.iter().map(|r| r.latency_count).sum();
        let mean_latency_secs = if total_latency_count == 0 {
            0.0
        } else {
            runs.iter()
                .map(|r| r.mean_latency_secs * r.latency_count as f64)
                .sum::<f64>()
                / total_latency_count as f64
        };

        let mut by_priority: BTreeMap<u8, f64> = BTreeMap::new();
        for level in runs
            .iter()
            .flat_map(|r| r.delivery_ratio_by_priority.keys().copied())
            .collect::<std::collections::BTreeSet<u8>>()
        {
            // Only runs that created messages at this level participate:
            // `summarize` emits a per-priority entry exactly when the run
            // created traffic there, so key presence is the created-at-
            // this-level signal.
            let ratios: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.delivery_ratio_by_priority.get(&level).copied())
                .collect();
            if !ratios.is_empty() {
                let v = ratios.iter().sum::<f64>() / ratios.len() as f64;
                by_priority.insert(level, v);
            }
        }

        let mut series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for name in runs
            .iter()
            .flat_map(|r| r.series.keys().cloned())
            .collect::<std::collections::BTreeSet<String>>()
        {
            let with_series: Vec<&Vec<(f64, f64)>> = runs
                .iter()
                .filter_map(|r| r.series.get(&name))
                .filter(|s| !s.is_empty())
                .collect();
            let Some(first) = with_series.first() else {
                continue;
            };
            if with_series.len() == 1 {
                series.insert(name, (*first).clone());
                continue;
            }
            let aligned = with_series.windows(2).all(|w| w[0].len() == w[1].len())
                && with_series
                    .iter()
                    .all(|s| s.iter().zip(first.iter()).all(|(a, b)| a.0 == b.0));
            if aligned {
                let len = first.len();
                let mut avg = Vec::with_capacity(len);
                for i in 0..len {
                    let t = first[i].0;
                    let v =
                        with_series.iter().map(|s| s[i].1).sum::<f64>() / with_series.len() as f64;
                    avg.push((t, v));
                }
                series.insert(name, avg);
            } else if let Some(resampled) = resample_mean(&with_series) {
                series.insert(name, resampled);
            } else {
                // No overlapping time range: nothing can honestly be
                // averaged. Keep the first run's data but label it as a
                // single seed's series, never as the mean.
                series.insert(format!("{name}:seed0"), (*first).clone());
            }
        }

        RunSummary {
            created: mean_u(|r| r.created),
            expected_pairs: mean_u(|r| r.expected_pairs),
            delivered_pairs: mean_u(|r| r.delivered_pairs),
            bonus_deliveries: mean_u(|r| r.bonus_deliveries),
            messages_with_delivery: mean_u(|r| r.messages_with_delivery),
            delivery_ratio: mean_f(|r| r.delivery_ratio),
            delivery_ratio_by_priority: by_priority,
            mean_latency_secs,
            latency_count: total_latency_count,
            relays_completed: mean_u(|r| r.relays_completed),
            relay_bytes: mean_u(|r| r.relay_bytes),
            transfers_aborted: mean_u(|r| r.transfers_aborted),
            transfers_retried: mean_u(|r| r.transfers_retried),
            transfers_resumed: mean_u(|r| r.transfers_resumed),
            transfers_abandoned: mean_u(|r| r.transfers_abandoned),
            buffer_evictions: mean_u(|r| r.buffer_evictions),
            ttl_expiries: mean_u(|r| r.ttl_expiries),
            depleted_nodes: mean_u(|r| r.depleted_nodes),
            series,
        }
    }
}

/// Averages misaligned time series by resampling each onto their common
/// time grid (the union of sample times clipped to the overlapping range)
/// with linear interpolation. Returns `None` when the series share no
/// overlapping range (or any series is empty).
///
/// Each input must be sorted by time, which holds for everything
/// [`StatsCollector::push_sample`] records (simulation time is monotonic).
fn resample_mean(series: &[&Vec<(f64, f64)>]) -> Option<Vec<(f64, f64)>> {
    if series.iter().any(|s| s.is_empty()) {
        return None;
    }
    let start = series
        .iter()
        .map(|s| s[0].0)
        .fold(f64::NEG_INFINITY, f64::max);
    let end = series
        .iter()
        .map(|s| s[s.len() - 1].0)
        .fold(f64::INFINITY, f64::min);
    if start > end {
        return None;
    }
    let mut grid: Vec<f64> = series
        .iter()
        .flat_map(|s| s.iter().map(|&(t, _)| t))
        .filter(|&t| t >= start && t <= end)
        .collect();
    grid.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    grid.dedup();
    let mean = grid
        .iter()
        .map(|&t| {
            let v = series.iter().map(|s| interpolate_at(s, t)).sum::<f64>() / series.len() as f64;
            (t, v)
        })
        .collect();
    Some(mean)
}

/// Linear interpolation of a time-sorted series at `t` (exact hits return
/// the sample; `t` is expected to be within the series' time range).
fn interpolate_at(series: &[(f64, f64)], t: f64) -> f64 {
    match series.binary_search_by(|&(st, _)| st.partial_cmp(&t).expect("finite sample times")) {
        Ok(i) => series[i].1,
        Err(i) => {
            if i == 0 {
                series[0].1
            } else if i >= series.len() {
                series[series.len() - 1].1
            } else {
                let (t0, v0) = series[i - 1];
                let (t1, v1) = series[i];
                let span = t1 - t0;
                if span <= 0.0 {
                    v0
                } else {
                    v0 + (v1 - v0) * (t - t0) / span
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn delivery_ratio_counts_expected_pairs_once() {
        let mut s = StatsCollector::new();
        s.record_created(MessageId(1), Priority::High, [NodeId(1), NodeId(2)]);
        assert!(s.record_delivered(MessageId(1), NodeId(1), t(0.0), t(10.0)));
        assert!(
            !s.record_delivered(MessageId(1), NodeId(1), t(0.0), t(20.0)),
            "duplicate"
        );
        let sum = s.summarize();
        assert_eq!(sum.expected_pairs, 2);
        assert_eq!(sum.delivered_pairs, 1);
        assert_eq!(sum.delivery_ratio, 0.5);
        assert_eq!(sum.mean_latency_secs, 10.0);
        assert_eq!(sum.messages_with_delivery, 1);
    }

    #[test]
    fn unexpected_deliveries_counted_separately() {
        let mut s = StatsCollector::new();
        s.record_created(MessageId(1), Priority::Low, [NodeId(1)]);
        s.record_delivered(MessageId(1), NodeId(9), t(0.0), t(5.0));
        let sum = s.summarize();
        assert_eq!(sum.delivered_pairs, 0);
        assert_eq!(sum.bonus_deliveries, 1);
        assert_eq!(sum.delivery_ratio, 0.0);
        assert_eq!(
            sum.mean_latency_secs, 0.0,
            "bonus deliveries excluded from latency"
        );
    }

    #[test]
    fn per_priority_ratios() {
        let mut s = StatsCollector::new();
        s.record_created(MessageId(1), Priority::High, [NodeId(1), NodeId(2)]);
        s.record_created(MessageId(2), Priority::Low, [NodeId(3)]);
        s.record_delivered(MessageId(1), NodeId(1), t(0.0), t(1.0));
        s.record_delivered(MessageId(1), NodeId(2), t(0.0), t(2.0));
        let sum = s.summarize();
        assert_eq!(sum.delivery_ratio_by_priority[&1], 1.0);
        assert_eq!(sum.delivery_ratio_by_priority[&3], 0.0);
    }

    #[test]
    fn traffic_counters() {
        let mut s = StatsCollector::new();
        s.record_relay(1000);
        s.record_relay(500);
        s.record_evictions(3);
        let sum = s.summarize();
        assert_eq!(sum.relays_completed, 2);
        assert_eq!(sum.relay_bytes, 1500);
        assert_eq!(sum.buffer_evictions, 3);
    }

    /// `DTNSNAP v3` bodies carry `StatsState` with these keys in this
    /// order, one per fact: adding, dropping or moving one changes the
    /// wire shape and needs a `FORMAT_VERSION` bump. The delivery tallies
    /// and the kernel event counts are deliberately absent (derived, and
    /// owned by the counters).
    #[test]
    fn stats_state_keys_are_pinned() {
        let doc = serde::Serialize::to_value(&StatsCollector::new().export_state());
        let keys: Vec<&str> = doc
            .as_map()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "expected_dests",
                "priority_of",
                "delivered_pairs",
                "latency_sum_secs",
                "relays_completed",
                "relay_bytes",
                "buffer_evictions",
                "series",
            ]
        );
    }

    /// The first delivery of a `(message, node)` pair wins; later ones
    /// are refused, and other pairs are independent.
    #[test]
    fn first_delivery_wins_later_deliveries_lose() {
        let mut s = StatsCollector::new();
        s.record_created(MessageId(1), Priority::High, [NodeId(2)]);
        assert_eq!(s.delivered_count(), 0);
        assert!(s.record_delivered(MessageId(1), NodeId(2), t(0.0), t(1.0)));
        assert!(
            !s.record_delivered(MessageId(1), NodeId(2), t(0.0), t(2.0)),
            "second deliverer unpaid"
        );
        assert!(
            s.record_delivered(MessageId(1), NodeId(3), t(0.0), t(3.0)),
            "other destination independent"
        );
        assert!(
            s.record_delivered(MessageId(2), NodeId(2), t(0.0), t(4.0)),
            "other message independent"
        );
        assert!(s.is_delivered(MessageId(1), NodeId(2)));
        assert_eq!(s.delivered_count(), 3);
    }

    /// Redelivery regression: a retried transfer can deliver the same
    /// message to the same destination again (possibly via a different
    /// deliverer). However many times it arrives, only the first counts,
    /// and the summary and snapshot image stay those of one delivery.
    #[test]
    fn redelivered_copies_never_count_twice() {
        let mut s = StatsCollector::new();
        s.record_created(MessageId(7), Priority::Low, [NodeId(1)]);
        assert!(s.record_delivered(MessageId(7), NodeId(1), t(0.0), t(5.0)));
        let once = (s.summarize(), s.export_state());
        for redelivery in 0..5 {
            assert!(
                !s.record_delivered(
                    MessageId(7),
                    NodeId(1),
                    t(0.0),
                    t(6.0 + f64::from(redelivery))
                ),
                "redelivered copy must not count again"
            );
        }
        assert_eq!(s.delivered_count(), 1, "exactly one delivery recorded");
        assert_eq!((s.summarize(), s.export_state()), once);
        assert_eq!(once.0.mean_latency_secs, 5.0);
    }

    /// Every tally of the summary is derived from the expected sets, the
    /// priorities and the delivered pairs, so a restored collector reports
    /// exactly what the original did.
    #[test]
    fn summary_survives_an_export_import_round_trip() {
        let mut s = StatsCollector::new();
        s.record_created(MessageId(1), Priority::High, [NodeId(1), NodeId(2)]);
        s.record_created(MessageId(2), Priority::Low, []);
        s.record_created(MessageId(3), Priority::Low, [NodeId(4)]);
        s.record_delivered(MessageId(1), NodeId(1), t(0.0), t(3.0));
        s.record_delivered(MessageId(1), NodeId(9), t(0.0), t(4.0));
        s.record_delivered(MessageId(3), NodeId(4), t(1.0), t(8.0));
        let sum = s.summarize();
        assert_eq!(sum.expected_pairs, 3);
        assert_eq!(sum.delivered_pairs, 2);
        assert_eq!(sum.bonus_deliveries, 1);
        assert_eq!(sum.messages_with_delivery, 2);
        assert_eq!(sum.latency_count, 2);
        assert_eq!(sum.mean_latency_secs, 5.0);
        assert_eq!(sum.delivery_ratio_by_priority[&Priority::High.level()], 0.5);
        assert_eq!(sum.delivery_ratio_by_priority[&Priority::Low.level()], 1.0);
        let mut restored = StatsCollector::new();
        restored.import_state(&s.export_state());
        assert_eq!(restored.summarize(), sum);
    }

    #[test]
    fn zero_expected_pairs_yields_zero_ratio() {
        let s = StatsCollector::new();
        assert_eq!(s.summarize().delivery_ratio, 0.0);
    }

    #[test]
    fn mean_latency_weights_by_delivery_count() {
        // Run a: one delivery at 10 s. Run b: three deliveries at 2 s each.
        let mut a = StatsCollector::new();
        a.record_created(MessageId(1), Priority::High, [NodeId(1)]);
        a.record_delivered(MessageId(1), NodeId(1), t(0.0), t(10.0));
        let mut b = StatsCollector::new();
        b.record_created(
            MessageId(1),
            Priority::High,
            [NodeId(1), NodeId(2), NodeId(3)],
        );
        for node in [NodeId(1), NodeId(2), NodeId(3)] {
            b.record_delivered(MessageId(1), node, t(0.0), t(2.0));
        }
        let sa = a.summarize();
        let sb = b.summarize();
        assert_eq!(sa.latency_count, 1);
        assert_eq!(sb.latency_count, 3);
        let avg = RunSummary::mean_of(&[sa, sb]);
        // Weighted: (10·1 + 2·3) / 4 = 4.0 — not the unweighted (10+2)/2.
        assert_eq!(avg.mean_latency_secs, 4.0);
        assert_eq!(avg.latency_count, 4);
    }

    #[test]
    fn delivery_free_runs_carry_no_latency_weight() {
        let mut a = StatsCollector::new();
        a.record_created(MessageId(1), Priority::High, [NodeId(1)]);
        a.record_delivered(MessageId(1), NodeId(1), t(0.0), t(8.0));
        let mut b = StatsCollector::new();
        b.record_created(MessageId(1), Priority::High, [NodeId(1)]);
        // b delivers nothing: its 0.0 "latency" must not drag the mean.
        let avg = RunSummary::mean_of(&[a.summarize(), b.summarize()]);
        assert_eq!(avg.mean_latency_secs, 8.0);
        // All runs delivery-free → mean stays the 0.0 convention.
        let mut c = StatsCollector::new();
        c.record_created(MessageId(1), Priority::Low, [NodeId(1)]);
        let empty = RunSummary::mean_of(&[c.summarize()]);
        assert_eq!(empty.mean_latency_secs, 0.0);
        assert_eq!(empty.latency_count, 0);
    }

    #[test]
    fn absent_priority_levels_are_excluded_not_zeroed() {
        // Run a created only High traffic (fully delivered); run b created
        // only Low traffic. Neither run's missing level may count as 0.0.
        let mut a = StatsCollector::new();
        a.record_created(MessageId(1), Priority::High, [NodeId(1)]);
        a.record_delivered(MessageId(1), NodeId(1), t(0.0), t(1.0));
        let mut b = StatsCollector::new();
        b.record_created(MessageId(2), Priority::Low, [NodeId(2)]);
        let avg = RunSummary::mean_of(&[a.summarize(), b.summarize()]);
        assert_eq!(
            avg.delivery_ratio_by_priority[&Priority::High.level()],
            1.0,
            "only run a created High traffic, so its ratio stands alone"
        );
        assert_eq!(avg.delivery_ratio_by_priority[&Priority::Low.level()], 0.0);
    }

    #[test]
    fn misaligned_series_resample_onto_common_grid() {
        // a samples v=t at t ∈ {0, 60, 120}; b samples v=t at t ∈ {0, 30, 60}.
        let mut a = StatsCollector::new();
        let mut b = StatsCollector::new();
        for secs in [0.0, 60.0, 120.0] {
            a.push_sample("load", t(secs), secs);
        }
        for secs in [0.0, 30.0, 60.0] {
            b.push_sample("load", t(secs), secs);
        }
        let avg = RunSummary::mean_of(&[a.summarize(), b.summarize()]);
        // Common range [0, 60], union grid {0, 30, 60}; both series are the
        // identity there, so the mean is the identity too — crucially with
        // *both* runs contributing, not just the first.
        assert_eq!(
            avg.series["load"],
            vec![(0.0, 0.0), (30.0, 30.0), (60.0, 60.0)]
        );
    }

    #[test]
    fn disjoint_series_are_tagged_not_passed_off_as_means() {
        let mut a = StatsCollector::new();
        a.push_sample("rating", t(0.0), 1.0);
        a.push_sample("rating", t(10.0), 2.0);
        let mut b = StatsCollector::new();
        b.push_sample("rating", t(100.0), 9.0);
        b.push_sample("rating", t(110.0), 9.5);
        let avg = RunSummary::mean_of(&[a.summarize(), b.summarize()]);
        assert!(
            !avg.series.contains_key("rating"),
            "no honest mean exists for disjoint time ranges"
        );
        assert_eq!(
            avg.series["rating:seed0"],
            vec![(0.0, 1.0), (10.0, 2.0)],
            "first seed's data survives, clearly labelled as n=1"
        );
    }

    #[test]
    fn interpolation_is_linear_between_samples() {
        let s = vec![(0.0, 0.0), (10.0, 100.0)];
        assert_eq!(super::interpolate_at(&s, 0.0), 0.0);
        assert_eq!(super::interpolate_at(&s, 2.5), 25.0);
        assert_eq!(super::interpolate_at(&s, 10.0), 100.0);
    }

    #[test]
    fn mean_of_averages_fields_and_aligned_series() {
        let mut a = StatsCollector::new();
        a.record_created(MessageId(1), Priority::High, [NodeId(1)]);
        a.record_delivered(MessageId(1), NodeId(1), t(0.0), t(4.0));
        a.push_sample("rating", t(60.0), 4.0);
        let mut b = StatsCollector::new();
        b.record_created(MessageId(1), Priority::High, [NodeId(1)]);
        b.push_sample("rating", t(60.0), 2.0);
        let avg = RunSummary::mean_of(&[a.summarize(), b.summarize()]);
        assert_eq!(avg.delivery_ratio, 0.5);
        assert_eq!(avg.series["rating"], vec![(60.0, 3.0)]);
    }
}
