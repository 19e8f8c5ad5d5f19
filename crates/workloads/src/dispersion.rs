//! Across-seed dispersion statistics.
//!
//! The paper reports "the average of five simulation runs" without error
//! bars; a credible reproduction should expose the spread behind its
//! means. [`SeedStats`] aggregates the headline metrics of a seed set into
//! mean ± sample standard deviation, and [`Dispersion`] carries per-metric
//! values the figure binaries can print alongside the means.

use serde::{Deserialize, Serialize};

use dtn_sim::stats::RunSummary;

/// Mean and sample standard deviation of one metric across seeds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dispersion {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator; 0 for a single seed).
    pub std_dev: f64,
}

impl Dispersion {
    /// Computes mean ± sd of `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    #[must_use]
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "dispersion of zero values is undefined");
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let std_dev = if values.len() < 2 {
            0.0
        } else {
            let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
            var.sqrt()
        };
        Dispersion { mean, std_dev }
    }

    /// Renders as `mean ± sd` with the given precision.
    #[must_use]
    pub fn display(&self, decimals: usize) -> String {
        format!("{:.*} ± {:.*}", decimals, self.mean, decimals, self.std_dev)
    }

    /// Whether `other`'s mean lies within one combined standard deviation
    /// of this mean — the coarse "statistically indistinguishable" test
    /// the shape assertions use to avoid over-reading seed noise.
    #[must_use]
    pub fn overlaps(&self, other: &Dispersion) -> bool {
        (self.mean - other.mean).abs() <= self.std_dev + other.std_dev
    }
}

/// Headline metrics of a seed set, each with dispersion.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedStats {
    /// Number of seeds aggregated.
    pub seeds: usize,
    /// Pair-level delivery ratio.
    pub delivery_ratio: Dispersion,
    /// Completed transfers.
    pub relays_completed: Dispersion,
    /// Mean first-delivery latency, seconds.
    pub mean_latency_secs: Dispersion,
    /// Deliveries to enrichment-created (unexpected) destinations.
    pub bonus_deliveries: Dispersion,
}

impl SeedStats {
    /// Aggregates per-seed summaries.
    ///
    /// # Panics
    ///
    /// Panics if `runs` is empty.
    #[must_use]
    pub fn of(runs: &[RunSummary]) -> Self {
        assert!(!runs.is_empty(), "need at least one run");
        let pull = |f: fn(&RunSummary) -> f64| -> Dispersion {
            let values: Vec<f64> = runs.iter().map(f).collect();
            Dispersion::of(&values)
        };
        SeedStats {
            seeds: runs.len(),
            delivery_ratio: pull(|r| r.delivery_ratio),
            relays_completed: pull(|r| r.relays_completed as f64),
            mean_latency_secs: pull(|r| r.mean_latency_secs),
            bonus_deliveries: pull(|r| r.bonus_deliveries as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::reduced_scenario;
    use crate::runner::run_seeds;
    use crate::scenario::Arm;

    #[test]
    fn dispersion_hand_computed() {
        let d = Dispersion::of(&[2.0, 4.0, 6.0]);
        assert_eq!(d.mean, 4.0);
        assert!((d.std_dev - 2.0).abs() < 1e-12, "sample sd of 2,4,6 is 2");
        assert_eq!(d.display(1), "4.0 ± 2.0");
    }

    #[test]
    fn single_value_has_zero_spread() {
        let d = Dispersion::of(&[7.5]);
        assert_eq!(d.mean, 7.5);
        assert_eq!(d.std_dev, 0.0);
    }

    #[test]
    fn overlap_test_is_symmetric() {
        let a = Dispersion {
            mean: 10.0,
            std_dev: 1.0,
        };
        let b = Dispersion {
            mean: 11.5,
            std_dev: 1.0,
        };
        let c = Dispersion {
            mean: 20.0,
            std_dev: 1.0,
        };
        assert!(a.overlaps(&b) && b.overlaps(&a));
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
    }

    #[test]
    #[should_panic(expected = "zero values")]
    fn empty_dispersion_panics() {
        let _ = Dispersion::of(&[]);
    }

    #[test]
    fn seed_stats_from_real_runs() {
        let mut s = reduced_scenario();
        s.nodes = 15;
        s.area_km2 = 0.15;
        s.duration_secs = 900.0;
        s.message_ttl_secs = 600.0;
        let s = s.named("dispersion");
        let runs = run_seeds(&s, Arm::ChitChat, &[1, 2, 3]);
        let stats = SeedStats::of(&runs);
        assert_eq!(runs.len(), 3);
        assert_eq!(stats.seeds, 3);
        assert!((0.0..=1.0).contains(&stats.delivery_ratio.mean));
        assert!(stats.delivery_ratio.std_dev >= 0.0);
        // The mean must equal the plain mean_of aggregate's ratio field.
        let plain = RunSummary::mean_of(&runs);
        assert!((plain.delivery_ratio - stats.delivery_ratio.mean).abs() < 1e-12);
    }

    #[test]
    fn display_rounds_to_the_requested_decimals() {
        let d = Dispersion::of(&[1.0, 2.0, 4.0]);
        assert_eq!(d.display(2), "2.33 ± 1.53");
        assert_eq!(d.display(0), "2 ± 2");
        assert_eq!(Dispersion::of(&[0.5]).display(1), "0.5 ± 0.0");
    }

    #[test]
    #[should_panic(expected = "dispersion of zero values is undefined")]
    fn dispersion_of_nothing_panics() {
        let _ = Dispersion::of(&[]);
    }
}
