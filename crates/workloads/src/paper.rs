//! The paper's scenarios (Table 5.1) and per-figure sweeps.
//!
//! Every figure binary in `dtn-bench` builds its conditions from these
//! constructors. Two scales exist:
//!
//! * [`table51_scenario`] — the paper's exact configuration: 500 nodes,
//!   5 km², 24 simulated hours. Minutes of wall-clock per (arm, seed).
//! * [`reduced_scenario`] — the same node *density* (100 nodes on 1 km²)
//!   over 3 simulated hours: seconds per run, same qualitative shapes.
//!   EXPERIMENTS.md records results at this scale (and spot-checks at
//!   full scale).

use dtn_core::params::ProtocolParams;
use dtn_sim::radio::RadioConfig;

use crate::scenario::{Scenario, SourceClassMix};

/// The paper's default seeds: "results shown are average of five
/// simulation runs".
pub const PAPER_SEEDS: [u64; 5] = [101, 202, 303, 404, 505];

/// Reduced-scale seeds for quick runs (three seeds keep noise tolerable).
pub const QUICK_SEEDS: [u64; 3] = [101, 202, 303];

/// The first `n` seeds of the deterministic family behind
/// [`QUICK_SEEDS`] and [`PAPER_SEEDS`] (`101, 202, 303, …`): requesting
/// more seeds than the quick set extends the sequence instead of failing,
/// so `--seeds 8` means "average over eight seeds", not an error.
#[must_use]
pub fn seeds_for(n: usize) -> Vec<u64> {
    (1..=n as u64).map(|i| i * 101).collect()
}

/// The exact Table 5.1 configuration.
#[must_use]
pub fn table51_scenario() -> Scenario {
    Scenario {
        name: "table-5.1".into(),
        nodes: 500,
        area_km2: 5.0,
        duration_secs: 24.0 * 3600.0,
        keyword_pool: 200,
        interests_per_node: 20,
        radio: RadioConfig::paper_default(),
        buffer_bytes: 250_000_000,
        message_size: 1_000_000,
        message_ttl_secs: 5.0 * 3600.0,
        message_interval_secs: 30.0,
        ground_truth_keywords: 5,
        source_tag_fraction: 0.6,
        selfish_fraction: 0.0,
        malicious_fraction: 0.0,
        class_mix: SourceClassMix::paper_default(),
        battery_joules: None,
        mobility: crate::scenario::Mobility::RandomWaypoint,
        protocol: ProtocolParams::paper_default(),
        chaos: None,
        recovery: None,
        threads: None,
        backend: None,
        strategies: None,
        audit_every: None,
        kernel_mode: None,
    }
}

/// The reduced-scale configuration: identical node density, 100 nodes /
/// 1 km² / 3 h.
///
/// Two knobs are scaled along with the load so the reduced runs sit in the
/// same *economic regime* as the paper's 24-hour runs:
///
/// * message interval 15 s (720 messages): per-node expected receptions ≈
///   195 vs the paper's ≈ 780 — same order of demand pressure;
/// * the token endowment is scaled demand-proportionally to 75 (the paper's
///   200 tokens fund ≈ 0.26 tokens per expected reception; 75 keeps that
///   ratio at the reduced demand). Without this, tokens never exhaust in a
///   3-hour run and the starvation dynamic Fig. 5.2 measures cannot engage.
#[must_use]
pub fn reduced_scenario() -> Scenario {
    let mut s = Scenario {
        name: "reduced".into(),
        nodes: 100,
        area_km2: 1.0,
        duration_secs: 3.0 * 3600.0,
        message_ttl_secs: 3600.0,
        message_interval_secs: 15.0,
        ..table51_scenario()
    };
    s.protocol.incentive.initial_tokens = 75.0;
    s
}

/// Scale selector used by the figure binaries (`--full` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper scale (Table 5.1).
    Full,
    /// Density-preserving reduced scale.
    Reduced,
}

impl Scale {
    /// The base scenario at this scale.
    #[must_use]
    pub fn base_scenario(self) -> Scenario {
        match self {
            Scale::Full => table51_scenario(),
            Scale::Reduced => reduced_scenario(),
        }
    }

    /// The seed set customary at this scale.
    #[must_use]
    pub fn seeds(self) -> &'static [u64] {
        match self {
            Scale::Full => &PAPER_SEEDS,
            Scale::Reduced => &QUICK_SEEDS,
        }
    }
}

/// Fig. 5.1 / 5.2 sweep: selfish percentage 0–100 in steps of 10.
#[must_use]
pub fn selfish_sweep(scale: Scale) -> Vec<Scenario> {
    (0..=10)
        .map(|step| {
            let pct = step * 10;
            let mut s = scale.base_scenario();
            s.selfish_fraction = f64::from(pct) / 100.0;
            s.named(format!("selfish-{pct}pct"))
        })
        .collect()
}

/// Fig. 5.3 sweep: initial token endowments × selfish percentages.
///
/// The paper varies the Table 5.1 endowment of 200; we sweep ×0.5 / ×1 /
/// ×2 of the scale's base endowment (100/200/400 at full scale, 37.5/75/
/// 150 at reduced scale), which keeps the sweep meaningful in both
/// economic regimes.
#[must_use]
pub fn token_sweep(scale: Scale) -> Vec<(f64, Vec<Scenario>)> {
    let base_tokens = scale.base_scenario().protocol.incentive.initial_tokens;
    [0.5, 1.0, 2.0]
        .into_iter()
        .map(|mult| {
            let tokens = base_tokens * mult;
            let scenarios = [0, 20, 40, 60, 80]
                .into_iter()
                .map(|pct| {
                    let mut s = scale.base_scenario();
                    s.selfish_fraction = f64::from(pct) / 100.0;
                    s.protocol.incentive.initial_tokens = tokens;
                    s.named(format!("tokens-{tokens}-selfish-{pct}pct"))
                })
                .collect();
            (tokens, scenarios)
        })
        .collect()
}

/// Fig. 5.4 sweep: malicious percentage 10–40 in steps of 10.
#[must_use]
pub fn malicious_sweep(scale: Scale) -> Vec<Scenario> {
    (1..=4)
        .map(|step| {
            let pct = step * 10;
            let mut s = scale.base_scenario();
            s.malicious_fraction = f64::from(pct) / 100.0;
            s.named(format!("malicious-{pct}pct"))
        })
        .collect()
}

/// Fig. 5.5 sweep: user counts on the paper's fixed 5 km² area.
///
/// At full scale this is the paper's exact 500/1000/1500. The reduced
/// sweep keeps the *same 5 km² area* (not the reduced scenario's 1 km²)
/// with 100/200/300 nodes: density 20–60 nodes/km², the sparse regime
/// where extra carriers genuinely raise MDR. On the reduced 1 km² world
/// even a third of the base population saturates delivery, so sweeping
/// there would show a flat ceiling instead of the paper's rising curve.
#[must_use]
pub fn user_count_sweep(scale: Scale) -> Vec<Scenario> {
    let mut base = scale.base_scenario();
    if scale == Scale::Reduced {
        base.area_km2 = table51_scenario().area_km2;
    }
    let counts: Vec<usize> = vec![base.nodes, base.nodes * 2, base.nodes * 3];
    counts
        .into_iter()
        .map(|n| {
            let mut s = base.clone();
            s.nodes = n;
            let name = format!("users-{n}");
            s.named(name)
        })
        .collect()
}

/// Fig. 5.6 conditions: the 50/30/20 class mix at 20% and 40% selfish.
///
/// Priority-aware forwarding and eviction only matter under buffer
/// contention. At paper scale the 250 MB buffer holds ≈ 9% of the run's
/// total message volume; the reduced scenario's lighter load would leave
/// buffers one-third empty, so the reduced conditions shrink the buffer
/// to 50 MB to restore the paper's buffer-to-traffic ratio.
#[must_use]
pub fn priority_sweep(scale: Scale) -> Vec<Scenario> {
    [20, 40]
        .into_iter()
        .map(|pct| {
            let mut s = scale.base_scenario();
            s.selfish_fraction = f64::from(pct) / 100.0;
            if scale == Scale::Reduced {
                s.buffer_bytes = 50_000_000;
            }
            s.named(format!("priority-selfish-{pct}pct"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table51_matches_the_paper() {
        let s = table51_scenario();
        assert_eq!(s.nodes, 500);
        assert_eq!(s.keyword_pool, 200);
        assert_eq!(s.interests_per_node, 20);
        assert_eq!(s.radio.link_speed_bps, 250_000.0);
        assert_eq!(s.radio.range_m, 100.0);
        assert_eq!(s.buffer_bytes, 250_000_000);
        assert_eq!(s.message_size, 1_000_000);
        assert_eq!(s.area_km2, 5.0);
        assert_eq!(s.duration_secs, 86_400.0);
        assert_eq!(s.protocol.incentive.relay_threshold, 0.8);
        assert_eq!(s.protocol.incentive.initial_tokens, 200.0);
        assert_eq!(s.validate(), Ok(()));
    }

    #[test]
    fn reduced_preserves_density() {
        let full = table51_scenario();
        let red = reduced_scenario();
        let d_full = full.nodes as f64 / full.area_km2;
        let d_red = red.nodes as f64 / red.area_km2;
        assert_eq!(d_full, d_red, "node density preserved");
        assert_eq!(red.validate(), Ok(()));
    }

    #[test]
    fn sweeps_have_the_paper_shapes() {
        assert_eq!(selfish_sweep(Scale::Reduced).len(), 11);
        assert_eq!(selfish_sweep(Scale::Reduced)[3].selfish_fraction, 0.3);
        let tokens = token_sweep(Scale::Reduced);
        assert_eq!(tokens.len(), 3);
        assert_eq!(tokens[0].1.len(), 5);
        assert_eq!(malicious_sweep(Scale::Reduced).len(), 4);
        assert_eq!(malicious_sweep(Scale::Reduced)[3].malicious_fraction, 0.4);
        let users = user_count_sweep(Scale::Full);
        assert_eq!(
            users.iter().map(|s| s.nodes).collect::<Vec<_>>(),
            vec![500, 1000, 1500]
        );
        let users = user_count_sweep(Scale::Reduced);
        assert_eq!(
            users.iter().map(|s| s.nodes).collect::<Vec<_>>(),
            vec![100, 200, 300]
        );
        assert_eq!(
            users[0].area_km2, 5.0,
            "reduced fig 5.5 keeps the paper's area so density stays sparse"
        );
        assert_eq!(priority_sweep(Scale::Reduced).len(), 2);
        assert_eq!(
            priority_sweep(Scale::Reduced)[0].buffer_bytes,
            50_000_000,
            "reduced fig 5.6 restores the paper's buffer-to-traffic ratio"
        );
        assert_eq!(priority_sweep(Scale::Full)[0].buffer_bytes, 250_000_000);
        for s in selfish_sweep(Scale::Reduced) {
            assert_eq!(s.validate(), Ok(()), "{}", s.name);
        }
    }

    #[test]
    fn scales_expose_seeds() {
        assert_eq!(Scale::Full.seeds().len(), 5, "paper: five runs");
        assert_eq!(Scale::Reduced.seeds().len(), 3);
        assert_eq!(Scale::Full.base_scenario().nodes, 500);
        assert_eq!(Scale::Reduced.base_scenario().nodes, 100);
    }
}
