//! Cross-router conformance suite for the (backend × overlay) grid.
//!
//! The `RouterBackend` seam lets the incentive overlay wrap any routing
//! substrate. This suite is the proof that the generalisation changed
//! nothing and broke nothing:
//!
//! * every grid cell survives a chaos run with the invariant audit on and
//!   reports a finite delivery ratio in `[0, 1]`;
//! * the ChitChat-backend cells reproduce the paper's two `Arm` runs
//!   byte-for-byte (the golden suite pins the arms themselves);
//! * the grid enumeration is compile-time exhaustive — a new router
//!   variant fails the build until the grid grows with it;
//! * a proptest sweep over contact interleavings (random cut/loss regimes,
//!   random backend, random overlay) keeps the audit green everywhere.

use dtn_integration_tests::fast_scenario;
use dtn_sim::faults::FaultPlan;
use dtn_workloads::prelude::*;
use dtn_workloads::runner::{build_world, run_to_horizon};
use proptest::prelude::*;

/// Audit cadence: every 15 simulated steps (same as the chaos suite).
const AUDIT_EVERY: u64 = 15;

/// Runs one grid cell, auditing every `audit_every` steps when set.
fn run_cell(
    s: &Scenario,
    kind: BackendKind,
    overlay: Overlay,
    seed: u64,
    audit_every: Option<u64>,
) -> ArmRun {
    let s = Scenario {
        audit_every,
        ..s.clone()
    };
    run(
        &RunSpec::new(&s, kind, overlay, seed),
        &Instrument::default(),
    )
    .0
}

/// A grid-sized world: Table 5.1 density, 16 nodes, 15 simulated minutes —
/// small enough that the full 12-cell grid stays in test-suite budget,
/// large enough that every backend actually relays.
fn grid_scenario() -> Scenario {
    let mut s = fast_scenario();
    s.nodes = 16;
    s.area_km2 = 0.16;
    s.duration_secs = 900.0;
    s.message_ttl_secs = 700.0;
    s.named("router-grid")
}

#[test]
fn every_grid_cell_survives_chaos_with_the_audit_on() {
    let mut s = grid_scenario();
    s.chaos = Some("cut=10,cutdown=20,loss=0.05".parse().expect("valid spec"));
    for &backend in BackendKind::ALL.iter() {
        for &overlay in Overlay::BOTH.iter() {
            let outcome = run_cell(&s, backend, overlay, 42, Some(AUDIT_EVERY));
            let ratio = outcome.summary.delivery_ratio;
            assert!(
                ratio.is_finite() && (0.0..=1.0).contains(&ratio),
                "{}+{}: delivery ratio {ratio} out of range",
                backend.tag(),
                overlay.tag()
            );
            assert!(
                outcome.summary.created > 10,
                "{}+{}: workload still generated",
                backend.tag(),
                overlay.tag()
            );
        }
    }
}

#[test]
fn chitchat_backend_reproduces_the_paper_arms_byte_for_byte() {
    // The grid's ChitChat rows ARE the paper's two arms: same world, same
    // RNG draws, same books. The golden suite pins the arms against the
    // pre-refactor fixture; this test pins the boxed backend path — every
    // `Box<dyn RouterBackend>` forwarder, the offer-keyword bound included
    // — against the statically dispatched arm path `run` takes.
    let s = Scenario {
        audit_every: Some(AUDIT_EVERY),
        ..grid_scenario()
    };
    let instrument = Instrument {
        trace_capacity: Some(1_000_000),
        profile: false,
    };
    for arm in Arm::BOTH {
        let spec = RunSpec::arm(&s, arm, 7);
        let boxed = build_world(&spec, &instrument, |chitchat| {
            BackendKind::ChitChat.instantiate(s.nodes, chitchat)
        });
        let (via_box, box_trace, _) = run_to_horizon(boxed, &spec, &instrument);
        let (via_arm, arm_trace, _) = run(&spec, &instrument);
        assert_eq!(box_trace, arm_trace, "traces diverge on {}", arm.label());
        assert_eq!(
            via_box.summary,
            via_arm.summary,
            "kernel stats diverge on {}",
            arm.label()
        );
        assert_eq!(
            via_box.protocol,
            via_arm.protocol,
            "mechanism stats diverge on {}",
            arm.label()
        );
        assert_eq!(via_box.broke_nodes, via_arm.broke_nodes);
    }
}

#[test]
fn grid_cells_replay_byte_for_byte() {
    // The determinism contract extends to every backend, not only the
    // arms: identical (scenario, backend, overlay, seed) reproduces the
    // identical run, chaos included.
    let mut s = grid_scenario();
    s.chaos = Some("cut=6,cutdown=30,loss=0.1".parse().expect("valid spec"));
    for (backend, overlay) in [
        (BackendKind::Prophet, Overlay::On),
        (BackendKind::SprayAndWait(8), Overlay::Off),
    ] {
        let a = run_cell(&s, backend, overlay, 101, Some(AUDIT_EVERY));
        let b = run_cell(&s, backend, overlay, 101, Some(AUDIT_EVERY));
        assert_eq!(a.summary, b.summary, "{}: kernel replay", backend.tag());
        assert_eq!(
            a.protocol,
            b.protocol,
            "{}: mechanism replay",
            backend.tag()
        );
    }
}

#[test]
fn relay_volumes_order_sanely_across_backends() {
    // Coarse cross-router sanity on identical workloads: flooding relays
    // strictly more than source-only delivery, and the two-hop cap sits
    // in between (inclusive — small worlds can saturate it).
    let s = grid_scenario();
    let relays = |kind| {
        run_cell(&s, kind, Overlay::Off, 5, None)
            .summary
            .relays_completed
    };
    let epidemic = relays(BackendKind::Epidemic);
    let direct = relays(BackendKind::DirectDelivery);
    let twohop = relays(BackendKind::TwoHop);
    assert!(
        epidemic > direct,
        "epidemic ({epidemic}) must out-relay direct delivery ({direct})"
    );
    assert!(
        twohop >= direct,
        "two-hop ({twohop}) cannot relay less than direct ({direct})"
    );
    assert!(
        epidemic >= twohop,
        "epidemic ({epidemic}) floods at least as much as two-hop ({twohop})"
    );
}

/// Compile-time exhaustiveness: adding a `BackendKind` variant makes this
/// match a build error until the grid (and this suite) grows with it.
fn classify(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::ChitChat => "chitchat",
        BackendKind::Epidemic => "epidemic",
        BackendKind::DirectDelivery => "direct",
        BackendKind::SprayAndWait(_) => "spray",
        BackendKind::TwoHop => "twohop",
        BackendKind::Prophet => "prophet",
    }
}

#[test]
fn the_grid_enumerates_every_backend_exactly_once() {
    for (i, kind) in BackendKind::ALL.iter().enumerate() {
        assert_eq!(kind.index(), i, "ALL and index() stay in lock step");
        assert!(!classify(*kind).is_empty());
        assert_eq!(
            BackendKind::parse(&kind.tag()).expect("tags round-trip"),
            *kind
        );
    }
    let tags: std::collections::HashSet<String> =
        BackendKind::ALL.iter().map(|k| k.tag()).collect();
    assert_eq!(tags.len(), BackendKind::ALL.len(), "tags are distinct");
}

/// The randomized sweeps' world: sub-second per run.
fn tiny_scenario() -> Scenario {
    let mut s = fast_scenario();
    s.nodes = 14;
    s.area_km2 = 0.14;
    s.duration_secs = 600.0;
    s.message_ttl_secs = 450.0;
    s.named("router-tiny")
}

/// A contact-interleaving regime: random link-cut churn plus random
/// in-flight payload loss — the fault classes that reorder and repeat the
/// contact/transfer sequence every backend hook chain runs on.
fn arb_interleaving() -> impl Strategy<Value = FaultPlan> {
    (0.0f64..24.0, 1.0f64..90.0, 0.0f64..0.35).prop_map(|(cut, cutdown, loss)| FaultPlan {
        crash_per_hour: 0.0,
        crash_down_secs: 60.0,
        crash_wipes_buffer: false,
        link_cut_per_hour: cut,
        link_cut_secs: cutdown,
        battery_spike_per_hour: 0.0,
        battery_spike_joules: 1.0,
        transfer_loss_prob: loss,
        transfer_corrupt_prob: 0.0,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any (backend, overlay) cell under any contact interleaving keeps
    /// the invariant audit green and the delivery ratio in bounds. The
    /// audit runs every step, so a breach anywhere in the hook chain
    /// (escrow tickets, predictability tables, settlement books) panics
    /// with the seed and plan.
    #[test]
    fn random_interleavings_never_breach_any_grid_cell(
        backend_idx in 0usize..BackendKind::ALL.len(),
        overlay_on in prop::bool::ANY,
        seed in 0u64..10_000,
        plan in arb_interleaving()
    ) {
        let mut s = tiny_scenario();
        plan.validate().expect("generated plans are valid");
        s.chaos = Some(plan);
        let backend = BackendKind::ALL[backend_idx];
        let overlay = if overlay_on { Overlay::On } else { Overlay::Off };
        let outcome = run_cell(&s, backend, overlay, seed, Some(1));
        let ratio = outcome.summary.delivery_ratio;
        prop_assert!(
            ratio.is_finite() && (0.0..=1.0).contains(&ratio),
            "{}+{}: ratio {} out of range",
            backend.tag(),
            overlay.tag(),
            ratio
        );
    }
}
