//! Gates on the benchmark itself: tracing must not perturb a run, and the
//! metrics a run produces must be exactly the ones `BENCHMARK.json`
//! declares.

use dtn_workloads::paper::reduced_scenario;
use dtn_workloads::runner::run_once;
use dtn_workloads::scenario::{Arm, Scenario};

use crate::report::{self, e2e_samples, in_declared_order, layer_values};
use crate::traced;
use crate::workloads::{run_digest, run_rep, Scale, Workload, DEFAULT_SEED};

/// 20 nodes, 900 s, with chaos, recovery and strategies.
fn small_hostile_world() -> Scenario {
    let mut s = reduced_scenario().named("non-perturbation");
    s.nodes = 20;
    s.area_km2 = 0.2;
    s.duration_secs = 900.0;
    s.message_interval_secs = 20.0;
    s.message_ttl_secs = 600.0;
    s.chaos = Some("loss=0.15,cut=4,cutdown=30".parse().expect("chaos spec"));
    s.recovery = Some(dtn_sim::transfer::RecoveryPolicy::default());
    s.strategies = Some(
        "free=0.2,white=0.1,minority=0.1,defense"
            .parse()
            .expect("strategy spec"),
    );
    s
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let s = small_hostile_world();
    let plain = run_once(&s, Arm::Incentive, 7);
    let trace = traced::run_kernel(&s, Arm::Incentive, 7, true);
    assert_eq!(
        trace.summary, plain.summary,
        "RunSummary differs under tracing"
    );
    assert_eq!(
        trace.protocol, plain.protocol,
        "ProtocolStats differ under tracing"
    );
    assert!(
        trace.outcome.violations.is_empty(),
        "{:?}",
        trace.outcome.violations
    );
    let plain_json = serde_json::to_string(&(&plain.summary, &plain.protocol)).unwrap();
    let traced_json = serde_json::to_string(&(&trace.summary, &trace.protocol)).unwrap();
    assert_eq!(plain_json, traced_json, "byte-identical outputs");
    assert_eq!(
        trace.outcome.digest,
        run_digest(&plain.summary, &plain.protocol, trace.outcome.events)
    );
    assert!(
        plain.summary.relays_completed > 0,
        "the world does some work"
    );
}

#[test]
fn smoke_pass_emits_exactly_the_declared_metrics() {
    let spec = report::spec();
    for w in Workload::ALL {
        let untraced = run_rep(w, DEFAULT_SEED, Scale::Smoke);
        let e2e = e2e_samples(w, &untraced, |t| t.ref_s);
        let ordered = in_declared_order(&spec.end_to_end, &e2e)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        for (m, v) in &ordered {
            assert!(v.is_finite() && *v > 0.0, "{} {} = {v}", w.name(), m.name);
        }
        let traced = traced::run_traced(w, DEFAULT_SEED, Scale::Smoke);
        assert_eq!(
            traced.digest,
            untraced.digest,
            "{}: traced digest",
            w.name()
        );
        assert!(traced.violations.is_empty(), "{:?}", traced.violations);
        let layers = layer_values(&traced, &[untraced]);
        in_declared_order(&spec.per_layer, &layers).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
}

#[test]
fn workload_names_match_the_declaration() {
    let declared: serde::Value = serde_json::from_str(report::BENCHMARK_JSON).unwrap();
    let names: Vec<String> = declared
        .get("workloads")
        .and_then(serde::Value::as_seq)
        .unwrap()
        .iter()
        .filter_map(|w| match w.get("name") {
            Some(serde::Value::Str(n)) => Some(n.clone()),
            _ => None,
        })
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(names, ours);
}
