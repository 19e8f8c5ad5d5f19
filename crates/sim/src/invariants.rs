//! Cross-cutting invariant checking.
//!
//! With [`crate::kernel::SimulationBuilder::check_invariants_every`] the
//! kernel audits conservation properties while a run is in flight — at the
//! end of every step whose count is a multiple of the cadence, and once at
//! the end of the run — instead of only asserting on final summaries. The
//! step count is the audit's clock, so a restored world audits at the
//! steps the uninterrupted one does. The kernel-owned checks live in
//! [`kernel_invariants`]; protocols add their own (token conservation,
//! rating bounds, …) via [`crate::protocol::Protocol::check_invariants`].
//! On a breach the kernel panics with a [`format_breach`] report carrying
//! everything needed to replay the run: the seed, the fault-plan spec, and
//! a bounded excerpt of the event trace.

use std::fmt::Write as _;

use crate::faults::FaultPlan;
use crate::kernel::SimApi;
use crate::time::SimTime;

/// How many trailing trace lines a breach report includes.
const TRACE_TAIL_LINES: usize = 20;

/// The kernel-owned invariant audit. Returns one human-readable line per
/// violation (empty = healthy).
///
/// Checked per node: buffer occupancy never exceeds capacity and matches
/// the sum of buffered copy sizes; the copy count reconciles with the
/// buffer's lifetime insert/remove counters; every buffered copy has a
/// registered message body; energy use is finite and non-negative; battery
/// remaining stays within `[0, budget]`; the position lies inside the world
/// area. Checked globally: transfer-engine byte conservation (every
/// in-flight offset and recovery checkpoint within `[0, bytes_total]`),
/// plus the incremental indexes — contact adjacency lists vs the active
/// contact set, and the batched transfer stepper's active-sender index
/// vs the queues it summarises.
#[must_use]
pub fn kernel_invariants(api: &SimApi) -> Vec<String> {
    let mut violations = api.transfer_byte_audit();
    violations.extend(api.index_audit());
    let budget = api.battery_budget();
    for node in api.node_ids() {
        let buf = api.buffer(node);
        if buf.used_bytes() > buf.capacity_bytes() {
            violations.push(format!(
                "{node}: buffer over capacity ({} > {} bytes)",
                buf.used_bytes(),
                buf.capacity_bytes()
            ));
        }
        let recomputed: u64 = buf
            .iter()
            .map(crate::message::MessageCopy::size_bytes)
            .sum();
        if recomputed != buf.used_bytes() {
            violations.push(format!(
                "{node}: buffer byte accounting drifted (recomputed {recomputed}, tracked {})",
                buf.used_bytes()
            ));
        }
        match buf.lifetime_stored().checked_sub(buf.lifetime_removed()) {
            Some(live) if live == buf.len() as u64 => {}
            Some(live) => violations.push(format!(
                "{node}: copy accounting drifted (stored-removed={live}, buffered {})",
                buf.len()
            )),
            None => violations.push(format!(
                "{node}: removed more copies than were ever stored ({} > {})",
                buf.lifetime_removed(),
                buf.lifetime_stored()
            )),
        }
        for id in buf.ids_sorted() {
            if api.body(id).is_none() {
                violations.push(format!("{node}: buffered copy of {id} has no body"));
            }
        }
        let use_ = api.energy_usage(node);
        if !(use_.tx_joules.is_finite()
            && use_.rx_joules.is_finite()
            && use_.tx_joules >= 0.0
            && use_.rx_joules >= 0.0)
        {
            violations.push(format!(
                "{node}: energy use not finite/non-negative (tx {} J, rx {} J)",
                use_.tx_joules, use_.rx_joules
            ));
        }
        if let (Some(remaining), Some(budget)) = (api.battery_remaining(node), budget) {
            if !(remaining.is_finite() && (0.0..=budget).contains(&remaining)) {
                violations.push(format!(
                    "{node}: battery remaining {remaining} J outside [0, {budget}]"
                ));
            }
        }
        let p = api.position(node);
        if !api.area().contains(p) {
            violations.push(format!(
                "{node}: position ({}, {}) outside the world area",
                p.x, p.y
            ));
        }
    }
    violations
}

/// Formats an invariant-breach report: what broke, when, and the exact
/// `(seed, chaos spec)` pair plus trace excerpt needed to replay it.
#[must_use]
pub fn format_breach(
    seed: u64,
    plan: Option<&FaultPlan>,
    now: SimTime,
    violations: &[String],
    trace_rendered: &str,
) -> String {
    let mut report = format!(
        "invariant breach at {now} (seed {seed}, chaos: {})\n",
        plan.map_or_else(|| "none".to_string(), ToString::to_string)
    );
    for v in violations {
        let _ = writeln!(report, "  - {v}");
    }
    match plan {
        Some(p) => {
            let _ = writeln!(
                report,
                "replay: rerun the same scenario with --seed {seed} --chaos '{p}' --check-invariants"
            );
        }
        None => {
            let _ = writeln!(
                report,
                "replay: rerun the same scenario with --seed {seed} --check-invariants"
            );
        }
    }
    report.push_str("trace tail:\n");
    if trace_rendered.is_empty() {
        report.push_str("  (trace disabled; attach a TraceLog or pass --trace for an excerpt)\n");
    } else {
        let lines: Vec<&str> = trace_rendered.lines().collect();
        let skip = lines.len().saturating_sub(TRACE_TAIL_LINES);
        if skip > 0 {
            let _ = writeln!(report, "  … {skip} earlier events elided");
        }
        for line in &lines[skip..] {
            let _ = writeln!(report, "  {line}");
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breach_report_names_seed_plan_and_tail() {
        let plan: FaultPlan = "crash=2".parse().unwrap();
        let trace = (0..30).fold(String::new(), |mut acc, i| {
            let _ = writeln!(acc, "00:00:{i:02} event-{i}");
            acc
        });
        let report = format_breach(
            42,
            Some(&plan),
            SimTime::from_secs(61.0),
            &["n3: buffer over capacity".to_string()],
            &trace,
        );
        assert!(report.contains("seed 42"));
        assert!(report.contains("crash=2"));
        assert!(report.contains("--chaos"));
        assert!(report.contains("n3: buffer over capacity"));
        assert!(report.contains("… 10 earlier events elided"));
        assert!(report.contains("event-29"), "tail keeps the latest events");
        assert!(!report.contains("event-09"), "early events are elided");
    }

    #[test]
    fn breach_report_handles_disabled_trace() {
        let report = format_breach(7, None, SimTime::ZERO, &["bad".to_string()], "");
        assert!(report.contains("chaos: none"));
        assert!(report.contains("trace disabled"));
        assert!(!report.contains("--chaos"));
    }
}
