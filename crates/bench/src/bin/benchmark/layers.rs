//! Outside-in layer timing: a wrapper that times the settlement tick, the
//! one kernel→protocol hook (`dtn-core`) a metric reads, and a wrapper that
//! times every call the protocol makes into its routing backend
//! (`dtn-routing`).
//!
//! While [`TimedProtocol`] is inside `on_tick` it marks the tick as
//! running, so backend time spent inside the tick is charged to it too —
//! the tick's self time is its own time minus that backend time. Both
//! wrappers only delegate and read the clock: the wrapped router sees
//! exactly the calls it would see unwrapped (the non-perturbation test and
//! the digest gate check this).
//!
//! Counters live in one thread-local [`LayerStats`]; the kernel calls the
//! protocol from the thread that steps it, so one traced run fills one
//! record, which [`take`] hands over.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

use dtn_routing::backend::RouterBackend;
use dtn_sim::kernel::SimApi;
use dtn_sim::message::{Keyword, MessageId};
use dtn_sim::metrics::MetricsRegistry;
use dtn_sim::protocol::{Protocol, Reception};
use dtn_sim::time::SimTime;
use dtn_sim::transfer::AbortedTransfer;
use dtn_sim::world::NodeId;

/// Calls and wall seconds of one kind of backend call.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStat {
    pub calls: u64,
    pub secs: f64,
}

/// The kinds of backend call.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// `RouterBackend::exchange` (ChitChat's RTSR ritual).
    Exchange,
    /// Classification: destination, interest sum, mean weight, may-offer
    /// and the relay rule.
    Query,
    /// Lifecycle notifications (open, created, send initiated, stored,
    /// send failed, removed): timed only for the tick's backend share.
    Lifecycle,
}

/// Contact-up pairs remembered for the end-of-run micro-timings.
const RECENT_PAIRS: usize = 2048;

/// Everything one traced run counts at the protocol and backend seams.
#[derive(Debug, Default)]
pub struct LayerStats {
    in_tick: bool,
    /// Wall seconds inside `on_tick`.
    pub tick_secs: f64,
    /// Wall seconds of backend calls made from inside `on_tick`.
    pub tick_backend_secs: f64,
    pub exchange: OpStat,
    pub query: OpStat,
    pub is_destination_calls: u64,
    pub relay_checks: u64,
    pub relay_rejects: u64,
    pub sends_initiated: u64,
    pub stored: u64,
    /// The most recent contact-up pairs, oldest first.
    pub recent_pairs: VecDeque<(NodeId, NodeId)>,
}

impl LayerStats {
    /// Offers that reached classification: every `is_destination` call
    /// except the one arrival check each stored transfer makes.
    #[must_use]
    pub fn offers_evaluated(&self) -> u64 {
        self.is_destination_calls.saturating_sub(self.stored)
    }
}

thread_local! {
    static STATS: RefCell<LayerStats> = RefCell::new(LayerStats::default());
}

/// Clears this thread's counters.
pub fn reset() {
    STATS.with(|s| *s.borrow_mut() = LayerStats::default());
}

/// Hands over this thread's counters and clears them.
#[must_use]
pub fn take() -> LayerStats {
    STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

fn in_backend<R>(op: Op, f: impl FnOnce() -> R) -> R {
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    STATS.with(|s| {
        let mut s = s.borrow_mut();
        if s.in_tick {
            s.tick_backend_secs += secs;
        }
        let stat = match op {
            Op::Exchange => &mut s.exchange,
            Op::Query => &mut s.query,
            Op::Lifecycle => return,
        };
        stat.calls += 1;
        stat.secs += secs;
    });
    out
}

fn count(f: impl FnOnce(&mut LayerStats)) {
    STATS.with(|s| f(&mut s.borrow_mut()));
}

/// A protocol whose settlement tick is timed.
#[derive(Debug)]
pub struct TimedProtocol<P> {
    pub inner: P,
}

impl<P: Protocol> Protocol for TimedProtocol<P> {
    fn on_start(&mut self, api: &mut SimApi) {
        self.inner.on_start(api);
    }

    fn on_contact_up(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        count(|s| {
            if s.recent_pairs.len() == RECENT_PAIRS {
                s.recent_pairs.pop_front();
            }
            s.recent_pairs.push_back((a, b));
        });
        self.inner.on_contact_up(api, a, b);
    }

    fn on_contact_down(&mut self, api: &mut SimApi, a: NodeId, b: NodeId) {
        self.inner.on_contact_down(api, a, b);
    }

    fn on_message_created(&mut self, api: &mut SimApi, node: NodeId, message: MessageId) {
        self.inner.on_message_created(api, node, message);
    }

    fn on_transfer_complete(&mut self, api: &mut SimApi, reception: &Reception<'_>) {
        self.inner.on_transfer_complete(api, reception);
    }

    fn on_transfer_aborted(&mut self, api: &mut SimApi, aborted: &AbortedTransfer) {
        self.inner.on_transfer_aborted(api, aborted);
    }

    fn on_expired(&mut self, api: &mut SimApi, node: NodeId, messages: &[MessageId]) {
        self.inner.on_expired(api, node, messages);
    }

    fn on_evicted(&mut self, api: &mut SimApi, node: NodeId, messages: &[MessageId]) {
        self.inner.on_evicted(api, node, messages);
    }

    fn on_tick(&mut self, api: &mut SimApi) {
        count(|s| s.in_tick = true);
        let started = Instant::now();
        self.inner.on_tick(api);
        let secs = started.elapsed().as_secs_f64();
        count(|s| {
            s.in_tick = false;
            s.tick_secs += secs;
        });
    }

    fn on_finish(&mut self, api: &mut SimApi) {
        self.inner.on_finish(api);
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        self.inner.export_metrics(registry);
    }

    fn check_invariants(&self, api: &SimApi) -> Vec<String> {
        self.inner.check_invariants(api)
    }

    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}

/// A routing backend whose every call is timed and counted.
#[derive(Debug)]
pub struct TimedBackend<B> {
    pub inner: B,
}

impl<B: RouterBackend> RouterBackend for TimedBackend<B> {
    fn node_count(&self) -> usize {
        self.inner.node_count()
    }

    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn state_bytes(&self) -> usize {
        self.inner.state_bytes()
    }

    fn subscribe(&mut self, node: NodeId, keyword: Keyword, now: SimTime) {
        self.inner.subscribe(node, keyword, now);
    }

    fn is_destination(&self, node: NodeId, keywords: &[Keyword]) -> bool {
        count(|s| s.is_destination_calls += 1);
        in_backend(Op::Query, || self.inner.is_destination(node, keywords))
    }

    fn interest_sum(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        in_backend(Op::Query, || self.inner.interest_sum(node, keywords))
    }

    fn mean_weight(&self, node: NodeId, keywords: &[Keyword]) -> f64 {
        in_backend(Op::Query, || self.inner.mean_weight(node, keywords))
    }

    fn may_offer(&self, holder: NodeId, source: NodeId) -> bool {
        in_backend(Op::Query, || self.inner.may_offer(holder, source))
    }

    fn accepts_relay(
        &self,
        from: NodeId,
        to: NodeId,
        id: MessageId,
        source: NodeId,
        keywords: &[Keyword],
    ) -> bool {
        let accepted = in_backend(Op::Query, || {
            self.inner.accepts_relay(from, to, id, source, keywords)
        });
        count(|s| {
            s.relay_checks += 1;
            s.relay_rejects += u64::from(!accepted);
        });
        accepted
    }

    fn on_contact_open(&mut self, now: SimTime, a: NodeId, b: NodeId) {
        in_backend(Op::Lifecycle, || self.inner.on_contact_open(now, a, b));
    }

    fn exchange(
        &mut self,
        now: SimTime,
        a: NodeId,
        b: NodeId,
        connected_secs: f64,
        peers_a: &[NodeId],
        peers_b: &[NodeId],
    ) {
        in_backend(Op::Exchange, || {
            self.inner
                .exchange(now, a, b, connected_secs, peers_a, peers_b);
        });
    }

    fn on_message_created(&mut self, node: NodeId, id: MessageId) {
        in_backend(Op::Lifecycle, || self.inner.on_message_created(node, id));
    }

    fn on_send_initiated(&mut self, from: NodeId, to: NodeId, id: MessageId, dest: bool) {
        count(|s| s.sends_initiated += 1);
        in_backend(Op::Lifecycle, || {
            self.inner.on_send_initiated(from, to, id, dest)
        });
    }

    fn on_stored(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        count(|s| s.stored += 1);
        in_backend(Op::Lifecycle, || self.inner.on_stored(from, to, id));
    }

    fn on_send_failed(&mut self, from: NodeId, to: NodeId, id: MessageId) {
        in_backend(Op::Lifecycle, || self.inner.on_send_failed(from, to, id));
    }

    fn on_removed(&mut self, node: NodeId, messages: &[MessageId]) {
        in_backend(Op::Lifecycle, || self.inner.on_removed(node, messages));
    }

    fn snapshot_state(&self) -> serde::Value {
        self.inner.snapshot_state()
    }

    fn restore_state(&mut self, state: &serde::Value) -> Result<(), String> {
        self.inner.restore_state(state)
    }
}
