//! The event-driven contact core.
//!
//! The time-stepped kernel pays a full world sweep every step: rebuild the
//! spatial grid from scratch, enumerate every 3×3 cell neighbourhood, and
//! distance-check every candidate pair — O(nodes + near pairs) work even
//! when nobody is near anybody. This module replaces that sweep with a
//! *predicted-crossing* scheduler that reports, each step, only the pairs
//! whose in-range state changed: the contact *transitions*. Applied to the
//! contact table, they reproduce the sweep's in-range list exactly
//! (byte-identical traces and summaries, any thread count), while the
//! engine does work only where geometry says something can change:
//!
//! * **Cell-crossing events.** Each node belongs to one coarse grid cell
//!   (cell width ≥ radio range, the same geometry as the sweep grid). The
//!   earliest step at which a node can leave its cell is bounded by its
//!   distance to the cell boundary over its speed cap, so the per-node
//!   "did I cross?" test is skipped entirely until that predicted step.
//!   A model that cannot bound its speed predicts "next step", which
//!   degrades to the exact per-step check, never to a wrong answer.
//! * **Pair-recheck events, on both sides of the range.** When two nodes
//!   share adjacent cells, the pair enters a watch set and is
//!   distance-checked at a conservatively predicted step. A pair at
//!   distance `d` with combined speed cap `v` cannot come within range `r`
//!   for `(d − r) / v` seconds, and a pair inside range cannot leave it
//!   for `(r − d) / v` seconds. Only pairs in a band around the range
//!   boundary, on either side, sit in a *hot* set that is checked every
//!   step, so the in-range decision is always an exact distance test. A
//!   pair in range whose endpoints are both pinned is never rechecked.
//! * **Transitions, not lists.** Every watched pair remembers whether its
//!   last test found it in range. A test that flips that flag emits a
//!   down or an up, and a pair dropped from the watch set while in range
//!   emits a down. [`ContactEngine::collect`] returns the step's downs and
//!   ups, each sorted; the kernel filters them (depleted radios, crashed
//!   nodes, cut links) and hands them to
//!   [`crate::contact::ContactTable::apply`].
//! * **Deterministic queue.** Predictions live in a timing wheel keyed
//!   `(due step, pair id)` ([`EventQueue`]). A watched pair sits in exactly
//!   one place — the hot list, the queue, or (pinned in range) neither —
//!   and that place carries its in-range flag, so a recheck reads no map
//!   and no queue entry is ever stale. Every data structure is updated in
//!   deterministic order, so the engine's state — and therefore its cost —
//!   is a pure function of the scenario and seed.
//!
//! Invalidation rule: predictions survive waypoint changes and cell
//! crossings alike, because they never look at headings or cells at all —
//! only at the speed caps, which no leg change can exceed. A node without
//! a cap (a teleporting script) checks its cell every step, and every pair
//! it is part of stays hot. A cell crossing only watches the pairs the new
//! neighbourhood brings into adjacency (see [`ContactEngine::collect`]).
//!
//! Region parallelism: watched pairs are sharded into one region per
//! worker thread (stable pair → region assignment), each with its own
//! queue, watch set and hot list. The kernel builds `min(threads, host
//! cores)` regions. Each step the calling thread steps the first region
//! and one scoped thread steps each other region, between two barriers;
//! this is the kernel's only parallel phase. Regions merge their
//! transitions in region order, and the merged downs and ups are each
//! sorted, so the output is independent of the region count. See
//! DESIGN.md §15 for the full determinism argument.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

use crate::contact::ContactKey;
use crate::geometry::{Area, Point};
use crate::kernel::STEP_SECS;
use crate::world::{cell_width, NodeId};

/// Which contact-detection core a simulation runs on.
///
/// Both modes produce byte-identical traces and summaries on every
/// scenario (the conformance suite asserts this); they differ only in
/// wall-clock cost. The time-stepped sweep is the serial oracle the event
/// core is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum KernelMode {
    /// The original per-step world sweep (grid rebuild + full pair scan),
    /// serial at any thread count.
    TimeStepped,
    /// The predicted-crossing event core (this module). The default.
    #[default]
    EventDriven,
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelMode::TimeStepped => "time-stepped",
            KernelMode::EventDriven => "event-driven",
        })
    }
}

impl std::str::FromStr for KernelMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "time-stepped" => Ok(KernelMode::TimeStepped),
            "event-driven" => Ok(KernelMode::EventDriven),
            other => Err(format!(
                "unknown kernel mode {other:?} (expected time-stepped or event-driven)"
            )),
        }
    }
}

/// Steps covered by an [`EventQueue`]'s timing wheel. Events due further
/// ahead wait in its overflow heap.
const WHEEL_STEPS: u64 = 256;

/// A deterministic event queue keyed `(due step, id)`.
///
/// Pop order is a pure function of the pushed contents — ties on the due
/// step break on the id — so any schedule built through deterministic
/// pushes replays identically.
///
/// Events due within `WHEEL_STEPS` (256) of the next unopened step go into a
/// timing wheel of one bucket per step, so a push is O(1), and a step's
/// bucket is sorted once when it is first popped. Events due further
/// ahead wait in a binary heap until their step comes. Steps are opened in
/// order, so an event may not be scheduled at a step already popped.
#[derive(Debug)]
pub struct EventQueue<T: Ord> {
    /// `wheel[t % WHEEL_STEPS]` holds the events due at step `t`, unsorted,
    /// for `next ≤ t < next + WHEEL_STEPS`.
    wheel: Vec<Vec<T>>,
    /// Events in `wheel`.
    in_wheel: usize,
    /// Events due at or past the wheel's span when they were pushed.
    far: BinaryHeap<Reverse<(u64, T)>>,
    /// The first step whose bucket has not been opened.
    next: u64,
    /// The open bucket's step and its remaining events, sorted descending
    /// so the smallest id pops first.
    open_step: u64,
    open: Vec<T>,
}

impl<T: Ord> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

impl<T: Ord> EventQueue<T> {
    /// Creates an empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            wheel: (0..WHEEL_STEPS).map(|_| Vec::new()).collect(),
            in_wheel: 0,
            far: BinaryHeap::new(),
            next: 0,
            open_step: 0,
            open: Vec::new(),
        }
    }

    /// Schedules `id` to fire at `due`.
    ///
    /// # Panics
    ///
    /// Panics if `due` is a step [`Self::pop_due`] has already reached.
    pub fn push(&mut self, due: u64, id: T) {
        assert!(
            due >= self.next,
            "event scheduled at step {due}, which the queue has already reached"
        );
        if due - self.next < WHEEL_STEPS {
            self.wheel[(due % WHEEL_STEPS) as usize].push(id);
            self.in_wheel += 1;
        } else {
            self.far.push(Reverse((due, id)));
        }
    }

    /// Pops the earliest event if it is due at or before `step`.
    pub fn pop_due(&mut self, step: u64) -> Option<(u64, T)> {
        loop {
            if let Some(id) = self.open.pop() {
                return Some((self.open_step, id));
            }
            if self.next > step {
                return None;
            }
            if self.in_wheel == 0 {
                // An empty wheel: jump straight to the next far event.
                match self.far.peek() {
                    Some(Reverse((due, _))) if *due <= step => self.next = self.next.max(*due),
                    _ => {
                        self.next = step.saturating_add(1);
                        return None;
                    }
                }
            }
            let t = self.next;
            self.next += 1;
            // Taking the bucket leaves it unallocated, so the wheel holds
            // no more memory than its live events need.
            self.open = std::mem::take(&mut self.wheel[(t % WHEEL_STEPS) as usize]);
            self.in_wheel -= self.open.len();
            while let Some(Reverse((due, _))) = self.far.peek() {
                if *due > t {
                    break;
                }
                let Reverse((_, id)) = self.far.pop().expect("peeked entry");
                self.open.push(id);
            }
            self.open.sort_unstable_by(|a, b| b.cmp(a));
            self.open_step = t;
        }
    }

    /// Number of scheduled (possibly stale) events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.in_wheel + self.far.len() + self.open.len()
    }

    /// Whether no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Where a pair goes after a distance test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Next {
    /// Into (or stays in) the hot list.
    Hot,
    /// Tested again at this step.
    Due(u64),
    /// Never tested again: both endpoints pinned, in range.
    Pinned,
    /// Out of the watch set: both endpoints pinned, out of range.
    Unwatched,
}

/// Watch-set membership on the fast id hasher: only
/// `contains`/`insert`/`remove` ever touch it (iteration order is never
/// observed), so the hasher choice cannot affect simulation output.
type PairSet = crate::fxhash::FxHashSet<ContactKey>;

/// One shard of the watch set: an independent event queue, member set,
/// and hot list. A pair maps to exactly one region for its whole life
/// (stable id-based assignment), so regions never race: between epoch
/// barriers each region is touched by exactly one thread.
///
/// A watched pair lives in exactly one place, which carries its in-range
/// flag from its last test: the hot list (tested every step), the queue
/// (tested at its predicted step), or nowhere but `watched` (pinned in
/// range, never tested again). A pair is re-filed only when it is tested,
/// so no queue entry is ever stale.
#[derive(Debug, Default)]
struct Region {
    /// Every watched pair.
    watched: PairSet,
    /// Predicted rechecks, each with the pair's in-range flag.
    queue: EventQueue<(ContactKey, bool)>,
    /// Hot pairs, each with its in-range flag.
    hot: Vec<(ContactKey, bool)>,
    /// Pairs that left range this step; merged in region order, then sorted.
    downs: Vec<ContactKey>,
    /// Pairs that entered range this step; merged like `downs`.
    ups: Vec<ContactKey>,
    /// Exact distance tests made by [`ContactEngine::collect`] since the
    /// last rebuild.
    checks: u64,
}

/// How many steps of combined-speed travel the hot band extends on each
/// side of the radio range on entry. Pairs closer to the boundary than
/// this are checked every step.
const HOT_ENTER_STEPS: f64 = 2.0;
/// Hot-band exit threshold, in combined-speed steps on either side of the
/// range. Wider than the entry threshold so boundary pairs do not flap
/// between the hot list and the queue.
const HOT_EXIT_STEPS: f64 = 6.0;
/// Cap on how far ahead a recheck may be predicted, in steps.
const MAX_PREDICT_STEPS: f64 = 1_000_000.0;

/// The predicted-crossing contact engine (see the module docs).
///
/// [`ContactEngine::collect`] reports, for any step, the pairs that left
/// and entered radio range since the previous step — the transitions that
/// turn the time-stepped sweep's previous in-range list into its current
/// one. The superset property of the watch set guarantees no transition is
/// missed, and the shared distance predicate guarantees no extras.
#[derive(Debug)]
pub struct ContactEngine {
    range: f64,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Coarse-cell occupancy, maintained incrementally on crossings.
    cells: Vec<Vec<NodeId>>,
    /// Each node's current cell, as (column, row).
    node_cell: Vec<(u32, u32)>,
    /// Each node's slot inside its cell's occupancy vector (O(1) removal).
    cell_slot: Vec<u32>,
    /// Earliest step at which each node could leave its cell.
    cross_check_at: Vec<u64>,
    /// Per-node speed cap, m/s (`f64::INFINITY` when the model has none).
    vmax: Vec<f64>,
    regions: Vec<Region>,
    /// Nodes that changed cell this step (scratch).
    crossed: Vec<NodeId>,
}

impl ContactEngine {
    /// Builds an engine over `area` with the given radio `range` and
    /// region count, watching the pairs implied by the initial
    /// `positions`, for the kernel's fixed [`STEP_SECS`] step. `vmax` carries each node's speed cap. Each
    /// region is stepped by its own thread, so `regions` is also the
    /// number of threads [`Self::collect`] uses. Nothing has been reported
    /// yet, so the first [`Self::collect`] reports every pair in range as
    /// an up.
    ///
    /// # Panics
    ///
    /// Panics if `positions` and `vmax` disagree in length, or the range
    /// is non-positive.
    #[must_use]
    pub fn new(
        area: Area,
        range: f64,
        regions: usize,
        positions: &[Point],
        vmax: Vec<f64>,
    ) -> Self {
        assert_eq!(positions.len(), vmax.len(), "one speed cap per node");
        assert!(range > 0.0, "radio range must be positive");
        // Same cell geometry as the sweep grid: cell width ≥ radio range,
        // so two nodes in non-adjacent cells are strictly farther apart
        // than the range — the adjacency invariant the watch set rests on.
        let cell = cell_width(area, range, positions.len());
        let cols = ((area.width / cell).ceil() as usize).max(1);
        let rows = ((area.height / cell).ceil() as usize).max(1);
        let n = positions.len();
        let mut engine = ContactEngine {
            range,
            cell,
            cols,
            rows,
            cells: vec![Vec::new(); cols * rows],
            node_cell: vec![(0, 0); n],
            cell_slot: vec![0; n],
            cross_check_at: vec![0; n],
            vmax,
            regions: (0..regions.max(1)).map(|_| Region::default()).collect(),
            crossed: Vec::new(),
        };
        engine.rebuild(positions, 0);
        engine
    }

    /// Discards all predictions and watch state and rebuilds them from
    /// `positions` as of `step`. The watch set is derived state, so a
    /// rebuilt engine reports the same transitions as the uninterrupted
    /// one would.
    ///
    /// `positions` are the positions *before* the mobility phase of
    /// `step`: by the time `collect(step)` runs, every node has moved one
    /// further step. Seeding therefore schedules every prediction one
    /// step early (`lag = 1`) so the extra movement cannot outrun a
    /// prediction made from the older geometry.
    ///
    /// Transitions are reported against what the world last reported. At
    /// `step` 0 that is nothing, so every pair in range is tested at the
    /// first collect and reported up. Past step 0 (a restored world) it is
    /// the in-range set at `positions`, which the contact table already
    /// holds, so the first resumed collect reports no spurious up.
    pub fn rebuild(&mut self, positions: &[Point], step: u64) {
        for cell in &mut self.cells {
            cell.clear();
        }
        for region in &mut self.regions {
            *region = Region::default();
        }
        for (i, &p) in positions.iter().enumerate() {
            let c = self.cell_of(p);
            let flat = self.flat(c);
            self.node_cell[i] = c;
            self.cell_slot[i] = self.cells[flat].len() as u32;
            self.cells[flat].push(NodeId(i as u32));
            self.cross_check_at[i] = step
                .saturating_add(self.cross_steps(p, c, self.vmax[i]))
                .saturating_sub(1);
        }
        let shared = EngineShared::new(self.range, &self.node_cell, &self.vmax);
        let region_count = self.regions.len();
        for i in 0..positions.len() {
            let node = NodeId(i as u32);
            let c = self.node_cell[i];
            for_each_near(&self.cells, self.cols, self.rows, c, |other| {
                if other > node {
                    let pair = ContactKey(node, other);
                    self.regions[pair_region(pair, region_count)]
                        .seed(pair, step, positions, &shared);
                }
            });
        }
    }

    /// Reports the transitions for `step`: `downs` receives the pairs that
    /// left range since the previous step and `ups` the pairs that
    /// entered it, each sorted. Both buffers are cleared first. The
    /// regions step on one thread each: the calling thread steps the
    /// first, and one scoped thread is spawned per other region.
    pub fn collect(
        &mut self,
        step: u64,
        positions: &[Point],
        downs: &mut Vec<ContactKey>,
        ups: &mut Vec<ContactKey>,
    ) {
        for region in &mut self.regions {
            region.downs.clear();
            region.ups.clear();
        }
        // Phase 1 (serial): fire due cell-crossing checks. Moving a node
        // between cells is deterministic bookkeeping; collecting all moves
        // before generating candidates keeps adjacency consistent when
        // both endpoints of a pair cross in the same step.
        self.crossed.clear();
        for (i, &p) in positions.iter().enumerate() {
            if self.cross_check_at[i] > step {
                continue;
            }
            let c = self.cell_of(p);
            let old = self.node_cell[i];
            if c != old {
                let node = NodeId(i as u32);
                let (old, new) = (self.flat(old), self.flat(c));
                let slot = self.cell_slot[i] as usize;
                self.cells[old].swap_remove(slot);
                if let Some(&moved) = self.cells[old].get(slot) {
                    self.cell_slot[moved.index()] = slot as u32;
                }
                self.node_cell[i] = c;
                self.cell_slot[i] = self.cells[new].len() as u32;
                self.cells[new].push(node);
                self.crossed.push(node);
            }
            self.cross_check_at[i] = step.saturating_add(self.cross_steps(p, c, self.vmax[i]));
        }
        // Phase 2 (serial): every crossed node watches the pairs its new
        // 3×3 neighbourhood brings into adjacency.
        for idx in 0..self.crossed.len() {
            let node = self.crossed[idx];
            self.watch_new_pairs(node, step, positions);
        }
        // Phase 3 (parallel epoch): each region scans its hot list and
        // fires its due pair rechecks, writing transitions to its own
        // buffers. Regions are disjoint, so they share no mutable state.
        let shared = EngineShared::new(self.range, &self.node_cell, &self.vmax);
        if let [first, rest @ ..] = self.regions.as_mut_slice() {
            if rest.is_empty() {
                first.step(step, positions, &shared);
            } else {
                std::thread::scope(|s| {
                    for region in rest {
                        let shared = &shared;
                        s.spawn(move || region.step(step, positions, shared));
                    }
                    // The calling thread steps the first region itself.
                    first.step(step, positions, &shared);
                });
            }
        }
        // Phase 4 (serial): merge in region order, then sort, so the
        // output is independent of the region count.
        downs.clear();
        ups.clear();
        for region in &self.regions {
            downs.extend_from_slice(&region.downs);
            ups.extend_from_slice(&region.ups);
        }
        downs.sort_unstable();
        ups.sort_unstable();
    }

    /// Whether `pair` is within range at `positions` — the sweep's exact
    /// predicate.
    #[must_use]
    pub(crate) fn in_range(&self, pair: ContactKey, positions: &[Point]) -> bool {
        positions[pair.0.index()].distance_sq_to(positions[pair.1.index()])
            <= self.range * self.range
    }

    /// Appends to `out` every pair between `node` and a node within range
    /// of it at `positions`, which must be the positions of the last
    /// [`Self::collect`] (the cell index is current as of that step).
    pub(crate) fn pairs_in_range(
        &self,
        node: NodeId,
        positions: &[Point],
        out: &mut Vec<ContactKey>,
    ) {
        let c = self.node_cell[node.index()];
        for_each_near(&self.cells, self.cols, self.rows, c, |other| {
            if other != node {
                let pair = ContactKey::new(node, other);
                if self.in_range(pair, positions) {
                    out.push(pair);
                }
            }
        });
    }

    /// Number of regions, one per thread of the region phase.
    #[cfg(test)]
    pub(crate) fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Number of grid cells.
    #[cfg(test)]
    pub(crate) fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Total watched pairs across all regions (diagnostics).
    #[must_use]
    pub fn watched_pairs(&self) -> usize {
        self.regions.iter().map(|r| r.watched.len()).sum()
    }

    /// Exact pair distance tests made by [`Self::collect`] since the
    /// engine was built or last rebuilt: hot-set scans, due rechecks that
    /// were not stale, and first tests of the pairs a cell crossing brings
    /// into adjacency. A function of the scenario and seed alone,
    /// independent of the region count. Restarts from zero on a rebuild (a
    /// snapshot restore).
    #[must_use]
    pub fn pair_checks(&self) -> u64 {
        self.regions.iter().map(|r| r.checks).sum()
    }

    /// The (column, row) of the cell holding `p`.
    fn cell_of(&self, p: Point) -> (u32, u32) {
        let cx = ((p.x / self.cell) as usize).min(self.cols - 1);
        let cy = ((p.y / self.cell) as usize).min(self.rows - 1);
        (cx as u32, cy as u32)
    }

    /// Index of cell `c` in `cells`.
    fn flat(&self, (cx, cy): (u32, u32)) -> usize {
        cy as usize * self.cols + cx as usize
    }

    /// Steps until `p` could first leave cell `c`: boundary distance over
    /// the speed cap. An unbounded model checks again next step; a pinned
    /// node never does.
    fn cross_steps(&self, p: Point, c: (u32, u32), vmax: f64) -> u64 {
        if vmax <= 0.0 {
            return u64::MAX;
        }
        if !vmax.is_finite() {
            return 1;
        }
        let (cx, cy) = (f64::from(c.0), f64::from(c.1));
        let margin = (p.x - cx * self.cell)
            .min((cx + 1.0) * self.cell - p.x)
            .min(p.y - cy * self.cell)
            .min((cy + 1.0) * self.cell - p.y);
        let steps = (margin / (vmax * STEP_SECS)).floor();
        if steps <= 1.0 {
            1
        } else {
            steps.min(MAX_PREDICT_STEPS) as u64
        }
    }

    /// Tests and files every pair between `node` and the occupants of its
    /// 3×3 cell neighbourhood that is not watched yet. A watched pair's
    /// schedule stays valid across the crossing: it rests on the speed
    /// caps alone.
    fn watch_new_pairs(&mut self, node: NodeId, step: u64, positions: &[Point]) {
        let shared = EngineShared::new(self.range, &self.node_cell, &self.vmax);
        let c = self.node_cell[node.index()];
        let region_count = self.regions.len();
        for_each_near(&self.cells, self.cols, self.rows, c, |other| {
            if other == node {
                return;
            }
            let pair = ContactKey::new(node, other);
            let region = &mut self.regions[pair_region(pair, region_count)];
            // An unwatched pair was out of range at the last step.
            if region.watched.insert(pair) {
                region.classify(pair, step, positions, &shared, false);
            }
        });
    }
}

/// Calls `visit` for every occupant of the 3×3 cell neighbourhood around
/// cell `c` (column, row) of a `cols × rows` grid.
fn for_each_near(
    cells: &[Vec<NodeId>],
    cols: usize,
    rows: usize,
    c: (u32, u32),
    mut visit: impl FnMut(NodeId),
) {
    let (cx, cy) = (c.0 as usize, c.1 as usize);
    for ny in cy.saturating_sub(1)..=(cy + 1).min(rows - 1) {
        for nx in cx.saturating_sub(1)..=(cx + 1).min(cols - 1) {
            for &other in &cells[ny * cols + nx] {
                visit(other);
            }
        }
    }
}

/// Read-only engine context shared with the region phase.
struct EngineShared<'a> {
    range: f64,
    range_sq: f64,
    node_cell: &'a [(u32, u32)],
    vmax: &'a [f64],
}

impl<'a> EngineShared<'a> {
    fn new(range: f64, node_cell: &'a [(u32, u32)], vmax: &'a [f64]) -> Self {
        EngineShared {
            range,
            range_sq: range * range,
            node_cell,
            vmax,
        }
    }

    /// Chebyshev cell distance ≤ 1 — the watchability criterion. Two
    /// nodes in non-adjacent cells are strictly farther apart than the
    /// range, and re-entering adjacency necessarily crosses a cell
    /// boundary, which re-watches the pair.
    fn cells_adjacent(&self, pair: ContactKey) -> bool {
        let (ax, ay) = self.node_cell[pair.0.index()];
        let (bx, by) = self.node_cell[pair.1.index()];
        ax.abs_diff(bx) <= 1 && ay.abs_diff(by) <= 1
    }

    /// The pair's squared distance at `positions` and its combined speed
    /// cap.
    fn measure(&self, pair: ContactKey, positions: &[Point]) -> (f64, f64) {
        let d_sq = positions[pair.0.index()].distance_sq_to(positions[pair.1.index()]);
        (d_sq, self.vmax[pair.0.index()] + self.vmax[pair.1.index()])
    }

    /// Where a pair `d_sq` apart, with combined speed cap `vp` and
    /// in-range flag `inside`, goes after a test at `step`. A pair within
    /// `band_steps` steps of combined-speed travel of the range, on either
    /// side, is hot. Any other pair is predicted: outside, for when it
    /// could first enter range; inside, for when it could first leave.
    /// The prediction comes `lag` steps early when the tested positions
    /// trail the next `collect` by that many mobility steps.
    fn next_test(
        &self,
        d_sq: f64,
        vp: f64,
        inside: bool,
        band_steps: f64,
        step: u64,
        lag: u64,
    ) -> Next {
        if vp <= 0.0 {
            // Neither endpoint can move: the pair's state is permanent.
            return if inside {
                Next::Pinned
            } else {
                Next::Unwatched
            };
        }
        let band = band_steps * vp * STEP_SECS;
        let (outer, inner) = (self.range + band, self.range - band);
        if d_sq <= outer * outer && (inner <= 0.0 || d_sq >= inner * inner) {
            return Next::Hot;
        }
        let d = d_sq.sqrt();
        let slack = if inside {
            self.range - d
        } else {
            d - self.range
        };
        Next::Due(
            step.saturating_add(predict_steps(slack, vp))
                .saturating_sub(lag),
        )
    }
}

impl Region {
    /// Scans this region's hot list, then fires its due pair rechecks,
    /// recording every pair whose in-range flag flips in `downs`/`ups`.
    /// The hot scan goes first so a recheck that promotes its pair into
    /// the hot list is not tested twice in one step.
    fn step(&mut self, step: u64, positions: &[Point], eng: &EngineShared) {
        // Hot scan: exact distance test every step for every pair near
        // the range boundary. Index loop because demotions swap-remove.
        let mut i = 0;
        while i < self.hot.len() {
            let (pair, was_inside) = self.hot[i];
            if !eng.cells_adjacent(pair) {
                self.hot.swap_remove(i);
                self.unwatch(pair, was_inside);
                continue;
            }
            let (d_sq, vp, inside) = self.test(pair, positions, eng, was_inside);
            self.hot[i].1 = inside;
            // Far enough from the boundary, on either side, to predict
            // ahead again.
            match eng.next_test(d_sq, vp, inside, HOT_EXIT_STEPS, step, 0) {
                Next::Hot => i += 1,
                next => {
                    self.hot.swap_remove(i);
                    self.place(pair, next, inside);
                }
            }
        }
        while let Some((_, (pair, inside))) = self.queue.pop_due(step) {
            if eng.cells_adjacent(pair) {
                self.classify(pair, step, positions, eng, inside);
            } else {
                self.unwatch(pair, inside);
            }
        }
    }

    /// Distance-tests `pair`, whose last test found it `was_inside` range,
    /// and records a flip of that flag as a transition. Returns the squared
    /// distance, the combined speed cap and the new flag.
    fn test(
        &mut self,
        pair: ContactKey,
        positions: &[Point],
        eng: &EngineShared,
        was_inside: bool,
    ) -> (f64, f64, bool) {
        self.checks += 1;
        let (d_sq, vp) = eng.measure(pair, positions);
        let inside = d_sq <= eng.range_sq;
        match (was_inside, inside) {
            (false, true) => self.ups.push(pair),
            (true, false) => self.downs.push(pair),
            _ => {}
        }
        (d_sq, vp, inside)
    }

    /// Tests `pair` (see [`Self::test`]), then files it from its current
    /// geometry — inside the hot band → hot list; otherwise a predicted
    /// recheck, or none at all when both endpoints are pinned.
    fn classify(
        &mut self,
        pair: ContactKey,
        step: u64,
        positions: &[Point],
        eng: &EngineShared,
        was_inside: bool,
    ) {
        let (d_sq, vp, inside) = self.test(pair, positions, eng, was_inside);
        let next = eng.next_test(d_sq, vp, inside, HOT_ENTER_STEPS, step, 0);
        self.place(pair, next, inside);
    }

    /// Watches and files a pair found by a rebuild at `positions`, which
    /// trail the next `collect` by one mobility step (see
    /// [`ContactEngine::rebuild`]). Not a counted test: a rebuild reports
    /// nothing.
    fn seed(&mut self, pair: ContactKey, step: u64, positions: &[Point], eng: &EngineShared) {
        self.watched.insert(pair);
        let (d_sq, vp) = eng.measure(pair, positions);
        let inside = d_sq <= eng.range_sq;
        if inside && step == 0 {
            // Nothing reported yet: test the pair at the first collect,
            // which reports it up if it is still in range.
            self.place(pair, Next::Hot, false);
        } else {
            let next = eng.next_test(d_sq, vp, inside, HOT_ENTER_STEPS, step, 1);
            self.place(pair, next, inside);
        }
    }

    /// Files watched `pair`, just taken from wherever it was, under
    /// `next`, with `inside` the result of its last test.
    fn place(&mut self, pair: ContactKey, next: Next, inside: bool) {
        match next {
            Next::Hot => self.hot.push((pair, inside)),
            Next::Due(at) => self.queue.push(at, (pair, inside)),
            Next::Pinned => {}
            Next::Unwatched => {
                self.watched.remove(&pair);
            }
        }
    }

    /// Drops `pair`, whose endpoints no longer share adjacent cells and so
    /// are out of range; a pair last seen in range goes down.
    fn unwatch(&mut self, pair: ContactKey, was_inside: bool) {
        self.watched.remove(&pair);
        if was_inside {
            self.downs.push(pair);
        }
    }
}

/// Stable pair → region assignment: pure function of the pair id, so a
/// pair lives in one region forever and regions never exchange state.
fn pair_region(pair: ContactKey, regions: usize) -> usize {
    pair.0 .0 as usize % regions
}

/// Conservative steps until a pair `slack` metres from the range boundary
/// could cross it at combined speed cap `vp`: each step moves the pair's
/// distance by at most `vp·dt`, so checking after `floor(slack / (vp·dt))`
/// steps can never miss the crossing — on the way in or on the way out.
fn predict_steps(slack: f64, vp: f64) -> u64 {
    let steps = (slack / (vp * STEP_SECS)).floor();
    if steps <= 1.0 {
        1
    } else {
        steps.min(MAX_PREDICT_STEPS) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::radio::RadioConfig;
    use crate::rng::SimRng;

    #[test]
    fn queue_pops_in_step_then_id_order() {
        let mut q = EventQueue::new();
        q.push(5, 2u32);
        q.push(3, 9);
        q.push(5, 1);
        q.push(8, 0);
        assert_eq!(q.pop_due(10), Some((3, 9)));
        assert_eq!(q.pop_due(10), Some((5, 1)));
        assert_eq!(q.pop_due(10), Some((5, 2)));
        assert_eq!(q.pop_due(7), None, "not due yet");
        assert_eq!(q.pop_due(8), Some((8, 0)));
        assert!(q.is_empty());
        // Past the wheel's span: the overflow heap takes over, in order.
        q.push(9 + 3 * WHEEL_STEPS, 4);
        q.push(9 + WHEEL_STEPS, 6);
        q.push(9 + WHEEL_STEPS, 5);
        q.push(20, 7);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop_due(u64::MAX - 1), Some((20, 7)));
        assert_eq!(q.pop_due(8 + WHEEL_STEPS), None);
        assert_eq!(q.pop_due(u64::MAX - 1), Some((9 + WHEEL_STEPS, 5)));
        assert_eq!(q.pop_due(u64::MAX - 1), Some((9 + WHEEL_STEPS, 6)));
        q.push(10 + WHEEL_STEPS, 8);
        assert_eq!(q.pop_due(u64::MAX - 1), Some((10 + WHEEL_STEPS, 8)));
        assert_eq!(q.pop_due(u64::MAX - 1), Some((9 + 3 * WHEEL_STEPS, 4)));
        assert!(q.is_empty());
    }

    #[test]
    fn kernel_mode_parses_and_round_trips() {
        assert_eq!(
            "time-stepped".parse::<KernelMode>().unwrap(),
            KernelMode::TimeStepped
        );
        assert_eq!(
            "event-driven".parse::<KernelMode>().unwrap(),
            KernelMode::EventDriven
        );
        assert!("both".parse::<KernelMode>().is_err());
        assert_eq!(KernelMode::default(), KernelMode::EventDriven);
        let doc = KernelMode::TimeStepped.to_value();
        assert_eq!(
            KernelMode::from_value(&doc).unwrap(),
            KernelMode::TimeStepped
        );
    }

    /// A randomized world of 60 movers: pinned nodes, slow walkers, a fast
    /// hopper class, and nodes with no declared cap at all.
    struct Walk {
        area: Area,
        range: f64,
        positions: Vec<Point>,
        vmax: Vec<f64>,
        rng: SimRng,
    }

    impl Walk {
        fn new(seed: u64) -> Self {
            let area = Area::new(900.0, 700.0);
            let n = 60;
            let mut rng = SimRng::new(seed);
            let positions = (0..n)
                .map(|_| Point::new(rng.uniform(0.0, area.width), rng.uniform(0.0, area.height)))
                .collect();
            let vmax = (0..n)
                .map(|i| match i % 5 {
                    0 => 0.0,
                    1 => 1.5,
                    2 => 6.0,
                    3 => 40.0,
                    _ => f64::INFINITY,
                })
                .collect();
            Walk {
                area,
                range: RadioConfig::paper_default().range_m,
                positions,
                vmax,
                rng,
            }
        }

        fn engine(&self, regions: usize) -> ContactEngine {
            ContactEngine::new(
                self.area,
                self.range,
                regions,
                &self.positions,
                self.vmax.clone(),
            )
        }

        /// Moves every node within its cap (pinned nodes stay put; the
        /// "unbounded" nodes teleport up to 250 m).
        fn step(&mut self) {
            for i in 0..self.positions.len() {
                let cap = if self.vmax[i].is_finite() {
                    self.vmax[i]
                } else {
                    250.0
                };
                if cap == 0.0 {
                    continue;
                }
                let p = self.positions[i];
                let q = Point::new(
                    (p.x + self.rng.uniform(-cap, cap)).clamp(0.0, self.area.width),
                    (p.y + self.rng.uniform(-cap, cap)).clamp(0.0, self.area.height),
                );
                // A diagonal draw can exceed the cap by √2; shrink it.
                let d = p.distance_to(q);
                self.positions[i] = if d > cap { p.step_toward(q, cap) } else { q };
            }
        }

        /// The sorted in-range set by brute force.
        fn in_range(&self) -> Vec<ContactKey> {
            let n = self.positions.len();
            let mut out = Vec::new();
            for a in 0..n {
                for b in (a + 1)..n {
                    if self.positions[a].distance_sq_to(self.positions[b])
                        <= self.range * self.range
                    {
                        out.push(ContactKey(NodeId(a as u32), NodeId(b as u32)));
                    }
                }
            }
            out
        }
    }

    /// The keys of sorted `a` missing from sorted `b`.
    fn minus(a: &[ContactKey], b: &[ContactKey]) -> Vec<ContactKey> {
        a.iter()
            .copied()
            .filter(|k| b.binary_search(k).is_err())
            .collect()
    }

    /// Each step the engine must emit exactly the difference between two
    /// consecutive brute-force in-range sets: downs are the pairs that
    /// left, ups the pairs that entered, both sorted. The first step
    /// reports every pair in range as an up. The distance-test count does
    /// not depend on the region count.
    #[test]
    fn engine_matches_brute_force_over_random_walks() {
        let mut walk = Walk::new(7);
        let mut engine = walk.engine(3);
        let mut serial = walk.engine(1);
        let (mut downs, mut ups) = (Vec::new(), Vec::new());
        let (mut serial_downs, mut serial_ups) = (Vec::new(), Vec::new());
        let mut before = Vec::new();
        let (mut total_downs, mut total_ups) = (0, 0);
        for step in 0..400u64 {
            walk.step();
            engine.collect(step, &walk.positions, &mut downs, &mut ups);
            let now = walk.in_range();
            assert_eq!(downs, minus(&before, &now), "step {step}: downs diverged");
            assert_eq!(ups, minus(&now, &before), "step {step}: ups diverged");
            serial.collect(step, &walk.positions, &mut serial_downs, &mut serial_ups);
            assert_eq!((&serial_downs, &serial_ups), (&downs, &ups));
            total_downs += downs.len();
            total_ups += ups.len();
            before = now;
        }
        assert!(total_downs > 100 && total_ups > 100, "fixture should churn");
        assert_eq!(engine.pair_checks(), serial.pair_checks());
    }

    /// The watch set is derived state: an engine rebuilt mid-walk from the
    /// positions of the last collect must emit, on every later step,
    /// exactly the transitions of the engine that was never rebuilt.
    #[test]
    fn rebuild_is_output_invariant() {
        let mut walk = Walk::new(11);
        let mut kept = walk.engine(1);
        let mut rebuilt = walk.engine(4);
        let (mut downs, mut ups) = (Vec::new(), Vec::new());
        let (mut downs_r, mut ups_r) = (Vec::new(), Vec::new());
        let mut after_rebuild = 0;
        for step in 0..300u64 {
            if [57, 137, 211].contains(&step) {
                rebuilt.rebuild(&walk.positions, step);
            }
            walk.step();
            kept.collect(step, &walk.positions, &mut downs, &mut ups);
            rebuilt.collect(step, &walk.positions, &mut downs_r, &mut ups_r);
            assert_eq!(downs_r, downs, "step {step}: downs differ after rebuild");
            assert_eq!(ups_r, ups, "step {step}: ups differ after rebuild");
            if step >= 57 {
                after_rebuild += downs.len() + ups.len();
            }
        }
        assert!(
            after_rebuild > 100,
            "fixture should churn after the rebuild"
        );
    }

    /// Two pinned nodes in range are tested once, reported up, and never
    /// tested again; a pinned pair out of range is not watched at all.
    #[test]
    fn pinned_pairs_are_never_rechecked() {
        let positions = [
            Point::new(100.0, 100.0),
            Point::new(150.0, 100.0),
            Point::new(290.0, 100.0),
        ];
        let range = 100.0;
        let mut engine =
            ContactEngine::new(Area::new(400.0, 400.0), range, 2, &positions, vec![0.0; 3]);
        let (mut downs, mut ups) = (Vec::new(), Vec::new());
        engine.collect(0, &positions, &mut downs, &mut ups);
        assert_eq!(ups, vec![ContactKey(NodeId(0), NodeId(1))]);
        assert!(downs.is_empty());
        assert_eq!(engine.pair_checks(), 1);
        for step in 1..50 {
            engine.collect(step, &positions, &mut downs, &mut ups);
            assert!(downs.is_empty() && ups.is_empty());
        }
        assert_eq!(engine.pair_checks(), 1, "a pinned pair is never re-tested");
        assert_eq!(
            engine.watched_pairs(),
            1,
            "the out-of-range pair is unwatched"
        );
    }

    /// A pair deep inside range is not tested again until it could first
    /// leave: 90 m of slack at a combined 2 m/s is 45 steps.
    #[test]
    fn pairs_deep_in_range_wait_for_their_predicted_exit() {
        let positions = [Point::new(100.0, 100.0), Point::new(110.0, 100.0)];
        let mut engine =
            ContactEngine::new(Area::new(400.0, 400.0), 100.0, 1, &positions, vec![1.0; 2]);
        let (mut downs, mut ups) = (Vec::new(), Vec::new());
        for step in 0..45 {
            engine.collect(step, &positions, &mut downs, &mut ups);
        }
        assert_eq!(engine.pair_checks(), 1, "tested once, at the first collect");
        engine.collect(45, &positions, &mut downs, &mut ups);
        assert_eq!(engine.pair_checks(), 2, "re-tested at its predicted exit");
        assert!(downs.is_empty() && ups.is_empty());
    }
}
