//! # dtn-workloads
//!
//! Scenario and workload generation for the incentive-mechanism
//! experiments:
//!
//! * [`scenario`] — the experimental condition as plain data (Table 5.1
//!   knobs, population mix, traffic model, protocol config);
//! * [`population`] — interest assignment, honest/selfish/malicious
//!   population synthesis, source quality classes;
//! * [`traffic`] — the message-creation schedule with ground-truth
//!   content and expected destination sets;
//! * [`runner`] — builds simulations, runs seeds, pairs the Incentive and
//!   ChitChat arms over identical workloads;
//! * [`resume`] — crash-resumable runs: periodic whole-world snapshots
//!   with run identity attached, and byte-identical resume;
//! * [`sweep`] — the work-stealing sweep executor with a memoized run
//!   cache: whole figure grids as one saturated worker-pool queue;
//! * [`paper`] — Table 5.1 constructors and the per-figure sweeps
//!   (Figs. 5.1–5.6).
//!
//! ## Example
//!
//! ```no_run
//! use dtn_workloads::prelude::*;
//!
//! // A quick reduced-scale Fig. 5.1 point: 30% selfish nodes, both arms.
//! let mut scenario = reduced_scenario();
//! scenario.selfish_fraction = 0.3;
//! let cmp = compare_arms(&scenario, &[101]);
//! println!(
//!     "MDR incentive {:.3} vs chitchat {:.3}, traffic saved {:.1}%",
//!     cmp.incentive.delivery_ratio,
//!     cmp.chitchat.delivery_ratio,
//!     cmp.traffic_reduction_pct()
//! );
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dispersion;
pub mod paper;
pub mod population;
pub mod resume;
pub mod runner;
pub mod scenario;
pub mod sweep;
pub mod traffic;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use crate::dispersion::{run_seeds_detailed, Dispersion, SeedStats};
    pub use crate::paper::{
        malicious_sweep, priority_sweep, reduced_scenario, selfish_sweep, table51_scenario,
        token_sweep, user_count_sweep, Scale, PAPER_SEEDS, QUICK_SEEDS,
    };
    pub use crate::population::{Population, SourceClass};
    pub use crate::resume::{
        latest_snapshot, read_snapshot, resume_simulation, run_with_snapshots, snapshot_path,
        write_snapshot, RunMeta, RunProgress, SnapshotDoc, SnapshotPolicy,
    };
    pub use crate::runner::{
        arm_for, build_backend_simulation, build_simulation, compare_arms, compare_overlays,
        protocol_for, run_backend, run_backend_checked, run_once, run_seeds, ArmRun, BackendRouter,
        Comparison,
    };
    pub use crate::scenario::{Arm, Mobility, Scenario, SourceClassMix};
    pub use crate::sweep::{run_cells, Cell, CellKind, CellResult};
    pub use crate::traffic::generate_schedule;
    pub use dtn_routing::backend::{BackendKind, Overlay};
}
