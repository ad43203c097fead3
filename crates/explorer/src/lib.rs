//! Parallel design-space exploration for the Crescent simulator.
//!
//! The paper's headline claims are architecture/workload *sweeps* — PE
//! count, cache geometry, the `h = <h_t, h_e>` split depth, maintenance
//! policy × streaming scenario — but a simulator that can only run one
//! hand-picked configuration at a time cannot reproduce a sweep, let
//! alone gate it in CI. This crate closes that gap:
//!
//! * [`SweepSpec`] — a declarative cartesian grid over the architecture
//!   knobs ([`AcceleratorConfig`](crescent_accel::AcceleratorConfig) via
//!   its validated builder), the approximation knobs `h_t`/`h_e`, the
//!   [`TreeMaintenance`](crescent_accel::TreeMaintenance) policies, and
//!   every [`StreamScenario`](crescent::workload::StreamScenario);
//! * [`run_sweep`] — expands the grid and runs it as a stage cascade on
//!   a `std::thread::scope` worker pool: per scenario, the frame
//!   rendering and the brute-force recall oracle are computed once, each
//!   stage of the streaming engine runs once per distinct value of the
//!   axes it reads, and every grid point is composed from those shared
//!   outputs (see the [`runner`] module docs);
//! * [`SweepReport`] — a deterministic, schema-versioned JSON report
//!   (modeled cycles, DRAM bytes, energy by ledger category, recall vs.
//!   the exact baseline, a result digest) plus per-scenario Pareto
//!   fronts over cycles × energy × accuracy;
//! * [`diff_reports`] — the *exact* comparator behind the CI
//!   `sweep-gate`: every metric is modeled (never wall-clock), so the
//!   report is bit-reproducible and any drift against the checked-in
//!   `bench/baseline.json` is a real behavioural change;
//! * [`RunTimings`] — the wall-clock sidecar (`repro sweep --timings`,
//!   and serve's `--timings` too): measured set-up and per-point times,
//!   kept in a separate file that the exact comparator never sees (see
//!   the [`timings`] module docs for the three guarantees keeping
//!   measured time out of the gated bytes).
//!
//! # Example
//!
//! ```
//! use crescent_explorer::{run_sweep, SweepSpec};
//!
//! let mut spec = SweepSpec::quick();
//! // shrink the grid for the doctest
//! spec.scenarios.truncate(1);
//! spec.num_pes.truncate(1);
//! spec.tree_banks.truncate(1);
//! spec.elision_depths.truncate(1);
//! let report = run_sweep(&spec, 2).expect("valid spec");
//! assert_eq!(report.rows.len(), spec.num_points());
//! let again = run_sweep(&spec, 1).expect("valid spec");
//! assert_eq!(report.to_json(), again.to_json(), "bit-reproducible");
//! ```

#![warn(missing_docs)]

pub mod fnv;
pub mod json;
pub mod report;
pub mod runner;
pub mod spec;
pub mod timings;

pub use fnv::Fnv1a;
pub use json::Json;
pub use report::{
    check_baseline, diff_reports, spec_fingerprint, ReportHead, SweepReport, SweepRow, SCHEMA,
};
pub use runner::{default_workers, run_sweep, run_sweep_timed, SweepRunStats};
pub use spec::{maintenance_label, SweepPoint, SweepSpec};
pub use timings::{RunTimings, TIMINGS_SCHEMA};
