//! # crescent-serve — the deterministic multi-tenant streaming service
//!
//! Models Crescent accelerators as a *service*: N concurrent tenants —
//! each a seeded [`FrameStream`](crescent::workload::FrameStream) with
//! its own scenario, arrival phase, and per-frame deadline — submit
//! query frames against one shared world map, and a deterministic
//! scheduler batches ready frames across tenants into shared wavefronts
//! on a modeled fleet of accelerator instances.
//!
//! The layer answers the serving-side questions the single-stream
//! explorer cannot: what do the **tail latencies** (p50/p95/p99) look
//! like under multi-tenant load, how many frames **miss deadlines** or
//! are **rejected** by admission control, how much **top-tree traffic**
//! does cross-tenant batching amortize, and how do tenant count, fleet
//! size, and elision depth trade against each other.
//!
//! Crucially, co-scheduling is **result-neutral at `h_e = 0`**: the
//! engine is tag-blind, so a tenant's neighbor sets are bit-identical
//! whether it runs alone or batched with seven co-tenants — the
//! scheduler moves cycles, never answers. That invariant (fuzzed in
//! `tests/serve_matrix.rs`) is what makes the multi-tenant ledger
//! trustworthy as an *accuracy* statement, not just a latency one.
//!
//! Everything is modeled — cycles, energy, counts — so the whole report
//! is a pure function of its spec: byte-identical across runs, worker
//! counts, and machines. CI locks it down against
//! `bench/serve-baseline.json` with an exact comparator (`repro serve
//! --quick --check`); wall-clock lives only in the `--timings` sidecar.
//!
//! Module map:
//! - [`spec`]: the serve grid (tenant counts × fleet sizes × `h_e` ×
//!   controller mode) around one map workload and one tenant base.
//! - [`controller`]: the deterministic SLO feedback controller stepping
//!   `h_e` per wavefront from observed misses and backlog.
//! - [`scheduler`]: the event-driven admission/EDF/batching loop over
//!   [`Fleet`](crescent_accel::Fleet), with the controller's
//!   observe → decide → act hook before each dispatch. Each distinct
//!   wavefront is simulated once per [`ServiceContext`] (its
//!   compute-once memo) and re-read by every later dispatch.
//! - [`ledger`]: per-tenant frame outcomes, nearest-rank percentiles,
//!   deadline and energy accounting, knob trajectories.
//! - [`report`]: schema-versioned JSON in the explorer's exact-diff
//!   house style.
//! - [`runner`]: the worker-pool executor, returning the wall-clock
//!   sidecar ([`RunTimings`], never in the report bytes) beside the
//!   report.

#![warn(missing_docs)]

pub mod controller;
pub mod ledger;
mod memo;
pub mod report;
pub mod runner;
pub mod scheduler;
pub mod spec;

pub use controller::{h_e_in_effect, ControlMode, Controller, ControllerConfig};
pub use crescent_explorer::RunTimings;
pub use ledger::{
    deadline_missed, digest_results, percentile, FrameOutcome, InstanceReport, KnobPoint,
    ServiceLedger, TenantLedger,
};
pub use report::{serve_fingerprint, ServeReport, ServeRow, TenantRow, SCHEMA, TIMINGS_SCHEMA};
pub use runner::{
    default_workers, run_serve, run_serve_timed, run_serve_with_stats, ServeRunStats,
};
pub use scheduler::{run_service, run_service_controlled, ServiceContext, ServiceOutcome};
pub use spec::{ServePoint, ServeSpec};
