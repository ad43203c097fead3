//! The parallel serve executor: builds the shared [`ServiceContext`]
//! once (map trees, canonical tenant mix, per-tick queries), then fans
//! the service grid points out over the explorer's worker pool
//! ([`par_map`]).
//!
//! # Determinism
//!
//! The report is a pure function of the spec, whatever the worker
//! count: each grid point runs its own complete, single-threaded
//! scheduler simulation over the shared context, and [`par_map`]
//! returns the rows in grid order whatever the worker count. Two runs —
//! or a 1-worker and an N-worker run — therefore serialize to
//! byte-identical JSON, which is what lets the CI serve gate compare
//! reports with an exact comparator.
//!
//! The context's trees, tenants and queries are read-only. Its one
//! mutable part is the compute-once wavefront memo: the first dispatch
//! of a `(tick, h_e, riders in EDF order)` key simulates the wavefront
//! and stores its latency, energy, counters and neighbor lists; every
//! later dispatch of the key, in any point and on any worker, reads
//! them. A hit cannot change bytes: everything stored is a pure
//! function of the key (the tick fixes the tree and each rider's
//! queries, the riders fix descendant reuse, the context fixes the
//! rest), so it equals what a fresh simulation would return, and which
//! worker filled an entry is invisible. Each key is simulated exactly
//! once whatever the worker count ([`ServeRunStats::wavefronts_simulated`]).

use std::time::Instant;

pub use crescent_explorer::default_workers;
use crescent_explorer::runner::par_map;
use crescent_explorer::RunTimings;

use crate::controller::ControlMode;
use crate::report::{ServeReport, ServeRow};
use crate::scheduler::{run_service, run_service_controlled, ServiceContext, ServiceOutcome};
use crate::spec::{ServePoint, ServeSpec};

/// Execution statistics of one serve run — operational facts about the
/// run itself, deliberately kept OUT of the report bytes (the report is
/// a pure function of the spec; these are not).
#[derive(Clone, Copy, Debug)]
pub struct ServeRunStats {
    /// Grid points simulated.
    pub points: usize,
    /// The **effective** worker count: the requested pool clamped to
    /// the point count.
    pub workers: usize,
    /// Tenants in the canonical mix the context was built with (the
    /// largest tenant-count axis value).
    pub tenants_built: usize,
    /// Total **wall-clock** nanoseconds spent simulating grid points,
    /// summed across workers. Measured, never part of the report.
    pub point_nanos: u64,
    /// Wavefronts the grid's schedulers dispatched (the rows'
    /// `wavefronts` summed).
    pub wavefronts_dispatched: usize,
    /// Distinct wavefronts actually simulated: the context's memo
    /// entries. Every other dispatch was a memo hit.
    pub wavefronts_simulated: usize,
}

/// Runs the full serve grid on `workers` OS threads and returns the
/// report.
///
/// Fails (with a message naming the offending knob) if the spec does
/// not validate; never panics on a validated spec.
pub fn run_serve(spec: &ServeSpec, workers: usize) -> Result<ServeReport, String> {
    run_serve_with_stats(spec, workers).map(|(report, _)| report)
}

/// [`run_serve`], also returning the run's execution statistics.
pub fn run_serve_with_stats(
    spec: &ServeSpec,
    workers: usize,
) -> Result<(ServeReport, ServeRunStats), String> {
    run_serve_timed(spec, workers).map(|(report, stats, _)| (report, stats))
}

/// [`run_serve_with_stats`], also returning the run's wall-clock
/// measurements ([`RunTimings`]: the context build as the one `context`
/// setup entry, then one entry per grid point) — the `repro serve
/// --timings` sidecar's data source. The report bytes are identical to the untimed
/// variants': timing is observed, never fed back.
pub fn run_serve_timed(
    spec: &ServeSpec,
    workers: usize,
) -> Result<(ServeReport, ServeRunStats, RunTimings), String> {
    spec.validate()?;
    let run_start = Instant::now();
    // The context — map stream, tree maintenance, tenant mix, query
    // generation — is a pure function of the spec and independent of
    // every grid axis, so it is built once at the largest tenant count
    // and shared read-only; a grid point selects a tenant prefix.
    let context_start = Instant::now();
    let ctx = ServiceContext::build(spec);
    let context_nanos = context_start.elapsed().as_nanos() as u64;

    let points = spec.expand();
    let workers = workers.clamp(1, points.len().max(1));
    let served = par_map(&points, workers, |_, point| {
        ServeRow::from_ledger(*point, &serve_point(&ctx, spec, point).ledger)
    });
    let timings = RunTimings {
        total_nanos: run_start.elapsed().as_nanos() as u64,
        setup: vec![("context".to_string(), context_nanos)],
        points: served.iter().map(|(row, nanos)| (row.index, *nanos)).collect(),
    };
    let rows: Vec<ServeRow> = served.into_iter().map(|(row, _)| row).collect();
    let stats = ServeRunStats {
        points: points.len(),
        workers,
        tenants_built: ctx.tenants.len(),
        point_nanos: timings.point_nanos(),
        wavefronts_dispatched: rows.iter().map(|r| r.wavefronts).sum(),
        wavefronts_simulated: ctx.wavefronts_simulated(),
    };
    Ok((ServeReport { spec: spec.clone(), rows }, stats, timings))
}

/// Runs one grid point on `ctx` under the point's knob policy.
fn serve_point(ctx: &ServiceContext, spec: &ServeSpec, point: &ServePoint) -> ServiceOutcome {
    match point.controller {
        ControlMode::Static => run_service(ctx, point.tenants, point.fleet, point.elision_depth),
        ControlMode::Slo => run_service_controlled(
            ctx,
            point.tenants,
            point.fleet,
            point.elision_depth,
            &spec.controller,
        ),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::report::{serve_fingerprint, SCHEMA, TIMINGS_SCHEMA};

    /// An 8-point spec small enough for debug-profile unit tests (the
    /// full quick grid is exercised by `tests/serve_baseline.rs` at the
    /// workspace root in release mode). Keeps both controller modes so
    /// the runner's per-point dispatch is covered.
    fn tiny_spec() -> ServeSpec {
        let mut spec = ServeSpec::quick();
        spec.label = "tiny".to_string();
        spec.map.scene.total_points = 1_500;
        spec.map.num_frames = 4;
        spec.tenant_base.scene.total_points = 600;
        spec.tenant_base.num_frames = 4;
        spec.tenant_base.queries_per_frame = 24;
        spec.tenant_counts = vec![2, 4];
        spec.fleet_sizes = vec![1];
        spec.elision_depths = vec![0, 4];
        spec
    }

    #[test]
    fn report_is_byte_identical_across_runs_and_worker_counts() {
        let spec = tiny_spec();
        let a = run_serve(&spec, 1).expect("serve runs");
        let b = run_serve(&spec, 1).expect("serve runs");
        let c = run_serve(&spec, 4).expect("serve runs");
        assert_eq!(a.to_json(), b.to_json(), "two runs must match");
        assert_eq!(a.to_json(), c.to_json(), "worker count must not leak into the report");
    }

    #[test]
    fn rows_are_in_grid_order_with_real_metrics() {
        let report = run_serve(&tiny_spec(), 2).expect("serve runs");
        assert_eq!(report.rows.len(), 8);
        for (i, row) in report.rows.iter().enumerate() {
            assert_eq!(row.index, i);
            assert!(row.admitted > 0);
            assert!(row.wavefronts > 0);
            assert!(row.makespan > 0);
            assert!(row.p50 > 0 && row.p50 <= row.p95 && row.p95 <= row.p99);
            assert!(row.energy.total() > 0.0);
            assert_eq!(row.per_tenant.len(), row.tenants);
            // mode axis is innermost: even rows static, odd rows slo
            assert_eq!(row.controller, if i % 2 == 0 { "static" } else { "slo" });
            assert!(row.h_e_cycles.iter().map(|&(_, c)| c).sum::<u64>() > 0);
        }
        // a static row's final h_e echoes its pinned depth
        assert_eq!(report.rows[2].h_e_final, report.rows[2].elision_depth);
        // h_e = 0 and h_e = 4 rows of the same mix may differ only in
        // results, not in admission (the schedule depends on latency,
        // which elision can move — but both must serve all frames here)
        assert_eq!(report.rows[0].admitted + report.rows[0].rejected, 2 * 4);
    }

    #[test]
    fn timings_cover_every_point_without_touching_the_report() {
        let spec = tiny_spec();
        let (report, stats, timings) = run_serve_timed(&spec, 2).expect("serve runs");
        assert_eq!(timings.points.len(), report.rows.len());
        for ((index, _), row) in timings.points.iter().zip(&report.rows) {
            assert_eq!(*index, row.index);
        }
        let labels: Vec<&str> = timings.setup.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(labels, ["context"], "the context build is the one setup entry");
        assert_eq!(stats.point_nanos, timings.point_nanos());
        assert!(timings.total_nanos >= timings.setup_nanos());
        // the sidecar names its own schema and identifies its run
        assert_ne!(TIMINGS_SCHEMA, SCHEMA);
        let sidecar = timings.to_json(TIMINGS_SCHEMA, &spec.label, serve_fingerprint(&spec));
        assert!(sidecar.contains("\"schema\": \"crescent-serve-timings/v2\""), "{sidecar}");
        assert!(sidecar.contains("\"label\": \"tiny\""), "{sidecar}");
        assert!(sidecar.contains(r#"{"scenario":"context","nanos":"#), "{sidecar}");
        assert_eq!(stats.tenants_built, 4);
        let untimed = run_serve(&spec, 2).expect("serve runs");
        assert_eq!(report.to_json(), untimed.to_json(), "clocks must not perturb the bytes");
    }

    #[test]
    fn stats_report_the_effective_worker_count() {
        let spec = tiny_spec();
        let (report, stats) = run_serve_with_stats(&spec, 64).expect("serve runs");
        assert_eq!(stats.points, report.rows.len());
        assert_eq!(stats.workers, report.rows.len(), "pool clamps to the point count");
        let (_, one) = run_serve_with_stats(&spec, 1).expect("serve runs");
        assert_eq!(one.workers, 1);
    }

    /// The distinct `(tick, h_e, riders in EDF order)` wavefront keys
    /// the grid dispatches, rebuilt from the ledgers alone, and the
    /// number of dispatches.
    fn dispatched_wavefront_keys(spec: &ServeSpec) -> (HashSet<(usize, usize, Vec<usize>)>, usize) {
        let ctx = ServiceContext::build(spec);
        let mut keys = HashSet::new();
        let mut dispatched = 0;
        for point in spec.expand() {
            let ledger = serve_point(&ctx, spec, &point).ledger;
            dispatched += ledger.wavefronts;
            // every served frame as (wavefront, EDF sort key, tenant,
            // tick, h_e): sorted, each wave's riders are a run in EDF order
            let mut served = Vec::new();
            for (ti, tenant) in ledger.tenants.iter().enumerate() {
                for f in tenant.frames.iter().filter(|f| f.admitted) {
                    let deadline_at = f.arrival + tenant.deadline_cycles;
                    served.push((f.wavefront.unwrap(), deadline_at, f.arrival, ti, f.frame, f.h_e));
                }
            }
            served.sort_unstable();
            let waves: Vec<_> = served.chunk_by(|a, b| a.0 == b.0).collect();
            assert_eq!(waves.len(), ledger.wavefronts);
            for wave in waves {
                let (tick, h_e) = (wave[0].4, wave[0].5);
                assert!(
                    wave.iter().all(|r| (r.4, r.5) == (tick, h_e)),
                    "one tick and h_e per wave"
                );
                keys.insert((tick, h_e, wave.iter().map(|r| r.3).collect()));
            }
        }
        (keys, dispatched)
    }

    /// The memo simulates every distinct wavefront key of the quick grid
    /// exactly once, however many workers race for it: the count is the
    /// same at 1 and 2 workers, equals the distinct keys the ledgers
    /// dispatched, and is well below the dispatch count (196 of 526).
    #[test]
    fn every_wavefront_key_is_simulated_exactly_once_at_any_worker_count() {
        let spec = ServeSpec::quick();
        let (keys, dispatched) = dispatched_wavefront_keys(&spec);
        assert_eq!((keys.len(), dispatched), (196, 526));
        let (one, one_stats) = run_serve_with_stats(&spec, 1).expect("serve runs");
        let (two, two_stats) = run_serve_with_stats(&spec, 2).expect("serve runs");
        assert_eq!(one.to_json(), two.to_json());
        for stats in [one_stats, two_stats] {
            assert_eq!(stats.wavefronts_dispatched, dispatched);
            assert_eq!(stats.wavefronts_simulated, keys.len(), "one simulation per key");
            assert!(stats.wavefronts_simulated < stats.wavefronts_dispatched);
        }
    }

    #[test]
    fn invalid_spec_is_rejected_not_panicked() {
        let mut spec = tiny_spec();
        spec.fleet_sizes = vec![0];
        assert!(run_serve(&spec, 2).is_err());
    }
}
