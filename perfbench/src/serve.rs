//! `serve_fleet`: the `ServeSpec::full()` grid (2–16 tenants × fleets of
//! 1/2/4 × `h_e` 0/2/4 × static/SLO control, 90 rows).
//!
//! The same kdtree/accel search runs here as small cross-tenant tagged
//! batches against a slowly changing shared map, behind the EDF scheduler
//! and the SLO controller. In modeled time the service is an open loop:
//! frames arrive every `frame_period` whatever the backlog.

use std::hint::black_box;
use std::time::Instant;

use crescent_accel::{AcceleratorConfig, CrescentKnobs, ServiceInstance, StreamSearchConfig};
use crescent_explorer::diff_reports;
use crescent_kdtree::TaggedBatch;
use crescent_serve::scheduler::SERVICE_STREAM_BYTES_PER_CYCLE;
use crescent_serve::{
    percentile, run_service, run_service_controlled, ControlMode, ServePoint, ServeReport,
    ServeRow, ServeSpec, ServiceContext, ServiceOutcome,
};

use crate::trace::Tracer;
use crate::{derive_seed, par_map, Checks, Pass};

/// The full serve grid for `seed`: the seed picks the map scene and the
/// base scene every tenant's own scene seed is derived from.
pub fn spec(seed: u64) -> ServeSpec {
    let mut spec = ServeSpec::full();
    spec.label = "serve_fleet".to_string();
    spec.map.scene.seed = derive_seed(seed, "serve.map");
    spec.tenant_base.scene.seed = derive_seed(seed, "serve.tenants");
    spec
}

pub struct Output {
    pub report: ServeReport,
    pub json: String,
    /// Latency of every answered tenant frame across the grid, ascending.
    pub latencies: Vec<u64>,
}

fn run_point(ctx: &ServiceContext, spec: &ServeSpec, point: &ServePoint) -> ServiceOutcome {
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

/// One pass: build the shared service context (set-up), then serve every
/// grid point on the worker pool and render the report (work).
pub fn pass(spec: &ServeSpec, workers: usize, tracer: &Tracer) -> Pass<Output> {
    let start = Instant::now();
    let ctx = tracer.span("serve.context", || ServiceContext::build(spec));
    let setup_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    let points = spec.expand();
    let served = par_map(&points, workers, |point| {
        let ledger = run_point(&ctx, spec, point).ledger;
        (ServeRow::from_ledger(*point, &ledger), ledger.fleet_latencies())
    });
    let mut latencies = Vec::new();
    let mut rows = Vec::with_capacity(served.len());
    for (row, lat) in served {
        rows.push(row);
        latencies.extend(lat);
    }
    latencies.sort_unstable();
    let report = ServeReport { spec: spec.clone(), rows };
    let json = report.to_json();
    Pass {
        setup_s,
        work_s: start.elapsed().as_secs_f64(),
        output: Output { report, json, latencies },
    }
}

pub fn check(spec: &ServeSpec, out: &Output, checks: &mut Checks) {
    let rows = &out.report.rows;
    checks.check("serve: one row per grid point", rows.len() == spec.num_points());
    checks.check(
        "serve: every offered frame is served or rejected",
        rows.iter().all(|r| r.admitted + r.rejected == r.tenants * spec.map.num_frames),
    );
    checks.check(
        "serve: latency percentiles are ordered",
        rows.iter().all(|r| r.p50 > 0 && r.p50 <= r.p95 && r.p95 <= r.p99),
    );
}

/// The modeled end-to-end metrics of a serve report. A rejected frame
/// counts as a deadline miss.
pub fn modeled(out: &Output) -> Vec<(&'static str, f64)> {
    let rows = &out.report.rows;
    let offered: usize = rows.iter().map(|r| r.admitted + r.rejected).sum();
    let missed: usize = rows.iter().map(|r| r.deadline_misses + r.rejected).sum();
    let capacity = rows
        .iter()
        .filter(|r| r.fleet == 1 && r.deadline_misses == 0 && r.rejected == 0)
        .map(|r| r.tenants)
        .max()
        .unwrap_or(0);
    vec![
        ("latency_p99_cycles", percentile(&out.latencies, 99) as f64),
        ("deadline_miss_frac", missed as f64 / offered as f64),
        ("slo_capacity_tenants", capacity as f64),
    ]
}

/// The traced replay: the grid again on one thread with a span around
/// each layer call (its report must equal the timed N-worker report),
/// then one all-tenant wavefront per tick and per `h_e` on the context's
/// trees, which times the accel wavefront without the scheduler.
pub fn replay(
    spec: &ServeSpec,
    reference: &Output,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Vec<(&'static str, f64)> {
    let ctx = tracer.span("serve.context", || ServiceContext::build(spec));
    let rows: Vec<ServeRow> = spec
        .expand()
        .iter()
        .map(|point| {
            let outcome = tracer.span("serve.run", || run_point(&ctx, spec, point));
            tracer.span("serve.render", || ServeRow::from_ledger(*point, &outcome.ledger))
        })
        .collect();
    let report = ServeReport { spec: spec.clone(), rows };
    let json = tracer.span("serve.render", || report.to_json());
    checks.check(
        "serve: 1-worker report equals the N-worker report",
        diff_reports(&reference.json, &json).is_none(),
    );

    let config = AcceleratorConfig::builder()
        .aggregation_elision(true)
        .dram_stream_bytes_per_cycle(SERVICE_STREAM_BYTES_PER_CYCLE)
        .build()
        .expect("the service operating point is a valid config");
    let knobs = CrescentKnobs { top_height: ctx.top_height, ..CrescentKnobs::default() };
    let reuse = ctx.tenants.iter().any(|t| t.workload.scenario.descendant_reuse());
    let mut instance = ServiceInstance::new();
    let mut batch = TaggedBatch::new();
    for &h_e in &spec.elision_depths {
        let search = StreamSearchConfig {
            radius: ctx.radius,
            max_neighbors: ctx.max_neighbors,
            elision_depth: h_e,
            descendant_reuse: reuse,
            ..StreamSearchConfig::default()
        };
        for (tick, map) in ctx.trees.iter().enumerate() {
            batch.clear();
            for (tenant, frames) in ctx.queries.iter().enumerate() {
                batch.push_segment(tenant as u64, &frames[tick]);
            }
            black_box(tracer.span("accel.wavefront", || {
                instance.run_wavefront(&map.tree, &batch, &search, knobs, &config)
            }));
        }
    }

    let rows = &reference.report.rows;
    let n = rows.len() as f64;
    vec![
        ("serve.context_s", tracer.seconds("serve.context")),
        ("serve.run_s", tracer.seconds("serve.run")),
        ("serve.run_calls", tracer.calls("serve.run") as f64),
        ("accel.wavefront_s", tracer.seconds("accel.wavefront")),
        ("accel.wavefront_calls", tracer.calls("accel.wavefront") as f64),
        ("serve.render_s", tracer.seconds("serve.render")),
        ("serve.amortization", rows.iter().map(|r| r.amortization).sum::<f64>() / n),
        ("serve.utilization", rows.iter().map(|r| r.utilization).sum::<f64>() / n),
        ("serve.wavefronts", rows.iter().map(|r| r.wavefronts as f64).sum()),
        ("serve.rejected", rows.iter().map(|r| r.rejected as f64).sum()),
        ("serve.deadline_misses", rows.iter().map(|r| r.deadline_misses as f64).sum()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The serve grid's code path, shrunk for a debug build.
    fn small(seed: u64) -> ServeSpec {
        let mut s = spec(seed);
        s.map.scene.total_points = 1_500;
        s.map.num_frames = 3;
        s.tenant_base.scene.total_points = 600;
        s.tenant_base.num_frames = 3;
        s.tenant_base.queries_per_frame = 16;
        s.tenant_counts = vec![2, 4];
        s.fleet_sizes = vec![1, 2];
        s.elision_depths = vec![0, 4];
        s
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let fp = |s: &ServeSpec| crescent_serve::serve_fingerprint(s);
        assert_eq!(fp(&spec(4)), fp(&spec(4)));
        assert_ne!(fp(&spec(4)), fp(&spec(5)));
        assert_eq!(spec(4).num_points(), 90);
    }

    #[test]
    fn modeled_metrics_repeat_across_runs_and_worker_counts() {
        let s = small(2);
        let off = Tracer::off();
        let one = pass(&s, 1, &off).output;
        assert_eq!(modeled(&one), modeled(&pass(&s, 1, &off).output));
        assert_eq!(modeled(&one), modeled(&pass(&s, 2, &off).output));
        assert_eq!(one.json, run_serve_report(&s));
    }

    fn run_serve_report(s: &ServeSpec) -> String {
        crescent_serve::run_serve(s, 2).expect("valid spec").to_json()
    }

    #[test]
    fn the_replay_reproduces_the_grid() {
        let s = small(3);
        let reference = pass(&s, 2, &Tracer::off()).output;
        let mut checks = Checks::default();
        let tracer = Tracer::new(true);
        let metrics = replay(&s, &reference, &tracer, &mut checks);
        assert_eq!(checks.failed, 0);
        let get = |n: &str| metrics.iter().find(|(m, _)| *m == n).expect("reported").1;
        assert_eq!(get("serve.run_calls"), s.num_points() as f64);
        assert_eq!(get("accel.wavefront_calls"), 2.0 * 3.0);
    }
}
