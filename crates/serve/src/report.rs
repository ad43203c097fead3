//! Machine-readable serve reports: schema-versioned JSON emission in
//! the explorer's exact-diff house style — pretty top-level header, one
//! compact row object per line — so [`crescent_explorer::diff_reports`]
//! points the CI serve gate straight at drifted service configurations.

use crescent_explorer::{Json, ReportHead};
use crescent_memsim::EnergyLedger;

use crate::ledger::ServiceLedger;
use crate::spec::{ServePoint, ServeSpec};

/// Schema identifier embedded in every serve report. Bump the version
/// suffix on any change to the layout, key set, or metric semantics —
/// the serve gate's comparator is exact, so an unversioned layout
/// change would read as inexplicable metric drift instead of an obvious
/// schema break. Field-by-field documentation lives in
/// [`docs/SERVE_SCHEMA.md`](../../../docs/SERVE_SCHEMA.md).
///
/// `v2` added the SLO controller: a `controller` grid axis + config
/// echo, per-row knob-trajectory columns (`controller`, `h_e_final`,
/// `h_e_cycles`), recall-proxy columns (`elided`, `nodes_skipped`,
/// `reuses`), the maintenance bill (`map_cycles`, `maint_alt_ticks`),
/// and per-tenant `h_e_max`.
pub const SCHEMA: &str = "crescent-serve/v2";

/// Schema identifier of the serve timings sidecar
/// ([`RunTimings`](crescent_explorer::RunTimings), written by `repro
/// serve --timings`). Versioned separately from [`SCHEMA`]: sidecar
/// layout changes never imply report drift, and vice versa. `v2` moved
/// to the sweep sidecar's layout: the context build became the one
/// `setup` entry (`context`), with a `setup_nanos` total.
pub const TIMINGS_SCHEMA: &str = "crescent-serve-timings/v2";

/// One tenant's summary inside a serve row. A compressed view of its
/// [`TenantLedger`](crate::ledger::TenantLedger): counts, tail
/// percentiles, and attributed energy — per-frame outcomes stay in the
/// in-memory ledger, the report keeps rows line-diffable.
#[derive(Clone, Debug)]
pub struct TenantRow {
    /// Tenant name (`t03-jitter` style: mix position + scenario).
    pub name: String,
    /// Arrival phase within the service period.
    pub phase: u64,
    /// The tenant's per-frame latency budget.
    pub deadline: u64,
    /// Admitted frame count.
    pub admitted: usize,
    /// Rejected frame count.
    pub rejected: usize,
    /// Deadline misses among admitted frames.
    pub misses: usize,
    /// Median admitted-frame latency (modeled cycles, nearest-rank).
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Queries answered.
    pub queries: usize,
    /// Neighbors returned.
    pub neighbors: usize,
    /// The deepest `h_e` any of the tenant's admitted frames was served
    /// at (0 = every answer exact) — the tenant-level recall exposure.
    pub h_e_max: usize,
    /// Total energy attributed to the tenant (query-share slice of its
    /// wavefronts).
    pub energy: f64,
}

impl TenantRow {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("name", Json::Str(self.name.clone())),
            ("phase", Json::U64(self.phase)),
            ("deadline", Json::U64(self.deadline)),
            ("admitted", Json::U64(self.admitted as u64)),
            ("rejected", Json::U64(self.rejected as u64)),
            ("misses", Json::U64(self.misses as u64)),
            ("p50", Json::U64(self.p50)),
            ("p95", Json::U64(self.p95)),
            ("p99", Json::U64(self.p99)),
            ("queries", Json::U64(self.queries as u64)),
            ("neighbors", Json::U64(self.neighbors as u64)),
            ("h_e_max", Json::U64(self.h_e_max as u64)),
            ("energy", Json::F64(self.energy)),
        ])
    }
}

/// One grid point's configuration echo plus its graded service ledger.
/// All metrics are *modeled* (cycles, energy units, counts) — no
/// wall-clock anywhere — so every field is bit-reproducible across
/// runs, worker counts, and machines.
#[derive(Clone, Debug)]
pub struct ServeRow {
    /// Row index == grid expansion index.
    pub index: usize,
    /// Tenants admitted to the service (prefix of the canonical mix).
    pub tenants: usize,
    /// Accelerator instances in the fleet.
    pub fleet: usize,
    /// Streaming elision depth `h_e` (0 = exact, the bit-identity
    /// reference; the controller's starting point on SLO rows).
    pub elision_depth: usize,
    /// Knob policy of the row (`"static"` / `"slo"`).
    pub controller: String,
    /// The `h_e` in force at the end of the run (== `elision_depth` on
    /// static rows).
    pub h_e_final: usize,
    /// Fleet cycles spent at each `h_e`, ascending `(h_e, cycles)`
    /// pairs — the time-at-each-`h_e` histogram of the knob trajectory.
    pub h_e_cycles: Vec<(usize, u64)>,
    /// Conflicted banked-SRAM fetches elided fleet-wide — with
    /// `nodes_skipped`, the recall proxy pricing the latency savings.
    pub conflicts_elided: u64,
    /// Tree nodes made unreachable by those elisions.
    pub nodes_skipped: u64,
    /// Elided fetches salvaged by descendant reuse.
    pub conflict_reuses: u64,
    /// Map-maintenance slot cycles charged after the controller's
    /// per-tick policy choice.
    pub map_build_cycles: u64,
    /// Ticks re-pointed at the alternate maintenance policy.
    pub alt_maintenance_ticks: usize,
    /// Admitted frames across all tenants.
    pub admitted: usize,
    /// Frames rejected by admission control.
    pub rejected: usize,
    /// Deadline misses among admitted frames.
    pub deadline_misses: usize,
    /// Fleet-wide median latency (modeled cycles, nearest-rank).
    pub p50: u64,
    /// Fleet-wide 95th-percentile latency.
    pub p95: u64,
    /// Fleet-wide 99th-percentile latency — the tail the service is
    /// graded on.
    pub p99: u64,
    /// Completion cycle of the last wavefront.
    pub makespan: u64,
    /// Wavefronts dispatched.
    pub wavefronts: usize,
    /// Wavefronts batching more than one tenant.
    pub shared_wavefronts: usize,
    /// Amortized top-tree fetches across all wavefronts.
    pub top_fetches: u64,
    /// What per-query routing would have fetched.
    pub top_fetches_unamortized: u64,
    /// `top_fetches_unamortized / top_fetches` — cross-tenant top-tree
    /// amortization actually achieved.
    pub amortization: f64,
    /// Mean fraction of the makespan the fleet was busy.
    pub utilization: f64,
    /// Queries answered across all tenants.
    pub queries: usize,
    /// Neighbors returned across all tenants.
    pub neighbors: usize,
    /// Total service energy by ledger category (map maintenance +
    /// search).
    pub energy: EnergyLedger,
    /// FNV-1a digest over every tenant's neighbor sets and admission
    /// outcomes — the one-number result identity the baseline locks.
    pub digest: u64,
    /// Per-tenant summaries, in tenant-mix order.
    pub per_tenant: Vec<TenantRow>,
}

impl ServeRow {
    /// Grades a service ledger into its report row.
    pub fn from_ledger(point: ServePoint, ledger: &ServiceLedger) -> ServeRow {
        let per_tenant = ledger
            .tenants
            .iter()
            .map(|t| TenantRow {
                name: t.name.clone(),
                phase: t.arrival_phase,
                deadline: t.deadline_cycles,
                admitted: t.admitted(),
                rejected: t.rejected(),
                misses: t.deadline_misses(),
                p50: t.latency_percentile(50),
                p95: t.latency_percentile(95),
                p99: t.latency_percentile(99),
                queries: t.queries(),
                neighbors: t.neighbors(),
                h_e_max: t.max_h_e(),
                energy: t.energy.total(),
            })
            .collect();
        ServeRow {
            index: point.index,
            tenants: point.tenants,
            fleet: point.fleet,
            elision_depth: point.elision_depth,
            controller: point.controller.label().to_string(),
            h_e_final: ledger.final_h_e(),
            h_e_cycles: ledger.time_at_h_e(),
            conflicts_elided: ledger.conflicts_elided,
            nodes_skipped: ledger.nodes_skipped,
            conflict_reuses: ledger.conflict_reuses,
            map_build_cycles: ledger.map_build_cycles,
            alt_maintenance_ticks: ledger.alt_maintenance_ticks,
            admitted: ledger.admitted(),
            rejected: ledger.rejected(),
            deadline_misses: ledger.deadline_misses(),
            p50: ledger.latency_percentile(50),
            p95: ledger.latency_percentile(95),
            p99: ledger.latency_percentile(99),
            makespan: ledger.makespan,
            wavefronts: ledger.wavefronts,
            shared_wavefronts: ledger.shared_wavefronts,
            top_fetches: ledger.top_fetches,
            top_fetches_unamortized: ledger.top_fetches_unamortized,
            amortization: ledger.amortization_factor(),
            utilization: ledger.utilization(),
            queries: ledger.tenants.iter().map(|t| t.queries()).sum(),
            neighbors: ledger.tenants.iter().map(|t| t.neighbors()).sum(),
            energy: ledger.total_energy(),
            digest: ledger.digest,
            per_tenant,
        }
    }

    /// The row as a compact JSON object (one report line).
    fn to_json(&self) -> Json {
        let mut energy: Vec<(&'static str, Json)> = self
            .energy
            .category_rows()
            .iter()
            .map(|&(name, value)| (name, Json::F64(value)))
            .collect();
        energy.push(("total", Json::F64(self.energy.total())));
        Json::Object(vec![
            ("row", Json::U64(self.index as u64)),
            ("tenants", Json::U64(self.tenants as u64)),
            ("fleet", Json::U64(self.fleet as u64)),
            ("h_e", Json::U64(self.elision_depth as u64)),
            ("controller", Json::Str(self.controller.clone())),
            ("h_e_final", Json::U64(self.h_e_final as u64)),
            (
                "h_e_cycles",
                Json::Array(
                    self.h_e_cycles
                        .iter()
                        .map(|&(h_e, cycles)| {
                            Json::Array(vec![Json::U64(h_e as u64), Json::U64(cycles)])
                        })
                        .collect(),
                ),
            ),
            ("elided", Json::U64(self.conflicts_elided)),
            ("nodes_skipped", Json::U64(self.nodes_skipped)),
            ("reuses", Json::U64(self.conflict_reuses)),
            ("map_cycles", Json::U64(self.map_build_cycles)),
            ("maint_alt_ticks", Json::U64(self.alt_maintenance_ticks as u64)),
            ("admitted", Json::U64(self.admitted as u64)),
            ("rejected", Json::U64(self.rejected as u64)),
            ("deadline_misses", Json::U64(self.deadline_misses as u64)),
            ("p50", Json::U64(self.p50)),
            ("p95", Json::U64(self.p95)),
            ("p99", Json::U64(self.p99)),
            ("makespan", Json::U64(self.makespan)),
            ("wavefronts", Json::U64(self.wavefronts as u64)),
            ("shared_wavefronts", Json::U64(self.shared_wavefronts as u64)),
            ("top_fetches", Json::U64(self.top_fetches)),
            ("top_fetches_unamortized", Json::U64(self.top_fetches_unamortized)),
            ("amortization", Json::F64(self.amortization)),
            ("utilization", Json::F64(self.utilization)),
            ("queries", Json::U64(self.queries as u64)),
            ("neighbors", Json::U64(self.neighbors as u64)),
            ("energy", Json::Object(energy)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
            ("per_tenant", Json::Array(self.per_tenant.iter().map(TenantRow::to_json).collect())),
        ])
    }
}

/// A completed serve run: the spec that produced it plus one row per
/// grid point, in expansion order.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// The spec the service ran.
    pub spec: ServeSpec,
    /// One row per grid point, ordered by [`ServeRow::index`].
    pub rows: Vec<ServeRow>,
}

/// FNV-1a fingerprint of a serve spec's canonical report echo (schema,
/// label, workload, grid). Two reports carry the same fingerprint iff
/// they were produced by byte-identical spec echoes — how the gate's
/// comparator distinguishes "different spec" from metric drift.
pub fn serve_fingerprint(spec: &ServeSpec) -> u64 {
    head(spec).fingerprint()
}

/// The report head of `spec`, in the explorer's shared layout.
fn head(spec: &ServeSpec) -> ReportHead<'_> {
    ReportHead {
        schema: SCHEMA,
        label: &spec.label,
        workload: workload_json(spec),
        grid: grid_json(spec),
    }
}

/// The workload echo of the report header: the shared map, the tenant
/// workload base, and the service-level knobs — everything about the
/// scenario that is not a grid axis. Part of the fingerprint.
fn workload_json(spec: &ServeSpec) -> Json {
    let stream = |w: &crescent::workload::FrameStreamConfig| {
        Json::Object(vec![
            ("scenario", Json::from(w.scenario.label())),
            ("total_points", Json::U64(w.scene.total_points as u64)),
            ("seed", Json::U64(w.scene.seed)),
            ("num_frames", Json::U64(w.num_frames as u64)),
            ("queries_per_frame", Json::U64(w.queries_per_frame as u64)),
            ("radius", Json::F64(w.radius as f64)),
            ("max_neighbors", w.max_neighbors.map(|k| Json::U64(k as u64)).unwrap_or(Json::Null)),
        ])
    };
    Json::Object(vec![
        ("map", stream(&spec.map)),
        ("tenant_base", stream(&spec.tenant_base)),
        ("frame_period", Json::U64(spec.frame_period)),
        ("base_deadline", Json::U64(spec.base_deadline)),
        ("max_backlog", Json::U64(spec.max_backlog as u64)),
        ("h_t", Json::U64(spec.top_height as u64)),
        (
            "controller",
            Json::Object(vec![
                ("h_e_max", Json::U64(spec.controller.h_e_max as u64)),
                ("window", Json::U64(spec.controller.window as u64)),
                ("miss_budget", Json::U64(spec.controller.miss_budget as u64)),
                ("backlog_unit", Json::U64(spec.controller.backlog_unit as u64)),
            ]),
        ),
    ])
}

/// The grid (axis) echo of the report header — part of the fingerprint.
fn grid_json(spec: &ServeSpec) -> Json {
    Json::Object(vec![
        ("tenants", Json::Array(spec.tenant_counts.iter().map(|&v| Json::U64(v as u64)).collect())),
        ("fleet", Json::Array(spec.fleet_sizes.iter().map(|&v| Json::U64(v as u64)).collect())),
        ("h_e", Json::Array(spec.elision_depths.iter().map(|&v| Json::U64(v as u64)).collect())),
        (
            "controller",
            Json::Array(spec.controller_modes.iter().map(|m| Json::from(m.label())).collect()),
        ),
    ])
}

impl ServeReport {
    /// Serializes the report ([`ReportHead::render`]): the head, then
    /// one service configuration per line. A pure function of the
    /// report — byte-identical across runs, worker counts, and machines.
    pub fn to_json(&self) -> String {
        head(&self.spec).render(&mut [("rows", &mut self.rows.iter().map(ServeRow::to_json))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::ControlMode;
    use crate::ledger::{FrameOutcome, InstanceReport, KnobPoint, TenantLedger};

    fn ledger() -> ServiceLedger {
        let frame = |admitted: bool, latency: u64, missed: bool| FrameOutcome {
            frame: 0,
            arrival: 0,
            admitted,
            wavefront: admitted.then_some(0),
            instance: admitted.then_some(0),
            start: 0,
            completion: latency,
            latency,
            queries: if admitted { 4 } else { 0 },
            neighbors: if admitted { 9 } else { 0 },
            missed,
            h_e: 0,
        };
        ServiceLedger {
            tenants: vec![
                TenantLedger {
                    name: "t00-sweep".into(),
                    scenario: "sweep".into(),
                    arrival_phase: 0,
                    deadline_cycles: 100,
                    frames: vec![frame(true, 50, false), frame(true, 120, true)],
                    energy: EnergyLedger::new(),
                },
                TenantLedger {
                    name: "t01-registered".into(),
                    scenario: "registered".into(),
                    arrival_phase: 3_000,
                    deadline_cycles: 200,
                    frames: vec![frame(true, 80, false), frame(false, 0, false)],
                    energy: EnergyLedger::new(),
                },
            ],
            instances: vec![InstanceReport { wavefronts: 3, busy_cycles: 90, free_at: 120 }],
            wavefronts: 3,
            shared_wavefronts: 1,
            top_fetches: 30,
            top_fetches_unamortized: 60,
            makespan: 120,
            map_energy: EnergyLedger::new(),
            search_energy: EnergyLedger::new(),
            knob_trajectory: vec![
                KnobPoint { wavefront: 0, start: 0, h_e: 0, latency: 50 },
                KnobPoint { wavefront: 1, start: 50, h_e: 1, latency: 40 },
                KnobPoint { wavefront: 2, start: 90, h_e: 1, latency: 30 },
            ],
            conflicts_elided: 6,
            nodes_skipped: 18,
            conflict_reuses: 2,
            map_build_cycles: 700,
            alt_maintenance_ticks: 1,
            digest: 0xfeed_f00d,
        }
    }

    fn point(index: usize) -> ServePoint {
        ServePoint { index, tenants: 2, fleet: 1, elision_depth: 0, controller: ControlMode::Slo }
    }

    #[test]
    fn row_grades_the_ledger() {
        let row = ServeRow::from_ledger(point(5), &ledger());
        assert_eq!(row.index, 5);
        assert_eq!((row.admitted, row.rejected, row.deadline_misses), (3, 1, 1));
        assert_eq!((row.p50, row.p95, row.p99), (80, 120, 120));
        assert_eq!(row.queries, 12);
        assert_eq!(row.per_tenant.len(), 2);
        assert_eq!(row.per_tenant[0].name, "t00-sweep");
        assert_eq!(row.per_tenant[0].p99, 120);
        assert_eq!(row.per_tenant[1].rejected, 1);
        assert!((row.amortization - 2.0).abs() < 1e-12);
        // v2: knob-trajectory + recall-proxy columns come from the ledger
        assert_eq!(row.controller, "slo");
        assert_eq!(row.h_e_final, 1);
        assert_eq!(row.h_e_cycles, vec![(0, 50), (1, 70)]);
        assert_eq!((row.conflicts_elided, row.nodes_skipped, row.conflict_reuses), (6, 18, 2));
        assert_eq!((row.map_build_cycles, row.alt_maintenance_ticks), (700, 1));
    }

    #[test]
    fn json_has_schema_one_row_per_line_and_is_reproducible() {
        let report = ServeReport {
            spec: ServeSpec::quick(),
            rows: vec![ServeRow::from_ledger(point(0), &ledger())],
        };
        let json = report.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"crescent-serve/v2\",\n"));
        assert!(json.contains("\n  \"fingerprint\": \""));
        assert!(json.contains("\n  \"workload\": {\"map\":"));
        assert!(json.contains(
            "\"controller\":{\"h_e_max\":4,\"window\":8,\"miss_budget\":0,\"backlog_unit\":4}"
        ));
        assert!(json.contains("\n  \"grid\": {\"tenants\":[2,4,8]"));
        assert!(json.contains("\"controller\":[\"static\",\"slo\"]"));
        assert!(json.contains("\"controller\":\"slo\""));
        assert!(json.contains("\"h_e_cycles\":[[0,50],[1,70]]"));
        assert!(json.contains("\"elided\":6"));
        assert!(json.contains("\"reuses\":2"));
        assert!(json.contains("\"h_e_max\":0,\"energy\":"), "per-tenant h_e exposure");
        let row_lines: Vec<&str> =
            json.lines().filter(|l| l.trim_start().starts_with("{\"row\":")).collect();
        assert_eq!(row_lines.len(), 1, "one row per line for line-level diffs");
        assert!(json.contains("\"digest\":\"00000000feedf00d\""));
        assert!(json.contains("\"p99\":120"));
        assert!(json.contains("\"per_tenant\":[{\"name\":\"t00-sweep\""));
        assert!(json.ends_with("}\n"));
        assert_eq!(json, report.to_json(), "serialization is a pure function");
    }

    #[test]
    fn fingerprint_identifies_the_spec_not_the_run() {
        assert_eq!(serve_fingerprint(&ServeSpec::quick()), serve_fingerprint(&ServeSpec::quick()));
        assert_ne!(serve_fingerprint(&ServeSpec::quick()), serve_fingerprint(&ServeSpec::full()));
        let mut relabeled = ServeSpec::quick();
        relabeled.label = "quick2".into();
        assert_ne!(serve_fingerprint(&ServeSpec::quick()), serve_fingerprint(&relabeled));
        let mut reaxed = ServeSpec::quick();
        reaxed.fleet_sizes.push(3);
        assert_ne!(serve_fingerprint(&ServeSpec::quick()), serve_fingerprint(&reaxed));
        let mut retuned = ServeSpec::quick();
        retuned.base_deadline += 1;
        assert_ne!(serve_fingerprint(&ServeSpec::quick()), serve_fingerprint(&retuned));
        let mut recontrolled = ServeSpec::quick();
        recontrolled.controller.window += 1;
        assert_ne!(
            serve_fingerprint(&ServeSpec::quick()),
            serve_fingerprint(&recontrolled),
            "retuning the controller is a spec change, not metric drift"
        );
        let mut remoded = ServeSpec::quick();
        remoded.controller_modes = vec![ControlMode::Static];
        assert_ne!(serve_fingerprint(&ServeSpec::quick()), serve_fingerprint(&remoded));
    }

    #[test]
    fn serve_reports_work_with_the_explorer_comparator() {
        let report = ServeReport {
            spec: ServeSpec::quick(),
            rows: vec![ServeRow::from_ledger(point(0), &ledger())],
        };
        let base = report.to_json();
        assert!(crescent_explorer::diff_reports(&base, &base).is_none());
        let mut drifted = report.clone();
        drifted.rows[0].p99 = 121;
        let msg = crescent_explorer::diff_reports(&base, &drifted.to_json()).expect("drift");
        assert!(msg.contains("p99: 120 -> 121"), "{msg}");
        let mut respecced = report.clone();
        respecced.spec.base_deadline += 1;
        let msg =
            crescent_explorer::diff_reports(&base, &respecced.to_json()).expect("spec mismatch");
        assert!(msg.contains("different spec"), "{msg}");
    }
}
