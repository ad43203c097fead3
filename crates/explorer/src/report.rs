//! Machine-readable sweep reports: schema-versioned JSON emission, the
//! per-scenario Pareto summary, and the exact drift comparator the CI
//! gate runs against the checked-in baseline.

use std::path::Path;

use crescent_memsim::EnergyLedger;

use crate::fnv::Fnv1a;
use crate::json::Json;
use crate::spec::SweepSpec;

/// Schema identifier embedded in every report. Bump the `/v6` suffix on
/// any change to the report layout, key set, or metric semantics — the
/// CI comparator is exact, so an unversioned layout change would show up
/// as inexplicable metric drift instead of an obvious schema break.
///
/// `v6` (this version): the seven engine cross-check columns are gone,
/// and the Pareto fronts rank the stream alone — ⟨`pipelined_cycles`,
/// `energy.total`, `recall`⟩. `v5` dropped the `"shard": null` header
/// line. Field-by-field documentation lives in
/// [`docs/SWEEP_SCHEMA.md`](../../../docs/SWEEP_SCHEMA.md).
pub const SCHEMA: &str = "crescent-sweep/v6";

/// One sweep point's configuration echo plus its modeled metrics. All
/// metrics are *modeled* (cycles, bytes, energy units, recall against a
/// brute-force oracle) — no wall-clock anywhere — so every field is
/// bit-reproducible across runs, worker counts, and machines.
#[derive(Clone, Debug)]
pub struct SweepRow {
    /// Row index == grid expansion index.
    pub index: usize,
    /// Scenario label (see `StreamScenario::label`).
    pub scenario: &'static str,
    /// Maintenance-policy label (see `maintenance_label`).
    pub maintenance: &'static str,
    /// Neighbor-search PE count.
    pub num_pes: usize,
    /// Tree-buffer capacity in KiB.
    pub tree_kb: usize,
    /// Tree-buffer bank count the fetches are arbitrated over.
    pub tree_banks: usize,
    /// Streaming DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Whether Point-Buffer aggregation conflicts are elided
    /// (replicated) instead of serialized.
    pub aggregation_elision: bool,
    /// Top-tree height `h_t`.
    pub top_height: usize,
    /// Streaming elision depth `h_e` (depth-from-leaves; 0 = exact
    /// stall-only search).
    pub elision_depth: usize,
    /// Whether the stream ran the banked arbiter with descendant reuse
    /// (the Sec 4.2 salvage on elided fetches). Scenario-derived: `true`
    /// exactly on `descendant_reuse` rows.
    pub descendant_reuse: bool,
    /// The `h_t` the sweep *granted*: the requested height clamped into
    /// the Sec 3.3 feasibility range of the point's tree buffer against
    /// frame 0's tree — the coupling through which cache geometry
    /// constrains the split depth. The stream additionally clamps to
    /// each actual tree's height, so a frame whose tree ends up
    /// shallower than this (or an infeasibly small tree buffer, for
    /// which no feasible range exists and the requested `h_t` passes
    /// through) runs at its own tighter clamp.
    pub top_height_used: usize,
    /// Frames simulated.
    pub frames: usize,
    /// Total queries across the stream.
    pub queries: usize,
    /// Total neighbors returned.
    pub neighbors: usize,
    /// Stream latency with inter-frame double buffering.
    pub pipelined_cycles: u64,
    /// No-overlap upper bound.
    pub serial_cycles: u64,
    /// Total tree-maintenance slot cycles.
    pub build_cycles: u64,
    /// Total DRAM traffic, search + maintenance (bytes).
    pub dram_bytes: u64,
    /// Mean cross-frame sub-tree assignment reuse.
    pub mean_reuse: f64,
    /// Stage-2 lock-step arbitration rounds summed over the stream —
    /// the banked tree buffer's share of the search compute.
    pub arb_rounds: u64,
    /// Tree-buffer fetch attempts that lost bank arbitration.
    pub bank_conflicts: u64,
    /// Rounds in which at least one fetch stalled on a conflict.
    pub conflict_stall_cycles: u64,
    /// Conflicted fetches dropped by `h_e` elision (0 on `h_e = 0`
    /// rows — the gated exactness witness).
    pub elided_conflicts: u64,
    /// Elision-eligible conflicts salvaged by descendant reuse instead
    /// of dropped (0 unless `descendant_reuse` is on).
    pub conflict_reuses: u64,
    /// Aggregation-unit gather rounds summed over the stream.
    pub agg_cycles: u64,
    /// Aggregation conflicts resolved by replication.
    pub agg_elided: u64,
    /// Frames that (re)built the tree from scratch.
    pub full_rebuilds: usize,
    /// Sub-trees rebuilt in place by incremental refits.
    pub subtrees_rebuilt: usize,
    /// Energy by ledger category (serialized via
    /// `EnergyLedger::category_rows`).
    pub energy: EnergyLedger,
    /// Mean recall of the stream's approximate neighbor sets against
    /// the exact brute-force baseline (1.0 = every exact neighbor
    /// found). The streaming path models the two-stage split AND bank
    /// conflict elision, so both `h_t` and `h_e` move it.
    pub recall: f64,
    /// FNV-1a fingerprint of every stream neighbor set (indices +
    /// distance bits) — two rows with equal digests produced
    /// bit-identical results.
    pub digest: u64,
}

impl SweepRow {
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
            ("scenario", Json::from(self.scenario)),
            ("maintenance", Json::from(self.maintenance)),
            ("num_pes", Json::U64(self.num_pes as u64)),
            ("tree_kb", Json::U64(self.tree_kb as u64)),
            ("tree_banks", Json::U64(self.tree_banks as u64)),
            ("dram_bytes_per_cycle", Json::F64(self.dram_bytes_per_cycle)),
            ("agg_elision", Json::Bool(self.aggregation_elision)),
            ("h_t", Json::U64(self.top_height as u64)),
            ("h_e", Json::U64(self.elision_depth as u64)),
            ("descendant_reuse", Json::Bool(self.descendant_reuse)),
            ("h_t_used", Json::U64(self.top_height_used as u64)),
            ("frames", Json::U64(self.frames as u64)),
            ("queries", Json::U64(self.queries as u64)),
            ("neighbors", Json::U64(self.neighbors as u64)),
            ("pipelined_cycles", Json::U64(self.pipelined_cycles)),
            ("serial_cycles", Json::U64(self.serial_cycles)),
            ("build_cycles", Json::U64(self.build_cycles)),
            ("dram_bytes", Json::U64(self.dram_bytes)),
            ("mean_reuse", Json::F64(self.mean_reuse)),
            ("arb_rounds", Json::U64(self.arb_rounds)),
            ("bank_conflicts", Json::U64(self.bank_conflicts)),
            ("conflict_stall_cycles", Json::U64(self.conflict_stall_cycles)),
            ("elided_conflicts", Json::U64(self.elided_conflicts)),
            ("conflict_reuses", Json::U64(self.conflict_reuses)),
            ("agg_cycles", Json::U64(self.agg_cycles)),
            ("agg_elided", Json::U64(self.agg_elided)),
            ("full_rebuilds", Json::U64(self.full_rebuilds as u64)),
            ("subtrees_rebuilt", Json::U64(self.subtrees_rebuilt as u64)),
            ("energy", Json::Object(energy)),
            ("recall", Json::F64(self.recall)),
            ("digest", Json::Str(format!("{:016x}", self.digest))),
        ])
    }
}

/// A completed sweep: the spec that produced it plus one row per grid
/// point, in grid order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The spec the sweep ran.
    pub spec: SweepSpec,
    /// One row per grid point, ordered by [`SweepRow::index`] (so
    /// `rows[i].index == i`).
    pub rows: Vec<SweepRow>,
}

/// FNV-1a fingerprint of a spec's canonical report echo (schema, label,
/// workload, grid). Two reports carry the same fingerprint iff they were
/// produced by byte-identical spec echoes — a cheap identity check that
/// also lets a stray timings sidecar be matched to its report.
pub fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    head(spec).fingerprint()
}

/// The head every grid report opens with — schema, label, and the
/// spec's workload and grid echoes — and the one place both the head
/// bytes and the spec fingerprint are made. The sweep and the serve
/// report differ only in these four parts and in their line-per-item
/// sections.
pub struct ReportHead<'a> {
    /// Schema identifier of the report layout.
    pub schema: &'a str,
    /// The spec's label.
    pub label: &'a str,
    /// The workload echo: everything about the spec that is not a grid
    /// axis.
    pub workload: Json,
    /// The grid (axis) echo.
    pub grid: Json,
}

impl ReportHead<'_> {
    /// FNV-1a fingerprint of the four head parts: equal iff the two
    /// specs echo byte-identical heads.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for part in [self.schema, self.label, &self.workload.to_compact(), &self.grid.to_compact()]
        {
            h.bytes(part.as_bytes());
            h.bytes(b"\n");
        }
        h.finish()
    }

    /// Renders a whole report: pretty top-level structure (the head
    /// lines, then each `(key, items)` section in order) with every
    /// item on its own compact line, so [`diff_reports`] can point at
    /// an individual grid point when a metric drifts. A pure function
    /// of its inputs.
    pub fn render(
        &self,
        sections: &mut [(&str, &mut dyn ExactSizeIterator<Item = Json>)],
    ) -> String {
        let items: usize = sections.iter().map(|(_, items)| items.len()).sum();
        let mut out = String::with_capacity(1024 + 512 * items);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", Json::from(self.schema).to_compact()));
        out.push_str(&format!("  \"label\": {},\n", Json::from(self.label).to_compact()));
        out.push_str(&format!("  \"fingerprint\": \"{:016x}\",\n", self.fingerprint()));
        out.push_str(&format!("  \"workload\": {},\n", self.workload.to_compact()));
        out.push_str(&format!("  \"grid\": {},\n", self.grid.to_compact()));
        let last_section = sections.len().saturating_sub(1);
        for (s, (key, items)) in sections.iter_mut().enumerate() {
            out.push_str(&format!("  {}: [\n", Json::from(*key).to_compact()));
            let last_item = items.len().saturating_sub(1);
            for (i, item) in items.enumerate() {
                out.push_str("    ");
                item.write(&mut out);
                out.push_str(if i < last_item { ",\n" } else { "\n" });
            }
            out.push_str(if s < last_section { "  ],\n" } else { "  ]\n" });
        }
        out.push_str("}\n");
        out
    }
}

impl SweepReport {
    /// The per-scenario Pareto fronts over the stream's cycles × energy ×
    /// accuracy triple — `pipelined_cycles`, the total ledger energy and
    /// `recall`. For each scenario label, the row indices not
    /// dominated by any other row *of the same scenario* (comparing
    /// operating points across different workloads would be
    /// meaningless). A row dominates another if it is no worse on all
    /// three objectives and strictly better on at least one.
    pub fn pareto(&self) -> Vec<(String, Vec<usize>)> {
        let mut scenarios: Vec<&str> = Vec::new();
        for r in &self.rows {
            if !scenarios.contains(&r.scenario) {
                scenarios.push(r.scenario);
            }
        }
        scenarios
            .into_iter()
            .map(|scenario| {
                let members: Vec<Objectives> = self
                    .rows
                    .iter()
                    .filter(|r| r.scenario == scenario)
                    .map(|r| (r.index, r.pipelined_cycles, r.energy.total(), r.recall))
                    .collect();
                let front = members
                    .iter()
                    .filter(|a| !members.iter().any(|b| dominates(b, a)))
                    .map(|&(index, ..)| index)
                    .collect();
                (scenario.to_string(), front)
            })
            .collect()
    }

    /// Serializes the report ([`ReportHead::render`]): the head, one
    /// row per line, then one Pareto front per line. Byte-identical
    /// across runs and worker counts.
    pub fn to_json(&self) -> String {
        let mut rows = self.rows.iter().map(SweepRow::to_json);
        let mut fronts = self.pareto().into_iter().map(|(scenario, rows)| {
            Json::Object(vec![
                ("scenario", Json::Str(scenario)),
                ("rows", Json::Array(rows.into_iter().map(|r| Json::U64(r as u64)).collect())),
            ])
        });
        head(&self.spec).render(&mut [("rows", &mut rows), ("pareto", &mut fronts)])
    }
}

/// A row's Pareto objectives: `(index, cycles, energy, recall)`.
type Objectives = (usize, u64, f64, f64);

/// Whether `b` Pareto-dominates `a`: no worse on cycles, energy and
/// recall, and strictly better on at least one.
fn dominates(&(bi, bc, be, br): &Objectives, &(ai, ac, ae, ar): &Objectives) -> bool {
    bi != ai && bc <= ac && be <= ae && br >= ar && (bc < ac || be < ae || br > ar)
}

/// The report head of `spec`: its workload echo (an axis-independent
/// pure function of the spec) and its grid (axis) echo.
fn head(spec: &SweepSpec) -> ReportHead<'_> {
    ReportHead {
        schema: SCHEMA,
        label: &spec.label,
        workload: workload_json(spec),
        grid: grid_json(spec),
    }
}

fn workload_json(spec: &SweepSpec) -> Json {
    let w = &spec.workload;
    Json::Object(vec![
        ("total_points", Json::U64(w.scene.total_points as u64)),
        ("seed", Json::U64(w.scene.seed)),
        ("num_frames", Json::U64(w.num_frames as u64)),
        ("queries_per_frame", Json::U64(w.queries_per_frame as u64)),
        ("radius", Json::F64(w.radius as f64)),
        // an unbounded cap is `null`, not a u64::MAX sentinel — the
        // report must stay readable by float-backed JSON parsers
        ("max_neighbors", w.max_neighbors.map(|k| Json::U64(k as u64)).unwrap_or(Json::Null)),
        ("noise_m", Json::F64(w.noise_m as f64)),
        ("max_range", Json::F64(w.max_range as f64)),
    ])
}

fn grid_json(spec: &SweepSpec) -> Json {
    Json::Object(vec![
        ("scenarios", Json::Array(spec.scenarios.iter().map(|s| Json::from(s.label())).collect())),
        (
            "maintenance",
            Json::Array(
                spec.maintenance
                    .iter()
                    .map(|&m| Json::from(crate::spec::maintenance_label(m)))
                    .collect(),
            ),
        ),
        ("num_pes", Json::Array(spec.num_pes.iter().map(|&v| Json::U64(v as u64)).collect())),
        ("tree_kb", Json::Array(spec.tree_kb.iter().map(|&v| Json::U64(v as u64)).collect())),
        (
            "dram_bytes_per_cycle",
            Json::Array(spec.dram_bytes_per_cycle.iter().map(|&v| Json::F64(v)).collect()),
        ),
        ("tree_banks", Json::Array(spec.tree_banks.iter().map(|&v| Json::U64(v as u64)).collect())),
        (
            "agg_elision",
            Json::Array(spec.aggregation_elision.iter().map(|&v| Json::Bool(v)).collect()),
        ),
        ("h_t", Json::Array(spec.top_heights.iter().map(|&v| Json::U64(v as u64)).collect())),
        ("h_e", Json::Array(spec.elision_depths.iter().map(|&v| Json::U64(v as u64)).collect())),
    ])
}

/// Exact report comparator: `None` when `fresh` is byte-identical to
/// `baseline`, otherwise a human-readable drift summary listing the
/// first differing lines (a line is one sweep row, so the summary points
/// straight at the drifted configurations). The comparison is exact on
/// purpose — every metric is modeled, so ANY difference is a real
/// behavioural change that must be either fixed or acknowledged by
/// refreshing the baseline.
pub fn diff_reports(baseline: &str, fresh: &str) -> Option<String> {
    if baseline == fresh {
        return None;
    }
    const MAX_SHOWN: usize = 8;
    let base_lines: Vec<&str> = baseline.lines().collect();
    let fresh_lines: Vec<&str> = fresh.lines().collect();
    // A header mismatch means the two reports describe different specs
    // (e.g. a full-grid report checked against the quick baseline, or a
    // schema bump): say that directly instead of dumping hundreds of
    // "drifted" rows that read like a behavioural regression.
    fn header_line<'a>(lines: &[&'a str], key: &str) -> &'a str {
        lines.iter().find(|l| l.trim_start().starts_with(key)).copied().unwrap_or("<missing>")
    }
    for key in ["\"schema\":", "\"label\":", "\"fingerprint\":", "\"workload\":", "\"grid\":"] {
        let b = header_line(&base_lines, key);
        let f = header_line(&fresh_lines, key);
        if b != f {
            return Some(format!(
                "sweep baseline was produced by a different spec — not metric drift\n  \
                 baseline {key} {}\n  fresh    {key} {}\n  \
                 (run the matching spec, or regenerate the baseline for this one)\n",
                b.trim().trim_start_matches(key).trim_end_matches(','),
                f.trim().trim_start_matches(key).trim_end_matches(',')
            ));
        }
    }
    let mut msg = String::from("sweep report drifted from baseline\n");
    if base_lines.len() != fresh_lines.len() {
        msg.push_str(&format!(
            "  line count: baseline {} vs fresh {} (grid shape or schema changed?)\n",
            base_lines.len(),
            fresh_lines.len()
        ));
    }
    let mut differing = 0usize;
    let mut field_histogram: Vec<(String, usize)> = Vec::new();
    for (i, (b, f)) in base_lines.iter().zip(&fresh_lines).enumerate() {
        if b == f {
            continue;
        }
        differing += 1;
        let shown = differing <= MAX_SHOWN;
        match field_level_diff(b, f) {
            Some(fields) if !fields.is_empty() => {
                for (name, _, _) in &fields {
                    match field_histogram.iter_mut().find(|(n, _)| n == name) {
                        Some((_, count)) => *count += 1,
                        None => field_histogram.push((name.clone(), 1)),
                    }
                }
                if shown {
                    let detail: Vec<String> = fields
                        .iter()
                        .map(|(name, was, now)| format!("{name}: {was} -> {now}"))
                        .collect();
                    msg.push_str(&format!("  line {}: {}\n", i + 1, detail.join("; ")));
                }
            }
            _ if shown => {
                // not a row object (header / structure): fall back to
                // whole-line diff
                msg.push_str(&format!("  line {}:\n  - {}\n  + {}\n", i + 1, b.trim(), f.trim()));
            }
            _ => {}
        }
    }
    let extra = base_lines.len().abs_diff(fresh_lines.len());
    differing += extra;
    if differing > MAX_SHOWN {
        msg.push_str(&format!("  ... {} differing line(s) total\n", differing));
    }
    if !field_histogram.is_empty() {
        field_histogram.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let summary: Vec<String> =
            field_histogram.iter().map(|(name, count)| format!("{name} x{count}")).collect();
        msg.push_str(&format!("  drifted fields across all rows: {}\n", summary.join(", ")));
    }
    Some(msg)
}

/// The one baseline gate of both grids: reads the checked-in report at
/// `path` and compares `fresh` against it with [`diff_reports`], so it
/// passes exactly when the two are byte-identical. The error names an
/// unreadable baseline or carries the drift summary. `repro sweep
/// --check`, `repro serve --check` and the in-repo gate tests all call
/// it.
pub fn check_baseline(path: &Path, fresh: &str) -> Result<(), String> {
    let baseline = std::fs::read_to_string(path)
        .map_err(|err| format!("cannot read baseline {}: {err}", path.display()))?;
    diff_reports(&baseline, fresh).map_or(Ok(()), Err)
}

/// Splits one compact JSON object line (a report row) into its top-level
/// `(key, raw value)` pairs. Returns `None` for lines that are not a
/// single object — the comparator then falls back to whole-line output.
/// Used only by [`diff_reports`].
fn top_level_fields(line: &str) -> Option<Vec<(String, String)>> {
    let t = line.trim().trim_end_matches(',');
    let inner = t.strip_prefix('{')?.strip_suffix('}')?;
    let mut fields = Vec::new();
    let (mut depth, mut in_str, mut escaped) = (0usize, false, false);
    let mut token = String::new();
    // key:value — the key is a quoted string, the value is raw text
    fn push(token: &mut String, fields: &mut Vec<(String, String)>) -> Option<()> {
        if token.is_empty() {
            return Some(());
        }
        let (key, value) = token.split_once(':')?;
        fields.push((key.trim().trim_matches('"').to_string(), value.trim().to_string()));
        token.clear();
        Some(())
    }
    for c in inner.chars() {
        match c {
            '"' if !escaped => in_str = !in_str,
            '{' | '[' if !in_str => depth += 1,
            '}' | ']' if !in_str => depth = depth.checked_sub(1)?,
            ',' if !in_str && depth == 0 => {
                push(&mut token, &mut fields)?;
                continue;
            }
            _ => {}
        }
        escaped = c == '\\' && !escaped;
        token.push(c);
    }
    push(&mut token, &mut fields)?;
    (!fields.is_empty()).then_some(fields)
}

/// The field-by-field difference between two row lines:
/// `(field, baseline value, fresh value)` triples, in row order.
/// `None` when either line is not a row object or the key sets differ
/// (a schema change, which the header check upstream already names).
fn field_level_diff(base: &str, fresh: &str) -> Option<Vec<(String, String, String)>> {
    let b = top_level_fields(base)?;
    let f = top_level_fields(fresh)?;
    if b.len() != f.len() || b.iter().zip(&f).any(|((bk, _), (fk, _))| bk != fk) {
        return None;
    }
    Some(
        b.into_iter()
            .zip(f)
            .filter(|((_, bv), (_, fv))| bv != fv)
            .map(|((k, bv), (_, fv))| (k, bv, fv))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn row(
        index: usize,
        scenario: &'static str,
        cycles: u64,
        energy: f64,
        recall: f64,
    ) -> SweepRow {
        let mut ledger = EnergyLedger::new();
        ledger.compute = energy;
        SweepRow {
            index,
            scenario,
            maintenance: "rebuild",
            num_pes: 4,
            tree_kb: 6,
            tree_banks: 4,
            dram_bytes_per_cycle: 20.48,
            aggregation_elision: true,
            top_height: 4,
            elision_depth: 4,
            descendant_reuse: false,
            top_height_used: 4,
            frames: 2,
            queries: 8,
            neighbors: 16,
            pipelined_cycles: cycles,
            serial_cycles: cycles + 5,
            build_cycles: 10,
            dram_bytes: 1024,
            mean_reuse: 0.5,
            arb_rounds: 40,
            bank_conflicts: 7,
            conflict_stall_cycles: 5,
            elided_conflicts: 2,
            conflict_reuses: 0,
            agg_cycles: 12,
            agg_elided: 3,
            full_rebuilds: 2,
            subtrees_rebuilt: 0,
            energy: ledger,
            recall,
            digest: 0xdead_beef,
        }
    }

    fn report(rows: Vec<SweepRow>) -> SweepReport {
        SweepReport { spec: SweepSpec::quick(), rows }
    }

    #[test]
    fn pareto_keeps_only_nondominated_rows_per_scenario() {
        // row 1 dominates row 0 (faster, cheaper, same recall); row 2
        // trades energy for speed vs row 1 -> both stay; row 3 is a
        // different scenario and never competes with the others
        let r = report(vec![
            row(0, "sweep", 100, 10.0, 0.9),
            row(1, "sweep", 50, 5.0, 0.9),
            row(2, "sweep", 40, 8.0, 0.9),
            row(3, "registered", 1000, 100.0, 0.5),
        ]);
        let fronts = r.pareto();
        assert_eq!(fronts.len(), 2);
        assert_eq!(fronts[0], ("sweep".to_string(), vec![1, 2]));
        assert_eq!(fronts[1], ("registered".to_string(), vec![3]));
    }

    #[test]
    fn identical_metrics_all_survive_pareto() {
        let r = report(vec![row(0, "sweep", 50, 5.0, 0.9), row(1, "sweep", 50, 5.0, 0.9)]);
        assert_eq!(r.pareto()[0].1, vec![0, 1], "ties dominate nobody");
    }

    #[test]
    fn json_has_schema_one_row_per_line_and_is_reproducible() {
        let r = report(vec![row(0, "sweep", 100, 10.0, 0.875), row(1, "sweep", 50, 5.0, 1.0)]);
        let json = r.to_json();
        assert!(json.starts_with("{\n  \"schema\": \"crescent-sweep/v6\",\n"));
        assert!(json.contains("\n  \"fingerprint\": \""), "header carries the spec fingerprint");
        assert!(!json.contains("\"shard\""), "v6 headers have no shard line");
        assert!(!json.contains("engine"), "v6 rows carry no engine cross-check column");
        assert_eq!(json.matches("{\"row\":").count(), 2);
        let row_lines: Vec<&str> =
            json.lines().filter(|l| l.trim_start().starts_with("{\"row\":")).collect();
        assert_eq!(row_lines.len(), 2, "one row per line for line-level diffs");
        assert!(json.contains("\"digest\":\"00000000deadbeef\""));
        assert!(json.contains("\"recall\":0.875"));
        assert!(json.ends_with("}\n"));
        assert_eq!(json, r.to_json(), "serialization is a pure function");
    }

    #[test]
    fn diff_reports_none_on_identical_and_points_at_lines() {
        let a = "l1\nl2\nl3\n";
        assert!(diff_reports(a, a).is_none());
        let drift = diff_reports("l1\nl2\nl3\n", "l1\nl2x\nl3\n").expect("drift");
        assert!(drift.contains("line 2"), "{drift}");
        assert!(drift.contains("- l2"), "{drift}");
        assert!(drift.contains("+ l2x"), "{drift}");
        let shape = diff_reports("l1\n", "l1\nl2\n").expect("drift");
        assert!(shape.contains("line count"), "{shape}");
    }

    #[test]
    fn diff_reports_lists_the_drifted_fields_of_a_row() {
        let mut base = report(vec![row(0, "sweep", 100, 10.0, 0.9), row(1, "sweep", 50, 5.0, 0.8)]);
        let mut fresh = base.clone();
        fresh.rows[1].pipelined_cycles = 51;
        fresh.rows[1].elided_conflicts = 7;
        // keep the headers identical so the row comparator runs
        base.spec.label = "quick".into();
        fresh.spec.label = "quick".into();
        let msg = diff_reports(&base.to_json(), &fresh.to_json()).expect("drift");
        assert!(msg.contains("pipelined_cycles: 50 -> 51"), "{msg}");
        assert!(msg.contains("elided_conflicts: 2 -> 7"), "{msg}");
        assert!(
            msg.contains("drifted fields across all rows:"),
            "summary histogram missing: {msg}"
        );
        assert!(msg.contains("elided_conflicts x1"), "{msg}");
        // undrifted fields are not named
        assert!(!msg.contains("serial_cycles:"), "{msg}");
    }

    #[test]
    fn field_parser_handles_nested_objects_and_strings() {
        let line =
            r#"    {"row":3,"scenario":"sweep","energy":{"a":1.0,"b":2.0},"digest":"00ff"},"#;
        let fields = top_level_fields(line).expect("parses");
        assert_eq!(fields[0], ("row".to_string(), "3".to_string()));
        assert_eq!(fields[1], ("scenario".to_string(), "\"sweep\"".to_string()));
        assert_eq!(fields[2], ("energy".to_string(), "{\"a\":1.0,\"b\":2.0}".to_string()));
        assert_eq!(fields[3], ("digest".to_string(), "\"00ff\"".to_string()));
        assert!(top_level_fields("  \"label\": \"quick\",").is_none(), "not an object");
        let diff = field_level_diff(r#"{"a":1,"b":{"x":2}}"#, r#"{"a":1,"b":{"x":3}}"#)
            .expect("same keys");
        assert_eq!(diff, vec![("b".to_string(), "{\"x\":2}".to_string(), "{\"x\":3}".to_string())]);
    }

    #[test]
    fn diff_reports_names_spec_mismatch_instead_of_metric_drift() {
        let quick = report(vec![row(0, "sweep", 100, 10.0, 0.9)]).to_json();
        let mut full_spec = SweepSpec::full();
        full_spec.label = "full".to_string();
        let full =
            SweepReport { spec: full_spec, rows: vec![row(0, "sweep", 100, 10.0, 0.9)] }.to_json();
        let msg = diff_reports(&quick, &full).expect("different specs differ");
        assert!(msg.contains("different spec"), "{msg}");
        assert!(!msg.contains("drifted from baseline"), "{msg}");
    }

    #[test]
    fn fingerprint_identifies_the_spec_not_the_run() {
        let quick = SweepSpec::quick();
        assert_eq!(spec_fingerprint(&quick), spec_fingerprint(&SweepSpec::quick()));
        assert_ne!(spec_fingerprint(&quick), spec_fingerprint(&SweepSpec::full()));
        let mut relabeled = SweepSpec::quick();
        relabeled.label = "quick2".to_string();
        assert_ne!(spec_fingerprint(&quick), spec_fingerprint(&relabeled));
        let mut reaxed = SweepSpec::quick();
        reaxed.elision_depths.push(2);
        assert_ne!(spec_fingerprint(&quick), spec_fingerprint(&reaxed));
    }
}
