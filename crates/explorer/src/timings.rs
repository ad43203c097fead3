//! The wall-clock sidecar: where measured time lives so it can never
//! touch the gated report bytes. One type, [`RunTimings`], serves both
//! gated runs — `repro sweep --timings` and `repro serve --timings`.
//!
//! Every metric in a [`SweepReport`](crate::SweepReport) or a serve
//! report is *modeled* — the CI gate compares reports byte-for-byte, so
//! a single wall-clock nanosecond in the report would make every run
//! unique and the gate useless. But a run's wall-clock cost is still
//! worth measuring (it is what the SoA/arena/oracle fast paths
//! optimize), so measured time gets its own channel with three
//! structural guarantees:
//!
//! 1. **Separate bytes.** Timings serialize into their own sidecar JSON
//!    ([`RunTimings::to_json`], under a sidecar schema such as
//!    [`TIMINGS_SCHEMA`]) written to a *different file*. The report
//!    renderers cannot emit them: report rows and headers have no
//!    timing fields at all.
//! 2. **Never diffed.** [`diff_reports`](crate::diff_reports) only ever
//!    sees report bytes; the sidecar is not an input to `--check`.
//! 3. **Rejected on re-entry.** The checked-in baselines are rendered by
//!    the same timing-free writers, so a report that inlined a
//!    `"timings"` section can never equal one: the comparator flags the
//!    extra section as drift and `--check` fails loudly instead of
//!    laundering wall-clock into the gated bytes.
//!
//! The sidecar echoes the spec label and fingerprint of the run that
//! produced it, so a stray sidecar can always be matched to (or rejected
//! against) its report.

use std::fmt::Write as _;

use crate::json::Json;

/// Schema identifier of the sweep's timings sidecar. Versioned
/// separately from the report schema: sidecar layout changes never
/// imply report drift, and vice versa. `v2` dropped the `shard` echo
/// line of `v1`.
pub const TIMINGS_SCHEMA: &str = "crescent-sweep-timings/v2";

/// Wall-clock measurements of one run, captured with
/// [`std::time::Instant`] around its phases
/// ([`run_sweep_timed`](crate::run_sweep_timed), or serve's
/// `run_serve_timed`).
///
/// Inherently **not** reproducible — two runs of the same spec produce
/// different numbers — which is exactly why this struct is returned
/// beside the report instead of inside it.
#[derive(Clone, Debug, Default)]
pub struct RunTimings {
    /// Wall time of the whole run, in nanoseconds.
    pub total_nanos: u64,
    /// Named set-up phases, in run order: one entry per sweep scenario
    /// (the elapsed time to render its frames and solve each frame's
    /// recall oracle, one job per frame on the worker pool), or serve's
    /// one `context` entry (map stream, tree maintenance, tenant query
    /// generation).
    pub setup: Vec<(String, u64)>,
    /// Per-grid-point cost as `(row index, nanos)`, in row order of the
    /// produced report. A sweep point is timed over its **compose**
    /// step only (its maintenance and search stages are shared across
    /// points and totalled per stage in
    /// [`SweepRunStats`](crate::SweepRunStats)); a serve point over its
    /// whole scheduler simulation.
    pub points: Vec<(usize, u64)>,
}

impl RunTimings {
    /// Total set-up wall time: the elapsed time of every set-up phase.
    pub fn setup_nanos(&self) -> u64 {
        self.setup.iter().map(|&(_, n)| n).sum()
    }

    /// Total per-point wall time, summed across workers — with an
    /// N-worker pool this exceeds the elapsed wall time of the pool
    /// phase by up to a factor of N.
    pub fn point_nanos(&self) -> u64 {
        self.points.iter().map(|&(_, n)| n).sum()
    }

    /// Renders the sidecar JSON: run identification (`schema`, the
    /// spec's `label` and `fingerprint`) followed by the measurements.
    ///
    /// One line per section, like the reports — but these bytes are for
    /// humans and dashboards, never for the exact comparator.
    pub fn to_json(&self, schema: &str, label: &str, fingerprint: u64) -> String {
        let mut out = String::with_capacity(64 * (self.points.len() + self.setup.len() + 8));
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", Json::from(schema).to_compact());
        let _ = writeln!(out, "  \"label\": {},", Json::from(label).to_compact());
        let _ = writeln!(out, "  \"fingerprint\": \"{fingerprint:016x}\",");
        let _ = writeln!(out, "  \"total_nanos\": {},", self.total_nanos);
        let _ = writeln!(out, "  \"setup_nanos\": {},", self.setup_nanos());
        let _ = writeln!(out, "  \"point_nanos\": {},", self.point_nanos());
        let setup = self.setup.iter().map(|(scenario, nanos)| {
            Json::Object(vec![
                ("scenario", Json::from(scenario.as_str())),
                ("nanos", Json::U64(*nanos)),
            ])
        });
        write_entries(&mut out, "setup", setup, ",");
        let points = self.points.iter().map(|&(row, nanos)| {
            Json::Object(vec![("row", Json::U64(row as u64)), ("nanos", Json::U64(nanos))])
        });
        write_entries(&mut out, "points", points, "");
        out.push_str("}\n");
        out
    }
}

/// One `"key": [ ... ]` array section, one compact entry per line.
fn write_entries(
    out: &mut String,
    key: &str,
    entries: impl ExactSizeIterator<Item = Json>,
    trailer: &str,
) {
    let _ = writeln!(out, "  \"{key}\": [");
    let len = entries.len();
    for (i, entry) in entries.enumerate() {
        let _ = writeln!(out, "    {}{}", entry.to_compact(), if i + 1 < len { "," } else { "" });
    }
    let _ = writeln!(out, "  ]{trailer}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::spec_fingerprint;
    use crate::spec::SweepSpec;

    fn sample() -> RunTimings {
        RunTimings {
            total_nanos: 5_000,
            setup: vec![("sweep".to_string(), 1_200), ("registered".to_string(), 800)],
            points: vec![(0, 700), (2, 900), (4, 1_100)],
        }
    }

    #[test]
    fn totals_sum_their_sections() {
        let t = sample();
        assert_eq!(t.setup_nanos(), 2_000);
        assert_eq!(t.point_nanos(), 2_700);
        assert_eq!(RunTimings::default().setup_nanos(), 0);
        assert_eq!(RunTimings::default().point_nanos(), 0);
    }

    #[test]
    fn sidecar_identifies_its_run_and_carries_every_measurement() {
        let spec = SweepSpec::quick();
        let fingerprint = spec_fingerprint(&spec);
        let json = sample().to_json(TIMINGS_SCHEMA, &spec.label, fingerprint);
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.contains(&format!("\"schema\": \"{TIMINGS_SCHEMA}\"")), "{json}");
        assert!(json.contains("\"label\": \"quick\""), "{json}");
        assert!(json.contains(&format!("\"fingerprint\": \"{fingerprint:016x}\"")), "{json}");
        assert!(json.contains("\"total_nanos\": 5000"), "{json}");
        assert!(json.contains("\"setup_nanos\": 2000"), "{json}");
        assert!(json.contains("\"point_nanos\": 2700"), "{json}");
        assert!(json.contains(r#"{"scenario":"sweep","nanos":1200}"#), "{json}");
        assert!(json.contains(r#"{"row":4,"nanos":1100}"#), "{json}");
        assert!(!json.contains("\"shard\""), "v2 sidecars carry no shard echo: {json}");
        assert!(json.ends_with("  ]\n}\n"), "{json}");
    }

    #[test]
    fn sidecar_layout_is_one_line_per_section() {
        let json = RunTimings {
            total_nanos: 9,
            setup: vec![("context".to_string(), 4)],
            points: vec![(0, 2), (1, 3)],
        }
        .to_json("s/v1", "l", 0xab);
        let want = "{\n  \"schema\": \"s/v1\",\n  \"label\": \"l\",\n  \
                    \"fingerprint\": \"00000000000000ab\",\n  \"total_nanos\": 9,\n  \
                    \"setup_nanos\": 4,\n  \"point_nanos\": 5,\n  \"setup\": [\n    \
                    {\"scenario\":\"context\",\"nanos\":4}\n  ],\n  \"points\": [\n    \
                    {\"row\":0,\"nanos\":2},\n    {\"row\":1,\"nanos\":3}\n  ]\n}\n";
        assert_eq!(json, want);
    }

    #[test]
    fn sidecar_schema_is_not_the_report_schema() {
        // the comparator rejects reports that inline timings; the
        // reverse confusion (checking a sidecar against a baseline) must
        // also fail, which it does because the schema line differs
        assert_ne!(TIMINGS_SCHEMA, crate::report::SCHEMA);
    }
}
