//! The wall-clock sidecar: where measured time lives so it can never
//! touch the gated report bytes.
//!
//! Every metric in a [`SweepReport`](crate::SweepReport) is *modeled* —
//! the CI gate compares reports byte-for-byte, so a single wall-clock
//! nanosecond in the report would make every run unique and the gate
//! useless. But the sweep's wall-clock cost is still worth measuring
//! (it is what the SoA/arena/oracle fast paths optimize), so measured
//! time gets its own channel with three structural guarantees:
//!
//! 1. **Separate bytes.** Timings serialize into their own sidecar JSON
//!    ([`SweepTimings::to_json`], schema [`TIMINGS_SCHEMA`]) written to
//!    a *different file* (`repro sweep --timings <path>`). The report
//!    renderer cannot emit them: [`SweepRow`](crate::SweepRow) and the
//!    header have no timing fields at all.
//! 2. **Never diffed.** [`diff_reports`](crate::diff_reports) only ever
//!    sees report bytes; the sidecar is not an input to `--check`.
//! 3. **Rejected on re-entry.** The checked-in baseline is rendered by
//!    the same timing-free writer, so a report that inlined a
//!    `"timings"` section can never equal it: the comparator flags the
//!    extra section as drift and `--check` fails loudly instead of
//!    laundering wall-clock into the gated bytes.
//!
//! The sidecar echoes the spec label and fingerprint of the run that
//! produced it, so a stray sidecar can always be matched to (or rejected
//! against) its report.

use std::fmt::Write as _;

use crate::json::Json;
use crate::report::spec_fingerprint;
use crate::spec::SweepSpec;

/// Schema identifier embedded in every timings sidecar. Versioned
/// separately from the report schema: sidecar layout changes never
/// imply report drift, and vice versa. `v2` dropped the `shard` echo
/// line of `v1`.
pub const TIMINGS_SCHEMA: &str = "crescent-sweep-timings/v2";

/// Wall-clock measurements of one sweep run, captured with
/// [`std::time::Instant`] around the phases of
/// [`run_sweep_timed`](crate::run_sweep_timed).
///
/// Inherently **not** reproducible — two runs of the same spec produce
/// different numbers — which is exactly why this struct is returned
/// beside the report instead of inside it.
#[derive(Clone, Debug, Default)]
pub struct SweepTimings {
    /// Wall time of the whole run (every scenario's setup and stages),
    /// in nanoseconds.
    pub total_nanos: u64,
    /// Per-scenario setup cost, in scenario order: rendering the frame
    /// stream, solving the recall oracle, and building frame 0's tree.
    pub setup: Vec<(String, u64)>,
    /// Per-grid-point cost as `(row index, nanos)`, in row order
    /// of the produced report. Since the sweep runs as a stage cascade
    /// this times only the point's **compose** step: the maintenance and
    /// search stages are shared across points and totalled
    /// per stage in [`SweepRunStats`](crate::SweepRunStats) instead.
    pub points: Vec<(usize, u64)>,
}

impl SweepTimings {
    /// Total scenario-setup wall time (the serial prologue).
    pub fn setup_nanos(&self) -> u64 {
        self.setup.iter().map(|&(_, n)| n).sum()
    }

    /// Total per-point (compose) wall time, summed across workers.
    pub fn point_nanos(&self) -> u64 {
        self.points.iter().map(|&(_, n)| n).sum()
    }

    /// Renders the sidecar JSON: run identification (schema, spec label,
    /// fingerprint) followed by the measurements.
    ///
    /// One line per section, like the report — but these bytes are for
    /// humans and dashboards, never for the exact comparator.
    pub fn to_json(&self, spec: &SweepSpec) -> String {
        let mut out = String::with_capacity(64 * (self.points.len() + self.setup.len() + 8));
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", Json::from(TIMINGS_SCHEMA).to_compact());
        let _ = writeln!(out, "  \"label\": {},", Json::from(spec.label.as_str()).to_compact());
        let _ = writeln!(out, "  \"fingerprint\": \"{:016x}\",", spec_fingerprint(spec));
        let _ = writeln!(out, "  \"total_nanos\": {},", self.total_nanos);
        let _ = writeln!(out, "  \"setup_nanos\": {},", self.setup_nanos());
        let _ = writeln!(out, "  \"point_nanos\": {},", self.point_nanos());
        out.push_str("  \"setup\": [\n");
        for (i, (scenario, nanos)) in self.setup.iter().enumerate() {
            let entry = Json::Object(vec![
                ("scenario", Json::from(scenario.as_str())),
                ("nanos", Json::U64(*nanos)),
            ]);
            let _ = writeln!(
                out,
                "    {}{}",
                entry.to_compact(),
                if i + 1 < self.setup.len() { "," } else { "" }
            );
        }
        out.push_str("  ],\n");
        out.push_str("  \"points\": [\n");
        for (i, &(row, nanos)) in self.points.iter().enumerate() {
            let entry =
                Json::Object(vec![("row", Json::U64(row as u64)), ("nanos", Json::U64(nanos))]);
            let _ = writeln!(
                out,
                "    {}{}",
                entry.to_compact(),
                if i + 1 < self.points.len() { "," } else { "" }
            );
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SweepTimings {
        SweepTimings {
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
        assert_eq!(SweepTimings::default().setup_nanos(), 0);
        assert_eq!(SweepTimings::default().point_nanos(), 0);
    }

    #[test]
    fn sidecar_identifies_its_run_and_carries_every_measurement() {
        let spec = SweepSpec::quick();
        let json = sample().to_json(&spec);
        assert!(json.starts_with("{\n"), "{json}");
        assert!(json.contains(&format!("\"schema\": \"{TIMINGS_SCHEMA}\"")), "{json}");
        assert!(json.contains("\"label\": \"quick\""), "{json}");
        assert!(
            json.contains(&format!("\"fingerprint\": \"{:016x}\"", spec_fingerprint(&spec))),
            "{json}"
        );
        assert!(json.contains("\"total_nanos\": 5000"), "{json}");
        assert!(json.contains("\"setup_nanos\": 2000"), "{json}");
        assert!(json.contains("\"point_nanos\": 2700"), "{json}");
        assert!(json.contains(r#"{"scenario":"sweep","nanos":1200}"#), "{json}");
        assert!(json.contains(r#"{"row":4,"nanos":1100}"#), "{json}");
        assert!(!json.contains("\"shard\""), "v2 sidecars carry no shard echo: {json}");
    }

    #[test]
    fn sidecar_schema_is_not_the_report_schema() {
        // the comparator rejects reports that inline timings; the
        // reverse confusion (checking a sidecar against a baseline) must
        // also fail, which it does because the schema line differs
        assert_ne!(TIMINGS_SCHEMA, crate::report::SCHEMA);
    }
}
