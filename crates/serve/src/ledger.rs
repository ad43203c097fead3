//! The service ledger: per-tenant frame outcomes, tail-latency
//! percentiles, deadline accounting, and fleet-wide energy rollups —
//! every number modeled, so the whole ledger is byte-stable.

use crescent_explorer::Fnv1a;
use crescent_memsim::EnergyLedger;
use crescent_pointcloud::Neighbor;

/// Nearest-rank percentile over an ascending-sorted latency slice:
/// the smallest value with at least `pct`% of the samples at or below
/// it (`sorted[ceil(pct·n/100) − 1]`). `0` for an empty slice. The
/// definition the ledger's p50/p95/p99 use everywhere — integral,
/// deterministic, no interpolation.
pub fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1);
    sorted[(rank - 1).min(n - 1) as usize]
}

/// Deadline grading, in one place for the scheduler, the controller's
/// observation stream, and the edge-case tests: a frame misses iff its
/// latency strictly exceeds its budget — `latency == budget` is a hit,
/// `budget + 1` is a miss.
pub fn deadline_missed(latency: u64, budget: u64) -> bool {
    latency > budget
}

/// One fleet-wide knob decision: the `h_e` a wavefront was dispatched
/// at, with enough schedule context to reconstruct the controller's
/// whole trajectory (and the time spent at each `h_e`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KnobPoint {
    /// Wavefront index (dispatch order).
    pub wavefront: usize,
    /// Dispatch cycle.
    pub start: u64,
    /// The `h_e` the wavefront ran at.
    pub h_e: usize,
    /// The wavefront's dispatch-to-completion latency — the cycles the
    /// fleet actually spent *at* this `h_e`.
    pub latency: u64,
}

/// Outcome of one tenant frame at the service.
#[derive(Clone, Debug)]
pub struct FrameOutcome {
    /// Tenant frame index (== service tick of its arrival).
    pub frame: usize,
    /// Arrival cycle (`frame · period + phase`).
    pub arrival: u64,
    /// Whether admission control accepted the frame. A rejected frame
    /// has no schedule, no results, and zeroed cycle fields; it counts
    /// in `rejected`, never in the latency distribution.
    pub admitted: bool,
    /// The wavefront that served the frame (admitted frames only).
    pub wavefront: Option<usize>,
    /// The fleet instance that executed that wavefront.
    pub instance: Option<usize>,
    /// Dispatch cycle of the wavefront.
    pub start: u64,
    /// Completion cycle (wavefront start + slot + pipeline fill).
    pub completion: u64,
    /// `completion − arrival`: queueing + batching + execution.
    pub latency: u64,
    /// Queries the frame contributed to its wavefront.
    pub queries: usize,
    /// Neighbors returned to this frame.
    pub neighbors: usize,
    /// Whether `latency` exceeded the tenant's deadline (the frame is
    /// still answered; misses are graded, not enforced by dropping).
    /// Graded by [`deadline_missed`].
    pub missed: bool,
    /// The `h_e` the frame's wavefront ran at (0 for rejected frames) —
    /// the per-tenant half of the knob trajectory.
    pub h_e: usize,
}

/// One tenant's view of the service run.
#[derive(Clone, Debug)]
pub struct TenantLedger {
    /// Tenant name (from the [`crescent::tenant::TenantSpec`]).
    pub name: String,
    /// Scenario label of the tenant's workload.
    pub scenario: String,
    /// Arrival phase within the service period, echoed for the report.
    pub arrival_phase: u64,
    /// The tenant's per-frame latency budget.
    pub deadline_cycles: u64,
    /// Per-frame outcomes, in frame order.
    pub frames: Vec<FrameOutcome>,
    /// Energy attributed to this tenant: its proportional (by query
    /// share) slice of every wavefront it rode.
    pub energy: EnergyLedger,
}

impl TenantLedger {
    /// Admitted frame count.
    pub fn admitted(&self) -> usize {
        self.frames.iter().filter(|f| f.admitted).count()
    }

    /// Rejected frame count.
    pub fn rejected(&self) -> usize {
        self.frames.len() - self.admitted()
    }

    /// Deadline misses among admitted frames.
    pub fn deadline_misses(&self) -> usize {
        self.frames.iter().filter(|f| f.missed).count()
    }

    /// Ascending latencies of the admitted frames.
    pub fn latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> =
            self.frames.iter().filter(|f| f.admitted).map(|f| f.latency).collect();
        v.sort_unstable();
        v
    }

    /// Nearest-rank latency percentile over the admitted frames.
    pub fn latency_percentile(&self, pct: u64) -> u64 {
        percentile(&self.latencies(), pct)
    }

    /// Total queries answered for this tenant.
    pub fn queries(&self) -> usize {
        self.frames.iter().map(|f| f.queries).sum()
    }

    /// Total neighbors returned to this tenant.
    pub fn neighbors(&self) -> usize {
        self.frames.iter().map(|f| f.neighbors).sum()
    }

    /// The deepest `h_e` any of this tenant's admitted frames was served
    /// at — the tenant-level recall-exposure headline (0 = every answer
    /// exact).
    pub fn max_h_e(&self) -> usize {
        self.frames.iter().filter(|f| f.admitted).map(|f| f.h_e).max().unwrap_or(0)
    }
}

/// Per-instance rollup of the fleet.
#[derive(Clone, Copy, Debug, Default)]
pub struct InstanceReport {
    /// Wavefronts the instance executed.
    pub wavefronts: usize,
    /// Cycles the instance spent occupied (slots + fills).
    pub busy_cycles: u64,
    /// When the instance went idle for good.
    pub free_at: u64,
}

/// The full service run ledger: per-tenant outcomes plus fleet-wide
/// scheduling and energy totals.
#[derive(Clone, Debug, Default)]
pub struct ServiceLedger {
    /// Per-tenant ledgers, in tenant-mix order.
    pub tenants: Vec<TenantLedger>,
    /// Per-instance rollups, in fleet order.
    pub instances: Vec<InstanceReport>,
    /// Total wavefronts dispatched.
    pub wavefronts: usize,
    /// Wavefronts that batched more than one tenant (the cross-tenant
    /// amortization actually firing).
    pub shared_wavefronts: usize,
    /// Amortized top-tree fetches across all wavefronts.
    pub top_fetches: u64,
    /// What per-query routing would have fetched.
    pub top_fetches_unamortized: u64,
    /// Completion cycle of the last wavefront.
    pub makespan: u64,
    /// Energy of shared map maintenance (builds/refits + their DMA and
    /// leakage), charged fleet-wide — no tenant owns the map.
    pub map_energy: EnergyLedger,
    /// Exact sum of every wavefront's energy (the per-tenant ledgers
    /// are a proportional attribution of this same quantity).
    pub search_energy: EnergyLedger,
    /// The fleet-wide knob trajectory: one entry per wavefront in
    /// dispatch order — constant under a static run, the controller's
    /// decision record under SLO control.
    pub knob_trajectory: Vec<KnobPoint>,
    /// Conflicted banked-SRAM fetches elided across all wavefronts —
    /// with [`Self::nodes_skipped`], the recall proxy that prices the
    /// controller's latency savings.
    pub conflicts_elided: u64,
    /// Tree nodes made unreachable by those elisions (each one a
    /// potential neighbor never examined).
    pub nodes_skipped: u64,
    /// Elided fetches the banked arbiter salvaged through descendant
    /// reuse (only possible at `h_e > 0`).
    pub conflict_reuses: u64,
    /// Map-maintenance slot cycles actually charged, after the
    /// controller's per-tick policy choice.
    pub map_build_cycles: u64,
    /// Ticks whose maintenance the controller re-pointed at the
    /// alternate (cheaper) policy.
    pub alt_maintenance_ticks: usize,
    /// FNV-1a digest over every tenant's neighbor sets in (tenant,
    /// frame, query) order — the one-number result identity the CI
    /// baseline locks down.
    pub digest: u64,
}

impl ServiceLedger {
    /// Admitted frames across all tenants.
    pub fn admitted(&self) -> usize {
        self.tenants.iter().map(TenantLedger::admitted).sum()
    }

    /// Rejected frames across all tenants.
    pub fn rejected(&self) -> usize {
        self.tenants.iter().map(TenantLedger::rejected).sum()
    }

    /// Deadline misses across all tenants.
    pub fn deadline_misses(&self) -> usize {
        self.tenants.iter().map(TenantLedger::deadline_misses).sum()
    }

    /// Ascending latencies of every admitted frame, fleet-wide.
    pub fn fleet_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .tenants
            .iter()
            .flat_map(|t| t.frames.iter().filter(|f| f.admitted).map(|f| f.latency))
            .collect();
        v.sort_unstable();
        v
    }

    /// Fleet-wide nearest-rank latency percentile.
    pub fn latency_percentile(&self, pct: u64) -> u64 {
        percentile(&self.fleet_latencies(), pct)
    }

    /// Map maintenance + search energy: everything the service spent.
    pub fn total_energy(&self) -> EnergyLedger {
        EnergyLedger::merged([&self.map_energy, &self.search_energy])
    }

    /// Cross-tenant top-tree amortization factor (unamortized /
    /// amortized fetches; `1.0` when no fetches happened).
    pub fn amortization_factor(&self) -> f64 {
        if self.top_fetches == 0 {
            1.0
        } else {
            self.top_fetches_unamortized as f64 / self.top_fetches as f64
        }
    }

    /// The `h_e` in force at the end of the run: the last knob decision,
    /// or 0 if no wavefront was dispatched.
    pub fn final_h_e(&self) -> usize {
        self.knob_trajectory.last().map(|k| k.h_e).unwrap_or(0)
    }

    /// Fleet cycles spent at each `h_e`, as ascending `(h_e, cycles)`
    /// pairs — the time-at-each-`h_e` histogram of the knob trajectory
    /// (a static run has exactly one entry).
    pub fn time_at_h_e(&self) -> Vec<(usize, u64)> {
        let mut hist = std::collections::BTreeMap::new();
        for k in &self.knob_trajectory {
            *hist.entry(k.h_e).or_insert(0u64) += k.latency;
        }
        hist.into_iter().collect()
    }

    /// Mean fraction of the makespan the fleet's instances were busy.
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0 || self.instances.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.instances.iter().map(|i| i.busy_cycles).sum();
        busy as f64 / (self.makespan as f64 * self.instances.len() as f64)
    }
}

/// FNV-1a digest of per-tenant service results: eats, per tenant, per
/// frame, either a rejection marker or every query's neighbor count,
/// indices, and distance bits. Two runs produce the same digest iff
/// they returned bit-identical neighbor sets with identical admission
/// outcomes.
pub fn digest_results(results: &[Vec<Option<Vec<Vec<Neighbor>>>>]) -> u64 {
    let mut h = Fnv1a::new();
    for (tenant, frames) in results.iter().enumerate() {
        h.u64(tenant as u64);
        for frame in frames {
            match frame {
                None => h.u64(u64::MAX),
                Some(queries) => {
                    h.u64(queries.len() as u64);
                    for hits in queries {
                        h.u64(hits.len() as u64);
                        for n in hits {
                            h.u64(n.index as u64);
                            h.u64(n.dist2.to_bits() as u64);
                        }
                    }
                }
            }
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = [10u64, 20, 30, 40];
        assert_eq!(percentile(&v, 50), 20);
        assert_eq!(percentile(&v, 95), 40);
        assert_eq!(percentile(&v, 99), 40);
        assert_eq!(percentile(&v, 100), 40);
        assert_eq!(percentile(&v, 1), 10);
        assert_eq!(percentile(&v, 0), 10, "pct 0 clamps to the first sample");
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
        // 100 samples: p99 is the 99th value, not the max
        let big: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&big, 50), 50);
        assert_eq!(percentile(&big, 99), 99);
    }

    fn frame(admitted: bool, latency: u64, missed: bool) -> FrameOutcome {
        FrameOutcome {
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
        }
    }

    fn tenant(frames: Vec<FrameOutcome>) -> TenantLedger {
        TenantLedger {
            name: "t00-sweep".into(),
            scenario: "sweep".into(),
            arrival_phase: 0,
            deadline_cycles: 100,
            frames,
            energy: EnergyLedger::new(),
        }
    }

    #[test]
    fn single_and_two_sample_percentiles() {
        // nearest-rank on degenerate tenants: 1 sample answers every
        // percentile; 2 samples put p50 on the first and p95/p99 on the
        // second
        let one = tenant(vec![frame(true, 42, false)]);
        assert_eq!(one.latencies(), vec![42]);
        for pct in [50, 95, 99] {
            assert_eq!(one.latency_percentile(pct), 42, "p{pct} of one sample is that sample");
        }
        let two = tenant(vec![frame(true, 70, false), frame(true, 30, false)]);
        assert_eq!(two.latencies(), vec![30, 70], "latencies sort ascending");
        assert_eq!(two.latency_percentile(50), 30, "rank ceil(50·2/100) = 1");
        assert_eq!(two.latency_percentile(95), 70, "rank ceil(95·2/100) = 2");
        assert_eq!(two.latency_percentile(99), 70);
    }

    #[test]
    fn deadline_grading_at_the_exact_boundary() {
        // latency == budget is a hit; one cycle over is a miss
        assert!(!deadline_missed(9_000, 9_000));
        assert!(deadline_missed(9_001, 9_000));
        assert!(!deadline_missed(0, 0));
        assert!(deadline_missed(1, 0));
        assert!(!deadline_missed(u64::MAX, u64::MAX));
    }

    #[test]
    fn knob_trajectory_histogram_and_final_h_e() {
        let knob = |wavefront, start, h_e, latency| KnobPoint { wavefront, start, h_e, latency };
        let ledger = ServiceLedger {
            knob_trajectory: vec![
                knob(0, 0, 0, 100),
                knob(1, 100, 1, 250),
                knob(2, 350, 1, 150),
                knob(3, 500, 0, 80),
            ],
            ..ServiceLedger::default()
        };
        assert_eq!(ledger.final_h_e(), 0);
        assert_eq!(ledger.time_at_h_e(), vec![(0, 180), (1, 400)]);
        assert_eq!(ServiceLedger::default().final_h_e(), 0, "no dispatches, exact by default");
        assert!(ServiceLedger::default().time_at_h_e().is_empty());
    }

    #[test]
    fn max_h_e_covers_only_admitted_frames() {
        let mut deep = frame(true, 10, false);
        deep.h_e = 3;
        let mut rejected_deep = frame(false, 0, false);
        rejected_deep.h_e = 7; // never happens in the scheduler, but must not leak
        let t = tenant(vec![frame(true, 10, false), deep, rejected_deep]);
        assert_eq!(t.max_h_e(), 3);
        assert_eq!(tenant(vec![]).max_h_e(), 0);
    }

    #[test]
    fn tenant_ledger_counts_and_percentiles() {
        let t = tenant(vec![
            frame(true, 50, false),
            frame(true, 200, true),
            frame(false, 0, false),
            frame(true, 80, false),
        ]);
        assert_eq!(t.admitted(), 3);
        assert_eq!(t.rejected(), 1);
        assert_eq!(t.deadline_misses(), 1);
        assert_eq!(t.latencies(), vec![50, 80, 200]);
        assert_eq!(t.latency_percentile(50), 80);
        assert_eq!(t.latency_percentile(99), 200);
        assert_eq!(t.queries(), 12);
        assert_eq!(t.neighbors(), 27);
    }

    #[test]
    fn service_ledger_rolls_up_tenants() {
        let ledger = ServiceLedger {
            tenants: vec![
                tenant(vec![frame(true, 10, false), frame(false, 0, false)]),
                tenant(vec![frame(true, 90, true)]),
            ],
            instances: vec![InstanceReport { wavefronts: 2, busy_cycles: 50, free_at: 100 }],
            wavefronts: 2,
            shared_wavefronts: 1,
            top_fetches: 10,
            top_fetches_unamortized: 40,
            makespan: 100,
            ..ServiceLedger::default()
        };
        assert_eq!(ledger.admitted(), 2);
        assert_eq!(ledger.rejected(), 1);
        assert_eq!(ledger.deadline_misses(), 1);
        assert_eq!(ledger.fleet_latencies(), vec![10, 90]);
        assert_eq!(ledger.latency_percentile(50), 10);
        assert_eq!(ledger.latency_percentile(99), 90);
        assert!((ledger.amortization_factor() - 4.0).abs() < 1e-12);
        assert!((ledger.utilization() - 0.5).abs() < 1e-12);
        assert_eq!(ServiceLedger::default().amortization_factor(), 1.0);
        assert_eq!(ServiceLedger::default().utilization(), 0.0);
    }

    #[test]
    fn digest_separates_rejections_results_and_order() {
        let hit = Neighbor { index: 3, dist2: 0.25 };
        let a = vec![vec![Some(vec![vec![hit]])]];
        let b = vec![vec![None]];
        let c = vec![vec![Some(vec![vec![]])]];
        let d = vec![vec![Some(vec![vec![Neighbor { index: 3, dist2: 0.5 }]])]];
        let digests =
            [digest_results(&a), digest_results(&b), digest_results(&c), digest_results(&d)];
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "cases {i} and {j} must differ");
            }
        }
        assert_eq!(digest_results(&a), digest_results(&a), "digest is deterministic");
    }
}
