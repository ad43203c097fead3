//! Tenant workload types for the multi-tenant streaming service
//! (`crescent-serve`).
//!
//! A *tenant* is one subscriber of the shared neighbor-search service: a
//! seeded [`FrameStream`](crate::FrameStream) acting as its query
//! source, plus the service-level contract attached to it — when its
//! frames arrive relative to the service tick ([`TenantSpec::arrival_phase`])
//! and how long each frame may take before it counts as a deadline miss
//! ([`TenantSpec::deadline_cycles`]). The scheduler in `crescent-serve`
//! admits tenant frames, batches their ready queries into shared
//! wavefronts, and grades every frame against this contract.
//!
//! [`mixed_tenants`] builds the canonical deterministic N-tenant mix the
//! serve grid and its CI baseline use: scenarios cycle through
//! [`StreamScenario::canonical_matrix`], seeds and phases are derived
//! from the tenant index alone, and deadlines cycle through three
//! latency tiers so deadline-aware dispatch has something to reorder.

use crate::workload::{FrameStreamConfig, StreamScenario};

/// One tenant of the streaming service: a seeded query workload plus its
/// arrival phase and per-frame latency contract.
#[derive(Clone, Debug)]
pub struct TenantSpec {
    /// Stable tenant name (report key; `"t03-urban_canyon"` style for
    /// the canonical mixes).
    pub name: String,
    /// The tenant's frame stream. Its `scenario` shapes the query
    /// distribution; frame `k`'s queries are issued to the service at
    /// `k · frame_period + arrival_phase` modeled cycles.
    pub workload: FrameStreamConfig,
    /// Offset of this tenant's frame arrivals within the service frame
    /// period, in modeled cycles.
    pub arrival_phase: u64,
    /// Per-frame latency budget in modeled cycles: a frame whose
    /// completion minus arrival exceeds this is a deadline miss (it is
    /// still answered — the miss is recorded, not enforced by dropping).
    pub deadline_cycles: u64,
}

impl TenantSpec {
    /// Absolute deadline of frame `k` given the service frame period.
    pub fn deadline_at(&self, frame: usize, frame_period: u64) -> u64 {
        self.arrival_at(frame, frame_period) + self.deadline_cycles
    }

    /// Arrival time of frame `k` given the service frame period.
    pub fn arrival_at(&self, frame: usize, frame_period: u64) -> u64 {
        frame as u64 * frame_period + self.arrival_phase
    }
}

/// Splitmix64 — the same deterministic index-to-seed mixer the workload
/// layer uses for per-frame noise, reused here so tenant seeds are a
/// pure function of the tenant index.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Deadline tiers of the canonical mix, as multiples of the base budget:
/// tenant `i` gets tier `i % 3` — interactive (1×), standard (2×),
/// batch (4×) — so EDF dispatch actually reorders arrivals.
pub const DEADLINE_TIERS: [u64; 3] = [1, 2, 4];

/// Builds the canonical deterministic mix of `count` tenants from a
/// shared base workload.
///
/// Tenant `i` (zero-based):
///
/// * runs scenario `canonical_matrix()[i % 10]` — a ≥ 10-tenant mix
///   covers every canonical workload shape — except that in mixes of
///   2..=9 tenants the **last** tenant runs
///   [`StreamScenario::DescendantReuse`] instead, so every multi-tenant
///   mix exercises the banked arbiter's reuse-salvage path (which the
///   matrix otherwise parks at index 9, out of reach of the canonical
///   8-tenant serve mixes);
/// * reseeds the base scene with `splitmix(i + 1)` so no two tenants
///   share a point cloud or query sequence;
/// * arrives at phase `i · frame_period / count`, spreading the mix
///   evenly across the service period;
/// * gets deadline tier `i % 3` ([`DEADLINE_TIERS`] × `base_deadline`).
///
/// Everything is a pure function of `(count, base, frame_period,
/// base_deadline)` — the property the byte-exact serve baseline relies
/// on.
pub fn mixed_tenants(
    count: usize,
    base: &FrameStreamConfig,
    frame_period: u64,
    base_deadline: u64,
) -> Vec<TenantSpec> {
    let matrix = StreamScenario::canonical_matrix();
    (0..count)
        .map(|i| {
            let scenario = if i + 1 == count && (2..matrix.len()).contains(&count) {
                StreamScenario::DescendantReuse { clusters: 4 }
            } else {
                matrix[i % matrix.len()]
            };
            let mut workload = *base;
            workload.scenario = scenario;
            workload.scene.seed = base.scene.seed ^ splitmix(i as u64 + 1);
            TenantSpec {
                name: format!("t{i:02}-{}", scenario.label()),
                workload,
                arrival_phase: (i as u64).wrapping_mul(frame_period) / count.max(1) as u64,
                deadline_cycles: base_deadline * DEADLINE_TIERS[i % DEADLINE_TIERS.len()],
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> FrameStreamConfig {
        FrameStreamConfig::default()
    }

    #[test]
    fn mix_is_a_pure_function_of_its_inputs() {
        let a = mixed_tenants(8, &base(), 6_000, 12_000);
        let b = mixed_tenants(8, &base(), 6_000, 12_000);
        assert_eq!(a.len(), 8);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.arrival_phase, y.arrival_phase);
            assert_eq!(x.deadline_cycles, y.deadline_cycles);
            assert_eq!(x.workload.scene.seed, y.workload.scene.seed);
        }
    }

    #[test]
    fn small_mixes_end_with_a_descendant_reuse_tenant() {
        // mixes of 2..=9 swap their last tenant to DescendantReuse so
        // batched dispatch exercises the reuse-salvage path; 1-tenant
        // and >= 10-tenant mixes follow the matrix untouched
        for count in 2..10 {
            let tenants = mixed_tenants(count, &base(), 6_000, 12_000);
            let last = &tenants[count - 1];
            assert_eq!(
                last.name,
                format!("t{:02}-descendant_reuse", count - 1),
                "mix of {count} must cover reuse"
            );
            assert!(last.workload.scenario.descendant_reuse());
            assert!(
                tenants[..count - 1].iter().all(|t| !t.workload.scenario.descendant_reuse()),
                "only the last tenant is overridden"
            );
        }
        assert_eq!(mixed_tenants(1, &base(), 6_000, 12_000)[0].name, "t00-sweep");
        let ten = mixed_tenants(10, &base(), 6_000, 12_000);
        assert_eq!(ten[9].name, "t09-descendant_reuse", "index 9 is reuse by the matrix itself");
    }

    #[test]
    fn mix_covers_scenarios_and_staggers_contracts() {
        let tenants = mixed_tenants(12, &base(), 6_000, 12_000);
        // scenarios cycle through the canonical matrix
        assert_eq!(tenants[0].name, "t00-sweep");
        assert_eq!(tenants[1].name, "t01-registered");
        assert_eq!(tenants[10].name, "t10-sweep", "11th tenant wraps the matrix");
        // seeds are all distinct
        let mut seeds: Vec<u64> = tenants.iter().map(|t| t.workload.scene.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 12, "no two tenants share a scene seed");
        // phases spread inside one period, in order
        for w in tenants.windows(2) {
            assert!(w[0].arrival_phase <= w[1].arrival_phase);
        }
        assert!(tenants.iter().all(|t| t.arrival_phase < 6_000));
        // deadline tiers cycle 1x / 2x / 4x
        assert_eq!(tenants[0].deadline_cycles, 12_000);
        assert_eq!(tenants[1].deadline_cycles, 24_000);
        assert_eq!(tenants[2].deadline_cycles, 48_000);
        assert_eq!(tenants[3].deadline_cycles, 12_000);
    }

    #[test]
    fn arrival_and_deadline_schedules() {
        let t = &mixed_tenants(4, &base(), 1_000, 500)[1];
        assert_eq!(t.arrival_phase, 250);
        assert_eq!(t.arrival_at(0, 1_000), 250);
        assert_eq!(t.arrival_at(3, 1_000), 3_250);
        assert_eq!(t.deadline_at(3, 1_000), 3_250 + t.deadline_cycles);
    }

    #[test]
    fn zero_count_mix_is_empty() {
        assert!(mixed_tenants(0, &base(), 1_000, 500).is_empty());
    }
}
