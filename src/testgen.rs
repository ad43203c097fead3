//! Test-support generators: adversarial random stream scenarios.
//!
//! Property tests and the scenario fuzzer (`tests/scenario_fuzz.rs`)
//! need whole random *workloads*, not just random values: an arbitrary
//! ego trajectory, an arbitrary [`StreamScenario`] with arbitrary
//! parameters, arbitrary density/dropout/query-count knobs — composed
//! into one [`FrameStreamConfig`] and driven end to end through
//! [`Crescent::run_stream`](crescent::Crescent::run_stream). This module
//! packages that composition as a reusable proptest [`Strategy`]
//! ([`ScenarioGen`]) plus a greedy structural shrinker
//! ([`shrink_failing`]) for the vendored proptest stub, which does not
//! shrink on its own.
//!
//! It lives in the umbrella package's library (rather than a
//! `#[cfg(test)]` module) so the workspace-level integration tests can
//! reuse it. No library crate depends on this package, so `repro`, the
//! gates and the benchmark compile no proptest.

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;

use crescent::workload::{EgoMotion, FrameStreamConfig, StreamScenario};
use crescent_accel::TreeMaintenance;

/// Strategy generating adversarial [`FrameStreamConfig`]s.
///
/// Every draw picks one of the ten [`StreamScenario`] shapes with
/// randomized parameters (occlusion wedges, dropout rates, speed
/// multipliers, sensor counts, query clusters, …), a random ego
/// trajectory (including stationary and spinning-in-place ones), a
/// random world size/seed, and random search knobs — deliberately
/// including the edges: zero queries per frame, single-frame streams,
/// `h_e = 0`, unlimited neighbor caps.
///
/// The bounds keep a single case affordable in CI; raise them for
/// deeper local hunts.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioGen {
    /// Upper bound (exclusive) on the world's point count.
    pub max_points: usize,
    /// Upper bound (inclusive) on the number of frames.
    pub max_frames: usize,
    /// Upper bound (inclusive) on queries per frame (0 is always a
    /// candidate — zero-query frames are a known-sharp edge).
    pub max_queries: usize,
}

impl Default for ScenarioGen {
    fn default() -> Self {
        ScenarioGen { max_points: 2_000, max_frames: 6, max_queries: 64 }
    }
}

impl ScenarioGen {
    fn scenario(&self, rng: &mut TestRng, num_frames: usize) -> StreamScenario {
        match rng.below(10) {
            0 => StreamScenario::Sweep,
            1 => StreamScenario::Registered,
            2 => StreamScenario::DynamicObjects { movers: 1 + rng.below(5) as usize },
            3 => StreamScenario::VariableDensity {
                min_keep_pct: 10 + rng.below(81) as u8,
                period: 2 + rng.below(5) as usize,
            },
            4 => StreamScenario::RotationBurst {
                at_frame: rng.below(num_frames.max(1) as u64) as usize,
                yaw_rad: (rng.unit_f64() as f32 - 0.5) * 4.0,
            },
            5 => StreamScenario::UrbanCanyon {
                sectors: 1 + rng.below(9) as usize,
                dropout_pct: rng.below(61) as u8,
            },
            6 => StreamScenario::Highway {
                speed_mult: 1.0 + rng.unit_f64() as f32 * 5.0,
                keep_pct: 5 + rng.below(96) as u8,
            },
            7 => StreamScenario::MultiSensor { sensors: 1 + rng.below(3) as usize },
            8 => StreamScenario::Weather { dropout_pct: rng.below(81) as u8 },
            _ => StreamScenario::DescendantReuse { clusters: 1 + rng.below(7) as usize },
        }
    }
}

impl Strategy for ScenarioGen {
    type Value = FrameStreamConfig;

    fn new_value(&self, rng: &mut TestRng) -> FrameStreamConfig {
        let mut cfg = FrameStreamConfig::default();
        cfg.scene.total_points =
            400 + rng.below(self.max_points.saturating_sub(400).max(1) as u64) as usize;
        cfg.scene.seed = rng.next_u64();
        cfg.num_frames = 1 + rng.below(self.max_frames.max(1) as u64) as usize;
        cfg.queries_per_frame = rng.below(self.max_queries as u64 + 1) as usize;
        cfg.ego = EgoMotion {
            speed_mps: rng.unit_f64() as f32 * 15.0,
            yaw_rate_rps: (rng.unit_f64() as f32 - 0.5),
            frame_period_s: 0.05 + rng.unit_f64() as f32 * 0.1,
        };
        cfg.max_range = 8.0 + rng.unit_f64() as f32 * 22.0;
        cfg.noise_m = rng.unit_f64() as f32 * 0.05;
        cfg.radius = 0.15 + rng.unit_f64() as f32 * 0.75;
        cfg.max_neighbors = match rng.below(4) {
            0 => None,
            _ => Some(1 + rng.below(40) as usize),
        };
        cfg.scenario = self.scenario(rng, cfg.num_frames);
        cfg.maintenance = if rng.below(2) == 0 {
            TreeMaintenance::RebuildEveryFrame
        } else {
            TreeMaintenance::refit()
        };
        cfg.elision_depth = rng.below(8) as usize;
        cfg
    }
}

/// Greedy structural shrinker for a failing [`FrameStreamConfig`].
///
/// The vendored proptest stub reproduces failures deterministically but
/// does not shrink them. This helper closes the gap: given a config on
/// which `fails` returns `true`, it repeatedly tries order-reducing
/// transformations — fewer frames, fewer points, fewer queries, zero
/// noise, a stationary ego, simpler scenario parameters — keeping each
/// step only if the failure survives, until no transformation makes the
/// case smaller. The result is the minimal config to check in as a
/// named regression test.
pub fn shrink_failing<F: Fn(&FrameStreamConfig) -> bool>(
    start: FrameStreamConfig,
    fails: F,
) -> FrameStreamConfig {
    assert!(fails(&start), "shrink_failing needs a failing case to start from");
    let mut cfg = start;
    loop {
        let mut shrunk = false;
        let candidates: [fn(&FrameStreamConfig) -> FrameStreamConfig; 8] = [
            |c| {
                let mut n = *c;
                n.num_frames = (n.num_frames / 2).max(1);
                n
            },
            |c| {
                let mut n = *c;
                n.num_frames = n.num_frames.saturating_sub(1).max(1);
                n
            },
            |c| {
                let mut n = *c;
                n.scene.total_points = (n.scene.total_points / 2).max(64);
                n
            },
            |c| {
                let mut n = *c;
                n.queries_per_frame /= 2;
                n
            },
            |c| {
                let mut n = *c;
                n.noise_m = 0.0;
                n
            },
            |c| {
                let mut n = *c;
                n.ego = EgoMotion { speed_mps: 0.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
                n
            },
            |c| {
                let mut n = *c;
                n.scenario = StreamScenario::Registered;
                n
            },
            |c| {
                let mut n = *c;
                n.elision_depth = 0;
                n
            },
        ];
        for candidate in &candidates {
            let next = candidate(&cfg);
            if !same_config(&next, &cfg) && fails(&next) {
                cfg = next;
                shrunk = true;
            }
        }
        if !shrunk {
            return cfg;
        }
    }
}

/// Structural equality on the fields [`shrink_failing`] mutates (the
/// config does not implement `PartialEq` because of its float fields).
fn same_config(a: &FrameStreamConfig, b: &FrameStreamConfig) -> bool {
    a.num_frames == b.num_frames
        && a.scene.total_points == b.scene.total_points
        && a.queries_per_frame == b.queries_per_frame
        && a.noise_m == b.noise_m
        && a.ego.speed_mps == b.ego.speed_mps
        && a.ego.yaw_rate_rps == b.ego.yaw_rate_rps
        && a.scenario == b.scenario
        && a.elision_depth == b.elision_depth
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_label() {
        let strat = ScenarioGen::default();
        let mut a = TestRng::deterministic("testgen");
        let mut b = TestRng::deterministic("testgen");
        for _ in 0..32 {
            let x = strat.new_value(&mut a);
            let y = strat.new_value(&mut b);
            assert!(same_config(&x, &y));
            assert_eq!(x.scene.seed, y.scene.seed);
        }
    }

    #[test]
    fn generator_hits_every_scenario_shape_and_the_sharp_edges() {
        let strat = ScenarioGen::default();
        let mut rng = TestRng::deterministic("coverage");
        let mut labels = std::collections::BTreeSet::new();
        let mut saw_zero_queries = false;
        let mut saw_single_frame = false;
        let mut saw_exact = false;
        for _ in 0..256 {
            let cfg = strat.new_value(&mut rng);
            labels.insert(cfg.scenario.label());
            saw_zero_queries |= cfg.queries_per_frame == 0;
            saw_single_frame |= cfg.num_frames == 1;
            saw_exact |= cfg.elision_depth == 0;
            assert!(cfg.num_frames >= 1 && cfg.num_frames <= strat.max_frames);
            assert!(cfg.scene.total_points >= 400);
            assert!(cfg.queries_per_frame <= strat.max_queries);
        }
        assert_eq!(labels.len(), 10, "all ten scenario shapes drawn: {labels:?}");
        assert!(saw_zero_queries && saw_single_frame && saw_exact);
    }

    #[test]
    fn shrinker_reaches_a_fixpoint_and_preserves_failure() {
        let strat = ScenarioGen::default();
        let mut rng = TestRng::deterministic("shrink");
        let cfg = strat.new_value(&mut rng);
        // a synthetic "failure": any stream with at least one frame
        let fails = |c: &FrameStreamConfig| c.num_frames >= 1;
        let min = shrink_failing(cfg, fails);
        assert!(fails(&min));
        assert_eq!(min.num_frames, 1);
        assert_eq!(min.scene.total_points, 64);
        assert_eq!(min.queries_per_frame, 0);
        assert_eq!(min.noise_m, 0.0);
        assert_eq!(min.elision_depth, 0);
        assert!(min.scenario == StreamScenario::Registered);
    }
}
