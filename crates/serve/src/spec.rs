//! Declarative serve specifications: a grid over service-level knobs
//! (tenant count, fleet size, elision depth) around one shared map
//! workload and one tenant workload base.
//!
//! Like the explorer's `SweepSpec`, expansion order is fixed and
//! documented so a report row index identifies the same service
//! configuration forever — the property the checked-in
//! `bench/serve-baseline.json` relies on.

use crescent::tenant::DEADLINE_TIERS;
use crescent::workload::{FrameStreamConfig, StreamScenario};
use crescent_accel::TreeMaintenance;
use crescent_pointcloud::datasets::LidarSceneConfig;

use crate::controller::{ControlMode, ControllerConfig};

/// A serve grid: every combination of `tenant_counts` × `fleet_sizes` ×
/// `elision_depths` × `controller_modes` runs the same multi-tenant
/// service scenario (shared map, canonical tenant mix, one scheduler)
/// and produces one report row.
#[derive(Clone, Debug)]
pub struct ServeSpec {
    /// Human-readable name (`"quick"`, `"full"`), echoed in the report.
    pub label: String,
    /// The shared world-map stream the service maintains one tree per
    /// tick for. Its `scenario`/`maintenance` are honored (the canonical
    /// specs use a registered map with refit maintenance); its
    /// `queries_per_frame` should be 0 — the map answers queries, it
    /// does not ask them.
    pub map: FrameStreamConfig,
    /// Base workload for the tenant mix
    /// ([`crescent::tenant::mixed_tenants`] overrides `scenario` and
    /// `scene.seed` per tenant and the context forces `num_frames` to
    /// the map's tick count). `radius` / `max_neighbors` of the service
    /// search come from here.
    pub tenant_base: FrameStreamConfig,
    /// Modeled cycles between service ticks (frame arrivals repeat every
    /// period, map trees advance every period).
    pub frame_period: u64,
    /// Base per-frame latency budget; tenants get tier multiples of it
    /// (see [`crescent::tenant::mixed_tenants`]).
    pub base_deadline: u64,
    /// Admission bound: a frame arriving while this many admitted frames
    /// are still queued (not yet dispatched) is rejected.
    pub max_backlog: usize,
    /// Top-tree height `h_t` granted to every wavefront (clamped
    /// per-tree like the stream driver).
    pub top_height: usize,
    /// Tenant-count axis (outermost).
    pub tenant_counts: Vec<usize>,
    /// Fleet-size axis.
    pub fleet_sizes: Vec<usize>,
    /// Streaming elision-depth axis `h_e`; `0` rows are the exact
    /// reference the approximate rows are judged against. Under
    /// [`ControlMode::Slo`] this is the controller's *initial* `h_e`.
    pub elision_depths: Vec<usize>,
    /// Knob-policy axis (innermost): [`ControlMode::Static`] pins `h_e`,
    /// [`ControlMode::Slo`] lets the feedback controller step it per
    /// wavefront. Adjacent rows of the expansion therefore differ only
    /// in the controller — the comparison the closed-loop story is
    /// graded on.
    pub controller_modes: Vec<ControlMode>,
    /// Tuning of the SLO controller (shared by every
    /// [`ControlMode::Slo`] point; ignored by static points but still
    /// fingerprinted, so retuning is visible as a spec change).
    pub controller: ControllerConfig,
}

/// One expanded grid point, in expansion order.
#[derive(Clone, Copy, Debug)]
pub struct ServePoint {
    /// Position in the expanded grid (== report row index).
    pub index: usize,
    /// Number of admitted tenants (a prefix of the canonical mix).
    pub tenants: usize,
    /// Accelerator instances in the fleet.
    pub fleet: usize,
    /// Streaming elision depth `h_e` (the controller's starting point
    /// under [`ControlMode::Slo`]).
    pub elision_depth: usize,
    /// Knob policy of this point.
    pub controller: ControlMode,
}

impl ServeSpec {
    /// The CI-scale spec behind `bench/serve-baseline.json`: a 6-tick
    /// registered map under refit maintenance, tenant mixes of 2 / 4 / 8
    /// (the 8-tenant mix covers 8 distinct canonical scenarios), fleets
    /// of 1 and 2, `h_e ∈ {0, 4}`, and both knob policies (static and
    /// SLO-controlled) — 24 points, seconds to run.
    pub fn quick() -> Self {
        let defaults = FrameStreamConfig::default();
        let map = FrameStreamConfig {
            scene: LidarSceneConfig { total_points: 6_000, seed: 0x5EED_5E4E, ..defaults.scene },
            num_frames: 6,
            queries_per_frame: 0,
            scenario: StreamScenario::Registered,
            maintenance: TreeMaintenance::refit(),
            ..defaults
        };
        let tenant_base = FrameStreamConfig {
            scene: LidarSceneConfig { total_points: 2_000, seed: 0x5EED_7E4A, ..defaults.scene },
            num_frames: 6,
            queries_per_frame: 48,
            ..defaults
        };
        ServeSpec {
            label: "quick".to_string(),
            map,
            tenant_base,
            frame_period: 3000,
            base_deadline: 4500,
            max_backlog: 10,
            top_height: 4,
            tenant_counts: vec![2, 4, 8],
            fleet_sizes: vec![1, 2],
            elision_depths: vec![0, 4],
            controller_modes: vec![ControlMode::Static, ControlMode::Slo],
            controller: ControllerConfig::default(),
        }
    }

    /// The offline spec the weekly timings job runs: a denser map,
    /// longer stream, tenant mixes up to 16 (wrapping the canonical
    /// scenario matrix), fleets up to 4, three elision depths, both
    /// knob policies — 90 points.
    pub fn full() -> Self {
        let mut spec = ServeSpec::quick();
        spec.label = "full".to_string();
        spec.map.scene.total_points = 12_000;
        spec.map.num_frames = 8;
        spec.tenant_base.scene.total_points = 3_000;
        spec.tenant_base.num_frames = 8;
        spec.tenant_base.queries_per_frame = 64;
        spec.frame_period = 2_000;
        spec.base_deadline = 5_000;
        spec.max_backlog = 24;
        spec.tenant_counts = vec![2, 4, 8, 12, 16];
        spec.fleet_sizes = vec![1, 2, 4];
        spec.elision_depths = vec![0, 2, 4];
        spec
    }

    /// Number of grid points.
    pub fn num_points(&self) -> usize {
        self.tenant_counts.len()
            * self.fleet_sizes.len()
            * self.elision_depths.len()
            * self.controller_modes.len()
    }

    /// The largest tenant count on the axis (the canonical mix is built
    /// once at this size; smaller points use a prefix).
    pub fn max_tenants(&self) -> usize {
        self.tenant_counts.iter().copied().max().unwrap_or(0)
    }

    /// Expands the grid in fixed order: tenants (outermost) → fleet →
    /// elision depth → controller mode (innermost, so a static row and
    /// its controller-on twin are adjacent).
    pub fn expand(&self) -> Vec<ServePoint> {
        let mut points = Vec::with_capacity(self.num_points());
        for &tenants in &self.tenant_counts {
            for &fleet in &self.fleet_sizes {
                for &elision_depth in &self.elision_depths {
                    for &controller in &self.controller_modes {
                        points.push(ServePoint {
                            index: points.len(),
                            tenants,
                            fleet,
                            elision_depth,
                            controller,
                        });
                    }
                }
            }
        }
        points
    }

    /// Validates the spec before an expensive run.
    pub fn validate(&self) -> Result<(), String> {
        if self.label.is_empty() {
            return Err("spec label must not be empty".into());
        }
        if self.map.num_frames == 0 {
            return Err("map must have at least one tick".into());
        }
        if self.frame_period == 0 {
            return Err("frame period must be >= 1 cycle".into());
        }
        if self.base_deadline == 0 {
            return Err("base deadline must be >= 1 cycle".into());
        }
        // every absolute deadline is an arrival before the last tick's
        // end plus a tiered budget; all of it must fit the modeled clock
        let largest_tier = DEADLINE_TIERS.iter().max().copied().unwrap_or(1);
        let last_deadline = (self.map.num_frames as u64)
            .checked_mul(self.frame_period)
            .zip(self.base_deadline.checked_mul(largest_tier))
            .and_then(|(last_arrival, budget)| last_arrival.checked_add(budget));
        if last_deadline.is_none() {
            return Err(format!(
                "deadline overflow: base deadline {} cycles × tier {largest_tier} after the last \
                 arrival ({} ticks × {} cycles) exceeds the u64 cycle clock",
                self.base_deadline, self.map.num_frames, self.frame_period
            ));
        }
        if self.max_backlog == 0 {
            return Err("max backlog must admit at least one frame".into());
        }
        if self.tenant_base.queries_per_frame == 0 {
            return Err("tenants must issue at least one query per frame".into());
        }
        self.tenant_base.validate_search().map_err(|e| format!("tenant_base: {e}"))?;
        self.controller.validate()?;
        for (name, empty) in [
            ("tenant_counts", self.tenant_counts.is_empty()),
            ("fleet_sizes", self.fleet_sizes.is_empty()),
            ("elision_depths", self.elision_depths.is_empty()),
            ("controller_modes", self.controller_modes.is_empty()),
        ] {
            if empty {
                return Err(format!("{name} axis must not be empty"));
            }
        }
        if self.tenant_counts.contains(&0) {
            return Err("tenant counts must be >= 1".into());
        }
        if self.fleet_sizes.contains(&0) {
            return Err("fleet sizes must be >= 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_specs_validate_and_expand_in_fixed_order() {
        for spec in [ServeSpec::quick(), ServeSpec::full()] {
            spec.validate().expect("canonical specs are valid");
            let points = spec.expand();
            assert_eq!(points.len(), spec.num_points());
            for (i, p) in points.iter().enumerate() {
                assert_eq!(p.index, i);
            }
        }
        let quick = ServeSpec::quick().expand();
        assert_eq!(quick.len(), 24);
        // innermost axis is the controller mode: static/slo twins are adjacent
        let key = |p: &ServePoint| (p.tenants, p.fleet, p.elision_depth, p.controller);
        assert_eq!(key(&quick[0]), (2, 1, 0, ControlMode::Static));
        assert_eq!(key(&quick[1]), (2, 1, 0, ControlMode::Slo));
        assert_eq!(key(&quick[2]), (2, 1, 4, ControlMode::Static));
        assert_eq!(key(&quick[4]), (2, 2, 0, ControlMode::Static));
        assert_eq!(key(&quick[16]), (8, 1, 0, ControlMode::Static), "the overload corner");
        assert_eq!(key(&quick[17]), (8, 1, 0, ControlMode::Slo), "its controller-on twin");
        assert_eq!(quick[23].tenants, 8, "last point is the 8-tenant mix");
        assert_eq!(ServeSpec::quick().max_tenants(), 8);
        assert_eq!(ServeSpec::full().max_tenants(), 16);
        assert_eq!(ServeSpec::full().num_points(), 90);
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut s = ServeSpec::quick();
        s.tenant_counts.clear();
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.fleet_sizes = vec![0];
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.frame_period = 0;
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.max_backlog = 0;
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.base_deadline = 0;
        assert_eq!(s.validate(), Err("base deadline must be >= 1 cycle".to_string()));
        let mut s = ServeSpec::quick();
        s.tenant_base.queries_per_frame = 0;
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.label.clear();
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.map.num_frames = 0;
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.tenant_counts = vec![0];
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.controller_modes.clear();
        assert!(s.validate().is_err());
        let mut s = ServeSpec::quick();
        s.controller.window = 0;
        assert!(s.validate().is_err(), "controller tuning is validated with the spec");
    }

    #[test]
    fn validation_rejects_a_deadline_past_the_cycle_clock() {
        // 2^63 cycles is a valid u64, but its 4x tier is not
        let mut s = ServeSpec::quick();
        s.base_deadline = 1 << 63;
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("deadline overflow"), "{err}");
        // the last arrival counts too: a budget that only just fits
        // the clock on its own overflows once added to it
        let mut s = ServeSpec::quick();
        s.base_deadline = u64::MAX / 4;
        assert!(s.validate().unwrap_err().starts_with("deadline overflow"));
        let mut s = ServeSpec::quick();
        s.frame_period = u64::MAX;
        assert!(s.validate().unwrap_err().starts_with("deadline overflow"));
        // the largest deadline that fits is accepted
        let mut s = ServeSpec::quick();
        let last_arrival = s.map.num_frames as u64 * s.frame_period;
        s.base_deadline = (u64::MAX - last_arrival) / 4;
        s.validate().expect("a deadline that fits the clock is valid");
    }

    #[test]
    fn validation_rejects_an_unusable_search() {
        for radius in [f32::NAN, f32::INFINITY, 0.0, -1.0] {
            let mut s = ServeSpec::quick();
            s.tenant_base.radius = radius;
            let err = s.validate().unwrap_err();
            assert!(err.starts_with("tenant_base: search radius"), "radius {radius}: {err}");
        }
        let mut s = ServeSpec::quick();
        s.tenant_base.max_neighbors = Some(0);
        let err = s.validate().unwrap_err();
        assert!(err.starts_with("tenant_base: max_neighbors"), "{err}");
        s.tenant_base.max_neighbors = None;
        s.validate().expect("an unbounded cap is valid");
    }
}
