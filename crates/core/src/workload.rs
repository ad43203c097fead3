//! Streaming multi-frame LiDAR workloads: seeded sequences of
//! temporally-coherent frames plus the glue that runs them through the
//! accelerator's streaming pipeline driver.
//!
//! The paper's headline numbers are about sustained throughput on real
//! point-cloud pipelines, which consume consecutive sensor sweeps, not
//! isolated clouds. [`FrameStream`] opens that workload dimension: it
//! generates one static synthetic world with the
//! [`generate_scene`] generator, then renders it from a moving ego
//! vehicle — per frame the
//! sensor pose advances by the configured [`EgoMotion`] and the world is
//! transformed into the sensor frame with per-frame measurement noise.
//! Consecutive frames therefore share most of their geometry (the
//! temporal coherence the batched search and the engine's incremental
//! tree maintenance exploit) while every frame still has a fresh noise
//! realization.
//!
//! The [`StreamScenario`] knob shapes the stream to stress the
//! [`TreeMaintenance`] policy from different angles: raw azimuthal
//! sweeps (unstable point identity), registered motion-compensated
//! streams (the refit-friendly case), dynamic objects entering and
//! leaving the scene, oscillating point density, a sudden ego-rotation
//! burst (one incoherent frame in a coherent stream), urban-canyon
//! occlusion with multipath dropouts, highway speeds over sparse
//! long-range returns, overlapping staggered-phase multi-sensor rigs,
//! weather-degraded returns, and a locality-heavy clustered-query
//! stream that exercises descendant reuse in the banked arbiter.
//!
//! Everything is a pure function of [`FrameStreamConfig`]: two streams
//! built from the same config yield bit-identical frames, queries, and —
//! through [`Crescent::run_stream`](crate::Crescent::run_stream) —
//! bit-identical neighbor sets, cycle counts, and energy totals.

use crescent_accel::{run_frame_stream, StreamReport, StreamSearchConfig, TreeMaintenance};
use crescent_pointcloud::datasets::{generate_scene, LidarSceneConfig};
use crescent_pointcloud::sampling::gaussian;
use crescent_pointcloud::{Neighbor, Point3, PointCloud};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::facade::Crescent;

/// Constant-rate ego motion of the sensor between frames.
#[derive(Clone, Copy, Debug)]
pub struct EgoMotion {
    /// Forward speed along the current heading, meters per second.
    pub speed_mps: f32,
    /// Yaw rate, radians per second (positive = counter-clockwise).
    pub yaw_rate_rps: f32,
    /// Frame period in seconds (0.1 s ≈ a 10 Hz spinning LiDAR).
    pub frame_period_s: f32,
}

impl Default for EgoMotion {
    fn default() -> Self {
        // a gentle urban arc: ~29 km/h with a slow left turn at 10 Hz
        EgoMotion { speed_mps: 8.0, yaw_rate_rps: 0.05, frame_period_s: 0.1 }
    }
}

/// The shape of a streamed workload — chosen to stress the engine's
/// [`TreeMaintenance`] policy in qualitatively different ways.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum StreamScenario {
    /// Raw spinning-LiDAR frames: range cull plus a fresh azimuthal
    /// re-sort every frame. Point *identity* is not stable across
    /// frames, so an incremental refit always detects incoherence —
    /// this is the honest baseline workload.
    Sweep,
    /// Motion-compensated (registered) stream: the full world rendered
    /// into the moving sensor frame with stable point identity (no
    /// cull, no re-sort). The workload incremental tree maintenance is
    /// built for.
    Registered,
    /// Registered stream plus dynamic objects: point clusters follow
    /// straight world paths and enter/leave the sensor range, changing
    /// the cloud size on transition frames (which forces the refit
    /// size-mismatch fallback exactly there).
    DynamicObjects {
        /// Number of moving clusters.
        movers: usize,
    },
    /// Registered stream with the point density oscillating between
    /// `min_keep_pct`% and 100% of the world over `period` frames —
    /// every frame has a different size, so refit must fall back each
    /// time (the worst case for incremental maintenance).
    VariableDensity {
        /// Minimum percentage of world points kept in a frame.
        min_keep_pct: u8,
        /// Oscillation period in frames.
        period: usize,
    },
    /// Registered stream with a sudden ego-rotation at `at_frame`
    /// (heading step of `yaw_rad`): one incoherence burst in an
    /// otherwise coherent stream — the canonical fallback test.
    RotationBurst {
        /// Frame index at which the heading jumps.
        at_frame: usize,
        /// Heading step in radians.
        yaw_rad: f32,
    },
    /// Registered stream through an urban canyon: `sectors` azimuthal
    /// building wedges (fixed around the moving sensor) occlude returns,
    /// and a per-frame pseudo-random `dropout_pct`% of the surviving
    /// points flickers away to multipath. The visible set changes every
    /// frame as the ego moves past the wedges, so the cloud size is
    /// never stable — a rebuild-heavy, spatially-nonuniform workload.
    UrbanCanyon {
        /// Number of occluded azimuthal wedges around the sensor.
        sectors: usize,
        /// Percentage of points lost to multipath each frame (0–100).
        dropout_pct: u8,
    },
    /// Highway driving: the ego speed is multiplied by `speed_mult` and
    /// only a constant `keep_pct`% of the world returns (sparse
    /// long-range hits). The kept subset is frame-invariant, so point
    /// identity stays stable — refit survives even the large per-frame
    /// displacement.
    Highway {
        /// Multiplier on [`EgoMotion::speed_mps`].
        speed_mult: f32,
        /// Constant percentage of world points kept each frame.
        keep_pct: u8,
    },
    /// A rig of `sensors` overlapping LiDARs: each sensor renders the
    /// full registered world from its own mounting offset with a
    /// staggered trigger phase, and the frame concatenates the clouds.
    /// Density (and bank pressure) multiplies by the sensor count while
    /// the stream stays rigid — refit-friendly at doubled conflict load.
    MultiSensor {
        /// Number of sensors on the rig.
        sensors: usize,
    },
    /// Weather-degraded returns (rain/fog): measurement noise is
    /// tripled and a per-frame-varying dropout around `dropout_pct`%
    /// thins the cloud differently every frame, so the size never
    /// repeats — the adversarial case for incremental maintenance.
    Weather {
        /// Mean percentage of returns lost per frame (0–100).
        dropout_pct: u8,
    },
    /// Registered stream whose queries are packed into `clusters` tight
    /// spatial groups instead of a uniform stride. Clustered queries
    /// collide on the same subtree banks, which is exactly the workload
    /// descendant reuse salvages — this is the only canonical scenario
    /// that turns [`descendant_reuse`](StreamScenario::descendant_reuse)
    /// on.
    DescendantReuse {
        /// Number of query clusters per frame.
        clusters: usize,
    },
}

impl StreamScenario {
    /// The canonical scenario matrix: one instance of every variant with
    /// the parameters the test suite and the design-space explorer
    /// standardize on (3 movers, a 40 %–100 % density swing over 4
    /// frames, a 0.9 rad heading burst at frame 3, 6 canyon wedges with
    /// 12 % multipath, 4× highway speed over 35 % returns, a 2-sensor
    /// rig, 25 % weather dropout, 4 query clusters). Sweeps iterate this
    /// to cover every qualitative workload shape; anything needing other
    /// parameters constructs the variant directly.
    pub fn canonical_matrix() -> [StreamScenario; 10] {
        [
            StreamScenario::Sweep,
            StreamScenario::Registered,
            StreamScenario::DynamicObjects { movers: 3 },
            StreamScenario::VariableDensity { min_keep_pct: 40, period: 4 },
            StreamScenario::RotationBurst { at_frame: 3, yaw_rad: 0.9 },
            StreamScenario::UrbanCanyon { sectors: 6, dropout_pct: 12 },
            StreamScenario::Highway { speed_mult: 4.0, keep_pct: 35 },
            StreamScenario::MultiSensor { sensors: 2 },
            StreamScenario::Weather { dropout_pct: 25 },
            StreamScenario::DescendantReuse { clusters: 4 },
        ]
    }

    /// Stable machine-readable name of the variant (parameters elided) —
    /// the key sweep reports and baselines use, so it must never change
    /// for an existing variant.
    pub fn label(&self) -> &'static str {
        match self {
            StreamScenario::Sweep => "sweep",
            StreamScenario::Registered => "registered",
            StreamScenario::DynamicObjects { .. } => "dynamic_objects",
            StreamScenario::VariableDensity { .. } => "variable_density",
            StreamScenario::RotationBurst { .. } => "rotation_burst",
            StreamScenario::UrbanCanyon { .. } => "urban_canyon",
            StreamScenario::Highway { .. } => "highway",
            StreamScenario::MultiSensor { .. } => "multi_sensor",
            StreamScenario::Weather { .. } => "weather",
            StreamScenario::DescendantReuse { .. } => "descendant_reuse",
        }
    }

    /// Whether streams of this scenario run the banked arbiter with
    /// descendant reuse enabled (see
    /// [`StreamSearchConfig::descendant_reuse`]): `true` only for
    /// [`StreamScenario::DescendantReuse`], so every other scenario's
    /// timing stays byte-identical to the stall/elide-only model.
    pub fn descendant_reuse(&self) -> bool {
        matches!(self, StreamScenario::DescendantReuse { .. })
    }
}

/// Configuration of a [`FrameStream`].
#[derive(Clone, Copy, Debug)]
pub struct FrameStreamConfig {
    /// The static world the sensor drives through.
    pub scene: LidarSceneConfig,
    /// Number of frames to emit.
    pub num_frames: usize,
    /// Sensor trajectory between frames.
    pub ego: EgoMotion,
    /// Sensor range: world points farther than this (in x/y) from the
    /// sensor are culled from the frame (only in
    /// [`StreamScenario::Sweep`]; registered scenarios keep the full
    /// world so point identity stays stable, and movers use it as their
    /// visibility range).
    pub max_range: f32,
    /// Per-frame Gaussian measurement noise (standard deviation, meters).
    pub noise_m: f32,
    /// Queries issued per frame (stride-sampled from the frame cloud).
    pub queries_per_frame: usize,
    /// Neighbor-search radius, in frame (= world) units.
    pub radius: f32,
    /// Cap on returned neighbors per query.
    pub max_neighbors: Option<usize>,
    /// Workload shape (see [`StreamScenario`]).
    pub scenario: StreamScenario,
    /// Per-frame tree-maintenance policy handed to the engine.
    pub maintenance: TreeMaintenance,
    /// The streaming `h_e` handed to the engine: conflicted tree-buffer
    /// fetches in this many of the deepest tree levels are elided
    /// instead of stalling (`0` = exact stall-only search; see
    /// [`StreamSearchConfig::elision_depth`]).
    pub elision_depth: usize,
}

impl Default for FrameStreamConfig {
    fn default() -> Self {
        FrameStreamConfig {
            scene: LidarSceneConfig {
                total_points: 24_000,
                num_cars: 8,
                num_poles: 16,
                num_walls: 4,
                half_extent: 30.0,
                seed: 0x5EED_F00D,
            },
            num_frames: 16,
            ego: EgoMotion::default(),
            max_range: 25.0,
            noise_m: 0.01,
            queries_per_frame: 256,
            radius: 0.5,
            max_neighbors: Some(32),
            scenario: StreamScenario::Sweep,
            maintenance: TreeMaintenance::RebuildEveryFrame,
            elision_depth: crescent_accel::DEFAULT_STREAM_ELISION_DEPTH,
        }
    }
}

impl FrameStreamConfig {
    /// Checks the search every query of the stream runs: a finite,
    /// positive radius and, when capped, room for at least one neighbor.
    /// A NaN radius or a zero cap would otherwise run to completion with
    /// no neighbors and a vacuous recall of 1.0, and a negative radius
    /// would still find neighbors through its square.
    pub fn validate_search(&self) -> Result<(), String> {
        if !(self.radius.is_finite() && self.radius > 0.0) {
            return Err(format!("search radius must be finite and positive, got {}", self.radius));
        }
        if self.max_neighbors == Some(0) {
            return Err("max_neighbors must be at least 1 (None = unbounded)".to_string());
        }
        Ok(())
    }
}

/// One rendered frame of a stream.
#[derive(Clone, Debug)]
pub struct Frame {
    /// 0-based frame index.
    pub index: usize,
    /// Sensor position in world coordinates when the frame was taken.
    pub ego_position: Point3,
    /// Sensor heading (yaw) in radians.
    pub ego_heading: f32,
    /// The frame's point cloud, in the sensor frame, azimuthal sweep order.
    pub cloud: PointCloud,
    /// The frame's query points (stride-sampled from `cloud`).
    pub queries: Vec<Point3>,
}

/// A seeded iterator of temporally-coherent LiDAR frames.
///
/// Every frame is also reachable on its own through
/// [`FrameStream::frame`], which the iterator itself calls: frame `i`
/// depends only on the config and `i`, so frames can be rendered in any
/// order, or on several threads at once.
///
/// # Examples
///
/// ```
/// use crescent::workload::{FrameStream, FrameStreamConfig};
///
/// let mut cfg = FrameStreamConfig::default();
/// cfg.scene.total_points = 2_000;
/// cfg.num_frames = 3;
/// let frames: Vec<_> = FrameStream::new(&cfg).collect();
/// assert_eq!(frames.len(), 3);
/// assert!(frames.iter().all(|f| !f.cloud.is_empty()));
/// // same config ⇒ bit-identical frames
/// let again: Vec<_> = FrameStream::new(&cfg).collect();
/// assert_eq!(frames[2].cloud, again[2].cloud);
/// // ... and frame 2 rendered on its own is the iterator's frame 2
/// assert_eq!(FrameStream::new(&cfg).frame(2).cloud, frames[2].cloud);
/// ```
#[derive(Clone, Debug)]
pub struct FrameStream {
    cfg: FrameStreamConfig,
    world: PointCloud,
    movers: Vec<Mover>,
    /// Index of the frame the iterator yields next.
    next: usize,
}

/// The sensor pose a frame is rendered from.
#[derive(Clone, Copy, Debug)]
struct Pose {
    /// 0-based frame index.
    index: usize,
    /// Sensor position in world coordinates.
    position: Point3,
    /// Sensor heading (yaw) in radians.
    heading: f32,
}

/// A dynamic object: a rigid point cluster on a straight world path.
#[derive(Clone, Debug)]
struct Mover {
    start: Point3,
    velocity: Point3,
    offsets: Vec<Point3>,
}

impl Mover {
    fn center(&self, frame: usize, dt: f32) -> Point3 {
        self.start + self.velocity * (frame as f32 * dt)
    }
}

impl FrameStream {
    /// Builds the world scene and positions the sensor at the origin,
    /// heading along +x.
    pub fn new(cfg: &FrameStreamConfig) -> Self {
        let world = generate_scene(&cfg.scene).cloud;
        let movers = match cfg.scenario {
            StreamScenario::DynamicObjects { movers } => {
                let mut rng = StdRng::seed_from_u64(cfg.scene.seed ^ 0xD10B_1EC7);
                (0..movers)
                    .map(|m| {
                        // start outside the visible range on a bearing
                        // that carries the cluster through the scene
                        let theta = (m as f32 + rng.random::<f32>()) * 2.4;
                        let start = Point3::new(
                            1.4 * cfg.max_range * theta.cos(),
                            1.4 * cfg.max_range * theta.sin(),
                            0.8,
                        );
                        let speed = 5.0 + 4.0 * rng.random::<f32>();
                        let velocity = (Point3::ZERO - start) * (speed / start.norm().max(1e-6));
                        let offsets = (0..24)
                            .map(|_| {
                                Point3::new(
                                    gaussian(&mut rng) * 0.6,
                                    gaussian(&mut rng) * 0.6,
                                    gaussian(&mut rng) * 0.4,
                                )
                            })
                            .collect();
                        Mover { start, velocity, offsets }
                    })
                    .collect()
            }
            _ => Vec::new(),
        };
        FrameStream { cfg: *cfg, world, movers, next: 0 }
    }

    /// The stream's configuration.
    pub fn config(&self) -> &FrameStreamConfig {
        &self.cfg
    }

    /// The static world cloud the frames are rendered from.
    pub fn world(&self) -> &PointCloud {
        &self.world
    }

    /// Renders frame `index` of the stream — bit for bit the frame the
    /// iterator yields at that position, without rendering the frames
    /// before it. The pose is replayed from the origin with the
    /// iterator's own step, and the frame's noise is seeded from `index`
    /// alone. Indices past [`FrameStreamConfig::num_frames`] continue
    /// the same trajectory; only the iterator stops there.
    pub fn frame(&self, index: usize) -> Frame {
        self.render(&self.pose(index))
    }

    /// The sensor pose of frame `index`: frame 0 is at the origin heading
    /// along +x, and each frame after it first moves the sensor along its
    /// current heading, then turns it by the yaw rate.
    fn pose(&self, index: usize) -> Pose {
        let ego = &self.cfg.ego;
        let dt = ego.frame_period_s;
        let step = ego.speed_mps * self.speed_mult() * dt;
        let mut pose = Pose { index, position: Point3::ZERO, heading: 0.0 };
        for _ in 0..index {
            pose.position += Point3::new(pose.heading.cos(), pose.heading.sin(), 0.0) * step;
            pose.heading += ego.yaw_rate_rps * dt;
        }
        pose
    }

    /// Renders the frame taken from `pose`.
    fn render(&self, pose: &Pose) -> Frame {
        let cfg = &self.cfg;
        // Decorrelate per-frame noise from the scene RNG and from other
        // frames (SplitMix64 increment as the per-frame stream offset).
        let noise_seed =
            cfg.scene.seed ^ (pose.index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(noise_seed);
        let cloud = match cfg.scenario {
            StreamScenario::Sweep => self.render_sweep(pose, &mut rng),
            StreamScenario::MultiSensor { sensors } => {
                self.render_multi_sensor(pose, sensors, &mut rng)
            }
            _ => self.render_registered(pose, pose.position, &mut rng),
        };
        let queries = match cfg.scenario {
            StreamScenario::DescendantReuse { clusters } => {
                cluster_queries(&cloud, cfg.queries_per_frame, clusters)
            }
            _ => stride_queries(&cloud, cfg.queries_per_frame),
        };
        Frame {
            index: pose.index,
            ego_position: pose.position,
            ego_heading: pose.heading,
            cloud,
            queries,
        }
    }

    /// Raw spinning-LiDAR render: range cull + azimuthal sweep re-sort.
    fn render_sweep(&self, pose: &Pose, rng: &mut StdRng) -> PointCloud {
        let cfg = &self.cfg;
        let range2 = cfg.max_range * cfg.max_range;
        // (azimuth, point) pairs so the sweep sort computes atan2 once per
        // point instead of once per comparison
        let mut pts: Vec<(f32, Point3)> = Vec::new();
        for &p in &self.world {
            // world → sensor frame: translate to the sensor, undo heading
            let d = (p - pose.position).rotated_z(-pose.heading);
            if d.x * d.x + d.y * d.y > range2 {
                continue;
            }
            let noise = Point3::new(gaussian(rng), gaussian(rng), gaussian(rng)) * cfg.noise_m;
            let q = d + noise;
            pts.push((q.y.atan2(q.x), q));
        }
        // a spinning LiDAR emits points in azimuthal sweep order
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        PointCloud::from_points(pts.into_iter().map(|(_, p)| p).collect())
    }

    /// Registered (motion-compensated) render: stable point identity —
    /// world order is preserved, nothing is culled or re-sorted. The
    /// density filter, per-scenario dropout/occlusion filters, and the
    /// dynamic movers of the richer scenarios are layered on top. The
    /// sensor sits at `position` (the pose's own, or a rig mounting
    /// point off it); the heading is the pose's.
    fn render_registered(&self, pose: &Pose, position: Point3, rng: &mut StdRng) -> PointCloud {
        let cfg = &self.cfg;
        let heading = pose.heading + self.burst_yaw(pose.index);
        let keep_pct = self.keep_pct(pose.index);
        let noise_m = cfg.noise_m * self.noise_mult();
        let mut pts: Vec<Point3> = Vec::with_capacity(self.world.len());
        for (i, &p) in self.world.iter().enumerate() {
            // spread the density filter across the cloud with a prime
            // stride so kept points stay spatially uniform
            if keep_pct < 100 && (i * 7919) % 100 >= keep_pct {
                continue;
            }
            if self.dropped(pose.index, i, p, position) {
                continue;
            }
            let d = (p - position).rotated_z(-heading);
            let noise = Point3::new(gaussian(rng), gaussian(rng), gaussian(rng)) * noise_m;
            pts.push(d + noise);
        }
        // dynamic objects append after the static world; a cluster is
        // visible only while its center is inside the sensor range
        let dt = cfg.ego.frame_period_s;
        for mover in &self.movers {
            let center = mover.center(pose.index, dt);
            let rel = center - position;
            if rel.x * rel.x + rel.y * rel.y > cfg.max_range * cfg.max_range {
                continue;
            }
            for &off in &mover.offsets {
                let d = (center + off - position).rotated_z(-heading);
                let noise = Point3::new(gaussian(rng), gaussian(rng), gaussian(rng)) * noise_m;
                pts.push(d + noise);
            }
        }
        PointCloud::from_points(pts)
    }

    /// Multi-sensor rig render: one registered pass per sensor from its
    /// own mounting point, concatenated in rig order. Mounting offsets
    /// fan out laterally across the rig; trigger phases stagger along
    /// the direction of travel (sensor `s` fires `s/sensors` of a frame
    /// period later). Both offsets are constant in the ego frame, so on
    /// a straight trajectory the concatenated cloud still translates
    /// rigidly frame to frame.
    fn render_multi_sensor(&self, pose: &Pose, sensors: usize, rng: &mut StdRng) -> PointCloud {
        let cfg = &self.cfg;
        let sensors = sensors.max(1);
        let forward = Point3::new(pose.heading.cos(), pose.heading.sin(), 0.0);
        let lateral = Point3::new(-pose.heading.sin(), pose.heading.cos(), 0.0);
        let step = cfg.ego.speed_mps * self.speed_mult() * cfg.ego.frame_period_s;
        let mut pts: Vec<Point3> = Vec::with_capacity(sensors * self.world.len());
        for s in 0..sensors {
            let mount = lateral * ((s as f32 - 0.5 * (sensors - 1) as f32) * 0.8);
            let phase = forward * (step * s as f32 / sensors as f32);
            let sub = self.render_registered(pose, pose.position + mount + phase, rng);
            pts.extend_from_slice(sub.points());
        }
        PointCloud::from_points(pts)
    }

    /// Extra heading applied from the rotation-burst frame onward.
    fn burst_yaw(&self, frame: usize) -> f32 {
        match self.cfg.scenario {
            StreamScenario::RotationBurst { at_frame, yaw_rad } if frame >= at_frame => yaw_rad,
            _ => 0.0,
        }
    }

    /// Percentage of world points kept in `frame` (100 outside the
    /// variable-density and highway scenarios).
    fn keep_pct(&self, frame: usize) -> usize {
        match self.cfg.scenario {
            StreamScenario::VariableDensity { min_keep_pct, period } => {
                let min = usize::from(min_keep_pct.min(100));
                let phase = std::f32::consts::TAU * frame as f32 / period.max(1) as f32;
                min + (((100 - min) as f32) * 0.5 * (1.0 + phase.cos())).round() as usize
            }
            StreamScenario::Highway { keep_pct, .. } => usize::from(keep_pct.min(100)),
            _ => 100,
        }
    }

    /// Multiplier on the ego speed (1 outside the highway scenario).
    fn speed_mult(&self) -> f32 {
        match self.cfg.scenario {
            StreamScenario::Highway { speed_mult, .. } => speed_mult,
            _ => 1.0,
        }
    }

    /// Multiplier on the measurement noise (weather triples it).
    fn noise_mult(&self) -> f32 {
        match self.cfg.scenario {
            StreamScenario::Weather { .. } => 3.0,
            _ => 1.0,
        }
    }

    /// Per-point dropout and occlusion filters layered on the
    /// registered render. Everything is a pure hash of the point index,
    /// the frame index, and the pose — no RNG state is consumed, so the
    /// noise stream of the surviving points stays decoupled from the
    /// filter.
    fn dropped(&self, frame: usize, i: usize, p: Point3, position: Point3) -> bool {
        match self.cfg.scenario {
            StreamScenario::UrbanCanyon { sectors, dropout_pct } => {
                // multipath: a pseudo-random subset flickers per frame
                let h = i.wrapping_mul(6151).wrapping_add(frame.wrapping_mul(7907));
                if h % 100 < usize::from(dropout_pct.min(100)) {
                    return true;
                }
                // building occlusion: fixed azimuthal wedges around the
                // sensor swallow 35 % of each sector's returns
                let rel = p - position;
                let bearing = rel.y.atan2(rel.x);
                let t = (bearing / std::f32::consts::TAU + 0.5) * sectors.max(1) as f32;
                t.fract() < 0.35
            }
            StreamScenario::Weather { dropout_pct } => {
                // the storm front breathes: the effective dropout drifts
                // around the mean so no two frames keep the same count
                let pct = (usize::from(dropout_pct.min(90)) + (frame * 7) % 17).min(95);
                i.wrapping_mul(4391).wrapping_add(frame.wrapping_mul(9973)) % 100 < pct
            }
            _ => false,
        }
    }
}

impl Iterator for FrameStream {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        if self.next >= self.cfg.num_frames {
            return None;
        }
        let frame = self.frame(self.next);
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.num_frames - self.next.min(self.cfg.num_frames);
        (left, Some(left))
    }
}

/// Deterministic stride subsample of `n` query points from a frame cloud.
fn stride_queries(cloud: &PointCloud, n: usize) -> Vec<Point3> {
    let len = cloud.len();
    if n == 0 || len == 0 {
        return Vec::new();
    }
    if n >= len {
        return cloud.points().to_vec();
    }
    (0..n).map(|i| cloud.point(i * len / n)).collect()
}

/// Deterministic clustered subsample of `n` query points: queries pack
/// into `clusters` runs of consecutive cloud indices (consecutive
/// generation order is spatially local in the synthetic scenes), so the
/// batch's traversals collide on the same subtree banks — the workload
/// shape descendant reuse is built for.
fn cluster_queries(cloud: &PointCloud, n: usize, clusters: usize) -> Vec<Point3> {
    let len = cloud.len();
    if n == 0 || len == 0 {
        return Vec::new();
    }
    if n >= len {
        return cloud.points().to_vec();
    }
    let clusters = clusters.clamp(1, n);
    (0..n)
        .map(|j| {
            let base = (j % clusters) * len / clusters;
            cloud.point((base + j / clusters) % len)
        })
        .collect()
}

/// Everything a [`Crescent::run_stream`](crate::Crescent::run_stream) call
/// produces: the rendered frames, the per-frame neighbor sets, and the
/// engine's timing/energy report.
#[derive(Clone, Debug)]
pub struct StreamOutcome {
    /// The rendered frames, in order.
    pub frames: Vec<Frame>,
    /// Per-frame, per-query neighbor lists (identical to per-query
    /// [`SplitTree::search_one`](crescent_kdtree::SplitTree::search_one)).
    pub neighbor_sets: Vec<Vec<Vec<Neighbor>>>,
    /// Per-frame cycle and energy accounting.
    pub report: StreamReport,
}

impl StreamOutcome {
    /// Total neighbors found across the whole stream.
    pub fn total_neighbors(&self) -> usize {
        self.neighbor_sets.iter().flatten().map(Vec::len).sum()
    }
}

impl Crescent {
    /// Simulates a streaming multi-frame workload end to end: renders the
    /// [`FrameStream`] for `cfg`, then drives every frame back-to-back
    /// through the engine with this system's knobs and hardware
    /// configuration (batched two-stage search, inter-frame double
    /// buffering, per-frame energy ledger).
    ///
    /// The outcome is a pure function of `cfg` and `self` — see
    /// `tests/streaming.rs` for the bit-identical-rerun guarantee.
    ///
    /// # Examples
    ///
    /// ```
    /// use crescent::workload::FrameStreamConfig;
    /// use crescent::Crescent;
    ///
    /// let mut cfg = FrameStreamConfig::default();
    /// cfg.scene.total_points = 2_000;
    /// cfg.num_frames = 4;
    /// cfg.queries_per_frame = 32;
    /// let outcome = Crescent::new().run_stream(&cfg);
    /// assert_eq!(outcome.frames.len(), 4);
    /// assert_eq!(outcome.report.num_frames(), 4);
    /// assert!(outcome.report.pipelined_cycles < outcome.report.serial_cycles);
    /// ```
    pub fn run_stream(&self, cfg: &FrameStreamConfig) -> StreamOutcome {
        let frames: Vec<Frame> = FrameStream::new(cfg).collect();
        let inputs: Vec<(&PointCloud, &[Point3])> =
            frames.iter().map(|f| (&f.cloud, f.queries.as_slice())).collect();
        let search = StreamSearchConfig {
            radius: cfg.radius,
            max_neighbors: cfg.max_neighbors,
            maintenance: cfg.maintenance,
            elision_depth: cfg.elision_depth,
            descendant_reuse: cfg.scenario.descendant_reuse(),
        };
        let (neighbor_sets, report) = run_frame_stream(&inputs, &search, self.knobs, &self.config);
        StreamOutcome { frames, neighbor_sets, report }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FrameStreamConfig {
        let mut cfg = FrameStreamConfig::default();
        cfg.scene.total_points = 4_000;
        cfg.scene.seed = 7;
        cfg.num_frames = 5;
        cfg.queries_per_frame = 64;
        cfg
    }

    #[test]
    fn canonical_matrix_covers_every_variant_with_unique_labels() {
        let matrix = StreamScenario::canonical_matrix();
        let labels: Vec<&str> = matrix.iter().map(StreamScenario::label).collect();
        assert_eq!(
            labels,
            [
                "sweep",
                "registered",
                "dynamic_objects",
                "variable_density",
                "rotation_burst",
                "urban_canyon",
                "highway",
                "multi_sensor",
                "weather",
                "descendant_reuse"
            ]
        );
        // every scenario renders a non-empty, deterministic stream
        for scenario in matrix {
            let mut cfg = small_cfg();
            cfg.scenario = scenario;
            let a: Vec<Frame> = FrameStream::new(&cfg).collect();
            let b: Vec<Frame> = FrameStream::new(&cfg).collect();
            assert_eq!(a.len(), 5, "{}", scenario.label());
            assert!(a.iter().all(|f| !f.cloud.is_empty()), "{}", scenario.label());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.cloud, y.cloud, "{}", scenario.label());
            }
        }
    }

    #[test]
    fn stream_emits_configured_frames() {
        let cfg = small_cfg();
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        assert_eq!(frames.len(), 5);
        for (i, f) in frames.iter().enumerate() {
            assert_eq!(f.index, i);
            assert!(!f.cloud.is_empty());
            assert_eq!(f.queries.len(), 64);
        }
    }

    #[test]
    fn frames_are_deterministic() {
        let cfg = small_cfg();
        let a: Vec<Frame> = FrameStream::new(&cfg).collect();
        let b: Vec<Frame> = FrameStream::new(&cfg).collect();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.cloud, y.cloud);
            assert_eq!(x.queries, y.queries);
            assert_eq!(x.ego_position, y.ego_position);
        }
    }

    #[test]
    fn ego_actually_moves() {
        let cfg = small_cfg();
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        assert_eq!(frames[0].ego_position, Point3::ZERO);
        let last = frames.last().unwrap();
        assert!(last.ego_position.norm() > 1.0, "ego barely moved: {}", last.ego_position);
        // the world is static but the renders differ frame to frame
        assert_ne!(frames[0].cloud, frames[1].cloud);
    }

    #[test]
    fn frames_are_temporally_coherent() {
        // consecutive frames overlap heavily; distant frames less so
        let cfg = small_cfg();
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        let n0 = frames[0].cloud.len() as f64;
        let n1 = frames[1].cloud.len() as f64;
        assert!((n0 - n1).abs() / n0 < 0.2, "adjacent frame sizes {n0} vs {n1}");
    }

    #[test]
    fn frames_respect_range_cull_and_sweep_order() {
        let cfg = small_cfg();
        for f in FrameStream::new(&cfg) {
            for p in &f.cloud {
                let r = (p.x * p.x + p.y * p.y).sqrt();
                assert!(r <= cfg.max_range + 0.5, "point at range {r}");
            }
            let angles: Vec<f32> = f.cloud.iter().map(|p| p.y.atan2(p.x)).collect();
            assert!(angles.windows(2).all(|w| w[0] <= w[1] + 1e-6), "frame {}", f.index);
        }
    }

    #[test]
    fn zero_motion_freezes_geometry_except_noise() {
        let mut cfg = small_cfg();
        cfg.ego = EgoMotion { speed_mps: 0.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
        cfg.noise_m = 0.0;
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        assert_eq!(frames[0].cloud, frames[3].cloud, "no motion + no noise = identical frames");
    }

    #[test]
    fn run_stream_end_to_end() {
        let cfg = small_cfg();
        let outcome = Crescent::new().run_stream(&cfg);
        assert_eq!(outcome.frames.len(), 5);
        assert_eq!(outcome.neighbor_sets.len(), 5);
        assert_eq!(outcome.report.num_frames(), 5);
        assert!(outcome.total_neighbors() > 0);
        assert!(outcome.report.mean_reuse_fraction() > 0.3, "stream should show locality");
    }

    #[test]
    fn registered_frames_keep_point_identity() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::Registered;
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        let n = frames[0].cloud.len();
        for f in &frames {
            assert_eq!(f.cloud.len(), n, "registered stream must keep a stable size");
        }
        // point i stays the same physical point: across one frame of
        // gentle ego motion it moves by much less than the scene extent
        let moved = (frames[1].cloud.point(7) - frames[0].cloud.point(7)).norm();
        assert!(moved < 2.0, "point 7 jumped {moved} — identity lost");
    }

    #[test]
    fn registered_stream_refits_cheaper_with_identical_results() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::Registered;
        cfg.num_frames = 8;
        // a registration pipeline outputs motion-compensated, denoised
        // points: the stream is a per-frame rigid translation, which is
        // order-preserving — the regime refit is built for (per-frame
        // independent noise or rotation would trip the cross-plane
        // validation and honestly fall back every frame)
        cfg.noise_m = 0.0;
        cfg.ego = EgoMotion { speed_mps: 8.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
        let system = Crescent::new();
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = system.run_stream(&cfg);
        cfg.maintenance = TreeMaintenance::refit();
        let refit = system.run_stream(&cfg);
        assert_eq!(
            rebuild.neighbor_sets, refit.neighbor_sets,
            "maintenance policy must never change results"
        );
        assert!(
            refit.report.pipelined_cycles < rebuild.report.pipelined_cycles,
            "refit {} vs rebuild {}",
            refit.report.pipelined_cycles,
            rebuild.report.pipelined_cycles
        );
    }

    #[test]
    fn dynamic_objects_enter_and_leave() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::DynamicObjects { movers: 3 };
        cfg.num_frames = 12;
        cfg.max_range = 12.0;
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        let sizes: Vec<usize> = frames.iter().map(|f| f.cloud.len()).collect();
        assert!(
            sizes.windows(2).any(|w| w[0] != w[1]),
            "movers must change the cloud size at some point: {sizes:?}"
        );
        // the engine survives the size changes under refit, results equal
        cfg.maintenance = TreeMaintenance::refit();
        let refit = Crescent::new().run_stream(&cfg);
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = Crescent::new().run_stream(&cfg);
        assert_eq!(refit.neighbor_sets, rebuild.neighbor_sets);
    }

    #[test]
    fn variable_density_oscillates_and_forces_fallback() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::VariableDensity { min_keep_pct: 40, period: 4 };
        cfg.num_frames = 8;
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        let sizes: Vec<usize> = frames.iter().map(|f| f.cloud.len()).collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!((min as f64) < 0.7 * max as f64, "oscillation too shallow: {sizes:?}");
        cfg.maintenance = TreeMaintenance::refit();
        let outcome = Crescent::new().run_stream(&cfg);
        // every size-changing frame is an honest full rebuild
        for (w, f) in sizes.windows(2).zip(&outcome.report.frames[1..]) {
            if w[0] != w[1] {
                assert!(
                    f.maintenance.full_rebuild,
                    "frame {} changed size but did not rebuild",
                    f.frame
                );
            }
        }
    }

    #[test]
    fn rotation_burst_triggers_exactly_one_fallback() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::RotationBurst { at_frame: 3, yaw_rad: 0.9 };
        cfg.num_frames = 7;
        cfg.noise_m = 0.0;
        cfg.ego = EgoMotion { speed_mps: 2.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
        cfg.maintenance = TreeMaintenance::refit();
        let system = Crescent::new();
        let refit = system.run_stream(&cfg);
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = system.run_stream(&cfg);
        assert_eq!(
            refit.neighbor_sets, rebuild.neighbor_sets,
            "the burst must not cost correctness"
        );
        assert!(
            refit.report.frames[3].maintenance.full_rebuild,
            "a 0.9 rad heading jump must be detected as incoherent"
        );
        let fallbacks =
            refit.report.frames[1..].iter().filter(|f| f.maintenance.full_rebuild).count();
        assert!(fallbacks <= 2, "only the burst (±1 settling frame) may rebuild: {fallbacks}");
    }

    #[test]
    fn urban_canyon_occludes_and_flickers() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::UrbanCanyon { sectors: 6, dropout_pct: 12 };
        let canyon: Vec<Frame> = FrameStream::new(&cfg).collect();
        cfg.scenario = StreamScenario::Registered;
        let open: Vec<Frame> = FrameStream::new(&cfg).collect();
        for (c, o) in canyon.iter().zip(&open) {
            let (nc, no) = (c.cloud.len() as f64, o.cloud.len() as f64);
            assert!(
                nc < 0.8 * no,
                "frame {}: wedges + multipath must occlude: {nc} vs {no}",
                c.index
            );
            assert!(nc > 0.3 * no, "frame {}: occlusion ate the frame: {nc} vs {no}", c.index);
        }
        // multipath flicker + moving wedges: the visible set never
        // settles, so the size keeps changing somewhere in the stream
        let sizes: Vec<usize> = canyon.iter().map(|f| f.cloud.len()).collect();
        assert!(sizes.windows(2).any(|w| w[0] != w[1]), "canyon sizes frozen: {sizes:?}");
        // and the engine survives it with policy-invariant results
        cfg.scenario = StreamScenario::UrbanCanyon { sectors: 6, dropout_pct: 12 };
        cfg.maintenance = TreeMaintenance::refit();
        let refit = Crescent::new().run_stream(&cfg);
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = Crescent::new().run_stream(&cfg);
        assert_eq!(refit.neighbor_sets, rebuild.neighbor_sets);
    }

    #[test]
    fn highway_is_sparse_fast_and_still_refit_friendly() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::Highway { speed_mult: 4.0, keep_pct: 35 };
        cfg.noise_m = 0.0;
        cfg.ego = EgoMotion { speed_mps: 8.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        // the kept subset is frame-invariant: constant size, stable identity
        let n = frames[0].cloud.len();
        assert!(frames.iter().all(|f| f.cloud.len() == n), "highway keep set must be stable");
        assert!((n as f64) < 0.45 * 4_000.0, "35 % keep must thin the cloud: {n}");
        // 4x speed: the ego covers 4x the default distance
        let end = frames.last().unwrap().ego_position.norm();
        assert!((end - 4.0 * 8.0 * 0.1 * 4.0).abs() < 1e-3, "4 frames at 3.2 m: {end}");
        // large per-frame translation is still order-preserving: refit
        // never falls back after frame 0 and results stay identical
        cfg.maintenance = TreeMaintenance::refit();
        let refit = Crescent::new().run_stream(&cfg);
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = Crescent::new().run_stream(&cfg);
        assert_eq!(refit.neighbor_sets, rebuild.neighbor_sets);
        assert!(refit.report.frames[1..].iter().all(|f| !f.maintenance.full_rebuild));
        assert!(refit.report.pipelined_cycles < rebuild.report.pipelined_cycles);
    }

    #[test]
    fn multi_sensor_rig_doubles_density_and_stays_rigid() {
        let mut cfg = small_cfg();
        cfg.noise_m = 0.0;
        cfg.ego = EgoMotion { speed_mps: 6.0, yaw_rate_rps: 0.0, frame_period_s: 0.1 };
        cfg.scenario = StreamScenario::Registered;
        let single: Vec<Frame> = FrameStream::new(&cfg).collect();
        cfg.scenario = StreamScenario::MultiSensor { sensors: 2 };
        let rig: Vec<Frame> = FrameStream::new(&cfg).collect();
        for (r, s) in rig.iter().zip(&single) {
            assert_eq!(r.cloud.len(), 2 * s.cloud.len(), "frame {}", r.index);
        }
        // constant mounting offsets + straight ego: the concatenated
        // cloud translates rigidly, so refit never falls back
        cfg.maintenance = TreeMaintenance::refit();
        let refit = Crescent::new().run_stream(&cfg);
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = Crescent::new().run_stream(&cfg);
        assert_eq!(refit.neighbor_sets, rebuild.neighbor_sets);
        assert!(refit.report.frames[1..].iter().all(|f| !f.maintenance.full_rebuild));
    }

    #[test]
    fn weather_never_repeats_a_frame_size() {
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::Weather { dropout_pct: 25 };
        cfg.num_frames = 8;
        let frames: Vec<Frame> = FrameStream::new(&cfg).collect();
        let sizes: Vec<usize> = frames.iter().map(|f| f.cloud.len()).collect();
        assert!(
            sizes.windows(2).all(|w| w[0] != w[1]),
            "the drifting dropout must change the size every frame: {sizes:?}"
        );
        // every size change is an honest full rebuild, and the policy
        // still never changes a result
        cfg.maintenance = TreeMaintenance::refit();
        let refit = Crescent::new().run_stream(&cfg);
        for f in &refit.report.frames[1..] {
            assert!(
                f.maintenance.full_rebuild,
                "frame {} changed size but did not rebuild",
                f.frame
            );
        }
        cfg.maintenance = TreeMaintenance::RebuildEveryFrame;
        let rebuild = Crescent::new().run_stream(&cfg);
        assert_eq!(refit.neighbor_sets, rebuild.neighbor_sets);
    }

    #[test]
    fn descendant_reuse_scenario_actually_fires_reuse() {
        // only the DescendantReuse scenario turns the knob on
        for scenario in StreamScenario::canonical_matrix() {
            assert_eq!(
                scenario.descendant_reuse(),
                scenario.label() == "descendant_reuse",
                "{}",
                scenario.label()
            );
        }
        let mut cfg = small_cfg();
        cfg.scenario = StreamScenario::DescendantReuse { clusters: 4 };
        let outcome = Crescent::new().run_stream(&cfg);
        assert!(
            outcome.report.total_conflict_reuses() > 0,
            "clustered queries at the default h_e must salvage some elisions"
        );
        // a registered stream with the knob off reports zero reuses
        cfg.scenario = StreamScenario::Registered;
        let plain = Crescent::new().run_stream(&cfg);
        assert_eq!(plain.report.total_conflict_reuses(), 0);
    }
}
