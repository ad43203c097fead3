//! Fleet instance model for the multi-tenant streaming service: one
//! modeled Crescent accelerator per instance, executing cross-tenant
//! *wavefronts* (tenant-tagged query batches against a shared map tree).
//!
//! A wavefront is a one-frame stream: it runs the stream driver's
//! per-frame search and aggregation steps and is priced by
//! [`FrameReport`]'s one slot and energy model, with no maintenance
//! bill. A wavefront is either simulated from its flat query batch
//! ([`ServiceInstance::simulate_wavefront`]) or replayed from its
//! riders' once-recorded segment traces ([`trace_segment`],
//! [`ServiceInstance::replay_wavefront`]), which reproduces the
//! simulation bit for bit without routing or walking any query again;
//! both are priced by the one aggregate-and-compose tail. Tree
//! **maintenance** is charged elsewhere: the service
//! maintains one shared map tree per tick (via
//! [`crate::maintain_tree_sequence`]) and charges it once, fleet-wide —
//! an instance only ever *searches*.

use crescent_kdtree::{
    BatchSearchStats, KdTree, SegmentTrace, SplitTree, TaggedBatch, TaggedResults,
};
use crescent_pointcloud::{Neighbor, Point3};

use crate::config::AcceleratorConfig;
use crate::pipeline::CrescentKnobs;
use crate::streaming::{
    FrameEngine, FrameReport, FrameSearch, MaintenanceCost, StreamSearchConfig,
};

/// One modeled accelerator instance of the service fleet: recycled
/// search state plus its dispatch schedule.
#[derive(Debug, Default)]
pub struct ServiceInstance {
    engine: FrameEngine,
    /// The modeled cycle at which this instance finishes its current
    /// wavefront and can accept the next one.
    pub free_at: u64,
    /// Total latency cycles this instance has executed.
    pub busy_cycles: u64,
    /// Wavefronts dispatched to this instance.
    pub wavefronts: usize,
}

impl ServiceInstance {
    /// Creates an idle instance.
    pub fn new() -> Self {
        ServiceInstance::default()
    }

    /// Executes one tenant-tagged wavefront against the shared map
    /// `tree`, returning per-segment neighbor lists and the wavefront's
    /// modeled frame record: [`Self::simulate_wavefront`] over the flat
    /// concatenated batch ([`TaggedBatch::split_results`] demultiplexes
    /// afterwards, so tags cannot perturb the engine), then
    /// [`Self::record_wavefront`] of its latency.
    ///
    /// The caller owns the dispatch schedule: set [`Self::free_at`] from
    /// the returned latency at the chosen start cycle.
    pub fn run_wavefront(
        &mut self,
        tree: &KdTree,
        batch: &TaggedBatch,
        search: &StreamSearchConfig,
        knobs: CrescentKnobs,
        config: &AcceleratorConfig,
    ) -> (TaggedResults, FrameReport) {
        let (hits, report) = self.simulate_wavefront(tree, batch.queries(), search, knobs, config);
        self.record_wavefront(report.standalone_cycles());
        (batch.split_results(hits), report)
    }

    /// Models one wavefront of the flat query batch `queries` against
    /// the shared map `tree` in isolation, returning every query's
    /// neighbor list and the wavefront's modeled frame record. Books
    /// nothing on the instance.
    ///
    /// The dispatch-to-completion latency is
    /// [`FrameReport::standalone_cycles`]: the slot plus one PE pipeline
    /// fill (a service wavefront is latency-critical, so unlike the
    /// back-to-back stream bound the fill is paid per wavefront), and
    /// zero for a wavefront with no work.
    ///
    /// Only the recycled search state carries over between calls, and
    /// it reaches nothing but the cross-call locality fields
    /// (`search.assignment_reuses`, `search.frame_index`): every other
    /// field is a pure function of the arguments.
    pub fn simulate_wavefront(
        &mut self,
        tree: &KdTree,
        queries: &[Point3],
        search: &StreamSearchConfig,
        knobs: CrescentKnobs,
        config: &AcceleratorConfig,
    ) -> (Vec<Vec<Neighbor>>, FrameReport) {
        let (hits, stats) = self.engine.search(tree, queries, knobs.top_height, search, config);
        let report = self.price(tree.len(), &hits, stats, config);
        (hits, report)
    }

    /// [`Self::simulate_wavefront`] of the riders' queries concatenated,
    /// replayed from their segment traces: each rider's queries paired
    /// with its [`trace_segment`] on the same tree, radius and
    /// `knobs.top_height`, in batch order. Neighbor lists and frame
    /// record are bit-identical to simulating the flat batch, but no
    /// query is routed or walked again. Books nothing on the instance.
    pub fn replay_wavefront(
        &mut self,
        tree: &KdTree,
        segments: &[(&[Point3], &SegmentTrace)],
        search: &StreamSearchConfig,
        knobs: CrescentKnobs,
        config: &AcceleratorConfig,
    ) -> (Vec<Vec<Neighbor>>, FrameReport) {
        let (hits, stats) = self.engine.replay(tree, segments, knobs.top_height, search, config);
        let report = self.price(tree.len(), &hits, stats, config);
        (hits, report)
    }

    /// Prices one searched wavefront of a `points`-point map: the
    /// gather of its flat hits, then its frame record with no
    /// maintenance bill. Every wavefront is priced here, simulated or
    /// replayed.
    fn price(
        &mut self,
        points: usize,
        hits: &[Vec<Neighbor>],
        stats: BatchSearchStats,
        config: &AcceleratorConfig,
    ) -> FrameReport {
        // the gather unit is as tenant-blind as the search engine: it
        // reads the flat hits, across segment boundaries
        let agg = self.engine.aggregate(hits, config.point_buffer, config.aggregation_elision);
        let searched = FrameSearch::new(points, hits, stats);
        FrameReport::compose(0, &searched, &agg, &MaintenanceCost::default(), config)
    }

    /// Books one dispatched wavefront of `latency` cycles on the
    /// instance-local counters (`busy_cycles`, `wavefronts`).
    pub fn record_wavefront(&mut self, latency: u64) {
        self.busy_cycles += latency;
        self.wavefronts += 1;
    }
}

/// Records one tenant frame's search geometry on the shared map `tree`
/// split below `top_height` (clamped to the tree, as a wavefront's split
/// is), for [`ServiceInstance::replay_wavefront`]: every query's route
/// and stage-2 walk at `radius` ([`SplitTree::trace_segment`]). A frame
/// traced once replays inside every wavefront it rides, at any `h_e`
/// and with descendant reuse on or off.
pub fn trace_segment(
    tree: &KdTree,
    queries: &[Point3],
    radius: f32,
    top_height: usize,
) -> SegmentTrace {
    SplitTree::new(tree, tree.clamp_top_height(top_height))
        .expect("clamped top height is valid")
        .trace_segment(queries, radius)
}

/// A fleet of [`ServiceInstance`]s with deterministic earliest-free
/// selection (ties broken by lowest index).
#[derive(Debug, Default)]
pub struct Fleet {
    instances: Vec<ServiceInstance>,
}

impl Fleet {
    /// Creates `size` idle instances.
    pub fn new(size: usize) -> Self {
        Fleet { instances: (0..size).map(|_| ServiceInstance::new()).collect() }
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// Whether the fleet has no instances.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instances, for read-only inspection.
    pub fn instances(&self) -> &[ServiceInstance] {
        &self.instances
    }

    /// Index and free time of the instance that frees up first; ties go
    /// to the lowest index so dispatch is deterministic. `None` on an
    /// empty fleet.
    pub fn earliest_free(&self) -> Option<(usize, u64)> {
        self.instances
            .iter()
            .enumerate()
            .min_by_key(|&(i, inst)| (inst.free_at, i))
            .map(|(i, inst)| (i, inst.free_at))
    }

    /// Mutable access to one instance for dispatch.
    pub fn instance_mut(&mut self, index: usize) -> &mut ServiceInstance {
        &mut self.instances[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PE_PIPELINE_DEPTH;
    use crescent_pointcloud::PointCloud;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_cloud(n: usize, seed: u64) -> PointCloud {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Point3::new(
                    rng.random::<f32>() * 2.0,
                    rng.random::<f32>() * 2.0,
                    rng.random::<f32>() * 2.0,
                )
            })
            .collect()
    }

    fn random_queries(n: usize, seed: u64) -> Vec<Point3> {
        random_cloud(n, seed).into_points()
    }

    fn search() -> StreamSearchConfig {
        StreamSearchConfig {
            radius: 0.3,
            max_neighbors: Some(16),
            elision_depth: 0,
            ..Default::default()
        }
    }

    #[test]
    fn wavefront_matches_the_stream_drivers_search_physics() {
        // a one-segment wavefront must agree with the single-stream
        // driver on results, slot timing, and search/agg energy
        let cloud = random_cloud(3000, 11);
        let queries = random_queries(96, 12);
        let tree = KdTree::build(&cloud);
        let cfg = AcceleratorConfig::default();
        let knobs = CrescentKnobs::default();

        let mut batch = TaggedBatch::new();
        batch.push_segment(0, &queries);
        let mut inst = ServiceInstance::new();
        let (tagged, wf) = inst.run_wavefront(&tree, &batch, &search(), knobs, &cfg);

        let frames: Vec<(&PointCloud, &[Point3])> = vec![(&cloud, queries.as_slice())];
        let (stream_results, report) =
            crate::streaming::run_frame_stream(&frames, &search(), knobs, &cfg);
        let frame = &report.frames[0];

        assert_eq!(tagged[0].1, stream_results[0], "identical neighbor sets");
        assert_eq!(wf.compute_cycles, frame.compute_cycles);
        assert_eq!(wf.agg_cycles, frame.agg_cycles);
        assert_eq!(wf.dma_cycles, frame.dma_cycles);
        assert_eq!(wf.slot_cycles, frame.slot_cycles);
        assert_eq!(wf.standalone_cycles(), frame.slot_cycles + PE_PIPELINE_DEPTH);
        // the wavefront carries no build charges; everything else matches
        assert_eq!(wf.energy.tree_build, 0.0);
        assert_eq!(wf.energy.sram_search, frame.energy.sram_search);
        assert_eq!(wf.energy.sram_aggregation, frame.energy.sram_aggregation);
        assert_eq!(inst.busy_cycles, wf.standalone_cycles());
        assert_eq!(inst.wavefronts, 1);
    }

    #[test]
    fn instance_history_reaches_only_the_locality_fields() {
        // the serve memo relies on this: a wavefront simulated on a
        // seasoned instance equals the same wavefront on a fresh one,
        // except for the cross-call locality fields
        let cloud = random_cloud(2000, 14);
        let tree = KdTree::build(&cloud);
        let cfg = AcceleratorConfig::default();
        let knobs = CrescentKnobs::default();
        let search = StreamSearchConfig { elision_depth: 2, ..search() };
        let queries = random_queries(64, 15);
        let (fresh_hits, fresh) =
            ServiceInstance::new().simulate_wavefront(&tree, &queries, &search, knobs, &cfg);
        let mut seasoned = ServiceInstance::new();
        for seed in 16..19 {
            seasoned.simulate_wavefront(&tree, &random_queries(80, seed), &search, knobs, &cfg);
        }
        seasoned.simulate_wavefront(&tree, &queries, &search, knobs, &cfg);
        let (hits, mut report) = seasoned.simulate_wavefront(&tree, &queries, &search, knobs, &cfg);
        assert_eq!(hits, fresh_hits);
        assert_eq!(report.search.assignment_reuses, queries.len(), "the history is real");
        assert_ne!(report.search.frame_index, fresh.search.frame_index);
        report.search.assignment_reuses = fresh.search.assignment_reuses;
        report.search.frame_index = fresh.search.frame_index;
        assert_eq!(report, fresh);
        assert_eq!((seasoned.wavefronts, seasoned.busy_cycles), (0, 0), "simulating books nothing");
    }

    #[test]
    fn empty_wavefront_costs_nothing() {
        let cloud = random_cloud(500, 13);
        let tree = KdTree::build(&cloud);
        let mut inst = ServiceInstance::new();
        let (tagged, wf) = inst.run_wavefront(
            &tree,
            &TaggedBatch::new(),
            &search(),
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert!(tagged.is_empty());
        assert_eq!(wf.standalone_cycles(), 0, "no work, no fill");
        assert_eq!(wf.neighbors, 0);
    }

    #[test]
    fn fleet_picks_the_earliest_instance_with_stable_ties() {
        let mut fleet = Fleet::new(3);
        assert_eq!(fleet.len(), 3);
        assert!(!fleet.is_empty());
        assert_eq!(fleet.earliest_free(), Some((0, 0)), "ties break to the lowest index");
        fleet.instance_mut(0).free_at = 100;
        fleet.instance_mut(1).free_at = 40;
        fleet.instance_mut(2).free_at = 40;
        assert_eq!(fleet.earliest_free(), Some((1, 40)));
        assert!(Fleet::new(0).earliest_free().is_none());
        assert!(Fleet::new(0).is_empty());
        assert!(fleet.instances()[0].free_at == 100);
    }
}
