//! Fleet instance model for the multi-tenant streaming service: one
//! modeled Crescent accelerator per instance, executing cross-tenant
//! *wavefronts* (tenant-tagged query batches against a shared map tree).
//!
//! A wavefront is a one-frame stream: it runs the stream driver's
//! per-frame search and aggregation steps and is priced by
//! [`FrameReport`]'s one slot and energy model, with no maintenance
//! bill. Tree **maintenance** is charged elsewhere: the service
//! maintains one shared map tree per tick (via
//! [`crate::maintain_tree_sequence`]) and charges it once, fleet-wide —
//! an instance only ever *searches*.

use crescent_kdtree::{KdTree, TaggedBatch, TaggedResults};

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
    /// modeled frame record. The search sees only the flat concatenated
    /// batch ([`TaggedBatch::split_results`] demultiplexes afterwards),
    /// so tags cannot perturb the engine.
    ///
    /// The dispatch-to-completion latency is
    /// [`FrameReport::standalone_cycles`]: the slot plus one PE pipeline
    /// fill (a service wavefront is latency-critical, so unlike the
    /// back-to-back stream bound the fill is paid per wavefront), and
    /// zero for a wavefront with no work.
    ///
    /// The caller owns the dispatch schedule: this method models the
    /// wavefront in isolation and updates only the instance-local
    /// counters (`busy_cycles`, `wavefronts`); set [`Self::free_at`]
    /// from the returned latency at the chosen start cycle.
    pub fn run_wavefront(
        &mut self,
        tree: &KdTree,
        batch: &TaggedBatch,
        search: &StreamSearchConfig,
        knobs: CrescentKnobs,
        config: &AcceleratorConfig,
    ) -> (TaggedResults, FrameReport) {
        let (hits, stats) =
            self.engine.search(tree, batch.queries(), knobs.top_height, search, config);
        // the gather unit is as tenant-blind as the search engine: it
        // reads the flat hits, across segment boundaries
        let agg = self.engine.aggregate(&hits, config.point_buffer, config.aggregation_elision);
        let searched = FrameSearch::new(tree.len(), &hits, stats);
        let report = FrameReport::compose(0, &searched, &agg, &MaintenanceCost::default(), config);
        self.busy_cycles += report.standalone_cycles();
        self.wavefronts += 1;
        (batch.split_results(hits), report)
    }
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
    use crescent_pointcloud::{Point3, PointCloud};
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
