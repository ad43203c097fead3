//! Back-to-back multi-frame pipeline driver — the streaming workload
//! engine's timing and energy model, including honest tree-maintenance
//! accounting.
//!
//! A LiDAR pipeline never sees one cloud: it sees a 10–20 Hz stream of
//! consecutive frames. This module simulates that regime on the Crescent
//! engine. Per frame the driver first *maintains* the K-d tree under the
//! configured [`TreeMaintenance`] policy — a full [`KdTree::build`] or an
//! incremental [`KdTree::refit`](crescent_kdtree::refit) — and charges its
//! cycles, DRAM bytes, and energy (nothing about tree construction is
//! free; it is the most DRAM-intensive phase of a frame). It then splits
//! the tree through the cheap [`SplitTree::resplit`] re-validation path
//! and answers the frame's queries with the batched two-stage search
//! ([`SplitTree::search_batch`]), whose wavefront descent fetches every
//! top-tree node once per batch; a single [`BatchState`] is threaded
//! through the whole sequence so the descent buffers are recycled and
//! cross-frame sub-tree locality is measured.
//!
//! The driver is a chain of stage functions — [`maintain_tree_sequence`],
//! [`search_stream`], [`aggregate_stream`] and the pure
//! [`compose_stream`] — and [`run_frame_stream_on_trees`] is their
//! composition. The sweep explorer calls the same functions one by one,
//! each once per distinct value of the knobs it reads, and a service
//! wavefront ([`crate::ServiceInstance::run_wavefront`]) is one frame of
//! the same per-frame steps, so there is one implementation of the
//! stream model.
//!
//! # Timing model
//!
//! The search stage runs the **unified banked-arbitration model**: the
//! wavefront's stage-2 sub-tree traversals go through the same
//! lock-step, bank-arbitrated tree buffer as the standalone engine
//! ([`crate::run_crescent_search`]), so bank conflicts serialize rounds
//! and the depth-from-leaves elision knob
//! ([`StreamSearchConfig::elision_depth`], the streaming `h_e`) trades
//! neighbors for cycles *inside the stream* — no second engine pass is
//! needed to see `h_e`. After the search, the aggregation unit gathers
//! every query's neighbors from the banked Point Buffer
//! ([`crate::simulate_aggregation`]), honoring
//! `AcceleratorConfig::aggregation_elision`.
//!
//! Within a frame, the datapath work (search rounds, then gather
//! rounds) is double-buffered against the frame's streaming DMA:
//! the build stage occupies `max(build compute, build DMA)` cycles
//! ([`FrameReport::build_slot_cycles`]) and the search+aggregate stage
//! `max(search compute + aggregation, search DMA)`
//! ([`FrameReport::slot_cycles`]). Across frames, two overlaps apply:
//!
//! * frame `i+1`'s **build** (its DMA and partitioning) runs while frame
//!   `i` is still **searching** — the build unit writes the next tree
//!   image into the spare tree buffer, so builds hide behind search
//!   compute whenever they fit;
//! * the PE pipeline **fill** is paid exactly **once per stream** in
//!   [`StreamReport::pipelined_cycles`] (and once per frame in the
//!   standalone upper bound [`StreamReport::serial_cycles`]). The fill
//!   used to be triple-charged — inside per-frame compute, again on the
//!   stream total, and again in the standalone bound; the corrected
//!   model charges it exactly once per stream / once per standalone
//!   frame, and a frame with no work at all costs zero cycles.
//!
//! The exact bookkeeping identity (asserted in
//! `tests/streaming_properties.rs`):
//! `serial − pipelined == (frames_with_work − 1) · fill +
//! overlapped_build_cycles` — fully idle frames pay no fill in either
//! bound, so they drop out of the coefficient.
//! Energy lands in each frame's ledger, with tree maintenance in its own
//! `tree_build` category; [`StreamReport::energy`] merges them in frame
//! order.

use serde::{Deserialize, Serialize};

use crescent_kdtree::{
    BatchSearchConfig, BatchSearchStats, BatchState, KdTree, RefitConfig, RefitScratch, SplitTree,
    NODE_BYTES,
};
use crescent_memsim::{EnergyLedger, SramConfig};
use crescent_pointcloud::{Neighbor, Point3, PointCloud, POINT_BYTES};

use crate::aggregation::{simulate_aggregation, AggregationReport};
use crate::config::AcceleratorConfig;
use crate::engine::PE_PIPELINE_DEPTH;
use crate::pipeline::CrescentKnobs;

/// Per-frame K-d-tree maintenance policy of [`run_frame_stream`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum TreeMaintenance {
    /// Build the tree from scratch every frame (the honest baseline; its
    /// cost is now charged instead of silently modeled as free).
    #[default]
    RebuildEveryFrame,
    /// Maintain the tree incrementally with
    /// [`KdTree::refit`](crescent_kdtree::refit): in-place coordinate
    /// update + validation, rebuilding only dirty sub-trees, falling
    /// back to a full rebuild on incoherent frames. On a clean refit the
    /// resulting tree — and therefore every neighbor set — is identical
    /// to what [`TreeMaintenance::RebuildEveryFrame`] produces.
    Refit {
        /// Fraction of sub-trees that may be dirty before the frame is
        /// declared incoherent (see [`RefitConfig::rebuild_threshold`]).
        rebuild_threshold: f64,
    },
}

impl TreeMaintenance {
    /// The default incremental policy (`rebuild_threshold` from
    /// [`RefitConfig::default`]).
    pub fn refit() -> Self {
        TreeMaintenance::Refit { rebuild_threshold: RefitConfig::default().rebuild_threshold }
    }
}

/// The default streaming elision depth: conflicted fetches in the 4
/// deepest tree levels are dropped — the streaming-side counterpart of
/// the paper's Fig 13 operating point (`h_e = 12` level-based on the
/// ~16-level evaluation trees ⇒ 4 elidable levels above the leaves).
pub const DEFAULT_STREAM_ELISION_DEPTH: usize = 4;

/// Search parameters applied to every frame of a stream.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct StreamSearchConfig {
    /// Search radius (frame-cloud units).
    pub radius: f32,
    /// Cap on returned neighbors per query (`None` = unbounded).
    pub max_neighbors: Option<usize>,
    /// Per-frame tree maintenance policy.
    pub maintenance: TreeMaintenance,
    /// The streaming `h_e`: conflicted tree-buffer fetches in this many
    /// of the deepest tree levels are elided (dropped with their
    /// subtree) instead of stalling. `0` disables elision — every
    /// conflict serializes and results are bit-identical to per-query
    /// [`SplitTree::search_one`]. Depth-from-leaves keeps the knob
    /// meaningful across frames whose tree heights differ; each frame
    /// converts it to the engine's level threshold `height − depth`.
    pub elision_depth: usize,
    /// Descendant reuse in the banked arbiter: an elision-eligible fetch
    /// that loses arbitration to an *ancestor* of its own node continues
    /// beneath the winner instead of dropping its subtree (see
    /// [`BatchSearchConfig::descendant_reuse`]).
    /// Only meaningful with `elision_depth > 0` — at depth 0 no fetch is
    /// elision-eligible, so the knob is inert and results stay
    /// bit-identical to the stall-only model.
    pub descendant_reuse: bool,
}

impl Default for StreamSearchConfig {
    fn default() -> Self {
        StreamSearchConfig {
            radius: 0.5,
            max_neighbors: Some(32),
            maintenance: TreeMaintenance::default(),
            elision_depth: DEFAULT_STREAM_ELISION_DEPTH,
            descendant_reuse: false,
        }
    }
}

/// Timing and statistics of one frame in a stream.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FrameReport {
    /// 0-based frame index.
    pub frame: usize,
    /// Points in the frame cloud.
    pub points: usize,
    /// Total neighbors returned across all queries.
    pub neighbors: usize,
    /// Search datapath cycles: amortized top-tree fetches plus the
    /// stage-2 lock-step arbitration rounds of the unified banked model
    /// (conflict stalls lengthen them, `h_e` elision shortens them). The
    /// pipeline fill is *not* in here — it is charged once per stream; a
    /// frame that does no search work costs zero.
    pub compute_cycles: u64,
    /// Aggregation-unit cycles: banked Point-Buffer gather rounds for
    /// every query's neighbor list (serializing on conflicts unless
    /// `AcceleratorConfig::aggregation_elision` replicates them away).
    pub agg_cycles: u64,
    /// Streaming-DMA cycles for the frame's search DRAM traffic.
    pub dma_cycles: u64,
    /// The search stage's pipeline-slot occupancy:
    /// `max(compute + aggregation, dma)`.
    pub slot_cycles: u64,
    /// Point-Buffer gather conflicts during aggregation.
    pub agg_conflicts: u64,
    /// Aggregation conflicts resolved by neighbor replication instead of
    /// serialization (0 with `aggregation_elision` off).
    pub agg_elided: u64,
    /// The frame's tree-maintenance bill (zero for a service wavefront).
    pub maintenance: MaintenanceCost,
    /// Streaming-DMA cycles for the maintenance traffic.
    pub build_dma_cycles: u64,
    /// The build stage's slot occupancy: `max(build compute, build DMA)`.
    pub build_slot_cycles: u64,
    /// Tree-buffer reads (top-tree fetches + sub-tree node visits).
    pub tree_buffer_reads: u64,
    /// Statistics of the batched search: its queries, its search DRAM
    /// bytes (all streaming — the Crescent schedule has no random
    /// accesses), and in `subtree` its stall rounds and elided
    /// conflicts.
    pub search: BatchSearchStats,
    /// Energy charged to this frame (maintenance in `tree_build`).
    pub energy: EnergyLedger,
}

impl FrameReport {
    /// Prices one frame — a pure function of its search counters, its
    /// aggregation report and its maintenance bill, reading only the
    /// DRAM and energy models of `config`. This is the one definition of
    /// the double-buffered slots and the per-frame energy: the stream's
    /// compose step and a service wavefront (a one-frame stream with no
    /// maintenance) both price frames here.
    pub(crate) fn compose(
        frame: usize,
        searched: &FrameSearch,
        agg: &AggregationReport,
        cost: &MaintenanceCost,
        config: &AcceleratorConfig,
    ) -> FrameReport {
        let em = &config.energy;
        let stats = &searched.stats;
        // ---- timing ----
        // Search stage: the wavefront issues one fetch per touched
        // top-tree node (payload shared by every query on the node); the
        // PEs then drain each sub-tree queue in lock-step through the
        // banked tree buffer, so the round count already carries both PE
        // parallelism and conflict serialization. No fill in here — it
        // is charged once per stream (or once per standalone frame), and
        // a frame with no work costs nothing.
        let compute = stats.top_fetches as u64 + stats.subtree.rounds as u64;
        let dma = config.dram.stream_cycles(stats.dram_bytes);
        let slot = (compute + agg.rounds).max(dma);
        // Build stage: internally double-buffered the same way.
        let build_dma = config.dram.stream_cycles(cost.build_dram_bytes);
        let build_slot = cost.build_cycles.max(build_dma);

        // ---- energy ----
        let mut energy = EnergyLedger::new();
        energy.charge_dram_streaming(em, stats.dram_bytes + cost.build_dram_bytes);
        energy.charge_tree_build(em, cost.build_cycles);
        // only honored fetches read data out of the tree buffer; stalled
        // re-issues retry, elided ones never return their own node
        let reads = (stats.top_fetches + stats.subtree.visits) as u64;
        energy.charge_sram_search(em, reads * NODE_BYTES as u64);
        // granted gathers move one point record each; every issue also
        // reads one 4-byte word of the neighbor-index matrix; elided
        // gathers reuse the winner's data for free
        energy.charge_sram_aggregation(em, agg.grants * POINT_BYTES as u64 + agg.requests * 4);
        energy.charge_leakage(em, build_slot + slot);

        FrameReport {
            frame,
            points: searched.points,
            neighbors: searched.neighbors,
            compute_cycles: compute,
            agg_cycles: agg.rounds,
            dma_cycles: dma,
            slot_cycles: slot,
            agg_conflicts: agg.conflicts,
            agg_elided: agg.elided,
            maintenance: *cost,
            build_dma_cycles: build_dma,
            build_slot_cycles: build_slot,
            tree_buffer_reads: reads,
            search: stats.clone(),
            energy,
        }
    }

    /// Whether the frame did any modeled work at all (build or search).
    pub fn has_work(&self) -> bool {
        self.slot_cycles > 0 || self.build_slot_cycles > 0
    }

    /// The frame's standalone latency: build slot + search slot + one
    /// pipeline fill — what the frame would cost with no inter-frame
    /// overlap. A frame with no work costs zero (no fill is charged for
    /// an idle engine).
    pub fn standalone_cycles(&self) -> u64 {
        if self.has_work() {
            self.build_slot_cycles + self.slot_cycles + PE_PIPELINE_DEPTH
        } else {
            0
        }
    }
}

/// Aggregate report of a frame-sequence simulation.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Per-frame reports, in frame order.
    pub frames: Vec<FrameReport>,
    /// Sequence latency with inter-frame double buffering: frame `i+1`'s
    /// build overlaps frame `i`'s search, and a single pipeline fill is
    /// charged for the whole stream.
    pub pipelined_cycles: u64,
    /// Sequence latency with every frame run standalone (the no-overlap
    /// upper bound: per-frame build + search + fill).
    pub serial_cycles: u64,
    /// Build-slot cycles hidden behind search compute by the inter-frame
    /// overlap (the tree-maintenance work the stream gets for free —
    /// `serial − pipelined == (frames_with_work − 1) · fill + this`,
    /// where idle frames pay no fill in either bound).
    pub overlapped_build_cycles: u64,
}

impl StreamReport {
    /// Number of simulated frames.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Total queries across the stream.
    pub fn total_queries(&self) -> usize {
        self.frames.iter().map(|f| f.search.queries).sum()
    }

    /// The stream's energy: every frame's ledger merged in frame order.
    pub fn energy(&self) -> EnergyLedger {
        EnergyLedger::merged(self.frames.iter().map(|f| &f.energy))
    }

    /// Total DRAM traffic across the stream, search + tree maintenance
    /// (bytes, all streaming).
    pub fn total_dram_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.search.dram_bytes + f.maintenance.build_dram_bytes).sum()
    }

    /// Total tree-maintenance slot cycles across the stream.
    pub fn total_build_cycles(&self) -> u64 {
        self.frames.iter().map(|f| f.build_slot_cycles).sum()
    }

    /// Total stage-2 lock-step arbitration rounds across the stream —
    /// the banked tree buffer's share of the search compute.
    pub fn total_arb_rounds(&self) -> u64 {
        self.frames.iter().map(|f| f.search.subtree.rounds as u64).sum()
    }

    /// Total tree-buffer fetch attempts that lost bank arbitration.
    pub fn total_bank_conflicts(&self) -> u64 {
        self.frames.iter().map(|f| f.search.subtree.conflicts as u64).sum()
    }

    /// Total rounds in which at least one fetch stalled on a conflict.
    pub fn total_conflict_stall_cycles(&self) -> u64 {
        self.frames.iter().map(|f| f.search.subtree.stall_rounds as u64).sum()
    }

    /// Total conflicted fetches dropped by `h_e` elision.
    pub fn total_elided_conflicts(&self) -> u64 {
        self.frames.iter().map(|f| f.search.subtree.elided as u64).sum()
    }

    /// Total elision-eligible conflicts salvaged by descendant reuse —
    /// losers that continued beneath an ancestor winner instead of
    /// dropping their subtree (0 unless
    /// [`StreamSearchConfig::descendant_reuse`] is on).
    pub fn total_conflict_reuses(&self) -> u64 {
        self.frames.iter().map(|f| f.search.subtree.reuses as u64).sum()
    }

    /// Total aggregation-unit gather rounds across the stream.
    pub fn total_agg_cycles(&self) -> u64 {
        self.frames.iter().map(|f| f.agg_cycles).sum()
    }

    /// Total aggregation conflicts resolved by replication.
    pub fn total_agg_elided(&self) -> u64 {
        self.frames.iter().map(|f| f.agg_elided).sum()
    }

    /// Mean cross-frame sub-tree assignment reuse over frames 1.., the
    /// temporal-locality figure of merit (0.0 for streams of < 2 frames).
    pub fn mean_reuse_fraction(&self) -> f64 {
        if self.frames.len() < 2 {
            return 0.0;
        }
        let later = &self.frames[1..];
        later.iter().map(|f| f.search.reuse_fraction()).sum::<f64>() / later.len() as f64
    }

    /// Cycles saved by overlapping frames, relative to standalone frames.
    pub fn pipelining_speedup(&self) -> f64 {
        if self.pipelined_cycles == 0 {
            1.0
        } else {
            self.serial_cycles as f64 / self.pipelined_cycles as f64
        }
    }
}

/// Simulates a sequence of back-to-back frames on the Crescent engine.
///
/// Each item of `frames` is one frame's `(cloud, queries)`. Per frame the
/// driver maintains the K-d tree under `search.maintenance` (charging
/// build/refit cycles, DMA, and energy), re-splits it below
/// `knobs.top_height` through the allocation-recycling
/// [`SplitTree::resplit`] path, runs the batched two-stage search through
/// the banked tree-buffer arbitration model (`config.num_pes` lock-step
/// PEs over `config.tree_buffer.num_banks` banks, conflicts stalling or
/// eliding per `search.elision_depth`), gathers the neighbor lists
/// through the banked Point Buffer, and charges cycles and energy; the
/// shared [`BatchState`] carries descent buffers and the cross-frame
/// locality metric from frame to frame.
///
/// At `search.elision_depth == 0` the returned neighbor lists are
/// bit-identical to per-query [`SplitTree::search_one`] (see
/// `tests/elision_unified.rs`); with a positive depth, elision drops
/// neighbors (never invents one) in exchange for fewer arbitration
/// rounds.
///
/// For [`TreeMaintenance::Refit`], frame `i`'s cloud must give frame
/// `i−1`'s points at the same indices (temporally coherent, identity-
/// stable streams); anything else is detected by the refit validation
/// and handled as an incoherent frame via the full-rebuild fallback, so
/// results are *always* correct — incoherence costs cycles, not
/// accuracy.
pub fn run_frame_stream(
    frames: &[(&PointCloud, &[Point3])],
    search: &StreamSearchConfig,
    knobs: CrescentKnobs,
    config: &AcceleratorConfig,
) -> (Vec<Vec<Vec<Neighbor>>>, StreamReport) {
    let clouds: Vec<&PointCloud> = frames.iter().map(|&(cloud, _)| cloud).collect();
    let trees = maintain_tree_sequence(&clouds, search.maintenance, knobs.top_height);
    run_frame_stream_on_trees(frames, &trees, search, knobs, config)
}

/// One frame's maintained tree plus the modeled cost of maintaining it —
/// the per-frame element of [`maintain_tree_sequence`]'s output.
///
/// Everything downstream of maintenance reads only this snapshot: the
/// search stage ([`search_stream`]) reads the tree, the compose step
/// ([`compose_stream`]) reads the cost. That split is what lets the
/// sweep explorer keep the trees once per distinct tree sequence and
/// only the cost vectors of the others.
#[derive(Clone, Debug)]
pub struct MaintainedTree {
    /// The tree as it stands after this frame's maintenance.
    pub tree: KdTree,
    /// What the maintenance cost.
    pub cost: MaintenanceCost,
}

/// What one frame's tree maintenance cost, without the tree itself —
/// the maintenance input of [`compose_stream`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaintenanceCost {
    /// Modeled maintenance cycles (build partitioning, or refit patch +
    /// validation + sub-tree repairs).
    pub build_cycles: u64,
    /// DRAM bytes the maintenance streamed (cloud in, tree image out;
    /// for refit also the old image in).
    pub build_dram_bytes: u64,
    /// Dirty sub-trees a refit rebuilt in place (`0` for full builds).
    pub subtrees_rebuilt: usize,
    /// Whether this frame (re)built the whole tree from scratch — always
    /// under [`TreeMaintenance::RebuildEveryFrame`] and on frame 0, and
    /// under `Refit` only when the incoherence fallback fired.
    pub full_rebuild: bool,
}

/// The search stage's output for one frame: the counters the compose
/// step needs, without the neighbor sets.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FrameSearch {
    /// Points in the frame cloud.
    pub points: usize,
    /// Total neighbors returned across all queries.
    pub neighbors: usize,
    /// Statistics of the frame's batched banked search.
    pub stats: BatchSearchStats,
}

impl FrameSearch {
    /// The counters of one frame: `points` in its cloud, and the
    /// neighbor sets and statistics its search returned.
    pub(crate) fn new(points: usize, hits: &[Vec<Neighbor>], stats: BatchSearchStats) -> Self {
        FrameSearch { points, neighbors: hits.iter().map(Vec::len).sum(), stats }
    }
}

/// Runs the tree-maintenance phase alone over a stream of clouds,
/// returning each frame's tree snapshot and modeled maintenance cost.
///
/// The sequence depends only on the clouds, the `maintenance` policy,
/// and — for [`TreeMaintenance::Refit`] — `check_height` (the refit
/// validator walks the top `check_height` levels, i.e. the granted
/// `h_t`). In particular it is **independent of every other
/// architecture knob** (PE count, banking, elision, DRAM bandwidth).
/// The *trees* usually do not even depend on the policy or
/// `check_height` (refit ≡ rebuild), only the costs do — but where split
/// coordinates tie, a valid refit may keep a tied point in another heap
/// slot than a fresh build would, so a caller sharing one search across
/// sequences compares them first ([`KdTree::same_nodes`]).
///
/// [`run_frame_stream`] is exactly `maintain_tree_sequence` +
/// [`run_frame_stream_on_trees`]; callers that run many knob points
/// over one stream call the stages themselves and reuse their outputs.
pub fn maintain_tree_sequence(
    clouds: &[&PointCloud],
    maintenance: TreeMaintenance,
    check_height: usize,
) -> Vec<MaintainedTree> {
    let mut out: Vec<MaintainedTree> = Vec::with_capacity(clouds.len());
    let mut refit_scratch = RefitScratch::default();
    for &cloud in clouds {
        let entry = match (out.last(), maintenance) {
            // frame 0 always builds from scratch, whatever the policy
            (None, _) | (Some(_), TreeMaintenance::RebuildEveryFrame) => {
                let tree = KdTree::build(cloud);
                let b = *tree.build_stats();
                let cost = MaintenanceCost {
                    build_cycles: b.cycles,
                    build_dram_bytes: b.dram_bytes,
                    subtrees_rebuilt: 0,
                    full_rebuild: true,
                };
                MaintainedTree { tree, cost }
            }
            (Some(prev), TreeMaintenance::Refit { rebuild_threshold }) => {
                let cfg = RefitConfig { check_height, rebuild_threshold, ..RefitConfig::default() };
                let mut tree = prev.tree.clone();
                let r = tree.refit_with_scratch(cloud, &cfg, &mut refit_scratch);
                let cost = MaintenanceCost {
                    build_cycles: r.cycles,
                    build_dram_bytes: r.dram_bytes,
                    subtrees_rebuilt: r.subtrees_rebuilt,
                    full_rebuild: r.is_full_rebuild(),
                };
                MaintainedTree { tree, cost }
            }
        };
        out.push(entry);
    }
    out
}

/// The search/aggregation/timing/energy half of [`run_frame_stream`],
/// applied to a pre-maintained tree sequence (one [`MaintainedTree`] per
/// frame, as produced by [`maintain_tree_sequence`] on the same clouds,
/// policy, and granted `h_t`).
///
/// It is the composition of the three stages the sweep explorer calls
/// one by one, each reading only the inputs named on it:
///
/// 1. [`search_stream`] — the banked wavefront search of every frame;
/// 2. [`aggregate_stream`] — the Point-Buffer gathers of its results;
/// 3. [`compose_stream`] — DMA, slots, the build/search schedule, the
///    fill and the per-frame energy, from the counters of 1–2 and the
///    maintenance costs.
///
/// # Panics
///
/// Panics if `trees.len() != frames.len()`.
pub fn run_frame_stream_on_trees(
    frames: &[(&PointCloud, &[Point3])],
    trees: &[MaintainedTree],
    search: &StreamSearchConfig,
    knobs: CrescentKnobs,
    config: &AcceleratorConfig,
) -> (Vec<Vec<Vec<Neighbor>>>, StreamReport) {
    let (results, searched) = search_stream(frames, trees, search, knobs.top_height, config);
    let aggregated = aggregate_stream(&results, config.point_buffer, config.aggregation_elision);
    let costs: Vec<MaintenanceCost> = trees.iter().map(|t| t.cost).collect();
    let report = compose_stream(&searched, &aggregated, &costs, config);
    (results, report)
}

/// The search stage: re-splits each frame's tree below `top_height`
/// (clamped to the tree) through the allocation-recycling
/// [`SplitTree::resplit`] path and answers the frame's queries with the
/// batched two-stage search through the banked tree-buffer arbitration
/// model. One [`BatchState`] is threaded through the whole sequence, so
/// descent buffers are recycled and cross-frame locality is measured.
///
/// Reads the trees, the queries, `top_height`, the radius, neighbor cap,
/// elision depth and descendant reuse of `search`, and the PE and
/// tree-bank counts of `config` — never the maintenance policy, the DRAM
/// bandwidth or anything of aggregation. Returns the neighbor sets and
/// the per-frame counters the compose step needs.
///
/// # Panics
///
/// Panics if `trees.len() != frames.len()`.
pub fn search_stream(
    frames: &[(&PointCloud, &[Point3])],
    trees: &[MaintainedTree],
    search: &StreamSearchConfig,
    top_height: usize,
    config: &AcceleratorConfig,
) -> (Vec<Vec<Vec<Neighbor>>>, Vec<FrameSearch>) {
    assert_eq!(trees.len(), frames.len(), "one maintained tree per frame");
    let mut engine = FrameEngine::default();
    frames
        .iter()
        .zip(trees)
        .map(|(&(cloud, queries), maintained)| {
            let (hits, stats) =
                engine.search(&maintained.tree, queries, top_height, search, config);
            let frame = FrameSearch::new(cloud.len(), &hits, stats);
            (hits, frame)
        })
        .unzip()
}

/// The aggregation stage: per frame, the aggregation unit gathers every
/// query's neighbor list from the banked Point Buffer
/// ([`simulate_aggregation`]); conflicted gathers serialize unless
/// `elide` replicates the winner's neighbor. Reads only the neighbor
/// indices, the Point Buffer geometry and the elision flag.
pub fn aggregate_stream(
    neighbor_sets: &[Vec<Vec<Neighbor>>],
    point_buffer: SramConfig,
    elide: bool,
) -> Vec<AggregationReport> {
    let mut engine = FrameEngine::default();
    neighbor_sets.iter().map(|frame| engine.aggregate(frame, point_buffer, elide)).collect()
}

/// The compose step: a pure function of the per-frame search counters,
/// aggregation reports and maintenance costs. It prices each frame
/// (`FrameReport::compose`, which also charges its energy), then
/// derives the inter-frame build/search schedule and the once-per-stream
/// pipeline fill, reading only the DRAM and energy models of `config`.
///
/// # Panics
///
/// Panics if the three per-frame inputs differ in length.
pub fn compose_stream(
    searched: &[FrameSearch],
    aggregated: &[AggregationReport],
    maintenance: &[MaintenanceCost],
    config: &AcceleratorConfig,
) -> StreamReport {
    assert!(
        searched.len() == aggregated.len() && searched.len() == maintenance.len(),
        "one search, aggregation and maintenance record per frame"
    );
    let mut report = StreamReport::default();
    // pipeline schedule state: when the build unit / search engine free
    // up, plus the search-completion time two frames back (the spare
    // tree buffer only frees once the search reading it finishes)
    let mut build_end: u64 = 0;
    let mut search_end: u64 = 0;
    let mut search_end_prev: u64 = 0;

    for (frame_idx, ((searched, agg), cost)) in
        searched.iter().zip(aggregated).zip(maintenance).enumerate()
    {
        let frame = FrameReport::compose(frame_idx, searched, agg, cost, config);
        // One build unit, one search engine, two tree buffers: frame i's
        // build may start once the build unit is free AND the buffer
        // frame i−2 was searched from has drained.
        let build_start = build_end.max(search_end_prev);
        build_end = build_start + frame.build_slot_cycles;
        let search_start = search_end.max(build_end);
        search_end_prev = search_end;
        search_end = search_start + frame.slot_cycles;

        report.frames.push(frame);
    }

    // A stream that never did any work pays no fill; otherwise the fill
    // is charged exactly once for the whole pipelined sequence.
    let any_work = report.frames.iter().any(FrameReport::has_work);
    if any_work {
        let fill = PE_PIPELINE_DEPTH;
        let total_search: u64 = report.frames.iter().map(|f| f.slot_cycles).sum();
        let total_build: u64 = report.frames.iter().map(|f| f.build_slot_cycles).sum();
        // search-engine idle time is exactly the build time the overlap
        // could NOT hide (exposed build)
        let exposed_build = search_end - total_search;
        report.pipelined_cycles = search_end + fill;
        report.serial_cycles = report.frames.iter().map(FrameReport::standalone_cycles).sum();
        report.overlapped_build_cycles = total_build - exposed_build;
    }
    report
}

/// The recycled working memory of one frame's search and aggregation:
/// the descent buffers and cross-frame locality history
/// ([`BatchState`]), the sub-tree root pool of [`SplitTree::resplit`],
/// and the per-query neighbor-index lists the aggregation unit gathers.
/// The stream stages and a service instance drive the same two steps
/// through it, so a stream frame and a service wavefront are one model.
#[derive(Debug, Default)]
pub(crate) struct FrameEngine {
    state: BatchState,
    roots_pool: Vec<usize>,
    neighbor_lists: Vec<Vec<usize>>,
}

impl FrameEngine {
    /// Re-splits `tree` below `top_height` (clamped to the tree: a
    /// degenerate tree grants `h_t = 0`) and runs the banked wavefront
    /// search of `queries` on it with `config`'s PEs and tree-buffer
    /// banks.
    pub(crate) fn search(
        &mut self,
        tree: &KdTree,
        queries: &[Point3],
        top_height: usize,
        search: &StreamSearchConfig,
        config: &AcceleratorConfig,
    ) -> (Vec<Vec<Neighbor>>, BatchSearchStats) {
        let batch_cfg = BatchSearchConfig::banked(
            search.radius,
            search.max_neighbors,
            config.num_pes,
            config.tree_buffer.num_banks,
            search.elision_depth,
        )
        .with_descendant_reuse(search.descendant_reuse);
        let ht = if tree.is_empty() { 0 } else { top_height.min(tree.height() - 1) };
        let split = SplitTree::resplit(tree, ht, std::mem::take(&mut self.roots_pool))
            .expect("clamped top height is valid");
        let out = split.search_batch(queries, &batch_cfg, &mut self.state);
        self.roots_pool = split.into_subtree_roots();
        out
    }

    /// The aggregation unit's gather of one frame's neighbor lists from
    /// the banked Point Buffer. The index lists live across calls, so
    /// the steady-state loop allocates nothing per frame.
    pub(crate) fn aggregate(
        &mut self,
        hits: &[Vec<Neighbor>],
        point_buffer: SramConfig,
        elide: bool,
    ) -> AggregationReport {
        if self.neighbor_lists.len() < hits.len() {
            self.neighbor_lists.resize_with(hits.len(), Vec::new);
        }
        for (list, frame_hits) in self.neighbor_lists.iter_mut().zip(hits) {
            list.clear();
            list.extend(frame_hits.iter().map(|n| n.index));
        }
        simulate_aggregation(
            &self.neighbor_lists[..hits.len()],
            point_buffer,
            point_buffer.num_banks,
            elide,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn drifting_frames(count: usize, n: usize, seed: u64) -> Vec<(PointCloud, Vec<Point3>)> {
        let base = random_cloud(n, seed);
        (0..count)
            .map(|f| {
                let drift = Point3::new(0.01, -0.005, 0.0) * f as f32;
                let cloud: PointCloud = base.iter().map(|&p| p + drift).collect();
                let queries: Vec<Point3> = (0..64).map(|i| cloud.point(i * n / 64)).collect();
                (cloud, queries)
            })
            .collect()
    }

    fn borrow(frames: &[(PointCloud, Vec<Point3>)]) -> Vec<(&PointCloud, &[Point3])> {
        frames.iter().map(|(c, q)| (c, q.as_slice())).collect()
    }

    #[test]
    fn stream_is_deterministic() {
        let frames = drifting_frames(6, 2048, 80);
        let search =
            StreamSearchConfig { radius: 0.2, max_neighbors: Some(16), ..Default::default() };
        let cfg = AcceleratorConfig::default();
        let knobs = CrescentKnobs::default();
        let (r1, a) = run_frame_stream(&borrow(&frames), &search, knobs, &cfg);
        let (r2, b) = run_frame_stream(&borrow(&frames), &search, knobs, &cfg);
        assert_eq!(r1, r2, "neighbor sets must be bit-identical");
        assert_eq!(a.pipelined_cycles, b.pipelined_cycles);
        assert_eq!(a.serial_cycles, b.serial_cycles);
        assert_eq!(a.energy(), b.energy());
    }

    #[test]
    fn pipelining_beats_serial() {
        let frames = drifting_frames(8, 2048, 81);
        let (_, rep) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig::default(),
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert_eq!(rep.num_frames(), 8);
        assert!(rep.pipelined_cycles < rep.serial_cycles);
        assert!(rep.pipelining_speedup() > 1.0);
        // the overlap hides fills and build slots, never search work: the
        // exact bookkeeping identity
        assert_eq!(
            rep.serial_cycles - rep.pipelined_cycles,
            7 * PE_PIPELINE_DEPTH + rep.overlapped_build_cycles
        );
        assert!(rep.overlapped_build_cycles <= rep.total_build_cycles());
        // and the pipelined latency is never below the raw work
        let search: u64 = rep.frames.iter().map(|f| f.slot_cycles).sum();
        assert!(rep.pipelined_cycles >= search + PE_PIPELINE_DEPTH);
    }

    #[test]
    fn build_is_charged_in_every_frame() {
        let frames = drifting_frames(5, 2048, 85);
        for maintenance in [TreeMaintenance::RebuildEveryFrame, TreeMaintenance::refit()] {
            let (_, rep) = run_frame_stream(
                &borrow(&frames),
                &StreamSearchConfig { maintenance, ..Default::default() },
                CrescentKnobs::default(),
                &AcceleratorConfig::default(),
            );
            for f in &rep.frames {
                assert!(f.maintenance.build_cycles > 0, "{maintenance:?} frame {}", f.frame);
                assert!(f.maintenance.build_dram_bytes > 0, "{maintenance:?} frame {}", f.frame);
                assert!(f.energy.tree_build > 0.0, "{maintenance:?} frame {}", f.frame);
            }
            assert!(rep.energy().tree_build > 0.0);
            assert!(rep.frames[0].maintenance.full_rebuild, "frame 0 always builds");
        }
    }

    #[test]
    fn refit_policy_is_cheaper_and_bit_identical_on_coherent_streams() {
        let frames = drifting_frames(16, 4096, 86);
        let base =
            StreamSearchConfig { radius: 0.2, max_neighbors: Some(16), ..Default::default() };
        let knobs = CrescentKnobs::default();
        let cfg = AcceleratorConfig::default();
        let (r_rebuild, rep_rebuild) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig { maintenance: TreeMaintenance::RebuildEveryFrame, ..base },
            knobs,
            &cfg,
        );
        let (r_refit, rep_refit) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig { maintenance: TreeMaintenance::refit(), ..base },
            knobs,
            &cfg,
        );
        assert_eq!(r_rebuild, r_refit, "coherent refit must be bit-identical");
        assert!(
            rep_refit.pipelined_cycles * 4 <= rep_rebuild.pipelined_cycles * 3,
            "refit must save >= 25%: {} vs {}",
            rep_refit.pipelined_cycles,
            rep_rebuild.pipelined_cycles
        );
        // no fallback fired after frame 0
        for f in &rep_refit.frames[1..] {
            assert!(!f.maintenance.full_rebuild, "coherent frame {} must refit in place", f.frame);
        }
    }

    #[test]
    fn incoherent_stream_falls_back_without_correctness_loss() {
        // frame 2 is a completely different cloud (same size): refit
        // must detect it and fall back, matching the rebuild policy
        let mut frames = drifting_frames(4, 2048, 87);
        let scrambled = random_cloud(2048, 999);
        let queries: Vec<Point3> = (0..64).map(|i| scrambled.point(i * 32)).collect();
        frames[2] = (scrambled, queries);
        let base =
            StreamSearchConfig { radius: 0.2, max_neighbors: Some(16), ..Default::default() };
        let (r_rebuild, _) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig { maintenance: TreeMaintenance::RebuildEveryFrame, ..base },
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        let (r_refit, rep) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig { maintenance: TreeMaintenance::refit(), ..base },
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert_eq!(r_rebuild, r_refit, "fallback must preserve results");
        assert!(
            rep.frames[2].maintenance.full_rebuild,
            "the incoherent frame must trigger the fallback"
        );
    }

    #[test]
    fn zero_query_frames_cost_zero_search_cycles() {
        // regression: an empty-work frame used to charge leakage against
        // a fill-deep slot and still push a fill into the totals
        let cloud = random_cloud(1024, 88);
        let frames = vec![(cloud, Vec::<Point3>::new())];
        let (res, rep) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig::default(),
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert!(res[0].is_empty());
        let f = &rep.frames[0];
        assert_eq!(f.compute_cycles, 0, "no queries, no datapath work");
        assert_eq!(f.slot_cycles, 0);
        assert_eq!(f.search.dram_bytes, 0);
        // the tree still had to be built — that work is real
        assert!(f.maintenance.build_cycles > 0);
        // leakage covers the build slot only, not a phantom fill
        let em = AcceleratorConfig::default().energy;
        assert!(
            (f.energy.leakage - em.leakage_per_cycle * f.build_slot_cycles as f64).abs() < 1e-9
        );
    }

    #[test]
    fn drifting_frames_show_temporal_locality() {
        let frames = drifting_frames(5, 4096, 82);
        let (_, rep) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig { radius: 0.2, max_neighbors: None, ..Default::default() },
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert_eq!(rep.frames[0].search.assignment_reuses, 0, "first frame has no history");
        assert!(
            rep.mean_reuse_fraction() > 0.5,
            "small drift must preserve most assignments, got {}",
            rep.mean_reuse_fraction()
        );
    }

    #[test]
    fn ledger_matches_frames() {
        let frames = drifting_frames(4, 1024, 83);
        let (_, rep) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig::default(),
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert_eq!(rep.num_frames(), 4);
        for f in &rep.frames {
            assert!(f.energy.dram_streaming > 0.0);
            assert!(f.energy.tree_build > 0.0);
            assert_eq!(f.energy.dram_random, 0.0, "streaming schedule has no random DRAM");
        }
        let sum: f64 = rep.frames.iter().map(|f| f.energy.total()).sum();
        assert!((rep.energy().total() - sum).abs() < 1e-9);
    }

    #[test]
    fn empty_stream_and_empty_frames() {
        let (res, rep) = run_frame_stream(
            &[],
            &StreamSearchConfig::default(),
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert!(res.is_empty());
        assert_eq!(rep.num_frames(), 0);
        assert_eq!(rep.pipelined_cycles, 0, "no frames, no work, no fill");
        assert_eq!(rep.serial_cycles, 0);
        assert_eq!(rep.pipelining_speedup(), 1.0);

        // an empty cloud does no work at all: zero cycles, zero fill
        let frames = vec![(PointCloud::new(), vec![Point3::ZERO])];
        let (res, rep) = run_frame_stream(
            &borrow(&frames),
            &StreamSearchConfig::default(),
            CrescentKnobs::default(),
            &AcceleratorConfig::default(),
        );
        assert!(res[0][0].is_empty());
        assert_eq!(rep.total_dram_bytes(), 0);
        assert_eq!(rep.pipelined_cycles, 0, "an all-idle stream pays no fill");
        assert_eq!(rep.serial_cycles, 0);
        assert_eq!(rep.energy().total(), 0.0);
    }
}
