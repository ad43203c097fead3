//! K-d tree and approximate neighbor search for the Crescent (ISCA 2022)
//! reproduction.
//!
//! Layers:
//!
//! * [`KdTree`] — flat, left-balanced K-d tree whose heap layout is a dense
//!   array (the accelerator's streaming DRAM image);
//! * [`radius_search`] — exact traversal with optional per-fetch
//!   instrumentation for the memory-trace experiments;
//! * [`SplitTree`] — the paper's two-level top-tree/sub-tree structure with
//!   the fully-streaming two-stage search (Sec 3) and the lock-step
//!   bank-conflict elision model (Sec 4), whose counts both search
//!   drivers keep in one [`DrainCounters`] record per stage. Both stages
//!   have one simulator: a drain that moves each PE's cursor over its
//!   query's walk — the top-tree route in stage 1, the radius-pruned
//!   sub-tree walk, walked from the tree or read in place from a
//!   [`SegmentTrace`], in stage 2 — with descendant reuse splicing a
//!   walk. Every walk has one 8-byte step format, and the drain reads a
//!   hit's point index and distance from the tree. Both drivers and
//!   [`crescent_dram_bytes`] route on one top-tree descent, and the DRAM
//!   bytes of the Sec 3.4 schedule are written once
//!   ([`SplitTree::schedule_dram_bytes`]); `search_one` keeps its own
//!   router, [`SplitTree::route_query`], as the reference the tests hold
//!   them to;
//! * [`batch`] — the batched two-stage search ([`SplitTree::search_batch`])
//!   that amortizes top-tree fetches across a query batch, reuses its
//!   descent state across the frames of a stream ([`BatchState`]), and
//!   drains each sub-tree queue through the same drain as
//!   `batch_search` (conflicts stall or are elided per the
//!   depth-from-leaves `h_e` knob of [`BatchSearchConfig`]); a query
//!   segment's config-free geometry can be recorded once
//!   ([`SplitTree::trace_segment`], a [`SegmentTrace`]) and replayed on
//!   the same tree inside any wavefront it rides, under any config
//!   ([`SplitTree::replay_segments`]);
//! * [`refit`] — incremental frame-coherent tree maintenance
//!   ([`KdTree::refit`]): in-place coordinate update + validation +
//!   per-sub-tree repair for temporally coherent frames, with an honest
//!   cost model ([`BuildStats`], [`RefitStats`]) for both maintenance
//!   paths;
//! * [`baselines`] — Tigris/QuickNN-style split-exhaustive search with
//!   sub-tree reloading, used by the Fig 24 comparison.
//!
//! # Example
//!
//! ```
//! use crescent_kdtree::{KdTree, SplitSearchConfig, SplitTree};
//! use crescent_pointcloud::{Point3, PointCloud};
//!
//! let cloud: PointCloud = (0..1000)
//!     .map(|i| Point3::new((i % 10) as f32, ((i / 10) % 10) as f32, (i / 100) as f32))
//!     .collect();
//! let tree = KdTree::build(&cloud);
//! let split = SplitTree::new(&tree, 4)?;
//! let queries = [Point3::new(5.0, 5.0, 5.0)];
//! let (results, stats) = split.batch_search(&queries, &SplitSearchConfig {
//!     radius: 1.5,
//!     ..SplitSearchConfig::default()
//! });
//! assert!(!results[0].is_empty());
//! assert!(stats.total().visits < cloud.len());
//! # Ok::<(), crescent_kdtree::SplitTreeError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod baselines;
pub mod batch;
#[cfg(test)]
mod oracle;
pub mod refit;
pub mod search;
pub mod split;
pub mod tree;

pub use baselines::{
    crescent_dram_bytes, split_exhaustive_report, split_exhaustive_search, BaselineReport,
};
pub use batch::{
    BatchSearchConfig, BatchSearchStats, BatchState, SegmentTrace, TaggedBatch, TaggedResults,
};
pub use refit::{RebuildReason, RefitConfig, RefitOutcome, RefitScratch, RefitStats};
pub use search::{radius_search, radius_search_traced};
pub use split::{
    DrainCounters, ElisionConfig, SplitSearchConfig, SplitSearchStats, SplitTree, SplitTreeError,
};
pub use tree::{height_for, left_subtree_size, BuildStats, KdNode, KdTree, NODE_BYTES};
