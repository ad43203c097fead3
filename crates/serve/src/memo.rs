//! The compute-once wavefront memo every [`ServiceContext`] carries.
//!
//! Within one context a wavefront is a pure function of its
//! [`WaveKey`]: every rider belongs to frame `tick`, so the tree is
//! `ctx.trees[tick]` and each rider's queries are
//! `ctx.queries[tenant][tick]`; descendant reuse follows from the rider
//! list; and the accelerator config, knobs, radius and neighbor cap are
//! fixed for the context. The grid re-dispatches the same wavefront in
//! many rows (fleet size, controller mode and tenant prefix often leave
//! a tick's batch unchanged), so the memo simulates each key once and
//! every later dispatch reads the stored [`Wavefront`].
//!
//! Each key owns a [`OnceLock`] behind the map lock: whichever worker
//! gets there first simulates, and any other worker asking for the same
//! key blocks until the value is there. A stored value holds only
//! fields that are pure functions of the key, so which worker filled an
//! entry cannot reach a report byte.
//!
//! [`ServiceContext`]: crate::ServiceContext

use std::collections::HashMap;
use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crescent_accel::FrameReport;
use crescent_memsim::EnergyLedger;
use crescent_pointcloud::Neighbor;

/// What identifies a wavefront within one context.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct WaveKey {
    /// The service tick (== frame index) every rider belongs to.
    pub tick: usize,
    /// The wavefront's search-elision depth.
    pub h_e: usize,
    /// The riders' tenant indices in EDF order, which is the order of
    /// their segments in the flat batch the engine searches.
    pub tenants: Vec<usize>,
}

/// Everything the scheduler reads from one simulated wavefront.
#[derive(Debug)]
pub(crate) struct Wavefront {
    /// Dispatch-to-completion cycles
    /// ([`FrameReport::standalone_cycles`]).
    pub latency: u64,
    /// The wavefront's energy ledger.
    pub energy: EnergyLedger,
    /// Queries in the flat batch.
    pub queries: usize,
    // the search's fetch and elision counters the ledger sums
    pub top_fetches: u64,
    pub top_fetches_unamortized: u64,
    pub conflicts_elided: u64,
    pub nodes_skipped: u64,
    pub conflict_reuses: u64,
    /// Every query's neighbors back to back, as `(index, dist2)`.
    hits: Vec<(u32, f32)>,
    /// End offset in `hits` of each query's neighbors.
    ends: Vec<u32>,
}

impl Wavefront {
    /// Keeps what the scheduler reads of a simulated wavefront: its
    /// per-query neighbor lists `hits` and modeled frame record.
    pub fn new(hits: &[Vec<Neighbor>], report: &FrameReport) -> Wavefront {
        let mut flat = Vec::with_capacity(hits.iter().map(Vec::len).sum());
        let mut ends = Vec::with_capacity(hits.len());
        for query in hits {
            flat.extend(
                query.iter().map(|n| {
                    (u32::try_from(n.index).expect("map point indices fit in u32"), n.dist2)
                }),
            );
            ends.push(u32::try_from(flat.len()).expect("a wavefront's hits fit in u32"));
        }
        let search = &report.search;
        Wavefront {
            latency: report.standalone_cycles(),
            energy: report.energy,
            queries: search.queries,
            top_fetches: search.top_fetches as u64,
            top_fetches_unamortized: search.top_fetches_unamortized as u64,
            conflicts_elided: search.subtree.elided as u64,
            nodes_skipped: search.subtree.skipped as u64,
            conflict_reuses: search.subtree.reuses as u64,
            hits: flat,
            ends,
        }
    }

    /// The neighbor lists of the flat batch's queries `queries` (one
    /// rider's segment).
    pub fn neighbors(&self, queries: Range<usize>) -> Vec<Vec<Neighbor>> {
        queries
            .map(|q| {
                let start = if q == 0 { 0 } else { self.ends[q - 1] as usize };
                self.hits[start..self.ends[q] as usize]
                    .iter()
                    .map(|&(index, dist2)| Neighbor { index: index as usize, dist2 })
                    .collect()
            })
            .collect()
    }
}

/// The memo: one compute-once cell per [`WaveKey`].
#[derive(Default)]
pub(crate) struct WavefrontMemo {
    entries: Mutex<HashMap<WaveKey, Arc<OnceLock<Arc<Wavefront>>>>>,
    simulated: AtomicUsize,
}

impl WavefrontMemo {
    /// The wavefront of `key`; `simulate` runs only if no lookup of
    /// `key` has run it yet. The map lock is released before
    /// simulating, so distinct keys simulate concurrently.
    pub fn get_or_simulate(
        &self,
        key: WaveKey,
        simulate: impl FnOnce() -> Wavefront,
    ) -> Arc<Wavefront> {
        let cell = Arc::clone(
            self.entries
                .lock()
                .expect("a worker panicked holding the memo lock")
                .entry(key)
                .or_default(),
        );
        let wavefront = cell.get_or_init(|| {
            self.simulated.fetch_add(1, Ordering::Relaxed);
            Arc::new(simulate())
        });
        Arc::clone(wavefront)
    }

    /// Wavefronts simulated so far.
    pub fn simulated(&self) -> usize {
        self.simulated.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for WavefrontMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WavefrontMemo").field("simulated", &self.simulated()).finish()
    }
}
