//! Aggregation-unit simulator (the Mesorasi-style neighbor gather of
//! Sec 2.3 / Fig 12, with Crescent's elision of Sec 4.2).
//!
//! For every output point, the unit fetches the point's `k` neighbors from
//! the banked Point Buffer using the neighbor-index matrix. Points are
//! interleaved across banks by index. Up to `ports` fetches issue per
//! cycle:
//!
//! * **baseline** — conflicted fetches serialize (extra rounds);
//! * **elision** — conflicted fetches return the winner's data in the same
//!   round, which implicitly *replicates* a neighbor (the MLP input matrix
//!   keeps its expected size, Sec 4.2).

use crescent_memsim::{BankedSram, SramConfig};

/// Outcome of simulating an aggregation pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AggregationReport {
    /// SRAM arbitration rounds (cycle-count proxy for the gather).
    pub rounds: u64,
    /// Total neighbor-fetch requests issued (including re-issues).
    pub requests: u64,
    /// Fetches that returned their own data.
    pub grants: u64,
    /// Conflicted fetches (stalled or elided).
    pub conflicts: u64,
    /// Conflicted fetches resolved by replication (elision mode).
    pub elided: u64,
}

impl AggregationReport {
    /// Fraction of requests that bank-conflicted — the Fig 5 metric.
    pub fn conflict_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.conflicts as f64 / self.requests as f64
        }
    }

    /// Merges another report.
    pub fn merge(&mut self, other: &AggregationReport) {
        self.rounds += other.rounds;
        self.requests += other.requests;
        self.grants += other.grants;
        self.conflicts += other.conflicts;
        self.elided += other.elided;
    }
}

/// Simulates gathering each `neighbor_lists[i]` from a Point Buffer with
/// configuration `sram`, issuing at most `ports` requests per cycle.
///
/// Returns the report; when `elide` is set, the replicated fetch count is
/// in [`AggregationReport::elided`]. With `ports == sram.num_banks` and
/// `elide` set, every issue group is one round with no retries, and
/// [`AggregationReport::conflict_rate`] is the Fig 5 experiment.
///
/// # Panics
///
/// Panics if `ports == 0`.
pub fn simulate_aggregation(
    neighbor_lists: &[Vec<usize>],
    sram: SramConfig,
    ports: usize,
    elide: bool,
) -> AggregationReport {
    assert!(ports > 0, "aggregation needs at least one port");
    let mut bank = BankedSram::new(sram);
    let word = sram.word_bytes as u64;
    let mut report = AggregationReport::default();
    // fixed per-chunk work: reading the neighbor-index words from the
    // Neighbor Index Buffer and writing the gathered rows onward
    const CHUNK_OVERHEAD: u64 = 2;
    for list in neighbor_lists {
        for chunk in list.chunks(ports) {
            let gather = bank.gather(chunk.iter().map(|&i| i as u64 * word), elide);
            report.rounds += gather + CHUNK_OVERHEAD;
        }
    }
    let c = bank.counters();
    report.requests = c.requests;
    report.grants = c.grants;
    report.conflicts = c.conflicts;
    report.elided = c.elided;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(banks: usize) -> SramConfig {
        SramConfig { num_banks: banks, word_bytes: 4, capacity_bytes: 64 << 10 }
    }

    #[test]
    fn conflict_free_lists_take_one_round_each() {
        // neighbors hit distinct banks
        let lists = vec![vec![0, 1, 2, 3], vec![4, 5, 6, 7]];
        let r = simulate_aggregation(&lists, cfg(4), 4, false);
        // 1 gather round + 2 overhead rounds per chunk
        assert_eq!(r.rounds, 6);
        assert_eq!(r.conflicts, 0);
        assert_eq!(r.grants, 8);
    }

    #[test]
    fn serializing_conflicts_add_rounds() {
        // all four neighbors in the same bank
        let lists = vec![vec![0, 4, 8, 12]];
        let r = simulate_aggregation(&lists, cfg(4), 4, false);
        // 4 serialized gather rounds + 2 overhead rounds
        assert_eq!(r.rounds, 6);
        assert_eq!(r.conflicts, 3 + 2 + 1);
    }

    #[test]
    fn eliding_caps_rounds_at_one_per_chunk() {
        let lists = vec![vec![0, 4, 8, 12], vec![1, 5, 9, 13]];
        let r = simulate_aggregation(&lists, cfg(4), 4, true);
        // (1 gather + 2 overhead) per chunk
        assert_eq!(r.rounds, 6);
        assert_eq!(r.elided, 6);
        // elided fetches replicate: grants + elided == requests
        assert_eq!(r.grants + r.elided, r.requests);
    }

    #[test]
    fn elision_never_slower() {
        let mut x = 7u64;
        let lists: Vec<Vec<usize>> = (0..50)
            .map(|_| {
                (0..16)
                    .map(|_| {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        ((x >> 11) % 1024) as usize
                    })
                    .collect()
            })
            .collect();
        let base = simulate_aggregation(&lists, cfg(16), 16, false);
        let el = simulate_aggregation(&lists, cfg(16), 16, true);
        assert!(el.rounds <= base.rounds);
        assert!(base.conflicts > 0, "random indices should conflict");
        assert_eq!(el.rounds, 150, "three rounds per 16-wide chunk");
    }

    #[test]
    fn single_issue_conflict_rate_in_fig5_range() {
        // random neighbor indices over a big cloud, 16 banks, 16 requests:
        // the paper reports 38-57% across networks
        let mut x = 3u64;
        let lists: Vec<Vec<usize>> = (0..200)
            .map(|_| {
                (0..16)
                    .map(|_| {
                        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
                        ((x >> 17) % 4096) as usize
                    })
                    .collect()
            })
            .collect();
        let rate = simulate_aggregation(&lists, cfg(16), 16, true).conflict_rate();
        assert!(rate > 0.25 && rate < 0.70, "rate {rate}");
    }

    #[test]
    fn empty_lists() {
        let r = simulate_aggregation(&[], cfg(4), 4, false);
        assert_eq!(r, AggregationReport::default());
        let r = simulate_aggregation(&[vec![]], cfg(4), 4, true);
        assert_eq!(r.rounds, 0);
    }

    #[test]
    #[should_panic(expected = "at least one port")]
    fn zero_ports_panics() {
        let _ = simulate_aggregation(&[], cfg(4), 0, false);
    }

    #[test]
    fn merge_reports() {
        let a = AggregationReport { rounds: 1, requests: 2, grants: 2, conflicts: 0, elided: 0 };
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.rounds, 2);
        assert_eq!(b.requests, 4);
    }
}
