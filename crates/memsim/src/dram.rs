//! DRAM access-stream model.
//!
//! Two jobs:
//!
//! 1. **Classification** — split an address stream into *streaming*
//!    (sequential with the previous access) and *random* (non-continuous)
//!    accesses, the distinction behind Fig 2 and the 3:1 energy ratio of
//!    Sec 6 ("the energy ratio between a random DRAM access and a streaming
//!    DRAM access is about 3:1");
//! 2. **Timing** — convert byte counts into cycles using an LPDDR3-1600
//!    ×4-channel bandwidth model (the paper's Micron part), so the
//!    accelerator simulator can overlap DMA with compute.

/// Classification counters for a DRAM access stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DramCounters {
    /// Accesses whose address continued the previous access.
    pub streaming_accesses: u64,
    /// Accesses that broke the sequential pattern.
    pub random_accesses: u64,
    /// Bytes moved by streaming accesses.
    pub streaming_bytes: u64,
    /// Bytes moved by random accesses.
    pub random_bytes: u64,
}

impl DramCounters {
    /// Total accesses observed.
    pub fn total_accesses(&self) -> u64 {
        self.streaming_accesses + self.random_accesses
    }

    /// Total bytes moved.
    pub fn total_bytes(&self) -> u64 {
        self.streaming_bytes + self.random_bytes
    }

    /// Fraction of accesses that were non-continuous (the Fig 2 metric).
    pub fn non_streaming_fraction(&self) -> f64 {
        let total = self.total_accesses();
        if total == 0 {
            0.0
        } else {
            self.random_accesses as f64 / total as f64
        }
    }

    /// Merges counters from another stream.
    pub fn merge(&mut self, other: &DramCounters) {
        self.streaming_accesses += other.streaming_accesses;
        self.random_accesses += other.random_accesses;
        self.streaming_bytes += other.streaming_bytes;
        self.random_bytes += other.random_bytes;
    }
}

/// Classifies a DRAM access stream into streaming vs. random accesses.
///
/// An access is *streaming* if it starts exactly where the previous access
/// ended (the DMA can keep the burst open). The first access of a stream is
/// random by definition.
///
/// # Examples
///
/// ```
/// use crescent_memsim::DramTraceAnalyzer;
///
/// let mut a = DramTraceAnalyzer::new();
/// a.access(0, 64);
/// a.access(64, 64);   // continues -> streaming
/// a.access(4096, 64); // jump -> random
/// assert_eq!(a.counters().streaming_accesses, 1);
/// assert_eq!(a.counters().random_accesses, 2);
/// ```
#[derive(Clone, Debug, Default)]
pub struct DramTraceAnalyzer {
    counters: DramCounters,
    next_addr: Option<u64>,
}

impl DramTraceAnalyzer {
    /// Creates an analyzer with no history.
    pub fn new() -> Self {
        DramTraceAnalyzer::default()
    }

    /// Records an access of `bytes` bytes at byte address `addr`.
    pub fn access(&mut self, addr: u64, bytes: u64) {
        let streaming = self.next_addr == Some(addr);
        if streaming {
            self.counters.streaming_accesses += 1;
            self.counters.streaming_bytes += bytes;
        } else {
            self.counters.random_accesses += 1;
            self.counters.random_bytes += bytes;
        }
        self.next_addr = Some(addr + bytes);
    }

    /// Records a whole sequential transfer (first burst random, rest
    /// streaming), like a DMA block move.
    pub fn stream(&mut self, start_addr: u64, bytes: u64, burst: u64) {
        let mut addr = start_addr;
        let mut left = bytes;
        while left > 0 {
            let b = left.min(burst.max(1));
            self.access(addr, b);
            addr += b;
            left -= b;
        }
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &DramCounters {
        &self.counters
    }
}

/// LPDDR3-1600 ×4-channel timing parameters (Sec 6's DRAM model), expressed
/// against the accelerator's 1 GHz clock.
#[derive(Clone, Copy, Debug)]
pub struct DramTiming {
    /// Sustained sequential bandwidth in bytes per accelerator cycle.
    /// LPDDR3-1600 ×4 channels peaks at 25.6 GB/s ≈ 25.6 B/cycle at 1 GHz;
    /// we assume 80 % utilization for streams.
    pub stream_bytes_per_cycle: f64,
    /// Latency of an isolated random access (row miss + bus), in cycles.
    pub random_access_cycles: u64,
    /// Burst granularity in bytes.
    pub burst_bytes: u64,
}

impl Default for DramTiming {
    fn default() -> Self {
        DramTiming {
            stream_bytes_per_cycle: 20.48, // 25.6 GB/s * 0.8 at 1 GHz
            random_access_cycles: 120,
            burst_bytes: 64,
        }
    }
}

impl DramTiming {
    /// Cycles to stream `bytes` sequential bytes.
    pub fn stream_cycles(&self, bytes: u64) -> u64 {
        (bytes as f64 / self.stream_bytes_per_cycle).ceil() as u64
    }

    /// Cycles for `accesses` isolated random bursts (latency-bound; the
    /// memory-level parallelism of `overlap` in-flight requests is
    /// amortized out).
    pub fn random_cycles(&self, accesses: u64, overlap: u64) -> u64 {
        let ov = overlap.max(1);
        accesses.div_ceil(ov) * self.random_access_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_random() {
        let mut a = DramTraceAnalyzer::new();
        a.access(100, 16);
        assert_eq!(a.counters().random_accesses, 1);
        assert_eq!(a.counters().streaming_accesses, 0);
    }

    #[test]
    fn sequential_run_is_streaming() {
        let mut a = DramTraceAnalyzer::new();
        for i in 0..10u64 {
            a.access(i * 64, 64);
        }
        assert_eq!(a.counters().random_accesses, 1);
        assert_eq!(a.counters().streaming_accesses, 9);
        assert_eq!(a.counters().total_bytes(), 640);
    }

    #[test]
    fn jumps_are_random() {
        let mut a = DramTraceAnalyzer::new();
        a.access(0, 16);
        a.access(16, 16);
        a.access(0, 16); // backwards jump
        a.access(16, 16);
        assert_eq!(a.counters().random_accesses, 2);
        assert_eq!(a.counters().streaming_accesses, 2);
        assert!((a.counters().non_streaming_fraction() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn stream_helper_counts_one_random_head() {
        let mut a = DramTraceAnalyzer::new();
        a.stream(4096, 1000, 64);
        let c = a.counters();
        assert_eq!(c.random_accesses, 1);
        assert_eq!(c.total_bytes(), 1000);
        assert_eq!(c.total_accesses(), 16); // ceil(1000/64)
    }

    #[test]
    fn merge_counters() {
        let mut a = DramCounters::default();
        let b = DramCounters {
            streaming_accesses: 2,
            random_accesses: 3,
            streaming_bytes: 20,
            random_bytes: 30,
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.total_accesses(), 10);
        assert_eq!(a.total_bytes(), 100);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(DramCounters::default().non_streaming_fraction(), 0.0);
    }

    #[test]
    fn timing_stream_vs_random() {
        let t = DramTiming::default();
        // streaming a MB is far cheaper than 16384 random bursts
        let stream = t.stream_cycles(1 << 20);
        let random = t.random_cycles(16384, 4);
        assert!(stream * 5 < random, "stream {stream} random {random}");
        assert_eq!(t.stream_cycles(0), 0);
        assert_eq!(t.random_cycles(0, 4), 0);
    }

    #[test]
    fn timing_overlap_amortizes() {
        let t = DramTiming::default();
        assert!(t.random_cycles(100, 8) < t.random_cycles(100, 1));
    }
}
