//! Fully-associative LRU cache model.
//!
//! Used by the Fig 3 motivation experiment: the paper simulates "an
//! unrealistic 10 MB fully-associated cache" in front of DRAM while running
//! exact neighbor search over a KITTI-scale scene, and measures (a) the
//! ratio of actual DRAM traffic to the theoretical minimum and (b) the
//! cache miss rate (>85 %).
//!
//! The replacement policy is true LRU implemented with a hash map plus an
//! intrusive doubly-linked recency list, so every access — including
//! eviction — is O(1). This matters: the Fig 3 run touches a ~150 K-line
//! cache hundreds of millions of times.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hit/miss statistics of a [`FullyAssociativeCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed (each miss fetches one line from DRAM).
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let t = self.accesses();
        if t == 0 {
            0.0
        } else {
            self.misses as f64 / t as f64
        }
    }
}

const NIL: u32 = u32::MAX;

/// Fibonacci (multiplicative) hashing of a line tag: one multiply by
/// `2^64 / φ`, rotated so the well-mixed high half of the product lands
/// in the low bits the table indexes buckets with. The tag map is only
/// looked up, never iterated, so no output depends on the hash, and the
/// default SipHash's flooding resistance buys nothing for simulated
/// addresses.
#[derive(Clone, Copy, Debug, Default)]
struct FibonacciHasher(u64);

impl Hasher for FibonacciHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64((self.0 << 8) | u64::from(b));
        }
    }

    fn write_u64(&mut self, tag: u64) {
        self.0 = tag.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(32);
    }
}

/// Line tag → slot.
type TagMap = HashMap<u64, u32, BuildHasherDefault<FibonacciHasher>>;

#[derive(Clone, Copy, Debug)]
struct Slot {
    tag: u64,
    prev: u32,
    next: u32,
}

/// A fully-associative cache with true-LRU replacement and O(1) accesses.
///
/// Lookups are by line; a miss charges one line fill.
///
/// # Examples
///
/// ```
/// use crescent_memsim::FullyAssociativeCache;
///
/// let mut c = FullyAssociativeCache::new(2 * 64, 64); // 2 lines
/// assert!(!c.access(0));   // miss
/// assert!(c.access(32));   // same line: hit
/// assert!(!c.access(64));  // miss
/// assert!(!c.access(128)); // miss, evicts line 0 (LRU)
/// assert!(!c.access(0));   // miss again
/// ```
#[derive(Debug)]
pub struct FullyAssociativeCache {
    line_bytes: u64,
    capacity_lines: usize,
    map: TagMap,
    slots: Vec<Slot>,
    head: u32, // most recently used
    tail: u32, // least recently used
    stats: CacheStats,
}

impl FullyAssociativeCache {
    /// Creates a cache of `capacity_bytes` with `line_bytes` lines.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes == 0` or the capacity holds no full line.
    pub fn new(capacity_bytes: u64, line_bytes: u64) -> Self {
        assert!(line_bytes > 0, "line size must be positive");
        let capacity_lines = (capacity_bytes / line_bytes) as usize;
        assert!(capacity_lines > 0, "capacity must hold at least one line");
        FullyAssociativeCache {
            line_bytes,
            capacity_lines,
            map: TagMap::with_capacity_and_hasher(capacity_lines + 1, Default::default()),
            slots: Vec::with_capacity(capacity_lines),
            head: NIL,
            tail: NIL,
            stats: CacheStats::default(),
        }
    }

    /// Accesses byte address `addr`; returns `true` on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let tag = addr / self.line_bytes;
        if let Some(&slot) = self.map.get(&tag) {
            self.stats.hits += 1;
            self.detach(slot);
            self.push_front(slot);
            true
        } else {
            self.stats.misses += 1;
            let slot = if self.slots.len() < self.capacity_lines {
                let s = self.slots.len() as u32;
                self.slots.push(Slot { tag, prev: NIL, next: NIL });
                s
            } else {
                // reuse the LRU slot
                let victim = self.tail;
                self.detach(victim);
                let old_tag = self.slots[victim as usize].tag;
                self.map.remove(&old_tag);
                self.slots[victim as usize].tag = tag;
                victim
            };
            self.map.insert(tag, slot);
            self.push_front(slot);
            false
        }
    }

    fn detach(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.slots[slot as usize].prev = NIL;
        self.slots[slot as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }

    /// Accesses an `addr .. addr + bytes` range, touching every line it
    /// covers; returns the number of missed lines.
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        let first = addr / self.line_bytes;
        let last = (addr + bytes.max(1) - 1) / self.line_bytes;
        let mut missed = 0;
        for tag in first..=last {
            if !self.access(tag * self.line_bytes) {
                missed += 1;
            }
        }
        missed
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// DRAM traffic implied by the misses so far (one line fill per miss).
    pub fn miss_traffic_bytes(&self) -> u64 {
        self.stats.misses * self.line_bytes
    }

    /// The cache line size in bytes.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Number of lines the cache can hold.
    pub fn capacity_lines(&self) -> usize {
        self.capacity_lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = FullyAssociativeCache::new(1024, 64);
        assert!(!c.access(100));
        assert!(c.access(100));
        assert!(c.access(127)); // same line
        assert!(!c.access(128)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = FullyAssociativeCache::new(3 * 64, 64);
        c.access(0);
        c.access(64);
        c.access(128);
        c.access(0); // refresh line 0
        c.access(192); // evicts line 64 (LRU)
        assert!(c.access(0), "line 0 should have been refreshed");
        assert!(!c.access(64), "line 64 should have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_thrashes() {
        let mut c = FullyAssociativeCache::new(8 * 64, 64);
        // cyclic sweep over 16 lines with LRU = 100% miss after warmup
        for _ in 0..10 {
            for i in 0..16u64 {
                c.access(i * 64);
            }
        }
        assert!(c.stats().miss_rate() > 0.95);
    }

    #[test]
    fn working_set_fitting_cache_hits() {
        let mut c = FullyAssociativeCache::new(16 * 64, 64);
        for _ in 0..10 {
            for i in 0..8u64 {
                c.access(i * 64);
            }
        }
        assert!(c.stats().miss_rate() < 0.15);
    }

    #[test]
    fn range_access_touches_all_lines() {
        let mut c = FullyAssociativeCache::new(1024, 64);
        let missed = c.access_range(0, 256);
        assert_eq!(missed, 4);
        assert_eq!(c.access_range(0, 256), 0);
        // range crossing a line boundary
        let missed = c.access_range(60 + 1024, 8);
        assert_eq!(missed, 2);
    }

    #[test]
    fn miss_traffic() {
        let mut c = FullyAssociativeCache::new(1024, 64);
        c.access(0);
        c.access(64);
        c.access(0);
        assert_eq!(c.miss_traffic_bytes(), 128);
    }

    #[test]
    fn single_line_cache() {
        let mut c = FullyAssociativeCache::new(64, 64);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(!c.access(64));
        assert!(!c.access(0));
    }

    #[test]
    fn large_stress_is_consistent() {
        // pseudo-random walk; invariant: map size never exceeds capacity
        let mut c = FullyAssociativeCache::new(64 * 64, 64);
        let mut x = 12345u64;
        for _ in 0..50_000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            c.access((x >> 16) % (256 * 64));
        }
        assert!(c.map.len() <= c.capacity_lines());
        assert_eq!(c.stats().accesses(), 50_000);
    }

    #[test]
    #[should_panic(expected = "at least one line")]
    fn zero_capacity_panics() {
        let _ = FullyAssociativeCache::new(32, 64);
    }
}
