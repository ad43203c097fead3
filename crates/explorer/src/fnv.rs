//! The one 64-bit FNV-1a hasher behind every report fingerprint and
//! neighbor-set digest, in the sweep's reports and in serve's.
//!
//! Fingerprints and digests are checked-in report bytes, so the byte
//! sequence each caller feeds is part of its report format.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental 64-bit FNV-1a.
///
/// # Examples
///
/// ```
/// use crescent_explorer::Fnv1a;
///
/// let mut h = Fnv1a::new();
/// h.bytes(b"a");
/// assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Fnv1a(u64);

impl Fnv1a {
    /// A hasher that has seen no bytes yet.
    pub fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Feeds `bytes` in order.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(PRIME);
        }
    }

    /// Feeds `v` as its eight little-endian bytes.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The hash of every byte fed so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}
