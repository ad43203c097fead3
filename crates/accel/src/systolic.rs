//! Systolic-array timing/energy model for the MLP stage.
//!
//! The paper's feature computation runs on a 16 × 16 TPU-style MAC array
//! (Sec 6). We model a weight-stationary schedule: weights for an
//! `S_r × S_c` tile are loaded once, then `M` activation rows stream
//! through. Cycle count for a `[M, K] × [K, N]` GEMM:
//!
//! ```text
//! tiles = ceil(K / S_r) * ceil(N / S_c)
//! cycles = tiles * (S_r + M)        // fill + drain per tile
//! ```
//!
//! plus global-buffer traffic for activations, weights, and outputs.

/// Timing/energy outcome of running a GEMM on the systolic array.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SystolicReport {
    /// Datapath cycles.
    pub cycles: u64,
    /// Multiply-accumulate operations performed.
    pub macs: u64,
    /// Global-buffer bytes read (activations + weights).
    pub sram_read_bytes: u64,
    /// Global-buffer bytes written (outputs).
    pub sram_write_bytes: u64,
}

impl SystolicReport {
    /// Merges another report.
    pub fn merge(&mut self, other: &SystolicReport) {
        self.cycles += other.cycles;
        self.macs += other.macs;
        self.sram_read_bytes += other.sram_read_bytes;
        self.sram_write_bytes += other.sram_write_bytes;
    }
}

/// Models one `[m, k] × [k, n]` GEMM on an `rows × cols` array.
///
/// Returns a zero report when any dimension is zero.
pub fn gemm_report(m: usize, k: usize, n: usize, rows: usize, cols: usize) -> SystolicReport {
    if m == 0 || k == 0 || n == 0 {
        return SystolicReport::default();
    }
    let rows = rows.max(1);
    let cols = cols.max(1);
    let tiles = k.div_ceil(rows) as u64 * n.div_ceil(cols) as u64;
    let cycles = tiles * (rows as u64 + m as u64);
    let macs = (m * k * n) as u64;
    // per tile: weights rows*cols, activations m*rows; outputs written once
    let sram_read_bytes = tiles * 4 * (rows as u64 * cols as u64 + m as u64 * rows as u64);
    let sram_write_bytes = (m * n * 4) as u64;
    SystolicReport { cycles, macs, sram_read_bytes, sram_write_bytes }
}

/// Models a full MLP (sequence of GEMMs `dims[0] → dims[1] → …`) applied to
/// `m` input rows.
pub fn mlp_report(m: usize, dims: &[usize], rows: usize, cols: usize) -> SystolicReport {
    let mut total = SystolicReport::default();
    for w in dims.windows(2) {
        total.merge(&gemm_report(m, w[0], w[1], rows, cols));
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_tile_gemm() {
        let r = gemm_report(100, 16, 16, 16, 16);
        assert_eq!(r.macs, 100 * 16 * 16);
        assert_eq!(r.cycles, 16 + 100);
        assert!(r.sram_read_bytes > 0 && r.sram_write_bytes == 100 * 16 * 4);
    }

    #[test]
    fn tiling_scales_cycles() {
        let small = gemm_report(64, 16, 16, 16, 16);
        let wide = gemm_report(64, 16, 64, 16, 16); // 4 column tiles
        assert_eq!(wide.cycles, 4 * small.cycles);
        assert_eq!(wide.macs, 4 * small.macs);
    }

    #[test]
    fn bigger_array_is_faster() {
        let small = gemm_report(256, 128, 128, 8, 8);
        let big = gemm_report(256, 128, 128, 32, 32);
        assert!(big.cycles < small.cycles);
        assert_eq!(big.macs, small.macs, "work is invariant");
    }

    #[test]
    fn zero_dims_are_free() {
        assert_eq!(gemm_report(0, 16, 16, 16, 16), SystolicReport::default());
        assert_eq!(gemm_report(16, 0, 16, 16, 16), SystolicReport::default());
    }

    #[test]
    fn mlp_sums_layers() {
        let a = gemm_report(10, 8, 16, 16, 16);
        let b = gemm_report(10, 16, 4, 16, 16);
        let m = mlp_report(10, &[8, 16, 4], 16, 16);
        assert_eq!(m.cycles, a.cycles + b.cycles);
        assert_eq!(m.macs, a.macs + b.macs);
        // degenerate MLPs
        assert_eq!(mlp_report(10, &[8], 16, 16), SystolicReport::default());
        assert_eq!(mlp_report(10, &[], 16, 16), SystolicReport::default());
    }
}
