//! Analytic mobile-GPU cost model (the Jetson TX2 Pascal baseline).
//!
//! The paper's GPU numbers only anchor the comparison — the headline claims
//! are ANS / ANS+BCE vs. Mesorasi, which we simulate directly. The GPU
//! model is therefore analytic: work counts (neighbor-search point visits,
//! MACs, gather fetches) divided by effective throughputs, with per-event
//! energies calibrated so the end-to-end ratios land near the paper's
//! (GPU ≈ 38× Mesorasi energy, Tigris+GPU ≈ 25×; both are far slower than
//! the accelerators).

/// Throughput and energy constants of the GPU model.
#[derive(Clone, Copy, Debug)]
pub struct GpuModel {
    /// Brute-force neighbor-search point visits retired per cycle
    /// (memory-bound).
    pub ns_visits_per_cycle: f64,
    /// Effective MACs per cycle on the small GEMMs of point-cloud MLPs
    /// (low utilization of the SMs).
    pub macs_per_cycle: f64,
    /// Neighbor-gather fetches per cycle (irregular global loads).
    pub gather_per_cycle: f64,
    /// Energy per neighbor-search point visit.
    pub energy_per_visit: f64,
    /// Energy per MAC.
    pub energy_per_mac: f64,
    /// Energy per gather fetch.
    pub energy_per_gather: f64,
    /// Idle/static energy per cycle.
    pub energy_per_cycle: f64,
}

impl Default for GpuModel {
    fn default() -> Self {
        GpuModel {
            ns_visits_per_cycle: 48.0,
            macs_per_cycle: 64.0,
            gather_per_cycle: 4.0,
            energy_per_visit: 15.0,
            energy_per_mac: 6.0,
            energy_per_gather: 150.0,
            energy_per_cycle: 6.0,
        }
    }
}

/// Cycles and energy of one GPU kernel mix.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GpuReport {
    /// Neighbor-search cycles.
    pub ns_cycles: u64,
    /// Feature-computation cycles (gather + GEMM).
    pub feature_cycles: u64,
    /// Total energy.
    pub energy: f64,
}

impl GpuReport {
    /// Total cycles.
    pub fn cycles(&self) -> u64 {
        self.ns_cycles + self.feature_cycles
    }

    /// Merges another report.
    pub fn merge(&mut self, other: &GpuReport) {
        self.ns_cycles += other.ns_cycles;
        self.feature_cycles += other.feature_cycles;
        self.energy += other.energy;
    }
}

impl GpuModel {
    /// Models a brute-force neighbor search of `queries` over `points`.
    pub fn neighbor_search(&self, points: usize, queries: usize) -> GpuReport {
        let visits = (points * queries) as f64;
        let cycles = (visits / self.ns_visits_per_cycle).ceil() as u64;
        GpuReport {
            ns_cycles: cycles,
            feature_cycles: 0,
            energy: visits * self.energy_per_visit + cycles as f64 * self.energy_per_cycle,
        }
    }

    /// Models the feature computation: `gathers` neighbor fetches plus
    /// `macs` multiply-accumulates.
    pub fn feature_computation(&self, gathers: u64, macs: u64) -> GpuReport {
        let cycles = (gathers as f64 / self.gather_per_cycle).ceil() as u64
            + (macs as f64 / self.macs_per_cycle).ceil() as u64;
        GpuReport {
            ns_cycles: 0,
            feature_cycles: cycles,
            energy: gathers as f64 * self.energy_per_gather
                + macs as f64 * self.energy_per_mac
                + cycles as f64 * self.energy_per_cycle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ns_scales_with_work() {
        let m = GpuModel::default();
        let a = m.neighbor_search(1000, 10);
        let b = m.neighbor_search(1000, 20);
        assert!(b.ns_cycles > a.ns_cycles);
        assert!((b.energy / a.energy - 2.0).abs() < 0.05);
    }

    #[test]
    fn feature_combines_gather_and_macs() {
        let m = GpuModel::default();
        let r = m.feature_computation(1000, 100_000);
        assert!(r.feature_cycles >= (1000.0 / m.gather_per_cycle) as u64);
        assert!(r.energy > 0.0);
    }

    #[test]
    fn merge_accumulates() {
        let m = GpuModel::default();
        let mut total = GpuReport::default();
        total.merge(&m.neighbor_search(100, 10));
        total.merge(&m.feature_computation(10, 100));
        assert_eq!(total.cycles(), total.ns_cycles + total.feature_cycles);
        assert!(total.energy > 0.0);
    }

    #[test]
    fn zero_work_zero_cost() {
        let m = GpuModel::default();
        assert_eq!(m.neighbor_search(0, 0), GpuReport::default());
        assert_eq!(m.feature_computation(0, 0), GpuReport::default());
    }
}
