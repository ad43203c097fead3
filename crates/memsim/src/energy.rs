//! Energy model and accounting ledger.
//!
//! The paper's energy numbers come from post-synthesis power annotated with
//! switching activity plus Micron's DRAM power calculators; what the
//! evaluation actually *uses* are the resulting ratios (Sec 6):
//!
//! * random DRAM access : streaming DRAM access ≈ **3 : 1**
//! * random DRAM access : SRAM access ≈ **25 : 1**
//!
//! We adopt those ratios directly (per 4-byte word) and add a small MAC
//! energy so compute is non-zero but memory-dominated, which is the regime
//! the paper characterizes. All values are in arbitrary "energy units";
//! every figure reports energy *normalized to a baseline*, so only ratios
//! matter.

use std::fmt;

/// Per-event energy costs (arbitrary units).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Energy per byte of a random DRAM access.
    pub dram_random_per_byte: f64,
    /// Energy per byte of a streaming DRAM access.
    pub dram_streaming_per_byte: f64,
    /// Energy per byte of an SRAM access.
    pub sram_per_byte: f64,
    /// Energy per MAC operation.
    pub mac_op: f64,
    /// Energy per tree-build datapath operation (one compare-and-move of a
    /// point during partitioning, or one node write) in the tree-build
    /// unit. Comparator + register traffic only — the DRAM side of a build
    /// is charged through the streaming-DRAM category.
    pub build_op: f64,
    /// Static/leakage energy per cycle for the whole accelerator.
    pub leakage_per_cycle: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        // normalized to SRAM word (4 B) = 1 unit
        EnergyModel {
            sram_per_byte: 0.25,
            dram_random_per_byte: 6.25,          // 25x SRAM
            dram_streaming_per_byte: 6.25 / 3.0, // 3:1 random:streaming
            mac_op: 0.05,
            build_op: 0.05, // a compare-and-move costs about one MAC
            leakage_per_cycle: 0.02,
        }
    }
}

impl EnergyModel {
    /// Checks that the model preserves the paper's published ratios.
    pub fn ratios(&self) -> (f64, f64) {
        (
            self.dram_random_per_byte / self.dram_streaming_per_byte,
            self.dram_random_per_byte / self.sram_per_byte,
        )
    }
}

/// Energy consumption broken down by the categories of Fig 16.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyLedger {
    /// Random DRAM traffic energy.
    pub dram_random: f64,
    /// Streaming DRAM traffic energy.
    pub dram_streaming: f64,
    /// Tree-buffer (neighbor search) SRAM energy.
    pub sram_search: f64,
    /// Point-buffer (aggregation) SRAM energy.
    pub sram_aggregation: f64,
    /// Global-buffer (weights/activations) SRAM energy.
    pub sram_global: f64,
    /// MAC / datapath energy.
    pub compute: f64,
    /// Tree-build / tree-refit datapath energy (partition compares, node
    /// writes, refit validation) — the category the streaming engine uses
    /// to make tree maintenance show up in per-frame profiles.
    pub tree_build: f64,
    /// Leakage.
    pub leakage: f64,
}

impl EnergyLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        EnergyLedger::default()
    }

    /// The ledger as `(category, energy)` rows in a fixed, documented
    /// order — the serialization surface machine-readable reports (the
    /// explorer's sweep JSON, CSV exporters) build on, so a new category
    /// shows up in every report the moment it is added here.
    pub fn category_rows(&self) -> [(&'static str, f64); 8] {
        [
            ("dram_random", self.dram_random),
            ("dram_streaming", self.dram_streaming),
            ("sram_search", self.sram_search),
            ("sram_aggregation", self.sram_aggregation),
            ("sram_global", self.sram_global),
            ("compute", self.compute),
            ("tree_build", self.tree_build),
            ("leakage", self.leakage),
        ]
    }

    /// Total energy across all categories.
    pub fn total(&self) -> f64 {
        self.category_rows().iter().map(|(_, v)| v).sum()
    }

    /// Total DRAM energy.
    pub fn dram(&self) -> f64 {
        self.dram_random + self.dram_streaming
    }

    /// Total SRAM energy.
    pub fn sram(&self) -> f64 {
        self.sram_search + self.sram_aggregation + self.sram_global
    }

    /// A copy of the ledger with every category scaled by `factor`.
    ///
    /// The multi-tenant service uses this to attribute a shared
    /// wavefront's energy to its tenants proportionally (by query
    /// share): each tenant receives `wavefront.scaled(share)`. The
    /// scaling is per-category, so attribution preserves the category
    /// breakdown, not just the total.
    pub fn scaled(&self, factor: f64) -> EnergyLedger {
        EnergyLedger {
            dram_random: self.dram_random * factor,
            dram_streaming: self.dram_streaming * factor,
            sram_search: self.sram_search * factor,
            sram_aggregation: self.sram_aggregation * factor,
            sram_global: self.sram_global * factor,
            compute: self.compute * factor,
            tree_build: self.tree_build * factor,
            leakage: self.leakage * factor,
        }
    }

    /// Sums a sequence of ledgers into one — the fleet/service rollup
    /// form of [`EnergyLedger::merge`].
    pub fn merged<'a, I: IntoIterator<Item = &'a EnergyLedger>>(ledgers: I) -> EnergyLedger {
        let mut out = EnergyLedger::new();
        for ledger in ledgers {
            out.merge(ledger);
        }
        out
    }

    /// Adds another ledger's entries.
    pub fn merge(&mut self, other: &EnergyLedger) {
        self.dram_random += other.dram_random;
        self.dram_streaming += other.dram_streaming;
        self.sram_search += other.sram_search;
        self.sram_aggregation += other.sram_aggregation;
        self.sram_global += other.sram_global;
        self.compute += other.compute;
        self.tree_build += other.tree_build;
        self.leakage += other.leakage;
    }

    /// Charges random DRAM traffic.
    pub fn charge_dram_random(&mut self, model: &EnergyModel, bytes: u64) {
        self.dram_random += model.dram_random_per_byte * bytes as f64;
    }

    /// Charges streaming DRAM traffic.
    pub fn charge_dram_streaming(&mut self, model: &EnergyModel, bytes: u64) {
        self.dram_streaming += model.dram_streaming_per_byte * bytes as f64;
    }

    /// Charges tree-buffer SRAM traffic (neighbor search).
    pub fn charge_sram_search(&mut self, model: &EnergyModel, bytes: u64) {
        self.sram_search += model.sram_per_byte * bytes as f64;
    }

    /// Charges point-buffer SRAM traffic (aggregation).
    pub fn charge_sram_aggregation(&mut self, model: &EnergyModel, bytes: u64) {
        self.sram_aggregation += model.sram_per_byte * bytes as f64;
    }

    /// Charges global-buffer SRAM traffic (weights / activations).
    pub fn charge_sram_global(&mut self, model: &EnergyModel, bytes: u64) {
        self.sram_global += model.sram_per_byte * bytes as f64;
    }

    /// Charges MAC operations.
    pub fn charge_macs(&mut self, model: &EnergyModel, macs: u64) {
        self.compute += model.mac_op * macs as f64;
    }

    /// Charges tree-build / refit datapath operations (partition
    /// compare-and-moves, node writes, validation checks).
    pub fn charge_tree_build(&mut self, model: &EnergyModel, ops: u64) {
        self.tree_build += model.build_op * ops as f64;
    }

    /// Charges leakage for a cycle count.
    pub fn charge_leakage(&mut self, model: &EnergyModel, cycles: u64) {
        self.leakage += model.leakage_per_cycle * cycles as f64;
    }
}

impl fmt::Display for EnergyLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "energy[total={:.1} dram_rand={:.1} dram_stream={:.1} sram_search={:.1} sram_aggr={:.1} sram_global={:.1} compute={:.1} build={:.1} leak={:.1}]",
            self.total(),
            self.dram_random,
            self.dram_streaming,
            self.sram_search,
            self.sram_aggregation,
            self.sram_global,
            self.compute,
            self.tree_build,
            self.leakage
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_preserves_paper_ratios() {
        let (rand_stream, rand_sram) = EnergyModel::default().ratios();
        assert!((rand_stream - 3.0).abs() < 1e-9);
        assert!((rand_sram - 25.0).abs() < 1e-9);
    }

    #[test]
    fn ledger_totals() {
        let m = EnergyModel::default();
        let mut l = EnergyLedger::new();
        l.charge_dram_random(&m, 100);
        l.charge_dram_streaming(&m, 300);
        l.charge_sram_search(&m, 400);
        l.charge_sram_aggregation(&m, 400);
        l.charge_sram_global(&m, 800);
        l.charge_macs(&m, 1000);
        l.charge_tree_build(&m, 2000);
        l.charge_leakage(&m, 500);
        assert!(l.total() > 0.0);
        assert!((l.dram() - (100.0 * 6.25 + 300.0 * 6.25 / 3.0)).abs() < 1e-6);
        assert!((l.sram() - 0.25 * 1600.0).abs() < 1e-6);
        assert!((l.compute - 50.0).abs() < 1e-9);
        assert!((l.tree_build - 100.0).abs() < 1e-9);
        assert!((l.leakage - 10.0).abs() < 1e-9);
    }

    #[test]
    fn random_dram_dominates_equal_bytes() {
        // the premise of the whole paper: same bytes, 3x the energy
        let m = EnergyModel::default();
        let mut random = EnergyLedger::new();
        let mut streaming = EnergyLedger::new();
        random.charge_dram_random(&m, 1 << 20);
        streaming.charge_dram_streaming(&m, 1 << 20);
        assert!((random.total() / streaming.total() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn merge_adds_categories() {
        let m = EnergyModel::default();
        let mut a = EnergyLedger::new();
        a.charge_macs(&m, 10);
        let mut b = EnergyLedger::new();
        b.charge_macs(&m, 20);
        b.charge_sram_global(&m, 4);
        a.merge(&b);
        assert!((a.compute - 1.5).abs() < 1e-9);
        assert!((a.sram_global - 1.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_preserves_the_category_breakdown() {
        let m = EnergyModel::default();
        let mut l = EnergyLedger::new();
        l.charge_dram_streaming(&m, 300);
        l.charge_sram_search(&m, 40);
        l.charge_leakage(&m, 1000);
        let half = l.scaled(0.5);
        for ((name, v), (hname, hv)) in l.category_rows().iter().zip(half.category_rows()) {
            assert_eq!(*name, hname);
            assert!((v * 0.5 - hv).abs() < 1e-12, "{name}");
        }
        assert!((half.total() - l.total() * 0.5).abs() < 1e-12);
        assert_eq!(l.scaled(0.0).total(), 0.0);
    }

    #[test]
    fn merged_sums_a_fleet_of_ledgers() {
        let m = EnergyModel::default();
        let mut a = EnergyLedger::new();
        a.charge_macs(&m, 10);
        let mut b = EnergyLedger::new();
        b.charge_sram_global(&m, 4);
        b.charge_tree_build(&m, 7);
        let rollup = EnergyLedger::merged([&a, &b]);
        let mut reference = a;
        reference.merge(&b);
        assert_eq!(rollup.category_rows(), reference.category_rows());
        assert_eq!(EnergyLedger::merged(std::iter::empty::<&EnergyLedger>()).total(), 0.0);
    }

    #[test]
    fn category_rows_cover_every_field_exactly_once() {
        let m = EnergyModel::default();
        let mut l = EnergyLedger::new();
        l.charge_dram_random(&m, 1);
        l.charge_dram_streaming(&m, 2);
        l.charge_sram_search(&m, 4);
        l.charge_sram_aggregation(&m, 8);
        l.charge_sram_global(&m, 16);
        l.charge_macs(&m, 32);
        l.charge_tree_build(&m, 64);
        l.charge_leakage(&m, 128);
        let rows = l.category_rows();
        // all categories present, all distinct, all non-zero after the
        // charges above, and the sum IS the total
        let names: Vec<&str> = rows.iter().map(|(n, _)| *n).collect();
        assert_eq!(names.len(), 8);
        for w in names.windows(2) {
            assert_ne!(w[0], w[1]);
        }
        assert!(rows.iter().all(|(_, v)| *v > 0.0));
        let sum: f64 = rows.iter().map(|(_, v)| v).sum();
        assert!((sum - l.total()).abs() < 1e-12);
        assert_eq!(rows[0].0, "dram_random");
        assert_eq!(rows[7].0, "leakage");
    }

    #[test]
    fn display_mentions_total() {
        let l = EnergyLedger::new();
        assert!(format!("{l}").contains("total=0.0"));
    }

    #[test]
    fn zero_access_run_costs_zero() {
        let m = EnergyModel::default();
        let mut l = EnergyLedger::new();
        l.charge_dram_random(&m, 0);
        l.charge_dram_streaming(&m, 0);
        l.charge_sram_search(&m, 0);
        l.charge_sram_aggregation(&m, 0);
        l.charge_sram_global(&m, 0);
        l.charge_macs(&m, 0);
        l.charge_tree_build(&m, 0);
        l.charge_leakage(&m, 0);
        assert_eq!(l.total(), 0.0);
        assert_eq!(l, EnergyLedger::new(), "zero-count charges must not perturb the ledger");
    }

    #[test]
    fn totals_are_monotone_in_access_counts() {
        // each charge category individually: more traffic never costs less
        let m = EnergyModel::default();
        type Charge = fn(&mut EnergyLedger, &EnergyModel, u64);
        let charges: &[(&str, Charge)] = &[
            ("dram_random", EnergyLedger::charge_dram_random),
            ("dram_streaming", EnergyLedger::charge_dram_streaming),
            ("sram_search", EnergyLedger::charge_sram_search),
            ("sram_aggregation", EnergyLedger::charge_sram_aggregation),
            ("sram_global", EnergyLedger::charge_sram_global),
            ("macs", EnergyLedger::charge_macs),
            ("tree_build", EnergyLedger::charge_tree_build),
            ("leakage", EnergyLedger::charge_leakage),
        ];
        for &(name, charge) in charges {
            let mut prev = 0.0;
            for count in [0u64, 1, 2, 64, 4096, 1 << 20] {
                let mut l = EnergyLedger::new();
                charge(&mut l, &m, count);
                assert!(
                    l.total() >= prev,
                    "{name}: total {} decreased below {prev} at count {count}",
                    l.total()
                );
                assert!(count == 0 || l.total() > 0.0, "{name}: nonzero count costs nothing");
                prev = l.total();
            }
        }
        // and cumulatively on one ledger: every charge strictly grows it
        let mut l = EnergyLedger::new();
        let mut prev = l.total();
        for &(name, charge) in charges {
            charge(&mut l, &m, 1000);
            assert!(l.total() > prev, "{name}: cumulative total failed to grow");
            prev = l.total();
        }
    }
}
