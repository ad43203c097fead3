//! Memory-system models for the Crescent (ISCA 2022) reproduction.
//!
//! * [`DramTraceAnalyzer`] / [`DramTiming`] — streaming/random access
//!   classification (Fig 2) and LPDDR3-1600-class bandwidth timing;
//! * [`FullyAssociativeCache`] — the 10 MB fully-associative LRU cache of
//!   the Fig 3 motivation experiment;
//! * [`BankedSram`] — bank-conflict detection, serialization, and the
//!   Fig 10 selective-elision augmentation (Figs 4, 5), the one
//!   arbitration model behind search, aggregation and training:
//!   lock-step searches and training's neighbor replication arbitrate
//!   per request ([`BankedSram::begin_round`], [`BankedSram::request`]),
//!   and gathers are booked in closed form from a per-bank load
//!   histogram ([`BankedSram::gather`]);
//! * [`EnergyModel`] / [`EnergyLedger`] — the paper's published energy
//!   ratios (random : streaming DRAM = 3 : 1, random DRAM : SRAM = 25 : 1)
//!   and the per-category ledger behind Fig 16 (a stream keeps one
//!   ledger per frame and merges them with [`EnergyLedger::merged`]).
//!
//! # Example
//!
//! ```
//! use crescent_memsim::{BankedSram, DramTraceAnalyzer, SramConfig};
//!
//! // classify a DMA stream followed by a pointer chase
//! let mut dram = DramTraceAnalyzer::new();
//! dram.stream(0, 4096, 64);
//! dram.access(1 << 20, 16);
//! assert!(dram.counters().non_streaming_fraction() < 0.1);
//!
//! // gather 4 concurrent requests from a 4-banked SRAM, conflicts stalling
//! let mut sram = BankedSram::new(SramConfig::tree_buffer());
//! let rounds = sram.gather([0, 4, 8, 16], false);
//! assert_eq!(rounds, 2); // addresses 0 and 16 share bank 0
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cache;
pub mod dram;
pub mod energy;
pub mod sram;

pub use cache::{CacheStats, FullyAssociativeCache};
pub use dram::{DramCounters, DramTiming, DramTraceAnalyzer};
pub use energy::{EnergyLedger, EnergyModel};
pub use sram::{BankWinner, BankedSram, PortOutcome, SramConfig, SramCounters};

/// Stream-level energy: a stream keeps one [`EnergyLedger`] per frame and
/// its totals are [`EnergyLedger::merged`] over those frames, in order.
#[cfg(test)]
mod stream {
    mod tests {
        use crate::{EnergyLedger, EnergyModel};

        fn frame_with(bytes: u64) -> EnergyLedger {
            let m = EnergyModel::default();
            let mut l = EnergyLedger::new();
            l.charge_dram_streaming(&m, bytes);
            l.charge_sram_search(&m, bytes / 2);
            l.charge_tree_build(&m, bytes / 4);
            l
        }

        #[test]
        fn build_energy_sums_the_tree_build_category() {
            let mut frames = Vec::new();
            assert_eq!(EnergyLedger::merged(&frames).tree_build, 0.0);
            frames.push(frame_with(400));
            frames.push(frame_with(800));
            let per_frame: f64 = frames.iter().map(|l| l.tree_build).sum();
            assert!(per_frame > 0.0);
            assert!((EnergyLedger::merged(&frames).tree_build - per_frame).abs() < 1e-9);
        }

        #[test]
        fn totals_equal_sum_of_frames() {
            let frames: Vec<EnergyLedger> = (1..=5).map(|i| frame_with(1000 * i)).collect();
            let sum: f64 = frames.iter().map(|l| l.total()).sum();
            assert!((EnergyLedger::merged(&frames).total() - sum).abs() < 1e-9);
            let mut running = EnergyLedger::new();
            for frame in &frames {
                running.merge(frame);
            }
            assert_eq!(running, EnergyLedger::merged(&frames), "same additions, same order");
        }
    }
}
