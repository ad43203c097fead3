//! Accelerator configuration (the Sec 6 "Architecture Design").

use std::fmt;

use crescent_kdtree::ElisionConfig;
use crescent_memsim::{DramTiming, EnergyModel, SramConfig};

/// Static configuration of the full point-cloud accelerator of Fig 12:
/// neighbor-search engine + aggregation unit + systolic array, with the
/// paper's SRAM partitioning.
#[derive(Clone, Copy, Debug)]
pub struct AcceleratorConfig {
    /// Number of neighbor-search PEs (paper: 4).
    pub num_pes: usize,
    /// Tree buffer (paper: 6 KB, 4 banks) — holds the top tree or the
    /// current sub-tree; supports selective elision.
    pub tree_buffer: SramConfig,
    /// Query buffer (paper: 3 KB, 1 bank, double-buffered).
    pub query_buffer_bytes: usize,
    /// Point buffer for aggregation (paper: 64 KB, 16 banks).
    pub point_buffer: SramConfig,
    /// Neighbor-index buffer (paper: 12 KB, single bank).
    pub neighbor_index_buffer_bytes: usize,
    /// Global buffer for weights/activations (paper: 1.5 MB).
    pub global_buffer_bytes: usize,
    /// Systolic MAC array dimensions (paper: 16 × 16, TPU-style).
    pub systolic_rows: usize,
    /// Systolic array columns.
    pub systolic_cols: usize,
    /// DRAM timing model.
    pub dram: DramTiming,
    /// Energy model.
    pub energy: EnergyModel,
    /// Bank-conflict elision in neighbor search (`None` = stall on every
    /// conflict, the ANS-only variant).
    pub search_elision: Option<ElisionConfig>,
    /// Elide bank conflicts in aggregation (neighbor replication).
    pub aggregation_elision: bool,
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        AcceleratorConfig {
            num_pes: 4,
            tree_buffer: SramConfig::tree_buffer(),
            query_buffer_bytes: 3 << 10,
            point_buffer: SramConfig::point_buffer(),
            neighbor_index_buffer_bytes: 12 << 10,
            global_buffer_bytes: 1536 << 10,
            systolic_rows: 16,
            systolic_cols: 16,
            dram: DramTiming::default(),
            energy: EnergyModel::default(),
            search_elision: None,
            aggregation_elision: false,
        }
    }
}

impl AcceleratorConfig {
    /// The ANS configuration: approximate neighbor search, conflicts stall.
    pub fn ans() -> Self {
        AcceleratorConfig::default()
    }

    /// A validated builder starting from the Sec 6 defaults — the way
    /// sweep engines construct configs without duplicating every field
    /// (see [`ConfigBuilder`]).
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// The PE count as a non-zero divisor. Every timing path that spreads
    /// work across the PEs divides by this instead of by the raw field,
    /// so a hand-rolled `num_pes == 0` config (which the builder rejects,
    /// but the fields are public) degrades to single-PE timing instead of
    /// panicking in one path and saturating in another.
    pub fn pe_divisor(&self) -> u64 {
        self.num_pes.max(1) as u64
    }

    /// Validates the invariants the timing model relies on. The builder
    /// calls this on [`ConfigBuilder::build`]; hand-constructed configs
    /// can call it directly.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.num_pes == 0 {
            return Err(ConfigError::ZeroPes);
        }
        if self.tree_buffer.num_banks == 0 || self.point_buffer.num_banks == 0 {
            return Err(ConfigError::ZeroBanks);
        }
        if self.tree_buffer_nodes() == 0 {
            return Err(ConfigError::TreeBufferTooSmall { bytes: self.tree_buffer.capacity_bytes });
        }
        if self.systolic_rows == 0 || self.systolic_cols == 0 {
            return Err(ConfigError::ZeroSystolic);
        }
        if self.dram.stream_bytes_per_cycle <= 0.0 || self.dram.stream_bytes_per_cycle.is_nan() {
            return Err(ConfigError::ZeroDramBandwidth);
        }
        Ok(())
    }

    /// The ANS+BCE configuration with the paper's default knobs
    /// (`h_e = 12`, tree-buffer banking).
    pub fn ans_bce(elision_height: usize) -> Self {
        let mut cfg = AcceleratorConfig::default();
        cfg.search_elision = Some(ElisionConfig {
            elision_height,
            num_banks: cfg.tree_buffer.num_banks,
            descendant_reuse: false,
        });
        cfg.aggregation_elision = true;
        cfg
    }

    /// Capacity of the tree buffer in tree nodes.
    pub fn tree_buffer_nodes(&self) -> usize {
        self.tree_buffer.capacity_bytes / crescent_kdtree::NODE_BYTES
    }

    /// Permissible top-tree height range `[lo, hi]` for a tree of height
    /// `total_height` per the Sec 3.3 inequalities
    /// `2^{h_t} − 1 ≤ S` and `2^{H − h_t + 1} − 1 ≤ S`,
    /// where `S` is the tree-buffer capacity in nodes.
    ///
    /// Returns `None` if no height satisfies both (the buffer is too small
    /// for this tree).
    pub fn top_height_range(&self, total_height: usize) -> Option<(usize, usize)> {
        let s = self.tree_buffer_nodes();
        let cap_height = |n: usize| {
            // largest h with 2^h - 1 <= n
            let mut h = 0usize;
            while (1usize << (h + 1)) - 1 <= n && h + 1 < 63 {
                h += 1;
            }
            h
        };
        let hi = cap_height(s).min(total_height.saturating_sub(1));
        // sub-tree height H - h_t must satisfy 2^{H-h_t+1} - 1 <= ... i.e.
        // subtree (height H - h_t) has at most 2^{H-h_t} - 1 nodes; require
        // that <= S  =>  H - h_t <= cap_height(S)
        let lo = total_height.saturating_sub(cap_height(s));
        (lo <= hi).then_some((lo, hi))
    }
}

/// Why a configuration was rejected by [`AcceleratorConfig::validate`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// `num_pes == 0`: the timing model divides lock-step work across
    /// the PEs, so a zero-PE engine has no defined schedule.
    ZeroPes,
    /// An SRAM was configured with zero banks.
    ZeroBanks,
    /// The tree buffer cannot hold even one tree node.
    TreeBufferTooSmall {
        /// The rejected capacity.
        bytes: usize,
    },
    /// The systolic array has a zero dimension.
    ZeroSystolic,
    /// DRAM streaming bandwidth must be positive.
    ZeroDramBandwidth,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroPes => write!(f, "num_pes must be >= 1"),
            ConfigError::ZeroBanks => write!(f, "SRAM bank counts must be >= 1"),
            ConfigError::TreeBufferTooSmall { bytes } => {
                write!(f, "tree buffer of {bytes} B cannot hold a single node")
            }
            ConfigError::ZeroSystolic => write!(f, "systolic array dimensions must be >= 1"),
            ConfigError::ZeroDramBandwidth => {
                write!(f, "DRAM stream_bytes_per_cycle must be > 0")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder over [`AcceleratorConfig`]: starts from the Sec 6 defaults,
/// overrides only the knobs a sweep point varies, and validates on
/// [`build`](ConfigBuilder::build) — so design-space engines never
/// duplicate the config field-by-field and can never construct a
/// zero-PE (or otherwise degenerate) simulation.
///
/// # Examples
///
/// ```
/// use crescent_accel::AcceleratorConfig;
///
/// let cfg = AcceleratorConfig::builder()
///     .num_pes(8)
///     .tree_buffer_kb(12)
///     .elision_height(10)
///     .build()
///     .expect("valid sweep point");
/// assert_eq!(cfg.num_pes, 8);
/// assert_eq!(cfg.tree_buffer.capacity_bytes, 12 << 10);
/// assert!(cfg.aggregation_elision);
/// assert!(AcceleratorConfig::builder().num_pes(0).build().is_err());
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct ConfigBuilder {
    cfg: Option<AcceleratorConfig>,
}

impl ConfigBuilder {
    fn cfg(&mut self) -> &mut AcceleratorConfig {
        self.cfg.get_or_insert_with(AcceleratorConfig::default)
    }

    /// Sets the neighbor-search PE count.
    pub fn num_pes(mut self, n: usize) -> Self {
        self.cfg().num_pes = n;
        self
    }

    /// Resizes the tree buffer (cache geometry knob), keeping its
    /// banking and word size.
    pub fn tree_buffer_kb(mut self, kb: usize) -> Self {
        self.cfg().tree_buffer.capacity_bytes = kb << 10;
        self
    }

    /// Sets the tree-buffer bank count (and keeps any elision config in
    /// sync — the elision hardware arbitrates exactly these banks).
    pub fn tree_banks(mut self, banks: usize) -> Self {
        let c = self.cfg();
        c.tree_buffer.num_banks = banks;
        if let Some(e) = &mut c.search_elision {
            e.num_banks = banks;
        }
        self
    }

    /// Sets the sustained streaming DRAM bandwidth in bytes per cycle.
    pub fn dram_stream_bytes_per_cycle(mut self, bpc: f64) -> Self {
        self.cfg().dram.stream_bytes_per_cycle = bpc;
        self
    }

    /// Enables ANS+BCE-style elision at height `h_e` (search elision on
    /// the current tree-buffer banking plus aggregation elision) — the
    /// same shape as [`AcceleratorConfig::ans_bce`].
    pub fn elision_height(mut self, h_e: usize) -> Self {
        let c = self.cfg();
        c.search_elision = Some(ElisionConfig {
            elision_height: h_e,
            num_banks: c.tree_buffer.num_banks,
            descendant_reuse: false,
        });
        c.aggregation_elision = true;
        self
    }

    /// Sets aggregation elision independently of search elision — sweep
    /// engines treat the two as separate axes (the streaming driver
    /// models the Point-Buffer gather per frame, so this knob moves
    /// stream cycles on its own).
    pub fn aggregation_elision(mut self, on: bool) -> Self {
        self.cfg().aggregation_elision = on;
        self
    }

    /// Disables both elisions (the pure-ANS variant).
    pub fn no_elision(mut self) -> Self {
        let c = self.cfg();
        c.search_elision = None;
        c.aggregation_elision = false;
        self
    }

    /// Validates and returns the configuration.
    pub fn build(self) -> Result<AcceleratorConfig, ConfigError> {
        let cfg = self.cfg.unwrap_or_default();
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_sizes() {
        let c = AcceleratorConfig::default();
        assert_eq!(c.num_pes, 4);
        assert_eq!(c.tree_buffer.capacity_bytes, 6 << 10);
        assert_eq!(c.tree_buffer.num_banks, 4);
        assert_eq!(c.point_buffer.capacity_bytes, 64 << 10);
        assert_eq!(c.point_buffer.num_banks, 16);
        assert_eq!(c.systolic_rows * c.systolic_cols, 256);
        assert_eq!(c.global_buffer_bytes, 1536 << 10);
    }

    #[test]
    fn ans_bce_enables_both_elisions() {
        let c = AcceleratorConfig::ans_bce(12);
        assert!(c.aggregation_elision);
        let e = c.search_elision.expect("elision set");
        assert_eq!(e.elision_height, 12);
        assert_eq!(e.num_banks, 4);
        assert!(!AcceleratorConfig::ans().aggregation_elision);
    }

    #[test]
    fn top_height_range_respects_capacity() {
        let c = AcceleratorConfig::default();
        let s = c.tree_buffer_nodes(); // 6KB/16B = 384 nodes -> height 8 fits
        assert_eq!(s, 384);
        let (lo, hi) = c.top_height_range(14).expect("feasible");
        // top tree of height hi must fit
        assert!((1usize << hi) - 1 <= s);
        // sub-trees of height 14 - lo must fit
        assert!((1usize << (14 - lo)) - 1 <= s);
        assert!(lo <= hi);
        // an enormous tree cannot fit at all
        assert!(c.top_height_range(40).is_none());
    }

    #[test]
    fn builder_starts_from_defaults_and_overrides_selectively() {
        let cfg = AcceleratorConfig::builder()
            .num_pes(16)
            .tree_buffer_kb(3)
            .tree_banks(8)
            .dram_stream_bytes_per_cycle(10.24)
            .elision_height(9)
            .build()
            .expect("valid");
        assert_eq!(cfg.num_pes, 16);
        assert_eq!(cfg.tree_buffer.capacity_bytes, 3 << 10);
        assert_eq!(cfg.tree_buffer.num_banks, 8);
        assert_eq!(cfg.dram.stream_bytes_per_cycle, 10.24);
        let e = cfg.search_elision.expect("elision enabled");
        assert_eq!(e.elision_height, 9);
        assert_eq!(e.num_banks, 8, "elision banking follows the tree buffer");
        // untouched fields keep the Sec 6 defaults
        let d = AcceleratorConfig::default();
        assert_eq!(cfg.point_buffer.capacity_bytes, d.point_buffer.capacity_bytes);
        assert_eq!(cfg.global_buffer_bytes, d.global_buffer_bytes);
        // banks set after elision still propagate
        let cfg2 = AcceleratorConfig::builder().elision_height(9).tree_banks(2).build().unwrap();
        assert_eq!(cfg2.search_elision.unwrap().num_banks, 2);
        // and no_elision clears both
        let cfg3 = AcceleratorConfig::builder().elision_height(9).no_elision().build().unwrap();
        assert!(cfg3.search_elision.is_none());
        assert!(!cfg3.aggregation_elision);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        assert_eq!(
            AcceleratorConfig::builder().num_pes(0).build().unwrap_err(),
            ConfigError::ZeroPes
        );
        assert_eq!(
            AcceleratorConfig::builder().tree_banks(0).build().unwrap_err(),
            ConfigError::ZeroBanks
        );
        assert!(matches!(
            AcceleratorConfig::builder().tree_buffer_kb(0).build(),
            Err(ConfigError::TreeBufferTooSmall { .. })
        ));
        assert_eq!(
            AcceleratorConfig::builder().dram_stream_bytes_per_cycle(0.0).build().unwrap_err(),
            ConfigError::ZeroDramBandwidth
        );
        assert!(format!("{}", ConfigError::ZeroPes).contains("num_pes"));
    }

    #[test]
    fn pe_divisor_never_zero() {
        let mut cfg = AcceleratorConfig::default();
        assert_eq!(cfg.pe_divisor(), 4);
        cfg.num_pes = 0;
        assert_eq!(cfg.pe_divisor(), 1, "hand-rolled zero-PE config degrades to one PE");
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn top_height_range_small_tree() {
        let c = AcceleratorConfig::default();
        let (lo, hi) = c.top_height_range(5).expect("feasible");
        assert_eq!(lo, 0, "whole tree fits on-chip");
        assert_eq!(hi, 4, "top height below total height");
    }
}
