//! Simulated system configuration (the paper's Table IV).

use crate::tlb::TlbConfig;
use pmp_types::{HarnessError, LINE_BYTES};

/// Configuration of one cache level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets.
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
    /// Access (hit) latency in cycles.
    pub latency: u64,
    /// Number of MSHR entries.
    pub mshrs: usize,
    /// Number of prefetch-queue entries.
    pub pq_entries: usize,
}

impl CacheConfig {
    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.ways) as u64 * LINE_BYTES
    }

    /// Pre-flight validation: the cache model indexes sets with a mask,
    /// so `sets` must be a power of two; every other parameter must be
    /// non-zero for the hierarchy to make progress.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidConfig`] naming the offending
    /// field under `context` (e.g. `"l1d"`).
    pub fn validate(&self, context: &str) -> Result<(), HarnessError> {
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(HarnessError::invalid(
                format!("SystemConfig.{context}.sets"),
                format!("must be a non-zero power of two (set-mask indexing), got {}", self.sets),
            ));
        }
        let nonzero: [(&str, usize); 4] = [
            ("ways", self.ways),
            ("latency", self.latency as usize),
            ("mshrs", self.mshrs),
            ("pq_entries", self.pq_entries),
        ];
        for (field, value) in nonzero {
            if value == 0 {
                return Err(HarnessError::invalid(
                    format!("SystemConfig.{context}.{field}"),
                    "must be non-zero",
                ));
            }
        }
        Ok(())
    }

    /// The paper's L1D: 48KB, 12-way, 8-entry PQ, 16-entry MSHR, 5 cycles.
    pub fn l1d() -> Self {
        CacheConfig { sets: 64, ways: 12, latency: 5, mshrs: 16, pq_entries: 8 }
    }

    /// The paper's L2C: 512KB, 8-way, 16-entry PQ, 32-entry MSHR, 10 cycles.
    pub fn l2c() -> Self {
        CacheConfig { sets: 1024, ways: 8, latency: 10, mshrs: 32, pq_entries: 16 }
    }

    /// The paper's LLC scaled per core count: 2MB, 16-way, 32-entry PQ,
    /// 64-entry MSHR, 20 cycles per core.
    pub fn llc(cores: usize) -> Self {
        assert!(cores >= 1, "need at least one core");
        CacheConfig {
            sets: 2048 * cores,
            ways: 16,
            latency: 20,
            mshrs: 64 * cores,
            pq_entries: 32 * cores,
        }
    }
}

/// Core (front-end) configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreConfig {
    /// Dispatch/retire width (instructions per cycle).
    pub width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Load-queue entries (bounds outstanding loads).
    pub lq_entries: usize,
    /// Store-queue entries.
    pub sq_entries: usize,
}

impl CoreConfig {
    /// Every width and queue size must be non-zero: a zero-entry LQ or
    /// SQ would stall the core forever inside a single op.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidConfig`] naming the first zero
    /// field.
    pub fn validate(&self) -> Result<(), HarnessError> {
        let nonzero: [(&str, usize); 4] = [
            ("width", self.width),
            ("rob_entries", self.rob_entries),
            ("lq_entries", self.lq_entries),
            ("sq_entries", self.sq_entries),
        ];
        for (field, value) in nonzero {
            if value == 0 {
                return Err(HarnessError::invalid(
                    format!("SystemConfig.core.{field}"),
                    "must be non-zero",
                ));
            }
        }
        Ok(())
    }
}

impl Default for CoreConfig {
    /// Table IV: 4-wide, 352-entry ROB, 128-entry LQ, 72-entry SQ.
    fn default() -> Self {
        CoreConfig { width: 4, rob_entries: 352, lq_entries: 128, sq_entries: 72 }
    }
}

/// DRAM configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct DramConfig {
    /// Transfer rate in mega-transfers per second (MT/s).
    pub mts: u64,
    /// Number of channels (1 single-core, 2 in the 4-core setup).
    pub channels: usize,
    /// Core clock in Hz (4 GHz in Table IV).
    pub core_hz: u64,
    /// Idle access latency in core cycles (row activate + CAS + transfer).
    pub latency: u64,
}

impl DramConfig {
    /// Core cycles to stream one 64-byte cache line over one channel.
    ///
    /// A DDR channel moves 8 bytes per transfer, so bytes/sec =
    /// `mts * 1e6 * 8`; at `core_hz` cycles per second a line occupies
    /// the channel for `64 / bytes_per_cycle` cycles.
    pub fn cycles_per_line(&self) -> f64 {
        let bytes_per_sec = self.mts as f64 * 1.0e6 * 8.0;
        let bytes_per_cycle = bytes_per_sec / self.core_hz as f64;
        LINE_BYTES as f64 / bytes_per_cycle
    }
}

impl Default for DramConfig {
    /// Table IV: 3200 MT/s, one channel, 4 GHz core.
    fn default() -> Self {
        DramConfig { mts: 3200, channels: 1, core_hz: 4_000_000_000, latency: 160 }
    }
}

/// Full single- or multi-core system configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// Core front-end parameters.
    pub core: CoreConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// L2 cache.
    pub l2c: CacheConfig,
    /// Shared, inclusive last-level cache.
    pub llc: CacheConfig,
    /// DRAM channel model.
    pub dram: DramConfig,
    /// Two-level data TLB (Table IV: 64-entry DTLB, 1536-entry L2 TLB).
    pub tlb: TlbConfig,
}

impl SystemConfig {
    /// The paper's single-core configuration (Table IV).
    pub fn single_core() -> Self {
        SystemConfig {
            core: CoreConfig::default(),
            l1d: CacheConfig::l1d(),
            l2c: CacheConfig::l2c(),
            llc: CacheConfig::llc(1),
            dram: DramConfig::default(),
            tlb: TlbConfig::default(),
        }
    }

    /// The paper's 4-core configuration: shared 8MB LLC, 2 DRAM channels.
    pub fn quad_core() -> Self {
        SystemConfig {
            llc: CacheConfig::llc(4),
            dram: DramConfig { channels: 2, ..DramConfig::default() },
            ..SystemConfig::single_core()
        }
    }

    /// Pre-flight validation of the whole system configuration: fail
    /// fast with a diagnosis instead of a deep panic (or a silently
    /// wrong simulation) hours into a sweep.
    ///
    /// Checks every cache level ([`CacheConfig::validate`]), the core
    /// front-end, the DRAM model, and the TLB. An inclusive hierarchy
    /// additionally needs each outer level at least as large as the
    /// level above it.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::InvalidConfig`] naming the first
    /// offending field.
    pub fn validate(&self) -> Result<(), HarnessError> {
        self.l1d.validate("l1d")?;
        self.l2c.validate("l2c")?;
        self.llc.validate("llc")?;
        if self.l2c.capacity_bytes() < self.l1d.capacity_bytes() {
            return Err(HarnessError::invalid(
                "SystemConfig.l2c",
                "inclusive hierarchy: L2C must be at least as large as L1D",
            ));
        }
        if self.llc.capacity_bytes() < self.l2c.capacity_bytes() {
            return Err(HarnessError::invalid(
                "SystemConfig.llc",
                "inclusive hierarchy: LLC must be at least as large as L2C",
            ));
        }
        self.core.validate()?;
        if self.dram.mts == 0 || self.dram.channels == 0 || self.dram.core_hz == 0 {
            return Err(HarnessError::invalid(
                "SystemConfig.dram",
                format!(
                    "mts ({}), channels ({}) and core_hz ({}) must all be non-zero",
                    self.dram.mts, self.dram.channels, self.dram.core_hz
                ),
            ));
        }
        if self.tlb.dtlb_entries == 0 || self.tlb.stlb_entries == 0 {
            return Err(HarnessError::invalid(
                "SystemConfig.tlb",
                "dtlb_entries and stlb_entries must be non-zero",
            ));
        }
        Ok(())
    }

    /// Override DRAM transfer rate (Fig. 12a sweep).
    pub fn with_dram_mts(mut self, mts: u64) -> Self {
        self.dram.mts = mts;
        self
    }

    /// Override LLC capacity in megabytes by scaling sets (Fig. 12b
    /// sweep; the paper enlarges the LLC "by increasing the number of
    /// LLC sets").
    ///
    /// # Panics
    ///
    /// Panics unless `mb` is one of 2, 4, 8.
    pub fn with_llc_mb(mut self, mb: usize) -> Self {
        assert!(matches!(mb, 2 | 4 | 8), "LLC size must be 2, 4, or 8 MB");
        self.llc.sets = 2048 * (mb / 2);
        self
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::single_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iv_capacities() {
        assert_eq!(CacheConfig::l1d().capacity_bytes(), 48 * 1024);
        assert_eq!(CacheConfig::l2c().capacity_bytes(), 512 * 1024);
        assert_eq!(CacheConfig::llc(1).capacity_bytes(), 2 * 1024 * 1024);
        assert_eq!(CacheConfig::llc(4).capacity_bytes(), 8 * 1024 * 1024);
    }

    #[test]
    fn dram_bandwidth_scaling() {
        let d = DramConfig::default();
        // 3200 MT/s * 8B = 25.6 GB/s; 4GHz -> 6.4 B/cycle -> 10 cycles/line.
        assert!((d.cycles_per_line() - 10.0).abs() < 1e-9);
        let slow = DramConfig { mts: 800, ..d };
        assert!((slow.cycles_per_line() - 40.0).abs() < 1e-9);
    }

    #[test]
    fn llc_size_override() {
        let c = SystemConfig::single_core().with_llc_mb(8);
        assert_eq!(c.llc.capacity_bytes(), 8 * 1024 * 1024);
    }

    #[test]
    #[should_panic(expected = "LLC size")]
    fn llc_size_rejects_odd() {
        let _ = SystemConfig::single_core().with_llc_mb(3);
    }

    #[test]
    fn paper_configs_validate() {
        SystemConfig::single_core().validate().expect("Table IV single-core");
        SystemConfig::quad_core().validate().expect("Table IV quad-core");
        SystemConfig::single_core().with_dram_mts(800).validate().expect("Fig 12a point");
        SystemConfig::single_core().with_llc_mb(8).validate().expect("Fig 12b point");
    }

    #[test]
    fn validate_rejects_non_pow2_sets() {
        let mut cfg = SystemConfig::single_core();
        cfg.l1d.sets = 63;
        let err = cfg.validate().expect_err("63 sets must be rejected");
        assert!(err.to_string().contains("l1d.sets"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_fields() {
        let mut cfg = SystemConfig::single_core();
        cfg.l2c.mshrs = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::single_core();
        cfg.core.width = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::single_core();
        cfg.dram.mts = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_rejects_inverted_hierarchy() {
        let mut cfg = SystemConfig::single_core();
        cfg.llc.sets = 64; // 64KB LLC under a 512KB L2C
        let err = cfg.validate().expect_err("non-inclusive sizing must be rejected");
        assert!(err.to_string().contains("LLC"), "{err}");
    }

    #[test]
    fn quad_core_has_two_channels() {
        let c = SystemConfig::quad_core();
        assert_eq!(c.dram.channels, 2);
        assert_eq!(c.llc.capacity_bytes(), 8 * 1024 * 1024);
    }
}
