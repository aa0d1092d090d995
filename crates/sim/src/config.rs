//! Simulation parameters (paper, Table 2) and the DRAM speed grid used by
//! the bandwidth-scaling experiments (Figures 1, 6 and 15).

use crate::cache::CacheConfig;
use serde::{Deserialize, Serialize};

/// Core microarchitecture parameters (Skylake-class, Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Core clock in MHz (paper: 4 GHz).
    pub clock_mhz: u64,
    /// Reorder-buffer entries (paper: 224).
    pub rob_entries: usize,
    /// Allocation/retire width (paper: 4-wide).
    pub width: usize,
    /// Load-buffer entries bounding outstanding loads (paper: 80).
    pub load_buffer_entries: usize,
}

impl Default for CoreConfig {
    fn default() -> Self {
        Self {
            clock_mhz: 4000,
            rob_entries: 224,
            width: 4,
            load_buffer_entries: 80,
        }
    }
}

/// DDR4 speed grades evaluated by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DramSpeedGrade {
    /// DDR4-1600 (12.5 GB/s per channel).
    Ddr4_1600,
    /// DDR4-2133 (17 GB/s per channel) — the paper's baseline.
    Ddr4_2133,
    /// DDR4-2400 (19.2 GB/s per channel).
    Ddr4_2400,
}

impl DramSpeedGrade {
    /// All grades, slowest first.
    pub const ALL: [DramSpeedGrade; 3] = [
        DramSpeedGrade::Ddr4_1600,
        DramSpeedGrade::Ddr4_2133,
        DramSpeedGrade::Ddr4_2400,
    ];

    /// Data rate in mega-transfers per second.
    pub fn data_rate_mts(self) -> u64 {
        match self {
            DramSpeedGrade::Ddr4_1600 => 1600,
            DramSpeedGrade::Ddr4_2133 => 2133,
            DramSpeedGrade::Ddr4_2400 => 2400,
        }
    }

    /// Short label ("1600", "2133", "2400").
    pub fn label(self) -> &'static str {
        match self {
            DramSpeedGrade::Ddr4_1600 => "1600",
            DramSpeedGrade::Ddr4_2133 => "2133",
            DramSpeedGrade::Ddr4_2400 => "2400",
        }
    }
}

/// DRAM organization and timing (paper, Table 2: DDR4, 2 ranks/channel,
/// 8 banks/rank, 64-bit bus, 2 KB row buffer, tCL=tRCD=tRP=15 ns,
/// tRAS=39 ns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Number of independent channels.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks_per_channel: usize,
    /// Banks per rank.
    pub banks_per_rank: usize,
    /// Data-bus width per channel in bytes (64-bit = 8 bytes).
    pub bus_bytes: usize,
    /// Row-buffer size in bytes.
    pub row_buffer_bytes: usize,
    /// Speed grade (data rate).
    pub speed: DramSpeedGrade,
    /// Column access latency in nanoseconds.
    pub t_cl_ns: f64,
    /// RAS-to-CAS delay in nanoseconds.
    pub t_rcd_ns: f64,
    /// Row precharge latency in nanoseconds.
    pub t_rp_ns: f64,
    /// Row active time in nanoseconds.
    pub t_ras_ns: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self::with_speed(1, DramSpeedGrade::Ddr4_2133)
    }
}

impl DramConfig {
    /// Builds a configuration with `channels` channels of the given grade
    /// and the paper's Table 2 timings.
    pub fn with_speed(channels: usize, speed: DramSpeedGrade) -> Self {
        Self {
            channels,
            ranks_per_channel: 2,
            banks_per_rank: 8,
            bus_bytes: 8,
            row_buffer_bytes: 2048,
            speed,
            t_cl_ns: 15.0,
            t_rcd_ns: 15.0,
            t_rp_ns: 15.0,
            t_ras_ns: 39.0,
        }
    }

    /// Total banks per channel.
    pub fn banks_per_channel(&self) -> usize {
        self.ranks_per_channel * self.banks_per_rank
    }

    /// Peak bandwidth in gigabytes per second across all channels.
    pub fn peak_bandwidth_gbps(&self) -> f64 {
        self.channels as f64 * self.speed.data_rate_mts() as f64 * self.bus_bytes as f64 / 1000.0
    }

    /// Row-cycle time tRC = tRAS + tRP, in nanoseconds. The bandwidth
    /// tracker's window is 4×tRC (paper, Section 3.2).
    pub fn t_rc_ns(&self) -> f64 {
        self.t_ras_ns + self.t_rp_ns
    }

    /// Minimum time between two 64 B transfers on one channel, in
    /// nanoseconds (8 bus transfers per cache line).
    pub fn transfer_time_ns(&self) -> f64 {
        let transfers = 64.0 / self.bus_bytes as f64;
        transfers / (self.speed.data_rate_mts() as f64 / 1000.0)
    }

    /// A short descriptive label such as "1ch-2133".
    pub fn label(&self) -> String {
        format!("{}ch-{}", self.channels, self.speed.label())
    }
}

/// Full system configuration (Table 2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// Number of cores sharing the LLC and DRAM.
    pub cores: usize,
    /// Private L1 data cache (32 KB, 8-way, 5-cycle round trip).
    pub l1: CacheConfig,
    /// Private L2 cache (256 KB, 8-way, 8-cycle round trip).
    pub l2: CacheConfig,
    /// Shared LLC (2 MB/core single-thread, 8 MB shared for 4 cores,
    /// 16-way, 30-cycle round trip).
    pub llc: CacheConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Whether the baseline PC-stride prefetcher runs at the L1.
    pub l1_stride_prefetcher: bool,
    /// Per-core budget of in-flight L2 prefetch fills (the prefetch-queue /
    /// MSHR capacity of ChampSim-class simulators; Table 2 machines use 16).
    /// Prefetch candidates beyond the budget are dropped exactly as a full
    /// hardware prefetch queue would drop them; demands are never dropped.
    /// This also bounds the simulator's in-flight fill table, which is what
    /// keeps the prefetcher-path wall-clock cost flat under DRAM saturation
    /// (an unbounded backlog previously grew to tens of thousands of
    /// queued fills).
    pub prefetch_mshrs: usize,
    /// Whether the machine may fast-forward over provably idle /
    /// closed-form cycles. On by default; disabling forces the reference
    /// cycle-by-cycle loop, which produces **bit-identical results** (a
    /// property test asserts this) at a large wall-clock cost. Exists so
    /// the skip machinery's exactness stays falsifiable.
    pub cycle_skipping: bool,
    /// Upper bound on simulated cycles (guards against pathological
    /// configurations; 0 disables the guard).
    pub max_cycles: u64,
}

impl SystemConfig {
    /// The paper's single-thread configuration: one core, 2 MB LLC, one
    /// DDR4-2133 channel.
    pub fn single_thread() -> Self {
        Self {
            core: CoreConfig::default(),
            cores: 1,
            l1: CacheConfig::new("L1D", 32 * 1024, 8, 5, 16),
            l2: CacheConfig::new("L2", 256 * 1024, 8, 8, 32),
            llc: CacheConfig::new("LLC", 2 * 1024 * 1024, 16, 30, 32),
            dram: DramConfig::with_speed(1, DramSpeedGrade::Ddr4_2133),
            l1_stride_prefetcher: true,
            prefetch_mshrs: 16,
            cycle_skipping: true,
            max_cycles: 2_000_000_000,
        }
    }

    /// The paper's multi-programmed configuration: four cores, a shared
    /// 8 MB LLC and two DDR4-2133 channels.
    pub fn multi_programmed() -> Self {
        Self {
            cores: 4,
            llc: CacheConfig::new("LLC", 8 * 1024 * 1024, 16, 30, 128),
            dram: DramConfig::with_speed(2, DramSpeedGrade::Ddr4_2133),
            ..Self::single_thread()
        }
    }

    /// Replaces the DRAM configuration (used for the bandwidth sweeps).
    pub fn with_dram(mut self, channels: usize, speed: DramSpeedGrade) -> Self {
        self.dram = DramConfig::with_speed(channels, speed);
        self
    }

    /// Replaces the LLC capacity, keeping associativity and latency (used by
    /// the appendix pollution study, Figure 20).
    pub fn with_llc_capacity(mut self, bytes: usize) -> Self {
        let ways = self.llc.ways;
        let latency = self.llc.latency;
        let mshrs = self.llc.mshrs;
        self.llc = CacheConfig::new("LLC", bytes, ways, latency, mshrs);
        self
    }

    /// Validates structural parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid parameter found.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("system needs at least one core".to_owned());
        }
        if self.core.width == 0 || self.core.rob_entries == 0 {
            return Err("core width and ROB size must be positive".to_owned());
        }
        if self.dram.channels == 0 {
            return Err("DRAM needs at least one channel".to_owned());
        }
        if self.prefetch_mshrs == 0 {
            return Err("prefetch MSHR budget must be positive".to_owned());
        }
        for cache in [&self.l1, &self.l2, &self.llc] {
            let _ = cache.validate()?;
        }
        Ok(())
    }

    /// The six DRAM configurations of the bandwidth-scaling figures:
    /// single and dual channels of DDR4-1600, 2133 and 2400.
    pub fn bandwidth_sweep() -> Vec<(usize, DramSpeedGrade)> {
        let mut grid = Vec::new();
        for channels in [1usize, 2] {
            for speed in DramSpeedGrade::ALL {
                grid.push((channels, speed));
            }
        }
        grid
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::single_thread()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_thread_matches_table2() {
        let cfg = SystemConfig::single_thread();
        assert_eq!(cfg.core.rob_entries, 224);
        assert_eq!(cfg.core.width, 4);
        assert_eq!(cfg.core.load_buffer_entries, 80);
        assert_eq!(cfg.l1.size_bytes, 32 * 1024);
        assert_eq!(cfg.l2.size_bytes, 256 * 1024);
        assert_eq!(cfg.llc.size_bytes, 2 * 1024 * 1024);
        assert_eq!(cfg.l1.latency, 5);
        assert_eq!(cfg.l2.latency, 8);
        assert_eq!(cfg.llc.latency, 30);
        assert_eq!(cfg.dram.channels, 1);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn multi_programmed_scales_llc_and_channels() {
        let cfg = SystemConfig::multi_programmed();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.llc.size_bytes, 8 * 1024 * 1024);
        assert_eq!(cfg.dram.channels, 2);
        // Same LLC capacity per core, half the bandwidth per core.
        let st = SystemConfig::single_thread();
        assert_eq!(cfg.llc.size_bytes / cfg.cores, st.llc.size_bytes);
        assert!(
            (cfg.dram.peak_bandwidth_gbps() / cfg.cores as f64) < st.dram.peak_bandwidth_gbps()
        );
    }

    #[test]
    fn peak_bandwidth_matches_paper_figures() {
        let one_1600 = DramConfig::with_speed(1, DramSpeedGrade::Ddr4_1600);
        let one_2133 = DramConfig::with_speed(1, DramSpeedGrade::Ddr4_2133);
        let two_2400 = DramConfig::with_speed(2, DramSpeedGrade::Ddr4_2400);
        assert!((one_1600.peak_bandwidth_gbps() - 12.8).abs() < 0.2);
        assert!((one_2133.peak_bandwidth_gbps() - 17.0).abs() < 0.2);
        assert!((two_2400.peak_bandwidth_gbps() - 38.4).abs() < 0.5);
    }

    #[test]
    fn bandwidth_sweep_has_six_points() {
        let sweep = SystemConfig::bandwidth_sweep();
        assert_eq!(sweep.len(), 6);
        let bandwidths: Vec<f64> = sweep
            .iter()
            .map(|&(ch, sp)| DramConfig::with_speed(ch, sp).peak_bandwidth_gbps())
            .collect();
        assert!(bandwidths.windows(2).any(|w| w[1] > w[0]));
    }

    #[test]
    fn timing_derivations() {
        let dram = DramConfig::default();
        assert!((dram.t_rc_ns() - 54.0).abs() < 1e-9);
        // One 64 B line takes 8 transfers; at 2133 MT/s that is ~3.75 ns.
        assert!((dram.transfer_time_ns() - 3.75).abs() < 0.1);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut cfg = SystemConfig::single_thread();
        cfg.cores = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = SystemConfig::single_thread();
        cfg.dram.channels = 0;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(
            DramConfig::with_speed(2, DramSpeedGrade::Ddr4_2400).label(),
            "2ch-2400"
        );
        assert_eq!(DramSpeedGrade::Ddr4_1600.label(), "1600");
    }
}
