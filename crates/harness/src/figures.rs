//! The named-figure registry: every table and figure of the paper,
//! addressable by name for the `dspatch-lab` CLI and the parity tests. Each
//! entry routes through the same campaign-backed experiment functions in
//! [`crate::experiments`].

use crate::experiments;
use crate::report::Table;
use crate::runner::RunScale;

/// Every named figure and table of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FigureId {
    /// Figure 1: prefetcher performance scaling with DRAM bandwidth.
    Fig1,
    /// Figure 4: BOP / SMS / SPP per category.
    Fig4,
    /// Figure 5: SMS performance vs pattern-history-table size.
    Fig5,
    /// Figure 6: bandwidth scaling including eSPP and eBOP.
    Fig6,
    /// Figure 11: delta distribution and compression mispredictions.
    Fig11,
    /// Figure 12: the full single-thread line-up.
    Fig12,
    /// Figure 13: per-workload memory-intensive speedups.
    Fig13,
    /// Figure 14: adjunct prefetchers to SPP.
    Fig14,
    /// Figure 15: bandwidth scaling with DSPatch+SPP.
    Fig15,
    /// Figure 16: coverage and mispredictions.
    Fig16,
    /// Figure 17: homogeneous multi-programmed mixes.
    Fig17,
    /// Figure 18: mixes across DRAM speeds.
    Fig18,
    /// Figure 19: accuracy-biased-pattern ablation.
    Fig19,
    /// Figure 20: prefetch pollution breakdown.
    Fig20,
    /// Table 1: DSPatch storage overhead.
    Table1,
    /// Table 3: evaluated prefetcher configurations.
    Table3,
}

impl FigureId {
    /// Every named figure/table, in paper order.
    pub const ALL: [FigureId; 16] = [
        FigureId::Fig1,
        FigureId::Fig4,
        FigureId::Fig5,
        FigureId::Fig6,
        FigureId::Fig11,
        FigureId::Fig12,
        FigureId::Fig13,
        FigureId::Fig14,
        FigureId::Fig15,
        FigureId::Fig16,
        FigureId::Fig17,
        FigureId::Fig18,
        FigureId::Fig19,
        FigureId::Fig20,
        FigureId::Table1,
        FigureId::Table3,
    ];

    /// The CLI name ("fig12", "table1").
    pub fn name(self) -> &'static str {
        match self {
            FigureId::Fig1 => "fig1",
            FigureId::Fig4 => "fig4",
            FigureId::Fig5 => "fig5",
            FigureId::Fig6 => "fig6",
            FigureId::Fig11 => "fig11",
            FigureId::Fig12 => "fig12",
            FigureId::Fig13 => "fig13",
            FigureId::Fig14 => "fig14",
            FigureId::Fig15 => "fig15",
            FigureId::Fig16 => "fig16",
            FigureId::Fig17 => "fig17",
            FigureId::Fig18 => "fig18",
            FigureId::Fig19 => "fig19",
            FigureId::Fig20 => "fig20",
            FigureId::Table1 => "table1",
            FigureId::Table3 => "table3",
        }
    }

    /// One-line description for `dspatch-lab --list`.
    pub fn description(self) -> &'static str {
        match self {
            FigureId::Fig1 => "prefetcher performance scaling with DRAM bandwidth",
            FigureId::Fig4 => "BOP / SMS / SPP performance delta per category",
            FigureId::Fig5 => "SMS performance vs pattern-history-table size",
            FigureId::Fig6 => "bandwidth scaling including eSPP and eBOP",
            FigureId::Fig11 => "delta distribution and 128B-compression mispredictions",
            FigureId::Fig12 => "single-thread performance delta over baseline",
            FigureId::Fig13 => "per-workload speedups on the memory-intensive subset",
            FigureId::Fig14 => "adjunct prefetchers to SPP",
            FigureId::Fig15 => "bandwidth scaling with DSPatch+SPP",
            FigureId::Fig16 => "coverage and mispredictions per category",
            FigureId::Fig17 => "homogeneous 4-core multi-programmed mixes",
            FigureId::Fig18 => "homogeneous and heterogeneous mixes across DRAM speeds",
            FigureId::Fig19 => "accuracy-biased-pattern ablation",
            FigureId::Fig20 => "LLC pollution breakdown of an aggressive streamer",
            FigureId::Table1 => "DSPatch storage overhead",
            FigureId::Table3 => "storage of every evaluated prefetcher",
        }
    }

    /// Parses a figure name. Accepts zero-padded forms ("fig04") and is
    /// ASCII case-insensitive.
    pub fn parse(name: &str) -> Option<FigureId> {
        let normalized: String = name
            .trim()
            .to_ascii_lowercase()
            .replace("figure", "fig")
            .chars()
            .filter(|c| !c.is_whitespace() && *c != '_' && *c != '-')
            .collect();
        // Strip leading zeros from the number ("fig04" → "fig4",
        // "table01" → "table1").
        let normalized = match normalized.find(|c: char| c.is_ascii_digit()) {
            Some(split) => {
                let (prefix, digits) = normalized.split_at(split);
                let digits = digits.trim_start_matches('0');
                let digits = if digits.is_empty() { "0" } else { digits };
                format!("{prefix}{digits}")
            }
            None => normalized,
        };
        FigureId::ALL.into_iter().find(|id| id.name() == normalized)
    }

    /// Regenerates the figure's data at `scale` and returns its table. The
    /// simulation-backed figures all run through the shared campaign engine;
    /// Figure 11 is pure trace analysis and Tables 1/3 are static storage
    /// arithmetic, so `scale` does not affect the latter two.
    pub fn run(self, scale: &RunScale) -> Table {
        match self {
            FigureId::Fig1 => experiments::fig1_bandwidth_scaling_baselines(scale).to_table(),
            FigureId::Fig4 => experiments::fig4_baseline_prefetchers(scale).to_table(),
            FigureId::Fig5 => experiments::fig5_sms_storage_sweep(scale).to_table(),
            FigureId::Fig6 => experiments::fig6_bandwidth_scaling_enhanced(scale).to_table(),
            FigureId::Fig11 => experiments::fig11_delta_and_compression(scale).to_table(),
            FigureId::Fig12 => experiments::fig12_single_thread(scale).to_table(),
            FigureId::Fig13 => experiments::fig13_memory_intensive(scale).to_table(),
            FigureId::Fig14 => experiments::fig14_adjuncts(scale).to_table(),
            FigureId::Fig15 => experiments::fig15_bandwidth_scaling_dspatch(scale).to_table(),
            FigureId::Fig16 => experiments::fig16_coverage(scale).to_table(),
            FigureId::Fig17 => experiments::fig17_homogeneous(scale).to_table(),
            FigureId::Fig18 => experiments::fig18_mixes_and_bandwidth(scale).to_table(),
            FigureId::Fig19 => experiments::fig19_ablation(scale).to_table(),
            FigureId::Fig20 => experiments::fig20_pollution(scale).to_table(),
            FigureId::Table1 => experiments::table1_storage(),
            FigureId::Table3 => experiments::table3_prefetcher_storage(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_through_parse() {
        for id in FigureId::ALL {
            assert_eq!(FigureId::parse(id.name()), Some(id), "{}", id.name());
            assert!(!id.description().is_empty());
        }
    }

    #[test]
    fn parse_accepts_aliases() {
        assert_eq!(FigureId::parse("Fig04"), Some(FigureId::Fig4));
        assert_eq!(FigureId::parse("figure 12"), Some(FigureId::Fig12));
        assert_eq!(FigureId::parse("FIG-17"), Some(FigureId::Fig17));
        assert_eq!(FigureId::parse("table_1"), Some(FigureId::Table1));
        assert_eq!(FigureId::parse("table01"), Some(FigureId::Table1));
        assert_eq!(FigureId::parse("fig2"), None);
    }

    #[test]
    fn static_tables_run_without_simulation() {
        let scale = RunScale {
            accesses_per_workload: 100,
            workloads_per_category: 1,
            mixes: 1,
            threads: 1,
            sampling: None,
        };
        assert!(FigureId::Table1.run(&scale).render().contains("SPT"));
        assert!(FigureId::Table3.run(&scale).render().contains("DSPatch"));
    }
}
