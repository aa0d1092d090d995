//! Shared infrastructure for running experiments: the prefetcher line-up,
//! run scales, and the baseline-normalized performance metric.

use dspatch::{DsPatch, DsPatchConfig};
use dspatch_prefetchers::any::composites;
use dspatch_prefetchers::{
    AnyPrefetcher, BopConfig, BopPrefetcher, SmsConfig, SmsPrefetcher, SppConfig, SppPrefetcher,
    StreamConfig, StreamPrefetcher,
};
use dspatch_sim::{SimResult, SimulationBuilder, SystemConfig};
use dspatch_trace::{WorkloadMix, WorkloadSpec};
use serde::{Deserialize, Serialize};

/// The prefetchers the paper's figures compare. Each variant builds a fresh
/// prefetcher instance for one simulated core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PrefetcherKind {
    /// No L2 prefetcher (the baseline keeps only the L1 PC-stride prefetcher).
    Baseline,
    /// Best Offset Prefetcher.
    Bop,
    /// Bandwidth-enhanced BOP (Section 2.2).
    Ebop,
    /// Spatial Memory Streaming with a 16 K-entry PHT.
    Sms,
    /// SMS limited to 256 PHT entries (iso-storage with DSPatch).
    SmsIso,
    /// Signature Pattern Prefetcher.
    Spp,
    /// Bandwidth-enhanced SPP (Section 2.1).
    Espp,
    /// Standalone DSPatch.
    Dspatch,
    /// DSPatch as an adjunct to SPP — the paper's headline configuration.
    DspatchPlusSpp,
    /// BOP as an adjunct to SPP.
    BopPlusSpp,
    /// eBOP as an adjunct to SPP.
    EbopPlusSpp,
    /// 256-entry SMS as an adjunct to SPP.
    SmsIsoPlusSpp,
    /// Figure 19 ablation: DSPatch that always predicts with `CovP`.
    AlwaysCovpPlusSpp,
    /// Figure 19 ablation: DSPatch that only throttles `CovP`.
    ModCovpPlusSpp,
    /// Aggressive streaming prefetcher (appendix pollution study).
    Streamer,
}

impl PrefetcherKind {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PrefetcherKind::Baseline => "Baseline",
            PrefetcherKind::Bop => "BOP",
            PrefetcherKind::Ebop => "eBOP",
            PrefetcherKind::Sms => "SMS",
            PrefetcherKind::SmsIso => "SMS(iso)",
            PrefetcherKind::Spp => "SPP",
            PrefetcherKind::Espp => "eSPP",
            PrefetcherKind::Dspatch => "DSPatch",
            PrefetcherKind::DspatchPlusSpp => "DSPatch+SPP",
            PrefetcherKind::BopPlusSpp => "BOP+SPP",
            PrefetcherKind::EbopPlusSpp => "eBOP+SPP",
            PrefetcherKind::SmsIsoPlusSpp => "SMS(iso)+SPP",
            PrefetcherKind::AlwaysCovpPlusSpp => "AlwaysCovP+SPP",
            PrefetcherKind::ModCovpPlusSpp => "ModCovP+SPP",
            PrefetcherKind::Streamer => "Streamer",
        }
    }

    /// Builds a fresh prefetcher instance of this kind as a statically
    /// dispatched [`AnyPrefetcher`] — the form every registry-driven
    /// simulation uses, so the per-access hot path never crosses a vtable.
    pub fn build_any(self) -> AnyPrefetcher {
        match self {
            PrefetcherKind::Baseline => dspatch_types::NullPrefetcher::new().into(),
            PrefetcherKind::Bop => BopPrefetcher::new(BopConfig::default()).into(),
            PrefetcherKind::Ebop => BopPrefetcher::new(BopConfig::enhanced()).into(),
            PrefetcherKind::Sms => SmsPrefetcher::new(SmsConfig::default()).into(),
            PrefetcherKind::SmsIso => SmsPrefetcher::new(SmsConfig::with_pht_entries(256)).into(),
            PrefetcherKind::Spp => SppPrefetcher::new(SppConfig::default()).into(),
            PrefetcherKind::Espp => SppPrefetcher::new(SppConfig::enhanced()).into(),
            PrefetcherKind::Dspatch => DsPatch::new(DsPatchConfig::default()).into(),
            PrefetcherKind::DspatchPlusSpp => composites::dspatch_plus_spp().into(),
            PrefetcherKind::BopPlusSpp => composites::bop_plus_spp().into(),
            PrefetcherKind::EbopPlusSpp => composites::ebop_plus_spp().into(),
            PrefetcherKind::SmsIsoPlusSpp => composites::sms_iso_plus_spp().into(),
            PrefetcherKind::AlwaysCovpPlusSpp => composites::dspatch_always_covp_plus_spp().into(),
            PrefetcherKind::ModCovpPlusSpp => composites::dspatch_mod_covp_plus_spp().into(),
            PrefetcherKind::Streamer => StreamPrefetcher::new(StreamConfig::default()).into(),
        }
    }

    /// Stable lower-case spec-file name, accepted by [`PrefetcherKind::parse`]
    /// and emitted when a campaign spec is serialized.
    pub fn spec_name(self) -> &'static str {
        match self {
            PrefetcherKind::Baseline => "baseline",
            PrefetcherKind::Bop => "bop",
            PrefetcherKind::Ebop => "ebop",
            PrefetcherKind::Sms => "sms",
            PrefetcherKind::SmsIso => "sms_iso",
            PrefetcherKind::Spp => "spp",
            PrefetcherKind::Espp => "espp",
            PrefetcherKind::Dspatch => "dspatch",
            PrefetcherKind::DspatchPlusSpp => "dspatch_plus_spp",
            PrefetcherKind::BopPlusSpp => "bop_plus_spp",
            PrefetcherKind::EbopPlusSpp => "ebop_plus_spp",
            PrefetcherKind::SmsIsoPlusSpp => "sms_iso_plus_spp",
            PrefetcherKind::AlwaysCovpPlusSpp => "always_covp_plus_spp",
            PrefetcherKind::ModCovpPlusSpp => "mod_covp_plus_spp",
            PrefetcherKind::Streamer => "streamer",
        }
    }

    /// Parses a kind from its spec name or display label (ASCII
    /// case-insensitive), e.g. `"dspatch_plus_spp"` or `"DSPatch+SPP"`.
    pub fn parse(name: &str) -> Option<PrefetcherKind> {
        PrefetcherKind::ALL.into_iter().find(|kind| {
            kind.spec_name().eq_ignore_ascii_case(name) || kind.label().eq_ignore_ascii_case(name)
        })
    }

    /// Every kind, in the order they are documented above.
    pub const ALL: [PrefetcherKind; 15] = [
        PrefetcherKind::Baseline,
        PrefetcherKind::Bop,
        PrefetcherKind::Ebop,
        PrefetcherKind::Sms,
        PrefetcherKind::SmsIso,
        PrefetcherKind::Spp,
        PrefetcherKind::Espp,
        PrefetcherKind::Dspatch,
        PrefetcherKind::DspatchPlusSpp,
        PrefetcherKind::BopPlusSpp,
        PrefetcherKind::EbopPlusSpp,
        PrefetcherKind::SmsIsoPlusSpp,
        PrefetcherKind::AlwaysCovpPlusSpp,
        PrefetcherKind::ModCovpPlusSpp,
        PrefetcherKind::Streamer,
    ];

    /// The standalone line-up of Figure 12.
    pub fn standalone_lineup() -> Vec<PrefetcherKind> {
        vec![
            PrefetcherKind::Bop,
            PrefetcherKind::Sms,
            PrefetcherKind::Spp,
            PrefetcherKind::Dspatch,
            PrefetcherKind::DspatchPlusSpp,
        ]
    }

    /// The adjunct line-up of Figure 14.
    pub fn adjunct_lineup() -> Vec<PrefetcherKind> {
        vec![
            PrefetcherKind::Spp,
            PrefetcherKind::BopPlusSpp,
            PrefetcherKind::SmsIsoPlusSpp,
            PrefetcherKind::DspatchPlusSpp,
        ]
    }
}

/// How much work an experiment does. Every figure function takes a scale so
/// the same code serves smoke tests, `dspatch-lab` runs and full
/// reproductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunScale {
    /// Memory accesses simulated per workload.
    pub accesses_per_workload: usize,
    /// Maximum workloads taken from each category (0 = all).
    pub workloads_per_category: usize,
    /// Number of multi-programmed mixes simulated (0 = all defined mixes).
    pub mixes: usize,
    /// Number of worker threads used to run workloads in parallel.
    pub threads: usize,
    /// Interval-sampling plan: `None` runs every access in detail (exact),
    /// `Some` fast-forwards through functional warm-up and measures only
    /// the plan's intervals (see [`crate::sampling`]). Sampled scales are
    /// single-core-only and report mean ± 95% CI on each result.
    pub sampling: Option<crate::sampling::SamplingPlan>,
}

impl RunScale {
    /// Tiny scale for unit tests and doctests (seconds).
    pub fn smoke() -> Self {
        Self {
            accesses_per_workload: 1_200,
            workloads_per_category: 1,
            mixes: 2,
            threads: default_threads(),
            sampling: None,
        }
    }

    /// The `dspatch-lab --scale quick` preset: small enough to run every
    /// figure in minutes, large enough for stable trends.
    pub fn quick() -> Self {
        Self {
            accesses_per_workload: 6_000,
            workloads_per_category: 2,
            mixes: 4,
            threads: default_threads(),
            sampling: None,
        }
    }

    /// Laptop-scale full reproduction: every workload, longer traces.
    pub fn full() -> Self {
        Self {
            accesses_per_workload: 40_000,
            workloads_per_category: 0,
            mixes: 0,
            threads: default_threads(),
            sampling: None,
        }
    }

    /// Looks up a preset by name ("smoke", "quick" or "full").
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "smoke" => Some(Self::smoke()),
            "quick" => Some(Self::quick()),
            "full" => Some(Self::full()),
            _ => None,
        }
    }

    /// Overrides the worker-thread count (presets default to
    /// [`default_threads`]).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Attaches (or clears) an interval-sampling plan.
    pub fn with_sampling(mut self, plan: Option<crate::sampling::SamplingPlan>) -> Self {
        self.sampling = plan;
        self
    }

    /// Applies the per-category workload cap to a workload list.
    pub fn select_workloads(&self, all: Vec<WorkloadSpec>) -> Vec<WorkloadSpec> {
        if self.workloads_per_category == 0 {
            return all;
        }
        let mut taken: std::collections::BTreeMap<_, usize> = std::collections::BTreeMap::new();
        all.into_iter()
            .filter(|w| {
                let count = taken.entry(w.category).or_insert(0);
                *count += 1;
                *count <= self.workloads_per_category
            })
            .collect()
    }

    /// Applies the mix cap to a mix list.
    pub fn select_mixes(&self, all: Vec<WorkloadMix>) -> Vec<WorkloadMix> {
        if self.mixes == 0 {
            return all;
        }
        all.into_iter().take(self.mixes).collect()
    }
}

/// Runs one single-thread workload with the given prefetcher kind. The
/// workload streams into the simulator as a lazy [`dspatch_trace::SynthSource`]
/// — no trace is materialized, so memory stays O(1) in
/// `scale.accesses_per_workload`.
pub fn run_workload(
    workload: &WorkloadSpec,
    kind: PrefetcherKind,
    config: &SystemConfig,
    scale: &RunScale,
) -> SimResult {
    if scale.sampling.is_some() {
        // Sampled scales measure seed-placed intervals instead of the whole
        // trace; the scale was validated upstream, so a plan that does not
        // fit here is a caller bug worth the panic.
        return crate::sampling::run_sampled_workload(
            workload,
            kind.build_any(),
            config,
            scale,
            None,
        )
        .unwrap_or_else(|error| panic!("sampled workload '{}': {error}", workload.name));
    }
    SimulationBuilder::new(config.clone())
        .with_core(
            workload.source(scale.accesses_per_workload),
            kind.build_any(),
        )
        .run()
}

/// Runs one 4-core multi-programmed mix with the same prefetcher kind on
/// every core. Each core streams its workload lazily (O(1) memory per core).
pub fn run_mix(
    mix: &WorkloadMix,
    kind: PrefetcherKind,
    config: &SystemConfig,
    scale: &RunScale,
) -> SimResult {
    // Checkpoints and interval placement are single-core-only; campaign
    // specs get this as a clean spec error, so reaching it here means the
    // caller skipped validation.
    assert!(
        scale.sampling.is_none(),
        "sampled scales cannot run multi-programmed mixes (mix '{}')",
        mix.name
    );
    let mut builder = SimulationBuilder::new(config.clone());
    for workload in &mix.workloads {
        builder = builder.with_core(
            workload.source(scale.accesses_per_workload),
            kind.build_any(),
        );
    }
    builder.run()
}

/// The default worker-thread count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Per-workload speedups of `kind` over the no-L2-prefetcher baseline, in
/// workload order.
///
/// This is a thin wrapper over the campaign executor
/// ([`crate::campaign::run_cells`]): the (workload, baseline) and
/// (workload, kind) simulations are deduplicated, memoized and drained by a
/// self-scheduling pool of `scale.threads` workers.
pub fn speedups_over_baseline(
    workloads: &[WorkloadSpec],
    kind: PrefetcherKind,
    config: &SystemConfig,
    scale: &RunScale,
) -> Vec<f64> {
    use crate::campaign::{run_cells, PrefetcherSel, ResolvedCell, Target};
    let cell = ResolvedCell {
        label: "all".to_owned(),
        targets: workloads.iter().cloned().map(Target::Workload).collect(),
        prefetchers: vec![PrefetcherSel::Kind(kind)],
        config: config.clone(),
        config_label: String::new(),
        baseline: true,
    };
    let result = run_cells("speedups_over_baseline", &[cell], scale);
    // Baseline cells always carry speedups; a quarantined baseline would
    // drop its row rather than poison the aggregate with a placeholder.
    result
        .rows
        .iter()
        .filter_map(|row| result.speedup(row))
        .collect()
}

/// Geometric mean of a slice of speedups.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 1.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Geometric-mean performance delta of `kind` over the baseline across
/// `workloads`, as a fraction (0.06 = +6 %).
pub fn perf_delta(
    workloads: &[WorkloadSpec],
    kind: PrefetcherKind,
    config: &SystemConfig,
    scale: &RunScale,
) -> f64 {
    geomean(&speedups_over_baseline(workloads, kind, config, scale)) - 1.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_trace::workloads::suite;
    use dspatch_types::Prefetcher;

    #[test]
    fn every_kind_builds_a_prefetcher_and_parses_back() {
        for kind in PrefetcherKind::ALL {
            assert!(!kind.label().is_empty());
            assert!(!kind.build_any().name().is_empty());
            assert_eq!(PrefetcherKind::parse(kind.spec_name()), Some(kind));
            assert_eq!(PrefetcherKind::parse(kind.label()), Some(kind));
        }
    }

    #[test]
    fn scale_caps_workloads_per_category() {
        let scale = RunScale::smoke();
        let selected = scale.select_workloads(suite());
        assert_eq!(
            selected.len(),
            9,
            "one workload per category at smoke scale"
        );
        let full = RunScale::full().select_workloads(suite());
        assert_eq!(full.len(), 75);
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 1.0);
    }

    #[test]
    fn run_workload_produces_a_result() {
        let scale = RunScale::smoke();
        let workloads = scale.select_workloads(suite());
        let config = SystemConfig::single_thread();
        let result = run_workload(&workloads[0], PrefetcherKind::Baseline, &config, &scale);
        assert_eq!(result.cores.len(), 1);
        assert!(result.cores[0].instructions > 0);
    }

    #[test]
    fn speedups_align_with_workload_order() {
        let scale = RunScale::smoke();
        let workloads: Vec<_> = scale
            .select_workloads(suite())
            .into_iter()
            .take(3)
            .collect();
        let config = SystemConfig::single_thread();
        let speedups = speedups_over_baseline(&workloads, PrefetcherKind::Spp, &config, &scale);
        assert_eq!(speedups.len(), workloads.len());
        assert!(speedups.iter().all(|s| *s > 0.0));
    }
}
