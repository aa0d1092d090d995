//! Proves the campaign engine's baseline memoization by counting actual
//! simulator invocations ([`dspatch_sim::simulations_started`]): a figure
//! with K prefetcher columns must run each (workload, config) baseline
//! exactly once — K+1 simulations per workload instead of the pre-redesign
//! 2K (a fresh baseline per column).
//!
//! This file deliberately holds a single `#[test]` so no concurrently
//! running test in the same process can perturb the global counter.

use dspatch_harness::campaign::{
    run_campaign, CampaignSpec, CellSpec, ConfigSpec, PrefetcherSel, TargetSelector,
};
use dspatch_harness::experiments;
use dspatch_harness::runner::{PrefetcherKind, RunScale};
use dspatch_sim::simulations_started;

#[test]
fn baselines_simulate_once_per_workload_and_config() {
    let scale = RunScale {
        accesses_per_workload: 600,
        workloads_per_category: 1,
        mixes: 1,
        threads: 2,
        sampling: None,
    };

    // Figure 4: 9 categories × 1 workload, K = 3 prefetcher columns.
    let workloads = 9;
    let kinds = 3;
    let before = simulations_started();
    let fig = experiments::fig4_baseline_prefetchers(&scale);
    let ran = (simulations_started() - before) as usize;
    assert_eq!(fig.rows.len(), 10, "9 categories + GEOMEAN");
    assert_eq!(
        ran,
        workloads * (kinds + 1),
        "each workload must simulate once per column plus ONE memoized baseline"
    );
    assert!(
        ran < workloads * kinds * 2,
        "must beat the pre-redesign cost of a fresh baseline per column"
    );

    // Figure 5: one cell, four parameterized SMS columns over the capped
    // 9-workload suite — baselines must be shared across all four sweep
    // points (pre-redesign: simulated per point).
    let before = simulations_started();
    let sweep = experiments::fig5_sms_storage_sweep(&scale);
    let ran = (simulations_started() - before) as usize;
    assert_eq!(sweep.rows.len(), 4);
    assert_eq!(ran, workloads * (4 + 1));

    // The executor's own accounting agrees with the global counter.
    let spec = CampaignSpec::single_cell(
        "counter cross-check",
        CellSpec {
            label: "hpc".to_owned(),
            targets: TargetSelector::Category(dspatch_trace::workloads::WorkloadCategory::Hpc),
            prefetchers: vec![
                PrefetcherSel::Kind(PrefetcherKind::Spp),
                PrefetcherSel::Kind(PrefetcherKind::Bop),
            ],
            config: ConfigSpec::single_thread(),
            baseline: true,
        },
    );
    let before = simulations_started();
    let result = run_campaign(&spec, &scale).expect("valid spec");
    let ran = (simulations_started() - before) as usize;
    assert_eq!(ran, result.stats.sims_run);
    assert_eq!(result.stats.baseline_sims, 1);
    assert_eq!(ran, 3, "1 workload × (1 baseline + 2 candidates)");
}
