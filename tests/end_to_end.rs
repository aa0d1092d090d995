//! Cross-crate integration tests: trace generation → prefetchers → simulator
//! → harness metrics, exercising the public API the way the examples and the
//! benchmark harness do.

use dspatch_harness::experiments;
use dspatch_harness::runner::{run_mix, run_workload, PrefetcherKind, RunScale};
use dspatch_sim::SystemConfig;
use dspatch_trace::workloads::{category_suite, suite, WorkloadCategory};
use dspatch_trace::{heterogeneous_mixes, homogeneous_mixes};
use dspatch_types::Prefetcher;

fn tiny_scale() -> RunScale {
    RunScale {
        accesses_per_workload: 1_500,
        workloads_per_category: 1,
        mixes: 1,
        threads: 4,
        sampling: None,
    }
}

#[test]
fn every_prefetcher_kind_completes_a_simulation() {
    let scale = tiny_scale();
    let workload = &category_suite(WorkloadCategory::Ispec17)[0];
    let config = SystemConfig::single_thread();
    for kind in [
        PrefetcherKind::Baseline,
        PrefetcherKind::Bop,
        PrefetcherKind::Sms,
        PrefetcherKind::SmsIso,
        PrefetcherKind::Spp,
        PrefetcherKind::Espp,
        PrefetcherKind::Ebop,
        PrefetcherKind::Dspatch,
        PrefetcherKind::DspatchPlusSpp,
        PrefetcherKind::Streamer,
    ] {
        let result = run_workload(workload, kind, &config, &scale);
        assert_eq!(result.cores.len(), 1, "{}", kind.label());
        assert!(result.cores[0].instructions > 0, "{}", kind.label());
        assert!(result.cores[0].ipc() > 0.0, "{}", kind.label());
    }
}

#[test]
fn prefetchers_reduce_exposed_misses_on_spatial_workloads() {
    // On a Cloud-style spatial workload, DSPatch+SPP must cover a visible
    // fraction of L2 accesses and must not be slower than the baseline.
    let scale = RunScale {
        accesses_per_workload: 6_000,
        ..tiny_scale()
    };
    let workload = &category_suite(WorkloadCategory::Cloud)[0];
    let config = SystemConfig::single_thread();
    let baseline = run_workload(workload, PrefetcherKind::Baseline, &config, &scale);
    let dspatch = run_workload(workload, PrefetcherKind::DspatchPlusSpp, &config, &scale);
    let accounting = dspatch.total_accounting();
    assert!(accounting.prefetches_issued > 0);
    assert!(
        accounting.coverage() > 0.05,
        "expected some coverage, got {:.3}",
        accounting.coverage()
    );
    let speedup = dspatch.speedup_over(&baseline);
    assert!(
        speedup > 0.97,
        "prefetching must not meaningfully slow the workload down ({speedup:.3})"
    );
}

#[test]
fn simulations_are_deterministic() {
    let scale = tiny_scale();
    let workload = &category_suite(WorkloadCategory::Hpc)[0];
    let config = SystemConfig::single_thread();
    let a = run_workload(workload, PrefetcherKind::DspatchPlusSpp, &config, &scale);
    let b = run_workload(workload, PrefetcherKind::DspatchPlusSpp, &config, &scale);
    assert_eq!(a.cores[0].instructions, b.cores[0].instructions);
    assert_eq!(a.cores[0].finish_cycle, b.cores[0].finish_cycle);
    assert_eq!(a.dram.cas_commands, b.dram.cas_commands);
}

#[test]
fn multiprogrammed_mixes_run_on_four_cores() {
    let scale = tiny_scale();
    let config = SystemConfig::multi_programmed();
    let homogeneous = &homogeneous_mixes(4)[0];
    let heterogeneous = &heterogeneous_mixes(1, 4, 7)[0];
    for mix in [homogeneous, heterogeneous] {
        let result = run_mix(mix, PrefetcherKind::DspatchPlusSpp, &config, &scale);
        assert_eq!(result.cores.len(), 4);
        assert!(result.cores.iter().all(|c| c.instructions > 0));
    }
}

#[test]
fn workload_suite_covers_every_category() {
    let all = suite();
    assert_eq!(all.len(), 75);
    for category in WorkloadCategory::ALL {
        assert!(all.iter().any(|w| w.category == category));
    }
}

#[test]
fn table_experiments_render_reports() {
    let table1 = experiments::table1_storage().render();
    assert!(table1.contains("3.6 KB"));
    let table3 = experiments::table3_prefetcher_storage().render();
    assert!(table3.contains("DSPatch") && table3.contains("SMS"));
}

#[test]
fn figure11_analysis_runs_without_simulation() {
    let study = experiments::fig11_delta_and_compression(&tiny_scale());
    assert!(study.plus_minus_one_fraction > 0.0 && study.plus_minus_one_fraction <= 1.0);
    let total: f64 = study.misprediction_buckets.iter().sum();
    assert!((total - 1.0).abs() < 1e-6);
}

#[test]
fn dspatch_standalone_and_adjunct_have_expected_storage_relationship() {
    let dspatch = PrefetcherKind::Dspatch.build_any().storage_bits();
    let spp = PrefetcherKind::Spp.build_any().storage_bits();
    let combined = PrefetcherKind::DspatchPlusSpp.build_any().storage_bits();
    assert_eq!(combined, dspatch + spp);
    // The paper: DSPatch uses less than SPP, and less than 1/20th of SMS.
    assert!(dspatch < spp);
    let sms = PrefetcherKind::Sms.build_any().storage_bits();
    assert!(dspatch * 20 < sms);
}
