//! Sampled-simulation golden tests: checkpoint fidelity for every registry
//! prefetcher, and statistical validity of the interval estimates.
//!
//! Two guarantees are pinned here:
//!
//! 1. **Bit-identical restore** — for every prefetcher in the registry, a
//!    machine checkpointed after functional warm-up and restored from the
//!    serialized bytes produces *exactly* the measurement the original
//!    machine does. This exercises the full `SnapshotState` surface (every
//!    predictor's save/load, caches, DRAM, accounting) through the public
//!    byte format, not just in-memory clones.
//! 2. **CI coverage** — on a pinned (workload, prefetcher) matrix, the
//!    sampled run's 95% confidence interval covers the exact run's IPC.
//!    Everything is seed-deterministic, so this is a golden test, not a
//!    flaky statistical one: a regression in warm-up, placement, or
//!    aggregation moves the interval away from the exact value.

use dspatch_harness::runner::{run_workload, PrefetcherKind, RunScale};
use dspatch_harness::sampling::{run_sampled_workload, warmup_checkpoint, SamplingPlan};
use dspatch_sim::{MachineState, SimulationBuilder, SystemConfig};
use dspatch_trace::workloads::{category_suite, WorkloadCategory};

fn plan() -> SamplingPlan {
    SamplingPlan {
        warmup_accesses: 6_000,
        interval_accesses: 1_500,
        intervals: 8,
        seed: 42,
    }
}

fn scale() -> RunScale {
    RunScale {
        accesses_per_workload: 40_000,
        workloads_per_category: 1,
        mixes: 0,
        threads: 1,
        sampling: Some(plan()),
    }
}

#[test]
fn checkpoints_round_trip_bit_identically_for_every_registry_prefetcher() {
    let workload = &category_suite(WorkloadCategory::Ispec17)[0];
    let config = SystemConfig::single_thread();
    for kind in PrefetcherKind::ALL {
        let mut machine = SimulationBuilder::new(config.clone())
            .with_core(workload.source(20_000), kind.build_any())
            .into_machine();
        machine.run_functional(4_000);
        let state = machine
            .capture()
            .expect("functional boundary is capturable");

        // Through the full byte format, as a checkpoint file would travel.
        let bytes = state.as_bytes().to_vec();
        let reloaded = MachineState::from_bytes(bytes).expect("bytes validate");
        assert_eq!(state, reloaded, "{kind:?}: byte round trip");

        let mut restored = SimulationBuilder::new(config.clone())
            .with_core(workload.source(20_000), kind.build_any())
            .into_machine();
        restored.restore(&reloaded).expect("restore succeeds");

        let original = machine.run_interval(2_000);
        let replayed = restored.run_interval(2_000);
        assert_eq!(
            original, replayed,
            "{kind:?}: restored machine must measure bit-identically"
        );
    }
}

#[test]
fn neutral_warmup_restores_into_any_prefetcher_column() {
    // The campaign executor warms once with the null prefetcher and forks
    // the checkpoint across columns; every registry prefetcher must accept
    // that foreign-tagged checkpoint (keeping its own predictor fresh).
    let workload = &category_suite(WorkloadCategory::Cloud)[0];
    let config = SystemConfig::single_thread();
    let warm = warmup_checkpoint(Box::new(workload.source(20_000)), &config, &plan())
        .expect("neutral warm-up captures");
    for kind in PrefetcherKind::ALL {
        let mut machine = SimulationBuilder::new(config.clone())
            .with_core(workload.source(20_000), kind.build_any())
            .into_machine();
        machine
            .restore(&warm)
            .unwrap_or_else(|e| panic!("{kind:?}: foreign-tag restore failed: {e}"));
        let interval = machine.run_interval(1_000);
        assert!(
            interval.cores[0].l1.demand_hits + interval.cores[0].l1.demand_misses > 0,
            "{kind:?}: restored machine must actually measure"
        );
    }
}

#[test]
fn sampled_confidence_intervals_cover_exact_ipc() {
    let config = SystemConfig::single_thread();
    let matrix = [
        (WorkloadCategory::Cloud, PrefetcherKind::Spp),
        (WorkloadCategory::Cloud, PrefetcherKind::DspatchPlusSpp),
        (WorkloadCategory::Ispec17, PrefetcherKind::DspatchPlusSpp),
        (WorkloadCategory::Server, PrefetcherKind::Bop),
    ];
    for (category, kind) in matrix {
        let workload = &category_suite(category)[0];
        let exact_scale = RunScale {
            sampling: None,
            ..scale()
        };
        let exact = run_workload(workload, kind, &config, &exact_scale);
        let exact_ipc = exact.cores[0].ipc();

        let sampled = run_sampled_workload(workload, kind.build_any(), &config, &scale(), None)
            .expect("plan fits the workload");
        let stats = sampled.sampling.expect("sampled result carries stats");
        assert!(
            stats.ipc.covers(exact_ipc),
            "{}/{kind:?}: sampled IPC {} ± {} must cover exact {exact_ipc}",
            workload.name,
            stats.ipc.mean,
            stats.ipc.ci95,
        );
        // The estimate is also *useful*: the half-width stays within 50% of
        // the mean for these pinned seeds (an estimator regression that
        // blows up the variance fails here even if coverage holds).
        assert!(
            stats.ipc.ci95 <= stats.ipc.mean * 0.5,
            "{}/{kind:?}: CI half-width {} too wide for mean {}",
            workload.name,
            stats.ipc.ci95,
            stats.ipc.mean,
        );
    }
}
