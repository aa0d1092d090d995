//! Compare DSPatch, SPP and DSPatch+SPP on one Cloud-style workload running
//! on the full simulated memory hierarchy.
//!
//! Run with `cargo run --release --example spatial_scan`.

use dspatch_harness::runner::{run_workload, PrefetcherKind, RunScale};
use dspatch_repro::example_accesses;
use dspatch_sim::SystemConfig;
use dspatch_trace::workloads::{category_suite, WorkloadCategory};

fn main() {
    let scale = RunScale {
        accesses_per_workload: example_accesses(20_000),
        workloads_per_category: 1,
        mixes: 1,
        threads: 1,
        sampling: None,
    };
    let workload = &category_suite(WorkloadCategory::Cloud)[0];
    let config = SystemConfig::single_thread();
    println!("workload: {} ({})\n", workload.name, workload.category);

    let baseline = run_workload(workload, PrefetcherKind::Baseline, &config, &scale);
    println!(
        "{:<14} ipc {:.3}  (coverage –, DRAM CAS {})",
        "baseline",
        baseline.cores[0].ipc(),
        baseline.dram.cas_commands
    );
    for kind in [
        PrefetcherKind::Spp,
        PrefetcherKind::Dspatch,
        PrefetcherKind::DspatchPlusSpp,
    ] {
        let result = run_workload(workload, kind, &config, &scale);
        let acc = result.total_accounting();
        println!(
            "{:<14} ipc {:.3}  speedup {:+.1}%  coverage {:.0}%  accuracy {:.0}%  DRAM CAS {}",
            kind.label(),
            result.cores[0].ipc(),
            (result.speedup_over(&baseline) - 1.0) * 100.0,
            acc.coverage() * 100.0,
            acc.accuracy() * 100.0,
            result.dram.cas_commands,
        );
    }
}
