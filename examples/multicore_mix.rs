//! Four-core multi-programmed run: a heterogeneous mix of memory-intensive
//! workloads sharing the LLC and two DDR4-2133 channels (Figure 17/18 at
//! reduced scale).
//!
//! Run with `cargo run --release --example multicore_mix`.

use dspatch_harness::runner::{run_mix, PrefetcherKind, RunScale};
use dspatch_repro::example_accesses;
use dspatch_sim::SystemConfig;
use dspatch_trace::heterogeneous_mixes;

fn main() {
    let scale = RunScale {
        accesses_per_workload: example_accesses(8_000),
        workloads_per_category: 0,
        mixes: 1,
        threads: 1,
        sampling: None,
    };
    let mix = &heterogeneous_mixes(1, 4, 42)[0];
    let config = SystemConfig::multi_programmed();
    println!("mix: {}", mix.name);
    for (i, w) in mix.workloads.iter().enumerate() {
        println!("  core {i}: {} ({})", w.name, w.category);
    }
    println!();

    let baseline = run_mix(mix, PrefetcherKind::Baseline, &config, &scale);
    for kind in [
        PrefetcherKind::Baseline,
        PrefetcherKind::Spp,
        PrefetcherKind::DspatchPlusSpp,
    ] {
        let result = run_mix(mix, kind, &config, &scale);
        let ipcs: Vec<String> = result
            .cores
            .iter()
            .map(|c| format!("{:.2}", c.ipc()))
            .collect();
        println!(
            "{:<14} per-core IPC [{}]  delta over baseline {:+.1}%  avg DRAM utilization {:.0}%",
            kind.label(),
            ipcs.join(", "),
            (result.speedup_over(&baseline) - 1.0) * 100.0,
            result.dram.average_utilization() * 100.0,
        );
    }
}
