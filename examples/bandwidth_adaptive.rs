//! Show DSPatch's bandwidth adaptivity: the same workload simulated across
//! the paper's six DRAM configurations (Figure 15 at reduced scale).
//!
//! Run with `cargo run --release --example bandwidth_adaptive`.

use dspatch_harness::runner::{perf_delta, PrefetcherKind, RunScale};
use dspatch_repro::example_accesses;
use dspatch_sim::{DramConfig, SystemConfig};
use dspatch_trace::workloads::memory_intensive_suite;

fn main() {
    let scale = RunScale {
        accesses_per_workload: example_accesses(8_000),
        workloads_per_category: 1,
        mixes: 1,
        threads: 8,
        sampling: None,
    };
    let workloads = scale.select_workloads(memory_intensive_suite());
    println!("{} memory-intensive workloads per point\n", workloads.len());
    println!(
        "{:<10} {:>10} {:>12} {:>14}",
        "DRAM", "peak GB/s", "SPP", "DSPatch+SPP"
    );
    for (channels, speed) in SystemConfig::bandwidth_sweep() {
        let config = SystemConfig::single_thread().with_dram(channels, speed);
        let dram = DramConfig::with_speed(channels, speed);
        let spp = perf_delta(&workloads, PrefetcherKind::Spp, &config, &scale);
        let dsp = perf_delta(&workloads, PrefetcherKind::DspatchPlusSpp, &config, &scale);
        println!(
            "{:<10} {:>10.1} {:>11.1}% {:>13.1}%",
            dram.label(),
            dram.peak_bandwidth_gbps(),
            spp * 100.0,
            dsp * 100.0
        );
    }
}
