//! Trace replay: export a workload as an on-disk trace, then stream it back
//! through the simulator — the external-trace workflow behind
//! `dspatch-lab --trace-file`, shown as a library API.
//!
//! The file streams into the machine through the pull-based `TraceSource`
//! layer: resident memory is the read buffer, not the trace, so the same
//! code replays billion-access captures. Run with
//! `cargo run --release --example trace_replay`.

use dspatch_harness::runner::PrefetcherKind;
use dspatch_sim::{SimulationBuilder, SystemConfig};
use dspatch_trace::io::{open_trace_source, save_trace};
use dspatch_trace::suite;

fn main() {
    let accesses = dspatch_repro::example_accesses(40_000);

    // Pretend "cassandra-read" is an externally captured trace: write it to
    // disk in the native binary format. (A ChampSim-style text file would
    // work identically — `open_trace_source` sniffs the format.)
    let workload = suite()
        .into_iter()
        .find(|w| w.name == "cassandra-read")
        .expect("suite workload");
    let path = std::env::temp_dir().join(format!("dspatch_replay_{}.dspt", std::process::id()));
    save_trace(&workload.generate(accesses), &path).expect("write trace file");

    // Open it once, then fork the source per run: each simulation streams
    // the file independently from record zero.
    let source = open_trace_source(&path).expect("open trace file");
    let meta = source.meta();
    println!(
        "replaying '{}' from {} ({} accesses)\n",
        meta.name,
        path.display(),
        meta.accesses.value()
    );

    let run = |kind: PrefetcherKind| {
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(source.fork(), kind.build_any())
            .run()
    };
    let baseline = run(PrefetcherKind::Baseline);
    for kind in [
        PrefetcherKind::Spp,
        PrefetcherKind::Dspatch,
        PrefetcherKind::DspatchPlusSpp,
    ] {
        let result = run(kind);
        println!(
            "{:12} IPC {:.3}  speedup {:.4}x",
            kind.label(),
            result.cores[0].ipc(),
            result.speedup_over(&baseline)
        );
    }
    std::fs::remove_file(&path).ok();
}
