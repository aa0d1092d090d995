//! Shared helpers for the per-figure Criterion benchmark targets.
//!
//! Every bench target in `benches/` regenerates one table or figure of the
//! paper at a reduced [`RunScale`] through the named-figure registry
//! ([`figures::FigureId`], which routes through the shared campaign engine)
//! and then registers a Criterion measurement of the experiment's core unit
//! of work, so `cargo bench` both reproduces the evaluation data and tracks
//! the simulator's performance over time.

pub use dspatch_harness::runner::{PrefetcherKind, RunScale};
pub use dspatch_harness::{experiments, figures, runner, Table};

// Bench targets that post-process snapshot documents go through the same
// unified result layer as the rest of the workspace: `throughput_rows`
// flattens a `BENCH_sim_throughput.json` document, `host_cpus` is the
// per-host stamp every snapshot records, and the analytics engine turns
// either into queryable columns (see `perf::regression_gate` for the
// committed-vs-measured trend the CI gate runs).
pub use dspatch_harness::analytics::{self, ColumnarView, Query};
pub use dspatch_harness::perf::{host_cpus, throughput_rows};

/// The scale used by the benchmark targets: one workload per category and
/// short traces, so the full set of figures regenerates in minutes. Worker
/// threads follow the machine (`available_parallelism`).
pub fn bench_scale() -> RunScale {
    RunScale {
        accesses_per_workload: 4_000,
        workloads_per_category: 1,
        mixes: 2,
        threads: dspatch_harness::runner::default_threads(),
        sampling: None,
    }
}

/// A smaller scale used for the Criterion-measured unit of work.
pub fn measured_scale() -> RunScale {
    RunScale {
        accesses_per_workload: 1_500,
        workloads_per_category: 1,
        mixes: 1,
        threads: 1,
        sampling: None,
    }
}
