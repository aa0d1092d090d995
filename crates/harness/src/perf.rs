//! Fixed-scenario simulator-throughput measurement.
//!
//! The paper's evaluation simulates hundreds of millions of accesses, so the
//! simulator's own throughput — not model fidelity — bounds how many
//! scenarios a given machine can sweep. This module pins down three fixed,
//! deterministic scenarios and measures how fast the simulator retires them,
//! in simulated accesses per wall-clock second and simulated cycles per
//! wall-clock second:
//!
//! * `baseline_single_thread` — one core with the paper's baseline
//!   configuration (L1 PC-stride prefetcher, no L2 prefetcher). Every figure
//!   runs this configuration once per workload for speedup normalization, so
//!   it gates roughly half of all experiment wall-clock.
//! * `dspatch_spp_single_thread` — the same trace with the headline
//!   DSPatch+SPP prefetcher, adding the full train-predict-issue-fill load.
//! * `four_core` — a 4-core multi-programmed mix (DSPatch+SPP per core)
//!   sharing LLC and DRAM.
//!
//! The `perf_snapshot` binary wraps [`run_snapshot`] and writes the result to
//! `BENCH_sim_throughput.json`, populating the repository's performance
//! trajectory. Numbers are comparable only within one machine/build
//! environment; the JSON exists to catch *relative* regressions over time.

use crate::json::Json;
use crate::runner::PrefetcherKind;
use dspatch_prefetchers::AnyPrefetcher;
use dspatch_sim::{SimulationBuilder, SystemConfig};
use dspatch_trace::{
    ChainSource, GeneratorSpec, IntoTraceSource, PatternGenerator, PointerChaseGen,
    SpatialPatternGen, StreamGen, SynthSource, Trace, TraceSource,
};
use std::time::Instant;

/// Throughput measured for one scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioThroughput {
    /// Simulated memory accesses (trace records) retired.
    pub accesses: u64,
    /// Simulated core cycles the run covered.
    pub cycles: u64,
    /// Wall-clock seconds the simulation took.
    pub wall_seconds: f64,
}

impl ScenarioThroughput {
    /// Simulated accesses per wall-clock second.
    pub fn accesses_per_sec(&self) -> f64 {
        self.accesses as f64 / self.wall_seconds.max(1e-9)
    }

    /// Simulated cycles per wall-clock second.
    pub fn cycles_per_sec(&self) -> f64 {
        self.cycles as f64 / self.wall_seconds.max(1e-9)
    }
}

/// Host logical CPU count ([`std::thread::available_parallelism`]),
/// recorded in every snapshot document so cross-host comparisons are
/// visible instead of silently wrong.
pub fn host_cpus() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// The result of one snapshot run: the four fixed headline scenarios plus
/// one single-thread row per registry prefetcher.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotReport {
    /// Logical CPUs of the measuring host ([`host_cpus`]).
    pub host_cpus: u64,
    /// One core, baseline configuration (no L2 prefetcher).
    pub baseline_single_thread: ScenarioThroughput,
    /// One core running DSPatch+SPP over a **materialized** trace.
    pub dspatch_spp_single_thread: ScenarioThroughput,
    /// The same workload and prefetcher as `dspatch_spp_single_thread`, fed
    /// through the **streaming** `TraceSource` path (records generated
    /// lazily, O(1) trace memory). Comparing the two rows prices the
    /// streaming layer directly: same records, same machine, different
    /// delivery.
    pub streaming_single_thread: ScenarioThroughput,
    /// The DSPatch+SPP single-thread scenario under **interval sampling**
    /// (2% functional warm-up, ten 0.2% measured intervals, gaps skipped
    /// at trace speed). `accesses`
    /// counts the whole trace — fast-forwarded records included — so
    /// `accesses_per_sec` is the *effective* rate sampling buys: the same
    /// workload coverage per wall-clock second a user of `--sample` sees,
    /// not the detailed-simulation rate.
    pub sampled_single_thread: ScenarioThroughput,
    /// Four cores (DSPatch+SPP each) sharing LLC and DRAM.
    pub four_core: ScenarioThroughput,
    /// One single-thread row per registry prefetcher (same trace and
    /// machine as the headline rows), keyed by
    /// [`PrefetcherKind::spec_name`]. This is what attributes throughput
    /// wins and regressions to individual prefetchers rather than to the
    /// machine model.
    pub per_prefetcher: Vec<(&'static str, ScenarioThroughput)>,
}

impl SnapshotReport {
    /// Renders the report as the `BENCH_sim_throughput.json` document,
    /// through the workspace's single JSON emitter ([`crate::json`]).
    pub fn to_json(&self) -> String {
        fn scenario(s: &ScenarioThroughput) -> Json {
            let round = crate::json::rounded;
            Json::obj([
                ("accesses", Json::num(s.accesses as f64)),
                ("cycles", Json::num(s.cycles as f64)),
                ("wall_seconds", Json::num(round(s.wall_seconds, 1e6))),
                (
                    "accesses_per_sec",
                    Json::num(round(s.accesses_per_sec(), 10.0)),
                ),
                ("cycles_per_sec", Json::num(round(s.cycles_per_sec(), 10.0))),
            ])
        }
        Json::obj([
            ("benchmark", Json::str("sim_throughput")),
            ("host_cpus", Json::num(self.host_cpus as f64)),
            (
                "baseline_single_thread",
                scenario(&self.baseline_single_thread),
            ),
            (
                "dspatch_spp_single_thread",
                scenario(&self.dspatch_spp_single_thread),
            ),
            (
                "streaming_single_thread",
                scenario(&self.streaming_single_thread),
            ),
            (
                "sampled_single_thread",
                scenario(&self.sampled_single_thread),
            ),
            ("four_core", scenario(&self.four_core)),
            (
                "per_prefetcher",
                Json::obj(
                    self.per_prefetcher
                        .iter()
                        .map(|(name, s)| (*name, scenario(s))),
                ),
            ),
        ])
        .render()
    }

    /// One-line human-readable summary.
    pub fn summary(&self) -> String {
        let mut line = format!(
            "baseline 1T: {:.0} acc/s ({:.2} Mcyc/s) | DSPatch+SPP 1T: {:.0} acc/s ({:.2} Mcyc/s) | streaming 1T: {:.0} acc/s ({:.2} Mcyc/s) | 4-core: {:.0} acc/s ({:.2} Mcyc/s)",
            self.baseline_single_thread.accesses_per_sec(),
            self.baseline_single_thread.cycles_per_sec() / 1e6,
            self.dspatch_spp_single_thread.accesses_per_sec(),
            self.dspatch_spp_single_thread.cycles_per_sec() / 1e6,
            self.streaming_single_thread.accesses_per_sec(),
            self.streaming_single_thread.cycles_per_sec() / 1e6,
            self.four_core.accesses_per_sec(),
            self.four_core.cycles_per_sec() / 1e6,
        );
        line.push_str(&format!(
            " | sampled 1T: {:.0} eff acc/s",
            self.sampled_single_thread.accesses_per_sec()
        ));
        line
    }
}

/// The fixed single-thread snapshot trace: a deterministic blend of
/// streaming, sparse-spatial and pointer-chasing access behaviour so the
/// run exercises every level of the hierarchy, the DRAM model and both
/// prefetcher hook points. Gap values (non-memory instructions per access)
/// match the canonical workload suite in `dspatch-trace` (36–48), so the
/// snapshot's compute-to-memory ratio is representative of the figures'
/// experiments rather than an artificially access-dense stress test.
pub fn snapshot_single_trace(accesses: usize) -> Trace {
    dspatch_trace::collect_source(&mut snapshot_single_source(accesses))
}

/// The streaming form of [`snapshot_single_trace`] — which is defined as
/// this source collected, so the two agree bit for bit and the phase knobs
/// live in exactly one place. Feeding this to the simulator prices the
/// streaming layer against the materialized path.
pub fn snapshot_single_source(accesses: usize) -> ChainSource {
    let third = accesses / 3;
    let phases: [(GeneratorSpec, u64, usize); 3] = [
        (
            GeneratorSpec::Stream(StreamGen {
                streams: 2,
                gap: 48,
                store_percent: 10,
            }),
            0xD5,
            third,
        ),
        (
            GeneratorSpec::Spatial(SpatialPatternGen {
                layouts: 8,
                density: 12,
                reorder_window: 4,
                working_set_pages: 1 << 16,
                gap: 40,
            }),
            0xD5 + 1,
            third,
        ),
        (
            GeneratorSpec::PointerChase(PointerChaseGen {
                nodes: 1 << 14,
                node_bytes: 192,
                gap: 36,
            }),
            0xD5 + 2,
            accesses - 2 * third,
        ),
    ];
    ChainSource::new(
        "perf-snapshot-single",
        phases
            .into_iter()
            .map(|(spec, seed, len)| {
                Box::new(SynthSource::new("phase", spec, seed, len)) as Box<dyn TraceSource>
            })
            .collect(),
    )
}

/// The four per-core traces of the fixed multi-programmed snapshot.
pub fn snapshot_multi_traces(accesses_per_core: usize) -> Vec<Trace> {
    (0..4u64)
        .map(|core| {
            Trace::new(
                format!("perf-snapshot-core{core}"),
                SpatialPatternGen {
                    layouts: 6,
                    density: 10,
                    reorder_window: 3,
                    working_set_pages: 1 << 17,
                    gap: 40,
                }
                .generate_records(0xC0DE + core, accesses_per_core),
            )
        })
        .collect()
}

fn measure(trace_count: u64, run: impl FnOnce() -> u64) -> ScenarioThroughput {
    let start = Instant::now();
    let cycles = run();
    let wall_seconds = start.elapsed().as_secs_f64();
    ScenarioThroughput {
        accesses: trace_count,
        cycles,
        wall_seconds,
    }
}

fn dspatch_plus_spp() -> AnyPrefetcher {
    PrefetcherKind::DspatchPlusSpp.build_any()
}

fn baseline() -> AnyPrefetcher {
    PrefetcherKind::Baseline.build_any()
}

fn run_single(
    source: impl IntoTraceSource,
    count: u64,
    prefetcher: impl Into<AnyPrefetcher>,
) -> ScenarioThroughput {
    measure(count, move || {
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(source, prefetcher)
            .run()
            .cycles
    })
}

/// Runs the baseline single-thread snapshot scenario once and times it.
pub fn run_baseline_snapshot(accesses: usize) -> ScenarioThroughput {
    run_single(snapshot_single_trace(accesses), accesses as u64, baseline())
}

/// Runs the DSPatch+SPP single-thread snapshot scenario once and times it.
pub fn run_single_thread_snapshot(accesses: usize) -> ScenarioThroughput {
    run_single(
        snapshot_single_trace(accesses),
        accesses as u64,
        dspatch_plus_spp(),
    )
}

/// Runs the streaming variant of the DSPatch+SPP single-thread scenario —
/// identical records delivered through the lazy `TraceSource` path — once
/// and times it.
pub fn run_streaming_snapshot(accesses: usize) -> ScenarioThroughput {
    run_single(
        snapshot_single_source(accesses),
        accesses as u64,
        dspatch_plus_spp(),
    )
}

/// The sampling plan behind the `sampled_single_thread` row: 2% of the
/// trace as functional warm-up (which also bounds each interval's re-warm),
/// then ten seed-placed intervals of 0.2% each — ~2% simulated in detail,
/// ~22% functionally warmed, the rest skipped at trace speed. These are
/// the ratios a real 100M+-access sampled campaign uses, so the row prices
/// the speedup `--sample` actually delivers.
pub fn snapshot_sampling_plan(accesses: usize) -> crate::sampling::SamplingPlan {
    crate::sampling::SamplingPlan {
        warmup_accesses: (accesses / 50).max(1) as u64,
        interval_accesses: (accesses / 500).max(1) as u64,
        intervals: 10,
        seed: 0xD5,
    }
}

/// Runs the sampled variant of the DSPatch+SPP single-thread scenario and
/// times it. `accesses` counts the whole trace (warm-up and fast-forward
/// included), so the row reports *effective* accesses per second.
pub fn run_sampled_snapshot(accesses: usize) -> ScenarioThroughput {
    let plan = snapshot_sampling_plan(accesses);
    measure(accesses as u64, move || {
        crate::sampling::run_sampled(
            Box::new(snapshot_single_source(accesses)),
            dspatch_plus_spp(),
            &SystemConfig::single_thread(),
            &plan,
            None,
        )
        .map(|sim| sim.cycles)
        .unwrap_or_else(|error| panic!("sampled snapshot scenario failed: {error}"))
    })
}

/// Runs the single-thread snapshot for one registry prefetcher kind.
pub fn run_prefetcher_snapshot(kind: PrefetcherKind, accesses: usize) -> ScenarioThroughput {
    run_single(
        snapshot_single_trace(accesses),
        accesses as u64,
        kind.build_any(),
    )
}

/// The registry line-up measured by the per-prefetcher rows: every
/// [`PrefetcherKind`] except the Figure 19 ablation variants (which share
/// DSPatch's code paths and add no attribution signal).
pub fn attribution_lineup() -> Vec<PrefetcherKind> {
    vec![
        PrefetcherKind::Baseline,
        PrefetcherKind::Streamer,
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
    ]
}

/// Runs the 4-core snapshot scenario once and times it.
pub fn run_four_core_snapshot(accesses_per_core: usize) -> ScenarioThroughput {
    let traces = snapshot_multi_traces(accesses_per_core);
    let count = traces.iter().map(|t| t.records.len() as u64).sum();
    measure(count, move || {
        let mut builder = SimulationBuilder::new(SystemConfig::multi_programmed());
        for trace in traces {
            builder = builder.with_core(trace, dspatch_plus_spp());
        }
        builder.run().cycles
    })
}

/// Runs all three snapshot scenarios. `repeats` > 1 keeps the best (lowest
/// wall-clock) run per scenario, damping scheduler noise.
pub fn run_snapshot(
    single_accesses: usize,
    per_core_accesses: usize,
    repeats: usize,
) -> SnapshotReport {
    let repeats = repeats.max(1);
    let best = |f: &dyn Fn() -> ScenarioThroughput| {
        (1..repeats).map(|_| f()).fold(f(), |best, next| {
            if next.wall_seconds < best.wall_seconds {
                next
            } else {
                best
            }
        })
    };
    let baseline_single_thread = best(&|| run_baseline_snapshot(single_accesses));
    let dspatch_spp_single_thread = best(&|| run_single_thread_snapshot(single_accesses));
    let per_prefetcher = attribution_lineup()
        .into_iter()
        .map(|kind| {
            // The Baseline and DSPatch+SPP attribution rows are the same
            // scenario as the headline rows — reuse those measurements
            // instead of re-running two best-of sets per snapshot.
            let throughput = match kind {
                PrefetcherKind::Baseline => baseline_single_thread,
                PrefetcherKind::DspatchPlusSpp => dspatch_spp_single_thread,
                _ => best(&|| run_prefetcher_snapshot(kind, single_accesses)),
            };
            (kind.spec_name(), throughput)
        })
        .collect();
    SnapshotReport {
        host_cpus: host_cpus(),
        baseline_single_thread,
        dspatch_spp_single_thread,
        streaming_single_thread: best(&|| run_streaming_snapshot(single_accesses)),
        sampled_single_thread: best(&|| run_sampled_snapshot(single_accesses)),
        four_core: best(&|| run_four_core_snapshot(per_core_accesses)),
        per_prefetcher,
    }
}

/// Flattens a snapshot JSON document into `(row name, accesses_per_sec)`
/// pairs — the headline scenarios plus the `per_prefetcher.*` sub-rows.
pub fn throughput_rows(doc: &Json) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let mut push = |name: String, row: &Json| {
        if let Some(rate) = row.get("accesses_per_sec").and_then(Json::as_f64) {
            out.push((name, rate));
        }
    };
    for name in [
        "baseline_single_thread",
        "dspatch_spp_single_thread",
        "streaming_single_thread",
        "sampled_single_thread",
        "four_core",
    ] {
        if let Some(row) = doc.get(name) {
            push(name.to_owned(), row);
        }
    }
    if let Some(Json::Obj(entries)) = doc.get("per_prefetcher") {
        for (name, row) in entries {
            push(format!("per_prefetcher.{name}"), row);
        }
    }
    out
}

/// One regressed row of the perf gate: baseline-normalized throughput in
/// the committed document vs the fresh measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Flattened row name (e.g. `per_prefetcher.spp`).
    pub row: String,
    /// Committed normalized throughput (x baseline).
    pub committed: f64,
    /// Measured normalized throughput (x baseline).
    pub measured: f64,
}

/// The `perf_snapshot --compare` regression gate, evaluated as a
/// **two-version trend through the analytics engine**: both documents'
/// rows are loaded into a [`crate::analytics::ColumnarView`] as a
/// `normalized_throughput` metric under the pseudo-versions `committed`
/// and `measured`, and a `trend` query groups them per row name. A row
/// regresses when its measured normalized throughput falls more than
/// `tolerance` below the committed value. Rows present in only one
/// document never gate.
///
/// Normalization divides each row by its own document's
/// `baseline_single_thread` rate, so the verdict compares machine-relative
/// cost, not absolute host speed. Returns `None` (gate skipped) when
/// either document lacks that baseline row.
pub fn regression_gate(measured: &Json, committed: &Json, tolerance: f64) -> Option<Vec<GateRow>> {
    use crate::analytics::{Agg, ColumnarView, Field, Query};

    let baseline_of = |doc: &Json| {
        doc.get("baseline_single_thread")
            .and_then(|b| b.get("accesses_per_sec"))
            .and_then(Json::as_f64)
            .filter(|&b| b > 0.0)
    };
    let measured_base = baseline_of(measured)?;
    let committed_base = baseline_of(committed)?;

    let mut entries: Vec<(String, String, f64)> = Vec::new();
    for (name, rate) in throughput_rows(committed) {
        entries.push((name, "committed".to_owned(), rate / committed_base));
    }
    for (name, rate) in throughput_rows(measured) {
        entries.push((name, "measured".to_owned(), rate / measured_base));
    }
    let view = ColumnarView::from_named_metric("normalized_throughput", &entries);
    let query = Query {
        group_by: vec![Field::Workload],
        agg: Some(Agg::Mean),
        metric: Some("normalized_throughput".to_owned()),
        trend: true,
        ..Query::default()
    };
    // The view carries the metric by construction, so this cannot fail;
    // degrade to "gate skipped" rather than panic if it ever does.
    let output = view.run(&query).ok()?;

    let mut by_row: std::collections::BTreeMap<String, (Option<f64>, Option<f64>)> =
        std::collections::BTreeMap::new();
    for row in &output.rows {
        let (Some(name), Some(version), Some(value)) = (
            row.first().and_then(Json::as_str),
            row.get(1).and_then(Json::as_str),
            row.get(2).and_then(Json::as_f64),
        ) else {
            continue;
        };
        let slot = by_row.entry(name.to_owned()).or_default();
        match version {
            "committed" => slot.0 = Some(value),
            _ => slot.1 = Some(value),
        }
    }
    Some(
        by_row
            .into_iter()
            .filter_map(|(row, slots)| match slots {
                (Some(committed), Some(measured)) if measured < committed * (1.0 - tolerance) => {
                    Some(GateRow {
                        row,
                        committed,
                        measured,
                    })
                }
                _ => None,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_traces_are_deterministic_and_sized() {
        let a = snapshot_single_trace(600);
        let b = snapshot_single_trace(600);
        assert_eq!(a.records, b.records);
        assert_eq!(a.records.len(), 600);
        let multi = snapshot_multi_traces(300);
        assert_eq!(multi.len(), 4);
        assert!(multi.iter().all(|t| t.records.len() == 300));
    }

    #[test]
    fn streaming_snapshot_source_matches_the_materialized_trace() {
        let trace = snapshot_single_trace(601);
        let mut source = snapshot_single_source(601);
        assert_eq!(
            dspatch_trace::collect_source(&mut source).records,
            trace.records
        );
        use dspatch_trace::TraceSource;
        assert_eq!(source.meta().accesses.value(), 601);
    }

    #[test]
    fn snapshot_runs_and_reports_json() {
        let report = run_snapshot(400, 200, 1);
        assert_eq!(report.baseline_single_thread.accesses, 400);
        assert_eq!(report.dspatch_spp_single_thread.accesses, 400);
        assert_eq!(report.streaming_single_thread.accesses, 400);
        assert_eq!(report.sampled_single_thread.accesses, 400);
        assert!(report.sampled_single_thread.cycles > 0);
        assert!(
            report.sampled_single_thread.cycles < report.dspatch_spp_single_thread.cycles,
            "sampling must simulate fewer detailed cycles than the exact run"
        );
        assert_eq!(report.four_core.accesses, 800);
        assert!(report.dspatch_spp_single_thread.cycles > 0);
        // Same records, same machine: the streaming and materialized rows
        // must simulate the same number of cycles.
        assert_eq!(
            report.streaming_single_thread.cycles,
            report.dspatch_spp_single_thread.cycles
        );
        let json = report.to_json();
        assert!(json.contains("\"accesses_per_sec\""));
        assert!(json.contains("\"host_cpus\""));
        assert!(json.contains("\"baseline_single_thread\""));
        assert!(json.contains("\"streaming_single_thread\""));
        assert!(json.contains("\"sampled_single_thread\""));
        assert!(json.contains("\"four_core\""));
        let parsed = Json::parse(&json).expect("snapshot JSON is valid");
        assert_eq!(
            parsed
                .get("baseline_single_thread")
                .and_then(|s| s.get("accesses"))
                .and_then(Json::as_u64),
            Some(400)
        );
        assert!(!report.summary().is_empty());
        assert_eq!(report.host_cpus, host_cpus());
    }

    fn doc(baseline: f64, spp: f64) -> Json {
        let scenario = |rate: f64| {
            Json::obj([
                ("accesses", Json::num(1000.0)),
                ("accesses_per_sec", Json::num(rate)),
            ])
        };
        Json::obj([
            ("benchmark", Json::str("sim_throughput")),
            ("baseline_single_thread", scenario(baseline)),
            ("per_prefetcher", Json::obj([("spp", scenario(spp))])),
        ])
    }

    #[test]
    fn gate_passes_on_proportional_slowdown_and_fails_on_relative_one() {
        // Half the absolute speed, same ratio: a different machine, not a
        // regression — normalization must absorb it.
        let committed = doc(1000.0, 800.0);
        let slower_host = doc(500.0, 400.0);
        let verdict = regression_gate(&slower_host, &committed, 0.30).expect("gate runs");
        assert!(verdict.is_empty(), "{verdict:?}");

        // Same machine speed, SPP path 2x more expensive relative to
        // baseline: that is the regression the gate exists for.
        let regressed = doc(1000.0, 400.0);
        let verdict = regression_gate(&regressed, &committed, 0.30).expect("gate runs");
        assert_eq!(verdict.len(), 1);
        assert_eq!(verdict[0].row, "per_prefetcher.spp");
        assert_eq!(verdict[0].committed, 0.8);
        assert_eq!(verdict[0].measured, 0.4);

        // Within tolerance: no verdict.
        let mild = doc(1000.0, 700.0);
        assert!(regression_gate(&mild, &committed, 0.30)
            .expect("gate runs")
            .is_empty());
    }

    #[test]
    fn gate_skips_without_a_baseline_row_and_ignores_unshared_rows() {
        let committed = doc(1000.0, 800.0);
        let no_baseline = Json::obj([("benchmark", Json::str("sim_throughput"))]);
        assert!(regression_gate(&no_baseline, &committed, 0.30).is_none());

        // A row only the measured document has never gates.
        let measured = Json::obj([
            (
                "baseline_single_thread",
                doc(1000.0, 1.0)
                    .get("baseline_single_thread")
                    .cloned()
                    .unwrap(),
            ),
            (
                "per_prefetcher",
                Json::obj([("bop", Json::obj([("accesses_per_sec", Json::num(1.0))]))]),
            ),
        ]);
        assert!(regression_gate(&measured, &committed, 0.30)
            .expect("gate runs")
            .is_empty());
    }
}
