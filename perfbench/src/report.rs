//! The metric catalog, the per-run report and its two renderings: the
//! detailed record (every sample summary, the model counts, the checks)
//! and the one-line result the benchmark ends with.

use crate::util::{json_num, json_str, summarize, Summary};
use dspatch_sim::SimResult;

/// End-to-end metrics: every workload reports each of them on an untraced
/// run. Units match `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_accesses_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics of a traced run, with the end-to-end metric (and
/// workload) each is expected to move. A layer a workload does not run is
/// measured by a short probe of a workload that does (see `Report::probed`).
/// `serve_query` is not in `BENCHMARK.json`: its metrics are read from a
/// traced run's probe or from a run by hand.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    (
        "trace.ns_per_record",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "sim.functional_ns_per_access",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "sim.functional_baseline_ns_per_access",
        "ns",
        "sim_accesses_per_s on mc_campaign (Baseline columns)",
    ),
    (
        "sim.timing_ns_per_access",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "prefetcher.share",
        "ratio",
        "sim_accesses_per_s on uni_dspatch_spp",
    ),
    (
        "prefetcher.dspatch_plus_spp.ns_per_call",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "prefetcher.dspatch.ns_per_call",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp",
    ),
    (
        "prefetcher.spp.ns_per_call",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "prefetcher.dspatch_plus_spp.candidates_per_call",
        "count",
        "sim_accesses_per_s on uni_dspatch_spp",
    ),
    (
        "cache.l1.ns_per_probe",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "cache.l2.ns_per_probe",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "cache.llc.ns_per_probe",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp and mc_campaign",
    ),
    (
        "dram.ns_per_access",
        "ns",
        "sim_accesses_per_s on mc_campaign and uni_dspatch_spp",
    ),
    (
        "fill_queue.ns_per_op",
        "ns",
        "sim_accesses_per_s on mc_campaign and uni_dspatch_spp",
    ),
    (
        "sim.unattributed_ns_per_access",
        "ns",
        "sim_accesses_per_s on uni_dspatch_spp",
    ),
    (
        "campaign.cell_ms_p50",
        "ms",
        "sim_accesses_per_s on mc_campaign",
    ),
    (
        "campaign.baseline_cell_ms_p50",
        "ms",
        "sim_accesses_per_s on mc_campaign",
    ),
    (
        "campaign.cell_ms_max",
        "ms",
        "sim_accesses_per_s on mc_campaign",
    ),
    (
        "campaign.worker_utilization",
        "ratio",
        "sim_accesses_per_s on mc_campaign",
    ),
    (
        "campaign.sims_run",
        "count",
        "sim_accesses_per_s on mc_campaign",
    ),
    (
        "campaign.memo_hits",
        "count",
        "sim_accesses_per_s on mc_campaign",
    ),
    (
        "campaign.quarantined",
        "count",
        "sim_accesses_per_s on mc_campaign",
    ),
    (
        "campaign.store_replay_ms",
        "ms",
        "query_p50_ms on mc_campaign",
    ),
    ("store.insert_us", "us", "setup_s on serve_query"),
    ("store.open_ms", "ms", "setup_s on serve_query"),
    (
        "analytics.view_build_ms",
        "ms",
        "query_p50_ms and query_p90_ms on serve_query",
    ),
    ("analytics.run_ms", "ms", "query_p50_ms on serve_query"),
    ("analytics.render_ms", "ms", "query_p50_ms on serve_query"),
    ("http.overhead_ms", "ms", "query_p50_ms on serve_query"),
    (
        "serve.write_ms",
        "ms",
        "sim_accesses_per_s and query_p90_ms on serve_query",
    ),
    (
        "serve.non2xx",
        "count",
        "query_p90_ms on serve_query (and failed/attempted)",
    ),
    (
        "tracing.overhead_frac",
        "ratio",
        "none: traced over untraced end-to-end time",
    ),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .copied()
        .chain(PER_LAYER.iter().map(|&(n, u, _)| (n, u)))
        .find(|&(n, _)| n == name)
        .map_or_else(
            || panic!("metric '{name}' is not in the catalog"),
            |(_, u)| u,
        )
}

#[derive(Default)]
pub struct Report {
    /// Catalog metrics: name and summary of the samples behind the value.
    pub metrics: Vec<(&'static str, Summary)>,
    /// Extra sample series recorded for the detailed report only.
    pub series: Vec<(&'static str, Summary)>,
    /// `model.*` counts of the simulated machine (simulator workloads).
    pub model: Vec<(&'static str, f64)>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    /// Layer prefixes a traced run measured on its own workload.
    pub exercised: Vec<&'static str>,
    /// Per-layer metrics taken from a smoke-size probe, with the workload
    /// probed.
    pub probed: Vec<(&'static str, &'static str)>,
    /// The traced run's spans (JSON array).
    pub spans: Option<String>,
}

impl Report {
    pub fn new() -> Self {
        Self::default()
    }

    /// A catalog metric whose value is the median of `samples`.
    pub fn metric(&mut self, name: &'static str, samples: &[f64]) {
        unit_of(name);
        self.metrics.push((name, summarize(samples)));
    }

    pub fn value(&mut self, name: &'static str, value: f64) {
        self.metric(name, &[value]);
    }

    pub fn samples(&mut self, name: &'static str, samples: &[f64]) {
        self.series.push((name, summarize(samples)));
    }

    /// Records an output check. A failed check fails the run.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        let name = name.into();
        if let Some(existing) = self.checks.iter_mut().find(|(n, _)| *n == name) {
            existing.1 &= ok;
        } else {
            self.checks.push((name, ok));
        }
    }

    /// Takes from a probe run the per-layer metrics this report lacks, and
    /// its checks and operation counts.
    pub fn adopt_probe(&mut self, workload: &'static str, probe: Report) {
        for (name, summary) in probe.metrics {
            let per_layer = PER_LAYER.iter().any(|m| m.0 == name);
            if per_layer && self.value_of(name).is_none() {
                self.metrics.push((name, summary));
                self.probed.push((name, workload));
            }
        }
        for (name, ok) in probe.checks {
            self.check(format!("probe.{workload}.{name}"), ok);
        }
        self.attempted += probe.attempted;
        self.failed += probe.failed;
    }

    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    fn value_of(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s.median)
    }

    /// The names this run must report: every end-to-end metric untraced,
    /// every per-layer metric traced.
    fn expected_names(traced: bool) -> Vec<&'static str> {
        if traced {
            PER_LAYER.iter().map(|m| m.0).collect()
        } else {
            END_TO_END.iter().map(|m| m.0).collect()
        }
    }

    /// The final line: `correct`, `attempted`, `failed` and the metric
    /// values of this mode.
    pub fn result_line(&self, traced: bool) -> String {
        let metrics: Vec<String> = Self::expected_names(traced)
            .into_iter()
            .map(|name| {
                let value = self
                    .value_of(name)
                    .unwrap_or_else(|| panic!("metric '{name}' was not measured"));
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(value),
                    json_str(unit_of(name))
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detailed record: run identity, every summary with quartiles and
    /// sample count, model counts and checks.
    pub fn detail(&self, workload: &str, seed: u64, traced: bool, host_cpus: usize) -> String {
        let summary = |(name, s): &(&str, Summary)| {
            format!(
                "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
                json_str(name),
                json_num(s.median),
                json_num(s.q1),
                json_num(s.q3),
                s.n
            )
        };
        let list = |items: Vec<String>| items.join(", ");
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"host_cpus\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"error_rate\": {}, \
             \"metrics\": {{{}}}, \"series\": {{{}}}, \"model\": {{{}}}, \
             \"checks\": {{{}}}, \"exercised\": [{}], \"probed\": {{{}}}}}",
            json_str(workload),
            seed,
            u8::from(traced),
            host_cpus,
            self.correct(),
            self.attempted,
            self.failed,
            json_num(self.failed as f64 / self.attempted.max(1) as f64),
            list(self.metrics.iter().map(summary).collect()),
            list(self.series.iter().map(summary).collect()),
            list(
                self.model
                    .iter()
                    .map(|(n, v)| format!("{}: {}", json_str(n), json_num(*v)))
                    .collect()
            ),
            list(
                self.checks
                    .iter()
                    .map(|(n, ok)| format!("{}: {ok}", json_str(n)))
                    .collect()
            ),
            list(self.exercised.iter().map(|e| json_str(e)).collect()),
            list(
                self.probed
                    .iter()
                    .map(|(n, w)| format!("{}: {}", json_str(n), json_str(w)))
                    .collect()
            ),
        )
    }
}

/// The model's own counts over a set of simulation results, recorded
/// exactly so a speed-only change can show it left the model unchanged.
pub fn model_counts(results: &[&SimResult]) -> Vec<(&'static str, f64)> {
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let cores: Vec<_> = results.iter().flat_map(|r| r.cores.iter()).collect();
    let level = |pick: fn(&dspatch_sim::CoreResult) -> dspatch_sim::CacheStats| {
        let (misses, total) = cores.iter().fold((0, 0), |(m, t), core| {
            let stats = pick(core);
            (
                m + stats.demand_misses,
                t + stats.demand_misses + stats.demand_hits,
            )
        });
        ratio(misses, total)
    };
    let mut accounting = dspatch_sim::PrefetchAccounting::default();
    for result in results {
        accounting.merge(&result.total_accounting());
    }
    let llc = results.iter().fold((0, 0), |(m, t), r| {
        (
            m + r.llc.demand_misses,
            t + r.llc.demand_misses + r.llc.demand_hits,
        )
    });
    let rows = results.iter().fold((0, 0), |(h, t), r| {
        (h + r.dram.row_hits, t + r.dram.row_hits + r.dram.row_misses)
    });
    let count = results.len().max(1) as f64;
    vec![
        (
            "model.cycles",
            results.iter().map(|r| r.cycles as f64).sum(),
        ),
        (
            "model.ipc",
            cores.iter().map(|c| c.ipc()).sum::<f64>() / cores.len().max(1) as f64,
        ),
        ("model.l1_miss_ratio", level(|c| c.l1)),
        ("model.l2_miss_ratio", level(|c| c.l2)),
        ("model.llc_miss_ratio", ratio(llc.0, llc.1)),
        ("model.l2_coverage", accounting.coverage()),
        ("model.l2_accuracy", accounting.accuracy()),
        (
            "model.prefetches_issued",
            accounting.prefetches_issued as f64,
        ),
        ("model.dram_row_hit_rate", ratio(rows.0, rows.1)),
        (
            "model.dram_utilization",
            results
                .iter()
                .map(|r| r.dram.average_utilization())
                .sum::<f64>()
                / count,
        ),
    ]
}
