//! `mc_campaign`: the campaign executor with two workers and a fresh result
//! store over the fig17/fig18 grid (homogeneous and seeded heterogeneous
//! 4-core mixes × Baseline, SPP, DSPatch+SPP, BOP, SMS), then the same spec
//! replayed against the now-full store.

use crate::layers;
use crate::report::{model_counts, Report};
use crate::util::{derive, median, ms_since, percentile, Tracer};
use crate::Size;
use dspatch_harness::campaign::{
    run_campaign_with, CampaignResult, CampaignSpec, ExecOptions, ProgressEvent, ProgressSink,
};
use dspatch_harness::{ResultStore, RunScale};
use dspatch_sim::SystemConfig;
use dspatch_trace::{heterogeneous_mixes, ChainSource, TraceSource};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

const COLUMNS: &str = r#"["baseline", "spp", "dspatch_plus_spp", "bop", "sms"]"#;
const THREADS: usize = 2;
/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 20;

/// The heterogeneous mix draw seed, below 2^53 so the spec carries it as a
/// plain JSON number.
fn mix_seed(seed: u64) -> u64 {
    derive(seed, 1) >> 12
}

fn spec_text(seed: u64, size: &Size) -> String {
    let cell = |label: &str, targets: String| {
        format!(
            r#"{{"label": "{label}", "targets": {targets}, "prefetchers": {COLUMNS},
               "config": {{"base": "multi_programmed"}}, "baseline": true}}"#
        )
    };
    let mix_seed = mix_seed(seed);
    format!(
        r#"{{"name": "perfbench-mc",
            "scale": {{"accesses_per_workload": {}, "workloads_per_category": 0,
                       "mixes": {}, "threads": {THREADS}}},
            "cells": [{}, {}]}}"#,
        size.mc_accesses,
        size.mc_mixes,
        cell(
            "homogeneous",
            r#"{"homogeneous_mixes": {"cores": 4}}"#.to_owned()
        ),
        cell(
            "heterogeneous",
            format!(
                r#"{{"heterogeneous_mixes": {{"count": {}, "cores": 4, "seed": {mix_seed}}}}}"#,
                size.mc_mixes
            )
        ),
    )
}

/// Everything one run needs before its first simulation: the parsed spec,
/// its resolved scale and a fresh, open result store.
struct Setup {
    spec: CampaignSpec,
    scale: RunScale,
    store: Arc<Mutex<ResultStore>>,
}

fn set_up(text: &str, dir: &Path) -> Setup {
    let spec = CampaignSpec::parse(text).expect("benchmark campaign spec parses");
    let scale = spec
        .scale
        .as_ref()
        .expect("spec embeds its scale")
        .resolve()
        .expect("spec scale resolves");
    let store = ResultStore::open(dir).expect("fresh result store opens");
    Setup {
        spec,
        scale,
        store: Arc::new(Mutex::new(store)),
    }
}

/// Per-cell wall times, attributed from the progress sink: the executor
/// calls it on the worker thread that finished the cell, and a worker
/// claims its next cell as soon as it reports, so a cell's time runs from
/// its worker's previous report (or the campaign start) to its own.
#[derive(Default)]
struct CellClock {
    last: HashMap<ThreadId, Instant>,
    cells: Vec<(bool, f64)>,
}

fn run_fresh(
    setup: &Setup,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> (CampaignResult, f64, Vec<(bool, f64)>) {
    let clock = Arc::new(Mutex::new(CellClock::default()));
    let start = Instant::now();
    let sink = clock.clone();
    let progress: ProgressSink = Arc::new(move |event: &ProgressEvent| {
        if let ProgressEvent::CellFinished { prefetcher, .. } = event {
            let now = Instant::now();
            let mut clock = sink.lock().expect("cell clock lock");
            let began = clock.last.insert(std::thread::current().id(), now);
            let ms = now.duration_since(began.unwrap_or(start)).as_secs_f64() * 1e3;
            clock.cells.push((prefetcher == "Baseline", ms));
        }
    });
    let opts = ExecOptions {
        store: Some(setup.store.clone()),
        progress: Some(progress),
        ..ExecOptions::default()
    };
    let span = tracer.open("campaign.run_campaign_with", parent);
    let result = run_campaign_with(&setup.spec, &setup.scale, &opts).expect("campaign runs");
    let wall_s = start.elapsed().as_secs_f64();
    tracer.close(span, result.stats.sims_run as u64);
    let cells = std::mem::take(&mut clock.lock().expect("cell clock lock").cells);
    (result, wall_s, cells)
}

/// Replays the spec against the full store: returns the rendered result and
/// the replay's wall time in ms.
fn replay(setup: &Setup) -> (CampaignResult, f64) {
    let opts = ExecOptions {
        store: Some(setup.store.clone()),
        ..ExecOptions::default()
    };
    let start = Instant::now();
    let result = run_campaign_with(&setup.spec, &setup.scale, &opts).expect("replay runs");
    (result, ms_since(start))
}

/// Checks a fresh campaign and its store-served replay; returns the
/// rendered result and the replay's wall time in ms.
fn check_campaign(
    report: &mut Report,
    setup: &Setup,
    fresh: &CampaignResult,
    expected_rows: usize,
) -> (String, f64) {
    report.check("mc.no_quarantined_cell", fresh.failures.is_empty());
    report.check("mc.row_count", fresh.rows.len() == expected_rows);
    let rendered = fresh.to_json().render();
    let (replayed, replay_ms) = replay(setup);
    report.check(
        "mc.replay_bytes_equal",
        replayed.to_json().render() == rendered,
    );
    report.check(
        "mc.replay_served_from_store",
        replayed.stats.store_hits == fresh.stats.sims_run && replayed.failures.is_empty(),
    );
    (rendered, replay_ms)
}

pub fn run(seed: u64, seconds: f64, traced: bool, size: &Size, work: &Path) -> Report {
    let mut report = Report::new();
    let text = spec_text(seed, size);
    let mut setup_s = Vec::new();
    let setups: Vec<Setup> = (0..SETUPS)
        .map(|i| {
            let start = Instant::now();
            let setup = set_up(&text, &work.join(format!("store-{i}")));
            setup_s.push(start.elapsed().as_secs_f64());
            setup
        })
        .collect();
    report.metric("setup_s", &setup_s);
    // Both selectors are capped at `mc_mixes` targets; five columns each.
    let expected_rows = 2 * size.mc_mixes * 5;
    let accesses_per_sim = 4.0 * size.mc_accesses as f64;

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    let mut replay_ms = Vec::new();
    let mut cell_ms = Vec::new();
    let mut first: Option<(String, CampaignResult)> = None;
    let mut peak_rss = None;
    for setup in &setups {
        let rep_start = Instant::now();
        let (fresh, wall_s, cells) = run_fresh(setup, &mut Tracer::new(false), None);
        cell_ms.extend(cells.iter().map(|c| c.1));
        report.attempted += (fresh.stats.sims_run + fresh.failures.len()) as u64;
        report.failed += fresh.failures.len() as u64;
        rates.push(fresh.stats.sims_run as f64 * accesses_per_sim / wall_s);
        let (rendered, ms) = check_campaign(&mut report, setup, &fresh, expected_rows);
        replay_ms.push(ms);
        match &first {
            Some((reference, _)) => {
                report.check("mc.deterministic_across_reps", *reference == rendered)
            }
            None => first = Some((rendered, fresh)),
        }
        // Peak memory of one campaign: later campaigns run on new worker
        // threads whose allocator arenas add up with the run's length.
        peak_rss.get_or_insert_with(crate::util::peak_rss_mib);
        // Start another campaign only if it can finish by the deadline.
        if traced || Instant::now() + rep_start.elapsed() > deadline {
            break;
        }
    }
    let (_, result) = first.expect("one campaign ran");
    report.model = model_counts(&result.sims.iter().collect::<Vec<_>>());

    if !traced {
        report.metric("sim_accesses_per_s", &rates);
        // A campaign's unit of answer is a cell: the serve layer streams
        // each one to the requester as it finishes.
        report.value("query_p50_ms", median(&cell_ms));
        report.value("query_p90_ms", percentile(&cell_ms, 90.0));
        report.samples("cell_ms", &cell_ms);
        report.samples("store_replay_ms", &replay_ms);
        report.metric("peak_rss_mib", &[peak_rss.expect("one campaign ran")]);
        return report;
    }

    // Traced: a second fresh campaign under a span, on its own fresh store.
    let mut tracer = Tracer::new(true);
    let traced_setup = set_up(&text, &work.join("store-traced"));
    let root = tracer.open("mc_campaign", None);
    let (fresh, wall_s, cells) = run_fresh(&traced_setup, &mut tracer, root);
    let untraced_wall = fresh.stats.sims_run as f64 * accesses_per_sim / rates[0];
    report.value("tracing.overhead_frac", wall_s / untraced_wall);
    let cell_ms: Vec<f64> = cells.iter().map(|c| c.1).collect();
    let baseline_ms: Vec<f64> = cells.iter().filter(|c| c.0).map(|c| c.1).collect();
    report.value("campaign.cell_ms_p50", median(&cell_ms));
    report.value("campaign.baseline_cell_ms_p50", median(&baseline_ms));
    report.value(
        "campaign.cell_ms_max",
        cell_ms.iter().copied().fold(0.0, f64::max),
    );
    report.value(
        "campaign.worker_utilization",
        cell_ms.iter().sum::<f64>() / (THREADS as f64 * wall_s * 1e3),
    );
    report.value("campaign.sims_run", fresh.stats.sims_run as f64);
    report.value("campaign.memo_hits", fresh.stats.memo_hits as f64);
    report.value("campaign.quarantined", fresh.stats.quarantined as f64);
    let (_, store_replay) = tracer.span("campaign.store_replay", root, 0, || replay(&traced_setup));
    report.value("campaign.store_replay_ms", store_replay / 1e6);

    // Store layer: the campaign's rows replayed into a fresh store, which is
    // then reopened.
    let rows: Vec<_> = traced_setup
        .store
        .lock()
        .expect("store lock")
        .rows()
        .cloned()
        .collect();
    let dir = work.join("store-rows");
    let mut store = ResultStore::open(&dir).expect("row store opens");
    let (_, insert_ns) = tracer.span("store.insert", root, rows.len() as u64, || {
        for row in &rows {
            store.insert(row).expect("row insert");
        }
    });
    drop(store);
    report.value("store.insert_us", insert_ns / rows.len() as f64 / 1e3);
    let (reopened, open_ns) = tracer.span("store.open", root, rows.len() as u64, || {
        ResultStore::open(&dir)
    });
    report.check(
        "mc.store_reopens_with_every_row",
        reopened.map(|s| s.len()).ok() == Some(rows.len()),
    );
    report.value("store.open_ms", open_ns / 1e6);

    // Simulator layers on the first heterogeneous mix's four workloads, run
    // back to back on one core of the multi-programmed configuration.
    let mix = heterogeneous_mixes(size.mc_mixes, 4, mix_seed(seed))
        .into_iter()
        .next()
        .expect("at least one heterogeneous mix");
    let accesses = size.mc_accesses;
    let make_source = move || -> Box<dyn TraceSource> {
        Box::new(ChainSource::new(
            "mc-mix",
            mix.workloads
                .iter()
                .map(|w| Box::new(w.source(accesses)) as Box<dyn TraceSource>)
                .collect(),
        ))
    };
    let profile = layers::profile(
        &make_source,
        &SystemConfig::multi_programmed(),
        &mut tracer,
        root,
    );
    for (name, value) in profile.metrics {
        report.value(name, value);
    }
    tracer.close(root, 0);
    report.spans = Some(tracer.to_json());
    report.exercised = vec![
        "campaign",
        "store",
        "sim",
        "trace",
        "prefetcher",
        "cache",
        "dram",
        "fill_queue",
        "tracing",
    ];
    report
}
