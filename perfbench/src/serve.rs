//! `serve_query`: in-process `dspatch-serve` with one HTTP thread over a
//! result store pre-populated with synthetic rows, driven by one
//! closed-loop client over loopback. A second connection occasionally
//! POSTs a unique one-cell campaign, which writes into the store while the
//! reads continue.

use crate::layers;
use crate::report::Report;
use crate::util::{derive, median, ms_since, percentile, Tracer};
use crate::Size;
use dspatch_harness::analytics::{render, QueryFormat};
use dspatch_harness::{ColumnarView, Json, PrefetcherKind, Query, ResultRow, ResultStore};
use dspatch_serve::{http_request, Campaign, Server, ServerConfig};
use dspatch_sim::{SimResult, SimulationBuilder, SystemConfig};
use dspatch_trace::{memory_intensive_suite, TraceSource, WorkloadSpec};
use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run (populate a store, start the server); `setup_s` is
/// their median and the last one serves the run.
const SETUPS: usize = 3;
/// One POST per this many reads.
const READS_PER_WRITE: usize = 10;
const VERSIONS: [&str; 3] = ["0.0.7", "0.0.8", "0.0.9"];
const PREFETCHERS: [PrefetcherKind; 5] = [
    PrefetcherKind::Baseline,
    PrefetcherKind::Spp,
    PrefetcherKind::DspatchPlusSpp,
    PrefetcherKind::Bop,
    PrefetcherKind::Sms,
];
/// Synthetic rows per synthetic workload: every prefetcher under every
/// code version (the three old ones and the current one).
const ROWS_PER_WORKLOAD: usize = (VERSIONS.len() + 1) * PREFETCHERS.len();
/// The `scale` field of every synthetic row; POSTed cells use other scales.
const SYNTHETIC_SCALE: u64 = 10_000;

/// The real workloads the synthetic rows are cloned from and the POSTed
/// campaigns simulate: drawn from the memory-intensive suite by seed.
fn workloads(seed: u64) -> Vec<WorkloadSpec> {
    let pool = memory_intensive_suite();
    (0..3)
        .map(|i| pool[(derive(seed, 20 + i) % pool.len() as u64) as usize].clone())
        .collect()
}

fn synthetic_name(seed: u64, index: usize) -> String {
    format!("synth-{:04x}-{index:03}", seed & 0xffff)
}

/// Rows cloned from a few real results, with varied identity: per
/// synthetic workload, every prefetcher (Baseline included) under every
/// code version.
fn synthetic_rows(seed: u64, size: &Size) -> Vec<ResultRow> {
    let real: Vec<Vec<SimResult>> = workloads(seed)
        .iter()
        .map(|workload| {
            PREFETCHERS
                .iter()
                .map(|kind| {
                    SimulationBuilder::new(SystemConfig::single_thread())
                        .with_core(workload.source(size.serve_real_accesses), kind.build_any())
                        .run()
                })
                .collect()
        })
        .collect();
    let versions: Vec<&str> = VERSIONS
        .iter()
        .copied()
        .chain([dspatch_harness::store::code_version()])
        .collect();
    let per_workload = ROWS_PER_WORKLOAD;
    let mut rows = Vec::with_capacity(size.serve_rows);
    for index in 0..size.serve_rows.div_ceil(per_workload) {
        let name = synthetic_name(seed, index);
        let source = &real[(derive(seed, 100 + index as u64) % real.len() as u64) as usize];
        for (v, version) in versions.iter().enumerate() {
            for (p, kind) in PREFETCHERS.iter().enumerate() {
                let id = (index * per_workload + v * PREFETCHERS.len() + p) as u64;
                let mut result = source[p].clone();
                // Spread IPCs (and so speedups) by up to ±10%.
                let scale = 0.9 + (derive(seed, 1 << 32 | id) % 2001) as f64 / 10_000.0;
                for core in &mut result.cores {
                    core.finish_cycle = (core.finish_cycle as f64 * scale) as u64;
                }
                result.cycles = (result.cycles as f64 * scale) as u64;
                let mut row = ResultRow::new(
                    format!("{:016x}", derive(seed, 1 << 33 | id)),
                    "perfbench-synthetic".to_owned(),
                    name.clone(),
                    kind.label().to_owned(),
                    "1T".to_owned(),
                    SYNTHETIC_SCALE,
                    String::new(),
                    result,
                );
                row.code_version = (*version).to_owned();
                rows.push(row);
            }
        }
    }
    rows
}

struct Started {
    server: Server,
    insert_us: f64,
}

fn set_up(seed: u64, size: &Size, dir: &Path) -> Started {
    let rows = synthetic_rows(seed, size);
    let mut store = ResultStore::open(dir).expect("store opens");
    let start = Instant::now();
    for row in &rows {
        store.insert(row).expect("row insert");
    }
    let insert_us = start.elapsed().as_secs_f64() * 1e6 / rows.len() as f64;
    drop(store);
    let config = ServerConfig {
        http_threads: 1,
        store_dir: dir.to_path_buf(),
        ..ServerConfig::default()
    };
    let server = Server::start(&config).expect("server starts");
    Started { server, insert_us }
}

fn stop(server: Server) {
    server.begin_drain();
    server.wait();
}

fn encode(params: &[(String, String)]) -> String {
    let escape = |text: &str| {
        text.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                    (b as char).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect::<String>()
    };
    params
        .iter()
        .map(|(k, v)| format!("{}={}", escape(k), escape(v)))
        .collect::<Vec<_>>()
        .join("&")
}

fn params(pairs: &[(&str, &str)]) -> Vec<(String, String)> {
    pairs
        .iter()
        .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
        .collect()
}

/// One read of the fixed mix.
struct Read {
    /// `/query` or `/results`.
    path: &'static str,
    params: Vec<(String, String)>,
}

impl Read {
    fn is_query(&self) -> bool {
        self.path == "/query"
    }

    fn is_count(&self) -> bool {
        self.is_query() && self.params.iter().any(|(k, v)| k == "agg" && v == "count")
    }

    /// What the server must answer, from a view of the same rows: the
    /// rendered `/query` body, or the `/results` match count.
    fn expected(&self, view: &ColumnarView) -> String {
        let query = Query::from_params(&self.params).expect("benchmark query parses");
        let output = view.run(&query).expect("benchmark query runs");
        if self.is_query() {
            render(&output, QueryFormat::Json)
        } else {
            output.rows.len().to_string()
        }
    }

    fn observed(&self, body: &[u8]) -> String {
        let text = String::from_utf8_lossy(body).into_owned();
        if self.is_query() {
            return text;
        }
        Json::parse(&text)
            .ok()
            .and_then(|json| json.get("matched").and_then(Json::as_u64))
            .map_or_else(|| "unparsable /results body".to_owned(), |n| n.to_string())
    }
}

/// The fixed read mix: group + geomean speedup, a selective filter (its
/// workload cycling through the synthetic ones), a trend, the `/results`
/// listing and a count.
fn read_mix(seed: u64, index: usize, size: &Size) -> Read {
    let workloads = size.serve_rows.div_ceil(ROWS_PER_WORKLOAD);
    let selective = synthetic_name(
        seed,
        (derive(seed, 200 + index as u64) as usize) % workloads,
    );
    match index % 5 {
        0 => Read {
            path: "/query",
            params: params(&[("group_by", "prefetcher"), ("agg", "geomean:speedup")]),
        },
        1 => Read {
            path: "/query",
            params: params(&[("where", &format!("workload={selective}"))]),
        },
        2 => Read {
            path: "/query",
            params: params(&[("trend", "speedup"), ("prefetcher", "DSPatch+SPP")]),
        },
        3 => Read {
            path: "/results",
            params: params(&[("prefetcher", "SPP")]),
        },
        _ => Read {
            path: "/query",
            params: params(&[("agg", "count")]),
        },
    }
}

/// The client's copy of the store contents, for checking every body
/// against the analytics engine run in-process on the same rows.
struct Mirror {
    rows: Vec<ResultRow>,
    view: ColumnarView,
}

impl Mirror {
    fn of(rows: Vec<ResultRow>) -> Self {
        let view = ColumnarView::from_rows(rows.clone());
        Self { rows, view }
    }

    /// The store's rows if they are not the mirrored ones.
    fn changed(&self, store: &Mutex<ResultStore>) -> Option<Vec<ResultRow>> {
        let store = store.lock().expect("store lock");
        (store.len() != self.rows.len()).then(|| store.rows().cloned().collect())
    }

    /// Catches up with rows appended between requests.
    fn refresh(&mut self, store: &Mutex<ResultStore>) {
        if let Some(rows) = self.changed(store) {
            *self = Mirror::of(rows);
        }
    }

    /// Whether `observed` is what the server may have answered: the view
    /// of the rows at the request's start or, if rows were appended while
    /// it ran (at most one campaign's cells are ever in flight), of those
    /// rows plus any subset of the appended ones. Leaves the mirror at the
    /// store's current rows.
    fn accepts(&mut self, store: &Mutex<ResultStore>, read: &Read, observed: &str) -> bool {
        let Some(current) = self.changed(store) else {
            return read.expected(&self.view) == observed;
        };
        let before = std::mem::replace(self, Mirror::of(current));
        if read.expected(&before.view) == observed || read.expected(&self.view) == observed {
            return true;
        }
        let known: HashSet<&str> = before.rows.iter().map(|r| r.fingerprint.as_str()).collect();
        let added: Vec<&ResultRow> = self
            .rows
            .iter()
            .filter(|r| !known.contains(r.fingerprint.as_str()))
            .collect();
        assert!(
            added.len() <= 4,
            "more rows appended during one read than one campaign writes"
        );
        (1..(1usize << added.len()) - 1).any(|mask| {
            let mut rows = before.rows.clone();
            rows.extend(
                (0..added.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| added[i].clone()),
            );
            read.expected(&ColumnarView::from_rows(rows)) == observed
        })
    }
}

/// The writes: the client POSTs a unique one-cell campaign every
/// `READS_PER_WRITE` reads and a second thread waits, in-process, for each
/// to finish, timing it from the POST, while the client goes on reading.
struct Writes {
    started: AtomicUsize,
    done: AtomicUsize,
    /// (ms from POST to done, simulated accesses, status 2xx, clean result)
    log: Mutex<Vec<(f64, u64, bool, bool)>>,
}

/// A submitted write: the campaign, when it was POSTed, its accesses.
type Pending = (Arc<Campaign>, Instant, u64);

fn post_write(server: &Server, seed: u64, size: &Size, writes: &Writes) -> Option<Pending> {
    let k = writes.started.fetch_add(1, Ordering::SeqCst);
    let accesses = size.serve_post_accesses + k;
    let spec = format!(
        r#"{{"name": "perfbench-serve-{k}",
            "scale": {{"accesses_per_workload": {accesses}, "workloads_per_category": 0,
                       "mixes": 0, "threads": 1}},
            "cells": [{{"label": "write", "targets": {{"workloads": ["{}"]}},
                        "prefetchers": ["dspatch_plus_spp"]}}]}}"#,
        workloads(seed)[0].name
    );
    let start = Instant::now();
    let campaign = match http_request(server.local_addr(), "POST", "/campaigns", Some(&spec)) {
        Ok((status, _, body)) if (200..300).contains(&status) => {
            Json::parse(&String::from_utf8_lossy(&body))
                .ok()
                .and_then(|json| json.get("id").and_then(Json::as_str).map(str::to_owned))
                .and_then(|id| server.state().get(&id))
        }
        _ => None,
    };
    // Baseline and DSPatch+SPP cells.
    let simulated = 2 * accesses as u64;
    if campaign.is_none() {
        let mut log = writes.log.lock().expect("write log lock");
        log.push((ms_since(start), simulated, false, false));
        writes.done.fetch_add(1, Ordering::SeqCst);
    }
    campaign.map(|campaign| (campaign, start, simulated))
}

fn await_writes(writes: &Writes, pending: mpsc::Receiver<Pending>) {
    for (campaign, start, simulated) in pending {
        let mut cursor = 0;
        loop {
            let (events, drained) = campaign.wait_events(cursor);
            cursor += events.len();
            if drained {
                break;
            }
        }
        let ms = ms_since(start);
        let clean = campaign
            .result()
            .is_some_and(|r| r.failures.is_empty() && r.rows.len() == 1);
        let mut log = writes.log.lock().expect("write log lock");
        log.push((ms, simulated, true, clean));
        writes.done.fetch_add(1, Ordering::SeqCst);
    }
}

#[derive(Default)]
struct Loop {
    query_ms: Vec<f64>,
    /// `GET /query` latencies while a POSTed campaign was running, and not.
    query_during_write_ms: Vec<f64>,
    query_between_writes_ms: Vec<f64>,
    results_ms: Vec<f64>,
    view_build_ms: Vec<f64>,
    run_ms: Vec<f64>,
    render_ms: Vec<f64>,
    reads: usize,
}

#[allow(clippy::too_many_arguments)]
fn closed_loop(
    report: &mut Report,
    server: &Server,
    seed: u64,
    size: &Size,
    until: Instant,
    min_queries: usize,
    first_read: usize,
    base_count: usize,
    writes: &Writes,
    pending: &mpsc::Sender<Pending>,
    mirror: &mut Mirror,
    tracer: &mut Tracer,
    root: Option<usize>,
) -> Loop {
    let store = server.state().store().clone();
    let addr = server.local_addr();
    let mut out = Loop::default();
    let mut index = first_read;
    let mut attempts = 0;
    while Instant::now() < until || (out.query_ms.len() < min_queries && attempts < 4 * min_queries)
    {
        attempts += 1;
        let read = read_mix(seed, index, size);
        index += 1;
        if index.is_multiple_of(READS_PER_WRITE) {
            if let Some(job) = post_write(server, seed, size, writes) {
                pending.send(job).expect("write waiter is listening");
            }
        }
        mirror.refresh(&store);
        let done_before = writes.done.load(Ordering::SeqCst);
        let path = format!("{}?{}", read.path, encode(&read.params));
        let span = tracer.open("http.request", root);
        let start = Instant::now();
        let response = http_request(addr, "GET", &path, None);
        let ms = ms_since(start);
        tracer.close(span, 1);
        let started_after = writes.started.load(Ordering::SeqCst);
        report.attempted += 1;
        let Ok((status, _, body)) = response else {
            report.failed += 1;
            continue;
        };
        if !(200..300).contains(&status) {
            report.failed += 1;
            continue;
        }
        if read.is_query() {
            out.query_ms.push(ms);
            if started_after > done_before {
                out.query_during_write_ms.push(ms);
            } else {
                out.query_between_writes_ms.push(ms);
            }
        } else {
            out.results_ms.push(ms);
        }
        let observed = read.observed(&body);
        report.check(
            format!(
                "serve.{}_matches_in_process",
                read.path.trim_start_matches('/')
            ),
            mirror.accepts(&store, &read, &observed),
        );
        if read.is_count() {
            let count = count_of(&observed);
            report.check(
                "serve.count_tracks_writes",
                count.is_some_and(|c| {
                    c >= base_count + 2 * done_before && c <= base_count + 2 * started_after
                }),
            );
        }
        if tracer.enabled() && read.is_query() {
            let query = Query::from_params(&read.params).expect("benchmark query parses");
            let (view, build_ns) = tracer.span("analytics.view_build", root, 1, || {
                ColumnarView::from_store(&store.lock().expect("store lock"))
            });
            let (output, run_ns) = tracer.span("analytics.run", root, 1, || {
                view.run(&query).expect("benchmark query runs")
            });
            let (_, render_ns) = tracer.span("analytics.render", root, 1, || {
                render(&output, QueryFormat::Json)
            });
            out.view_build_ms.push(build_ns / 1e6);
            out.run_ms.push(run_ns / 1e6);
            out.render_ms.push(render_ns / 1e6);
        }
        out.reads += 1;
    }
    out
}

fn count_of(body: &str) -> Option<usize> {
    let json = Json::parse(body).ok()?;
    let row = json.get("rows")?.as_arr()?.first()?;
    row.get("count")?.as_u64().map(|n| n as usize)
}

pub fn run(seed: u64, seconds: f64, traced: bool, size: &Size, work: &Path) -> Report {
    let mut report = Report::new();
    let mut setup_s = Vec::new();
    let mut started = None;
    for i in 0..SETUPS {
        let start = Instant::now();
        let setup = set_up(seed, size, &work.join(format!("store-{i}")));
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(previous) = started.replace(setup) {
            stop(previous.server);
        }
    }
    let Started { server, insert_us } = started.expect("at least one set-up");
    let store = server.state().store().clone();
    let mut mirror = Mirror::of(store.lock().expect("store lock").rows().cloned().collect());
    let count_read = read_mix(seed, 4, size);
    let base_count = count_of(&count_read.expected(&mirror.view)).expect("count query answers");
    report.check(
        "serve.store_populated",
        mirror.rows.len() == size.serve_rows.div_ceil(ROWS_PER_WORKLOAD) * ROWS_PER_WORKLOAD,
    );

    let writes = Writes {
        started: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        log: Mutex::new(Vec::new()),
    };
    let (pending, waiting) = mpsc::channel();
    let addr = server.local_addr();
    let mut tracer = Tracer::new(false);
    let mut traced_tracer = Tracer::new(traced);
    let (untraced, traced_loop) = std::thread::scope(|scope| {
        let writes = &writes;
        let handle = scope.spawn(move || await_writes(writes, waiting));
        let now = Instant::now();
        let split = if traced { seconds / 2.0 } else { seconds };
        let untraced = closed_loop(
            &mut report,
            &server,
            seed,
            size,
            now + Duration::from_secs_f64(split),
            size.min_queries,
            0,
            base_count,
            writes,
            &pending,
            &mut mirror,
            &mut tracer,
            None,
        );
        let traced_loop = traced.then(|| {
            let root = traced_tracer.open("serve_query", None);
            let out = closed_loop(
                &mut report,
                &server,
                seed,
                size,
                Instant::now() + Duration::from_secs_f64(split),
                0,
                untraced.reads,
                base_count,
                writes,
                &pending,
                &mut mirror,
                &mut traced_tracer,
                root,
            );
            traced_tracer.close(root, out.reads as u64);
            out
        });
        drop(pending);
        handle.join().expect("writer thread");
        (untraced, traced_loop)
    });

    // Every write is done now: the count must account for each exactly.
    let final_count = http_request(
        addr,
        "GET",
        &format!("/query?{}", encode(&count_read.params)),
        None,
    )
    .ok()
    .and_then(|(status, _, body)| {
        (status == 200).then(|| count_of(&String::from_utf8_lossy(&body)))
    })
    .flatten();
    let log = writes.log.lock().expect("write log lock").clone();
    report.check(
        "serve.final_count_equals_writes",
        final_count == Some(base_count + 2 * log.len()),
    );
    report.check(
        "serve.every_write_completed_clean",
        log.iter().all(|w| !w.2 || w.3),
    );
    report.attempted += log.len() as u64;
    let non2xx = log.iter().filter(|w| !w.2).count();
    report.failed += non2xx as u64;
    report.check("serve.writes_made", !log.is_empty());

    let write_ms: Vec<f64> = log.iter().map(|w| w.0).collect();
    let sim_rates: Vec<f64> = log.iter().map(|w| w.1 as f64 / (w.0 / 1e3)).collect();
    if !traced {
        report.metric("setup_s", &setup_s);
        report.metric("sim_accesses_per_s", &sim_rates);
        report.value("query_p50_ms", median(&untraced.query_ms));
        report.value("query_p90_ms", percentile(&untraced.query_ms, 90.0));
        report.samples("query_ms", &untraced.query_ms);
        report.samples("results_ms", &untraced.results_ms);
        for (name, series) in [
            ("query_during_write_ms", &untraced.query_during_write_ms),
            ("query_between_writes_ms", &untraced.query_between_writes_ms),
        ] {
            if !series.is_empty() {
                report.samples(name, series);
            }
        }
        report.samples("write_ms", &write_ms);
        report.value("peak_rss_mib", crate::util::peak_rss_mib());
        stop(server);
        return report;
    }

    let traced_loop = traced_loop.expect("traced half ran");
    let p50 = median(&traced_loop.query_ms);
    report.value("tracing.overhead_frac", p50 / median(&untraced.query_ms));
    let build = median(&traced_loop.view_build_ms);
    let run = median(&traced_loop.run_ms);
    let render_ms = median(&traced_loop.render_ms);
    report.value("analytics.view_build_ms", build);
    report.value("analytics.run_ms", run);
    report.value("analytics.render_ms", render_ms);
    report.value("http.overhead_ms", p50 - build - run - render_ms);
    report.value("serve.write_ms", median(&write_ms));
    report.value("serve.non2xx", (report.failed) as f64);
    report.value("store.insert_us", insert_us);
    stop(server);

    let root = traced_tracer.open("serve_query.layers", None);
    let (reopened, open_ns) = traced_tracer.span("store.open", root, 0, || {
        ResultStore::open(&work.join(format!("store-{}", SETUPS - 1)))
    });
    report.check("serve.store_reopens", reopened.is_ok());
    drop(reopened);
    report.value("store.open_ms", open_ns / 1e6);
    let workload = workloads(seed)[0].clone();
    let accesses = size.serve_post_accesses;
    let make_source = move || -> Box<dyn TraceSource> { Box::new(workload.source(accesses)) };
    let profile = layers::profile(
        &make_source,
        &SystemConfig::single_thread(),
        &mut traced_tracer,
        root,
    );
    for (name, value) in profile.metrics {
        report.value(name, value);
    }
    traced_tracer.close(root, 0);
    report.spans = Some(traced_tracer.to_json());
    report.exercised = vec![
        "store",
        "analytics",
        "http",
        "serve",
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
