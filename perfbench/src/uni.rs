//! `uni_dspatch_spp`: one core, exact simulation, DSPatch+SPP, over the
//! blended stream / spatial / pointer-chase trace of
//! `perf::snapshot_single_source`, streamed, with its phases seeded from the
//! workload seed. The caches and predictors start cold.

use crate::layers;
use crate::report::{model_counts, Report};
use crate::util::{derive, percentile, Tracer};
use crate::Size;
use dspatch_harness::PrefetcherKind;
use dspatch_sim::{SimResult, SimulationBuilder, SystemConfig};
use dspatch_trace::{
    ChainSource, GeneratorSpec, PointerChaseGen, SpatialPatternGen, StreamGen, SynthSource,
    TraceMeta, TraceRecord, TraceSource,
};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups timed before the measured simulations.
const SETUPS: usize = 100;

/// The snapshot trace's three phases (same generators and lengths).
fn phase_specs(accesses: usize) -> [(GeneratorSpec, usize); 3] {
    let third = accesses / 3;
    [
        (
            GeneratorSpec::Stream(StreamGen {
                streams: 2,
                gap: 48,
                store_percent: 10,
            }),
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
            third,
        ),
        (
            GeneratorSpec::PointerChase(PointerChaseGen {
                nodes: CHASE_NODES,
                node_bytes: 192,
                gap: 36,
            }),
            accesses - 2 * third,
        ),
    ]
}

/// Nodes of the pointer-chase phase.
const CHASE_NODES: u64 = 1 << 14;

/// Each phase's seed, derived from the workload seed.
///
/// The pointer chase takes the first derived seed whose walk visits every
/// node, as the snapshot trace's does. For about half of all seeds the
/// generator's walk closes early, after as few as 256 nodes; that shrinks
/// the phase's footprint and nearly halves its host time, so the seed would
/// choose the workload's character instead of one instance of it.
fn phase_seeds(seed: u64) -> [u64; 3] {
    let (chase, _) = phase_specs(0)[2].clone();
    let full_walk = |candidate: u64| {
        let mut walk = SynthSource::new("chase", chase.clone(), candidate, CHASE_NODES as usize);
        let mut seen = HashSet::new();
        while let Some(record) = walk.next_record() {
            seen.insert(record.addr);
        }
        seen.len() as u64 == CHASE_NODES
    };
    let chase_seed = (0..)
        .map(|k| derive(seed, 12 + 3 * k))
        .find(|&candidate| full_walk(candidate))
        .expect("some derived seed walks every node");
    [derive(seed, 10), derive(seed, 11), chase_seed]
}

/// The blended trace for the given phase seeds.
fn blended_source(seeds: [u64; 3], accesses: usize) -> ChainSource {
    ChainSource::new(
        "uni-blended",
        phase_specs(accesses)
            .into_iter()
            .zip(seeds)
            .map(|((spec, len), seed)| {
                Box::new(SynthSource::new("phase", spec, seed, len)) as Box<dyn TraceSource>
            })
            .collect(),
    )
}

/// Passes records through, noting the time every `window` records: the
/// host time the simulation takes to retire each window of the trace.
struct Windowed {
    inner: ChainSource,
    window: u64,
    pulled: u64,
    marks: Arc<Mutex<Vec<Instant>>>,
}

impl TraceSource for Windowed {
    fn next_record(&mut self) -> Option<TraceRecord> {
        self.pulled += 1;
        if self.pulled.is_multiple_of(self.window) {
            self.marks
                .lock()
                .expect("window marks lock")
                .push(Instant::now());
        }
        self.inner.next_record()
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.pulled = 0;
    }

    fn fork(&self) -> Box<dyn TraceSource> {
        self.inner.fork()
    }

    fn meta(&self) -> TraceMeta {
        self.inner.meta()
    }
}

fn check_result(report: &mut Report, result: &SimResult, accesses: u64, instructions: u64) {
    let core = &result.cores[0];
    report.check(
        "uni.retired_accesses_equal_trace_length",
        core.l1.demand_hits + core.l1.demand_misses == accesses,
    );
    report.check(
        "uni.retired_instructions_equal_trace",
        core.instructions == instructions,
    );
}

pub fn run(seed: u64, seconds: f64, traced: bool, size: &Size) -> Report {
    let mut report = Report::new();
    let n = size.uni_accesses as u64;
    let seeds = phase_seeds(seed);
    let (length, instructions) = {
        let mut source = blended_source(seeds, size.uni_accesses);
        let mut count = (0u64, 0u64);
        while let Some(record) = source.next_record() {
            count.0 += 1;
            count.1 += u64::from(record.gap) + 1;
        }
        count
    };
    report.check("uni.trace_length", length == n);

    let machine = |source: Windowed| {
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(source, PrefetcherKind::DspatchPlusSpp.build_any())
            .into_machine()
    };
    let windowed = |marks: &Arc<Mutex<Vec<Instant>>>| Windowed {
        inner: blended_source(seeds, size.uni_accesses),
        window: size.window as u64,
        pulled: 0,
        marks: marks.clone(),
    };
    // Set-up is sub-millisecond, so it is timed many times; each rep's
    // set-up adds one more sample.
    let mut setup_s: Vec<f64> = (0..SETUPS)
        .map(|_| {
            let start = Instant::now();
            drop(machine(windowed(&Arc::default())));
            start.elapsed().as_secs_f64()
        })
        .collect();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    // windows_ms[r][k]: host ms repetition r spent on window k of the trace.
    let mut windows_ms: Vec<Vec<f64>> = Vec::new();
    let mut first: Option<SimResult> = None;
    loop {
        let marks = Arc::new(Mutex::new(Vec::new()));
        let start = Instant::now();
        let mut machine = machine(windowed(&marks));
        setup_s.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let result = machine.run();
        let end = Instant::now();
        report.attempted += 1;
        rates.push(n as f64 / end.duration_since(start).as_secs_f64());
        let marks = marks.lock().expect("window marks lock");
        let mut previous = start;
        let windows = marks
            .iter()
            .chain([&end])
            .map(|&mark| {
                let ms = mark.duration_since(previous).as_secs_f64() * 1e3;
                previous = mark;
                ms
            })
            .collect();
        drop(marks);
        windows_ms.push(windows);
        check_result(&mut report, &result, n, instructions);
        match &first {
            None => first = Some(result),
            Some(first) => report.check("uni.deterministic_across_reps", *first == result),
        }
        // Start another repetition only if it can finish by the deadline.
        if traced || Instant::now() + end.duration_since(start) > deadline {
            break;
        }
    }
    let result = first.expect("at least one simulation ran");
    report.model = model_counts(&[&result]);

    if !traced {
        // Host speed drifts within a run, so each window of the trace is
        // timed by its median over the repetitions, and the trace time is
        // the sum of those medians.
        let trace_ms: f64 = (0..windows_ms[0].len())
            .map(|k| crate::util::median(&windows_ms.iter().map(|w| w[k]).collect::<Vec<_>>()))
            .sum();
        let pooled: Vec<f64> = windows_ms.iter().flatten().copied().collect();
        report.metric("setup_s", &setup_s);
        report.value("sim_accesses_per_s", n as f64 / (trace_ms / 1e3));
        report.samples("sim_accesses_per_s_per_rep", &rates);
        report.value("query_p50_ms", crate::util::median(&pooled));
        report.value("query_p90_ms", percentile(&pooled, 90.0));
        report.samples("query_ms", &pooled);
        report.value("peak_rss_mib", crate::util::peak_rss_mib());
        return report;
    }

    let mut tracer = Tracer::new(true);
    let root = tracer.open("uni_dspatch_spp", None);
    let make_source =
        || -> Box<dyn TraceSource> { Box::new(blended_source(seeds, size.uni_accesses)) };
    let profile = layers::profile(
        &make_source,
        &SystemConfig::single_thread(),
        &mut tracer,
        root,
    );
    tracer.close(root, n);
    check_result(&mut report, &profile.result, n, instructions);
    report.check("uni.profile_trace_length", profile.accesses == n);
    for (name, value) in profile.metrics {
        report.value(name, value);
    }
    let untraced_ns = 1e9 / rates[0];
    report.value(
        "tracing.overhead_frac",
        profile.e2e_ns_per_access / untraced_ns,
    );
    report.spans = Some(tracer.to_json());
    report.exercised = vec![
        "trace",
        "sim",
        "prefetcher",
        "cache",
        "dram",
        "fill_queue",
        "tracing",
    ];
    report
}
