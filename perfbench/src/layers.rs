//! Per-layer cost of the simulator, built from its public types.
//!
//! The machine-level split calls `Machine::{skip_records, run_functional,
//! run_interval}` on fresh machines over the same trace. The component
//! costs replay each layer's input stream into that layer alone: a
//! functional model of the hierarchy (built from the public `Cache`, `Dram`,
//! `ReadyQueue` and prefetcher types) records the probe stream each cache
//! level sees, the L2 prefetcher's training stream, the DRAM access stream
//! and the fill-queue operations; each stream is then replayed into a fresh
//! instance of its layer under a span. The model follows the machine's
//! functional probe order (demand L1 → L2 → LLC → DRAM, L2 prefetcher
//! trained on every L1 miss, at most `prefetch_mshrs` candidates applied
//! per training event) but has no L1 stride prefetcher and approximates
//! the cycle as the retired instruction count, so its streams are
//! representative of the machine's rather than identical to them.

use crate::util::Tracer;
use dspatch_harness::PrefetcherKind;
use dspatch_sim::tables::ReadyQueue;
use dspatch_sim::{Cache, Dram, SimResult, SimulationBuilder, SystemConfig};
use dspatch_trace::TraceSource;
use dspatch_types::{FillLevel, LineAddr, MemoryAccess, PrefetchContext, PrefetchSink, Prefetcher};
use std::hint::black_box;

/// Cache-level operations, packed as `line | kind << 60`.
const DEMAND: u64 = 0;
const DEMAND_FIRST_USE: u64 = 1;
const PREFETCH_PROBE: u64 = 2;
const FILL_DEMAND: u64 = 3;
const FILL_PREFETCH: u64 = 4;
const FILL_PREFETCH_LOW: u64 = 5;
const KIND_SHIFT: u32 = 60;
const LINE_MASK: u64 = (1 << KIND_SHIFT) - 1;

#[derive(Default)]
struct CacheOps {
    ops: Vec<u64>,
    probes: u64,
}

impl CacheOps {
    fn push(&mut self, kind: u64, line: LineAddr) {
        if kind <= PREFETCH_PROBE {
            self.probes += 1;
        }
        self.ops
            .push(line.as_u64() & LINE_MASK | kind << KIND_SHIFT);
    }
}

enum QueueOp {
    Push(u64, u64),
    Drain(u64),
}

/// Every layer's recorded input stream.
struct Streams {
    l1: CacheOps,
    l2: CacheOps,
    llc: CacheOps,
    training: Vec<(MemoryAccess, PrefetchContext)>,
    dram: Vec<(u64, u64, bool)>,
    queue: Vec<QueueOp>,
    queue_ops: u64,
}

/// Sends one line to DRAM at `cycle` and books its fill.
fn to_dram(
    line: LineAddr,
    cycle: u64,
    prefetch: bool,
    dram: &mut Dram,
    queue: &mut ReadyQueue,
    s: &mut Streams,
) {
    s.dram.push((line.as_u64(), cycle, prefetch));
    let ready = dram.access(line, cycle, prefetch);
    queue.push(ready, line.as_u64());
    s.queue.push(QueueOp::Push(ready, line.as_u64()));
    s.queue_ops += 1;
}

fn record_streams(source: &mut dyn TraceSource, config: &SystemConfig) -> Streams {
    let mut l1 = Cache::new(config.l1.clone());
    let mut l2 = Cache::new(config.l2.clone());
    let mut llc = Cache::new(config.llc.clone());
    let mut dram = Dram::new(config.dram, config.core.clock_mhz);
    let mut queue = ReadyQueue::new();
    let mut prefetcher = PrefetcherKind::DspatchPlusSpp.build_any();
    let mut sink = PrefetchSink::new();
    let mut s = Streams {
        l1: CacheOps::default(),
        l2: CacheOps::default(),
        llc: CacheOps::default(),
        training: Vec::new(),
        dram: Vec::new(),
        queue: Vec::new(),
        queue_ops: 0,
    };
    let mut cycle = 0u64;
    while let Some(record) = source.next_record() {
        cycle += u64::from(record.gap) + 1;
        s.queue.push(QueueOp::Drain(cycle));
        while queue.pop_ready(cycle).is_some() {
            s.queue_ops += 1;
        }
        let line = record.addr.line();
        s.l1.push(DEMAND, line);
        if l1.demand_lookup(line) {
            continue;
        }
        s.l2.push(DEMAND_FIRST_USE, line);
        let (l2_hit, _) = l2.demand_lookup_first_use(line);
        if !l2_hit {
            s.llc.push(DEMAND_FIRST_USE, line);
            let (llc_hit, _) = llc.demand_lookup_first_use(line);
            s.l2.push(FILL_DEMAND, line);
            l2.fill(line, false, false);
            s.l1.push(FILL_DEMAND, line);
            l1.fill(line, false, false);
            if !llc_hit {
                to_dram(line, cycle, false, &mut dram, &mut queue, &mut s);
                s.llc.push(FILL_DEMAND, line);
                llc.fill(line, false, false);
            }
        }
        let access = record.to_access();
        let ctx = PrefetchContext::at_cycle(cycle)
            .with_cache_hit(l2_hit)
            .with_bandwidth(dram.bandwidth_quartile());
        s.training.push((access, ctx));
        sink.clear();
        prefetcher.on_access(&access, &ctx, &mut sink);
        for request in sink.requests().iter().take(config.prefetch_mshrs) {
            let line = request.line;
            s.l2.push(PREFETCH_PROBE, line);
            if l2.prefetch_lookup(line) {
                continue;
            }
            s.llc.push(PREFETCH_PROBE, line);
            let fill = if request.low_priority {
                FILL_PREFETCH_LOW
            } else {
                FILL_PREFETCH
            };
            if !llc.prefetch_lookup(line) {
                to_dram(line, cycle, true, &mut dram, &mut queue, &mut s);
                s.llc.push(fill, line);
                llc.fill(line, true, request.low_priority);
            }
            if request.fill_level != FillLevel::Llc {
                s.l2.push(fill, line);
                l2.fill(line, true, request.low_priority);
            }
        }
    }
    s
}

fn replay_cache(cache: &mut Cache, ops: &[u64]) -> u64 {
    let mut hits = 0u64;
    for &op in ops {
        let line = LineAddr::new(op & LINE_MASK);
        match op >> KIND_SHIFT {
            DEMAND => hits += u64::from(cache.demand_lookup(line)),
            DEMAND_FIRST_USE => hits += u64::from(cache.demand_lookup_first_use(line).0),
            PREFETCH_PROBE => hits += u64::from(cache.prefetch_lookup(line)),
            FILL_DEMAND => drop(black_box(cache.fill(line, false, false))),
            FILL_PREFETCH => drop(black_box(cache.fill(line, true, false))),
            _ => drop(black_box(cache.fill(line, true, true))),
        }
    }
    hits
}

fn replay_prefetcher(
    mut prefetcher: impl Prefetcher,
    training: &[(MemoryAccess, PrefetchContext)],
) -> u64 {
    let mut sink = PrefetchSink::new();
    let mut candidates = 0u64;
    for (access, ctx) in training {
        sink.clear();
        prefetcher.on_access(access, ctx, &mut sink);
        candidates += sink.len() as u64;
    }
    candidates
}

/// The layer profile of one trace, plus the exact result of the traced
/// end-to-end pass (`run_interval` over the whole trace on a fresh machine).
pub struct Profile {
    pub metrics: Vec<(&'static str, f64)>,
    /// Nanoseconds per access of the traced end-to-end pass.
    pub e2e_ns_per_access: f64,
    pub accesses: u64,
    pub result: SimResult,
}

/// Profiles the simulator layers on the trace `make_source` yields (a fresh
/// source per call), under `parent` in the tracer.
pub fn profile(
    make_source: &dyn Fn() -> Box<dyn TraceSource>,
    config: &SystemConfig,
    tracer: &mut Tracer,
    parent: Option<usize>,
) -> Profile {
    let machine = |kind: PrefetcherKind| {
        SimulationBuilder::new(config.clone())
            .with_core(make_source(), kind.build_any())
            .into_machine()
    };

    let mut source = make_source();
    let (n, trace_ns) = tracer.span("trace.next_record", parent, 0, || {
        let mut n = 0u64;
        while let Some(record) = source.next_record() {
            black_box(record);
            n += 1;
        }
        n
    });
    assert!(n > 0, "profiled trace is empty");
    let per = |ns: f64| ns / n as f64;

    let mut m = machine(PrefetcherKind::Baseline);
    let (skipped, _) = tracer.span("sim.skip_records", parent, n, || m.skip_records(n));
    assert_eq!(skipped, n, "skip_records consumed a different trace length");
    let mut m = machine(PrefetcherKind::Baseline);
    let (_, functional_baseline) = tracer.span("sim.run_functional.baseline", parent, n, || {
        m.run_functional(n)
    });
    let mut m = machine(PrefetcherKind::DspatchPlusSpp);
    let (_, functional) = tracer.span("sim.run_functional.dspatch_plus_spp", parent, n, || {
        m.run_functional(n)
    });
    let mut m = machine(PrefetcherKind::DspatchPlusSpp);
    let (result, interval) = tracer.span("sim.run_interval.dspatch_plus_spp", parent, n, || {
        m.run_interval(n)
    });

    let mut source = make_source();
    let (streams, _) = tracer.span("layers.record_streams", parent, n, || {
        record_streams(source.as_mut(), config)
    });
    let cache_ns = |tracer: &mut Tracer, name: &str, cache: Cache, ops: &CacheOps| {
        let mut cache = cache;
        let (_, ns) = tracer.span(name, parent, ops.probes, || {
            black_box(replay_cache(&mut cache, &ops.ops))
        });
        (ns / ops.probes.max(1) as f64, ops.probes as f64 / n as f64)
    };
    let (l1_ns, l1_rate) = cache_ns(
        tracer,
        "cache.l1",
        Cache::new(config.l1.clone()),
        &streams.l1,
    );
    let (l2_ns, l2_rate) = cache_ns(
        tracer,
        "cache.l2",
        Cache::new(config.l2.clone()),
        &streams.l2,
    );
    let (llc_ns, llc_rate) = cache_ns(
        tracer,
        "cache.llc",
        Cache::new(config.llc.clone()),
        &streams.llc,
    );

    let calls = streams.training.len() as u64;
    let pf_ns = |tracer: &mut Tracer, name: &str, kind: PrefetcherKind| {
        let prefetcher = kind.build_any();
        let (candidates, ns) = tracer.span(name, parent, calls, || {
            replay_prefetcher(prefetcher, &streams.training)
        });
        (ns / calls.max(1) as f64, candidates)
    };
    let (dspp_ns, candidates) = pf_ns(
        tracer,
        "prefetcher.dspatch_plus_spp",
        PrefetcherKind::DspatchPlusSpp,
    );
    let (dspatch_ns, _) = pf_ns(tracer, "prefetcher.dspatch", PrefetcherKind::Dspatch);
    let (spp_ns, _) = pf_ns(tracer, "prefetcher.spp", PrefetcherKind::Spp);

    let mut dram = Dram::new(config.dram, config.core.clock_mhz);
    let dram_accesses = streams.dram.len() as u64;
    let (_, dram_total) = tracer.span("dram", parent, dram_accesses, || {
        let mut sum = 0u64;
        for &(line, cycle, prefetch) in &streams.dram {
            sum = sum.wrapping_add(dram.access(LineAddr::new(line), cycle, prefetch));
        }
        black_box(sum)
    });
    let dram_ns = dram_total / dram_accesses.max(1) as f64;

    let mut queue = ReadyQueue::new();
    let (_, queue_total) = tracer.span("fill_queue", parent, streams.queue_ops, || {
        let mut popped = 0u64;
        for op in &streams.queue {
            match *op {
                QueueOp::Push(ready, line) => queue.push(ready, line),
                QueueOp::Drain(cycle) => {
                    while queue.pop_ready(cycle).is_some() {
                        popped += 1;
                    }
                }
            }
        }
        black_box(popped)
    });
    let queue_ns = queue_total / streams.queue_ops.max(1) as f64;

    let e2e = per(interval);
    let pf_rate = calls as f64 / n as f64;
    let attributed = per(trace_ns)
        + l1_ns * l1_rate
        + l2_ns * l2_rate
        + llc_ns * llc_rate
        + dspp_ns * pf_rate
        + dram_ns * dram_accesses as f64 / n as f64
        + queue_ns * streams.queue_ops as f64 / n as f64;
    Profile {
        metrics: vec![
            ("trace.ns_per_record", per(trace_ns)),
            ("sim.functional_ns_per_access", per(functional)),
            (
                "sim.functional_baseline_ns_per_access",
                per(functional_baseline),
            ),
            ("sim.timing_ns_per_access", per(interval) - per(functional)),
            (
                "prefetcher.share",
                (per(functional) - per(functional_baseline)) / e2e,
            ),
            ("prefetcher.dspatch_plus_spp.ns_per_call", dspp_ns),
            ("prefetcher.dspatch.ns_per_call", dspatch_ns),
            ("prefetcher.spp.ns_per_call", spp_ns),
            (
                "prefetcher.dspatch_plus_spp.candidates_per_call",
                candidates as f64 / calls.max(1) as f64,
            ),
            ("cache.l1.ns_per_probe", l1_ns),
            ("cache.l2.ns_per_probe", l2_ns),
            ("cache.llc.ns_per_probe", llc_ns),
            ("dram.ns_per_access", dram_ns),
            ("fill_queue.ns_per_op", queue_ns),
            ("sim.unattributed_ns_per_access", e2e - attributed),
        ],
        e2e_ns_per_access: e2e,
        accesses: n,
        result,
    }
}
