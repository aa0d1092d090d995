//! The simulated machine: approximate out-of-order cores, the three-level
//! cache hierarchy, prefetcher hook points and shared DRAM.
//!
//! ## Core model
//!
//! Each core is a cycle-stepped approximation of the paper's Skylake-class
//! configuration: a 224-entry ROB filled and retired 4-wide, an 80-entry
//! load buffer bounding outstanding memory operations, non-memory
//! instructions completing in one cycle, and memory instructions completing
//! when the hierarchy returns their data. This captures the two first-order
//! effects prefetching changes — exposed memory latency at the ROB head and
//! memory-level parallelism — without modelling the full pipeline.
//!
//! ## Hierarchy and prefetcher hook points
//!
//! Demand accesses probe L1 → L2 → LLC → DRAM. The optional PC-stride
//! prefetcher observes L1 accesses and fills into the L1 (Table 2). The
//! configurable L2 prefetcher is trained on every L1 miss — demand or
//! prefetch — exactly as in the paper's methodology (Section 4.1), and its
//! requests fill the L2 and the LLC. DRAM-bound fills are tracked in flight,
//! so a demand that arrives while its line is still being fetched by a
//! prefetch observes the remaining latency (prefetch timeliness). In-flight
//! L2 prefetch fills are bounded per core by
//! [`SystemConfig::prefetch_mshrs`] — a full prefetch queue drops further
//! candidates, as the hardware's would. L1 stride-prefetch fills have no
//! such bound: on a saturating stream they queue behind DRAM by the
//! hundred thousand, and the fill table grows to hold them, then halves
//! back toward its seeded size as the backlog drains (see
//! [`crate::tables`]).

use crate::cache::Cache;
use crate::config::SystemConfig;
use crate::dram::Dram;
use crate::snapshot::MachineState;
use crate::stats::{CoreResult, PollutionBreakdown, PrefetchAccounting, SimResult};
use crate::tables::{LineTable, ReadyQueue, Slot};
use dspatch_prefetchers::{AnyPrefetcher, StrideConfig, StridePrefetcher};
use dspatch_trace::{IntoTraceSource, TraceRecord, TraceSource};
use dspatch_types::{
    CoreId, FillLevel, LineAddr, MemoryAccess, PrefetchContext, PrefetchRequest, PrefetchSink,
    Prefetcher, SnapshotError, SnapshotState, StateReader, StateWriter,
};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Extra cycles charged for traversing the on-die interconnect to DRAM on
/// top of the cache probe latencies.
const DRAM_REQUEST_OVERHEAD: u64 = 10;
/// Upper bound on tracked pollution victim lines. Victims past it are not
/// tracked, so their re-demands are not counted. It bounds the victim set's
/// memory: 2^20 victims on 2^20 distinct pages would need 2^21 page slots
/// of 16 B (32 MiB). Clustered victims need far less: the 3M-access
/// `uni_dspatch_spp` benchmark trace leaves about 10^6 victim lines on
/// 66,818 pages (its 2^16-page spatial working set plus the other phases),
/// held in 2^18 slots (4 MiB).
const POLLUTION_TRACK_CAP: usize = 1 << 20;

#[derive(Debug, Clone, Copy)]
struct PendingFill {
    ready: u64,
    core: usize,
    /// Core whose prefetch MSHR this fill occupies (never reassigned by a
    /// demand promotion, unlike `core`).
    issuer: usize,
    is_prefetch: bool,
    fill_l1: bool,
    fill_l2: bool,
    low_priority: bool,
    used_by_demand: bool,
}

/// Placeholder used to initialize unoccupied [`LineTable`] slots.
const NO_FILL: PendingFill = PendingFill {
    ready: 0,
    core: 0,
    issuer: 0,
    is_prefetch: false,
    fill_l1: false,
    fill_l2: false,
    low_priority: false,
    used_by_demand: false,
};

/// A run of consecutive ROB slots sharing one completion cycle. Gap
/// (non-memory) instructions allocated in the same cycle all complete one
/// cycle later, so they compress into a single entry — the dominant ROB
/// traffic shrinks by the allocation width.
#[derive(Debug, Clone, Copy)]
struct RobEntry {
    completion: u64,
    count: u32,
}

/// One simulated core and everything private to it: trace supply, ROB and
/// load-buffer state, the L1/L2 caches, both prefetchers and their reusable
/// request sinks.
struct CoreState {
    id: usize,
    workload: String,
    /// Pull-based record supply: the machine holds O(1) trace state however
    /// long the run (an owned `Trace` arrives as the materialized adapter).
    source: Box<dyn TraceSource>,
    /// One-record lookahead: the next record to issue, already pulled so
    /// its `gap` is known during the preceding gap-allocation phase.
    pending: Option<TraceRecord>,
    gap_remaining: u32,
    /// Records pulled from the source and fully consumed (issued in timed
    /// mode or applied functionally). The one-record lookahead in `pending`
    /// is *not* counted, so a checkpoint can replay the source exactly this
    /// many records to land back on the same lookahead.
    records_consumed: u64,
    /// Remaining records this core may issue before it reports finished
    /// (`u64::MAX` = unbounded). Sampled simulation sets this to the
    /// interval length so a measurement window covers an exact record
    /// count; the record that would exceed the budget stays in `pending`.
    record_budget: u64,
    /// Run-length-compressed, in-order ROB; `rob_len` tracks the summed
    /// instruction count (the occupancy the 224-entry bound applies to).
    rob: std::collections::VecDeque<RobEntry>,
    rob_len: usize,
    load_completions: BinaryHeap<Reverse<u64>>,
    l1: Cache,
    l2: Cache,
    l1_prefetcher: Option<StridePrefetcher>,
    l2_prefetcher: AnyPrefetcher,
    accounting: PrefetchAccounting,
    /// L2 prefetch fills currently in flight for this core (bounded by the
    /// configured prefetch MSHR budget).
    inflight_prefetches: usize,
    instructions: u64,
    finish_cycle: u64,
    finished: bool,
    last_memory_completion: u64,
    /// Reusable request buffer for the L1 stride prefetcher (owned by the
    /// core so the per-access hot path never allocates in steady state).
    l1_sink: PrefetchSink,
    /// Reusable request buffer for the L2 prefetcher.
    l2_sink: PrefetchSink,
}

impl CoreState {
    /// Appends `count` instructions completing at `completion`, merging with
    /// the newest run when the completion cycle matches.
    #[inline]
    fn rob_push(&mut self, completion: u64, count: u32) {
        self.rob_len += count as usize;
        if let Some(back) = self.rob.back_mut() {
            if back.completion == completion {
                back.count += count;
                return;
            }
        }
        self.rob.push_back(RobEntry { completion, count });
    }

    /// Drops load completions that have retired by `cycle`.
    #[inline]
    fn drain_load_completions(&mut self, cycle: u64) {
        while let Some(&Reverse(completion)) = self.load_completions.peek() {
            if completion <= cycle {
                self.load_completions.pop();
            } else {
                break;
            }
        }
    }
}

impl std::fmt::Debug for CoreState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreState")
            .field("id", &self.id)
            .field("workload", &self.workload)
            .field("prefetcher", &self.l2_prefetcher.name())
            .field("pending", &self.pending)
            .field("finished", &self.finished)
            .finish()
    }
}

/// Lines evicted from the LLC by a prefetch fill and not re-demanded yet,
/// held as one 64-bit line mask per 4 KB page. Victims cluster (about 16
/// per page on the `uni_dspatch_spp` benchmark trace), so neighbours share
/// a slot, and a page whose mask empties gives its slot back. Membership
/// is all the state there is: the set holds exactly the lines a line-keyed
/// set would, in a fraction of the slots.
#[derive(Debug)]
struct VictimSet {
    /// Page number → mask of that page's victim lines (never zero).
    pages: LineTable<u64>,
    /// Victim lines over all pages.
    lines: usize,
}

impl VictimSet {
    fn with_page_capacity(pages: usize) -> Self {
        Self {
            pages: LineTable::with_capacity(pages, 0),
            lines: 0,
        }
    }

    /// Number of victim lines (not pages).
    fn len(&self) -> usize {
        self.lines
    }

    /// Inserts `line`; returns whether it was newly added.
    fn insert(&mut self, line: LineAddr) -> bool {
        let bit = 1u64 << line.page_offset();
        let added = match self.pages.slot(line.page().as_u64()) {
            Slot::Occupied(mask) => {
                let added = *mask & bit == 0;
                *mask |= bit;
                added
            }
            Slot::Vacant(slot) => {
                slot.insert(bit);
                true
            }
        };
        self.lines += usize::from(added);
        added
    }

    /// Removes `line`; returns whether it was present.
    fn remove(&mut self, line: LineAddr) -> bool {
        let page = line.page().as_u64();
        let bit = 1u64 << line.page_offset();
        let Some(mask) = self.pages.get_mut(page) else {
            return false;
        };
        if *mask & bit == 0 {
            return false;
        }
        *mask &= !bit;
        if *mask == 0 {
            self.pages.remove(page);
        }
        self.lines -= 1;
        true
    }
}

#[derive(Debug)]
struct PollutionTracker {
    /// Probed on every demand that leaves the L2.
    victims: VictimSet,
    counts: PollutionBreakdown,
}

impl Default for PollutionTracker {
    fn default() -> Self {
        Self {
            // 2^13 page slots (128 KiB), written by every `Machine::new`
            // and `begin_interval`. Runs with more victim pages grow the
            // set and amortize the rehashes.
            victims: VictimSet::with_page_capacity(1 << 12),
            counts: PollutionBreakdown::default(),
        }
    }
}

impl PollutionTracker {
    fn record_prefetch_victim(&mut self, line: LineAddr) {
        if self.victims.len() < POLLUTION_TRACK_CAP {
            self.victims.insert(line);
        }
    }

    fn observe_demand(&mut self, line: LineAddr, went_to_dram: bool) {
        if self.victims.remove(line) {
            if went_to_dram {
                self.counts.bad_pollution += 1;
            } else {
                self.counts.prefetched_before_use += 1;
            }
        }
    }

    fn finish(mut self) -> PollutionBreakdown {
        self.counts.no_reuse += self.victims.len() as u64;
        self.counts
    }
}

/// Builds and runs a simulation.
///
/// # Example
///
/// See the [crate-level documentation](crate).
pub struct SimulationBuilder {
    config: SystemConfig,
    cores: Vec<(Box<dyn TraceSource>, AnyPrefetcher)>,
}

impl SimulationBuilder {
    /// Starts a builder for the given system configuration.
    pub fn new(config: SystemConfig) -> Self {
        Self {
            config,
            cores: Vec::new(),
        }
    }

    /// Adds a core pulling records from `source` with `l2_prefetcher`
    /// attached to its L2. Accepts any [`TraceSource`] (lazy synthetic
    /// workloads, file-backed traces) or an owned [`dspatch_trace::Trace`],
    /// which becomes the materialized adapter source.
    ///
    /// The prefetcher is anything convertible into [`AnyPrefetcher`]: a
    /// concrete registry prefetcher (statically dispatched on the per-access
    /// hot path) or a `Box<dyn Prefetcher>` (the dynamic escape hatch).
    #[must_use]
    pub fn with_core(
        mut self,
        source: impl IntoTraceSource,
        l2_prefetcher: impl Into<AnyPrefetcher>,
    ) -> Self {
        self.cores
            .push((source.into_trace_source(), l2_prefetcher.into()));
        self
    }

    /// Runs the simulation to completion on a [`Machine`], the exact
    /// cycle-interleaved engine, whatever the core count: every core steps
    /// each cycle against the one shared LLC and DRAM, so a core sees the
    /// other cores' traffic in the cycle it happens.
    ///
    /// # Panics
    ///
    /// Panics if no cores were added, more cores were added than the
    /// configuration allows, or the configuration is invalid.
    pub fn run(self) -> SimResult {
        SIMULATIONS_STARTED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Machine::new(self.config, self.cores).run()
    }

    /// Builds the [`Machine`] without running it, for the sampled
    /// simulation workflow: functional warm-up, checkpoint capture/restore
    /// and bounded measurement intervals. Panics under the same conditions
    /// as [`SimulationBuilder::run`]; additionally the sampling API is
    /// single-core-only, so more than one core is rejected.
    ///
    /// # Panics
    ///
    /// Panics if no core or more than one core was added, or the
    /// configuration is invalid.
    pub fn into_machine(self) -> Machine {
        assert!(
            self.cores.len() <= 1,
            "sampled simulation is single-core; use SimulationBuilder::run for multi-core"
        );
        SIMULATIONS_STARTED.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        Machine::new(self.config, self.cores)
    }
}

/// Process-wide count of simulations started, see [`simulations_started`].
static SIMULATIONS_STARTED: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Process-wide count of [`SimulationBuilder::run`] invocations since the
/// process started. Purely diagnostic: the experiment harness's tests use
/// the delta across a campaign to prove baseline runs are memoized rather
/// than re-simulated per prefetcher column.
pub fn simulations_started() -> u64 {
    SIMULATIONS_STARTED.load(std::sync::atomic::Ordering::Relaxed)
}

/// Builds the per-core state. Panics on an invalid configuration or core
/// count (the `SimulationBuilder::run` contract).
fn build_cores(
    config: &SystemConfig,
    core_setup: Vec<(Box<dyn TraceSource>, AnyPrefetcher)>,
) -> Vec<CoreState> {
    config.validate().expect("invalid system configuration");
    assert!(!core_setup.is_empty(), "simulation needs at least one core");
    assert!(
        core_setup.len() <= config.cores,
        "more cores supplied ({}) than the configuration allows ({})",
        core_setup.len(),
        config.cores
    );
    core_setup
        .into_iter()
        .enumerate()
        .map(|(id, (mut source, l2_prefetcher))| {
            let workload = source.meta().name;
            let pending = source.next_record();
            let gap = pending.map_or(0, |r| r.gap);
            CoreState {
                id,
                workload,
                source,
                pending,
                gap_remaining: gap,
                records_consumed: 0,
                record_budget: u64::MAX,
                rob: std::collections::VecDeque::with_capacity(config.core.rob_entries),
                rob_len: 0,
                load_completions: BinaryHeap::new(),
                l1: Cache::new(config.l1.clone()),
                l2: Cache::new(config.l2.clone()),
                l1_prefetcher: config
                    .l1_stride_prefetcher
                    .then(|| StridePrefetcher::new(StrideConfig::default())),
                l2_prefetcher,
                accounting: PrefetchAccounting::default(),
                inflight_prefetches: 0,
                instructions: 0,
                finish_cycle: 0,
                finished: false,
                last_memory_completion: 0,
                l1_sink: PrefetchSink::new(),
                l2_sink: PrefetchSink::new(),
            }
        })
        .collect()
}

/// The shared side of the machine: LLC, DRAM, the in-flight fill table and
/// pollution tracking.
struct SharedFabric {
    llc: Cache,
    dram: Dram,
    /// In-flight DRAM fills keyed by line address. An open-addressed arena
    /// seeded from the MSHR configuration: probed at least once per L2 miss
    /// and per prefetch candidate.
    pending: LineTable<PendingFill>,
    /// Fill events ordered by (ready, line): a calendar queue so cost does
    /// not scale with the DRAM backlog (see [`ReadyQueue`]).
    ready_queue: ReadyQueue,
    pollution: PollutionTracker,
    l2_latency: u64,
    llc_latency: u64,
    prefetch_mshrs: usize,
}

/// The simulated machine: the exact cycle-interleaved engine. Each cycle
/// steps every core, in core order, against the one shared LLC, DRAM and
/// in-flight fill table, so contention (and the bandwidth quartile DSPatch
/// reads) is never seen late. Single- and multi-core runs share this one
/// engine.
pub struct Machine {
    config: SystemConfig,
    cycle: u64,
    cores: Vec<CoreState>,
    fab: SharedFabric,
}

impl Machine {
    fn new(config: SystemConfig, core_setup: Vec<(Box<dyn TraceSource>, AnyPrefetcher)>) -> Self {
        let cores = build_cores(&config, core_setup);
        // Demand fills are bounded by the per-core load buffers and L2
        // prefetch fills by the per-core prefetch MSHR budget; seeding the
        // arena just past that population keeps the table a few KB, so
        // probes on the per-request hot path stay cache-resident. L1
        // stride-prefetch fills are unbounded: on the stream phase of the
        // blended benchmark trace they queue 183k deep behind a saturated
        // DRAM (2^19 slots, 20 MiB). The table grows to hold them and
        // halves back toward this seed once they drain.
        let pending_capacity = (config.cores
            * (config.prefetch_mshrs + config.core.load_buffer_entries + 16))
            .max(128);
        let fab = SharedFabric {
            llc: Cache::new(config.llc.clone()),
            dram: Dram::new(config.dram, config.core.clock_mhz),
            pending: LineTable::with_capacity(pending_capacity, NO_FILL),
            ready_queue: ReadyQueue::new(),
            pollution: PollutionTracker::default(),
            l2_latency: config.l2.latency,
            llc_latency: config.llc.latency,
            prefetch_mshrs: config.prefetch_mshrs,
        };
        Self {
            cycle: 0,
            cores,
            fab,
            config,
        }
    }

    /// Runs the machine until every core finishes (trace exhausted or
    /// record budget spent) and returns the accumulated result. Public for
    /// the sampling workflow ([`SimulationBuilder::into_machine`]); plain
    /// exact runs should prefer [`SimulationBuilder::run`].
    pub fn run(&mut self) -> SimResult {
        while !self.cores.iter().all(|c| c.finished) {
            self.step();
            if self.config.max_cycles > 0 && self.cycle > self.config.max_cycles {
                // Safety valve: mark all cores finished so the run terminates.
                for core in &mut self.cores {
                    if !core.finished {
                        core.finished = true;
                        core.finish_cycle = self.cycle;
                    }
                }
            }
            self.skip_idle_cycles();
        }
        let cycles = self.cycle;
        let cores = self
            .cores
            .iter_mut()
            .map(|core| {
                core.accounting.finalize();
                CoreResult {
                    workload: core.workload.clone(),
                    prefetcher: core.l2_prefetcher.name().to_owned(),
                    instructions: core.instructions,
                    finish_cycle: core.finish_cycle.max(1),
                    l1: *core.l1.stats(),
                    l2: *core.l2.stats(),
                    accounting: core.accounting,
                }
            })
            .collect();
        SimResult {
            cores,
            llc: *self.fab.llc.stats(),
            dram: *self.fab.dram.stats(),
            pollution: std::mem::take(&mut self.fab.pollution).finish(),
            cycles,
            cache_geometry: vec![
                self.config.l1.geometry(),
                self.config.l2.geometry(),
                self.config.llc.geometry(),
            ],
            sampling: None,
        }
    }

    fn step(&mut self) {
        self.cycle += 1;
        let cycle = self.cycle;
        self.drain_ready_fills(cycle);
        self.fab.dram.advance(cycle);
        for core in &mut self.cores {
            step_core(core, &mut self.fab, &self.config, cycle);
        }
    }

    /// Fast-forwards over cycles whose effect on every core is either
    /// nothing (idle stall) or closed-form (steady gap-instruction
    /// allocation). This is exact, not approximate:
    ///
    /// * An idle core's per-cycle work is empty — the retire loop breaks at
    ///   the ROB head and allocation is blocked — so skipping to the next
    ///   event changes nothing.
    /// * A core allocating only gap instructions evolves deterministically
    ///   (`width` allocations per cycle, matching retirements when the ROB
    ///   head is current, pure accumulation when it is blocked), so its
    ///   state after `k` such cycles is computed directly.
    /// * Pending DRAM fills only mutate caches, which no skipped core
    ///   touches; they materialize, in ready order, at the next stepped
    ///   cycle before any core runs — exactly the order the cycle-by-cycle
    ///   loop produces. The DRAM bandwidth tracker advances by window
    ///   arithmetic and is jump-safe.
    ///
    /// Memory-bound and compute-gap phases — where simulated time
    /// concentrates — therefore cost wall-clock per *event*, not per cycle.
    fn skip_idle_cycles(&mut self) {
        if !self.config.cycle_skipping {
            return;
        }
        let mut skip = u64::MAX;
        for core in &self.cores {
            skip = skip.min(core_skip_allowance(core, self.cycle, &self.config));
            if skip == 0 {
                return; // a core does non-trivial work next cycle
            }
        }
        if skip == u64::MAX {
            return; // all cores finished; the run loop exits
        }
        if self.config.max_cycles > 0 {
            // Never jump past the safety valve's trigger point.
            skip = skip.min((self.config.max_cycles + 1).saturating_sub(self.cycle + 1));
        }
        if skip == 0 {
            return;
        }
        let cycle = self.cycle;
        let width = self.config.core.width;
        let rob_entries = self.config.core.rob_entries;
        for core in &mut self.cores {
            advance_core_closed_form(core, cycle, skip, width, rob_entries);
        }
        self.cycle += skip;
    }
}

/// How many upcoming cycles (starting at `cycle + 1`) this core can be
/// advanced without stepping it, or `u64::MAX` if it is finished. Zero means
/// the next cycle must run normally. Mirrors the conditions of `step_core`
/// exactly; the machine skips the minimum across cores.
fn core_skip_allowance(core: &CoreState, cycle: u64, config: &SystemConfig) -> u64 {
    {
        if core.finished {
            return u64::MAX;
        }
        let width = config.core.width;
        let rob_entries = config.core.rob_entries;
        let head = core.rob.front().map(|e| e.completion);
        let has_records = core.pending.is_some() && core.record_budget > 0;

        if has_records && core.gap_remaining > 0 {
            // Gap-allocation phase: closed-form for whole cycles of `width`
            // gap instructions. The ROB front may hold already-completed
            // instructions (the backlog) followed by a blocked run.
            let gap_cycles = u64::from(core.gap_remaining) / width as u64;
            if gap_cycles >= 1 {
                let mut backlog = 0usize;
                let mut next_blocked = u64::MAX;
                for entry in core.rob.iter() {
                    if entry.completion <= cycle + 1 {
                        backlog += entry.count as usize;
                    } else {
                        next_blocked = entry.completion;
                        break;
                    }
                }
                if backlog >= width {
                    // Backlog regime: every streak cycle retires exactly
                    // `width` already-completed instructions and (with the
                    // freed slots, if the ROB was full) allocates `width`
                    // gap instructions — occupancy never grows and the
                    // blocked run (if any) never reaches the head.
                    return gap_cycles.min((backlog / width) as u64);
                }
                if core.rob_len < rob_entries {
                    // Accumulation regime: the < `width`-deep current front
                    // retires in the first cycle; afterwards allocations
                    // pile up (blocked head) or retire steadily (no blocked
                    // run at all).
                    let space_cycles = ((rob_entries - core.rob_len + backlog) / width) as u64;
                    let mut skip = gap_cycles.min(space_cycles);
                    if next_blocked != u64::MAX {
                        skip = skip.min(next_blocked - cycle - 1);
                    }
                    return skip;
                }
                // ROB full with a blocked (or shallow) head: idle until the
                // head retires.
                return head.map_or(0, |h| h.saturating_sub(cycle + 1));
            }
            // Partial gap (followed by the memory record within one cycle).
            if core.rob_len < rob_entries {
                return 0; // it allocates next cycle: step normally
            }
            return head.map_or(0, |h| h.saturating_sub(cycle + 1));
        }
        if has_records && core.rob_len < rob_entries {
            // Next up is a memory record.
            if core.load_completions.len() < config.core.load_buffer_entries {
                return 0; // it issues next cycle
            }
            // Blocked on the load buffer: idle until a load completes (or
            // the ROB head retires, whichever is earlier).
            let load_head = core
                .load_completions
                .peek()
                .map_or(u64::MAX, |&Reverse(c)| c);
            return load_head
                .min(head.unwrap_or(u64::MAX))
                .saturating_sub(cycle + 1);
        }
        // Cannot allocate: either the trace is exhausted or the ROB is full.
        match head {
            // Exhausted trace, empty ROB: the core finishes next step.
            None => 0,
            // Idle until the head retires.
            Some(h) => h.saturating_sub(cycle + 1),
        }
    }
}

/// Applies `skip` cycles' worth of closed-form evolution to `core`
/// (validated by `core_skip_allowance`): gap-phase cores allocate
/// `width * skip` instructions, idle cores are untouched (their lazy
/// load-completion drain happens at the next real step, identically to
/// the per-cycle loop's cumulative pops).
fn advance_core_closed_form(
    core: &mut CoreState,
    cycle: u64,
    skip: u64,
    width: usize,
    rob_entries: usize,
) {
    // The guard must classify the core exactly as `core_skip_allowance`
    // did: only a core in the gap-allocation phase evolves during a skip.
    if core.finished || core.gap_remaining == 0 || core.pending.is_none() || core.record_budget == 0
    {
        return;
    }
    let gap_cycles = u64::from(core.gap_remaining) / width as u64;
    if gap_cycles == 0 {
        return; // partial-gap core: it was idle (ROB full) or skip is 0
    }
    let mut backlog = 0usize;
    for entry in core.rob.iter() {
        if entry.completion > cycle + 1 {
            break;
        }
        backlog += entry.count as usize;
    }
    if backlog < width && core.rob_len >= rob_entries {
        return; // ROB-full idle core, untouched during the skip
    }
    debug_assert!(skip <= gap_cycles);
    let allocated = skip * width as u64;
    if backlog >= width {
        // Backlog regime: retire `width` per streak cycle, count-wise
        // from the front runs; every allocation stays in flight (it can
        // only retire once it reaches the head, which the backlog and
        // any blocked run prevent until after the streak).
        let mut to_retire = allocated as usize;
        debug_assert!(backlog >= to_retire);
        while to_retire > 0 {
            let front = core.rob.front_mut().expect("backlog covers retirement");
            let take = to_retire.min(front.count as usize);
            front.count -= take as u32;
            core.rob_len -= take;
            to_retire -= take;
            if front.count == 0 {
                core.rob.pop_front();
            }
        }
        core.rob_push(cycle + skip + 1, allocated as u32);
    } else {
        // Accumulation regime: the current front retires in the first
        // streak cycle.
        while let Some(front) = core.rob.front() {
            if front.completion > cycle + 1 {
                break;
            }
            core.rob_len -= front.count as usize;
            core.rob.pop_front();
        }
        if core.rob.is_empty() {
            // Steady state: each cycle's `width` allocations retire the
            // next cycle; only the final cycle's allocation remains.
            core.rob_push(cycle + skip + 1, width as u32);
        } else {
            // Blocked head: allocations accumulate behind it. Their
            // completions (cycle+2 ..= cycle+skip+1) all precede their
            // earliest possible retirement, so a single run at the
            // latest completion retires identically.
            core.rob_push(cycle + skip + 1, allocated as u32);
        }
    }
    core.gap_remaining -= allocated as u32;
    core.instructions += allocated;
    core.drain_load_completions(cycle + skip);
}

impl Machine {
    /// Materializes DRAM fills whose data has arrived.
    fn drain_ready_fills(&mut self, cycle: u64) {
        while let Some((_, line)) = self.fab.ready_queue.pop_ready(cycle) {
            let Some(fill) = self.fab.pending.remove(line) else {
                continue;
            };
            if fill.ready > cycle {
                // A duplicate queue entry from a superseded request; requeue.
                self.fab.pending.insert(line, fill);
                self.fab.ready_queue.push(fill.ready, line);
                continue;
            }
            if fill.is_prefetch {
                // The fill materializes: its prefetch MSHR frees up.
                self.cores[fill.issuer].inflight_prefetches -= 1;
            }
            let line_addr = LineAddr::new(line);
            let is_prefetch = fill.is_prefetch && !fill.used_by_demand;
            let core = &mut self.cores[fill.core];
            if fill.fill_l2 {
                core.l2.fill(line_addr, is_prefetch, fill.low_priority);
            }
            if fill.fill_l1 {
                core.l1.fill(line_addr, is_prefetch, fill.low_priority);
            }
            if let Some(eviction) = self.fab.llc.fill(line_addr, is_prefetch, fill.low_priority) {
                if is_prefetch {
                    self.fab.pollution.record_prefetch_victim(eviction.line);
                }
            }
        }
    }
}

/// Sampled-simulation support: functional warm-up, bounded measurement
/// intervals and machine checkpoints. The checkpoint container and its
/// byte-layout versioning live in [`crate::snapshot`].
impl Machine {
    /// Consumes up to `accesses` trace records per core in **functional
    /// warm-up mode**: caches and prefetcher pattern tables are updated
    /// with the timed path's probe order, but the timing model — ROB,
    /// load buffer, MSHRs, DRAM banks, cycle accounting — is skipped
    /// entirely, and DRAM-bound fills materialize immediately.
    /// `instructions` and the cycle counter do not advance, so a
    /// measurement interval started afterwards reports only its own work.
    ///
    /// Returns the number of records actually consumed (the minimum across
    /// cores; less than `accesses` only when a trace runs out).
    pub fn run_functional(&mut self, accesses: u64) -> u64 {
        let bandwidth = self.fab.dram.bandwidth_quartile();
        let prefetch_budget = self.fab.prefetch_mshrs;
        let mut min_consumed = u64::MAX;
        for core in &mut self.cores {
            let mut consumed = 0;
            while consumed < accesses {
                let Some(record) = core.pending else { break };
                functional_access(core, &mut self.fab.llc, bandwidth, prefetch_budget, &record);
                core.records_consumed += 1;
                core.pending = core.source.next_record();
                core.gap_remaining = core.pending.map_or(0, |r| r.gap);
                consumed += 1;
            }
            min_consumed = min_consumed.min(consumed);
        }
        if min_consumed == u64::MAX {
            0
        } else {
            min_consumed
        }
    }

    /// Discards up to `accesses` trace records per core without simulating
    /// them at all — no cache probes, no prefetcher training. Used by the
    /// sampling harness to fast-forward the bulk of a gap between
    /// measurement intervals before a bounded functional re-warm; machine
    /// state goes stale by exactly the skipped span, which the re-warm then
    /// repairs. Runs at trace-generation speed.
    ///
    /// Returns the number of records actually discarded (the minimum across
    /// cores; less than `accesses` only when a trace runs out).
    pub fn skip_records(&mut self, accesses: u64) -> u64 {
        let mut min_consumed = u64::MAX;
        for core in &mut self.cores {
            let mut consumed = 0;
            while consumed < accesses {
                if core.pending.is_none() {
                    break;
                }
                core.records_consumed += 1;
                core.pending = core.source.next_record();
                core.gap_remaining = core.pending.map_or(0, |r| r.gap);
                consumed += 1;
            }
            min_consumed = min_consumed.min(consumed);
        }
        if min_consumed == u64::MAX {
            0
        } else {
            min_consumed
        }
    }

    /// Runs one detailed **measurement interval** of exactly `accesses`
    /// records per core (fewer only if the trace ends) and returns its
    /// isolated [`SimResult`]: interval statistics are reset on entry, so
    /// IPC/coverage/pollution describe this window alone, while warmed
    /// cache and predictor contents carry over. Afterwards the machine is
    /// back at a functional boundary — the record that would have exceeded
    /// the budget is still pending, and in-flight timing state is drained —
    /// so fast-forwarding or capturing can follow directly.
    pub fn run_interval(&mut self, accesses: u64) -> SimResult {
        self.begin_interval();
        for core in &mut self.cores {
            core.record_budget = accesses;
            core.finished = false;
        }
        let result = self.run();
        // Return to a functional boundary: lift the budget and drop timing
        // residue (unmaterialized prefetch fills are abandoned, as they
        // would be by a context switch).
        for core in &mut self.cores {
            core.record_budget = u64::MAX;
            core.finished = false;
            core.rob.clear();
            core.rob_len = 0;
            core.load_completions.clear();
            core.inflight_prefetches = 0;
            core.last_memory_completion = 0;
        }
        self.fab.pending.reset();
        self.fab.ready_queue = ReadyQueue::new();
        result
    }

    /// Resets everything a [`SimResult`] reports — cycle counter, cache and
    /// DRAM statistics, accounting, pollution — without touching the warmed
    /// cache contents, predictor state or trace position.
    fn begin_interval(&mut self) {
        self.cycle = 0;
        self.fab.pending.reset();
        self.fab.ready_queue = ReadyQueue::new();
        self.fab.pollution = PollutionTracker::default();
        self.fab.llc.reset_stats();
        self.fab.dram.reset_interval();
        for core in &mut self.cores {
            core.l1.reset_stats();
            core.l2.reset_stats();
            core.accounting = PrefetchAccounting::default();
            core.instructions = 0;
            core.finish_cycle = 0;
            core.finished = false;
            core.last_memory_completion = 0;
            core.rob.clear();
            core.rob_len = 0;
            core.load_completions.clear();
            core.inflight_prefetches = 0;
        }
    }

    /// Serializes the machine into a versioned [`MachineState`] checkpoint.
    ///
    /// Only a **functional boundary** can be captured — no ROB/load-buffer
    /// occupancy, no in-flight DRAM fills, no outstanding prefetch MSHRs —
    /// which is exactly the state [`Machine::run_functional`] and
    /// [`Machine::run_interval`] leave behind. Anything else would need the
    /// whole event calendar serialized and is rejected with
    /// [`SnapshotError::Unsupported`].
    pub fn capture(&self) -> Result<MachineState, SnapshotError> {
        if !self.fab.pending.is_empty() || !self.fab.ready_queue.is_empty() {
            return Err(SnapshotError::Unsupported(
                "capture requires a functional boundary: DRAM fills are in flight".to_owned(),
            ));
        }
        for core in &self.cores {
            if core.rob_len != 0
                || !core.load_completions.is_empty()
                || core.inflight_prefetches != 0
            {
                return Err(SnapshotError::Unsupported(format!(
                    "capture requires a functional boundary: core {} has in-flight work",
                    core.id
                )));
            }
        }
        let mut writer = MachineState::writer();
        writer.put_u64(self.cycle);
        writer.put_len(self.cores.len());
        for core in &self.cores {
            writer.put_u64(core.records_consumed);
            writer.put_u64(core.instructions);
            writer.put_u64(core.finish_cycle);
            writer.put_u64(core.last_memory_completion);
            core.l1.save_state(&mut writer)?;
            core.l2.save_state(&mut writer)?;
            match core.l1_prefetcher.as_ref() {
                Some(prefetcher) => {
                    writer.put_bool(true);
                    prefetcher.save_state(&mut writer)?;
                }
                None => writer.put_bool(false),
            }
            // The L2 prefetcher state is tagged and length-prefixed so a
            // restore into a machine with a *different* prefetcher (shared
            // warm-up forked across prefetcher columns) can skip it.
            writer.put_str(core.l2_prefetcher.snapshot_tag());
            let mut section = StateWriter::new();
            core.l2_prefetcher.save_state(&mut section)?;
            writer.put_section(&section.into_bytes());
            let acc = &core.accounting;
            writer.put_u64(acc.l2_demand_accesses);
            writer.put_u64(acc.covered);
            writer.put_u64(acc.uncovered);
            writer.put_u64(acc.prefetches_issued);
            writer.put_u64(acc.prefetches_used);
            writer.put_u64(acc.prefetches_unused);
        }
        self.fab.llc.save_state(&mut writer)?;
        self.fab.dram.save_state(&mut writer)?;
        let counts = &self.fab.pollution.counts;
        writer.put_u64(counts.no_reuse);
        writer.put_u64(counts.prefetched_before_use);
        writer.put_u64(counts.bad_pollution);
        Ok(MachineState::from_writer(writer))
    }

    /// Restores a [`MachineState`] captured from a machine with the same
    /// configuration, core count and traces. The trace position is
    /// re-derived by replaying each source to the checkpoint's consumed
    /// count (generation only — no cache simulation), so snapshots stay
    /// small and valid for any `TraceSource`.
    ///
    /// The stored L2-prefetcher state is applied only when its tag matches
    /// this machine's prefetcher; otherwise the predictor keeps its current
    /// state (the shared-warm-up fork: one neutral checkpoint, many
    /// prefetcher columns).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError`] on a header/layout mismatch or when the
    /// machine shape disagrees with the checkpoint. The machine may be
    /// partially overwritten after an error and must be discarded.
    pub fn restore(&mut self, state: &MachineState) -> Result<(), SnapshotError> {
        let mut reader = state.body_reader()?;
        self.cycle = reader.get_u64()?;
        let core_count = reader.get_len()?;
        if core_count != self.cores.len() {
            return Err(SnapshotError::Invalid(format!(
                "snapshot holds {core_count} cores, machine has {}",
                self.cores.len()
            )));
        }
        for core in &mut self.cores {
            let records_consumed = reader.get_u64()?;
            core.instructions = reader.get_u64()?;
            core.finish_cycle = reader.get_u64()?;
            core.last_memory_completion = reader.get_u64()?;
            core.l1.load_state(&mut reader)?;
            core.l2.load_state(&mut reader)?;
            let has_stride = reader.get_bool()?;
            match (has_stride, core.l1_prefetcher.as_mut()) {
                (true, Some(prefetcher)) => prefetcher.load_state(&mut reader)?,
                (false, None) => {}
                _ => {
                    return Err(SnapshotError::Invalid(
                        "snapshot and machine disagree on the L1 stride prefetcher".to_owned(),
                    ))
                }
            }
            let tag = reader.get_str()?;
            let section = reader.get_section()?;
            if tag == core.l2_prefetcher.snapshot_tag() {
                let mut section_reader = StateReader::new(section);
                core.l2_prefetcher.load_state(&mut section_reader)?;
                section_reader.expect_end()?;
            }
            core.accounting = PrefetchAccounting {
                l2_demand_accesses: reader.get_u64()?,
                covered: reader.get_u64()?,
                uncovered: reader.get_u64()?,
                prefetches_issued: reader.get_u64()?,
                prefetches_used: reader.get_u64()?,
                prefetches_unused: reader.get_u64()?,
            };
            core.source.reset();
            for _ in 0..records_consumed {
                if core.source.next_record().is_none() {
                    return Err(SnapshotError::Invalid(format!(
                        "trace '{}' is shorter than the snapshot's {records_consumed} consumed records",
                        core.workload
                    )));
                }
            }
            core.records_consumed = records_consumed;
            core.pending = core.source.next_record();
            core.gap_remaining = core.pending.map_or(0, |r| r.gap);
            core.record_budget = u64::MAX;
            core.finished = false;
            core.rob.clear();
            core.rob_len = 0;
            core.load_completions.clear();
            core.inflight_prefetches = 0;
        }
        self.fab.llc.load_state(&mut reader)?;
        self.fab.dram.load_state(&mut reader)?;
        let mut pollution = PollutionTracker::default();
        pollution.counts.no_reuse = reader.get_u64()?;
        pollution.counts.prefetched_before_use = reader.get_u64()?;
        pollution.counts.bad_pollution = reader.get_u64()?;
        self.fab.pollution = pollution;
        self.fab.pending.reset();
        self.fab.ready_queue = ReadyQueue::new();
        reader.expect_end()?;
        Ok(())
    }
}

/// Applies one trace record in functional warm-up mode, mirroring
/// `demand_access`'s probe/train order without any timing: fills
/// that would arrive from DRAM materialize immediately, MSHR bounds and
/// pollution-victim tracking are skipped.
fn functional_access(
    core: &mut CoreState,
    llc: &mut Cache,
    bandwidth: dspatch_types::BandwidthQuartile,
    prefetch_budget: usize,
    record: &TraceRecord,
) {
    let line = record.addr.line();
    let access = MemoryAccess::new(record.pc, record.addr, record.kind).with_core(CoreId(core.id));

    let mut l1_sink = std::mem::take(&mut core.l1_sink);
    l1_sink.clear();
    if let Some(prefetcher) = core.l1_prefetcher.as_mut() {
        let ctx = PrefetchContext::at_cycle(0).with_bandwidth(bandwidth);
        prefetcher.on_access(&access, &ctx, &mut l1_sink);
    }

    if !core.l1.demand_lookup(line) {
        core.accounting.l2_demand_accesses += 1;
        functional_beyond_l1(core, llc, bandwidth, prefetch_budget, &access, line, true);
    }

    for request in l1_sink.requests() {
        let prefetch_line = request.line;
        if core.l1.prefetch_lookup(prefetch_line) {
            continue;
        }
        // An L1 prefetch miss trains the L2 prefetcher, as in the timed path.
        let pc = dspatch_types::Pc::new(0);
        let prefetch_access =
            MemoryAccess::new(pc, prefetch_line.to_addr(), dspatch_types::AccessKind::Load)
                .with_core(CoreId(core.id));
        functional_beyond_l1(
            core,
            llc,
            bandwidth,
            prefetch_budget,
            &prefetch_access,
            prefetch_line,
            false,
        );
        core.l1.fill(prefetch_line, true, false);
    }
    core.l1_sink = l1_sink;
}

/// Functional counterpart of `SharedFabric::access_beyond_l1` plus the L2
/// prefetcher training both timed call sites perform: probes L2 → LLC,
/// fills inner levels on the same conditions, updates coverage accounting,
/// then trains the L2 prefetcher and applies its requests as immediate
/// prefetch fills. At most `prefetch_budget` (the prefetch MSHR count)
/// requests are applied per training event — the timed engine drops
/// candidates beyond its in-flight MSHR budget on the floor, so applying
/// a dense pattern in full would warm the caches with lines the detailed
/// run never fetches (and dominate warm-up cost for aggressive patterns).
fn functional_beyond_l1(
    core: &mut CoreState,
    llc: &mut Cache,
    bandwidth: dspatch_types::BandwidthQuartile,
    prefetch_budget: usize,
    access: &MemoryAccess,
    line: LineAddr,
    count_coverage: bool,
) {
    let (l2_hit, l2_was_unused_prefetch) = core.l2.demand_lookup_first_use(line);
    if l2_hit {
        if count_coverage && l2_was_unused_prefetch {
            core.accounting.covered += 1;
            core.accounting.prefetches_used += 1;
        }
    } else {
        let (llc_hit, llc_first_use) = llc.demand_lookup_first_use(line);
        if llc_hit {
            if count_coverage && llc_first_use {
                core.accounting.covered += 1;
                core.accounting.prefetches_used += 1;
            }
        } else if count_coverage {
            core.accounting.uncovered += 1;
        }
        core.l2.fill(line, false, false);
        core.l1.fill(line, false, false);
        if !llc_hit {
            let _ = llc.fill(line, false, false);
        }
    }

    let mut l2_sink = std::mem::take(&mut core.l2_sink);
    l2_sink.clear();
    {
        let ctx = PrefetchContext::at_cycle(0)
            .with_cache_hit(l2_hit)
            .with_bandwidth(bandwidth);
        core.l2_prefetcher.on_access(access, &ctx, &mut l2_sink);
    }
    let mut applied = 0usize;
    for request in l2_sink.requests() {
        if applied >= prefetch_budget {
            break;
        }
        if core.l2.prefetch_lookup(request.line) {
            continue;
        }
        applied += 1;
        core.accounting.prefetches_issued += 1;
        let _ = llc.fill(request.line, true, request.low_priority);
        if request.fill_level != FillLevel::Llc {
            core.l2.fill(request.line, true, request.low_priority);
        }
    }
    core.l2_sink = l2_sink;
}

/// Steps one core for one cycle against `fab`: retire, then allocate,
/// issuing demand accesses and prefetches through the fabric.
fn step_core(core: &mut CoreState, fab: &mut SharedFabric, config: &SystemConfig, cycle: u64) {
    let width = config.core.width;
    let rob_entries = config.core.rob_entries;
    let load_buffer = config.core.load_buffer_entries;

    // Retire completed instructions from the ROB head (in order, up to
    // `width` per cycle; compressed runs retire count-wise).
    {
        if core.finished {
            return;
        }
        let mut retired = 0;
        while retired < width {
            match core.rob.front_mut() {
                Some(entry) if entry.completion <= cycle => {
                    let take = (width - retired).min(entry.count as usize);
                    entry.count -= take as u32;
                    core.rob_len -= take;
                    retired += take;
                    if entry.count == 0 {
                        core.rob.pop_front();
                    }
                }
                _ => break,
            }
        }
        core.drain_load_completions(cycle);
        if (core.pending.is_none() || core.record_budget == 0) && core.rob_len == 0 {
            core.finished = true;
            core.finish_cycle = cycle;
            return;
        }
    }

    // Allocate new instructions.
    let mut allocated = 0;
    while allocated < width {
        if core.rob_len >= rob_entries || core.pending.is_none() || core.record_budget == 0 {
            break;
        }
        if core.gap_remaining > 0 {
            // Batch every gap instruction this cycle can take: they all
            // complete next cycle, so they form (or extend) one ROB run.
            let take = (width - allocated)
                .min(core.gap_remaining as usize)
                .min(rob_entries - core.rob_len);
            core.rob_push(cycle + 1, take as u32);
            core.gap_remaining -= take as u32;
            core.instructions += take as u64;
            allocated += take;
            continue;
        }
        if core.load_completions.len() >= load_buffer {
            break;
        }
        let record = core.pending.expect("pending checked above");
        // A dependent (pointer-chasing) access cannot start before the
        // previous memory access has produced its value.
        let issue_cycle = if record.dependent {
            cycle.max(core.last_memory_completion)
        } else {
            cycle
        };
        let completion = demand_access(core, fab, config, &record, issue_cycle);
        core.last_memory_completion = completion;
        core.rob_push(completion, 1);
        core.load_completions.push(Reverse(completion));
        core.instructions += 1;
        core.records_consumed += 1;
        core.record_budget -= 1;
        core.pending = core.source.next_record();
        core.gap_remaining = core.pending.map_or(0, |r| r.gap);
        allocated += 1;
    }
}

/// Performs one demand access through the hierarchy and returns its
/// completion cycle.
fn demand_access(
    core: &mut CoreState,
    fab: &mut SharedFabric,
    config: &SystemConfig,
    record: &TraceRecord,
    cycle: u64,
) -> u64 {
    let line = record.addr.line();
    let l1_latency = config.l1.latency;
    let bandwidth = fab.quartile();
    let access = MemoryAccess::new(record.pc, record.addr, record.kind).with_core(CoreId(core.id));

    // L1 prefetcher observes every demand access at the L1. The sink is
    // taken out of the core for the duration of the call (a pointer swap,
    // not an allocation) so the borrow checker allows issuing through
    // `&mut core` while iterating it.
    let mut l1_sink = std::mem::take(&mut core.l1_sink);
    l1_sink.clear();
    if let Some(prefetcher) = core.l1_prefetcher.as_mut() {
        let ctx = PrefetchContext::at_cycle(cycle).with_bandwidth(bandwidth);
        prefetcher.on_access(&access, &ctx, &mut l1_sink);
    }

    // L1 probe.
    let l1_hit = core.l1.demand_lookup(line);
    let completion = if l1_hit {
        cycle + l1_latency
    } else {
        core.accounting.l2_demand_accesses += 1;
        let (latency, l2_hit) = fab.access_beyond_l1(core, line, cycle, true);
        // Train the L2 prefetcher on this L1 miss and issue its requests.
        let mut l2_sink = std::mem::take(&mut core.l2_sink);
        l2_sink.clear();
        {
            let ctx = PrefetchContext::at_cycle(cycle)
                .with_cache_hit(l2_hit)
                .with_bandwidth(bandwidth);
            core.l2_prefetcher.on_access(&access, &ctx, &mut l2_sink);
        }
        for request in l2_sink.requests() {
            if !fab.issue_l2_prefetch(core, request, cycle) {
                break;
            }
        }
        core.l2_sink = l2_sink;
        cycle + l1_latency + latency
    };

    // L1 prefetcher requests are handled after the demand so they never
    // shorten the triggering access itself.
    for request in l1_sink.requests() {
        issue_l1_prefetch(core, fab, request, cycle);
    }
    core.l1_sink = l1_sink;
    completion
}

/// Issues one request from the L1 stride prefetcher. L1 prefetch misses
/// also train the L2 prefetcher, matching the paper's methodology.
fn issue_l1_prefetch(
    core: &mut CoreState,
    fab: &mut SharedFabric,
    request: &PrefetchRequest,
    cycle: u64,
) {
    let line = request.line;
    if core.l1.prefetch_lookup(line) {
        return;
    }
    // The L1 prefetch misses the L1: it becomes an L2 access that also
    // trains the L2 prefetcher (as a prefetch-miss training event).
    let bandwidth = fab.quartile();
    let pc = dspatch_types::Pc::new(0);
    let access = MemoryAccess::new(pc, line.to_addr(), dspatch_types::AccessKind::Load)
        .with_core(CoreId(core.id));
    let (_, l2_hit) = fab.access_beyond_l1(core, line, cycle, false);
    // `demand_access` has already put the L2 sink back before
    // iterating the L1 requests, so taking it again here never aliases.
    let mut l2_sink = std::mem::take(&mut core.l2_sink);
    l2_sink.clear();
    {
        let ctx = PrefetchContext::at_cycle(cycle)
            .with_cache_hit(l2_hit)
            .with_bandwidth(bandwidth);
        core.l2_prefetcher.on_access(&access, &ctx, &mut l2_sink);
    }
    for request in l2_sink.requests() {
        if !fab.issue_l2_prefetch(core, request, cycle) {
            break;
        }
    }
    core.l2_sink = l2_sink;
    // Fill the line into the L1 as a prefetch.
    core.l1.fill(line, true, false);
}

impl SharedFabric {
    /// The DRAM bandwidth quartile the cores currently observe.
    fn quartile(&self) -> dspatch_types::BandwidthQuartile {
        self.dram.bandwidth_quartile()
    }

    /// Probes L2, LLC, the in-flight fills and DRAM for a demand access that
    /// already missed the L1. Returns `(latency beyond the L1 probe, l2_hit)`
    /// and performs the fills/accounting.
    fn access_beyond_l1(
        &mut self,
        core: &mut CoreState,
        line: LineAddr,
        cycle: u64,
        count_coverage: bool,
    ) -> (u64, bool) {
        let l2_latency = self.l2_latency;
        let llc_latency = self.llc_latency;

        // L2 probe.
        let (l2_hit, l2_was_unused_prefetch) = core.l2.demand_lookup_first_use(line);
        if l2_hit {
            if count_coverage && l2_was_unused_prefetch {
                core.accounting.covered += 1;
                core.accounting.prefetches_used += 1;
            }
            return (l2_latency, true);
        }

        // LLC probe.
        let (llc_hit, llc_first_use) = self.llc.demand_lookup_first_use(line);
        if llc_hit {
            if count_coverage && llc_first_use {
                core.accounting.covered += 1;
                core.accounting.prefetches_used += 1;
            }
            // Fill the inner levels (demand fill).
            core.l2.fill(line, false, false);
            core.l1.fill(line, false, false);
            self.pollution.observe_demand(line, false);
            return (l2_latency + llc_latency, false);
        }

        // In-flight fill (an earlier prefetch or demand to the same line) or
        // DRAM access — resolved with a single hash probe.
        let issue_cycle = cycle + l2_latency + llc_latency + DRAM_REQUEST_OVERHEAD;
        match self.pending.slot(line.as_u64()) {
            Slot::Occupied(fill) => {
                // A demand hitting an in-flight prefetch promotes it to
                // demand priority (as an MSHR hit would): re-issue the
                // request with demand priority and take whichever data
                // return is earlier.
                let was_prefetch = fill.is_prefetch && !fill.used_by_demand;
                fill.used_by_demand = true;
                fill.fill_l1 = true;
                fill.fill_l2 = true;
                fill.core = core.id;
                let old_ready = fill.ready;
                let promoted_ready = if was_prefetch && old_ready > issue_cycle {
                    let reissued = self.dram.access(line, issue_cycle, false);
                    fill.ready = fill.ready.min(reissued);
                    self.ready_queue.push(fill.ready, line.as_u64());
                    fill.ready
                } else {
                    old_ready
                };
                if count_coverage && was_prefetch {
                    core.accounting.covered += 1;
                    core.accounting.prefetches_used += 1;
                }
                self.pollution.observe_demand(line, false);
                let wait = promoted_ready.saturating_sub(cycle).max(1);
                (l2_latency + llc_latency + wait, false)
            }
            Slot::Vacant(vacant) => {
                // DRAM access.
                if count_coverage {
                    core.accounting.uncovered += 1;
                }
                self.pollution.observe_demand(line, true);
                let ready = self.dram.access(line, issue_cycle, false);
                vacant.insert(PendingFill {
                    ready,
                    core: core.id,
                    issuer: core.id,
                    is_prefetch: false,
                    fill_l1: true,
                    fill_l2: true,
                    low_priority: false,
                    used_by_demand: true,
                });
                self.ready_queue.push(ready, line.as_u64());
                (
                    l2_latency
                        + llc_latency
                        + DRAM_REQUEST_OVERHEAD
                        + ready.saturating_sub(issue_cycle),
                    false,
                )
            }
        }
    }

    /// Issues one request from the L2 prefetcher. Returns `false` when the
    /// core's prefetch MSHR budget is exhausted: the budget only grows
    /// within one access's issue loop, so the caller can stop iterating the
    /// remaining candidates — a full prefetch queue drops them on the
    /// floor, as the hardware's would.
    fn issue_l2_prefetch(
        &mut self,
        core: &mut CoreState,
        request: &PrefetchRequest,
        cycle: u64,
    ) -> bool {
        if core.inflight_prefetches >= self.prefetch_mshrs {
            return false;
        }
        let line = request.line;
        let key = line.as_u64();
        let fill_l2 = request.fill_level != FillLevel::Llc;
        if core.l2.prefetch_lookup(line) {
            return true; // already resident where it would be filled
        }
        // One hash probe decides in-flight filtering and books the fill.
        let Slot::Vacant(vacant) = self.pending.slot(key) else {
            return true;
        };
        core.accounting.prefetches_issued += 1;
        let ready = if self.llc.prefetch_lookup(line) {
            // The line is on-die already: pull it into the L2 without DRAM
            // traffic; model it as arriving after an LLC round trip.
            cycle + self.llc_latency
        } else {
            self.dram.access(line, cycle + DRAM_REQUEST_OVERHEAD, true)
        };
        vacant.insert(PendingFill {
            ready,
            core: core.id,
            issuer: core.id,
            is_prefetch: true,
            fill_l1: false,
            fill_l2,
            low_priority: request.low_priority,
            used_by_demand: false,
        });
        core.inflight_prefetches += 1;
        self.ready_queue.push(ready, key);
        true
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("cycle", &self.cycle)
            .field("cores", &self.cores.len())
            .field("pending_fills", &self.fab.pending.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::CacheStats;
    use crate::config::DramSpeedGrade;
    use crate::dram::DramStats;
    use dspatch_prefetchers::{StreamConfig, StreamPrefetcher};
    use dspatch_trace::{PatternGenerator, SpatialPatternGen, StreamGen, Trace};
    use dspatch_types::NullPrefetcher;

    fn stream_trace(len: usize, seed: u64) -> Trace {
        // A gap of ~50 non-memory instructions per access keeps the demand
        // stream below the DRAM bandwidth ceiling, so latency (and therefore
        // prefetching) is what limits performance.
        Trace::new(
            format!("stream-{seed}"),
            StreamGen {
                streams: 2,
                gap: 50,
                store_percent: 10,
            }
            .generate_records(seed, len),
        )
    }

    fn run_single(source: impl IntoTraceSource, prefetcher: impl Into<AnyPrefetcher>) -> SimResult {
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(source, prefetcher)
            .run()
    }

    #[test]
    fn simulation_terminates_and_counts_instructions() {
        let trace = stream_trace(2_000, 1);
        let expected_instructions = trace.instruction_count();
        let result = run_single(trace, NullPrefetcher::new());
        assert_eq!(result.cores.len(), 1);
        assert_eq!(result.cores[0].instructions, expected_instructions);
        assert!(result.cores[0].ipc() > 0.0);
        assert!(result.cycles > 0);
    }

    #[test]
    fn prefetching_a_stream_improves_ipc() {
        // Disable the L1 stride prefetcher so the L2 prefetcher's effect is
        // isolated (a pure unit-stride stream is otherwise fully covered at
        // the L1 already).
        let mut config = SystemConfig::single_thread();
        config.l1_stride_prefetcher = false;
        let run = |prefetcher: AnyPrefetcher| {
            SimulationBuilder::new(config.clone())
                .with_core(stream_trace(4_000, 2), prefetcher)
                .run()
        };
        let baseline = run(NullPrefetcher::new().into());
        let prefetched = run(StreamPrefetcher::new(StreamConfig::default()).into());
        let speedup = prefetched.speedup_over(&baseline);
        assert!(
            speedup > 1.10,
            "an aggressive streamer must speed up a streaming trace, got {speedup:.3}"
        );
    }

    #[test]
    fn dependent_chains_are_slower_than_independent_streams() {
        use dspatch_trace::PointerChaseGen;
        let chase = Trace::new(
            "chase",
            PointerChaseGen {
                nodes: 1 << 15,
                node_bytes: 192,
                gap: 10,
            }
            .generate_records(9, 2_000),
        );
        let stream = Trace::new(
            "stream",
            StreamGen {
                streams: 1,
                gap: 10,
                store_percent: 0,
            }
            .generate_records(9, 2_000),
        );
        let chase_result = run_single(chase, NullPrefetcher::new());
        let stream_result = run_single(stream, NullPrefetcher::new());
        assert!(
            chase_result.cores[0].ipc() < stream_result.cores[0].ipc() * 0.6,
            "serialized pointer chasing must be much slower (chase {:.3} vs stream {:.3})",
            chase_result.cores[0].ipc(),
            stream_result.cores[0].ipc()
        );
    }

    #[test]
    fn coverage_accounting_reflects_prefetch_hits() {
        let result = run_single(
            stream_trace(4_000, 3),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        let acc = result.total_accounting();
        assert!(acc.prefetches_issued > 0);
        assert!(
            acc.covered > 0,
            "stream prefetching must cover some L2 accesses"
        );
        assert!(acc.coverage() > 0.1);
        assert!(acc.covered + acc.uncovered <= acc.l2_demand_accesses);
    }

    #[test]
    fn null_prefetcher_has_zero_prefetch_traffic() {
        let result = run_single(stream_trace(2_000, 4), NullPrefetcher::new());
        let acc = result.total_accounting();
        assert_eq!(acc.prefetches_issued, 0);
        assert_eq!(acc.covered, 0);
        assert_eq!(result.dram.prefetch_accesses, 0);
    }

    #[test]
    fn dram_traffic_increases_with_prefetching() {
        let baseline = run_single(stream_trace(3_000, 5), NullPrefetcher::new());
        let prefetched = run_single(
            stream_trace(3_000, 5),
            StreamPrefetcher::new(StreamConfig {
                degree: 8,
                ..StreamConfig::default()
            }),
        );
        assert!(prefetched.dram.cas_commands >= baseline.dram.cas_commands);
        assert!(prefetched.dram.prefetch_accesses > 0);
    }

    #[test]
    fn multi_core_simulation_shares_llc_and_dram() {
        let config = SystemConfig::multi_programmed();
        let mut builder = SimulationBuilder::new(config);
        for seed in 0..4u64 {
            builder = builder.with_core(stream_trace(1_500, 10 + seed), NullPrefetcher::new());
        }
        let result = builder.run();
        assert_eq!(result.cores.len(), 4);
        for core in &result.cores {
            assert!(core.instructions > 0);
            assert!(core.ipc() > 0.0);
        }
        assert!(result.dram.cas_commands > 0);
    }

    /// A heterogeneous 4-core mix: two streams, a spatial workload and a
    /// pointer chase, under three different prefetchers.
    fn mixed_four_core(config: SystemConfig, accesses: usize) -> SimResult {
        use dspatch_trace::PointerChaseGen;
        let spatial = Trace::new(
            "spatial",
            SpatialPatternGen::default().generate_records(7, accesses),
        );
        let chase = Trace::new(
            "chase",
            PointerChaseGen {
                nodes: 1 << 14,
                node_bytes: 192,
                gap: 12,
            }
            .generate_records(9, accesses),
        );
        let aggressive = StreamPrefetcher::new(StreamConfig {
            degree: 8,
            ..StreamConfig::default()
        });
        SimulationBuilder::new(config)
            .with_core(
                stream_trace(accesses, 1),
                StreamPrefetcher::new(StreamConfig::default()),
            )
            .with_core(stream_trace(accesses, 2), NullPrefetcher::new())
            .with_core(spatial, aggressive)
            .with_core(chase, NullPrefetcher::new())
            .run()
    }

    #[test]
    fn multi_core_cycle_skipping_is_bit_identical() {
        let run = |skipping: bool| {
            let mut config = SystemConfig::multi_programmed();
            config.cycle_skipping = skipping;
            mixed_four_core(config, 700)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn max_cycles_valve_terminates_multi_core_runs() {
        let mut config = SystemConfig::multi_programmed();
        config.max_cycles = 10_000;
        let result = mixed_four_core(config, 200_000);
        assert!(result.cycles <= 10_000 + 1);
        assert_eq!(result.cores.len(), 4);
    }

    #[test]
    fn sharing_dram_slows_cores_down() {
        // The same workload on a 4-core system with shared channels should
        // achieve lower per-core IPC than alone on the single-thread system
        // with a whole channel to itself... unless it is cache-resident, so
        // use a spatially sparse trace that misses a lot.
        let sparse = |seed| {
            Trace::new(
                "sparse",
                SpatialPatternGen {
                    layouts: 8,
                    density: 12,
                    reorder_window: 4,
                    working_set_pages: 1 << 18,
                    gap: 2,
                }
                .generate_records(seed, 3_000),
            )
        };
        let alone = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(sparse(1), NullPrefetcher::new())
            .run();
        let mut builder = SimulationBuilder::new(SystemConfig::multi_programmed());
        for seed in 1..5u64 {
            builder = builder.with_core(sparse(seed), NullPrefetcher::new());
        }
        let shared = builder.run();
        assert!(
            shared.cores[0].ipc() <= alone.cores[0].ipc() * 1.05,
            "sharing memory bandwidth should not speed a core up (shared {:.3} vs alone {:.3})",
            shared.cores[0].ipc(),
            alone.cores[0].ipc()
        );
    }

    #[test]
    fn bandwidth_utilization_responds_to_memory_intensity() {
        let light = run_single(
            Trace::new(
                "light",
                StreamGen {
                    streams: 1,
                    gap: 60,
                    store_percent: 0,
                }
                .generate_records(7, 1_000),
            ),
            NullPrefetcher::new(),
        );
        let heavy = run_single(
            Trace::new(
                "heavy",
                StreamGen {
                    streams: 4,
                    gap: 0,
                    store_percent: 0,
                }
                .generate_records(7, 6_000),
            ),
            StreamPrefetcher::new(StreamConfig {
                degree: 8,
                ..StreamConfig::default()
            }),
        );
        assert!(heavy.dram.average_utilization() > light.dram.average_utilization());
    }

    #[test]
    fn pollution_tracking_classifies_streamer_victims() {
        // A small LLC plus an aggressive streamer on a sparse trace causes
        // prefetch fills to evict lines; most victims should be dead.
        let config = SystemConfig::single_thread().with_llc_capacity(256 * 1024);
        let trace = Trace::new(
            "sparse",
            SpatialPatternGen {
                layouts: 6,
                density: 10,
                reorder_window: 3,
                working_set_pages: 1 << 18,
                gap: 4,
            }
            .generate_records(11, 8_000),
        );
        let result = SimulationBuilder::new(config)
            .with_core(
                trace,
                StreamPrefetcher::new(StreamConfig {
                    degree: 6,
                    ..StreamConfig::default()
                }),
            )
            .run();
        assert!(
            result.pollution.total() > 0,
            "prefetch fills must evict something"
        );
        let (no_reuse, _, bad) = result.pollution.fractions();
        assert!(
            no_reuse > bad,
            "dead victims should dominate true pollution"
        );
    }

    /// Differential-tests the page-mask victim set against a line-keyed
    /// `HashSet` through a clustered insert/remove churn (512 pages, so
    /// most pages hold many victims), then drains it: a page's last
    /// removal frees its slot, and `len` counts lines, not pages.
    #[test]
    fn victim_set_behaves_like_a_line_set() {
        let mut set = VictimSet::with_page_capacity(16);
        let seeded = set.pages.slots();
        let mut reference = std::collections::HashSet::new();
        let mut state = 0x0123_4567_89AB_CDEF_u64;
        let distinct_pages = |reference: &std::collections::HashSet<u64>| {
            reference
                .iter()
                .map(|line| line >> 6)
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        for step in 0..200_000u32 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let line = (state >> 40) % (512 * 64);
            if state >> 63 == 0 {
                assert_eq!(set.insert(LineAddr::new(line)), reference.insert(line));
            } else {
                assert_eq!(set.remove(LineAddr::new(line)), reference.remove(&line));
            }
            assert_eq!(set.len(), reference.len());
            if step.is_multiple_of(1000) {
                assert_eq!(set.pages.len(), distinct_pages(&reference));
            }
        }
        assert!(
            set.len() > 16 * set.pages.len(),
            "{} lines on {} pages",
            set.len(),
            set.pages.len()
        );

        let mut per_page = std::collections::HashMap::new();
        for &line in &reference {
            *per_page.entry(line >> 6).or_insert(0usize) += 1;
        }
        let mut live: Vec<u64> = reference.iter().copied().collect();
        live.sort_unstable();
        for line in live {
            let pages_before = set.pages.len();
            assert!(set.remove(LineAddr::new(line)));
            assert!(!set.remove(LineAddr::new(line)));
            reference.remove(&line);
            assert_eq!(set.len(), reference.len());
            let left_on_page = per_page.get_mut(&(line >> 6)).expect("page counted");
            *left_on_page -= 1;
            let page_emptied = *left_on_page == 0;
            assert_eq!(set.pages.len(), pages_before - usize::from(page_emptied));
        }
        assert_eq!(set.len(), 0);
        assert!(set.pages.is_empty());
        assert_eq!(set.pages.slots(), seeded);
    }

    /// Past `POLLUTION_TRACK_CAP` victims, new victims are not tracked: they
    /// count neither as no-reuse nor as pollution when re-demanded.
    #[test]
    fn pollution_tracking_stops_at_the_cap() {
        let mut tracker = PollutionTracker::default();
        for line in 0..POLLUTION_TRACK_CAP as u64 + 10 {
            tracker.record_prefetch_victim(LineAddr::new(line));
        }
        let late = LineAddr::new(POLLUTION_TRACK_CAP as u64 + 5);
        tracker.observe_demand(late, true);
        tracker.observe_demand(late, false);
        let counts = tracker.finish();
        assert_eq!(counts.no_reuse, POLLUTION_TRACK_CAP as u64);
        assert_eq!(counts.bad_pollution, 0);
        assert_eq!(counts.prefetched_before_use, 0);
    }

    #[test]
    fn l1_stride_prefetcher_reduces_l1_misses_on_strided_code() {
        let trace = || stream_trace(3_000, 21);
        let mut with_cfg = SystemConfig::single_thread();
        with_cfg.l1_stride_prefetcher = true;
        let mut without_cfg = SystemConfig::single_thread();
        without_cfg.l1_stride_prefetcher = false;
        let with_stride = SimulationBuilder::new(with_cfg)
            .with_core(trace(), NullPrefetcher::new())
            .run();
        let without_stride = SimulationBuilder::new(without_cfg)
            .with_core(trace(), NullPrefetcher::new())
            .run();
        assert!(
            with_stride.cores[0].l1.miss_ratio() < without_stride.cores[0].l1.miss_ratio(),
            "the L1 stride prefetcher must reduce L1 demand misses"
        );
    }

    #[test]
    fn faster_dram_does_not_hurt() {
        let slow = SimulationBuilder::new(
            SystemConfig::single_thread().with_dram(1, DramSpeedGrade::Ddr4_1600),
        )
        .with_core(stream_trace(3_000, 31), NullPrefetcher::new())
        .run();
        let fast = SimulationBuilder::new(
            SystemConfig::single_thread().with_dram(2, DramSpeedGrade::Ddr4_2400),
        )
        .with_core(stream_trace(3_000, 31), NullPrefetcher::new())
        .run();
        assert!(fast.cores[0].ipc() >= slow.cores[0].ipc() * 0.99);
    }

    #[test]
    fn streaming_and_materialized_paths_are_bit_identical() {
        use dspatch_trace::{GeneratorSpec, SynthSource};
        let spec = GeneratorSpec::Spatial(SpatialPatternGen {
            layouts: 8,
            density: 12,
            reorder_window: 4,
            working_set_pages: 1 << 16,
            gap: 20,
        });
        let materialized = run_single(
            Trace::new("golden", spec.generate_records(13, 4_000)),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        let streamed = run_single(
            SynthSource::new("golden", spec, 13, 4_000).into_trace_source(),
            StreamPrefetcher::new(StreamConfig::default()),
        );
        assert_eq!(materialized, streamed);
    }

    #[test]
    fn results_echo_the_effective_cache_geometry() {
        // A non-power-of-two LLC rounds its set count up; the result must
        // say so rather than let reports quote the requested capacity.
        let config = SystemConfig::single_thread().with_llc_capacity(3 * 1024 * 1024);
        let result = SimulationBuilder::new(config)
            .with_core(stream_trace(500, 77), NullPrefetcher::new())
            .run();
        assert_eq!(result.cache_geometry.len(), 3);
        let llc = &result.cache_geometry[2];
        assert_eq!(llc.name, "LLC");
        assert_eq!(llc.requested_bytes, 3 * 1024 * 1024);
        assert!(llc.rounded);
        assert_eq!(llc.effective_bytes, 4 * 1024 * 1024);
        let l1 = &result.cache_geometry[0];
        assert!(!l1.rounded, "the paper's L1 is a power of two");
    }

    #[test]
    fn interval_run_issues_exactly_the_budgeted_records() {
        let mut machine = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(stream_trace(4_000, 91), NullPrefetcher::new())
            .into_machine();
        assert_eq!(machine.run_functional(1_000), 1_000);
        let result = machine.run_interval(500);
        let l1 = &result.cores[0].l1;
        assert_eq!(
            l1.demand_hits + l1.demand_misses,
            500,
            "an interval must probe the L1 exactly once per budgeted record"
        );
        assert!(result.cycles > 0);
        // The machine is back at a functional boundary and can keep going.
        assert_eq!(machine.run_functional(100), 100);
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let machine = || {
            SimulationBuilder::new(SystemConfig::single_thread())
                .with_core(
                    stream_trace(6_000, 42),
                    StreamPrefetcher::new(StreamConfig::default()),
                )
                .into_machine()
        };
        let mut original = machine();
        original.run_functional(2_000);
        let state = original.capture().unwrap();
        let uninterrupted = original.run_interval(1_000);

        let mut restored = machine();
        restored.restore(&state).unwrap();
        let resumed = restored.run_interval(1_000);
        assert_eq!(uninterrupted, resumed);

        // A disk round trip of the checkpoint changes nothing.
        let reloaded =
            crate::snapshot::MachineState::from_bytes(state.as_bytes().to_vec()).unwrap();
        let mut from_disk = machine();
        from_disk.restore(&reloaded).unwrap();
        assert_eq!(from_disk.run_interval(1_000), uninterrupted);
    }

    #[test]
    fn neutral_warmup_checkpoint_forks_across_prefetchers() {
        // Warm with the null prefetcher, restore into a streamer column:
        // caches arrive warm, the predictor starts fresh and still issues.
        let mut warm = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(stream_trace(6_000, 7), NullPrefetcher::new())
            .into_machine();
        warm.run_functional(3_000);
        let state = warm.capture().unwrap();

        let mut column = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(
                stream_trace(6_000, 7),
                StreamPrefetcher::new(StreamConfig::default()),
            )
            .into_machine();
        column.restore(&state).unwrap();
        let result = column.run_interval(1_000);
        assert!(result.cores[0].accounting.prefetches_issued > 0);
        let warm_l1 = result.cores[0].l1;
        assert!(
            warm_l1.demand_hits > 0,
            "warmed caches must serve some interval hits"
        );
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_simulation_is_rejected() {
        let _ = SimulationBuilder::new(SystemConfig::single_thread()).run();
    }

    #[test]
    #[should_panic(expected = "more cores supplied")]
    fn too_many_cores_are_rejected() {
        let _ = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(stream_trace(10, 1), NullPrefetcher::new())
            .with_core(stream_trace(10, 2), NullPrefetcher::new())
            .run();
    }

    /// The blended stream / spatial / pointer-chase trace of the harness's
    /// `perf::snapshot_single_source`: the same generators, seeds and
    /// phase lengths.
    fn snapshot_blend(accesses: usize) -> dspatch_trace::ChainSource {
        use dspatch_trace::{GeneratorSpec, PointerChaseGen, SynthSource};
        let third = accesses / 3;
        let phases = [
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
                    nodes: 1 << 14,
                    node_bytes: 192,
                    gap: 36,
                }),
                accesses - 2 * third,
            ),
        ];
        dspatch_trace::ChainSource::new(
            "perf-snapshot-single",
            phases
                .into_iter()
                .zip(0xD5..)
                .map(|((spec, len), seed)| {
                    Box::new(SynthSource::new("phase", spec, seed, len)) as Box<dyn TraceSource>
                })
                .collect(),
        )
    }

    /// Pins DSPatch+SPP on the snapshot blend at a length whose stream
    /// phase backs L1 stride-prefetch fills up behind DRAM, so the
    /// in-flight fill table grows past its seeded size and shrinks back.
    /// The values were captured with a table that never shrank: a table's
    /// capacity must never reach a simulated statistic.
    #[test]
    fn dspatch_spp_snapshot_blend_is_pinned() {
        let mut machine = SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(
                snapshot_blend(30_000),
                dspatch_prefetchers::any::composites::dspatch_plus_spp(),
            )
            .into_machine();
        let seeded = machine.fab.pending.slots();
        let mut peak = seeded;
        while !machine.cores.iter().all(|c| c.finished) {
            machine.step();
            peak = peak.max(machine.fab.pending.slots());
            machine.skip_idle_cycles();
        }
        assert!(peak > seeded, "the fill table never outgrew its seed");
        assert_eq!(
            machine.fab.pending.slots(),
            seeded,
            "the drained table shrinks back"
        );
        // Every core has finished, so `run` only assembles the result.
        let result = machine.run();

        assert_eq!(result.cycles, 3_460_196);
        let core = &result.cores[0];
        assert_eq!(core.instructions, 1_270_000);
        assert_eq!(core.finish_cycle, 3_460_196);
        assert_eq!(
            core.l1,
            CacheStats {
                demand_hits: 9_992,
                demand_misses: 20_008,
                demand_fills: 26_967,
                prefetch_fills: 9_996,
                prefetch_first_uses: 9_987,
                prefetch_unused_evictions: 4,
            }
        );
        assert_eq!(
            core.l2,
            CacheStats {
                demand_hits: 1_748,
                demand_misses: 28_256,
                demand_fills: 28_256,
                prefetch_fills: 28_881,
                prefetch_first_uses: 1_748,
                prefetch_unused_evictions: 26_944,
            }
        );
        assert_eq!(
            core.accounting,
            PrefetchAccounting {
                l2_demand_accesses: 20_008,
                covered: 5_041,
                uncovered: 14_967,
                prefetches_issued: 34_744,
                prefetches_used: 5_041,
                prefetches_unused: 29_703,
            }
        );
        assert_eq!(
            result.llc,
            CacheStats {
                demand_hits: 391,
                demand_misses: 27_865,
                demand_fills: 27_865,
                prefetch_fills: 29_130,
                prefetch_first_uses: 391,
                prefetch_unused_evictions: 21_421,
            }
        );
        assert_eq!(
            result.dram,
            DramStats {
                cas_commands: 57_729,
                row_hits: 19_610,
                row_misses: 38_119,
                prefetch_accesses: 32_392,
                utilization_sum: 996.752_616_766_609_3,
                windows: 4_004,
            }
        );
        assert_eq!(
            result.pollution,
            PollutionBreakdown {
                no_reuse: 11_803,
                prefetched_before_use: 35,
                bad_pollution: 708,
            }
        );
    }
}
