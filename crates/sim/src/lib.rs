//! A cycle-stepped, trace-driven memory-hierarchy simulator for prefetcher
//! evaluation.
//!
//! The DSPatch paper evaluates prefetchers on an in-house cycle-accurate
//! simulator modelling a Skylake-class core (Table 2). This crate provides
//! the substrate this reproduction uses instead:
//!
//! * [`cache`] — set-associative caches with LRU replacement, prefetch
//!   metadata and low-priority (pollution-bounding) insertion.
//! * [`dram`] — a DDR4 channel/bank timing model with row buffers, a CAS
//!   counter per 4×tRC window and the 2-bit bandwidth-utilization quartile
//!   broadcast DSPatch consumes (paper, Section 3.2).
//! * [`system`] — an approximate out-of-order core model (ROB- and
//!   load-buffer-limited memory-level parallelism, 4-wide retire) plus the
//!   L1/L2/LLC/DRAM hierarchy, for one core or four cores sharing the LLC
//!   and DRAM.
//! * [`stats`] — coverage / accuracy / pollution accounting used by the
//!   figures.
//! * [`config`] — Table 2 parameters and the DRAM speed grid of Figures 1,
//!   6 and 15.
//!
//! Traces reach the machine through the pull-based
//! [`dspatch_trace::TraceSource`] API, so a core holds O(1) trace state
//! however long the run: synthetic workloads are generated lazily, files
//! stream through a buffered reader, and an owned [`dspatch_trace::Trace`]
//! still works as the materialized adapter source.
//!
//! # Example
//!
//! ```
//! use dspatch_sim::{SimulationBuilder, SystemConfig};
//! use dspatch_trace::{GeneratorSpec, StreamGen, SynthSource};
//! use dspatch_types::NullPrefetcher;
//!
//! // A lazily-evaluated streaming source: no trace is ever materialized.
//! let source = SynthSource::new(
//!     "stream",
//!     GeneratorSpec::Stream(StreamGen::default()),
//!     1,
//!     2_000,
//! );
//! let result = SimulationBuilder::new(SystemConfig::single_thread())
//!     .with_core(source, NullPrefetcher::new())
//!     .run();
//! assert!(result.cores[0].ipc() > 0.0);
//! ```

pub mod cache;
pub mod config;
pub mod dram;
pub mod snapshot;
pub mod stats;
pub mod system;
pub mod tables;

pub use cache::{Cache, CacheConfig, CacheGeometry, CacheStats};
pub use config::{CoreConfig, DramConfig, DramSpeedGrade, SystemConfig};
pub use dram::{BandwidthTracker, Dram, DramStats};
pub use snapshot::MachineState;
pub use stats::{CoreResult, PollutionBreakdown, PrefetchAccounting, SimResult};
pub use system::{simulations_started, Machine, SimulationBuilder};
