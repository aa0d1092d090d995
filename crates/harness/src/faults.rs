//! Deterministic fault injection for the campaign executor.
//!
//! A [`FaultPlan`] poisons chosen `(target, prefetcher)` cells with panics
//! or I/O errors at fixed points: a fault either fires on every attempt
//! (proving quarantine) or only on the first `n` attempts (proving bounded
//! retry). Plans are immutable and consulted with pure lookups, so a
//! faulted campaign is exactly as deterministic as a clean one — the
//! integration tests in `tests/fault_tolerance.rs` rely on that to assert
//! that re-running a faulted campaign against its result store converges
//! bit-identically on the clean result. Damage to the store itself is
//! injected by editing its file, as a crash would.
//!
//! Production campaigns never construct a plan; the executor's fault hook
//! is `None` and every lookup short-circuits.

/// What kind of failure a poisoned cell produces, and for how long.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Panic on every attempt: the cell exhausts its retries and is
    /// quarantined.
    Panic,
    /// Panic on the first `failures` attempts, then succeed: exercises the
    /// bounded retry path.
    TransientPanic {
        /// Attempts that fail before the cell recovers.
        failures: u32,
    },
    /// Fail with a typed I/O error on every attempt (no panic machinery
    /// involved): quarantined as [`crate::error::HarnessError::CellIo`].
    Io,
    /// I/O-fail the first `failures` attempts, then succeed.
    TransientIo {
        /// Attempts that fail before the cell recovers.
        failures: u32,
    },
}

/// How a fired fault manifests inside the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The cell panics (caught by the executor's `catch_unwind`).
    Panic,
    /// The cell reports a typed I/O failure.
    Io,
}

impl Fault {
    /// Whether this fault fires on the given 1-based attempt, and how.
    pub fn fires_on(&self, attempt: u32) -> Option<FaultKind> {
        match self {
            Fault::Panic => Some(FaultKind::Panic),
            Fault::TransientPanic { failures } => {
                (attempt <= *failures).then_some(FaultKind::Panic)
            }
            Fault::Io => Some(FaultKind::Io),
            Fault::TransientIo { failures } => (attempt <= *failures).then_some(FaultKind::Io),
        }
    }
}

/// One poisoned cell: the fault fires for every job whose target name and
/// prefetcher label match (any config).
#[derive(Debug, Clone, PartialEq, Eq)]
struct FaultEntry {
    target: String,
    prefetcher: String,
    fault: Fault,
}

/// An immutable set of poisoned cells, consulted by the executor per
/// attempt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    entries: Vec<FaultEntry>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// Poisons the `(target, prefetcher)` cell. `prefetcher` is the display
    /// label (e.g. `"SPP"`, `"DSPatch+SPP"`, `"Baseline"`). Later entries
    /// for the same cell take precedence.
    pub fn poison(
        mut self,
        target: impl Into<String>,
        prefetcher: impl Into<String>,
        fault: Fault,
    ) -> Self {
        self.entries.push(FaultEntry {
            target: target.into(),
            prefetcher: prefetcher.into(),
            fault,
        });
        self
    }

    /// The fault poisoning this cell, if any.
    pub fn fault_for(&self, target: &str, prefetcher: &str) -> Option<Fault> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.target == target && e.prefetcher == prefetcher)
            .map(|e| e.fault)
    }

    /// Whether this fault plan fires on the given 1-based attempt of a
    /// cell, and how.
    pub fn arm(&self, target: &str, prefetcher: &str, attempt: u32) -> Option<FaultKind> {
        self.fault_for(target, prefetcher)
            .and_then(|fault| fault.fires_on(attempt))
    }

    /// Whether the plan poisons anything at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faults_fire_deterministically_per_attempt() {
        assert_eq!(Fault::Panic.fires_on(1), Some(FaultKind::Panic));
        assert_eq!(Fault::Panic.fires_on(99), Some(FaultKind::Panic));
        let transient = Fault::TransientPanic { failures: 2 };
        assert_eq!(transient.fires_on(1), Some(FaultKind::Panic));
        assert_eq!(transient.fires_on(2), Some(FaultKind::Panic));
        assert_eq!(transient.fires_on(3), None);
        assert_eq!(
            Fault::TransientIo { failures: 1 }.fires_on(1),
            Some(FaultKind::Io)
        );
        assert_eq!(Fault::TransientIo { failures: 1 }.fires_on(2), None);
    }

    #[test]
    fn plans_match_on_target_and_prefetcher() {
        let plan = FaultPlan::new()
            .poison("stream_1", "SPP", Fault::Panic)
            .poison("stream_1", "Baseline", Fault::Io);
        assert_eq!(plan.fault_for("stream_1", "SPP"), Some(Fault::Panic));
        assert_eq!(plan.fault_for("stream_1", "Baseline"), Some(Fault::Io));
        assert_eq!(plan.fault_for("stream_2", "SPP"), None);
        assert_eq!(plan.arm("stream_1", "SPP", 1), Some(FaultKind::Panic));
        assert_eq!(plan.arm("stream_2", "SPP", 1), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn later_entries_override_earlier_ones() {
        let plan = FaultPlan::new().poison("w", "SPP", Fault::Panic).poison(
            "w",
            "SPP",
            Fault::TransientIo { failures: 1 },
        );
        assert_eq!(
            plan.fault_for("w", "SPP"),
            Some(Fault::TransientIo { failures: 1 })
        );
        assert_eq!(plan.arm("w", "SPP", 1), Some(FaultKind::Io));
        assert_eq!(plan.arm("w", "SPP", 2), None, "the override recovers");
        assert_eq!(plan.fault_for("w", "Baseline"), None);
    }
}
