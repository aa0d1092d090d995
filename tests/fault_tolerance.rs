//! Fault-tolerance integration tests: per-job isolation and quarantine,
//! bounded deterministic retry, and kill-and-resume parity — a campaign
//! interrupted mid-flight and re-run against its crash-safe result store
//! must produce **bit-identical** output (rows, sims, rendered JSON/CSV,
//! and the spec-deterministic executor stats) to an uninterrupted run.
//!
//! All faults are injected through the deterministic
//! `dspatch_harness::faults::FaultPlan` harness, so every failure fires at
//! a fixed, reproducible point.

use dspatch_harness::campaign::{
    run_campaign, run_campaign_with, CampaignResult, CampaignSpec, CellSpec, ConfigSpec,
    ExecOptions, PrefetcherSel, RetryPolicy, TargetSelector,
};
use dspatch_harness::runner::{PrefetcherKind, RunScale};
use dspatch_harness::store::STORE_FILE;
use dspatch_harness::{Fault, FaultPlan, HarnessError, ResultStore};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

fn tiny() -> RunScale {
    RunScale {
        accesses_per_workload: 600,
        workloads_per_category: 1,
        mixes: 1,
        threads: 2,
        sampling: None,
    }
}

/// Two explicit workloads × (baseline + SPP + BOP): 6 deduplicated jobs.
fn spec() -> CampaignSpec {
    let pool = dspatch_trace::suite();
    CampaignSpec::single_cell(
        "fault tolerance",
        CellSpec {
            label: "cell".to_owned(),
            targets: TargetSelector::Workloads(vec![pool[0].name.clone(), pool[1].name.clone()]),
            prefetchers: vec![
                PrefetcherSel::Kind(PrefetcherKind::Spp),
                PrefetcherSel::Kind(PrefetcherKind::Bop),
            ],
            config: ConfigSpec::single_thread(),
            baseline: true,
        },
    )
}

/// A fresh, empty store directory per test.
fn temp_store(label: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dspatch_fault_tolerance_{label}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One run against the store in `dir`, opened fresh like a new process
/// would, and closed again when the run returns.
fn run_with_store(
    spec: &CampaignSpec,
    scale: &RunScale,
    dir: &Path,
    faults: Option<FaultPlan>,
) -> CampaignResult {
    let store = ResultStore::open(dir).expect("store opens");
    let opts = ExecOptions {
        retry: fast_retry(),
        faults,
        store: Some(Arc::new(Mutex::new(store))),
        ..ExecOptions::default()
    };
    run_campaign_with(spec, scale, &opts).expect("campaign runs")
}

/// Fast retries so transient-fault tests don't sleep for real.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 2,
        backoff_ms: 1,
    }
}

/// Every observable output a user can diff: rendered table, JSON document,
/// CSV, plus the raw rows/sims (SimResult is PartialEq, so this is
/// bit-level for every counter) and the spec-deterministic stats.
fn assert_bit_identical(a: &CampaignResult, b: &CampaignResult) {
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.sims, b.sims);
    assert_eq!(a.to_table().render(), b.to_table().render());
    assert_eq!(a.to_json().render(), b.to_json().render());
    assert_eq!(a.to_csv(), b.to_csv());
    // Baseline-memoization accounting must survive a resume unchanged.
    assert_eq!(a.stats.sims_run, b.stats.sims_run);
    assert_eq!(a.stats.baseline_sims, b.stats.baseline_sims);
    assert_eq!(a.stats.memo_hits, b.stats.memo_hits);
    assert_eq!(a.stats.threads, b.stats.threads);
}

#[test]
fn a_panicking_cell_is_quarantined_without_sinking_the_campaign() {
    let spec = spec();
    let scale = tiny();
    let reference = run_campaign(&spec, &scale).expect("clean run");
    let target = reference.rows[0].target.clone();

    let opts = ExecOptions {
        retry: fast_retry(),
        faults: Some(FaultPlan::new().poison(
            target.clone(),
            PrefetcherKind::Spp.label(),
            Fault::Panic,
        )),
        ..ExecOptions::default()
    };
    let result = run_campaign_with(&spec, &scale, &opts).expect("campaign must complete");

    // Exactly the poisoned (target, SPP) job is gone; every other row
    // survives with results identical to the clean run.
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.stats.quarantined, 1);
    let failure = &result.failures[0];
    assert_eq!(failure.target, target);
    assert_eq!(failure.prefetcher, PrefetcherKind::Spp.label());
    assert_eq!(failure.attempts, 2, "1 initial + 1 retry");
    match &failure.error {
        HarnessError::Quarantined { attempts, last, .. } => {
            assert_eq!(*attempts, 2);
            assert!(
                matches!(**last, HarnessError::CellPanic { .. }),
                "got {last:?}"
            );
        }
        other => panic!("expected Quarantined, got {other:?}"),
    }
    assert_eq!(result.rows.len(), reference.rows.len() - 1);
    assert!(!result
        .rows
        .iter()
        .any(|row| row.target == target && row.prefetcher == PrefetcherKind::Spp.label()));
    for row in &result.rows {
        let reference_row = reference
            .rows
            .iter()
            .find(|r| r.target == row.target && r.prefetcher == row.prefetcher)
            .expect("row exists in the clean run");
        assert_eq!(result.sim_of(row), reference.sim_of(reference_row));
        assert_eq!(
            result.speedup(row).map(f64::to_bits),
            reference.speedup(reference_row).map(f64::to_bits)
        );
    }
    // The quarantine is visible in the JSON document.
    let json = result.to_json();
    let failures = json
        .get("failures")
        .and_then(dspatch_harness::Json::as_arr)
        .expect("failures array present");
    assert_eq!(failures.len(), 1);
}

#[test]
fn a_quarantined_baseline_keeps_the_rows_without_speedups() {
    let spec = spec();
    let scale = tiny();
    let target = dspatch_trace::suite()[0].name.clone();
    let opts = ExecOptions {
        retry: fast_retry(),
        faults: Some(FaultPlan::new().poison(
            target.clone(),
            PrefetcherKind::Baseline.label(),
            Fault::Io,
        )),
        ..ExecOptions::default()
    };
    let result = run_campaign_with(&spec, &scale, &opts).expect("campaign must complete");
    assert_eq!(result.failures.len(), 1);
    assert!(
        matches!(
            &result.failures[0].error,
            HarnessError::Quarantined { last, .. } if matches!(**last, HarnessError::CellIo { .. })
        ),
        "got {:?}",
        result.failures[0].error
    );
    // Candidate rows for that target survive, but have no baseline to
    // normalize against.
    let affected: Vec<_> = result.rows.iter().filter(|r| r.target == target).collect();
    assert_eq!(affected.len(), 2, "SPP and BOP rows stay");
    for row in affected {
        assert!(row.baseline.is_none());
        assert!(result.speedup(row).is_none());
    }
}

#[test]
fn transient_faults_retry_and_converge_to_the_clean_result() {
    let spec = spec();
    let scale = tiny();
    let reference = run_campaign(&spec, &scale).expect("clean run");
    let target = reference.rows[0].target.clone();

    for fault in [
        Fault::TransientPanic { failures: 1 },
        Fault::TransientIo { failures: 1 },
    ] {
        let opts = ExecOptions {
            retry: fast_retry(),
            faults: Some(FaultPlan::new().poison(
                target.clone(),
                PrefetcherKind::Bop.label(),
                fault,
            )),
            ..ExecOptions::default()
        };
        let result = run_campaign_with(&spec, &scale, &opts).expect("campaign must complete");
        assert!(result.failures.is_empty(), "{fault:?} must recover");
        assert!(result.stats.retries >= 1, "{fault:?} must consume a retry");
        assert_bit_identical(&result, &reference);
    }

    // One failure more than the budget: quarantined after both attempts.
    let opts = ExecOptions {
        retry: fast_retry(),
        faults: Some(FaultPlan::new().poison(
            target,
            PrefetcherKind::Bop.label(),
            Fault::TransientPanic { failures: 2 },
        )),
        ..ExecOptions::default()
    };
    let result = run_campaign_with(&spec, &scale, &opts).expect("campaign must complete");
    assert_eq!(result.failures.len(), 1);
    assert_eq!(result.failures[0].attempts, 2);
}

#[test]
fn kill_and_resume_is_bit_identical_to_an_uninterrupted_run() {
    let spec = spec();
    let scale = tiny();
    let dir = temp_store("kill_resume");

    // The uninterrupted reference: store-backed, fault-free.
    let reference = run_with_store(&spec, &scale, &dir, None);
    assert!(reference.failures.is_empty());
    assert_eq!(reference.stats.store_hits, 0);

    // "Kill" the campaign mid-flight: keep the meta line and the first two
    // completed-cell records, as if the process died before the rest.
    let path = dir.join(STORE_FILE);
    let full = std::fs::read_to_string(&path).expect("store readable");
    let lines: Vec<&str> = full.lines().collect();
    assert!(lines.len() >= 4, "expected meta + >=3 records");
    let truncated: String = lines[..3].iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(&path, truncated).expect("truncate store");

    // Re-run: only the missing cells re-execute.
    let resumed = run_with_store(&spec, &scale, &dir, None);
    assert_eq!(
        resumed.stats.store_hits, 2,
        "two cells served from the store"
    );
    assert_bit_identical(&resumed, &reference);

    // The store is whole again: a second re-run serves everything.
    let replayed = run_with_store(&spec, &scale, &dir, None);
    assert_eq!(replayed.stats.store_hits, replayed.stats.sims_run);
    assert_bit_identical(&replayed, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mid_campaign_panic_resumes_into_the_clean_result() {
    let spec = spec();
    let scale = tiny();
    let reference = run_campaign(&spec, &scale).expect("clean run");
    let target = reference.rows[0].target.clone();
    let dir = temp_store("panic_resume");

    // First run: store-backed, with one cell poisoned to panic every
    // attempt. The campaign completes with that cell quarantined; the store
    // holds every *other* cell.
    let faults = FaultPlan::new().poison(target, PrefetcherKind::Spp.label(), Fault::Panic);
    let faulted = run_with_store(&spec, &scale, &dir, Some(faults));
    assert_eq!(faulted.failures.len(), 1);

    // Re-run without the fault: exactly the quarantined cell re-executes
    // (quarantines are never stored), and the merged result is
    // bit-identical to the uninterrupted fault-free run.
    let resumed = run_with_store(&spec, &scale, &dir, None);
    assert!(resumed.failures.is_empty());
    assert_eq!(
        resumed.stats.store_hits,
        resumed.stats.sims_run - 1,
        "only the quarantined cell re-executed"
    );
    assert_bit_identical(&resumed, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_torn_store_tail_is_recovered_on_rerun() {
    let spec = spec();
    let scale = tiny();
    let dir = temp_store("torn_tail");
    let reference = run_with_store(&spec, &scale, &dir, None);

    // Tear the final record mid-bytes — the kill -9 signature.
    let path = dir.join(STORE_FILE);
    let bytes = std::fs::read(&path).expect("store readable");
    std::fs::write(&path, &bytes[..bytes.len() - 25]).expect("tear");

    let resumed = run_with_store(&spec, &scale, &dir, None);
    assert_eq!(
        resumed.stats.store_hits,
        resumed.stats.sims_run - 1,
        "only the torn cell re-executed"
    );
    assert_bit_identical(&resumed, &reference);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_different_scale_misses_the_store_but_a_different_thread_count_does_not() {
    let spec = spec();
    let scale = tiny();
    let dir = temp_store("rescale");
    run_with_store(&spec, &scale, &dir, None);

    // A different access count is a different cell identity: nothing from
    // the first run may be served for it...
    let mut rescaled = scale;
    rescaled.accesses_per_workload = 700;
    let result = run_with_store(&spec, &rescaled, &dir, None);
    assert_eq!(result.stats.store_hits, 0);

    // ...but a different thread count is not: results never depend on it.
    let mut rethreaded = scale;
    rethreaded.threads = 1;
    let result = run_with_store(&spec, &rethreaded, &dir, None);
    assert_eq!(result.stats.store_hits, result.stats.sims_run);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mid_file_store_damage_is_a_typed_error_on_rerun() {
    let spec = spec();
    let scale = tiny();
    let dir = temp_store("corrupt");
    run_with_store(&spec, &scale, &dir, None);

    // Cut the first record (line 2) in half: with whole records after it,
    // this is *mid-file* corruption — a hard error, unlike a torn tail.
    let path = dir.join(STORE_FILE);
    let text = std::fs::read_to_string(&path).expect("store readable");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    assert!(lines.len() >= 3, "expected meta + >=2 records");
    let half = lines[1].len() / 2;
    lines[1].truncate(half);
    let damaged: String = lines.iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(&path, damaged).expect("damage store");

    let err = ResultStore::open(&dir).expect_err("must refuse");
    match &err {
        HarnessError::Corrupt { line, .. } => assert_eq!(*line, 2),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
