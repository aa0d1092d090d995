//! The crash-safe, append-only campaign journal.
//!
//! A journal is a JSON-lines file (one compact [`Json`] document per line,
//! rendered by the existing `harness::json` layer): a meta line binding the
//! file to one `(campaign, spec, scale)` fingerprint, then one line per
//! completed cell — `{"sim": {...}}` with the full, exactly-serialized
//! [`SimResult`], or `{"failure": {...}}` recording a quarantined cell.
//! Every record is written and flushed as one line *after* its multi-second
//! simulation finishes, so journaling never touches the per-access hot loop
//! and a `kill -9` can lose at most the in-flight line.
//!
//! On resume, [`read_journal`] verifies the meta line (campaign name, spec
//! fingerprint, journal version — a mismatch is a typed
//! [`HarnessError::Mismatch`], not silent garbage), loads every completed
//! sim, tolerates exactly one torn final line (the crash case, truncated
//! away before appending resumes), and reports any *mid-file* corruption as
//! [`HarnessError::Corrupt`] with its line number. Failure records are
//! ignored on load so quarantined cells re-execute.
//!
//! The result round-trip is exact: `u64` counters encode as JSON numbers
//! below 2^53 and as decimal strings above (the same convention spec seeds
//! use), and `f64` fields rely on the emitter's shortest-round-trip
//! rendering — a resumed campaign's merged output is bit-identical to an
//! uninterrupted run (`tests/fault_tolerance.rs` asserts it).
//!
//! Since format version 2 a sim record carries a full canonical
//! [`ResultRow`] (`{"sim": {"key", "row"}}`) instead of a bare result, so
//! the journal shares one schema with the store and the analytics layer.
//! Version-1 records (`{"sim": {"key", "result"}}`) still parse — the
//! upgrade path is exercised by the committed fixtures in
//! `tests/fixtures/`.

use crate::error::HarnessError;
use crate::json::Json;
use crate::results::{json_u64, ResultRow};
use crate::runner::RunScale;
use dspatch_sim::SimResult;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

// The exact `SimResult` serializers historically lived here; they are now
// the schema module's, re-exported so existing callers keep compiling.
pub use crate::results::{sim_result_from_json, sim_result_to_json};

/// Magic value of the meta line's `journal` field.
const JOURNAL_MAGIC: &str = "dspatch-campaign-journal";
/// Journal format version (sim records carry [`ResultRow`]s).
const JOURNAL_VERSION: u64 = 2;
/// Oldest journal version still readable (bare-result sim records).
const JOURNAL_MIN_VERSION: u64 = 1;

/// FNV-1a 64-bit over a byte stream — stable, dependency-free fingerprint.
/// The one fingerprint hash: journal, result-store and checkpoint
/// identities all go through it.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Fingerprint binding a journal to one `(spec, scale)` identity, rendered
/// as 16 hex digits. `threads` is excluded: it is a machine knob that never
/// changes results (the executor is deterministic for any worker count), so
/// a journal written on an 8-thread box resumes on a 2-thread one.
pub fn campaign_fingerprint(spec_json: &Json, scale: &RunScale) -> String {
    let mut identity = format!(
        "{}|a{}|w{}|m{}",
        spec_json.render_compact(),
        scale.accesses_per_workload,
        scale.workloads_per_category,
        scale.mixes,
    );
    // Sampled and exact runs of the same spec must never alias: the plan
    // joins the identity, but only when present so existing exact journals
    // keep their fingerprints.
    if let Some(plan) = &scale.sampling {
        identity.push_str(&plan.fingerprint_suffix());
    }
    format!("{:016x}", fnv1a(identity.as_bytes()))
}

/// The identity a journal is bound to, checked on resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalMeta {
    /// Campaign name.
    pub campaign: String,
    /// [`campaign_fingerprint`] of the spec + scale.
    pub fingerprint: String,
}

impl JournalMeta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("journal", Json::str(JOURNAL_MAGIC)),
            ("version", json_u64(JOURNAL_VERSION)),
            ("campaign", Json::str(&self.campaign)),
            ("fingerprint", Json::str(&self.fingerprint)),
        ])
    }
}

/// Everything [`read_journal`] recovered from a journal file.
#[derive(Debug, Default)]
pub struct JournalContents {
    /// Completed simulations by job key.
    pub sims: HashMap<String, SimResult>,
    /// Failure records seen (job key per record); informational — failed
    /// cells re-execute on resume.
    pub failures: Vec<String>,
    /// Byte length of the clean prefix: everything after it (at most one
    /// torn final line) is truncated away before appending resumes.
    pub clean_len: u64,
}

/// Reads and verifies a journal for resumption.
///
/// # Errors
///
/// * [`HarnessError::Io`] — the file cannot be opened or read.
/// * [`HarnessError::Mismatch`] — the meta line names a different campaign
///   or fingerprint (or an unsupported journal version).
/// * [`HarnessError::Corrupt`] — a record other than the final line is
///   unparsable or structurally invalid (a torn *final* line is the normal
///   crash case and is silently dropped; mid-file damage is not).
pub fn read_journal(path: &Path, expected: &JournalMeta) -> Result<JournalContents, HarnessError> {
    let display = path.display().to_string();
    let file =
        std::fs::File::open(path).map_err(|e| HarnessError::io(display.clone(), "open", &e))?;
    let mut reader = BufReader::new(file);
    let mut contents = JournalContents::default();
    let mut line = String::new();
    let mut line_no = 0u64;
    let mut offset = 0u64;
    loop {
        line.clear();
        let bytes = reader
            .read_line(&mut line)
            .map_err(|e| HarnessError::io(display.clone(), "read", &e))?;
        if bytes == 0 {
            break;
        }
        line_no += 1;
        let complete = line.ends_with('\n');
        let parsed = if complete {
            parse_journal_line(line.trim_end(), line_no, &display, expected)
        } else {
            Err(HarnessError::Corrupt {
                path: display.clone(),
                line: line_no,
                message: "record has no trailing newline".to_owned(),
            })
        };
        match parsed {
            Ok(record) => {
                if line_no == 1 {
                    // Line 1 is the meta line, verified inside the parser.
                } else {
                    match record {
                        JournalRecord::Meta => {}
                        JournalRecord::Sim { key, result } => {
                            contents.sims.insert(key, *result);
                        }
                        JournalRecord::Failure { key } => contents.failures.push(key),
                    }
                }
                offset += bytes as u64;
            }
            Err(error) => {
                // A bad FINAL line is the torn-write crash signature: drop
                // it and resume from the clean prefix. Anything earlier is
                // real corruption. Mismatch errors always propagate — a
                // foreign journal must never be silently overwritten.
                let at_eof = {
                    let probe = reader
                        .fill_buf()
                        .map_err(|e| HarnessError::io(display.clone(), "read", &e))?;
                    probe.is_empty()
                };
                if at_eof && line_no > 1 && matches!(error, HarnessError::Corrupt { .. }) {
                    break;
                }
                return Err(error);
            }
        }
    }
    contents.clean_len = offset;
    Ok(contents)
}

enum JournalRecord {
    Meta,
    Sim { key: String, result: Box<SimResult> },
    Failure { key: String },
}

fn parse_journal_line(
    text: &str,
    line_no: u64,
    display: &str,
    expected: &JournalMeta,
) -> Result<JournalRecord, HarnessError> {
    let corrupt = |message: String| HarnessError::Corrupt {
        path: display.to_owned(),
        line: line_no,
        message,
    };
    let json = Json::parse(text).map_err(|e| corrupt(e.to_string()))?;
    if line_no == 1 {
        let magic = json.get("journal").and_then(Json::as_str).unwrap_or("");
        if magic != JOURNAL_MAGIC {
            return Err(corrupt(format!(
                "not a campaign journal (magic '{magic}', want '{JOURNAL_MAGIC}')"
            )));
        }
        let version = json.get("version").and_then(Json::as_u64).unwrap_or(0);
        if !(JOURNAL_MIN_VERSION..=JOURNAL_VERSION).contains(&version) {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "version",
                expected: JOURNAL_VERSION.to_string(),
                found: version.to_string(),
            });
        }
        let campaign = json.get("campaign").and_then(Json::as_str).unwrap_or("");
        if campaign != expected.campaign {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "campaign",
                expected: expected.campaign.clone(),
                found: campaign.to_owned(),
            });
        }
        let fingerprint = json.get("fingerprint").and_then(Json::as_str).unwrap_or("");
        if fingerprint != expected.fingerprint {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "fingerprint",
                expected: expected.fingerprint.clone(),
                found: fingerprint.to_owned(),
            });
        }
        return Ok(JournalRecord::Meta);
    }
    if let Some(sim) = json.get("sim") {
        let key = sim
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("sim record missing string 'key'".to_owned()))?
            .to_owned();
        // Version 2 records carry a full canonical row; version 1 records a
        // bare result. Both shapes are accepted regardless of the meta
        // line's version so mixed files (a v1 journal resumed by v2 code)
        // stay readable.
        let result = if let Some(row) = sim.get("row") {
            ResultRow::from_json(row).map_err(corrupt)?.result
        } else {
            sim.get("result")
                .ok_or_else(|| corrupt("sim record missing 'row' or 'result'".to_owned()))
                .and_then(|result| sim_result_from_json(result).map_err(corrupt))?
        };
        return Ok(JournalRecord::Sim {
            key,
            result: Box::new(result),
        });
    }
    if let Some(failure) = json.get("failure") {
        let key = failure
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("failure record missing string 'key'".to_owned()))?
            .to_owned();
        return Ok(JournalRecord::Failure { key });
    }
    Err(corrupt(format!("unknown record shape: {text}")))
}

/// The append side: owns the file handle, writes one flushed line per
/// completed cell. Constructed once per campaign (fresh or resumed) and
/// shared behind a mutex by the executor's workers — the lock is taken once
/// per finished simulation, never on the simulation hot path.
#[derive(Debug)]
pub struct JournalWriter {
    path: PathBuf,
    file: std::fs::File,
}

impl JournalWriter {
    /// Creates (or truncates) a journal and writes the meta line.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the file cannot be created or
    /// written.
    pub fn create(path: &Path, meta: &JournalMeta) -> Result<Self, HarnessError> {
        let display = path.display().to_string();
        let file = std::fs::File::create(path)
            .map_err(|e| HarnessError::io(display.clone(), "create", &e))?;
        let mut writer = Self {
            path: path.to_path_buf(),
            file,
        };
        writer.write_line(&meta.to_json().render_compact())?;
        Ok(writer)
    }

    /// Opens an existing journal for appending after [`read_journal`],
    /// truncating the torn tail (if any) at `clean_len` first.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] if the file cannot be opened, truncated
    /// or positioned.
    pub fn resume(path: &Path, clean_len: u64) -> Result<Self, HarnessError> {
        let display = path.display().to_string();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| HarnessError::io(display.clone(), "open", &e))?;
        file.set_len(clean_len)
            .map_err(|e| HarnessError::io(display.clone(), "truncate", &e))?;
        let mut file = file;
        file.seek(SeekFrom::Start(clean_len))
            .map_err(|e| HarnessError::io(display.clone(), "seek", &e))?;
        Ok(Self {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one completed simulation as a canonical [`ResultRow`].
    /// `corrupt` mangles the record (the
    /// [`crate::faults::Fault::CorruptJournal`] injection) so recovery tests
    /// can produce mid-file damage deterministically.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on write failure.
    pub fn append_sim(
        &mut self,
        key: &str,
        row: &ResultRow,
        corrupt: bool,
    ) -> Result<(), HarnessError> {
        let record = Json::obj([(
            "sim",
            Json::obj([("key", Json::str(key)), ("row", row.to_json())]),
        )]);
        let mut line = record.render_compact();
        if corrupt {
            // Deterministic mangling: chop the record in half mid-JSON.
            line.truncate(line.len() / 2);
        }
        self.write_line(&line)
    }

    /// Appends one quarantined-cell failure record.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on write failure.
    pub fn append_failure(
        &mut self,
        key: &str,
        error: &HarnessError,
        attempts: u32,
    ) -> Result<(), HarnessError> {
        let record = Json::obj([(
            "failure",
            Json::obj([
                ("key", Json::str(key)),
                ("attempts", json_u64(u64::from(attempts))),
                ("error", error.to_json()),
            ]),
        )]);
        self.write_line(&record.render_compact())
    }

    /// One line = one record, flushed immediately: a crash loses at most
    /// the in-flight line, which resume recognizes as the torn tail.
    fn write_line(&mut self, line: &str) -> Result<(), HarnessError> {
        let display = self.path.display().to_string();
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.flush())
            .map_err(|e| HarnessError::io(display, "write", &e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_sim::stats::{IntervalEstimate, SamplingStats};
    use dspatch_sim::{
        CacheGeometry, CacheStats, CoreResult, DramStats, PollutionBreakdown, PrefetchAccounting,
    };

    fn row(sim: &SimResult) -> ResultRow {
        ResultRow::new(
            "0000000000000000".to_owned(),
            "test".to_owned(),
            "stream_1".to_owned(),
            "SPP".to_owned(),
            "1T".to_owned(),
            1000,
            String::new(),
            sim.clone(),
        )
    }

    fn temp_path(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "dspatch_journal_{label}_{}.jsonl",
            std::process::id()
        ))
    }

    fn sample_sim() -> SimResult {
        SimResult {
            cores: vec![CoreResult {
                workload: "stream_1".to_owned(),
                prefetcher: "SPP".to_owned(),
                instructions: 123_456,
                finish_cycle: 654_321,
                l1: CacheStats {
                    demand_hits: 1,
                    demand_misses: 2,
                    demand_fills: 3,
                    prefetch_fills: 4,
                    prefetch_first_uses: 5,
                    prefetch_unused_evictions: 6,
                },
                l2: CacheStats::default(),
                accounting: PrefetchAccounting {
                    l2_demand_accesses: 7,
                    covered: 8,
                    uncovered: 9,
                    prefetches_issued: 10,
                    prefetches_used: 11,
                    prefetches_unused: 12,
                },
            }],
            llc: CacheStats {
                demand_hits: 99,
                ..CacheStats::default()
            },
            dram: DramStats {
                cas_commands: 1 << 54, // above 2^53: exercises the string form
                row_hits: 14,
                row_misses: 15,
                prefetch_accesses: 16,
                utilization_sum: 0.1 + 0.2, // a value with no short decimal form
                windows: 17,
            },
            pollution: PollutionBreakdown {
                no_reuse: 18,
                prefetched_before_use: 19,
                bad_pollution: 20,
            },
            cycles: 987_654_321,
            cache_geometry: vec![CacheGeometry {
                name: "LLC".to_owned(),
                requested_bytes: 2 << 20,
                ways: 16,
                sets: 2048,
                effective_bytes: 2 << 20,
                rounded: false,
            }],
            sampling: None,
        }
    }

    fn sampled_sim() -> SimResult {
        SimResult {
            sampling: Some(SamplingStats {
                warmup_accesses: 2_000_000,
                interval_accesses: 200_000,
                intervals: 10,
                seed: 3,
                ipc: IntervalEstimate {
                    mean: 1.25,
                    ci95: 0.04,
                },
                coverage: IntervalEstimate {
                    mean: 0.5,
                    ci95: 0.01,
                },
                accuracy: IntervalEstimate {
                    mean: 0.75,
                    ci95: 0.02,
                },
            }),
            ..sample_sim()
        }
    }

    fn meta() -> JournalMeta {
        JournalMeta {
            campaign: "test".to_owned(),
            fingerprint: "00ff00ff00ff00ff".to_owned(),
        }
    }

    #[test]
    fn sim_results_round_trip_exactly() {
        let sim = sample_sim();
        let json = sim_result_to_json(&sim);
        // Through a full render/parse cycle, like a real journal line.
        let reparsed = Json::parse(&json.render_compact()).expect("renders valid JSON");
        let back = sim_result_from_json(&reparsed).expect("parses back");
        assert_eq!(back, sim);
        assert_eq!(
            back.dram.utilization_sum.to_bits(),
            sim.dram.utilization_sum.to_bits()
        );
        assert_eq!(back.dram.cas_commands, 1 << 54);
        // Byte parity for exact runs: the optional sampling key must be
        // absent, not null, so pre-sampling journals stay byte-identical.
        assert!(!json.render_compact().contains("sampling"));
    }

    #[test]
    fn sampled_sim_results_round_trip_with_cis() {
        let sim = sampled_sim();
        let json = sim_result_to_json(&sim);
        let reparsed = Json::parse(&json.render_compact()).expect("renders valid JSON");
        let back = sim_result_from_json(&reparsed).expect("parses back");
        assert_eq!(back, sim);
        let stats = back.sampling.expect("sampling survives the round trip");
        assert_eq!(stats.intervals, 10);
        assert!((stats.ipc.ci95 - 0.04).abs() < 1e-12);
    }

    #[test]
    fn sampling_plans_change_the_campaign_fingerprint() {
        let spec = Json::obj([("name", Json::str("fp"))]);
        let exact = RunScale::smoke();
        let sampled = RunScale {
            sampling: Some(crate::sampling::SamplingPlan {
                warmup_accesses: 100,
                interval_accesses: 10,
                intervals: 2,
                seed: 0,
            }),
            ..RunScale::smoke()
        };
        assert_ne!(
            campaign_fingerprint(&spec, &exact),
            campaign_fingerprint(&spec, &sampled)
        );
        let reseeded = RunScale {
            sampling: sampled
                .sampling
                .map(|p| crate::sampling::SamplingPlan { seed: 9, ..p }),
            ..sampled
        };
        assert_ne!(
            campaign_fingerprint(&spec, &sampled),
            campaign_fingerprint(&spec, &reseeded)
        );
    }

    #[test]
    fn journal_write_read_cycle() {
        let path = temp_path("cycle");
        let mut writer = JournalWriter::create(&path, &meta()).expect("create");
        let sim = sample_sim();
        writer
            .append_sim("job-a", &row(&sim), false)
            .expect("append");
        writer
            .append_failure(
                "job-b",
                &HarnessError::CellPanic {
                    job: "job-b".to_owned(),
                    message: "boom".to_owned(),
                },
                2,
            )
            .expect("append failure");
        drop(writer);
        let contents = read_journal(&path, &meta()).expect("read back");
        assert_eq!(contents.sims.len(), 1);
        assert_eq!(contents.sims["job-a"], sim);
        assert_eq!(contents.failures, vec!["job-b".to_owned()]);
        assert_eq!(
            contents.clean_len,
            std::fs::metadata(&path).expect("stat").len()
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated_on_resume() {
        let path = temp_path("torn");
        let mut writer = JournalWriter::create(&path, &meta()).expect("create");
        let sim = sample_sim();
        writer
            .append_sim("job-a", &row(&sim), false)
            .expect("append");
        writer
            .append_sim("job-b", &row(&sim), false)
            .expect("append");
        drop(writer);
        // Tear the final line mid-record, like a kill -9 mid-write.
        let bytes = std::fs::read(&path).expect("read");
        let torn_len = bytes.len() - 40;
        std::fs::write(&path, &bytes[..torn_len]).expect("tear");
        let contents = read_journal(&path, &meta()).expect("torn tail is tolerated");
        assert_eq!(contents.sims.len(), 1, "only the intact record survives");
        assert!(contents.sims.contains_key("job-a"));
        assert!((contents.clean_len as usize) < torn_len);
        // Resuming truncates the tail so appends start on a clean boundary.
        let mut writer = JournalWriter::resume(&path, contents.clean_len).expect("resume");
        writer
            .append_sim("job-b", &row(&sim), false)
            .expect("re-append");
        drop(writer);
        let contents = read_journal(&path, &meta()).expect("read again");
        assert_eq!(contents.sims.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_typed_error_with_line_number() {
        let path = temp_path("midfile");
        let mut writer = JournalWriter::create(&path, &meta()).expect("create");
        let sim = sample_sim();
        writer
            .append_sim("job-a", &row(&sim), true)
            .expect("corrupt record");
        writer
            .append_sim("job-b", &row(&sim), false)
            .expect("good record");
        drop(writer);
        let err = read_journal(&path, &meta()).expect_err("must reject");
        match &err {
            HarnessError::Corrupt { line, .. } => assert_eq!(*line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_journals_are_a_mismatch_not_garbage() {
        let path = temp_path("foreign");
        let writer = JournalWriter::create(&path, &meta()).expect("create");
        drop(writer);
        let other = JournalMeta {
            campaign: "test".to_owned(),
            fingerprint: "1111111111111111".to_owned(),
        };
        let err = read_journal(&path, &other).expect_err("must reject");
        match &err {
            HarnessError::Mismatch { field, .. } => assert_eq!(*field, "fingerprint"),
            other => panic!("expected Mismatch, got {other:?}"),
        }
        let renamed = JournalMeta {
            campaign: "different".to_owned(),
            fingerprint: meta().fingerprint,
        };
        let err = read_journal(&path, &renamed).expect_err("must reject");
        assert!(matches!(
            err,
            HarnessError::Mismatch {
                field: "campaign",
                ..
            }
        ));
        // A non-journal file is corrupt even on line 1.
        std::fs::write(&path, "{\"not\": \"a journal\"}\n").expect("write");
        let err = read_journal(&path, &meta()).expect_err("must reject");
        assert!(matches!(err, HarnessError::Corrupt { line: 1, .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprints_ignore_threads_but_track_everything_else() {
        let spec = Json::obj([("name", Json::str("c"))]);
        let scale = RunScale {
            accesses_per_workload: 1000,
            workloads_per_category: 1,
            mixes: 1,
            threads: 8,
            sampling: None,
        };
        let mut rethreaded = scale;
        rethreaded.threads = 2;
        assert_eq!(
            campaign_fingerprint(&spec, &scale),
            campaign_fingerprint(&spec, &rethreaded),
            "threads are a machine knob, not an identity"
        );
        let mut rescaled = scale;
        rescaled.accesses_per_workload = 2000;
        assert_ne!(
            campaign_fingerprint(&spec, &scale),
            campaign_fingerprint(&spec, &rescaled)
        );
        let other_spec = Json::obj([("name", Json::str("d"))]);
        assert_ne!(
            campaign_fingerprint(&spec, &scale),
            campaign_fingerprint(&other_spec, &scale)
        );
    }
}
