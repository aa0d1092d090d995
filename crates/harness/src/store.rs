//! Content-addressed, append-only result store: the one crash-safe log of
//! simulated cells, and the durable cross-campaign memo table behind
//! `dspatch-serve` and `dspatch-lab --store`.
//!
//! Every record is keyed by a [`cell_fingerprint`] — FNV-1a over the `(code
//! version, target, prefetcher, config, accesses-per-workload)` identity of
//! one simulation cell — so *any* campaign, submitted by *any* request or
//! process incarnation, that reaches an already-simulated cell is served
//! from disk instead of re-simulating. That is also how an interrupted
//! campaign resumes: re-running it against the same store re-simulates only
//! the cells the store does not hold yet. The format is crash-safe: one
//! flushed JSON line per record, a torn final line silently truncated on
//! open, mid-file damage a typed [`HarnessError::Corrupt`].
//!
//! Since format version 2 each record is a canonical
//! [`ResultRow`] (`{"row": {...}}`) carrying the fingerprint identity
//! spelled out as typed fields — which is what the [`crate::analytics`]
//! layer queries. Version-1 records (`{"cell": {"fingerprint", "result"}}`)
//! still parse, upgrading into legacy-tagged rows with empty identity.
//!
//! Every field of the [`SystemConfig`] takes part in the fingerprint: every
//! simulation runs on the one exact engine, so no config knob is a pure
//! machine knob. The fingerprint deliberately *includes* the crate version:
//! a simulator change invalidates old results by changing the key, never by
//! rewriting the file — [`ResultStore::gc`] is how superseded versions are
//! eventually reclaimed.

use crate::error::HarnessError;
use crate::json::Json;
use crate::results::{sim_result_from_json, ResultRow};
use dspatch_sim::{SimResult, SystemConfig};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic value of the meta line's `store` field.
const STORE_MAGIC: &str = "dspatch-result-store";
/// Store format version (records are canonical [`ResultRow`]s).
const STORE_VERSION: u64 = 2;
/// Oldest store version still readable (bare `cell` records).
const STORE_MIN_VERSION: u64 = 1;
/// File name inside the store directory.
pub const STORE_FILE: &str = "results.jsonl";

/// The crate version participating in every [`cell_fingerprint`], so results
/// simulated by older code are never served for newer code (or vice versa).
pub fn code_version() -> &'static str {
    env!("CARGO_PKG_VERSION")
}

/// FNV-1a 64-bit over a byte stream — stable, dependency-free fingerprint.
/// The one fingerprint hash: cell, campaign and checkpoint identities all
/// go through it.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Orders version strings by their dotted numeric segments (`0.10.0` after
/// `0.9.1`), falling back to byte order for non-numeric segments. The empty
/// string — a legacy row's unknown version — sorts before everything.
pub fn compare_versions(a: &str, b: &str) -> std::cmp::Ordering {
    let mut left = a.split('.');
    let mut right = b.split('.');
    loop {
        match (left.next(), right.next()) {
            (None, None) => return std::cmp::Ordering::Equal,
            (None, Some(_)) => return std::cmp::Ordering::Less,
            (Some(_), None) => return std::cmp::Ordering::Greater,
            (Some(x), Some(y)) => {
                let ordering = match (x.parse::<u64>(), y.parse::<u64>()) {
                    (Ok(xn), Ok(yn)) => xn.cmp(&yn),
                    _ => x.cmp(y),
                };
                if ordering != std::cmp::Ordering::Equal {
                    return ordering;
                }
            }
        }
    }
}

/// Content address of one simulation cell, rendered as 16 hex digits.
///
/// The identity is `(code version, target key, prefetcher selection,
/// config, accesses per workload)`. The config is hashed through its
/// `Debug` rendering, which is stable within one crate
/// version; `code_version()` in the identity covers renderings drifting
/// *across* versions.
pub fn cell_fingerprint(
    target_key: &str,
    prefetcher: &str,
    config: &SystemConfig,
    accesses_per_workload: usize,
) -> String {
    cell_fingerprint_sampled(target_key, prefetcher, config, accesses_per_workload, None)
}

/// [`cell_fingerprint`] with an optional sampling plan: sampled and exact
/// results of the same cell get distinct identities (a sampled IPC is an
/// estimate and must never be served where an exact one was asked for).
pub fn cell_fingerprint_sampled(
    target_key: &str,
    prefetcher: &str,
    config: &SystemConfig,
    accesses_per_workload: usize,
    sampling: Option<&crate::sampling::SamplingPlan>,
) -> String {
    let mut identity = format!(
        "v{}|{target_key}|{prefetcher}|{config:?}|a{accesses_per_workload}",
        code_version()
    );
    if let Some(plan) = sampling {
        identity.push_str(&plan.fingerprint_suffix());
    }
    format!("{:016x}", fnv1a(identity.as_bytes()))
}

/// What one [`ResultStore::gc`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Rows kept (and rewritten).
    pub kept: usize,
    /// Rows dropped (superseded code versions).
    pub dropped: usize,
}

/// The append-only on-disk memo table: an in-memory index over
/// `<dir>/results.jsonl`, with one flushed line per inserted result.
///
/// Opened once per process and shared behind a mutex; the lock is taken per
/// lookup/insert, never on the simulation hot path.
#[derive(Debug)]
pub struct ResultStore {
    path: PathBuf,
    file: std::fs::File,
    results: HashMap<String, ResultRow>,
}

impl ResultStore {
    /// Opens (creating if needed) the store under `dir`, replaying every
    /// existing record into the in-memory index. A torn final line — the
    /// crash signature of an interrupted append — is truncated away;
    /// mid-file damage is a typed error.
    ///
    /// # Errors
    ///
    /// * [`HarnessError::Io`] — the directory or file cannot be created,
    ///   read, or truncated.
    /// * [`HarnessError::Mismatch`] — the file exists but carries a foreign
    ///   magic or an unsupported version (never silently overwritten).
    /// * [`HarnessError::Corrupt`] — a record before the final line is
    ///   unparsable or structurally invalid.
    pub fn open(dir: &Path) -> Result<Self, HarnessError> {
        std::fs::create_dir_all(dir)
            .map_err(|e| HarnessError::io(dir.display().to_string(), "create_dir", &e))?;
        let path = dir.join(STORE_FILE);
        let display = path.display().to_string();
        if !path.exists() {
            let file = std::fs::File::create(&path)
                .map_err(|e| HarnessError::io(display.clone(), "create", &e))?;
            let mut store = Self {
                path,
                file,
                results: HashMap::new(),
            };
            store.write_line(&meta_json().render_compact())?;
            return Ok(store);
        }

        let (results, clean_len) = Self::replay(&path, &display)?;
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&path)
            .map_err(|e| HarnessError::io(display.clone(), "open", &e))?;
        file.set_len(clean_len)
            .map_err(|e| HarnessError::io(display.clone(), "truncate", &e))?;
        file.seek(SeekFrom::Start(clean_len))
            .map_err(|e| HarnessError::io(display.clone(), "seek", &e))?;
        let mut store = Self {
            path,
            file,
            results,
        };
        if clean_len == 0 {
            // The file existed but was empty (or all torn): re-stamp it.
            store.write_line(&meta_json().render_compact())?;
        }
        Ok(store)
    }

    /// Reads every record, returning the index and the clean byte prefix.
    fn replay(
        path: &Path,
        display: &str,
    ) -> Result<(HashMap<String, ResultRow>, u64), HarnessError> {
        let file = std::fs::File::open(path)
            .map_err(|e| HarnessError::io(display.to_owned(), "open", &e))?;
        let mut reader = BufReader::new(file);
        let mut results = HashMap::new();
        let mut line = String::new();
        let mut line_no = 0u64;
        let mut offset = 0u64;
        loop {
            line.clear();
            let bytes = reader
                .read_line(&mut line)
                .map_err(|e| HarnessError::io(display.to_owned(), "read", &e))?;
            if bytes == 0 {
                break;
            }
            line_no += 1;
            let parsed = if line.ends_with('\n') {
                parse_store_line(line.trim_end(), line_no, display)
            } else {
                Err(HarnessError::Corrupt {
                    path: display.to_owned(),
                    line: line_no,
                    message: "record has no trailing newline".to_owned(),
                })
            };
            match parsed {
                Ok(StoreRecord::Meta) => offset += bytes as u64,
                Ok(StoreRecord::Row(row)) => {
                    results.insert(row.fingerprint.clone(), *row);
                    offset += bytes as u64;
                }
                Err(error) => {
                    let at_eof = {
                        let probe = reader
                            .fill_buf()
                            .map_err(|e| HarnessError::io(display.to_owned(), "read", &e))?;
                        probe.is_empty()
                    };
                    // A bad FINAL line is a torn append: drop it and keep
                    // the clean prefix. Anything earlier is real damage,
                    // and a foreign meta line always propagates.
                    if at_eof && line_no > 1 && matches!(error, HarnessError::Corrupt { .. }) {
                        break;
                    }
                    return Err(error);
                }
            }
        }
        Ok((results, offset))
    }

    /// Looks up a cell's statistics by fingerprint.
    pub fn get(&self, fingerprint: &str) -> Option<&SimResult> {
        self.results.get(fingerprint).map(|row| &row.result)
    }

    /// Looks up a cell's full row by fingerprint.
    pub fn get_row(&self, fingerprint: &str) -> Option<&ResultRow> {
        self.results.get(fingerprint)
    }

    /// Inserts one row, appending a flushed record; a fingerprint already
    /// present is a no-op (returns `false`, writes nothing), so replaying
    /// overlapping campaigns into one store stays idempotent.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Io`] on write failure.
    pub fn insert(&mut self, row: &ResultRow) -> Result<bool, HarnessError> {
        if self.results.contains_key(&row.fingerprint) {
            return Ok(false);
        }
        let record = Json::obj([("row", row.to_json())]);
        self.write_line(&record.render_compact())?;
        self.results.insert(row.fingerprint.clone(), row.clone());
        Ok(true)
    }

    /// Number of stored results.
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the store holds no results.
    pub fn is_empty(&self) -> bool {
        self.results.is_empty()
    }

    /// The backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Iterates over `(fingerprint, result)` pairs in index order
    /// (unspecified, not insertion order).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SimResult)> {
        self.results
            .iter()
            .map(|(k, row)| (k.as_str(), &row.result))
    }

    /// Iterates over the stored rows in index order (unspecified, not
    /// insertion order). The analytics layer sorts canonically on load.
    pub fn rows(&self) -> impl Iterator<Item = &ResultRow> {
        self.results.values()
    }

    /// Compacts the store: rewrites `results.jsonl` keeping, for each cell
    /// identity (workload, prefetcher, config, scale, sampling), only the
    /// rows belonging to the newest `keep_versions` distinct code versions.
    /// Legacy rows (schema 1, identity unknown) are grouped by fingerprint
    /// alone, so any positive `keep_versions` keeps them — gc never throws
    /// away data it cannot attribute.
    ///
    /// The rewrite is crash-safe: rows are written to `results.jsonl.tmp`
    /// (meta line first, rows in canonical identity order) and the file is
    /// atomically renamed over the store — a crash mid-gc leaves the
    /// original store untouched.
    ///
    /// # Errors
    ///
    /// Returns [`HarnessError::Spec`] for `keep_versions == 0` and
    /// [`HarnessError::Io`] on write/rename failure.
    pub fn gc(&mut self, keep_versions: usize) -> Result<GcStats, HarnessError> {
        if keep_versions == 0 {
            return Err(HarnessError::spec(
                "store gc: keep_versions must be at least 1 (0 would drop every row)",
            ));
        }
        // Newest-N code versions per identity group.
        let mut versions_by_group: HashMap<String, Vec<&str>> = HashMap::new();
        for row in self.results.values() {
            let versions = versions_by_group.entry(gc_group_key(row)).or_default();
            if !versions.contains(&row.code_version.as_str()) {
                versions.push(&row.code_version);
            }
        }
        for versions in versions_by_group.values_mut() {
            versions.sort_by(|a, b| compare_versions(b, a));
            versions.truncate(keep_versions);
        }
        let mut kept: Vec<&ResultRow> = self
            .results
            .values()
            .filter(|row| {
                versions_by_group[&gc_group_key(row)].contains(&row.code_version.as_str())
            })
            .collect();
        kept.sort_by_key(|row| row_identity(row));
        let stats = GcStats {
            kept: kept.len(),
            dropped: self.results.len() - kept.len(),
        };

        // Write-temp-then-rename: the live file is replaced atomically.
        let tmp_path = self.path.with_extension("jsonl.tmp");
        let tmp_display = tmp_path.display().to_string();
        {
            let mut tmp = std::fs::File::create(&tmp_path)
                .map_err(|e| HarnessError::io(tmp_display.clone(), "create", &e))?;
            let mut write = |line: &str| {
                tmp.write_all(line.as_bytes())
                    .and_then(|()| tmp.write_all(b"\n"))
                    .map_err(|e| HarnessError::io(tmp_display.clone(), "write", &e))
            };
            write(&meta_json().render_compact())?;
            for row in &kept {
                write(&Json::obj([("row", row.to_json())]).render_compact())?;
            }
            tmp.sync_all()
                .map_err(|e| HarnessError::io(tmp_display.clone(), "sync", &e))?;
        }
        let display = self.path.display().to_string();
        std::fs::rename(&tmp_path, &self.path)
            .map_err(|e| HarnessError::io(display.clone(), "rename", &e))?;

        // Reopen the append handle on the new file and rebuild the index.
        let mut file = std::fs::OpenOptions::new()
            .write(true)
            .open(&self.path)
            .map_err(|e| HarnessError::io(display.clone(), "open", &e))?;
        file.seek(SeekFrom::End(0))
            .map_err(|e| HarnessError::io(display, "seek", &e))?;
        self.file = file;
        self.results = kept
            .into_iter()
            .map(|row| (row.fingerprint.clone(), row.clone()))
            .collect();
        Ok(stats)
    }

    fn write_line(&mut self, line: &str) -> Result<(), HarnessError> {
        let display = self.path.display().to_string();
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.write_all(b"\n"))
            .and_then(|()| self.file.flush())
            .map_err(|e| HarnessError::io(display, "write", &e))
    }
}

/// The identity group a row competes in during [`ResultStore::gc`].
fn gc_group_key(row: &ResultRow) -> String {
    if row.is_legacy() {
        format!("legacy|{}", row.fingerprint)
    } else {
        format!(
            "{}|{}|{}|{}|{}",
            row.workload, row.prefetcher, row.config, row.scale, row.sampling
        )
    }
}

/// Canonical sort key for the gc rewrite (and deterministic re-query).
fn row_identity(row: &ResultRow) -> (String, u64, String) {
    (gc_group_key(row), row.scale, row.fingerprint.clone())
}

fn meta_json() -> Json {
    Json::obj([
        ("store", Json::str(STORE_MAGIC)),
        ("version", Json::num(STORE_VERSION as u32)),
    ])
}

enum StoreRecord {
    Meta,
    Row(Box<ResultRow>),
}

fn parse_store_line(text: &str, line_no: u64, display: &str) -> Result<StoreRecord, HarnessError> {
    let corrupt = |message: String| HarnessError::Corrupt {
        path: display.to_owned(),
        line: line_no,
        message,
    };
    let json = Json::parse(text).map_err(|e| corrupt(e.to_string()))?;
    if line_no == 1 {
        let magic = json.get("store").and_then(Json::as_str).unwrap_or("");
        if magic != STORE_MAGIC {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "store",
                expected: STORE_MAGIC.to_owned(),
                found: magic.to_owned(),
            });
        }
        let version = json.get("version").and_then(Json::as_u64).unwrap_or(0);
        if !(STORE_MIN_VERSION..=STORE_VERSION).contains(&version) {
            return Err(HarnessError::Mismatch {
                path: display.to_owned(),
                field: "version",
                expected: STORE_VERSION.to_string(),
                found: version.to_string(),
            });
        }
        return Ok(StoreRecord::Meta);
    }
    // Version 2: a canonical row. Accepted regardless of the meta line's
    // version so a v1 store appended to by v2 code stays readable.
    if let Some(row) = json.get("row") {
        let row = ResultRow::from_json(row).map_err(corrupt)?;
        return Ok(StoreRecord::Row(Box::new(row)));
    }
    // Version 1: fingerprint + bare result, upgraded to a legacy row.
    let cell = json
        .get("cell")
        .ok_or_else(|| corrupt(format!("unknown record shape: {text}")))?;
    let fingerprint = cell
        .get("fingerprint")
        .and_then(Json::as_str)
        .ok_or_else(|| corrupt("cell record missing string 'fingerprint'".to_owned()))?
        .to_owned();
    let result = cell
        .get("result")
        .ok_or_else(|| corrupt("cell record missing 'result'".to_owned()))
        .and_then(|result| sim_result_from_json(result).map_err(corrupt))?;
    Ok(StoreRecord::Row(Box::new(ResultRow::legacy(
        fingerprint,
        result,
    ))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dspatch_sim::{SimulationBuilder, SystemConfig};
    use dspatch_trace::{Trace, TraceRecord};
    use dspatch_types::NullPrefetcher;

    fn tiny_sim() -> SimResult {
        let records: Vec<TraceRecord> = (0..32).map(|i| TraceRecord::load(0x400, i * 64)).collect();
        SimulationBuilder::new(SystemConfig::single_thread())
            .with_core(Trace::new("store-test", records), NullPrefetcher::new())
            .run()
    }

    fn row_for(fingerprint: &str, workload: &str, prefetcher: &str, version: &str) -> ResultRow {
        let mut row = ResultRow::new(
            fingerprint.to_owned(),
            "store-test".to_owned(),
            workload.to_owned(),
            prefetcher.to_owned(),
            "1T".to_owned(),
            32,
            String::new(),
            tiny_sim(),
        );
        row.code_version = version.to_owned();
        row
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("dspatch_store_{tag}_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trips_across_reopen() {
        let dir = temp_dir("roundtrip");
        let sim = tiny_sim();
        let fp = cell_fingerprint(
            "w:test",
            "Kind(Baseline)",
            &SystemConfig::single_thread(),
            32,
        );
        let row = ResultRow::new(
            fp.clone(),
            "store-test".to_owned(),
            "test".to_owned(),
            "Baseline".to_owned(),
            "1T".to_owned(),
            32,
            String::new(),
            sim.clone(),
        );
        {
            let mut store = ResultStore::open(&dir).expect("open fresh");
            assert!(store.is_empty());
            assert!(store.insert(&row).expect("insert"));
            // Idempotent: a second insert writes nothing.
            assert!(!store.insert(&row).expect("reinsert"));
            assert_eq!(store.len(), 1);
        }
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&fp), Some(&sim));
        let stored = store.get_row(&fp).expect("full row");
        assert_eq!(stored, &row);
        assert_eq!(stored.code_version, code_version());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_but_midfile_damage_is_typed() {
        let dir = temp_dir("torn");
        let fp_a = cell_fingerprint("w:a", "Kind(Spp)", &SystemConfig::single_thread(), 32);
        let fp_b = cell_fingerprint("w:b", "Kind(Spp)", &SystemConfig::single_thread(), 32);
        {
            let mut store = ResultStore::open(&dir).expect("open");
            store
                .insert(&row_for(&fp_a, "a", "SPP", "0.1.0"))
                .expect("insert a");
            store
                .insert(&row_for(&fp_b, "b", "SPP", "0.1.0"))
                .expect("insert b");
        }
        let path = dir.join(STORE_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        // Tear the final record mid-line: the reopen drops it, keeps the rest.
        std::fs::write(&path, &text[..text.len() - 40]).expect("tear");
        let store = ResultStore::open(&dir).expect("reopen torn");
        assert_eq!(store.len(), 1);
        drop(store);
        // Damage a NON-final line: that is real corruption.
        let lines: Vec<&str> = text.lines().collect();
        let mangled = format!(
            "{}\n{}\n{}\n",
            lines[0],
            &lines[1][..lines[1].len() / 2],
            lines[2]
        );
        std::fs::write(&path, mangled).expect("mangle");
        let err = ResultStore::open(&dir).expect_err("mid-file damage");
        assert!(
            matches!(err, HarnessError::Corrupt { line: 2, .. }),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Writes records `a` and `b` to a fresh store in `dir` and returns their
    /// fingerprints.
    fn two_record_store(dir: &Path) -> (String, String) {
        let fp_a = cell_fingerprint("w:a", "Kind(Spp)", &SystemConfig::single_thread(), 32);
        let fp_b = cell_fingerprint("w:b", "Kind(Spp)", &SystemConfig::single_thread(), 32);
        let mut store = ResultStore::open(dir).expect("open");
        store
            .insert(&row_for(&fp_a, "a", "SPP", "0.1.0"))
            .expect("insert a");
        store
            .insert(&row_for(&fp_b, "b", "SPP", "0.1.0"))
            .expect("insert b");
        (fp_a, fp_b)
    }

    #[test]
    fn write_reopen_read_cycle_keeps_every_record() {
        let dir = temp_dir("cycle");
        let (fp_a, fp_b) = two_record_store(&dir);
        let path = dir.join(STORE_FILE);
        let before = std::fs::read(&path).expect("read");
        assert_eq!(before.iter().filter(|&&b| b == b'\n').count(), 3);
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.get_row(&fp_a).expect("a").workload, "a");
        assert_eq!(store.get_row(&fp_b).expect("b").workload, "b");
        drop(store);
        // A clean file is its own clean prefix: reopening changes no byte.
        assert_eq!(std::fs::read(&path).expect("reread"), before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_is_dropped_and_truncated_on_reopen() {
        let dir = temp_dir("torn_reopen");
        let (fp_a, fp_b) = two_record_store(&dir);
        let path = dir.join(STORE_FILE);
        // Tear the final line mid-record, like a kill -9 mid-write.
        let bytes = std::fs::read(&path).expect("read");
        let torn_len = bytes.len() - 40;
        std::fs::write(&path, &bytes[..torn_len]).expect("tear");
        let mut store = ResultStore::open(&dir).expect("torn tail is tolerated");
        assert_eq!(store.len(), 1, "only the intact record survives");
        assert!(store.get(&fp_a).is_some());
        // Opening truncates the tail so appends start on a clean boundary.
        let clean_len = std::fs::metadata(&path).expect("stat").len();
        assert!((clean_len as usize) < torn_len);
        assert!(store
            .insert(&row_for(&fp_b, "b", "SPP", "0.1.0"))
            .expect("re-append b"));
        drop(store);
        let store = ResultStore::open(&dir).expect("reopen healed");
        assert_eq!(store.len(), 2);
        assert!(store.get(&fp_b).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_corruption_is_a_typed_error_with_line_number() {
        let dir = temp_dir("midfile");
        two_record_store(&dir);
        let path = dir.join(STORE_FILE);
        let text = std::fs::read_to_string(&path).expect("read");
        let lines: Vec<&str> = text.lines().collect();
        // Cut record `a` (line 2) in half; record `b` after it stays intact.
        let mangled = format!(
            "{}\n{}\n{}\n",
            lines[0],
            &lines[1][..lines[1].len() / 2],
            lines[2]
        );
        std::fs::write(&path, &mangled).expect("mangle");
        let err = ResultStore::open(&dir).expect_err("must reject");
        match &err {
            HarnessError::Corrupt { line, .. } => assert_eq!(*line, 2),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let text = err.to_string();
        assert!(text.contains("results.jsonl:2: corrupt record"), "{text}");
        // Damage is reported, never repaired by truncation.
        assert_eq!(std::fs::read_to_string(&path).expect("reread"), mangled);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_files_are_a_mismatch_not_garbage() {
        let dir = temp_dir("foreign_kinds");
        std::fs::create_dir_all(&dir).expect("dir");
        let path = dir.join(STORE_FILE);
        // Another tool's file under our name is never overwritten.
        let foreign = "{\"store\": \"something-else\", \"version\": 2}\n";
        std::fs::write(&path, foreign).expect("write");
        let err = ResultStore::open(&dir).expect_err("foreign magic");
        assert!(
            matches!(err, HarnessError::Mismatch { field: "store", .. }),
            "{err:?}"
        );
        assert_eq!(std::fs::read_to_string(&path).expect("reread"), foreign);
        // Our magic under a format version this code cannot read.
        let future = format!("{{\"store\": \"{STORE_MAGIC}\", \"version\": 99}}\n");
        std::fs::write(&path, future).expect("write");
        let err = ResultStore::open(&dir).expect_err("future version");
        assert!(
            matches!(
                err,
                HarnessError::Mismatch {
                    field: "version",
                    ..
                }
            ),
            "{err:?}"
        );
        // A file that is not JSON at all is corrupt even on line 1.
        std::fs::write(&path, "not a store\n").expect("write");
        let err = ResultStore::open(&dir).expect_err("garbage");
        assert!(
            matches!(err, HarnessError::Corrupt { line: 1, .. }),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_file_is_a_mismatch() {
        let dir = temp_dir("foreign");
        std::fs::create_dir_all(&dir).expect("dir");
        std::fs::write(dir.join(STORE_FILE), "{\"store\": \"something-else\"}\n").expect("write");
        let err = ResultStore::open(&dir).expect_err("foreign magic");
        assert!(
            matches!(err, HarnessError::Mismatch { field: "store", .. }),
            "{err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fingerprint_tracks_every_identity_field() {
        let base = SystemConfig::single_thread();
        let fp = cell_fingerprint("w:x", "Kind(Dspatch)", &base, 1000);
        assert_eq!(
            fp,
            cell_fingerprint("w:x", "Kind(Dspatch)", &base.clone(), 1000)
        );
        let mut other = base.clone();
        other.prefetch_mshrs += 1;
        assert_ne!(fp, cell_fingerprint("w:x", "Kind(Dspatch)", &other, 1000));
        assert_ne!(fp, cell_fingerprint("w:y", "Kind(Dspatch)", &base, 1000));
        assert_ne!(fp, cell_fingerprint("w:x", "Kind(Spp)", &base, 1000));
        assert_ne!(fp, cell_fingerprint("w:x", "Kind(Dspatch)", &base, 2000));
    }

    #[test]
    fn version_ordering_is_numeric_per_segment() {
        use std::cmp::Ordering;
        assert_eq!(compare_versions("0.10.0", "0.9.1"), Ordering::Greater);
        assert_eq!(compare_versions("0.9.1", "0.9.1"), Ordering::Equal);
        assert_eq!(compare_versions("1.0.0", "0.99.99"), Ordering::Greater);
        assert_eq!(compare_versions("", "0.1.0"), Ordering::Less);
        assert_eq!(compare_versions("0.1", "0.1.0"), Ordering::Less);
    }

    #[test]
    fn gc_keeps_newest_versions_and_is_idempotent() {
        let dir = temp_dir("gc");
        {
            let mut store = ResultStore::open(&dir).expect("open");
            // Same identity under three code versions, plus a second cell
            // with one version and a legacy row.
            store
                .insert(&row_for("fp-old", "a", "SPP", "0.0.8"))
                .expect("a old");
            store
                .insert(&row_for("fp-mid", "a", "SPP", "0.0.9"))
                .expect("a mid");
            store
                .insert(&row_for("fp-new", "a", "SPP", "0.1.0"))
                .expect("a new");
            store
                .insert(&row_for("fp-b", "b", "SPP", "0.1.0"))
                .expect("b");
            store
                .insert(&ResultRow::legacy("fp-legacy".to_owned(), tiny_sim()))
                .expect("legacy");
            assert_eq!(store.len(), 5);

            let stats = store.gc(2).expect("gc");
            assert_eq!(
                stats,
                GcStats {
                    kept: 4,
                    dropped: 1
                }
            );
            assert_eq!(store.len(), 4);
            assert!(store.get("fp-old").is_none(), "0.0.8 is superseded");
            assert!(store.get("fp-mid").is_some());
            assert!(store.get("fp-new").is_some());
            assert!(store.get("fp-b").is_some());
            assert!(store.get("fp-legacy").is_some(), "legacy rows survive gc");

            // Idempotent: a second pass with the same policy drops nothing.
            let stats = store.gc(2).expect("gc again");
            assert_eq!(
                stats,
                GcStats {
                    kept: 4,
                    dropped: 0
                }
            );

            // The store stays appendable after the rewrite.
            store
                .insert(&row_for("fp-c", "c", "SPP", "0.1.0"))
                .expect("append after gc");
        }
        let store = ResultStore::open(&dir).expect("reopen");
        assert_eq!(store.len(), 5);
        assert!(store.get("fp-c").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gc_rewrite_is_byte_deterministic() {
        let dir_x = temp_dir("gc_det_x");
        let dir_y = temp_dir("gc_det_y");
        // Same rows, different insertion orders.
        let rows = [
            row_for("fp-1", "a", "SPP", "0.1.0"),
            row_for("fp-2", "b", "BOP", "0.1.0"),
            row_for("fp-3", "a", "BOP", "0.1.0"),
        ];
        {
            let mut store = ResultStore::open(&dir_x).expect("open x");
            for row in &rows {
                store.insert(row).expect("insert");
            }
            store.gc(1).expect("gc x");
        }
        {
            let mut store = ResultStore::open(&dir_y).expect("open y");
            for row in rows.iter().rev() {
                store.insert(row).expect("insert");
            }
            store.gc(1).expect("gc y");
        }
        let x = std::fs::read(dir_x.join(STORE_FILE)).expect("read x");
        let y = std::fs::read(dir_y.join(STORE_FILE)).expect("read y");
        assert_eq!(x, y, "gc output must not depend on insertion order");
        std::fs::remove_dir_all(&dir_x).ok();
        std::fs::remove_dir_all(&dir_y).ok();
    }

    #[test]
    fn gc_of_zero_versions_is_a_spec_error() {
        let dir = temp_dir("gc_zero");
        let mut store = ResultStore::open(&dir).expect("open");
        let err = store.gc(0).expect_err("must reject");
        assert!(matches!(err, HarnessError::Spec { .. }), "{err:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
