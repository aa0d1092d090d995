//! Schema-upgrade guarantees for the unified result schema.
//!
//! `tests/fixtures/` holds byte-exact store files written by the
//! **previous** release's writer (store v1 `{"cell": ...}` records), plus a
//! torn-tail variant simulating a crash mid-append. These tests prove the
//! current reader loads them through the `ResultRow` upgrade path and that
//! the result payloads re-render **bit-for-bit** — if a serializer change
//! ever breaks compatibility with shipped files, these fail first.

use dspatch_harness::results::sim_result_to_json;
use dspatch_harness::{Json, ResultRow, ResultStore};
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Fresh scratch directory per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dspatch-schema-upgrade-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn install_store(tag: &str, fixture_name: &str) -> PathBuf {
    let dir = scratch(tag);
    std::fs::copy(fixture(fixture_name), dir.join("results.jsonl")).expect("install fixture");
    dir
}

#[test]
fn store_v1_cells_load_and_rerender_bit_for_bit() {
    let dir = install_store("store-v1", "store_v1_results.jsonl");
    let store = ResultStore::open(&dir).expect("v1 store opens");
    assert_eq!(store.len(), 2, "both fixture cells load");

    let text = std::fs::read_to_string(fixture("store_v1_results.jsonl")).expect("read fixture");
    for line in text.lines().skip(1) {
        let parsed = Json::parse(line).expect("fixture line parses");
        let cell = parsed.get("cell").expect("cell record");
        let fingerprint = cell
            .get("fingerprint")
            .and_then(Json::as_str)
            .expect("fingerprint");
        let row = store
            .get_row(fingerprint)
            .unwrap_or_else(|| panic!("fingerprint {fingerprint} loaded"));
        assert!(row.is_legacy(), "v1 cells surface as legacy rows");
        assert_eq!(row.fingerprint, fingerprint);
        assert!(row.workload.is_empty() && row.code_version.is_empty());

        // Re-render the fixture line from the loaded row: byte equality
        // proves the SimResult payload survived the upgrade path exactly.
        let rebuilt = Json::obj([(
            "cell",
            Json::obj([
                ("fingerprint", Json::str(&row.fingerprint)),
                ("result", sim_result_to_json(&row.result)),
            ]),
        )])
        .render_compact();
        assert_eq!(rebuilt, line, "cell {fingerprint} re-renders bit-for-bit");
    }
}

#[test]
fn store_v1_torn_tail_is_dropped_and_store_stays_appendable() {
    let dir = install_store("store-v1-torn", "store_v1_torn.jsonl");
    let store_path;
    {
        let mut store = ResultStore::open(&dir).expect("torn v1 store opens");
        store_path = store.path().to_path_buf();
        assert_eq!(store.len(), 1, "torn final cell silently dropped");
        let survivor = store.rows().next().expect("surviving row").clone();

        // The store must keep accepting current-schema rows after the
        // legacy truncation...
        let fresh = ResultRow::new(
            "feedfacefeedface".to_owned(),
            "upgrade".to_owned(),
            "linpack".to_owned(),
            "SPP".to_owned(),
            "1T".to_owned(),
            2000,
            String::new(),
            survivor.result.clone(),
        );
        assert!(store.insert(&fresh).expect("append after upgrade"));
        assert_eq!(store.len(), 2);
    }
    // ...and the mixed v1-meta/v2-record file must reload cleanly.
    let reopened = ResultStore::open(&dir).expect("mixed-version store reopens");
    assert_eq!(reopened.len(), 2);
    let row = reopened
        .get_row("feedfacefeedface")
        .expect("v2 row persisted");
    assert!(!row.is_legacy());
    assert_eq!(row.workload, "linpack");
    assert!(store_path.exists());
}
