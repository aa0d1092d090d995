//! End-to-end service round-trip over real TCP: boot `dspatch-serve` on an
//! ephemeral port, submit a smoke campaign, poll to completion, and assert
//!
//! 1. the results document is byte-identical to what the CLI path
//!    (`run_campaign_with` + `CampaignResult::to_json().render()`, exactly
//!    what `dspatch-lab --spec --format json` prints) produces, and
//! 2. identical resubmissions — same process *and* after a restart on the
//!    same store directory — perform **zero** new simulator invocations,
//!    proven with the global [`dspatch_sim::simulations_started`] counter.
//!
//! The simulation-counting assertions live in a single `#[test]` so no
//! concurrent test in this process can perturb the counter between the
//! before/after reads.

use dspatch_harness::campaign::{run_campaign_with, CampaignSpec, ExecOptions};
use dspatch_harness::Json;
use dspatch_serve::{http_request, Server, ServerConfig};
use dspatch_sim::simulations_started;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The smoke spec submitted over the wire — scale pinned (threads included)
/// so the rendered stats are deterministic across hosts.
const SPEC: &str = r#"{
    "name": "serve smoke",
    "scale": {"accesses_per_workload": 600, "workloads_per_category": 1, "mixes": 1, "threads": 2},
    "cells": [{
        "label": "cloud",
        "targets": {"category": "cloud"},
        "prefetchers": ["spp", "dspatch_plus_spp"],
        "config": {"base": "single_thread"},
        "baseline": true
    }]
}"#;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dspatch-serve-{tag}-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn config(store_dir: PathBuf) -> ServerConfig {
    ServerConfig {
        store_dir,
        ..ServerConfig::default()
    }
}

fn get_json(addr: SocketAddr, path: &str) -> (u16, Json) {
    let (status, _, body) = http_request(addr, "GET", path, None).expect("request");
    let text = String::from_utf8(body).expect("utf-8 body");
    let json = Json::parse(&text).unwrap_or_else(|e| panic!("bad JSON from {path}: {e}\n{text}"));
    (status, json)
}

fn poll_done(addr: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let (status, json) = get_json(addr, &format!("/campaigns/{id}"));
        assert_eq!(status, 200, "status endpoint");
        match json.get("status").and_then(Json::as_str) {
            Some("done") => return,
            Some("failed") => panic!("campaign failed: {}", json.render()),
            _ => {}
        }
        assert!(Instant::now() < deadline, "campaign did not finish in time");
        std::thread::sleep(Duration::from_millis(25));
    }
}

fn percent_encode(text: &str) -> String {
    text.bytes()
        .map(|b| {
            if b.is_ascii_alphanumeric() || b"-_.~".contains(&b) {
                (b as char).to_string()
            } else {
                format!("%{b:02X}")
            }
        })
        .collect()
}

#[test]
fn round_trip_parity_and_zero_resimulation() {
    // The ground truth: the exact bytes `dspatch-lab --spec --format json`
    // would print (no store — the plain CLI path).
    let spec = CampaignSpec::parse(SPEC).expect("spec parses");
    let scale = spec
        .scale
        .as_ref()
        .expect("embedded scale")
        .resolve()
        .expect("scale");
    let expected = run_campaign_with(&spec, &scale, &ExecOptions::default())
        .expect("reference run")
        .to_json()
        .render();

    let store_dir = temp_dir("roundtrip");
    let server = Server::start(&config(store_dir.clone())).expect("server starts");
    let addr = server.local_addr();

    // Submit over real TCP; a fresh campaign is 202 Accepted.
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(SPEC)).expect("submit");
    assert_eq!(
        status,
        202,
        "fresh submission: {}",
        String::from_utf8_lossy(&body)
    );
    let submitted = Json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("status JSON");
    let id = submitted
        .get("id")
        .and_then(Json::as_str)
        .expect("campaign id")
        .to_owned();

    let before = simulations_started();
    poll_done(addr, &id);
    assert!(
        simulations_started() > before,
        "the first run must actually simulate"
    );

    // Results are present until done (202 while queued/running is covered by
    // construction — poll_done raced through those), and byte-identical to
    // the CLI path once done.
    let (status, _, body) =
        http_request(addr, "GET", &format!("/campaigns/{id}/results"), None).expect("results");
    assert_eq!(status, 200);
    let served = String::from_utf8(body).expect("utf-8 results");
    assert_eq!(
        served, expected,
        "serve results must be byte-identical to the CLI document"
    );

    // The event stream replays the full history: started → cells → finished.
    let (status, headers, body) =
        http_request(addr, "GET", &format!("/campaigns/{id}/events"), None).expect("events");
    assert_eq!(status, 200);
    assert!(headers
        .iter()
        .any(|(n, v)| n == "transfer-encoding" && v == "chunked"));
    let events: Vec<Json> = String::from_utf8(body)
        .expect("utf-8 events")
        .lines()
        .map(|line| Json::parse(line).expect("event line is JSON"))
        .collect();
    let kind = |e: &Json| e.get("event").and_then(Json::as_str).map(str::to_owned);
    assert_eq!(kind(&events[0]).as_deref(), Some("started"));
    assert_eq!(
        kind(events.last().expect("events")).as_deref(),
        Some("finished")
    );
    assert!(
        events
            .iter()
            .filter(|e| kind(e).as_deref() == Some("cell"))
            .count()
            >= 3
    );

    // Resubmitting the identical spec in the same process attaches to the
    // existing campaign: 200, same id, zero new simulations.
    let before = simulations_started();
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(SPEC)).expect("resubmit");
    assert_eq!(status, 200, "identical spec is already known");
    let resubmitted = Json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("JSON");
    assert_eq!(
        resubmitted.get("id").and_then(Json::as_str),
        Some(id.as_str())
    );
    assert_eq!(
        simulations_started(),
        before,
        "resubmission must not simulate"
    );

    // The flat query endpoint is a shim over the store-backed analytics
    // engine, so it lists one row per *stored simulation* — campaign rows
    // plus the memoized baselines (`stats.sims_run` of a fresh run).
    let expected_json = Json::parse(&expected).expect("expected parses");
    let stored_rows = expected_json
        .get("stats")
        .and_then(|stats| stats.get("sims_run"))
        .and_then(Json::as_u64)
        .expect("stats.sims_run") as usize;
    let matched = |path: &str| {
        let (status, json) = get_json(addr, path);
        assert_eq!(status, 200, "query {path}");
        json.get("matched").and_then(Json::as_u64).expect("matched") as usize
    };
    assert_eq!(matched("/results"), stored_rows);
    assert_eq!(matched("/results?figure=serve+smoke"), stored_rows);
    assert_eq!(matched("/results?figure=some+other+figure"), 0);
    let first_prefetcher = expected_json
        .get("rows")
        .and_then(|rows| match rows {
            Json::Arr(rows) => rows.first(),
            _ => None,
        })
        .and_then(|row| row.get("prefetcher"))
        .and_then(Json::as_str)
        .expect("row prefetcher")
        .to_owned();
    let prefetcher_rows = match expected_json.get("rows") {
        Some(Json::Arr(rows)) => rows
            .iter()
            .filter(|row| {
                row.get("prefetcher").and_then(Json::as_str) == Some(first_prefetcher.as_str())
            })
            .count(),
        _ => 0,
    };
    assert_eq!(
        matched(&format!(
            "/results?prefetcher={}",
            percent_encode(&first_prefetcher)
        )),
        prefetcher_rows
    );
    // `target` stays accepted as the legacy alias for `workload`.
    let first_target = expected_json
        .get("rows")
        .and_then(|rows| match rows {
            Json::Arr(rows) => rows.first(),
            _ => None,
        })
        .and_then(|row| row.get("target"))
        .and_then(Json::as_str)
        .expect("row target")
        .to_owned();
    assert!(
        matched(&format!(
            "/results?target={}",
            percent_encode(&first_target)
        )) > 0
    );

    // Graceful drain: /admin/shutdown flips the flag, wait() returns.
    let (status, _, _) = http_request(addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    server.begin_drain();
    server.wait();

    // Restart on the same store directory: the recorded campaign replays
    // through the executor, every cell a store hit — zero simulations —
    // and the results document is still byte-identical.
    let before = simulations_started();
    let server = Server::start(&config(store_dir)).expect("server restarts");
    let addr = server.local_addr();
    let (_, _, body) = http_request(addr, "POST", "/campaigns", Some(SPEC)).expect("resubmit");
    let resubmitted = Json::parse(std::str::from_utf8(&body).expect("utf-8")).expect("JSON");
    assert_eq!(
        resubmitted.get("id").and_then(Json::as_str),
        Some(id.as_str()),
        "content address is stable across restarts"
    );
    poll_done(addr, &id);
    assert_eq!(
        simulations_started(),
        before,
        "after a restart the store must serve every cell without simulating"
    );
    let (status, _, body) = http_request(addr, "GET", &format!("/campaigns/{id}/results"), None)
        .expect("results after restart");
    assert_eq!(status, 200);
    assert_eq!(
        String::from_utf8(body).expect("utf-8"),
        expected,
        "store-served results must be byte-identical to the CLI document"
    );
    // The status document accounts for the cache: store hits, no fresh sims.
    let (_, status_json) = get_json(addr, &format!("/campaigns/{id}"));
    let stat = |key: &str| {
        status_json
            .get("stats")
            .and_then(|s| s.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("stats.{key} in {}", status_json.render()))
    };
    assert_eq!(stat("fresh_sims"), 0);
    assert_eq!(stat("store_hits"), stat("sims_run"));

    server.begin_drain();
    server.wait();
}
