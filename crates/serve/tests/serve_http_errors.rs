//! Hostile-input and error-path behavior of the service over real TCP:
//! typed 400s from the hardened JSON parser, 404/405 routing, the request
//! body cap, deterministic 429 rate limiting, `/healthz`, and the drain
//! rejection. No test here runs a simulation.

use dspatch_harness::Json;
use dspatch_serve::{http_request, ManualClock, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dspatch-serve-{tag}-{}", std::process::id()));
    drop(std::fs::remove_dir_all(&dir));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn body_json(body: &[u8]) -> Json {
    Json::parse(std::str::from_utf8(body).expect("utf-8")).expect("JSON body")
}

#[test]
fn routing_parsing_and_drain_errors_are_typed() {
    let server = Server::start(&ServerConfig {
        store_dir: temp_dir("errors"),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr();

    // Liveness.
    let (status, _, body) = http_request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);
    assert_eq!(
        body_json(&body).get("status").and_then(Json::as_str),
        Some("ok")
    );

    // Unknown resources and wrong methods.
    let (status, _, _) = http_request(addr, "GET", "/campaigns/no-such-id", None).expect("404");
    assert_eq!(status, 404);
    let (status, _, _) = http_request(addr, "GET", "/nope", None).expect("404");
    assert_eq!(status, 404);
    let (status, headers, _) = http_request(addr, "DELETE", "/campaigns", None).expect("405");
    assert_eq!(status, 405);
    assert!(headers.iter().any(|(n, v)| n == "allow" && v == "POST"));

    // Hostile bodies surface the hardened parser's typed kinds.
    let (status, _, body) =
        http_request(addr, "POST", "/campaigns", Some("{\"a\": ")).expect("400");
    assert_eq!(status, 400);
    assert_eq!(
        body_json(&body).get("kind").and_then(Json::as_str),
        Some("syntax")
    );
    let dup = r#"{"name": "x", "name": "y", "cells": []}"#;
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(dup)).expect("400");
    assert_eq!(status, 400);
    assert_eq!(
        body_json(&body).get("kind").and_then(Json::as_str),
        Some("duplicate_key")
    );
    let bomb = "[".repeat(200);
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(&bomb)).expect("400");
    assert_eq!(status, 400);
    assert_eq!(
        body_json(&body).get("kind").and_then(Json::as_str),
        Some("depth_exceeded")
    );
    // Valid JSON, invalid spec.
    let (status, _, body) =
        http_request(addr, "POST", "/campaigns", Some("{\"zonk\": 1}")).expect("400");
    assert_eq!(status, 400);
    let message = body_json(&body)
        .get("error")
        .and_then(Json::as_str)
        .expect("message")
        .to_owned();
    assert!(message.contains("invalid campaign spec"), "got: {message}");
    // A scale with a key the executor does not know is a spec error.
    let retired = r#"{"name": "x", "cells": [],
                      "scale": {"accesses_per_workload": 100, "workloads_per_category": 1,
                                "mixes": 1, "sim_workers": 2}}"#;
    let (status, _, body) = http_request(addr, "POST", "/campaigns", Some(retired)).expect("400");
    assert_eq!(status, 400);
    let message = body_json(&body)
        .get("error")
        .and_then(Json::as_str)
        .expect("message")
        .to_owned();
    assert!(
        message.contains("unknown key 'sim_workers'"),
        "got: {message}"
    );

    // Oversized bodies are refused from the Content-Length alone, before a
    // single body byte is read (so this request never sends one).
    {
        use std::io::{Read, Write};
        let mut stream = std::net::TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "POST /campaigns HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n",
            dspatch_serve::http::MAX_BODY + 1
        )
        .expect("send headers");
        stream.flush().expect("flush");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read response");
        let (status, _, _) = dspatch_serve::parse_http_response(&raw).expect("parse");
        assert_eq!(status, 413);
    }

    // Draining: submissions are refused with 503, health says so, and the
    // server exits cleanly. Acceptors keep answering until `begin_drain`
    // wakes them, so more submissions than there are acceptors all get
    // their 503 rather than a reset connection.
    let (status, _, _) = http_request(addr, "POST", "/admin/shutdown", None).expect("shutdown");
    assert_eq!(status, 200);
    for _ in 0..=ServerConfig::default().http_threads {
        let (status, _, _) = http_request(addr, "POST", "/campaigns", Some("{}")).expect("503");
        assert_eq!(status, 503);
    }
    server.begin_drain();
    server.wait();
}

#[test]
fn rate_limiting_is_deterministic_with_a_manual_clock() {
    let clock = Arc::new(ManualClock::new());
    let server = Server::start_with_clock(
        &ServerConfig {
            store_dir: temp_dir("ratelimit"),
            rate_burst: 2,
            rate_per_sec: 1.0,
            ..ServerConfig::default()
        },
        clock.clone(),
    )
    .expect("server starts");
    let addr = server.local_addr();

    // The burst passes, the next request is throttled with Retry-After.
    for _ in 0..2 {
        let (status, _, _) = http_request(addr, "GET", "/results", None).expect("in burst");
        assert_eq!(status, 200);
    }
    let (status, headers, _) = http_request(addr, "GET", "/results", None).expect("throttled");
    assert_eq!(status, 429);
    assert!(headers.iter().any(|(n, v)| n == "retry-after" && v == "1"));

    // /healthz is never limited.
    let (status, _, _) = http_request(addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(status, 200);

    // Advancing the deterministic clock refills exactly one token.
    clock.advance_millis(1_000);
    let (status, _, _) = http_request(addr, "GET", "/results", None).expect("refilled");
    assert_eq!(status, 200);
    let (status, _, _) = http_request(addr, "GET", "/results", None).expect("throttled again");
    assert_eq!(status, 429);

    server.begin_drain();
    server.wait();
}
