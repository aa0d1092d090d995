//! End-to-end tests of the `dspatch-lab` binary: a paper figure and a
//! custom spec file, in all three output formats.

use dspatch_harness::Json;
use std::process::Command;

fn dspatch_lab(args: &[&str]) -> String {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "-p",
            "dspatch-harness",
            "--bin",
            "dspatch-lab",
            "--",
        ])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn dspatch-lab {args:?}: {e}"));
    assert!(
        output.status.success(),
        "dspatch-lab {args:?} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr),
    );
    String::from_utf8(output.stdout).expect("utf-8 output")
}

/// Runs `dspatch-lab` expecting a failure; returns (exit code, stderr).
fn dspatch_lab_fails(args: &[&str]) -> (i32, String) {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args([
            "run",
            "--quiet",
            "-p",
            "dspatch-harness",
            "--bin",
            "dspatch-lab",
            "--",
        ])
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn dspatch-lab {args:?}: {e}"));
    assert!(
        !output.status.success(),
        "dspatch-lab {args:?} unexpectedly succeeded:\n{}",
        String::from_utf8_lossy(&output.stdout)
    );
    (
        output.status.code().expect("exit code"),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn misplaced_flags_are_usage_errors_not_silently_ignored() {
    // Campaign-only flags without a campaign used to be dropped on the
    // floor; each must now exit 2 with a usage message.
    for args in [
        &["--figure", "table1", "--retries", "2"] as &[&str],
        &["--figure", "table1", "--store", "store-dir"],
        &["--list", "--retries", "2"],
    ] {
        let (code, stderr) = dspatch_lab_fails(args);
        assert_eq!(code, 2, "dspatch-lab {args:?}: {stderr}");
        assert!(
            stderr.contains("only apply to --spec campaigns"),
            "dspatch-lab {args:?}: {stderr}"
        );
    }
    // Report-shaping flags are meaningless for --list/--template.
    for args in [
        &["--list", "--format", "json"] as &[&str],
        &["--template", "--scale", "smoke"],
        &["--list", "--threads", "4"],
    ] {
        let (code, stderr) = dspatch_lab_fails(args);
        assert_eq!(code, 2, "dspatch-lab {args:?}: {stderr}");
        assert!(
            stderr.contains("do not apply to --list/--template"),
            "dspatch-lab {args:?}: {stderr}"
        );
    }
    // A flag the CLI does not know is a usage error, never a silent no-op,
    // retired flags included.
    for (flag, value) in [
        ("--parallel-cores", "2"),
        ("--journal", "run.journal"),
        ("--resume", "run.journal"),
    ] {
        let args = ["--spec", "spec.json", flag, value];
        let (code, stderr) = dspatch_lab_fails(&args);
        assert_eq!(code, 2, "dspatch-lab {args:?}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown argument: {flag}")),
            "dspatch-lab {args:?}: {stderr}"
        );
    }
}

#[test]
fn a_torn_store_resumes_byte_identically_and_mid_file_damage_exits_5() {
    let spec = r#"{
        "name": "cli store",
        "scale": {"accesses_per_workload": 500, "workloads_per_category": 1, "mixes": 0, "threads": 2},
        "cells": [{
            "label": "hpc",
            "targets": {"category": "hpc"},
            "prefetchers": ["spp", "bop"],
            "config": {"base": "single_thread"},
            "baseline": true
        }]
    }"#;
    let dir = std::env::temp_dir().join(format!("dspatch-lab-cli-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let spec_path = dir.join("spec.json");
    std::fs::write(&spec_path, spec).expect("write spec");
    let store_dir = dir.join("store");
    let store_file = store_dir.join("results.jsonl");
    let path = |p: &std::path::Path| p.to_str().expect("utf-8 temp path").to_owned();
    let run = |out: &std::path::Path| {
        dspatch_lab(&[
            "--spec",
            &path(&spec_path),
            "--format",
            "json",
            "--store",
            &path(&store_dir),
            "--out",
            &path(out),
        ])
    };

    let full = dir.join("full.json");
    run(&full);
    // Crash: drop the last whole record, then tear the next one mid-bytes.
    let bytes = std::fs::read(&store_file).expect("store readable");
    let lines: Vec<&[u8]> = bytes.split_inclusive(|&b| b == b'\n').collect();
    assert!(lines.len() >= 4, "expected meta + 3 records");
    let kept = &lines[..lines.len() - 2];
    let torn = lines[lines.len() - 2];
    let mut damaged: Vec<u8> = kept.concat();
    damaged.extend_from_slice(&torn[..torn.len() / 2]);
    std::fs::write(&store_file, damaged).expect("tear store");

    let resumed = dir.join("resumed.json");
    run(&resumed);
    assert_eq!(
        std::fs::read(&full).expect("full output"),
        std::fs::read(&resumed).expect("resumed output"),
        "re-running on a torn store must reproduce the uninterrupted bytes"
    );

    // Damage line 2 with whole records after it: corruption, exit 5.
    let text = std::fs::read_to_string(&store_file).expect("store readable");
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    let half = lines[1].len() / 2;
    lines[1].truncate(half);
    let damaged: String = lines.iter().map(|line| format!("{line}\n")).collect();
    std::fs::write(&store_file, damaged).expect("damage store");
    let (code, stderr) =
        dspatch_lab_fails(&["--spec", &path(&spec_path), "--store", &path(&store_dir)]);
    assert_eq!(code, 5, "{stderr}");
    assert!(stderr.contains("results.jsonl:2"), "{stderr}");
    assert!(!stderr.to_lowercase().contains("journal"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn runs_a_paper_figure_in_every_format() {
    // Table 1 and Figure 11 need no simulation, keeping the test quick while
    // still exercising the figure registry end to end.
    let table = dspatch_lab(&["--figure", "table1", "--format", "table"]);
    assert!(table.contains("SPT"));

    let json = dspatch_lab(&["--figure", "table1", "--format", "json"]);
    let parsed = Json::parse(&json).expect("figure JSON is valid");
    assert_eq!(
        parsed.get("title").and_then(Json::as_str),
        Some("Table 1: DSPatch storage overhead")
    );

    let csv = dspatch_lab(&["--figure", "fig11", "--format", "csv"]);
    assert!(csv.lines().next().unwrap().contains("Metric,Value"));
}

#[test]
fn runs_a_custom_spec_file_in_every_format() {
    let spec = r#"{
        "name": "cli smoke",
        "scale": {"accesses_per_workload": 500, "workloads_per_category": 1, "mixes": 1, "threads": 2},
        "cells": [{
            "label": "cloud",
            "targets": {"category": "cloud"},
            "prefetchers": ["spp", "dspatch_plus_spp"],
            "config": {"base": "single_thread"},
            "baseline": true
        }]
    }"#;
    let dir = std::env::temp_dir().join("dspatch-lab-cli-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("spec.json");
    std::fs::write(&path, spec).expect("write spec");
    let path = path.to_str().expect("utf-8 temp path");

    let json = dspatch_lab(&["--spec", path, "--format", "json"]);
    let parsed = Json::parse(&json).expect("campaign JSON is valid");
    assert_eq!(
        parsed.get("campaign").and_then(Json::as_str),
        Some("cli smoke")
    );
    // 1 workload × (1 memoized baseline + 2 candidates).
    assert_eq!(
        parsed
            .get("stats")
            .and_then(|s| s.get("sims_run"))
            .and_then(Json::as_u64),
        Some(3)
    );

    let csv = dspatch_lab(&["--spec", path, "--format", "csv"]);
    assert!(csv.starts_with("Cell,Target,Config,Prefetcher"));
    assert_eq!(csv.lines().count(), 3, "header + one row per prefetcher");

    let table = dspatch_lab(&["--spec", path, "--format", "table"]);
    assert!(table.contains("DSPatch+SPP") && table.contains("Speedup"));
}

#[test]
fn template_spec_round_trips_through_the_parser() {
    let template = dspatch_lab(&["--template"]);
    let spec = dspatch_harness::CampaignSpec::parse(&template).expect("template parses");
    assert_eq!(spec.name, "example campaign");
    assert_eq!(spec.cells.len(), 2);
}

#[test]
fn list_prints_the_full_inventory() {
    let listing = dspatch_lab(&["--list"]);
    // Every figure id...
    for id in dspatch_harness::FigureId::ALL {
        assert!(listing.contains(id.name()), "missing figure {}", id.name());
    }
    // ...every workload name (memory-intensive ones carry a marker)...
    for workload in dspatch_trace::suite() {
        assert!(
            listing.contains(&workload.name),
            "missing workload {}",
            workload.name
        );
    }
    assert!(
        listing.contains("mcf06*"),
        "memory-intensive marker missing"
    );
    // ...every scale preset with its knobs, and the prefetcher names.
    for preset in ["smoke", "quick", "full"] {
        assert!(listing.contains(preset), "missing scale preset {preset}");
    }
    assert!(listing.contains("accesses/workload"));
    assert!(listing.contains("dspatch_plus_spp"));
}

#[test]
fn replays_an_external_trace_file_in_both_formats() {
    use dspatch_trace::{suite, TraceSource};

    // Process-unique names so concurrent test runs on one machine never
    // race on the same files.
    let dir = std::env::temp_dir().join(format!("dspatch-lab-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");

    // Native binary trace.
    let workload = &suite()[0];
    let trace = workload.generate(1_500);
    let binary_path = dir.join("replay.dspt");
    dspatch_trace::io::save_trace(&trace, &binary_path).expect("save");
    let table = dspatch_lab(&[
        "--trace-file",
        binary_path.to_str().expect("utf-8 path"),
        "--prefetchers",
        "spp,dspatch_plus_spp",
    ]);
    assert!(table.contains("External trace replay"));
    assert!(table.contains("Baseline") && table.contains("DSPatch+SPP"));
    std::fs::remove_file(&binary_path).ok();

    // ChampSim-style text trace, JSON output.
    let text_path = dir.join("replay.champsim.txt");
    let mut text = String::from("# synthetic text trace\n");
    let mut source = workload.source(400);
    while let Some(record) = source.next_record() {
        text.push_str(&format!(
            "{:#x} {:#x} {} {}{}\n",
            record.pc.as_u64(),
            record.addr.as_u64(),
            if record.kind.is_load() { "L" } else { "S" },
            record.gap,
            if record.dependent { " D" } else { "" },
        ));
    }
    std::fs::write(&text_path, text).expect("write text trace");
    let json = dspatch_lab(&[
        "--trace-file",
        text_path.to_str().expect("utf-8 path"),
        "--format",
        "json",
    ]);
    let parsed = Json::parse(&json).expect("replay JSON is valid");
    let title = parsed.get("title").and_then(Json::as_str).expect("title");
    assert!(title.contains("400 accesses"), "got title: {title}");
    std::fs::remove_file(&text_path).ok();
}
