//! The `atscale`, `loadgen`, `atscale-client` and `store_compact` command
//! lines, driven as child processes: what `atscale` lists, how each
//! rejects what it does not know (usage, exit 2), that `store_compact
//! --verify` fails a bad row with exit 1, that
//! `--progress` prints with telemetry on, and that every ablation's
//! telemetry stream carries the samples of the runs it made.

use atscale::results::{HotRow, SegmentStore};
use atscale_bench::experiments::REGISTRY;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn atscale(args: &[&str], results: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_atscale"))
        .args(args)
        .env("ATSCALE_RESULTS", results)
        .output()
        .expect("launch atscale")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("atscale-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn loadgen_rejects_bad_flags_with_usage_and_exit_2() {
    for (args, complaint) in [
        (&["--spawn", "x"][..], "--spawn needs a number"),
        (&["--rate"][..], "--rate needs a value"),
        (&["--spawn", "0"][..], "--spawn must be at least 1"),
        (&["--fast"][..], "unknown argument: --fast"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_loadgen"))
            .args(args)
            .output()
            .expect("launch loadgen");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: loadgen"), "{args:?}: {stderr}");
    }
}

#[test]
fn client_and_store_compact_reject_bad_command_lines_with_usage_and_exit_2() {
    let client = env!("CARGO_BIN_EXE_atscale-client");
    let compact = env!("CARGO_BIN_EXE_store_compact");
    for (bin, args, complaint, usage) in [
        (
            client,
            &["ping", "--fast"][..],
            "unknown option --fast",
            "usage: atscale-client",
        ),
        (client, &[][..], "no command given", "usage: atscale-client"),
        (
            compact,
            &["--dir"][..],
            "--dir needs a path",
            "usage: store_compact",
        ),
    ] {
        let out = Command::new(bin).args(args).output().expect("launch");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(complaint), "{bin} {args:?}: {stderr}");
        assert!(stderr.contains(usage), "{bin} {args:?}: {stderr}");
    }
}

/// A live row whose JSON is not a record fails `--verify` as a run-time
/// failure — exit 1, naming the row's key — not a panic.
#[test]
fn store_compact_verify_fails_on_an_unparseable_row_with_exit_1() {
    let dir = scratch("verify-unparsed");
    let key = "00000000deadbeef";
    let hot = HotRow {
        workload: "cc-urand".to_string(),
        footprint_mb: 16,
        page_size: "4K".to_string(),
        arch: "baseline".to_string(),
        wcpi_fp: 0,
        x_fp: 0,
    };
    SegmentStore::open(dir.join("segments"))
        .expect("open segment store")
        .append(key, hot, b"{\"not\":1}")
        .expect("seed a row");
    let out = Command::new(env!("CARGO_BIN_EXE_store_compact"))
        .arg("--dir")
        .arg(&dir)
        .arg("--verify")
        .output()
        .expect("launch store_compact");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains(key), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_prints_the_registry_in_order() {
    let out = atscale(&["list"], &scratch("list"));
    assert!(out.status.success());
    let listed: Vec<String> = String::from_utf8(out.stdout)
        .expect("utf-8")
        .lines()
        .map(|line| line.split_whitespace().next().expect("name").to_string())
        .collect();
    let registered: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
    assert_eq!(listed, registered);
}

#[test]
fn what_it_does_not_know_gets_usage_the_list_and_exit_2() {
    let results = scratch("reject");
    for (args, complaint) in [
        (
            &["run", "fig2_cc_urand", "fig11_missing", "--test"][..],
            "unknown experiment fig11_missing",
        ),
        (
            &["run", "fig2_cc_urand", "--fast"][..],
            "unknown option --fast",
        ),
        (&["run", "--test"][..], "run needs an experiment name"),
        (
            &["run", "all", "--threads", "many"][..],
            "--threads needs a number",
        ),
        (&["regenerate"][..], "unknown command regenerate"),
        (&[][..], "no command given"),
        // The probe hard-codes its sweep: a profile flag would be ignored.
        (
            &["calibrate", "--test"][..],
            "calibrate has a fixed sweep, --test does not apply",
        ),
        (
            &["calibrate", "cc-urand", "--quick"][..],
            "--quick does not apply",
        ),
        (
            &["calibrate", "cc-random"][..],
            "unknown workload cc-random",
        ),
    ] {
        let out = atscale(args, &results);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
        assert!(stderr.contains(complaint), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: atscale list"), "{args:?}: {stderr}");
        assert!(stderr.contains("fig10_2mb_pages"), "{args:?}: {stderr}");
    }
    // Rejected before anything ran: no store, no CSV, no stream.
    assert!(!results.exists());
}

#[test]
fn progress_reaches_stderr_and_the_stream_alike() {
    let results = scratch("progress");
    let out = atscale(
        &[
            "run",
            "fig2_cc_urand",
            "--test",
            "--progress",
            "--telemetry-jsonl",
        ],
        &results,
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let printed = stderr
        .lines()
        .filter(|line| line.starts_with("[atscale] run "))
        .count();
    assert_eq!(printed, 9, "{stderr}");
    let stream = results.join("telemetry/fig2_cc_urand.jsonl");
    let events = std::fs::read_to_string(&stream)
        .unwrap_or_else(|e| panic!("read {}: {e}", stream.display()));
    let streamed = events
        .lines()
        .filter(|line| line.starts_with(r#"{"type":"progress""#))
        .count();
    assert_eq!(streamed, 9);
    let _ = std::fs::remove_dir_all(&results);
}

#[test]
fn every_ablation_streams_the_samples_of_its_runs() {
    let results = scratch("ablations");
    let ablations: Vec<&str> = REGISTRY
        .iter()
        .map(|e| e.name)
        .filter(|name| name.starts_with("ablate_"))
        .collect();
    assert_eq!(ablations.len(), 4);
    let mut args = vec!["run"];
    args.extend(&ablations);
    args.extend(["--test", "--telemetry-jsonl", "--sample-interval", "20000"]);
    let out = atscale(&args, &results);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for name in ablations {
        let stream = results.join("telemetry").join(format!("{name}.jsonl"));
        let events = std::fs::read_to_string(&stream)
            .unwrap_or_else(|e| panic!("read {}: {e}", stream.display()));
        let samples = events
            .lines()
            .filter(|line| line.starts_with(r#"{"type":"sample""#))
            .count();
        assert!(samples > 0, "{name}: no sample event in {stream:?}");
        assert!(results.join(format!("{name}.csv")).is_file());
    }
    let _ = std::fs::remove_dir_all(&results);
}
