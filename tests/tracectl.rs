//! End-to-end tests for the `tracectl` trace analyzer: generate a real
//! trace with the workspace's own instrumentation (simulator rounds with
//! per-edge records, fault injection, phase profiling), then drive the
//! binary over it and check each view — including that `summary` is
//! byte-identical across runs, the determinism the CI gate relies on.

use std::path::PathBuf;
use std::process::{Command, Output};

use congest_faults::FaultPlan;
use congest_graph::generators;
use congest_obs::{JsonlSink, Recorder, SpanTree, VirtualClock};
use congest_sim::algorithms::LeaderElection;
use congest_sim::{PhaseProfile, Simulator, TraceObserver};

fn tracectl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tracectl"))
        .args(args)
        .output()
        .expect("tracectl runs")
}

/// Writes a trace exercising every record shape tracectl understands:
/// `round` + `edge_round` + `fault` from an injected run, and two span
/// trees as `span_tree` records, the one shape timing trees take in a
/// trace: a profiled run's phases under `sim.profile`, and an E-block
/// table under `experiments` as the `experiments` binary writes it.
fn write_trace(path: &PathBuf) {
    let file = std::fs::File::create(path).expect("create trace");
    let mut sink = JsonlSink::with_clock(file, VirtualClock::sequence());

    let g = generators::cycle(10);
    let sim = Simulator::new(&g);

    let mut plan = FaultPlan::seeded(11).with_drop_prob(0.2);
    let mut alg = LeaderElection::new(10);
    let mut obs = TraceObserver::new(&mut sink).with_edge_records(true);
    sim.try_run_with(&mut alg, 500, &mut obs, &mut plan)
        .expect("legal run");
    drop(obs);

    let mut prof = PhaseProfile::every_round();
    let mut alg2 = LeaderElection::new(10);
    sim.try_run_profiled(
        &mut alg2,
        500,
        &mut congest_sim::NoopRoundObserver,
        &mut congest_sim::PerfectLink,
        &mut prof,
    )
    .expect("legal run");
    for rec in prof.to_records("sim.profile") {
        sink.record(rec);
    }

    let mut blocks = SpanTree::new();
    blocks.add_measured(&["experiments", "E0"], 1_500, 1);
    blocks.add_measured(&["experiments", "E8_E9"], 2_500, 1);
    blocks.add_measured(&["experiments"], 4_000, 1);
    for rec in blocks.to_records("experiments") {
        sink.record(rec);
    }
    assert_eq!(sink.errors(), 0);
}

#[test]
fn summary_is_byte_identical_across_runs() {
    let dir = std::env::temp_dir().join("congest-tracectl-summary");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    write_trace(&trace);
    let trace = trace.to_str().unwrap();

    let first = tracectl(&["summary", trace]);
    assert!(first.status.success(), "{first:?}");
    let second = tracectl(&["summary", trace]);
    assert_eq!(
        first.stdout, second.stdout,
        "same trace must digest to identical bytes"
    );

    let text = String::from_utf8(first.stdout).unwrap();
    assert!(text.contains("\"records\":"), "{text}");
    assert!(text.contains("\"target\": \"sim\""), "{text}");
    assert!(text.contains("\"edge_round\""), "{text}");

    // --out writes the same document to a file.
    let out = dir.join("summary.json");
    let run = tracectl(&["summary", trace, "--out", out.to_str().unwrap()]);
    assert!(run.status.success());
    assert_eq!(std::fs::read_to_string(&out).unwrap(), text);
}

#[test]
fn spans_heatmap_and_faults_render_their_views() {
    let dir = std::env::temp_dir().join("congest-tracectl-views");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    write_trace(&trace);
    let trace = trace.to_str().unwrap();

    let spans = tracectl(&["spans", trace]);
    assert!(spans.status.success());
    let spans = String::from_utf8(spans.stdout).unwrap();
    for phase in ["deliver", "compute", "meter", "link_fate", "epilogue"] {
        assert!(spans.contains(phase), "missing {phase} in:\n{spans}");
    }
    assert!(spans.contains("sim.profile"), "{spans}");
    let block_lines: Vec<&str> = spans
        .lines()
        .skip_while(|l| !l.starts_with("experiments "))
        .take(3)
        .collect();
    assert_eq!(block_lines.len(), 3, "no experiments tree in:\n{spans}");
    assert!(block_lines[0].contains("4000 µs cum"), "{spans}");
    assert!(block_lines[1].starts_with("  E0 "), "{spans}");
    assert!(block_lines[2].starts_with("  E8_E9 "), "{spans}");

    let heat = tracectl(&["heatmap", trace, "--edges", "4", "--cols", "20"]);
    assert!(heat.status.success());
    let heat = String::from_utf8(heat.stdout).unwrap();
    assert!(heat.contains("congestion heatmap:"), "{heat}");
    assert!(heat.contains("bits"), "{heat}");

    let faults = tracectl(&["faults", trace]);
    assert!(faults.status.success());
    let faults = String::from_utf8(faults.stdout).unwrap();
    assert!(faults.contains("faults over rounds"), "{faults}");
    assert!(faults.contains("drop×"), "{faults}");
}

#[test]
fn usage_errors_exit_2_and_missing_files_exit_1() {
    let bad = tracectl(&["frobnicate", "/dev/null"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8(bad.stderr).unwrap().contains("usage:"));

    let none = tracectl(&[]);
    assert_eq!(none.status.code(), Some(2));

    let missing = tracectl(&["summary", "/nonexistent/trace.jsonl"]);
    assert_eq!(missing.status.code(), Some(1));
    assert!(String::from_utf8(missing.stderr)
        .unwrap()
        .contains("cannot open"));
}
