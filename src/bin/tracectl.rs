//! `tracectl` — offline analyzer for `congest-obs` JSONL traces.
//!
//! Reads any trace produced by `experiments --trace`, the simulator's
//! `TraceObserver`, or the profiling hooks, and renders it:
//!
//! ```text
//! tracectl summary <trace.jsonl> [--out summary.json]
//! tracectl spans   <trace.jsonl>
//! tracectl heatmap <trace.jsonl> [--edges K] [--cols N]
//! tracectl faults  <trace.jsonl>
//! ```
//!
//! * `summary` — streams the trace through the `congest-obs`
//!   [`Aggregator`] and emits one deterministic `summary.json` document
//!   (per-`(target, event)` counts, `ts` spans, numeric field stats with
//!   p50/p90/p99, string-value tallies). Byte-identical for the same
//!   input, run after run.
//! * `spans` — rebuilds every span tree of the trace from its
//!   `span_tree` records (`SpanTree::add_record`): the `experiments`
//!   E-block table, the `sim.profile` phase profile, and any other tree
//!   a run wrote. Prints a flame-style breakdown (cumulative vs self
//!   time, % of root).
//! * `heatmap` — renders per-`(edge, round)` congestion from
//!   `edge_round` records (`TraceObserver::with_edge_records`): the K
//!   hottest edges as rows, round buckets as columns, intensity scaled
//!   to the hottest cell.
//! * `faults` — per-round fault timeline from `fault` records.
//!
//! Everything is read in one streaming pass per command; traces larger
//! than memory are fine for `summary` and `faults`.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;

use congest_faults::FaultTimeline;
use congest_obs::json::parse_record;
use congest_obs::{Aggregator, Record, SpanTree};

fn usage() -> ExitCode {
    eprintln!(
        "usage: tracectl <summary|spans|heatmap|faults> <trace.jsonl> [options]\n\
         \n\
         summary  [--out <summary.json>]   deterministic per-(target, event) digest\n\
         spans                             flame-style span/phase breakdown\n\
         heatmap  [--edges <K>] [--cols <N>]  per-(edge, round) congestion map\n\
         faults                            per-round fault timeline"
    );
    ExitCode::from(2)
}

/// Streams records of a JSONL trace through `f`, skipping blank lines.
/// Returns the number of records, or an error line/message.
fn for_each_record(path: &str, mut f: impl FnMut(Record)) -> Result<u64, (u64, String)> {
    let file = File::open(path).map_err(|e| (0, format!("cannot open {path}: {e}")))?;
    let mut n = 0u64;
    for (i, line) in BufReader::new(file).lines().enumerate() {
        let lineno = i as u64 + 1;
        let line = line.map_err(|e| (lineno, format!("read error: {e}")))?;
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse_record(&line).map_err(|e| (lineno, e.to_string()))?;
        f(rec);
        n += 1;
    }
    Ok(n)
}

fn cmd_summary(path: &str, out: Option<&str>) -> Result<(), (u64, String)> {
    let mut agg = Aggregator::new();
    let n = for_each_record(path, |rec| agg.fold(&rec))?;
    let doc = agg.summary_json();
    match out {
        None => print!("{doc}"),
        Some(out_path) => {
            let mut f = File::create(out_path)
                .map_err(|e| (0, format!("cannot create {out_path}: {e}")))?;
            f.write_all(doc.as_bytes())
                .map_err(|e| (0, format!("write error: {e}")))?;
            eprintln!("{n} records -> {out_path}");
        }
    }
    Ok(())
}

fn cmd_spans(path: &str) -> Result<(), (u64, String)> {
    let mut tree = SpanTree::new();
    for_each_record(path, |rec| {
        tree.add_record(&rec);
    })?;
    let spans = tree.render();
    if spans.is_empty() {
        println!("no span_tree records in trace");
    } else {
        print!("{spans}");
    }
    Ok(())
}

/// Intensity ramp for heatmap cells, blank → heaviest.
const RAMP: [char; 9] = [' ', '.', ':', '-', '=', '+', '*', '#', '@'];

fn cmd_heatmap(path: &str, top_edges: usize, cols: usize) -> Result<(), (u64, String)> {
    let mut per_edge: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    let mut max_round = 0u64;
    for_each_record(path, |rec| {
        if rec.event != "edge_round" {
            return;
        }
        if let (Some(round), Some(u), Some(v), Some(bits)) = (
            rec.u64_field("round"),
            rec.u64_field("u"),
            rec.u64_field("v"),
            rec.u64_field("bits"),
        ) {
            per_edge.entry((u, v)).or_default().push((round, bits));
            max_round = max_round.max(round);
        }
    })?;
    if per_edge.is_empty() {
        println!("no edge_round records in trace (enable TraceObserver::with_edge_records)");
        return Ok(());
    }
    // Hottest edges first; ties resolve by (u, v) so output is stable.
    let mut edges: Vec<((u64, u64), u64)> = per_edge
        .iter()
        .map(|(&e, rounds)| (e, rounds.iter().map(|&(_, b)| b).sum()))
        .collect();
    edges.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let shown = edges.len().min(top_edges.max(1));

    // Bucket rounds into at most `cols` columns.
    let cols = cols.clamp(1, 200);
    let rounds_per_col = (max_round / cols as u64) + 1;
    let ncols = ((max_round / rounds_per_col) + 1) as usize;
    let mut grid = vec![vec![0u64; ncols]; shown];
    for (row, &((u, v), _)) in edges.iter().take(shown).enumerate() {
        for &(round, bits) in &per_edge[&(u, v)] {
            grid[row][(round / rounds_per_col) as usize] += bits;
        }
    }
    let peak = grid
        .iter()
        .flat_map(|r| r.iter())
        .copied()
        .max()
        .unwrap_or(0)
        .max(1);

    println!(
        "congestion heatmap: {} edges ({} shown), rounds 0..={} ({} per column), peak cell {} bits",
        edges.len(),
        shown,
        max_round,
        rounds_per_col,
        peak
    );
    for (row, &((u, v), total)) in edges.iter().take(shown).enumerate() {
        let cells: String = grid[row]
            .iter()
            .map(|&bits| {
                // Highest ramp index only for the actual peak; everything
                // non-zero gets at least the faintest mark.
                let idx = (bits * (RAMP.len() as u64 - 1)).div_ceil(peak) as usize;
                RAMP[idx.min(RAMP.len() - 1)]
            })
            .collect();
        println!("  {u:>4}-{v:<4} |{cells}| {total} bits");
    }
    if edges.len() > shown {
        println!("  (+{} cooler edges not shown)", edges.len() - shown);
    }
    Ok(())
}

fn cmd_faults(path: &str) -> Result<(), (u64, String)> {
    let mut records: Vec<Record> = Vec::new();
    for_each_record(path, |rec| {
        if rec.event == "fault" {
            records.push(rec);
        }
    })?;
    let tl = FaultTimeline::from_records(&records);
    print!("{}", tl.render());
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(cmd), Some(path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let mut out: Option<String> = None;
    let mut edges = 16usize;
    let mut cols = 60usize;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--out" if i + 1 < args.len() => {
                out = Some(args[i + 1].clone());
                i += 2;
            }
            "--edges" if i + 1 < args.len() => {
                let Ok(k) = args[i + 1].parse() else {
                    return usage();
                };
                edges = k;
                i += 2;
            }
            "--cols" if i + 1 < args.len() => {
                let Ok(n) = args[i + 1].parse() else {
                    return usage();
                };
                cols = n;
                i += 2;
            }
            _ => return usage(),
        }
    }
    let result = match cmd.as_str() {
        "summary" => cmd_summary(path, out.as_deref()),
        "spans" => cmd_spans(path),
        "heatmap" => cmd_heatmap(path, edges, cols),
        "faults" => cmd_faults(path),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err((0, msg)) => {
            eprintln!("tracectl: {msg}");
            ExitCode::FAILURE
        }
        Err((line, msg)) => {
            eprintln!("tracectl: {path}:{line}: {msg}");
            ExitCode::FAILURE
        }
    }
}
