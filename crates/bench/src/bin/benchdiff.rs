//! `benchdiff` — the CI bench-regression gate.
//!
//! ```text
//! benchdiff <baseline.json> <fresh.json> [--noise 0.15]
//! ```
//!
//! Diffs a freshly generated `BENCH_*.json` against the committed
//! baseline (see `congest_bench::regress` for the rules: exact equality
//! on deterministic counters, median-normalized wall-time ratios against
//! a noise band). Prints the full comparison table and exits 1
//! on any regression, so CI can gate on it directly (a document that
//! does not parse — malformed JSON, or two entries with one id — exits
//! 1 too):
//!
//! ```text
//! cargo bench -p congest-bench --bench sim_round
//! benchdiff baseline/BENCH_sim_round.json BENCH_sim_round.json
//! ```
//!
//! The median normalization assumes both files ran the same code on
//! possibly different machines. To compare a parent's file with a
//! change's, run on one machine, read the `raw` column: a change that
//! speeds up most rows shifts the median and makes untouched rows look
//! regressed in the normalized one.

use std::process::ExitCode;

use congest_bench::regress::{compare, BenchDoc, DEFAULT_NOISE_BAND};

fn usage() -> ExitCode {
    eprintln!("usage: benchdiff <baseline.json> <fresh.json> [--noise <band, e.g. 0.15>]");
    ExitCode::from(2)
}

fn load(path: &str) -> Result<BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    BenchDoc::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (Some(base_path), Some(fresh_path)) = (args.first(), args.get(1)) else {
        return usage();
    };
    let mut noise = DEFAULT_NOISE_BAND;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--noise" if i + 1 < args.len() => {
                let Ok(band) = args[i + 1].parse::<f64>() else {
                    return usage();
                };
                if !(0.0..10.0).contains(&band) {
                    return usage();
                }
                noise = band;
                i += 2;
            }
            _ => return usage(),
        }
    }

    let (base, fresh) = match (load(base_path), load(fresh_path)) {
        (Ok(b), Ok(f)) => (b, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("benchdiff: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = compare(&base, &fresh, noise);
    print!("{}", report.render());
    if report.is_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
