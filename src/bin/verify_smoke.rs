//! K = 5 verification smoke test for CI.
//!
//! Sweeps the three gadget-4 families (width-16 inputs) over all `4^5`
//! input pairs with five live bits — except Hamiltonian path, which uses
//! the same fixed 16-pair subset as the `verify_family` bench, because a
//! full K = 5 sweep of the n = 126 instance takes ~35 min — and prints a
//! report built only from engine-invariant data (`FamilyReport`). The
//! parallel engine is observationally equivalent to the serial one by
//! contract, so CI runs this twice (`--jobs 1` and `--jobs 0`) and
//! byte-compares the two reports.
//!
//! Flags:
//!
//! * `--jobs <N>` — worker threads (`1` = serial engine, `0` = all
//!   cores; default 1);
//! * `--out <path>` — write the report to a file instead of stdout;
//! * `--stats <path.jsonl>` — additionally write the sweep's
//!   `VerifyStats` (build accounting plus the aggregated solver search
//!   counters) as `congest-obs` JSON lines. It also carries solver wall
//!   times and, on the pool, the per-worker split, so this artifact is
//!   uploaded, never diffed.

use std::fs::File;
use std::io::{self, BufWriter, Write};

use congest_hardness::comm::BitString;
use congest_hardness::core::hamiltonian::HamPathFamily;
use congest_hardness::core::maxcut::{MaxCutFamily, StructuralMaxCutFamily};
use congest_hardness::core::mds::MdsFamily;
use congest_hardness::core::{
    ham_k5_subset, padded_inputs, verify_family_with, LowerBoundFamily, VerifyOptions,
};
use congest_hardness::obs::{jsonl_file_sink, Recorder};

const K: usize = 5;

fn run<F: LowerBoundFamily + Sync>(
    fam: &F,
    inputs: &[(BitString, BitString)],
    opts: &VerifyOptions,
    out: &mut dyn Write,
    sink: &mut Option<congest_hardness::obs::JsonlSink<BufWriter<File>>>,
    target: &'static str,
) -> io::Result<()> {
    let (res, stats) = verify_family_with(fam, inputs, opts);
    let report = res.unwrap_or_else(|v| panic!("{}: Definition 1.1 violated: {v}", fam.name()));
    writeln!(
        out,
        "{}: n={} K={} pairs={} cut={} implied_rounds={}",
        report.name,
        report.n,
        report.k_input,
        report.pairs_checked,
        report.cut_size(),
        report.implied_round_bound,
    )?;
    if let Some(sink) = sink.as_mut() {
        for rec in stats.to_records(target) {
            sink.record(rec);
        }
    }
    Ok(())
}

fn main() -> io::Result<()> {
    let mut jobs = 1usize;
    let mut out_path = None;
    let mut stats_path = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match arg.as_str() {
            "--jobs" => jobs = val("--jobs").parse().expect("--jobs takes an integer"),
            "--out" => out_path = Some(val("--out")),
            "--stats" => stats_path = Some(val("--stats")),
            other => panic!("unknown flag {other}"),
        }
    }

    let mut out: Box<dyn Write> = match &out_path {
        Some(p) => Box::new(BufWriter::new(File::create(p)?)),
        None => Box::new(io::stdout()),
    };
    let mut sink = match &stats_path {
        Some(p) => Some(jsonl_file_sink(p)?),
        None => None,
    };
    let opts = VerifyOptions::with_jobs(jobs);

    let mds = MdsFamily::new(4);
    let sweep = padded_inputs(K, mds.input_len());
    run(&mds, &sweep, &opts, &mut out, &mut sink, "smoke.mds")?;

    let mc = StructuralMaxCutFamily(MaxCutFamily::new(4));
    run(&mc, &sweep, &opts, &mut out, &mut sink, "smoke.maxcut")?;

    let ham = HamPathFamily::new(4);
    let subset = ham_k5_subset(ham.input_len());
    run(&ham, &subset, &opts, &mut out, &mut sink, "smoke.hamilton")?;

    out.flush()?;
    if let Some(sink) = sink {
        assert_eq!(sink.errors(), 0, "stats sink saw write errors");
    }
    Ok(())
}
