//! The congest-hardness benchmark: three workloads, each timed end to end
//! in its own process and checked for correct output.
//!
//! ```text
//! perfbench --workload <report|sweep_mds|sim_flood>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --experiments <path to the experiments binary> --scratch <dir>
//! ```
//!
//! `perfbench/run.py` builds the binaries and passes the last two flags.
//! A run repeats the workload's fixed work ("passes") for about
//! `--seconds` and prints, as the last line of stdout, one JSON object
//! with the number of passes attempted and failed and the medians of the
//! metrics. With `--trace 0` these are the end-to-end metrics; with
//! `--trace 1` traced and untraced passes alternate, and the per-layer
//! metrics come from timing the calls into each crate from outside.

mod flood;
mod report;
mod sweep;
mod usage;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics, measured with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, from a traced run. A workload that does not reach a
/// layer reports 0 for it.
const PER_LAYER: [(&str, &str); 49] = [
    ("experiments.E0_s", "s"),
    ("experiments.E1_s", "s"),
    ("experiments.E2_E3_E4_s", "s"),
    ("experiments.E5_s", "s"),
    ("experiments.E6_s", "s"),
    ("experiments.E7_s", "s"),
    ("experiments.E8_E9_s", "s"),
    ("experiments.E10_E11_E12_s", "s"),
    ("experiments.E13_E14_s", "s"),
    ("experiments.E15_E16_s", "s"),
    ("experiments.E17_s", "s"),
    ("experiments.E18_E19_s", "s"),
    ("experiments.E20_E21_s", "s"),
    ("experiments.E22_s", "s"),
    ("experiments.attributed_share", "ratio"),
    ("solvers.mis.nodes", "count"),
    ("solvers.mis.search_s", "s"),
    ("solvers.hamilton.nodes", "count"),
    ("solvers.hamilton.prunes", "count"),
    ("solvers.hamilton.backtracks", "count"),
    ("solvers.maxcut.nodes", "count"),
    ("solvers.mds.nodes", "count"),
    ("solvers.mds.prunes", "count"),
    ("solvers.mds.backtracks", "count"),
    ("solvers.mds.bound_cutoffs", "count"),
    ("comm.exact.rects", "count"),
    ("comm.exact.memo_hits", "count"),
    ("core.family.build_s", "s"),
    ("core.family.delta_s", "s"),
    ("core.family.predicate_s", "s"),
    ("core.verify.self_s", "s"),
    ("core.verify.full_builds", "count"),
    ("core.verify.delta_builds", "count"),
    ("core.verify.memo_hits", "count"),
    ("core.verify.memo_misses", "count"),
    ("core.verify.predicate_calls", "count"),
    ("core.verify.dependence_comparisons", "count"),
    ("par.busy_s", "s"),
    ("par.idle_s", "s"),
    ("par.utilization", "ratio"),
    ("par.imbalance", "ratio"),
    ("graph.generate_s", "s"),
    ("sim.csr_build_s", "s"),
    ("sim.compute_s", "s"),
    ("sim.engine_s", "s"),
    ("sim.rounds", "count"),
    ("sim.messages", "count"),
    ("sim.total_bits", "count"),
    ("bench.trace_overhead_share", "ratio"),
];

/// Set-ups per sweep run, and start-up probes per report run; their
/// median is `setup_s`.
const SETUPS: usize = 101;

/// Passes per `report` run at least. A pass takes several seconds, so a
/// run needs several for its median to settle.
const MIN_REPORT_PASSES: usize = 5;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Report,
    SweepMds,
    SimFlood,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    experiments: PathBuf,
    scratch: PathBuf,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut args = args;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or(format!("missing {flag}"));
    let workload = match take("--workload")?.as_str() {
        "report" => Workload::Report,
        "sweep_mds" => Workload::SweepMds,
        "sim_flood" => Workload::SimFlood,
        other => return Err(format!("unknown workload {other}")),
    };
    let seed = take("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not {other}")),
    };
    let experiments = take("--experiments")?.into();
    let scratch = take("--scratch")?.into();
    if let Some(flag) = flags.keys().next() {
        return Err(format!("unknown flag {flag}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        experiments,
        scratch,
    })
}

/// What one pass measured.
#[derive(Debug, Default)]
struct Pass {
    traced: bool,
    wall: f64,
    cpu: f64,
    /// The pass's set-up time, for workloads that set up per pass.
    setup: Option<f64>,
    /// Layer times and ratios (traced passes only).
    times: Vec<(String, f64)>,
    /// Deterministic counts, compared across every pass of the run.
    counts: Vec<(&'static str, u64)>,
    failure: Option<String>,
}

/// Runs passes, alternating traced and untraced ones when `trace`, until
/// the next pass would end after `seconds` from `start`. At least
/// `min_passes` run. A failed pass is recorded and the run goes on.
fn run_passes(
    start: Instant,
    seconds: f64,
    trace: bool,
    min_passes: usize,
    mut pass: impl FnMut(bool) -> Pass,
) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let traced = trace && passes.len().is_multiple_of(2);
        let t0 = Instant::now();
        let mut p = pass(traced);
        p.traced = traced;
        let took = t0.elapsed().as_secs_f64();
        if p.failure.is_none() {
            if let Some(first) = passes.iter().find(|q| q.failure.is_none()) {
                if first.counts != p.counts {
                    p.failure = Some(format!(
                        "counts {:?} differ from an earlier pass's {:?}",
                        p.counts, first.counts
                    ));
                }
            }
        }
        eprintln!(
            "pass {} traced={} wall {:.4} s cpu {:.4} s{}",
            passes.len(),
            traced,
            p.wall,
            p.cpu,
            p.failure
                .as_deref()
                .map(|f| format!(" FAILED: {f}"))
                .unwrap_or_default()
        );
        passes.push(p);
        let done = start.elapsed().as_secs_f64();
        if passes.len() >= min_passes && done + took > seconds {
            return passes;
        }
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// The run's result line.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Medians over the passes: end-to-end metrics from untraced passes
    /// when `!trace`, per-layer metrics otherwise.
    fn from_passes(passes: &[Pass], trace: bool, setups: &[f64], peak_rss_bytes: u64) -> Self {
        let failed = passes.iter().filter(|p| p.failure.is_some()).count();
        let of = |traced: bool, f: &dyn Fn(&Pass) -> f64| {
            median(
                passes
                    .iter()
                    .filter(|p| p.traced == traced)
                    .map(f)
                    .collect(),
            )
        };
        let metrics = if !trace {
            let values = [
                of(false, &|p| p.wall),
                of(false, &|p| p.cpu),
                peak_rss_bytes as f64 / 1e6,
                median(setups.to_vec()),
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        } else {
            let mut values: BTreeMap<&str, f64> = BTreeMap::new();
            if let Some(first) = passes.iter().find(|p| p.failure.is_none()) {
                for &(name, count) in &first.counts {
                    values.insert(name, count as f64);
                }
            }
            let mut times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
            for (name, t) in passes.iter().filter(|p| p.traced).flat_map(|p| &p.times) {
                times.entry(name).or_default().push(*t);
            }
            for (name, xs) in times {
                values.insert(name, median(xs));
            }
            let overhead = of(true, &|p| p.wall) / of(false, &|p| p.wall) - 1.0;
            values.insert("bench.trace_overhead_share", overhead);
            PER_LAYER
                .iter()
                .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(0.0)))
                .collect()
        };
        Outcome {
            attempted: passes.len(),
            failed,
            metrics,
        }
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, v)| {
                let v = match (*unit, v.is_finite()) {
                    ("count", _) => format!("{}", *v as u64),
                    (_, true) => format!("{v:?}"),
                    (_, false) => "0.0".to_string(),
                };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn run_report(args: &Args, start: Instant) -> Outcome {
    let trace_file = args
        .scratch
        .join(format!("report-trace-{}.jsonl", std::process::id()));
    let setups: Vec<f64> = (0..SETUPS)
        .filter_map(|_| report::startup(&args.experiments).map(secs))
        .collect();
    let passes = run_passes(
        start,
        args.seconds,
        args.trace,
        MIN_REPORT_PASSES,
        |traced| {
            let r = report::pass(&args.experiments, traced.then_some(trace_file.as_path()));
            let _ = std::fs::remove_file(&trace_file);
            let mut times = Vec::new();
            if traced {
                let wall = secs(r.wall);
                let attributed: f64 = r.blocks.values().sum::<f64>() / 1000.0;
                for block in report::BLOCKS {
                    let ms = r.blocks.get(block).copied().unwrap_or(0.0);
                    times.push((report::block_metric(block), ms / 1000.0));
                }
                times.push(("experiments.attributed_share".into(), attributed / wall));
                let mis = r.mis_search.unwrap_or_default();
                times.push(("solvers.mis.search_s".into(), secs(mis)));
            }
            Pass {
                wall: secs(r.wall),
                cpu: secs(r.cpu),
                times,
                counts: r.counts.into_iter().collect(),
                failure: r.failure,
                ..Pass::default()
            }
        },
    );
    let peak = usage::usage(usage::Who::Children).peak_rss_bytes;
    Outcome::from_passes(&passes, args.trace, &setups, peak)
}

fn run_sweep(args: &Args, start: Instant) -> Outcome {
    let sw = sweep::Sweep::mds(args.seed);
    let setups: Vec<f64> = (0..SETUPS).map(|_| secs(sw.setup())).collect();
    let passes = run_passes(start, args.seconds, args.trace, 3, |traced| {
        let r = sw.pass(traced);
        let mut times = Vec::new();
        if let Some(t) = r.times {
            times.push(("core.family.build_s".into(), secs(t.build)));
            times.push(("core.family.delta_s".into(), secs(t.delta)));
            times.push(("core.family.predicate_s".into(), secs(t.predicate)));
            times.push(("core.verify.self_s".into(), secs(t.verify_self)));
            if let Some(pool) = &r.stats.pool {
                let busy = &pool.busy_micros_per_worker;
                let max = busy.iter().copied().max().unwrap_or(0) as f64;
                let mean = pool.busy_micros() as f64 / busy.len().max(1) as f64;
                times.push(("par.busy_s".into(), pool.busy_micros() as f64 / 1e6));
                times.push(("par.idle_s".into(), pool.idle_micros() as f64 / 1e6));
                times.push(("par.utilization".into(), pool.utilization().unwrap_or(0.0)));
                times.push(("par.imbalance".into(), max / mean));
            }
        }
        Pass {
            wall: secs(r.wall),
            cpu: secs(r.cpu),
            times,
            counts: sweep::counters(&r.stats).to_vec(),
            failure: r.failure,
            ..Pass::default()
        }
    });
    let peak = usage::usage(usage::Who::Process).peak_rss_bytes;
    Outcome::from_passes(&passes, args.trace, &setups, peak)
}

fn run_flood(args: &Args, start: Instant) -> Outcome {
    let fl = flood::Flood::new(flood::NODES, args.seed);
    let passes = run_passes(start, args.seconds, args.trace, 3, |traced| {
        let r = fl.pass(traced);
        let mut times = Vec::new();
        if let Some(compute) = r.compute {
            times.push(("graph.generate_s".into(), secs(r.generate)));
            times.push(("sim.csr_build_s".into(), secs(r.csr_build)));
            times.push(("sim.compute_s".into(), secs(compute)));
            times.push(("sim.engine_s".into(), secs(r.wall.saturating_sub(compute))));
        }
        let counts = match &r.stats {
            Ok(s) => vec![
                ("sim.rounds", s.rounds),
                ("sim.messages", s.messages),
                ("sim.total_bits", s.total_bits),
            ],
            Err(_) => Vec::new(),
        };
        Pass {
            wall: secs(r.wall),
            cpu: secs(r.cpu),
            setup: Some(secs(r.generate + r.csr_build)),
            times,
            counts,
            failure: r.failure,
            ..Pass::default()
        }
    });
    let setups: Vec<f64> = passes.iter().filter_map(|p| p.setup).collect();
    let peak = usage::usage(usage::Who::Process).peak_rss_bytes;
    Outcome::from_passes(&passes, args.trace, &setups, peak)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload {
        Workload::Report => run_report(&args, start),
        Workload::SweepMds => run_sweep(&args, start),
        Workload::SimFlood => run_flood(&args, start),
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_pass_is_counted_and_the_run_goes_on() {
        let mut n = 0;
        let passes = run_passes(Instant::now(), 0.0, false, 4, |_| {
            n += 1;
            Pass {
                wall: n as f64,
                failure: (n == 2).then(|| "wrong output".to_string()),
                ..Pass::default()
            }
        });
        assert_eq!(passes.len(), 4);
        let out = Outcome::from_passes(&passes, false, &[0.5], 1_000_000);
        assert_eq!((out.attempted, out.failed), (4, 1));
        let json = out.to_json();
        assert!(json.starts_with("{\"correct\": false, \"attempted\": 4, \"failed\": 1,"));
        assert!(json.contains("\"wall_s\": {\"value\": 2.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn drifting_counts_fail_the_pass() {
        let mut n = 0;
        let passes = run_passes(Instant::now(), 0.0, true, 3, |_| {
            n += 1;
            Pass {
                wall: 1.0,
                counts: vec![("sim.messages", if n == 3 { 9 } else { 10 })],
                ..Pass::default()
            }
        });
        assert_eq!(
            passes.iter().map(|p| p.traced).collect::<Vec<_>>(),
            [true, false, true]
        );
        let out = Outcome::from_passes(&passes, true, &[], 0);
        assert_eq!(out.failed, 1);
        let messages = out
            .metrics
            .iter()
            .find(|m| m.0 == "sim.messages")
            .expect("listed");
        assert_eq!(messages.2, 10.0);
    }

    #[test]
    fn benchmark_json_lists_every_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(doc.contains(&entry), "{entry}");
        }
        assert_eq!(
            doc.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
        for w in ["report", "sweep_mds", "sim_flood"] {
            assert!(doc.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn arguments_are_checked() {
        let ok = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let base =
            "--workload sim_flood --seed 3 --seconds 10 --trace 1 --experiments e --scratch d";
        let a = ok(base).expect("valid");
        assert_eq!((a.workload, a.seed, a.trace), (Workload::SimFlood, 3, true));
        assert!(ok(&base.replace("sim_flood", "nope")).is_err());
        assert!(ok(&base.replace("--trace 1", "--trace 2")).is_err());
        assert!(ok(&format!("{base} --extra 1")).is_err());
        assert!(ok("--workload report").is_err());
    }
}
