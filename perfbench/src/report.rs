//! `report`: the `experiments --jobs 1` binary as a child process.
//!
//! Its stdout is compared with the reference report kept with the
//! benchmark after masking the search-effort fields, so a kernel that
//! searches less still passes while a changed optimum, size, cut, round
//! or bit count, or a `VIOLATION` line, fails the pass. The masked
//! numbers are returned as counts, the stderr phase table gives the
//! per-block wall times, and with `--trace` the `solver.mis` records give
//! the MaxIS search time.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use congest_obs::json::parse_jsonl;

use crate::usage::{usage, Who};

/// The reference report: `experiments --jobs 1` stdout at the commit that
/// defined this benchmark.
pub const REFERENCE: &str = include_str!("../reference/experiments_output.txt");

/// The E-blocks of the phase table, in report order.
pub const BLOCKS: [&str; 14] = [
    "E0",
    "E1",
    "E2/E3/E4",
    "E5",
    "E6",
    "E7",
    "E8/E9",
    "E10/E11/E12",
    "E13/E14",
    "E15/E16",
    "E17",
    "E18/E19",
    "E20/E21",
    "E22",
];

/// The metric name of a block's wall time, e.g. `experiments.E10_E11_E12_s`.
pub fn block_metric(block: &str) -> String {
    format!("experiments.{}_s", block.replace('/', "_"))
}

/// A search-effort field: within `section`, the number written right
/// before `suffix` is masked and added to `metric`.
struct Masked {
    section: &'static str,
    suffix: &'static str,
    metric: &'static str,
}

const MASKED: [Masked; 8] = [
    Masked {
        section: "E0",
        suffix: " rects",
        metric: "comm.exact.rects",
    },
    Masked {
        section: "E0",
        suffix: " memo hits",
        metric: "comm.exact.memo_hits",
    },
    Masked {
        section: "E2/E3/E4",
        suffix: " dfs nodes",
        metric: "solvers.hamilton.nodes",
    },
    Masked {
        section: "E2/E3/E4",
        suffix: " prunes",
        metric: "solvers.hamilton.prunes",
    },
    Masked {
        section: "E2/E3/E4",
        suffix: " backtracks",
        metric: "solvers.hamilton.backtracks",
    },
    Masked {
        section: "E6",
        suffix: " steps",
        metric: "solvers.maxcut.nodes",
    },
    Masked {
        section: "E17",
        suffix: " nodes",
        metric: "solvers.mds.nodes",
    },
    Masked {
        section: "E17",
        suffix: " prunes",
        metric: "solvers.mds.prunes",
    },
];

/// The section whose table's last column ("bb nodes") is masked.
const MIS_TABLE: &str = "E10/E11/E12";

/// Every count the mask can produce, so a report missing a field still
/// reports it (as 0) and fails the comparison instead.
pub const COUNTS: [&str; 9] = [
    "comm.exact.rects",
    "comm.exact.memo_hits",
    "solvers.hamilton.nodes",
    "solvers.hamilton.prunes",
    "solvers.hamilton.backtracks",
    "solvers.maxcut.nodes",
    "solvers.mds.nodes",
    "solvers.mds.prunes",
    "solvers.mis.nodes",
];

/// Replaces every run of digits that ends right before `suffix` with `#`,
/// returning the numbers it replaced.
fn mask_before(line: &str, suffix: &str) -> (String, Vec<u64>) {
    let mut out = String::with_capacity(line.len());
    let mut found = Vec::new();
    let mut rest = line;
    while let Some(at) = rest.find(suffix) {
        let head = &rest[..at];
        let digits = head.len() - head.trim_end_matches(|c: char| c.is_ascii_digit()).len();
        if digits > 0 {
            let (keep, num) = head.split_at(head.len() - digits);
            out.push_str(keep);
            out.push('#');
            found.push(num.parse().expect("a run of ASCII digits"));
        } else {
            out.push_str(head);
        }
        out.push_str(suffix);
        rest = &rest[at + suffix.len()..];
    }
    out.push_str(rest);
    (out, found)
}

/// The section id of a `==== <id>: <title> ====` header line.
fn section_of(line: &str) -> Option<&str> {
    line.strip_prefix("==== ")?.split(':').next()
}

/// The report with every search-effort field replaced by `#`, and the sum
/// of each masked field.
pub fn mask(report: &str) -> (Vec<String>, BTreeMap<&'static str, u64>) {
    let mut counts: BTreeMap<&'static str, u64> = COUNTS.iter().map(|&c| (c, 0)).collect();
    let mut section = "";
    let mut lines = Vec::new();
    for line in report.lines() {
        if let Some(id) = section_of(line) {
            section = id;
        }
        let mut line = line.to_string();
        for m in MASKED.iter().filter(|m| m.section == section) {
            let (masked, found) = mask_before(&line, m.suffix);
            *counts.get_mut(m.metric).expect("listed in COUNTS") += found.iter().sum::<u64>();
            line = masked;
        }
        if section == MIS_TABLE {
            let cols: Vec<&str> = line.split_whitespace().collect();
            if cols.len() == 7 && cols[0].parse::<u64>().is_ok() {
                if let Ok(nodes) = cols[6].parse::<u64>() {
                    *counts.get_mut("solvers.mis.nodes").expect("listed") += nodes;
                    // The column is right-aligned: its padding goes with its
                    // digits, so a count of another width masks alike.
                    let head = line
                        .trim_end()
                        .strip_suffix(cols[6])
                        .expect("the last column ends the line")
                        .trim_end();
                    line = format!("{head} #");
                }
            }
        }
        lines.push(line);
    }
    (lines, counts)
}

/// Why `actual` is not the reference report up to search effort, or
/// `None` when it is.
pub fn compare(actual: &str, reference: &str) -> Option<String> {
    if let Some(line) = actual.lines().find(|l| l.contains("VIOLATION")) {
        return Some(format!("violation line: {}", line.trim()));
    }
    let (got, _) = mask(actual);
    let (want, _) = mask(reference);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g != w {
            return Some(format!("line {}: {:?} != reference {:?}", i + 1, g, w));
        }
    }
    (got.len() != want.len()).then(|| format!("{} lines != reference {}", got.len(), want.len()))
}

/// Block wall times in milliseconds from the stderr phase table.
pub fn phase_table(stderr: &str) -> BTreeMap<String, f64> {
    let mut rows = BTreeMap::new();
    let table = stderr
        .lines()
        .skip_while(|l| l.trim() != "==== phase summary ====")
        .skip(2);
    for line in table {
        let mut cols = line.split_whitespace();
        let (Some(id), Some(ms), None) = (cols.next(), cols.next(), cols.next()) else {
            break;
        };
        if id == "total" {
            break;
        }
        match ms.parse::<f64>() {
            Ok(ms) => rows.insert(id.to_string(), ms),
            Err(_) => break,
        };
    }
    rows
}

/// Summed `elapsed_micros` of the `solver.mis` records in a JSONL trace,
/// or why the trace is malformed.
pub fn mis_search(trace: &str) -> Result<Duration, String> {
    let records = parse_jsonl(trace).map_err(|e| format!("trace: {e}"))?;
    let micros = records
        .iter()
        .filter(|r| r.target == "solver.mis")
        .filter_map(|r| r.u64_field("elapsed_micros"))
        .sum();
    Ok(Duration::from_micros(micros))
}

/// One run of the binary.
pub struct ReportPass {
    /// Spawn to exit.
    pub wall: Duration,
    /// The child's user plus system CPU time.
    pub cpu: Duration,
    /// Block wall times in milliseconds.
    pub blocks: BTreeMap<String, f64>,
    /// The masked search-effort counts.
    pub counts: BTreeMap<&'static str, u64>,
    /// MaxIS search time from the trace, when traced.
    pub mis_search: Option<Duration>,
    /// Why the pass is wrong, if it is.
    pub failure: Option<String>,
}

/// Runs `exe --jobs 1`, with `--trace <trace>` when given.
pub fn pass(exe: &Path, trace: Option<&Path>) -> ReportPass {
    let mut cmd = Command::new(exe);
    cmd.args(["--jobs", "1"]);
    if let Some(t) = trace {
        cmd.arg("--trace").arg(t);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let cpu0 = usage(Who::Children).cpu;
    let t0 = Instant::now();
    let failed = |why: String| ReportPass {
        wall: t0.elapsed(),
        cpu: Duration::ZERO,
        blocks: BTreeMap::new(),
        counts: BTreeMap::new(),
        mis_search: None,
        failure: Some(why),
    };
    let mut child = match cmd.spawn() {
        Ok(c) => c,
        Err(e) => return failed(format!("cannot start {}: {e}", exe.display())),
    };
    let mut stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let (out, err) = std::thread::scope(|s| {
        let err = s.spawn(move || {
            let mut text = String::new();
            stderr.read_to_string(&mut text).map(|_| text)
        });
        let mut out = Vec::new();
        let read = stdout.read_to_end(&mut out).map(|_| out);
        (read, err.join().expect("stderr reader does not panic"))
    });
    let status = child.wait();
    let wall = t0.elapsed();
    let cpu = usage(Who::Children).cpu.saturating_sub(cpu0);
    let (out, err) = match (status, out, err) {
        (Ok(st), Ok(out), Ok(err)) if st.success() => (out, err),
        (Ok(st), _, _) if !st.success() => return failed(format!("exited with {st}")),
        _ => return failed("lost the child's output or status".into()),
    };
    let stdout = String::from_utf8_lossy(&out);
    let (_, counts) = mask(&stdout);
    let traced = trace.map(|t| {
        let text = std::fs::read_to_string(t).map_err(|e| format!("trace: {e}"))?;
        mis_search(&text)
    });
    let mis_search = match traced.transpose() {
        Ok(searched) => searched,
        Err(why) => return failed(why),
    };
    ReportPass {
        wall,
        cpu,
        blocks: phase_table(&err),
        counts,
        mis_search,
        failure: compare(&stdout, REFERENCE),
    }
}

/// Spawn to the first byte of `exe --jobs 1`'s report, after which the
/// child is stopped: the start-up every pass pays before its first block.
pub fn startup(exe: &Path) -> Option<Duration> {
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--jobs", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .ok()?;
    let mut first = [0u8; 1];
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read(&mut first);
    let took = t0.elapsed();
    let _ = child.kill();
    let _ = child.wait();
    matches!(read, Ok(1)).then_some(took)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_masks_every_search_field() {
        let (_, counts) = mask(REFERENCE);
        assert_eq!(counts["comm.exact.rects"], 8 + 224 + 65024);
        assert_eq!(counts["comm.exact.memo_hits"], 1 + 1121 + 2991041);
        assert_eq!(counts["solvers.hamilton.nodes"], 8858);
        assert_eq!(counts["solvers.hamilton.prunes"], 1974);
        assert_eq!(counts["solvers.hamilton.backtracks"], 3538);
        assert_eq!(counts["solvers.maxcut.nodes"], 1048575);
        assert_eq!(counts["solvers.mis.nodes"], 905 + 6551 + 1821702 + 5019);
        assert_eq!(counts["solvers.mds.nodes"], 57);
        assert_eq!(counts["solvers.mds.prunes"], 46);
        assert_eq!(compare(REFERENCE, REFERENCE), None);
    }

    #[test]
    fn less_search_passes() {
        // The bb-nodes column is printed `{:>10}`, so a count of another
        // width shifts its padding.
        let fewer = REFERENCE
            .replace(&format!("{:>10}", 1821702), &format!("{:>10}", 911))
            .replace(&format!("{:>10}", 905), &format!("{:>10}", 12345678901u64))
            .replace("8858 dfs nodes", "100 dfs nodes")
            .replace("(224 rects, 1121 memo hits)", "(3 rects, 0 memo hits)")
            .replace(
                "explored 57 nodes (46 prunes)",
                "explored 9 nodes (1 prunes)",
            );
        assert_ne!(fewer, REFERENCE);
        assert_eq!(compare(&fewer, REFERENCE), None);
        assert_eq!(
            mask(&fewer).1["solvers.mis.nodes"],
            12345678901 + 6551 + 911 + 5019
        );
    }

    #[test]
    fn changed_no_optimum_fails() {
        let wrong = REFERENCE.replace(
            "YES optimum = 25; NO optimum = 26",
            "YES optimum = 25; NO optimum = 25",
        );
        assert_ne!(wrong, REFERENCE);
        assert!(compare(&wrong, REFERENCE)
            .expect("must fail")
            .contains("NO optimum = 25"));
        let wrong = REFERENCE.replace(
            "    2   5   176        44        39",
            "    2   5   176        44        40",
        );
        assert_ne!(wrong, REFERENCE);
        assert!(compare(&wrong, REFERENCE).is_some());
    }

    #[test]
    fn unmasked_numbers_still_count() {
        for (from, to) in [
            ("|Ecut| =   8", "|Ecut| =   9"),
            ("      51       2628", "      51       2627"),
            ("direct 9 rounds", "direct 8 rounds"),
            ("pairs = 256  VERIFIED", "pairs = 255  VERIFIED"),
        ] {
            let wrong = REFERENCE.replacen(from, to, 1);
            assert_ne!(wrong, REFERENCE, "{from}");
            assert!(compare(&wrong, REFERENCE).is_some(), "{from}");
        }
    }

    #[test]
    fn violation_and_truncation_fail() {
        let v = REFERENCE.replacen("pairs = 256  VERIFIED", "VIOLATION: cut changed", 1);
        assert!(compare(&v, REFERENCE)
            .expect("must fail")
            .starts_with("violation"));
        let cut = &REFERENCE[..REFERENCE.len() / 2];
        assert!(compare(cut, REFERENCE).is_some());
    }

    #[test]
    fn phase_table_and_trace_parse() {
        let err = "\n==== phase summary ====\n  phase           wall (ms)\n  E0   129.29\n  \
                   E10/E11/E12       4590.26\n  total 4719.55\ntrace: 3 records\n";
        let t = phase_table(err);
        assert_eq!(t.len(), 2);
        assert_eq!(t["E10/E11/E12"], 4590.26);
        assert_eq!(block_metric("E10/E11/E12"), "experiments.E10_E11_E12_s");
        let trace = "{\"ts\":1,\"target\":\"solver.mis\",\"event\":\"search\",\"fields\":{\"nodes\":9,\"elapsed_micros\":820,\"n\":68}}\n\
                     {\"ts\":2,\"target\":\"solver.mds\",\"event\":\"search\",\"fields\":{\"elapsed_micros\":5}}\n\
                     {\"ts\":3,\"target\":\"solver.mis\",\"event\":\"search\",\"fields\":{\"elapsed_micros\":180}}\n";
        assert_eq!(mis_search(trace), Ok(Duration::from_micros(1000)));
        assert!(mis_search("{\"ts\":1,\"target\":").is_err());
    }
}
