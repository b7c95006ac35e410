//! Bench-regression gating: diff a freshly generated `BENCH_*.json`
//! against a committed baseline and decide whether performance moved.
//!
//! The bench reporters (`benches/sim_round.rs`,
//! `benches/verify_family.rs` and `benches/fault_sweep.rs`) mix two kinds
//! of columns, and the gate treats them differently:
//!
//! * **Deterministic counters** (`rounds`, `messages`, `total_bits`,
//!   `peak_inbox`, `pairs`, …) are properties of the seeded workload, not
//!   the machine. They must match the baseline *exactly* — a drift here
//!   means the benchmark is silently measuring different work, which
//!   would make every wall-clock comparison meaningless. Columns that
//!   legitimately vary across machines (`jobs`, `available_cores`) are
//!   excluded.
//! * **Wall times** (`*_micros`) are noisy and machine-dependent. Raw
//!   ratios would flag every run on a slower box, so each entry's
//!   `fresh/baseline` ratio is first normalized by the *median* ratio
//!   across the whole file — a uniform machine-speed factor cancels out,
//!   and what remains is how each workload moved **relative to the rest
//!   of the suite**. The median (not the mean) estimates that factor so
//!   that the regressed entries themselves cannot drag the baseline
//!   toward them: one workload going 20% slower among five leaves the
//!   median at 1.0 and sticks out at its full 1.2x. An entry regresses
//!   when its normalized ratio exceeds `1 + noise_band` (default 15%).
//!
//! Derived rates (`*_per_sec`, `speedup`, `*_rate`, `*_pct`) are
//! recomputable from the other columns and are ignored. Missing or extra
//! entries are hard failures: a shrunken suite must not pass the gate by
//! comparing nothing. For the same reason two entries with one id are a
//! parse error — otherwise the later one would silently shadow the
//! earlier in the id maps [`compare`] matches on.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use congest_obs::json::{parse_value, JsonValue};

/// Default width of the noise band: normalized wall-time ratios up to
/// 1.15 pass.
pub const DEFAULT_NOISE_BAND: f64 = 0.15;

/// One entry of a bench document, keyed for cross-file matching.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Identity within the file: the entry's string-valued fields plus
    /// the workload-size fields (`n`, `k_input`), joined stably.
    pub id: String,
    /// Deterministic counters, compared exactly.
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock columns in microseconds, compared via normalized
    /// ratios.
    pub walls: BTreeMap<String, f64>,
}

/// A parsed `BENCH_*.json` document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDoc {
    /// The reporter's name (top-level `"bench"` field).
    pub name: String,
    /// Entries in file order; ids are unique ([`BenchDoc::parse`]
    /// rejects a duplicate).
    pub entries: Vec<BenchEntry>,
}

/// Numeric columns that vary across machines; never gated.
const EXCLUDED_COUNTERS: &[&str] = &["jobs", "available_cores"];

/// Workload-size fields that belong to the entry's identity. `threads`
/// is identity, not a counter: the same workload at several worker
/// counts forms a scaling curve of distinct entries. Likewise
/// `adversary` (`BENCH_faults.json`): the same `(alg, n)` point under
/// the i.i.d. sweep and under the worst-case search are two workloads.
const ID_FIELDS: &[&str] = &["n", "k_input", "threads", "adversary"];

fn is_wall_field(name: &str) -> bool {
    name.ends_with("_micros")
}

fn is_derived_field(name: &str) -> bool {
    name.ends_with("_per_sec")
        || name.ends_with("_rate")
        || name.ends_with("_pct")
        || name == "speedup"
}

impl BenchDoc {
    /// Parses a bench reporter's JSON document into gated form.
    pub fn parse(text: &str) -> Result<BenchDoc, String> {
        let doc = parse_value(text).map_err(|e| e.to_string())?;
        let name = doc
            .get("bench")
            .and_then(JsonValue::as_str)
            .ok_or("missing top-level \"bench\" name")?
            .to_string();
        let raw = doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or("missing top-level \"entries\" array")?;
        let mut entries = Vec::with_capacity(raw.len());
        let mut seen = BTreeSet::new();
        for (i, item) in raw.iter().enumerate() {
            let members = item
                .as_object()
                .ok_or_else(|| format!("entry {i} is not an object"))?;
            let mut id_parts: Vec<String> = Vec::new();
            let mut counters = BTreeMap::new();
            let mut walls = BTreeMap::new();
            for (key, value) in members {
                if let Some(s) = value.as_str() {
                    id_parts.push(s.to_string());
                    continue;
                }
                if ID_FIELDS.contains(&key.as_str()) {
                    if let Some(x) = value.as_u64() {
                        id_parts.push(format!("{key}={x}"));
                    }
                    continue;
                }
                if EXCLUDED_COUNTERS.contains(&key.as_str()) || is_derived_field(key) {
                    continue;
                }
                if is_wall_field(key) {
                    if let Some(x) = value.as_f64() {
                        walls.insert(key.clone(), x.max(1.0));
                    }
                } else if let Some(x) = value.as_u64() {
                    counters.insert(key.clone(), x);
                }
            }
            if id_parts.is_empty() {
                return Err(format!("entry {i} has no identity fields"));
            }
            let id = id_parts.join("/");
            if !seen.insert(id.clone()) {
                return Err(format!("entry {i} duplicates the id {id}"));
            }
            entries.push(BenchEntry {
                id,
                counters,
                walls,
            });
        }
        Ok(BenchDoc { name, entries })
    }
}

/// One wall-time comparison that cleared or broke the band.
#[derive(Debug, Clone, PartialEq)]
pub struct WallDelta {
    /// Entry id + wall column, e.g. `learn_graph/n=128: wall_micros`.
    pub what: String,
    /// Raw fresh/baseline ratio.
    pub ratio: f64,
    /// Ratio after dividing out the file's median ratio.
    pub normalized: f64,
}

/// The verdict of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionReport {
    /// Bench name both files agreed on.
    pub bench: String,
    /// Median of all raw wall ratios — the machine-speed factor that was
    /// divided out (1.0 = identical machine and build).
    pub machine_factor: f64,
    /// The noise band the walls were gated against.
    pub noise_band: f64,
    /// Every wall comparison, sorted by normalized ratio, worst first.
    pub walls: Vec<WallDelta>,
    /// Hard failures: entry-set or counter drift, or walls past the band.
    pub failures: Vec<String>,
}

impl RegressionReport {
    /// True when the fresh run must not pass the gate.
    pub fn is_regression(&self) -> bool {
        !self.failures.is_empty()
    }

    /// Renders the report as the text the CI log shows.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bench {}: {} wall comparisons, machine factor {:.3}x, noise band {:.0}%",
            self.bench,
            self.walls.len(),
            self.machine_factor,
            self.noise_band * 100.0,
        );
        for w in &self.walls {
            let verdict = if w.normalized > 1.0 + self.noise_band {
                "REGRESSED"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:<48} raw {:>6.3}x  normalized {:>6.3}x  {verdict}",
                w.what, w.ratio, w.normalized
            );
        }
        if self.failures.is_empty() {
            let _ = writeln!(out, "PASS: no regressions");
        } else {
            for f in &self.failures {
                let _ = writeln!(out, "FAIL: {f}");
            }
        }
        out
    }
}

/// Diffs `fresh` against `baseline` (see module docs for the rules).
pub fn compare(baseline: &BenchDoc, fresh: &BenchDoc, noise_band: f64) -> RegressionReport {
    let mut failures = Vec::new();
    if baseline.name != fresh.name {
        failures.push(format!(
            "bench name mismatch: baseline \"{}\" vs fresh \"{}\"",
            baseline.name, fresh.name
        ));
    }

    let base_ids: BTreeMap<&str, &BenchEntry> = baseline
        .entries
        .iter()
        .map(|e| (e.id.as_str(), e))
        .collect();
    let fresh_ids: BTreeMap<&str, &BenchEntry> =
        fresh.entries.iter().map(|e| (e.id.as_str(), e)).collect();
    for id in base_ids.keys() {
        if !fresh_ids.contains_key(id) {
            failures.push(format!("entry disappeared from fresh run: {id}"));
        }
    }
    for id in fresh_ids.keys() {
        if !base_ids.contains_key(id) {
            failures.push(format!("entry not in baseline: {id}"));
        }
    }

    // Counters: exact equality, field by field.
    let mut ratios: Vec<(String, f64)> = Vec::new();
    for (id, base) in &base_ids {
        let Some(fresh) = fresh_ids.get(id) else {
            continue;
        };
        let keys: BTreeSet<&String> = base.counters.keys().chain(fresh.counters.keys()).collect();
        for key in keys {
            match (base.counters.get(key), fresh.counters.get(key)) {
                (Some(b), Some(f)) if b != f => failures.push(format!(
                    "{id}: deterministic counter {key} drifted: {b} -> {f} \
                     (the benchmark is measuring different work)"
                )),
                (Some(_), None) => {
                    failures.push(format!("{id}: counter {key} missing from fresh run"))
                }
                (None, Some(_)) => failures.push(format!("{id}: counter {key} not in baseline")),
                _ => {}
            }
        }
        for (key, b) in &base.walls {
            if let Some(f) = fresh.walls.get(key) {
                ratios.push((format!("{id}: {key}"), f / b.max(1.0)));
            } else {
                failures.push(format!("{id}: wall column {key} missing from fresh run"));
            }
        }
    }

    // Walls: divide out the file-wide median ratio, then gate.
    let machine_factor = if ratios.is_empty() {
        1.0
    } else {
        let mut sorted: Vec<f64> = ratios.iter().map(|&(_, r)| r).collect();
        sorted.sort_by(f64::total_cmp);
        let mid = sorted.len() / 2;
        if sorted.len().is_multiple_of(2) {
            (sorted[mid - 1] * sorted[mid]).sqrt()
        } else {
            sorted[mid]
        }
        .max(1e-12)
    };
    let mut walls: Vec<WallDelta> = ratios
        .into_iter()
        .map(|(what, ratio)| WallDelta {
            what,
            ratio,
            normalized: ratio / machine_factor,
        })
        .collect();
    walls.sort_by(|a, b| {
        b.normalized
            .total_cmp(&a.normalized)
            .then(a.what.cmp(&b.what))
    });
    for w in &walls {
        if w.normalized > 1.0 + noise_band {
            failures.push(format!(
                "{} regressed: {:.3}x relative to the suite (band {:.0}%)",
                w.what,
                w.normalized,
                noise_band * 100.0
            ));
        }
    }

    RegressionReport {
        bench: fresh.name.clone(),
        machine_factor,
        noise_band,
        walls,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(walls: &[(&str, u64, f64)]) -> BenchDoc {
        // (alg, rounds, wall_micros) triples with n fixed per index.
        BenchDoc {
            name: "sim_round".to_string(),
            entries: walls
                .iter()
                .enumerate()
                .map(|(i, &(alg, rounds, wall))| BenchEntry {
                    id: format!("{alg}/n={}", 32 << i),
                    counters: BTreeMap::from([("rounds".to_string(), rounds)]),
                    walls: BTreeMap::from([("wall_micros".to_string(), wall)]),
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_reporter_format() {
        let text = r#"{
            "bench": "sim_round",
            "samples_per_point": 7,
            "entries": [
                {"alg": "learn_graph", "n": 32, "edges": 90, "rounds": 200,
                 "wall_micros": 1500, "rounds_per_sec": 133333.3, "peak_inbox": 6}
            ]
        }"#;
        let doc = BenchDoc::parse(text).expect("parses");
        assert_eq!(doc.name, "sim_round");
        assert_eq!(doc.entries.len(), 1);
        let e = &doc.entries[0];
        assert_eq!(e.id, "learn_graph/n=32");
        assert_eq!(e.counters.get("rounds"), Some(&200));
        assert_eq!(e.counters.get("peak_inbox"), Some(&6));
        assert_eq!(e.walls.get("wall_micros"), Some(&1500.0));
        // Derived rates are not gated.
        assert!(!e.counters.contains_key("rounds_per_sec"));
        assert!(!e.walls.contains_key("rounds_per_sec"));
    }

    #[test]
    fn threads_is_identity_not_a_counter() {
        let text = r#"{
            "bench": "sim_round",
            "entries": [
                {"alg": "learn_graph", "n": 1000, "threads": 1, "rounds": 64, "wall_micros": 900},
                {"alg": "learn_graph", "n": 1000, "threads": 8, "rounds": 64, "wall_micros": 200}
            ]
        }"#;
        let doc = BenchDoc::parse(text).expect("parses");
        assert_eq!(doc.entries[0].id, "learn_graph/n=1000/threads=1");
        assert_eq!(doc.entries[1].id, "learn_graph/n=1000/threads=8");
        // Same (alg, n) at two worker counts must be two entries, and the
        // worker count must not be gated as a deterministic counter.
        assert!(!doc.entries[0].counters.contains_key("threads"));
        let report = compare(&doc, &doc, DEFAULT_NOISE_BAND);
        assert!(!report.is_regression(), "{}", report.render());
    }

    #[test]
    fn allocs_per_round_is_gated_exactly() {
        let text = r#"{
            "bench": "sim_round",
            "entries": [
                {"alg": "learn_graph", "n": 1000, "threads": 1,
                 "rounds": 64, "allocs_per_round": 0, "wall_micros": 48000},
                {"alg": "learn_graph", "n": 1000, "threads": 2,
                 "rounds": 64, "wall_micros": 51000}
            ]
        }"#;
        let doc = BenchDoc::parse(text).expect("parses");
        assert_eq!(doc.entries[0].id, "learn_graph/n=1000/threads=1");
        assert_eq!(doc.entries[0].counters.get("allocs_per_round"), Some(&0));
        let report = compare(&doc, &doc, DEFAULT_NOISE_BAND);
        assert!(!report.is_regression(), "{}", report.render());

        // An engine that starts allocating in steady state is a hard
        // failure, however fast it still is.
        let mut fresh = doc.clone();
        fresh.entries[0]
            .counters
            .insert("allocs_per_round".to_string(), 1);
        let report = compare(&doc, &fresh, DEFAULT_NOISE_BAND);
        assert!(report.is_regression());
        assert!(
            report.failures.iter().any(|f| f.contains("threads=1")
                && f.contains("allocs_per_round")
                && f.contains("0 -> 1")),
            "{:?}",
            report.failures
        );
    }

    #[test]
    fn duplicate_entry_ids_are_a_parse_error() {
        // Two rows collapsing onto one id would let the later one shadow
        // the earlier in `compare`, and a regression on the shadowed row
        // would pass unseen.
        let text = r#"{
            "bench": "sim_round",
            "entries": [
                {"alg": "leader", "n": 10, "rounds": 5, "wall_micros": 100},
                {"alg": "leader", "n": 10, "rounds": 7, "wall_micros": 100}
            ]
        }"#;
        let err = BenchDoc::parse(text).expect_err("duplicate ids rejected");
        assert!(err.contains("leader/n=10"), "{err}");
        assert!(err.contains("entry 1"), "{err}");
    }

    #[test]
    fn fault_sweep_entries_key_on_alg_n_adversary() {
        let text = r#"{
            "bench": "fault_sweep",
            "entries": [
                {"alg": "leader_election", "adversary": "iid", "n": 16,
                 "caught": 40, "wall_micros": 9000},
                {"alg": "leader_election", "adversary": "search", "n": 16,
                 "evals": 44, "wall_micros": 3000}
            ]
        }"#;
        let doc = BenchDoc::parse(text).expect("parses");
        // Same (alg, n) under two adversaries must stay two entries, and
        // the adversary tag is identity, never a gated counter.
        assert_eq!(doc.entries[0].id, "leader_election/iid/n=16");
        assert_eq!(doc.entries[1].id, "leader_election/search/n=16");
        assert!(!doc.entries[0].counters.contains_key("adversary"));
        assert_eq!(doc.entries[0].counters.get("caught"), Some(&40));
        assert_eq!(doc.entries[1].counters.get("evals"), Some(&44));
        let report = compare(&doc, &doc, DEFAULT_NOISE_BAND);
        assert!(!report.is_regression(), "{}", report.render());
    }

    #[test]
    fn uniform_machine_speed_change_is_not_a_regression() {
        let base = doc(&[("a", 100, 1000.0), ("b", 200, 2000.0), ("c", 300, 4000.0)]);
        // Whole suite 2x slower: a slower machine, not a regression.
        let fresh = doc(&[("a", 100, 2000.0), ("b", 200, 4000.0), ("c", 300, 8000.0)]);
        let report = compare(&base, &fresh, DEFAULT_NOISE_BAND);
        assert!((report.machine_factor - 2.0).abs() < 1e-9);
        assert!(!report.is_regression(), "{}", report.render());
    }

    #[test]
    fn injected_twenty_percent_slowdown_fails_the_gate() {
        let base = doc(&[("a", 100, 1000.0), ("b", 200, 2000.0), ("c", 300, 4000.0)]);
        // One workload 20% slower while the rest hold still.
        let fresh = doc(&[("a", 100, 1200.0), ("b", 200, 2000.0), ("c", 300, 4000.0)]);
        let report = compare(&base, &fresh, DEFAULT_NOISE_BAND);
        assert!(report.is_regression(), "{}", report.render());
        assert!(
            report.failures.iter().any(|f| f.contains("a/n=32")),
            "{:?}",
            report.failures
        );
        // The same delta inside the band passes.
        let fresh = doc(&[("a", 100, 1100.0), ("b", 200, 2000.0), ("c", 300, 4000.0)]);
        let report = compare(&base, &fresh, DEFAULT_NOISE_BAND);
        assert!(!report.is_regression(), "{}", report.render());
    }

    #[test]
    fn counter_drift_and_entry_set_changes_are_hard_failures() {
        let base = doc(&[("a", 100, 1000.0), ("b", 200, 2000.0)]);
        let mut fresh = base.clone();
        fresh.entries[0].counters.insert("rounds".to_string(), 101);
        let report = compare(&base, &fresh, DEFAULT_NOISE_BAND);
        assert!(report.is_regression());
        assert!(
            report.failures[0].contains("drifted"),
            "{:?}",
            report.failures
        );

        let fresh = doc(&[("a", 100, 1000.0)]);
        let report = compare(&base, &fresh, DEFAULT_NOISE_BAND);
        assert!(
            report.failures.iter().any(|f| f.contains("disappeared")),
            "{:?}",
            report.failures
        );
    }
}
