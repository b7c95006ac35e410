//! A streaming trace aggregator: folds JSONL records into
//! per-`(target, event)` summaries without buffering the trace.
//!
//! Traces from big runs do not fit in memory comfortably (a million-round
//! simulation emits a record per round), so the analyzer folds records
//! one at a time: each `(target, event)` group keeps a count, the `ts`
//! range, per-numeric-field running statistics (count/sum/min/max plus a
//! mergeable [`QuantileSketch`]), and a bounded tally of string/bool
//! values. The result is provably equal to what a full-buffer pass would
//! compute — `tests` in `crates/obs` pin `fold-one-at-a-time ==
//! fold-the-whole-buffer` on recorded fixtures.
//!
//! [`Aggregator::summary_json`] renders the whole state as one
//! deterministic JSON document (groups and fields in `BTreeMap` order,
//! floats via the same `{:?}` formatting as [`Record::to_json`]), which is
//! what `tracectl` writes as `summary.json`.

use std::collections::BTreeMap;

use crate::json::escape_into;
use crate::sketch::QuantileSketch;
use crate::{Record, Value};

/// Cap on distinct string/bool values tallied per field; the tail is
/// folded into an `_other` bucket so a high-cardinality field (node ids
/// rendered as strings, say) cannot balloon the summary.
const MAX_DISTINCT_VALUES: usize = 16;

/// Running statistics for one numeric field within a group.
#[derive(Debug, Clone, PartialEq)]
pub struct NumericSummary {
    /// Observations seen.
    pub count: u64,
    /// Running sum (f64: fields may be floats; u64 fields widen exactly
    /// up to 2^53, far beyond any per-field total in these traces).
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Distribution sketch (α = 1%), fed with the value rounded to u64
    /// for float fields.
    pub sketch: QuantileSketch,
}

impl NumericSummary {
    fn new() -> Self {
        NumericSummary {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sketch: QuantileSketch::default(),
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v.is_finite() && v >= 0.0 {
            self.sketch.observe(v.round() as u64);
        }
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }
}

/// Bounded tally of a string/bool field's values.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueTally {
    /// Count per distinct value, capped at 16 distinct values.
    pub counts: BTreeMap<String, u64>,
    /// Observations whose value fell past the cap.
    pub other: u64,
}

impl ValueTally {
    fn observe(&mut self, v: &str) {
        if let Some(c) = self.counts.get_mut(v) {
            *c += 1;
        } else if self.counts.len() < MAX_DISTINCT_VALUES {
            self.counts.insert(v.to_string(), 1);
        } else {
            self.other += 1;
        }
    }
}

/// Summary of one `(target, event)` record group.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupSummary {
    /// Records folded into this group.
    pub count: u64,
    /// Smallest `ts` seen (`u64::MAX` when `count == 0`).
    pub first_ts: u64,
    /// Largest `ts` seen.
    pub last_ts: u64,
    /// Per-field running statistics for numeric fields.
    pub numeric: BTreeMap<String, NumericSummary>,
    /// Per-field value tallies for string/bool fields.
    pub values: BTreeMap<String, ValueTally>,
}

/// The streaming aggregator (see module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Aggregator {
    groups: BTreeMap<(String, String), GroupSummary>,
    total: u64,
}

impl Aggregator {
    /// An empty aggregator.
    pub fn new() -> Self {
        Aggregator::default()
    }

    /// Folds one record into the running summaries.
    pub fn fold(&mut self, rec: &Record) {
        self.total += 1;
        let group = self
            .groups
            .entry((rec.target.to_string(), rec.event.to_string()))
            .or_default();
        if group.count == 0 {
            group.first_ts = rec.ts;
            group.last_ts = rec.ts;
        } else {
            group.first_ts = group.first_ts.min(rec.ts);
            group.last_ts = group.last_ts.max(rec.ts);
        }
        group.count += 1;
        for (k, v) in &rec.fields {
            match v {
                Value::U64(_) | Value::I64(_) | Value::F64(_) => {
                    let x = v.as_f64().expect("numeric by match");
                    group
                        .numeric
                        .entry(k.to_string())
                        .or_insert_with(NumericSummary::new)
                        .observe(x);
                }
                Value::Bool(b) => group
                    .values
                    .entry(k.to_string())
                    .or_default()
                    .observe(if *b { "true" } else { "false" }),
                Value::Str(s) => group.values.entry(k.to_string()).or_default().observe(s),
            }
        }
    }

    /// Folds every record of an iterator (convenience for tests/tools).
    pub fn fold_all<'a>(&mut self, records: impl IntoIterator<Item = &'a Record>) {
        for r in records {
            self.fold(r);
        }
    }

    /// Total records folded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The groups, keyed `(target, event)`, in sorted order.
    pub fn groups(&self) -> &BTreeMap<(String, String), GroupSummary> {
        &self.groups
    }

    /// Looks up one group.
    pub fn group(&self, target: &str, event: &str) -> Option<&GroupSummary> {
        self.groups.get(&(target.to_string(), event.to_string()))
    }

    /// Renders the whole state as one deterministic JSON document:
    /// identical input records (in any order for the group structure;
    /// identical order for float sums) produce byte-identical output.
    pub fn summary_json(&self) -> String {
        fn fmt_f64(out: &mut String, x: f64) {
            if x.is_finite() {
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        let mut out = String::with_capacity(256 * self.groups.len().max(1));
        out.push_str("{\n  \"records\": ");
        out.push_str(&self.total.to_string());
        out.push_str(",\n  \"groups\": [");
        for (gi, ((target, event), g)) in self.groups.iter().enumerate() {
            if gi > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"target\": ");
            escape_into(target, &mut out);
            out.push_str(", \"event\": ");
            escape_into(event, &mut out);
            out.push_str(&format!(
                ", \"count\": {}, \"first_ts\": {}, \"last_ts\": {}",
                g.count, g.first_ts, g.last_ts
            ));
            out.push_str(", \"fields\": {");
            let mut first_field = true;
            for (k, s) in &g.numeric {
                if !first_field {
                    out.push_str(", ");
                }
                first_field = false;
                escape_into(k, &mut out);
                out.push_str(&format!(": {{\"count\": {}, \"sum\": ", s.count));
                fmt_f64(&mut out, s.sum);
                out.push_str(", \"min\": ");
                fmt_f64(&mut out, s.min);
                out.push_str(", \"max\": ");
                fmt_f64(&mut out, s.max);
                out.push_str(", \"mean\": ");
                fmt_f64(&mut out, s.mean().unwrap_or(f64::NAN));
                for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                    out.push_str(&format!(", \"{label}\": "));
                    fmt_f64(&mut out, s.sketch.quantile(q).unwrap_or(f64::NAN));
                }
                out.push('}');
            }
            for (k, t) in &g.values {
                if !first_field {
                    out.push_str(", ");
                }
                first_field = false;
                escape_into(k, &mut out);
                out.push_str(": {");
                let mut first_v = true;
                for (v, c) in &t.counts {
                    if !first_v {
                        out.push_str(", ");
                    }
                    first_v = false;
                    escape_into(v, &mut out);
                    out.push_str(&format!(": {c}"));
                }
                if t.other > 0 {
                    if !first_v {
                        out.push_str(", ");
                    }
                    out.push_str(&format!("\"_other\": {}", t.other));
                }
                out.push('}');
            }
            out.push_str("}}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::new("sim", "round")
                .with("round", 0u64)
                .with("bits", 96u64),
            Record::new("sim", "round")
                .with("round", 1u64)
                .with("bits", 128u64),
            Record::new("sim", "summary")
                .with("outcome", "halted")
                .with("total_bits", 224u64),
            Record::new("solver.mds", "search")
                .with("nodes", 40u64)
                .with("ratio", 0.5f64)
                .with("ok", true),
        ]
    }

    #[test]
    fn folds_groups_and_numeric_stats() {
        let mut agg = Aggregator::new();
        agg.fold_all(&sample_records());
        assert_eq!(agg.total(), 4);
        let rounds = agg.group("sim", "round").expect("group");
        assert_eq!(rounds.count, 2);
        let bits = &rounds.numeric["bits"];
        assert_eq!(bits.count, 2);
        assert_eq!(bits.sum, 224.0);
        assert_eq!(bits.min, 96.0);
        assert_eq!(bits.max, 128.0);
        let summary = agg.group("sim", "summary").expect("group");
        assert_eq!(summary.values["outcome"].counts["halted"], 1);
        let search = agg.group("solver.mds", "search").expect("group");
        assert_eq!(search.values["ok"].counts["true"], 1);
        assert_eq!(search.numeric["ratio"].mean(), Some(0.5));
    }

    #[test]
    fn summary_json_is_deterministic() {
        let recs = sample_records();
        let render = || {
            let mut agg = Aggregator::new();
            agg.fold_all(&recs);
            agg.summary_json()
        };
        let a = render();
        assert_eq!(a, render());
        assert!(a.contains("\"target\": \"sim\""));
        assert!(a.contains("\"p50\""));
        // The document parses back with the generic value parser.
        crate::json::parse_value(&a).expect("summary.json is valid JSON");
    }

    #[test]
    fn value_tally_caps_cardinality() {
        let mut agg = Aggregator::new();
        for i in 0..50 {
            agg.fold(&Record::new("t", "e").with("name", format!("v{i}")));
        }
        let tally = &agg.group("t", "e").unwrap().values["name"];
        assert_eq!(tally.counts.len(), MAX_DISTINCT_VALUES);
        assert_eq!(tally.other, 50 - MAX_DISTINCT_VALUES as u64);
    }
}
