//! Structured tracing and metrics for the `congest-hardness` workspace.
//!
//! The repo's value proposition is *exact accounting* — rounds and bits in
//! the CONGEST simulator, transcript bits in the two-party reductions
//! (Theorem 1.1), and search effort in the exact oracles that verify every
//! `LowerBoundFamily`. This crate turns those one-shot totals into
//! inspectable timelines:
//!
//! * [`Record`] — one machine-readable run record
//!   `{ts, target, event, fields}`;
//! * [`Recorder`] — a pluggable sink trait with [`MemoryRecorder`] (for
//!   tests and in-process analysis), [`JsonlSink`] (hand-rolled JSON, no
//!   external dependencies), and [`NullRecorder`];
//! * [`Histogram`] — log₂-bucket distributions for the metric side;
//! * [`Clock`] — pluggable time for the sinks: [`MonotonicClock`] by
//!   default, [`VirtualClock`] for byte-stable golden traces;
//! * [`SpanTree`] — a tree of measured totals with self-vs-cumulative
//!   attribution and flame-style rendering;
//! * [`QuantileSketch`] — a mergeable DDSketch-style quantile sketch
//!   (relative-error quantiles, exactly associative merges);
//! * [`Aggregator`] — a streaming fold of JSONL records into
//!   per-`(target, event)` summaries, powering `tracectl`;
//! * [`json`] — the escaping writer plus two parsers: the strict flat
//!   record reader and a generic [`json::JsonValue`] tree for nested
//!   documents (`BENCH_*.json`, `summary.json`).
//!
//! Everything is std-only: build environments for this workspace may be
//! fully offline.
//!
//! # Record schema
//!
//! One JSON object per line (JSONL):
//!
//! ```json
//! {"ts":1234,"target":"sim","event":"round","fields":{"round":3,"bits":96,"cut_bits":32}}
//! ```
//!
//! `ts` is microseconds since the sink was created (monotonic clock);
//! `target` names the emitting subsystem (`sim`, `comm.transcript`,
//! `solver.mds`, …); `event` is the record kind within the target; and
//! `fields` is a flat map of scalar values.
//!
//! # Example
//!
//! ```
//! use congest_obs::{MemoryRecorder, Record, Recorder};
//!
//! let mut rec = MemoryRecorder::new();
//! rec.record(Record::new("sim", "round").with("round", 1u64).with("bits", 96u64));
//! assert_eq!(rec.records().len(), 1);
//! assert_eq!(rec.records()[0].u64_field("bits"), Some(96));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod clock;
pub mod json;
mod metrics;
mod profile;
mod record;
mod recorder;
mod sketch;

pub use aggregate::{Aggregator, GroupSummary, NumericSummary, ValueTally};
pub use clock::{Clock, MonotonicClock, VirtualClock};
pub use metrics::Histogram;
pub use profile::{SpanEntry, SpanTree};
pub use record::{Record, Value};
pub use recorder::{JsonlSink, MemoryRecorder, NullRecorder, Recorder};
pub use sketch::QuantileSketch;

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

/// Opens a buffered JSONL file sink at `path` (truncating).
pub fn jsonl_file_sink<P: AsRef<Path>>(path: P) -> std::io::Result<JsonlSink<BufWriter<File>>> {
    Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
}
