//! Obs-record serialization for [`FaultPlan`] — exact replay from traces.
//!
//! A sweep's worst-case plan is only useful if it can be rerun *exactly*.
//! [`FaultPlan::to_records`] renders a plan as a flat group of
//! `congest-obs` records (one `fault_plan` header plus one record per
//! crash / targeted fault / faulty link / partition window), which embed
//! in any JSONL trace next to the run they shaped.
//! [`FaultPlan::from_records`] inverts the encoding; the pair round-trips
//! every armed fault bit-exactly, so
//! `FaultPlan::from_jsonl(&plan.to_jsonl())` rebuilds a plan whose fate
//! function is byte-identical to the original's.

use congest_graph::NodeId;
use congest_obs::{json, Record, Value};

use crate::plan::{
    FaultAction, FaultPlan, LinkFault, LinkFaultKind, PartitionWindow, RoundFilter, TargetedFault,
};

/// The `target` stamped on every plan record.
pub const PLAN_TARGET: &str = "faults.plan";

/// Why a record group failed to parse back into a [`FaultPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanCodecError {
    /// No `fault_plan` header record in the input.
    MissingHeader,
    /// A record lacked a required field (or it had the wrong type).
    MissingField {
        /// The record's `event`.
        event: &'static str,
        /// The absent field.
        field: &'static str,
    },
    /// A named enum field held an unknown name.
    UnknownName {
        /// The field holding the name.
        field: &'static str,
        /// The unrecognized value.
        value: String,
    },
    /// The header promised `expected` sub-records but `found` arrived.
    CountMismatch {
        /// The sub-record event.
        event: &'static str,
        /// The count promised by the header.
        expected: u64,
        /// The count actually present.
        found: u64,
    },
    /// A field held a value no plan can take: a probability outside
    /// `[0, 1]` (or not a number), a zero `max_delay`, or a partition
    /// that heals no later than it opens.
    InvalidValue {
        /// The record's `event`.
        event: &'static str,
        /// The offending field.
        field: &'static str,
    },
    /// The underlying JSONL text failed to parse.
    Json(String),
}

impl std::fmt::Display for PlanCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanCodecError::MissingHeader => write!(f, "no fault_plan header record"),
            PlanCodecError::MissingField { event, field } => {
                write!(f, "{event} record is missing field {field}")
            }
            PlanCodecError::UnknownName { field, value } => {
                write!(f, "unknown {field} name {value:?}")
            }
            PlanCodecError::CountMismatch {
                event,
                expected,
                found,
            } => write!(f, "expected {expected} {event} records, found {found}"),
            PlanCodecError::InvalidValue { event, field } => {
                write!(f, "{event} record has an invalid {field}")
            }
            PlanCodecError::Json(e) => write!(f, "bad plan JSONL: {e}"),
        }
    }
}

impl std::error::Error for PlanCodecError {}

fn filter_fields(r: Record, filter: RoundFilter) -> Record {
    match filter {
        RoundFilter::Any => r.with("rounds", "any"),
        RoundFilter::At(at) => r.with("rounds", "at").with("lo", at),
        RoundFilter::From(from) => r.with("rounds", "from").with("lo", from),
        RoundFilter::Range(lo, hi) => r.with("rounds", "range").with("lo", lo).with("hi", hi),
    }
}

fn parse_filter(r: &Record, event: &'static str) -> Result<RoundFilter, PlanCodecError> {
    let name = str_field(r, event, "rounds")?;
    let lo = || u64_field(r, event, "lo");
    Ok(match name {
        "any" => RoundFilter::Any,
        "at" => RoundFilter::At(lo()?),
        "from" => RoundFilter::From(lo()?),
        "range" => RoundFilter::Range(lo()?, u64_field(r, event, "hi")?),
        other => {
            return Err(PlanCodecError::UnknownName {
                field: "rounds",
                value: other.to_string(),
            })
        }
    })
}

fn u64_field(r: &Record, event: &'static str, field: &'static str) -> Result<u64, PlanCodecError> {
    r.u64_field(field)
        .ok_or(PlanCodecError::MissingField { event, field })
}

fn f64_field(r: &Record, event: &'static str, field: &'static str) -> Result<f64, PlanCodecError> {
    r.field(field)
        .and_then(Value::as_f64)
        .ok_or(PlanCodecError::MissingField { event, field })
}

/// A probability field, rejected unless it lies in `[0, 1]` (a `null`
/// reads as NaN and is rejected too).
fn prob_field(r: &Record, event: &'static str, field: &'static str) -> Result<f64, PlanCodecError> {
    let p = f64_field(r, event, field)?;
    if (0.0..=1.0).contains(&p) {
        Ok(p)
    } else {
        Err(PlanCodecError::InvalidValue { event, field })
    }
}

fn str_field<'r>(
    r: &'r Record,
    event: &'static str,
    field: &'static str,
) -> Result<&'r str, PlanCodecError> {
    r.field(field)
        .and_then(Value::as_str)
        .ok_or(PlanCodecError::MissingField { event, field })
}

/// Collects the indexed sub-records of one `event` kind in `idx` order,
/// verifying the header-promised count.
fn indexed<'a, T>(
    records: &[&'a Record],
    event: &'static str,
    expected: u64,
    decode: impl Fn(&'a Record) -> Result<T, PlanCodecError>,
) -> Result<Vec<T>, PlanCodecError> {
    let mut rows: Vec<(u64, T)> = Vec::new();
    for r in records {
        if r.event == event {
            rows.push((u64_field(r, event, "idx")?, decode(r)?));
        }
    }
    if rows.len() as u64 != expected {
        return Err(PlanCodecError::CountMismatch {
            event,
            expected,
            found: rows.len() as u64,
        });
    }
    rows.sort_by_key(|&(idx, _)| idx);
    Ok(rows.into_iter().map(|(_, t)| t).collect())
}

impl FaultPlan {
    /// Renders the plan as obs records: a `fault_plan` header followed by
    /// one `plan_crash` / `plan_targeted` / `plan_link` /
    /// `plan_partition` record per armed fault, all under `target`
    /// [`PLAN_TARGET`]. Embeds in any JSONL trace;
    /// [`FaultPlan::from_records`] inverts it exactly.
    pub fn to_records(&self) -> Vec<Record> {
        let (drop_p, corrupt_p, duplicate_p, delay_p, max_delay) = self.probabilities();
        let mut header = Record::new(PLAN_TARGET, "fault_plan")
            .with("seed", self.seed())
            .with("drop_prob", drop_p)
            .with("corrupt_prob", corrupt_p)
            .with("duplicate_prob", duplicate_p)
            .with("delay_prob", delay_p)
            .with("max_delay", max_delay)
            .with("crashes", self.crashes().len())
            .with("targeted", self.targeted().len())
            .with("links", self.link_faults().len())
            .with("partitions", self.partitions().len());
        if let Some((max_bits, from_round)) = self.throttle() {
            header = header
                .with("throttle_bits", max_bits)
                .with("throttle_from", from_round);
        }
        let mut out = vec![header];
        for (i, &(node, round)) in self.crashes().iter().enumerate() {
            out.push(
                Record::new(PLAN_TARGET, "plan_crash")
                    .with("idx", i)
                    .with("node", node as u64)
                    .with("round", round),
            );
        }
        for (i, t) in self.targeted().iter().enumerate() {
            let mut r = Record::new(PLAN_TARGET, "plan_targeted").with("idx", i);
            if let Some(from) = t.from {
                r = r.with("from", from as u64);
            }
            if let Some(to) = t.to {
                r = r.with("to", to as u64);
            }
            r = match t.action {
                FaultAction::Drop => r.with("action", "drop"),
                FaultAction::CorruptBit(bit) => r.with("action", "corrupt").with("bit", bit),
                FaultAction::Duplicate => r.with("action", "duplicate"),
                FaultAction::Delay(rounds) => r.with("action", "delay").with("delay", rounds),
            };
            out.push(filter_fields(r, t.round));
        }
        for (i, l) in self.link_faults().iter().enumerate() {
            let mut r = Record::new(PLAN_TARGET, "plan_link")
                .with("idx", i)
                .with("a", l.a as u64)
                .with("b", l.b as u64);
            r = match l.kind {
                LinkFaultKind::Omission => r.with("kind", "omission"),
                LinkFaultKind::Byzantine { bit } => r.with("kind", "byzantine").with("bit", bit),
            };
            out.push(filter_fields(r, l.rounds));
        }
        for (i, p) in self.partitions().iter().enumerate() {
            let side = p
                .side()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(",");
            let mut r = Record::new(PLAN_TARGET, "plan_partition")
                .with("idx", i)
                .with("from_round", p.from_round)
                .with("side", side)
                .with("side_size", p.side().len());
            if let Some(h) = p.heal_round {
                r = r.with("heal_round", h);
            }
            out.push(r);
        }
        out
    }

    /// Rebuilds a plan from the records of [`FaultPlan::to_records`].
    /// Unrelated records are ignored, so a whole trace can be passed; if
    /// the trace holds several plans, the first `fault_plan` header and
    /// *all* plan sub-records are taken, so slice multi-plan traces per
    /// header before calling.
    pub fn from_records<'a>(
        records: impl IntoIterator<Item = &'a Record>,
    ) -> Result<FaultPlan, PlanCodecError> {
        let records: Vec<&Record> = records
            .into_iter()
            .filter(|r| r.target == PLAN_TARGET)
            .collect();
        let header = records
            .iter()
            .find(|r| r.event == "fault_plan")
            .ok_or(PlanCodecError::MissingHeader)?;
        let ev = "fault_plan";
        let max_delay = u64_field(header, ev, "max_delay")?;
        if max_delay == 0 {
            return Err(PlanCodecError::InvalidValue {
                event: ev,
                field: "max_delay",
            });
        }
        let mut plan = FaultPlan::new(u64_field(header, ev, "seed")?)
            .with_drop_prob(prob_field(header, ev, "drop_prob")?)
            .with_corrupt_prob(prob_field(header, ev, "corrupt_prob")?)
            .with_duplicate_prob(prob_field(header, ev, "duplicate_prob")?)
            .with_delay_prob(prob_field(header, ev, "delay_prob")?, max_delay);
        if let Some(max_bits) = header.u64_field("throttle_bits") {
            plan = plan.with_throttle(max_bits, u64_field(header, ev, "throttle_from")?);
        }
        for (node, round) in indexed(
            &records,
            "plan_crash",
            u64_field(header, ev, "crashes")?,
            |r| {
                Ok((
                    u64_field(r, "plan_crash", "node")? as NodeId,
                    u64_field(r, "plan_crash", "round")?,
                ))
            },
        )? {
            plan = plan.with_crash(node, round);
        }
        for t in indexed(
            &records,
            "plan_targeted",
            u64_field(header, ev, "targeted")?,
            |r| {
                let action = match str_field(r, "plan_targeted", "action")? {
                    "drop" => FaultAction::Drop,
                    "corrupt" => {
                        FaultAction::CorruptBit(u64_field(r, "plan_targeted", "bit")? as u32)
                    }
                    "duplicate" => FaultAction::Duplicate,
                    "delay" => FaultAction::Delay(u64_field(r, "plan_targeted", "delay")?),
                    other => {
                        return Err(PlanCodecError::UnknownName {
                            field: "action",
                            value: other.to_string(),
                        })
                    }
                };
                Ok(TargetedFault {
                    round: parse_filter(r, "plan_targeted")?,
                    from: r.u64_field("from").map(|v| v as NodeId),
                    to: r.u64_field("to").map(|v| v as NodeId),
                    action,
                })
            },
        )? {
            plan = plan.with_targeted(t);
        }
        for l in indexed(
            &records,
            "plan_link",
            u64_field(header, ev, "links")?,
            |r| {
                let kind = match str_field(r, "plan_link", "kind")? {
                    "omission" => LinkFaultKind::Omission,
                    "byzantine" => LinkFaultKind::Byzantine {
                        bit: u64_field(r, "plan_link", "bit")? as u32,
                    },
                    other => {
                        return Err(PlanCodecError::UnknownName {
                            field: "kind",
                            value: other.to_string(),
                        })
                    }
                };
                Ok(LinkFault {
                    a: u64_field(r, "plan_link", "a")? as NodeId,
                    b: u64_field(r, "plan_link", "b")? as NodeId,
                    kind,
                    rounds: parse_filter(r, "plan_link")?,
                })
            },
        )? {
            plan = plan.with_link_fault(l);
        }
        for (side, from_round, heal_round) in indexed(
            &records,
            "plan_partition",
            u64_field(header, ev, "partitions")?,
            |r| {
                let side_text = str_field(r, "plan_partition", "side")?;
                let mut side: Vec<NodeId> = Vec::new();
                for part in side_text.split(',').filter(|s| !s.is_empty()) {
                    side.push(
                        part.parse::<NodeId>()
                            .map_err(|_| PlanCodecError::UnknownName {
                                field: "side",
                                value: side_text.to_string(),
                            })?,
                    );
                }
                let from_round = u64_field(r, "plan_partition", "from_round")?;
                let heal_round = r.u64_field("heal_round");
                if heal_round.is_some_and(|h| h <= from_round) {
                    return Err(PlanCodecError::InvalidValue {
                        event: "plan_partition",
                        field: "heal_round",
                    });
                }
                Ok((side, from_round, heal_round))
            },
        )? {
            plan = plan.with_partition(&side, from_round, heal_round);
        }
        Ok(plan)
    }

    /// The plan as JSONL text — one record per line, replayable with
    /// [`FaultPlan::from_jsonl`] or `tracectl`-compatible tooling.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for r in self.to_records() {
            out.push_str(&r.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses a plan back out of JSONL text (a whole trace is fine:
    /// unrelated records are skipped).
    pub fn from_jsonl(text: &str) -> Result<FaultPlan, PlanCodecError> {
        let records = json::parse_jsonl(text).map_err(|e| PlanCodecError::Json(e.to_string()))?;
        FaultPlan::from_records(&records)
    }
}

/// A [`PartitionWindow`] rendered as typed schedule events:
/// `(round, event)` pairs with `event` ∈ {`"partition"`, `"heal"`}.
/// Used by [`crate::FaultTimeline::note_plan`] to place Partition/Heal
/// rows on the fault grid.
pub fn partition_events(w: &PartitionWindow) -> Vec<(u64, &'static str)> {
    let mut out = vec![(w.from_round, "partition")];
    if let Some(h) = w.heal_round {
        out.push((h, "heal"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kitchen_sink() -> FaultPlan {
        FaultPlan::new(0xDEAD_BEEF)
            .with_drop_prob(0.125)
            .with_corrupt_prob(0.0625)
            .with_duplicate_prob(0.03125)
            .with_delay_prob(0.25, 3)
            .with_throttle(48, 7)
            .with_crash(3, 0)
            .with_crash(1, 12)
            .with_targeted(TargetedFault {
                round: RoundFilter::Range(2, 9),
                from: Some(4),
                to: None,
                action: FaultAction::CorruptBit(13),
            })
            .with_targeted(TargetedFault {
                round: RoundFilter::Any,
                from: None,
                to: Some(0),
                action: FaultAction::Delay(2),
            })
            .with_omission_link(5, 2, RoundFilter::From(4))
            .with_byzantine_link(0, 1, 63, RoundFilter::At(6))
            .with_partition(&[0, 1, 2], 3, Some(8))
            .with_partition(&[7], 10, None)
    }

    #[test]
    fn records_round_trip_exactly() {
        let plan = kitchen_sink();
        let records = plan.to_records();
        let back = FaultPlan::from_records(&records).expect("round-trips");
        assert_eq!(back, plan);
    }

    #[test]
    fn jsonl_round_trip_survives_a_surrounding_trace() {
        let plan = kitchen_sink();
        // Embed the plan in the middle of unrelated trace records.
        let mut trace = String::from(
            "{\"ts\":3,\"target\":\"sim\",\"event\":\"round\",\"fields\":{\"round\":1}}\n",
        );
        trace.push_str(&plan.to_jsonl());
        trace.push_str(
            "{\"ts\":9,\"target\":\"sim\",\"event\":\"summary\",\"fields\":{\"rounds\":4}}\n",
        );
        let back = FaultPlan::from_jsonl(&trace).expect("round-trips");
        assert_eq!(back, plan);
        // The rebuilt plan serializes to byte-identical JSONL.
        assert_eq!(back.to_jsonl(), plan.to_jsonl());
    }

    #[test]
    fn empty_plan_round_trips_to_empty() {
        let back = FaultPlan::from_jsonl(&FaultPlan::empty().to_jsonl()).expect("round-trips");
        assert!(back.is_empty());
        assert_eq!(back, FaultPlan::empty());
    }

    #[test]
    fn missing_header_and_bad_counts_are_typed_errors() {
        assert_eq!(
            FaultPlan::from_records(&[]).unwrap_err(),
            PlanCodecError::MissingHeader
        );
        let mut records = kitchen_sink().to_records();
        records.retain(|r| r.event != "plan_link");
        match FaultPlan::from_records(&records).unwrap_err() {
            PlanCodecError::CountMismatch {
                event, expected, ..
            } => {
                assert_eq!(event, "plan_link");
                assert_eq!(expected, 2);
            }
            other => panic!("unexpected error: {other}"),
        }
    }

    #[test]
    fn out_of_range_values_are_typed_errors() {
        let plan = FaultPlan::empty()
            .with_partition(&[0, 1], 3, Some(8))
            .to_jsonl();
        for (event, field, from, to) in [
            ("fault_plan", "drop_prob", "0.0", "1.5"),
            ("fault_plan", "drop_prob", "0.0", "null"),
            ("fault_plan", "max_delay", "1", "0"),
            ("plan_partition", "heal_round", "8", "3"),
            ("plan_partition", "heal_round", "8", "2"),
        ] {
            let from = format!("\"{field}\":{from}");
            assert!(plan.contains(&from), "{plan}");
            let text = plan.replacen(&from, &format!("\"{field}\":{to}"), 1);
            assert_eq!(
                FaultPlan::from_jsonl(&text).unwrap_err(),
                PlanCodecError::InvalidValue { event, field },
                "{field} = {to}"
            );
        }
    }

    #[test]
    fn partition_events_are_typed() {
        let w = PartitionWindow::new(&[1, 2], 3, Some(9));
        assert_eq!(partition_events(&w), vec![(3, "partition"), (9, "heal")]);
        let open = PartitionWindow::new(&[1], 5, None);
        assert_eq!(partition_events(&open), vec![(5, "partition")]);
    }
}
