//! Malformed-input fuzz for the parsers that read external text: the obs
//! JSONL and JSON readers, the fault-plan codec and the bench-document
//! reader. Every truncation of a valid input, and every flip of one of
//! its structural bytes to another, must come back as `Ok` or `Err`,
//! never as a panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use congest_bench::regress::BenchDoc;
use congest_faults::{FaultAction, FaultPlan, RoundFilter, TargetedFault};
use congest_obs::json::{parse_jsonl, parse_record, parse_value};

const STRUCTURAL: &[u8] = b"{}[]\":,";

/// Every truncation of `text`, then every flip of one structural byte of
/// `text` to another structural byte.
fn mutants(text: &str) -> impl Iterator<Item = String> + '_ {
    assert!(text.is_ascii(), "an ASCII input keeps every mutant UTF-8");
    let truncations = (0..text.len()).map(|end| text[..end].to_string());
    let flips = text
        .bytes()
        .enumerate()
        .filter(|(_, b)| STRUCTURAL.contains(b))
        .flat_map(move |(i, b)| {
            STRUCTURAL.iter().filter(move |&&s| s != b).map(move |&s| {
                let mut bytes = text.as_bytes().to_vec();
                bytes[i] = s;
                String::from_utf8(bytes).expect("ASCII stays UTF-8")
            })
        });
    truncations.chain(flips)
}

/// Feeds every mutant of `text` to `parse`, naming the first one that
/// panics.
fn never_panics(text: &str, parse: impl Fn(&str)) {
    let mut fed = 0;
    for m in mutants(text) {
        let survived = catch_unwind(AssertUnwindSafe(|| parse(&m))).is_ok();
        assert!(survived, "the parser panicked on {m:?}");
        fed += 1;
    }
    assert!(fed > text.len(), "every truncation and at least one flip");
}

fn read(path_from_root: &str) -> String {
    let path = format!("{}/../../{path_from_root}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn obs_readers_never_panic_on_a_mangled_trace() {
    let golden = read("tests/fixtures/sim_maxcut_golden.jsonl");
    parse_jsonl(&golden).expect("the golden trace parses");
    never_panics(&golden, |text| {
        let _ = parse_jsonl(text);
        let _ = parse_value(text);
    });
    for line in golden.lines() {
        never_panics(line, |line| {
            let _ = parse_record(line);
        });
    }
}

#[test]
fn fault_plan_codec_never_panics_on_a_mangled_plan() {
    let plan = FaultPlan::new(0xDEAD_BEEF)
        .with_drop_prob(0.125)
        .with_corrupt_prob(0.0625)
        .with_duplicate_prob(0.03125)
        .with_delay_prob(0.25, 3)
        .with_throttle(48, 7)
        .with_crash(3, 0)
        .with_targeted(TargetedFault {
            round: RoundFilter::Range(2, 9),
            from: Some(4),
            to: None,
            action: FaultAction::CorruptBit(13),
        })
        .with_omission_link(5, 2, RoundFilter::From(4))
        .with_byzantine_link(0, 1, 63, RoundFilter::At(6))
        .with_partition(&[0, 1, 2], 3, Some(8));
    let text = plan.to_jsonl();
    assert_eq!(FaultPlan::from_jsonl(&text), Ok(plan));
    never_panics(&text, |text| {
        let _ = FaultPlan::from_jsonl(text);
    });
}

#[test]
fn bench_doc_reader_never_panics_on_a_mangled_document() {
    let doc = read("BENCH_faults.json");
    BenchDoc::parse(&doc).expect("the committed bench document parses");
    never_panics(&doc, |text| {
        let _ = BenchDoc::parse(text);
    });
}
