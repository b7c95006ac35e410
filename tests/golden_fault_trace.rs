//! Golden-trace regression under faults: the byte-exact observed JSONL
//! trace of one seeded min-ID flood whose link drops, corrupts,
//! duplicates and delays messages and crash-stops two nodes.
//!
//! `golden_trace.rs` pins a fault-free run; this fixture pins the paths
//! only faults reach — a dropped or delayed message is still metered, a
//! duplicate is metered twice and delivered behind its original, a
//! matured delay arrives ahead of the round's on-time sends, and a
//! crashed node's pending inbox is discarded. The observer asks for
//! per-round edge traffic (a designated cut plus `edge_round` records),
//! so the per-round edge meters are pinned too. The fixture ends with
//! two lines the trace itself does not carry: every `bits_per_edge`
//! entry in ascending edge order, and every node's output.
//!
//! The same bytes must come out of the sharded engine at every worker
//! count. To regenerate after an *intentional* observable change:
//!
//! ```bash
//! GOLDEN_REWRITE=1 cargo test --test golden_fault_trace
//! ```

use congest_hardness::faults::FaultPlan;
use congest_hardness::graph::{generators, Graph};
use congest_hardness::obs::{MemoryRecorder, VirtualClock};
use congest_hardness::sim::algorithms::LeaderElection;
use congest_hardness::sim::{SimStats, Simulator, TraceObserver};
use rand::rngs::StdRng;
use rand::SeedableRng;

const FIXTURE_PATH: &str = "tests/fixtures/sim_flood_faults_golden.jsonl";
const FIXTURE: &str = include_str!("fixtures/sim_flood_faults_golden.jsonl");

const NODES: usize = 14;

fn graph() -> Graph {
    let mut rng = StdRng::seed_from_u64(2020);
    generators::connected_gnp(NODES, 0.3, &mut rng)
}

/// All five fault kinds: three probabilistic per-message fates plus
/// delays, and two crash-stops.
fn plan() -> FaultPlan {
    FaultPlan::new(91)
        .with_drop_prob(0.1)
        .with_corrupt_prob(0.1)
        .with_duplicate_prob(0.1)
        .with_delay_prob(0.15, 3)
        .with_crash(5, 2)
        .with_crash(9, 4)
}

/// Renders the trace, then the sorted per-edge totals and the outputs.
fn render(obs: TraceObserver<MemoryRecorder>, stats: &SimStats, alg: &LeaderElection) -> String {
    let mut out = String::new();
    for rec in obs.into_recorder().into_records() {
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    let mut edges: Vec<_> = stats.bits_per_edge.iter().collect();
    edges.sort_unstable();
    let edges: Vec<String> = edges
        .iter()
        .map(|&(&(u, v), &bits)| format!("[{u},{v},{bits}]"))
        .collect();
    out.push_str(&format!("{{\"bits_per_edge\":[{}]}}\n", edges.join(",")));
    let leaders: Vec<String> = (0..NODES).map(|v| alg.leader(v).to_string()).collect();
    out.push_str(&format!("{{\"outputs\":[{}]}}\n", leaders.join(",")));
    out
}

fn observer(g: &Graph) -> TraceObserver<MemoryRecorder> {
    let cut: Vec<(usize, usize)> = g.neighbors(0).iter().map(|&u| (0, u)).collect();
    TraceObserver::new(MemoryRecorder::with_clock(VirtualClock::sequence()))
        .with_cut(&cut)
        .with_edge_records(true)
}

/// The pinned run through the serial engine, or through the sharded one
/// at `jobs` workers.
fn faulty_trace(jobs: Option<usize>) -> String {
    let g = graph();
    let mut alg = LeaderElection::new(NODES);
    let mut obs = observer(&g);
    let mut link = plan();
    let stats = match jobs {
        None => Simulator::new(&g).try_run_with(&mut alg, 200, &mut obs, &mut link),
        Some(jobs) => Simulator::new(&g)
            .with_jobs(jobs)
            .try_run_sharded_with(&mut alg, 200, &mut obs, &mut link)
            .map(|(stats, _)| stats),
    }
    .expect("a legal flood");
    // Every fault kind must have fired, or the fixture pins less than it
    // claims.
    let f = &stats.faults;
    assert!(f.drops > 0, "no drops: {f:?}");
    assert!(f.corruptions > 0, "no corruptions: {f:?}");
    assert!(f.duplications > 0, "no duplicates: {f:?}");
    assert!(f.delays > 0, "no delays: {f:?}");
    assert_eq!(f.crashes, 2, "{f:?}");
    render(obs, &stats, &alg)
}

fn assert_matches_fixture(trace: &str, label: &str) {
    if trace == FIXTURE {
        return;
    }
    let got: Vec<&str> = trace.lines().collect();
    let want: Vec<&str> = FIXTURE.lines().collect();
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g, w, "{label}: first divergence at line {}", i + 1);
    }
    panic!(
        "{label}: length changed: got {} lines, fixture has {}",
        got.len(),
        want.len()
    );
}

#[test]
fn faulty_trace_matches_golden_fixture() {
    let trace = faulty_trace(None);
    if std::env::var_os("GOLDEN_REWRITE").is_some() {
        std::fs::write(FIXTURE_PATH, &trace).expect("write fixture");
        eprintln!("rewrote {FIXTURE_PATH} ({} bytes)", trace.len());
        return;
    }
    assert_matches_fixture(&trace, "serial");
}

#[test]
fn sharded_faulty_trace_matches_golden_fixture() {
    for jobs in [1, 2, 4] {
        assert_matches_fixture(&faulty_trace(Some(jobs)), &format!("jobs={jobs}"));
    }
}
