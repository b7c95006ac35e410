//! A synchronous CONGEST-model simulator with exact bandwidth accounting.
//!
//! The CONGEST model (Peleg \[43\]): `n` nodes communicate over the edges of
//! the underlying graph in synchronous rounds; in each round every node may
//! send one message of `O(log n)` bits across each incident edge. The
//! paper's lower bounds say how many rounds problems *must* take; this
//! simulator provides the matching upper-bound side — the folklore
//! algorithms the paper appeals to (leader election, BFS, convergecast,
//! "learn the whole graph in `O(m + D)` rounds") and the paper's own
//! `(1-ε)` max-cut algorithm (Theorem 2.9) — with every transmitted bit
//! metered, so benches can compare measured costs against the bounds.
//!
//! The engine enforces the model: messages may only travel along graph
//! edges and may not exceed the configured bandwidth. Every message is
//! metered at its exact [`CongestAlgorithm::message_bits`] width, on its
//! own edge, in its own round. [`Simulator`] has seven run methods over
//! one engine, which splits the nodes into contiguous shards and steps
//! them in synchronous rounds: the fallible serial [`Simulator::try_run`],
//! [`Simulator::try_run_with`] (observer + link layer) and
//! [`Simulator::try_run_profiled`] (plus a [`PhaseProfile`]) are its
//! one-shard case, run on the calling thread with the caller's algorithm
//! and link borrowed in place; their sharded twins
//! [`Simulator::try_run_sharded`] and [`Simulator::try_run_sharded_with`]
//! spread [`ShardableAlgorithm`]s over worker threads with byte-identical
//! results; and the classic [`Simulator::run`] /
//! [`Simulator::run_observed`] panic with the same messages the fallible
//! methods return as typed [`SimError`]s.
//!
//! A pluggable [`LinkLayer`] sits *below* the model checks and can drop,
//! corrupt, duplicate, delay, or throttle messages and crash-stop nodes —
//! the hook used by the `congest-faults` crate for deterministic fault
//! injection. The default [`PerfectLink`] delivers everything verbatim,
//! reproducing the fault-free model exactly.

#![forbid(unsafe_code)]
// Index loops over gadget positions are kept explicit: the indices are
// the paper's semantic coordinates (bit h, slot d, code position j).
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

pub mod algorithms;
pub mod bits;
pub mod certify;
mod error;
pub mod fxhash;
pub mod hosting;
mod link;
mod model;
pub mod observer;
pub mod profile;
mod shard;

pub use certify::{ProtocolFailure, SelfCertify};
pub use error::{HostingError, SimError};
pub use link::{FaultCounters, FaultEvent, FaultKind, LinkFate, LinkLayer, PerfectLink};
pub use model::{
    default_bandwidth, CongestAlgorithm, NodeContext, RoundOutcome, RoundTraffic, RunOutcome,
    SendBuf, SimStats, Simulator,
};
pub use observer::{NoopRoundObserver, RoundDelta, RoundObserver, TraceObserver};
pub use profile::{Phase, PhaseProfile};
pub use shard::{ShardSafeLink, ShardableAlgorithm};

// Re-exported so sharded-run callers can consume the returned worker
// utilization without depending on `congest-par` directly.
pub use congest_par::PoolStats;
