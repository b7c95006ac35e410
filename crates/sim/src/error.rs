//! Typed model-violation errors.
//!
//! Historically every CONGEST-model violation was an `assert!` deep in the
//! simulator — a single malformed send crashed the whole process. The
//! fallible entry points ([`crate::Simulator::try_run`],
//! [`crate::Simulator::try_run_with`], [`crate::Simulator::try_run_profiled`]
//! and their sharded twins) surface the same violations as [`SimError`]
//! values instead; the panicking [`crate::Simulator::run`] survives as a
//! thin compatibility wrapper whose panic payload is exactly the
//! [`SimError`] display string, so tooling that greps for the
//! `CONGEST violation` prefix keeps working.

use std::fmt;

use congest_graph::NodeId;

/// A CONGEST-model violation detected by the simulator.
///
/// The `Display` strings are stable: they reproduce the wording of the
/// historical panics verbatim (prefix `CONGEST violation: `), and the
/// compat wrapper [`crate::Simulator::run`] panics with exactly
/// `format!("{err}")`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// A node sent a message to a vertex it has no edge to.
    NonNeighborSend {
        /// The offending sender.
        from: NodeId,
        /// The non-adjacent addressee.
        to: NodeId,
        /// Timeline round of the offending dispatch (0 = init burst).
        round: u64,
    },
    /// A node sent two messages over the same edge direction in one round.
    DuplicateSend {
        /// The offending sender.
        from: NodeId,
        /// The receiver addressed twice.
        to: NodeId,
        /// Timeline round of the offending dispatch (0 = init burst).
        round: u64,
    },
    /// A message exceeded the per-edge per-round bandwidth.
    BandwidthExceeded {
        /// The offending sender.
        from: NodeId,
        /// The receiver.
        to: NodeId,
        /// The message size in bits.
        bits: u64,
        /// The configured bandwidth in bits.
        bandwidth: u64,
        /// Timeline round of the offending dispatch (0 = init burst).
        round: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The wording is pinned by tests: downstream tooling greps traces
        // and panic payloads for these exact strings.
        match *self {
            SimError::NonNeighborSend { from, to, .. } => {
                write!(f, "CONGEST violation: {from} sent to non-neighbor {to}")
            }
            SimError::DuplicateSend { from, to, .. } => {
                write!(
                    f,
                    "CONGEST violation: {from} sent two messages to {to} in one round"
                )
            }
            SimError::BandwidthExceeded {
                bits, bandwidth, ..
            } => {
                write!(
                    f,
                    "CONGEST violation: message of {bits} bits exceeds bandwidth {bandwidth}"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A structural error in a hosted-execution mapping
/// (see [`crate::hosting::HostMapping`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostingError {
    /// The owner vector length does not match the reduced vertex count.
    OwnerArity {
        /// Entries in the owner vector.
        owners: usize,
        /// Vertices in the reduced graph.
        vertices: usize,
    },
    /// A cross-owner reduced edge has no corresponding host edge.
    UnrealizableEdge {
        /// Reduced edge endpoint.
        u: NodeId,
        /// Reduced edge endpoint.
        v: NodeId,
        /// Host owner of `u`.
        host_u: NodeId,
        /// Host owner of `v`.
        host_v: NodeId,
    },
}

impl fmt::Display for HostingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            HostingError::OwnerArity { owners, vertices } => write!(
                f,
                "hosting violation: {owners} owners for {vertices} reduced vertices \
                 (one owner per reduced vertex)"
            ),
            HostingError::UnrealizableEdge {
                u,
                v,
                host_u,
                host_v,
            } => write!(
                f,
                "hosting violation: reduced edge ({u}, {v}) maps to hosts ({host_u}, {host_v}) \
                 which share no host edge"
            ),
        }
    }
}

impl std::error::Error for HostingError {}

#[cfg(test)]
mod tests {
    use super::*;

    /// The display strings reproduce the historical panic wording: the
    /// `CONGEST violation` prefix is part of the crate's contract.
    #[test]
    fn display_matches_historical_panics() {
        assert_eq!(
            SimError::NonNeighborSend {
                from: 0,
                to: 2,
                round: 0
            }
            .to_string(),
            "CONGEST violation: 0 sent to non-neighbor 2"
        );
        assert_eq!(
            SimError::DuplicateSend {
                from: 1,
                to: 3,
                round: 4
            }
            .to_string(),
            "CONGEST violation: 1 sent two messages to 3 in one round"
        );
        assert_eq!(
            SimError::BandwidthExceeded {
                from: 0,
                to: 1,
                bits: 1_000_000,
                bandwidth: 18,
                round: 0
            }
            .to_string(),
            "CONGEST violation: message of 1000000 bits exceeds bandwidth 18"
        );
    }

    #[test]
    fn hosting_error_displays() {
        let e = HostingError::OwnerArity {
            owners: 3,
            vertices: 4,
        };
        assert!(e.to_string().contains("one owner per reduced vertex"));
        let e = HostingError::UnrealizableEdge {
            u: 0,
            v: 1,
            host_u: 2,
            host_v: 3,
        };
        assert!(e.to_string().contains("share no host edge"));
    }
}
