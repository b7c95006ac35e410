//! Hosted execution of a CONGEST algorithm designed for a *reduced* graph
//! `G'` on the original *host* graph `G` — the mechanism behind the
//! paper's Lemmas 2.2 and 2.3 ("each round of `A` on `G'` is simulated in
//! `O(1)` rounds of `G`").
//!
//! A [`HostMapping`] assigns every `G'` vertex to the host vertex that
//! simulates it (e.g. `v` simulates `v_in, v_mid, v_out` in the
//! directed→undirected Hamiltonicity reduction). Messages between `G'`
//! vertices owned by the same host vertex are free local computation;
//! messages between different owners are multiplexed over the host edge,
//! at most one per direction per host round — so one inner round costs
//! `capacity` host rounds, where `capacity` is the largest number of `G'`
//! edges sharing a host edge direction.
//!
//! [`HostedAlgorithm`] implements [`CongestAlgorithm`] for the host graph,
//! so the hosted run is itself bandwidth-enforced and bit-metered by the
//! ordinary [`crate::Simulator`].

use std::collections::HashMap;

use congest_graph::{Csr, Graph, NodeId};

use crate::bits::id_bits;
use crate::error::HostingError;
use crate::{CongestAlgorithm, NodeContext, RoundOutcome};

/// The assignment of reduced-graph vertices to host vertices.
#[derive(Debug, Clone)]
pub struct HostMapping {
    /// `owner[v'] = v`: host vertex simulating `G'` vertex `v'`.
    owner: Vec<NodeId>,
    /// The reduced graph (communication topology of the inner algorithm).
    reduced: Graph,
    /// The reduced graph's CSR snapshot, built once: every inner
    /// [`NodeContext`] reads it.
    csr: Csr,
}

impl HostMapping {
    /// Creates a mapping.
    ///
    /// # Panics
    ///
    /// Panics if `owner.len() != reduced.num_nodes()`; see
    /// [`HostMapping::try_new`] for the fallible variant.
    pub fn new(reduced: Graph, owner: Vec<NodeId>) -> Self {
        Self::try_new(reduced, owner).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`HostMapping::new`]: a mismatched owner vector is
    /// a typed [`HostingError`] instead of a panic.
    pub fn try_new(reduced: Graph, owner: Vec<NodeId>) -> Result<Self, HostingError> {
        if owner.len() != reduced.num_nodes() {
            return Err(HostingError::OwnerArity {
                owners: owner.len(),
                vertices: reduced.num_nodes(),
            });
        }
        let csr = Csr::from_graph(&reduced);
        Ok(HostMapping {
            owner,
            reduced,
            csr,
        })
    }

    /// The Lemma 2.2 mapping: host vertex `v` simulates `3v` (in),
    /// `3v+1` (mid), `3v+2` (out) of the tripled reduction graph.
    pub fn tripled(reduced: Graph) -> Self {
        let owner = (0..reduced.num_nodes()).map(|v| v / 3).collect();
        HostMapping::new(reduced, owner)
    }

    /// The host vertex simulating reduced vertex `v'`.
    pub fn owner(&self, v_prime: NodeId) -> NodeId {
        self.owner[v_prime]
    }

    /// The reduced graph.
    pub fn reduced(&self) -> &Graph {
        &self.reduced
    }

    /// The per-host-edge multiplexing capacity: the largest number of
    /// reduced edges mapped onto one host edge direction. One inner round
    /// costs this many host rounds (the paper's constant overhead — 2 for
    /// Lemma 2.2, 2 for Lemma 2.3).
    pub fn capacity(&self) -> usize {
        let mut load: HashMap<(NodeId, NodeId), usize> = HashMap::new();
        for (u, v, _) in self.reduced.edges() {
            let (a, b) = (self.owner[u], self.owner[v]);
            if a != b {
                // Each undirected reduced edge can carry one message per
                // direction per inner round.
                *load.entry((a, b)).or_insert(0) += 1;
            }
        }
        load.values().copied().max().unwrap_or(1).max(1)
    }

    /// Checks that the mapping is realizable on the host graph: every
    /// cross-owner reduced edge must map onto a host edge.
    pub fn validate_against(&self, host: &Graph) -> bool {
        self.try_validate_against(host).is_ok()
    }

    /// Like [`HostMapping::validate_against`], but reports the first
    /// unrealizable reduced edge as a typed [`HostingError`].
    pub fn try_validate_against(&self, host: &Graph) -> Result<(), HostingError> {
        for (u, v, _) in self.reduced.edges() {
            let (a, b) = (self.owner[u], self.owner[v]);
            if a != b && !host.has_edge(a, b) {
                return Err(HostingError::UnrealizableEdge {
                    u,
                    v,
                    host_u: a,
                    host_v: b,
                });
            }
        }
        Ok(())
    }
}

/// A message of the hosted execution: one inner message plus its reduced
/// endpoints, so the receiving host vertex can route it to the right
/// simulated vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct HostedMsg<M> {
    /// Sending `G'` vertex.
    pub from: NodeId,
    /// Receiving `G'` vertex.
    pub to: NodeId,
    /// The inner payload.
    pub inner: M,
}

/// Runs an algorithm written for `mapping.reduced()` on the host graph.
///
/// The execution alternates: one *compute* step (every simulated vertex
/// executes its inner round; intra-owner messages short-circuit) followed
/// by `capacity` *transport* host rounds draining the cross-owner
/// messages.
#[derive(Debug)]
pub struct HostedAlgorithm<A: CongestAlgorithm> {
    inner: A,
    mapping: HostMapping,
    capacity: usize,
    /// Pending inner inboxes, keyed by reduced vertex.
    inboxes: Vec<Vec<(NodeId, A::Msg)>>,
    /// Cross-owner messages awaiting transport, keyed by host sender.
    outboxes: Vec<Vec<HostedMsg<A::Msg>>>,
    inner_round: usize,
    transport_left: usize,
    inner_halted: Vec<bool>,
    inner_aborted: bool,
    /// Epoch stamps marking host targets already used this transport
    /// activation (one message per host edge direction per round).
    transport_seen: Vec<u64>,
    transport_epoch: u64,
}

/// Routes one simulated vertex's outgoing messages: intra-owner messages
/// short-circuit into the target's inbox, cross-owner messages queue on
/// the owning host vertex for transport. Free function over the split
/// fields so callers can hold the reduced-graph context (an immutable
/// borrow of `mapping`) at the same time.
fn route_msgs<M>(
    mapping: &HostMapping,
    inboxes: &mut [Vec<(NodeId, M)>],
    outboxes: &mut [Vec<HostedMsg<M>>],
    from: NodeId,
    out: Vec<(NodeId, M)>,
) {
    for (to, msg) in out {
        let (oa, ob) = (mapping.owner(from), mapping.owner(to));
        if oa == ob {
            inboxes[to].push((from, msg));
        } else {
            outboxes[oa].push(HostedMsg {
                from,
                to,
                inner: msg,
            });
        }
    }
}

impl<A: CongestAlgorithm> HostedAlgorithm<A> {
    /// Wraps `inner` (an algorithm for the reduced graph) with a mapping
    /// onto a host of `host_n` vertices.
    pub fn new(inner: A, mapping: HostMapping, host_n: usize) -> Self {
        let capacity = mapping.capacity();
        let n_prime = mapping.reduced().num_nodes();
        HostedAlgorithm {
            inner,
            capacity,
            inboxes: vec![Vec::new(); n_prime],
            outboxes: vec![Vec::new(); host_n],
            inner_round: 0,
            transport_left: 0,
            inner_halted: vec![false; n_prime],
            inner_aborted: false,
            transport_seen: vec![0; host_n],
            transport_epoch: 0,
            mapping,
        }
    }

    /// The inner algorithm (for reading outputs after the run).
    pub fn inner(&self) -> &A {
        &self.inner
    }
}

impl<A: CongestAlgorithm> CongestAlgorithm for HostedAlgorithm<A> {
    type Msg = HostedMsg<A::Msg>;
    type Output = A::Output;

    fn message_bits(msg: &HostedMsg<A::Msg>) -> u64 {
        // Routing header (two reduced ids) + payload.
        id_bits(msg.from as u64) + id_bits(msg.to as u64) + A::message_bits(&msg.inner)
    }

    fn init(&mut self, node: NodeId, _host_ctx: &NodeContext<'_>) -> Vec<(NodeId, Self::Msg)> {
        // Inner init for the simulated vertices; messages queue for the
        // first compute+transport activation. Destructuring splits the
        // borrows — the inner context reads `mapping` while the algorithm
        // and queues advance mutably — so no clone of the reduced graph.
        let HostedAlgorithm {
            inner,
            mapping,
            inboxes,
            outboxes,
            ..
        } = self;
        let inner_ctx = crate::model::make_context(&mapping.csr);
        for vp in 0..mapping.reduced().num_nodes() {
            if mapping.owner(vp) == node {
                let out = inner.init(vp, &inner_ctx);
                route_msgs(mapping, inboxes, outboxes, vp, out);
            }
        }
        self.transport_left = self.capacity.saturating_sub(1);
        Vec::new()
    }

    fn round(
        &mut self,
        node: NodeId,
        _host_ctx: &NodeContext<'_>,
        _round: usize,
        inbox: &[(NodeId, Self::Msg)],
    ) -> (Vec<(NodeId, Self::Msg)>, RoundOutcome) {
        // Deliver transported messages to simulated inboxes. A routing
        // header pointing outside the reduced graph (possible only under
        // payload corruption) is discarded rather than indexed blindly.
        for (_, m) in inbox {
            if let Some(inbox) = self.inboxes.get_mut(m.to) {
                inbox.push((m.from, m.inner.clone()));
            }
        }
        // On a compute activation (no pure-transport rounds left), every
        // simulated vertex advances one inner round first; the freshly
        // produced cross messages then join the transport drain below.
        // Merging compute with the first transport batch keeps the host
        // execution non-silent whenever work is pending, so the
        // simulator's quiescence detection fires only when the inner
        // algorithm is genuinely done.
        if self.transport_left == 0 {
            // One inner round for every reduced vertex owned by `node`.
            // The split borrow (immutable `mapping`, mutable everything
            // else) replaces the per-node reduced-graph clone this branch
            // used to pay.
            let HostedAlgorithm {
                inner,
                mapping,
                inboxes,
                outboxes,
                inner_round,
                inner_halted,
                inner_aborted,
                ..
            } = self;
            let inner_ctx = crate::model::make_context(&mapping.csr);
            for vp in 0..mapping.reduced().num_nodes() {
                if mapping.owner(vp) != node || inner_halted[vp] {
                    continue;
                }
                let inbox = std::mem::take(&mut inboxes[vp]);
                let (out, action) = inner.round(vp, &inner_ctx, *inner_round, &inbox);
                match action {
                    RoundOutcome::Halt => inner_halted[vp] = true,
                    RoundOutcome::Aborted => {
                        // Propagate: the host run ends after this round too.
                        inner_halted[vp] = true;
                        *inner_aborted = true;
                    }
                    RoundOutcome::Continue => {}
                }
                route_msgs(mapping, inboxes, outboxes, vp, out);
            }
            if node + 1 == self.outboxes.len() {
                self.inner_round += 1;
                self.transport_left = self.capacity.saturating_sub(1);
            }
        } else if node + 1 == self.outboxes.len() {
            self.transport_left -= 1;
        }
        // Transport: send one pending message per host edge direction.
        // Targets already used this activation are marked with an epoch
        // stamp instead of scanned in a `used` vector.
        self.transport_epoch += 1;
        let epoch = self.transport_epoch;
        let mut out = Vec::new();
        let pending = std::mem::take(&mut self.outboxes[node]);
        let mut rest = Vec::new();
        for m in pending {
            let target = self.mapping.owner(m.to);
            if self.transport_seen[target] == epoch {
                rest.push(m);
            } else {
                self.transport_seen[target] = epoch;
                out.push((target, m));
            }
        }
        self.outboxes[node] = rest;
        let all_halted = self.inner_halted.iter().all(|&h| h);
        let quiet =
            self.outboxes.iter().all(Vec::is_empty) && self.inboxes.iter().all(Vec::is_empty);
        (
            out,
            if self.inner_aborted {
                RoundOutcome::Aborted
            } else if all_halted && quiet {
                RoundOutcome::Halt
            } else {
                RoundOutcome::Continue
            },
        )
    }

    fn output(&self, node: NodeId) -> Option<A::Output> {
        // The host node reports the output of its lowest simulated vertex
        // (callers can query the inner algorithm directly for the rest).
        (0..self.mapping.reduced().num_nodes())
            .find(|&vp| self.mapping.owner(vp) == node)
            .and_then(|vp| self.inner.output(vp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::LeaderElection;
    use crate::Simulator;
    use congest_graph::generators;

    /// The Lemma 2.2 shape: host G (a cycle), reduced G' = tripled graph;
    /// run leader election on G' hosted on G and compare against a direct
    /// run on G'.
    #[test]
    fn tripled_hosting_reproduces_direct_execution() {
        let host = generators::cycle(8);
        // Reduced graph: v_in(3v) - v_mid(3v+1) - v_out(3v+2) chains plus
        // (u_out, v_in) per host edge, both directions (undirected).
        let mut reduced = Graph::new(24);
        for v in 0..8 {
            reduced.add_edge(3 * v, 3 * v + 1);
            reduced.add_edge(3 * v + 1, 3 * v + 2);
        }
        for (u, v, _) in host.edges() {
            reduced.add_edge(3 * u + 2, 3 * v);
            reduced.add_edge(3 * v + 2, 3 * u);
        }
        let mapping = HostMapping::tripled(reduced.clone());
        assert!(mapping.validate_against(&host));
        // Two reduced edges share each host edge direction -> capacity 2,
        // matching Lemma 2.2's factor-2 overhead.
        assert_eq!(mapping.capacity(), 2);

        // Direct run on G'.
        let mut direct = LeaderElection::new(24);
        let direct_stats = Simulator::with_bandwidth(&reduced, 128).run(&mut direct, 10_000);

        // Hosted run on G.
        let inner = LeaderElection::new(24);
        let mut hosted = HostedAlgorithm::new(inner, mapping, 8);
        let hosted_stats = Simulator::with_bandwidth(&host, 128)
            .stop_on_quiescence(true)
            .run(&mut hosted, 10_000);

        for vp in 0..24 {
            assert_eq!(
                hosted.inner().leader(vp),
                direct.leader(vp),
                "reduced vertex {vp}"
            );
            assert_eq!(hosted.inner().leader(vp), 0);
        }
        // Overhead: at most capacity + 1 host rounds per inner round,
        // plus constant slack.
        assert!(
            hosted_stats.rounds <= 3 * (direct_stats.rounds + 4) + 8,
            "hosted {} vs direct {}",
            hosted_stats.rounds,
            direct_stats.rounds
        );
    }

    /// `tripled` assigns owners in consecutive triples, and `owner`
    /// round-trips every reduced vertex back to the host vertex that
    /// spawned it.
    #[test]
    fn tripled_owner_round_trips() {
        let reduced = Graph::new(12);
        let mapping = HostMapping::tripled(reduced);
        for host in 0..4 {
            for part in 0..3 {
                assert_eq!(mapping.owner(3 * host + part), host);
            }
        }
        assert_eq!(mapping.reduced().num_nodes(), 12);
    }

    /// An explicit owner vector is reported back verbatim, including
    /// non-contiguous assignments.
    #[test]
    fn explicit_owner_round_trips() {
        let reduced = Graph::new(4);
        let owner = vec![2, 0, 2, 1];
        let mapping = HostMapping::new(reduced, owner.clone());
        for (vp, &host) in owner.iter().enumerate() {
            assert_eq!(mapping.owner(vp), host);
        }
    }

    /// `validate_against` rejects a mapping whose cross-owner reduced edge
    /// has no corresponding host edge, and accepts it once the host edge
    /// exists (or the edge is intra-owner).
    #[test]
    fn validate_against_requires_host_edges() {
        // Reduced: 0-1 (owners 0,1) and 2-3 (owners 2,2, intra-owner).
        let mut reduced = Graph::new(4);
        reduced.add_edge(0, 1);
        reduced.add_edge(2, 3);
        let mapping = HostMapping::new(reduced, vec![0, 1, 2, 2]);

        // Host path 0-2-1 has no 0-1 edge: the cross-owner edge 0-1 is
        // unrealizable.
        let mut bad_host = Graph::new(3);
        bad_host.add_edge(0, 2);
        bad_host.add_edge(2, 1);
        assert!(!mapping.validate_against(&bad_host));

        // Adding the 0-1 host edge fixes it; the intra-owner reduced edge
        // 2-3 never needs a host edge.
        let mut good_host = Graph::new(3);
        good_host.add_edge(0, 2);
        good_host.add_edge(2, 1);
        good_host.add_edge(0, 1);
        assert!(mapping.validate_against(&good_host));
    }

    /// Intra-owner messages are free: hosting a graph on itself with the
    /// identity mapping changes nothing.
    #[test]
    fn identity_hosting_is_transparent() {
        let g = generators::complete(6);
        let mapping = HostMapping::new(g.clone(), (0..6).collect());
        assert_eq!(mapping.capacity(), 1);
        let inner = LeaderElection::new(6);
        let mut hosted = HostedAlgorithm::new(inner, mapping, 6);
        Simulator::with_bandwidth(&g, 128).run(&mut hosted, 1_000);
        for v in 0..6 {
            assert_eq!(hosted.inner().leader(v), 0);
        }
    }
}
