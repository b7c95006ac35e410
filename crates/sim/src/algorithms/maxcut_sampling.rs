//! Theorem 2.9: a `(1-ε)`-approximation for unweighted max-cut in `Õ(n)`
//! rounds, after \[51\].
//!
//! The algorithm: sample each edge independently with probability `p`
//! (each edge is sampled by its smaller-ID endpoint); build a BFS tree
//! rooted at the minimum-ID vertex; collect the sampled subgraph `G_p` at
//! the root over the tree (pipelined convergecast); the root solves
//! max-cut on `G_p` *locally* (unbounded local computation, as the model
//! allows) and downcasts each vertex's side together with the sampled
//! optimum `c*_p`. Every node outputs its side and the estimate `c*_p/p`.
//!
//! Identifiers here are the dense `0..n`, so the minimum-ID leader is node
//! 0; we still charge the `O(D)` BFS phase (subsumed by the `O(n)` barrier
//! that separates tree construction from the convergecast, exactly as the
//! paper's `O(n)`-round leader election does).

use congest_graph::{Graph, NodeId, Weight};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::bits::id_bits;
use crate::{CongestAlgorithm, NodeContext, RoundOutcome, SendBuf};

/// How the root solves max-cut on the sampled subgraph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalCutSolver {
    /// Exact branch-and-bound solver (`n ≤ 64`), as the paper assumes.
    Exact,
    /// Local-search fallback for larger benchmarking instances.
    LocalSearch,
}

/// Messages of the sampled-max-cut algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum McMsg {
    /// BFS depth announcement.
    Depth(usize),
    /// BFS child adoption.
    Child,
    /// Upcast of one sampled edge.
    Edge(NodeId, NodeId, Weight),
    /// This subtree has finished upcasting.
    UpDone,
    /// Downcast: vertex `0` is assigned side `1`.
    Assign(NodeId, bool),
    /// Downcast: the sampled optimum `c*_p`.
    CutValue(Weight),
}

#[derive(Debug, Clone, Default)]
struct NodeState {
    depth: Option<usize>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    /// Sampled edges waiting to go up.
    up_queue: Vec<(NodeId, NodeId, Weight)>,
    /// Children that have reported UpDone.
    children_done: usize,
    up_done_sent: bool,
    /// Root only: collected sampled edges.
    collected: Vec<(NodeId, NodeId, Weight)>,
    /// Downcast queues, one per child.
    down_queues: Vec<Vec<McMsg>>,
    /// Downcast messages received (n assignments + 1 cut value expected).
    down_received: usize,
    side: Option<bool>,
    cut_value: Option<Weight>,
    solved: bool,
}

/// The Theorem 2.9 algorithm. The BFS phase lasts exactly `n` rounds
/// (a conservative `D ≤ n` barrier), after which the convergecast starts.
///
/// The graph must be **connected**: nodes outside node 0's component are
/// never assigned a side and never halt, so a run on a disconnected
/// graph only ends at `max_rounds`.
#[derive(Debug)]
pub struct SampledMaxCut {
    n: usize,
    p: f64,
    solver: LocalCutSolver,
    rng: StdRng,
    states: Vec<NodeState>,
}

impl SampledMaxCut {
    /// Sampling probability `p`, root-side `solver`, deterministic `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `p ∉ (0, 1]`.
    pub fn new(n: usize, p: f64, solver: LocalCutSolver, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "sampling probability out of range");
        SampledMaxCut {
            n,
            p,
            solver,
            rng: StdRng::seed_from_u64(seed),
            states: vec![NodeState::default(); n],
        }
    }

    /// The side assigned to `node` (defined after the run).
    pub fn side(&self, node: NodeId) -> Option<bool> {
        self.states[node].side
    }

    /// The estimate `c*_p / p` known at `node` (defined after the run).
    pub fn estimate(&self, node: NodeId) -> Option<f64> {
        self.states[node].cut_value.map(|c| c as f64 / self.p)
    }

    /// The raw sampled optimum `c*_p` known at `node`.
    pub fn cut_value(&self, node: NodeId) -> Option<Weight> {
        self.states[node].cut_value
    }

    /// The sampled edges collected at the root (defined after the run).
    pub fn sampled_edges(&self) -> &[(NodeId, NodeId, Weight)] {
        &self.states[0].collected
    }

    fn barrier(&self) -> usize {
        self.n + 1
    }

    fn push_down(&mut self, node: NodeId, msg: McMsg) {
        for q in &mut self.states[node].down_queues {
            q.push(msg);
        }
    }

    fn solve_at_root(&mut self) {
        let root = 0;
        let mut gp = Graph::new(self.n);
        for &(u, v, w) in &self.states[root].collected {
            gp.add_weighted_edge(u, v, w);
        }
        let cut = match self.solver {
            LocalCutSolver::Exact => congest_solvers::maxcut::max_cut(&gp),
            LocalCutSolver::LocalSearch => congest_solvers::maxcut::local_search_cut(&gp, None),
        };
        self.states[root].cut_value = Some(cut.weight);
        self.states[root].side = Some(cut.side[root]);
        self.states[root].down_received = self.n + 1; // root needs nothing
        self.push_down(root, McMsg::CutValue(cut.weight));
        for v in 0..self.n {
            self.push_down(root, McMsg::Assign(v, cut.side[v]));
        }
        self.states[root].solved = true;
    }
}

impl CongestAlgorithm for SampledMaxCut {
    type Msg = McMsg;
    type Output = (bool, f64);

    /// A three-bit variant tag plus the variant's payload.
    fn message_bits(msg: &McMsg) -> u64 {
        3 + match *msg {
            McMsg::Depth(d) => id_bits(d as u64),
            McMsg::Child => 0,
            McMsg::Edge(u, v, w) => {
                id_bits(u as u64) + id_bits(v as u64) + id_bits(w.unsigned_abs())
            }
            McMsg::UpDone => 0,
            McMsg::Assign(v, _) => id_bits(v as u64) + 1,
            McMsg::CutValue(c) => id_bits(c.unsigned_abs()),
        }
    }

    fn init(&mut self, node: NodeId, ctx: &NodeContext<'_>) -> Vec<(NodeId, McMsg)> {
        // Sample incident edges owned by this node (smaller ID).
        let mut sampled = Vec::new();
        for &u in ctx.neighbors(node) {
            if node < u && self.rng.gen_bool(self.p) {
                sampled.push((node, u, ctx.edge_weight(node, u)));
            }
        }
        self.states[node].up_queue = sampled;
        if node == 0 {
            self.states[node].depth = Some(0);
            ctx.neighbors(node)
                .iter()
                .map(|&u| (u, McMsg::Depth(0)))
                .collect()
        } else {
            Vec::new()
        }
    }

    fn round(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, McMsg)],
    ) -> (Vec<(NodeId, McMsg)>, RoundOutcome) {
        let mut sends = Vec::new();
        let outcome = self.round_into(node, ctx, round, inbox, &mut sends);
        (sends, outcome)
    }

    fn round_into(
        &mut self,
        node: NodeId,
        ctx: &NodeContext<'_>,
        round: usize,
        inbox: &[(NodeId, McMsg)],
        out: &mut SendBuf<McMsg>,
    ) -> RoundOutcome {
        for &(from, msg) in inbox {
            match msg {
                McMsg::Depth(d) => {
                    if self.states[node].depth.is_none() {
                        self.states[node].depth = Some(d + 1);
                        self.states[node].parent = Some(from);
                        out.push((from, McMsg::Child));
                        for &u in ctx.neighbors(node) {
                            if u != from {
                                out.push((u, McMsg::Depth(d + 1)));
                            }
                        }
                    }
                }
                McMsg::Child => {
                    self.states[node].children.push(from);
                }
                McMsg::Edge(u, v, w) => {
                    if node == 0 {
                        self.states[node].collected.push((u, v, w));
                    } else {
                        self.states[node].up_queue.push((u, v, w));
                    }
                }
                McMsg::UpDone => {
                    self.states[node].children_done += 1;
                }
                McMsg::Assign(v, side) => {
                    self.states[node].down_received += 1;
                    if v == node {
                        self.states[node].side = Some(side);
                    }
                    self.push_down(node, McMsg::Assign(v, side));
                }
                McMsg::CutValue(c) => {
                    self.states[node].down_received += 1;
                    self.states[node].cut_value = Some(c);
                    self.push_down(node, McMsg::CutValue(c));
                }
            }
        }
        if round < self.barrier() {
            // Still in the BFS phase.
            return RoundOutcome::Continue;
        }
        if round == self.barrier() {
            // The tree is final: allocate downcast queues.
            let nc = self.states[node].children.len();
            self.states[node].down_queues = vec![Vec::new(); nc];
        }
        // Upcast phase.
        if !self.states[node].solved {
            if node == 0 {
                let all_done = self.states[node].children_done == self.states[node].children.len()
                    && self.states[node].up_queue.is_empty();
                // Move own sampled edges straight into the collection.
                let own = std::mem::take(&mut self.states[node].up_queue);
                self.states[node].collected.extend(own);
                if all_done {
                    self.solve_at_root();
                }
            } else if let Some(parent) = self.states[node].parent {
                if let Some(e) = self.states[node].up_queue.pop() {
                    out.push((parent, McMsg::Edge(e.0, e.1, e.2)));
                } else if self.states[node].children_done == self.states[node].children.len()
                    && !self.states[node].up_done_sent
                {
                    self.states[node].up_done_sent = true;
                    out.push((parent, McMsg::UpDone));
                }
            }
        }
        // Downcast phase: forward one queued message per child per round.
        // Disjoint field borrows of the node state, so no clone of the
        // child list.
        let NodeState {
            children,
            down_queues,
            ..
        } = &mut self.states[node];
        for (i, &c) in children.iter().enumerate() {
            if let Some(m) = down_queues[i].pop() {
                out.push((c, m));
            }
        }
        // Halt when fully informed, all queues flushed, and silent.
        let st = &self.states[node];
        let queues_empty = st.down_queues.iter().all(Vec::is_empty);
        let informed = st.down_received > self.n;
        let done = informed
            && queues_empty
            && st.up_queue.is_empty()
            && round > self.barrier()
            && out.is_empty();
        if done {
            RoundOutcome::Halt
        } else {
            RoundOutcome::Continue
        }
    }

    fn output(&self, node: NodeId) -> Option<(bool, f64)> {
        match (self.states[node].side, self.estimate(node)) {
            (Some(s), Some(e)) => Some((s, e)),
            _ => None,
        }
    }

    fn corrupt(msg: &McMsg, bit: u32) -> Option<McMsg> {
        match *msg {
            McMsg::Depth(d) => Some(McMsg::Depth(d ^ (1 << (bit % 8)))),
            // Only the weight of an edge announcement is perturbed:
            // corrupted endpoint ids would point outside the graph.
            McMsg::Edge(u, v, w) => Some(McMsg::Edge(u, v, w ^ ((1 as Weight) << (bit % 8)))),
            McMsg::Assign(v, side) => Some(McMsg::Assign(v, !side)),
            McMsg::CutValue(c) => Some(McMsg::CutValue(c ^ ((1 as Weight) << (bit % 8)))),
            // Tag-only messages carry no payload to flip.
            McMsg::Child | McMsg::UpDone => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulator;
    use congest_graph::generators;
    use congest_solvers::maxcut;

    fn run(g: &Graph, p: f64, seed: u64) -> (SampledMaxCut, crate::SimStats) {
        let n = g.num_nodes();
        let sim = Simulator::with_bandwidth(g, 96).stop_on_quiescence(false);
        let mut alg = SampledMaxCut::new(n, p, LocalCutSolver::Exact, seed);
        let stats = sim.run(&mut alg, 1_000_000);
        (alg, stats)
    }

    #[test]
    fn with_p_one_every_node_learns_the_exact_cut() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(31);
        let g = generators::connected_gnp(14, 0.3, &mut rng);
        let opt = maxcut::max_cut(&g).weight;
        let (alg, _) = run(&g, 1.0, 7);
        for v in 0..14 {
            let (_, est) = alg.output(v).expect("all nodes informed");
            assert!((est - opt as f64).abs() < 1e-9, "node {v}");
        }
        // The assignment itself must achieve the optimum when p = 1.
        let side: Vec<bool> = (0..14).map(|v| alg.side(v).expect("assigned")).collect();
        assert_eq!(g.cut_weight(&side), opt);
    }

    #[test]
    fn sampled_estimate_is_close_for_moderate_p() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(32);
        let g = generators::connected_gnp(16, 0.5, &mut rng);
        let opt = maxcut::max_cut(&g).weight as f64;
        // Average over seeds: sampling concentrates.
        let mut sum = 0.0;
        let trials = 5;
        for seed in 0..trials {
            let (alg, _) = run(&g, 0.7, seed);
            sum += alg.estimate(5).expect("informed");
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - opt).abs() / opt < 0.35,
            "mean estimate {mean} vs opt {opt}"
        );
    }

    #[test]
    fn round_complexity_is_near_linear() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(33);
        let g = generators::connected_gnp(20, 0.3, &mut rng);
        let (_, stats) = run(&g, 0.3, 3);
        let n = 20u64;
        let m = g.num_edges() as u64;
        // O(n) barrier + O(m_p + D) collection + O(n + D) downcast.
        assert!(
            stats.rounds <= 4 * n + m + 20,
            "rounds {} for n={n}, m={m}",
            stats.rounds
        );
    }

    #[test]
    fn all_nodes_agree_on_the_estimate() {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(34);
        let g = generators::connected_gnp(12, 0.4, &mut rng);
        let (alg, _) = run(&g, 0.5, 11);
        let est0 = alg.estimate(0).expect("root informed");
        for v in 1..12 {
            assert_eq!(alg.estimate(v), Some(est0));
        }
    }

    /// `McMsg` width = three tag bits plus the variant's payload, at the
    /// boundaries and on corrupted payloads (a flip of bit `bit % 8`, or
    /// of the side).
    #[test]
    fn message_bits_pins_at_boundaries() {
        let bits = SampledMaxCut::message_bits;
        assert_eq!(bits(&McMsg::Depth(0)), 4);
        assert_eq!(bits(&McMsg::Depth(1)), 4);
        assert_eq!(bits(&McMsg::Depth(256)), 12);
        assert_eq!(bits(&McMsg::Depth(usize::MAX)), 67);
        assert_eq!(bits(&McMsg::Child), 3);
        assert_eq!(bits(&McMsg::UpDone), 3);
        assert_eq!(bits(&McMsg::Edge(0, 1, 0)), 6);
        assert_eq!(bits(&McMsg::Edge(2, 255, -1)), 14);
        assert_eq!(bits(&McMsg::Edge(usize::MAX, 0, Weight::MIN)), 132);
        assert_eq!(bits(&McMsg::Assign(0, true)), 5);
        assert_eq!(bits(&McMsg::Assign(256, false)), 13);
        assert_eq!(bits(&McMsg::Assign(usize::MAX, true)), 68);
        assert_eq!(bits(&McMsg::CutValue(0)), 4);
        assert_eq!(bits(&McMsg::CutValue(-2)), 5);
        assert_eq!(bits(&McMsg::CutValue(Weight::MIN)), 67);

        let corrupt = SampledMaxCut::corrupt;
        assert_eq!(corrupt(&McMsg::Depth(255), 7), Some(McMsg::Depth(127)));
        assert_eq!(bits(&McMsg::Depth(127)), 10);
        let edge = corrupt(&McMsg::Edge(usize::MAX, 0, Weight::MIN), 8).expect("weights corrupt");
        assert_eq!(edge, McMsg::Edge(usize::MAX, 0, Weight::MIN + 1));
        assert_eq!(bits(&edge), 131);
        assert_eq!(
            corrupt(&McMsg::Assign(256, false), 5),
            Some(McMsg::Assign(256, true))
        );
        assert_eq!(corrupt(&McMsg::CutValue(0), 2), Some(McMsg::CutValue(4)));
        assert_eq!(corrupt(&McMsg::Child, 0), None);
        assert_eq!(corrupt(&McMsg::UpDone, 0), None);
    }
}
