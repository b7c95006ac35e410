//! Property-based tests (proptest) over the workspace's core data
//! structures and invariants.

use congest_hardness::codes::{next_prime, PrimeField, ReedSolomon};
use congest_hardness::comm::{BitString, BooleanFunction, Disjointness};
use congest_hardness::core::mds::MdsFamily;
use congest_hardness::core::LowerBoundFamily;
use congest_hardness::graph::{generators, metrics, Graph};
use congest_hardness::solvers::{matching, maxcut, mds, mis};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_graph(max_n: usize) -> impl Strategy<Value = Graph> {
    (2usize..=max_n, any::<u64>(), 0.05f64..0.6).prop_map(|(n, seed, p)| {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnp(n, p, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Handshake lemma: the degree sum is twice the edge count.
    #[test]
    fn handshake(g in arb_graph(24)) {
        let degsum: usize = (0..g.num_nodes()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degsum, 2 * g.num_edges());
    }

    /// A cut and its complement have the same weight; the empty and full
    /// cuts are zero.
    #[test]
    fn cut_complement_symmetry(g in arb_graph(20), mask in any::<u32>()) {
        let n = g.num_nodes();
        let side: Vec<bool> = (0..n).map(|v| (mask >> (v % 32)) & 1 == 1).collect();
        let flipped: Vec<bool> = side.iter().map(|&b| !b).collect();
        prop_assert_eq!(g.cut_weight(&side), g.cut_weight(&flipped));
        prop_assert_eq!(g.cut_weight(&vec![false; n]), 0);
        prop_assert_eq!(g.cut_weight(&vec![true; n]), 0);
    }

    /// BFS distances satisfy the edge-wise triangle inequality.
    #[test]
    fn bfs_lipschitz(g in arb_graph(20)) {
        let d = g.bfs_distances(0);
        for (u, v, _) in g.edges() {
            if let (Some(du), Some(dv)) = (d[u], d[v]) {
                prop_assert!(du.abs_diff(dv) <= 1);
            }
        }
    }

    /// An induced subgraph never gains edges, and induced-on-everything
    /// is the identity on counts.
    #[test]
    fn induced_subgraph_monotone(g in arb_graph(16), mask in any::<u16>()) {
        let subset: Vec<usize> = (0..g.num_nodes()).filter(|&v| (mask >> v) & 1 == 1).collect();
        let (h, _) = g.induced_subgraph(&subset);
        prop_assert!(h.num_edges() <= g.num_edges());
        let all: Vec<usize> = (0..g.num_nodes()).collect();
        let (full, _) = g.induced_subgraph(&all);
        prop_assert_eq!(full.num_edges(), g.num_edges());
    }

    /// Disjointness is symmetric and monotone under adding 1-bits to one
    /// side (more bits can only create intersections).
    #[test]
    fn disjointness_symmetry_and_monotonicity(
        xm in any::<u16>(), ym in any::<u16>(), extra in 0usize..16
    ) {
        let k = 16;
        let f = Disjointness::new(k);
        let bits = |m: u16| BitString::from_bits(&(0..k).map(|i| (m >> i) & 1 == 1).collect::<Vec<_>>());
        let x = bits(xm);
        let y = bits(ym);
        prop_assert_eq!(f.eval(&x, &y), f.eval(&y, &x));
        let mut y2 = y.clone();
        y2.set(extra, true);
        // TRUE = disjoint; adding a bit can only break disjointness.
        prop_assert!(f.eval(&x, &y2) <= f.eval(&x, &y));
    }

    /// Prime-field axioms at random arguments over assorted primes.
    #[test]
    fn field_axioms(a in 0u64..1000, b in 0u64..1000, c in 0u64..1000, pi in 0usize..5) {
        let p = [5u64, 7, 11, 13, 17][pi];
        let f = PrimeField::new(p);
        let (a, b, c) = (a % p, b % p, c % p);
        prop_assert_eq!(f.add(a, b), f.add(b, a));
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        if a != 0 {
            prop_assert_eq!(f.mul(a, f.inv(a)), 1);
        }
        prop_assert_eq!(f.sub(f.add(a, b), b), a);
    }

    /// Reed–Solomon: any two distinct codewords among the first 16 are at
    /// distance ≥ N - κ + 1.
    #[test]
    fn reed_solomon_distance(len in 3usize..8, dim in 1usize..3, m1 in 0u64..16, m2 in 0u64..16) {
        prop_assume!(dim < len);
        let q = next_prime(len as u64 + 1);
        let code = ReedSolomon::new(len, dim, q);
        let lim = code.num_codewords().min(16);
        prop_assume!(m1 < lim && m2 < lim && m1 != m2);
        let d = ReedSolomon::hamming_distance(&code.codeword(m1), &code.codeword(m2));
        prop_assert!(d >= code.distance());
    }

    /// Solver cross-identities on random graphs:
    /// α + τ = n (Gallai), max-cut ≥ m/2, matching ≤ τ ≤ 2·matching,
    /// γ ≤ τ′ (every maximal... here: γ ≤ n − Δ lower-level sanity).
    #[test]
    fn solver_identities(g in arb_graph(12)) {
        let n = g.num_nodes();
        let alpha = mis::independence_number(&g);
        let tau = mis::min_vertex_cover(&g).vertices.len();
        prop_assert_eq!(alpha + tau, n, "Gallai identity");
        let mm = matching::max_matching(&g).len();
        prop_assert!(mm <= tau && tau <= 2 * mm, "König-ish sandwich: {mm} vs {tau}");
        let mc = maxcut::max_cut(&g).weight;
        prop_assert!(2 * mc >= g.num_edges() as i64);
        if n > 0 {
            let gamma = mds::min_dominating_set_size(&g);
            prop_assert!(gamma <= n);
            prop_assert!(gamma >= 1);
            // Domination is no harder than covering plus isolated vertices.
            let isolated = (0..n).filter(|&v| g.degree(v) == 0).count();
            prop_assert!(gamma <= tau + isolated + usize::from(tau == 0 && isolated < n));
        }
    }

    /// The sparse MIS solver agrees with the clique-based solver on
    /// arbitrary random graphs, not just bounded-degree ones.
    #[test]
    fn sparse_mis_agrees(g in arb_graph(14)) {
        prop_assert_eq!(
            mis::independence_number_sparse(&g),
            mis::independence_number(&g)
        );
    }

    /// Bridges found by the DFS low-link algorithm are exactly the edges
    /// whose removal increases the component count.
    #[test]
    fn bridges_are_cut_edges(g in arb_graph(14)) {
        let (_, base) = g.connected_components();
        let bridges: std::collections::HashSet<_> =
            metrics::bridges(&g).into_iter().collect();
        for (u, v, _) in g.edges() {
            let mut h = g.clone();
            h.remove_edge(u, v);
            let (_, after) = h.connected_components();
            let is_bridge = after > base;
            prop_assert_eq!(
                bridges.contains(&(u.min(v), u.max(v))),
                is_bridge,
                "edge ({}, {})", u, v
            );
        }
    }

    /// The Figure 1 MDS family's predicate matches intersection on
    /// arbitrary random inputs (a randomized re-verification of
    /// Lemma 2.1 beyond the curated suites).
    #[test]
    fn mds_family_lemma_2_1_random(xm in any::<u16>(), ym in any::<u16>()) {
        let fam = MdsFamily::new(4);
        let bits = |m: u16| {
            BitString::from_bits(&(0..16).map(|i| (m >> i) & 1 == 1).collect::<Vec<_>>())
        };
        let x = bits(xm);
        let y = bits(ym);
        let g = fam.build(&x, &y);
        let intersects = (0..16).any(|i| x.get(i) && y.get(i));
        prop_assert_eq!(
            mds::has_dominating_set_of_size(&g, fam.target_size()),
            intersects
        );
    }
}

mod more_properties {
    use congest_hardness::codes::{next_prime, ReedSolomon};
    use congest_hardness::graph::{dot, generators, Graph};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Reed–Solomon codes are linear: the coordinate-wise field sum of
        /// two codewords is again a codeword.
        #[test]
        fn reed_solomon_linearity(m1 in 0u64..7, m2 in 0u64..7) {
            let code = ReedSolomon::new(5, 1, next_prime(6));
            let q = code.field_size();
            let c1 = code.codeword(m1 % q);
            let c2 = code.codeword(m2 % q);
            let sum: Vec<u64> = c1.iter().zip(&c2).map(|(a, b)| (a + b) % q).collect();
            // Dimension 1: codewords are constants' evaluations... the sum
            // of the messages encodes to the coordinate-wise sum.
            let c3 = code.codeword((m1 % q + m2 % q) % q);
            prop_assert_eq!(sum, c3);
        }

        /// DOT export mentions every edge and every node group exactly once.
        #[test]
        fn dot_export_covers_edges(n in 3usize..14, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(n, 0.4, &mut rng);
            let s = dot::to_dot(&g, &dot::DotStyle::default());
            for (u, v, _) in g.edges() {
                let (a, b) = (u.min(v), u.max(v));
                prop_assert!(
                    s.contains(&format!("{a} -- {b}")) || s.contains(&format!("{b} -- {a}")),
                    "missing edge ({u},{v})"
                );
            }
            prop_assert_eq!(s.matches(" -- ").count(), g.num_edges());
        }

        /// Graph power is monotone: G^k ⊆ G^{k+1}, and stabilizes at the
        /// diameter.
        #[test]
        fn graph_power_monotone(n in 3usize..12, seed in any::<u64>()) {
            use congest_hardness::solvers::mds::graph_power;
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(n, 0.3, &mut rng);
            let p1 = graph_power(&g, 1);
            let p2 = graph_power(&g, 2);
            let pn = graph_power(&g, n);
            prop_assert!(p1.num_edges() <= p2.num_edges());
            prop_assert_eq!(p1.num_edges(), g.num_edges());
            // Connected: G^n is complete.
            prop_assert_eq!(pn.num_edges(), n * (n - 1) / 2);
        }

        /// Spanning-tree PLS: completeness on BFS trees of random graphs.
        #[test]
        fn spanning_tree_pls_random(n in 4usize..14, seed in any::<u64>()) {
            use congest_hardness::limits::pls::{
                accepts_everywhere, MarkedGraph, ProofLabelingScheme, SpanningTreeScheme,
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(n, 0.3, &mut rng);
            let dist = g.bfs_distances(0);
            let tree: Vec<(usize, usize)> = (1..n)
                .map(|v| {
                    let d = dist[v].expect("connected");
                    let p = *g
                        .neighbors(v)
                        .iter()
                        .find(|&&u| dist[u] == Some(d - 1))
                        .expect("parent");
                    (v, p)
                })
                .collect();
            let inst = MarkedGraph::new(g, &tree);
            let scheme = SpanningTreeScheme;
            let labels = scheme.prove(&inst).expect("valid spanning tree");
            prop_assert!(accepts_everywhere(&scheme, &inst, &labels));
        }

        /// The MDS branch-and-bound decision variant is monotone in the
        /// size threshold.
        #[test]
        fn mds_decision_monotone(n in 4usize..12, seed in any::<u64>()) {
            use congest_hardness::solvers::mds;
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::gnp(n, 0.35, &mut rng);
            let opt = mds::min_dominating_set_size(&g);
            for size in 0..=n {
                prop_assert_eq!(
                    mds::has_dominating_set_of_size(&g, size),
                    size >= opt,
                    "threshold {}", size
                );
            }
        }
    }

    /// Graph builders never produce self-loops or duplicate edges.
    #[test]
    fn generators_produce_simple_graphs() {
        let mut rng = StdRng::seed_from_u64(5);
        let graphs: Vec<Graph> = vec![
            generators::gnp(15, 0.5, &mut rng),
            generators::connected_gnp(15, 0.2, &mut rng),
            generators::cycle_plus_diameters(12),
            generators::random_bounded_degree(15, 4, 150, &mut rng),
        ];
        for g in graphs {
            let mut seen = std::collections::HashSet::new();
            for (u, v, _) in g.edges() {
                assert_ne!(u, v, "self-loop");
                assert!(seen.insert((u.min(v), u.max(v))), "duplicate edge");
            }
        }
    }
}

mod simulator_properties {
    use congest_hardness::graph::{generators, metrics};
    use congest_hardness::sim::algorithms::LeaderElection;
    use congest_hardness::sim::Simulator;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Leader election elects vertex 0 on every connected graph, in at
        /// most diameter + O(1) rounds, with total bits = Σ per-edge bits.
        #[test]
        fn leader_election_invariants(n in 3usize..20, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_gnp(n, 0.3, &mut rng);
            let d = metrics::diameter(&g).expect("connected");
            let sim = Simulator::new(&g);
            let mut alg = LeaderElection::new(n);
            let stats = sim.run(&mut alg, 10_000);
            for v in 0..n {
                prop_assert_eq!(alg.leader(v), 0);
            }
            prop_assert!(stats.rounds as usize <= d + 4);
            prop_assert_eq!(stats.total_bits, stats.bits_per_edge.values().sum::<u64>());
        }
    }
}

mod flow_and_sampling_properties {
    use congest_hardness::graph::generators;
    use congest_hardness::solvers::approx::sampled_max_cut;
    use congest_hardness::solvers::flow::{max_flow_undirected, min_st_cut};
    use congest_hardness::solvers::maxcut;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Max-flow/min-cut duality on random weighted graphs: the flow
        /// value equals the weight of the returned cut, and no smaller
        /// single-vertex cut exists.
        #[test]
        fn max_flow_min_cut_duality(n in 4usize..14, seed in any::<u64>()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut g = generators::connected_gnp(n, 0.3, &mut rng);
            let edges: Vec<_> = g.edges().collect();
            for (u, v, _) in edges {
                use rand::Rng;
                g.add_weighted_edge(u, v, rng.gen_range(1..7));
            }
            let (s, t) = (0, n - 1);
            let flow = max_flow_undirected(&g, s, t);
            let (cut_value, side) = min_st_cut(&g, s, t);
            prop_assert_eq!(flow, cut_value);
            let crossing: i64 = g
                .edges()
                .filter(|&(u, v, _)| side[u] != side[v])
                .map(|(_, _, w)| w)
                .sum();
            prop_assert_eq!(crossing, flow);
            // Degree cuts upper-bound the flow.
            let deg_s: i64 = g.neighbors(s).iter()
                .map(|&u| g.edge_weight(s, u).expect("edge")).sum();
            prop_assert!(flow <= deg_s);
        }
    }

    /// Lemma 2.5's statistical content: the scaled sampled optimum
    /// `c*_p / p` concentrates around the true optimum.
    #[test]
    fn sampling_estimator_concentrates() {
        let mut rng = StdRng::seed_from_u64(2025);
        let g = generators::connected_gnp(18, 0.4, &mut rng);
        let opt = maxcut::max_cut(&g).weight as f64;
        let trials = 40;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut r = StdRng::seed_from_u64(seed);
            let (_, est) = sampled_max_cut(&g, 0.5, &mut r);
            sum += est;
        }
        let mean = sum / trials as f64;
        // The scaled estimator carries an upward E[max] ≥ max E[·] bias at
        // n = 18, so the tolerance must leave room for bias + sampling
        // noise regardless of the RNG stream behind the fixed seeds.
        assert!((mean - opt).abs() / opt < 0.25, "mean {mean} vs opt {opt}");
    }
}
