//! Exact deterministic communication complexity for tiny input lengths.
//!
//! The paper *cites* `CC(DISJ_K) = Ω(K)`; this module lets the test-suite
//! and benches *compute* the exact deterministic complexity for small `K`
//! by brute-force search over protocol trees, so that the constants feeding
//! Theorem 1.1 are measured rather than assumed.
//!
//! A deterministic protocol is a binary tree: at each internal node one
//! player sends one bit, splitting that player's current input set in two;
//! a leaf must be *monochromatic* (the function is constant on the
//! remaining combinatorial rectangle). The deterministic communication
//! complexity is the minimum depth of such a tree.
//!
//! The search is exponential in `2^K`. It keeps the truth table as one
//! column mask per row and memoizes every rectangle `rows × cols` in a
//! flat byte table of `2^(2·2^K)` cells (64 KiB at `K = 3`). It is
//! guarded to `K ≤ 3`: at `K = 4` there are `2^32` rectangles, so neither
//! the table nor the search would finish.

use crate::{BitString, BooleanFunction};

/// Work counters for one protocol-tree search (what "doubly exponential"
/// means concretely on a given instance).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcSearchStats {
    /// Combinatorial rectangles on which the protocol-tree recursion did
    /// real work (memo misses).
    pub rects_explored: u64,
    /// Rectangles answered from the memo table.
    pub memo_hits: u64,
    /// Rectangles found monochromatic (protocol-tree leaves).
    pub mono_leaves: u64,
    /// Candidate splits (speaker + subset choices) evaluated.
    pub splits_tried: u64,
}

impl CcSearchStats {
    /// This search as a `congest-obs` record on the given target, event
    /// `cc_search`.
    pub fn to_record(&self, target: &'static str) -> congest_obs::Record {
        congest_obs::Record::new(target, "cc_search")
            .with("rects_explored", self.rects_explored)
            .with("memo_hits", self.memo_hits)
            .with("mono_leaves", self.mono_leaves)
            .with("splits_tried", self.splits_tried)
    }
}

/// Computes the exact deterministic communication complexity of `f` by
/// exhaustive protocol-tree search.
///
/// # Panics
///
/// Panics if `f.input_len() > 3`: at `K = 4` the search would have to
/// memoize `2^32` rectangles.
pub fn deterministic_cc<F: BooleanFunction>(f: &F) -> u32 {
    deterministic_cc_with_stats(f).0
}

/// Like [`deterministic_cc`], but also reports how much work the search
/// did ([`CcSearchStats`]).
///
/// # Panics
///
/// Panics if `f.input_len() > 3`: at `K = 4` the search would have to
/// memoize `2^32` rectangles.
pub fn deterministic_cc_with_stats<F: BooleanFunction>(f: &F) -> (u32, CcSearchStats) {
    let k = f.input_len();
    assert!(k <= 3, "exact CC search is limited to K <= 3");
    let n = 1u32 << k;
    let inputs = BitString::enumerate_all(k);
    // Truth table: bit y of ones[x] is f(x, y).
    let ones = inputs
        .iter()
        .map(|x| {
            (0u32..)
                .zip(&inputs)
                .filter(|(_, y)| f.eval(x, y))
                .fold(0, |mask, (i, _)| mask | 1 << i)
        })
        .collect();
    let mut search = Search {
        ones,
        n,
        memo: vec![UNKNOWN; 1 << (2 * n)],
        stats: CcSearchStats::default(),
    };
    let full = (1u32 << n) - 1;
    let cc = search.rect(full, full);
    (u32::from(cc), search.stats)
}

/// A memo cell not yet computed. Real depths are at most `2·(2^K − 1)`.
const UNKNOWN: u8 = u8::MAX;

/// One protocol-tree search over the rectangles of a `2^K × 2^K` table.
struct Search {
    /// Row `x`'s `1`-columns as a mask.
    ones: Vec<u32>,
    /// `2^K`: the width of a row or column mask.
    n: u32,
    /// The depth of rectangle `rows × cols` at index `rows << n | cols`.
    memo: Vec<u8>,
    stats: CcSearchStats,
}

impl Search {
    /// Minimum protocol depth on the rectangle `rows × cols` (bitmask-encoded).
    fn rect(&mut self, rows: u32, cols: u32) -> u8 {
        if rows == 0 || cols == 0 {
            return 0;
        }
        let cell = ((rows << self.n) | cols) as usize;
        if self.memo[cell] != UNKNOWN {
            self.stats.memo_hits += 1;
            return self.memo[cell];
        }
        self.stats.rects_explored += 1;
        let best = if self.is_monochromatic(rows, cols) {
            self.stats.mono_leaves += 1;
            0
        } else {
            // Alice speaks: she partitions her live inputs into
            // (sub, rows \ sub); then Bob speaks.
            let alice = self.best_split(rows, cols, true);
            alice.min(self.best_split(rows, cols, false))
        };
        self.memo[cell] = best;
        best
    }

    fn best_split(&mut self, rows: u32, cols: u32, alice: bool) -> u8 {
        let set = if alice { rows } else { cols };
        // Enumerate proper non-empty subsets of `set`. Fix the lowest live
        // element to one side to halve the symmetric search.
        let lowest = set & set.wrapping_neg();
        let rest = set & !lowest;
        let mut best = UNKNOWN;
        // Iterate over subsets of `rest`; sub = lowest | subset-of-rest.
        let mut sub_rest = rest;
        loop {
            let sub = lowest | sub_rest;
            if sub != set {
                // Proper split.
                self.stats.splits_tried += 1;
                let other = set & !sub;
                let (r1, c1, r2, c2) = if alice {
                    (sub, cols, other, cols)
                } else {
                    (rows, sub, rows, other)
                };
                let d = 1 + self.rect(r1, c1).max(self.rect(r2, c2));
                best = best.min(d);
            }
            if sub_rest == 0 {
                break;
            }
            sub_rest = (sub_rest - 1) & rest;
        }
        best
    }

    /// Whether `f` is constant on `rows × cols`: every live row's `1`-columns
    /// within `cols` are all of `cols` or none of it, the same on each row.
    fn is_monochromatic(&self, rows: u32, cols: u32) -> bool {
        let first = self.ones[rows.trailing_zeros() as usize] & cols;
        if first != 0 && first != cols {
            return false;
        }
        let mut live = rows;
        while live != 0 {
            if self.ones[live.trailing_zeros() as usize] & cols != first {
                return false;
            }
            live &= live - 1;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Disjointness, Equality};

    /// A constant function has zero communication complexity.
    #[derive(Debug)]
    struct ConstTrue(usize);
    impl BooleanFunction for ConstTrue {
        fn input_len(&self) -> usize {
            self.0
        }
        fn eval(&self, _: &BitString, _: &BitString) -> bool {
            true
        }
        fn name(&self) -> String {
            "TRUE".into()
        }
    }

    #[test]
    fn constant_function_is_free() {
        assert_eq!(deterministic_cc(&ConstTrue(2)), 0);
    }

    #[test]
    fn search_stats_count_the_work() {
        let (cc, stats) = deterministic_cc_with_stats(&Disjointness::new(2));
        assert_eq!(cc, 3);
        // The root rectangle alone is a memo miss with splits.
        assert!(stats.rects_explored >= 1);
        assert!(stats.splits_tried >= 1);
        assert!(stats.mono_leaves >= 1, "some leaf must be monochromatic");
        // A constant function is one monochromatic rectangle, no splits.
        let (cc0, stats0) = deterministic_cc_with_stats(&ConstTrue(2));
        assert_eq!(cc0, 0);
        assert_eq!(
            stats0,
            CcSearchStats {
                rects_explored: 1,
                memo_hits: 0,
                mono_leaves: 1,
                splits_tried: 0,
            }
        );
        let rec = stats.to_record("comm.exact");
        assert_eq!(rec.event, "cc_search");
        assert_eq!(rec.u64_field("rects_explored"), Some(stats.rects_explored));
    }

    #[test]
    fn disjointness_exact_cc_is_k_plus_one() {
        // The classic exact value CC(DISJ_K) = K + 1 (fooling-set lower
        // bound K, trivial protocol K + 1), measured here.
        assert_eq!(deterministic_cc(&Disjointness::new(1)), 2);
        assert_eq!(deterministic_cc(&Disjointness::new(2)), 3);
        assert_eq!(deterministic_cc(&Disjointness::new(3)), 4);
    }

    fn counters<F: BooleanFunction>(f: &F) -> [u64; 4] {
        let (_, s) = deterministic_cc_with_stats(f);
        [s.rects_explored, s.memo_hits, s.mono_leaves, s.splits_tried]
    }

    /// `[rects_explored, memo_hits, mono_leaves, splits_tried]`, as read
    /// from a hash-map-memo search with the same recursion order: the
    /// table memo must keep every counter, not just the answer.
    #[test]
    fn search_counters_are_pinned() {
        assert_eq!(counters(&Disjointness::new(1)), [8, 1, 5, 4]);
        assert_eq!(counters(&Disjointness::new(2)), [224, 1121, 57, 672]);
        assert_eq!(
            counters(&Disjointness::new(3)),
            [65024, 2991041, 2061, 1528032]
        );
        assert_eq!(counters(&Equality::new(1)), [9, 4, 4, 6]);
        assert_eq!(counters(&Equality::new(2)), [225, 1156, 54, 690]);
    }

    #[test]
    #[should_panic(expected = "K <= 3")]
    fn search_refuses_k_4() {
        deterministic_cc(&Disjointness::new(4));
    }

    #[test]
    fn equality_exact_cc_is_k_plus_one() {
        assert_eq!(deterministic_cc(&Equality::new(1)), 2);
        assert_eq!(deterministic_cc(&Equality::new(2)), 3);
    }

    /// A function that only depends on Alice's first bit needs exactly one
    /// bit of communication... plus the bit announcing the answer is not
    /// required under the monochromatic-leaf definition.
    #[derive(Debug)]
    struct AliceFirstBit(usize);
    impl BooleanFunction for AliceFirstBit {
        fn input_len(&self) -> usize {
            self.0
        }
        fn eval(&self, x: &BitString, _: &BitString) -> bool {
            x.get(0)
        }
        fn name(&self) -> String {
            "X0".into()
        }
    }

    #[test]
    fn one_sided_function_needs_one_bit() {
        assert_eq!(deterministic_cc(&AliceFirstBit(2)), 1);
    }
}

/// A *fooling set* certificate for a communication lower bound: a set `F`
/// of input pairs such that `f` is constant (say TRUE) on `F`, but for any
/// two distinct pairs `(x, y), (x', y') ∈ F`, at least one of the crossed
/// pairs `(x, y')`, `(x', y)` evaluates differently. A valid fooling set
/// of size `|F|` proves `CC(f) ≥ log₂ |F|` — this is how the `Ω(K)` bound
/// for disjointness is actually established.
///
/// Returns the implied lower bound `⌈log₂ |F|⌉` if the set is a valid
/// fooling set, and `None` otherwise.
pub fn fooling_set_bound<F: BooleanFunction>(f: &F, set: &[(BitString, BitString)]) -> Option<u32> {
    if set.is_empty() {
        return None;
    }
    let value = f.eval(&set[0].0, &set[0].1);
    if set.iter().any(|(x, y)| f.eval(x, y) != value) {
        return None;
    }
    for (i, (x1, y1)) in set.iter().enumerate() {
        for (x2, y2) in &set[i + 1..] {
            if f.eval(x1, y2) == value && f.eval(x2, y1) == value {
                return None;
            }
        }
    }
    // ⌈log₂ |F|⌉ (0 for a singleton — a one-pair set proves nothing).
    Some(usize::BITS - (set.len() - 1).leading_zeros())
}

/// The canonical fooling set for `DISJ_K`: all pairs `(S, S̄)` of a set
/// and its complement (`2^K` pairs, each disjoint; crossing two distinct
/// pairs always intersects on one side). Proves `CC(DISJ_K) ≥ K`.
///
/// # Panics
///
/// Panics if `k > 12` (the set has `2^k` elements).
pub fn disjointness_fooling_set(k: usize) -> Vec<(BitString, BitString)> {
    assert!(k <= 12, "fooling set has 2^k elements");
    BitString::enumerate_all(k)
        .into_iter()
        .map(|x| {
            let compl = BitString::from_bits(&(0..k).map(|i| !x.get(i)).collect::<Vec<_>>());
            (x, compl)
        })
        .collect()
}

#[cfg(test)]
mod fooling_tests {
    use super::*;
    use crate::Disjointness;

    #[test]
    fn canonical_disjointness_fooling_set_proves_k() {
        for k in [2usize, 4, 6, 8] {
            let f = Disjointness::new(k);
            let set = disjointness_fooling_set(k);
            assert_eq!(set.len(), 1 << k);
            let bound = fooling_set_bound(&f, &set).expect("valid fooling set");
            assert_eq!(bound, k as u32, "CC(DISJ_{k}) >= {k} measured");
        }
    }

    #[test]
    fn invalid_sets_are_rejected() {
        let f = Disjointness::new(3);
        // Mixed values.
        let x1 = BitString::from_indices(3, &[0]);
        let bad = vec![
            (x1.clone(), x1.clone()),                   // intersecting (FALSE)
            (BitString::zeros(3), BitString::zeros(3)), // disjoint (TRUE)
        ];
        assert_eq!(fooling_set_bound(&f, &bad), None);
        // Not fooling: two pairs whose crossings stay TRUE.
        let not_fooling = vec![
            (BitString::zeros(3), BitString::zeros(3)),
            (BitString::from_indices(3, &[0]), BitString::zeros(3)),
        ];
        assert_eq!(fooling_set_bound(&f, &not_fooling), None);
        assert_eq!(fooling_set_bound(&f, &[]), None);
    }

    #[test]
    fn fooling_bound_is_consistent_with_exact_cc() {
        // log |F| = K <= exact CC = K + 1.
        for k in 1..=3usize {
            let f = Disjointness::new(k);
            let bound = fooling_set_bound(&f, &disjointness_fooling_set(k)).expect("valid");
            assert!(bound <= deterministic_cc(&f));
        }
    }
}
