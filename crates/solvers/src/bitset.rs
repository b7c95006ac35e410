//! Vertex-set bitmasks shared by the exact solvers.
//!
//! Every bitmask solver runs on [`Words<W>`], `W` 64-bit words fixed at
//! compile time: the MIS/clique, dominating-set, Hamiltonian and
//! cardinality Steiner searches are monomorphized over `W ≤ 4` and reach
//! 256 vertices, and the Held–Karp DP and the brute-force references use
//! one word.

use congest_graph::{DiGraph, Graph};

/// A vertex set packed into exactly `W` 64-bit words, chosen at compile
/// time. The hot solver loops (Hamiltonian backtracking in particular)
/// are monomorphized per word count, so a 42-vertex gadget graph runs on
/// single-`u64` operations instead of paying for the full 256-bit width
/// on every union/intersection in the inner loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Words<const W: usize>(pub [u64; W]);

impl<const W: usize> Default for Words<W> {
    fn default() -> Self {
        Words([0; W])
    }
}

impl<const W: usize> Words<W> {
    /// The empty set.
    pub const EMPTY: Words<W> = Words([0; W]);

    /// The set `{0, …, n-1}`.
    ///
    /// # Panics
    ///
    /// Panics if `n > 64 * W`.
    #[inline]
    pub fn full(n: usize) -> Words<W> {
        assert!(
            n <= 64 * W,
            "Words<{W}> supports at most {} vertices",
            64 * W
        );
        let mut w = [0u64; W];
        for (i, word) in w.iter_mut().enumerate() {
            let lo = i * 64;
            if n >= lo + 64 {
                *word = u64::MAX;
            } else if n > lo {
                *word = (1u64 << (n - lo)) - 1;
            }
        }
        Words(w)
    }

    /// The singleton `{v}`.
    #[inline]
    pub fn bit(v: usize) -> Words<W> {
        let mut w = [0u64; W];
        w[v / 64] = 1u64 << (v % 64);
        Words(w)
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn get(&self, v: usize) -> bool {
        (self.0[v / 64] >> (v % 64)) & 1 == 1
    }

    /// Inserts `v`.
    #[inline]
    pub fn set(&mut self, v: usize) {
        self.0[v / 64] |= 1u64 << (v % 64);
    }

    /// Removes `v`.
    #[inline]
    pub fn clear(&mut self, v: usize) {
        self.0[v / 64] &= !(1u64 << (v % 64));
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }

    /// Set union.
    #[inline]
    pub fn or(&self, o: &Words<W>) -> Words<W> {
        let mut w = self.0;
        for i in 0..W {
            w[i] |= o.0[i];
        }
        Words(w)
    }

    /// Set intersection.
    #[inline]
    pub fn and(&self, o: &Words<W>) -> Words<W> {
        let mut w = self.0;
        for i in 0..W {
            w[i] &= o.0[i];
        }
        Words(w)
    }

    /// Set difference `self ∖ o`.
    #[inline]
    pub fn and_not(&self, o: &Words<W>) -> Words<W> {
        let mut w = self.0;
        for i in 0..W {
            w[i] &= !o.0[i];
        }
        Words(w)
    }

    /// Whether `self ∩ o` is nonempty — without materializing it.
    #[inline]
    pub fn intersects(&self, o: &Words<W>) -> bool {
        for i in 0..W {
            if self.0[i] & o.0[i] != 0 {
                return true;
            }
        }
        false
    }

    /// Whether `self ⊆ o`.
    #[inline]
    pub fn subset_of(&self, o: &Words<W>) -> bool {
        for i in 0..W {
            if self.0[i] & !o.0[i] != 0 {
                return false;
            }
        }
        true
    }

    /// Number of elements.
    #[inline]
    pub fn count(&self) -> u32 {
        self.0.iter().map(|w| w.count_ones()).sum()
    }

    /// The smallest element, or `None` if empty.
    #[inline]
    pub fn first(&self) -> Option<usize> {
        for (i, &w) in self.0.iter().enumerate() {
            if w != 0 {
                return Some(i * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates elements in increasing order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let words = self.0;
        (0..W).flat_map(move |i| {
            let mut w = words[i];
            std::iter::from_fn(move || {
                if w == 0 {
                    None
                } else {
                    let b = w.trailing_zeros() as usize;
                    w &= w - 1;
                    Some(i * 64 + b)
                }
            })
        })
    }
}

/// Adjacency of an undirected graph as [`Words<W>`] masks.
///
/// # Panics
///
/// Panics if the graph has more than `64 * W` vertices.
pub fn adjacency_masks<const W: usize>(g: &Graph) -> Vec<Words<W>> {
    let n = g.num_nodes();
    assert!(
        n <= 64 * W,
        "Words<{W}> supports at most {} vertices",
        64 * W
    );
    let mut adj = vec![Words::<W>::EMPTY; n];
    for (u, v, _) in g.edges() {
        adj[u].set(v);
        adj[v].set(u);
    }
    adj
}

/// Out- and in-adjacency of a digraph as [`Words<W>`] masks.
///
/// # Panics
///
/// Panics if the graph has more than `64 * W` vertices.
pub fn directed_masks<const W: usize>(g: &DiGraph) -> (Vec<Words<W>>, Vec<Words<W>>) {
    let n = g.num_nodes();
    assert!(
        n <= 64 * W,
        "Words<{W}> supports at most {} vertices",
        64 * W
    );
    let mut out = vec![Words::<W>::EMPTY; n];
    let mut inm = vec![Words::<W>::EMPTY; n];
    for (u, v, _) in g.edges() {
        out[u].set(v);
        inm[v].set(u);
    }
    (out, inm)
}

#[cfg(test)]
mod words_tests {
    use super::Words;

    #[test]
    fn generic_ops_match_the_wide_set() {
        let mut s = Words::<1>::EMPTY;
        assert!(s.is_empty());
        s.set(3);
        s.set(42);
        assert!(s.get(42) && !s.get(41));
        assert_eq!(s.count(), 2);
        assert_eq!(s.first(), Some(3));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 42]);
        let f = Words::<1>::full(50);
        assert!(s.subset_of(&f));
        assert!(!f.subset_of(&s));
        assert!(f.intersects(&s));
        assert_eq!(f.and_not(&s).count(), 48);
        assert_eq!(f.and(&s), s);
        assert_eq!(s.or(&Words::bit(7)).count(), 3);

        let mut t = Words::<3>::EMPTY;
        t.set(130);
        t.set(64);
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![64, 130]);
        assert_eq!(t.first(), Some(64));
        assert_eq!(Words::<3>::full(130).count(), 130);
        assert!(!t.intersects(&Words::bit(63)));
        assert!(t.intersects(&Words::bit(64)));
        assert!(!t.is_empty());
        t.clear(64);
        t.clear(130);
        assert!(t.is_empty() && t.first().is_none());
    }
}
