//! `r`-covering set collections (Lemma 4.2 of the paper, after \[40\]).
//!
//! A collection `C = {S_1, …, S_T}` of subsets of `U = {0, …, ℓ-1}` has the
//! *`r`-covering property* if any choice of at most `r` sets from
//! `{S_1, …, S_T, S̄_1, …, S̄_T}` that contains no complementary pair
//! `{S_i, S̄_i}` leaves at least one element of `U` uncovered.
//!
//! The paper (and \[40\]) establish existence probabilistically for
//! `T = e^{ℓ/r · 2^{-r}}`; we mirror that: sample random sets and verify the
//! property exhaustively, retrying until success. For the instance sizes in
//! this workspace the verification is exact, so every collection handed to
//! a construction provably has the property.
//!
//! Each set and its complement are stored as `⌈ℓ/64⌉` words each, element
//! `j` in bit `j % 64` of word `j / 64`, so there is no cap on the
//! universe. The exhaustive check ORs these masks down its recursion, one
//! union per depth in one buffer, and a union covers `U` when it holds `ℓ`
//! bits.

use rand::Rng;

/// A verified `r`-covering collection.
///
/// # Examples
///
/// ```
/// use rand::SeedableRng;
/// use congest_codes::CoveringCollection;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let c = CoveringCollection::random_verified(5, 8, 2, 0.25, 5_000, &mut rng)
///     .expect("collection exists at these parameters");
/// assert!(c.verify_r_covering());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoveringCollection {
    /// Signed set `s` is the words `s·w .. (s+1)·w`, with `w = ⌈ℓ/64⌉`:
    /// `S_i` is signed set `2i` and `S̄_i` is `2i + 1`. Bits at or past `ℓ`
    /// are 0.
    masks: Vec<u64>,
    num_sets: usize,
    universe: usize,
    r: usize,
}

impl CoveringCollection {
    /// Wraps explicit sets (membership vectors over `universe`) with
    /// covering parameter `r`, without verification.
    ///
    /// # Panics
    ///
    /// Panics if any membership vector has the wrong length.
    pub fn from_sets(sets: Vec<Vec<bool>>, universe: usize, r: usize) -> Self {
        for s in &sets {
            assert_eq!(s.len(), universe, "membership vector length mismatch");
        }
        Self::from_membership(sets.len(), universe, r, |i, j| sets[i][j])
    }

    /// Samples random collections (each element in each set independently
    /// with probability `density`) until one satisfies the `r`-covering
    /// property, up to `max_tries` attempts.
    pub fn random_verified<R: Rng>(
        t: usize,
        universe: usize,
        r: usize,
        density: f64,
        max_tries: usize,
        rng: &mut R,
    ) -> Option<Self> {
        (0..max_tries)
            .map(|_| Self::from_membership(t, universe, r, |_, _| rng.gen_bool(density)))
            .find(Self::verify_r_covering)
    }

    /// Builds the masks of `t` sets and their complements, asking
    /// `member(i, j)` set by set, element by element.
    fn from_membership(
        t: usize,
        universe: usize,
        r: usize,
        mut member: impl FnMut(usize, usize) -> bool,
    ) -> Self {
        let w = universe.div_ceil(64);
        let mut masks = vec![0; 2 * t * w];
        for i in 0..t {
            let (set, complement) = masks[2 * i * w..][..2 * w].split_at_mut(w);
            for j in 0..universe {
                let side = if member(i, j) {
                    &mut *set
                } else {
                    &mut *complement
                };
                side[j / 64] |= 1 << (j % 64);
            }
        }
        CoveringCollection {
            masks,
            num_sets: t,
            universe,
            r,
        }
    }

    /// Number of sets `T`.
    pub fn num_sets(&self) -> usize {
        self.num_sets
    }

    /// Universe size `ℓ`.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The covering parameter `r`.
    pub fn r(&self) -> usize {
        self.r
    }

    /// Whether element `j` belongs to `S_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        assert!(j < self.universe, "element {j} outside the universe");
        self.masks[2 * i * self.words() + j / 64] >> (j % 64) & 1 == 1
    }

    /// Whether element `j` belongs to the complement `S̄_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn complement_contains(&self, i: usize, j: usize) -> bool {
        !self.contains(i, j)
    }

    /// Words per set mask, `⌈ℓ/64⌉`.
    fn words(&self) -> usize {
        self.universe.div_ceil(64)
    }

    /// Exhaustively verifies the `r`-covering property.
    ///
    /// Enumerates every selection of at most `r` signed sets with no
    /// complementary pair and checks that its union misses some element.
    /// Exponential in `r` (fine: the paper uses `r = c·log ℓ`).
    pub fn verify_r_covering(&self) -> bool {
        // A selection holds at most one signed set per index.
        let depths = self.r.min(self.num_sets) + 1;
        let mut unions = vec![0; depths * self.words()];
        self.leaves_gap(0, 0, &mut unions)
    }

    /// Whether the selection whose union is `unions[depth·w ..]` misses an
    /// element, and so does every extension of it by at most `r − depth`
    /// signed sets of `S_start, S̄_start, …` with no complementary pair.
    ///
    /// Supersets of a covering selection also cover, so checking every
    /// partial selection up to size `r` is equivalent to checking every
    /// selection of exactly `r` where possible, and strictly stronger
    /// where `T < r`.
    fn leaves_gap(&self, start: usize, depth: usize, unions: &mut [u64]) -> bool {
        let w = self.words();
        let covered: u32 = unions[depth * w..][..w]
            .iter()
            .map(|u| u.count_ones())
            .sum();
        if covered as usize == self.universe {
            return false;
        }
        if depth == self.r {
            return true;
        }
        for s in 2 * start..2 * self.num_sets {
            let (done, next) = unions.split_at_mut((depth + 1) * w);
            let signed = &self.masks[s * w..][..w];
            for ((u, &prev), &m) in next[..w].iter_mut().zip(&done[depth * w..]).zip(signed) {
                *u = prev | m;
            }
            if !self.leaves_gap(s / 2 + 1, depth + 1, unions) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// The reference check: the same enumeration over one membership
    /// vector per selection, marking and unmarking what each choice adds.
    fn reference_r_covering(c: &CoveringCollection) -> bool {
        fn rec(c: &CoveringCollection, start: usize, left: usize, covered: &mut [bool]) -> bool {
            if covered.iter().all(|&b| b) {
                return false;
            }
            if left == 0 || start == c.num_sets() {
                return true;
            }
            for i in start..c.num_sets() {
                for sign in [true, false] {
                    let mut newly = Vec::new();
                    for j in 0..c.universe() {
                        if c.contains(i, j) == sign && !covered[j] {
                            covered[j] = true;
                            newly.push(j);
                        }
                    }
                    let ok = rec(c, i + 1, left - 1, covered);
                    for j in newly {
                        covered[j] = false;
                    }
                    if !ok {
                        return false;
                    }
                }
            }
            true
        }
        rec(c, 0, c.r(), &mut vec![false; c.universe()])
    }

    #[test]
    fn mask_check_matches_the_reference() {
        let mut rng = StdRng::seed_from_u64(4_2024);
        let mut verdicts = [0usize; 2];
        for universe in [0, 1, 5, 10, 63, 64, 65, 130] {
            for t in 0..=7 {
                for r in 0..=3 {
                    for density in [0.1, 0.25, 0.5, 0.75, 0.95] {
                        let sets = (0..t)
                            .map(|_| (0..universe).map(|_| rng.gen_bool(density)).collect())
                            .collect();
                        let c = CoveringCollection::from_sets(sets, universe, r);
                        let verdict = c.verify_r_covering();
                        assert_eq!(
                            verdict,
                            reference_r_covering(&c),
                            "t = {t}, ℓ = {universe}, r = {r}, density {density}: {c:?}"
                        );
                        if universe == 0 {
                            assert!(!verdict, "the empty universe is always covered");
                        }
                        verdicts[verdict as usize] += 1;
                    }
                }
            }
        }
        // Both verdicts occur often, so neither side is checked vacuously.
        assert!(verdicts.iter().all(|&v| v > 200), "{verdicts:?}");
    }

    #[test]
    fn random_draws_go_set_by_set_element_by_element() {
        // r = 0 accepts the first draw; 70 elements span two words.
        let (t, universe) = (4, 70);
        let mut rng = StdRng::seed_from_u64(9);
        let mut replay = rng.clone();
        let c = CoveringCollection::random_verified(t, universe, 0, 0.5, 1, &mut rng)
            .expect("r = 0 holds on a nonempty universe");
        for i in 0..t {
            for j in 0..universe {
                assert_eq!(c.contains(i, j), replay.gen_bool(0.5), "S_{i} ∋ {j}");
            }
        }
        assert_eq!(rng.next_u64(), replay.next_u64());
    }

    #[test]
    #[should_panic(expected = "outside the universe")]
    fn membership_past_the_universe_panics() {
        CoveringCollection::from_sets(vec![vec![true; 3]], 3, 1).contains(0, 3);
    }

    #[test]
    fn hand_built_positive_example() {
        // Universe {0,1,2,3}; singletons {0} and {1}. Any 2 sets drawn
        // from them / their complements without complementary pairs:
        // worst case is the two complements {1,2,3} ∪ {0,2,3} = U? That
        // covers everything -> property FAILS for r=2. Use r=1 instead:
        // every single set / complement misses an element.
        let sets = vec![
            vec![true, false, false, false],
            vec![false, true, false, false],
        ];
        let c = CoveringCollection::from_sets(sets, 4, 1);
        assert!(c.verify_r_covering());
    }

    #[test]
    fn hand_built_negative_example() {
        // {0,1} and {2,3} in universe {0,1,2,3}: taking both covers U, so
        // the 2-covering property fails.
        let sets = vec![
            vec![true, true, false, false],
            vec![false, false, true, true],
        ];
        let c = CoveringCollection::from_sets(sets, 4, 2);
        assert!(!c.verify_r_covering());
    }

    #[test]
    fn complement_pair_is_exempt() {
        // A single set: {S, S̄} would cover U but is an excluded pair, so
        // with r = 2 the property must consider only size-1 unions.
        let sets = vec![vec![true, true, false, false]];
        let c = CoveringCollection::from_sets(sets, 4, 2);
        assert!(c.verify_r_covering());
    }

    #[test]
    fn random_collection_exists_at_lemma_parameters() {
        // ℓ = 10, r = 2, density tuned so pairwise unions stay small but
        // sets are not so sparse that the search space dries up.
        let mut rng = StdRng::seed_from_u64(2024);
        let c = CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
            .expect("should find a 2-covering collection");
        assert_eq!(c.num_sets(), 6);
        assert!(c.verify_r_covering());
    }

    #[test]
    fn membership_accessors() {
        let sets = vec![vec![true, false]];
        let c = CoveringCollection::from_sets(sets, 2, 1);
        assert!(c.contains(0, 0));
        assert!(!c.contains(0, 1));
        assert!(c.complement_contains(0, 1));
    }
}
