//! Section 4: the approximation *gaps* measured on real instances.
//!
//! * Figure 4 (Theorem 4.3): the Reed–Solomon code gadget puts the MaxIS
//!   optimum at exactly `8ℓ+4t` (intersecting) vs ≤ `7ℓ+4t` (disjoint).
//! * Figure 5 (Theorem 4.4): the covering-collection gadget puts the
//!   2-MDS optimum at 2 vs > r — a logarithmic gap.
//!
//! Run with: `cargo run --release --example hardness_of_approximation`

use congest_hardness::codes::CoveringCollection;
use congest_hardness::core::approx_maxis::WeightedMaxIsGapFamily;
use congest_hardness::core::kmds::KmdsFamily;
use congest_hardness::core::LowerBoundFamily;
use congest_hardness::prelude::BitString;
use congest_hardness::solvers::mds::min_weight_k_dominating_set;
use congest_hardness::solvers::mis::max_weight_independent_set;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    println!("== Hardness of approximation: measured gaps ==\n");

    println!("--- MaxIS code gadget (Theorem 4.3, Figure 4) ---");
    println!(
        "{:>3} {:>3} {:>5} {:>6} {:>9} {:>9} {:>8}",
        "k", "ℓ", "q", "n", "YES opt", "NO opt", "ratio"
    );
    for (k, ell) in [(2usize, 2usize), (2, 3), (4, 2)] {
        let fam = WeightedMaxIsGapFamily::new(k, ell);
        let kk = k * k;
        let mut hit = BitString::zeros(kk);
        hit.set_pair(k, 0, 0, true);
        let yes = max_weight_independent_set(&fam.build(&hit, &hit)).weight;
        let no =
            max_weight_independent_set(&fam.build(&BitString::zeros(kk), &BitString::ones(kk)))
                .weight;
        println!(
            "{:>3} {:>3} {:>5} {:>6} {:>9} {:>9} {:>8.4}",
            k,
            ell,
            fam.params().q,
            fam.num_vertices(),
            yes,
            no,
            no as f64 / yes as f64
        );
        assert_eq!(yes, fam.yes_weight());
        assert!(no <= fam.no_weight());
    }
    println!("(the ratio approaches 7/8 from above as ℓ/t grows — the paper's gap)\n");

    println!("--- 2-MDS covering gadget (Theorem 4.4, Figure 5) ---");
    let mut rng = StdRng::seed_from_u64(2024);
    let collection = CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
        .expect("2-covering collection");
    let fam = KmdsFamily::new(collection, 2);
    let t = fam.input_len();
    let hit = BitString::from_indices(t, &[0]);
    let yes = min_weight_k_dominating_set(&fam.build(&hit, &hit), 2).weight;
    let x = BitString::from_indices(t, &[0, 2]);
    let y = BitString::from_indices(t, &[1, 3]);
    let no = min_weight_k_dominating_set(&fam.build(&x, &y), 2).weight;
    println!("{}", fam.name());
    println!("  intersecting inputs: optimum = {yes} (the paper's weight-2 witness)");
    println!(
        "  disjoint inputs:     optimum = {no} > r = {} (the r-covering property at work)",
        fam.layout().collection().r()
    );
    println!(
        "  ⇒ any algorithm distinguishing a factor < {:.1} must solve DISJ",
        no as f64 / yes as f64
    );
}
