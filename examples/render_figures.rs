//! Regenerates the paper's figures as Graphviz DOT files in `figures/`.
//!
//! * `figure1_mds.dot` — the MDS family (rows + bit gadgets, Theorem 2.1),
//!   with a witness dominating set highlighted;
//! * `figure2_hamiltonian.dot` — the directed Hamiltonian boxes;
//! * `figure3_maxcut.dot` — the weighted max-cut construction;
//! * `figure5_kmds.dot` — the 2-MDS covering gadget;
//! * `figure7_restricted_mds.dot` — the shared-element MDS gadget.
//!
//! Render with e.g. `dot -Tpdf figures/figure1_mds.dot -o figure1.pdf`.
//!
//! Run with: `cargo run --release --example render_figures`

use congest_hardness::codes::CoveringCollection;
use congest_hardness::core::hamiltonian::{HamPathFamily, Side};
use congest_hardness::core::kmds::KmdsFamily;
use congest_hardness::core::maxcut::{CutRow, MaxCutFamily};
use congest_hardness::core::mds::{witness_dominating_set, MdsFamily, RowSet};
use congest_hardness::core::restricted_mds::RestrictedMdsFamily;
use congest_hardness::core::LowerBoundFamily;
use congest_hardness::graph::dot::{to_dot, to_dot_directed, DotStyle};
use congest_hardness::prelude::BitString;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;

fn main() -> std::io::Result<()> {
    fs::create_dir_all("figures")?;

    // --- Figure 1: the MDS family at k = 4 with a witness highlighted ---
    let fam = MdsFamily::new(4);
    let mut x = BitString::zeros(16);
    let mut y = BitString::zeros(16);
    x.set_pair(4, 2, 1, true);
    y.set_pair(4, 2, 1, true);
    let g = fam.build(&x, &y);
    let mut style = DotStyle::named("figure1_mds");
    for (set, tag) in [
        (RowSet::A1, "A1"),
        (RowSet::A2, "A2"),
        (RowSet::B1, "B1"),
        (RowSet::B2, "B2"),
    ] {
        for i in 0..4 {
            style = style
                .group(fam.row(set, i), tag)
                .label(fam.row(set, i), &format!("{}^{}", tag.to_lowercase(), i));
        }
        for h in 0..fam.log_k() {
            style = style
                .group(fam.f(set, h), &format!("gadget_{tag}"))
                .label(fam.f(set, h), &format!("f{h}"))
                .group(fam.t(set, h), &format!("gadget_{tag}"))
                .label(fam.t(set, h), &format!("t{h}"))
                .group(fam.u(set, h), &format!("gadget_{tag}"))
                .label(fam.u(set, h), &format!("u{h}"));
        }
    }
    style.highlighted = witness_dominating_set(&fam, 2, 1);
    fs::write("figures/figure1_mds.dot", to_dot(&g, &style))?;

    // --- Figure 2: the Hamiltonian boxes at k = 2 ---
    let fam = HamPathFamily::new(2);
    let mut x = BitString::zeros(4);
    x.set_pair(2, 0, 1, true);
    let g = fam.build(&x, &x.clone());
    let mut style = DotStyle::named("figure2_hamiltonian");
    style = style
        .label(fam.start(), "start")
        .label(fam.end(), "end")
        .label(fam.s11(), "s11")
        .label(fam.s21(), "s21")
        .label(fam.s12(), "s12")
        .label(fam.s22(), "s22");
    for i in 0..2 {
        style = style
            .label(fam.a1(i), &format!("a1_{i}"))
            .label(fam.a2(i), &format!("a2_{i}"))
            .label(fam.b1(i), &format!("b1_{i}"))
            .label(fam.b2(i), &format!("b2_{i}"));
    }
    for c in 0..fam.num_boxes() {
        let boxname = format!("box_C{c}");
        style = style
            .group(fam.g(c), &boxname)
            .label(fam.g(c), &format!("g{c}"))
            .group(fam.r(c), &boxname)
            .label(fam.r(c), &format!("r{c}"));
        for q in Side::BOTH {
            let qc = match q {
                Side::T => 't',
                Side::F => 'f',
            };
            for d in 0..2 {
                style = style
                    .group(fam.launch(c, q, d), &boxname)
                    .label(fam.launch(c, q, d), &format!("l{qc}{d}"))
                    .group(fam.sigma(c, q, d), &boxname)
                    .label(fam.sigma(c, q, d), &format!("s{qc}{d}"))
                    .group(fam.beta(c, q, d), &boxname)
                    .label(fam.beta(c, q, d), &format!("b{qc}{d}"));
            }
        }
    }
    style.highlighted = fam.witness_path(0, 1);
    fs::write(
        "figures/figure2_hamiltonian.dot",
        to_dot_directed(&g, &style),
    )?;

    // --- Figure 3: the weighted max-cut construction at k = 2 ---
    let fam = MaxCutFamily::new(2);
    let mut x = BitString::zeros(4);
    x.set_pair(2, 1, 0, true);
    let g = fam.build(&x, &x.clone());
    let mut style = DotStyle::named("figure3_maxcut");
    style.show_weights = true;
    for (set, tag) in [
        (CutRow::A1, "A1"),
        (CutRow::A2, "A2"),
        (CutRow::B1, "B1"),
        (CutRow::B2, "B2"),
    ] {
        for j in 0..2 {
            style = style.group(fam.row(set, j), tag);
        }
    }
    style = style
        .label(fam.ca(), "CA")
        .label(fam.ca_bar(), "CA_bar")
        .label(fam.cb(), "CB")
        .label(fam.na(), "NA")
        .label(fam.nb(), "NB");
    let side = fam.witness_side(1, 0);
    style.highlighted = (0..g.num_nodes()).filter(|&v| side[v]).collect();
    fs::write("figures/figure3_maxcut.dot", to_dot(&g, &style))?;

    // --- Figure 5: the 2-MDS covering gadget ---
    let mut rng = StdRng::seed_from_u64(2024);
    let coll = CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
        .expect("covering collection");
    let fam = KmdsFamily::new(coll, 2);
    let hitv = BitString::from_indices(6, &[0]);
    let g = fam.build(&hitv, &hitv);
    let lay = fam.layout();
    let mut style = DotStyle::named("figure5_kmds");
    for j in 0..10 {
        style = style
            .group(lay.a_elem(j), "elements_a")
            .label(lay.a_elem(j), &format!("a{j}"))
            .group(lay.b_elem(j), "elements_b")
            .label(lay.b_elem(j), &format!("b{j}"));
    }
    for i in 0..6 {
        style = style
            .group(lay.set_vertex(i), "sets")
            .label(lay.set_vertex(i), &format!("S{i}"))
            .group(lay.cset_vertex(i), "cosets")
            .label(lay.cset_vertex(i), &format!("S{i}_bar"));
    }
    style = style
        .label(lay.anchor_a(), "a")
        .label(lay.anchor_b(), "b")
        .label(lay.root(), "R");
    style.highlighted = vec![lay.root(), lay.set_vertex(0), lay.cset_vertex(0)];
    fs::write("figures/figure5_kmds.dot", to_dot(&g, &style))?;

    // --- Figure 7: the restricted-MDS shared-element gadget ---
    let coll = {
        let mut rng = StdRng::seed_from_u64(2024);
        CoveringCollection::random_verified(6, 10, 2, 0.25, 20_000, &mut rng)
            .expect("covering collection")
    };
    let fam = RestrictedMdsFamily::new(coll);
    let g = fam.build(&hitv, &hitv);
    let mut style = DotStyle::named("figure7_restricted_mds");
    for j in 0..10 {
        style = style
            .group(fam.element(j), "shared_elements")
            .label(fam.element(j), &format!("{j}"));
    }
    for i in 0..6 {
        style = style
            .label(fam.set_vertex(i), &format!("S{i}"))
            .label(fam.cset_vertex(i), &format!("S{i}_bar"));
    }
    style = style
        .label(fam.anchor_a(), "a")
        .label(fam.anchor_b(), "b")
        .label(fam.root(), "R");
    fs::write("figures/figure7_restricted_mds.dot", to_dot(&g, &style))?;

    for f in [
        "figure1_mds",
        "figure2_hamiltonian",
        "figure3_maxcut",
        "figure5_kmds",
        "figure7_restricted_mds",
    ] {
        println!("wrote figures/{f}.dot");
    }
    Ok(())
}
