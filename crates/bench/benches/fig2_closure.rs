//! Figure 2 / Corollary 3.3 — the closure-and-complexity table.
//!
//! A report target (`harness = false`) that regenerates the quantitative
//! content behind the paper's Fig. 2 table and Corollary 3.3:
//!
//! * on the Ehrenfeucht–Zeiger complete-graph view family, the size of the
//!   explicit `Xreg` rewriting of `//v_{n-1}` explodes with the number of
//!   view types `n`, while the MFA produced by algorithm `rewrite` grows
//!   polynomially (and both are produced in polynomial time);
//! * on the recursive hospital view σ₀, every query of the corpus is
//!   rewritable into an equivalent MFA (`Xreg` closed under rewriting), and
//!   the MFA size respects the `O(|Q|·|σ|·|DV|)` bound of Theorem 5.1.
//!
//! Run with: `cargo bench -p smoqe-bench --bench fig2_closure`

use std::time::Instant;

use smoqe_rewrite::{rewrite_to_mfa, rewrite_to_xreg};
use smoqe_views::{hospital_view, ViewDefinition};
use smoqe_xml::{Child, ContentModel, Dtd};
use smoqe_xpath::parse_path;

/// The complete-graph view family (see `tests/closure_and_complexity.rs`).
fn complete_graph_view(n: usize) -> ViewDefinition {
    let mut doc = Dtd::new("node");
    let mut node_children = Vec::new();
    for i in 0..n {
        for j in 0..n {
            node_children.push(Child::star(&format!("e{i}_{j}")));
        }
    }
    doc.define("node", ContentModel::Sequence(node_children));
    for i in 0..n {
        for j in 0..n {
            doc.define(
                &format!("e{i}_{j}"),
                ContentModel::Sequence(vec![Child::star("node")]),
            );
        }
    }
    let mut view = Dtd::new("v0");
    for i in 0..n {
        let children = (0..n).map(|j| Child::star(&format!("v{j}"))).collect();
        view.define(&format!("v{i}"), ContentModel::Sequence(children));
    }
    let mut def = ViewDefinition::new(doc, view);
    for i in 0..n {
        for j in 0..n {
            def.annotate_str(
                &format!("v{i}"),
                &format!("v{j}"),
                &format!("e{i}_{j}/node"),
            )
            .unwrap();
        }
    }
    def.check().unwrap();
    def
}

fn main() {
    println!("# Corollary 3.3 vs Theorem 5.1: explicit Xreg rewriting vs MFA rewriting");
    println!(
        "{:>4} {:>10} {:>18} {:>14} {:>18} {:>14}",
        "n", "|DV| size", "explicit |Q'| size", "explicit ms", "MFA |M| size", "MFA ms"
    );
    for n in 2..=6usize {
        let view = complete_graph_view(n);
        let q = parse_path(&format!("//v{}", n - 1)).unwrap();

        let start = Instant::now();
        let direct = rewrite_to_xreg(&q, &view).unwrap();
        let direct_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mfa = rewrite_to_mfa(&q, &view).unwrap();
        let mfa_ms = start.elapsed().as_secs_f64() * 1e3;

        println!(
            "{:>4} {:>10} {:>18} {:>14.2} {:>18} {:>14.2}",
            n,
            view.view_dtd().size(),
            direct.size,
            direct_ms,
            mfa.size(),
            mfa_ms
        );
    }

    println!();
    println!(
        "# Theorem 5.1 on the recursive hospital view σ₀ (MFA size vs the |Q|·|σ|·|DV| bound)"
    );
    let view = hospital_view();
    let sigma = view.size();
    let dv = view.view_dtd().size();
    println!(
        "{:>60} {:>6} {:>12} {:>16}",
        "query on the view", "|Q|", "MFA size", "|Q|·|σ|·|DV|"
    );
    for query_text in [
        "patient",
        "patient/record/diagnosis",
        "(patient/parent)*/patient[record]",
        "patient[*//record/diagnosis/text()='heart disease']",
        "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
    ] {
        let q = parse_path(query_text).unwrap();
        let expanded = smoqe_xpath::expand_on_dtd(&q, view.view_dtd());
        let mfa = rewrite_to_mfa(&q, &view).unwrap();
        println!(
            "{:>60} {:>6} {:>12} {:>16}",
            query_text,
            q.size(),
            mfa.size(),
            expanded.size() * sigma * dv
        );
    }
}
