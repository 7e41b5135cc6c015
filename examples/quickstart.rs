//! Quickstart: define a security view, pose a query on it, and answer the
//! query on the underlying document without materializing the view.
//!
//! Run with: `cargo run --release -p smoqe-examples --bin quickstart`

use smoqe::{EvaluationMode, SmoqeEngine};
use smoqe_examples::{section, timed};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_views::materialize;
use smoqe_xpath::{evaluate, parse_path};

fn main() {
    // 1. The underlying (confidential) hospital document.
    let doc = generate_hospital(&HospitalConfig {
        patients: 200,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        ..Default::default()
    });
    section("Document");
    println!("hospital document: {} element nodes, depth {}", doc.len(), doc.max_depth());

    // 2. The research-institute security view σ₀ of the paper's Fig. 1:
    //    only heart-disease patients, their ancestor hierarchy and their
    //    diagnoses are visible; names, addresses, doctors, tests and
    //    siblings are hidden.
    let engine = SmoqeEngine::hospital_demo();
    section("View definition σ₀");
    for ((parent, child), query) in engine.view().annotations() {
        println!("  σ({parent}, {child}) = {query}");
    }

    // 3. A query posed on the *view*: patients whose ancestors also had
    //    heart disease (Example 1.1 of the paper).
    let query = "patient[*//record/diagnosis/text()='heart disease']";
    section("Query on the view");
    println!("  Q = {query}");

    // 4. Answer it by rewriting + single-pass evaluation (no materialization).
    let (result, ms) = timed(|| {
        engine
            .answer(query, &doc, EvaluationMode::OptHyPE)
            .expect("query answers on the view")
    });
    section("Answer via rewriting (SMOQE)");
    println!(
        "  {} patients selected in {:.2} ms, visiting {}/{} nodes ({:.1}% pruned)",
        result.answers.len(),
        ms,
        result.stats.nodes_visited,
        result.stats.nodes_total,
        100.0 * result.stats.pruned_fraction()
    );

    // 5. Cross-check against materialize-then-evaluate (what SMOQE avoids).
    let (expected, ms_mat) = timed(|| {
        let view = materialize(engine.view(), &doc).expect("materialization");
        let q = parse_path(query).unwrap();
        let on_view = evaluate(&view.tree, view.tree.root(), &q);
        view.origins_of(&on_view)
    });
    section("Answer via materialization (baseline)");
    println!("  {} patients selected in {:.2} ms", expected.len(), ms_mat);

    assert_eq!(result.answers, expected, "the two methods must agree");
    println!();
    println!("Both methods agree; rewriting avoided materializing the view entirely.");
}
