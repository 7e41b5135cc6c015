//! Why rewrite instead of materializing? This example quantifies the
//! trade-off the paper's introduction motivates: with many user groups
//! (each with its own view), materializing and maintaining every view is
//! costly, while rewriting answers queries directly on the single source.
//!
//! It also prints the pruning statistics corresponding to the paper's
//! Section 7 observation that HyPE prunes ~78% and OptHyPE ~88% of the
//! element nodes on the example queries.
//!
//! Run with: `cargo run --release -p smoqe-examples --bin materialize_vs_rewrite`

use smoqe::{EvaluationMode, SmoqeEngine};
use smoqe_examples::{human_bytes, section, timed};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_views::materialize;
use smoqe_xpath::{evaluate, parse_path};

fn main() {
    let doc = generate_hospital(&HospitalConfig {
        patients: 5_000,
        heart_disease_fraction: 0.2,
        max_ancestor_depth: 2,
        sibling_probability: 0.4,
        ..Default::default()
    });
    let engine = SmoqeEngine::hospital_demo();

    section("Source document");
    println!(
        "  {} element nodes (≈{})",
        doc.len(),
        human_bytes(doc.approximate_byte_size())
    );

    section("Cost of materializing the view");
    let (view, ms_mat) = timed(|| materialize(engine.view(), &doc).expect("materialization"));
    println!(
        "  materialized view: {} nodes (≈{}) in {:.1} ms — and it must be re-done on every update,\n  for every user group with a different view",
        view.tree.len(),
        human_bytes(view.tree.approximate_byte_size()),
        ms_mat
    );

    let queries = [
        "patient",
        "patient[*//record/diagnosis/text()='heart disease']",
        "(patient/parent)*/patient[record/diagnosis/text()='heart disease']",
        "patient/record/diagnosis",
        "patient[not(parent)]/record/empty",
        "patient/parent/patient[record]",
    ];

    section("Per-query comparison (virtual view vs materialized view)");
    println!(
        "  {:<62} {:>9} {:>11} {:>11} {:>8} {:>8}",
        "query", "answers", "rewrite ms", "matview ms", "HyPE%", "Opt%"
    );
    let mut hype_pruned = Vec::new();
    let mut opt_pruned = Vec::new();
    for query in queries {
        // Rewriting pipeline on the virtual view.
        let (hype, _) = timed(|| {
            engine
                .answer(query, &doc, EvaluationMode::HyPE)
                .expect("valid query")
        });
        let (opt, ms_rewrite) = timed(|| {
            engine
                .answer(query, &doc, EvaluationMode::OptHyPE)
                .expect("valid query")
        });
        // Evaluation on the (already paid-for) materialized view.
        let q = parse_path(query).unwrap();
        let (on_view, ms_view) = timed(|| evaluate(&view.tree, view.tree.root(), &q));
        let expected = view.origins_of(&on_view);
        assert_eq!(opt.answers, expected, "rewriting must agree with the materialized view");

        hype_pruned.push(hype.stats.pruned_fraction());
        opt_pruned.push(opt.stats.pruned_fraction());
        println!(
            "  {:<62} {:>9} {:>11.2} {:>11.2} {:>7.1}% {:>7.1}%",
            query,
            opt.answers.len(),
            ms_rewrite,
            ms_view,
            100.0 * hype.stats.pruned_fraction(),
            100.0 * opt.stats.pruned_fraction(),
        );
    }

    section("Average pruning across the example queries (paper: 78.2% / 88%)");
    let avg = |v: &[f64]| 100.0 * v.iter().sum::<f64>() / v.len() as f64;
    println!("  HyPE    prunes {:>5.1}% of element nodes on average", avg(&hype_pruned));
    println!("  OptHyPE prunes {:>5.1}% of element nodes on average", avg(&opt_pruned));
}
