//! Access control scenario: the hospital enforces the Patient Privacy Act
//! by only letting the research institute query the σ₀ view. This example
//! shows (a) legitimate research queries being answered efficiently and
//! (b) attempts to reach confidential data coming back empty — including
//! the subtle `//` case of Example 1.1 that a naive rewriting would leak.
//!
//! Run with: `cargo run --release -p smoqe-examples --bin hospital_access_control`

use smoqe::{EvaluationMode, SmoqeEngine};
use smoqe_examples::{human_bytes, section, timed};
use smoqe_toxgene::{generate_hospital, HospitalConfig};

fn main() {
    let doc = generate_hospital(&HospitalConfig {
        patients: 2_000,
        heart_disease_fraction: 0.25,
        max_ancestor_depth: 2,
        sibling_probability: 0.4,
        ..Default::default()
    });
    let engine = SmoqeEngine::hospital_demo();

    section("Underlying document (never exposed)");
    println!(
        "  {} element nodes, ≈{}, depth {}",
        doc.len(),
        human_bytes(doc.approximate_byte_size()),
        doc.max_depth()
    );

    section("Legitimate research queries (answered through the view)");
    let research_queries = [
        // All patients visible in the view.
        "patient",
        // Patients with an ancestor who also had heart disease (Example 1.1).
        "patient[*//record/diagnosis/text()='heart disease']",
        // The full ancestor chain of every visible patient.
        "(patient/parent)*/patient",
        // Diagnoses of ancestors, skipping the patients themselves.
        "patient/parent/patient//diagnosis",
        // Patients with no recorded family history in the view.
        "patient[not(parent)]",
    ];
    for query in research_queries {
        let (result, ms) = timed(|| {
            engine
                .answer(query, &doc, EvaluationMode::OptHyPE)
                .expect("valid query")
        });
        println!(
            "  {:<60} -> {:>6} nodes, {:>8.2} ms, {:>5.1}% of source pruned",
            query,
            result.answers.len(),
            ms,
            100.0 * result.stats.pruned_fraction()
        );
    }

    section("Attempts to access confidential data (all must be empty)");
    let forbidden_queries = [
        "//pname",              // patient names
        "//address",            // addresses
        "//doctor",             // treating doctors
        "//sibling//diagnosis", // siblings' medical data
        "patient/pname",        // names through the visible patients
        "//test",               // test results
    ];
    let mut leaked = 0;
    for query in forbidden_queries {
        let answers = engine
            .answer(query, &doc, EvaluationMode::HyPE)
            .expect("query parses")
            .answers;
        println!(
            "  {:<60} -> {} nodes {}",
            query,
            answers.len(),
            if answers.is_empty() {
                "(denied)"
            } else {
                "(LEAK!)"
            }
        );
        leaked += answers.len();
    }
    assert_eq!(
        leaked, 0,
        "the security view must not leak confidential data"
    );

    println!();
    println!("All confidential queries returned empty answers: the view is enforced.");
}
