//! Regular XPath as a stand-alone query language: the heredity-pattern
//! query of the paper's Example 2.1, which is expressible in regular XPath
//! but **not** in plain XPath, evaluated directly on the hospital document
//! with the three HyPE variants and the baselines.
//!
//! The query finds patients who have heart disease and whose ancestry shows
//! the disease skipping exactly one generation, repeatedly:
//!
//! ```text
//! department/patient[q0 and q1/(q1)*]/pname
//! q0 = visit/treatment/medication/diagnosis/text() = 'heart disease'
//! q1 = parent/patient[not q0]/parent/patient[q0]
//! ```
//!
//! Run with: `cargo run --release -p smoqe-examples --bin heredity_patterns`

use smoqe::{EvaluationMode, RegularXPathEngine};
use smoqe_examples::{section, timed};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::hospital::hospital_document_dtd;

fn main() {
    let doc = generate_hospital(&HospitalConfig {
        patients: 3_000,
        heart_disease_fraction: 0.4,
        max_ancestor_depth: 3,
        ..Default::default()
    });
    section("Document");
    println!("  {} element nodes, depth {}", doc.len(), doc.max_depth());

    let q0 = "visit/treatment/medication/diagnosis/text() = 'heart disease'";
    let q1 = format!("parent/patient[not({q0})]/parent/patient[{q0}]");
    let query = format!("department/patient[{q0} and ({q1})/({q1})*]/pname");
    section("Regular XPath query (Example 2.1)");
    println!("  {query}");

    let compiled = RegularXPathEngine::compile(&query).expect("query parses");
    println!(
        "  compiled MFA: {} NFA states, {} filter automata, total size {}",
        compiled.mfa().stats().nfa_states,
        compiled.mfa().stats().afa_count,
        compiled.mfa().size()
    );

    let dtd = hospital_document_dtd();
    section("Evaluation");
    for (name, mode) in [
        ("HyPE", EvaluationMode::HyPE),
        ("OptHyPE", EvaluationMode::OptHyPE),
        ("OptHyPE-C", EvaluationMode::OptHyPEC),
    ] {
        let (result, ms) = timed(|| {
            let index = mode
                .compressed_index()
                .map(|compressed| compiled.build_index(&dtd, &doc, compressed));
            compiled.evaluate(&doc, doc.root(), index.as_ref(), 1)
        });
        println!(
            "  {:<10} {:>5} matches  {:>9.2} ms  visited {:>7}/{} nodes ({:.1}% pruned)",
            name,
            result.answers.len(),
            ms,
            result.stats.nodes_visited,
            result.stats.nodes_total,
            100.0 * result.stats.pruned_fraction()
        );
    }

    // The translation-style baseline (the role Galax plays in the paper).
    let parsed = compiled.query().clone();
    let (by_translation, ms) = timed(|| smoqe_baseline::evaluate_by_translation(&doc, &parsed));
    println!(
        "  {:<10} {:>5} matches  {:>9.2} ms  (fix-point interpreter, no automaton)",
        "translate",
        by_translation.len(),
        ms
    );

    let reference = compiled.evaluate(&doc, doc.root(), None, 1).answers;
    assert_eq!(by_translation, reference, "all evaluators must agree");
    println!();
    println!(
        "All evaluators agree on {} matching patients.",
        reference.len()
    );
}
