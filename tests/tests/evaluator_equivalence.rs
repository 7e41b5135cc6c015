//! Differential tests across all evaluators on documents posed directly
//! (no view): the reference interpreter, the naive MFA evaluator, HyPE,
//! OptHyPE, OptHyPE-C and the two-pass baseline must all return the same
//! answer for every query in the corpus.

use integration_tests::{document_query_corpus, hype_at, standard_hospital_document};
use smoqe_automata::{compile_query, evaluate_mfa};
use smoqe_baseline::{evaluate_by_translation, evaluate_two_pass};
use smoqe_hype::ReachabilityIndex;
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xpath::parse_path;

#[test]
fn all_evaluators_agree_on_the_document_corpus() {
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    for query in document_query_corpus() {
        let q = parse_path(query).unwrap();
        let reference = smoqe_xpath::evaluate(&doc, doc.root(), &q);

        let mfa = compile_query(&q);
        let naive = evaluate_mfa(&doc, &mfa);
        assert_eq!(naive, reference, "naive MFA differs on `{query}`");

        let hype = hype_at(&doc, doc.root(), &mfa, None);
        assert_eq!(hype.answers, reference, "HyPE differs on `{query}`");

        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = hype_at(&doc, doc.root(), &mfa, Some(&index));
        assert_eq!(opt.answers, reference, "OptHyPE differs on `{query}`");

        let cindex = ReachabilityIndex::new_compressed(&mfa, &dtd, doc.labels());
        let optc = hype_at(&doc, doc.root(), &mfa, Some(&cindex));
        assert_eq!(optc.answers, reference, "OptHyPE-C differs on `{query}`");

        let (two_pass, stats) = evaluate_two_pass(&doc, &q);
        assert_eq!(two_pass, reference, "two-pass baseline differs on `{query}`");
        assert_eq!(stats.phase1_nodes, doc.len());

        let translation = evaluate_by_translation(&doc, &q);
        assert_eq!(translation, reference, "translation baseline differs on `{query}`");
    }
}

#[test]
fn hype_prunes_substantially_on_the_document_corpus() {
    // The paper reports HyPE pruning ~78% and OptHyPE ~88% of element nodes
    // on its example queries. The exact numbers depend on the workload; we
    // assert the qualitative claims: substantial pruning, and OptHyPE ≥ HyPE.
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    let mut hype_sum = 0.0;
    let mut opt_sum = 0.0;
    let mut count = 0.0;
    for query in document_query_corpus() {
        let q = parse_path(query).unwrap();
        let mfa = compile_query(&q);
        let hype = hype_at(&doc, doc.root(), &mfa, None);
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = hype_at(&doc, doc.root(), &mfa, Some(&index));
        assert!(
            opt.stats.nodes_visited <= hype.stats.nodes_visited,
            "OptHyPE visited more nodes on `{query}`"
        );
        hype_sum += hype.stats.pruned_fraction();
        opt_sum += opt.stats.pruned_fraction();
        count += 1.0;
    }
    let hype_avg = hype_sum / count;
    let opt_avg = opt_sum / count;
    assert!(
        hype_avg > 0.3,
        "average HyPE pruning {hype_avg:.2} is implausibly low"
    );
    assert!(opt_avg >= hype_avg, "OptHyPE must prune at least as much as HyPE");
}

#[test]
fn evaluators_agree_from_arbitrary_context_nodes() {
    let doc = standard_hospital_document();
    let queries = ["visit/treatment/medication/diagnosis", "(parent/patient)*/visit", "pname"];
    // Sample a few dozen context nodes spread over the document.
    let step = (doc.len() / 40).max(1);
    for query in queries {
        let q = parse_path(query).unwrap();
        let mfa = compile_query(&q);
        for ctx in doc.node_ids().step_by(step) {
            let reference = smoqe_xpath::evaluate(&doc, ctx, &q);
            let hype = hype_at(&doc, ctx, &mfa, None);
            assert_eq!(hype.answers, reference, "context {ctx:?} on `{query}`");
        }
    }
}
