//! End-to-end integration tests: the full SMOQE pipeline (parse → rewrite →
//! MFA → HyPE) against the materialize-then-evaluate oracle, on generated
//! hospital data, for every query in the corpus and every evaluation mode.

use integration_tests::{oracle_answer, standard_hospital_document, view_query_corpus};
use smoqe::{EvaluationMode, SmoqeEngine};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_views::hospital_view;

#[test]
fn rewriting_pipeline_matches_materialization_on_the_full_corpus() {
    let doc = standard_hospital_document();
    let engine = SmoqeEngine::hospital_demo();
    let view = hospital_view();
    for query in view_query_corpus() {
        let expected = oracle_answer(&view, &doc, query);
        let got = engine
            .answer(query, &doc, EvaluationMode::HyPE)
            .expect("query answers")
            .answers;
        assert_eq!(
            got, expected,
            "pipeline disagrees with the oracle on `{query}`"
        );
    }
}

#[test]
fn all_evaluation_modes_agree_on_the_full_corpus() {
    let doc = standard_hospital_document();
    let engine = SmoqeEngine::hospital_demo();
    for query in view_query_corpus() {
        let base = engine.answer(query, &doc, EvaluationMode::HyPE).unwrap();
        let opt = engine.answer(query, &doc, EvaluationMode::OptHyPE).unwrap();
        let optc = engine
            .answer(query, &doc, EvaluationMode::OptHyPEC)
            .unwrap();
        assert_eq!(base.answers, opt.answers, "OptHyPE differs on `{query}`");
        assert_eq!(base.answers, optc.answers, "OptHyPE-C differs on `{query}`");
        assert!(
            opt.stats.nodes_visited <= base.stats.nodes_visited,
            "the index must never increase the number of visited nodes (`{query}`)"
        );
    }
}

#[test]
fn pipeline_is_stable_across_documents_of_different_shapes() {
    let engine = SmoqeEngine::hospital_demo();
    let view = hospital_view();
    let configs = [
        HospitalConfig {
            patients: 15,
            max_ancestor_depth: 0,
            sibling_probability: 0.0,
            seed: 1,
            ..Default::default()
        },
        HospitalConfig {
            patients: 25,
            max_ancestor_depth: 3,
            heart_disease_fraction: 1.0,
            seed: 2,
            ..Default::default()
        },
        HospitalConfig {
            patients: 25,
            heart_disease_fraction: 0.0,
            seed: 3,
            ..Default::default()
        },
        HospitalConfig {
            patients: 30,
            test_visit_fraction: 1.0,
            seed: 4,
            ..Default::default()
        },
    ];
    for (i, config) in configs.iter().enumerate() {
        let doc = generate_hospital(config);
        for query in [
            "patient",
            "patient[*//record/diagnosis/text()='heart disease']",
            "(patient/parent)*/patient[record/empty]",
            "patient[not(parent)]/record/diagnosis",
        ] {
            let expected = oracle_answer(&view, &doc, query);
            let got = engine
                .answer(query, &doc, EvaluationMode::HyPE)
                .unwrap()
                .answers;
            assert_eq!(got, expected, "config #{i}, query `{query}`");
        }
    }
}

#[test]
fn compiled_query_reuse_matches_one_shot_answers() {
    let engine = SmoqeEngine::hospital_demo();
    let compiled = engine
        .compile("patient[*//record/diagnosis/text()='heart disease']")
        .unwrap();
    for seed in 10..14u64 {
        let doc = generate_hospital(&HospitalConfig {
            patients: 20,
            seed,
            ..Default::default()
        });
        let one_shot = engine
            .answer(
                "patient[*//record/diagnosis/text()='heart disease']",
                &doc,
                EvaluationMode::HyPE,
            )
            .unwrap();
        assert_eq!(compiled.evaluate(&doc, doc.root(), None, 1), one_shot);
    }
}

#[test]
fn view_never_exposes_confidential_element_types() {
    // Whatever the document, queries for hidden element types return nothing
    // through the view — the security guarantee of the running example.
    let engine = SmoqeEngine::hospital_demo();
    for seed in 0..5u64 {
        let doc = generate_hospital(&HospitalConfig {
            patients: 30,
            sibling_probability: 0.8,
            seed,
            ..Default::default()
        });
        for query in [
            "//pname",
            "//address",
            "//doctor",
            "//test",
            "//sibling",
            "//visit",
        ] {
            assert!(
                engine
                    .answer(query, &doc, EvaluationMode::HyPE)
                    .unwrap()
                    .answers
                    .is_empty(),
                "`{query}` leaked data (seed {seed})"
            );
        }
    }
}
