//! Integration of the security-annotation front end with the rewriting
//! pipeline: a policy written as Allow/Deny/Conditional annotations on the
//! *document* DTD is turned into a (recursive) view definition, and queries
//! on that derived view are answered on the source by rewrite + HyPE,
//! matching the materialize-then-evaluate oracle and never leaking hidden
//! data.

use smoqe::{EvaluationMode, SmoqeEngine};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_views::{derive_view, materialize, Access, SecuritySpec};
use smoqe_xml::hospital::{hospital_document_dtd, HEART_DISEASE};
use smoqe_xpath::{evaluate, parse_path, Path, Pred};

/// The research-institute policy expressed over the document DTD.
fn research_policy() -> SecuritySpec {
    let mut spec = SecuritySpec::new(hospital_document_dtd());
    let heart = Pred::text_eq(
        Path::chain(&["visit", "treatment", "medication", "diagnosis"]),
        HEART_DISEASE,
    );
    spec.annotate("hospital", "department", Access::Deny);
    spec.annotate("department", "patient", Access::Conditional(heart));
    spec.annotate("patient", "visit", Access::Deny);
    spec.annotate("visit", "treatment", Access::Deny);
    spec.annotate("treatment", "medication", Access::Deny);
    spec.annotate("visit", "date", Access::Deny);
    spec.annotate("department", "name", Access::Deny);
    for hidden in [
        "pname", "address", "doctor", "sibling", "test", "street", "city", "zip", "dname",
        "specialty", "type",
    ] {
        spec.deny_everywhere(hidden);
    }
    spec
}

#[test]
fn derived_view_queries_are_answered_correctly_by_the_engine() {
    let view = derive_view(&research_policy()).unwrap();
    assert!(view.is_recursive());
    let engine = SmoqeEngine::new(view.clone()).unwrap();
    let doc = generate_hospital(&HospitalConfig {
        patients: 40,
        heart_disease_fraction: 0.4,
        max_ancestor_depth: 2,
        sibling_probability: 0.5,
        seed: 99,
        ..Default::default()
    });
    let materialized = materialize(&view, &doc).unwrap();
    for query in [
        "patient",
        "patient/diagnosis",
        "(patient/parent)*/patient/diagnosis",
        "patient[parent/patient/diagnosis/text()='heart disease']",
        "patient[not(parent)]",
        "//diagnosis",
    ] {
        let q = parse_path(query).unwrap();
        let expected =
            materialized.origins_of(&evaluate(&materialized.tree, materialized.tree.root(), &q));
        let got = engine
            .answer(query, &doc, EvaluationMode::HyPE)
            .unwrap()
            .answers;
        assert_eq!(got, expected, "derived-view pipeline differs on `{query}`");
    }
}

#[test]
fn derived_view_never_leaks_hidden_element_types() {
    let view = derive_view(&research_policy()).unwrap();
    let engine = SmoqeEngine::new(view).unwrap();
    let doc = generate_hospital(&HospitalConfig {
        patients: 30,
        sibling_probability: 0.7,
        seed: 5,
        ..Default::default()
    });
    for query in [
        "//pname",
        "//address",
        "//doctor",
        "//sibling",
        "//test",
        "//visit",
        "//department",
        "patient/pname",
    ] {
        assert!(
            engine
                .answer(query, &doc, EvaluationMode::HyPE)
                .unwrap()
                .answers
                .is_empty(),
            "`{query}` must be empty on the derived security view"
        );
    }
}

#[test]
fn conditional_rules_control_which_patients_are_exposed() {
    // With the heart-disease condition, only matching patients are exposed;
    // dropping the condition exposes everyone.
    let doc = generate_hospital(&HospitalConfig {
        patients: 50,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 0,
        seed: 21,
        ..Default::default()
    });

    let conditional = derive_view(&research_policy()).unwrap();
    let engine = SmoqeEngine::new(conditional).unwrap();
    let exposed_conditional = engine
        .answer("patient", &doc, EvaluationMode::HyPE)
        .unwrap()
        .answers
        .len();

    let mut open_policy = research_policy();
    open_policy.annotate("department", "patient", Access::Allow);
    let open_view = derive_view(&open_policy).unwrap();
    let open_engine = SmoqeEngine::new(open_view).unwrap();
    let exposed_open = open_engine
        .answer("patient", &doc, EvaluationMode::HyPE)
        .unwrap()
        .answers
        .len();

    assert!(exposed_conditional < exposed_open);
    assert_eq!(exposed_open, 50);
}

#[test]
fn derived_and_handwritten_views_expose_the_same_top_level_patients() {
    // The derived research view and the paper's hand-written σ₀ agree on
    // *which* patients are visible (their record structure differs: σ₀ keeps
    // a record wrapper, the derived view promotes diagnosis directly).
    let doc = generate_hospital(&HospitalConfig {
        patients: 40,
        heart_disease_fraction: 0.5,
        seed: 3,
        ..Default::default()
    });
    let derived = SmoqeEngine::new(derive_view(&research_policy()).unwrap()).unwrap();
    let handwritten = SmoqeEngine::hospital_demo();
    let from_derived = derived
        .answer("patient", &doc, EvaluationMode::HyPE)
        .unwrap()
        .answers;
    let from_handwritten = handwritten
        .answer("patient", &doc, EvaluationMode::HyPE)
        .unwrap()
        .answers;
    assert_eq!(from_derived, from_handwritten);
}
