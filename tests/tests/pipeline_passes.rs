//! Integration of the pipeline passes — query normalisation
//! (`smoqe-xpath::normalize`, optional) and MFA optimization
//! (`smoqe-automata::optimize`, always applied by `CompiledQuery`) — with
//! the rewriting and evaluation stack: applying either or both passes must
//! never change an answer, the optimizer must never grow the automaton, and
//! every query the engines compile must already be trimmed.

use std::sync::Arc;

use integration_tests::{hype_at, run_ir, standard_hospital_document, view_query_corpus};
use smoqe::{CompiledQuery, RegularXPathEngine, SmoqeEngine};
use smoqe_automata::{compile_query, optimize_mfa, CompiledMfa, Mfa};
use smoqe_rewrite::rewrite_to_mfa;
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{all_domains, domain, Domain};
use smoqe_views::hospital_view;
use smoqe_xpath::{evaluate as reference_evaluate, normalize, parse_path};

/// Every registry query of `domain`, compiled *without* the optimizer:
/// view queries rewritten against the domain's view, document queries
/// compiled directly. Tagged `<domain>/view:<q>` or `<domain>/doc:<q>`.
fn raw_domain_mfas(domain: &Domain) -> Vec<(String, Mfa)> {
    let view = domain.view_queries.iter().map(|&query| {
        let mfa = rewrite_to_mfa(&parse_path(query).unwrap(), &domain.view).unwrap();
        (format!("{}/view:{query}", domain.name), mfa)
    });
    let doc = domain.document_queries.iter().map(|&query| {
        let mfa = compile_query(&parse_path(query).unwrap());
        (format!("{}/doc:{query}", domain.name), mfa)
    });
    view.chain(doc).collect()
}

/// Every registry query of `domain` as the engines compile it.
fn engine_compiled_queries(domain: &Domain) -> Vec<(String, CompiledQuery)> {
    let engine = SmoqeEngine::new(domain.view.clone()).unwrap();
    let view = domain.view_queries.iter().map(|&query| {
        (
            format!("{}/view:{query}", domain.name),
            engine.compile(query).unwrap(),
        )
    });
    let doc = domain.document_queries.iter().map(|&query| {
        (
            format!("{}/doc:{query}", domain.name),
            RegularXPathEngine::compile(query).unwrap(),
        )
    });
    view.chain(doc).collect()
}

#[test]
fn normalisation_does_not_change_view_query_answers() {
    let doc = standard_hospital_document();
    let view = hospital_view();
    for query in view_query_corpus() {
        let parsed = parse_path(query).unwrap();
        let normalised = normalize(&parsed);
        assert!(normalised.size() <= parsed.size());
        let answers = |query| {
            let mfa = rewrite_to_mfa(query, &view).unwrap();
            hype_at(&doc, doc.root(), &mfa, None).answers
        };
        let original = answers(&parsed);
        let simplified = answers(&normalised);
        assert_eq!(original, simplified, "normalisation changed `{query}`");
    }
}

/// Trimmed ≡ raw over the whole domain registry: every domain's view and
/// document queries on every shape the domain generates. Answers only —
/// the trimmed automaton visits fewer nodes by design.
#[test]
fn optimizer_preserves_rewritten_mfa_answers_and_shrinks_them() {
    let mut total_before = 0usize;
    let mut total_after = 0usize;
    for domain in all_domains() {
        let docs: Vec<_> = domain
            .shapes
            .iter()
            .map(|&shape| (shape, domain.generate(shape, 1, STANDARD_SEED)))
            .collect();
        for (name, mfa) in raw_domain_mfas(&domain) {
            let (optimized, stats) = optimize_mfa(&mfa);
            assert!(
                stats.nfa_states_after <= stats.nfa_states_before,
                "`{name}` grew"
            );
            assert!(optimized.size() <= mfa.size(), "`{name}` grew");
            total_before += mfa.size();
            total_after += optimized.size();
            let raw = Arc::new(CompiledMfa::new(&mfa));
            let trimmed = Arc::new(CompiledMfa::new(&optimized));
            for (shape, doc) in &docs {
                assert_eq!(
                    run_ir(doc, doc.root(), &raw, None, 1).answers,
                    run_ir(doc, doc.root(), &trimmed, None, 1).answers,
                    "optimization changed `{name}` on the {shape:?} document"
                );
            }
        }
    }
    assert!(
        total_after < total_before,
        "the optimizer should shrink at least some rewritten MFAs ({total_before} -> {total_after})"
    );
}

/// `CompiledQuery` always serves the trimmed automaton: whatever
/// `SmoqeEngine::compile` or `RegularXPathEngine::compile` returns is a
/// fixpoint of the optimizer, and its execution IR is built from that same
/// automaton.
#[test]
fn engine_compiled_queries_are_optimizer_fixpoints() {
    for domain in all_domains() {
        for (name, query) in engine_compiled_queries(&domain) {
            let (_, stats) = optimize_mfa(query.mfa());
            assert_eq!(
                stats.nfa_states_after, stats.nfa_states_before,
                "`{name}` has dead states"
            );
            assert_eq!(
                stats.afas_after, stats.afas_before,
                "`{name}` has unused AFAs"
            );
            assert_eq!(
                stats.afa_states_after, stats.afa_states_before,
                "`{name}` has unreachable AFA states"
            );
            assert_eq!(
                query.compiled().stats(),
                CompiledMfa::new(query.mfa()).stats(),
                "`{name}`: mfa() and compiled() disagree"
            );
        }
    }
}

/// The product construction's dead weight, measured where it is heaviest:
/// the logs view's `//diagnosis` rewrites to ~1,400 NFA states of which ~60
/// can reach an answer, and the IR's step-closure tables grow with the
/// square of the state count.
#[test]
fn trimming_shrinks_the_logs_descendant_query_ir_a_hundredfold() {
    let logs = domain("logs").unwrap();
    let query = "//diagnosis";
    let raw = CompiledMfa::new(&rewrite_to_mfa(&parse_path(query).unwrap(), &logs.view).unwrap());
    let served = SmoqeEngine::new(logs.view.clone())
        .unwrap()
        .compile(query)
        .unwrap();
    let (raw_bytes, served_bytes) = (raw.memory_bytes(), served.compiled().memory_bytes());
    assert!(
        served_bytes * 100 <= raw_bytes,
        "served IR is {served_bytes} bytes against {raw_bytes} untrimmed"
    );
}

#[test]
fn optimizer_preserves_direct_query_answers() {
    let doc = standard_hospital_document();
    for query in [
        "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']/pname",
        "//zip",
        "department/patient/(parent/patient)*/visit/treatment/test",
        "department/doctor[not(diagnosis)]",
    ] {
        let parsed = parse_path(query).unwrap();
        let reference = reference_evaluate(&doc, doc.root(), &parsed);
        let mfa = compile_query(&parsed);
        let (optimized, _) = optimize_mfa(&mfa);
        assert_eq!(hype_at(&doc, doc.root(), &optimized, None).answers, reference, "`{query}`");
    }
}

#[test]
fn combined_passes_compose() {
    let doc = standard_hospital_document();
    let view = hospital_view();
    for query in [
        "./patient/./record | patient/record",
        "patient[not(not(record))][. ]",
        "((patient/parent)*)*/patient[record and record]",
    ] {
        let parsed = parse_path(query).unwrap();
        let mfa = rewrite_to_mfa(&parsed, &view).unwrap();
        let baseline = hype_at(&doc, doc.root(), &mfa, None).answers;
        let tuned = {
            let normalised = normalize(&parsed);
            let mfa = rewrite_to_mfa(&normalised, &view).unwrap();
            let (optimized, _) = optimize_mfa(&mfa);
            hype_at(&doc, doc.root(), &optimized, None).answers
        };
        assert_eq!(baseline, tuned, "pipeline passes changed `{query}`");
    }
}
