//! Differential suite for the across-documents corpus axis (PR 6).
//!
//! The acceptance bar: [`evaluate_corpus`] must be **bit-identical** to a
//! loop of solo tree evaluations — same answer sets, same
//! per-pair [`HypeStats`](smoqe_hype::HypeStats) — at thread budgets
//! {1, 2, 4, 8}, at both layers (raw `smoqe_hype` engines over compiled MFAs,
//! and the `QueryService` front-ends over a [`DocumentStore`]), in all
//! three evaluation modes. The corpus itself goes through snapshot bytes
//! on its way into the store, so this suite also exercises the PR's
//! save→load path end to end.

use std::sync::Arc;

use integration_tests::{
    document_query_corpus, domain_corpus_irs, oracle_answer, run_ir, standard_hospital_document,
};

use smoqe::{DocumentStore, EvaluationMode, QueryService, ServiceConfig, SmoqeEngine};
use smoqe_automata::compile_query;
use smoqe_hype::{evaluate_corpus, CompiledMfa, CorpusTask, HypeResult, ReachabilityIndex};
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{all_domains, generate_hospital, DocShape, HospitalConfig};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::{snapshot, XmlTree};
use smoqe_xpath::parse_path;

const THREAD_BUDGETS: [usize; 4] = [1, 2, 4, 8];

/// A σ₀ service whose corpus passes run at the thread budget `threads`.
fn hospital_service_at(threads: usize) -> QueryService {
    QueryService::with_config(
        SmoqeEngine::hospital_demo().view().clone(),
        ServiceConfig {
            parallel_threads: threads,
            ..ServiceConfig::default()
        },
    )
    .unwrap()
}

fn corpus_documents() -> Vec<XmlTree> {
    let mut docs = vec![standard_hospital_document()];
    for seed in 1..=5 {
        docs.push(generate_hospital(&HospitalConfig {
            patients: 8 + 3 * seed as usize,
            seed,
            max_ancestor_depth: 2,
            heart_disease_fraction: 0.35,
            ..Default::default()
        }));
    }
    docs
}

/// The reference loop: every task evaluated alone, in order.
fn one_by_one(tasks: &[CorpusTask]) -> Vec<HypeResult> {
    tasks
        .iter()
        .map(|t| run_ir(t.tree, t.tree.root(), &t.compiled, t.index, 1))
        .collect()
}

#[test]
fn hype_corpus_parallel_is_bit_identical_to_sequential() {
    let docs = corpus_documents();
    let queries = document_query_corpus();
    let compiled: Vec<_> = queries
        .iter()
        .map(|q| Arc::new(CompiledMfa::new(&compile_query(&parse_path(q).unwrap()))))
        .collect();

    // Every (document, query) pair, unindexed.
    let tasks: Vec<CorpusTask> = docs
        .iter()
        .flat_map(|doc| {
            compiled
                .iter()
                .map(move |c| CorpusTask::new(doc, Arc::clone(c)))
        })
        .collect();
    let sequential = one_by_one(&tasks);
    assert_eq!(sequential.len(), docs.len() * queries.len());
    for threads in THREAD_BUDGETS {
        let parallel = evaluate_corpus(&tasks, threads);
        assert_eq!(
            parallel, sequential,
            "unindexed corpus at {threads} threads"
        );
    }
}

#[test]
fn hype_corpus_parallel_is_bit_identical_with_reachability_indexes() {
    let docs = corpus_documents();
    let dtd = hospital_document_dtd();
    let queries = document_query_corpus();

    // One index per (document, query): each document has its own interner.
    let mfas: Vec<_> = queries
        .iter()
        .map(|q| compile_query(&parse_path(q).unwrap()))
        .collect();
    let compiled: Vec<_> = mfas.iter().map(|m| Arc::new(CompiledMfa::new(m))).collect();
    let mut indexes: Vec<ReachabilityIndex> = Vec::new();
    for doc in &docs {
        for m in &mfas {
            indexes.push(ReachabilityIndex::new(m, &dtd, doc.labels()));
        }
    }
    let per_doc = queries.len();
    let mut tasks: Vec<CorpusTask> = Vec::new();
    for (d, doc) in docs.iter().enumerate() {
        for (q, c) in compiled.iter().enumerate() {
            tasks.push(CorpusTask::with_index(
                doc,
                Arc::clone(c),
                &indexes[d * per_doc + q],
            ));
        }
    }

    let sequential = one_by_one(&tasks);
    for threads in THREAD_BUDGETS {
        let parallel = evaluate_corpus(&tasks, threads);
        assert_eq!(parallel, sequential, "indexed corpus at {threads} threads");
    }
}

#[test]
fn service_corpus_parallel_is_bit_identical_in_every_mode() {
    // Ingest through snapshot bytes, exercising the save→load path.
    let store = DocumentStore::new();
    let ids: Vec<_> = corpus_documents()
        .into_iter()
        .map(|doc| {
            let bytes = snapshot::save(&doc);
            store.insert_snapshot(&bytes).expect("saved snapshots load")
        })
        .collect();
    assert_eq!(store.len(), ids.len(), "corpus documents are all distinct");

    let queries = [
        "patient",
        "patient/record/diagnosis",
        "patient[not(parent)]",
        "//visit",
    ];
    let requests: Vec<_> = ids
        .iter()
        .flat_map(|&id| queries.iter().map(move |&q| (id, q)))
        .collect();

    for mode in [
        EvaluationMode::HyPE,
        EvaluationMode::OptHyPE,
        EvaluationMode::OptHyPEC,
    ] {
        let reference = QueryService::hospital_demo();
        let sequential: Vec<HypeResult> = requests
            .iter()
            .map(|&(id, q)| {
                reference
                    .evaluate(q, store.get(id).unwrap().tree(), mode)
                    .unwrap()
            })
            .collect();
        for threads in THREAD_BUDGETS {
            let parallel = hospital_service_at(threads)
                .evaluate_corpus(&store, &requests, mode)
                .unwrap();
            assert_eq!(
                parallel, sequential,
                "service corpus at {threads} threads ({mode:?})"
            );
        }
    }
}

#[test]
fn corpus_parallel_is_bit_identical_across_all_domains() {
    // Registry sweep: per domain, a small multi-seed document corpus ×
    // the domain's full (document + rewritten view) query corpus, parallel
    // against sequential at every budget.
    for domain in all_domains() {
        let docs: Vec<XmlTree> = (0..3)
            .map(|s| domain.generate(DocShape::Standard, 1, STANDARD_SEED + s))
            .collect();
        let irs = domain_corpus_irs(&domain);
        let tasks: Vec<CorpusTask> = docs
            .iter()
            .flat_map(|doc| {
                irs.iter()
                    .map(move |(_, c)| CorpusTask::new(doc, Arc::clone(c)))
            })
            .collect();
        let sequential = one_by_one(&tasks);
        assert_eq!(sequential.len(), docs.len() * irs.len());
        for threads in THREAD_BUDGETS {
            let parallel = evaluate_corpus(&tasks, threads);
            assert_eq!(
                parallel, sequential,
                "{}: corpus at {threads} threads",
                domain.name
            );
        }
    }
}

#[test]
fn rewritten_answers_match_the_materialize_oracle_in_every_domain() {
    // The spec-level contract behind all of the engine differentials:
    // for every domain, every supported shape and every view query,
    // rewrite-then-evaluate over the document equals materialize-then-
    // evaluate on the view (mapped back through origin nodes).
    for domain in all_domains() {
        let engine = SmoqeEngine::new(domain.view.clone()).expect("registered views check");
        for &shape in domain.shapes {
            let doc = domain.generate(shape, 1, STANDARD_SEED);
            for &query in domain.view_queries {
                let want = oracle_answer(&domain.view, &doc, query);
                let got = engine
                    .answer(query, &doc, EvaluationMode::HyPE)
                    .unwrap()
                    .answers;
                assert_eq!(
                    got, want,
                    "{}/{shape:?}: rewriting diverges from the view oracle on `{query}`",
                    domain.name
                );
            }
        }
    }
}

#[test]
fn corpus_results_track_request_order_not_completion_order() {
    // Skewed corpus: one large document among tiny ones. Whatever worker
    // finishes first, results must come back in request order.
    let store = DocumentStore::new();
    let big = store.insert_tree(generate_hospital(&HospitalConfig {
        patients: 120,
        seed: 42,
        ..Default::default()
    }));
    let tiny: Vec<_> = (0..6)
        .map(|i| {
            store
                .insert_xml(&format!("<hospital><department><patient><pname>p{i}</pname></patient></department></hospital>"))
                .unwrap()
        })
        .collect();
    let mut requests = vec![(big, "patient")];
    requests.extend(tiny.iter().map(|&id| (id, "patient")));
    requests.push((big, "patient/record/diagnosis"));

    let service = hospital_service_at(1);
    let sequential = service
        .evaluate_corpus(&store, &requests, EvaluationMode::HyPE)
        .unwrap();
    for threads in THREAD_BUDGETS {
        let parallel = hospital_service_at(threads)
            .evaluate_corpus(&store, &requests, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(parallel, sequential, "skewed corpus at {threads} threads");
    }
    // Each slot equals a solo evaluation of that (document, query) pair.
    for (result, &(id, query)) in sequential.iter().zip(&requests) {
        let solo = service
            .evaluate(query, store.get(id).unwrap().tree(), EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(result.answers, solo.answers, "on `{query}` for {id}");
        assert_eq!(result.stats, solo.stats, "on `{query}` for {id}");
    }
}
