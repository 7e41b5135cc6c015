//! Batched-vs-sequential equivalence and the query-service cache, end to
//! end over the shared corpora (PR 2).
//!
//! The contract under test: for every query of the corpus, answering it as
//! part of a [`smoqe_hype::evaluate_tree`] batch must produce **byte-
//! identical answer sets and identical per-query statistics** to a solo
//! run, in both pruning modes — while the shared
//! traversal performs no more physical node visits than the sequential sum.
//! On top of that sits the [`smoqe::QueryService`], whose caches must be
//! semantically invisible.

use integration_tests::{oracle_answer, standard_hospital_document, view_query_corpus,
    document_query_corpus, compile_batch, hype_at};
use smoqe::{EvaluationMode, QueryService, ServiceConfig, SmoqeEngine};
use smoqe_automata::compile_query;
use smoqe_hype::interpreted::BatchQuery;
use smoqe_hype::{evaluate_tree, BatchResult, ReachabilityIndex};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::XmlTree;
use smoqe_xpath::parse_path;

/// Compiles the whole view-query corpus against the σ₀ view.
fn compiled_view_corpus(engine: &SmoqeEngine) -> Vec<(String, smoqe::CompiledQuery)> {
    view_query_corpus()
        .into_iter()
        .map(|q| (q.to_owned(), engine.compile(q).expect("corpus query compiles")))
        .collect()
}

/// The builder-MFA batch `queries`, compiled and walked in one pass.
fn walk_batch(doc: &XmlTree, queries: &[BatchQuery]) -> BatchResult {
    evaluate_tree(doc, doc.root(), &compile_batch(queries), 1)
}

#[test]
fn batched_equals_sequential_on_the_view_corpus_hype_mode() {
    let doc = standard_hospital_document();
    let engine = SmoqeEngine::hospital_demo();
    let compiled = compiled_view_corpus(&engine);

    let batch_queries: Vec<BatchQuery> =
        compiled.iter().map(|(_, c)| BatchQuery::new(c.mfa())).collect();
    let batch = walk_batch(&doc, &batch_queries);

    let mut sequential_visits = 0;
    for (i, (query, c)) in compiled.iter().enumerate() {
        let solo = c.evaluate(&doc, doc.root(), None, 1);
        assert_eq!(batch.results[i].answers, solo.answers, "answers differ on `{query}`");
        assert_eq!(batch.results[i].stats, solo.stats, "stats differ on `{query}`");
        // And both agree with the materialize-then-evaluate oracle.
        let oracle = oracle_answer(engine.view(), &doc, query);
        assert_eq!(batch.results[i].answers, oracle, "oracle differs on `{query}`");
        sequential_visits += solo.stats.nodes_visited;
    }
    assert_eq!(batch.stats.queries, compiled.len());
    assert_eq!(batch.stats.sequential_node_visits, sequential_visits);
    assert!(
        batch.stats.nodes_visited < sequential_visits,
        "sharing must reduce physical visits ({} vs {})",
        batch.stats.nodes_visited,
        sequential_visits
    );
    assert!(batch.stats.nodes_visited <= batch.stats.nodes_total);
}

#[test]
fn batched_equals_sequential_on_the_view_corpus_opthype_mode() {
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    let engine = SmoqeEngine::hospital_demo();
    let compiled = compiled_view_corpus(&engine);

    for compressed in [false, true] {
        let indexes: Vec<ReachabilityIndex> = compiled
            .iter()
            .map(|(_, c)| {
                if compressed {
                    ReachabilityIndex::new_compressed(c.mfa(), &dtd, doc.labels())
                } else {
                    ReachabilityIndex::new(c.mfa(), &dtd, doc.labels())
                }
            })
            .collect();
        let batch_queries: Vec<BatchQuery> = compiled
            .iter()
            .zip(&indexes)
            .map(|((_, c), i)| BatchQuery::with_index(c.mfa(), i))
            .collect();
        let batch = walk_batch(&doc, &batch_queries);
        for (i, ((query, c), index)) in compiled.iter().zip(&indexes).enumerate() {
            let solo = hype_at(&doc, doc.root(), c.mfa(), Some(index));
            assert_eq!(
                batch.results[i].answers, solo.answers,
                "answers differ on `{query}` (compressed={compressed})"
            );
            assert_eq!(
                batch.results[i].stats, solo.stats,
                "stats differ on `{query}` (compressed={compressed})"
            );
        }
        assert!(batch.stats.nodes_visited <= batch.stats.sequential_node_visits);
    }
}

#[test]
fn batched_equals_sequential_on_the_document_corpus() {
    // Regular XPath straight on the document (no view), both modes.
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    let mfas: Vec<_> = document_query_corpus()
        .into_iter()
        .map(|q| (q, compile_query(&parse_path(q).unwrap())))
        .collect();
    let indexes: Vec<_> = mfas
        .iter()
        .map(|(_, m)| ReachabilityIndex::new(m, &dtd, doc.labels()))
        .collect();

    let plain_batch =
        walk_batch(&doc, &mfas.iter().map(|(_, m)| BatchQuery::new(m)).collect::<Vec<_>>());
    let indexed_batch = walk_batch(
        &doc,
        &mfas
            .iter()
            .zip(&indexes)
            .map(|((_, m), i)| BatchQuery::with_index(m, i))
            .collect::<Vec<_>>(),
    );
    for (i, (query, mfa)) in mfas.iter().enumerate() {
        let solo = hype_at(&doc, doc.root(), mfa, None);
        assert_eq!(plain_batch.results[i].answers, solo.answers, "on `{query}`");
        assert_eq!(plain_batch.results[i].stats, solo.stats, "on `{query}`");
        let solo_opt = hype_at(&doc, doc.root(), mfa, Some(&indexes[i]));
        assert_eq!(indexed_batch.results[i].answers, solo_opt.answers, "on `{query}` (opt)");
        assert_eq!(indexed_batch.results[i].stats, solo_opt.stats, "on `{query}` (opt)");
        // Batched answers are mode-independent too.
        assert_eq!(plain_batch.results[i].answers, indexed_batch.results[i].answers);
    }
    assert!(plain_batch.stats.nodes_visited < plain_batch.stats.sequential_node_visits);
    assert!(indexed_batch.stats.nodes_visited <= indexed_batch.stats.sequential_node_visits);
}

#[test]
fn service_batch_matches_sequential_service_calls_on_the_corpus() {
    let doc = standard_hospital_document();
    let service = QueryService::hospital_demo();
    let queries = view_query_corpus();
    for mode in [
        EvaluationMode::HyPE,
        EvaluationMode::OptHyPE,
        EvaluationMode::OptHyPEC,
    ] {
        let batch = service.evaluate_batch(&queries, &doc, mode).unwrap();
        for (i, query) in queries.iter().enumerate() {
            let solo = service.evaluate(query, &doc, mode).unwrap();
            assert_eq!(batch.results[i].answers, solo.answers, "on `{query}` ({mode:?})");
            assert_eq!(batch.results[i].stats, solo.stats, "on `{query}` ({mode:?})");
        }
    }
    // Every query was compiled exactly once across all six passes.
    let stats = service.stats();
    assert_eq!(stats.compiled_misses, queries.len() as u64);
    assert!(stats.compiled_hits >= 5 * queries.len() as u64);
}

#[test]
fn service_cache_is_semantically_invisible_under_eviction_pressure() {
    // A pathologically small cache forces constant eviction; answers must
    // not change.
    let doc = standard_hospital_document();
    let engine = SmoqeEngine::hospital_demo();
    let service = QueryService::with_config(
        engine.view().clone(),
        ServiceConfig {
            compiled_capacity: 2,
            index_capacity: 1,
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    for _round in 0..2 {
        for query in view_query_corpus() {
            let via_service = service.evaluate(query, &doc, EvaluationMode::OptHyPE).unwrap();
            let direct = engine.answer(query, &doc, EvaluationMode::OptHyPE).unwrap();
            assert_eq!(via_service.answers, direct.answers, "on `{query}`");
            assert_eq!(via_service.stats, direct.stats, "on `{query}`");
        }
    }
    let stats = service.stats();
    assert!(stats.compiled_evictions > 0, "tiny cache must evict");
    assert!(stats.compiled_cached <= 2);
    assert!(stats.index_cached <= 1);
}

#[test]
fn batch_sharing_factor_grows_with_overlapping_queries() {
    // Queries rooted in the same region amortise each other's traversal;
    // the sharing factor must strictly exceed 1 and never exceed the batch
    // size.
    let doc = standard_hospital_document();
    let queries = [
        "department/patient/pname",
        "department/patient/address/zip",
        "department/patient/visit/date",
        "department/patient/visit/treatment/medication/diagnosis",
    ];
    let mfas: Vec<_> = queries
        .iter()
        .map(|q| compile_query(&parse_path(q).unwrap()))
        .collect();
    let batch = walk_batch(&doc, &mfas.iter().map(BatchQuery::new).collect::<Vec<_>>());
    let factor = batch.stats.sharing_factor();
    assert!(factor > 1.0, "overlapping queries must share visits (factor {factor})");
    assert!(factor <= queries.len() as f64 + 1e-9);
    assert_eq!(
        batch.stats.visits_saved(),
        batch.stats.sequential_node_visits - batch.stats.nodes_visited
    );
}
