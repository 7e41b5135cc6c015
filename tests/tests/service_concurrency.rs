//! Concurrency stress for the thread-safe `QueryService`: many threads
//! hammering one shared instance with interleaved cache-hitting and
//! cache-missing queries, across the sequential, batched and parallel
//! front-ends. The service must stay deterministic (every answer equals the
//! single-threaded oracle), never poison a lock, and keep coherent hit/miss
//! counters.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use smoqe::{EvaluationMode, QueryService, ServiceConfig, SmoqeEngine};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::XmlTree;

const THREADS: usize = 8;
const ROUNDS: usize = 12;

/// A small set of *hot* queries every thread keeps re-posing (cache hits
/// after warm-up)…
const HOT_QUERIES: &[&str] = &[
    "patient",
    "patient/record/diagnosis",
    "(patient/parent)*/patient[record]",
    "patient[not(parent)]",
];

/// …and per-thread *cold* queries that defeat the tiny compiled cache and
/// force constant eviction + recompilation alongside the hits. The distinct
/// text literal survives normalization, so every (thread, round) pair is a
/// distinct cache key; the filter branch matches nothing, so each one
/// answers exactly like `patient/record`.
fn cold_query(thread: usize, round: usize) -> String {
    format!("patient/record | patient[record/diagnosis/text()='cold-{thread}-{round}']/record")
}

fn doc() -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients: 30,
        heart_disease_fraction: 0.4,
        max_ancestor_depth: 2,
        seed: 77,
        ..Default::default()
    })
}

#[test]
fn eight_threads_hammer_one_shared_service() {
    let service = Arc::new(
        QueryService::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig {
                compiled_capacity: 4, // far smaller than the cold-query space
                index_capacity: 4,
                cache_segments: 4,
                parallel_threads: 2,
            },
        )
        .unwrap(),
    );
    let document = Arc::new(doc());

    // Single-threaded oracle answers, computed before any concurrency.
    let mut expected = BTreeMap::new();
    for &q in HOT_QUERIES {
        expected.insert(
            q.to_owned(),
            service
                .evaluate(q, &document, EvaluationMode::HyPE)
                .unwrap()
                .answers,
        );
    }
    let cold_expected = service
        .evaluate("patient/record", &document, EvaluationMode::HyPE)
        .unwrap()
        .answers;
    let baseline = service.stats();
    let expected = Arc::new(expected);
    let cold_expected = Arc::new(cold_expected);

    // Every compiled-cache lookup (one per compile() call) is tallied so
    // the counters can be audited after the run.
    let lookups = AtomicU64::new(0);
    let index_lookups = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let service = Arc::clone(&service);
            let document = Arc::clone(&document);
            let expected = Arc::clone(&expected);
            let cold_expected = Arc::clone(&cold_expected);
            let lookups = &lookups;
            let index_lookups = &index_lookups;
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    // Hot query, sequential front-end.
                    let hot = HOT_QUERIES[(t + round) % HOT_QUERIES.len()];
                    let got = service
                        .evaluate(hot, &document, EvaluationMode::HyPE)
                        .unwrap();
                    lookups.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(got.answers, expected[hot], "hot `{hot}` (thread {t})");

                    // Cold query, parallel front-end (cache miss + shard pool).
                    let cold = cold_query(t, round);
                    let got = service
                        .answer_parallel(&cold, &document, EvaluationMode::HyPE)
                        .unwrap();
                    lookups.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(got.answers, *cold_expected, "cold `{cold}` (thread {t})");

                    // Hot + cold in one batched pass; results stay aligned
                    // and identical to the solo oracles.
                    let batch = service
                        .evaluate_batch(&[hot, &cold], &document, EvaluationMode::HyPE)
                        .unwrap();
                    lookups.fetch_add(2, Ordering::Relaxed);
                    assert_eq!(batch.results[0].answers, expected[hot]);
                    assert_eq!(batch.results[1].answers, *cold_expected);

                    // OptHyPE exercises the index cache concurrently too.
                    let got = service
                        .evaluate(hot, &document, EvaluationMode::OptHyPE)
                        .unwrap();
                    lookups.fetch_add(1, Ordering::Relaxed);
                    index_lookups.fetch_add(1, Ordering::Relaxed);
                    assert_eq!(got.answers, expected[hot]);
                }
            });
        }
    });

    // No thread panicked (scope joined), so no lock was poisoned; stats()
    // itself re-locks every segment and must succeed.
    let stats = service.stats();
    let compiled_lookups = stats.compiled_hits + stats.compiled_misses
        - (baseline.compiled_hits + baseline.compiled_misses);
    assert_eq!(
        compiled_lookups,
        lookups.load(Ordering::Relaxed),
        "every compile() call records exactly one hit or miss"
    );
    let index_total = stats.index_hits + stats.index_misses;
    assert_eq!(
        index_total,
        index_lookups.load(Ordering::Relaxed),
        "every index_for() call records exactly one hit or miss"
    );
    // The cold-query space (THREADS × ROUNDS distinct keys) vastly exceeds
    // capacity 4: evictions and misses beyond warm-up are certain, and hits
    // happened too (the hot set re-poses constantly).
    assert!(
        stats.compiled_evictions > 0,
        "tiny cache must evict under pressure"
    );
    assert!(
        stats.compiled_hits > baseline.compiled_hits,
        "hot queries must hit"
    );
    assert!(
        stats.compiled_misses > baseline.compiled_misses,
        "cold queries must miss"
    );
    assert!(
        stats.compiled_cached <= 4,
        "cached entries bounded by capacity"
    );
}

/// Invalidation precision under concurrency: while reader threads hammer
/// document B's cached reachability-index entries, document A is edited
/// (introducing a new label, so its fingerprint changes) through the
/// service. A's stale entries must be gone afterwards; B's entries must
/// stay hot throughout — every one of B's lookups during and after the
/// edit is a *hit*, so the miss counter never moves past warm-up.
#[test]
fn editing_one_document_leaves_other_documents_entries_hot() {
    use smoqe::DocumentStore;
    use smoqe_xml::EditOp;

    let service = Arc::new(QueryService::hospital_demo());
    let store = Arc::new(DocumentStore::new());
    let doc_a = store.insert_tree(generate_hospital(&HospitalConfig {
        patients: 25,
        heart_disease_fraction: 0.4,
        max_ancestor_depth: 2,
        seed: 1,
        ..Default::default()
    }));
    let doc_b = store.insert_tree(generate_hospital(&HospitalConfig {
        patients: 25,
        heart_disease_fraction: 0.4,
        max_ancestor_depth: 2,
        seed: 2,
        ..Default::default()
    }));
    assert_ne!(
        store.get(doc_a).unwrap().labels_fingerprint(),
        store.get(doc_b).unwrap().labels_fingerprint(),
        "different seeds intern differently; the documents must not share index keys"
    );

    // Warm both documents' index entries for two queries each.
    let warm_queries = ["patient", "patient/record/diagnosis"];
    for id in [doc_a, doc_b] {
        for q in warm_queries {
            service
                .evaluate_corpus(&store, &[(id, q)], EvaluationMode::OptHyPE)
                .unwrap();
        }
    }
    let warm = service.stats();
    assert_eq!(warm.index_cached, 4, "two entries per document");
    assert_eq!(warm.index_misses, 4);

    let b_lookups = AtomicU64::new(0);
    std::thread::scope(|scope| {
        // Readers: keep B's entries under constant lookup traffic.
        for _ in 0..4 {
            let service = Arc::clone(&service);
            let store = Arc::clone(&store);
            let b_lookups = &b_lookups;
            scope.spawn(move || {
                for round in 0..50 {
                    let q = warm_queries[round % warm_queries.len()];
                    service
                        .evaluate_corpus(&store, &[(doc_b, q)], EvaluationMode::OptHyPE)
                        .unwrap();
                    b_lookups.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Writer: edit A mid-traffic with a label the corpus has never
        // seen, retiring A's fingerprint and sweeping its entries.
        let service = Arc::clone(&service);
        let store = Arc::clone(&store);
        scope.spawn(move || {
            let root = store.get(doc_a).unwrap().tree().root();
            let receipt = service
                .apply_edit(
                    &store,
                    doc_a,
                    &[EditOp::Insert {
                        parent: root,
                        position: 0,
                        subtree: smoqe_xml::parse_document("<annex>swept</annex>").unwrap(),
                    }],
                )
                .unwrap();
            assert_ne!(receipt.old_fingerprint, receipt.new_fingerprint);
        });
    });

    let stats = service.stats();
    // A's two stale entries are gone, B's two entries survived.
    assert_eq!(
        stats.index_invalidations, 2,
        "exactly A's entries were swept"
    );
    assert_eq!(stats.index_cached, 2, "B's entries remain resident");
    // Precision in the counters: not a single lookup of B missed — the
    // sweep never touched B's keys, so misses sit exactly at warm-up level.
    assert_eq!(
        stats.index_misses, warm.index_misses,
        "B's entries stayed hot through the edit: no rebuild ever happened"
    );
    assert_eq!(
        stats.index_hits,
        warm.index_hits + b_lookups.load(Ordering::Relaxed),
        "every concurrent lookup of B was a cache hit"
    );
    // And B still hits after the dust settles, while A's retired id is gone.
    service
        .evaluate_corpus(&store, &[(doc_b, "patient")], EvaluationMode::OptHyPE)
        .unwrap();
    assert_eq!(service.stats().index_misses, warm.index_misses);
    assert!(!store.contains(doc_a), "the edit retired A's old version");
}

#[test]
fn concurrent_stats_snapshots_never_block_progress() {
    // One writer thread evaluating, several reader threads polling stats():
    // no deadlock, and the final counters balance.
    let service = Arc::new(QueryService::hospital_demo());
    let document = Arc::new(doc());
    std::thread::scope(|scope| {
        for _ in 0..3 {
            let service = Arc::clone(&service);
            scope.spawn(move || {
                for _ in 0..200 {
                    let s = service.stats();
                    assert!(s.compiled_hits + s.compiled_misses <= 100);
                }
            });
        }
        let service = Arc::clone(&service);
        let document = Arc::clone(&document);
        scope.spawn(move || {
            for i in 0..100 {
                let q = if i % 2 == 0 {
                    "patient"
                } else {
                    "patient/record"
                };
                service
                    .evaluate(q, &document, EvaluationMode::HyPE)
                    .unwrap();
            }
        });
    });
    let stats = service.stats();
    assert_eq!(stats.compiled_hits + stats.compiled_misses, 100);
    assert_eq!(stats.compiled_misses, 2);
}
