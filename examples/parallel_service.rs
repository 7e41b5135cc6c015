//! Parallel sharded evaluation through the thread-safe query service.
//!
//! Demonstrates the two concurrency layers added for serving heavy traffic:
//!
//! 1. **One service, many threads** — a single [`smoqe::QueryService`] is
//!    shared (plain `Arc`) by a pool of request threads; its segmented LRU
//!    caches hand every thread the same compiled query without recompiling.
//! 2. **One query, many threads** — on a document of at least
//!    `SHARD_FLOOR_NODES` live nodes, `evaluate` / `evaluate_batch` shard
//!    the traversal across the service's thread budget, with answers and
//!    statistics *identical* to a budget-1 service's sequential walk
//!    (checked live below).
//!
//! Run with: `cargo run --example parallel_service`

use std::sync::Arc;

use smoqe::{EvaluationMode, QueryService, ServiceConfig, SmoqeEngine};
use smoqe_examples::{section, timed};
use smoqe_toxgene::{generate_hospital, HospitalConfig};

fn main() {
    let service_at = |parallel_threads| {
        QueryService::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig {
                parallel_threads,
                ..ServiceConfig::default()
            },
        )
        .expect("σ₀ is a valid view")
    };
    let walking = service_at(1);
    let service = Arc::new(service_at(4));
    let doc = Arc::new(generate_hospital(&HospitalConfig {
        patients: 3_000,
        departments: 16,
        heart_disease_fraction: 0.35,
        max_ancestor_depth: 2,
        seed: 5,
        ..Default::default()
    }));
    assert!(doc.live_len() >= smoqe::service::SHARD_FLOOR_NODES);
    println!(
        "document: {} nodes, {} top-level shards; service thread budget: {}",
        doc.len(),
        doc.children(doc.root()).len(),
        service.parallel_threads()
    );

    let queries = [
        "patient/record/diagnosis",
        "patient[*//record/diagnosis/text()='heart disease']",
        "(patient/parent)*/patient[record]",
        "patient[not(parent)]",
    ];

    section("Sequential vs parallel: same answers, same statistics");
    for q in &queries {
        let (sequential, seq_ms) =
            timed(|| walking.evaluate(q, &doc, EvaluationMode::HyPE).unwrap());
        let (parallel, par_ms) = timed(|| service.evaluate(q, &doc, EvaluationMode::HyPE).unwrap());
        assert_eq!(parallel.answers, sequential.answers);
        assert_eq!(parallel.stats, sequential.stats);
        println!(
            "  `{q}`: {} answers, {} nodes visited — sequential {seq_ms:.1} ms, \
             parallel {par_ms:.1} ms (identical result)",
            sequential.answers.len(),
            sequential.stats.nodes_visited
        );
    }

    section("Batched: one sharded pass answers the whole hot set");
    let (sequential, seq_ms) = timed(|| {
        walking
            .evaluate_batch(&queries, &doc, EvaluationMode::HyPE)
            .unwrap()
    });
    let (parallel, par_ms) = timed(|| {
        service
            .evaluate_batch(&queries, &doc, EvaluationMode::HyPE)
            .unwrap()
    });
    assert_eq!(parallel.stats, sequential.stats);
    for (p, s) in parallel.results.iter().zip(&sequential.results) {
        assert_eq!(p.answers, s.answers);
        assert_eq!(p.stats, s.stats);
    }
    println!(
        "  {} queries, {} physical node visits (vs {} sequential-equivalent): \
         batch {seq_ms:.1} ms, parallel batch {par_ms:.1} ms (identical results)",
        parallel.stats.queries,
        parallel.stats.nodes_visited,
        parallel.stats.sequential_node_visits
    );

    section("Eight request threads sharing one service");
    let (hits_before, misses_before) = {
        let s = service.stats();
        (s.compiled_hits, s.compiled_misses)
    };
    std::thread::scope(|scope| {
        for t in 0..8 {
            let service = Arc::clone(&service);
            let doc = Arc::clone(&doc);
            let walking = &walking;
            scope.spawn(move || {
                for round in 0..5 {
                    let q = queries[(t + round) % queries.len()];
                    let a = service.evaluate(q, &doc, EvaluationMode::HyPE).unwrap();
                    let b = service
                        .evaluate_batch(&[q], &doc, EvaluationMode::HyPE)
                        .unwrap();
                    assert_eq!(a, b.results[0], "thread {t} round {round}");
                    let c = walking.evaluate(q, &doc, EvaluationMode::HyPE).unwrap();
                    assert_eq!(a.answers, c.answers, "thread {t} round {round}");
                }
            });
        }
    });
    let stats = service.stats();
    println!(
        "  80 requests served: {} cache hits, {} misses (every compilation shared), \
         {} compiled queries cached",
        stats.compiled_hits - hits_before,
        stats.compiled_misses - misses_before,
        stats.compiled_cached
    );
}
