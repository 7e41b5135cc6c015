//! The query-service layer: compiled-query caching and batched evaluation.
//!
//! Simulates a serving workload against the σ₀ research view: a hot set of
//! view queries arrives over and over, across several hospital documents.
//! The [`smoqe::QueryService`] compiles (rewrites) each distinct query once,
//! caches the OptHyPE reachability indexes per document family, and can push
//! a whole batch of queries through a single HyPE pass.
//!
//! Run with: `cargo run --example query_service`

use smoqe::{EvaluationMode, QueryService};
use smoqe_examples::{section, timed};
use smoqe_toxgene::{generate_hospital, HospitalConfig};

fn main() {
    let service = QueryService::hospital_demo();
    println!(
        "query service over the hospital research view σ₀ (fingerprint {:#018x})",
        service.fingerprint()
    );

    let documents: Vec<_> = (0..3)
        .map(|seed| {
            generate_hospital(&HospitalConfig {
                patients: 120,
                heart_disease_fraction: 0.35,
                max_ancestor_depth: 2,
                seed,
                ..Default::default()
            })
        })
        .collect();

    // The hot query set. Note the first two are *textually* different but
    // normalize to the same query — the cache sees one entry.
    let queries = [
        "patient/record/diagnosis",
        "./patient/./record/diagnosis",
        "patient[*//record/diagnosis/text()='heart disease']",
        "(patient/parent)*/patient[record]",
        "patient[not(parent)]",
    ];

    section("Serving 5 rounds of the hot query set (OptHyPE)");
    let (_, cold_ms) = timed(|| {
        for doc in &documents {
            for q in &queries {
                service.evaluate(q, doc, EvaluationMode::OptHyPE).unwrap();
            }
        }
    });
    let (_, warm_ms) = timed(|| {
        for _ in 0..4 {
            for doc in &documents {
                for q in &queries {
                    service.evaluate(q, doc, EvaluationMode::OptHyPE).unwrap();
                }
            }
        }
    });
    println!("first round (cold caches): {cold_ms:>8.2} ms");
    println!(
        "next 4 rounds (warm):      {warm_ms:>8.2} ms ({:.2} ms/round)",
        warm_ms / 4.0
    );
    let stats = service.stats();
    println!(
        "compiled queries: {} cached, {} hits / {} misses (normalization merged {} texts)",
        stats.compiled_cached,
        stats.compiled_hits,
        stats.compiled_misses,
        queries.len() as u64 - stats.compiled_misses,
    );
    println!(
        "reachability indexes: {} cached, {} hits / {} misses",
        stats.index_cached, stats.index_hits, stats.index_misses
    );

    section("Batched evaluation: one pass answers the whole query set");
    let doc = &documents[0];
    let batch = service
        .evaluate_batch(&queries, doc, EvaluationMode::OptHyPE)
        .unwrap();
    println!(
        "document: {} nodes; {} query texts deduplicated to {} distinct queries",
        batch.stats.nodes_total,
        queries.len(),
        batch.stats.queries
    );
    println!(
        "sequential node visits: {:>7} (sum of per-query passes)",
        batch.stats.sequential_node_visits
    );
    println!(
        "batched node visits:    {:>7} ({:.2}x sharing, {} visits saved)",
        batch.stats.nodes_visited,
        batch.stats.sharing_factor(),
        batch.stats.visits_saved()
    );
    for (q, r) in queries.iter().zip(&batch.results) {
        let solo = service.evaluate(q, doc, EvaluationMode::OptHyPE).unwrap();
        assert_eq!(
            r.answers, solo.answers,
            "batched answers equal solo answers"
        );
        println!(
            "  {:>4} answers, {:>6} nodes visited by this query  <-  {q}",
            r.answers.len(),
            r.stats.nodes_visited
        );
    }

    section("Summary");
    println!(
        "every repeated query skipped the rewrite+compile path ({} cache hits),",
        service.stats().compiled_hits
    );
    println!(
        "and a batch of {} queries traversed the document once, not {} times.",
        queries.len(),
        queries.len()
    );
}
