//! Batched multi-query throughput (PR 2) — N queries per document pass vs
//! N sequential passes, plus the query-service cache.
//!
//! Two parts:
//!
//! 1. A **visit-count report** (printed first): for the batch workload on
//!    the mid-sized hospital document, the physical node visits of one
//!    batched pass vs the sum of N sequential HyPE runs, in both pruning
//!    modes. The report *asserts* the PR's acceptance criterion — batched
//!    evaluation performs strictly fewer total node visits than the
//!    sequential sum — so the bench doubles as a smoke test in CI.
//! 2. **Timing series** (Criterion): `sequential` vs `batched` vs the
//!    warm-cache `service` front-end, per pruning mode.
//!
//! Run with: `cargo bench --bench batch_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per timing.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use std::sync::Arc;

use smoqe::{EvaluationMode, QueryService};
use smoqe_automata::{compile_query, CompiledMfa, Mfa};
use smoqe_bench::{batch_workload_queries, ir, medium_document, run_solo};
use smoqe_hype::{evaluate_tree, CompiledBatchQuery, ReachabilityIndex};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::XmlTree;
use smoqe_xpath::parse_path;

fn compile_workload() -> Vec<Mfa> {
    batch_workload_queries()
        .into_iter()
        .map(|q| compile_query(&parse_path(q).expect("workload query parses")))
        .collect()
}

fn build_indexes(mfas: &[Mfa], doc: &XmlTree) -> Vec<ReachabilityIndex> {
    let dtd = hospital_document_dtd();
    mfas.iter()
        .map(|m| ReachabilityIndex::new(m, &dtd, doc.labels()))
        .collect()
}

/// The workload as one batch of shared IRs, each pruned by its index when
/// `indexes` is given.
fn batch_of<'a>(
    irs: &[Arc<CompiledMfa>],
    indexes: Option<&'a [ReachabilityIndex]>,
) -> Vec<CompiledBatchQuery<'a>> {
    irs.iter()
        .enumerate()
        .map(|(i, ir)| CompiledBatchQuery {
            compiled: Arc::clone(ir),
            index: indexes.map(|ix| &ix[i]),
        })
        .collect()
}

/// Part 1: the visit-count report and the acceptance-criterion assertions.
fn visit_report(doc: &XmlTree, irs: &[Arc<CompiledMfa>], indexes: &[ReachabilityIndex]) {
    println!(
        "# Batched throughput on a {}-node hospital document, {} queries",
        doc.len(),
        irs.len()
    );
    for (mode, batch_queries) in [
        ("HyPE", batch_of(irs, None)),
        ("OptHyPE", batch_of(irs, Some(indexes))),
    ] {
        let batch = evaluate_tree(doc, doc.root(), &batch_queries, 1);
        let sequential: usize = batch_queries
            .iter()
            .map(|q| run_solo(doc, &q.compiled, q.index, 1).stats.nodes_visited)
            .sum();
        assert_eq!(
            batch.stats.sequential_node_visits, sequential,
            "per-query accounting must equal the solo runs ({mode})"
        );
        assert!(
            batch.stats.nodes_visited < sequential,
            "{mode}: batched pass must visit strictly fewer nodes \
             ({} batched vs {} sequential)",
            batch.stats.nodes_visited,
            sequential
        );
        println!(
            "{mode:<8} sequential visits: {sequential:>8}   batched visits: {:>8}   \
             saved: {:>8} ({:.2}x sharing)",
            batch.stats.nodes_visited,
            batch.stats.visits_saved(),
            batch.stats.sharing_factor()
        );
    }
    println!();
}

/// Part 2: wall-clock timing of the three serving strategies.
fn timing(
    c: &mut Criterion,
    doc: &XmlTree,
    irs: &[Arc<CompiledMfa>],
    indexes: &[ReachabilityIndex],
) {
    let mut group = c.benchmark_group("batch_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let doc_label = format!("{}q", irs.len());
    group.bench_with_input(
        BenchmarkId::new("sequential_HyPE", &doc_label),
        doc,
        |b, doc| {
            b.iter(|| {
                irs.iter()
                    .map(|ir| run_solo(doc, ir, None, 1).answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batched_HyPE", &doc_label),
        doc,
        |b, doc| {
            let queries = batch_of(irs, None);
            b.iter(|| {
                evaluate_tree(doc, doc.root(), &queries, 1)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("sequential_OptHyPE", &doc_label),
        doc,
        |b, doc| {
            b.iter(|| {
                irs.iter()
                    .zip(indexes)
                    .map(|(ir, i)| run_solo(doc, ir, Some(i), 1).answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("batched_OptHyPE", &doc_label),
        doc,
        |b, doc| {
            let queries = batch_of(irs, Some(indexes));
            b.iter(|| {
                evaluate_tree(doc, doc.root(), &queries, 1)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );

    // The service front-end over the σ₀ view: repeated view queries with a
    // warm compiled-query + index cache, batched vs one-at-a-time.
    let service = QueryService::hospital_demo();
    let view_queries = [
        "patient",
        "patient/record/diagnosis",
        "(patient/parent)*/patient[record]",
        "patient[not(parent)]",
        "patient[*//record/diagnosis/text()='heart disease']",
    ];
    for q in view_queries {
        service.evaluate(q, doc, EvaluationMode::OptHyPE).unwrap(); // warm the caches
    }
    group.bench_with_input(
        BenchmarkId::new("service_sequential_OptHyPE", view_queries.len()),
        doc,
        |b, doc| {
            b.iter(|| {
                view_queries
                    .iter()
                    .map(|q| {
                        service
                            .evaluate(q, doc, EvaluationMode::OptHyPE)
                            .unwrap()
                            .answers
                            .len()
                    })
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("service_batched_OptHyPE", view_queries.len()),
        doc,
        |b, doc| {
            b.iter(|| {
                service
                    .evaluate_batch(&view_queries, doc, EvaluationMode::OptHyPE)
                    .unwrap()
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

fn batch_throughput(c: &mut Criterion) {
    let doc = medium_document();
    let mfas = compile_workload();
    let indexes = build_indexes(&mfas, &doc);
    let irs: Vec<Arc<CompiledMfa>> = mfas.iter().map(ir).collect();
    visit_report(&doc, &irs, &indexes);
    timing(c, &doc, &irs, &indexes);
}

criterion_group!(benches, batch_throughput);
criterion_main!(benches);
