//! Figure 9 — regular XPath query evaluation times over documents of
//! increasing size: HyPE vs OptHyPE vs OptHyPE-C, plus the translation
//! baseline (the role Galax plays in the paper) measured once per series in
//! the `galax_gap` group.
//!
//! Series: `fig9{a,b,c}/<system>/<document size>` and
//! `galax_gap/{translation_smallest, HyPE_largest}`.
//! Expected shape (paper): the three HyPE variants scale linearly and the
//! optimised variants win; the translation baseline on the *smallest*
//! document already costs more than HyPE on the *largest*.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use smoqe_automata::compile_query;
use smoqe_baseline::evaluate_by_translation;
use smoqe_bench::{document_series, fig9_queries, ir, run_solo};
use smoqe_hype::ReachabilityIndex;
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xpath::parse_path;

fn fig9(c: &mut Criterion) {
    let documents = document_series(4);
    let dtd = hospital_document_dtd();

    for (figure, query_text) in fig9_queries() {
        let query = parse_path(query_text).expect("benchmark query parses");
        let mfa = compile_query(&query);
        let ir = ir(&mfa);
        let mut group = c.benchmark_group(figure);
        group
            .sample_size(10)
            .warm_up_time(Duration::from_millis(500))
            .measurement_time(Duration::from_secs(2));

        for doc in &documents {
            let index = ReachabilityIndex::new(&mfa, &dtd, doc.tree.labels());
            let cindex = ReachabilityIndex::new_compressed(&mfa, &dtd, doc.tree.labels());

            group.bench_with_input(
                BenchmarkId::new("HyPE", &doc.label),
                &doc.tree,
                |b, tree| b.iter(|| run_solo(tree, &ir, None, 1).answers.len()),
            );
            group.bench_with_input(
                BenchmarkId::new("OptHyPE", &doc.label),
                &doc.tree,
                |b, tree| b.iter(|| run_solo(tree, &ir, Some(&index), 1).answers.len()),
            );
            group.bench_with_input(
                BenchmarkId::new("OptHyPE-C", &doc.label),
                &doc.tree,
                |b, tree| b.iter(|| run_solo(tree, &ir, Some(&cindex), 1).answers.len()),
            );
        }
        group.finish();
    }

    // The "Galax gap": the translation-based evaluator on the smallest
    // document vs HyPE on the largest (paper: the former needs more time).
    let smallest = &documents.first().expect("non-empty series").tree;
    let largest = &documents.last().expect("non-empty series").tree;
    let (_, query_text) = fig9_queries()[0];
    let query = parse_path(query_text).unwrap();
    let ir = ir(&compile_query(&query));
    let mut group = c.benchmark_group("galax_gap");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("translation_on_smallest", |b| {
        b.iter(|| evaluate_by_translation(smallest, &query).len())
    });
    group.bench_function("HyPE_on_largest", |b| {
        b.iter(|| run_solo(largest, &ir, None, 1).answers.len())
    });
    group.finish();
}

criterion_group!(benches, fig9);
criterion_main!(benches);
