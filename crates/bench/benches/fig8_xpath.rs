//! Figure 8 — XPath query evaluation times over documents of increasing
//! size: the JAXP-style two-pass baseline vs HyPE vs OptHyPE vs OptHyPE-C.
//!
//! Series: `fig8{a,b,c}/<system>/<document size>`.
//! Expected shape (paper): all four scale linearly in document size;
//! HyPE beats the baseline by ~3x; OptHyPE/OptHyPE-C by ~4x and are nearly
//! identical to each other.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use smoqe_automata::compile_query;
use smoqe_baseline::two_pass::evaluate_two_pass_mfa;
use smoqe_bench::{document_series, fig8_queries, ir, run_solo};
use smoqe_hype::ReachabilityIndex;
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xpath::parse_path;

fn fig8(c: &mut Criterion) {
    let documents = document_series(4);
    let dtd = hospital_document_dtd();

    for (figure, query_text) in fig8_queries() {
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
                BenchmarkId::new("JAXP_two_pass", &doc.label),
                &doc.tree,
                |b, tree| b.iter(|| evaluate_two_pass_mfa(tree, &mfa).0.len()),
            );
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
}

criterion_group!(benches, fig8);
criterion_main!(benches);
