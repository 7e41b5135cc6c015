//! Theorem 5.1 / Theorem 6.2 — rewriting cost and end-to-end query
//! answering cost on virtual views.
//!
//! Criterion series:
//!
//! * `rewrite_time/<query size>` — time for algorithm `rewrite` to produce
//!   the MFA over σ₀ as the query grows (expected: low-polynomial growth,
//!   milliseconds even for large queries);
//! * `view_answering/<method>` — end-to-end time to answer a fixed query on
//!   the virtual view: rewrite+HyPE (SMOQE) vs materialize-then-evaluate
//!   (expected: SMOQE wins and the gap grows with the hidden fraction of
//!   the document).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

use smoqe_bench::{ir, medium_document, run_solo};
use smoqe_rewrite::rewrite_to_mfa;
use smoqe_views::{hospital_view, materialize};
use smoqe_xpath::{evaluate, parse_path};

fn rewrite_time(c: &mut Criterion) {
    let view = hospital_view();
    let mut group = c.benchmark_group("rewrite_time");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(1));
    for n in [1usize, 2, 4, 8, 16] {
        let query_text = format!(
            "patient{}[record/diagnosis/text()='heart disease']",
            "/parent/patient".repeat(n)
        );
        let query = parse_path(&query_text).unwrap();
        group.bench_with_input(BenchmarkId::from_parameter(query.size()), &query, |b, q| {
            b.iter(|| rewrite_to_mfa(q, &view).unwrap().size())
        });
    }
    group.finish();
}

fn view_answering(c: &mut Criterion) {
    let view = hospital_view();
    let doc = medium_document();
    let query = parse_path("patient[*//record/diagnosis/text()='heart disease']").unwrap();
    let mut group = c.benchmark_group("view_answering");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));

    // The whole per-query cost: rewrite, IR compilation and the walk.
    group.bench_function("rewrite_plus_hype", |b| {
        b.iter(|| {
            let ir = ir(&rewrite_to_mfa(&query, &view).unwrap());
            run_solo(&doc, &ir, None, 1).answers.len()
        })
    });
    group.bench_function("precompiled_hype", |b| {
        let ir = ir(&rewrite_to_mfa(&query, &view).unwrap());
        b.iter(|| run_solo(&doc, &ir, None, 1).answers.len())
    });
    group.bench_function("materialize_then_evaluate", |b| {
        b.iter(|| {
            let m = materialize(&view, &doc).unwrap();
            evaluate(&m.tree, m.tree.root(), &query).len()
        })
    });
    group.finish();
}

criterion_group!(benches, rewrite_time, view_answering);
criterion_main!(benches);
