//! Section-7 figure grid swept across every registered domain (PR 10) —
//! the fig9-style HyPE / OptHyPE / OptHyPE-C comparison, previously run
//! only on the hospital pair, replayed over the domain registry (`bom`,
//! `logs`, `social` alongside `hospital`).
//!
//! Two parts:
//!
//! 1. A **grid report** (printed first, one JSON line per cell with
//!    `SMOQE_BENCH_JSON` set): for every domain × document scale × query ×
//!    system, the evaluations-per-second over a short window, the node-visit
//!    count, and the answer count. The report doubles as a differential
//!    gate: the three systems must return identical answers in every cell.
//!
//! 2. **Timing series** (Criterion): each domain's representative view
//!    query at the largest grid scale, through the three systems —
//!    `domain_grid/<system>/<domain>`.
//!
//! Queries per domain: the first *document* query of the registry corpus
//! (compiled directly) and the first *view* query (through σ₀ rewriting),
//! so the grid exercises both halves of the pipeline in every domain.
//!
//! Run with: `cargo bench --bench domain_grid`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per cell.)

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use smoqe::SmoqeEngine;
use std::sync::Arc;

use smoqe_automata::{compile_query, CompiledMfa, Mfa};
use smoqe_bench::{emit_json, ir, run_solo};
use smoqe_hype::ReachabilityIndex;
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{all_domains, DocShape, Domain};
use smoqe_xml::XmlTree;
use smoqe_xpath::parse_path;

/// Document scales of the grid (multiples of each domain's base size).
const SCALES: &[usize] = &[1, 2, 4];

/// Measurement window of one grid cell.
const WINDOW: Duration = Duration::from_millis(120);

/// One compiled query of the grid, tagged with its origin.
struct GridQuery {
    /// `doc:<q>` or `view:<q>` — matches the differential suites' tags.
    tag: String,
    mfa: Mfa,
    /// `mfa`'s execution IR, compiled once.
    ir: Arc<CompiledMfa>,
}

/// The two representative queries of a domain: its first document query
/// (compiled directly) and its first view query (through rewriting).
fn grid_queries(domain: &Domain) -> Vec<GridQuery> {
    let engine = SmoqeEngine::new(domain.view.clone()).expect("registered views check");
    let doc_query = domain.document_queries.first().expect("non-empty corpus");
    let view_query = domain.view_queries.first().expect("non-empty corpus");
    let doc_mfa = compile_query(&parse_path(doc_query).expect("registry queries parse"));
    let view_mfa = engine
        .compile(view_query)
        .expect("registry view queries rewrite")
        .mfa()
        .clone();
    vec![
        GridQuery {
            tag: format!("doc:{doc_query}"),
            ir: ir(&doc_mfa),
            mfa: doc_mfa,
        },
        GridQuery {
            tag: format!("view:{view_query}"),
            ir: ir(&view_mfa),
            mfa: view_mfa,
        },
    ]
}

/// Evaluations-per-second of `f` over [`WINDOW`].
fn evals_per_sec(f: &mut dyn FnMut() -> usize) -> f64 {
    let start = Instant::now();
    let mut evals = 0u64;
    while start.elapsed() < WINDOW {
        f();
        evals += 1;
    }
    evals as f64 / start.elapsed().as_secs_f64()
}

/// Part 1: the full grid — throughput + visit counts per cell, with the
/// three systems' answers pinned equal.
fn grid_report(domains: &[Domain]) {
    println!(
        "# Domain figure grid — {} domains × {:?} scales × 2 queries × 3 systems",
        domains.len(),
        SCALES
    );
    for domain in domains {
        let dtd = domain.document_dtd().clone();
        let queries = grid_queries(domain);
        for &scale in SCALES {
            let doc = domain.generate(DocShape::Standard, scale, STANDARD_SEED);
            for q in &queries {
                let index = ReachabilityIndex::new(&q.mfa, &dtd, doc.labels());
                let cindex = ReachabilityIndex::new_compressed(&q.mfa, &dtd, doc.labels());

                let plain = run_solo(&doc, &q.ir, None, 1);
                let opt = run_solo(&doc, &q.ir, Some(&index), 1);
                let optc = run_solo(&doc, &q.ir, Some(&cindex), 1);
                assert_eq!(
                    plain.answers, opt.answers,
                    "{}/{} ×{scale}: OptHyPE diverges from HyPE",
                    domain.name, q.tag
                );
                assert_eq!(
                    opt.answers, optc.answers,
                    "{}/{} ×{scale}: OptHyPE-C diverges from OptHyPE",
                    domain.name, q.tag
                );
                assert_eq!(
                    opt.stats, optc.stats,
                    "{}/{} ×{scale}: the compressed index changes the visit profile",
                    domain.name, q.tag
                );

                let cells: [(&str, f64, u64); 3] = [
                    (
                        "HyPE",
                        evals_per_sec(&mut || run_solo(&doc, &q.ir, None, 1).answers.len()),
                        plain.stats.nodes_visited as u64,
                    ),
                    (
                        "OptHyPE",
                        evals_per_sec(&mut || run_solo(&doc, &q.ir, Some(&index), 1).answers.len()),
                        opt.stats.nodes_visited as u64,
                    ),
                    (
                        "OptHyPE-C",
                        evals_per_sec(&mut || {
                            run_solo(&doc, &q.ir, Some(&cindex), 1).answers.len()
                        }),
                        optc.stats.nodes_visited as u64,
                    ),
                ];
                for (system, eps, visits) in cells {
                    emit_json(&format!(
                        "{{\"id\": \"domain_grid/{}/{}/x{scale}/{system}\", \
                         \"nodes\": {}, \"answers\": {}, \"node_visits\": {visits}, \
                         \"evals_per_sec\": {eps:.1}}}",
                        domain.name,
                        q.tag,
                        doc.len(),
                        plain.answers.len()
                    ));
                    println!(
                        "{:>8} ×{scale} {:<9} {:>9.0} evals/s  {:>8} visits  {:>5} answers  [{}]",
                        domain.name,
                        system,
                        eps,
                        visits,
                        plain.answers.len(),
                        q.tag
                    );
                }
            }
        }
    }
    println!("differential gate: HyPE ≡ OptHyPE ≡ OptHyPE-C in every grid cell");
    println!();
}

/// Part 2: Criterion timing on each domain's view query at the largest
/// grid scale.
fn timing(c: &mut Criterion, domains: &[Domain]) {
    let scale = *SCALES.last().expect("non-empty scales");
    let mut group = c.benchmark_group("domain_grid");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));
    for domain in domains {
        let dtd = domain.document_dtd().clone();
        let queries = grid_queries(domain);
        let view = queries.into_iter().nth(1).expect("two grid queries");
        let doc: XmlTree = domain.generate(DocShape::Standard, scale, STANDARD_SEED);
        let index = ReachabilityIndex::new(&view.mfa, &dtd, doc.labels());
        let cindex = ReachabilityIndex::new_compressed(&view.mfa, &dtd, doc.labels());

        group.bench_with_input(BenchmarkId::new("HyPE", domain.name), &doc, |b, doc| {
            b.iter(|| run_solo(doc, &view.ir, None, 1).answers.len())
        });
        group.bench_with_input(BenchmarkId::new("OptHyPE", domain.name), &doc, |b, doc| {
            b.iter(|| run_solo(doc, &view.ir, Some(&index), 1).answers.len())
        });
        group.bench_with_input(
            BenchmarkId::new("OptHyPE-C", domain.name),
            &doc,
            |b, doc| b.iter(|| run_solo(doc, &view.ir, Some(&cindex), 1).answers.len()),
        );
    }
    group.finish();
}

fn domain_grid(c: &mut Criterion) {
    let domains = all_domains();
    grid_report(&domains);
    timing(c, &domains);
}

criterion_group!(benches, domain_grid);
criterion_main!(benches);
