//! Compiled-IR evaluation throughput (PR 4) — the bitset `CompiledMfa`
//! engines vs the interpreted reference engines over the same workload.
//!
//! Two parts:
//!
//! 1. A **correctness + allocation report** (printed first). For the
//!    mid-sized hospital document it *asserts* the PR's acceptance
//!    criteria — so the bench doubles as a smoke test in CI:
//!    * compiled answers **and `HypeStats`** equal the interpreted
//!      engines', solo and batched (the corpus-wide differential suites
//!      check the same over both corpora; this pins the bench workload);
//!    * the compiled engine **does not allocate in the per-node steady
//!      state**: growing the document only grows allocations through the
//!      output (`cans` arena growth, answer sets), measured by a counting
//!      global allocator as *allocations per additionally visited node*
//!      and asserted far below one — while the interpreted engine
//!      allocates multiple times per node;
//!    * compiled node throughput (visited nodes / second) beats the
//!      interpreted path on the batch workload.
//!
//! 2. **Timing series** (Criterion): solo, 10-query batch and streamed
//!    evaluation, interpreted vs compiled, on identical pre-parsed input.
//!
//! Run with: `cargo bench --bench compiled_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per timing.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use smoqe_automata::{compile_query, CompiledMfa, Mfa};
use smoqe_bench::{batch_workload_queries, medium_document, run_solo};
use smoqe_hype::interpreted::{self, BatchQuery};
use smoqe_hype::{evaluate_tree, CompiledBatchQuery, StreamHype};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::{to_xml_string, LabelInterner, XmlTree};
use smoqe_xpath::parse_path;
use std::sync::Arc;

/// Counts every heap allocation so the report can assert the compiled
/// engine's steady-state discipline. Counting is the only addition; all
/// calls forward to the system allocator.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The solo query of the report: broad enough to keep most of the document
/// live, so the comparison measures the per-node substrate, not pruning.
const SOLO_QUERY: &str = "//diagnosis";

fn workload_mfas() -> Vec<Mfa> {
    batch_workload_queries()
        .into_iter()
        .map(|q| compile_query(&parse_path(q).expect("workload query parses")))
        .collect()
}

fn sized_document(patients: usize) -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients,
        departments: 6,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        sibling_probability: 0.3,
        visits_per_patient: 2,
        test_visit_fraction: 0.3,
        seed: 2007,
    })
}

/// Allocations performed by one run of `f` (best of `runs`, to shed noise
/// from lazy one-time initialisation inside the first call).
fn allocs_during<T>(runs: usize, mut f: impl FnMut() -> T) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..runs {
        let before = allocations();
        let out = f();
        let spent = allocations() - before;
        criterion::black_box(out);
        best = best.min(spent);
    }
    best
}

/// Part 1: differential + allocation-discipline assertions and the
/// node-throughput report.
fn correctness_and_allocation_report(tree: &XmlTree, workload: &[Mfa]) {
    println!(
        "# Compiled-IR throughput on a {}-node hospital document, {} batch queries",
        tree.len(),
        workload.len()
    );

    let solo = compile_query(&parse_path(SOLO_QUERY).expect("solo query parses"));
    let compile_start = Instant::now();
    let solo_ir = Arc::new(CompiledMfa::new(&solo));
    let compile_secs = compile_start.elapsed().as_secs_f64();
    let workload_irs: Vec<Arc<CompiledMfa>> = workload
        .iter()
        .map(|m| Arc::new(CompiledMfa::new(m)))
        .collect();

    // Differential gate: answers AND stats equal the interpreted engines.
    let reference = interpreted::evaluate(tree, &solo);
    let compiled = run_solo(tree, &solo_ir, None, 1);
    assert_eq!(compiled.answers, reference.answers, "solo answers must match");
    assert_eq!(compiled.stats, reference.stats, "solo stats must match");
    let batch_queries: Vec<BatchQuery> = workload.iter().map(BatchQuery::new).collect();
    let compiled_queries: Vec<CompiledBatchQuery> = workload_irs
        .iter()
        .map(|ir| CompiledBatchQuery::new(Arc::clone(ir)))
        .collect();
    let reference_batch = interpreted::evaluate_batch(tree, &batch_queries);
    let compiled_batch = evaluate_tree(tree, tree.root(), &compiled_queries, 1);
    assert_eq!(compiled_batch.stats, reference_batch.stats, "batch stats must match");
    for (i, (c, r)) in compiled_batch
        .results
        .iter()
        .zip(&reference_batch.results)
        .enumerate()
    {
        assert_eq!(c.answers, r.answers, "batch answers differ at query {i}");
        assert_eq!(c.stats, r.stats, "batch per-query stats differ at query {i}");
    }

    // Allocation discipline, absolute: the compiled run allocates a small
    // fraction of what the interpreted run does on the same input.
    let compiled_allocs = allocs_during(3, || run_solo(tree, &solo_ir, None, 1));
    let interpreted_allocs = allocs_during(3, || interpreted::evaluate(tree, &solo));
    let visited = compiled.stats.nodes_visited as u64;
    assert!(
        compiled_allocs * 10 < interpreted_allocs,
        "compiled path must allocate <10% of the interpreted path \
         (compiled {compiled_allocs}, interpreted {interpreted_allocs})"
    );

    // Allocation discipline, per node: doubling the document must not add
    // per-node allocations — only output-proportional ones (answer sets,
    // amortised cans growth). Both trees are parsed and their IR runtimes
    // warmed before counting.
    let small = sized_document(700);
    let large = sized_document(1_400);
    let small_visits = run_solo(&small, &solo_ir, None, 1).stats.nodes_visited as u64;
    let large_visits = run_solo(&large, &solo_ir, None, 1).stats.nodes_visited as u64;
    let small_allocs = allocs_during(3, || run_solo(&small, &solo_ir, None, 1));
    let large_allocs = allocs_during(3, || run_solo(&large, &solo_ir, None, 1));
    let delta_allocs = large_allocs.saturating_sub(small_allocs);
    let delta_visits = large_visits - small_visits;
    let per_node = delta_allocs as f64 / delta_visits as f64;
    assert!(
        per_node < 0.25,
        "compiled steady state must not allocate per node: \
         {delta_allocs} extra allocations over {delta_visits} extra visited nodes \
         ({per_node:.4}/node)"
    );

    // Node throughput: visited element nodes per second, batch workload.
    let timed = |f: &mut dyn FnMut() -> u64| {
        let start = Instant::now();
        let mut nodes = 0u64;
        let mut iters = 0u32;
        while start.elapsed() < Duration::from_millis(600) {
            nodes += f();
            iters += 1;
        }
        (nodes as f64 / start.elapsed().as_secs_f64(), iters)
    };
    let (interp_nps, _) = timed(&mut || {
        interpreted::evaluate_batch(tree, &batch_queries)
            .results
            .iter()
            .map(|r| r.stats.nodes_visited as u64)
            .sum()
    });
    let (compiled_nps, _) = timed(&mut || {
        evaluate_tree(tree, tree.root(), &compiled_queries, 1)
            .results
            .iter()
            .map(|r| r.stats.nodes_visited as u64)
            .sum()
    });
    assert!(
        compiled_nps > interp_nps,
        "compiled node throughput ({compiled_nps:.0}/s) must beat interpreted ({interp_nps:.0}/s)"
    );

    println!(
        "allocations: compiled {compiled_allocs} vs interpreted {interpreted_allocs} \
         ({:.1}x fewer) over {visited} visited nodes",
        interpreted_allocs as f64 / compiled_allocs.max(1) as f64
    );
    println!(
        "steady state: {delta_allocs} extra allocations / {delta_visits} extra visited nodes \
         = {per_node:.4} allocs/node (interpreted: {:.1} allocs/node)",
        interpreted_allocs as f64 / visited as f64
    );
    println!(
        "node throughput (batch): interpreted {:.2} Mnodes/s, compiled {:.2} Mnodes/s ({:.2}x); \
         IR compile {compile_secs:.6}s, IR size {} bytes",
        interp_nps / 1e6,
        compiled_nps / 1e6,
        compiled_nps / interp_nps,
        solo_ir.memory_bytes()
    );
    println!();
}

/// Part 2: wall-clock timing of the two substrates on identical inputs.
fn timing(c: &mut Criterion, tree: &XmlTree, workload: &[Mfa]) {
    let solo = compile_query(&parse_path(SOLO_QUERY).expect("solo query parses"));
    let solo_ir = Arc::new(CompiledMfa::new(&solo));
    let workload_irs: Vec<Arc<CompiledMfa>> = workload
        .iter()
        .map(|m| Arc::new(CompiledMfa::new(m)))
        .collect();
    let xml = to_xml_string(tree);

    let mut group = c.benchmark_group("compiled_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_with_input(BenchmarkId::new("interpreted", "solo"), tree, |b, tree| {
        b.iter(|| interpreted::evaluate(tree, &solo).answers.len())
    });
    group.bench_with_input(BenchmarkId::new("compiled", "solo"), tree, |b, tree| {
        b.iter(|| run_solo(tree, &solo_ir, None, 1).answers.len())
    });

    let batch_label = format!("{}q", workload.len());
    group.bench_with_input(
        BenchmarkId::new("interpreted_batched", &batch_label),
        tree,
        |b, tree| {
            let queries: Vec<BatchQuery> = workload.iter().map(BatchQuery::new).collect();
            b.iter(|| {
                interpreted::evaluate_batch(tree, &queries)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("compiled_batched", &batch_label),
        tree,
        |b, tree| {
            let queries: Vec<CompiledBatchQuery> = workload_irs
                .iter()
                .map(|ir| CompiledBatchQuery::new(Arc::clone(ir)))
                .collect();
            b.iter(|| {
                evaluate_tree(tree, tree.root(), &queries, 1)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );

    group.bench_with_input(
        BenchmarkId::new("interpreted_stream", "solo"),
        &xml,
        |b, xml| {
            b.iter(|| {
                let mut reader = smoqe_xml::XmlStreamReader::new(xml.as_bytes());
                interpreted::evaluate_stream(&mut reader, &solo)
                    .expect("streams")
                    .0
                    .answers
                    .len()
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("compiled_stream", "solo"), &xml, |b, xml| {
        b.iter(|| {
            let mut reader = smoqe_xml::XmlStreamReader::new(xml.as_bytes());
            let query = CompiledBatchQuery::new(Arc::clone(&solo_ir));
            StreamHype::from_compiled(&[query], LabelInterner::new())
                .run(&mut reader)
                .expect("streams")
                .results[0]
                .answers
                .len()
        })
    });
    group.finish();
}

fn compiled_throughput(c: &mut Criterion) {
    let tree = medium_document();
    let workload = workload_mfas();
    correctness_and_allocation_report(&tree, &workload);
    timing(c, &tree, &workload);
}

criterion_group!(benches, compiled_throughput);
criterion_main!(benches);
