//! Skewed-document parallel throughput (PR 9) — shard re-splitting under
//! an adversarial top-level fan-out where one subtree holds ≥ 80% of the
//! document.
//!
//! Before re-splitting, the parallel evaluator's unit of work was one
//! top-level child: on this document every budget collapsed to (almost)
//! sequential wall-clock, because whichever worker drew the dominant
//! subtree ran ~5× longer than the rest of the pool combined. The split
//! planner now turns the dominant child into a *spine* whose children are
//! tasks of their own, claimed off one atomic counter like every other
//! task, so no single task dominates the pool.
//!
//! Two parts:
//!
//! 1. A **correctness + throughput report** (printed first), doubling as a
//!    smoke test in CI:
//!    * the document's dominant subtree really holds ≥ 80% of the nodes
//!      (pinning the adversarial shape against generator drift);
//!    * parallel answers **and statistics** equal the sequential engines'
//!      at thread budgets {1, 2, 4, 8};
//!    * `max_shard_fraction` (the skew diagnostic new in this PR) is
//!      reported per budget and must stay well below the dominant
//!      subtree's ~99% share once re-splitting kicks in;
//!    * on hardware with **≥ 2 cores** the report *asserts* a ≥ 1.25×
//!      node-throughput win at 2 threads, and on **≥ 4 cores** a ≥ 1.4×
//!      win at 4 threads — impossible without re-splitting, since the
//!      dominant subtree alone is > 80% of the work. With fewer cores than
//!      threads a gate is reported as skipped with the core count
//!      recorded in the JSON (`"enforced": false`).
//!
//! 2. **Timing series** (Criterion): sequential vs parallel at each
//!    budget on the identical skewed document.
//!
//! Run with: `cargo bench --bench skewed_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per series.)

use std::io::Write as _;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use smoqe_automata::{compile_query, CompiledMfa};
use smoqe_bench::{paired_node_throughput, run_solo};
use smoqe_hype::{evaluate_tree, CompiledBatchQuery};
use smoqe_toxgene::{generate_skewed_hospital, HospitalConfig};
use smoqe_xml::XmlTree;
use smoqe_xpath::parse_path;

/// Thread budgets of the measured series.
const BUDGETS: &[usize] = &[1, 2, 4, 8];

/// The solo query of the report: broad enough to keep most of the document
/// live, so scheduling (not pruning) dominates the comparison.
const SOLO_QUERY: &str = "//diagnosis";

/// Batch workload: a small mixed set over the hospital alphabet.
const BATCH_QUERIES: &[&str] = &[
    "//diagnosis",
    "department/patient/pname",
    "//patient[visit/treatment/medication]",
    "department/patient[visit]/visit/date",
];

/// The adversarial document: department 0 absorbs 85% of the patients, so
/// one top-level subtree dwarfs the other three combined.
fn bench_document() -> XmlTree {
    generate_skewed_hospital(
        &HospitalConfig {
            patients: 2_000,
            departments: 4,
            heart_disease_fraction: 0.3,
            max_ancestor_depth: 2,
            sibling_probability: 0.3,
            visits_per_patient: 2,
            test_visit_fraction: 0.3,
            seed: 2009,
        },
        0.85,
    )
}

/// Appends one custom JSON line next to the Criterion records.
fn emit_json(line: &str) {
    let Ok(path) = std::env::var("SMOQE_BENCH_JSON") else { return };
    if path.is_empty() {
        return;
    }
    if let Ok(mut file) = std::fs::OpenOptions::new().create(true).append(true).open(&path) {
        let _ = writeln!(file, "{line}");
    }
}

/// Half the measured time of the first throughput pass at each budget (see
/// [`paired_node_throughput`]).
const WINDOW: Duration = Duration::from_millis(700);

/// Part 1: shape pin, differential gates, skew diagnostics, and (hardware
/// permitting) the 2- and 4-thread speedup assertions.
fn correctness_and_throughput_report(tree: &XmlTree, workload: &[Arc<CompiledMfa>]) {
    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Pin the adversarial shape: one top-level subtree ≥ 80% of the nodes.
    let shares: Vec<usize> = tree
        .children(tree.root())
        .iter()
        .map(|&c| tree.subtree_size(c))
        .collect();
    let dominant = *shares.iter().max().expect("root has children");
    assert!(
        dominant * 10 >= tree.len() * 8,
        "the dominant subtree must hold ≥80% of the document ({dominant}/{} nodes)",
        tree.len()
    );
    println!(
        "# Skewed parallel evaluation on a {}-node document — dominant top-level subtree \
         {dominant} nodes ({:.1}%), {} batch queries, {cores} core(s)",
        tree.len(),
        100.0 * dominant as f64 / tree.len() as f64,
        workload.len()
    );

    let queries: Vec<CompiledBatchQuery> = workload
        .iter()
        .map(|ir| CompiledBatchQuery::new(Arc::clone(ir)))
        .collect();
    let solo_ir = Arc::new(CompiledMfa::new(
        &compile_query(&parse_path(SOLO_QUERY).expect("solo query parses")),
    ));

    // Differential gate at every measured budget: re-splitting must change
    // nothing observable but wall-clock time (and the skew diagnostic,
    // which is excluded from `HypeStats` equality).
    let sequential = evaluate_tree(tree, tree.root(), &queries, 1);
    let solo_sequential = run_solo(tree, &solo_ir, None, 1);
    for &threads in BUDGETS {
        let parallel = evaluate_tree(tree, tree.root(), &queries, threads);
        assert_eq!(parallel.stats, sequential.stats, "aggregate stats @{threads}t");
        for (i, (p, s)) in parallel.results.iter().zip(&sequential.results).enumerate() {
            assert_eq!(p.answers, s.answers, "answers differ at query {i} @{threads}t");
            assert_eq!(p.stats, s.stats, "stats differ at query {i} @{threads}t");
        }
        let solo_parallel = run_solo(tree, &solo_ir, None, threads);
        assert_eq!(solo_parallel.answers, solo_sequential.answers, "solo @{threads}t");
        assert_eq!(solo_parallel.stats, solo_sequential.stats, "solo @{threads}t");

        // The skew diagnostic: with re-splitting no single task may cover
        // anything close to the dominant subtree's ~85% share. Budget 1 is
        // the sequential walk, which forms no shard at all.
        let frac = solo_parallel.stats.max_shard_fraction;
        if threads == 1 {
            assert_eq!(frac, 0.0, "budget 1 runs the sequential walk, unsharded");
        } else {
            assert!(
                frac > 0.0 && frac < 0.5,
                "re-splitting bounds the largest task well below the dominant \
                 subtree's share (max_shard_fraction = {frac:.3} @{threads}t)"
            );
        }
        emit_json(&format!(
            "{{\"id\": \"skewed_throughput/max_shard_fraction/{threads}t\", \
             \"max_shard_fraction\": {frac:.4}, \"cores\": {cores}}}"
        ));
        println!("max_shard_fraction @{threads}t: {frac:.3}");
    }
    println!("differential gate: parallel ≡ sequential (answers + stats) at {BUDGETS:?} threads");

    // Node-throughput series: sequential-equivalent visited nodes per
    // second over the batched workload, each budget's passes alternating
    // with the sequential walk's.
    let mut speedup_at = Vec::new();
    let mut sequential_rates = Vec::new();
    for &threads in BUDGETS {
        let (sequential_nps, nps) = paired_node_throughput(tree, &queries, threads, WINDOW);
        sequential_rates.push(sequential_nps);
        let speedup = nps / sequential_nps;
        speedup_at.push((threads, speedup));
        emit_json(&format!(
            "{{\"id\": \"skewed_throughput/nodes_per_sec/parallel_{threads}t\", \
             \"nodes_per_sec\": {nps:.0}, \"speedup\": {speedup:.3}, \"cores\": {cores}}}"
        ));
        println!(
            "node throughput (batch): parallel @{threads}t {:.2} Mnodes/s ({speedup:.2}x \
             the alternating sequential passes' {:.2} Mnodes/s)",
            nps / 1e6,
            sequential_nps / 1e6
        );
    }
    let sequential_nps = sequential_rates.iter().sum::<f64>() / sequential_rates.len() as f64;
    emit_json(&format!(
        "{{\"id\": \"skewed_throughput/nodes_per_sec/sequential\", \
         \"nodes_per_sec\": {sequential_nps:.0}, \"cores\": {cores}}}"
    ));
    println!(
        "node throughput (batch): sequential {:.2} Mnodes/s (mean)",
        sequential_nps / 1e6
    );

    // The speed-up gates, where the hardware can express one: ≥1.25x at 2
    // threads from 2 cores on, ≥1.4x at 4 threads from 4 cores on.
    // A non-split evaluator cannot pass the 4-thread gate here: the
    // dominant subtree alone is > 80% of the work, capping any per-child
    // scheduler at ~1.2x.
    let speedup = |threads: usize| {
        speedup_at
            .iter()
            .find(|&&(t, _)| t == threads)
            .expect("a measured budget")
            .1
    };
    speedup_gate(tree, &queries, cores, 2, speedup(2), 1.25);
    speedup_gate(tree, &queries, cores, 4, speedup(4), 1.4);
    println!();
}

/// One node-throughput speed-up gate: `threads` workers against the
/// sequential walk, enforced on hardware with at least `threads` cores
/// (on fewer, scoped threads time-slice and no wall-clock win is
/// physically possible, so the gate is reported as skipped with the core
/// count recorded in the JSON). Both measurements alternate sequential and
/// parallel passes after a warm-up ([`paired_node_throughput`]). Shared
/// runners can still have a noisy neighbor land inside the first one, so a
/// first reading below `threshold` is re-measured once over a longer
/// window and the better ratio kept before failing the build.
fn speedup_gate(
    tree: &XmlTree,
    queries: &[CompiledBatchQuery],
    cores: usize,
    threads: usize,
    first_pass: f64,
    threshold: f64,
) {
    let mut speedup = first_pass;
    let enforced = cores >= threads;
    if enforced && speedup < threshold {
        let retry_window = Duration::from_millis(2_500);
        let (sequential_retry, parallel_retry) =
            paired_node_throughput(tree, queries, threads, retry_window);
        let retried = parallel_retry / sequential_retry;
        println!("speedup gate @{threads}t: first pass {speedup:.2}x, retry pass {retried:.2}x");
        speedup = speedup.max(retried);
    }
    emit_json(&format!(
        "{{\"id\": \"skewed_throughput/speedup_gate_{threads}t\", \"speedup\": {speedup:.3}, \
         \"threshold\": {threshold}, \"cores\": {cores}, \"enforced\": {enforced}}}"
    ));
    if enforced {
        assert!(
            speedup >= threshold,
            "{threads}-thread node throughput must be ≥{threshold}x sequential on \
             ≥{threads} cores (measured {speedup:.2}x on {cores} cores, best of two passes)"
        );
        println!(
            "speedup gate: {speedup:.2}x at {threads} threads (≥{threshold}x required) — PASS"
        );
    } else {
        println!(
            "speedup gate @{threads}t: SKIPPED ({cores} core(s) available; measured \
             {speedup:.2}x). Enforced on ≥{threads}-core hardware."
        );
    }
}

/// Part 2: wall-clock timing series on identical inputs.
fn timing(c: &mut Criterion, tree: &XmlTree, workload: &[Arc<CompiledMfa>]) {
    let queries: Vec<CompiledBatchQuery> = workload
        .iter()
        .map(|ir| CompiledBatchQuery::new(Arc::clone(ir)))
        .collect();
    let solo_ir = Arc::new(CompiledMfa::new(
        &compile_query(&parse_path(SOLO_QUERY).expect("solo query parses")),
    ));
    let batch_label = format!("{}q", workload.len());

    let mut group = c.benchmark_group("skewed_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_with_input(
        BenchmarkId::new("sequential_batched", &batch_label),
        tree,
        |b, tree| {
            b.iter(|| {
                evaluate_tree(tree, tree.root(), &queries, 1)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    for &threads in BUDGETS {
        group.bench_with_input(
            BenchmarkId::new(format!("parallel_batched_{threads}t"), &batch_label),
            tree,
            |b, tree| {
                b.iter(|| {
                    evaluate_tree(tree, tree.root(), &queries, threads)
                        .results
                        .iter()
                        .map(|r| r.answers.len())
                        .sum::<usize>()
                })
            },
        );
    }

    group.bench_with_input(BenchmarkId::new("sequential", "solo"), tree, |b, tree| {
        b.iter(|| run_solo(tree, &solo_ir, None, 1).answers.len())
    });
    for &threads in [1usize, 4].iter() {
        group.bench_with_input(
            BenchmarkId::new(format!("parallel_{threads}t"), "solo"),
            tree,
            |b, tree| b.iter(|| run_solo(tree, &solo_ir, None, threads).answers.len()),
        );
    }
    group.finish();
}

fn skewed_throughput(c: &mut Criterion) {
    let tree = bench_document();
    let workload: Vec<Arc<CompiledMfa>> = BATCH_QUERIES
        .iter()
        .map(|q| Arc::new(CompiledMfa::new(&compile_query(&parse_path(q).expect("parses")))))
        .collect();
    correctness_and_throughput_report(&tree, &workload);
    timing(c, &tree, &workload);
}

criterion_group!(benches, skewed_throughput);
criterion_main!(benches);
