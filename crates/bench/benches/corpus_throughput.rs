//! Across-documents corpus throughput (PR 6) — `smoqe_hype::corpus` and the
//! `DocumentStore`-backed `QueryService` front-ends against the sequential
//! per-pair loop.
//!
//! Two parts, mirroring `parallel_throughput`:
//!
//! 1. A **correctness + throughput report** (printed first), doubling as a
//!    smoke test in CI:
//!    * corpus-parallel answers **and per-pair `HypeStats`** equal the
//!      sequential loop's at every measured thread budget, at both layers
//!      (raw hype tasks and the service over a `DocumentStore`) — this is
//!      always asserted, on any hardware;
//!    * node throughput (visited nodes / second across the whole corpus)
//!      is measured sequentially and at 1/2/4/8 threads, and appended to
//!      `SMOQE_BENCH_JSON` alongside the Criterion timings;
//!    * on hardware with **≥ 4 cores** the report *asserts* a ≥ 1.5×
//!      node-throughput win at 4 threads. Across-documents routing has no
//!      shard-skew cap — each worker owns whole documents — so this gate
//!      is the easiest of the parallel gates to meet; on fewer cores it is
//!      reported as skipped (core count recorded in the JSON) because
//!      time-sliced threads cannot express a wall-clock win.
//!
//! 2. **Timing series** (Criterion): the corpus workload sequential vs
//!    parallel at each budget, plus the snapshot save/load codec and the
//!    three `DocumentStore` ingest routes.
//!
//! Run with: `cargo bench --bench corpus_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per series.)

use std::io::Write as _;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use smoqe::{DocumentStore, EvaluationMode, QueryService};
use smoqe_automata::{compile_query, CompiledMfa};
use smoqe_hype::{evaluate_corpus, CorpusTask};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::{snapshot, to_xml_string, XmlTree};
use smoqe_xpath::parse_path;

/// Thread budgets of the measured series.
const BUDGETS: &[usize] = &[1, 2, 4, 8];

/// Queries of the corpus workload — a broad scan, a deep path and a
/// filtered closure, so per-pair costs vary and the claim-counter routing
/// has skew to absorb.
const QUERIES: &[&str] = &["//diagnosis", "patient/record/diagnosis", "patient[not(parent)]"];

/// The corpus: several medium documents of varying size, the many-document
/// shape the across-documents axis exists for.
fn corpus() -> Vec<XmlTree> {
    (0..12)
        .map(|i| {
            generate_hospital(&HospitalConfig {
                patients: 240 + 60 * (i % 4),
                departments: 8,
                heart_disease_fraction: 0.3,
                max_ancestor_depth: 2,
                visits_per_patient: 2,
                seed: 4000 + i as u64,
                ..Default::default()
            })
        })
        .collect()
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

/// Nodes-per-second of `f` over a `window`, where `f` returns the node
/// visits of one full corpus pass.
fn node_throughput(window: Duration, f: &mut dyn FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut nodes = 0u64;
    while start.elapsed() < window {
        nodes += f();
    }
    nodes as f64 / start.elapsed().as_secs_f64()
}

/// The measurement window of the first throughput pass.
const WINDOW: Duration = Duration::from_millis(700);

fn corpus_tasks<'a>(docs: &'a [XmlTree], irs: &[Arc<CompiledMfa>]) -> Vec<CorpusTask<'a>> {
    docs.iter()
        .flat_map(|doc| irs.iter().map(move |ir| CorpusTask::new(doc, Arc::clone(ir))))
        .collect()
}

fn visited(results: &[smoqe_hype::HypeResult]) -> u64 {
    results.iter().map(|r| r.stats.nodes_visited as u64).sum()
}

/// Part 1: differential gates at both layers, the node-throughput series,
/// and (hardware permitting) the 4-thread speedup assertion.
fn correctness_and_throughput_report(docs: &[XmlTree], irs: &[Arc<CompiledMfa>]) {
    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let total_nodes: usize = docs.iter().map(XmlTree::len).sum();
    let tasks = corpus_tasks(docs, irs);
    println!(
        "# Corpus evaluation over {} documents ({total_nodes} nodes total), \
         {} queries, {} (document, query) pairs, {cores} core(s)",
        docs.len(),
        irs.len(),
        tasks.len()
    );

    // Differential gate, layer 1 (raw hype tasks): always asserted.
    let sequential = evaluate_corpus(&tasks, 1);
    for &threads in BUDGETS {
        let parallel = evaluate_corpus(&tasks, threads);
        assert_eq!(
            parallel, sequential,
            "corpus-parallel must be bit-identical to sequential @{threads}t"
        );
    }
    println!("differential gate (hype): parallel ≡ sequential at {BUDGETS:?} threads");

    // Differential gate, layer 2 (service over a DocumentStore): always
    // asserted, and exercises snapshot ingest + the fingerprinted caches.
    let store = DocumentStore::new();
    let requests: Vec<_> = docs
        .iter()
        .flat_map(|doc| {
            let id = store
                .insert_snapshot(&snapshot::save(doc))
                .expect("saved snapshots load");
            QUERIES.iter().map(move |&q| (id, q))
        })
        .collect();
    let service_at = |threads| {
        QueryService::with_config(
            smoqe::SmoqeEngine::hospital_demo().view().clone(),
            smoqe::ServiceConfig {
                parallel_threads: threads,
                ..smoqe::ServiceConfig::default()
            },
        )
        .expect("demo view compiles")
    };
    let service_sequential = service_at(1)
        .evaluate_corpus(&store, &requests, EvaluationMode::HyPE)
        .unwrap();
    for &threads in BUDGETS {
        let parallel = service_at(threads)
            .evaluate_corpus(&store, &requests, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(
            parallel, service_sequential,
            "service corpus-parallel must be bit-identical @{threads}t"
        );
    }
    println!("differential gate (service): parallel ≡ sequential at {BUDGETS:?} threads");

    // Node-throughput series over the raw task list.
    let sequential_nps =
        node_throughput(WINDOW, &mut || visited(&evaluate_corpus(&tasks, 1)));
    emit_json(&format!(
        "{{\"id\": \"corpus_throughput/nodes_per_sec/sequential\", \
         \"nodes_per_sec\": {sequential_nps:.0}, \"cores\": {cores}}}"
    ));
    println!("node throughput: sequential {:.2} Mnodes/s", sequential_nps / 1e6);

    let mut speedup_at = Vec::new();
    for &threads in BUDGETS {
        let nps = node_throughput(WINDOW, &mut || {
            visited(&evaluate_corpus(&tasks, threads))
        });
        let speedup = nps / sequential_nps;
        speedup_at.push((threads, speedup));
        emit_json(&format!(
            "{{\"id\": \"corpus_throughput/nodes_per_sec/parallel_{threads}t\", \
             \"nodes_per_sec\": {nps:.0}, \"speedup\": {speedup:.3}, \"cores\": {cores}}}"
        ));
        println!(
            "node throughput: parallel @{threads}t {:.2} Mnodes/s ({speedup:.2}x)",
            nps / 1e6
        );
    }

    // The 4-thread speedup gate, where the hardware can express one.
    let (_, mut speedup_4t) = *speedup_at
        .iter()
        .find(|&&(t, _)| t == 4)
        .expect("4 threads is a measured budget");
    let gate_enforced = cores >= 4;
    if gate_enforced && speedup_4t < 1.5 {
        // Give shared runners a second, longer window before failing.
        let retry_window = Duration::from_millis(2_500);
        let sequential_retry =
            node_throughput(retry_window, &mut || visited(&evaluate_corpus(&tasks, 1)));
        let parallel_retry = node_throughput(retry_window, &mut || {
            visited(&evaluate_corpus(&tasks, 4))
        });
        let retried = parallel_retry / sequential_retry;
        println!("speedup gate: first pass {speedup_4t:.2}x, retry pass {retried:.2}x");
        speedup_4t = speedup_4t.max(retried);
    }
    emit_json(&format!(
        "{{\"id\": \"corpus_throughput/speedup_gate_4t\", \"speedup\": {speedup_4t:.3}, \
         \"threshold\": 1.5, \"cores\": {cores}, \"enforced\": {gate_enforced}}}"
    ));
    if gate_enforced {
        assert!(
            speedup_4t >= 1.5,
            "4-thread corpus throughput must be ≥1.5x sequential on ≥4 cores \
             (measured {speedup_4t:.2}x on {cores} cores, best of two passes)"
        );
        println!("speedup gate: {speedup_4t:.2}x at 4 threads (≥1.5x required) — PASS");
    } else {
        println!(
            "speedup gate: SKIPPED ({cores} core(s) available; measured {speedup_4t:.2}x). \
             Enforced on ≥4-core hardware."
        );
    }
    println!();
}

/// Part 2: wall-clock timing series — corpus evaluation, the snapshot
/// codec, and the store ingest routes.
fn timing(c: &mut Criterion, docs: &[XmlTree], irs: &[Arc<CompiledMfa>]) {
    let tasks = corpus_tasks(docs, irs);
    let label = format!("{}d_x_{}q", docs.len(), irs.len());

    let mut group = c.benchmark_group("corpus_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_function(BenchmarkId::new("sequential", &label), |b| {
        b.iter(|| visited(&evaluate_corpus(&tasks, 1)))
    });
    for &threads in BUDGETS {
        group.bench_function(BenchmarkId::new(format!("parallel_{threads}t"), &label), |b| {
            b.iter(|| visited(&evaluate_corpus(&tasks, threads)))
        });
    }

    // The snapshot codec on the first corpus document.
    let doc = &docs[0];
    let bytes = snapshot::save(doc);
    let xml = to_xml_string(doc);
    let codec_label = format!("{}n", doc.len());
    group.bench_function(BenchmarkId::new("snapshot_save", &codec_label), |b| {
        b.iter(|| snapshot::save(doc).len())
    });
    group.bench_function(BenchmarkId::new("snapshot_load", &codec_label), |b| {
        b.iter(|| snapshot::load(&bytes).expect("saved snapshots load").len())
    });
    group.bench_function(BenchmarkId::new("parse_xml", &codec_label), |b| {
        b.iter(|| smoqe_xml::parse_document(&xml).expect("serialized XML parses").len())
    });

    // Store ingest: snapshot route vs XML route (fresh store per pass so
    // content-address dedup does not short-circuit the insert).
    group.bench_function(BenchmarkId::new("store_insert_snapshot", &codec_label), |b| {
        b.iter(|| {
            let store = DocumentStore::new();
            store.insert_snapshot(&bytes).expect("saved snapshots load")
        })
    });
    group.bench_function(BenchmarkId::new("store_insert_xml", &codec_label), |b| {
        b.iter(|| {
            let store = DocumentStore::new();
            store.insert_xml(&xml).expect("serialized XML parses")
        })
    });
    group.finish();
}

fn corpus_throughput(c: &mut Criterion) {
    let docs = corpus();
    let irs: Vec<Arc<CompiledMfa>> = QUERIES
        .iter()
        .map(|q| Arc::new(CompiledMfa::new(&compile_query(&parse_path(q).expect("parses")))))
        .collect();
    correctness_and_throughput_report(&docs, &irs);
    timing(c, &docs, &irs);
}

criterion_group!(benches, corpus_throughput);
criterion_main!(benches);
