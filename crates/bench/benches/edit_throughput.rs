//! Incremental re-evaluation throughput after subtree edits (PR 7) —
//! `smoqe_hype::incremental` against from-scratch evaluation of the edited
//! document.
//!
//! Two parts, mirroring the other throughput benches:
//!
//! 1. A **correctness + throughput report** (printed first), doubling as a
//!    smoke test in CI:
//!    * after **every** edit of a scripted sequence, the incremental
//!      evaluator's answers, per-query `HypeStats` and aggregate
//!      `BatchStats` equal a from-scratch `evaluate_tree` of
//!      the edited tree — this is always asserted, on any hardware;
//!    * edit throughput (single-subtree edits / second, each followed by a
//!      full batch answer) is measured for the incremental evaluator and
//!      for the from-scratch baseline, and appended to `SMOQE_BENCH_JSON`
//!      alongside the Criterion timings;
//!    * the report *asserts* a ≥ 3× incremental win. The edits dirty one
//!      department of many (well under 10% of the document's live nodes —
//!      the report asserts that precondition too), so the win is
//!      algorithmic — recompute one shard, splice the cached rest — and is
//!      enforced on any core count (both sides run on one thread).
//!
//! 2. **Timing series** (Criterion): one insert-or-delete edit plus a full
//!    batch answer, incremental vs from-scratch, at 1 and 2 threads.
//!
//! Run with: `cargo bench --bench edit_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per series.)

use std::io::Write as _;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use smoqe_automata::{compile_query, CompiledMfa};
use smoqe_hype::incremental::{IncrementalEvaluator, IncrementalQuery};
use smoqe_hype::{evaluate_tree, CompiledBatchQuery};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::{parse_document, EditOp, NodeId, XmlTree};
use smoqe_xpath::parse_path;

/// The edit-throughput gate: incremental must beat from-scratch by this
/// factor on single-subtree edits.
const GATE: f64 = 3.0;

/// Queries held open across edits — a deep path, a label scan and a
/// filtered path, so both answer splicing and filter accumulators are
/// exercised on every edit.
const QUERIES: &[&str] = &[
    "department/patient/pname",
    "//diagnosis",
    "department/patient[not(visit/treatment/test)]",
];

/// The document: many departments, so one top-level subtree (the unit an
/// edit dirties) is a small fraction of the whole.
fn bench_document() -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients: 1200,
        departments: 24,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        visits_per_patient: 2,
        seed: 7000,
        ..Default::default()
    })
}

/// The payload inserted (and then deleted) by each round-trip edit pair:
/// a small patient subtree using only labels the document already interns.
fn payload() -> XmlTree {
    parse_document(
        "<patient><pname>Bench</pname><visit><treatment><medication>\
         <diagnosis>flu</diagnosis></medication></treatment></visit></patient>",
    )
    .expect("payload parses")
}

fn compiled_queries() -> Vec<Arc<CompiledMfa>> {
    QUERIES
        .iter()
        .map(|q| Arc::new(CompiledMfa::new(&compile_query(&parse_path(q).expect("parses")))))
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

/// Round-robin single-subtree edit source: odd steps insert the payload at
/// the front of the next department, even steps delete it again, so the
/// live document oscillates between two states and every op dirties
/// exactly one top-level subtree.
struct EditSource {
    departments: Vec<NodeId>,
    next: usize,
    pending_delete: Option<NodeId>,
}

impl EditSource {
    fn new(tree: &XmlTree) -> Self {
        let departments = tree.children(tree.root()).to_vec();
        assert!(departments.len() >= 8, "need many shards for a sub-10% edit");
        Self { departments, next: 0, pending_delete: None }
    }

    /// The next op. Call [`EditSource::applied`] with the edited tree after
    /// applying it so a matching delete can target the inserted node.
    fn next_op(&mut self) -> EditOp {
        match self.pending_delete.take() {
            Some(node) => EditOp::Delete { node },
            None => {
                let dept = self.departments[self.next % self.departments.len()];
                self.next += 1;
                EditOp::Insert { parent: dept, position: 0, subtree: payload() }
            }
        }
    }

    fn applied(&mut self, tree: &XmlTree, op: &EditOp) {
        if let EditOp::Insert { parent, .. } = op {
            self.pending_delete = Some(tree.children(*parent)[0]);
        }
    }
}

/// Edits-per-second of `f` over `window`, where `f` performs one edit plus
/// one full batch answer.
fn edit_throughput(window: Duration, f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    let mut edits = 0u64;
    while start.elapsed() < window {
        f();
        edits += 1;
    }
    edits as f64 / start.elapsed().as_secs_f64()
}

const WINDOW: Duration = Duration::from_millis(700);

fn incremental_eps(window: Duration, irs: &[Arc<CompiledMfa>]) -> f64 {
    let mut tree = bench_document();
    let queries = irs.iter().map(|ir| IncrementalQuery::new(Arc::clone(ir))).collect();
    let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries, 1);
    let mut source = EditSource::new(&tree);
    edit_throughput(window, &mut || {
        let op = source.next_op();
        eval.apply_edits(&mut tree, std::slice::from_ref(&op), 1).expect("edit applies");
        source.applied(&tree, &op);
    })
}

fn scratch_eps(window: Duration, irs: &[Arc<CompiledMfa>]) -> f64 {
    let mut tree = bench_document();
    let queries: Vec<CompiledBatchQuery> =
        irs.iter().map(|ir| CompiledBatchQuery::new(Arc::clone(ir))).collect();
    let mut source = EditSource::new(&tree);
    edit_throughput(window, &mut || {
        let op = source.next_op();
        tree.apply(&op).expect("edit applies");
        source.applied(&tree, &op);
        evaluate_tree(&tree, tree.root(), &queries, 1);
    })
}

/// Part 1: the bit-identity gate after every edit, the edited-fraction
/// precondition, the throughput series, and the ≥3× speedup assertion.
fn correctness_and_throughput_report(irs: &[Arc<CompiledMfa>]) {
    let cores = thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut tree = bench_document();
    let live = tree.live_len();
    let shard = tree.subtree_size(tree.children(tree.root())[0]);
    let edited_fraction = shard as f64 / live as f64;
    println!(
        "# Incremental edits over a {live}-node document, {} departments \
         (one shard ≈ {shard} nodes, {:.1}% of the document), {} queries, {cores} core(s)",
        tree.children(tree.root()).len(),
        edited_fraction * 100.0,
        irs.len()
    );
    assert!(
        edited_fraction <= 0.10,
        "the speedup gate is defined for edits dirtying ≤10% of the nodes \
         (one shard is {:.1}%)",
        edited_fraction * 100.0
    );

    // Bit-identity gate: after every edit of a 48-step scripted sequence,
    // incremental ≡ from-scratch — answers, per-query stats, batch stats.
    let queries: Vec<IncrementalQuery> =
        irs.iter().map(|ir| IncrementalQuery::new(Arc::clone(ir))).collect();
    let scratch: Vec<CompiledBatchQuery> =
        irs.iter().map(|ir| CompiledBatchQuery::new(Arc::clone(ir))).collect();
    let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries, 1);
    let mut source = EditSource::new(&tree);
    for step in 0..48 {
        let op = source.next_op();
        let got = eval.apply_edits(&mut tree, std::slice::from_ref(&op), 1).expect("edit applies");
        source.applied(&tree, &op);
        let want = evaluate_tree(&tree, tree.root(), &scratch, 1);
        assert_eq!(got.stats, want.stats, "aggregate stats diverged at step {step}");
        assert_eq!(got.results.len(), want.results.len());
        for (g, w) in got.results.iter().zip(&want.results) {
            assert_eq!(g.answers, w.answers, "answers diverged at step {step}");
            assert_eq!(g.stats, w.stats, "per-query stats diverged at step {step}");
        }
    }
    println!("differential gate: incremental ≡ from-scratch after every of 48 edits");

    // Throughput: edits/second with a full batch answer after each edit.
    let scratch_rate = scratch_eps(WINDOW, irs);
    let incremental_rate = incremental_eps(WINDOW, irs);
    let mut speedup = incremental_rate / scratch_rate;
    emit_json(&format!(
        "{{\"id\": \"edit_throughput/edits_per_sec/from_scratch_1t\", \
         \"edits_per_sec\": {scratch_rate:.1}, \"cores\": {cores}}}"
    ));
    emit_json(&format!(
        "{{\"id\": \"edit_throughput/edits_per_sec/incremental_1t\", \
         \"edits_per_sec\": {incremental_rate:.1}, \"speedup\": {speedup:.3}, \
         \"cores\": {cores}}}"
    ));
    println!(
        "edit throughput: from-scratch {scratch_rate:.0} edits/s, \
         incremental {incremental_rate:.0} edits/s ({speedup:.1}x)"
    );

    // The ≥3× gate — algorithmic, so enforced on any hardware; give shared
    // runners a second, longer window before failing.
    if speedup < GATE {
        let retry_window = Duration::from_millis(2_500);
        let retried = incremental_eps(retry_window, irs) / scratch_eps(retry_window, irs);
        println!("speedup gate: first pass {speedup:.2}x, retry pass {retried:.2}x");
        speedup = speedup.max(retried);
    }
    emit_json(&format!(
        "{{\"id\": \"edit_throughput/speedup_gate\", \"speedup\": {speedup:.3}, \
         \"threshold\": {GATE}, \"edited_fraction\": {edited_fraction:.4}, \
         \"cores\": {cores}, \"enforced\": true}}"
    ));
    assert!(
        speedup >= GATE,
        "incremental re-evaluation must be ≥{GATE}x from-scratch on single-subtree \
         edits ({:.1}% of nodes); measured {speedup:.2}x, best of two passes",
        edited_fraction * 100.0
    );
    println!("speedup gate: {speedup:.1}x (≥{GATE}x required) — PASS");
    println!();
}

/// Part 2: Criterion timing series — one edit + full batch answer per
/// iteration, incremental vs from-scratch, at 1 and 2 threads.
fn timing(c: &mut Criterion, irs: &[Arc<CompiledMfa>]) {
    let label = format!("{}n_x_{}q", bench_document().live_len(), irs.len());
    let mut group = c.benchmark_group("edit_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for &threads in &[1usize, 2] {
        group.bench_function(BenchmarkId::new(format!("incremental_{threads}t"), &label), |b| {
            let mut tree = bench_document();
            let queries = irs.iter().map(|ir| IncrementalQuery::new(Arc::clone(ir))).collect();
            let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries, threads);
            let mut source = EditSource::new(&tree);
            b.iter(|| {
                let op = source.next_op();
                let result =
                    eval.apply_edits(&mut tree, std::slice::from_ref(&op), threads).unwrap();
                source.applied(&tree, &op);
                result.stats.nodes_visited
            })
        });
        group.bench_function(BenchmarkId::new(format!("from_scratch_{threads}t"), &label), |b| {
            let mut tree = bench_document();
            let queries: Vec<CompiledBatchQuery> =
                irs.iter().map(|ir| CompiledBatchQuery::new(Arc::clone(ir))).collect();
            let mut source = EditSource::new(&tree);
            b.iter(|| {
                let op = source.next_op();
                tree.apply(&op).unwrap();
                source.applied(&tree, &op);
                evaluate_tree(&tree, tree.root(), &queries, threads)
                    .stats
                    .nodes_visited
            })
        });
    }
    group.finish();
}

fn edit_throughput_bench(c: &mut Criterion) {
    let irs = compiled_queries();
    correctness_and_throughput_report(&irs);
    timing(c, &irs);
}

criterion_group!(benches, edit_throughput_bench);
criterion_main!(benches);
