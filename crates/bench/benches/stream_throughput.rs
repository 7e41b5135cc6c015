//! Streaming evaluation throughput (PR 3) — StreamHype over raw XML events
//! vs parse-then-HyPE over the materialized tree.
//!
//! Two parts:
//!
//! 1. A **constant-memory report** (printed first). For the mid-sized
//!    hospital document it *asserts* the PR's acceptance criteria — so the
//!    bench doubles as a smoke test in CI:
//!    * streaming evaluation performs **zero arena-node allocations**
//!      (checked via `smoqe_xml::node_allocations`),
//!    * the evaluator's working set is **O(depth)**: its peak live-frame
//!      count is bounded by the document's maximal nesting depth (13-ish),
//!      not by its node count (hundreds of thousands),
//!    * streamed answers equal the tree engine's on the re-parsed document.
//!
//!    It also reports events/second for the raw reader and for full
//!    evaluation, solo and batched.
//! 2. **Timing series** (Criterion): `parse_then_hype` (arena build + tree
//!    pass) vs `stream_hype` (one incremental pass), solo and with the
//!    10-query batch workload.
//!
//! Run with: `cargo bench --bench stream_throughput`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one JSON line per timing.)

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

use std::sync::Arc;

use smoqe_automata::{compile_query, CompiledMfa};
use smoqe_bench::{batch_workload_queries, ir, medium_document, run_solo};
use smoqe_hype::{evaluate_tree, CompiledBatchQuery, StreamHype, StreamResult};
use smoqe_xml::stream::EventSource;
use smoqe_xml::{node_allocations, parse_document, to_xml_string, LabelInterner, XmlStreamReader};
use smoqe_xpath::parse_path;

/// The solo query the report and the solo timings use: broad enough to keep
/// most of the document live, so the comparison is about the substrate, not
/// about pruning luck.
const SOLO_QUERY: &str = "//diagnosis";

fn compile_workload() -> Vec<Arc<CompiledMfa>> {
    batch_workload_queries()
        .into_iter()
        .map(|q| ir(&compile_query(&parse_path(q).expect("workload query parses"))))
        .collect()
}

/// The plain-HyPE batch over shared IRs.
fn batch_of(irs: &[Arc<CompiledMfa>]) -> Vec<CompiledBatchQuery<'static>> {
    irs.iter().map(|ir| CompiledBatchQuery::new(Arc::clone(ir))).collect()
}

/// Streams `xml` through one machine for `queries`.
fn stream(xml: &str, queries: &[CompiledBatchQuery]) -> StreamResult {
    let mut reader = XmlStreamReader::new(xml.as_bytes());
    StreamHype::from_compiled(queries, LabelInterner::new())
        .run(&mut reader)
        .expect("document streams")
}

/// Part 1: acceptance-criteria assertions plus the events/sec report.
fn constant_memory_report(xml: &str, solo: &Arc<CompiledMfa>, workload: &[Arc<CompiledMfa>]) {
    let tree = parse_document(xml).expect("workload document parses");
    println!(
        "# Streaming throughput on a {}-node ({:.1} MB) hospital document, depth {}",
        tree.len(),
        xml.len() as f64 / 1e6,
        tree.max_depth()
    );

    // Raw reader speed: events/sec with no evaluation attached.
    let start = Instant::now();
    let mut reader = XmlStreamReader::new(xml.as_bytes());
    let mut events = 0usize;
    while let Some(event) = reader.next_event().expect("document re-streams") {
        let _ = std::hint::black_box(&event);
        events += 1;
    }
    let reader_secs = start.elapsed().as_secs_f64();

    // Solo streamed evaluation: zero allocations, O(depth) frames, answers
    // equal to the tree engine's.
    let solo_query = batch_of(std::slice::from_ref(solo));
    let allocations_before = node_allocations();
    let start = Instant::now();
    let mut solo_run = stream(xml, &solo_query);
    let solo_secs = start.elapsed().as_secs_f64();
    let (streamed, stats) = (solo_run.results.remove(0), solo_run.stats);
    assert_eq!(
        node_allocations(),
        allocations_before,
        "streaming evaluation must never materialize an arena tree"
    );
    assert!(
        stats.peak_frames <= tree.max_depth(),
        "peak frames {} exceeded the document depth {} — memory is not O(depth)",
        stats.peak_frames,
        tree.max_depth()
    );
    let on_tree = run_solo(&tree, solo, None, 1);
    assert_eq!(
        streamed.answers, on_tree.answers,
        "streamed answers must equal the tree engine's"
    );
    assert_eq!(streamed.stats, on_tree.stats, "streamed stats must equal the tree engine's");

    // Batched streamed evaluation: same assertions, N queries in one pass.
    let batch_queries = batch_of(workload);
    let allocations_before = node_allocations();
    let start = Instant::now();
    let batch = stream(xml, &batch_queries);
    let batch_secs = start.elapsed().as_secs_f64();
    assert_eq!(node_allocations(), allocations_before, "batched streaming allocated nodes");
    assert!(batch.stats.peak_frames <= tree.max_depth());

    println!(
        "events: {events}   reader only: {:>7.2} Mev/s   solo eval: {:>7.2} Mev/s   {}-query batch: {:>7.2} Mev/s",
        events as f64 / reader_secs / 1e6,
        events as f64 / solo_secs / 1e6,
        workload.len(),
        events as f64 / batch_secs / 1e6,
    );
    println!(
        "peak depth: {}   peak frames (solo): {}   peak frames (batch): {}   nodes: {}   => working set is O(depth)",
        stats.peak_depth,
        stats.peak_frames,
        batch.stats.peak_frames,
        tree.len()
    );
    println!();
}

/// Part 2: wall-clock timing of the two substrates.
fn timing(c: &mut Criterion, xml: &str, solo: &Arc<CompiledMfa>, workload: &[Arc<CompiledMfa>]) {
    let mut group = c.benchmark_group("stream_throughput");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    group.bench_with_input(BenchmarkId::new("parse_then_hype", "solo"), xml, |b, xml| {
        b.iter(|| {
            let tree = parse_document(xml).expect("parses");
            run_solo(&tree, solo, None, 1).answers.len()
        })
    });
    group.bench_with_input(BenchmarkId::new("stream_hype", "solo"), xml, |b, xml| {
        let queries = batch_of(std::slice::from_ref(solo));
        b.iter(|| stream(xml, &queries).results[0].answers.len())
    });

    let batch_label = format!("{}q", workload.len());
    group.bench_with_input(
        BenchmarkId::new("parse_then_hype_batched", &batch_label),
        xml,
        |b, xml| {
            let queries = batch_of(workload);
            b.iter(|| {
                let tree = parse_document(xml).expect("parses");
                evaluate_tree(&tree, tree.root(), &queries, 1)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.bench_with_input(
        BenchmarkId::new("stream_hype_batched", &batch_label),
        xml,
        |b, xml| {
            let queries = batch_of(workload);
            b.iter(|| {
                stream(xml, &queries)
                    .results
                    .iter()
                    .map(|r| r.answers.len())
                    .sum::<usize>()
            })
        },
    );
    group.finish();
}

fn stream_throughput(c: &mut Criterion) {
    let xml = to_xml_string(&medium_document());
    let solo = ir(&compile_query(&parse_path(SOLO_QUERY).expect("solo query parses")));
    let workload = compile_workload();
    constant_memory_report(&xml, &solo, &workload);
    timing(c, &xml, &solo, &workload);
}

criterion_group!(benches, stream_throughput);
criterion_main!(benches);
