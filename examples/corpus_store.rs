//! Binary snapshots, the content-addressed `DocumentStore`, and
//! across-documents corpus serving.
//!
//! Walks the PR 6 additions end to end:
//!
//! 1. **Snapshots** — `smoqe_xml::snapshot::save` serializes a parsed
//!    arena to compact validated bytes; `load` rebuilds the *identical*
//!    arena (same node ids, label ids, text), faster than re-parsing XML.
//! 2. **`DocumentStore`** — a corpus keyed by content: the `DocId` is the
//!    snapshot body checksum, so duplicates deduplicate on insert by any
//!    route, and every stored document carries its precomputed
//!    label-interner fingerprint for the service's index cache.
//! 3. **Corpus serving** — `QueryService::evaluate_corpus` answers a
//!    batch of (document, query) requests, routed *across documents* over
//!    the service's thread budget, bit-identical at every budget (a
//!    budget-1 service runs the sequential loop; checked live below).
//!
//! Run with: `cargo run --example corpus_store`

use smoqe::{DocumentStore, EvaluationMode, QueryService, ServiceConfig, SmoqeEngine};
use smoqe_examples::{human_bytes, section, timed};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::{snapshot, to_xml_string};

fn main() {
    section("1. Snapshots: save / load vs serialize / parse");
    let doc = generate_hospital(&HospitalConfig {
        patients: 2_000,
        departments: 12,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        seed: 6,
        ..Default::default()
    });
    let (bytes, save_ms) = timed(|| snapshot::save(&doc));
    let (xml, ser_ms) = timed(|| to_xml_string(&doc));
    println!(
        "document: {} nodes | snapshot {} in {save_ms:.1} ms | XML {} in {ser_ms:.1} ms",
        doc.len(),
        human_bytes(bytes.len()),
        human_bytes(xml.len()),
    );
    let (loaded, load_ms) = timed(|| snapshot::load(&bytes).expect("saved snapshots load"));
    let (reparsed, parse_ms) = timed(|| smoqe_xml::parse_document(&xml).expect("round-trips"));
    println!(
        "snapshot load: {load_ms:.1} ms | XML parse: {parse_ms:.1} ms ({:.1}x)",
        parse_ms / load_ms
    );
    assert_eq!(loaded.len(), doc.len());
    assert_eq!(reparsed.len(), doc.len());

    // The header is readable in O(1) — no body decode.
    let header = snapshot::peek_header(&bytes).unwrap();
    println!(
        "peek_header: version {} | {} nodes | {} labels | labels fingerprint {:#018x}",
        header.version, header.node_count, header.label_count, header.labels_fingerprint
    );

    section("2. DocumentStore: content-addressed corpus");
    let store = DocumentStore::new();
    let mut ids = Vec::new();
    for seed in 0..8u64 {
        let d = generate_hospital(&HospitalConfig {
            patients: 400 + 100 * (seed as usize % 3),
            departments: 8,
            heart_disease_fraction: 0.3,
            max_ancestor_depth: 2,
            seed: 100 + seed,
            ..Default::default()
        });
        ids.push(store.insert_snapshot(&snapshot::save(&d)).unwrap());
    }
    println!("inserted 8 documents -> store holds {}", store.len());
    // Re-inserting the first document (by any route) deduplicates.
    let first = store.get(ids[0]).unwrap();
    let again = store.insert_snapshot(&first.snapshot_bytes()).unwrap();
    assert_eq!(again, ids[0]);
    println!(
        "re-insert of {} deduplicated -> store still holds {}",
        ids[0],
        store.len()
    );

    section("3. Corpus serving: sequential vs across-documents parallel");
    let queries = [
        "patient",
        "patient/record/diagnosis",
        "patient[not(parent)]",
    ];
    let requests: Vec<_> = ids
        .iter()
        .flat_map(|&id| queries.iter().map(move |&q| (id, q)))
        .collect();
    let service_at = |parallel_threads| {
        QueryService::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig {
                parallel_threads,
                ..ServiceConfig::default()
            },
        )
        .expect("σ₀ is a valid view")
    };
    let sequential_service = service_at(1);
    let parallel_service = service_at(4);

    let (sequential, seq_ms) = timed(|| {
        sequential_service
            .evaluate_corpus(&store, &requests, EvaluationMode::OptHyPE)
            .unwrap()
    });
    let (parallel, par_ms) = timed(|| {
        parallel_service
            .evaluate_corpus(&store, &requests, EvaluationMode::OptHyPE)
            .unwrap()
    });
    assert_eq!(
        parallel, sequential,
        "corpus-parallel must be bit-identical"
    );
    let answers: usize = sequential.iter().map(|r| r.answers.len()).sum();
    println!(
        "{} requests over {} documents: sequential {seq_ms:.1} ms | parallel(4t) {par_ms:.1} ms \
         | {answers} answers | results bit-identical",
        requests.len(),
        store.len(),
    );
    let stats = sequential_service.stats();
    println!(
        "sequential service caches: {} compilation miss(es), {} hits | {} index build(s), {} hits",
        stats.compiled_misses, stats.compiled_hits, stats.index_misses, stats.index_hits
    );
}
