//! Differential suite for the streaming execution backend (PR 3).
//!
//! The streaming evaluator must be **indistinguishable** from the
//! tree-walking engine: for every (query, document) pair in both existing
//! corpora, `StreamHype` has to produce the same answers *and* the same
//! per-query [`HypeStats`](smoqe_hype::HypeStats), in solo and batched
//! modes, whether the events come from replaying a tree or from parsing
//! serialized XML. On top of the behavioural equivalence, the suite locks
//! the two streaming-specific guarantees: the event sequence of
//! `XmlStreamReader(serialize(T))` equals `TreeEvents(parse(serialize(T)))`
//! for arbitrary generated documents (parser/serializer/stream agreement),
//! and evaluation uses O(depth) frames and **zero** arena-node allocations.

use std::sync::Arc;

use integration_tests::{
    compile_batch, document_query_corpus, domain_corpus_mfas, hype_at, standard_hospital_document,
    stream_batch, stream_solo, view_query_corpus,
};
use proptest::prelude::*;

use smoqe::SmoqeEngine;
use smoqe_automata::compile_query;
use smoqe_hype::interpreted::BatchQuery;
use smoqe_hype::{evaluate_tree, CompiledBatchQuery, StreamHype};
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{
    all_domains, generate_from_dtd, generate_hospital, DtdGenConfig, HospitalConfig,
};
use smoqe_xml::hospital::{hospital_document_dtd, hospital_view_dtd};
use smoqe_xml::stream::{EventSource, TreeEvents, XmlEvent};
use smoqe_xml::{
    node_allocations, parse_document, to_xml_string, NodeId, XmlStreamReader, XmlTree,
    XmlTreeBuilder,
};
use smoqe_xpath::parse_path;

use std::collections::{BTreeSet, HashMap};

/// Maps a tree's arena node ids to the pre-order indices a stream assigns.
fn preorder_ids(tree: &XmlTree) -> HashMap<NodeId, NodeId> {
    tree.descendants_or_self(tree.root())
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, NodeId(i as u32)))
        .collect()
}

fn to_preorder(answers: &BTreeSet<NodeId>, pre: &HashMap<NodeId, NodeId>) -> BTreeSet<NodeId> {
    answers.iter().map(|n| pre[n]).collect()
}

// ---------------------------------------------------------------------------
// Differential sweep: both corpora, solo and batched, both event sources.
// ---------------------------------------------------------------------------

#[test]
fn streaming_matches_the_tree_engine_on_the_document_corpus_solo() {
    let doc = standard_hospital_document();
    let pre = preorder_ids(&doc);
    let xml = to_xml_string(&doc);
    for query in document_query_corpus() {
        let mfa = compile_query(&parse_path(query).unwrap());
        let on_tree = hype_at(&doc, doc.root(), &mfa, None);
        let expected = to_preorder(&on_tree.answers, &pre);

        // Source 1: replaying the tree as events.
        let mut events = TreeEvents::new(&doc);
        let (replayed, _) = stream_solo(&mut events, &mfa).unwrap();
        assert_eq!(
            replayed.answers, expected,
            "replay answers differ on `{query}`"
        );
        assert_eq!(
            replayed.stats, on_tree.stats,
            "replay stats differ on `{query}`"
        );

        // Source 2: incrementally parsing the serialized document. The
        // parser assigns pre-order ids, so they line up with the stream's.
        let reparsed = parse_document(&xml).unwrap();
        let on_reparsed = hype_at(&reparsed, reparsed.root(), &mfa, None);
        let mut reader = XmlStreamReader::new(xml.as_bytes());
        let (streamed, stream_stats) = stream_solo(&mut reader, &mfa).unwrap();
        assert_eq!(
            streamed.answers, on_reparsed.answers,
            "stream answers differ on `{query}`"
        );
        assert_eq!(
            streamed.stats, on_reparsed.stats,
            "stream stats differ on `{query}`"
        );
        assert_eq!(stream_stats.nodes_total, doc.len());
        assert!(stream_stats.peak_frames <= doc.max_depth());
    }
}

#[test]
fn streaming_matches_the_tree_engine_on_the_document_corpus_batched() {
    let doc = standard_hospital_document();
    let pre = preorder_ids(&doc);
    let queries = document_query_corpus();
    let mfas: Vec<_> = queries
        .iter()
        .map(|q| compile_query(&parse_path(q).unwrap()))
        .collect();
    let batch_queries = compile_batch(&mfas.iter().map(BatchQuery::new).collect::<Vec<_>>());
    let tree_batch = evaluate_tree(&doc, doc.root(), &batch_queries, 1);

    let mut events = TreeEvents::new(&doc);
    let streamed = stream_batch(&mut events, &batch_queries).unwrap();
    assert_eq!(streamed.results.len(), queries.len());
    for (i, query) in queries.iter().enumerate() {
        let expected = to_preorder(&tree_batch.results[i].answers, &pre);
        assert_eq!(
            streamed.results[i].answers, expected,
            "batched answers differ on `{query}`"
        );
        assert_eq!(
            streamed.results[i].stats, tree_batch.results[i].stats,
            "batched stats differ on `{query}`"
        );
    }
    assert_eq!(streamed.stats.nodes_visited, tree_batch.stats.nodes_visited);
    assert_eq!(
        streamed.stats.sequential_node_visits,
        tree_batch.stats.sequential_node_visits
    );
}

#[test]
fn streaming_matches_the_rewritten_view_corpus_solo_and_batched() {
    // View queries: rewritten to MFAs over the document by the σ₀ engine,
    // then evaluated both ways over the underlying document.
    let doc = standard_hospital_document();
    let pre = preorder_ids(&doc);
    let engine = SmoqeEngine::hospital_demo();
    let queries = view_query_corpus();
    let compiled: Vec<_> = queries
        .iter()
        .map(|q| engine.compile(q).expect("view query compiles"))
        .collect();

    // Solo, per query.
    for (query, c) in queries.iter().zip(&compiled) {
        let on_tree = c.evaluate(&doc, doc.root(), None, 1);
        let mut events = TreeEvents::new(&doc);
        let (streamed, _) = stream_solo(&mut events, c.mfa()).unwrap();
        assert_eq!(
            streamed.answers,
            to_preorder(&on_tree.answers, &pre),
            "view answers differ on `{query}`"
        );
        assert_eq!(
            streamed.stats, on_tree.stats,
            "view stats differ on `{query}`"
        );
    }

    // The whole corpus as one batch.
    let batch_queries: Vec<CompiledBatchQuery> = compiled
        .iter()
        .map(|c| CompiledBatchQuery::new(Arc::clone(c.compiled())))
        .collect();
    let tree_batch = evaluate_tree(&doc, doc.root(), &batch_queries, 1);
    let mut events = TreeEvents::new(&doc);
    let streamed = stream_batch(&mut events, &batch_queries).unwrap();
    for (i, query) in queries.iter().enumerate() {
        assert_eq!(
            streamed.results[i].answers,
            to_preorder(&tree_batch.results[i].answers, &pre),
            "batched view answers differ on `{query}`"
        );
        assert_eq!(
            streamed.results[i].stats, tree_batch.results[i].stats,
            "batched view stats differ on `{query}`"
        );
    }
}

#[test]
fn every_domain_and_shape_streams_identically_to_the_tree_engine() {
    // Registry sweep: per domain and shape, the whole corpus evaluated as
    // one streaming batch must match the tree batch (answers after the
    // pre-order mapping, per-query stats verbatim) from *both* event
    // sources — replaying the tree and re-reading the serialized XML —
    // and the two sources must agree with each other bit for bit.
    for domain in all_domains() {
        let mfas = domain_corpus_mfas(&domain);
        let batch_queries = compile_batch(
            &mfas
                .iter()
                .map(|(_, m)| BatchQuery::new(m))
                .collect::<Vec<_>>(),
        );
        for &shape in domain.shapes {
            let doc = domain.generate(shape, 1, STANDARD_SEED);
            let pre = preorder_ids(&doc);
            let tree_batch = evaluate_tree(&doc, doc.root(), &batch_queries, 1);

            let mut events = TreeEvents::new(&doc);
            let replayed = stream_batch(&mut events, &batch_queries).unwrap();

            let xml = to_xml_string(&doc);
            let mut reader = XmlStreamReader::new(xml.as_bytes());
            let streamed = stream_batch(&mut reader, &batch_queries).unwrap();

            assert_eq!(
                replayed.stats, streamed.stats,
                "{}/{shape:?}: replay and reader stream stats diverge",
                domain.name
            );
            for (i, (name, _)) in mfas.iter().enumerate() {
                let expected = to_preorder(&tree_batch.results[i].answers, &pre);
                assert_eq!(
                    replayed.results[i].answers, expected,
                    "replayed answers differ on `{name}` ({shape:?})"
                );
                assert_eq!(
                    replayed.results[i].stats, tree_batch.results[i].stats,
                    "replayed stats differ on `{name}` ({shape:?})"
                );
                assert_eq!(
                    streamed.results[i].answers, replayed.results[i].answers,
                    "reader answers differ on `{name}` ({shape:?})"
                );
                assert_eq!(
                    streamed.results[i].stats, replayed.results[i].stats,
                    "reader stats differ on `{name}` ({shape:?})"
                );
            }

            // The generated corpora carry canonical text, so the reader and
            // the tree replay must produce the same event sequence outright.
            assert_stream_and_replay_agree(&doc);
        }
    }
}

#[test]
fn indexed_streaming_matches_opthype_on_the_document_corpus() {
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    let pre = preorder_ids(&doc);
    for query in document_query_corpus() {
        let mfa = compile_query(&parse_path(query).unwrap());
        let index = smoqe_hype::ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let on_tree = hype_at(&doc, doc.root(), &mfa, Some(&index));
        // Indexed streaming needs the interner the index was built over.
        let engine = StreamHype::from_compiled(
            &compile_batch(&[BatchQuery::with_index(&mfa, &index)]),
            doc.labels().clone(),
        );
        let mut events = TreeEvents::new(&doc);
        let mut out = engine.run(&mut events).unwrap();
        let streamed = out.results.pop().unwrap();
        assert_eq!(
            streamed.answers,
            to_preorder(&on_tree.answers, &pre),
            "indexed answers differ on `{query}`"
        );
        assert_eq!(
            streamed.stats, on_tree.stats,
            "indexed stats differ on `{query}`"
        );
    }
}

// ---------------------------------------------------------------------------
// Streaming-specific guarantees.
// ---------------------------------------------------------------------------

#[test]
fn streaming_never_allocates_arena_nodes_and_stays_within_depth() {
    let doc = standard_hospital_document();
    let xml = to_xml_string(&doc);
    let queries = document_query_corpus();
    let mfas: Vec<_> = queries
        .iter()
        .map(|q| compile_query(&parse_path(q).unwrap()))
        .collect();
    let batch_queries = compile_batch(&mfas.iter().map(BatchQuery::new).collect::<Vec<_>>());

    // The whole corpus as one batch, then a broad query streamed alone.
    let solo = compile_query(&parse_path("//diagnosis").unwrap());
    let solo_query = compile_batch(&[BatchQuery::new(&solo)]);
    for queries in [&batch_queries, &solo_query] {
        let before = node_allocations();
        let mut reader = XmlStreamReader::new(xml.as_bytes());
        let streamed = stream_batch(&mut reader, queries).unwrap();
        assert_eq!(
            node_allocations(),
            before,
            "streaming evaluation must not materialize an arena tree ({} queries)",
            queries.len()
        );
        assert_eq!(streamed.stats.nodes_total, doc.len());
        assert!(
            streamed.stats.peak_frames <= doc.max_depth(),
            "peak frames {} must be bounded by the document depth {}, not its size {}",
            streamed.stats.peak_frames,
            doc.max_depth(),
            doc.len()
        );
    }
}

/// Owned mirror of [`XmlEvent`] for comparing whole sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
enum OwnedEvent {
    Open(String),
    Text(String),
    Close,
}

fn collect_events(source: &mut impl EventSource) -> Vec<OwnedEvent> {
    let mut out = Vec::new();
    while let Some(event) = source.next_event().expect("event source succeeds") {
        out.push(match event {
            XmlEvent::Open(n) => OwnedEvent::Open(n.to_owned()),
            XmlEvent::Text(t) => OwnedEvent::Text(t.to_owned()),
            XmlEvent::Close => OwnedEvent::Close,
        });
    }
    out
}

/// The agreement every generated document must satisfy: streaming the
/// serialization produces exactly the events of replaying the parsed tree.
fn assert_stream_and_replay_agree(tree: &XmlTree) {
    let xml = to_xml_string(tree);
    let reparsed = parse_document(&xml).expect("serialized documents re-parse");
    let from_text = collect_events(&mut XmlStreamReader::new(xml.as_bytes()));
    let from_tree = collect_events(&mut TreeEvents::new(&reparsed));
    assert_eq!(
        from_text, from_tree,
        "reader and tree-replay event sequences diverge"
    );
    // The generated corpora carry only canonical text (non-empty, already
    // trimmed), so replaying the *original* tree must agree too.
    let from_original = collect_events(&mut TreeEvents::new(tree));
    assert_eq!(from_text, from_original);
}

/// Fragments chosen to stress the escape/unescape paths of the serializer,
/// the tree parser and the streaming reader: complete entities, *partial*
/// entities (which must stay literal), lone ampersands, markup characters,
/// quotes, `]]>`, tabs and both line-ending conventions.
const NASTY_FRAGMENTS: &[&str] = &[
    "x",
    "&",
    "&&",
    "&amp;",
    "&lt;",
    "a&am",
    "p;b",
    "&amp",
    "amp;",
    "<",
    ">",
    "\"",
    "'",
    "]]>",
    "line\nbreak",
    "dos\r\nline",
    "\ttab",
    "caf\u{e9}",
];

/// Deterministically concatenates `fragments` nasty fragments picked by a
/// splitmix64 walk from `seed`.
fn nasty_string(seed: u64, fragments: usize) -> String {
    let mut s = seed;
    let mut out = String::new();
    for _ in 0..fragments {
        s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = s;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        out.push_str(NASTY_FRAGMENTS[(z as usize) % NASTY_FRAGMENTS.len()]);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Documents whose text is dense with entities, partial entities and
    /// markup characters must still round-trip: one parse canonicalizes
    /// (trims, drops whitespace-only text), after which serialize∘parse is
    /// a fixpoint, and the streaming reader produces exactly the canonical
    /// tree's events.
    #[test]
    fn escaping_heavy_text_round_trips_and_streams_identically(
        seed in 0u64..100_000,
        children in 1usize..6,
        fragments in 0usize..5,
    ) {
        let mut builder = XmlTreeBuilder::new();
        let root = builder.root("r");
        for c in 0..children {
            let child = builder.child(root, "a");
            builder.set_text(child, &nasty_string(seed.wrapping_add(c as u64), fragments));
        }
        let doc = builder.finish();

        let once = parse_document(&to_xml_string(&doc)).expect("escaped output re-parses");
        let xml = to_xml_string(&once);
        let twice = parse_document(&xml).expect("canonical output re-parses");
        prop_assert_eq!(&to_xml_string(&twice), &xml);

        let from_text = collect_events(&mut XmlStreamReader::new(xml.as_bytes()));
        let from_tree = collect_events(&mut TreeEvents::new(&twice));
        prop_assert_eq!(&from_text, &from_tree);
    }

    /// Serialize an arbitrary generated document, re-read it through the
    /// streaming reader, and require the event sequence to match the
    /// tree-replay adapter — this pins parser, serializer and stream
    /// reader to one another.
    #[test]
    fn stream_reader_agrees_with_tree_replay_on_hospital_documents(
        patients in 1usize..30,
        seed in 0u64..500,
        sibling_pct in 0u32..=100,
    ) {
        let doc = generate_hospital(&HospitalConfig {
            patients,
            seed,
            sibling_probability: sibling_pct as f64 / 100.0,
            ..Default::default()
        });
        assert_stream_and_replay_agree(&doc);
    }

    /// The same agreement over arbitrary documents of the (recursive) view
    /// DTD, which exercises deep nesting and empty elements.
    #[test]
    fn stream_reader_agrees_with_tree_replay_on_dtd_random_documents(
        seed in 0u64..500,
    ) {
        let dtd = hospital_view_dtd();
        let config = DtdGenConfig { seed, max_depth: 9, ..Default::default() };
        let Some(doc) = generate_from_dtd(&dtd, &config) else {
            return Ok(()); // depth budget unlucky for this seed
        };
        assert_stream_and_replay_agree(&doc);
    }

    /// End-to-end differential property: on random hospital documents and
    /// a rotating sample of corpus queries, streamed answers equal
    /// tree-engine answers (after the pre-order id mapping).
    #[test]
    fn streamed_evaluation_matches_tree_evaluation_on_random_documents(
        patients in 1usize..25,
        seed in 0u64..300,
        query_idx in 0usize..11,
    ) {
        let doc = generate_hospital(&HospitalConfig {
            patients,
            seed,
            max_ancestor_depth: 2,
            ..Default::default()
        });
        let query = document_query_corpus()[query_idx];
        let mfa = compile_query(&parse_path(query).unwrap());
        let on_tree = hype_at(&doc, doc.root(), &mfa, None);
        let pre = preorder_ids(&doc);
        let mut events = TreeEvents::new(&doc);
        let (streamed, _) = stream_solo(&mut events, &mfa).unwrap();
        prop_assert_eq!(&streamed.answers, &to_preorder(&on_tree.answers, &pre));
        prop_assert_eq!(&streamed.stats, &on_tree.stats);
    }
}
