//! Streaming HyPE: the single-pass evaluator over XML event streams.
//!
//! The paper's central algorithmic claim about HyPE (§6) is that one
//! *top-down* pass over the document suffices — the evaluator never looks
//! at a node twice and never looks sideways. [`StreamHype`] makes that
//! claim literal: it is a **stack machine** driven by the
//! `Open`/`Text`/`Close` events of [`smoqe_xml::stream`], keeping one
//! *frame* per open element on the current root-to-leaf path and nothing
//! else of the document. Memory is `O(depth · |M|)` plus the output
//! (`cans` DAG + answers); no arena tree is ever materialized, which the
//! benchmarks assert via [`smoqe_xml::node_allocations`].
//!
//! The machine shares its entire per-node core with the batched tree
//! engine ([`crate::batch`]): both are drivers over the internal `runtime`
//! stack machine, which runs on the bitset-based
//! [`CompiledMfa`](smoqe_automata::CompiledMfa) execution IR — a frame
//! holds exactly the pooled per-query state the recursive evaluator keeps
//! on the call stack, and pruning works event-side by entering *skip mode*
//! — a dead subtree's events are drained with a depth counter and zero
//! per-query work, the moral equivalent of not recursing.
//! As a consequence, answers and [`HypeStats`](crate::HypeStats) are **identical** to the
//! tree engine's, query by query, in solo and batched modes alike (locked
//! in by the `streaming` integration suite).
//!
//! ## Node identity
//!
//! A stream has no arena, so answers identify nodes by their **pre-order
//! index**: the root's `Open` is node 0, the `k`-th `Open` event overall is
//! node `k`, wrapped in [`NodeId`] for interoperability. For documents
//! built by [`smoqe_xml::parse_document`] — which allocates nodes in
//! exactly that order — streamed answers and tree answers coincide
//! verbatim; for trees built in another order, map ids through the tree's
//! pre-order enumeration.
//!
//! ## Indexes and label interning
//!
//! Labels are interned as they first appear on the stream. OptHyPE(-C)
//! pruning is supported, but a [`ReachabilityIndex`](crate::ReachabilityIndex)
//! is keyed by the label ids of the interner it was built against — so
//! indexed streaming requires seeding [`StreamHype::from_compiled`] with
//! that same interner. The plain-HyPE path starts from an empty
//! [`LabelInterner`].

use smoqe_xml::stream::{EventSource, XmlEvent};
use smoqe_xml::{LabelInterner, NodeId, ParseError};

use crate::batch::CompiledBatchQuery;
use crate::engine::HypeResult;
use crate::runtime::HypeCore;

/// Aggregate statistics of one streamed evaluation.
///
/// The per-query [`HypeStats`](crate::HypeStats) inside
/// [`StreamResult::results`] follow the same accounting contract as the
/// tree engine; this struct adds the
/// stream-level counters, in particular the **peak frame count** that
/// substantiates the O(depth) memory claim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Number of queries evaluated.
    pub queries: usize,
    /// Total events consumed (`Open` + `Text` + `Close`).
    pub events: usize,
    /// Number of element nodes in the document (= number of `Open` events).
    pub nodes_total: usize,
    /// Element nodes for which a work frame was created — the size of the
    /// union of the per-query visit sets, identical to
    /// [`BatchStats::nodes_visited`](crate::BatchStats::nodes_visited).
    pub nodes_visited: usize,
    /// Sum of the per-query visit counts — what N sequential solo runs
    /// would have performed.
    pub sequential_node_visits: usize,
    /// Maximum element nesting depth seen on the stream.
    pub peak_depth: usize,
    /// Maximum number of live work frames — bounded by `peak_depth`, and
    /// the whole per-document working set of the evaluator.
    pub peak_frames: usize,
}

impl StreamStats {
    /// How many sequential visits each physical visit amortises
    /// (`sequential / physical`, `1.0` for empty runs).
    pub fn sharing_factor(&self) -> f64 {
        if self.nodes_visited == 0 {
            1.0
        } else {
            self.sequential_node_visits as f64 / self.nodes_visited as f64
        }
    }
}

/// The result of a streamed run: one [`HypeResult`] per query, in input
/// order, plus the stream-level statistics.
#[derive(Debug, Clone)]
pub struct StreamResult {
    /// Per-query answers (pre-order node ids, see the module docs) and
    /// statistics, index-aligned with the input queries.
    pub results: Vec<HypeResult>,
    /// Aggregate statistics of the streamed pass.
    pub stats: StreamStats,
}

/// Pooled text buffer of one open element: a later text run overwrites an
/// earlier one, matching the tree parser's "text attached at close"
/// semantics, and the `String` capacity is recycled across elements so the
/// steady state allocates nothing per text event.
#[derive(Default)]
struct TextEntry {
    has: bool,
    buf: String,
}

/// The streaming HyPE stack machine.
///
/// Feed it a document either by [`Self::run`]ning it over an
/// [`EventSource`], or by pushing events manually through [`Self::open`],
/// [`Self::text`] and [`Self::close`] (for sources the reader cannot wrap,
/// e.g. an async network decoder), then call [`Self::finish`].
///
/// ```
/// use std::sync::Arc;
/// use smoqe_automata::{compile_query, CompiledMfa};
/// use smoqe_hype::{CompiledBatchQuery, StreamHype};
/// use smoqe_xml::{LabelInterner, XmlStreamReader};
/// use smoqe_xpath::parse_path;
///
/// let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path("patient/pname").unwrap())));
/// let xml = "<hospital><patient><pname>Alice</pname></patient></hospital>";
/// let engine = StreamHype::from_compiled(&[CompiledBatchQuery::new(ir)], LabelInterner::new());
/// let out = engine.run(&mut XmlStreamReader::new(xml.as_bytes())).unwrap();
/// assert_eq!(out.results[0].answers.len(), 1);
/// assert_eq!(out.stats.peak_frames, 3); // O(depth), not O(document)
/// ```
pub struct StreamHype<'a> {
    /// The compiled evaluation core shared with the tree engine.
    core: HypeCore<'a>,
    /// Grows as labels first appear on the stream.
    labels: LabelInterner,
    /// How many interned labels the runtimes' column maps already cover.
    known_labels: usize,
    /// One pooled text buffer per live work frame.
    texts: Vec<TextEntry>,
    spare_texts: Vec<TextEntry>,
    /// When > 0, the machine is draining a subtree every query pruned:
    /// the count of open elements inside the dead region.
    skip_depth: usize,
    /// Current element nesting depth (including skipped elements).
    depth: usize,
    /// Set once the document root has closed.
    root_done: bool,
    /// Pre-order index handed to the next `Open` event.
    next_preorder: u32,
    events: usize,
    nodes_total: usize,
    peak_depth: usize,
    peak_frames: usize,
}

impl<'a> StreamHype<'a> {
    /// A machine over pre-compiled execution IRs (shared via `Arc`, e.g.
    /// from the `smoqe` service cache). Pass an empty [`LabelInterner`] for
    /// plain HyPE; when any [`CompiledBatchQuery::index`] is set, pass the
    /// interner that index was built over, so the stream's label ids agree
    /// with the index's (see the module docs).
    pub fn from_compiled(queries: &[CompiledBatchQuery<'a>], labels: LabelInterner) -> Self {
        StreamHype {
            core: HypeCore::for_queries(&labels, queries),
            known_labels: labels.len(),
            labels,
            texts: Vec::new(),
            spare_texts: Vec::new(),
            skip_depth: 0,
            depth: 0,
            root_done: false,
            next_preorder: 0,
            events: 0,
            nodes_total: 0,
            peak_depth: 0,
            peak_frames: 0,
        }
    }

    /// Drives the machine over `source` to exhaustion and returns the
    /// per-query results. Parse/IO errors of the source are propagated; the
    /// evaluation state consumed so far is discarded with the machine.
    pub fn run(mut self, source: &mut impl EventSource) -> Result<StreamResult, ParseError> {
        while let Some(event) = source.next_event()? {
            match event {
                XmlEvent::Open(name) => self.open(name),
                XmlEvent::Text(text) => self.text(text),
                XmlEvent::Close => self.close(),
            }
        }
        Ok(self.finish())
    }

    /// Pushes an element-open event.
    ///
    /// # Panics
    /// Panics if the document root has already closed (event sequences must
    /// describe a single-rooted document).
    pub fn open(&mut self, name: &str) {
        assert!(!self.root_done, "open() after the document root closed");
        self.events += 1;
        self.nodes_total += 1;
        self.next_preorder += 1;
        let node = NodeId(self.next_preorder - 1);
        self.depth += 1;
        self.peak_depth = self.peak_depth.max(self.depth);
        if self.skip_depth > 0 {
            self.skip_depth += 1;
            return;
        }

        let label = self.labels.intern(name);
        if self.labels.len() > self.known_labels {
            self.known_labels = self.labels.len();
            self.core.extend_labels(&self.labels);
        }

        if !self.core.open(node, label) {
            // Every query pruned this subtree (or none was pending): drain
            // its events with a depth counter and zero per-query work.
            self.skip_depth = 1;
            return;
        }
        self.peak_frames = self.peak_frames.max(self.core.frame_count());
        let mut entry = self.spare_texts.pop().unwrap_or_default();
        entry.has = false;
        self.texts.push(entry);
    }

    /// Pushes a text event for the innermost open element. A later text run
    /// of the same element overwrites an earlier one (children in between),
    /// matching the tree parser's "text attached at close" semantics.
    pub fn text(&mut self, text: &str) {
        self.events += 1;
        if self.skip_depth > 0 {
            return;
        }
        if let Some(entry) = self.texts.last_mut() {
            entry.has = true;
            entry.buf.clear();
            entry.buf.push_str(text);
        }
    }

    /// Pushes an element-close event, resolving the innermost frame: the
    /// pending filter states are evaluated bottom-up from the closed
    /// children's values, invalid `cans` vertices are marked, and the
    /// frame's values are handed to its parent.
    ///
    /// # Panics
    /// Panics if no element is open.
    pub fn close(&mut self) {
        self.events += 1;
        assert!(self.depth > 0, "close() with no open element");
        self.depth -= 1;
        if self.skip_depth > 0 {
            self.skip_depth -= 1;
            return;
        }
        let entry = self
            .texts
            .pop()
            .expect("a work frame exists when not skipping");
        let text = if entry.has {
            Some(entry.buf.as_str())
        } else {
            None
        };
        self.core.close(text);
        self.spare_texts.push(entry);
        if self.depth == 0 {
            self.root_done = true;
        }
    }

    /// Consumes the machine and produces the per-query results.
    ///
    /// # Panics
    /// Panics if elements are still open (the event sequence was truncated).
    pub fn finish(self) -> StreamResult {
        assert!(
            self.depth == 0 && self.core.frame_count() == 0,
            "finish() with {} unbalanced open element(s)",
            self.depth
        );
        let queries = self.core.runtimes.len();
        let (results, nodes_visited, sequential_node_visits) =
            self.core.into_results(self.nodes_total);
        StreamResult {
            results,
            stats: StreamStats {
                queries,
                events: self.events,
                nodes_total: self.nodes_total,
                nodes_visited,
                sequential_node_visits,
                peak_depth: self.peak_depth,
                peak_frames: self.peak_frames,
            },
        }
    }

    /// Current number of live work frames (for observability; bounded by
    /// the element nesting depth).
    pub fn live_frames(&self) -> usize {
        self.core.frame_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ReachabilityIndex;
    use crate::testing::solo;
    use smoqe_automata::{compile_query, CompiledMfa, Mfa};
    use std::sync::Arc;
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xml::stream::TreeEvents;
    use smoqe_xml::{to_xml_string, XmlStreamReader, XmlTree, XmlTreeBuilder};
    use smoqe_xpath::parse_path;

    /// A small document conforming to the hospital DTD (mirrors the batch
    /// engine's fixture so the differential checks cover the same shapes).
    fn hospital_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology");
        for (name, diag) in [
            ("Alice", "heart disease"),
            ("Bob", "flu"),
            ("Carol", "heart disease"),
        ] {
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", name);
            let addr = b.child(p, "address");
            b.child_with_text(addr, "street", "s");
            b.child_with_text(addr, "city", "c");
            b.child_with_text(addr, "zip", "z");
            let v = b.child(p, "visit");
            b.child_with_text(v, "date", "2006-01-01");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "type", "tablet");
            b.child_with_text(m, "diagnosis", diag);
            let d = b.child(dept, "doctor");
            b.child_with_text(d, "dname", "Dr X");
            b.child_with_text(d, "specialty", "cardiology");
        }
        b.finish()
    }

    /// Streams `source` through a fresh machine for `queries`.
    fn stream_batch(
        source: &mut impl EventSource,
        queries: &[CompiledBatchQuery],
    ) -> Result<StreamResult, ParseError> {
        StreamHype::from_compiled(queries, LabelInterner::new()).run(source)
    }

    /// Streams `source` for `mfa` alone, with plain HyPE.
    fn stream_solo(
        source: &mut impl EventSource,
        mfa: &Mfa,
    ) -> Result<(HypeResult, StreamStats), ParseError> {
        let query = CompiledBatchQuery::new(Arc::new(CompiledMfa::new(mfa)));
        let mut out = stream_batch(source, &[query])?;
        Ok((out.results.remove(0), out.stats))
    }

    /// Maps a tree's node ids to the pre-order indices a stream assigns.
    fn preorder_ids(tree: &XmlTree) -> std::collections::HashMap<NodeId, NodeId> {
        tree.descendants_or_self(tree.root())
            .into_iter()
            .enumerate()
            .map(|(i, n)| (n, NodeId(i as u32)))
            .collect()
    }

    const QUERIES: &[&str] = &[
        "department/patient/pname",
        "//zip",
        "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
        "department/doctor[specialty/text()='cardiology']/dname",
        "department/patient[not(visit)]",
        "//diagnosis",
        "department/patient[visit and not(visit/treatment/test)]",
    ];

    #[test]
    fn streamed_answers_and_stats_match_the_tree_engine() {
        let doc = hospital_doc();
        let pre = preorder_ids(&doc);
        for query in QUERIES {
            let mfa = compile_query(&parse_path(query).unwrap());
            let solo = solo(&doc, doc.root(), &mfa, None);
            let mut events = TreeEvents::new(&doc);
            let (streamed, _) = stream_solo(&mut events, &mfa).unwrap();
            let expected: std::collections::BTreeSet<NodeId> =
                solo.answers.iter().map(|n| pre[n]).collect();
            assert_eq!(streamed.answers, expected, "answers differ on `{query}`");
            assert_eq!(streamed.stats, solo.stats, "stats differ on `{query}`");
        }
    }

    #[test]
    fn streaming_raw_xml_matches_evaluating_the_parsed_tree() {
        let doc = hospital_doc();
        let xml = to_xml_string(&doc);
        // The parser allocates nodes in pre-order, so ids line up verbatim.
        let reparsed = smoqe_xml::parse_document(&xml).unwrap();
        for query in QUERIES {
            let mfa = compile_query(&parse_path(query).unwrap());
            let solo = solo(&reparsed, reparsed.root(), &mfa, None);
            let mut reader = XmlStreamReader::new(xml.as_bytes());
            let (streamed, stream_stats) = stream_solo(&mut reader, &mfa).unwrap();
            assert_eq!(streamed.answers, solo.answers, "answers differ on `{query}`");
            assert_eq!(streamed.stats, solo.stats, "stats differ on `{query}`");
            assert!(stream_stats.peak_frames <= stream_stats.peak_depth);
            assert_eq!(stream_stats.nodes_total, reparsed.len());
        }
    }

    #[test]
    fn streamed_batch_matches_tree_batch_per_query() {
        let doc = hospital_doc();
        let pre = preorder_ids(&doc);
        let mfas: Vec<_> = QUERIES
            .iter()
            .map(|q| compile_query(&parse_path(q).unwrap()))
            .collect();
        let batch_queries: Vec<CompiledBatchQuery> = mfas
            .iter()
            .map(|m| CompiledBatchQuery::new(Arc::new(CompiledMfa::new(m))))
            .collect();
        let tree_batch = crate::evaluate_tree(&doc, doc.root(), &batch_queries, 1);
        let mut events = TreeEvents::new(&doc);
        let streamed = stream_batch(&mut events, &batch_queries).unwrap();
        assert_eq!(streamed.results.len(), tree_batch.results.len());
        for (i, query) in QUERIES.iter().enumerate() {
            let expected: std::collections::BTreeSet<NodeId> =
                tree_batch.results[i].answers.iter().map(|n| pre[n]).collect();
            assert_eq!(streamed.results[i].answers, expected, "on `{query}`");
            assert_eq!(streamed.results[i].stats, tree_batch.results[i].stats, "on `{query}`");
        }
        assert_eq!(streamed.stats.nodes_visited, tree_batch.stats.nodes_visited);
        assert_eq!(
            streamed.stats.sequential_node_visits,
            tree_batch.stats.sequential_node_visits
        );
        assert_eq!(streamed.stats.nodes_total, tree_batch.stats.nodes_total);
    }

    #[test]
    fn indexed_streaming_matches_opthype_with_a_seeded_interner() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        let pre = preorder_ids(&doc);
        for query in QUERIES {
            let mfa = compile_query(&parse_path(query).unwrap());
            let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
            let solo = solo(&doc, doc.root(), &mfa, Some(&index));
            let engine = StreamHype::from_compiled(
                &[CompiledBatchQuery::with_index(Arc::new(CompiledMfa::new(&mfa)), &index)],
                doc.labels().clone(),
            );
            let mut events = TreeEvents::new(&doc);
            let mut out = engine.run(&mut events).unwrap();
            let streamed = out.results.pop().unwrap();
            let expected: std::collections::BTreeSet<NodeId> =
                solo.answers.iter().map(|n| pre[n]).collect();
            assert_eq!(streamed.answers, expected, "answers differ on `{query}`");
            assert_eq!(streamed.stats, solo.stats, "stats differ on `{query}`");
        }
    }

    #[test]
    fn skip_mode_drains_dead_subtrees_without_work() {
        // `doctor` matches nothing below the root's children: every
        // department subtree is skipped after its own Open.
        let doc = hospital_doc();
        let mfa = compile_query(&parse_path("doctor").unwrap());
        let mut events = TreeEvents::new(&doc);
        let (result, stats) = stream_solo(&mut events, &mfa).unwrap();
        assert!(result.answers.is_empty());
        assert_eq!(result.stats.nodes_visited, 1, "only the root is visited");
        assert_eq!(stats.nodes_total, doc.len(), "skipped nodes still count");
        assert_eq!(stats.peak_frames, 1);
    }

    #[test]
    fn empty_query_set_streams_to_empty_results() {
        let doc = hospital_doc();
        let mut events = TreeEvents::new(&doc);
        let out = stream_batch(&mut events, &[]).unwrap();
        assert!(out.results.is_empty());
        assert_eq!(out.stats.nodes_total, doc.len());
        assert_eq!(out.stats.nodes_visited, 0);
    }

    #[test]
    fn push_api_equals_event_source_api() {
        let mfa = compile_query(&parse_path("a/b[text()='x']").unwrap());
        let query = CompiledBatchQuery::new(Arc::new(CompiledMfa::new(&mfa)));
        let mut machine = StreamHype::from_compiled(&[query], LabelInterner::new());
        machine.open("r");
        machine.open("a");
        machine.open("b");
        machine.text("x");
        machine.close();
        machine.open("b");
        machine.text("y");
        machine.close();
        machine.close();
        machine.close();
        let out = machine.finish();
        assert_eq!(out.results[0].answers.len(), 1);

        let xml = "<r><a><b>x</b><b>y</b></a></r>";
        let mut reader = XmlStreamReader::new(xml.as_bytes());
        let (via_reader, _) = stream_solo(&mut reader, &mfa).unwrap();
        assert_eq!(out.results[0].answers, via_reader.answers);
        assert_eq!(out.results[0].stats, via_reader.stats);
    }

    #[test]
    fn mixed_content_text_before_a_child_matches_the_tree_engine() {
        // parse_document drops text that precedes a child element; the
        // streamed path must agree, or `a[text()='x']` would select <a> in
        // the stream but not in the tree.
        let xml = "<r><a>x<b/></a><a>y</a></r>";
        let tree = smoqe_xml::parse_document(xml).unwrap();
        for query in ["a[text()='x']", "a[text()='y']", "a[b]"] {
            let mfa = compile_query(&parse_path(query).unwrap());
            let on_tree = solo(&tree, tree.root(), &mfa, None);
            let mut reader = XmlStreamReader::new(xml.as_bytes());
            let (streamed, _) = stream_solo(&mut reader, &mfa).unwrap();
            assert_eq!(streamed.answers, on_tree.answers, "on `{query}`");
            assert_eq!(streamed.stats, on_tree.stats, "on `{query}`");
        }
    }

    #[test]
    fn parse_errors_propagate_and_abort_the_run() {
        let mfa = compile_query(&parse_path("a").unwrap());
        let mut reader = XmlStreamReader::new("<r><a></r>".as_bytes());
        let err = stream_solo(&mut reader, &mfa).unwrap_err();
        assert!(matches!(err, ParseError::MismatchedTag { .. }));
    }

    #[test]
    #[should_panic(expected = "unbalanced")]
    fn finish_panics_on_truncated_input() {
        let mfa = compile_query(&parse_path("a").unwrap());
        let query = CompiledBatchQuery::new(Arc::new(CompiledMfa::new(&mfa)));
        let mut machine = StreamHype::from_compiled(&[query], LabelInterner::new());
        machine.open("r");
        let _ = machine.finish();
    }

    #[test]
    fn no_arena_nodes_are_allocated_while_streaming() {
        let doc = hospital_doc();
        let xml = to_xml_string(&doc);
        let mfa = compile_query(&parse_path("//diagnosis").unwrap());
        let before = smoqe_xml::node_allocations();
        let mut reader = XmlStreamReader::new(xml.as_bytes());
        let (result, _) = stream_solo(&mut reader, &mfa).unwrap();
        assert_eq!(
            smoqe_xml::node_allocations(),
            before,
            "streaming evaluation must not build an arena tree"
        );
        assert_eq!(result.answers.len(), 3);
    }
}
