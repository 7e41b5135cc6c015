//! The tree engine: HyPE evaluation of a batch of compiled queries over
//! an [`XmlTree`], through the one entry point [`evaluate_tree`].
//!
//! A production SMOQE deployment does not run one query per document
//! traversal: many concurrent callers pose (often different) queries against
//! the same document. This module drives **N compiled MFAs through a single
//! depth-first pass**: the pending selecting-NFA states and filter-state
//! requests are kept per query — as `u64`-word bitsets over the
//! [`CompiledMfa`] execution IR — and a subtree is descended into as soon as
//! *any* of the batched queries still has work there. Pruning therefore only
//! skips a subtree when **every** query agrees it is dead (its basic prune
//! and, when an index is supplied, its OptHyPE prune both fire).
//!
//! Every per-query artefact — the candidate-answer DAG `cans`, the
//! [`HypeStats`](crate::HypeStats), the answer set — is built exactly as a
//! solo run would build it: whether a query participates in a child visit
//! depends only on that query's own state at the node, so its recursion
//! tree, vertex numbering and statistics are *identical* to a stand-alone
//! run. A solo evaluation is simply a batch of one; the batched-vs-solo
//! integration suite checks the equivalence query-by-query over the whole
//! corpus, and the `compiled_differential` suite pins answers and
//! statistics to the interpreted reference engines in
//! [`crate::interpreted`].
//!
//! What batching buys is the traversal itself: a node shared by the pending
//! sets of k queries is visited once instead of k times, so the *physical*
//! visit count is the size of the union of the per-query visit sets
//! ([`BatchStats::nodes_visited`]) rather than their sum
//! ([`BatchStats::sequential_node_visits`]).
//!
//! The IR is compiled once per query — [`CompiledMfa::new`], usually via
//! the `smoqe` service layer's cache — and shared by `Arc`, so an
//! evaluation never recompiles it.

use std::sync::Arc;

use smoqe_automata::CompiledMfa;
use smoqe_xml::{NodeId, XmlTree};

use crate::engine::HypeResult;
use crate::index::ReachabilityIndex;
use crate::parallel::{evaluate_sharded, resolve_threads};
use crate::runtime::HypeCore;

/// One query of a batch: a shared [`CompiledMfa`] execution IR plus,
/// optionally, its OptHyPE(-C) reachability index.
///
/// The IR is document-independent, so one `Arc<CompiledMfa>` serves any
/// number of evaluations over any documents (the `smoqe::QueryService`
/// caches it next to the rewritten query, keyed by the view and query
/// fingerprints).
#[derive(Debug, Clone)]
pub struct CompiledBatchQuery<'a> {
    /// The execution IR.
    pub compiled: Arc<CompiledMfa>,
    /// The DTD reachability index, when OptHyPE pruning is wanted. Queries
    /// of one batch may mix indexed and plain evaluation.
    pub index: Option<&'a ReachabilityIndex>,
}

impl<'a> CompiledBatchQuery<'a> {
    /// A batch member evaluated with plain HyPE.
    pub fn new(compiled: Arc<CompiledMfa>) -> Self {
        CompiledBatchQuery {
            compiled,
            index: None,
        }
    }

    /// A batch member evaluated with OptHyPE(-C) pruning.
    pub fn with_index(compiled: Arc<CompiledMfa>, index: &'a ReachabilityIndex) -> Self {
        CompiledBatchQuery {
            compiled,
            index: Some(index),
        }
    }
}

/// Traversal statistics of one batched run, aggregated over all queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Number of queries in the batch.
    pub queries: usize,
    /// Number of element nodes in the evaluated subtree.
    pub nodes_total: usize,
    /// Number of element nodes physically visited by the shared traversal
    /// (the size of the union of the per-query visit sets).
    pub nodes_visited: usize,
    /// Sum of the per-query visit counts — exactly the number of node visits
    /// N sequential solo runs would have performed.
    pub sequential_node_visits: usize,
}

impl BatchStats {
    /// Node visits saved relative to running every query on its own pass.
    pub fn visits_saved(&self) -> usize {
        self.sequential_node_visits
            .saturating_sub(self.nodes_visited)
    }

    /// How many sequential visits each physical visit amortises
    /// (`sequential / physical`, in `[1, N]` for non-empty batches).
    pub fn sharing_factor(&self) -> f64 {
        if self.nodes_visited == 0 {
            1.0
        } else {
            self.sequential_node_visits as f64 / self.nodes_visited as f64
        }
    }
}

/// The result of a batched run: one [`HypeResult`] per query, in input
/// order, plus the shared traversal statistics.
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-query answers and statistics, index-aligned with the input batch.
    pub results: Vec<HypeResult>,
    /// Aggregate statistics of the shared traversal.
    pub stats: BatchStats,
}

/// Evaluates every query of `queries` at `context` in one pass over the
/// context's subtree — the one tree evaluator every front end reduces to.
///
/// `threads` is the thread budget: `0` means all available cores, `1` runs
/// the sequential walk on the calling thread, and larger budgets shard the
/// traversal over up to that many workers ([`crate::parallel`]) unless the
/// shard plan cannot balance, in which case they walk too. Results
/// are index-aligned with `queries`, each exactly what a solo run would
/// have produced — answers *and* [`HypeStats`](crate::HypeStats) — and the
/// aggregate [`BatchStats`] do not depend on the budget either:
///
/// ```
/// use std::sync::Arc;
/// use smoqe_automata::{compile_query, CompiledMfa};
/// use smoqe_hype::{evaluate_tree, CompiledBatchQuery};
/// use smoqe_xml::XmlTreeBuilder;
/// use smoqe_xpath::parse_path;
///
/// let mut b = XmlTreeBuilder::new();
/// let root = b.root("hospital");
/// for name in ["Alice", "Bob"] {
///     let patient = b.child(root, "patient");
///     b.child_with_text(patient, "pname", name);
/// }
/// let doc = b.finish();
///
/// let ir = |q: &str| Arc::new(CompiledMfa::new(&compile_query(&parse_path(q).unwrap())));
/// let queries = [
///     CompiledBatchQuery::new(ir("patient")),
///     CompiledBatchQuery::new(ir("patient/pname")),
/// ];
/// let batch = evaluate_tree(&doc, doc.root(), &queries, 1);
///
/// assert_eq!(batch.results.len(), 2);
/// assert_eq!(batch.results[0].answers.len(), 2); // the <patient>s
/// assert_eq!(batch.results[1].answers.len(), 2); // their <pname>s
/// // The shared pass performs no more visits than N sequential runs would.
/// assert!(batch.stats.nodes_visited <= batch.stats.sequential_node_visits);
///
/// // Sharded over four workers: the same answers and statistics.
/// let parallel = evaluate_tree(&doc, doc.root(), &queries, 4);
/// assert_eq!(parallel.stats, batch.stats);
/// for (p, s) in parallel.results.iter().zip(&batch.results) {
///     assert_eq!(p.answers, s.answers);
///     assert_eq!(p.stats, s.stats);
/// }
/// ```
pub fn evaluate_tree(
    tree: &XmlTree,
    context: NodeId,
    queries: &[CompiledBatchQuery],
    threads: usize,
) -> BatchResult {
    let threads = resolve_threads(threads);
    batch_result(tree, context, queries.len(), |nodes_total| {
        if threads == 1 {
            let mut core = HypeCore::for_queries(tree.labels(), queries);
            walk(&mut core, tree, context);
            let (results, nodes_visited, _) = core.into_results(nodes_total);
            (results, nodes_visited)
        } else {
            evaluate_sharded(tree, context, queries, threads, nodes_total)
        }
    })
}

/// Evaluates every pre-compiled query at the root of `tree` in one
/// sequential pass: [`evaluate_tree`] at budget 1. Kept under this name
/// because the `perfbench` benchmark calls it.
pub fn evaluate_batch_compiled(tree: &XmlTree, queries: &[CompiledBatchQuery]) -> BatchResult {
    evaluate_tree(tree, tree.root(), queries, 1)
}

/// The one place a [`BatchResult`] is put together, for the tree walk and
/// for incremental re-evaluation alike: counts the context's subtree, runs
/// `evaluate` on a non-empty batch (an empty one visits nothing), and
/// derives the aggregate statistics from what it returns — the per-query
/// results and the physical visit count.
pub(crate) fn batch_result(
    tree: &XmlTree,
    context: NodeId,
    queries: usize,
    evaluate: impl FnOnce(usize) -> (Vec<HypeResult>, usize),
) -> BatchResult {
    let nodes_total = tree.subtree_size(context);
    let (results, nodes_visited) = if queries == 0 {
        (Vec::new(), 0)
    } else {
        evaluate(nodes_total)
    };
    let sequential_node_visits = results.iter().map(|r| r.stats.nodes_visited).sum();
    BatchResult {
        stats: BatchStats {
            queries: results.len(),
            nodes_total,
            nodes_visited,
            sequential_node_visits,
        },
        results,
    }
}

/// The tree driver of the shared core: open the node (the core decides per
/// query whether it has work, pruning exactly as a solo run would), descend
/// into the children only when some query kept the subtree alive, and close
/// bottom-up. Also drives each shard of a parallel run
/// ([`crate::parallel`]), whose cores are seeded with the context frame.
///
/// The traversal is iterative — an explicit `(node, next-child)` frame
/// stack — because document depth is adversarial input (deep `parent` or
/// `part` chains) and must not overflow the call stack. Open/close order is
/// identical to the natural recursion, so statistics are unchanged.
pub(crate) fn walk(core: &mut HypeCore, tree: &XmlTree, node: NodeId) {
    // A `false` open means every query pruned the subtree: the moral "do
    // not recurse".
    if core.open(node, tree.label(node)) {
        walk_opened(core, tree, node);
    }
}

/// The rest of [`walk`] once `core` has opened `node`: its descendants,
/// then its close.
pub(crate) fn walk_opened(core: &mut HypeCore, tree: &XmlTree, node: NodeId) {
    let mut stack: Vec<(NodeId, usize)> = vec![(node, 0)];
    while let Some(&mut (open_node, ref mut next)) = stack.last_mut() {
        let children = tree.children(open_node);
        if *next < children.len() {
            let child = children[*next];
            *next += 1;
            if core.open(child, tree.label(child)) {
                stack.push((child, 0));
            }
        } else {
            core.close(tree.text(open_node));
            stack.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ir, solo};
    use smoqe_automata::compile_query;
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::parse_path;

    /// A small document conforming to the hospital DTD.
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

    const QUERIES: &[&str] = &[
        "department/patient/pname",
        "//zip",
        "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
        "department/doctor[specialty/text()='cardiology']/dname",
        "department/patient[not(visit)]",
        "//diagnosis",
    ];

    fn batch(doc: &XmlTree, queries: &[CompiledBatchQuery]) -> BatchResult {
        evaluate_tree(doc, doc.root(), queries, 1)
    }

    #[test]
    fn batch_matches_solo_runs_exactly() {
        let doc = hospital_doc();
        let mfas: Vec<_> = QUERIES
            .iter()
            .map(|q| compile_query(&parse_path(q).unwrap()))
            .collect();
        let batch_queries: Vec<CompiledBatchQuery> = QUERIES
            .iter()
            .map(|q| CompiledBatchQuery::new(ir(q)))
            .collect();
        let batch = batch(&doc, &batch_queries);
        assert_eq!(batch.results.len(), QUERIES.len());
        for (i, mfa) in mfas.iter().enumerate() {
            let solo = solo(&doc, doc.root(), mfa, None);
            assert_eq!(
                batch.results[i].answers, solo.answers,
                "answers differ on `{}`",
                QUERIES[i]
            );
            assert_eq!(
                batch.results[i].stats, solo.stats,
                "stats differ on `{}`",
                QUERIES[i]
            );
        }
    }

    #[test]
    fn batch_matches_solo_runs_with_indexes() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        let mfas: Vec<_> = QUERIES
            .iter()
            .map(|q| compile_query(&parse_path(q).unwrap()))
            .collect();
        let indexes: Vec<_> = mfas
            .iter()
            .map(|m| ReachabilityIndex::new(m, &dtd, doc.labels()))
            .collect();
        let batch_queries: Vec<CompiledBatchQuery> = mfas
            .iter()
            .zip(&indexes)
            .map(|(m, i)| CompiledBatchQuery::with_index(Arc::new(CompiledMfa::new(m)), i))
            .collect();
        let batch = batch(&doc, &batch_queries);
        for (i, (mfa, index)) in mfas.iter().zip(&indexes).enumerate() {
            let solo = solo(&doc, doc.root(), mfa, Some(index));
            assert_eq!(
                batch.results[i].answers, solo.answers,
                "on `{}`",
                QUERIES[i]
            );
            assert_eq!(batch.results[i].stats, solo.stats, "on `{}`", QUERIES[i]);
        }
    }

    #[test]
    fn shared_traversal_visits_fewer_nodes_than_sequential_sum() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        let mfas: Vec<_> = QUERIES
            .iter()
            .map(|q| compile_query(&parse_path(q).unwrap()))
            .collect();
        let indexes: Vec<_> = mfas
            .iter()
            .map(|m| ReachabilityIndex::new(m, &dtd, doc.labels()))
            .collect();
        // Plain HyPE, then OptHyPE with every query pruned by its index.
        for indexed in [false, true] {
            let index = |i: usize| indexed.then(|| &indexes[i]);
            let batch_queries: Vec<CompiledBatchQuery> = mfas
                .iter()
                .enumerate()
                .map(|(i, m)| CompiledBatchQuery {
                    compiled: Arc::new(CompiledMfa::new(m)),
                    index: index(i),
                })
                .collect();
            let batch = batch(&doc, &batch_queries);
            let visits: Vec<usize> = mfas
                .iter()
                .enumerate()
                .map(|(i, m)| solo(&doc, doc.root(), m, index(i)).stats.nodes_visited)
                .collect();
            let sequential: usize = visits.iter().sum();
            assert_eq!(
                batch.stats.sequential_node_visits, sequential,
                "indexed: {indexed}"
            );
            assert!(
                batch.stats.nodes_visited < sequential,
                "batched {} visits should be fewer than sequential {} (indexed: {indexed})",
                batch.stats.nodes_visited,
                sequential
            );
            // The union of visit sets is at least as large as any single set.
            let max_single = *visits.iter().max().unwrap();
            assert!(batch.stats.nodes_visited >= max_single);
            assert!(batch.stats.nodes_visited <= batch.stats.nodes_total);
            assert!(batch.stats.sharing_factor() > 1.0);
            assert_eq!(
                batch.stats.visits_saved(),
                sequential - batch.stats.nodes_visited
            );
        }
    }

    #[test]
    fn mixed_indexed_and_plain_queries_in_one_batch() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        let zip = compile_query(&parse_path("//zip").unwrap());
        let diag = compile_query(&parse_path("//diagnosis").unwrap());
        let index = ReachabilityIndex::new(&zip, &dtd, doc.labels());
        let batch = batch(
            &doc,
            &[
                CompiledBatchQuery::with_index(Arc::new(CompiledMfa::new(&zip)), &index),
                CompiledBatchQuery::new(Arc::new(CompiledMfa::new(&diag))),
            ],
        );
        let zip_solo = solo(&doc, doc.root(), &zip, Some(&index));
        assert_eq!(batch.results[0].answers, zip_solo.answers);
        assert_eq!(
            batch.results[1].answers,
            solo(&doc, doc.root(), &diag, None).answers
        );
        // The indexed query prunes for itself, but the plain //diagnosis
        // query keeps most of the document live, so the shared traversal
        // still visits those nodes.
        assert_eq!(
            batch.results[0].stats.nodes_visited,
            zip_solo.stats.nodes_visited
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let doc = hospital_doc();
        for threads in [1, 4] {
            let batch = evaluate_tree(&doc, doc.root(), &[], threads);
            assert!(batch.results.is_empty());
            assert_eq!(batch.stats.queries, 0);
            assert_eq!(batch.stats.nodes_total, doc.len());
            assert_eq!(batch.stats.nodes_visited, 0);
            assert_eq!(batch.stats.sequential_node_visits, 0);
            assert_eq!(batch.stats.sharing_factor(), 1.0);
        }
    }

    #[test]
    fn duplicate_queries_share_the_whole_traversal() {
        let doc = hospital_doc();
        let mfa = compile_query(&parse_path("department/patient/pname").unwrap());
        let compiled = Arc::new(CompiledMfa::new(&mfa));
        let batch = batch(
            &doc,
            &[
                CompiledBatchQuery::new(Arc::clone(&compiled)),
                CompiledBatchQuery::new(compiled),
            ],
        );
        let solo = solo(&doc, doc.root(), &mfa, None);
        for r in &batch.results {
            assert_eq!(r.answers, solo.answers);
            assert_eq!(r.stats, solo.stats);
        }
        // Identical pending sets → the union is one solo traversal.
        assert_eq!(batch.stats.nodes_visited, solo.stats.nodes_visited);
        assert_eq!(
            batch.stats.sequential_node_visits,
            2 * solo.stats.nodes_visited
        );
    }

    #[test]
    fn batch_at_inner_context() {
        let doc = hospital_doc();
        let mfa = compile_query(&parse_path("patient/pname").unwrap());
        let dept = doc.children(doc.root())[0];
        let batch = evaluate_tree(
            &doc,
            dept,
            &[CompiledBatchQuery::new(Arc::new(CompiledMfa::new(&mfa)))],
            1,
        );
        let solo = solo(&doc, dept, &mfa, None);
        assert_eq!(batch.results[0].answers, solo.answers);
        assert_eq!(batch.results[0].stats, solo.stats);
        assert_eq!(batch.stats.nodes_total, doc.subtree_size(dept));
    }
}
