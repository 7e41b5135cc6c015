//! Batched multi-query HyPE evaluation on the compiled execution IR.
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
//! [`HypeStats`](crate::HypeStats), the answer set — is built exactly as the solo evaluator
//! would build it: whether a query participates in a child visit depends
//! only on that query's own state at the node, so its recursion tree, vertex
//! numbering and statistics are *identical* to a stand-alone run. The solo
//! entry points in [`crate::engine`] are in fact implemented as the 1-query
//! special case of this engine, the batched-vs-sequential integration
//! suite checks the equivalence query-by-query over the whole corpus, and
//! the `compiled_differential` suite pins answers and statistics to the
//! interpreted reference engines in [`crate::interpreted`].
//!
//! What batching buys is the traversal itself: a node shared by the pending
//! sets of k queries is visited once instead of k times, so the *physical*
//! visit count is the size of the union of the per-query visit sets
//! ([`BatchStats::nodes_visited`]) rather than their sum
//! ([`BatchStats::sequential_node_visits`]).
//!
//! Callers that evaluate the same query repeatedly should compile once —
//! [`CompiledMfa::new`], usually via the `smoqe` service layer's cache —
//! and use [`evaluate_batch_compiled`]; the [`evaluate_batch`] convenience
//! recompiles the IR on every call.

use std::sync::Arc;

use smoqe_automata::{CompiledMfa, Mfa};
use smoqe_xml::{NodeId, XmlTree};

use crate::engine::HypeResult;
use crate::index::ReachabilityIndex;
use crate::runtime::HypeCore;

/// One query of a batch: a builder-representation MFA plus, optionally, its
/// OptHyPE(-C) reachability index. The execution IR is compiled on entry;
/// see [`CompiledBatchQuery`] for the compile-once form.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The compiled automaton.
    pub mfa: &'a Mfa,
    /// The DTD reachability index, when OptHyPE pruning is wanted for this
    /// query. Queries of one batch may mix indexed and plain evaluation.
    pub index: Option<&'a ReachabilityIndex>,
}

impl<'a> BatchQuery<'a> {
    /// A batch member evaluated with plain HyPE.
    pub fn new(mfa: &'a Mfa) -> Self {
        BatchQuery { mfa, index: None }
    }

    /// A batch member evaluated with OptHyPE(-C) pruning.
    pub fn with_index(mfa: &'a Mfa, index: &'a ReachabilityIndex) -> Self {
        BatchQuery {
            mfa,
            index: Some(index),
        }
    }

    /// Compiles the execution IR for this batch member.
    pub fn compile(&self) -> CompiledBatchQuery<'a> {
        CompiledBatchQuery {
            compiled: Arc::new(CompiledMfa::new(self.mfa)),
            index: self.index,
        }
    }
}

/// One query of a batch in compile-once form: a shared [`CompiledMfa`]
/// execution IR plus, optionally, its OptHyPE(-C) reachability index.
///
/// The IR is document-independent, so one `Arc<CompiledMfa>` serves any
/// number of evaluations over any documents (the `smoqe::QueryService`
/// caches it next to the rewritten query, keyed by the view and query
/// fingerprints).
#[derive(Debug, Clone)]
pub struct CompiledBatchQuery<'a> {
    /// The execution IR.
    pub compiled: Arc<CompiledMfa>,
    /// The DTD reachability index, when OptHyPE pruning is wanted.
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
        self.sequential_node_visits.saturating_sub(self.nodes_visited)
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

/// Evaluates every query of `queries` at the root of `tree` in one pass.
///
/// Results are index-aligned with `queries`, and each one is exactly what a
/// solo [`crate::evaluate`] run would have produced — answers *and*
/// [`HypeStats`](crate::HypeStats) — while the document is traversed only once:
///
/// ```
/// use smoqe_automata::compile_query;
/// use smoqe_hype::{evaluate_batch, BatchQuery};
/// use smoqe_xml::XmlTreeBuilder;
/// use smoqe_xpath::parse_path;
///
/// let mut b = XmlTreeBuilder::new();
/// let root = b.root("hospital");
/// let patient = b.child(root, "patient");
/// b.child_with_text(patient, "pname", "Alice");
/// let doc = b.finish();
///
/// let patients = compile_query(&parse_path("patient").unwrap());
/// let names = compile_query(&parse_path("patient/pname").unwrap());
/// let batch = evaluate_batch(&doc, &[BatchQuery::new(&patients), BatchQuery::new(&names)]);
///
/// assert_eq!(batch.results.len(), 2);
/// assert_eq!(batch.results[0].answers.len(), 1); // the <patient>
/// assert_eq!(batch.results[1].answers.len(), 1); // its <pname>
/// // The shared pass performs no more visits than N sequential runs would.
/// assert!(batch.stats.nodes_visited <= batch.stats.sequential_node_visits);
/// ```
pub fn evaluate_batch(tree: &XmlTree, queries: &[BatchQuery]) -> BatchResult {
    evaluate_batch_at(tree, tree.root(), queries)
}

/// Evaluates every query of `queries` at `context` in one pass, compiling
/// each builder MFA to its execution IR first. Repeated callers should
/// compile once and use [`evaluate_batch_compiled_at`].
pub fn evaluate_batch_at(tree: &XmlTree, context: NodeId, queries: &[BatchQuery]) -> BatchResult {
    let compiled: Vec<CompiledBatchQuery> = queries.iter().map(BatchQuery::compile).collect();
    evaluate_batch_compiled_at(tree, context, &compiled)
}

/// Evaluates every pre-compiled query at the root of `tree` in one pass.
pub fn evaluate_batch_compiled(tree: &XmlTree, queries: &[CompiledBatchQuery]) -> BatchResult {
    evaluate_batch_compiled_at(tree, tree.root(), queries)
}

/// Evaluates every pre-compiled query at `context` in one pass — the hot
/// entry point all front-ends reduce to.
pub fn evaluate_batch_compiled_at(
    tree: &XmlTree,
    context: NodeId,
    queries: &[CompiledBatchQuery],
) -> BatchResult {
    let nodes_total = tree.subtree_size(context);
    if queries.is_empty() {
        return BatchResult {
            results: Vec::new(),
            stats: BatchStats {
                queries: 0,
                nodes_total,
                nodes_visited: 0,
                sequential_node_visits: 0,
            },
        };
    }

    let mut core = HypeCore::for_queries(tree.labels(), queries);
    walk(&mut core, tree, context);
    let (results, nodes_visited, sequential_node_visits) = core.into_results(nodes_total);
    BatchResult {
        results,
        stats: BatchStats {
            queries: queries.len(),
            nodes_total,
            nodes_visited,
            sequential_node_visits,
        },
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
    if !core.open(node, tree.label(node)) {
        return; // every query pruned the subtree: the moral "do not recurse"
    }
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
    use crate::engine::{evaluate, evaluate_with_index};
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

    #[test]
    fn batch_matches_solo_runs_exactly() {
        let doc = hospital_doc();
        let mfas: Vec<_> = QUERIES
            .iter()
            .map(|q| compile_query(&parse_path(q).unwrap()))
            .collect();
        let batch_queries: Vec<BatchQuery> = mfas.iter().map(BatchQuery::new).collect();
        let batch = evaluate_batch(&doc, &batch_queries);
        assert_eq!(batch.results.len(), QUERIES.len());
        for (i, mfa) in mfas.iter().enumerate() {
            let solo = evaluate(&doc, mfa);
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
        let batch_queries: Vec<BatchQuery> = mfas
            .iter()
            .zip(&indexes)
            .map(|(m, i)| BatchQuery::with_index(m, i))
            .collect();
        let batch = evaluate_batch(&doc, &batch_queries);
        for (i, (mfa, index)) in mfas.iter().zip(&indexes).enumerate() {
            let solo = evaluate_with_index(&doc, mfa, index);
            assert_eq!(batch.results[i].answers, solo.answers, "on `{}`", QUERIES[i]);
            assert_eq!(batch.results[i].stats, solo.stats, "on `{}`", QUERIES[i]);
        }
    }

    #[test]
    fn shared_traversal_visits_fewer_nodes_than_sequential_sum() {
        let doc = hospital_doc();
        let mfas: Vec<_> = QUERIES
            .iter()
            .map(|q| compile_query(&parse_path(q).unwrap()))
            .collect();
        let batch_queries: Vec<BatchQuery> = mfas.iter().map(BatchQuery::new).collect();
        let batch = evaluate_batch(&doc, &batch_queries);
        let sequential: usize = mfas.iter().map(|m| evaluate(&doc, m).stats.nodes_visited).sum();
        assert_eq!(batch.stats.sequential_node_visits, sequential);
        assert!(
            batch.stats.nodes_visited < sequential,
            "batched {} visits should be fewer than sequential {}",
            batch.stats.nodes_visited,
            sequential
        );
        // The union of visit sets is at least as large as any single set.
        let max_single = mfas
            .iter()
            .map(|m| evaluate(&doc, m).stats.nodes_visited)
            .max()
            .unwrap();
        assert!(batch.stats.nodes_visited >= max_single);
        assert!(batch.stats.nodes_visited <= batch.stats.nodes_total);
        assert!(batch.stats.sharing_factor() > 1.0);
        assert_eq!(
            batch.stats.visits_saved(),
            sequential - batch.stats.nodes_visited
        );
    }

    #[test]
    fn mixed_indexed_and_plain_queries_in_one_batch() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        let zip = compile_query(&parse_path("//zip").unwrap());
        let diag = compile_query(&parse_path("//diagnosis").unwrap());
        let index = ReachabilityIndex::new(&zip, &dtd, doc.labels());
        let batch = evaluate_batch(
            &doc,
            &[BatchQuery::with_index(&zip, &index), BatchQuery::new(&diag)],
        );
        assert_eq!(batch.results[0].answers, evaluate_with_index(&doc, &zip, &index).answers);
        assert_eq!(batch.results[1].answers, evaluate(&doc, &diag).answers);
        // The indexed query prunes for itself, but the plain //diagnosis
        // query keeps most of the document live, so the shared traversal
        // still visits those nodes.
        assert_eq!(
            batch.results[0].stats.nodes_visited,
            evaluate_with_index(&doc, &zip, &index).stats.nodes_visited
        );
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let doc = hospital_doc();
        let batch = evaluate_batch(&doc, &[]);
        assert!(batch.results.is_empty());
        assert_eq!(batch.stats.queries, 0);
        assert_eq!(batch.stats.nodes_visited, 0);
        assert_eq!(batch.stats.sequential_node_visits, 0);
        assert_eq!(batch.stats.sharing_factor(), 1.0);
    }

    #[test]
    fn duplicate_queries_share_the_whole_traversal() {
        let doc = hospital_doc();
        let mfa = compile_query(&parse_path("department/patient/pname").unwrap());
        let batch = evaluate_batch(&doc, &[BatchQuery::new(&mfa), BatchQuery::new(&mfa)]);
        let solo = evaluate(&doc, &mfa);
        for r in &batch.results {
            assert_eq!(r.answers, solo.answers);
            assert_eq!(r.stats, solo.stats);
        }
        // Identical pending sets → the union is one solo traversal.
        assert_eq!(batch.stats.nodes_visited, solo.stats.nodes_visited);
        assert_eq!(batch.stats.sequential_node_visits, 2 * solo.stats.nodes_visited);
    }

    #[test]
    fn batch_at_inner_context() {
        let doc = hospital_doc();
        let mfa = compile_query(&parse_path("patient/pname").unwrap());
        let dept = doc.children(doc.root())[0];
        let batch = evaluate_batch_at(&doc, dept, &[BatchQuery::new(&mfa)]);
        let solo = crate::engine::evaluate_at(&doc, dept, &mfa);
        assert_eq!(batch.results[0].answers, solo.answers);
        assert_eq!(batch.results[0].stats, solo.stats);
        assert_eq!(batch.stats.nodes_total, doc.subtree_size(dept));
    }
}
