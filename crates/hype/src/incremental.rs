//! Incremental HyPE re-evaluation over edited documents.
//!
//! A HyPE pass couples a top-level subtree to the rest of the evaluation
//! only through the context frame: the frame's pending states are fixed
//! before any child is visited, children feed back exclusively by OR-ing
//! filter-value rows into the context accumulators, and every candidate-DAG
//! edge points strictly downwards. [`crate::parallel`] exploits that to
//! shard one evaluation across threads; this module exploits it **across
//! time**. An [`IncrementalEvaluator`] caches each top-level subtree's
//! shard outputs (the internal runtime's seed/absorb/extract contract — the
//! same one the parallel workers speak) and, after a subtree edit, re-runs
//! the pass on only the edited top-level subtree(s), splicing the fresh
//! outputs into the cached remainder.
//!
//! The merge is **bit-identical to from-scratch evaluation**: every
//! [`HypeStats`](crate::HypeStats)/[`BatchStats`](crate::BatchStats)
//! counter is a sum of per-node contributions
//! that depend only on the context seed and the subtree's content, answer
//! sets are `BTreeSet` unions in pre-order index order, and node ids are
//! stable under edits (deletion tombstones, insertion appends — see
//! `smoqe_xml::tree`), so a cached shard output is *the same value* a fresh
//! walk of that unchanged subtree would produce. The `incremental`
//! differential suite asserts answers and statistics equality after every
//! step of random edit scripts at several thread budgets.
//!
//! ## What an edit dirties
//!
//! [`IncrementalEvaluator::apply_edits`] routes each [`EditOp`] **before**
//! applying it (while its anchor node is still live):
//!
//! * an op strictly below the context dirties exactly the top-level subtree
//!   on the path from its anchor to the context;
//! * inserting directly under the context creates a new top-level subtree,
//!   discovered (and evaluated) after the edit;
//! * deleting a top-level subtree just drops its cached output;
//! * replacing the context node itself re-roots the evaluator at the
//!   replacement and recomputes everything;
//! * ops entirely outside the context subtree dirty nothing (the interner
//!   may still grow; runtimes are rebuilt per call and label columns are
//!   document-wide);
//! * deleting or replacing a *strict ancestor* of the context would
//!   tombstone the context itself and is rejected.
//!
//! ## Index caveat
//!
//! A [`ReachabilityIndex`] is keyed to the document's label-interner
//! layout. Edits that introduce **new labels** grow the interner, and a
//! pre-edit index knows nothing about the new label ids; callers that prune
//! with an index must swap in one built for the grown interner (the `smoqe`
//! service layer does exactly that, keyed by label fingerprint) before
//! re-evaluating. [`IncrementalEvaluator::set_index`] installs the
//! replacement without disturbing cached shard outputs — pruning decisions
//! are deterministic per subtree, so cached outputs of *unchanged* subtrees
//! remain exact as long as the index describes the same DTD.

use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use smoqe_automata::CompiledMfa;
use smoqe_xml::{EditOp, NodeId, XmlError, XmlTree};

use crate::batch::{batch_result, walk, BatchResult, CompiledBatchQuery};
use crate::index::ReachabilityIndex;
use crate::parallel::{claim_map, close_context, resolve_threads, Unit, UnitForest};
use crate::runtime::HypeCore;

/// One query evaluated incrementally: the compiled execution IR plus an
/// optional reachability index, both owned (`Arc`) so the evaluator can
/// outlive the caller's borrows across edit generations.
#[derive(Debug, Clone)]
pub struct IncrementalQuery {
    /// The compiled MFA execution IR.
    pub compiled: Arc<CompiledMfa>,
    /// Optional OptHyPE(-C) pruning index; must describe the document's
    /// current label-interner layout (see the module docs).
    pub index: Option<Arc<ReachabilityIndex>>,
}

impl IncrementalQuery {
    /// A query without pruning index.
    pub fn new(compiled: Arc<CompiledMfa>) -> Self {
        Self {
            compiled,
            index: None,
        }
    }

    /// A query pruned through `index`.
    pub fn with_index(compiled: Arc<CompiledMfa>, index: Arc<ReachabilityIndex>) -> Self {
        Self {
            compiled,
            index: Some(index),
        }
    }
}

/// A batch of queries held open over an evolving document, re-evaluated
/// incrementally after subtree edits.
///
/// ```
/// use std::sync::Arc;
/// use smoqe_automata::{compile_query, CompiledMfa};
/// use smoqe_hype::incremental::{IncrementalEvaluator, IncrementalQuery};
/// use smoqe_hype::{evaluate_tree, CompiledBatchQuery};
/// use smoqe_xml::{parse_document, EditOp};
/// use smoqe_xpath::parse_path;
///
/// let mut doc = parse_document(
///     "<hospital><department><patient><pname>Alice</pname></patient></department>\
///      <department/></hospital>",
/// )
/// .unwrap();
/// let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path("//pname").unwrap())));
/// let (mut eval, first) =
///     IncrementalEvaluator::new(&doc, doc.root(), vec![IncrementalQuery::new(Arc::clone(&ir))], 1);
///
/// let dept = doc.children(doc.root())[1];
/// let op = EditOp::Insert {
///     parent: dept,
///     position: 0,
///     subtree: parse_document("<patient><pname>Bob</pname></patient>").unwrap(),
/// };
/// let incremental = eval.apply_edits(&mut doc, &[op], 1).unwrap();
///
/// // Bit-identical to evaluating the edited document from scratch.
/// let scratch = evaluate_tree(&doc, doc.root(), &[CompiledBatchQuery::new(ir)], 1);
/// assert_eq!(incremental.results[0].answers, scratch.results[0].answers);
/// assert_eq!(incremental.results[0].stats, scratch.results[0].stats);
/// assert_eq!(incremental.stats, scratch.stats);
/// assert!(first.results[0].answers.len() < incremental.results[0].answers.len());
/// ```
pub struct IncrementalEvaluator {
    queries: Vec<IncrementalQuery>,
    context: NodeId,
    /// Per top-level subtree: its shard unit, exactly what a parallel
    /// worker would have produced for that subtree alone.
    shards: HashMap<NodeId, Unit>,
}

impl IncrementalEvaluator {
    /// Evaluates `queries` at `context` from scratch and returns the
    /// evaluator (holding every top-level subtree's cached outputs)
    /// together with the initial [`BatchResult`].
    pub fn new(
        tree: &XmlTree,
        context: NodeId,
        queries: Vec<IncrementalQuery>,
        threads: usize,
    ) -> (Self, BatchResult) {
        let mut this = Self {
            queries,
            context,
            shards: HashMap::new(),
        };
        let result = this.reevaluate(tree, None, threads);
        (this, result)
    }

    /// The node the evaluation context is anchored at. Follows root
    /// replacement (see [`IncrementalEvaluator::apply_edits`]).
    pub fn context(&self) -> NodeId {
        self.context
    }

    /// Number of top-level subtrees with cached outputs.
    pub fn cached_shards(&self) -> usize {
        self.shards.len()
    }

    /// Replaces query `query`'s pruning index (e.g. after a label-adding
    /// edit changed the document's interner layout). Cached outputs of
    /// unchanged subtrees stay valid: pruning is deterministic per subtree,
    /// so as long as the new index describes the same DTD over the grown
    /// interner, a fresh walk would reproduce the cached artefacts.
    pub fn set_index(&mut self, query: usize, index: Option<Arc<ReachabilityIndex>>) {
        self.queries[query].index = index;
    }

    /// Applies `ops` to `tree` and re-evaluates only the dirtied top-level
    /// subtrees, splicing their fresh outputs into the cached remainder.
    ///
    /// Results — per-query answers and [`HypeStats`](crate::HypeStats),
    /// and the aggregate [`BatchStats`](crate::BatchStats) — are
    /// bit-identical to a from-scratch [`crate::evaluate_tree`] of the
    /// edited tree.
    ///
    /// # Errors
    /// Fails (leaving `tree` with all ops up to the failing one applied,
    /// like `XmlTree::apply_script`) if an op is invalid, or if an op would
    /// tombstone the evaluation context (deleting the context or
    /// deleting/replacing a strict ancestor of it). Replacing the context
    /// node itself is allowed: the evaluator re-roots at the replacement.
    pub fn apply_edits(
        &mut self,
        tree: &mut XmlTree,
        ops: &[EditOp],
        threads: usize,
    ) -> Result<BatchResult, XmlError> {
        let mut dirty: BTreeSet<NodeId> = BTreeSet::new();
        let mut full = false;
        for op in ops {
            let anchor = op.anchor();
            let removes_subtree = matches!(op, EditOp::Delete { .. } | EditOp::Replace { .. });
            if removes_subtree
                && anchor != self.context
                && is_ancestor_or_self(tree, anchor, self.context)
            {
                return Err(XmlError::InvalidContent {
                    element: tree.label_name(anchor).to_owned(),
                    reason: "edit would tombstone the evaluation context".to_owned(),
                });
            }
            if anchor == self.context {
                match op {
                    // A new top-level subtree; discovered after the edit.
                    EditOp::Insert { .. } => {}
                    EditOp::Delete { .. } => {
                        return Err(XmlError::InvalidContent {
                            element: tree.label_name(anchor).to_owned(),
                            reason: "edit would tombstone the evaluation context".to_owned(),
                        });
                    }
                    EditOp::Replace { .. } => full = true,
                }
            } else if let Some(top) = top_level_shard(tree, self.context, anchor) {
                dirty.insert(top);
            }
            let new_root = tree.apply(op)?;
            if full {
                if let (EditOp::Replace { node, .. }, Some(new_root)) = (op, new_root) {
                    if *node == self.context {
                        self.context = new_root;
                    }
                }
            }
        }
        let dirty = if full { None } else { Some(dirty) };
        Ok(self.reevaluate(tree, dirty.as_ref(), threads))
    }

    /// Drops every cached output and re-evaluates from scratch — the
    /// recovery path when the document was edited behind the evaluator's
    /// back.
    pub fn refresh(&mut self, tree: &XmlTree, threads: usize) -> BatchResult {
        self.reevaluate(tree, None, threads)
    }

    /// Recomputes dirty/new top-level subtrees (all of them when `dirty` is
    /// `None`), then merges cached + fresh outputs through the context.
    fn reevaluate(
        &mut self,
        tree: &XmlTree,
        dirty: Option<&BTreeSet<NodeId>>,
        threads: usize,
    ) -> BatchResult {
        let context = self.context;
        let threads = resolve_threads(threads);
        let queries: Vec<CompiledBatchQuery> = self
            .queries
            .iter()
            .map(|q| CompiledBatchQuery {
                compiled: Arc::clone(&q.compiled),
                index: q.index.as_deref(),
            })
            .collect();
        let shards = &mut self.shards;
        batch_result(tree, context, queries.len(), |nodes_total| {
            // Retire shards for subtrees that are gone or dirty; whatever is
            // left in the cache is exact for the edited tree.
            let children = tree.children(context);
            match dirty {
                None => shards.clear(),
                Some(dirty) => {
                    shards.retain(|child, _| children.contains(child) && !dirty.contains(child));
                }
            }
            let todo: Vec<NodeId> = children
                .iter()
                .copied()
                .filter(|c| !shards.contains_key(c))
                .collect();

            // Open the context on the calling thread, exactly as the sharded
            // walk does, with runtimes over the *current* interner.
            let mut core = HypeCore::for_queries(tree.labels(), &queries);
            let opened = core.open(context, tree.label(context));
            debug_assert!(opened, "the evaluation context is never pruned");
            let seeds = core.context_seeds();

            // Recompute dirty subtrees, one core per subtree (not per
            // worker) so each subtree's outputs are individually cacheable.
            let shard_of = |_: &mut (), _, &child: &NodeId| {
                let mut shard_core = HypeCore::for_queries(tree.labels(), &queries);
                shard_core.seed_context_frame(context, &seeds);
                walk(&mut shard_core, tree, child);
                shard_core.into_shard_outputs()
            };
            let (computed, _) = claim_map(&todo, threads, || (), shard_of);
            shards.extend(todo.into_iter().zip(computed));

            // Cached and fresh subtrees alike fold into the context.
            let forest = UnitForest {
                leaves: vec![children.iter().map(|c| &shards[c]).collect()],
                spines: Vec::new(),
            };
            close_context(core, tree, context, &forest, nodes_total, threads)
        })
    }
}

/// Returns `true` if `node` is `candidate` or one of its ancestors.
fn is_ancestor_or_self(tree: &XmlTree, node: NodeId, candidate: NodeId) -> bool {
    let mut cur = candidate;
    loop {
        if cur == node {
            return true;
        }
        match tree.parent(cur) {
            Some(p) => cur = p,
            None => return false,
        }
    }
}

/// Routes a node strictly below `context` to the top-level subtree (direct
/// child of `context`) containing it; `None` when the node is the context
/// itself or outside the context subtree entirely.
fn top_level_shard(tree: &XmlTree, context: NodeId, node: NodeId) -> Option<NodeId> {
    if node == context {
        return None;
    }
    let mut cur = node;
    while let Some(p) = tree.parent(cur) {
        if p == context {
            return Some(cur);
        }
        cur = p;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate_tree;
    use crate::testing::ir;
    use smoqe_xml::parse_document;

    fn doc() -> XmlTree {
        parse_document(
            "<hospital>\
             <department><patient><pname>Alice</pname><visit><treatment>\
             <medication><diagnosis>heart disease</diagnosis></medication>\
             </treatment></visit></patient></department>\
             <department><patient><pname>Bob</pname></patient></department>\
             <department/>\
             </hospital>",
        )
        .unwrap()
    }

    fn queries() -> Vec<IncrementalQuery> {
        ["//pname", "//diagnosis", "department/patient"]
            .iter()
            .map(|q| IncrementalQuery::new(ir(q)))
            .collect()
    }

    fn assert_matches_scratch(tree: &XmlTree, context: NodeId, got: &BatchResult) {
        let scratch_queries: Vec<CompiledBatchQuery> = queries()
            .into_iter()
            .map(|q| CompiledBatchQuery::new(q.compiled))
            .collect();
        let want = evaluate_tree(tree, context, &scratch_queries, 1);
        assert_eq!(got.stats, want.stats, "aggregate stats");
        for (g, w) in got.results.iter().zip(&want.results) {
            assert_eq!(g.answers, w.answers);
            assert_eq!(g.stats, w.stats);
        }
    }

    #[test]
    fn initial_evaluation_matches_scratch() {
        let tree = doc();
        let (eval, result) = IncrementalEvaluator::new(&tree, tree.root(), queries(), 2);
        assert_eq!(eval.cached_shards(), 3);
        assert_matches_scratch(&tree, tree.root(), &result);
    }

    #[test]
    fn insert_below_dirties_one_shard() {
        let mut tree = doc();
        let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries(), 1);
        let dept2 = tree.children(tree.root())[1];
        let patient = tree.children(dept2)[0];
        let op = EditOp::Insert {
            parent: patient,
            position: 0,
            subtree: parse_document("<visit><treatment/></visit>").unwrap(),
        };
        let result = eval.apply_edits(&mut tree, &[op], 1).unwrap();
        assert_matches_scratch(&tree, eval.context(), &result);
    }

    #[test]
    fn delete_top_level_child_drops_its_shard() {
        let mut tree = doc();
        let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries(), 1);
        let dept1 = tree.children(tree.root())[0];
        let result = eval
            .apply_edits(&mut tree, &[EditOp::Delete { node: dept1 }], 1)
            .unwrap();
        assert_eq!(eval.cached_shards(), 2);
        assert_matches_scratch(&tree, eval.context(), &result);
        assert!(
            result.results[1].answers.is_empty(),
            "diagnosis was deleted"
        );
    }

    #[test]
    fn insert_under_context_adds_a_shard() {
        let mut tree = doc();
        let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries(), 1);
        let op = EditOp::Insert {
            parent: tree.root(),
            position: 3,
            subtree: parse_document(
                "<department><patient><pname>Dora</pname></patient></department>",
            )
            .unwrap(),
        };
        let result = eval.apply_edits(&mut tree, &[op], 1).unwrap();
        assert_eq!(eval.cached_shards(), 4);
        assert_matches_scratch(&tree, eval.context(), &result);
    }

    #[test]
    fn replace_context_reroots_the_evaluator() {
        let mut tree = doc();
        let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries(), 1);
        let op = EditOp::Replace {
            node: tree.root(),
            subtree: parse_document("<hospital><department><patient><pname>Eve</pname></patient></department></hospital>")
                .unwrap(),
        };
        let result = eval.apply_edits(&mut tree, &[op], 1).unwrap();
        assert_eq!(eval.context(), tree.root());
        assert_matches_scratch(&tree, eval.context(), &result);
    }

    #[test]
    fn removing_the_context_is_rejected() {
        let mut tree = doc();
        let dept1 = tree.children(tree.root())[0];
        let patient = tree.children(dept1)[0];
        let (mut eval, _) = IncrementalEvaluator::new(&tree, patient, queries(), 1);
        let err = eval
            .apply_edits(&mut tree, &[EditOp::Delete { node: dept1 }], 1)
            .unwrap_err();
        assert!(err.to_string().contains("context"));
        let err = eval
            .apply_edits(&mut tree, &[EditOp::Delete { node: patient }], 1)
            .unwrap_err();
        assert!(err.to_string().contains("context"));
    }

    #[test]
    fn edits_outside_the_context_dirty_nothing() {
        let mut tree = doc();
        let dept1 = tree.children(tree.root())[0];
        let (mut eval, first) = IncrementalEvaluator::new(&tree, dept1, queries(), 1);
        let dept2 = tree.children(tree.root())[1];
        let op = EditOp::Insert {
            parent: dept2,
            position: 1,
            subtree: parse_document("<patient><pname>Frank</pname></patient>").unwrap(),
        };
        let result = eval.apply_edits(&mut tree, &[op], 1).unwrap();
        assert_matches_scratch(&tree, dept1, &result);
        assert_eq!(result.results[0].answers, first.results[0].answers);
    }

    #[test]
    fn multi_op_scripts_and_thread_budgets_stay_bit_identical() {
        for threads in [1, 2, 8] {
            let mut tree = doc();
            let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries(), threads);
            let dept3 = tree.children(tree.root())[2];
            let dept1 = tree.children(tree.root())[0];
            let ops = vec![
                EditOp::Insert {
                    parent: dept3,
                    position: 0,
                    subtree: parse_document(
                        "<patient><pname>Grace</pname><visit><treatment><medication>\
                         <diagnosis>flu</diagnosis></medication></treatment></visit></patient>",
                    )
                    .unwrap(),
                },
                EditOp::Replace {
                    node: dept1,
                    subtree: parse_document("<department/>").unwrap(),
                },
            ];
            let result = eval.apply_edits(&mut tree, &ops, threads).unwrap();
            assert_matches_scratch(&tree, eval.context(), &result);
        }
    }

    #[test]
    fn empty_query_set_reports_totals_only() {
        let tree = doc();
        let (_, result) = IncrementalEvaluator::new(&tree, tree.root(), Vec::new(), 2);
        assert!(result.results.is_empty());
        assert_eq!(result.stats.nodes_total, tree.len());
        assert_eq!(result.stats.nodes_visited, 0);
    }
}
