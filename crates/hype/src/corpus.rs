//! The **across-documents** parallel axis: a batch of (document, query)
//! pairs routed over the same scoped-thread worker pool as [`crate::parallel`].
//!
//! PR 5's within-document sharding splits one traversal across workers,
//! which is the right tool when a single large document must answer fast —
//! but its speedup is capped by the skew of the top-level subtrees. A
//! *corpus* workload (the paper's Section 7 setting: many security-view
//! documents queried repeatedly) has a better axis available: the pairs are
//! completely independent, so each one can run the **unchanged sequential
//! engine** on its own worker. No shard split, no merge, no skew cap —
//! and bit-identical results are free, because every pair executes exactly
//! the code path it would have executed in a sequential loop.
//!
//! * [`CorpusTask`] — one work item: a document, a compiled query, and an
//!   optional OptHyPE(-C) reachability index.
//! * [`evaluate_corpus`] — the items claimed off a shared atomic counter by
//!   `min(threads, items)` scoped workers (one inline worker at budget 1:
//!   the sequential loop); results are reordered back to input order, so
//!   answers *and* per-pair [`HypeStats`](crate::HypeStats) are
//!   **bit-identical** at every thread budget (asserted by the `corpus`
//!   integration suite and the `corpus_throughput` bench).
//!
//! The service layer (`smoqe::QueryService::evaluate_corpus`, at the
//! service's thread budget) builds the task list from its `DocumentStore`
//! and caches, then dispatches here.

use std::sync::Arc;

use smoqe_automata::CompiledMfa;
use smoqe_xml::XmlTree;

use crate::batch::{evaluate_tree, CompiledBatchQuery};
use crate::engine::HypeResult;
use crate::index::ReachabilityIndex;
use crate::parallel::{claim_map, resolve_threads};

/// One (document, query) work item of a corpus evaluation.
///
/// Borrows the document and index (the caller's store keeps them alive) and
/// shares the compiled IR by `Arc`, so building a task list is cheap — no
/// per-item clones of anything larger than a pointer.
#[derive(Debug, Clone)]
pub struct CorpusTask<'a> {
    /// The document to evaluate over (context = its root).
    pub tree: &'a XmlTree,
    /// The compiled execution IR of the query.
    pub compiled: Arc<CompiledMfa>,
    /// Optional OptHyPE(-C) reachability index; must have been built against
    /// `tree`'s label interner.
    pub index: Option<&'a ReachabilityIndex>,
}

impl<'a> CorpusTask<'a> {
    /// Creates a plain-HyPE task (no pruning index).
    pub fn new(tree: &'a XmlTree, compiled: Arc<CompiledMfa>) -> Self {
        CorpusTask {
            tree,
            compiled,
            index: None,
        }
    }

    /// Creates a task pruned by `index` (OptHyPE / OptHyPE-C).
    pub fn with_index(
        tree: &'a XmlTree,
        compiled: Arc<CompiledMfa>,
        index: &'a ReachabilityIndex,
    ) -> Self {
        CorpusTask {
            tree,
            compiled,
            index: Some(index),
        }
    }

    /// Runs this task on the sequential walk.
    fn run(&self) -> HypeResult {
        let query = CompiledBatchQuery {
            compiled: Arc::clone(&self.compiled),
            index: self.index,
        };
        evaluate_tree(self.tree, self.tree.root(), &[query], 1).results.remove(0)
    }
}

/// Evaluates every task across up to `threads` scoped workers (0 = all
/// cores), one document per work item, returning results in input order.
///
/// Workers claim task indices off a shared atomic counter (natural load
/// balancing when document sizes are skewed) and run the unchanged
/// sequential walk per item, so answers and per-item
/// [`HypeStats`](crate::HypeStats) are bit-identical at every thread
/// budget, budget 1 being the plain sequential loop:
///
/// ```
/// use std::sync::Arc;
/// use smoqe_automata::{compile_query, CompiledMfa};
/// use smoqe_hype::corpus::{evaluate_corpus, CorpusTask};
/// use smoqe_xml::parse_document;
/// use smoqe_xpath::parse_path;
///
/// let docs: Vec<_> = ["<r><a/></r>", "<r><a/><a/></r>", "<r/>"]
///     .iter()
///     .map(|s| parse_document(s).unwrap())
///     .collect();
/// let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path("a").unwrap())));
/// let tasks: Vec<_> = docs
///     .iter()
///     .map(|d| CorpusTask::new(d, Arc::clone(&ir)))
///     .collect();
/// assert_eq!(evaluate_corpus(&tasks, 4), evaluate_corpus(&tasks, 1));
/// ```
pub fn evaluate_corpus(tasks: &[CorpusTask], threads: usize) -> Vec<HypeResult> {
    let run = |_: &mut (), _, task: &CorpusTask| task.run();
    claim_map(tasks, resolve_threads(threads), || (), run).0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::ir;
    use smoqe_automata::compile_query;
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xml::{parse_document, XmlTreeBuilder};
    use smoqe_xpath::parse_path;

    fn corpus() -> Vec<XmlTree> {
        let mut docs = vec![
            parse_document("<hospital><department><patient><pname>Ann</pname></patient></department></hospital>").unwrap(),
            parse_document("<hospital/>").unwrap(),
        ];
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        for i in 0..5 {
            let dept = b.child(root, "department");
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", if i % 2 == 0 { "Alice" } else { "Bob" });
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", "heart disease");
        }
        docs.push(b.finish());
        docs
    }

    #[test]
    fn parallel_matches_sequential_at_every_budget() {
        let docs = corpus();
        let queries = ["//pname", "department/patient", "//diagnosis", "doctor"];
        let tasks: Vec<CorpusTask> = docs
            .iter()
            .flat_map(|d| queries.iter().map(|q| CorpusTask::new(d, ir(q))))
            .collect();
        let sequential = evaluate_corpus(&tasks, 1);
        for threads in [0, 1, 2, 8, 64] {
            let parallel = evaluate_corpus(&tasks, threads);
            assert_eq!(parallel.len(), sequential.len());
            for (i, (p, s)) in parallel.iter().zip(&sequential).enumerate() {
                assert_eq!(p.answers, s.answers, "task {i} @{threads}");
                assert_eq!(p.stats, s.stats, "task {i} @{threads}");
            }
        }
    }

    #[test]
    fn indexed_tasks_match_sequential() {
        let docs = corpus();
        let dtd = hospital_document_dtd();
        let mfa = compile_query(&parse_path("//diagnosis").unwrap());
        let compiled = Arc::new(CompiledMfa::new(&mfa));
        let indexes: Vec<ReachabilityIndex> = docs
            .iter()
            .map(|d| ReachabilityIndex::new(&mfa, &dtd, d.labels()))
            .collect();
        let tasks: Vec<CorpusTask> = docs
            .iter()
            .zip(&indexes)
            .map(|(d, ix)| CorpusTask::with_index(d, Arc::clone(&compiled), ix))
            .collect();
        let sequential = evaluate_corpus(&tasks, 1);
        for threads in [1, 3] {
            assert_eq!(evaluate_corpus(&tasks, threads), sequential, "@{threads}");
        }
    }

    #[test]
    fn empty_corpus_is_a_no_op() {
        assert!(evaluate_corpus(&[], 8).is_empty());
        assert!(evaluate_corpus(&[], 1).is_empty());
    }

    #[test]
    fn more_workers_than_tasks_is_fine() {
        let doc = parse_document("<r><a/></r>").unwrap();
        let tasks = vec![CorpusTask::new(&doc, ir("a"))];
        let results = evaluate_corpus(&tasks, 16);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].answers.len(), 1);
    }
}
