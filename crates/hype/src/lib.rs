//! # smoqe-hype
//!
//! **HyPE** (Hybrid Pass Evaluation, Section 6 of the paper): evaluation of
//! MFAs — and therefore of regular XPath queries and of rewritten queries
//! over views — in a **single top-down pass** over the document tree plus a
//! single pass over a small auxiliary structure.
//!
//! During the depth-first traversal the algorithm simultaneously:
//!
//! * runs the selecting NFA top-down (`mstates`), pruning subtrees that no
//!   automaton state can make progress in,
//! * evaluates the AFAs (filters) *bottom-up on the same pass* (`fstates↓`
//!   requests flowing down, Boolean values flowing back up),
//! * records candidate answers in a DAG (`cans`) whose vertices are
//!   `(node, state)` pairs; vertices whose AFA turned out false are marked
//!   invalid, and a final traversal of `cans` from the initial vertices
//!   yields exactly the answer set.
//!
//! The complexity is `O(|T|·|M|)` time and space (Theorem 6.1); together
//! with the rewriting algorithm this gives linear data complexity for
//! answering queries on virtual views (Theorem 6.2).
//!
//! Two optimised variants are provided, mirroring the paper's **OptHyPE**
//! and **OptHyPE-C**: both consult a DTD-derived [`ReachabilityIndex`]
//! telling which labels can occur below an element of a given type, letting
//! the evaluator skip subtrees in which neither the NFA nor any pending AFA
//! can ever fire another transition; the `-C` variant stores the index
//! compressed (deduplicated rows), trading a little lookup indirection for
//! memory.
//!
//! ## One tree entry point
//!
//! Every tree evaluation goes through [`evaluate_tree`]`(tree, context,
//! queries, threads)`:
//!
//! * **a batch** — N compiled queries are driven through **one** shared
//!   pass ([`batch`]): nodes pending for several queries are visited once,
//!   a subtree is skipped only when every query agrees it is dead, and each
//!   query still receives exactly the answers and [`HypeStats`] a solo run
//!   would produce. A solo evaluation is a batch of one.
//! * **a thread budget** — `1` is the sequential walk on the calling
//!   thread; larger budgets (`0` = all cores) shard the subtrees under the
//!   context (oversized ones re-split) over scoped workers ([`parallel`]),
//!   each running the unchanged per-node logic with private scratch, and
//!   merge the per-shard artefacts deterministically — answers in
//!   pre-order index order, statistics as exact sums — so the results are
//!   **bit-identical at every budget** (a guarantee the
//!   `parallel_differential` suite enforces).
//!
//! When the workload is *many documents* rather than one big one,
//! [`evaluate_corpus`] routes (document, query) pairs ([`CorpusTask`])
//! across the same worker pool — one pair per work item, each on the
//! sequential walk — which sidesteps the shard-skew cap of within-document
//! sharding while keeping every answer and per-pair [`HypeStats`]
//! bit-identical at every budget. [`IncrementalEvaluator`] keeps a batch
//! open over an edited document and re-walks only the edited subtrees.
//!
//! Finally, the [`stream`] module removes the remaining memory dependency
//! on the document: [`StreamHype`] is a stack-machine port of the same pass
//! driven by the `Open`/`Text`/`Close` events of `smoqe_xml::stream`,
//! evaluating documents that are never materialized as trees — larger than
//! RAM, network-fed, or filtered on the fly — in `O(depth · |M|)` working
//! memory, with answers and statistics identical to the tree engine's. The
//! per-node math every driver shares lives in one internal `runtime`
//! module, so the backends cannot drift apart.
//!
//! Three more functions survive only under the names the `perfbench`
//! benchmark calls: [`evaluate_compiled_at_with`],
//! [`evaluate_parallel_at_with`] and [`evaluate_batch_compiled`], each one
//! line over [`evaluate_tree`].
//!
//! ## Compile once, run hot
//!
//! Every engine runs on the [`CompiledMfa`] **execution IR** of
//! `smoqe_automata::compiled` rather than interpreting the builder
//! `Mfa`: pending sets and filter values are `u64`-word bitsets, label
//! matching is one table column read, and ε-/operator-closures are
//! precompiled rows. Callers compile the IR once per query and share it
//! by `Arc` ([`CompiledBatchQuery`], [`CorpusTask`],
//! [`StreamHype::from_compiled`]) — the `smoqe` service layer caches it
//! next to the rewritten query. The pre-IR engines survive unchanged in
//! [`interpreted`], the only engine that runs builder MFAs, as the
//! reference implementation: the differential suites assert that the
//! compiled engines reproduce their answers and [`HypeStats`] bit for bit,
//! and the `compiled_throughput` bench measures the speedup against them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod corpus;
pub mod engine;
pub mod incremental;
pub mod index;
pub mod interpreted;
pub mod parallel;
mod runtime;
pub mod stream;

pub use batch::{
    evaluate_batch_compiled, evaluate_tree, BatchResult, BatchStats, CompiledBatchQuery,
};
pub use corpus::{evaluate_corpus, CorpusTask};
pub use engine::{evaluate_compiled_at_with, HypeResult, HypeStats};
pub use incremental::{IncrementalEvaluator, IncrementalQuery};
pub use index::ReachabilityIndex;
pub use parallel::evaluate_parallel_at_with;
pub use smoqe_automata::CompiledMfa;
pub use stream::{StreamHype, StreamResult, StreamStats};

/// Helpers shared by the unit tests.
#[cfg(test)]
mod testing {
    use std::sync::Arc;

    use smoqe_automata::{compile_query, CompiledMfa, Mfa};
    use smoqe_xml::{NodeId, XmlTree};
    use smoqe_xpath::parse_path;

    use crate::{evaluate_tree, CompiledBatchQuery, HypeResult, ReachabilityIndex};

    /// The execution IR of a regular XPath query.
    pub(crate) fn ir(query: &str) -> Arc<CompiledMfa> {
        Arc::new(CompiledMfa::new(&compile_query(&parse_path(query).unwrap())))
    }

    /// Compiles `mfa` and evaluates it alone at `context` on the
    /// sequential walk.
    pub(crate) fn solo(
        tree: &XmlTree,
        context: NodeId,
        mfa: &Mfa,
        index: Option<&ReachabilityIndex>,
    ) -> HypeResult {
        let query = CompiledBatchQuery {
            compiled: Arc::new(CompiledMfa::new(mfa)),
            index,
        };
        evaluate_tree(tree, context, &[query], 1).results.remove(0)
    }
}
