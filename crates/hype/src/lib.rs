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
//! For serving many concurrent queries over the same document, the
//! [`batch`] module drives N compiled MFAs through **one** shared pass
//! ([`evaluate_batch`]): nodes pending for several queries are visited once,
//! a subtree is skipped only when every query agrees it is dead, and each
//! query still receives exactly the answers and [`HypeStats`] a solo run
//! would produce. The solo entry points are the 1-query special case of the
//! batched engine.
//!
//! When a single document is large and latency matters, the [`parallel`]
//! module spreads one (or one batch of) compiled evaluation across a pool
//! of scoped threads: the subtrees under the evaluation context (oversized
//! ones re-split) are sharded over up to `threads` workers
//! ([`evaluate_parallel`], [`evaluate_batch_parallel`]), each running the
//! unchanged sequential per-node logic with private scratch, and the
//! per-shard artefacts are merged deterministically — answers in pre-order
//! index order, statistics as exact sums — so the results are
//! **bit-identical to the sequential engines** at every thread budget (a
//! guarantee the `parallel_differential` suite enforces).
//!
//! When the workload is *many documents* rather than one big one, the
//! [`corpus`] module routes a batch of (document, query) pairs across the
//! same scoped worker pool — one pair per work item, each running the
//! unchanged sequential engine ([`evaluate_corpus_parallel`]) — which
//! sidesteps the shard-skew cap of within-document sharding entirely while
//! keeping every answer and per-pair [`HypeStats`] bit-identical to a
//! sequential loop ([`evaluate_corpus`]).
//!
//! Finally, the [`stream`] module removes the remaining memory dependency
//! on the document: [`StreamHype`] is a stack-machine port of the same pass
//! driven by the `Open`/`Text`/`Close` events of `smoqe_xml::stream`,
//! evaluating documents that are never materialized as trees — larger than
//! RAM, network-fed, or filtered on the fly — in `O(depth · |M|)` working
//! memory, with answers and statistics identical to the tree engine's. The
//! per-node math all three entry points share lives in one internal
//! `runtime` module, so the backends cannot drift apart.
//!
//! ## Compile once, run hot
//!
//! Every engine runs on the [`CompiledMfa`] **execution IR** of
//! `smoqe_automata::compiled` rather than interpreting the builder
//! `Mfa`: pending sets and filter values are `u64`-word bitsets, label
//! matching is one table column read, and ε-/operator-closures are
//! precompiled rows. The convenience entry points taking an `&Mfa` compile
//! the IR per call; the `*_compiled` variants ([`evaluate_compiled`],
//! [`evaluate_batch_compiled`], [`StreamHype::from_compiled`]) accept a
//! shared `Arc<CompiledMfa>` so the compile cost is paid once per query —
//! the `smoqe` service layer caches the IR next to the rewritten query.
//! The pre-IR engines survive unchanged in [`interpreted`] as the
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
    evaluate_batch, evaluate_batch_at, evaluate_batch_compiled, evaluate_batch_compiled_at,
    BatchQuery, BatchResult, BatchStats, CompiledBatchQuery,
};
pub use corpus::{evaluate_corpus, evaluate_corpus_parallel, CorpusTask};
pub use incremental::{IncrementalEvaluator, IncrementalQuery};
pub use parallel::{
    evaluate_batch_parallel, evaluate_batch_parallel_at, evaluate_parallel,
    evaluate_parallel_at_with,
};
pub use engine::{
    evaluate, evaluate_at, evaluate_at_with, evaluate_compiled, evaluate_compiled_at_with,
    evaluate_with_index, HypeResult, HypeStats,
};
pub use index::ReachabilityIndex;
pub use smoqe_automata::CompiledMfa;
pub use stream::{evaluate_stream, evaluate_stream_batch, StreamHype, StreamResult, StreamStats};
