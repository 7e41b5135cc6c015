//! Parallel sharded HyPE evaluation, the `threads ≥ 2` branch of
//! [`crate::evaluate_tree`]: the batched compiled engine spread across a
//! pool of scoped threads, with answers and statistics **bit-identical** to
//! the sequential walk.
//!
//! ## Sharding strategy
//!
//! A HyPE pass is a single DFS whose only cross-subtree coupling sits at
//! the evaluation context: the context frame's pending states are fixed
//! *before* any child is visited, children communicate with the context
//! exclusively by OR-ing their filter-value rows into its accumulators
//! (commutative, order-free), and every candidate-DAG edge points strictly
//! downwards. The top-level subtrees under the context are therefore
//! embarrassingly parallel:
//!
//! 1. the calling thread opens the context node exactly as the sequential
//!    engine does and snapshots the context frame;
//! 2. a **split planner** turns the context's children into leaf *tasks*,
//!    recursively re-splitting any oversized child (≥ 2 children of its
//!    own and more than `max(256, nodes_total / (2 · threads))` subtree
//!    nodes) into a *spine*: the oversized node is opened once on the
//!    calling thread under its parent's replayed frame, its own frame is
//!    snapshotted, and its children re-enter the planner — so a single
//!    dominant subtree no longer pins the whole document to one worker;
//! 3. every task exists before any worker starts, so `min(threads, tasks)`
//!    scoped workers simply claim them in plan order off **one atomic
//!    counter** — the crate's single worker pool, shared with the finalize
//!    phase, [`crate::corpus`] and [`crate::incremental`]. Each worker
//!    replays a seed frame **once per group** it touches into
//!    a private core (one label-column map, pruning-table set and scratch
//!    pool per *worker and group*, so the hot path stays allocation-free
//!    per node) and runs the **unchanged** sequential `open`/`close`
//!    logic over every subtree it claims — including per-query basic and
//!    OptHyPE(-C) pruning;
//! 4. the main thread merges spines bottom-up — absorbing their units'
//!    accumulator rows, closing the spine node, and grafting the unit
//!    arenas (`ShardQueryOutput::graft_child_unit`) so each spine
//!    collapses into one ordinary shard unit of its parent group — then
//!    ORs every top-level unit's accumulator rows back into the real
//!    context frame, closes the context, and merges.
//!
//! ## Determinism guarantee
//!
//! Each per-query artefact is merged exactly, not approximately:
//!
//! * **Answers** — every unit's arena keeps its group frame's vertices as
//!   its first `k` ids, so the sequential DAG is the disjoint union of the
//!   context block and the unit arenas glued at those shared ids (spine
//!   units are grafted into the same shape before they reach the context
//!   merge). Answer collection runs the context block first, then seeds
//!   every unit arena with the reached context vertices; the union (a
//!   `BTreeSet` over pre-order [`NodeId`]s) is the sequential answer set
//!   in pre-order index order, whatever order tasks were claimed or
//!   finished in.
//! * **[`HypeStats`]** — every counter is a sum of per-node contributions
//!   that depend only on that query's own state at the node, so summing
//!   context + spines + tasks reproduces the sequential numbers exactly;
//!   the differential suite (`tests/tests/parallel_differential.rs`)
//!   asserts equality for answers *and* statistics at several thread
//!   budgets. The one non-sequential field, `max_shard_fraction`, is a
//!   skew diagnostic excluded from [`HypeStats`] equality.
//! * **[`BatchStats`](crate::BatchStats)** — all queries of a batch
//!   travel *together* through every task (a node is physically visited
//!   once however many queries are pending there), preserving the
//!   shared-traversal semantics of
//!   [`BatchStats::nodes_visited`](crate::BatchStats::nodes_visited).
//!   Batched runs additionally parallelize **across queries** in the merge
//!   phase: each query's DAG collection is independent and is distributed
//!   over the same thread budget.
//!
//! ## Thread budget
//!
//! [`crate::evaluate_tree`] takes a `threads` knob: `0` means "all
//! available cores" ([`std::thread::available_parallelism`]), `1` runs the
//! sequential walk on the calling thread and never reaches this module, and
//! larger budgets run the plan → claim → merge path above, capped by the
//! **task count after re-splitting** — a two-subtree document with one
//! dominant subtree still fans out to every worker. Workers are spawned per
//! evaluation; for a parsed document the spawn cost is noise next to the
//! traversal.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use smoqe_automata::CompiledMfa;
use smoqe_xml::{NodeId, XmlTree};

use crate::batch::{walk, CompiledBatchQuery};
use crate::engine::{HypeResult, HypeStats};
use crate::index::ReachabilityIndex;
use crate::runtime::{
    collect_answers, collect_answers_and_reached, CollectScratch, ContextBlock, ContextSeed,
    HypeCore, ShardQueryOutput,
};

// The parallel evaluator shares these across worker threads by reference;
// losing `Sync` on any of them must fail to compile right here rather than
// in a distant caller.
const _: () = {
    const fn assert_sync<T: Sync>() {}
    assert_sync::<XmlTree>();
    assert_sync::<CompiledMfa>();
    assert_sync::<ReachabilityIndex>();
    assert_sync::<CompiledBatchQuery<'static>>();
};

/// Subtrees at or below this node count are never re-split: the spine
/// bookkeeping (a private core seeded and opened on the main thread) only
/// pays for itself on subtrees big enough to dominate a worker.
const MIN_SPLIT_NODES: usize = 256;

/// Resolves a thread-budget knob: `0` means all available cores.
pub(crate) fn resolve_threads(budget: usize) -> usize {
    if budget == 0 {
        thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        budget
    }
}

/// Evaluates one pre-compiled query at `context`, optionally with an
/// OptHyPE(-C) index, sharding `context`'s subtrees over up to `threads`
/// workers: the one-query case of [`crate::evaluate_tree`]. Kept under this
/// name because the `perfbench` benchmark calls it.
///
/// The result — answers *and* [`HypeStats`](crate::HypeStats) — is
/// identical to the sequential walk (budget 1) at every thread budget:
///
/// ```
/// use std::sync::Arc;
/// use smoqe_automata::{compile_query, CompiledMfa};
/// use smoqe_hype::evaluate_parallel_at_with;
/// use smoqe_xml::XmlTreeBuilder;
/// use smoqe_xpath::parse_path;
///
/// let mut b = XmlTreeBuilder::new();
/// let root = b.root("hospital");
/// for name in ["Alice", "Bob"] {
///     let p = b.child(root, "patient");
///     b.child_with_text(p, "pname", name);
/// }
/// let doc = b.finish();
///
/// let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path("patient/pname").unwrap())));
/// let sequential = evaluate_parallel_at_with(&doc, doc.root(), &ir, None, 1);
/// let parallel = evaluate_parallel_at_with(&doc, doc.root(), &ir, None, 4);
/// assert_eq!(parallel.answers, sequential.answers);
/// assert_eq!(parallel.stats, sequential.stats);
/// ```
pub fn evaluate_parallel_at_with(
    tree: &XmlTree,
    context: NodeId,
    compiled: &Arc<CompiledMfa>,
    index: Option<&ReachabilityIndex>,
    threads: usize,
) -> HypeResult {
    let query = CompiledBatchQuery {
        compiled: Arc::clone(compiled),
        index,
    };
    crate::evaluate_tree(tree, context, &[query], threads).results.remove(0)
}

/// The `threads ≥ 2` branch of [`crate::evaluate_tree`] for a non-empty
/// batch: open the context on the calling thread exactly as the sequential
/// walk would, plan, run the tasks over the pool, merge the spines, and
/// close the context over the top-level units. Returns the per-query
/// results, stamped with the run's `max_shard_fraction`, and the physical
/// visit count.
pub(crate) fn evaluate_sharded(
    tree: &XmlTree,
    context: NodeId,
    queries: &[CompiledBatchQuery],
    threads: usize,
    nodes_total: usize,
) -> (Vec<HypeResult>, usize) {
    let mut core = HypeCore::for_queries(tree.labels(), queries);
    let opened = core.open(context, tree.label(context));
    debug_assert!(opened, "the evaluation context is never pruned");
    let seeds = core.context_seeds();

    let mut plan = plan_shards(tree, context, queries, seeds, threads, nodes_total);
    let (mut units, max_task_visits) = run_tasks(tree, queries, &plan, threads);
    merge_spines(tree, &mut plan.spines, &mut units);
    let top_units: Vec<&Unit> = units[0].iter().collect();
    let (mut results, nodes_visited) =
        close_context(core, tree, context, &top_units, nodes_total, threads);

    let max_shard_fraction = if nodes_visited > 0 {
        max_task_visits as f64 / nodes_visited as f64
    } else {
        0.0
    };
    for result in &mut results {
        result.stats.max_shard_fraction = max_shard_fraction;
    }
    (results, nodes_visited)
}

/// The context tail shared with [`crate::incremental`]: OR every unit's
/// value rows into the opened context frame (OR is order-free), close the
/// context bottom-up as usual, and merge every query over the context
/// block and the units. Returns the per-query results and the physical
/// visit count (context plus units).
pub(crate) fn close_context(
    mut core: HypeCore,
    tree: &XmlTree,
    context: NodeId,
    units: &[&Unit],
    nodes_total: usize,
    threads: usize,
) -> (Vec<HypeResult>, usize) {
    for (unit, _) in units {
        for (query, sq) in unit.iter().enumerate() {
            core.absorb_child_values(query, &sq.acc_any, &sq.acc);
        }
    }
    core.close(tree.text(context));
    let (blocks, context_physical) = core.into_context_parts();

    // Per-query merge + answer collection, parallel across queries.
    let finalize = |scratch: &mut CollectScratch, query: usize, block: &ContextBlock| {
        let outputs: Vec<&ShardQueryOutput> =
            units.iter().map(|(unit, _)| &unit[query]).collect();
        finalize_one(block, &outputs, nodes_total, scratch)
    };
    let (results, _) = claim_map(&blocks, threads, CollectScratch::new, finalize);
    let nodes_visited =
        context_physical + units.iter().map(|(_, physical)| physical).sum::<usize>();
    (results, nodes_visited)
}

/// One leaf work unit: a subtree walked whole by whichever worker claims
/// it, under the seed frame of its `group` (0 = the context, `g > 0` =
/// spine `g - 1`).
#[derive(Debug, Clone, Copy)]
struct Task {
    node: NodeId,
    group: u32,
}

/// One re-split oversized subtree: its node was opened on the calling
/// thread under a replay of its parent group's frame, and its own frame
/// snapshot seeds the cores that walk its children.
struct SpinePlan<'a> {
    /// The spine core — parent-group frame seeded, spine node opened.
    /// Held until the merge phase closes it over its units.
    core: HypeCore<'a>,
    node: NodeId,
    /// Group the finished spine unit merges into (0 = context).
    parent_group: u32,
    /// Query id at each spine-frame position (the frame may cover a query
    /// subset — queries pruned at the spine have no work in its subtree);
    /// maps unit outputs to `absorb_child_values` positions at merge time.
    frame_queries: Vec<u32>,
    /// Spine-frame snapshot: the seed for every core walking its children.
    seeds: Vec<ContextSeed>,
}

/// The split planner's output: leaf tasks plus the spine scaffolding, in
/// creation order (parents before their nested spines).
struct ShardPlan<'a> {
    context: NodeId,
    context_seeds: Vec<ContextSeed>,
    tasks: Vec<Task>,
    spines: Vec<SpinePlan<'a>>,
}

/// Turns the context's children into leaf tasks, recursively re-splitting
/// oversized children into spines. A child is oversized above
/// `max(256, nodes_total / (2 · threads))` nodes, so the smallest budget
/// that reaches the planner (2) splits at least everything a budget of 1
/// would, and the spine count is capped at `4 · threads` — past that there
/// is already enough fan-out to keep every worker busy, and an unbounded
/// pathological chain of nested spines would otherwise allocate a core per
/// level.
fn plan_shards<'a>(
    tree: &'a XmlTree,
    context: NodeId,
    queries: &'a [CompiledBatchQuery],
    context_seeds: Vec<ContextSeed>,
    threads: usize,
    nodes_total: usize,
) -> ShardPlan<'a> {
    let limit = (nodes_total / threads.saturating_mul(2).max(1)).max(MIN_SPLIT_NODES);
    let max_spines = threads.saturating_mul(4);
    let mut plan = ShardPlan {
        context,
        context_seeds,
        tasks: Vec::new(),
        spines: Vec::new(),
    };
    // FIFO worklist: a spine's children re-enter behind the current level,
    // so spines are created parents-first (the merge pops them in reverse).
    let mut pending: Vec<(NodeId, u32)> = tree
        .children(context)
        .iter()
        .map(|&child| (child, 0u32))
        .collect();
    let mut i = 0;
    while i < pending.len() {
        let (node, group) = pending[i];
        i += 1;
        let split = plan.spines.len() < max_spines
            && tree.children(node).len() >= 2
            && tree.subtree_size(node) > limit;
        if !split {
            plan.tasks.push(Task { node, group });
            continue;
        }
        let mut core = HypeCore::for_queries(tree.labels(), queries);
        let (group_node, group_seeds) = if group == 0 {
            (plan.context, &plan.context_seeds)
        } else {
            let spine = &plan.spines[group as usize - 1];
            (spine.node, &spine.seeds)
        };
        core.seed_context_frame(group_node, group_seeds);
        if !core.open(node, tree.label(node)) {
            // Every query pruned the whole subtree. Dropping the probe core
            // discards its counters, and the leaf task re-runs the same
            // cheap failed open in a worker core — which records them once,
            // exactly like the sequential walk.
            plan.tasks.push(Task { node, group });
            continue;
        }
        let seeds = core.context_seeds();
        let frame_queries = core.frame_query_ids();
        plan.spines.push(SpinePlan {
            core,
            node,
            parent_group: group,
            frame_queries,
            seeds,
        });
        let new_group = plan.spines.len() as u32;
        for &child in tree.children(node) {
            pending.push((child, new_group));
        }
    }
    plan
}

/// One merged work unit: per-query shard outputs plus the unit's physical
/// visit count.
pub(crate) type Unit = (Vec<ShardQueryOutput>, usize);

/// Runs the planned tasks over up to `threads` workers of the crate's pool
/// and buckets the resulting units by group. Also returns the largest
/// single task in physical visits (the `max_shard_fraction` numerator).
///
/// Cores are created lazily, one per *group* a worker actually touches — a
/// single `QueryRuntime` set (ColumnMap, scratch pools, pruning tables) per
/// worker and group, seeded once and fed every task of that group the
/// worker claims. Walking several children under one seeded frame is
/// exactly what the sequential walk does, so per-query artefacts stay
/// bit-exact while setup cost scales with the worker count, not the
/// (possibly huge) child count. Which task lands on which worker depends on
/// scheduling, but the merge only ever sums counters, ORs bitset rows,
/// grafts arenas and unions ordered sets — all commutative — so the result
/// is deterministic regardless.
fn run_tasks(
    tree: &XmlTree,
    queries: &[CompiledBatchQuery],
    plan: &ShardPlan,
    threads: usize,
) -> (Vec<Vec<Unit>>, usize) {
    let groups: Vec<(NodeId, &[ContextSeed])> =
        std::iter::once((plan.context, plan.context_seeds.as_slice()))
            .chain(plan.spines.iter().map(|s| (s.node, s.seeds.as_slice())))
            .collect();
    let (task_visits, worker_cores) = claim_map(
        &plan.tasks,
        threads,
        || -> Vec<Option<HypeCore>> { groups.iter().map(|_| None).collect() },
        |cores, _, task| {
            let g = task.group as usize;
            let core = cores[g].get_or_insert_with(|| {
                let mut core = HypeCore::for_queries(tree.labels(), queries);
                let (group_node, group_seeds) = groups[g];
                core.seed_context_frame(group_node, group_seeds);
                core
            });
            let before = core.physical_visits;
            walk(core, tree, task.node);
            core.physical_visits - before
        },
    );
    let mut units: Vec<Vec<Unit>> = groups.iter().map(|_| Vec::new()).collect();
    for cores in worker_cores {
        for (group, core) in cores.into_iter().enumerate() {
            if let Some(core) = core {
                units[group].push(core.into_shard_outputs());
            }
        }
    }
    (units, task_visits.into_iter().max().unwrap_or(0))
}

/// Collapses every spine into one ordinary unit of its parent group,
/// bottom-up (spines are created parents-first, so popping runs nested
/// spines before the spines they feed): absorb each unit's accumulator
/// rows at the spine-frame positions, close the spine node exactly as the
/// sequential walk would, extract the spine's own shard outputs, and graft
/// the unit arenas in. After the loop `units[0]` holds only context-level
/// units and the context merge proceeds as if no re-splitting happened.
fn merge_spines<'a>(
    tree: &XmlTree,
    spines: &mut Vec<SpinePlan<'a>>,
    units: &mut [Vec<Unit>],
) {
    while let Some(spine) = spines.pop() {
        let group = spines.len() + 1;
        let SpinePlan {
            mut core,
            node,
            parent_group,
            frame_queries,
            seeds: _,
        } = spine;
        let my_units = std::mem::take(&mut units[group]);
        for (unit, _) in &my_units {
            for (position, &query) in frame_queries.iter().enumerate() {
                let sq = &unit[query as usize];
                core.absorb_child_values(position, &sq.acc_any, &sq.acc);
            }
        }
        core.close(tree.text(node));
        let (mut outputs, spine_physical) = core.into_shard_outputs();
        let mut physical = spine_physical;
        for (unit, unit_physical) in &my_units {
            physical += unit_physical;
            for (query, sq) in unit.iter().enumerate() {
                outputs[query].graft_child_unit(sq);
            }
        }
        units[parent_group as usize].push((outputs, physical));
    }
}

/// The crate's one worker pool: maps `items` over up to `threads` scoped
/// workers that claim item indices, in input order, off one shared atomic
/// counter. Every worker threads its own state (made by `init`) through the
/// items it claims. Returns the per-item results in input order plus every
/// worker's final state. A lone worker (budget 1, or a single item) runs
/// inline, unspawned; a panic inside a spawned worker is re-raised on the
/// calling thread after all workers joined.
pub(crate) fn claim_map<I: Sync, S: Send, R: Send>(
    items: &[I],
    threads: usize,
    init: impl Fn() -> S + Sync,
    run: impl Fn(&mut S, usize, &I) -> R + Sync,
) -> (Vec<R>, Vec<S>) {
    let next = AtomicUsize::new(0);
    let worker = || {
        let mut state = init();
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else {
                break;
            };
            done.push((i, run(&mut state, i, item)));
        }
        (done, state)
    };
    let workers = threads.min(items.len()).max(1);
    let finished: Vec<(Vec<(usize, R)>, S)> = if workers == 1 {
        vec![worker()]
    } else {
        thread::scope(|scope| {
            let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle
                        .join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        })
    };
    let mut indexed = Vec::with_capacity(items.len());
    let mut states = Vec::with_capacity(workers);
    for (done, state) in finished {
        indexed.extend(done);
        states.push(state);
    }
    indexed.sort_unstable_by_key(|&(i, _)| i);
    let results = indexed.into_iter().map(|(_, result)| result).collect();
    (results, states)
}

/// Merges one query from its per-shard-unit outputs: answers collected
/// over the context block first (also yielding the reached context
/// vertices), then over every shard unit seeded with that reached set;
/// statistics summed exactly.
///
/// A *shard unit* is whatever arena granularity the caller evaluated with —
/// one output per worker or merged spine in a sharded run, one per
/// top-level child in [`crate::incremental`]. The merge is invariant to the partition: every
/// counter is a sum of per-node contributions and the context placeholders
/// (the first `context_vertices` ids of every unit) are discounted once per
/// unit.
fn finalize_one(
    block: &ContextBlock,
    shard_outputs: &[&ShardQueryOutput],
    nodes_total: usize,
    scratch: &mut CollectScratch,
) -> HypeResult {
    let context_vertices = block.cans.len();
    let (mut answers, reached) =
        collect_answers_and_reached(&block.cans, &block.edges, &block.init, scratch);
    let mut stats = block.stats;
    stats.nodes_total = nodes_total;
    stats.cans_vertices = context_vertices;
    stats.cans_edges = block.edges.len();
    for sq in shard_outputs {
        debug_assert_eq!(sq.context_vertices as usize, context_vertices);
        // Destructured so adding a counter to `HypeStats` fails to compile
        // here instead of being silently dropped from parallel results.
        // The two DAG-size counters are derived from the arenas (the shard
        // core never finalises them); `nodes_total` is context-wide, and
        // `max_shard_fraction` is a whole-run diagnostic the parallel
        // entry points stamp after the merge.
        let HypeStats {
            nodes_total: _,
            nodes_visited,
            cans_vertices: _,
            cans_edges: _,
            afa_values_computed,
            max_shard_fraction: _,
        } = sq.stats;
        stats.nodes_visited += nodes_visited;
        stats.afa_values_computed += afa_values_computed;
        stats.cans_vertices += sq.cans.len() - context_vertices;
        stats.cans_edges += sq.edges.len();
        answers.append(&mut collect_answers(&sq.cans, &sq.edges, &reached, scratch));
    }
    HypeResult { answers, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchResult;
    use crate::interpreted;
    use crate::testing::ir;
    use crate::evaluate_tree;
    use smoqe_automata::compile_query;
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::parse_path;

    /// Solo evaluation at the root through the one tree entry point.
    fn solo(
        doc: &XmlTree,
        compiled: &Arc<CompiledMfa>,
        index: Option<&ReachabilityIndex>,
        threads: usize,
    ) -> HypeResult {
        let query = CompiledBatchQuery {
            compiled: Arc::clone(compiled),
            index,
        };
        evaluate_tree(doc, doc.root(), &[query], threads).results.remove(0)
    }

    fn batch_at_root(doc: &XmlTree, queries: &[CompiledBatchQuery], threads: usize) -> BatchResult {
        evaluate_tree(doc, doc.root(), queries, threads)
    }

    /// A document whose root has several structurally different subtrees.
    fn doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        for (name, diag) in [("Alice", "heart disease"), ("Bob", "flu"), ("Carol", "heart disease")] {
            let dept = b.child(root, "department");
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", name);
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", diag);
        }
        b.finish()
    }

    /// Two top-level subtrees, one holding ~99% of the nodes — the shape
    /// the pre-splitting evaluator pinned to two workers.
    fn skewed_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let big = b.child(root, "department");
        for i in 0..300 {
            let p = b.child(big, "patient");
            b.child_with_text(p, "pname", if i % 2 == 0 { "Alice" } else { "Bob" });
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", if i % 3 == 0 { "flu" } else { "heart disease" });
        }
        let small = b.child(root, "department");
        let p = b.child(small, "patient");
        b.child_with_text(p, "pname", "Carol");
        b.finish()
    }

    /// Like [`skewed_doc`], but the dominant subtree's bulk hides one
    /// level deeper — forcing a spine *inside* a spine.
    fn nested_skew_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        let big_ward = b.child(dept, "ward");
        for i in 0..290 {
            let p = b.child(big_ward, "patient");
            b.child_with_text(p, "pname", if i % 2 == 0 { "Alice" } else { "Bob" });
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", "flu");
        }
        let small_ward = b.child(dept, "ward");
        for _ in 0..3 {
            let p = b.child(small_ward, "patient");
            b.child_with_text(p, "pname", "Carol");
        }
        b.finish()
    }

    #[test]
    fn solo_matches_sequential_at_every_budget() {
        let doc = doc();
        for query in ["//diagnosis", "department/patient/pname", "doctor"] {
            let compiled = ir(query);
            let sequential = solo(&doc, &compiled, None, 1);
            for threads in [0, 1, 2, 5, 64] {
                let parallel = solo(&doc, &compiled, None, threads);
                assert_eq!(parallel.answers, sequential.answers, "`{query}` @{threads}");
                assert_eq!(parallel.stats, sequential.stats, "`{query}` @{threads}");
            }
        }
    }

    #[test]
    fn batch_matches_sequential_including_aggregate_stats() {
        let doc = doc();
        let queries: Vec<CompiledBatchQuery> = ["//diagnosis", "department/patient/pname"]
            .iter()
            .map(|q| CompiledBatchQuery::new(ir(q)))
            .collect();
        let sequential = batch_at_root(&doc, &queries, 1);
        for threads in [1, 2, 8] {
            let parallel = batch_at_root(&doc, &queries, threads);
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
            for (p, s) in parallel.results.iter().zip(&sequential.results) {
                assert_eq!(p.answers, s.answers, "@{threads}");
                assert_eq!(p.stats, s.stats, "@{threads}");
            }
        }
    }

    #[test]
    fn resplitting_matches_sequential_on_skewed_doc() {
        let doc = skewed_doc();
        for query in ["//diagnosis", "department/patient/pname", "//patient[visit]"] {
            let compiled = ir(query);
            let sequential = solo(&doc, &compiled, None, 1);
            for threads in [1, 2, 4, 8] {
                let parallel = solo(&doc, &compiled, None, threads);
                assert_eq!(parallel.answers, sequential.answers, "`{query}` @{threads}");
                assert_eq!(parallel.stats, sequential.stats, "`{query}` @{threads}");
            }
        }
    }

    #[test]
    fn nested_spines_match_sequential() {
        let doc = nested_skew_doc();
        let queries: Vec<CompiledBatchQuery> =
            ["//diagnosis", "department/ward/patient/pname", "//patient"]
                .iter()
                .map(|q| CompiledBatchQuery::new(ir(q)))
                .collect();
        let sequential = batch_at_root(&doc, &queries, 1);
        for threads in [1, 2, 4, 8] {
            let parallel = batch_at_root(&doc, &queries, threads);
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
            for (p, s) in parallel.results.iter().zip(&sequential.results) {
                assert_eq!(p.answers, s.answers, "@{threads}");
                assert_eq!(p.stats, s.stats, "@{threads}");
            }
        }
        // The dominant chain really is split twice, department then ward,
        // already at the smallest budget that reaches the planner.
        let compiled = ir("//diagnosis");
        let q = [CompiledBatchQuery::new(compiled)];
        let (plan, _seeds) = plan_for(&doc, &q, 2);
        assert!(plan.spines.len() >= 2, "nested spines expected");
    }

    /// Builds the shard plan the evaluator would use, for plan-shape tests.
    fn plan_for<'a>(
        tree: &'a XmlTree,
        queries: &'a [CompiledBatchQuery<'a>],
        threads: usize,
    ) -> (ShardPlan<'a>, Vec<ContextSeed>) {
        let mut core = HypeCore::for_queries(tree.labels(), queries);
        assert!(core.open(tree.root(), tree.label(tree.root())));
        let seeds = core.context_seeds();
        let plan = plan_shards(
            tree,
            tree.root(),
            queries,
            seeds.clone(),
            threads,
            tree.subtree_size(tree.root()),
        );
        (plan, seeds)
    }

    #[test]
    fn two_subtree_doc_occupies_four_workers_after_resplitting() {
        // Regression for the pre-splitting cap `threads.min(children.len())`:
        // a two-subtree document saturated at two workers no matter the
        // budget. Re-splitting the dominant subtree yields enough tasks for
        // the full budget.
        let doc = skewed_doc();
        assert_eq!(doc.children(doc.root()).len(), 2);
        let queries = [CompiledBatchQuery::new(ir("//diagnosis"))];
        let threads = 4;
        let (plan, _seeds) = plan_for(&doc, &queries, threads);
        assert!(!plan.spines.is_empty(), "the dominant subtree is re-split");
        assert!(
            plan.tasks.len() >= threads,
            "re-splitting yields at least one task per worker ({} tasks)",
            plan.tasks.len()
        );
        assert_eq!(threads.min(plan.tasks.len()), 4, "all four workers occupied");
    }

    #[test]
    fn skewed_run_reports_shard_fraction() {
        let doc = skewed_doc();
        let compiled = ir("//diagnosis");
        let sequential = solo(&doc, &compiled, None, 1);
        assert_eq!(sequential.stats.max_shard_fraction, 0.0);
        let parallel = solo(&doc, &compiled, None, 4);
        let frac = parallel.stats.max_shard_fraction;
        assert!(frac > 0.0 && frac <= 1.0, "fraction in (0, 1]: {frac}");
        // Re-splitting bounds every task well below the dominant subtree's
        // ~99% share of the document.
        assert!(frac < 0.5, "no task dominates after re-splitting: {frac}");
    }

    #[test]
    fn budget_one_is_the_sequential_walk() {
        // Budget 1 never reaches the planner: no shard is formed, so no
        // task holds a share of the visits, and the result is the one the
        // interpreted reference engine computes.
        let doc = skewed_doc();
        for query in ["//diagnosis", "department/patient/pname", "//patient[visit]"] {
            let mfa = compile_query(&parse_path(query).unwrap());
            let compiled = Arc::new(CompiledMfa::new(&mfa));
            let reference = interpreted::evaluate(&doc, &mfa);
            let walked = solo(&doc, &compiled, None, 1);
            assert_eq!(walked.answers, reference.answers, "`{query}`");
            assert_eq!(walked.stats, reference.stats, "`{query}`");
            assert_eq!(walked.stats.max_shard_fraction, 0.0, "`{query}`");
        }
        // The same document does split at budget 2, so spines and grafting
        // stay under test without a budget-1 split.
        let queries = [CompiledBatchQuery::new(ir("//diagnosis"))];
        let (plan, _seeds) = plan_for(&doc, &queries, 2);
        assert!(!plan.spines.is_empty(), "budget 2 re-splits the dominant subtree");
    }

    #[test]
    fn claim_map_runs_every_item_once_in_input_order() {
        for len in [0, 1, 3, 100] {
            let items: Vec<usize> = (0..len).map(|i| i * 7).collect();
            for threads in [1, 2, 8] {
                let (results, states) = claim_map(
                    &items,
                    threads,
                    || (thread::current().id(), Vec::new()),
                    |(_, ran), i, &item| {
                        assert_eq!(item, items[i], "`run` gets the item at its index");
                        ran.push(i);
                        (item + 1, thread::current().id())
                    },
                );
                let ctx = format!("{len} items @{threads}");
                let values: Vec<usize> = results.iter().map(|&(v, _)| v - 1).collect();
                assert_eq!(values, items, "{ctx}: results in input order");
                assert_eq!(states.len(), threads.min(len).max(1), "{ctx}");
                let mut all: Vec<usize> = Vec::new();
                for (worker, ran) in &states {
                    let by_worker: Vec<usize> =
                        (0..len).filter(|&i| results[i].1 == *worker).collect();
                    assert_eq!(ran, &by_worker, "{ctx}: a state holds what its worker ran");
                    all.extend(ran);
                }
                all.sort_unstable();
                assert_eq!(all, (0..len).collect::<Vec<_>>(), "{ctx}: every item once");
            }
        }
    }

    #[test]
    fn single_node_context_has_no_shards() {
        let doc = doc();
        let compiled = ir("diagnosis");
        let leaf = doc
            .node_ids()
            .find(|&n| doc.children(n).is_empty())
            .expect("tree has leaves");
        let query = [CompiledBatchQuery::new(compiled)];
        let sequential = evaluate_tree(&doc, leaf, &query, 1).results.remove(0);
        let parallel = evaluate_tree(&doc, leaf, &query, 8).results.remove(0);
        assert_eq!(parallel.answers, sequential.answers);
        assert_eq!(parallel.stats, sequential.stats);
    }

    #[test]
    fn indexed_pruning_matches_sequential() {
        let doc = doc();
        let dtd = hospital_document_dtd();
        let mfa = compile_query(&parse_path("//diagnosis").unwrap());
        let compiled = Arc::new(CompiledMfa::new(&mfa));
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let sequential = solo(&doc, &compiled, Some(&index), 1);
        for threads in [1, 3] {
            let parallel = solo(&doc, &compiled, Some(&index), threads);
            assert_eq!(parallel.answers, sequential.answers, "@{threads}");
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
        }
    }

    #[test]
    fn indexed_pruning_matches_sequential_on_skewed_doc() {
        // Spine probes run the same pruning logic as the sequential walk;
        // a pruned spine candidate must fall back to a leaf task with
        // identical statistics.
        let doc = skewed_doc();
        let dtd = hospital_document_dtd();
        let mfa = compile_query(&parse_path("//diagnosis").unwrap());
        let compiled = Arc::new(CompiledMfa::new(&mfa));
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let sequential = solo(&doc, &compiled, Some(&index), 1);
        for threads in [1, 4] {
            let parallel = solo(&doc, &compiled, Some(&index), threads);
            assert_eq!(parallel.answers, sequential.answers, "@{threads}");
            assert_eq!(parallel.stats, sequential.stats, "@{threads}");
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let doc = doc();
        let batch = batch_at_root(&doc, &[], 4);
        assert!(batch.results.is_empty());
        assert_eq!(batch.stats.queries, 0);
        assert_eq!(batch.stats.nodes_visited, 0);
        assert_eq!(batch.stats.nodes_total, doc.len());
    }

    #[test]
    fn mirrors_sequential_batch_with_builder_queries() {
        // Cross-check against the interpreted engine over the builder MFA too.
        let doc = doc();
        let mfa = compile_query(&parse_path("department/patient[visit]").unwrap());
        let reference = interpreted::evaluate_batch(&doc, &[interpreted::BatchQuery::new(&mfa)]);
        let parallel =
            batch_at_root(&doc, &[CompiledBatchQuery::new(Arc::new(CompiledMfa::new(&mfa)))], 2);
        assert_eq!(parallel.results[0].answers, reference.results[0].answers);
        assert_eq!(parallel.results[0].stats, reference.results[0].stats);
    }
}
