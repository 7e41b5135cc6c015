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
//!    dominant subtree no longer pins the whole document to one worker.
//!    Subtree sizes are *read* off the tree's size column
//!    ([`XmlTree::subtree_size`] is O(1)), never walked, so planning costs
//!    O(tasks + spines), not a pass over the document;
//! 3. a plan that **cannot balance** is dropped: when its largest task
//!    holds at least `MAX_TASK_SHARE` (80 %) of the context's nodes, no
//!    budget can beat the walk by more than 1.25×, and spawn, seeding and
//!    merge eat that margin. The calling thread then walks the context's
//!    children on the core that opened the context — exactly the
//!    sequential walk, which forms no shard. A single deep chain (the
//!    `bom` domain's `Deep` shape) is the case this catches;
//! 4. every task exists before any worker starts, so `min(threads, tasks)`
//!    scoped workers simply claim them in plan order off **one atomic
//!    counter** — the crate's single worker pool, shared with the finalize
//!    phase, [`crate::corpus`] and [`crate::incremental`]. Each worker
//!    replays a seed frame **once per group** it touches into
//!    a private core (one label-column map, pruning-table set and scratch
//!    pool per *worker and group*, so the hot path stays allocation-free
//!    per node) and runs the **unchanged** sequential `open`/`close`
//!    logic over every subtree it claims — including per-query basic and
//!    OptHyPE(-C) pruning;
//! 5. the main thread closes spines bottom-up — absorbing the accumulator
//!    rows of the units below each spine and closing the spine node, whose
//!    core becomes the spine's own small unit — then ORs every top-level
//!    unit's accumulator rows back into the real context frame, closes the
//!    context, and collects: the context block and the spine units first,
//!    on the calling thread, then every `(query, leaf unit)` pair over the
//!    worker pool. No unit arena is copied.
//!
//! ## Determinism guarantee
//!
//! Each per-query artefact is merged exactly, not approximately:
//!
//! * **Answers** — every unit's arena keeps its group frame's vertices as
//!   its first `k` ids, so the sequential DAG is the disjoint union of the
//!   context block and the unit arenas glued at those shared ids: a spine
//!   unit's own vertices are the shared ids of the units below it. Answer
//!   collection runs the context block first, then each spine unit seeded
//!   with its parent group's reached vertices, then every leaf unit seeded
//!   with its group's; the union (a `BTreeSet` over pre-order
//!   [`NodeId`]s) is the sequential answer set in pre-order index order,
//!   whatever order tasks were claimed or finished in.
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
//!   The collection phase runs over the same thread budget: once the
//!   context and spine blocks are collected, each `(query, leaf unit)`
//!   collection is independent, so a solo query's collection spreads over
//!   the workers as well as a batch's.
//!
//! ## Thread budget
//!
//! [`crate::evaluate_tree`] takes a `threads` knob: `0` means "all
//! available cores" ([`std::thread::available_parallelism`]), `1` runs the
//! sequential walk on the calling thread and never reaches this module, and
//! larger budgets run the plan → claim → merge path above, capped by the
//! **task count after re-splitting** — a two-subtree document with one
//! dominant subtree still fans out to every worker — unless the plan falls
//! through to the walk. Workers are spawned per evaluation; for a parsed
//! document the spawn cost is noise next to the traversal.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

use smoqe_automata::CompiledMfa;
use smoqe_xml::{NodeId, XmlTree};

use crate::batch::{walk, walk_opened, CompiledBatchQuery};
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

/// A plan whose largest task holds at least this share of the context's
/// nodes is dropped for the sequential walk. Whatever the budget, such a
/// plan cannot run faster than `1 / share` of the walk (1.25× here), and
/// spawning, seeding and merging eat that margin. Measured on a 2-vCPU
/// host, budget 2 against budget 1 over 2·10⁵-node documents whose root
/// holds one unsplittable subtree of the given share (median of 63
/// alternated pairs, three queries): 1.16× at 0.5, 1.09× at 0.7, 1.07× at
/// 0.75, 1.02× at 0.8 and 1.00× at 0.9. On the `bom` domain's 2·10⁵-node
/// `Deep` document, one chain planned as 2 tasks and 1 spine, the shards
/// read 0.88× (median of 132 pairs over its four recursive view queries
/// in all three modes); falling through reads 1.00×.
const MAX_TASK_SHARE: f64 = 0.8;

/// Resolves a thread-budget knob: `0` means all available cores.
pub(crate) fn resolve_threads(budget: usize) -> usize {
    if budget == 0 {
        thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        budget
    }
}

/// Evaluates one pre-compiled query at `context`, optionally with an
/// OptHyPE(-C) index, sharding `context`'s subtrees over up to `threads`
/// workers: the one-query case of [`crate::evaluate_tree`]. Kept under this
/// name because the `perfbench` benchmark calls it.
///
/// The result — answers *and* [`HypeStats`] — is
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
    crate::evaluate_tree(tree, context, &[query], threads)
        .results
        .remove(0)
}

/// The `threads ≥ 2` branch of [`crate::evaluate_tree`] for a non-empty
/// batch: open the context on the calling thread exactly as the sequential
/// walk would, plan, run the tasks over the pool, merge the spines, and
/// close the context over the top-level units. Returns the per-query
/// results, stamped with the run's `max_shard_fraction`, and the physical
/// visit count.
///
/// A plan that cannot balance — its largest task holds
/// [`MAX_TASK_SHARE`] of the context's nodes or more, read off the size
/// column in O(tasks) — is dropped, and the calling thread walks the
/// context's children on the core that already opened the context: the
/// sequential walk, which forms no shard (`max_shard_fraction == 0.0`).
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

    let plan = plan_shards(tree, context, queries, seeds, threads, nodes_total);
    let largest = plan.tasks.iter().map(|t| tree.subtree_size(t.node)).max();
    if largest.is_some_and(|n| n as f64 >= MAX_TASK_SHARE * nodes_total as f64) {
        drop(plan);
        walk_opened(&mut core, tree, context);
        let (results, nodes_visited, _) = core.into_results(nodes_total);
        return (results, nodes_visited);
    }
    let (leaves, max_task_visits) = run_tasks(tree, queries, &plan, threads);
    let spines = close_spines(tree, plan.spines, &leaves);
    let forest = UnitForest {
        leaves: leaves.iter().map(|group| group.iter().collect()).collect(),
        spines: spines
            .iter()
            .map(|(parent, unit)| (*parent, unit))
            .collect(),
    };
    let (mut results, nodes_visited) =
        close_context(core, tree, context, &forest, nodes_total, threads);

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

/// The context tail shared with [`crate::incremental`]: OR the value rows
/// of every unit hanging below the context into the opened context frame
/// (OR is order-free), close the context bottom-up as usual, and collect
/// every query's answers over the context block and the units. Returns
/// the per-query results and the physical visit count (context plus
/// units).
///
/// Collection runs in two steps. The context block and the spine units
/// are small (a spine unit holds its parent group's placeholders and the
/// spine node's own vertices), so each query's pass over them runs first,
/// on the calling thread, and yields the reached vertex set of every
/// group's frame. Every `(query, leaf unit)` pair is then independent and
/// is spread over the worker pool.
pub(crate) fn close_context(
    mut core: HypeCore,
    tree: &XmlTree,
    context: NodeId,
    forest: &UnitForest,
    nodes_total: usize,
    threads: usize,
) -> (Vec<HypeResult>, usize) {
    let top_spines = forest
        .spines
        .iter()
        .filter(|(parent, _)| *parent == 0)
        .map(|(_, unit)| *unit);
    for (unit, _) in forest.leaves[0].iter().copied().chain(top_spines) {
        for (query, sq) in unit.iter().enumerate() {
            core.absorb_child_values(query, &sq.acc_any, &sq.acc);
        }
    }
    core.close(tree.text(context));
    let (blocks, context_physical) = core.into_context_parts();

    let mut scratch = CollectScratch::new();
    let heads: Vec<Head> = blocks
        .iter()
        .enumerate()
        .map(|(query, block)| collect_head(block, query, &forest.spines, nodes_total, &mut scratch))
        .collect();
    let items: Vec<(usize, usize, usize)> = (0..blocks.len())
        .flat_map(|query| {
            forest
                .leaves
                .iter()
                .enumerate()
                .flat_map(move |(group, units)| {
                    (0..units.len()).map(move |unit| (query, group, unit))
                })
        })
        .collect();
    let (found, _) = claim_map(
        &items,
        threads,
        CollectScratch::new,
        |scratch, _, &(query, group, unit)| {
            let sq = &forest.leaves[group][unit].0[query];
            let mut found = Vec::new();
            collect_answers(
                &sq.cans,
                &sq.edges,
                &heads[query].reached[group],
                scratch,
                &mut found,
            );
            found
        },
    );

    // One bulk build per query sorts and dedups every unit's answers.
    let mut merged: Vec<(Vec<NodeId>, HypeStats)> = heads
        .into_iter()
        .map(|head| (head.answers, head.stats))
        .collect();
    for (&(query, group, unit), found) in items.iter().zip(found) {
        let (answers, stats) = &mut merged[query];
        add_unit(stats, &forest.leaves[group][unit].0[query]);
        answers.extend(found);
    }
    let results = merged
        .into_iter()
        .map(|(answers, stats)| HypeResult {
            answers: answers.into_iter().collect(),
            stats,
        })
        .collect();
    let units = forest.leaves.iter().flatten().copied();
    let nodes_visited = context_physical
        + units
            .chain(forest.spines.iter().map(|(_, unit)| *unit))
            .map(|(_, physical)| physical)
            .sum::<usize>();
    (results, nodes_visited)
}

/// Every shard unit of one run, placed by *group* — the frame the unit was
/// seeded from. `leaves[0]` hang below the evaluation context and
/// `leaves[g]` below spine `g - 1`'s node; `spines[g - 1]` is that spine's
/// own unit — its parent group's placeholders, then the spine node's
/// vertices — with the group it hangs in. Spines are listed parents first.
pub(crate) struct UnitForest<'u> {
    pub leaves: Vec<Vec<&'u Unit>>,
    pub spines: Vec<(u32, &'u Unit)>,
}

/// One query's collection over the context block and the spine units.
struct Head {
    /// Answers found there (the context and spine nodes).
    answers: Vec<NodeId>,
    /// Counters of the context block and the spine units.
    stats: HypeStats,
    /// Per group: the reached vertices of its frame, as placeholder ids of
    /// the units seeded from it.
    reached: Vec<Vec<u32>>,
}

/// Collects `query` over the context block, then over each spine unit
/// seeded with its parent group's reached set. A spine unit's first
/// `context_vertices` ids are its parent group's placeholders; its
/// remaining ids are the spine node's vertices, which the units of the
/// spine's own group see as their placeholders `0..`.
fn collect_head(
    block: &ContextBlock,
    query: usize,
    spines: &[(u32, &Unit)],
    nodes_total: usize,
    scratch: &mut CollectScratch,
) -> Head {
    let mut answers = Vec::new();
    let context_reached = collect_answers_and_reached(
        &block.cans,
        &block.edges,
        &block.init,
        scratch,
        &mut answers,
    );
    let mut stats = block.stats;
    stats.nodes_total = nodes_total;
    stats.cans_vertices = block.cans.len();
    stats.cans_edges = block.edges.len();
    let mut reached = vec![context_reached];
    for &(parent, (unit, _)) in spines {
        let sq = &unit[query];
        add_unit(&mut stats, sq);
        let seeds = &reached[parent as usize];
        let spine_reached =
            collect_answers_and_reached(&sq.cans, &sq.edges, seeds, scratch, &mut answers);
        let k = sq.context_vertices;
        reached.push(
            spine_reached
                .into_iter()
                .filter(|&v| v >= k)
                .map(|v| v - k)
                .collect(),
        );
    }
    Head {
        answers,
        stats,
        reached,
    }
}

/// Adds one unit's counters for one query to `stats`: every counter is a
/// sum of per-node contributions, and a unit's context placeholders (its
/// first `context_vertices` ids) are not its own vertices.
fn add_unit(stats: &mut HypeStats, sq: &ShardQueryOutput) {
    // Destructured so adding a counter to `HypeStats` fails to compile
    // here instead of being silently dropped from parallel results. The
    // two DAG-size counters are derived from the arenas (the shard core
    // never finalises them); `nodes_total` is context-wide, and
    // `max_shard_fraction` is a whole-run diagnostic the parallel entry
    // points stamp after the merge.
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
    stats.cans_vertices += sq.cans.len() - sq.context_vertices as usize;
    stats.cans_edges += sq.edges.len();
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
/// single `QueryRuntime` set (ColumnMap, scratch pools, pruning tables,
/// configuration memo) per worker and group, seeded once and fed every
/// task of that group the worker claims. Walking several children under
/// one seeded frame is
/// exactly what the sequential walk does, so per-query artefacts stay
/// bit-exact while setup cost scales with the worker count, not the
/// (possibly huge) child count. Which task lands on which worker depends on
/// scheduling, but the merge only ever sums counters, ORs bitset rows and
/// unions ordered sets — all commutative — so the result is deterministic
/// regardless.
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

/// Closes every spine bottom-up (spines are created parents-first, so the
/// reverse order closes nested spines before the spines they feed): OR
/// the value rows of every unit hanging below the spine — its group's
/// leaves and its closed nested spines — into the spine frame at the
/// spine-frame positions, close the spine node exactly as the sequential
/// walk would, and keep the spine core's shard outputs as the spine's own
/// unit. Returns `(parent group, unit)` per spine, in creation order.
fn close_spines(tree: &XmlTree, spines: Vec<SpinePlan>, leaves: &[Vec<Unit>]) -> Vec<(u32, Unit)> {
    let mut closed: Vec<Option<(u32, Unit)>> = spines.iter().map(|_| None).collect();
    for (i, spine) in spines.into_iter().enumerate().rev() {
        let group = i as u32 + 1;
        let SpinePlan {
            mut core,
            node,
            parent_group,
            frame_queries,
            seeds: _,
        } = spine;
        let nested = closed[i + 1..]
            .iter()
            .flatten()
            .filter(|(parent, _)| *parent == group)
            .map(|(_, unit)| unit);
        for (unit, _) in leaves[group as usize].iter().chain(nested) {
            for (position, &query) in frame_queries.iter().enumerate() {
                let sq = &unit[query as usize];
                core.absorb_child_values(position, &sq.acc_any, &sq.acc);
            }
        }
        core.close(tree.text(node));
        closed[i] = Some((parent_group, core.into_shard_outputs()));
    }
    closed
        .into_iter()
        .map(|spine| spine.expect("every spine is closed"))
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchResult;
    use crate::evaluate_tree;
    use crate::interpreted;
    use crate::testing::ir;
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
        evaluate_tree(doc, doc.root(), &[query], threads)
            .results
            .remove(0)
    }

    fn batch_at_root(doc: &XmlTree, queries: &[CompiledBatchQuery], threads: usize) -> BatchResult {
        evaluate_tree(doc, doc.root(), queries, threads)
    }

    /// A document whose root has several structurally different subtrees.
    fn doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        for (name, diag) in [
            ("Alice", "heart disease"),
            ("Bob", "flu"),
            ("Carol", "heart disease"),
        ] {
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
            b.child_with_text(
                m,
                "diagnosis",
                if i % 3 == 0 { "flu" } else { "heart disease" },
            );
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

    /// A single `patient/parent` chain beside one small department: its
    /// plan has two tasks, the chain holding all but a handful of nodes.
    fn chain_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        let mut at = b.child(dept, "patient");
        for i in 0..600 {
            b.child_with_text(at, "pname", if i % 2 == 0 { "Alice" } else { "Bob" });
            let parent = b.child(at, "parent");
            at = b.child(parent, "patient");
        }
        let small = b.child(root, "department");
        let p = b.child(small, "patient");
        b.child_with_text(p, "pname", "Carol");
        b.finish()
    }

    #[test]
    fn unbalanced_plan_falls_through_to_the_walk() {
        let doc = chain_doc();
        let queries = [CompiledBatchQuery::new(ir("//pname"))];
        let (plan, _seeds) = plan_for(&doc, &queries, 2);
        let largest = plan
            .tasks
            .iter()
            .map(|t| doc.subtree_size(t.node))
            .max()
            .unwrap();
        assert!(largest as f64 >= MAX_TASK_SHARE * doc.live_len() as f64);
        for query in [
            "//pname",
            "department/patient/(parent/patient)*/pname",
            "//patient[pname]",
        ] {
            let compiled = ir(query);
            let sequential = solo(&doc, &compiled, None, 1);
            for threads in [2, 8] {
                let parallel = solo(&doc, &compiled, None, threads);
                assert_eq!(parallel.answers, sequential.answers, "`{query}` @{threads}");
                assert_eq!(parallel.stats, sequential.stats, "`{query}` @{threads}");
                assert_eq!(
                    parallel.stats.max_shard_fraction, 0.0,
                    "`{query}` @{threads}"
                );
            }
        }
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
        for query in [
            "//diagnosis",
            "department/patient/pname",
            "//patient[visit]",
        ] {
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
        assert_eq!(
            threads.min(plan.tasks.len()),
            4,
            "all four workers occupied"
        );
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
        for query in [
            "//diagnosis",
            "department/patient/pname",
            "//patient[visit]",
        ] {
            let mfa = compile_query(&parse_path(query).unwrap());
            let compiled = Arc::new(CompiledMfa::new(&mfa));
            let reference = interpreted::evaluate(&doc, &mfa);
            let walked = solo(&doc, &compiled, None, 1);
            assert_eq!(walked.answers, reference.answers, "`{query}`");
            assert_eq!(walked.stats, reference.stats, "`{query}`");
            assert_eq!(walked.stats.max_shard_fraction, 0.0, "`{query}`");
        }
        // The same document does split at budget 2, so spines and their
        // collection stay under test without a budget-1 split.
        let queries = [CompiledBatchQuery::new(ir("//diagnosis"))];
        let (plan, _seeds) = plan_for(&doc, &queries, 2);
        assert!(
            !plan.spines.is_empty(),
            "budget 2 re-splits the dominant subtree"
        );
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
        let parallel = batch_at_root(
            &doc,
            &[CompiledBatchQuery::new(Arc::new(CompiledMfa::new(&mfa)))],
            2,
        );
        assert_eq!(parallel.results[0].answers, reference.results[0].answers);
        assert_eq!(parallel.results[0].stats, reference.results[0].stats);
    }
}
