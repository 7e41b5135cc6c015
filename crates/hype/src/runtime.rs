//! The compiled per-node evaluation core shared by the tree-walking batch
//! engine ([`crate::batch`]) and the event-driven streaming engine
//! ([`crate::stream`]).
//!
//! Everything HyPE computes *at one node* — the `cans` vertices, the
//! request closure, the OptHyPE pruning decision, the bottom-up Boolean
//! values `X(node, state)` — runs here on the
//! [`CompiledMfa`](smoqe_automata::CompiledMfa) execution IR:
//!
//! * pending NFA states and filter-state closures are `u64`-word bitsets
//!   ([`smoqe_automata::compiled::bits`]), advanced with precompiled
//!   `step-then-ε-close` and operator-closure rows instead of worklists;
//! * filter values are bitset rows too — the per-node
//!   `HashMap<(AfaId, AfaStateId), bool>` of the interpreted engine
//!   ([`crate::interpreted`]) becomes three word rows (`computed`,
//!   `in-progress`, `value`) cleared in O(words);
//! * children hand their value rows up by OR-ing them into per-label
//!   *accumulators*, so a `Trans` state evaluates with one bit test instead
//!   of scanning every child;
//! * all per-node state lives in pooled [`LocalScratch`] buffers — after
//!   the pool warms up to the document depth, the steady-state per-node
//!   path performs **no heap allocation** beyond the amortised growth of
//!   the `cans` output arena (asserted by the `allocation_discipline`
//!   suite).
//!
//! The two traversal drivers are thin: [`HypeCore::open`] decides, per
//! query, whether a node has work (building vertices, edges and closures
//! when it does, reporting "skip this subtree" when no query has), and
//! [`HypeCore::close`] resolves the node bottom-up. Because a recursive
//! DFS over an arena and a stack machine over `Open`/`Text`/`Close` events
//! call the exact same code, they produce identical answers *and*
//! identical [`HypeStats`] — and the differential suites additionally pin
//! both to the interpreted reference engines.
//!
//! ## The configuration memo
//!
//! What `open` does for a query at a child depends only on the parent's
//! *configuration* — its ε-closed pending NFA states and its closed filter
//! requests before λ triggers — and the child's label column (plus, for
//! the OptHyPE prune, the label's index row). Each [`QueryRuntime`]
//! therefore owns a [`LazyDfa`] that interns every configuration it meets
//! and memoizes, per `(configuration, column)`, either *dead* (the basic
//! prune) or the child's configuration with a **parent-edge template**.
//! Each configuration carries a **vertex template**: per state rank,
//! whether it is final, and its ε edges as `(rank, rank)` pairs. An open
//! that hits the memo replays the templates with [`push_edge`] — the same
//! vertices and edges, in the same order, as the per-state loops — and
//! reads the index prune from a memo keyed by (configuration, index row),
//! so [`IndexPruning::can_skip`] runs only on a miss. A miss is filled by
//! the one set function ([`CompiledMfa::step_config`],
//! [`CompiledMfa::add_triggers`]); the memo is keyed by column, so labels
//! interned mid-stream need nothing. Its stored bytes are bounded by
//! [`smoqe_automata::LAZY_DFA_BYTES`]; once it is full, new transitions
//! take the row-OR path uncached, but a node they reach whose configuration
//! the memo already holds gets its id back, so its subtree replays again.
//! `SMOQE_KERNEL=scalar` switches the memo off — every node then runs the
//! per-state loops, the differential oracle. Answers and every
//! [`HypeStats`] counter are the same either way by construction.

use std::collections::HashMap;
use std::sync::Arc;

use smoqe_automata::compiled::{bits, ColumnMap, CompiledMfa};
use smoqe_automata::lazy::{LazyDfa, Step};
use smoqe_automata::{CompiledAfaState, FinalPredicate, ANY_LABEL};
use smoqe_xml::{LabelId, LabelInterner, NodeId};

use crate::batch::CompiledBatchQuery;
use crate::engine::HypeStats;
use crate::index::ReachabilityIndex;

/// Sentinel terminating a vertex's edge list in the shared edge pool.
const NO_EDGE: u32 = u32::MAX;

/// One vertex of a query's candidate-answer DAG `cans`. Edges live in the
/// owning runtime's edge pool as a `(target, next)` linked list, so pushing
/// an edge never allocates a per-vertex `Vec`.
#[derive(Debug)]
pub(crate) struct CansVertex {
    /// The document node the vertex stands for (pre-order index in the
    /// streaming engine).
    node: NodeId,
    is_final: bool,
    /// `false` once the state's AFA evaluated to false at `node`.
    valid: bool,
    /// Head of the vertex's edge list in the pool, or [`NO_EDGE`].
    edge_head: u32,
}

/// Reusable scratch of [`collect_answers`]: the visited stamps and the DFS
/// stack survive across queries and across evaluations instead of being
/// reallocated per call. Staleness is handled by epoch stamping — marking
/// is a store, clearing is free.
#[derive(Debug, Default)]
pub(crate) struct CollectScratch {
    stamp: Vec<u32>,
    epoch: u32,
    stack: Vec<u32>,
}

impl CollectScratch {
    pub fn new() -> Self {
        Self::default()
    }

    fn begin(&mut self, vertices: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // One fill every 2³² evaluations keeps stale stamps impossible.
            self.stamp.fill(0);
            self.epoch = 1;
        }
        if self.stamp.len() < vertices {
            self.stamp.resize(vertices, 0);
        }
        self.stack.clear();
    }

    #[inline]
    fn seen(&self, v: u32) -> bool {
        self.stamp[v as usize] == self.epoch
    }

    #[inline]
    fn mark(&mut self, v: u32) {
        self.stamp[v as usize] = self.epoch;
    }
}

/// Phase 2 of HyPE: traverse `cans` from the initial vertices through valid
/// vertices only, pushing the nodes attached to final states onto
/// `answers` in traversal order (a node with several final vertices
/// repeats). Collecting the vector into a `BTreeSet` sorts and dedups it
/// in one bulk build, which is cheaper than inserting node by node.
pub(crate) fn collect_answers(
    cans: &[CansVertex],
    edges: &[(u32, u32)],
    init_vertices: &[u32],
    scratch: &mut CollectScratch,
    answers: &mut Vec<NodeId>,
) {
    collect_answers_impl(cans, edges, init_vertices, scratch, answers, None);
}

/// [`collect_answers`] that also reports *which* vertices were reached.
///
/// The parallel evaluator runs this over the context block (whose vertices
/// are the first `k` ids of every shard arena as well): the reached set
/// seeds the per-shard collection, because every edge of the candidate DAG
/// points strictly downwards — from a node's vertices to a child's — so a
/// shard vertex is reachable from `Init` exactly when some reached context
/// vertex has an edge into the shard.
pub(crate) fn collect_answers_and_reached(
    cans: &[CansVertex],
    edges: &[(u32, u32)],
    init_vertices: &[u32],
    scratch: &mut CollectScratch,
    answers: &mut Vec<NodeId>,
) -> Vec<u32> {
    let mut reached = Vec::new();
    collect_answers_impl(
        cans,
        edges,
        init_vertices,
        scratch,
        answers,
        Some(&mut reached),
    );
    reached
}

/// The one traversal behind both collectors. `reached`, when supplied,
/// records every visited vertex; passing `None` keeps the sequential hot
/// path free of the extra vector.
fn collect_answers_impl(
    cans: &[CansVertex],
    edges: &[(u32, u32)],
    init_vertices: &[u32],
    scratch: &mut CollectScratch,
    answers: &mut Vec<NodeId>,
    mut reached: Option<&mut Vec<u32>>,
) {
    scratch.begin(cans.len());
    for &v in init_vertices {
        if cans[v as usize].valid && !scratch.seen(v) {
            scratch.mark(v);
            scratch.stack.push(v);
        }
    }
    while let Some(v) = scratch.stack.pop() {
        if let Some(reached) = reached.as_deref_mut() {
            reached.push(v);
        }
        let vertex = &cans[v as usize];
        if vertex.is_final {
            answers.push(vertex.node);
        }
        let mut e = vertex.edge_head;
        while e != NO_EDGE {
            let (target, next) = edges[e as usize];
            if !scratch.seen(target) && cans[target as usize].valid {
                scratch.mark(target);
                scratch.stack.push(target);
            }
            e = next;
        }
    }
}

/// Pooled per-node, per-query working state: every bitset row one node
/// visit needs, laid out structure-of-arrays in **one flat allocation**:
///
/// ```text
/// buf: [ mstates (nw) | closure (aw) | values (aw) | acc_any (aw) | acc (slots × aw) ]
/// ```
///
/// A visit touches the regions in exactly this order — NFA step rows, then
/// the filter closure, then (at close) the value row and the parent's
/// accumulators — so the whole per-node working set is one contiguous cache
/// run, and [`LocalScratch::reset`] is a single `fill(0)` instead of five
/// separate clears. A visit takes one from the owning runtime's pool and
/// returns it at close, so steady-state traversal allocates nothing.
#[derive(Debug)]
pub(crate) struct LocalScratch {
    /// The flat SoA row (layout above).
    buf: Vec<u64>,
    /// Words per NFA bitset row (width of the `mstates` region).
    nw: usize,
    /// Words per AFA bitset row (width of every other region).
    aw: usize,
    /// First `cans` vertex id of this node (states ascending).
    vertex_base: u32,
}

impl LocalScratch {
    fn sized(cm: &CompiledMfa) -> Self {
        let nw = cm.nfa_words();
        let aw = cm.afa_words();
        LocalScratch {
            buf: vec![0; nw + aw * (3 + cm.slot_count() as usize)],
            nw,
            aw,
            vertex_base: 0,
        }
    }

    fn reset(&mut self) {
        self.buf.fill(0);
        self.vertex_base = 0;
    }

    /// NFA states assumed at this node (ε-closed).
    #[inline]
    fn mstates(&self) -> &[u64] {
        &self.buf[..self.nw]
    }

    #[inline]
    fn mstates_mut(&mut self) -> &mut [u64] {
        &mut self.buf[..self.nw]
    }

    /// Closed pending filter states.
    #[inline]
    fn closure(&self) -> &[u64] {
        &self.buf[self.nw..self.nw + self.aw]
    }

    #[inline]
    fn closure_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.nw..self.nw + self.aw]
    }

    /// `mstates` and `closure` borrowed mutably at once (for the child step,
    /// which writes both, and the λ-trigger pass, which reads one while
    /// OR-ing into the other).
    #[inline]
    fn mstates_closure_mut(&mut self) -> (&mut [u64], &mut [u64]) {
        let (mstates, rest) = self.buf.split_at_mut(self.nw);
        (mstates, &mut rest[..self.aw])
    }

    /// Filter states that evaluated to *true* here (filled at close).
    #[inline]
    fn values(&self) -> &[u64] {
        &self.buf[self.nw + self.aw..self.nw + 2 * self.aw]
    }

    #[inline]
    fn values_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.nw + self.aw..self.nw + 2 * self.aw]
    }

    /// OR of all closed children's `values` (wildcard transitions).
    #[inline]
    fn acc_any(&self) -> &[u64] {
        &self.buf[self.nw + 2 * self.aw..self.nw + 3 * self.aw]
    }

    #[inline]
    fn acc_any_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.nw + 2 * self.aw..self.nw + 3 * self.aw]
    }

    /// Per label slot: OR of the matching children's `values` (flat,
    /// `slots × aw`).
    #[inline]
    fn acc(&self) -> &[u64] {
        &self.buf[self.nw + 3 * self.aw..]
    }

    #[inline]
    fn acc_mut(&mut self) -> &mut [u64] {
        &mut self.buf[self.nw + 3 * self.aw..]
    }

    #[inline]
    fn acc_slot(&self, slot: u32) -> &[u64] {
        let at = self.nw + (3 + slot as usize) * self.aw;
        &self.buf[at..at + self.aw]
    }

    #[inline]
    fn acc_slot_mut(&mut self, slot: u32) -> &mut [u64] {
        let at = self.nw + (3 + slot as usize) * self.aw;
        &mut self.buf[at..at + self.aw]
    }
}

/// Configuration id of a node opened without the memo (memo off, or full
/// before its configuration was interned): its children take the row-OR
/// path.
const NO_CONFIG: u32 = u32::MAX;

/// Everything one query carries through a compiled traversal: its IR, label
/// translation, optional index with lazily-built bitset pruning tables, its
/// configuration memo, its `cans` arena (vertices + edge pool), statistics
/// and scratch pools.
pub(crate) struct QueryRuntime<'a> {
    cm: Arc<CompiledMfa>,
    cols: ColumnMap,
    pruning: Option<IndexPruning<'a>>,
    /// The configuration memo; `None` under `SMOQE_KERNEL=scalar`.
    dfa: Option<LazyDfa>,
    pub cans: Vec<CansVertex>,
    /// `(target, next)` edge pool; its length is the `cans_edges` statistic.
    pub edges: Vec<(u32, u32)>,
    pub stats: HypeStats,
    free_locals: Vec<LocalScratch>,
    /// Value-evaluation scratch (one row each), cleared per close.
    computed: Vec<u64>,
    in_progress: Vec<u64>,
    /// Cached kernel selection ([`bits::kernel`]): `true` runs the fused
    /// step-then-close row pass over `req_closure_rows`, `false` the
    /// original per-entry `req_transitions` scan (the differential oracle).
    fused: bool,
}

impl<'a> QueryRuntime<'a> {
    pub fn new(
        doc_labels: &LabelInterner,
        compiled: Arc<CompiledMfa>,
        index: Option<&'a ReachabilityIndex>,
        memo: bool,
    ) -> Self {
        let cols = ColumnMap::new(&compiled, doc_labels);
        let aw = compiled.afa_words();
        QueryRuntime {
            cols,
            pruning: index.map(|index| IndexPruning {
                index,
                nfa_accept_below: HashMap::new(),
                afa_true_below: HashMap::new(),
            }),
            dfa: memo.then(|| LazyDfa::new(&compiled, index.map_or(0, |i| i.stored_rows()))),
            cans: Vec::new(),
            edges: Vec::new(),
            stats: HypeStats::default(),
            free_locals: Vec::new(),
            computed: vec![0; aw],
            in_progress: vec![0; aw],
            fused: bits::kernel() == bits::Kernel::Wide,
            cm: compiled,
        }
    }

    /// Covers document labels interned after construction (the streaming
    /// engine interns labels as they first appear on `Open` events).
    pub fn extend_labels(&mut self, doc_labels: &LabelInterner) {
        self.cols.extend(&self.cm, doc_labels);
    }

    fn alloc_local(&mut self) -> LocalScratch {
        match self.free_locals.pop() {
            Some(mut sc) => {
                sc.reset();
                sc
            }
            None => LocalScratch::sized(&self.cm),
        }
    }

    fn free_local(&mut self, sc: LocalScratch) {
        self.free_locals.push(sc);
    }

    // -----------------------------------------------------------------------
    // Opening a node.
    // -----------------------------------------------------------------------

    /// Interns the configuration held in `sc` (its `closure` region read as
    /// the pre-trigger requests), or [`NO_CONFIG`] without a memo or room.
    fn intern(&mut self, sc: &LocalScratch) -> u32 {
        self.dfa
            .as_mut()
            .and_then(|dfa| dfa.intern(&self.cm, sc.mstates(), sc.closure()))
            .unwrap_or(NO_CONFIG)
    }

    /// The memoized step from configuration `parent` on `col`; `Uncached`
    /// without a memo, when it is full, or when `parent` has no id.
    #[inline]
    fn memo_step(&mut self, parent: u32, col: u32) -> Step {
        match &mut self.dfa {
            Some(dfa) if parent != NO_CONFIG => dfa.step(&self.cm, parent, col),
            _ => Step::Uncached,
        }
    }

    /// Opens the evaluation context: the NFA start state, no pending
    /// filter requests — never pruned.
    fn open_context(&mut self, node: NodeId) -> (LocalScratch, u32) {
        let mut sc = self.alloc_local();
        bits::or_into(sc.mstates_mut(), self.cm.state_closure(self.cm.start()));
        let config = self.intern(&sc);
        self.stats.nodes_visited += 1;
        let (mstates, closure) = sc.mstates_closure_mut();
        self.cm.add_triggers(mstates, closure);
        build_vertices(&mut self.cans, &mut self.edges, &self.cm, node, &mut sc);
        (sc, config)
    }

    /// Opens a child of the node `parent` with the per-state row-OR path:
    /// step and request rows, the basic and the index prune, λ triggers,
    /// one vertex per state with its ε edges, and the parent edges. `None`
    /// when the query prunes the child; otherwise the child's scratch and
    /// its configuration id, [`NO_CONFIG`] unless the memo holds it.
    fn open_fresh(
        &mut self,
        node: NodeId,
        label: LabelId,
        col: u32,
        parent: &LocalScratch,
    ) -> Option<(LocalScratch, u32)> {
        let mut sc = self.alloc_local();
        let (mstates, closure) = sc.mstates_closure_mut();
        self.cm.step_config(
            parent.mstates(),
            parent.closure(),
            col,
            self.fused,
            mstates,
            closure,
        );
        if !bits::any(sc.mstates()) && !bits::any(sc.closure()) {
            self.free_local(sc); // basic pruning: nothing can happen below
            return None;
        }
        let cm = &self.cm;
        if let Some(pruning) = &mut self.pruning {
            if pruning.can_skip(cm, label, sc.mstates(), sc.closure()) {
                self.free_local(sc); // index pruning: pending work is dead
                return None;
            }
        }
        self.stats.nodes_visited += 1;
        // A configuration the memo already holds (it may be full) lets this
        // node's children replay again.
        let config = self.intern(&sc);

        // λ triggers: filters started by states assumed here.
        let (mstates, closure) = sc.mstates_closure_mut();
        self.cm.add_triggers(mstates, closure);
        // Vertices and within-node ε edges.
        build_vertices(&mut self.cans, &mut self.edges, &self.cm, node, &mut sc);
        // Edges from the parent's vertices into this node's states.
        for (kp, sp) in bits::ones(parent.mstates()).enumerate() {
            let vp = parent.vertex_base + kp as u32;
            for &tgt in self.cm.step_targets(sp, col) {
                if bits::test(sc.mstates(), tgt) {
                    let to = sc.vertex_base + bits::rank(sc.mstates(), tgt);
                    push_edge(&mut self.cans, &mut self.edges, vp, to);
                }
            }
        }
        Some((sc, config))
    }

    /// Opens a child whose step the memo holds: the child's configuration
    /// `config`, reached by `transition`. Replays the vertex and
    /// parent-edge templates, which push exactly what
    /// [`Self::open_fresh`] would, in the same order.
    fn open_replayed(
        &mut self,
        node: NodeId,
        label: LabelId,
        parent: &LocalScratch,
        config: u32,
        transition: u32,
    ) -> Option<(LocalScratch, u32)> {
        if self.memo_prunes(label, config) {
            return None;
        }
        self.stats.nodes_visited += 1;
        let mut sc = self.alloc_local();
        let dfa = self.dfa.as_ref().expect("a memoized step has a memo");
        let (mstates, closure) = sc.mstates_closure_mut();
        mstates.copy_from_slice(dfa.mstates(config));
        closure.copy_from_slice(dfa.closure(config));
        sc.vertex_base = self.cans.len() as u32;
        for &is_final in dfa.finals(config) {
            self.cans.push(CansVertex {
                node,
                is_final,
                valid: true,
                edge_head: NO_EDGE,
            });
        }
        let base = sc.vertex_base;
        for &(from, to) in dfa.eps_edges(config) {
            push_edge(&mut self.cans, &mut self.edges, base + from, base + to);
        }
        for &(from, to) in dfa.parent_edges(transition) {
            push_edge(
                &mut self.cans,
                &mut self.edges,
                parent.vertex_base + from,
                base + to,
            );
        }
        Some((sc, config))
    }

    // -----------------------------------------------------------------------
    // OptHyPE pruning (bitset tables).
    // -----------------------------------------------------------------------

    /// The index prune for a child labelled `label` in configuration
    /// `config`: it depends only on the configuration and the label's
    /// index row, so it is memoized under that pair and computed by
    /// [`IndexPruning::can_skip`] on a miss.
    fn memo_prunes(&mut self, label: LabelId, config: u32) -> bool {
        let Some(pruning) = &mut self.pruning else {
            return false;
        };
        let Some(row) = pruning.index.row_of(label) else {
            return false; // label unknown to the DTD: no pruning information
        };
        let dfa = self.dfa.as_mut().expect("a memoized step has a memo");
        if let Some(skip) = dfa.side(config, row as usize) {
            return skip;
        }
        let skip = pruning.can_skip(&self.cm, label, dfa.mstates(config), dfa.requests(config));
        dfa.set_side(config, row as usize, skip);
        skip
    }
}

/// One query's OptHyPE(-C) index with its lazily built bitset tables.
struct IndexPruning<'a> {
    index: &'a ReachabilityIndex,
    /// Per document label: bitset of NFA states from which a final state is
    /// reachable using only transitions the DTD allows below that label.
    nfa_accept_below: HashMap<LabelId, Box<[u64]>>,
    /// Per document label: bitset (global AFA numbering) of filter states
    /// whose value could possibly be true inside such a subtree.
    afa_true_below: HashMap<LabelId, Box<[u64]>>,
}

impl IndexPruning<'_> {
    /// `true` if the query can skip the subtree rooted at a child labelled
    /// `child_label`, given the child's ε-closed pending NFA states and its
    /// *closed* pending filter requests (before λ triggers). Closing the
    /// requests first is equivalent to the interpreted engine's unclosed
    /// check: operator states propagate "maybe true" from their
    /// successors, so a request is all-false exactly when its whole
    /// operator closure is.
    fn can_skip(
        &mut self,
        cm: &CompiledMfa,
        child_label: LabelId,
        child_mstates: &[u64],
        closed_requests: &[u64],
    ) -> bool {
        if self.index.allowed_below(child_label).is_none() {
            return false; // label unknown to the DTD: no pruning information
        }
        if !self.nfa_accept_below.contains_key(&child_label) {
            let table = self.compute_nfa_accept_below(cm, child_label);
            self.nfa_accept_below.insert(child_label, table);
        }
        if bits::intersects(child_mstates, &self.nfa_accept_below[&child_label]) {
            return false;
        }
        if !bits::any(closed_requests) {
            return true;
        }
        if !self.afa_true_below.contains_key(&child_label) {
            let table = self.compute_afa_true_below(cm, child_label);
            self.afa_true_below.insert(child_label, table);
        }
        !bits::intersects(closed_requests, &self.afa_true_below[&child_label])
    }

    fn compute_nfa_accept_below(&self, cm: &CompiledMfa, label: LabelId) -> Box<[u64]> {
        let allowed = self
            .index
            .allowed_below(label)
            .expect("caller checked the label is known");
        let n = cm.nfa_state_count();
        let mut can = vec![0u64; cm.nfa_words()];
        for s in 0..n {
            if cm.is_final(s) {
                bits::set(&mut can, s);
            }
        }
        loop {
            let mut changed = false;
            for s in 0..n {
                if bits::test(&can, s) {
                    continue;
                }
                let reach = cm.eps_targets(s).iter().any(|&t| bits::test(&can, t))
                    || cm
                        .raw_transitions(s)
                        .iter()
                        .any(|&(l, tgt)| label_allowed_below(l, allowed) && bits::test(&can, tgt));
                if reach {
                    bits::set(&mut can, s);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        can.into_boxed_slice()
    }

    fn compute_afa_true_below(&self, cm: &CompiledMfa, label: LabelId) -> Box<[u64]> {
        let allowed = self
            .index
            .allowed_below(label)
            .expect("caller checked the label is known");
        let total = cm.afa_state_count();
        let mut maybe = vec![0u64; cm.afa_words()];
        for g in 0..total {
            if matches!(
                cm.op(g),
                CompiledAfaState::Final(_) | CompiledAfaState::Not(_)
            ) {
                bits::set(&mut maybe, g);
            }
        }
        loop {
            let mut changed = false;
            for g in 0..total {
                if bits::test(&maybe, g) {
                    continue;
                }
                let reach = match cm.op(g) {
                    CompiledAfaState::And { from, to } | CompiledAfaState::Or { from, to } => cm
                        .succ_pool()[*from as usize..*to as usize]
                        .iter()
                        .any(|&s| bits::test(&maybe, s)),
                    CompiledAfaState::Not(_) | CompiledAfaState::Final(_) => true,
                    CompiledAfaState::Trans { label: l, tgt } => {
                        label_allowed_below(*l, allowed) && bits::test(&maybe, *tgt)
                    }
                };
                if reach {
                    bits::set(&mut maybe, g);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        maybe.into_boxed_slice()
    }
}

impl QueryRuntime<'_> {
    // -----------------------------------------------------------------------
    // Bottom-up filter evaluation.
    // -----------------------------------------------------------------------

    /// Computes `X(node, state)` for every filter state in `sc.closure`,
    /// reading the children's values from the accumulators and leaving the
    /// true states set in `sc.values`. Evaluation order — ascending global
    /// id, successor lists in builder order, short-circuiting AND/OR, least
    /// fix-point false on ε-cycles — replicates the interpreted engine
    /// exactly, so the memoised values (and the `afa_values_computed`
    /// statistic) are bit-identical.
    fn compute_values(&mut self, node_text: Option<&str>, sc: &mut LocalScratch) {
        bits::clear(&mut self.computed);
        bits::clear(&mut self.in_progress);
        // The closure word is copied out (not iterated with `bits::ones`)
        // because `value_of` needs `sc` mutably for the memoised values.
        for wi in 0..sc.aw {
            let mut w = sc.closure()[wi];
            while w != 0 {
                let g = wi as u32 * 64 + w.trailing_zeros();
                w &= w - 1;
                value_of(
                    &self.cm,
                    g,
                    node_text,
                    &mut self.computed,
                    &mut self.in_progress,
                    sc,
                    &mut self.stats,
                );
            }
        }
    }
}

/// Whether a transition on `label` (or [`ANY_LABEL`]) may fire inside a
/// subtree whose DTD-allowed label bitset is `allowed`.
#[inline]
fn label_allowed_below(label: u32, allowed: &[u64]) -> bool {
    if label == ANY_LABEL {
        return true;
    }
    let bit = label as usize;
    allowed
        .get(bit / 64)
        .map(|w| w & (1 << (bit % 64)) != 0)
        .unwrap_or(false)
}

/// Recursive memoised evaluation of one filter variable; see
/// [`QueryRuntime::compute_values`] for the order contract.
fn value_of(
    cm: &CompiledMfa,
    g: u32,
    node_text: Option<&str>,
    computed: &mut [u64],
    in_progress: &mut [u64],
    sc: &mut LocalScratch,
    stats: &mut HypeStats,
) -> bool {
    if bits::test(computed, g) {
        return bits::test(sc.values(), g);
    }
    if bits::test(in_progress, g) {
        // ε-cycle among operator states (degenerate `(.)*` filters):
        // the least fix-point is false.
        return false;
    }
    bits::set(in_progress, g);
    stats.afa_values_computed += 1;
    let value = match cm.op(g) {
        CompiledAfaState::Final(pred) => match pred {
            FinalPredicate::True => true,
            FinalPredicate::False => false,
            FinalPredicate::TextEq(value) => node_text == Some(value.as_str()),
        },
        CompiledAfaState::Not(x) => !value_of(cm, *x, node_text, computed, in_progress, sc, stats),
        CompiledAfaState::And { from, to } => cm.succ_pool()[*from as usize..*to as usize]
            .iter()
            .all(|&c| value_of(cm, c, node_text, computed, in_progress, sc, stats)),
        CompiledAfaState::Or { from, to } => cm.succ_pool()[*from as usize..*to as usize]
            .iter()
            .any(|&c| value_of(cm, c, node_text, computed, in_progress, sc, stats)),
        CompiledAfaState::Trans { label, tgt } => {
            if *label == ANY_LABEL {
                bits::test(sc.acc_any(), *tgt)
            } else {
                match cm.slot_of_label(*label) {
                    Some(slot) => bits::test(sc.acc_slot(slot), *tgt),
                    None => false,
                }
            }
        }
    };
    bits::unset(in_progress, g);
    bits::set(computed, g);
    if value {
        bits::set(sc.values_mut(), g);
    }
    value
}

// ---------------------------------------------------------------------------
// The shared traversal core.
// ---------------------------------------------------------------------------

/// One query's live state at an open node.
struct CoreLocal {
    query: u32,
    /// Index of this query's local in the parent frame, `u32::MAX` at the
    /// evaluation context (whose entry vertex becomes the `Init` set).
    parent_slot: u32,
    /// Accumulator slot of this node's label column for this query
    /// (`u32::MAX` when no filter transition mentions the label).
    slot: u32,
    /// The node's configuration in this query's memo, or [`NO_CONFIG`].
    config: u32,
    scratch: LocalScratch,
}

/// Per-node frame: the per-query locals of every query with work here.
#[derive(Default)]
struct CoreFrame {
    locals: Vec<CoreLocal>,
}

/// One query's share of a context-frame snapshot: the ε-closed pending NFA
/// states and the closed filter requests (λ triggers included) at the
/// evaluation context, exactly as a child open would read them.
#[derive(Debug, Clone)]
pub(crate) struct ContextSeed {
    query: u32,
    mstates: Vec<u64>,
    closure: Vec<u64>,
}

/// One query's artefacts from one shard walk (see
/// [`HypeCore::into_shard_outputs`]).
#[derive(Debug)]
pub(crate) struct ShardQueryOutput {
    /// Number of context placeholder vertices at the front of `cans`.
    pub context_vertices: u32,
    /// The shard arena: context placeholders, then the subtree's vertices
    /// in the same DFS order a sequential walk would have appended them.
    pub cans: Vec<CansVertex>,
    /// The shard's edge pool (context→child and subtree-internal edges).
    pub edges: Vec<(u32, u32)>,
    /// Visit and filter-evaluation counters of the subtree only.
    pub stats: HypeStats,
    /// Wildcard-accumulator row for the real context frame.
    pub acc_any: Vec<u64>,
    /// Per-label-slot accumulator rows for the real context frame.
    pub acc: Vec<u64>,
}

/// One query's context block from the main core of a parallel run (see
/// [`HypeCore::into_context_parts`]).
#[derive(Debug)]
pub(crate) struct ContextBlock {
    /// The context vertices (ids `0..k`, shared with every shard arena).
    pub cans: Vec<CansVertex>,
    /// The context's ε edges.
    pub edges: Vec<(u32, u32)>,
    /// The context's own counters (one visit, its filter evaluations).
    pub stats: HypeStats,
    /// The `Init` vertex set.
    pub init: Vec<u32>,
}

/// The compiled evaluation core: a stack machine over `open`/`close` whose
/// drivers are the recursive tree walk ([`crate::batch`]) and the XML event
/// loop ([`crate::stream`]).
pub(crate) struct HypeCore<'a> {
    pub runtimes: Vec<QueryRuntime<'a>>,
    frames: Vec<CoreFrame>,
    free_frames: Vec<CoreFrame>,
    /// Nodes for which a frame was created (each counted once however many
    /// queries are pending there).
    pub physical_visits: usize,
    init_of: Vec<Vec<u32>>,
}

impl<'a> HypeCore<'a> {
    /// A core with one runtime per query of a batch, over `labels`.
    /// The configuration memo is on unless `SMOQE_KERNEL=scalar` selects
    /// the oracle path.
    pub fn for_queries(labels: &LabelInterner, queries: &[CompiledBatchQuery<'a>]) -> Self {
        Self::with_memo(labels, queries, bits::kernel() == bits::Kernel::Wide)
    }

    /// [`Self::for_queries`] with the memo on or off as `memo` says.
    fn with_memo(labels: &LabelInterner, queries: &[CompiledBatchQuery<'a>], memo: bool) -> Self {
        HypeCore {
            runtimes: queries
                .iter()
                .map(|q| QueryRuntime::new(labels, Arc::clone(&q.compiled), q.index, memo))
                .collect(),
            frames: Vec::new(),
            free_frames: Vec::new(),
            physical_visits: 0,
            init_of: vec![Vec::new(); queries.len()],
        }
    }

    /// Number of live frames (for the streaming engine's observability).
    pub fn frame_count(&self) -> usize {
        self.frames.len()
    }

    /// Propagates labels interned after construction to every runtime.
    pub fn extend_labels(&mut self, doc_labels: &LabelInterner) {
        for rt in &mut self.runtimes {
            rt.extend_labels(doc_labels);
        }
    }

    /// Opens `node`: decides per query whether it has work here (pruning
    /// exactly as the interpreted engine does), and if any has, builds the
    /// frame — vertices, ε and parent edges, request closures. Returns
    /// `false` when **every** query prunes the subtree, in which case no
    /// frame exists and the driver must skip the subtree without calling
    /// [`Self::close`].
    ///
    /// Per query, the step from the parent's configuration on the label's
    /// column comes from the query's configuration memo (see the module
    /// docs): a dead step prunes without touching scratch, a memoized one
    /// replays the child's vertex template and the transition's
    /// parent-edge template, and only an uncached one — memo off or full —
    /// runs the per-state row-OR loops. All three push the same vertices
    /// and edges in the same order.
    pub fn open(&mut self, node: NodeId, label: LabelId) -> bool {
        let mut frame = self.free_frames.pop().unwrap_or_default();
        debug_assert!(frame.locals.is_empty());

        if let Some(parent) = self.frames.last() {
            for (pi, pl) in parent.locals.iter().enumerate() {
                let rt = &mut self.runtimes[pl.query as usize];
                let col = rt.cols.col(label);
                let opened = match rt.memo_step(pl.config, col) {
                    Step::Dead => None, // basic pruning, memoized
                    Step::Child { config, transition } => {
                        rt.open_replayed(node, label, &pl.scratch, config, transition)
                    }
                    Step::Uncached => rt.open_fresh(node, label, col, &pl.scratch),
                };
                if let Some((scratch, config)) = opened {
                    frame.locals.push(CoreLocal {
                        query: pl.query,
                        parent_slot: pi as u32,
                        slot: rt.cm.slot_of_label(col).unwrap_or(u32::MAX),
                        config,
                        scratch,
                    });
                }
            }
        } else {
            for (query, rt) in self.runtimes.iter_mut().enumerate() {
                let (scratch, config) = rt.open_context(node);
                frame.locals.push(CoreLocal {
                    query: query as u32,
                    parent_slot: u32::MAX,
                    slot: u32::MAX,
                    config,
                    scratch,
                });
            }
        }

        if frame.locals.is_empty() {
            self.free_frames.push(frame);
            return false;
        }
        self.physical_visits += 1;
        self.frames.push(frame);
        true
    }

    /// Closes the innermost open node: evaluates the pending filter states
    /// bottom-up from the accumulated child values, invalidates `cans`
    /// vertices whose filter failed, and hands this node's values up to the
    /// parent frame's accumulators (or records the `Init` vertices at the
    /// evaluation context).
    pub fn close(&mut self, node_text: Option<&str>) {
        let mut frame = self
            .frames
            .pop()
            .expect("close() without a matching open()");
        for mut local in frame.locals.drain(..) {
            let q = local.query as usize;
            let rt = &mut self.runtimes[q];
            rt.compute_values(node_text, &mut local.scratch);

            // Invalidate vertices whose λ-annotated filter is false here.
            for (k, s) in bits::ones(local.scratch.mstates()).enumerate() {
                if let Some(g) = rt.cm.afa_start_of(s) {
                    if !bits::test(local.scratch.values(), g) {
                        rt.cans[local.scratch.vertex_base as usize + k].valid = false;
                    }
                }
            }

            if local.parent_slot == u32::MAX {
                // Evaluation context: its entry state is the NFA start.
                let start = rt.cm.start();
                debug_assert!(bits::test(local.scratch.mstates(), start));
                self.init_of[q] =
                    vec![local.scratch.vertex_base + bits::rank(local.scratch.mstates(), start)];
            } else {
                let parent = self
                    .frames
                    .last_mut()
                    .expect("non-context frame has a parent");
                let psc = &mut parent.locals[local.parent_slot as usize].scratch;
                bits::or_into(psc.acc_any_mut(), local.scratch.values());
                if local.slot != u32::MAX {
                    bits::or_into(psc.acc_slot_mut(local.slot), local.scratch.values());
                }
            }
            rt.free_local(local.scratch);
        }
        self.free_frames.push(frame);
    }

    // -----------------------------------------------------------------------
    // Shard support for the parallel evaluator (`crate::parallel`).
    //
    // A parallel run opens the evaluation context on the calling thread,
    // snapshots the context frame's per-query state (`context_seeds`), and
    // hands each top-level subtree to a worker that replays the context
    // frame into its own core (`seed_context_frame`), walks the subtree
    // with the exact sequential `open`/`close` logic, and surrenders its
    // per-query artefacts (`into_shard_outputs`). The main thread ORs every
    // shard's accumulator rows back into the real context frame
    // (`absorb_child_values`), closes the context, and merges.
    // -----------------------------------------------------------------------

    /// Snapshots the per-query state of the innermost open frame — the
    /// evaluation context, immediately after [`Self::open`] — for seeding
    /// shard cores. The snapshot is stable: walking children only mutates
    /// the frame's *accumulators*, never its `mstates`/`closure`.
    pub fn context_seeds(&self) -> Vec<ContextSeed> {
        let frame = self.frames.last().expect("context frame is open");
        frame
            .locals
            .iter()
            .map(|l| ContextSeed {
                query: l.query,
                mstates: l.scratch.mstates().to_vec(),
                closure: l.scratch.closure().to_vec(),
            })
            .collect()
    }

    /// The query ids of the innermost open frame's locals, in frame order.
    /// Position `i` in the returned list is the index
    /// [`Self::absorb_child_values`] expects for query `ids[i]` on this
    /// core — the shard re-splitter needs this for *spine* frames, where
    /// pruned queries drop out and frame positions stop matching global
    /// query ids.
    pub fn frame_query_ids(&self) -> Vec<u32> {
        let frame = self.frames.last().expect("a frame is open");
        frame.locals.iter().map(|l| l.query).collect()
    }

    /// Replays a context-frame snapshot into this (fresh) core, pushing one
    /// *placeholder* vertex per pending context state into each query's
    /// `cans` arena so shard-local vertex ids line up with the sequential
    /// numbering (context block first, then the subtree).
    ///
    /// Placeholders are never answer-bearing (`is_final = false` — the main
    /// core's real context vertices report the context node) and never
    /// invalidated (the shard never closes the context); the context ε
    /// edges, λ triggers, visit statistics and physical-visit count all
    /// stay with the main core, so nothing is double-counted.
    pub fn seed_context_frame(&mut self, node: NodeId, seeds: &[ContextSeed]) {
        debug_assert!(self.frames.is_empty(), "seed only a fresh core");
        // A context-frame snapshot covers every query; a *spine*-frame
        // snapshot (shard re-splitting) may cover a subset — queries pruned
        // at the spine node simply have no work in the whole subtree.
        debug_assert!(seeds.len() <= self.runtimes.len());
        debug_assert!(
            seeds.windows(2).all(|w| w[0].query < w[1].query),
            "seeds are in ascending query order"
        );
        let mut frame = self.free_frames.pop().unwrap_or_default();
        for seed in seeds {
            let rt = &mut self.runtimes[seed.query as usize];
            let mut sc = rt.alloc_local();
            sc.mstates_mut().copy_from_slice(&seed.mstates);
            sc.closure_mut().copy_from_slice(&seed.closure);
            // The seed's closure already holds its λ triggers, so interning
            // it as the requests derives the same closure again.
            let config = rt.intern(&sc);
            sc.vertex_base = rt.cans.len() as u32;
            for _ in 0..bits::count(sc.mstates()) {
                rt.cans.push(CansVertex {
                    node,
                    is_final: false,
                    valid: true,
                    edge_head: NO_EDGE,
                });
            }
            frame.locals.push(CoreLocal {
                query: seed.query,
                parent_slot: u32::MAX,
                slot: u32::MAX,
                config,
                scratch: sc,
            });
        }
        self.frames.push(frame);
    }

    /// ORs one shard's context-accumulator contribution for the query at
    /// frame position `query` into the innermost open frame. At the real
    /// context frame, positions coincide with global query ids; at a spine
    /// frame use [`Self::frame_query_ids`] to translate. OR is commutative
    /// and idempotent per bit, so
    /// shard arrival order is irrelevant — the merged rows are bit-identical
    /// to what a sequential walk of all children would have accumulated.
    pub fn absorb_child_values(&mut self, query: usize, acc_any: &[u64], acc: &[u64]) {
        let frame = self.frames.last_mut().expect("context frame is open");
        let sc = &mut frame.locals[query].scratch;
        bits::or_into(sc.acc_any_mut(), acc_any);
        bits::or_into(sc.acc_mut(), acc);
    }

    /// Consumes a shard core after its subtree walk: pops the seeded
    /// context frame and returns each query's shard artefacts — the `cans`
    /// arena (context placeholders first), edge pool, statistics, and the
    /// accumulator rows destined for the real context frame — plus the
    /// shard's physical visit count.
    pub fn into_shard_outputs(mut self) -> (Vec<ShardQueryOutput>, usize) {
        let mut frame = self.frames.pop().expect("seeded context frame is open");
        debug_assert!(self.frames.is_empty(), "subtree walk left frames open");
        // The seeded frame may cover a query subset (spine frames): slot
        // each local by its query id so the outputs stay one-per-runtime.
        let mut locals: Vec<Option<CoreLocal>> = (0..self.runtimes.len()).map(|_| None).collect();
        for local in frame.locals.drain(..) {
            let q = local.query as usize;
            debug_assert!(locals[q].is_none());
            locals[q] = Some(local);
        }
        let mut out = Vec::with_capacity(self.runtimes.len());
        for (local, rt) in locals.into_iter().zip(self.runtimes) {
            let aw = rt.cm.afa_words();
            let slots = rt.cm.slot_count() as usize;
            out.push(match local {
                Some(local) => ShardQueryOutput {
                    context_vertices: bits::count(local.scratch.mstates()) as u32,
                    cans: rt.cans,
                    edges: rt.edges,
                    stats: rt.stats,
                    acc_any: local.scratch.acc_any().to_vec(),
                    acc: local.scratch.acc().to_vec(),
                },
                // Query absent from the seeding (pruned at a spine node):
                // nothing was walked for it, so its artefacts are empty and
                // its accumulator rows all-zero.
                None => ShardQueryOutput {
                    context_vertices: 0,
                    cans: rt.cans,
                    edges: rt.edges,
                    stats: rt.stats,
                    acc_any: vec![0; aw],
                    acc: vec![0; slots * aw],
                },
            });
        }
        (out, self.physical_visits)
    }

    /// Consumes the main core of a parallel run after the context closed:
    /// per query, the context-block `cans`/edges/statistics and the `Init`
    /// vertices, plus the context's physical visit count.
    pub fn into_context_parts(self) -> (Vec<ContextBlock>, usize) {
        debug_assert!(self.frames.is_empty(), "context must be closed first");
        let mut blocks = Vec::with_capacity(self.runtimes.len());
        for (query, rt) in self.runtimes.into_iter().enumerate() {
            blocks.push(ContextBlock {
                cans: rt.cans,
                edges: rt.edges,
                stats: rt.stats,
                init: self.init_of[query].clone(),
            });
        }
        (blocks, self.physical_visits)
    }

    /// Consumes the core: collects each query's answers from its `cans` DAG
    /// and finalises statistics. Returns the per-query results plus the
    /// physical and sequential visit counts.
    pub fn into_results(
        self,
        nodes_total: usize,
    ) -> (Vec<crate::engine::HypeResult>, usize, usize) {
        let mut scratch = CollectScratch::new();
        let mut results = Vec::with_capacity(self.runtimes.len());
        let mut sequential_node_visits = 0;
        for (query, rt) in self.runtimes.into_iter().enumerate() {
            let mut found = Vec::new();
            collect_answers(
                &rt.cans,
                &rt.edges,
                &self.init_of[query],
                &mut scratch,
                &mut found,
            );
            let answers = found.into_iter().collect();
            let mut stats = rt.stats;
            stats.nodes_total = nodes_total;
            stats.cans_vertices = rt.cans.len();
            stats.cans_edges = rt.edges.len();
            sequential_node_visits += stats.nodes_visited;
            results.push(crate::engine::HypeResult { answers, stats });
        }
        (results, self.physical_visits, sequential_node_visits)
    }
}

/// Appends an edge to a vertex's linked list in the shared edge pool. A free
/// function over the runtime's `cans`/`edges` fields so callers can hold
/// other `QueryRuntime` borrows (notably `&rt.cm`) across the call.
#[inline]
fn push_edge(cans: &mut [CansVertex], edges: &mut Vec<(u32, u32)>, from_vertex: u32, target: u32) {
    let head = cans[from_vertex as usize].edge_head;
    edges.push((target, head));
    cans[from_vertex as usize].edge_head = (edges.len() - 1) as u32;
}

/// Pushes one `cans` vertex per pending state (ascending, so vertex ids are
/// `vertex_base + rank(state)`) and the within-node ε edges.
fn build_vertices(
    cans: &mut Vec<CansVertex>,
    edges: &mut Vec<(u32, u32)>,
    cm: &CompiledMfa,
    node: NodeId,
    sc: &mut LocalScratch,
) {
    sc.vertex_base = cans.len() as u32;
    for s in bits::ones(sc.mstates()) {
        cans.push(CansVertex {
            node,
            is_final: cm.is_final(s),
            valid: true,
            edge_head: NO_EDGE,
        });
    }
    for (k, s) in bits::ones(sc.mstates()).enumerate() {
        let from = sc.vertex_base + k as u32;
        for &t in cm.eps_targets(s) {
            if bits::test(sc.mstates(), t) {
                let to = sc.vertex_base + bits::rank(sc.mstates(), t);
                push_edge(cans, edges, from, to);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use smoqe_automata::LAZY_DFA_BYTES;
    use smoqe_xml::{XmlTree, XmlTreeBuilder};

    use super::*;
    use crate::batch::walk;
    use crate::engine::HypeResult;
    use crate::testing::ir;

    /// A random tree of `n` nodes below an `r` root: each node hangs below
    /// one of the 32 most recent nodes (so depth grows with `n`), labelled
    /// `a` with probability ½ and otherwise by `other(i)`.
    fn random_tree(n: usize, seed: u64, other: impl Fn(usize) -> String) -> XmlTree {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = XmlTreeBuilder::new();
        let mut nodes = vec![b.root("r")];
        for i in 0..n {
            let recent = nodes.len().min(32);
            let parent = nodes[nodes.len() - 1 - (next() as usize % recent)];
            let label = if next() % 2 == 0 {
                "a".to_owned()
            } else {
                other(i)
            };
            nodes.push(b.child(parent, &label));
        }
        b.finish()
    }

    /// Walks `tree` for `query` with the memo on or off; returns the result
    /// and the memo's (configurations, bytes, full) when it was on.
    fn run(
        tree: &XmlTree,
        query: &Arc<CompiledMfa>,
        memo: bool,
    ) -> (HypeResult, Option<(usize, usize, bool)>) {
        let queries = [CompiledBatchQuery::new(Arc::clone(query))];
        let mut core = HypeCore::with_memo(tree.labels(), &queries, memo);
        walk(&mut core, tree, tree.root());
        let dfa = core.runtimes[0]
            .dfa
            .as_ref()
            .map(|d| (d.configs(), d.bytes(), d.is_full()));
        let (mut results, _, _) = core.into_results(tree.len());
        (results.remove(0), dfa)
    }

    #[test]
    fn exploding_pending_sets_fill_the_memo_to_its_bound_and_no_further() {
        // Each node's configuration is the pattern of `a`s among its last 16
        // ancestors: far more patterns than the memo has room for.
        let query = ir("//a/*/*/*/*/*/*/*/*/*/*/*/*/*/*/*/*");
        let tree = random_tree(30_000, 7, |_| "b".to_owned());
        let (on, dfa) = run(&tree, &query, true);
        let (off, none) = run(&tree, &query, false);
        assert!(none.is_none());
        let (configs, bytes, full) = dfa.expect("memo on");
        assert!(
            full,
            "the memo must hit its bound ({configs} configurations, {bytes} B)"
        );
        assert!(bytes <= LAZY_DFA_BYTES, "{bytes} B over the bound");
        assert!(configs > 64, "{configs} configurations");
        assert!(!on.answers.is_empty());
        assert_eq!(on.answers, off.answers);
        assert_eq!(on.stats, off.stats);

        // The same shape with a thousand distinct non-`a` labels: they all
        // share the unknown column, so the memo holds the same bytes.
        let many = random_tree(30_000, 7, |i| format!("b{}", i % 1000));
        assert!(many.labels().len() > 1000);
        let (on_many, dfa_many) = run(&many, &query, true);
        assert_eq!(dfa_many, Some((configs, bytes, full)));
        assert_eq!(on_many.stats, on.stats);
        assert_eq!(on_many.answers, on.answers);
    }

    #[test]
    fn a_full_memo_still_hands_out_the_configurations_it_holds() {
        // Fill the memo, then open a child on the per-state path: its
        // configuration is one the memo holds, so the child gets that id
        // back and its own children can replay.
        let query = ir("//a/*/*/*/*/*/*/*/*/*/*/*/*/*/*/*/*");
        let tree = random_tree(30_000, 7, |_| "b".to_owned());
        let queries = [CompiledBatchQuery::new(Arc::clone(&query))];
        let mut core = HypeCore::with_memo(tree.labels(), &queries, true);
        walk(&mut core, &tree, tree.root());
        let rt = &mut core.runtimes[0];
        assert!(rt.dfa.as_ref().unwrap().is_full());

        let (context, root) = rt.open_context(tree.root());
        assert_ne!(root, NO_CONFIG, "the context's configuration came first");
        let a = tree.labels().get("a").unwrap();
        let col = rt.cols.col(a);
        let Step::Child { config, .. } = rt.memo_step(root, col) else {
            panic!("the walk memoized the step to `a`");
        };
        let (_, fresh) = rt
            .open_fresh(tree.children(tree.root())[0], a, col, &context)
            .unwrap();
        assert_eq!(fresh, config);
    }

    #[test]
    fn memo_bytes_do_not_depend_on_the_label_count_below_the_bound() {
        // Two documents of one shape, labelled `a`, `b` and either one
        // further label or thousands: the further labels all map to the
        // unknown column, so the memo reaches the same configurations.
        let query = ir("//a[b]/*/*");
        let other = |many: bool| {
            move |i: usize| match (i % 3, many) {
                (0, _) => "b".to_owned(),
                (_, false) => "c".to_owned(),
                (_, true) => format!("c{i}"),
            }
        };
        let few = random_tree(5_000, 11, other(false));
        let many = random_tree(5_000, 11, other(true));
        assert!(many.labels().len() > 1_000);
        let mut memos = Vec::new();
        for tree in [&few, &many] {
            let (on, dfa) = run(tree, &query, true);
            let (off, _) = run(tree, &query, false);
            assert_eq!(on.answers, off.answers);
            assert_eq!(on.stats, off.stats);
            let (configs, bytes, full) = dfa.unwrap();
            assert!(!full && configs > 0 && bytes > 0);
            memos.push((configs, bytes));
        }
        assert_eq!(memos[0], memos[1]);
    }
}
