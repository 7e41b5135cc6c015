//! The interpreted reference engines: HyPE running directly on the builder
//! [`Mfa`].
//!
//! Before the execution-IR refactor these were *the* engines; they now
//! serve as the differential oracle for the compiled engines in
//! [`crate::batch`] and [`crate::stream`]: same traversal, same pruning
//! rules, same `cans` construction — but implemented over the builder
//! representation with `BTreeSet` request closures and per-node
//! `HashMap<(AfaId, AfaStateId), bool>` filter values. The corpus-wide
//! differential suites assert that the compiled engines reproduce these
//! engines' answers **and** [`HypeStats`] bit for bit, in solo, batched and
//! streaming modes; the `compiled` gate of the `speedup_gates` bench
//! measures the speedup of the IR against this baseline.
//!
//! Semantics are frozen: behavioural changes belong in the compiled
//! engines *and* here, or the differential suites lose their meaning.

use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use smoqe_automata::{
    AfaId, AfaState, AfaStateId, FinalPredicate, LabelMap, Mfa, StateId, Transition,
};
use smoqe_xml::stream::{EventSource, XmlEvent};
use smoqe_xml::{LabelId, LabelInterner, NodeId, ParseError, XmlTree};

use crate::batch::{BatchResult, BatchStats};
use crate::engine::{HypeResult, HypeStats};
use crate::index::ReachabilityIndex;
use crate::stream::{StreamResult, StreamStats};

/// One query of an interpreted batch: a builder-representation MFA plus,
/// optionally, its OptHyPE(-C) reachability index. The compiled engines
/// take a [`CompiledBatchQuery`](crate::CompiledBatchQuery) instead.
#[derive(Debug, Clone, Copy)]
pub struct BatchQuery<'a> {
    /// The builder automaton.
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
}

/// Boolean filter variables `X(node, state)` computed at one node.
type AfaValues = HashMap<(AfaId, AfaStateId), bool>;

/// One vertex of a query's candidate-answer DAG `cans`.
#[derive(Debug)]
struct CansVertex {
    node: NodeId,
    is_final: bool,
    valid: bool,
    edges: Vec<u32>,
}

/// Phase 2 of HyPE: traverse `cans` from the initial vertices through valid
/// vertices only, collecting the nodes attached to final states.
fn collect_answers(cans: &[CansVertex], init_vertices: &[u32]) -> BTreeSet<NodeId> {
    let mut answers = BTreeSet::new();
    let mut seen = vec![false; cans.len()];
    let mut stack: Vec<u32> = init_vertices
        .iter()
        .filter(|&&v| cans[v as usize].valid)
        .copied()
        .collect();
    for &v in &stack {
        seen[v as usize] = true;
    }
    while let Some(v) = stack.pop() {
        let vertex = &cans[v as usize];
        if vertex.is_final {
            answers.insert(vertex.node);
        }
        for &next in &vertex.edges {
            if !seen[next as usize] && cans[next as usize].valid {
                seen[next as usize] = true;
                stack.push(next);
            }
        }
    }
    answers
}

/// Everything one query carries through an interpreted traversal.
struct QueryRuntime<'a> {
    mfa: &'a Mfa,
    label_map: LabelMap,
    index: Option<&'a ReachabilityIndex>,
    nfa_accept_below: HashMap<LabelId, Vec<bool>>,
    afa_true_below: HashMap<LabelId, Vec<Vec<bool>>>,
    cans: Vec<CansVertex>,
    stats: HypeStats,
}

impl<'a> QueryRuntime<'a> {
    fn new(doc_labels: &LabelInterner, query: &BatchQuery<'a>) -> Self {
        QueryRuntime {
            mfa: query.mfa,
            label_map: LabelMap::new(query.mfa, doc_labels),
            index: query.index,
            nfa_accept_below: HashMap::new(),
            afa_true_below: HashMap::new(),
            cans: Vec::new(),
            stats: HypeStats::default(),
        }
    }

    fn extend_labels(&mut self, doc_labels: &LabelInterner) {
        self.label_map.extend(self.mfa, doc_labels);
    }

    /// Closes a set of requested filter states under operator-state
    /// successors (AND/OR/NOT ε-moves stay on the same node). Successor
    /// lists are walked by reference — no per-state `Vec` clone.
    fn close_requests(
        &self,
        initial: BTreeSet<(AfaId, AfaStateId)>,
    ) -> BTreeSet<(AfaId, AfaStateId)> {
        let mut worklist: Vec<(AfaId, AfaStateId)> = initial.iter().copied().collect();
        let mut closure = initial;
        while let Some((afa, q)) = worklist.pop() {
            match self.mfa.afa(afa).state(q) {
                AfaState::And(v) | AfaState::Or(v) => {
                    for &s in v {
                        if closure.insert((afa, s)) {
                            worklist.push((afa, s));
                        }
                    }
                }
                AfaState::Not(x) => {
                    if closure.insert((afa, *x)) {
                        worklist.push((afa, *x));
                    }
                }
                AfaState::Trans(..) | AfaState::Final(_) => {}
            }
        }
        closure
    }

    // -- OptHyPE pruning -----------------------------------------------------

    fn can_skip_subtree(
        &mut self,
        child_label: LabelId,
        entry_states: &[StateId],
        requests: &[(AfaId, AfaStateId)],
    ) -> bool {
        let Some(index) = self.index else {
            return false;
        };
        if index.allowed_below(child_label).is_none() {
            return false;
        }
        if !self.nfa_accept_below.contains_key(&child_label) {
            let table = self.compute_nfa_accept_below(child_label);
            self.nfa_accept_below.insert(child_label, table);
        }
        let nfa_table = &self.nfa_accept_below[&child_label];
        let closure = self.mfa.nfa().eps_closure(entry_states);
        if closure.iter().any(|s| nfa_table[s.index()]) {
            return false;
        }
        if requests.is_empty() {
            return true;
        }
        if !self.afa_true_below.contains_key(&child_label) {
            let table = self.compute_afa_true_below(child_label);
            self.afa_true_below.insert(child_label, table);
        }
        let afa_table = &self.afa_true_below[&child_label];
        requests
            .iter()
            .all(|&(afa, q)| !afa_table[afa.index()][q.index()])
    }

    fn transition_allowed_below(&self, t: Transition, allowed: &[u64]) -> bool {
        match t {
            Transition::Any => true,
            Transition::Label(l) => {
                let bit = l as usize;
                allowed
                    .get(bit / 64)
                    .map(|w| w & (1 << (bit % 64)) != 0)
                    .unwrap_or(false)
            }
        }
    }

    fn compute_nfa_accept_below(&self, label: LabelId) -> Vec<bool> {
        let index = self.index.expect("called only with an index");
        let allowed = index
            .allowed_below(label)
            .expect("caller checked the label is known")
            .to_vec();
        let nfa = self.mfa.nfa();
        let mut can = vec![false; nfa.len()];
        for (id, state) in nfa.states() {
            if state.is_final {
                can[id.index()] = true;
            }
        }
        loop {
            let mut changed = false;
            for (id, state) in nfa.states() {
                if can[id.index()] {
                    continue;
                }
                let reach = state.eps.iter().any(|e| can[e.index()])
                    || state.trans.iter().any(|&(t, tgt)| {
                        self.transition_allowed_below(t, &allowed) && can[tgt.index()]
                    });
                if reach {
                    can[id.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        can
    }

    fn compute_afa_true_below(&self, label: LabelId) -> Vec<Vec<bool>> {
        let index = self.index.expect("called only with an index");
        let allowed = index
            .allowed_below(label)
            .expect("caller checked the label is known")
            .to_vec();
        let mut out = Vec::with_capacity(self.mfa.afas().len());
        for afa in self.mfa.afas() {
            let mut maybe = vec![false; afa.len()];
            for (id, state) in afa.states() {
                if matches!(state, AfaState::Final(_) | AfaState::Not(_)) {
                    maybe[id.index()] = true;
                }
            }
            loop {
                let mut changed = false;
                for (id, state) in afa.states() {
                    if maybe[id.index()] {
                        continue;
                    }
                    let reach = match state {
                        AfaState::And(v) | AfaState::Or(v) => v.iter().any(|s| maybe[s.index()]),
                        AfaState::Not(_) | AfaState::Final(_) => true,
                        AfaState::Trans(t, tgt) => {
                            self.transition_allowed_below(*t, &allowed) && maybe[tgt.index()]
                        }
                    };
                    if reach {
                        maybe[id.index()] = true;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            out.push(maybe);
        }
        out
    }

    // -- Bottom-up filter evaluation -----------------------------------------

    fn compute_values(
        &mut self,
        node_text: Option<&str>,
        closure: &BTreeSet<(AfaId, AfaStateId)>,
        child_values: &[(LabelId, AfaValues)],
    ) -> AfaValues {
        let mut memo: AfaValues = HashMap::with_capacity(closure.len());
        for &(afa, q) in closure {
            let mut in_progress = BTreeSet::new();
            self.value_of(node_text, afa, q, child_values, &mut memo, &mut in_progress);
        }
        memo
    }

    fn value_of(
        &mut self,
        node_text: Option<&str>,
        afa: AfaId,
        q: AfaStateId,
        child_values: &[(LabelId, AfaValues)],
        memo: &mut AfaValues,
        in_progress: &mut BTreeSet<(AfaId, AfaStateId)>,
    ) -> bool {
        if let Some(&v) = memo.get(&(afa, q)) {
            return v;
        }
        if !in_progress.insert((afa, q)) {
            // ε-cycle among operator states: the least fix-point is false.
            return false;
        }
        self.stats.afa_values_computed += 1;
        // `mfa` is a shared borrow independent of `self`, so the state can
        // be matched in place (no per-visit `AfaState` clone) while `self`
        // recurses mutably for the statistics counter.
        let mfa: &Mfa = self.mfa;
        let value = match mfa.afa(afa).state(q) {
            AfaState::Final(pred) => match pred {
                FinalPredicate::True => true,
                FinalPredicate::False => false,
                FinalPredicate::TextEq(value) => node_text == Some(value.as_str()),
            },
            AfaState::Not(x) => !self.value_of(node_text, afa, *x, child_values, memo, in_progress),
            AfaState::And(children) => children
                .iter()
                .all(|&c| self.value_of(node_text, afa, c, child_values, memo, in_progress)),
            AfaState::Or(children) => children
                .iter()
                .any(|&c| self.value_of(node_text, afa, c, child_values, memo, in_progress)),
            AfaState::Trans(t, tgt) => child_values.iter().any(|(child_label, values)| {
                self.label_map.matches(*t, *child_label)
                    && values.get(&(afa, *tgt)).copied().unwrap_or(false)
            }),
        };
        in_progress.remove(&(afa, q));
        memo.insert((afa, q), value);
        value
    }
}

// ---------------------------------------------------------------------------
// The interpreted tree traversal (the pre-IR batch engine).
// ---------------------------------------------------------------------------

struct Pending {
    query: usize,
    entry_states: Vec<StateId>,
    requests: Vec<(AfaId, AfaStateId)>,
    parent_vertices: Rc<Vec<(StateId, u32)>>,
}

struct Outcome {
    query: usize,
    values: AfaValues,
    init: Vec<u32>,
}

struct Local {
    query: usize,
    entry_states: Vec<StateId>,
    mstates: Vec<StateId>,
    vertex_of: HashMap<StateId, u32>,
    closure: BTreeSet<(AfaId, AfaStateId)>,
    my_vertices: Rc<Vec<(StateId, u32)>>,
}

/// One open node of the iterative traversal: the per-query state built on
/// entry, the child values accumulated as children complete, and the slots
/// of the parent frame this frame's outcomes are delivered to.
struct VisitFrame {
    node: NodeId,
    locals: Vec<Local>,
    child_values: Vec<Vec<(LabelId, AfaValues)>>,
    children: Vec<NodeId>,
    next_child: usize,
    parent_slots: Vec<usize>,
}

struct BatchEngine<'a> {
    tree: &'a XmlTree,
    runtimes: Vec<QueryRuntime<'a>>,
    physical_visits: usize,
}

impl BatchEngine<'_> {
    /// The interpreted traversal, driven by an explicit frame stack:
    /// document depth is adversarial input and must not overflow the call
    /// stack. Enter/compute order is exactly that of the natural recursion
    /// (node entered, children left to right, values computed bottom-up),
    /// so every statistic is unchanged.
    fn visit(&mut self, node: NodeId, pending: Vec<Pending>) -> Vec<Outcome> {
        let root_frame = self.enter(node, pending, Vec::new());
        let mut stack: Vec<VisitFrame> = vec![root_frame];
        loop {
            let top = stack.last_mut().expect("non-empty until the root closes");
            if top.next_child < top.children.len() {
                let child = top.children[top.next_child];
                top.next_child += 1;
                let child_label = self.tree.label(child);
                let mut child_pending: Vec<Pending> = Vec::new();
                let mut slots: Vec<usize> = Vec::new();
                for (slot, local) in top.locals.iter().enumerate() {
                    let rt = &mut self.runtimes[local.query];
                    let nfa = rt.mfa.nfa();
                    let mut entry_c: Vec<StateId> = Vec::new();
                    for &s in &local.mstates {
                        for &(t, tgt) in &nfa.state(s).trans {
                            if rt.label_map.matches(t, child_label) && !entry_c.contains(&tgt) {
                                entry_c.push(tgt);
                            }
                        }
                    }
                    let mut requests_c: Vec<(AfaId, AfaStateId)> = Vec::new();
                    for &(afa, q) in &local.closure {
                        if let AfaState::Trans(t, tgt) = rt.mfa.afa(afa).state(q) {
                            if rt.label_map.matches(*t, child_label)
                                && !requests_c.contains(&(afa, *tgt))
                            {
                                requests_c.push((afa, *tgt));
                            }
                        }
                    }
                    if entry_c.is_empty() && requests_c.is_empty() {
                        continue;
                    }
                    if rt.can_skip_subtree(child_label, &entry_c, &requests_c) {
                        continue;
                    }
                    child_pending.push(Pending {
                        query: local.query,
                        entry_states: entry_c,
                        requests: requests_c,
                        parent_vertices: Rc::clone(&local.my_vertices),
                    });
                    slots.push(slot);
                }
                if child_pending.is_empty() {
                    continue;
                }
                let frame = self.enter(child, child_pending, slots);
                stack.push(frame);
            } else {
                let frame = stack.pop().expect("just inspected");
                let child_label = self.tree.label(frame.node);
                let outcomes = self.close(frame.node, frame.locals, &frame.child_values);
                match stack.last_mut() {
                    None => return outcomes,
                    Some(parent) => {
                        for (slot, outcome) in frame.parent_slots.iter().copied().zip(outcomes) {
                            debug_assert_eq!(parent.locals[slot].query, outcome.query);
                            parent.child_values[slot].push((child_label, outcome.values));
                        }
                    }
                }
            }
        }
    }

    /// The entry half of a node visit: materialize the per-query CANS
    /// vertices, edges from the parent frame, and the AFA request closure.
    fn enter(
        &mut self,
        node: NodeId,
        pending: Vec<Pending>,
        parent_slots: Vec<usize>,
    ) -> VisitFrame {
        self.physical_visits += 1;
        let node_label = self.tree.label(node);

        let mut locals: Vec<Local> = Vec::with_capacity(pending.len());
        for p in pending {
            let rt = &mut self.runtimes[p.query];
            rt.stats.nodes_visited += 1;
            let nfa = rt.mfa.nfa();
            let mstates = nfa.eps_closure(&p.entry_states);

            let mut vertex_of: HashMap<StateId, u32> = HashMap::with_capacity(mstates.len());
            for &s in &mstates {
                let idx = rt.cans.len() as u32;
                rt.cans.push(CansVertex {
                    node,
                    is_final: nfa.state(s).is_final,
                    valid: true,
                    edges: Vec::new(),
                });
                vertex_of.insert(s, idx);
            }
            for &s in &mstates {
                let from = vertex_of[&s];
                for &t in &nfa.state(s).eps {
                    if let Some(&to) = vertex_of.get(&t) {
                        rt.cans[from as usize].edges.push(to);
                    }
                }
            }
            for &(sp, vp) in p.parent_vertices.iter() {
                for &(t, tgt) in &nfa.state(sp).trans {
                    if rt.label_map.matches(t, node_label) {
                        if let Some(&to) = vertex_of.get(&tgt) {
                            rt.cans[vp as usize].edges.push(to);
                        }
                    }
                }
            }

            let mut request_set: BTreeSet<(AfaId, AfaStateId)> = p.requests.into_iter().collect();
            for &s in &mstates {
                if let Some(afa) = nfa.state(s).afa {
                    request_set.insert((afa, rt.mfa.afa(afa).start()));
                }
            }
            let closure = rt.close_requests(request_set);

            let my_vertices: Rc<Vec<(StateId, u32)>> =
                Rc::new(mstates.iter().map(|&s| (s, vertex_of[&s])).collect());
            locals.push(Local {
                query: p.query,
                entry_states: p.entry_states,
                mstates,
                vertex_of,
                closure,
                my_vertices,
            });
        }

        let children: Vec<NodeId> = self.tree.children(node).to_vec();
        let child_values: Vec<Vec<(LabelId, AfaValues)>> = vec![Vec::new(); locals.len()];
        VisitFrame {
            node,
            locals,
            child_values,
            children,
            next_child: 0,
            parent_slots,
        }
    }

    /// The exit half of a node visit: bottom-up AFA value computation and
    /// CANS vertex invalidation, once every child outcome is in.
    fn close(
        &mut self,
        node: NodeId,
        locals: Vec<Local>,
        child_values: &[Vec<(LabelId, AfaValues)>],
    ) -> Vec<Outcome> {
        let mut outcomes = Vec::with_capacity(locals.len());
        for (slot, local) in locals.into_iter().enumerate() {
            let rt = &mut self.runtimes[local.query];
            let values =
                rt.compute_values(self.tree.text(node), &local.closure, &child_values[slot]);
            for &s in &local.mstates {
                if let Some(afa) = rt.mfa.nfa().state(s).afa {
                    let holds = values
                        .get(&(afa, rt.mfa.afa(afa).start()))
                        .copied()
                        .unwrap_or(false);
                    if !holds {
                        rt.cans[local.vertex_of[&s] as usize].valid = false;
                    }
                }
            }
            let init = local
                .entry_states
                .iter()
                .filter_map(|s| local.vertex_of.get(s).copied())
                .collect();
            outcomes.push(Outcome {
                query: local.query,
                values,
                init,
            });
        }
        outcomes
    }
}

/// Interpreted equivalent of [`crate::evaluate_tree`].
pub fn evaluate_batch_at(tree: &XmlTree, context: NodeId, queries: &[BatchQuery]) -> BatchResult {
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

    let mut engine = BatchEngine {
        tree,
        runtimes: queries
            .iter()
            .map(|q| QueryRuntime::new(tree.labels(), q))
            .collect(),
        physical_visits: 0,
    };
    for rt in &mut engine.runtimes {
        rt.stats.nodes_total = nodes_total;
    }

    let pending = queries
        .iter()
        .enumerate()
        .map(|(query, q)| Pending {
            query,
            entry_states: vec![q.mfa.nfa().start()],
            requests: Vec::new(),
            parent_vertices: Rc::new(Vec::new()),
        })
        .collect();
    let outcomes = engine.visit(context, pending);

    let mut init_of: Vec<Vec<u32>> = vec![Vec::new(); queries.len()];
    for outcome in outcomes {
        init_of[outcome.query] = outcome.init;
    }

    let mut results = Vec::with_capacity(queries.len());
    let mut sequential_node_visits = 0;
    for (query, rt) in engine.runtimes.into_iter().enumerate() {
        let answers = collect_answers(&rt.cans, &init_of[query]);
        let mut stats = rt.stats;
        stats.cans_vertices = rt.cans.len();
        stats.cans_edges = rt.cans.iter().map(|v| v.edges.len()).sum();
        sequential_node_visits += stats.nodes_visited;
        results.push(HypeResult { answers, stats });
    }
    BatchResult {
        results,
        stats: BatchStats {
            queries: queries.len(),
            nodes_total,
            nodes_visited: engine.physical_visits,
            sequential_node_visits,
        },
    }
}

/// Interpreted equivalent of [`crate::evaluate_tree`] at the root.
pub fn evaluate_batch(tree: &XmlTree, queries: &[BatchQuery]) -> BatchResult {
    evaluate_batch_at(tree, tree.root(), queries)
}

/// Interpreted equivalent of a one-query [`crate::evaluate_tree`].
pub fn evaluate_at_with(
    tree: &XmlTree,
    context: NodeId,
    mfa: &Mfa,
    index: Option<&ReachabilityIndex>,
) -> HypeResult {
    let mut batch = evaluate_batch_at(tree, context, &[BatchQuery { mfa, index }]);
    batch.results.pop().expect("one result per batched query")
}

/// Interpreted equivalent of a one-query [`crate::evaluate_tree`] at the
/// root, with plain HyPE.
pub fn evaluate(tree: &XmlTree, mfa: &Mfa) -> HypeResult {
    evaluate_at_with(tree, tree.root(), mfa, None)
}

// ---------------------------------------------------------------------------
// The interpreted stream machine (the pre-IR StreamHype).
// ---------------------------------------------------------------------------

struct StreamLocal {
    query: usize,
    parent_slot: Option<usize>,
    entry_states: Vec<StateId>,
    mstates: Vec<StateId>,
    vertex_of: HashMap<StateId, u32>,
    closure: BTreeSet<(AfaId, AfaStateId)>,
    my_vertices: Rc<Vec<(StateId, u32)>>,
    child_values: Vec<(LabelId, AfaValues)>,
}

struct Frame {
    label: LabelId,
    text: Option<Box<str>>,
    locals: Vec<StreamLocal>,
}

struct PendingWork {
    query: usize,
    parent_slot: Option<usize>,
    entry_states: Vec<StateId>,
    requests: Vec<(AfaId, AfaStateId)>,
    parent_vertices: Rc<Vec<(StateId, u32)>>,
}

struct StreamMachine<'a> {
    runtimes: Vec<QueryRuntime<'a>>,
    labels: LabelInterner,
    known_labels: usize,
    frames: Vec<Frame>,
    skip_depth: usize,
    depth: usize,
    root_done: bool,
    next_preorder: u32,
    init_of: Vec<Vec<u32>>,
    events: usize,
    nodes_total: usize,
    physical_visits: usize,
    peak_depth: usize,
    peak_frames: usize,
}

impl<'a> StreamMachine<'a> {
    fn new(queries: &[BatchQuery<'a>], labels: LabelInterner) -> Self {
        let runtimes: Vec<QueryRuntime> = queries
            .iter()
            .map(|q| QueryRuntime::new(&labels, q))
            .collect();
        StreamMachine {
            known_labels: labels.len(),
            init_of: vec![Vec::new(); runtimes.len()],
            runtimes,
            labels,
            frames: Vec::new(),
            skip_depth: 0,
            depth: 0,
            root_done: false,
            next_preorder: 0,
            events: 0,
            nodes_total: 0,
            physical_visits: 0,
            peak_depth: 0,
            peak_frames: 0,
        }
    }

    fn open(&mut self, name: &str) {
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
            for rt in &mut self.runtimes {
                rt.extend_labels(&self.labels);
            }
        }

        let mut pending: Vec<PendingWork> = Vec::new();
        if let Some(parent) = self.frames.last() {
            for (parent_slot, local) in parent.locals.iter().enumerate() {
                let rt = &mut self.runtimes[local.query];
                let nfa = rt.mfa.nfa();
                let mut entry_c: Vec<StateId> = Vec::new();
                for &s in &local.mstates {
                    for &(t, tgt) in &nfa.state(s).trans {
                        if rt.label_map.matches(t, label) && !entry_c.contains(&tgt) {
                            entry_c.push(tgt);
                        }
                    }
                }
                let mut requests_c: Vec<(AfaId, AfaStateId)> = Vec::new();
                for &(afa, q) in &local.closure {
                    if let AfaState::Trans(t, tgt) = rt.mfa.afa(afa).state(q) {
                        if rt.label_map.matches(*t, label) && !requests_c.contains(&(afa, *tgt)) {
                            requests_c.push((afa, *tgt));
                        }
                    }
                }
                if entry_c.is_empty() && requests_c.is_empty() {
                    continue;
                }
                if rt.can_skip_subtree(label, &entry_c, &requests_c) {
                    continue;
                }
                pending.push(PendingWork {
                    query: local.query,
                    parent_slot: Some(parent_slot),
                    entry_states: entry_c,
                    requests: requests_c,
                    parent_vertices: Rc::clone(&local.my_vertices),
                });
            }
        } else {
            for (query, rt) in self.runtimes.iter().enumerate() {
                pending.push(PendingWork {
                    query,
                    parent_slot: None,
                    entry_states: vec![rt.mfa.nfa().start()],
                    requests: Vec::new(),
                    parent_vertices: Rc::new(Vec::new()),
                });
            }
        }

        if pending.is_empty() {
            self.skip_depth = 1;
            return;
        }
        self.physical_visits += 1;

        let mut locals: Vec<StreamLocal> = Vec::with_capacity(pending.len());
        for work in pending {
            let rt = &mut self.runtimes[work.query];
            rt.stats.nodes_visited += 1;
            let nfa = rt.mfa.nfa();
            let mstates = nfa.eps_closure(&work.entry_states);

            let mut vertex_of = HashMap::with_capacity(mstates.len());
            for &s in &mstates {
                let idx = rt.cans.len() as u32;
                rt.cans.push(CansVertex {
                    node,
                    is_final: nfa.state(s).is_final,
                    valid: true,
                    edges: Vec::new(),
                });
                vertex_of.insert(s, idx);
            }
            for &s in &mstates {
                let from = vertex_of[&s];
                for &t in &nfa.state(s).eps {
                    if let Some(&to) = vertex_of.get(&t) {
                        rt.cans[from as usize].edges.push(to);
                    }
                }
            }
            for &(sp, vp) in work.parent_vertices.iter() {
                for &(t, tgt) in &nfa.state(sp).trans {
                    if rt.label_map.matches(t, label) {
                        if let Some(&to) = vertex_of.get(&tgt) {
                            rt.cans[vp as usize].edges.push(to);
                        }
                    }
                }
            }

            let mut request_set: BTreeSet<(AfaId, AfaStateId)> =
                work.requests.into_iter().collect();
            for &s in &mstates {
                if let Some(afa) = nfa.state(s).afa {
                    request_set.insert((afa, rt.mfa.afa(afa).start()));
                }
            }
            let closure = rt.close_requests(request_set);

            let my_vertices: Rc<Vec<(StateId, u32)>> =
                Rc::new(mstates.iter().map(|&s| (s, vertex_of[&s])).collect());
            locals.push(StreamLocal {
                query: work.query,
                parent_slot: work.parent_slot,
                entry_states: work.entry_states,
                mstates,
                vertex_of,
                closure,
                my_vertices,
                child_values: Vec::new(),
            });
        }

        self.frames.push(Frame {
            label,
            text: None,
            locals,
        });
        self.peak_frames = self.peak_frames.max(self.frames.len());
    }

    fn text(&mut self, text: &str) {
        self.events += 1;
        if self.skip_depth > 0 {
            return;
        }
        if let Some(frame) = self.frames.last_mut() {
            frame.text = Some(text.into());
        }
    }

    fn close(&mut self) {
        self.events += 1;
        assert!(self.depth > 0, "close() with no open element");
        self.depth -= 1;
        if self.skip_depth > 0 {
            self.skip_depth -= 1;
            return;
        }
        let frame = self
            .frames
            .pop()
            .expect("a work frame exists when not skipping");
        for local in frame.locals {
            let rt = &mut self.runtimes[local.query];
            let values =
                rt.compute_values(frame.text.as_deref(), &local.closure, &local.child_values);
            for &s in &local.mstates {
                if let Some(afa) = rt.mfa.nfa().state(s).afa {
                    let holds = values
                        .get(&(afa, rt.mfa.afa(afa).start()))
                        .copied()
                        .unwrap_or(false);
                    if !holds {
                        rt.cans[local.vertex_of[&s] as usize].valid = false;
                    }
                }
            }
            match local.parent_slot {
                Some(parent_slot) => {
                    let parent = self.frames.last_mut().expect("non-root frame has a parent");
                    parent.locals[parent_slot]
                        .child_values
                        .push((frame.label, values));
                }
                None => {
                    self.init_of[local.query] = local
                        .entry_states
                        .iter()
                        .filter_map(|s| local.vertex_of.get(s).copied())
                        .collect();
                }
            }
        }
        if self.depth == 0 {
            self.root_done = true;
        }
    }

    fn finish(self) -> StreamResult {
        assert!(
            self.depth == 0 && self.frames.is_empty(),
            "finish() with {} unbalanced open element(s)",
            self.depth
        );
        let queries = self.runtimes.len();
        let mut results = Vec::with_capacity(queries);
        let mut sequential_node_visits = 0;
        for (query, rt) in self.runtimes.into_iter().enumerate() {
            let answers = collect_answers(&rt.cans, &self.init_of[query]);
            let mut stats = rt.stats;
            stats.nodes_total = self.nodes_total;
            stats.cans_vertices = rt.cans.len();
            stats.cans_edges = rt.cans.iter().map(|v| v.edges.len()).sum();
            sequential_node_visits += stats.nodes_visited;
            results.push(HypeResult { answers, stats });
        }
        StreamResult {
            results,
            stats: StreamStats {
                queries,
                events: self.events,
                nodes_total: self.nodes_total,
                nodes_visited: self.physical_visits,
                sequential_node_visits,
                peak_depth: self.peak_depth,
                peak_frames: self.peak_frames,
            },
        }
    }
}

/// Interpreted equivalent of [`StreamHype`](crate::StreamHype) with a
/// pre-seeded label interner (required when any query carries an index).
pub fn evaluate_stream_batch_with_interner(
    source: &mut impl EventSource,
    queries: &[BatchQuery],
    labels: LabelInterner,
) -> Result<StreamResult, ParseError> {
    let mut machine = StreamMachine::new(queries, labels);
    while let Some(event) = source.next_event()? {
        match event {
            XmlEvent::Open(name) => machine.open(name),
            XmlEvent::Text(text) => machine.text(text),
            XmlEvent::Close => machine.close(),
        }
    }
    Ok(machine.finish())
}

/// Interpreted equivalent of [`StreamHype`](crate::StreamHype) over an
/// empty label interner.
pub fn evaluate_stream_batch(
    source: &mut impl EventSource,
    queries: &[BatchQuery],
) -> Result<StreamResult, ParseError> {
    evaluate_stream_batch_with_interner(source, queries, LabelInterner::new())
}

/// Interpreted equivalent of a one-query [`StreamHype`](crate::StreamHype)
/// run with plain HyPE.
pub fn evaluate_stream(
    source: &mut impl EventSource,
    mfa: &Mfa,
) -> Result<(HypeResult, StreamStats), ParseError> {
    let mut out = evaluate_stream_batch(source, &[BatchQuery::new(mfa)])?;
    let result = out.results.pop().expect("one result per query");
    Ok((result, out.stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_automata::{compile_query, evaluate_mfa_at};
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::parse_path;

    #[test]
    fn interpreted_engine_matches_the_naive_oracle() {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let p = b.child(root, "patient");
        let r = b.child(p, "record");
        b.child_with_text(r, "diagnosis", "heart disease");
        let doc = b.finish();
        for query in [
            "patient",
            "patient/record/diagnosis",
            "patient[record/diagnosis/text()='heart disease']",
            "patient[not(record)]",
        ] {
            let mfa = compile_query(&parse_path(query).unwrap());
            let expected = evaluate_mfa_at(&doc, doc.root(), &mfa);
            assert_eq!(evaluate(&doc, &mfa).answers, expected, "on `{query}`");
        }
    }
}
