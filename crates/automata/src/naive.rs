//! Specification-level ("conceptual") evaluation of MFAs.
//!
//! This mirrors the paper's description of how an MFA is evaluated
//! (Example 4.1 and Fig. 4): the selecting NFA walks the tree top-down,
//! associating sets of states with nodes; whenever a state annotated with an
//! AFA is assumed at a node, the AFA is evaluated on the subtree rooted
//! there; a node belongs to the answer iff it is associated with a final
//! state (whose AFA, if any, holds).
//!
//! Like the paper's conceptual evaluation — and unlike HyPE — this may
//! traverse a subtree multiple times (once per pending filter). It exists as
//! a readable, obviously-correct oracle for differential testing of HyPE
//! and of the rewriting algorithm.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use smoqe_xml::{NodeId, XmlTree};

use crate::afa::{Afa, AfaId, AfaState, AfaStateId, FinalPredicate};
use crate::label_map::LabelMap;
use crate::mfa::Mfa;
use crate::nfa::StateId;

/// Evaluates `mfa` at the root of `tree` (the common case `r[[M]]`).
pub fn evaluate_mfa(tree: &XmlTree, mfa: &Mfa) -> BTreeSet<NodeId> {
    evaluate_mfa_at(tree, tree.root(), mfa)
}

/// Evaluates `mfa` at context node `context` of `tree`, returning `n[[M]]`.
pub fn evaluate_mfa_at(tree: &XmlTree, context: NodeId, mfa: &Mfa) -> BTreeSet<NodeId> {
    let label_map = LabelMap::new(mfa, tree.labels());
    let mut afa_cache: HashMap<(AfaId, NodeId), bool> = HashMap::new();

    // Reachability over (node, state) pairs. A pair is *admissible* when the
    // state's AFA (if any) evaluates to true at the node; only admissible
    // pairs may take ε- or label transitions, exactly as in the paper where
    // states whose AFA failed are removed from the candidate-answer graph.
    let mut visited: HashSet<(NodeId, StateId)> = HashSet::new();
    let mut queue: VecDeque<(NodeId, StateId)> = VecDeque::new();
    let mut answers: BTreeSet<NodeId> = BTreeSet::new();

    let start = mfa.nfa().start();
    if admissible(tree, context, start, mfa, &label_map, &mut afa_cache) {
        visited.insert((context, start));
        queue.push_back((context, start));
    }

    while let Some((node, state)) = queue.pop_front() {
        let st = mfa.nfa().state(state);
        if st.is_final {
            answers.insert(node);
        }
        // ε-transitions stay on the same node.
        for &next in &st.eps {
            if !visited.contains(&(node, next))
                && admissible(tree, node, next, mfa, &label_map, &mut afa_cache)
            {
                visited.insert((node, next));
                queue.push_back((node, next));
            }
        }
        // Label transitions move to children.
        for &(transition, target) in &st.trans {
            for &child in tree.children(node) {
                if label_map.matches(transition, tree.label(child))
                    && !visited.contains(&(child, target))
                    && admissible(tree, child, target, mfa, &label_map, &mut afa_cache)
                {
                    visited.insert((child, target));
                    queue.push_back((child, target));
                }
            }
        }
    }
    answers
}

/// A `(node, state)` pair is admissible iff the state's AFA annotation (if
/// any) evaluates to true at the node.
fn admissible(
    tree: &XmlTree,
    node: NodeId,
    state: StateId,
    mfa: &Mfa,
    label_map: &LabelMap,
    cache: &mut HashMap<(AfaId, NodeId), bool>,
) -> bool {
    match mfa.nfa().state(state).afa {
        None => true,
        Some(afa_id) => evaluate_afa(tree, node, mfa.afa(afa_id), afa_id, label_map, cache),
    }
}

/// Evaluates one AFA at `node`, with memoization across calls.
pub fn evaluate_afa(
    tree: &XmlTree,
    node: NodeId,
    afa: &Afa,
    afa_id: AfaId,
    label_map: &LabelMap,
    cache: &mut HashMap<(AfaId, NodeId), bool>,
) -> bool {
    if let Some(&v) = cache.get(&(afa_id, node)) {
        return v;
    }
    let mut in_progress = HashSet::new();
    let v = afa_value(tree, node, afa, afa.start(), label_map, &mut in_progress);
    cache.insert((afa_id, node), v);
    v
}

/// The Boolean variable `X(node, state)` of the paper, computed recursively.
///
/// ε-cycles between operator states (possible only for degenerate queries
/// such as `(.)*` inside a filter) are broken by treating a revisited
/// `(node, state)` pair as `false` — the least fix-point, which is the
/// correct semantics for the reflexive closure.
fn afa_value(
    tree: &XmlTree,
    node: NodeId,
    afa: &Afa,
    state: AfaStateId,
    label_map: &LabelMap,
    in_progress: &mut HashSet<(NodeId, AfaStateId)>,
) -> bool {
    if !in_progress.insert((node, state)) {
        return false;
    }
    let result = match afa.state(state) {
        AfaState::Final(pred) => match pred {
            FinalPredicate::True => true,
            FinalPredicate::False => false,
            FinalPredicate::TextEq(value) => tree.text(node) == Some(value.as_str()),
        },
        AfaState::Not(inner) => !afa_value(tree, node, afa, *inner, label_map, in_progress),
        AfaState::And(children) => children
            .iter()
            .all(|&c| afa_value(tree, node, afa, c, label_map, in_progress)),
        AfaState::Or(children) => children
            .iter()
            .any(|&c| afa_value(tree, node, afa, c, label_map, in_progress)),
        AfaState::Trans(transition, target) => tree.children(node).iter().any(|&child| {
            label_map.matches(*transition, tree.label(child))
                && afa_value(tree, child, afa, *target, label_map, in_progress)
        }),
    };
    in_progress.remove(&(node, state));
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_query;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::parse_path;

    /// The tree of the paper's Fig. 4.
    fn fig4_tree() -> (XmlTree, Vec<NodeId>) {
        let mut b = XmlTreeBuilder::new();
        let n1 = b.root("hospital");
        let n2 = b.child(n1, "patient");
        let n3 = b.child(n2, "parent");
        let n4 = b.child(n3, "patient");
        let n5 = b.child(n4, "parent");
        let n6 = b.child(n5, "patient");
        let rec_a = b.child(n6, "record");
        b.child_with_text(rec_a, "diagnosis", "lung disease");
        let n7 = b.child(n2, "record");
        let n8 = b.child_with_text(n7, "diagnosis", "lung disease");
        let n9 = b.child(n1, "patient");
        let n10 = b.child(n9, "parent");
        let n11 = b.child(n10, "patient");
        let n12 = b.child(n11, "record");
        let n13 = b.child_with_text(n12, "diagnosis", "heart disease");
        let n14 = b.child(n9, "record");
        let n15 = b.child_with_text(n14, "diagnosis", "brain disease");
        let _ = (n5, n8, n13, n15);
        (b.finish(), vec![n1, n2, n4, n6, n9, n11])
    }
    use smoqe_xml::XmlTree;

    #[test]
    fn fig4_evaluation_of_q0_selects_nodes_9_and_11() {
        // Q0 finds patients having an ancestor-or-self chain to a heart
        // disease record: in Fig. 4 these are nodes 9 and 11 (our n9, n11).
        let (tree, nodes) = fig4_tree();
        let q = parse_path(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        )
        .unwrap();
        let mfa = compile_query(&q);
        let result = evaluate_mfa(&tree, &mfa);
        let expected: BTreeSet<_> = [nodes[4], nodes[5]].into_iter().collect();
        assert_eq!(result, expected);
    }

    #[test]
    fn afa_memoization_is_consistent() {
        let (tree, _) = fig4_tree();
        let q = parse_path("(patient/parent)*/patient[record]").unwrap();
        let mfa = compile_query(&q);
        let first = evaluate_mfa(&tree, &mfa);
        let second = evaluate_mfa(&tree, &mfa);
        assert_eq!(first, second);
    }

    #[test]
    fn evaluation_from_inner_context_node() {
        let (tree, nodes) = fig4_tree();
        let q = parse_path("parent/patient[record/diagnosis/text()='heart disease']").unwrap();
        let mfa = compile_query(&q);
        // From patient node 9, its child parent/patient (node 11) qualifies.
        let from_n9 = evaluate_mfa_at(&tree, nodes[4], &mfa);
        assert_eq!(from_n9, [nodes[5]].into_iter().collect());
        // From patient node 2 nothing qualifies (descendants have lung disease).
        let from_n2 = evaluate_mfa_at(&tree, nodes[1], &mfa);
        assert!(from_n2.is_empty());
    }

    #[test]
    fn negated_filter_with_afa() {
        let (tree, nodes) = fig4_tree();
        let q = parse_path("patient[not(record/diagnosis/text()='brain disease')]").unwrap();
        let mfa = compile_query(&q);
        let result = evaluate_mfa(&tree, &mfa);
        // n2 has lung disease (passes), n9 has brain disease (fails).
        assert_eq!(result, [nodes[1]].into_iter().collect());
    }

    #[test]
    fn false_final_predicate_never_matches() {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("a");
        b.child_with_text(root, "b", "x");
        let tree = b.finish();

        use crate::mfa::{AfaBuilder, MfaBuilder};
        use crate::nfa::Transition;
        let mut mb = MfaBuilder::new();
        let lb = mb.intern_label("b");
        let s0 = mb.new_state();
        let s1 = mb.new_state();
        mb.add_label_transition(s0, Transition::Label(lb), s1);
        mb.set_final(s1);
        let mut afab = AfaBuilder::new();
        let fin = afab.add(AfaState::Final(FinalPredicate::False));
        let afa = mb.add_afa(afab.finish(fin));
        mb.set_afa(s1, afa);
        mb.set_start(s0);
        let mfa = mb.finish();
        assert!(evaluate_mfa(&tree, &mfa).is_empty());
    }

    #[test]
    fn degenerate_epsilon_star_inside_filter_terminates() {
        let (tree, _) = fig4_tree();
        let q = parse_path("patient[(.)*/record]").unwrap();
        let mfa = compile_query(&q);
        // Must terminate and agree with the reference evaluator.
        let expected = smoqe_xpath::evaluate(&tree, tree.root(), &q);
        assert_eq!(evaluate_mfa(&tree, &mfa), expected);
    }
}
