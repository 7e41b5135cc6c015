//! The two-phase (bottom-up filters, then top-down selection) baseline.
//!
//! Phase 1 walks the **entire** document bottom-up and computes, for every
//! node and every filter automaton state of the query, the Boolean value
//! `X(node, state)` — regardless of whether the node can ever be reached by
//! the selecting path. This is exactly the behaviour the paper criticises
//! in two-pass engines: "the two-pass XPath evaluation algorithm may have
//! to evaluate filters at nodes in its first phase, although these nodes
//! will not be accessed in its second phase".
//!
//! Phase 2 runs the selecting NFA top-down, reading filter values from the
//! phase-1 table instead of descending again.
//!
//! The asymptotic cost is the same `O(|T|·|M|)` as HyPE, but the constant
//! is larger and — crucially — no subtree is ever skipped, which is what
//! the Fig. 8 comparison measures.

use std::collections::{BTreeSet, HashMap, VecDeque};

use smoqe_automata::{compile_query, AfaState, FinalPredicate, LabelMap, Mfa, StateId};
use smoqe_xml::{NodeId, XmlTree};
use smoqe_xpath::Path;

/// Work counters of a two-pass run, for the benchmark report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TwoPassStats {
    /// Nodes touched by the bottom-up filter phase (always the whole tree).
    pub phase1_nodes: usize,
    /// Boolean filter variables computed in phase 1.
    pub phase1_values: usize,
    /// Nodes touched by the top-down selection phase.
    pub phase2_nodes: usize,
}

/// Evaluates `query` at the root of `tree` with the two-pass baseline.
pub fn evaluate_two_pass(tree: &XmlTree, query: &Path) -> (BTreeSet<NodeId>, TwoPassStats) {
    let mfa = compile_query(query);
    evaluate_two_pass_mfa(tree, &mfa)
}

/// Evaluates an already-compiled MFA with the two-pass baseline.
pub fn evaluate_two_pass_mfa(tree: &XmlTree, mfa: &Mfa) -> (BTreeSet<NodeId>, TwoPassStats) {
    let label_map = LabelMap::new(mfa, tree.labels());
    let mut stats = TwoPassStats::default();

    // ------------------------------------------------------------------
    // Phase 1: bottom-up filter evaluation over the entire document.
    // filter_values[node][afa] — per AFA a vector of state values at node.
    // ------------------------------------------------------------------
    let afa_state_counts: Vec<usize> = mfa.afas().iter().map(|a| a.len()).collect();
    let mut filter_values: Vec<Vec<Vec<bool>>> = vec![Vec::new(); tree.len()];

    // Post-order: children appear before parents when iterating node ids in
    // reverse creation order is NOT guaranteed in general, so compute an
    // explicit post-order.
    let postorder = post_order(tree, tree.root());
    for &node in &postorder {
        stats.phase1_nodes += 1;
        let mut per_afa: Vec<Vec<bool>> = Vec::with_capacity(mfa.afas().len());
        for (afa_idx, afa) in mfa.afas().iter().enumerate() {
            let mut values = vec![false; afa_state_counts[afa_idx]];
            // Evaluate states repeatedly until the fix-point is reached;
            // operator cycles (from degenerate ε-stars) converge to false.
            let mut changed = true;
            while changed {
                changed = false;
                for (sid, state) in afa.states() {
                    let v = match state {
                        AfaState::Final(pred) => match pred {
                            FinalPredicate::True => true,
                            FinalPredicate::False => false,
                            FinalPredicate::TextEq(c) => tree.text(node) == Some(c.as_str()),
                        },
                        AfaState::Not(x) => !values[x.index()],
                        AfaState::And(children) => children.iter().all(|c| values[c.index()]),
                        AfaState::Or(children) => children.iter().any(|c| values[c.index()]),
                        AfaState::Trans(t, tgt) => tree.children(node).iter().any(|&c| {
                            label_map.matches(*t, tree.label(c))
                                && filter_values[c.index()][afa_idx][tgt.index()]
                        }),
                    };
                    if v != values[sid.index()] {
                        values[sid.index()] = v;
                        changed = true;
                        stats.phase1_values += 1;
                    }
                }
            }
            stats.phase1_values += values.len();
            per_afa.push(values);
        }
        filter_values[node.index()] = per_afa;
    }

    // ------------------------------------------------------------------
    // Phase 2: top-down selection with precomputed filter values.
    // ------------------------------------------------------------------
    let nfa = mfa.nfa();
    let mut answers = BTreeSet::new();
    let mut visited: HashMap<(NodeId, StateId), ()> = HashMap::new();
    let mut queue: VecDeque<(NodeId, StateId)> = VecDeque::new();
    let mut touched: BTreeSet<NodeId> = BTreeSet::new();

    let admissible = |node: NodeId, state: StateId| -> bool {
        match nfa.state(state).afa {
            None => true,
            Some(afa) => {
                let afa_start = mfa.afa(afa).start();
                filter_values[node.index()][afa.index()][afa_start.index()]
            }
        }
    };

    let root = tree.root();
    if admissible(root, nfa.start()) {
        visited.insert((root, nfa.start()), ());
        queue.push_back((root, nfa.start()));
    }
    while let Some((node, state)) = queue.pop_front() {
        touched.insert(node);
        let st = nfa.state(state);
        if st.is_final {
            answers.insert(node);
        }
        for &next in &st.eps {
            if !visited.contains_key(&(node, next)) && admissible(node, next) {
                visited.insert((node, next), ());
                queue.push_back((node, next));
            }
        }
        for &(t, tgt) in &st.trans {
            for &child in tree.children(node) {
                if label_map.matches(t, tree.label(child))
                    && !visited.contains_key(&(child, tgt))
                    && admissible(child, tgt)
                {
                    visited.insert((child, tgt), ());
                    queue.push_back((child, tgt));
                }
            }
        }
    }
    stats.phase2_nodes = touched.len();
    (answers, stats)
}

/// Post-order traversal of the subtree rooted at `root`.
fn post_order(tree: &XmlTree, root: NodeId) -> Vec<NodeId> {
    let mut out = Vec::with_capacity(tree.subtree_size(root));
    let mut stack = vec![(root, false)];
    while let Some((node, expanded)) = stack.pop() {
        if expanded {
            out.push(node);
        } else {
            stack.push((node, true));
            for &c in tree.children(node).iter().rev() {
                stack.push((c, false));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::{evaluate, parse_path};

    fn sample_tree() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let d = b.child(root, "department");
        b.child_with_text(d, "name", "Cardiology");
        for (name, diag) in [("Alice", "heart disease"), ("Bob", "flu")] {
            let p = b.child(d, "patient");
            b.child_with_text(p, "pname", name);
            let v = b.child(p, "visit");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "diagnosis", diag);
        }
        b.finish()
    }

    fn assert_matches_reference(query: &str) {
        let tree = sample_tree();
        let q = parse_path(query).unwrap();
        let expected = evaluate(&tree, tree.root(), &q);
        let (got, stats) = evaluate_two_pass(&tree, &q);
        assert_eq!(got, expected, "two-pass differs on `{query}`");
        assert_eq!(
            stats.phase1_nodes,
            tree.len(),
            "phase 1 must touch every node"
        );
    }

    #[test]
    fn agrees_with_reference_on_xpath() {
        assert_matches_reference("department/patient");
        assert_matches_reference(
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']/pname",
        );
        assert_matches_reference("//diagnosis");
        assert_matches_reference("department/patient[not(visit)]");
    }

    #[test]
    fn agrees_with_reference_on_regular_xpath() {
        assert_matches_reference("(department)*/patient");
        assert_matches_reference("department/patient[(visit/treatment)*/medication]");
    }

    #[test]
    fn phase1_always_processes_the_whole_tree() {
        // Even a query that touches almost nothing pays the full phase-1
        // cost — that is the defining property of this baseline.
        let tree = sample_tree();
        let q = parse_path("nosuchlabel[alsonothing]").unwrap();
        let (answers, stats) = evaluate_two_pass(&tree, &q);
        assert!(answers.is_empty());
        assert_eq!(stats.phase1_nodes, tree.len());
        assert!(stats.phase2_nodes <= 1);
    }

    #[test]
    fn queries_without_filters_skip_no_phase1_work_either() {
        let tree = sample_tree();
        let q = parse_path("department/patient/pname").unwrap();
        let (_, stats) = evaluate_two_pass(&tree, &q);
        assert_eq!(stats.phase1_nodes, tree.len());
    }
}
