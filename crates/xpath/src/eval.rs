//! Specification-level evaluator for (regular) XPath.
//!
//! This evaluator follows the denotational semantics of Section 2.1
//! directly: `v[[Q]]` is the set of nodes reachable from `v` via `Q`.
//! Kleene closure is computed as a reflexive-transitive fix-point.
//!
//! It makes no attempt at being fast — it may traverse subtrees many times
//! (once per filter, and repeatedly inside fix-points) — and serves as the
//! correctness oracle against which the MFA/HyPE pipeline and the baseline
//! evaluators are tested. It is also the building block used to materialize
//! views (σ(T)) in `smoqe-views`.

use std::collections::BTreeSet;

use smoqe_xml::{NodeId, XmlTree};

use crate::ast::{Path, Pred};

/// Evaluates `path` at context node `context` of `tree`, returning the set
/// of selected nodes in document order of their ids.
pub fn evaluate(tree: &XmlTree, context: NodeId, path: &Path) -> BTreeSet<NodeId> {
    let mut start = BTreeSet::new();
    start.insert(context);
    evaluate_from_set(tree, &start, path)
}

/// Evaluates `path` starting from every node of `contexts` and unions the
/// results (the natural lifting of `v[[Q]]` to sets of context nodes).
pub fn evaluate_from_set(
    tree: &XmlTree,
    contexts: &BTreeSet<NodeId>,
    path: &Path,
) -> BTreeSet<NodeId> {
    match path {
        Path::Empty => contexts.clone(),
        Path::Label(name) => {
            let label = tree.labels().get(name);
            let mut out = BTreeSet::new();
            if let Some(label) = label {
                for &ctx in contexts {
                    for &c in tree.children(ctx) {
                        if tree.label(c) == label {
                            out.insert(c);
                        }
                    }
                }
            }
            out
        }
        Path::AnyLabel => {
            let mut out = BTreeSet::new();
            for &ctx in contexts {
                out.extend(tree.children(ctx).iter().copied());
            }
            out
        }
        Path::DescendantOrSelf => {
            let mut out = BTreeSet::new();
            for &ctx in contexts {
                out.extend(tree.descendants_or_self(ctx));
            }
            out
        }
        Path::Seq(a, b) => {
            let mid = evaluate_from_set(tree, contexts, a);
            evaluate_from_set(tree, &mid, b)
        }
        Path::Union(a, b) => {
            let mut out = evaluate_from_set(tree, contexts, a);
            out.extend(evaluate_from_set(tree, contexts, b));
            out
        }
        Path::Star(inner) => {
            // Reflexive-transitive closure: iterate until no new nodes appear.
            let mut reached = contexts.clone();
            let mut frontier = contexts.clone();
            while !frontier.is_empty() {
                let next = evaluate_from_set(tree, &frontier, inner);
                frontier = next.difference(&reached).copied().collect();
                reached.extend(frontier.iter().copied());
            }
            reached
        }
        Path::Filter(p, q) => {
            let selected = evaluate_from_set(tree, contexts, p);
            selected
                .into_iter()
                .filter(|&n| evaluate_pred(tree, n, q))
                .collect()
        }
    }
}

/// Evaluates the filter `pred` at node `node`.
pub fn evaluate_pred(tree: &XmlTree, node: NodeId, pred: &Pred) -> bool {
    match pred {
        Pred::Exists(p) => !evaluate(tree, node, p).is_empty(),
        Pred::TextEq(p, value) => evaluate(tree, node, p)
            .into_iter()
            .any(|n| tree.text(n) == Some(value.as_str())),
        Pred::Not(q) => !evaluate_pred(tree, node, q),
        Pred::And(a, b) => evaluate_pred(tree, node, a) && evaluate_pred(tree, node, b),
        Pred::Or(a, b) => evaluate_pred(tree, node, a) || evaluate_pred(tree, node, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_path;
    use smoqe_xml::XmlTreeBuilder;

    /// A small hospital-view-like tree:
    ///
    /// ```text
    /// hospital
    /// ├── patient (1)                      -- diagnosed: lung disease
    /// │   ├── parent
    /// │   │   └── patient (2)              -- diagnosed: heart disease
    /// │   │       └── record/diagnosis="heart disease"
    /// │   └── record/diagnosis="lung disease"
    /// └── patient (3)                      -- no records
    /// ```
    fn view_like_tree() -> (XmlTree, Vec<NodeId>) {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let p1 = b.child(root, "patient");
        let par = b.child(p1, "parent");
        let p2 = b.child(par, "patient");
        let r2 = b.child(p2, "record");
        b.child_with_text(r2, "diagnosis", "heart disease");
        let r1 = b.child(p1, "record");
        b.child_with_text(r1, "diagnosis", "lung disease");
        let p3 = b.child(root, "patient");
        let tree = b.finish();
        (tree, vec![p1, p2, p3])
    }
    use smoqe_xml::XmlTree;

    #[test]
    fn label_step_selects_children_only() {
        let (t, patients) = view_like_tree();
        let q = parse_path("patient").unwrap();
        let result = evaluate(&t, t.root(), &q);
        assert_eq!(result, BTreeSet::from([patients[0], patients[2]]));
    }

    #[test]
    fn chain_composes() {
        let (t, patients) = view_like_tree();
        let q = parse_path("patient/parent/patient").unwrap();
        let result = evaluate(&t, t.root(), &q);
        assert_eq!(result, BTreeSet::from([patients[1]]));
    }

    #[test]
    fn empty_path_is_identity() {
        let (t, _) = view_like_tree();
        let q = parse_path(".").unwrap();
        assert_eq!(evaluate(&t, t.root(), &q), BTreeSet::from([t.root()]));
    }

    #[test]
    fn union_merges_results() {
        let (t, patients) = view_like_tree();
        let q = parse_path("patient | patient/parent/patient").unwrap();
        let result = evaluate(&t, t.root(), &q);
        assert_eq!(
            result,
            BTreeSet::from([patients[0], patients[1], patients[2]])
        );
    }

    #[test]
    fn star_is_reflexive_and_transitive() {
        let (t, patients) = view_like_tree();
        // (patient/parent)*/patient from the root reaches all patients:
        // 0 iterations -> root, then /patient -> p1,p3; 1 iteration -> p2.
        let q = parse_path("(patient/parent)*/patient").unwrap();
        let result = evaluate(&t, t.root(), &q);
        assert_eq!(
            result,
            BTreeSet::from([patients[0], patients[1], patients[2]])
        );
        // Reflexivity: a star alone includes the context node itself.
        let q2 = parse_path("(patient)*").unwrap();
        assert!(evaluate(&t, t.root(), &q2).contains(&t.root()));
    }

    #[test]
    fn descendant_or_self_reaches_everything() {
        let (t, _) = view_like_tree();
        let q = parse_path("//diagnosis").unwrap();
        let result = evaluate(&t, t.root(), &q);
        assert_eq!(result.len(), 2);
        for n in result {
            assert_eq!(t.label_name(n), "diagnosis");
        }
    }

    #[test]
    fn wildcard_selects_all_children() {
        let (t, _) = view_like_tree();
        let q = parse_path("patient/*").unwrap();
        let result = evaluate(&t, t.root(), &q);
        // children of p1 (parent, record); p3 has none.
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn filter_with_text_equality() {
        let (t, patients) = view_like_tree();
        let q = parse_path("patient[record/diagnosis/text()='lung disease']").unwrap();
        assert_eq!(evaluate(&t, t.root(), &q), BTreeSet::from([patients[0]]));
        let q2 = parse_path("patient[record/diagnosis/text()='heart disease']").unwrap();
        assert!(evaluate(&t, t.root(), &q2).is_empty());
    }

    #[test]
    fn example_4_1_query_selects_descendant_patient_with_heart_disease_ancestorless() {
        let (t, patients) = view_like_tree();
        // Q0: (patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]
        let q = parse_path(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        )
        .unwrap();
        let result = evaluate(&t, t.root(), &q);
        // p1's subtree contains the heart-disease record through parent/patient,
        // and p2's own record matches; p3 has nothing.
        assert_eq!(result, BTreeSet::from([patients[0], patients[1]]));
    }

    #[test]
    fn negation_and_conjunction() {
        let (t, patients) = view_like_tree();
        let q = parse_path("patient[not(record) and not(parent)]").unwrap();
        assert_eq!(evaluate(&t, t.root(), &q), BTreeSet::from([patients[2]]));
        let q2 = parse_path("patient[record or parent]").unwrap();
        assert_eq!(evaluate(&t, t.root(), &q2), BTreeSet::from([patients[0]]));
    }

    #[test]
    fn filter_on_empty_path_tests_context_node_text() {
        let (t, _) = view_like_tree();
        let q = parse_path("//diagnosis[text()='heart disease']").unwrap();
        let result = evaluate(&t, t.root(), &q);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn evaluate_from_non_root_context() {
        let (t, patients) = view_like_tree();
        let q = parse_path("parent/patient").unwrap();
        let from_p1 = evaluate(&t, patients[0], &q);
        assert_eq!(from_p1, BTreeSet::from([patients[1]]));
        let from_p3 = evaluate(&t, patients[2], &q);
        assert!(from_p3.is_empty());
    }

    #[test]
    fn star_of_wildcard_equals_descendant_or_self() {
        let (t, _) = view_like_tree();
        let star = parse_path("(*)*").unwrap();
        let dos = Path::DescendantOrSelf;
        assert_eq!(evaluate(&t, t.root(), &star), evaluate(&t, t.root(), &dos));
    }

    #[test]
    fn missing_label_yields_empty_set() {
        let (t, _) = view_like_tree();
        let q = parse_path("doctor").unwrap();
        assert!(evaluate(&t, t.root(), &q).is_empty());
    }
}
