//! Compilation of `Xreg` queries into equivalent MFAs (Theorem 4.1).
//!
//! The construction follows the inductive structure of the query, in the
//! spirit of Thompson's construction for regular expressions:
//!
//! * the **selecting path** of the query becomes the selecting NFA, with
//!   ε-transitions tying together unions, Kleene-star loops and filters;
//! * every **filter** `[q]` becomes an AFA; the state of the NFA reached by
//!   the filtered sub-path is annotated (`λ`) with that AFA;
//! * **nested filters** inside a filter path are folded into the *same* AFA
//!   via an AND operator state, exactly as described for algorithm `rewrite`
//!   in Section 5 ("for nested filters … a single AFA, rather than nested
//!   AFAs"): the node reached by the inner path must satisfy both the inner
//!   filter and the continuation of the outer path.
//!
//! The resulting MFA has size `O(|Q|)` and is equivalent to `Q` on every
//! tree (verified against the reference evaluator by the tests below and by
//! the cross-crate property tests).

use smoqe_xpath::{Path, Pred};

use crate::afa::{AfaId, AfaState, AfaStateId, FinalPredicate};
use crate::mfa::{AfaBuilder, Mfa, MfaBuilder};
use crate::nfa::{StateId, Transition};

/// Compiles a complete `Xreg` query into an equivalent MFA.
///
/// The query may use the XPath-fragment axes `//` and `*`; they compile to
/// wildcard transitions and wildcard loops directly (no DTD is needed when
/// evaluating over the *document* itself — expansion over a DTD is only
/// required when rewriting over a *view*, see `smoqe-rewrite`).
///
/// ```
/// use smoqe_xpath::parse_path;
/// use smoqe_automata::compile_query;
///
/// let q = parse_path("(patient/parent)*/patient[record/diagnosis/text()='x']").unwrap();
/// let mfa = compile_query(&q);
/// assert!(mfa.size() > 0);
/// assert_eq!(mfa.afas().len(), 1);
/// ```
pub fn compile_query(path: &Path) -> Mfa {
    let mut builder = MfaBuilder::new();
    let final_state = builder.new_state();
    builder.set_final(final_state);
    let start = compile_path_into(&mut builder, path, final_state);
    builder.set_start(start);
    builder.finish()
}

/// Compiles `path` into NFA states inside `builder` such that runs starting
/// at the returned state and ending at `cont` spell exactly the node
/// sequences selected by `path`. Exposed for the view-rewriting algorithm,
/// which splices view-annotation queries into a larger automaton.
pub fn compile_path_into(builder: &mut MfaBuilder, path: &Path, cont: StateId) -> StateId {
    match path {
        Path::Empty => cont,
        Path::Label(name) => {
            let label = builder.intern_label(name);
            let s = builder.new_state();
            builder.add_label_transition(s, Transition::Label(label), cont);
            s
        }
        Path::AnyLabel => {
            let s = builder.new_state();
            builder.add_label_transition(s, Transition::Any, cont);
            s
        }
        Path::DescendantOrSelf => {
            // A single looping state: stay (ε to cont) or descend one level.
            let s = builder.new_state();
            builder.add_eps(s, cont);
            builder.add_label_transition(s, Transition::Any, s);
            s
        }
        Path::Seq(a, b) => {
            let mid = compile_path_into(builder, b, cont);
            compile_path_into(builder, a, mid)
        }
        Path::Union(a, b) => {
            let sa = compile_path_into(builder, a, cont);
            let sb = compile_path_into(builder, b, cont);
            let s = builder.new_state();
            builder.add_eps(s, sa);
            builder.add_eps(s, sb);
            s
        }
        Path::Star(inner) => {
            // Loop head: ε to cont (zero iterations) and ε to the body,
            // whose continuation is the loop head again.
            let head = builder.new_state();
            builder.add_eps(head, cont);
            let body = compile_path_into(builder, inner, head);
            builder.add_eps(head, body);
            head
        }
        Path::Filter(p, q) => {
            let afa = compile_filter(builder, q);
            let checked = builder.new_state();
            builder.set_afa(checked, afa);
            builder.add_eps(checked, cont);
            compile_path_into(builder, p, checked)
        }
    }
}

/// Compiles a filter into a fresh AFA registered with `builder`, returning
/// its id. Exposed for the view-rewriting algorithm.
pub fn compile_filter(builder: &mut MfaBuilder, pred: &Pred) -> AfaId {
    let mut afab = AfaBuilder::new();
    let start = compile_pred_states(builder, &mut afab, pred);
    builder.add_afa(afab.finish(start))
}

/// Compiles a predicate into AFA states, returning the state whose value is
/// the predicate's value at the current node. Exposed (like
/// [`compile_path_afa`]) for the view-rewriting algorithm, which splices
/// view-annotation fragments into rewritten AFAs.
pub fn compile_pred_states(
    builder: &mut MfaBuilder,
    afab: &mut AfaBuilder,
    pred: &Pred,
) -> AfaStateId {
    match pred {
        Pred::Exists(p) => {
            let fin = afab.add(AfaState::Final(FinalPredicate::True));
            compile_path_afa(builder, afab, p, fin)
        }
        Pred::TextEq(p, value) => {
            let fin = afab.add(AfaState::Final(FinalPredicate::TextEq(value.clone())));
            compile_path_afa(builder, afab, p, fin)
        }
        Pred::Not(q) => {
            let inner = compile_pred_states(builder, afab, q);
            afab.add(AfaState::Not(inner))
        }
        Pred::And(a, b) => {
            let sa = compile_pred_states(builder, afab, a);
            let sb = compile_pred_states(builder, afab, b);
            afab.add(AfaState::And(vec![sa, sb]))
        }
        Pred::Or(a, b) => {
            let sa = compile_pred_states(builder, afab, a);
            let sb = compile_pred_states(builder, afab, b);
            afab.add(AfaState::Or(vec![sa, sb]))
        }
    }
}

/// Compiles a path occurring *inside a filter* into AFA states: the returned
/// state is true at a node iff some node reachable via the path makes `cont`
/// true there.
pub fn compile_path_afa(
    builder: &mut MfaBuilder,
    afab: &mut AfaBuilder,
    path: &Path,
    cont: AfaStateId,
) -> AfaStateId {
    match path {
        Path::Empty => cont,
        Path::Label(name) => {
            let label = builder.intern_label(name);
            afab.add(AfaState::Trans(Transition::Label(label), cont))
        }
        Path::AnyLabel => afab.add(AfaState::Trans(Transition::Any, cont)),
        Path::DescendantOrSelf => {
            let head = afab.placeholder();
            let descend = afab.add(AfaState::Trans(Transition::Any, head));
            afab.patch(head, AfaState::Or(vec![cont, descend]));
            head
        }
        Path::Seq(a, b) => {
            let mid = compile_path_afa(builder, afab, b, cont);
            compile_path_afa(builder, afab, a, mid)
        }
        Path::Union(a, b) => {
            let sa = compile_path_afa(builder, afab, a, cont);
            let sb = compile_path_afa(builder, afab, b, cont);
            afab.add(AfaState::Or(vec![sa, sb]))
        }
        Path::Star(inner) => {
            let head = afab.placeholder();
            let body = compile_path_afa(builder, afab, inner, head);
            afab.patch(head, AfaState::Or(vec![cont, body]));
            head
        }
        Path::Filter(p, q) => {
            // The node reached by `p` must satisfy `q` *and* let the rest of
            // the outer path continue: a single AND state folds the nested
            // filter into the same AFA (no nested AFAs, as in the paper).
            let q_state = compile_pred_states(builder, afab, q);
            let and = afab.add(AfaState::And(vec![q_state, cont]));
            compile_path_afa(builder, afab, p, and)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive::evaluate_mfa_at;
    use smoqe_xml::{XmlTree, XmlTreeBuilder};
    use smoqe_xpath::{evaluate, parse_path};
    use std::collections::BTreeSet;

    /// The view-shaped tree of Fig. 4 (hospital / patient / parent …).
    fn fig4_tree() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital"); // node 1
        let p2 = b.child(root, "patient"); // node 2
        let par3 = b.child(p2, "parent"); // 3
        let p4 = b.child(par3, "patient"); // 4
        let par5 = b.child(p4, "parent"); // 5
        let p6 = b.child(par5, "patient"); // 6 (leaf patient)
        let _ = p6;
        let rec_of_4 = b.child(p4, "record"); // under node 4
        b.child_with_text(rec_of_4, "diagnosis", "lung disease");
        let rec7 = b.child(p2, "record"); // 7
        b.child_with_text(rec7, "diagnosis", "lung disease"); // 8
        let p9 = b.child(root, "patient"); // 9
        let par10 = b.child(p9, "parent"); // 10
        let p11 = b.child(par10, "patient"); // 11
        let rec12 = b.child(p11, "record"); // 12
        b.child_with_text(rec12, "diagnosis", "heart disease"); // 13
        let rec14 = b.child(p9, "record"); // 14
        b.child_with_text(rec14, "diagnosis", "brain disease"); // 15
        b.finish()
    }

    /// Asserts that compiling `query` and evaluating the MFA yields exactly
    /// the reference evaluator's answer on `tree`.
    fn assert_equivalent(tree: &XmlTree, query: &str) {
        let q = parse_path(query).unwrap();
        let expected: BTreeSet<_> = evaluate(tree, tree.root(), &q);
        let mfa = compile_query(&q);
        let got = evaluate_mfa_at(tree, tree.root(), &mfa);
        assert_eq!(got, expected, "MFA disagrees with reference on `{query}`");
    }

    #[test]
    fn simple_chain() {
        assert_equivalent(&fig4_tree(), "patient/parent/patient");
    }

    #[test]
    fn union_and_wildcard() {
        assert_equivalent(&fig4_tree(), "patient/(parent | record)");
        assert_equivalent(&fig4_tree(), "patient/*");
    }

    #[test]
    fn kleene_star_selecting_path() {
        assert_equivalent(&fig4_tree(), "(patient/parent)*/patient");
        assert_equivalent(&fig4_tree(), "patient/(parent/patient)*/record");
    }

    #[test]
    fn descendant_axis() {
        assert_equivalent(&fig4_tree(), "//diagnosis");
        assert_equivalent(&fig4_tree(), "patient//record");
    }

    #[test]
    fn simple_filters() {
        assert_equivalent(&fig4_tree(), "patient[record]");
        assert_equivalent(
            &fig4_tree(),
            "patient[record/diagnosis/text()='brain disease']",
        );
        assert_equivalent(&fig4_tree(), "patient[not(parent)]");
    }

    #[test]
    fn example_4_1_query_q0() {
        // Q0 = (patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]
        assert_equivalent(
            &fig4_tree(),
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        );
    }

    #[test]
    fn example_1_1_query() {
        assert_equivalent(
            &fig4_tree(),
            "patient[*//record/diagnosis/text()='heart disease']",
        );
    }

    #[test]
    fn boolean_combinations_in_filters() {
        let t = fig4_tree();
        assert_equivalent(&t, "patient[record and parent]");
        assert_equivalent(&t, "patient[record or parent]");
        assert_equivalent(
            &t,
            "patient[not(record/diagnosis/text()='heart disease') and parent]",
        );
        assert_equivalent(
            &t,
            "(patient/parent)*/patient[record/diagnosis/text()='heart disease' or not(record)]",
        );
    }

    #[test]
    fn nested_filters_fold_into_one_afa() {
        let q = parse_path("patient[parent/patient[record]/record]").unwrap();
        let mfa = compile_query(&q);
        assert_eq!(mfa.afas().len(), 1, "nested filters must share one AFA");
        assert_equivalent(&fig4_tree(), "patient[parent/patient[record]/record]");
    }

    #[test]
    fn filter_inside_kleene_star() {
        assert_equivalent(&fig4_tree(), "(patient/parent[patient])*/patient[record]");
    }

    #[test]
    fn kleene_star_inside_filter() {
        assert_equivalent(
            &fig4_tree(),
            "patient[(parent/patient)*/record/diagnosis/text()='heart disease']",
        );
    }

    #[test]
    fn degenerate_queries() {
        let t = fig4_tree();
        assert_equivalent(&t, ".");
        assert_equivalent(&t, "(.)*");
        assert_equivalent(&t, "patient[.]");
        assert_equivalent(&t, "nosuchlabel");
    }

    #[test]
    fn mfa_size_is_linear_in_query_size() {
        // Chain queries of increasing length: the MFA must grow linearly.
        let mut prev = 0usize;
        for n in [2usize, 4, 8, 16, 32] {
            let labels: Vec<String> = (0..n).map(|i| format!("l{i}")).collect();
            let text = labels.join("/");
            let q = parse_path(&text).unwrap();
            let mfa = compile_query(&q);
            let size = mfa.size();
            assert!(size >= n, "size {size} too small for chain of {n}");
            assert!(size <= 8 * n + 8, "size {size} not linear for chain of {n}");
            assert!(size > prev);
            prev = size;
        }
    }

    #[test]
    fn filters_produce_afa_annotations() {
        let q = parse_path("a[b]/c[d and e]").unwrap();
        let mfa = compile_query(&q);
        assert_eq!(mfa.afas().len(), 2);
        let annotated = mfa.nfa().states().filter(|(_, s)| s.afa.is_some()).count();
        assert_eq!(annotated, 2);
    }
}
