//! Algorithm `rewrite` (Section 5): query on the view → MFA on the document.
//!
//! ## Construction
//!
//! The query `Q` (expanded to pure `Xreg` over the view DTD's labels) is
//! first compiled into a *view-level* MFA `Mv` whose transitions consume
//! **view** labels. The rewritten MFA over the document is then the
//! *product* of `Mv` with the view definition:
//!
//! * NFA states of the result are pairs `(s, A)` of a view-level NFA state
//!   and a view element type — "`Mv` is in state `s` while standing on a
//!   view node of type `A`";
//! * an ε-transition `s → s'` of `Mv` becomes `(s, A) → (s', A)`;
//! * a label transition `s --B--> s'` of `Mv`, for every edge `(A, B)` of
//!   the view DTD, becomes the automaton fragment compiled from the
//!   annotation `σ(A, B)` (a document-level `Xreg` query), spliced between
//!   `(s, A)` and `(s', B)`;
//! * an AFA annotation `λ(s) = X` of `Mv` becomes, on `(s, A)`, the
//!   rewritten AFA of `X` started at view type `A` — rewritten with the same
//!   product construction at the AFA level, where a `text() = 'c'` final
//!   predicate survives only on view types that can carry text.
//!
//! Every product state is created at most once (memoised on `(s, A)` /
//! `(afa state, A)`), and each one adds at most one copy of one annotation
//! fragment per view-DTD edge, which gives the `O(|Q|·|σ|·|DV|)` size bound
//! of Theorem 5.1 — in sharp contrast with the exponential lower bound for
//! explicit `Xreg` output (Corollary 3.3, `crate::direct`).

use std::collections::HashMap;
use std::fmt;

use smoqe_automata::{
    compile_path_afa, compile_path_into, Afa, AfaBuilder, AfaId, AfaState, AfaStateId,
    FinalPredicate, Mfa, MfaBuilder, StateId, Transition,
};
use smoqe_views::ViewDefinition;
use smoqe_xml::ContentModel;
use smoqe_xpath::{expand_on_dtd, Path};

/// Errors raised by the rewriting algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteError {
    /// The view definition is incomplete or ill-formed.
    InvalidView(String),
}

impl fmt::Display for RewriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteError::InvalidView(msg) => write!(f, "invalid view definition: {msg}"),
        }
    }
}

impl std::error::Error for RewriteError {}

/// Rewrites `query` (posed on `view`'s virtual documents) into an MFA over
/// the underlying document DTD, such that for every document `T` of `D`,
/// evaluating the MFA on `T` yields the same answer — modulo origins — as
/// evaluating `query` on the materialized view `σ(T)`.
///
/// ```
/// use smoqe_views::hospital_view;
/// use smoqe_xpath::parse_path;
/// use smoqe_rewrite::rewrite_to_mfa;
///
/// let view = hospital_view();
/// let q = parse_path("patient[*//record/diagnosis/text()='heart disease']").unwrap();
/// let mfa = rewrite_to_mfa(&q, &view).unwrap();
/// assert!(mfa.size() > 0);
/// ```
pub fn rewrite_to_mfa(query: &Path, view: &ViewDefinition) -> Result<Mfa, RewriteError> {
    view.check()
        .map_err(|e| RewriteError::InvalidView(e.to_string()))?;

    // Step 1: `//` and `*` in the query range over *view* labels.
    let expanded = expand_on_dtd(query, view.view_dtd());

    // Step 2: compile the query into a view-level MFA.
    let view_mfa = smoqe_automata::compile_query(&expanded);

    // Step 3: product construction over (view state, view element type).
    let mut rewriter = Rewriter::new(view, &view_mfa);
    rewriter.build();
    Ok(rewriter.finish())
}

/// Internal state of the product construction.
struct Rewriter<'a> {
    view: &'a ViewDefinition,
    view_mfa: &'a Mfa,
    builder: MfaBuilder,
    /// Memo: (view NFA state, view element type) → document-level NFA state.
    nfa_memo: HashMap<(StateId, String), StateId>,
    /// Memo: (view AFA id, view element type) → document-level AFA id.
    afa_memo: HashMap<(AfaId, String), AfaId>,
    /// Worklist of product NFA states still to be wired up.
    worklist: Vec<(StateId, String, StateId)>,
    /// Normalised annotations, cached: (A, B) → pure-Xreg σ(A,B) over D.
    annotations: HashMap<(String, String), Path>,
}

impl<'a> Rewriter<'a> {
    fn new(view: &'a ViewDefinition, view_mfa: &'a Mfa) -> Self {
        let mut annotations = HashMap::new();
        for ((a, b), _) in view.annotations() {
            let normalized = view
                .normalized_annotation(a, b)
                .expect("annotation exists by construction");
            annotations.insert((a.clone(), b.clone()), normalized);
        }
        Rewriter {
            view,
            view_mfa,
            builder: MfaBuilder::new(),
            nfa_memo: HashMap::new(),
            afa_memo: HashMap::new(),
            worklist: Vec::new(),
            annotations,
        }
    }

    fn build(&mut self) {
        let root_type = self.view.view_dtd().root().to_owned();
        let start = self.product_state(self.view_mfa.nfa().start(), &root_type);
        self.builder.set_start(start);
        while let Some((view_state, view_type, target)) = self.worklist.pop() {
            self.wire_product_state(view_state, &view_type, target);
        }
    }

    fn finish(self) -> Mfa {
        self.builder.finish()
    }

    /// Returns (allocating if needed) the document-level state for the
    /// product `(view_state, view_type)`.
    fn product_state(&mut self, view_state: StateId, view_type: &str) -> StateId {
        if let Some(&s) = self.nfa_memo.get(&(view_state, view_type.to_owned())) {
            return s;
        }
        let s = self.builder.new_state();
        self.nfa_memo.insert((view_state, view_type.to_owned()), s);
        self.worklist.push((view_state, view_type.to_owned(), s));
        s
    }

    /// Fills in finality, AFA annotation and outgoing transitions of one
    /// product state.
    fn wire_product_state(&mut self, view_state: StateId, view_type: &str, target: StateId) {
        let vstate = self.view_mfa.nfa().state(view_state).clone();
        if vstate.is_final {
            self.builder.set_final(target);
        }
        if let Some(view_afa) = vstate.afa {
            let doc_afa = self.rewrite_afa(view_afa, view_type);
            self.builder.set_afa(target, doc_afa);
        }
        // ε-transitions stay on the same view node, hence the same view type.
        for &next in &vstate.eps {
            let next_target = self.product_state(next, view_type);
            self.builder.add_eps(target, next_target);
        }
        // Label transitions consume one view child step: for every child
        // type B of `view_type` matched by the transition, splice the
        // annotation fragment σ(view_type, B).
        for &(transition, next) in &vstate.trans {
            for child_type in self.matching_child_types(view_type, transition) {
                let annotation = self
                    .annotations
                    .get(&(view_type.to_owned(), child_type.clone()))
                    .cloned()
                    .unwrap_or(Path::Empty);
                let cont = self.product_state(next, &child_type);
                let fragment_start = compile_path_into(&mut self.builder, &annotation, cont);
                self.builder.add_eps(target, fragment_start);
            }
        }
    }

    /// The view child types of `view_type` matched by `transition`.
    fn matching_child_types(&self, view_type: &str, transition: Transition) -> Vec<String> {
        let children: Vec<String> = self
            .view
            .view_dtd()
            .production(view_type)
            .map(|m| m.child_types().iter().map(|s| s.to_string()).collect())
            .unwrap_or_default();
        match transition {
            Transition::Any => children,
            Transition::Label(l) => {
                let name = self
                    .view_mfa
                    .labels()
                    .name(smoqe_xml::LabelId(l))
                    .to_owned();
                children.into_iter().filter(|c| *c == name).collect()
            }
        }
    }

    /// Rewrites one view-level AFA for evaluation starting at a view node of
    /// type `start_type`, returning its document-level AFA id.
    fn rewrite_afa(&mut self, view_afa: AfaId, start_type: &str) -> AfaId {
        if let Some(&id) = self.afa_memo.get(&(view_afa, start_type.to_owned())) {
            return id;
        }
        let afa = self.view_mfa.afa(view_afa).clone();
        let rewritten = self.build_product_afa(&afa, start_type);
        let id = self.builder.add_afa(rewritten);
        self.afa_memo.insert((view_afa, start_type.to_owned()), id);
        id
    }

    /// The AFA-level product construction, mirroring the NFA-level one.
    fn build_product_afa(&mut self, afa: &Afa, start_type: &str) -> Afa {
        let mut afab = AfaBuilder::new();
        let mut memo: HashMap<(AfaStateId, String), AfaStateId> = HashMap::new();
        let mut worklist: Vec<(AfaStateId, String, AfaStateId)> = Vec::new();

        let start =
            Self::product_afa_state(&mut afab, &mut memo, &mut worklist, afa.start(), start_type);

        while let Some((view_state, view_type, target)) = worklist.pop() {
            match afa.state(view_state).clone() {
                AfaState::Final(pred) => {
                    let rewritten = self.rewrite_final_predicate(pred, &view_type);
                    afab.patch(target, AfaState::Final(rewritten));
                }
                AfaState::Not(inner) => {
                    let inner_t = Self::product_afa_state(
                        &mut afab,
                        &mut memo,
                        &mut worklist,
                        inner,
                        &view_type,
                    );
                    afab.patch(target, AfaState::Not(inner_t));
                }
                AfaState::And(children) => {
                    let mapped: Vec<AfaStateId> = children
                        .iter()
                        .map(|&c| {
                            Self::product_afa_state(
                                &mut afab,
                                &mut memo,
                                &mut worklist,
                                c,
                                &view_type,
                            )
                        })
                        .collect();
                    afab.patch(target, AfaState::And(mapped));
                }
                AfaState::Or(children) => {
                    let mapped: Vec<AfaStateId> = children
                        .iter()
                        .map(|&c| {
                            Self::product_afa_state(
                                &mut afab,
                                &mut memo,
                                &mut worklist,
                                c,
                                &view_type,
                            )
                        })
                        .collect();
                    afab.patch(target, AfaState::Or(mapped));
                }
                AfaState::Trans(transition, next) => {
                    // One alternative per matching view-DTD edge, each being
                    // the AFA fragment of the corresponding annotation.
                    let mut alternatives = Vec::new();
                    for child_type in self.matching_child_types(&view_type, transition) {
                        let annotation = self
                            .annotations
                            .get(&(view_type.clone(), child_type.clone()))
                            .cloned()
                            .unwrap_or(Path::Empty);
                        let cont = Self::product_afa_state(
                            &mut afab,
                            &mut memo,
                            &mut worklist,
                            next,
                            &child_type,
                        );
                        let fragment =
                            compile_path_afa(&mut self.builder, &mut afab, &annotation, cont);
                        alternatives.push(fragment);
                    }
                    afab.patch(target, AfaState::Or(alternatives));
                }
            }
        }
        afab.finish(start)
    }

    /// Allocates (or reuses) the product AFA state `(view_state, view_type)`.
    fn product_afa_state(
        afab: &mut AfaBuilder,
        memo: &mut HashMap<(AfaStateId, String), AfaStateId>,
        worklist: &mut Vec<(AfaStateId, String, AfaStateId)>,
        view_state: AfaStateId,
        view_type: &str,
    ) -> AfaStateId {
        if let Some(&s) = memo.get(&(view_state, view_type.to_owned())) {
            return s;
        }
        let s = afab.placeholder();
        memo.insert((view_state, view_type.to_owned()), s);
        worklist.push((view_state, view_type.to_owned(), s));
        s
    }

    /// A `text() = 'c'` test on the view only holds on view nodes whose type
    /// carries PCDATA (production `str`); those copy their origin's text, so
    /// the predicate survives unchanged. On any other view type the test can
    /// never hold, regardless of what text the origin happens to carry.
    fn rewrite_final_predicate(&self, pred: FinalPredicate, view_type: &str) -> FinalPredicate {
        match pred {
            FinalPredicate::True => FinalPredicate::True,
            FinalPredicate::False => FinalPredicate::False,
            FinalPredicate::TextEq(value) => {
                let is_text_type = matches!(
                    self.view.view_dtd().production(view_type),
                    Some(ContentModel::Text)
                );
                if is_text_type {
                    FinalPredicate::TextEq(value)
                } else {
                    FinalPredicate::False
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_automata::evaluate_mfa;
    use smoqe_views::{hospital_view, materialize};
    use smoqe_xml::hospital::HEART_DISEASE;
    use smoqe_xml::{NodeId, XmlTree, XmlTreeBuilder};
    use smoqe_xpath::{evaluate, parse_path};
    use std::collections::BTreeSet;

    /// A hospital document exercising every part of σ₀: heart-disease
    /// patients, ancestors with and without heart disease, siblings (hidden),
    /// test visits (empty records) and unrelated patients.
    fn hospital_document() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology");

        let alice = full_patient(&mut b, dept, "Alice", &[("medication", HEART_DISEASE)]);
        let mona = wrap_patient(
            &mut b,
            alice,
            "parent",
            "Mona",
            &[("medication", "lung disease")],
        );
        wrap_patient(
            &mut b,
            mona,
            "parent",
            "Greta",
            &[("medication", HEART_DISEASE)],
        );
        wrap_patient(
            &mut b,
            alice,
            "sibling",
            "Sid",
            &[("medication", HEART_DISEASE)],
        );

        let bob = full_patient(
            &mut b,
            dept,
            "Bob",
            &[("test", ""), ("medication", HEART_DISEASE)],
        );
        wrap_patient(&mut b, bob, "parent", "Pat", &[("test", "")]);

        full_patient(&mut b, dept, "Carol", &[("medication", "flu")]);

        let dept2 = b.child(root, "department");
        b.child_with_text(dept2, "name", "Oncology");
        full_patient(&mut b, dept2, "Dave", &[("medication", HEART_DISEASE)]);
        b.finish()
    }

    fn full_patient(
        b: &mut XmlTreeBuilder,
        dept: NodeId,
        name: &str,
        visits: &[(&str, &str)],
    ) -> NodeId {
        let p = b.child(dept, "patient");
        fill_patient(b, p, name, visits);
        p
    }

    fn wrap_patient(
        b: &mut XmlTreeBuilder,
        under: NodeId,
        wrapper: &str,
        name: &str,
        visits: &[(&str, &str)],
    ) -> NodeId {
        let w = b.child(under, wrapper);
        let p = b.child(w, "patient");
        fill_patient(b, p, name, visits);
        p
    }

    fn fill_patient(b: &mut XmlTreeBuilder, p: NodeId, name: &str, visits: &[(&str, &str)]) {
        b.child_with_text(p, "pname", name);
        let addr = b.child(p, "address");
        b.child_with_text(addr, "street", "1 Infirmary St");
        b.child_with_text(addr, "city", "Edinburgh");
        b.child_with_text(addr, "zip", "EH1");
        for (kind, diagnosis) in visits {
            let visit = b.child(p, "visit");
            b.child_with_text(visit, "date", "2006-05-01");
            let treatment = b.child(visit, "treatment");
            if *kind == "test" {
                let test = b.child(treatment, "test");
                b.child_with_text(test, "type", "ECG");
            } else {
                let m = b.child(treatment, "medication");
                b.child_with_text(m, "type", "tablet");
                b.child_with_text(m, "diagnosis", diagnosis);
            }
        }
    }

    /// The oracle: evaluate `query` on the materialized view and map the
    /// answer back to origin nodes of the source document.
    fn oracle(query: &str, doc: &XmlTree) -> BTreeSet<NodeId> {
        let view = hospital_view();
        let m = materialize(&view, doc).unwrap();
        let q = parse_path(query).unwrap();
        let on_view = evaluate(&m.tree, m.tree.root(), &q);
        m.origins_of(&on_view)
    }

    /// The system under test: rewrite `query` to an MFA over the document and
    /// evaluate it there (with the naive MFA evaluator — HyPE is tested in
    /// its own crate and in the integration suite).
    fn rewritten(query: &str, doc: &XmlTree) -> BTreeSet<NodeId> {
        let view = hospital_view();
        let q = parse_path(query).unwrap();
        let mfa = rewrite_to_mfa(&q, &view).unwrap();
        evaluate_mfa(doc, &mfa)
    }

    fn assert_rewriting_correct(query: &str) {
        let doc = hospital_document();
        assert_eq!(
            rewritten(query, &doc),
            oracle(query, &doc),
            "rewriting disagrees with materialize-then-evaluate for `{query}`"
        );
    }

    #[test]
    fn plain_child_steps() {
        assert_rewriting_correct("patient");
        assert_rewriting_correct("patient/record");
        assert_rewriting_correct("patient/parent/patient");
        assert_rewriting_correct("patient/record/diagnosis");
    }

    #[test]
    fn example_1_1_query() {
        assert_rewriting_correct("patient[*//record/diagnosis/text()='heart disease']");
    }

    #[test]
    fn example_3_1_rewriting_is_equivalent() {
        // Q from Example 1.1 and its hand-written rewriting Q' from Example
        // 3.1 select the same source nodes.
        let doc = hospital_document();
        let view = hospital_view();
        let q_prime = parse_path(&format!(
            "department/patient[visit/treatment/medication/diagnosis/text()='{HEART_DISEASE}']\
             [parent/patient/(parent/patient)*/visit/treatment/medication/diagnosis/text()='{HEART_DISEASE}']"
        ))
        .unwrap();
        let by_hand = evaluate(&doc, doc.root(), &q_prime);
        let q = parse_path(&format!(
            "patient[*//record/diagnosis/text()='{HEART_DISEASE}']"
        ))
        .unwrap();
        let mfa = rewrite_to_mfa(&q, &view).unwrap();
        assert_eq!(evaluate_mfa(&doc, &mfa), by_hand);
    }

    #[test]
    fn example_4_1_regular_xpath_query() {
        assert_rewriting_correct(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        );
    }

    #[test]
    fn kleene_star_outside_filter() {
        assert_rewriting_correct("(patient/parent)*/patient");
        assert_rewriting_correct("patient/(parent/patient)*/record");
    }

    #[test]
    fn filters_with_boolean_connectives() {
        assert_rewriting_correct("patient[record and parent]");
        assert_rewriting_correct("patient[record or parent]");
        assert_rewriting_correct("patient[not(parent)]");
        assert_rewriting_correct(
            "patient[record/diagnosis/text()='heart disease' and not(parent/patient/record)]",
        );
    }

    #[test]
    fn empty_records_and_choice_productions() {
        assert_rewriting_correct("patient/record/empty");
        assert_rewriting_correct("patient[record/empty]");
        assert_rewriting_correct("patient/record[diagnosis]");
    }

    #[test]
    fn descendant_axis_on_the_view() {
        assert_rewriting_correct("//record");
        assert_rewriting_correct("//diagnosis");
        assert_rewriting_correct("patient//patient");
    }

    #[test]
    fn text_test_on_non_text_view_type_is_always_false() {
        // `record` is not a text type in the view DTD, so this filter can
        // never hold on the view even though the underlying visit node might
        // carry text in some other document.
        assert_rewriting_correct("patient[record/text()='anything']");
    }

    #[test]
    fn wildcard_on_view_respects_view_alphabet() {
        assert_rewriting_correct("patient/*");
        assert_rewriting_correct("*/record");
        assert_rewriting_correct("*/*/*");
    }

    #[test]
    fn union_queries() {
        assert_rewriting_correct("patient/record | patient/parent");
        assert_rewriting_correct("patient/(record | parent/patient/record)/diagnosis");
    }

    #[test]
    fn rewritten_mfa_size_is_polynomial() {
        // Theorem 5.1: |M| = O(|Q|·|σ|·|DV|). Check the bound with a generous
        // constant on a family of growing queries.
        let view = hospital_view();
        let sigma = view.size();
        let dv = view.view_dtd().size();
        for n in 1..6usize {
            let q_text = format!("patient{}", "/parent/patient".repeat(n));
            let q = parse_path(&q_text).unwrap();
            let mfa = rewrite_to_mfa(&q, &view).unwrap();
            let bound = 20 * q.size() * sigma * dv;
            assert!(
                mfa.size() <= bound,
                "MFA size {} exceeds O(|Q||σ||DV|) bound {} for n={n}",
                mfa.size(),
                bound
            );
        }
    }

    #[test]
    fn rewriting_rejects_incomplete_views() {
        use smoqe_views::ViewDefinition;
        use smoqe_xml::hospital::{hospital_document_dtd, hospital_view_dtd};
        let view = ViewDefinition::new(hospital_document_dtd(), hospital_view_dtd());
        let q = parse_path("patient").unwrap();
        let err = rewrite_to_mfa(&q, &view).unwrap_err();
        assert!(matches!(err, RewriteError::InvalidView(_)));
    }

    #[test]
    fn query_mentioning_labels_outside_the_view_selects_nothing() {
        // `doctor` is not a view label: the query is legal but empty.
        assert_rewriting_correct("doctor");
        assert_rewriting_correct("patient/doctor");
    }
}
