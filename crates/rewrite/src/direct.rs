//! Direct `Xreg` → `Xreg` rewriting (closure property, Theorems 3.1/3.2 and
//! Corollary 3.3).
//!
//! This rewriter produces an *explicit* regular XPath query over the
//! document instead of an MFA. It exists for two reasons:
//!
//! 1. It is a constructive witness of Theorem 3.2 (`Xreg` is closed under
//!    rewriting for arbitrary views): for every query on the view it
//!    produces an equivalent query on the source, and the differential tests
//!    check it against both the materialize-then-evaluate oracle and the
//!    MFA rewriting.
//! 2. It exhibits the exponential blow-up of Corollary 3.3: rewriting a
//!    Kleene star (or `//`) over the view requires eliminating the view DTD
//!    types one by one (McNaughton–Yamada / state elimination), and the
//!    resulting expression can be exponential in `|Q|` and `|DV|` even for
//!    non-recursive views. The benchmark `fig2_closure` measures exactly
//!    this growth and contrasts it with the `O(|Q||σ||DV|)` MFA size.
//!
//! The dynamic programming follows the paper's `rewr(Q', A)` formulation:
//! for each sub-query and each view element type `A`, we compute a map from
//! *end* view types `B` to a source query that navigates from the origin of
//! an `A`-node to the origins of the `B`-nodes selected by `Q'`.

use std::collections::BTreeMap;

use smoqe_views::ViewDefinition;
use smoqe_xml::ContentModel;
use smoqe_xpath::{expand_on_dtd, Path, Pred};

use crate::mfa_rewrite::RewriteError;

/// The result of a direct rewriting.
#[derive(Debug, Clone)]
pub struct DirectRewriting {
    /// The rewritten query over the document, or `None` when the query
    /// provably selects nothing on any view instance (e.g. it mentions a
    /// label that is not a view element type in a reachable position).
    pub query: Option<Path>,
    /// Size of the rewritten query (`0` when `query` is `None`), the
    /// quantity Corollary 3.3 bounds from below.
    pub size: usize,
}

/// Rewrites `query` on the view into an explicit `Xreg` query on the
/// document (Theorem 3.2). The output may be exponentially large; prefer
/// [`crate::rewrite_to_mfa`] for evaluation.
pub fn rewrite_to_xreg(
    query: &Path,
    view: &ViewDefinition,
) -> Result<DirectRewriting, RewriteError> {
    view.check()
        .map_err(|e| RewriteError::InvalidView(e.to_string()))?;
    let expanded = expand_on_dtd(query, view.view_dtd());
    let rewriter = DirectRewriter { view };
    let map = rewriter.rewrite_path(&expanded, view.view_dtd().root());
    let union = union_of(map.into_values().collect());
    let size = union.as_ref().map(Path::size).unwrap_or(0);
    Ok(DirectRewriting { query: union, size })
}

/// Map from end view-element type to the source path reaching its origins.
type TypedPaths = BTreeMap<String, Path>;

struct DirectRewriter<'a> {
    view: &'a ViewDefinition,
}

impl<'a> DirectRewriter<'a> {
    /// `rewr(Q', A)`: source paths from the origin of an `A`-node to the
    /// origins of the nodes selected by `Q'`, indexed by their view type.
    fn rewrite_path(&self, path: &Path, start_type: &str) -> TypedPaths {
        match path {
            Path::Empty => {
                let mut m = TypedPaths::new();
                m.insert(start_type.to_owned(), Path::Empty);
                m
            }
            Path::Label(b) => {
                let mut m = TypedPaths::new();
                if let Some(annotation) = self.view.normalized_annotation(start_type, b) {
                    m.insert(b.clone(), annotation);
                }
                m
            }
            // The expansion step has removed wildcards and `//`; treat any
            // leftovers as the union over the view alphabet for robustness.
            Path::AnyLabel => {
                let mut m = TypedPaths::new();
                for b in self.child_types(start_type) {
                    if let Some(annotation) = self.view.normalized_annotation(start_type, &b) {
                        insert_union(&mut m, b, annotation);
                    }
                }
                m
            }
            Path::DescendantOrSelf => {
                let star = Path::Star(Box::new(Path::AnyLabel));
                self.rewrite_path(&star, start_type)
            }
            Path::Seq(a, b) => {
                let first = self.rewrite_path(a, start_type);
                let mut out = TypedPaths::new();
                for (mid_type, p1) in first {
                    let second = self.rewrite_path(b, &mid_type);
                    for (end_type, p2) in second {
                        insert_union(&mut out, end_type, seq(p1.clone(), p2));
                    }
                }
                out
            }
            Path::Union(a, b) => {
                let mut out = self.rewrite_path(a, start_type);
                for (t, p) in self.rewrite_path(b, start_type) {
                    insert_union(&mut out, t, p);
                }
                out
            }
            Path::Filter(p, q) => {
                let selected = self.rewrite_path(p, start_type);
                let mut out = TypedPaths::new();
                for (t, pp) in selected {
                    let pred = self.rewrite_pred(q, &t);
                    insert_union(&mut out, t, Path::Filter(Box::new(pp), Box::new(pred)));
                }
                out
            }
            Path::Star(inner) => self.rewrite_star(inner, start_type),
        }
    }

    /// Kleene closure over view types via the McNaughton–Yamada recurrence —
    /// the step whose output is inherently exponential (Corollary 3.3).
    fn rewrite_star(&self, body: &Path, start_type: &str) -> TypedPaths {
        let types: Vec<String> = self
            .view
            .view_dtd()
            .element_types()
            .iter()
            .map(|s| s.to_string())
            .collect();
        let n = types.len();
        let index: BTreeMap<&str, usize> = types
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i))
            .collect();

        // One-step matrix: paths for a single iteration of the body.
        let mut matrix: Vec<Vec<Option<Path>>> = vec![vec![None; n]; n];
        for (i, from) in types.iter().enumerate() {
            for (to, p) in self.rewrite_path(body, from) {
                let j = index[to.as_str()];
                matrix[i][j] = Some(match matrix[i][j].take() {
                    None => p,
                    Some(existing) => existing.or(p),
                });
            }
        }

        // McNaughton–Yamada elimination: after processing k, matrix[i][j]
        // holds all non-empty iteration sequences whose intermediate types
        // are among the first k types.
        for k in 0..n {
            let through_k_star = matrix[k][k].clone().map(|p| p.star());
            let row_k: Vec<Option<Path>> = matrix[k].clone();
            let col_k: Vec<Option<Path>> = matrix.iter().map(|row| row[k].clone()).collect();
            for i in 0..n {
                for j in 0..n {
                    if let (Some(ik), Some(kj)) = (&col_k[i], &row_k[j]) {
                        let mut through = ik.clone();
                        if let Some(star) = &through_k_star {
                            through = seq(through, star.clone());
                        }
                        through = seq(through, kj.clone());
                        matrix[i][j] = Some(match matrix[i][j].take() {
                            None => through,
                            Some(existing) => existing.or(through),
                        });
                    }
                }
            }
        }

        let mut out = TypedPaths::new();
        // Zero iterations: stay on the start type with ε.
        out.insert(start_type.to_owned(), Path::Empty);
        if let Some(&start_idx) = index.get(start_type) {
            for (j, ty) in types.iter().enumerate() {
                if let Some(p) = &matrix[start_idx][j] {
                    insert_union(&mut out, ty.clone(), p.clone());
                }
            }
        }
        out
    }

    /// `rewr` for filters, evaluated at a view node of type `at_type`.
    fn rewrite_pred(&self, pred: &Pred, at_type: &str) -> Pred {
        match pred {
            Pred::Exists(p) => {
                let paths = self.rewrite_path(p, at_type);
                match union_of(paths.into_values().collect()) {
                    Some(u) => Pred::Exists(u),
                    None => never(),
                }
            }
            Pred::TextEq(p, c) => {
                // Only view types that carry PCDATA can satisfy a text test.
                let paths = self.rewrite_path(p, at_type);
                let text_typed: Vec<Path> = paths
                    .into_iter()
                    .filter(|(t, _)| {
                        matches!(self.view.view_dtd().production(t), Some(ContentModel::Text))
                    })
                    .map(|(_, p)| p)
                    .collect();
                match union_of(text_typed) {
                    Some(u) => Pred::TextEq(u, c.clone()),
                    None => never(),
                }
            }
            Pred::Not(q) => Pred::Not(Box::new(self.rewrite_pred(q, at_type))),
            Pred::And(a, b) => Pred::And(
                Box::new(self.rewrite_pred(a, at_type)),
                Box::new(self.rewrite_pred(b, at_type)),
            ),
            Pred::Or(a, b) => Pred::Or(
                Box::new(self.rewrite_pred(a, at_type)),
                Box::new(self.rewrite_pred(b, at_type)),
            ),
        }
    }

    fn child_types(&self, ty: &str) -> Vec<String> {
        self.view
            .view_dtd()
            .production(ty)
            .map(|m| m.child_types().iter().map(|s| s.to_string()).collect())
            .unwrap_or_default()
    }
}

/// `a/b` with the trivial simplifications `ε/p = p` and `p/ε = p`, which keep
/// the measured expression sizes honest (no artificial padding).
fn seq(a: Path, b: Path) -> Path {
    match (a, b) {
        (Path::Empty, b) => b,
        (a, Path::Empty) => a,
        (a, b) => Path::Seq(Box::new(a), Box::new(b)),
    }
}

/// Inserts `path` for `ty`, unioning with any path already recorded there.
fn insert_union(map: &mut TypedPaths, ty: String, path: Path) {
    match map.remove(&ty) {
        None => {
            map.insert(ty, path);
        }
        Some(existing) => {
            map.insert(ty, existing.or(path));
        }
    }
}

/// The union of a list of paths, `None` when the list is empty.
fn union_of(paths: Vec<Path>) -> Option<Path> {
    let mut iter = paths.into_iter();
    let first = iter.next()?;
    Some(iter.fold(first, |acc, p| acc.or(p)))
}

/// A predicate that never holds: `not(ε)` — `ε` always selects the context
/// node, so its negation is identically false.
fn never() -> Pred {
    Pred::Not(Box::new(Pred::Exists(Path::Empty)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_views::{hospital_view, materialize};
    use smoqe_xml::hospital::HEART_DISEASE;
    use smoqe_xml::{NodeId, XmlTree, XmlTreeBuilder};
    use smoqe_xpath::{evaluate, parse_path};
    use std::collections::BTreeSet;

    fn hospital_document() -> XmlTree {
        // Reuse a compact document: two heart-disease patients, one ancestor
        // chain, one sibling, one non-matching patient.
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology");
        let alice = add_patient(&mut b, dept, "Alice", Some(HEART_DISEASE));
        let par = b.child(alice, "parent");
        let mona = add_patient(&mut b, par, "Mona", Some(HEART_DISEASE));
        let sib = b.child(alice, "sibling");
        add_patient(&mut b, sib, "Sid", Some(HEART_DISEASE));
        let _ = mona;
        add_patient(&mut b, dept, "Carol", Some("flu"));
        b.finish()
    }

    fn add_patient(
        b: &mut XmlTreeBuilder,
        under: NodeId,
        name: &str,
        diagnosis: Option<&str>,
    ) -> NodeId {
        let p = b.child(under, "patient");
        b.child_with_text(p, "pname", name);
        let addr = b.child(p, "address");
        b.child_with_text(addr, "street", "s");
        b.child_with_text(addr, "city", "c");
        b.child_with_text(addr, "zip", "z");
        if let Some(d) = diagnosis {
            let visit = b.child(p, "visit");
            b.child_with_text(visit, "date", "2006-01-01");
            let t = b.child(visit, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "type", "tablet");
            b.child_with_text(m, "diagnosis", d);
        }
        p
    }

    fn oracle(query: &str, doc: &XmlTree) -> BTreeSet<NodeId> {
        let view = hospital_view();
        let m = materialize(&view, doc).unwrap();
        let q = parse_path(query).unwrap();
        m.origins_of(&evaluate(&m.tree, m.tree.root(), &q))
    }

    fn direct(query: &str, doc: &XmlTree) -> BTreeSet<NodeId> {
        let view = hospital_view();
        let q = parse_path(query).unwrap();
        let rewritten = rewrite_to_xreg(&q, &view).unwrap();
        match rewritten.query {
            None => BTreeSet::new(),
            Some(qr) => evaluate(doc, doc.root(), &qr),
        }
    }

    fn assert_direct_correct(query: &str) {
        let doc = hospital_document();
        assert_eq!(
            direct(query, &doc),
            oracle(query, &doc),
            "direct rewriting disagrees with the oracle for `{query}`"
        );
    }

    #[test]
    fn child_steps_and_chains() {
        assert_direct_correct("patient");
        assert_direct_correct("patient/record");
        assert_direct_correct("patient/parent/patient");
        assert_direct_correct("patient/record/diagnosis");
    }

    #[test]
    fn filters() {
        assert_direct_correct("patient[record]");
        assert_direct_correct("patient[record/diagnosis/text()='heart disease']");
        assert_direct_correct("patient[not(parent)]");
        assert_direct_correct("patient[parent and record]");
    }

    #[test]
    fn kleene_star_and_descendant() {
        assert_direct_correct("(patient/parent)*/patient");
        assert_direct_correct("//diagnosis");
        assert_direct_correct("patient[*//record/diagnosis/text()='heart disease']");
    }

    #[test]
    fn example_4_1() {
        assert_direct_correct(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        );
    }

    #[test]
    fn queries_outside_the_view_alphabet_are_empty() {
        let view = hospital_view();
        let q = parse_path("doctor").unwrap();
        let r = rewrite_to_xreg(&q, &view).unwrap();
        assert!(r.query.is_none());
        assert_eq!(r.size, 0);
    }

    #[test]
    fn direct_and_mfa_rewritings_agree() {
        use crate::mfa_rewrite::rewrite_to_mfa;
        use smoqe_automata::evaluate_mfa;
        let doc = hospital_document();
        let view = hospital_view();
        for query in [
            "patient",
            "patient/parent/patient/record",
            "(patient/parent)*/patient[record]",
            "patient[*//record/diagnosis/text()='heart disease']",
        ] {
            let q = parse_path(query).unwrap();
            let by_mfa = evaluate_mfa(&doc, &rewrite_to_mfa(&q, &view).unwrap());
            let by_direct = direct(query, &doc);
            assert_eq!(by_mfa, by_direct, "rewriters disagree on `{query}`");
        }
    }

    #[test]
    fn star_rewriting_grows_much_faster_than_mfa() {
        // Corollary 3.3 in miniature: on the recursive hospital view, a query
        // with //-recursion produces a much larger explicit rewriting than
        // the MFA representation, and the gap widens with query size.
        use crate::mfa_rewrite::rewrite_to_mfa;
        let view = hospital_view();
        let small = parse_path("//record").unwrap();
        let large = parse_path("//patient//patient//record").unwrap();
        let small_direct = rewrite_to_xreg(&small, &view).unwrap().size;
        let large_direct = rewrite_to_xreg(&large, &view).unwrap().size;
        let small_mfa = rewrite_to_mfa(&small, &view).unwrap().size();
        let large_mfa = rewrite_to_mfa(&large, &view).unwrap().size();
        let direct_growth = large_direct as f64 / small_direct as f64;
        let mfa_growth = large_mfa as f64 / small_mfa as f64;
        assert!(
            direct_growth > mfa_growth,
            "expected explicit rewriting ({small_direct} -> {large_direct}) to grow faster than MFA ({small_mfa} -> {large_mfa})"
        );
    }
}
