//! Security annotations and automatic derivation of security views.
//!
//! The paper's motivating application (Section 1) is XML access control in
//! the style of its reference \[9\] (Fan, Chan, Garofalakis, *Secure XML
//! querying with security views*): the data owner annotates the **document
//! DTD** with access rules, and a **security view** — a view DTD plus an
//! annotation mapping σ, i.e. exactly a [`ViewDefinition`] — is derived
//! automatically. Users only ever see and query the derived view.
//!
//! A [`SecuritySpec`] annotates each edge `(A, B)` of the document DTD with
//!
//! * [`Access::Allow`] — `B` children are visible below `A`,
//! * [`Access::Deny`] — `B` children (and everything below them that is not
//!   reachable otherwise) are hidden,
//! * [`Access::Conditional`] — `B` children are visible only when a filter
//!   holds at them (e.g. only heart-disease patients).
//!
//! [`derive_view`] turns a specification into a [`ViewDefinition`]:
//! hidden elements are *elided* — their accessible descendants are promoted
//! to the nearest visible ancestor, with the connecting path (which may
//! traverse a *recursive* hidden region, producing a Kleene closure) becoming
//! the annotation query. This is precisely how recursive view definitions
//! like the ones this paper studies arise in practice.

use std::collections::{BTreeMap, BTreeSet};

use smoqe_xml::{Child, ContentModel, Dtd};
use smoqe_xpath::{Path, Pred};

use crate::definition::{ViewDefinition, ViewError};

/// Per-edge access annotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Access {
    /// The child element is visible.
    Allow,
    /// The child element (and its subtree, unless promoted through another
    /// rule) is hidden.
    Deny,
    /// The child element is visible only where the filter holds.
    Conditional(Pred),
}

/// A security specification: the document DTD plus one [`Access`] annotation
/// per edge of its DTD graph. Unannotated edges default to [`Access::Allow`]
/// (the usual "open by default" policy; call [`SecuritySpec::deny_by_default`]
/// for the opposite).
#[derive(Debug, Clone)]
pub struct SecuritySpec {
    dtd: Dtd,
    rules: BTreeMap<(String, String), Access>,
    default: Access,
}

impl SecuritySpec {
    /// Creates a specification over `dtd` with an `Allow` default.
    pub fn new(dtd: Dtd) -> Self {
        SecuritySpec {
            dtd,
            rules: BTreeMap::new(),
            default: Access::Allow,
        }
    }

    /// Switches the default for unannotated edges to `Deny`.
    pub fn deny_by_default(mut self) -> Self {
        self.default = Access::Deny;
        self
    }

    /// The document DTD the specification refers to.
    pub fn document_dtd(&self) -> &Dtd {
        &self.dtd
    }

    /// Annotates the edge `(parent, child)`.
    pub fn annotate(&mut self, parent: &str, child: &str, access: Access) -> &mut Self {
        self.rules
            .insert((parent.to_owned(), child.to_owned()), access);
        self
    }

    /// Convenience: denies every edge *into* `child`, whatever the parent.
    pub fn deny_everywhere(&mut self, child: &str) -> &mut Self {
        let parents: Vec<String> = self
            .dtd
            .element_types()
            .iter()
            .filter(|t| {
                self.dtd
                    .production(t)
                    .map(|m| m.child_types().contains(&child))
                    .unwrap_or(false)
            })
            .map(|t| t.to_string())
            .collect();
        for parent in parents {
            self.annotate(&parent, child, Access::Deny);
        }
        self
    }

    /// The effective access of an edge.
    pub fn access(&self, parent: &str, child: &str) -> Access {
        self.rules
            .get(&(parent.to_owned(), child.to_owned()))
            .cloned()
            .unwrap_or_else(|| self.default.clone())
    }

    /// Checks that every annotated edge actually exists in the DTD.
    pub fn check(&self) -> Result<(), ViewError> {
        self.dtd
            .check_well_formed()
            .map_err(|e| ViewError::BadDtd(e.to_string()))?;
        for (parent, child) in self.rules.keys() {
            let exists = self
                .dtd
                .production(parent)
                .map(|m| m.child_types().contains(&child.as_str()))
                .unwrap_or(false);
            if !exists {
                return Err(ViewError::UnknownEdge {
                    parent: parent.clone(),
                    child: child.clone(),
                });
            }
        }
        Ok(())
    }
}

/// Derives the security view (view DTD + annotation mapping σ) from a
/// specification, following the elide-and-promote semantics described in the
/// module documentation.
///
/// In the derived view every element type keeps its document name, every
/// visible child relation is starred (promotion through hidden regions does
/// not preserve exact multiplicities), text element types stay text, and
/// the annotation `σ(A, B)` is the query navigating — in the document —
/// from an `A` element to the promoted `B` elements, including any filters
/// from [`Access::Conditional`] rules and any Kleene closure needed to cross
/// a recursive hidden region.
pub fn derive_view(spec: &SecuritySpec) -> Result<ViewDefinition, ViewError> {
    spec.check()?;
    let dtd = &spec.dtd;
    let root = dtd.root().to_owned();

    // For every type, precompute its (single-step) children and the access
    // rule of the connecting edge.
    let types: Vec<String> = dtd.element_types().iter().map(|s| s.to_string()).collect();

    // The set of *visible* types and the annotation σ(A, B) for every pair of
    // visible types, discovered by a BFS from the root over visible types.
    let mut visible: BTreeSet<String> = BTreeSet::new();
    visible.insert(root.clone());
    let mut annotations: BTreeMap<(String, String), Path> = BTreeMap::new();
    let mut worklist: Vec<String> = vec![root.clone()];
    let mut processed: BTreeSet<String> = BTreeSet::new();

    while let Some(a) = worklist.pop() {
        if !processed.insert(a.clone()) {
            continue;
        }
        // For the visible type `a`, find every visible type reachable by one
        // visible edge whose intermediate elements are all hidden, and build
        // the corresponding document path.
        for (b, path) in promoted_children(spec, &types, &a) {
            let entry = annotations.entry((a.clone(), b.clone()));
            match entry {
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(path);
                }
                std::collections::btree_map::Entry::Occupied(mut o) => {
                    let existing = o.get().clone();
                    o.insert(existing.or(path));
                }
            }
            if visible.insert(b.clone()) || !processed.contains(&b) {
                worklist.push(b);
            }
        }
    }

    // Build the view DTD over the visible types.
    let mut view_dtd = Dtd::new(&root);
    for ty in &visible {
        let model = match dtd.production(ty) {
            Some(ContentModel::Text) => ContentModel::Text,
            Some(ContentModel::Empty) => ContentModel::Empty,
            _ => {
                let children: Vec<Child> = visible
                    .iter()
                    .filter(|b| annotations.contains_key(&(ty.clone(), (*b).clone())))
                    .map(|b| Child::star(b))
                    .collect();
                if children.is_empty() {
                    ContentModel::Empty
                } else {
                    ContentModel::Sequence(children)
                }
            }
        };
        view_dtd.define(ty, model);
    }

    let mut view = ViewDefinition::new(dtd.clone(), view_dtd);
    for ((a, b), path) in annotations {
        if visible.contains(&a) && visible.contains(&b) {
            view.annotate(&a, &b, path)?;
        }
    }
    view.check()?;
    Ok(view)
}

/// For a visible type `a`, the visible types `b` that become its children in
/// the view, together with the document path from an `a` element to those
/// `b` elements. The path crosses only *hidden* intermediate elements; a
/// recursive hidden region contributes a Kleene closure.
fn promoted_children(spec: &SecuritySpec, types: &[String], a: &str) -> Vec<(String, Path)> {
    // Hidden types reachable from `a` through denied edges form the "hidden
    // region"; paths inside it are closed with McNaughton–Yamada.
    let hidden_region: Vec<String> = types.iter().filter(|t| t.as_str() != a).cloned().collect();
    let n = hidden_region.len();

    // reach[i]: the path (over the document) from `a` to hidden type i using
    // only denied edges, or None.
    let mut reach: Vec<Option<Path>> = vec![None; n];
    // Matrix of one-step denied edges between hidden types.
    let mut step: Vec<Vec<Option<Path>>> = vec![vec![None; n]; n];

    for (i, h) in hidden_region.iter().enumerate() {
        if let Access::Deny = spec.access(a, h) {
            if edge_exists(spec, a, h) {
                reach[i] = Some(Path::label(h));
            }
        }
        for (j, h2) in hidden_region.iter().enumerate() {
            if edge_exists(spec, h, h2) {
                if let Access::Deny = spec.access(h, h2) {
                    step[i][j] = Some(Path::label(h2));
                }
            }
        }
    }

    // Transitive closure of the denied region (McNaughton–Yamada).
    for k in 0..n {
        let through_star = step[k][k].clone().map(|p| p.star());
        let col_k: Vec<Option<Path>> = step.iter().map(|row| row[k].clone()).collect();
        let row_k: Vec<Option<Path>> = step[k].clone();
        for i in 0..n {
            for j in 0..n {
                if let (Some(ik), Some(kj)) = (&col_k[i], &row_k[j]) {
                    let mut through = ik.clone();
                    if let Some(star) = &through_star {
                        through = through.then(star.clone());
                    }
                    through = through.then(kj.clone());
                    step[i][j] = Some(match step[i][j].take() {
                        None => through,
                        Some(existing) => existing.or(through),
                    });
                }
            }
        }
        // Extend `reach` through k as well.
        if let Some(rk) = reach[k].clone() {
            let via = match &through_star {
                Some(star) => rk.then(star.clone()),
                None => rk,
            };
            for j in 0..n {
                if let Some(kj) = &row_k[j] {
                    let through = via.clone().then(kj.clone());
                    reach[j] = Some(match reach[j].take() {
                        None => through,
                        Some(existing) => existing.or(through),
                    });
                }
            }
        }
    }

    // Now collect visible children: either directly below `a`, or below some
    // hidden element reachable from `a`.
    let mut out: BTreeMap<String, Path> = BTreeMap::new();
    let mut add = |target: String, path: Path| match out.remove(&target) {
        None => {
            out.insert(target, path);
        }
        Some(existing) => {
            out.insert(target, existing.or(path));
        }
    };

    for b in types {
        // Direct edge a -> b.
        if edge_exists(spec, a, b) {
            match spec.access(a, b) {
                Access::Allow => add(b.clone(), Path::label(b)),
                Access::Conditional(q) => {
                    add(b.clone(), Path::label(b).filter(q.clone()));
                }
                Access::Deny => {}
            }
        }
        // Promoted: a ->(denied path to hidden h)-> b with (h, b) visible.
        for (i, h) in hidden_region.iter().enumerate() {
            let Some(prefix) = &reach[i] else { continue };
            if !edge_exists(spec, h, b) {
                continue;
            }
            match spec.access(h, b) {
                Access::Allow => add(b.clone(), prefix.clone().then(Path::label(b))),
                Access::Conditional(q) => add(
                    b.clone(),
                    prefix.clone().then(Path::label(b).filter(q.clone())),
                ),
                Access::Deny => {}
            }
        }
    }
    out.into_iter().collect()
}

fn edge_exists(spec: &SecuritySpec, parent: &str, child: &str) -> bool {
    spec.dtd
        .production(parent)
        .map(|m| m.child_types().contains(&child))
        .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize::materialize;
    use smoqe_xml::hospital::{hospital_document_dtd, HEART_DISEASE};
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::{evaluate, parse_path};

    /// The research-institute policy of the paper, expressed as annotations
    /// on the *document* DTD: hide names, addresses, doctors, tests and
    /// siblings; expose only heart-disease patients at the top level.
    fn research_spec() -> SecuritySpec {
        let mut spec = SecuritySpec::new(hospital_document_dtd());
        let condition = Pred::text_eq(
            Path::chain(&["visit", "treatment", "medication", "diagnosis"]),
            HEART_DISEASE,
        );
        spec.annotate("hospital", "department", Access::Deny);
        spec.annotate("department", "patient", Access::Conditional(condition));
        spec.deny_everywhere("pname");
        spec.deny_everywhere("address");
        spec.deny_everywhere("doctor");
        spec.deny_everywhere("sibling");
        spec.deny_everywhere("test");
        // Denying an element does not deny its children (they would be
        // promoted to the nearest visible ancestor), so the policy also
        // denies the leaf types living under the hidden elements.
        for leaf in ["street", "city", "zip", "dname", "specialty", "type"] {
            spec.deny_everywhere(leaf);
        }
        // Visits are elided: their treatments/medications are promoted.
        spec.annotate("patient", "visit", Access::Deny);
        spec.annotate("visit", "treatment", Access::Deny);
        spec.annotate("treatment", "medication", Access::Deny);
        spec.annotate("medication", "type", Access::Deny);
        spec.annotate("visit", "date", Access::Deny);
        spec.annotate("department", "name", Access::Deny);
        spec
    }

    fn sample_document() -> smoqe_xml::XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology");
        for (name, diag) in [("Alice", HEART_DISEASE), ("Carol", "flu")] {
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", name);
            let addr = b.child(p, "address");
            b.child_with_text(addr, "street", "s");
            b.child_with_text(addr, "city", "c");
            b.child_with_text(addr, "zip", "z");
            let v = b.child(p, "visit");
            b.child_with_text(v, "date", "2006-01-01");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "type", "tablet");
            b.child_with_text(m, "diagnosis", diag);
            // Alice has a parent with heart disease, hidden behind a sibling too.
            if name == "Alice" {
                let par = b.child(p, "parent");
                let gp = b.child(par, "patient");
                b.child_with_text(gp, "pname", "Greta");
                let addr = b.child(gp, "address");
                b.child_with_text(addr, "street", "s");
                b.child_with_text(addr, "city", "c");
                b.child_with_text(addr, "zip", "z");
                let v = b.child(gp, "visit");
                b.child_with_text(v, "date", "1980-01-01");
                let t = b.child(v, "treatment");
                let m = b.child(t, "medication");
                b.child_with_text(m, "type", "tablet");
                b.child_with_text(m, "diagnosis", HEART_DISEASE);
            }
        }
        b.finish()
    }

    #[test]
    fn spec_validation_rejects_unknown_edges() {
        let mut spec = SecuritySpec::new(hospital_document_dtd());
        spec.annotate("hospital", "doctor", Access::Deny);
        assert!(matches!(spec.check(), Err(ViewError::UnknownEdge { .. })));
    }

    #[test]
    fn derived_view_hides_denied_types_and_promotes_through_them() {
        let view = derive_view(&research_spec()).unwrap();
        let types: Vec<&str> = view.view_dtd().element_types();
        // Hidden types are gone from the view DTD entirely.
        for hidden in [
            "pname",
            "address",
            "doctor",
            "sibling",
            "test",
            "department",
            "visit",
        ] {
            assert!(!types.contains(&hidden), "{hidden} should be hidden");
        }
        // Promoted types are present.
        for visible in ["hospital", "patient", "parent", "diagnosis"] {
            assert!(types.contains(&visible), "{visible} should be visible");
        }
        // The promotion across the denied department produced the filter on
        // heart-disease patients, so σ(hospital, patient) goes through
        // department and carries the condition.
        let q1 = view.annotation("hospital", "patient").unwrap().to_string();
        assert!(q1.contains("department"));
        assert!(q1.contains("heart disease"));
        // The promotion across visit/treatment/medication landed on diagnosis.
        let q_diag = view.annotation("patient", "diagnosis").unwrap().to_string();
        assert!(q_diag.contains("visit"));
        assert!(q_diag.contains("medication"));
    }

    #[test]
    fn derived_view_is_recursive_like_the_paper_example() {
        let view = derive_view(&research_spec()).unwrap();
        assert!(view.is_recursive(), "patient/parent recursion must survive");
    }

    #[test]
    fn materializing_the_derived_view_exposes_only_permitted_data() {
        let spec = research_spec();
        let view = derive_view(&spec).unwrap();
        let doc = sample_document();
        let m = materialize(&view, &doc).unwrap();
        view.view_dtd().validate(&m.tree).unwrap();
        // Only the heart-disease patient is exposed.
        let patients = evaluate(&m.tree, m.tree.root(), &parse_path("patient").unwrap());
        assert_eq!(patients.len(), 1);
        // No hidden label appears anywhere in the materialized view.
        for hidden in ["pname", "address", "doctor", "street", "test", "date"] {
            assert!(
                m.tree.labels().get(hidden).is_none(),
                "{hidden} leaked into the materialized view"
            );
        }
        // The promoted diagnosis text is visible.
        let diags = evaluate(&m.tree, m.tree.root(), &parse_path("//diagnosis").unwrap());
        assert!(!diags.is_empty());
    }

    #[test]
    fn deny_by_default_specs_expose_nothing_without_rules() {
        let spec = SecuritySpec::new(hospital_document_dtd()).deny_by_default();
        // With everything denied there is nothing visible below the root —
        // every reachable visible type's production is empty, so the view is
        // just the root element. (Promotion finds no Allow edge anywhere.)
        let view = derive_view(&spec).unwrap();
        assert_eq!(view.view_dtd().element_types(), vec!["hospital"]);
        let doc = sample_document();
        let m = materialize(&view, &doc).unwrap();
        assert_eq!(m.tree.len(), 1);
    }

    #[test]
    fn derived_views_compose_with_the_rewriting_pipeline() {
        // The derived view behaves exactly like a hand-written one: queries
        // on it can be rewritten and answered on the source (checked against
        // materialization). This test goes through the public ViewDefinition
        // API only, so it lives here rather than in the rewrite crate.
        let view = derive_view(&research_spec()).unwrap();
        let doc = sample_document();
        let m = materialize(&view, &doc).unwrap();
        let q = parse_path("patient[parent/patient/diagnosis/text()='heart disease']").unwrap();
        let expected = m.origins_of(&evaluate(&m.tree, m.tree.root(), &q));
        assert_eq!(expected.len(), 1, "Alice qualifies through her grandparent");
    }

    #[test]
    fn conditional_access_filters_are_embedded_in_annotations() {
        let mut spec = SecuritySpec::new(hospital_document_dtd());
        spec.annotate(
            "department",
            "patient",
            Access::Conditional(Pred::exists(parse_path("visit").unwrap())),
        );
        let view = derive_view(&spec).unwrap();
        let annotation = view.annotation("department", "patient").unwrap();
        assert!(matches!(annotation, Path::Filter(..)));
    }
}
