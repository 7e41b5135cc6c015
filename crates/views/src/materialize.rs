//! Reference view materialization: computing `σ(T)` explicitly.
//!
//! The paper's whole point is to *avoid* materializing views; this module
//! exists (a) as the correctness oracle — `Q(σ(T))` computed naively must
//! equal the rewritten query evaluated on `T` — and (b) as the baseline the
//! benchmarks compare against when measuring the cost of materialization.

use std::collections::BTreeSet;

use smoqe_xml::{ContentModel, NodeId, XmlTree, XmlTreeBuilder};
use smoqe_xpath::evaluate;

use crate::definition::{ViewDefinition, ViewError};

/// Default cap on the number of nodes a materialized view may contain,
/// guarding against non-terminating view definitions.
pub const DEFAULT_NODE_BUDGET: usize = 10_000_000;

/// A materialized view: the view tree plus, for every view node, the source
/// node it originates from.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    /// The view document `σ(T)`.
    pub tree: XmlTree,
    /// `origins[i]` is the source node of view node `i` (indexed by
    /// [`NodeId::index`] of the view tree).
    pub origins: Vec<NodeId>,
}

impl MaterializedView {
    /// The origin (source node) of a view node.
    pub fn origin(&self, view_node: NodeId) -> NodeId {
        self.origins[view_node.index()]
    }

    /// Translates a set of view nodes into their origins in the source
    /// document. Used to compare answers of queries on the view against
    /// answers of rewritten queries on the source.
    pub fn origins_of(&self, view_nodes: &BTreeSet<NodeId>) -> BTreeSet<NodeId> {
        view_nodes.iter().map(|&n| self.origin(n)).collect()
    }
}

/// Materializes `view` over the document `tree` with the default node budget.
pub fn materialize(view: &ViewDefinition, tree: &XmlTree) -> Result<MaterializedView, ViewError> {
    materialize_with_budget(view, tree, DEFAULT_NODE_BUDGET)
}

/// Materializes `view` over `tree`, failing once the view exceeds `budget`
/// nodes.
pub fn materialize_with_budget(
    view: &ViewDefinition,
    tree: &XmlTree,
    budget: usize,
) -> Result<MaterializedView, ViewError> {
    view.check()?;
    let root_type = view.view_dtd().root().to_owned();
    let mut builder = XmlTreeBuilder::new();
    let mut origins: Vec<NodeId> = Vec::new();

    let view_root = builder.root(&root_type);
    origins.push(tree.root());
    copy_text_if_needed(view, tree, &mut builder, view_root, tree.root(), &root_type);

    // Explicit work stack of (view node, view type, origin, ancestor chain of
    // (type, origin) pairs) to detect non-terminating recursion.
    type Frame = (NodeId, String, NodeId, Vec<(String, NodeId)>);
    let mut stack: Vec<Frame> = vec![(
        view_root,
        root_type.clone(),
        tree.root(),
        vec![(root_type, tree.root())],
    )];

    while let Some((view_node, view_type, origin, chain)) = stack.pop() {
        if origins.len() > budget {
            return Err(ViewError::ViewTooLarge { limit: budget });
        }
        let production = view
            .view_dtd()
            .production(&view_type)
            .ok_or_else(|| ViewError::BadDtd(format!("no production for {view_type}")))?
            .clone();
        let child_types: Vec<String> = match production {
            ContentModel::Text | ContentModel::Empty => Vec::new(),
            ContentModel::Sequence(children) => children.into_iter().map(|c| c.ty).collect(),
            ContentModel::Choice(options) => options,
        };
        for child_type in child_types {
            let query = view
                .normalized_annotation(&view_type, &child_type)
                .ok_or_else(|| ViewError::MissingAnnotation {
                    parent: view_type.clone(),
                    child: child_type.clone(),
                })?;
            let selected = evaluate(tree, origin, &query);
            for source_child in selected {
                if chain
                    .iter()
                    .any(|(t, o)| *t == child_type && *o == source_child)
                {
                    return Err(ViewError::NonTerminating {
                        view_type: child_type.clone(),
                    });
                }
                let view_child = builder.child(view_node, &child_type);
                origins.push(source_child);
                copy_text_if_needed(
                    view,
                    tree,
                    &mut builder,
                    view_child,
                    source_child,
                    &child_type,
                );
                let mut child_chain = chain.clone();
                child_chain.push((child_type.clone(), source_child));
                stack.push((view_child, child_type.clone(), source_child, child_chain));
                if origins.len() > budget {
                    return Err(ViewError::ViewTooLarge { limit: budget });
                }
            }
        }
    }

    Ok(MaterializedView {
        tree: builder.finish(),
        origins,
    })
}

/// Text-typed view elements copy the PCDATA of their origin node.
fn copy_text_if_needed(
    view: &ViewDefinition,
    tree: &XmlTree,
    builder: &mut XmlTreeBuilder,
    view_node: NodeId,
    origin: NodeId,
    view_type: &str,
) {
    if matches!(
        view.view_dtd().production(view_type),
        Some(ContentModel::Text)
    ) {
        if let Some(text) = tree.text(origin) {
            builder.set_text(view_node, text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::definition::hospital_view;
    use smoqe_xml::hospital::HEART_DISEASE;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::parse_path;

    /// A small hospital document with two heart-disease patients (one of
    /// which has a grandparent with heart disease) and one unrelated patient.
    fn hospital_document() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology");

        // Patient Alice: heart disease; mother has lung disease; grandmother
        // has heart disease; a sibling (must NOT appear in the view).
        let alice = patient(&mut b, dept, "Alice", Some(HEART_DISEASE));
        let alice_mother = add_parent(&mut b, alice, "Mona", Some("lung disease"));
        add_parent(&mut b, alice_mother, "Greta", Some(HEART_DISEASE));
        add_sibling(&mut b, alice, "Sid", Some(HEART_DISEASE));

        // Patient Bob: heart disease, no family history, one test visit.
        let bob = patient(&mut b, dept, "Bob", Some(HEART_DISEASE));
        add_test_visit(&mut b, bob);

        // Patient Carol: flu only — must not appear in the view at all.
        patient(&mut b, dept, "Carol", Some("flu"));

        b.finish()
    }

    /// Adds a patient with name, address and one medication visit carrying
    /// `diagnosis` (if any).
    fn patient(
        b: &mut XmlTreeBuilder,
        parent_node: NodeId,
        name: &str,
        diagnosis: Option<&str>,
    ) -> NodeId {
        let p = b.child(parent_node, "patient");
        b.child_with_text(p, "pname", name);
        let addr = b.child(p, "address");
        b.child_with_text(addr, "street", "1 Infirmary St");
        b.child_with_text(addr, "city", "Edinburgh");
        b.child_with_text(addr, "zip", "EH1");
        if let Some(d) = diagnosis {
            let visit = b.child(p, "visit");
            b.child_with_text(visit, "date", "2006-05-01");
            let treatment = b.child(visit, "treatment");
            let medication = b.child(treatment, "medication");
            b.child_with_text(medication, "type", "tablet");
            b.child_with_text(medication, "diagnosis", d);
        }
        p
    }

    fn add_parent(
        b: &mut XmlTreeBuilder,
        child_patient: NodeId,
        name: &str,
        diagnosis: Option<&str>,
    ) -> NodeId {
        let par = b.child(child_patient, "parent");
        patient_under(b, par, name, diagnosis)
    }

    fn add_sibling(
        b: &mut XmlTreeBuilder,
        of_patient: NodeId,
        name: &str,
        diagnosis: Option<&str>,
    ) -> NodeId {
        let sib = b.child(of_patient, "sibling");
        patient_under(b, sib, name, diagnosis)
    }

    fn patient_under(
        b: &mut XmlTreeBuilder,
        wrapper: NodeId,
        name: &str,
        diagnosis: Option<&str>,
    ) -> NodeId {
        let p = b.child(wrapper, "patient");
        b.child_with_text(p, "pname", name);
        let addr = b.child(p, "address");
        b.child_with_text(addr, "street", "2 Lauriston Pl");
        b.child_with_text(addr, "city", "Edinburgh");
        b.child_with_text(addr, "zip", "EH3");
        if let Some(d) = diagnosis {
            let visit = b.child(p, "visit");
            b.child_with_text(visit, "date", "1980-02-01");
            let treatment = b.child(visit, "treatment");
            let medication = b.child(treatment, "medication");
            b.child_with_text(medication, "type", "tablet");
            b.child_with_text(medication, "diagnosis", d);
        }
        p
    }

    fn add_test_visit(b: &mut XmlTreeBuilder, patient_node: NodeId) {
        let visit = b.child(patient_node, "visit");
        b.child_with_text(visit, "date", "2006-06-01");
        let treatment = b.child(visit, "treatment");
        let test = b.child(treatment, "test");
        b.child_with_text(test, "type", "ECG");
    }

    #[test]
    fn view_conforms_to_the_view_dtd() {
        let view = hospital_view();
        let doc = hospital_document();
        view.document_dtd().validate(&doc).unwrap();
        let materialized = materialize(&view, &doc).unwrap();
        view.view_dtd().validate(&materialized.tree).unwrap();
    }

    #[test]
    fn only_heart_disease_patients_are_exposed() {
        let view = hospital_view();
        let doc = hospital_document();
        let m = materialize(&view, &doc).unwrap();
        // Top-level view patients: Alice and Bob, not Carol.
        let q = parse_path("patient").unwrap();
        let top = evaluate(&m.tree, m.tree.root(), &q);
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn parent_hierarchy_is_exposed_but_siblings_are_not() {
        let view = hospital_view();
        let doc = hospital_document();
        let m = materialize(&view, &doc).unwrap();
        // Alice's mother and grandmother appear through the parent chain.
        let q = parse_path("patient/parent/patient/parent/patient").unwrap();
        assert_eq!(evaluate(&m.tree, m.tree.root(), &q).len(), 1);
        // No node in the view originates from a sibling's subtree: the view
        // tree simply has no 'sibling' label at all.
        assert!(m.tree.labels().get("sibling").is_none());
        // And no pname / address / doctor data is exposed either.
        for hidden in ["pname", "address", "doctor", "street"] {
            assert!(m.tree.labels().get(hidden).is_none(), "{hidden} leaked");
        }
    }

    #[test]
    fn records_carry_diagnosis_text_or_are_empty() {
        let view = hospital_view();
        let doc = hospital_document();
        let m = materialize(&view, &doc).unwrap();
        // Bob's test visit becomes an empty record; medication visits carry
        // the diagnosis text.
        let diag = parse_path("patient/record/diagnosis").unwrap();
        let diags = evaluate(&m.tree, m.tree.root(), &diag);
        assert!(!diags.is_empty());
        for d in &diags {
            assert!(m.tree.text(*d).is_some());
        }
        let empty = parse_path("patient/record/empty").unwrap();
        assert_eq!(evaluate(&m.tree, m.tree.root(), &empty).len(), 1);
    }

    #[test]
    fn origins_point_back_into_the_source() {
        let view = hospital_view();
        let doc = hospital_document();
        let m = materialize(&view, &doc).unwrap();
        for view_node in m.tree.node_ids() {
            let origin = m.origin(view_node);
            assert!(origin.index() < doc.len());
            // Text-typed view nodes carry their origin's text.
            if m.tree.label_name(view_node) == "diagnosis" {
                assert_eq!(m.tree.text(view_node), doc.text(origin));
            }
        }
        // The view root originates from the document root.
        assert_eq!(m.origin(m.tree.root()), doc.root());
    }

    #[test]
    fn example_1_1_view_query_answer() {
        // Q: patient[*//record/diagnosis/text()='heart disease'] on the view
        // selects patients whose ancestors also had heart disease: Alice
        // (through her grandmother), but not Bob.
        let view = hospital_view();
        let doc = hospital_document();
        let m = materialize(&view, &doc).unwrap();
        let q = parse_path(&format!(
            "patient[*//record/diagnosis/text()='{HEART_DISEASE}']"
        ))
        .unwrap();
        let result = evaluate(&m.tree, m.tree.root(), &q);
        assert_eq!(result.len(), 1);
    }

    #[test]
    fn budget_is_enforced() {
        let view = hospital_view();
        let doc = hospital_document();
        let err = materialize_with_budget(&view, &doc, 3).unwrap_err();
        assert!(matches!(err, ViewError::ViewTooLarge { limit: 3 }));
    }

    #[test]
    fn non_terminating_view_is_detected() {
        // A pathological view: the annotation σ(part, part) = '.' keeps the
        // origin in place, so the recursive view type 'part' would unfold
        // forever over any document.
        use smoqe_xml::{Child, ContentModel, Dtd};
        let mut doc_dtd = Dtd::new("part");
        doc_dtd.define("part", ContentModel::Sequence(vec![Child::star("part")]));
        let mut view_dtd = Dtd::new("part");
        view_dtd.define("part", ContentModel::Sequence(vec![Child::star("part")]));
        let mut view = crate::definition::ViewDefinition::new(doc_dtd, view_dtd);
        view.annotate_str("part", "part", ".").unwrap();

        let mut b = XmlTreeBuilder::new();
        b.root("part");
        let doc = b.finish();
        let err = materialize(&view, &doc).unwrap_err();
        assert!(matches!(err, ViewError::NonTerminating { .. }));
    }
}
