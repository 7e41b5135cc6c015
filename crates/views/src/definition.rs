//! View definitions: a view DTD annotated with regular XPath queries.

use std::collections::BTreeMap;
use std::fmt;

use smoqe_xml::hospital::{hospital_document_dtd, hospital_view_dtd, HEART_DISEASE};
use smoqe_xml::{fingerprint_content_model, ContentModel, Dtd};
use smoqe_xpath::{expand_on_dtd, parse_path, ParseQueryError, Path};

/// Errors raised while building or validating a view definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// The view DTD has an edge `(A, B)` with no annotation query.
    MissingAnnotation {
        /// Parent view element type.
        parent: String,
        /// Child view element type.
        child: String,
    },
    /// An annotation was supplied for a pair that is not an edge of the view DTD.
    UnknownEdge {
        /// Parent view element type.
        parent: String,
        /// Child view element type.
        child: String,
    },
    /// The annotation query could not be parsed.
    BadQuery {
        /// Parent view element type.
        parent: String,
        /// Child view element type.
        child: String,
        /// The parser's error message.
        message: String,
    },
    /// One of the DTDs is not well-formed.
    BadDtd(String),
    /// Materialization exceeded the configured node budget (a symptom of a
    /// non-terminating view over this document, e.g. an ε-annotated cycle).
    ViewTooLarge {
        /// The configured limit that was exceeded.
        limit: usize,
    },
    /// Materialization encountered a cycle: the same (view type, origin
    /// node) pair appeared twice on one ancestor chain, so the view would
    /// be infinite.
    NonTerminating {
        /// The view element type on the cycle.
        view_type: String,
    },
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::MissingAnnotation { parent, child } => {
                write!(
                    f,
                    "view DTD edge ({parent}, {child}) has no annotation query"
                )
            }
            ViewError::UnknownEdge { parent, child } => {
                write!(f, "({parent}, {child}) is not an edge of the view DTD")
            }
            ViewError::BadQuery {
                parent,
                child,
                message,
            } => {
                write!(
                    f,
                    "annotation σ({parent},{child}) does not parse: {message}"
                )
            }
            ViewError::BadDtd(msg) => write!(f, "ill-formed DTD: {msg}"),
            ViewError::ViewTooLarge { limit } => {
                write!(f, "materialized view exceeds the node budget of {limit}")
            }
            ViewError::NonTerminating { view_type } => write!(
                f,
                "view materialization does not terminate: cycle through type <{view_type}>"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

impl From<(String, String, ParseQueryError)> for ViewError {
    fn from((parent, child, err): (String, String, ParseQueryError)) -> Self {
        ViewError::BadQuery {
            parent,
            child,
            message: err.to_string(),
        }
    }
}

/// A view definition `σ : D → DV`.
#[derive(Debug, Clone)]
pub struct ViewDefinition {
    document_dtd: Dtd,
    view_dtd: Dtd,
    /// `σ(A, B)` for each edge `(A, B)` of the view DTD graph.
    annotations: BTreeMap<(String, String), Path>,
}

impl ViewDefinition {
    /// Creates a view with no annotations yet.
    pub fn new(document_dtd: Dtd, view_dtd: Dtd) -> Self {
        ViewDefinition {
            document_dtd,
            view_dtd,
            annotations: BTreeMap::new(),
        }
    }

    /// The document DTD `D`.
    pub fn document_dtd(&self) -> &Dtd {
        &self.document_dtd
    }

    /// The view DTD `DV`.
    pub fn view_dtd(&self) -> &Dtd {
        &self.view_dtd
    }

    /// Annotates the view DTD edge `(parent, child)` with an already parsed
    /// query.
    pub fn annotate(&mut self, parent: &str, child: &str, query: Path) -> Result<(), ViewError> {
        if !self.is_edge(parent, child) {
            return Err(ViewError::UnknownEdge {
                parent: parent.to_owned(),
                child: child.to_owned(),
            });
        }
        self.annotations
            .insert((parent.to_owned(), child.to_owned()), query);
        Ok(())
    }

    /// Annotates the edge `(parent, child)` with a query given as text.
    pub fn annotate_str(
        &mut self,
        parent: &str,
        child: &str,
        query: &str,
    ) -> Result<(), ViewError> {
        let parsed = parse_path(query).map_err(|e| ViewError::BadQuery {
            parent: parent.to_owned(),
            child: child.to_owned(),
            message: e.to_string(),
        })?;
        self.annotate(parent, child, parsed)
    }

    /// `true` if `(parent, child)` is an edge of the view DTD graph.
    pub fn is_edge(&self, parent: &str, child: &str) -> bool {
        self.view_dtd
            .production(parent)
            .map(|m| m.child_types().contains(&child))
            .unwrap_or(false)
    }

    /// The raw annotation `σ(parent, child)`, if present.
    pub fn annotation(&self, parent: &str, child: &str) -> Option<&Path> {
        self.annotations.get(&(parent.to_owned(), child.to_owned()))
    }

    /// The annotation expanded to pure `Xreg` over the **document** DTD
    /// (`//` and `*` in annotations range over document labels).
    pub fn normalized_annotation(&self, parent: &str, child: &str) -> Option<Path> {
        self.annotation(parent, child)
            .map(|p| expand_on_dtd(p, &self.document_dtd))
    }

    /// Iterates over all annotated edges `((A, B), σ(A,B))`.
    pub fn annotations(&self) -> impl Iterator<Item = (&(String, String), &Path)> {
        self.annotations.iter()
    }

    /// The size `|σ|`: the sum of the sizes of all annotation queries, the
    /// measure used in Theorems 5.1 and 6.2.
    pub fn size(&self) -> usize {
        self.annotations.values().map(Path::size).sum()
    }

    /// `true` if the view DTD (and hence the view) is recursively defined.
    pub fn is_recursive(&self) -> bool {
        self.view_dtd.is_recursive()
    }

    /// A stable fingerprint of the whole definition — both DTDs and every
    /// annotation query. Two views with the same fingerprint rewrite every
    /// query identically, so the fingerprint is usable as (part of) a
    /// compiled-query cache key in the service layer.
    ///
    /// FNV-1a over a canonical serialization (see [`fingerprint_field`]);
    /// stable across runs of the same build (it does not use
    /// [`std::hash::Hash`], whose output may vary).
    pub fn fingerprint(&self) -> u64 {
        let mut h = FINGERPRINT_SEED;
        for dtd in [&self.document_dtd, &self.view_dtd] {
            h = fingerprint_field(h, dtd.root().as_bytes());
            let mut types = dtd.element_types();
            types.sort_unstable();
            for ty in types {
                h = fingerprint_field(h, ty.as_bytes());
                if let Some(model) = dtd.production(ty) {
                    // Canonical tagged encoding — never `Debug` output, which
                    // is not a serialization contract and could drift across
                    // refactors, silently invalidating or aliasing cache keys.
                    h = fingerprint_content_model(h, model);
                }
            }
        }
        for ((parent, child), query) in &self.annotations {
            h = fingerprint_field(h, parent.as_bytes());
            h = fingerprint_field(h, child.as_bytes());
            h = fingerprint_field(h, query.to_string().as_bytes());
        }
        h
    }

    /// Checks that both DTDs are well-formed and that every edge of the view
    /// DTD carries an annotation.
    pub fn check(&self) -> Result<(), ViewError> {
        self.document_dtd
            .check_well_formed()
            .map_err(|e| ViewError::BadDtd(e.to_string()))?;
        self.view_dtd
            .check_well_formed()
            .map_err(|e| ViewError::BadDtd(e.to_string()))?;
        for ty in self.view_dtd.element_types() {
            let model = self.view_dtd.production(ty).expect("checked above");
            if matches!(model, ContentModel::Text | ContentModel::Empty) {
                continue;
            }
            for child in model.child_types() {
                if self.annotation(ty, child).is_none() {
                    return Err(ViewError::MissingAnnotation {
                        parent: ty.to_owned(),
                        child: child.to_owned(),
                    });
                }
            }
        }
        Ok(())
    }
}

// The FNV-1a primitives moved to `smoqe_xml::fingerprint` so the snapshot
// subsystem, the query service's document-label fingerprints, and view
// fingerprints all share one implementation; these re-exports keep the
// long-standing `smoqe_views::{FINGERPRINT_SEED, fingerprint_field}` paths
// working.
pub use smoqe_xml::{fingerprint_field, FINGERPRINT_SEED};

/// Builds the running example σ₀ of Fig. 1(c): the heart-disease research
/// view over the hospital document DTD.
///
/// ```text
/// σ₀(hospital, patient)  = department/patient[visit/treatment/medication/
///                           diagnosis/text() = 'heart disease']       (Q1)
/// σ₀(patient,  parent)   = parent                                     (Q2)
/// σ₀(patient,  record)   = visit                                      (Q3)
/// σ₀(parent,   patient)  = patient                                    (Q4)
/// σ₀(record,   empty)    = treatment/test                             (Q5)
/// σ₀(record,   diagnosis)= treatment/medication/diagnosis             (Q6)
/// ```
pub fn hospital_view() -> ViewDefinition {
    let mut view = ViewDefinition::new(hospital_document_dtd(), hospital_view_dtd());
    view.annotate_str(
        "hospital",
        "patient",
        &format!(
            "department/patient[visit/treatment/medication/diagnosis/text()='{HEART_DISEASE}']"
        ),
    )
    .expect("Q1");
    view.annotate_str("patient", "parent", "parent")
        .expect("Q2");
    view.annotate_str("patient", "record", "visit").expect("Q3");
    view.annotate_str("parent", "patient", "patient")
        .expect("Q4");
    view.annotate_str("record", "empty", "treatment/test")
        .expect("Q5");
    view.annotate_str("record", "diagnosis", "treatment/medication/diagnosis")
        .expect("Q6");
    view.check().expect("σ₀ is complete");
    view
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hospital_view_is_complete_and_recursive() {
        let v = hospital_view();
        v.check().unwrap();
        assert!(v.is_recursive());
        assert_eq!(v.annotations().count(), 6);
        assert!(v.size() >= 6);
    }

    #[test]
    fn annotations_are_retrievable() {
        let v = hospital_view();
        assert!(v.annotation("hospital", "patient").is_some());
        assert!(v.annotation("patient", "record").is_some());
        assert!(v.annotation("record", "diagnosis").is_some());
        assert!(v.annotation("hospital", "doctor").is_none());
    }

    #[test]
    fn unknown_edges_are_rejected() {
        let mut v = ViewDefinition::new(hospital_document_dtd(), hospital_view_dtd());
        let err = v.annotate_str("hospital", "doctor", "department/doctor");
        assert_eq!(
            err,
            Err(ViewError::UnknownEdge {
                parent: "hospital".to_owned(),
                child: "doctor".to_owned()
            })
        );
    }

    #[test]
    fn missing_annotation_is_detected() {
        let mut v = ViewDefinition::new(hospital_document_dtd(), hospital_view_dtd());
        v.annotate_str("hospital", "patient", "department/patient")
            .unwrap();
        let err = v.check().unwrap_err();
        assert!(matches!(err, ViewError::MissingAnnotation { .. }));
    }

    #[test]
    fn bad_query_reports_the_edge() {
        let mut v = ViewDefinition::new(hospital_document_dtd(), hospital_view_dtd());
        let err = v.annotate_str("patient", "parent", "parent[").unwrap_err();
        assert!(matches!(err, ViewError::BadQuery { ref parent, .. } if parent == "patient"));
    }

    #[test]
    fn normalized_annotation_expands_over_document_dtd() {
        let mut v = ViewDefinition::new(hospital_document_dtd(), hospital_view_dtd());
        v.annotate_str("hospital", "patient", "department//patient")
            .unwrap();
        let normalized = v.normalized_annotation("hospital", "patient").unwrap();
        assert!(!normalized.contains_xpath_axes());
        // Every label in the expansion is a document label.
        let doc_types = v.document_dtd().element_types();
        for l in normalized.labels() {
            assert!(doc_types.contains(&l));
        }
    }

    #[test]
    fn size_measures_annotation_queries() {
        let v = hospital_view();
        // Q1 alone has size > 5; the total must exceed the number of edges.
        assert!(v.size() > 10);
    }

    #[test]
    fn fingerprint_is_stable_and_annotation_sensitive() {
        let a = hospital_view();
        let b = hospital_view();
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same view, same fingerprint"
        );

        // Changing any annotation must change the fingerprint.
        let mut c = hospital_view();
        c.annotate_str("patient", "record", "visit/treatment")
            .unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());

        // An incomplete view fingerprints differently from the full one.
        let mut partial = ViewDefinition::new(hospital_document_dtd(), hospital_view_dtd());
        partial
            .annotate_str("hospital", "patient", "department/patient")
            .unwrap();
        assert_ne!(a.fingerprint(), partial.fingerprint());
    }

    #[test]
    fn fingerprint_golden_value_is_locked() {
        // Golden value for σ₀ under the canonical content-model encoding
        // (fingerprint format v1, smoqe_xml::fingerprint). If this changes,
        // every persisted cache key and snapshot fingerprint changes with
        // it — bump deliberately, never accidentally.
        assert_eq!(hospital_view().fingerprint(), 0x455a_1fb1_4ae6_96a4);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ViewError::MissingAnnotation {
            parent: "a".into(),
            child: "b".into(),
        };
        assert!(e.to_string().contains("(a, b)"));
        let e2 = ViewError::NonTerminating {
            view_type: "patient".into(),
        };
        assert!(e2.to_string().contains("patient"));
    }
}
