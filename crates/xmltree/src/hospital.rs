//! The running example of the paper: the recursive *hospital* document DTD
//! of Fig. 1(a) and the *view* DTD of Fig. 1(b).
//!
//! The document DTD describes a hospital with departments, in-patients,
//! visits with treatments (a test or a medication carrying a diagnosis),
//! treating doctors, and a recursively defined family medical history via
//! `parent` and `sibling` elements that share the `patient` description.
//!
//! The view DTD exposes, for a research institute studying inherited heart
//! disease, only heart-disease patients, their parent hierarchy and their
//! diagnosis records — names, addresses, tests and doctors are hidden.

use crate::dtd::{Child, ContentModel, Dtd};

/// Builds the hospital **document** DTD `D` of Fig. 1(a).
///
/// Productions (normal form of Section 2.2):
///
/// ```text
/// hospital   → department*
/// department → name, patient*, doctor*
/// patient    → pname, address, visit*, parent*, sibling*
/// address    → street, city, zip
/// visit      → date, treatment
/// treatment  → test + medication            (disjunction)
/// test       → type
/// medication → type, diagnosis
/// doctor     → dname, specialty
/// parent     → patient
/// sibling    → patient
/// name, pname, street, city, zip, date, type, diagnosis, dname, specialty → str
/// ```
///
/// The DTD is recursive through `patient → parent → patient` and
/// `patient → sibling → patient`.
pub fn hospital_document_dtd() -> Dtd {
    let mut d = Dtd::new("hospital");
    d.define(
        "hospital",
        ContentModel::Sequence(vec![Child::star("department")]),
    )
    .define(
        "department",
        ContentModel::Sequence(vec![
            Child::one("name"),
            Child::star("patient"),
            Child::star("doctor"),
        ]),
    )
    .define(
        "patient",
        ContentModel::Sequence(vec![
            Child::one("pname"),
            Child::one("address"),
            Child::star("visit"),
            Child::star("parent"),
            Child::star("sibling"),
        ]),
    )
    .define(
        "address",
        ContentModel::Sequence(vec![
            Child::one("street"),
            Child::one("city"),
            Child::one("zip"),
        ]),
    )
    .define(
        "visit",
        ContentModel::Sequence(vec![Child::one("date"), Child::one("treatment")]),
    )
    .define(
        "treatment",
        ContentModel::Choice(vec!["test".to_owned(), "medication".to_owned()]),
    )
    .define("test", ContentModel::Sequence(vec![Child::one("type")]))
    .define(
        "medication",
        ContentModel::Sequence(vec![Child::one("type"), Child::one("diagnosis")]),
    )
    .define(
        "doctor",
        ContentModel::Sequence(vec![Child::one("dname"), Child::one("specialty")]),
    )
    .define(
        "parent",
        ContentModel::Sequence(vec![Child::one("patient")]),
    )
    .define(
        "sibling",
        ContentModel::Sequence(vec![Child::one("patient")]),
    )
    .define("name", ContentModel::Text)
    .define("pname", ContentModel::Text)
    .define("street", ContentModel::Text)
    .define("city", ContentModel::Text)
    .define("zip", ContentModel::Text)
    .define("date", ContentModel::Text)
    .define("type", ContentModel::Text)
    .define("diagnosis", ContentModel::Text)
    .define("dname", ContentModel::Text)
    .define("specialty", ContentModel::Text);
    d
}

/// Builds the **view** DTD `DV` of Fig. 1(b).
///
/// ```text
/// hospital  → patient*
/// patient   → parent*, record*
/// parent    → patient
/// record    → empty + diagnosis
/// empty     → ε
/// diagnosis → str
/// ```
///
/// The view DTD is recursive through `patient → parent → patient`.
pub fn hospital_view_dtd() -> Dtd {
    let mut d = Dtd::new("hospital");
    d.define(
        "hospital",
        ContentModel::Sequence(vec![Child::star("patient")]),
    )
    .define(
        "patient",
        ContentModel::Sequence(vec![Child::star("parent"), Child::star("record")]),
    )
    .define(
        "parent",
        ContentModel::Sequence(vec![Child::one("patient")]),
    )
    .define(
        "record",
        ContentModel::Choice(vec!["empty".to_owned(), "diagnosis".to_owned()]),
    )
    .define("empty", ContentModel::Empty)
    .define("diagnosis", ContentModel::Text);
    d
}

/// The diagnosis string the running example's view and queries select on.
pub const HEART_DISEASE: &str = "heart disease";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn document_dtd_is_well_formed_and_recursive() {
        let d = hospital_document_dtd();
        d.check_well_formed().unwrap();
        assert!(
            d.is_recursive(),
            "Fig. 1(a) is recursive via parent/sibling"
        );
        assert_eq!(d.root(), "hospital");
        assert_eq!(d.len(), 21);
    }

    #[test]
    fn view_dtd_is_well_formed_and_recursive() {
        let d = hospital_view_dtd();
        d.check_well_formed().unwrap();
        assert!(d.is_recursive(), "Fig. 1(b) is recursive via parent");
        assert_eq!(d.len(), 6);
    }

    #[test]
    fn document_dtd_paths_used_by_the_view_exist() {
        let d = hospital_document_dtd();
        let g = d.graph();
        // The view annotation Q1 uses hospital/department/patient and the
        // filter path visit/treatment/medication/diagnosis.
        assert!(g.children_of("hospital").contains(&"department"));
        assert!(g.children_of("department").contains(&"patient"));
        assert!(g.children_of("visit").contains(&"treatment"));
        assert!(g.children_of("treatment").contains(&"medication"));
        assert!(g.children_of("medication").contains(&"diagnosis"));
        // Q5 uses treatment/test.
        assert!(g.children_of("treatment").contains(&"test"));
        // Recursion used by Q2/Q4: patient -> parent -> patient.
        assert!(g.children_of("patient").contains(&"parent"));
        assert!(g.children_of("parent").contains(&"patient"));
        // Siblings exist in the document but not in the view (security!).
        assert!(g.children_of("patient").contains(&"sibling"));
    }

    #[test]
    fn view_dtd_hides_sensitive_types() {
        let d = hospital_view_dtd();
        let types = d.element_types();
        for hidden in ["pname", "address", "doctor", "test", "sibling"] {
            assert!(
                !types.contains(&hidden),
                "{hidden} must not be in the view DTD"
            );
        }
    }

    #[test]
    fn descendant_types_of_patient_include_recursion() {
        let d = hospital_document_dtd();
        let desc = d.graph().descendant_types();
        let below_patient = &desc["patient"];
        assert!(below_patient.contains("patient"));
        assert!(below_patient.contains("diagnosis"));
        assert!(!below_patient.contains("hospital"));
        assert!(!below_patient.contains("department"));
    }
}
