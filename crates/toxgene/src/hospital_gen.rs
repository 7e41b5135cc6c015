//! Generator for documents conforming to the hospital DTD of Fig. 1(a).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smoqe_xml::hospital::HEART_DISEASE;
use smoqe_xml::{NodeId, XmlTree, XmlTreeBuilder};

/// Configuration of the hospital document generator.
///
/// The defaults generate a small document suitable for tests; the benchmark
/// harness scales `patients` to reproduce the paper's 7–70 MB series.
#[derive(Debug, Clone)]
pub struct HospitalConfig {
    /// Number of in-patients (top-level patients across all departments).
    pub patients: usize,
    /// Number of departments the patients are distributed over.
    pub departments: usize,
    /// Fraction of patients (and ancestors) whose visit carries a
    /// heart-disease diagnosis — the selectivity knob of the paper's queries.
    pub heart_disease_fraction: f64,
    /// Maximum length of the `parent/patient` ancestor chain (the recursive
    /// part of the DTD). The paper's documents have maximal depth 13, which
    /// corresponds to an ancestor depth of 2 with our element nesting.
    pub max_ancestor_depth: usize,
    /// Probability that a patient has a sibling entry (data outside the
    /// research view, i.e. pure pruning/security ballast).
    pub sibling_probability: f64,
    /// Number of visits recorded per patient.
    pub visits_per_patient: usize,
    /// Fraction of visits that are tests (no diagnosis) rather than
    /// medications.
    pub test_visit_fraction: f64,
    /// RNG seed; the same configuration always generates the same document.
    pub seed: u64,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig {
            patients: 100,
            departments: 4,
            heart_disease_fraction: 0.3,
            max_ancestor_depth: 2,
            sibling_probability: 0.3,
            visits_per_patient: 2,
            test_visit_fraction: 0.3,
            seed: 0x5eed_500e,
        }
    }
}

impl HospitalConfig {
    /// A configuration sized so that the serialized document is roughly
    /// `megabytes` MB, mirroring the paper's 7 MB ≈ 10,000 patients scale.
    pub fn with_approx_megabytes(megabytes: usize) -> Self {
        HospitalConfig {
            patients: megabytes.max(1) * 1430,
            ..Self::default()
        }
    }
}

/// Other diagnoses used to dilute the heart-disease selectivity.
const OTHER_DIAGNOSES: &[&str] = &[
    "lung disease",
    "brain disease",
    "influenza",
    "fracture",
    "diabetes",
    "hypertension",
];

const STREETS: &[&str] = &[
    "1 Infirmary St",
    "2 Lauriston Pl",
    "3 Crichton St",
    "4 Chambers St",
];
const CITIES: &[&str] = &["Edinburgh", "Glasgow", "Dundee", "Aberdeen"];
const SPECIALTIES: &[&str] = &["cardiology", "oncology", "neurology", "general"];

/// Generates a hospital document according to `config`.
///
/// The output conforms to [`smoqe_xml::hospital::hospital_document_dtd`]
/// (checked by the tests below) and is fully determined by the seed.
pub fn generate_hospital(config: &HospitalConfig) -> XmlTree {
    generate_with(config, |patient, departments| patient % departments)
}

/// Generates a hospital document with a deliberately skewed department
/// fan-out: the first `⌊dominant_fraction · patients⌋` patients all land in
/// department 0, the rest are spread round-robin over the remaining
/// departments. Everything else — patient content, RNG stream, doctors —
/// is byte-identical to [`generate_hospital`] at the same configuration,
/// so evaluation answers over the whole document are unaffected; only the
/// subtree shape (one dominant top-level subtree) changes. This is the
/// adversarial input for the parallel evaluator's shard re-splitting.
pub fn generate_skewed_hospital(config: &HospitalConfig, dominant_fraction: f64) -> XmlTree {
    let dominant = (config.patients as f64 * dominant_fraction.clamp(0.0, 1.0)).floor() as usize;
    generate_with(config, move |patient, departments| {
        if patient < dominant || departments == 1 {
            0
        } else {
            1 + (patient - dominant) % (departments - 1)
        }
    })
}

/// Generates a pathological-depth hospital document: one department with a
/// single patient whose `parent/patient` ancestor chain is `depth` levels
/// deep. Built **iteratively**, so the generator itself never overflows —
/// this is the adversarial input for the stack-safety of parsers,
/// serializers and tree-walking engines. Every patient on the chain has one
/// heart-disease visit, so the σ₀ view is exactly as deep as the document.
pub fn generate_deep_hospital(depth: usize, seed: u64) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root("hospital");
    let dept = b.child(root, "department");
    b.child_with_text(dept, "name", "Deep");
    let mut wrapper = dept;
    for level in 0..=depth {
        let p = b.child(wrapper, "patient");
        b.child_with_text(p, "pname", &format!("Patient-{level}"));
        let addr = b.child(p, "address");
        b.child_with_text(addr, "street", STREETS[level % STREETS.len()]);
        b.child_with_text(addr, "city", CITIES[level % CITIES.len()]);
        b.child_with_text(addr, "zip", &format!("EH{}", level % 17 + 1));
        let visit = b.child(p, "visit");
        b.child_with_text(visit, "date", &format!("{}-01-15", 1950 + level % 77));
        let treatment = b.child(visit, "treatment");
        let medication = b.child(treatment, "medication");
        b.child_with_text(medication, "type", "tablet");
        // An occasional other diagnosis keeps the view chain from being
        // fully regular without bounding its depth.
        let diagnosis = if rng.gen_bool(0.95) {
            HEART_DISEASE
        } else {
            OTHER_DIAGNOSES[level % OTHER_DIAGNOSES.len()]
        };
        b.child_with_text(medication, "diagnosis", diagnosis);
        if level < depth {
            wrapper = b.child(p, "parent");
        }
    }
    b.finish()
}

/// Shared generator body: `assign(patient_index, departments)` names the
/// department each patient lands in; everything else is policy-free.
fn generate_with(config: &HospitalConfig, assign: impl Fn(usize, usize) -> usize) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root("hospital");

    let departments = config.departments.max(1);
    let mut department_nodes = Vec::with_capacity(departments);
    for d in 0..departments {
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", &format!("Department-{d}"));
        department_nodes.push(dept);
    }

    let mut gen = Generator {
        config,
        rng: &mut rng,
        builder: &mut b,
        counter: 0,
    };
    for i in 0..config.patients {
        let dept = department_nodes[assign(i, departments)];
        gen.patient(dept, config.max_ancestor_depth, true);
    }

    // A couple of doctors per department keeps the document shape faithful
    // (doctor data exists in the source but never in the research view).
    for (d, &dept) in department_nodes.iter().enumerate() {
        for k in 0..2 {
            let doctor = b.child(dept, "doctor");
            b.child_with_text(doctor, "dname", &format!("Dr. {d}-{k}"));
            let specialty = SPECIALTIES[(d + k) % SPECIALTIES.len()];
            b.child_with_text(doctor, "specialty", specialty);
        }
    }

    b.finish()
}

struct Generator<'a> {
    config: &'a HospitalConfig,
    rng: &'a mut StdRng,
    builder: &'a mut XmlTreeBuilder,
    counter: usize,
}

impl Generator<'_> {
    /// Emits a patient element under `wrapper` (a department, `parent` or
    /// `sibling` element), recursing into ancestors up to `ancestors_left`.
    fn patient(&mut self, wrapper: NodeId, ancestors_left: usize, allow_sibling: bool) -> NodeId {
        self.counter += 1;
        let id = self.counter;
        let b = &mut *self.builder;
        let p = b.child(wrapper, "patient");
        b.child_with_text(p, "pname", &format!("Patient-{id}"));
        let addr = b.child(p, "address");
        b.child_with_text(addr, "street", STREETS[id % STREETS.len()]);
        b.child_with_text(addr, "city", CITIES[id % CITIES.len()]);
        b.child_with_text(addr, "zip", &format!("EH{}", id % 17 + 1));

        for _ in 0..self.config.visits_per_patient.max(1) {
            self.visit(p);
        }

        if ancestors_left > 0 {
            // Between one and two parents, biased towards one.
            let parents = if self.rng.gen_bool(0.25) { 2 } else { 1 };
            for _ in 0..parents {
                let parent = self.builder.child(p, "parent");
                self.patient(parent, ancestors_left - 1, false);
            }
        }
        if allow_sibling && self.rng.gen_bool(self.config.sibling_probability) {
            let sibling = self.builder.child(p, "sibling");
            self.patient(sibling, 0, false);
        }
        p
    }

    fn visit(&mut self, patient: NodeId) {
        let b = &mut *self.builder;
        let visit = b.child(patient, "visit");
        let year = 1990 + (self.counter % 17);
        let month = 1 + (self.counter % 12);
        b.child_with_text(visit, "date", &format!("{year}-{month:02}-15"));
        let treatment = b.child(visit, "treatment");
        if self.rng.gen_bool(self.config.test_visit_fraction) {
            let test = b.child(treatment, "test");
            b.child_with_text(test, "type", "ECG");
        } else {
            let medication = b.child(treatment, "medication");
            b.child_with_text(medication, "type", "tablet");
            let diagnosis = if self.rng.gen_bool(self.config.heart_disease_fraction) {
                HEART_DISEASE
            } else {
                OTHER_DIAGNOSES[self.rng.gen_range(0..OTHER_DIAGNOSES.len())]
            };
            b.child_with_text(medication, "diagnosis", diagnosis);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xpath::{evaluate, parse_path};

    #[test]
    fn generated_documents_conform_to_the_dtd() {
        let config = HospitalConfig {
            patients: 50,
            ..Default::default()
        };
        let doc = generate_hospital(&config);
        hospital_document_dtd().validate(&doc).unwrap();
        doc.check_consistency().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let config = HospitalConfig::default();
        let a = generate_hospital(&config);
        let b = generate_hospital(&config);
        assert_eq!(a.len(), b.len());
        assert_eq!(smoqe_xml::to_xml_string(&a), smoqe_xml::to_xml_string(&b));
        let other = generate_hospital(&HospitalConfig { seed: 99, ..config });
        assert_ne!(
            smoqe_xml::to_xml_string(&a),
            smoqe_xml::to_xml_string(&other)
        );
    }

    #[test]
    fn size_scales_with_patient_count() {
        let small = generate_hospital(&HospitalConfig {
            patients: 20,
            ..Default::default()
        });
        let large = generate_hospital(&HospitalConfig {
            patients: 200,
            ..Default::default()
        });
        assert!(large.len() > 5 * small.len());
    }

    #[test]
    fn selectivity_follows_the_configuration() {
        let none = generate_hospital(&HospitalConfig {
            patients: 100,
            heart_disease_fraction: 0.0,
            ..Default::default()
        });
        let all = generate_hospital(&HospitalConfig {
            patients: 100,
            heart_disease_fraction: 1.0,
            test_visit_fraction: 0.0,
            ..Default::default()
        });
        let q = parse_path(
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
        )
        .unwrap();
        assert!(evaluate(&none, none.root(), &q).is_empty());
        assert_eq!(evaluate(&all, all.root(), &q).len(), 100);
    }

    #[test]
    fn ancestor_depth_bounds_tree_depth() {
        let shallow = generate_hospital(&HospitalConfig {
            patients: 30,
            max_ancestor_depth: 0,
            sibling_probability: 0.0,
            ..Default::default()
        });
        // hospital/department/patient/visit/treatment/medication/diagnosis = 7
        assert_eq!(shallow.max_depth(), 7);
        let deep = generate_hospital(&HospitalConfig {
            patients: 30,
            max_ancestor_depth: 3,
            ..Default::default()
        });
        assert!(deep.max_depth() > shallow.max_depth());
        // Depth grows by 2 per ancestor level (parent + patient): 7 + 2*3 = 13,
        // matching the paper's "maximal depth of the trees is 13".
        assert!(deep.max_depth() <= 13);
    }

    #[test]
    fn skewed_generator_concentrates_one_department() {
        let config = HospitalConfig {
            patients: 100,
            departments: 4,
            ..Default::default()
        };
        let doc = generate_skewed_hospital(&config, 0.8);
        hospital_document_dtd().validate(&doc).unwrap();
        doc.check_consistency().unwrap();
        let depts = doc.children(doc.root());
        assert_eq!(depts.len(), 4);
        let sizes: Vec<usize> = depts.iter().map(|&d| doc.subtree_size(d)).collect();
        let total: usize = sizes.iter().sum();
        assert!(
            sizes[0] * 10 >= total * 8,
            "department 0 holds ≥80% of the nodes: {sizes:?}"
        );

        // Same RNG stream as the uniform generator: answers over the whole
        // document are unchanged, only the subtree shape differs.
        let uniform = generate_hospital(&config);
        assert_eq!(doc.len(), uniform.len());
        let q =
            parse_path("//patient[visit/treatment/medication/diagnosis/text()='heart disease']")
                .unwrap();
        assert_eq!(
            evaluate(&doc, doc.root(), &q).len(),
            evaluate(&uniform, uniform.root(), &q).len()
        );
    }

    #[test]
    fn approx_megabytes_scales_roughly_linearly() {
        let one = HospitalConfig::with_approx_megabytes(1);
        let two = HospitalConfig::with_approx_megabytes(2);
        assert_eq!(two.patients, 2 * one.patients);
    }
}
