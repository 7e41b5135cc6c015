//! Generator for documents conforming to the bill-of-materials DTD
//! (`smoqe_xml::domains::bom_document_dtd`) — the deeply recursive domain.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smoqe_xml::domains::DOMESTIC;
use smoqe_xml::{NodeId, XmlTree, XmlTreeBuilder};

/// Configuration of the bom document generator.
#[derive(Debug, Clone)]
pub struct BomConfig {
    /// Number of products in the catalogue.
    pub products: usize,
    /// Number of suppliers (pure security ballast — never in the view).
    pub suppliers: usize,
    /// Maximum sub-assembly nesting depth below a product.
    pub max_assembly_depth: usize,
    /// Parts per assembly (fan-out of the recursion).
    pub parts_per_assembly: usize,
    /// Fraction of parts whose origin is `domestic` — the selectivity knob
    /// of the bom view's conditional rule.
    pub domestic_fraction: f64,
    /// Probability that a part carries a nested sub-assembly (recursion
    /// continues). `1.0` drives every part to the full depth budget.
    pub recursion_probability: f64,
    /// Fraction of the recursion budget concentrated on the *first* part of
    /// each assembly: at `1.0` only the first part recurses, producing one
    /// deep skewed chain per product (skew composed with recursion).
    pub skew: f64,
    /// RNG seed; the same configuration always generates the same document.
    pub seed: u64,
}

impl Default for BomConfig {
    fn default() -> Self {
        BomConfig {
            products: 8,
            suppliers: 3,
            max_assembly_depth: 3,
            parts_per_assembly: 3,
            domestic_fraction: 0.5,
            recursion_probability: 0.6,
            skew: 0.0,
            seed: 0xb0b0_cafe,
        }
    }
}

const REGIONS: &[&str] = &["EMEA", "APAC", "AMER"];
const ORIGINS: &[&str] = &["overseas", "offshore", "unknown"];

/// Generates a bom document according to `config`.
pub fn generate_bom(config: &BomConfig) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root("catalog");

    for s in 0..config.suppliers {
        let supplier = b.child(root, "supplier");
        b.child_with_text(supplier, "sname", &format!("Supplier-{s}"));
        b.child_with_text(supplier, "region", REGIONS[s % REGIONS.len()]);
    }

    let mut counter = 0usize;
    for p in 0..config.products {
        let product = b.child(root, "product");
        b.child_with_text(product, "pid", &format!("P-{p}"));
        if config.max_assembly_depth > 0 {
            let assembly = b.child(product, "assembly");
            emit_assembly(
                config,
                &mut rng,
                &mut b,
                &mut counter,
                assembly,
                config.max_assembly_depth - 1,
            );
        }
    }
    b.finish()
}

/// Fills `assembly` with parts, recursing into sub-assemblies while the
/// depth budget lasts. The recursion depth is bounded by
/// `max_assembly_depth`, so the generator's own stack use is bounded too —
/// unbounded chains come from [`generate_deep_bom`], which is iterative.
fn emit_assembly(
    config: &BomConfig,
    rng: &mut StdRng,
    b: &mut XmlTreeBuilder,
    counter: &mut usize,
    assembly: NodeId,
    depth_left: usize,
) {
    for i in 0..config.parts_per_assembly.max(1) {
        *counter += 1;
        let part = b.child(assembly, "part");
        b.child_with_text(part, "pnum", &format!("N-{counter}"));
        let origin = if rng.gen_bool(config.domestic_fraction) {
            DOMESTIC
        } else {
            ORIGINS[*counter % ORIGINS.len()]
        };
        b.child_with_text(part, "origin", origin);
        b.child_with_text(part, "cost", &format!("{}", 10 + *counter % 90));
        let skewed_out = config.skew > 0.0 && i > 0 && rng.gen_bool(config.skew);
        if depth_left > 0 && !skewed_out && rng.gen_bool(config.recursion_probability) {
            let sub = b.child(part, "assembly");
            emit_assembly(config, rng, b, counter, sub, depth_left - 1);
        }
    }
}

/// Generates a pathological-depth bom document: one product whose single
/// part chain nests `depth` sub-assemblies. Built **iteratively**, so the
/// generator itself never overflows; every part on the chain is domestic
/// (so deep recursion and view visibility compose).
pub fn generate_deep_bom(depth: usize, seed: u64) -> XmlTree {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root("catalog");
    let product = b.child(root, "product");
    b.child_with_text(product, "pid", "P-deep");
    let mut anchor = product;
    for level in 0..depth.max(1) {
        let assembly = b.child(anchor, "assembly");
        let part = b.child(assembly, "part");
        b.child_with_text(part, "pnum", &format!("N-{level}"));
        // An occasional non-domestic link makes the view chain shorter than
        // the document chain without changing its unbounded depth.
        let origin = if rng.gen_bool(0.95) {
            DOMESTIC
        } else {
            "overseas"
        };
        b.child_with_text(part, "origin", origin);
        b.child_with_text(part, "cost", &format!("{}", level % 97));
        anchor = part;
    }
    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::domains::bom_document_dtd;

    #[test]
    fn generated_documents_conform_to_the_dtd() {
        let doc = generate_bom(&BomConfig::default());
        bom_document_dtd().validate(&doc).unwrap();
        doc.check_consistency().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_bom(&BomConfig::default());
        let b = generate_bom(&BomConfig::default());
        assert_eq!(smoqe_xml::to_xml_string(&a), smoqe_xml::to_xml_string(&b));
    }

    #[test]
    fn deep_generator_reaches_the_requested_depth() {
        let doc = generate_deep_bom(200, 7);
        // catalog/product + 200 × (assembly/part) + leaf text depth.
        assert!(doc.max_depth() >= 400);
        bom_document_dtd().validate(&doc).unwrap();
    }

    #[test]
    fn skew_concentrates_recursion_on_the_first_part() {
        let skewed = generate_bom(&BomConfig {
            products: 2,
            max_assembly_depth: 6,
            parts_per_assembly: 4,
            recursion_probability: 1.0,
            skew: 1.0,
            ..Default::default()
        });
        bom_document_dtd().validate(&skewed).unwrap();
        let uniform = generate_bom(&BomConfig {
            products: 2,
            max_assembly_depth: 6,
            parts_per_assembly: 4,
            recursion_probability: 1.0,
            skew: 0.0,
            ..Default::default()
        });
        assert!(
            skewed.len() < uniform.len(),
            "skew prunes sibling recursion: {} vs {}",
            skewed.len(),
            uniform.len()
        );
        assert_eq!(skewed.max_depth(), uniform.max_depth());
    }
}
