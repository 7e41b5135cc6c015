//! Generic DTD-driven random document generation.
//!
//! Given any DTD in the paper's normal form, this module generates random
//! conforming documents: starred children get a random repetition count,
//! choice productions pick a random alternative, text elements get short
//! random strings drawn from a small vocabulary (so that equality filters
//! have non-trivial selectivity). Recursion is bounded by a depth budget;
//! once exhausted, starred/recursive children are emitted zero times where
//! the DTD allows it.
//!
//! The property-based tests use this generator to produce arbitrary inputs
//! for the differential testing of the evaluators and of the rewriting
//! pipeline.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use smoqe_xml::{ContentModel, Dtd, NodeId, XmlTree, XmlTreeBuilder};

/// Configuration for the generic generator.
#[derive(Debug, Clone)]
pub struct DtdGenConfig {
    /// Maximum element depth of the generated tree.
    pub max_depth: usize,
    /// Maximum repetition of a starred child.
    pub max_star_repeat: usize,
    /// Vocabulary used for PCDATA content.
    pub text_vocabulary: Vec<String>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DtdGenConfig {
    fn default() -> Self {
        DtdGenConfig {
            max_depth: 8,
            max_star_repeat: 3,
            text_vocabulary: vec![
                "heart disease".to_owned(),
                "lung disease".to_owned(),
                "alpha".to_owned(),
                "beta".to_owned(),
                "gamma".to_owned(),
            ],
            seed: 7,
        }
    }
}

/// Generates a random document conforming to `dtd`.
///
/// Returns `None` when the depth budget makes it impossible to emit a
/// conforming document (e.g. a mandatory recursive child at depth 0) — the
/// caller (typically a property test) simply retries with another seed or a
/// larger budget.
pub fn generate_from_dtd(dtd: &Dtd, config: &DtdGenConfig) -> Option<XmlTree> {
    dtd.check_well_formed().ok()?;
    let min_depth = minimum_depths(dtd);
    if min_depth[&dtd.root().to_owned()] > config.max_depth {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = XmlTreeBuilder::new();
    let root = b.root(dtd.root());
    let ok = fill(
        dtd,
        config,
        &min_depth,
        &mut rng,
        &mut b,
        root,
        dtd.root(),
        config.max_depth,
    );
    if ok {
        let tree = b.finish();
        dtd.validate(&tree).ok()?;
        Some(tree)
    } else {
        None
    }
}

/// The minimum tree depth needed to emit a conforming element of each type:
/// `1` for text/empty types, `1 + max` over mandatory sequence children,
/// `1 + min` over choice alternatives. Starred children contribute nothing
/// (they may be repeated zero times). Computed as a decreasing fix-point so
/// recursive types converge to their cheapest unfolding.
fn minimum_depths(dtd: &Dtd) -> std::collections::BTreeMap<String, usize> {
    let types: Vec<String> = dtd.element_types().iter().map(|s| s.to_string()).collect();
    let unknown = usize::MAX / 2;
    let mut depth: std::collections::BTreeMap<String, usize> =
        types.iter().map(|t| (t.clone(), unknown)).collect();
    loop {
        let mut changed = false;
        for ty in &types {
            let model = dtd.production(ty).expect("well-formed DTD");
            let candidate = match model {
                ContentModel::Text | ContentModel::Empty => 1,
                ContentModel::Sequence(children) => {
                    1 + children
                        .iter()
                        .filter(|c| !c.starred)
                        .map(|c| depth[&c.ty])
                        .max()
                        .unwrap_or(0)
                }
                ContentModel::Choice(options) => {
                    1 + options.iter().map(|o| depth[o]).min().unwrap_or(0)
                }
            };
            let candidate = candidate.min(unknown);
            if candidate < depth[ty] {
                depth.insert(ty.clone(), candidate);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    depth
}

/// Recursively fills `node` (of type `ty`) with conforming content.
/// Returns `false` when the depth budget cannot accommodate mandatory
/// children.
#[allow(clippy::too_many_arguments)]
fn fill(
    dtd: &Dtd,
    config: &DtdGenConfig,
    min_depth: &std::collections::BTreeMap<String, usize>,
    rng: &mut StdRng,
    b: &mut XmlTreeBuilder,
    node: NodeId,
    ty: &str,
    depth_left: usize,
) -> bool {
    let model = dtd.production(ty).cloned().expect("well-formed DTD");
    match model {
        ContentModel::Empty => true,
        ContentModel::Text => {
            let word = &config.text_vocabulary[rng.gen_range(0..config.text_vocabulary.len())];
            b.set_text(node, word);
            true
        }
        ContentModel::Sequence(children) => {
            for child in children {
                let fits = min_depth[&child.ty] < depth_left;
                let repeats = if child.starred {
                    if fits {
                        rng.gen_range(0..=config.max_star_repeat)
                    } else {
                        0
                    }
                } else {
                    if !fits {
                        return false;
                    }
                    1
                };
                for _ in 0..repeats {
                    let c = b.child(node, &child.ty);
                    if !fill(dtd, config, min_depth, rng, b, c, &child.ty, depth_left - 1) {
                        return false;
                    }
                }
            }
            true
        }
        ContentModel::Choice(options) => {
            if depth_left == 0 {
                return false;
            }
            // Only pick alternatives that still fit in the depth budget.
            let viable: Vec<&String> = options
                .iter()
                .filter(|o| min_depth[o.as_str()] < depth_left)
                .collect();
            if viable.is_empty() {
                return false;
            }
            let ty = viable[rng.gen_range(0..viable.len())];
            let c = b.child(node, ty);
            fill(dtd, config, min_depth, rng, b, c, ty, depth_left - 1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::hospital::{hospital_document_dtd, hospital_view_dtd};

    #[test]
    fn generates_conforming_hospital_documents() {
        let dtd = hospital_document_dtd();
        let mut produced = 0;
        for seed in 0..20 {
            let config = DtdGenConfig {
                seed,
                max_depth: 10,
                ..Default::default()
            };
            if let Some(tree) = generate_from_dtd(&dtd, &config) {
                dtd.validate(&tree).unwrap();
                produced += 1;
            }
        }
        assert!(
            produced > 5,
            "generator should usually succeed ({produced}/20)"
        );
    }

    #[test]
    fn generates_conforming_view_documents() {
        let dtd = hospital_view_dtd();
        let config = DtdGenConfig {
            seed: 3,
            ..Default::default()
        };
        let tree = generate_from_dtd(&dtd, &config).expect("view DTD is easy to satisfy");
        dtd.validate(&tree).unwrap();
    }

    #[test]
    fn depth_budget_is_respected() {
        let dtd = hospital_document_dtd();
        for seed in 0..10 {
            let config = DtdGenConfig {
                seed,
                max_depth: 9,
                ..Default::default()
            };
            if let Some(tree) = generate_from_dtd(&dtd, &config) {
                assert!(tree.max_depth() <= 9 + 1);
            }
        }
    }

    #[test]
    fn same_seed_same_document() {
        let dtd = hospital_view_dtd();
        let config = DtdGenConfig::default();
        let a = generate_from_dtd(&dtd, &config);
        let b = generate_from_dtd(&dtd, &config);
        match (a, b) {
            (Some(a), Some(b)) => {
                assert_eq!(smoqe_xml::to_xml_string(&a), smoqe_xml::to_xml_string(&b))
            }
            (None, None) => {}
            _ => panic!("determinism violated"),
        }
    }
}
