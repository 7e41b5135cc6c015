//! Property-based tests (proptest) over randomly generated documents and
//! randomly generated queries.
//!
//! Invariants exercised:
//!
//! 1. **Evaluator equivalence** — the reference interpreter, the naive MFA
//!    evaluator and HyPE agree on arbitrary documents and queries.
//! 2. **Rewriting correctness** — on arbitrary documents, answering a view
//!    query via rewrite+HyPE equals materialize-then-evaluate.
//! 3. **Parser/pretty-printer round trip** — printing any generated query
//!    and re-parsing it yields the same AST.
//! 4. **Structural invariants** — generated documents conform to their DTD
//!    and have consistent parent/child links, and random edit sequences
//!    keep those links, the live counter and every subtree size consistent.

use proptest::prelude::*;

use integration_tests::hype_at;
use smoqe_automata::{compile_query, evaluate_mfa};
use smoqe_rewrite::rewrite_to_mfa;
use smoqe_toxgene::{generate_from_dtd, generate_hospital, DtdGenConfig, HospitalConfig};
use smoqe_views::{hospital_view, materialize};
use smoqe_xml::hospital::{hospital_document_dtd, hospital_view_dtd};
use smoqe_xml::NodeId;
use smoqe_xpath::{evaluate, parse_path, Path, Pred};

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

/// Labels of the view DTD — used for generating queries over the view.
const VIEW_LABELS: &[&str] = &[
    "patient",
    "parent",
    "record",
    "diagnosis",
    "empty",
    "hospital",
];
/// Text constants that actually occur in generated documents.
const TEXTS: &[&str] = &["heart disease", "lung disease", "alpha", "beta"];

/// Strategy for paths of bounded depth over the view alphabet.
fn path_strategy(depth: u32) -> impl Strategy<Value = Path> {
    let leaf = prop_oneof![
        4 => prop::sample::select(VIEW_LABELS).prop_map(Path::label),
        1 => Just(Path::Empty),
        1 => Just(Path::AnyLabel),
        1 => Just(Path::DescendantOrSelf),
    ];
    leaf.prop_recursive(depth, 24, 3, |inner| {
        prop_oneof![
            3 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Path::Seq(Box::new(a), Box::new(b))),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Path::Union(Box::new(a), Box::new(b))),
            1 => inner.clone().prop_map(|p| Path::Star(Box::new(p))),
            2 => (inner.clone(), pred_strategy_from(inner))
                .prop_map(|(p, q)| Path::Filter(Box::new(p), Box::new(q))),
        ]
    })
}

/// Strategy for predicates built from already-available path strategies.
fn pred_strategy_from(paths: impl Strategy<Value = Path> + Clone + 'static) -> BoxedStrategy<Pred> {
    let exists = paths.clone().prop_map(Pred::Exists);
    let texteq =
        (paths, prop::sample::select(TEXTS)).prop_map(|(p, c)| Pred::TextEq(p, c.to_owned()));
    let atom = prop_oneof![3 => exists, 2 => texteq].boxed();
    atom.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            1 => inner.clone().prop_map(|q| Pred::Not(Box::new(q))),
            1 => (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Pred::And(Box::new(a), Box::new(b))),
            1 => (inner.clone(), inner)
                .prop_map(|(a, b)| Pred::Or(Box::new(a), Box::new(b))),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Reference interpreter == naive MFA evaluator == HyPE on random
    /// documents conforming to the *view* DTD and random queries.
    #[test]
    fn evaluators_agree_on_random_view_documents(
        seed in 0u64..500,
        query in path_strategy(3),
    ) {
        let dtd = hospital_view_dtd();
        let config = DtdGenConfig { seed, max_depth: 9, ..Default::default() };
        let Some(doc) = generate_from_dtd(&dtd, &config) else {
            return Ok(()); // depth budget unlucky for this seed
        };
        let reference = evaluate(&doc, doc.root(), &query);
        let mfa = compile_query(&query);
        prop_assert_eq!(&evaluate_mfa(&doc, &mfa), &reference);
        let hype = hype_at(&doc, doc.root(), &mfa, None);
        prop_assert_eq!(&hype.answers, &reference);
        let index = smoqe_hype::ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = hype_at(&doc, doc.root(), &mfa, Some(&index));
        prop_assert_eq!(&opt.answers, &reference);
    }

    /// Rewrite-then-HyPE == materialize-then-evaluate for random hospital
    /// documents and random queries on the σ₀ view.
    #[test]
    fn rewriting_is_correct_on_random_documents(
        patients in 1usize..30,
        seed in 0u64..500,
        ancestor_depth in 0usize..3,
        heart_pct in 0u32..=100,
        query in path_strategy(2),
    ) {
        let doc = generate_hospital(&HospitalConfig {
            patients,
            seed,
            max_ancestor_depth: ancestor_depth,
            heart_disease_fraction: heart_pct as f64 / 100.0,
            ..Default::default()
        });
        let view = hospital_view();
        let materialized = materialize(&view, &doc).unwrap();
        let on_view = evaluate(&materialized.tree, materialized.tree.root(), &query);
        let expected = materialized.origins_of(&on_view);

        let mfa = rewrite_to_mfa(&query, &view).unwrap();
        let got = hype_at(&doc, doc.root(), &mfa, None);
        prop_assert_eq!(got.answers, expected);
    }

    /// Pretty-printing then re-parsing any generated query is the identity.
    #[test]
    fn parser_round_trips_generated_queries(query in path_strategy(3)) {
        let printed = query.to_string();
        let reparsed = parse_path(&printed)
            .unwrap_or_else(|e| panic!("re-parse of `{printed}` failed: {e}"));
        // Printing again must be a fixed point even if the ASTs differ in
        // association (the printer normalises associativity).
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Stronger, differential form of the round trip (PR 2 sweep):
    /// `parse(display(p))` must be the *same AST* as `p` up to algebraic
    /// normalisation — not merely print to the same string. This pins the
    /// operator/precedence corners (nested unions, `not(...)`, Kleene
    /// groups, `//` noise) that a print fixed-point alone cannot see, and is
    /// what makes normalized query text a sound cache key for the service
    /// layer.
    #[test]
    fn display_parse_round_trip_normalizes_to_the_same_ast(query in path_strategy(4)) {
        let printed = query.to_string();
        let reparsed = parse_path(&printed)
            .unwrap_or_else(|e| panic!("re-parse of `{printed}` failed: {e}"));
        let canonical = smoqe_xpath::normalize(&query);
        let canonical_reparsed = smoqe_xpath::normalize(&reparsed);
        if canonical_reparsed != canonical {
            panic!(
                "`{printed}` re-parses to a different normalized AST:\n  \
                 original:  {canonical}\n  reparsed:  {canonical_reparsed}"
            );
        }
        // Normalisation itself must stay idempotent on parsed input.
        prop_assert_eq!(smoqe_xpath::normalize(&canonical_reparsed), canonical);
    }

    /// Generated hospital documents always validate against the DTD and
    /// keep the arena consistent.
    #[test]
    fn generated_documents_are_well_formed(
        patients in 1usize..40,
        seed in 0u64..1000,
        sibling_pct in 0u32..=100,
    ) {
        let doc = generate_hospital(&HospitalConfig {
            patients,
            seed,
            sibling_probability: sibling_pct as f64 / 100.0,
            ..Default::default()
        });
        doc.check_consistency().unwrap();
        hospital_document_dtd().validate(&doc).unwrap();
    }

    /// Random insert / delete / replace sequences — the root included —
    /// keep the arena consistent after every step: parent/child links, the
    /// live counter and every node's subtree size.
    #[test]
    fn random_edit_sequences_keep_the_tree_consistent(seed in 0u64..1000, steps in 1usize..30) {
        let mut doc = generate_hospital(&HospitalConfig { patients: 4, seed, ..Default::default() });
        let mut rng = seed;
        for _ in 0..steps {
            let live: Vec<NodeId> = doc.descendants_or_self(doc.root());
            let target = live[pick(&mut rng, live.len())];
            let payload = generate_hospital(&HospitalConfig {
                patients: 1,
                seed: pick(&mut rng, 1000) as u64,
                ..Default::default()
            });
            match pick(&mut rng, 3) {
                0 => {
                    let position = pick(&mut rng, doc.children(target).len() + 1);
                    doc.insert_subtree(target, position, &payload).unwrap();
                }
                1 if target != doc.root() => {
                    doc.delete_subtree(target).unwrap();
                }
                _ => {
                    doc.replace_subtree(target, &payload).unwrap();
                }
            }
            doc.check_consistency().unwrap();
        }
        doc.compacted().check_consistency().unwrap();
    }

    /// XML serialisation round-trips through the parser.
    #[test]
    fn xml_serialisation_round_trips(patients in 1usize..15, seed in 0u64..200) {
        let doc = generate_hospital(&HospitalConfig { patients, seed, ..Default::default() });
        let xml = smoqe_xml::to_xml_string(&doc);
        let reparsed = smoqe_xml::parse_document(&xml).unwrap();
        prop_assert_eq!(doc.len(), reparsed.len());
        prop_assert_eq!(xml, smoqe_xml::to_xml_string(&reparsed));
    }

    /// The MFA produced by the rewriting algorithm respects the
    /// O(|Q|·|σ|·|DV|) size bound of Theorem 5.1 (with a small constant).
    #[test]
    fn rewritten_mfa_size_is_within_the_theorem_bound(query in path_strategy(2)) {
        let view = hospital_view();
        let mfa = rewrite_to_mfa(&query, &view).unwrap();
        let expanded = smoqe_xpath::expand_on_dtd(&query, view.view_dtd());
        let bound = 24 * expanded.size() * view.size() * view.view_dtd().size();
        prop_assert!(
            mfa.size() <= bound,
            "MFA size {} exceeds bound {} for query {}", mfa.size(), bound, query
        );
    }
}

/// A draw in `0..n` from a 64-bit LCG: the edit proptest's op choices.
fn pick(state: &mut u64, n: usize) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    ((*state >> 33) as usize) % n
}
