//! Differential suite for incremental HyPE re-evaluation
//! (`smoqe_hype::incremental`): after every step of an edit script —
//! random or hand-picked — the [`IncrementalEvaluator`]'s spliced result
//! must be **bit-identical** (answers, per-query `HypeStats`, aggregate
//! `BatchStats`) to evaluating the edited document from scratch, at every
//! tested thread budget; and the edited arena must keep its structural
//! invariants (`check_consistency`) at every step.
//!
//! Documents come from both toxgene generators: the hospital generator and
//! the DTD-random generator over the paper's hospital document DTD. Edit
//! scripts mix inserts (some introducing brand-new labels), deletes and
//! replaces anywhere in the live tree. A proptest drives the same harness
//! over proptest-generated script shapes.

use std::sync::Arc;

use integration_tests::domain_corpus_irs;
use proptest::prelude::*;
use smoqe_automata::{compile_query, CompiledMfa};
use smoqe_hype::{
    evaluate_tree, BatchResult, CompiledBatchQuery, IncrementalEvaluator, IncrementalQuery,
};
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{
    all_domains, generate_from_dtd, generate_hospital, DocShape, DtdGenConfig, HospitalConfig,
};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::{labels_fingerprint, parse_document, EditOp, NodeId, XmlTree};
use smoqe_xpath::parse_path;

/// The thread budgets under test, mirroring the parallel differential
/// suite: degenerate, small pool, pool larger than most shard counts.
const BUDGETS: &[usize] = &[1, 2, 8];

/// Queries posed over the evolving documents: child steps, descendant
/// wildcards, filters with text predicates, negation and recursion.
const PROBE_QUERIES: &[&str] = &[
    "department/patient/pname",
    "//diagnosis",
    "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
    "department/patient[not(visit/treatment/test)]",
    "(department/patient/parent/patient)*",
];

/// Insert payloads: hospital-vocabulary subtrees plus two that introduce
/// labels the documents have never interned (exercising interner growth and
/// fingerprint advancement mid-script).
const PAYLOADS: &[&str] = &[
    "<patient><pname>Zed</pname></patient>",
    "<department><patient><pname>Quinn</pname><visit><treatment><test/></treatment></visit></patient></department>",
    "<visit><treatment><medication><diagnosis>heart disease</diagnosis></medication></treatment></visit>",
    "<pname>Solo</pname>",
    "<annex>audit trail</annex>",
    "<wing><ward>w1</ward><ward>w2</ward></wing>",
];

fn probes() -> Vec<IncrementalQuery> {
    PROBE_QUERIES
        .iter()
        .map(|q| {
            IncrementalQuery::new(Arc::new(CompiledMfa::new(&compile_query(
                &parse_path(q).unwrap(),
            ))))
        })
        .collect()
}

/// The from-scratch oracle: the parallel batch evaluator at one thread over
/// the *edited* tree (itself differentially pinned to the sequential
/// engines by `parallel_differential`).
fn assert_matches_scratch(
    tree: &XmlTree,
    context: NodeId,
    queries: &[IncrementalQuery],
    got: &BatchResult,
    label: &str,
) {
    let scratch: Vec<CompiledBatchQuery> = queries
        .iter()
        .map(|q| CompiledBatchQuery::new(Arc::clone(&q.compiled)))
        .collect();
    let want = evaluate_tree(tree, context, &scratch, 1);
    assert_eq!(got.stats, want.stats, "aggregate BatchStats ({label})");
    for (i, (g, w)) in got.results.iter().zip(&want.results).enumerate() {
        assert_eq!(
            g.answers, w.answers,
            "answers differ on `{}` ({label})",
            PROBE_QUERIES[i]
        );
        assert_eq!(
            g.stats, w.stats,
            "HypeStats differ on `{}` ({label})",
            PROBE_QUERIES[i]
        );
    }
}

/// A tiny deterministic xorshift64* — enough entropy to drive edit-site
/// selection without pulling a RNG dependency into the test crate.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// The hospital-vocabulary payload set, parsed once.
fn hospital_payloads() -> Vec<XmlTree> {
    PAYLOADS.iter().map(|p| parse_document(p).unwrap()).collect()
}

/// Edit payloads spelled in `dtd`'s own element vocabulary — single
/// elements and two-level nests, destined for arbitrary (usually
/// DTD-violating) positions — plus one label no registered DTD defines,
/// exercising interner growth mid-script in every domain.
fn domain_payloads(dtd: &smoqe_xml::Dtd) -> Vec<XmlTree> {
    let names = dtd.element_types();
    let mut out = Vec::new();
    for pair in names.chunks(2) {
        let payload = match *pair {
            [a, b] => format!("<{a}><{b}>fuzz</{b}></{a}>"),
            [a] => format!("<{a}>fuzz</{a}>"),
            _ => unreachable!("chunks(2) yields 1- or 2-element windows"),
        };
        out.push(parse_document(&payload).unwrap());
    }
    out.push(parse_document("<annex-from-nowhere>alien label</annex-from-nowhere>").unwrap());
    out
}

/// Generates one valid [`EditOp`] against the current tree state. The
/// evaluation context is always the root here, so any live non-root node is
/// fair game for delete/replace and any live node can parent an insert.
fn random_op(rng: &mut Rng, tree: &XmlTree, payloads: &[XmlTree]) -> EditOp {
    let live: Vec<NodeId> = tree.node_ids().filter(|&n| tree.is_live(n)).collect();
    let non_root: Vec<NodeId> = live.iter().copied().filter(|&n| n != tree.root()).collect();
    let choice = rng.below(4);
    if choice >= 2 && !non_root.is_empty() {
        let node = non_root[rng.below(non_root.len())];
        if choice == 2 {
            return EditOp::Delete { node };
        }
        return EditOp::Replace {
            node,
            subtree: payloads[rng.below(payloads.len())].clone(),
        };
    }
    let parent = live[rng.below(live.len())];
    let position = rng.below(tree.children(parent).len() + 1);
    EditOp::Insert {
        parent,
        position,
        subtree: payloads[rng.below(payloads.len())].clone(),
    }
}

/// Generates a multi-op script that is valid *as a sequence*: each op is
/// drawn against a scratch clone that has the preceding ops applied, so a
/// later op never targets a node an earlier op tombstoned.
fn random_script(rng: &mut Rng, tree: &XmlTree, payloads: &[XmlTree], len: usize) -> Vec<EditOp> {
    let mut probe = tree.clone();
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let op = random_op(rng, &probe, payloads);
        probe.apply(&op).expect("generated ops are valid in sequence");
        ops.push(op);
    }
    ops
}

/// Runs `steps` random script applications over `tree` at every thread
/// budget, comparing against the from-scratch oracle after each step.
fn drive_random_scripts(make_tree: impl Fn() -> XmlTree, seed: u64, steps: usize) {
    let payloads = hospital_payloads();
    for &threads in BUDGETS {
        let mut tree = make_tree();
        let queries = probes();
        let (mut eval, first) =
            IncrementalEvaluator::new(&tree, tree.root(), queries.clone(), threads);
        assert_matches_scratch(&tree, tree.root(), &queries, &first, "initial");
        let mut rng = Rng(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(threads as u64 + 1)));
        for step in 0..steps {
            let len = 1 + rng.below(3);
            let ops = random_script(&mut rng, &tree, &payloads, len);
            let result = eval
                .apply_edits(&mut tree, &ops, threads)
                .expect("generated scripts never touch the root-context invariants");
            tree.check_consistency().unwrap();
            assert_matches_scratch(
                &tree,
                eval.context(),
                &queries,
                &result,
                &format!("step {step}, {threads} thread(s)"),
            );
        }
    }
}

#[test]
fn random_scripts_on_hospital_documents_stay_bit_identical() {
    drive_random_scripts(
        || {
            generate_hospital(&HospitalConfig {
                patients: 12,
                departments: 3,
                heart_disease_fraction: 0.4,
                max_ancestor_depth: 2,
                sibling_probability: 0.35,
                visits_per_patient: 2,
                test_visit_fraction: 0.3,
                seed: 11,
            })
        },
        0xDEC0DE,
        8,
    );
}

#[test]
fn random_scripts_on_dtd_random_documents_stay_bit_identical() {
    let dtd = hospital_document_dtd();
    for seed in [3u64, 9] {
        let dtd = dtd.clone();
        drive_random_scripts(
            move || {
                generate_from_dtd(
                    &dtd,
                    &DtdGenConfig {
                        max_depth: 8,
                        max_star_repeat: 3,
                        seed,
                        ..Default::default()
                    },
                )
                .expect("the hospital DTD generates within depth 8")
            },
            seed.wrapping_mul(0xA5A5_A5A5),
            6,
        );
    }
}

// ---------------------------------------------------------------------------
// Registry sweep: every domain, domain-vocabulary edit scripts, the whole
// per-domain corpus (rewritten view queries included) as the probe set.
// ---------------------------------------------------------------------------

#[test]
fn random_scripts_on_every_domain_stay_bit_identical() {
    for (d, domain) in all_domains().into_iter().enumerate() {
        let payloads = domain_payloads(domain.document_dtd());
        let irs = domain_corpus_irs(&domain);
        let queries: Vec<IncrementalQuery> = irs
            .iter()
            .map(|(_, ir)| IncrementalQuery::new(Arc::clone(ir)))
            .collect();
        let scratch: Vec<CompiledBatchQuery> = queries
            .iter()
            .map(|q| CompiledBatchQuery::new(Arc::clone(&q.compiled)))
            .collect();
        for &threads in BUDGETS {
            let mut tree = domain.generate(DocShape::Standard, 1, STANDARD_SEED);
            let (mut eval, _) =
                IncrementalEvaluator::new(&tree, tree.root(), queries.clone(), threads);
            let mut rng = Rng(0xD0_17_F0_0D ^ ((d as u64 + 1) << 8) ^ threads as u64);
            for step in 0..4 {
                let len = 1 + rng.below(3);
                let ops = random_script(&mut rng, &tree, &payloads, len);
                let result = eval
                    .apply_edits(&mut tree, &ops, threads)
                    .expect("generated scripts never touch the root-context invariants");
                tree.check_consistency().unwrap();
                let want = evaluate_tree(&tree, eval.context(), &scratch, 1);
                assert_eq!(
                    result.stats, want.stats,
                    "{}: aggregate stats differ at step {step} ({threads}t)",
                    domain.name
                );
                for (i, (g, w)) in result.results.iter().zip(&want.results).enumerate() {
                    assert_eq!(
                        g.answers, w.answers,
                        "answers differ on `{}` at step {step} ({threads}t)",
                        irs[i].0
                    );
                    assert_eq!(
                        g.stats, w.stats,
                        "stats differ on `{}` at step {step} ({threads}t)",
                        irs[i].0
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Hand-picked edit edge cases.
// ---------------------------------------------------------------------------

#[test]
fn deleting_the_roots_last_child_leaves_a_leaf_context() {
    for &threads in BUDGETS {
        let mut tree = parse_document(
            "<hospital><department><patient><pname>A</pname></patient></department></hospital>",
        )
        .unwrap();
        let queries = probes();
        let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries.clone(), threads);
        let dept = tree.children(tree.root())[0];
        let result = eval
            .apply_edits(&mut tree, &[EditOp::Delete { node: dept }], threads)
            .unwrap();
        assert_eq!(eval.cached_shards(), 0, "no top-level subtrees remain");
        assert_eq!(tree.children(tree.root()).len(), 0);
        tree.check_consistency().unwrap();
        assert_matches_scratch(&tree, eval.context(), &queries, &result, "childless root");
        // All but the Kleene-star probe (which matches the context itself
        // through zero iterations) are now answerless.
        assert!(result.results[..4].iter().all(|r| r.answers.is_empty()));
        // The leaf context grows children again without a hitch.
        let op = EditOp::Insert {
            parent: tree.root(),
            position: 0,
            subtree: parse_document("<department><patient><pname>B</pname></patient></department>")
                .unwrap(),
        };
        let result = eval.apply_edits(&mut tree, &[op], threads).unwrap();
        assert_matches_scratch(&tree, eval.context(), &queries, &result, "regrown root");
    }
}

#[test]
fn replacing_the_entire_context_subtree_reroots_the_evaluator() {
    for &threads in BUDGETS {
        let mut tree = generate_hospital(&HospitalConfig {
            patients: 6,
            departments: 2,
            seed: 5,
            ..Default::default()
        });
        // Context is a *department*, not the document root: replacing it
        // swaps out the whole evaluation subtree while the document keeps
        // its surrounding structure.
        let dept = tree.children(tree.root())[0];
        let queries: Vec<IncrementalQuery> = ["patient/pname", "//diagnosis"]
            .iter()
            .map(|q| {
                IncrementalQuery::new(Arc::new(CompiledMfa::new(&compile_query(
                    &parse_path(q).unwrap(),
                ))))
            })
            .collect();
        let (mut eval, _) = IncrementalEvaluator::new(&tree, dept, queries.clone(), threads);
        let op = EditOp::Replace {
            node: dept,
            subtree: parse_document(
                "<department><patient><pname>Replacement</pname></patient></department>",
            )
            .unwrap(),
        };
        let result = eval.apply_edits(&mut tree, &[op], threads).unwrap();
        tree.check_consistency().unwrap();
        assert_ne!(eval.context(), dept, "evaluator re-rooted at the replacement");
        assert!(tree.is_live(eval.context()));
        let scratch: Vec<CompiledBatchQuery> = queries
            .iter()
            .map(|q| CompiledBatchQuery::new(Arc::clone(&q.compiled)))
            .collect();
        let want = evaluate_tree(&tree, eval.context(), &scratch, 1);
        assert_eq!(result.stats, want.stats, "@{threads}t");
        for (g, w) in result.results.iter().zip(&want.results) {
            assert_eq!(g.answers, w.answers);
            assert_eq!(g.stats, w.stats);
        }
    }
}

#[test]
fn inserting_into_an_empty_document_finds_the_first_answers() {
    for &threads in BUDGETS {
        let mut tree = parse_document("<hospital/>").unwrap();
        let queries = probes();
        let (mut eval, first) =
            IncrementalEvaluator::new(&tree, tree.root(), queries.clone(), threads);
        // All but the Kleene-star probe (which matches the context itself
        // through zero iterations) start answerless.
        assert!(first.results[..4].iter().all(|r| r.answers.is_empty()));
        assert_eq!(eval.cached_shards(), 0);
        let op = EditOp::Insert {
            parent: tree.root(),
            position: 0,
            subtree: parse_document(
                "<department><patient><pname>First</pname><visit><treatment><medication>\
                 <diagnosis>heart disease</diagnosis></medication></treatment></visit>\
                 </patient></department>",
            )
            .unwrap(),
        };
        let result = eval.apply_edits(&mut tree, &[op], threads).unwrap();
        tree.check_consistency().unwrap();
        assert_eq!(eval.cached_shards(), 1);
        assert_matches_scratch(&tree, eval.context(), &queries, &result, "first insert");
        assert!(
            !result.results[0].answers.is_empty(),
            "`department/patient/pname` matches the inserted subtree"
        );
    }
}

#[test]
fn insert_then_delete_round_trip_restores_fingerprint_and_answers() {
    for &threads in BUDGETS {
        let mut tree = generate_hospital(&HospitalConfig {
            patients: 8,
            departments: 2,
            seed: 21,
            ..Default::default()
        });
        let original_fingerprint = labels_fingerprint(tree.labels());
        let queries = probes();
        let (mut eval, first) =
            IncrementalEvaluator::new(&tree, tree.root(), queries.clone(), threads);
        // Insert a payload spelled entirely in already-interned labels…
        let op = EditOp::Insert {
            parent: tree.root(),
            position: 0,
            subtree: parse_document(
                "<department><patient><pname>Transient</pname></patient></department>",
            )
            .unwrap(),
        };
        let mid = eval.apply_edits(&mut tree, &[op], threads).unwrap();
        assert_matches_scratch(&tree, eval.context(), &queries, &mid, "after insert");
        assert_ne!(
            mid.stats, first.stats,
            "the insert is visible before the round trip completes"
        );
        // …then delete exactly the inserted subtree.
        let inserted = tree.children(tree.root())[0];
        let result = eval
            .apply_edits(&mut tree, &[EditOp::Delete { node: inserted }], threads)
            .unwrap();
        tree.check_consistency().unwrap();
        assert_matches_scratch(&tree, eval.context(), &queries, &result, "after round trip");
        assert_eq!(
            labels_fingerprint(tree.labels()),
            original_fingerprint,
            "no new labels: the fingerprint round-trips"
        );
        for (r, f) in result.results.iter().zip(&first.results) {
            assert_eq!(r.answers, f.answers, "answers round-trip to the originals");
            assert_eq!(r.stats, f.stats, "stats round-trip to the originals");
        }
        assert_eq!(result.stats, first.stats, "aggregate stats round-trip");
    }
}

// ---------------------------------------------------------------------------
// Property test: proptest-shaped documents × scripts × budgets.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 10,
        .. ProptestConfig::default()
    })]

    /// For any generated document, any script seed and any tested thread
    /// budget, incremental re-evaluation is indistinguishable from
    /// from-scratch evaluation after every step.
    #[test]
    fn incremental_equals_scratch_on_generated_scripts(
        patients in 0usize..10,
        departments in 1usize..4,
        doc_seed in 0u64..500,
        script_seed in 0u64..10_000,
        steps in 1usize..5,
    ) {
        let config = HospitalConfig {
            patients,
            departments,
            heart_disease_fraction: 0.4,
            max_ancestor_depth: 2,
            sibling_probability: 0.35,
            visits_per_patient: 1,
            test_visit_fraction: 0.3,
            seed: doc_seed,
        };
        for &threads in BUDGETS {
            let mut tree = generate_hospital(&config);
            let queries = probes();
            let (mut eval, _) =
                IncrementalEvaluator::new(&tree, tree.root(), queries.clone(), threads);
            let mut rng = Rng(script_seed.wrapping_mul(2).wrapping_add(threads as u64) | 1);
            let payloads = hospital_payloads();
            for step in 0..steps {
                let len = 1 + rng.below(2);
                let ops = random_script(&mut rng, &tree, &payloads, len);
                let result = eval.apply_edits(&mut tree, &ops, threads).unwrap();
                tree.check_consistency().unwrap();
                let scratch: Vec<CompiledBatchQuery> = queries
                    .iter()
                    .map(|q| CompiledBatchQuery::new(Arc::clone(&q.compiled)))
                    .collect();
                let want = evaluate_tree(&tree, eval.context(), &scratch, 1);
                prop_assert!(
                    result.stats == want.stats,
                    "aggregate stats differ at step {} ({} threads)",
                    step,
                    threads
                );
                for (i, (g, w)) in result.results.iter().zip(&want.results).enumerate() {
                    prop_assert!(
                        g.answers == w.answers,
                        "answers differ on `{}` at step {} ({} threads)",
                        PROBE_QUERIES[i], step, threads
                    );
                    prop_assert!(
                        g.stats == w.stats,
                        "stats differ on `{}` at step {} ({} threads)",
                        PROBE_QUERIES[i], step, threads
                    );
                }
            }
        }
    }
}
