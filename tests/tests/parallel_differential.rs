//! Differential suite for the parallel sharded evaluator
//! (`smoqe_hype::parallel`): at every tested thread budget, parallel
//! evaluation must produce **identical answers and identical per-query
//! `HypeStats`** — and, for batches, identical aggregate `BatchStats` — to
//! the sequential compiled engines, over both query corpora, solo, batched,
//! and from every context node; plus shard-split/merge edge cases and a
//! property test over randomly generated toxgene documents.
//!
//! Parallelism is allowed to change exactly one observable: wall-clock
//! time. Everything else in the result is pinned here bit for bit.

use std::sync::Arc;

use integration_tests::{
    document_query_corpus, domain_corpus_irs, run_ir, standard_hospital_document,
    view_query_corpus,
};
use proptest::prelude::*;
use smoqe::SmoqeEngine;
use smoqe_automata::{compile_query, CompiledMfa};
use smoqe_hype::{evaluate_tree, CompiledBatchQuery, ReachabilityIndex};
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{all_domains, generate_hospital, HospitalConfig};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::{XmlTree, XmlTreeBuilder};
use smoqe_xpath::parse_path;

/// The thread budgets under test: the sequential walk, the smallest pool
/// (which already runs the planner, spines and grafting), and a pool larger
/// than most documents' top-level subtree counts.
const BUDGETS: &[usize] = &[1, 2, 8];

/// Both corpora as compiled execution IRs over the hospital *document*: the
/// document corpus compiles directly, the view corpus goes through the σ₀
/// rewriting (so sharding is also exercised on rewritten automata).
fn corpus_irs() -> Vec<(String, Arc<CompiledMfa>)> {
    let engine = SmoqeEngine::hospital_demo();
    let mut out = Vec::new();
    for query in document_query_corpus() {
        let mfa = compile_query(&parse_path(query).unwrap());
        out.push((format!("doc:{query}"), Arc::new(CompiledMfa::new(&mfa))));
    }
    for query in view_query_corpus() {
        let compiled = engine.compile(query).expect("view query rewrites");
        out.push((format!("view:{query}"), Arc::clone(compiled.compiled())));
    }
    out
}

#[test]
fn solo_parallel_matches_sequential_on_both_corpora() {
    let doc = standard_hospital_document();
    for (name, ir) in corpus_irs() {
        let sequential = run_ir(&doc, doc.root(), &ir, None, 1);
        for &threads in BUDGETS {
            let parallel = run_ir(&doc, doc.root(), &ir, None, threads);
            assert_eq!(
                parallel.answers, sequential.answers,
                "answers differ on `{name}` at {threads} thread(s)"
            );
            assert_eq!(
                parallel.stats, sequential.stats,
                "stats differ on `{name}` at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn solo_parallel_matches_sequential_with_indexes() {
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    for (name, ir) in corpus_irs() {
        for compressed in [false, true] {
            let index = ReachabilityIndex::for_compiled(&ir, &dtd, doc.labels(), compressed);
            let sequential = run_ir(&doc, doc.root(), &ir, Some(&index), 1);
            for &threads in BUDGETS {
                let parallel =
                    run_ir(&doc, doc.root(), &ir, Some(&index), threads);
                assert_eq!(
                    parallel.answers, sequential.answers,
                    "indexed answers differ on `{name}` (compressed={compressed}, {threads}t)"
                );
                assert_eq!(
                    parallel.stats, sequential.stats,
                    "indexed stats differ on `{name}` (compressed={compressed}, {threads}t)"
                );
            }
        }
    }
}

#[test]
fn batched_parallel_matches_sequential_per_query_and_in_aggregate() {
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    let irs = corpus_irs();

    // Plain batch over the full corpus.
    let queries: Vec<CompiledBatchQuery> = irs
        .iter()
        .map(|(_, ir)| CompiledBatchQuery::new(Arc::clone(ir)))
        .collect();
    let sequential = evaluate_tree(&doc, doc.root(), &queries, 1);
    for &threads in BUDGETS {
        let parallel = evaluate_tree(&doc, doc.root(), &queries, threads);
        assert_eq!(
            parallel.stats, sequential.stats,
            "aggregate batch stats differ at {threads} thread(s)"
        );
        for (i, (name, _)) in irs.iter().enumerate() {
            assert_eq!(
                parallel.results[i].answers, sequential.results[i].answers,
                "batched answers differ on `{name}` at {threads} thread(s)"
            );
            assert_eq!(
                parallel.results[i].stats, sequential.results[i].stats,
                "batched stats differ on `{name}` at {threads} thread(s)"
            );
        }
    }

    // Mixed batch: every other query carries an OptHyPE index, so shards
    // exercise per-query index pruning decisions side by side.
    let indexes: Vec<Option<ReachabilityIndex>> = irs
        .iter()
        .enumerate()
        .map(|(i, (_, ir))| {
            (i % 2 == 0).then(|| ReachabilityIndex::for_compiled(ir, &dtd, doc.labels(), false))
        })
        .collect();
    let queries: Vec<CompiledBatchQuery> = irs
        .iter()
        .zip(&indexes)
        .map(|((_, ir), idx)| match idx {
            Some(index) => CompiledBatchQuery::with_index(Arc::clone(ir), index),
            None => CompiledBatchQuery::new(Arc::clone(ir)),
        })
        .collect();
    let sequential = evaluate_tree(&doc, doc.root(), &queries, 1);
    for &threads in BUDGETS {
        let parallel = evaluate_tree(&doc, doc.root(), &queries, threads);
        assert_eq!(parallel.stats, sequential.stats, "mixed @{threads}t");
        for (i, (name, _)) in irs.iter().enumerate() {
            assert_eq!(
                parallel.results[i].answers, sequential.results[i].answers,
                "mixed batched answers differ on `{name}` at {threads} thread(s)"
            );
            assert_eq!(
                parallel.results[i].stats, sequential.results[i].stats,
                "mixed batched stats differ on `{name}` at {threads} thread(s)"
            );
        }
    }
}

#[test]
fn every_domain_and_shape_parallel_matches_sequential() {
    // Registry sweep: shard-split/merge invisibility on every registered
    // domain and every adversarial shape, solo and as one whole-corpus
    // batch per document, at every tested budget. The shapes matter here:
    // Deep yields single-chain documents (one shard), Skewed yields one
    // dominant shard the re-splitting planner has to break up.
    for domain in all_domains() {
        let irs = domain_corpus_irs(&domain);
        for &shape in domain.shapes {
            let doc = domain.generate(shape, 1, STANDARD_SEED);
            for (name, ir) in &irs {
                let sequential = run_ir(&doc, doc.root(), ir, None, 1);
                for &threads in BUDGETS {
                    let parallel = run_ir(&doc, doc.root(), ir, None, threads);
                    assert_eq!(
                        parallel.answers, sequential.answers,
                        "answers differ on `{name}` ({shape:?}, {threads}t)"
                    );
                    assert_eq!(
                        parallel.stats, sequential.stats,
                        "stats differ on `{name}` ({shape:?}, {threads}t)"
                    );
                }
            }

            let queries: Vec<CompiledBatchQuery> = irs
                .iter()
                .map(|(_, ir)| CompiledBatchQuery::new(Arc::clone(ir)))
                .collect();
            let sequential = evaluate_tree(&doc, doc.root(), &queries, 1);
            for &threads in BUDGETS {
                let parallel = evaluate_tree(&doc, doc.root(), &queries, threads);
                assert_eq!(
                    parallel.stats, sequential.stats,
                    "{}/{shape:?}: aggregate batch stats differ at {threads}t",
                    domain.name
                );
                for (i, (name, _)) in irs.iter().enumerate() {
                    assert_eq!(
                        parallel.results[i].answers, sequential.results[i].answers,
                        "batched answers differ on `{name}` ({shape:?}, {threads}t)"
                    );
                    assert_eq!(
                        parallel.results[i].stats, sequential.results[i].stats,
                        "batched stats differ on `{name}` ({shape:?}, {threads}t)"
                    );
                }
            }
        }
    }
}

#[test]
fn parallel_matches_sequential_from_every_context_node() {
    // Context-node evaluation varies the shard count from "all top-level
    // subtrees" down to zero (leaf contexts).
    let doc = generate_hospital(&HospitalConfig {
        patients: 6,
        max_ancestor_depth: 2,
        ..Default::default()
    });
    let probes = [
        "patient[visit]/pname | //diagnosis",
        "department/patient/pname",
        "(department/patient/parent/patient)*",
    ];
    for query in probes {
        let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path(query).unwrap())));
        for ctx in doc.node_ids() {
            let sequential = run_ir(&doc, ctx, &ir, None, 1);
            for &threads in BUDGETS {
                let parallel = run_ir(&doc, ctx, &ir, None, threads);
                assert_eq!(
                    parallel.answers, sequential.answers,
                    "answers differ on `{query}` at {ctx:?} ({threads}t)"
                );
                assert_eq!(
                    parallel.stats, sequential.stats,
                    "stats differ on `{query}` at {ctx:?} ({threads}t)"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-split/merge edge cases.
// ---------------------------------------------------------------------------

#[test]
fn single_node_document_has_nothing_to_shard() {
    let mut b = XmlTreeBuilder::new();
    b.root("hospital");
    let doc = b.finish();
    for query in ["hospital", "patient", "//diagnosis", "."] {
        let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path(query).unwrap())));
        let sequential = run_ir(&doc, doc.root(), &ir, None, 1);
        for &threads in BUDGETS {
            let parallel = run_ir(&doc, doc.root(), &ir, None, threads);
            assert_eq!(parallel.answers, sequential.answers, "`{query}` ({threads}t)");
            assert_eq!(parallel.stats, sequential.stats, "`{query}` ({threads}t)");
        }
    }
}

#[test]
fn depth_one_document_shards_into_leaf_subtrees() {
    let mut b = XmlTreeBuilder::new();
    let root = b.root("hospital");
    for i in 0..12 {
        b.child_with_text(root, "patient", &format!("p{i}"));
    }
    let doc = b.finish();
    for query in ["patient", "patient[text()='p7']", "doctor"] {
        let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path(query).unwrap())));
        let sequential = run_ir(&doc, doc.root(), &ir, None, 1);
        for &threads in BUDGETS {
            let parallel = run_ir(&doc, doc.root(), &ir, None, threads);
            assert_eq!(parallel.answers, sequential.answers, "`{query}` ({threads}t)");
            assert_eq!(parallel.stats, sequential.stats, "`{query}` ({threads}t)");
        }
    }
}

#[test]
fn fewer_subtrees_than_threads_caps_the_worker_pool() {
    // Two top-level subtrees, budgets up to 8: the pool must clamp to the
    // shard count and still merge exactly.
    let mut b = XmlTreeBuilder::new();
    let root = b.root("hospital");
    for _ in 0..2 {
        let dept = b.child(root, "department");
        for i in 0..5 {
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", &format!("n{i}"));
        }
    }
    let doc = b.finish();
    let ir = Arc::new(CompiledMfa::new(
        &compile_query(&parse_path("department/patient/pname").unwrap()),
    ));
    let sequential = run_ir(&doc, doc.root(), &ir, None, 1);
    for threads in [3, 8, 64] {
        let parallel = run_ir(&doc, doc.root(), &ir, None, threads);
        assert_eq!(parallel.answers, sequential.answers, "@{threads}t");
        assert_eq!(parallel.stats, sequential.stats, "@{threads}t");
    }
}

#[test]
fn answers_come_back_in_preorder_index_order() {
    // The merged BTreeSet must enumerate ascending pre-order NodeIds even
    // though shards finish in arbitrary order.
    let doc = standard_hospital_document();
    let ir = Arc::new(CompiledMfa::new(&compile_query(&parse_path("//diagnosis").unwrap())));
    let parallel = run_ir(&doc, doc.root(), &ir, None, 8);
    assert!(!parallel.answers.is_empty());
    let ids: Vec<_> = parallel.answers.iter().copied().collect();
    let mut sorted = ids.clone();
    sorted.sort();
    assert_eq!(ids, sorted, "BTreeSet iteration is ascending pre-order");
}

// ---------------------------------------------------------------------------
// Property test: random toxgene documents × thread budgets.
// ---------------------------------------------------------------------------

/// Structurally diverse generator configurations, including documents with
/// fewer top-level subtrees than the largest thread budget.
fn config_strategy() -> impl Strategy<Value = HospitalConfig> {
    ((0usize..16, 1usize..4, 0u64..1_000), (0usize..3, 1usize..3)).prop_map(
        |((patients, departments, seed), (depth, visits))| HospitalConfig {
            patients,
            departments,
            heart_disease_fraction: 0.4,
            max_ancestor_depth: depth,
            sibling_probability: 0.35,
            visits_per_patient: visits,
            test_visit_fraction: 0.3,
            seed,
        },
    )
}

/// A compact probe set covering filters, negation, recursion and wildcards.
const PROBE_QUERIES: &[&str] = &[
    "department/patient/pname",
    "//diagnosis",
    "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
    "department/patient[not(visit/treatment/test)]",
    "(department/patient/parent/patient)*",
    "department/patient[(parent/patient)*/visit]",
];

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    /// For any generated document and any tested thread budget, the
    /// shard-split/merge round-trip is invisible: answers (in pre-order
    /// index order) and statistics equal the sequential engines', solo and
    /// batched.
    #[test]
    fn parallel_equals_sequential_on_random_documents(config in config_strategy()) {
        let doc: XmlTree = generate_hospital(&config);
        let irs: Vec<Arc<CompiledMfa>> = PROBE_QUERIES
            .iter()
            .map(|q| Arc::new(CompiledMfa::new(&compile_query(&parse_path(q).unwrap()))))
            .collect();
        for (query, ir) in PROBE_QUERIES.iter().zip(&irs) {
            let sequential = run_ir(&doc, doc.root(), ir, None, 1);
            for &threads in BUDGETS {
                let parallel = run_ir(&doc, doc.root(), ir, None, threads);
                prop_assert!(
                    parallel.answers == sequential.answers,
                    "answers differ on `{}` at {} thread(s)",
                    query,
                    threads
                );
                prop_assert!(
                    parallel.stats == sequential.stats,
                    "stats differ on `{}` at {} thread(s): {:?} vs {:?}",
                    query,
                    threads,
                    parallel.stats,
                    sequential.stats
                );
            }
        }
        let queries: Vec<CompiledBatchQuery> = irs
            .iter()
            .map(|ir| CompiledBatchQuery::new(Arc::clone(ir)))
            .collect();
        let sequential = evaluate_tree(&doc, doc.root(), &queries, 1);
        for &threads in BUDGETS {
            let parallel = evaluate_tree(&doc, doc.root(), &queries, threads);
            prop_assert_eq!(&parallel.stats, &sequential.stats);
            for (i, query) in PROBE_QUERIES.iter().enumerate() {
                prop_assert!(
                    parallel.results[i].answers == sequential.results[i].answers,
                    "batched answers differ on `{}` at {} thread(s)",
                    query,
                    threads
                );
                prop_assert!(
                    parallel.results[i].stats == sequential.results[i].stats,
                    "batched stats differ on `{}` at {} thread(s)",
                    query,
                    threads
                );
            }
        }
    }
}
