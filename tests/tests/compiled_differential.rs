//! Differential suite for the `CompiledMfa` execution IR: over both query
//! corpora, the compiled engines must produce **identical answers and
//! identical statistics** to the interpreted reference engines
//! (`smoqe_hype::interpreted`, the pre-refactor implementation) — solo,
//! batched, and streaming, with and without OptHyPE(-C) indexes — plus a
//! property test over randomly generated toxgene documents.

use integration_tests::{
    compile_batch, document_query_corpus, domain_corpus_mfas, hype_at, standard_hospital_document,
    stream_batch, view_query_corpus,
};
use proptest::prelude::*;
use smoqe::SmoqeEngine;
use smoqe_automata::{compile_query, Mfa};
use smoqe_hype::interpreted::{self, BatchQuery};
use smoqe_hype::{evaluate_tree, ReachabilityIndex};
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{all_domains, generate_hospital, HospitalConfig};
use smoqe_xml::hospital::hospital_document_dtd;
use smoqe_xml::stream::TreeEvents;
use smoqe_xml::XmlTree;
use smoqe_xpath::parse_path;

/// Both corpora as compiled MFAs over the hospital *document*: the document
/// corpus compiles directly, the view corpus goes through the σ₀ rewriting
/// (so the differential check also covers rewritten automata, whose shapes
/// differ markedly from directly compiled ones).
fn corpus_mfas() -> Vec<(String, Mfa)> {
    let engine = SmoqeEngine::hospital_demo();
    let mut out = Vec::new();
    for query in document_query_corpus() {
        let mfa = compile_query(&parse_path(query).unwrap());
        out.push((format!("doc:{query}"), mfa));
    }
    for query in view_query_corpus() {
        let compiled = engine.compile(query).expect("view query rewrites");
        out.push((format!("view:{query}"), compiled.mfa().clone()));
    }
    out
}

#[test]
fn solo_compiled_matches_interpreted_on_both_corpora() {
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    for (name, mfa) in corpus_mfas() {
        let reference = interpreted::evaluate(&doc, &mfa);
        let compiled = hype_at(&doc, doc.root(), &mfa, None);
        assert_eq!(
            compiled.answers, reference.answers,
            "answers differ on `{name}`"
        );
        assert_eq!(compiled.stats, reference.stats, "stats differ on `{name}`");

        for compressed in [false, true] {
            let index = if compressed {
                ReachabilityIndex::new_compressed(&mfa, &dtd, doc.labels())
            } else {
                ReachabilityIndex::new(&mfa, &dtd, doc.labels())
            };
            let reference = interpreted::evaluate_at_with(&doc, doc.root(), &mfa, Some(&index));
            let compiled = hype_at(&doc, doc.root(), &mfa, Some(&index));
            assert_eq!(
                compiled.answers, reference.answers,
                "indexed answers differ on `{name}` (compressed={compressed})"
            );
            assert_eq!(
                compiled.stats, reference.stats,
                "indexed stats differ on `{name}` (compressed={compressed})"
            );
        }
    }
}

#[test]
fn batched_compiled_matches_interpreted_per_query_and_in_aggregate() {
    let doc = standard_hospital_document();
    let dtd = hospital_document_dtd();
    let mfas = corpus_mfas();

    // Plain batch over the full corpus in one pass.
    let queries: Vec<BatchQuery> = mfas.iter().map(|(_, m)| BatchQuery::new(m)).collect();
    let reference = interpreted::evaluate_batch(&doc, &queries);
    let compiled = evaluate_tree(&doc, doc.root(), &compile_batch(&queries), 1);
    assert_eq!(
        compiled.stats, reference.stats,
        "aggregate batch stats differ"
    );
    for (i, (name, _)) in mfas.iter().enumerate() {
        assert_eq!(
            compiled.results[i].answers, reference.results[i].answers,
            "batched answers differ on `{name}`"
        );
        assert_eq!(
            compiled.results[i].stats, reference.results[i].stats,
            "batched stats differ on `{name}`"
        );
    }

    // Mixed batch: every other query carries an OptHyPE index.
    let indexes: Vec<Option<ReachabilityIndex>> = mfas
        .iter()
        .enumerate()
        .map(|(i, (_, m))| (i % 2 == 0).then(|| ReachabilityIndex::new(m, &dtd, doc.labels())))
        .collect();
    let queries: Vec<BatchQuery> = mfas
        .iter()
        .zip(&indexes)
        .map(|((_, m), idx)| match idx {
            Some(index) => BatchQuery::with_index(m, index),
            None => BatchQuery::new(m),
        })
        .collect();
    let reference = interpreted::evaluate_batch(&doc, &queries);
    let compiled = evaluate_tree(&doc, doc.root(), &compile_batch(&queries), 1);
    assert_eq!(compiled.stats, reference.stats, "mixed batch stats differ");
    for (i, (name, _)) in mfas.iter().enumerate() {
        assert_eq!(
            compiled.results[i].answers, reference.results[i].answers,
            "mixed batched answers differ on `{name}`"
        );
        assert_eq!(
            compiled.results[i].stats, reference.results[i].stats,
            "mixed batched stats differ on `{name}`"
        );
    }
}

#[test]
fn streamed_compiled_matches_interpreted_solo_and_batched() {
    let doc = standard_hospital_document();
    let mfas = corpus_mfas();

    for (name, mfa) in &mfas {
        let queries = [BatchQuery::new(mfa)];
        let mut events = TreeEvents::new(&doc);
        let reference = interpreted::evaluate_stream_batch(&mut events, &queries).unwrap();
        let mut events = TreeEvents::new(&doc);
        let compiled = stream_batch(&mut events, &compile_batch(&queries)).unwrap();
        assert_eq!(
            compiled.stats, reference.stats,
            "stream stats differ on `{name}`"
        );
        assert_eq!(
            compiled.results[0].answers, reference.results[0].answers,
            "streamed answers differ on `{name}`"
        );
        assert_eq!(
            compiled.results[0].stats, reference.results[0].stats,
            "streamed per-query stats differ on `{name}`"
        );
    }

    let queries: Vec<BatchQuery> = mfas.iter().map(|(_, m)| BatchQuery::new(m)).collect();
    let mut events = TreeEvents::new(&doc);
    let reference = interpreted::evaluate_stream_batch(&mut events, &queries).unwrap();
    let mut events = TreeEvents::new(&doc);
    let compiled = stream_batch(&mut events, &compile_batch(&queries)).unwrap();
    assert_eq!(
        compiled.stats, reference.stats,
        "batched stream stats differ"
    );
    for (i, (name, _)) in mfas.iter().enumerate() {
        assert_eq!(
            compiled.results[i].answers, reference.results[i].answers,
            "batched streamed answers differ on `{name}`"
        );
        assert_eq!(
            compiled.results[i].stats, reference.results[i].stats,
            "batched streamed stats differ on `{name}`"
        );
    }
}

#[test]
fn every_domain_and_shape_compiled_matches_interpreted() {
    // The registry sweep: the same differential contract the hospital pair
    // is pinned to above, across every registered domain and every
    // adversarial document shape it supports — solo, with and without
    // OptHyPE(-C) indexes, and as one whole-corpus batch per document and
    // index mode at budgets 1 and 2.
    for domain in all_domains() {
        let mfas = domain_corpus_mfas(&domain);
        let dtd = domain.document_dtd().clone();
        for &shape in domain.shapes {
            let doc = domain.generate(shape, 1, STANDARD_SEED);
            for (name, mfa) in &mfas {
                let reference = interpreted::evaluate(&doc, mfa);
                let compiled = hype_at(&doc, doc.root(), mfa, None);
                assert_eq!(
                    compiled.answers, reference.answers,
                    "answers differ on `{name}` ({shape:?})"
                );
                assert_eq!(
                    compiled.stats, reference.stats,
                    "stats differ on `{name}` ({shape:?})"
                );

                for compressed in [false, true] {
                    let index = ReachabilityIndex::from_labels(
                        mfa.labels(),
                        &dtd,
                        doc.labels(),
                        compressed,
                    );
                    let reference =
                        interpreted::evaluate_at_with(&doc, doc.root(), mfa, Some(&index));
                    let compiled = hype_at(&doc, doc.root(), mfa, Some(&index));
                    assert_eq!(
                        compiled.answers, reference.answers,
                        "indexed answers differ on `{name}` ({shape:?}, compressed={compressed})"
                    );
                    assert_eq!(
                        compiled.stats, reference.stats,
                        "indexed stats differ on `{name}` ({shape:?}, compressed={compressed})"
                    );
                }
            }

            // The whole corpus as one batch: plain, then with an OptHyPE
            // and an OptHyPE-C index per query, walked sequentially and at
            // a budget of two threads (where large enough shapes shard).
            for compressed in [None, Some(false), Some(true)] {
                let indexes: Vec<Option<ReachabilityIndex>> = mfas
                    .iter()
                    .map(|(_, m)| {
                        compressed.map(|c| {
                            ReachabilityIndex::from_labels(m.labels(), &dtd, doc.labels(), c)
                        })
                    })
                    .collect();
                let queries: Vec<BatchQuery> = mfas
                    .iter()
                    .zip(&indexes)
                    .map(|((_, m), index)| match index {
                        Some(index) => BatchQuery::with_index(m, index),
                        None => BatchQuery::new(m),
                    })
                    .collect();
                let reference = interpreted::evaluate_batch(&doc, &queries);
                let compiled_queries = compile_batch(&queries);
                for threads in [1, 2] {
                    let compiled = evaluate_tree(&doc, doc.root(), &compiled_queries, threads);
                    let what = format!("{shape:?}, compressed={compressed:?}, {threads}t");
                    assert_eq!(
                        compiled.stats, reference.stats,
                        "{}/{what}: aggregate batch stats differ",
                        domain.name
                    );
                    for (i, (name, _)) in mfas.iter().enumerate() {
                        assert_eq!(
                            compiled.results[i].answers, reference.results[i].answers,
                            "batched answers differ on `{name}` ({what})"
                        );
                        assert_eq!(
                            compiled.results[i].stats, reference.results[i].stats,
                            "batched stats differ on `{name}` ({what})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn compiled_matches_interpreted_from_every_context_node() {
    // Context-node evaluation exercises the `Init`-set path of the IR.
    let doc = generate_hospital(&HospitalConfig {
        patients: 6,
        max_ancestor_depth: 2,
        ..Default::default()
    });
    let mfa = compile_query(&parse_path("patient[visit]/pname | //diagnosis").unwrap());
    for ctx in doc.node_ids() {
        let reference = interpreted::evaluate_at_with(&doc, ctx, &mfa, None);
        let compiled = hype_at(&doc, ctx, &mfa, None);
        assert_eq!(
            compiled.answers, reference.answers,
            "answers differ at {ctx:?}"
        );
        assert_eq!(compiled.stats, reference.stats, "stats differ at {ctx:?}");
    }
}

// ---------------------------------------------------------------------------
// Property test: random toxgene documents, compiled ≡ interpreted.
// ---------------------------------------------------------------------------

/// A strategy over hospital generator configurations: varying sizes,
/// recursion depths and content mixes produce structurally diverse
/// documents (deep ancestor chains, sibling-only patients, test visits).
fn config_strategy() -> impl Strategy<Value = HospitalConfig> {
    ((1usize..20, 1usize..3, 0u64..1_000), (0usize..3, 1usize..3)).prop_map(
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
        cases: 24,
        .. ProptestConfig::default()
    })]

    /// Compiled engines ≡ interpreted engines (answers and statistics) on
    /// arbitrary generated documents, solo and batched.
    #[test]
    fn compiled_equals_interpreted_on_random_documents(config in config_strategy()) {
        let doc: XmlTree = generate_hospital(&config);
        let mfas: Vec<Mfa> = PROBE_QUERIES
            .iter()
            .map(|q| compile_query(&parse_path(q).unwrap()))
            .collect();
        for (query, mfa) in PROBE_QUERIES.iter().zip(&mfas) {
            let reference = interpreted::evaluate(&doc, mfa);
            let compiled = hype_at(&doc, doc.root(), mfa, None);
            prop_assert!(
                compiled.answers == reference.answers,
                "answers differ on `{}`",
                query
            );
            prop_assert!(
                compiled.stats == reference.stats,
                "stats differ on `{}`: {:?} vs {:?}",
                query,
                compiled.stats,
                reference.stats
            );
        }
        let queries: Vec<BatchQuery> = mfas.iter().map(BatchQuery::new).collect();
        let reference = interpreted::evaluate_batch(&doc, &queries);
        let compiled = evaluate_tree(&doc, doc.root(), &compile_batch(&queries), 1);
        prop_assert_eq!(compiled.stats, reference.stats);
        for (i, query) in PROBE_QUERIES.iter().enumerate() {
            prop_assert!(
                compiled.results[i].answers == reference.results[i].answers,
                "batched answers differ on `{}`",
                query
            );
            prop_assert!(
                compiled.results[i].stats == reference.results[i].stats,
                "batched stats differ on `{}`: {:?} vs {:?}",
                query,
                compiled.results[i].stats,
                reference.results[i].stats
            );
        }
    }
}
