//! Adversarial-shape coverage (PR 10, satellite 4): empty-view documents
//! and label-alias explosions through all engines — solo, batched, parallel
//! and streamed — with the evaluation modes agreeing on the "no answers"
//! statistics, not just on the (empty) answer sets.
//!
//! Empty-view documents are the sharpest differential probe the domains
//! have: the *document* is full of content, but the security view hides all
//! of it, so every rewritten view query must come back empty through every
//! engine. Label-alias explosions (the logs domain's `k00…` keys, plus
//! alias labels shared across domains such as `patient`/`diagnosis` inside
//! log contexts) stress label interning and the rewriting's DTD-alphabet
//! expansions.

use std::sync::Arc;

use integration_tests::{domain_corpus_irs, oracle_answer, run_ir, stream_batch};
use smoqe::{EvaluationMode, SmoqeEngine};
use smoqe_hype::interpreted;
use smoqe_hype::{evaluate_tree, CompiledBatchQuery};
use smoqe_toxgene::domains::STANDARD_SEED;
use smoqe_toxgene::{all_domains, DocShape};
use smoqe_xml::stream::TreeEvents;

const BUDGETS: &[usize] = &[1, 2, 8];

const MODES: [EvaluationMode; 3] = [
    EvaluationMode::HyPE,
    EvaluationMode::OptHyPE,
    EvaluationMode::OptHyPEC,
];

#[test]
fn empty_view_documents_answer_nothing_through_every_engine_and_mode() {
    for domain in all_domains() {
        if !domain.shapes.contains(&DocShape::EmptyView) {
            continue;
        }
        let doc = domain.generate(DocShape::EmptyView, 1, STANDARD_SEED);
        assert!(
            doc.len() > 1,
            "{}: the *document* is not empty",
            domain.name
        );
        let engine = SmoqeEngine::new(domain.view.clone()).expect("registered views check");

        for &query in domain.view_queries {
            // Spec oracle: the materialized view is the bare root, so the
            // query selects nothing.
            assert!(
                oracle_answer(&domain.view, &doc, query).is_empty(),
                "{}: oracle finds answers for `{query}` on an empty view",
                domain.name
            );

            let compiled = engine.compile(query).unwrap();

            // All three evaluation modes: empty answers, and the Opt modes'
            // stats must agree with each other (same index semantics,
            // compressed or not) on the "no answers" run.
            let by_mode: Vec<_> = MODES
                .iter()
                .map(|&mode| {
                    let index = mode.compressed_index().map(|compressed| {
                        compiled.build_index(domain.document_dtd(), &doc, compressed)
                    });
                    let r = compiled.evaluate(&doc, doc.root(), index.as_ref(), 1);
                    assert!(
                        r.answers.is_empty(),
                        "{}: `{query}` answers through {mode:?} on an empty view",
                        domain.name
                    );
                    r
                })
                .collect();
            assert_eq!(
                by_mode[1].stats, by_mode[2].stats,
                "{}: OptHyPE and OptHyPE-C 'no answers' stats differ on `{query}`",
                domain.name
            );

            // Solo compiled vs interpreted: identical empty result *and*
            // identical stats.
            let solo = run_ir(&doc, doc.root(), compiled.compiled(), None, 1);
            let reference = interpreted::evaluate(&doc, compiled.mfa());
            assert!(solo.answers.is_empty());
            assert_eq!(solo.stats, reference.stats, "{}: `{query}`", domain.name);
            assert_eq!(solo.stats, by_mode[0].stats, "{}: `{query}`", domain.name);

            // Parallel at every budget: the sharded merge of nothing must
            // still reproduce the sequential stats bit for bit.
            for &threads in BUDGETS {
                let par = run_ir(&doc, doc.root(), compiled.compiled(), None, threads);
                assert!(
                    par.answers.is_empty(),
                    "{}: `{query}` ({threads}t)",
                    domain.name
                );
                assert_eq!(
                    par.stats, solo.stats,
                    "{}: parallel 'no answers' stats differ on `{query}` ({threads}t)",
                    domain.name
                );
            }
        }

        // The whole view corpus as one batch, tree-walking, parallel and
        // streamed: per-query stats agree across all three backends.
        let compiled: Vec<_> = domain
            .view_queries
            .iter()
            .map(|q| engine.compile(q).unwrap())
            .collect();
        let batch: Vec<CompiledBatchQuery> = compiled
            .iter()
            .map(|c| CompiledBatchQuery::new(Arc::clone(c.compiled())))
            .collect();
        let tree_batch = evaluate_tree(&doc, doc.root(), &batch, 1);
        for &threads in BUDGETS {
            let par = evaluate_tree(&doc, doc.root(), &batch, threads);
            assert_eq!(
                par.stats, tree_batch.stats,
                "{}: batched aggregate stats differ ({threads}t)",
                domain.name
            );
            for (i, q) in domain.view_queries.iter().enumerate() {
                assert!(par.results[i].answers.is_empty(), "{}: `{q}`", domain.name);
                assert_eq!(
                    par.results[i].stats, tree_batch.results[i].stats,
                    "{}: batched stats differ on `{q}` ({threads}t)",
                    domain.name
                );
            }
        }
        let mut events = TreeEvents::new(&doc);
        let streamed = stream_batch(&mut events, &batch).unwrap();
        for (i, q) in domain.view_queries.iter().enumerate() {
            assert!(
                streamed.results[i].answers.is_empty(),
                "{}: `{q}` streamed",
                domain.name
            );
            assert_eq!(
                streamed.results[i].stats, tree_batch.results[i].stats,
                "{}: streamed 'no answers' stats differ on `{q}`",
                domain.name
            );
        }
    }
}

#[test]
fn alias_explosions_stay_bit_identical_through_every_engine() {
    // Label-dense documents: every element type of the DTD appears, alias
    // labels included. Answers are not empty here — the point is that the
    // dense interner keeps every engine pair pinned.
    for domain in all_domains() {
        if !domain.shapes.contains(&DocShape::AliasExplosion) {
            continue;
        }
        let doc = domain.generate(DocShape::AliasExplosion, 1, STANDARD_SEED);
        let irs = domain_corpus_irs(&domain);

        let batch: Vec<CompiledBatchQuery> = irs
            .iter()
            .map(|(_, ir)| CompiledBatchQuery::new(Arc::clone(ir)))
            .collect();
        let tree_batch = evaluate_tree(&doc, doc.root(), &batch, 1);

        // Some query of the corpus must actually see the dense labels,
        // otherwise the shape is not exercising anything.
        assert!(
            tree_batch.results.iter().any(|r| !r.answers.is_empty()),
            "{}: alias-explosion corpus is entirely answerless",
            domain.name
        );

        for (i, (name, ir)) in irs.iter().enumerate() {
            let solo = run_ir(&doc, doc.root(), ir, None, 1);
            assert_eq!(
                solo.answers, tree_batch.results[i].answers,
                "`{name}` solo vs batched"
            );
            assert_eq!(
                solo.stats, tree_batch.results[i].stats,
                "`{name}` solo vs batched stats"
            );
            for &threads in BUDGETS {
                let par = run_ir(&doc, doc.root(), ir, None, threads);
                assert_eq!(par.answers, solo.answers, "`{name}` ({threads}t)");
                assert_eq!(par.stats, solo.stats, "`{name}` stats ({threads}t)");
            }
        }

        for &threads in BUDGETS {
            let par = evaluate_tree(&doc, doc.root(), &batch, threads);
            assert_eq!(
                par.stats, tree_batch.stats,
                "{}: aggregate ({threads}t)",
                domain.name
            );
            for (i, (name, _)) in irs.iter().enumerate() {
                assert_eq!(
                    par.results[i].answers, tree_batch.results[i].answers,
                    "`{name}`"
                );
                assert_eq!(
                    par.results[i].stats, tree_batch.results[i].stats,
                    "`{name}` stats"
                );
            }
        }
    }
}
