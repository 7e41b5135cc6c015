//! Shared fixtures and helpers for the cross-crate integration tests.

pub mod fuzz;
pub mod interpreted;

use std::collections::BTreeSet;
use std::sync::Arc;

use smoqe::SmoqeEngine;
use smoqe_automata::{compile_query, CompiledMfa, Mfa};
use smoqe_hype::{
    evaluate_tree, CompiledBatchQuery, HypeResult, ReachabilityIndex, StreamHype, StreamResult,
    StreamStats,
};
use smoqe_toxgene::domains::{HOSPITAL_DOCUMENT_QUERIES, HOSPITAL_VIEW_QUERIES};
use smoqe_toxgene::{generate_hospital, Domain, HospitalConfig};
use smoqe_views::{materialize, ViewDefinition};
use smoqe_xml::stream::EventSource;
use smoqe_xml::{LabelInterner, NodeId, ParseError, XmlTree};
use smoqe_xpath::{evaluate, parse_path};

/// A deterministic, moderately sized hospital document exercising every
/// feature of the document DTD (ancestors, siblings, tests, medications).
pub fn standard_hospital_document() -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients: 60,
        departments: 3,
        heart_disease_fraction: 0.35,
        max_ancestor_depth: 2,
        sibling_probability: 0.4,
        visits_per_patient: 2,
        test_visit_fraction: 0.3,
        seed: 42,
    })
}

/// Queries over the σ₀ *view* used across the integration tests — a mix of
/// XPath-fragment and proper regular XPath queries, with filters, negation,
/// unions and recursion.
///
/// The canonical copy lives in the domain registry
/// (`smoqe_toxgene::domains::HOSPITAL_VIEW_QUERIES`); this function keeps
/// the historical `Vec` signature the suites use.
pub fn view_query_corpus() -> Vec<&'static str> {
    HOSPITAL_VIEW_QUERIES.to_vec()
}

/// Queries posed directly on the hospital *document* (no view), used for
/// testing the evaluators and the benchmark harness. Canonical copy:
/// `smoqe_toxgene::domains::HOSPITAL_DOCUMENT_QUERIES`.
pub fn document_query_corpus() -> Vec<&'static str> {
    HOSPITAL_DOCUMENT_QUERIES.to_vec()
}

/// Both corpora of `domain` compiled to MFAs over the domain's *document*:
/// document queries compile directly, view queries go through the σ₀
/// rewriting against the domain's view. Each entry is tagged
/// `<domain>/doc:<q>` or `<domain>/view:<q>` for assertion messages.
pub fn domain_corpus_mfas(domain: &Domain) -> Vec<(String, Mfa)> {
    let engine = SmoqeEngine::new(domain.view.clone()).expect("registered views check");
    let mut out = Vec::new();
    for &query in domain.document_queries {
        let mfa = compile_query(&parse_path(query).expect("registry queries parse"));
        out.push((format!("{}/doc:{query}", domain.name), mfa));
    }
    for &query in domain.view_queries {
        let compiled = engine
            .compile(query)
            .unwrap_or_else(|e| panic!("{}: `{query}` fails to rewrite: {e}", domain.name));
        out.push((
            format!("{}/view:{query}", domain.name),
            compiled.mfa().clone(),
        ));
    }
    out
}

/// [`domain_corpus_mfas`] lowered to the shareable execution IR, for the
/// parallel and incremental suites.
pub fn domain_corpus_irs(domain: &Domain) -> Vec<(String, Arc<CompiledMfa>)> {
    domain_corpus_mfas(domain)
        .into_iter()
        .map(|(name, mfa)| (name, Arc::new(CompiledMfa::new(&mfa))))
        .collect()
}

/// The materialize-then-evaluate oracle: the answer of `query` on the view
/// `view` of `doc`, mapped back to origin nodes of `doc`.
pub fn oracle_answer(view: &ViewDefinition, doc: &XmlTree, query: &str) -> BTreeSet<NodeId> {
    let materialized = materialize(view, doc).expect("materialization succeeds");
    let q = parse_path(query).expect("query parses");
    let on_view = evaluate(&materialized.tree, materialized.tree.root(), &q);
    materialized.origins_of(&on_view)
}

/// Evaluates the IR `ir` alone at `context`, optionally pruned by `index`,
/// through [`evaluate_tree`] under the thread budget `threads`.
pub fn run_ir(
    tree: &XmlTree,
    context: NodeId,
    ir: &Arc<CompiledMfa>,
    index: Option<&ReachabilityIndex>,
    threads: usize,
) -> HypeResult {
    let query = CompiledBatchQuery {
        compiled: Arc::clone(ir),
        index,
    };
    evaluate_tree(tree, context, &[query], threads)
        .results
        .remove(0)
}

/// Compiles the builder MFA `mfa` and evaluates it alone at `context` on
/// the sequential walk — the compiled counterpart of
/// [`interpreted::evaluate_at_with`].
pub fn hype_at(
    tree: &XmlTree,
    context: NodeId,
    mfa: &Mfa,
    index: Option<&ReachabilityIndex>,
) -> HypeResult {
    run_ir(tree, context, &Arc::new(CompiledMfa::new(mfa)), index, 1)
}

/// Compiles every member of an interpreted batch to its execution IR,
/// keeping its index.
pub fn compile_batch<'a>(queries: &[interpreted::BatchQuery<'a>]) -> Vec<CompiledBatchQuery<'a>> {
    queries
        .iter()
        .map(|q| CompiledBatchQuery {
            compiled: Arc::new(CompiledMfa::new(q.mfa)),
            index: q.index,
        })
        .collect()
}

/// Streams `source` through a [`StreamHype`] for `queries`, with a fresh
/// label interner (plain HyPE).
pub fn stream_batch(
    source: &mut impl EventSource,
    queries: &[CompiledBatchQuery],
) -> Result<StreamResult, ParseError> {
    StreamHype::from_compiled(queries, LabelInterner::new()).run(source)
}

/// Streams `source` for the builder MFA `mfa` alone, with plain HyPE — the
/// compiled counterpart of [`interpreted::evaluate_stream`].
pub fn stream_solo(
    source: &mut impl EventSource,
    mfa: &Mfa,
) -> Result<(HypeResult, StreamStats), ParseError> {
    let query = CompiledBatchQuery::new(Arc::new(CompiledMfa::new(mfa)));
    let mut out = stream_batch(source, &[query])?;
    Ok((out.results.remove(0), out.stats))
}
