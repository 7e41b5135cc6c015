//! The SMOQE engine: view-based query answering and the stand-alone
//! regular XPath engine.

use std::fmt;
use std::io::Read;
use std::sync::Arc;

use smoqe_automata::{optimize_mfa, CompiledMfa, Mfa};
use smoqe_hype::{CompiledBatchQuery, HypeResult, ReachabilityIndex, StreamHype, StreamStats};
use smoqe_rewrite::{rewrite_to_mfa, RewriteError};
use smoqe_views::{hospital_view, ViewDefinition, ViewError};
use smoqe_xml::{Dtd, LabelInterner, NodeId, ParseError, XmlStreamReader, XmlTree};
use smoqe_xpath::{parse_path, ParseQueryError, Path};

/// Errors surfaced by the engine API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The query text does not parse.
    Query(ParseQueryError),
    /// The view definition is incomplete or inconsistent.
    View(ViewError),
    /// The rewriting algorithm rejected the view.
    Rewrite(RewriteError),
    /// A streamed document failed to parse (or its reader failed).
    Xml(ParseError),
    /// A corpus request referenced a document id not present in the
    /// [`DocumentStore`](crate::DocumentStore).
    UnknownDocument(crate::store::DocId),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Query(e) => write!(f, "{e}"),
            EngineError::View(e) => write!(f, "{e}"),
            EngineError::Rewrite(e) => write!(f, "{e}"),
            EngineError::Xml(e) => write!(f, "{e}"),
            EngineError::UnknownDocument(id) => {
                write!(f, "document {id} is not in the store")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseQueryError> for EngineError {
    fn from(e: ParseQueryError) -> Self {
        EngineError::Query(e)
    }
}
impl From<ViewError> for EngineError {
    fn from(e: ViewError) -> Self {
        EngineError::View(e)
    }
}
impl From<RewriteError> for EngineError {
    fn from(e: RewriteError) -> Self {
        EngineError::Rewrite(e)
    }
}
impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Xml(e)
    }
}

/// Which HyPE variant to use when evaluating a compiled query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvaluationMode {
    /// Plain HyPE (no index).
    #[default]
    HyPE,
    /// HyPE with the DTD reachability index.
    OptHyPE,
    /// HyPE with the compressed DTD reachability index.
    OptHyPEC,
}

impl EvaluationMode {
    /// The reachability index this mode prunes with: `None` for plain HyPE,
    /// otherwise `Some(compressed)` — the flag [`CompiledQuery::build_index`]
    /// takes. The one place a mode is mapped to an index.
    pub fn compressed_index(self) -> Option<bool> {
        match self {
            EvaluationMode::HyPE => None,
            EvaluationMode::OptHyPE => Some(false),
            EvaluationMode::OptHyPEC => Some(true),
        }
    }
}

/// A query compiled (and, for view queries, rewritten) into an MFA — plus
/// its [`CompiledMfa`] execution IR, built once here so every later
/// evaluation runs on the dense bitset representation — ready to be
/// evaluated over documents any number of times.
///
/// The automaton is always trimmed with [`optimize_mfa`] before the IR is
/// built: the rewriting's product of query states and view types leaves
/// states no answer can pass through (`//diagnosis` over the logs view
/// keeps 61 of 1,407), and the IR's step-closure tables grow with the
/// square of the state count. [`Self::mfa`] and [`Self::compiled`] are the
/// same trimmed automaton, so the interpreted oracle of the
/// `integration_tests` crate checks exactly what the compiled engines run.
#[derive(Debug, Clone)]
pub struct CompiledQuery {
    original: Path,
    mfa: Mfa,
    compiled: Arc<CompiledMfa>,
}

impl CompiledQuery {
    fn from_mfa(original: Path, mfa: Mfa) -> Self {
        let (mfa, _) = optimize_mfa(&mfa);
        let compiled = Arc::new(CompiledMfa::new(&mfa));
        CompiledQuery {
            original,
            mfa,
            compiled,
        }
    }

    /// The query as parsed.
    pub fn query(&self) -> &Path {
        &self.original
    }

    /// The compiled automaton (builder representation), trimmed.
    pub fn mfa(&self) -> &Mfa {
        &self.mfa
    }

    /// The execution IR the evaluators run on, shareable across threads.
    pub fn compiled(&self) -> &Arc<CompiledMfa> {
        &self.compiled
    }

    /// Evaluates the query at `context` in `doc`, pruned by `index` when
    /// one is given (OptHyPE(-C); see [`Self::build_index`] and
    /// [`EvaluationMode::compressed_index`]), under the thread budget
    /// `threads` (see [`smoqe_hype::evaluate_tree`]: `1` is the sequential
    /// walk, `0` all cores). Answers and statistics are the same at every
    /// budget. The one tree evaluator of a compiled query; every front end
    /// of this crate ends here or in [`smoqe_hype::evaluate_tree`].
    pub fn evaluate(
        &self,
        doc: &XmlTree,
        context: NodeId,
        index: Option<&ReachabilityIndex>,
        threads: usize,
    ) -> HypeResult {
        let query = CompiledBatchQuery {
            compiled: Arc::clone(&self.compiled),
            index,
        };
        smoqe_hype::evaluate_tree(doc, context, &[query], threads)
            .results
            .remove(0)
    }

    /// Evaluates the query over a **streamed** XML document read from
    /// `input`, without ever materializing the tree (see
    /// [`smoqe_hype::stream`]). Answers identify nodes by pre-order index,
    /// which coincides with the [`NodeId`]s [`smoqe_xml::parse_document`]
    /// would assign to the same input.
    pub fn evaluate_stream(
        &self,
        input: impl Read,
    ) -> Result<(HypeResult, StreamStats), EngineError> {
        let mut reader = XmlStreamReader::new(input);
        let query = CompiledBatchQuery::new(Arc::clone(&self.compiled));
        let mut out = StreamHype::from_compiled(&[query], LabelInterner::new()).run(&mut reader)?;
        let result = out.results.pop().expect("one result per query");
        Ok((result, out.stats))
    }

    /// Builds the OptHyPE(-C) index for documents of `document_dtd` that use
    /// `doc`'s label interner.
    ///
    /// DTD-derived pruning is only sound for documents whose parent→child
    /// edges the DTD actually permits; an edit script can splice a label —
    /// known or unknown — somewhere no production puts it, and pruning on
    /// the DTD's say-so would then skip answers. For such documents this
    /// returns the [`ReachabilityIndex::no_prune`] fallback, making the Opt
    /// modes bit-identical to plain HyPE instead of wrong.
    pub fn build_index(
        &self,
        document_dtd: &Dtd,
        doc: &XmlTree,
        compressed: bool,
    ) -> ReachabilityIndex {
        if !document_dtd.edge_conformant(doc) {
            return ReachabilityIndex::no_prune(self.compiled.labels(), doc.labels(), compressed);
        }
        ReachabilityIndex::for_compiled(&self.compiled, document_dtd, doc.labels(), compressed)
    }
}

/// The view-based query answering engine.
///
/// Holds one view definition `σ : D → DV`; queries posed against the view
/// are rewritten to MFAs over `D` and evaluated directly on the underlying
/// documents.
#[derive(Debug, Clone)]
pub struct SmoqeEngine {
    view: ViewDefinition,
}

impl SmoqeEngine {
    /// Creates an engine for `view`, validating the view definition.
    pub fn new(view: ViewDefinition) -> Result<Self, EngineError> {
        view.check()?;
        Ok(SmoqeEngine { view })
    }

    /// The engine for the paper's running example: the heart-disease
    /// research view σ₀ over the hospital document DTD (Fig. 1).
    pub fn hospital_demo() -> Self {
        SmoqeEngine {
            view: hospital_view(),
        }
    }

    /// The view this engine answers queries against.
    pub fn view(&self) -> &ViewDefinition {
        &self.view
    }

    /// Parses and rewrites a query posed on the view into a reusable
    /// [`CompiledQuery`] over the underlying document DTD.
    pub fn compile(&self, query: &str) -> Result<CompiledQuery, EngineError> {
        let parsed = parse_path(query)?;
        self.compile_path(&parsed)
    }

    /// Rewrites an already-parsed query posed on the view.
    pub fn compile_path(&self, query: &Path) -> Result<CompiledQuery, EngineError> {
        let mfa = rewrite_to_mfa(query, &self.view)?;
        Ok(CompiledQuery::from_mfa(query.clone(), mfa))
    }

    /// One-shot: parse, rewrite and evaluate `query` over `doc` with `mode`
    /// (building the OptHyPE(-C) index for this call), on the sequential
    /// walk. The answers are the origin nodes (in the source document) of
    /// the view nodes the query selects; the statistics are HyPE's.
    ///
    /// To evaluate one query many times, over many documents, at another
    /// context or thread budget, or over a streamed document, [`Self::compile`]
    /// it once and call [`CompiledQuery::evaluate`] or
    /// [`CompiledQuery::evaluate_stream`].
    pub fn answer(
        &self,
        query: &str,
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<HypeResult, EngineError> {
        let compiled = self.compile(query)?;
        let index = mode
            .compressed_index()
            .map(|compressed| compiled.build_index(self.view.document_dtd(), doc, compressed));
        Ok(compiled.evaluate(doc, doc.root(), index.as_ref(), 1))
    }
}

/// The stand-alone regular XPath engine: no view involved, queries are
/// compiled straight to MFAs and evaluated with HyPE. This is the engine the
/// paper's Section 7 benchmarks exercise for plain documents.
#[derive(Debug, Clone, Copy, Default)]
pub struct RegularXPathEngine;

impl RegularXPathEngine {
    /// Compiles a regular XPath query into an MFA-backed [`CompiledQuery`].
    pub fn compile(query: &str) -> Result<CompiledQuery, EngineError> {
        let parsed = parse_path(query)?;
        Ok(Self::compile_path(&parsed))
    }

    /// Compiles an already-parsed regular XPath query.
    pub fn compile_path(query: &Path) -> CompiledQuery {
        CompiledQuery::from_mfa(query.clone(), smoqe_automata::compile_query(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_toxgene::{generate_hospital, HospitalConfig};
    use smoqe_views::materialize;
    use smoqe_xml::hospital::{hospital_document_dtd, HEART_DISEASE};
    use smoqe_xpath::evaluate;

    fn small_doc() -> XmlTree {
        generate_hospital(&HospitalConfig {
            patients: 40,
            heart_disease_fraction: 0.4,
            max_ancestor_depth: 2,
            ..Default::default()
        })
    }

    #[test]
    fn engine_answers_match_materialize_then_evaluate() {
        let doc = small_doc();
        let engine = SmoqeEngine::hospital_demo();
        let materialized = materialize(engine.view(), &doc).unwrap();
        for query in [
            "patient",
            "patient/record/diagnosis",
            "patient[*//record/diagnosis/text()='heart disease']",
            "(patient/parent)*/patient[record]",
            "patient[not(parent)]",
        ] {
            let by_engine = engine
                .answer(query, &doc, EvaluationMode::HyPE)
                .unwrap()
                .answers;
            let q = parse_path(query).unwrap();
            let on_view = evaluate(&materialized.tree, materialized.tree.root(), &q);
            let expected = materialized.origins_of(&on_view);
            assert_eq!(by_engine, expected, "engine differs on `{query}`");
        }
    }

    #[test]
    fn all_evaluation_modes_agree() {
        let doc = small_doc();
        let engine = SmoqeEngine::hospital_demo();
        let query = format!("patient[*//record/diagnosis/text()='{HEART_DISEASE}']");
        let base = engine.answer(&query, &doc, EvaluationMode::HyPE).unwrap();
        let opt = engine
            .answer(&query, &doc, EvaluationMode::OptHyPE)
            .unwrap();
        let optc = engine
            .answer(&query, &doc, EvaluationMode::OptHyPEC)
            .unwrap();
        assert_eq!(base.answers, opt.answers);
        assert_eq!(base.answers, optc.answers);
        assert!(opt.stats.nodes_visited <= base.stats.nodes_visited);
    }

    #[test]
    fn compiled_queries_are_reusable_across_documents() {
        let engine = SmoqeEngine::hospital_demo();
        let compiled = engine.compile("patient/record/diagnosis").unwrap();
        for seed in [1u64, 2, 3] {
            let doc = generate_hospital(&HospitalConfig {
                patients: 10,
                seed,
                ..Default::default()
            });
            let direct = engine
                .answer("patient/record/diagnosis", &doc, EvaluationMode::HyPE)
                .unwrap();
            let reused = compiled.evaluate(&doc, doc.root(), None, 1);
            assert_eq!(reused, direct);
        }
    }

    #[test]
    fn standalone_regular_xpath_engine() {
        let doc = small_doc();
        let compiled = RegularXPathEngine::compile(
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']/pname",
        )
        .unwrap();
        let result = compiled.evaluate(&doc, doc.root(), None, 1);
        let q = compiled.query().clone();
        let expected = evaluate(&doc, doc.root(), &q);
        assert_eq!(result.answers, expected);
        // The index variants agree too.
        let index = compiled.build_index(&hospital_document_dtd(), &doc, false);
        let opt = compiled.evaluate(&doc, doc.root(), Some(&index), 1);
        assert_eq!(opt.answers, expected);
    }

    #[test]
    fn answer_stream_matches_answer_on_the_parsed_document() {
        let doc = small_doc();
        let xml = smoqe_xml::to_xml_string(&doc);
        // Parsing assigns pre-order ids, the same identity a stream uses.
        let reparsed = smoqe_xml::parse_document(&xml).unwrap();
        let engine = SmoqeEngine::hospital_demo();
        for query in [
            "patient",
            "patient/record/diagnosis",
            "patient[*//record/diagnosis/text()='heart disease']",
            "patient[not(parent)]",
        ] {
            let on_tree = engine
                .answer(query, &reparsed, EvaluationMode::HyPE)
                .unwrap();
            let (streamed, _) = engine
                .compile(query)
                .unwrap()
                .evaluate_stream(xml.as_bytes())
                .unwrap();
            assert_eq!(streamed, on_tree, "stream differs on `{query}`");
        }
    }

    #[test]
    fn stream_parse_errors_surface_as_xml_errors() {
        let engine = SmoqeEngine::hospital_demo();
        let compiled = engine.compile("patient").unwrap();
        assert!(matches!(
            compiled.evaluate_stream("<a><b></a></b>".as_bytes()),
            Err(EngineError::Xml(_))
        ));
    }

    #[test]
    fn query_errors_are_reported() {
        let engine = SmoqeEngine::hospital_demo();
        let doc = small_doc();
        assert!(matches!(
            engine.answer("patient[", &doc, EvaluationMode::HyPE),
            Err(EngineError::Query(_))
        ));
    }

    #[test]
    fn security_confidential_data_is_not_reachable_through_the_view() {
        // The institute can never select pname, address or doctor data, and
        // never sees sibling-only patients, whatever query it poses on the view.
        let doc = small_doc();
        let engine = SmoqeEngine::hospital_demo();
        for query in [
            "pname",
            "patient/pname",
            "//pname",
            "//doctor",
            "//sibling",
            "//address",
        ] {
            let answers = engine
                .answer(query, &doc, EvaluationMode::HyPE)
                .unwrap()
                .answers;
            assert!(answers.is_empty(), "`{query}` must be empty on the view");
        }
    }
}
