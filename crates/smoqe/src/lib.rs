//! # smoqe
//!
//! **SMOQE** — a Secure MOdular Query Engine: the end-to-end system of the
//! paper *Rewriting Regular XPath Queries on XML Views* (Fan, Geerts, Jia,
//! Kementsietsidis, ICDE 2007), assembled from the workspace crates:
//!
//! * a user poses a (regular) XPath query against a **virtual XML view**
//!   (typically a security view hiding confidential data),
//! * the engine **rewrites** the query into a mixed finite state automaton
//!   (MFA) over the underlying document ([`smoqe_rewrite::rewrite_to_mfa`]),
//! * the MFA is evaluated over the document in a **single pass** with HyPE
//!   ([`smoqe_hype`]), optionally using the OptHyPE / OptHyPE-C indexes,
//! * the answer is returned without ever materializing the view.
//!
//! The same machinery doubles as a stand-alone **regular XPath engine**
//! ([`RegularXPathEngine`]) — per the paper, the first practical evaluator
//! for regular XPath queries.
//!
//! For serving workloads — many concurrent queries, hot query sets, repeated
//! documents — the [`QueryService`] front-end adds an LRU compiled-query
//! cache (keyed by view fingerprint and normalized query text), a shared
//! reachability-index cache, and batched evaluation that answers N queries
//! in a single HyPE pass ([`smoqe_hype::evaluate_tree`]). The service is
//! `Send + Sync` — its caches are segmented, independently locked LRUs
//! ([`lru::ShardedLru`]), so one instance serves many threads — and its
//! tree front end ([`QueryService::evaluate_batch`];
//! [`QueryService::evaluate`] is a batch of one) shards a large document's
//! traversal across a configurable thread budget ([`smoqe_hype::parallel`])
//! with bit-identical answers and statistics.
//!
//! When the workload is many *documents* rather than many queries, the
//! [`DocumentStore`] holds a corpus of documents as parsed arenas plus
//! their binary snapshots (`smoqe_xml::snapshot`), content-addressed by
//! [`DocId`] with the reachability-cache fingerprint precomputed per
//! document. [`QueryService::evaluate_corpus`] then routes a batch of
//! (document, query) requests **across documents** over the same thread
//! budget — each pair on the unchanged sequential engine, so answers and
//! statistics stay bit-identical to one [`QueryService::evaluate`] call
//! per request.
//!
//! Stored documents are **versioned-mutable**: [`DocumentStore::apply_edit`]
//! applies subtree edits (`smoqe_xml::edit`) to produce a new
//! content-addressed version that shares the base snapshot bytes of its
//! ancestor — only a delta-log tail is new — while
//! [`QueryService::apply_edit`] and [`QueryService::remove_document`]
//! additionally sweep exactly the stale reachability-index entries (those
//! keyed to a label fingerprint no resident document uses any more) via
//! [`lru::ShardedLru::invalidate_where`], leaving every other document's
//! cached entries hot. Re-answering an open query batch after an edit can
//! skip the unchanged parts of the document entirely via
//! [`smoqe_hype::incremental`].
//!
//! Documents need not fit in memory at all: [`CompiledQuery::evaluate_stream`]
//! and [`QueryService::answer_stream`] evaluate queries over a **streamed**
//! document read from any `std::io::Read` — the single-pass promise of the
//! paper taken literally, in `O(depth)` working memory, via
//! [`smoqe_hype::stream`] and [`smoqe_xml::stream`].
//!
//! ## Quick start
//!
//! ```
//! use smoqe::{EvaluationMode, SmoqeEngine};
//! use smoqe_toxgene::{generate_hospital, HospitalConfig};
//!
//! // A synthetic hospital document (the underlying, confidential data).
//! let doc = generate_hospital(&HospitalConfig { patients: 25, ..Default::default() });
//!
//! // The research-institute security view σ₀ of the paper's Fig. 1.
//! let engine = SmoqeEngine::hospital_demo();
//!
//! // A query over the *view*: heart-disease patients one of whose ancestors
//! // also had heart disease. Answered on the source, without materializing.
//! let result = engine
//!     .answer(
//!         "patient[*//record/diagnosis/text()='heart disease']",
//!         &doc,
//!         EvaluationMode::HyPE,
//!     )
//!     .unwrap();
//! assert!(result.answers.iter().all(|&n| doc.label_name(n) == "patient"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lru;
pub mod service;
pub mod store;

pub use engine::{CompiledQuery, EngineError, EvaluationMode, RegularXPathEngine, SmoqeEngine};
pub use service::{QueryService, ServiceConfig, ServiceStats};
pub use store::{DocId, DocumentStore, EditReceipt, StoreError, StoredDocument};

// Re-export the subsystem crates so downstream users need a single dependency.
pub use smoqe_automata as automata;
pub use smoqe_baseline as baseline;
pub use smoqe_hype as hype;
pub use smoqe_rewrite as rewrite;
pub use smoqe_toxgene as toxgene;
pub use smoqe_views as views;
pub use smoqe_xml as xml;
pub use smoqe_xpath as xpath;
