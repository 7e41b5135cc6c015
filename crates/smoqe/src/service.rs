//! The SMOQE query service layer.
//!
//! [`SmoqeEngine`] answers one query at a time and recompiles the rewrite —
//! and rebuilds the OptHyPE reachability index — on every call. A serving
//! deployment sees the opposite workload: a small set of hot queries posed
//! over and over, by many concurrent callers, against the same (or few)
//! documents. [`QueryService`] amortises everything that is recomputable:
//!
//! * a bounded **LRU compiled-query cache** keyed by
//!   `(view fingerprint, normalized query text)` — `./patient` and
//!   `patient` share one entry, and views with identical definitions share
//!   keys across service instances. A cached entry carries both the
//!   rewritten MFA and its `Arc<CompiledMfa>` execution IR, so a hit skips
//!   the rewrite *and* the IR compilation and goes straight to the bitset
//!   engines;
//! * a bounded **reachability-index cache** keyed by
//!   `(normalized query, document-label fingerprint, compressed?)`, so the
//!   OptHyPE(-C) index for a (query, document family) pair is built once;
//! * a **batched evaluation front-end** ([`QueryService::evaluate_batch`])
//!   that pushes N cached queries through a single HyPE pass
//!   ([`smoqe_hype::evaluate_tree`]) instead of N traversals;
//! * **parallel front-ends** ([`QueryService::answer_parallel`],
//!   [`QueryService::evaluate_batch_parallel`]) that run the same pass
//!   sharded over a configurable thread budget
//!   ([`smoqe_hype::parallel`]) with answers and statistics identical to
//!   the sequential paths — each sequential/parallel pair is one body
//!   that takes the budget.
//!
//! The service is `Send + Sync` by construction: all methods take `&self`,
//! the caches are [`ShardedLru`]s (independently locked segments, so
//! concurrent callers of different queries rarely touch the same mutex),
//! the hit/miss counters are atomics, and the cached artefacts themselves —
//! [`CompiledQuery`] with its `Arc<CompiledMfa>` execution IR, and
//! [`ReachabilityIndex`] — are immutable and handed out as `Arc` clones
//! (a cache hit never copies an IR or an index). Expensive work (rewriting,
//! IR compilation, index construction) always runs *outside* any segment
//! lock; two threads racing on the same cold key may both compute, and the
//! last insert wins — sound because compilation is deterministic.

use std::collections::HashSet;
use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use smoqe_hype::{
    BatchResult, CompiledBatchQuery, CorpusTask, HypeResult, ReachabilityIndex, StreamHype,
    StreamResult, StreamStats,
};
use smoqe_views::ViewDefinition;
use smoqe_xml::{LabelInterner, XmlStreamReader, XmlTree};
use smoqe_xpath::{normalize, parse_path, Path};

use smoqe_xml::EditOp;

use crate::engine::{CompiledQuery, EngineError, EvaluationMode, SmoqeEngine};
use crate::lru::ShardedLru;
use crate::store::{DocId, DocumentStore, EditReceipt, StoreError, StoredDocument};

/// Sizing and concurrency knobs for a [`QueryService`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Capacity of the compiled-query LRU cache.
    pub compiled_capacity: usize,
    /// Capacity of the reachability-index LRU cache.
    pub index_capacity: usize,
    /// Number of independently locked segments each cache is split into
    /// (clamped to at least 1 and at most the cache's capacity). More
    /// segments reduce lock contention between concurrent callers;
    /// `1` restores exact global LRU recency.
    pub cache_segments: usize,
    /// Thread budget of the `*_parallel` front-ends: `0` uses all available
    /// cores, `1` runs the sequential walk on the calling thread.
    pub parallel_threads: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            compiled_capacity: 128,
            index_capacity: 64,
            cache_segments: 8,
            parallel_threads: 0,
        }
    }
}

/// Cache-effectiveness counters of a [`QueryService`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceStats {
    /// Compiled-query lookups answered from cache.
    pub compiled_hits: u64,
    /// Compiled-query lookups that triggered a rewrite + compile.
    pub compiled_misses: u64,
    /// Compiled queries evicted by the LRU policy.
    pub compiled_evictions: u64,
    /// Compiled queries currently cached.
    pub compiled_cached: usize,
    /// Index lookups answered from cache.
    pub index_hits: u64,
    /// Index lookups that triggered an index build.
    pub index_misses: u64,
    /// Indexes evicted by the LRU policy.
    pub index_evictions: u64,
    /// Indexes dropped by precise invalidation after a document edit or
    /// removal staled their label fingerprint (distinct from LRU eviction,
    /// which is capacity pressure).
    pub index_invalidations: u64,
    /// Indexes currently cached.
    pub index_cached: usize,
    /// Shard skew of the most recent `answer_parallel` /
    /// `evaluate_batch_parallel` call: the largest work unit's share of the
    /// physically visited nodes, in `[0, 1]` (`0.0` before any parallel
    /// call). Scheduling observability — excluded from equality, like
    /// `HypeStats::max_shard_fraction`.
    pub last_max_shard_fraction: f64,
}

// Equality covers the cache counters only; `last_max_shard_fraction` is
// scheduling observability and thread-budget-dependent.
impl PartialEq for ServiceStats {
    fn eq(&self, other: &Self) -> bool {
        self.compiled_hits == other.compiled_hits
            && self.compiled_misses == other.compiled_misses
            && self.compiled_evictions == other.compiled_evictions
            && self.compiled_cached == other.compiled_cached
            && self.index_hits == other.index_hits
            && self.index_misses == other.index_misses
            && self.index_evictions == other.index_evictions
            && self.index_invalidations == other.index_invalidations
            && self.index_cached == other.index_cached
    }
}

impl Eq for ServiceStats {}

/// Key of the compiled-query cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct QueryKey {
    view_fingerprint: u64,
    query: String,
}

/// Key of the reachability-index cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct IndexKey {
    query: String,
    doc_labels: u64,
    compressed: bool,
}

/// A multi-query, multi-document serving front-end over one view.
///
/// Repeated queries — including equivalent spellings — are compiled once
/// and then served from the LRU cache:
///
/// ```
/// use smoqe::{EvaluationMode, QueryService};
/// use smoqe_toxgene::{generate_hospital, HospitalConfig};
///
/// let service = QueryService::hospital_demo();
/// let doc = generate_hospital(&HospitalConfig { patients: 10, ..Default::default() });
///
/// // The first call rewrites + compiles (a miss); the second hits the
/// // cache, and so does the third — `./patient/./record` normalizes to
/// // the same key as `patient/record`.
/// service.evaluate("patient/record", &doc, EvaluationMode::HyPE).unwrap();
/// service.evaluate("patient/record", &doc, EvaluationMode::HyPE).unwrap();
/// service.evaluate("./patient/./record", &doc, EvaluationMode::HyPE).unwrap();
///
/// let stats = service.stats();
/// assert_eq!(stats.compiled_misses, 1);
/// assert_eq!(stats.compiled_hits, 2);
/// ```
#[derive(Debug)]
pub struct QueryService {
    engine: SmoqeEngine,
    fingerprint: u64,
    /// Thread budget of the `*_parallel` front-ends (0 = all cores).
    parallel_threads: usize,
    /// Raw query text → normalized key text, so warm-path lookups skip the
    /// parse + normalize + re-print entirely. Sized at a multiple of the
    /// compiled cache (several raw spellings can map to one key).
    text_keys: ShardedLru<String, String>,
    compiled: ShardedLru<QueryKey, Arc<CompiledQuery>>,
    indexes: ShardedLru<IndexKey, Arc<ReachabilityIndex>>,
    /// Label fingerprints of document versions an edit made potentially
    /// non-conformant ([`Dtd::edge_conformant`](smoqe_xml::Dtd::edge_conformant)
    /// fails). DTD-derived pruning is unsound for such documents, and the
    /// fingerprint keys the *interner layout*, not the structure — a
    /// conforming sibling can share it — so every index under a tainted
    /// fingerprint is built as [`ReachabilityIndex::no_prune`].
    tainted: Mutex<HashSet<u64>>,
    compiled_hits: AtomicU64,
    compiled_misses: AtomicU64,
    index_hits: AtomicU64,
    index_misses: AtomicU64,
    index_invalidations: AtomicU64,
    /// `f64::to_bits` of the most recent parallel call's largest work-unit
    /// visit share (shard skew); see `ServiceStats::last_max_shard_fraction`.
    last_max_shard_fraction: AtomicU64,
}

impl QueryService {
    /// Creates a service for `view` with default cache sizes.
    pub fn new(view: ViewDefinition) -> Result<Self, EngineError> {
        Self::with_config(view, ServiceConfig::default())
    }

    /// Creates a service for `view` with explicit cache sizes. Capacities
    /// are clamped to at least 1 (the caches cannot be disabled), and the
    /// segment count to `1..=capacity` per cache.
    pub fn with_config(view: ViewDefinition, config: ServiceConfig) -> Result<Self, EngineError> {
        let engine = SmoqeEngine::new(view)?;
        let fingerprint = engine.view().fingerprint();
        let compiled_capacity = config.compiled_capacity.max(1);
        let index_capacity = config.index_capacity.max(1);
        Ok(QueryService {
            engine,
            fingerprint,
            parallel_threads: config.parallel_threads,
            text_keys: ShardedLru::new(4 * compiled_capacity, config.cache_segments),
            compiled: ShardedLru::new(compiled_capacity, config.cache_segments),
            indexes: ShardedLru::new(index_capacity, config.cache_segments),
            tainted: Mutex::new(HashSet::new()),
            compiled_hits: AtomicU64::new(0),
            compiled_misses: AtomicU64::new(0),
            index_hits: AtomicU64::new(0),
            index_misses: AtomicU64::new(0),
            index_invalidations: AtomicU64::new(0),
            last_max_shard_fraction: AtomicU64::new(0.0f64.to_bits()),
        })
    }

    /// A service over the paper's hospital research view σ₀.
    pub fn hospital_demo() -> Self {
        Self::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig::default(),
        )
        .expect("σ₀ is a valid view")
    }

    /// The underlying single-query engine.
    pub fn engine(&self) -> &SmoqeEngine {
        &self.engine
    }

    /// The view this service answers queries against.
    pub fn view(&self) -> &ViewDefinition {
        self.engine.view()
    }

    /// The fingerprint of the view, the first half of every cache key.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The one place the cache-key scheme is defined: parse, algebraically
    /// normalize, re-print. Returns the key text together with the
    /// normalized AST (so callers that need to compile do not parse twice).
    fn derive_key(query: &str) -> Result<(String, Path), EngineError> {
        let parsed = parse_path(query)?;
        let normalized = normalize(&parsed);
        Ok((normalized.to_string(), normalized))
    }

    /// The canonical cache-key text of `query`: parsed, algebraically
    /// normalized, and re-printed. Queries that normalize identically —
    /// `./patient`, `patient`, `patient[not(not(record))]` vs
    /// `patient[record]` — share one cache entry.
    pub fn normalized_text(query: &str) -> Result<String, EngineError> {
        Ok(Self::derive_key(query)?.0)
    }

    /// Parses, normalizes, rewrites and compiles `query`, or returns the
    /// cached compilation. Warm calls for an already-seen query *text* skip
    /// the parse entirely (raw text → key memo) and reduce to two hash
    /// lookups.
    pub fn compile(&self, query: &str) -> Result<Arc<CompiledQuery>, EngineError> {
        let (key_text, normalized) = match self.text_keys.get(query) {
            Some(key) => (key, None),
            None => {
                let (key_text, normalized) = Self::derive_key(query)?;
                self.text_keys.insert(query.to_owned(), key_text.clone());
                (key_text, Some(normalized))
            }
        };
        let key = QueryKey {
            view_fingerprint: self.fingerprint,
            query: key_text,
        };
        if let Some(cached) = self.compiled.get(&key) {
            self.compiled_hits.fetch_add(1, Ordering::Relaxed);
            return Ok(cached);
        }
        self.compiled_misses.fetch_add(1, Ordering::Relaxed);
        // On a text-memo hit whose compilation was since evicted, recover
        // the AST from the key text (printed normal form; normalize restores
        // the canonical association the parser flattens).
        let normalized = match normalized {
            Some(n) => n,
            None => normalize(&parse_path(&key.query).expect("cached key text re-parses")),
        };
        // Compile outside any segment lock: rewriting is the expensive part
        // and concurrent callers of *different* queries must not serialize.
        // Two racing callers of the same query both compile; last insert
        // wins, which is sound because compilation is deterministic.
        let compiled = Arc::new(self.engine.compile_path(&normalized)?);
        self.compiled.insert(key, Arc::clone(&compiled));
        Ok(compiled)
    }

    /// Returns the cached OptHyPE(-C) index for (`compiled`, `doc`),
    /// building and caching it on first use.
    fn index_for(
        &self,
        compiled: &CompiledQuery,
        doc: &XmlTree,
        compressed: bool,
    ) -> Arc<ReachabilityIndex> {
        self.index_for_fingerprinted(compiled, doc, labels_fingerprint(doc.labels()), compressed)
    }

    /// [`Self::index_for`] with the document-label fingerprint supplied by
    /// the caller — the corpus path precomputes it once per stored document
    /// ([`StoredDocument::labels_fingerprint`]) instead of rehashing the
    /// label table on every (doc, query) request.
    fn index_for_fingerprinted(
        &self,
        compiled: &CompiledQuery,
        doc: &XmlTree,
        doc_labels: u64,
        compressed: bool,
    ) -> Arc<ReachabilityIndex> {
        debug_assert_eq!(doc_labels, labels_fingerprint(doc.labels()));
        let key = IndexKey {
            query: compiled.query().to_string(),
            doc_labels,
            compressed,
        };
        if let Some(cached) = self.indexes.get(&key) {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        self.index_misses.fetch_add(1, Ordering::Relaxed);
        // A tainted fingerprint means *some* resident version with this
        // interner layout is non-conformant; a pruning index cached under
        // the shared key would serve that version wrongly, so every build
        // under the fingerprint degrades to no-prune. (`build_index` itself
        // also degrades when `doc` is the non-conformant one — the taint
        // covers the conforming sibling that would otherwise repopulate the
        // shared entry with pruning rows.)
        let index = if self.tainted.lock().expect("taint set lock").contains(&doc_labels) {
            Arc::new(ReachabilityIndex::no_prune(
                compiled.compiled().labels(),
                doc.labels(),
                compressed,
            ))
        } else {
            Arc::new(compiled.build_index(self.view().document_dtd(), doc, compressed))
        };
        self.indexes.insert(key, Arc::clone(&index));
        index
    }

    /// The index for `mode`, from cache: `None` for plain HyPE.
    fn index_for_mode(
        &self,
        compiled: &CompiledQuery,
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Option<Arc<ReachabilityIndex>> {
        match mode {
            EvaluationMode::HyPE => None,
            EvaluationMode::OptHyPE => Some(self.index_for(compiled, doc, false)),
            EvaluationMode::OptHyPEC => Some(self.index_for(compiled, doc, true)),
        }
    }

    /// Answers `query` over `doc` with `mode`, hitting both caches. A
    /// cache hit skips the rewrite **and** the execution-IR compilation:
    /// the cached [`CompiledQuery`] carries its `Arc<CompiledMfa>`.
    pub fn evaluate(
        &self,
        query: &str,
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<HypeResult, EngineError> {
        self.answer_with(query, doc, mode, 1)
    }

    /// Answers `query` over `doc` with `mode`, sharding the document
    /// traversal over the service's configured thread budget
    /// ([`ServiceConfig::parallel_threads`]). Hits both caches exactly
    /// like [`Self::evaluate`], and returns the same answers *and*
    /// statistics — parallelism only changes wall-clock time.
    pub fn answer_parallel(
        &self,
        query: &str,
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<HypeResult, EngineError> {
        let result = self.answer_with(query, doc, mode, self.parallel_threads)?;
        self.note_shard_fraction(&result);
        Ok(result)
    }

    /// The body of [`Self::evaluate`] and [`Self::answer_parallel`]: both
    /// caches, then [`smoqe_hype::evaluate_tree`] under `threads`.
    fn answer_with(
        &self,
        query: &str,
        doc: &XmlTree,
        mode: EvaluationMode,
        threads: usize,
    ) -> Result<HypeResult, EngineError> {
        let compiled = self.compile(query)?;
        let index = self.index_for_mode(&compiled, doc, mode);
        Ok(compiled.run(doc, doc.root(), index.as_deref(), threads))
    }

    /// Answers all of `queries` over `doc` in **one** document pass.
    ///
    /// Results are index-aligned with `queries`; each is identical (answers
    /// *and* statistics) to what [`Self::evaluate`] would return for that
    /// query alone. Spellings that normalize to the same cached compilation
    /// are **deduplicated** before evaluation — each distinct query runs
    /// once and its result is fanned back out to every aligned slot — so
    /// [`BatchResult::stats`] describes the deduplicated batch
    /// (`stats.queries` can be smaller than `queries.len()`).
    ///
    /// Note that pruning degrades gracefully under batching: a subtree is
    /// skipped only when every query in the batch prunes it, so a single
    /// broad query (e.g. `//diagnosis`) keeps nodes live that a narrow
    /// query alone would have skipped — the per-query stats still report
    /// each query's own pending-work visits.
    pub fn evaluate_batch(
        &self,
        queries: &[&str],
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<BatchResult, EngineError> {
        self.batch_with(queries, doc, mode, 1)
    }

    /// Answers all of `queries` over `doc` in one *sharded, multi-threaded*
    /// document pass under the service's configured thread budget.
    /// Deduplication, result alignment, per-query answers and statistics,
    /// and the aggregate [`BatchStats`](smoqe_hype::BatchStats) are all
    /// identical to [`Self::evaluate_batch`].
    pub fn evaluate_batch_parallel(
        &self,
        queries: &[&str],
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<BatchResult, EngineError> {
        let result = self.batch_with(queries, doc, mode, self.parallel_threads)?;
        if let Some(first) = result.results.first() {
            self.note_shard_fraction(first);
        }
        Ok(result)
    }

    /// The body of [`Self::evaluate_batch`] and
    /// [`Self::evaluate_batch_parallel`]: compile and deduplicate through
    /// the caches, resolve each distinct query's index, run one
    /// [`smoqe_hype::evaluate_tree`] under `threads`, and fan the results
    /// back out to the caller's positions.
    fn batch_with(
        &self,
        queries: &[&str],
        doc: &XmlTree,
        mode: EvaluationMode,
        threads: usize,
    ) -> Result<BatchResult, EngineError> {
        let (unique, slot_of) = self.compile_deduped(queries)?;
        let indexes: Vec<Option<Arc<ReachabilityIndex>>> = unique
            .iter()
            .map(|c| self.index_for_mode(c, doc, mode))
            .collect();
        let batch: Vec<CompiledBatchQuery> = unique
            .iter()
            .zip(&indexes)
            .map(|(c, i)| CompiledBatchQuery {
                compiled: Arc::clone(c.compiled()),
                index: i.as_deref(),
            })
            .collect();
        let result = smoqe_hype::evaluate_tree(doc, doc.root(), &batch, threads);
        Ok(fan_out(result, &slot_of))
    }

    /// Records a parallel call's shard skew for [`ServiceStats`].
    fn note_shard_fraction(&self, result: &HypeResult) {
        self.last_max_shard_fraction
            .store(result.stats.max_shard_fraction.to_bits(), Ordering::Relaxed);
    }

    /// Answers a batch of (document, query) requests against `store`, one
    /// sequential evaluation per request, in order — the reference loop
    /// [`Self::evaluate_corpus_parallel`] is differentially tested against.
    ///
    /// Every request hits both caches: queries compile once per distinct
    /// normalized spelling, and OptHyPE(-C) indexes are shared across all
    /// documents with the same label-interner layout (the fingerprint is
    /// precomputed per stored document, so the cache key costs nothing per
    /// request). A request naming an unknown [`DocId`] fails the whole call
    /// with [`EngineError::UnknownDocument`].
    pub fn evaluate_corpus(
        &self,
        store: &DocumentStore,
        requests: &[(DocId, &str)],
        mode: EvaluationMode,
    ) -> Result<Vec<HypeResult>, EngineError> {
        self.corpus_with(store, requests, mode, 1)
    }

    /// Answers a batch of (document, query) requests against `store`,
    /// routing them **across documents** over the service's thread budget
    /// ([`ServiceConfig::parallel_threads`]) — one document per work item
    /// on the scoped worker pool of [`smoqe_hype::corpus`]. Results are in
    /// request order, with answers and per-request
    /// [`HypeStats`](smoqe_hype::HypeStats) **bit-identical** to
    /// [`Self::evaluate_corpus`] at every thread budget; parallelism only
    /// changes wall-clock time.
    pub fn evaluate_corpus_parallel(
        &self,
        store: &DocumentStore,
        requests: &[(DocId, &str)],
        mode: EvaluationMode,
    ) -> Result<Vec<HypeResult>, EngineError> {
        self.corpus_with(store, requests, mode, self.parallel_threads)
    }

    /// The body of [`Self::evaluate_corpus`] and
    /// [`Self::evaluate_corpus_parallel`]: resolve every document, compile
    /// every query through the cache, fetch each pair's index for `mode` —
    /// keyed on the stored document's precomputed label fingerprint — and
    /// run [`smoqe_hype::evaluate_corpus`] under `threads`.
    fn corpus_with(
        &self,
        store: &DocumentStore,
        requests: &[(DocId, &str)],
        mode: EvaluationMode,
        threads: usize,
    ) -> Result<Vec<HypeResult>, EngineError> {
        let items: Vec<CorpusItem> = requests
            .iter()
            .map(|&(id, query)| {
                let doc = store.get(id).ok_or(EngineError::UnknownDocument(id))?;
                let compiled = self.compile(query)?;
                let index = match mode {
                    EvaluationMode::HyPE => None,
                    EvaluationMode::OptHyPE => Some(self.index_for_fingerprinted(
                        &compiled,
                        doc.tree(),
                        doc.labels_fingerprint(),
                        false,
                    )),
                    EvaluationMode::OptHyPEC => Some(self.index_for_fingerprinted(
                        &compiled,
                        doc.tree(),
                        doc.labels_fingerprint(),
                        true,
                    )),
                };
                Ok((doc, compiled, index))
            })
            .collect::<Result<_, EngineError>>()?;
        let tasks: Vec<CorpusTask> = items
            .iter()
            .map(|(doc, compiled, index)| CorpusTask {
                tree: doc.tree(),
                compiled: Arc::clone(compiled.compiled()),
                index: index.as_deref(),
            })
            .collect();
        Ok(smoqe_hype::evaluate_corpus(&tasks, threads))
    }

    /// Compiles every query through the cache and deduplicates equivalent
    /// spellings (which come back as the same cached `Arc`): returns the
    /// distinct compilations plus, per input position, the index of its
    /// compilation in that list.
    fn compile_deduped(
        &self,
        queries: &[&str],
    ) -> Result<(Vec<Arc<CompiledQuery>>, Vec<usize>), EngineError> {
        let compiled: Vec<Arc<CompiledQuery>> = queries
            .iter()
            .map(|q| self.compile(q))
            .collect::<Result<_, _>>()?;
        let mut unique: Vec<Arc<CompiledQuery>> = Vec::with_capacity(compiled.len());
        let mut slot_of: Vec<usize> = Vec::with_capacity(compiled.len());
        for c in &compiled {
            let slot = unique
                .iter()
                .position(|u| Arc::ptr_eq(u, c))
                .unwrap_or_else(|| {
                    unique.push(Arc::clone(c));
                    unique.len() - 1
                });
            slot_of.push(slot);
        }
        Ok((unique, slot_of))
    }

    /// Answers `query` over a **streamed** document read from `input`,
    /// using the compiled-query cache but never materializing the document
    /// as a tree (see [`smoqe_hype::stream`]). Streaming always runs plain
    /// HyPE: the OptHyPE indexes in the cache are keyed to a concrete
    /// document label interner, which a raw stream does not have.
    pub fn answer_stream(
        &self,
        query: &str,
        input: impl Read,
    ) -> Result<(HypeResult, StreamStats), EngineError> {
        let compiled = self.compile(query)?;
        compiled.evaluate_stream(input)
    }

    /// Answers all of `queries` over one streamed document in a **single
    /// pass**, combining the compiled-query cache with [`StreamHype`].
    /// Results are index-aligned
    /// with `queries`; equivalent spellings are deduplicated before
    /// evaluation exactly as in [`Self::evaluate_batch`].
    pub fn evaluate_stream_batch(
        &self,
        queries: &[&str],
        input: impl Read,
    ) -> Result<StreamResult, EngineError> {
        let (unique, slot_of) = self.compile_deduped(queries)?;
        let batch: Vec<CompiledBatchQuery> = unique
            .iter()
            .map(|c| CompiledBatchQuery::new(Arc::clone(c.compiled())))
            .collect();
        let mut reader = XmlStreamReader::new(input);
        let result = StreamHype::from_compiled(&batch, LabelInterner::new()).run(&mut reader)?;
        let results = slot_of
            .iter()
            .map(|&slot| result.results[slot].clone())
            .collect();
        Ok(StreamResult {
            results,
            stats: result.stats,
        })
    }

    /// The thread budget the `*_parallel` front-ends run under (0 = all
    /// available cores).
    pub fn parallel_threads(&self) -> usize {
        self.parallel_threads
    }

    /// Snapshot of the cache counters.
    ///
    /// Counters are read individually (atomics, per-segment sums) without a
    /// global lock, so a snapshot taken *while* other threads are active is
    /// a consistent-enough view for monitoring, not a linearizable one; once
    /// the service is quiescent the numbers are exact.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            compiled_hits: self.compiled_hits.load(Ordering::Relaxed),
            compiled_misses: self.compiled_misses.load(Ordering::Relaxed),
            compiled_evictions: self.compiled.evictions(),
            compiled_cached: self.compiled.len(),
            index_hits: self.index_hits.load(Ordering::Relaxed),
            index_misses: self.index_misses.load(Ordering::Relaxed),
            index_evictions: self.indexes.evictions(),
            index_invalidations: self.index_invalidations.load(Ordering::Relaxed),
            index_cached: self.indexes.len(),
            last_max_shard_fraction: f64::from_bits(
                self.last_max_shard_fraction.load(Ordering::Relaxed),
            ),
        }
    }

    /// Applies `ops` to document `id` in `store` — producing a new version
    /// under a new [`DocId`] via [`DocumentStore::apply_edit`] — and then
    /// invalidates **exactly** the reachability-index cache entries the
    /// edit staled, leaving every other document's entries hot.
    ///
    /// Precision has two halves:
    ///
    /// * if the edit did not change the document's label fingerprint (no
    ///   new labels), the cached indexes are still keyed correctly for the
    ///   new version and *nothing* is invalidated — the common case for
    ///   edits that shuffle existing element types;
    /// * if the fingerprint did change, entries keyed to the old
    ///   fingerprint are dropped **unless** another resident document still
    ///   shares that interner layout ([`DocumentStore::fingerprint_in_use`])
    ///   — they are still serving valid lookups for it.
    ///
    /// The store is updated *before* the sweep, so a request racing the
    /// edit can at worst rebuild an entry for the retired fingerprint from
    /// a handle it already resolved — a correct (if wasted) index, never a
    /// wrong one.
    ///
    /// Beyond cache-key staleness, an edit can stale the *content* of an
    /// index whose key still matches: splicing a label — known or unknown
    /// to the DTD — somewhere no production puts it leaves the document
    /// non-edge-conformant, and the DTD-derived rows would prune subtrees
    /// that now do contain matches (e.g. `//annex` right after inserting an
    /// `<annex>` element would answer ∅). When the new version fails
    /// [`Dtd::edge_conformant`](smoqe_xml::Dtd::edge_conformant), its
    /// fingerprint is **tainted**: entries cached under it are swept, and
    /// every future build under it degrades to the no-prune index — answers
    /// stay bit-identical to plain HyPE until the non-conformant versions
    /// retire (taint clears when the fingerprint leaves the store).
    pub fn apply_edit(
        &self,
        store: &DocumentStore,
        id: DocId,
        ops: &[EditOp],
    ) -> Result<EditReceipt, StoreError> {
        let receipt = store.apply_edit(id, ops)?;
        if receipt.old_fingerprint != receipt.new_fingerprint {
            self.invalidate_stale_indexes(store, receipt.old_fingerprint);
        }
        if let Some(new_doc) = store.get(receipt.new_id) {
            if !self.view().document_dtd().edge_conformant(new_doc.tree())
                && self
                    .tainted
                    .lock()
                    .expect("taint set lock")
                    .insert(receipt.new_fingerprint)
            {
                // Taint is set *before* the sweep: any insert racing past
                // the sweep already sees the taint and stores no-prune.
                let removed = self
                    .indexes
                    .invalidate_where(|key, _| key.doc_labels == receipt.new_fingerprint);
                self.index_invalidations
                    .fetch_add(removed as u64, Ordering::Relaxed);
            }
        }
        Ok(receipt)
    }

    /// Removes document `id` from `store` and invalidates the
    /// reachability-index entries keyed to its label fingerprint, unless
    /// another resident document still shares it. Returns whether the
    /// document was present.
    ///
    /// This is the invalidation-aware counterpart of
    /// [`DocumentStore::remove`]: removing through the store alone leaves
    /// the service's index cache holding entries for a document that no
    /// longer exists, which is wasted capacity (and made cache-size
    /// accounting lie) until LRU pressure happened to push them out.
    pub fn remove_document(&self, store: &DocumentStore, id: DocId) -> bool {
        let Some(doc) = store.get(id) else {
            return false;
        };
        let fingerprint = doc.labels_fingerprint();
        let removed = store.remove(id);
        if removed {
            self.invalidate_stale_indexes(store, fingerprint);
        }
        removed
    }

    /// Drops index entries keyed to `fingerprint` if no resident document
    /// uses it any more, bumping [`ServiceStats::index_invalidations`] by
    /// the number removed.
    fn invalidate_stale_indexes(&self, store: &DocumentStore, fingerprint: u64) -> usize {
        if store.fingerprint_in_use(fingerprint) {
            return 0;
        }
        // No resident document keys this fingerprint any more: a future
        // document that happens to share the layout starts with a clean
        // (pruning-capable) slate.
        self.tainted.lock().expect("taint set lock").remove(&fingerprint);
        let removed = self
            .indexes
            .invalidate_where(|key, _| key.doc_labels == fingerprint);
        self.index_invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }
}

/// One resolved corpus request: the owning handles the borrowed
/// [`CorpusTask`]s point into.
type CorpusItem = (
    Arc<StoredDocument>,
    Arc<CompiledQuery>,
    Option<Arc<ReachabilityIndex>>,
);

/// Fans a deduplicated batch result back out to the caller's query
/// positions: slot `i` of the output clones the result of the distinct
/// compilation that input `i` mapped to.
fn fan_out(result: BatchResult, slot_of: &[usize]) -> BatchResult {
    let results = slot_of
        .iter()
        .map(|&slot| result.results[slot].clone())
        .collect();
    BatchResult {
        results,
        stats: result.stats,
    }
}

/// A stable fingerprint of a document's label interner. The reachability
/// index maps `LabelId → row`, so documents sharing an interner layout (same
/// names in the same id order — e.g. every document from one generator or
/// parser run over one DTD) can share indexes. Uses the same FNV-1a folding
/// as [`ViewDefinition::fingerprint`].
fn labels_fingerprint(labels: &LabelInterner) -> u64 {
    let mut h = smoqe_views::FINGERPRINT_SEED;
    for (_, name) in labels.iter() {
        h = smoqe_views::fingerprint_field(h, name.as_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_toxgene::{generate_hospital, HospitalConfig};

    fn doc(seed: u64) -> XmlTree {
        generate_hospital(&HospitalConfig {
            patients: 25,
            heart_disease_fraction: 0.4,
            max_ancestor_depth: 2,
            seed,
            ..Default::default()
        })
    }

    #[test]
    fn repeated_queries_hit_the_compiled_cache() {
        let service = QueryService::hospital_demo();
        let d = doc(1);
        for _ in 0..5 {
            service.evaluate("patient/record", &d, EvaluationMode::HyPE).unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.compiled_misses, 1);
        assert_eq!(stats.compiled_hits, 4);
        assert_eq!(stats.compiled_cached, 1);
    }

    #[test]
    fn normalization_merges_equivalent_query_texts() {
        let service = QueryService::hospital_demo();
        let d = doc(1);
        let a = service.evaluate("./patient/./record", &d, EvaluationMode::HyPE).unwrap();
        let b = service.evaluate("patient/record", &d, EvaluationMode::HyPE).unwrap();
        let c = service.evaluate("patient[not(not(record))]/record | patient/record", &d, EvaluationMode::HyPE);
        assert!(c.is_ok());
        assert_eq!(a.answers, b.answers);
        let stats = service.stats();
        // `./patient/./record` and `patient/record` normalize to one key.
        assert_eq!(stats.compiled_misses, 2);
        assert_eq!(stats.compiled_hits, 1);
        assert_eq!(
            QueryService::normalized_text("./patient/./record").unwrap(),
            "patient/record"
        );
    }

    #[test]
    fn service_answers_match_the_engine() {
        let service = QueryService::hospital_demo();
        let engine = SmoqeEngine::hospital_demo();
        let d = doc(7);
        for query in [
            "patient",
            "patient/record/diagnosis",
            "(patient/parent)*/patient[record]",
            "patient[not(parent)]",
        ] {
            for mode in [
                EvaluationMode::HyPE,
                EvaluationMode::OptHyPE,
                EvaluationMode::OptHyPEC,
            ] {
                let by_service = service.evaluate(query, &d, mode).unwrap();
                let by_engine = engine.answer_with_stats(query, &d, mode).unwrap();
                assert_eq!(by_service.answers, by_engine.answers, "on `{query}` ({mode:?})");
                assert_eq!(by_service.stats, by_engine.stats, "on `{query}` ({mode:?})");
            }
        }
    }

    #[test]
    fn indexes_are_shared_across_calls_and_documents_with_one_interner() {
        let service = QueryService::hospital_demo();
        let d1 = doc(1);
        service.evaluate("patient/record", &d1, EvaluationMode::OptHyPE).unwrap();
        service.evaluate("patient/record", &d1, EvaluationMode::OptHyPE).unwrap();
        let stats = service.stats();
        assert_eq!(stats.index_misses, 1);
        assert_eq!(stats.index_hits, 1);
        // A distinct document instance with the same interner layout (same
        // generator run) shares the cached index.
        let d2 = doc(1);
        service.evaluate("patient/record", &d2, EvaluationMode::OptHyPE).unwrap();
        assert_eq!(service.stats().index_misses, 1);
        assert_eq!(service.stats().index_hits, 2);
        // A document whose interner differs (different content ⇒ different
        // interning order) must NOT reuse the index: its LabelIds would row
        // into the wrong entries.
        let d3 = doc(2);
        service.evaluate("patient/record", &d3, EvaluationMode::OptHyPE).unwrap();
        assert_eq!(service.stats().index_misses, 2);
        // The compressed flavour is a distinct cache entry.
        service.evaluate("patient/record", &d1, EvaluationMode::OptHyPEC).unwrap();
        assert_eq!(service.stats().index_misses, 3);
    }

    #[test]
    fn lru_eviction_respects_capacity() {
        // One segment ⇒ exact global LRU, so eviction counts are precise.
        let service = QueryService::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig {
                compiled_capacity: 2,
                index_capacity: 2,
                cache_segments: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let d = doc(1);
        service.evaluate("patient", &d, EvaluationMode::HyPE).unwrap();
        service.evaluate("patient/record", &d, EvaluationMode::HyPE).unwrap();
        service.evaluate("patient/parent", &d, EvaluationMode::HyPE).unwrap();
        let stats = service.stats();
        assert_eq!(stats.compiled_cached, 2);
        assert_eq!(stats.compiled_evictions, 1);
        // The evicted entry ("patient") recompiles on next use.
        service.evaluate("patient", &d, EvaluationMode::HyPE).unwrap();
        assert_eq!(service.stats().compiled_misses, 4);
    }

    #[test]
    fn batch_results_align_with_solo_evaluation() {
        let service = QueryService::hospital_demo();
        let d = doc(3);
        let queries = ["patient", "patient/record/diagnosis", "patient[not(parent)]"];
        let batch = service
            .evaluate_batch(&queries, &d, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(batch.results.len(), queries.len());
        assert_eq!(batch.stats.queries, queries.len());
        for (i, query) in queries.iter().enumerate() {
            let solo = service.evaluate(query, &d, EvaluationMode::HyPE).unwrap();
            assert_eq!(batch.results[i].answers, solo.answers, "on `{query}`");
            assert_eq!(batch.results[i].stats, solo.stats, "on `{query}`");
        }
        assert!(batch.stats.nodes_visited <= batch.stats.sequential_node_visits);
    }

    #[test]
    fn batch_dedupes_equivalent_spellings() {
        let service = QueryService::hospital_demo();
        let d = doc(3);
        let queries = ["patient/record", "./patient/./record", "patient"];
        let batch = service
            .evaluate_batch(&queries, &d, EvaluationMode::HyPE)
            .unwrap();
        // Three slots come back, but only two distinct queries were run.
        assert_eq!(batch.results.len(), 3);
        assert_eq!(batch.stats.queries, 2);
        assert_eq!(batch.results[0].answers, batch.results[1].answers);
        assert_eq!(batch.results[0].stats, batch.results[1].stats);
        let solo = service.evaluate("patient/record", &d, EvaluationMode::HyPE).unwrap();
        assert_eq!(batch.results[1].answers, solo.answers);
    }

    #[test]
    fn zero_capacities_are_clamped_not_panicking() {
        let service = QueryService::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig {
                compiled_capacity: 0,
                index_capacity: 0,
                cache_segments: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let d = doc(1);
        let r = service.evaluate("patient", &d, EvaluationMode::OptHyPE).unwrap();
        assert!(r.stats.nodes_total > 0, "evaluation ran despite zero-capacity config");
        assert_eq!(service.stats().compiled_cached, 1);
    }

    #[test]
    fn stream_answers_match_tree_answers_and_hit_the_cache() {
        let service = QueryService::hospital_demo();
        let d = doc(4);
        let xml = smoqe_xml::to_xml_string(&d);
        let reparsed = smoqe_xml::parse_document(&xml).unwrap();
        let on_tree = service.evaluate("patient/record", &reparsed, EvaluationMode::HyPE).unwrap();
        let (streamed, stream_stats) = service.answer_stream("patient/record", xml.as_bytes()).unwrap();
        assert_eq!(streamed.answers, on_tree.answers);
        assert_eq!(streamed.stats, on_tree.stats);
        assert!(stream_stats.peak_frames <= stream_stats.peak_depth);
        // Both calls share one compilation.
        assert_eq!(service.stats().compiled_misses, 1);
        assert_eq!(service.stats().compiled_hits, 1);
    }

    #[test]
    fn stream_batch_dedupes_equivalent_spellings() {
        let service = QueryService::hospital_demo();
        let d = doc(4);
        let xml = smoqe_xml::to_xml_string(&d);
        let queries = ["patient/record", "./patient/./record", "patient"];
        let batch = service.evaluate_stream_batch(&queries, xml.as_bytes()).unwrap();
        assert_eq!(batch.results.len(), 3);
        assert_eq!(batch.stats.queries, 2, "two distinct compilations after dedup");
        assert_eq!(batch.results[0].answers, batch.results[1].answers);
        assert_eq!(batch.results[0].stats, batch.results[1].stats);
        let (solo, _) = service.answer_stream("patient/record", xml.as_bytes()).unwrap();
        assert_eq!(batch.results[1].answers, solo.answers);
    }

    #[test]
    fn answer_parallel_matches_evaluate_in_every_mode() {
        let service = QueryService::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig {
                parallel_threads: 3,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let d = doc(9);
        for query in ["patient", "patient/record/diagnosis", "(patient/parent)*/patient[record]"] {
            for mode in [
                EvaluationMode::HyPE,
                EvaluationMode::OptHyPE,
                EvaluationMode::OptHyPEC,
            ] {
                let sequential = service.evaluate(query, &d, mode).unwrap();
                let parallel = service.answer_parallel(query, &d, mode).unwrap();
                assert_eq!(parallel.answers, sequential.answers, "on `{query}` ({mode:?})");
                assert_eq!(parallel.stats, sequential.stats, "on `{query}` ({mode:?})");
            }
        }
    }

    #[test]
    fn evaluate_batch_parallel_matches_batch_and_dedupes() {
        let service = QueryService::hospital_demo();
        assert_eq!(service.parallel_threads(), 0, "default budget is all cores");
        let d = doc(3);
        let queries = ["patient/record", "./patient/./record", "patient", "//diagnosis"];
        let sequential = service.evaluate_batch(&queries, &d, EvaluationMode::HyPE).unwrap();
        let parallel = service
            .evaluate_batch_parallel(&queries, &d, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(parallel.results.len(), queries.len());
        assert_eq!(parallel.stats, sequential.stats, "aggregate stats incl. dedup");
        for (p, s) in parallel.results.iter().zip(&sequential.results) {
            assert_eq!(p.answers, s.answers);
            assert_eq!(p.stats, s.stats);
        }
    }

    #[test]
    fn malformed_queries_surface_parse_errors() {
        let service = QueryService::hospital_demo();
        let d = doc(1);
        assert!(matches!(
            service.evaluate("patient[", &d, EvaluationMode::HyPE),
            Err(EngineError::Query(_))
        ));
        assert!(service
            .evaluate_batch(&["patient", "patient["], &d, EvaluationMode::HyPE)
            .is_err());
    }

    #[test]
    fn services_over_identical_views_share_fingerprints() {
        let a = QueryService::hospital_demo();
        let b = QueryService::hospital_demo();
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn service_is_shareable_across_threads() {
        let service = std::sync::Arc::new(QueryService::hospital_demo());
        let d = std::sync::Arc::new(doc(5));
        let expected = service.evaluate("patient/record", &d, EvaluationMode::OptHyPE).unwrap();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let service = std::sync::Arc::clone(&service);
                let d = std::sync::Arc::clone(&d);
                let expected = expected.answers.clone();
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let got = service
                            .evaluate("patient/record", &d, EvaluationMode::OptHyPE)
                            .unwrap();
                        assert_eq!(got.answers, expected);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let stats = service.stats();
        assert_eq!(stats.compiled_misses, 1, "all threads share one compilation");
        assert_eq!(stats.compiled_hits, 40);
    }

    #[test]
    fn corpus_front_ends_agree_and_match_solo_evaluation() {
        let store = DocumentStore::new();
        let ids: Vec<DocId> = (1..=4).map(|s| store.insert_tree(doc(s))).collect();
        let queries = ["patient", "patient/record/diagnosis", "patient[not(parent)]"];
        let requests: Vec<(DocId, &str)> = ids
            .iter()
            .flat_map(|&id| queries.iter().map(move |&q| (id, q)))
            .collect();
        for mode in [
            EvaluationMode::HyPE,
            EvaluationMode::OptHyPE,
            EvaluationMode::OptHyPEC,
        ] {
            let reference = QueryService::hospital_demo();
            let sequential = reference.evaluate_corpus(&store, &requests, mode).unwrap();
            assert_eq!(sequential.len(), requests.len());
            for (result, &(id, query)) in sequential.iter().zip(&requests) {
                let solo = reference
                    .evaluate(query, store.get(id).unwrap().tree(), mode)
                    .unwrap();
                assert_eq!(result.answers, solo.answers, "on `{query}` ({mode:?})");
                assert_eq!(result.stats, solo.stats, "on `{query}` ({mode:?})");
            }
            for threads in [1usize, 2, 8] {
                let service = QueryService::with_config(
                    SmoqeEngine::hospital_demo().view().clone(),
                    ServiceConfig {
                        parallel_threads: threads,
                        ..ServiceConfig::default()
                    },
                )
                .unwrap();
                let parallel = service
                    .evaluate_corpus_parallel(&store, &requests, mode)
                    .unwrap();
                assert_eq!(parallel, sequential, "thread budget {threads} ({mode:?})");
            }
        }
    }

    /// Regression: removing a document through the store alone used to
    /// leave its reachability-index entries in the service cache until LRU
    /// pressure pushed them out. `remove_document` sweeps them eagerly.
    #[test]
    fn remove_document_drops_stale_index_entries() {
        let service = QueryService::hospital_demo();
        let store = DocumentStore::new();
        let a = store.insert_tree(doc(1));
        let b = store.insert_tree(doc(2)); // different interner layout than a
        service.evaluate_corpus(&store, &[(a, "patient"), (b, "patient")], EvaluationMode::OptHyPE).unwrap();
        assert_eq!(service.stats().index_cached, 2);
        assert!(service.remove_document(&store, a));
        let stats = service.stats();
        assert_eq!(stats.index_cached, 1, "only a's entry is swept");
        assert_eq!(stats.index_invalidations, 1);
        assert_eq!(stats.index_evictions, 0, "invalidation is not eviction");
        // b's entry is still hot: re-evaluating b hits, never rebuilds.
        let hits = stats.index_hits;
        service.evaluate_corpus(&store, &[(b, "patient")], EvaluationMode::OptHyPE).unwrap();
        assert_eq!(service.stats().index_hits, hits + 1);
        assert_eq!(service.stats().index_misses, 2);
        // Removing an unknown id is a no-op.
        assert!(!service.remove_document(&store, a));
        assert_eq!(service.stats().index_invalidations, 1);
    }

    #[test]
    fn remove_document_keeps_entries_shared_by_another_document() {
        let service = QueryService::hospital_demo();
        let store = DocumentStore::new();
        // Two *distinct* documents with one interner layout: same generator
        // config, different seeds... same-seed docs dedup to one id, so
        // perturb content via an edit that uses only existing labels.
        let a = store.insert_tree(doc(1));
        let tree = store.get(a).unwrap().tree().clone();
        let patient = tree
            .node_ids()
            .find(|&n| tree.label_name(n) == "patient")
            .unwrap();
        let receipt = store
            .apply_edit(a, &[EditOp::Delete { node: patient }])
            .unwrap();
        let b = receipt.new_id;
        assert_ne!(a, b);
        // a was retired by the edit; re-insert it so both versions resident.
        let a = store.insert_tree(doc(1));
        assert_eq!(
            store.get(a).unwrap().labels_fingerprint(),
            store.get(b).unwrap().labels_fingerprint(),
            "delete introduces no labels: the two documents share a fingerprint"
        );
        service
            .evaluate_corpus(&store, &[(a, "patient")], EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(service.stats().index_cached, 1);
        // Removing a must NOT sweep the entry: b still keys into it.
        assert!(service.remove_document(&store, a));
        let stats = service.stats();
        assert_eq!(stats.index_cached, 1);
        assert_eq!(stats.index_invalidations, 0);
        let hits = stats.index_hits;
        service
            .evaluate_corpus(&store, &[(b, "patient")], EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(service.stats().index_hits, hits + 1, "b hits the shared entry");
    }

    #[test]
    fn apply_edit_invalidates_only_when_the_fingerprint_changes() {
        let service = QueryService::hospital_demo();
        let store = DocumentStore::new();
        let a = store.insert_tree(doc(1));
        let b = store.insert_tree(doc(2));
        service
            .evaluate_corpus(&store, &[(a, "patient"), (b, "patient")], EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(service.stats().index_cached, 2);

        // Edit 1: delete a patient — no new labels, fingerprint unchanged,
        // so a's cached index stays valid for the new version and nothing
        // is invalidated.
        let tree = store.get(a).unwrap().tree().clone();
        let patient = tree
            .node_ids()
            .find(|&n| tree.label_name(n) == "patient")
            .unwrap();
        let r1 = service
            .apply_edit(&store, a, &[EditOp::Delete { node: patient }])
            .unwrap();
        assert_eq!(r1.old_fingerprint, r1.new_fingerprint);
        let stats = service.stats();
        assert_eq!(stats.index_cached, 2);
        assert_eq!(stats.index_invalidations, 0);
        let hits = stats.index_hits;
        service
            .evaluate_corpus(&store, &[(r1.new_id, "patient")], EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(
            service.stats().index_hits,
            hits + 1,
            "the edited version still hits the fingerprint-shared entry"
        );

        // Edit 2: insert a subtree with a label the document has never
        // seen — the fingerprint changes, the old entry is stale (no other
        // resident shares it) and is swept; b's entry survives, hot.
        let root = store.get(r1.new_id).unwrap().tree().root();
        let r2 = service
            .apply_edit(
                &store,
                r1.new_id,
                &[EditOp::Insert {
                    parent: root,
                    position: 0,
                    subtree: smoqe_xml::parse_document("<annex>audit</annex>").unwrap(),
                }],
            )
            .unwrap();
        assert_ne!(r2.old_fingerprint, r2.new_fingerprint);
        let stats = service.stats();
        assert_eq!(stats.index_cached, 1, "a's stale entry swept, b's kept");
        assert_eq!(stats.index_invalidations, 1);
        let hits = stats.index_hits;
        service
            .evaluate_corpus(&store, &[(b, "patient")], EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(service.stats().index_hits, hits + 1, "b's entry stayed hot");

        // Editing a retired id fails typed.
        assert!(matches!(
            service.apply_edit(&store, a, &[]),
            Err(StoreError::UnknownDocument(_))
        ));
    }

    /// A view over the hospital document DTD whose single annotation uses a
    /// descendant axis, so content spliced *anywhere* in the document is
    /// visible through the view — the probe for index-staleness hazards.
    fn all_diagnoses_view() -> ViewDefinition {
        use smoqe_xml::{Child, ContentModel, Dtd};
        let mut view_dtd = Dtd::new("hospital");
        view_dtd.define(
            "hospital",
            ContentModel::Sequence(vec![Child::star("diagnosis")]),
        );
        view_dtd.define("diagnosis", ContentModel::Text);
        let mut view = ViewDefinition::new(
            smoqe_xml::hospital::hospital_document_dtd(),
            view_dtd,
        );
        view.annotate_str("hospital", "diagnosis", "//diagnosis").unwrap();
        view.check().unwrap();
        view
    }

    /// Regression (ROADMAP item 2): an edit that splices a **known** label
    /// where the DTD does not produce it keeps the label fingerprint — and
    /// thus the index cache key — unchanged, so the cached DTD-derived
    /// index would keep pruning the subtree that now holds a match.
    /// Querying through the new label immediately after the edit must see
    /// it under every Opt mode.
    #[test]
    fn apply_edit_taints_indexes_for_misplaced_known_labels() {
        let service = QueryService::new(all_diagnoses_view()).unwrap();
        let store = DocumentStore::new();
        let a = store.insert_tree(doc(1));

        // Warm the cache with a pruning index for the pristine version.
        let before = service
            .evaluate("diagnosis", store.get(a).unwrap().tree(), EvaluationMode::OptHyPE)
            .unwrap();
        assert!(!before.answers.is_empty());
        assert_eq!(service.stats().index_misses, 1);

        // Splice a diagnosis under an <address> — a place the DTD's
        // productions never put one, inside a subtree the index prunes.
        let tree = store.get(a).unwrap().tree().clone();
        let address = tree
            .node_ids()
            .find(|&n| tree.label_name(n) == "address")
            .unwrap();
        let receipt = service
            .apply_edit(
                &store,
                a,
                &[EditOp::Insert {
                    parent: address,
                    position: 0,
                    subtree: smoqe_xml::parse_document("<diagnosis>spliced</diagnosis>")
                        .unwrap(),
                }],
            )
            .unwrap();
        assert_eq!(
            receipt.old_fingerprint, receipt.new_fingerprint,
            "the label already existed: the cache key does not change"
        );
        assert_eq!(
            service.stats().index_invalidations,
            1,
            "the taint sweep dropped the cached pruning index"
        );

        // The view exposes every diagnosis; all modes must agree with the
        // spec-level oracle, which sees the spliced node.
        let edited = store.get(receipt.new_id).unwrap();
        let new_tree = edited.tree();
        let oracle = smoqe_xpath::evaluate(
            new_tree,
            new_tree.root(),
            &parse_path("//diagnosis").unwrap(),
        );
        assert!(oracle.len() > before.answers.len(), "the splice is visible");
        for mode in [
            EvaluationMode::HyPE,
            EvaluationMode::OptHyPE,
            EvaluationMode::OptHyPEC,
        ] {
            let got = service.evaluate("diagnosis", new_tree, mode).unwrap();
            assert_eq!(got.answers, oracle, "stale pruning under {mode:?}");
        }

        // The conforming sibling still resident under the same fingerprint
        // keeps answering correctly (through no-prune indexes).
        let b = store.insert_tree(doc(1));
        let sibling = service
            .evaluate("diagnosis", store.get(b).unwrap().tree(), EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(sibling.answers, before.answers);
    }

    /// Regression (ROADMAP item 2): an edit that introduces a label the DTD
    /// does not define at all. The fingerprint changes (so the old cache
    /// entries are swept by the existing precise invalidation), but the
    /// *freshly built* index must also refuse to prune — with the unknown
    /// label in the interner the document provably does not conform, so a
    /// known-label match spliced next to it would be skipped by DTD rows.
    ///
    /// Note the annotation's `//` ranges over *document-DTD* labels (both
    /// `materialize` and the rewrite use [`ViewDefinition::normalized_annotation`]),
    /// so content *inside* the unknown element is outside the view by
    /// definition; the hazard under test is pruning of the known-label
    /// sibling. HyPE (never prunes) is the oracle the Opt modes must match.
    #[test]
    fn querying_through_a_dtd_unknown_label_right_after_the_edit() {
        let service = QueryService::new(all_diagnoses_view()).unwrap();
        let store = DocumentStore::new();
        let a = store.insert_tree(doc(2));
        let before = service
            .evaluate("diagnosis", store.get(a).unwrap().tree(), EvaluationMode::OptHyPEC)
            .unwrap();

        let tree = store.get(a).unwrap().tree().clone();
        let address = tree
            .node_ids()
            .find(|&n| tree.label_name(n) == "address")
            .unwrap();
        // Two splices under the same (pruned) <address>: an element type the
        // DTD has never heard of, and a reachable known-label diagnosis.
        let receipt = service
            .apply_edit(
                &store,
                a,
                &[
                    EditOp::Insert {
                        parent: address,
                        position: 0,
                        subtree: smoqe_xml::parse_document("<annex>noise</annex>").unwrap(),
                    },
                    EditOp::Insert {
                        parent: address,
                        position: 0,
                        subtree: smoqe_xml::parse_document("<diagnosis>smuggled</diagnosis>")
                            .unwrap(),
                    },
                ],
            )
            .unwrap();
        assert_ne!(
            receipt.old_fingerprint, receipt.new_fingerprint,
            "`annex` is a brand-new label"
        );

        let edited = store.get(receipt.new_id).unwrap();
        let new_tree = edited.tree();
        let engine = SmoqeEngine::new(all_diagnoses_view()).unwrap();
        let oracle = service
            .evaluate("diagnosis", new_tree, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(
            oracle.answers.len(),
            before.answers.len() + 1,
            "the spliced known-label diagnosis is in the view"
        );
        for mode in [EvaluationMode::OptHyPE, EvaluationMode::OptHyPEC] {
            let got = service.evaluate("diagnosis", new_tree, mode).unwrap();
            assert_eq!(
                got.answers, oracle.answers,
                "lost the smuggled diagnosis under {mode:?}"
            );
            // The engine path (fresh index per call) must agree too.
            let by_engine = engine.answer_with_stats("diagnosis", new_tree, mode).unwrap();
            assert_eq!(by_engine.answers, oracle.answers);
        }
    }

    #[test]
    fn corpus_requests_naming_unknown_documents_fail_typed() {
        let service = QueryService::hospital_demo();
        let store = DocumentStore::new();
        let known = store.insert_tree(doc(1));
        let missing = DocId(known.0 ^ 1);
        let err = service
            .evaluate_corpus(
                &store,
                &[(known, "patient"), (missing, "patient")],
                EvaluationMode::HyPE,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::UnknownDocument(id) if id == missing));
        assert!(err.to_string().contains("not in the store"));
    }

    #[test]
    fn corpus_evaluation_shares_both_service_caches() {
        let service = QueryService::hospital_demo();
        let store = DocumentStore::new();
        let a = store.insert_tree(doc(1));
        let b = store.insert_tree(doc(2));
        let requests = [
            (a, "patient/record"),
            (b, "patient/record"),
            (a, "patient/record"),
        ];
        service
            .evaluate_corpus(&store, &requests, EvaluationMode::OptHyPE)
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.compiled_misses, 1, "one spelling, one compilation");
        assert_eq!(stats.compiled_hits, 2);
        // doc(1) and doc(2) intern differently (see
        // `indexes_are_shared_across_calls_and_documents_with_one_interner`),
        // so two index builds; the repeated request for `a` hits.
        assert_eq!(stats.index_misses, 2);
        assert_eq!(stats.index_hits, 1);
        // The fingerprint stored at insert time keys the very same cache the
        // tree front-end computes its key into.
        service
            .evaluate(
                "patient/record",
                store.get(a).unwrap().tree(),
                EvaluationMode::OptHyPE,
            )
            .unwrap();
        assert_eq!(service.stats().index_misses, 2);
        assert_eq!(service.stats().index_hits, 2);
    }
}
