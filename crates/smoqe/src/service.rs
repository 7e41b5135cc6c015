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
//! * one **tree front end** ([`QueryService::evaluate_batch`]) that pushes
//!   N cached queries through a single HyPE pass
//!   ([`smoqe_hype::evaluate_tree`]) instead of N traversals
//!   ([`QueryService::evaluate`] is a batch of one). A document of at least
//!   [`SHARD_FLOOR_NODES`] live nodes is sharded over the configured thread
//!   budget ([`smoqe_hype::parallel`]), a smaller one takes the sequential
//!   walk, with answers and statistics identical either way;
//! * one **corpus front end** ([`QueryService::evaluate_corpus`]) that
//!   routes (document, query) requests against a [`DocumentStore`] across
//!   documents over the same budget;
//! * one **stream front end** ([`QueryService::answer_stream`]) for
//!   documents that are never materialized.
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
    BatchResult, CompiledBatchQuery, CorpusTask, HypeResult, ReachabilityIndex, StreamStats,
};
use smoqe_views::ViewDefinition;
use smoqe_xml::{labels_fingerprint, EditOp, XmlTree};
use smoqe_xpath::{normalize, parse_path, Path};

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
    /// Thread budget of the tree front end ([`QueryService::evaluate`] /
    /// [`QueryService::evaluate_batch`]) on documents of at least
    /// [`SHARD_FLOOR_NODES`] live nodes, and of
    /// [`QueryService::evaluate_corpus`] on any corpus: `0` uses all
    /// available cores, `1` runs the sequential walk on the calling thread.
    /// Answers and statistics are the same at every budget.
    ///
    /// A `smoqed` `Query` or `BatchQuery` on a large document therefore
    /// shards over this budget; a daemon that already keeps every core busy
    /// with request workers may set it to `1`.
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
    /// Shard skew of the most recent tree pass that ran under a thread
    /// budget other than 1: `evaluate` / `evaluate_batch` on a document of
    /// at least [`SHARD_FLOOR_NODES`] live nodes, and `answer_parallel`.
    /// The largest work unit's share of the physically visited nodes, in
    /// `[0, 1]` (`0.0` before any such call, and after one whose plan fell
    /// back to the walk). Scheduling observability — excluded from
    /// equality, like `HypeStats::max_shard_fraction`.
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

/// Live-node count from which [`QueryService::evaluate`] and
/// [`QueryService::evaluate_batch`] shard the document over
/// [`ServiceConfig::parallel_threads`]; smaller documents take the
/// sequential walk. Measured on a 2-vCPU host, budget 2 against budget 1
/// (solo and batched passes at a forced budget over the hospital
/// domain's standard documents, the Fig. 8/9 queries through the identity
/// view and the recursive research-view queries, all three modes; medians
/// of alternated pairs, three runs): solo queries read 0.84–0.93× at
/// 4.5·10³ nodes, 0.99–1.08× at 9.4·10³, 1.03–1.24× at 1.4·10⁴,
/// 1.07–1.16× at 1.9·10⁴, 1.20–1.29× at 2.8·10⁴ and 1.55–1.62× at
/// 3.2·10⁵; batches read 1.05–1.13× already at 4.5·10³. The solo
/// crossover lies between 4.5·10³ and 9.4·10³ nodes, but the gain stays
/// inside the noise up to 9.4·10³ while the CPU spent doubles, so the
/// floor is the first power of two above 1.4·10⁴, the smallest size
/// that gained in every run.
pub const SHARD_FLOOR_NODES: usize = 16_384;

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
    /// Thread budget of sharded and corpus passes (0 = all cores).
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
    /// `f64::to_bits` of the most recent sharded pass's largest work-unit
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

    /// The index `mode` prunes `compiled` with over `doc`, from cache
    /// (built and cached on first use): `None` for plain HyPE.
    /// `doc_labels` yields `doc`'s label fingerprint, the document half of
    /// the cache key; it is called only in the Opt modes, so plain HyPE
    /// never hashes the label table. The corpus path passes the stored
    /// document's precomputed fingerprint
    /// ([`StoredDocument::labels_fingerprint`]).
    fn index_for(
        &self,
        compiled: &CompiledQuery,
        doc: &XmlTree,
        doc_labels: impl FnOnce() -> u64,
        mode: EvaluationMode,
    ) -> Option<Arc<ReachabilityIndex>> {
        let compressed = mode.compressed_index()?;
        let doc_labels = doc_labels();
        debug_assert_eq!(doc_labels, labels_fingerprint(doc.labels()));
        let key = IndexKey {
            query: compiled.query().to_string(),
            doc_labels,
            compressed,
        };
        if let Some(cached) = self.indexes.get(&key) {
            self.index_hits.fetch_add(1, Ordering::Relaxed);
            return Some(cached);
        }
        self.index_misses.fetch_add(1, Ordering::Relaxed);
        // A tainted fingerprint means *some* resident version with this
        // interner layout is non-conformant; a pruning index cached under
        // the shared key would serve that version wrongly, so every build
        // under the fingerprint degrades to no-prune. (`build_index` itself
        // also degrades when `doc` is the non-conformant one — the taint
        // covers the conforming sibling that would otherwise repopulate the
        // shared entry with pruning rows.)
        let index = if self
            .tainted
            .lock()
            .expect("taint set lock")
            .contains(&doc_labels)
        {
            Arc::new(ReachabilityIndex::no_prune(
                compiled.compiled().labels(),
                doc.labels(),
                compressed,
            ))
        } else {
            Arc::new(compiled.build_index(self.view().document_dtd(), doc, compressed))
        };
        self.indexes.insert(key, Arc::clone(&index));
        Some(index)
    }

    /// Answers `query` over `doc` with `mode`: [`Self::evaluate_batch`] on
    /// a batch of one, so it hits both caches, and a document of at least
    /// [`SHARD_FLOOR_NODES`] live nodes is sharded over
    /// [`ServiceConfig::parallel_threads`] while a smaller one takes the
    /// sequential walk. A cache hit skips the rewrite **and** the
    /// execution-IR compilation: the cached [`CompiledQuery`] carries its
    /// `Arc<CompiledMfa>`. Answers and statistics are the same at every
    /// thread budget.
    pub fn evaluate(
        &self,
        query: &str,
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<HypeResult, EngineError> {
        Ok(self.evaluate_batch(&[query], doc, mode)?.results.remove(0))
    }

    /// [`Self::evaluate`] at [`ServiceConfig::parallel_threads`] whatever
    /// the document's size (no [`SHARD_FLOOR_NODES`] rule). Kept under
    /// this name because the `perfbench` benchmark calls it.
    pub fn answer_parallel(
        &self,
        query: &str,
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<HypeResult, EngineError> {
        Ok(self
            .batch_at(&[query], doc, mode, self.parallel_threads)?
            .results
            .remove(0))
    }

    /// Answers all of `queries` over `doc` in **one** document pass: the
    /// service's tree front end.
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
    ///
    /// The pass is sharded over [`ServiceConfig::parallel_threads`] on a
    /// document of at least [`SHARD_FLOOR_NODES`] live nodes, with the same
    /// answers and statistics as the sequential walk it takes below that.
    pub fn evaluate_batch(
        &self,
        queries: &[&str],
        doc: &XmlTree,
        mode: EvaluationMode,
    ) -> Result<BatchResult, EngineError> {
        let threads = if doc.live_len() >= SHARD_FLOOR_NODES {
            self.parallel_threads
        } else {
            1
        };
        self.batch_at(queries, doc, mode, threads)
    }

    /// The body of [`Self::evaluate_batch`] under the thread budget
    /// `threads`: compile and deduplicate through the caches, resolve each
    /// distinct query's index, run one [`smoqe_hype::evaluate_tree`], record
    /// the shard skew of a sharded pass, and fan the results back out to
    /// the caller's positions.
    fn batch_at(
        &self,
        queries: &[&str],
        doc: &XmlTree,
        mode: EvaluationMode,
        threads: usize,
    ) -> Result<BatchResult, EngineError> {
        let (unique, slot_of) = self.compile_deduped(queries)?;
        let indexes: Vec<Option<Arc<ReachabilityIndex>>> = unique
            .iter()
            .map(|c| self.index_for(c, doc, || labels_fingerprint(doc.labels()), mode))
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
        if threads != 1 {
            // The queries of a pass share one skew (an empty batch records
            // nothing).
            if let Some(first) = result.results.first() {
                self.last_max_shard_fraction
                    .store(first.stats.max_shard_fraction.to_bits(), Ordering::Relaxed);
            }
        }
        Ok(fan_out(result, &slot_of))
    }

    /// Answers a batch of (document, query) requests against `store`,
    /// routing them **across documents** over the service's thread budget
    /// ([`ServiceConfig::parallel_threads`]) — one request per work item on
    /// the worker pool of [`smoqe_hype::corpus`]; a budget of 1, or a single
    /// request, runs on the calling thread. Results are in request order,
    /// with answers and per-request [`HypeStats`](smoqe_hype::HypeStats)
    /// **bit-identical** to sequential [`Self::evaluate`] calls at every
    /// thread budget; parallelism only changes wall-clock time.
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
        let items: Vec<CorpusItem> = requests
            .iter()
            .map(|&(id, query)| {
                let doc = store.get(id).ok_or(EngineError::UnknownDocument(id))?;
                let compiled = self.compile(query)?;
                let index =
                    self.index_for(&compiled, doc.tree(), || doc.labels_fingerprint(), mode);
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
        Ok(smoqe_hype::evaluate_corpus(&tasks, self.parallel_threads))
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

    /// The thread budget of the service's sharded and corpus passes
    /// (0 = all available cores); see [`ServiceConfig::parallel_threads`].
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
        self.tainted
            .lock()
            .expect("taint set lock")
            .remove(&fingerprint);
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
/// positions: slot `i` of the output gets the result of the distinct
/// compilation that input `i` mapped to. Each result moves into the last
/// slot that names it; only the earlier slots of a repeated spelling clone.
fn fan_out(result: BatchResult, slot_of: &[usize]) -> BatchResult {
    let mut uses_left = vec![0usize; result.results.len()];
    for &slot in slot_of {
        uses_left[slot] += 1;
    }
    let mut distinct: Vec<Option<HypeResult>> = result.results.into_iter().map(Some).collect();
    let results = slot_of
        .iter()
        .map(|&slot| {
            uses_left[slot] -= 1;
            let moved = if uses_left[slot] == 0 {
                distinct[slot].take()
            } else {
                distinct[slot].clone()
            };
            moved.expect("a distinct result is taken only by its last slot")
        })
        .collect();
    BatchResult {
        results,
        stats: result.stats,
    }
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

    /// A hospital document of at least [`SHARD_FLOOR_NODES`] live nodes,
    /// which the tree front end shards.
    fn large_doc() -> XmlTree {
        let large = generate_hospital(&HospitalConfig {
            patients: 1_000,
            departments: 8,
            max_ancestor_depth: 2,
            seed: 5,
            ..Default::default()
        });
        assert!(
            large.live_len() >= SHARD_FLOOR_NODES,
            "{} nodes",
            large.live_len()
        );
        large
    }

    #[test]
    fn repeated_queries_hit_the_compiled_cache() {
        let service = QueryService::hospital_demo();
        let d = doc(1);
        for _ in 0..5 {
            service
                .evaluate("patient/record", &d, EvaluationMode::HyPE)
                .unwrap();
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
        let a = service
            .evaluate("./patient/./record", &d, EvaluationMode::HyPE)
            .unwrap();
        let b = service
            .evaluate("patient/record", &d, EvaluationMode::HyPE)
            .unwrap();
        let c = service.evaluate(
            "patient[not(not(record))]/record | patient/record",
            &d,
            EvaluationMode::HyPE,
        );
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
                let by_engine = engine.answer(query, &d, mode).unwrap();
                assert_eq!(
                    by_service.answers, by_engine.answers,
                    "on `{query}` ({mode:?})"
                );
                assert_eq!(by_service.stats, by_engine.stats, "on `{query}` ({mode:?})");
            }
        }
    }

    #[test]
    fn indexes_are_shared_across_calls_and_documents_with_one_interner() {
        let service = QueryService::hospital_demo();
        let d1 = doc(1);
        service
            .evaluate("patient/record", &d1, EvaluationMode::OptHyPE)
            .unwrap();
        service
            .evaluate("patient/record", &d1, EvaluationMode::OptHyPE)
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.index_misses, 1);
        assert_eq!(stats.index_hits, 1);
        // A distinct document instance with the same interner layout (same
        // generator run) shares the cached index.
        let d2 = doc(1);
        service
            .evaluate("patient/record", &d2, EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(service.stats().index_misses, 1);
        assert_eq!(service.stats().index_hits, 2);
        // A document whose interner differs (different content ⇒ different
        // interning order) must NOT reuse the index: its LabelIds would row
        // into the wrong entries.
        let d3 = doc(2);
        service
            .evaluate("patient/record", &d3, EvaluationMode::OptHyPE)
            .unwrap();
        assert_eq!(service.stats().index_misses, 2);
        // The compressed flavour is a distinct cache entry.
        service
            .evaluate("patient/record", &d1, EvaluationMode::OptHyPEC)
            .unwrap();
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
        service
            .evaluate("patient", &d, EvaluationMode::HyPE)
            .unwrap();
        service
            .evaluate("patient/record", &d, EvaluationMode::HyPE)
            .unwrap();
        service
            .evaluate("patient/parent", &d, EvaluationMode::HyPE)
            .unwrap();
        let stats = service.stats();
        assert_eq!(stats.compiled_cached, 2);
        assert_eq!(stats.compiled_evictions, 1);
        // The evicted entry ("patient") recompiles on next use.
        service
            .evaluate("patient", &d, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(service.stats().compiled_misses, 4);
    }

    #[test]
    fn batch_results_align_with_solo_evaluation() {
        let service = QueryService::hospital_demo();
        let d = doc(3);
        let queries = [
            "patient",
            "patient/record/diagnosis",
            "patient[not(parent)]",
        ];
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
        let queries = [
            "patient/record",
            "patient",
            "./patient/./record",
            "./patient",
            "//diagnosis",
            "patient/./record",
        ];
        let batch = service
            .evaluate_batch(&queries, &d, EvaluationMode::HyPE)
            .unwrap();
        // Six slots come back, but only three distinct queries were run.
        assert_eq!(batch.results.len(), queries.len());
        assert_eq!(batch.stats.queries, 3);
        for (slot, query) in batch.results.iter().zip(queries) {
            let solo = service.evaluate(query, &d, EvaluationMode::HyPE).unwrap();
            assert_eq!(slot, &solo, "on `{query}`");
        }
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
        let r = service
            .evaluate("patient", &d, EvaluationMode::OptHyPE)
            .unwrap();
        assert!(
            r.stats.nodes_total > 0,
            "evaluation ran despite zero-capacity config"
        );
        assert_eq!(service.stats().compiled_cached, 1);
    }

    #[test]
    fn stream_answers_match_tree_answers_and_hit_the_cache() {
        let service = QueryService::hospital_demo();
        let d = doc(4);
        let xml = smoqe_xml::to_xml_string(&d);
        let reparsed = smoqe_xml::parse_document(&xml).unwrap();
        let on_tree = service
            .evaluate("patient/record", &reparsed, EvaluationMode::HyPE)
            .unwrap();
        let (streamed, stream_stats) = service
            .answer_stream("patient/record", xml.as_bytes())
            .unwrap();
        assert_eq!(streamed.answers, on_tree.answers);
        assert_eq!(streamed.stats, on_tree.stats);
        assert!(stream_stats.peak_frames <= stream_stats.peak_depth);
        // Both calls share one compilation.
        assert_eq!(service.stats().compiled_misses, 1);
        assert_eq!(service.stats().compiled_hits, 1);
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
        for query in [
            "patient",
            "patient/record/diagnosis",
            "(patient/parent)*/patient[record]",
        ] {
            for mode in [
                EvaluationMode::HyPE,
                EvaluationMode::OptHyPE,
                EvaluationMode::OptHyPEC,
            ] {
                let sequential = service.evaluate(query, &d, mode).unwrap();
                let parallel = service.answer_parallel(query, &d, mode).unwrap();
                assert_eq!(
                    parallel.answers, sequential.answers,
                    "on `{query}` ({mode:?})"
                );
                assert_eq!(parallel.stats, sequential.stats, "on `{query}` ({mode:?})");
            }
        }
    }

    #[test]
    fn sharded_batch_matches_the_walk_and_dedupes() {
        let service = QueryService::hospital_demo();
        assert_eq!(service.parallel_threads(), 0, "default budget is all cores");
        let walking = QueryService::with_config(
            SmoqeEngine::hospital_demo().view().clone(),
            ServiceConfig {
                parallel_threads: 1,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        let d = large_doc();
        let queries = [
            "patient/record",
            "./patient/./record",
            "patient",
            "//diagnosis",
        ];
        let walked = walking
            .evaluate_batch(&queries, &d, EvaluationMode::HyPE)
            .unwrap();
        let sharded = service
            .evaluate_batch(&queries, &d, EvaluationMode::HyPE)
            .unwrap();
        assert_eq!(sharded.results.len(), queries.len());
        assert_eq!(
            sharded.stats.queries, 3,
            "two spellings share one compilation"
        );
        assert_eq!(sharded.stats, walked.stats, "aggregate stats incl. dedup");
        for (s, w) in sharded.results.iter().zip(&walked.results) {
            assert_eq!(s.answers, w.answers);
            assert_eq!(s.stats, w.stats);
        }
    }

    #[test]
    fn evaluate_shards_from_the_floor_on_with_the_same_results() {
        let config = |parallel_threads| ServiceConfig {
            parallel_threads,
            ..ServiceConfig::default()
        };
        let view = SmoqeEngine::hospital_demo().view().clone();
        let walking = QueryService::with_config(view.clone(), config(1)).unwrap();
        let sharding = QueryService::with_config(view, config(2)).unwrap();
        let small = doc(5);
        let large = large_doc();
        assert!(small.live_len() < SHARD_FLOOR_NODES);
        let queries = [
            "patient/record",
            "(patient/parent)*/patient[record]",
            "//diagnosis",
        ];
        for mode in [
            EvaluationMode::HyPE,
            EvaluationMode::OptHyPE,
            EvaluationMode::OptHyPEC,
        ] {
            // Below the floor: the sequential walk, which forms no shard.
            let solo = sharding.evaluate(queries[0], &small, mode).unwrap();
            let batch = sharding.evaluate_batch(&queries, &small, mode).unwrap();
            for r in std::iter::once(&solo).chain(&batch.results) {
                assert_eq!(r.stats.max_shard_fraction, 0.0, "{mode:?}");
            }
            // From the floor on: sharded, with budget 1's answers and stats.
            for query in queries {
                let sharded = sharding.evaluate(query, &large, mode).unwrap();
                let walked = walking.evaluate(query, &large, mode).unwrap();
                assert!(
                    sharded.stats.max_shard_fraction > 0.0,
                    "`{query}` ({mode:?})"
                );
                assert_eq!(sharded.answers, walked.answers, "`{query}` ({mode:?})");
                assert_eq!(sharded.stats, walked.stats, "`{query}` ({mode:?})");
            }
            let sharded = sharding.evaluate_batch(&queries, &large, mode).unwrap();
            let walked = walking.evaluate_batch(&queries, &large, mode).unwrap();
            assert_eq!(sharded.stats, walked.stats, "{mode:?}");
            for (s, w) in sharded.results.iter().zip(&walked.results) {
                assert!(s.stats.max_shard_fraction > 0.0, "{mode:?}");
                assert_eq!(s.answers, w.answers, "{mode:?}");
                assert_eq!(s.stats, w.stats, "{mode:?}");
            }
        }
    }

    #[test]
    fn evaluate_records_shard_fraction_from_the_floor_on() {
        let config = |parallel_threads| ServiceConfig {
            parallel_threads,
            ..ServiceConfig::default()
        };
        let view = SmoqeEngine::hospital_demo().view().clone();
        let walking = QueryService::with_config(view.clone(), config(1)).unwrap();
        let sharding = QueryService::with_config(view, config(2)).unwrap();
        let small = doc(5);
        let large = large_doc();
        assert!(small.live_len() < SHARD_FLOOR_NODES);
        let fraction = |service: &QueryService| service.stats().last_max_shard_fraction;
        let mode = EvaluationMode::HyPE;

        // Below the floor: the walk, nothing recorded.
        sharding.evaluate("//diagnosis", &small, mode).unwrap();
        sharding
            .evaluate_batch(&["patient", "//diagnosis"], &small, mode)
            .unwrap();
        assert_eq!(fraction(&sharding), 0.0);

        // From the floor on: each sharded call records its skew.
        let solo = sharding.evaluate("//diagnosis", &large, mode).unwrap();
        assert!(solo.stats.max_shard_fraction > 0.0);
        assert_eq!(fraction(&sharding), solo.stats.max_shard_fraction);
        let batch = sharding
            .evaluate_batch(
                &["patient/record", "(patient/parent)*/patient"],
                &large,
                mode,
            )
            .unwrap();
        assert!(batch.results[0].stats.max_shard_fraction > 0.0);
        assert_eq!(
            fraction(&sharding),
            batch.results[0].stats.max_shard_fraction
        );

        // A later call below the floor leaves the last sharded reading.
        sharding.evaluate("//diagnosis", &small, mode).unwrap();
        assert_eq!(
            fraction(&sharding),
            batch.results[0].stats.max_shard_fraction
        );

        // A budget of 1 never shards, above the floor too.
        walking.evaluate("//diagnosis", &large, mode).unwrap();
        walking
            .evaluate_batch(&["patient", "//diagnosis"], &large, mode)
            .unwrap();
        assert_eq!(fraction(&walking), 0.0);
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
        let expected = service
            .evaluate("patient/record", &d, EvaluationMode::OptHyPE)
            .unwrap();
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
        assert_eq!(
            stats.compiled_misses, 1,
            "all threads share one compilation"
        );
        assert_eq!(stats.compiled_hits, 40);
    }

    #[test]
    fn corpus_front_ends_agree_and_match_solo_evaluation() {
        let store = DocumentStore::new();
        let ids: Vec<DocId> = (1..=4).map(|s| store.insert_tree(doc(s))).collect();
        let queries = [
            "patient",
            "patient/record/diagnosis",
            "patient[not(parent)]",
        ];
        let requests: Vec<(DocId, &str)> = ids
            .iter()
            .flat_map(|&id| queries.iter().map(move |&q| (id, q)))
            .collect();
        let service = |parallel_threads| {
            QueryService::with_config(
                SmoqeEngine::hospital_demo().view().clone(),
                ServiceConfig {
                    parallel_threads,
                    ..ServiceConfig::default()
                },
            )
            .unwrap()
        };
        for mode in [
            EvaluationMode::HyPE,
            EvaluationMode::OptHyPE,
            EvaluationMode::OptHyPEC,
        ] {
            let reference = service(1);
            let sequential = reference.evaluate_corpus(&store, &requests, mode).unwrap();
            assert_eq!(sequential.len(), requests.len());
            for (result, &(id, query)) in sequential.iter().zip(&requests) {
                let solo = reference
                    .evaluate(query, store.get(id).unwrap().tree(), mode)
                    .unwrap();
                assert_eq!(result.answers, solo.answers, "on `{query}` ({mode:?})");
                assert_eq!(result.stats, solo.stats, "on `{query}` ({mode:?})");
            }
            for threads in [2usize, 8] {
                let parallel = service(threads)
                    .evaluate_corpus(&store, &requests, mode)
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
        service
            .evaluate_corpus(
                &store,
                &[(a, "patient"), (b, "patient")],
                EvaluationMode::OptHyPE,
            )
            .unwrap();
        assert_eq!(service.stats().index_cached, 2);
        assert!(service.remove_document(&store, a));
        let stats = service.stats();
        assert_eq!(stats.index_cached, 1, "only a's entry is swept");
        assert_eq!(stats.index_invalidations, 1);
        assert_eq!(stats.index_evictions, 0, "invalidation is not eviction");
        // b's entry is still hot: re-evaluating b hits, never rebuilds.
        let hits = stats.index_hits;
        service
            .evaluate_corpus(&store, &[(b, "patient")], EvaluationMode::OptHyPE)
            .unwrap();
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
        assert_eq!(
            service.stats().index_hits,
            hits + 1,
            "b hits the shared entry"
        );
    }

    #[test]
    fn apply_edit_invalidates_only_when_the_fingerprint_changes() {
        let service = QueryService::hospital_demo();
        let store = DocumentStore::new();
        let a = store.insert_tree(doc(1));
        let b = store.insert_tree(doc(2));
        service
            .evaluate_corpus(
                &store,
                &[(a, "patient"), (b, "patient")],
                EvaluationMode::OptHyPE,
            )
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
        let mut view = ViewDefinition::new(smoqe_xml::hospital::hospital_document_dtd(), view_dtd);
        view.annotate_str("hospital", "diagnosis", "//diagnosis")
            .unwrap();
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
            .evaluate(
                "diagnosis",
                store.get(a).unwrap().tree(),
                EvaluationMode::OptHyPE,
            )
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
                    subtree: smoqe_xml::parse_document("<diagnosis>spliced</diagnosis>").unwrap(),
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
            .evaluate(
                "diagnosis",
                store.get(b).unwrap().tree(),
                EvaluationMode::OptHyPE,
            )
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
            .evaluate(
                "diagnosis",
                store.get(a).unwrap().tree(),
                EvaluationMode::OptHyPEC,
            )
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
            let by_engine = engine.answer("diagnosis", new_tree, mode).unwrap();
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
