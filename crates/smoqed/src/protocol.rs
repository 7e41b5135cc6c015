//! The `smoqed` wire protocol: length-prefixed binary frames.
//!
//! Every message — request or response — travels as one **frame**:
//!
//! ```text
//! [ body_len : u32 LE ][ body : body_len bytes ]
//! body = [ tag : u8 ][ payload ]
//! ```
//!
//! `body_len` counts the tag byte plus the payload and must be in
//! `1..=MAX_FRAME_LEN`; a zero or oversized prefix is rejected before any
//! payload is read, so a malicious length can neither allocate unbounded
//! memory nor stall the reader. Within a payload the primitives are:
//!
//! * fixed-width integers, little-endian (`u8`, `u16`, `u32`, `u64`);
//! * strings as `u32` byte length + UTF-8 bytes;
//! * byte blobs as `u32` length + raw bytes (document snapshots in the
//!   `smoqe_xml::snapshot` format travel this way — they carry their own
//!   checksums, so the frame layer does not duplicate them);
//! * sequences as `u32` element count + that many encoded elements.
//!
//! Decoding is **total**: any input either decodes to a message or returns
//! a typed [`ProtocolError`] — truncated payloads, unknown tags, trailing
//! garbage and malformed UTF-8 are all errors, never panics. Decoding
//! never trusts a declared count for pre-allocation, so hostile frames
//! cannot force large allocations beyond the (already bounded) frame size.
//!
//! Because frames are length-delimited, a server that reads a well-formed
//! frame whose *body* fails to decode is still synchronized on the stream
//! and can answer a typed [`Response::Error`] and keep the connection; only
//! a malformed length prefix desynchronizes and forces a close (after a
//! final error frame).

use std::fmt;
use std::io::{self, Read, Write};

use smoqe::{EvaluationMode, ServiceStats};
use smoqe_hype::{BatchStats, HypeResult, HypeStats};
use smoqe_views::ViewDefinition;
use smoqe_xml::{Child, ContentModel, Dtd, NodeId};

/// Upper bound on a frame body (tag + payload), in bytes. Large enough for
/// a multi-megabyte document snapshot, small enough that a hostile length
/// prefix cannot ask the server to buffer gigabytes.
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Every way a frame or message can fail to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolError {
    /// The input ended before the declared length was available.
    Truncated {
        /// Bytes the decoder needed at the failure point.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The length prefix declared an empty body (every body has a tag).
    EmptyFrame,
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    Oversized {
        /// The declared body length.
        declared: u32,
        /// The enforced maximum.
        max: u32,
    },
    /// The body's first byte is not a known request tag.
    UnknownRequestTag(u8),
    /// The body's first byte is not a known response tag.
    UnknownResponseTag(u8),
    /// An evaluation-mode byte outside `0..=2`.
    UnknownMode(u8),
    /// An edit-op tag outside `0..=2`.
    UnknownEditTag(u8),
    /// A content-model tag outside `0..=3`.
    UnknownContentModelTag(u8),
    /// An error code not produced by any server version.
    UnknownErrorCode(u16),
    /// A boolean byte that is neither 0 nor 1.
    InvalidBool(u8),
    /// A string field holding invalid UTF-8.
    InvalidUtf8,
    /// The message decoded but bytes remain in the body.
    TrailingBytes {
        /// How many undecoded bytes follow the message.
        extra: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated frame: needed {needed} bytes, have {available}"
                )
            }
            ProtocolError::EmptyFrame => write!(f, "empty frame body"),
            ProtocolError::Oversized { declared, max } => {
                write!(
                    f,
                    "frame body of {declared} bytes exceeds the {max}-byte limit"
                )
            }
            ProtocolError::UnknownRequestTag(t) => write!(f, "unknown request tag 0x{t:02x}"),
            ProtocolError::UnknownResponseTag(t) => write!(f, "unknown response tag 0x{t:02x}"),
            ProtocolError::UnknownMode(m) => write!(f, "unknown evaluation mode {m}"),
            ProtocolError::UnknownEditTag(t) => write!(f, "unknown edit-op tag {t}"),
            ProtocolError::UnknownContentModelTag(t) => {
                write!(f, "unknown content-model tag {t}")
            }
            ProtocolError::UnknownErrorCode(c) => write!(f, "unknown error code {c}"),
            ProtocolError::InvalidBool(b) => write!(f, "invalid boolean byte {b}"),
            ProtocolError::InvalidUtf8 => write!(f, "string field is not valid UTF-8"),
            ProtocolError::TrailingBytes { extra } => {
                write!(f, "{extra} trailing bytes after the message")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A frame-level read failure: either the transport failed or the stream
/// carried a malformed frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying reader failed.
    Io(io::Error),
    /// The stream held a malformed frame (bad prefix, truncated body).
    Protocol(ProtocolError),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o failed: {e}"),
            FrameError::Protocol(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<ProtocolError> for FrameError {
    fn from(e: ProtocolError) -> Self {
        FrameError::Protocol(e)
    }
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Which error a [`Response::Error`] frame reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u16)]
pub enum ErrorCode {
    /// The request frame or body was malformed.
    Protocol = 1,
    /// The named tenant has no registered view.
    UnknownTenant = 2,
    /// The document id is not in the tenant's store.
    UnknownDocument = 3,
    /// The query text failed to parse.
    BadQuery = 4,
    /// The view definition failed to validate (DTDs, annotations, rewrite).
    BadView = 5,
    /// The document snapshot bytes failed to validate.
    BadSnapshot = 6,
    /// An edit op could not be applied.
    BadEdit = 7,
    /// Anything else (should not happen; reported rather than swallowed).
    Internal = 8,
}

impl ErrorCode {
    fn from_u16(v: u16) -> Result<Self, ProtocolError> {
        Ok(match v {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::UnknownTenant,
            3 => ErrorCode::UnknownDocument,
            4 => ErrorCode::BadQuery,
            5 => ErrorCode::BadView,
            6 => ErrorCode::BadSnapshot,
            7 => ErrorCode::BadEdit,
            8 => ErrorCode::Internal,
            other => return Err(ProtocolError::UnknownErrorCode(other)),
        })
    }
}

/// A DTD as it travels on the wire: the root type plus every production in
/// the canonical tagged encoding (the same structural shape
/// `smoqe_xml::fingerprint` folds, so a view survives the wire with its
/// fingerprint — and hence its cache keys — intact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireDtd {
    /// Root element type.
    pub root: String,
    /// `(element type, production)` pairs.
    pub productions: Vec<(String, ContentModel)>,
}

impl WireDtd {
    /// Encodes a [`Dtd`] for the wire (productions in sorted type order,
    /// so equal DTDs encode identically).
    pub fn from_dtd(dtd: &Dtd) -> Self {
        let mut types = dtd.element_types();
        types.sort_unstable();
        WireDtd {
            root: dtd.root().to_owned(),
            productions: types
                .into_iter()
                .map(|ty| {
                    (
                        ty.to_owned(),
                        dtd.production(ty)
                            .expect("listed type has a production")
                            .clone(),
                    )
                })
                .collect(),
        }
    }

    /// Rebuilds the [`Dtd`].
    pub fn to_dtd(&self) -> Dtd {
        let mut dtd = Dtd::new(&self.root);
        for (ty, model) in &self.productions {
            dtd.define(ty, model.clone());
        }
        dtd
    }
}

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Create (or replace) the tenant's security view σ. Until a tenant has
    /// a registered view it can do nothing else — every query is forced
    /// through some σ.
    RegisterView {
        /// Tenant name (the user class this σ serves).
        tenant: String,
        /// The document DTD `D`.
        document_dtd: WireDtd,
        /// The view DTD `D_V`.
        view_dtd: WireDtd,
        /// `(parent, child, query)` annotation triples covering every edge
        /// of the view DTD.
        annotations: Vec<(String, String, String)>,
    },
    /// Add a document (as `smoqe_xml::snapshot` bytes) to the tenant's
    /// store. The returned id is content-addressed and tenant-scoped.
    RegisterDocument {
        /// Tenant name.
        tenant: String,
        /// Snapshot bytes (validated server-side).
        snapshot: Vec<u8>,
    },
    /// Answer one query over one of the tenant's documents.
    Query {
        /// Tenant name.
        tenant: String,
        /// Document id (from [`Response::DocumentRegistered`]).
        doc: u64,
        /// HyPE variant to run.
        mode: EvaluationMode,
        /// The query, posed on the tenant's view.
        query: String,
    },
    /// Answer several queries over one document in a single shared pass.
    BatchQuery {
        /// Tenant name.
        tenant: String,
        /// Document id.
        doc: u64,
        /// HyPE variant to run.
        mode: EvaluationMode,
        /// The queries, posed on the tenant's view.
        queries: Vec<String>,
    },
    /// Apply edit ops to a document, producing a new version (new id).
    ApplyEdit {
        /// Tenant name.
        tenant: String,
        /// Document id to edit (retired on success).
        doc: u64,
        /// The ops, applied in order, atomically.
        ops: Vec<WireEditOp>,
    },
    /// Read the server counters, plus one tenant's cache statistics if a
    /// tenant is named.
    Stats {
        /// Tenant whose [`ServiceStats`] to include, if any.
        tenant: Option<String>,
    },
}

/// An edit operation as it travels on the wire: subtree payloads are
/// snapshot bytes, node ids are the `u32` inside [`NodeId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireEditOp {
    /// Insert a subtree (snapshot bytes) under `parent` at `position`.
    Insert {
        /// Receiving node id.
        parent: u32,
        /// 0-based child position; the child count appends.
        position: u32,
        /// The payload document as snapshot bytes.
        snapshot: Vec<u8>,
    },
    /// Detach the subtree rooted at `node`.
    Delete {
        /// The node to detach.
        node: u32,
    },
    /// Replace the subtree rooted at `node` with the payload.
    Replace {
        /// The node whose subtree is replaced.
        node: u32,
        /// The replacement document as snapshot bytes.
        snapshot: Vec<u8>,
    },
}

/// One query's answer as it travels on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireResult {
    /// Answer node ids, ascending.
    pub answers: Vec<u32>,
    /// The traversal statistics, field for field.
    pub stats: WireHypeStats,
}

impl WireResult {
    /// Encodes a [`HypeResult`].
    pub fn from_result(r: &HypeResult) -> Self {
        WireResult {
            answers: r.answers.iter().map(|n| n.0).collect(),
            stats: WireHypeStats::from_stats(&r.stats),
        }
    }

    /// Rebuilds the [`HypeResult`].
    pub fn to_result(&self) -> HypeResult {
        HypeResult {
            answers: self.answers.iter().map(|&n| NodeId(n)).collect(),
            stats: self.stats.to_stats(),
        }
    }
}

/// [`HypeStats`] with fixed-width fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireHypeStats {
    /// Element nodes in the evaluated subtree.
    pub nodes_total: u64,
    /// Element nodes visited.
    pub nodes_visited: u64,
    /// Vertices of the candidate-answer DAG.
    pub cans_vertices: u64,
    /// Edges of the candidate-answer DAG.
    pub cans_edges: u64,
    /// Boolean filter variables computed.
    pub afa_values_computed: u64,
    /// `HypeStats::max_shard_fraction` as IEEE-754 bits (`f64::to_bits`),
    /// keeping the wire struct `Eq` and the codec canonical — `to_bits` /
    /// `from_bits` round-trip every value exactly.
    pub max_shard_fraction_bits: u64,
}

impl WireHypeStats {
    /// Encodes a [`HypeStats`].
    pub fn from_stats(s: &HypeStats) -> Self {
        WireHypeStats {
            nodes_total: s.nodes_total as u64,
            nodes_visited: s.nodes_visited as u64,
            cans_vertices: s.cans_vertices as u64,
            cans_edges: s.cans_edges as u64,
            afa_values_computed: s.afa_values_computed as u64,
            max_shard_fraction_bits: s.max_shard_fraction.to_bits(),
        }
    }

    /// Rebuilds the [`HypeStats`].
    pub fn to_stats(&self) -> HypeStats {
        HypeStats {
            nodes_total: self.nodes_total as usize,
            nodes_visited: self.nodes_visited as usize,
            cans_vertices: self.cans_vertices as usize,
            cans_edges: self.cans_edges as usize,
            afa_values_computed: self.afa_values_computed as usize,
            max_shard_fraction: f64::from_bits(self.max_shard_fraction_bits),
        }
    }
}

/// [`BatchStats`] with fixed-width fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireBatchStats {
    /// Queries in the (deduplicated) batch.
    pub queries: u64,
    /// Element nodes in the evaluated subtree.
    pub nodes_total: u64,
    /// Element nodes physically visited by the shared traversal.
    pub nodes_visited: u64,
    /// Visits N sequential solo runs would have performed.
    pub sequential_node_visits: u64,
}

impl WireBatchStats {
    /// Encodes a [`BatchStats`].
    pub fn from_stats(s: &BatchStats) -> Self {
        WireBatchStats {
            queries: s.queries as u64,
            nodes_total: s.nodes_total as u64,
            nodes_visited: s.nodes_visited as u64,
            sequential_node_visits: s.sequential_node_visits as u64,
        }
    }

    /// Rebuilds the [`BatchStats`].
    pub fn to_stats(&self) -> BatchStats {
        BatchStats {
            queries: self.queries as usize,
            nodes_total: self.nodes_total as usize,
            nodes_visited: self.nodes_visited as usize,
            sequential_node_visits: self.sequential_node_visits as usize,
        }
    }
}

/// [`ServiceStats`] with fixed-width fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WireServiceStats {
    /// Compiled-query cache hits.
    pub compiled_hits: u64,
    /// Compiled-query cache misses.
    pub compiled_misses: u64,
    /// Compiled-query LRU evictions.
    pub compiled_evictions: u64,
    /// Compiled queries resident.
    pub compiled_cached: u64,
    /// Index cache hits.
    pub index_hits: u64,
    /// Index cache misses.
    pub index_misses: u64,
    /// Index LRU evictions.
    pub index_evictions: u64,
    /// Indexes dropped by precise invalidation.
    pub index_invalidations: u64,
    /// Indexes resident.
    pub index_cached: u64,
    /// `ServiceStats::last_max_shard_fraction` as IEEE-754 bits
    /// (`f64::to_bits`), keeping the wire struct `Eq` and the codec
    /// canonical.
    pub last_max_shard_fraction_bits: u64,
}

impl WireServiceStats {
    /// Encodes a [`ServiceStats`].
    pub fn from_stats(s: &ServiceStats) -> Self {
        WireServiceStats {
            compiled_hits: s.compiled_hits,
            compiled_misses: s.compiled_misses,
            compiled_evictions: s.compiled_evictions,
            compiled_cached: s.compiled_cached as u64,
            index_hits: s.index_hits,
            index_misses: s.index_misses,
            index_evictions: s.index_evictions,
            index_invalidations: s.index_invalidations,
            index_cached: s.index_cached as u64,
            last_max_shard_fraction_bits: s.last_max_shard_fraction.to_bits(),
        }
    }
}

/// The server-side counters a [`Response::Stats`] frame reports.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WireStats {
    /// Registered tenants.
    pub tenants: u32,
    /// Connections waiting in the admission queue right now.
    pub queue_depth: u32,
    /// The admission queue's bound.
    pub queue_capacity: u32,
    /// Connections shed with a [`Response::Busy`] frame since start.
    pub shed_total: u64,
    /// Connections accepted since start.
    pub connections_total: u64,
    /// Requests answered since start.
    pub requests_total: u64,
    /// Malformed frames / bodies seen since start.
    pub protocol_errors: u64,
    /// The named tenant's cache statistics, when a tenant was named.
    pub service: Option<WireServiceStats>,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The view was registered; carries `ViewDefinition::fingerprint()`.
    ViewRegistered {
        /// The view's stable fingerprint (cache-key half).
        fingerprint: u64,
    },
    /// The document was stored under this content-addressed id.
    DocumentRegistered {
        /// The tenant-scoped document id.
        doc: u64,
    },
    /// Answer to a [`Request::Query`].
    Answer(WireResult),
    /// Answer to a [`Request::BatchQuery`]: per-query results (aligned with
    /// the request's query order) plus the aggregate batch statistics.
    BatchAnswer {
        /// Per-query results, index-aligned with the request.
        results: Vec<WireResult>,
        /// Aggregate statistics of the shared pass.
        stats: WireBatchStats,
    },
    /// Answer to a [`Request::ApplyEdit`]: the edit receipt.
    EditApplied {
        /// The retired document id.
        old_doc: u64,
        /// The new version's id.
        new_doc: u64,
        /// Label fingerprint before the edit.
        old_fingerprint: u64,
        /// Label fingerprint after the edit.
        new_fingerprint: u64,
        /// Generation number of the new version.
        generation: u32,
    },
    /// Answer to a [`Request::Stats`].
    Stats(WireStats),
    /// The request failed; the connection stays usable unless the failure
    /// was a malformed *frame* (desynchronized stream).
    Error {
        /// What failed.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The admission queue is full: the server is shedding load. Sent once,
    /// then the connection is closed. Retry later.
    Busy {
        /// The queue bound that was hit.
        queue_capacity: u32,
    },
}

// ---------------------------------------------------------------------------
// Primitive encoder / decoder
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
    fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ProtocolError> {
        let available = self.buf.len() - self.pos;
        if n > available {
            return Err(ProtocolError::Truncated {
                needed: n,
                available,
            });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ProtocolError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, ProtocolError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }
    fn u32(&mut self) -> Result<u32, ProtocolError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }
    fn u64(&mut self) -> Result<u64, ProtocolError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
    fn bool(&mut self) -> Result<bool, ProtocolError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(ProtocolError::InvalidBool(other)),
        }
    }
    fn str(&mut self) -> Result<String, ProtocolError> {
        let bytes = self.bytes_ref()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| ProtocolError::InvalidUtf8)
    }
    fn bytes_ref(&mut self) -> Result<&'a [u8], ProtocolError> {
        let len = self.u32()? as usize;
        self.take(len)
    }
    fn bytes(&mut self) -> Result<Vec<u8>, ProtocolError> {
        Ok(self.bytes_ref()?.to_vec())
    }

    /// A sequence count. Deliberately NOT used for pre-allocation: a hostile
    /// count cannot allocate more than the bytes actually present.
    fn count(&mut self) -> Result<usize, ProtocolError> {
        Ok(self.u32()? as usize)
    }

    fn finish(self) -> Result<(), ProtocolError> {
        let extra = self.buf.len() - self.pos;
        if extra != 0 {
            return Err(ProtocolError::TrailingBytes { extra });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Message tags
// ---------------------------------------------------------------------------

const TAG_REGISTER_VIEW: u8 = 0x01;
const TAG_REGISTER_DOCUMENT: u8 = 0x02;
const TAG_QUERY: u8 = 0x03;
const TAG_BATCH_QUERY: u8 = 0x04;
const TAG_APPLY_EDIT: u8 = 0x05;
const TAG_STATS: u8 = 0x06;

const TAG_VIEW_REGISTERED: u8 = 0x81;
const TAG_DOCUMENT_REGISTERED: u8 = 0x82;
const TAG_ANSWER: u8 = 0x83;
const TAG_BATCH_ANSWER: u8 = 0x84;
const TAG_EDIT_APPLIED: u8 = 0x85;
const TAG_STATS_REPLY: u8 = 0x86;
const TAG_ERROR: u8 = 0x87;
const TAG_BUSY: u8 = 0x88;

fn mode_to_u8(mode: EvaluationMode) -> u8 {
    match mode {
        EvaluationMode::HyPE => 0,
        EvaluationMode::OptHyPE => 1,
        EvaluationMode::OptHyPEC => 2,
    }
}

fn mode_from_u8(byte: u8) -> Result<EvaluationMode, ProtocolError> {
    Ok(match byte {
        0 => EvaluationMode::HyPE,
        1 => EvaluationMode::OptHyPE,
        2 => EvaluationMode::OptHyPEC,
        other => return Err(ProtocolError::UnknownMode(other)),
    })
}

fn enc_content_model(e: &mut Enc, model: &ContentModel) {
    match model {
        ContentModel::Text => e.u8(0),
        ContentModel::Empty => e.u8(1),
        ContentModel::Sequence(children) => {
            e.u8(2);
            e.u32(children.len() as u32);
            for c in children {
                e.str(&c.ty);
                e.bool(c.starred);
            }
        }
        ContentModel::Choice(options) => {
            e.u8(3);
            e.u32(options.len() as u32);
            for o in options {
                e.str(o);
            }
        }
    }
}

fn dec_content_model(d: &mut Dec<'_>) -> Result<ContentModel, ProtocolError> {
    Ok(match d.u8()? {
        0 => ContentModel::Text,
        1 => ContentModel::Empty,
        2 => {
            let n = d.count()?;
            let mut children = Vec::new();
            for _ in 0..n {
                let ty = d.str()?;
                let starred = d.bool()?;
                children.push(Child { ty, starred });
            }
            ContentModel::Sequence(children)
        }
        3 => {
            let n = d.count()?;
            let mut options = Vec::new();
            for _ in 0..n {
                options.push(d.str()?);
            }
            ContentModel::Choice(options)
        }
        other => return Err(ProtocolError::UnknownContentModelTag(other)),
    })
}

fn enc_dtd(e: &mut Enc, dtd: &WireDtd) {
    e.str(&dtd.root);
    e.u32(dtd.productions.len() as u32);
    for (ty, model) in &dtd.productions {
        e.str(ty);
        enc_content_model(e, model);
    }
}

fn dec_dtd(d: &mut Dec<'_>) -> Result<WireDtd, ProtocolError> {
    let root = d.str()?;
    let n = d.count()?;
    let mut productions = Vec::new();
    for _ in 0..n {
        let ty = d.str()?;
        let model = dec_content_model(d)?;
        productions.push((ty, model));
    }
    Ok(WireDtd { root, productions })
}

fn enc_edit_op(e: &mut Enc, op: &WireEditOp) {
    match op {
        WireEditOp::Insert {
            parent,
            position,
            snapshot,
        } => {
            e.u8(0);
            e.u32(*parent);
            e.u32(*position);
            e.bytes(snapshot);
        }
        WireEditOp::Delete { node } => {
            e.u8(1);
            e.u32(*node);
        }
        WireEditOp::Replace { node, snapshot } => {
            e.u8(2);
            e.u32(*node);
            e.bytes(snapshot);
        }
    }
}

fn dec_edit_op(d: &mut Dec<'_>) -> Result<WireEditOp, ProtocolError> {
    Ok(match d.u8()? {
        0 => WireEditOp::Insert {
            parent: d.u32()?,
            position: d.u32()?,
            snapshot: d.bytes()?,
        },
        1 => WireEditOp::Delete { node: d.u32()? },
        2 => WireEditOp::Replace {
            node: d.u32()?,
            snapshot: d.bytes()?,
        },
        other => return Err(ProtocolError::UnknownEditTag(other)),
    })
}

fn enc_result(e: &mut Enc, r: &WireResult) {
    e.u32(r.answers.len() as u32);
    for &n in &r.answers {
        e.u32(n);
    }
    e.u64(r.stats.nodes_total);
    e.u64(r.stats.nodes_visited);
    e.u64(r.stats.cans_vertices);
    e.u64(r.stats.cans_edges);
    e.u64(r.stats.afa_values_computed);
    e.u64(r.stats.max_shard_fraction_bits);
}

fn dec_result(d: &mut Dec<'_>) -> Result<WireResult, ProtocolError> {
    let n = d.count()?;
    let mut answers = Vec::new();
    for _ in 0..n {
        answers.push(d.u32()?);
    }
    let stats = WireHypeStats {
        nodes_total: d.u64()?,
        nodes_visited: d.u64()?,
        cans_vertices: d.u64()?,
        cans_edges: d.u64()?,
        afa_values_computed: d.u64()?,
        max_shard_fraction_bits: d.u64()?,
    };
    Ok(WireResult { answers, stats })
}

// ---------------------------------------------------------------------------
// Public codec
// ---------------------------------------------------------------------------

/// Encodes a request as a frame **body** (tag + payload, no length prefix);
/// pair with [`write_frame`].
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut e = Enc::default();
    match req {
        Request::RegisterView {
            tenant,
            document_dtd,
            view_dtd,
            annotations,
        } => {
            e.u8(TAG_REGISTER_VIEW);
            e.str(tenant);
            enc_dtd(&mut e, document_dtd);
            enc_dtd(&mut e, view_dtd);
            e.u32(annotations.len() as u32);
            for (parent, child, query) in annotations {
                e.str(parent);
                e.str(child);
                e.str(query);
            }
        }
        Request::RegisterDocument { tenant, snapshot } => {
            e.u8(TAG_REGISTER_DOCUMENT);
            e.str(tenant);
            e.bytes(snapshot);
        }
        Request::Query {
            tenant,
            doc,
            mode,
            query,
        } => {
            e.u8(TAG_QUERY);
            e.str(tenant);
            e.u64(*doc);
            e.u8(mode_to_u8(*mode));
            e.str(query);
        }
        Request::BatchQuery {
            tenant,
            doc,
            mode,
            queries,
        } => {
            e.u8(TAG_BATCH_QUERY);
            e.str(tenant);
            e.u64(*doc);
            e.u8(mode_to_u8(*mode));
            e.u32(queries.len() as u32);
            for q in queries {
                e.str(q);
            }
        }
        Request::ApplyEdit { tenant, doc, ops } => {
            e.u8(TAG_APPLY_EDIT);
            e.str(tenant);
            e.u64(*doc);
            e.u32(ops.len() as u32);
            for op in ops {
                enc_edit_op(&mut e, op);
            }
        }
        Request::Stats { tenant } => {
            e.u8(TAG_STATS);
            match tenant {
                Some(t) => {
                    e.bool(true);
                    e.str(t);
                }
                None => e.bool(false),
            }
        }
    }
    e.buf
}

/// Decodes a frame body into a [`Request`]. Total: every input returns
/// either a message or a typed error.
pub fn decode_request(body: &[u8]) -> Result<Request, ProtocolError> {
    if body.is_empty() {
        return Err(ProtocolError::EmptyFrame);
    }
    let mut d = Dec::new(body);
    let tag = d.u8()?;
    let req = match tag {
        TAG_REGISTER_VIEW => {
            let tenant = d.str()?;
            let document_dtd = dec_dtd(&mut d)?;
            let view_dtd = dec_dtd(&mut d)?;
            let n = d.count()?;
            let mut annotations = Vec::new();
            for _ in 0..n {
                let parent = d.str()?;
                let child = d.str()?;
                let query = d.str()?;
                annotations.push((parent, child, query));
            }
            Request::RegisterView {
                tenant,
                document_dtd,
                view_dtd,
                annotations,
            }
        }
        TAG_REGISTER_DOCUMENT => Request::RegisterDocument {
            tenant: d.str()?,
            snapshot: d.bytes()?,
        },
        TAG_QUERY => Request::Query {
            tenant: d.str()?,
            doc: d.u64()?,
            mode: mode_from_u8(d.u8()?)?,
            query: d.str()?,
        },
        TAG_BATCH_QUERY => {
            let tenant = d.str()?;
            let doc = d.u64()?;
            let mode = mode_from_u8(d.u8()?)?;
            let n = d.count()?;
            let mut queries = Vec::new();
            for _ in 0..n {
                queries.push(d.str()?);
            }
            Request::BatchQuery {
                tenant,
                doc,
                mode,
                queries,
            }
        }
        TAG_APPLY_EDIT => {
            let tenant = d.str()?;
            let doc = d.u64()?;
            let n = d.count()?;
            let mut ops = Vec::new();
            for _ in 0..n {
                ops.push(dec_edit_op(&mut d)?);
            }
            Request::ApplyEdit { tenant, doc, ops }
        }
        TAG_STATS => {
            let tenant = if d.bool()? { Some(d.str()?) } else { None };
            Request::Stats { tenant }
        }
        other => return Err(ProtocolError::UnknownRequestTag(other)),
    };
    d.finish()?;
    Ok(req)
}

/// Encodes a response as a frame **body**; pair with [`write_frame`].
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut e = Enc::default();
    match resp {
        Response::ViewRegistered { fingerprint } => {
            e.u8(TAG_VIEW_REGISTERED);
            e.u64(*fingerprint);
        }
        Response::DocumentRegistered { doc } => {
            e.u8(TAG_DOCUMENT_REGISTERED);
            e.u64(*doc);
        }
        Response::Answer(result) => {
            e.u8(TAG_ANSWER);
            enc_result(&mut e, result);
        }
        Response::BatchAnswer { results, stats } => {
            e.u8(TAG_BATCH_ANSWER);
            e.u32(results.len() as u32);
            for r in results {
                enc_result(&mut e, r);
            }
            e.u64(stats.queries);
            e.u64(stats.nodes_total);
            e.u64(stats.nodes_visited);
            e.u64(stats.sequential_node_visits);
        }
        Response::EditApplied {
            old_doc,
            new_doc,
            old_fingerprint,
            new_fingerprint,
            generation,
        } => {
            e.u8(TAG_EDIT_APPLIED);
            e.u64(*old_doc);
            e.u64(*new_doc);
            e.u64(*old_fingerprint);
            e.u64(*new_fingerprint);
            e.u32(*generation);
        }
        Response::Stats(stats) => {
            e.u8(TAG_STATS_REPLY);
            e.u32(stats.tenants);
            e.u32(stats.queue_depth);
            e.u32(stats.queue_capacity);
            e.u64(stats.shed_total);
            e.u64(stats.connections_total);
            e.u64(stats.requests_total);
            e.u64(stats.protocol_errors);
            match &stats.service {
                Some(s) => {
                    e.bool(true);
                    e.u64(s.compiled_hits);
                    e.u64(s.compiled_misses);
                    e.u64(s.compiled_evictions);
                    e.u64(s.compiled_cached);
                    e.u64(s.index_hits);
                    e.u64(s.index_misses);
                    e.u64(s.index_evictions);
                    e.u64(s.index_invalidations);
                    e.u64(s.index_cached);
                    e.u64(s.last_max_shard_fraction_bits);
                }
                None => e.bool(false),
            }
        }
        Response::Error { code, message } => {
            e.u8(TAG_ERROR);
            e.u16(*code as u16);
            e.str(message);
        }
        Response::Busy { queue_capacity } => {
            e.u8(TAG_BUSY);
            e.u32(*queue_capacity);
        }
    }
    e.buf
}

/// Decodes a frame body into a [`Response`]. Total, like
/// [`decode_request`].
pub fn decode_response(body: &[u8]) -> Result<Response, ProtocolError> {
    if body.is_empty() {
        return Err(ProtocolError::EmptyFrame);
    }
    let mut d = Dec::new(body);
    let tag = d.u8()?;
    let resp = match tag {
        TAG_VIEW_REGISTERED => Response::ViewRegistered {
            fingerprint: d.u64()?,
        },
        TAG_DOCUMENT_REGISTERED => Response::DocumentRegistered { doc: d.u64()? },
        TAG_ANSWER => Response::Answer(dec_result(&mut d)?),
        TAG_BATCH_ANSWER => {
            let n = d.count()?;
            let mut results = Vec::new();
            for _ in 0..n {
                results.push(dec_result(&mut d)?);
            }
            let stats = WireBatchStats {
                queries: d.u64()?,
                nodes_total: d.u64()?,
                nodes_visited: d.u64()?,
                sequential_node_visits: d.u64()?,
            };
            Response::BatchAnswer { results, stats }
        }
        TAG_EDIT_APPLIED => Response::EditApplied {
            old_doc: d.u64()?,
            new_doc: d.u64()?,
            old_fingerprint: d.u64()?,
            new_fingerprint: d.u64()?,
            generation: d.u32()?,
        },
        TAG_STATS_REPLY => {
            let tenants = d.u32()?;
            let queue_depth = d.u32()?;
            let queue_capacity = d.u32()?;
            let shed_total = d.u64()?;
            let connections_total = d.u64()?;
            let requests_total = d.u64()?;
            let protocol_errors = d.u64()?;
            let service = if d.bool()? {
                Some(WireServiceStats {
                    compiled_hits: d.u64()?,
                    compiled_misses: d.u64()?,
                    compiled_evictions: d.u64()?,
                    compiled_cached: d.u64()?,
                    index_hits: d.u64()?,
                    index_misses: d.u64()?,
                    index_evictions: d.u64()?,
                    index_invalidations: d.u64()?,
                    index_cached: d.u64()?,
                    last_max_shard_fraction_bits: d.u64()?,
                })
            } else {
                None
            };
            Response::Stats(WireStats {
                tenants,
                queue_depth,
                queue_capacity,
                shed_total,
                connections_total,
                requests_total,
                protocol_errors,
                service,
            })
        }
        TAG_ERROR => Response::Error {
            code: ErrorCode::from_u16(d.u16()?)?,
            message: d.str()?,
        },
        TAG_BUSY => Response::Busy {
            queue_capacity: d.u32()?,
        },
        other => return Err(ProtocolError::UnknownResponseTag(other)),
    };
    d.finish()?;
    Ok(resp)
}

// ---------------------------------------------------------------------------
// Frame transport
// ---------------------------------------------------------------------------

/// Writes one frame: the `u32` little-endian length prefix, then `body`.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(!body.is_empty() && body.len() <= MAX_FRAME_LEN as usize);
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)?;
    w.flush()
}

/// Reads one frame body. `Ok(None)` is a clean end-of-stream (the peer
/// closed between frames); EOF *inside* a frame, a zero length, or an
/// oversized length are [`FrameError::Protocol`] — the stream can no
/// longer be trusted to be frame-aligned after any of them.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut first = [0u8; 1];
    loop {
        match r.read(&mut first) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = read_frame_len_after(first[0], r)?;
    read_frame_body(len, r).map(Some)
}

/// Reads the rest of a length prefix whose first byte has already been
/// consumed, and checks the announced body length. (The server polls a
/// connection for that first byte at a frame boundary, so that it need not
/// commit a worker to a blocking read.)
pub(crate) fn read_frame_len_after(first: u8, r: &mut impl Read) -> Result<u32, FrameError> {
    let mut prefix = [first, 0, 0, 0];
    let mut got = 1;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) => {
                return Err(FrameError::Protocol(ProtocolError::Truncated {
                    needed: prefix.len(),
                    available: got,
                }))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(prefix);
    if len == 0 {
        return Err(FrameError::Protocol(ProtocolError::EmptyFrame));
    }
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Protocol(ProtocolError::Oversized {
            declared: len,
            max: MAX_FRAME_LEN,
        }));
    }
    Ok(len)
}

/// Reads a frame body of the length its prefix announced.
pub(crate) fn read_frame_body(len: u32, r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut body = vec![0u8; len as usize];
    match r.read_exact(&mut body) {
        Ok(()) => Ok(body),
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
            Err(FrameError::Protocol(ProtocolError::Truncated {
                needed: len as usize,
                available: 0,
            }))
        }
        Err(e) => Err(FrameError::Io(e)),
    }
}

// ---------------------------------------------------------------------------
// View definitions on the wire
// ---------------------------------------------------------------------------

/// Encodes a [`ViewDefinition`] as the payload of a
/// [`Request::RegisterView`]: both DTDs in the canonical structural
/// encoding plus every annotation as text. The round trip preserves the
/// view's fingerprint, so client and server agree on cache keys.
pub fn view_to_wire(view: &ViewDefinition) -> (WireDtd, WireDtd, Vec<(String, String, String)>) {
    let annotations = view
        .annotations()
        .map(|((parent, child), query)| (parent.clone(), child.clone(), query.to_string()))
        .collect();
    (
        WireDtd::from_dtd(view.document_dtd()),
        WireDtd::from_dtd(view.view_dtd()),
        annotations,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_views::hospital_view;

    #[test]
    fn view_survives_the_wire_with_its_fingerprint() {
        let view = hospital_view();
        let (doc_dtd, view_dtd, annotations) = view_to_wire(&view);
        let mut rebuilt = ViewDefinition::new(doc_dtd.to_dtd(), view_dtd.to_dtd());
        for (parent, child, query) in &annotations {
            rebuilt.annotate_str(parent, child, query).unwrap();
        }
        rebuilt.check().unwrap();
        assert_eq!(rebuilt.fingerprint(), view.fingerprint());
    }

    #[test]
    fn frame_transport_round_trips() {
        let body = encode_request(&Request::Stats { tenant: None });
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        let mut cursor = &wire[..];
        let read = read_frame(&mut cursor).unwrap().expect("one frame");
        assert_eq!(read, body);
        assert!(
            read_frame(&mut cursor).unwrap().is_none(),
            "clean EOF after"
        );
    }

    #[test]
    fn zero_and_oversized_prefixes_are_rejected() {
        let mut zero = &[0u8, 0, 0, 0][..];
        assert!(matches!(
            read_frame(&mut zero),
            Err(FrameError::Protocol(ProtocolError::EmptyFrame))
        ));
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut huge = &huge[..];
        assert!(matches!(
            read_frame(&mut huge),
            Err(FrameError::Protocol(ProtocolError::Oversized { .. }))
        ));
    }
}
