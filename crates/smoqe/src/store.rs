//! A many-document corpus store built on `smoqe_xml::snapshot`.
//!
//! The paper's serving setting is a *corpus* of security-view documents
//! queried repeatedly. [`DocumentStore`] owns that corpus: each document is
//! held as its parsed arena **plus** its binary snapshot, keyed by a
//! content-addressed [`DocId`] (the snapshot body checksum), with the
//! label-interner fingerprint precomputed so the query service's
//! reachability-index cache is keyed without rehashing label tables on
//! every request.
//!
//! Three ways in, one representation inside:
//!
//! * [`DocumentStore::insert_tree`] — an already-parsed [`XmlTree`]
//!   (snapshotted on insert),
//! * [`DocumentStore::insert_snapshot`] — validated snapshot bytes (the
//!   fast path: no XML tokenization at all),
//! * [`DocumentStore::insert_xml`] — raw XML text (parse, then snapshot).
//!
//! Because [`DocId`] is a content hash, re-inserting the same document —
//! by any route — deduplicates to the existing entry. All methods take
//! `&self` behind an [`RwLock`]: lookups (the hot path during corpus
//! evaluation) take the read lock only.
//!
//! ## Versioned mutation
//!
//! Documents are *versioned-mutable*: [`DocumentStore::apply_edit`] takes
//! the id of a resident document plus a slice of [`EditOp`]s and produces a
//! **new version** under a new content-addressed id, retiring the old one.
//! The new version does not copy the old snapshot: it keeps an
//! `Arc<Vec<u8>>` to the *base* bytes it was originally ingested with and a
//! [`DeltaTail`] (rewritten header + appended delta-log records), so a
//! chain of edited generations shares one copy of the base sections. The
//! arena is re-edited in memory (cheap relative to the snapshot) and the
//! label fingerprint is recomputed **incrementally** from the interner tail
//! — the full rescan stays on as a debug oracle.

use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, RwLock};

use smoqe_xml::snapshot::{self, DeltaTail, SnapshotError};
use smoqe_xml::{
    labels_fingerprint, labels_fingerprint_from, parse_document, EditOp, ParseError, XmlError,
    XmlTree,
};

/// Content-addressed identifier of a stored document: the FNV-1a checksum
/// of its snapshot body. Two structurally identical documents (same labels,
/// same arena layout, same text) get the same id, whatever route they
/// entered the store by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

impl fmt::Display for DocId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "doc:{:016x}", self.0)
    }
}

/// One resident document version: the parsed arena ready for evaluation,
/// the snapshot bytes it round-trips through, and the precomputed
/// cache-key fingerprint of its label interner.
///
/// A generation-0 document (fresh ingest) owns its snapshot outright. An
/// edited generation holds the *base* bytes by `Arc` — shared with every
/// other generation derived from the same ingest — plus a [`DeltaTail`]
/// recording its own header and delta log; [`Self::snapshot_bytes`]
/// assembles the two on demand.
#[derive(Debug)]
pub struct StoredDocument {
    tree: XmlTree,
    labels_fingerprint: u64,
    generation: u32,
    base: Arc<Vec<u8>>,
    tail: Option<DeltaTail>,
}

impl StoredDocument {
    /// The parsed arena, evaluation-ready. For edited generations this is
    /// the post-edit tree (tombstones and all), identical to what replaying
    /// the delta log over the base yields.
    pub fn tree(&self) -> &XmlTree {
        &self.tree
    }

    /// The stable fingerprint of the document's label-interner layout —
    /// the reachability-index cache key half, precomputed at insert time
    /// and maintained incrementally across edits.
    pub fn labels_fingerprint(&self) -> u64 {
        self.labels_fingerprint
    }

    /// How many [`DocumentStore::apply_edit`] calls separate this version
    /// from its ingested base (0 for a fresh ingest).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// The document's binary snapshot (format of `smoqe_xml::snapshot`);
    /// suitable for writing to disk and re-inserting later via
    /// [`DocumentStore::insert_snapshot`]. Borrowed for generation-0
    /// documents; edited generations assemble header + shared base
    /// sections + delta log into a fresh buffer.
    pub fn snapshot_bytes(&self) -> Cow<'_, [u8]> {
        match &self.tail {
            None => Cow::Borrowed(&self.base),
            Some(tail) => Cow::Owned(tail.assemble(&self.base)),
        }
    }

    /// `true` if the two versions share one physical copy of their base
    /// snapshot bytes (i.e. they descend from the same ingest).
    pub fn shares_base_with(&self, other: &StoredDocument) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }
}

/// What can go wrong when editing a stored document.
#[derive(Debug)]
pub enum StoreError {
    /// The id names no resident document (it may have been retired by an
    /// earlier edit — each edit produces a *new* id).
    UnknownDocument(DocId),
    /// An [`EditOp`] could not be applied to the document's arena (dead
    /// target node, position out of bounds, tombstoned payload, …).
    Edit(XmlError),
    /// The delta record could not be encoded onto the snapshot (payload
    /// too large for the format's `u32` fields, corrupt base, …).
    Snapshot(SnapshotError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownDocument(id) => write!(f, "no document {id} in the store"),
            StoreError::Edit(e) => write!(f, "edit failed: {e}"),
            StoreError::Snapshot(e) => write!(f, "snapshot delta failed: {e}"),
        }
    }
}

impl Error for StoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StoreError::UnknownDocument(_) => None,
            StoreError::Edit(e) => Some(e),
            StoreError::Snapshot(e) => Some(e),
        }
    }
}

impl From<XmlError> for StoreError {
    fn from(e: XmlError) -> Self {
        StoreError::Edit(e)
    }
}

impl From<SnapshotError> for StoreError {
    fn from(e: SnapshotError) -> Self {
        StoreError::Snapshot(e)
    }
}

/// What [`DocumentStore::apply_edit`] did: which version was retired, which
/// replaced it, and the before/after label fingerprints the query service
/// needs to invalidate exactly the caches the edit staled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EditReceipt {
    /// The id the edit was applied to, no longer resident.
    pub old_id: DocId,
    /// The id of the new version (content hash of the extended snapshot).
    pub new_id: DocId,
    /// Label fingerprint of the retired version.
    pub old_fingerprint: u64,
    /// Label fingerprint of the new version. Equal to `old_fingerprint`
    /// unless the edit introduced labels the document had never seen.
    pub new_fingerprint: u64,
    /// Generation number of the new version.
    pub generation: u32,
}

/// A thread-safe corpus of snapshot-backed documents, keyed by content.
///
/// ```
/// use smoqe::DocumentStore;
///
/// let store = DocumentStore::new();
/// let id = store.insert_xml("<r><a>x</a></r>").unwrap();
///
/// // Content addressing: the same document deduplicates ...
/// assert_eq!(store.insert_xml("<r><a>x</a></r>").unwrap(), id);
/// assert_eq!(store.len(), 1);
///
/// // ... and the snapshot round-trips to the same id.
/// let bytes = store.get(id).unwrap().snapshot_bytes().to_vec();
/// assert_eq!(store.insert_snapshot(&bytes).unwrap(), id);
/// ```
#[derive(Debug, Default)]
pub struct DocumentStore {
    docs: RwLock<HashMap<DocId, Arc<StoredDocument>>>,
}

impl DocumentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts an already-parsed document, snapshotting it internally.
    /// Returns the content-addressed id; re-inserting an identical document
    /// returns the existing id without storing a second copy.
    pub fn insert_tree(&self, tree: XmlTree) -> DocId {
        let bytes = snapshot::save(&tree);
        self.insert_parts(tree, bytes)
    }

    /// Validates `bytes` as a snapshot and inserts the document it encodes.
    /// This is the no-tokenizer ingest path: corrupted, truncated or
    /// wrong-version input is rejected with a typed [`SnapshotError`].
    pub fn insert_snapshot(&self, bytes: &[u8]) -> Result<DocId, SnapshotError> {
        let tree = snapshot::load(bytes)?;
        Ok(self.insert_parts(tree, bytes.to_vec()))
    }

    /// Parses `xml` and inserts the resulting document.
    pub fn insert_xml(&self, xml: &str) -> Result<DocId, ParseError> {
        Ok(self.insert_tree(parse_document(xml)?))
    }

    fn insert_parts(&self, tree: XmlTree, bytes: Vec<u8>) -> DocId {
        let header = snapshot::peek_header(&bytes).expect("save/load produce valid snapshots");
        let id = DocId(header.body_checksum);
        debug_assert_eq!(header.labels_fingerprint, labels_fingerprint(tree.labels()));
        let mut docs = self.docs.write().unwrap_or_else(|p| p.into_inner());
        docs.entry(id).or_insert_with(|| {
            Arc::new(StoredDocument {
                labels_fingerprint: header.labels_fingerprint,
                tree,
                generation: 0,
                base: Arc::new(bytes),
                tail: None,
            })
        });
        id
    }

    /// Applies `ops` (in order) to the document `id`, storing the result as
    /// a **new version** under a new content-addressed id and retiring the
    /// old one. The whole call is atomic: if any op fails, nothing changes.
    ///
    /// The new version shares the old one's base snapshot bytes by `Arc`
    /// and records the ops in its [`DeltaTail`] delta log, so the snapshot
    /// cost of an edit is proportional to the edit, not the document. The
    /// label fingerprint is advanced incrementally from the interner tail
    /// (the interner is append-only under edits); a full rescan backs it as
    /// a `debug_assert` oracle.
    ///
    /// Content addressing still holds: if the edited snapshot already
    /// exists in the store (e.g. two bases edited into the same state), the
    /// edit deduplicates onto the resident entry.
    pub fn apply_edit(&self, id: DocId, ops: &[EditOp]) -> Result<EditReceipt, StoreError> {
        let old = self.get(id).ok_or(StoreError::UnknownDocument(id))?;
        let mut tree = old.tree.clone();
        let first_new = tree.labels().len();
        for op in ops {
            tree.apply(op)?;
        }
        let new_fingerprint =
            labels_fingerprint_from(old.labels_fingerprint, tree.labels(), first_new);
        debug_assert_eq!(
            new_fingerprint,
            labels_fingerprint(tree.labels()),
            "incremental fingerprint must match the full-rescan oracle"
        );
        let tail = snapshot::extend_snapshot(&old.snapshot_bytes(), ops, new_fingerprint)?;
        let new_id = DocId(
            snapshot::peek_header(tail.header_bytes())
                .expect("extend_snapshot writes a valid header")
                .body_checksum,
        );
        let generation = old.generation + 1;
        let receipt = EditReceipt {
            old_id: id,
            new_id,
            old_fingerprint: old.labels_fingerprint,
            new_fingerprint,
            generation,
        };
        let mut docs = self.docs.write().unwrap_or_else(|p| p.into_inner());
        // Retire the old version only if it is still the resident entry —
        // a concurrent edit of the same id may have retired it already.
        if docs.get(&id).is_some_and(|d| Arc::ptr_eq(d, &old)) {
            docs.remove(&id);
        }
        docs.entry(new_id).or_insert_with(|| {
            Arc::new(StoredDocument {
                tree,
                labels_fingerprint: new_fingerprint,
                generation,
                base: Arc::clone(&old.base),
                tail: Some(tail),
            })
        });
        Ok(receipt)
    }

    /// `true` if any resident document has this label fingerprint. The
    /// query service uses this to keep reachability-index cache entries
    /// alive when *another* document still shares the fingerprint of a
    /// retired version.
    pub fn fingerprint_in_use(&self, fingerprint: u64) -> bool {
        self.docs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .values()
            .any(|d| d.labels_fingerprint == fingerprint)
    }

    /// Looks up a document by id. The returned `Arc` stays valid however
    /// the store changes afterwards.
    pub fn get(&self, id: DocId) -> Option<Arc<StoredDocument>> {
        self.docs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .get(&id)
            .cloned()
    }

    /// `true` if `id` is present.
    pub fn contains(&self, id: DocId) -> bool {
        self.docs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .contains_key(&id)
    }

    /// Number of distinct documents stored.
    pub fn len(&self) -> usize {
        self.docs.read().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// `true` if the store holds no documents.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All stored ids, sorted (deterministic iteration for tests and
    /// benchmarks).
    pub fn ids(&self) -> Vec<DocId> {
        let mut ids: Vec<DocId> = self
            .docs
            .read()
            .unwrap_or_else(|p| p.into_inner())
            .keys()
            .copied()
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Removes a document, returning whether it was present.
    pub fn remove(&self, id: DocId) -> bool {
        self.docs
            .write()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&id)
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_xml::snapshot::SnapshotError;

    #[test]
    fn insert_routes_agree_on_ids_and_content() {
        let store = DocumentStore::new();
        let xml =
            "<hospital><department><patient><pname>Ann</pname></patient></department></hospital>";
        let by_xml = store.insert_xml(xml).unwrap();
        let by_tree = store.insert_tree(parse_document(xml).unwrap());
        assert_eq!(by_xml, by_tree);
        let bytes = store.get(by_xml).unwrap().snapshot_bytes().to_vec();
        let by_snapshot = store.insert_snapshot(&bytes).unwrap();
        assert_eq!(by_xml, by_snapshot);
        assert_eq!(store.len(), 1);

        let doc = store.get(by_xml).unwrap();
        assert_eq!(doc.tree().len(), 4);
        assert_eq!(
            doc.labels_fingerprint(),
            labels_fingerprint(doc.tree().labels())
        );
    }

    #[test]
    fn different_documents_get_different_ids() {
        let store = DocumentStore::new();
        let a = store.insert_xml("<r><a/></r>").unwrap();
        let b = store.insert_xml("<r><b/></r>").unwrap();
        assert_ne!(a, b);
        assert_eq!(store.len(), 2);
        assert_eq!(store.ids(), {
            let mut v = vec![a, b];
            v.sort_unstable();
            v
        });
    }

    #[test]
    fn missing_ids_and_removal() {
        let store = DocumentStore::new();
        let id = store.insert_xml("<r/>").unwrap();
        assert!(store.contains(id));
        assert!(!store.contains(DocId(id.0 ^ 1)));
        assert!(store.get(DocId(id.0 ^ 1)).is_none());
        assert!(store.remove(id));
        assert!(!store.remove(id));
        assert!(store.is_empty());
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let store = DocumentStore::new();
        assert!(matches!(
            store.insert_snapshot(b"not a snapshot"),
            Err(SnapshotError::Truncated { .. })
        ));
        let id = store.insert_xml("<r><a>x</a></r>").unwrap();
        let mut bytes = store.get(id).unwrap().snapshot_bytes().to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        assert!(store.insert_snapshot(&bytes).is_err());
        assert_eq!(store.len(), 1, "rejected snapshots are not stored");
    }

    fn payload(xml: &str) -> XmlTree {
        parse_document(xml).unwrap()
    }

    #[test]
    fn apply_edit_creates_a_new_version_and_retires_the_old() {
        let store = DocumentStore::new();
        let id = store.insert_xml("<r><a>x</a><b>y</b></r>").unwrap();
        let a = store
            .get(id)
            .unwrap()
            .tree()
            .children(store.get(id).unwrap().tree().root())[0];
        let receipt = store.apply_edit(id, &[EditOp::Delete { node: a }]).unwrap();
        assert_eq!(receipt.old_id, id);
        assert_ne!(receipt.new_id, id);
        assert_eq!(receipt.generation, 1);
        assert_eq!(receipt.old_fingerprint, receipt.new_fingerprint);
        assert!(!store.contains(id), "old version is retired");
        let doc = store.get(receipt.new_id).unwrap();
        assert_eq!(doc.generation(), 1);
        assert_eq!(doc.tree().live_len(), 2, "r and b survive");
        // The snapshot round-trips through the ordinary ingest path.
        let reloaded = snapshot::load(&doc.snapshot_bytes()).unwrap();
        assert_eq!(
            smoqe_xml::to_xml_string(&reloaded.compacted()),
            "<r><b>y</b></r>"
        );
    }

    #[test]
    fn edited_generations_share_base_bytes() {
        let store = DocumentStore::new();
        let id = store.insert_xml("<r><a/><b/><c/></r>").unwrap();
        let gen0 = store.get(id).unwrap();
        let root = gen0.tree().root();
        let b = gen0.tree().children(root)[1];
        let r1 = store.apply_edit(id, &[EditOp::Delete { node: b }]).unwrap();
        let gen1 = store.get(r1.new_id).unwrap();
        assert!(gen1.shares_base_with(&gen0));
        let r2 = store
            .apply_edit(
                r1.new_id,
                &[EditOp::Insert {
                    parent: root,
                    position: 0,
                    subtree: payload("<d>new</d>"),
                }],
            )
            .unwrap();
        let gen2 = store.get(r2.new_id).unwrap();
        assert_eq!(gen2.generation(), 2);
        assert!(gen2.shares_base_with(&gen1), "whole chain shares one base");
        assert_eq!(
            smoqe_xml::to_xml_string(&gen2.tree().compacted()),
            "<r><d>new</d><a/><c/></r>"
        );
    }

    #[test]
    fn apply_edit_advances_the_fingerprint_only_when_labels_are_new() {
        let store = DocumentStore::new();
        let id = store.insert_xml("<r><a/></r>").unwrap();
        let root = store.get(id).unwrap().tree().root();
        // A payload of already-known labels: fingerprint is unchanged.
        let same = store
            .apply_edit(
                id,
                &[EditOp::Insert {
                    parent: root,
                    position: 1,
                    subtree: payload("<a/>"),
                }],
            )
            .unwrap();
        assert_eq!(same.old_fingerprint, same.new_fingerprint);
        // A payload introducing a new label: fingerprint advances, and it
        // matches what a fresh ingest of the same content computes.
        let root = store.get(same.new_id).unwrap().tree().root();
        let grew = store
            .apply_edit(
                same.new_id,
                &[EditOp::Insert {
                    parent: root,
                    position: 0,
                    subtree: payload("<z/>"),
                }],
            )
            .unwrap();
        assert_ne!(grew.old_fingerprint, grew.new_fingerprint);
        let doc = store.get(grew.new_id).unwrap();
        assert_eq!(
            doc.labels_fingerprint(),
            labels_fingerprint(doc.tree().labels())
        );
    }

    #[test]
    fn apply_edit_is_atomic_on_failure() {
        let store = DocumentStore::new();
        let id = store.insert_xml("<r><a/><b/></r>").unwrap();
        let gen0 = store.get(id).unwrap();
        let a = gen0.tree().children(gen0.tree().root())[0];
        // Second op targets the node the first op deleted: the whole call
        // fails and the store is untouched.
        let err = store
            .apply_edit(
                id,
                &[EditOp::Delete { node: a }, EditOp::Delete { node: a }],
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Edit(_)), "got {err}");
        assert!(store.contains(id));
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(id).unwrap().generation(), 0);
    }

    #[test]
    fn editing_a_missing_document_is_an_error() {
        let store = DocumentStore::new();
        let err = store.apply_edit(DocId(42), &[]).unwrap_err();
        assert!(matches!(err, StoreError::UnknownDocument(DocId(42))));
        assert_eq!(
            err.to_string(),
            "no document doc:000000000000002a in the store"
        );
    }

    #[test]
    fn fingerprint_in_use_tracks_residents() {
        let store = DocumentStore::new();
        let a = store.insert_xml("<r><a/></r>").unwrap();
        let b = store.insert_xml("<r><a/><a/></r>").unwrap();
        assert_ne!(a, b);
        let fp = store.get(a).unwrap().labels_fingerprint();
        assert_eq!(store.get(b).unwrap().labels_fingerprint(), fp);
        assert!(store.fingerprint_in_use(fp));
        store.remove(a);
        assert!(store.fingerprint_in_use(fp), "b still shares it");
        store.remove(b);
        assert!(!store.fingerprint_in_use(fp));
    }

    #[test]
    fn store_is_usable_from_many_threads() {
        let store = std::sync::Arc::new(DocumentStore::new());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let store = std::sync::Arc::clone(&store);
                scope.spawn(move || {
                    for i in 0..10 {
                        let xml = format!("<r><a>{}</a></r>", (t + i) % 6);
                        let id = store.insert_xml(&xml).unwrap();
                        assert!(store.get(id).is_some());
                    }
                });
            }
        });
        assert_eq!(
            store.len(),
            6,
            "content addressing deduplicates across threads"
        );
    }
}
