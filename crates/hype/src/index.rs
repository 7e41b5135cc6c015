//! The OptHyPE / OptHyPE-C reachability index.
//!
//! For every document element type `A`, the document DTD determines the set
//! of element types that can occur strictly below an `A` element. Projected
//! onto the labels an MFA actually mentions, this yields — per document
//! label — a bitset of MFA labels that may still be matched inside that
//! subtree. During evaluation, HyPE consults the index to skip a subtree as
//! soon as no remaining NFA transition and no pending filter transition can
//! possibly fire inside it.
//!
//! `OptHyPE-C` uses the same information stored *compressed*: identical
//! rows (many leaf-like element types have the same — often empty — set)
//! are deduplicated and shared, which shrinks the index roughly by the
//! number of distinct content models while leaving lookups O(1).

use smoqe_automata::{CompiledMfa, Mfa};
use smoqe_xml::{Dtd, LabelId, LabelInterner};

/// A per-document-label index of the MFA labels reachable strictly below an
/// element carrying that label.
#[derive(Debug, Clone)]
pub struct ReachabilityIndex {
    /// Number of 64-bit words per row (⌈ mfa label count / 64 ⌉).
    words_per_row: usize,
    /// For each document label id, the index of its row in `rows`.
    /// Labels unknown to the DTD map to `None` (no pruning possible).
    row_of_label: Vec<Option<u32>>,
    /// Row storage. Uncompressed: one row per document label. Compressed:
    /// one row per *distinct* bitset.
    rows: Vec<u64>,
    /// Whether rows were deduplicated (the OptHyPE-C flavour).
    compressed: bool,
}

impl ReachabilityIndex {
    /// Builds the plain (OptHyPE) index.
    pub fn new(mfa: &Mfa, dtd: &Dtd, doc_labels: &LabelInterner) -> Self {
        Self::from_labels(mfa.labels(), dtd, doc_labels, false)
    }

    /// Builds the compressed (OptHyPE-C) index.
    pub fn new_compressed(mfa: &Mfa, dtd: &Dtd, doc_labels: &LabelInterner) -> Self {
        Self::from_labels(mfa.labels(), dtd, doc_labels, true)
    }

    /// Builds the index from a compiled execution IR (which carries the
    /// automaton's label interner), without the builder [`Mfa`].
    pub fn for_compiled(
        compiled: &CompiledMfa,
        dtd: &Dtd,
        doc_labels: &LabelInterner,
        compressed: bool,
    ) -> Self {
        Self::from_labels(compiled.labels(), dtd, doc_labels, compressed)
    }

    /// Builds the index over an automaton's label interner directly: rows
    /// are bitsets over that interner's ids, so any automaton sharing the
    /// interner (a builder [`Mfa`] and its [`CompiledMfa`]) can consult it.
    pub fn from_labels(
        mfa_labels: &LabelInterner,
        dtd: &Dtd,
        doc_labels: &LabelInterner,
        compressed: bool,
    ) -> Self {
        let mfa_label_count = mfa_labels.len();
        let words_per_row = mfa_label_count.div_ceil(64).max(1);
        let descendants = dtd.graph().descendant_types();

        // Soundness guard: if the document uses a label the DTD does not
        // define (an edit script can splice in arbitrary subtrees), the
        // document provably does not conform to the DTD, so *every*
        // DTD-derived reachability claim is suspect — an `annex` element
        // can sit below `hospital` even though no production puts it there,
        // and pruning at the root on the DTD's say-so would wrongly answer
        // `//annex` with ∅. Disable pruning wholesale.
        if doc_labels
            .iter()
            .any(|(_, name)| !descendants.contains_key(name))
        {
            return Self::no_prune(mfa_labels, doc_labels, compressed);
        }

        let mut row_of_label: Vec<Option<u32>> = vec![None; doc_labels.len()];
        let mut rows: Vec<u64> = Vec::new();
        // For compression: map from row content to its index.
        let mut seen: std::collections::HashMap<Vec<u64>, u32> = std::collections::HashMap::new();

        for (doc_id, name) in doc_labels.iter() {
            let Some(below) = descendants.get(name) else {
                continue; // label unknown to the DTD: no pruning information
            };
            let mut row = vec![0u64; words_per_row];
            for ty in below {
                if let Some(mfa_id) = mfa_labels.get(ty) {
                    let bit = mfa_id.0 as usize;
                    row[bit / 64] |= 1u64 << (bit % 64);
                }
            }
            let row_idx = if compressed {
                match seen.get(&row) {
                    Some(&idx) => idx,
                    None => {
                        let idx = (rows.len() / words_per_row) as u32;
                        rows.extend_from_slice(&row);
                        seen.insert(row, idx);
                        idx
                    }
                }
            } else {
                let idx = (rows.len() / words_per_row) as u32;
                rows.extend_from_slice(&row);
                idx
            };
            row_of_label[doc_id.index()] = Some(row_idx);
        }

        ReachabilityIndex {
            words_per_row,
            row_of_label,
            rows,
            compressed,
        }
    }

    /// An index that never prunes: every label maps to "no information".
    ///
    /// This is the sound fallback for documents that may not conform to the
    /// DTD the index would be derived from — either because they use labels
    /// the DTD does not define (detected by [`Self::from_labels`] itself),
    /// or because an edit spliced a *known* label somewhere the DTD does not
    /// produce it (detected by the service layer via
    /// [`Dtd::edge_conformant`]). Evaluation through such an index is
    /// bit-identical to plain HyPE.
    pub fn no_prune(
        mfa_labels: &LabelInterner,
        doc_labels: &LabelInterner,
        compressed: bool,
    ) -> Self {
        ReachabilityIndex {
            words_per_row: mfa_labels.len().div_ceil(64).max(1),
            row_of_label: vec![None; doc_labels.len()],
            rows: Vec::new(),
            compressed,
        }
    }

    /// `true` if the index carries no pruning information for any label
    /// (the [`Self::no_prune`] fallback, or an empty document).
    pub fn prunes_nothing(&self) -> bool {
        self.row_of_label.iter().all(Option::is_none)
    }

    /// The bitset (over MFA label ids) of labels that may occur strictly
    /// below a document element labelled `doc_label`, or `None` when the
    /// label is unknown to the DTD (in which case no pruning is allowed).
    pub fn allowed_below(&self, doc_label: LabelId) -> Option<&[u64]> {
        let row = (*self.row_of_label.get(doc_label.index())?)?;
        let start = row as usize * self.words_per_row;
        Some(&self.rows[start..start + self.words_per_row])
    }

    /// The row `allowed_below(doc_label)` reads, as an index below
    /// [`Self::stored_rows`], or `None` when the label is unknown to the
    /// DTD. Labels with equal row ids have equal rows.
    pub fn row_of(&self, doc_label: LabelId) -> Option<u32> {
        *self.row_of_label.get(doc_label.index())?
    }

    /// `true` if this is the compressed (OptHyPE-C) flavour.
    pub fn is_compressed(&self) -> bool {
        self.compressed
    }

    /// Number of 64-bit words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Approximate memory footprint of the index in bytes, reported by the
    /// benchmark harness to contrast OptHyPE and OptHyPE-C.
    pub fn memory_bytes(&self) -> usize {
        self.rows.len() * 8 + self.row_of_label.len() * std::mem::size_of::<Option<u32>>()
    }

    /// Number of stored rows (after deduplication, if compressed).
    pub fn stored_rows(&self) -> usize {
        self.rows.len().checked_div(self.words_per_row).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smoqe_automata::compile_query;
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xpath::parse_path;

    fn doc_interner() -> LabelInterner {
        let mut li = LabelInterner::new();
        for ty in hospital_document_dtd().element_types() {
            li.intern(ty);
        }
        li
    }

    #[test]
    fn diagnosis_is_reachable_below_patient_but_not_below_address() {
        let dtd = hospital_document_dtd();
        let labels = doc_interner();
        let q = parse_path("department/patient//diagnosis").unwrap();
        let mfa = compile_query(&q);
        let index = ReachabilityIndex::new(&mfa, &dtd, &labels);

        let diagnosis_bit = mfa.labels().get("diagnosis").unwrap().0 as usize;
        let below_patient = index.allowed_below(labels.get("patient").unwrap()).unwrap();
        assert!(below_patient[diagnosis_bit / 64] & (1 << (diagnosis_bit % 64)) != 0);

        let below_address = index.allowed_below(labels.get("address").unwrap()).unwrap();
        assert!(below_address[diagnosis_bit / 64] & (1 << (diagnosis_bit % 64)) == 0);
    }

    #[test]
    fn any_unknown_label_disables_pruning_wholesale() {
        // Regression (ROADMAP item 2): a document carrying a label the DTD
        // does not define provably does not conform, so *no* DTD-derived
        // row may be trusted — the alien element can sit below any node
        // even though no production reaches it, and pruning at `hospital`
        // would wrongly answer `//alien-element` with ∅.
        let dtd = hospital_document_dtd();
        let mut labels = doc_interner();
        let alien = labels.intern("alien-element");
        let q = parse_path("patient").unwrap();
        let mfa = compile_query(&q);
        for compressed in [false, true] {
            let index = ReachabilityIndex::from_labels(mfa.labels(), &dtd, &labels, compressed);
            assert!(index.allowed_below(alien).is_none());
            assert!(
                index.prunes_nothing(),
                "known labels must also lose their rows (compressed={compressed})"
            );
            assert!(index
                .allowed_below(labels.get("hospital").unwrap())
                .is_none());
            assert_eq!(index.stored_rows(), 0);
        }
        // A clean interner keeps full pruning.
        let clean = ReachabilityIndex::new(&mfa, &dtd, &doc_interner());
        assert!(!clean.prunes_nothing());
    }

    #[test]
    fn compressed_index_is_smaller_but_answers_identically() {
        let dtd = hospital_document_dtd();
        let labels = doc_interner();
        let q = parse_path("department/patient[visit/treatment/medication/diagnosis]").unwrap();
        let mfa = compile_query(&q);
        let plain = ReachabilityIndex::new(&mfa, &dtd, &labels);
        let compressed = ReachabilityIndex::new_compressed(&mfa, &dtd, &labels);
        assert!(compressed.is_compressed());
        assert!(compressed.stored_rows() <= plain.stored_rows());
        assert!(compressed.memory_bytes() <= plain.memory_bytes());
        for (id, _) in labels.iter() {
            assert_eq!(plain.allowed_below(id), compressed.allowed_below(id));
        }
    }

    #[test]
    fn leaf_types_have_empty_rows() {
        let dtd = hospital_document_dtd();
        let labels = doc_interner();
        let q = parse_path("department/patient//diagnosis").unwrap();
        let mfa = compile_query(&q);
        let index = ReachabilityIndex::new(&mfa, &dtd, &labels);
        let row = index.allowed_below(labels.get("zip").unwrap()).unwrap();
        assert!(row.iter().all(|&w| w == 0));
    }
}
