//! Round-trip and rejection suite for the binary snapshot format (PR 6).
//!
//! The contract under test is `load(save(parse_document(d))) ≡
//! parse_document(d)` — not just "same answers" but the *same arena*: node
//! ids, label ids, child lists, text, interner layout and the header's
//! label fingerprint all survive the trip, over arbitrary generated
//! documents from both toxgene generators. On the rejection side, every
//! malformed input — truncations at every byte length, a flip of every
//! single byte, wrong magic, unknown versions — must come back as a typed
//! [`SnapshotError`], never a panic and never a silently wrong tree.

use integration_tests::{document_query_corpus, hype_at, standard_hospital_document};
use proptest::prelude::*;

use smoqe_automata::compile_query;
use smoqe_toxgene::{generate_from_dtd, generate_hospital, DtdGenConfig, HospitalConfig};
use smoqe_xml::hospital::hospital_view_dtd;
use smoqe_xml::snapshot::{self, SnapshotError, FORMAT_VERSION, HEADER_LEN, MAGIC};
use smoqe_xml::{labels_fingerprint, parse_document, to_xml_string, XmlTree};
use smoqe_xpath::parse_path;

/// Structural identity, node by node: ids, labels, parents, children,
/// text, interner layout — the strongest equivalence the arena admits.
fn assert_trees_identical(a: &XmlTree, b: &XmlTree) {
    assert_eq!(a.len(), b.len(), "node counts differ");
    assert_eq!(a.root(), b.root(), "roots differ");
    let (la, lb) = (a.labels(), b.labels());
    assert_eq!(la.len(), lb.len(), "interner sizes differ");
    assert_eq!(
        labels_fingerprint(la),
        labels_fingerprint(lb),
        "interner layouts differ"
    );
    for id in a.node_ids() {
        assert_eq!(a.label(id), b.label(id), "label id differs at {id:?}");
        assert_eq!(a.label_name(id), b.label_name(id), "label differs at {id:?}");
        assert_eq!(a.parent(id), b.parent(id), "parent differs at {id:?}");
        assert_eq!(a.children(id), b.children(id), "children differ at {id:?}");
        assert_eq!(a.text(id), b.text(id), "text differs at {id:?}");
    }
    assert_eq!(to_xml_string(a), to_xml_string(b), "serializations differ");
}

/// The full round-trip property for one document: structural identity,
/// header agreement, deterministic bytes, and identical evaluation.
fn assert_round_trips(doc: &XmlTree) {
    let bytes = snapshot::save(doc);
    let header = snapshot::peek_header(&bytes).expect("saved snapshots have valid headers");
    assert_eq!(header.version, FORMAT_VERSION);
    assert_eq!(header.node_count as usize, doc.len());
    assert_eq!(header.labels_fingerprint, labels_fingerprint(doc.labels()));

    let loaded = snapshot::load(&bytes).expect("saved snapshots load");
    assert_trees_identical(doc, &loaded);
    assert_eq!(snapshot::save(&loaded), bytes, "save is deterministic");
    assert!(loaded.check_consistency().is_ok());
}

#[test]
fn the_standard_document_round_trips_with_identical_answers_and_stats() {
    let doc = standard_hospital_document();
    let bytes = snapshot::save(&doc);
    let loaded = snapshot::load(&bytes).unwrap();
    assert_trees_identical(&doc, &loaded);
    // Node and label ids survived, so every query must produce the *same*
    // answer sets and HypeStats on the loaded arena — no re-mapping.
    for query in document_query_corpus() {
        let mfa = compile_query(&parse_path(query).unwrap());
        let original = hype_at(&doc, doc.root(), &mfa, None);
        let reloaded = hype_at(&loaded, loaded.root(), &mfa, None);
        assert_eq!(original.answers, reloaded.answers, "answers differ on `{query}`");
        assert_eq!(original.stats, reloaded.stats, "stats differ on `{query}`");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// `load(save(t)) ≡ t` over random hospital documents.
    #[test]
    fn random_hospital_documents_round_trip(
        patients in 1usize..40,
        seed in 0u64..1_000,
        sibling_pct in 0u32..=100,
    ) {
        let doc = generate_hospital(&HospitalConfig {
            patients,
            seed,
            sibling_probability: sibling_pct as f64 / 100.0,
            max_ancestor_depth: 2,
            ..Default::default()
        });
        assert_round_trips(&doc);
    }

    /// The same property over documents of the recursive view DTD (deep
    /// nesting, empty elements, text-free subtrees).
    #[test]
    fn random_dtd_documents_round_trip(seed in 0u64..1_000) {
        let dtd = hospital_view_dtd();
        let config = DtdGenConfig { seed, max_depth: 9, ..Default::default() };
        let Some(doc) = generate_from_dtd(&dtd, &config) else {
            return Ok(()); // depth budget unlucky for this seed
        };
        assert_round_trips(&doc);
    }

    /// Snapshots agree with the text round-trip on *parsed* documents: one
    /// parse canonicalizes the interner to first-occurrence order, after
    /// which serialize→parse→save reproduces the same bytes. (The generated
    /// tree itself may intern DTD labels the document never uses, so it is
    /// snapshot-distinct from its reparse by design.)
    #[test]
    fn snapshot_agrees_with_the_text_round_trip(
        patients in 1usize..25,
        seed in 0u64..500,
    ) {
        let doc = generate_hospital(&HospitalConfig {
            patients,
            seed,
            ..Default::default()
        });
        let canonical = parse_document(&to_xml_string(&doc)).unwrap();
        let reparsed = parse_document(&to_xml_string(&canonical)).unwrap();
        prop_assert_eq!(snapshot::save(&canonical), snapshot::save(&reparsed));
    }
}

// ---------------------------------------------------------------------------
// Rejection suite: malformed input is refused with typed errors, no panics.
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_is_rejected_and_never_panics() {
    let doc = standard_hospital_document();
    let bytes = snapshot::save(&doc);
    for len in 0..bytes.len() {
        let err = snapshot::load(&bytes[..len])
            .expect_err("every proper prefix must be rejected");
        if len < HEADER_LEN {
            assert!(
                matches!(err, SnapshotError::Truncated { .. } | SnapshotError::BadMagic),
                "prefix of {len} bytes gave {err:?}"
            );
        }
    }
}

#[test]
fn every_single_byte_corruption_is_detected() {
    // Small document so the sweep stays fast; every byte of the snapshot is
    // load-bearing: magic, header fields, label table, node table, text.
    let doc = parse_document("<r><a>x &amp; y</a><b/></r>").unwrap();
    let bytes = snapshot::save(&doc);
    for i in 0..bytes.len() {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        assert!(
            snapshot::load(&corrupt).is_err(),
            "flipping byte {i} of {} went undetected",
            bytes.len()
        );
    }
}

#[test]
fn foreign_and_future_inputs_are_rejected_with_typed_errors() {
    assert!(matches!(
        snapshot::load(b""),
        Err(SnapshotError::Truncated {
            needed: HEADER_LEN,
            have: 0
        })
    ));
    assert!(matches!(
        snapshot::load(&[0u8; HEADER_LEN]),
        Err(SnapshotError::BadMagic)
    ));
    assert!(matches!(
        snapshot::load(b"<hospital></hospital>   extra padding to reach header size"),
        Err(SnapshotError::BadMagic)
    ));

    // A version-3 snapshot from the future: the header still peeks (so a
    // store can report what it was handed) but load refuses it. (Version 2
    // is the delta-log format and loads fine.)
    let mut future = snapshot::save(&parse_document("<r/>").unwrap());
    future[8..12].copy_from_slice(&3u32.to_le_bytes());
    let header = snapshot::peek_header(&future).unwrap();
    assert_eq!(header.version, 3);
    assert!(matches!(
        snapshot::load(&future),
        Err(SnapshotError::UnsupportedVersion(3))
    ));
    assert_eq!(&future[..8], &MAGIC, "only the version field was touched");

    // A v1 body relabeled as v2 promises a delta section it doesn't have:
    // rejected with a typed error, not a panic.
    let mut relabeled = snapshot::save(&parse_document("<r/>").unwrap());
    relabeled[8..12].copy_from_slice(&2u32.to_le_bytes());
    assert!(snapshot::load(&relabeled).is_err());
}

#[test]
fn checksum_protects_the_whole_body() {
    let doc = standard_hospital_document();
    let bytes = snapshot::save(&doc);
    // Flip one bit in the middle of the body.
    let mut corrupt = bytes.clone();
    let mid = HEADER_LEN + (corrupt.len() - HEADER_LEN) / 2;
    corrupt[mid] ^= 0x80;
    assert!(matches!(
        snapshot::load(&corrupt),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
    // Appending trailing garbage is also caught (checksum covers exactly
    // the declared body, and the loader demands exact consumption).
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(snapshot::load(&padded).is_err());
}
