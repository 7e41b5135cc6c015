//! The `smoqed` wire-protocol codec suite.
//!
//! Locks the codec three ways, mirroring the `snapshot.rs` style:
//!
//! 1. **Round-trip** — every request and response variant survives
//!    `decode(encode(m)) == m`, including the frame transport and a
//!    registered view's fingerprint.
//! 2. **Rejection sweep** — truncations at every byte length, a flip of
//!    every byte, oversized/zero length prefixes, unknown tags, and
//!    trailing garbage all produce *typed* errors, never panics.
//! 3. **Proptest fuzz** — random byte streams through the frame reader
//!    and both decoders: decoding is total (answer or typed error), and
//!    whatever does decode re-encodes canonically.

use proptest::prelude::*;
use smoqe::EvaluationMode;
use smoqe_views::hospital_view;
use smoqed::protocol::{
    decode_request, decode_response, encode_request, encode_response, read_frame, view_to_wire,
    write_frame, ErrorCode, FrameError, ProtocolError, Request, Response, WireBatchStats,
    WireEditOp, WireHypeStats, WireResult, WireServiceStats, WireStats, MAX_FRAME_LEN,
};

// ---------------------------------------------------------------------------
// Fixtures: one message of every variant, with every optional arm exercised
// ---------------------------------------------------------------------------

fn sample_requests() -> Vec<Request> {
    let (document_dtd, view_dtd, annotations) = view_to_wire(&hospital_view());
    vec![
        Request::RegisterView {
            tenant: "nurse".into(),
            document_dtd,
            view_dtd,
            annotations,
        },
        Request::RegisterDocument {
            tenant: "nurse".into(),
            snapshot: vec![0xde, 0xad, 0xbe, 0xef, 0x00],
        },
        Request::Query {
            tenant: "nurse".into(),
            doc: 0x0123_4567_89ab_cdef,
            mode: EvaluationMode::OptHyPEC,
            query: "patient/(record/visit)*".into(),
        },
        Request::BatchQuery {
            tenant: "clerk".into(),
            doc: u64::MAX,
            mode: EvaluationMode::OptHyPE,
            queries: vec!["patient".into(), String::new(), "parent/patient".into()],
        },
        Request::ApplyEdit {
            tenant: "nurse".into(),
            doc: 7,
            ops: vec![
                WireEditOp::Insert {
                    parent: 0,
                    position: 3,
                    snapshot: vec![1, 2, 3],
                },
                WireEditOp::Delete { node: 42 },
                WireEditOp::Replace {
                    node: u32::MAX,
                    snapshot: vec![],
                },
            ],
        },
        Request::Stats { tenant: None },
        Request::Stats {
            tenant: Some("nurse".into()),
        },
    ]
}

fn sample_result() -> WireResult {
    WireResult {
        answers: vec![1, 5, 9, 4096],
        stats: WireHypeStats {
            nodes_total: 100,
            nodes_visited: 42,
            cans_vertices: 7,
            cans_edges: 6,
            afa_values_computed: 256,
            max_shard_fraction_bits: 0.25f64.to_bits(),
        },
    }
}

fn sample_responses() -> Vec<Response> {
    vec![
        Response::ViewRegistered {
            fingerprint: 0x455a_1fb1_4ae6_96a4,
        },
        Response::DocumentRegistered { doc: 0xfeed_f00d },
        Response::Answer(sample_result()),
        Response::BatchAnswer {
            results: vec![
                sample_result(),
                WireResult {
                    answers: vec![],
                    stats: Default::default(),
                },
            ],
            stats: WireBatchStats {
                queries: 2,
                nodes_total: 100,
                nodes_visited: 60,
                sequential_node_visits: 120,
            },
        },
        Response::EditApplied {
            old_doc: 1,
            new_doc: 2,
            old_fingerprint: 3,
            new_fingerprint: 4,
            generation: 5,
        },
        Response::Stats(WireStats {
            tenants: 2,
            queue_depth: 3,
            queue_capacity: 64,
            shed_total: 9,
            connections_total: 100,
            requests_total: 5000,
            protocol_errors: 1,
            service: None,
        }),
        Response::Stats(WireStats {
            tenants: 1,
            queue_depth: 0,
            queue_capacity: 64,
            shed_total: 0,
            connections_total: 1,
            requests_total: 2,
            protocol_errors: 0,
            service: Some(WireServiceStats {
                compiled_hits: 1,
                compiled_misses: 2,
                compiled_evictions: 3,
                compiled_cached: 4,
                index_hits: 5,
                index_misses: 6,
                index_evictions: 7,
                index_invalidations: 8,
                index_cached: 9,
                last_max_shard_fraction_bits: 0.5f64.to_bits(),
            }),
        }),
        Response::Error {
            code: ErrorCode::UnknownDocument,
            message: "doc:0000000000000007 is not in tenant \"nurse\"'s store".into(),
        },
        Response::Busy { queue_capacity: 64 },
    ]
}

// ---------------------------------------------------------------------------
// 1. Round trips
// ---------------------------------------------------------------------------

#[test]
fn every_request_variant_round_trips() {
    for request in sample_requests() {
        let body = encode_request(&request);
        let decoded =
            decode_request(&body).unwrap_or_else(|e| panic!("decode failed for {request:?}: {e}"));
        assert_eq!(decoded, request);
    }
}

#[test]
fn every_response_variant_round_trips() {
    for response in sample_responses() {
        let body = encode_response(&response);
        let decoded = decode_response(&body)
            .unwrap_or_else(|e| panic!("decode failed for {response:?}: {e}"));
        assert_eq!(decoded, response);
    }
}

#[test]
fn frames_round_trip_back_to_back_on_one_stream() {
    let mut wire = Vec::new();
    let bodies: Vec<Vec<u8>> = sample_requests().iter().map(encode_request).collect();
    for body in &bodies {
        write_frame(&mut wire, body).unwrap();
    }
    let mut cursor = &wire[..];
    for expected in &bodies {
        let got = read_frame(&mut cursor).unwrap().expect("a frame");
        assert_eq!(&got, expected);
    }
    assert!(read_frame(&mut cursor).unwrap().is_none(), "then clean EOF");
}

#[test]
fn a_view_crossing_the_wire_keeps_its_fingerprint() {
    let view = hospital_view();
    let (document_dtd, view_dtd, annotations) = view_to_wire(&view);
    let request = Request::RegisterView {
        tenant: "nurse".into(),
        document_dtd,
        view_dtd,
        annotations,
    };
    let decoded = decode_request(&encode_request(&request)).unwrap();
    let Request::RegisterView {
        document_dtd,
        view_dtd,
        annotations,
        ..
    } = decoded
    else {
        panic!("variant changed in flight");
    };
    let mut rebuilt = smoqe_views::ViewDefinition::new(document_dtd.to_dtd(), view_dtd.to_dtd());
    for (parent, child, query) in &annotations {
        rebuilt.annotate_str(parent, child, query).unwrap();
    }
    rebuilt.check().unwrap();
    assert_eq!(rebuilt.fingerprint(), view.fingerprint());
}

// ---------------------------------------------------------------------------
// 2. Rejection sweep
// ---------------------------------------------------------------------------

#[test]
fn every_truncation_of_every_request_is_a_typed_error() {
    for request in sample_requests() {
        let body = encode_request(&request);
        for len in 0..body.len() {
            match decode_request(&body[..len]) {
                Ok(other) => panic!("truncating {request:?} to {len} bytes decoded as {other:?}"),
                Err(
                    ProtocolError::Truncated { .. }
                    | ProtocolError::EmptyFrame
                    | ProtocolError::TrailingBytes { .. },
                ) => {}
                Err(e) => panic!("unexpected error at {len} bytes: {e}"),
            }
        }
    }
}

#[test]
fn every_truncation_of_every_response_is_a_typed_error() {
    for response in sample_responses() {
        let body = encode_response(&response);
        for len in 0..body.len() {
            // Truncating may also strand a now-short length field that
            // still reads, leaving declared-but-absent bytes; any typed
            // error is acceptable, a success or panic is not.
            assert!(
                decode_response(&body[..len]).is_err(),
                "truncating {response:?} to {len} bytes decoded"
            );
        }
    }
}

#[test]
fn flipping_any_byte_never_panics_and_never_misdecodes_silently() {
    // A flipped byte may still decode (flipping a digit inside a string is
    // a different, valid message) — the property is totality: decode
    // returns Ok or a typed Err, and Ok values re-encode canonically.
    for request in sample_requests() {
        let body = encode_request(&request);
        for i in 0..body.len() {
            let mut corrupted = body.clone();
            corrupted[i] ^= 0xff;
            if let Ok(decoded) = decode_request(&corrupted) {
                assert_eq!(
                    encode_request(&decoded),
                    corrupted,
                    "byte {i}: corrupt bytes decoded to a message that \
                     does not re-encode to them"
                );
            }
        }
    }
}

#[test]
fn unknown_tags_are_typed() {
    for tag in [0x00u8, 0x07, 0x40, 0x80, 0xff] {
        assert_eq!(
            decode_request(&[tag]),
            Err(ProtocolError::UnknownRequestTag(tag)),
            "request tag 0x{tag:02x}"
        );
    }
    for tag in [0x00u8, 0x01, 0x7f, 0x89, 0xff] {
        assert_eq!(
            decode_response(&[tag]),
            Err(ProtocolError::UnknownResponseTag(tag)),
            "response tag 0x{tag:02x}"
        );
    }
    assert_eq!(decode_request(&[]), Err(ProtocolError::EmptyFrame));
    assert_eq!(decode_response(&[]), Err(ProtocolError::EmptyFrame));
}

#[test]
fn trailing_garbage_is_typed() {
    for request in sample_requests() {
        let mut body = encode_request(&request);
        body.push(0x5a);
        assert_eq!(
            decode_request(&body),
            Err(ProtocolError::TrailingBytes { extra: 1 }),
            "{request:?}"
        );
    }
    for response in sample_responses() {
        let mut body = encode_response(&response);
        body.extend_from_slice(&[0, 0, 0]);
        assert_eq!(
            decode_response(&body),
            Err(ProtocolError::TrailingBytes { extra: 3 }),
            "{response:?}"
        );
    }
}

#[test]
fn bad_mode_edit_and_bool_bytes_are_typed() {
    // Query with mode byte 9: tenant "" + doc 0 + mode.
    let mut body = vec![0x03];
    body.extend_from_slice(&0u32.to_le_bytes()); // tenant ""
    body.extend_from_slice(&0u64.to_le_bytes()); // doc
    body.push(9); // bad mode
    body.extend_from_slice(&0u32.to_le_bytes()); // query ""
    assert_eq!(decode_request(&body), Err(ProtocolError::UnknownMode(9)));

    // ApplyEdit with op tag 7.
    let mut body = vec![0x05];
    body.extend_from_slice(&0u32.to_le_bytes()); // tenant ""
    body.extend_from_slice(&0u64.to_le_bytes()); // doc
    body.extend_from_slice(&1u32.to_le_bytes()); // one op
    body.push(7); // bad op tag
    assert_eq!(decode_request(&body), Err(ProtocolError::UnknownEditTag(7)));

    // Stats with presence byte 2.
    let body = vec![0x06, 2];
    assert_eq!(decode_request(&body), Err(ProtocolError::InvalidBool(2)));

    // Error response with an unknown error code.
    let mut body = vec![0x87];
    body.extend_from_slice(&999u16.to_le_bytes());
    body.extend_from_slice(&0u32.to_le_bytes());
    assert_eq!(
        decode_response(&body),
        Err(ProtocolError::UnknownErrorCode(999))
    );
}

#[test]
fn bad_utf8_in_a_string_field_is_typed() {
    // Stats { tenant: Some(<invalid utf-8>) }.
    let mut body = vec![0x06, 1];
    body.extend_from_slice(&2u32.to_le_bytes());
    body.extend_from_slice(&[0xff, 0xfe]);
    assert_eq!(decode_request(&body), Err(ProtocolError::InvalidUtf8));
}

#[test]
fn frame_reader_rejects_zero_oversized_and_truncated_prefixes() {
    let mut zero = &[0u8, 0, 0, 0][..];
    assert!(matches!(
        read_frame(&mut zero),
        Err(FrameError::Protocol(ProtocolError::EmptyFrame))
    ));

    let oversized = (MAX_FRAME_LEN + 1).to_le_bytes();
    let mut cursor = &oversized[..];
    assert!(matches!(
        read_frame(&mut cursor),
        Err(FrameError::Protocol(ProtocolError::Oversized { .. }))
    ));

    // EOF inside the 4-byte prefix.
    let mut partial_prefix = &[1u8, 0][..];
    assert!(matches!(
        read_frame(&mut partial_prefix),
        Err(FrameError::Protocol(ProtocolError::Truncated { .. }))
    ));

    // EOF inside the declared body.
    let mut wire = Vec::new();
    write_frame(&mut wire, &[0x06, 0]).unwrap();
    for len in 4..wire.len() {
        let mut cursor = &wire[..len];
        assert!(
            matches!(
                read_frame(&mut cursor),
                Err(FrameError::Protocol(ProtocolError::Truncated { .. }))
            ),
            "stream cut at byte {len}"
        );
    }
}

// ---------------------------------------------------------------------------
// 3. Proptest fuzz: decoding random bytes is total and canonical
// ---------------------------------------------------------------------------

/// Deterministic byte soup for the fuzz cases (the vendored proptest has
/// no collection strategies; seed + length define the stream).
fn byte_soup(seed: u64, len: usize, bias_tags: bool) -> Vec<u8> {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let mut bytes = Vec::with_capacity(len);
    for i in 0..len {
        let v = next();
        if bias_tags && i == 0 {
            // Land on a real tag often, so the fuzz exercises payload
            // decoding, not just the unknown-tag arm.
            bytes.push(match v % 4 {
                0 => (v >> 8) as u8 % 7,          // request tags 0..=6
                1 => 0x80 | ((v >> 8) as u8 % 9), // response tags 0x80..=0x88
                _ => (v >> 8) as u8,
            });
        } else {
            bytes.push(v as u8);
        }
    }
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
        .. ProptestConfig::default()
    })]

    /// Random bytes through both decoders: never a panic, and anything
    /// that decodes re-encodes to exactly the input (canonical encoding).
    #[test]
    fn decoding_random_bytes_is_total_and_canonical(
        seed in 0u64..u64::MAX,
        len in 0usize..512,
    ) {
        let bytes = byte_soup(seed, len, true);
        // Typed rejection is the expected common case; anything that does
        // decode must re-encode canonically.
        if let Ok(request) = decode_request(&bytes) {
            prop_assert_eq!(encode_request(&request), bytes.clone());
        }
        if let Ok(response) = decode_response(&bytes) {
            prop_assert_eq!(encode_response(&response), bytes);
        }
    }

    /// Random bytes through the frame reader: never a panic, and every
    /// outcome is EOF, a frame, or a typed error.
    #[test]
    fn framing_random_streams_is_total(
        seed in 0u64..u64::MAX,
        len in 0usize..256,
    ) {
        let bytes = byte_soup(seed, len, false);
        let mut cursor = &bytes[..];
        loop {
            match read_frame(&mut cursor) {
                Ok(None) => break,          // clean EOF
                Ok(Some(_)) => {}           // a frame; keep reading
                Err(FrameError::Protocol(_)) => break, // typed rejection
                Err(FrameError::Io(e)) => {
                    return Err(TestCaseError::fail(format!(
                        "in-memory reader reported io error: {e}"
                    )));
                }
            }
        }
    }
}
