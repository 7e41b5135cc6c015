//! Depth-hardening lock tests (PR 10, satellite 3).
//!
//! Document depth and query nesting are adversarial inputs in the fuzz
//! campaign, so every driver that walks a tree — the spec oracle, the
//! compiled engine, the interpreted oracle, the streaming evaluator, the
//! parallel scheduler, the serializer and the parser — must survive
//! documents tens of thousands of levels deep on a default (2 MiB) test
//! thread stack, and the recursive-descent query parser must *reject*
//! pathologically nested queries instead of overflowing.

use std::sync::Arc;

use smoqe_automata::compile_query;
use integration_tests::{hype_at, run_ir, stream_solo};
use smoqe_hype::interpreted;
use smoqe_toxgene::{generate_deep_bom, generate_deep_hospital};
use smoqe_xml::stream::TreeEvents;
use smoqe_xml::{parse_document, to_xml_string};
use smoqe_xpath::parse_path;

/// Deep enough that any accidental per-node recursion blows a 2 MiB stack
/// (each frame of the old recursive walkers was well over 100 bytes).
const DEEP: usize = 30_000;

#[test]
fn deep_hospital_chain_survives_every_engine() {
    let doc = generate_deep_hospital(DEEP, 7);
    assert!(doc.max_depth() >= DEEP, "depth {}", doc.max_depth());

    let queries = [
        "(patient/parent)*/patient[record/diagnosis/text()='heart disease']",
        "//patient/pname",
        "patient[parent]",
    ];
    for query in queries {
        let path = parse_path(query).unwrap();
        // Spec-level oracle (iterative closure over the reachability graph).
        let oracle = smoqe_xpath::evaluate(&doc, doc.root(), &path);

        let mfa = compile_query(&path);
        // Compiled tree walk (iterative `walk`).
        let compiled = hype_at(&doc, doc.root(), &mfa, None);
        assert_eq!(compiled.answers, oracle, "compiled differs on `{query}`");

        // Interpreted oracle (iterative `BatchEngine::visit`).
        let interp = interpreted::evaluate(&doc, &mfa);
        assert_eq!(interp.answers, oracle, "interpreted differs on `{query}`");
        assert_eq!(interp.stats, compiled.stats, "stats differ on `{query}`");

        // Streaming evaluator (explicit frame stack, O(depth) frames).
        let mut events = TreeEvents::new(&doc);
        let (streamed, stream_stats) = stream_solo(&mut events, &mfa).unwrap();
        assert_eq!(streamed.answers, oracle, "streamed differs on `{query}`");
        assert!(stream_stats.peak_frames <= doc.max_depth() + 1);

        // Parallel scheduler at every budget the acceptance bar names.
        let shared = Arc::new(smoqe_automata::CompiledMfa::new(&mfa));
        for threads in [1usize, 2, 8] {
            let par = run_ir(&doc, doc.root(), &shared, None, threads);
            assert_eq!(par.answers, oracle, "parallel({threads}) differs on `{query}`");
        }
    }
}

#[test]
fn deep_documents_serialize_and_round_trip() {
    let doc = generate_deep_hospital(DEEP, 11);
    // Iterative serializer and iterative parser: text round-trips.
    let xml = to_xml_string(&doc);
    let reparsed = parse_document(&xml).unwrap();
    assert_eq!(reparsed.len(), doc.len());
    assert_eq!(to_xml_string(&reparsed), xml);

    // Pretty-printing pads by depth; it must also stay iterative.
    let pretty = smoqe_xml::to_xml_string_pretty(&generate_deep_hospital(2_000, 11));
    assert!(pretty.contains('\n'));
}

#[test]
fn deep_bom_chain_agrees_across_engines() {
    // Second recursive domain: the bill-of-materials assembly chain.
    let doc = generate_deep_bom(DEEP, 3);
    smoqe_xml::domains::bom_document_dtd().validate(&doc).unwrap();

    let path = parse_path("//part[origin/text()='domestic']/pnum").unwrap();
    let oracle = smoqe_xpath::evaluate(&doc, doc.root(), &path);
    assert!(!oracle.is_empty(), "deep BoM has domestic parts");

    let mfa = compile_query(&path);
    let compiled = hype_at(&doc, doc.root(), &mfa, None);
    assert_eq!(compiled.answers, oracle);

    let mut events = TreeEvents::new(&doc);
    let (streamed, _) = stream_solo(&mut events, &mfa).unwrap();
    assert_eq!(streamed.answers, oracle);
}

#[test]
fn pathologically_nested_queries_error_instead_of_crashing() {
    let depth = 100_000usize;
    let grouped = format!("{}patient{}", "(".repeat(depth), ")".repeat(depth));
    let err = parse_path(&grouped).unwrap_err();
    assert!(err.message.contains("nesting too deep"));

    let nots = format!("patient[{}record{}]", "not(".repeat(depth), ")".repeat(depth));
    let err = parse_path(&nots).unwrap_err();
    assert!(err.message.contains("nesting too deep"));
}
