//! The seeded differential-fuzz campaign driver (PR 10 tentpole).
//!
//! A [`FuzzCase`] is derived deterministically from `(domain, seed)`: it
//! picks a document shape, a document seed, an edit script length/seed and
//! a query-mix offset. [`run_case`] then generates the document, drives the
//! edit script through the [`IncrementalEvaluator`], and checks **every
//! engine** — interpreted, compiled, streamed, parallel at budgets
//! {1, 2, 8}, the three evaluation modes (HyPE / OptHyPE / OptHyPE-C) and
//! incremental-after-edits — against the spec-level oracle:
//!
//! * *document* queries against `smoqe_xpath::evaluate` on the document;
//! * *view* queries against materialize-then-evaluate
//!   ([`crate::oracle_answer`]), the paper's definition of view-query
//!   semantics. (Raw document XPath is **not** a valid oracle for view
//!   queries: annotation wildcards range over the document-DTD alphabet,
//!   so content inside a DTD-unknown element is outside the view by
//!   definition.)
//!
//! Statistics are pinned wherever they are defined to be equal:
//! interpreted ≡ compiled ≡ parallel, stream ≡ tree, and incremental ≡
//! from-scratch. The Opt modes are checked on answers only — pruning
//! changes visit counts by design.
//!
//! Edit scripts deliberately break DTD conformance (domain-vocabulary
//! subtrees at arbitrary positions, plus a label no DTD defines), so the
//! campaign also exercises the no-prune soundness fallbacks.
//!
//! To reproduce a failure locally, take the `domain` and `seed` from the
//! [`Divergence`] and run
//! `FuzzCase::derive(&domain("<name>").unwrap(), <seed>)` through
//! [`run_case`] — everything downstream is deterministic in those two
//! values.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use smoqe::{CompiledQuery, EvaluationMode, RegularXPathEngine, SmoqeEngine};
use smoqe_hype::{
    evaluate_tree, interpreted, CompiledBatchQuery, IncrementalEvaluator, IncrementalQuery,
};
use smoqe_toxgene::{DocShape, Domain};
use smoqe_xml::stream::TreeEvents;
use smoqe_xml::{parse_document, EditOp, NodeId, XmlTree};

use crate::{oracle_answer, run_ir, stream_solo};

/// The parallel thread budgets the campaign sweeps.
pub const BUDGETS: [usize; 3] = [1, 2, 8];

/// One deterministic campaign case: everything downstream of
/// [`FuzzCase::derive`] is a pure function of the tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FuzzCase {
    /// The campaign seed the case was derived from.
    pub seed: u64,
    /// Document shape, drawn from the domain's supported shapes.
    pub shape: DocShape,
    /// Seed fed to the domain generator.
    pub doc_seed: u64,
    /// Number of edit ops applied before the differential sweep (0–3).
    pub edit_len: usize,
    /// Seed of the edit-script RNG.
    pub edit_seed: u64,
    /// Rotation offset into the domain's query corpora.
    pub query_offset: usize,
    /// Thread budget handed to the incremental evaluator.
    pub incremental_threads: usize,
}

/// splitmix64: the canonical seed-expansion step.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl FuzzCase {
    /// Derives the case for `seed` in `domain`'s campaign.
    pub fn derive(domain: &Domain, seed: u64) -> FuzzCase {
        // Fold the domain name in so equal seeds diverge across domains.
        let mut state = domain
            .name
            .bytes()
            .fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
            });
        let shape = domain.shapes[(splitmix(&mut state) % domain.shapes.len() as u64) as usize];
        FuzzCase {
            seed,
            shape,
            doc_seed: splitmix(&mut state),
            edit_len: (splitmix(&mut state) % 4) as usize,
            edit_seed: splitmix(&mut state) | 1,
            query_offset: splitmix(&mut state) as usize,
            incremental_threads: BUDGETS[(splitmix(&mut state) % 3) as usize],
        }
    }
}

/// A differential failure: which engine diverged from the oracle on which
/// query of which case, with enough detail to reproduce and debug.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// The domain the case ran in.
    pub domain: &'static str,
    /// The (minimized) case.
    pub case: FuzzCase,
    /// The query (tagged `doc:` / `view:`) that diverged.
    pub query: String,
    /// The engine that disagreed with the oracle.
    pub engine: &'static str,
    /// What differed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] seed {} ({:?}): `{}` via {}: {}\n  reproduce: run_case(&domain(\"{}\").unwrap(), \
             &FuzzCase::derive(&domain(\"{}\").unwrap(), {}))",
            self.domain,
            self.case.seed,
            self.case,
            self.query,
            self.engine,
            self.detail,
            self.domain,
            self.domain,
            self.case.seed,
        )
    }
}

/// A tiny deterministic xorshift64* for edit-site selection.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Edit payloads spelled in the domain's own element vocabulary (destined
/// for arbitrary, usually DTD-violating positions) plus one label no DTD
/// defines — the adversarial mix that forces the no-prune fallbacks.
fn domain_payloads(domain: &Domain) -> Vec<XmlTree> {
    let names = domain.document_dtd().element_types();
    let mut out = Vec::new();
    for pair in names.chunks(2) {
        let payload = match *pair {
            [a, b] => format!("<{a}><{b}>fuzz</{b}></{a}>"),
            [a] => format!("<{a}>fuzz</{a}>"),
            _ => unreachable!("chunks(2) yields 1- or 2-element windows"),
        };
        out.push(parse_document(&payload).expect("payloads parse"));
    }
    out.push(parse_document("<label-from-nowhere>alien</label-from-nowhere>").unwrap());
    out
}

/// One valid [`EditOp`] against the current tree state (root context:
/// delete/replace any non-root live node, insert anywhere).
fn random_op(rng: &mut Rng, tree: &XmlTree, payloads: &[XmlTree]) -> EditOp {
    let live: Vec<NodeId> = tree.node_ids().filter(|&n| tree.is_live(n)).collect();
    let non_root: Vec<NodeId> = live.iter().copied().filter(|&n| n != tree.root()).collect();
    let choice = rng.below(4);
    if choice >= 2 && !non_root.is_empty() {
        let node = non_root[rng.below(non_root.len())];
        if choice == 2 {
            return EditOp::Delete { node };
        }
        return EditOp::Replace {
            node,
            subtree: payloads[rng.below(payloads.len())].clone(),
        };
    }
    let parent = live[rng.below(live.len())];
    let position = rng.below(tree.children(parent).len() + 1);
    EditOp::Insert {
        parent,
        position,
        subtree: payloads[rng.below(payloads.len())].clone(),
    }
}

/// The case's edit script, drawn op-by-op against a scratch clone so the
/// sequence stays valid.
fn edit_script(case: &FuzzCase, domain: &Domain, tree: &XmlTree) -> Vec<EditOp> {
    let payloads = domain_payloads(domain);
    let mut rng = Rng(case.edit_seed);
    let mut probe = tree.clone();
    let mut ops = Vec::with_capacity(case.edit_len);
    for _ in 0..case.edit_len {
        let op = random_op(&mut rng, &probe, &payloads);
        probe.apply(&op).expect("generated ops are valid in sequence");
        ops.push(op);
    }
    ops
}

/// How many queries of each corpus a case exercises.
const QUERIES_PER_CORPUS: usize = 3;

/// The case's query mix: up to [`QUERIES_PER_CORPUS`] document queries and
/// as many view queries, rotated by the case's offset so the whole corpus
/// is covered across a campaign.
fn query_mix<'d>(case: &FuzzCase, domain: &'d Domain) -> Vec<(String, bool, &'d str)> {
    let mut out = Vec::new();
    for (corpus, is_view) in [(domain.document_queries, false), (domain.view_queries, true)] {
        for k in 0..QUERIES_PER_CORPUS.min(corpus.len()) {
            let q = corpus[(case.query_offset + k * 7) % corpus.len()];
            let tag = if is_view { "view" } else { "doc" };
            if !out.iter().any(|(name, _, _)| name == &format!("{tag}:{q}")) {
                out.push((format!("{tag}:{q}"), is_view, q));
            }
        }
    }
    out
}

/// Maps a tree's arena node ids to the pre-order indices a stream assigns.
fn preorder_ids(tree: &XmlTree) -> HashMap<NodeId, NodeId> {
    tree.descendants_or_self(tree.root())
        .into_iter()
        .enumerate()
        .map(|(i, n)| (n, NodeId(i as u32)))
        .collect()
}

fn to_preorder(answers: &BTreeSet<NodeId>, pre: &HashMap<NodeId, NodeId>) -> BTreeSet<NodeId> {
    answers.iter().map(|n| pre[n]).collect()
}

/// Runs one case: generate, edit, and check every engine against the
/// spec-level oracle. Returns the first divergence found, if any (boxed —
/// the report is much larger than the `Ok` path).
pub fn run_case(domain: &Domain, case: &FuzzCase) -> Result<(), Box<Divergence>> {
    let diverge = |query: &str, engine: &'static str, detail: String| {
        Box::new(Divergence {
            domain: domain.name,
            case: *case,
            query: query.to_owned(),
            engine,
            detail,
        })
    };

    let engine = SmoqeEngine::new(domain.view.clone()).expect("registered views check");
    let mix = query_mix(case, domain);
    let compiled: Vec<CompiledQuery> = mix
        .iter()
        .map(|(name, is_view, q)| {
            if *is_view {
                engine.compile(q)
            } else {
                RegularXPathEngine::compile(q)
            }
            .unwrap_or_else(|e| panic!("{name} fails to compile: {e}"))
        })
        .collect();

    // Generate, then drive the edit script through the incremental
    // evaluator (its result is checked against the oracle below).
    let mut doc = domain.generate(case.shape, 1, case.doc_seed);
    let inc_queries: Vec<IncrementalQuery> = compiled
        .iter()
        .map(|c| IncrementalQuery::new(Arc::clone(c.compiled())))
        .collect();
    let (mut inc, initial) = IncrementalEvaluator::new(
        &doc,
        doc.root(),
        inc_queries.clone(),
        case.incremental_threads,
    );
    let ops = edit_script(case, domain, &doc);
    let incremental = if ops.is_empty() {
        initial
    } else {
        let result = inc
            .apply_edits(&mut doc, &ops, case.incremental_threads)
            .expect("generated scripts keep the root context");
        doc.check_consistency()
            .unwrap_or_else(|e| panic!("edited tree inconsistent: {e}"));
        result
    };

    // From-scratch batch over the edited document, for incremental stats.
    let scratch: Vec<CompiledBatchQuery> = compiled
        .iter()
        .map(|c| CompiledBatchQuery::new(Arc::clone(c.compiled())))
        .collect();
    let scratch_batch = evaluate_tree(&doc, doc.root(), &scratch, 1);

    let pre = preorder_ids(&doc);

    for (i, ((name, is_view, q), c)) in mix.iter().zip(&compiled).enumerate() {
        // The spec-level oracle on the *edited* document.
        let oracle: BTreeSet<NodeId> = if *is_view {
            oracle_answer(&domain.view, &doc, q)
        } else {
            smoqe_xpath::evaluate(&doc, doc.root(), c.query())
        };

        // Compiled tree walk.
        let solo = c.evaluate(&doc, doc.root(), None, 1);
        if solo.answers != oracle {
            return Err(diverge(name, "compiled", answer_diff(&solo.answers, &oracle)));
        }

        // Interpreted reference: oracle answers, compiled stats.
        let interp = interpreted::evaluate(&doc, c.mfa());
        if interp.answers != oracle {
            return Err(diverge(name, "interpreted", answer_diff(&interp.answers, &oracle)));
        }
        if interp.stats != solo.stats {
            return Err(diverge(
                name,
                "interpreted-stats",
                format!("{:?} vs compiled {:?}", interp.stats, solo.stats),
            ));
        }

        // Streaming over the edited tree's event replay.
        let mut events = TreeEvents::new(&doc);
        let (streamed, _) = stream_solo(&mut events, c.mfa())
            .unwrap_or_else(|e| panic!("{name}: stream fails: {e}"));
        if streamed.answers != to_preorder(&oracle, &pre) {
            return Err(diverge(
                name,
                "streamed",
                format!("{:?} vs oracle(pre-order) {:?}", streamed.answers, to_preorder(&oracle, &pre)),
            ));
        }
        if streamed.stats != solo.stats {
            return Err(diverge(
                name,
                "streamed-stats",
                format!("{:?} vs tree {:?}", streamed.stats, solo.stats),
            ));
        }

        // Parallel at every budget.
        for threads in BUDGETS {
            let par = run_ir(&doc, doc.root(), c.compiled(), None, threads);
            if par.answers != oracle {
                return Err(diverge(name, "parallel", format!("{threads}t: {}", answer_diff(&par.answers, &oracle))));
            }
            if par.stats != solo.stats {
                return Err(diverge(
                    name,
                    "parallel-stats",
                    format!("{threads}t: {:?} vs {:?}", par.stats, solo.stats),
                ));
            }
        }

        // The three evaluation modes (the Opt modes route through the
        // conformance-guarded index build; answers only — pruning changes
        // visit counts by design).
        for mode in [EvaluationMode::HyPE, EvaluationMode::OptHyPE, EvaluationMode::OptHyPEC] {
            let index = mode
                .compressed_index()
                .map(|compressed| c.build_index(domain.document_dtd(), &doc, compressed));
            let moded = c.evaluate(&doc, doc.root(), index.as_ref(), 1);
            if moded.answers != oracle {
                return Err(diverge(
                    name,
                    "evaluation-mode",
                    format!("{mode:?}: {}", answer_diff(&moded.answers, &oracle)),
                ));
            }
        }

        // Incremental-after-edits: oracle answers, from-scratch stats.
        if incremental.results[i].answers != oracle {
            return Err(diverge(
                name,
                "incremental",
                answer_diff(&incremental.results[i].answers, &oracle),
            ));
        }
        if incremental.results[i].stats != scratch_batch.results[i].stats {
            return Err(diverge(
                name,
                "incremental-stats",
                format!(
                    "{:?} vs scratch {:?}",
                    incremental.results[i].stats, scratch_batch.results[i].stats
                ),
            ));
        }
    }

    Ok(())
}

fn answer_diff(got: &BTreeSet<NodeId>, want: &BTreeSet<NodeId>) -> String {
    let missing: Vec<_> = want.difference(got).collect();
    let extra: Vec<_> = got.difference(want).collect();
    format!("missing {missing:?}, extra {extra:?} (got {}, want {})", got.len(), want.len())
}

/// Shrinks a failing case: fewer edit ops first (scale is already minimal),
/// keeping the failure alive. Returns the smallest still-failing divergence.
pub fn minimize(domain: &Domain, divergence: Divergence) -> Divergence {
    let case = divergence.case;
    for edit_len in 0..case.edit_len {
        let candidate = FuzzCase { edit_len, ..case };
        if let Err(smaller) = run_case(domain, &candidate) {
            return *smaller;
        }
    }
    divergence
}

/// Runs `cases` seeded cases for `domain`, starting at `base_seed`,
/// minimizing any divergence found. Returns all (minimized) divergences.
pub fn run_domain_campaign(domain: &Domain, base_seed: u64, cases: usize) -> Vec<Divergence> {
    let mut out = Vec::new();
    for i in 0..cases {
        let case = FuzzCase::derive(domain, base_seed.wrapping_add(i as u64));
        if let Err(d) = run_case(domain, &case) {
            out.push(minimize(domain, *d));
        }
    }
    out
}

/// The campaign case count: `SMOQE_FUZZ_CASES` if set (the nightly-style
/// long mode), else `default_cases` (the bounded CI smoke mode).
pub fn fuzz_cases_per_domain(default_cases: usize) -> usize {
    std::env::var("SMOQE_FUZZ_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_cases)
}
