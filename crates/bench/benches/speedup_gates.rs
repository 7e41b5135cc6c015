//! Speed-up gates — every throughput claim of the engines, measured one way
//! and enforced wherever the host can express it.
//!
//! Each gate pairs a *base* pass with a *candidate* pass through
//! [`paired_throughput`] (one untimed pass of each, then alternating
//! passes) and reads the candidate's rate over the base's:
//!
//! | gate | base | candidate | threshold | armed on |
//! |------|------|-----------|-----------|----------|
//! | `parallel/uniform_2t` | `evaluate_tree`, budget 1 | budget 2 | ≥ 1.25× | ≥ 2 cores |
//! | `parallel/uniform_4t` | budget 1 | budget 4 | ≥ 1.5× | ≥ 4 cores |
//! | `parallel/skewed_2t` | budget 1 | budget 2 | ≥ 1.25× | ≥ 2 cores |
//! | `parallel/skewed_4t` | budget 1 | budget 4 | ≥ 1.4× | ≥ 4 cores |
//! | `corpus_4t` | `evaluate_corpus`, budget 1 | budget 4 | ≥ 1.5× | ≥ 4 cores |
//! | `incremental_edits` | edit + from-scratch answer | edit + `IncrementalEvaluator` | ≥ 3× | any |
//! | `compiled` | interpreted batch | compiled batch | > 1× | any |
//! | `smoqed_8_clients` | 1 `SmoqedClient` | 8 concurrent clients | ≥ 1.3× | ≥ 4 cores |
//!
//! Every gate is also a strict win (above 1×). With fewer cores than a
//! gate's rule asks for, threads time-slice and no wall-clock win is
//! physically possible, so the gate is measured and recorded with
//! `"enforced": false` instead of asserting a falsehood. An enforced
//! reading below its threshold is re-measured once over a longer window and
//! the better reading kept, because a noisy neighbour on a shared runner can
//! land inside one window. Beside each reading the report prints its
//! *control*, the base pass paired with itself, whose distance from 1×
//! shows how noisy the host was.
//!
//! The workloads carry their own preconditions, asserted before measuring:
//! the skewed document's dominant subtree holds ≥ 80 % of its nodes,
//! re-splitting keeps `max_shard_fraction` in (0, 0.5) at budgets 2, 4 and 8
//! (and exactly 0 at budget 1, the unsharded walk), and one edit of the
//! edit gate dirties ≤ 10 % of the document. That the paired engines give
//! the same answers and statistics is the test suite's job
//! (`parallel_differential`, `corpus`, `incremental`,
//! `compiled_differential`, `server`).
//!
//! Run with: `cargo bench --bench speedup_gates`
//! (`SMOQE_BENCH_JSON=/path/file.json` appends one
//! `{"id", "speedup", "threshold", "cores", "enforced"}` line per gate.)

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use smoqe::{EvaluationMode, ServiceConfig};
use smoqe_automata::{compile_query, CompiledMfa, Mfa};
use smoqe_bench::{
    batch_workload_queries, emit_json, medium_document, paired_throughput, run_solo,
};
use smoqe_hype::incremental::{IncrementalEvaluator, IncrementalQuery};
use smoqe_hype::interpreted::{self, BatchQuery};
use smoqe_hype::{evaluate_corpus, evaluate_tree, CompiledBatchQuery, CorpusTask};
use smoqe_toxgene::{generate_hospital, generate_skewed_hospital, HospitalConfig};
use smoqe_views::hospital_view;
use smoqe_xml::{parse_document, snapshot, EditOp, NodeId, XmlTree};
use smoqe_xpath::parse_path;
use smoqed::{Server, ServerConfig, SmoqedClient};

/// Half the measured time of one gate reading (see [`paired_throughput`]).
const WINDOW: Duration = Duration::from_millis(700);

/// The window of the one re-measurement a failing enforced reading gets.
const RETRY_WINDOW: Duration = Duration::from_millis(2_500);

/// One pass of a gate's base or candidate side: runs once and returns the
/// units of work it did.
type Pass<'a> = Box<dyn FnMut() -> u64 + 'a>;

/// A speed-up gate: the candidate's rate over the base's must reach
/// `threshold` on hosts with at least `min_cores` cores.
struct Gate {
    id: &'static str,
    threshold: f64,
    min_cores: usize,
}

impl Gate {
    /// Measures the gate with `side(false)` as the base pass and
    /// `side(true)` as the candidate, prints the reading beside its
    /// control, records it, and asserts it where the gate is armed.
    fn check<'a>(&self, cores: usize, side: impl Fn(bool) -> Pass<'a>) {
        let ratio = |window, candidate| {
            let (base, candidate) = paired_throughput(window, side(false), side(candidate));
            candidate / base
        };
        let passes = |speedup: f64| speedup >= self.threshold && speedup > 1.0;
        let enforced = cores >= self.min_cores;
        let mut speedup = ratio(WINDOW, true);
        if enforced && !passes(speedup) {
            let retried = ratio(RETRY_WINDOW, true);
            println!(
                "{}: first reading {speedup:.2}x, retry {retried:.2}x",
                self.id
            );
            speedup = speedup.max(retried);
        }
        let control = ratio(WINDOW, false);
        emit_json(&format!(
            "{{\"id\": \"speedup_gates/{}\", \"speedup\": {speedup:.3}, \"threshold\": {}, \
             \"cores\": {cores}, \"enforced\": {enforced}}}",
            self.id, self.threshold
        ));
        let verdict = match (enforced, passes(speedup)) {
            (false, _) => format!("skipped: enforced on ≥ {} cores", self.min_cores),
            (true, true) => "PASS".to_owned(),
            (true, false) => "FAIL".to_owned(),
        };
        println!(
            "{:<22} {speedup:>6.2}x  (threshold {}x, control {control:.2}x)  {verdict}",
            self.id, self.threshold
        );
        assert!(
            !enforced || passes(speedup),
            "{} must read ≥ {}x and above 1x on {cores} cores; measured {speedup:.2}x, \
             best of two readings",
            self.id,
            self.threshold
        );
    }
}

fn compiled(query: &str) -> Arc<CompiledMfa> {
    Arc::new(CompiledMfa::new(&compile_query(
        &parse_path(query).expect("query parses"),
    )))
}

/// The batch of `queries`, plain HyPE, over shared IRs.
fn batch(queries: &[&str]) -> Vec<CompiledBatchQuery<'static>> {
    queries
        .iter()
        .map(|q| CompiledBatchQuery::new(compiled(q)))
        .collect()
}

/// Base and candidate passes of a parallel gate: one `evaluate_tree` pass
/// of `queries` over `tree` at budget 1 and at `threads`, each counting its
/// sequential-equivalent visited nodes.
fn budget_passes<'a>(
    tree: &'a XmlTree,
    queries: &'a [CompiledBatchQuery<'a>],
    threads: usize,
) -> impl Fn(bool) -> Pass<'a> {
    move |candidate| {
        let budget = if candidate { threads } else { 1 };
        Box::new(move || {
            evaluate_tree(tree, tree.root(), queries, budget)
                .stats
                .sequential_node_visits as u64
        })
    }
}

/// The uniform parallel gates: many balanced top-level shards (24
/// departments) and the 10-query batch workload.
fn uniform_parallel_gates(cores: usize) {
    let tree = generate_hospital(&HospitalConfig {
        patients: 2_000,
        departments: 24,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        sibling_probability: 0.3,
        visits_per_patient: 2,
        test_visit_fraction: 0.3,
        seed: 2007,
    });
    let queries = batch(&batch_workload_queries());
    println!(
        "# uniform: {} nodes, {} top-level shards, {} queries",
        tree.len(),
        tree.children(tree.root()).len(),
        queries.len()
    );
    for (id, threads, threshold) in [
        ("parallel/uniform_2t", 2, 1.25),
        ("parallel/uniform_4t", 4, 1.5),
    ] {
        Gate {
            id,
            threshold,
            min_cores: threads,
        }
        .check(cores, budget_passes(&tree, &queries, threads));
    }
}

/// The skewed parallel gates: department 0 absorbs 85 % of the patients, so
/// no per-child scheduler can pass the 4-thread gate; shard re-splitting
/// must.
fn skewed_parallel_gates(cores: usize) {
    let tree = generate_skewed_hospital(
        &HospitalConfig {
            patients: 2_000,
            departments: 4,
            heart_disease_fraction: 0.3,
            max_ancestor_depth: 2,
            sibling_probability: 0.3,
            visits_per_patient: 2,
            test_visit_fraction: 0.3,
            seed: 2009,
        },
        0.85,
    );
    let dominant = tree
        .children(tree.root())
        .iter()
        .map(|&c| tree.subtree_size(c))
        .max()
        .expect("root has children");
    assert!(
        dominant * 10 >= tree.len() * 8,
        "the dominant subtree must hold ≥ 80% of the document ({dominant}/{} nodes)",
        tree.len()
    );
    let solo = compiled("//diagnosis");
    let fractions: Vec<f64> = [1, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            run_solo(&tree, &solo, None, threads)
                .stats
                .max_shard_fraction
        })
        .collect();
    assert_eq!(
        fractions[0], 0.0,
        "budget 1 runs the sequential walk, unsharded"
    );
    for &frac in &fractions[1..] {
        assert!(
            frac > 0.0 && frac < 0.5,
            "re-splitting bounds the largest task well below the dominant subtree's \
             share (max_shard_fraction = {frac:.3})"
        );
    }
    let queries = batch(&[
        "//diagnosis",
        "department/patient/pname",
        "//patient[visit/treatment/medication]",
        "department/patient[visit]/visit/date",
    ]);
    println!(
        "# skewed: {} nodes, dominant subtree {:.1}%, max_shard_fraction at 1/2/4/8 threads \
         {fractions:.3?}, {} queries",
        tree.len(),
        100.0 * dominant as f64 / tree.len() as f64,
        queries.len()
    );
    for (id, threads, threshold) in [
        ("parallel/skewed_2t", 2, 1.25),
        ("parallel/skewed_4t", 4, 1.4),
    ] {
        Gate {
            id,
            threshold,
            min_cores: threads,
        }
        .check(cores, budget_passes(&tree, &queries, threads));
    }
}

/// The corpus gate: 12 medium documents × 3 queries, routed across
/// documents by `evaluate_corpus`. Each worker owns whole documents, so
/// this gate has no shard-skew cap.
fn corpus_gate(cores: usize) {
    let docs: Vec<XmlTree> = (0..12)
        .map(|i| {
            generate_hospital(&HospitalConfig {
                patients: 240 + 60 * (i % 4),
                departments: 8,
                heart_disease_fraction: 0.3,
                max_ancestor_depth: 2,
                visits_per_patient: 2,
                seed: 4000 + i as u64,
                ..Default::default()
            })
        })
        .collect();
    let irs: Vec<Arc<CompiledMfa>> = [
        "//diagnosis",
        "patient/record/diagnosis",
        "patient[not(parent)]",
    ]
    .iter()
    .map(|q| compiled(q))
    .collect();
    let tasks: Vec<CorpusTask> = docs
        .iter()
        .flat_map(|doc| {
            irs.iter()
                .map(move |ir| CorpusTask::new(doc, Arc::clone(ir)))
        })
        .collect();
    println!(
        "# corpus: {} documents, {} (document, query) pairs",
        docs.len(),
        tasks.len()
    );
    let tasks = &tasks;
    Gate {
        id: "corpus_4t",
        threshold: 1.5,
        min_cores: 4,
    }
    .check(cores, |candidate| {
        let budget = if candidate { 4 } else { 1 };
        Box::new(move || {
            evaluate_corpus(tasks, budget)
                .iter()
                .map(|r| r.stats.nodes_visited as u64)
                .sum()
        })
    });
}

/// The document of the edit gate: many departments, so one top-level
/// subtree (the unit an edit dirties) is a small share of the whole.
fn edit_document() -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients: 1200,
        departments: 24,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        visits_per_patient: 2,
        seed: 7000,
        ..Default::default()
    })
}

/// Round-robin single-subtree edits: odd steps insert a small patient at
/// the front of the next department, even steps delete it again, so the
/// document oscillates between two states and every edit dirties exactly
/// one top-level subtree.
struct EditSource {
    departments: Vec<NodeId>,
    next: usize,
    pending_delete: Option<NodeId>,
    payload: XmlTree,
}

impl EditSource {
    fn new(tree: &XmlTree) -> Self {
        let payload = parse_document(
            "<patient><pname>Bench</pname><visit><treatment><medication>\
             <diagnosis>flu</diagnosis></medication></treatment></visit></patient>",
        )
        .expect("payload parses");
        EditSource {
            departments: tree.children(tree.root()).to_vec(),
            next: 0,
            pending_delete: None,
            payload,
        }
    }

    /// The next edit, and the tree it leaves once applied through `apply`.
    fn step(&mut self, tree: &mut XmlTree, apply: impl FnOnce(&mut XmlTree, &EditOp)) {
        let op = match self.pending_delete.take() {
            Some(node) => EditOp::Delete { node },
            None => {
                let parent = self.departments[self.next % self.departments.len()];
                self.next += 1;
                EditOp::Insert {
                    parent,
                    position: 0,
                    subtree: self.payload.clone(),
                }
            }
        };
        apply(tree, &op);
        if let EditOp::Insert { parent, .. } = op {
            self.pending_delete = Some(tree.children(parent)[0]);
        }
    }
}

/// Edits per pass of the edit gate. Alternating single edits would run
/// each incremental edit right after a whole-document walk has evicted its
/// cached state, and so measure the eviction instead of an edit stream.
const EDITS_PER_PASS: u64 = 8;

/// The edit gate: single-subtree edits, each followed by a full answer of
/// three queries held open across edits, from scratch (base) or through the
/// incremental evaluator (candidate). The win is algorithmic, one dirtied shard recomputed and
/// the rest spliced from cache, so both sides run on one thread and the
/// gate is enforced on any core count.
fn edit_gate(cores: usize) {
    let irs: Vec<Arc<CompiledMfa>> = [
        "department/patient/pname",
        "//diagnosis",
        "department/patient[not(visit/treatment/test)]",
    ]
    .iter()
    .map(|q| compiled(q))
    .collect();
    let tree = edit_document();
    let shard = tree.subtree_size(tree.children(tree.root())[0]);
    let edited_fraction = shard as f64 / tree.live_len() as f64;
    assert!(
        edited_fraction <= 0.10,
        "the edit gate is defined for edits dirtying ≤ 10% of the nodes (one shard is {:.1}%)",
        edited_fraction * 100.0
    );
    println!(
        "# edits: {} live nodes, one edit dirties {:.1}% of them, {} queries",
        tree.live_len(),
        edited_fraction * 100.0,
        irs.len()
    );
    let irs = &irs;
    Gate {
        id: "incremental_edits",
        threshold: 3.0,
        min_cores: 1,
    }
    .check(cores, |candidate| -> Pass {
        let mut tree = edit_document();
        let mut source = EditSource::new(&tree);
        if candidate {
            let queries = irs
                .iter()
                .map(|ir| IncrementalQuery::new(Arc::clone(ir)))
                .collect();
            let (mut eval, _) = IncrementalEvaluator::new(&tree, tree.root(), queries, 1);
            Box::new(move || {
                for _ in 0..EDITS_PER_PASS {
                    source.step(&mut tree, |tree, op| {
                        eval.apply_edits(tree, std::slice::from_ref(op), 1)
                            .expect("edit applies");
                    });
                }
                EDITS_PER_PASS
            })
        } else {
            let queries: Vec<CompiledBatchQuery> = irs
                .iter()
                .map(|ir| CompiledBatchQuery::new(Arc::clone(ir)))
                .collect();
            Box::new(move || {
                for _ in 0..EDITS_PER_PASS {
                    source.step(&mut tree, |tree, op| {
                        tree.apply(op).expect("edit applies");
                    });
                    evaluate_tree(&tree, tree.root(), &queries, 1);
                }
                EDITS_PER_PASS
            })
        }
    });
}

/// The compiled gate: the 10-query batch workload on the medium document,
/// interpreted engines (base) against the compiled bitset IR (candidate),
/// both sequential, counting visited nodes.
fn compiled_gate(cores: usize) {
    let tree = medium_document();
    let mfas: Vec<Mfa> = batch_workload_queries()
        .into_iter()
        .map(|q| compile_query(&parse_path(q).expect("workload query parses")))
        .collect();
    let interpreted_queries: Vec<BatchQuery> = mfas.iter().map(BatchQuery::new).collect();
    let compiled_queries: Vec<CompiledBatchQuery> = mfas
        .iter()
        .map(|m| CompiledBatchQuery::new(Arc::new(CompiledMfa::new(m))))
        .collect();
    println!("# compiled: {} nodes, {} queries", tree.len(), mfas.len());
    let (tree, interpreted_queries, compiled_queries) =
        (&tree, &interpreted_queries, &compiled_queries);
    Gate {
        id: "compiled",
        threshold: 1.0,
        min_cores: 1,
    }
    .check(cores, |candidate| -> Pass {
        if candidate {
            Box::new(move || {
                evaluate_tree(tree, tree.root(), compiled_queries, 1)
                    .results
                    .iter()
                    .map(|r| r.stats.nodes_visited as u64)
                    .sum()
            })
        } else {
            Box::new(move || {
                interpreted::evaluate_batch(tree, interpreted_queries)
                    .results
                    .iter()
                    .map(|r| r.stats.nodes_visited as u64)
                    .sum()
            })
        }
    });
}

/// The tenant of the smoqed gate.
const TENANT: &str = "ward";

/// The smoqed gate's query mix: cache-resident hot queries and a long tail.
const SERVED_QUERIES: &[&str] = &[
    "patient",
    "patient/record/diagnosis",
    "(patient/parent)*/patient",
    "//diagnosis",
    "patient/record",
    "patient[not(parent)]",
    "patient[record/diagnosis/text()='heart disease' and parent]",
    "(patient/parent)*/patient[record]",
];

/// Requests each client issues per pass of the smoqed gate.
const REQUESTS_PER_CLIENT: usize = 24;

/// One closed-loop pass: `clients` threads, each on a fresh connection,
/// issue [`REQUESTS_PER_CLIENT`] queries back to back and disconnect.
/// Connections never idle between passes, so no worker camps on one.
/// Returns the requests answered; a failed request panics the pass.
fn serve(addr: SocketAddr, doc: u64, clients: usize) -> u64 {
    thread::scope(|scope| {
        for c in 0..clients {
            scope.spawn(move || {
                let mut client = SmoqedClient::connect(addr).expect("client connects");
                for r in 0..REQUESTS_PER_CLIENT {
                    let query = SERVED_QUERIES[(c + r) % SERVED_QUERIES.len()];
                    client
                        .query(TENANT, doc, EvaluationMode::HyPE, query)
                        .unwrap_or_else(|e| panic!("`{query}` failed over the wire: {e}"));
                }
            });
        }
    });
    (clients * REQUESTS_PER_CLIENT) as u64
}

/// The smoqed gate: a loopback server with one worker per core, requests
/// per second of 8 concurrent clients over 1. Armed from 4 cores, where
/// the clients and the workers do not share each other's CPUs.
fn smoqed_gate(cores: usize) {
    let mut server = Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 0,
            queue_capacity: 256,
            service: ServiceConfig::default(),
        },
    )
    .expect("loopback server spawns");
    let doc = generate_hospital(&HospitalConfig {
        patients: 150,
        departments: 6,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        sibling_probability: 0.4,
        visits_per_patient: 2,
        seed: 8000,
        ..Default::default()
    });
    let doc_id = {
        let mut setup = SmoqedClient::connect(server.addr()).expect("client connects");
        setup
            .register_view(TENANT, &hospital_view())
            .expect("view registers");
        setup
            .register_document(TENANT, &snapshot::save(&doc))
            .expect("document registers")
    };
    println!(
        "# smoqed: {} nodes, {} queries, loopback",
        doc.len(),
        SERVED_QUERIES.len()
    );
    let addr = server.addr();
    Gate {
        id: "smoqed_8_clients",
        threshold: 1.3,
        min_cores: 4,
    }
    .check(cores, |candidate| {
        let clients = if candidate { 8 } else { 1 };
        Box::new(move || serve(addr, doc_id, clients))
    });
    server.shutdown();
}

fn main() {
    let cores = thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!("# speed-up gates on {cores} core(s)");
    uniform_parallel_gates(cores);
    skewed_parallel_gates(cores);
    corpus_gate(cores);
    edit_gate(cores);
    compiled_gate(cores);
    smoqed_gate(cores);
}
