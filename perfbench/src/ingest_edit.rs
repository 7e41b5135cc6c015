//! `ingest_edit`: writes beside reads, over a loopback `smoqed` plus the
//! client-side ingest path. Four tenants with mid-size documents; per
//! tenant and cycle a fixed-length edit chain that restarts from the base:
//!
//! * *register*: XML text → `parse_document` → `snapshot::save` →
//!   `RegisterDocument`;
//! * *edit*: `ApplyEdit` of 1–3 subtree ops drawn from the domain's own
//!   documents, so every run visits the same versions;
//! * *requery*: hot view queries on the version just made;
//! * *stream*: in-process `QueryService::answer_stream` over the XML bytes.
//!
//! The tokenizer, snapshot load, store, edit apply and delta log do most of
//! the work here and none in `walk_large`; edits invalidate the index
//! cache instead of hitting it.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use smoqe::{EvaluationMode, QueryService, ServiceConfig};
use smoqe_toxgene::{
    all_domains, generate_bom, generate_hospital, generate_logs, generate_social, BomConfig,
    DocShape, Domain, HospitalConfig, LogsConfig, SocialConfig,
};
use smoqe_xml::stream::EventSource;
use smoqe_xml::{
    parse_document, snapshot, EditOp, NodeId, XmlStreamReader, XmlTree, XmlTreeBuilder,
};
use smoqed::protocol::view_to_wire;
use smoqed::{Request, Response, Server, ServerConfig, WireEditOp};

use crate::harness::{
    drive, time_set_ups, timed_ms, wire_header, Config, Counters, Cx, Header, Outcome, Scale,
    Workload,
};
use crate::oracle::{same, Answer, Oracle};
use crate::rng::Rng;
use crate::wire::{check, sample_wire_results, Twin, Wire};

const MODES: [EvaluationMode; 3] = [
    EvaluationMode::HyPE,
    EvaluationMode::OptHyPE,
    EvaluationMode::OptHyPEC,
];

/// Hot view queries per tenant (the first of each domain's corpus).
const HOT: usize = 6;
/// Edits per chain, and distinct chains per tenant.
const CHAIN_LEN: usize = 3;
const CHAINS: usize = 2;
/// Requeries after the registration and after each edit.
const REQUERIES: usize = 2;

/// Cycles per window of the end-to-end metrics (a cycle takes about
/// 0.2 s).
const CYCLES_PER_WINDOW: usize = 4;

struct Chain {
    /// The edit of each step, as sent on the wire.
    edits: Vec<Vec<WireEditOp>>,
    /// Expected answers per step (1..=CHAIN_LEN) and hot query.
    expected: Vec<Vec<Answer>>,
}

struct Tenant {
    name: &'static str,
    domain: Domain,
    xml: String,
    /// Expected answers on the registered base, per hot query.
    base_expected: Vec<Answer>,
    /// Expected answers of the streamed base (pre-order node ids).
    stream_expected: Vec<Answer>,
    chains: Vec<Chain>,
    current: u64,
}

#[derive(Debug, Clone)]
pub enum Op {
    Register {
        t: usize,
    },
    Edit {
        t: usize,
        chain: usize,
        step: usize,
    },
    Requery {
        t: usize,
        chain: usize,
        step: usize,
        q: usize,
        mode: EvaluationMode,
    },
    Stream {
        t: usize,
        q: usize,
    },
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        parallel_threads: 1,
        ..ServiceConfig::default()
    }
}

/// The base document of a tenant. Bases leave out one element type the
/// domain's DTD allows (hospital tests, bom assemblies, log contexts,
/// banned members), so an edit that splices it in gives the new version
/// a new label fingerprint and invalidates the cached indexes.
fn base_document(domain: &str, scale: Scale, seed: u64) -> XmlTree {
    let k = if scale == Scale::Full { 1 } else { 0 };
    match domain {
        "hospital" => generate_hospital(&HospitalConfig {
            patients: 20 + 160 * k,
            departments: 3,
            test_visit_fraction: 0.0,
            seed,
            ..HospitalConfig::default()
        }),
        "bom" => generate_bom(&BomConfig {
            products: 8 + 600 * k,
            suppliers: 3,
            max_assembly_depth: 4,
            parts_per_assembly: 3,
            domestic_fraction: 0.5,
            recursion_probability: 0.0,
            skew: 0.0,
            seed,
        }),
        "logs" => generate_logs(&LogsConfig {
            shards: 3,
            entries_per_shard: 30 + 600 * k,
            error_fraction: 0.3,
            ctx_per_entry: 0,
            keys_per_ctx: 3,
            seed,
        }),
        _ => generate_social(&SocialConfig {
            members: 6 + 90 * k,
            friend_depth: 3,
            friends_per_member: 2,
            posts_per_member: 2,
            banned_fraction: 0.0,
            private_fraction: 0.3,
            seed,
        }),
    }
}

/// A tombstone-free copy of the subtree of `src` rooted at `node`.
fn copy_subtree(src: &XmlTree, node: NodeId) -> XmlTree {
    let mut b = XmlTreeBuilder::new();
    let root = b.root(src.label_name(node));
    let mut stack = vec![(node, root)];
    while let Some((from, to)) = stack.pop() {
        if let Some(text) = src.text(from) {
            b.set_text(to, text);
        }
        for &c in src.children(from) {
            let copy = b.child(to, src.label_name(c));
            stack.push((c, copy));
        }
    }
    b.finish()
}

fn labels_of(tree: &XmlTree) -> BTreeSet<String> {
    tree.node_ids()
        .filter(|&n| tree.is_live(n))
        .map(|n| tree.label_name(n).to_string())
        .collect()
}

/// Donor subtrees by (parent label, own label): splicing one under a node
/// of the parent label keeps the document conforming to its DTD.
struct Donors {
    tree: XmlTree,
    by_parent: HashMap<String, Vec<NodeId>>,
    by_edge: HashMap<(String, String), Vec<NodeId>>,
}

impl Donors {
    fn new(tree: XmlTree) -> Donors {
        let mut by_parent: HashMap<String, Vec<NodeId>> = HashMap::new();
        let mut by_edge: HashMap<(String, String), Vec<NodeId>> = HashMap::new();
        for n in tree.node_ids() {
            // Keep payloads small: subtrees of at most 60 nodes.
            let Some(p) = tree.parent(n) else { continue };
            if tree.subtree_size(n) > 60 {
                continue;
            }
            let (pl, l) = (
                tree.label_name(p).to_string(),
                tree.label_name(n).to_string(),
            );
            by_parent.entry(pl.clone()).or_default().push(n);
            by_edge.entry((pl, l)).or_default().push(n);
        }
        Donors {
            tree,
            by_parent,
            by_edge,
        }
    }
}

/// One seeded edit of 1–3 ops against `tree`, applied to it as the server
/// will apply it. A chain's first edit splices in a label the base lacks
/// when the donors have one.
fn make_edit(
    rng: &mut Rng,
    tree: &mut XmlTree,
    donors: &Donors,
    missing: &BTreeSet<String>,
    first: bool,
) -> Vec<WireEditOp> {
    let mut wire = Vec::new();
    let n_ops = 1 + rng.below(3);
    while wire.len() < n_ops {
        let live: Vec<NodeId> = tree.node_ids().filter(|&n| tree.is_live(n)).collect();
        let kind = if first && wire.is_empty() {
            0
        } else {
            rng.below(4)
        };
        let (op, wire_op) = match kind {
            0 | 1 => {
                let hosts: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|&n| donors.by_parent.contains_key(tree.label_name(n)))
                    .collect();
                let Some(&parent) = hosts.get(rng.below(hosts.len().max(1))) else {
                    continue;
                };
                let mut candidates = donors.by_parent[tree.label_name(parent)].clone();
                if first && wire.is_empty() {
                    let fresh: Vec<NodeId> = candidates
                        .iter()
                        .copied()
                        .filter(|&d| {
                            labels_of(&copy_subtree(&donors.tree, d))
                                .iter()
                                .any(|l| missing.contains(l))
                        })
                        .collect();
                    if !fresh.is_empty() {
                        candidates = fresh;
                    }
                }
                let donor = *rng.pick(&candidates);
                let bytes = snapshot::save(&copy_subtree(&donors.tree, donor));
                let position = rng.below(tree.children(parent).len() + 1);
                (
                    EditOp::Insert {
                        parent,
                        position,
                        subtree: snapshot::load(&bytes).expect("saved subtrees load"),
                    },
                    WireEditOp::Insert {
                        parent: parent.0,
                        position: position as u32,
                        snapshot: bytes,
                    },
                )
            }
            2 => {
                // Delete something below the top two levels.
                let deep: Vec<NodeId> = live
                    .iter()
                    .copied()
                    .filter(|&n| tree.depth(n) >= 2)
                    .collect();
                let Some(&node) = deep.get(rng.below(deep.len().max(1))) else {
                    continue;
                };
                (EditOp::Delete { node }, WireEditOp::Delete { node: node.0 })
            }
            _ => {
                let node = live[rng.below(live.len())];
                let Some(parent) = tree.parent(node) else {
                    continue;
                };
                let key = (
                    tree.label_name(parent).to_string(),
                    tree.label_name(node).to_string(),
                );
                let Some(candidates) = donors.by_edge.get(&key) else {
                    continue;
                };
                let bytes = snapshot::save(&copy_subtree(&donors.tree, *rng.pick(candidates)));
                (
                    EditOp::Replace {
                        node,
                        subtree: snapshot::load(&bytes).expect("saved subtrees load"),
                    },
                    WireEditOp::Replace {
                        node: node.0,
                        snapshot: bytes,
                    },
                )
            }
        };
        tree.apply(&op).expect("generated edits apply");
        wire.push(wire_op);
    }
    wire
}

struct IngestEdit {
    tenants: Vec<Tenant>,
    server: Server,
    wire: Wire,
    twin: Option<Twin>,
    /// Client-side services for the streamed queries, one per view.
    streams: Vec<QueryService>,
}

/// Set-up: start the server, register every view and base document over
/// the wire, warm the compiled-query caches, and build the client-side
/// stream services.
fn set_up(tenants: &mut [Tenant]) -> (Server, Wire, Vec<QueryService>) {
    let server = Server::spawn(
        "127.0.0.1:0",
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            service: service_config(),
        },
    )
    .expect("loopback server starts");
    let mut wire = Wire::connect(server.addr());
    let mut cx = Cx::new(false);
    let mut streams = Vec::new();
    for t in tenants.iter_mut() {
        let (document_dtd, view_dtd, annotations) = view_to_wire(&t.domain.view);
        let req = Request::RegisterView {
            tenant: t.name.into(),
            document_dtd,
            view_dtd,
            annotations,
        };
        wire.call(&req, &mut cx).expect("views register");
        let bytes = snapshot::save(&parse_document(&t.xml).expect("generated XML parses"));
        let req = Request::RegisterDocument {
            tenant: t.name.into(),
            snapshot: bytes,
        };
        match wire.call(&req, &mut cx).map(|ex| ex.resp) {
            Ok(Response::DocumentRegistered { doc }) => t.current = doc,
            other => panic!("base registration failed: {:?}", other.err()),
        }
        let stream = QueryService::with_config(t.domain.view.clone(), service_config())
            .expect("views check");
        for q in &t.domain.view_queries[..HOT] {
            let req = Request::Query {
                tenant: t.name.into(),
                doc: t.current,
                mode: EvaluationMode::HyPE,
                query: (*q).into(),
            };
            wire.call(&req, &mut cx).expect("hot queries answer");
            stream.compile(q).expect("hot queries compile");
        }
        streams.push(stream);
    }
    (server, wire, streams)
}

impl IngestEdit {
    fn expected(&self, t: usize, chain: usize, step: usize, q: usize) -> &Answer {
        let tenant = &self.tenants[t];
        if step == 0 {
            &tenant.base_expected[q]
        } else {
            &tenant.chains[chain].expected[step - 1][q]
        }
    }

    fn register(&mut self, t: usize, cx: &mut Cx) -> Result<f64, String> {
        let start = Instant::now();
        let root = cx.tr.enter("bench.op");
        let xml = &self.tenants[t].xml;
        let span = cx.tr.enter("smoqe_xml.parse");
        let (tree, parse_ms) = timed_ms(|| parse_document(xml));
        cx.tr.exit(span);
        let tree = tree.map_err(|e| e.to_string())?;
        let span = cx.tr.enter("smoqe_xml.snapshot_save");
        let (bytes, save_ms) = timed_ms(|| snapshot::save(&tree));
        cx.tr.exit(span);
        let req = Request::RegisterDocument {
            tenant: self.tenants[t].name.into(),
            snapshot: bytes,
        };
        let ex = self.wire.call(&req, cx)?;
        cx.tr.exit(root);
        let latency = start.elapsed().as_secs_f64() * 1e3;
        let Response::DocumentRegistered { doc } = ex.resp else {
            return Err(format!("unexpected response {:?}", ex.resp));
        };
        if let Some(twin) = &mut self.twin {
            cx.s.add("xml.parse", parse_ms);
            cx.s.add("xml.parse_bytes", xml.len() as f64);
            cx.s.add("xml.save", save_ms);
            // The tokenizer alone over the same bytes, and the snapshot
            // load the server does on the bytes it was sent.
            let (events, ms) = timed_ms(|| {
                let mut reader = XmlStreamReader::new(xml.as_bytes());
                let mut events = 0u64;
                while let Ok(Some(_)) = reader.next_event() {
                    events += 1;
                }
                events
            });
            std::hint::black_box(events);
            cx.s.add("xml.tokenize", ms);
            cx.s.add("xml.tokenize_bytes", xml.len() as f64);
            if let Request::RegisterDocument {
                snapshot: bytes, ..
            } = &req
            {
                let (_, ms) = timed_ms(|| snapshot::load(bytes));
                cx.s.add("xml.load", ms);
            }
            twin.measure(&req, &ex, cx);
        }
        self.tenants[t].current = doc;
        Ok(latency)
    }

    fn stream(&mut self, t: usize, q: usize, cx: &mut Cx) -> Result<f64, String> {
        let tenant = &self.tenants[t];
        let text = tenant.domain.view_queries[q];
        let svc = &self.streams[t];
        let start = Instant::now();
        let result = if cx.traced() {
            let root = cx.tr.enter("bench.op");
            let span = cx.tr.enter("smoqe.compile");
            let c = svc.compile(text).map_err(|e| e.to_string())?;
            cx.tr.exit(span);
            let span = cx.tr.enter("smoqe_hype.stream");
            let r = c
                .evaluate_stream(tenant.xml.as_bytes())
                .map_err(|e| e.to_string())?;
            cx.tr.exit(span);
            cx.tr.exit(root);
            r
        } else {
            svc.answer_stream(text, tenant.xml.as_bytes())
                .map_err(|e| e.to_string())?
        };
        let latency = start.elapsed().as_secs_f64() * 1e3;
        if !same(&result.0.answers, &tenant.stream_expected[q]) {
            return Err(format!("stream `{text}`: wrong answer"));
        }
        if cx.traced() {
            let twin = cx.tr.enter("twin.wrapper");
            let wrapped = svc
                .answer_stream(text, tenant.xml.as_bytes())
                .map_err(|e| e.to_string())?;
            cx.tr.exit(twin);
            if wrapped.0 != result.0 {
                return Err(format!(
                    "stream `{text}`: traced path differs from the wrapper"
                ));
            }
            cx.s.add("hype.nodes_visited", result.0.stats.nodes_visited as f64);
            cx.s.add("hype.afa_values", result.0.stats.afa_values_computed as f64);
        }
        Ok(latency)
    }
}

impl Workload for IngestEdit {
    type Op = Op;

    fn next_cycle(&mut self, rng: &mut Rng) -> Vec<Op> {
        // Each tenant's chain in order; tenants interleaved at random.
        let mut lanes: Vec<Vec<Op>> = (0..self.tenants.len())
            .map(|t| {
                let chain = rng.below(CHAINS);
                let mut lane = vec![Op::Register { t }];
                for step in 0..=CHAIN_LEN {
                    if step > 0 {
                        lane.push(Op::Edit { t, chain, step });
                    }
                    for q in rng.sample(HOT, REQUERIES) {
                        lane.push(Op::Requery {
                            t,
                            chain,
                            step,
                            q,
                            mode: *rng.pick(&MODES),
                        });
                    }
                }
                lane.push(Op::Stream {
                    t,
                    q: rng.below(HOT),
                });
                lane.reverse();
                lane
            })
            .collect();
        let mut ops = Vec::new();
        while lanes.iter().any(|l| !l.is_empty()) {
            let open: Vec<usize> = (0..lanes.len()).filter(|&i| !lanes[i].is_empty()).collect();
            let lane = *rng.pick(&open);
            ops.push(lanes[lane].pop().expect("lane is open"));
        }
        ops
    }

    fn run(&mut self, op: &Op, cx: &mut Cx) -> Result<f64, String> {
        match *op {
            Op::Register { t } => self.register(t, cx),
            Op::Stream { t, q } => self.stream(t, q, cx),
            Op::Edit { t, chain, step } => {
                let tenant = &self.tenants[t];
                let req = Request::ApplyEdit {
                    tenant: tenant.name.into(),
                    doc: tenant.current,
                    ops: tenant.chains[chain].edits[step - 1].clone(),
                };
                let root = cx.tr.enter("bench.op");
                let ex = self.wire.call(&req, cx)?;
                cx.tr.exit(root);
                let Response::EditApplied { new_doc, .. } = ex.resp else {
                    return Err(format!("unexpected response {:?}", ex.resp));
                };
                self.tenants[t].current = new_doc;
                if let Some(twin) = &mut self.twin {
                    twin.measure(&req, &ex, cx);
                }
                Ok(ex.latency_ms)
            }
            Op::Requery {
                t,
                chain,
                step,
                q,
                mode,
            } => {
                let tenant = &self.tenants[t];
                let text = tenant.domain.view_queries[q];
                let req = Request::Query {
                    tenant: tenant.name.into(),
                    doc: tenant.current,
                    mode,
                    query: text.into(),
                };
                let root = cx.tr.enter("bench.op");
                let ex = self.wire.call(&req, cx)?;
                cx.tr.exit(root);
                let Response::Answer(r) = &ex.resp else {
                    return Err(format!("unexpected response {:?}", ex.resp));
                };
                check(text, r, self.expected(t, chain, step, q))?;
                if cx.traced() {
                    sample_wire_results(cx, std::slice::from_ref(r), None);
                }
                if let Some(twin) = &mut self.twin {
                    twin.measure(&req, &ex, cx);
                }
                Ok(ex.latency_ms)
            }
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for t in &self.tenants {
            if let Some(entry) = self.server.registry().get(t.name) {
                c.add(&entry.service.stats());
            }
        }
        for s in &self.streams {
            c.add(&s.stats());
        }
        c
    }
}

pub fn run(cfg: &Config, announce: &mut dyn FnMut(&Header)) -> Outcome {
    let mut header = wire_header(CYCLES_PER_WINDOW);
    let rng = Rng::new(cfg.seed);
    let mut doc_rng = rng.fork(1);
    let mut edit_rng = rng.fork(4);
    let mut tenants = Vec::new();
    for domain in all_domains() {
        let base = base_document(domain.name, cfg.scale, doc_rng.next_u64());
        let xml = smoqe_xml::to_xml_string(&base);
        header
            .docs
            .insert(domain.name.to_string(), (base.len(), xml.len()));
        let hot = &domain.view_queries[..HOT];
        // The server's base: exactly the bytes a registration sends.
        let registered = snapshot::load(&snapshot::save(
            &parse_document(&xml).expect("generated XML parses"),
        ))
        .expect("snapshots load");
        let oracle = Oracle::new(&domain.view, &registered);
        let base_expected = hot.iter().map(|q| oracle.answer(q)).collect();
        let streamed = Oracle::new(&domain.view, &parse_document(&xml).expect("parses"));
        let stream_expected = hot.iter().map(|q| streamed.answer(q)).collect();

        let donors = Donors::new(domain.generate(DocShape::Standard, 4, doc_rng.next_u64()));
        let missing: BTreeSet<String> = labels_of(&donors.tree)
            .difference(&labels_of(&registered))
            .cloned()
            .collect();
        let chains = (0..CHAINS)
            .map(|_| {
                let mut version = registered.clone();
                let mut edits = Vec::new();
                let mut expected = Vec::new();
                for step in 0..CHAIN_LEN {
                    edits.push(make_edit(
                        &mut edit_rng,
                        &mut version,
                        &donors,
                        &missing,
                        step == 0,
                    ));
                    let oracle = Oracle::new(&domain.view, &version);
                    expected.push(hot.iter().map(|q| oracle.answer(q)).collect());
                }
                Chain { edits, expected }
            })
            .collect();
        tenants.push(Tenant {
            name: domain.name,
            domain,
            xml,
            base_expected,
            stream_expected,
            chains,
            current: 0,
        });
    }
    announce(&header);

    let ((server, wire, streams), setup_s) =
        time_set_ups(cfg.setup_rounds, cfg.setups_per_round, || {
            set_up(&mut tenants)
        });

    let twin = cfg.trace.then(|| {
        let twin = Twin::new(service_config());
        for t in &tenants {
            twin.registry
                .register_view(t.name, t.domain.view.clone())
                .expect("views check");
            let bytes = snapshot::save(&parse_document(&t.xml).expect("parses"));
            twin.apply(&Request::RegisterDocument {
                tenant: t.name.into(),
                snapshot: bytes,
            });
            for q in &t.domain.view_queries[..HOT] {
                twin.apply(&Request::Query {
                    tenant: t.name.into(),
                    doc: t.current,
                    mode: EvaluationMode::HyPE,
                    query: (*q).into(),
                });
            }
        }
        twin
    });

    let mut w = IngestEdit {
        tenants,
        server,
        wire,
        twin,
        streams,
    };
    let mut cx = Cx::new(cfg.trace);
    let mut op_rng = rng.fork(2);
    let timed = drive(&mut w, cfg, &mut op_rng, &mut cx);
    Outcome {
        header,
        setup_s,
        timed,
        cx,
    }
}
