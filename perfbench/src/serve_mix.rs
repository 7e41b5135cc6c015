//! `serve_mix`: the per-request path a tenant pays. One closed-loop client
//! connection to a loopback `smoqed` with one worker; four tenants
//! (hospital, bom, logs, social views) over small documents (10³–5·10³
//! nodes) registered at set-up. The mix is about 85 % hot `Query`, 10 %
//! `BatchQuery` of 4–8 hot queries and 5 % fresh query texts that miss the
//! compiled-query cache. Framing, codec, cache lookups and the rewrite +
//! compile on a miss are a larger share here than on large documents; the
//! traced run shows the walk is still most of the handler time.

use std::collections::HashSet;

use smoqe::{EvaluationMode, QueryService, ServiceConfig, SmoqeEngine};
use smoqe_toxgene::{all_domains, DocShape, Domain};
use smoqe_xml::snapshot;
use smoqed::protocol::view_to_wire;
use smoqed::{Request, Response, Server, ServerConfig};

use crate::harness::{
    drive, time_set_ups, wire_header, Config, Counters, Cx, Header, Outcome, Scale, Workload,
};
use crate::oracle::{Answer, Oracle};
use crate::rng::Rng;
use crate::wire::{check, sample_wire_results, Twin, Wire};

const MODES: [EvaluationMode; 3] = [
    EvaluationMode::HyPE,
    EvaluationMode::OptHyPE,
    EvaluationMode::OptHyPEC,
];

/// Per cycle: every hot query once as a `Query`, plus these many batches
/// and fresh queries (≈ 85 / 10 / 5 % of the 52 hot queries).
const BATCHES_PER_CYCLE: usize = 6;
const FRESH_PER_CYCLE: usize = 3;

/// Cycles per window of the end-to-end metrics (a cycle takes about
/// 0.07 s).
const CYCLES_PER_WINDOW: usize = 10;

/// Fresh query texts per run, 512 per tenant. The cycles take them
/// round-robin, so a text comes back only after the tenant's 511 others,
/// by which time its compiled query (a cache of 128 per tenant, in 8 LRU
/// segments) and its indexes (64) are evicted: every fresh query is a
/// compile miss, and the pool, not the run's speed, fixes how much the
/// service holds.
const FRESH_POOL: usize = 2048;

struct Tenant {
    name: &'static str,
    domain: Domain,
    /// (snapshot bytes, expected answers per hot query)
    docs: Vec<(Vec<u8>, Vec<Answer>)>,
    doc_ids: Vec<u64>,
}

/// A query text outside the hot set, with its document and answer.
struct Fresh {
    t: usize,
    d: usize,
    text: String,
    expected: Answer,
}

#[derive(Debug, Clone)]
pub enum Op {
    Query {
        t: usize,
        d: usize,
        q: usize,
        mode: EvaluationMode,
    },
    Batch {
        t: usize,
        d: usize,
        qs: Vec<usize>,
        mode: EvaluationMode,
    },
    Fresh {
        i: usize,
        mode: EvaluationMode,
    },
}

fn service_config() -> ServiceConfig {
    ServiceConfig {
        parallel_threads: 1,
        ..ServiceConfig::default()
    }
}

struct ServeMix {
    tenants: Vec<Tenant>,
    fresh: Vec<Fresh>,
    next_fresh: usize,
    cycle: usize,
    server: Server,
    wire: Wire,
    twin: Option<Twin>,
}

/// Document scales giving 10³–5·10³ nodes per document.
fn scales(domain: &str, scale: Scale) -> [usize; 2] {
    let s = match domain {
        "hospital" => [1, 1],
        "bom" => [2, 1],
        _ => [4, 2],
    };
    if scale == Scale::Full {
        s
    } else {
        [1, 1]
    }
}

/// A seeded query over the view DTD's labels. `form` fixes its shape
/// (length and outer construct), so the mix of shapes is the same for
/// every seed.
fn fresh_query(rng: &mut Rng, labels: &[&str], form: usize) -> String {
    let label = |rng: &mut Rng| -> String { (*rng.pick(labels)).to_string() };
    let step = |rng: &mut Rng| -> String {
        let a = label(rng);
        match rng.below(5) {
            0 => format!("{a}[{}]", label(rng)),
            1 => format!("{a}[not({})]", label(rng)),
            2 => format!("{a}[{}/{}]", label(rng), label(rng)),
            _ => a,
        }
    };
    let len = 1 + form % 3;
    let mut q = step(rng);
    for _ in 1..len {
        let sep = if rng.below(4) == 0 { "//" } else { "/" };
        q = format!("{q}{sep}{}", step(rng));
    }
    match (form / 3) % 5 {
        0 => format!("//{q}"),
        1 => format!("({}/{})*/{q}", label(rng), label(rng)),
        2 => format!("{q}/({} | {})", label(rng), label(rng)),
        _ => q,
    }
}

/// Draws `n` fresh queries: each parses, rewrites, and normalizes to a
/// text no hot query or earlier fresh query has.
fn fresh_pool(rng: &mut Rng, tenants: &[Tenant], oracles: &[Vec<Oracle>], n: usize) -> Vec<Fresh> {
    let engines: Vec<SmoqeEngine> = tenants
        .iter()
        .map(|t| SmoqeEngine::new(t.domain.view.clone()).expect("views check"))
        .collect();
    let mut seen: HashSet<String> = tenants
        .iter()
        .flat_map(|t| t.domain.view_queries.iter())
        .map(|q| QueryService::normalized_text(q).expect("hot queries parse"))
        .collect();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let t = out.len() % tenants.len();
        let labels = tenants[t].domain.view.view_dtd().element_types();
        let text = fresh_query(rng, &labels, out.len() / tenants.len());
        let Ok(key) = QueryService::normalized_text(&text) else {
            continue;
        };
        if !seen.insert(key) || engines[t].compile(&text).is_err() {
            continue;
        }
        let d = rng.below(tenants[t].docs.len());
        let expected = oracles[t][d].answer(&text);
        out.push(Fresh {
            t,
            d,
            text,
            expected,
        });
    }
    out
}

/// Set-up: start the server, register every view and document over the
/// wire, and warm the compiled-query cache with every hot query.
fn set_up(tenants: &mut [Tenant]) -> (Server, Wire) {
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
    let mut call = |req: Request| wire.call(&req, &mut cx).map(|ex| ex.resp);
    for t in tenants.iter_mut() {
        let (document_dtd, view_dtd, annotations) = view_to_wire(&t.domain.view);
        call(Request::RegisterView {
            tenant: t.name.into(),
            document_dtd,
            view_dtd,
            annotations,
        })
        .expect("views register");
        t.doc_ids.clear();
        for (bytes, _) in &t.docs {
            match call(Request::RegisterDocument {
                tenant: t.name.into(),
                snapshot: bytes.clone(),
            }) {
                Ok(Response::DocumentRegistered { doc }) => t.doc_ids.push(doc),
                other => panic!("document registration failed: {:?}", other.err()),
            }
        }
        for q in t.domain.view_queries {
            call(Request::Query {
                tenant: t.name.into(),
                doc: t.doc_ids[0],
                mode: EvaluationMode::HyPE,
                query: (*q).into(),
            })
            .expect("hot queries answer");
        }
    }
    (server, wire)
}

impl ServeMix {
    fn request(&self, op: &Op) -> Request {
        match op {
            Op::Query { t, d, q, mode } => Request::Query {
                tenant: self.tenants[*t].name.into(),
                doc: self.tenants[*t].doc_ids[*d],
                mode: *mode,
                query: self.tenants[*t].domain.view_queries[*q].into(),
            },
            Op::Batch { t, d, qs, mode } => Request::BatchQuery {
                tenant: self.tenants[*t].name.into(),
                doc: self.tenants[*t].doc_ids[*d],
                mode: *mode,
                queries: qs
                    .iter()
                    .map(|&q| self.tenants[*t].domain.view_queries[q].to_string())
                    .collect(),
            },
            Op::Fresh { i, mode } => {
                let f = &self.fresh[*i];
                Request::Query {
                    tenant: self.tenants[f.t].name.into(),
                    doc: self.tenants[f.t].doc_ids[f.d],
                    mode: *mode,
                    query: f.text.clone(),
                }
            }
        }
    }
}

impl Workload for ServeMix {
    type Op = Op;

    fn next_cycle(&mut self, rng: &mut Rng) -> Vec<Op> {
        // Documents, modes and batch sizes rotate with the cycle index, so
        // every seed measures the same mix; the seed picks the batch
        // members and the fresh queries, and orders the operations.
        let c = self.cycle;
        self.cycle += 1;
        let mut ops = Vec::new();
        for (t, tenant) in self.tenants.iter().enumerate() {
            for q in 0..tenant.domain.view_queries.len() {
                let d = (q + c) % tenant.docs.len();
                ops.push(Op::Query {
                    t,
                    d,
                    q,
                    mode: MODES[(q + t + c) % MODES.len()],
                });
            }
        }
        for i in 0..BATCHES_PER_CYCLE {
            let t = (c + i) % self.tenants.len();
            let n = self.tenants[t].domain.view_queries.len();
            let qs = rng.sample(n, 4 + (c + i) % 5);
            let d = (c + i) % self.tenants[t].docs.len();
            ops.push(Op::Batch {
                t,
                d,
                qs,
                mode: MODES[(c + i) % MODES.len()],
            });
        }
        for _ in 0..FRESH_PER_CYCLE {
            let i = self.next_fresh % self.fresh.len();
            ops.push(Op::Fresh {
                i,
                mode: MODES[i % MODES.len()],
            });
            self.next_fresh += 1;
        }
        rng.shuffle(&mut ops);
        ops
    }

    /// Every fresh query once, then one regular cycle: the service's
    /// caches fill before the timed phase, so what the process holds
    /// while serving does not depend on how many cycles the run fits.
    fn warm_up(&mut self, rng: &mut Rng) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..self.fresh.len())
            .map(|i| Op::Fresh {
                i,
                mode: MODES[i % MODES.len()],
            })
            .collect();
        ops.extend(self.next_cycle(rng));
        ops
    }

    fn run(&mut self, op: &Op, cx: &mut Cx) -> Result<f64, String> {
        let req = self.request(op);
        let root = cx.tr.enter("bench.op");
        let ex = self.wire.call(&req, cx)?;
        cx.tr.exit(root);
        match (op, &ex.resp) {
            (Op::Query { t, d, q, .. }, Response::Answer(r)) => {
                let tenant = &self.tenants[*t];
                check(tenant.domain.view_queries[*q], r, &tenant.docs[*d].1[*q])?;
                if cx.traced() {
                    sample_wire_results(cx, std::slice::from_ref(r), None);
                }
            }
            (Op::Fresh { i, .. }, Response::Answer(r)) => {
                check(&self.fresh[*i].text, r, &self.fresh[*i].expected)?;
                if cx.traced() {
                    sample_wire_results(cx, std::slice::from_ref(r), None);
                }
            }
            (Op::Batch { t, d, qs, .. }, Response::BatchAnswer { results, stats }) => {
                let tenant = &self.tenants[*t];
                if results.len() != qs.len() {
                    return Err(format!("batch of {} answered {}", qs.len(), results.len()));
                }
                for (&q, r) in qs.iter().zip(results) {
                    check(tenant.domain.view_queries[q], r, &tenant.docs[*d].1[q])?;
                }
                if cx.traced() {
                    sample_wire_results(cx, results, Some(stats.nodes_visited));
                }
            }
            (_, other) => return Err(format!("unexpected response {other:?}")),
        }
        if let Some(twin) = &mut self.twin {
            twin.measure(&req, &ex, cx);
        }
        Ok(ex.latency_ms)
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for t in &self.tenants {
            if let Some(entry) = self.server.registry().get(t.name) {
                c.add(&entry.service.stats());
            }
        }
        c
    }
}

pub fn run(cfg: &Config, announce: &mut dyn FnMut(&Header)) -> Outcome {
    let mut header = wire_header(CYCLES_PER_WINDOW);
    let rng = Rng::new(cfg.seed);
    let mut doc_rng = rng.fork(1);
    let mut tenants = Vec::new();
    let mut oracles = Vec::new();
    for domain in all_domains() {
        let mut docs = Vec::new();
        let mut doc_oracles = Vec::new();
        for (d, s) in scales(domain.name, cfg.scale).into_iter().enumerate() {
            let tree = domain.generate(DocShape::Standard, s, doc_rng.next_u64());
            let xml = smoqe_xml::to_xml_string(&tree).len();
            header
                .docs
                .insert(format!("{}_{d}", domain.name), (tree.len(), xml));
            let oracle = Oracle::new(&domain.view, &tree);
            let expected = domain
                .view_queries
                .iter()
                .map(|q| oracle.answer(q))
                .collect();
            docs.push((snapshot::save(&tree), expected));
            doc_oracles.push(oracle);
        }
        tenants.push(Tenant {
            name: domain.name,
            domain,
            docs,
            doc_ids: Vec::new(),
        });
        oracles.push(doc_oracles);
    }
    announce(&header);

    let ((server, wire), setup_s) = time_set_ups(cfg.setup_rounds, cfg.setups_per_round, || {
        set_up(&mut tenants)
    });

    let mut fresh_rng = rng.fork(3);
    let fresh = fresh_pool(&mut fresh_rng, &tenants, &oracles, FRESH_POOL);
    drop(oracles);

    let twin = cfg.trace.then(|| {
        let twin = Twin::new(service_config());
        for t in &tenants {
            twin.registry
                .register_view(t.name, t.domain.view.clone())
                .expect("views check");
            for (bytes, _) in &t.docs {
                twin.apply(&Request::RegisterDocument {
                    tenant: t.name.into(),
                    snapshot: bytes.clone(),
                });
            }
            for q in t.domain.view_queries {
                twin.apply(&Request::Query {
                    tenant: t.name.into(),
                    doc: t.doc_ids[0],
                    mode: EvaluationMode::HyPE,
                    query: (*q).into(),
                });
            }
        }
        twin
    });

    let mut w = ServeMix {
        tenants,
        fresh,
        next_fresh: 0,
        cycle: 0,
        server,
        wire,
        twin,
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
