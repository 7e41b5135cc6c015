//! The client side of the `smoqed` workloads: one closed-loop connection
//! speaking the wire protocol through `smoqed`'s public framing and codec
//! calls, and — in traced runs — the in-process twins that split a round
//! trip into handler time, codec time and the engine layers below.

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

use smoqe::{DocId, EvaluationMode};
use smoqe_hype::CompiledBatchQuery;
use smoqed::{
    decode_request, decode_response, encode_request, encode_response, handle_request, read_frame,
    write_frame, Request, Response, ServerCounters, Tenant, TenantRegistry, WireResult,
};

use crate::harness::{timed_ms, Cx};

pub struct Wire {
    stream: TcpStream,
}

impl Wire {
    pub fn connect(addr: std::net::SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("loopback connect");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Wire { stream }
    }

    /// One request/response exchange, its spans under the caller's.
    pub fn call(&mut self, req: &Request, cx: &mut Cx) -> Result<Exchange, String> {
        let start = Instant::now();
        let span = cx.tr.enter("smoqed.encode");
        let (body, encode_ms) = timed_ms(|| encode_request(req));
        cx.tr.exit(span);
        let span = cx.tr.enter("smoqed.roundtrip");
        let rt_start = Instant::now();
        write_frame(&mut self.stream, &body).map_err(|e| format!("write: {e}"))?;
        let reply = read_frame(&mut self.stream)
            .map_err(|e| format!("read: {e}"))?
            .ok_or("server closed the connection")?;
        let rtt_ms = rt_start.elapsed().as_secs_f64() * 1e3;
        cx.tr.exit(span);
        let span = cx.tr.enter("smoqed.decode");
        let (resp, decode_ms) = timed_ms(|| decode_response(&reply));
        cx.tr.exit(span);
        let latency = start.elapsed().as_secs_f64() * 1e3;
        let resp = resp.map_err(|e| format!("decode: {e}"))?;
        if cx.traced() {
            cx.s.add("wire.rtt", rtt_ms);
            // Frames carry a 4-byte length prefix each way.
            cx.s.add("wire.bytes", (body.len() + reply.len() + 8) as f64);
        }
        match resp {
            Response::Error { code, message } => Err(format!("{code:?}: {message}")),
            Response::Busy { .. } => Err("refused: server busy".into()),
            resp => Ok(Exchange {
                resp,
                latency_ms: latency,
                body,
                client_codec_us: (encode_ms + decode_ms) * 1e3,
            }),
        }
    }
}

/// One answered request.
pub struct Exchange {
    pub resp: Response,
    pub latency_ms: f64,
    /// The encoded request, which the traced twins decode again.
    pub body: Vec<u8>,
    /// Client-side encode + decode time, in microseconds.
    pub client_codec_us: f64,
}

/// A registry set up exactly like the server's and fed the same requests,
/// so `handle_request` can be timed in process beside each round trip.
pub struct Twin {
    pub registry: TenantRegistry,
    counters: ServerCounters,
}

/// The crates the handler time of one request is split into, besides
/// `smoqe` (service and store), which gets what is left.
const HANDLER_LAYERS: [&str; 5] = [
    "smoqe_xml",
    "smoqe_xpath",
    "smoqe_rewrite",
    "smoqe_automata",
    "smoqe_hype",
];

/// Sample names of the handler time attributed to each layer.
pub const ATTRIBUTED: [(&str, &str); 6] = [
    ("smoqe", "attr.smoqe"),
    ("smoqe_xml", "attr.smoqe_xml"),
    ("smoqe_xpath", "attr.smoqe_xpath"),
    ("smoqe_rewrite", "attr.smoqe_rewrite"),
    ("smoqe_automata", "attr.smoqe_automata"),
    ("smoqe_hype", "attr.smoqe_hype"),
];

impl Twin {
    pub fn new(config: smoqe::ServiceConfig) -> Twin {
        Twin {
            registry: TenantRegistry::new(config),
            counters: ServerCounters::default(),
        }
    }

    /// Feeds `req` to the twin registry untimed (set-up).
    pub fn apply(&self, req: &Request) -> Response {
        handle_request(&self.registry, &self.counters, req)
    }

    /// Times `handle_request` and the server-side codec for one request,
    /// then splits the handler time by crate: the snapshot load of a
    /// registration, the compile pipeline's stages when the handler
    /// compiled, the index builds when it missed its index cache, and the
    /// walk. `smoqe` (service and store) gets what is left. The stages run
    /// again on their own to be timed; when they add up to more than the
    /// handler took, they are scaled down to it.
    pub fn measure(&mut self, req: &Request, ex: &Exchange, cx: &mut Cx) {
        let twin = cx.tr.enter("twin.handler");
        let tenant = match req {
            Request::Query { tenant, .. }
            | Request::BatchQuery { tenant, .. }
            | Request::RegisterDocument { tenant, .. }
            | Request::ApplyEdit { tenant, .. } => self.registry.get(tenant),
            _ => None,
        };
        let before = tenant.as_ref().map(|t| t.service.stats());
        let (decoded, decode_ms) = timed_ms(|| decode_request(&ex.body));
        let decoded = decoded.expect("the twin decodes what the client encoded");
        let (resp, handler_ms) =
            timed_ms(|| handle_request(&self.registry, &self.counters, &decoded));
        let (_, encode_ms) = timed_ms(|| encode_response(&resp));
        cx.tr.exit(twin);
        cx.s.add("wire.handler", handler_ms);
        cx.s.add(
            "wire.codec",
            ex.client_codec_us + (decode_ms + encode_ms) * 1e3,
        );
        // Milliseconds of the handler per HANDLER_LAYERS entry.
        let mut stages = [0.0; HANDLER_LAYERS.len()];
        match req {
            Request::RegisterDocument { snapshot, .. } => {
                cx.s.add("store.insert", handler_ms);
                cx.s.add("xml.version_bytes", snapshot.len() as f64);
                let (_, ms) = timed_ms(|| smoqe_xml::snapshot::load(snapshot));
                stages[0] = ms;
            }
            Request::ApplyEdit { tenant, .. } => {
                cx.s.add("store.apply_edit", handler_ms);
                if let (Response::EditApplied { new_doc, .. }, Some(t)) =
                    (&resp, self.registry.get(tenant))
                {
                    if let Some(doc) = t.store.get(DocId(*new_doc)) {
                        cx.s.add("xml.version_bytes", doc.snapshot_bytes().len() as f64);
                    }
                }
            }
            _ => {}
        }
        if let (Some(tenant), Some(before)) = (tenant, before) {
            let span = cx.tr.enter("twin.decomposed");
            Self::decompose(req, &tenant, &before, cx, &mut stages);
            cx.tr.exit(span);
        }
        let staged: f64 = stages.iter().sum();
        let scale = if staged > handler_ms {
            handler_ms / staged
        } else {
            1.0
        };
        cx.s.add("attr.smoqe", handler_ms - staged * scale);
        for (layer, ms) in HANDLER_LAYERS.iter().zip(stages) {
            let name = ATTRIBUTED
                .iter()
                .find(|(l, _)| l == layer)
                .map(|(_, n)| *n)
                .expect("every handler layer has a sample name");
            cx.s.add(name, ms * scale);
        }
    }

    /// The handler's work for a query, through the public calls it makes:
    /// compile stages (when it compiled), index builds (when it missed),
    /// then the walk or the one-pass batch.
    fn decompose(
        req: &Request,
        tenant: &Tenant,
        before: &smoqe::ServiceStats,
        cx: &mut Cx,
        stages: &mut [f64; HANDLER_LAYERS.len()],
    ) {
        let (doc, mode, queries): (u64, EvaluationMode, Vec<&str>) = match req {
            Request::Query {
                doc, mode, query, ..
            } => (*doc, *mode, vec![query.as_str()]),
            Request::BatchQuery {
                doc, mode, queries, ..
            } => (*doc, *mode, queries.iter().map(String::as_str).collect()),
            _ => return,
        };
        let after = tenant.service.stats();
        if let ([text], true) = (
            queries.as_slice(),
            after.compiled_misses > before.compiled_misses,
        ) {
            // The handler compiled a query it did not hold: time the
            // compile pipeline's stages on their own.
            let (normalized, ms) = timed_ms(|| {
                smoqe_xpath::normalize(
                    &smoqe_xpath::parse_path(text).expect("served queries parse"),
                )
            });
            cx.s.add("xpath.normalize", ms * 1e3);
            stages[1] = ms;
            let (mfa, ms) =
                timed_ms(|| smoqe_rewrite::rewrite_to_mfa(&normalized, tenant.service.view()));
            cx.s.add("rewrite", ms);
            stages[2] = ms;
            let mfa = mfa.expect("served queries rewrite");
            let (_, ms) = timed_ms(|| smoqe_automata::CompiledMfa::new(&mfa));
            cx.s.add("automata.compile", ms);
            stages[3] = ms;
        }
        let Some(stored) = tenant.store.get(DocId(doc)) else {
            return;
        };
        let tree = stored.tree();
        let compressed = match mode {
            EvaluationMode::HyPE => None,
            EvaluationMode::OptHyPE => Some(false),
            EvaluationMode::OptHyPEC => Some(true),
        };
        // Index builds the handler made: the first `missed` of the queries'.
        let mut missed = after.index_misses - before.index_misses;
        let mut compiled = Vec::new();
        let mut indexes = Vec::new();
        for q in &queries {
            let c = tenant.service.compile(q).expect("served queries compile");
            cx.s.add("automata.mfa_size", c.mfa().stats().size() as f64);
            let index = compressed.map(|compressed| {
                let (i, ms) = timed_ms(|| {
                    Arc::new(c.build_index(tenant.service.view().document_dtd(), tree, compressed))
                });
                if missed > 0 {
                    missed -= 1;
                    cx.s.add("hype.index_build", ms);
                    stages[4] += ms;
                }
                i
            });
            compiled.push(c);
            indexes.push(index);
        }
        if let [c] = compiled.as_slice() {
            let (r, ms) = timed_ms(|| {
                smoqe_hype::evaluate_compiled_at_with(
                    tree,
                    tree.root(),
                    c.compiled(),
                    indexes[0].as_deref(),
                )
            });
            cx.s.add("hype.walk", ms);
            cx.s.add("hype.walk_nodes", r.stats.nodes_visited as f64);
            stages[4] += ms;
        } else {
            let batch: Vec<CompiledBatchQuery> = compiled
                .iter()
                .zip(&indexes)
                .map(|(c, i)| CompiledBatchQuery {
                    compiled: Arc::clone(c.compiled()),
                    index: i.as_deref(),
                })
                .collect();
            let (_, ms) = timed_ms(|| smoqe_hype::evaluate_batch_compiled(tree, &batch));
            cx.s.add("hype.batch", ms);
            stages[4] += ms;
        }
    }
}

/// Per-result engine counters carried back on the wire.
pub fn sample_wire_results(cx: &mut Cx, results: &[WireResult], physical_visits: Option<u64>) {
    let mut visits = 0;
    for r in results {
        visits += r.stats.nodes_visited;
        cx.s.add("hype.afa_values", r.stats.afa_values_computed as f64);
        cx.s.add("hype.pruned", r.stats.to_stats().pruned_fraction());
    }
    cx.s.add(
        "hype.nodes_visited",
        physical_visits.unwrap_or(visits) as f64,
    );
}

/// Compares a wire answer with the expected one.
pub fn check(what: &str, got: &WireResult, expected: &[u32]) -> Result<(), String> {
    if got.answers == expected {
        Ok(())
    } else {
        Err(format!(
            "{what}: answered {} nodes, expected {}",
            got.answers.len(),
            expected.len()
        ))
    }
}
