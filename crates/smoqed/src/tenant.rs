//! Multi-tenant registry and request dispatch.
//!
//! The paper's access-control model is inherently multi-tenant: every user
//! class gets its own security view σ and may only pose queries *through*
//! σ. The [`TenantRegistry`] makes that structural. Each tenant owns:
//!
//! * a [`QueryService`] built from the tenant's [`ViewDefinition`] — so the
//!   compiled-query and index caches (the `ShardedLru` pair inside the
//!   service) are **per tenant**, and cache statistics are accounted per
//!   tenant;
//! * a [`DocumentStore`] — so document visibility is **tenant-scoped**: a
//!   document id registered by tenant A simply does not exist in tenant
//!   B's store, and B's requests against it fail with `UnknownDocument`.
//!
//! There is deliberately no request field that could name another tenant's
//! view or store; evaluation outside one's σ is unrepresentable, not
//! merely rejected.
//!
//! [`handle_request`] is the pure dispatch function the server loop calls:
//! registry + counters + decoded request in, response out. Keeping it free
//! of any socket state lets the integration suite drive exactly the code
//! path the server runs, without a socket. `Query` and `BatchQuery` resolve
//! the document in the tenant's store and call the service's one tree front
//! end ([`QueryService::evaluate`] is a batch of one), so both shard a
//! document of at least [`SHARD_FLOOR_NODES`](smoqe::service::SHARD_FLOOR_NODES)
//! live nodes over the tenant's [`ServiceConfig::parallel_threads`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use smoqe::{
    DocId, DocumentStore, EngineError, QueryService, ServiceConfig, StoreError, StoredDocument,
};
use smoqe_views::ViewDefinition;
use smoqe_xml::edit::EditOp;
use smoqe_xml::snapshot;

use crate::protocol::{
    ErrorCode, Request, Response, WireBatchStats, WireEditOp, WireResult, WireServiceStats,
    WireStats,
};

/// One tenant: its security view (as a caching [`QueryService`]) and its
/// private document universe.
pub struct Tenant {
    /// The tenant's name (the user class this σ serves).
    pub name: String,
    /// Caching evaluation service built over the tenant's σ.
    pub service: QueryService,
    /// The tenant's private document store.
    pub store: DocumentStore,
}

/// Tenant name → [`Tenant`]. Shared by every server worker behind an
/// `Arc`; reads (the per-request hot path) take the read lock only long
/// enough to clone the tenant's `Arc`.
pub struct TenantRegistry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
    service_config: ServiceConfig,
}

impl TenantRegistry {
    /// An empty registry whose tenants' services use `config`.
    pub fn new(config: ServiceConfig) -> Self {
        TenantRegistry {
            tenants: RwLock::new(HashMap::new()),
            service_config: config,
        }
    }

    /// Registers (or **replaces**) `tenant`'s view. Replacement is
    /// wholesale: a fresh service (empty caches) and a fresh, empty
    /// document store — a new σ means previously cached answers and
    /// previously visible documents are no longer trustworthy for this
    /// user class. Returns the view's fingerprint.
    pub fn register_view(
        &self,
        tenant: &str,
        view: ViewDefinition,
    ) -> Result<u64, EngineError> {
        let fingerprint = view.fingerprint();
        let service = QueryService::with_config(view, self.service_config)?;
        let entry = Arc::new(Tenant {
            name: tenant.to_owned(),
            service,
            store: DocumentStore::new(),
        });
        self.tenants
            .write()
            .expect("tenant registry lock poisoned")
            .insert(tenant.to_owned(), entry);
        Ok(fingerprint)
    }

    /// The named tenant, if registered.
    pub fn get(&self, tenant: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("tenant registry lock poisoned")
            .get(tenant)
            .cloned()
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tenants
            .read()
            .expect("tenant registry lock poisoned")
            .keys()
            .cloned()
            .collect();
        names.sort_unstable();
        names
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants
            .read()
            .expect("tenant registry lock poisoned")
            .len()
    }

    /// Whether no tenant is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Server-wide counters, shared by the accept loop, the workers, and the
/// stats endpoint. All monotonic except `queue_depth`, which tracks the
/// admission queue's current occupancy.
pub struct ServerCounters {
    /// The admission queue's bound (immutable once the server starts).
    pub queue_capacity: u32,
    /// Connections currently waiting in the admission queue.
    pub queue_depth: AtomicU64,
    /// Connections accepted since start (whether admitted or shed).
    pub connections_total: AtomicU64,
    /// Requests answered since start (any response, including errors).
    pub requests_total: AtomicU64,
    /// Connections shed with a `Busy` frame since start.
    pub shed_total: AtomicU64,
    /// Malformed frames or bodies seen since start.
    pub protocol_errors: AtomicU64,
}

impl ServerCounters {
    /// Fresh counters for a queue of the given bound.
    pub fn new(queue_capacity: u32) -> Self {
        ServerCounters {
            queue_capacity,
            queue_depth: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
            requests_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
        }
    }
}

impl Default for ServerCounters {
    fn default() -> Self {
        ServerCounters::new(0)
    }
}

fn err(code: ErrorCode, message: impl Into<String>) -> Response {
    Response::Error {
        code,
        message: message.into(),
    }
}

fn engine_error(e: EngineError) -> Response {
    let code = match &e {
        EngineError::Query(_) => ErrorCode::BadQuery,
        EngineError::View(_) | EngineError::Rewrite(_) => ErrorCode::BadView,
        EngineError::Xml(_) => ErrorCode::BadSnapshot,
        EngineError::UnknownDocument(_) => ErrorCode::UnknownDocument,
    };
    err(code, e.to_string())
}

fn store_error(e: StoreError) -> Response {
    let code = match &e {
        StoreError::UnknownDocument(_) => ErrorCode::UnknownDocument,
        StoreError::Edit(_) => ErrorCode::BadEdit,
        StoreError::Snapshot(_) => ErrorCode::BadSnapshot,
    };
    err(code, e.to_string())
}

fn unknown_tenant(tenant: &str) -> Response {
    err(
        ErrorCode::UnknownTenant,
        format!("tenant {tenant:?} has no registered view"),
    )
}

/// Document `doc` of `tenant`'s store; a miss is the typed
/// [`EngineError::UnknownDocument`].
fn stored(tenant: &Tenant, doc: u64) -> Result<Arc<StoredDocument>, EngineError> {
    let id = DocId(doc);
    tenant.store.get(id).ok_or(EngineError::UnknownDocument(id))
}

/// Converts wire edit ops (subtrees as snapshot bytes) into arena
/// [`EditOp`]s, validating each payload.
fn decode_ops(ops: &[WireEditOp]) -> Result<Vec<EditOp>, Box<Response>> {
    use smoqe_xml::NodeId;
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        out.push(match op {
            WireEditOp::Insert { parent, position, snapshot: bytes } => EditOp::Insert {
                parent: NodeId(*parent),
                position: *position as usize,
                subtree: snapshot::load(bytes)
                    .map_err(|e| Box::new(err(ErrorCode::BadSnapshot, e.to_string())))?,
            },
            WireEditOp::Delete { node } => EditOp::Delete { node: NodeId(*node) },
            WireEditOp::Replace { node, snapshot: bytes } => EditOp::Replace {
                node: NodeId(*node),
                subtree: snapshot::load(bytes)
                    .map_err(|e| Box::new(err(ErrorCode::BadSnapshot, e.to_string())))?,
            },
        });
    }
    Ok(out)
}

/// Builds a [`ViewDefinition`] from the wire form and validates it.
fn build_view(
    document_dtd: &crate::protocol::WireDtd,
    view_dtd: &crate::protocol::WireDtd,
    annotations: &[(String, String, String)],
) -> Result<ViewDefinition, Box<Response>> {
    let mut view = ViewDefinition::new(document_dtd.to_dtd(), view_dtd.to_dtd());
    for (parent, child, query) in annotations {
        view.annotate_str(parent, child, query)
            .map_err(|e| Box::new(err(ErrorCode::BadView, e.to_string())))?;
    }
    view.check()
        .map_err(|e| Box::new(err(ErrorCode::BadView, e.to_string())))?;
    Ok(view)
}

/// Answers one decoded request. Pure with respect to connection state:
/// the server loop, the integration suite, and the loadgen all call this
/// same function (the suite directly, the others through the socket).
pub fn handle_request(
    registry: &TenantRegistry,
    counters: &ServerCounters,
    request: &Request,
) -> Response {
    match request {
        Request::RegisterView { tenant, document_dtd, view_dtd, annotations } => {
            let view = match build_view(document_dtd, view_dtd, annotations) {
                Ok(view) => view,
                Err(resp) => return *resp,
            };
            match registry.register_view(tenant, view) {
                Ok(fingerprint) => Response::ViewRegistered { fingerprint },
                Err(e) => engine_error(e),
            }
        }
        Request::RegisterDocument { tenant, snapshot: bytes } => {
            let Some(entry) = registry.get(tenant) else {
                return unknown_tenant(tenant);
            };
            match entry.store.insert_snapshot(bytes) {
                Ok(doc) => Response::DocumentRegistered { doc: doc.0 },
                Err(e) => err(ErrorCode::BadSnapshot, e.to_string()),
            }
        }
        Request::Query { tenant, doc, mode, query } => {
            let Some(entry) = registry.get(tenant) else {
                return unknown_tenant(tenant);
            };
            let result =
                stored(&entry, *doc).and_then(|d| entry.service.evaluate(query, d.tree(), *mode));
            match result {
                Ok(result) => Response::Answer(WireResult::from_result(&result)),
                Err(e) => engine_error(e),
            }
        }
        Request::BatchQuery { tenant, doc, mode, queries } => {
            let Some(entry) = registry.get(tenant) else {
                return unknown_tenant(tenant);
            };
            let refs: Vec<&str> = queries.iter().map(String::as_str).collect();
            let batch = stored(&entry, *doc)
                .and_then(|d| entry.service.evaluate_batch(&refs, d.tree(), *mode));
            match batch {
                Ok(batch) => Response::BatchAnswer {
                    results: batch.results.iter().map(WireResult::from_result).collect(),
                    stats: WireBatchStats::from_stats(&batch.stats),
                },
                Err(e) => engine_error(e),
            }
        }
        Request::ApplyEdit { tenant, doc, ops } => {
            let Some(entry) = registry.get(tenant) else {
                return unknown_tenant(tenant);
            };
            let ops = match decode_ops(ops) {
                Ok(ops) => ops,
                Err(resp) => return *resp,
            };
            match entry.service.apply_edit(&entry.store, DocId(*doc), &ops) {
                Ok(receipt) => Response::EditApplied {
                    old_doc: receipt.old_id.0,
                    new_doc: receipt.new_id.0,
                    old_fingerprint: receipt.old_fingerprint,
                    new_fingerprint: receipt.new_fingerprint,
                    generation: receipt.generation,
                },
                Err(e) => store_error(e),
            }
        }
        Request::Stats { tenant } => {
            let service = match tenant {
                Some(name) => match registry.get(name) {
                    Some(entry) => Some(WireServiceStats::from_stats(&entry.service.stats())),
                    None => return unknown_tenant(name),
                },
                None => None,
            };
            Response::Stats(WireStats {
                tenants: registry.len() as u32,
                queue_depth: counters.queue_depth.load(Ordering::Relaxed) as u32,
                queue_capacity: counters.queue_capacity,
                shed_total: counters.shed_total.load(Ordering::Relaxed),
                connections_total: counters.connections_total.load(Ordering::Relaxed),
                requests_total: counters.requests_total.load(Ordering::Relaxed),
                protocol_errors: counters.protocol_errors.load(Ordering::Relaxed),
                service,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::view_to_wire;
    use smoqe::EvaluationMode;
    use smoqe_toxgene::{generate_hospital, HospitalConfig};
    use smoqe_views::hospital_view;

    fn registry_with_hospital(tenant: &str) -> TenantRegistry {
        let registry = TenantRegistry::new(ServiceConfig::default());
        registry
            .register_view(tenant, hospital_view())
            .expect("hospital view registers");
        registry
    }

    #[test]
    fn documents_are_tenant_scoped() {
        let registry = registry_with_hospital("nurse");
        registry
            .register_view("clerk", hospital_view())
            .expect("second tenant");
        let counters = ServerCounters::default();

        let doc = generate_hospital(&HospitalConfig { patients: 4, ..Default::default() });
        let bytes = snapshot::save(&doc);
        let resp = handle_request(
            &registry,
            &counters,
            &Request::RegisterDocument { tenant: "nurse".into(), snapshot: bytes },
        );
        let Response::DocumentRegistered { doc } = resp else {
            panic!("expected DocumentRegistered, got {resp:?}");
        };

        // The same id does not exist in the other tenant's universe.
        let resp = handle_request(
            &registry,
            &counters,
            &Request::Query {
                tenant: "clerk".into(),
                doc,
                mode: EvaluationMode::HyPE,
                query: "patient".into(),
            },
        );
        assert!(
            matches!(resp, Response::Error { code: ErrorCode::UnknownDocument, .. }),
            "cross-tenant document access must fail, got {resp:?}"
        );
    }

    #[test]
    fn register_view_round_trips_fingerprint() {
        let registry = TenantRegistry::new(ServiceConfig::default());
        let counters = ServerCounters::default();
        let (document_dtd, view_dtd, annotations) = view_to_wire(&hospital_view());
        let resp = handle_request(
            &registry,
            &counters,
            &Request::RegisterView {
                tenant: "nurse".into(),
                document_dtd,
                view_dtd,
                annotations,
            },
        );
        assert_eq!(
            resp,
            Response::ViewRegistered { fingerprint: hospital_view().fingerprint() }
        );
        assert_eq!(
            registry.get("nurse").expect("registered").service.fingerprint(),
            hospital_view().fingerprint()
        );
    }

    /// `Query` and `BatchQuery` go through the same tree front end, so a
    /// `Query` on a document above the shard floor shards over the tenant's
    /// budget, with the answers and statistics of the walk.
    #[test]
    fn query_shards_large_documents_like_batch_query() {
        let config = |parallel_threads| ServiceConfig {
            parallel_threads,
            ..ServiceConfig::default()
        };
        let sharding = TenantRegistry::new(config(2));
        let walking = TenantRegistry::new(config(1));
        let counters = ServerCounters::default();
        let large = generate_hospital(&HospitalConfig {
            patients: 1_000,
            departments: 8,
            max_ancestor_depth: 2,
            seed: 5,
            ..Default::default()
        });
        assert!(large.live_len() >= smoqe::service::SHARD_FLOOR_NODES);
        let bytes = snapshot::save(&large);
        let mut doc = 0;
        for registry in [&sharding, &walking] {
            registry.register_view("nurse", hospital_view()).unwrap();
            let request = Request::RegisterDocument {
                tenant: "nurse".into(),
                snapshot: bytes.clone(),
            };
            let Response::DocumentRegistered { doc: id } =
                handle_request(registry, &counters, &request)
            else {
                panic!("the snapshot registers");
            };
            doc = id;
        }
        let answer = |registry: &TenantRegistry, mode, query: &str| {
            let request = Request::Query {
                tenant: "nurse".into(),
                doc,
                mode,
                query: query.into(),
            };
            match handle_request(registry, &counters, &request) {
                Response::Answer(result) => result.to_result(),
                other => panic!("expected Answer, got {other:?}"),
            }
        };
        let shard_fraction = |registry: &TenantRegistry| {
            let request = Request::Stats {
                tenant: Some("nurse".into()),
            };
            let Response::Stats(stats) = handle_request(registry, &counters, &request) else {
                panic!("expected Stats");
            };
            f64::from_bits(
                stats
                    .service
                    .expect("a tenant was named")
                    .last_max_shard_fraction_bits,
            )
        };
        let queries = ["patient/record", "(patient/parent)*/patient[record]"];
        for mode in [
            EvaluationMode::HyPE,
            EvaluationMode::OptHyPE,
            EvaluationMode::OptHyPEC,
        ] {
            for q in queries {
                let sharded = answer(&sharding, mode, q);
                assert!(sharded.stats.max_shard_fraction > 0.0, "`{q}` ({mode:?})");
                assert_eq!(shard_fraction(&sharding), sharded.stats.max_shard_fraction);
                assert_eq!(sharded, answer(&walking, mode, q), "`{q}` ({mode:?})");
                let request = Request::BatchQuery {
                    tenant: "nurse".into(),
                    doc,
                    mode,
                    queries: vec![q.into()],
                };
                let Response::BatchAnswer { results, .. } =
                    handle_request(&sharding, &counters, &request)
                else {
                    panic!("expected BatchAnswer");
                };
                assert_eq!(results[0].to_result(), sharded, "`{q}` ({mode:?})");
            }
        }
        assert_eq!(shard_fraction(&walking), 0.0, "budget 1 never shards");
    }

    #[test]
    fn unknown_tenant_is_typed() {
        let registry = TenantRegistry::new(ServiceConfig::default());
        let counters = ServerCounters::default();
        let resp = handle_request(
            &registry,
            &counters,
            &Request::Stats { tenant: Some("ghost".into()) },
        );
        assert!(matches!(
            resp,
            Response::Error { code: ErrorCode::UnknownTenant, .. }
        ));
    }
}
