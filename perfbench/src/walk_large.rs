//! `walk_large`: in-process `QueryService` calls over a few large
//! documents (10⁵–5·10⁵ nodes, several MB of XML — far above the L2
//! cache), with no wire and no ingest in the timed phase. Nearly all the
//! work is the HyPE walk, index lookups and the shard scheduler with every
//! cache hot, so a kernel, index or scheduler change shows here and a wire
//! or ingest change must not.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use smoqe::{DocId, DocumentStore, EvaluationMode, QueryService, ServiceConfig, StoredDocument};
use smoqe_hype::{CompiledBatchQuery, HypeResult, ReachabilityIndex};
use smoqe_toxgene::{all_domains, generate_social, DocShape, SocialConfig};
use smoqe_views::{derive_view, SecuritySpec, ViewDefinition};
use smoqe_xml::{snapshot, XmlTree};

use crate::harness::{
    drive, nproc, time_set_ups, timed_ms, Config, Counters, Cx, Header, Outcome, Scale, Workload,
};
use crate::oracle::{same, Answer, Oracle};
use crate::rng::Rng;

/// The regular XPath queries of the paper's Fig. 8 and Fig. 9, posed on
/// the hospital document through the identity view.
const FIG_QUERIES: &[&str] = &[
    "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
    "department/patient[visit/treatment/medication/diagnosis/text()='heart disease' \
     and visit/treatment/test and not(sibling)]/pname",
    "department/patient[visit/treatment/medication/diagnosis/text()='heart disease' \
     or visit/treatment/medication/diagnosis/text()='lung disease' or visit/treatment/test]/pname",
    "department/patient/(parent/patient)*/visit/treatment/medication/diagnosis",
    "department/patient/(parent/patient[visit/treatment/medication])*/pname",
    "department/patient[(parent/patient)*/visit/treatment/medication/diagnosis/text()='heart disease']/pname",
];

/// A view query is recursive when it navigates by `*` or `//`.
fn recursive(q: &str) -> bool {
    q.contains('*') || q.contains("//")
}

const MODES: [EvaluationMode; 3] = [
    EvaluationMode::HyPE,
    EvaluationMode::OptHyPE,
    EvaluationMode::OptHyPEC,
];

/// One (view, document, query set): a service answers its queries.
struct Group {
    name: &'static str,
    view: ViewDefinition,
    queries: Vec<&'static str>,
    /// The document as snapshot bytes (what set-up ingests).
    snapshot: Arc<Vec<u8>>,
    expected: Vec<Answer>,
}

#[derive(Debug, Clone)]
pub enum Op {
    Solo {
        g: usize,
        q: usize,
        mode: EvaluationMode,
    },
    Batch {
        g: usize,
        qs: Vec<usize>,
        mode: EvaluationMode,
    },
    Parallel {
        g: usize,
        q: usize,
        mode: EvaluationMode,
    },
}

/// The system under test, rebuilt by every set-up.
struct System {
    services: Vec<QueryService>,
    docs: Vec<Arc<StoredDocument>>,
    /// The traced path's reachability indexes, keyed like the service's
    /// index cache: (group, query, compressed).
    indexes: HashMap<(usize, usize, bool), Arc<ReachabilityIndex>>,
}

struct WalkLarge {
    groups: Vec<Group>,
    sys: System,
    threads: usize,
    /// Cycles handed out so far: the cycle index fixes a cycle's mix.
    cycle: usize,
}

/// The groups and, aligned with them, their documents as trees (for the
/// oracle and the header; set-up ingests the snapshot bytes).
fn documents(seed: u64, scale: Scale) -> (Vec<Group>, Vec<XmlTree>) {
    let domains = all_domains();
    let find = |name: &str| {
        domains
            .iter()
            .find(|d| d.name == name)
            .expect("registered domain")
    };
    let (hospital, bom, social) = (find("hospital"), find("bom"), find("social"));
    let full = scale == Scale::Full;
    let mut rng = Rng::new(seed).fork(1);
    // Hospital at the paper's §7 scale (~7 MB), bom as one deep recursive
    // chain, social as one member whose friend closure dominates.
    let hospital_doc = hospital.generate(
        DocShape::Standard,
        if full { 70 } else { 2 },
        rng.next_u64(),
    );
    let bom_doc = bom.generate(DocShape::Deep, if full { 200 } else { 5 }, rng.next_u64());
    let social_doc = generate_social(&SocialConfig {
        members: 1,
        friend_depth: if full { 8 } else { 4 },
        friends_per_member: 3,
        posts_per_member: 2,
        banned_fraction: 0.2,
        private_fraction: 0.3,
        seed: rng.next_u64(),
    });
    let identity = derive_view(&SecuritySpec::new(hospital.document_dtd().clone()))
        .expect("the allow-all view derives");
    let view_set = |d: &smoqe_toxgene::Domain| -> Vec<&'static str> {
        d.view_queries
            .iter()
            .copied()
            .filter(|q| recursive(q))
            .collect()
    };
    let hospital_bytes = Arc::new(snapshot::save(&hospital_doc));
    let group = |name, view, queries, tree: &XmlTree, bytes: Option<&Arc<Vec<u8>>>| Group {
        name,
        view,
        queries,
        snapshot: bytes.map_or_else(|| Arc::new(snapshot::save(tree)), Arc::clone),
        expected: Vec::new(),
    };
    let groups = vec![
        group(
            "hospital_fig8_9",
            identity,
            FIG_QUERIES.to_vec(),
            &hospital_doc,
            Some(&hospital_bytes),
        ),
        group(
            "hospital_view",
            hospital.view.clone(),
            view_set(hospital),
            &hospital_doc,
            Some(&hospital_bytes),
        ),
        group("bom_deep", bom.view.clone(), view_set(bom), &bom_doc, None),
        group(
            "social_skewed",
            social.view.clone(),
            view_set(social),
            &social_doc,
            None,
        ),
    ];
    (
        groups,
        vec![hospital_doc.clone(), hospital_doc, bom_doc, social_doc],
    )
}

/// Set-up: view registration (one service per view), corpus ingest (the
/// documents into a store) and compiled-query cache warm-up.
fn set_up(groups: &[Group], threads: usize) -> System {
    let config = ServiceConfig {
        index_capacity: 256,
        parallel_threads: threads,
        ..ServiceConfig::default()
    };
    let store = DocumentStore::new();
    let mut services = Vec::new();
    let mut docs = Vec::new();
    for g in groups {
        let service = QueryService::with_config(g.view.clone(), config).expect("views check");
        for q in &g.queries {
            service.compile(q).expect("benchmark queries compile");
        }
        services.push(service);
        let id: DocId = store
            .insert_snapshot(&g.snapshot)
            .expect("saved snapshots load");
        docs.push(store.get(id).expect("just inserted"));
    }
    System {
        services,
        docs,
        indexes: HashMap::new(),
    }
}

impl WalkLarge {
    fn check(&self, g: usize, q: usize, r: &HypeResult) -> Result<(), String> {
        if same(&r.answers, &self.groups[g].expected[q]) {
            Ok(())
        } else {
            Err(format!(
                "{}: `{}` answered {} nodes, expected {}",
                self.groups[g].name,
                self.groups[g].queries[q],
                r.answers.len(),
                self.groups[g].expected[q].len()
            ))
        }
    }

    /// The traced path's index lookup: what `QueryService` does for `mode`,
    /// built through the public `CompiledQuery::build_index`.
    fn index(
        &mut self,
        g: usize,
        q: usize,
        mode: EvaluationMode,
        compiled: &smoqe::CompiledQuery,
        cx: &mut Cx,
    ) -> Option<Arc<ReachabilityIndex>> {
        let compressed = match mode {
            EvaluationMode::HyPE => return None,
            EvaluationMode::OptHyPE => false,
            EvaluationMode::OptHyPEC => true,
        };
        if let Some(idx) = self.sys.indexes.get(&(g, q, compressed)) {
            return Some(Arc::clone(idx));
        }
        let span = cx.tr.enter("smoqe_hype.index_build");
        let (idx, ms) = timed_ms(|| {
            compiled.build_index(
                self.groups[g].view.document_dtd(),
                self.sys.docs[g].tree(),
                compressed,
            )
        });
        cx.tr.exit(span);
        cx.s.add("hype.index_build", ms);
        let idx = Arc::new(idx);
        self.sys
            .indexes
            .insert((g, q, compressed), Arc::clone(&idx));
        Some(idx)
    }

    fn compile(
        &self,
        g: usize,
        q: usize,
        cx: &mut Cx,
    ) -> Result<Arc<smoqe::CompiledQuery>, String> {
        let span = cx.tr.enter("smoqe.compile");
        let c = self.sys.services[g]
            .compile(self.groups[g].queries[q])
            .map_err(|e| e.to_string());
        cx.tr.exit(span);
        if let Ok(c) = &c {
            cx.s.add("automata.mfa_size", c.mfa().stats().size() as f64);
        }
        c
    }

    fn sample_result(cx: &mut Cx, r: &HypeResult) {
        cx.s.add("hype.nodes_visited", r.stats.nodes_visited as f64);
        cx.s.add("hype.afa_values", r.stats.afa_values_computed as f64);
        cx.s.add("hype.pruned", r.stats.pruned_fraction());
    }

    /// The untraced path: one wrapper call per operation.
    fn run_wrapped(&mut self, op: &Op) -> Result<f64, String> {
        let e = |e: smoqe::EngineError| e.to_string();
        match op {
            Op::Solo { g, q, mode } => {
                let (svc, doc) = (&self.sys.services[*g], self.sys.docs[*g].tree());
                let (r, ms) = timed_ms(|| svc.evaluate(self.groups[*g].queries[*q], doc, *mode));
                self.check(*g, *q, &r.map_err(e)?)?;
                Ok(ms)
            }
            Op::Parallel { g, q, mode } => {
                let (svc, doc) = (&self.sys.services[*g], self.sys.docs[*g].tree());
                let (r, ms) =
                    timed_ms(|| svc.answer_parallel(self.groups[*g].queries[*q], doc, *mode));
                self.check(*g, *q, &r.map_err(e)?)?;
                Ok(ms)
            }
            Op::Batch { g, qs, mode } => {
                let (svc, doc) = (&self.sys.services[*g], self.sys.docs[*g].tree());
                let texts: Vec<&str> = qs.iter().map(|&q| self.groups[*g].queries[q]).collect();
                let (r, ms) = timed_ms(|| svc.evaluate_batch(&texts, doc, *mode));
                let r = r.map_err(e)?;
                for (&q, res) in qs.iter().zip(&r.results) {
                    self.check(*g, q, res)?;
                }
                Ok(ms)
            }
        }
    }

    /// The traced path: the public calls the wrapper makes (compile →
    /// index → walk), each under a span, checked equal to the wrapper's
    /// own result computed beside the operation.
    fn run_traced(&mut self, op: &Op, cx: &mut Cx) -> Result<f64, String> {
        let start = Instant::now();
        let root = cx.tr.enter("bench.op");
        let (g, mode) = match op {
            Op::Solo { g, mode, .. } | Op::Batch { g, mode, .. } | Op::Parallel { g, mode, .. } => {
                (*g, *mode)
            }
        };
        let qs: Vec<usize> = match op {
            Op::Solo { q, .. } | Op::Parallel { q, .. } => vec![*q],
            Op::Batch { qs, .. } => qs.clone(),
        };
        let mut compiled = Vec::new();
        let mut indexes = Vec::new();
        for &q in &qs {
            let c = self.compile(g, q, cx)?;
            indexes.push(self.index(g, q, mode, &c, cx));
            compiled.push(c);
        }
        let doc = Arc::clone(&self.sys.docs[g]);
        let tree = doc.tree();
        let results: Vec<HypeResult> = match op {
            Op::Solo { .. } => {
                let span = cx.tr.enter("smoqe_hype.walk");
                let (r, ms) = timed_ms(|| {
                    smoqe_hype::evaluate_compiled_at_with(
                        tree,
                        tree.root(),
                        compiled[0].compiled(),
                        indexes[0].as_deref(),
                    )
                });
                cx.tr.exit(span);
                cx.s.add("hype.walk", ms);
                cx.s.add("hype.walk_nodes", r.stats.nodes_visited as f64);
                vec![r]
            }
            Op::Parallel { .. } => {
                let span = cx.tr.enter("smoqe_hype.parallel");
                let (r, ms) = timed_ms(|| {
                    smoqe_hype::evaluate_parallel_at_with(
                        tree,
                        tree.root(),
                        compiled[0].compiled(),
                        indexes[0].as_deref(),
                        self.threads,
                    )
                });
                cx.tr.exit(span);
                cx.s.add("hype.parallel", ms);
                cx.s.add("hype.max_shard", r.stats.max_shard_fraction);
                vec![r]
            }
            Op::Batch { .. } => {
                let batch: Vec<CompiledBatchQuery> = compiled
                    .iter()
                    .zip(&indexes)
                    .map(|(c, i)| CompiledBatchQuery {
                        compiled: Arc::clone(c.compiled()),
                        index: i.as_deref(),
                    })
                    .collect();
                let span = cx.tr.enter("smoqe_hype.batch");
                let (r, ms) = timed_ms(|| smoqe_hype::evaluate_batch_compiled(tree, &batch));
                cx.tr.exit(span);
                cx.s.add("hype.batch", ms);
                cx.s.add("hype.batch_nodes", r.stats.nodes_visited as f64);
                r.results
            }
        };
        cx.tr.exit(root);
        let latency = start.elapsed().as_secs_f64() * 1e3;

        for r in &results {
            Self::sample_result(cx, r);
        }
        for (&q, r) in qs.iter().zip(&results) {
            self.check(g, q, r)?;
        }

        // Beside the operation: the wrapper's answer (which the traced
        // path must equal) and, for a parallel operation, its sequential
        // twin for the speed-up.
        let twin = cx.tr.enter("twin.wrapper");
        let svc = &self.sys.services[g];
        let texts: Vec<&str> = qs.iter().map(|&q| self.groups[g].queries[q]).collect();
        let wrapped: Vec<HypeResult> = match op {
            Op::Solo { .. } => vec![svc
                .evaluate(texts[0], tree, mode)
                .map_err(|e| e.to_string())?],
            Op::Parallel { .. } => {
                let (_, seq_ms) = timed_ms(|| {
                    smoqe_hype::evaluate_compiled_at_with(
                        tree,
                        tree.root(),
                        compiled[0].compiled(),
                        indexes[0].as_deref(),
                    )
                });
                cx.s.add("hype.parallel_seq", seq_ms);
                vec![svc
                    .answer_parallel(texts[0], tree, mode)
                    .map_err(|e| e.to_string())?]
            }
            Op::Batch { .. } => {
                svc.evaluate_batch(&texts, tree, mode)
                    .map_err(|e| e.to_string())?
                    .results
            }
        };
        cx.tr.exit(twin);
        for (a, b) in results.iter().zip(&wrapped) {
            if a.answers != b.answers || a.stats != b.stats {
                return Err(format!("{op:?}: traced path differs from the wrapper"));
            }
        }
        Ok(latency)
    }
}

impl Workload for WalkLarge {
    type Op = Op;

    /// Per cycle: every query solo (the modes rotate with the cycle index,
    /// in equal shares), one batch of all its group's queries per group,
    /// and one parallel operation per group. Every cycle costs about the
    /// same and every seed measures the same mix; the seed orders the
    /// operations (and makes the documents).
    fn next_cycle(&mut self, rng: &mut Rng) -> Vec<Op> {
        let mut k = self.cycle;
        self.cycle += 1;
        let mut ops = Vec::new();
        for (g, grp) in self.groups.iter().enumerate() {
            let n = grp.queries.len();
            for q in 0..n {
                ops.push(Op::Solo {
                    g,
                    q,
                    mode: MODES[k % MODES.len()],
                });
                k += 1;
            }
            ops.push(Op::Batch {
                g,
                qs: (0..n).collect(),
                mode: MODES[g % MODES.len()],
            });
            ops.push(Op::Parallel {
                g,
                q: 0,
                mode: MODES[(g + 1) % MODES.len()],
            });
        }
        rng.shuffle(&mut ops);
        ops
    }

    /// Every index the cycles can ask for (one batch per group and
    /// OptHyPE mode), then one regular cycle.
    fn warm_up(&mut self, rng: &mut Rng) -> Vec<Op> {
        let mut ops = Vec::new();
        for (g, grp) in self.groups.iter().enumerate() {
            for mode in [EvaluationMode::OptHyPE, EvaluationMode::OptHyPEC] {
                ops.push(Op::Batch {
                    g,
                    qs: (0..grp.queries.len()).collect(),
                    mode,
                });
            }
        }
        ops.extend(self.next_cycle(rng));
        ops
    }

    fn run(&mut self, op: &Op, cx: &mut Cx) -> Result<f64, String> {
        if cx.traced() {
            self.run_traced(op, cx)
        } else {
            self.run_wrapped(op)
        }
    }

    fn counters(&self) -> Counters {
        let mut c = Counters::default();
        for s in &self.sys.services {
            c.add(&s.stats());
        }
        c
    }
}

pub fn run(cfg: &Config, announce: &mut dyn FnMut(&Header)) -> Outcome {
    let threads = nproc();
    let mut header = Header {
        client_threads: 1,
        server_workers: 0,
        parallel_budget: threads,
        threads_started: format!("{threads} scoped pool threads per parallel operation"),
        nproc: threads,
        // A cycle takes about 3 s.
        cycles_per_window: 1,
        ..Header::default()
    };
    let (mut groups, trees) = documents(cfg.seed, cfg.scale);
    for (g, tree) in groups.iter().zip(&trees) {
        let xml = smoqe_xml::to_xml_string(tree).len();
        header.docs.insert(g.name.to_string(), (tree.len(), xml));
    }
    announce(&header);

    // Expected answers, untimed, for every (document, query) pair the
    // cycles can draw.
    for (g, tree) in groups.iter_mut().zip(&trees) {
        let oracle = Oracle::new(&g.view, tree);
        g.expected = g.queries.iter().map(|q| oracle.answer(q)).collect();
    }
    drop(trees);

    let (sys, setup_s) = time_set_ups(cfg.setup_rounds, cfg.setups_per_round, || {
        set_up(&groups, threads)
    });
    let mut w = WalkLarge {
        groups,
        sys,
        threads,
        cycle: 0,
    };
    let mut cx = Cx::new(cfg.trace);
    let mut rng = Rng::new(cfg.seed).fork(2);
    let timed = drive(&mut w, cfg, &mut rng, &mut cx);
    Outcome {
        header,
        setup_s,
        timed,
        cx,
    }
}
