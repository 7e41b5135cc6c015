//! Shared workloads for the SMOQE-RS benchmark harness.
//!
//! One Criterion bench target (or plain report binary) exists per table /
//! figure of the paper's Section 7; this library defines the documents and
//! query sets they share so that every bench measures exactly the same
//! workload. See EXPERIMENTS.md for the mapping and for paper-vs-measured
//! results.
//!
//! ## Scaling note
//!
//! The paper's documents range from 7 MB (~10,000 patients, ~450k nodes) to
//! 70 MB (~100,000 patients). To keep `cargo bench` runs in the minutes
//! rather than hours on a development machine, the default series here uses
//! smaller documents (the `SMOQE_BENCH_SCALE` environment variable scales
//! them up: `SMOQE_BENCH_SCALE=10` reproduces the paper's sizes). The claims
//! under test are *relative* — which system is faster, by what factor, and
//! how the curves scale — and those are preserved at the smaller scale.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use smoqe_automata::{CompiledMfa, Mfa};
use smoqe_hype::{evaluate_tree, CompiledBatchQuery, HypeResult, ReachabilityIndex};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::XmlTree;

/// Compiles a builder MFA to the shared execution IR — once, outside any
/// timed closure, so a timing never includes IR compilation.
pub fn ir(mfa: &Mfa) -> Arc<CompiledMfa> {
    Arc::new(CompiledMfa::new(mfa))
}

/// Evaluates the compiled query `ir` alone at the root of `tree`,
/// optionally pruned by `index`, under the thread budget `threads` (`1` is
/// the sequential walk).
pub fn run_solo(
    tree: &XmlTree,
    ir: &Arc<CompiledMfa>,
    index: Option<&ReachabilityIndex>,
    threads: usize,
) -> HypeResult {
    let query = CompiledBatchQuery {
        compiled: Arc::clone(ir),
        index,
    };
    evaluate_tree(tree, tree.root(), &[query], threads).results.remove(0)
}

/// Batch node throughput of the sequential walk and of `threads` workers
/// over `queries` on `tree`, as `(sequential, parallel)` rates in
/// sequential-equivalent visited nodes per second.
///
/// After one untimed pass of each, single passes of the two budgets
/// alternate until together they have run for twice `window`, so both
/// sides run on warm caches and share the host's drift; each side's rate is
/// its nodes over its own time. (Timing the sequential side once, cold,
/// before every parallel window let a speed-up gate read the noise of that
/// one window.)
pub fn paired_node_throughput(
    tree: &XmlTree,
    queries: &[CompiledBatchQuery],
    threads: usize,
    window: Duration,
) -> (f64, f64) {
    let pass = |budget| {
        evaluate_tree(tree, tree.root(), queries, budget)
            .stats
            .sequential_node_visits as u64
    };
    pass(1);
    pass(threads);
    // (nodes, seconds) per side: [sequential, parallel].
    let mut totals = [(0u64, 0f64); 2];
    while totals[0].1 + totals[1].1 < 2.0 * window.as_secs_f64() {
        for (side, budget) in [1, threads].into_iter().enumerate() {
            let start = Instant::now();
            totals[side].0 += pass(budget);
            totals[side].1 += start.elapsed().as_secs_f64();
        }
    }
    let [sequential, parallel] = totals.map(|(nodes, secs)| nodes as f64 / secs);
    (sequential, parallel)
}

/// One document of the benchmark series.
pub struct BenchDocument {
    /// Human-readable label (approximate serialized size).
    pub label: String,
    /// Number of top-level patients.
    pub patients: usize,
    /// The document itself.
    pub tree: XmlTree,
}

/// The document series used by Figures 8 and 9 (increasing sizes).
///
/// The number of steps defaults to 4; the paper uses 10 steps of 7 MB each.
pub fn document_series(steps: usize) -> Vec<BenchDocument> {
    let scale: usize = std::env::var("SMOQE_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    (1..=steps)
        .map(|step| {
            let patients = 700 * step * scale;
            let tree = generate_hospital(&HospitalConfig {
                patients,
                departments: 6,
                heart_disease_fraction: 0.3,
                max_ancestor_depth: 2,
                sibling_probability: 0.3,
                visits_per_patient: 2,
                test_visit_fraction: 0.3,
                seed: 2007,
            });
            let label = format!(
                "{:.1}MB",
                tree.approximate_byte_size() as f64 / 1_000_000.0
            );
            BenchDocument {
                label,
                patients,
                tree,
            }
        })
        .collect()
}

/// A single mid-sized document for the pruning-statistics report.
pub fn medium_document() -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients: 2_000,
        departments: 6,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        sibling_probability: 0.3,
        visits_per_patient: 2,
        test_visit_fraction: 0.3,
        seed: 2007,
    })
}

/// The XPath queries of Fig. 8: (a) a filter returning a large node set,
/// (b) filter conjunctions, (c) filter disjunctions.
pub fn fig8_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "fig8a_large_result_filter",
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
        ),
        (
            "fig8b_filter_conjunctions",
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease' \
             and visit/treatment/test and not(sibling)]/pname",
        ),
        (
            "fig8c_filter_disjunctions",
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease' \
             or visit/treatment/medication/diagnosis/text()='lung disease' \
             or visit/treatment/test]/pname",
        ),
    ]
}

/// The regular XPath queries of Fig. 9: (a) Kleene star outside a filter,
/// (b) a filter inside a Kleene star, (c) a Kleene star inside a filter.
pub fn fig9_queries() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "fig9a_star_outside_filter",
            "department/patient/(parent/patient)*/visit/treatment/medication/diagnosis",
        ),
        (
            "fig9b_filter_inside_star",
            "department/patient/(parent/patient[visit/treatment/medication])*/pname",
        ),
        (
            "fig9c_star_inside_filter",
            "department/patient[(parent/patient)*/visit/treatment/medication/diagnosis/text()='heart disease']/pname",
        ),
    ]
}

/// The six example queries whose pruning statistics Section 7 reports
/// (average 78.2% for HyPE, 88% for OptHyPE).
pub fn pruning_queries() -> Vec<&'static str> {
    fig8_queries()
        .into_iter()
        .chain(fig9_queries())
        .map(|(_, q)| q)
        .collect()
}

/// The multi-query workload of the batched-throughput benchmark: the six
/// Section-7 queries plus narrow point lookups and a negation, mimicking a
/// serving mix where broad and narrow queries arrive concurrently against
/// the same hospital document.
pub fn batch_workload_queries() -> Vec<&'static str> {
    let mut queries = pruning_queries();
    queries.extend([
        "//zip",
        "department/patient/pname",
        "department/doctor[specialty/text()='cardiology']/dname",
        "department/patient[not(visit/treatment/test)]/pname",
    ]);
    queries
}
