//! The benchmark's own determinism and correctness checks, on small
//! documents and a fixed number of cycles:
//!
//! * the same seed gives the same operation sequence and the same counts;
//! * a second seed also passes the correctness gate;
//! * the seed is the only input: another seed gives another sequence;
//! * every fresh query of `serve_mix` is a compile miss.

use crate::harness::{Budget, Config, Outcome, Scale};
use crate::{per_layer, run_workload, WORKLOADS};

fn run(workload: &str, seed: u64) -> Outcome {
    let cfg = Config {
        seed,
        budget: Budget::Cycles(2),
        trace: true,
        scale: Scale::Test,
        setup_rounds: 1,
        setups_per_round: 1,
        log_ops: true,
    };
    run_workload(workload, &cfg, &mut |_| {})
}

/// The per-layer metrics that are counts, not times.
const COUNTS: [&str; 10] = [
    "smoqe_hype.nodes_visited_per_op",
    "smoqe_hype.afa_values_per_op",
    "smoqe_automata.mfa_size",
    "smoqed.bytes_per_op",
    "smoqe.compiled_hit_ratio",
    "smoqe.compile_misses",
    "smoqe.index_hit_ratio",
    "smoqe.index_invalidations",
    "smoqe_xml.snapshot_bytes_per_version",
    "trace.spans_per_op",
];

fn counts(out: &Outcome) -> Vec<(String, f64)> {
    per_layer(out, 0.0)
        .into_iter()
        .filter(|(name, _, _)| COUNTS.contains(&name.as_str()))
        .map(|(name, value, _)| (name, value))
        .collect()
}

#[test]
fn same_seed_same_operations_and_counts() {
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 7), run(workload, 7));
        assert_eq!(a.timed.failed, 0, "{workload}: wrong answers");
        assert!(!a.timed.op_log.is_empty(), "{workload}: no operations ran");
        assert_eq!(
            a.timed.op_log, b.timed.op_log,
            "{workload}: operation sequence differs"
        );
        assert_eq!(
            a.timed.counters, b.timed.counters,
            "{workload}: cache counters differ"
        );
        assert_eq!(
            counts(&a),
            counts(&b),
            "{workload}: per-layer counts differ"
        );
    }
}

#[test]
fn another_seed_passes_the_correctness_gate_with_other_inputs() {
    for workload in WORKLOADS {
        let (a, b) = (run(workload, 7), run(workload, 8));
        assert_eq!(
            b.timed.failed, 0,
            "{workload}: wrong answers at the second seed"
        );
        assert_ne!(
            a.timed.op_log, b.timed.op_log,
            "{workload}: the seed changes nothing"
        );
    }
}

#[test]
fn every_fresh_query_is_a_compile_miss() {
    let out = run("serve_mix", 7);
    let fresh = out
        .timed
        .op_log
        .iter()
        .filter(|op| op.starts_with("Fresh"))
        .count() as u64;
    assert_eq!(fresh, 2 * 3, "three fresh queries per cycle");
    assert_eq!(out.timed.counters.compiled_misses, fresh);
}
