//! The HyPE evaluation engine (Fig. 6 of the paper): its result types.
//!
//! One depth-first pass over the document drives the selecting NFA
//! (`mstates`), propagates pending filter states downwards (`fstates↓`),
//! computes filter values upwards (`fstates↑`) as soon as the relevant
//! subtree is complete, and materialises the candidate-answer DAG `cans`.
//! A final traversal of `cans` — whose size is bounded by `|T|·|M|` but is
//! usually far smaller than `T` — produces the answer set.
//!
//! Pruning (the `OptHyPE` variants) additionally consults a
//! [`ReachabilityIndex`]: a subtree rooted at a child labelled `L` is
//! skipped outright when, given the labels the DTD allows below `L`,
//! (a) no selecting-NFA state pending at that child can reach a final
//! state, and (b) every pending filter state is necessarily false there.
//! Correctness of that rule assumes the document conforms to the DTD used
//! to build the index, which is the same assumption the paper makes.
//!
//! There is a single implementation of the traversal:
//! [`crate::evaluate_tree`] drives N queries through one pass, and a solo
//! evaluation is the 1-query special case of it. That implementation runs
//! on the bitset-based [`CompiledMfa`] rather than interpreting the builder
//! [`Mfa`](smoqe_automata::Mfa) directly; the pre-IR engines survive in
//! [`crate::interpreted`] as the differential oracle. This keeps the hot
//! path in one place and makes "batched equals solo" true by construction
//! (the integration suite still checks it end-to-end over the whole query
//! corpus).

use std::collections::BTreeSet;
use std::sync::Arc;

use smoqe_automata::CompiledMfa;
use smoqe_xml::{NodeId, XmlTree};

use crate::batch::CompiledBatchQuery;
use crate::index::ReachabilityIndex;

/// Execution statistics of one HyPE run, used to reproduce the paper's
/// pruning measurements ("HyPE prunes, on average, 78.2% of the element
/// nodes, OptHyPE 88%").
///
/// Accounting contract (relied on by the benchmark harness and locked in by
/// unit tests):
///
/// * `nodes_total` counts the element nodes of the **evaluated subtree** —
///   the whole document when [`crate::evaluate_tree`] runs at the root, the
///   context's subtree otherwise — never the whole arena.
/// * `nodes_visited` counts every node the traversal actually entered, and a
///   subtree skipped by pruning contributes zero, in **every** mode; HyPE
///   and OptHyPE therefore share the same denominator and their
///   [`pruned_fraction`](Self::pruned_fraction) values are directly
///   comparable.
#[derive(Debug, Clone, Copy, Default)]
pub struct HypeStats {
    /// Number of element nodes in the evaluated subtree.
    pub nodes_total: usize,
    /// Number of element nodes actually visited by the traversal.
    pub nodes_visited: usize,
    /// Number of vertices of the candidate-answer DAG `cans`.
    pub cans_vertices: usize,
    /// Number of edges of `cans`.
    pub cans_edges: usize,
    /// Number of Boolean filter variables (`X(node, state)`) computed.
    pub afa_values_computed: usize,
    /// Largest single work unit's share of the physically visited nodes in
    /// the parallel pass that produced this result, in `[0, 1]` — `0.0` for
    /// sequential, streamed and incremental runs. Pure scheduling
    /// observability (shard skew), dependent on the thread budget:
    /// **excluded from equality**, so parallel results still compare equal
    /// to sequential ones under the bit-identity contract.
    pub max_shard_fraction: f64,
}

// Equality covers the five evaluation counters only — `max_shard_fraction`
// describes how the work was *scheduled*, not what was computed, and the
// differential suites assert parallel == sequential stats.
impl PartialEq for HypeStats {
    fn eq(&self, other: &Self) -> bool {
        self.nodes_total == other.nodes_total
            && self.nodes_visited == other.nodes_visited
            && self.cans_vertices == other.cans_vertices
            && self.cans_edges == other.cans_edges
            && self.afa_values_computed == other.afa_values_computed
    }
}

impl Eq for HypeStats {}

impl HypeStats {
    /// Fraction of element nodes that were *not* visited (pruned), in `[0, 1]`.
    pub fn pruned_fraction(&self) -> f64 {
        if self.nodes_total == 0 {
            0.0
        } else {
            1.0 - self.nodes_visited as f64 / self.nodes_total as f64
        }
    }
}

/// The result of a HyPE run: the answer set and the run's statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HypeResult {
    /// The answer `n[[M]]`.
    pub answers: BTreeSet<NodeId>,
    /// Traversal statistics.
    pub stats: HypeStats,
}

/// Evaluates one pre-compiled query at `context`, optionally with an
/// OptHyPE(-C) index, on the sequential walk: the one-query case of
/// [`crate::evaluate_tree`] at budget 1. Kept under this name because the
/// `perfbench` benchmark calls it.
pub fn evaluate_compiled_at_with(
    tree: &XmlTree,
    context: NodeId,
    compiled: &Arc<CompiledMfa>,
    index: Option<&ReachabilityIndex>,
) -> HypeResult {
    let query = CompiledBatchQuery {
        compiled: Arc::clone(compiled),
        index,
    };
    crate::evaluate_tree(tree, context, &[query], 1).results.remove(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::solo;
    use smoqe_automata::{compile_query, evaluate_mfa_at};
    use smoqe_xml::hospital::hospital_document_dtd;
    use smoqe_xml::{XmlTree, XmlTreeBuilder};
    use smoqe_xpath::parse_path;

    /// The view-shaped tree of the paper's Fig. 4.
    fn fig4_tree() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let n1 = b.root("hospital");
        let n2 = b.child(n1, "patient");
        let n3 = b.child(n2, "parent");
        let n4 = b.child(n3, "patient");
        let n5 = b.child(n4, "parent");
        let n6 = b.child(n5, "patient");
        let rec = b.child(n6, "record");
        b.child_with_text(rec, "diagnosis", "lung disease");
        let n7 = b.child(n2, "record");
        b.child_with_text(n7, "diagnosis", "lung disease");
        let n9 = b.child(n1, "patient");
        let n10 = b.child(n9, "parent");
        let n11 = b.child(n10, "patient");
        let n12 = b.child(n11, "record");
        b.child_with_text(n12, "diagnosis", "heart disease");
        let n14 = b.child(n9, "record");
        b.child_with_text(n14, "diagnosis", "brain disease");
        b.finish()
    }

    /// A small document conforming to the hospital DTD, for index tests.
    fn hospital_doc() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let dept = b.child(root, "department");
        b.child_with_text(dept, "name", "Cardiology");
        for (name, diag) in [("Alice", "heart disease"), ("Bob", "flu"), ("Carol", "heart disease")] {
            let p = b.child(dept, "patient");
            b.child_with_text(p, "pname", name);
            let addr = b.child(p, "address");
            b.child_with_text(addr, "street", "s");
            b.child_with_text(addr, "city", "c");
            b.child_with_text(addr, "zip", "z");
            let v = b.child(p, "visit");
            b.child_with_text(v, "date", "2006-01-01");
            let t = b.child(v, "treatment");
            let m = b.child(t, "medication");
            b.child_with_text(m, "type", "tablet");
            b.child_with_text(m, "diagnosis", diag);
            let d = b.child(dept, "doctor");
            b.child_with_text(d, "dname", "Dr X");
            b.child_with_text(d, "specialty", "cardiology");
        }
        b.finish()
    }

    /// HyPE must agree with the naive MFA evaluator.
    fn assert_hype_matches_naive(tree: &XmlTree, query: &str) {
        let q = parse_path(query).unwrap();
        let mfa = compile_query(&q);
        let expected = evaluate_mfa_at(tree, tree.root(), &mfa);
        let basic = solo(tree, tree.root(), &mfa, None);
        assert_eq!(basic.answers, expected, "HyPE differs on `{query}`");
        assert!(basic.stats.nodes_visited <= basic.stats.nodes_total);
    }

    #[test]
    fn matches_naive_on_plain_paths() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "patient");
        assert_hype_matches_naive(&t, "patient/parent/patient");
        assert_hype_matches_naive(&t, "patient/record/diagnosis");
    }

    #[test]
    fn matches_naive_on_stars_and_descendants() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "(patient/parent)*/patient");
        assert_hype_matches_naive(&t, "//diagnosis");
        assert_hype_matches_naive(&t, "patient//record");
    }

    #[test]
    fn matches_naive_on_filters() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "patient[record]");
        assert_hype_matches_naive(&t, "patient[not(record)]");
        assert_hype_matches_naive(&t, "patient[record/diagnosis/text()='brain disease']");
        assert_hype_matches_naive(
            &t,
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        );
        assert_hype_matches_naive(
            &t,
            "patient[*//record/diagnosis/text()='heart disease']",
        );
        assert_hype_matches_naive(&t, "patient[record and not(parent)]");
        assert_hype_matches_naive(&t, "patient[record or parent]");
    }

    #[test]
    fn fig4_answer_is_nodes_9_and_11() {
        // The paper's running evaluation example: Q0 selects the two
        // patients on the heart-disease branch.
        let t = fig4_tree();
        let q = parse_path(
            "(patient/parent)*/patient[(parent/patient)*/record/diagnosis[text()='heart disease']]",
        )
        .unwrap();
        let mfa = compile_query(&q);
        let result = solo(&t, t.root(), &mfa, None);
        let labels: Vec<&str> = result
            .answers
            .iter()
            .map(|&n| t.label_name(n))
            .collect();
        assert_eq!(result.answers.len(), 2);
        assert!(labels.iter().all(|&l| l == "patient"));
    }

    #[test]
    fn index_variants_agree_with_basic_hype() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        for query in [
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
            "department/patient/pname",
            "//diagnosis",
            "//zip",
            "department/patient[visit/treatment/test]",
            "department/doctor[specialty/text()='cardiology']/dname",
            "department/doctor[diagnosis]",
            "department/patient[not(visit)]",
        ] {
            let q = parse_path(query).unwrap();
            let mfa = compile_query(&q);
            let plain = solo(&doc, doc.root(), &mfa, None);
            let naive = evaluate_mfa_at(&doc, doc.root(), &mfa);
            assert_eq!(plain.answers, naive, "HyPE differs on `{query}`");
            let opt_index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
            let opt = solo(&doc, doc.root(), &mfa, Some(&opt_index));
            let optc_index = ReachabilityIndex::new_compressed(&mfa, &dtd, doc.labels());
            let optc = solo(&doc, doc.root(), &mfa, Some(&optc_index));
            assert_eq!(plain.answers, opt.answers, "OptHyPE differs on `{query}`");
            assert_eq!(plain.answers, optc.answers, "OptHyPE-C differs on `{query}`");
            assert!(
                opt.stats.nodes_visited <= plain.stats.nodes_visited,
                "index must not visit more nodes (`{query}`)"
            );
        }
    }

    #[test]
    fn pruning_skips_irrelevant_subtrees() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        // The query only cares about pname; address/visit/doctor subtrees
        // are irrelevant and must be skipped even by basic HyPE.
        let q = parse_path("department/patient/pname").unwrap();
        let mfa = compile_query(&q);
        let basic = solo(&doc, doc.root(), &mfa, None);
        assert!(basic.stats.pruned_fraction() > 0.3, "basic pruning too weak");
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = solo(&doc, doc.root(), &mfa, Some(&index));
        assert!(opt.stats.nodes_visited <= basic.stats.nodes_visited);
    }

    #[test]
    fn index_prunes_descendant_queries_that_basic_hype_cannot() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        // `//zip`: plain HyPE must visit essentially the whole document (the
        // wildcard loop matches everything); OptHyPE knows from the DTD that
        // zip can only occur below address and skips everything else.
        let q = parse_path("//zip").unwrap();
        let mfa = compile_query(&q);
        let basic = solo(&doc, doc.root(), &mfa, None);
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = solo(&doc, doc.root(), &mfa, Some(&index));
        assert_eq!(basic.answers, opt.answers);
        assert_eq!(basic.answers.len(), 3);
        assert!(
            opt.stats.nodes_visited * 2 < basic.stats.nodes_visited,
            "expected OptHyPE ({}) to visit far fewer nodes than HyPE ({})",
            opt.stats.nodes_visited,
            basic.stats.nodes_visited
        );
    }

    #[test]
    fn negated_filters_disable_unsafe_pruning() {
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        // not(//diagnosis) is true at doctors even though no diagnosis can
        // occur below them; the index must not assume the filter is false.
        let q = parse_path("department/doctor[not(.//diagnosis)]").unwrap();
        let mfa = compile_query(&q);
        let basic = solo(&doc, doc.root(), &mfa, None);
        let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
        let opt = solo(&doc, doc.root(), &mfa, Some(&index));
        assert_eq!(basic.answers, opt.answers);
        assert_eq!(basic.answers.len(), 3, "all three doctors qualify");
    }

    #[test]
    fn evaluation_from_inner_context() {
        let t = fig4_tree();
        let q = parse_path("parent/patient[record/diagnosis/text()='heart disease']").unwrap();
        let mfa = compile_query(&q);
        for ctx in t.node_ids() {
            let expected = evaluate_mfa_at(&t, ctx, &mfa);
            let got = solo(&t, ctx, &mfa, None);
            assert_eq!(got.answers, expected, "context {ctx:?}");
        }
    }

    #[test]
    fn stats_are_populated() {
        let t = fig4_tree();
        let q = parse_path("(patient/parent)*/patient[record]").unwrap();
        let mfa = compile_query(&q);
        let r = solo(&t, t.root(), &mfa, None);
        assert_eq!(r.stats.nodes_total, t.len());
        assert!(r.stats.nodes_visited > 0);
        assert!(r.stats.cans_vertices > 0);
        assert!(r.stats.afa_values_computed > 0);
        assert!(r.stats.pruned_fraction() >= 0.0 && r.stats.pruned_fraction() <= 1.0);
    }

    #[test]
    fn empty_answer_queries() {
        let t = fig4_tree();
        assert_hype_matches_naive(&t, "doctor");
        assert_hype_matches_naive(&t, "patient[visit]");
        let q = parse_path("doctor").unwrap();
        let mfa = compile_query(&q);
        let r = solo(&t, t.root(), &mfa, None);
        assert!(r.answers.is_empty());
        // Nothing matches at the root's children, so only the root is visited.
        assert_eq!(r.stats.nodes_visited, 1);
    }

    // -----------------------------------------------------------------------
    // HypeStats accounting sweep (PR 2): the invariants documented on
    // `HypeStats` are locked in here so later evaluator changes cannot
    // silently break the pruning-percentage comparisons.
    // -----------------------------------------------------------------------

    #[test]
    fn evaluate_at_counts_totals_over_the_context_subtree() {
        // `nodes_total` must be the context's subtree size, not the arena
        // size, for every possible context node.
        let t = fig4_tree();
        let q = parse_path("parent/patient[record]").unwrap();
        let mfa = compile_query(&q);
        for ctx in t.node_ids() {
            let r = solo(&t, ctx, &mfa, None);
            assert_eq!(
                r.stats.nodes_total,
                t.subtree_size(ctx),
                "nodes_total must be the subtree size at {ctx:?}"
            );
            assert!(
                r.stats.nodes_visited <= r.stats.nodes_total,
                "visited {} > total {} at {ctx:?}",
                r.stats.nodes_visited,
                r.stats.nodes_total
            );
            assert!(r.stats.nodes_visited >= 1, "the context itself is always visited");
        }
    }

    #[test]
    fn pruned_fraction_is_comparable_across_modes() {
        // HyPE, OptHyPE and OptHyPE-C must share the same `nodes_total`
        // denominator and count skipped subtrees identically (as zero
        // visits), so the paper's 78.2% vs 88% comparison is meaningful.
        let doc = hospital_doc();
        let dtd = hospital_document_dtd();
        for query in [
            "department/patient/pname",
            "//zip",
            "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']",
            "department/doctor[specialty/text()='cardiology']/dname",
        ] {
            let q = parse_path(query).unwrap();
            let mfa = compile_query(&q);
            let plain = solo(&doc, doc.root(), &mfa, None);
            let index = ReachabilityIndex::new(&mfa, &dtd, doc.labels());
            let opt = solo(&doc, doc.root(), &mfa, Some(&index));
            let cindex = ReachabilityIndex::new_compressed(&mfa, &dtd, doc.labels());
            let optc = solo(&doc, doc.root(), &mfa, Some(&cindex));
            assert_eq!(plain.stats.nodes_total, opt.stats.nodes_total, "on `{query}`");
            assert_eq!(plain.stats.nodes_total, optc.stats.nodes_total, "on `{query}`");
            assert_eq!(plain.stats.nodes_total, doc.len(), "root run counts the whole document");
            assert_eq!(
                opt.stats.nodes_visited, optc.stats.nodes_visited,
                "the two index flavours answer the same lookups on `{query}`"
            );
            assert!(
                opt.stats.pruned_fraction() >= plain.stats.pruned_fraction() - 1e-12,
                "OptHyPE must never prune less than HyPE on `{query}`"
            );
        }
    }

    #[test]
    fn pruned_fraction_handles_degenerate_subtrees() {
        let t = fig4_tree();
        let q = parse_path("diagnosis").unwrap();
        let mfa = compile_query(&q);
        // A leaf context: subtree of size 1, the context is visited, nothing
        // is pruned.
        let leaf = t
            .node_ids()
            .find(|&n| t.children(n).is_empty())
            .expect("tree has leaves");
        let r = solo(&t, leaf, &mfa, None);
        assert_eq!(r.stats.nodes_total, 1);
        assert_eq!(r.stats.nodes_visited, 1);
        assert_eq!(r.stats.pruned_fraction(), 0.0);
        // The zero-total guard.
        assert_eq!(HypeStats::default().pruned_fraction(), 0.0);
    }
}
