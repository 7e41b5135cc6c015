//! Tests reflecting the paper's theoretical results (Section 3, Fig. 2):
//!
//! * **Theorem 3.1 (illustration)** — over the recursive σ₀ view, the naive
//!   "keep `//` as `//`" translation of Example 1.1's query is *incorrect*:
//!   it reaches data that the view hides. (The theorem itself states no
//!   correct X-to-X rewriting exists; a full impossibility proof is not
//!   testable, but the concrete leak the paper uses to motivate it is.)
//! * **Theorem 3.2** — `Xreg` is closed under rewriting: the direct rewriter
//!   always produces an equivalent `Xreg` query, here checked on a corpus.
//! * **Corollary 3.3** — explicit `Xreg` rewritings blow up: on the
//!   complete-graph view family (the Ehrenfeucht–Zeiger construction behind
//!   the corollary) the direct rewriting grows drastically faster than the
//!   MFA produced by algorithm `rewrite`.
//! * **Theorem 5.1** — the MFA rewriting is polynomial in |Q|, |σ|, |DV|.

use integration_tests::hype_at;
use smoqe_rewrite::{rewrite_to_mfa, rewrite_to_xreg};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_views::{hospital_view, materialize, ViewDefinition};
use smoqe_xml::{Child, ContentModel, Dtd};
use smoqe_xpath::{evaluate, parse_path};

/// The incorrect translation the paper warns about: rewriting Example 1.1's
/// query by keeping `//` over the *document* alphabet reaches sibling data
/// that the view excludes — a security breach.
#[test]
fn naive_descendant_translation_leaks_hidden_data() {
    let doc = generate_hospital(&HospitalConfig {
        patients: 30,
        sibling_probability: 1.0,
        heart_disease_fraction: 1.0,
        max_ancestor_depth: 0, // no ancestors: the view exposes no family history at all
        seed: 7,
        ..Default::default()
    });
    let view = hospital_view();

    // Correct answer (via materialization): no patient qualifies, because
    // the view contains no ancestor with heart disease.
    let materialized = materialize(&view, &doc).unwrap();
    let q = parse_path("patient[*//record/diagnosis/text()='heart disease']").unwrap();
    let correct = evaluate(&materialized.tree, materialized.tree.root(), &q);
    assert!(correct.is_empty());

    // The naive translation: substitute the top-level step by σ(hospital,
    // patient) but keep `*//…` ranging over the *document*, where it can
    // descend into sibling and visit subtrees that the view hides.
    let naive = parse_path(
        "department/patient[visit/treatment/medication/diagnosis/text()='heart disease']\
         [*//medication/diagnosis/text()='heart disease']",
    )
    .unwrap();
    let leaked = evaluate(&doc, doc.root(), &naive);
    assert!(
        !leaked.is_empty(),
        "the naive translation should (incorrectly) match through hidden subtrees"
    );

    // The MFA rewriting gives the correct (empty) answer.
    let mfa = rewrite_to_mfa(&q, &view).unwrap();
    assert!(hype_at(&doc, doc.root(), &mfa, None).answers.is_empty());
}

/// Theorem 3.2: the direct `Xreg` rewriting is equivalent to the query on
/// the view for a corpus of regular XPath queries.
#[test]
fn xreg_is_closed_under_rewriting() {
    let doc = generate_hospital(&HospitalConfig {
        patients: 25,
        max_ancestor_depth: 2,
        seed: 11,
        ..Default::default()
    });
    let view = hospital_view();
    let materialized = materialize(&view, &doc).unwrap();
    for query in [
        "patient",
        "(patient/parent)*/patient[record]",
        "patient[*//record/diagnosis/text()='heart disease']",
        "//diagnosis",
        "patient[not(parent)]/record",
    ] {
        let q = parse_path(query).unwrap();
        let expected =
            materialized.origins_of(&evaluate(&materialized.tree, materialized.tree.root(), &q));
        let direct = rewrite_to_xreg(&q, &view).unwrap();
        let got = match direct.query {
            None => std::collections::BTreeSet::new(),
            Some(rewritten) => evaluate(&doc, doc.root(), &rewritten),
        };
        assert_eq!(
            got, expected,
            "direct rewriting not equivalent for `{query}`"
        );
    }
}

/// The Ehrenfeucht–Zeiger family the paper's Corollary 3.3 rests on: a view
/// DTD whose graph is a *complete* graph on `n` types, with a distinct
/// document path annotating every edge. Converting the `//`-walk automaton
/// over that view into an explicit regular expression requires an
/// expression exponential in `n`, whereas the MFA only needs one copy of
/// each annotation per edge (O(n²)).
fn complete_graph_view(n: usize) -> ViewDefinition {
    // Document DTD: a `node` element with one distinct wrapper type per
    // view edge; each wrapper leads back to `node`.
    let mut doc = Dtd::new("node");
    let mut node_children = Vec::new();
    for i in 0..n {
        for j in 0..n {
            node_children.push(Child::star(&format!("e{i}_{j}")));
        }
    }
    doc.define("node", ContentModel::Sequence(node_children));
    for i in 0..n {
        for j in 0..n {
            doc.define(
                &format!("e{i}_{j}"),
                ContentModel::Sequence(vec![Child::star("node")]),
            );
        }
    }

    // View DTD: every type v_i may have every type v_j as a child.
    let mut view = Dtd::new("v0");
    for i in 0..n {
        let children = (0..n).map(|j| Child::star(&format!("v{j}"))).collect();
        view.define(&format!("v{i}"), ContentModel::Sequence(children));
    }

    let mut def = ViewDefinition::new(doc, view);
    for i in 0..n {
        for j in 0..n {
            def.annotate_str(
                &format!("v{i}"),
                &format!("v{j}"),
                &format!("e{i}_{j}/node"),
            )
            .unwrap();
        }
    }
    def.check().unwrap();
    def
}

#[test]
fn explicit_rewriting_grows_exponentially_but_mfa_stays_polynomial() {
    // `//v{n-1}` over the complete-graph view describes all walks from v0 to
    // v_{n-1}: the explicit Xreg rewriting blows up with n, the MFA does not.
    let mut direct_sizes = Vec::new();
    let mut mfa_sizes = Vec::new();
    let ns = [2usize, 3, 4, 5];
    for &n in &ns {
        let view = complete_graph_view(n);
        let q = parse_path(&format!("//v{}", n - 1)).unwrap();
        let direct = rewrite_to_xreg(&q, &view).unwrap();
        let mfa = rewrite_to_mfa(&q, &view).unwrap();
        direct_sizes.push(direct.size as f64);
        mfa_sizes.push(mfa.size() as f64);
    }
    // Normalise by the number of view-DTD edges (n²) to compare growth that
    // is *not* explained by the view simply getting bigger.
    let per_edge_direct: Vec<f64> = direct_sizes
        .iter()
        .zip(&ns)
        .map(|(s, &n)| s / (n * n) as f64)
        .collect();
    let per_edge_mfa: Vec<f64> = mfa_sizes
        .iter()
        .zip(&ns)
        .map(|(s, &n)| s / (n * n) as f64)
        .collect();
    let direct_growth = per_edge_direct.last().unwrap() / per_edge_direct.first().unwrap();
    let mfa_growth = per_edge_mfa.last().unwrap() / per_edge_mfa.first().unwrap();
    assert!(
        direct_growth > 10.0 * mfa_growth,
        "expected the explicit rewriting (per-edge growth {direct_growth:.1}, sizes {direct_sizes:?}) \
         to blow up much faster than the MFA (per-edge growth {mfa_growth:.1}, sizes {mfa_sizes:?})"
    );
    assert!(
        *direct_sizes.last().unwrap() > 10.0 * mfa_sizes.last().unwrap(),
        "at n=5 the explicit rewriting ({direct_sizes:?}) must dwarf the MFA ({mfa_sizes:?})"
    );
}

/// Theorem 5.1: rewriting time and output size are polynomial — the MFA for
/// a chain query over σ₀ grows linearly with the query.
#[test]
fn mfa_rewriting_is_linear_in_query_size_over_the_hospital_view() {
    let view = hospital_view();
    let mut sizes = Vec::new();
    for n in 1..=8usize {
        let query = format!("patient{}", "/parent/patient".repeat(n));
        let q = parse_path(&query).unwrap();
        let mfa = rewrite_to_mfa(&q, &view).unwrap();
        sizes.push(mfa.size());
    }
    // Increments between consecutive sizes must be (roughly) constant:
    // max increment no more than 3x the min increment.
    let increments: Vec<i64> = sizes
        .windows(2)
        .map(|w| w[1] as i64 - w[0] as i64)
        .collect();
    let min = *increments.iter().min().unwrap();
    let max = *increments.iter().max().unwrap();
    assert!(min > 0, "sizes must be strictly increasing: {sizes:?}");
    assert!(max <= 3 * min, "growth is not linear: {sizes:?}");
}
