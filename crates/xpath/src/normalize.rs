//! Algebraic normalisation (simplification) of (regular) XPath queries.
//!
//! The rewriting pipeline composes many small query fragments — view
//! annotations, expanded `//` steps, generated unions — which accumulates
//! algebraic noise: `ε/p`, `p ∪ p`, `(p*)*`, double negations, filters that
//! are trivially true or false, and so on. [`normalize`] applies a set of
//! sound, size-non-increasing rewrite rules until a fixed point is reached.
//!
//! The rules are purely algebraic (they do not consult a DTD), so the
//! normalised query is equivalent to the original on *every* tree — a
//! property the test-suite checks against the reference evaluator.
//!
//! Rules (p, q range over paths; φ over filters):
//!
//! * `ε/p = p/ε = p`
//! * `p ∪ p = p` (syntactic duplicates only)
//! * `(p*)* = p*`, `ε* = ε`
//! * `p[true] = p` where `true` is e.g. `[ε]`
//! * `¬¬φ = φ`
//! * `φ ∧ φ = φ`, `φ ∨ φ = φ`
//! * `φ ∧ ¬φ`-style contradictions and tautologies are *not* folded (that
//!   would require semantic reasoning); only syntactic duplicates are.

use crate::ast::{Path, Pred};

/// Returns an equivalent, usually smaller query in normal form.
pub fn normalize(path: &Path) -> Path {
    let mut current = path.clone();
    loop {
        let next = simplify_path(&current);
        if next == current {
            return next;
        }
        current = next;
    }
}

/// Returns an equivalent, usually smaller filter in normal form.
pub fn normalize_pred(pred: &Pred) -> Pred {
    let mut current = pred.clone();
    loop {
        let next = simplify_pred(&current);
        if next == current {
            return next;
        }
        current = next;
    }
}

fn simplify_path(path: &Path) -> Path {
    match path {
        Path::Empty | Path::Label(_) | Path::AnyLabel | Path::DescendantOrSelf => path.clone(),
        Path::Seq(a, b) => {
            let a = simplify_path(a);
            let b = simplify_path(b);
            match (a, b) {
                (Path::Empty, b) => b,
                (a, Path::Empty) => a,
                // Re-associate to the right so printed forms are stable and
                // duplicate-union detection sees a canonical shape.
                (Path::Seq(a1, a2), b) => {
                    Path::Seq(a1, Box::new(simplify_path(&Path::Seq(a2, Box::new(b)))))
                }
                (a, b) => Path::Seq(Box::new(a), Box::new(b)),
            }
        }
        Path::Union(a, b) => {
            // Canonicalise the whole union chain at once: flatten (either
            // association), drop duplicate members wherever they sit, and
            // rebuild right-nested. The printer emits `a | b | c` for either
            // association and the parser reads it back left-nested, so a
            // canonical shape — with *chain-wide* deduplication, not just
            // adjacent-pair — is required for print/parse round trips to be
            // AST-stable.
            let mut members = Vec::new();
            flatten_union(simplify_path(a), &mut members);
            flatten_union(simplify_path(b), &mut members);
            let mut unique: Vec<Path> = Vec::new();
            for m in members {
                if !unique.contains(&m) {
                    unique.push(m);
                }
            }
            let mut iter = unique.into_iter().rev();
            let mut chain = iter.next().expect("a union has at least one member");
            for m in iter {
                chain = Path::Union(Box::new(m), Box::new(chain));
            }
            chain
        }
        Path::Star(inner) => {
            let inner = simplify_path(inner);
            match inner {
                // `ε* = ε`
                Path::Empty => Path::Empty,
                // `(p*)* = p*`
                Path::Star(nested) => Path::Star(nested),
                // `(p ∪ ε)* = p*` — the ε alternative adds nothing under a star.
                Path::Union(l, r) if matches!(*r, Path::Empty) => Path::Star(l),
                Path::Union(l, r) if matches!(*l, Path::Empty) => Path::Star(r),
                other => Path::Star(Box::new(other)),
            }
        }
        Path::Filter(p, q) => {
            let p = simplify_path(p);
            let q = simplify_pred(q);
            // `p[ε]` is always true (ε selects the context node itself).
            if let Pred::Exists(Path::Empty) = q {
                return p;
            }
            Path::Filter(Box::new(p), Box::new(q))
        }
    }
}

/// Appends the members of an (already simplified) union chain to `out`, in
/// order; non-union paths are single members.
fn flatten_union(path: Path, out: &mut Vec<Path>) {
    match path {
        Path::Union(a, b) => {
            flatten_union(*a, out);
            flatten_union(*b, out);
        }
        other => out.push(other),
    }
}

fn simplify_pred(pred: &Pred) -> Pred {
    match pred {
        Pred::Exists(p) => Pred::Exists(simplify_path(p)),
        Pred::TextEq(p, c) => Pred::TextEq(simplify_path(p), c.clone()),
        Pred::Not(inner) => {
            let inner = simplify_pred(inner);
            match inner {
                // `¬¬φ = φ`
                Pred::Not(again) => *again,
                other => Pred::Not(Box::new(other)),
            }
        }
        Pred::And(a, b) => {
            let a = simplify_pred(a);
            let b = simplify_pred(b);
            if a == b {
                a
            } else {
                Pred::And(Box::new(a), Box::new(b))
            }
        }
        Pred::Or(a, b) => {
            let a = simplify_pred(a);
            let b = simplify_pred(b);
            if a == b {
                a
            } else {
                Pred::Or(Box::new(a), Box::new(b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::evaluate;
    use crate::parser::parse_path;
    use smoqe_xml::XmlTreeBuilder;

    fn sample_tree() -> smoqe_xml::XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let p = b.child(root, "patient");
        let par = b.child(p, "parent");
        let p2 = b.child(par, "patient");
        let r = b.child(p2, "record");
        b.child_with_text(r, "diagnosis", "heart disease");
        let r2 = b.child(p, "record");
        b.child_with_text(r2, "diagnosis", "flu");
        b.finish()
    }

    /// The normalised query must be equivalent and never larger.
    fn assert_equivalent_and_not_larger(query: &str) {
        let tree = sample_tree();
        let parsed = parse_path(query).unwrap();
        let normalized = normalize(&parsed);
        assert!(
            normalized.size() <= parsed.size(),
            "normalisation grew `{query}`: {} -> {}",
            parsed.size(),
            normalized.size()
        );
        assert_eq!(
            evaluate(&tree, tree.root(), &parsed),
            evaluate(&tree, tree.root(), &normalized),
            "normalisation changed the meaning of `{query}`"
        );
    }

    #[test]
    fn removes_identity_steps() {
        assert_eq!(
            normalize(&parse_path("./a/./b/.").unwrap()),
            Path::chain(&["a", "b"])
        );
        assert_eq!(normalize(&parse_path(".").unwrap()), Path::Empty);
    }

    #[test]
    fn collapses_duplicate_unions_and_filters() {
        assert_eq!(normalize(&parse_path("a | a").unwrap()), Path::label("a"));
        assert_eq!(
            normalize(&parse_path("a[b and b]").unwrap()),
            parse_path("a[b]").unwrap()
        );
        assert_eq!(
            normalize(&parse_path("a[b or b]").unwrap()),
            parse_path("a[b]").unwrap()
        );
    }

    #[test]
    fn simplifies_stars() {
        assert_eq!(normalize(&parse_path("(.)*").unwrap()), Path::Empty);
        assert_eq!(
            normalize(&parse_path("((a/b)*)*").unwrap()),
            parse_path("(a/b)*").unwrap()
        );
        assert_eq!(
            normalize(&parse_path("(a | .)*").unwrap()),
            parse_path("a*").unwrap()
        );
    }

    #[test]
    fn removes_trivial_filters_and_double_negation() {
        assert_eq!(normalize(&parse_path("a[.]").unwrap()), Path::label("a"));
        assert_eq!(
            normalize(&parse_path("a[not(not(b))]").unwrap()),
            parse_path("a[b]").unwrap()
        );
        assert_eq!(
            normalize_pred(&Pred::Not(Box::new(Pred::Not(Box::new(Pred::Exists(
                Path::label("x")
            )))))),
            Pred::Exists(Path::label("x"))
        );
    }

    #[test]
    fn normalisation_preserves_semantics_on_a_corpus() {
        for query in [
            "./patient/./record",
            "patient | patient",
            "(patient/parent)*/patient[. and record]",
            "patient[not(not(record))]/record/diagnosis",
            "((patient/parent)*)*/patient",
            "patient[(record | record)/diagnosis/text()='heart disease']",
            "patient[*//record/diagnosis/text()='heart disease']",
            "(. | patient)*/record",
        ] {
            assert_equivalent_and_not_larger(query);
        }
    }

    #[test]
    fn normalisation_is_idempotent() {
        for query in [
            "./a/./b/.",
            "(a | a)[b and b]",
            "((a*)*)*",
            "a[not(not(b or b))]",
        ] {
            let once = normalize(&parse_path(query).unwrap());
            let twice = normalize(&once);
            assert_eq!(once, twice, "not idempotent on `{query}`");
        }
    }

    #[test]
    fn right_association_is_canonical() {
        // Both associations normalise to the same tree.
        let left = Path::Seq(
            Box::new(Path::Seq(
                Box::new(Path::label("a")),
                Box::new(Path::label("b")),
            )),
            Box::new(Path::label("c")),
        );
        let right = Path::chain(&["a", "b", "c"]);
        assert_eq!(normalize(&left), normalize(&right));
    }

    #[test]
    fn union_right_association_is_canonical() {
        // The printer flattens either association to `a | b | c` and the
        // parser reads that back left-nested; normalisation must map both
        // shapes to one canonical AST (PR 2 round-trip sweep).
        let left = Path::Union(
            Box::new(Path::Union(
                Box::new(Path::label("a")),
                Box::new(Path::label("b")),
            )),
            Box::new(Path::label("c")),
        );
        let right = Path::Union(
            Box::new(Path::label("a")),
            Box::new(Path::Union(
                Box::new(Path::label("b")),
                Box::new(Path::label("c")),
            )),
        );
        assert_eq!(normalize(&left), normalize(&right));
        assert_eq!(
            normalize(&left),
            normalize(&parse_path("a | b | c").unwrap())
        );
        // Still equivalent on a real document, and idempotent.
        assert_equivalent_and_not_larger("patient | record | diagnosis | patient");
        assert_eq!(normalize(&normalize(&left)), normalize(&left));
    }

    #[test]
    fn union_duplicates_are_dropped_chain_wide() {
        // Regression (code review of PR 2): `a | (a | b)` used to keep both
        // `a`s — the duplicate check only compared siblings — so it printed
        // as `a | a | b`, reparsed left-nested, and normalized differently.
        let dup = Path::Union(
            Box::new(Path::label("a")),
            Box::new(Path::Union(
                Box::new(Path::label("a")),
                Box::new(Path::label("b")),
            )),
        );
        assert_eq!(normalize(&dup), normalize(&parse_path("a | b").unwrap()));
        let reparsed = parse_path(&dup.to_string()).unwrap();
        assert_eq!(normalize(&reparsed), normalize(&dup));
        assert_eq!(
            normalize(&parse_path("a | b | a | c | b").unwrap()),
            normalize(&parse_path("a | b | c").unwrap())
        );
        assert_equivalent_and_not_larger("patient | (patient | record)");
    }
}
