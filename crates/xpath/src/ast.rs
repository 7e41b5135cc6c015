//! Abstract syntax for regular XPath (`Xreg`) and the XPath fragment `X`.
//!
//! A single AST covers both fragments of the paper: pure `Xreg` uses
//! [`Path::Star`] for recursion, while the fragment `X` uses
//! [`Path::DescendantOrSelf`] (`//`) and may use the wildcard step
//! [`Path::AnyLabel`] (`*`). [`crate::expand::expand_on_dtd`] rewrites the
//! latter two into pure `Xreg` over a DTD, as described in Section 2.1.

use std::fmt;

/// A path expression `Q` of the paper's grammar.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Path {
    /// `ε` — the empty path (self).
    Empty,
    /// `A` — move to the children labelled `A`.
    Label(String),
    /// `*` — move to all children, whatever their label (wildcard step).
    ///
    /// Not part of the formal grammar but used by the paper's example
    /// queries; expressible as the union of all labels of the DTD.
    AnyLabel,
    /// `//` — the descendant-or-self axis of the XPath fragment `X`.
    ///
    /// Expressible in `Xreg` as `(⋃ Ele)*` for the DTD's label set `Ele`.
    DescendantOrSelf,
    /// `Q1/Q2` — concatenation (child composition).
    Seq(Box<Path>, Box<Path>),
    /// `Q1 ∪ Q2` — union.
    Union(Box<Path>, Box<Path>),
    /// `Q*` — the general Kleene closure (regular XPath only).
    Star(Box<Path>),
    /// `Q[q]` — `Q` filtered by the predicate `q`.
    Filter(Box<Path>, Box<Pred>),
}

/// A filter (predicate) `q` of the paper's grammar.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Pred {
    /// `Q` — satisfied iff `Q` selects at least one node from here.
    Exists(Path),
    /// `Q/text() = 'c'` — satisfied iff some node selected by `Q` carries
    /// exactly the text `c`.
    TextEq(Path, String),
    /// `¬ q`.
    Not(Box<Pred>),
    /// `q1 ∧ q2`.
    And(Box<Pred>, Box<Pred>),
    /// `q1 ∨ q2`.
    Or(Box<Pred>, Box<Pred>),
}

impl Path {
    /// Convenience constructor for a label step.
    pub fn label(name: &str) -> Self {
        Path::Label(name.to_owned())
    }

    /// `self / next`.
    pub fn then(self, next: Path) -> Self {
        Path::Seq(Box::new(self), Box::new(next))
    }

    /// `self ∪ other`.
    pub fn or(self, other: Path) -> Self {
        Path::Union(Box::new(self), Box::new(other))
    }

    /// `self*`.
    pub fn star(self) -> Self {
        Path::Star(Box::new(self))
    }

    /// `self[pred]`.
    pub fn filter(self, pred: Pred) -> Self {
        Path::Filter(Box::new(self), Box::new(pred))
    }

    /// Builds the chain `a/b/c/…` from a slice of labels.
    ///
    /// Sequences are right-nested (`a/(b/c)`), matching the shape produced
    /// by the parser so that programmatically built queries compare equal to
    /// parsed ones.
    pub fn chain(labels: &[&str]) -> Self {
        let mut iter = labels.iter().rev();
        let last = iter.next().expect("chain of at least one label");
        let mut path = Path::label(last);
        for l in iter {
            path = Path::Seq(Box::new(Path::label(l)), Box::new(path));
        }
        path
    }

    /// The size `|Q|` of the query: the number of AST nodes, the measure
    /// used in the paper's complexity bounds (Theorem 5.1, Corollary 3.3).
    pub fn size(&self) -> usize {
        match self {
            Path::Empty | Path::Label(_) | Path::AnyLabel | Path::DescendantOrSelf => 1,
            Path::Seq(a, b) | Path::Union(a, b) => 1 + a.size() + b.size(),
            Path::Star(a) => 1 + a.size(),
            Path::Filter(p, q) => 1 + p.size() + q.size(),
        }
    }

    /// `true` if the path contains a Kleene star anywhere (including inside
    /// filters). Queries with stars are in `Xreg` but not in `X`.
    pub fn contains_star(&self) -> bool {
        match self {
            Path::Empty | Path::Label(_) | Path::AnyLabel | Path::DescendantOrSelf => false,
            Path::Seq(a, b) | Path::Union(a, b) => a.contains_star() || b.contains_star(),
            Path::Star(_) => true,
            Path::Filter(p, q) => p.contains_star() || q.contains_star(),
        }
    }

    /// `true` if the path contains `//` or `*` steps, i.e. uses the XPath
    /// fragment's syntax that must be expanded before automaton compilation
    /// over a view.
    pub fn contains_xpath_axes(&self) -> bool {
        match self {
            Path::Empty | Path::Label(_) => false,
            Path::AnyLabel | Path::DescendantOrSelf => true,
            Path::Seq(a, b) | Path::Union(a, b) => {
                a.contains_xpath_axes() || b.contains_xpath_axes()
            }
            Path::Star(a) => a.contains_xpath_axes(),
            Path::Filter(p, q) => p.contains_xpath_axes() || q.contains_xpath_axes(),
        }
    }

    /// All labels mentioned in the path (and its filters).
    pub fn labels(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_labels(&mut out);
        out
    }

    fn collect_labels<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Path::Empty | Path::AnyLabel | Path::DescendantOrSelf => {}
            Path::Label(l) => out.push(l),
            Path::Seq(a, b) | Path::Union(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
            Path::Star(a) => a.collect_labels(out),
            Path::Filter(p, q) => {
                p.collect_labels(out);
                q.collect_labels(out);
            }
        }
    }
}

impl Pred {
    /// Predicate testing that `path` selects at least one node.
    pub fn exists(path: Path) -> Self {
        Pred::Exists(path)
    }

    /// Predicate `path/text() = value`.
    pub fn text_eq(path: Path, value: &str) -> Self {
        Pred::TextEq(path, value.to_owned())
    }

    /// `¬ self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Pred::Not(Box::new(self))
    }

    /// `self ∧ other`.
    pub fn and(self, other: Pred) -> Self {
        Pred::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: Pred) -> Self {
        Pred::Or(Box::new(self), Box::new(other))
    }

    /// The number of AST nodes of the predicate.
    pub fn size(&self) -> usize {
        match self {
            Pred::Exists(p) => 1 + p.size(),
            Pred::TextEq(p, _) => 1 + p.size(),
            Pred::Not(q) => 1 + q.size(),
            Pred::And(a, b) | Pred::Or(a, b) => 1 + a.size() + b.size(),
        }
    }

    /// `true` if any path inside the predicate contains a Kleene star.
    pub fn contains_star(&self) -> bool {
        match self {
            Pred::Exists(p) | Pred::TextEq(p, _) => p.contains_star(),
            Pred::Not(q) => q.contains_star(),
            Pred::And(a, b) | Pred::Or(a, b) => a.contains_star() || b.contains_star(),
        }
    }

    /// `true` if any path inside the predicate uses `//` or `*`.
    pub fn contains_xpath_axes(&self) -> bool {
        match self {
            Pred::Exists(p) | Pred::TextEq(p, _) => p.contains_xpath_axes(),
            Pred::Not(q) => q.contains_xpath_axes(),
            Pred::And(a, b) | Pred::Or(a, b) => a.contains_xpath_axes() || b.contains_xpath_axes(),
        }
    }

    fn collect_labels<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Pred::Exists(p) | Pred::TextEq(p, _) => p.collect_labels(out),
            Pred::Not(q) => q.collect_labels(out),
            Pred::And(a, b) | Pred::Or(a, b) => {
                a.collect_labels(out);
                b.collect_labels(out);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Pretty-printing. The printers emit the ASCII surface syntax accepted by the
// parser, so `parse_path(&q.to_string()) == q` up to redundant parentheses
// (verified by property tests).
// ---------------------------------------------------------------------------

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl Path {
    /// Appends the steps of a `Seq` chain — in either association — to
    /// `out`, in order. Non-`Seq` paths are single steps.
    fn flatten_seq<'p>(&'p self, out: &mut Vec<&'p Path>) {
        match self {
            Path::Seq(a, b) => {
                a.flatten_seq(out);
                b.flatten_seq(out);
            }
            other => out.push(other),
        }
    }

    /// Precedence levels: 0 = union, 1 = sequence, 2 = postfix/primary.
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
        match self {
            Path::Empty => write!(f, "."),
            Path::Label(l) => write!(f, "{l}"),
            Path::AnyLabel => write!(f, "*"),
            // A bare descendant-or-self step prints as `.//.` — the closest
            // concrete syntax; `a//b` is handled by the Seq arm below.
            Path::DescendantOrSelf => write!(f, ".//."),
            Path::Union(a, b) => {
                if prec > 0 {
                    write!(f, "(")?;
                }
                a.fmt_prec(f, 0)?;
                write!(f, " | ")?;
                b.fmt_prec(f, 0)?;
                if prec > 0 {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Path::Seq(..) => {
                if prec > 1 {
                    write!(f, "(")?;
                }
                // Print the whole chain at once: a descendant-or-self step
                // becomes the `//` separator (`a//b`, or a leading `//b`),
                // and where that shorthand cannot be used — two axes in a
                // row, or a trailing axis — an explicit `.` step keeps the
                // output parseable (`a//.//b`, `a//.`). Flattening the chain
                // first is what makes this safe for *any* association: a
                // nested `Seq(DescendantOrSelf, x)` must never print its
                // leading-`//` form in the middle of a chain (`a///x`).
                let mut steps = Vec::new();
                self.flatten_seq(&mut steps);
                let mut first = true;
                let mut pending_axis = false;
                for step in steps {
                    if matches!(step, Path::DescendantOrSelf) {
                        if pending_axis {
                            write!(f, "//.")?;
                            first = false;
                        }
                        pending_axis = true;
                        continue;
                    }
                    match (first, pending_axis) {
                        (true, true) | (false, true) => write!(f, "//")?,
                        (true, false) => {}
                        (false, false) => write!(f, "/")?,
                    }
                    step.fmt_prec(f, 1)?;
                    first = false;
                    pending_axis = false;
                }
                if pending_axis {
                    // The chain ends in a descendant axis (`a//` would not
                    // parse); `Seq` always has ≥ 2 steps, so `first` can only
                    // still be true for an all-axis chain, whose earlier
                    // axes were materialised above.
                    write!(f, "//.")?;
                }
                if prec > 1 {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Path::Star(a) => {
                match **a {
                    Path::Label(_) | Path::Empty | Path::AnyLabel => a.fmt_prec(f, 2)?,
                    _ => {
                        write!(f, "(")?;
                        a.fmt_prec(f, 0)?;
                        write!(f, ")")?;
                    }
                }
                write!(f, "*")
            }
            Path::Filter(p, q) => {
                match **p {
                    Path::Label(_) | Path::Empty | Path::AnyLabel | Path::Filter(..) => {
                        p.fmt_prec(f, 2)?
                    }
                    _ => {
                        write!(f, "(")?;
                        p.fmt_prec(f, 0)?;
                        write!(f, ")")?;
                    }
                }
                write!(f, "[{q}]")
            }
        }
    }
}

impl fmt::Display for Pred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl Pred {
    /// Precedence levels: 0 = or, 1 = and, 2 = not/atom.
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
        match self {
            Pred::Exists(p) => write!(f, "{p}"),
            Pred::TextEq(p, c) => {
                if matches!(p, Path::Empty) {
                    write!(f, "text() = \"{c}\"")
                } else {
                    write!(f, "{p}/text() = \"{c}\"")
                }
            }
            Pred::Not(q) => {
                write!(f, "not(")?;
                q.fmt_prec(f, 0)?;
                write!(f, ")")
            }
            Pred::And(a, b) => {
                if prec > 1 {
                    write!(f, "(")?;
                }
                a.fmt_prec(f, 1)?;
                write!(f, " and ")?;
                b.fmt_prec(f, 2)?;
                if prec > 1 {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Pred::Or(a, b) => {
                if prec > 0 {
                    write!(f, "(")?;
                }
                a.fmt_prec(f, 0)?;
                write!(f, " or ")?;
                b.fmt_prec(f, 1)?;
                if prec > 0 {
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_compose() {
        // Q0 of Example 4.1: (patient/parent)*/patient[q0]
        let q0 = Pred::text_eq(
            Path::chain(&["parent", "patient"])
                .star()
                .then(Path::chain(&["record", "diagnosis"])),
            "heart disease",
        );
        let q = Path::chain(&["patient", "parent"])
            .star()
            .then(Path::label("patient").filter(q0));
        assert!(q.contains_star());
        assert!(!q.contains_xpath_axes());
        assert!(q.size() > 10);
    }

    #[test]
    fn size_counts_every_node() {
        assert_eq!(Path::Empty.size(), 1);
        assert_eq!(Path::label("a").size(), 1);
        assert_eq!(Path::label("a").then(Path::label("b")).size(), 3);
        assert_eq!(Path::label("a").star().size(), 2);
        assert_eq!(
            Path::label("a")
                .filter(Pred::exists(Path::label("b")))
                .size(),
            4
        );
        assert_eq!(
            Pred::exists(Path::label("a"))
                .and(Pred::exists(Path::label("b")))
                .size(),
            5
        );
    }

    #[test]
    fn display_simple_paths() {
        assert_eq!(Path::chain(&["a", "b", "c"]).to_string(), "a/b/c");
        assert_eq!(Path::label("a").or(Path::label("b")).to_string(), "a | b");
        assert_eq!(
            Path::chain(&["a", "b"])
                .star()
                .then(Path::label("c"))
                .to_string(),
            "(a/b)*/c"
        );
        assert_eq!(Path::AnyLabel.to_string(), "*");
    }

    #[test]
    fn display_descendant_axis_uses_double_slash() {
        let p = Path::label("a").then(Path::DescendantOrSelf.then(Path::label("b")));
        assert_eq!(p.to_string(), "a//b");
    }

    #[test]
    fn display_filters_and_predicates() {
        let q = Path::label("patient").filter(
            Pred::text_eq(Path::chain(&["record", "diagnosis"]), "heart disease")
                .and(Pred::exists(Path::label("parent")).not()),
        );
        assert_eq!(
            q.to_string(),
            "patient[record/diagnosis/text() = \"heart disease\" and not(parent)]"
        );
    }

    #[test]
    fn labels_are_collected_from_paths_and_filters() {
        let q = Path::label("a")
            .filter(Pred::exists(Path::label("b")))
            .then(Path::label("c"));
        let labels = q.labels();
        assert_eq!(labels, vec!["a", "b", "c"]);
    }

    #[test]
    fn xpath_axis_detection() {
        let q = Path::label("a")
            .then(Path::DescendantOrSelf)
            .then(Path::label("b"));
        assert!(q.contains_xpath_axes());
        assert!(!q.contains_star());
        let r = Path::label("a").filter(Pred::exists(Path::AnyLabel));
        assert!(r.contains_xpath_axes());
    }

    #[test]
    fn union_precedence_in_display() {
        // (a | b)/c must keep its parentheses.
        let p = Path::label("a").or(Path::label("b")).then(Path::label("c"));
        assert_eq!(p.to_string(), "(a | b)/c");
    }

    // -----------------------------------------------------------------------
    // Print/parse round-trip corners (PR 2 sweep): each programmatically
    // built AST must survive `parse(display(p))` up to normalisation. The
    // exhaustive version of this check is the `display_parse_round_trip_
    // normalizes_to_the_same_ast` property test in the integration suite.
    // -----------------------------------------------------------------------

    use crate::normalize::normalize;
    use crate::parser::parse_path;

    fn assert_round_trips(p: &Path) {
        let printed = p.to_string();
        let reparsed =
            parse_path(&printed).unwrap_or_else(|e| panic!("re-parse of `{printed}` failed: {e}"));
        assert_eq!(
            normalize(&reparsed),
            normalize(p),
            "`{printed}` re-parses to a different AST"
        );
    }

    #[test]
    fn nested_unions_round_trip_in_both_associations() {
        let a = || Path::label("a");
        let b = || Path::label("b");
        let c = || Path::label("c");
        let d = || Path::label("d");
        // Right-nested: prints flat, reparses left-nested — normalisation
        // must reconcile the two.
        assert_round_trips(&a().or(b().or(c())));
        assert_round_trips(&a().or(b()).or(c()));
        assert_round_trips(&a().or(b()).or(c().or(d())));
        // Unions under sequence, star and filter keep their grouping.
        assert_round_trips(&a().or(b().then(c())).or(d()));
        assert_round_trips(&a().or(b()).star().then(c().or(d())));
        assert_round_trips(&Path::Filter(
            Box::new(a().or(b()).or(c())),
            Box::new(Pred::exists(d().or(a()))),
        ));
    }

    #[test]
    fn negation_corners_round_trip() {
        let a = || Path::label("a");
        let b = || Path::label("b");
        assert_round_trips(&a().filter(Pred::exists(b()).not()));
        assert_round_trips(&a().filter(Pred::exists(b()).not().not()));
        assert_round_trips(&a().filter(Pred::exists(b()).not().and(Pred::text_eq(a(), "x").not())));
        assert_round_trips(&a().filter(Pred::exists(b()).or(Pred::exists(a())).not()));
        // not over a union path and over a starred group.
        assert_round_trips(&a().filter(Pred::exists(a().or(b())).not()));
        assert_round_trips(&a().filter(Pred::exists(a().then(b()).star()).not()));
    }

    #[test]
    fn kleene_group_corners_round_trip() {
        let a = || Path::label("a");
        let b = || Path::label("b");
        assert_round_trips(&a().star());
        assert_round_trips(&a().star().star());
        assert_round_trips(&Path::Empty.star());
        assert_round_trips(&Path::AnyLabel.star());
        assert_round_trips(&a().then(b()).star());
        assert_round_trips(&a().or(b()).star());
        assert_round_trips(&a().filter(Pred::exists(b())).star());
        assert_round_trips(&a().star().filter(Pred::exists(b().star())));
        assert_round_trips(&Path::DescendantOrSelf.star());
        assert_round_trips(&Path::DescendantOrSelf.then(a()).star());
    }

    #[test]
    fn nested_leading_axis_groups_do_not_print_triple_slashes() {
        // Regression (found by the differential property test): a left-nested
        // `Seq(DescendantOrSelf, ε)` used to print its leading-`//` shorthand
        // in the middle of a chain, yielding the unparseable `a///./.`.
        let p = Path::Seq(
            Box::new(Path::label("a")),
            Box::new(Path::Seq(
                Box::new(Path::Seq(
                    Box::new(Path::DescendantOrSelf),
                    Box::new(Path::Empty),
                )),
                Box::new(Path::Empty),
            )),
        );
        assert_eq!(p.to_string(), "a//./.");
        assert_round_trips(&p);
        // Adjacent and trailing axes materialise explicit `.` steps.
        assert_eq!(
            Path::DescendantOrSelf
                .then(Path::DescendantOrSelf)
                .to_string(),
            "//.//."
        );
        assert_eq!(
            Path::label("a").then(Path::DescendantOrSelf).to_string(),
            "a//."
        );
        assert_eq!(
            Path::label("a")
                .then(Path::DescendantOrSelf)
                .then(Path::DescendantOrSelf)
                .then(Path::label("b"))
                .to_string(),
            "a//.//b"
        );
    }

    #[test]
    fn descendant_axis_corners_round_trip() {
        let a = || Path::label("a");
        let b = || Path::label("b");
        assert_round_trips(&Path::DescendantOrSelf);
        assert_round_trips(&Path::DescendantOrSelf.then(a()));
        assert_round_trips(&a().then(Path::DescendantOrSelf));
        assert_round_trips(
            &a().then(Path::DescendantOrSelf.then(Path::DescendantOrSelf.then(b()))),
        );
        assert_round_trips(&Path::DescendantOrSelf.then(Path::DescendantOrSelf));
        assert_round_trips(&Path::Filter(
            Box::new(Path::DescendantOrSelf),
            Box::new(Pred::exists(b())),
        ));
        assert_round_trips(
            &Pred::text_eq(Path::DescendantOrSelf.then(a()), "x")
                .pipe(|q| Path::label("p").filter(q)),
        );
    }

    #[test]
    fn boolean_operator_associativity_round_trips() {
        let e = |l: &str| Pred::exists(Path::label(l));
        let p = |q: Pred| Path::label("p").filter(q);
        assert_round_trips(&p(e("a").and(e("b").and(e("c")))));
        assert_round_trips(&p(e("a").and(e("b")).and(e("c"))));
        assert_round_trips(&p(e("a").or(e("b").or(e("c")))));
        assert_round_trips(&p(e("a").or(e("b")).or(e("c"))));
        assert_round_trips(&p(e("a").and(e("b")).or(e("c").and(e("d")))));
        assert_round_trips(&p(e("a").or(e("b")).and(e("c").or(e("d")))));
    }

    /// Small test-only helper: apply `f` to `self` (lets predicate builders
    /// read left-to-right in the round-trip corner tests).
    trait Pipe: Sized {
        fn pipe<T>(self, f: impl FnOnce(Self) -> T) -> T {
            f(self)
        }
    }
    impl<T> Pipe for T {}
}
