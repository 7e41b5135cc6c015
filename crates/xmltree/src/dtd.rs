//! The DTD model of Section 2.2 of the paper.
//!
//! A DTD is a triple `(Ele, P, r)`: a finite set of element types, a
//! distinguished root type `r`, and for every type `A` a production `P(A)`
//! of one of the normal forms
//!
//! * `str` — the element carries PCDATA,
//! * `ε` — the element is empty,
//! * `B1, …, Bn` — concatenation, where each `Bi` is a type `B` or `B*`,
//! * `B1 + … + Bn` — disjunction (n > 1).
//!
//! The paper notes any DTD can be normalized into this form by introducing
//! fresh element types, so this representation does not lose generality.
//!
//! A DTD is *recursive* iff its [`DtdGraph`] is cyclic; both DTDs of the
//! paper's running example (Fig. 1) are recursive.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::error::XmlError;
use crate::tree::{NodeId, XmlTree};

/// One child occurrence inside a concatenation production: a type name and
/// whether it is starred (`B*`, i.e. a list of zero or more `B` children).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Child {
    /// Child element type name.
    pub ty: String,
    /// `true` if the child may repeat (the paper's `B*`).
    pub starred: bool,
}

impl Child {
    /// A single mandatory child `B`.
    pub fn one(ty: &str) -> Self {
        Child {
            ty: ty.to_owned(),
            starred: false,
        }
    }

    /// A starred child `B*`.
    pub fn star(ty: &str) -> Self {
        Child {
            ty: ty.to_owned(),
            starred: true,
        }
    }
}

/// The production `P(A)` of an element type, in the paper's normal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContentModel {
    /// `P(A) = str`: the element carries PCDATA and has no element children.
    Text,
    /// `P(A) = ε`: the element is empty.
    Empty,
    /// `P(A) = B1, …, Bn`: a concatenation of (possibly starred) child types.
    Sequence(Vec<Child>),
    /// `P(A) = B1 + … + Bn`: exactly one of the listed child types (n > 1).
    Choice(Vec<String>),
}

impl ContentModel {
    /// All child element types mentioned by this production.
    pub fn child_types(&self) -> Vec<&str> {
        match self {
            ContentModel::Text | ContentModel::Empty => Vec::new(),
            ContentModel::Sequence(children) => children.iter().map(|c| c.ty.as_str()).collect(),
            ContentModel::Choice(options) => options.iter().map(|s| s.as_str()).collect(),
        }
    }
}

impl fmt::Display for ContentModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentModel::Text => write!(f, "str"),
            ContentModel::Empty => write!(f, "ε"),
            ContentModel::Sequence(children) => {
                let parts: Vec<String> = children
                    .iter()
                    .map(|c| {
                        if c.starred {
                            format!("{}*", c.ty)
                        } else {
                            c.ty.clone()
                        }
                    })
                    .collect();
                write!(f, "{}", parts.join(", "))
            }
            ContentModel::Choice(options) => write!(f, "{}", options.join(" + ")),
        }
    }
}

/// A DTD `(Ele, P, r)` in the paper's normal form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dtd {
    root: String,
    productions: BTreeMap<String, ContentModel>,
}

impl Dtd {
    /// Creates a DTD with root type `root` and no productions yet.
    pub fn new(root: &str) -> Self {
        Dtd {
            root: root.to_owned(),
            productions: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) the production of element type `ty`.
    pub fn define(&mut self, ty: &str, model: ContentModel) -> &mut Self {
        self.productions.insert(ty.to_owned(), model);
        self
    }

    /// The root element type `r`.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// The production `P(A)` of `ty`, if defined.
    pub fn production(&self, ty: &str) -> Option<&ContentModel> {
        self.productions.get(ty)
    }

    /// All element types `Ele` with a production, in sorted order.
    pub fn element_types(&self) -> Vec<&str> {
        self.productions.keys().map(|s| s.as_str()).collect()
    }

    /// Number of element types.
    pub fn len(&self) -> usize {
        self.productions.len()
    }

    /// Returns `true` if the DTD defines no element types.
    pub fn is_empty(&self) -> bool {
        self.productions.is_empty()
    }

    /// Size measure `|DV|` used in the paper's complexity bounds: the number
    /// of element types plus the total number of child occurrences across
    /// all productions (i.e. the number of edges of the DTD graph counted
    /// with multiplicity).
    pub fn size(&self) -> usize {
        self.productions.len()
            + self
                .productions
                .values()
                .map(|m| m.child_types().len())
                .sum::<usize>()
    }

    /// Builds the DTD graph (nodes = element types, edges = child relations).
    pub fn graph(&self) -> DtdGraph {
        let mut edges: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        for (ty, model) in &self.productions {
            let entry = edges.entry(ty.clone()).or_default();
            for child in model.child_types() {
                entry.insert(child.to_owned());
            }
        }
        DtdGraph {
            root: self.root.clone(),
            edges,
        }
    }

    /// Returns `true` if the DTD is recursive, i.e. its graph is cyclic.
    pub fn is_recursive(&self) -> bool {
        self.graph().is_cyclic()
    }

    /// Checks that every child type referenced by a production is itself
    /// defined, and that the root type is defined.
    pub fn check_well_formed(&self) -> Result<(), XmlError> {
        if !self.productions.contains_key(&self.root) {
            return Err(XmlError::UndefinedElementType(self.root.clone()));
        }
        for model in self.productions.values() {
            for child in model.child_types() {
                if !self.productions.contains_key(child) {
                    return Err(XmlError::UndefinedElementType(child.to_owned()));
                }
            }
        }
        Ok(())
    }

    /// Whether every parent→child label pair in `tree` is permitted by the
    /// DTD's productions, and every label the tree uses is a defined element
    /// type.
    ///
    /// This is strictly weaker than [`Dtd::validate`] — it ignores child
    /// order, multiplicity and PCDATA placement — but it is *exactly* the
    /// soundness condition of DTD-derived reachability pruning
    /// (OptHyPE(-C)): skipping the subtree under an `A` element on the
    /// grounds that the DTD says no interesting type occurs below `A` is
    /// valid iff the subtree only uses edges the DTD allows. Documents
    /// mutated by edit scripts can violate this (a label inserted where the
    /// DTD does not produce it), in which case pruning must be disabled.
    pub fn edge_conformant(&self, tree: &XmlTree) -> bool {
        let labels = tree.labels();
        // Per document label id: the set of child label ids its production
        // permits, or `None` when the label is not a DTD element type.
        let allowed: Vec<Option<BTreeSet<crate::LabelId>>> = labels
            .iter()
            .map(|(_, name)| {
                self.production(name).map(|model| {
                    model
                        .child_types()
                        .into_iter()
                        .filter_map(|ty| labels.get(ty))
                        .collect()
                })
            })
            .collect();
        if allowed.iter().any(Option::is_none) {
            return false; // a label the DTD does not define occurs
        }
        tree.node_ids().all(|node| {
            let ok = allowed[tree.label(node).index()]
                .as_ref()
                .expect("checked above");
            tree.children(node)
                .iter()
                .all(|&child| ok.contains(&tree.label(child)))
        })
    }

    /// Validates a document tree against this DTD.
    ///
    /// Checks that the root label matches `r`, that every element's children
    /// conform to its production (sequence order and multiplicity for
    /// `Sequence`, exactly one alternative for `Choice`, no children for
    /// `Text`/`Empty`), and that only `Text` elements carry PCDATA.
    pub fn validate(&self, tree: &XmlTree) -> Result<(), XmlError> {
        self.check_well_formed()?;
        let root_label = tree.label_name(tree.root());
        if root_label != self.root {
            return Err(XmlError::RootMismatch {
                expected: self.root.clone(),
                found: root_label.to_owned(),
            });
        }
        for id in tree.node_ids() {
            self.validate_node(tree, id)?;
        }
        Ok(())
    }

    fn validate_node(&self, tree: &XmlTree, id: NodeId) -> Result<(), XmlError> {
        let label = tree.label_name(id);
        let model = self
            .production(label)
            .ok_or_else(|| XmlError::UndefinedElementType(label.to_owned()))?;
        let child_labels: Vec<&str> = tree
            .children(id)
            .iter()
            .map(|&c| tree.label_name(c))
            .collect();
        match model {
            ContentModel::Text => {
                if !child_labels.is_empty() {
                    return Err(XmlError::InvalidContent {
                        element: label.to_owned(),
                        reason: "text element must not have element children".to_owned(),
                    });
                }
            }
            ContentModel::Empty => {
                if !child_labels.is_empty() {
                    return Err(XmlError::InvalidContent {
                        element: label.to_owned(),
                        reason: "empty element must not have children".to_owned(),
                    });
                }
                if tree.text(id).is_some() {
                    return Err(XmlError::InvalidContent {
                        element: label.to_owned(),
                        reason: "empty element must not carry text".to_owned(),
                    });
                }
            }
            ContentModel::Sequence(expected) => {
                if !Self::matches_sequence(expected, &child_labels) {
                    return Err(XmlError::InvalidContent {
                        element: label.to_owned(),
                        reason: format!(
                            "children [{}] do not match production `{}`",
                            child_labels.join(", "),
                            model
                        ),
                    });
                }
            }
            ContentModel::Choice(options) => {
                if child_labels.len() != 1 || !options.iter().any(|o| o == child_labels[0]) {
                    return Err(XmlError::InvalidContent {
                        element: label.to_owned(),
                        reason: format!(
                            "children [{}] do not match choice production `{}`",
                            child_labels.join(", "),
                            model
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Greedy matcher for the restricted sequences of the normal form:
    /// each item consumes either exactly one child (unstarred) or a maximal
    /// run of children (starred). Because each `Bi` names a concrete type,
    /// greedy matching is unambiguous.
    fn matches_sequence(expected: &[Child], children: &[&str]) -> bool {
        let mut pos = 0;
        for item in expected {
            if item.starred {
                while pos < children.len() && children[pos] == item.ty {
                    pos += 1;
                }
            } else {
                if pos >= children.len() || children[pos] != item.ty {
                    return false;
                }
                pos += 1;
            }
        }
        pos == children.len()
    }
}

/// The DTD graph: element types as nodes, child relations as edges.
#[derive(Debug, Clone)]
pub struct DtdGraph {
    root: String,
    edges: BTreeMap<String, BTreeSet<String>>,
}

impl DtdGraph {
    /// The root element type.
    pub fn root(&self) -> &str {
        &self.root
    }

    /// Direct child types of `ty`.
    pub fn children_of(&self, ty: &str) -> Vec<&str> {
        self.edges
            .get(ty)
            .map(|s| s.iter().map(|x| x.as_str()).collect())
            .unwrap_or_default()
    }

    /// Returns `true` if the graph contains a cycle (the DTD is recursive).
    pub fn is_cyclic(&self) -> bool {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: HashMap<&str, Mark> = self
            .edges
            .keys()
            .map(|k| (k.as_str(), Mark::White))
            .collect();

        // Iterative DFS with an explicit stack; (node, child-iterator index).
        for start in self.edges.keys() {
            if marks[start.as_str()] != Mark::White {
                continue;
            }
            let mut stack: Vec<(&str, Vec<&str>, usize)> =
                vec![(start.as_str(), self.children_of(start), 0)];
            marks.insert(start.as_str(), Mark::Grey);
            while let Some((node, children, idx)) = stack.last_mut() {
                if *idx < children.len() {
                    let next = children[*idx];
                    *idx += 1;
                    match marks.get(next).copied().unwrap_or(Mark::Black) {
                        Mark::Grey => return true,
                        Mark::White => {
                            marks.insert(next, Mark::Grey);
                            stack.push((next, self.children_of(next), 0));
                        }
                        Mark::Black => {}
                    }
                } else {
                    marks.insert(node, Mark::Black);
                    stack.pop();
                }
            }
        }
        false
    }

    /// The set of element types reachable from `ty` (including `ty` itself).
    pub fn reachable_from(&self, ty: &str) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut stack = vec![ty.to_owned()];
        while let Some(t) = stack.pop() {
            if seen.insert(t.clone()) {
                for c in self.children_of(&t) {
                    if !seen.contains(c) {
                        stack.push(c.to_owned());
                    }
                }
            }
        }
        seen
    }

    /// For every element type, the set of types reachable strictly below it
    /// (descendant types). This is the structure behind the paper's OptHyPE
    /// index: a subtree rooted at an `A` element can only contain labels in
    /// `descendant_types(A) ∪ {A}`.
    pub fn descendant_types(&self) -> BTreeMap<String, BTreeSet<String>> {
        let mut out = BTreeMap::new();
        for ty in self.edges.keys() {
            let mut reach = BTreeSet::new();
            for c in self.children_of(ty) {
                reach.extend(self.reachable_from(c));
            }
            out.insert(ty.clone(), reach);
        }
        out
    }

    /// All element types present in the graph.
    pub fn types(&self) -> Vec<&str> {
        self.edges.keys().map(|s| s.as_str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::XmlTreeBuilder;

    /// A tiny non-recursive DTD: library -> book*, book -> title, title -> str.
    fn library_dtd() -> Dtd {
        let mut d = Dtd::new("library");
        d.define("library", ContentModel::Sequence(vec![Child::star("book")]))
            .define(
                "book",
                ContentModel::Sequence(vec![Child::one("title"), Child::star("author")]),
            )
            .define("title", ContentModel::Text)
            .define("author", ContentModel::Text);
        d
    }

    /// A recursive DTD: part -> part*, name.
    fn parts_dtd() -> Dtd {
        let mut d = Dtd::new("part");
        d.define(
            "part",
            ContentModel::Sequence(vec![Child::star("part"), Child::one("name")]),
        )
        .define("name", ContentModel::Text);
        d
    }

    #[test]
    fn library_is_well_formed_and_non_recursive() {
        let d = library_dtd();
        d.check_well_formed().unwrap();
        assert!(!d.is_recursive());
        assert_eq!(d.root(), "library");
        assert_eq!(
            d.element_types(),
            vec!["author", "book", "library", "title"]
        );
    }

    #[test]
    fn parts_is_recursive() {
        let d = parts_dtd();
        d.check_well_formed().unwrap();
        assert!(d.is_recursive());
    }

    #[test]
    fn undefined_child_type_is_rejected() {
        let mut d = Dtd::new("a");
        d.define("a", ContentModel::Sequence(vec![Child::one("missing")]));
        assert_eq!(
            d.check_well_formed(),
            Err(XmlError::UndefinedElementType("missing".to_owned()))
        );
    }

    #[test]
    fn dtd_size_counts_types_and_edges() {
        let d = library_dtd();
        // 4 types + (1 child of library + 2 children of book) = 7
        assert_eq!(d.size(), 7);
    }

    #[test]
    fn validate_accepts_conforming_document() {
        let d = library_dtd();
        let mut b = XmlTreeBuilder::new();
        let root = b.root("library");
        let book = b.child(root, "book");
        b.child_with_text(book, "title", "Databases");
        b.child_with_text(book, "author", "Fan");
        b.child_with_text(book, "author", "Geerts");
        let t = b.finish();
        d.validate(&t).unwrap();
    }

    #[test]
    fn validate_rejects_wrong_root() {
        let d = library_dtd();
        let mut b = XmlTreeBuilder::new();
        b.root("shop");
        let t = b.finish();
        assert!(matches!(d.validate(&t), Err(XmlError::RootMismatch { .. })));
    }

    #[test]
    fn validate_rejects_out_of_order_sequence() {
        let d = library_dtd();
        let mut b = XmlTreeBuilder::new();
        let root = b.root("library");
        let book = b.child(root, "book");
        b.child_with_text(book, "author", "Fan");
        b.child_with_text(book, "title", "Databases");
        let t = b.finish();
        assert!(matches!(
            d.validate(&t),
            Err(XmlError::InvalidContent { .. })
        ));
    }

    #[test]
    fn validate_rejects_missing_mandatory_child() {
        let d = library_dtd();
        let mut b = XmlTreeBuilder::new();
        let root = b.root("library");
        b.child(root, "book"); // no title
        let t = b.finish();
        assert!(d.validate(&t).is_err());
    }

    #[test]
    fn choice_production_requires_exactly_one_alternative() {
        let mut d = Dtd::new("record");
        d.define(
            "record",
            ContentModel::Choice(vec!["empty".to_owned(), "diagnosis".to_owned()]),
        )
        .define("empty", ContentModel::Empty)
        .define("diagnosis", ContentModel::Text);

        let mut b = XmlTreeBuilder::new();
        let root = b.root("record");
        b.child_with_text(root, "diagnosis", "flu");
        let good = b.finish();
        d.validate(&good).unwrap();

        let mut b = XmlTreeBuilder::new();
        let root = b.root("record");
        b.child(root, "empty");
        b.child_with_text(root, "diagnosis", "flu");
        let bad = b.finish();
        assert!(d.validate(&bad).is_err());
    }

    #[test]
    fn graph_reachability() {
        let d = parts_dtd();
        let g = d.graph();
        let reach = g.reachable_from("part");
        assert!(reach.contains("part"));
        assert!(reach.contains("name"));
        assert_eq!(reach.len(), 2);
        let desc = g.descendant_types();
        assert!(
            desc["part"].contains("part"),
            "recursive type reaches itself below"
        );
        assert!(desc["name"].is_empty());
    }

    #[test]
    fn display_of_content_models() {
        assert_eq!(ContentModel::Text.to_string(), "str");
        assert_eq!(ContentModel::Empty.to_string(), "ε");
        assert_eq!(
            ContentModel::Sequence(vec![Child::star("a"), Child::one("b")]).to_string(),
            "a*, b"
        );
        assert_eq!(
            ContentModel::Choice(vec!["x".to_owned(), "y".to_owned()]).to_string(),
            "x + y"
        );
    }

    #[test]
    fn sequence_matcher_handles_adjacent_stars_greedily() {
        // parent*, record* over the view DTD's patient production.
        let expected = vec![Child::star("parent"), Child::star("record")];
        assert!(Dtd::matches_sequence(&expected, &[]));
        assert!(Dtd::matches_sequence(&expected, &["parent", "record"]));
        assert!(Dtd::matches_sequence(
            &expected,
            &["parent", "parent", "record", "record"]
        ));
        assert!(!Dtd::matches_sequence(&expected, &["record", "parent"]));
    }
}
