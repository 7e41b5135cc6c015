//! Arena-based XML document trees.
//!
//! An [`XmlTree`] owns all nodes of one document in a single `Vec`; nodes are
//! addressed by dense [`NodeId`]s. This gives cache-friendly traversal, cheap
//! cloning of node handles, and lets the evaluation algorithms of the paper
//! (HyPE and the baselines) use plain integer-indexed side tables.

use std::cell::Cell;

use crate::error::XmlError;
use crate::label::{LabelId, LabelInterner};

thread_local! {
    static NODE_ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Total number of arena nodes the calling thread has allocated so far
/// through [`XmlTreeBuilder`]s (and therefore [`crate::parse_document`]).
///
/// The counter only ever grows; take a snapshot before a region of interest
/// and diff afterwards (other threads' trees do not move it). The streaming
/// benchmark and tests use this to *prove* that evaluating over
/// [`crate::stream`] events never materializes an arena tree:
///
/// ```
/// use smoqe_xml::{node_allocations, parse_document};
///
/// let before = node_allocations();
/// let tree = parse_document("<r><a/></r>").unwrap();
/// assert_eq!(node_allocations() - before, tree.len() as u64);
///
/// let before = node_allocations();
/// // ... anything that only streams events allocates no nodes ...
/// assert_eq!(node_allocations() - before, 0);
/// ```
pub fn node_allocations() -> u64 {
    NODE_ALLOCATIONS.with(Cell::get)
}

/// Identifier of a node inside one [`XmlTree`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the id as a `usize` index into the arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One element node of the document. Crate-private: `size` is an
/// invariant over the whole subtree, so only the tree's own methods write
/// these fields.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// Interned element label (tag name).
    pub(crate) label: LabelId,
    /// Number of nodes in this node's subtree, itself included.
    pub(crate) size: u32,
    /// Parent node, `None` for the root.
    pub(crate) parent: Option<NodeId>,
    /// Ordered child elements.
    pub(crate) children: Vec<NodeId>,
    /// PCDATA content of this element, if any.
    ///
    /// The paper's DTD normal form only allows `P(A) = str` elements to carry
    /// text; we collapse that single text child onto the element itself.
    pub(crate) text: Option<Box<str>>,
}

// The size column lives in what was padding: 4 + 4 + 8 + 24 + 16 bytes.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<Node>() == 56);

impl Node {
    fn new(label: LabelId, parent: Option<NodeId>) -> Self {
        Node {
            label,
            size: 1,
            parent,
            children: Vec::new(),
            text: None,
        }
    }
}

/// An XML document: an arena of element nodes plus the label interner used
/// to intern their tags.
///
/// Trees start out immutable-once-built (parser, builder, snapshot loader)
/// and may then be **edited in place** with [`XmlTree::insert_subtree`],
/// [`XmlTree::delete_subtree`] and [`XmlTree::replace_subtree`]. Edits never
/// move or renumber existing nodes: deletion *detaches* a subtree, leaving
/// its nodes in the arena as tombstones unreachable from the root, and
/// insertion appends the new nodes at the arena end. [`XmlTree::len`]
/// therefore counts tombstones too; [`XmlTree::live_len`] counts only the
/// nodes reachable from the root, and [`XmlTree::compacted`] rebuilds a
/// dense tombstone-free arena when the slack is worth reclaiming.
///
/// Every node also keeps the size of its subtree (the *pre/size* encoding
/// of Grust's XPath Accelerator), so [`XmlTree::subtree_size`] and
/// [`XmlTree::live_len`] are reads. The builder fills the column in one
/// reverse pass, and each edit adjusts the sizes along the edited node's
/// ancestor path, O(depth). A tombstone keeps the size its detached
/// subtree had when it was cut off; no edit reaches under a tombstone, so
/// that count stays exact for the detached subtree but says nothing about
/// the live document.
#[derive(Debug, Clone)]
pub struct XmlTree {
    nodes: Vec<Node>,
    root: NodeId,
    labels: LabelInterner,
}

impl XmlTree {
    /// Returns the root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Returns the node stored at `id`.
    #[inline]
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Returns the label id of `id`.
    #[inline]
    pub fn label(&self, id: NodeId) -> LabelId {
        self.nodes[id.index()].label
    }

    /// Returns the tag name of `id`.
    #[inline]
    pub fn label_name(&self, id: NodeId) -> &str {
        self.labels.name(self.nodes[id.index()].label)
    }

    /// Returns the PCDATA content of `id`, if any.
    #[inline]
    pub fn text(&self, id: NodeId) -> Option<&str> {
        self.nodes[id.index()].text.as_deref()
    }

    /// Returns the ordered children of `id`.
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].children
    }

    /// Returns the parent of `id`, `None` for the root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        self.nodes[id.index()].parent
    }

    /// Number of element nodes in the arena, **including tombstones** left
    /// behind by [`XmlTree::delete_subtree`] / [`XmlTree::replace_subtree`].
    ///
    /// For the count of nodes actually reachable from the root, use
    /// [`XmlTree::live_len`]; the two agree on never-edited trees.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from the root (excludes tombstones): the
    /// root's subtree size.
    #[inline]
    pub fn live_len(&self) -> usize {
        self.subtree_size(self.root)
    }

    /// Returns `true` if the arena carries tombstoned (detached) nodes.
    #[inline]
    pub fn has_tombstones(&self) -> bool {
        self.live_len() != self.nodes.len()
    }

    /// Returns `true` if `id` is reachable from the root.
    ///
    /// Walks the parent chain: a node is live iff the walk terminates at the
    /// current root. Detached subtrees terminate at their own (parentless)
    /// detachment point instead.
    pub fn is_live(&self, mut id: NodeId) -> bool {
        if id.index() >= self.nodes.len() {
            return false;
        }
        while let Some(p) = self.parent(id) {
            id = p;
        }
        id == self.root
    }

    /// Returns `true` if the tree has no nodes (never the case for built trees).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The label interner shared by this document.
    #[inline]
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Number of nodes carrying text (the paper's "text nodes").
    pub fn text_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.text.is_some()).count()
    }

    /// Iterates over all node ids in document (pre-)order of creation.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Depth of `id` (root has depth 1, matching the paper's "maximal depth
    /// of the trees is 13" convention).
    pub fn depth(&self, mut id: NodeId) -> usize {
        let mut d = 1;
        while let Some(p) = self.parent(id) {
            d += 1;
            id = p;
        }
        d
    }

    /// Maximum depth over all nodes.
    pub fn max_depth(&self) -> usize {
        let mut depths = vec![0usize; self.nodes.len()];
        let mut max = 0;
        // Nodes are created parent-before-child by the builder and parser, so
        // a single forward scan computes all depths.
        for id in self.node_ids() {
            let d = match self.parent(id) {
                Some(p) => depths[p.index()] + 1,
                None => 1,
            };
            depths[id.index()] = d;
            max = max.max(d);
        }
        max
    }

    /// Returns the ids of all descendants of `id` (excluding `id` itself),
    /// in pre-order.
    pub fn descendants(&self, id: NodeId) -> Vec<NodeId> {
        self.preorder(id).skip(1).collect()
    }

    /// Returns the ids of `id` and all its descendants, in pre-order.
    pub fn descendants_or_self(&self, id: NodeId) -> Vec<NodeId> {
        self.preorder(id).collect()
    }

    /// Counts the nodes in the subtree rooted at `id` (including `id`).
    ///
    /// O(1): a read of the size column the builder fills and the edit
    /// methods keep (and [`XmlTree::check_consistency`] audits). For a
    /// tombstone it counts the detached subtree.
    #[inline]
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.nodes[id.index()].size as usize
    }

    /// Walks `id`'s subtree in pre-order, which is also arena order for a
    /// parsed tree: visiting children right to left is several times slower.
    fn preorder(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let mut stack = vec![id];
        std::iter::from_fn(move || {
            let n = stack.pop()?;
            stack.extend(self.children(n).iter().rev());
            Some(n)
        })
    }

    /// Checks structural invariants (parent/child consistency and the size
    /// column), covering edited trees with tombstones.
    ///
    /// The live region is discovered by traversal from the root: every
    /// reachable node must have in-range children that point back to it, no
    /// node may be reached twice (no sharing, no cycles), and the reachable
    /// count must match [`XmlTree::live_len`]. Tombstoned nodes are held to
    /// the same local invariants (their detached subtrees stay well-formed)
    /// but must be unreachable from the root. Every node's size must be one
    /// more than the sum of its children's sizes.
    ///
    /// Primarily used by tests and by the property-based test-suite.
    pub fn check_consistency(&self) -> Result<(), XmlError> {
        if self.nodes.is_empty() {
            return Err(XmlError::InvalidNode(0));
        }
        if self.root.index() >= self.nodes.len() {
            return Err(XmlError::InvalidNode(self.root.0));
        }
        if self.parent(self.root).is_some() {
            return Err(XmlError::InvalidContent {
                element: self.label_name(self.root).to_owned(),
                reason: "root has a parent".to_owned(),
            });
        }
        // Mutual parent/child consistency holds arena-wide: detached subtrees
        // keep their internal structure so a later compaction (or debugging
        // dump) can still walk them.
        for id in self.node_ids() {
            let node = self.node(id);
            let mut size = 1u64;
            for &c in &node.children {
                if c.index() >= self.nodes.len() {
                    return Err(XmlError::InvalidNode(c.0));
                }
                if self.parent(c) != Some(id) {
                    return Err(XmlError::InvalidContent {
                        element: self.label_name(id).to_owned(),
                        reason: format!("child {:?} does not point back to its parent", c),
                    });
                }
                size += u64::from(self.node(c).size);
            }
            if size != u64::from(node.size) {
                return Err(XmlError::InvalidContent {
                    element: self.label_name(id).to_owned(),
                    reason: format!(
                        "node {:?} records subtree size {} but its children sum to {}",
                        id, node.size, size
                    ),
                });
            }
            if let Some(p) = node.parent {
                if p.index() >= self.nodes.len() {
                    return Err(XmlError::InvalidNode(p.0));
                }
                if !self.children(p).contains(&id) {
                    return Err(XmlError::InvalidContent {
                        element: self.label_name(id).to_owned(),
                        reason: "node is not listed among its parent's children".to_owned(),
                    });
                }
            }
        }
        // Discover the live region from the root and audit the live counter.
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![self.root];
        let mut reached = 0usize;
        while let Some(n) = stack.pop() {
            if seen[n.index()] {
                return Err(XmlError::InvalidContent {
                    element: self.label_name(n).to_owned(),
                    reason: format!("node {:?} is reachable along two paths", n),
                });
            }
            seen[n.index()] = true;
            reached += 1;
            stack.extend_from_slice(self.children(n));
        }
        if reached != self.live_len() {
            return Err(XmlError::InvalidContent {
                element: self.label_name(self.root).to_owned(),
                reason: format!(
                    "live-node counter is {} but {} nodes are reachable from the root",
                    self.live_len(),
                    reached
                ),
            });
        }
        Ok(())
    }

    /// Rough size of the serialized document in bytes; used by the benchmark
    /// harness to report document sizes on the same scale as the paper (MB).
    pub fn approximate_byte_size(&self) -> usize {
        let mut total = 0;
        for id in self.node_ids() {
            // "<tag>" + "</tag>"
            total += 2 * self.label_name(id).len() + 5;
            if let Some(t) = self.text(id) {
                total += t.len();
            }
        }
        total
    }

    /// Errors unless `id` is in range and reachable from the root.
    fn require_live(&self, id: NodeId) -> Result<(), XmlError> {
        if id.index() >= self.nodes.len() {
            return Err(XmlError::InvalidNode(id.0));
        }
        if !self.is_live(id) {
            return Err(XmlError::InvalidContent {
                element: self.label_name(id).to_owned(),
                reason: format!("node {:?} is not live (deleted or detached)", id),
            });
        }
        Ok(())
    }

    /// Errors unless `subtree` is a clean (tombstone-free) edit payload.
    fn require_clean_payload(subtree: &XmlTree) -> Result<(), XmlError> {
        if subtree.is_empty() {
            return Err(XmlError::InvalidNode(0));
        }
        if subtree.has_tombstones() {
            return Err(XmlError::InvalidContent {
                element: subtree.label_name(subtree.root()).to_owned(),
                reason: "edit payload carries tombstoned nodes; compact it first".to_owned(),
            });
        }
        Ok(())
    }

    /// Appends all of `subtree`'s nodes at the arena end, re-interning its
    /// labels into this tree's interner and remapping ids by a uniform
    /// offset. The grafted root's parent is set to `attach`; **no child list
    /// is touched** — callers splice the returned root in (or make it the
    /// document root) and grow the ancestors' sizes.
    ///
    /// Because existing ids never move and the payload's internal ids are
    /// remapped by `old + base`, parent-before-child ordering is preserved
    /// arena-wide. Child lists at the splice point are *not* kept ascending;
    /// edited trees are serialized through the snapshot delta log, never
    /// through the v1 full writer (which asserts ascending children).
    fn graft(&mut self, subtree: &XmlTree, attach: Option<NodeId>) -> NodeId {
        let base = self.nodes.len() as u32;
        // Deterministic label translation: the payload interner's ids, in id
        // order. Replaying the same payload against the same tree (e.g. from
        // the snapshot delta log) therefore grows the interner identically.
        let label_map: Vec<LabelId> = subtree
            .labels
            .iter()
            .map(|(_, name)| self.labels.intern(name))
            .collect();
        NODE_ALLOCATIONS.with(|n| n.set(n.get() + subtree.len() as u64));
        for id in subtree.node_ids() {
            let node = subtree.node(id);
            self.nodes.push(Node {
                label: label_map[node.label.index()],
                size: node.size,
                parent: match node.parent {
                    Some(p) => Some(NodeId(base + p.0)),
                    None => attach,
                },
                children: node.children.iter().map(|c| NodeId(base + c.0)).collect(),
                text: node.text.clone(),
            });
        }
        NodeId(base + subtree.root().0)
    }

    /// Inserts a copy of `subtree` as a child of `parent` at `position`
    /// (0-based among `parent`'s existing children; `position == len` appends).
    ///
    /// The payload's nodes are appended at the arena end (existing ids are
    /// stable) and its labels are re-interned into this tree's interner,
    /// which only ever grows. Returns the id of the inserted subtree's root.
    ///
    /// # Errors
    /// Fails if `parent` is out of range or tombstoned, if `position` exceeds
    /// the current child count, or if `subtree` itself carries tombstones
    /// (compact payloads first). The tree is unchanged on error.
    pub fn insert_subtree(
        &mut self,
        parent: NodeId,
        position: usize,
        subtree: &XmlTree,
    ) -> Result<NodeId, XmlError> {
        self.require_live(parent)?;
        Self::require_clean_payload(subtree)?;
        let child_count = self.children(parent).len();
        if position > child_count {
            return Err(XmlError::InvalidContent {
                element: self.label_name(parent).to_owned(),
                reason: format!("insert position {position} is out of range 0..={child_count}"),
            });
        }
        let new_root = self.graft(subtree, Some(parent));
        self.nodes[parent.index()]
            .children
            .insert(position, new_root);
        self.resize_path(parent, 0, subtree.len());
        Ok(new_root)
    }

    /// Detaches the subtree rooted at `node`, tombstoning its nodes.
    ///
    /// The nodes stay in the arena (ids are never reused) but become
    /// unreachable from the root; the detached subtree keeps its internal
    /// parent/child structure. Returns the number of nodes detached.
    ///
    /// # Errors
    /// Fails if `node` is out of range, already tombstoned, or the document
    /// root (a document always has a root; use
    /// [`XmlTree::replace_subtree`] to swap it). The tree is unchanged on
    /// error.
    pub fn delete_subtree(&mut self, node: NodeId) -> Result<usize, XmlError> {
        self.require_live(node)?;
        let Some(parent) = self.parent(node) else {
            return Err(XmlError::InvalidContent {
                element: self.label_name(node).to_owned(),
                reason: "the document root cannot be deleted; replace it instead".to_owned(),
            });
        };
        Ok(self.detach(node, parent).1)
    }

    /// Unlinks live `node` from its `parent`, tombstoning its subtree;
    /// returns its former sibling position and the number of nodes detached.
    fn detach(&mut self, node: NodeId, parent: NodeId) -> (usize, usize) {
        let detached = self.subtree_size(node);
        let position = self
            .children(parent)
            .iter()
            .position(|&c| c == node)
            .expect("live node is listed among its parent's children");
        self.nodes[parent.index()].children.remove(position);
        self.nodes[node.index()].parent = None;
        self.resize_path(parent, detached, 0);
        (position, detached)
    }

    /// Takes `removed` nodes from, and adds `added` nodes to, the size of
    /// `node` and of every ancestor: O(depth).
    fn resize_path(&mut self, node: NodeId, removed: usize, added: usize) {
        let mut at = Some(node);
        while let Some(n) = at {
            let node = &mut self.nodes[n.index()];
            node.size = (node.size as usize - removed + added) as u32;
            at = node.parent;
        }
    }

    /// Replaces the subtree rooted at `node` with a copy of `subtree`,
    /// keeping the position among its siblings. Replacing the document root
    /// is allowed and swaps the entire document content (the old root's
    /// subtree is tombstoned and `subtree`'s copy becomes the new root).
    /// Returns the id of the replacement subtree's root.
    ///
    /// # Errors
    /// Fails if `node` is out of range or tombstoned, or if `subtree`
    /// carries tombstones. The tree is unchanged on error.
    pub fn replace_subtree(&mut self, node: NodeId, subtree: &XmlTree) -> Result<NodeId, XmlError> {
        self.require_live(node)?;
        Self::require_clean_payload(subtree)?;
        match self.parent(node) {
            Some(parent) => {
                let (position, _) = self.detach(node, parent);
                let new_root = self.graft(subtree, Some(parent));
                self.nodes[parent.index()]
                    .children
                    .insert(position, new_root);
                self.resize_path(parent, 0, subtree.len());
                Ok(new_root)
            }
            None => {
                // Replacing the root: the whole old tree becomes tombstones
                // (its nodes terminate their parent walks at the old root,
                // which is no longer `self.root`).
                let new_root = self.graft(subtree, None);
                self.root = new_root;
                Ok(new_root)
            }
        }
    }

    /// Rebuilds a dense, tombstone-free copy of the live tree.
    ///
    /// Nodes are re-numbered in pre-order and labels re-interned in
    /// pre-order first-use order — the same orders the parser produces — so
    /// compacting an edited tree yields a tree indistinguishable from
    /// parsing its serialization. In particular an insert-then-delete
    /// round trip followed by `compacted()` restores the original label
    /// fingerprint and snapshot bytes.
    pub fn compacted(&self) -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let new_root = b.root(self.label_name(self.root));
        if let Some(t) = self.text(self.root) {
            b.set_text(new_root, t);
        }
        // Explicit stack: (old node, already-created new parent), children
        // pushed in reverse so the leftmost child is created (and numbered)
        // first — pre-order arena ids.
        let mut stack: Vec<(NodeId, NodeId)> = self
            .children(self.root)
            .iter()
            .rev()
            .map(|&c| (c, new_root))
            .collect();
        while let Some((old, new_parent)) = stack.pop() {
            let new = b.child(new_parent, self.label_name(old));
            if let Some(t) = self.text(old) {
                b.set_text(new, t);
            }
            for &c in self.children(old).iter().rev() {
                stack.push((c, new));
            }
        }
        b.finish()
    }
}

/// Incremental builder for [`XmlTree`]s.
///
/// ```
/// use smoqe_xml::XmlTreeBuilder;
///
/// let mut b = XmlTreeBuilder::new();
/// let root = b.root("hospital");
/// let dept = b.child(root, "department");
/// let name = b.child_with_text(dept, "name", "Cardiology");
/// let tree = b.finish();
/// assert_eq!(tree.label_name(tree.root()), "hospital");
/// assert_eq!(tree.text(name), Some("Cardiology"));
/// assert_eq!(tree.children(root), &[dept]);
/// ```
#[derive(Debug, Default)]
pub struct XmlTreeBuilder {
    nodes: Vec<Node>,
    labels: LabelInterner,
    root: Option<NodeId>,
}

impl XmlTreeBuilder {
    /// Creates an empty builder with a fresh label interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder that reuses an existing interner, so label ids are
    /// compatible with e.g. an already-compiled automaton.
    pub fn with_interner(labels: LabelInterner) -> Self {
        Self {
            nodes: Vec::new(),
            labels,
            root: None,
        }
    }

    /// Creates the root element. Must be called exactly once, first.
    pub fn root(&mut self, label: &str) -> NodeId {
        assert!(self.root.is_none(), "root() called twice");
        NODE_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        let label = self.labels.intern(label);
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(label, None));
        self.root = Some(id);
        id
    }

    /// Appends a child element labelled `label` under `parent`.
    pub fn child(&mut self, parent: NodeId, label: &str) -> NodeId {
        let label = self.labels.intern(label);
        self.child_interned(parent, label)
    }

    /// Appends a child element with an already-interned label.
    pub fn child_interned(&mut self, parent: NodeId, label: LabelId) -> NodeId {
        NODE_ALLOCATIONS.with(|n| n.set(n.get() + 1));
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(label, Some(parent)));
        self.nodes[parent.index()].children.push(id);
        id
    }

    /// Appends a child element carrying PCDATA `text`.
    pub fn child_with_text(&mut self, parent: NodeId, label: &str, text: &str) -> NodeId {
        let id = self.child(parent, label);
        self.nodes[id.index()].text = Some(text.into());
        id
    }

    /// Sets or replaces the text of an existing node.
    pub fn set_text(&mut self, node: NodeId, text: &str) {
        self.nodes[node.index()].text = Some(text.into());
    }

    /// Access to the builder's interner (e.g. to pre-intern DTD labels).
    pub fn labels_mut(&mut self) -> &mut LabelInterner {
        &mut self.labels
    }

    /// Number of nodes created so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no nodes have been created yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes the builder into an immutable [`XmlTree`], filling the
    /// size column in one reverse pass: parents precede their children in
    /// the arena, so each node's size is complete before it is added to its
    /// parent's.
    ///
    /// # Panics
    /// Panics if `root()` was never called.
    pub fn finish(self) -> XmlTree {
        let root = self.root.expect("finish() called before root()");
        let mut nodes = self.nodes;
        for i in (0..nodes.len()).rev() {
            if let Some(p) = nodes[i].parent {
                nodes[p.index()].size += nodes[i].size;
            }
        }
        XmlTree {
            nodes,
            root,
            labels: self.labels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_tree() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let d1 = b.child(root, "department");
        let p1 = b.child(d1, "patient");
        b.child_with_text(p1, "pname", "Alice");
        let d2 = b.child(root, "department");
        let p2 = b.child(d2, "patient");
        b.child_with_text(p2, "pname", "Bob");
        b.finish()
    }

    #[test]
    fn builder_produces_consistent_tree() {
        let t = small_tree();
        assert_eq!(t.len(), 7);
        t.check_consistency().unwrap();
        assert_eq!(t.label_name(t.root()), "hospital");
        assert_eq!(t.children(t.root()).len(), 2);
    }

    #[test]
    fn text_is_stored_and_counted() {
        let t = small_tree();
        assert_eq!(t.text_node_count(), 2);
        let pnames: Vec<_> = t
            .node_ids()
            .filter(|&n| t.label_name(n) == "pname")
            .collect();
        assert_eq!(t.text(pnames[0]), Some("Alice"));
        assert_eq!(t.text(pnames[1]), Some("Bob"));
    }

    #[test]
    fn descendants_are_preorder() {
        let t = small_tree();
        let desc = t.descendants(t.root());
        assert_eq!(desc.len(), 6);
        let labels: Vec<_> = desc.iter().map(|&n| t.label_name(n)).collect();
        assert_eq!(
            labels,
            vec![
                "department",
                "patient",
                "pname",
                "department",
                "patient",
                "pname"
            ]
        );
    }

    #[test]
    fn descendants_or_self_includes_self() {
        let t = small_tree();
        let all = t.descendants_or_self(t.root());
        assert_eq!(all.len(), t.len());
        assert_eq!(all[0], t.root());
    }

    #[test]
    fn depth_and_max_depth() {
        let t = small_tree();
        assert_eq!(t.depth(t.root()), 1);
        assert_eq!(t.max_depth(), 4);
    }

    /// Every node's size equals a walk of its subtree, tombstones included
    /// (a detached subtree keeps its exact size), and the audit agrees.
    fn assert_sizes_match_walks(tree: &XmlTree) {
        for n in tree.node_ids() {
            assert_eq!(tree.subtree_size(n), tree.preorder(n).count(), "{n:?}");
        }
        tree.check_consistency().unwrap();
    }

    #[test]
    fn subtree_size_counts_self_and_descendants() {
        let t = small_tree();
        let dept = t.children(t.root())[0];
        // The same tree after deleting the first department's patient: its
        // two nodes are tombstoned and no longer counted.
        let mut edited = small_tree();
        let patient = edited.children(dept)[0];
        edited.delete_subtree(patient).unwrap();
        // Inserting a two-node patient under the second department grows
        // the root's count (its O(1) answer) as well as the department's.
        let payload = {
            let mut b = XmlTreeBuilder::new();
            let p = b.root("patient");
            b.child_with_text(p, "pname", "Carol");
            b.finish()
        };
        let mut inserted = small_tree();
        let dept2 = inserted.children(inserted.root())[1];
        inserted.insert_subtree(dept2, 1, &payload).unwrap();
        for (tree, root_size, dept_size) in [(&t, 7, 3), (&edited, 5, 1), (&inserted, 9, 3)] {
            assert_eq!(tree.subtree_size(tree.root()), root_size);
            assert_eq!(tree.subtree_size(dept), dept_size);
            for n in tree.descendants_or_self(tree.root()) {
                assert_eq!(tree.subtree_size(n), tree.descendants_or_self(n).len());
            }
        }
        assert_eq!(inserted.subtree_size(dept2), 5);
        // Replacing the root leaves the old tree as tombstones: the new
        // root counts only the replacement, and the old root (no longer
        // `root()`) still walks its detached subtree.
        let mut replaced = small_tree();
        let old_root = replaced.root();
        let new_root = replaced.replace_subtree(old_root, &payload).unwrap();
        assert_eq!(replaced.root(), new_root);
        assert_eq!(replaced.subtree_size(new_root), 2);
        assert_eq!(
            replaced.subtree_size(new_root),
            replaced.descendants_or_self(new_root).len()
        );
        assert_eq!(replaced.subtree_size(old_root), 7);
        // Replacing a non-root subtree shrinks and grows the same ancestor
        // path: the root loses the department's 3 nodes, gains 2.
        let mut swapped = small_tree();
        swapped.replace_subtree(dept, &payload).unwrap();
        assert_eq!(swapped.live_len(), 6);
        for tree in [&t, &edited, &inserted, &replaced, &swapped] {
            assert_sizes_match_walks(tree);
            assert_sizes_match_walks(&tree.compacted());
            let reloaded =
                crate::snapshot::load(&crate::snapshot::save(&tree.compacted())).unwrap();
            assert_sizes_match_walks(&reloaded);
        }
        // A delta log replays every kind of edit through the same methods,
        // and its replay carries the sizes the edited tree carries.
        let base = small_tree();
        let dept2 = base.children(base.root())[1];
        let ops = [
            crate::EditOp::Insert {
                parent: dept2,
                position: 1,
                subtree: payload.clone(),
            },
            crate::EditOp::Delete {
                node: base.children(dept)[0],
            },
            crate::EditOp::Replace {
                node: dept2,
                subtree: payload.clone(),
            },
            crate::EditOp::Replace {
                node: base.root(),
                subtree: payload.clone(),
            },
        ];
        for end in 1..=ops.len() {
            let mut applied = base.clone();
            for op in &ops[..end] {
                applied.apply(op).unwrap();
            }
            let saved = crate::snapshot::save(&base);
            let replayed =
                crate::snapshot::load(&crate::snapshot::save_delta(&saved, &ops[..end]).unwrap())
                    .unwrap();
            assert_sizes_match_walks(&replayed);
            for n in replayed.node_ids() {
                assert_eq!(replayed.subtree_size(n), applied.subtree_size(n), "{n:?}");
            }
        }
    }

    #[test]
    fn approximate_byte_size_is_positive_and_monotone() {
        let t = small_tree();
        let single = {
            let mut b = XmlTreeBuilder::new();
            b.root("hospital");
            b.finish()
        };
        assert!(t.approximate_byte_size() > single.approximate_byte_size());
    }

    #[test]
    #[should_panic(expected = "root() called twice")]
    fn double_root_panics() {
        let mut b = XmlTreeBuilder::new();
        b.root("a");
        b.root("b");
    }

    #[test]
    fn with_interner_shares_label_ids() {
        let mut shared = LabelInterner::new();
        let patient = shared.intern("patient");
        let mut b = XmlTreeBuilder::with_interner(shared);
        let root = b.root("hospital");
        let c = b.child(root, "patient");
        let t = b.finish();
        assert_eq!(t.label(c), patient);
    }

    fn payload() -> XmlTree {
        let mut b = XmlTreeBuilder::new();
        let p = b.root("patient");
        b.child_with_text(p, "pname", "Carol");
        b.child(p, "ward");
        b.finish()
    }

    #[test]
    fn fresh_trees_have_no_tombstones() {
        let t = small_tree();
        assert!(!t.has_tombstones());
        assert_eq!(t.live_len(), t.len());
        for id in t.node_ids() {
            assert!(t.is_live(id));
        }
        assert!(!t.is_live(NodeId(t.len() as u32)));
    }

    #[test]
    fn insert_subtree_appends_nodes_and_splices_children() {
        let mut t = small_tree();
        let before = t.len();
        let dept = t.children(t.root())[0];
        let new_root = t.insert_subtree(dept, 0, &payload()).unwrap();
        assert_eq!(new_root.index(), before);
        assert_eq!(t.children(dept)[0], new_root);
        assert_eq!(t.children(dept).len(), 2);
        assert_eq!(t.live_len(), before + 3);
        assert_eq!(t.label_name(new_root), "patient");
        assert_eq!(t.text(t.children(new_root)[0]), Some("Carol"));
        t.check_consistency().unwrap();
        // Parent-before-child ordering survives the append.
        for id in t.node_ids() {
            if let Some(p) = t.parent(id) {
                assert!(p < id);
            }
        }
    }

    #[test]
    fn insert_counts_node_allocations() {
        let mut t = small_tree();
        let dept = t.children(t.root())[0];
        let payload = payload();
        let before = node_allocations();
        t.insert_subtree(dept, 1, &payload).unwrap();
        assert_eq!(node_allocations() - before, payload.len() as u64);
    }

    #[test]
    fn insert_position_bounds_are_checked() {
        let mut t = small_tree();
        let dept = t.children(t.root())[0];
        assert!(t.insert_subtree(dept, 2, &payload()).is_err());
        assert!(t.insert_subtree(dept, 1, &payload()).is_ok());
        t.check_consistency().unwrap();
    }

    #[test]
    fn delete_subtree_tombstones_and_preserves_ids() {
        let mut t = small_tree();
        let d1 = t.children(t.root())[0];
        let d2 = t.children(t.root())[1];
        let detached = t.delete_subtree(d1).unwrap();
        assert_eq!(detached, 3);
        assert_eq!(t.live_len(), 4);
        assert_eq!(t.len(), 7);
        assert!(t.has_tombstones());
        assert!(!t.is_live(d1));
        assert!(t.is_live(d2));
        assert_eq!(t.children(t.root()), &[d2]);
        // The detached subtree keeps its internal structure.
        assert_eq!(t.children(d1).len(), 1);
        t.check_consistency().unwrap();
        // Double-delete and edits under a tombstone are rejected.
        assert!(t.delete_subtree(d1).is_err());
        assert!(t.insert_subtree(d1, 0, &payload()).is_err());
    }

    #[test]
    fn root_cannot_be_deleted() {
        let mut t = small_tree();
        assert!(t.delete_subtree(t.root()).is_err());
        t.check_consistency().unwrap();
    }

    #[test]
    fn replace_subtree_keeps_sibling_position() {
        let mut t = small_tree();
        let root = t.root();
        let d1 = t.children(root)[0];
        let d2 = t.children(root)[1];
        let new = t.replace_subtree(d1, &payload()).unwrap();
        assert_eq!(t.children(root), &[new, d2]);
        assert_eq!(t.label_name(new), "patient");
        assert_eq!(t.live_len(), 4 + 3);
        assert!(!t.is_live(d1));
        t.check_consistency().unwrap();
    }

    #[test]
    fn replace_root_swaps_whole_document() {
        let mut t = small_tree();
        let old_root = t.root();
        let new = t.replace_subtree(old_root, &payload()).unwrap();
        assert_eq!(t.root(), new);
        assert_eq!(t.live_len(), 3);
        assert!(!t.is_live(old_root));
        assert_eq!(t.label_name(t.root()), "patient");
        t.check_consistency().unwrap();
        let compact = t.compacted();
        assert_eq!(compact.len(), 3);
        assert!(!compact.has_tombstones());
    }

    #[test]
    fn tombstoned_payloads_are_rejected() {
        let mut edited_payload = small_tree();
        let d1 = edited_payload.children(edited_payload.root())[0];
        edited_payload.delete_subtree(d1).unwrap();
        let mut t = small_tree();
        let root = t.root();
        assert!(t.insert_subtree(root, 0, &edited_payload).is_err());
        assert!(t.replace_subtree(root, &edited_payload).is_err());
        // The compacted payload is clean and accepted.
        assert!(t
            .insert_subtree(root, 0, &edited_payload.compacted())
            .is_ok());
        t.check_consistency().unwrap();
    }

    #[test]
    fn compacted_renumbers_in_preorder_with_fresh_interner() {
        let mut t = small_tree();
        let dept = t.children(t.root())[0];
        let inserted = t.insert_subtree(dept, 1, &payload()).unwrap();
        t.delete_subtree(inserted).unwrap();
        let compact = t.compacted();
        compact.check_consistency().unwrap();
        assert!(!compact.has_tombstones());
        assert_eq!(compact.len(), small_tree().len());
        // Same pre-order labels and label-interner layout as the original.
        let original = small_tree();
        for (a, b) in original
            .descendants_or_self(original.root())
            .into_iter()
            .zip(compact.descendants_or_self(compact.root()))
        {
            assert_eq!(original.label_name(a), compact.label_name(b));
            assert_eq!(original.label(a), compact.label(b));
            assert_eq!(original.text(a), compact.text(b));
        }
        assert_eq!(original.labels().len(), compact.labels().len());
    }

    #[test]
    fn check_consistency_detects_live_counter_drift() {
        let mut t = small_tree();
        let d1 = t.children(t.root())[0];
        t.delete_subtree(d1).unwrap();
        t.check_consistency().unwrap();
        // Manually corrupting the counter (the root's size) is caught.
        let root = t.root();
        t.nodes[root.index()].size += 1;
        assert!(t.check_consistency().is_err());
    }

    #[test]
    fn check_consistency_detects_size_column_drift() {
        let mut t = small_tree();
        let patient = t.children(t.children(t.root())[1])[0];
        t.nodes[patient.index()].size -= 1;
        let err = t.check_consistency().unwrap_err().to_string();
        assert!(err.contains("subtree size"), "{err}");
    }
}
