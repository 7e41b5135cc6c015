//! Subtree edit scripts over [`XmlTree`]s.
//!
//! An [`EditOp`] is one of the three subtree mutations the arena supports —
//! insert, delete, replace — with the payload subtree (for insert/replace)
//! carried **by value** as a standalone [`XmlTree`]. An [`EditScript`] is an
//! ordered sequence of ops; applying a script with
//! [`XmlTree::apply_script`] replays them left to right.
//!
//! Edit ops are the unit of the snapshot delta log (see
//! [`crate::snapshot`]): because [`XmlTree::insert_subtree`] re-interns the
//! payload's labels in the payload interner's id order and appends nodes at
//! the arena end, replaying the same script against the same base tree is
//! deterministic — it reproduces the edited arena (tombstones included) and
//! the grown label interner exactly.

use crate::error::XmlError;
use crate::tree::{NodeId, XmlTree};

/// One subtree mutation.
///
/// Node ids refer to the tree the op is applied to, *at the time of
/// application* — ids are stable under edits (deletion tombstones, insertion
/// appends), so ops produced against one version stay meaningful on later
/// versions as long as their target nodes are still live.
#[derive(Debug, Clone)]
pub enum EditOp {
    /// Insert a copy of `subtree` under `parent` at child `position`.
    Insert {
        /// The (live) node that receives the new child.
        parent: NodeId,
        /// 0-based position among `parent`'s children; `len` appends.
        position: usize,
        /// The payload document; must be tombstone-free.
        subtree: XmlTree,
    },
    /// Detach the subtree rooted at `node` (tombstoning its nodes).
    Delete {
        /// The (live, non-root) node to detach.
        node: NodeId,
    },
    /// Replace the subtree rooted at `node` with a copy of `subtree`.
    ///
    /// Replacing the document root is allowed and swaps the whole document.
    Replace {
        /// The (live) node whose subtree is replaced.
        node: NodeId,
        /// The replacement document; must be tombstone-free.
        subtree: XmlTree,
    },
}

impl EditOp {
    /// The existing node this op anchors to: the insertion parent, or the
    /// deleted/replaced subtree root. Used to route an edit to the HyPE
    /// shard it dirties.
    pub fn anchor(&self) -> NodeId {
        match self {
            EditOp::Insert { parent, .. } => *parent,
            EditOp::Delete { node } => *node,
            EditOp::Replace { node, .. } => *node,
        }
    }
}

/// An ordered sequence of [`EditOp`]s.
#[derive(Debug, Clone, Default)]
pub struct EditScript {
    ops: Vec<EditOp>,
}

impl EditScript {
    /// Creates an empty script.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an op to the script.
    pub fn push(&mut self, op: EditOp) {
        self.ops.push(op);
    }

    /// The ops in application order.
    pub fn ops(&self) -> &[EditOp] {
        &self.ops
    }

    /// Number of ops in the script.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the script contains no ops.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl From<Vec<EditOp>> for EditScript {
    fn from(ops: Vec<EditOp>) -> Self {
        Self { ops }
    }
}

impl FromIterator<EditOp> for EditScript {
    fn from_iter<I: IntoIterator<Item = EditOp>>(iter: I) -> Self {
        Self {
            ops: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for EditScript {
    type Item = EditOp;
    type IntoIter = std::vec::IntoIter<EditOp>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.into_iter()
    }
}

impl XmlTree {
    /// Applies one edit op, returning the id of the inserted/replacement
    /// subtree root (`None` for a delete).
    ///
    /// # Errors
    /// Propagates the underlying mutator's error; the tree is unchanged on
    /// error.
    pub fn apply(&mut self, op: &EditOp) -> Result<Option<NodeId>, XmlError> {
        match op {
            EditOp::Insert {
                parent,
                position,
                subtree,
            } => self.insert_subtree(*parent, *position, subtree).map(Some),
            EditOp::Delete { node } => self.delete_subtree(*node).map(|_| None),
            EditOp::Replace { node, subtree } => self.replace_subtree(*node, subtree).map(Some),
        }
    }

    /// Applies every op of `script` in order.
    ///
    /// # Errors
    /// Stops at the first failing op. Ops applied before the failure remain
    /// applied (each op is individually atomic; the script is not).
    pub fn apply_script(&mut self, script: &EditScript) -> Result<(), XmlError> {
        for op in script.ops() {
            self.apply(op)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_document;

    fn doc() -> XmlTree {
        parse_document(
            "<hospital><department><patient><pname>Alice</pname></patient></department>\
             <department><patient><pname>Bob</pname></patient></department></hospital>",
        )
        .unwrap()
    }

    fn payload() -> XmlTree {
        parse_document("<patient><pname>Carol</pname><ward>W3</ward></patient>").unwrap()
    }

    #[test]
    fn apply_insert_then_delete_round_trips_structure() {
        let original = doc();
        let mut t = doc();
        let dept = t.children(t.root())[0];
        let new_patient = t
            .apply(&EditOp::Insert {
                parent: dept,
                position: 1,
                subtree: payload(),
            })
            .unwrap()
            .unwrap();
        t.check_consistency().unwrap();
        assert_eq!(t.live_len(), original.len() + payload().len());
        assert_eq!(t.children(dept).len(), 2);

        t.apply(&EditOp::Delete { node: new_patient }).unwrap();
        t.check_consistency().unwrap();
        assert_eq!(t.live_len(), original.len());
        assert!(t.has_tombstones());
        // Compaction restores a tree indistinguishable from the original.
        let compact = t.compacted();
        compact.check_consistency().unwrap();
        assert_eq!(
            crate::to_xml_string(&compact),
            crate::to_xml_string(&original)
        );
    }

    #[test]
    fn apply_script_runs_in_order() {
        let mut t = doc();
        let root = t.root();
        let d2 = t.children(root)[1];
        let script: EditScript = vec![
            EditOp::Insert {
                parent: root,
                position: 2,
                subtree: parse_document("<department/>").unwrap(),
            },
            EditOp::Delete { node: d2 },
        ]
        .into_iter()
        .collect();
        t.apply_script(&script).unwrap();
        t.check_consistency().unwrap();
        assert_eq!(t.children(root).len(), 2);
        assert_eq!(script.len(), 2);
        assert!(!script.is_empty());
    }

    #[test]
    fn failing_op_reports_error_and_leaves_tree_usable() {
        let mut t = doc();
        let root = t.root();
        let err = t.apply(&EditOp::Delete { node: root }).unwrap_err();
        assert!(err.to_string().contains("root"));
        t.check_consistency().unwrap();
        assert!(!t.has_tombstones());
    }

    #[test]
    fn anchor_names_the_touched_node() {
        let t = doc();
        let dept = t.children(t.root())[0];
        assert_eq!(
            EditOp::Insert {
                parent: dept,
                position: 0,
                subtree: payload()
            }
            .anchor(),
            dept
        );
        assert_eq!(EditOp::Delete { node: dept }.anchor(), dept);
        assert_eq!(
            EditOp::Replace {
                node: dept,
                subtree: payload()
            }
            .anchor(),
            dept
        );
    }
}
