//! Expected answers, computed once before timing with the
//! materialize-then-evaluate reference: materialize the security view σ
//! over the document, evaluate the query on the view with the XPath
//! evaluator, and map the selected view nodes back to their origins.
//! None of the code under measurement (rewriting, automata, HyPE) is used.

use std::collections::BTreeSet;

use smoqe_views::{materialize, MaterializedView, ViewDefinition};
use smoqe_xml::{NodeId, XmlTree};
use smoqe_xpath::{evaluate, parse_path};

/// An answer set as sorted node indices (the wire representation).
pub type Answer = Vec<u32>;

pub struct Oracle {
    view: MaterializedView,
}

impl Oracle {
    pub fn new(view: &ViewDefinition, doc: &XmlTree) -> Oracle {
        Oracle {
            view: materialize(view, doc).expect("benchmark documents materialize"),
        }
    }

    pub fn answer(&self, query: &str) -> Answer {
        let q = parse_path(query).expect("benchmark queries parse");
        let on_view = evaluate(&self.view.tree, self.view.tree.root(), &q);
        to_answer(&self.view.origins_of(&on_view))
    }
}

pub fn to_answer(nodes: &BTreeSet<NodeId>) -> Answer {
    nodes.iter().map(|n| n.0).collect()
}

pub fn same(nodes: &BTreeSet<NodeId>, expected: &[u32]) -> bool {
    nodes.len() == expected.len() && nodes.iter().zip(expected).all(|(n, e)| n.0 == *e)
}
