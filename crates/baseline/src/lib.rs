//! # smoqe-baseline
//!
//! The comparison systems of the paper's experimental study (Section 7),
//! re-implemented over the same in-memory tree so that the benchmarks
//! compare algorithms rather than parsing stacks:
//!
//! * [`two_pass`] — a classic **two-phase XPath evaluator** in the style of
//!   Koch's tree-automaton approach \[16\] and of conventional engines such
//!   as JAXP/Xalan: a first bottom-up pass evaluates every filter at every
//!   node of the document, a second top-down pass selects the answer nodes.
//!   It supports full regular XPath, performs no pruning, and plays the role
//!   of the *JAXP* series in Fig. 8.
//! * [`translation`] — evaluation of regular XPath by *translation*: the
//!   query is executed by the direct, fix-point based interpreter (the same
//!   semantics a generic XQuery engine such as Galax applies to the
//!   translated query), re-traversing subtrees per filter and per Kleene
//!   iteration. It plays the role of the *Galax* comparison in Section 7,
//!   which the paper reports as being off the chart.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod translation;
pub mod two_pass;

pub use translation::evaluate_by_translation;
pub use two_pass::{evaluate_two_pass, TwoPassStats};
