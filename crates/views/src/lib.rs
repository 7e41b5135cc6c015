//! # smoqe-views
//!
//! XML views defined by annotating a view DTD (Section 2.3 of the paper).
//!
//! A view is a mapping `σ : D → DV` in the global-as-view style: for every
//! edge `(A, B)` of the view DTD graph, `σ(A, B)` is a regular XPath query
//! over documents of the document DTD `D`. Given a document `T` of `D`, the
//! view `σ(T)` is generated top-down: the view root corresponds to the root
//! of `T`; an `A`-element of the view with *origin* `u` in `T` gets, for
//! each child type `B`, one `B`-child per node of `u[[σ(A,B)]]`, whose origin
//! is that node. Text-typed view elements copy their origin's PCDATA.
//!
//! This crate provides:
//!
//! * [`ViewDefinition`] — the annotated view DTD, with well-formedness
//!   checks and the `|σ|` size measure used in the paper's bounds;
//! * [`materialize()`] — the reference view-materialization procedure used as
//!   correctness oracle: `Q(σ(T))` computed the slow way, against which the
//!   rewriting pipeline's `Q'(T)` is compared;
//! * [`hospital_view`] — the running example σ₀ of Fig. 1(c), exposing only
//!   heart-disease patients, their parent hierarchy and their diagnoses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod definition;
pub mod domains;
pub mod materialize;
pub mod security;

pub use definition::{
    fingerprint_field, hospital_view, ViewDefinition, ViewError, FINGERPRINT_SEED,
};
pub use domains::{bom_security_spec, bom_view, logs_security_spec, logs_view, social_view};
pub use materialize::{materialize, MaterializedView};
pub use security::{derive_view, Access, SecuritySpec};
