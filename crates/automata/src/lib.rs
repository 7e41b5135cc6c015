//! # smoqe-automata
//!
//! Mixed Finite State Automata (MFA) — the intermediate representation the
//! paper introduces in Section 4 to represent rewritten regular XPath
//! queries without the exponential blow-up of an explicit `Xreg` rewriting
//! (Corollary 3.3).
//!
//! An MFA is a *selecting* nondeterministic finite automaton (NFA) whose
//! states may be annotated (the partial mapping `λ`) with *alternating*
//! finite automata (AFA) representing the query's filters. The NFA spells
//! out the data-selection paths; every AFA evaluates a filter at the node
//! where its annotated state is assumed:
//!
//! * AFA **operator states** (AND / OR / NOT) only have ε-transitions and
//!   combine the values of their successors,
//! * AFA **transition states** consume one child step on a label,
//! * AFA **final states** optionally carry a `text() = 'c'` predicate.
//!
//! The crate provides:
//!
//! * the automaton data structures ([`Mfa`], [`nfa::Nfa`], [`afa::Afa`]) and
//!   a builder API ([`MfaBuilder`]) used both by the query compiler here and
//!   by the view-rewriting algorithm in `smoqe-rewrite`,
//! * the `Xreg` → MFA compiler ([`compile_query`], Theorem 4.1),
//! * a specification-level MFA evaluator ([`naive::evaluate_mfa`]) that
//!   mirrors the paper's "conceptual evaluation" (Fig. 4) and serves as the
//!   correctness oracle for the efficient HyPE algorithm in `smoqe-hype`,
//! * the dense, bitset-based **execution IR** ([`CompiledMfa`], module
//!   [`compiled`]): the builder [`Mfa`] above is the *construction*
//!   representation that the compiler and the view rewriter grow state by
//!   state; [`CompiledMfa::new`] flattens it once — global AFA-state
//!   numbering, per-label transition columns, precomputed ε-/operator
//!   closures — into the form every `smoqe-hype` engine actually runs on,
//! * a bounded, lazily built DFA over that IR's per-node transition
//!   function ([`LazyDfa`], module [`lazy`]), which memoizes the node
//!   configurations an evaluation reaches together with the `cans` vertex
//!   and edge templates HyPE replays at each node.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod afa;
pub mod compile;
pub mod compiled;
pub mod label_map;
pub mod lazy;
pub mod mfa;
pub mod naive;
pub mod nfa;
pub mod optimize;

pub use afa::{Afa, AfaId, AfaState, AfaStateId, FinalPredicate};
pub use compile::{
    compile_filter, compile_path_afa, compile_path_into, compile_pred_states, compile_query,
};
pub use compiled::{ColumnMap, CompiledAfaState, CompiledMfa, CompiledMfaStats, ANY_LABEL};
pub use label_map::LabelMap;
pub use lazy::{LazyDfa, LAZY_DFA_BYTES};
pub use mfa::{AfaBuilder, Mfa, MfaBuilder, MfaStats};
pub use naive::{evaluate_mfa, evaluate_mfa_at};
pub use nfa::{Nfa, StateId, Transition};
pub use optimize::{optimize_mfa, wildcard_transition_count, OptimizeStats};
