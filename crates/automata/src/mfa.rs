//! The mixed finite state automaton `M = (Ns, A)` and its builder.
//!
//! An MFA couples a selecting NFA `Ns` with a set `A` of named AFAs; the
//! NFA's partial mapping `λ` annotates states with AFA names (Section 4).
//! MFAs are produced either by compiling an `Xreg` query directly
//! ([`crate::compile_query`], Theorem 4.1) or by the view-rewriting
//! algorithm of `smoqe-rewrite` (Theorem 5.1), and are consumed by the
//! naive evaluator in this crate and by HyPE in `smoqe-hype`.

use smoqe_xml::LabelInterner;

use crate::afa::{Afa, AfaId, AfaState, AfaStateId, FinalPredicate};
use crate::nfa::{Nfa, NfaState, StateId, Transition};

/// A mixed finite state automaton: selecting NFA + named AFAs + the label
/// interner giving meaning to transition label ids.
#[derive(Debug, Clone)]
pub struct Mfa {
    nfa: Nfa,
    afas: Vec<Afa>,
    labels: LabelInterner,
}

/// Size statistics of an MFA, used to verify the `O(|Q||σ||DV|)` bound of
/// Theorem 5.1 experimentally (bench `rewrite_complexity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MfaStats {
    /// Number of NFA states.
    pub nfa_states: usize,
    /// Number of NFA transitions (ε and labelled).
    pub nfa_transitions: usize,
    /// Number of AFAs (distinct filter automata).
    pub afa_count: usize,
    /// Total number of AFA states across all AFAs.
    pub afa_states: usize,
    /// Total number of AFA transitions across all AFAs.
    pub afa_transitions: usize,
}

impl MfaStats {
    /// The size `|M|`: states plus transitions of both layers.
    pub fn size(&self) -> usize {
        self.nfa_states + self.nfa_transitions + self.afa_states + self.afa_transitions
    }
}

impl Mfa {
    /// The selecting NFA.
    #[inline]
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// Consumes the MFA, returning only its selecting NFA (test helper).
    pub fn into_nfa(self) -> Nfa {
        self.nfa
    }

    /// The AFA bound to `id`.
    #[inline]
    pub fn afa(&self, id: AfaId) -> &Afa {
        &self.afas[id.index()]
    }

    /// All AFAs, indexed by [`AfaId`].
    pub fn afas(&self) -> &[Afa] {
        &self.afas
    }

    /// The label interner used by this automaton's transitions.
    #[inline]
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Size statistics.
    pub fn stats(&self) -> MfaStats {
        MfaStats {
            nfa_states: self.nfa.len(),
            nfa_transitions: self.nfa.transition_count(),
            afa_count: self.afas.len(),
            afa_states: self.afas.iter().map(Afa::len).sum(),
            afa_transitions: self.afas.iter().map(Afa::transition_count).sum(),
        }
    }

    /// The size `|M|` (states + transitions across both layers).
    pub fn size(&self) -> usize {
        self.stats().size()
    }
}

/// Builder used by the query compiler and the view-rewriting algorithm to
/// assemble an MFA state by state.
#[derive(Debug, Default)]
pub struct MfaBuilder {
    states: Vec<NfaState>,
    afas: Vec<Afa>,
    labels: LabelInterner,
    start: Option<StateId>,
}

impl MfaBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder whose label interner is pre-seeded (e.g. with the
    /// labels of a DTD) so that label ids are stable across automata.
    pub fn with_labels(labels: LabelInterner) -> Self {
        MfaBuilder {
            states: Vec::new(),
            afas: Vec::new(),
            labels,
            start: None,
        }
    }

    /// Interns a label, returning the id used in [`Transition::Label`].
    pub fn intern_label(&mut self, name: &str) -> u32 {
        self.labels.intern(name).0
    }

    /// Read access to the interner.
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Adds a fresh NFA state with no transitions.
    pub fn new_state(&mut self) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(NfaState::default());
        id
    }

    /// Number of NFA states created so far.
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// Adds an ε-transition `from → to`.
    pub fn add_eps(&mut self, from: StateId, to: StateId) {
        let eps = &mut self.states[from.index()].eps;
        if !eps.contains(&to) {
            eps.push(to);
        }
    }

    /// Adds a labelled transition `from --t--> to`.
    pub fn add_label_transition(&mut self, from: StateId, t: Transition, to: StateId) {
        let trans = &mut self.states[from.index()].trans;
        if !trans.contains(&(t, to)) {
            trans.push((t, to));
        }
    }

    /// Marks `state` as final.
    pub fn set_final(&mut self, state: StateId) {
        self.states[state.index()].is_final = true;
    }

    /// Annotates `state` with an AFA (the mapping `λ`).
    ///
    /// # Panics
    /// Panics if the state already carries a different AFA — the paper's
    /// definition allows at most one annotation per state, and both the
    /// compiler and the rewriter always allocate a fresh state per filter.
    pub fn set_afa(&mut self, state: StateId, afa: AfaId) {
        let slot = &mut self.states[state.index()].afa;
        assert!(
            slot.is_none() || *slot == Some(afa),
            "state {state:?} already annotated with a different AFA"
        );
        *slot = Some(afa);
    }

    /// Registers a complete AFA, returning its name/id.
    pub fn add_afa(&mut self, afa: Afa) -> AfaId {
        let id = AfaId(self.afas.len() as u32);
        self.afas.push(afa);
        id
    }

    /// Sets the start state of the selecting NFA.
    pub fn set_start(&mut self, state: StateId) {
        self.start = Some(state);
    }

    /// Finalizes the builder.
    ///
    /// # Panics
    /// Panics if no start state was set or no state was created.
    pub fn finish(self) -> Mfa {
        let start = self
            .start
            .expect("MfaBuilder::finish called without a start state");
        assert!(!self.states.is_empty(), "MFA must have at least one state");
        Mfa {
            nfa: Nfa::from_parts(self.states, start),
            afas: self.afas,
            labels: self.labels,
        }
    }
}

/// Builder for a single AFA. Operator states whose successors are not yet
/// known (loops created by Kleene stars) can be allocated as placeholders
/// and patched afterwards.
#[derive(Debug, Default)]
pub struct AfaBuilder {
    states: Vec<AfaState>,
}

impl AfaBuilder {
    /// Creates an empty AFA builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a state, returning its id.
    pub fn add(&mut self, state: AfaState) -> AfaStateId {
        let id = AfaStateId(self.states.len() as u32);
        self.states.push(state);
        id
    }

    /// Adds an empty OR placeholder to be patched later (used to tie the
    /// knot of Kleene-star loops).
    pub fn placeholder(&mut self) -> AfaStateId {
        self.add(AfaState::Or(Vec::new()))
    }

    /// Replaces the state stored at `id`.
    pub fn patch(&mut self, id: AfaStateId, state: AfaState) {
        self.states[id.index()] = state;
    }

    /// Convenience: a final state with no predicate.
    pub fn add_true_final(&mut self) -> AfaStateId {
        self.add(AfaState::Final(FinalPredicate::True))
    }

    /// Number of states created so far.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if no states were created.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Finalizes the AFA with `start` as its start state.
    pub fn finish(self, start: AfaStateId) -> Afa {
        assert!(
            start.index() < self.states.len(),
            "AFA start state out of range"
        );
        Afa::from_parts(self.states, start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_an_mfa() {
        let mut b = MfaBuilder::new();
        let s0 = b.new_state();
        let s1 = b.new_state();
        let a = b.intern_label("a");
        b.add_label_transition(s0, Transition::Label(a), s1);
        b.set_final(s1);

        let mut afab = AfaBuilder::new();
        let f = afab.add_true_final();
        let t = afab.add(AfaState::Trans(Transition::Label(a), f));
        let afa_id = b.add_afa(afab.finish(t));
        b.set_afa(s1, afa_id);
        b.set_start(s0);

        let mfa = b.finish();
        assert_eq!(mfa.nfa().len(), 2);
        assert_eq!(mfa.afas().len(), 1);
        assert_eq!(mfa.nfa().state(s1).afa, Some(afa_id));
        let stats = mfa.stats();
        assert_eq!(stats.nfa_states, 2);
        assert_eq!(stats.afa_states, 2);
        assert!(stats.size() >= 5);
    }

    #[test]
    fn duplicate_transitions_are_not_stored_twice() {
        let mut b = MfaBuilder::new();
        let s0 = b.new_state();
        let s1 = b.new_state();
        b.add_eps(s0, s1);
        b.add_eps(s0, s1);
        let a = b.intern_label("a");
        b.add_label_transition(s0, Transition::Label(a), s1);
        b.add_label_transition(s0, Transition::Label(a), s1);
        b.set_start(s0);
        let mfa = b.finish();
        assert_eq!(mfa.nfa().transition_count(), 2);
    }

    #[test]
    #[should_panic(expected = "without a start state")]
    fn finish_without_start_panics() {
        let mut b = MfaBuilder::new();
        b.new_state();
        b.finish();
    }

    #[test]
    #[should_panic(expected = "different AFA")]
    fn conflicting_afa_annotation_panics() {
        let mut b = MfaBuilder::new();
        let s = b.new_state();
        let mut a1 = AfaBuilder::new();
        let f1 = a1.add_true_final();
        let id1 = b.add_afa(a1.finish(f1));
        let mut a2 = AfaBuilder::new();
        let f2 = a2.add_true_final();
        let id2 = b.add_afa(a2.finish(f2));
        b.set_afa(s, id1);
        b.set_afa(s, id2);
    }

    #[test]
    fn placeholder_patching() {
        let mut afab = AfaBuilder::new();
        let loop_head = afab.placeholder();
        let fin = afab.add_true_final();
        let body = afab.add(AfaState::Trans(Transition::Any, loop_head));
        afab.patch(loop_head, AfaState::Or(vec![fin, body]));
        let afa = afab.finish(loop_head);
        assert_eq!(afa.len(), 3);
        assert!(matches!(afa.state(loop_head), AfaState::Or(v) if v.len() == 2));
    }

    #[test]
    fn with_labels_preserves_preseeded_ids() {
        let mut interner = LabelInterner::new();
        let pre = interner.intern("patient");
        let mut b = MfaBuilder::with_labels(interner);
        assert_eq!(b.intern_label("patient"), pre.0);
        let s = b.new_state();
        b.set_start(s);
        let mfa = b.finish();
        assert_eq!(mfa.labels().get("patient"), Some(pre));
    }
}
