//! Post-construction MFA clean-up.
//!
//! The view-rewriting product construction allocates one NFA state per
//! (query state, view type) pair and one AFA per (filter, view type) pair
//! that it *visits*; some of those turn out to be dead weight:
//!
//! * NFA states that are unreachable from the start state (e.g. product
//!   states created for a view type that the query's alphabet can never
//!   reach),
//! * NFA states from which no final state is reachable (they can never
//!   contribute an answer, only cost work during evaluation),
//! * AFAs whose annotation sits on a removed state,
//! * AFA states unreachable from their AFA's start state.
//!
//! [`optimize_mfa`] removes all of the above while preserving the automaton's
//! semantics (checked against the naive evaluator by the tests and by the
//! cross-crate property suite). The engine always applies it: every
//! `smoqe::CompiledQuery` is trimmed before its execution IR is built,
//! since the IR's step-closure tables grow with the square of the state
//! count. The `rewrite_complexity` ablation benchmark also measures it.

use std::collections::HashMap;

use crate::afa::{Afa, AfaId, AfaState, AfaStateId};
use crate::mfa::{Mfa, MfaBuilder};
use crate::nfa::{StateId, Transition};

/// Statistics of one optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizeStats {
    /// NFA states before / after.
    pub nfa_states_before: usize,
    /// NFA states after the pass.
    pub nfa_states_after: usize,
    /// AFAs before the pass.
    pub afas_before: usize,
    /// AFAs after the pass.
    pub afas_after: usize,
    /// Total AFA states before the pass.
    pub afa_states_before: usize,
    /// Total AFA states after the pass.
    pub afa_states_after: usize,
}

/// Removes unreachable and useless (never-accepting) NFA states, unused
/// AFAs and unreachable AFA states. Returns the smaller, equivalent MFA and
/// the statistics of what was removed.
pub fn optimize_mfa(mfa: &Mfa) -> (Mfa, OptimizeStats) {
    let nfa = mfa.nfa();

    // ---- 1. Forward reachability from the start state. ----
    let mut forward = vec![false; nfa.len()];
    let mut stack = vec![nfa.start()];
    forward[nfa.start().index()] = true;
    while let Some(s) = stack.pop() {
        let state = nfa.state(s);
        for &e in &state.eps {
            if !forward[e.index()] {
                forward[e.index()] = true;
                stack.push(e);
            }
        }
        for &(_, t) in &state.trans {
            if !forward[t.index()] {
                forward[t.index()] = true;
                stack.push(t);
            }
        }
    }

    // ---- 2. Backward usefulness: can a final state be reached? ----
    // One search over the reversed edges from the final states, so the pass
    // stays linear in the automaton (it runs on every compiled query).
    let mut predecessors: Vec<Vec<StateId>> = vec![Vec::new(); nfa.len()];
    for (id, state) in nfa.states() {
        let targets = state
            .eps
            .iter()
            .copied()
            .chain(state.trans.iter().map(|&(_, t)| t));
        for target in targets {
            predecessors[target.index()].push(id);
        }
    }
    let mut useful = vec![false; nfa.len()];
    let mut stack: Vec<StateId> = nfa
        .states()
        .filter(|(_, s)| s.is_final)
        .map(|(id, _)| id)
        .collect();
    for &s in &stack {
        useful[s.index()] = true;
    }
    while let Some(s) = stack.pop() {
        for &p in &predecessors[s.index()] {
            if !useful[p.index()] {
                useful[p.index()] = true;
                stack.push(p);
            }
        }
    }

    // The start state is always kept so the automaton stays well-formed even
    // when the query is unsatisfiable (it then has a single, non-final state).
    let keep: Vec<bool> = (0..nfa.len())
        .map(|i| (forward[i] && useful[i]) || i == nfa.start().index())
        .collect();

    // ---- 3. Rebuild the NFA over the kept states. ----
    let mut builder = MfaBuilder::with_labels(mfa.labels().clone());
    let mut state_map: HashMap<StateId, StateId> = HashMap::new();
    for (id, _) in nfa.states() {
        if keep[id.index()] {
            state_map.insert(id, builder.new_state());
        }
    }
    // ---- 4. Copy the AFAs that are still referenced, compacted. ----
    let mut afa_map: HashMap<AfaId, AfaId> = HashMap::new();
    for (id, state) in nfa.states() {
        if !keep[id.index()] {
            continue;
        }
        if let Some(old_afa) = state.afa {
            if let std::collections::hash_map::Entry::Vacant(entry) = afa_map.entry(old_afa) {
                let compacted = compact_afa(mfa.afa(old_afa));
                entry.insert(builder.add_afa(compacted));
            }
        }
    }
    for (id, state) in nfa.states() {
        if !keep[id.index()] {
            continue;
        }
        let new_id = state_map[&id];
        if state.is_final {
            builder.set_final(new_id);
        }
        if let Some(afa) = state.afa {
            builder.set_afa(new_id, afa_map[&afa]);
        }
        for &e in &state.eps {
            if keep[e.index()] {
                builder.add_eps(new_id, state_map[&e]);
            }
        }
        for &(t, target) in &state.trans {
            if keep[target.index()] {
                builder.add_label_transition(new_id, t, state_map[&target]);
            }
        }
    }
    builder.set_start(state_map[&nfa.start()]);
    let optimized = builder.finish();

    let stats = OptimizeStats {
        nfa_states_before: nfa.len(),
        nfa_states_after: optimized.nfa().len(),
        afas_before: mfa.afas().len(),
        afas_after: optimized.afas().len(),
        afa_states_before: mfa.afas().iter().map(Afa::len).sum(),
        afa_states_after: optimized.afas().iter().map(Afa::len).sum(),
    };
    (optimized, stats)
}

/// Removes AFA states unreachable from the AFA's start state, remapping ids.
fn compact_afa(afa: &Afa) -> Afa {
    let mut reachable = vec![false; afa.len()];
    let mut stack = vec![afa.start()];
    reachable[afa.start().index()] = true;
    while let Some(s) = stack.pop() {
        let successors: Vec<AfaStateId> = match afa.state(s) {
            AfaState::And(v) | AfaState::Or(v) => v.clone(),
            AfaState::Not(x) => vec![*x],
            AfaState::Trans(_, t) => vec![*t],
            AfaState::Final(_) => Vec::new(),
        };
        for succ in successors {
            if !reachable[succ.index()] {
                reachable[succ.index()] = true;
                stack.push(succ);
            }
        }
    }

    let mut remap: HashMap<AfaStateId, AfaStateId> = HashMap::new();
    let mut states: Vec<AfaState> = Vec::new();
    for (id, _) in afa.states() {
        if reachable[id.index()] {
            remap.insert(id, AfaStateId(states.len() as u32));
            states.push(AfaState::Final(crate::afa::FinalPredicate::False)); // placeholder
        }
    }
    for (id, state) in afa.states() {
        if !reachable[id.index()] {
            continue;
        }
        let new_state = match state {
            AfaState::And(v) => AfaState::And(v.iter().map(|s| remap[s]).collect()),
            AfaState::Or(v) => AfaState::Or(v.iter().map(|s| remap[s]).collect()),
            AfaState::Not(x) => AfaState::Not(remap[x]),
            AfaState::Trans(t, target) => AfaState::Trans(*t, remap[target]),
            AfaState::Final(p) => AfaState::Final(p.clone()),
        };
        states[remap[&id].index()] = new_state;
    }
    let start = remap[&afa.start()];
    Afa::from_parts(states, start)
}

/// Convenience: the total number of wildcard transitions of an MFA's NFA —
/// reported by the ablation benchmark because wildcard-heavy automata defeat
/// the DTD-based pruning of OptHyPE.
pub fn wildcard_transition_count(mfa: &Mfa) -> usize {
    mfa.nfa()
        .states()
        .map(|(_, s)| {
            s.trans
                .iter()
                .filter(|(t, _)| matches!(t, Transition::Any))
                .count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_query;
    use crate::naive::evaluate_mfa;
    use smoqe_xml::XmlTreeBuilder;
    use smoqe_xpath::parse_path;

    fn sample_tree() -> smoqe_xml::XmlTree {
        let mut b = XmlTreeBuilder::new();
        let root = b.root("hospital");
        let p = b.child(root, "patient");
        let par = b.child(p, "parent");
        let p2 = b.child(par, "patient");
        let r = b.child(p2, "record");
        b.child_with_text(r, "diagnosis", "heart disease");
        b.child(p, "record");
        b.finish()
    }

    fn assert_optimization_preserves(query: &str) {
        let tree = sample_tree();
        let q = parse_path(query).unwrap();
        let mfa = compile_query(&q);
        let (optimized, stats) = optimize_mfa(&mfa);
        assert_eq!(
            evaluate_mfa(&tree, &mfa),
            evaluate_mfa(&tree, &optimized),
            "optimization changed the answer of `{query}`"
        );
        assert!(stats.nfa_states_after <= stats.nfa_states_before);
        assert!(stats.afa_states_after <= stats.afa_states_before);
    }

    #[test]
    fn preserves_semantics_on_a_corpus() {
        for query in [
            "patient",
            "patient/parent/patient/record/diagnosis",
            "(patient/parent)*/patient[record]",
            "patient[*//record/diagnosis/text()='heart disease']",
            "patient[not(record)] | patient/record",
            "doesnotexist/anywhere",
        ] {
            assert_optimization_preserves(query);
        }
    }

    #[test]
    fn removes_states_that_cannot_reach_a_final_state() {
        // A union where one branch mentions a label that leads nowhere
        // useful is still compiled (the compiler is syntax-directed), but
        // after a rewrite-style dead branch is introduced the optimizer
        // shrinks the automaton. Simplest observable case: a filter compiled
        // into an MFA keeps its AFA; the path `a/b` produces 3 states, all
        // useful, so nothing shrinks — whereas building an MFA by hand with
        // an extra orphan state does shrink.
        let mut builder = MfaBuilder::new();
        let a = builder.intern_label("a");
        let s0 = builder.new_state();
        let s1 = builder.new_state();
        let dead = builder.new_state(); // unreachable
        let _ = dead;
        builder.add_label_transition(s0, Transition::Label(a), s1);
        builder.set_final(s1);
        builder.set_start(s0);
        let mfa = builder.finish();
        let (optimized, stats) = optimize_mfa(&mfa);
        assert_eq!(stats.nfa_states_before, 3);
        assert_eq!(stats.nfa_states_after, 2);
        assert_eq!(optimized.nfa().len(), 2);
    }

    #[test]
    fn unsatisfiable_queries_keep_a_well_formed_automaton() {
        let q = parse_path("nosuch[neverhere]").unwrap();
        let mfa = compile_query(&q);
        let (optimized, _) = optimize_mfa(&mfa);
        let tree = sample_tree();
        assert!(evaluate_mfa(&tree, &optimized).is_empty());
        assert!(!optimized.nfa().is_empty());
    }

    #[test]
    fn compacting_afas_drops_unreachable_states() {
        use crate::afa::FinalPredicate;
        // Hand-build an AFA with an orphan state.
        let states = vec![
            AfaState::Trans(Transition::Any, AfaStateId(1)),
            AfaState::Final(FinalPredicate::True),
            AfaState::Final(FinalPredicate::False), // orphan
        ];
        let afa = Afa::from_parts(states, AfaStateId(0));
        let compacted = compact_afa(&afa);
        assert_eq!(compacted.len(), 2);
    }

    #[test]
    fn wildcard_count_reflects_descendant_axes() {
        let no_wildcards = compile_query(&parse_path("a/b/c").unwrap());
        assert_eq!(wildcard_transition_count(&no_wildcards), 0);
        let with_descendant = compile_query(&parse_path("a//b").unwrap());
        assert!(wildcard_transition_count(&with_descendant) >= 1);
    }
}
