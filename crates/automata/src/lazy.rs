//! A lazily built DFA over the per-node transition function of a
//! [`CompiledMfa`]: the memo behind HyPE's node opens.
//!
//! HyPE does the same work at every node it opens: it steps the pending NFA
//! states on the node's label column, propagates the pending filter
//! requests, adds the λ triggers, and emits one `cans` vertex per pending
//! state with its ε edges and its edges from the parent's vertices. All of
//! that is a function of the parent's *configuration* and the child's
//! column, and Green et al. ("Processing XML streams with deterministic
//! automata", TODS 2004) observe that the configurations an XPath workload
//! actually reaches stay few when the DFA is built lazily.
//!
//! A [`LazyDfa`] interns each configuration it meets once. A configuration
//! is the pair (ε-closed pending NFA states, closed filter requests *before*
//! the λ triggers); the requests after the triggers are derived from it and
//! stored beside it. The key is the pre-trigger row because OptHyPE's index
//! check reads that row: two nodes with equal post-trigger rows may still
//! prune differently.
//!
//! Per configuration the DFA keeps a **vertex template** — per state rank,
//! whether it is final, and the within-node ε edges as `(rank, rank)` pairs
//! in the order HyPE pushes them. Per `(configuration, column)` it memoizes
//! the step: either *dead* (no state and no request survives, the basic
//! prune), or the child's configuration plus a **parent-edge template**, the
//! `(parent rank, child rank)` pairs in push order. A caller replaying the
//! templates pushes exactly the vertices and edges the per-state loops
//! would, in the same order, so everything downstream is bit-identical.
//!
//! The DFA also keeps one decision byte per `(configuration, row)` for the
//! caller ([`LazyDfa::side`]), where HyPE memoizes its OptHyPE pruning
//! decision per reachability-index row.
//!
//! Misses are filled by the one set function, [`CompiledMfa::step_config`]
//! and [`CompiledMfa::add_triggers`]. The memo is keyed by column, not by
//! document label, so its size does not depend on how many distinct labels
//! a document has. Its content is bounded by [`LAZY_DFA_BYTES`]: once the
//! next configuration or transition would pass the bound, the DFA is full,
//! and [`LazyDfa::step`] answers [`Step::Uncached`] for every transition it
//! has not memoized yet; the caller then runs the set function itself.

use std::collections::HashMap;
use std::mem::size_of;

use crate::compiled::{bits, CompiledMfa};

/// Upper bound on the bytes one [`LazyDfa`] stores: interned rows, keys,
/// templates, the transition table and the side bytes. It bounds the
/// configuration count as well, since every configuration costs at least
/// its rows and its table row.
///
/// Sized from measurement: over the differential and fuzz suites and the
/// `perfbench` workloads, no DFA grew past 14 configurations or 3,082
/// bytes, and no configuration cost more than 731 bytes with its table
/// row. 64 KiB is 21× the largest DFA seen and holds at least 89
/// configurations of the costliest kind seen. One DFA belongs to each query
/// of each evaluation core, and a sharded run builds a core per worker and
/// shard group, so a batch can hold at most queries × cores × 64 KiB — a
/// bound only a query whose configurations explode approaches, since a DFA
/// grows with the configurations it meets.
pub const LAZY_DFA_BYTES: usize = 64 * 1024;

/// Per-configuration overhead charged for the interning map's slot and the
/// boxed key's header, on top of the key words themselves.
const MAP_ENTRY_BYTES: usize = 48;

/// Transition-table entry: not memoized yet.
const UNKNOWN: u32 = 0;
/// Transition-table entry: the basic prune fires. Entries `>= 2` are
/// transition ids offset by 2.
const DEAD: u32 = 1;

/// The memoized outcome of one child step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// No NFA state and no filter request survives: nothing can happen
    /// below the child.
    Dead,
    /// The child's configuration and the transition whose parent-edge
    /// template ([`LazyDfa::parent_edges`]) links the two.
    Child {
        /// The child's configuration id.
        config: u32,
        /// The transition id.
        transition: u32,
    },
    /// The DFA is full and this transition is not memoized: run the set
    /// function directly.
    Uncached,
}

/// One interned configuration's template ranges.
#[derive(Debug, Clone, Copy)]
struct Config {
    /// First entry of its finals in [`LazyDfa::finals`].
    finals: u32,
    /// Pending state count (= vertices per node).
    states: u32,
    /// Its ε-edge template in [`LazyDfa::edges`].
    eps_from: u32,
    eps_to: u32,
}

/// One memoized step to a live child.
#[derive(Debug, Clone, Copy)]
struct Transition {
    child: u32,
    /// Its parent-edge template in [`LazyDfa::edges`].
    edges_from: u32,
    edges_to: u32,
}

/// A bounded, lazily filled memo of one query's per-node transitions; see
/// the module docs. One DFA belongs to one evaluation runtime and is not
/// shared between threads.
#[derive(Debug)]
pub struct LazyDfa {
    /// Words per NFA row and per AFA row.
    nw: usize,
    aw: usize,
    /// Columns of the automaton (the transition table's width).
    cols: usize,
    /// Side bytes per configuration.
    side_width: usize,
    /// Interning map: `mstates ++ requests` → configuration id.
    ids: HashMap<Box<[u64]>, u32>,
    /// Per configuration: `[mstates (nw) | requests (aw) | closure (aw)]`.
    rows: Vec<u64>,
    configs: Vec<Config>,
    /// Per configuration and state rank: is the state final?
    finals: Vec<bool>,
    /// `(rank, rank)` pairs of every ε-edge and parent-edge template.
    edges: Vec<(u32, u32)>,
    /// `configs × cols` entries: [`UNKNOWN`], [`DEAD`] or `2 + transition`.
    table: Vec<u32>,
    transitions: Vec<Transition>,
    /// `configs × side_width` bytes: 0 unknown, 1 false, 2 true.
    side: Vec<u8>,
    /// Scratch key row for lookups (`nw + aw` words).
    key: Vec<u64>,
    /// Stored bytes, checked against [`LAZY_DFA_BYTES`].
    bytes: usize,
    /// Set once an insertion was refused.
    full: bool,
}

impl LazyDfa {
    /// An empty DFA over `cm`, keeping `side_width` side bytes per
    /// configuration (0 when the caller memoizes nothing beside the steps).
    pub fn new(cm: &CompiledMfa, side_width: usize) -> Self {
        let nw = cm.nfa_words();
        let aw = cm.afa_words();
        LazyDfa {
            nw,
            aw,
            cols: cm.columns() as usize,
            side_width,
            ids: HashMap::new(),
            rows: Vec::new(),
            configs: Vec::new(),
            finals: Vec::new(),
            edges: Vec::new(),
            table: Vec::new(),
            transitions: Vec::new(),
            side: Vec::new(),
            key: vec![0; nw + aw],
            bytes: 0,
            full: false,
        }
    }

    /// Interns the configuration (`mstates`, `requests`) — the ε-closed
    /// pending NFA states and the closed filter requests before λ triggers
    /// — and returns its id, or `None` when the DFA is full.
    pub fn intern(&mut self, cm: &CompiledMfa, mstates: &[u64], requests: &[u64]) -> Option<u32> {
        self.key[..self.nw].copy_from_slice(mstates);
        self.key[self.nw..].copy_from_slice(requests);
        self.intern_key(cm)
    }

    /// The memoized step of configuration `parent` on column `col`, filled
    /// on a miss while the DFA has room.
    #[inline]
    pub fn step(&mut self, cm: &CompiledMfa, parent: u32, col: u32) -> Step {
        match self.table[parent as usize * self.cols + col as usize] {
            UNKNOWN => self.fill(cm, parent, col),
            DEAD => Step::Dead,
            entry => {
                let transition = entry - 2;
                Step::Child {
                    config: self.transitions[transition as usize].child,
                    transition,
                }
            }
        }
    }

    /// The ε-closed pending NFA states of `config`.
    #[inline]
    pub fn mstates(&self, config: u32) -> &[u64] {
        let at = config as usize * self.stride();
        &self.rows[at..at + self.nw]
    }

    /// The closed filter requests of `config` before the λ triggers (the
    /// row OptHyPE's index check reads).
    #[inline]
    pub fn requests(&self, config: u32) -> &[u64] {
        let at = config as usize * self.stride() + self.nw;
        &self.rows[at..at + self.aw]
    }

    /// The closed filter requests of `config` after the λ triggers (the
    /// row the node's filter evaluation and its children read).
    #[inline]
    pub fn closure(&self, config: u32) -> &[u64] {
        let at = config as usize * self.stride() + self.nw + self.aw;
        &self.rows[at..at + self.aw]
    }

    /// Per pending state of `config`, in rank order: is it final?
    #[inline]
    pub fn finals(&self, config: u32) -> &[bool] {
        let c = self.configs[config as usize];
        &self.finals[c.finals as usize..(c.finals + c.states) as usize]
    }

    /// The within-node ε edges of `config` as `(rank, rank)` pairs, in the
    /// order HyPE pushes them.
    #[inline]
    pub fn eps_edges(&self, config: u32) -> &[(u32, u32)] {
        let c = self.configs[config as usize];
        &self.edges[c.eps_from as usize..c.eps_to as usize]
    }

    /// The parent-edge template of `transition` as `(parent rank, child
    /// rank)` pairs, in push order.
    #[inline]
    pub fn parent_edges(&self, transition: u32) -> &[(u32, u32)] {
        let t = self.transitions[transition as usize];
        &self.edges[t.edges_from as usize..t.edges_to as usize]
    }

    /// The caller's decision memoized for (`config`, `row`), if any.
    #[inline]
    pub fn side(&self, config: u32, row: usize) -> Option<bool> {
        match self.side[config as usize * self.side_width + row] {
            0 => None,
            b => Some(b == 2),
        }
    }

    /// Memoizes the caller's decision for (`config`, `row`).
    #[inline]
    pub fn set_side(&mut self, config: u32, row: usize, value: bool) {
        self.side[config as usize * self.side_width + row] = if value { 2 } else { 1 };
    }

    /// Number of interned configurations.
    pub fn configs(&self) -> usize {
        self.configs.len()
    }

    /// Stored bytes, never above [`LAZY_DFA_BYTES`].
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// `true` once the DFA refused an insertion for lack of room.
    pub fn is_full(&self) -> bool {
        self.full
    }

    #[inline]
    fn stride(&self) -> usize {
        self.nw + 2 * self.aw
    }

    /// Looks `self.key` up, interning it when new and there is room.
    fn intern_key(&mut self, cm: &CompiledMfa) -> Option<u32> {
        if let Some(&id) = self.ids.get(self.key.as_slice()) {
            return Some(id);
        }
        if self.full {
            return None;
        }
        let (nw, aw) = (self.nw, self.aw);
        let id = self.configs.len() as u32;
        let (rows_len, finals_len, edges_len) =
            (self.rows.len(), self.finals.len(), self.edges.len());

        // Rows: mstates, requests, and the closure with λ triggers added.
        self.rows.extend_from_slice(&self.key);
        self.rows.extend_from_slice(&self.key[nw..]);
        let row = &mut self.rows[rows_len..];
        let (mstates, rest) = row.split_at_mut(nw);
        cm.add_triggers(mstates, &mut rest[aw..]);

        // Vertex template: finals per rank, then the ε edges in the order
        // the per-state loop pushes them.
        let mstates = &self.rows[rows_len..rows_len + nw];
        let mut states = 0u32;
        for s in bits::ones(mstates) {
            self.finals.push(cm.is_final(s));
            states += 1;
        }
        for (k, s) in bits::ones(mstates).enumerate() {
            for &t in cm.eps_targets(s) {
                if bits::test(mstates, t) {
                    self.edges.push((k as u32, bits::rank(mstates, t)));
                }
            }
        }

        let cost = 8 * (3 * nw + 3 * aw)
            + MAP_ENTRY_BYTES
            + states as usize
            + size_of::<(u32, u32)>() * (self.edges.len() - edges_len)
            + size_of::<Config>()
            + 4 * self.cols
            + self.side_width;
        if self.bytes + cost > LAZY_DFA_BYTES {
            self.rows.truncate(rows_len);
            self.finals.truncate(finals_len);
            self.edges.truncate(edges_len);
            self.full = true;
            return None;
        }
        self.bytes += cost;
        self.configs.push(Config {
            finals: finals_len as u32,
            states,
            eps_from: edges_len as u32,
            eps_to: self.edges.len() as u32,
        });
        self.table.resize(self.table.len() + self.cols, UNKNOWN);
        self.side.resize(self.side.len() + self.side_width, 0);
        self.ids.insert(self.key.as_slice().into(), id);
        Some(id)
    }

    /// A miss: runs the set function into `self.key`, records the outcome
    /// and returns it, or [`Step::Uncached`] when there is no room.
    #[inline(never)]
    fn fill(&mut self, cm: &CompiledMfa, parent: u32, col: u32) -> Step {
        if self.full {
            return Step::Uncached;
        }
        let (nw, stride) = (self.nw, self.stride());
        let at = parent as usize * stride;
        self.key.fill(0);
        let (out_mstates, out_requests) = self.key.split_at_mut(nw);
        // The fused request pass: the per-entry one is the scalar oracle,
        // which runs without a memo.
        cm.step_config(
            &self.rows[at..at + nw],
            &self.rows[at + nw + self.aw..at + stride],
            col,
            true,
            out_mstates,
            out_requests,
        );
        let slot = parent as usize * self.cols + col as usize;
        if !bits::any(&self.key) {
            self.table[slot] = DEAD;
            return Step::Dead;
        }
        let Some(child) = self.intern_key(cm) else {
            return Step::Uncached;
        };

        // Parent-edge template, in the order the per-state loop pushes it.
        let edges_from = self.edges.len();
        let parent_mstates = &self.rows[at..at + nw];
        let child_at = child as usize * stride;
        let child_mstates = &self.rows[child_at..child_at + nw];
        for (kp, sp) in bits::ones(parent_mstates).enumerate() {
            for &tgt in cm.step_targets(sp, col) {
                if bits::test(child_mstates, tgt) {
                    self.edges.push((kp as u32, bits::rank(child_mstates, tgt)));
                }
            }
        }
        let cost =
            size_of::<Transition>() + size_of::<(u32, u32)>() * (self.edges.len() - edges_from);
        if self.bytes + cost > LAZY_DFA_BYTES {
            self.edges.truncate(edges_from);
            self.full = true;
            return Step::Uncached;
        }
        self.bytes += cost;
        let transition = self.transitions.len() as u32;
        self.transitions.push(Transition {
            child,
            edges_from: edges_from as u32,
            edges_to: self.edges.len() as u32,
        });
        self.table[slot] = transition + 2;
        Step::Child {
            config: child,
            transition,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_query;
    use smoqe_xpath::parse_path;

    fn ir(query: &str) -> CompiledMfa {
        CompiledMfa::new(&compile_query(&parse_path(query).unwrap()))
    }

    #[test]
    fn steps_are_memoized_and_dead_steps_recorded() {
        let cm = ir("patient[visit]/pname");
        let mut dfa = LazyDfa::new(&cm, 0);
        let zeros = vec![0; cm.afa_words()];
        let root = dfa
            .intern(&cm, cm.state_closure(cm.start()), &zeros)
            .unwrap();
        assert_eq!(
            dfa.intern(&cm, cm.state_closure(cm.start()), &zeros),
            Some(root)
        );

        let patient = cm.labels().get("patient").unwrap().0;
        let first = dfa.step(&cm, root, patient);
        let Step::Child { config, .. } = first else {
            panic!("`patient` is live below the root: {first:?}");
        };
        assert_eq!(dfa.step(&cm, root, patient), first, "second step is a hit");
        assert!(
            bits::any(dfa.closure(config)),
            "the [visit] filter is triggered"
        );
        assert!(
            !bits::any(dfa.requests(config)),
            "no request came from above"
        );

        // Below the root, an unknown label kills the selecting path.
        assert_eq!(dfa.step(&cm, root, cm.unknown_column()), Step::Dead);
        assert!(dfa.bytes() > 0 && dfa.bytes() <= LAZY_DFA_BYTES);
        assert!(!dfa.is_full());
    }

    #[test]
    fn side_bytes_round_trip() {
        let cm = ir("a/b");
        let mut dfa = LazyDfa::new(&cm, 3);
        let zeros = vec![0; cm.afa_words()];
        let c = dfa
            .intern(&cm, cm.state_closure(cm.start()), &zeros)
            .unwrap();
        assert_eq!(dfa.side(c, 2), None);
        dfa.set_side(c, 2, true);
        dfa.set_side(c, 0, false);
        assert_eq!(dfa.side(c, 2), Some(true));
        assert_eq!(dfa.side(c, 0), Some(false));
        assert_eq!(dfa.side(c, 1), None);
    }
}
