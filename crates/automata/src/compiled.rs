//! The dense, bitset-based execution IR compiled from a builder [`Mfa`].
//!
//! The builder-facing [`Mfa`] is optimized for *construction*: the query
//! compiler and the view-rewriting algorithm grow it state by state, so its
//! states hold growable `Vec`s, its AFAs are separate objects with local
//! state ids, and its transitions carry labels of the MFA's own interner
//! that must be matched against a document's interner at every step.
//! Evaluating that representation directly makes every hot-path operation a
//! pointer chase or a hash lookup: filter values live in a
//! `HashMap<(AfaId, AfaStateId), bool>`, request closures in `BTreeSet`s,
//! and each child step scans transition `Vec`s through a `LabelMap`.
//!
//! [`CompiledMfa`] is the *execution* representation — compiled once per
//! query, run against any number of documents:
//!
//! * **Global AFA numbering.** All AFA states of all filters are flattened
//!   into one contiguous `0..afa_state_count` range (AFAs in `AfaId` order,
//!   states in local order), so a set of pending filter states is a bitset
//!   of `u64` words instead of a `BTreeSet<(AfaId, AfaStateId)>`, and the
//!   ascending bit order coincides with the `(AfaId, AfaStateId)`
//!   lexicographic order the interpreted engine iterates in — a property
//!   the differential suites rely on for bit-identical statistics.
//! * **Label columns.** Transitions are stored in dense tables indexed by
//!   *column*: one column per MFA label plus a trailing `unknown` column
//!   for document labels the automaton never mentions (only wildcard
//!   transitions appear there). A [`ColumnMap`] translates a document's
//!   interned label to its column with a single array read; per-transition
//!   `LabelMap` matching disappears from the per-node path.
//! * **Precomputed closures.** The ε-closure of every NFA state and the
//!   operator-state closure (AND/OR/NOT successors) of every AFA state are
//!   bitset rows computed at compile time; closing a set at runtime is a
//!   few word-ORs. `step_closure` additionally fuses "step on this column,
//!   then ε-close" into one precomputed row per `(state, column)` pair.
//!
//! The IR is a pure function of the `Mfa` — it embeds no document-specific
//! data — so it can be cached under the same key as the compiled query
//! itself (the `smoqe` service layer does exactly that) and shared across
//! threads behind an `Arc`.

use smoqe_xml::{LabelId, LabelInterner};

use crate::afa::{AfaState, FinalPredicate};
use crate::mfa::Mfa;
use crate::nfa::Transition;

/// Column/label sentinel meaning "wildcard" in [`CompiledAfaState::Trans`].
pub const ANY_LABEL: u32 = u32::MAX;

pub mod bits {
    //! Fixed-width bitsets stored as little-endian `u64` word slices.
    //!
    //! All evaluator sets — pending NFA states, filter-state closures,
    //! computed filter values — are rows of `words_for(n)` words. The
    //! helpers here are deliberately free functions over `&[u64]` /
    //! `&mut [u64]` so rows can live inline in larger flat allocations
    //! (the [`super::CompiledMfa`] tables) as well as in scratch buffers.
    //!
    //! ## Kernel selection
    //!
    //! The row-combining helpers ([`or_into`], [`any`], [`intersects`],
    //! [`count`]) exist in two implementations: the original word-by-word
    //! **scalar** loops, kept verbatim as the differential oracle, and
    //! **wide** variants that process [`WIDE_CHUNK`] words per iteration so
    //! the compiler can keep several independent OR/AND chains in flight
    //! (and auto-vectorize them — the chunk widens to 8 words on targets
    //! compiled with the `avx2` feature). Both produce identical results on
    //! every input; the process-wide [`kernel`] switch (environment variable
    //! `SMOQE_KERNEL=scalar|wide`, default `wide`) selects which one the
    //! dispatching helpers run, and CI runs the differential suites under
    //! both settings.

    use std::sync::OnceLock;

    /// Words processed per iteration by the wide kernels. Widened to 8 when
    /// the target is compiled with AVX2 (a 512-bit OR per iteration once
    /// auto-vectorized), 4 elsewhere.
    #[cfg(target_feature = "avx2")]
    pub const WIDE_CHUNK: usize = 8;
    /// Words processed per iteration by the wide kernels. Widened to 8 when
    /// the target is compiled with AVX2 (a 512-bit OR per iteration once
    /// auto-vectorized), 4 elsewhere.
    #[cfg(not(target_feature = "avx2"))]
    pub const WIDE_CHUNK: usize = 4;

    /// The micro-kernel implementation the dispatching helpers run.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Kernel {
        /// The original word-by-word loops (the differential oracle).
        Scalar,
        /// The multi-word-per-iteration loops (the default).
        Wide,
    }

    static KERNEL: OnceLock<Kernel> = OnceLock::new();

    /// The process-wide kernel selection, read once from the `SMOQE_KERNEL`
    /// environment variable (`scalar` forces the scalar oracle; anything
    /// else, including unset, selects the wide kernels).
    #[inline]
    pub fn kernel() -> Kernel {
        *KERNEL.get_or_init(|| match std::env::var("SMOQE_KERNEL").as_deref() {
            Ok("scalar") => Kernel::Scalar,
            _ => Kernel::Wide,
        })
    }

    /// Number of 64-bit words needed for `bit_count` bits (at least one).
    #[inline]
    pub fn words_for(bit_count: usize) -> usize {
        bit_count.div_ceil(64).max(1)
    }

    /// Sets bit `bit`.
    #[inline]
    pub fn set(words: &mut [u64], bit: u32) {
        words[(bit / 64) as usize] |= 1u64 << (bit % 64);
    }

    /// Clears bit `bit`.
    #[inline]
    pub fn unset(words: &mut [u64], bit: u32) {
        words[(bit / 64) as usize] &= !(1u64 << (bit % 64));
    }

    /// Tests bit `bit`.
    #[inline]
    pub fn test(words: &[u64], bit: u32) -> bool {
        words[(bit / 64) as usize] & (1u64 << (bit % 64)) != 0
    }

    /// Zeroes every word.
    #[inline]
    pub fn clear(words: &mut [u64]) {
        words.fill(0);
    }

    /// `dst |= src`. Returns `true` if `dst` changed. Dispatches on
    /// [`kernel`].
    #[inline]
    pub fn or_into(dst: &mut [u64], src: &[u64]) -> bool {
        match kernel() {
            Kernel::Scalar => or_into_scalar(dst, src),
            Kernel::Wide => or_into_wide(dst, src),
        }
    }

    /// The scalar `dst |= src` kernel: one word per iteration, change
    /// detection folded into the loop.
    #[inline]
    pub fn or_into_scalar(dst: &mut [u64], src: &[u64]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        let mut changed = false;
        for (d, &s) in dst.iter_mut().zip(src) {
            let next = *d | s;
            changed |= next != *d;
            *d = next;
        }
        changed
    }

    /// The wide `dst |= src` kernel: [`WIDE_CHUNK`] words per iteration
    /// with the change bits accumulated into one diff word, so the chunk
    /// body is branch-free and auto-vectorizes.
    #[inline]
    pub fn or_into_wide(dst: &mut [u64], src: &[u64]) -> bool {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let split = n - n % WIDE_CHUNK;
        let mut diff = 0u64;
        let (dc, dr) = dst.split_at_mut(split);
        let (sc, sr) = src.split_at(split);
        for (dchunk, schunk) in dc
            .chunks_exact_mut(WIDE_CHUNK)
            .zip(sc.chunks_exact(WIDE_CHUNK))
        {
            for (d, &s) in dchunk.iter_mut().zip(schunk) {
                let next = *d | s;
                diff |= next ^ *d;
                *d = next;
            }
        }
        for (d, &s) in dr.iter_mut().zip(sr) {
            let next = *d | s;
            diff |= next ^ *d;
            *d = next;
        }
        diff != 0
    }

    /// `true` if any bit is set. Dispatches on [`kernel`].
    #[inline]
    pub fn any(words: &[u64]) -> bool {
        match kernel() {
            Kernel::Scalar => any_scalar(words),
            Kernel::Wide => any_wide(words),
        }
    }

    /// The scalar emptiness kernel: early-exiting word loop.
    #[inline]
    pub fn any_scalar(words: &[u64]) -> bool {
        words.iter().any(|&w| w != 0)
    }

    /// The wide emptiness kernel: ORs [`WIDE_CHUNK`] words per iteration.
    #[inline]
    pub fn any_wide(words: &[u64]) -> bool {
        let split = words.len() - words.len() % WIDE_CHUNK;
        for chunk in words[..split].chunks_exact(WIDE_CHUNK) {
            if chunk.iter().fold(0u64, |acc, &w| acc | w) != 0 {
                return true;
            }
        }
        words[split..].iter().any(|&w| w != 0)
    }

    /// `true` if `a` and `b` share a set bit. Dispatches on [`kernel`].
    #[inline]
    pub fn intersects(a: &[u64], b: &[u64]) -> bool {
        match kernel() {
            Kernel::Scalar => intersects_scalar(a, b),
            Kernel::Wide => intersects_wide(a, b),
        }
    }

    /// The scalar intersection kernel: early-exiting word loop.
    #[inline]
    pub fn intersects_scalar(a: &[u64], b: &[u64]) -> bool {
        a.iter().zip(b).any(|(&x, &y)| x & y != 0)
    }

    /// The wide intersection kernel: ANDs [`WIDE_CHUNK`] word pairs per
    /// iteration into one accumulator.
    #[inline]
    pub fn intersects_wide(a: &[u64], b: &[u64]) -> bool {
        let n = a.len().min(b.len());
        let split = n - n % WIDE_CHUNK;
        for (ca, cb) in a[..split]
            .chunks_exact(WIDE_CHUNK)
            .zip(b[..split].chunks_exact(WIDE_CHUNK))
        {
            let mut acc = 0u64;
            for (&x, &y) in ca.iter().zip(cb) {
                acc |= x & y;
            }
            if acc != 0 {
                return true;
            }
        }
        a[split..n]
            .iter()
            .zip(&b[split..n])
            .any(|(&x, &y)| x & y != 0)
    }

    /// Number of set bits. Dispatches on [`kernel`].
    #[inline]
    pub fn count(words: &[u64]) -> usize {
        match kernel() {
            Kernel::Scalar => count_scalar(words),
            Kernel::Wide => count_wide(words),
        }
    }

    /// The scalar popcount kernel: one `count_ones` per word.
    #[inline]
    pub fn count_scalar(words: &[u64]) -> usize {
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The wide popcount kernel: [`WIDE_CHUNK`] independent popcount chains
    /// per iteration.
    #[inline]
    pub fn count_wide(words: &[u64]) -> usize {
        let split = words.len() - words.len() % WIDE_CHUNK;
        let mut total = 0usize;
        for chunk in words[..split].chunks_exact(WIDE_CHUNK) {
            let mut sub = 0u32;
            for &w in chunk {
                sub += w.count_ones();
            }
            total += sub as usize;
        }
        total
            + words[split..]
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>()
    }

    /// Number of set bits strictly below `bit` — the index a bit's state
    /// gets when set members are enumerated ascending.
    #[inline]
    pub fn rank(words: &[u64], bit: u32) -> u32 {
        let word = (bit / 64) as usize;
        let mut r = 0u32;
        for &w in &words[..word] {
            r += w.count_ones();
        }
        r + (words[word] & ((1u64 << (bit % 64)) - 1)).count_ones()
    }

    /// Iterates the set bits in ascending order.
    pub fn ones(words: &[u64]) -> Ones<'_> {
        Ones {
            words,
            word_index: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// Iterator over set bits, ascending (see [`ones`]).
    pub struct Ones<'a> {
        words: &'a [u64],
        word_index: usize,
        current: u64,
    }

    impl Iterator for Ones<'_> {
        type Item = u32;

        #[inline]
        fn next(&mut self) -> Option<u32> {
            while self.current == 0 {
                self.word_index += 1;
                if self.word_index >= self.words.len() {
                    return None;
                }
                self.current = self.words[self.word_index];
            }
            let bit = self.current.trailing_zeros();
            self.current &= self.current - 1;
            Some(self.word_index as u32 * 64 + bit)
        }
    }
}

/// One state of the flattened AFA layer, addressed by its global id.
#[derive(Debug, Clone)]
pub enum CompiledAfaState {
    /// AND operator state: successors are `succ_pool()[from..to]`.
    And {
        /// Start of the successor range in [`CompiledMfa::succ_pool`].
        from: u32,
        /// End (exclusive) of the successor range.
        to: u32,
    },
    /// OR operator state: successors are `succ_pool()[from..to]`.
    Or {
        /// Start of the successor range in [`CompiledMfa::succ_pool`].
        from: u32,
        /// End (exclusive) of the successor range.
        to: u32,
    },
    /// NOT operator state with its single successor (global id).
    Not(u32),
    /// Transition state: true iff some child on the matching label makes
    /// the successor true there.
    Trans {
        /// MFA label id of the transition, or [`ANY_LABEL`] for `*`.
        label: u32,
        /// Successor (global id), evaluated at the matching children.
        tgt: u32,
    },
    /// Final state with its predicate.
    Final(FinalPredicate),
}

/// Size statistics of a [`CompiledMfa`], reported by benches and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompiledMfaStats {
    /// Number of selecting-NFA states.
    pub nfa_states: usize,
    /// Number of AFA states across all filters (the global range).
    pub afa_states: usize,
    /// Number of label columns (MFA labels + the `unknown` column).
    pub columns: usize,
    /// Words per NFA bitset row.
    pub nfa_words: usize,
    /// Words per AFA bitset row.
    pub afa_words: usize,
}

/// A compact CSR (offsets + data) used for the per-state / per-column lists.
#[derive(Debug, Clone)]
struct Csr<T> {
    offsets: Box<[u32]>,
    data: Box<[T]>,
}

impl<T> Csr<T> {
    fn slice(&self, row: usize) -> &[T] {
        &self.data[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }
}

fn build_csr<T>(rows: impl IntoIterator<Item = Vec<T>>) -> Csr<T> {
    let mut offsets = vec![0u32];
    let mut data = Vec::new();
    for row in rows {
        data.extend(row);
        offsets.push(data.len() as u32);
    }
    Csr {
        offsets: offsets.into_boxed_slice(),
        data: data.into_boxed_slice(),
    }
}

/// The execution IR: see the module docs for the layout rationale.
#[derive(Debug, Clone)]
pub struct CompiledMfa {
    /// The MFA's label interner (columns `0..labels.len()` are its ids).
    labels: LabelInterner,
    /// `labels.len() + 1`; the last column is `unknown`.
    columns: u32,

    // ---- NFA layer ----
    nfa_states: u32,
    nfa_words: u32,
    start: u32,
    /// Bit per NFA state: final?
    final_mask: Box<[u64]>,
    /// Per NFA state: ε-targets in builder order (for within-node edges).
    eps: Csr<u32>,
    /// Per NFA state: its ε-closure (including itself), one row of
    /// `nfa_words` words each.
    closure: Box<[u64]>,
    /// Per `(column, state)`: label-transition targets in builder order,
    /// **with multiplicity** (a wildcard and a named transition to the same
    /// target yield two entries, exactly as the interpreted engine counts
    /// two `cans` edges).
    step: Csr<u32>,
    /// Per `(column, state)`: the union of the ε-closures of the step
    /// targets — "step then close" in one row read.
    step_closure: Box<[u64]>,
    /// Per NFA state: raw `(label-or-ANY, target)` pairs, kept for the
    /// DTD-pruning fixpoints which reason per MFA label.
    raw_trans: Csr<(u32, u32)>,
    /// Per NFA state: global id of the start state of its λ-annotated AFA,
    /// or `u32::MAX` when the state carries no filter.
    afa_start_of: Box<[u32]>,
    /// Per NFA state: operator-closure of its AFA start (all-zero row when
    /// the state carries no filter), `afa_words` words each.
    trigger: Box<[u64]>,

    // ---- AFA layer (flattened) ----
    afa_total: u32,
    afa_words: u32,
    /// Per `AfaId`: offset of its first state in the global numbering.
    afa_offset: Box<[u32]>,
    /// Per global AFA state: its compiled form.
    ops: Box<[CompiledAfaState]>,
    /// Successor pool for `And`/`Or`, in builder order.
    succ: Box<[u32]>,
    /// Per global AFA state: its operator-state closure (itself plus
    /// everything reachable through AND/OR/NOT ε-moves), `afa_words` each.
    op_closure: Box<[u64]>,
    /// Per column: `(trans-state, target)` pairs of transition states whose
    /// label matches the column (wildcards match every column).
    req_trans: Csr<(u32, u32)>,
    /// Per column: bitset of the transition states matching it — a one-AND
    /// pre-filter before walking `req_trans`.
    req_mask: Box<[u64]>,
    /// Per column: one `afa_words` operator-closure row per `req_trans`
    /// entry (same order — ascending trans-state id), each the target's
    /// `op_closure`. The fused step-then-close pass ORs a row straight from
    /// a popcount rank over `req_mask`, touching one contiguous table
    /// instead of chasing `(state, target)` pairs into `op_closure`.
    req_closure: Box<[u64]>,
    /// Per column: the value-accumulator slot for `Trans` states on that
    /// label, `u32::MAX` when no transition state mentions the label.
    slot_of_col: Box<[u32]>,
    /// Number of accumulator slots (distinct labelled `Trans` labels).
    slots: u32,
}

// The IR is handed out as `Arc<CompiledMfa>` and read concurrently by the
// parallel evaluator's worker threads and by every thread sharing a
// `smoqe::QueryService`. Its thread-safety is structural — immutable owned
// tables, no interior mutability — and this assertion turns any future
// field that would silently revoke `Send + Sync` (an `Rc`, a `Cell`, a
// lazily-filled cache) into a compile error here rather than a distant
// type error in a consumer crate.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledMfa>();
    assert_send_sync::<ColumnMap>();
};

impl CompiledMfa {
    /// Compiles `mfa` into the execution IR.
    pub fn new(mfa: &Mfa) -> Self {
        let labels = mfa.labels().clone();
        let label_count = labels.len() as u32;
        let columns = label_count + 1;
        let nfa = mfa.nfa();
        let n = nfa.len();
        let nw = bits::words_for(n);

        let mut final_mask = vec![0u64; nw];
        for (id, state) in nfa.states() {
            if state.is_final {
                bits::set(&mut final_mask, id.0);
            }
        }

        let eps = build_csr(
            nfa.states()
                .map(|(_, s)| s.eps.iter().map(|t| t.0).collect::<Vec<_>>()),
        );
        let raw_trans = build_csr(nfa.states().map(|(_, s)| {
            s.trans
                .iter()
                .map(|&(t, tgt)| {
                    let label = match t {
                        Transition::Any => ANY_LABEL,
                        Transition::Label(l) => l,
                    };
                    (label, tgt.0)
                })
                .collect::<Vec<_>>()
        }));

        // ε-closure fixpoint (handles cycles).
        let mut closure = vec![0u64; n * nw];
        for s in 0..n {
            bits::set(&mut closure[s * nw..(s + 1) * nw], s as u32);
        }
        loop {
            let mut changed = false;
            for s in 0..n {
                for i in 0..eps.slice(s).len() {
                    let t = eps.slice(s)[i] as usize;
                    let (a, b) = if t < s {
                        let (lo, hi) = closure.split_at_mut(s * nw);
                        (&mut hi[..nw], &lo[t * nw..(t + 1) * nw])
                    } else if t > s {
                        let (lo, hi) = closure.split_at_mut(t * nw);
                        (&mut lo[s * nw..(s + 1) * nw], &hi[..nw])
                    } else {
                        continue;
                    };
                    changed |= bits::or_into(a, b);
                }
            }
            if !changed {
                break;
            }
        }

        // Dense step tables, column-major.
        let step = build_csr((0..columns).flat_map(|col| {
            nfa.states()
                .map(move |(_, state)| {
                    state
                        .trans
                        .iter()
                        .filter(|&&(t, _)| transition_matches_column(t, col, label_count))
                        .map(|&(_, tgt)| tgt.0)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        }));
        let mut step_closure = vec![0u64; columns as usize * n * nw];
        for row in 0..columns as usize * n {
            let dst_range = row * nw..(row + 1) * nw;
            for &tgt in step.slice(row) {
                let tgt = tgt as usize;
                bits::or_into(
                    &mut step_closure[dst_range.clone()],
                    &closure[tgt * nw..(tgt + 1) * nw],
                );
            }
        }

        // ---- AFA layer ----
        let mut afa_offset = Vec::with_capacity(mfa.afas().len());
        let mut total = 0u32;
        for afa in mfa.afas() {
            afa_offset.push(total);
            total += afa.len() as u32;
        }
        let aw = bits::words_for(total as usize);

        let mut ops: Vec<CompiledAfaState> = Vec::with_capacity(total as usize);
        let mut succ: Vec<u32> = Vec::new();
        for (afa_idx, afa) in mfa.afas().iter().enumerate() {
            let off = afa_offset[afa_idx];
            for (_, state) in afa.states() {
                let compiled = match state {
                    AfaState::And(v) => {
                        let from = succ.len() as u32;
                        succ.extend(v.iter().map(|s| off + s.0));
                        CompiledAfaState::And {
                            from,
                            to: succ.len() as u32,
                        }
                    }
                    AfaState::Or(v) => {
                        let from = succ.len() as u32;
                        succ.extend(v.iter().map(|s| off + s.0));
                        CompiledAfaState::Or {
                            from,
                            to: succ.len() as u32,
                        }
                    }
                    AfaState::Not(x) => CompiledAfaState::Not(off + x.0),
                    AfaState::Trans(t, tgt) => CompiledAfaState::Trans {
                        label: match t {
                            Transition::Any => ANY_LABEL,
                            Transition::Label(l) => *l,
                        },
                        tgt: off + tgt.0,
                    },
                    AfaState::Final(p) => CompiledAfaState::Final(p.clone()),
                };
                ops.push(compiled);
            }
        }

        // Operator-closure fixpoint over AND/OR/NOT successors.
        let mut op_closure = vec![0u64; total as usize * aw];
        for g in 0..total as usize {
            bits::set(&mut op_closure[g * aw..(g + 1) * aw], g as u32);
        }
        loop {
            let mut changed = false;
            for g in 0..total as usize {
                let succs: &[u32] = match &ops[g] {
                    CompiledAfaState::And { from, to } | CompiledAfaState::Or { from, to } => {
                        &succ[*from as usize..*to as usize]
                    }
                    CompiledAfaState::Not(x) => std::slice::from_ref(x),
                    CompiledAfaState::Trans { .. } | CompiledAfaState::Final(_) => &[],
                };
                for &t in succs {
                    let t = t as usize;
                    if t == g {
                        continue;
                    }
                    let (a, b) = if t < g {
                        let (lo, hi) = op_closure.split_at_mut(g * aw);
                        (&mut hi[..aw], &lo[t * aw..(t + 1) * aw])
                    } else {
                        let (lo, hi) = op_closure.split_at_mut(t * aw);
                        (&mut lo[g * aw..(g + 1) * aw], &hi[..aw])
                    };
                    changed |= bits::or_into(a, b);
                }
            }
            if !changed {
                break;
            }
        }

        // Per-column transition-state tables and accumulator slots.
        let trans_states: Vec<(u32, u32, u32)> = ops
            .iter()
            .enumerate()
            .filter_map(|(g, op)| match op {
                CompiledAfaState::Trans { label, tgt } => Some((g as u32, *label, *tgt)),
                _ => None,
            })
            .collect();
        let mut slot_of_col = vec![u32::MAX; columns as usize];
        let mut slots = 0u32;
        for &(_, label, _) in &trans_states {
            if label != ANY_LABEL && slot_of_col[label as usize] == u32::MAX {
                slot_of_col[label as usize] = slots;
                slots += 1;
            }
        }
        let mut req_mask = vec![0u64; columns as usize * aw];
        let req_trans = build_csr((0..columns).map(|col| {
            let mut row = Vec::new();
            for &(g, label, tgt) in &trans_states {
                if label == ANY_LABEL || label == col {
                    row.push((g, tgt));
                    bits::set(&mut req_mask[col as usize * aw..(col as usize + 1) * aw], g);
                }
            }
            row
        }));
        // Fused-pass companion to `req_trans`: materialize each target's
        // operator-closure row next to its entry so the hot loop never
        // indirects back through `op_closure`.
        let mut req_closure = vec![0u64; req_trans.data.len() * aw];
        for (i, &(_, tgt)) in req_trans.data.iter().enumerate() {
            req_closure[i * aw..(i + 1) * aw]
                .copy_from_slice(&op_closure[tgt as usize * aw..(tgt as usize + 1) * aw]);
        }

        // λ annotations: AFA start ids and their closed trigger rows.
        let mut afa_start_of = vec![u32::MAX; n];
        let mut trigger = vec![0u64; n * aw];
        for (id, state) in nfa.states() {
            if let Some(afa_id) = state.afa {
                let g = afa_offset[afa_id.index()] + mfa.afa(afa_id).start().0;
                afa_start_of[id.index()] = g;
                bits::or_into(
                    &mut trigger[id.index() * aw..(id.index() + 1) * aw],
                    &op_closure[g as usize * aw..(g as usize + 1) * aw],
                );
            }
        }

        CompiledMfa {
            labels,
            columns,
            nfa_states: n as u32,
            nfa_words: nw as u32,
            start: nfa.start().0,
            final_mask: final_mask.into_boxed_slice(),
            eps,
            closure: closure.into_boxed_slice(),
            step,
            step_closure: step_closure.into_boxed_slice(),
            raw_trans,
            afa_start_of: afa_start_of.into_boxed_slice(),
            trigger: trigger.into_boxed_slice(),
            afa_total: total,
            afa_words: aw as u32,
            afa_offset: afa_offset.into_boxed_slice(),
            ops: ops.into_boxed_slice(),
            succ: succ.into_boxed_slice(),
            op_closure: op_closure.into_boxed_slice(),
            req_trans,
            req_mask: req_mask.into_boxed_slice(),
            req_closure: req_closure.into_boxed_slice(),
            slot_of_col: slot_of_col.into_boxed_slice(),
            slots,
        }
    }

    // ---- NFA accessors ----

    /// The MFA's label interner (column `i < columns()-1` is label id `i`).
    #[inline]
    pub fn labels(&self) -> &LabelInterner {
        &self.labels
    }

    /// Number of label columns, including the trailing `unknown` column.
    #[inline]
    pub fn columns(&self) -> u32 {
        self.columns
    }

    /// The `unknown` column: document labels the MFA never mentions.
    #[inline]
    pub fn unknown_column(&self) -> u32 {
        self.columns - 1
    }

    /// Number of NFA states.
    #[inline]
    pub fn nfa_state_count(&self) -> u32 {
        self.nfa_states
    }

    /// Words per NFA bitset row.
    #[inline]
    pub fn nfa_words(&self) -> usize {
        self.nfa_words as usize
    }

    /// The NFA start state.
    #[inline]
    pub fn start(&self) -> u32 {
        self.start
    }

    /// `true` if NFA state `s` is final.
    #[inline]
    pub fn is_final(&self, s: u32) -> bool {
        bits::test(&self.final_mask, s)
    }

    /// ε-targets of NFA state `s`, in builder order.
    #[inline]
    pub fn eps_targets(&self, s: u32) -> &[u32] {
        self.eps.slice(s as usize)
    }

    /// The ε-closure row of NFA state `s` (includes `s`).
    #[inline]
    pub fn state_closure(&self, s: u32) -> &[u64] {
        let w = self.nfa_words as usize;
        &self.closure[s as usize * w..(s as usize + 1) * w]
    }

    /// Label-transition targets of `s` on `col`, builder order, with
    /// multiplicity.
    #[inline]
    pub fn step_targets(&self, s: u32, col: u32) -> &[u32] {
        self.step
            .slice(col as usize * self.nfa_states as usize + s as usize)
    }

    /// The union of ε-closures of `step_targets(s, col)`.
    #[inline]
    pub fn step_closure(&self, s: u32, col: u32) -> &[u64] {
        let w = self.nfa_words as usize;
        let row = col as usize * self.nfa_states as usize + s as usize;
        &self.step_closure[row * w..(row + 1) * w]
    }

    /// Raw `(label-or-ANY, target)` transitions of NFA state `s`, for the
    /// DTD-pruning fixpoints.
    #[inline]
    pub fn raw_transitions(&self, s: u32) -> &[(u32, u32)] {
        self.raw_trans.slice(s as usize)
    }

    /// Global id of the start state of the AFA annotated on NFA state `s`.
    #[inline]
    pub fn afa_start_of(&self, s: u32) -> Option<u32> {
        let g = self.afa_start_of[s as usize];
        (g != u32::MAX).then_some(g)
    }

    /// The closed trigger row of NFA state `s` (all-zero when unannotated).
    #[inline]
    pub fn trigger_row(&self, s: u32) -> &[u64] {
        let w = self.afa_words as usize;
        &self.trigger[s as usize * w..(s as usize + 1) * w]
    }

    // ---- AFA accessors ----

    /// Number of AFA states across all filters.
    #[inline]
    pub fn afa_state_count(&self) -> u32 {
        self.afa_total
    }

    /// Words per AFA bitset row.
    #[inline]
    pub fn afa_words(&self) -> usize {
        self.afa_words as usize
    }

    /// Global offset of the first state of AFA `afa_index`.
    #[inline]
    pub fn afa_offset(&self, afa_index: usize) -> u32 {
        self.afa_offset[afa_index]
    }

    /// The compiled form of global AFA state `g`.
    #[inline]
    pub fn op(&self, g: u32) -> &CompiledAfaState {
        &self.ops[g as usize]
    }

    /// The `And`/`Or` successor pool.
    #[inline]
    pub fn succ_pool(&self) -> &[u32] {
        &self.succ
    }

    /// The operator-closure row of global AFA state `g` (includes `g`).
    #[inline]
    pub fn op_closure(&self, g: u32) -> &[u64] {
        let w = self.afa_words as usize;
        &self.op_closure[g as usize * w..(g as usize + 1) * w]
    }

    /// Transition states matching `col`, as `(state, target)` global pairs.
    #[inline]
    pub fn req_transitions(&self, col: u32) -> &[(u32, u32)] {
        self.req_trans.slice(col as usize)
    }

    /// Bitset of the transition states matching `col`.
    #[inline]
    pub fn req_mask(&self, col: u32) -> &[u64] {
        let w = self.afa_words as usize;
        &self.req_mask[col as usize * w..(col as usize + 1) * w]
    }

    /// Fused closure rows for `col`: one `afa_words()` row per
    /// [`req_transitions`](Self::req_transitions) entry, in the same
    /// (ascending trans-state) order, each the entry target's
    /// [`op_closure`](Self::op_closure). Row `i` for a column is located by
    /// ranking the `i`-th set bit of [`req_mask`](Self::req_mask).
    #[inline]
    pub fn req_closure_rows(&self, col: u32) -> &[u64] {
        let w = self.afa_words as usize;
        let from = self.req_trans.offsets[col as usize] as usize;
        let to = self.req_trans.offsets[col as usize + 1] as usize;
        &self.req_closure[from * w..to * w]
    }

    /// The value-accumulator slot of `label`'s column, if any transition
    /// state mentions the label.
    #[inline]
    pub fn slot_of_label(&self, label: u32) -> Option<u32> {
        let s = self.slot_of_col[label as usize];
        (s != u32::MAX).then_some(s)
    }

    /// Number of value-accumulator slots (distinct labelled `Trans` labels).
    #[inline]
    pub fn slot_count(&self) -> u32 {
        self.slots
    }

    // ---- The per-node set function ----

    /// One child step of a HyPE configuration: steps every pending state of
    /// `mstates` on `col` and ε-closes them (one precompiled row OR per
    /// state) into `out_mstates`, and propagates the closed filter requests
    /// `closure` through the transition states matching `col` into
    /// `out_closure` — the child's requests *before* its λ triggers
    /// ([`Self::add_triggers`]). Both outputs must start all-zero.
    ///
    /// `fused` runs the request pass over the [`Self::req_closure_rows`]
    /// table; `false` runs the original per-entry [`Self::req_transitions`]
    /// scan, kept as the differential oracle. Both produce the same rows.
    #[inline]
    pub fn step_config(
        &self,
        mstates: &[u64],
        closure: &[u64],
        col: u32,
        fused: bool,
        out_mstates: &mut [u64],
        out_closure: &mut [u64],
    ) {
        for s in bits::ones(mstates) {
            bits::or_into(out_mstates, self.step_closure(s, col));
        }
        let mask = self.req_mask(col);
        if !bits::intersects(mask, closure) {
            return;
        }
        if fused {
            // AND the column mask against the parent closure, and for every
            // hit OR the precomputed `req_closure` row found by popcount
            // rank — one contiguous table walk, no per-entry bit probing or
            // `op_closure` indirection.
            let aw = self.afa_words();
            let rows = self.req_closure_rows(col);
            let mut base = 0u32;
            for (wi, &mw) in mask.iter().enumerate() {
                let mut hits = mw & closure[wi];
                while hits != 0 {
                    let b = hits.trailing_zeros();
                    hits &= hits - 1;
                    let idx = (base + (mw & ((1u64 << b) - 1)).count_ones()) as usize;
                    bits::or_into(out_closure, &rows[idx * aw..(idx + 1) * aw]);
                }
                base += mw.count_ones();
            }
        } else {
            for &(g, tgt) in self.req_transitions(col) {
                if bits::test(closure, g) {
                    bits::or_into(out_closure, self.op_closure(tgt));
                }
            }
        }
    }

    /// ORs the closed trigger rows of every λ-annotated state of `mstates`
    /// into `closure`: the filters started at a node that assumes those
    /// states.
    #[inline]
    pub fn add_triggers(&self, mstates: &[u64], closure: &mut [u64]) {
        for s in bits::ones(mstates) {
            if self.afa_start_of(s).is_some() {
                bits::or_into(closure, self.trigger_row(s));
            }
        }
    }

    /// Size statistics.
    pub fn stats(&self) -> CompiledMfaStats {
        CompiledMfaStats {
            nfa_states: self.nfa_states as usize,
            afa_states: self.afa_total as usize,
            columns: self.columns as usize,
            nfa_words: self.nfa_words as usize,
            afa_words: self.afa_words as usize,
        }
    }

    /// Approximate heap footprint in bytes (tables only), for bench reports.
    pub fn memory_bytes(&self) -> usize {
        8 * (self.closure.len()
            + self.step_closure.len()
            + self.op_closure.len()
            + self.req_mask.len()
            + self.req_closure.len()
            + self.trigger.len()
            + self.final_mask.len())
            + 4 * (self.eps.data.len()
                + self.step.data.len()
                + self.succ.len()
                + self.afa_start_of.len()
                + self.slot_of_col.len())
            + 8 * (self.raw_trans.data.len() + self.req_trans.data.len())
            + std::mem::size_of::<CompiledAfaState>() * self.ops.len()
    }
}

#[inline]
fn transition_matches_column(t: Transition, col: u32, label_count: u32) -> bool {
    match t {
        Transition::Any => true,
        // A named transition never matches the trailing `unknown` column.
        Transition::Label(l) => col < label_count && l == col,
    }
}

/// Translation from a document interner's label ids to [`CompiledMfa`]
/// columns: one array read per child step, growable mid-stream.
///
/// The map is the only document-dependent piece of the execution path; the
/// IR itself stays shareable across documents and threads.
#[derive(Debug, Clone)]
pub struct ColumnMap {
    cols: Vec<u32>,
    unknown: u32,
}

impl ColumnMap {
    /// Builds the map for evaluating `compiled` over documents interned by
    /// `doc_labels`.
    pub fn new(compiled: &CompiledMfa, doc_labels: &LabelInterner) -> Self {
        let unknown = compiled.unknown_column();
        ColumnMap {
            cols: doc_labels
                .iter()
                .map(|(_, name)| {
                    compiled
                        .labels()
                        .get(name)
                        .map(|id| id.0)
                        .unwrap_or(unknown)
                })
                .collect(),
            unknown,
        }
    }

    /// Covers document labels interned after construction (streaming
    /// engines intern labels as they first appear).
    pub fn extend(&mut self, compiled: &CompiledMfa, doc_labels: &LabelInterner) {
        for (doc_id, name) in doc_labels.iter().skip(self.cols.len()) {
            debug_assert_eq!(doc_id.index(), self.cols.len());
            self.cols.push(
                compiled
                    .labels()
                    .get(name)
                    .map(|id| id.0)
                    .unwrap_or(self.unknown),
            );
        }
    }

    /// The column of a document label (the `unknown` column for ids the map
    /// has never seen, mirroring `LabelMap::translate`'s `None`).
    #[inline]
    pub fn col(&self, doc_label: LabelId) -> u32 {
        self.cols
            .get(doc_label.index())
            .copied()
            .unwrap_or(self.unknown)
    }

    /// Number of document labels covered.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// `true` if no document labels are covered yet.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_query;
    use smoqe_xpath::parse_path;

    fn compiled(query: &str) -> (Mfa, CompiledMfa) {
        let mfa = compile_query(&parse_path(query).unwrap());
        let cm = CompiledMfa::new(&mfa);
        (mfa, cm)
    }

    #[test]
    fn bitset_helpers_roundtrip() {
        let mut w = vec![0u64; 2];
        bits::set(&mut w, 3);
        bits::set(&mut w, 64);
        bits::set(&mut w, 127);
        assert!(bits::test(&w, 3) && bits::test(&w, 64) && bits::test(&w, 127));
        assert_eq!(bits::count(&w), 3);
        assert_eq!(bits::ones(&w).collect::<Vec<_>>(), vec![3, 64, 127]);
        assert_eq!(bits::rank(&w, 64), 1);
        assert_eq!(bits::rank(&w, 127), 2);
        bits::unset(&mut w, 64);
        assert!(!bits::test(&w, 64));
        let other = vec![0u64, 1u64 << 63];
        assert!(bits::intersects(&w, &other));
        assert!(bits::any(&w));
        bits::clear(&mut w);
        assert!(!bits::any(&w));
    }

    /// Naive reference popcount: test every bit position one at a time.
    fn naive_count(words: &[u64]) -> usize {
        (0..words.len() * 64)
            .filter(|&b| bits::test(words, b as u32))
            .count()
    }

    /// Naive reference rank: count set bits strictly below `bit`.
    fn naive_rank(words: &[u64], bit: u32) -> u32 {
        (0..bit).filter(|&b| bits::test(words, b)).count() as u32
    }

    #[test]
    fn bitset_word_boundary_sweeps() {
        // Sweep row widths that straddle the u64 word boundary: every bit
        // set alone must round-trip through set/test/unset, and rank/count
        // must agree with a naive per-bit loop in both kernels.
        for bit_count in [63usize, 64, 65, 127, 128] {
            let words = bits::words_for(bit_count);
            assert_eq!(words, bit_count.div_ceil(64));
            let mut row = vec![0u64; words];
            for b in 0..bit_count as u32 {
                bits::set(&mut row, b);
                assert!(bits::test(&row, b), "bit {b} of {bit_count}");
                assert_eq!(bits::count_scalar(&row), 1);
                assert_eq!(bits::count_wide(&row), 1);
                assert_eq!(bits::rank(&row, b), 0);
                assert_eq!(bits::ones(&row).collect::<Vec<_>>(), vec![b]);
                bits::unset(&mut row, b);
                assert!(!bits::any_scalar(&row) && !bits::any_wide(&row));
            }
            // Dense fill: every prefix rank matches the naive loop.
            for b in 0..bit_count as u32 {
                bits::set(&mut row, b);
            }
            assert_eq!(bits::count_scalar(&row), naive_count(&row));
            assert_eq!(bits::count_wide(&row), naive_count(&row));
            for b in (0..bit_count as u32).step_by(7) {
                assert_eq!(bits::rank(&row, b), naive_rank(&row, b));
            }
        }
    }

    #[test]
    fn or_into_change_detection_both_kernels() {
        for words in [1usize, 2, 3, 5, 8, 9] {
            let mut dst = vec![0u64; words];
            let mut src = vec![0u64; words];
            bits::set(&mut src, (words as u32 * 64) - 1);
            bits::set(&mut src, 0);
            // First OR flips bits in the first and last word: changed.
            assert!(bits::or_into_scalar(&mut dst.clone(), &src));
            assert!(bits::or_into_wide(&mut dst, &src));
            // Second OR of the same row is a no-op: unchanged.
            assert!(!bits::or_into_scalar(&mut dst.clone(), &src));
            assert!(!bits::or_into_wide(&mut dst, &src));
            // A strict subset is also a no-op.
            let mut sub = vec![0u64; words];
            bits::set(&mut sub, 0);
            assert!(!bits::or_into_scalar(&mut dst.clone(), &sub));
            assert!(!bits::or_into_wide(&mut dst, &sub));
        }
    }

    #[test]
    fn wide_kernels_match_scalar_on_patterned_rows() {
        // Deterministic pseudo-random rows (xorshift) across widths that
        // cover both the chunked body and the remainder loop.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for words in 1usize..=(2 * bits::WIDE_CHUNK + 1) {
            for _ in 0..16 {
                let a: Vec<u64> = (0..words).map(|_| next()).collect();
                let b: Vec<u64> = (0..words).map(|_| next() & next()).collect();
                assert_eq!(bits::any_scalar(&a), bits::any_wide(&a));
                assert_eq!(bits::count_scalar(&a), bits::count_wide(&a));
                assert_eq!(bits::count_scalar(&a), naive_count(&a));
                assert_eq!(
                    bits::intersects_scalar(&a, &b),
                    bits::intersects_wide(&a, &b)
                );
                let mut ds = b.clone();
                let mut dw = b.clone();
                let cs = bits::or_into_scalar(&mut ds, &a);
                let cw = bits::or_into_wide(&mut dw, &a);
                assert_eq!(ds, dw);
                assert_eq!(cs, cw);
            }
        }
    }

    #[test]
    fn req_closure_rows_mirror_req_transitions() {
        for q in ["a[b and c]/d[e]", "(a/b)*/c", "a[b or (c and d)]/e"] {
            let (_, cm) = compiled(q);
            let aw = cm.afa_words();
            for col in 0..cm.columns() {
                let entries = cm.req_transitions(col);
                let rows = cm.req_closure_rows(col);
                assert_eq!(rows.len(), entries.len() * aw, "{q} col {col}");
                // The mask's set bits, in ascending order, are exactly the
                // entry trans-states — the rank-indexing contract of the
                // fused pass.
                let mask_bits: Vec<u32> = bits::ones(cm.req_mask(col)).collect();
                let entry_states: Vec<u32> = entries.iter().map(|&(g, _)| g).collect();
                assert_eq!(mask_bits, entry_states, "{q} col {col}");
                for (i, &(_, tgt)) in entries.iter().enumerate() {
                    assert_eq!(
                        &rows[i * aw..(i + 1) * aw],
                        cm.op_closure(tgt),
                        "{q} col {col} entry {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn global_numbering_matches_afa_order() {
        let (mfa, cm) = compiled("a[b and c]/d[e]");
        assert_eq!(cm.afa_state_count() as usize, mfa.stats().afa_states);
        let mut expected_offset = 0;
        for (i, afa) in mfa.afas().iter().enumerate() {
            assert_eq!(cm.afa_offset(i), expected_offset);
            expected_offset += afa.len() as u32;
        }
    }

    #[test]
    fn closure_rows_match_interpreted_eps_closure() {
        let (mfa, cm) = compiled("(a/b)*/c");
        let nfa = mfa.nfa();
        for (id, _) in nfa.states() {
            let expected: Vec<u32> = nfa.eps_closure(&[id]).into_iter().map(|s| s.0).collect();
            let got: Vec<u32> = bits::ones(cm.state_closure(id.0)).collect();
            assert_eq!(got, expected, "closure of state {id:?}");
        }
    }

    #[test]
    fn step_closure_fuses_step_and_close() {
        let (mfa, cm) = compiled("(a/b)*/c");
        let nfa = mfa.nfa();
        let a = cm.labels().get("a").unwrap().0;
        for (id, _) in nfa.states() {
            let mut expected: Vec<u32> = nfa
                .eps_closure(&nfa.step(&nfa.eps_closure(&[id]), a))
                .into_iter()
                .map(|s| s.0)
                .collect();
            expected.sort_unstable();
            // IR equivalent: step targets of the closure, then close.
            let mut mask = vec![0u64; cm.nfa_words()];
            for s in bits::ones(cm.state_closure(id.0)).collect::<Vec<_>>() {
                let row: Vec<u64> = cm.step_closure(s, a).to_vec();
                bits::or_into(&mut mask, &row);
            }
            let got: Vec<u32> = bits::ones(&mask).collect();
            assert_eq!(got, expected, "step closure from {id:?} on `a`");
        }
    }

    #[test]
    fn unknown_column_only_matches_wildcards() {
        let (_, cm) = compiled("a/*/b");
        let unk = cm.unknown_column();
        let mut wildcard_steps = 0;
        for s in 0..cm.nfa_state_count() {
            wildcard_steps += cm.step_targets(s, unk).len();
            for &(label, tgt) in cm.raw_transitions(s) {
                let hit = cm.step_targets(s, unk).contains(&tgt);
                if label == ANY_LABEL {
                    assert!(hit, "wildcard must appear in the unknown column");
                }
            }
        }
        assert!(wildcard_steps > 0, "query has a wildcard step");
    }

    #[test]
    fn column_map_translates_and_extends() {
        let (_, cm) = compiled("patient/record");
        let mut doc = LabelInterner::new();
        let hospital = doc.intern("hospital");
        let mut map = ColumnMap::new(&cm, &doc);
        assert_eq!(map.col(hospital), cm.unknown_column());
        let patient = doc.intern("patient");
        map.extend(&cm, &doc);
        assert_eq!(map.col(patient), cm.labels().get("patient").unwrap().0);
        assert_eq!(map.len(), 2);
        assert!(!map.is_empty());
        // Out-of-range ids fall back to the unknown column.
        assert_eq!(map.col(LabelId(99)), cm.unknown_column());
    }

    #[test]
    fn op_closure_contains_operator_successors_transitively() {
        let (mfa, cm) = compiled("a[(b/c)* and not(d)]");
        // For every state, the op-closure must equal the interpreted
        // `close_requests` of the singleton set.
        for (afa_idx, afa) in mfa.afas().iter().enumerate() {
            let off = cm.afa_offset(afa_idx);
            for (id, _) in afa.states() {
                let mut expected: Vec<u32> = {
                    use std::collections::BTreeSet;
                    let mut closure: BTreeSet<u32> = BTreeSet::new();
                    let mut work = vec![id];
                    closure.insert(id.0);
                    while let Some(q) = work.pop() {
                        let succs: Vec<crate::afa::AfaStateId> = match afa.state(q) {
                            AfaState::And(v) | AfaState::Or(v) => v.clone(),
                            AfaState::Not(x) => vec![*x],
                            _ => Vec::new(),
                        };
                        for s in succs {
                            if closure.insert(s.0) {
                                work.push(s);
                            }
                        }
                    }
                    closure.into_iter().map(|s| s + off).collect()
                };
                expected.sort_unstable();
                let got: Vec<u32> = bits::ones(cm.op_closure(off + id.0)).collect();
                assert_eq!(got, expected, "op closure of {id:?} in AFA {afa_idx}");
            }
        }
    }

    #[test]
    fn stats_and_memory_report() {
        let (mfa, cm) = compiled("a[b]/c");
        let st = cm.stats();
        assert_eq!(st.nfa_states, mfa.nfa().len());
        assert_eq!(st.afa_states, mfa.stats().afa_states);
        assert_eq!(st.columns, mfa.labels().len() + 1);
        assert!(cm.memory_bytes() > 0);
        assert!(cm.slot_count() as usize <= mfa.labels().len());
    }
}
