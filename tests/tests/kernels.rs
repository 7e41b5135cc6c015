//! Property-based differential tests for the word-parallel bitset
//! kernels: on arbitrary random rows, every `*_wide` kernel must agree
//! bit-for-bit with its scalar oracle (`*_scalar`) and with a naive
//! per-bit reference, at every row width — including the remainder tail
//! that the chunked loops leave to the scalar epilogue.
//!
//! The same holds one level up for the configuration memo
//! (`smoqe_automata::lazy`): on random configurations and columns of the
//! hospital corpus's automata, a memoized transition — hit or miss — must
//! equal the one the per-state loops compute fresh, rows and templates.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;

use integration_tests::domain_corpus_irs;
use smoqe_automata::compiled::bits;
use smoqe_automata::lazy::Step;
use smoqe_automata::{CompiledMfa, LazyDfa};
use smoqe_toxgene::all_domains;

/// Naive per-bit popcount reference.
fn naive_count(words: &[u64]) -> usize {
    let mut n = 0;
    for wi in 0..words.len() {
        for b in 0..64 {
            if bits::test(words, (wi * 64 + b) as u32) {
                n += 1;
            }
        }
    }
    n
}

/// A deterministic xorshift64* stream from a proptest-chosen seed.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    state |= 1; // xorshift must not start at zero
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
}

/// A `width`-word row with mixed density — all-zero words, saturated
/// words and arbitrary patterns — so the early-exit paths (`any`,
/// `intersects`) see both outcomes often.
fn row(next: &mut impl FnMut() -> u64, width: usize) -> Vec<u64> {
    (0..width)
        .map(|_| {
            let w = next();
            match w % 3 {
                0 => 0,
                1 => u64::MAX,
                _ => next(),
            }
        })
        .collect()
}

/// The hospital domain's document and rewritten view queries, compiled once.
fn hospital_irs() -> &'static [Arc<CompiledMfa>] {
    static IRS: OnceLock<Vec<Arc<CompiledMfa>>> = OnceLock::new();
    IRS.get_or_init(|| {
        let hospital = all_domains()
            .into_iter()
            .find(|d| d.name == "hospital")
            .unwrap();
        domain_corpus_irs(&hospital)
            .into_iter()
            .map(|(_, ir)| ir)
            .collect()
    })
}

/// A random subset of `0..bits` as a `words`-word row.
fn subset(next: &mut impl FnMut() -> u64, words: usize, bits: u32) -> Vec<u64> {
    let mut r = row(next, words);
    for (wi, w) in r.iter_mut().enumerate() {
        let lo = wi as u32 * 64;
        if lo >= bits {
            *w = 0;
        } else if bits - lo < 64 {
            *w &= (1u64 << (bits - lo)) - 1;
        }
    }
    r
}

/// The vertex template of `mstates` computed by the per-state loops: the
/// finals per rank and the within-node ε edges as `(rank, rank)` pairs.
fn fresh_vertices(cm: &CompiledMfa, mstates: &[u64]) -> (Vec<bool>, Vec<(u32, u32)>) {
    let finals = bits::ones(mstates).map(|s| cm.is_final(s)).collect();
    let mut eps = Vec::new();
    for (k, s) in bits::ones(mstates).enumerate() {
        for &t in cm.eps_targets(s) {
            if bits::test(mstates, t) {
                eps.push((k as u32, bits::rank(mstates, t)));
            }
        }
    }
    (finals, eps)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// A memoized transition equals a fresh one: the child's pending
    /// states, requests before and after λ triggers, vertex template and
    /// parent-edge template, on a random configuration and column; the
    /// second lookup is a hit with the same ids; the fused and per-entry
    /// request passes agree.
    #[test]
    fn memoized_transition_matches_fresh(which in 0usize..1 << 16, seed in 0u64..1 << 48) {
        let irs = hospital_irs();
        let cm = &irs[which % irs.len()];
        let mut next = stream(seed);
        let (nw, aw) = (cm.nfa_words(), cm.afa_words());
        let mstates = subset(&mut next, nw, cm.nfa_state_count());
        let requests = subset(&mut next, aw, cm.afa_state_count());
        let col = (next() % cm.columns() as u64) as u32;

        let mut dfa = LazyDfa::new(cm, 0);
        let parent = dfa.intern(cm, &mstates, &requests).unwrap();
        let mut closure = requests.clone();
        cm.add_triggers(&mstates, &mut closure);
        prop_assert_eq!(dfa.mstates(parent), &mstates[..]);
        prop_assert_eq!(dfa.requests(parent), &requests[..]);
        prop_assert_eq!(dfa.closure(parent), &closure[..]);
        let (finals, eps) = fresh_vertices(cm, &mstates);
        prop_assert_eq!(dfa.finals(parent), &finals[..]);
        prop_assert_eq!(dfa.eps_edges(parent), &eps[..]);

        let mut child = vec![0; nw];
        let mut child_requests = vec![0; aw];
        cm.step_config(&mstates, &closure, col, true, &mut child, &mut child_requests);
        let (mut scalar, mut scalar_requests) = (vec![0; nw], vec![0; aw]);
        cm.step_config(&mstates, &closure, col, false, &mut scalar, &mut scalar_requests);
        prop_assert_eq!(&scalar, &child);
        prop_assert_eq!(&scalar_requests, &child_requests);

        let step = dfa.step(cm, parent, col);
        prop_assert_eq!(dfa.step(cm, parent, col), step);
        match step {
            Step::Dead => {
                prop_assert!(!bits::any(&child) && !bits::any(&child_requests));
            }
            Step::Child { config, transition } => {
                prop_assert_eq!(dfa.mstates(config), &child[..]);
                prop_assert_eq!(dfa.requests(config), &child_requests[..]);
                let mut child_closure = child_requests.clone();
                cm.add_triggers(&child, &mut child_closure);
                prop_assert_eq!(dfa.closure(config), &child_closure[..]);
                let (finals, eps) = fresh_vertices(cm, &child);
                prop_assert_eq!(dfa.finals(config), &finals[..]);
                prop_assert_eq!(dfa.eps_edges(config), &eps[..]);
                let mut parent_edges = Vec::new();
                for (kp, sp) in bits::ones(&mstates).enumerate() {
                    for &tgt in cm.step_targets(sp, col) {
                        if bits::test(&child, tgt) {
                            parent_edges.push((kp as u32, bits::rank(&child, tgt)));
                        }
                    }
                }
                prop_assert_eq!(dfa.parent_edges(transition), &parent_edges[..]);
                prop_assert_eq!(dfa.intern(cm, &child, &child_requests), Some(config));
            }
            Step::Uncached => prop_assert!(false, "a near-empty memo has room"),
        }
    }

    /// `or_into` — result words, change-detection flag, and idempotence —
    /// agree between the wide and scalar kernels at arbitrary widths.
    #[test]
    fn or_into_wide_matches_scalar(width in 1usize..24, seed in 0u64..1 << 48) {
        let mut next = stream(seed);
        let src = row(&mut next, width);
        let dst0 = row(&mut next, width);

        let mut scalar = dst0.clone();
        let mut wide = dst0;
        let changed_scalar = bits::or_into_scalar(&mut scalar, &src);
        let changed_wide = bits::or_into_wide(&mut wide, &src);
        prop_assert_eq!(&scalar, &wide);
        prop_assert_eq!(changed_scalar, changed_wide);

        // A second OR of the same source must report "unchanged" on both.
        prop_assert!(!bits::or_into_scalar(&mut scalar, &src));
        prop_assert!(!bits::or_into_wide(&mut wide, &src));
        prop_assert_eq!(&scalar, &wide);
    }

    /// `any`, `count` — wide kernels agree with the scalar oracle and a
    /// naive per-bit loop on arbitrary rows at every width prefix.
    #[test]
    fn unary_wide_kernels_match_scalar(seed in 0u64..1 << 48) {
        let mut next = stream(seed);
        let words = row(&mut next, 17);
        for width in 1..=words.len() {
            let prefix = &words[..width];
            let expected = naive_count(prefix);
            prop_assert_eq!(bits::count_scalar(prefix), expected);
            prop_assert_eq!(bits::count_wide(prefix), expected);
            prop_assert_eq!(bits::any_scalar(prefix), expected != 0);
            prop_assert_eq!(bits::any_wide(prefix), expected != 0);
        }
    }

    /// `intersects` — wide kernel agrees with the scalar oracle on
    /// arbitrary row pairs (zero, saturated and mixed words).
    #[test]
    fn intersects_wide_matches_scalar(seed in 0u64..1 << 48) {
        let mut next = stream(seed);
        let a = row(&mut next, 13);
        let b = row(&mut next, 13);
        for width in 1..=a.len() {
            let (a, b) = (&a[..width], &b[..width]);
            prop_assert_eq!(bits::intersects_wide(a, b), bits::intersects_scalar(a, b));
        }
    }

    /// `rank` agrees with counting the set bits strictly below the pivot.
    #[test]
    fn rank_matches_prefix_count(seed in 0u64..1 << 48, bit in 0u32..320) {
        let mut next = stream(seed);
        let words = row(&mut next, 5);
        let below = (0..bit).filter(|&b| bits::test(&words, b)).count() as u32;
        prop_assert_eq!(bits::rank(&words, bit), below);
    }
}
