//! Allocation discipline of the compiled engine.
//!
//! A counting global allocator checks that the compiled HyPE walk does not
//! allocate in its per-node steady state: it allocates a small fraction of
//! what the interpreted reference engine does on the same input, and
//! doubling the document adds allocations only through the output (answer
//! sets, amortised `cans` growth), far below one per extra visited node.
//! Counts are kept per thread, and budget 1 runs the walk on the calling
//! thread, so tests running in parallel cannot pollute each other's counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use integration_tests::{interpreted, run_ir};
use smoqe_automata::{compile_query, CompiledMfa, Mfa};
use smoqe_toxgene::{generate_hospital, HospitalConfig};
use smoqe_xml::XmlTree;
use smoqe_xpath::parse_path;

/// Counts every heap allocation (and reallocation) of the calling thread;
/// all calls forward to the system allocator.
struct CountingAllocator;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Allocations of the calling thread during one run of `f`, best of
/// `runs` (sheds lazy one-time initialisation inside the first call).
fn allocs_during<T>(runs: usize, mut f: impl FnMut() -> T) -> u64 {
    (0..runs)
        .map(|_| {
            let before = ALLOCATIONS.with(Cell::get);
            black_box(f());
            ALLOCATIONS.with(Cell::get) - before
        })
        .min()
        .expect("at least one run")
}

/// A broad query that keeps most of the document live, so the counts
/// measure the per-node substrate rather than pruning.
fn solo_query() -> Mfa {
    compile_query(&parse_path("//diagnosis").expect("query parses"))
}

fn hospital(patients: usize) -> XmlTree {
    generate_hospital(&HospitalConfig {
        patients,
        departments: 6,
        heart_disease_fraction: 0.3,
        max_ancestor_depth: 2,
        sibling_probability: 0.3,
        visits_per_patient: 2,
        test_visit_fraction: 0.3,
        seed: 2007,
    })
}

#[test]
fn compiled_walk_allocates_under_a_tenth_of_the_interpreted_walk() {
    let tree = hospital(2_000);
    let mfa = solo_query();
    let ir = Arc::new(CompiledMfa::new(&mfa));
    let compiled = allocs_during(3, || run_ir(&tree, tree.root(), &ir, None, 1));
    let interpreted = allocs_during(3, || interpreted::evaluate(&tree, &mfa));
    assert!(
        compiled * 10 < interpreted,
        "compiled path must allocate <10% of the interpreted path \
         (compiled {compiled}, interpreted {interpreted})"
    );
}

#[test]
fn compiled_steady_state_adds_under_a_quarter_allocation_per_extra_visited_node() {
    let ir = Arc::new(CompiledMfa::new(&solo_query()));
    let (small, large) = (hospital(700), hospital(1_400));
    let visits = |tree: &XmlTree| run_ir(tree, tree.root(), &ir, None, 1).stats.nodes_visited;
    let delta_visits = (visits(&large) - visits(&small)) as u64;
    let small_allocs = allocs_during(3, || run_ir(&small, small.root(), &ir, None, 1));
    let large_allocs = allocs_during(3, || run_ir(&large, large.root(), &ir, None, 1));
    let delta_allocs = large_allocs.saturating_sub(small_allocs);
    let per_node = delta_allocs as f64 / delta_visits as f64;
    assert!(
        per_node < 0.25,
        "compiled steady state must not allocate per node: {delta_allocs} extra \
         allocations over {delta_visits} extra visited nodes ({per_node:.4}/node)"
    );
}
