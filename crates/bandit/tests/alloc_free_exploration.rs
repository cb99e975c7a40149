//! ε-greedy exploration draws allocate nothing: a counting global
//! allocator wraps the system allocator, and an ε = 1 policy (every pull
//! explores) selects and updates thousands of times, with and without a
//! feasibility mask, after a warm-up. Any heap traffic on the exploration
//! path shows up as a non-zero count.

use adaedge_bandit::{EpsilonGreedy, Policy, StepSize};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocation (alloc, alloc_zeroed, realloc); frees are not
/// counted.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// `pulls` select/update rounds; returns how many allocations they made.
fn allocations_over(
    policy: &mut EpsilonGreedy,
    mask: Option<&[bool]>,
    rng: &mut SmallRng,
    pulls: usize,
) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..pulls {
        let arm = policy.select(mask, rng);
        policy.update(arm, (i % 7) as f64 / 7.0);
    }
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

// One test in this binary, so no concurrent test thread allocates while
// the counter is read.
#[test]
fn exploration_allocates_nothing_in_steady_state() {
    let mask = [true, false, true, true, false, true, false, true];
    for (what, mask) in [("no mask", None), ("masked", Some(&mask[..]))] {
        let mut policy = EpsilonGreedy::with_options(8, 1.0, 1.0, StepSize::Constant(0.5));
        let mut rng = SmallRng::seed_from_u64(11);
        let _ = allocations_over(&mut policy, mask, &mut rng, 64);
        let steady = allocations_over(&mut policy, mask, &mut rng, 5000);
        assert_eq!(
            steady, 0,
            "{what}: 5000 exploring pulls allocated {steady} times"
        );
    }
}
