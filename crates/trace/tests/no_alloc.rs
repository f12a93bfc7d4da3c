//! Guard test: with no subscriber installed, the instrumentation
//! macros must not allocate — the whole model pipeline is instrumented
//! on its hot paths, so the disabled path has to be free.
//!
//! A counting global allocator makes the claim checkable. This file
//! holds exactly one test so no sibling test's allocations can race
//! the counter.

#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "test code: a failed unwrap or panic is a failed test, and output is diagnostics"
)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use nanocost_trace::{counter, event, gauge, metric_histogram, provenance, span};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_instrumentation_allocates_nothing() {
    // No subscriber is installed anywhere in this test binary, so every
    // macro below must take its disabled fast path — and timeline
    // sampling and stack profiling, which are only armed by
    // init_from_env / start_sampler, must be off too.
    assert!(!nanocost_trace::is_enabled());
    assert!(!nanocost_trace::timeline::sampling_enabled());
    assert!(!nanocost_trace::stack_registry::profiling_enabled());

    // The counter is global, so a stray allocation on the libtest
    // harness thread (which runs concurrently with the test body) can
    // leak into the window. Instrumentation that really allocated
    // would do so on every one of the 10 000 iterations in every
    // attempt; a harness blip is a one-off. So: pass if any attempt
    // observes a clean window.
    let mut counts = Vec::new();
    for _ in 0..5 {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let mut acc = 0.0f64;
        for i in 0..10_000u64 {
            let _span = span!("hot.path", iteration = i, sd = 300.0);
            event!("hot.event", value = acc);
            provenance!(
                equation: Eq4,
                function: "no_alloc::probe",
                inputs: [sd = 300.0, volume = i],
                outputs: [c_tr = acc],
            );
            counter!("hot.counter", 1);
            gauge!("hot.gauge", acc);
            metric_histogram!("hot.histogram", acc);
            nanocost_trace::timeline::record_sample("hot.sample", "gauge", acc);
            let _timer = nanocost_trace::metrics::Timer::start("hot.timer");
            // The profiler's publication hooks (called from every span
            // guard) must be a single relaxed load when disabled: no
            // slot registration, no TLS touch, no allocation.
            nanocost_trace::stack_registry::publish_push("hot.published");
            nanocost_trace::stack_registry::publish_pop();
            acc += 1.0;
        }
        let after = ALLOCATIONS.load(Ordering::Relaxed);
        assert!(acc > 0.0);
        if after == before {
            return;
        }
        counts.push(after - before);
    }
    panic!("disabled instrumentation performed allocations in every attempt: {counts:?}");
}
