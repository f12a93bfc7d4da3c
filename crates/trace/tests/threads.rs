//! Span stacks are strictly per-thread: concurrent instrumented
//! threads must each see a perfectly nested, self-contained span tree,
//! with no cross-thread interleaving in parent links.

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

use nanocost_trace::{span, RecordKind};

/// Runs a nested workload and returns this thread's captured records.
fn workload() -> Vec<nanocost_trace::Record> {
    let (records, ()) = nanocost_trace::with_collector(|| {
        for _ in 0..50 {
            let _a = span!("level.a");
            let _b = span!("level.b");
            {
                let _c = span!("level.c");
            }
        }
    });
    records
}

#[test]
fn per_thread_span_stacks_do_not_interleave() {
    let handles: Vec<_> = (0..4).map(|_| std::thread::spawn(workload)).collect();
    for handle in handles {
        let records = handle.join().expect("worker thread panicked");
        assert_eq!(records.len(), 50 * 6, "each iteration is 3 enters + 3 exits");

        // Every record in one collector carries one thread id.
        let tid = records[0].thread;
        assert!(records.iter().all(|r| r.thread == tid));

        // Replay the stream against a local stack: enters push, exits
        // must pop the matching innermost span, and parent links must
        // point at the span that was open on *this* thread.
        let mut stack: Vec<u64> = Vec::new();
        for rec in &records {
            match rec.kind {
                RecordKind::SpanEnter { span, parent, .. } => {
                    assert_eq!(
                        parent,
                        stack.last().copied(),
                        "parent must be this thread's innermost open span"
                    );
                    stack.push(span);
                }
                RecordKind::SpanExit { span, .. } => {
                    assert_eq!(stack.pop(), Some(span), "exits must be LIFO");
                }
                ref other => panic!("unexpected record {other:?}"),
            }
        }
        assert!(stack.is_empty(), "all spans closed");
    }
}
