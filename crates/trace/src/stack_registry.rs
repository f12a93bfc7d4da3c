//! Per-thread span-stack publication and the sampling profiler.
//!
//! The paper's cost argument — effort must be *measured* before it can
//! be optimized — applies to this reproduction's own compute. This
//! module makes the live span stack of every thread observable without
//! locks on the hot path:
//!
//! * Each thread that enters a span while profiling is on publishes its
//!   current stack of `&'static str` span names into a per-thread
//!   `ThreadSlot` guarded by a **seqlock** (a versioned snapshot —
//!   the writer bumps an epoch counter to an odd value before mutating
//!   and back to even after; a reader retries until it observes the
//!   same even epoch on both sides of its copy).
//! * A background sampler thread ([`start_sampler`]) walks the registry
//!   at `NANOCOST_PROFILE_HZ` and emits one
//!   [`RecordKind::StackSample`] per non-idle thread through the
//!   regular dispatch fan-out (exporters, captures), stamped with the
//!   sampled thread's id and request scope. Registered sinks
//!   ([`add_sink`]) additionally receive each batch — the query
//!   server's profile ring hangs off this hook.
//!
//! When profiling is disabled (the default for library consumers), the
//! publication hooks are a single relaxed atomic load: no allocation,
//! no thread-local access, no fences. The seqlock protocol follows the
//! classic "seqlocks in C/C++ memory models" recipe: all slot payload
//! cells are atomics, the writer brackets relaxed payload stores with
//! `Release` ordering on the epoch, and the reader validates the epoch
//! *before* treating any copied `(ptr, len)` pair as a `&'static str`.

use std::sync::atomic::{
    fence, AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering,
};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use crate::record::RecordKind;

/// Deepest published stack; deeper frames are counted but not stored.
pub const MAX_FRAMES: usize = 32;

/// Longest request id captured into a slot (bytes); server ids are
/// `r<counter>`, far below this.
pub const REQ_ID_CAP: usize = 48;

/// Default sampling rate when `NANOCOST_PROFILE_HZ` enables profiling
/// without a number. 99 Hz (a prime, per profiler folklore) avoids
/// lockstep with millisecond-periodic work.
pub const DEFAULT_PROFILE_HZ: u32 = 99;

/// Upper bound on the sampling rate; beyond this the sampler thread
/// itself becomes the workload.
pub const MAX_PROFILE_HZ: u32 = 10_000;

/// How many torn reads a snapshot tolerates before giving up on a slot
/// for this tick (a writer churning faster than we can copy).
const SNAPSHOT_RETRIES: usize = 64;

const NANOS_PER_SEC: u64 = 1_000_000_000;

/// Global profiling switch: the *only* thing the publication hot path
/// reads when profiling is off.
static PROFILING: AtomicBool = AtomicBool::new(false);

/// Is stack publication (and therefore span instrumentation) armed?
#[inline]
#[must_use]
pub fn profiling_enabled() -> bool {
    PROFILING.load(Ordering::Relaxed)
}

/// Arms or disarms stack publication. Normally flipped by
/// [`start_sampler`]; exposed so tests and embedders can publish
/// without running a sampler thread.
pub fn set_profiling(on: bool) {
    PROFILING.store(on, Ordering::SeqCst);
}

/// One thread's shared stack slot. Single writer (the owning thread),
/// any number of lock-free readers.
///
/// Payload cells are all atomics so concurrent read/write is defined
/// behavior; consistency comes from the epoch protocol, not the cell
/// types. `frames` stores each span name as a raw `(ptr, len)` pair —
/// the names are `&'static str` literals, so a *validated* pair is
/// always safe to reconstruct; an unvalidated (torn) pair is discarded
/// before any dereference.
struct ThreadSlot {
    /// The owning thread's trace id (see [`crate::current_thread_id`]).
    thread: u64,
    /// Set by the owning thread's TLS destructor; pruned by the sampler.
    dead: AtomicBool,
    /// Seqlock epoch: odd while a write is in flight, even when stable.
    epoch: AtomicU64,
    /// Logical stack depth (may exceed [`MAX_FRAMES`]).
    depth: AtomicUsize,
    frame_ptrs: [AtomicPtr<u8>; MAX_FRAMES],
    frame_lens: [AtomicUsize; MAX_FRAMES],
    /// Innermost request-scope id bytes (UTF-8, length `req_len`).
    req: [AtomicU8; REQ_ID_CAP],
    req_len: AtomicUsize,
}

impl ThreadSlot {
    fn new(thread: u64) -> Self {
        ThreadSlot {
            thread,
            dead: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            depth: AtomicUsize::new(0),
            frame_ptrs: std::array::from_fn(|_| AtomicPtr::new(std::ptr::null_mut())),
            frame_lens: std::array::from_fn(|_| AtomicUsize::new(0)),
            req: std::array::from_fn(|_| AtomicU8::new(0)),
            req_len: AtomicUsize::new(0),
        }
    }

    /// Opens a write section: epoch becomes odd, then a `Release` fence
    /// orders the odd store before every payload store that follows.
    fn begin_write(&self) {
        let e = self.epoch.load(Ordering::Relaxed);
        self.epoch.store(e.wrapping_add(1), Ordering::Relaxed);
        fence(Ordering::Release);
    }

    /// Closes a write section: the `Release` store of the even epoch
    /// orders every payload store before it.
    fn end_write(&self) {
        let e = self.epoch.load(Ordering::Relaxed);
        self.epoch.store(e.wrapping_add(1), Ordering::Release);
    }

    /// Refreshes the request-id bytes from this thread's innermost
    /// request scope. Caller must hold the write section open.
    fn write_req(&self) {
        match crate::current_request_id() {
            Some(id) => {
                let bytes = id.as_bytes();
                let n = bytes.len().min(REQ_ID_CAP);
                for (cell, b) in self.req.iter().zip(bytes.iter().take(n)) {
                    cell.store(*b, Ordering::Relaxed);
                }
                self.req_len.store(n, Ordering::Relaxed);
            }
            None => self.req_len.store(0, Ordering::Relaxed),
        }
    }

    /// Owning thread pushed a span named `name`.
    fn push(&self, name: &'static str) {
        self.begin_write();
        let depth = self.depth.load(Ordering::Relaxed);
        if depth < MAX_FRAMES {
            self.frame_ptrs[depth].store(name.as_ptr().cast_mut(), Ordering::Relaxed);
            self.frame_lens[depth].store(name.len(), Ordering::Relaxed);
        }
        self.depth.store(depth.wrapping_add(1), Ordering::Relaxed);
        self.write_req();
        self.end_write();
    }

    /// Owning thread popped its innermost span.
    fn pop(&self) {
        self.begin_write();
        let depth = self.depth.load(Ordering::Relaxed);
        self.depth.store(depth.saturating_sub(1), Ordering::Relaxed);
        self.write_req();
        self.end_write();
    }

    /// Copies a consistent snapshot, or `None` if the slot is idle or
    /// the writer kept tearing the read for [`SNAPSHOT_RETRIES`] tries.
    fn snapshot(&self) -> Option<StackSnapshot> {
        let mut ptrs = [std::ptr::null::<u8>(); MAX_FRAMES];
        let mut lens = [0usize; MAX_FRAMES];
        let mut req_bytes = [0u8; REQ_ID_CAP];
        for _ in 0..SNAPSHOT_RETRIES {
            let e1 = self.epoch.load(Ordering::Acquire);
            if e1 & 1 == 1 {
                std::hint::spin_loop();
                continue;
            }
            let depth = self.depth.load(Ordering::Relaxed);
            let stored = depth.min(MAX_FRAMES);
            for i in 0..stored {
                ptrs[i] = self.frame_ptrs[i].load(Ordering::Relaxed);
                lens[i] = self.frame_lens[i].load(Ordering::Relaxed);
            }
            let req_len = self.req_len.load(Ordering::Relaxed).min(REQ_ID_CAP);
            for (byte, src) in req_bytes.iter_mut().zip(&self.req).take(req_len) {
                *byte = src.load(Ordering::Relaxed);
            }
            // Order the payload loads above before the epoch re-check.
            fence(Ordering::Acquire);
            let e2 = self.epoch.load(Ordering::Relaxed);
            if e1 != e2 {
                std::hint::spin_loop();
                continue;
            }
            if depth == 0 {
                return None;
            }
            let mut frames = Vec::with_capacity(stored);
            for i in 0..stored {
                if ptrs[i].is_null() {
                    return None;
                }
                // SAFETY: the epoch matched on both sides of the copy,
                // so every (ptr, len) pair was written whole by `push`
                // from a `&'static str` span name; reconstructing that
                // borrow is reading the original 'static literal.
                let name: &'static str = unsafe {
                    std::str::from_utf8_unchecked(std::slice::from_raw_parts(ptrs[i], lens[i]))
                };
                frames.push(name);
            }
            let req_id = if req_len == 0 {
                None
            } else {
                String::from_utf8(req_bytes[..req_len].to_vec()).ok()
            };
            return Some(StackSnapshot {
                thread: self.thread,
                depth: depth as u64,
                frames,
                req_id,
            });
        }
        None
    }
}

/// One consistent copy of a thread's published span stack.
#[derive(Debug, Clone)]
pub struct StackSnapshot {
    /// The sampled thread's trace id.
    pub thread: u64,
    /// Span names, outermost first (clamped to [`MAX_FRAMES`] entries).
    pub frames: Vec<&'static str>,
    /// The thread's full logical depth (≥ `frames.len()`).
    pub depth: u64,
    /// The thread's innermost request scope at sample time, if any.
    pub req_id: Option<String>,
}

/// Every live slot. Registration is rare (once per thread), so a
/// `Mutex` is fine here; the span hot path never touches it.
static REGISTRY: Mutex<Vec<Arc<ThreadSlot>>> = Mutex::new(Vec::new());

/// Poison-tolerant lock: a panicked registrant must not disable
/// profiling for the rest of the process.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// TLS owner of this thread's slot; marks it dead on thread exit so the
/// sampler can prune it.
struct SlotHandle {
    slot: Arc<ThreadSlot>,
}

impl Drop for SlotHandle {
    fn drop(&mut self) {
        self.slot.dead.store(true, Ordering::Release);
    }
}

thread_local! {
    static SLOT: SlotHandle = register_current_thread();
}

fn register_current_thread() -> SlotHandle {
    let slot = Arc::new(ThreadSlot::new(crate::current_thread_id()));
    lock(&REGISTRY).push(Arc::clone(&slot));
    SlotHandle { slot }
}

/// Publishes a span push. Called by [`crate::span::Span`] guards on
/// enter; a single relaxed load when profiling is off.
#[inline]
pub fn publish_push(name: &'static str) {
    if !profiling_enabled() {
        return;
    }
    let _ = SLOT.try_with(|h| h.slot.push(name));
}

/// Publishes a span pop (the counterpart of [`publish_push`]).
#[inline]
pub fn publish_pop() {
    if !profiling_enabled() {
        return;
    }
    let _ = SLOT.try_with(|h| h.slot.pop());
}

/// Walks the registry once, pruning dead slots, and returns a
/// consistent snapshot of every thread currently inside a span.
///
/// The registry lock is only held to copy out `Arc` handles; the
/// seqlock reads happen after it is released.
#[must_use]
pub fn sample_once() -> Vec<StackSnapshot> {
    let slots: Vec<Arc<ThreadSlot>> = {
        let mut reg = lock(&REGISTRY);
        reg.retain(|s| !s.dead.load(Ordering::Acquire));
        reg.iter().map(Arc::clone).collect()
    };
    slots.iter().filter_map(|s| s.snapshot()).collect()
}

/// A sampler-batch consumer: called once per tick with the snapshots
/// and the tick's `t_ns` timestamp.
pub type SampleSink = Box<dyn Fn(&[StackSnapshot], u64) + Send + Sync>;

static SINKS: Mutex<Vec<SampleSink>> = Mutex::new(Vec::new());

/// Registers a consumer for every future sampler batch (in addition to
/// the record dispatch). The query server's profile ring uses this.
pub fn add_sink(sink: SampleSink) {
    lock(&SINKS).push(sink);
}

static SAMPLER_STARTED: AtomicBool = AtomicBool::new(false);

/// Starts the background sampler at `hz` samples per second (clamped to
/// `1..=`[`MAX_PROFILE_HZ`]) and arms stack publication. Idempotent:
/// returns `false` if a sampler is already running (the first caller's
/// rate wins). The thread is detached and runs for the process
/// lifetime; per tick it emits one `stack_sample` record per non-idle
/// thread and feeds every registered sink.
pub fn start_sampler(hz: u32) -> bool {
    if SAMPLER_STARTED.swap(true, Ordering::SeqCst) {
        return false;
    }
    set_profiling(true);
    let hz = hz.clamp(1, MAX_PROFILE_HZ);
    let period = Duration::from_nanos(NANOS_PER_SEC / u64::from(hz));
    let spawned = std::thread::Builder::new()
        .name("nanocost-profiler".to_string())
        .spawn(move || loop {
            std::thread::sleep(period);
            tick();
        })
        .is_ok();
    if !spawned {
        set_profiling(false);
        SAMPLER_STARTED.store(false, Ordering::SeqCst);
    }
    spawned
}

/// One sampler pass: snapshot every thread, emit records, feed sinks.
fn tick() {
    let snaps = sample_once();
    if snaps.is_empty() {
        return;
    }
    let ts_us = crate::epoch_micros();
    let t_ns = crate::epoch_nanos();
    for s in &snaps {
        crate::dispatch_stamped(
            ts_us,
            s.thread,
            s.req_id.as_deref(),
            RecordKind::StackSample { frames: s.frames.clone(), depth: s.depth, t_ns },
        );
    }
    let sinks = lock(&SINKS);
    for sink in sinks.iter() {
        sink(&snaps, t_ns);
    }
}

/// How `NANOCOST_PROFILE_HZ` was spelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfileHz {
    /// Variable absent or empty: the consumer picks its own default
    /// (bins leave profiling off; the query server turns it on at
    /// [`DEFAULT_PROFILE_HZ`]).
    Unset,
    /// Explicitly disabled (`0`, `off`, `false`).
    Off,
    /// Sample at this rate.
    Hz(u32),
}

/// Parses `NANOCOST_PROFILE_HZ` strictly: a value that is neither a
/// rate nor an off-switch is an error, so a typo'd deployment fails
/// loudly instead of silently profiling at the wrong rate.
///
/// # Errors
///
/// Returns a description of the malformed value.
pub fn profile_hz_from_env() -> Result<ProfileHz, String> {
    let Ok(raw) = std::env::var("NANOCOST_PROFILE_HZ") else {
        return Ok(ProfileHz::Unset);
    };
    parse_profile_hz(&raw)
}

/// The pure half of [`profile_hz_from_env`].
///
/// # Errors
///
/// Returns a description of the malformed value.
pub fn parse_profile_hz(raw: &str) -> Result<ProfileHz, String> {
    let spec = raw.trim().to_ascii_lowercase();
    match spec.as_str() {
        "" => Ok(ProfileHz::Unset),
        "0" | "off" | "false" => Ok(ProfileHz::Off),
        "1" | "on" | "true" => Ok(ProfileHz::Hz(DEFAULT_PROFILE_HZ)),
        n => match n.parse::<u32>() {
            Ok(hz) => Ok(ProfileHz::Hz(hz.clamp(1, MAX_PROFILE_HZ))),
            Err(_) => Err(format!("NANOCOST_PROFILE_HZ: not a rate or off-switch: {raw:?}")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Canonical nesting used by the stress test: at depth `d` the
    /// stack must read exactly `NAMES[..d]`.
    const NAMES: [&str; 8] = [
        "stress.f0", "stress.f1", "stress.f2", "stress.f3", "stress.f4", "stress.f5",
        "stress.f6", "stress.f7",
    ];

    #[test]
    fn disabled_publication_is_inert() {
        // The suite never arms the global flag in this test, so the
        // hooks must be no-ops that leave no slot behind for a thread
        // that never profiles.
        assert!(!profiling_enabled());
        publish_push("never.published");
        publish_pop();
    }

    #[test]
    fn slot_snapshot_roundtrips_a_stack() {
        let slot = ThreadSlot::new(7);
        assert!(slot.snapshot().is_none(), "idle slot has no snapshot");
        slot.push("unit.outer");
        slot.push("unit.inner");
        let snap = slot.snapshot().expect("consistent snapshot");
        assert_eq!(snap.thread, 7);
        assert_eq!(snap.depth, 2);
        assert_eq!(snap.frames, ["unit.outer", "unit.inner"]);
        assert_eq!(snap.req_id, None);
        slot.pop();
        let snap = slot.snapshot().expect("consistent snapshot");
        assert_eq!(snap.frames, ["unit.outer"]);
        slot.pop();
        assert!(slot.snapshot().is_none(), "emptied slot has no snapshot");
    }

    #[test]
    fn slot_clamps_depth_but_counts_it() {
        let slot = ThreadSlot::new(1);
        let deep = MAX_FRAMES + 3;
        for _ in 0..deep {
            slot.push("unit.deep");
        }
        let snap = slot.snapshot().expect("consistent snapshot");
        assert_eq!(snap.depth as usize, deep);
        assert_eq!(snap.frames.len(), MAX_FRAMES);
        for _ in 0..deep {
            slot.pop();
        }
        assert!(slot.snapshot().is_none());
    }

    #[test]
    fn snapshot_carries_request_scope() {
        let slot = ThreadSlot::new(2);
        let _scope = crate::request_scope("r31");
        slot.push("unit.scoped");
        let snap = slot.snapshot().expect("consistent snapshot");
        assert_eq!(snap.req_id.as_deref(), Some("r31"));
        slot.pop();
    }

    /// The seqlock contract under real contention: a writer churning
    /// push/pop at full speed while a reader snapshots continuously.
    /// Every snapshot the reader accepts must be prefix-consistent with
    /// the canonical nesting — a torn read that leaked through epoch
    /// validation would mix frames from different depths and fail the
    /// exact-prefix assertion.
    #[test]
    fn seqlock_snapshots_are_prefix_consistent_under_churn() {
        // ≥ 1e6 epoch bumps: CYCLES full push+pop waves of depth 8.
        const CYCLES: usize = 70_000;
        const TOTAL_OPS: usize = CYCLES * NAMES.len() * 2;
        const { assert!(TOTAL_OPS >= 1_000_000) };

        let slot = Arc::new(ThreadSlot::new(3));
        let done = Arc::new(AtomicBool::new(false));
        let writer_slot = Arc::clone(&slot);
        let writer_done = Arc::clone(&done);
        let writer = std::thread::spawn(move || {
            for _ in 0..CYCLES {
                for name in NAMES {
                    writer_slot.push(name);
                }
                for _ in NAMES {
                    writer_slot.pop();
                }
            }
            writer_done.store(true, Ordering::Release);
        });

        let mut consistent = 0u64;
        while !done.load(Ordering::Acquire) {
            if let Some(snap) = slot.snapshot() {
                let stored = (snap.depth as usize).min(MAX_FRAMES);
                assert_eq!(
                    snap.frames.len(),
                    stored,
                    "snapshot stored {} frames for depth {}",
                    snap.frames.len(),
                    snap.depth
                );
                assert_eq!(
                    snap.frames,
                    &NAMES[..stored],
                    "torn read leaked through epoch validation"
                );
                consistent += 1;
            }
        }
        writer.join().expect("writer thread");
        assert!(consistent > 0, "reader never observed a consistent non-idle snapshot");
    }

    #[test]
    fn sample_once_sees_registered_slot_and_prunes_dead_ones() {
        // Drive the registry directly (no global profiling flip, which
        // would race sibling tests in this binary).
        let slot = Arc::new(ThreadSlot::new(901));
        lock(&REGISTRY).push(Arc::clone(&slot));
        slot.push("unit.registered");
        let snaps = sample_once();
        assert!(
            snaps.iter().any(|s| s.thread == 901 && s.frames == ["unit.registered"]),
            "registered slot missing from {snaps:?}"
        );
        slot.pop();
        slot.dead.store(true, Ordering::Release);
        let snaps = sample_once();
        assert!(snaps.iter().all(|s| s.thread != 901), "dead slot must be pruned");
        assert!(
            lock(&REGISTRY).iter().all(|s| s.thread != 901),
            "pruning must drop the registry entry"
        );
    }

    #[test]
    fn profile_hz_parses_strictly() {
        assert_eq!(parse_profile_hz(""), Ok(ProfileHz::Unset));
        assert_eq!(parse_profile_hz("  "), Ok(ProfileHz::Unset));
        assert_eq!(parse_profile_hz("0"), Ok(ProfileHz::Off));
        assert_eq!(parse_profile_hz("off"), Ok(ProfileHz::Off));
        assert_eq!(parse_profile_hz("FALSE"), Ok(ProfileHz::Off));
        assert_eq!(parse_profile_hz("on"), Ok(ProfileHz::Hz(DEFAULT_PROFILE_HZ)));
        assert_eq!(parse_profile_hz("1"), Ok(ProfileHz::Hz(DEFAULT_PROFILE_HZ)));
        assert_eq!(parse_profile_hz("500"), Ok(ProfileHz::Hz(500)));
        assert_eq!(
            parse_profile_hz("1000000"),
            Ok(ProfileHz::Hz(MAX_PROFILE_HZ)),
            "rates clamp to the sampler's ceiling"
        );
        assert!(parse_profile_hz("ninety-nine").is_err(), "typos must refuse, not default");
    }
}
