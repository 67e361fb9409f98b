//! Bounded worker helpers: a fork–join map and the server's session crew.
//!
//! The paper's thesis is that monotone computation over join semilattices
//! is deterministic under *any* interleaving, so work can fan out across
//! OS threads without changing a result. [`map_items`] is the fork–join
//! shape `runtime::parallel::join_all` uses: split a work list into
//! contiguous chunks, evaluate the chunks on a bounded set of scoped
//! worker threads, and return the results **in item order** so any merge
//! is schedule-independent. Threads are spawned per call with
//! [`std::thread::scope`] (a fork–join round, not a persistent pool), and
//! scoped borrows keep the API free of `'static` bounds. The worker count
//! is always bounded — by the caller's request and by the chunk count —
//! so no call path can spawn one thread per task item.
//!
//! [`Crew`] is the long-lived counterpart: a bounded set of session
//! threads for `lambdav serve`.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The default worker bound: the machine's available parallelism (1 when
/// it cannot be determined). The OS is asked once per process, since the
/// query reads the process's affinity and cgroup limits (about 15 µs);
/// later calls read the cached answer.
pub fn default_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// Splits `len` items into at most `workers` contiguous chunk ranges of
/// near-equal size (the first `len % k` chunks are one longer).
fn chunk_ranges(len: usize, workers: usize) -> Vec<std::ops::Range<usize>> {
    let k = workers.max(1).min(len);
    if k == 0 {
        return Vec::new();
    }
    let (base, extra) = (len / k, len % k);
    let mut out = Vec::with_capacity(k);
    let mut start = 0;
    for i in 0..k {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Consumes `items` and applies `f` to each one on at most `workers`
/// scoped threads, returning per-item results **in item order**. Used
/// where the work items are themselves one-shot closures
/// (`runtime::parallel::join_all`).
///
/// Deterministic scheduling contract: the chunk decomposition depends only
/// on `items.len()` and `workers`, and results are joined in chunk order.
/// With `workers <= 1` (or a single chunk) everything runs inline on the
/// caller's thread.
///
/// # Panics
///
/// If one or more worker closures panic, re-raises exactly one panic with
/// the payload of the **lowest-index chunk** that panicked — deterministic
/// no matter how the OS interleaved the workers.
pub fn map_items<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let ranges = chunk_ranges(items.len(), workers);
    if ranges.len() <= 1 {
        return items.into_iter().map(f).collect();
    }
    // Carve the items into per-chunk vectors (consuming, back to front so
    // `split_off` is O(chunk)).
    let mut rest = items;
    let mut chunks: Vec<Vec<T>> = Vec::with_capacity(ranges.len());
    for range in ranges.iter().rev() {
        chunks.push(rest.split_off(range.start));
    }
    chunks.reverse();
    // The first chunk runs inline; the rest go to scoped workers, joined in
    // chunk order. A worker's panic is re-raised when its handle is
    // joined, so the first one raised is the lowest panicking chunk's; if
    // the inline chunk itself panics, `scope` waits for every worker and
    // then re-raises that (lowest-index) panic.
    std::thread::scope(|s| {
        let mut chunks = chunks.into_iter();
        let first = chunks.next().expect("ranges checked non-empty");
        let f = &f;
        let handles: Vec<_> = chunks
            .map(|chunk| s.spawn(move || chunk.into_iter().map(f).collect::<Vec<R>>()))
            .collect();
        let mut out: Vec<R> = first.into_iter().map(f).collect();
        for h in handles {
            match h.join() {
                Ok(results) => out.extend(results),
                Err(payload) => resume_unwind(payload),
            }
        }
        out
    })
}

/// Returned by [`Crew::try_spawn`] when the crew is at its session bound:
/// the caller sheds the work (e.g. rejects the connection with a
/// retry-after hint) instead of queueing unboundedly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrewFull {
    /// The configured bound that was hit.
    pub max: usize,
}

impl std::fmt::Display for CrewFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "crew is at its bound of {} threads", self.max)
    }
}

impl std::error::Error for CrewFull {}

/// A bounded set of long-lived worker threads — the session substrate of
/// `lambdav serve`. Where [`map_items`] is a fork–join *round* (spawn,
/// compute, join, return), a `Crew` hosts open-ended tasks (one per client
/// connection) that come and go independently:
///
/// * admission is bounded — [`Crew::try_spawn`] refuses (rather than
///   queues) work past the configured bound, so the accept loop can shed
///   load with a structured rejection;
/// * membership is observable — [`Crew::active`] is the live session count
///   the server reports and sizes retry hints by;
/// * shutdown is joinable — [`Crew::join_all`] waits (with a deadline) for
///   every task to drain. Task closures are expected to watch their own
///   stop signal; the crew only waits, it cannot interrupt.
///
/// A panicking task consumes its own thread and releases its slot — one
/// crashed session never poisons the crew (sessions additionally run their
/// request bodies under `catch_unwind`; this is the second fence).
#[derive(Debug)]
pub struct Crew {
    max: usize,
    active: Arc<AtomicUsize>,
    handles: Mutex<Vec<JoinHandle<()>>>,
}

/// Decrements the active count when a crew task finishes — on its thread's
/// normal exit *or* unwind.
struct CrewSlot(Arc<AtomicUsize>);

impl Drop for CrewSlot {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

impl Crew {
    /// A crew admitting at most `max` concurrent tasks (`max` is clamped
    /// to at least 1).
    pub fn new(max: usize) -> Self {
        Crew {
            max: max.max(1),
            active: Arc::new(AtomicUsize::new(0)),
            handles: Mutex::new(Vec::new()),
        }
    }

    /// The configured concurrent-task bound.
    pub fn max(&self) -> usize {
        self.max
    }

    /// How many tasks are currently running.
    pub fn active(&self) -> usize {
        self.active.load(Ordering::Acquire)
    }

    /// Starts `task` on a fresh thread if the crew has a free slot,
    /// otherwise returns [`CrewFull`] without running it.
    pub fn try_spawn<F>(&self, task: F) -> Result<(), CrewFull>
    where
        F: FnOnce() + Send + 'static,
    {
        // Optimistically claim a slot; undo on overshoot. The counter can
        // transiently read max+k during a race, but never admits past max.
        let prev = self.active.fetch_add(1, Ordering::AcqRel);
        if prev >= self.max {
            self.active.fetch_sub(1, Ordering::Release);
            return Err(CrewFull { max: self.max });
        }
        let slot = CrewSlot(self.active.clone());
        let handle = std::thread::spawn(move || {
            let _slot = slot;
            // The slot must release even if the task unwinds; the payload
            // is swallowed here because a session's failure is reported on
            // its own wire, not the accept loop's.
            let _ = catch_unwind(AssertUnwindSafe(task));
        });
        let mut handles = self.handles.lock().expect("crew handle list poisoned");
        // Reap finished threads so the list tracks live sessions, not
        // connection history.
        handles.retain(|h| !h.is_finished());
        handles.push(handle);
        Ok(())
    }

    /// Waits up to `timeout` for every task to finish, then joins the
    /// finished threads. Returns `true` if the crew fully drained. Tasks
    /// still running at the deadline keep their threads (they hold no crew
    /// lock); a later call can finish the join.
    pub fn join_all(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.active() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        let drained = self.active() == 0;
        let mut handles = self.handles.lock().expect("crew handle list poisoned");
        if drained {
            for h in handles.drain(..) {
                let _ = h.join();
            }
        } else {
            handles.retain(|h| !h.is_finished());
        }
        drained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_in_order() {
        for len in [0usize, 1, 2, 5, 16, 17] {
            for workers in [0usize, 1, 2, 3, 8, 64] {
                let ranges = chunk_ranges(len, workers);
                let flat: Vec<usize> = ranges.iter().flat_map(|r| r.clone()).collect();
                assert_eq!(flat, (0..len).collect::<Vec<_>>(), "{len}/{workers}");
                assert!(ranges.len() <= workers.max(1));
            }
        }
    }

    #[test]
    fn map_items_preserves_order() {
        let items: Vec<i64> = (0..37).collect();
        for workers in [1, 2, 5, 100] {
            let out = map_items(items.clone(), workers, |x| x * 2);
            assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<i64> = (0..8).collect();
        map_items(items, 4, |x| {
            if x == 5 {
                panic!("boom");
            }
            x
        });
    }

    /// Pins the deterministic propagation contract: when several worker
    /// chunks panic, the payload that escapes is the lowest chunk index's
    /// — not whatever the OS's join order happens to surface.
    #[test]
    fn first_chunk_panic_payload_wins_among_workers() {
        let items: Vec<i64> = (0..8).collect();
        for _ in 0..20 {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                // 4 workers → chunks [0,1] [2,3] [4,5] [6,7]; chunks 1 and
                // 3 both panic, with different payloads.
                map_items(items.clone(), 4, |x| {
                    if x == 2 {
                        panic!("chunk-1 payload");
                    }
                    if x == 6 {
                        panic!("chunk-3 payload");
                    }
                    x
                });
            }))
            .expect_err("a worker panicked");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("panic payload is a &str");
            assert_eq!(msg, "chunk-1 payload");
        }
    }

    #[test]
    fn first_chunk_panic_payload_wins_map_items() {
        let items: Vec<i64> = (0..8).collect();
        for _ in 0..20 {
            let payload = catch_unwind(AssertUnwindSafe(|| {
                map_items(items.clone(), 4, |x| {
                    if x == 1 {
                        panic!("item-1 payload");
                    }
                    if x == 7 {
                        panic!("item-7 payload");
                    }
                    x
                });
            }))
            .expect_err("a worker panicked");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .expect("panic payload is a &str");
            assert_eq!(msg, "item-1 payload");
        }
    }

    #[test]
    fn inline_chunk_panic_still_joins_workers_before_raising() {
        // The inline chunk (index 0) panics; the workers must still be
        // joined, and the panic must surface as chunk 0's payload, not a
        // scope teardown error.
        let items: Vec<i64> = (0..8).collect();
        let payload = catch_unwind(AssertUnwindSafe(|| {
            map_items(items, 4, |x| {
                if x == 0 {
                    panic!("inline payload");
                }
                x
            });
        }))
        .expect_err("inline chunk panicked");
        let msg = payload.downcast_ref::<&str>().copied().unwrap();
        assert_eq!(msg, "inline payload");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn crew_bounds_admission_and_drains() {
        use std::sync::mpsc;
        let crew = Crew::new(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel::<()>();
        let release_rx = Arc::new(Mutex::new(release_rx));
        for _ in 0..2 {
            let rx = release_rx.clone();
            let started = started_tx.clone();
            crew.try_spawn(move || {
                started.send(()).unwrap();
                let _ = rx.lock().unwrap().recv();
            })
            .expect("slots free");
        }
        started_rx.recv().unwrap();
        started_rx.recv().unwrap();
        assert_eq!(crew.active(), 2);
        // Third task is shed, not queued.
        assert_eq!(crew.try_spawn(|| {}), Err(CrewFull { max: 2 }));
        release_tx.send(()).unwrap();
        release_tx.send(()).unwrap();
        assert!(crew.join_all(Duration::from_secs(5)), "crew drains");
        assert_eq!(crew.active(), 0);
        // Slots are reusable after drain.
        crew.try_spawn(|| {}).expect("slot free after drain");
        assert!(crew.join_all(Duration::from_secs(5)));
    }

    #[test]
    fn crew_task_panic_releases_slot() {
        let crew = Crew::new(1);
        crew.try_spawn(|| panic!("session crashed")).unwrap();
        assert!(crew.join_all(Duration::from_secs(5)));
        assert_eq!(crew.active(), 0);
        crew.try_spawn(|| {}).expect("slot released after panic");
        assert!(crew.join_all(Duration::from_secs(5)));
    }
}
