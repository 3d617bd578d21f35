//! The workspace's one threading idiom: scoped worker threads pulling
//! index chunks off a shared atomic queue.
//!
//! Its caller is the scenario-sweep runner in `mrca_experiments::suite`:
//! `parallel_map` and `parallel_map_streamed` spread independent sweep
//! cells over the cores through the chunk-claiming primitive
//! ([`ChunkQueue`]) and the spawn/join wrapper ([`scoped_chunks`]). The
//! primitive lives in `core` so that any crate of the workspace can
//! share it without depending on the experiments crate. The offline
//! build has no rayon; `std::thread::scope` covers the
//! embarrassingly-parallel shapes the sweeps need. The dynamics drivers
//! themselves are sequential: one best response at a time.
//!
//! Determinism note: workers claim chunks in a nondeterministic order,
//! so *callers* must make their results order-independent — the suite
//! keys results by item index (it sorts or re-sequences by index), which
//! makes the output a pure function of the input regardless of thread
//! count or scheduling.

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the system's available
/// parallelism, `1` when it cannot be determined.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A lock-free queue of index chunks over `0..n_items`: workers call
/// [`claim`](ChunkQueue::claim) until it returns `None`. Chunks are
/// contiguous, disjoint, and cover the range exactly once.
#[derive(Debug)]
pub struct ChunkQueue {
    next: AtomicUsize,
    n_items: usize,
    chunk: usize,
}

impl ChunkQueue {
    /// Queue over `0..n_items` in chunks of `chunk` indices (the last
    /// chunk may be shorter).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`.
    pub fn new(n_items: usize, chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        ChunkQueue {
            next: AtomicUsize::new(0),
            n_items,
            chunk,
        }
    }

    /// Claim the next unprocessed chunk, or `None` when the range is
    /// exhausted.
    pub fn claim(&self) -> Option<Range<usize>> {
        // One fetch_add per claim; each chunk index is handed out once.
        let i = self.next.fetch_add(1, Ordering::Relaxed);
        let start = i.checked_mul(self.chunk)?;
        if start >= self.n_items {
            return None;
        }
        Some(start..(start + self.chunk).min(self.n_items))
    }
}

/// Run `body` over `0..n_items` on up to `n_threads` scoped worker
/// threads, each claiming chunks of `chunk` indices off one
/// [`ChunkQueue`]. Every worker first builds its own state with
/// `init(worker_index)` (per-thread scratch buffers, channels, …) and the
/// final states are returned in worker-index order after all workers have
/// joined.
///
/// With `n_threads <= 1` (or a single chunk) everything runs inline on
/// the calling thread — the sequential fallback is the same code path
/// callers test, minus the spawn.
///
/// # Panics
///
/// Panics if `chunk == 0`, and propagates worker panics after the scope
/// joins.
pub fn scoped_chunks<S, I, F>(
    n_items: usize,
    n_threads: usize,
    chunk: usize,
    init: I,
    body: F,
) -> Vec<S>
where
    S: Send,
    I: Fn(usize) -> S + Sync,
    F: Fn(&mut S, Range<usize>) + Sync,
{
    assert!(chunk > 0, "chunk size must be positive");
    if n_items == 0 {
        return Vec::new();
    }
    let n_chunks = n_items.div_ceil(chunk);
    let workers = n_threads.max(1).min(n_chunks);
    if workers <= 1 {
        let mut state = init(0);
        let queue = ChunkQueue::new(n_items, chunk);
        while let Some(range) = queue.claim() {
            body(&mut state, range);
        }
        return vec![state];
    }
    let queue = ChunkQueue::new(n_items, chunk);
    // One slot per worker: filled exactly once, read after the scope
    // joins (the Mutex is only there to make the slot Sync).
    let slots: Vec<Mutex<Option<S>>> = (0..workers).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for (w, slot) in slots.iter().enumerate() {
            let queue = &queue;
            let init = &init;
            let body = &body;
            scope.spawn(move || {
                let mut state = init(w);
                while let Some(range) = queue.claim() {
                    body(&mut state, range);
                }
                *slot.lock().expect("no panics hold this lock") = Some(state);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("workers joined")
                .expect("every worker stores its state")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_queue_covers_the_range_exactly_once() {
        let q = ChunkQueue::new(10, 3);
        let mut seen = Vec::new();
        while let Some(r) = q.claim() {
            seen.extend(r);
        }
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert!(q.claim().is_none(), "exhausted queues stay exhausted");
    }

    #[test]
    fn scoped_chunks_processes_every_index_once_at_any_thread_count() {
        for threads in [1, 2, 4, 7] {
            let states = scoped_chunks(
                100,
                threads,
                3,
                |_| Vec::new(),
                |out: &mut Vec<usize>, range| out.extend(range),
            );
            assert!(states.len() <= threads.max(1));
            let mut all: Vec<usize> = states.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    #[test]
    fn scoped_chunks_empty_input_spawns_nothing() {
        let states = scoped_chunks(0, 4, 1, |_| 0u32, |_, _| panic!("no items"));
        assert!(states.is_empty());
    }

    #[test]
    fn worker_states_come_back_in_worker_order() {
        // Each worker records its index; the returned vector is ordered.
        let states = scoped_chunks(64, 4, 1, |w| (w, 0usize), |s, r| s.1 += r.len());
        for (i, &(w, _)) in states.iter().enumerate() {
            assert_eq!(i, w);
        }
        let total: usize = states.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 64);
    }
}
