//! Offline stand-in for `rayon`.
//!
//! The build environment has no network access to a crates registry, so this
//! workspace ships a minimal data-parallelism layer: the index-range map
//! [`par_map_indices`] and three knobs around it. Work is executed on
//! `std::thread::scope` threads, indices dealt round-robin (worker `w`
//! takes `w, w + workers, …`), and results are reassembled in input order,
//! so the output is bit-identical to the sequential evaluation regardless
//! of thread count or interleaving.
//!
//! **One layer uses it**: the experiment sweeps whose cells are whole
//! simulations reporting only simulated time (`robustness`, `scaling`,
//! `latency_sweep`, `soak`) — seconds of work per spawn. Nothing beneath
//! them (planner, verifier, cache, `Fleet::step`) spawns a thread: a scoped
//! spawn costs more than the microseconds of work those would shard
//! (DESIGN.md, "Why the planner and the fleet step are single-threaded"),
//! and a sweep that reports wall-clock columns must not share the box with
//! its own sibling cells.
//!
//! Two deliberate simplifications relative to real rayon:
//!
//! * **No work stealing.** The deal is static; workers never rebalance.
//!   Sweep grids are ordered by size (`scaling` walks 2 → 44 cores), so
//!   contiguous chunks would hand one worker every large cell; the
//!   round-robin deal gives each worker cells of every size.
//! * **No nested pools.** A worker thread that itself reaches
//!   [`par_map_indices`] runs it inline. This bounds the total thread count
//!   at `available_parallelism` per top-level call instead of multiplying
//!   at every nesting level.
//!
//! [`force_sequential`] runs a closure with [`par_map_indices`] inlined on
//! the calling thread — the reference executions that the determinism tests
//! compare against the parallel ones.

use std::cell::Cell;

thread_local! {
    /// Set inside worker threads (and `force_sequential`): a
    /// `par_map_indices` observed under this flag runs inline instead of
    /// spawning.
    static INLINE: Cell<bool> = const { Cell::new(false) };

    /// Per-thread thread-count override (see [`with_threads`]); `0` means
    /// "no override".
    static THREADS: Cell<usize> = const { Cell::new(0) };
}

/// Upper bound on worker threads for one parallel call.
///
/// `RAYON_NUM_THREADS` overrides the detected core count, mirroring real
/// rayon's global-pool knob; [`with_threads`] overrides both for the
/// current thread (determinism tests on single-core runners need to force
/// a genuinely multi-threaded execution).
pub fn current_num_threads() -> usize {
    let forced = THREADS.with(Cell::get);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `f` with [`par_map_indices`] on this thread using exactly `n`
/// worker threads, regardless of `RAYON_NUM_THREADS` or the detected core
/// count (shim extension; determinism tests compare an `n > 1` run against
/// a [`force_sequential`] reference even on single-core CI runners, and
/// the end-to-end benchmark pins itself to one).
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let prev = THREADS.with(Cell::get);
    THREADS.with(|c| c.set(n.max(1)));
    let r = f();
    THREADS.with(|c| c.set(prev));
    r
}

fn workers_for(n_items: usize) -> usize {
    if INLINE.with(Cell::get) || n_items <= 1 {
        1
    } else {
        current_num_threads().min(n_items)
    }
}

/// Runs `f` with [`par_map_indices`] executing inline on the calling
/// thread (shim extension; used by determinism tests to produce the
/// sequential reference run).
pub fn force_sequential<R>(f: impl FnOnce() -> R) -> R {
    let prev = INLINE.with(Cell::get);
    INLINE.with(|c| c.set(true));
    let r = f();
    INLINE.with(|c| c.set(prev));
    r
}

/// Maps `f` over `0..n` with the results in index order (shim extension;
/// real rayon spells this `(0..n).into_par_iter().map(f).collect()`).
pub fn par_map_indices<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers_for(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    std::thread::scope(|s| {
        let f = &f;
        let deal = |w: usize| {
            s.spawn(move || {
                INLINE.with(|c| c.set(true));
                (w..n).step_by(workers).map(f).collect::<Vec<R>>()
            })
        };
        let handles: Vec<_> = (0..workers).map(deal).collect();
        // Worker `w` holds indices `w, w + workers, …` in order: reading
        // the workers' results in turn visits `0..n` in index order.
        let join = |h: std::thread::ScopedJoinHandle<'_, Vec<R>>| {
            h.join().expect("rayon shim: worker panicked").into_iter()
        };
        let mut dealt: Vec<_> = handles.into_iter().map(join).collect();
        (0..n)
            .map(|i| dealt[i % workers].next().expect("one result per index"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_indices_preserves_order() {
        let out = par_map_indices(1000, |i| i * 2);
        assert_eq!(out, (0..1000).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn force_sequential_produces_identical_output() {
        let items: Vec<u64> = (0..100).collect();
        let par = with_threads(3, || par_map_indices(items.len(), |i| items[i] + 1));
        let seq = force_sequential(|| par_map_indices(items.len(), |i| items[i] + 1));
        assert_eq!(par, seq);
    }

    #[test]
    fn nested_calls_run_inline_not_multiplicatively() {
        // Count live worker generations: the inner par_map under a worker
        // must not spawn again, so every inner element is computed on the
        // same thread as its outer element.
        let outer_threads = AtomicUsize::new(0);
        let out = par_map_indices(8, |i| {
            outer_threads.fetch_add(1, Ordering::Relaxed);
            let inner = par_map_indices(8, |j| {
                let same_thread = std::thread::current().id();
                (j, same_thread)
            });
            let tid = std::thread::current().id();
            assert!(inner.iter().all(|&(_, t)| t == tid));
            i
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn indices_are_dealt_round_robin() {
        // Neighbouring indices land on different workers, so a grid ordered
        // by cost is spread over all of them.
        let out = with_threads(3, || {
            par_map_indices(9, |i| (i, std::thread::current().id()))
        });
        assert_eq!(
            out.iter().map(|&(i, _)| i).collect::<Vec<_>>(),
            (0..9).collect::<Vec<_>>()
        );
        for i in 0..9 {
            assert_eq!(out[i].1 == out[0].1, i % 3 == 0, "index {i}");
        }
    }

    #[test]
    fn with_threads_overrides_thread_count() {
        with_threads(7, || assert_eq!(current_num_threads(), 7));
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(par_map_indices(0, |i| i), Vec::<usize>::new());
        assert_eq!(par_map_indices(1, |i| i + 5), vec![5]);
    }
}
