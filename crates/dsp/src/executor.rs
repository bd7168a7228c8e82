//! The workspace's one deterministic parallel executor.
//!
//! [`fold_in_order`] runs every sharded engine: the campaign block
//! fold, the conformance sweep, the link curve and multi-hop table and
//! the paper figures. Workers claim indices from an atomic cursor and
//! compute each on their own scratch; a fold sees the results
//! **strictly in index order**, under one lock, so N workers give
//! bit-for-bit the result of one. One worker runs inline: the
//! sequential run is the 1-worker case of the same fold.
//!
//! **The prefix invariant.** A worker checks the stop flag, polls the
//! [`CancelToken`], and only then claims; every claimed index runs to
//! completion. So the indices that ran always form a prefix of the
//! range, whatever the worker count, and a run is complete exactly
//! when the folded prefix reaches the end of the range. A
//! [`CancelToken::cancelled_after`]`(k)` token folds exactly `k - 1`
//! items (or the whole range, if shorter) at every worker count.

use std::collections::BTreeMap;
use std::ops::{ControlFlow, Range};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::cancel::CancelToken;

/// Compute `work(idx, scratch)` for every index of `range` on up to
/// `workers` threads (clamped to `1..=range.len()`; one runs inline),
/// and feed the results to `fold` in ascending index order.
///
/// Each worker builds one scratch value with `scratch` and reuses it
/// for every index it claims. The run stops claiming once `cancel`
/// trips or `fold` returns [`ControlFlow::Break`]; results computed
/// after a `Break` are dropped unfolded. Returns the end of the folded
/// prefix: `range.end` for a complete run (see the
/// [module docs](self) for the prefix invariant).
///
/// # Panics
/// A panic in `scratch`, `work` or `fold` stops the other workers from
/// claiming and is re-raised on the calling thread once they have
/// returned: a lost index would silently skew every result folded
/// after it.
pub fn fold_in_order<S, R: Send>(
    range: Range<usize>,
    workers: usize,
    cancel: &CancelToken,
    scratch: impl Fn() -> S + Sync,
    work: impl Fn(usize, &mut S) -> R + Sync,
    fold: impl FnMut(usize, R) -> ControlFlow<()> + Send,
) -> usize {
    let cursor = AtomicUsize::new(range.start);
    let stop = AtomicBool::new(false);
    let reorder = Mutex::new(Reorder {
        next: range.start,
        pending: BTreeMap::new(),
        fold,
        stopped: false,
    });
    let worker = || {
        let _stop_on_panic = StopOnPanic(&stop);
        let mut s = scratch();
        loop {
            if stop.load(Ordering::Relaxed) || cancel.is_cancelled() {
                stop.store(true, Ordering::Relaxed);
                return;
            }
            let idx = cursor.fetch_add(1, Ordering::Relaxed);
            if idx >= range.end {
                return;
            }
            let r = work(idx, &mut s);
            // poisoned only by a sibling's panic in `fold`, which the
            // join below re-raises
            let Ok(mut rb) = reorder.lock() else { return };
            if rb.offer(idx, r).is_break() {
                stop.store(true, Ordering::Relaxed);
                return;
            }
        }
    };
    let workers = workers.clamp(1, range.len().max(1));
    if workers == 1 {
        worker();
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(worker)).collect();
            for h in handles {
                h.join().unwrap_or_else(|panic| resume_unwind(panic));
            }
        });
    }
    reorder
        .into_inner()
        .expect("a worker that poisoned the lock had its panic re-raised above")
        .next
}

/// Map `f` over `items` on up to `workers` threads: [`fold_in_order`]
/// with no cancellation, collecting the results in item order.
///
/// # Panics
/// Re-raises a worker panic, like [`fold_in_order`].
pub fn map_in_order<T: Sync, R: Send>(
    items: &[T],
    workers: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let mut out = Vec::with_capacity(items.len());
    // nobody else holds the token, so every item is folded
    let live = CancelToken::new();
    let work = |i: usize, _: &mut ()| f(&items[i]);
    let push = |_, r| {
        out.push(r);
        ControlFlow::Continue(())
    };
    fold_in_order(0..items.len(), workers, &live, || (), work, push);
    out
}

/// The reorder buffer in front of the fold: results arrive in
/// completion order and leave in index order.
struct Reorder<R, F> {
    /// End of the folded prefix.
    next: usize,
    /// Finished results past the frontier, waiting for their turn.
    pending: BTreeMap<usize, R>,
    fold: F,
    /// The fold returned `Break`; nothing is folded after it.
    stopped: bool,
}

impl<R, F: FnMut(usize, R) -> ControlFlow<()>> Reorder<R, F> {
    /// Park `r` and fold every result the frontier now reaches. Once
    /// the fold breaks, results that finished out of order are dropped,
    /// so they never carry a stopped fold past its stop point.
    fn offer(&mut self, idx: usize, r: R) -> ControlFlow<()> {
        if self.stopped {
            return ControlFlow::Break(());
        }
        self.pending.insert(idx, r);
        while let Some(r) = self.pending.remove(&self.next) {
            let flow = (self.fold)(self.next, r);
            self.next += 1;
            if flow.is_break() {
                self.stopped = true;
                self.pending.clear();
                return flow;
            }
        }
        ControlFlow::Continue(())
    }
}

/// Raises the stop flag when a worker unwinds, so its siblings stop
/// claiming while the panic travels to the join.
struct StopOnPanic<'a>(&'a AtomicBool);

impl Drop for StopOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 23;
    const WORKER_COUNTS: [usize; 5] = [1, 2, 3, 7, N + 5];

    /// A per-index value whose sum depends on association order, so an
    /// out-of-order fold shows up in the bits.
    fn value(idx: usize, scratch: &mut Vec<f64>) -> f64 {
        scratch.clear();
        scratch.extend((0..=idx).map(|k| 1.0 / (k as f64 + 0.37)));
        scratch.iter().sum::<f64>() * 1e-3_f64.powi(idx as i32 % 5)
    }

    #[test]
    fn any_worker_count_gives_the_sequential_fold() {
        for start in [0, 4] {
            let mut buf = Vec::new();
            let mut want_sum = 0.0;
            for idx in start..N {
                want_sum += value(idx, &mut buf);
            }
            for workers in WORKER_COUNTS {
                let scratches = AtomicUsize::new(0);
                let (mut sum, mut order) = (0.0, Vec::new());
                let end = fold_in_order(
                    start..N,
                    workers,
                    &CancelToken::new(),
                    || {
                        scratches.fetch_add(1, Ordering::Relaxed);
                        Vec::new()
                    },
                    value,
                    |idx, v| {
                        sum += v;
                        order.push(idx);
                        ControlFlow::Continue(())
                    },
                );
                assert_eq!(end, N, "{workers} workers");
                assert_eq!(sum.to_bits(), want_sum.to_bits(), "{workers} workers");
                assert_eq!(order, (start..N).collect::<Vec<_>>());
                let built = scratches.load(Ordering::Relaxed);
                assert!(built <= workers.min(N - start), "{built} scratches");
                let idxs: Vec<usize> = (0..N).collect();
                assert_eq!(
                    map_in_order(&idxs, workers, |&i| value(i, &mut Vec::new())),
                    (0..N).map(|i| value(i, &mut buf)).collect::<Vec<_>>()
                );
            }
        }
    }

    #[test]
    fn fuse_token_folds_exactly_the_leading_prefix() {
        for workers in WORKER_COUNTS {
            for k in [1, 2, 3, 9, N, N + 1, N + 4] {
                let mut folded = Vec::new();
                let end = fold_in_order(
                    0..N,
                    workers,
                    &CancelToken::cancelled_after(k),
                    || (),
                    |idx, _| idx,
                    |_, idx| {
                        folded.push(idx);
                        ControlFlow::Continue(())
                    },
                );
                let want = (k - 1).min(N);
                assert_eq!(end, want, "{workers} workers, fuse {k}");
                assert_eq!(folded, (0..want).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn out_of_order_completions_never_fold_past_a_break() {
        // index 0 finishes last, after every later index is parked in
        // the reorder buffer; the fold breaks at index 1 and must not
        // go on to the parked results
        for workers in [2, 3, 6] {
            let finished = AtomicUsize::new(0);
            let mut folded = Vec::new();
            let end = fold_in_order(
                0..6,
                workers,
                &CancelToken::new(),
                || (),
                |idx, _| {
                    if idx == 0 {
                        while finished.load(Ordering::Acquire) < 5 {
                            std::thread::yield_now();
                        }
                    } else {
                        finished.fetch_add(1, Ordering::Release);
                    }
                    idx
                },
                |_, idx| {
                    folded.push(idx);
                    if idx == 1 {
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(end, 2, "{workers} workers folded past the break");
            assert_eq!(folded, [0, 1]);
        }
    }

    #[test]
    fn results_finishing_after_a_break_are_dropped() {
        // index 2 is claimed before the fold breaks at index 1 and
        // finishes after it; it must not be folded
        for workers in [2, 3, 6] {
            let (started2, broke) = (AtomicBool::new(false), AtomicBool::new(false));
            let wait = |flag: &AtomicBool| {
                while !flag.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            };
            let mut folded = Vec::new();
            let end = fold_in_order(
                0..6,
                workers,
                &CancelToken::new(),
                || (),
                |idx, _| {
                    match idx {
                        1 => wait(&started2),
                        2 => {
                            started2.store(true, Ordering::Release);
                            wait(&broke);
                        }
                        _ => {}
                    }
                    idx
                },
                |_, idx| {
                    folded.push(idx);
                    if idx == 1 {
                        broke.store(true, Ordering::Release);
                        ControlFlow::Break(())
                    } else {
                        ControlFlow::Continue(())
                    }
                },
            );
            assert_eq!(end, 2, "{workers} workers folded past the break");
            assert_eq!(folded, [0, 1]);
        }
    }

    #[test]
    /// The prefix counts above rest on an exact fuse under concurrent
    /// polling.
    fn fuse_counts_polls_across_threads() {
        let t = CancelToken::cancelled_after(150);
        let live = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        if !t.is_cancelled() {
                            live.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(live.load(Ordering::Relaxed), 149, "the 150th poll trips");
        assert!(t.is_cancelled());
    }

    fn panic_in_work(workers: usize) {
        let idxs: Vec<usize> = (0..N).collect();
        map_in_order(&idxs, workers, |&idx| {
            assert_ne!(idx, 5, "work panicked at index 5");
            idx
        });
    }

    #[test]
    #[should_panic(expected = "work panicked at index 5")]
    fn work_panic_propagates_inline() {
        panic_in_work(1);
    }

    #[test]
    #[should_panic(expected = "work panicked at index 5")]
    fn work_panic_propagates_from_a_worker_thread() {
        panic_in_work(3);
    }

    #[test]
    #[should_panic(expected = "fold panicked at index 4")]
    fn fold_panic_propagates_from_a_worker_thread() {
        fold_in_order(
            0..N,
            3,
            &CancelToken::new(),
            || (),
            |idx, _| idx,
            |idx, _| {
                assert_ne!(idx, 4, "fold panicked at index 4");
                ControlFlow::Continue(())
            },
        );
    }
}
