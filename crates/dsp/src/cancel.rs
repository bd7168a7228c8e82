//! Cooperative cancellation for long-running engines.
//!
//! A [`CancelToken`] is the workspace's one stop signal: the campaign
//! scheduler checks it at block boundaries, the conformance sweep at
//! curve boundaries, and the testbed daemon threads it from its
//! shutdown path into every running job. Cancellation is *cooperative*
//! — nothing is preempted; an engine observes the token at its natural
//! checkpoint granularity and returns a typed `Cancelled` result, so
//! partially merged state is never silently dropped mid-fold.
//!
//! Tokens form a tree: [`CancelToken::child`] makes a token that
//! reports cancelled when either it *or its parent* is cancelled. A
//! daemon gives every job `shutdown.child()` — cancelling one job
//! stops that job; cancelling the shutdown root stops all of them.
//!
//! For deterministic tests, [`CancelToken::cancelled_after`] builds a
//! token that trips itself on its `n`-th poll. The parallel
//! [`executor`](crate::executor) polls once before each claim and runs
//! every claimed item to completion, so at any worker count "the run
//! was killed exactly at block `k`" is reproducible without any wall
//! clock or signal handling (the same philosophy as
//! `CheckpointConfig::stop_after_blocks`).

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Poll-fuse sentinel: no self-trip configured.
const NO_FUSE: usize = usize::MAX;

struct Inner {
    flag: AtomicBool,
    /// Remaining polls before the token trips itself; [`NO_FUSE`]
    /// disables the fuse (the normal case).
    fuse: AtomicUsize,
    parent: Option<CancelToken>,
}

/// A shareable, cloneable cancellation flag (clones observe the same
/// state). See the [module docs](self) for the cooperative contract.
#[derive(Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                fuse: AtomicUsize::new(NO_FUSE),
                parent: None,
            }),
        }
    }

    /// A token that trips itself on its `n`-th [`Self::is_cancelled`]
    /// poll (`n == 0` is born cancelled), counted across every thread
    /// that polls it — the test harness's simulated mid-run kill.
    pub fn cancelled_after(n: usize) -> Self {
        let t = Self::new();
        if n == 0 {
            t.cancel();
        } else {
            t.inner.fuse.store(n, Ordering::Relaxed);
        }
        t
    }

    /// A child token: cancelled when it or `self` is cancelled.
    /// Cancelling the child does **not** cancel the parent.
    pub fn child(&self) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                flag: AtomicBool::new(false),
                fuse: AtomicUsize::new(NO_FUSE),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Request cancellation. Idempotent; never blocks.
    pub fn cancel(&self) {
        self.inner.flag.store(true, Ordering::Release);
    }

    /// Has this token (or any ancestor) been cancelled? Engines call
    /// this at their checkpoint boundaries; a poll-fuse token counts
    /// the call against its budget.
    pub fn is_cancelled(&self) -> bool {
        if self.inner.flag.load(Ordering::Acquire) {
            return true;
        }
        if let Some(p) = &self.inner.parent {
            if p.is_cancelled() {
                return true;
            }
        }
        // the fuse burns one unit per poll, never below zero, so even
        // concurrent pollers trip it exactly on the n-th, which latches
        let burn = |f| (f != NO_FUSE && f > 0).then(|| f - 1);
        let fuse = &self.inner.fuse;
        match fuse.fetch_update(Ordering::Relaxed, Ordering::Relaxed, burn) {
            Ok(1) => {
                self.cancel();
                true
            }
            Ok(_) => false,
            // a burnt-out fuse: its last poll is latching the flag
            Err(spent) => spent == 0,
        }
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CancelToken")
            .field("cancelled", &self.inner.flag.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live_and_cancel_latches() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        t.cancel();
        assert!(t.is_cancelled());
        assert!(t.is_cancelled(), "cancellation latches");
    }

    #[test]
    fn clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn child_sees_parent_cancel_but_not_vice_versa() {
        let parent = CancelToken::new();
        let a = parent.child();
        let b = parent.child();
        a.cancel();
        assert!(a.is_cancelled());
        assert!(!parent.is_cancelled(), "child cancel stays local");
        assert!(!b.is_cancelled(), "siblings are independent");
        parent.cancel();
        assert!(b.is_cancelled(), "parent cancel reaches every child");
    }

    #[test]
    fn fuse_trips_on_the_nth_poll_exactly() {
        let t = CancelToken::cancelled_after(3);
        assert!(!t.is_cancelled());
        assert!(!t.is_cancelled());
        assert!(t.is_cancelled(), "third poll trips");
        assert!(t.is_cancelled(), "and it latches");
    }

    #[test]
    fn zero_fuse_is_born_cancelled() {
        assert!(CancelToken::cancelled_after(0).is_cancelled());
    }
}
