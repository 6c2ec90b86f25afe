//! The instrumented [`SyncOps`] domain the checker runs backends under.
//!
//! [`ShadowSync`]'s atomics wrap the real `std::sync::atomic` types but
//! announce every access to the scheduler first ([`ctx::yield_op`]), so the
//! controller decides the order in which operations land. Because exactly
//! one virtual thread executes at a time, the explored executions are the
//! *sequentially consistent* interleavings of the backends' atomic
//! operations. Weak-memory reorderings (the `Relaxed`/`Acquire`/`Release`
//! distinctions the production code is audited for) are **not** explored —
//! this is a loom-lite, not a loom.
//!
//! [`ShadowSync::wait_until`] replaces spinning with real descheduling: it
//! reads the scheduler's write generation *before* probing the predicate
//! and blocks only until a write lands past that generation. A write racing
//! with the probe therefore re-runs the probe instead of being lost.
//!
//! [`ShadowMutex`], the domain's lock, is built the same way: a ticket
//! lock over shadow words, whose acquisition is a descheduling wait.

use crate::ctx;
use crate::sched::OpKind;
use fuzzy_barrier::spin::{self, SpinReport, StallPolicy};
use fuzzy_barrier::sync::{Atomic, Lock, SyncOps};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Atomic `u32` that yields to the scheduler before every access.
#[derive(Debug)]
pub struct ShadowU32(AtomicU32);

/// Atomic `u64` that yields to the scheduler before every access.
#[derive(Debug)]
pub struct ShadowU64(AtomicU64);

/// Atomic `usize` that yields to the scheduler before every access.
#[derive(Debug)]
pub struct ShadowUsize(AtomicUsize);

macro_rules! impl_shadow_atomic {
    ($ty:ty, $shadow:ident, $atomic:ty) => {
        impl Atomic<$ty> for $shadow {
            fn new(value: $ty) -> Self {
                // Construction races with nothing: barriers are built before
                // their bodies are scheduled. No yield.
                $shadow(<$atomic>::new(value))
            }
            fn load(&self, order: Ordering) -> $ty {
                ctx::yield_op(OpKind::Load);
                self.0.load(order)
            }
            fn store(&self, value: $ty, order: Ordering) {
                ctx::yield_op(OpKind::Store);
                self.0.store(value, order);
            }
            fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                ctx::yield_op(OpKind::Rmw);
                self.0.fetch_add(value, order)
            }
            fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                ctx::yield_op(OpKind::Rmw);
                self.0.fetch_sub(value, order)
            }
            fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                ctx::yield_op(OpKind::Rmw);
                self.0.fetch_max(value, order)
            }
        }
    };
}

impl_shadow_atomic!(u32, ShadowU32, AtomicU32);
impl_shadow_atomic!(u64, ShadowU64, AtomicU64);
impl_shadow_atomic!(usize, ShadowUsize, AtomicUsize);

/// A FIFO ticket lock over shadow words. An acquirer that finds it held
/// is descheduled until the release, which is an RMW so the scheduler sees
/// the write that re-wakes it.
#[derive(Debug)]
struct TicketLock {
    ticket: ShadowU64,
    serving: ShadowU64,
}

/// Releases its [`TicketLock`] when dropped.
struct TicketGuard<'a> {
    lock: &'a TicketLock,
}

impl TicketLock {
    fn new() -> Self {
        TicketLock {
            ticket: ShadowU64::new(0),
            serving: ShadowU64::new(0),
        }
    }

    fn acquire(&self) -> TicketGuard<'_> {
        let ticket = self.ticket.fetch_add(1, Ordering::AcqRel);
        if self.serving.load(Ordering::Acquire) != ticket {
            ShadowSync::wait_until(StallPolicy::yielding(), || {
                self.serving.load(Ordering::Acquire) == ticket
            });
        }
        TicketGuard { lock: self }
    }

    /// Takes the next ticket only if it is being served. Tickets only grow,
    /// so `fetch_max(next + 1)` returning `next` is a compare-and-swap
    /// that won; a larger return took nothing.
    fn try_acquire(&self) -> Option<TicketGuard<'_>> {
        let next = self.ticket.load(Ordering::Acquire);
        if self.serving.load(Ordering::Acquire) != next {
            return None;
        }
        (self.ticket.fetch_max(next + 1, Ordering::AcqRel) == next)
            .then(|| TicketGuard { lock: self })
    }
}

impl Drop for TicketGuard<'_> {
    fn drop(&mut self) {
        self.lock.serving.fetch_add(1, Ordering::Release);
    }
}

/// The shadow domain's lock: a ticket lock over shadow words, so an
/// acquirer that finds it held is descheduled until the release RMW, and
/// a `std` mutex that carries the value. The mutex is only ever taken with
/// the ticket held, so it never contends and never blocks a virtual
/// thread out of the scheduler's sight.
#[derive(Debug)]
pub struct ShadowMutex<T> {
    ticket: TicketLock,
    value: Mutex<T>,
}

/// The held [`ShadowMutex`]. Fields drop in declaration order: the value's
/// mutex first, then the ticket.
pub struct ShadowMutexGuard<'a, T> {
    value: MutexGuard<'a, T>,
    _ticket: TicketGuard<'a>,
}

impl<T: Send> Lock<T> for ShadowMutex<T> {
    type Guard<'a>
        = ShadowMutexGuard<'a, T>
    where
        Self: 'a;

    fn new(value: T) -> Self {
        ShadowMutex {
            ticket: TicketLock::new(),
            value: Mutex::new(value),
        }
    }

    fn acquire(&self) -> ShadowMutexGuard<'_, T> {
        let ticket = self.ticket.acquire();
        ShadowMutexGuard {
            value: self.value.lock().unwrap_or_else(PoisonError::into_inner),
            _ticket: ticket,
        }
    }

    fn try_acquire(&self) -> Option<ShadowMutexGuard<'_, T>> {
        let ticket = self.ticket.try_acquire()?;
        Some(ShadowMutexGuard {
            value: self.value.lock().unwrap_or_else(PoisonError::into_inner),
            _ticket: ticket,
        })
    }
}

impl<T> Deref for ShadowMutexGuard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for ShadowMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

/// The checker's [`SyncOps`]: instantiate any backend as e.g.
/// `CentralBarrier::<ShadowSync>::with_policy_in(..)` and its every atomic
/// access becomes a scheduling decision.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShadowSync;

impl SyncOps for ShadowSync {
    type AtomicU32 = ShadowU32;
    type AtomicU64 = ShadowU64;
    type AtomicUsize = ShadowUsize;
    type Mutex<T: Send> = ShadowMutex<T>;

    fn wait_until(policy: StallPolicy, mut pred: impl FnMut() -> bool) -> SpinReport {
        if ctx::write_gen().is_none() {
            // No checker run on this thread: behave like production.
            return spin::wait_until(policy, pred);
        }
        let mut probes: u64 = 0;
        let mut descheduled = false;
        loop {
            if ctx::aborted() {
                // Pretend success so the backend unwinds; bodies check
                // `ctx::aborted()` after every blocking call.
                return SpinReport {
                    probes,
                    descheduled,
                    waited: Duration::ZERO,
                    timed_out: false,
                };
            }
            // Capture the generation BEFORE probing: a write that lands
            // between a failed probe and the block below leaves
            // `write_gen > gen`, making the block a no-op.
            let gen = ctx::write_gen().unwrap_or(0);
            if pred() {
                return SpinReport {
                    probes,
                    descheduled,
                    waited: Duration::ZERO,
                    timed_out: false,
                };
            }
            probes += 1;
            descheduled = true;
            ctx::block_until_write_after(gen);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Outside a run the shadow types must behave exactly like std atomics.
    #[test]
    fn shadow_atomics_work_without_a_scheduler() {
        let a = ShadowU64::new(3);
        assert_eq!(a.load(Ordering::Acquire), 3);
        a.store(5, Ordering::Release);
        assert_eq!(a.fetch_add(2, Ordering::AcqRel), 5);
        assert_eq!(a.fetch_sub(1, Ordering::AcqRel), 7);
        assert_eq!(a.fetch_max(100, Ordering::AcqRel), 6);
        assert_eq!(a.load(Ordering::Acquire), 100);
    }

    #[test]
    fn ticket_lock_is_exclusive_and_try_acquire_never_waits() {
        let lock = ShadowMutex::new(0u32);
        {
            let mut held = lock.acquire();
            *held += 1;
            assert!(lock.try_acquire().is_none(), "held");
        }
        *lock.try_acquire().expect("free") += 1;
        assert_eq!(*lock.acquire(), 2);
        // Three acquisitions, three tickets served.
        assert_eq!(lock.ticket.ticket.load(Ordering::Acquire), 3);
        assert_eq!(lock.ticket.serving.load(Ordering::Acquire), 3);
    }

    #[test]
    fn shadow_wait_until_without_scheduler_is_spin() {
        let r = ShadowSync::wait_until(StallPolicy::Spin, || true);
        assert!(r.was_instant());
    }
}
