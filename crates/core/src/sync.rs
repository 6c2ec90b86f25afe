//! The synchronization-primitive abstraction the barrier backends are
//! written against.
//!
//! Every spin point and every shared atomic word in the episode core and
//! the five backend protocols behind it goes through [`SyncOps`], and so
//! does the async frontend's probe lock ([`SyncOps::Mutex`]). In
//! production code the only implementation that exists is [`RealSync`],
//! whose associated types are the `std::sync::atomic` types and
//! `std::sync::Mutex` themselves and whose [`SyncOps::wait_until`] is
//! [`crate::spin::wait_until`] — the abstraction monomorphizes away entirely
//! and the release hot path is byte-for-byte what it was before the
//! abstraction existed.
//!
//! The point of the indirection is *checkability*: the `fuzzy-check` crate
//! provides a second implementation whose atomics report every access to a
//! deterministic scheduler, letting a model checker drive the real backend
//! code through systematically chosen interleavings (deadlock, lost-wakeup
//! and fuzzy-semantics detection — see the repository's Verification docs).

use crate::spin::{self, SpinReport, StallPolicy};
use std::fmt::Debug;
use std::ops::DerefMut;
use std::sync::atomic::{self, Ordering};
use std::sync::{MutexGuard, PoisonError};
use std::time::Instant;

/// An atomic cell holding a value of type `T`.
///
/// The method set is exactly the subset of the `std::sync::atomic` API the
/// barrier backends use; orderings are passed through untouched so the
/// production instantiation keeps the backends' audited ordering story.
pub trait Atomic<T: Copy>: Send + Sync + Debug {
    /// Creates a cell holding `value`.
    fn new(value: T) -> Self;
    /// Atomically loads the value.
    fn load(&self, order: Ordering) -> T;
    /// Atomically stores `value`.
    fn store(&self, value: T, order: Ordering);
    /// Atomically adds `value`, returning the previous value.
    fn fetch_add(&self, value: T, order: Ordering) -> T;
    /// Atomically subtracts `value`, returning the previous value.
    fn fetch_sub(&self, value: T, order: Ordering) -> T;
    /// Atomically stores the maximum of the current and `value`, returning
    /// the previous value.
    fn fetch_max(&self, value: T, order: Ordering) -> T;
}

/// A mutual-exclusion lock over a value of type `T`.
pub trait Lock<T>: Send + Sync {
    /// Holds the lock, and the value, until dropped.
    type Guard<'a>: DerefMut<Target = T>
    where
        Self: 'a;
    /// Creates an unlocked lock over `value`.
    fn new(value: T) -> Self;
    /// Acquires the lock.
    fn acquire(&self) -> Self::Guard<'_>;
}

/// A family of synchronization primitives: atomic words plus the blocking
/// wait primitive.
///
/// Backends are generic over an implementation of this trait (defaulting to
/// [`RealSync`]), which is what lets the `fuzzy-check` model checker
/// substitute instrumented shadow state without touching backend logic.
pub trait SyncOps: Send + Sync + Debug + 'static {
    /// The `u32`-valued atomic word.
    type AtomicU32: Atomic<u32>;
    /// The `u64`-valued atomic word.
    type AtomicU64: Atomic<u64>;
    /// The `usize`-valued atomic word.
    type AtomicUsize: Atomic<usize>;
    /// The lock: one acquisition guards the value, and an instrumented
    /// domain can deschedule a blocked acquirer.
    type Mutex<T: Send>: Lock<T>;

    /// Waits until `pred` returns true, following `policy`.
    ///
    /// This is the backends' single blocking primitive; instrumented
    /// implementations may ignore `policy` and instead deschedule the
    /// virtual thread until shared state changes.
    fn wait_until(policy: StallPolicy, pred: impl FnMut() -> bool) -> SpinReport;

    /// Bounded variant of [`Self::wait_until`]: gives up (with
    /// [`SpinReport::timed_out`] set) once `deadline` passes.
    ///
    /// The default implementation ignores the deadline and waits forever —
    /// this is deliberately what the model checker's instrumented domain
    /// inherits: a descheduled virtual thread must never time out, because
    /// wall-clock expiry is nondeterminism the checker cannot explore.
    /// Deadline behavior is exercised by real-time tests over [`RealSync`],
    /// which overrides this with [`crate::spin::wait_until_budget`].
    fn wait_until_budget(
        policy: StallPolicy,
        deadline: Option<Instant>,
        pred: impl FnMut() -> bool,
    ) -> SpinReport {
        let _ = deadline;
        Self::wait_until(policy, pred)
    }
}

macro_rules! impl_real_atomic {
    ($ty:ty, $atomic:ty) => {
        impl Atomic<$ty> for $atomic {
            #[inline(always)]
            fn new(value: $ty) -> Self {
                <$atomic>::new(value)
            }
            #[inline(always)]
            fn load(&self, order: Ordering) -> $ty {
                <$atomic>::load(self, order)
            }
            #[inline(always)]
            fn store(&self, value: $ty, order: Ordering) {
                <$atomic>::store(self, value, order);
            }
            #[inline(always)]
            fn fetch_add(&self, value: $ty, order: Ordering) -> $ty {
                <$atomic>::fetch_add(self, value, order)
            }
            #[inline(always)]
            fn fetch_sub(&self, value: $ty, order: Ordering) -> $ty {
                <$atomic>::fetch_sub(self, value, order)
            }
            #[inline(always)]
            fn fetch_max(&self, value: $ty, order: Ordering) -> $ty {
                <$atomic>::fetch_max(self, value, order)
            }
        }
    };
}

impl_real_atomic!(u32, atomic::AtomicU32);
impl_real_atomic!(u64, atomic::AtomicU64);
impl_real_atomic!(usize, atomic::AtomicUsize);

/// Poison is ignored: the lock's users leave the value valid at every
/// step, so a panicking holder leaves nothing half-updated.
impl<T: Send> Lock<T> for std::sync::Mutex<T> {
    type Guard<'a>
        = MutexGuard<'a, T>
    where
        Self: 'a;

    #[inline(always)]
    fn new(value: T) -> Self {
        std::sync::Mutex::new(value)
    }

    #[inline(always)]
    fn acquire(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The production [`SyncOps`]: real `std::sync::atomic` words, the `std`
/// mutex and the [`crate::spin`] stall machinery. Zero-cost — everything
/// inlines to the pre-abstraction code.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RealSync;

impl SyncOps for RealSync {
    type AtomicU32 = atomic::AtomicU32;
    type AtomicU64 = atomic::AtomicU64;
    type AtomicUsize = atomic::AtomicUsize;
    type Mutex<T: Send> = std::sync::Mutex<T>;

    #[inline(always)]
    fn wait_until(policy: StallPolicy, pred: impl FnMut() -> bool) -> SpinReport {
        spin::wait_until(policy, pred)
    }

    #[inline(always)]
    fn wait_until_budget(
        policy: StallPolicy,
        deadline: Option<Instant>,
        pred: impl FnMut() -> bool,
    ) -> SpinReport {
        spin::wait_until_budget(policy, deadline, pred)
    }
}

/// A ticket lock over the `S` domain with spin-then-yield acquisition.
///
/// Acquisition takes a ticket with an RMW, then — only if the lock is
/// held — waits for the serving word with [`StallPolicy::yielding`].
/// Never pure spin: the holder may be another worker thread on the same
/// core, and a pure spinner would burn its whole OS timeslice while the
/// holder sits descheduled. Release is a `fetch_add` (an RMW, not a plain
/// store) so the `fuzzy-check` shadow domain sees a write-generation bump
/// that re-wakes descheduled acquirers.
///
/// The lock guards no data of its own; callers pair it with state that is
/// only touched while a [`TicketGuard`] is alive (the episode core's
/// membership, for example).
#[derive(Debug)]
pub struct TicketLock<S: SyncOps = RealSync> {
    ticket: S::AtomicU64,
    serving: S::AtomicU64,
}

impl<S: SyncOps> Default for TicketLock<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: SyncOps> TicketLock<S> {
    /// Creates an unlocked ticket lock.
    #[must_use]
    pub fn new() -> Self {
        TicketLock {
            ticket: S::AtomicU64::new(0),
            serving: S::AtomicU64::new(0),
        }
    }

    /// Acquires the lock, FIFO-fair by ticket order.
    #[must_use]
    pub fn acquire(&self) -> TicketGuard<'_, S> {
        let ticket = self.ticket.fetch_add(1, Ordering::AcqRel);
        if self.serving.load(Ordering::Acquire) != ticket {
            S::wait_until(StallPolicy::yielding(), || {
                self.serving.load(Ordering::Acquire) == ticket
            });
        }
        TicketGuard { lock: self }
    }
}

/// RAII release of a [`TicketLock`].
#[derive(Debug)]
pub struct TicketGuard<'a, S: SyncOps> {
    lock: &'a TicketLock<S>,
}

impl<S: SyncOps> Drop for TicketGuard<'_, S> {
    fn drop(&mut self) {
        self.lock.serving.fetch_add(1, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<A: Atomic<u64>>() {
        let a = A::new(3);
        assert_eq!(a.load(Ordering::Acquire), 3);
        a.store(5, Ordering::Release);
        assert_eq!(a.fetch_add(2, Ordering::AcqRel), 5);
        assert_eq!(a.fetch_sub(1, Ordering::AcqRel), 7);
        assert_eq!(a.fetch_max(100, Ordering::AcqRel), 6);
        assert_eq!(a.load(Ordering::Acquire), 100);
    }

    #[test]
    fn real_atomics_behave_like_std() {
        roundtrip::<<RealSync as SyncOps>::AtomicU64>();
    }

    #[test]
    fn real_wait_until_delegates_to_spin() {
        let r = RealSync::wait_until(StallPolicy::Spin, || true);
        assert!(r.was_instant());
    }

    #[test]
    fn real_wait_until_budget_honors_deadline() {
        let deadline = Instant::now() + std::time::Duration::from_millis(1);
        let r = RealSync::wait_until_budget(StallPolicy::yielding(), Some(deadline), || false);
        assert!(r.timed_out);
    }

    #[test]
    fn ticket_lock_is_reentrant_free_and_sequential() {
        let lock: TicketLock = TicketLock::new();
        for _ in 0..3 {
            let guard = lock.acquire();
            drop(guard);
        }
        // After three acquire/release pairs the words agree again.
        assert_eq!(lock.ticket.load(Ordering::Acquire), 3);
        assert_eq!(lock.serving.load(Ordering::Acquire), 3);
    }

    #[test]
    fn ticket_lock_excludes_concurrent_holders() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::Arc;
        let lock: Arc<TicketLock> = Arc::new(TicketLock::new());
        let inside = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let lock = Arc::clone(&lock);
                let inside = Arc::clone(&inside);
                s.spawn(move || {
                    for _ in 0..200 {
                        let guard = lock.acquire();
                        assert_eq!(inside.fetch_add(1, Ordering::AcqRel), 0, "lock held twice");
                        inside.fetch_sub(1, Ordering::AcqRel);
                        drop(guard);
                    }
                });
            }
        });
        assert_eq!(inside.load(Ordering::Acquire), 0);
    }
}
