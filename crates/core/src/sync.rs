//! The synchronization-primitive abstraction the barrier backends are
//! written against.
//!
//! Every spin point and every shared atomic word in the episode core and
//! the five backend protocols behind it goes through [`SyncOps`], and so
//! do the episode core's membership lock and the async frontend's probe
//! lock ([`SyncOps::Mutex`]). In
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
use std::sync::{MutexGuard, PoisonError, TryLockError};
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
    /// Acquires the lock if nobody holds it; never waits.
    fn try_acquire(&self) -> Option<Self::Guard<'_>>;
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

    #[inline(always)]
    fn try_acquire(&self) -> Option<MutexGuard<'_, T>> {
        match self.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
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
    fn try_acquire_fails_only_while_held() {
        let lock: <RealSync as SyncOps>::Mutex<()> = Lock::new(());
        let held = lock.acquire();
        assert!(lock.try_acquire().is_none());
        drop(held);
        assert!(lock.try_acquire().is_some());
    }
}
