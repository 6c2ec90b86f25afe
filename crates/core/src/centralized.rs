//! Centralized (single-counter) split-phase barrier.

use crate::episode::{Barrier, Cx, FlatProtocol, Protocol};
use crate::sync::{Atomic, RealSync, SyncOps};
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A centralized split-phase barrier: one shared count-down word plus a
/// 64-bit episode number that plays the role of the classic sense flag.
///
/// This is the epoch-based variant of the sense-reversing centralized
/// barrier. The last participant to arrive resets the counter and bumps the
/// episode; waiters spin until the episode advances past the one captured
/// in their [`crate::ArrivalToken`]. A 64-bit epoch has no reuse hazard,
/// which is the only job the sense flag performs in the boolean
/// formulation.
///
/// The shared counter is the **hot-spot** the paper warns about (Sec. 1):
/// every participant performs a read-modify-write on the same cache line
/// per episode, so arrival cost grows linearly with contention. The
/// [`crate::DisseminationBarrier`] and [`crate::TreeBarrier`] backends avoid
/// it; keeping this backend around is what lets the experiment suite show
/// the contrast.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{CentralBarrier, SplitBarrier};
///
/// let b = CentralBarrier::new(1);
/// let token = b.arrive(0);
/// let outcome = b.wait(token);
/// assert!(!outcome.stalled);
/// ```
pub type CentralBarrier<S = RealSync> = Barrier<Central<S>, S>;

/// The centralized arrival/release protocol behind [`CentralBarrier`].
#[derive(Debug)]
pub struct Central<S: SyncOps> {
    /// Remaining arrivals in the current episode (counts down from the
    /// live count).
    count: CachePadded<S::AtomicUsize>,
    /// Number of completed episodes; the release word waiters spin on.
    episode: CachePadded<S::AtomicU64>,
}

impl<S: SyncOps> FlatProtocol<S> for Central<S> {
    fn for_participants(n: usize) -> Self {
        Central {
            count: CachePadded::new(S::AtomicUsize::new(n)),
            episode: CachePadded::new(S::AtomicU64::new(0)),
        }
    }
}

impl<S: SyncOps> Central<S> {
    /// One arrival — real, departing or an eviction's stand-in — against
    /// the count-down word. The last one re-arms the counter for the next
    /// episode, then publishes completion. The order matters —
    /// participants released by the episode bump may immediately arrive
    /// again and must see a full counter. The live count is re-read
    /// because participants may have left or been evicted: the core
    /// shrinks it BEFORE the departure's stand-in decrement, and the RMW
    /// chain on `count` orders that shrink before this read.
    ///
    /// The last one runs before it publishes *e + 1*, so it applies staged
    /// admissions at *e + 1*; the core raises the live count it re-arms with.
    /// The publication is `SeqCst` for `wake_parked`, which follows it (the
    /// same instruction as `Release` on x86).
    #[inline]
    fn count_down(&self, cx: &Cx<'_, S>) {
        if self.count.fetch_sub(1, Ordering::AcqRel) == 1 {
            cx.admit_staged(self, || self.episode.load(Ordering::Relaxed) + 1);
            self.count.store(cx.live(), Ordering::Release);
            let completed = self.episode.fetch_add(1, Ordering::SeqCst);
            cx.record_episode(completed);
            cx.wake_parked(completed + 1);
        }
    }
}

impl<S: SyncOps> Protocol<S> for Central<S> {
    #[inline]
    fn arrive(&self, _id: usize, _episode: u64, cx: &Cx<'_, S>) {
        self.count_down(cx);
    }

    #[inline]
    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        self.episode.load(Ordering::Acquire) > episode
    }

    #[inline]
    fn release_epoch(&self) -> Option<u64> {
        Some(self.episode.load(Ordering::Acquire))
    }

    /// The evicted or departing participant must not have arrived for the
    /// in-flight episode — this decrement is its stand-in arrival.
    fn retire(&self, _id: usize, cx: &Cx<'_, S>) {
        self.count_down(cx);
    }

    /// Nothing to do: the completer re-arms the counter with the live
    /// count, which the core raises for the joiner.
    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitBarrier;
    use std::sync::Arc;

    #[test]
    fn four_threads_thousand_episodes() {
        let n = 4;
        let b = Arc::new(CentralBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..1000u64 {
                        let t = b.arrive(id);
                        let o = b.wait(t);
                        assert_eq!(o.episode, e);
                    }
                });
            }
        });
        let s = b.stats();
        assert_eq!(s.episodes, 1000);
        assert_eq!(s.arrivals, 4000);
        assert_eq!(s.waits, 4000);
    }

    #[test]
    fn leaving_shrinks_the_barrier() {
        let b = Arc::new(CentralBarrier::new(3));
        std::thread::scope(|s| {
            // Participant 2 runs one episode, then leaves.
            let b2 = Arc::clone(&b);
            s.spawn(move || {
                let t = b2.arrive(2);
                b2.wait(t);
                b2.leave(2);
            });
            for id in 0..2 {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for _ in 0..50 {
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
        assert_eq!(b.remaining_participants(), 2);
        assert_eq!(b.stats().episodes, 50);
    }

    #[test]
    fn leave_can_complete_the_current_episode() {
        let b = Arc::new(CentralBarrier::new(2));
        std::thread::scope(|s| {
            let b0 = Arc::clone(&b);
            s.spawn(move || {
                let t = b0.arrive(0);
                // Participant 1 never arrives — it leaves instead, which
                // must release us.
                let o = b0.wait(t);
                assert_eq!(o.episode, 0);
            });
            let b1 = Arc::clone(&b);
            s.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                b1.leave(1);
            });
        });
        assert_eq!(b.remaining_participants(), 1);
        // The lone survivor can keep synchronizing with itself.
        let t = b.arrive(0);
        assert!(!b.wait(t).stalled);
    }

    #[test]
    #[should_panic(expected = "last remaining participant")]
    fn last_participant_cannot_leave() {
        let b = CentralBarrier::new(1);
        b.leave(0);
    }
}
