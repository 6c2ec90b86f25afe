//! Flat counting split-phase barrier (the maximal hot-spot baseline).

use crate::episode::{Barrier, Cx, FlatProtocol, Protocol};
use crate::sync::{Atomic, RealSync, SyncOps};
use fuzzy_util::CachePadded;
use std::sync::atomic::Ordering;

/// A split-phase barrier built on a single monotone arrival counter.
///
/// Episode *e* is complete once `arrivals >= (e + 1) * n`. Both arrivers
/// and waiters touch the **same** word, making this the most hot-spot-prone
/// design possible — deliberately so: the paper's Sec. 1 argument is that
/// shared-variable barriers "are known to cause hot-spot accesses", and the
/// experiment suite uses this backend as the worst-case software baseline.
///
/// # Examples
///
/// ```
/// use fuzzy_barrier::{CountingBarrier, SplitBarrier};
///
/// let b = CountingBarrier::new(1);
/// let t = b.arrive(0);
/// assert!(b.wait(t).episode == 0);
/// ```
pub type CountingBarrier<S = RealSync> = Barrier<Counting<S>, S>;

/// The counting arrival/release protocol behind [`CountingBarrier`].
#[derive(Debug)]
pub struct Counting<S: SyncOps> {
    n: u64,
    /// Packed arrival word: the low [`DEAD_SHIFT`] bits count arrivals
    /// (real, stand-in, and ghost), the high bits count evicted
    /// participants. One word so an eviction's stand-in arrival and its
    /// dead-count increment land in a *single* RMW: the episode completer
    /// reads the dead count from the very value that crossed the boundary,
    /// leaving no window in which a racing eviction gets paid twice (once
    /// by its own stand-in, once by the completer's pre-pay). Found by the
    /// fuzzy-check evict scenario.
    arrivals: CachePadded<S::AtomicU64>,
}

/// Bit position of the dead-participant count inside the packed arrival
/// word. 48 bits of arrivals (~10^14 before overflow) leave 16 bits of
/// evictions — both far beyond any reachable configuration.
const DEAD_SHIFT: u32 = 48;
const COUNT_MASK: u64 = (1 << DEAD_SHIFT) - 1;

/// The arrival count of a packed word.
fn count(packed: u64) -> u64 {
    packed & COUNT_MASK
}

/// The eviction count of a packed word.
fn dead(packed: u64) -> u64 {
    packed >> DEAD_SHIFT
}

impl<S: SyncOps> FlatProtocol<S> for Counting<S> {
    fn for_participants(n: usize) -> Self {
        Counting {
            n: n as u64,
            arrivals: CachePadded::new(S::AtomicU64::new(0)),
        }
    }
}

impl<S: SyncOps> Counting<S> {
    fn threshold(&self, episode: u64) -> u64 {
        (episode + 1) * self.n
    }

    /// Adds `delta` to the packed arrival word and runs the
    /// episode-completion duties for the boundary the add crossed, if any.
    ///
    /// The counter is monotone, so exactly one add crosses each episode
    /// boundary — and that add's own return value carries the dead count
    /// as of the crossing instant. The crosser pre-pays the **next**
    /// episode's ghost arrivals, one per evicted participant, decided at
    /// the atomic moment the episode completed: an eviction that lands
    /// after the crossing is *not* pre-paid here (its own stand-in
    /// arrival covers the in-flight episode, and the next crosser will see
    /// it). A pre-payment can itself cross the next boundary when the
    /// survivors raced a whole episode ahead of it, hence the loop. It
    /// terminates because the core's eviction guard always leaves a
    /// survivor: the dead count stays below `n`, so a pre-payment alone
    /// never spans an episode and each further crossing needs a survivor's
    /// real arrival.
    #[inline]
    fn add_and_settle(&self, mut delta: u64, cx: &Cx<'_, S>) {
        let n = self.n;
        loop {
            // `SeqCst` for `wake_parked` after a crossing (the same
            // instruction as `AcqRel` on x86).
            let before = self.arrivals.fetch_add(delta, Ordering::SeqCst);
            let after = before + delta;
            // Each step adds at most n − 1 to the count (one arrival, or
            // one ghost per evicted participant), so at most one boundary
            // lies in (before, after].
            if count(after) / n == count(before) / n {
                return;
            }
            let completed = count(after) / n - 1;
            cx.record_episode(completed);
            cx.wake_parked(completed + 1);
            // Arrivals for `completed + 1` may already be in, and the
            // counter does not say whose; a participant crosser has not
            // arrived for it yet, so nobody reaches `completed + 2` first.
            if !cx.is_removal() {
                cx.admit_staged(self, || completed + 2);
            }
            let ghosts = dead(after);
            if ghosts == 0 {
                return;
            }
            delta = ghosts;
        }
    }
}

impl<S: SyncOps> Protocol<S> for Counting<S> {
    #[inline]
    fn arrive(&self, _id: usize, _episode: u64, cx: &Cx<'_, S>) {
        self.add_and_settle(1, cx);
    }

    #[inline]
    fn released(&self, _id: usize, episode: u64, _cx: &Cx<'_, S>) -> bool {
        count(self.arrivals.load(Ordering::Acquire)) >= self.threshold(episode)
    }

    #[inline]
    fn release_epoch(&self) -> Option<u64> {
        Some(count(self.arrivals.load(Ordering::Acquire)) / self.n)
    }

    /// Pay-forward ghost scheme, in one RMW: the low bit is the stand-in
    /// arrival covering the in-flight episode (the evicted participant
    /// must not have arrived for it), the high bit registers the permanent
    /// ghost. All later episodes are covered by the completer chain: each
    /// boundary crosser pre-pays one ghost arrival per participant dead
    /// *as of its crossing* for the episode after it — including this one,
    /// atomically, because both fields travel in the same word.
    fn retire(&self, _id: usize, cx: &Cx<'_, S>) {
        self.add_and_settle((1u64 << DEAD_SHIFT) | 1, cx);
    }

    /// Unregisters one ghost. The crosser that admits applied it after
    /// paying the next episode's ghosts, so the joiner stays a ghost for
    /// that episode and the following crosser pays one fewer.
    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        self.arrivals
            .fetch_sub(1u64 << DEAD_SHIFT, Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BarrierError, Deadline, SplitBarrier};
    use std::sync::Arc;

    #[test]
    fn threshold_math() {
        let b = CountingBarrier::new(3);
        assert_eq!(b.protocol().threshold(0), 3);
        assert_eq!(b.protocol().threshold(1), 6);
    }

    #[test]
    fn eviction_pays_ghost_arrivals_forward() {
        // After an eviction the monotone counter must keep crossing episode
        // boundaries exactly once per episode, forever: the completer
        // pre-pays one ghost arrival per evicted participant.
        let b = CountingBarrier::new(4);
        let tokens: Vec<_> = (0..4).map(|id| b.arrive(id)).collect();
        for t in tokens {
            assert_eq!(b.wait(t).episode, 0);
        }
        b.evict(3).unwrap();
        for e in 1..=5 {
            let tokens: Vec<_> = (0..3).map(|id| b.arrive(id)).collect();
            for t in tokens {
                assert_eq!(b.wait(t).episode, e);
            }
        }
        let s = b.stats();
        assert_eq!(s.episodes, 6);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn eviction_mid_episode_completes_it() {
        // Peers time out on the straggler, the straggler is evicted, and
        // its stand-in arrival completes the in-flight episode.
        let b = Arc::new(CountingBarrier::new(4));
        std::thread::scope(|s| {
            let mut waiters = Vec::new();
            for id in 0..3 {
                let b = Arc::clone(&b);
                waiters.push(s.spawn(move || {
                    let t = b.arrive(id);
                    let err = b
                        .wait_deadline(t, Deadline::after(std::time::Duration::from_millis(20)))
                        .unwrap_err();
                    assert_eq!(err, BarrierError::Timeout { episode: 0 });
                }));
            }
            for w in waiters {
                w.join().unwrap();
            }
        });
        b.evict(3).unwrap();
        // The eviction crossed the episode-0 boundary itself.
        assert_eq!(b.stats().episodes, 1);
        // Survivors complete the next two episodes.
        for e in 1..=2 {
            let tokens: Vec<_> = (0..3).map(|id| b.arrive(id)).collect();
            for t in tokens {
                assert_eq!(b.wait(t).episode, e);
            }
        }
        assert_eq!(b.stats().timeouts, 3);
    }

    #[test]
    fn eight_threads_sync_repeatedly() {
        let n = 8;
        let b = Arc::new(CountingBarrier::new(n));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..300u64 {
                        let t = b.arrive(id);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(b.stats().episodes, 300);
    }
}
