//! Stall policies: what a participant does when it truly has to wait.
//!
//! The paper's Sec. 8 observes that on the Encore Multimax "the cost of
//! barrier synchronization is mainly due to context saves and restores for
//! the tasks that must be stalled". [`StallPolicy`] lets experiments model
//! that spectrum with three policies: pure spinning (cheap stall, the
//! hardware-like case), spin-then-yield, and spin-then-park (expensive
//! stall, the Encore-like case where a stall implies a context switch).
//! A wait runs exactly the policy its barrier was built with; no history
//! of earlier waits sizes the budget.

use std::time::{Duration, Instant};

/// How a participant waits once it has exhausted its barrier region and
/// synchronization has not yet occurred.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum StallPolicy {
    /// Busy-wait with a CPU relax hint. Models a hardware stall: the
    /// processor simply does not issue instructions.
    Spin,
    /// Spin for `spin_limit` iterations, then call
    /// [`std::thread::yield_now`] between probes.
    SpinYield {
        /// Number of busy-wait probes before yielding the CPU.
        spin_limit: u32,
    },
    /// Spin for `spin_limit` iterations, then sleep in `park_interval`
    /// slices between probes. Models the Encore software implementation
    /// where a stalled task suffers a context save/restore.
    Park {
        /// Number of busy-wait probes before parking.
        spin_limit: u32,
        /// How long each park slice lasts.
        park_interval: Duration,
    },
}

impl StallPolicy {
    /// A spin-then-yield policy that spins 1,024 probes before yielding:
    /// the [`Default`] policy.
    #[must_use]
    pub fn yielding() -> Self {
        StallPolicy::SpinYield {
            spin_limit: 1 << 10,
        }
    }

    /// A spin-then-park policy with a reasonable default spin budget and a
    /// 50 µs park slice; models an expensive (context-switching) stall.
    #[must_use]
    pub fn parking() -> Self {
        StallPolicy::Park {
            spin_limit: 1 << 8,
            park_interval: Duration::from_micros(50),
        }
    }
}

impl Default for StallPolicy {
    fn default() -> Self {
        Self::yielding()
    }
}

/// Outcome of a [`wait_until`] call: how hard the caller had to wait.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpinReport {
    /// Total number of predicate probes performed (0 means the predicate
    /// held on entry — the fuzzy ideal: no stall at all).
    pub probes: u64,
    /// Whether the policy escalated past pure spinning (a yield or park
    /// happened — the "context switch" the paper wants to avoid).
    pub descheduled: bool,
    /// Wall-clock time spent waiting.
    pub waited: Duration,
    /// Whether the wait gave up because its deadline passed (only ever set
    /// by [`wait_until_budget`]; the predicate did *not* hold on exit).
    pub timed_out: bool,
}

impl SpinReport {
    /// True if the caller never had to wait at all.
    #[must_use]
    pub fn was_instant(&self) -> bool {
        self.probes == 0
    }
}

/// Wait until `pred` returns true, following `policy`.
///
/// Returns a [`SpinReport`] describing the wait. The first probe happens
/// before any timing machinery is set up, so the common fuzzy-barrier fast
/// path (synchronization already happened while the caller was in its
/// barrier region) costs a single predicate call.
pub fn wait_until(policy: StallPolicy, pred: impl FnMut() -> bool) -> SpinReport {
    wait_until_budget(policy, None, pred)
}

/// While pure-spinning, the wall clock is consulted only once every this
/// many probes; an `Instant::now()` per probe would dominate the spin loop.
/// Once the policy deschedules, probes are already slow and every one
/// checks the clock.
const DEADLINE_CHECK_MASK: u64 = (1 << 6) - 1;

/// How long a parked (or otherwise sleeping) waiter may nap without
/// overshooting `deadline`: the full `interval` when no deadline is armed
/// or it is far away, the remaining budget when the deadline is nearer,
/// and zero once it has passed.
fn clamped_nap(deadline: Option<Instant>, interval: Duration) -> Duration {
    deadline.map_or(interval, |d| {
        d.saturating_duration_since(Instant::now()).min(interval)
    })
}

/// Bounded variant of [`wait_until`]: waits until `pred` returns true *or*
/// `deadline` passes, whichever comes first.
///
/// With `deadline: None` this is exactly [`wait_until`] — an unbounded
/// wait. On expiry the report has [`SpinReport::timed_out`] set and the
/// predicate did not hold at the final probe. The predicate is always
/// probed at least once more after the deadline check fails, never the
/// other way round, so a satisfied predicate always wins over the clock.
pub fn wait_until_budget(
    policy: StallPolicy,
    deadline: Option<Instant>,
    mut pred: impl FnMut() -> bool,
) -> SpinReport {
    if pred() {
        return SpinReport::default();
    }
    // Timing is lazy: the clock is only armed when a deadline must be
    // policed or the policy escalates past pure spinning. A no-deadline
    // pure-`Spin` wait therefore performs zero `Instant::now()` calls —
    // the loop is nothing but predicate probes and relax hints — and
    // reports `waited == 0`. For escalating no-deadline waits, `waited`
    // measures from the first deschedule: the portion of the stall that
    // actually costs a context switch, which is the part Sec. 8 prices.
    let mut start: Option<Instant> = deadline.map(|_| Instant::now());
    let mut probes: u64 = 1;
    let mut descheduled = false;
    let mut timed_out = false;
    loop {
        match policy {
            StallPolicy::Spin => std::hint::spin_loop(),
            StallPolicy::SpinYield { spin_limit } => {
                if probes < u64::from(spin_limit) {
                    std::hint::spin_loop();
                } else {
                    if !descheduled {
                        descheduled = true;
                        start.get_or_insert_with(Instant::now);
                    }
                    std::thread::yield_now();
                }
            }
            StallPolicy::Park {
                spin_limit,
                park_interval,
            } => {
                if probes < u64::from(spin_limit) {
                    std::hint::spin_loop();
                } else {
                    if !descheduled {
                        descheduled = true;
                        start.get_or_insert_with(Instant::now);
                    }
                    // Never sleep past the deadline: a full slice here
                    // would overshoot a nearer `wait_deadline` by up to
                    // one `park_interval`.
                    let nap = clamped_nap(deadline, park_interval);
                    if !nap.is_zero() {
                        std::thread::sleep(nap);
                    }
                }
            }
        }
        probes += 1;
        if pred() {
            break;
        }
        if let Some(deadline) = deadline {
            if (descheduled || probes & DEADLINE_CHECK_MASK == 0) && Instant::now() >= deadline {
                timed_out = true;
                break;
            }
        }
    }
    SpinReport {
        probes,
        descheduled,
        waited: start.map_or(Duration::ZERO, |s| s.elapsed()),
        timed_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn immediate_predicate_is_free() {
        let r = wait_until(StallPolicy::Spin, || true);
        assert!(r.was_instant());
        assert_eq!(r.probes, 0);
        assert!(!r.descheduled);
    }

    #[test]
    fn spin_waits_for_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            f2.store(true, Ordering::Release);
        });
        let r = wait_until(StallPolicy::yielding(), || flag.load(Ordering::Acquire));
        h.join().unwrap();
        assert!(r.probes > 0);
        assert!(!r.was_instant());
    }

    #[test]
    fn park_policy_marks_descheduled() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            f2.store(true, Ordering::Release);
        });
        let policy = StallPolicy::Park {
            spin_limit: 4,
            park_interval: Duration::from_micros(100),
        };
        let r = wait_until(policy, || flag.load(Ordering::Acquire));
        h.join().unwrap();
        assert!(r.descheduled, "park policy should have descheduled: {r:?}");
    }

    #[test]
    fn expired_budget_times_out() {
        let deadline = Instant::now() + Duration::from_millis(2);
        let r = wait_until_budget(StallPolicy::yielding(), Some(deadline), || false);
        assert!(r.timed_out, "deadline should have fired: {r:?}");
        // `waited` starts ticking inside the call, a hair after the
        // deadline was anchored — only a loose lower bound is exact.
        assert!(r.waited >= Duration::from_millis(1));
        assert!(!r.was_instant());
    }

    #[test]
    fn satisfied_predicate_beats_the_budget() {
        let deadline = Instant::now() + Duration::from_secs(60);
        let r = wait_until_budget(StallPolicy::Spin, Some(deadline), || true);
        assert!(!r.timed_out);
        assert!(r.was_instant());
    }

    #[test]
    fn budget_still_sees_late_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            f2.store(true, Ordering::Release);
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let r = wait_until_budget(StallPolicy::yielding(), Some(deadline), || {
            flag.load(Ordering::Acquire)
        });
        h.join().unwrap();
        assert!(!r.timed_out, "flag arrived well before the deadline: {r:?}");
    }

    #[test]
    fn default_policy_is_spin_yield() {
        assert_eq!(
            StallPolicy::default(),
            StallPolicy::SpinYield { spin_limit: 1_024 }
        );
    }

    #[test]
    fn pure_spin_without_deadline_never_reads_the_clock() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(2));
            f2.store(true, Ordering::Release);
        });
        let r = wait_until(StallPolicy::Spin, || flag.load(Ordering::Acquire));
        h.join().unwrap();
        assert!(r.probes > 0);
        assert!(!r.descheduled);
        // The clock was never armed: the loop is probes and relax hints
        // only, so the report's `waited` stays at zero by construction.
        assert_eq!(r.waited, Duration::ZERO);
    }

    #[test]
    fn escalated_wait_still_measures_time() {
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            f2.store(true, Ordering::Release);
        });
        let policy = StallPolicy::Park {
            spin_limit: 1,
            park_interval: Duration::from_millis(1),
        };
        let r = wait_until(policy, || flag.load(Ordering::Acquire));
        h.join().unwrap();
        assert!(r.descheduled);
        assert!(r.waited > Duration::ZERO, "timed from first park: {r:?}");
    }

    #[test]
    fn clamped_nap_is_the_single_overshoot_clamp() {
        // Regression for the extraction: the helper must reproduce the
        // Park-arm arithmetic exactly — full slice without a deadline,
        // remaining budget when the deadline is nearer than the slice,
        // zero once it has passed.
        let slice = Duration::from_millis(50);
        assert_eq!(clamped_nap(None, slice), slice);
        let far = Instant::now() + Duration::from_secs(60);
        assert_eq!(clamped_nap(Some(far), slice), slice);
        let near = Instant::now() + Duration::from_millis(5);
        let nap = clamped_nap(Some(near), slice);
        assert!(nap <= Duration::from_millis(5), "nap {nap:?} overshoots");
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(clamped_nap(Some(past), slice), Duration::ZERO);
    }

    #[test]
    fn park_clamps_sleep_to_the_deadline() {
        // Regression: a parked waiter used to sleep a full park_interval
        // even when the deadline was nearer, overshooting by up to one
        // slice. With the clamp, a 200 ms slice must not delay a ~5 ms
        // deadline: the timeout is reported within a fraction of the slice.
        let policy = StallPolicy::Park {
            spin_limit: 1,
            park_interval: Duration::from_millis(200),
        };
        let begin = Instant::now();
        let deadline = begin + Duration::from_millis(5);
        let r = wait_until_budget(policy, Some(deadline), || false);
        let elapsed = begin.elapsed();
        assert!(r.timed_out, "{r:?}");
        assert!(
            elapsed < Duration::from_millis(100),
            "timeout latency {elapsed:?} overshot the 5 ms deadline by most \
             of a 200 ms park slice"
        );
    }
}
