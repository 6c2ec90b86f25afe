//! Ready-line fault injection and watchdog-driven eviction.
//!
//! The paper's hardware assumes every processor's ready line eventually
//! reaches the broadcast network. This module lets experiments break that
//! assumption deterministically — a processor's outgoing ready broadcast
//! can be delayed, made to stutter, or severed permanently — and pairs it
//! with the recovery side: each [`crate::barrier_hw::BarrierUnit`] carries
//! a *watchdog register* which, after a configurable cycle budget of
//! ready-but-unsynchronized waiting, raises an **eviction interrupt**. The
//! hardware response mirrors the paper's Sec. 5 mask update for
//! dynamically terminating streams, applied to a failed one: the
//! non-responsive partner is cleared from every unit's mask (and its tag
//! zeroed), so the survivors synchronize without it from the next
//! broadcast evaluation onward.
//!
//! The machine records one [`EvictionEvent`] per eviction, timestamping
//! the watchdog expiry and the survivors' first subsequent
//! synchronization — their difference is the **recovery latency** in
//! cycles that `exp_fault_recovery` reports.

use fuzzy_util::SplitMix64;

/// How a processor's outgoing ready-line broadcast misbehaves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReadyFault {
    /// The broadcast is suppressed for `cycles` cycles after onset, then
    /// heals (a transient glitch: the victim recovers on its own).
    Delay {
        /// Length of the outage in cycles.
        cycles: u64,
    },
    /// From onset onward, each cycle's broadcast is dropped with
    /// probability `p` (deterministic per seed): a flaky line that keeps
    /// resetting its partners' watchdogs if `p` is small, or starves them
    /// if large.
    Stutter {
        /// Per-cycle drop probability in `[0, 1]`.
        p: f64,
        /// Seed for the fault's own [`SplitMix64`] stream.
        seed: u64,
    },
    /// The broadcast never reaches the network again (a dead processor).
    Stall,
}

/// A fault bound to a victim processor and an onset cycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// The processor whose outgoing broadcast misbehaves.
    pub victim: usize,
    /// First cycle at which the fault is active.
    pub onset: u64,
    /// The misbehavior.
    pub fault: ReadyFault,
}

/// Live state of an injected fault (the plan plus its RNG stream).
#[derive(Debug)]
pub(crate) struct FaultState {
    plan: FaultPlan,
    rng: SplitMix64,
    /// Last cycle for which [`Self::suppresses`] was sampled, so the RNG
    /// stream advances exactly once per cycle regardless of how often the
    /// machine probes.
    sampled_at: Option<u64>,
    sampled: bool,
}

impl FaultState {
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let seed = match plan.fault {
            ReadyFault::Stutter { seed, .. } => seed,
            _ => 0,
        };
        FaultState {
            plan,
            rng: SplitMix64::seed_from_u64(seed),
            sampled_at: None,
            sampled: false,
        }
    }

    pub(crate) fn victim(&self) -> usize {
        self.plan.victim
    }

    /// Like [`Self::suppresses`] but read-only, for pending-eviction
    /// detection; stutter faults report `false` (a straggler they starve
    /// is still covered, because deadlock detection's optimistic probe
    /// never declares a stutter victim stuck).
    pub(crate) fn suppresses_deterministic(&self, cycle: u64) -> bool {
        cycle >= self.plan.onset
            && match self.plan.fault {
                ReadyFault::Delay { cycles } => cycle < self.plan.onset + cycles,
                ReadyFault::Stall => true,
                ReadyFault::Stutter { .. } => false,
            }
    }

    /// Whether the victim's broadcast is severed for good from `cycle`
    /// on. This is the only suppression deadlock detection may assume
    /// persists: a delay heals, and a stutter with `p < 1` eventually
    /// lets an evaluation through. (A `p = 1.0` stutter should be
    /// expressed as [`ReadyFault::Stall`] instead, or the run ends at its
    /// cycle limit rather than as a detected deadlock.)
    pub(crate) fn severed_from(&self, cycle: u64) -> bool {
        matches!(self.plan.fault, ReadyFault::Stall) && cycle >= self.plan.onset
    }

    /// The first cycle at or after `cycle` that an event-skipping run must
    /// step through on this fault's account, if any. A fault changes
    /// behaviour at its onset and, for a delay, when it heals; the
    /// broadcast evaluation sees the change in that cycle, the deadlock
    /// probe (which asks about the cycle to come) one cycle earlier, so
    /// both cycles count. An active stutter samples its RNG in every
    /// evaluated cycle: each one counts.
    pub(crate) fn next_change(&self, cycle: u64) -> Option<u64> {
        let onset = self.plan.onset;
        let changes = match self.plan.fault {
            ReadyFault::Delay { cycles } => [onset, onset + cycles],
            ReadyFault::Stutter { .. } if cycle + 1 >= onset => return Some(cycle),
            ReadyFault::Stall | ReadyFault::Stutter { .. } => [onset; 2],
        };
        changes
            .into_iter()
            .filter(|&change| change >= cycle)
            .map(|change| change.saturating_sub(1).max(cycle))
            .min()
    }

    /// Whether the victim's broadcast is suppressed during `cycle`.
    pub(crate) fn suppresses(&mut self, cycle: u64) -> bool {
        if cycle < self.plan.onset {
            return false;
        }
        match self.plan.fault {
            ReadyFault::Delay { cycles } => cycle < self.plan.onset + cycles,
            ReadyFault::Stall => true,
            ReadyFault::Stutter { p, .. } => {
                if self.sampled_at != Some(cycle) {
                    self.sampled_at = Some(cycle);
                    self.sampled = self.rng.chance(p);
                }
                self.sampled
            }
        }
    }
}

/// One watchdog-triggered eviction, as recorded by the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictionEvent {
    /// The processor that was cut out of the masks.
    pub victim: usize,
    /// The processor whose watchdog raised the interrupt.
    pub watchdog: usize,
    /// Cycle at which the watchdog fired and the masks were updated.
    pub fired_at: u64,
    /// Cycle of the watchdog processor's first synchronization after the
    /// eviction; `None` while recovery is still pending.
    pub recovered_at: Option<u64>,
}

impl EvictionEvent {
    /// Cycles from the eviction to the survivors' next synchronization.
    #[must_use]
    pub fn recovery_latency(&self) -> Option<u64> {
        self.recovered_at.map(|at| at - self.fired_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_heals_after_its_window() {
        let mut f = FaultState::new(FaultPlan {
            victim: 1,
            onset: 10,
            fault: ReadyFault::Delay { cycles: 5 },
        });
        assert!(!f.suppresses(9));
        assert!(f.suppresses(10));
        assert!(f.suppresses(14));
        assert!(!f.suppresses(15));
    }

    #[test]
    fn stall_never_heals() {
        let mut f = FaultState::new(FaultPlan {
            victim: 0,
            onset: 3,
            fault: ReadyFault::Stall,
        });
        assert!(!f.suppresses(2));
        assert!(f.suppresses(3));
        assert!(f.suppresses(u64::MAX));
    }

    #[test]
    fn stutter_is_deterministic_and_stable_within_a_cycle() {
        let plan = FaultPlan {
            victim: 2,
            onset: 0,
            fault: ReadyFault::Stutter { p: 0.5, seed: 42 },
        };
        let sample = |plan| {
            let mut f = FaultState::new(plan);
            (0..64).map(|c| f.suppresses(c)).collect::<Vec<_>>()
        };
        let a = sample(plan);
        assert_eq!(a, sample(plan), "same seed, same drop pattern");
        assert!(a.iter().any(|&x| x) && a.iter().any(|&x| !x));
        // Probing the same cycle twice must not advance the stream.
        let mut f = FaultState::new(plan);
        assert_eq!(f.suppresses(7), f.suppresses(7));
    }

    #[test]
    fn recovery_latency_subtracts() {
        let mut e = EvictionEvent {
            victim: 1,
            watchdog: 0,
            fired_at: 100,
            recovered_at: None,
        };
        assert_eq!(e.recovery_latency(), None);
        e.recovered_at = Some(103);
        assert_eq!(e.recovery_latency(), Some(3));
    }
}
