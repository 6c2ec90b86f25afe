//! The per-processor fuzzy-barrier hardware (Sec. 6).
//!
//! "Each processor contains an identical copy of the fuzzy barrier
//! hardware. This consists of a state machine that determines the status of
//! the barrier for the processor, an internal register that contains the
//! current tag and mask for the processor, and some combinational logic
//! which determines whether the processor's tag matches the tags of
//! processors with which it wishes to synchronize."

/// The four states of the paper's barrier state machine:
///
/// 1. executing instructions from a non-barrier region;
/// 2. in the barrier region and not synchronized;
/// 3. in the barrier region and synchronized;
/// 4. synchronization has not taken place and the processor is stalled,
///    having completed the barrier region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BarrierState {
    /// State (i): executing non-barrier code.
    #[default]
    NonBarrier,
    /// State (ii): inside the barrier region, synchronization pending. The
    /// ready line is raised.
    ReadyUnsynced,
    /// State (iii): inside the barrier region, synchronization observed.
    Synced,
    /// State (iv): finished the barrier region without synchronization —
    /// the processor idles. The ready line stays raised.
    Stalled,
}

/// One processor's barrier unit: state machine plus mask/tag register.
#[derive(Debug, Clone, Default)]
pub struct BarrierUnit {
    /// Current state of the state machine.
    pub state: BarrierState,
    /// Participation mask: bit *j* set ⇔ this processor synchronizes with
    /// processor *j*.
    pub mask: u64,
    /// Barrier tag; 0 means "not participating".
    pub tag: u16,
    /// Watchdog register: the cycle budget this unit tolerates with its
    /// ready line raised and synchronization absent before raising an
    /// eviction interrupt. `None` disables the watchdog (the paper's
    /// hardware, which waits forever).
    pub watchdog: Option<u64>,
    /// Consecutive cycles spent ready-but-unsynchronized, maintained by
    /// the machine's broadcast evaluation. Compared against
    /// [`Self::watchdog`]; reset on synchronization or whenever the ready
    /// line drops.
    pub waiting: u64,
}

impl BarrierUnit {
    /// A unit configured to synchronize with the processors in `mask`
    /// under `tag`.
    #[must_use]
    pub fn new(mask: u64, tag: u16) -> Self {
        BarrierUnit {
            state: BarrierState::NonBarrier,
            mask,
            tag,
            watchdog: None,
            waiting: 0,
        }
    }

    /// The same unit with an armed watchdog register.
    #[must_use]
    pub fn with_watchdog(mut self, budget: u64) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// True once the unit has outwaited its watchdog budget.
    #[must_use]
    pub fn watchdog_expired(&self) -> bool {
        self.watchdog.is_some_and(|budget| self.waiting > budget)
    }

    /// The broadcast ready line: raised while the processor is ready to
    /// synchronize and synchronization has not occurred (states ii and iv).
    #[must_use]
    pub fn ready_line(&self) -> bool {
        matches!(
            self.state,
            BarrierState::ReadyUnsynced | BarrierState::Stalled
        )
    }

    /// Whether the processor is currently stalled at the barrier exit.
    #[must_use]
    pub fn is_stalled(&self) -> bool {
        self.state == BarrierState::Stalled
    }
}

/// Evaluates the broadcast synchronization condition across all units and
/// applies it simultaneously, exactly as the hardware does ("since the
/// signals are being broadcast and monitored by each processor
/// independently, all processors simultaneously discover the occurrence of
/// synchronization").
///
/// A processor synchronizes when its ready line is up, its tag is non-zero,
/// and every processor in its mask has its ready line up with a matching
/// tag. Returns the ids of processors that synchronized this cycle.
///
/// `ready_override` lets the machine veto a unit's ready line (used in the
/// pipelined model where "exiting the non-barrier region and entering the
/// barrier region are not equivalent": a processor that has *entered* the
/// barrier region may still have non-barrier instructions in flight).
pub fn evaluate_sync(units: &mut [BarrierUnit], ready_override: &[bool]) -> Vec<usize> {
    debug_assert_eq!(units.len(), ready_override.len());
    let allowed = ready_override
        .iter()
        .enumerate()
        .fold(0u64, |m, (i, &ok)| m | (u64::from(ok) << i));
    let ready = ready_lines(units.iter()) & allowed;
    let synced: Vec<usize> = bits(sync_set(units.len(), |i| &units[i], ready)).collect();
    for &i in &synced {
        units[i].state = BarrierState::Synced;
    }
    synced
}

/// The most processors one machine can hold: masks and every processor
/// set derived from them are single `u64` words.
pub(crate) const MAX_PROCS: usize = 64;

/// The mask lines that lead somewhere on an `n`-processor machine: one bit
/// per processor.
pub(crate) fn wired(n: usize) -> u64 {
    debug_assert!(n <= MAX_PROCS);
    if n == MAX_PROCS {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

/// The set bits of `mask`, lowest first.
pub(crate) fn bits(mut mask: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let i = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            i
        })
    })
}

/// Bit *i* set ⇔ the *i*-th unit's ready line is raised.
pub(crate) fn ready_lines<'a>(units: impl Iterator<Item = &'a BarrierUnit>) -> u64 {
    units
        .enumerate()
        .fold(0, |m, (i, u)| m | (u64::from(u.ready_line()) << i))
}

/// The synchronization condition itself, without allocation or mutation:
/// given the `n` units (through `unit`) and the set of ready lines the
/// network actually sees, returns the set of units that synchronize. The
/// caller applies [`BarrierState::Synced`] to them.
pub(crate) fn sync_set<'a>(n: usize, unit: impl Fn(usize) -> &'a BarrierUnit, ready: u64) -> u64 {
    let wired = wired(n);
    let mut synced = 0;
    for i in bits(ready & wired) {
        let u = unit(i);
        // Mask bits beyond the last processor are not wired to anything.
        let partners = u.mask & wired & !(1u64 << i);
        if u.tag != 0 && partners & !ready == 0 && bits(partners).all(|j| unit(j).tag == u.tag) {
            synced |= 1u64 << i;
        }
    }
    synced
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ready_unit(mask: u64, tag: u16) -> BarrierUnit {
        BarrierUnit {
            state: BarrierState::ReadyUnsynced,
            mask,
            tag,
            ..BarrierUnit::default()
        }
    }

    #[test]
    fn ready_line_follows_state() {
        let mut u = BarrierUnit::new(0, 1);
        assert!(!u.ready_line());
        u.state = BarrierState::ReadyUnsynced;
        assert!(u.ready_line());
        u.state = BarrierState::Stalled;
        assert!(u.ready_line());
        assert!(u.is_stalled());
        u.state = BarrierState::Synced;
        assert!(!u.ready_line());
    }

    #[test]
    fn two_ready_matching_units_sync() {
        let mut units = vec![ready_unit(0b10, 1), ready_unit(0b01, 1)];
        let synced = evaluate_sync(&mut units, &[true, true]);
        assert_eq!(synced, vec![0, 1]);
        assert!(units.iter().all(|u| u.state == BarrierState::Synced));
    }

    #[test]
    fn sync_waits_for_all_masked_partners() {
        let mut units = vec![
            ready_unit(0b110, 1),
            ready_unit(0b101, 1),
            BarrierUnit::new(0b011, 1), // not ready
        ];
        let synced = evaluate_sync(&mut units, &[true, true, true]);
        assert!(synced.is_empty());
        units[2].state = BarrierState::Stalled; // now ready (state iv)
        let synced = evaluate_sync(&mut units, &[true, true, true]);
        assert_eq!(synced, vec![0, 1, 2]);
    }

    #[test]
    fn tag_mismatch_blocks_sync() {
        // Fig. 2 / Fig. 6: processors must not synchronize at logically
        // different barriers.
        let mut units = vec![ready_unit(0b10, 1), ready_unit(0b01, 2)];
        assert!(evaluate_sync(&mut units, &[true, true]).is_empty());
    }

    #[test]
    fn zero_tag_never_participates() {
        let mut units = vec![ready_unit(0b10, 0), ready_unit(0b01, 0)];
        assert!(evaluate_sync(&mut units, &[true, true]).is_empty());
    }

    #[test]
    fn disjoint_groups_sync_independently() {
        // Processors {0,1} under tag 1 and {2,3} under tag 2; group 2 is
        // not ready, group 1 must still fire.
        let mut units = vec![
            ready_unit(0b0010, 1),
            ready_unit(0b0001, 1),
            ready_unit(0b1000, 2),
            BarrierUnit::new(0b0100, 2),
        ];
        let synced = evaluate_sync(&mut units, &[true; 4]);
        assert_eq!(synced, vec![0, 1]);
        assert_eq!(units[2].state, BarrierState::ReadyUnsynced);
    }

    #[test]
    fn pipeline_override_vetoes_ready_line() {
        let mut units = vec![ready_unit(0b10, 1), ready_unit(0b01, 1)];
        // Unit 0 has entered its barrier region but still has non-barrier
        // instructions in flight.
        assert!(evaluate_sync(&mut units, &[false, true]).is_empty());
        let synced = evaluate_sync(&mut units, &[true, true]);
        assert_eq!(synced, vec![0, 1]);
    }

    #[test]
    fn empty_mask_syncs_alone() {
        let mut units = vec![ready_unit(0, 1)];
        assert_eq!(evaluate_sync(&mut units, &[true]), vec![0]);
    }

    #[test]
    fn watchdog_register_expires_strictly_past_budget() {
        let mut u = BarrierUnit::new(0b10, 1).with_watchdog(3);
        assert!(!u.watchdog_expired());
        u.waiting = 3;
        assert!(!u.watchdog_expired(), "budget itself is still tolerated");
        u.waiting = 4;
        assert!(u.watchdog_expired());
        // A unit without a watchdog waits forever, like the paper's.
        let mut forever = BarrierUnit::new(0b10, 1);
        forever.waiting = u64::MAX;
        assert!(!forever.watchdog_expired());
    }

    #[test]
    fn masks_may_be_asymmetric_without_firing_prematurely() {
        // 0 waits for 1, but 1 waits for nobody: 1 syncs alone, 0 keeps
        // waiting until 1 is ready again — matching the hardware, where
        // correctness is the software's responsibility.
        let mut units = vec![ready_unit(0b10, 1), BarrierUnit::new(0, 1)];
        assert!(evaluate_sync(&mut units, &[true, true]).is_empty());
    }
}
