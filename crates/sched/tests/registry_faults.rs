//! Fault-path regression tests for [`GroupRegistry`] driven from the
//! scheduling crate's threaded side.
//!
//! The registry's orphan sweep and the barriers' eviction counters were
//! previously only exercised by single-threaded unit tests inside
//! `fuzzy-barrier`; here the full supervisor cycle runs under real OS
//! threads: a stream dies mid-run, the supervisor evicts it while the
//! survivors block, the eviction shows up in the registry's aggregate
//! telemetry, the orphaned slot is swept, and the same group is rebuilt
//! at full strength.

use fuzzy_barrier::{BarrierError, GroupRegistry, ProcMask, SplitBarrier};
use fuzzy_sched::executor::busy;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A stream dies after episode 0; the supervisor evicts it while the
/// survivors are blocked inside episode 1. The survivors resynchronize as
/// a smaller group, the eviction is visible through the registry's
/// aggregate telemetry, and after sweeping the orphaned slot the same
/// mask is rebuilt and runs clean.
#[test]
fn evict_then_rebuild_under_threaded_runner() {
    const PROCS: usize = 4;
    const DEAD: usize = PROCS - 1;
    const EPISODES: u64 = 4;
    let registry = GroupRegistry::new(8);
    let (tag, barrier) = registry.allocate(ProcMask::first_n(PROCS)).unwrap();

    std::thread::scope(|s| {
        for id in 0..PROCS {
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let episodes = if id == DEAD { 1 } else { EPISODES };
                let rank = barrier.rank(id, tag).unwrap();
                for _ in 0..episodes {
                    let token = barrier.arrive(rank);
                    busy(4);
                    barrier.wait(token);
                }
            });
        }
        // Supervisor: once episode 0 is done and every survivor has
        // arrived for episode 1 (the dead stream never will), evict the
        // dead stream to release them. Survivors cannot race past this
        // point — episode 1 needs the eviction to complete.
        let survivors_arrived = (PROCS + PROCS - 1) as u64;
        let deadline = Instant::now() + Duration::from_secs(60);
        while barrier.stats().arrivals < survivors_arrived {
            assert!(
                Instant::now() < deadline,
                "survivors never reached episode 1"
            );
            std::thread::yield_now();
        }
        barrier.evict(DEAD).unwrap();
    });
    assert_eq!(
        barrier.rank(DEAD, tag).unwrap_err(),
        BarrierError::NotAParticipant { id: DEAD }
    );

    let stats = barrier.stats();
    assert_eq!(stats.evictions, 1, "exactly one stream was evicted");
    assert_eq!(stats.episodes, EPISODES, "survivors finished every episode");

    // The eviction counter aggregates through the registry view.
    let (total, per_barrier) = registry.aggregate_telemetry();
    assert_eq!(total.base.evictions, 1);
    assert_eq!(per_barrier.len(), 1);
    assert_eq!(per_barrier[0].0, tag);

    // Dropping the handle without `release(tag)` orphans the slot; the
    // explicit sweep reclaims it and the tag stops resolving.
    drop(barrier);
    assert_eq!(registry.live_barriers(), 1);
    assert_eq!(registry.sweep_orphans(), 1);
    assert_eq!(registry.live_barriers(), 0);
    assert_eq!(
        registry.lookup(tag).unwrap_err(),
        BarrierError::UnknownTag { tag }
    );
    assert_eq!(registry.sweep_orphans(), 0, "sweep is idempotent");

    // Rebuild: evictions are per-barrier, not per-registry, so a fresh
    // allocation over the same mask runs all four streams again.
    let (tag2, rebuilt) = registry.allocate(ProcMask::first_n(PROCS)).unwrap();
    std::thread::scope(|s| {
        for id in 0..PROCS {
            let rebuilt = Arc::clone(&rebuilt);
            s.spawn(move || {
                let rank = rebuilt.rank(id, tag2).unwrap();
                for _ in 0..EPISODES {
                    let token = rebuilt.arrive(rank);
                    busy(4);
                    rebuilt.wait(token);
                }
            });
        }
    });
    let stats = rebuilt.stats();
    assert_eq!(stats.episodes, EPISODES);
    assert_eq!(stats.arrivals, PROCS as u64 * EPISODES);
    assert_eq!(stats.evictions, 0, "the rebuilt group starts clean");
}

/// Worker threads that allocate a group, synchronize once and drop their
/// handle without releasing the tag must not wedge the registry: the next
/// allocation sweeps the orphans instead of reporting `RegistryFull`.
#[test]
fn orphaned_groups_do_not_wedge_allocation_at_capacity() {
    let registry = GroupRegistry::new(4); // capacity 3
    std::thread::scope(|s| {
        for _ in 0..registry.capacity() {
            let registry = &registry;
            s.spawn(move || {
                let (tag, group) = registry.allocate(ProcMask::first_n(2)).unwrap();
                std::thread::scope(|inner| {
                    for id in 0..2 {
                        let group = Arc::clone(&group);
                        inner.spawn(move || {
                            let token = group.arrive(group.rank(id, tag).unwrap());
                            busy(2);
                            group.wait(token);
                        });
                    }
                });
                // No release(tag): the slot is orphaned on purpose.
            });
        }
    });
    assert_eq!(registry.live_barriers(), 3, "all slots hold orphans");
    let (_tag, _held) = registry.allocate(ProcMask::first_n(2)).unwrap();
    assert_eq!(
        registry.live_barriers(),
        1,
        "allocation swept the orphans instead of failing"
    );
}
