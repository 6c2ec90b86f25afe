//! Randomized tests for the fuzzy-barrier core invariants.
//!
//! Formerly written with `proptest`; the build environment is offline, so
//! the same properties are now exercised with a deterministic seeded
//! generator ([`fuzzy_util::SplitMix64`]) sweeping many random cases.

use fuzzy_barrier::{
    CentralBarrier, CountingBarrier, DisseminationBarrier, GroupRegistry, HierBarrier, ProcMask,
    SplitBarrier, StallPolicy, Tag, TreeBarrier,
};
use fuzzy_util::SplitMix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Runs `episodes` barrier episodes on `n` threads with per-thread random
/// work delays, checking the fundamental fuzzy-barrier safety property
/// (Fig. 1): no thread observes a neighbour's pre-barrier write from an
/// *older* phase after the barrier.
fn exercise_backend<B: SplitBarrier + 'static>(b: B, n: usize, episodes: u64, delays: &[u8]) {
    let b = Arc::new(b);
    let cells: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    std::thread::scope(|s| {
        for id in 0..n {
            let b = Arc::clone(&b);
            let cells = Arc::clone(&cells);
            let delay = u64::from(delays[id % delays.len()]);
            s.spawn(move || {
                for phase in 1..=episodes {
                    cells[id].store(phase, Ordering::Release);
                    let token = b.arrive(id);
                    // Barrier region: busy work proportional to the random
                    // delay, modelling drift between streams.
                    let mut acc = 0u64;
                    for i in 0..delay * 50 {
                        acc = acc.wrapping_add(i);
                    }
                    std::hint::black_box(acc);
                    let outcome = b.wait(token);
                    assert_eq!(outcome.episode, 2 * (phase - 1));
                    let seen = cells[(id + 1) % n].load(Ordering::Acquire);
                    assert!(
                        seen >= phase,
                        "phase {phase}: participant {id} saw stale write {seen}"
                    );
                    // Second barrier to close the phase before the next store.
                    let token = b.arrive(id);
                    b.wait(token);
                }
            });
        }
    });
    assert_eq!(b.stats().episodes, 2 * episodes);
    assert_eq!(b.stats().arrivals, 2 * episodes * n as u64);
}

/// Generates a random (n, delays) case like the old proptest strategies:
/// `n in 1..6`, `delays in vec(0u8..16, 1..6)`.
fn random_case(rng: &mut SplitMix64) -> (usize, Vec<u8>) {
    let n = 1 + rng.below(5);
    let len = 1 + rng.below(5);
    let delays = (0..len).map(|_| rng.range_u64(0, 15) as u8).collect();
    (n, delays)
}

#[test]
fn central_barrier_is_safe() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    for _case in 0..12 {
        let (n, delays) = random_case(&mut rng);
        exercise_backend(CentralBarrier::new(n), n, 40, &delays);
    }
}

#[test]
fn counting_barrier_is_safe() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    for _case in 0..12 {
        let (n, delays) = random_case(&mut rng);
        exercise_backend(CountingBarrier::new(n), n, 40, &delays);
    }
}

#[test]
fn dissemination_barrier_is_safe() {
    let mut rng = SplitMix64::seed_from_u64(0xD15C0);
    for _case in 0..12 {
        let (n, delays) = random_case(&mut rng);
        exercise_backend(DisseminationBarrier::new(n), n, 40, &delays);
    }
}

#[test]
fn tree_barrier_is_safe() {
    let mut rng = SplitMix64::seed_from_u64(0x7EEE);
    for _case in 0..12 {
        let (n, delays) = random_case(&mut rng);
        let fan_in = 2 + rng.below(3);
        exercise_backend(
            TreeBarrier::with_fan_in(n, fan_in, StallPolicy::default()),
            n,
            40,
            &delays,
        );
    }
}

#[test]
fn hier_barrier_is_safe() {
    // Random non-power-of-two group sizes and shard sizes, a short and the
    // default spin budget — including the degenerate shapes: shard size 1 (every
    // participant its own leader: the hierarchy collapses to a pure
    // combining tree) and shard size >= n (one shard: the tree collapses
    // to a single root node).
    let mut rng = SplitMix64::seed_from_u64(0x41E2);
    for case in 0..16 {
        let (n, delays) = random_case(&mut rng);
        let shard_size = match case % 4 {
            0 => 1, // all-leaders degenerate
            1 => n, // single-shard degenerate
            _ => 1 + rng.below(n.max(1)),
        };
        let policy = if rng.chance(0.5) {
            StallPolicy::SpinYield { spin_limit: 32 }
        } else {
            StallPolicy::default()
        };
        exercise_backend(
            HierBarrier::with_shards(n, shard_size, policy),
            n,
            40,
            &delays,
        );
    }
}

#[test]
fn mask_rank_matches_iteration_order() {
    let mut rng = SplitMix64::seed_from_u64(1);
    for _case in 0..64 {
        let count = rng.below(20);
        let ids: std::collections::BTreeSet<usize> = (0..count).map(|_| rng.below(64)).collect();
        let mask: ProcMask = ids.iter().copied().collect();
        assert_eq!(mask.len(), ids.len());
        for (rank, id) in mask.iter().enumerate() {
            assert_eq!(mask.rank_of(id), Some(rank));
        }
        // Non-members have no rank.
        for id in 0..64 {
            if !ids.contains(&id) {
                assert_eq!(mask.rank_of(id), None);
            }
        }
    }
}

#[test]
fn mask_set_laws() {
    let mut rng = SplitMix64::seed_from_u64(2);
    for _case in 0..64 {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let ma = ProcMask::from_bits(a);
        let mb = ProcMask::from_bits(b);
        assert_eq!(ma.union(&mb), mb.union(&ma));
        assert_eq!(ma.intersection(&mb), mb.intersection(&ma));
        assert!(ma.intersection(&mb).is_subset(&ma));
        assert!(ma.is_subset(&ma.union(&mb)));
        assert_eq!(ma.is_disjoint(&mb), ma.intersection(&mb).is_empty());
        assert_eq!(
            ma.union(&mb).len() + ma.intersection(&mb).len(),
            ma.len() + mb.len()
        );
    }
}

#[test]
fn tag_next_never_yields_zero() {
    let mut rng = SplitMix64::seed_from_u64(3);
    for _case in 0..64 {
        let raw = rng.range_u64(1, u64::from(u16::MAX)) as u16;
        let tag = Tag::new(raw).unwrap();
        assert!(tag.next().get() != 0);
    }
    // The wrap-around case, explicitly.
    assert!(Tag::new(u16::MAX).unwrap().next().get() != 0);
}

#[test]
fn registry_never_exceeds_budget() {
    let mut rng = SplitMix64::seed_from_u64(4);
    for _case in 0..64 {
        let max_streams = 2 + rng.below(8);
        let ops: Vec<bool> = (0..1 + rng.below(39)).map(|_| rng.chance(0.5)).collect();
        // true = allocate, false = release the oldest live barrier. The
        // model holds each handle: a dropped handle would make the barrier
        // an orphan that allocation may legitimately sweep.
        let registry = GroupRegistry::new(max_streams);
        let mask = ProcMask::first_n(2);
        let mut live: Vec<(Tag, fuzzy_barrier::registry::RegistryBarrier<_>)> = Vec::new();
        for op in ops {
            if op {
                match registry.allocate(mask) {
                    Ok((tag, handle)) => {
                        assert_eq!(handle.rank(1, tag), Ok(1));
                        live.push((tag, handle));
                    }
                    Err(_) => assert_eq!(live.len(), max_streams - 1),
                }
            } else if let Some((tag, _)) = live.first().cloned() {
                registry.release(tag).unwrap();
                live.remove(0);
            }
            assert!(registry.live_barriers() < max_streams);
            assert_eq!(registry.live_barriers(), live.len());
        }
    }
}

#[test]
fn backends_agree_on_episode_counts() {
    // Every backend must count the same number of episodes for the same
    // protocol-following schedule.
    let n = 3;
    let episodes = 50;
    let backends: Vec<Box<dyn SplitBarrier>> = vec![
        Box::new(CentralBarrier::new(n)),
        Box::new(CountingBarrier::new(n)),
        Box::new(DisseminationBarrier::new(n)),
        Box::new(TreeBarrier::new(n)),
        Box::new(HierBarrier::new(n)),
        Box::new(HierBarrier::with_shards(n, 2, StallPolicy::default())),
    ];
    for b in &backends {
        let b = &**b;
        std::thread::scope(|s| {
            for id in 0..n {
                s.spawn(move || {
                    for _ in 0..episodes {
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
        assert_eq!(b.stats().episodes, episodes);
    }
}
