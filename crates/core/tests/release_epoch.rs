//! The [`SplitBarrier::release_epoch`] contract: `Some(k)` means that for
//! every participant id `is_complete(token(id, e)) == (e < k)`. Checked at
//! every quiescent point of a single-threaded walk through arrivals,
//! eviction, `leave` and poison on the four backends that publish a
//! release word; the cooperative backend and the wrappers must say `None`.

use fuzzy_barrier::{
    ArrivalToken, AsyncBarrier, CentralBarrier, CountingBarrier, DisseminationBarrier,
    FuzzyBarrier, HierBarrier, SplitBarrier, StallPolicy, TreeBarrier,
};
use std::sync::Arc;

/// Asserts the contract at this instant and returns the release word.
fn check(name: &str, b: &dyn SplitBarrier) -> u64 {
    let k = b
        .release_epoch()
        .unwrap_or_else(|| panic!("{name}: publishes a release word"));
    assert_eq!(
        k,
        b.stats().episodes,
        "{name}: release word counts episodes"
    );
    for id in 0..b.participants() {
        for e in [k.saturating_sub(1), k, k + 1] {
            assert_eq!(
                b.is_complete(&ArrivalToken::new(id, e)),
                e < k,
                "{name}: id {id}, episode {e}, release word {k}"
            );
        }
    }
    k
}

/// Arrives `ids` one at a time, checking the contract after each, and
/// expects exactly the last arrival to advance the word.
fn episode(name: &str, b: &dyn SplitBarrier, ids: &[usize]) {
    let before = check(name, b);
    let tokens: Vec<_> = ids
        .iter()
        .enumerate()
        .map(|(i, &id)| {
            let token = b.arrive(id);
            let advanced = u64::from(i + 1 == ids.len());
            assert_eq!(
                check(name, b),
                before + advanced,
                "{name}: after arrival {i}"
            );
            token
        })
        .collect();
    for token in tokens {
        b.wait(token);
    }
    check(name, b);
}

fn walk(name: &str, b: &dyn SplitBarrier) {
    let n = b.participants();
    let all: Vec<usize> = (0..n).collect();
    episode(name, b, &all);
    episode(name, b, &all);

    // Evict the last participant mid-episode: its stand-in arrival
    // completes the episode the survivors are parked in.
    let survivors = &all[..n - 1];
    let before = check(name, b);
    let tokens: Vec<_> = survivors.iter().map(|&id| b.arrive(id)).collect();
    assert_eq!(check(name, b), before);
    b.evict(n - 1).expect("a straggler that has not arrived");
    assert_eq!(check(name, b), before + 1, "{name}: eviction completes it");
    for token in tokens {
        b.wait(token);
    }
    episode(name, b, survivors);

    // Poison changes who gets an error, not what is complete: arrivals
    // still count, and the waits find the episode complete.
    b.poison();
    episode(name, b, survivors);
    b.clear_poison();
    episode(name, b, survivors);
}

#[test]
fn release_word_agrees_with_is_complete_on_uniform_release_backends() {
    for n in [2, 5] {
        walk("central", &CentralBarrier::new(n));
        walk("counting", &CountingBarrier::new(n));
        walk("tree", &TreeBarrier::new(n));
        walk("hier", &HierBarrier::new(n));
        // At n = 5 the shards are {0,1},{2,3},{4}: evicting 4 empties
        // its shard, which the tree then shrinks out.
        walk(
            "hier/2",
            &HierBarrier::with_shards(n, 2, StallPolicy::default()),
        );
        // Singleton shards: every eviction empties one.
        walk(
            "hier/1",
            &HierBarrier::with_shards(n, 1, StallPolicy::default()),
        );
        walk("fuzzy(central)", &FuzzyBarrier::new(n));
        let shared: Arc<dyn SplitBarrier> = Arc::new(CountingBarrier::new(n));
        walk("arc(counting)", &shared);
    }
}

#[test]
fn release_word_survives_central_leave() {
    let b = CentralBarrier::new(3);
    episode("central", &b, &[0, 1, 2]);
    // A departure counts as this episode's arrival and shrinks the next.
    let tokens = [b.arrive(0), b.arrive(1)];
    assert_eq!(check("central", &b), 1);
    b.leave(2);
    assert_eq!(check("central", &b), 2);
    for token in tokens {
        b.wait(token);
    }
    episode("central", &b, &[0, 1]);
}

#[test]
fn cooperative_backends_and_wrappers_publish_no_release_word() {
    let n = 4;
    assert_eq!(DisseminationBarrier::new(n).release_epoch(), None);
    let shared: Arc<dyn SplitBarrier> = Arc::new(DisseminationBarrier::new(n));
    assert_eq!(shared.release_epoch(), None);
    // A wrapper with bookkeeping of its own keeps `None` even over a
    // uniform-release backend. (`ReconfigBarrier` is not a `SplitBarrier`
    // at all; `NetBarrier`'s `None` is asserted in `fuzzy-net`.)
    let frontend = AsyncBarrier::new(CentralBarrier::new(n));
    assert_eq!(frontend.backend().release_epoch(), Some(0));
    assert_eq!(frontend.release_epoch(), None);
}
