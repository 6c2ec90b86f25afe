//! Exhaustive small-N verification of the stock backends.
//!
//! Bounded-preemption DFS **exhausts** the schedule space of each scenario
//! (every interleaving with up to the given number of preemptions), so a
//! pass here is a proof over that space, not a sampling claim: no
//! deadlock, no lost wakeup, no fuzzy-semantics violation, for any
//! explored schedule.

use fuzzy_check::{
    evict, explore_dfs, explore_random, poison, protocol, registry, subset_overlap, subset_pair,
    BackendKind, ExploreOptions, Outcome,
};

fn bounded(bound: usize) -> ExploreOptions {
    ExploreOptions {
        max_schedules: 200_000,
        step_limit: 50_000,
        preemption_bound: Some(bound),
    }
}

/// Asserts the scenario passes with the whole bounded tree explored.
fn must_exhaust(mut scenario: fuzzy_check::Scenario, bound: usize) -> usize {
    let name = scenario.name.clone();
    match explore_dfs(&mut scenario, &bounded(bound)) {
        Outcome::Pass {
            schedules,
            exhausted,
        } => {
            assert!(
                exhausted,
                "{name}: budget exhausted before the tree was ({schedules} schedules)"
            );
            eprintln!("{name}: exhausted {schedules} schedules (bound {bound})");
            schedules
        }
        Outcome::Fail { violation, .. } => panic!("{name}: {violation}"),
    }
}

#[test]
fn all_backends_exhaust_two_participants_two_episodes() {
    for backend in BackendKind::ALL {
        must_exhaust(protocol(backend, 2, 2), 2);
    }
}

#[test]
fn all_backends_exhaust_three_participants_one_episode() {
    for backend in BackendKind::ALL {
        must_exhaust(protocol(backend, 3, 1), 1);
    }
}

#[test]
fn central_survives_four_participants() {
    must_exhaust(protocol(BackendKind::Central, 4, 1), 1);
}

#[test]
fn hier_exhausts_three_participants_two_episodes() {
    // n=3, shard size 2 → two shards ({0,1}, {2}) and a real root node
    // combining the leaders, over two episodes so the re-armed shard and
    // tree counters are exercised too.
    must_exhaust(protocol(BackendKind::Hier, 3, 2), 1);
}

#[test]
fn subset_pair_exhausts() {
    // Every non-empty mask subset of two participants: {0}, {1}, {0,1},
    // with per-subset tags and a wrong-tag rejection probe.
    must_exhaust(subset_pair(2), 2);
}

#[test]
fn subset_overlap_exhausts() {
    // Fig. 6 stream merge: overlapping masks {0,1} and {1,2}.
    must_exhaust(subset_overlap(1), 1);
}

#[test]
fn registry_exhausts_with_allocation_churn() {
    // Dynamic streams: per-episode allocate/release with tag reuse, the
    // N−1 capacity bound asserted at every step of every schedule.
    must_exhaust(registry(2), 2);
}

#[test]
fn all_backends_exhaust_poison_at_three_participants() {
    // One participant aborts mid-episode; every surviving waiter must end
    // with Poisoned (or a completed episode 0), never a hang or an early
    // return — across every bounded interleaving.
    for backend in BackendKind::ALL {
        must_exhaust(poison(backend, 3), 1);
    }
}

#[test]
fn all_backends_exhaust_evict_at_three_participants() {
    // A participant is evicted after episode 0; survivors must complete
    // two further episodes with no lost wakeup and no fuzzy violation.
    for backend in BackendKind::ALL {
        must_exhaust(evict(backend, 3, 2), 1);
    }
}

#[test]
fn unbounded_dfs_within_budget_stays_clean() {
    // No preemption bound: take the first chunk of the full SC tree.
    for backend in BackendKind::ALL {
        let mut scenario = protocol(backend, 3, 2);
        let outcome = explore_dfs(
            &mut scenario,
            &ExploreOptions {
                max_schedules: 1_500,
                step_limit: 50_000,
                preemption_bound: None,
            },
        );
        assert!(outcome.passed(), "{}: {outcome:?}", scenario.name);
        assert_eq!(outcome.schedules(), 1_500);
    }
}

#[test]
fn random_sampling_stays_clean() {
    for backend in BackendKind::ALL {
        let mut scenario = protocol(backend, 3, 2);
        let outcome = explore_random(
            &mut scenario,
            &ExploreOptions {
                max_schedules: 300,
                step_limit: 50_000,
                preemption_bound: None,
            },
            0xB0BA,
        );
        assert!(outcome.passed(), "{}: {outcome:?}", scenario.name);
    }
}
