//! The checker must catch every seeded-bug backend. Each mutant
//! re-introduces a realistic race into one stock backend; if any of these
//! tests fails, the checker has lost its teeth and its green runs over the
//! real backends mean nothing.
//!
//! The protocol mutants run behind the real episode core, whose poison
//! probe is a scheduling point too; where that moves a schedule budget the
//! test says by how much (as a hand-written barrier → as a protocol), all
//! far inside the 100,000 schedules `opts` allows.

use fuzzy_barrier::{AsyncBarrier, SplitBarrier};
use fuzzy_check::mutants::{
    MutantCentral, MutantCounting, MutantDissemination, MutantEarlyRelease, MutantEvictNoMask,
    MutantLeaderEarlyRelease, MutantNoPoison, MutantTree,
};
use fuzzy_check::{
    async_handoff, async_handoff_with, evict_with, explore_dfs, explore_random, poison_with,
    protocol_with, reconfig_future_with, replay, AsyncFrontend, BackendKind, Defect,
    ExploreOptions, Outcome, Scenario, ShadowSync,
};
use std::sync::Arc;

fn opts(bound: usize) -> ExploreOptions {
    ExploreOptions {
        max_schedules: 100_000,
        step_limit: 20_000,
        preemption_bound: Some(bound),
    }
}

/// Explores `scenario` under DFS and asserts a defect matching `want` is
/// found; returns the violation for follow-ups.
fn must_catch(
    mut scenario: Scenario,
    opts: ExploreOptions,
    want: fn(&Defect) -> bool,
) -> fuzzy_check::Violation {
    let name = scenario.name.clone();
    match explore_dfs(&mut scenario, &opts) {
        Outcome::Fail {
            violation,
            schedules,
        } => {
            assert!(
                want(&violation.defect),
                "{name}: wrong defect class: {:?}",
                violation.defect
            );
            eprintln!(
                "{name}: caught after {schedules} schedules: {}",
                violation.defect
            );
            violation
        }
        Outcome::Pass { schedules, .. } => {
            panic!("{name}: mutant survived {schedules} schedules")
        }
    }
}

/// Explores `scenario` under DFS and asserts no schedule provokes a
/// defect; returns the schedules explored.
fn must_survive(mut scenario: Scenario, opts: ExploreOptions) -> usize {
    match explore_dfs(&mut scenario, &opts) {
        Outcome::Pass { schedules, .. } => {
            eprintln!("{} clean over {schedules} schedules", scenario.name);
            schedules
        }
        Outcome::Fail { violation, .. } => panic!("{}: {violation}", scenario.name),
    }
}

fn is_lost_signal(defect: &Defect) -> bool {
    matches!(defect, Defect::LostWakeup { .. } | Defect::Deadlock { .. })
}

fn is_lost_wakeup(defect: &Defect) -> bool {
    matches!(defect, Defect::LostWakeup { .. })
}

fn is_fuzzy_violation(defect: &Defect) -> bool {
    matches!(defect, Defect::FuzzyViolation { .. })
}

fn is_protocol_error(defect: &Defect) -> bool {
    matches!(defect, Defect::ProtocolError { .. })
}

#[test]
fn central_publish_before_rearm_is_caught() {
    // Needs two episodes: a waiter released by the early publish re-arrives
    // and its decrement is overwritten by the belated re-arm. The mutant is
    // a `Protocol` behind the real episode core, whose poison probe and
    // live-count read are scheduling points too: caught after 100
    // schedules at bound 2 (48 as a hand-written barrier), of the 100,000
    // `opts` allows.
    //
    // The precise classification: every stuck waiter's episode had fully
    // arrived, so this is a lost wakeup, not a mere deadlock.
    let scenario = protocol_with("mutant/central", 2, 2, || {
        Arc::new(MutantCentral::<ShadowSync>::new(2))
    });
    must_catch(scenario, opts(2), is_lost_wakeup);
}

#[test]
fn counting_torn_increment_is_caught() {
    // One episode is enough: two torn increments lose a count. Caught
    // after 8 schedules at bound 1 (6 as a hand-written barrier).
    let scenario = protocol_with("mutant/counting", 2, 1, || {
        Arc::new(MutantCounting::<ShadowSync>::new(2))
    });
    must_catch(scenario, opts(1), is_lost_wakeup);
}

#[test]
fn dissemination_exact_match_is_caught() {
    // The fast partner completes episode 0 and re-arrives (episode 1)
    // before the slow waiter probes its flag; the overwritten slot never
    // compares equal again — on the first schedule, before and after.
    let scenario = protocol_with("mutant/dissemination", 2, 2, || {
        Arc::new(MutantDissemination::<ShadowSync>::new(2))
    });
    must_catch(scenario, opts(2), is_lost_signal);
}

#[test]
fn tree_propagate_before_rearm_is_caught() {
    // Caught after 89 schedules at bound 2 (48 as a hand-written barrier).
    let scenario = protocol_with("mutant/tree", 2, 2, || {
        Arc::new(MutantTree::<ShadowSync>::new(2))
    });
    must_catch(scenario, opts(2), is_lost_signal);
}

#[test]
fn tree_mutant_is_caught_at_n3_too() {
    // At n=3 the tree has real internal nodes, so the same bug also races
    // on a non-root node. Caught after 10,829 schedules at bound 2 (6,817
    // as a hand-written barrier).
    let scenario = protocol_with("mutant/tree/n3", 3, 2, || {
        Arc::new(MutantTree::<ShadowSync>::new(3))
    });
    must_catch(scenario, opts(2), is_lost_signal);
}

#[test]
fn early_release_fuzzy_violation_is_caught() {
    // No deadlock, no panic — the barrier simply fails to barrier. Only
    // the ledger's fuzzy-property check can see this.
    let scenario = protocol_with("mutant/early-release", 2, 1, || {
        Arc::new(MutantEarlyRelease::<ShadowSync>::new(2))
    });
    must_catch(scenario, opts(0), is_fuzzy_violation);
}

#[test]
fn hier_leader_early_release_is_caught() {
    // n=3, shard size 2: shard {0,1} fills and the buggy leader bumps the
    // shard epoch before the top level has heard from shard {2}. Both
    // members of the full shard return from wait while participant 2 has
    // not even begun — a fuzzy violation visible on the very first
    // sequential schedule, no preemption needed.
    let scenario = protocol_with("mutant/hier-leader-early-release", 3, 1, || {
        Arc::new(MutantLeaderEarlyRelease::<ShadowSync>::new(3))
    });
    must_catch(scenario, opts(0), is_fuzzy_violation);
}

#[test]
fn random_mode_also_catches_a_mutant() {
    // The torn increment fires under almost any non-sequential order, so
    // random sampling should find it fast.
    let mut scenario = protocol_with("mutant/counting/random", 2, 1, move || {
        Arc::new(MutantCounting::<ShadowSync>::new(2)) as Arc<dyn SplitBarrier>
    });
    let options = ExploreOptions {
        max_schedules: 2_000,
        step_limit: 20_000,
        preemption_bound: None,
    };
    match explore_random(&mut scenario, &options, 0xDECAF) {
        Outcome::Fail { violation, .. } => {
            assert!(is_lost_signal(&violation.defect), "{:?}", violation.defect);
        }
        Outcome::Pass { schedules, .. } => {
            panic!("random mode missed the torn increment in {schedules} schedules")
        }
    }
}

#[test]
fn forgotten_poison_is_caught() {
    // The aborter calls abort(), but the mutant's poison() is a no-op, so
    // the survivors never learn episode 1 can't complete and hang forever
    // in wait_deadline(never). Episode 1 is not fully arrived (the aborter
    // quit), so this classifies as a plain deadlock, not a lost wakeup.
    let scenario = poison_with("mutant/no-poison", 3, || Arc::new(MutantNoPoison::new(3)));
    must_catch(scenario, opts(2), is_lost_signal);
}

#[test]
fn eviction_without_mask_update_is_caught() {
    // The mutant "evicts" by pushing a stand-in arrival instead of
    // shrinking the expected mask. The first post-evict episode completes
    // on the free arrival; the second strands the survivors with a fully
    // arrived survivor ledger — a lost wakeup. Needs episodes >= 2.
    let scenario = evict_with("mutant/evict-no-mask", 3, 2, || {
        Arc::new(MutantEvictNoMask::new(3))
    });
    must_catch(scenario, opts(2), is_lost_signal);
}

#[test]
fn racy_evict_guard_is_caught() {
    // Two members evict themselves at once. t0 checks for a survivor
    // (sees t1) and is preempted before it shrinks the count; t1 checks
    // (sees t0), claims, shrinks and returns Ok; t0 resumes and does the
    // same. Nobody was refused: the barrier is empty. The check-smoke
    // exploration (unbounded DFS) must find that within 100 schedules.
    use fuzzy_check::mutants::MutantRacyEvictGuard;
    let scenario = fuzzy_check::evict_race_with("mutant/racy-evict-guard", 2, || {
        Arc::new(MutantRacyEvictGuard::<ShadowSync>::new(2))
    });
    must_catch(scenario, smoke_dfs(100), is_protocol_error);
}

#[test]
fn racy_evict_guard_is_gone_from_every_stock_backend() {
    // The episode core serialises the guard once for all five: exactly
    // one of three racing self-evictions is refused, nothing panics or
    // livelocks, and the survivor synchronizes alone.
    for backend in fuzzy_check::BackendKind::ALL {
        must_survive(fuzzy_check::evict_race(backend, 3), smoke_dfs(1_000));
    }
}

#[test]
fn failing_schedule_replays_to_the_same_defect() {
    let counting = || Arc::new(MutantCounting::<ShadowSync>::new(2)) as Arc<dyn SplitBarrier>;
    let v = must_catch(
        protocol_with("mutant/counting/replay", 2, 1, counting),
        opts(1),
        is_lost_signal,
    );
    let mut scenario = protocol_with("mutant/counting/replay2", 2, 1, counting);
    let (result, diverged) = replay(&mut scenario, v.schedule.clone(), 20_000);
    assert!(!diverged, "replay of a recorded schedule must not diverge");
    let replayed = result.violation.expect("replay must reproduce the defect");
    assert_eq!(
        std::mem::discriminant(&replayed.defect),
        std::mem::discriminant(&v.defect),
        "replayed defect {:?} differs from original {:?}",
        replayed.defect,
        v.defect
    );
}

/// Explores `factory`'s async frontend under the waker-handoff scenario —
/// `n` tasks, `episodes` episodes, at most `bound` preemptions — and
/// asserts the checker classifies what it finds as a lost wakeup.
fn must_lose_a_wakeup(
    name: &str,
    (n, episodes, bound): (usize, u64, usize),
    factory: impl FnMut() -> Arc<dyn AsyncFrontend> + 'static,
) {
    let scenario = async_handoff_with(name, n, episodes, factory);
    must_catch(scenario, opts(bound), is_lost_wakeup);
}

/// The real `AsyncBarrier` frontend over `backend`, in the checker's
/// domain.
fn real_frontend(backend: Arc<dyn SplitBarrier>) -> Arc<dyn AsyncFrontend> {
    Arc::new(AsyncBarrier::new(backend))
}

/// The backends that park in the episode core: those with a release word.
const RELEASE_WORD: [BackendKind; 4] = [
    BackendKind::Central,
    BackendKind::Counting,
    BackendKind::Tree,
    BackendKind::Hier,
];

/// The schedule space of [`must_lose_a_wakeup`] over the *real*
/// `AsyncBarrier` frontend on each backend with a release word, which must
/// exhaust clean.
fn real_async_frontend_survives((n, episodes, bound): (usize, u64, usize)) {
    for backend in RELEASE_WORD {
        let scenario = async_handoff(backend, n, episodes);
        let schedules = must_survive(scenario, opts(bound));
        assert!(schedules < opts(bound).max_schedules, "space not exhausted");
    }
}

/// (tasks, episodes, preemption bound) of each mutant / real-frontend pair.
const NEVER_WAKES_SPACE: (usize, u64, usize) = (2, 1, 2);
const PARK_WITHOUT_RECHECK_SPACE: (usize, u64, usize) = (2, 2, 2);
const WAKE_BEFORE_PUBLISH_SPACE: (usize, u64, usize) = (3, 1, 1);
const YIELD_WITHOUT_WAKE_SPACE: (usize, u64, usize) = (2, 1, 1);
const REQUEUE_WITHOUT_WAKE_SPACE: (usize, u64, usize) = (2, 1, 1);

#[test]
fn completer_that_never_wakes_is_caught_as_lost_wakeup() {
    // The real frontend over a central protocol whose completer never
    // wakes the core's parked set. t0 arrives, yields, then parks in the
    // core. t1 arrives (completing the episode) and polls its own token to
    // Ready. t0 sleeps on a flag nobody sets; its episode fully arrived,
    // so the checker must classify the hang as a lost wakeup.
    use fuzzy_check::mutants::MutantNoWake;
    must_lose_a_wakeup("mutant/never-wakes", NEVER_WAKES_SPACE, || {
        real_frontend(Arc::new(MutantNoWake::<ShadowSync>::new(2)))
    });
}

#[test]
fn real_async_frontend_survives_the_never_wakes_schedule_space() {
    // The same tiny configuration over the stock backends must exhaust
    // clean: a completer that wakes what is parked below the release it
    // published is exactly what separates them from MutantNoWake.
    real_async_frontend_survives(NEVER_WAKES_SPACE);
}

#[test]
fn park_without_recheck_is_caught_as_lost_wakeup() {
    // t0 reads the release word lock-free: its episode is open. Preempted.
    // t1 arrives, completes the episode, finds nothing parked. t0
    // registers and returns Pending on the strength of the read it made
    // before; nobody is left to wake it.
    use fuzzy_check::mutants::MutantParkWithoutRecheck;
    must_lose_a_wakeup(
        "mutant/park-without-recheck",
        PARK_WITHOUT_RECHECK_SPACE,
        || Arc::new(MutantParkWithoutRecheck::new(2)),
    );
}

#[test]
fn real_async_frontend_survives_the_park_without_recheck_schedule_space() {
    // The real poll re-reads the word after it registers.
    real_async_frontend_survives(PARK_WITHOUT_RECHECK_SPACE);
}

#[test]
fn completer_that_wakes_before_it_publishes_is_caught_as_lost_wakeup() {
    // The last arriver completes the episode and looks at the parked
    // count before it publishes: nothing parked. Preempted. An earlier
    // arriver registers, re-reads a word that has not moved, and parks.
    // The completer publishes; nobody wakes the parked task.
    use fuzzy_check::mutants::MutantWakeBeforePublish;
    must_lose_a_wakeup(
        "mutant/wake-before-publish",
        WAKE_BEFORE_PUBLISH_SPACE,
        || real_frontend(Arc::new(MutantWakeBeforePublish::<ShadowSync>::new(3))),
    );
}

#[test]
fn real_async_frontend_survives_the_wake_before_publish_schedule_space() {
    // The stock completers publish, then look.
    real_async_frontend_survives(WAKE_BEFORE_PUBLISH_SPACE);
}

#[test]
fn async_yield_without_wake_is_caught_as_lost_wakeup() {
    // t0 arrives and polls: the episode is open, so the poll yields — and
    // wakes nobody. t0 sleeps on its flag with nothing registered. t1
    // arrives, completes the episode, finds nothing parked and resolves.
    // t0's episode fully arrived and nobody will poll it again: the first,
    // sequential schedule already loses the wakeup. One episode: with two,
    // t1 also sleeps in episode 1, which t0 never arrives for, and the
    // hang is only a deadlock.
    use fuzzy_check::mutants::MutantYieldWithoutWake;
    must_lose_a_wakeup(
        "mutant/yield-without-wake",
        YIELD_WITHOUT_WAKE_SPACE,
        || Arc::new(MutantYieldWithoutWake::new(2)),
    );
}

#[test]
fn real_async_frontend_survives_the_yield_without_wake_schedule_space() {
    // The real yield wakes its own waker before it returns `Pending`.
    real_async_frontend_survives(YIELD_WITHOUT_WAKE_SPACE);
}

#[test]
fn async_requeue_without_wake_is_caught_as_lost_wakeup() {
    // Dissemination has no parking place. t0 arrives; its first poll
    // yields, its second is refused a registration and returns `Pending`
    // without waking its task. t1 arrives, which completes t0's episode,
    // and resolves; nobody else ever wakes t0, and nobody polls it again.
    use fuzzy_check::mutants::MutantRequeueWithoutWake;
    must_lose_a_wakeup(
        "mutant/requeue-without-wake",
        REQUEUE_WITHOUT_WAKE_SPACE,
        || Arc::new(MutantRequeueWithoutWake::new(2)),
    );
}

#[test]
fn real_async_frontend_survives_the_requeue_without_wake_schedule_space() {
    // The real poll wakes its own waker before every `Pending` that parked
    // nothing, so the task polls, and drives its rounds, again.
    let (n, episodes, bound) = REQUEUE_WITHOUT_WAKE_SPACE;
    let scenario = async_handoff(BackendKind::Dissemination, n, episodes);
    let schedules = must_survive(scenario, opts(bound));
    assert!(schedules < opts(bound).max_schedules, "space not exhausted");
}

/// Check-smoke's exploration — unbounded-preemption DFS — cut off after
/// `max_schedules`.
fn smoke_dfs(max_schedules: usize) -> ExploreOptions {
    ExploreOptions {
        max_schedules,
        step_limit: 20_000,
        preemption_bound: None,
    }
}

#[test]
fn async_early_epoch_is_caught_as_fuzzy_violation() {
    // The real frontend over a backend whose release word runs one
    // arrival ahead: the poll's lock-free read trusts it, resolves a
    // future with a peer still outside the barrier, and the ledger sees
    // the early exit. This is what holds `release_epoch` to its contract.
    use fuzzy_check::mutants::MutantEarlyEpoch;
    let scenario = async_handoff_with("mutant/early-epoch", 3, 2, || {
        real_frontend(Arc::new(MutantEarlyEpoch::<ShadowSync>::new(3)))
    });
    must_catch(scenario, smoke_dfs(10_000), is_fuzzy_violation);
}

#[test]
fn real_async_frontend_survives_the_early_epoch_scenario_on_every_backend() {
    // Same scenario over the stock backends: the four that publish a
    // release word park in the episode core, the cooperative one
    // (dissemination) re-queues its pending polls; neither may lose a
    // wakeup or release early. A tenth
    // of the mutant's budget here; `scripts/ci.sh check-smoke` runs this
    // very exploration (`check --scenario async`) to the full 10k.
    for backend in fuzzy_check::BackendKind::ALL {
        must_survive(async_handoff(backend, 3, 2), smoke_dfs(1_000));
    }
}

#[test]
fn admit_in_flight_mutant_is_caught() {
    // The inner barrier counts the joiner in the episode already running,
    // behind the real ReconfigBarrier. The founders hold epoch 0 until the
    // join is staged, so the joiner lands in epoch 0 and is released there
    // instead of at epoch 1 with the grown trio: a protocol error, on the
    // very first sequential schedule.
    use fuzzy_check::join_mid_episode_with;
    use fuzzy_check::mutants::MutantAdmitInFlight;
    let scenario = join_mid_episode_with("mutant/admit-in-flight", 1, MutantAdmitInFlight::group);
    must_catch(scenario, opts(0), is_protocol_error);
}

#[test]
fn stale_generation_mutant_is_caught() {
    // The forged presentation re-presents a stale handle under the slot's
    // *current* generation, so a departed member's handle is accepted
    // (protocol error: "stale handle accepted") or is refused as no
    // participant while the re-occupant's join is unredeemed (also a
    // protocol error). Either way the probe never sees the StaleGeneration
    // rejection the scenario demands, deterministically, on the very first
    // sequential schedule.
    use fuzzy_check::mutants::forged_rank;
    use fuzzy_check::stale_generation_with;
    let scenario =
        stale_generation_with("mutant/stale-generation", BackendKind::Central, forged_rank);
    must_catch(scenario, opts(0), is_protocol_error);
}

/// DFS options for the real-implementation reconfig pass runs, once per
/// backend: the scenarios have three threads and membership churn, so the
/// schedule space is deep — 10k schedules at bound 2 per backend, as
/// `check-smoke` explores them.
fn reconfig_pass_opts() -> ExploreOptions {
    ExploreOptions {
        max_schedules: 10_000,
        step_limit: 20_000,
        preemption_bound: Some(2),
    }
}

#[test]
fn reconfig_future_over_a_never_waking_completer_is_caught() {
    // The member's future — AsyncBarrier over the group — parks on the
    // inner barrier; the inner completer never wakes it, and the member
    // sleeps through an episode
    // its peer completed. One episode: with two, the peer also waits in
    // episode 1, which the member never arrives for, and the hang is only
    // a deadlock.
    use fuzzy_check::mutants::MutantNoWake;
    let scenario = reconfig_future_with("mutant/reconfig/never-wakes", 2, 1, |n| {
        Arc::new(MutantNoWake::<ShadowSync>::new(n))
    });
    must_catch(scenario, opts(2), is_lost_wakeup);
}

#[test]
fn real_reconfig_survives_future_schedules() {
    for backend in BackendKind::ALL {
        must_survive(fuzzy_check::reconfig_future(backend), reconfig_pass_opts());
    }
}

#[test]
fn real_reconfig_survives_join_mid_episode_schedules() {
    for backend in BackendKind::ALL {
        must_survive(fuzzy_check::join_mid_episode(backend), reconfig_pass_opts());
    }
}

#[test]
fn real_reconfig_survives_stale_generation_schedules() {
    for backend in BackendKind::ALL {
        must_survive(fuzzy_check::stale_generation(backend), reconfig_pass_opts());
    }
}

#[test]
fn real_reconfig_survives_join_evict_race_schedules() {
    for backend in BackendKind::ALL {
        must_survive(fuzzy_check::join_evict_race(backend), reconfig_pass_opts());
    }
}

#[test]
fn real_reconfig_survives_evict_during_join_schedules() {
    // A join's ticket carries the generation read before its admission is
    // staged, so a slot evicted once that admission applies leaves the
    // ticket stale. One preemption, inside `join`, reaches that window:
    // with the generation read after staging, DFS at bound 1 finds the
    // shared generation within 2.5k-12.2k schedules on every backend, and
    // bound 2 spends its first 30k elsewhere.
    let opts = ExploreOptions {
        max_schedules: 15_000,
        preemption_bound: Some(1),
        ..reconfig_pass_opts()
    };
    for backend in BackendKind::ALL {
        must_survive(fuzzy_check::evict_during_join(backend), opts);
    }
}

#[test]
fn net_skip_round_forged_release_is_caught() {
    // The transport forges rounds 1.. from the round-0 signal, so an
    // endpoint releases knowing only that its immediate predecessor
    // arrived. At three endpoints the very first sequential order already
    // lets rank 1 release while rank 2 has not begun: no deadlock, no
    // panic — only the ledger's cross-mesh fuzzy check can see it.
    use fuzzy_check::mutants::MutantNetSkipRound;
    use fuzzy_check::net_round_with;
    use fuzzy_net::{LoopbackMesh, NetBarrier, NetConfig};
    let scenario = net_round_with("mutant/net-skip-round", 3, 1, move || {
        let mesh = LoopbackMesh::new(3);
        mesh.endpoints()
            .into_iter()
            .map(|t| {
                NetBarrier::<ShadowSync>::start_in(
                    Arc::new(MutantNetSkipRound::new(Arc::new(t))),
                    NetConfig::new()
                        .policy(fuzzy_barrier::StallPolicy::Spin)
                        .round_timeout(None),
                ) as Arc<dyn SplitBarrier>
            })
            .collect()
    });
    must_catch(scenario, opts(1), is_fuzzy_violation);
}

#[test]
fn real_net_barrier_survives_the_skip_round_schedule_space() {
    // The same mesh shape over the *real* transport must stay clean: the
    // per-round inbound waits are exactly what the mutant short-circuits.
    let options = ExploreOptions {
        max_schedules: 5_000,
        step_limit: 20_000,
        preemption_bound: Some(1),
    };
    must_survive(fuzzy_check::net_round(3, 1), options);
}
