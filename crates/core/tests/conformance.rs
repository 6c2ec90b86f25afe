//! The contract every shared-memory backend gets from the episode core
//! (`fuzzy_barrier::episode`), checked once over a table of every backend
//! and shape instead of in uneven per-backend copies: id validation,
//! episode order, phase separation, the timeout → evict → resynchronise
//! story, poison, the derived `wait` and `abort`, the eviction guard's
//! error order, a removed participant's admission back — and the guard
//! under concurrent evictions, which it must serialise. The `async/*` rows
//! put the same contract through a wrapper that overrides what `wait` and
//! `abort` are derived from, and the `subset/*` rows through the tagged,
//! masked wrapper that forwards everything by rank.
//! What is specific to one backend (tree shapes, ghost pre-payment, shard
//! death, …) stays in that backend's own unit tests.

use fuzzy_barrier::{
    ArrivalToken, AsyncBarrier, Barrier, BarrierError, CentralBarrier, CountingBarrier, Cx,
    Deadline, DisseminationBarrier, FlatProtocol, HierBarrier, Protocol, RealSync, SplitBarrier,
    StallPolicy, SubsetBarrier, Tag, TreeBarrier,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

type Build = fn(usize, StallPolicy) -> Arc<dyn SplitBarrier>;

/// The worked example of DESIGN.md §17 and the README: a whole backend
/// written against the public `Protocol` trait, outside the crate. One
/// arrival word per participant, written only by its owner; a waiter scans
/// them. Its row in [`SHAPES`] puts it through the same contract — and the
/// same concurrent evictions — as the five stock backends.
#[derive(Debug)]
struct Flags {
    /// `arrived[id]`: episodes participant `id` has arrived for.
    arrived: Vec<AtomicU64>,
    /// Episodes whose completion has been recorded.
    recorded: AtomicU64,
}

impl Protocol<RealSync> for Flags {
    fn arrive(&self, id: usize, episode: u64, _cx: &Cx<'_, RealSync>) {
        // Release: pairs with the scan's Acquire, carrying this
        // participant's pre-arrival writes to whoever sees it arrived.
        self.arrived[id].store(episode + 1, Ordering::Release);
    }

    fn released(&self, _id: usize, episode: u64, cx: &Cx<'_, RealSync>) -> bool {
        // Monotone: arrival words only grow, and a window only changes for
        // episodes nobody has probed yet.
        let all = (0..self.arrived.len()).all(|peer| {
            self.arrived[peer].load(Ordering::Acquire) > episode || !cx.is_member(peer, episode)
        });
        if all && self.recorded.fetch_max(episode + 1, Ordering::AcqRel) <= episode {
            // First to see it complete. The prober has not arrived for
            // `episode + 1`, so nobody reaches `episode + 2` before it does.
            cx.record_episode(episode);
            cx.admit_staged(self, || episode + 2);
        }
        all
    }

    /// Nothing to do: the window the core closed is the stand-in — every
    /// scan skips a removed participant from then on.
    fn retire(&self, _id: usize, _cx: &Cx<'_, RealSync>) {}

    /// Nothing to do either: the window the core opens brings the joiner
    /// back into every scan from its first episode on.
    fn admit(&self, _id: usize, _cx: &Cx<'_, RealSync>) {}
}

impl FlatProtocol<RealSync> for Flags {
    fn for_participants(n: usize) -> Self {
        Flags {
            arrived: (0..n).map(|_| AtomicU64::new(0)).collect(),
            recorded: AtomicU64::new(0),
        }
    }
}

/// Every backend and shape: tree fan-ins 2, 3 and 4; hier at shard size 1 (a
/// pure tree over shards), 2 and ≥ n (one centralized shard); the worked
/// example; and the async frontend and the subset wrapper, driven through
/// the sync trait only, each over a uniform-release and a cooperative
/// backend.
const SHAPES: &[(&str, Build)] = &[
    ("central", |n, p| {
        Arc::new(CentralBarrier::with_policy(n, p))
    }),
    ("counting", |n, p| {
        Arc::new(CountingBarrier::with_policy(n, p))
    }),
    ("dissemination", |n, p| {
        Arc::new(DisseminationBarrier::with_policy(n, p))
    }),
    ("tree/k2", |n, p| {
        Arc::new(TreeBarrier::with_fan_in(n, 2, p))
    }),
    ("tree/k3", |n, p| {
        Arc::new(TreeBarrier::with_fan_in(n, 3, p))
    }),
    ("tree/k4", |n, p| {
        Arc::new(TreeBarrier::with_fan_in(n, 4, p))
    }),
    ("hier/s1", |n, p| {
        Arc::new(HierBarrier::with_shards(n, 1, p))
    }),
    ("hier/s2", |n, p| {
        Arc::new(HierBarrier::with_shards(n, 2, p))
    }),
    ("hier/sn", |n, p| {
        Arc::new(HierBarrier::with_shards(n, usize::MAX, p))
    }),
    ("example/flags", |n, p| {
        Arc::new(Barrier::<Flags>::with_policy(n, p))
    }),
    ("async/central", |n, p| {
        Arc::new(AsyncBarrier::new(CentralBarrier::with_policy(n, p)))
    }),
    ("async/dissemination", |n, p| {
        Arc::new(AsyncBarrier::new(DisseminationBarrier::with_policy(n, p)))
    }),
    ("subset/central", |n, p| {
        on_odd_ids(CentralBarrier::with_policy(n, p))
    }),
    ("subset/dissemination", |n, p| {
        on_odd_ids(DisseminationBarrier::with_policy(n, p))
    }),
];

/// A subset barrier over `inner` on the odd global ids `1, 3, 5, …`, so
/// that no participant's global id is its rank; each id's credential is
/// checked for the rank the contract then drives. The inner barrier is
/// built by the caller, first: a zero-participant row panics with its
/// message.
fn on_odd_ids(inner: impl SplitBarrier + 'static) -> Arc<dyn SplitBarrier> {
    let n = inner.participants();
    let tag = Tag::new(5).expect("non-zero");
    let b = SubsetBarrier::from_backend(tag, (0..n).map(|r| 2 * r + 1).collect(), inner)
        .expect("one id per rank");
    for rank in 0..n {
        assert_eq!(b.rank(2 * rank + 1, tag), Ok(rank));
    }
    Arc::new(b)
}

/// Runs `check` on a fresh `n`-participant barrier of every shape. The
/// host has two cores, so threaded checks wait with a yielding policy.
fn for_each_shape(n: usize, check: impl Fn(&str, Arc<dyn SplitBarrier>)) {
    for (name, build) in SHAPES {
        check(name, build(n, StallPolicy::yielding()));
    }
}

/// The message `f` panics with; fails if it returns.
fn panic_message(what: &str, f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err(what);
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
        .unwrap_or_default()
}

/// Probes the tokens round-robin until every one reports completion. A
/// cooperative backend (dissemination) advances a participant's rounds
/// only inside that participant's own probes, so a single thread standing
/// in for all of
/// them must keep sweeping; a complete episode is found within a few
/// sweeps on every backend.
fn probe_until_complete(name: &str, b: &dyn SplitBarrier, tokens: &[ArrivalToken]) {
    for _sweep in 0..64 {
        // Every token is probed on every sweep: no short circuit.
        if tokens.iter().filter(|t| !b.is_complete(t)).count() == 0 {
            return;
        }
    }
    panic!("{name}: episode did not complete for {tokens:?}");
}

#[test]
fn zero_participants_panics() {
    for (name, build) in SHAPES {
        let message = panic_message(name, || drop(build(0, StallPolicy::Spin)));
        assert!(message.contains("at least one participant"), "{name}");
    }
}

#[test]
fn out_of_range_id_panics() {
    for_each_shape(2, |name, b| {
        let message = panic_message(name, || drop(b.arrive(2)));
        assert!(message.contains("out of range"), "{name}: {message}");
    });
}

#[test]
fn episodes_advance_in_order() {
    for n in [1, 2, 3, 5] {
        for_each_shape(n, |name, b| {
            // Single-threaded full rotation: everyone arrives, then
            // everyone waits (the fuzzy split — no arrive may block).
            for e in 0..5u64 {
                let tokens: Vec<_> = (0..n).map(|id| b.arrive(id)).collect();
                probe_until_complete(name, &*b, &tokens);
                for t in tokens {
                    assert_eq!(t.episode(), e, "{name} n={n}");
                    let o = b.wait(t);
                    assert_eq!(o.episode, e, "{name} n={n}");
                    assert!(!o.stalled, "{name} n={n}");
                }
            }
            let s = b.stats();
            assert_eq!(s.episodes, 5, "{name} n={n}");
            assert_eq!(s.arrivals, 5 * n as u64, "{name} n={n}");
            assert_eq!(s.waits, 5 * n as u64, "{name} n={n}");
        });
    }
}

#[test]
fn phases_are_separated_with_real_data() {
    // Writer/reader pairs: each thread writes its cell before the barrier
    // and reads its neighbour's after; the value must always be the
    // neighbour's write from the same phase. n = 5 with shards of 2 puts
    // the neighbours of ids 1, 3 and 4 in another shard.
    let n = 5;
    for_each_shape(n, |name, b| {
        let cells: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for id in 0..n {
                let (b, cells) = (&b, &cells);
                s.spawn(move || {
                    for phase in 1..=200u64 {
                        cells[id].store(phase, Ordering::Release);
                        let t = b.arrive(id);
                        b.wait(t);
                        let neighbour = cells[(id + 1) % n].load(Ordering::Acquire);
                        assert!(
                            neighbour >= phase,
                            "{name}: participant {id} saw stale phase {neighbour} < {phase}"
                        );
                        // A second barrier keeps phases from overlapping
                        // the next store.
                        let t = b.arrive(id);
                        b.wait(t);
                    }
                });
            }
        });
    });
}

#[test]
fn straggler_times_out_then_eviction_recovers() {
    // The headline fault story: participant 4 permanently stalls before
    // arriving. Peers no longer deadlock — they observe a Timeout within
    // their deadline, the straggler is evicted, and the survivors
    // complete the next episode. With shards of 2 (and of 1) the
    // straggler is its shard's sole member, so its shard dies with it.
    let n = 5;
    for_each_shape(n, |name, b| {
        std::thread::scope(|s| {
            for id in 0..n - 1 {
                let b = &b;
                s.spawn(move || {
                    let t = b.arrive(id);
                    let err = b
                        .wait_deadline(t, Deadline::after(Duration::from_millis(30)))
                        .unwrap_err();
                    assert_eq!(err, BarrierError::Timeout { episode: 0 }, "{name}");
                });
            }
        });
        // Evict the straggler: its stand-in arrival completes episode 0,
        // which a retry probe observes without any further waiting.
        b.evict(n - 1).unwrap();
        let retry: Vec<_> = (0..n - 1).map(|id| ArrivalToken::new(id, 0)).collect();
        probe_until_complete(name, &*b, &retry);
        // Survivors re-synchronize on the next episode.
        std::thread::scope(|s| {
            for id in 0..n - 1 {
                let b = &b;
                s.spawn(move || {
                    let t = b.arrive(id);
                    assert_eq!(b.wait(t).episode, 1, "{name}");
                });
            }
        });
        let stats = b.stats();
        assert_eq!(stats.timeouts, 4, "{name}");
        assert_eq!(stats.evictions, 1, "{name}");
        assert_eq!(stats.episodes, 2, "{name}");
    });
}

#[test]
fn poison_releases_an_unbounded_deadline_waiter() {
    for_each_shape(2, |name, b| {
        std::thread::scope(|s| {
            let b0 = &b;
            s.spawn(move || {
                let t = b0.arrive(0);
                let err = b0.wait_deadline(t, Deadline::never()).unwrap_err();
                assert_eq!(err, BarrierError::Poisoned { episode: 0 }, "{name}");
            });
            std::thread::sleep(Duration::from_millis(5));
            b.poison();
        });
        assert!(b.is_poisoned(), "{name}");
        assert_eq!(b.stats().poisonings, 1, "{name}");
        // Recovery: clear the poison, evict the participant that never
        // arrived, and the survivor synchronizes alone from then on.
        b.clear_poison();
        assert!(!b.is_poisoned(), "{name}");
        b.evict(1).unwrap();
        let t = b.arrive(0);
        assert_eq!(b.wait(t).episode, 1, "{name}");
    });
}

#[test]
fn plain_wait_panics_on_poison() {
    for_each_shape(2, |name, b| {
        let t = b.arrive(0);
        b.poison();
        let message = panic_message(name, || {
            let _ = b.wait(t);
        });
        assert!(
            message.contains("use wait_deadline to recover"),
            "{name}: {message}"
        );
    });
}

#[test]
fn abort_consumes_the_token_and_poisons() {
    for_each_shape(2, |name, b| {
        let t = b.arrive(0);
        b.abort(t);
        assert!(b.is_poisoned(), "{name}");
    });
}

#[test]
fn completion_wins_over_poison() {
    for_each_shape(1, |name, b| {
        let t = b.arrive(0); // n == 1: the episode completes immediately
        b.poison();
        let o = b
            .wait_deadline(t, Deadline::never())
            .unwrap_or_else(|e| panic!("{name}: completed episode must win over poison: {e}"));
        assert_eq!(o.episode, 0, "{name}");
    });
}

#[test]
fn evict_guard_error_order() {
    for_each_shape(3, |name, b| {
        assert_eq!(
            b.evict(7).unwrap_err(),
            BarrierError::InvalidParticipant { id: 7, capacity: 3 },
            "{name}"
        );
        b.evict(0).unwrap();
        assert_eq!(
            b.evict(0).unwrap_err(),
            BarrierError::NotAParticipant { id: 0 },
            "{name}"
        );
        b.evict(1).unwrap();
        assert_eq!(b.evict(2).unwrap_err(), BarrierError::EmptyGroup, "{name}");
        // A dead id stays dead however few remain: already-evicted is
        // reported before the empty-group guard.
        assert_eq!(
            b.evict(1).unwrap_err(),
            BarrierError::NotAParticipant { id: 1 },
            "{name}"
        );
        // The lone survivor still synchronizes: its arrival joins the
        // evictees' stand-in arrivals to complete episode 0.
        let t = b.arrive(2);
        assert_eq!(b.wait(t).episode, 0, "{name}");
        assert_eq!(b.stats().evictions, 2, "{name}");
    });
}

#[test]
fn stall_detection_sees_the_late_arriver() {
    for_each_shape(2, |name, b| {
        std::thread::scope(|s| {
            let early = &b;
            s.spawn(move || {
                let t = early.arrive(0);
                assert_eq!(early.wait(t).episode, 0, "{name}");
            });
            let late = &b;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                let t = late.arrive(1);
                // The last arriver completes the episode itself, so it
                // must not stall.
                assert!(!late.wait(t).stalled, "{name}");
            });
        });
        assert!(b.stats().stalls >= 1, "{name}: the early thread stalls");
    });
}

/// A participant removed before episode 0 and admitted back while its
/// peers run is counted from exactly one episode on: one or two past the
/// episode its admission was staged in (the completer's rule, see
/// `Cx::admit_staged`), never earlier. Before every arrival each
/// participant writes its cell, and after every wait it must read the
/// writes of everyone counted in that episode.
#[test]
fn retire_then_admit_round_trip() {
    const N: usize = 4;
    const JOINER: usize = N - 1;
    const EPISODES: u64 = 40;
    const STAGE_AT: u64 = 10;
    for_each_shape(N, |name, b| {
        b.evict(JOINER).unwrap();
        assert!(!b.is_member(JOINER), "{name}");
        let cells: Vec<AtomicU64> = (0..N).map(|_| AtomicU64::new(0)).collect();
        // The joiner's first episode, published once it has arrived.
        let first = AtomicU64::new(u64::MAX);
        std::thread::scope(|s| {
            for id in 0..JOINER {
                let (b, cells, first) = (&b, &cells, &first);
                s.spawn(move || {
                    for e in 0..EPISODES {
                        if id == 0 && e == STAGE_AT {
                            b.admit(JOINER).unwrap();
                            assert!(!b.is_member(JOINER), "{name}: staged, not applied");
                        }
                        cells[id].store(e + 1, Ordering::Release);
                        let t = b.arrive(id);
                        assert_eq!(t.episode(), e, "{name}");
                        assert_eq!(b.wait(t).episode, e, "{name}");
                        for (peer, cell) in cells.iter().enumerate() {
                            if peer == JOINER && e < first.load(Ordering::Acquire) {
                                continue;
                            }
                            assert!(
                                cell.load(Ordering::Acquire) > e,
                                "{name}: {id} left episode {e} before {peer} arrived"
                            );
                        }
                    }
                });
            }
            let (b, cells, first) = (&b, &cells, &first);
            s.spawn(move || {
                while !b.is_member(JOINER) {
                    std::thread::yield_now();
                }
                // Its first episode is not known before it arrives: a
                // value no episode exceeds stands for that write.
                cells[JOINER].store(EPISODES, Ordering::Release);
                let mut t = b.arrive(JOINER);
                let f = t.episode();
                first.store(f, Ordering::Release);
                assert!(
                    (STAGE_AT + 1..=STAGE_AT + 2).contains(&f),
                    "{name}: admitted into episode {f}, staged in {STAGE_AT}"
                );
                loop {
                    let e = b.wait(t).episode;
                    for cell in &cells[..JOINER] {
                        assert!(cell.load(Ordering::Acquire) > e, "{name}");
                    }
                    if e + 1 == EPISODES {
                        break;
                    }
                    cells[JOINER].store(e + 2, Ordering::Release);
                    t = b.arrive(JOINER);
                    assert_eq!(t.episode(), e + 1, "{name}");
                }
            });
        });
        assert!(b.is_member(JOINER), "{name}");
        let s = b.stats();
        assert_eq!((s.episodes, s.evictions), (EPISODES, 1), "{name}");
        // The window closes again: the joiner leaves, the others go on.
        b.evict(JOINER).unwrap();
        assert!(!b.is_member(JOINER), "{name}");
        let tokens: Vec<_> = (0..JOINER).map(|id| b.arrive(id)).collect();
        probe_until_complete(name, &*b, &tokens);
    });
}

/// A joiner removed after its admission applied but before its first
/// episode. Where the window has not begun (counting, whose completer
/// admits two episodes ahead) the removal is refused until it has;
/// elsewhere it goes through. Either way no survivor leaves an episode
/// before its peer has arrived: a stand-in must never land in an episode
/// that does not count the joiner.
#[test]
fn evicting_an_admitted_joiner_before_its_first_episode() {
    const JOINER: usize = 2;
    for_each_shape(3, |name, b| {
        b.evict(JOINER).unwrap();
        b.admit(JOINER).unwrap();
        // Episode 0's completer applies the admission.
        let tokens = [b.arrive(0), b.arrive(1)];
        probe_until_complete(name, &*b, &tokens);
        let mut removed_in = None;
        for e in 1..4u64 {
            if removed_in.is_none() {
                match b.evict(JOINER) {
                    Ok(()) => removed_in = Some(e),
                    Err(BarrierError::NotAParticipant { id: JOINER }) => {}
                    Err(err) => panic!("{name}: {err}"),
                }
            }
            let t0 = b.arrive(0);
            assert_eq!(t0.episode(), e, "{name}");
            assert!(
                !b.is_complete(&t0),
                "{name}: episode {e} left before 1 arrived"
            );
            let t1 = b.arrive(1);
            probe_until_complete(name, &*b, &[t0, t1]);
        }
        assert!(
            removed_in.is_some_and(|e| e <= 2),
            "{name}: removed in {removed_in:?}"
        );
        assert!(!b.is_member(JOINER), "{name}");
        assert_eq!(b.stats().evictions, 2, "{name}");
    });
}

/// A waker that counts its wakes.
struct Count(AtomicUsize);

impl std::task::Wake for Count {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

impl Count {
    fn new() -> (Arc<Count>, std::task::Waker) {
        let count = Arc::new(Count(AtomicUsize::new(0)));
        let waker = std::task::Waker::from(Arc::clone(&count));
        (count, waker)
    }

    fn woken(&self) -> usize {
        self.0.load(Ordering::Relaxed)
    }
}

/// A waker parked through `register_waker` for the episode in flight is
/// woken by its completion, and again, once re-registered, by poison.
/// Barriers without a release word (dissemination, the worked example,
/// the async frontend) say false.
#[test]
fn a_parked_waker_is_woken_by_the_next_completion_and_by_poison() {
    for_each_shape(2, |name, b| {
        let (count, waker) = Count::new();
        let parks = b.register_waker(0, 0, &waker);
        assert_eq!(parks, b.release_epoch().is_some(), "{name}");
        if !parks {
            return;
        }
        let t0 = b.arrive(0);
        assert_eq!(count.woken(), 0, "{name}: nothing completed yet");
        let t1 = b.arrive(1);
        assert_eq!(count.woken(), 1, "{name}: the completer wakes once");
        probe_until_complete(name, &*b, &[t0, t1]);
        assert!(b.register_waker(0, 1, &waker), "{name}");
        b.poison();
        assert_eq!(count.woken(), 2, "{name}: poison wakes too");
    });
}

/// The completer of episode *e* wakes the wakers parked for *e* and keeps
/// the one parked for *e + 1*, which *e + 1*'s completer wakes.
#[test]
fn a_waker_parked_for_the_next_episode_sleeps_through_this_one() {
    for_each_shape(2, |name, b| {
        let (early, early_waker) = Count::new();
        let (now, now_waker) = Count::new();
        if !b.register_waker(0, 1, &early_waker) {
            return;
        }
        assert!(b.register_waker(1, 0, &now_waker), "{name}");
        let tokens = [b.arrive(0), b.arrive(1)];
        probe_until_complete(name, &*b, &tokens);
        assert_eq!((early.woken(), now.woken()), (0, 1), "{name}: episode 0");
        let tokens = [b.arrive(0), b.arrive(1)];
        probe_until_complete(name, &*b, &tokens);
        assert_eq!((early.woken(), now.woken()), (1, 1), "{name}: episode 1");
    });
}

/// A `ReconfigFuture` re-polled while its episode is open keeps one entry:
/// the completion wakes its task once, however often it was polled.
#[test]
fn a_reconfig_future_polled_a_thousand_times_is_woken_once() {
    use fuzzy_barrier::ReconfigBarrier;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::Context;
    for (name, build) in SHAPES {
        if build(2, StallPolicy::Spin).release_epoch().is_none() {
            continue;
        }
        let (group, handles) = ReconfigBarrier::new(2, 2, |n| build(n, StallPolicy::yielding()));
        let group = Arc::new(group);
        let (count, waker) = Count::new();
        let mut cx = Context::from_waker(&waker);
        let mut future = group.wait_future(group.arrive(&handles[0]).expect("a member"));
        for _ in 0..1_000 {
            assert!(Pin::new(&mut future).poll(&mut cx).is_pending(), "{name}");
        }
        assert_eq!(count.woken(), 0, "{name}");
        let last = group.arrive(&handles[1]).expect("a member");
        assert_eq!(count.woken(), 1, "{name}: one entry, one wake");
        assert!(Pin::new(&mut future).poll(&mut cx).is_ready(), "{name}");
        assert_eq!(group.wait(&last).expect("released").episode, 0, "{name}");
    }
}

/// The trait's default refuses an admission, whatever the id, and the
/// `Arc` blanket impl forwards `admit` and `is_member` to the backend.
#[test]
fn admit_defaults_and_forwarding() {
    struct Fixed(CentralBarrier);
    impl SplitBarrier for Fixed {
        fn arrive(&self, id: usize) -> ArrivalToken {
            self.0.arrive(id)
        }
        fn is_complete(&self, token: &ArrivalToken) -> bool {
            self.0.is_complete(token)
        }
        fn wait_deadline(
            &self,
            token: ArrivalToken,
            deadline: Deadline,
        ) -> Result<fuzzy_barrier::WaitOutcome, BarrierError> {
            self.0.wait_deadline(token, deadline)
        }
        fn poison(&self) {}
        fn clear_poison(&self) {}
        fn is_poisoned(&self) -> bool {
            false
        }
        fn participants(&self) -> usize {
            self.0.participants()
        }
        fn stats(&self) -> fuzzy_barrier::StatsSnapshot {
            self.0.stats()
        }
    }
    let fixed = Arc::new(Fixed(CentralBarrier::new(2)));
    assert_eq!(fixed.admit(1), Err(BarrierError::AdmitUnsupported));
    assert!(fixed.is_member(1) && !fixed.is_member(2));

    let b = Arc::new(CentralBarrier::new(2));
    b.evict(1).unwrap();
    assert!(!SplitBarrier::is_member(&b, 1));
    assert_eq!(
        SplitBarrier::admit(&b, 2),
        Err(BarrierError::InvalidParticipant { id: 2, capacity: 2 })
    );
    SplitBarrier::admit(&b, 1).unwrap();
    let t = b.arrive(0);
    assert_eq!(b.wait(t).episode, 0);
    assert!(
        SplitBarrier::is_member(&b, 1),
        "the completer of 0 admitted 1"
    );
    let tokens = [b.arrive(0), b.arrive(1)];
    assert_eq!(tokens[1].episode(), 1);
    probe_until_complete("arc/central", &*b, &tokens);
}

/// `leave` is the core's, so every backend has it: the departure counts as
/// the leaver's arrival for the in-flight episode and shrinks later ones.
fn check_leave<P: Protocol<RealSync>>(name: &str, b: &Barrier<P>) {
    let tokens = [b.arrive(0), b.arrive(1)];
    assert!(!b.is_complete(&tokens[0]), "{name}: 2 has not arrived");
    b.leave(2);
    assert_eq!(b.remaining_participants(), 2, "{name}");
    probe_until_complete(name, b, &tokens);
    for t in tokens {
        assert_eq!(b.wait(t).episode, 0, "{name}");
    }
    for e in 1..4 {
        let tokens = [b.arrive(0), b.arrive(1)];
        probe_until_complete(name, b, &tokens);
        for t in tokens {
            assert_eq!(b.wait(t).episode, e, "{name}");
        }
    }
    let s = b.stats();
    assert_eq!((s.episodes, s.arrivals, s.evictions), (4, 9, 0), "{name}");
    let message = panic_message(name, || b.leave(2));
    assert!(message.contains("cannot leave"), "{name}: {message}");
}

#[test]
fn leave_counts_as_an_arrival_and_shrinks_the_barrier() {
    let p = StallPolicy::yielding();
    check_leave("central", &CentralBarrier::with_policy(3, p));
    check_leave("counting", &CountingBarrier::with_policy(3, p));
    check_leave("dissemination", &DisseminationBarrier::with_policy(3, p));
    check_leave("tree", &TreeBarrier::with_fan_in(3, 2, p));
    check_leave("example/flags", &Barrier::<Flags>::with_policy(3, p));
    check_leave("hier", &HierBarrier::with_shards(3, 2, p));
}

/// Regression: the eviction guard under concurrent evictions. All `n`
/// members evict themselves at once, `ROUNDS` times per shape; the guard
/// must let exactly `n − 1` of them through, whatever the interleaving,
/// and the survivor must then complete the in-flight episode alone. The
/// check-then-act guard this replaces let two evictors each see a survivor
/// in the other: both returned `Ok` and emptied the barrier (central,
/// dissemination, hier), the tree's walk hit its `unreachable!`, and
/// counting's ghost pre-payment looped forever.
#[test]
fn concurrent_self_evictions_leave_exactly_one_survivor() {
    const ROUNDS: usize = 20_000;
    // Barriers are built a chunk at a time so the threads of a chunk race
    // through its rounds with nothing but a spin gate between them.
    const CHUNK: usize = 500;
    let (done, watchdog) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        for n in [2usize, 4] {
            for (name, build) in SHAPES {
                for _chunk in 0..ROUNDS / CHUNK {
                    self_eviction_chunk(name, n, *build, CHUNK);
                }
            }
        }
        done.send(()).unwrap();
    });
    // A hang is a failure too, not a stuck test run.
    watchdog
        .recv_timeout(Duration::from_secs(300))
        .expect("concurrent evictions wedged or panicked (see above)");
}

fn self_eviction_chunk(name: &str, n: usize, build: Build, rounds: usize) {
    let barriers: Vec<_> = (0..rounds)
        .map(|_| build(n, StallPolicy::yielding()))
        .collect();
    let gate = AtomicUsize::new(0);
    let results: Vec<Vec<Result<(), BarrierError>>> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..n)
            .map(|id| {
                let (barriers, gate) = (&barriers, &gate);
                s.spawn(move || {
                    barriers
                        .iter()
                        .enumerate()
                        .map(|(round, b)| {
                            // Spin-gated start: nobody evicts in this
                            // round until everybody is ready to. A round
                            // takes a few µs, so two threads on two cores
                            // meet inside the spin budget and their
                            // evictions truly overlap; a waiter that has
                            // yielded is in a syscall when the gate opens
                            // and comes too late to race.
                            gate.fetch_add(1, Ordering::AcqRel);
                            let mut spins = 0u32;
                            while gate.load(Ordering::Acquire) < (round + 1) * n {
                                spins += 1;
                                if spins > 512 {
                                    std::thread::yield_now();
                                }
                                std::hint::spin_loop();
                            }
                            b.evict(id)
                        })
                        .collect()
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("no evictor may panic"))
            .collect()
    });
    for (round, b) in barriers.iter().enumerate() {
        let outcomes: Vec<_> = results.iter().map(|per_id| &per_id[round]).collect();
        let survivors: Vec<usize> = (0..n).filter(|&id| outcomes[id].is_err()).collect();
        assert_eq!(
            survivors.len(),
            1,
            "{name} n={n} round {round}: exactly one eviction must be refused: {outcomes:?}"
        );
        let survivor = survivors[0];
        assert_eq!(
            outcomes[survivor],
            &Err(BarrierError::EmptyGroup),
            "{name} n={n} round {round}"
        );
        // Every stand-in arrival is in: the survivor completes the
        // in-flight episode alone.
        let t = b.arrive(survivor);
        assert!(b.is_complete(&t), "{name} n={n} round {round}");
        assert_eq!(b.wait(t).episode, 0, "{name} n={n} round {round}");
        assert_eq!(b.stats().evictions, n as u64 - 1, "{name} n={n}");
    }
}
