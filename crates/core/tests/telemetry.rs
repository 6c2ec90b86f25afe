//! Integration tests for the telemetry layer: every backend and wrapper
//! conserves its counts through the per-participant cell fold,
//! per-participant counters attribute work correctly, and the
//! dissemination barrier survives a non-power-of-two episode stress.

use fuzzy_barrier::reconfig::ReconfigBarrier;
use fuzzy_barrier::stats::SPREAD_SAMPLE_PERIOD;
use fuzzy_barrier::{
    CentralBarrier, CountingBarrier, DisseminationBarrier, FuzzyBarrier, HierBarrier, SplitBarrier,
    StallPolicy, TelemetrySnapshot, TreeBarrier,
};
use std::sync::Arc;
use std::time::Duration;

/// A small asymmetric barrier region, so some participants arrive late
/// and others stall.
fn region(id: usize) {
    let mut acc = 0u64;
    for i in 0..(id as u64 * 120) {
        acc = acc.wrapping_add(i);
    }
    std::hint::black_box(acc);
}

fn run_schedule(b: &dyn SplitBarrier, n: usize, episodes: u64) {
    std::thread::scope(|s| {
        for id in 0..n {
            s.spawn(move || {
                for _ in 0..episodes {
                    let t = b.arrive(id);
                    region(id);
                    b.wait(t);
                }
            });
        }
    });
}

/// What `n` participants following the protocol for `episodes` episodes
/// must read back, whichever cells and whichever completer recorded it:
/// nothing lost, nothing counted twice.
fn assert_conserved(name: &str, t: &TelemetrySnapshot, n: usize, episodes: u64) {
    let what = format!("{name} n={n}");
    assert_eq!(t.base.episodes, episodes, "{what}");
    assert_eq!(t.base.arrivals, episodes * n as u64, "{what}");
    assert_eq!(t.base.waits, episodes * n as u64, "{what}");
    assert_eq!(
        t.stall_hist.total(),
        t.base.stalls + t.base.timeouts,
        "{what}"
    );
    // The rows sum to the totals, field by field; participants beyond `n`
    // (spare reconfiguration slots) stay zero.
    let rows = &t.per_participant;
    assert!(rows.len() >= n, "{what}");
    let sum = |f: fn(&fuzzy_barrier::ParticipantSnapshot) -> u64| rows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|p| p.arrivals), t.base.arrivals, "{what}");
    assert_eq!(sum(|p| p.waits), t.base.waits, "{what}");
    assert_eq!(sum(|p| p.stalls), t.base.stalls, "{what}");
    assert_eq!(sum(|p| p.probes), t.base.probes, "{what}");
    assert_eq!(
        rows.iter().map(|p| p.stall_time).sum::<Duration>(),
        t.base.stall_time,
        "{what}"
    );
    for (id, p) in rows.iter().enumerate() {
        let expect = if id < n { episodes } else { 0 };
        assert_eq!(p.arrivals, expect, "{what} participant {id}");
        assert_eq!(p.waits, expect, "{what} participant {id}");
    }
    // The last episode of every full period is sampled.
    assert_eq!(t.spread.episodes, episodes / SPREAD_SAMPLE_PERIOD, "{what}");
    assert!(t.spread.max >= t.spread.mean(), "{what}");
    assert!(t.spread.max >= t.spread.last, "{what}");
}

const CONSERVATION_SIZES: [usize; 5] = [1, 2, 3, 4, 8];
const CONSERVATION_EPISODES: u64 = 150;

/// Every backend must report the same `episodes`, `arrivals` and `waits`
/// for the same protocol-following schedule, in both the flat snapshot and
/// the telemetry snapshot, with the per-participant rows adding up.
#[test]
fn all_backends_report_identical_episode_and_arrival_counts() {
    let episodes = CONSERVATION_EPISODES;
    for n in CONSERVATION_SIZES {
        let yielding = StallPolicy::default();
        let backends: Vec<(&str, Box<dyn SplitBarrier>)> = vec![
            ("central", Box::new(CentralBarrier::new(n))),
            ("counting", Box::new(CountingBarrier::new(n))),
            ("dissemination", Box::new(DisseminationBarrier::new(n))),
            ("tree", Box::new(TreeBarrier::new(n))),
            ("hier", Box::new(HierBarrier::new(n))),
            ("hier/2", Box::new(HierBarrier::with_shards(n, 2, yielding))),
            ("fuzzy", Box::new(FuzzyBarrier::new(n))),
        ];
        for (name, b) in &backends {
            run_schedule(&**b, n, episodes);
            let t = b.telemetry();
            assert_conserved(name, &t, n, episodes);
            assert_eq!(t.base, b.stats(), "{name}: telemetry base != stats()");
            assert_eq!(t.per_participant.len(), n, "{name}");
        }
    }
}

/// The same conservation through the reconfigurable wrapper, whose own
/// statistics are indexed by slot and record the boundary install as the
/// episode.
#[test]
fn reconfig_wrapper_conserves_counts_through_the_cell_fold() {
    let episodes = CONSERVATION_EPISODES;
    for n in CONSERVATION_SIZES {
        // One spare slot: its row must stay zero.
        let (barrier, handles) = ReconfigBarrier::new(n + 1, n, |m| {
            Arc::new(CentralBarrier::with_policy(m, StallPolicy::default()))
        });
        let barrier = &barrier;
        std::thread::scope(|s| {
            for handle in handles {
                s.spawn(move || {
                    for e in 0..episodes {
                        let token = barrier.arrive(&handle).expect("live member");
                        region(handle.slot());
                        let outcome = barrier.wait(token);
                        assert_eq!(outcome.episode, e);
                    }
                });
            }
        });
        let t = barrier.telemetry();
        assert_conserved("reconfig", &t, n, episodes);
        assert_eq!(t.base, barrier.stats());
        assert_eq!(t.per_participant.len(), n + 1);
    }
}

/// Repeated-episode stress at participant counts that are NOT powers of
/// two: the dissemination wrap-around partner math (`(i + 2^r) mod n`)
/// must stay correct across many episode reuses of the same flag slots.
#[test]
fn dissemination_non_power_of_two_episode_stress() {
    for n in [3usize, 5, 6, 7, 11] {
        let episodes = 600u64;
        let b = Arc::new(DisseminationBarrier::with_policy(n, StallPolicy::default()));
        std::thread::scope(|s| {
            for id in 0..n {
                let b = Arc::clone(&b);
                s.spawn(move || {
                    for e in 0..episodes {
                        let t = b.arrive(id);
                        // Jitter the region length per (id, episode) so the
                        // arrival order keeps changing.
                        let mut acc = 0u64;
                        for i in 0..((id as u64 + e) % 17) * 40 {
                            acc = acc.wrapping_add(i);
                        }
                        std::hint::black_box(acc);
                        let o = b.wait(t);
                        assert_eq!(o.episode, e, "n={n} id={id}");
                    }
                });
            }
        });
        let t = b.telemetry();
        assert_eq!(t.base.episodes, episodes, "n={n}");
        assert_eq!(t.base.arrivals, episodes * n as u64, "n={n}");
        for (id, p) in t.per_participant.iter().enumerate() {
            assert_eq!(p.arrivals, episodes, "n={n} id={id}");
        }
    }
}

/// The trait's default `telemetry()` (used by backends without native
/// telemetry) must still carry the flat counters.
#[test]
fn default_telemetry_wraps_stats() {
    struct Flat(CentralBarrier);
    impl SplitBarrier for Flat {
        fn arrive(&self, id: usize) -> fuzzy_barrier::ArrivalToken {
            self.0.arrive(id)
        }
        fn is_complete(&self, token: &fuzzy_barrier::ArrivalToken) -> bool {
            self.0.is_complete(token)
        }
        fn wait_deadline(
            &self,
            token: fuzzy_barrier::ArrivalToken,
            deadline: fuzzy_barrier::Deadline,
        ) -> Result<fuzzy_barrier::WaitOutcome, fuzzy_barrier::BarrierError> {
            self.0.wait_deadline(token, deadline)
        }
        fn poison(&self) {
            self.0.poison();
        }
        fn clear_poison(&self) {
            self.0.clear_poison();
        }
        fn is_poisoned(&self) -> bool {
            self.0.is_poisoned()
        }
        fn participants(&self) -> usize {
            self.0.participants()
        }
        fn stats(&self) -> fuzzy_barrier::StatsSnapshot {
            self.0.stats()
        }
        // telemetry() deliberately not overridden.
    }
    let b = Flat(CentralBarrier::new(1));
    for _ in 0..5 {
        let t = b.arrive(0);
        b.wait(t);
    }
    let t = b.telemetry();
    assert_eq!(t.base.episodes, 5);
    assert!(t.stall_hist.is_empty());
    assert!(t.per_participant.is_empty());
}
