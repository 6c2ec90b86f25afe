//! Checkable scenarios: the protocol workloads the explorer drives.
//!
//! Every scenario couples a barrier (instantiated in the [`ShadowSync`]
//! domain) with a **ledger** of real (uninstrumented) atomics that records
//! ground truth about arrivals. The fuzzy-barrier correctness property is
//! checked against the ledger: `wait(token)` returning implies every
//! masked participant's `arrive()` for that episode already executed.
//! Because a thread increments its `begun` counter *immediately before*
//! calling `arrive`, and threads are sequentialized, a completed `arrive`
//! always implies a visible `begun` — the check can never false-positive,
//! and any schedule in which a `wait` returns past a participant that has
//! not even begun is a genuine semantics violation.

use crate::ctx;
use crate::explore::{Job, Scenario, ScheduleRun};
use crate::sched::Defect;
use crate::shadow::{ShadowSync, ShadowU32};
use fuzzy_barrier::sync::{Atomic, SyncOps};
use fuzzy_barrier::{
    AsyncBarrier, BarrierError, CentralBarrier, CountingBarrier, Deadline, DisseminationBarrier,
    GroupRegistry, HierBarrier, JoinTicket, MemberHandle, ProcMask, ReconfigBarrier, SplitBarrier,
    StallPolicy, SubsetBarrier, Tag, TreeBarrier, WaitOutcome,
};
use fuzzy_net::{LoopbackMesh, NetBarrier, NetConfig};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Which backend a protocol scenario exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Sense-reversing centralized counter.
    Central,
    /// Flat epoch-counting barrier.
    Counting,
    /// Dissemination barrier (log₂ n rounds).
    Dissemination,
    /// Combining tree, fan-in 2.
    Tree,
    /// Hierarchical barrier: arrival shards of two members whose leaders
    /// sign in to a combining tree.
    Hier,
}

impl BackendKind {
    /// All five backends, in canonical order.
    pub const ALL: [BackendKind; 5] = [
        BackendKind::Central,
        BackendKind::Counting,
        BackendKind::Dissemination,
        BackendKind::Tree,
        BackendKind::Hier,
    ];

    /// CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Central => "central",
            BackendKind::Counting => "counting",
            BackendKind::Dissemination => "dissemination",
            BackendKind::Tree => "tree",
            BackendKind::Hier => "hier",
        }
    }

    /// Parses a CLI name.
    #[must_use]
    pub fn parse(s: &str) -> Option<BackendKind> {
        Self::ALL.into_iter().find(|b| b.name() == s)
    }

    /// Builds this backend for `n` participants in the shadow domain.
    #[must_use]
    pub fn build_shadow(self, n: usize) -> Arc<dyn SplitBarrier> {
        // The shadow wait_until ignores the stall policy; Spin documents
        // the intent (no real sleeping inside the checker).
        let policy = StallPolicy::Spin;
        match self {
            BackendKind::Central => {
                Arc::new(CentralBarrier::<ShadowSync>::with_policy_in(n, policy))
            }
            BackendKind::Counting => {
                Arc::new(CountingBarrier::<ShadowSync>::with_policy_in(n, policy))
            }
            BackendKind::Dissemination => Arc::new(
                DisseminationBarrier::<ShadowSync>::with_policy_in(n, policy),
            ),
            BackendKind::Tree => Arc::new(TreeBarrier::<ShadowSync>::with_fan_in_in(n, 2, policy)),
            // Shards of two keep the hierarchy non-trivial (several shards,
            // a real tree root over their leaders) at the small n the
            // explorer can exhaust.
            BackendKind::Hier => Arc::new(HierBarrier::<ShadowSync>::with_shards_in(n, 2, policy)),
        }
    }
}

// ---------------------------------------------------------------------------
// Ledger
// ---------------------------------------------------------------------------

/// Ground-truth arrival record for one barrier, kept in *real* atomics so
/// ledger updates are not themselves scheduling points.
#[derive(Debug)]
pub struct Ledger {
    /// Global thread ids of the barrier's members, in rank order.
    members: Vec<usize>,
    /// `begun[rank]`: episodes this member has *started arriving* for
    /// (incremented immediately before `arrive`).
    begun: Vec<AtomicU64>,
    /// Episode each member is currently waiting for (valid while
    /// `in_wait`).
    wait_target: Vec<AtomicU64>,
    in_wait: Vec<AtomicBool>,
}

impl Ledger {
    /// Creates a ledger for the given members (global thread ids).
    #[must_use]
    pub fn new(members: Vec<usize>) -> Self {
        let n = members.len();
        Ledger {
            members,
            begun: (0..n).map(|_| AtomicU64::new(0)).collect(),
            wait_target: (0..n).map(|_| AtomicU64::new(0)).collect(),
            in_wait: (0..n).map(|_| AtomicBool::new(false)).collect(),
        }
    }

    /// Marks `rank` as beginning its next episode. Call immediately before
    /// `arrive`.
    pub fn begin(&self, rank: usize) {
        self.begun[rank].fetch_add(1, Ordering::Relaxed);
    }

    /// Marks `rank` as entering `wait` for `episode`.
    pub fn enter_wait(&self, rank: usize, episode: u64) {
        self.wait_target[rank].store(episode, Ordering::Relaxed);
        self.in_wait[rank].store(true, Ordering::Relaxed);
    }

    /// Marks `rank` as returned from `wait`.
    pub fn exit_wait(&self, rank: usize) {
        self.in_wait[rank].store(false, Ordering::Relaxed);
    }

    /// Asserts the fuzzy-barrier property after `rank`'s `wait(episode)`
    /// returned: every member must have begun episode `episode` (begun
    /// count > episode). Reports a [`Defect::FuzzyViolation`] otherwise.
    pub fn check_fuzzy(&self, rank: usize, episode: u64) {
        let missing: Vec<usize> = (0..self.members.len())
            .filter(|&j| self.begun[j].load(Ordering::Relaxed) < episode + 1)
            .map(|j| self.members[j])
            .collect();
        if !missing.is_empty() {
            ctx::report(Defect::FuzzyViolation {
                thread: self.members[rank],
                episode,
                missing,
            });
        }
    }

    /// True if global thread `tid` is stuck waiting on this barrier even
    /// though every member already began the awaited episode — i.e. the
    /// release signal was produced and lost.
    fn stuck_despite_full_arrival(&self, tid: usize) -> bool {
        let Some(rank) = self.members.iter().position(|&m| m == tid) else {
            return false;
        };
        if !self.in_wait[rank].load(Ordering::Relaxed) {
            return false;
        }
        let target = self.wait_target[rank].load(Ordering::Relaxed);
        (0..self.members.len()).all(|j| self.begun[j].load(Ordering::Relaxed) > target)
    }
}

/// Upgrades a [`Defect::Deadlock`] to [`Defect::LostWakeup`] when every
/// stuck thread sits in some ledger's wait with its episode fully arrived.
/// Other defects pass through unchanged.
#[must_use]
pub fn classify(ledgers: &[Arc<Ledger>], defect: Option<Defect>) -> Option<Defect> {
    match defect {
        Some(Defect::Deadlock { blocked }) => {
            let all_lost = !blocked.is_empty()
                && blocked
                    .iter()
                    .all(|&t| ledgers.iter().any(|l| l.stuck_despite_full_arrival(t)));
            Some(if all_lost {
                Defect::LostWakeup { blocked }
            } else {
                Defect::Deadlock { blocked }
            })
        }
        other => other,
    }
}

// ---------------------------------------------------------------------------
// Protocol scenario
// ---------------------------------------------------------------------------

/// The core scenario: `n` participants drive `episodes` episodes of the
/// split-phase protocol on a fresh barrier per schedule, with the fuzzy
/// property checked after every `wait`.
///
/// `factory` builds the barrier; use [`protocol`] for the stock backends
/// and pass a mutant factory from tests.
pub fn protocol_with(
    name: impl Into<String>,
    n: usize,
    episodes: u64,
    mut factory: impl FnMut() -> Arc<dyn SplitBarrier> + 'static,
) -> Scenario {
    Scenario {
        name: name.into(),
        threads: n,
        build: Box::new(move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            let ledger = Arc::new(Ledger::new((0..n).collect()));
            let bodies: Vec<Job> = (0..n)
                .map(|id| {
                    let barrier = Arc::clone(&barrier);
                    let ledger = Arc::clone(&ledger);
                    Box::new(move || {
                        protocol_body(&*barrier, &ledger, id, episodes);
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&ledger)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

/// [`protocol_with`] over a stock backend.
#[must_use]
pub fn protocol(backend: BackendKind, n: usize, episodes: u64) -> Scenario {
    protocol_with(
        format!("protocol/{}/n{n}/e{episodes}", backend.name()),
        n,
        episodes,
        move || backend.build_shadow(n),
    )
}

fn protocol_body(barrier: &dyn SplitBarrier, ledger: &Ledger, id: usize, episodes: u64) {
    for e in 0..episodes {
        if ctx::aborted() {
            return;
        }
        ledger.begin(id);
        let token = barrier.arrive(id);
        ledger.enter_wait(id, e);
        let outcome = barrier.wait(token);
        // On abort the drain protocol fakes wait's return; leave the
        // ledger's `in_wait` intact so `classify` sees the stuck state.
        if ctx::aborted() {
            return;
        }
        ledger.exit_wait(id);
        if outcome.episode != e {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!("expected episode {e}, wait returned {}", outcome.episode),
            });
            return;
        }
        ledger.check_fuzzy(id, e);
        if ctx::aborted() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Net-round scenario (distributed NetBarrier over an in-process mesh)
// ---------------------------------------------------------------------------

/// Distributed episode scenario: each virtual thread is one endpoint of a
/// loopback mesh, driving its own [`fuzzy_net::NetBarrier`] (instantiated
/// in the shadow domain) through `episodes` dissemination episodes as the
/// endpoint's sole local participant. Loopback delivery is synchronous, so
/// every frame lands inside some thread's atomic step and the explorer
/// interleaves the endpoints' sends, receives, and releases like any other
/// shared-memory schedule. The ledger checks the fuzzy property *across
/// the mesh*: an endpoint's `wait` may not return before every endpoint's
/// `arrive` for that episode.
///
/// `factory` builds the per-endpoint barriers, in rank order; use
/// [`net_round`] for the real transport+barrier stack and pass a wrapping
/// factory from tests (see `MutantNetSkipRound`).
pub fn net_round_with(
    name: impl Into<String>,
    nodes: usize,
    episodes: u64,
    mut factory: impl FnMut() -> Vec<Arc<dyn SplitBarrier>> + 'static,
) -> Scenario {
    Scenario {
        name: name.into(),
        threads: nodes,
        build: Box::new(move || {
            let barriers = factory();
            assert_eq!(barriers.len(), nodes, "factory/endpoint mismatch");
            let ledger = Arc::new(Ledger::new((0..nodes).collect()));
            let bodies: Vec<Job> = barriers
                .into_iter()
                .enumerate()
                .map(|(rank, barrier)| {
                    let ledger = Arc::clone(&ledger);
                    Box::new(move || {
                        net_round_body(&*barrier, &ledger, rank, episodes);
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&ledger)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

/// [`net_round_with`] over the real loopback transport and `NetBarrier`.
///
/// The recovery machinery (round timeouts, nacks, peer-death declarations)
/// is wall-clock-driven and stays off under the checker: the shadow
/// domain's waits ignore time budgets, `round_timeout` is `None`, and a
/// genuinely lost release surfaces as a deadlock/lost-wakeup defect rather
/// than a masking retransmission.
#[must_use]
pub fn net_round(nodes: usize, episodes: u64) -> Scenario {
    net_round_with(
        format!("net/loopback/n{nodes}/e{episodes}"),
        nodes,
        episodes,
        move || {
            let mesh = LoopbackMesh::new(nodes);
            mesh.endpoints()
                .into_iter()
                .map(|t| {
                    NetBarrier::<ShadowSync>::start_in(
                        Arc::new(t),
                        NetConfig::new()
                            .policy(StallPolicy::Spin)
                            .round_timeout(None),
                    ) as Arc<dyn SplitBarrier>
                })
                .collect()
        },
    )
}

fn net_round_body(barrier: &dyn SplitBarrier, ledger: &Ledger, rank: usize, episodes: u64) {
    for e in 0..episodes {
        if ctx::aborted() {
            return;
        }
        ledger.begin(rank);
        let token = barrier.arrive(0);
        ledger.enter_wait(rank, e);
        // Block at scenario level on `is_complete` rather than inside
        // `wait`: NetBarrier's wait loop re-checks its own predicate
        // around the shadow wait, so the drain protocol's faked wakeups
        // would never unwind it after an abort. `is_complete` also pumps
        // `drive()`, so probing here makes the same protocol progress a
        // real waiter would.
        ShadowSync::wait_until(StallPolicy::Spin, || barrier.is_complete(&token));
        if ctx::aborted() {
            return;
        }
        let outcome = barrier.wait(token);
        ledger.exit_wait(rank);
        if outcome.episode != e {
            ctx::report(Defect::ProtocolError {
                thread: rank,
                message: format!("expected episode {e}, wait returned {}", outcome.episode),
            });
            return;
        }
        ledger.check_fuzzy(rank, e);
        if ctx::aborted() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Subset scenario (masks + tags)
// ---------------------------------------------------------------------------

type Subset = SubsetBarrier<CentralBarrier<ShadowSync>>;

fn subset(tag: u16, mask: &[usize]) -> Arc<Subset> {
    let tag = Tag::new(tag).expect("non-zero tag");
    let mask: ProcMask = mask.iter().copied().collect();
    Arc::new(SubsetBarrier::with_policy_in(tag, mask, StallPolicy::Spin).expect("non-empty mask"))
}

fn report_err(id: usize, what: &str, err: &BarrierError) {
    ctx::report(Defect::ProtocolError {
        thread: id,
        message: format!("{what}: unexpected error {err:?}"),
    });
}

/// Masked/tagged synchronization over every non-empty subset of two
/// participants — each thread synchronizes alone on a private singleton
/// barrier and with its peer on a shared one, presenting tags explicitly.
/// A deliberate wrong-tag arrival checks that the tag-match logic rejects
/// cross-barrier synchronization (the paper's Fig. 6 bug).
#[must_use]
pub fn subset_pair(episodes: u64) -> Scenario {
    Scenario {
        name: format!("subset/pair/e{episodes}"),
        threads: 2,
        build: Box::new(move || {
            let shared = subset(3, &[0, 1]);
            let privates = [subset(1, &[0]), subset(2, &[1])];
            let ledger = Arc::new(Ledger::new(vec![0, 1]));
            let bodies: Vec<Job> = (0..2)
                .map(|id| {
                    let shared = Arc::clone(&shared);
                    let private = Arc::clone(&privates[id]);
                    let ledger = Arc::clone(&ledger);
                    Box::new(move || {
                        subset_pair_body(&shared, &private, &ledger, id, episodes);
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&ledger)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

fn subset_pair_body(shared: &Subset, private: &Subset, ledger: &Ledger, id: usize, episodes: u64) {
    let my_tag = private.tag();
    let shared_tag = shared.tag();
    // Presenting the private tag at the shared barrier must be rejected —
    // tags are what keep Fig. 6's P3-at-B1 from synchronizing with
    // P1-at-B2. The error path touches no shadow state, so this probe is
    // deterministic and free.
    match shared.arrive(id, my_tag) {
        Err(BarrierError::TagMismatch { .. }) => {}
        Ok(_) => {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: "wrong tag accepted by shared barrier".into(),
            });
            return;
        }
        Err(err) => {
            report_err(id, "wrong-tag probe", &err);
            return;
        }
    }
    for e in 0..episodes {
        if ctx::aborted() {
            return;
        }
        // Solo synchronization on the private singleton barrier.
        match private.point(id, my_tag) {
            Ok(outcome) if outcome.episode == e => {}
            Ok(outcome) => {
                ctx::report(Defect::ProtocolError {
                    thread: id,
                    message: format!(
                        "private barrier: expected episode {e}, got {}",
                        outcome.episode
                    ),
                });
                return;
            }
            Err(err) => {
                report_err(id, "private point", &err);
                return;
            }
        }
        if ctx::aborted() {
            return;
        }
        // Shared fuzzy synchronization.
        ledger.begin(id);
        let token = match shared.arrive(id, shared_tag) {
            Ok(t) => t,
            Err(err) => {
                report_err(id, "shared arrive", &err);
                return;
            }
        };
        ledger.enter_wait(id, e);
        let outcome = shared.wait(token);
        if ctx::aborted() {
            return;
        }
        ledger.exit_wait(id);
        if outcome.episode != e {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!(
                    "shared barrier: expected episode {e}, got {}",
                    outcome.episode
                ),
            });
            return;
        }
        ledger.check_fuzzy(id, e);
        if ctx::aborted() {
            return;
        }
    }
}

/// Fig. 6 stream-merge topology: three threads, two *overlapping* masked
/// barriers — A over {0,1}, B over {1,2} — with the middle thread a member
/// of both. The middle thread arrives at both barriers before waiting on
/// either, so its barrier regions overlap and no cross-barrier circular
/// wait is possible; the fuzzy property is asserted per barrier over its
/// own mask.
#[must_use]
pub fn subset_overlap(episodes: u64) -> Scenario {
    Scenario {
        name: format!("subset/overlap/e{episodes}"),
        threads: 3,
        build: Box::new(move || {
            let a = subset(1, &[0, 1]);
            let b = subset(2, &[1, 2]);
            let ledger_a = Arc::new(Ledger::new(vec![0, 1]));
            let ledger_b = Arc::new(Ledger::new(vec![1, 2]));
            let mut bodies: Vec<Job> = Vec::new();
            {
                let a = Arc::clone(&a);
                let ledger_a = Arc::clone(&ledger_a);
                bodies.push(Box::new(move || {
                    edge_body(&a, &ledger_a, 0, 0, episodes);
                }));
            }
            {
                let a = Arc::clone(&a);
                let b = Arc::clone(&b);
                let ledger_a = Arc::clone(&ledger_a);
                let ledger_b = Arc::clone(&ledger_b);
                bodies.push(Box::new(move || {
                    middle_body(&a, &b, &ledger_a, &ledger_b, episodes);
                }));
            }
            {
                let b = Arc::clone(&b);
                let ledger_b = Arc::clone(&ledger_b);
                bodies.push(Box::new(move || {
                    edge_body(&b, &ledger_b, 2, 1, episodes);
                }));
            }
            let ledgers = vec![Arc::clone(&ledger_a), Arc::clone(&ledger_b)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

/// Body for a thread that belongs to exactly one masked barrier.
fn edge_body(barrier: &Subset, ledger: &Ledger, id: usize, rank: usize, episodes: u64) {
    let tag = barrier.tag();
    for e in 0..episodes {
        if ctx::aborted() {
            return;
        }
        ledger.begin(rank);
        let token = match barrier.arrive(id, tag) {
            Ok(t) => t,
            Err(err) => {
                report_err(id, "arrive", &err);
                return;
            }
        };
        ledger.enter_wait(rank, e);
        let outcome = barrier.wait(token);
        if ctx::aborted() {
            return;
        }
        ledger.exit_wait(rank);
        if outcome.episode != e {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!("expected episode {e}, got {}", outcome.episode),
            });
            return;
        }
        ledger.check_fuzzy(rank, e);
        if ctx::aborted() {
            return;
        }
    }
}

/// Body for the thread in both barriers: arrive at both, then wait both.
fn middle_body(a: &Subset, b: &Subset, ledger_a: &Ledger, ledger_b: &Ledger, episodes: u64) {
    let id = 1usize;
    for e in 0..episodes {
        if ctx::aborted() {
            return;
        }
        ledger_a.begin(1);
        let token_a = match a.arrive(id, a.tag()) {
            Ok(t) => t,
            Err(err) => {
                report_err(id, "arrive A", &err);
                return;
            }
        };
        ledger_b.begin(0);
        let token_b = match b.arrive(id, b.tag()) {
            Ok(t) => t,
            Err(err) => {
                report_err(id, "arrive B", &err);
                return;
            }
        };
        ledger_b.enter_wait(0, e);
        let outcome_b = b.wait(token_b);
        if ctx::aborted() {
            return;
        }
        ledger_b.exit_wait(0);
        ledger_a.enter_wait(1, e);
        let outcome_a = a.wait(token_a);
        if ctx::aborted() {
            return;
        }
        ledger_a.exit_wait(1);
        if outcome_a.episode != e || outcome_b.episode != e {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!(
                    "expected episode {e}, got A={} B={}",
                    outcome_a.episode, outcome_b.episode
                ),
            });
            return;
        }
        ledger_b.check_fuzzy(0, e);
        ledger_a.check_fuzzy(1, e);
        if ctx::aborted() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Registry scenario (dynamic streams, N−1 bound, tag reuse)
// ---------------------------------------------------------------------------

/// Two streams against a [`GroupRegistry`] sized for four streams
/// (capacity 3 = N−1): a shared barrier lives for the whole run while each
/// thread repeatedly allocates, synchronizes on, and releases a private
/// singleton barrier under an explicitly reused tag. The N−1 bound
/// (`live_barriers() <= capacity()`) is asserted at every step of every
/// schedule, and after clean runs the `finish` hook fills the registry to
/// capacity and demands `RegistryFull`.
///
/// Registry calls go through a plain mutex (no shadow atomics), so they
/// execute atomically within a thread's scheduling slice — which is why
/// the scenario is written coordination-free: no thread ever retries an
/// allocation in a loop, because a retry could never be woken by a shadow
/// write.
#[must_use]
pub fn registry(episodes: u64) -> Scenario {
    Scenario {
        name: format!("registry/e{episodes}"),
        threads: 2,
        build: Box::new(move || {
            let reg = Arc::new(GroupRegistry::<ShadowSync>::with_policy_in(
                4,
                StallPolicy::Spin,
            ));
            let shared_tag = Tag::new(7).expect("non-zero");
            let shared = reg
                .allocate_tagged(shared_tag, [0, 1].into_iter().collect())
                .expect("fresh registry has room");
            let ledger = Arc::new(Ledger::new(vec![0, 1]));
            let bodies: Vec<Job> = (0..2)
                .map(|id| {
                    let reg = Arc::clone(&reg);
                    let shared = Arc::clone(&shared);
                    let ledger = Arc::clone(&ledger);
                    Box::new(move || {
                        registry_body(&reg, &shared, &ledger, id, episodes);
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&ledger)];
            let reg = Arc::clone(&reg);
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| {
                    let defect = classify(&ledgers, defect);
                    if defect.is_some() {
                        return defect;
                    }
                    registry_capacity_check(&reg)
                }),
            }
        }),
    }
}

fn registry_body(
    reg: &GroupRegistry<ShadowSync>,
    shared: &Subset,
    ledger: &Ledger,
    id: usize,
    episodes: u64,
) {
    let private_tag = Tag::new(10 + id as u16).expect("non-zero");
    let shared_tag = shared.tag();
    for e in 0..episodes {
        if ctx::aborted() {
            return;
        }
        // Allocate a private singleton barrier under an explicitly reused
        // tag. Capacity is 3 (shared + one private per thread), so this
        // must succeed in every interleaving.
        let private = match reg.allocate_tagged(private_tag, ProcMask::single(id)) {
            Ok(b) => b,
            Err(err) => {
                report_err(id, "allocate private", &err);
                return;
            }
        };
        if reg.live_barriers() > reg.capacity() {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!(
                    "N-1 bound violated: {} live barriers > capacity {}",
                    reg.live_barriers(),
                    reg.capacity()
                ),
            });
            return;
        }
        // Solo sync on the private barrier (never blocks: one member).
        // The barrier is freshly allocated each episode, so it always
        // completes *its* episode 0.
        match private.point(id, private_tag) {
            Ok(outcome) if outcome.episode == 0 => {}
            Ok(outcome) => {
                ctx::report(Defect::ProtocolError {
                    thread: id,
                    message: format!(
                        "fresh private barrier completed episode {}",
                        outcome.episode
                    ),
                });
                return;
            }
            Err(err) => {
                report_err(id, "private point", &err);
                return;
            }
        }
        if ctx::aborted() {
            return;
        }
        // Fuzzy sync with the peer stream on the long-lived shared barrier.
        ledger.begin(id);
        let token = match shared.arrive(id, shared_tag) {
            Ok(t) => t,
            Err(err) => {
                report_err(id, "shared arrive", &err);
                return;
            }
        };
        ledger.enter_wait(id, e);
        let outcome = shared.wait(token);
        if ctx::aborted() {
            return;
        }
        ledger.exit_wait(id);
        if outcome.episode != e {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!("shared episode {e} != {}", outcome.episode),
            });
            return;
        }
        ledger.check_fuzzy(id, e);
        if ctx::aborted() {
            return;
        }
        // Release the slot; next episode re-allocates the same tag.
        if let Err(err) = reg.release(private_tag) {
            report_err(id, "release private", &err);
            return;
        }
    }
}

/// Post-run invariant: the registry must refuse the N-th barrier. Runs on
/// the controller after a clean schedule (all privates released; only the
/// shared barrier lives).
fn registry_capacity_check(reg: &GroupRegistry<ShadowSync>) -> Option<Defect> {
    // Hold every allocated handle: a dropped handle is an orphan the
    // registry may sweep to make room, which would defeat the fill.
    let mut allocated = Vec::new();
    let verdict = loop {
        if allocated.len() > reg.capacity() {
            break Some(Defect::ProtocolError {
                thread: 0,
                message: "registry never reported RegistryFull".into(),
            });
        }
        match reg.allocate(ProcMask::single(0)) {
            Ok(entry) => allocated.push(entry),
            Err(BarrierError::RegistryFull { capacity }) => {
                break (reg.live_barriers() != capacity).then(|| Defect::ProtocolError {
                    thread: 0,
                    message: format!(
                        "RegistryFull at {} live barriers, capacity {capacity}",
                        reg.live_barriers()
                    ),
                });
            }
            Err(err) => {
                break Some(Defect::ProtocolError {
                    thread: 0,
                    message: format!("capacity fill: unexpected error {err:?}"),
                })
            }
        }
    };
    for (tag, _handle) in allocated {
        let _ = reg.release(tag);
    }
    verdict
}

// ---------------------------------------------------------------------------
// Fault scenarios (poisoning and eviction)
// ---------------------------------------------------------------------------

/// Poisoning scenario: participant `n − 1` arrives for episode 0 and then
/// [`SplitBarrier::abort`]s (its arrival stands, the barrier is poisoned);
/// the survivors drive unbounded [`SplitBarrier::wait_deadline`] calls.
///
/// What must hold in **every** interleaving:
///
/// * episode 0 either completes (`Ok`, fuzzy property checked against the
///   full ledger — completion wins over poison) or reports
///   [`BarrierError::Poisoned`];
/// * episode 1 can never complete (the aborter never re-arrives), so each
///   survivor's wait must end in `Poisoned` — a backend that forgets to
///   poison deadlocks here, which is exactly how the checker catches
///   [`crate::mutants::MutantNoPoison`];
/// * no wait returns [`BarrierError::Timeout`] (no deadline was armed).
pub fn poison_with(
    name: impl Into<String>,
    n: usize,
    mut factory: impl FnMut() -> Arc<dyn SplitBarrier> + 'static,
) -> Scenario {
    assert!(n >= 2, "the poison scenario needs a survivor");
    Scenario {
        name: name.into(),
        threads: n,
        build: Box::new(move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            let ledger = Arc::new(Ledger::new((0..n).collect()));
            let bodies: Vec<Job> = (0..n)
                .map(|id| {
                    let barrier = Arc::clone(&barrier);
                    let ledger = Arc::clone(&ledger);
                    Box::new(move || {
                        if id == n - 1 {
                            aborter_body(&*barrier, &ledger, id);
                        } else {
                            poison_survivor_body(&*barrier, &ledger, id);
                        }
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&ledger)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

/// [`poison_with`] over a stock backend.
#[must_use]
pub fn poison(backend: BackendKind, n: usize) -> Scenario {
    poison_with(format!("poison/{}/n{n}", backend.name()), n, move || {
        backend.build_shadow(n)
    })
}

fn aborter_body(barrier: &dyn SplitBarrier, ledger: &Ledger, id: usize) {
    ledger.begin(id);
    let token = barrier.arrive(id);
    if ctx::aborted() {
        return;
    }
    // Panic path: the arrival stands, the token is consumed, peers are
    // released with `Poisoned` instead of hanging on the next episode.
    barrier.abort(token);
}

fn poison_survivor_body(barrier: &dyn SplitBarrier, ledger: &Ledger, id: usize) {
    // Episode 0: everyone (including the aborter) arrives, so either
    // completion or poisoning can win the race.
    ledger.begin(id);
    let token = barrier.arrive(id);
    ledger.enter_wait(id, 0);
    let result = barrier.wait_deadline(token, Deadline::never());
    if ctx::aborted() {
        return;
    }
    match result {
        Ok(outcome) => {
            ledger.exit_wait(id);
            if outcome.episode != 0 {
                ctx::report(Defect::ProtocolError {
                    thread: id,
                    message: format!("expected episode 0, wait returned {}", outcome.episode),
                });
                return;
            }
            ledger.check_fuzzy(id, 0);
        }
        Err(BarrierError::Poisoned { .. }) => {
            ledger.exit_wait(id);
            // Poison won before episode 0 completed; nothing further to
            // assert — the wait did not hang and did not return Ok early.
            return;
        }
        Err(err) => {
            report_err(id, "episode-0 wait", &err);
            return;
        }
    }
    if ctx::aborted() {
        return;
    }
    // Episode 1: the aborter never re-arrives, so completion is
    // impossible; the only legal exit from an unbounded wait is Poisoned.
    ledger.begin(id);
    let token = barrier.arrive(id);
    ledger.enter_wait(id, 1);
    let result = barrier.wait_deadline(token, Deadline::never());
    if ctx::aborted() {
        return;
    }
    match result {
        Err(BarrierError::Poisoned { .. }) => {
            ledger.exit_wait(id);
        }
        Ok(outcome) => {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!(
                    "episode 1 completed (episode {}) without the aborter",
                    outcome.episode
                ),
            });
        }
        Err(err) => report_err(id, "episode-1 wait", &err),
    }
}

/// Eviction scenario: all `n` participants complete episode 0 at full
/// strength; participant `n − 1` then evicts itself (a stand-in for a
/// supervisor evicting a stuck-before-arrival straggler) and the survivors
/// drive `episodes` more episodes without it.
///
/// What must hold in **every** interleaving:
///
/// * episode 0 completes with the fuzzy property over the full ledger;
/// * every survivor episode completes with the fuzzy property over the
///   *survivor* ledger — the eviction can neither lose the survivors'
///   wakeups (deadlock) nor let their waits return before every survivor
///   arrived;
/// * an eviction that forgets to shrink the mask
///   ([`crate::mutants::MutantEvictNoMask`]) strands the second
///   post-eviction episode: the survivor ledger shows everyone arrived,
///   so the checker classifies it as a lost wakeup.
pub fn evict_with(
    name: impl Into<String>,
    n: usize,
    episodes: u64,
    mut factory: impl FnMut() -> Arc<dyn SplitBarrier> + 'static,
) -> Scenario {
    assert!(n >= 2, "the evict scenario needs a survivor");
    Scenario {
        name: name.into(),
        threads: n,
        build: Box::new(move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            let full = Arc::new(Ledger::new((0..n).collect()));
            // Post-eviction episodes are tracked against the survivors
            // only, re-numbered from zero (ledger episode = barrier
            // episode − 1).
            let survivors = Arc::new(Ledger::new((0..n - 1).collect()));
            let bodies: Vec<Job> = (0..n)
                .map(|id| {
                    let barrier = Arc::clone(&barrier);
                    let full = Arc::clone(&full);
                    let survivors = Arc::clone(&survivors);
                    Box::new(move || {
                        if id == n - 1 {
                            evictee_body(&*barrier, &full, id);
                        } else {
                            evict_survivor_body(&*barrier, &full, &survivors, id, episodes);
                        }
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&full), Arc::clone(&survivors)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

/// [`evict_with`] over a stock backend.
#[must_use]
pub fn evict(backend: BackendKind, n: usize, episodes: u64) -> Scenario {
    evict_with(
        format!("evict/{}/n{n}/e{episodes}", backend.name()),
        n,
        episodes,
        move || backend.build_shadow(n),
    )
}

fn evictee_body(barrier: &dyn SplitBarrier, full: &Ledger, id: usize) {
    full.begin(id);
    let token = barrier.arrive(id);
    full.enter_wait(id, 0);
    let result = barrier.wait_deadline(token, Deadline::never());
    if ctx::aborted() {
        return;
    }
    match result {
        Ok(outcome) if outcome.episode == 0 => {
            full.exit_wait(id);
            full.check_fuzzy(id, 0);
        }
        Ok(outcome) => {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!("expected episode 0, wait returned {}", outcome.episode),
            });
            return;
        }
        Err(err) => {
            report_err(id, "evictee episode-0 wait", &err);
            return;
        }
    }
    if ctx::aborted() {
        return;
    }
    // Contract honored: the evictee has not arrived for the in-flight
    // episode (it only ever arrived for the completed episode 0).
    if let Err(err) = barrier.evict(id) {
        report_err(id, "self-evict", &err);
    }
}

fn evict_survivor_body(
    barrier: &dyn SplitBarrier,
    full: &Ledger,
    survivors: &Ledger,
    id: usize,
    episodes: u64,
) {
    // Episode 0 at full strength.
    full.begin(id);
    let token = barrier.arrive(id);
    full.enter_wait(id, 0);
    let result = barrier.wait_deadline(token, Deadline::never());
    if ctx::aborted() {
        return;
    }
    match result {
        Ok(outcome) if outcome.episode == 0 => {
            full.exit_wait(id);
            full.check_fuzzy(id, 0);
        }
        Ok(outcome) => {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!("expected episode 0, wait returned {}", outcome.episode),
            });
            return;
        }
        Err(err) => {
            report_err(id, "episode-0 wait", &err);
            return;
        }
    }
    // Post-eviction episodes: the evictee's ghost must keep the barrier
    // completing for the survivors alone.
    for e in 1..=episodes {
        if ctx::aborted() {
            return;
        }
        survivors.begin(id);
        let token = barrier.arrive(id);
        survivors.enter_wait(id, e - 1);
        let result = barrier.wait_deadline(token, Deadline::never());
        if ctx::aborted() {
            return;
        }
        match result {
            Ok(outcome) if outcome.episode == e => {
                survivors.exit_wait(id);
                survivors.check_fuzzy(id, e - 1);
            }
            Ok(outcome) => {
                ctx::report(Defect::ProtocolError {
                    thread: id,
                    message: format!("expected episode {e}, wait returned {}", outcome.episode),
                });
                return;
            }
            Err(err) => {
                report_err(id, "survivor wait", &err);
                return;
            }
        }
    }
}

/// Evict-race scenario: all `n` members evict themselves before anyone
/// arrives, with no ordering between them — the supervisor-per-member
/// shape in which every evictor believes a peer will survive.
///
/// What must hold in **every** interleaving:
///
/// * exactly one eviction is refused, with
///   [`BarrierError::EmptyGroup`]; the other `n − 1` succeed. A guard that
///   checks for a survivor and *then* claims and shrinks
///   ([`crate::mutants::MutantRacyEvictGuard`]) lets two racing evictors
///   each count the other as the survivor and empties the barrier;
/// * nothing panics and nothing spins without bound (a protocol's
///   `retire` may assume a survivor exists);
/// * the refused member — the survivor — then completes the in-flight
///   episode 0 alone, on the evictees' stand-in arrivals.
pub fn evict_race_with(
    name: impl Into<String>,
    n: usize,
    mut factory: impl FnMut() -> Arc<dyn SplitBarrier> + 'static,
) -> Scenario {
    assert!(n >= 2, "the evict-race scenario needs two evictors");
    Scenario {
        name: name.into(),
        threads: n,
        build: Box::new(move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            let refused = Arc::new(AtomicU64::new(0));
            let bodies: Vec<Job> = (0..n)
                .map(|id| {
                    let barrier = Arc::clone(&barrier);
                    let refused = Arc::clone(&refused);
                    Box::new(move || evict_race_body(&*barrier, &refused, id)) as Job
                })
                .collect();
            // No fuzzy ledger: the survivor synchronizes alone, so a hang
            // is reported as the deadlock it is.
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| {
                    let refused = refused.load(Ordering::Relaxed);
                    defect.or_else(|| {
                        (refused != 1).then(|| Defect::ProtocolError {
                            thread: 0,
                            message: format!(
                                "{refused} of {n} concurrent self-evictions were refused with \
                                 EmptyGroup; exactly one must be"
                            ),
                        })
                    })
                }),
            }
        }),
    }
}

/// [`evict_race_with`] over a stock backend.
#[must_use]
pub fn evict_race(backend: BackendKind, n: usize) -> Scenario {
    evict_race_with(
        format!("evict/race/{}/n{n}", backend.name()),
        n,
        move || backend.build_shadow(n),
    )
}

fn evict_race_body(barrier: &dyn SplitBarrier, refused: &AtomicU64, id: usize) {
    match barrier.evict(id) {
        Ok(()) => return,
        Err(BarrierError::EmptyGroup) => {
            refused.fetch_add(1, Ordering::Relaxed);
        }
        Err(err) => {
            report_err(id, "self-evict", &err);
            return;
        }
    }
    if ctx::aborted() {
        return;
    }
    // The survivor: its arrival joins the evictees' stand-ins.
    let token = barrier.arrive(id);
    let result = barrier.wait_deadline(token, Deadline::never());
    if ctx::aborted() {
        return;
    }
    match result {
        Ok(outcome) if outcome.episode == 0 => {}
        Ok(outcome) => ctx::report(Defect::ProtocolError {
            thread: id,
            message: format!("expected episode 0, wait returned {}", outcome.episode),
        }),
        Err(err) => report_err(id, "survivor wait", &err),
    }
}

// ---------------------------------------------------------------------------
// Async waker-handoff scenario
// ---------------------------------------------------------------------------

/// Boxed split-phase arrival future, the unit the async scenario polls.
/// It borrows the frontend it arrived on.
pub type AsyncArrival<'a> =
    Pin<Box<dyn Future<Output = Result<WaitOutcome, BarrierError>> + Send + 'a>>;

/// Abstraction over an async barrier frontend, so the waker-handoff
/// scenario can drive both the real [`fuzzy_barrier::AsyncBarrier`] and
/// seeded-bug replicas like [`crate::mutants::MutantNoDrain`].
pub trait AsyncFrontend: Send + Sync {
    /// Number of participants.
    fn participants(&self) -> usize;

    /// Eagerly arrives `id` (the split-phase arrival half) and returns the
    /// future whose completion is the release half.
    fn arrive_future(&self, id: usize) -> AsyncArrival<'_>;
}

impl AsyncFrontend for AsyncBarrier<Arc<dyn SplitBarrier>, ShadowSync> {
    fn participants(&self) -> usize {
        SplitBarrier::participants(self)
    }

    fn arrive_future(&self, id: usize) -> AsyncArrival<'_> {
        Box::pin(self.arrive_async(id))
    }
}

/// A checker-visible parking flag: `wake` performs a *shadow* store, so a
/// task blocked in [`ShadowSync::wait_until`] on the flag is a genuine
/// blocked thread to the deadlock detector, and a wake is a genuine
/// scheduling event. A frontend that forgets to invoke the waker leaves
/// the flag at zero forever — exactly a lost wakeup.
struct WakeFlag(ShadowU32);

impl WakeFlag {
    fn new() -> Self {
        WakeFlag(ShadowU32::new(0))
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Release);
    }

    fn is_set(&self) -> bool {
        self.0.load(Ordering::Acquire) != 0
    }
}

impl Wake for WakeFlag {
    fn wake(self: Arc<Self>) {
        self.0.store(1, Ordering::Release);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.store(1, Ordering::Release);
    }
}

/// The async waker-handoff scenario: `n` logical participants drive
/// `episodes` split-phase episodes through an [`AsyncFrontend`], each
/// parking on a checker-visible wake flag (a shadow word, so a parked
/// task is a genuinely blocked thread to the detector) whenever its future
/// returns `Pending`.
///
/// This model-checks the handoff the executor relies on: a `Pending` poll
/// registers the task's waker against the episode word; whoever completes
/// the episode must drain the registry and invoke those wakers. In
/// **every** interleaving each episode must complete with the fuzzy
/// property intact. A frontend that completes an episode without draining
/// — [`crate::mutants::MutantNoDrain`] — strands an earlier-parked peer
/// whose episode has fully arrived, which the checker classifies as a
/// lost wakeup.
pub fn async_handoff_with(
    name: impl Into<String>,
    n: usize,
    episodes: u64,
    mut factory: impl FnMut() -> Arc<dyn AsyncFrontend> + 'static,
) -> Scenario {
    Scenario {
        name: name.into(),
        threads: n,
        build: Box::new(move || {
            let frontend = factory();
            assert_eq!(frontend.participants(), n, "factory/participant mismatch");
            let ledger = Arc::new(Ledger::new((0..n).collect()));
            let bodies: Vec<Job> = (0..n)
                .map(|id| {
                    let frontend = Arc::clone(&frontend);
                    let ledger = Arc::clone(&ledger);
                    Box::new(move || {
                        async_body(&frontend, &ledger, id, episodes);
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&ledger)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

/// [`async_handoff_with`] over the real [`AsyncBarrier`] frontend on a
/// stock backend.
#[must_use]
pub fn async_handoff(backend: BackendKind, n: usize, episodes: u64) -> Scenario {
    async_handoff_with(
        format!("async/{}/n{n}/e{episodes}", backend.name()),
        n,
        episodes,
        move || {
            Arc::new(AsyncBarrier::<_, ShadowSync>::new_in(
                backend.build_shadow(n),
            ))
        },
    )
}

fn async_body(frontend: &Arc<dyn AsyncFrontend>, ledger: &Ledger, id: usize, episodes: u64) {
    // One flag per participant, reset before every poll. The waker handed
    // to the frontend is stable across polls of one future, matching how
    // an executor reuses a task's waker.
    let flag = Arc::new(WakeFlag::new());
    let waker = Waker::from(Arc::clone(&flag));
    for e in 0..episodes {
        if ctx::aborted() {
            return;
        }
        ledger.begin(id);
        let mut future = frontend.arrive_future(id);
        ledger.enter_wait(id, e);
        let result = loop {
            // Reset *before* polling so a wake delivered during the poll
            // itself is observed by the park below rather than lost.
            flag.reset();
            let mut cx = Context::from_waker(&waker);
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(result) => break result,
                Poll::Pending => {
                    // Park until woken: a blocked shadow wait, visible to
                    // the deadlock detector.
                    ShadowSync::wait_until(StallPolicy::Spin, || flag.is_set());
                    if ctx::aborted() {
                        return;
                    }
                }
            }
        };
        if ctx::aborted() {
            return;
        }
        ledger.exit_wait(id);
        match result {
            Ok(outcome) if outcome.episode == e => {}
            Ok(outcome) => {
                ctx::report(Defect::ProtocolError {
                    thread: id,
                    message: format!("expected episode {e}, future resolved {}", outcome.episode),
                });
                return;
            }
            Err(err) => {
                report_err(id, "async arrival", &err);
                return;
            }
        }
        ledger.check_fuzzy(id, e);
        if ctx::aborted() {
            return;
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic-membership (reconfig) scenarios
// ---------------------------------------------------------------------------

/// Object-safe view of a dynamic-membership barrier, so the reconfig
/// scenarios can drive the real [`ReconfigBarrier`] and seeded mutants
/// like [`crate::mutants::MutantJoinMidEpoch`] through one interface.
///
/// Credentials travel as plain `(slot, generation)` pairs, and `sync`
/// performs one whole episode (arrive, then wait for release). The
/// checker interleaves at shadow-atomic granularity, so a combined call
/// explores exactly the same membership races as split arrive/wait.
pub trait ReconfigOps: Send + Sync {
    /// Stages a join; returns the claimed `(slot, generation)`.
    fn join(&self) -> Result<(usize, u64), BarrierError>;

    /// Blocks until the staged join activates at an episode boundary.
    fn wait_active(&self, slot: usize, generation: u64);

    /// One full episode under the credential: arrive, then wait. Returns
    /// the wrapper epoch the release happened for.
    fn sync(&self, slot: usize, generation: u64) -> Result<u64, BarrierError>;

    /// Voluntary departure.
    fn leave(&self, slot: usize, generation: u64) -> Result<(), BarrierError>;

    /// Supervisor-driven eviction of a member that will never arrive.
    fn evict(&self, slot: usize, generation: u64) -> Result<(), BarrierError>;

    /// Live member count.
    fn members(&self) -> usize;

    /// Completed wrapper epochs.
    fn epoch(&self) -> u64;
}

impl ReconfigOps for ReconfigBarrier<ShadowSync> {
    fn join(&self) -> Result<(usize, u64), BarrierError> {
        let ticket = ReconfigBarrier::join(self)?;
        Ok((ticket.slot(), ticket.generation()))
    }

    fn wait_active(&self, slot: usize, generation: u64) {
        let handle = ReconfigBarrier::wait_active(self, &JoinTicket::from_parts(slot, generation));
        debug_assert_eq!(handle.slot(), slot);
    }

    fn sync(&self, slot: usize, generation: u64) -> Result<u64, BarrierError> {
        let handle = MemberHandle::from_parts(slot, generation);
        let token = self.arrive(&handle)?;
        self.wait(&token).map(|outcome| outcome.episode)
    }

    fn leave(&self, slot: usize, generation: u64) -> Result<(), BarrierError> {
        ReconfigBarrier::leave(self, MemberHandle::from_parts(slot, generation))
    }

    fn evict(&self, slot: usize, generation: u64) -> Result<(), BarrierError> {
        ReconfigBarrier::evict(self, slot, generation)
    }

    fn members(&self) -> usize {
        ReconfigBarrier::members(self)
    }

    fn epoch(&self) -> u64 {
        ReconfigBarrier::epoch(self)
    }
}

/// The default shadow-domain group: a [`ReconfigBarrier`] whose factory
/// rebuilds a shadow central backend at every growth boundary. The
/// membership protocol under test is the wrapper's own; the inner
/// backend just needs to be a correct barrier.
fn shadow_group(capacity: usize, initial: usize) -> Arc<dyn ReconfigOps> {
    let (group, _founders) =
        ReconfigBarrier::<ShadowSync>::with_policy_in(capacity, initial, StallPolicy::Spin, |n| {
            Arc::new(CentralBarrier::<ShadowSync>::with_policy_in(
                n,
                StallPolicy::Spin,
            )) as Arc<dyn SplitBarrier>
        });
    Arc::new(group)
}

/// One checked episode through a [`ReconfigOps`] group: ledger `begin`
/// before the arrival, fuzzy check after the release, release epoch
/// asserted against `epoch`. Returns `false` once the body should stop
/// (abort or reported defect). `id` is both the global thread id and the
/// member's rank in `ledger`; `ledger_episode` is the episode number in
/// the ledger's own (possibly re-based) numbering.
///
/// `enter_wait` brackets the whole combined call — the arrival half is
/// gate-bounded and never blocks on peers, so treating the span as "in
/// wait" keeps the lost-wakeup classification sound.
fn reconfig_sync_checked(
    group: &dyn ReconfigOps,
    ledger: &Ledger,
    id: usize,
    ledger_episode: u64,
    epoch: u64,
    slot: usize,
    generation: u64,
) -> bool {
    if ctx::aborted() {
        return false;
    }
    ledger.begin(id);
    ledger.enter_wait(id, ledger_episode);
    let result = group.sync(slot, generation);
    if ctx::aborted() {
        return false;
    }
    match result {
        Ok(e) if e == epoch => {
            ledger.exit_wait(id);
            ledger.check_fuzzy(id, ledger_episode);
            !ctx::aborted()
        }
        Ok(e) => {
            ctx::report(Defect::ProtocolError {
                thread: id,
                message: format!("expected release at epoch {epoch}, sync returned {e}"),
            });
            false
        }
        Err(err) => {
            report_err(id, "membership sync", &err);
            false
        }
    }
}

/// Join-during-episode scenario: two founders and one joiner over a
/// three-slot group. The founders hold epoch 0 until the join is staged,
/// so on **every** schedule the membership the installer sees at the
/// first boundary is the same: epoch 0 must run at the founding pair and
/// epoch 1 at the grown trio. A protocol that admits the joiner
/// mid-episode ([`crate::mutants::MutantJoinMidEpoch`]) either releases
/// a founder past its peer (fuzzy violation) or skews the arrival
/// counts into a deadlock.
pub fn join_mid_episode_with(
    name: impl Into<String>,
    mut factory: impl FnMut() -> Arc<dyn ReconfigOps> + 'static,
) -> Scenario {
    Scenario {
        name: name.into(),
        threads: 3,
        build: Box::new(move || {
            let group = factory();
            let joined = Arc::new(ShadowU32::new(0));
            let founders = Arc::new(Ledger::new(vec![0, 1]));
            let grown = Arc::new(Ledger::new(vec![0, 1, 2]));
            let bodies: Vec<Job> = (0..3)
                .map(|id| {
                    let group = Arc::clone(&group);
                    let joined = Arc::clone(&joined);
                    let founders = Arc::clone(&founders);
                    let grown = Arc::clone(&grown);
                    Box::new(move || {
                        if id == 2 {
                            join_mid_episode_joiner(&*group, &joined, &grown);
                        } else {
                            join_mid_episode_founder(&*group, &joined, &founders, &grown, id);
                        }
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&founders), Arc::clone(&grown)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

/// [`join_mid_episode_with`] over the real shadow-domain group.
#[must_use]
pub fn join_mid_episode() -> Scenario {
    join_mid_episode_with("reconfig/join-mid-episode", || shadow_group(3, 2))
}

fn join_mid_episode_founder(
    group: &dyn ReconfigOps,
    joined: &ShadowU32,
    founders: &Ledger,
    grown: &Ledger,
    id: usize,
) {
    // Hold epoch 0 until the join is staged: the installer at the first
    // boundary then sees the pending join on every schedule.
    ShadowSync::wait_until(StallPolicy::Spin, || joined.load(Ordering::Acquire) == 1);
    if ctx::aborted() {
        return;
    }
    // Epoch 0 at the founding pair; founders hold slot `id`, generation 0.
    if !reconfig_sync_checked(group, founders, id, 0, 0, id, 0) {
        return;
    }
    // Epoch 1 at the grown trio (the grown ledger numbers from zero).
    reconfig_sync_checked(group, grown, id, 0, 1, id, 0);
}

fn join_mid_episode_joiner(group: &dyn ReconfigOps, joined: &ShadowU32, grown: &Ledger) {
    let (slot, generation) = match group.join() {
        Ok(credential) => credential,
        Err(err) => {
            report_err(2, "join", &err);
            return;
        }
    };
    joined.store(1, Ordering::Release);
    if ctx::aborted() {
        return;
    }
    group.wait_active(slot, generation);
    if ctx::aborted() {
        return;
    }
    // The joiner's first episode is the grown trio's epoch 1.
    if !reconfig_sync_checked(group, grown, 2, 0, 1, slot, generation) {
        return;
    }
    // The staged join must actually have landed: three live members.
    let members = group.members();
    if ctx::aborted() {
        return;
    }
    if members != 3 {
        ctx::report(Defect::ProtocolError {
            thread: 2,
            message: format!("expected 3 members after activation, found {members}"),
        });
    }
}

/// Stale-generation scenario over a two-slot group: member A leaves, its
/// slot is re-claimed by joiner J at a bumped generation, and A's retained
/// credential must then be refused with exactly
/// [`BarrierError::StaleGeneration`] — on every schedule, including those
/// where the probe races J's activation. A membership layer that forgets
/// the generation check ([`crate::mutants::MutantStaleGeneration`]) lets
/// the stale arrival into the re-occupied slot, which this scenario
/// reports as a protocol error the moment the probe returns anything
/// else.
pub fn stale_generation_with(
    name: impl Into<String>,
    mut factory: impl FnMut() -> Arc<dyn ReconfigOps> + 'static,
) -> Scenario {
    Scenario {
        name: name.into(),
        threads: 3,
        build: Box::new(move || {
            let group = factory();
            let joined = Arc::new(ShadowU32::new(0));
            let a_done = Arc::new(ShadowU32::new(0));
            let j_done = Arc::new(ShadowU32::new(0));
            let pump = Arc::new(ShadowU32::new(0));
            let bodies: Vec<Job> = (0..3)
                .map(|id| {
                    let group = Arc::clone(&group);
                    let joined = Arc::clone(&joined);
                    let a_done = Arc::clone(&a_done);
                    let j_done = Arc::clone(&j_done);
                    let pump = Arc::clone(&pump);
                    Box::new(move || match id {
                        0 => stale_generation_leaver(&*group, &joined, &a_done, &pump),
                        1 => stale_generation_driver(&*group, &j_done, &pump),
                        _ => stale_generation_reuser(&*group, &joined, &a_done, &j_done, &pump),
                    }) as Job
                })
                .collect();
            // No fuzzy ledger: this scenario checks the credential
            // lifecycle, so a hang is reported as the deadlock it is.
            ScheduleRun {
                bodies,
                finish: Box::new(|defect| defect),
            }
        }),
    }
}

/// [`stale_generation_with`] over the real shadow-domain group.
#[must_use]
pub fn stale_generation() -> Scenario {
    stale_generation_with("reconfig/stale-generation", || shadow_group(2, 2))
}

fn stale_generation_leaver(
    group: &dyn ReconfigOps,
    joined: &ShadowU32,
    a_done: &ShadowU32,
    pump: &ShadowU32,
) {
    // Epoch 0 at full strength, then depart. The departure bumps the slot
    // generation immediately, so the retained (0, 0) credential is stale
    // from here on.
    match group.sync(0, 0) {
        Ok(0) => {}
        Ok(e) => {
            ctx::report(Defect::ProtocolError {
                thread: 0,
                message: format!("expected release at epoch 0, sync returned {e}"),
            });
            return;
        }
        Err(err) => {
            report_err(0, "pre-leave sync", &err);
            return;
        }
    }
    if ctx::aborted() {
        return;
    }
    if let Err(err) = group.leave(0, 0) {
        report_err(0, "leave", &err);
        return;
    }
    // The freed slot installs at the next boundary: ask the driver for
    // one.
    pump.fetch_add(1, Ordering::AcqRel);
    if ctx::aborted() {
        return;
    }
    // Probe only once the slot has been re-claimed, so the stale arrival
    // races a live re-occupant rather than an empty slot.
    ShadowSync::wait_until(StallPolicy::Spin, || joined.load(Ordering::Acquire) == 1);
    if ctx::aborted() {
        return;
    }
    match group.sync(0, 0) {
        Err(BarrierError::StaleGeneration {
            slot,
            held,
            current,
        }) if slot == 0 && held == 0 && current >= 1 => {}
        Ok(e) => {
            ctx::report(Defect::ProtocolError {
                thread: 0,
                message: format!("stale credential accepted; released at epoch {e}"),
            });
            return;
        }
        Err(err) => {
            report_err(0, "stale probe", &err);
            return;
        }
    }
    a_done.store(1, Ordering::Release);
}

fn stale_generation_driver(group: &dyn ReconfigOps, j_done: &ShadowU32, pump: &ShadowU32) {
    // Epoch 0 at full strength alongside the leaver.
    match group.sync(1, 0) {
        Ok(0) => {}
        Ok(e) => {
            ctx::report(Defect::ProtocolError {
                thread: 1,
                message: format!("expected release at epoch 0, sync returned {e}"),
            });
            return;
        }
        Err(err) => {
            report_err(1, "driver sync", &err);
            return;
        }
    }
    // Drive one boundary per request so departures free, joins install,
    // and the reuser activates. Each pump is *requested* (the driver
    // blocks between them): an ungated loop would spin solo boundaries
    // forever and never yield the schedule to the other threads.
    let mut served = 0u32;
    let mut next_epoch = 1u64;
    loop {
        ShadowSync::wait_until(StallPolicy::Spin, || {
            j_done.load(Ordering::Acquire) == 1 || pump.load(Ordering::Acquire) > served
        });
        if ctx::aborted() || j_done.load(Ordering::Acquire) == 1 {
            return;
        }
        match group.sync(1, 0) {
            Ok(e) if e >= next_epoch => next_epoch = e + 1,
            Ok(e) => {
                ctx::report(Defect::ProtocolError {
                    thread: 1,
                    message: format!("release epoch went backwards: {e} < {next_epoch}"),
                });
                return;
            }
            Err(err) => {
                report_err(1, "driver sync", &err);
                return;
            }
        }
        served += 1;
    }
}

fn stale_generation_reuser(
    group: &dyn ReconfigOps,
    joined: &ShadowU32,
    a_done: &ShadowU32,
    j_done: &ShadowU32,
    pump: &ShadowU32,
) {
    // The departed slot frees at the boundary after the leave: epoch 2
    // implies the installer processed it, so the join below cannot see
    // GroupFull.
    ShadowSync::wait_until(StallPolicy::Spin, || group.epoch() >= 2);
    if ctx::aborted() {
        return;
    }
    let (slot, generation) = match group.join() {
        Ok(credential) => credential,
        Err(err) => {
            report_err(2, "reuse join", &err);
            return;
        }
    };
    if slot != 0 || generation == 0 {
        ctx::report(Defect::ProtocolError {
            thread: 2,
            message: format!(
                "expected to reuse slot 0 at a bumped generation, got slot {slot} \
                 generation {generation}"
            ),
        });
        return;
    }
    joined.store(1, Ordering::Release);
    // Activation installs at the boundary after the staging: request it.
    pump.fetch_add(1, Ordering::AcqRel);
    if ctx::aborted() {
        return;
    }
    group.wait_active(slot, generation);
    if ctx::aborted() {
        return;
    }
    // The sync below needs the driver as a partner: request a boundary.
    pump.fetch_add(1, Ordering::AcqRel);
    if let Err(err) = group.sync(slot, generation) {
        report_err(2, "reuser sync", &err);
        return;
    }
    if ctx::aborted() {
        return;
    }
    // Leave only after the stale probe resolved, so the probe always
    // races a live re-occupant.
    ShadowSync::wait_until(StallPolicy::Spin, || a_done.load(Ordering::Acquire) == 1);
    if ctx::aborted() {
        return;
    }
    if let Err(err) = group.leave(slot, generation) {
        report_err(2, "reuse leave", &err);
        return;
    }
    j_done.store(1, Ordering::Release);
}

/// Join/evict-race scenario: a joiner stages into a three-slot group with
/// no ordering constraints while the driver evicts the idle founder, so
/// the pending join and the pending free race into the same (or
/// adjacent) boundary installs across schedules. Liveness and final
/// agreement are asserted: every sync returns, the joiner activates and
/// departs cleanly, and the group converges to the driver alone.
#[must_use]
pub fn join_evict_race() -> Scenario {
    Scenario {
        name: "reconfig/join-evict-race".into(),
        threads: 3,
        build: Box::new(|| {
            let group = shadow_group(3, 2);
            let j_done = Arc::new(ShadowU32::new(0));
            let pump = Arc::new(ShadowU32::new(0));
            let full = Arc::new(Ledger::new(vec![0, 1]));
            let bodies: Vec<Job> = (0..3)
                .map(|id| {
                    let group = Arc::clone(&group);
                    let j_done = Arc::clone(&j_done);
                    let pump = Arc::clone(&pump);
                    let full = Arc::clone(&full);
                    Box::new(move || match id {
                        0 => {
                            // The evictee synchronizes once and goes
                            // silent; the driver removes it. Arriving only
                            // for the completed epoch 0 honors the
                            // eviction contract on every schedule.
                            reconfig_sync_checked(&*group, &full, 0, 0, 0, 0, 0);
                        }
                        1 => join_evict_race_driver(&*group, &full, &j_done, &pump),
                        _ => join_evict_race_joiner(&*group, &j_done, &pump),
                    }) as Job
                })
                .collect();
            let ledgers = vec![Arc::clone(&full)];
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| classify(&ledgers, defect)),
            }
        }),
    }
}

fn join_evict_race_driver(
    group: &dyn ReconfigOps,
    full: &Ledger,
    j_done: &ShadowU32,
    pump: &ShadowU32,
) {
    if !reconfig_sync_checked(group, full, 1, 0, 0, 1, 0) {
        return;
    }
    // Epoch 0 is complete, so the founder's last arrival is behind the
    // in-flight epoch and the eviction contract holds.
    if let Err(err) = group.evict(0, 0) {
        report_err(1, "evict", &err);
        return;
    }
    // Drive one boundary per joiner request (activation, then
    // partnership) until the joiner has activated, synchronized, and
    // departed; the eviction's stand-in covers the founder's arrival.
    // Gating each pump on a request keeps the driver blocked between
    // boundaries — an ungated loop would spin solo epochs forever
    // without ever yielding the schedule to the joiner.
    let mut served = 0u32;
    let mut next_epoch = 1u64;
    loop {
        ShadowSync::wait_until(StallPolicy::Spin, || {
            j_done.load(Ordering::Acquire) == 1 || pump.load(Ordering::Acquire) > served
        });
        if ctx::aborted() {
            return;
        }
        if j_done.load(Ordering::Acquire) == 1 {
            break;
        }
        match group.sync(1, 0) {
            Ok(e) if e >= next_epoch => next_epoch = e + 1,
            Ok(e) => {
                ctx::report(Defect::ProtocolError {
                    thread: 1,
                    message: format!("release epoch went backwards: {e} < {next_epoch}"),
                });
                return;
            }
            Err(err) => {
                report_err(1, "driver sync", &err);
                return;
            }
        }
        served += 1;
    }
    if ctx::aborted() {
        return;
    }
    // Convergence: the evictee is gone and the joiner left — the driver
    // must be alone, on every schedule.
    let members = group.members();
    if ctx::aborted() {
        return;
    }
    if members != 1 {
        ctx::report(Defect::ProtocolError {
            thread: 1,
            message: format!("expected 1 member after convergence, found {members}"),
        });
    }
}

fn join_evict_race_joiner(group: &dyn ReconfigOps, j_done: &ShadowU32, pump: &ShadowU32) {
    // No gating: the join races the founders' epoch 0 and the eviction
    // across schedules. Slot 2 is free on every one of them.
    let (slot, generation) = match group.join() {
        Ok(credential) => credential,
        Err(err) => {
            report_err(2, "race join", &err);
            return;
        }
    };
    // Activation installs at the boundary after the staging: request one.
    pump.fetch_add(1, Ordering::AcqRel);
    group.wait_active(slot, generation);
    if ctx::aborted() {
        return;
    }
    // The sync below needs the driver as a partner: request a boundary.
    pump.fetch_add(1, Ordering::AcqRel);
    if let Err(err) = group.sync(slot, generation) {
        report_err(2, "joiner sync", &err);
        return;
    }
    if ctx::aborted() {
        return;
    }
    if let Err(err) = group.leave(slot, generation) {
        report_err(2, "joiner leave", &err);
        return;
    }
    j_done.store(1, Ordering::Release);
}
