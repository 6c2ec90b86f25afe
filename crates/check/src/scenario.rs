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
//!
//! The contract is stated once: every body synchronizes through the
//! ledger's checked step — an arrival half (`begin`, then arrive) and a
//! wait half (`enter_wait`, wait, `exit_wait`, the released episode
//! checked, then the fuzzy property) — and every scenario is built by one
//! constructor that owns the per-schedule plumbing. Ledger updates and
//! abort checks are not scheduling points, so the explored schedule tree
//! is exactly that of the barrier calls the bodies make.

use crate::ctx;
use crate::explore::{Job, Scenario, ScheduleRun};
use crate::sched::Defect;
use crate::shadow::{ShadowSync, ShadowU32, ShadowU64};
use fuzzy_barrier::sync::{Atomic, SyncOps};
use fuzzy_barrier::{
    ArrivalToken, AsyncBarrier, BarrierError, CentralBarrier, CountingBarrier, Deadline,
    DisseminationBarrier, GroupRegistry, HierBarrier, JoinTicket, MemberHandle, ProcMask,
    ReconfigBarrier, SplitBarrier, StallPolicy, SubsetBarrier, Tag, TreeBarrier, WaitOutcome,
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
// Ledger and the checked step
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

    /// The arrival half of a checked episode: marks `rank` begun, then
    /// runs `arrive` and hands back its token. `None` once the body should
    /// stop: the run aborted, or the arrival failed (reported as a defect).
    fn arrive<T>(
        &self,
        rank: usize,
        arrive: impl FnOnce() -> Result<T, BarrierError>,
    ) -> Option<T> {
        live()?;
        self.begin(rank);
        match arrive() {
            Ok(token) => Some(token),
            Err(err) => self.fail(rank, "arrive", &err),
        }
    }

    /// The wait half of a checked episode: `rank` runs `wait`, which
    /// returns the episode the barrier released. That must be `release`,
    /// and the fuzzy property must hold for `episode` — the same episode
    /// in this ledger's own, possibly re-based, numbering. `None` once the
    /// body should stop; `Some(Err)` hands a failed wait to the caller,
    /// which decides whether it is a defect.
    fn wait(
        &self,
        rank: usize,
        episode: u64,
        release: u64,
        wait: impl FnOnce() -> Result<u64, BarrierError>,
    ) -> Option<Result<(), BarrierError>> {
        self.enter_wait(rank, episode);
        let result = wait();
        // On abort the drain protocol fakes the wait's return; leave
        // `in_wait` intact so `classify` sees the stuck state.
        live()?;
        self.exit_wait(rank);
        match result {
            Ok(released) if released == release => {
                self.check_fuzzy(rank, episode);
                live()?;
                Some(Ok(()))
            }
            Ok(released) => protocol_error(
                self.members[rank],
                format!(
                    "wait at {:?}: expected episode {release}, released {released}",
                    self.members
                ),
            ),
            Err(err) => Some(Err(err)),
        }
    }

    /// One checked episode: the arrival half, then the wait half on the
    /// arrival's token, with an error from either a defect.
    fn episode<T>(
        &self,
        rank: usize,
        episode: u64,
        release: u64,
        arrive: impl FnOnce() -> Result<T, BarrierError>,
        wait: impl FnOnce(T) -> Result<u64, BarrierError>,
    ) -> Option<()> {
        let token = self.arrive(rank, arrive)?;
        match self.wait(rank, episode, release, || wait(token))? {
            Ok(()) => Some(()),
            Err(err) => self.fail(rank, "wait", &err),
        }
    }

    /// [`Self::episode`] on a [`SplitBarrier`]: member `rank` arrives, then
    /// waits without a deadline.
    fn split_episode(
        &self,
        barrier: &(impl SplitBarrier + ?Sized),
        rank: usize,
        episode: u64,
        release: u64,
    ) -> Option<()> {
        let id = self.members[rank];
        let arrive = || Ok(barrier.arrive(id));
        self.episode(rank, episode, release, arrive, |t| wait_never(barrier, t))
    }

    /// [`Self::episode`] on a barrier whose participant ids are this
    /// ledger's ranks — a subset barrier, whose ids are ranks within its
    /// mask, or a reconfig group, whose ids are slots: member `rank`
    /// arrives as `rank`, then waits without a deadline.
    fn rank_episode(
        &self,
        barrier: &(impl SplitBarrier + ?Sized),
        rank: usize,
        episode: u64,
        release: u64,
    ) -> Option<()> {
        let arrive = || Ok(barrier.arrive(rank));
        self.episode(rank, episode, release, arrive, |t| wait_never(barrier, t))
    }

    /// Reports `err` from `rank`'s `what` on this ledger's barrier.
    fn fail<T>(&self, rank: usize, what: &str, err: &BarrierError) -> Option<T> {
        report_err(
            self.members[rank],
            &format!("{what} at {:?}", self.members),
            err,
        )
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

/// `Some` while the run is live; `None` — the body stops — once it
/// aborted.
fn live() -> Option<()> {
    (!ctx::aborted()).then_some(())
}

/// Reports a scenario-level invariant failure on `thread`; the `None` it
/// returns stops the body.
fn protocol_error<T>(thread: usize, message: String) -> Option<T> {
    ctx::report(Defect::ProtocolError { thread, message });
    None
}

/// Reports an unexpected error from `thread`'s `what`.
fn report_err<T>(thread: usize, what: &str, err: &BarrierError) -> Option<T> {
    protocol_error(thread, format!("{what}: unexpected error {err:?}"))
}

/// `result`'s value, or `None` after reporting its error.
fn ok_or_report<T>(thread: usize, what: &str, result: Result<T, BarrierError>) -> Option<T> {
    result.map_or_else(|err| report_err(thread, what, &err), Some)
}

/// An unbounded wait, released episode out. It goes through
/// `wait_deadline`, not the derived `wait`: when the run aborts, the drain
/// fakes the wakeup and the wait comes back [`BarrierError::Timeout`],
/// which the wait half stops on — `wait` would panic on it instead.
fn wait_never(
    barrier: &(impl SplitBarrier + ?Sized),
    token: ArrivalToken,
) -> Result<u64, BarrierError> {
    barrier
        .wait_deadline(token, Deadline::never())
        .map(|outcome| outcome.episode)
}

/// What a scenario-level park hands the wait half once the run aborted:
/// the [`BarrierError::Timeout`] a drained shadow wait gives every
/// backend. The wait half stops on the abort before it reads it.
fn drained(episode: u64) -> Result<u64, BarrierError> {
    Err(BarrierError::Timeout { episode })
}

/// The plumbing every scenario shares. For each schedule `setup` builds
/// fresh state for the bodies to share, plus the ledgers [`classify`]
/// consults; virtual thread `id` then runs `body(&state, id)` (`None`: it
/// stopped early, on an abort or a reported defect). After a schedule with
/// no defect, `after` checks invariants of the final state.
fn scenario<S: Send + Sync + 'static>(
    name: impl Into<String>,
    threads: usize,
    mut setup: impl FnMut() -> (S, Vec<Arc<Ledger>>) + 'static,
    body: impl Fn(&S, usize) -> Option<()> + Copy + Send + 'static,
    after: fn(&S) -> Option<Defect>,
) -> Scenario {
    Scenario {
        name: name.into(),
        threads,
        build: Box::new(move || {
            let (state, ledgers) = setup();
            let state = Arc::new(state);
            let bodies = (0..threads)
                .map(|id| {
                    let state = Arc::clone(&state);
                    Box::new(move || {
                        body(&state, id);
                    }) as Job
                })
                .collect();
            ScheduleRun {
                bodies,
                finish: Box::new(move |defect| {
                    classify(&ledgers, defect).or_else(|| after(&state))
                }),
            }
        }),
    }
}

/// A fresh ledger over members `0..n`.
fn ledger(n: usize) -> Arc<Ledger> {
    Arc::new(Ledger::new((0..n).collect()))
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
    scenario(
        name,
        n,
        move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            let ledger = ledger(n);
            ((barrier, Arc::clone(&ledger)), vec![ledger])
        },
        move |(barrier, ledger), id| {
            (0..episodes).try_for_each(|e| ledger.split_episode(barrier, id, e, e))
        },
        |_| None,
    )
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
    scenario(
        name,
        nodes,
        move || {
            let barriers = factory();
            assert_eq!(barriers.len(), nodes, "factory/endpoint mismatch");
            let ledger = ledger(nodes);
            ((barriers, Arc::clone(&ledger)), vec![ledger])
        },
        move |(barriers, ledger), rank| {
            let barrier = &*barriers[rank];
            (0..episodes).try_for_each(|e| {
                ledger.episode(
                    rank,
                    e,
                    e,
                    || Ok(barrier.arrive(0)),
                    |t| wait_never(barrier, t),
                )
            })
        },
        |_| None,
    )
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

// ---------------------------------------------------------------------------
// Subset scenario (masks + tags)
// ---------------------------------------------------------------------------

type Subset = SubsetBarrier<CentralBarrier<ShadowSync>>;

fn subset(tag: u16, mask: &[usize]) -> Subset {
    let tag = Tag::new(tag).expect("non-zero tag");
    let mask: ProcMask = mask.iter().copied().collect();
    SubsetBarrier::with_policy_in(tag, mask, StallPolicy::Spin).expect("non-empty mask")
}

/// Masked/tagged synchronization over every non-empty subset of two
/// participants — each thread synchronizes alone on a private singleton
/// barrier and with its peer on a shared one, presenting tags explicitly.
/// A deliberate wrong-tag arrival checks that the tag-match logic rejects
/// cross-barrier synchronization (the paper's Fig. 6 bug).
#[must_use]
pub fn subset_pair(episodes: u64) -> Scenario {
    scenario(
        format!("subset/pair/e{episodes}"),
        2,
        || {
            let privates = [subset(1, &[0]), subset(2, &[1])];
            let ledger = ledger(2);
            (
                (subset(3, &[0, 1]), privates, Arc::clone(&ledger)),
                vec![ledger],
            )
        },
        move |(shared, privates, ledger), id| {
            subset_pair_body(shared, &privates[id], ledger, id, episodes)
        },
        |_| None,
    )
}

fn subset_pair_body(
    shared: &Subset,
    private: &Subset,
    ledger: &Ledger,
    id: usize,
    episodes: u64,
) -> Option<()> {
    // Presenting the private tag at the shared barrier must be rejected —
    // tags are what keep Fig. 6's P3-at-B1 from synchronizing with
    // P1-at-B2. The tag is checked against no shadow state, so this probe
    // is deterministic and free.
    match shared.rank(id, private.tag()) {
        Err(BarrierError::TagMismatch { .. }) => {}
        Ok(_) => return protocol_error(id, "wrong tag accepted by shared barrier".into()),
        Err(err) => return report_err(id, "wrong-tag probe", &err),
    }
    let (shared_rank, private_rank) = (present(shared, id)?, present(private, id)?);
    // The private barrier's ledger is this thread's own; `classify` never
    // sees it.
    let solo = Ledger::new(vec![id]);
    for e in 0..episodes {
        // Solo synchronization on the private singleton barrier.
        solo.rank_episode(private, private_rank, e, e)?;
        // Shared fuzzy synchronization.
        ledger.rank_episode(shared, shared_rank, e, e)?;
    }
    Some(())
}

/// Fig. 6 stream-merge topology: three threads, two *overlapping* masked
/// barriers — A over {0,1}, B over {1,2} — with the middle thread a member
/// of both. The middle thread arrives at both barriers before waiting on
/// either, so its barrier regions overlap and no cross-barrier circular
/// wait is possible; the fuzzy property is asserted per barrier over its
/// own mask.
#[must_use]
pub fn subset_overlap(episodes: u64) -> Scenario {
    scenario(
        format!("subset/overlap/e{episodes}"),
        3,
        || {
            let ledger_a = Arc::new(Ledger::new(vec![0, 1]));
            let ledger_b = Arc::new(Ledger::new(vec![1, 2]));
            let ledgers = vec![Arc::clone(&ledger_a), Arc::clone(&ledger_b)];
            let a = subset(1, &[0, 1]);
            let b = subset(2, &[1, 2]);
            ((a, b, ledger_a, ledger_b), ledgers)
        },
        // Threads 0 and 2 each belong to exactly one masked barrier.
        move |(a, b, ledger_a, ledger_b), id| match id {
            0 => single_body(a, ledger_a, 0, episodes),
            1 => middle_body(a, b, ledger_a, ledger_b, episodes),
            _ => single_body(b, ledger_b, 2, episodes),
        },
        |_| None,
    )
}

/// Body for thread `id` in one barrier: present the credential once, then
/// run every episode on it by rank.
fn single_body(barrier: &Subset, ledger: &Ledger, id: usize, episodes: u64) -> Option<()> {
    let rank = present(barrier, id)?;
    (0..episodes).try_for_each(|e| ledger.rank_episode(barrier, rank, e, e))
}

/// Body for the thread in both barriers: arrive at both, then wait on
/// both. It is rank 1 of A and rank 0 of B, and of their ledgers.
fn middle_body(
    a: &Subset,
    b: &Subset,
    ledger_a: &Ledger,
    ledger_b: &Ledger,
    episodes: u64,
) -> Option<()> {
    let (rank_a, rank_b) = (present(a, 1)?, present(b, 1)?);
    for e in 0..episodes {
        let token_a = ledger_a.arrive(rank_a, || Ok(a.arrive(rank_a)))?;
        let token_b = ledger_b.arrive(rank_b, || Ok(b.arrive(rank_b)))?;
        if let Err(err) = ledger_b.wait(rank_b, e, e, || wait_never(b, token_b))? {
            return ledger_b.fail(rank_b, "wait", &err);
        }
        if let Err(err) = ledger_a.wait(rank_a, e, e, || wait_never(a, token_a))? {
            return ledger_a.fail(rank_a, "wait", &err);
        }
    }
    Some(())
}

/// Thread `id` presents its credential — its global id and `barrier`'s
/// tag — once, and gets the rank it drives the barrier as; `None` after
/// reporting a refusal.
fn present(barrier: &Subset, id: usize) -> Option<usize> {
    ok_or_report(id, "present credential", barrier.rank(id, barrier.tag()))
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
    scenario(
        format!("registry/e{episodes}"),
        2,
        || {
            let reg = GroupRegistry::<ShadowSync>::with_policy_in(4, StallPolicy::Spin);
            let shared = reg
                .allocate_tagged(Tag::new(7).expect("non-zero"), [0, 1].into_iter().collect())
                .expect("fresh registry has room");
            let ledger = ledger(2);
            ((reg, shared, Arc::clone(&ledger)), vec![ledger])
        },
        move |(reg, shared, ledger), id| registry_body(reg, shared, ledger, id, episodes),
        |(reg, _, _)| registry_capacity_check(reg),
    )
}

fn registry_body(
    reg: &GroupRegistry<ShadowSync>,
    shared: &Subset,
    ledger: &Ledger,
    id: usize,
    episodes: u64,
) -> Option<()> {
    let private_tag = Tag::new(10 + id as u16).expect("non-zero");
    let shared_rank = present(shared, id)?;
    // Each episode's private barrier is freshly allocated, so it always
    // completes *its* episode 0. Its ledger is this thread's own;
    // `classify` never sees it.
    let solo = Ledger::new(vec![id]);
    for e in 0..episodes {
        live()?;
        // Allocate a private singleton barrier under an explicitly reused
        // tag. Capacity is 3 (shared + one private per thread), so this
        // must succeed in every interleaving.
        let private = ok_or_report(
            id,
            "allocate private",
            reg.allocate_tagged(private_tag, ProcMask::single(id)),
        )?;
        if reg.live_barriers() > reg.capacity() {
            return protocol_error(
                id,
                format!(
                    "N-1 bound violated: {} live barriers > capacity {}",
                    reg.live_barriers(),
                    reg.capacity()
                ),
            );
        }
        // Solo sync on the private barrier (never blocks: one member).
        solo.rank_episode(&*private, present(&private, id)?, e, 0)?;
        // Fuzzy sync with the peer stream on the long-lived shared barrier.
        ledger.rank_episode(shared, shared_rank, e, e)?;
        // Release the slot; next episode re-allocates the same tag.
        ok_or_report(id, "release private", reg.release(private_tag))?;
    }
    Some(())
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
    scenario(
        name,
        n,
        move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            let ledger = ledger(n);
            ((barrier, Arc::clone(&ledger)), vec![ledger])
        },
        move |(barrier, ledger), id| {
            if id == n - 1 {
                aborter_body(&**barrier, ledger, id)
            } else {
                poison_survivor_body(&**barrier, ledger, id)
            }
        },
        |_| None,
    )
}

/// [`poison_with`] over a stock backend.
#[must_use]
pub fn poison(backend: BackendKind, n: usize) -> Scenario {
    poison_with(format!("poison/{}/n{n}", backend.name()), n, move || {
        backend.build_shadow(n)
    })
}

fn aborter_body(barrier: &dyn SplitBarrier, ledger: &Ledger, id: usize) -> Option<()> {
    let token = ledger.arrive(id, || Ok(barrier.arrive(id)))?;
    live()?;
    // Panic path: the arrival stands, the token is consumed, peers are
    // released with `Poisoned` instead of hanging on the next episode.
    barrier.abort(token);
    Some(())
}

fn poison_survivor_body(barrier: &dyn SplitBarrier, ledger: &Ledger, id: usize) -> Option<()> {
    // Episode 0: everyone (including the aborter) arrives, so either
    // completion or poisoning can win the race.
    let token = ledger.arrive(id, || Ok(barrier.arrive(id)))?;
    match ledger.wait(id, 0, 0, || wait_never(barrier, token))? {
        Ok(()) => {}
        // Poison won before episode 0 completed; nothing further to
        // assert — the wait did not hang and did not return Ok early.
        Err(BarrierError::Poisoned { .. }) => return Some(()),
        Err(err) => return ledger.fail(id, "episode-0 wait", &err),
    }
    // Episode 1: the aborter never re-arrives, so completion is
    // impossible (the wait half reports a release as the fuzzy violation
    // it is); the only legal exit from an unbounded wait is Poisoned.
    let token = ledger.arrive(id, || Ok(barrier.arrive(id)))?;
    match ledger.wait(id, 1, 1, || wait_never(barrier, token))? {
        Err(BarrierError::Poisoned { .. }) => Some(()),
        other => protocol_error(
            id,
            format!("episode 1 without the aborter ended {other:?}, not Poisoned"),
        ),
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
    scenario(
        name,
        n,
        move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            let full = ledger(n);
            // Post-eviction episodes are tracked against the survivors
            // only, re-numbered from zero (ledger episode = barrier
            // episode − 1).
            let survivors = ledger(n - 1);
            let ledgers = vec![Arc::clone(&full), Arc::clone(&survivors)];
            ((barrier, full, survivors), ledgers)
        },
        move |(barrier, full, survivors), id| {
            if id == n - 1 {
                evictee_body(&**barrier, full, id)
            } else {
                evict_survivor_body(&**barrier, full, survivors, id, episodes)
            }
        },
        |_| None,
    )
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

fn evictee_body(barrier: &dyn SplitBarrier, full: &Ledger, id: usize) -> Option<()> {
    full.split_episode(barrier, id, 0, 0)?;
    // Contract honored: the evictee has not arrived for the in-flight
    // episode (it only ever arrived for the completed episode 0).
    ok_or_report(id, "self-evict", barrier.evict(id))
}

fn evict_survivor_body(
    barrier: &dyn SplitBarrier,
    full: &Ledger,
    survivors: &Ledger,
    id: usize,
    episodes: u64,
) -> Option<()> {
    // Episode 0 at full strength.
    full.split_episode(barrier, id, 0, 0)?;
    // Post-eviction episodes: the evictee's ghost must keep the barrier
    // completing for the survivors alone.
    (1..=episodes).try_for_each(|e| survivors.split_episode(barrier, id, e - 1, e))
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
    scenario(
        name,
        n,
        move || {
            let barrier = factory();
            assert_eq!(barrier.participants(), n, "factory/participant mismatch");
            // No fuzzy ledger for `classify`: the survivor synchronizes
            // alone, so a hang is reported as the deadlock it is.
            ((barrier, AtomicU64::new(0)), Vec::new())
        },
        |(barrier, refused), id| evict_race_body(&**barrier, refused, id),
        |(barrier, refused)| {
            let refused = refused.load(Ordering::Relaxed);
            let n = barrier.participants();
            (refused != 1).then(|| Defect::ProtocolError {
                thread: 0,
                message: format!(
                    "{refused} of {n} concurrent self-evictions were refused with \
                     EmptyGroup; exactly one must be"
                ),
            })
        },
    )
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

fn evict_race_body(barrier: &dyn SplitBarrier, refused: &AtomicU64, id: usize) -> Option<()> {
    match barrier.evict(id) {
        Ok(()) => return Some(()),
        Err(BarrierError::EmptyGroup) => {
            refused.fetch_add(1, Ordering::Relaxed);
        }
        Err(err) => return report_err(id, "self-evict", &err),
    }
    // The survivor: its arrival joins the evictees' stand-ins, under a
    // ledger of its own.
    Ledger::new(vec![id]).split_episode(barrier, 0, 0, 0)
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
/// seeded-bug replicas like [`crate::mutants::MutantParkWithoutRecheck`].
pub trait AsyncFrontend: Send + Sync {
    /// Number of participants.
    fn participants(&self) -> usize;

    /// Eagerly arrives `id` (the split-phase arrival half) and returns the
    /// future whose completion is the release half.
    fn arrive_future(&self, id: usize) -> AsyncArrival<'_>;
}

impl AsyncFrontend for AsyncBarrier<Arc<dyn SplitBarrier>> {
    fn participants(&self) -> usize {
        SplitBarrier::participants(self)
    }

    fn arrive_future(&self, id: usize) -> AsyncArrival<'_> {
        Box::pin(self.arrive_async(id))
    }
}

/// A checker-visible parking flag: a peer's `wake` performs a *shadow*
/// store, so a task blocked in [`ShadowSync::wait_until`] on the flag is a
/// genuine blocked thread to the deadlock detector, and a wake is a
/// genuine scheduling event. A frontend that forgets to invoke the waker
/// leaves the flag at zero forever — exactly a lost wakeup. A wake from
/// the owner's own poll is a yield, which nobody waits on: it sets a real
/// atomic, not a scheduling point.
struct WakeFlag {
    word: ShadowU32,
    /// The virtual thread that polls; its own wakes are yields.
    owner: Option<usize>,
    /// Set, instead of `word`, by a wake from the owner's own poll.
    yielded: AtomicBool,
}

impl WakeFlag {
    /// A flag owned by the calling virtual thread.
    fn new() -> Arc<Self> {
        Arc::new(WakeFlag {
            word: ShadowU32::new(0),
            owner: ctx::tid(),
            yielded: AtomicBool::new(false),
        })
    }

    /// Clears the flag. The shadow word is stored only when it is set: a
    /// store is a write to every peer blocked until one, and a task that
    /// re-polls without parking would otherwise feed its peers' waits
    /// forever — a livelock the checker would rightly report.
    fn reset(&self) {
        self.yielded.store(false, Ordering::Relaxed);
        if self.is_set() {
            self.word.store(0, Ordering::Release);
        }
    }

    fn is_set(&self) -> bool {
        self.word.load(Ordering::Acquire) != 0
    }
}

impl Wake for WakeFlag {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        if ctx::tid() == self.owner {
            self.yielded.store(true, Ordering::Relaxed);
        } else {
            self.word.store(1, Ordering::Release);
        }
    }
}

/// The async waker-handoff scenario: `n` logical participants drive
/// `episodes` split-phase episodes through an [`AsyncFrontend`], each
/// parking on a checker-visible wake flag (a shadow word, so a parked
/// task is a genuinely blocked thread to the detector) whenever its future
/// returns `Pending` without waking itself.
///
/// This model-checks the handoff the executor relies on: a parking poll
/// registers the task's waker against its episode in the episode core,
/// and whoever completes the episode must wake it; on a backend with no
/// parking place (dissemination) a pending poll re-queues itself. In
/// **every** interleaving each episode must complete with the fuzzy
/// property intact. A completer that wakes nobody
/// ([`crate::mutants::MutantNoWake`]) strands an earlier-parked peer whose
/// episode has fully arrived, which the checker classifies as a lost
/// wakeup.
pub fn async_handoff_with(
    name: impl Into<String>,
    n: usize,
    episodes: u64,
    mut factory: impl FnMut() -> Arc<dyn AsyncFrontend> + 'static,
) -> Scenario {
    scenario(
        name,
        n,
        move || {
            let frontend = factory();
            assert_eq!(frontend.participants(), n, "factory/participant mismatch");
            let ledger = ledger(n);
            ((frontend, Arc::clone(&ledger)), vec![ledger])
        },
        move |(frontend, ledger), id| async_body(&**frontend, ledger, id, episodes),
        |_| None,
    )
}

/// [`async_handoff_with`] over the real [`AsyncBarrier`] frontend on a
/// stock backend.
#[must_use]
pub fn async_handoff(backend: BackendKind, n: usize, episodes: u64) -> Scenario {
    async_handoff_with(
        format!("async/{}/n{n}/e{episodes}", backend.name()),
        n,
        episodes,
        move || Arc::new(AsyncBarrier::new(backend.build_shadow(n))),
    )
}

fn async_body(
    frontend: &dyn AsyncFrontend,
    ledger: &Ledger,
    id: usize,
    episodes: u64,
) -> Option<()> {
    let flag = WakeFlag::new();
    for e in 0..episodes {
        ledger.episode(
            id,
            e,
            e,
            || Ok(frontend.arrive_future(id)),
            |mut future| poll_episode(future.as_mut(), &flag, e),
        )?;
    }
    Some(())
}

/// Polls `future` until it resolves, the way an executor polls a task
/// whose waker sets `flag`, and returns the episode it released. A
/// `Pending` that woke its own task is a yield, polled again at once —
/// unless it is the second in a row: that poll drives rounds (a
/// cooperative backend that cannot park) and would repeat itself until
/// some write it has not seen, so it waits for one. Any other `Pending`
/// parks: a blocked shadow wait, visible to the deadlock detector.
fn poll_episode<F>(
    mut future: Pin<&mut F>,
    flag: &Arc<WakeFlag>,
    episode: u64,
) -> Result<u64, BarrierError>
where
    F: Future<Output = Result<WaitOutcome, BarrierError>> + ?Sized,
{
    // One waker for every poll of the future, as an executor reuses a
    // task's.
    let waker = Waker::from(Arc::clone(flag));
    let mut cx = Context::from_waker(&waker);
    let mut yielded = false;
    loop {
        // Reset *before* polling so a wake delivered during the poll
        // itself is observed below rather than lost.
        flag.reset();
        let gen = ctx::write_gen().unwrap_or(0);
        if let Poll::Ready(result) = future.as_mut().poll(&mut cx) {
            return result.map(|outcome| outcome.episode);
        }
        if flag.yielded.load(Ordering::Relaxed) {
            if yielded {
                ctx::block_until_write_after(gen);
            }
            yielded = true;
        } else {
            yielded = false;
            ShadowSync::wait_until(StallPolicy::Spin, || flag.is_set());
        }
        if ctx::aborted() {
            return drained(episode);
        }
    }
}

// ---------------------------------------------------------------------------
// Dynamic-membership (reconfig) scenarios
// ---------------------------------------------------------------------------

/// The shadow-domain group the reconfig scenarios drive. It is a
/// [`SplitBarrier`] whose participant ids are slots, so a member presents
/// its handle once ([`ReconfigBarrier::rank`]) and runs every episode by
/// slot through the ledger's checked step; in every ledger here a
/// member's rank is its slot.
pub(crate) type Group = ReconfigBarrier<ShadowSync>;

impl BackendKind {
    /// Episodes from the one an admission is staged in to the joiner's
    /// first, when nothing else delays it: 1 where a completer runs before
    /// it publishes the next episode (central, tree, hier), 2 where the
    /// next episode may already be under way (counting, dissemination).
    #[must_use]
    pub fn admission_lag(self) -> u64 {
        match self {
            BackendKind::Central | BackendKind::Tree | BackendKind::Hier => 1,
            BackendKind::Counting | BackendKind::Dissemination => 2,
        }
    }
}

/// The group over `backend`: one inner barrier for all `capacity` slots,
/// the slots from `initial` on evicted from the start.
fn shadow_group(backend: BackendKind, capacity: usize, initial: usize) -> Group {
    let build = |n| backend.build_shadow(n);
    ReconfigBarrier::with_policy_in(capacity, initial, StallPolicy::Spin, build).0
}

/// Thread `thread` presents `handle` to `group` once, and gets the slot it
/// drives the group as; `None` after reporting a refusal.
fn present_handle(group: &Group, thread: usize, handle: MemberHandle) -> Option<usize> {
    ok_or_report(thread, "present handle", group.rank(&handle))
}

/// Founder `slot`'s handle: every founder holds generation 0.
fn founder(slot: usize) -> MemberHandle {
    MemberHandle::from_parts(slot, 0)
}

/// One episode of `slot` outside any ledger: arrive, then wait without a
/// deadline; the released episode out.
fn sync(group: &Group, slot: usize) -> Result<u64, BarrierError> {
    wait_never(group, SplitBarrier::arrive(group, slot))
}

/// Async reconfig scenario: member 0 of an `n`-member group waits on
/// each of `episodes` episodes through [`AsyncBarrier::wait_async`] over
/// the group, polled the way [`async_handoff`] polls, while its peers
/// arrive and wait. On a backend with a release word the future parks in
/// the episode core ([`SplitBarrier::register_waker`], which the group
/// forwards); on dissemination it re-polls, since its polls drive its
/// rounds. An inner barrier whose completer wakes nobody
/// ([`crate::mutants::MutantNoWake`]) strands the parked member with its
/// episode fully arrived: a lost wakeup.
pub fn reconfig_future_with(
    name: impl Into<String>,
    n: usize,
    episodes: u64,
    inner: impl Fn(usize) -> Arc<dyn SplitBarrier> + 'static,
) -> Scenario {
    scenario(
        name,
        n,
        move || {
            let (group, _founders) =
                ReconfigBarrier::<ShadowSync>::with_policy_in(n, n, StallPolicy::Spin, &inner);
            let ledger = ledger(n);
            (
                (AsyncBarrier::new(group), Arc::clone(&ledger)),
                vec![ledger],
            )
        },
        move |(frontend, ledger), id| {
            let group = frontend.backend();
            let slot = present_handle(group, id, founder(id))?;
            let flag = WakeFlag::new();
            for e in 0..episodes {
                if slot > 0 {
                    ledger.rank_episode(group, slot, e, e)?;
                    continue;
                }
                let arrive = || Ok(SplitBarrier::arrive(group, slot));
                ledger.episode(slot, e, e, arrive, |token| {
                    poll_episode(Pin::new(&mut frontend.wait_async(token)), &flag, e)
                })?;
            }
            Some(())
        },
        |_| None,
    )
}

/// [`reconfig_future_with`] over a stock backend: two members, two
/// episodes.
#[must_use]
pub fn reconfig_future(backend: BackendKind) -> Scenario {
    reconfig_future_with(
        format!("reconfig/{}/future", backend.name()),
        2,
        2,
        move |n| backend.build_shadow(n),
    )
}

/// Join-during-episode scenario: two founders and one joiner over a
/// three-slot group. The founders hold epoch 0 until the join is staged,
/// so on **every** schedule the completers see the staged join at the
/// same point: epochs `0..lag` must run at the founding pair and epoch
/// `lag` at the grown trio, `lag` being the backend's
/// [`BackendKind::admission_lag`]. An inner barrier that admits the
/// joiner into the in-flight episode
/// ([`crate::mutants::MutantAdmitInFlight`]) releases someone at the wrong
/// epoch, releases a founder past its peer (fuzzy violation), or skews the
/// arrival counts into a deadlock.
pub fn join_mid_episode_with(
    name: impl Into<String>,
    lag: u64,
    mut factory: impl FnMut() -> Group + 'static,
) -> Scenario {
    scenario(
        name,
        3,
        move || {
            let founders = Arc::new(Ledger::new(vec![0, 1]));
            let grown = ledger(3);
            let ledgers = vec![Arc::clone(&founders), Arc::clone(&grown)];
            ((factory(), ShadowU32::new(0), founders, grown), ledgers)
        },
        move |(group, joined, founders, grown), id| {
            if id == 2 {
                join_mid_episode_joiner(group, joined, grown, lag)
            } else {
                join_mid_episode_founder(group, joined, founders, grown, id, lag)
            }
        },
        |_| None,
    )
}

/// [`join_mid_episode_with`] over the real shadow-domain group.
#[must_use]
pub fn join_mid_episode(backend: BackendKind) -> Scenario {
    join_mid_episode_with(
        format!("reconfig/{}/join-mid-episode", backend.name()),
        backend.admission_lag(),
        move || shadow_group(backend, 3, 2),
    )
}

fn join_mid_episode_founder(
    group: &Group,
    joined: &ShadowU32,
    founders: &Ledger,
    grown: &Ledger,
    id: usize,
    lag: u64,
) -> Option<()> {
    let slot = present_handle(group, id, founder(id))?;
    // Hold epoch 0 until the join is staged: its completer then sees the
    // staged join on every schedule.
    ShadowSync::wait_until(StallPolicy::Spin, || joined.load(Ordering::Acquire) == 1);
    // Epochs before the joiner's first at the founding pair.
    for epoch in 0..lag {
        founders.rank_episode(group, slot, epoch, epoch)?;
    }
    // Then the grown trio (the grown ledger numbers from zero).
    grown.rank_episode(group, slot, 0, lag)
}

fn join_mid_episode_joiner(
    group: &Group,
    joined: &ShadowU32,
    grown: &Ledger,
    lag: u64,
) -> Option<()> {
    // The founders hold slots 0 and 1, so the join reserves slot 2.
    let ticket = ok_or_report(2, "join", group.join())?;
    joined.store(1, Ordering::Release);
    live()?;
    let slot = present_handle(group, 2, group.wait_active(&ticket))?;
    grown.rank_episode(group, slot, 0, lag)?;
    // The staged join must actually have landed: three live members.
    let members = group.members();
    live()?;
    if members != 3 {
        return protocol_error(
            2,
            format!("expected 3 members after activation, found {members}"),
        );
    }
    Some(())
}

/// Episodes on request from a serving member: a body that needs the group
/// to move asks for it, and the server syncs only then. An ungated server
/// would spin solo episodes forever and never yield the schedule to the
/// other threads.
struct Pump {
    /// Epochs the server is asked to complete.
    target: ShadowU64,
    /// Epochs the server has completed.
    done: ShadowU64,
}

impl Pump {
    /// The server starts serving after it completed epoch 0 with everyone.
    fn new() -> Self {
        Pump {
            target: ShadowU64::new(1),
            done: ShadowU64::new(1),
        }
    }

    /// Asks for one epoch past those completed so far, and waits for it.
    fn one_more(&self) -> Option<()> {
        let done = self.done.load(Ordering::Acquire);
        self.target.fetch_max(done + 1, Ordering::AcqRel);
        ShadowSync::wait_until(StallPolicy::Spin, || {
            self.done.load(Ordering::Acquire) > done
        });
        live()
    }

    /// Asks the server to run through `epoch`.
    fn through(&self, epoch: u64) {
        self.target.fetch_max(epoch + 1, Ordering::AcqRel);
    }

    /// The server (thread 1, founder of `slot`): syncs every requested
    /// epoch, until the joiner sets `j_done`.
    fn serve(&self, group: &Group, slot: usize, j_done: &ShadowU32) -> Option<()> {
        let mut next = 1;
        loop {
            ShadowSync::wait_until(StallPolicy::Spin, || {
                j_done.load(Ordering::Acquire) == 1 || self.target.load(Ordering::Acquire) > next
            });
            live()?;
            if j_done.load(Ordering::Acquire) == 1 {
                return Some(());
            }
            match ok_or_report(1, "server sync", sync(group, slot))? {
                e if e == next => next = e + 1,
                e => return protocol_error(1, format!("server released {e}, expected {next}")),
            }
            self.done.store(next, Ordering::Release);
        }
    }

    /// A joiner's way in: epochs on request until its admission has taken
    /// effect, then its handle presented and one synchronized epoch with
    /// the server. The handle out.
    fn activate_and_sync(
        &self,
        group: &Group,
        thread: usize,
        ticket: &JoinTicket,
    ) -> Option<MemberHandle> {
        while !group.is_active(ticket) {
            self.one_more()?;
        }
        let handle = group.wait_active(ticket);
        let token = SplitBarrier::arrive(group, present_handle(group, thread, handle)?);
        self.through(token.episode());
        ok_or_report(thread, "joiner wait", wait_never(group, token))?;
        live()?;
        Some(handle)
    }
}

/// Stale-generation scenario over a two-slot group: member A leaves, its
/// slot is re-claimed by joiner J at a bumped generation, and A's retained
/// handle, presented through `present` and then through the credentialed
/// [`ReconfigBarrier::arrive`], must be refused with exactly
/// [`BarrierError::StaleGeneration`] — on every schedule, including those
/// where the probe races J's activation. A presentation that forgets the
/// generation ([`crate::mutants::forged_rank`]) lets the stale
/// handle into the re-occupied slot, which this scenario reports as a
/// protocol error the moment the probe returns anything else.
pub fn stale_generation_with(
    name: impl Into<String>,
    backend: BackendKind,
    present: fn(&Group, &MemberHandle) -> Result<usize, BarrierError>,
) -> Scenario {
    scenario(
        name,
        3,
        move || {
            let flag = || ShadowU32::new(0);
            // No fuzzy ledger: this scenario checks the credential
            // lifecycle, so a hang is reported as the deadlock it is.
            let group = shadow_group(backend, 2, 2);
            let state = (group, flag(), flag(), flag(), flag(), Pump::new());
            (state, Vec::new())
        },
        move |(group, left, joined, a_done, j_done, pump), id| match id {
            0 => stale_generation_leaver(group, (left, joined, a_done), present),
            1 => {
                let slot = present_handle(group, 1, founder(1))?;
                sync_epoch_zero(group, 1, slot)?;
                pump.serve(group, slot, j_done)
            }
            _ => stale_generation_reuser(group, (left, joined, a_done, j_done), pump),
        },
        |_| None,
    )
}

/// [`stale_generation_with`] over the real shadow-domain group, whose
/// presentation is [`ReconfigBarrier::rank`].
#[must_use]
pub fn stale_generation(backend: BackendKind) -> Scenario {
    let name = format!("reconfig/{}/stale-generation", backend.name());
    stale_generation_with(name, backend, Group::rank)
}

/// Slot `slot`'s full-strength episode, which must release epoch 0.
fn sync_epoch_zero(group: &Group, thread: usize, slot: usize) -> Option<()> {
    match ok_or_report(thread, "sync", sync(group, slot))? {
        0 => Some(()),
        e => protocol_error(
            thread,
            format!("expected release at epoch 0, sync returned {e}"),
        ),
    }
}

fn stale_generation_leaver(
    group: &Group,
    (left, joined, a_done): (&ShadowU32, &ShadowU32, &ShadowU32),
    present: fn(&Group, &MemberHandle) -> Result<usize, BarrierError>,
) -> Option<()> {
    // Epoch 0 at full strength, then depart. The departure bumps the slot
    // generation and frees the slot, so the retained handle is stale from
    // here on.
    let handle = founder(0);
    sync_epoch_zero(group, 0, present_handle(group, 0, handle)?)?;
    live()?;
    ok_or_report(0, "leave", group.leave(handle))?;
    left.store(1, Ordering::Release);
    // Probe only once the slot has been re-claimed, so the stale
    // presentation races a live re-occupant rather than an empty slot.
    ShadowSync::wait_until(StallPolicy::Spin, || joined.load(Ordering::Acquire) == 1);
    live()?;
    let refused = |what: &str, probe: Result<usize, BarrierError>| match probe {
        Err(BarrierError::StaleGeneration {
            slot,
            held,
            current,
        }) if slot == 0 && held == 0 && current >= 1 => Some(()),
        Ok(slot) => protocol_error(0, format!("{what}: stale handle accepted as slot {slot}")),
        Err(err) => report_err(0, what, &err),
    };
    refused("stale probe", present(group, &handle))?;
    // The credentialed arrival, checked on every call, must refuse it too.
    let arrival = ReconfigBarrier::arrive(group, &handle).map(|token| token.participant());
    refused("stale arrival", arrival)?;
    a_done.store(1, Ordering::Release);
    Some(())
}

fn stale_generation_reuser(
    group: &Group,
    (left, joined, a_done, j_done): (&ShadowU32, &ShadowU32, &ShadowU32, &ShadowU32),
    pump: &Pump,
) -> Option<()> {
    // The departure freed slot 0 before it returned, so the join below
    // cannot see GroupFull.
    ShadowSync::wait_until(StallPolicy::Spin, || left.load(Ordering::Acquire) == 1);
    live()?;
    let ticket = ok_or_report(2, "reuse join", group.join())?;
    if ticket.slot() != 0 || ticket.generation() == 0 {
        return protocol_error(
            2,
            format!("expected to reuse slot 0 at a bumped generation, got {ticket:?}"),
        );
    }
    joined.store(1, Ordering::Release);
    let handle = pump.activate_and_sync(group, 2, &ticket)?;
    // Leave only after the stale probe resolved, so the probe always
    // races a live re-occupant.
    ShadowSync::wait_until(StallPolicy::Spin, || a_done.load(Ordering::Acquire) == 1);
    live()?;
    ok_or_report(2, "reuse leave", group.leave(handle))?;
    j_done.store(1, Ordering::Release);
    Some(())
}

/// Join/evict-race scenario: a joiner stages into a three-slot group with
/// no ordering constraints while the server evicts the idle founder, so
/// the staged admission and the removal race into the same (or adjacent)
/// boundaries across schedules. Liveness and final agreement are asserted:
/// every sync returns, the joiner activates and departs cleanly, and the
/// group converges to the server alone.
#[must_use]
pub fn join_evict_race(backend: BackendKind) -> Scenario {
    scenario(
        format!("reconfig/{}/join-evict-race", backend.name()),
        3,
        move || {
            let full = ledger(2);
            let state = (
                shadow_group(backend, 3, 2),
                ShadowU32::new(0),
                Pump::new(),
                Arc::clone(&full),
            );
            (state, vec![full])
        },
        |(group, j_done, pump, full), id| match id {
            // The evictee synchronizes once and goes silent; the server
            // removes it. Arriving only for the completed epoch 0 honors
            // the eviction contract on every schedule.
            0 => full.rank_episode(group, present_handle(group, 0, founder(0))?, 0, 0),
            1 => join_evict_race_server(group, full, j_done, pump),
            _ => {
                // No gating: the join races the founders' epoch 0 and the
                // eviction across schedules. Slot 2 is free on every one.
                let ticket = ok_or_report(2, "race join", group.join())?;
                let handle = pump.activate_and_sync(group, 2, &ticket)?;
                ok_or_report(2, "joiner leave", group.leave(handle))?;
                j_done.store(1, Ordering::Release);
                Some(())
            }
        },
        |_| None,
    )
}

fn join_evict_race_server(
    group: &Group,
    full: &Ledger,
    j_done: &ShadowU32,
    pump: &Pump,
) -> Option<()> {
    let slot = present_handle(group, 1, founder(1))?;
    full.rank_episode(group, slot, 0, 0)?;
    // Epoch 0 is complete, so the founder's last arrival is behind the
    // in-flight epoch and the eviction contract holds.
    ok_or_report(1, "evict", group.evict_member(0, 0))?;
    // Epochs on request until the joiner has activated, synchronized and
    // departed; the eviction's stand-in covers the founder's arrival.
    pump.serve(group, slot, j_done)?;
    live()?;
    // Convergence: the evictee is gone and the joiner left — the server
    // must be alone, on every schedule.
    let members = group.members();
    live()?;
    if members != 1 {
        return protocol_error(
            1,
            format!("expected 1 member after convergence, found {members}"),
        );
    }
    Some(())
}

/// Evict-during-join scenario over a two-slot group with one founder, the
/// server: joiner J stages into slot 1 while supervisor S has episodes
/// pumped until that admission applies (at most the backend's
/// [`BackendKind::admission_lag`] of them), then evicts the slot through
/// the trait's [`SplitBarrier::evict`], which takes no credential. J's
/// ticket must then be stale, on every schedule, including those that stop
/// J between staging its admission and reading the generation its ticket
/// carries: a ticket that carried the moved-on generation would share the
/// handle of the slot's next occupant, a second live handle on one slot.
/// If the admission has not applied when S's episodes end, S evicts
/// nothing and J activates.
#[must_use]
pub fn evict_during_join(backend: BackendKind) -> Scenario {
    let lag = backend.admission_lag();
    scenario(
        format!("reconfig/{}/evict-during-join", backend.name()),
        3,
        move || {
            let flag = || ShadowU32::new(0);
            // No fuzzy ledger, as in the stale-generation scenario.
            let group = shadow_group(backend, 2, 1);
            let flags = [flag(), flag(), flag(), flag()];
            ((group, flags, Pump::new()), Vec::new())
        },
        move |(group, [opened, joining, verdict, j_done], pump), id| match id {
            0 => {
                let slot = present_handle(group, 0, founder(0))?;
                sync_epoch_zero(group, 0, slot)?;
                opened.store(1, Ordering::Release);
                pump.serve(group, slot, j_done)
            }
            1 => evict_during_join_supervisor(group, [opened, joining, verdict], pump, lag),
            _ => evict_during_join_joiner(group, (joining, verdict, j_done), pump),
        },
        |_| None,
    )
}

/// The supervisor's verdict: J's join kept, or its slot evicted.
const KEPT: u32 = 1;
const EVICTED: u32 = 2;

fn evict_during_join_supervisor(
    group: &Group,
    [opened, joining, verdict]: [&ShadowU32; 3],
    pump: &Pump,
    lag: u64,
) -> Option<()> {
    // Membership is read only between episodes: a join that an episode in
    // flight admits would be counted in the one pumped next, which J never
    // arrives for.
    let ready = || opened.load(Ordering::Acquire) == 1 && joining.load(Ordering::Acquire) == 1;
    ShadowSync::wait_until(StallPolicy::Spin, ready);
    live()?;
    for _ in 0..lag {
        if group.is_member(1) {
            break;
        }
        pump.one_more()?;
    }
    let kept = !group.is_member(1);
    if !kept {
        ok_or_report(1, "evict", SplitBarrier::evict(group, 1))?;
    }
    verdict.store(if kept { KEPT } else { EVICTED }, Ordering::Release);
    Some(())
}

fn evict_during_join_joiner(
    group: &Group,
    (joining, verdict, j_done): (&ShadowU32, &ShadowU32, &ShadowU32),
    pump: &Pump,
) -> Option<()> {
    joining.store(1, Ordering::Release);
    let ticket = ok_or_report(2, "join", group.join())?;
    ShadowSync::wait_until(StallPolicy::Spin, || verdict.load(Ordering::Acquire) != 0);
    live()?;
    let evicted = verdict.load(Ordering::Acquire) == EVICTED;
    while !evicted && !group.is_active(&ticket) {
        pump.one_more()?;
    }
    // An evicted ticket is presented as `wait_active` would issue it: one
    // left at the moved-on generation would never settle.
    let handle = if evicted {
        MemberHandle::from_parts(ticket.slot(), ticket.generation())
    } else {
        group.wait_active(&ticket)
    };
    match (group.rank(&handle), evicted) {
        (Ok(_), false) | (Err(BarrierError::StaleGeneration { .. }), true) => {}
        (Err(BarrierError::NotAParticipant { .. }), true) => {
            return protocol_error(
                2,
                format!("an evicted join's {ticket:?} holds its slot's next generation"),
            )
        }
        (presented, _) => return protocol_error(2, format!("{ticket:?} presented: {presented:?}")),
    }
    j_done.store(1, Ordering::Release);
    Some(())
}
