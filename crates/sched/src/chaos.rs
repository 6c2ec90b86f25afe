//! Real-thread chaos harness for dynamic membership.
//!
//! Everything the `fuzzy-check` model checker proves about the
//! reconfiguration protocol, it proves over *shadow* threads. This module
//! is the complementary evidence: a seeded scenario driver that injects
//! **join / leave / crash(panic) / delay / spurious-timeout** events into
//! live episodes running on real OS threads (or on the
//! [`AsyncExecutor`] M:N runtime) over a
//! [`ReconfigBarrier`], and asserts two things after thousands of churn
//! events:
//!
//! * **liveness** — after every injected event the wrapper epoch advances
//!   again within a generous watchdog (a stuck epoch is a deadlock or a
//!   lost wakeup, and fails the run loudly);
//! * **agreement** — the driver's view of membership matches the
//!   barrier's, every member observes release epochs in strictly
//!   increasing order, and after a quiescent teardown the sole survivor's
//!   last release epoch is exactly one behind the barrier's final epoch.
//!
//! Per-event recovery latency (injection until the next epoch
//! publication) is recorded into a [`StallHistogram`]; the
//! `exp_chaos_churn` bin exports it in the schema-validated stats JSON.
//!
//! The harness honors the eviction contract by construction: a crash is a
//! one-shot command the victim consumes *before* arriving, so it provably
//! has no in-flight arrival when the driver evicts its slot. The contract
//! assertion inside the barrier turns any violation into a loud failure
//! instead of a corrupted count.
//!
//! The driver drains the group to quiescence (every member idle at its
//! loop top, every command consumed) before choosing each event, so the
//! event schedule — kinds, victims, and counts — is a deterministic
//! function of the seed alone.

use crate::async_exec::AsyncExecutor;
use crate::executor::BarrierChoice;
use fuzzy_barrier::reconfig::{JoinTicket, MemberHandle, ReconfigBarrier, ReconfigToken};
use fuzzy_barrier::{
    BarrierError, Deadline, HistogramSnapshot, StallHistogram, StallPolicy, WaitOutcome,
};
use fuzzy_util::SplitMix64;
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::pin;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Waker};
use std::time::{Duration, Instant};

/// Which runtime the chaos members run on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosMode {
    /// One OS thread per member.
    Threaded,
    /// Members are tasks on the M:N [`AsyncExecutor`]; joiners await
    /// their activation future, so the executor holds the *task* — not a
    /// thread — until the join takes effect.
    Async {
        /// Worker threads backing the executor.
        workers: usize,
    },
}

impl ChaosMode {
    /// The mode's stable name, as exported in stats JSON.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ChaosMode::Threaded => "threaded",
            ChaosMode::Async { .. } => "async",
        }
    }
}

/// Configuration for one chaos run.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// The inner backend of the [`ReconfigBarrier`], built once at capacity.
    pub backend: BarrierChoice,
    /// Members alive at the start (at least 2).
    pub initial: usize,
    /// Membership slot capacity (bounds concurrent members).
    pub capacity: usize,
    /// Churn events to inject.
    pub events: usize,
    /// RNG seed; equal seeds give equal event schedules.
    pub seed: u64,
    /// Runtime the members execute on.
    pub mode: ChaosMode,
    /// Stall policy for the wrapper and the inner backends.
    pub policy: StallPolicy,
    /// Watchdog: how long the epoch may sit still after an injected event
    /// before the run is declared dead.
    pub watchdog: Duration,
}

impl ChaosConfig {
    /// A small default scenario over `backend`, suitable for CI smoke.
    #[must_use]
    pub fn smoke(backend: BarrierChoice, mode: ChaosMode, seed: u64) -> Self {
        ChaosConfig {
            backend,
            initial: 3,
            capacity: 8,
            events: 120,
            seed,
            mode,
            policy: StallPolicy::yielding(),
            watchdog: Duration::from_secs(20),
        }
    }
}

/// Per-event-kind injection counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    /// Members that joined (staged, then activated at a boundary).
    pub joins: u64,
    /// Members that left voluntarily.
    pub leaves: u64,
    /// Members that crashed (contained panic) and were evicted.
    pub crashes: u64,
    /// Delays injected into barrier regions.
    pub delays: u64,
    /// Spurious bounded-wait timeouts injected (near-instant deadline,
    /// then retry on the same token).
    pub spurious: u64,
}

impl EventCounts {
    /// Total injected events.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.joins + self.leaves + self.crashes + self.delays + self.spurious
    }
}

/// Outcome of one chaos run. Every liveness and agreement assertion
/// already passed if this was returned at all (violations panic inside
/// [`run_chaos`]).
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The runtime the members ran on.
    pub mode: ChaosMode,
    /// Injected event counts by kind.
    pub events: EventCounts,
    /// Wrapper episodes (epoch boundaries) completed over the run.
    pub episodes: u64,
    /// The wrapper epoch after teardown.
    pub final_epoch: u64,
    /// Live members after teardown (always 1: the designated survivor).
    pub final_members: usize,
    /// Membership and release-epoch agreement held at quiescence and
    /// after teardown.
    pub agreement: bool,
    /// Spurious timeouts that actually fired (the injected deadline can
    /// also be beaten by the release; only real timeouts retried).
    pub spurious_hits: u64,
    /// Per-event recovery latency (nanoseconds, power-of-two buckets):
    /// injection until the next epoch publication.
    pub recovery: HistogramSnapshot,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
}

/// One-shot command slot values.
const CMD_RUN: u32 = 0;
const CMD_LEAVE: u32 = 1;
const CMD_CRASH: u32 = 2;
const CMD_DELAY: u32 = 3;
const CMD_SPURIOUS: u32 = 4;

/// Shared control block between the driver and one member.
///
/// Command discipline: only the driver writes a non-[`CMD_RUN`] value
/// (and only after observing `cmd == CMD_RUN`); only the member resets a
/// consumed one-shot back to [`CMD_RUN`], at the *end* of the episode it
/// affected. Terminal commands (leave/crash) are never reset, so an
/// exiting member can never be re-targeted — the race where a fresh
/// command lands in a slot nobody will ever read again is structurally
/// impossible.
#[derive(Debug, Default)]
struct MemberCtl {
    cmd: AtomicU32,
    /// Slot and generation, published once active (joiners learn theirs
    /// only after activation); the driver needs them to evict a corpse.
    slot: AtomicUsize,
    generation: AtomicU64,
    /// The member is active and looping episodes.
    ready: AtomicBool,
    /// The member's loop has exited (left, crashed, or stopped).
    gone: AtomicBool,
    /// The exit was a crash: the driver must evict the slot.
    crashed: AtomicBool,
    /// Highest release epoch the member observed (`u64::MAX` = none yet).
    last_epoch: AtomicU64,
    /// Spurious timeouts the member actually hit.
    spurious_hits: AtomicU64,
}

impl MemberCtl {
    fn fresh() -> Arc<MemberCtl> {
        let ctl = MemberCtl::default();
        ctl.last_epoch.store(u64::MAX, Ordering::Relaxed);
        Arc::new(ctl)
    }

    fn publish(&self, h: &MemberHandle) {
        self.slot.store(h.slot(), Ordering::Release);
        self.generation.store(h.generation(), Ordering::Release);
        self.ready.store(true, Ordering::Release);
    }

    fn exit(&self) {
        self.gone.store(true, Ordering::Release);
    }
}

/// How an injected delay stalls the barrier region.
fn region_delay() {
    std::thread::sleep(Duration::from_micros(50));
}

/// Checks one release outcome against the member's history: outcomes name
/// the arrival epoch, and release epochs are strictly increasing — the
/// per-member face of release-epoch agreement.
fn check_release(ctl: &MemberCtl, arrived_epoch: u64, released_epoch: u64) {
    assert_eq!(
        released_epoch, arrived_epoch,
        "release outcome must name the arrival epoch"
    );
    let prev = ctl.last_epoch.swap(released_epoch, Ordering::AcqRel);
    assert!(
        prev == u64::MAX || released_epoch > prev,
        "release epochs regressed: {prev} then {released_epoch}"
    );
}

/// The episode loop every chaos member runs, on either runtime. Returns
/// when told to stop, leave, or crash. `stop` is only raised once the
/// member is the sole survivor, so a pre-arrive exit can never strand a
/// peer.
///
/// `wait` is the one thing the runtimes do differently: a thread blocks
/// in [`ReconfigBarrier::wait`], so its future is ready when made and the
/// whole loop runs in one poll ([`run_blocking`]); a task awaits
/// [`ReconfigBarrier::wait_future`], so a member waiting on its peers
/// yields its worker to other tasks instead of pinning it — `M ≫ N`
/// members multiplex over `N` workers without deadlock.
async fn member_body<F>(
    rb: &ReconfigBarrier,
    h: MemberHandle,
    ctl: &MemberCtl,
    stop: &AtomicBool,
    wait: impl Fn(ReconfigToken) -> F,
) where
    F: Future<Output = Result<WaitOutcome, BarrierError>>,
{
    loop {
        let cmd = ctl.cmd.load(Ordering::Acquire);
        match cmd {
            CMD_LEAVE => {
                rb.leave(h).expect("chaos leave must be legal");
                ctl.exit();
                return;
            }
            CMD_CRASH => {
                // A contained panic, exactly like a worker body dying.
                // The member provably has no in-flight arrival here; the
                // driver observes `crashed` and evicts the slot.
                let _ = catch_unwind(AssertUnwindSafe(|| panic!("chaos: injected crash")));
                ctl.crashed.store(true, Ordering::Release);
                ctl.exit();
                return;
            }
            _ => {
                if stop.load(Ordering::Acquire) {
                    ctl.exit();
                    return;
                }
                let token = rb.arrive(&h).expect("live handle must arrive");
                let arrived = token.epoch();
                if cmd == CMD_DELAY {
                    region_delay();
                }
                let outcome = if cmd == CMD_SPURIOUS {
                    // The bounded probe is blocking but near-instant; the
                    // recovery retry is the runtime's own wait.
                    match rb.wait_deadline(&token, Deadline::after(Duration::from_micros(1))) {
                        Ok(o) => o,
                        Err(BarrierError::Timeout { .. }) => {
                            // The injected fault fired: the deadline beat
                            // the release while the arrival stands.
                            // Retrying the same token must recover.
                            ctl.spurious_hits.fetch_add(1, Ordering::Relaxed);
                            wait(token).await.expect("retry after spurious timeout")
                        }
                        Err(err) => panic!("chaos wait failed: {err}"),
                    }
                } else {
                    wait(token).await.expect("chaos wait must release")
                };
                check_release(ctl, arrived, outcome.episode);
                if cmd != CMD_RUN {
                    let _ =
                        ctl.cmd
                            .compare_exchange(cmd, CMD_RUN, Ordering::AcqRel, Ordering::Relaxed);
                }
            }
        }
    }
}

/// Runs a future whose every await is ready, as a threaded member's is,
/// to completion in one poll.
fn run_blocking(future: impl Future<Output = ()>) {
    let polled = pin!(future).poll(&mut Context::from_waker(Waker::noop()));
    assert!(polled.is_ready(), "a blocking member never pends");
}

/// What a freshly spawned member starts from: a founder already holds an
/// active handle; a joiner holds a staged ticket and must first wait for
/// its activation boundary.
enum Role {
    Founder(MemberHandle),
    Joiner(JoinTicket),
}

fn spawn_member<'scope>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    executor: Option<&AsyncExecutor>,
    rb: &Arc<ReconfigBarrier>,
    stop: &Arc<AtomicBool>,
    ctl: &Arc<MemberCtl>,
    role: Role,
) {
    let rb = Arc::clone(rb);
    let stop = Arc::clone(stop);
    let ctl = Arc::clone(ctl);
    match executor {
        None => {
            scope.spawn(move || {
                let h = match role {
                    Role::Founder(h) => h,
                    Role::Joiner(ticket) => {
                        // Stop-aware activation wait: `wait_active` alone
                        // would pin this thread forever if the driver
                        // declares the run dead while the join is staged.
                        while !rb.is_active(&ticket) {
                            if stop.load(Ordering::Acquire) {
                                ctl.exit();
                                return;
                            }
                            std::thread::yield_now();
                        }
                        rb.wait_active(&ticket)
                    }
                };
                ctl.publish(&h);
                run_blocking(member_body(&rb, h, &ctl, &stop, |token| {
                    std::future::ready(rb.wait(&token))
                }));
            });
        }
        Some(exec) => {
            exec.spawn(async move {
                let h = match role {
                    Role::Founder(h) => h,
                    // The integration under test: the executor holds this
                    // task until the join takes effect.
                    Role::Joiner(ticket) => rb.activation_future(&ticket).await,
                };
                ctl.publish(&h);
                member_body(&rb, h, &ctl, &stop, |token| rb.wait_future(token)).await;
            });
        }
    }
}

/// Runs one seeded chaos scenario to completion, panicking on any
/// liveness or agreement violation.
///
/// The driver injects `config.events` events one at a time. Before each
/// event it drains the group to quiescence (every member gone or idle
/// with its command slot free), which both serializes recovery
/// measurement and makes the event schedule a pure function of the seed.
/// After each injection it waits — under the watchdog — for the epoch to
/// advance past the injection point, and records the elapsed nanoseconds
/// as that event's recovery latency.
///
/// Teardown is quiescent: injection stops, every member but a designated
/// survivor is ordered to leave, and the survivor is stopped only once it
/// is alone — so nobody is ever stranded mid-episode.
///
/// # Panics
///
/// Panics if the epoch stalls past `config.watchdog` after an event
/// (deadlock / lost wakeup), if any member observes out-of-order release
/// epochs, or if the driver's and the barrier's membership views ever
/// diverge.
#[must_use]
pub fn run_chaos(config: ChaosConfig) -> ChaosReport {
    assert!(
        config.initial >= 2,
        "chaos needs at least two initial members"
    );
    assert!(config.capacity >= config.initial);
    let started = Instant::now();
    let backend = config.backend;
    let policy = config.policy;
    let (rb, handles) =
        ReconfigBarrier::with_policy_in(config.capacity, config.initial, policy, move |n| {
            backend.build(n, policy)
        });
    let rb = Arc::new(rb);
    let stop = Arc::new(AtomicBool::new(false));
    let recovery = StallHistogram::new();
    let mut rng = SplitMix64::seed_from_u64(config.seed);
    let mut counts = EventCounts::default();
    let mut roster: Vec<Arc<MemberCtl>> = Vec::new();

    let executor = match config.mode {
        ChaosMode::Async { workers } => Some(AsyncExecutor::new(workers)),
        ChaosMode::Threaded => None,
    };

    std::thread::scope(|s| {
        // A liveness violation must kill the run, not hang it: members
        // blocked in waits would pin `thread::scope` forever after the
        // driver's panic. Raising `stop` and poisoning first makes every
        // member either exit at its loop top or unwind out of its wait,
        // so the scope joins and the panic propagates.
        let fail = |what: &str| -> ! {
            stop.store(true, Ordering::Release);
            rb.poison();
            panic!(
                "chaos liveness violation: {what} (epoch {}, {} members)",
                rb.epoch(),
                rb.members(),
            );
        };
        let watchdog_wait = |pred: &mut dyn FnMut() -> bool, what: &str| {
            let deadline = Instant::now() + config.watchdog;
            while !pred() {
                if Instant::now() >= deadline {
                    fail(what);
                }
                std::thread::yield_now();
            }
        };
        // Members the driver may target: active, running, command free.
        // At quiescence this is exactly the live membership.
        let targets = |roster: &[Arc<MemberCtl>]| -> Vec<usize> {
            roster
                .iter()
                .enumerate()
                .filter(|(_, c)| {
                    c.ready.load(Ordering::Acquire)
                        && !c.gone.load(Ordering::Acquire)
                        && c.cmd.load(Ordering::Acquire) == CMD_RUN
                })
                .map(|(i, _)| i)
                .collect()
        };
        let quiescent = |roster: &[Arc<MemberCtl>]| -> bool {
            roster.iter().all(|c| {
                c.gone.load(Ordering::Acquire)
                    || (c.ready.load(Ordering::Acquire) && c.cmd.load(Ordering::Acquire) == CMD_RUN)
            })
        };

        for h in handles {
            let ctl = MemberCtl::fresh();
            spawn_member(s, executor.as_ref(), &rb, &stop, &ctl, Role::Founder(h));
            roster.push(ctl);
        }

        for _ in 0..config.events {
            // Drain to the canonical state first: every prior command
            // consumed, every joiner activated. From here the live set —
            // and therefore the event choice — depends only on the seed.
            watchdog_wait(&mut || quiescent(&roster), "group never quiesced");
            let candidates = targets(&roster);
            let live = candidates.len();
            let can_shrink = live > 2;
            let can_grow = live < config.capacity;
            let kind = loop {
                match rng.range_u64(0, 99) {
                    0..=19 if can_grow => break CMD_RUN, // join: no victim
                    20..=39 if can_shrink => break CMD_LEAVE,
                    40..=54 if can_shrink => break CMD_CRASH,
                    55..=79 => break CMD_DELAY,
                    80..=99 => break CMD_SPURIOUS,
                    _ => {}
                }
            };

            let e0 = rb.epoch();
            let injected_at = Instant::now();
            if kind == CMD_RUN {
                // A full group frees a slot only when a member departs;
                // retry under the watchdog.
                let ticket = {
                    let deadline = Instant::now() + config.watchdog;
                    loop {
                        match rb.join() {
                            Ok(t) => break t,
                            Err(_) => {
                                assert!(
                                    Instant::now() < deadline,
                                    "chaos liveness violation: join never admitted"
                                );
                                std::thread::yield_now();
                            }
                        }
                    }
                };
                let ctl = MemberCtl::fresh();
                spawn_member(s, executor.as_ref(), &rb, &stop, &ctl, Role::Joiner(ticket));
                roster.push(ctl);
                counts.joins += 1;
            } else {
                let victim = &roster[candidates[rng.below(live)]];
                victim
                    .cmd
                    .compare_exchange(CMD_RUN, kind, Ordering::AcqRel, Ordering::Acquire)
                    .expect("only the driver writes commands into a free slot");
                match kind {
                    CMD_LEAVE => counts.leaves += 1,
                    CMD_CRASH => {
                        counts.crashes += 1;
                        // Wait out the contained panic, then evict the
                        // corpse so its peers release. The victim died at
                        // its loop top — no in-flight arrival — so the
                        // eviction contract holds by construction.
                        watchdog_wait(
                            &mut || victim.crashed.load(Ordering::Acquire),
                            "crash victim never died",
                        );
                        rb.evict(
                            victim.slot.load(Ordering::Acquire),
                            victim.generation.load(Ordering::Acquire),
                        )
                        .expect("evicting a crashed member must succeed");
                    }
                    CMD_DELAY => counts.delays += 1,
                    _ => counts.spurious += 1,
                }
            }
            // Liveness after every single event: the epoch must turn
            // over again. Injection-to-turnover is the recovery latency.
            let deadline = Instant::now() + config.watchdog;
            while rb.epoch() <= e0 {
                if Instant::now() >= deadline {
                    let dump: Vec<String> = roster
                        .iter()
                        .enumerate()
                        .map(|(i, c)| {
                            format!(
                                "member {i}: slot {} gen {} cmd {} ready {} gone {} last_epoch {}",
                                c.slot.load(Ordering::Acquire),
                                c.generation.load(Ordering::Acquire),
                                c.cmd.load(Ordering::Acquire),
                                c.ready.load(Ordering::Acquire),
                                c.gone.load(Ordering::Acquire),
                                c.last_epoch.load(Ordering::Acquire),
                            )
                        })
                        .collect();
                    fail(&format!(
                        "epoch stuck after event kind {kind}\n{}",
                        dump.join("\n")
                    ));
                }
                std::thread::yield_now();
            }
            let nanos = u64::try_from(injected_at.elapsed().as_nanos()).unwrap_or(u64::MAX);
            recovery.record(nanos);
        }

        // Quiescence, then agreement check #1: the driver's membership
        // view matches the barrier's.
        watchdog_wait(
            &mut || quiescent(&roster),
            "outstanding commands never drained",
        );
        let live = targets(&roster);
        assert_eq!(
            rb.members(),
            live.len(),
            "membership disagreement at quiescence"
        );

        // Teardown: everyone but one designated survivor leaves; the
        // survivor keeps episodes flowing through the departures' stand-in
        // arrivals, and is stopped only once it is alone.
        let mut live = live;
        let survivor = live.pop().expect("at least the survivor is live");
        for &i in &live {
            roster[i]
                .cmd
                .compare_exchange(CMD_RUN, CMD_LEAVE, Ordering::AcqRel, Ordering::Acquire)
                .expect("command slots are free at quiescence");
        }
        watchdog_wait(
            &mut || live.iter().all(|&i| roster[i].gone.load(Ordering::Acquire)),
            "teardown leaves never completed",
        );
        stop.store(true, Ordering::Release);
        watchdog_wait(
            &mut || roster[survivor].gone.load(Ordering::Acquire),
            "survivor never stopped",
        );
        if let Some(exec) = &executor {
            exec.wait_idle();
        }
        // Agreement check #2: the survivor ran the last episode solo, so
        // its last release epoch is exactly one behind the final epoch.
        let final_epoch = rb.epoch();
        let survivor_last = roster[survivor].last_epoch.load(Ordering::Acquire);
        assert_eq!(rb.members(), 1, "teardown must leave exactly the survivor");
        assert!(
            survivor_last != u64::MAX && survivor_last + 1 == final_epoch,
            "release-epoch disagreement: survivor saw {survivor_last}, barrier at {final_epoch}"
        );
    });

    let spurious_hits = roster
        .iter()
        .map(|c| c.spurious_hits.load(Ordering::Acquire))
        .sum();
    ChaosReport {
        mode: config.mode,
        events: counts,
        episodes: rb.stats().episodes,
        final_epoch: rb.epoch(),
        final_members: rb.members(),
        agreement: true,
        spurious_hits,
        recovery: recovery.snapshot(),
        elapsed: started.elapsed(),
    }
}

/// Configuration for one seeded **transport** chaos run: a loopback mesh
/// whose links drop / delay / duplicate / reorder frames at the given
/// rates while every endpoint runs live [`fuzzy_net::NetBarrier`]
/// episodes.
///
/// This is the network-layer sibling of [`ChaosConfig`]: membership chaos
/// attacks the reconfiguration protocol, transport chaos attacks the
/// dissemination protocol's recovery path (per-round timeouts, claimed
/// retransmission, nacks). The assertion discipline is the same —
/// liveness under a watchdog, release-episode agreement across
/// endpoints.
#[derive(Debug, Clone, Copy)]
pub struct NetChaosConfig {
    /// Mesh endpoints (each one local participant).
    pub nodes: usize,
    /// Episodes every endpoint must complete.
    pub episodes: u64,
    /// Seed for the fabric's per-link fault dice. Unlike membership
    /// chaos, the *counts* are not run-deterministic: recovery
    /// retransmissions depend on real-time round expiry, so the number of
    /// frames rolled against the dice varies between runs.
    pub seed: u64,
    /// Per-frame drop probability, permille.
    pub drop_permille: u16,
    /// Per-frame duplicate probability, permille.
    pub dup_permille: u16,
    /// Per-frame delay (late but in-order) probability, permille.
    pub delay_permille: u16,
    /// Per-frame reorder probability, permille.
    pub reorder_permille: u16,
    /// Receive budget per dissemination round before recovery runs.
    pub round_timeout: Duration,
    /// Watchdog per episode wait; expiry fails the run loudly.
    pub watchdog: Duration,
}

impl NetChaosConfig {
    /// A CI-smoke scenario: 4 endpoints, moderate fault rates on every
    /// event kind.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        NetChaosConfig {
            nodes: 4,
            episodes: 60,
            seed,
            drop_permille: 50,
            dup_permille: 50,
            delay_permille: 50,
            reorder_permille: 50,
            round_timeout: Duration::from_millis(20),
            watchdog: Duration::from_secs(30),
        }
    }
}

/// Outcome of one transport chaos run. Liveness and agreement already
/// held if this was returned (violations panic inside [`run_net_chaos`]).
#[derive(Debug, Clone)]
pub struct NetChaosReport {
    /// Episodes completed per endpoint (equal across endpoints).
    pub episodes: u64,
    /// Frames dropped / duplicated / delayed / reordered by the fabric.
    pub faults: fuzzy_net::FaultCounts,
    /// Retransmissions the recovery path performed, summed over
    /// endpoints.
    pub retries: u64,
    /// Nack frames sent, summed over endpoints.
    pub nacks: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

/// Runs seeded transport chaos: every endpoint completes
/// `config.episodes` episodes over a faulty loopback fabric, with every
/// wait under the watchdog deadline.
///
/// # Panics
///
/// Panics if any wait times out (a wedge the recovery path failed to
/// break), errors, or releases the wrong episode — and if the fault rates
/// were nonzero but the fabric never actually injected a fault (a
/// vacuously green run is a configuration bug, not a pass).
#[must_use]
pub fn run_net_chaos(config: NetChaosConfig) -> NetChaosReport {
    use fuzzy_barrier::SplitBarrier;
    use fuzzy_net::{FaultPlan, LoopbackMesh, NetBarrier, NetConfig};

    assert!(config.nodes >= 2, "transport chaos needs a real mesh");
    let started = Instant::now();
    let plan = FaultPlan {
        seed: config.seed,
        drop_permille: config.drop_permille,
        dup_permille: config.dup_permille,
        delay_permille: config.delay_permille,
        reorder_permille: config.reorder_permille,
    };
    let mesh = LoopbackMesh::with_faults(config.nodes, plan);
    let net_config = NetConfig::new()
        .round_timeout(Some(config.round_timeout))
        // The watchdog is the only legitimate stop: recovery must keep
        // retrying for the whole wait, not declare a live peer dead.
        .resend_limit(u32::MAX);
    let barriers: Vec<Arc<NetBarrier>> = mesh
        .endpoints()
        .into_iter()
        .map(|t| NetBarrier::start(Arc::new(t), net_config))
        .collect();
    std::thread::scope(|s| {
        for b in &barriers {
            let b = Arc::clone(b);
            s.spawn(move || {
                for episode in 0..config.episodes {
                    let token = b.arrive(0);
                    let outcome = b
                        .wait_deadline(token, Deadline::after(config.watchdog))
                        .unwrap_or_else(|e| {
                            panic!(
                                "net chaos liveness violation at rank {} episode {episode}: {e}",
                                b.rank()
                            )
                        });
                    assert_eq!(
                        outcome.episode,
                        episode,
                        "release-episode disagreement at rank {}",
                        b.rank()
                    );
                }
            });
        }
    });
    let faults = mesh.fault_counts();
    if plan.total() > 0 && config.episodes * (config.nodes as u64) >= 100 {
        assert!(
            faults.drops + faults.dups + faults.delays + faults.reorders > 0,
            "fault rates were set but the fabric injected nothing"
        );
    }
    let (retries, nacks) = barriers.iter().fold((0, 0), |(r, n), b| {
        let s = b.net_stats();
        (r + s.retries, n + s.nacks)
    });
    NetChaosReport {
        episodes: config.episodes,
        faults,
        retries,
        nacks,
        elapsed: started.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threaded_smoke_survives_churn() {
        let r = run_chaos(ChaosConfig::smoke(
            BarrierChoice::Central,
            ChaosMode::Threaded,
            42,
        ));
        assert_eq!(r.events.total(), 120);
        assert!(r.agreement);
        assert_eq!(r.final_members, 1);
        assert!(
            r.episodes >= r.events.total(),
            "every event saw an epoch turn over"
        );
        assert!(
            r.events.joins > 0 && r.events.crashes > 0 && r.events.spurious > 0,
            "the event mix was actually exercised: {:?}",
            r.events
        );
        assert_eq!(
            r.recovery.buckets.iter().sum::<u64>(),
            r.events.total(),
            "one recovery sample per event"
        );
    }

    #[test]
    fn async_smoke_survives_churn() {
        let r = run_chaos(ChaosConfig::smoke(
            BarrierChoice::Dissemination,
            ChaosMode::Async { workers: 3 },
            7,
        ));
        assert!(r.agreement);
        assert_eq!(r.final_members, 1);
        assert_eq!(r.events.total(), 120);
    }

    #[test]
    fn equal_seeds_schedule_equal_events() {
        let a = run_chaos(ChaosConfig::smoke(
            BarrierChoice::Counting,
            ChaosMode::Threaded,
            9,
        ));
        let b = run_chaos(ChaosConfig::smoke(
            BarrierChoice::Counting,
            ChaosMode::Threaded,
            9,
        ));
        assert_eq!(
            a.events, b.events,
            "event schedule must be seed-deterministic"
        );
    }

    #[test]
    fn net_chaos_smoke_survives_transport_faults() {
        let r = run_net_chaos(NetChaosConfig::smoke(11));
        assert_eq!(r.episodes, 60);
        assert!(
            r.faults.drops > 0,
            "drop rate was set but nothing dropped: {:?}",
            r.faults
        );
        assert!(
            r.retries > 0,
            "dropped frames must have forced the recovery path"
        );
    }

    #[test]
    fn net_chaos_exercises_every_fault_kind() {
        let r = run_net_chaos(NetChaosConfig {
            episodes: 120,
            ..NetChaosConfig::smoke(5)
        });
        assert!(r.faults.drops > 0, "{:?}", r.faults);
        assert!(r.faults.dups > 0, "{:?}", r.faults);
        assert!(r.faults.delays > 0, "{:?}", r.faults);
        assert!(r.faults.reorders > 0, "{:?}", r.faults);
    }

    #[test]
    fn tree_and_hier_backends_survive_smoke() {
        for backend in [
            BarrierChoice::Tree { fan_in: 2 },
            BarrierChoice::Hier { shard_size: 2 },
        ] {
            let r = run_chaos(ChaosConfig::smoke(backend, ChaosMode::Threaded, 3));
            assert!(r.agreement, "{backend:?}");
        }
    }
}
