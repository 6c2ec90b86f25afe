//! The message-passing dissemination barrier over a [`Transport`].
//!
//! [`NetBarrier`] implements the [`SplitBarrier`] contract across a mesh
//! of `nodes` endpoints (processes, or threads over the loopback
//! transport), each hosting `locals` local participants. Nothing in the
//! split-phase contract requires shared memory: arrival is a *signal*,
//! release is a *wait*, and the fuzzy region between them is exactly the
//! slack that hides a network round-trip instead of a cache miss.
//!
//! The endpoint is the episode core ([`fuzzy_barrier::Barrier`]) running
//! one more [`Protocol`], `NetRounds`: the core stamps tokens, owns the
//! poison word, the statistics and the one wait loop, and the protocol
//! says how an arrival is signalled and when an episode is released.
//!
//! # Protocol
//!
//! Per episode `e`, an endpoint first aggregates its `locals` local
//! arrivals (a shared-memory counter), then runs the `⌈log₂ nodes⌉` rounds
//! of [`fuzzy_barrier::dissemination`]'s schedule over ranks, one
//! `Signal { e, r }` frame per round. All protocol state is **monotone** —
//! per-round `seen`/`sent` words hold `episode + 1` and only advance via
//! `fetch_max` — so duplicated, reordered, and re-transmitted frames are
//! harmless by construction, and any thread (a waiter, an `is_complete`
//! probe, the transport's sweeper delivering a frame) can *drive* the
//! protocol forward idempotently. Receive is part of the same pump, on the
//! participant's own thread and into a sink over its own call: `arrive`
//! signals first — it drives, which puts every round already due on the
//! wire — and only then [`Transport::poll`]s, so the signal never waits
//! behind a read; every probe of a pending episode polls and then drives.
//! Delivery drives too, so a frame that `arrive`'s poll reads still sends
//! the rounds it makes due before `arrive` returns, and the waiter itself
//! reads the frame that releases it: the barrier region hides the
//! round-trip without a hand-off from a reader thread. That
//! drive-from-anywhere property is what lets the
//! [`fuzzy_barrier::AsyncBarrier`] frontend run unmodified on top: its
//! polls call [`SplitBarrier::is_complete`], which pumps both directions.
//!
//! # Failure model
//!
//! * **Lost frames** are recovered receiver-side: a probe that finds its
//!   episode pending past [`NetConfig::round_timeout`] re-sends the
//!   endpoint's claimed rounds and `Nack`s the source of the first missing
//!   round, which re-transmits. This recovery step is part of the
//!   protocol's release check, so every wait and every probe runs it.
//! * **Peer death** — a non-graceful `link_down`, a send failure, or
//!   [`NetConfig::resend_limit`] exhausted round recoveries — poisons the
//!   local endpoint and broadcasts a `Poison` frame, so every survivor's
//!   wait returns [`BarrierError::Poisoned`] instead of wedging.

use crate::stats::{NetSnapshot, NetStats};
use crate::transport::{FrameSink, Transport};
use crate::wire::{DecodeError, Message};
use fuzzy_barrier::dissemination::{partner, rounds, source};
use fuzzy_barrier::sync::Atomic;
use fuzzy_barrier::{
    ArrivalToken, Barrier, BarrierError, Cx, Deadline, Protocol, RealSync, SplitBarrier,
    StallPolicy, StatsSnapshot, SyncOps, TelemetrySnapshot, WaitOutcome,
};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Construction-time configuration for a [`NetBarrier`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetConfig {
    /// Local participants hosted by this endpoint (dense ids `0..locals`).
    pub locals: usize,
    /// Stall policy for local waits.
    pub policy: StallPolicy,
    /// How long an episode may stay pending before the recovery step
    /// (retransmit own rounds, nack the stalled source) runs. `None`
    /// disables recovery: waits block until completion, poison, or their
    /// own deadline.
    pub round_timeout: Option<Duration>,
    /// Round recoveries tolerated before the stalled round's source is
    /// declared dead and the barrier poisons.
    pub resend_limit: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            locals: 1,
            // The unit is socket polls, not loads: a probe of a stalled
            // wait is a `read(2)` per link, some 100x a shared-memory
            // probe. Sixteen of them cover a peer that is running; past
            // that the waiter is burning the time slice of the peer it is
            // waiting for, and yields.
            policy: StallPolicy::SpinYield { spin_limit: 16 },
            round_timeout: Some(Duration::from_millis(200)),
            resend_limit: 25,
        }
    }
}

impl NetConfig {
    /// The default configuration: one local participant.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the number of local participants.
    #[must_use]
    pub fn locals(mut self, locals: usize) -> Self {
        self.locals = locals;
        self
    }

    /// Sets the local stall policy.
    #[must_use]
    pub fn policy(mut self, policy: StallPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets (or with `None`, disables) the per-round receive budget.
    #[must_use]
    pub fn round_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.round_timeout = timeout;
        self
    }

    /// Sets the recovery budget before a stalled source is declared dead.
    #[must_use]
    pub fn resend_limit(mut self, limit: u32) -> Self {
        self.resend_limit = limit;
        self
    }
}

/// Sentinel in the dead-peer word: no peer recorded (stored value is
/// `peer + 1`).
const NO_DEAD_PEER: usize = 0;

/// Pending probes per clock read of the recovery step: the cadence at
/// which the core's spin loop polices a deadline, so a probe that spins
/// reads the clock no more often than a bounded wait's own spin does.
const RECOVERY_CLOCK_PERIOD: u32 = 64;

/// A [`SplitBarrier`] whose episodes are completed by message passing
/// across a [`Transport`] mesh: the episode core over the `NetRounds`
/// protocol, plus the frame sink the transport delivers into. See the
/// module docs for the protocol and failure model.
///
/// Membership is fixed at start: the endpoint keeps the trait's refusing
/// `evict` and `admit`.
#[derive(Debug)]
pub struct NetBarrier<S: SyncOps = RealSync> {
    core: Barrier<NetRounds<S>, S>,
    /// Dissemination rounds per episode, ⌈log₂ nodes⌉.
    rounds: u32,
}

/// One endpoint's dissemination rounds, as a [`Protocol`] of the episode
/// core.
#[derive(Debug)]
struct NetRounds<S: SyncOps> {
    transport: Arc<dyn Transport>,
    rank: usize,
    nodes: usize,
    locals: usize,
    rounds: u32,
    round_timeout: Option<Duration>,
    resend_limit: u32,
    /// Total local arrivals ever; the endpoint has entered episode `e`
    /// once this reaches `locals * (e + 1)`. Monotone, so it needs no
    /// per-episode reset.
    local_count: S::AtomicU64,
    /// Per round: `episode + 1` of the highest inbound signal (fetch_max).
    seen: Vec<S::AtomicU64>,
    /// Per round: `episode + 1` up to which our signal is claimed sent.
    sent: Vec<S::AtomicU64>,
    /// Episodes completed at this endpoint.
    completed: S::AtomicU64,
    /// `peer + 1` of a peer declared dead ([`NO_DEAD_PEER`] = none).
    dead_peer: S::AtomicUsize,
    /// Pending probes seen by the recovery step, which reads the clock on
    /// one in [`RECOVERY_CLOCK_PERIOD`]. Racy by design, and plain like the
    /// lock below: recovery is wall-clock driven, so the checker disarms it.
    pending_probes: AtomicU32,
    recovery: Mutex<Recovery>,
    net: NetStats,
}

/// The episode the recovery step is timing: its goal word (`episode +
/// 1`), when it was first seen pending or last recovered, and the
/// recoveries run for it.
#[derive(Debug)]
struct Recovery {
    goal: u64,
    since: Instant,
    runs: u32,
}

impl NetBarrier<RealSync> {
    /// Builds the barrier over `transport` and starts frame delivery.
    ///
    /// # Panics
    ///
    /// Panics if `config.locals == 0`.
    #[must_use]
    pub fn start(transport: Arc<dyn Transport>, config: NetConfig) -> Arc<Self> {
        Self::start_in(transport, config)
    }
}

impl<S: SyncOps> NetBarrier<S> {
    /// [`NetBarrier::start`] over an explicit [`SyncOps`] domain (the
    /// `fuzzy-check` model checker substitutes its instrumented domain
    /// here).
    ///
    /// # Panics
    ///
    /// Panics if `config.locals == 0`.
    #[must_use]
    pub fn start_in(transport: Arc<dyn Transport>, config: NetConfig) -> Arc<Self> {
        assert!(config.locals > 0, "an endpoint needs at least one local");
        let (rank, nodes) = (transport.rank(), transport.nodes());
        let rounds = rounds(nodes);
        let protocol = NetRounds {
            transport,
            rank,
            nodes,
            locals: config.locals,
            rounds,
            round_timeout: config.round_timeout,
            resend_limit: config.resend_limit,
            local_count: S::AtomicU64::new(0),
            seen: (0..rounds).map(|_| S::AtomicU64::new(0)).collect(),
            sent: (0..rounds).map(|_| S::AtomicU64::new(0)).collect(),
            completed: S::AtomicU64::new(0),
            dead_peer: S::AtomicUsize::new(NO_DEAD_PEER),
            pending_probes: AtomicU32::new(0),
            recovery: Mutex::new(Recovery {
                goal: 0,
                since: Instant::now(),
                runs: 0,
            }),
            net: NetStats::new(nodes),
        };
        let barrier = Arc::new(NetBarrier {
            rounds,
            core: Barrier::from_protocol(config.locals, config.policy, protocol),
        });
        let sink: Arc<dyn FrameSink> = Arc::clone(&barrier) as Arc<dyn FrameSink>;
        barrier.core.protocol().transport.start(sink);
        barrier
    }

    /// This endpoint's mesh rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.core.protocol().rank
    }

    /// Number of mesh endpoints.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.core.protocol().nodes
    }

    /// Dissemination rounds per episode, ⌈log₂ nodes⌉: the signal frames
    /// one episode sends from this endpoint.
    #[must_use]
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Transport telemetry: per-peer frame counts, retries, decode errors.
    #[must_use]
    pub fn net_stats(&self) -> NetSnapshot {
        self.core.protocol().net.snapshot()
    }

    /// The peer this endpoint declared dead, if any.
    #[must_use]
    pub fn dead_peer(&self) -> Option<usize> {
        let v = self.core.protocol().dead_peer.load(Ordering::Acquire);
        (v != NO_DEAD_PEER).then(|| v - 1)
    }

    /// Says goodbye and stops frame delivery. After this the barrier can
    /// complete no further episodes.
    pub fn shutdown(&self) {
        self.core.protocol().transport.shutdown();
    }
}

impl<S: SyncOps> NetRounds<S> {
    fn locally_entered(&self, goal: u64) -> bool {
        self.local_count.load(Ordering::Acquire) >= self.locals as u64 * goal
    }

    /// Receives on this thread whatever the transport already holds,
    /// delivering it under `cx` through a sink on the stack. Delivery
    /// drives but never polls, so this does not re-enter the transport.
    fn poll(&self, cx: &Cx<'_, S>) {
        self.transport.poll(&Probe { rounds: self, cx });
    }

    /// Non-blocking protocol pump: sends every round that is due for the
    /// lowest incomplete episode and advances completion. Idempotent and
    /// callable from any thread — waiters, probes, and whoever delivers a
    /// frame all drive; `cx` records a completion under the participant
    /// whose arrival or probe this is, or under nobody for a deliverer.
    fn drive(&self, cx: &Cx<'_, S>) {
        loop {
            let goal = self.completed.load(Ordering::Acquire) + 1;
            if !self.locally_entered(goal) {
                return;
            }
            let mut due = 0;
            while due < self.rounds {
                if due > 0 && self.seen[due as usize - 1].load(Ordering::Acquire) < goal {
                    break;
                }
                self.send_round(goal, due, cx);
                due += 1;
            }
            // Release needs every round's inbound signal — the transitive
            // all-arrived proof runs through this endpoint's own waits,
            // so the final round's signal alone is not sufficient.
            let released = due == self.rounds
                && (self.rounds == 0
                    || self.seen[self.rounds as usize - 1].load(Ordering::Acquire) >= goal);
            if !released {
                return;
            }
            if self.completed.fetch_max(goal, Ordering::AcqRel) < goal {
                cx.record_episode(goal - 1);
                // The next episode's arrivals may already be in; keep
                // pumping until nothing more is due.
                continue;
            }
            return;
        }
    }

    /// Sends round `round` of the episode with goal word `goal` exactly
    /// once (the `sent` fetch_max is the claim).
    fn send_round(&self, goal: u64, round: u32, cx: &Cx<'_, S>) {
        // Cheap pre-check before the RMW claim: `drive` re-walks every due
        // round on each pump, and every probe of a pending episode pumps.
        if self.sent[round as usize].load(Ordering::Acquire) >= goal {
            return;
        }
        if self.sent[round as usize].fetch_max(goal, Ordering::AcqRel) >= goal {
            return;
        }
        let to = partner(self.rank, round, self.nodes);
        let episode = goal - 1;
        if self.send(to, &Message::Signal { episode, round }, cx) {
            self.net.record_send(to);
        }
    }

    /// Sends `msg` to `to`; a failed send declares the peer dead.
    fn send(&self, to: usize, msg: &Message, cx: &Cx<'_, S>) -> bool {
        let sent = self.transport.send(to, msg);
        if let Err(err) = &sent {
            self.mark_peer_dead(err.peer().unwrap_or(to), cx);
        }
        sent.is_ok()
    }

    /// Declares `peer` dead: survivors poison and release instead of
    /// wedging on signals that will never come.
    fn mark_peer_dead(&self, peer: usize, cx: &Cx<'_, S>) {
        self.dead_peer.fetch_max(peer + 1, Ordering::AcqRel);
        self.poison(cx);
    }

    /// Poisons the endpoint and, on the first transition only, tells every
    /// peer, so one endpoint's fault releases the whole mesh.
    fn poison(&self, cx: &Cx<'_, S>) {
        if !cx.poison() {
            return;
        }
        self.net.record_poison_frame();
        let episode = self.completed.load(Ordering::Acquire);
        for peer in (0..self.nodes).filter(|&peer| peer != self.rank) {
            // Best effort: an unreachable peer is already released by its
            // own link-down observation.
            if self
                .transport
                .send(peer, &Message::Poison { episode })
                .is_ok()
            {
                self.net.record_send(peer);
            }
        }
    }

    /// The lowest round still missing its inbound signal for `goal`.
    fn first_unseen_round(&self, goal: u64) -> Option<u32> {
        (0..self.rounds).find(|&r| self.seen[r as usize].load(Ordering::Acquire) < goal)
    }

    /// The round-recovery step of a probe that found `goal` pending. Once
    /// the endpoint has entered it locally (a slow local region is not a
    /// network fault) and it has been pending past `timeout`, re-sends our
    /// claimed rounds and nacks the source of the first missing one; past
    /// `resend_limit` recoveries, declares that source dead.
    fn recover(&self, goal: u64, timeout: Duration, cx: &Cx<'_, S>) {
        if !self.locally_entered(goal) {
            return;
        }
        let probes = self.pending_probes.load(Ordering::Relaxed).wrapping_add(1);
        self.pending_probes.store(probes, Ordering::Relaxed);
        if !probes.is_multiple_of(RECOVERY_CLOCK_PERIOD) {
            return;
        }
        let now = Instant::now();
        let runs = {
            let mut recovery = self.recovery.lock().unwrap_or_else(PoisonError::into_inner);
            if recovery.goal != goal {
                (recovery.goal, recovery.since, recovery.runs) = (goal, now, 0);
                return;
            }
            if now.saturating_duration_since(recovery.since) < timeout {
                return;
            }
            recovery.since = now;
            recovery.runs += 1;
            recovery.runs
        };
        let stalled = self.first_unseen_round(goal);
        if runs > self.resend_limit {
            match stalled {
                Some(round) => self.mark_peer_dead(source(self.rank, round, self.nodes), cx),
                None => self.poison(cx),
            }
            return;
        }
        let episode = goal - 1;
        for round in 0..self.rounds {
            if self.sent[round as usize].load(Ordering::Acquire) < goal {
                break;
            }
            let to = partner(self.rank, round, self.nodes);
            if !self.send(to, &Message::Signal { episode, round }, cx) {
                return;
            }
            self.net.record_retry(to);
        }
        if let Some(round) = stalled {
            let from = source(self.rank, round, self.nodes);
            if self.send(from, &Message::Nack { episode, round }, cx) {
                self.net.record_nack();
                self.net.record_send(from);
            }
        }
    }

    /// Handles one frame from `from`, on whichever thread delivers it.
    fn deliver(&self, from: usize, msg: Message, cx: &Cx<'_, S>) {
        self.net.record_recv(from);
        match msg {
            Message::Signal { episode, round } => {
                if (round as usize) < self.seen.len() {
                    self.seen[round as usize].fetch_max(episode + 1, Ordering::AcqRel);
                    self.drive(cx);
                }
                // An out-of-range round is a peer bug, not ours: ignore.
            }
            Message::Nack { episode, round } => {
                // The sender is missing our `round` signal; re-send it if
                // we have in fact claimed it.
                if (round as usize) < self.sent.len()
                    && self.sent[round as usize].load(Ordering::Acquire) > episode
                    && partner(self.rank, round, self.nodes) == from
                    && self
                        .transport
                        .send(from, &Message::Signal { episode, round })
                        .is_ok()
                {
                    self.net.record_retry(from);
                }
            }
            Message::Poison { .. } => {
                self.net.record_poison_frame();
                // Local only: the origin already told everyone.
                cx.poison();
            }
            Message::Hello { .. } | Message::Bye => {}
        }
    }
}

/// The sink a participant's own poll delivers into: the protocol and the
/// participant's context, borrowed for one call, so a probe takes no lock
/// and no reference count to find its sink. A completion it sees is
/// recorded in that participant's statistics cell.
struct Probe<'a, S: SyncOps> {
    rounds: &'a NetRounds<S>,
    cx: &'a Cx<'a, S>,
}

impl<S: SyncOps> FrameSink for Probe<'_, S> {
    fn deliver(&self, from: usize, msg: Message) {
        self.rounds.deliver(from, msg, self.cx);
    }

    fn decode_failure(&self, _from: usize, _err: DecodeError) {
        self.rounds.net.record_decode_error();
    }

    fn link_down(&self, peer: usize, graceful: bool) {
        if !graceful {
            self.rounds.mark_peer_dead(peer, self.cx);
        }
    }
}

impl<S: SyncOps> Protocol<S> for NetRounds<S> {
    /// Signal, then listen: the rounds already due go on the wire before
    /// the poll, whose deliveries drive the rest.
    fn arrive(&self, _id: usize, _episode: u64, cx: &Cx<'_, S>) {
        self.local_count.fetch_add(1, Ordering::AcqRel);
        self.drive(cx);
        self.poll(cx);
    }

    /// A completed episode costs one load. A pending one polls the
    /// transport, drives, re-reads `completed`, and runs the recovery step
    /// when recovery is armed.
    fn released(&self, _id: usize, episode: u64, cx: &Cx<'_, S>) -> bool {
        if self.completed.load(Ordering::Acquire) > episode {
            return true;
        }
        self.poll(cx);
        self.drive(cx);
        if self.completed.load(Ordering::Acquire) > episode {
            return true;
        }
        if let Some(timeout) = self.round_timeout {
            self.recover(episode + 1, timeout, cx);
        }
        false
    }

    /// Never reached: [`NetBarrier`] does not forward `evict`, so an
    /// endpoint's membership is fixed at start.
    fn retire(&self, _id: usize, _cx: &Cx<'_, S>) {
        unreachable!("a mesh endpoint never retires a participant")
    }

    /// Never reached: [`NetBarrier`] does not forward `admit`.
    fn admit(&self, _id: usize, _cx: &Cx<'_, S>) {
        unreachable!("a mesh endpoint never admits a participant")
    }
}

/// Forwards to the core; `poison` also broadcasts the `Poison` frame.
impl<S: SyncOps> SplitBarrier for NetBarrier<S> {
    fn arrive(&self, id: usize) -> ArrivalToken {
        self.core.arrive(id)
    }

    fn is_complete(&self, token: &ArrivalToken) -> bool {
        self.core.is_complete(token)
    }

    fn wait_deadline(
        &self,
        token: ArrivalToken,
        deadline: Deadline,
    ) -> Result<WaitOutcome, BarrierError> {
        self.core.wait_deadline(token, deadline)
    }

    fn poison(&self) {
        self.core.drive(|rounds, cx| rounds.poison(cx));
    }

    fn clear_poison(&self) {
        self.core.clear_poison();
    }

    fn is_poisoned(&self) -> bool {
        self.core.is_poisoned()
    }

    fn participants(&self) -> usize {
        self.core.participants()
    }

    fn stats(&self) -> StatsSnapshot {
        self.core.stats()
    }

    fn telemetry(&self) -> TelemetrySnapshot {
        self.core.telemetry()
    }
}

/// The started sink, for the transport's own deliveries: a `Probe`
/// under nobody's context.
impl<S: SyncOps> FrameSink for NetBarrier<S> {
    fn deliver(&self, from: usize, msg: Message) {
        self.core
            .drive(|rounds, cx| Probe { rounds, cx }.deliver(from, msg));
    }

    fn decode_failure(&self, from: usize, err: DecodeError) {
        self.core
            .drive(|rounds, cx| Probe { rounds, cx }.decode_failure(from, err));
    }

    fn link_down(&self, peer: usize, graceful: bool) {
        self.core
            .drive(|rounds, cx| Probe { rounds, cx }.link_down(peer, graceful));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loopback::LoopbackMesh;
    use crate::SocketTransport;

    fn mesh_barriers(nodes: usize, config: NetConfig) -> (LoopbackMesh, Vec<Arc<NetBarrier>>) {
        let mesh = LoopbackMesh::new(nodes);
        let barriers = mesh
            .endpoints()
            .into_iter()
            .map(|t| NetBarrier::start(Arc::new(t), config))
            .collect();
        (mesh, barriers)
    }

    /// A call a [`Spy`] saw, in order.
    #[derive(Debug, Clone, PartialEq)]
    enum Call {
        Send(usize, Message),
        Poll,
    }

    /// A transport that logs the calls made on it and forwards them to a
    /// real one. A spy that is not `sweeping` keeps the real endpoint's
    /// `start` to itself: only a caller's poll then reads its socket.
    #[derive(Debug)]
    struct Spy {
        inner: Arc<dyn Transport>,
        sweeping: bool,
        calls: Mutex<Vec<Call>>,
    }

    impl Spy {
        fn over(inner: impl Transport + 'static, sweeping: bool) -> Arc<Self> {
            Arc::new(Spy {
                inner: Arc::new(inner),
                sweeping,
                calls: Mutex::default(),
            })
        }

        fn take_calls(&self) -> Vec<Call> {
            std::mem::take(&mut self.calls.lock().unwrap())
        }
    }

    impl Transport for Spy {
        fn rank(&self) -> usize {
            self.inner.rank()
        }

        fn nodes(&self) -> usize {
            self.inner.nodes()
        }

        fn send(&self, to: usize, msg: &Message) -> Result<(), crate::NetError> {
            self.calls.lock().unwrap().push(Call::Send(to, *msg));
            self.inner.send(to, msg)
        }

        fn start(&self, sink: Arc<dyn FrameSink>) {
            if self.sweeping {
                self.inner.start(sink);
            }
        }

        fn poll(&self, sink: &dyn FrameSink) -> usize {
            self.calls.lock().unwrap().push(Call::Poll);
            self.inner.poll(sink)
        }

        fn shutdown(&self) {
            self.inner.shutdown();
        }
    }

    #[test]
    fn arrive_signals_before_it_listens() {
        let mesh = LoopbackMesh::new(2);
        let spy = Spy::over(mesh.endpoint(0), true);
        let b = NetBarrier::start(Arc::clone(&spy) as Arc<dyn Transport>, NetConfig::new());
        spy.take_calls();
        let _token = b.arrive(0);
        let calls = spy.take_calls();
        let signal = Call::Send(
            1,
            Message::Signal {
                episode: 0,
                round: 0,
            },
        );
        assert_eq!(calls.first(), Some(&signal), "{calls:?}");
        assert!(
            calls.contains(&Call::Poll),
            "arrive still listens: {calls:?}"
        );
    }

    #[test]
    fn arrive_sends_every_round_already_due() {
        // Rank 0 of three runs two rounds. Its round-0 source, rank 2, has
        // already signalled, and no sweeper reads rank 0's socket, so the
        // frame waits there for rank 0's own poll: the one `arrive` must
        // send round 0, read the frame, and send round 1 before it returns.
        let nodes = 3;
        let dir = std::env::temp_dir().join(format!("fuzzy-net-cascade-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let peers: Vec<_> = (1..nodes)
            .map(|rank| {
                let dir = dir.clone();
                std::thread::spawn(move || SocketTransport::unix(rank, nodes, &dir).unwrap())
            })
            .collect();
        let own = Spy::over(SocketTransport::unix(0, nodes, &dir).unwrap(), false);
        let b0 = NetBarrier::start(own, NetConfig::new());
        let [b1, b2]: [Arc<NetBarrier>; 2] = peers
            .into_iter()
            .map(|t| NetBarrier::start(Arc::new(t.join().unwrap()), NetConfig::new()))
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(b0.rounds(), 2);
        let t2 = b2.arrive(0);
        let before = b0.net_stats().frames_sent;
        let t0 = b0.arrive(0);
        assert_eq!(b0.net_stats().frames_sent - before, 2);
        let t1 = b1.arrive(0);
        for (b, t) in [(&b0, t0), (&b1, t1), (&b2, t2)] {
            let outcome = b.wait_deadline(t, Deadline::after(Duration::from_secs(10)));
            assert_eq!(outcome.map(|o| o.episode), Ok(0));
            b.shutdown();
        }
    }

    #[test]
    fn single_node_is_a_local_barrier() {
        let (_mesh, bs) = mesh_barriers(1, NetConfig::new());
        let b = &bs[0];
        for e in 0..5 {
            let t = b.arrive(0);
            assert_eq!(t.episode(), e);
            assert!(b.is_complete(&t));
            assert_eq!(b.wait(t).episode, e);
        }
        assert_eq!(b.stats().episodes, 5);
    }

    #[test]
    fn membership_is_fixed_at_start() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        for b in &bs {
            assert_eq!(b.admit(0), Err(BarrierError::AdmitUnsupported));
            assert!(b.is_member(0) && !b.is_member(b.participants()));
        }
    }

    #[test]
    fn two_nodes_complete_episodes_in_lockstep() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        std::thread::scope(|s| {
            for b in &bs {
                let b = Arc::clone(b);
                s.spawn(move || {
                    for e in 0..100u64 {
                        let t = b.arrive(0);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        for b in &bs {
            assert_eq!(b.stats().episodes, 100);
        }
    }

    #[test]
    fn skew_is_absorbed_by_the_fuzzy_region() {
        // Rank 0 races ahead through its arrivals; rank 1's region is
        // slow. Episodes must still agree and pipelining must not let
        // rank 0 run more than one episode ahead (it can't: it waits).
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        std::thread::scope(|s| {
            let fast = Arc::clone(&bs[0]);
            let slow = Arc::clone(&bs[1]);
            s.spawn(move || {
                for e in 0..20u64 {
                    let t = fast.arrive(0);
                    assert_eq!(fast.wait(t).episode, e);
                }
            });
            s.spawn(move || {
                for e in 0..20u64 {
                    let t = slow.arrive(0);
                    std::thread::sleep(Duration::from_micros(200));
                    assert_eq!(slow.wait(t).episode, e);
                }
            });
        });
    }

    #[test]
    fn five_nodes_multi_round_dissemination() {
        let (_mesh, bs) = mesh_barriers(5, NetConfig::new());
        assert_eq!(bs[0].rounds, 3);
        std::thread::scope(|s| {
            for b in &bs {
                let b = Arc::clone(b);
                s.spawn(move || {
                    for e in 0..50u64 {
                        let t = b.arrive(0);
                        assert_eq!(b.wait(t).episode, e);
                    }
                });
            }
        });
        let snap = bs[0].net_stats();
        assert!(snap.frames_sent >= 150, "3 rounds x 50 episodes");
        assert_eq!(snap.decode_errors, 0);
    }

    #[test]
    fn local_aggregation_spans_multiple_participants() {
        // Node 0 hosts three local participants, node 1 hosts one; an
        // episode needs all four.
        let mesh = LoopbackMesh::new(2);
        let many = NetBarrier::start(Arc::new(mesh.endpoint(0)), NetConfig::new().locals(3));
        let one = NetBarrier::start(Arc::new(mesh.endpoint(1)), NetConfig::new());
        std::thread::scope(|s| {
            {
                let one = Arc::clone(&one);
                s.spawn(move || {
                    for _ in 0..10u64 {
                        let t = one.arrive(0);
                        one.wait(t);
                    }
                });
            }
            for id in 0..3 {
                let many = Arc::clone(&many);
                s.spawn(move || {
                    for e in 0..10u64 {
                        let t = many.arrive(id);
                        assert_eq!(many.wait(t).episode, e);
                    }
                });
            }
        });
        assert_eq!(many.stats().episodes, 10);
        assert_eq!(many.stats().arrivals, 30);
    }

    #[test]
    fn completion_observed_by_the_delivering_thread_is_counted() {
        // Rank 0 arrives first; the frame that completes its episode is
        // delivered (loopback: on the sender's thread) while its own
        // participant is still in its region. That deliverer is no
        // participant of rank 0's, so the completion must be on the books
        // before rank 0 probes or waits — and exactly once after it does.
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        for e in 0..3 * fuzzy_barrier::stats::SPREAD_SAMPLE_PERIOD {
            let t0 = bs[0].arrive(0);
            assert_eq!(bs[0].stats().episodes, e, "peer has not arrived");
            let t1 = bs[1].arrive(0);
            assert_eq!(bs[0].stats().episodes, e + 1, "delivered completion");
            assert_eq!(bs[0].wait(t0).episode, e);
            assert_eq!(bs[1].wait(t1).episode, e);
            for b in &bs {
                let s = b.stats();
                assert_eq!((s.episodes, s.arrivals, s.waits), (e + 1, e + 1, e + 1));
            }
        }
        assert_eq!(bs[0].telemetry().spread.episodes, 3);
    }

    #[test]
    fn counts_are_conserved_over_loopback() {
        // Node 0 hosts `n` locals, node 1 one: completions are observed by
        // whichever local or deliverer gets there first, and every one of
        // them must land in exactly one place.
        let episodes = 150u64;
        let sampled = episodes / fuzzy_barrier::stats::SPREAD_SAMPLE_PERIOD;
        for n in [1usize, 2, 3, 8] {
            let mesh = LoopbackMesh::new(2);
            let many = NetBarrier::start(Arc::new(mesh.endpoint(0)), NetConfig::new().locals(n));
            let one = NetBarrier::start(Arc::new(mesh.endpoint(1)), NetConfig::new());
            std::thread::scope(|s| {
                let one = &one;
                s.spawn(move || {
                    for _ in 0..episodes {
                        let t = one.arrive(0);
                        one.wait(t);
                    }
                });
                for id in 0..n {
                    let many = &many;
                    s.spawn(move || {
                        for e in 0..episodes {
                            let t = many.arrive(id);
                            assert_eq!(many.wait(t).episode, e);
                        }
                    });
                }
            });
            for (b, locals) in [(&many, n as u64), (&one, 1)] {
                let t = b.telemetry();
                assert_eq!(t.base, b.stats());
                assert_eq!(t.base.episodes, episodes, "n={n}");
                assert_eq!(t.base.arrivals, episodes * locals, "n={n}");
                assert_eq!(t.base.waits, episodes * locals, "n={n}");
                assert_eq!(t.stall_hist.total(), t.base.stalls + t.base.timeouts);
                let rows = &t.per_participant;
                assert_eq!(rows.len() as u64, locals);
                assert!(rows
                    .iter()
                    .all(|p| p.arrivals == episodes && p.waits == episodes));
                assert_eq!(rows.iter().map(|p| p.stalls).sum::<u64>(), t.base.stalls);
                assert_eq!(rows.iter().map(|p| p.probes).sum::<u64>(), t.base.probes);
                assert_eq!(
                    rows.iter().map(|p| p.stall_time).sum::<Duration>(),
                    t.base.stall_time
                );
                assert_eq!(t.spread.episodes, sampled, "n={n}");
                assert!(t.spread.max >= t.spread.mean());
            }
        }
    }

    #[test]
    fn wait_deadline_times_out_without_peers() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        let t = bs[0].arrive(0);
        let err = bs[0]
            .wait_deadline(t, Deadline::after(Duration::from_millis(30)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Timeout { episode: 0 });
        assert_eq!(bs[0].stats().timeouts, 1);
    }

    #[test]
    fn poison_crosses_the_wire() {
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        let t = bs[0].arrive(0);
        bs[1].poison();
        let err = bs[0]
            .wait_deadline(t, Deadline::after(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Poisoned { episode: 0 });
        assert!(bs[0].is_poisoned());
        assert!(bs[0].net_stats().poison_frames >= 1);
    }

    #[test]
    fn timeout_then_poison_releases_the_peer() {
        let (_mesh, bs) = mesh_barriers(3, NetConfig::new());
        // Ranks 0 and 1 arrive; rank 2 never does. Rank 0 times out and
        // poisons, which must release rank 1 across the mesh as Poisoned.
        let t0 = bs[0].arrive(0);
        let t1 = bs[1].arrive(0);
        assert_eq!(
            bs[0].wait_deadline(t0, Deadline::after(Duration::from_millis(30))),
            Err(BarrierError::Timeout { episode: 0 })
        );
        bs[0].poison();
        let err = bs[1]
            .wait_deadline(t1, Deadline::after(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Poisoned { episode: 0 });
    }

    #[test]
    fn dead_peer_poisons_survivors_not_wedges() {
        let (mesh, bs) = mesh_barriers(3, NetConfig::new());
        let t0 = bs[0].arrive(0);
        mesh.kill(2);
        let err = bs[0]
            .wait_deadline(t0, Deadline::after(Duration::from_secs(5)))
            .unwrap_err();
        assert_eq!(err, BarrierError::Poisoned { episode: 0 });
        assert_eq!(bs[0].dead_peer(), Some(2));
    }

    #[test]
    fn seeded_frame_faults_are_survived_by_recovery() {
        use crate::loopback::FaultPlan;
        let plan = FaultPlan {
            seed: 7,
            drop_permille: 60,
            dup_permille: 60,
            delay_permille: 60,
            reorder_permille: 60,
        };
        let mesh = LoopbackMesh::with_faults(4, plan);
        let config = NetConfig::new()
            .round_timeout(Some(Duration::from_millis(20)))
            .resend_limit(500);
        let bs: Vec<Arc<NetBarrier>> = mesh
            .endpoints()
            .into_iter()
            .map(|t| NetBarrier::start(Arc::new(t), config))
            .collect();
        std::thread::scope(|s| {
            for b in &bs {
                let b = Arc::clone(b);
                s.spawn(move || {
                    for e in 0..40u64 {
                        let t = b.arrive(0);
                        let outcome = b
                            .wait_deadline(t, Deadline::after(Duration::from_secs(20)))
                            .expect("faulty links must be recovered, not fatal");
                        assert_eq!(outcome.episode, e);
                    }
                });
            }
        });
        let counts = mesh.fault_counts();
        assert!(counts.drops > 0, "the plan must actually have dropped");
        let recovered: u64 = bs.iter().map(|b| b.net_stats().retries).sum();
        assert!(recovered > 0, "drops must have forced retransmissions");
    }

    #[test]
    fn exhausted_round_recoveries_poison_every_endpoint() {
        // Every frame is dropped, so no endpoint ever hears from its
        // round-0 source and no poison broadcast lands either: each one
        // must give up on its own after `resend_limit` recoveries, naming
        // the silent source, well inside its own deadline.
        use crate::loopback::FaultPlan;
        let plan = FaultPlan {
            seed: 7,
            drop_permille: 1000,
            dup_permille: 0,
            delay_permille: 0,
            reorder_permille: 0,
        };
        let nodes = 3;
        let mesh = LoopbackMesh::with_faults(nodes, plan);
        let config = NetConfig::new()
            .round_timeout(Some(Duration::from_millis(5)))
            .resend_limit(3);
        let bs: Vec<Arc<NetBarrier>> = mesh
            .endpoints()
            .into_iter()
            .map(|t| NetBarrier::start(Arc::new(t), config))
            .collect();
        std::thread::scope(|s| {
            for b in &bs {
                s.spawn(move || {
                    let began = Instant::now();
                    let t = b.arrive(0);
                    let result = b.wait_deadline(t, Deadline::after(Duration::from_secs(5)));
                    assert_eq!(result, Err(BarrierError::Poisoned { episode: 0 }));
                    assert!(
                        began.elapsed() < Duration::from_secs(1),
                        "{:?}",
                        began.elapsed()
                    );
                });
            }
        });
        for (rank, b) in bs.iter().enumerate() {
            assert_eq!(
                b.dead_peer(),
                Some((rank + nodes - 1) % nodes),
                "rank {rank}"
            );
            let net = b.net_stats();
            assert!(net.retries > 0 && net.nacks > 0, "rank {rank}: {net:?}");
        }
        assert!(mesh.fault_counts().drops > 0);
    }

    #[test]
    fn async_frontend_runs_unmodified_over_the_mesh() {
        use fuzzy_barrier::AsyncBarrier;
        use std::future::Future;
        use std::pin::Pin;
        use std::sync::mpsc;
        const EPISODES: u64 = 10;
        const LIMIT: Duration = Duration::from_secs(10);
        let (_mesh, bs) = mesh_barriers(2, NetConfig::new());
        // No release word: the endpoint completes by its own rounds, and a
        // frame from the peer completes an episode with no call of ours on
        // the stack. The future's re-polls come from its own wakes only.
        assert_eq!(bs[0].release_epoch(), None);
        let asy = AsyncBarrier::new(Arc::clone(&bs[0]));
        let (pending, first_pending) = mpsc::channel::<u64>();
        std::thread::scope(|s| {
            let peer = Arc::clone(&bs[1]);
            s.spawn(move || {
                // Arrives for each episode only once the future has gone
                // `Pending` on it; stops when the future's side is gone.
                while let Ok(e) = first_pending.recv() {
                    let t = peer.arrive(0);
                    let outcome = peer.wait_deadline(t, Deadline::after(LIMIT));
                    assert_eq!(outcome.expect("the peer's episode completes").episode, e);
                }
            });
            s.spawn(move || {
                for e in 0..EPISODES {
                    let mut future = asy.arrive_async(0);
                    let mut told = false;
                    let outcome = block_on_wakes(
                        std::future::poll_fn(|cx| {
                            let poll = Pin::new(&mut future).poll(cx);
                            if poll.is_pending() && !told {
                                told = true;
                                pending.send(e).expect("the peer is listening");
                            }
                            poll
                        }),
                        LIMIT,
                    );
                    assert_eq!(outcome.expect("episode must complete").episode, e);
                }
                drop(pending);
            });
        });
    }

    /// Minimal single-future block_on that polls again only when woken,
    /// and panics if no wake comes within `limit`.
    fn block_on_wakes<F: std::future::Future>(future: F, limit: Duration) -> F::Output {
        use std::pin::pin;
        use std::sync::mpsc;
        use std::task::{Context, Poll, Wake, Waker};
        struct Notify(mpsc::Sender<()>);
        impl Wake for Notify {
            fn wake(self: Arc<Self>) {
                let _ = self.0.send(());
            }
        }
        let (tx, rx) = mpsc::channel();
        let waker = Waker::from(Arc::new(Notify(tx)));
        let mut cx = Context::from_waker(&waker);
        let mut future = pin!(future);
        loop {
            match future.as_mut().poll(&mut cx) {
                Poll::Ready(v) => return v,
                Poll::Pending => rx
                    .recv_timeout(limit)
                    .expect("a pending future is woken again"),
            }
        }
    }
}
